//! # dido-kv — umbrella crate
//!
//! Single-dependency facade over the serving side of the DIDO workspace
//! (what `dido-server` and `dido-cli` link). Re-exports the public API
//! of every subsystem crate:
//!
//! * [`dido`] — the serving core (sharded engine, profiler, planner,
//!   controller).
//! * [`model`] — shared vocabulary (tasks, configs, stats, queries).
//! * [`apu`] — the coupled CPU-GPU hardware profiles and timing
//!   equations the cost model plans against.
//! * [`hashtable`] — the concurrent cuckoo hash index.
//! * [`kvstore`] — slab allocator + eviction + object store.
//! * [`net`] — wire protocols, the reactor / dispatcher / SD planes and
//!   the trace file format.
//! * [`workload`] — YCSB-style workload generators.
//! * [`pipeline`] — the eight tasks, the engine and the serving stage
//!   loop.
//! * [`cost_model`] — the APU-aware cost model and config search.
//!
//! The paper reproduction — the simulated executor, the virtual-time
//! `DidoSystem`, the Mega-KV baseline and the experiments — is the
//! `dido-bench` crate, which this package's tests and examples use and
//! its binaries do not link.
//!
//! ```
//! use dido_kv::model::Query;
//! let q = Query::set("user:1", "alice");
//! assert_eq!(&q.key[..], b"user:1");
//! ```

pub use dido;
pub use dido_apu_sim as apu;
pub use dido_cost_model as cost_model;
pub use dido_hashtable as hashtable;
pub use dido_kvstore as kvstore;
pub use dido_model as model;
pub use dido_net as net;
pub use dido_pipeline as pipeline;
pub use dido_workload as workload;
