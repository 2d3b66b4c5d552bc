//! The query-processing engine of DIDO.
//!
//! This crate implements the paper's fine-grained tasks
//! (`RV, PP, MM, IN, KC, RD, WR, SD` — §III-A) as real functions over a
//! [`KvEngine`] (cuckoo index + object store), and the serving executor
//! over them: [`ShardedEngine::run_batch`] is the plain stage loop,
//! [`tasks::run_stage`] per stage of the plan on the calling dispatcher
//! thread, unmetered ([`tasks::NoMeter`]), handing back the responses
//! and what the batch did (`BatchTally`).
//!
//! What a task costs on the paper's coupled CPU-GPU chip is priced
//! elsewhere: a task reports the events a cost depends on to the
//! [`tasks::Meter`] of its stage, and the reproduction (`dido-bench`)
//! supplies a meter over its simulated machine. Nothing simulated is
//! defined in, or linked into, this crate.
//!
//! ```
//! use dido_model::{PipelineConfig, Query};
//! use dido_pipeline::{EngineConfig, ShardedEngine};
//!
//! let engine = ShardedEngine::new(1, EngineConfig::new(1 << 20, 64 << 10, 16 << 10));
//! let (responses, tally) = engine.run_batch(
//!     vec![Query::set("k", "v"), Query::get("k")],
//!     PipelineConfig::mega_kv(),
//! );
//! assert_eq!(&responses[1].value[..], b"v");
//! assert_eq!((tally.queries, tally.hits), (2, 1));
//! ```

#![warn(missing_docs)]

mod batch;
mod engine;
mod sharded;
pub mod shardmap;
pub mod tasks;

pub use batch::{Batch, QueryState, StagingArena};
pub use engine::{EngineConfig, IntegrityReport, KvEngine, OpCounts, TestbedOptions};
pub use sharded::{MigrateProgress, ResizeError, ShardedEngine};
pub use shardmap::{route_of, MapState, ShardMap};
pub use tasks::StageCtx;
