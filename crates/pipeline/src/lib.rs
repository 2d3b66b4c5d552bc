//! Query-processing pipelines for DIDO.
//!
//! This crate implements the paper's fine-grained tasks
//! (`RV, PP, MM, IN, KC, RD, WR, SD` — §III-A) as real functions over a
//! [`KvEngine`] (cuckoo index + object store), and runs them in two
//! roles:
//!
//! * **Reproduction** — [`SimExecutor`]: deterministic virtual-time
//!   execution on the simulated coupled CPU-GPU chip. It meters every
//!   task ([`tasks::Meter`]) on its own cache filters and NIC rings,
//!   then prices stages, GPU kernels per task and per index-operation
//!   type, CPU↔GPU interference, wavefront-granular work stealing, and
//!   batch-size calibration under the paper's periodical scheduling.
//!   This is what every experiment in the evaluation uses.
//! * **Serving** — [`ShardedEngine::run_batch`]: the plain
//!   stage loop, [`tasks::run_stage`] per stage of the plan on the
//!   calling dispatcher thread, unmetered ([`tasks::NoMeter`]), handing
//!   back the responses and what the batch did (`BatchTally`). No
//!   simulator state is reachable from it.
//!
//! ```
//! use dido_apu_sim::{HwSpec, TimingEngine};
//! use dido_model::{PipelineConfig, Query};
//! use dido_pipeline::{EngineConfig, KvEngine, SimExecutor};
//!
//! let hw = HwSpec::kaveri_apu();
//! let engine = KvEngine::new(EngineConfig::new(1 << 20, hw.cpu.cache_bytes, hw.gpu.cache_bytes));
//! let sim = SimExecutor::new(TimingEngine::new(hw));
//! let (report, responses) = sim.run_batch(
//!     &engine,
//!     vec![Query::set("k", "v"), Query::get("k")],
//!     PipelineConfig::mega_kv(),
//! );
//! assert_eq!(&responses[1].value[..], b"v");
//! assert!(report.t_max_ns > 0.0);
//! ```

#![warn(missing_docs)]

mod batch;
mod cache;
mod engine;
mod setup;
mod sharded;
pub mod shardmap;
mod sim;
mod sim_meter;
pub mod tasks;

pub use batch::{Batch, QueryState, StagingArena};
pub use engine::{EngineConfig, IntegrityReport, KvEngine, OpCounts};
pub use setup::{preloaded_engine, TestbedOptions};
pub use sharded::{MigrateProgress, ResizeError, ShardedEngine};
pub use shardmap::{route_of, MapState, ShardMap};
pub use sim::{
    BatchReport, KernelReport, RunOptions, SimExecutor, StageReport, StealReport, WorkloadReport,
};
pub use tasks::StageCtx;
