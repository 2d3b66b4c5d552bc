//! The DIDO paper reproduction.
//!
//! Everything that prices a batch on the paper's simulated coupled
//! CPU-GPU chip lives here, above the serving crates and linked by none
//! of them: the virtual-time [`SimExecutor`] with its cache filters and
//! NIC rings, the sequential [`DidoSystem`] that adapts per batch on the
//! simulator's clock, the [`MegaKv`] static-pipeline baseline, and the
//! experiment harness — one module per figure of the evaluation section
//! (§V); the `experiments` binary exposes each as a subcommand and
//! prints the same rows/series the paper reports. Absolute numbers come
//! from the simulated APU, so the *shapes* (who wins, by what factor,
//! where the crossovers fall) are the reproduction target — see
//! `EXPERIMENTS.md`.
//!
//! ```
//! use dido_apu_sim::{HwSpec, TimingEngine};
//! use dido_bench::SimExecutor;
//! use dido_model::{PipelineConfig, Query};
//! use dido_pipeline::{EngineConfig, KvEngine};
//!
//! let hw = HwSpec::kaveri_apu();
//! let engine = KvEngine::mega_kv(EngineConfig::new(1 << 20, hw.cpu.cache_bytes, hw.gpu.cache_bytes));
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

mod cache;
pub mod experiments;
mod harness;
mod megakv;
mod setup;
mod sim;
mod sim_meter;
mod system;
mod table;

pub use harness::{ExperimentCtx, Measurement};
pub use megakv::{MegaKv, Variant};
pub use setup::preloaded_engine;
pub use sim::{
    BatchReport, KernelReport, RunOptions, SimExecutor, StageReport, StealReport, WorkloadReport,
};
pub use system::{DidoSystem, TraceSample};
pub use table::Table;
