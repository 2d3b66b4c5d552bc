//! # DIDO — dynamic pipelines for in-memory key-value stores
//!
//! Reference implementation of *DIDO: Dynamic Pipelines for In-Memory
//! Key-Value Stores on Coupled CPU-GPU Architectures* (ICDE 2017) on a
//! simulated coupled CPU-GPU chip.
//!
//! A [`DidoSystem`] wires together the three components of the paper's
//! framework (Figure 7):
//!
//! * the **query processing pipeline** (`dido-pipeline`): the eight
//!   fine-grained tasks executed under a per-batch
//!   [`dido_model::PipelineConfig`], with flexible index-operation
//!   assignment and wavefront-granular work stealing;
//! * the **workload profiler** ([`WorkloadProfiler`]): GET/SET ratio and
//!   key/value-size counters plus sampled skewness estimation;
//! * the **APU-aware cost model** (`dido-cost-model`): Equations 1–3,
//!   searched exhaustively for the optimal configuration whenever the
//!   profiler reports a >10 % workload change.
//!
//! ```
//! use dido::{DidoOptions, DidoSystem};
//! use dido_model::Query;
//! use dido_pipeline::TestbedOptions;
//! use dido_workload::{WorkloadGen, WorkloadSpec};
//!
//! let spec = WorkloadSpec::from_label("K16-G95-S").unwrap();
//! let dido = DidoSystem::new(DidoOptions {
//!     testbed: TestbedOptions { store_bytes: 4 << 20, ..TestbedOptions::default() },
//!     ..DidoOptions::default()
//! });
//! // Convenience single-query API...
//! dido.execute(&Query::set("hello", "world"));
//! assert_eq!(&dido.execute(&Query::get("hello")).value[..], b"world");
//! // ...and the batched, dynamically adapted pipeline.
//! let mut generator = WorkloadGen::new(spec, 10_000, 42);
//! let (report, responses) = dido.process_batch(generator.batch(1024));
//! assert_eq!(responses.len(), 1024);
//! assert!(report.throughput_mops() > 0.0);
//! ```

#![warn(missing_docs)]

mod metrics;
mod planner;
mod profiler;
mod serving;
mod striped;
mod system;

pub use metrics::{MemoryFold, Metrics};
pub use profiler::{ProfilerConfig, WorkloadProfiler};
pub use serving::{ControllerHandle, ServingCore};
pub use striped::{ControlFold, StatsFold, StripedStats};
pub use system::{DidoOptions, DidoSystem, TraceSample};
