//! # DIDO — dynamic pipelines for in-memory key-value stores
//!
//! The serving side of *DIDO: Dynamic Pipelines for In-Memory Key-Value
//! Stores on Coupled CPU-GPU Architectures* (ICDE 2017): what
//! `dido-server` links. A [`ServingCore`] wires together the three
//! components of the paper's framework (Figure 7):
//!
//! * the **query processing pipeline** (`dido-pipeline`): the eight
//!   fine-grained tasks executed under a per-batch
//!   [`dido_model::PipelineConfig`], with flexible index-operation
//!   assignment;
//! * the **workload profiler** ([`WorkloadProfiler`]): GET/SET ratio and
//!   key/value-size counters plus sampled skewness estimation;
//! * the **APU-aware cost model** (`dido-cost-model`): Equations 1–3,
//!   searched by the [`Planner`] for the optimal configuration whenever
//!   the profiler reports a >10 % workload change.
//!
//! The paper's evaluation loop over the same three parts — batches
//! priced in virtual time on a simulated coupled CPU-GPU chip — is
//! `dido_bench::DidoSystem`, in the reproduction crate; nothing here
//! names a simulator executor.
//!
//! ```
//! use dido::{DidoOptions, ServingCore};
//! use dido_model::Query;
//! use dido_pipeline::TestbedOptions;
//!
//! let core = ServingCore::new(2, 1, DidoOptions {
//!     testbed: TestbedOptions { store_bytes: 4 << 20, ..TestbedOptions::default() },
//!     ..DidoOptions::default()
//! });
//! let responses = core.process_batch(0, vec![Query::set("hello", "world"), Query::get("hello")]);
//! assert_eq!(&responses[1].value[..], b"world");
//! // One controller tick: profile the interval, re-plan on drift.
//! core.controller_tick();
//! assert_eq!(core.metrics().work.queries, 2);
//! ```

#![warn(missing_docs)]

mod metrics;
mod options;
mod planner;
mod profiler;
mod serving;
mod striped;

pub use metrics::{MemoryFold, Metrics};
pub use options::{scaled_caches, stage_interval_ns, DidoOptions};
pub use planner::{IndexShape, Planner};
pub use profiler::{ProfilerConfig, WorkloadProfiler};
pub use serving::{ControllerHandle, ServingCore};
pub use striped::{ControlFold, StatsFold, StripedStats};
