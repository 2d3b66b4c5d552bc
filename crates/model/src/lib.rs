//! Shared vocabulary for the DIDO in-memory key-value store.
//!
//! This crate defines the types that every other DIDO crate speaks in:
//!
//! * the [eight fine-grained tasks](TaskKind) the paper decomposes query
//!   processing into (`RV, PP, MM, IN, KC, RD, WR, SD`),
//! * the [three index operations](IndexOpKind) that can be assigned to
//!   processors independently (`Search`, `Insert`, `Delete`),
//! * [`PipelineConfig`] — a complete dynamic-pipeline configuration
//!   (which contiguous task segment runs on the GPU, where each index
//!   operation runs, whether work stealing is enabled), and its expansion
//!   into a concrete [`PipelinePlan`] of stages,
//! * [`ResourceUsage`] — the instruction / memory-access / cache-access
//!   accounting unit shared between the functional simulator and the
//!   analytic cost model (paper §IV, Equation 1),
//! * [`WorkloadStats`] — the per-batch profile (GET ratio, key/value
//!   sizes, skewness) that drives the cost-model-guided adaption,
//! * [`Query`]/[`QueryOp`] — the client-visible operations, and
//! * [`metric_table!`] — the one-row-per-metric declaration every
//!   crate's counters are built from.
//!
//! It is dependency-light on purpose: `dido-apu-sim`, `dido-hashtable`,
//! `dido-pipeline`, `dido-cost-model` and `dido` all build on it without
//! pulling in one another.

#![warn(missing_docs)]

mod clock;
mod config;
pub mod costs;
mod epoch;
mod metrics;
mod query;
mod resources;
mod stats;
mod task;

pub use clock::{
    deadline_expired, ttl_to_deadline, Clock, MockClock, SharedClock, SystemClock, TTL_IMMEDIATE,
};
pub use config::{ConfigEnumerator, IndexOpAssignment, PipelineConfig, PipelinePlan, StagePlan};
pub use epoch::{ConfigCell, EpochCell, Packed};
pub use metrics::{
    fold_slots, write_metric, Cell, Counter, Gauge, Hist, Max, MetricKind, HIST_BUCKETS,
};
pub use query::{Query, QueryOp, Response, ResponseStatus};
pub use resources::ResourceUsage;
pub use stats::{BatchTally, WorkloadStats};
pub use task::{IndexOpKind, Processor, TaskKind, TaskSet};

/// Width of a GPU wavefront on the simulated APU, and therefore the
/// granularity (number of queries per steal tag) used for CPU/GPU work
/// stealing (paper §III-B-3: "The best granularity for the number of
/// queries in a set should be the thread number of a wavefront, which is
/// 64 in APUs").
pub const WAVEFRONT_WIDTH: usize = 64;
