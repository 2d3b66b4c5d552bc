//! The repo's benchmark: a pinned, slice-median front-door run of
//! `dido-server` plus an in-process traced run for per-layer numbers.
//!
//! It claims no gain. It is the instrument later claims are measured
//! with, so its first duty is that two sets of runs of the same code
//! agree; `NOISE.md` holds the evidence and `README.md` the protocol.

#![warn(missing_docs)]

pub mod e2e;
pub mod layers;
pub mod loadgen;
pub mod metrics;
pub mod server;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
