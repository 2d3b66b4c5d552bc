//! Experiment harness for the DIDO paper reproduction.
//!
//! One module per figure of the evaluation section (§V); the
//! `experiments` binary exposes each as a subcommand and prints the same
//! rows/series the paper reports. Absolute numbers come from the
//! simulated APU, so the *shapes* (who wins, by what factor, where the
//! crossovers fall) are the reproduction target — see `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod experiments;
mod harness;
mod table;

pub use harness::{ExperimentCtx, Measurement};
pub use table::Table;
