//! Shared measurement harness for all experiments.

use crate::{preloaded_engine, DidoSystem, MegaKv, RunOptions, SimExecutor, WorkloadReport};
use dido::DidoOptions;
use dido_apu_sim::TimingEngine;
use dido_model::PipelineConfig;
use dido_pipeline::TestbedOptions;
use dido_workload::{WorkloadGen, WorkloadSpec};

/// Global knobs for a run of the experiment suite.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentCtx {
    /// Object-store bytes (scaled stand-in for the paper's 1,908 MB).
    pub store_bytes: usize,
    /// Latency budget in ns (the paper's default 1,000 µs).
    pub latency_budget_ns: f64,
    /// Calibration iterations per measurement.
    pub calibration_iters: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Trim the heaviest sweeps (long fig-21 cycles, etc.).
    pub quick: bool,
    /// Also write each table to `target/experiments/<name>.csv`.
    pub csv: bool,
}

impl Default for ExperimentCtx {
    fn default() -> ExperimentCtx {
        ExperimentCtx {
            store_bytes: 48 << 20,
            latency_budget_ns: 1_000_000.0,
            calibration_iters: 5,
            seed: 0xD1D0,
            quick: false,
            csv: false,
        }
    }
}

impl ExperimentCtx {
    /// Reduced-cost context for smoke tests and `--quick` runs.
    #[must_use]
    pub fn quick() -> ExperimentCtx {
        ExperimentCtx {
            store_bytes: 8 << 20,
            calibration_iters: 3,
            quick: true,
            ..ExperimentCtx::default()
        }
    }

    /// Testbed options derived from this context.
    #[must_use]
    pub fn testbed(&self) -> TestbedOptions {
        TestbedOptions {
            store_bytes: self.store_bytes,
            seed: self.seed,
            ..TestbedOptions::default()
        }
    }

    /// Run options derived from this context.
    #[must_use]
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            latency_budget_ns: self.latency_budget_ns,
            calibration_iters: self.calibration_iters,
            ..RunOptions::default()
        }
    }

    /// DIDO options derived from this context.
    #[must_use]
    pub fn dido_options(&self) -> DidoOptions {
        DidoOptions {
            testbed: self.testbed(),
            latency_budget_ns: self.latency_budget_ns,
            ..DidoOptions::default()
        }
    }
}

/// A steady-state throughput measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The workload label (paper notation).
    pub label: String,
    /// The calibrated report.
    pub report: WorkloadReport,
    /// The pipeline configuration in force at the end.
    pub config: PipelineConfig,
}

impl Measurement {
    /// Throughput in MOPS.
    #[must_use]
    pub fn mops(&self) -> f64 {
        self.report.throughput_mops()
    }
}

/// Measure Mega-KV (Coupled) on `spec`.
#[must_use]
pub fn measure_megakv_coupled(ctx: &ExperimentCtx, spec: WorkloadSpec) -> Measurement {
    let mk = MegaKv::coupled();
    let report = mk.measure(spec, ctx.testbed(), ctx.run_options());
    Measurement {
        label: spec.label(),
        report,
        config: MegaKv::static_config(),
    }
}

/// Measure Mega-KV (Discrete) on `spec`.
#[must_use]
pub fn measure_megakv_discrete(ctx: &ExperimentCtx, spec: WorkloadSpec) -> Measurement {
    let mk = MegaKv::discrete();
    let report = mk.measure(spec, ctx.testbed(), ctx.run_options());
    Measurement {
        label: spec.label(),
        report,
        config: MegaKv::static_config(),
    }
}

/// Measure DIDO (dynamic adaption on) on `spec`.
#[must_use]
pub fn measure_dido(ctx: &ExperimentCtx, spec: WorkloadSpec) -> Measurement {
    let dido = DidoSystem::preloaded(spec, ctx.dido_options());
    let mut generator = WorkloadGen::new(
        spec,
        spec.keyspace_size(ctx.store_bytes as u64, dido_kvstore::HEADER_SIZE),
        ctx.seed,
    );
    let report = dido.measure(|n| generator.batch(n), ctx.calibration_iters + 2);
    Measurement {
        label: spec.label(),
        report,
        config: dido.current_config(),
    }
}

/// Measure a *pinned* configuration on the coupled profile (no
/// adaption) — the building block for ablations and sweeps.
#[must_use]
pub fn measure_fixed_config(
    ctx: &ExperimentCtx,
    spec: WorkloadSpec,
    config: PipelineConfig,
) -> Measurement {
    let hw = dido_apu_sim::HwSpec::kaveri_apu();
    let (engine, mut generator) = preloaded_engine(spec, &hw, ctx.testbed());
    let sim = SimExecutor::new(TimingEngine::new(hw));
    let report = sim.run_workload(&engine, config, ctx.run_options(), |n| generator.batch(n));
    Measurement {
        label: spec.label(),
        report,
        config,
    }
}

/// Parse a workload label, panicking with a clear message on a typo.
#[must_use]
pub fn spec(label: &str) -> WorkloadSpec {
    WorkloadSpec::from_label(label).unwrap_or_else(|| panic!("bad workload label {label}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ctx_measures_all_three_systems() {
        let ctx = ExperimentCtx {
            store_bytes: 4 << 20,
            calibration_iters: 2,
            ..ExperimentCtx::quick()
        };
        let w = spec("K16-G95-U");
        let mk = measure_megakv_coupled(&ctx, w);
        let dd = measure_dido(&ctx, w);
        let ds = measure_megakv_discrete(&ctx, w);
        assert!(mk.mops() > 0.0);
        assert!(dd.mops() > 0.0);
        assert!(ds.mops() > 0.0);
        assert_eq!(mk.label, "K16-G95-U");
    }

    #[test]
    fn fixed_config_measurement_respects_config() {
        let ctx = ExperimentCtx {
            store_bytes: 4 << 20,
            calibration_iters: 2,
            ..ExperimentCtx::quick()
        };
        let m = measure_fixed_config(&ctx, spec("K8-G95-U"), PipelineConfig::cpu_only());
        assert_eq!(m.report.report.stages.len(), 1);
    }

    #[test]
    #[should_panic(expected = "bad workload label")]
    fn bad_label_panics() {
        let _ = spec("K7-G95-U");
    }
}
