//! The Mega-KV baseline: a *static* CPU-GPU pipeline.
//!
//! Mega-KV (Zhang et al., VLDB 2015) is the state-of-the-art system the
//! DIDO paper compares against (§II-B): a fixed three-stage pipeline
//! `[RV,PP,MM]_CPU → [IN]_GPU → [KC,RD,WR,SD]_CPU` with **all** index
//! operations on the GPU, no index-operation flexibility, and no work
//! stealing. Two variants are evaluated:
//!
//! * **Mega-KV (Coupled)** — the paper's OpenCL port to the Kaveri APU:
//!   same static pipeline, but sharing memory with the CPU (no PCIe).
//! * **Mega-KV (Discrete)** — the original testbed (2× E5-2650v2 +
//!   2× GTX 780), where every GPU batch crosses PCIe but the GPU is far
//!   wider and has its own GDDR5.
//!
//! Both reuse the exact same functional pipeline as DIDO — only the
//! configuration is pinned, which is precisely the paper's point.

use crate::setup::preloaded_engine;
use crate::sim::{RunOptions, SimExecutor, WorkloadReport};
use dido_apu_sim::{HwSpec, TimingEngine};
use dido_model::PipelineConfig;
use dido_pipeline::{KvEngine, TestbedOptions};
use dido_workload::{WorkloadGen, WorkloadSpec};

/// Which testbed a Mega-KV instance models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// OpenCL port on the coupled Kaveri APU.
    Coupled,
    /// Original discrete testbed behind PCIe.
    Discrete,
}

/// The Mega-KV baseline system.
#[derive(Debug)]
pub struct MegaKv {
    sim: SimExecutor,
    variant: Variant,
}

impl MegaKv {
    /// Mega-KV (Coupled) on the Kaveri APU profile.
    #[must_use]
    pub fn coupled() -> MegaKv {
        MegaKv {
            sim: SimExecutor::new(TimingEngine::new(HwSpec::kaveri_apu())),
            variant: Variant::Coupled,
        }
    }

    /// Mega-KV (Discrete) on the dual-CPU + dual-GTX780 profile.
    #[must_use]
    pub fn discrete() -> MegaKv {
        MegaKv {
            sim: SimExecutor::new(TimingEngine::new(HwSpec::discrete_gtx780())),
            variant: Variant::Discrete,
        }
    }

    /// The variant.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Mega-KV's fixed pipeline configuration.
    #[must_use]
    pub fn static_config() -> PipelineConfig {
        PipelineConfig::mega_kv()
    }

    /// The underlying executor (for custom experiments).
    #[must_use]
    pub fn executor(&self) -> &SimExecutor {
        &self.sim
    }

    /// Hardware profile of this variant.
    #[must_use]
    pub fn hw(&self) -> &HwSpec {
        self.sim.timing().hw()
    }

    /// Build a preloaded engine for `spec` on this variant's hardware.
    #[must_use]
    pub fn testbed(&self, spec: WorkloadSpec, opts: TestbedOptions) -> (KvEngine, WorkloadGen) {
        preloaded_engine(spec, self.hw(), opts)
    }

    /// Steady-state throughput measurement under the static pipeline.
    pub fn run_workload(
        &self,
        engine: &KvEngine,
        generator: &mut WorkloadGen,
        opts: RunOptions,
    ) -> WorkloadReport {
        self.sim
            .run_workload(engine, Self::static_config(), opts, |n| generator.batch(n))
    }

    /// Convenience: build the testbed and measure in one call.
    pub fn measure(
        &self,
        spec: WorkloadSpec,
        testbed: TestbedOptions,
        opts: RunOptions,
    ) -> WorkloadReport {
        let (engine, mut generator) = self.testbed(spec, testbed);
        self.run_workload(&engine, &mut generator, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_model::{Processor, TaskKind};

    fn small_testbed() -> TestbedOptions {
        TestbedOptions {
            store_bytes: 8 << 20,
            ..TestbedOptions::default()
        }
    }

    fn spec(label: &str) -> WorkloadSpec {
        WorkloadSpec::from_label(label).unwrap()
    }

    #[test]
    fn static_config_matches_paper() {
        let cfg = MegaKv::static_config();
        let plan = cfg.plan();
        assert_eq!(plan.stages.len(), 3);
        assert_eq!(plan.stages[1].processor, Processor::Gpu);
        assert!(plan.stages[1].tasks.contains(TaskKind::In));
        assert_eq!(plan.stages[1].tasks.len(), 1);
        assert!(!cfg.work_stealing);
        assert_eq!(plan.stages[1].index_ops.len(), 3, "all index ops on the GPU");
    }

    #[test]
    fn coupled_measures_positive_throughput() {
        let mk = MegaKv::coupled();
        let wr = mk.measure(spec("K16-G95-U"), small_testbed(), RunOptions::default());
        assert!(wr.throughput_mops() > 0.1, "got {}", wr.throughput_mops());
        assert_eq!(wr.report.stages.len(), 3);
    }

    #[test]
    fn discrete_beats_coupled_on_raw_throughput() {
        // Paper §V-E: Mega-KV (Discrete) achieves 5.8-23.6x the APU
        // system's throughput thanks to the far bigger GPU + CPUs.
        let coupled = MegaKv::coupled()
            .measure(spec("K8-G95-U"), small_testbed(), RunOptions::default())
            .throughput_mops();
        let discrete = MegaKv::discrete()
            .measure(spec("K8-G95-U"), small_testbed(), RunOptions::default())
            .throughput_mops();
        assert!(
            discrete > 2.0 * coupled,
            "discrete {discrete:.2} MOPS should far exceed coupled {coupled:.2} MOPS"
        );
    }

    #[test]
    fn static_pipeline_is_identical_across_workloads() {
        // The whole point of the baseline: no matter the workload, the
        // configuration never moves.
        let mk = MegaKv::coupled();
        for label in ["K8-G100-U", "K32-G50-S", "K128-G95-U"] {
            let wr = mk.measure(spec(label), small_testbed(), RunOptions::default());
            assert_eq!(wr.report.stages.len(), 3, "{label}");
            assert_eq!(wr.report.stages[1].processor, Processor::Gpu, "{label}");
            assert!(wr.report.steal.is_none(), "{label}: no stealing in Mega-KV");
        }
    }

    #[test]
    fn latency_budget_is_respected() {
        let mk = MegaKv::coupled();
        let opts = RunOptions::default(); // 1,000 us
        let wr = mk.measure(spec("K16-G95-S"), small_testbed(), opts);
        assert!(
            wr.avg_latency_ns() <= opts.latency_budget_ns * 1.25,
            "estimated latency {:.0}us vs 1000us budget",
            wr.avg_latency_ns() / 1000.0
        );
    }

    #[test]
    fn measurements_are_deterministic() {
        let mk = MegaKv::coupled();
        let a = mk.measure(spec("K8-G95-U"), small_testbed(), RunOptions::default());
        let b = mk.measure(spec("K8-G95-U"), small_testbed(), RunOptions::default());
        assert!((a.throughput_mops() - b.throughput_mops()).abs() < 1e-9);
    }

    #[test]
    fn variants_report_correct_hardware() {
        assert!(MegaKv::coupled().hw().coupled);
        assert!(!MegaKv::discrete().hw().coupled);
        assert_eq!(MegaKv::coupled().variant(), Variant::Coupled);
        assert_eq!(MegaKv::discrete().variant(), Variant::Discrete);
    }
}
