//! The DIDO system: query processing pipeline + workload profiler +
//! cost-model-guided dynamic adaption (paper Figure 7), evaluated in
//! virtual time.
//!
//! [`DidoSystem::process_batch`] takes `&self` (a `KvServer` handler
//! shares the node with its owner), but the *virtual-time simulator* is
//! serial by nature — the clock is a fold over batches — so every batch
//! runs under one internal mutex: concurrent callers interleave in lock
//! order with exactly the sequential semantics. The adapt decision
//! itself is `dido`'s one [`Planner`]'s; the parallel data plane over real
//! (non-simulated) execution is [`dido::ServingCore`].

use crate::setup::preloaded_engine;
use crate::sim::{BatchReport, RunOptions, SimExecutor, WorkloadReport};
use dido::{scaled_caches, ControlFold, DidoOptions, IndexShape, Metrics, Planner, StripedStats};
use dido_apu_sim::{Ns, TimingEngine};
use dido_cost_model::ModelInputs;
use dido_model::{ConfigCell, PipelineConfig, Query, Response, WorkloadStats};
use dido_pipeline::{EngineConfig, KvEngine};
use dido_workload::WorkloadSpec;
use parking_lot::Mutex;

/// One entry of the virtual-time throughput trace (drives the paper's
/// Figure 20).
#[derive(Debug, Clone)]
pub struct TraceSample {
    /// Virtual time at batch completion, ns.
    pub at_ns: Ns,
    /// Batch throughput, MOPS.
    pub throughput_mops: f64,
    /// Configuration the batch ran under.
    pub config: PipelineConfig,
    /// Whether the pipeline was re-adapted *after* this batch.
    pub readapted: bool,
}

/// Serial state: the virtual-time executor, its clock and the trace.
/// The clock is a fold over batches, so batches through the simulator
/// are inherently ordered; the adapt decision runs under the same lock,
/// which preserves the exact sequential semantics under concurrent
/// callers.
struct SerialState {
    sim: SimExecutor,
    clock_ns: Ns,
    trace: Vec<TraceSample>,
}

/// The DIDO in-memory key-value store with dynamic pipeline execution.
pub struct DidoSystem {
    engine: KvEngine,
    planner: Planner,
    /// One lane: every batch serialises on `serial` anyway.
    stripes: StripedStats,
    config: ConfigCell,
    serial: Mutex<SerialState>,
}

impl DidoSystem {
    /// Build an empty DIDO node (no preloaded data).
    #[must_use]
    pub fn new(options: DidoOptions) -> DidoSystem {
        let (cpu_cache, gpu_cache) = scaled_caches(&options.testbed, &options.hw, 1);
        let engine = KvEngine::mega_kv(EngineConfig::new(
            options.testbed.store_bytes,
            cpu_cache,
            gpu_cache,
        ));
        Self::from_engine(engine, options)
    }

    /// Build a DIDO node preloaded with `spec`'s key space ("we store as
    /// many key-value objects as possible", §V-A).
    #[must_use]
    pub fn preloaded(spec: WorkloadSpec, options: DidoOptions) -> DidoSystem {
        let (engine, _gen) = preloaded_engine(spec, &options.hw, options.testbed);
        Self::from_engine(engine, options)
    }

    /// Build from an existing engine.
    #[must_use]
    pub fn from_engine(engine: KvEngine, options: DidoOptions) -> DidoSystem {
        DidoSystem {
            planner: Planner::new(options),
            stripes: StripedStats::new(1, options.profiler),
            config: ConfigCell::new(PipelineConfig::mega_kv()),
            serial: Mutex::new(SerialState {
                sim: SimExecutor::new(TimingEngine::new(options.hw)),
                clock_ns: 0.0,
                trace: Vec::new(),
            }),
            engine,
        }
    }

    /// The functional engine (index, store).
    #[must_use]
    pub fn engine(&self) -> &KvEngine {
        &self.engine
    }

    /// The currently active pipeline configuration (wait-free load).
    #[must_use]
    pub fn current_config(&self) -> PipelineConfig {
        self.config.load().0
    }

    /// The control-plane counters. Does not take the serial lock.
    fn control(&self) -> ControlFold {
        self.stripes.metrics(0.0).control
    }

    /// Number of pipeline re-adaptions (configuration changes) so far.
    #[must_use]
    pub fn adaptions(&self) -> usize {
        self.control().adaptions as usize
    }

    /// Number of times the cost model was (re)run — every >10 % workload
    /// drift triggers a run, whether or not the chosen configuration
    /// changed.
    #[must_use]
    pub fn model_runs(&self) -> usize {
        self.control().model_runs as usize
    }

    /// Virtual time elapsed, ns.
    #[must_use]
    pub fn clock_ns(&self) -> Ns {
        self.serial.lock().clock_ns
    }

    /// Snapshot of the per-batch virtual-time throughput trace.
    #[must_use]
    pub fn trace(&self) -> Vec<TraceSample> {
        self.serial.lock().trace.clone()
    }

    /// The node's operational metrics (queries, hit rate, throughput,
    /// configuration histogram), assembled now from the accumulators;
    /// busy time is the virtual clock.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.stripes.metrics(self.clock_ns())
    }

    /// Per-stage interval implied by the latency budget.
    #[must_use]
    pub fn stage_interval_ns(&self) -> f64 {
        self.planner.stage_interval_ns()
    }

    /// Direct single-query access (convenience API outside the batch
    /// pipeline).
    pub fn execute(&self, q: &Query) -> Response {
        self.engine.execute(q)
    }

    /// Pin the pipeline configuration (disables adaption until
    /// [`DidoSystem::force_readapt`] or a workload change re-enables it).
    pub fn set_config(&self, config: PipelineConfig) {
        self.config.publish(config);
    }

    /// Reset the profiler baseline so the next batch re-runs the cost
    /// model regardless of drift.
    pub fn force_readapt(&self) {
        self.planner.force_readapt();
    }

    fn index_shape(&self) -> IndexShape {
        IndexShape::of(self.engine.store.live_objects(), [&self.engine])
    }

    /// Model inputs for the current engine state and `stats`.
    #[must_use]
    pub fn model_inputs(&self, stats: WorkloadStats) -> ModelInputs {
        self.planner.model_inputs(stats, self.index_shape())
    }

    /// Process one batch under the current configuration, then profile
    /// it and — if the workload drifted past the 10 % threshold — run
    /// the cost model and adopt the new optimal configuration for the
    /// *coming* batches (paper §III-A). Callable concurrently.
    pub fn process_batch(&self, queries: Vec<Query>) -> (BatchReport, Vec<Response>) {
        self.stripes
            .observe(0, &queries, || self.engine.store.live_objects() as u64);
        let (active_config, _epoch) = self.config.load();

        let mut serial = self.serial.lock();
        let (report, responses) = serial.sim.run_batch(&self.engine, queries, active_config);
        self.stripes.record(0, active_config, &report.tally, 0);
        if let Some(steal) = &report.steal {
            self.stripes.record_sim_steal(0, steal.items as u64);
        }

        let readapted = self.planner.replan(
            report.tally.workload_stats(self.stripes.skew()),
            || self.index_shape(),
            &self.config,
            &self.stripes,
        );

        serial.clock_ns += report.t_max_ns;
        let at_ns = serial.clock_ns;
        serial.trace.push(TraceSample {
            at_ns,
            throughput_mops: report.throughput_mops(),
            config: self.config.load().0,
            readapted,
        });
        drop(serial);
        (report, responses)
    }

    /// Calibrated steady-state measurement under dynamic adaption:
    /// batches are sized to the latency budget while the profiler keeps
    /// adapting the pipeline.
    pub fn measure<F>(&self, mut next_batch: F, iterations: usize) -> WorkloadReport
    where
        F: FnMut(usize) -> Vec<Query>,
    {
        let interval = self.stage_interval_ns();
        let round = |x: usize| x.clamp(64, 1 << 18).div_ceil(64) * 64;
        let mut n = RunOptions::default().initial_batch;
        for _ in 0..iterations.max(1) {
            let (report, _) = self.process_batch(next_batch(n));
            let t = report.t_max_ns.max(1.0);
            let target = (n as f64 * interval / t) as usize;
            n = round((target + n) / 2);
        }
        // One undamped correction (t_max is near-linear in N by now),
        // then measure at the converged batch size.
        let (report, _) = self.process_batch(next_batch(n));
        n = round((n as f64 * interval / report.t_max_ns.max(1.0)) as usize);
        let (report, _) = self.process_batch(next_batch(n));
        WorkloadReport {
            report,
            batch_size: n,
            interval_ns: interval,
        }
    }
}

impl std::fmt::Debug for DidoSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let serial = self.serial.lock();
        f.debug_struct("DidoSystem")
            .field("config", &self.config.load().0.to_string())
            .field("adaptions", &self.adaptions())
            .field("clock_us", &(serial.clock_ns / 1000.0))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_model::ResponseStatus;
    use dido_pipeline::TestbedOptions;
    use dido_workload::WorkloadGen;

    fn opts() -> DidoOptions {
        DidoOptions {
            testbed: TestbedOptions {
                store_bytes: 8 << 20,
                ..TestbedOptions::default()
            },
            ..DidoOptions::default()
        }
    }

    fn spec(label: &str) -> WorkloadSpec {
        WorkloadSpec::from_label(label).unwrap()
    }

    #[test]
    fn first_batch_triggers_adaption() {
        let dido = DidoSystem::preloaded(spec("K8-G95-S"), opts());
        let mut g = WorkloadGen::new(spec("K8-G95-S"), 10_000, 1);
        assert_eq!(dido.adaptions(), 0);
        let (report, responses) = dido.process_batch(g.batch(4096));
        assert_eq!(responses.len(), 4096);
        assert!(report.throughput_mops() > 0.0);
        // The cost model ran; whether the config changed from the
        // Mega-KV default depends on the workload, but for small-KV
        // read-intensive it must.
        assert!(dido.adaptions() >= 1, "K8-G95 must move off the static pipeline");
        assert_ne!(dido.current_config(), PipelineConfig::mega_kv());
    }

    #[test]
    fn stable_workload_does_not_thrash() {
        let dido = DidoSystem::preloaded(spec("K16-G95-U"), opts());
        let mut g = WorkloadGen::new(spec("K16-G95-U"), 10_000, 2);
        for _ in 0..6 {
            let _ = dido.process_batch(g.batch(4096));
        }
        assert!(
            dido.adaptions() <= 2,
            "steady workload re-adapted {} times",
            dido.adaptions()
        );
    }

    #[test]
    fn workload_shift_triggers_readaption() {
        let dido = DidoSystem::preloaded(spec("K16-G95-S"), opts());
        let mut a = WorkloadGen::new(spec("K16-G95-S"), 10_000, 3);
        for _ in 0..3 {
            let _ = dido.process_batch(a.batch(4096));
        }
        let runs_after_warmup = dido.model_runs();
        // Swap to a write-heavy tiny-KV workload.
        let mut b = WorkloadGen::new(spec("K8-G50-U"), 10_000, 4);
        for _ in 0..3 {
            let _ = dido.process_batch(b.batch(4096));
        }
        assert!(
            dido.model_runs() > runs_after_warmup,
            "workload swap must re-run the cost model"
        );
    }

    #[test]
    fn responses_remain_correct_across_adaptions() {
        let dido = DidoSystem::preloaded(spec("K8-G95-S"), opts());
        // Seed a known key through the convenience API. The natural
        // (tiny) value is fine even against a full preload: allocation
        // falls back across classes when the pin's own class is empty.
        let pinned = "value";
        assert_eq!(
            dido.execute(&Query::set("pin", pinned)).status,
            ResponseStatus::Ok
        );
        let mut g = WorkloadGen::new(spec("K8-G95-S"), 10_000, 5);
        for _ in 0..2 {
            let _ = dido.process_batch(g.batch(2048));
        }
        let r = dido.execute(&Query::get("pin"));
        assert_eq!(r.status, ResponseStatus::Ok);
        assert_eq!(&r.value[..], pinned.as_bytes());
    }

    #[test]
    fn measure_converges_and_traces() {
        let dido = DidoSystem::preloaded(spec("K16-G95-U"), opts());
        let mut g = WorkloadGen::new(spec("K16-G95-U"), 10_000, 6);
        let wr = dido.measure(|n| g.batch(n), 5);
        assert!(wr.throughput_mops() > 0.1);
        // 5 calibration batches plus the correction and final batches.
        assert_eq!(dido.trace().len(), 7);
        // Virtual clock advances monotonically.
        let times: Vec<f64> = dido.trace().iter().map(|t| t.at_ns).collect();
        assert!(times.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn metrics_accumulate_across_batches() {
        let dido = DidoSystem::preloaded(spec("K16-G95-U"), opts());
        let mut g = WorkloadGen::new(spec("K16-G95-U"), 10_000, 11);
        for _ in 0..3 {
            let _ = dido.process_batch(g.batch(2048));
        }
        let m = dido.metrics();
        assert_eq!(m.work.batches, 3);
        assert_eq!(m.work.queries, 3 * 2048);
        assert!(m.hit_rate() > 0.9, "preloaded GETs should hit: {}", m.hit_rate());
        assert!(m.mean_throughput_mops() > 0.0);
        assert_eq!(m.configs.iter().map(|(_, n)| n).sum::<u64>(), 3);
        assert_eq!(m.busy_ns.to_bits(), dido.clock_ns().to_bits());
        let rendered = m.to_string();
        assert!(rendered.contains("batches=3 "), "{rendered}");
    }

    #[test]
    fn traffic_spike_shifts_skew_and_reruns_the_model() {
        // Paper §II-C: spikes ("swift surge in user interest on one
        // topic") change workload characteristics; the profiler must
        // notice via its skewness estimate.
        use dido_workload::SpikeGen;
        let n_keys = 10_000;
        let base = WorkloadGen::new(spec("K8-G100-U"), n_keys, 12);
        let mut gen = SpikeGen::new(base, 8, 0.6, 13);
        // Small sampling window so the estimate reacts within a batch.
        let dido = {
            let mut o = opts();
            o.profiler.skew_window = 2_048;
            o.profiler.skew_sample_rate = 1;
            DidoSystem::preloaded(spec("K8-G100-U"), o)
        };
        for _ in 0..3 {
            let _ = dido.process_batch(gen.batch(4_096));
        }
        let runs_before = dido.model_runs();
        gen.set_active(true);
        for _ in 0..3 {
            let _ = dido.process_batch(gen.batch(4_096));
        }
        assert!(
            dido.model_runs() > runs_before,
            "spike-induced skew shift must re-run the cost model"
        );
    }

    #[test]
    fn pinned_config_is_respected() {
        let dido = DidoSystem::preloaded(spec("K8-G100-U"), opts());
        dido.set_config(PipelineConfig::cpu_only());
        let mut g = WorkloadGen::new(spec("K8-G100-U"), 10_000, 7);
        let (report, _) = dido.process_batch(g.batch(1024));
        // One CPU stage only => no GPU utilization.
        assert_eq!(report.gpu_utilization(), 0.0);
    }
}
