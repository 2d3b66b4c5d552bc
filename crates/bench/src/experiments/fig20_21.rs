//! Figures 20-21: dynamic adaption under alternating workloads
//! (K8-G50-U ↔ K16-G95-S).
//!
//! Fig 20 traces throughput over virtual time with a 3 ms alternation
//! period; Fig 21 sweeps the alternation cycle from 2 ms to 256 ms and
//! reports DIDO's speedup over Mega-KV (Coupled) on the same stream.

use crate::harness::spec;
use crate::{DidoSystem, ExperimentCtx, SimExecutor, Table};
use dido::{scaled_caches, DidoOptions};
use dido_apu_sim::{HwSpec, TimingEngine};
use dido_model::{PipelineConfig, Query};
use dido_pipeline::{EngineConfig, KvEngine};
use dido_workload::{key_bytes, value_bytes, WorkloadGen, WorkloadSpec};

/// Build an engine preloaded with *both* workloads' key spaces (half the
/// store each), so either phase of the alternation finds its keys.
fn dual_preloaded_engine(
    ctx: &ExperimentCtx,
    a: WorkloadSpec,
    b: WorkloadSpec,
) -> (KvEngine, u64, u64) {
    let hw = HwSpec::kaveri_apu();
    let (cpu_cache, gpu_cache) = scaled_caches(&ctx.testbed(), &hw, 1);
    let engine = KvEngine::mega_kv(EngineConfig::new(ctx.store_bytes, cpu_cache, gpu_cache));
    let half = (ctx.store_bytes / 2) as u64;
    let n_a = a.keyspace_size(half, dido_kvstore::HEADER_SIZE);
    let n_b = b.keyspace_size(half, dido_kvstore::HEADER_SIZE);
    for (spec, n) in [(a, n_a), (b, n_b)] {
        for id in 0..n {
            let key = key_bytes(spec.dataset, id);
            let value = value_bytes(spec.dataset, id);
            engine
                .load_object(&key, &value)
                .expect("fits half store and its index");
        }
    }
    (engine, n_a, n_b)
}

struct AlternatingDriver {
    gen_a: WorkloadGen,
    gen_b: WorkloadGen,
    cycle_ns: f64,
}

impl AlternatingDriver {
    fn new(ctx: &ExperimentCtx, n_a: u64, n_b: u64, cycle_ns: f64) -> AlternatingDriver {
        AlternatingDriver {
            gen_a: WorkloadGen::new(spec("K8-G50-U"), n_a, ctx.seed),
            gen_b: WorkloadGen::new(spec("K16-G95-S"), n_b, ctx.seed + 1),
            cycle_ns,
        }
    }

    fn batch_at(&mut self, clock_ns: f64, n: usize) -> (Vec<Query>, bool) {
        let phase_b = (clock_ns / self.cycle_ns) as u64 % 2 == 1;
        let queries = if phase_b {
            self.gen_b.batch(n)
        } else {
            self.gen_a.batch(n)
        };
        (queries, phase_b)
    }
}

/// Figure 20: throughput trace with a 3 ms alternation period.
pub fn run_fig20(ctx: &ExperimentCtx) {
    println!("\n== Figure 20: DIDO throughput under a 3ms workload alternation ==");
    println!("(paper: throughput dips right after each switch and recovers to");
    println!(" the optimum within ~1ms via re-adaption)\n");
    let a = spec("K8-G50-U");
    let b = spec("K16-G95-S");
    let (engine, n_a, n_b) = dual_preloaded_engine(ctx, a, b);
    let dido = DidoSystem::from_engine(
        engine,
        DidoOptions {
            testbed: ctx.testbed(),
            latency_budget_ns: ctx.latency_budget_ns,
            ..DidoOptions::default()
        },
    );
    let cycle_ns = 3_000_000.0; // 3 ms
    let mut driver = AlternatingDriver::new(ctx, n_a, n_b, cycle_ns);
    let interval = dido.stage_interval_ns();
    let mut n = 4096usize;
    let total_ns = 15_000_000.0; // 15 ms, five phases
    let mut t = Table::new(["t(ms)", "phase", "MOPS", "readapt", "pipeline"]);
    while dido.clock_ns() < total_ns {
        let (queries, phase_b) = driver.batch_at(dido.clock_ns(), n);
        let (report, _) = dido.process_batch(queries);
        let t_batch = report.t_max_ns.max(1.0);
        n = (((n as f64 * interval / t_batch) as usize + n) / 2).clamp(256, 1 << 17);
        let sample = dido.trace().pop().expect("just pushed");
        t.row([
            format!("{:.2}", sample.at_ns / 1e6),
            if phase_b { "K16-G95-S" } else { "K8-G50-U" }.to_string(),
            format!("{:.2}", sample.throughput_mops),
            if sample.readapted { "*" } else { "" }.to_string(),
            sample.config.to_string(),
        ]);
    }
    t.emit(ctx, "fig20");
    println!("\nadaptions: {}", dido.adaptions());
}

/// Figure 21: speedup vs alternation cycle length.
pub fn run_fig21(ctx: &ExperimentCtx) {
    println!("\n== Figure 21: speedup vs workload alternation cycle ==");
    println!("(paper: 1.58x at a 2ms cycle rising to 1.79x beyond 64ms — the");
    println!(" ~1ms re-adaption cost amortizes as cycles lengthen)\n");
    let a = spec("K8-G50-U");
    let b = spec("K16-G95-S");
    let cycles_ms: &[f64] = if ctx.quick {
        &[2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    } else {
        &[2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    };
    let mut t = Table::new(["cycle(ms)", "dido(MOPS)", "megakv(MOPS)", "speedup"]);
    for &cycle_ms in cycles_ms {
        let cycle_ns = cycle_ms * 1e6;
        // A whole number of full A/B periods so every row sees the same
        // phase mix (otherwise long cycles would sample only phase A and
        // the comparison would be confounded), at least ~16 ms of
        // virtual time for sampling noise.
        let period_ns = 2.0 * cycle_ns;
        let periods = (16_000_000.0 / period_ns).ceil().max(2.0);
        let horizon_ns = periods * period_ns;

        // DIDO with adaption.
        let (engine, n_a, n_b) = dual_preloaded_engine(ctx, a, b);
        let dido = DidoSystem::from_engine(
            engine,
            DidoOptions {
                testbed: ctx.testbed(),
                latency_budget_ns: ctx.latency_budget_ns,
                ..DidoOptions::default()
            },
        );
        let interval = dido.stage_interval_ns();
        let mut driver = AlternatingDriver::new(ctx, n_a, n_b, cycle_ns);
        let mut n = 4096usize;
        let mut processed = 0u64;
        while dido.clock_ns() < horizon_ns {
            let (queries, _) = driver.batch_at(dido.clock_ns(), n);
            processed += queries.len() as u64;
            let (report, _) = dido.process_batch(queries);
            let t_batch = report.t_max_ns.max(1.0);
            n = (((n as f64 * interval / t_batch) as usize + n) / 2).clamp(256, 1 << 17);
        }
        let dido_mops = processed as f64 / dido.clock_ns() * 1_000.0;

        // Mega-KV (Coupled): static pipeline on the same stream.
        let (engine, n_a2, n_b2) = dual_preloaded_engine(ctx, a, b);
        let sim = SimExecutor::new(TimingEngine::new(HwSpec::kaveri_apu()));
        let mut driver = AlternatingDriver::new(ctx, n_a2, n_b2, cycle_ns);
        let mut clock = 0.0f64;
        let mut n = 4096usize;
        let mut processed = 0u64;
        while clock < horizon_ns {
            let (queries, _) = driver.batch_at(clock, n);
            processed += queries.len() as u64;
            let (report, _) = sim.run_batch(&engine, queries, PipelineConfig::mega_kv());
            clock += report.t_max_ns;
            let t_batch = report.t_max_ns.max(1.0);
            n = (((n as f64 * interval / t_batch) as usize + n) / 2).clamp(256, 1 << 17);
        }
        let mk_mops = processed as f64 / clock * 1_000.0;

        t.row([
            format!("{cycle_ms:.0}"),
            format!("{dido_mops:.2}"),
            format!("{mk_mops:.2}"),
            format!("{:.2}x", dido_mops / mk_mops.max(1e-9)),
        ]);
    }
    t.emit(ctx, "fig21");
}
