//! Ablation benches for the design choices DESIGN.md calls out:
//! task affinity, CPU↔GPU interference, and the configuration-search
//! strategy (exhaustive vs greedy).

use crate::harness::{measure_fixed_config, spec};
use crate::{preloaded_engine, DidoSystem, ExperimentCtx, SimExecutor, Table};
use dido_apu_sim::{HwSpec, TimingEngine};
use dido_cost_model::CostModel;
use dido_model::{ConfigEnumerator, IndexOpAssignment, PipelineConfig, TaskKind, TaskSet};
use dido_workload::WorkloadGen;

/// Task affinity: splitting KC from RD (segment `[IN,KC]`) must be worse
/// than keeping them together on either side (`[IN]` or `[IN,KC,RD]`) —
/// the paper's "moving KC to the GPU may even degrade the performance"
/// observation (§V-D-2).
pub fn run_affinity(ctx: &ExperimentCtx) {
    println!("\n== Ablation: task affinity (KC/RD placement) ==");
    println!("(splitting KC from RD forfeits the warm-cache affinity and adds");
    println!(" cross-processor traffic; the cost model must know this)\n");
    let w = spec("K16-G100-S");
    let mk = |tasks: &[TaskKind]| PipelineConfig {
        gpu_segment: TaskSet::from_tasks(tasks),
        index_ops: IndexOpAssignment::ALL_GPU,
        work_stealing: false,
    };
    let mut t = Table::new(["gpu segment", "throughput(MOPS)", "affinity(KC->RD)"]);
    for (label, cfg) in [
        ("[IN]", mk(&[TaskKind::In])),
        ("[IN,KC]", mk(&[TaskKind::In, TaskKind::Kc])),
        (
            "[IN,KC,RD]",
            mk(&[TaskKind::In, TaskKind::Kc, TaskKind::Rd]),
        ),
    ] {
        let m = measure_fixed_config(ctx, w, cfg);
        let plan = cfg.plan();
        t.row([
            label.to_string(),
            format!("{:.2}", m.mops()),
            if plan.affinity_satisfied(TaskKind::Rd) {
                "kept"
            } else {
                "broken"
            }
            .to_string(),
        ]);
    }
    t.emit(ctx, "ablation-affinity");
}

/// Interference µ: re-run a heavy co-processing workload with the
/// interference couplings zeroed, quantifying how much the shared
/// memory bus costs.
pub fn run_interference(ctx: &ExperimentCtx) {
    println!("\n== Ablation: CPU-GPU interference (µ on/off) ==");
    println!("(the coupled bus makes concurrent stages slow each other;");
    println!(" zeroing µ shows the isolated-processor upper bound)\n");
    let w = spec("K8-G95-U");
    let cfg = PipelineConfig::small_kv_read_intensive();
    let mut t = Table::new(["interference", "throughput(MOPS)", "gpu stage mu"]);
    for (label, mu_off) in [("modelled", false), ("disabled", true)] {
        let mut hw = HwSpec::kaveri_apu();
        if mu_off {
            hw.mu_cpu_k = 0.0;
            hw.mu_gpu_k = 0.0;
        }
        let (engine, mut generator) = preloaded_engine(w, &hw, ctx.testbed());
        let sim = SimExecutor::new(TimingEngine::new(hw));
        let report = sim.run_workload(&engine, cfg, ctx.run_options(), |n| generator.batch(n));
        let mu = report
            .report
            .stages
            .iter()
            .map(|s| s.mu)
            .fold(1.0_f64, f64::max);
        t.row([
            label.to_string(),
            format!("{:.2}", report.throughput_mops()),
            format!("{mu:.3}"),
        ]);
    }
    t.emit(ctx, "ablation-interference");
}

/// Atomic-MLP cap: without it, GPU Insert/Delete kernels hide latency
/// like plain loads and the Figure 6 phenomenon (5 % updates eating
/// ~half the GPU) vanishes at large batch sizes.
pub fn run_atomics(ctx: &ExperimentCtx) {
    println!("\n== Ablation: GPU atomic serialization (Figure 6's driver) ==");
    println!("(without the atomic-MLP cap, update kernels scale like reads");
    println!(" and the paper's 35-56% update share cannot hold at scale)\n");
    let w = spec("K8-G95-S");
    let mut t = Table::new(["atomic model", "upd share @1k inserts(%)", "@5k inserts(%)"]);
    for (label, capped) in [("modelled", true), ("disabled", false)] {
        let mut hw = HwSpec::kaveri_apu();
        if !capped {
            hw.gpu.atomic_mlp = hw.gpu.max_mlp;
        }
        let (engine, mut generator) = preloaded_engine(w, &hw, ctx.testbed());
        let sim = SimExecutor::new(TimingEngine::new(hw));
        let share = |inserts: usize, generator: &mut dido_workload::WorkloadGen| {
            let batch = generator.batch(inserts * 20);
            let (report, _) = sim.run_batch(&engine, batch, PipelineConfig::mega_kv());
            let s = report.gpu_index_op_time(dido_model::IndexOpKind::Search);
            let i = report.gpu_index_op_time(dido_model::IndexOpKind::Insert);
            let d = report.gpu_index_op_time(dido_model::IndexOpKind::Delete);
            (i + d) / (s + i + d).max(1e-9) * 100.0
        };
        let small = share(1_000, &mut generator);
        let large = share(5_000, &mut generator);
        t.row([
            label.to_string(),
            format!("{small:.0}"),
            format!("{large:.0}"),
        ]);
    }
    t.emit(ctx, "ablation-atomics");
}

/// Bandwidth floor: without it, bulk value reads on the GPU are priced
/// at L2-hit latency over full MLP — far beyond the shared DDR3 bus —
/// and DIDO would wrongly offload RD for large key-value sizes
/// (contradicting the paper's §V-C finding).
pub fn run_bandwidth(ctx: &ExperimentCtx) {
    println!("\n== Ablation: GPU memory-bandwidth floor (large-KV behaviour) ==");
    println!("(the shared DDR3 bus caps streaming kernels; removing the floor");
    println!(" makes GPU bulk reads impossibly fast and flips large-KV choices)\n");
    let w = spec("K128-G100-U");
    let rd_on_gpu = PipelineConfig {
        gpu_segment: TaskSet::from_tasks(&[TaskKind::In, TaskKind::Kc, TaskKind::Rd]),
        index_ops: IndexOpAssignment::ALL_GPU,
        work_stealing: false,
    };
    let mut t = Table::new(["bandwidth model", "[IN]gpu (MOPS)", "[IN,KC,RD]gpu (MOPS)"]);
    for (label, floored) in [("modelled", true), ("disabled", false)] {
        let mut hw = HwSpec::kaveri_apu();
        if !floored {
            hw.gpu.mem_bandwidth_gbps = 1e9; // effectively infinite
        }
        let sim = SimExecutor::new(TimingEngine::new(hw));
        let measure = |cfg: PipelineConfig| {
            let (engine, mut generator) = preloaded_engine(w, &hw, ctx.testbed());
            sim.run_workload(&engine, cfg, ctx.run_options(), |n| generator.batch(n))
                .throughput_mops()
        };
        t.row([
            label.to_string(),
            format!("{:.2}", measure(PipelineConfig::mega_kv())),
            format!("{:.2}", measure(rd_on_gpu)),
        ]);
    }
    t.emit(ctx, "ablation-bandwidth");
}

/// Search strategy: exhaustive sweep (paper) vs greedy hill-climbing
/// (extension) — chosen configs and predicted throughput.
pub fn run_search(ctx: &ExperimentCtx) {
    println!("\n== Ablation: exhaustive vs greedy configuration search ==");
    println!("(the space is small enough to sweep; greedy is the cheap");
    println!(" alternative and should land within a few percent)\n");
    let model = CostModel::new(HwSpec::kaveri_apu());
    let mut t = Table::new([
        "workload",
        "exhaustive(MOPS)",
        "greedy(MOPS)",
        "ratio",
        "same config",
    ]);
    for label in ["K8-G95-S", "K16-G100-S", "K32-G50-U", "K128-G95-U"] {
        let w = spec(label);
        let dido = DidoSystem::preloaded(w, ctx.dido_options());
        let mut generator = WorkloadGen::new(
            w,
            w.keyspace_size(ctx.store_bytes as u64, dido_kvstore::HEADER_SIZE),
            ctx.seed,
        );
        let (report, _) = dido.process_batch(generator.batch(4096));
        let mut stats = report.stats;
        stats.zipf_skew = w.distribution.skew();
        let inputs = dido.model_inputs(stats);
        let ex = model.optimal_config(&inputs, ConfigEnumerator::default());
        let gr = model.greedy_config(&inputs);
        t.row([
            label.to_string(),
            format!("{:.2}", ex.throughput_mops()),
            format!("{:.2}", gr.throughput_mops()),
            format!(
                "{:.2}",
                gr.throughput_mops() / ex.throughput_mops().max(1e-9)
            ),
            if ex.config == gr.config { "yes" } else { "no" }.to_string(),
        ]);
    }
    t.emit(ctx, "ablation-search");
}
