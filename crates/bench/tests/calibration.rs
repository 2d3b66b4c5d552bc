//! Calibration tests: the simulated Mega-KV pipeline must reproduce the
//! *shapes* of the paper's Figures 4–6 (stage imbalance, low GPU
//! utilization, Insert/Delete dominating GPU time at a 5 % share).

use dido_apu_sim::{ns_to_us, HwSpec, TimingEngine};
use dido_bench::{preloaded_engine, RunOptions, SimExecutor};
use dido_model::{IndexOpKind, PipelineConfig, Processor};
use dido_pipeline::TestbedOptions;
use dido_workload::WorkloadSpec;

fn run(label: &str) -> (dido_bench::WorkloadReport, usize) {
    let hw = HwSpec::kaveri_apu();
    let spec = WorkloadSpec::from_label(label).unwrap();
    let (engine, mut generator) = preloaded_engine(
        spec,
        &hw,
        TestbedOptions {
            store_bytes: 32 << 20,
            seed: 7,
            ..TestbedOptions::default()
        },
    );
    let sim = SimExecutor::new(TimingEngine::new(hw));
    let opts = RunOptions {
        calibration_iters: 5,
        ..RunOptions::default()
    };
    let wr = sim.run_workload(&engine, PipelineConfig::mega_kv(), opts, |n| {
        generator.batch(n)
    });
    let cores = sim.timing().hw().cpu.cores;
    (wr, cores)
}

#[test]
fn fig4_shape_stage_imbalance_small_kv() {
    let (wr, _) = run("K8-G95-S");
    let r = &wr.report;
    let t: Vec<f64> = r.stages.iter().map(|s| s.time_ns).collect();
    eprintln!(
        "K8-G95-S stages: NP={:.1}us IN={:.1}us RS={:.1}us (interval {:.0}us, batch {})",
        ns_to_us(t[0]),
        ns_to_us(t[1]),
        ns_to_us(t[2]),
        ns_to_us(wr.interval_ns),
        r.batch_size
    );
    // Paper Fig 4: Network Processing tiny (25-42us of 300), Index
    // Operation middling, Read&Send the 300us bottleneck.
    assert!(t[0] < t[2] * 0.75, "network stage must be lighter than read/send");
    assert!(t[1] < t[2], "index stage must be lighter than read/send");
    assert!(
        t[2] > wr.interval_ns * 0.5,
        "bottleneck must approach the interval"
    );
}

#[test]
fn fig5_shape_gpu_underutilized_and_worse_for_large_kv() {
    let (small, _) = run("K8-G95-S");
    let (large, _) = run("K128-G95-S");
    let u_small = small.report.gpu_utilization();
    let u_large = large.report.gpu_utilization();
    eprintln!("GPU util: K8={u_small:.2} K128={u_large:.2}");
    // Paper Fig 5: ~51% for K8 dropping to ~12% for K128.
    assert!(u_small < 0.75, "Mega-KV leaves the GPU underutilized");
    assert!(u_large < u_small, "bigger KV sizes make it worse");
    assert!(u_large < 0.35);
    assert!(u_small > 0.15);
}

#[test]
fn fig6_shape_updates_dominate_gpu_time_at_5_percent_share() {
    let (wr, _) = run("K8-G95-S");
    let r = &wr.report;
    let search = r.gpu_index_op_time(IndexOpKind::Search);
    let insert = r.gpu_index_op_time(IndexOpKind::Insert);
    let delete = r.gpu_index_op_time(IndexOpKind::Delete);
    let total = search + insert + delete;
    let upd_share = (insert + delete) / total;
    eprintln!(
        "GPU index kernels: search={:.1}us insert={:.1}us delete={:.1}us updates={:.0}%",
        ns_to_us(search),
        ns_to_us(insert),
        ns_to_us(delete),
        upd_share * 100.0
    );
    // Paper Fig 6: Insert+Delete are ~5% of ops but 35-56% of GPU time.
    assert!(
        (0.25..0.75).contains(&upd_share),
        "updates must eat an outsized share of GPU time: {upd_share:.2}"
    );
    assert!(insert > delete, "inserts are costlier than deletes");
}

#[test]
fn stage_cpu_gpu_assignment_matches_mega_kv() {
    let (wr, cores) = run("K16-G95-U");
    let r = &wr.report;
    assert_eq!(r.stages[0].processor, Processor::Cpu);
    assert_eq!(r.stages[1].processor, Processor::Gpu);
    assert_eq!(r.stages[2].processor, Processor::Cpu);
    assert_eq!(r.stages[0].cores + r.stages[2].cores, cores);
    // Read&Send gets at least as many cores as Network Processing.
    assert!(r.stages[2].cores >= r.stages[0].cores);
}
