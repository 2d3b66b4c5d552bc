//! Cross-executor and model-vs-simulator consistency: the same queries
//! must produce the same functional answers on the virtual-time
//! executor and the serving path's stage loop, for every pipeline
//! shape; and the analytic cost model must track the simulator within a
//! sane error band (the paper's Figure 9 property).

use dido_bench::{preloaded_engine, RunOptions, SimExecutor};
use dido_kv::apu::{HwSpec, TimingEngine};
use dido_kv::cost_model::CostModel;
use dido_kv::model::{ConfigEnumerator, PipelineConfig, Query, Response, ResponseStatus};
use dido_kv::pipeline::{EngineConfig, KvEngine, ShardedEngine, TestbedOptions};
use dido_kv::workload::WorkloadSpec;

fn testbed() -> TestbedOptions {
    TestbedOptions {
        store_bytes: 4 << 20,
        ..TestbedOptions::default()
    }
}

/// The two executors over one engine each.
#[derive(Clone, Copy, Debug)]
enum Executor {
    Sim,
    Serving,
}

impl Executor {
    fn run(self, engine: KvEngine, batch: Vec<Query>, config: PipelineConfig) -> Vec<Response> {
        match self {
            Executor::Sim => {
                let sim = SimExecutor::new(TimingEngine::new(HwSpec::kaveri_apu()));
                sim.run_batch(&engine, batch, config).1
            }
            Executor::Serving => {
                ShardedEngine::from_engines(vec![engine]).process_batch_inline(batch, |_| config)
            }
        }
    }
}

/// A roomy engine (no SET ever evicts) holding `pre-{i}` = `old-{i}`.
fn roomy_engine(keys: usize) -> KvEngine {
    let engine = KvEngine::new(EngineConfig::new(8 << 20, 256 << 10, 64 << 10));
    for i in 0..keys {
        engine.execute(&Query::set(format!("pre-{i:04}"), format!("old-{i:04}")));
    }
    engine
}

#[test]
fn sim_and_serving_agree_on_every_config_shape() {
    let hw = HwSpec::kaveri_apu();
    // 100% GET: no evictions, so responses are fully deterministic and
    // the two executors must agree exactly.
    let spec = WorkloadSpec::from_label("K16-G100-U").unwrap();
    let configs = [
        PipelineConfig::mega_kv(),
        PipelineConfig::small_kv_read_intensive(),
        PipelineConfig::cpu_only(),
    ];
    for config in configs {
        // Fresh, identical state per executor.
        let run = |executor: Executor| {
            let (engine, mut generator) = preloaded_engine(spec, &hw, testbed());
            let responses = executor.run(engine, generator.batch(2_048), config);
            responses.iter().map(|r| r.status).collect::<Vec<_>>()
        };
        let a = run(Executor::Sim);
        assert_eq!(a.len(), 2_048, "config {config}");
        assert_eq!(a, run(Executor::Serving), "sim vs serving under {config}");

        // Mixed SET/GET/DELETE over four wavefronts, every key touched
        // once: no order between wavefronts can change a reply, so both
        // executors must give the closed form byte for byte — a SET is
        // `Ok`; a GET hits and a DELETE is `Ok` on the 200 preloaded
        // keys, and both miss beyond them.
        let mixed: Vec<Query> = (0..250)
            .map(|i| match i % 3 {
                0 => Query::set(format!("pre-{i:04}"), format!("new-{i:04}")),
                1 => Query::get(format!("pre-{i:04}")),
                _ => Query::delete(format!("pre-{i:04}")),
            })
            .collect();
        let expected: Vec<Response> = (0..250)
            .map(|i| match (i % 3, i < 200) {
                (0, _) | (2, true) => Response::ok(),
                (1, true) => Response::hit(format!("old-{i:04}")),
                _ => Response::not_found(),
            })
            .collect();
        for executor in [Executor::Sim, Executor::Serving] {
            let got = executor.run(roomy_engine(200), mixed.clone(), config);
            assert_eq!(got, expected, "{executor:?}, mixed batch, {config}");
        }

        // The intra-batch contract (DESIGN.md §9): index ops apply in
        // plan order over the whole batch — Insert before Search — so a
        // GET two wavefronts after a SET of the same key reads the new
        // value, on the serving loop exactly as on the simulator.
        let mut same_key: Vec<Query> = (1..=140)
            .map(|i| Query::get(format!("pre-{i:04}")))
            .collect();
        same_key[0] = Query::set("pre-0000", "rewritten");
        same_key[130] = Query::get("pre-0000");
        let sim = Executor::Sim.run(roomy_engine(200), same_key.clone(), config);
        let serving = Executor::Serving.run(roomy_engine(200), same_key, config);
        assert_eq!(serving, sim, "same-key batch under {config}");
        assert_eq!(&serving[130].value[..], b"rewritten", "under {config}");
    }
}

#[test]
fn sim_and_serving_agree_statistically_under_writes() {
    // With SETs in the mix, eviction victims may differ between the two
    // executors (CLOCK order depends on the order each touches
    // objects in), so individual misses can move — but the overall hit
    // counts must stay within a small band.
    let hw = HwSpec::kaveri_apu();
    let spec = WorkloadSpec::from_label("K16-G95-U").unwrap();
    let config = PipelineConfig::mega_kv();
    let count_ok = |statuses: Vec<ResponseStatus>| {
        statuses
            .iter()
            .filter(|&&s| s == ResponseStatus::Ok)
            .count()
    };
    let (engine, mut generator) = preloaded_engine(spec, &hw, testbed());
    let sim = SimExecutor::new(TimingEngine::new(hw));
    let (_, responses) = sim.run_batch(&engine, generator.batch(4_096), config);
    let sim_ok = count_ok(responses.iter().map(|r| r.status).collect());

    let (engine, mut generator) = preloaded_engine(spec, &hw, testbed());
    let serving = ShardedEngine::from_engines(vec![engine]);
    let (responses, _) = serving.run_batch(generator.batch(4_096), config);
    let serving_ok = count_ok(responses.iter().map(|r| r.status).collect());

    let diff = sim_ok.abs_diff(serving_ok);
    assert!(
        diff <= 4_096 / 100,
        "executors diverge too much: {sim_ok} vs {serving_ok} ok of 4096"
    );
}

#[test]
fn model_tracks_simulator_within_error_band() {
    // A relaxed version of the paper's Figure 9 (avg 7.7 %, max 14.2 %):
    // on a small testbed we allow up to 35 % per-workload and 20 % on
    // average.
    let hw = HwSpec::kaveri_apu();
    let model = CostModel::new(hw);
    let sim = SimExecutor::new(TimingEngine::new(hw));
    let mut errors = Vec::new();
    for label in ["K8-G95-U", "K16-G95-S", "K32-G100-U", "K128-G50-S"] {
        let spec = WorkloadSpec::from_label(label).unwrap();
        let (engine, mut generator) = preloaded_engine(spec, &hw, testbed());
        let config = PipelineConfig::mega_kv();
        let wr = sim.run_workload(&engine, config, RunOptions::default(), |n| {
            generator.batch(n)
        });
        let mut stats = wr.report.stats;
        stats.zipf_skew = spec.distribution.skew();
        let cache_ratio = (testbed().store_bytes as f64 / hw.mem.shared_bytes as f64).min(1.0);
        let inputs = dido_kv::cost_model::ModelInputs {
            stats,
            n_keys: engine.store.live_objects() as u64,
            avg_insert_buckets: engine.index.avg_insert_buckets(),
            avg_delete_buckets: engine.index.avg_delete_buckets(),
            interval_ns: RunOptions::default().stage_interval_ns(),
            cpu_cache_bytes: ((hw.cpu.cache_bytes as f64 * cache_ratio) as u64).max(8 * 1024),
            gpu_cache_bytes: ((hw.gpu.cache_bytes as f64 * cache_ratio) as u64).max(2 * 1024),
        };
        let predicted = model.predict(config, &inputs).throughput_mops();
        let measured = wr.throughput_mops();
        let err = ((measured - predicted) / measured).abs();
        assert!(err < 0.35, "{label}: error {:.1}% too large", err * 100.0);
        errors.push(err);
    }
    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(avg < 0.20, "average model error {:.1}% too large", avg * 100.0);
}

#[test]
fn every_enumerated_config_processes_batches_correctly() {
    // The embedded-config mechanism must make *any* valid configuration
    // functionally correct, not just the ones DIDO tends to pick.
    let hw = HwSpec::kaveri_apu();
    let spec = WorkloadSpec::from_label("K8-G95-U").unwrap();
    let sim = SimExecutor::new(TimingEngine::new(hw));
    let configs = ConfigEnumerator {
        work_stealing: Some(false),
        fixed_segment: None,
    }
    .enumerate();
    assert!(configs.len() > 20);
    // The natural one-byte probe value is fine even against a full
    // preload: when the probe's own slab class has nothing to evict,
    // allocation reclaims or borrows from another class.
    let probe_value = "1";
    for config in configs {
        let (engine, _) = preloaded_engine(spec, &hw, testbed());
        // Ordering within a batch is unspecified, so each step ships in
        // its own batch.
        let (_, rs) = sim.run_batch(&engine, vec![Query::set("probe-a", probe_value)], config);
        assert_eq!(rs[0].status, ResponseStatus::Ok, "SET under {config}");
        let (_, rs) = sim.run_batch(
            &engine,
            vec![Query::get("probe-a"), Query::get("no-such-key-xyz")],
            config,
        );
        assert_eq!(rs[0].status, ResponseStatus::Ok, "GET under {config}");
        assert_eq!(&rs[0].value[..], probe_value.as_bytes(), "value under {config}");
        assert_eq!(rs[1].status, ResponseStatus::NotFound, "miss under {config}");
        let (_, rs) = sim.run_batch(&engine, vec![Query::delete("probe-a")], config);
        assert_eq!(rs[0].status, ResponseStatus::Ok, "DELETE under {config}");
    }
}

#[test]
fn throughput_is_deterministic_for_a_fixed_seed() {
    let hw = HwSpec::kaveri_apu();
    let spec = WorkloadSpec::from_label("K16-G95-S").unwrap();
    let run = || {
        let (engine, mut generator) = preloaded_engine(spec, &hw, testbed());
        let sim = SimExecutor::new(TimingEngine::new(hw));
        let wr = sim.run_workload(
            &engine,
            PipelineConfig::mega_kv(),
            RunOptions::default(),
            |n| generator.batch(n),
        );
        wr.throughput_mops()
    };
    let a = run();
    let b = run();
    assert!(
        (a - b).abs() < 1e-9,
        "virtual-time simulation must be deterministic: {a} vs {b}"
    );
}
