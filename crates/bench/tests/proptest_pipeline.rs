//! Property tests over the virtual-time executor: arbitrary
//! single-query sequences through it must agree with a reference map
//! under any valid configuration, and the timing report must satisfy its
//! structural invariants.

use dido_apu_sim::{HwSpec, TimingEngine};
use dido_bench::SimExecutor;
use dido_model::{IndexOpAssignment, WAVEFRONT_WIDTH};
use dido_model::{PipelineConfig, Processor, Query, ResponseStatus, TaskKind, TaskSet};
use dido_pipeline::{EngineConfig, KvEngine};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Set(u8, u8),
    Get(u8),
    Delete(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Set(k, v)),
            any::<u8>().prop_map(Op::Get),
            any::<u8>().prop_map(Op::Delete),
        ],
        1..60,
    )
}

fn arb_config() -> impl Strategy<Value = PipelineConfig> {
    (0usize..=3, 0usize..=4, any::<bool>(), any::<bool>()).prop_map(
        |(start, len, updates_on_cpu, work_stealing)| {
            let offloadable = [TaskKind::In, TaskKind::Kc, TaskKind::Rd, TaskKind::Wr];
            let end = (start + len).min(offloadable.len());
            let segment = TaskSet::from_tasks(&offloadable[start..end]);
            let index_ops = if segment.contains(TaskKind::In) {
                if updates_on_cpu {
                    IndexOpAssignment::UPDATES_ON_CPU
                } else {
                    IndexOpAssignment::ALL_GPU
                }
            } else {
                IndexOpAssignment::ALL_CPU
            };
            PipelineConfig {
                gpu_segment: segment,
                index_ops,
                work_stealing,
            }
        },
    )
}

fn key(k: u8) -> String {
    format!("pp-{k:03}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pipeline_agrees_with_reference_map(ops in ops(), config in arb_config()) {
        prop_assert!(config.is_valid());
        let hw = HwSpec::kaveri_apu();
        let engine = KvEngine::mega_kv(EngineConfig::new(
            1 << 20,
            hw.cpu.cache_bytes,
            hw.gpu.cache_bytes,
        ));
        let sim = SimExecutor::new(TimingEngine::new(hw));
        let mut model: HashMap<u8, u8> = HashMap::new();

        // One query per batch: sequential semantics, so the reference
        // map is exact.
        for op in ops {
            match op {
                Op::Set(k, v) => {
                    let q = Query::set(key(k), vec![v]);
                    let (_, rs) = sim.run_batch(&engine, vec![q], config);
                    prop_assert_eq!(rs[0].status, ResponseStatus::Ok);
                    model.insert(k, v);
                }
                Op::Get(k) => {
                    let (_, rs) = sim.run_batch(&engine, vec![Query::get(key(k))], config);
                    match model.get(&k) {
                        Some(&v) => {
                            prop_assert_eq!(rs[0].status, ResponseStatus::Ok, "missing {}", k);
                            prop_assert_eq!(&rs[0].value[..], &[v][..]);
                        }
                        None => prop_assert_eq!(rs[0].status, ResponseStatus::NotFound),
                    }
                }
                Op::Delete(k) => {
                    let (_, rs) = sim.run_batch(&engine, vec![Query::delete(key(k))], config);
                    let expected = if model.remove(&k).is_some() {
                        ResponseStatus::Ok
                    } else {
                        ResponseStatus::NotFound
                    };
                    prop_assert_eq!(rs[0].status, expected);
                }
            }
        }
    }

    #[test]
    fn batch_reports_satisfy_structural_invariants(
        n in 1usize..3000,
        config in arb_config(),
        get_pct in 0u8..=100,
    ) {
        let hw = HwSpec::kaveri_apu();
        let engine = KvEngine::mega_kv(EngineConfig::new(
            2 << 20,
            hw.cpu.cache_bytes,
            hw.gpu.cache_bytes,
        ));
        let sim = SimExecutor::new(TimingEngine::new(hw));
        let queries: Vec<Query> = (0..n)
            .map(|i| {
                if (i * 100 / n) < get_pct as usize {
                    Query::get(key((i % 200) as u8))
                } else {
                    Query::set(key((i % 200) as u8), vec![b'x'; 16])
                }
            })
            .collect();
        let (report, responses) = sim.run_batch(&engine, queries, config);

        prop_assert_eq!(report.batch_size, n);
        prop_assert_eq!(responses.len(), n);
        prop_assert!(report.t_max_ns > 0.0);
        // t_max really is the max stage time.
        let max_stage = report.stages.iter().map(|s| s.time_ns).fold(0.0_f64, f64::max);
        prop_assert!((report.t_max_ns - max_stage).abs() < 1e-6);
        // Cores: CPU stages have >= 1 core, GPU stages none, totals fit.
        let total: usize = report.stages.iter().map(|s| s.cores).sum();
        prop_assert!(total <= hw.cpu.cores);
        for s in &report.stages {
            match s.processor {
                Processor::Cpu => prop_assert!(s.cores >= 1),
                Processor::Gpu => prop_assert_eq!(s.cores, 0),
            }
            prop_assert!(s.time_ns >= 0.0);
            prop_assert!(s.mu >= 1.0 - 1e-12);
        }
        // Utilizations are fractions.
        prop_assert!((0.0..=1.0).contains(&report.cpu_utilization(hw.cpu.cores)));
        prop_assert!((0.0..=1.0).contains(&report.gpu_utilization()));
        // Steals are wavefront-granular and only claimed when present.
        if let Some(steal) = report.steal {
            prop_assert!(config.work_stealing);
            prop_assert_eq!(steal.items % WAVEFRONT_WIDTH, 0);
            prop_assert!(steal.items > 0);
            prop_assert!(steal.t_max_before_ns >= report.t_max_ns - 1e-6);
        }
    }
}
