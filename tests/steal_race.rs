//! Race regression tests for the work-stealing executor.
//!
//! The historical defect: the GPU-stage thread handed each batch group
//! to the steal helper through a buffered channel. If the helper was
//! busy (or simply descheduled), the stage thread drained the whole
//! group itself, passed the completion barrier, and forwarded the group
//! to the next stage — which reset the claim cursor. The helper then
//! dequeued the *stale* group and re-ran the GPU stage's tasks
//! (including index operations) on sub-batches the next stage was
//! concurrently mutating: double-applied index ops, torn batches, and
//! over-counted completions.
//!
//! These tests make the helper's lag deterministic via the pipeline's
//! `with_steal_lag` / `with_owner_lag` hooks and prove, through the
//! engine's exact per-task operation counters, that no task is ever
//! applied twice. On the pre-epoch executor the lagging-helper test
//! fails (inflated `index_searches`, corrupted batches); under the
//! epoch-guarded claim protocol every stale attempt is refused and
//! counted.

use dido_kv::model::{PipelineConfig, Query, ResponseStatus, WAVEFRONT_WIDTH};
use dido_kv::pipeline::{EngineConfig, KvEngine, ShardedEngine, ThreadedPipeline};
use std::time::Duration;

/// Deterministic mixed SET/GET workload (no DELETEs, so the expected
/// op totals are exact: one index search per GET, one allocation and
/// one index upsert per SET).
fn mixed_batch(round: usize, n: usize, keyspace: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            let id = (round * 131 + i * 17) % keyspace;
            if i % 4 == 0 {
                Query::set(format!("race-{id:05}"), vec![b'v'; 48])
            } else {
                Query::get(format!("race-{id:05}"))
            }
        })
        .collect()
}

fn count_ops(batches: &[Vec<Query>]) -> (u64, u64) {
    let mut gets = 0;
    let mut sets = 0;
    for q in batches.iter().flatten() {
        match q.op {
            dido_kv::model::QueryOp::Get => gets += 1,
            dido_kv::model::QueryOp::Set => sets += 1,
            dido_kv::model::QueryOp::Delete => unreachable!("workload has no deletes"),
        }
    }
    (gets, sets)
}

#[test]
fn lagging_steal_helper_never_duplicates_task_work() {
    // Store big enough that no SET ever fails or evicts.
    let engine = KvEngine::new(EngineConfig::new(8 << 20, 256 << 10, 64 << 10));
    let mut config = PipelineConfig::small_kv_read_intensive();
    config.work_stealing = true;
    // 2 ms is orders of magnitude longer than a stage over 16
    // sub-batches, so the helper dequeues every group after its stage
    // completed — exactly the historical race window.
    let pipeline =
        ThreadedPipeline::new(&engine, config).with_steal_lag(Duration::from_millis(2));

    let mut expected_gets = 0u64;
    let mut expected_sets = 0u64;
    let mut stale_seen = 0u64;
    for round in 0..5 {
        let batches: Vec<Vec<Query>> =
            (0..4).map(|b| mixed_batch(round * 4 + b, 1024, 2_000)).collect();
        let (gets, sets) = count_ops(&batches);
        expected_gets += gets;
        expected_sets += sets;

        let results = pipeline.run(batches);
        assert_eq!(results.iter().map(Vec::len).sum::<usize>(), 4 * 1024);
        assert!(
            !results
                .iter()
                .flatten()
                .any(|r| r.status == ResponseStatus::Error),
            "round {round}: no query in this workload may fail"
        );

        // Exact totals: a single stale re-execution of the GPU stage
        // (IN-Search/KC/RD on this config) would inflate the search
        // counter past the number of GETs issued.
        let ops = engine.op_counts();
        assert_eq!(ops.index_searches, expected_gets, "round {round}: duplicated IN-Search");
        assert_eq!(ops.mm_allocs, expected_sets, "round {round}: duplicated MM");
        assert_eq!(ops.index_inserts, expected_sets, "round {round}: duplicated IN-Insert");
        assert_eq!(ops.index_deletes, 0, "round {round}: phantom deletes");

        stale_seen = pipeline.exec_stats().stale_rejects;
        if stale_seen > 0 && round >= 1 {
            break;
        }
    }

    let stats = pipeline.exec_stats();
    assert!(stats.steal_groups > 0, "helper was never offered a group: {stats:?}");
    assert!(
        stale_seen > 0,
        "a 2ms-lagging helper must be refused at least one stale group: {stats:?}"
    );
    // The store survived the churn intact.
    let report = engine.verify_integrity();
    assert_eq!(report.mismatched, 0, "{report:?}");
    assert_eq!(report.dangling, 0, "{report:?}");
}

#[test]
fn stolen_claims_are_counted_and_rendered() {
    let engine = KvEngine::new(EngineConfig::new(8 << 20, 256 << 10, 64 << 10));
    for id in 0..2_000 {
        engine.execute(&Query::set(format!("race-{id:05}"), vec![b'p'; 48]));
    }
    let mut config = PipelineConfig::small_kv_read_intensive();
    config.work_stealing = true;
    // The owner sleeps per claimed sub-batch, so the helper wins claims
    // even on a single-core host.
    let pipeline =
        ThreadedPipeline::new(&engine, config).with_owner_lag(Duration::from_micros(500));

    let subs_per_batch = 1024usize.div_ceil(WAVEFRONT_WIDTH) as u64;
    let n_stages = pipeline.plan().stages.len() as u64;
    let mut rounds = 0u64;
    for round in 0..20 {
        rounds += 1;
        let results = pipeline.run(vec![mixed_batch(round, 1024, 2_000)]);
        assert_eq!(results[0].len(), 1024, "round {round}");
        if pipeline.exec_stats().stolen_claims > 0 {
            break;
        }
    }

    let stats = pipeline.exec_stats();
    // Conservation: every (batch, stage, sub-batch) processed exactly
    // once, by owner or thief.
    assert_eq!(
        stats.owner_claims + stats.stolen_claims,
        rounds * subs_per_batch * n_stages,
        "{stats:?}"
    );
    assert!(stats.stolen_claims > 0, "helper never won a claim: {stats:?}");
    assert!(stats.steal_groups > 0, "{stats:?}");

    let rendered = stats.to_string();
    assert!(
        rendered.contains(&format!("{} stolen", stats.stolen_claims)),
        "{rendered}"
    );
}

#[test]
fn stealing_and_inline_paths_agree_under_lag() {
    // The same workload through (a) the staged executor with a lagging
    // helper and (b) the serving path's plain stage loop must produce
    // identical status sequences — stale refusals must not drop or
    // duplicate responses.
    let run = |inline: bool| {
        let engine = KvEngine::new(EngineConfig::new(8 << 20, 256 << 10, 64 << 10));
        for id in 0..2_000 {
            engine.execute(&Query::set(format!("race-{id:05}"), vec![b'p'; 48]));
        }
        let mut config = PipelineConfig::small_kv_read_intensive();
        config.work_stealing = true;
        let batches: Vec<Vec<Query>> = (0..3).map(|b| mixed_batch(b, 512, 2_000)).collect();
        let out = if inline {
            let serving = ShardedEngine::from_engines(vec![engine]);
            batches
                .into_iter()
                .map(|b| serving.process_batch_inline(b, |_| config))
                .collect()
        } else {
            ThreadedPipeline::new(&engine, config)
                .with_steal_lag(Duration::from_micros(200))
                .run(batches)
        };
        out.into_iter()
            .map(|rs| rs.into_iter().map(|r| r.status).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(false), run(true));
}
