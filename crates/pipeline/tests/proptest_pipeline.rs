//! Property tests over the serving stage loop: the tally
//! `ShardedEngine::run_batch` hands back must equal a recount, on every
//! path and under any valid configuration, and a batch must answer the
//! same whether or not a resize is draining under it.

use dido_model::IndexOpAssignment;
use dido_model::{
    BatchTally, MockClock, PipelineConfig, Query, QueryOp, Response, ResponseStatus, SharedClock,
    TaskKind, TaskSet, TTL_IMMEDIATE,
};
use dido_pipeline::{route_of, EngineConfig, ShardedEngine};
use proptest::prelude::*;
use std::sync::Arc;

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

/// Batches of GET / SET-with-TTL / DELETE over a small key space, so
/// batches hit, miss, overwrite and expire what earlier ones stored.
fn ttl_batches() -> impl Strategy<Value = Vec<Vec<Query>>> {
    let ttl = prop_oneof![Just(0u32), Just(1), Just(3), Just(TTL_IMMEDIATE)];
    let set = |(k, len, ttl): (u8, usize, u32)| Query::set_with(key(k), vec![k; len], ttl, 0);
    let query = prop_oneof![
        (any::<u8>(), 0usize..200, ttl).prop_map(set),
        any::<u8>().prop_map(|k| Query::get(key(k))),
        any::<u8>().prop_map(|k| Query::delete(key(k))),
    ];
    proptest::collection::vec(proptest::collection::vec(query, 1..200), 2..5)
}

/// What a batch did, recounted from the outside — spelled out rather
/// than through `BatchTally::count_*`, which is what is under test.
fn recount<'a>(answered: impl Iterator<Item = (&'a Query, &'a Response)>) -> BatchTally {
    let mut t = BatchTally::default();
    for (q, r) in answered {
        t.queries += 1;
        t.key_bytes += q.key.len() as u64;
        t.gets += u64::from(q.op == QueryOp::Get);
        t.deletes += u64::from(q.op == QueryOp::Delete);
        if q.op == QueryOp::Set {
            t.set_value_bytes += q.value.len() as u64;
        }
        if q.op == QueryOp::Get && r.status == ResponseStatus::Ok {
            t.hits += 1;
            t.hit_value_bytes += r.value.len() as u64;
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ShardedEngine::run_batch` on its three paths — settled 1-shard,
    /// partitioned 3-shard, and while a 1→3 resize drains under it —
    /// hands back a tally equal to a recount from the queries and the
    /// responses; and the partitioned tally is the shards' sum: a twin
    /// engine fed each shard's share as a batch of its own (so each
    /// tally is one shard's) adds up to the same record.
    #[test]
    fn run_batch_tally_equals_a_recount(batches in ttl_batches(), config in arb_config()) {
        let per_shard = EngineConfig::new(1 << 20, 64 << 10, 16 << 10);
        let clock = Arc::new(MockClock::at(1_000));
        let engine = |n| ShardedEngine::with_clock(n, per_shard, Arc::clone(&clock) as SharedClock);
        let (one, three, by_shard, migrating) = (engine(1), engine(3), engine(3), engine(1));
        std::thread::scope(|scope| {
            for (i, batch) in batches.iter().enumerate() {
                if i == 1 {
                    // The first batch's keys now sit in the donor; drain
                    // them under the remaining batches, never settling.
                    migrating.begin_resize(3, per_shard).unwrap();
                    scope.spawn(|| {
                        while !migrating.migrate_chunk(4).drained {
                            std::thread::yield_now();
                        }
                    });
                }
                let mut whole = BatchTally::default();
                for e in [&one, &migrating, &three] {
                    let (responses, tally) = e.run_batch(batch.clone(), config);
                    prop_assert_eq!(responses.len(), batch.len());
                    prop_assert_eq!(tally, recount(batch.iter().zip(&responses)));
                    whole = tally;
                }
                let mut shards = BatchTally::default();
                for shard in 0..3 {
                    let share = batch.iter().filter(|q| route_of(&q.key, 3) == shard);
                    shards.merge(&by_shard.run_batch(share.cloned().collect(), config).1);
                }
                prop_assert_eq!(whole, shards);
                clock.advance(2);
            }
        });
        prop_assert!(migrating.is_migrating());
    }

    /// A batch answers the same whether or not a resize is draining
    /// under it.
    #[test]
    fn a_draining_resize_changes_no_answer(batches in ttl_batches(), config in arb_config()) {
        draining_answers(&batches, config);
    }
}

/// Run `batches` through a settled 1-shard engine and through a twin
/// that a 1→3 resize drains under from the second batch on, never
/// settling, and return the twin's answers. The store is roomy (nothing
/// evicts) and the clock is shared and stands still within a batch, so
/// every answer must be the settled twin's, and the draining engine's
/// `MM` must count every SET it was given.
fn draining_answers(batches: &[Vec<Query>], config: PipelineConfig) -> Vec<Vec<Response>> {
    let per_shard = EngineConfig::new(1 << 20, 64 << 10, 16 << 10);
    let clock = Arc::new(MockClock::at(1_000));
    let engine = |n| ShardedEngine::with_clock(n, per_shard, Arc::clone(&clock) as SharedClock);
    let (one, migrating) = (engine(1), engine(1));
    let mut sets_given = 0;
    let mut answers = Vec::new();
    std::thread::scope(|scope| {
        for (i, batch) in batches.iter().enumerate() {
            if i == 1 {
                migrating.begin_resize(3, per_shard).unwrap();
                scope.spawn(|| {
                    while !migrating.migrate_chunk(4).drained {
                        std::thread::yield_now();
                    }
                });
            }
            let (settled, _) = one.run_batch(batch.clone(), config);
            let (draining, _) = migrating.run_batch(batch.clone(), config);
            assert_eq!(draining, settled, "batch {i} under {config}");
            sets_given += batch.iter().filter(|q| q.op == QueryOp::Set).count() as u64;
            assert_eq!(migrating.op_counts().mm_allocs, sets_given, "batch {i}");
            answers.push(draining);
            clock.advance(2);
        }
    });
    assert!(migrating.is_migrating());
    answers
}

/// The fixed case: a GET of an absent key with its SET behind it in one
/// batch reads the SET (`IN`-Insert runs before `IN`-Search), mid-resize
/// as on a settled engine.
#[test]
fn a_get_before_its_set_reads_it_while_a_resize_drains() {
    let batches = [
        vec![Query::set("seed", "s")],
        vec![Query::get("k"), Query::set("k", "v")],
    ];
    let answers = draining_answers(&batches, PipelineConfig::mega_kv());
    assert_eq!(answers[1], [Response::hit("v"), Response::ok()]);
}
