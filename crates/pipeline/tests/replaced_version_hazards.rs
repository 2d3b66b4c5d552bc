//! Freeing the version a SET replaced, at the end of its batch, against
//! the three ways that free can go wrong (DESIGN.md §17): a reader that
//! searched before the overwrite, a replaced slot that a CLOCK eviction
//! has already handed to another object, and both at once under
//! concurrent writers and readers. Each test fails against a store that
//! frees the replaced location unconditionally in `IN`-Insert.

use dido_model::{PipelineConfig, Processor, Query, ResponseStatus, TaskKind, TaskSet};
use dido_pipeline::{tasks, Batch, EngineConfig, KvEngine, ShardedEngine, StageCtx};
use std::sync::Arc;

fn cpu_ctx() -> StageCtx {
    StageCtx::new(Processor::Cpu, TaskSet::from_tasks(&TaskKind::ALL), 64)
}

/// What a reader meets after a peer's overwrite of its key lands inside
/// its batch.
#[derive(Debug, Clone, Copy)]
enum Overwrite {
    /// At its key compare: the version its search found is free.
    FreedAtKc,
    /// At its key compare: that slot is free and another key's SET has
    /// reused it.
    ReusedAtKc,
    /// At its copy, after its key compare found the version.
    FreedAtRd,
}

/// A GET that searched before a peer's SET replaced and freed the
/// version it found answers the old value or the new one, never a miss.
#[test]
fn a_reader_that_searched_before_an_overwrite_still_finds_the_key() {
    for when in [
        Overwrite::FreedAtKc,
        Overwrite::ReusedAtKc,
        Overwrite::FreedAtRd,
    ] {
        let e = KvEngine::new(EngineConfig::new(1 << 20, 1 << 16, 1 << 14));
        let cfg = PipelineConfig::cpu_only();
        assert_eq!(e.execute(&Query::set("k", "v1")).status, ResponseStatus::Ok);
        let overwrite = || {
            let (r, _) = e.run_batch(vec![Query::set("k", "v2")], cfg);
            assert_eq!(r[0].status, ResponseStatus::Ok, "{when:?}");
            if matches!(when, Overwrite::ReusedAtKc) {
                // Same size class: the free list hands v1's slot out.
                e.execute(&Query::set("j", "xx"));
            }
        };

        let ctx = cpu_ctx();
        let mut reader = Batch::new(vec![Query::get("k")], cfg);
        tasks::run_index_search(ctx, &e, &mut reader, 0..1);
        if !matches!(when, Overwrite::FreedAtRd) {
            overwrite();
        }
        tasks::run_kc(ctx, &e, &mut reader, 0..1);
        if matches!(when, Overwrite::FreedAtRd) {
            overwrite();
        }
        tasks::run_rd(ctx, &e, &mut reader, 0..1);
        tasks::run_wr(ctx, &mut reader, 0..1);
        let r = &reader.take_responses()[0];
        assert_eq!(r.status, ResponseStatus::Ok, "{when:?}");
        assert!(
            &r.value[..] == b"v1" || &r.value[..] == b"v2",
            "{when:?}: {r:?}"
        );
        assert!(e.verify_integrity().is_clean(), "{when:?}");
    }
}

/// A full four-slot store whose oldest object is `k`: the next batch's
/// `MM` takes `k`'s slot as its CLOCK victim while `k`'s index entry
/// still names it, so the version an upsert of `k` replaces is a slot
/// that already holds a new object — another key's, or `k`'s own next
/// version. Neither may be freed.
#[test]
fn a_replaced_slot_that_clock_already_reused_is_not_freed() {
    const K: &[u8] = b"key-k";
    const OTHER: &[u8] = b"key-o";
    let value = |b: u8| vec![b; 35]; // 24 + 5 + 35 → the 64-byte class
    for other_first in [true, false] {
        let e = KvEngine::new(EngineConfig::new(256, 1 << 16, 1 << 14));
        e.execute(&Query::set(K, value(b'1')));
        for i in 0..3 {
            e.execute(&Query::set(format!("fill{i}"), value(b'f')));
        }
        let mut batch = vec![Query::set(K, value(b'2'))];
        if other_first {
            // OTHER's allocation evicts k; k's evicts fill0.
            batch.insert(0, Query::set(OTHER, value(b'o')));
        }
        let (r, _) = e.run_batch(batch, PipelineConfig::cpu_only());
        assert!(r.iter().all(|r| r.status == ResponseStatus::Ok));
        assert_eq!(
            e.op_counts().replaced_freed,
            0,
            "the slot held a new object"
        );
        assert_eq!(
            e.execute(&Query::get(K)).value,
            value(b'2'),
            "{other_first}"
        );
        if other_first {
            assert_eq!(e.execute(&Query::get(OTHER)).value, value(b'o'));
        }
        assert_eq!(e.store.live_objects(), 4);
        assert!(
            e.verify_integrity().is_clean(),
            "{:?}",
            e.verify_integrity()
        );
    }
}

/// Two writers overwrite, and two readers read, 64 keys of a roomy
/// two-shard engine. Every GET finds its key with a value written for
/// that key, the index and store agree afterwards, and every
/// overwrite freed exactly the version it replaced.
#[test]
fn readers_never_miss_under_an_overwrite_storm() {
    const KEYS: usize = 64;
    const BATCH: usize = 8;
    const WRITE_BATCHES: usize = 2000;
    const READ_BATCHES: usize = 4000;
    let key = |i: usize| format!("storm-{i:02}");
    let s = Arc::new(ShardedEngine::new(
        2,
        EngineConfig::new(1 << 20, 1 << 16, 1 << 14),
    ));
    for i in 0..KEYS {
        s.execute(&Query::set(key(i), format!("{}=preload", key(i))));
    }
    let cfg = PipelineConfig::mega_kv();
    // Each thread walks the keys with its own stride, so writers and
    // readers meet on every key.
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for b in 0..WRITE_BATCHES {
                    let batch = (0..BATCH)
                        .map(|q| {
                            let k = key((b * BATCH + q) * (2 * w + 1) % KEYS);
                            Query::set(k.clone(), format!("{k}=w{w}:{b}"))
                        })
                        .collect();
                    let (r, _) = s.run_batch(batch, cfg);
                    assert!(r.iter().all(|r| r.status == ResponseStatus::Ok));
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|rd| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for b in 0..READ_BATCHES {
                    let keys: Vec<String> = (0..BATCH)
                        .map(|q| key((b * BATCH + q) * (2 * rd + 3) % KEYS))
                        .collect();
                    let batch = keys.iter().map(|k| Query::get(k.clone())).collect();
                    let (r, _) = s.run_batch(batch, cfg);
                    for (k, r) in keys.iter().zip(&r) {
                        assert_eq!(r.status, ResponseStatus::Ok, "GET {k} missed");
                        let value = String::from_utf8_lossy(&r.value);
                        assert!(value.starts_with(&format!("{k}=")), "GET {k} read {value}");
                    }
                }
            })
        })
        .collect();
    for t in writers.into_iter().chain(readers) {
        t.join().unwrap();
    }
    for e in s.primary_engines() {
        assert!(
            e.verify_integrity().is_clean(),
            "{:?}",
            e.verify_integrity()
        );
    }
    assert_eq!(s.live_objects(), KEYS);
    assert_eq!(
        s.op_counts().replaced_freed,
        (2 * WRITE_BATCHES * BATCH) as u64
    );
}
