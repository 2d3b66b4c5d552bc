//! A serving engine's index starts small and doubles as keys arrive
//! (DESIGN.md §9). Growth rehashes every entry under the index's
//! exclusive lock and leaves stale ones behind; these tests hold it to
//! the engine's contracts where it can go wrong: a batch that crosses
//! several doublings, a growth landing between `MM` and `IN`-Delete
//! while a CLOCK victim's entry still waits there, keys sharing a
//! signature in a small index, and readers racing writers whose SETs
//! keep growing two shards.

use dido_hashtable::key_hash;
use dido_model::{PipelineConfig, Processor, Query, ResponseStatus, TaskKind, TaskSet};
use dido_pipeline::{tasks, Batch, EngineConfig, KvEngine, ShardedEngine, StageCtx};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Buckets a serving engine's index starts with, whatever its store.
const START_BUCKETS: usize = 256;

/// One batch of 4 096 SETs into a fresh engine: the index doubles at
/// least three times inside it, and no SET is refused or lost.
#[test]
fn one_batch_crosses_several_doublings_and_loses_no_key() {
    const SETS: usize = 4_096;
    let e = KvEngine::new(EngineConfig::new(8 << 20, 1 << 16, 1 << 14));
    let start = e.index.bucket_count();
    let keys: Vec<String> = (0..SETS).map(|i| format!("grow-{i:04}")).collect();
    let sets = keys
        .iter()
        .map(|k| Query::set(k.clone(), format!("{k}=v")))
        .collect();
    let (responses, _) = e.run_batch(sets, PipelineConfig::mega_kv());
    assert!(responses.iter().all(|r| r.status == ResponseStatus::Ok));
    let grows = e.op_counts().index_grows;
    assert!(grows >= 3, "{grows} doublings");
    assert_eq!(e.index.bucket_count(), start << grows);
    let gets = keys.iter().map(|k| Query::get(k.clone())).collect();
    let (responses, _) = e.run_batch(gets, PipelineConfig::mega_kv());
    for (k, r) in keys.iter().zip(&responses) {
        assert_eq!(r.status, ResponseStatus::Ok, "{k} missed");
        assert_eq!(r.value, format!("{k}=v"));
    }
    let report = e.verify_integrity();
    assert_eq!((report.dangling, report.mismatched), (0, 0), "{report:?}");
    assert_eq!(report.entries, SETS);
}

/// A growth between `MM` and `IN`-Delete: the store and the index are
/// both full, so the SET's `MM` takes a CLOCK victim whose entry stays
/// until `IN`-Delete, and `IN`-Insert must double the index to make room
/// — leaving that stale entry behind. `IN`-Delete's unlink of the victim
/// then finds nothing to remove, and the index holds exactly the live
/// objects. Once for a SET of another key, whose object gives the
/// victim's slot another signature, and once for a SET of the victim's
/// own key into its own slot: the signature still matches, and only the
/// incarnation tag shows the entry stale.
#[test]
fn a_growth_between_mm_and_in_delete_drops_the_victims_entry() {
    const VICTIM: &[u8] = b"victim";
    // As many objects as the starting index takes under its load target.
    const OBJECTS: usize = START_BUCKETS * 3;
    for set_key in [&b"intrdr"[..], VICTIM] {
        // 24 + 6 + 34 bytes: the 64-byte class, which fills the store.
        let (old, new) = (vec![b'o'; 34], vec![b'n'; 34]);
        let e = KvEngine::new(EngineConfig::new(OBJECTS * 64, 1 << 16, 1 << 14));
        assert_eq!(e.index.bucket_count(), START_BUCKETS);
        e.execute(&Query::set(VICTIM, old.clone()));
        let fillers: Vec<String> = (1..OBJECTS).map(|i| format!("f{i:05}")).collect();
        for k in &fillers {
            e.execute(&Query::set(k.clone(), old.clone()));
        }
        assert_eq!(e.op_counts().index_grows, 0, "a full index, not past full");
        let ctx = StageCtx::new(Processor::Cpu, TaskSet::from_tasks(&TaskKind::ALL), 64);
        let mut batch = Batch::new(
            vec![Query::set(set_key, new.clone())],
            PipelineConfig::cpu_only(),
        );

        tasks::run_mm(ctx, &e, &mut batch, 0..1);
        assert_eq!(batch.dead.len(), 1, "a full store evicts");
        assert_eq!(
            batch.dead[0].cookie,
            key_hash(VICTIM).hash,
            "the oldest object goes"
        );
        let victim_loc = batch.dead[0].loc;
        assert_eq!(batch.state[0].new_loc.map(|(loc, _)| loc), Some(victim_loc));
        let (stale, _) = e.index.search(key_hash(VICTIM));
        assert_eq!(
            stale.as_slice(),
            &[victim_loc],
            "the entry waits for IN-Delete"
        );

        tasks::run_index_insert(ctx, &e, &mut batch, 0..1);
        let case = String::from_utf8_lossy(set_key);
        assert_eq!(e.op_counts().index_grows, 1, "SET {case}");
        assert_eq!(e.index.bucket_count(), 2 * START_BUCKETS);
        assert_eq!(
            e.index.len(),
            OBJECTS,
            "SET {case}: the fillers' entries and the new one, not the stale one"
        );
        tasks::run_index_delete(ctx, &e, &mut batch, 0..1);
        assert_eq!(e.index.len(), OBJECTS, "nothing left for IN-Delete to remove");
        assert_eq!(e.index.len(), e.store.live_objects());
        assert_eq!(batch.take_responses()[0].status, ResponseStatus::Ok);

        assert_eq!(e.execute(&Query::get(set_key)).value, new);
        if set_key != VICTIM {
            let r = e.execute(&Query::get(VICTIM));
            assert_eq!(r.status, ResponseStatus::NotFound);
        }
        for k in &fillers {
            assert_eq!(e.execute(&Query::get(k.clone())).status, ResponseStatus::Ok);
        }
        assert!(
            e.verify_integrity().is_clean(),
            "{:?}",
            e.verify_integrity()
        );
    }
}

/// Two keys whose signatures and primary buckets coincide both stay
/// indexed: a SET of one never replaces the other's entry, even when the
/// second lands in its alternate bucket behind the first, nor does an
/// overwrite, a growth or a DELETE of one disturb the other.
#[test]
fn keys_sharing_a_signature_are_both_indexed() {
    // A key's primary bucket is the low bits of its hash.
    let bucket = |k: &str| key_hash(k.as_bytes()).hash % START_BUCKETS as u64;
    let mut seen: HashMap<(u16, u64), String> = HashMap::new();
    let (a, b) = (0..)
        .map(|i| format!("twin-{i}"))
        .find_map(|k| {
            let twin = seen.insert((key_hash(k.as_bytes()).sig, bucket(&k)), k.clone())?;
            Some((twin, k))
        })
        .expect("a pair");
    // Three more keys of that bucket fill it behind `a`, so `b` goes to
    // its alternate, and a search of `b` meets `a` first.
    let fillers: Vec<String> = (0..)
        .map(|i| format!("fill-{i}"))
        .filter(|k| bucket(k) == bucket(&a))
        .take(3)
        .collect();
    let e = KvEngine::new(EngineConfig::new(1 << 20, 1 << 16, 1 << 14));
    assert_eq!(e.index.bucket_count(), START_BUCKETS);
    let get = |k: &str| e.execute(&Query::get(k.to_string()));
    e.execute(&Query::set(a.clone(), "a1"));
    for k in &fillers {
        e.execute(&Query::set(k.clone(), "f"));
    }
    e.execute(&Query::set(b.clone(), "b1"));
    assert_eq!((get(&a).value, get(&b).value), ("a1".into(), "b1".into()));
    e.execute(&Query::set(a.clone(), "a2"));
    assert_eq!((get(&a).value, get(&b).value), ("a2".into(), "b1".into()));
    assert_eq!(e.index.len(), 5, "the overwrite replaced a's own entry");
    // Enough other keys to double the index twice.
    let others = (0..2_000).map(|i| Query::set(format!("other-{i}"), "o")).collect();
    let (responses, _) = e.run_batch(others, PipelineConfig::mega_kv());
    assert!(responses.iter().all(|r| r.status == ResponseStatus::Ok));
    assert_eq!(e.op_counts().index_grows, 2);
    assert_eq!((get(&a).value, get(&b).value), ("a2".into(), "b1".into()));
    assert_eq!(e.execute(&Query::delete(b.clone())).status, ResponseStatus::Ok);
    assert_eq!(get(&b).status, ResponseStatus::NotFound);
    assert_eq!(get(&a).value, "a2");
    assert!(
        e.verify_integrity().is_clean(),
        "{:?}",
        e.verify_integrity()
    );
}

/// SETs whose keys all share one bucket pair fill it long before the
/// index nears its load target, so an upsert finds no slot. The SET is
/// still stored: the index grows and the wavefront resumes at that
/// SET, in order, so of two SETs of one key the later still wins.
#[test]
fn a_set_that_finds_no_slot_grows_the_index_and_is_stored() {
    // A key's two buckets follow from the low bits of its hash and of
    // its signature, so keys agreeing in both share their pair — 8
    // slots for them, of the 768 entries the index admits.
    let low = START_BUCKETS as u64 - 1;
    let keys: Vec<String> = (0..)
        .map(|i| format!("full-{i}"))
        .filter(|k| {
            let kh = key_hash(k.as_bytes());
            kh.hash & low == 0 && u64::from(kh.sig) & low == 0
        })
        .take(9)
        .collect();
    let e = KvEngine::new(EngineConfig::new(1 << 20, 1 << 16, 1 << 14));
    assert_eq!(e.index.bucket_count(), START_BUCKETS);
    let mut sets: Vec<Query> = keys.iter().map(|k| Query::set(k.clone(), "v1")).collect();
    sets.push(Query::set(keys[8].clone(), "v2"));
    let (responses, _) = e.run_batch(sets, PipelineConfig::mega_kv());
    assert!(responses.iter().all(|r| r.status == ResponseStatus::Ok));
    assert!(e.op_counts().index_grows >= 1);
    for (i, k) in keys.iter().enumerate() {
        let want = if i == 8 { "v2" } else { "v1" };
        assert_eq!(e.execute(&Query::get(k.clone())).value, want, "{k}");
    }
    assert_eq!(
        e.op_counts().replaced_freed,
        1,
        "the version v2 replaced"
    );
    assert_eq!(e.store.live_objects(), 9);
    assert!(
        e.verify_integrity().is_clean(),
        "{:?}",
        e.verify_integrity()
    );
}

/// Two writers SET fresh keys into a roomy two-shard engine, growing
/// both shards' indexes many times over, while two readers GET keys
/// whose SETs were already answered: none of those GETs misses.
#[test]
fn readers_never_miss_an_answered_set_while_the_index_grows() {
    const BATCH: usize = 32;
    const BATCHES: usize = 250;
    let keys: Arc<[Vec<String>; 2]> = Arc::new([0, 1].map(|w| {
        (0..BATCHES * BATCH)
            .map(|i| format!("fresh-{w}-{i:05}"))
            .collect()
    }));
    let s = Arc::new(ShardedEngine::new(
        2,
        EngineConfig::new(4 << 20, 1 << 16, 1 << 14),
    ));
    let start: usize = s
        .primary_engines()
        .iter()
        .map(|e| e.index.bucket_count())
        .sum();
    // Writer w's keys below `answered[w]` have had their SETs answered.
    let answered: Arc<[AtomicUsize; 2]> = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let cfg = PipelineConfig::mega_kv();
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let (s, keys, answered) = (Arc::clone(&s), Arc::clone(&keys), Arc::clone(&answered));
            std::thread::spawn(move || {
                for b in 0..BATCHES {
                    let batch = keys[w][b * BATCH..(b + 1) * BATCH]
                        .iter()
                        .map(|k| Query::set(k.clone(), k.clone()))
                        .collect();
                    let (r, _) = s.run_batch(batch, cfg);
                    assert!(r.iter().all(|r| r.status == ResponseStatus::Ok));
                    answered[w].store((b + 1) * BATCH, Ordering::Release);
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|rd| {
            let (s, keys, answered) = (Arc::clone(&s), Arc::clone(&keys), Arc::clone(&answered));
            std::thread::spawn(move || {
                let mut round = 0;
                loop {
                    let upto = [0, 1].map(|w| answered[w].load(Ordering::Acquire));
                    if upto == [BATCHES * BATCH; 2] && round > 0 {
                        break;
                    }
                    round += 1;
                    // The newest answered keys and a stride over older ones.
                    let probes: Vec<&String> = (0..BATCH)
                        .filter_map(|q| {
                            let w = (q + rd) % 2;
                            let back = if q < BATCH / 2 { q } else { q * 97 * round };
                            let i = upto[w].checked_sub(1 + back % upto[w].max(1))?;
                            Some(&keys[w][i])
                        })
                        .collect();
                    let batch = probes.iter().map(|&k| Query::get(k.clone())).collect();
                    let (r, _) = s.run_batch(batch, cfg);
                    for (k, r) in probes.iter().zip(&r) {
                        assert_eq!(r.status, ResponseStatus::Ok, "GET {k} missed");
                        assert_eq!(&r.value[..], k.as_bytes());
                    }
                }
            })
        })
        .collect();
    for t in writers.into_iter().chain(readers) {
        t.join().unwrap();
    }
    let engines = s.primary_engines();
    let buckets: usize = engines.iter().map(|e| e.index.bucket_count()).sum();
    assert!(buckets >= 16 * start, "{start} → {buckets} buckets");
    assert!(s.op_counts().index_grows >= 8, "{:?}", s.op_counts());
    for e in &engines {
        assert!(
            e.verify_integrity().is_clean(),
            "{:?}",
            e.verify_integrity()
        );
    }
    assert_eq!(s.live_objects(), 2 * BATCHES * BATCH);
}
