//! Model-based property tests for the object store: allocate / free /
//! overwrite sequences must agree with a reference map, capacity
//! invariants must hold throughout, and an expired object must be
//! indistinguishable from a deleted one — on the lazy path and the
//! segment-sweep path alike. Time is an explicit `now` the generator
//! advances; nothing here ever sleeps.

use dido_hashtable::hash64;
use dido_kvstore::{ObjectStore, StoreError};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    /// Store key `k` with a value of `len` bytes.
    Put(u8, u8),
    /// Free key `k`'s current object (if any).
    Free(u8),
    /// Read key `k` back.
    Check(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(k, l)| Op::Put(k, l)),
            any::<u8>().prop_map(Op::Free),
            any::<u8>().prop_map(Op::Check),
        ],
        1..150,
    )
}

#[derive(Debug, Clone)]
enum TtlOp {
    /// Store key `k` (`len` value bytes) with a relative TTL in mock
    /// seconds; 0 = never expires.
    Put(u8, u8, u8),
    /// Move the mock clock forward.
    Advance(u8),
    /// Observe key `k`: a passed deadline must read as deleted.
    Get(u8),
    /// Proactive pass: reclaim every fully-expired segment.
    Sweep,
    /// Explicit DELETE of key `k`.
    Free(u8),
}

fn ttl_ops() -> impl Strategy<Value = Vec<TtlOp>> {
    proptest::collection::vec(
        prop_oneof![
            // Small TTLs against small advances, so runs interleave
            // live, expired-but-present, and purged states.
            (any::<u8>(), any::<u8>(), 0u8..8).prop_map(|(k, l, t)| TtlOp::Put(k, l, t)),
            (1u8..5).prop_map(TtlOp::Advance),
            any::<u8>().prop_map(TtlOp::Get),
            Just(TtlOp::Sweep),
            any::<u8>().prop_map(TtlOp::Free),
        ],
        1..150,
    )
}

/// Apply one [`dido_kvstore::PurgedEntry`] to the oracle. The slot at
/// `loc` was just freed, so whichever key currently occupies it must
/// have been expired — that is the equivalence under test. Matching is
/// by loc, not cookie: overwrites leave stale members in old segments,
/// and after slot recycling such a member can re-emit the loc under
/// its old cookie (the engine's index purge guards against exactly
/// this by validating loc, so a stale cookie only costs a no-op).
fn drop_purged(
    model: &mut HashMap<u8, (u64, Vec<u8>, u32)>,
    loc: u64,
    cookie: u64,
    now: u32,
) {
    let hit = model
        .iter()
        .find(|(_, (l, _, _))| *l == loc)
        .map(|(k, (_, _, d))| (*k, *d));
    if let Some((k, deadline)) = hit {
        assert!(
            deadline != 0 && now >= deadline,
            "purged an unexpired key {k}"
        );
        model.remove(&k);
    } else {
        // Every live slot belongs to exactly one oracle key, so a
        // purge that frees a slot must always land on one.
        panic!("purged loc {loc} (cookie {cookie}) unknown to the oracle");
    }
}

fn key_bytes(k: u8) -> Vec<u8> {
    format!("pkey-{k:03}").into_bytes()
}

fn value_bytes(k: u8, len: u8) -> Vec<u8> {
    (0..len).map(|i| k.wrapping_add(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn store_agrees_with_reference_map(ops in ops(), tight in any::<bool>(), mega_kv in any::<bool>()) {
        // Generous capacity verifies exact content agreement with no
        // eviction; a tight arena makes CLOCK evict, and every victim
        // must be reported under the hash of the key the oracle holds
        // at that location. Either class ladder.
        let capacity = if tight { 4096 } else { 1 << 20 };
        let store = if mega_kv { ObjectStore::mega_kv(capacity) } else { ObjectStore::new(capacity) };
        // key -> (loc, value)
        let mut model: HashMap<u8, (u64, Vec<u8>)> = HashMap::new();

        for op in ops {
            match op {
                Op::Put(k, len) => {
                    let key = key_bytes(k);
                    let value = value_bytes(k, len);
                    let out = match store.allocate(&key, &value) {
                        Ok(out) => out,
                        // A tight arena carved into small slots cannot
                        // host a large object.
                        Err(StoreError::OutOfMemory) if tight => continue,
                        Err(e) => panic!("allocate: {e:?}"),
                    };
                    prop_assert!(tight || out.evicted.is_none(), "no eviction expected");
                    if let Some(ev) = out.evicted {
                        prop_assert_eq!(ev.loc, out.loc);
                        let victim = model.iter().find(|(_, (l, _))| *l == ev.loc);
                        let victim = *victim.expect("evicted an object unknown to the oracle").0;
                        prop_assert_eq!(ev.cookie, hash64(&key_bytes(victim)));
                        model.remove(&victim);
                    }
                    // Putting over an existing key leaves the old object
                    // as garbage (memcached semantics); free it like the
                    // single-query path would once unreachable.
                    if let Some((old, _)) = model.insert(k, (out.loc, value)) {
                        if old != out.loc {
                            store.free(old);
                        }
                    }
                }
                Op::Free(k) => {
                    if let Some((loc, _)) = model.remove(&k) {
                        prop_assert!(store.free(loc), "model says {k} was live");
                        prop_assert!(!store.free(loc), "double free must fail");
                    }
                }
                Op::Check(k) => {
                    if let Some((loc, value)) = model.get(&k) {
                        prop_assert!(store.key_matches(*loc, &key_bytes(k)));
                        let mut v = Vec::new();
                        store.read_value(*loc, &mut v);
                        prop_assert_eq!(&v, value);
                        let (klen, vlen) = store.object_lens(*loc);
                        prop_assert_eq!(klen, key_bytes(k).len());
                        prop_assert_eq!(vlen, value.len());
                    }
                }
            }
            // Global invariants.
            prop_assert_eq!(store.live_objects(), model.len());
            prop_assert!(store.bytes_carved() <= store.capacity());
        }
    }

    #[test]
    fn expiry_is_equivalent_to_delete(ops in ttl_ops()) {
        // Oracle: key -> (loc, value, deadline). Entries leave the
        // oracle exactly when their slot is freed (lazy purge, sweep,
        // or explicit free) — never merely because time passed — so
        // `live_objects` must track the oracle at every step.
        let store = ObjectStore::new(1 << 20);
        let mut model: HashMap<u8, (u64, Vec<u8>, u32)> = HashMap::new();
        let mut now: u32 = 1_000;

        for op in ops {
            match op {
                TtlOp::Put(k, len, ttl) => {
                    let key = key_bytes(k);
                    let value = value_bytes(k, len);
                    let deadline = if ttl == 0 { 0 } else { now + u32::from(ttl) };
                    let out = store
                        .allocate_with(&key, &value, deadline, 0, now, u64::from(k))
                        .expect("capacity is ample");
                    prop_assert!(out.evicted.is_none(), "no CLOCK eviction expected");
                    for p in &out.reclaimed {
                        drop_purged(&mut model, p.loc, p.cookie, now);
                    }
                    if let Some((old, _, _)) = model.insert(k, (out.loc, value, deadline)) {
                        if old != out.loc {
                            store.free(old);
                        }
                    }
                }
                TtlOp::Advance(secs) => now += u32::from(secs),
                TtlOp::Get(k) => {
                    if let Some((loc, value, deadline)) = model.get(&k) {
                        let expired = *deadline != 0 && now >= *deadline;
                        prop_assert_eq!(store.is_expired(*loc, now), expired);
                        let (meta_deadline, _) = store.object_meta(*loc);
                        prop_assert_eq!(meta_deadline, *deadline);
                        if expired {
                            // The lazy path: KC sees the passed deadline
                            // and purges — afterwards the key is exactly
                            // as gone as a DELETE would leave it.
                            prop_assert!(store.expire_if_due(*loc, now));
                            prop_assert!(!store.free(*loc), "purge freed the slot");
                            let loc = *loc;
                            model.remove(&k);
                            prop_assert!(!store.expire_if_due(loc, now), "double purge");
                        } else {
                            prop_assert!(store.key_matches(*loc, &key_bytes(k)));
                            let mut v = Vec::new();
                            store.read_value(*loc, &mut v);
                            prop_assert_eq!(&v, value);
                            prop_assert!(!store.expire_if_due(*loc, now), "not due yet");
                        }
                    }
                }
                TtlOp::Sweep => {
                    let mut purged = Vec::new();
                    store.sweep_expired(now, usize::MAX, &mut purged);
                    for p in &purged {
                        drop_purged(&mut model, p.loc, p.cookie, now);
                    }
                }
                TtlOp::Free(k) => {
                    if let Some((loc, _, _)) = model.remove(&k) {
                        prop_assert!(store.free(loc), "model says {} was live", k);
                    }
                }
            }
            prop_assert_eq!(store.live_objects(), model.len());
        }

        // Endgame: after every deadline has long passed, one unbounded
        // sweep must reclaim every TTL'd object — proactive expiry is a
        // bulk DELETE of everything mortal. Immortals survive.
        now = now.saturating_add(1 << 20);
        let mut purged = Vec::new();
        store.sweep_expired(now, usize::MAX, &mut purged);
        for p in &purged {
            drop_purged(&mut model, p.loc, p.cookie, now);
        }
        prop_assert!(
            model.values().all(|(_, _, deadline)| *deadline == 0),
            "a mortal key outlived the final sweep"
        );
        prop_assert_eq!(store.live_objects(), model.len());
        for (k, (loc, value, _)) in &model {
            prop_assert!(store.key_matches(*loc, &key_bytes(*k)));
            let mut v = Vec::new();
            store.read_value(*loc, &mut v);
            prop_assert_eq!(&v, value);
        }
    }

    #[test]
    fn allocation_failures_never_corrupt_live_objects(
        n_fill in 1usize..30,
        big in 200u32..4000,
    ) {
        // Fill a tiny store, then hammer it with objects too large for
        // any class; existing data must stay intact.
        let store = ObjectStore::new(1 << 10);
        let mut live = Vec::new();
        for i in 0..n_fill {
            let key = format!("fill-{i:02}");
            match store.allocate(key.as_bytes(), b"v") {
                Ok(out) => live.push((out.loc, key)),
                Err(_) => break,
            }
        }
        let oversized = vec![0u8; big as usize + (1 << 10)];
        for _ in 0..4 {
            let r = store.allocate(b"boom", &oversized);
            prop_assert!(matches!(r, Err(StoreError::ObjectTooLarge) | Err(StoreError::OutOfMemory)));
        }
        for (loc, key) in live {
            prop_assert!(store.key_matches(loc, key.as_bytes()));
        }
    }
}
