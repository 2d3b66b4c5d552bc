//! The wavefront-vectorized stage loop must answer a recorded workload
//! exactly as a `HashMap` does.
//!
//! The model shares no engine code: a SET stores, a GET reads, a DELETE
//! removes and reports whether the key was there. The store is sized so
//! nothing evicts and every batch carries distinct keys, so no order
//! inside a batch can change an answer; any difference is the staging
//! arena, the batched probes or the task order getting a reply wrong.

use dido_model::{PipelineConfig, Query, QueryOp, Response};
use dido_pipeline::{EngineConfig, KvEngine};
use std::collections::HashMap;

/// Deterministic splitmix64 stream so the "recorded" workload is
/// reproducible without a file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn engine() -> KvEngine {
    // Store far larger than the working set: no eviction, so query
    // interleaving is the only ordering concern (handled below by
    // keeping keys distinct within a batch).
    KvEngine::new(EngineConfig::new(8 << 20, 64 * 1024, 16 * 1024))
}

/// What the `HashMap` model answers to `q`, applying it.
fn model_answer(model: &mut HashMap<Vec<u8>, Vec<u8>>, q: &Query) -> Response {
    match q.op {
        QueryOp::Set => {
            model.insert(q.key.to_vec(), q.value.to_vec());
            Response::ok()
        }
        QueryOp::Get => match model.get(&q.key[..]) {
            Some(v) => Response::hit(v.clone()),
            None => Response::not_found(),
        },
        QueryOp::Delete => match model.remove(&q.key[..]) {
            Some(_) => Response::ok(),
            None => Response::not_found(),
        },
    }
}

#[test]
fn vectorized_tasks_match_a_hashmap_model_on_recorded_workload() {
    let vectorized = engine();
    let mut model = HashMap::new();
    let mut rng = Rng(0xD1D0_2024);

    let keyspace = 1500u64;
    let rounds = 10;
    let batch_size = 700usize;

    for round in 0..rounds {
        // Distinct keys per batch: the staged pipeline reorders work by
        // task (all MMs before all searches), so a batch must not carry
        // two operations on the same key. A shuffled draw without
        // replacement keeps batches mixed but conflict-free.
        let mut ids: Vec<u64> = (0..keyspace).collect();
        for i in (1..ids.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        let queries: Vec<Query> = ids[..batch_size]
            .iter()
            .map(|&id| {
                let key = format!("rec-{id:05}");
                match rng.next() % 10 {
                    // 40% SET with varying value sizes (including empty),
                    // 10% DELETE, 50% GET. Early rounds skew SET-heavy via
                    // the GETs/DELETEs missing until keys exist — which is
                    // itself a case worth recording (miss responses).
                    0..=3 => {
                        let vlen = (rng.next() % 300) as usize;
                        let fill = b'a' + (round as u8 % 26);
                        Query::set(key, vec![fill; vlen])
                    }
                    4 => Query::delete(key),
                    _ => Query::get(key),
                }
            })
            .collect();

        let (vec_responses, _) = vectorized.run_batch(queries.clone(), PipelineConfig::mega_kv());
        let model_responses: Vec<Response> =
            queries.iter().map(|q| model_answer(&mut model, q)).collect();
        for (i, (v, m)) in vec_responses.iter().zip(&model_responses).enumerate() {
            assert_eq!(
                v, m,
                "round {round} query {i} diverged: vectorized {v:?} vs model {m:?}"
            );
        }
    }

    // The engine indexes exactly the model's keys and stays clean; the
    // store also holds the overwritten versions CLOCK has yet to reach.
    assert!(vectorized.verify_integrity().is_clean());
    assert_eq!(vectorized.index.len(), model.len());
    assert!(vectorized.store.live_objects() >= model.len());
}

#[test]
fn responses_are_zero_copy_slices_of_one_arena() {
    let e = engine();
    let n = 200usize;
    for i in 0..n {
        e.execute(&Query::set(format!("z-{i:03}"), vec![b'v'; 100]));
    }
    let gets: Vec<Query> = (0..n).map(|i| Query::get(format!("z-{i:03}"))).collect();
    let (responses, _) = e.run_batch(gets, PipelineConfig::mega_kv());

    // RD stages values in query order into one buffer; after WR freezes
    // it, every response value must be a back-to-back window of the same
    // allocation — the zero-copy invariant (no per-query buffer).
    let mut expected_next: Option<usize> = None;
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(&r.value[..], &[b'v'; 100][..], "response {i}");
        let ptr = r.value.as_ptr() as usize;
        if let Some(next) = expected_next {
            assert_eq!(
                ptr, next,
                "response {i} is not contiguous with its predecessor — \
                 values are no longer slices of one staging arena"
            );
        }
        expected_next = Some(ptr + r.value.len());
    }
}
