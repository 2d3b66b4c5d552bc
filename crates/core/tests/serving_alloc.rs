//! Allocation audit of the serving wrapper.
//!
//! `ServingCore::process_batch` is `ShardedEngine::process_batch_inline`
//! plus profiling and bookkeeping: lane counters, the GET mask that
//! pairs responses with ops, the per-configuration batch count, busy
//! time. A counting global allocator checks that, once warm, all of
//! that costs zero heap allocations: the wrapper performs exactly the
//! allocations the engine call underneath performs on the same batch.
//!
//! Out of scope by construction: the profiler's skew window completes
//! once per `skew_window x skew_sample_rate` (65,536 by default) queries
//! and allocates twice when it does; the few batches here never reach
//! it.

use dido::{DidoOptions, ServingCore};
use dido_model::{Query, Response, ResponseStatus};
use dido_pipeline::TestbedOptions;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`, adding only a relaxed
// counter bump — allocation behaviour is unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations `f` performs (its result is dropped after counting
/// stops; frees are not counted either way).
fn allocs_of(f: impl FnOnce() -> Vec<Response>) -> (u64, Vec<Response>) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), out)
}

/// One `#[test]` only: the counter is process-global and must not see a
/// concurrent sibling test's allocations.
#[test]
fn warmed_process_batch_allocates_exactly_what_the_engine_call_does() {
    let n = 512usize;
    let core = ServingCore::new(
        2,
        1,
        DidoOptions {
            testbed: TestbedOptions {
                store_bytes: 8 << 20,
                ..TestbedOptions::default()
            },
            ..DidoOptions::default()
        },
    );
    for i in 0..n {
        let r = core.execute(&Query::set(format!("sa-{i:04}"), vec![b'v'; 64]));
        assert_eq!(r.status, ResponseStatus::Ok);
    }
    // Hits, misses and a DELETE of an absent key: every op kind the
    // bookkeeping distinguishes, and nothing that changes the store.
    let batch: Vec<Query> = (0..n)
        .map(|i| match i % 16 {
            14 => Query::get(format!("absent-{i:04}")),
            15 => Query::delete(format!("absent-{i:04}")),
            _ => Query::get(format!("sa-{i:04}")),
        })
        .collect();
    let inline = |queries| {
        core.engine()
            .process_batch_inline(queries, |shard| core.shard_config(shard).0)
    };

    // Warm-up: cache filters, the lane's key-frequency map, its config
    // count entry and this thread's GET mask all reach steady state.
    for _ in 0..4 {
        let _ = core.process_batch(0, batch.clone());
        let _ = inline(batch.clone());
    }

    // Clones are made before counting starts: the batch is an input.
    let inputs = [batch.clone(), batch.clone(), batch.clone(), batch];
    let [a, b, c, d] = inputs;
    let (engine_first, _) = allocs_of(|| inline(a));
    let (wrapped_first, responses) = allocs_of(|| core.process_batch(0, b));
    let (engine_again, _) = allocs_of(|| inline(c));
    let (wrapped_again, _) = allocs_of(|| core.process_batch(0, d));

    assert_eq!(responses.len(), n);
    assert!(
        engine_first > 0,
        "the engine call's own allocations must be visible"
    );
    assert_eq!(
        engine_first, engine_again,
        "the harness needs a repeatable floor"
    );
    assert_eq!(
        (wrapped_first, wrapped_again),
        (engine_first, engine_first),
        "ServingCore::process_batch allocated beyond the engine call underneath"
    );

    // The bookkeeping itself ran: 6 wrapped batches, 14 hits per 16.
    let m = core.metrics();
    assert_eq!(m.work.batches, 6);
    assert_eq!(m.work.gets, 6 * (n as u64) * 15 / 16);
    assert_eq!(m.work.hits, 6 * (n as u64) * 14 / 16);
    assert_eq!(m.configs.len(), 1);
}
