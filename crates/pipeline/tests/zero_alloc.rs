//! Steady-state allocation audit of the `IN`→`WR` hot path and of the
//! serving executor around it.
//!
//! A counting global allocator measures how many heap allocations the
//! batched tasks perform for a 512-query GET batch. The old path
//! allocated at least one `Vec` per query in `RD` plus one `Bytes`
//! conversion per response in `WR` (≥ 1024 allocations per 512-query
//! batch); the arena-staged path is allowed only batch-level overhead —
//! staging-buffer growth doublings and the single arena freeze — far
//! below one per query. The second audit holds the executor to the same
//! standard per *wavefront*.

use dido_model::{PipelineConfig, Processor, Query, TaskKind, TaskSet};
use dido_pipeline::{tasks, Batch, EngineConfig, KvEngine, ShardedEngine, StageCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// The counter is process-global and must not see a sibling test's
/// allocations: every audit holds this for its whole run.
static AUDIT: Mutex<()> = Mutex::new(());

/// Allocations (and reallocations) `f` performs.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), out)
}

#[test]
fn steady_state_in_to_wr_path_does_not_allocate_per_query() {
    let _audit = AUDIT.lock().unwrap();
    let n = 512usize;
    let engine = KvEngine::new(EngineConfig::new(8 << 20, 1 << 20, 256 * 1024));
    for i in 0..n {
        engine.execute(&Query::set(format!("za-{i:04}"), vec![b'v'; 64]));
    }
    let gets: Vec<Query> = (0..n).map(|i| Query::get(format!("za-{i:04}"))).collect();
    let ctx = StageCtx::new(
        Processor::Cpu,
        TaskSet::from_tasks(&[TaskKind::In, TaskKind::Kc, TaskKind::Rd, TaskKind::Wr]),
        64,
    );
    let run = |batch: &mut Batch| {
        let n = batch.len();
        tasks::run_index_search(ctx, &engine, batch, 0..n);
        tasks::run_kc(ctx, &engine, batch, 0..n);
        tasks::run_rd(ctx, &engine, batch, 0..n);
        tasks::run_wr(ctx, batch, 0..n);
    };

    // Built before counting starts: batch construction (queries/state
    // vectors) is per-batch setup, not the per-query hot path under
    // audit.
    let mut batch = Batch::new(gets, PipelineConfig::mega_kv());
    let (allocs, ()) = allocs_of(|| run(&mut batch));

    // Every GET produced a real response out of the shared arena.
    let responses = batch.take_responses();
    assert_eq!(responses.len(), n);
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(&r.value[..], &[b'v'; 64][..], "response {i}");
    }

    // Batch-level overhead only: the old per-query path needed ≥ 2n
    // allocations here; the arena path must stay far under one per
    // query (growth doublings + one freeze).
    assert!(
        allocs <= (n as u64) / 8,
        "IN→WR over {n} warmed GETs performed {allocs} allocations — \
         the hot path is allocating per query again"
    );
    assert!(allocs > 0, "the single arena freeze must be visible");
}

#[test]
fn serving_executor_allocations_do_not_scale_with_wavefronts() {
    let _audit = AUDIT.lock().unwrap();
    let engine = KvEngine::new(EngineConfig::new(8 << 20, 1 << 20, 256 * 1024));
    for i in 0..4096 {
        engine.execute(&Query::set(format!("wf-{i:04}"), vec![b'v'; 64]));
    }
    let serving = ShardedEngine::from_engines(vec![engine]);
    let audit = |n: usize| {
        let queries: Vec<Query> = (0..n).map(|i| Query::get(format!("wf-{i:04}"))).collect();
        let (allocs, responses) =
            allocs_of(|| serving.process_batch_inline(queries, |_| PipelineConfig::mega_kv()));
        assert_eq!(responses.len(), n);
        assert!(
            responses.iter().all(|r| r.value.len() == 64),
            "{n}-query batch missed"
        );
        allocs
    };
    let one_wavefront = audit(64);
    let sixty_four_wavefronts = audit(4096);

    // What one call allocates: the batch's state and generation vectors,
    // the plan's stage list (one Vec, plus one index-op Vec per stage),
    // the staging arena, its freeze, and the response Vec. All but the
    // arena are one allocation whatever the batch size; the arena grows
    // by doubling from its first 64-byte value to hold n × 64 bytes, so
    // 64× the values cost log2(64) = 6 more reallocations. Two spare
    // for a growth policy that rounds differently. Anything per
    // wavefront would add at least 63.
    const ARENA_DOUBLINGS: u64 = 6;
    assert!(
        sixty_four_wavefronts <= one_wavefront + ARENA_DOUBLINGS + 2,
        "64 wavefronts allocated {sixty_four_wavefronts}, one wavefront {one_wavefront}: \
         process_batch_inline allocates per wavefront again"
    );
}
