//! The paper's fine-grained tasks (§III-A), implemented as independent
//! functions over a batch range, and [`run_stage`], the one loop that
//! runs a stage's tasks in plan order.
//!
//! Each task does its work *for real* against the [`KvEngine`]. What a
//! task costs on the simulated chip is not its business: it reports the
//! events a cost depends on (an allocation, a key compare, a value read)
//! to the [`Meter`] of its [`StageCtx`]. Serving runs with [`NoMeter`],
//! whose hooks are empty and compile away; the reproduction's simulator
//! prices the same events on its own cache filters (`dido-bench`'s
//! `sim_meter.rs`, paper §III-B-1, §IV-B). `RV`, `PP` and `SD` move
//! frames on the simulated NIC and live there too.

use crate::batch::{Batch, StagingArena};
use crate::engine::KvEngine;
use dido_hashtable::{
    key_hash, prefetch_read, tagged, untagged, Candidates, InsertError, KeyHash, PROBE_WAVEFRONT,
};
use dido_kvstore::{ObjectStore, ProbeOutcome, PurgedEntry};
use dido_model::{
    ttl_to_deadline, IndexOpKind, Processor, QueryOp, ResourceUsage, Response, StagePlan, TaskKind,
    TaskSet,
};
use std::ops::Range;
use std::sync::atomic::{fence, Ordering};

/// Placeholder for initializing wavefront gather buffers (never probed:
/// only the filled prefix of a gather array is handed to the batch ops).
pub(crate) const KH_NONE: KeyHash = KeyHash { hash: 0, sig: 1 };

/// Iterate `range` in wavefront-sized sub-ranges: the unit the batched
/// index and store operations gather over.
fn wavefronts(range: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let Range { start, end } = range;
    (start..end)
        .step_by(PROBE_WAVEFRONT)
        .map(move |s| s..(s + PROBE_WAVEFRONT).min(end))
}

/// The events a task's simulated cost depends on. Every hook defaults to
/// nothing, so the unmetered [`NoMeter`] is the empty impl and a task
/// monomorphized over it carries no accounting at all; the simulator's
/// meter prices each event (paper Eq. 1 inputs) and keeps the hot-set
/// filters the prices depend on.
pub trait Meter: Copy {
    /// `MM` attempted one allocation.
    fn mm_alloc(_ctx: &StageCtx<Self>) {}
    /// `MM` stored an object of `obj_bytes` key + value bytes, freeing
    /// `freed` slots (CLOCK victim and reclaimed expired objects) to
    /// make room.
    fn mm_stored(_ctx: &StageCtx<Self>, _obj_bytes: usize, _freed: u64) {}
    /// An index operation reported `usage` bucket traffic.
    fn index_op(_ctx: &StageCtx<Self>, _usage: ResourceUsage) {}
    /// `IN`-Delete compared a `key_len`-byte key against a candidate.
    fn delete_compare(_ctx: &StageCtx<Self>, _key_len: usize) {}
    /// The object at `loc` left the store (evicted, deleted or expired).
    fn freed(_ctx: &StageCtx<Self>, _loc: u64) {}
    /// `KC` fetched the candidate at `loc` to compare a `key_len`-byte
    /// key.
    fn kc_compare(_ctx: &StageCtx<Self>, _store: &ObjectStore, _loc: u64, _key_len: usize) {}
    /// `RD` staged the `value_len`-byte value of the `obj_bytes`-byte
    /// object at `loc`.
    fn rd_value(_ctx: &StageCtx<Self>, _loc: u64, _obj_bytes: u64, _value_len: usize) {}
    /// `WR` built one response, over `staged` value bytes if it is a hit.
    fn wr_response(_ctx: &StageCtx<Self>, _staged: Option<usize>) {}
}

/// The serving path's meter: nothing is counted.
#[derive(Debug, Clone, Copy)]
pub struct NoMeter;

impl Meter for NoMeter {}

/// Where a task invocation runs and which tasks share its stage.
#[derive(Debug, Clone, Copy)]
pub struct StageCtx<M: Meter = NoMeter> {
    /// Processor executing the stage.
    pub processor: Processor,
    /// All tasks co-located in this stage (affinity checks).
    pub stage_tasks: TaskSet,
    /// Cache line size of the executing processor.
    pub cache_line: u64,
    /// Who prices the stage's work.
    pub meter: M,
}

impl StageCtx {
    /// Unmetered context for a stage on `processor` running
    /// `stage_tasks`.
    #[must_use]
    pub fn new(processor: Processor, stage_tasks: TaskSet, cache_line: u64) -> StageCtx {
        StageCtx {
            processor,
            stage_tasks,
            cache_line,
            meter: NoMeter,
        }
    }
}

/// Run every task and index operation of `stage` over the whole of
/// `batch`, in plan order. [`KvEngine::run_batch`], the executor, calls
/// it once per stage.
pub fn run_stage(engine: &KvEngine, stage: &StagePlan, batch: &mut Batch) {
    let ctx = StageCtx::new(stage.processor, stage.tasks, 64);
    let all = 0..batch.len();
    let index_ops = |batch: &mut Batch| {
        for &op in &stage.index_ops {
            run_index_op(op, ctx, engine, batch, all.clone());
        }
    };
    for t in stage.tasks.iter() {
        match t {
            // Frame I/O happens at the pipeline boundary (the network
            // front-end, or the simulator's NIC), not per stage.
            TaskKind::Rv | TaskKind::Pp | TaskKind::Sd => {}
            TaskKind::Mm => run_mm(ctx, engine, batch, all.clone()),
            TaskKind::In => index_ops(batch),
            TaskKind::Kc => run_kc(ctx, engine, batch, all.clone()),
            TaskKind::Rd => run_rd(ctx, engine, batch, all.clone()),
            TaskKind::Wr => run_wr(ctx, batch, all.clone()),
        }
    }
    // Index ops placed in a stage without IN (the pre-GPU CPU stage
    // hosting CPU-assigned Insert/Delete, §V-C).
    if !stage.tasks.contains(TaskKind::In) {
        index_ops(batch);
    }
}

/// `MM`: allocate (and if necessary evict) for every SET in `range`.
pub fn run_mm<M: Meter>(
    ctx: StageCtx<M>,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) {
    let now = engine.clock.now_secs();
    for i in range {
        if batch.queries[i].op != QueryOp::Set {
            continue;
        }
        let q = &batch.queries[i];
        M::mm_alloc(&ctx);
        engine.ops.mm_allocs.add(1);
        let kh = key_hash(&q.key);
        let deadline = ttl_to_deadline(q.ttl, now);
        match engine
            .store
            .allocate_with(&q.key, &q.value, deadline, q.flags, now, kh.hash)
        {
            Ok(out) => {
                // Whatever died to make room — the CLOCK victim, the
                // members of reclaimed expired segments — is metered
                // here as MM bookkeeping and joins the batch's dead
                // list; the index unlinks run in IN-Delete.
                let first = batch.dead.len();
                batch
                    .dead
                    .extend(out.evicted.into_iter().chain(out.reclaimed));
                let dead = &batch.dead[first..];
                M::mm_stored(&ctx, q.key.len() + q.value.len(), dead.len() as u64);
                for p in dead {
                    M::freed(&ctx, p.loc);
                }
                batch.state[i].new_loc = Some((out.loc, out.tag));
            }
            Err(_) => {
                batch.state[i].response = Some(Response::error());
            }
        }
    }
}

/// `IN`-Search: index lookups for every GET in `range`, one prefetched
/// probe wavefront at a time ([`dido_hashtable::IndexTable::search_batch`]).
/// GETs are gathered into stack buffers, probed together, and the
/// candidates scattered back — no heap traffic. Each wavefront's
/// recycle generation is recorded first, for `KC` and `RD`.
pub fn run_index_search<M: Meter>(
    ctx: StageCtx<M>,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) {
    let mut idx = [0usize; PROBE_WAVEFRONT];
    let mut keys = [KH_NONE; PROBE_WAVEFRONT];
    let mut cands = [Candidates::default(); PROBE_WAVEFRONT];
    for wf in wavefronts(range) {
        let gen_slot = wf.start / PROBE_WAVEFRONT;
        let mut n = 0usize;
        for i in wf {
            if batch.queries[i].op != QueryOp::Get {
                continue;
            }
            idx[n] = i;
            keys[n] = key_hash(&batch.queries[i].key);
            n += 1;
        }
        if n == 0 {
            continue;
        }
        batch.wf_gens[gen_slot] = engine.store.recycle_gen() as u32;
        engine.ops.index_searches.add(n as u64);
        M::index_op(&ctx, engine.index.search_batch(&keys[..n], &mut cands[..n]));
        for k in 0..n {
            batch.state[idx[k]].candidates = cands[k];
        }
    }
}

/// `IN`-Insert: index upserts for every SET in `range` (requires `MM`),
/// one wavefront at a time and in order, through
/// [`KvEngine::upsert_wavefront`]: each replaces only its own key's
/// entry, and the index grows whenever it must, so a SET is never
/// refused for want of index room.
pub fn run_index_insert<M: Meter>(
    ctx: StageCtx<M>,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) {
    let mut idx = [0usize; PROBE_WAVEFRONT];
    let mut items = [(KH_NONE, 0u64); PROBE_WAVEFRONT];
    let mut outs: [Result<Option<u64>, InsertError>; PROBE_WAVEFRONT] = [Ok(None); PROBE_WAVEFRONT];
    for wf in wavefronts(range) {
        let mut n = 0usize;
        for i in wf {
            if batch.queries[i].op != QueryOp::Set {
                continue;
            }
            let Some((loc, tag)) = batch.state[i].new_loc else {
                continue; // MM failed; response already set
            };
            idx[n] = i;
            items[n] = (key_hash(&batch.queries[i].key), tagged(loc, tag));
            n += 1;
        }
        if n == 0 {
            continue;
        }
        engine.ops.index_inserts.add(n as u64);
        let queries = &batch.queries;
        let key_of = |k: usize| &queries[idx[k]].key[..];
        let usage = engine.upsert_wavefront(&items[..n], key_of, &mut outs[..n]);
        M::index_op(&ctx, usage);
        for k in 0..n {
            let st = &mut batch.state[idx[k]];
            match outs[k] {
                Ok(replaced) => {
                    // The replaced version is not freed here: a GET of
                    // this batch may still be reading it, and its slot
                    // may already hold another object (a CLOCK victim's
                    // entry stays until IN-Delete). Serving frees it, if
                    // the slot still holds that incarnation, when the
                    // batch ends (`KvEngine::run_batch`); the simulator
                    // leaves it to CLOCK, which keeps the reproduction's
                    // store full — one Insert plus one Delete per SET
                    // (paper Fig. 6).
                    batch.replaced.extend(replaced.map(untagged));
                    st.response = Some(Response::ok());
                }
                Err(_) => {
                    engine.store.free(untagged(items[k].1).0);
                    st.response = Some(Response::error());
                }
            }
        }
    }
}

/// `IN`-Delete: unlink the index entries of dead objects, and process
/// explicit DELETE queries end-to-end (search → compare → remove).
pub fn run_index_delete<M: Meter>(
    ctx: StageCtx<M>,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) {
    let mut idx = [0usize; PROBE_WAVEFRONT];
    let mut keys = [KH_NONE; PROBE_WAVEFRONT];
    let mut cands = [Candidates::default(); PROBE_WAVEFRONT];
    // Dead objects first: the lazy expiries KC queued on the engine
    // (IN-Delete has already run by the time KC observes an expired
    // hit, so they cross to the next batch), then what this batch's MM
    // displaced (paper: each memory-pressured SET yields one Insert for
    // the new object and one Delete for the evicted one).
    let unlinked = engine.unlink(&ctx, &engine.pending_expired.drain())
        + engine.unlink(&ctx, &std::mem::take(&mut batch.dead));
    if unlinked > 0 {
        engine.ops.index_deletes.add(unlinked as u64);
    }
    for wf in wavefronts(range) {
        // Explicit DELETE queries: one batched search per wavefront, then
        // the destructive compare→remove walk per candidate.
        let mut n = 0usize;
        for i in wf {
            if batch.queries[i].op != QueryOp::Delete {
                continue;
            }
            idx[n] = i;
            keys[n] = key_hash(&batch.queries[i].key);
            n += 1;
        }
        if n == 0 {
            continue;
        }
        M::index_op(&ctx, engine.index.search_batch(&keys[..n], &mut cands[..n]));
        let now = engine.clock.now_secs();
        for k in 0..n {
            let i = idx[k];
            let key = &batch.queries[i].key;
            let mut response = Response::not_found();
            for &loc in cands[k].as_slice() {
                // Key comparison before destructive ops.
                M::delete_compare(&ctx, key.len());
                let outcome = engine.store.probe(loc, key, now);
                if outcome == ProbeOutcome::Miss {
                    continue;
                }
                engine.ops.index_deletes.add(1);
                // An expired object goes too, but was already absent:
                // the DELETE misses, as a GET would.
                if engine.remove(&ctx, keys[k], loc) && matches!(outcome, ProbeOutcome::Hit(_)) {
                    response = Response::ok();
                }
                break;
            }
            batch.state[i].response = Some(response);
        }
    }
}

/// `KC`: compare candidate objects' keys for every GET in `range`,
/// resolving the object location, and bump the skew-sampling frequency
/// counter of each hit.
pub fn run_kc<M: Meter>(
    ctx: StageCtx<M>,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) {
    let epoch = engine.sample_epoch();
    let now = engine.clock.now_secs();
    // Split borrows: the queries are read, the state and arena mutated.
    let Batch {
        ref queries,
        ref mut state,
        ref mut arena,
        ref wf_gens,
        ..
    } = *batch;
    // Expired hits are rare; they collect here (first push allocates,
    // nothing on the no-TTL path) instead of widening per-query state.
    let mut expired_hits: Vec<(usize, u64)> = Vec::new();
    for wf in wavefronts(range) {
        let searched_at = wf_gens[wf.start / PROBE_WAVEFRONT];
        // Prefetch pass: pull every candidate object header of the
        // wavefront toward the cache before any key comparison runs, so
        // the compares don't serialize one miss per query.
        for i in wf.clone() {
            if queries[i].op != QueryOp::Get {
                continue;
            }
            for &loc in state[i].candidates.as_slice() {
                prefetch_read(engine.store.object_ptr(loc));
            }
        }
        for i in wf {
            if queries[i].op != QueryOp::Get {
                continue;
            }
            let key = &queries[i].key;
            let st = &mut state[i];
            let mut found = None;
            for &loc in st.candidates.as_slice() {
                M::kc_compare(&ctx, &engine.store, loc, key.len());
                match engine.store.probe(loc, key, now) {
                    ProbeOutcome::Miss => continue,
                    outcome => found = Some((loc, outcome)),
                }
                break;
            }
            match found {
                Some((loc, ProbeOutcome::Hit(tag))) => {
                    st.loc = Some((loc, tag));
                    engine.store.touch(loc, epoch);
                }
                Some((loc, _expired)) => {
                    // Past its deadline: the GET observes the miss
                    // in-band; the purge runs batched, off the response
                    // path (see below).
                    expired_hits.push((i, loc));
                    st.response = Some(Response::not_found());
                }
                None => {
                    // Every candidate missed. That is the answer unless a
                    // slot was freed or recycled since the search: a
                    // concurrent SET may have replaced the version this
                    // search found and freed it.
                    let stale = !st.candidates.is_empty()
                        && engine.store.recycle_gen_validate() as u32 != searched_at;
                    st.staged = if stale { reresolve(engine, key, arena) } else { None };
                    if st.staged.is_none() {
                        st.response = Some(Response::not_found());
                    }
                }
            }
        }
    }
    // Queue the expired hits for IN-Delete: one push for the whole
    // range, taken only when something actually expired, so the no-TTL
    // hot path pays nothing here.
    if !expired_hits.is_empty() {
        engine.ops.expired_lazy.add(expired_hits.len() as u64);
        engine
            .pending_expired
            .push(expired_hits.into_iter().map(|(i, loc)| PurgedEntry {
                loc,
                cookie: key_hash(&queries[i].key).hash,
            }));
    }
}

/// `RD`: read each resolved GET's value into the batch's staging arena.
/// The per-query state records only the arena offset range, so the
/// steady-state path allocates nothing per query; a prefetch pass warms
/// each wavefront's value bytes before the copies run.
pub fn run_rd<M: Meter>(
    ctx: StageCtx<M>,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) {
    // Split borrows: the queries are read, the state and arena mutated.
    let Batch {
        ref queries,
        ref mut state,
        ref mut arena,
        ref wf_gens,
        ..
    } = *batch;
    for wf in wavefronts(range) {
        for i in wf.clone() {
            if queries[i].op != QueryOp::Get {
                continue;
            }
            if let Some((loc, _)) = state[i].loc {
                prefetch_read(engine.store.value_ptr(loc));
            }
        }
        let mut saw_get = false;
        for i in wf.clone() {
            let Some((loc, _)) = state[i].loc else {
                continue;
            };
            if queries[i].op != QueryOp::Get {
                continue;
            }
            saw_get = true;
            let (klen, vlen) = engine.store.object_lens(loc);
            M::rd_value(
                &ctx,
                loc,
                (dido_kvstore::HEADER_SIZE + klen + vlen) as u64,
                vlen,
            );
            state[i].staged = Some(arena.stage_with(vlen, |buf| {
                engine.store.read_value(loc, buf);
            }));
        }
        // A slot can be freed (a peer's overwrite at its batch end, an
        // expiry sweep on the controller thread, allocation-pressure
        // reclaim on a peer dispatcher) and reallocated between KC's
        // validation and the copies above. One fenced generation read
        // per wavefront, against the snapshot IN-Search recorded, proves
        // the common case untorn; only a wavefront that overlapped an
        // actual free or recycle pays the per-query incarnation recheck,
        // and a GET whose object went is resolved again, never answered
        // with torn bytes or a spurious miss.
        if saw_get
            && engine.store.recycle_gen_validate() as u32 != wf_gens[wf.start / PROBE_WAVEFRONT]
        {
            for i in wf {
                let Some((loc, tag)) = state[i].loc else {
                    continue;
                };
                if queries[i].op != QueryOp::Get || engine.store.holds(loc, tag) {
                    continue;
                }
                state[i].staged = reresolve(engine, &queries[i].key, arena);
                if state[i].staged.is_none() {
                    state[i].response = Some(Response::not_found());
                }
            }
        }
    }
}

/// Searches a GET makes in [`reresolve`] before it answers a miss.
const RESOLVE_ATTEMPTS: usize = 8;

/// Resolve a GET from scratch — search, probe, copy, validate — after
/// the object its batch found was freed or recycled under it: a
/// concurrent SET may have replaced that version, and the GET must then
/// read the new one, not miss (DESIGN.md §17). Stages the value and
/// returns its range; `None` is a miss. Gives up after
/// [`RESOLVE_ATTEMPTS`] searches that each lost their object again.
/// Unmetered: the simulator runs a batch with nothing freed or recycled
/// between its search and its copies, so it never comes here.
fn reresolve(engine: &KvEngine, key: &[u8], arena: &mut StagingArena) -> Option<Range<u32>> {
    let kh = key_hash(key);
    let now = engine.clock.now_secs();
    for _ in 0..RESOLVE_ATTEMPTS {
        // Acquire: the load that saw the object gone happens before this
        // search, so the search sees the upsert that preceded the free.
        fence(Ordering::Acquire);
        let gen = engine.store.recycle_gen();
        let (cands, _) = engine.index.search(kh);
        let hit = cands.as_slice().iter().find_map(|&loc| match engine.store.probe(loc, key, now) {
            ProbeOutcome::Hit(tag) => Some((loc, tag)),
            _ => None,
        });
        match hit {
            Some((loc, tag)) => {
                let (_, vlen) = engine.store.object_lens(loc);
                let staged = arena.stage_with(vlen, |buf| {
                    engine.store.read_value(loc, buf);
                });
                if engine.store.holds(loc, tag) {
                    engine.store.touch(loc, engine.sample_epoch());
                    return Some(staged);
                }
            }
            // Nothing freed or recycled since this search: a real miss.
            None if engine.store.recycle_gen_validate() == gen => return None,
            None => {}
        }
    }
    None
}

/// `WR`: construct each query's response. Freezes the staging arena
/// once, then every GET's value is a zero-copy [`bytes::Bytes`] slice of
/// it.
pub fn run_wr<M: Meter>(ctx: StageCtx<M>, batch: &mut Batch, range: Range<usize>) {
    let Batch {
        ref queries,
        ref mut state,
        ref mut arena,
        ..
    } = *batch;
    for i in range {
        if state[i].response.is_some() {
            continue; // SET/DELETE/miss already answered
        }
        let staged = state[i].staged.take();
        M::wr_response(&ctx, staged.as_ref().map(ExactSizeIterator::len));
        state[i].response = Some(match (queries[i].op, staged) {
            (QueryOp::Get, Some(staged)) => Response::hit(arena.frozen_slice(&staged)),
            (QueryOp::Get, None) => Response::not_found(),
            // SETs/DELETEs normally answered by IN; answer leftovers
            // defensively so WR is total.
            (QueryOp::Set | QueryOp::Delete, _) => Response::error(),
        });
    }
}

/// Dispatch one index-operation task by kind.
pub fn run_index_op<M: Meter>(
    op: IndexOpKind,
    ctx: StageCtx<M>,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) {
    match op {
        IndexOpKind::Search => run_index_search(ctx, engine, batch, range),
        IndexOpKind::Insert => run_index_insert(ctx, engine, batch, range),
        IndexOpKind::Delete => run_index_delete(ctx, engine, batch, range),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use dido_model::{PipelineConfig, Query, ResponseStatus};

    fn engine() -> KvEngine {
        KvEngine::new(EngineConfig::new(1 << 20, 64 * 1024, 16 * 1024))
    }

    fn run_full_pipeline(engine: &KvEngine, queries: Vec<Query>) -> Vec<Response> {
        engine.run_batch(queries, PipelineConfig::mega_kv()).0
    }

    #[test]
    fn set_then_get_round_trips_through_tasks() {
        let e = engine();
        let r = run_full_pipeline(&e, vec![Query::set("alpha", "A-value")]);
        assert_eq!(r[0].status, ResponseStatus::Ok);
        let r = run_full_pipeline(&e, vec![Query::get("alpha")]);
        assert_eq!(r[0].status, ResponseStatus::Ok);
        assert_eq!(&r[0].value[..], b"A-value");
    }

    #[test]
    fn get_miss_and_delete_paths() {
        let e = engine();
        let r = run_full_pipeline(&e, vec![Query::get("ghost"), Query::delete("ghost")]);
        assert_eq!(r[0].status, ResponseStatus::NotFound);
        assert_eq!(r[1].status, ResponseStatus::NotFound);
        run_full_pipeline(&e, vec![Query::set("real", "x")]);
        let r = run_full_pipeline(&e, vec![Query::delete("real")]);
        assert_eq!(r[0].status, ResponseStatus::Ok);
        let r = run_full_pipeline(&e, vec![Query::get("real")]);
        assert_eq!(r[0].status, ResponseStatus::NotFound);
    }

    #[test]
    fn mixed_batch_preserves_query_order() {
        let e = engine();
        run_full_pipeline(&e, vec![Query::set("k1", "v1"), Query::set("k2", "v2")]);
        let r = run_full_pipeline(
            &e,
            vec![
                Query::get("k2"),
                Query::set("k3", "v3"),
                Query::get("k1"),
                Query::get("nope"),
            ],
        );
        assert_eq!(&r[0].value[..], b"v2");
        assert_eq!(r[1].status, ResponseStatus::Ok);
        assert_eq!(&r[2].value[..], b"v1");
        assert_eq!(r[3].status, ResponseStatus::NotFound);
    }

    #[test]
    fn sets_generate_eviction_deletes_when_full() {
        // Tiny store: fill it, then keep setting fresh keys.
        let e = KvEngine::new(EngineConfig::new(4096, 1 << 30, 16 * 1024));
        let all = StageCtx::new(Processor::Cpu, TaskSet::from_tasks(&TaskKind::ALL), 64);
        let mut evictions = 0;
        for i in 0..200 {
            let mut batch = Batch::new(
                vec![Query::set(format!("grow-{i}"), vec![b'x'; 40])],
                PipelineConfig::mega_kv(),
            );
            run_mm(all, &e, &mut batch, 0..1);
            evictions += batch.dead.len();
            run_index_insert(all, &e, &mut batch, 0..1);
            run_index_delete(all, &e, &mut batch, 0..1);
        }
        assert!(
            evictions > 100,
            "a full store must evict on nearly every SET, saw {evictions}"
        );
        // Index must not leak entries for evicted objects.
        assert!(e.index.len() <= e.store.live_objects() + 8);
    }

    #[test]
    fn wavefront_path_expires_in_band_and_purges_next_batch() {
        use dido_model::MockClock;
        use std::sync::Arc;
        let clock = Arc::new(MockClock::at(1_000));
        let e = KvEngine::with_clock(
            EngineConfig::new(1 << 20, 64 * 1024, 16 * 1024),
            clock.clone(),
        );
        let r = run_full_pipeline(&e, vec![Query::set_with("ttl-wf", "wave", 10, 0)]);
        assert_eq!(r[0].status, ResponseStatus::Ok);
        let r = run_full_pipeline(&e, vec![Query::get("ttl-wf")]);
        assert_eq!(&r[0].value[..], b"wave");
        clock.advance(10);
        // The vectorized KC observes the deadline in-band: a miss now.
        let r = run_full_pipeline(&e, vec![Query::get("ttl-wf")]);
        assert_eq!(r[0].status, ResponseStatus::NotFound);
        assert_eq!(e.op_counts().expired_lazy, 1);
        // The purge was deferred (IN-Delete runs before KC within a
        // batch); the next batch's IN-Delete drains entry + slot.
        run_full_pipeline(&e, vec![Query::get("unrelated")]);
        assert!(!e.has_key(b"ttl-wf"));
        assert_eq!(e.store.live_objects(), 0);
        assert!(e.verify_integrity().is_clean());
    }

    #[test]
    fn a_delete_of_an_expired_key_misses_and_purges_it() {
        use dido_model::MockClock;
        use std::sync::Arc;
        let clock = Arc::new(MockClock::at(1_000));
        let e = KvEngine::with_clock(
            EngineConfig::new(1 << 20, 64 * 1024, 16 * 1024),
            clock.clone(),
        );
        run_full_pipeline(&e, vec![Query::set_with("ttl-del", "v", 10, 0)]);
        clock.advance(10);
        // Whether or not a GET or a sweep purged it first, an expired
        // key is absent: the DELETE misses, and takes entry and slot.
        let r = run_full_pipeline(&e, vec![Query::delete("ttl-del")]);
        assert_eq!(r[0].status, ResponseStatus::NotFound);
        assert!(!e.has_key(b"ttl-del"));
        assert_eq!(e.store.live_objects(), 0);
    }
}
