//! The eight fine-grained tasks (paper §III-A), implemented as
//! independent functions over a batch range.
//!
//! Each task does its work *for real* against the [`KvEngine`] and
//! returns the [`ResourceUsage`] it incurred; the executors convert
//! usage into virtual time per stage. Tasks take a [`StageCtx`]
//! describing where they run, which drives the affinity and hot-set
//! accounting (paper §III-B-1, §IV-B).

use crate::batch::Batch;
use crate::engine::KvEngine;
use bytes::Bytes;
use dido_hashtable::{key_hash, prefetch_read, Candidates, InsertError, KeyHash, PROBE_WAVEFRONT};
use dido_kvstore::{ProbeOutcome, PurgedEntry};
use dido_model::costs::{self, lines_for};
use dido_model::{
    ttl_to_deadline, IndexOpKind, Processor, Query, QueryOp, ResourceUsage, Response, TaskKind,
    TaskSet,
};
use dido_net::{encode_responses, frame_query_count, parse_frame, FrameBuilder};
use std::ops::Range;

/// Placeholder for initializing wavefront gather buffers (never probed:
/// only the filled prefix of a gather array is handed to the batch ops).
const KH_NONE: KeyHash = KeyHash { hash: 0, sig: 1 };

/// Iterate `range` in wavefront-sized sub-ranges. The wavefront width
/// equals the work-stealing tag granularity, so a stolen sub-batch
/// (always a whole tag) runs through exactly the same vectorized path
/// as owner-executed work.
fn wavefronts(range: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let Range { start, end } = range;
    (start..end)
        .step_by(PROBE_WAVEFRONT)
        .map(move |s| s..(s + PROBE_WAVEFRONT).min(end))
}

/// Where a task invocation runs and which tasks share its stage.
#[derive(Debug, Clone, Copy)]
pub struct StageCtx {
    /// Processor executing the stage.
    pub processor: Processor,
    /// All tasks co-located in this stage (affinity checks).
    pub stage_tasks: TaskSet,
    /// Cache line size of the executing processor.
    pub cache_line: u64,
}

impl StageCtx {
    /// Context for a stage on `processor` running `stage_tasks`.
    #[must_use]
    pub fn new(processor: Processor, stage_tasks: TaskSet, cache_line: u64) -> StageCtx {
        StageCtx {
            processor,
            stage_tasks,
            cache_line,
        }
    }

    fn has(&self, t: TaskKind) -> bool {
        self.stage_tasks.contains(t)
    }
}

/// `RV`: drain up to `max_frames` frames from the NIC RX ring.
pub fn run_rv(engine: &KvEngine, max_frames: usize) -> (Vec<Bytes>, ResourceUsage) {
    let frames = engine.nic.rx.pop_up_to(max_frames);
    let n = frames.len() as u64;
    let usage = ResourceUsage::new(
        n * costs::RV_INSNS_PER_FRAME,
        0,
        n * costs::RV_CACHE_PER_FRAME,
    )
    .with_bytes(frames.iter().map(|f| f.len() as u64).sum());
    (frames, usage)
}

/// `PP`: parse frames into queries. Malformed frames are dropped whole
/// (like a UDP service discarding garbage datagrams).
pub fn run_pp(frames: &[Bytes]) -> (Vec<Query>, ResourceUsage) {
    // The frame header already announces the record count, so the output
    // vector is sized once up front instead of growing per append.
    let mut queries = Vec::with_capacity(frames.iter().map(frame_query_count).sum());
    for f in frames {
        if let Ok(mut qs) = parse_frame(f) {
            queries.append(&mut qs);
        }
    }
    let n = queries.len() as u64;
    let usage = ResourceUsage::new(
        n * costs::PP_INSNS_PER_QUERY,
        0,
        n * costs::PP_CACHE_PER_QUERY,
    );
    (queries, usage)
}

/// `MM`: allocate (and if necessary evict) for every SET in `range`.
pub fn run_mm(ctx: StageCtx, engine: &KvEngine, batch: &mut Batch, range: Range<usize>) -> ResourceUsage {
    let mut usage = ResourceUsage::ZERO;
    let now = engine.clock.now_secs();
    for i in range {
        if batch.queries[i].op != QueryOp::Set {
            continue;
        }
        let q = &batch.queries[i];
        usage += ResourceUsage::new(costs::MM_INSNS_PER_ALLOC, costs::MM_MEM_PER_ALLOC, 0);
        engine.ops.mm_allocs.add(1);
        let kh = key_hash(&q.key);
        let deadline = ttl_to_deadline(q.ttl, now);
        match engine
            .store
            .allocate_with(&q.key, &q.value, deadline, q.flags, now, kh.hash)
        {
            Ok(out) => {
                if out.evicted.is_some() {
                    usage +=
                        ResourceUsage::new(costs::MM_INSNS_PER_EVICT, costs::MM_MEM_PER_EVICT, 0);
                }
                // Allocation pressure may have bulk-reclaimed expired
                // segments; price each freed slot like an eviction's
                // bookkeeping (the index unlink runs in IN-Delete).
                let n_rec = out.reclaimed.len() as u64;
                if n_rec > 0 {
                    usage += ResourceUsage::new(
                        n_rec * costs::MM_INSNS_PER_EVICT,
                        n_rec * costs::MM_MEM_PER_EVICT,
                        0,
                    );
                }
                // Writing key+value into the fresh object: sequential
                // stores, priced as cache-line writes.
                let obj_lines = lines_for(q.key.len() + q.value.len(), ctx.cache_line);
                usage += ResourceUsage::new(obj_lines * costs::INSNS_PER_LINE, 0, obj_lines)
                    .with_bytes((q.key.len() + q.value.len()) as u64);
                if let Some(ev) = &out.evicted {
                    engine.cache_invalidate(ev.loc);
                }
                // Segment-reclaim purges ride the engine's deferred
                // queue (drained by the next IN-Delete pass) instead of
                // per-query state, keeping QueryState lean for the
                // batch-of-thousands case.
                if !out.reclaimed.is_empty() {
                    engine.pending_expired.push(out.reclaimed);
                }
                let st = &mut batch.state[i];
                st.new_loc = Some(out.loc);
                st.evicted = out.evicted;
            }
            Err(_) => {
                batch.state[i].response = Some(Response::error());
            }
        }
    }
    usage
}

/// `IN`-Search: index lookups for every GET in `range`, one prefetched
/// probe wavefront at a time ([`dido_hashtable::IndexTable::search_batch`]).
/// GETs are gathered into stack buffers, probed together, and the
/// candidates scattered back — no heap traffic, identical
/// [`ResourceUsage`] to the scalar path.
pub fn run_index_search(
    _ctx: StageCtx,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) -> ResourceUsage {
    let mut usage = ResourceUsage::ZERO;
    let mut idx = [0usize; PROBE_WAVEFRONT];
    let mut keys = [KH_NONE; PROBE_WAVEFRONT];
    let mut cands = [Candidates::default(); PROBE_WAVEFRONT];
    for wf in wavefronts(range) {
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
        engine.ops.index_searches.add(n as u64);
        usage += engine.index.search_batch(&keys[..n], &mut cands[..n]);
        for k in 0..n {
            batch.state[idx[k]].candidates = cands[k];
        }
    }
    usage
}

/// `IN`-Insert: index upserts for every SET in `range` (requires `MM`).
/// A replaced old version is freed (it is garbage once unreachable).
pub fn run_index_insert(
    _ctx: StageCtx,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) -> ResourceUsage {
    let mut usage = ResourceUsage::ZERO;
    let mut idx = [0usize; PROBE_WAVEFRONT];
    let mut items = [(KH_NONE, 0u64); PROBE_WAVEFRONT];
    let mut outs: [Result<Option<u64>, InsertError>; PROBE_WAVEFRONT] =
        [Ok(None); PROBE_WAVEFRONT];
    for wf in wavefronts(range) {
        let mut n = 0usize;
        for i in wf {
            if batch.queries[i].op != QueryOp::Set {
                continue;
            }
            let Some(new_loc) = batch.state[i].new_loc else {
                continue; // MM failed; response already set
            };
            idx[n] = i;
            items[n] = (key_hash(&batch.queries[i].key), new_loc);
            n += 1;
        }
        if n == 0 {
            continue;
        }
        engine.ops.index_inserts.add(n as u64);
        usage += engine.index.upsert_batch(&items[..n], &mut outs[..n]);
        for k in 0..n {
            match outs[k] {
                Ok(_replaced) => {
                    // A replaced old version is NOT freed eagerly: like
                    // memcached/Mega-KV, it lingers as unreachable garbage
                    // until the CLOCK sweep evicts it. That keeps the store
                    // full, so every SET's allocation evicts — producing the
                    // paper's one-Insert-plus-one-Delete per SET (Fig. 6).
                    batch.state[idx[k]].response = Some(Response::ok());
                }
                Err(_) => {
                    engine.store.free(items[k].1);
                    batch.state[idx[k]].response = Some(Response::error());
                }
            }
        }
    }
    usage
}

/// `IN`-Delete: remove index entries of objects evicted by `MM`, and
/// process explicit DELETE queries end-to-end (search → compare →
/// delete → free).
pub fn run_index_delete(
    ctx: StageCtx,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) -> ResourceUsage {
    let mut usage = ResourceUsage::ZERO;
    let mut idx = [0usize; PROBE_WAVEFRONT];
    let mut keys = [KH_NONE; PROBE_WAVEFRONT];
    let mut items = [(KH_NONE, 0u64); PROBE_WAVEFRONT];
    let mut removed = [false; PROBE_WAVEFRONT];
    let mut cands = [Candidates::default(); PROBE_WAVEFRONT];
    // Lazy-expiry purges deferred by KC (IN-Delete has already run by
    // the time KC observes an expired hit, so requests queue on the
    // engine and drain here on the next batch). The cookie rebuilds the
    // exact index entry; `entry_refreshed` spares entries a recycled
    // slot made fresh again (same key re-set into the same loc), and
    // `expire_if_due` revalidates the deadline before freeing.
    let deferred = engine.pending_expired.drain();
    if !deferred.is_empty() {
        let now = engine.clock.now_secs();
        for chunk in deferred.chunks(PROBE_WAVEFRONT) {
            let mut n = 0usize;
            for p in chunk {
                if !engine.entry_refreshed(p.loc, p.cookie, now) {
                    items[n] = (KeyHash::from_hash(p.cookie), p.loc);
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            engine.ops.index_deletes.add(n as u64);
            usage += engine.index.delete_batch(&items[..n], &mut removed[..n]);
            for &(_, loc) in &items[..n] {
                // Free-and-invalidate for KC-deferred entries; bulk
                // segment reclaims arrive here already freed and only
                // need the cache-filter invalidation.
                if engine.store.expire_if_due(loc, now) || !engine.store.slot_live(loc) {
                    engine.cache_invalidate(loc);
                }
            }
        }
    }
    for wf in wavefronts(range) {
        // Eviction-generated deletes (paper: each memory-pressured SET
        // yields one Insert for the new object and one Delete for the
        // evicted object), batched per wavefront.
        let mut n_ev = 0usize;
        for i in wf.clone() {
            if let Some(ev) = batch.state[i].evicted.take() {
                // MM freed the slot; if an allocation recycled it for
                // the *same key* already, the entry is fresh and must
                // survive (recycling to another key leaves this entry
                // dangling — deleting it is still right).
                let now = engine.clock.now_secs();
                if engine.store.key_matches(ev.loc, &ev.key)
                    && !engine.store.is_expired(ev.loc, now)
                {
                    continue;
                }
                items[n_ev] = (key_hash(&ev.key), ev.loc);
                n_ev += 1;
            }
        }
        if n_ev > 0 {
            engine.ops.index_deletes.add(n_ev as u64);
            usage += engine.index.delete_batch(&items[..n_ev], &mut removed[..n_ev]);
        }
        // Explicit DELETE queries: one batched search per wavefront, then
        // the destructive compare→delete→free walk per candidate.
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
        usage += engine.index.search_batch(&keys[..n], &mut cands[..n]);
        for k in 0..n {
            let i = idx[k];
            let key = &batch.queries[i].key;
            let mut response = Response::not_found();
            for &loc in cands[k].as_slice() {
                // Key comparison before destructive ops.
                let key_lines = lines_for(key.len(), ctx.cache_line);
                usage += ResourceUsage::new(
                    costs::KC_INSNS_PER_CANDIDATE + key_lines * costs::INSNS_PER_LINE,
                    1,
                    key_lines.saturating_sub(1),
                );
                if engine.store.key_matches(loc, key) {
                    engine.ops.index_deletes.add(1);
                    let (deleted, du) = engine.index.delete(keys[k], loc);
                    usage += du;
                    if deleted {
                        engine.store.free(loc);
                        engine.cache_invalidate(loc);
                        response = Response::ok();
                    }
                    break;
                }
            }
            batch.state[i].response = Some(response);
        }
    }
    usage
}

/// `KC`: compare candidate objects' keys for every GET in `range`,
/// resolving the object location. Also records the access in the
/// executing processor's hot-set filter and bumps the skew-sampling
/// frequency counter.
pub fn run_kc(
    ctx: StageCtx,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) -> ResourceUsage {
    let mut usage = ResourceUsage::ZERO;
    let epoch = engine.sample_epoch();
    let now = engine.clock.now_secs();
    // Snapshot the recycle generation before any key validation: RD
    // compares against it after copying each value (see `run_rd`).
    let gen = engine.store.recycle_gen() as u32;
    // Expired hits are rare; they collect here (first push allocates,
    // nothing on the no-TTL path) instead of widening per-query state.
    let mut expired_hits: Vec<(usize, u64)> = Vec::new();
    for wf in wavefronts(range) {
        // Record the snapshot for RD's post-copy recheck (one slot per
        // wavefront — steal-tag granularity — instead of per query).
        batch.wf_gens[wf.start / PROBE_WAVEFRONT] = gen;
        // Prefetch pass: pull every candidate object header of the
        // wavefront toward the cache before any key comparison runs, so
        // the compares don't serialize one miss per query.
        for i in wf.clone() {
            if batch.queries[i].op != QueryOp::Get {
                continue;
            }
            for &loc in batch.state[i].candidates.as_slice() {
                prefetch_read(engine.store.object_ptr(loc));
            }
        }
        for i in wf {
            if batch.queries[i].op != QueryOp::Get {
                continue;
            }
            let key = &batch.queries[i].key;
            let key_lines = lines_for(key.len(), ctx.cache_line);
            let mut resolved = None;
            let mut hot = false;
            for &loc in batch.state[i].candidates.as_slice() {
                let (klen, vlen) = engine.store.object_lens(loc);
                let obj_bytes = (dido_kvstore::HEADER_SIZE + klen + vlen) as u64;
                let cache_hit = engine.cache_access(ctx.processor, loc, obj_bytes);
                // Header+key fetch: one random access on a cold object, all
                // cache lines on a hot one.
                usage += if cache_hit {
                    ResourceUsage::new(
                        costs::KC_INSNS_PER_CANDIDATE + key_lines * costs::INSNS_PER_LINE,
                        0,
                        key_lines,
                    )
                } else {
                    ResourceUsage::new(
                        costs::KC_INSNS_PER_CANDIDATE + key_lines * costs::INSNS_PER_LINE,
                        1,
                        key_lines.saturating_sub(1),
                    )
                };
                match engine.store.probe(loc, key, now) {
                    ProbeOutcome::Miss => continue,
                    ProbeOutcome::Expired => {
                        // Past its deadline: the GET observes the miss
                        // in-band; the purge runs batched, off the
                        // response path (see below).
                        expired_hits.push((i, loc));
                    }
                    ProbeOutcome::Hit => {
                        resolved = Some(loc);
                        hot = cache_hit;
                        engine.store.touch(loc, epoch);
                    }
                }
                break;
            }
            let st = &mut batch.state[i];
            st.loc = resolved;
            st.hot = hot;
            if resolved.is_none() {
                st.response = Some(Response::not_found());
            }
        }
    }
    // Queue the expired hits for IN-Delete: one push for the whole
    // sub-batch, taken only when something actually expired, so the
    // no-TTL hot path pays nothing here.
    if !expired_hits.is_empty() {
        engine.ops.expired_lazy.add(expired_hits.len() as u64);
        engine
            .pending_expired
            .push(expired_hits.into_iter().map(|(i, loc)| PurgedEntry {
                loc,
                cookie: key_hash(&batch.queries[i].key).hash,
            }));
    }
    usage
}

/// `RD`: read each resolved GET's value into the batch's staging arena.
/// The per-query state records only the arena offset range, so the
/// steady-state path allocates nothing per query; a prefetch pass warms
/// each wavefront's value bytes before the copies run.
pub fn run_rd(
    ctx: StageCtx,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) -> ResourceUsage {
    let mut usage = ResourceUsage::ZERO;
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
            if let Some(loc) = state[i].loc {
                prefetch_read(engine.store.value_ptr(loc));
            }
        }
        let mut saw_get = false;
        for i in wf.clone() {
            let Some(loc) = state[i].loc else {
                continue;
            };
            if queries[i].op != QueryOp::Get {
                continue;
            }
            saw_get = true;
            let (klen, vlen) = engine.store.object_lens(loc);
            let val_lines = lines_for(vlen, ctx.cache_line);
            // Affinity (paper §III-B-1): KC fetched the object into this
            // processor's cache — but only while the batch's working set
            // actually fits. The capacity-bounded filter decides
            // operationally (KC on another processor, or a working set
            // beyond the cache, both come back cold).
            let obj_bytes = (dido_kvstore::HEADER_SIZE + klen + vlen) as u64;
            let warm = engine.cache_access(ctx.processor, loc, obj_bytes);
            usage += if warm {
                ResourceUsage::new(val_lines * costs::INSNS_PER_LINE, 0, val_lines)
            } else {
                ResourceUsage::new(val_lines * costs::INSNS_PER_LINE, 1, val_lines - 1)
            }
            .with_bytes(vlen as u64);
            // Stage the value: sequential buffer writes (always cached).
            state[i].staged = Some(arena.stage_with(vlen, |buf| {
                engine.store.read_value(loc, buf);
            }));
            usage += ResourceUsage::new(val_lines * costs::INSNS_PER_LINE, 0, val_lines);
        }
        // A slot can be freed (expiry sweep on the controller thread,
        // allocation-pressure reclaim on a peer dispatcher) and
        // reallocated between KC's validation and the copies above. One
        // fenced generation read per wavefront, against the snapshot KC
        // recorded before validating, proves the common case untorn;
        // only a wavefront that overlapped an actual slot recycle pays
        // the per-query key recompare, which turns a recycled slot's
        // bytes into a miss, never a torn value.
        if saw_get
            && engine.store.recycle_gen_validate() as u32 != wf_gens[wf.start / PROBE_WAVEFRONT]
        {
            for i in wf {
                let Some(loc) = state[i].loc else {
                    continue;
                };
                if queries[i].op != QueryOp::Get {
                    continue;
                }
                if !engine.store.key_matches(loc, &queries[i].key) {
                    state[i].staged = None;
                    state[i].response = Some(Response::not_found());
                }
            }
        }
    }
    usage
}

/// `WR`: construct each query's response. Freezes the staging arena
/// once, then every GET's value is a zero-copy [`Bytes`] slice of it
/// (sequential, cache-priced); when `RD` ran in a different stage this
/// is the extra pass the paper describes ("the task WR on the other
/// stage needs to read the key-value objects in the buffer to construct
/// responses").
pub fn run_wr(ctx: StageCtx, batch: &mut Batch, range: Range<usize>) -> ResourceUsage {
    let mut usage = ResourceUsage::ZERO;
    let rd_same_stage = ctx.has(TaskKind::Rd);
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
        usage += ResourceUsage::new(costs::WR_INSNS_PER_QUERY, 0, 1);
        match queries[i].op {
            QueryOp::Get => {
                let value = match state[i].staged.take() {
                    Some(staged) => {
                        let val_lines = lines_for(staged.len(), ctx.cache_line);
                        // Reading the staged bytes: free ride if RD just
                        // wrote them here; an extra sequential pass
                        // otherwise.
                        if !rd_same_stage {
                            usage += ResourceUsage::new(
                                val_lines * costs::INSNS_PER_LINE,
                                0,
                                val_lines,
                            );
                        }
                        arena.frozen_slice(&staged)
                    }
                    None => {
                        state[i].response = Some(Response::not_found());
                        continue;
                    }
                };
                state[i].response = Some(Response::hit(value));
            }
            // SETs/DELETEs normally answered by IN; answer leftovers
            // defensively so WR is total.
            QueryOp::Set | QueryOp::Delete => {
                state[i].response = Some(Response::error());
            }
        }
    }
    usage
}

/// `SD`: encode all responses into frames on the NIC TX ring. Runs over
/// the whole batch (responses ship together).
pub fn run_sd(engine: &KvEngine, batch: &mut Batch) -> ResourceUsage {
    let responses = batch.take_responses();
    run_sd_responses(engine, &responses)
}

/// `SD` over already-collected responses (used by executors that keep
/// the responses for the caller).
pub fn run_sd_responses(engine: &KvEngine, responses: &[Response]) -> ResourceUsage {
    let mut usage = ResourceUsage::ZERO;
    let mut start = 0usize;
    // Pack responses into MTU-sized frames.
    while start < responses.len() {
        let mut bytes = dido_net::FRAME_HEADER;
        let mut end = start;
        while end < responses.len() {
            let sz = 5 + responses[end].value.len();
            if bytes + sz > dido_net::DEFAULT_FRAME_CAPACITY && end > start {
                break;
            }
            bytes += sz;
            end += 1;
        }
        let frame = encode_responses(&responses[start..end]);
        usage += ResourceUsage::new(costs::SD_INSNS_PER_FRAME, 0, costs::SD_CACHE_PER_FRAME)
            .with_bytes(frame.len() as u64);
        engine.nic.tx.push(frame);
        start = end;
    }
    usage
}

/// Helper shared by executors: build MTU frames from raw queries and
/// enqueue them on the RX ring (the "client" side).
pub fn inject_queries(engine: &KvEngine, queries: &[Query]) -> usize {
    let mut pushed = 0;
    let mut builder = FrameBuilder::new();
    for q in queries {
        if !builder.push(q) {
            if engine.nic.rx.push(builder.finish()) {
                pushed += 1;
            }
            builder = FrameBuilder::new();
            let ok = builder.push(q);
            debug_assert!(ok);
        }
    }
    if !builder.is_empty() && engine.nic.rx.push(builder.finish()) {
        pushed += 1;
    }
    pushed
}

/// Dispatch one index-operation task by kind.
pub fn run_index_op(
    op: IndexOpKind,
    ctx: StageCtx,
    engine: &KvEngine,
    batch: &mut Batch,
    range: Range<usize>,
) -> ResourceUsage {
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
    use dido_model::{PipelineConfig, ResponseStatus};

    fn engine() -> KvEngine {
        KvEngine::new(EngineConfig::new(1 << 20, 64 * 1024, 16 * 1024))
    }

    fn cpu_ctx(tasks: &[TaskKind]) -> StageCtx {
        StageCtx::new(Processor::Cpu, TaskSet::from_tasks(tasks), 64)
    }

    fn run_full_pipeline(engine: &KvEngine, queries: Vec<Query>) -> Vec<Response> {
        let mut batch = Batch::new(queries, PipelineConfig::mega_kv());
        let n = batch.len();
        let all = cpu_ctx(&TaskKind::ALL);
        run_mm(all, engine, &mut batch, 0..n);
        run_index_insert(all, engine, &mut batch, 0..n);
        run_index_delete(all, engine, &mut batch, 0..n);
        run_index_search(all, engine, &mut batch, 0..n);
        run_kc(all, engine, &mut batch, 0..n);
        run_rd(all, engine, &mut batch, 0..n);
        run_wr(all, &mut batch, 0..n);
        batch
            .state
            .iter_mut()
            .map(|s| s.response.take().unwrap())
            .collect()
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
    fn rd_affinity_lowers_memory_accesses() {
        // Affinity is operational: KC's fetch leaves the object in the
        // *comparing processor's* cache filter, so an RD on the same
        // processor rides the warm cache while an RD on the other
        // processor pays a random memory access.
        let run = |kc_proc: Processor| {
            let e = engine();
            run_full_pipeline(&e, vec![Query::set("key-x", vec![b'v'; 200])]);
            let mut batch = Batch::new(vec![Query::get("key-x")], PipelineConfig::mega_kv());
            run_index_search(cpu_ctx(&[TaskKind::In]), &e, &mut batch, 0..1);
            let kc_ctx = StageCtx::new(kc_proc, TaskSet::from_tasks(&[TaskKind::Kc]), 64);
            run_kc(kc_ctx, &e, &mut batch, 0..1);
            run_rd(cpu_ctx(&[TaskKind::Kc, TaskKind::Rd]), &e, &mut batch, 0..1)
        };
        let cold = run(Processor::Gpu); // KC warmed the *GPU* cache only
        let warm = run(Processor::Cpu); // KC warmed this CPU cache
        assert!(warm.mem_accesses < cold.mem_accesses);
        assert_eq!(
            warm.total_accesses(),
            cold.total_accesses(),
            "affinity converts memory accesses to cache accesses"
        );
    }

    #[test]
    fn rd_warmth_is_capacity_bounded() {
        // A working set far beyond the cache must come back cold in RD
        // even with KC in the same stage (the filter ages entries out).
        let e = KvEngine::new(EngineConfig::new(4 << 20, 4 * 1024, 1024));
        let n = 512usize;
        let queries: Vec<Query> = (0..n)
            .map(|i| Query::set(format!("big-{i:04}"), vec![b'v'; 160]))
            .collect();
        run_full_pipeline(&e, queries);
        let gets: Vec<Query> = (0..n).map(|i| Query::get(format!("big-{i:04}"))).collect();
        let mut batch = Batch::new(gets, PipelineConfig::mega_kv());
        let ctx = cpu_ctx(&[TaskKind::In, TaskKind::Kc, TaskKind::Rd]);
        run_index_search(ctx, &e, &mut batch, 0..n);
        run_kc(ctx, &e, &mut batch, 0..n);
        let rd = run_rd(ctx, &e, &mut batch, 0..n);
        // 512 × ~200B objects = ~100 KB working set vs 4 KB cache: the
        // vast majority of RDs must pay a memory access.
        assert!(
            rd.mem_accesses > (n as u64) * 8 / 10,
            "only {} of {} RDs were cold",
            rd.mem_accesses,
            n
        );
    }

    #[test]
    fn wr_in_separate_stage_costs_an_extra_pass() {
        let e = engine();
        run_full_pipeline(&e, vec![Query::set("key-y", vec![b'v'; 512])]);
        let mk_batch = || {
            let mut b = Batch::new(vec![Query::get("key-y")], PipelineConfig::mega_kv());
            run_index_search(cpu_ctx(&[TaskKind::In]), &e, &mut b, 0..1);
            run_kc(cpu_ctx(&[TaskKind::Kc, TaskKind::Rd]), &e, &mut b, 0..1);
            run_rd(cpu_ctx(&[TaskKind::Kc, TaskKind::Rd]), &e, &mut b, 0..1);
            b
        };
        let mut same = mk_batch();
        let u_same = run_wr(cpu_ctx(&[TaskKind::Rd, TaskKind::Wr]), &mut same, 0..1);
        let mut split = mk_batch();
        let u_split = run_wr(cpu_ctx(&[TaskKind::Wr]), &mut split, 0..1);
        assert!(u_split.cache_accesses > u_same.cache_accesses);
        assert_eq!(same.state[0].response, split.state[0].response);
    }

    #[test]
    fn sets_generate_eviction_deletes_when_full() {
        // Tiny store: fill it, then keep setting fresh keys.
        let e = KvEngine::new(EngineConfig::new(4096, 1 << 30, 16 * 1024));
        let mut evictions = 0;
        for i in 0..200 {
            let mut batch = Batch::new(
                vec![Query::set(format!("grow-{i}"), vec![b'x'; 40])],
                PipelineConfig::mega_kv(),
            );
            let all = cpu_ctx(&TaskKind::ALL);
            run_mm(all, &e, &mut batch, 0..1);
            if batch.state[0].evicted.is_some() {
                evictions += 1;
            }
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
    fn rv_pp_sd_move_frames_through_the_nic() {
        let e = engine();
        let queries = vec![Query::set("net-key", "net-val"), Query::get("net-key")];
        let frames_in = inject_queries(&e, &queries);
        assert!(frames_in >= 1);
        let (frames, rv_usage) = run_rv(&e, 64);
        assert_eq!(frames.len(), frames_in);
        assert!(rv_usage.instructions > 0);
        let (parsed, pp_usage) = run_pp(&frames);
        assert_eq!(parsed, queries);
        assert!(pp_usage.instructions > 0);
        // Push parsed queries through and send.
        let mut responses = run_full_pipeline(&e, parsed);
        let mut batch = Batch::new(vec![Query::get("net-key")], PipelineConfig::mega_kv());
        // Move the response into the batch rather than cloning it.
        batch.state[0].response = Some(responses.remove(1));
        let sd_usage = run_sd(&e, &mut batch);
        assert!(sd_usage.bytes > 0);
        let out = e.nic.tx.pop().expect("a response frame must be sent");
        let rs = dido_net::parse_responses(&out).unwrap();
        assert_eq!(&rs[0].value[..], b"net-val");
    }

    #[test]
    fn malformed_frames_are_dropped_not_fatal() {
        let (qs, _) = run_pp(&[Bytes::from_static(b"\x01")]);
        assert!(qs.is_empty());
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
    fn hot_keys_become_cache_hits_in_kc() {
        let e = engine();
        run_full_pipeline(&e, vec![Query::set("hot", vec![b'h'; 64])]);
        let probe = |e: &KvEngine| {
            let mut b = Batch::new(vec![Query::get("hot")], PipelineConfig::mega_kv());
            run_index_search(cpu_ctx(&[TaskKind::In]), e, &mut b, 0..1);
            run_kc(cpu_ctx(&[TaskKind::Kc]), e, &mut b, 0..1)
        };
        let first = probe(&e);
        let second = probe(&e);
        assert!(first.mem_accesses > second.mem_accesses);
    }
}
