//! The simulated chip's instruments: everything the reproduction needs
//! beside a [`KvEngine`](dido_pipeline::KvEngine) to price a batch, and
//! nothing the serving path ever builds or links.
//!
//! * [`SimMachine`] — the simulated Kaveri's per-processor hot-set
//!   filters and its 82599 NIC rings, owned by a
//!   [`SimExecutor`](crate::SimExecutor) for the engine it is driving.
//! * [`SimMeter`] — the [`Meter`] over a machine: prices each task event
//!   as a [`ResourceUsage`] (paper Eq. 1 inputs) with the shared unit
//!   costs, deciding memory vs cache accesses on the executing
//!   processor's filter (task affinity, §III-B-1; skewed-key caching,
//!   §IV-B).
//! * `RV` / `PP` / `SD` — the frame-moving tasks over the simulated NIC.

use crate::cache::LruFilter;
use bytes::Bytes;
use dido_kvstore::{ObjectStore, HEADER_SIZE};
use dido_model::costs::{self, lines_for};
use dido_model::{Processor, Query, ResourceUsage, Response, TaskKind, TaskSet};
use dido_net::{encode_responses, frame_query_count, parse_frame, FrameBuilder, FrameRing};
use dido_pipeline::tasks::{Meter, StageCtx};
use dido_pipeline::EngineConfig;
use std::cell::{Cell, RefCell};

/// NIC ring slots per direction: large enough that the biggest
/// calibrated batch (2^18 queries, one K128-sized response per frame)
/// never drops.
const NIC_SLOTS: usize = 1 << 19;

/// Simulator state beside the engine: cache filters, NIC rings and the
/// usage the current task has accumulated.
#[derive(Debug)]
pub(crate) struct SimMachine {
    /// NIC receive ring (client → server), drained by `RV`.
    pub(crate) rx: FrameRing,
    /// NIC transmit ring (server → client), filled by `SD`.
    pub(crate) tx: FrameRing,
    cpu_cache: RefCell<LruFilter>,
    gpu_cache: RefCell<LruFilter>,
    usage: Cell<ResourceUsage>,
}

impl SimMachine {
    /// Instruments sized for the engine built from `cfg`.
    pub(crate) fn new(cfg: EngineConfig) -> SimMachine {
        SimMachine {
            rx: FrameRing::new(NIC_SLOTS),
            tx: FrameRing::new(NIC_SLOTS),
            cpu_cache: RefCell::new(LruFilter::new(cfg.cpu_cache_bytes)),
            gpu_cache: RefCell::new(LruFilter::new(cfg.gpu_cache_bytes)),
            usage: Cell::new(ResourceUsage::ZERO),
        }
    }

    /// Metered context for a stage on `processor` running `stage_tasks`.
    pub(crate) fn ctx(
        &self,
        processor: Processor,
        stage_tasks: TaskSet,
        cache_line: u64,
    ) -> StageCtx<SimMeter<'_>> {
        StageCtx {
            processor,
            stage_tasks,
            cache_line,
            meter: SimMeter(self),
        }
    }

    /// The usage metered since the last call (one task's worth, when
    /// called after each task).
    pub(crate) fn take_usage(&self) -> ResourceUsage {
        self.usage.replace(ResourceUsage::ZERO)
    }

    fn charge(&self, usage: ResourceUsage) {
        self.usage.set(self.usage.get() + usage);
    }

    /// Record an object access in `proc`'s cache filter; true on hit.
    fn cache_access(&self, proc: Processor, loc: u64, bytes: u64) -> bool {
        match proc {
            Processor::Cpu => self.cpu_cache.borrow_mut().access(loc, bytes),
            Processor::Gpu => self.gpu_cache.borrow_mut().access(loc, bytes),
        }
    }
}

/// The simulator's [`Meter`]: a borrowed [`SimMachine`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimMeter<'a>(&'a SimMachine);

/// Fetching `lines` cache lines of one object: all from cache when the
/// object is hot, else one random memory access brings the first line
/// and the rest stream through the cache.
fn object_fetch(insns: u64, lines: u64, hot: bool) -> ResourceUsage {
    if hot {
        ResourceUsage::new(insns, 0, lines)
    } else {
        ResourceUsage::new(insns, 1, lines.saturating_sub(1))
    }
}

impl Meter for SimMeter<'_> {
    fn mm_alloc(ctx: &StageCtx<Self>) {
        let m = ctx.meter.0;
        m.charge(ResourceUsage::new(
            costs::MM_INSNS_PER_ALLOC,
            costs::MM_MEM_PER_ALLOC,
            0,
        ));
    }

    fn mm_stored(ctx: &StageCtx<Self>, obj_bytes: usize, freed: u64) {
        let m = ctx.meter.0;
        m.charge(ResourceUsage::new(
            freed * costs::MM_INSNS_PER_EVICT,
            freed * costs::MM_MEM_PER_EVICT,
            0,
        ));
        // Writing key+value into the fresh object: sequential stores,
        // priced as cache-line writes.
        let obj_lines = lines_for(obj_bytes, ctx.cache_line);
        m.charge(
            ResourceUsage::new(obj_lines * costs::INSNS_PER_LINE, 0, obj_lines)
                .with_bytes(obj_bytes as u64),
        );
    }

    fn index_op(ctx: &StageCtx<Self>, usage: ResourceUsage) {
        ctx.meter.0.charge(usage);
    }

    fn delete_compare(ctx: &StageCtx<Self>, key_len: usize) {
        let key_lines = lines_for(key_len, ctx.cache_line);
        let insns = costs::KC_INSNS_PER_CANDIDATE + key_lines * costs::INSNS_PER_LINE;
        ctx.meter.0.charge(object_fetch(insns, key_lines, false));
    }

    fn freed(ctx: &StageCtx<Self>, loc: u64) {
        let m = ctx.meter.0;
        m.cpu_cache.borrow_mut().invalidate(loc);
        m.gpu_cache.borrow_mut().invalidate(loc);
    }

    fn kc_compare(ctx: &StageCtx<Self>, store: &ObjectStore, loc: u64, key_len: usize) {
        let m = ctx.meter.0;
        let (klen, vlen) = store.object_lens(loc);
        let hot = m.cache_access(ctx.processor, loc, (HEADER_SIZE + klen + vlen) as u64);
        // Header+key fetch.
        let key_lines = lines_for(key_len, ctx.cache_line);
        let insns = costs::KC_INSNS_PER_CANDIDATE + key_lines * costs::INSNS_PER_LINE;
        m.charge(object_fetch(insns, key_lines, hot));
    }

    fn rd_value(ctx: &StageCtx<Self>, loc: u64, obj_bytes: u64, value_len: usize) {
        let m = ctx.meter.0;
        let val_lines = lines_for(value_len, ctx.cache_line);
        let insns = val_lines * costs::INSNS_PER_LINE;
        // Affinity (paper §III-B-1): KC fetched the object into this
        // processor's cache — but only while the batch's working set
        // actually fits. The capacity-bounded filter decides
        // operationally (KC on another processor, or a working set
        // beyond the cache, both come back cold).
        let warm = m.cache_access(ctx.processor, loc, obj_bytes);
        m.charge(object_fetch(insns, val_lines, warm).with_bytes(value_len as u64));
        // Staging the value: sequential buffer writes (always cached).
        m.charge(ResourceUsage::new(insns, 0, val_lines));
    }

    fn wr_response(ctx: &StageCtx<Self>, staged: Option<usize>) {
        let m = ctx.meter.0;
        m.charge(ResourceUsage::new(costs::WR_INSNS_PER_QUERY, 0, 1));
        // Reading the staged bytes is a free ride if RD just wrote them
        // in this stage; when RD ran in a different stage it is the
        // extra pass the paper describes ("the task WR on the other
        // stage needs to read the key-value objects in the buffer to
        // construct responses").
        if let Some(len) = staged.filter(|_| !ctx.stage_tasks.contains(TaskKind::Rd)) {
            let val_lines = lines_for(len, ctx.cache_line);
            m.charge(ResourceUsage::new(
                val_lines * costs::INSNS_PER_LINE,
                0,
                val_lines,
            ));
        }
    }
}

/// Build MTU frames from raw queries and enqueue them on the RX ring
/// (the "client" side). Returns the frames accepted.
pub(crate) fn inject_queries(rx: &FrameRing, queries: &[Query]) -> usize {
    let mut pushed = 0;
    let mut builder = FrameBuilder::new();
    for q in queries {
        if !builder.push(q) {
            if rx.push(builder.finish()) {
                pushed += 1;
            }
            builder = FrameBuilder::new();
            let ok = builder.push(q);
            debug_assert!(ok);
        }
    }
    if !builder.is_empty() && rx.push(builder.finish()) {
        pushed += 1;
    }
    pushed
}

/// `RV`: drain up to `max_frames` frames from the NIC RX ring.
pub(crate) fn run_rv(rx: &FrameRing, max_frames: usize) -> (Vec<Bytes>, ResourceUsage) {
    let frames = rx.pop_up_to(max_frames);
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
pub(crate) fn run_pp(frames: &[Bytes]) -> (Vec<Query>, ResourceUsage) {
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

/// `SD`: encode `responses` into MTU-sized frames on the NIC TX ring
/// (responses ship together, over the whole batch).
pub(crate) fn run_sd(tx: &FrameRing, responses: &[Response]) -> ResourceUsage {
    let mut usage = ResourceUsage::ZERO;
    let mut start = 0usize;
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
        tx.push(frame);
        start = end;
    }
    usage
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_model::PipelineConfig;
    use dido_pipeline::tasks::{run_index_search, run_kc, run_rd, run_wr};
    use dido_pipeline::{Batch, KvEngine};

    fn engine_cfg() -> EngineConfig {
        EngineConfig::new(1 << 20, 64 * 1024, 16 * 1024)
    }

    fn get_batch(keys: impl IntoIterator<Item = String>) -> Batch {
        Batch::new(
            keys.into_iter().map(Query::get).collect(),
            PipelineConfig::mega_kv(),
        )
    }

    /// IN-Search → KC → RD on `machine`, each task on its own processor
    /// and stage; returns (KC usage, RD usage).
    fn kc_then_rd(
        machine: &SimMachine,
        engine: &KvEngine,
        batch: &mut Batch,
        kc_on: Processor,
        rd_on: Processor,
    ) -> (ResourceUsage, ResourceUsage) {
        let n = batch.len();
        let tasks = TaskSet::from_tasks(&[TaskKind::In, TaskKind::Kc, TaskKind::Rd]);
        run_index_search(machine.ctx(kc_on, tasks, 64), engine, batch, 0..n);
        machine.take_usage();
        run_kc(machine.ctx(kc_on, tasks, 64), engine, batch, 0..n);
        let kc = machine.take_usage();
        run_rd(machine.ctx(rd_on, tasks, 64), engine, batch, 0..n);
        (kc, machine.take_usage())
    }

    #[test]
    fn rd_affinity_lowers_memory_accesses() {
        // Affinity is operational: KC's fetch leaves the object in the
        // *comparing processor's* cache filter, so an RD on the same
        // processor rides the warm cache while an RD on the other
        // processor pays a random memory access.
        let run = |kc_proc: Processor| {
            let e = KvEngine::mega_kv(engine_cfg());
            e.execute(&Query::set("key-x", vec![b'v'; 200]));
            let machine = SimMachine::new(engine_cfg());
            let mut batch = get_batch(["key-x".to_string()]);
            kc_then_rd(&machine, &e, &mut batch, kc_proc, Processor::Cpu).1
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
        let cfg = EngineConfig::new(4 << 20, 4 * 1024, 1024);
        let e = KvEngine::mega_kv(cfg);
        let n = 512usize;
        for i in 0..n {
            e.execute(&Query::set(format!("big-{i:04}"), vec![b'v'; 160]));
        }
        let machine = SimMachine::new(cfg);
        let mut batch = get_batch((0..n).map(|i| format!("big-{i:04}")));
        let (_, rd) = kc_then_rd(&machine, &e, &mut batch, Processor::Cpu, Processor::Cpu);
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
    fn hot_keys_become_cache_hits_in_kc() {
        let e = KvEngine::mega_kv(engine_cfg());
        e.execute(&Query::set("hot", vec![b'h'; 64]));
        let machine = SimMachine::new(engine_cfg());
        let probe = || {
            let mut b = get_batch(["hot".to_string()]);
            kc_then_rd(&machine, &e, &mut b, Processor::Cpu, Processor::Cpu).0
        };
        let first = probe();
        let second = probe();
        assert!(first.mem_accesses > second.mem_accesses);
    }

    #[test]
    fn wr_in_separate_stage_costs_an_extra_pass() {
        let e = KvEngine::mega_kv(engine_cfg());
        e.execute(&Query::set("key-y", vec![b'v'; 512]));
        let machine = SimMachine::new(engine_cfg());
        let wr_usage = |wr_tasks: &[TaskKind]| {
            let mut b = get_batch(["key-y".to_string()]);
            kc_then_rd(&machine, &e, &mut b, Processor::Cpu, Processor::Cpu);
            machine.take_usage();
            let ctx = machine.ctx(Processor::Cpu, TaskSet::from_tasks(wr_tasks), 64);
            run_wr(ctx, &mut b, 0..1);
            (machine.take_usage(), b.take_responses())
        };
        let (u_same, r_same) = wr_usage(&[TaskKind::Rd, TaskKind::Wr]);
        let (u_split, r_split) = wr_usage(&[TaskKind::Wr]);
        assert!(u_split.cache_accesses > u_same.cache_accesses);
        assert_eq!(r_same, r_split);
    }

    #[test]
    fn rv_pp_sd_move_frames_through_the_nic() {
        let (rx, tx) = (FrameRing::new(64), FrameRing::new(64));
        let queries = vec![Query::set("net-key", "net-val"), Query::get("net-key")];
        let frames_in = inject_queries(&rx, &queries);
        assert!(frames_in >= 1);
        let (frames, rv_usage) = run_rv(&rx, 64);
        assert_eq!(frames.len(), frames_in);
        assert!(rv_usage.instructions > 0);
        let (parsed, pp_usage) = run_pp(&frames);
        assert_eq!(parsed, queries);
        assert!(pp_usage.instructions > 0);
        let sd_usage = run_sd(&tx, &[Response::hit(Bytes::from_static(b"net-val"))]);
        assert!(sd_usage.bytes > 0);
        let out = tx.pop().expect("a response frame must be sent");
        let rs = dido_net::parse_responses(&out).unwrap();
        assert_eq!(&rs[0].value[..], b"net-val");
    }

    #[test]
    fn malformed_frames_are_dropped_not_fatal() {
        let (qs, _) = run_pp(&[Bytes::from_static(b"\x01")]);
        assert!(qs.is_empty());
    }
}
