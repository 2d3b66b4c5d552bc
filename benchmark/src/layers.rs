//! The traced run: the workload's own request bytes replayed in-process,
//! single-threaded, with a span around every call into a layer's public
//! functions. This is where the group-B layer metrics come from; the
//! end-to-end metrics are never taken here.

use crate::e2e::{CONNS, WINDOW};
use crate::loadgen::{ClosedLoop, Cursor, LoadGen, Stop};
use crate::metrics::{put, Values};
use crate::spec::{
    generate, preload_stream, write_key, write_value, Pool, Workload, GROUP_QUERIES, STORE_MB,
    TTL_LADDER,
};
use crate::sys::{self, CpuLayout};
use crate::trace::{Tracer, ROOT};
use bytes::{Bytes, BytesMut};
use dido::{DidoOptions, ProfilerConfig, ServingCore, WorkloadProfiler};
use dido_apu_sim::HwSpec;
use dido_cost_model::{CostModel, ModelInputs};
use dido_hashtable::{key_hash, Candidates, IndexTable, KeyHash, PROBE_WAVEFRONT};
use dido_kvstore::ObjectStore;
use dido_model::{
    ConfigEnumerator, IndexOpKind, PipelineConfig, PipelinePlan, Query, QueryOp, Response,
    ResponseStatus, TaskKind, WorkloadStats,
};
use dido_net::{
    carve_one, decode_request, encode_reply_into, BatchConfig, Carve, DispatchMode,
    IoBackendChoice, KvServer, ProtocolKind, RequestMeta,
};
use dido_pipeline::{tasks, Batch, EngineConfig, KvEngine, StageCtx, TestbedOptions};
use dido_workload::WorkloadGen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Request groups per replay batch: 64 queries, the dispatcher's
/// `wavefront_queries` trigger, so per-batch fixed costs are spread over
/// the batch size the server dispatches at under load.
const GROUPS_PER_BATCH: usize = 4;
/// Batches replayed before anything is timed.
const WARM_BATCHES: usize = 512;
/// Batches replayed with spans on; the next `TIMED_BATCHES` run with
/// spans off for the overhead ratio.
const TIMED_BATCHES: usize = 1536;
const STORE_BYTES: usize = STORE_MB << 20;
/// A fixed "now" for store calls that take the time explicitly.
const NOW: u32 = 1_000_000;

/// Cache-filter sizes `ServingCore` derives for one shard of this store.
fn scaled_caches(hw: &HwSpec) -> (u64, u64) {
    let ratio = (STORE_BYTES as f64 / hw.mem.shared_bytes as f64).min(1.0);
    (
        ((hw.cpu.cache_bytes as f64 * ratio) as u64).max(8 * 1024),
        ((hw.gpu.cache_bytes as f64 * ratio) as u64).max(2 * 1024),
    )
}

/// Load `w`'s key space into `engine` the way the front-door preload
/// does: every key once, then round again until the store is full.
fn preload(engine: &KvEngine, w: &Workload, seed: u64) -> Result<(), String> {
    let mut key = vec![0u8; w.dataset.key_size()];
    let mut value = vec![0u8; w.dataset.value_size()];
    let mut versions = vec![0u32; w.keyspace as usize];
    for q in preload_stream(w, seed) {
        versions[q.id as usize] += 1;
        write_key(&mut key, q.id);
        write_value(&mut value, q.id, versions[q.id as usize]);
        engine
            .load_object_with(&key, &value, q.ttl, 0)
            .ok_or_else(|| format!("preload of key {} rejected", q.id))?;
    }
    Ok(())
}

fn fresh_engine(w: &Workload, seed: u64) -> Result<KvEngine, String> {
    let (cpu, gpu) = scaled_caches(&HwSpec::kaveri_apu());
    let engine = KvEngine::new(EngineConfig::new(STORE_BYTES, cpu, gpu));
    preload(&engine, w, seed)?;
    Ok(engine)
}

/// The replay input: the pool's bytes as one shared buffer, and the
/// same requests decoded once for the passes that start below the codec.
struct Replay {
    kind: ProtocolKind,
    bytes: Bytes,
    group_start: Vec<usize>,
    batches: Vec<Vec<Query>>,
}

impl Replay {
    fn new(w: &Workload, seed: u64) -> Replay {
        let n_batches = WARM_BATCHES + 2 * TIMED_BATCHES;
        let stream = generate(w, seed, n_batches * GROUPS_PER_BATCH * GROUP_QUERIES);
        let pool = Pool::encode(&stream, GROUP_QUERIES, w.dataset, w.proto);
        let mut replay = Replay {
            kind: w.proto.kind(),
            bytes: Bytes::from(pool.bytes),
            group_start: pool.group_start,
            batches: Vec::with_capacity(n_batches),
        };
        let mut off = Tracer::new(false);
        for b in 0..n_batches {
            let (queries, _) = replay.carve_and_decode(b, &mut off, ROOT);
            replay.batches.push(queries);
        }
        replay
    }

    /// Carve and decode batch `b` from its wire bytes, as a reactor and
    /// a dispatcher would between them.
    fn carve_and_decode(
        &self,
        b: usize,
        t: &mut Tracer,
        root: u32,
    ) -> (Vec<Query>, Vec<(RequestMeta, usize)>) {
        let group = b as u32;
        let g0 = b * GROUPS_PER_BATCH;
        let mut carved = Vec::with_capacity(GROUPS_PER_BATCH * GROUP_QUERIES);
        t.span("net.codec.carve", root, group, || {
            let end = self.group_start[g0 + GROUPS_PER_BATCH];
            let mut pos = self.group_start[g0];
            while pos < end {
                let carve = carve_one(self.kind, &self.bytes[pos..end]);
                let Ok(Carve::Request { total, skip }) = carve else {
                    panic!("own request bytes do not carve at {pos}: {carve:?}");
                };
                carved.push((pos + skip, pos + total));
                pos += total;
            }
        });
        let mut queries = Vec::with_capacity(GROUPS_PER_BATCH * GROUP_QUERIES);
        let mut metas = Vec::with_capacity(carved.len());
        t.span("net.codec.decode", root, group, || {
            for &(start, end) in &carved {
                let before = queries.len();
                let meta =
                    decode_request(self.kind, &self.bytes.slice(start..end), NOW, &mut queries);
                metas.push((meta, queries.len() - before));
            }
        });
        (queries, metas)
    }
}

/// What one front-to-back pass measured.
struct FrontPass {
    wall_ns: u64,
    queries: u64,
    /// Queries of the batches that went through `ServingCore`.
    core_queries: u64,
    /// Queries of the batches that went straight to the executor.
    inline_queries: u64,
    reply_bytes: u64,
}

/// Pass 1: carve → decode → engine → encode over `batches`, one root
/// span per batch. Even batches enter the engine through
/// `ServingCore::process_batch`; odd ones call the executor underneath
/// it directly, on the same engine in the same cache state, so the
/// difference between the two is the serving core's own bookkeeping.
fn front_pass(
    replay: &Replay,
    core: &ServingCore,
    batches: std::ops::Range<usize>,
    t: &mut Tracer,
    mut every_64_batches: impl FnMut(),
) -> Result<FrontPass, String> {
    let mut out = FrontPass {
        wall_ns: 0,
        queries: 0,
        core_queries: 0,
        inline_queries: 0,
        reply_bytes: 0,
    };
    let mut reply = BytesMut::with_capacity(128 << 10);
    for b in batches {
        let started = Instant::now();
        let group = b as u32;
        let root = t.begin("batch", ROOT, group);
        let (queries, metas) = replay.carve_and_decode(b, t, root);
        let n = queries.len();
        let responses = if b % 2 == 0 {
            out.core_queries += n as u64;
            t.span("core.process_batch", root, group, || {
                core.process_batch(0, queries)
            })
        } else {
            out.inline_queries += n as u64;
            let config = core.shard_config(0).0;
            t.span("pipeline.process_batch_inline", root, group, || {
                core.engine().process_batch_inline(queries, |_| config)
            })
        };
        if responses.len() != n || responses.iter().any(|r| r.status == ResponseStatus::Error) {
            return Err(format!("batch {b}: engine refused a query"));
        }
        reply.clear();
        t.span("net.codec.encode", root, group, || {
            let mut at = 0;
            for (meta, nq) in &metas {
                encode_reply_into(&mut reply, meta, &responses[at..at + nq]);
                at += nq;
            }
        });
        t.end(root);
        out.queries += n as u64;
        out.reply_bytes += reply.len() as u64;
        // The controller's ticks are not part of the replay's time: how
        // often one re-runs the cost model differs between passes.
        out.wall_ns += started.elapsed().as_nanos() as u64;
        if b % 64 == 63 {
            every_64_batches();
        }
    }
    Ok(out)
}

/// Pass 2: one batch through the paper's tasks in the executor's own
/// order (`threaded::run_stage_on_sub`), one child span per task.
fn tasks_pass(
    engine: &KvEngine,
    plan: &PipelinePlan,
    queries: Vec<Query>,
    t: &mut Tracer,
    b: u32,
) -> Vec<Response> {
    let root = t.begin("pipeline.batch", ROOT, b);
    let mut batch = Batch::new(queries, plan.config);
    let n = batch.len();
    for stage in &plan.stages {
        let ctx = StageCtx::new(stage.processor, stage.tasks, 64);
        let index_ops = |batch: &mut Batch, t: &mut Tracer| {
            for &op in &stage.index_ops {
                let name = match op {
                    IndexOpKind::Search => "pipeline.in_search",
                    IndexOpKind::Insert => "pipeline.in_insert",
                    IndexOpKind::Delete => "pipeline.in_delete",
                };
                t.span(name, root, b, || {
                    tasks::run_index_op(op, ctx, engine, batch, 0..n)
                });
            }
        };
        for task in stage.tasks.iter() {
            match task {
                TaskKind::Rv | TaskKind::Pp | TaskKind::Sd => {}
                TaskKind::Mm => {
                    t.span("pipeline.mm", root, b, || {
                        tasks::run_mm(ctx, engine, &mut batch, 0..n)
                    });
                }
                TaskKind::In => index_ops(&mut batch, t),
                TaskKind::Kc => {
                    t.span("pipeline.kc", root, b, || {
                        tasks::run_kc(ctx, engine, &mut batch, 0..n)
                    });
                }
                TaskKind::Rd => {
                    t.span("pipeline.rd", root, b, || {
                        tasks::run_rd(ctx, engine, &mut batch, 0..n)
                    });
                }
                TaskKind::Wr => {
                    t.span("pipeline.wr", root, b, || {
                        tasks::run_wr(ctx, &mut batch, 0..n)
                    });
                }
            }
        }
        if !stage.tasks.contains(TaskKind::In) {
            index_ops(&mut batch, t);
        }
    }
    let responses = batch.take_responses();
    t.end(root);
    responses
}

const TASK_SPANS: [(&str, &str); 7] = [
    ("pipeline.mm", "pipeline.mm_ns_per_query"),
    ("pipeline.in_search", "pipeline.in_search_ns_per_query"),
    ("pipeline.in_insert", "pipeline.in_insert_ns_per_query"),
    ("pipeline.in_delete", "pipeline.in_delete_ns_per_query"),
    ("pipeline.kc", "pipeline.kc_ns_per_query"),
    ("pipeline.rd", "pipeline.rd_ns_per_query"),
    ("pipeline.wr", "pipeline.wr_ns_per_query"),
];

fn ns_per(total_ns: u64, n: u64) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

/// Time `f` once, ns.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

/// `hashtable.*`: the index's batch operations on the workload's keys.
fn hashtable_metrics(
    v: &mut Values,
    w: &Workload,
    engine: &KvEngine,
    timed_batches: &[Vec<Query>],
) {
    let hashes = |op: QueryOp| -> Vec<KeyHash> {
        timed_batches
            .iter()
            .flatten()
            .filter(|q| q.op == op)
            .map(|q| key_hash(&q.key))
            .collect()
    };
    let gets = hashes(QueryOp::Get);
    let mut cands = [Candidates::default(); PROBE_WAVEFRONT];
    let mut mem_accesses = 0u64;
    let ((), ns) = timed(|| {
        for chunk in gets.chunks(PROBE_WAVEFRONT) {
            mem_accesses += engine
                .index
                .search_batch(chunk, &mut cands[..chunk.len()])
                .mem_accesses;
            black_box(&cands);
        }
    });
    put(
        v,
        "hashtable.search_batch_ns_per_key",
        ns_per(ns, gets.len() as u64),
    );
    put(
        v,
        "hashtable.mem_accesses_per_search",
        ns_per(mem_accesses, gets.len() as u64),
    );
    put(v, "hashtable.load_factor", engine.index.load_factor());

    // Upserts and deletes go to a scratch table holding the same keys
    // as the engine's, so the engine's index stays consistent with its
    // store.
    let scratch = IndexTable::with_capacity(STORE_BYTES / 32);
    let mut key = vec![0u8; w.dataset.key_size()];
    for id in 0..w.keyspace.min(w.capacity_objects()) {
        write_key(&mut key, id);
        let _ = scratch.upsert(key_hash(&key), u64::from(id) * 64);
    }
    let items: Vec<(KeyHash, u64)> = hashes(QueryOp::Set)
        .into_iter()
        .enumerate()
        .map(|(i, kh)| (kh, (1 << 32) + i as u64 * 64))
        .collect();
    let mut upserted = vec![Ok(None); items.len()];
    let (_, ns) = timed(|| black_box(scratch.upsert_batch(&items, &mut upserted)));
    put(
        v,
        "hashtable.upsert_batch_ns_per_key",
        ns_per(ns, items.len() as u64),
    );
    let mut deleted = vec![false; items.len()];
    let (_, ns) = timed(|| black_box(scratch.delete_batch(&items, &mut deleted)));
    put(
        v,
        "hashtable.delete_batch_ns_per_key",
        ns_per(ns, items.len() as u64),
    );
}

/// `kvstore.*`: the object store's calls on a scratch store filled with
/// the workload's objects.
fn kvstore_metrics(v: &mut Values, w: &Workload, seed: u64) -> Result<(), String> {
    let store = ObjectStore::new(STORE_BYTES);
    let (key_len, val_len) = (w.dataset.key_size(), w.dataset.value_size());
    let mut key = vec![0u8; key_len];
    let mut value = vec![0u8; val_len];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4B56_5354_4F52);
    let deadline = |rng: &mut StdRng| match TTL_LADDER[rng.gen_range(0..TTL_LADDER.len())] {
        ttl if w.churn && ttl > 0 => NOW + ttl,
        _ => 0,
    };
    let mut placed = Vec::new();
    for id in w.preload_ids() {
        write_key(&mut key, id);
        write_value(&mut value, id, 1);
        let d = deadline(&mut rng);
        let out = store
            .allocate_with(&key, &value, d, 0, NOW, key_hash(&key).hash)
            .map_err(|e| format!("scratch store fill: {e:?}"))?;
        placed.push((out.loc, id));
    }
    put(
        v,
        "kvstore.stored_bytes_per_user_byte",
        store.bytes_carved() as f64 / (store.live_objects() * (key_len + val_len)) as f64,
    );

    // Visit stored objects in random order: the front door's GETs do.
    let n = placed.len().min(65_536);
    let sample: Vec<(u64, u32)> = (0..n)
        .map(|_| placed[rng.gen_range(0..placed.len())])
        .collect();
    let ((), ns) = timed(|| {
        for &(loc, id) in &sample {
            write_key(&mut key, id);
            black_box(store.probe(loc, &key, NOW));
        }
    });
    let ((), key_ns) = timed(|| {
        for &(_, id) in &sample {
            write_key(&mut key, id);
            black_box(&key);
        }
    });
    put(
        v,
        "kvstore.probe_ns_per_op",
        ns_per(ns.saturating_sub(key_ns), n as u64),
    );
    let mut dst = Vec::with_capacity(val_len);
    let ((), ns) = timed(|| {
        for &(loc, _) in &sample {
            dst.clear();
            black_box(store.read_value(loc, &mut dst));
        }
    });
    put(v, "kvstore.read_value_ns_per_op", ns_per(ns, n as u64));

    // The store is full: every further allocation evicts or reclaims.
    let extra = n.min(w.capacity_objects() as usize / 2);
    let mut evictions = 0u64;
    let mut alloc_ns = 0u64;
    for &(_, id) in &sample[..extra] {
        write_key(&mut key, id);
        write_value(&mut value, id, 2);
        let d = deadline(&mut rng);
        let cookie = key_hash(&key).hash;
        let (out, ns) = timed(|| store.allocate_with(&key, &value, d, 0, NOW, cookie));
        alloc_ns += ns;
        evictions += u64::from(
            out.map_err(|e| format!("allocate: {e:?}"))?
                .evicted
                .is_some(),
        );
    }
    put(
        v,
        "kvstore.allocate_ns_per_op",
        ns_per(alloc_ns, extra as u64),
    );
    put(
        v,
        "kvstore.evictions_per_allocate",
        ns_per(evictions, extra as u64),
    );

    // Expiry sweep: a small store of the workload's objects, all with a
    // deadline, swept after the deadline has passed.
    let ttl_store = ObjectStore::new(16 << 20);
    for id in 0..8192 {
        write_key(&mut key, id);
        write_value(&mut value, id, 1);
        ttl_store
            .allocate_with(&key, &value, NOW + 1, 0, NOW, key_hash(&key).hash)
            .map_err(|e| format!("ttl store fill: {e:?}"))?;
    }
    let mut purged = Vec::new();
    let (segments, ns) = timed(|| ttl_store.sweep_expired(NOW + 100, usize::MAX, &mut purged));
    if segments == 0 || purged.len() != 8192 {
        return Err(format!(
            "sweep reclaimed {segments} segments, {} objects",
            purged.len()
        ));
    }
    put(
        v,
        "kvstore.sweep_expired_us_per_segment",
        ns_per(ns, segments as u64) / 1e3,
    );
    Ok(())
}

/// `cost_model.*`, `workload.*`, `core.profiler.*`.
fn model_metrics(
    v: &mut Values,
    w: &Workload,
    seed: u64,
    engine: &KvEngine,
    interval_ns: f64,
    timed_batches: &[Vec<Query>],
) {
    let hw = HwSpec::kaveri_apu();
    let (cpu_cache_bytes, gpu_cache_bytes) = scaled_caches(&hw);
    let inputs = ModelInputs {
        stats: WorkloadStats {
            get_ratio: w.get_ratio,
            delete_ratio: 0.0,
            avg_key_size: w.dataset.key_size() as f64,
            avg_value_size: w.dataset.value_size() as f64,
            zipf_skew: w.zipf.unwrap_or(0.0),
            batch_size: GROUPS_PER_BATCH * GROUP_QUERIES,
        },
        n_keys: engine.store.live_objects() as u64,
        avg_insert_buckets: engine.index.avg_insert_buckets(),
        avg_delete_buckets: engine.index.avg_delete_buckets(),
        interval_ns,
        cpu_cache_bytes,
        gpu_cache_bytes,
    };
    let model = CostModel::new(hw);
    let ((), ns) = timed(|| {
        for _ in 0..200 {
            black_box(model.predict(PipelineConfig::mega_kv(), black_box(&inputs)));
        }
    });
    put(v, "cost_model.predict_ns", ns_per(ns, 200));
    let ((), ns) = timed(|| {
        for _ in 0..5 {
            black_box(model.optimal_config(black_box(&inputs), ConfigEnumerator::default()));
        }
    });
    put(v, "cost_model.optimal_config_us", ns_per(ns, 5) / 1e3);

    let mut gen = WorkloadGen::new(w.as_spec(), u64::from(w.keyspace), seed);
    let ((), ns) = timed(|| {
        for _ in 0..200_000 {
            black_box(gen.next_query());
        }
    });
    put(v, "workload.gen_ns_per_query", ns_per(ns, 200_000));

    let mut profiler = WorkloadProfiler::new(ProfilerConfig::default());
    let n_keys = inputs.n_keys;
    let ((), ns) = timed(|| {
        for batch in timed_batches {
            profiler.observe_queries(batch, n_keys);
        }
    });
    black_box(profiler.skew());
    let observed: usize = timed_batches.iter().map(Vec::len).sum();
    put(
        v,
        "core.profiler.observe_ns_per_query",
        ns_per(ns, observed as u64),
    );
}

/// `net.echo.throughput_qps`: the real front door in this process with
/// a handler that does no engine work, under the `sat` load.
fn echo_throughput(
    w: &Workload,
    seed: u64,
    layout: &CpuLayout,
    duration: Duration,
) -> Result<f64, String> {
    let canned = Bytes::from(vec![b'e'; w.dataset.value_size()]);
    let cfg = BatchConfig {
        max_batch_delay: Duration::from_micros(200),
        dispatchers: 1,
        readers: 1,
        sd_writers: 1,
        io_backend: IoBackendChoice::Epoll,
        ..BatchConfig::default()
    };
    // The server's threads inherit the server CPUs; this thread then
    // moves to the load generator's.
    let server = KvServer::start_multi(
        &[("127.0.0.1:0", w.proto.kind())],
        DispatchMode::Batched(cfg),
        move |_lane, queries| {
            queries
                .iter()
                .map(|q| match q.op {
                    QueryOp::Get => Response::hit(canned.clone()),
                    _ => Response::ok(),
                })
                .collect()
        },
    )
    .map_err(|e| format!("echo server: {e}"))?;
    sys::pin_current_thread(&[layout.loadgen]).map_err(|e| format!("pin: {e}"))?;
    let stream = generate(w, seed, 8192 * GROUP_QUERIES);
    let pool = Pool::encode(&stream, GROUP_QUERIES, w.dataset, w.proto);
    let seconds = duration.as_secs().max(1);
    let mut slices = crate::stats::Slices::new(seconds as usize);
    let result = LoadGen::connect(w, server.addr(), CONNS).and_then(|mut lg| {
        // Canned values fail the version check by design; only the
        // count of answers matters here.
        lg.closed_loop(
            &pool,
            &mut Cursor::default(),
            ClosedLoop {
                conns: CONNS,
                window: WINDOW,
                stop: Stop::After(Duration::from_secs(seconds)),
                compare_all: false,
            },
            Some(&mut slices),
        )
    });
    server.shutdown();
    sys::pin_current_thread(&layout.server).map_err(|e| format!("pin: {e}"))?;
    result?;
    slices
        .median_qps()
        .ok_or_else(|| "echo run had no slices".into())
}

/// Run the traced replay of `w` and return every group-B metric.
/// `trace.jsonl` is written to `out_dir`.
pub fn run(
    w: &Workload,
    seed: u64,
    echo: Duration,
    layout: &CpuLayout,
    out_dir: &Path,
) -> Result<Values, String> {
    sys::pin_current_thread(&layout.server).map_err(|e| format!("pin: {e}"))?;
    let mut v = Values::new();
    put(
        &mut v,
        "net.echo.throughput_qps",
        echo_throughput(w, seed, layout, echo)?,
    );

    let replay = Replay::new(w, seed);
    let warm = 0..WARM_BATCHES;
    let traced = WARM_BATCHES..WARM_BATCHES + TIMED_BATCHES;
    let untraced = traced.end..traced.end + TIMED_BATCHES;

    // Pass 1: front to back through the serving core.
    let options = DidoOptions {
        testbed: TestbedOptions {
            store_bytes: STORE_BYTES,
            ..TestbedOptions::default()
        },
        latency_budget_ns: 1_000_000.0,
        ..DidoOptions::default()
    };
    let core = ServingCore::new(1, 1, options);
    preload(&core.engine().shard(0), w, seed)?;
    let mut tracer = Tracer::new(false);
    front_pass(&replay, &core, warm.clone(), &mut tracer, || {
        core.controller_tick();
    })?;
    tracer.switch(true);
    let (mut tick_ns, mut ticks) = (0u64, 0u64);
    let on = front_pass(&replay, &core, traced.clone(), &mut tracer, || {
        tick_ns += timed(|| core.controller_tick()).1;
        ticks += 1;
    })?;
    tracer.switch(false);
    let off = front_pass(&replay, &core, untraced, &mut tracer, || {
        core.controller_tick();
    })?;
    let config = core.configs()[0];
    let interval_ns = core.stage_interval_ns();
    drop(core);
    for (span, metric) in [
        ("net.codec.carve", "net.codec.carve_ns_per_query"),
        ("net.codec.decode", "net.codec.decode_ns_per_query"),
        ("net.codec.encode", "net.codec.encode_ns_per_query"),
    ] {
        put(
            &mut v,
            metric,
            ns_per(tracer.self_time_ns(span), on.queries),
        );
    }
    let core_per_query = ns_per(tracer.self_time_ns("core.process_batch"), on.core_queries);
    let inline_ns = tracer.self_time_ns("pipeline.process_batch_inline");
    let inline_per_query = ns_per(inline_ns, on.inline_queries);
    put(&mut v, "core.process_batch_ns_per_query", core_per_query);
    put(
        &mut v,
        "pipeline.process_batch_inline_ns_per_query",
        inline_per_query,
    );
    put(
        &mut v,
        "core.overhead_ns_per_query",
        core_per_query - inline_per_query,
    );
    put(
        &mut v,
        "net.codec.reply_bytes_per_query",
        ns_per(on.reply_bytes, on.queries),
    );
    put(
        &mut v,
        "core.controller_tick_us",
        ns_per(tick_ns, ticks) / 1e3,
    );
    put(
        &mut v,
        "trace.overhead_ratio",
        ns_per(on.wall_ns, on.queries) / ns_per(off.wall_ns, off.queries),
    );

    // Pass 2: the same batches through the tasks, one span each, on a
    // fresh preloaded engine under the configuration pass 1 ended on.
    let plan = config.plan();
    let engine = fresh_engine(w, seed)?;
    tracer.switch(false);
    for b in warm.clone() {
        tasks_pass(
            &engine,
            &plan,
            replay.batches[b].clone(),
            &mut tracer,
            b as u32,
        );
    }
    tracer.switch(true);
    let mut task_queries = 0u64;
    for b in traced.clone() {
        task_queries += tasks_pass(
            &engine,
            &plan,
            replay.batches[b].clone(),
            &mut tracer,
            b as u32,
        )
        .len() as u64;
    }
    let mut tasks_ns = 0u64;
    for (span, metric) in TASK_SPANS {
        let ns = tracer.self_time_ns(span);
        tasks_ns += ns;
        put(&mut v, metric, ns_per(ns, task_queries));
    }
    put(
        &mut v,
        "pipeline.tasks_sum_ratio",
        ns_per(tasks_ns, task_queries) / inline_per_query,
    );

    let timed_batches = &replay.batches[traced];
    hashtable_metrics(&mut v, w, &engine, timed_batches);
    model_metrics(&mut v, w, seed, &engine, interval_ns, timed_batches);
    drop(engine);
    kvstore_metrics(&mut v, w, seed)?;

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    tracer
        .write_jsonl(&out_dir.join("trace.jsonl"))
        .map_err(|e| format!("trace.jsonl: {e}"))?;
    Ok(v)
}
