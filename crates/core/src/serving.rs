//! The concurrent serving core: a shared-state data plane over sharded
//! engines with a background adaptation control plane.
//!
//! [`DidoSystem`](crate::DidoSystem) keeps the paper's *virtual-time*
//! evaluation loop; a real server cannot put a simulator (or a cost-model
//! sweep) on its query path. [`ServingCore`] is the serving-side split of
//! the same Figure-7 architecture:
//!
//! * **Data plane** — N network dispatchers concurrently call
//!   [`ServingCore::process_batch`]. Each call folds the batch and its
//!   outcome into its lane's striped accumulators ([`StripedStats`] —
//!   relaxed adds on cells no other lane writes), loads the owning
//!   shard's active configuration wait-free from an epoch-stamped
//!   [`ConfigCell`], and executes the batch inline on the calling thread
//!   over the [`ShardedEngine`]. No global lock anywhere on this path.
//! * **Control plane** — a background controller thread
//!   ([`ServingCore::spawn_controller`] / [`ServingCore::controller_tick`])
//!   periodically folds the stripes, diffs against the previous fold to
//!   get an interval workload profile, and runs it through the *same*
//!   [`WorkloadProfiler`] smoothing + 10 %-drift hysteresis as the
//!   sequential system. On drift it runs the cost model once per shard
//!   (per-shard key counts and index depths differ) and publishes any
//!   changed configuration with an epoch bump, which dispatchers pick up
//!   on their next batch.
//!
//! With one shard and one controller tick per batch, the decision
//! sequence matches the sequential [`DidoSystem`](crate::DidoSystem)
//! oracle on the same recorded workload (asserted by the
//! `concurrent_system` test suite): the interval profile equals the
//! batch profile, the skew sampler is the same windowed algorithm, and
//! the hysteresis thresholds are shared.

use crate::metrics::Metrics;
use crate::profiler::WorkloadProfiler;
use crate::striped::{MemoryFold, StatsFold, StripedStats};
use crate::system::DidoOptions;
use dido_cost_model::{CostModel, ModelInputs};
use dido_kvstore::HEADER_SIZE;
use dido_model::{ConfigCell, PipelineConfig, Query, QueryOp, Response, ResponseStatus};
use dido_pipeline::{EngineConfig, ResizeError, RunOptions, ShardedEngine};
use dido_workload::{key_bytes, value_bytes, WorkloadGen, WorkloadSpec};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys the background migration worker drains per
/// [`ShardedEngine::migrate_chunk`] call. Small enough that the worker
/// yields the donor write locks frequently; large enough to amortize
/// the `sets` read-lock acquisition.
const RESIZE_CHUNK_KEYS: usize = 512;

/// Expired TTL segments each sweep tick reclaims per shard. One
/// segment reclaims in O(members), so this bounds the controller's
/// per-tick stall; an expiry storm drains over a few ticks instead of
/// blocking one.
const SWEEP_SEGMENTS_PER_TICK: usize = 32;

thread_local! {
    /// Which queries of the batch in flight on this dispatcher thread
    /// are GETs. The batch moves into the engine, so the mask is what
    /// pairs responses back to ops; it lives per thread so a warmed
    /// dispatcher never allocates for it.
    static GET_MASK: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
}

/// Control-plane state: everything only the (single) controller and
/// occasional administrative calls touch. (Its counters are lock-free
/// cells in [`StripedStats`].)
struct ControlState {
    profiler: WorkloadProfiler,
    /// The fold consumed by the previous tick; the next tick profiles
    /// the delta against it.
    last_fold: StatsFold,
}

/// The concurrent adaptive serving core (data plane + control plane).
pub struct ServingCore {
    engine: Arc<ShardedEngine>,
    model: CostModel,
    options: DidoOptions,
    /// Per-shard cache sizing for the *current* topology; recomputed on
    /// resize. Guarded together with `configs` (same write sites).
    caches: RwLock<(u64, u64)>,
    stripes: StripedStats,
    /// One epoch-stamped active configuration per shard. The vector is
    /// swapped wholesale on resize; dispatchers clone the `Arc` once
    /// per batch and fall back to shard 0's cell for any shard index
    /// beyond the vector (an in-flight batch racing a shrink).
    configs: RwLock<Arc<Vec<ConfigCell>>>,
    /// Pending shard-count request from the admin path, consumed by the
    /// controller loop (0 = none).
    resize_request: AtomicUsize,
    /// The in-flight background migration worker, if any.
    resize_worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    control: Mutex<ControlState>,
}

impl ServingCore {
    /// An empty core with `shards` engine shards and `lanes` dispatcher
    /// stripes. Store and cache bytes from `options.testbed` are split
    /// evenly across shards (so total capacity matches a single-shard
    /// [`DidoSystem`](crate::DidoSystem) of the same options).
    #[must_use]
    pub fn new(shards: usize, lanes: usize, options: DidoOptions) -> ServingCore {
        let shards = shards.max(1);
        let (cpu_cache, gpu_cache) = Self::scaled_caches(&options, shards);
        let per_shard = EngineConfig::new(
            options.testbed.store_bytes / shards,
            cpu_cache,
            gpu_cache,
        );
        Self::from_engine(ShardedEngine::new(shards, per_shard), lanes, options)
    }

    /// A core preloaded to capacity with `spec`'s key space ("we store
    /// as many key-value objects as possible", §V-A), plus a matching
    /// query generator. Keys route across shards exactly as live
    /// queries will.
    #[must_use]
    pub fn preloaded(
        spec: WorkloadSpec,
        shards: usize,
        lanes: usize,
        options: DidoOptions,
    ) -> (ServingCore, WorkloadGen) {
        let core = Self::new(shards, lanes, options);
        let n_keys = spec
            .keyspace_size(options.testbed.store_bytes as u64, HEADER_SIZE)
            .max(1);
        for id in 0..n_keys {
            let key = key_bytes(spec.dataset, id);
            let value = value_bytes(spec.dataset, id);
            // The same canonical SET sequence live queries use (shared
            // `KvEngine::load_object` helper), routed through the shard
            // map.
            core.engine
                .load(&key, &value)
                .expect("preload must fit the store and index");
        }
        let generator = WorkloadGen::new(spec, n_keys, options.testbed.seed);
        (core, generator)
    }

    /// Wrap an existing [`ShardedEngine`] (e.g. a single engine from
    /// `preloaded_engine`, via [`ShardedEngine::from_engines`]).
    #[must_use]
    pub fn from_engine(engine: ShardedEngine, lanes: usize, options: DidoOptions) -> ServingCore {
        let shards = engine.shard_count();
        let (cpu_cache, gpu_cache) = Self::scaled_caches(&options, shards);
        ServingCore {
            model: CostModel::new(options.hw),
            caches: RwLock::new((cpu_cache, gpu_cache)),
            stripes: StripedStats::new(lanes, options.profiler),
            configs: RwLock::new(Arc::new(
                (0..shards)
                    .map(|_| ConfigCell::new(PipelineConfig::mega_kv()))
                    .collect(),
            )),
            resize_request: AtomicUsize::new(0),
            resize_worker: Mutex::new(None),
            control: Mutex::new(ControlState {
                profiler: WorkloadProfiler::new(options.profiler),
                last_fold: StatsFold::default(),
            }),
            engine: Arc::new(engine),
            options,
        }
    }

    /// Per-shard scaled cache sizing, mirroring
    /// `DidoSystem::scaled_caches` (identical for one shard).
    fn scaled_caches(options: &DidoOptions, shards: usize) -> (u64, u64) {
        let ratio = if options.testbed.scale_caches {
            (options.testbed.store_bytes as f64 / options.hw.mem.shared_bytes as f64).min(1.0)
        } else {
            1.0
        };
        (
            ((options.hw.cpu.cache_bytes as f64 * ratio) as u64 / shards as u64).max(8 * 1024),
            ((options.hw.gpu.cache_bytes as f64 * ratio) as u64 / shards as u64).max(2 * 1024),
        )
    }

    /// The sharded functional engine.
    #[must_use]
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Number of engine shards under the current shard map.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.engine.shard_count()
    }

    /// Whether a live resize is currently draining (wait-free).
    #[must_use]
    pub fn is_migrating(&self) -> bool {
        self.engine.is_migrating()
    }

    /// Number of dispatcher lanes the accumulators are striped over.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.stripes.lanes()
    }

    /// The active configuration and epoch of `shard`.
    #[must_use]
    pub fn shard_config(&self, shard: usize) -> (PipelineConfig, u32) {
        self.configs.read()[shard].load()
    }

    /// Snapshot of every shard's active configuration.
    #[must_use]
    pub fn configs(&self) -> Vec<PipelineConfig> {
        self.configs.read().iter().map(|c| c.load().0).collect()
    }

    /// Pin every shard to `config` (the controller may re-adapt away on
    /// the next drift; combine with a paused controller to pin hard).
    pub fn set_config(&self, config: PipelineConfig) {
        for cell in self.configs.read().iter() {
            cell.publish(config);
        }
    }

    /// Configurations published by the control plane: one per shard
    /// whose configuration changed (a tick that re-plans two shards
    /// counts two).
    #[must_use]
    pub fn adaptions(&self) -> usize {
        self.stripes.control.adaptions.get() as usize
    }

    /// Cost-model runs (each >10 %-drift tick runs the model once per
    /// shard but counts as one run, matching the sequential system).
    #[must_use]
    pub fn model_runs(&self) -> usize {
        self.stripes.control.model_runs.get() as usize
    }

    /// Reset the profiler baseline so the next tick re-runs the model.
    pub fn force_readapt(&self) {
        self.control.lock().profiler.force_readapt();
    }

    /// The node's operational metrics, assembled now from the lanes,
    /// the control counters and the memory snapshot. Busy time is the
    /// busiest lane's, so the mean rate is the node's, not one lane's.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.stripes.metrics(self.stripes.busiest_lane_ns() as f64)
    }

    /// Aggregate live objects across shards.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.engine.live_objects()
    }

    /// Per-stage interval implied by the latency budget.
    #[must_use]
    pub fn stage_interval_ns(&self) -> f64 {
        RunOptions {
            latency_budget_ns: self.options.latency_budget_ns,
            ..RunOptions::default()
        }
        .stage_interval_ns()
    }

    /// Direct single-query access (routes to the owning shard).
    pub fn execute(&self, q: &Query) -> Response {
        self.engine.execute(q)
    }

    /// Process one batch on dispatcher lane `lane`. Lock-free profiling
    /// and bookkeeping (nothing here is shared between lanes, and a
    /// warmed dispatcher allocates nothing beyond what the engine
    /// does), wait-free config load, inline execution on the calling
    /// thread; safe and intended to be called concurrently from every
    /// dispatcher.
    pub fn process_batch(&self, lane: usize, queries: Vec<Query>) -> Vec<Response> {
        if queries.is_empty() {
            return Vec::new();
        }
        self.stripes
            .observe(lane, &queries, self.engine.live_objects() as u64);
        let mut is_get = GET_MASK.take();
        is_get.clear();
        is_get.extend(queries.iter().map(|q| q.op == QueryOp::Get));
        // One Arc clone per batch: the cells themselves stay wait-free;
        // the RwLock is only written when a resize swaps the topology.
        let configs = Arc::clone(&self.configs.read());
        let shard0_config = configs[0].load().0;
        let started = Instant::now();
        let responses = self.engine.process_batch_inline(queries, |shard| {
            // `get` fallback: a batch that raced a resize may ask for a
            // shard index from the other topology; shard 0's config is
            // always a valid answer.
            configs.get(shard).unwrap_or(&configs[0]).load().0
        });
        let busy_ns = started.elapsed().as_nanos() as u64;
        let mut hits = 0u64;
        let mut hit_bytes = 0u64;
        for (r, g) in responses.iter().zip(&is_get) {
            if *g && r.status == ResponseStatus::Ok {
                hits += 1;
                hit_bytes += r.value.len() as u64;
            }
        }
        GET_MASK.set(is_get);
        self.stripes
            .record_batch(lane, shard0_config, hits, hit_bytes, busy_ns);
        responses
    }

    /// One control-plane tick: fold the stripes, profile the interval
    /// since the previous tick, and on >10 % drift run the cost model
    /// and publish per-shard configurations. Returns `true` if any
    /// shard's configuration changed.
    ///
    /// Called by the background controller thread; also callable
    /// directly (tests tick once per batch to replay the sequential
    /// oracle's cadence).
    pub fn controller_tick(&self) -> bool {
        let fold = self.stripes.fold();
        let mut ctl = self.control.lock();
        let delta = fold.delta(&ctl.last_fold);
        if delta.queries == 0 {
            return false;
        }
        ctl.last_fold = fold;
        ctl.profiler.note_skew(self.stripes.skew());
        let raw = delta.workload_stats(self.stripes.skew());
        let stats = ctl.profiler.finish_batch(raw);
        if stats.batch_size == 0 || !ctl.profiler.should_readapt(stats) {
            return false;
        }
        self.stripes.control.model_runs.add(1);
        let interval_ns = self.stage_interval_ns();
        let mut changed = false;
        let configs = Arc::clone(&self.configs.read());
        let engines = self.engine.primary_engines();
        let (cpu_cache_bytes, gpu_cache_bytes) = *self.caches.read();
        for (s, cell) in configs.iter().enumerate() {
            // A resize between the two snapshots can shrink the engine
            // list; surplus cells are about to be retired anyway.
            let Some(shard) = engines.get(s) else { break };
            let inputs = ModelInputs {
                stats,
                n_keys: shard.store.live_objects() as u64,
                avg_insert_buckets: shard.index.avg_insert_buckets(),
                avg_delete_buckets: shard.index.avg_delete_buckets(),
                interval_ns,
                cpu_cache_bytes,
                gpu_cache_bytes,
            };
            let prediction = if self.options.greedy_search {
                self.model.greedy_config(&inputs)
            } else {
                self.model.optimal_config(&inputs, self.options.enumerator)
            };
            if prediction.config != cell.load().0 {
                cell.publish(prediction.config);
                self.stripes.control.adaptions.add(1);
                changed = true;
            }
        }
        changed
    }

    /// One memory-plane tick: proactively reclaim up to
    /// [`SWEEP_SEGMENTS_PER_TICK`] expired TTL segments per primary
    /// shard, then publish a fresh memory snapshot (expiry counters +
    /// per-class gauges) through the striped accumulators. Returns
    /// `(objects purged, segments reclaimed)` for this tick.
    ///
    /// Called by the background controller thread alongside
    /// [`ServingCore::controller_tick`]; also callable directly (the
    /// admin path and tests tick on demand).
    pub fn sweep_tick(&self) -> (usize, usize) {
        let (purged, segments) = self.engine.sweep_expired(SWEEP_SEGMENTS_PER_TICK);
        let expiry = self.engine.expiry_stats();
        self.stripes.publish_memory(MemoryFold {
            expired_lazy: self.engine.op_counts().expired_lazy,
            expired_proactive: expiry.expired_proactive,
            segments_reclaimed: expiry.segments_reclaimed,
            sealed_segments: expiry.sealed_segments,
            classes: self.engine.class_stats(),
        });
        self.stripes.control.sweeps.add(1);
        (purged, segments)
    }

    /// Start a live resize to `n` shards: install the `Migrating` shard
    /// map (new per-shard stores sized so total capacity is preserved),
    /// swap in a fresh per-shard config vector seeded from shard 0's
    /// active configuration, and spawn a background worker that drains
    /// donor shards chunk by chunk and settles the map when done. The
    /// data path serves throughout; returns as soon as the migration is
    /// underway (use [`ServingCore::wait_resize`] to block on it). A
    /// count the store cannot be split into is refused with
    /// [`ResizeError::BadCount`] before anything is built or swapped.
    pub fn resize_shards(self: &Arc<Self>, n: usize) -> Result<(), ResizeError> {
        let (cpu_cache, gpu_cache) = Self::scaled_caches(&self.options, n.max(1));
        let per_shard = EngineConfig::new(
            self.options.testbed.store_bytes / n.max(1),
            cpu_cache,
            gpu_cache,
        );
        let seed_config = self.configs.read()[0].load().0;
        self.engine.begin_resize(n, per_shard)?;
        *self.configs.write() = Arc::new(
            (0..n).map(|_| ConfigCell::new(seed_config)).collect(),
        );
        *self.caches.write() = (cpu_cache, gpu_cache);
        let core = Arc::clone(self);
        let worker = std::thread::Builder::new()
            .name("dido-reshard".into())
            .spawn(move || {
                while !core.engine.migrate_chunk(RESIZE_CHUNK_KEYS).drained {}
                core.engine
                    .settle_resize()
                    .expect("worker is the only settler");
                core.stripes.control.resizes.add(1);
                // The topology changed under the profiler's feet: force
                // the next tick to re-run the cost model per new shard.
                core.force_readapt();
            })
            .expect("spawn resize worker thread");
        let mut slot = self.resize_worker.lock();
        if let Some(prev) = slot.take() {
            // A previous resize's worker has necessarily finished
            // (begin_resize would have failed with InProgress
            // otherwise); reap it.
            let _ = prev.join();
        }
        *slot = Some(worker);
        Ok(())
    }

    /// Block until the in-flight resize (if any) has settled.
    pub fn wait_resize(&self) {
        let worker = self.resize_worker.lock().take();
        if let Some(w) = worker {
            let _ = w.join();
        }
    }

    /// Ask the controller to resize to `n` shards on its next loop
    /// iteration (the admin/wire-triggered path; `resize_shards` is the
    /// direct one). Requests overwrite each other; the last wins.
    pub fn request_resize(&self, n: usize) {
        self.resize_request.store(n.max(1), Ordering::Release);
    }

    /// Consume a pending resize request (controller loop).
    fn take_resize_request(&self) -> Option<usize> {
        match self.resize_request.swap(0, Ordering::AcqRel) {
            0 => None,
            n => Some(n),
        }
    }

    /// Spawn the background adaptation controller, ticking every
    /// `period`. Beside config adaption, the controller is the consumer
    /// of [`ServingCore::request_resize`] (shard scaling) and the
    /// driver of the TTL sweeper ([`ServingCore::sweep_tick`]): memory
    /// reclamation is its third actuator, not a thread of its own. The
    /// returned handle stops and joins the thread on
    /// [`ControllerHandle::stop`] or drop.
    #[must_use]
    pub fn spawn_controller(core: Arc<ServingCore>, period: Duration) -> ControllerHandle {
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("dido-controller".into())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if let Some(n) = core.take_resize_request() {
                        // InProgress/NoChange are benign here: the admin
                        // path re-requests if it really wants another.
                        let _ = core.resize_shards(n);
                    }
                    core.controller_tick();
                    core.sweep_tick();
                    std::thread::sleep(period);
                }
            })
            .expect("spawn controller thread");
        ControllerHandle {
            shutdown,
            thread: Some(thread),
        }
    }
}

impl std::fmt::Debug for ServingCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingCore")
            .field("shards", &self.shard_count())
            .field("lanes", &self.stripes.lanes())
            .field("adaptions", &self.adaptions())
            .finish()
    }
}

/// Join handle for the background adaptation controller.
#[derive(Debug)]
pub struct ControllerHandle {
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ControllerHandle {
    /// Signal the controller to stop and join it.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ControllerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_pipeline::TestbedOptions;

    fn opts() -> DidoOptions {
        DidoOptions {
            testbed: TestbedOptions {
                store_bytes: 4 << 20,
                ..TestbedOptions::default()
            },
            ..DidoOptions::default()
        }
    }

    fn spec(label: &str) -> WorkloadSpec {
        WorkloadSpec::from_label(label).unwrap()
    }

    #[test]
    fn preloaded_core_serves_and_adapts() {
        let (core, mut g) = ServingCore::preloaded(spec("K8-G95-S"), 2, 2, opts());
        assert!(core.live_objects() > 1000);
        assert_eq!(core.adaptions(), 0);
        let batch = g.batch(4096);
        let responses = core.process_batch(0, batch);
        assert_eq!(responses.len(), 4096);
        assert!(core.controller_tick(), "first tick must configure shards");
        assert!(core.adaptions() >= 1);
        assert_ne!(core.configs()[0], PipelineConfig::mega_kv());
        // Stable workload: further ticks must not thrash.
        for _ in 0..3 {
            let b = g.batch(4096);
            let _ = core.process_batch(0, b);
            core.controller_tick();
        }
        assert!(core.adaptions() <= core.shard_count() + 2);
    }

    #[test]
    fn idle_tick_is_a_no_op() {
        let core = ServingCore::new(1, 1, opts());
        assert!(!core.controller_tick());
        assert_eq!(core.model_runs(), 0);
    }

    #[test]
    fn preloaded_keys_hit_across_shards() {
        let (core, mut g) = ServingCore::preloaded(spec("K16-G95-U"), 3, 1, opts());
        let responses = core.process_batch(0, g.batch(2048));
        let hits = responses
            .iter()
            .filter(|r| r.status == ResponseStatus::Ok && !r.value.is_empty())
            .count();
        assert!(
            hits as f64 > 0.85 * 0.95 * 2048.0,
            "preloaded GETs should mostly hit: {hits}/2048"
        );
        let m = core.metrics();
        assert_eq!(m.work.batches, 1);
        assert_eq!(m.work.queries, 2048);
        assert!(m.work.hits > 0);
    }

    #[test]
    fn sweep_tick_reclaims_and_publishes_gauges() {
        use dido_model::{MockClock, SharedClock};
        let clock = Arc::new(MockClock::at(1_000));
        let engine = ShardedEngine::with_clock(
            2,
            EngineConfig::new(1 << 20, 64 << 10, 16 << 10),
            Arc::clone(&clock) as SharedClock,
        );
        let core = ServingCore::from_engine(engine, 1, opts());
        for i in 0..200 {
            let key = format!("ttl-{i}");
            let r = core.execute(&Query::set_with(key, "short-lived-value", 5, 0));
            assert_eq!(r.status, ResponseStatus::Ok);
        }
        let r = core.execute(&Query::set("keep", "stays"));
        assert_eq!(r.status, ResponseStatus::Ok);
        // Nothing due yet: the tick publishes gauges but reclaims zero.
        assert_eq!(core.sweep_tick().0, 0);
        let gauges = core.metrics().memory;
        assert!(
            gauges.classes.iter().map(|c| c.live_objects).sum::<usize>() >= 201,
            "per-class gauges must see the preload"
        );
        clock.advance(5);
        let (purged, segments) = core.sweep_tick();
        assert_eq!(purged, 200, "every short-TTL object reclaims in bulk");
        assert!(segments >= 1);
        assert_eq!(core.live_objects(), 1);
        let m = core.metrics();
        assert_eq!(m.memory.expired_proactive, 200);
        assert_eq!(m.memory.segments_reclaimed, segments as u64);
        assert_eq!(m.control.sweeps, 2);
        let s = m.to_string();
        assert!(s.contains("mem: 0 lazy / 200 proactive"), "{s}");
        assert!(s.contains("class"), "{s}");
    }

    #[test]
    fn background_controller_reacts_to_shift() {
        let (core, _g) = ServingCore::preloaded(spec("K16-G95-S"), 1, 2, opts());
        let core = Arc::new(core);
        let handle =
            ServingCore::spawn_controller(Arc::clone(&core), Duration::from_millis(1));
        let mut a = WorkloadGen::new(spec("K16-G95-S"), 10_000, 3);
        for _ in 0..3 {
            let _ = core.process_batch(0, a.batch(4096));
            std::thread::sleep(Duration::from_millis(4));
        }
        let runs_after_warmup = core.model_runs();
        let mut b = WorkloadGen::new(spec("K8-G50-U"), 10_000, 4);
        for _ in 0..3 {
            let _ = core.process_batch(1, b.batch(4096));
            std::thread::sleep(Duration::from_millis(4));
        }
        handle.stop();
        assert!(
            core.model_runs() > runs_after_warmup,
            "workload swap must re-run the cost model in the background"
        );
    }

    #[test]
    fn a_resize_the_store_cannot_be_split_into_is_refused() {
        // 1 MiB over 40 000 shards leaves each 26 bytes, below the
        // store's minimum: any client can ask for this through the
        // `__dido/resize` admin key, and building that store would
        // assert on the controller thread.
        let mut options = opts();
        options.testbed.store_bytes = 1 << 20;
        let core = Arc::new(ServingCore::new(1, 1, options));
        core.engine().load(b"kept", b"v").unwrap();
        assert_eq!(core.resize_shards(40_000), Err(ResizeError::BadCount));
        assert!(!core.is_migrating());
        assert_eq!(core.shard_count(), 1);
        let r = core.process_batch(0, vec![Query::get("kept")]);
        assert_eq!(r[0].value, "v");
    }
}
