//! The concurrent serving core: a shared-state data plane over sharded
//! engines with a background adaptation control plane.
//!
//! The reproduction's `dido_bench::DidoSystem` keeps the paper's
//! *virtual-time* evaluation loop; a real server cannot put a simulator
//! (or a cost-model sweep) on its query path. [`ServingCore`] is the
//! serving-side split of the same Figure-7 architecture:
//!
//! * **Data plane** — N network dispatchers concurrently call
//!   [`ServingCore::process_batch`]. Each call samples the batch's keys
//!   for skew, loads the node's active configuration wait-free from its
//!   epoch-stamped [`ConfigCell`], executes the batch inline on the
//!   calling thread over the [`ShardedEngine`], and folds the tally the
//!   engine hands back into its lane's striped accumulators
//!   ([`StripedStats`] — relaxed adds on cells no other lane writes).
//!   No global lock anywhere on this path.
//! * **Control plane** — one background controller thread
//!   ([`ServingCore::spawn_controller`]) and nothing else. Each loop it
//!   takes a pending resize request (if no migration is draining),
//!   runs [`ServingCore::controller_tick`] — fold the stripes, diff
//!   against the previous fold for an interval profile, and hand it to
//!   the same `Planner` the sequential system asks, which on >10 % drift
//!   runs the cost model **once, on node totals** and publishes a changed
//!   configuration with an epoch bump — then
//!   [`ServingCore::sweep_tick`], then drains the migration in bounded
//!   chunks for one period instead of sleeping through it.
//!
//! With one shard and one controller tick per batch, the decision
//! sequence matches the sequential `DidoSystem` oracle on the same
//! recorded workload, and the decisions do not depend on the shard count
//! (asserted by the `concurrent_system` test suites of `dido-bench` and
//! of this crate): the interval profile equals the batch profile, the skew
//! sampler is the same windowed algorithm, and the decision is the same
//! code.

use crate::metrics::{MemoryFold, Metrics};
use crate::options::{scaled_caches, DidoOptions};
use crate::planner::{IndexShape, Planner};
use crate::striped::{StatsFold, StripedStats};
use dido_model::{ConfigCell, PipelineConfig, Query, Response};
use dido_pipeline::{EngineConfig, ResizeError, ShardedEngine};
use dido_workload::{key_bytes, value_bytes, WorkloadGen, WorkloadSpec};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys one migration step drains ([`ShardedEngine::migrate_chunk`]).
/// Small enough that the controller yields the donor write locks (and
/// gets back to its other steps) frequently; large enough to amortize
/// the `sets` read-lock acquisition.
const RESIZE_CHUNK_KEYS: usize = 512;

/// Expired TTL segments each sweep tick reclaims per shard. One
/// segment reclaims in O(members), so this bounds the controller's
/// per-tick stall; an expiry storm drains over a few ticks instead of
/// blocking one.
const SWEEP_SEGMENTS_PER_TICK: usize = 32;

/// One shard's engine sizing when the node's store and caches are split
/// `shards` ways (total capacity is the single-shard node's).
fn shard_engine_config(options: &DidoOptions, shards: usize) -> EngineConfig {
    let (cpu_cache, gpu_cache) = scaled_caches(&options.testbed, &options.hw, shards);
    EngineConfig::new(options.testbed.store_bytes / shards, cpu_cache, gpu_cache)
}

/// The concurrent adaptive serving core (data plane + control plane).
pub struct ServingCore {
    engine: Arc<ShardedEngine>,
    options: DidoOptions,
    planner: Planner,
    stripes: StripedStats,
    /// The node's active configuration: every shard of every batch runs
    /// the one the batch loaded.
    config: ConfigCell,
    /// Pending shard-count request from the admin path, taken by the
    /// controller loop once no migration is draining (0 = none).
    resize_request: AtomicUsize,
    /// The fold consumed by the previous controller tick; the next tick
    /// profiles the delta against it. The lock serialises ticks.
    last_fold: Mutex<StatsFold>,
}

impl ServingCore {
    /// An empty core with `shards` engine shards and `lanes` dispatcher
    /// stripes. Store and cache bytes from `options.testbed` are split
    /// evenly across shards (so total capacity matches a single-shard
    /// node of the same options).
    #[must_use]
    pub fn new(shards: usize, lanes: usize, options: DidoOptions) -> ServingCore {
        let shards = shards.max(1);
        let per_shard = shard_engine_config(&options, shards);
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
        // As many objects as the shards have slots of the dataset's size
        // class — on the serving store's ladder, not the power-of-two one
        // `WorkloadSpec::keyspace_size` counts for the reproduction.
        let shard = core.engine.shard(0);
        let slot = shard
            .store
            .class_bytes_for(spec.dataset.key_size(), spec.dataset.value_size())
            .expect("the dataset fits a size class");
        let n_keys = (shard.store.capacity() / slot * core.engine.shard_count()).max(1) as u64;
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

    /// Wrap an existing [`ShardedEngine`] (e.g. a single preloaded
    /// engine, via [`ShardedEngine::from_engines`]).
    #[must_use]
    pub fn from_engine(engine: ShardedEngine, lanes: usize, options: DidoOptions) -> ServingCore {
        ServingCore {
            engine: Arc::new(engine),
            options,
            planner: Planner::new(options),
            stripes: StripedStats::new(lanes, options.profiler),
            config: ConfigCell::new(PipelineConfig::mega_kv()),
            resize_request: AtomicUsize::new(0),
            last_fold: Mutex::new(StatsFold::default()),
        }
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

    /// The node's active configuration and its epoch; every shard runs it.
    // The per-shard spelling (and `configs`) is kept only because the
    // frozen `benchmark/` package uses it; the next benchmark PR
    // renames both to one `config()`.
    #[must_use]
    pub fn shard_config(&self, _shard: usize) -> (PipelineConfig, u32) {
        self.config.load()
    }

    /// The node's active configuration, once per shard.
    #[must_use]
    pub fn configs(&self) -> Vec<PipelineConfig> {
        vec![self.config.load().0; self.shard_count()]
    }

    /// Pin the node to `config` (the controller may re-adapt away on
    /// the next drift; combine with a paused controller to pin hard).
    pub fn set_config(&self, config: PipelineConfig) {
        self.config.publish(config);
    }

    /// Configurations the control plane published for the node.
    #[must_use]
    pub fn adaptions(&self) -> usize {
        self.stripes.control.adaptions.get() as usize
    }

    /// Cost-model runs: one per >10 %-drift tick, as in the sequential
    /// system.
    #[must_use]
    pub fn model_runs(&self) -> usize {
        self.stripes.control.model_runs.get() as usize
    }

    /// Reset the profiler baseline so the next tick re-runs the model.
    pub fn force_readapt(&self) {
        self.planner.force_readapt();
    }

    /// The node's operational metrics, assembled now from the lanes,
    /// the control counters and the engine's memory plane. Busy time is
    /// the busiest lane's, so the mean rate is the node's, not one
    /// lane's.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        Metrics {
            memory: MemoryFold::of(&self.engine),
            ..self.stripes.metrics(self.stripes.busiest_lane_ns() as f64)
        }
    }

    /// Aggregate live objects across shards.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.engine.live_objects()
    }

    /// Per-stage interval implied by the latency budget.
    #[must_use]
    pub fn stage_interval_ns(&self) -> f64 {
        self.planner.stage_interval_ns()
    }

    /// Direct single-query access (routes to the owning shard).
    pub fn execute(&self, q: &Query) -> Response {
        self.engine.execute(q)
    }

    /// Process one batch on dispatcher lane `lane`: sample its keys for
    /// skew, load the config wait-free, run it inline on the calling
    /// thread, record the tally the engine hands back. Nothing here is
    /// shared between lanes and a warmed dispatcher allocates nothing
    /// beyond what the engine does; safe and intended to be called
    /// concurrently from every dispatcher.
    pub fn process_batch(&self, lane: usize, queries: Vec<Query>) -> Vec<Response> {
        if queries.is_empty() {
            return Vec::new();
        }
        self.stripes
            .observe(lane, &queries, || self.engine.live_objects() as u64);
        let config = self.config.load().0;
        let started = Instant::now();
        let (responses, tally) = self.engine.run_batch(queries, config);
        let busy_ns = started.elapsed().as_nanos() as u64;
        self.stripes.record(lane, config, &tally, busy_ns);
        responses
    }

    /// One control-plane tick: fold the stripes, profile the interval
    /// since the previous tick, and let the planner decide — on >10 %
    /// drift it runs the cost model once on node totals (every shard's
    /// live objects, the node's caches, the primary shards' mean bucket
    /// counts: the hot fraction depends on the cache-to-keys *ratio*, so
    /// totals plan as any shard's slice would). Returns `true` if the
    /// node's configuration changed.
    ///
    /// Called by the background controller thread; also callable
    /// directly (tests tick once per batch to replay the sequential
    /// oracle's cadence).
    pub fn controller_tick(&self) -> bool {
        let fold = self.stripes.fold();
        let mut last_fold = self.last_fold.lock();
        let delta = fold.delta(&last_fold);
        if delta.queries == 0 {
            return false;
        }
        *last_fold = fold;
        let index = || {
            let shards = self.engine.primary_engines();
            IndexShape::of(self.engine.live_objects(), shards.iter().map(|s| &**s))
        };
        self.planner.replan(
            delta.tally().workload_stats(self.stripes.skew()),
            index,
            &self.config,
            &self.stripes,
        )
    }

    /// One memory-plane tick: proactively reclaim up to
    /// [`SWEEP_SEGMENTS_PER_TICK`] expired TTL segments per primary
    /// shard. Returns `(objects purged, segments reclaimed)` for this
    /// tick.
    ///
    /// Called by the background controller thread alongside
    /// [`ServingCore::controller_tick`]; also callable directly (the
    /// admin path and tests tick on demand).
    pub fn sweep_tick(&self) -> (usize, usize) {
        self.stripes.control.sweeps.add(1);
        self.engine.sweep_expired(SWEEP_SEGMENTS_PER_TICK)
    }

    /// Resize to `n` shards on the calling thread: install the
    /// `Migrating` shard map (new per-shard stores sized so total
    /// capacity is preserved), drain the donor shards chunk by chunk,
    /// settle. The data path serves throughout. A count the store cannot
    /// be split into is refused with [`ResizeError::BadCount`] before
    /// anything is built or swapped. This is the synchronous face (tests,
    /// benches); a running node uses [`ServingCore::request_resize`].
    pub fn resize(&self, n: usize) -> Result<(), ResizeError> {
        self.begin_resize(n)?;
        while !self.migrate_step() {}
        Ok(())
    }

    fn begin_resize(&self, n: usize) -> Result<(), ResizeError> {
        let per_shard = shard_engine_config(&self.options, n.max(1));
        self.engine.begin_resize(n, per_shard).map(drop)
    }

    /// Drain one bounded chunk of the migration and settle the map once
    /// the donors are empty. Returns `true` when no migration is left.
    fn migrate_step(&self) -> bool {
        if !self.engine.migrate_chunk(RESIZE_CHUNK_KEYS).drained {
            return false;
        }
        match self.engine.settle_resize() {
            Ok(_) => {
                self.stripes.control.resizes.add(1);
                // The topology changed under the profiler's feet: the
                // next tick re-runs the cost model.
                self.force_readapt();
                true
            }
            // `resize` on another thread settled this migration first.
            Err(ResizeError::NotMigrating) => true,
            // ... and a new one has begun since: keep draining.
            Err(_) => false,
        }
    }

    /// Ask the controller to resize to `n` shards (the admin /
    /// wire-triggered face; no caller ever blocks on the resharding
    /// locks). Requests overwrite each other — the last wins — and one
    /// made while a migration drains waits for the map to settle.
    pub fn request_resize(&self, n: usize) {
        self.resize_request.store(n.max(1), Ordering::Release);
    }

    /// Begin the pending resize request, if there is one and no
    /// migration is draining (controller loop).
    fn serve_resize_request(&self) {
        let n = self.resize_request.load(Ordering::Acquire);
        if n == 0 || self.is_migrating() {
            return;
        }
        // Begun, or refused for good (`NoChange`, `BadCount`): the
        // request is spent unless a newer one overwrote it meanwhile.
        if self.begin_resize(n) != Err(ResizeError::InProgress) {
            let _ = self
                .resize_request
                .compare_exchange(n, 0, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Spawn the background controller — the node's only control
    /// thread — stepping every `period`. Each loop is a sequence of
    /// bounded steps: begin a requested resize
    /// ([`ServingCore::request_resize`]), adapt
    /// ([`ServingCore::controller_tick`]), sweep
    /// ([`ServingCore::sweep_tick`]), then either sleep for `period` or,
    /// while a migration is draining, spend it migrating chunks. The
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
                    core.serve_resize_request();
                    core.controller_tick();
                    core.sweep_tick();
                    if core.is_migrating() {
                        let until = Instant::now() + period;
                        while !core.migrate_step() && Instant::now() < until {}
                    } else {
                        std::thread::sleep(period);
                    }
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
    use dido_model::ResponseStatus;
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
        assert!(core.controller_tick(), "first tick must configure the node");
        assert!(core.adaptions() >= 1);
        assert_ne!(core.configs()[0], PipelineConfig::mega_kv());
        // Stable workload: further ticks must not thrash.
        for _ in 0..3 {
            let b = g.batch(4096);
            let _ = core.process_batch(0, b);
            core.controller_tick();
        }
        assert!(
            core.adaptions() <= 3,
            "one publish per decision, not per shard"
        );
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
    fn a_lanes_fold_is_the_sum_of_what_its_batches_did() {
        use dido_model::{BatchTally, QueryOp};
        let (core, mut g) = ServingCore::preloaded(spec("K16-G50-U"), 3, 2, opts());
        let mut sum = BatchTally::default();
        for n in [2048, 64, 1, 777] {
            let batch = g.batch(n);
            let ops: Vec<QueryOp> = batch.iter().map(|q| q.op).collect();
            sum.queries += n as u64;
            sum.gets += ops.iter().filter(|&&op| op == QueryOp::Get).count() as u64;
            sum.key_bytes += batch.iter().map(|q| q.key.len() as u64).sum::<u64>();
            sum.set_value_bytes += batch.iter().map(|q| q.value.len() as u64).sum::<u64>();
            let responses = core.process_batch(1, batch);
            for (op, r) in ops.iter().zip(&responses) {
                if *op == QueryOp::Get && r.status == ResponseStatus::Ok {
                    sum.hits += 1;
                    sum.hit_value_bytes += r.value.len() as u64;
                }
            }
        }
        let work = core.metrics().work;
        assert_eq!(work.tally(), sum);
        assert_eq!(work.batches, 4);
        assert!(sum.hits > 0 && sum.sets() > 0, "{sum:?}");
    }

    #[test]
    fn sweep_tick_reclaims_and_metrics_read_the_gauges() {
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
        // Nothing due yet: the tick reclaims zero; the gauges are read
        // from the engine whether or not anything ticked.
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
        let core = ServingCore::new(1, 1, options);
        core.engine().load(b"kept", b"v").unwrap();
        assert_eq!(core.resize(40_000), Err(ResizeError::BadCount));
        assert!(!core.is_migrating());
        assert_eq!(core.shard_count(), 1);
        let r = core.process_batch(0, vec![Query::get("kept")]);
        assert_eq!(r[0].value, "v");
    }
}
