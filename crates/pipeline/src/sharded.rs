//! Sharded multi-pipeline front with live resharding.
//!
//! Mega-KV "implements multiple pipelines to take advantage of the
//! multicore architecture" (paper §II-B, Figure 3): keys are partitioned
//! across independent pipeline instances, each with its own index and
//! store, so instances never contend. This module provides that
//! partitioning layer — and, unlike the original static design, lets the
//! topology *change at runtime*. All routing flows through the versioned
//! [`ShardMap`] plane (see [`crate::shardmap`]); a resize installs a
//! `Migrating{old, new}` map, a migration worker drains donor shards in
//! wavefront-sized chunks, and the data path triple-probes so
//! correctness never depends on migration progress.
//!
//! ## Migration protocol (DESIGN.md §12)
//!
//! During `Migrating{old, new}` two shard sets exist: the **primary**
//! (new topology, authoritative for writes) and the **donor** (old
//! topology, draining). Every mutation of a possibly-migrating key
//! serializes on the owning donor shard's write lock; GETs stay
//! lock-free. A batch runs the same stage loop as a settled one, in
//! passes:
//!
//! * lock the donor shards its SETs and DELETEs route to (ascending);
//! * run the whole batch over the primary set;
//! * still locked, one pass over the donor set: a DELETE for every SET
//!   that stored (so a stale donor copy can never shadow the new value
//!   after the worker has passed it by) and for every DELETE of a key
//!   the batch did not store, a GET for every GET that missed;
//! * unlocked, re-run the GETs still missing over the primary. This
//!   third probe closes the race where the worker moves a key between
//!   the first two (a move inserts into primary *before* deleting from
//!   donor, and moves only travel donor→primary, so a key that is live
//!   somewhere is always found).
//!
//! The worker, per chunk, locks one donor shard, walks a bounded bucket
//! range of its index, and for each live key not already in primary,
//! copies it over (carrying CLOCK frequency/epoch via `restore_clock`)
//! and deletes the donor copy.
//!
//! Batches hold the `sets` read lock for their whole run, so the two
//! map transitions (install, settle) take the write lock and thereby
//! wait out every in-flight batch: no batch ever runs against a set
//! topology that has been retired.

use crate::engine::{EngineConfig, KvEngine, OpCounts, UNMETERED};
use crate::shardmap::{route_of, MapState, ShardMap, MAX_SHARDS};
use dido_kvstore::{ClassStats, ExpiryStats, MIN_STORE_BYTES};
use dido_model::{
    BatchTally, PipelineConfig, Query, QueryOp, Response, ResponseStatus, SharedClock, SystemClock,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Donor index buckets walked per migration chunk. At 4 slots per
/// bucket this bounds a chunk to ~64 moved keys — one pipeline
/// wavefront — which bounds how long the worker holds a donor shard's
/// write lock (and therefore how long a racing SET can stall).
const MIGRATE_BUCKETS_PER_CHUNK: usize = 16;

/// One topology's worth of engines plus the per-shard write locks the
/// migration protocol serializes on while the set is a donor.
struct ShardSet {
    engines: Vec<Arc<KvEngine>>,
    write_locks: Vec<Mutex<()>>,
}

impl ShardSet {
    fn build(n: usize, per_shard: EngineConfig, clock: &SharedClock) -> ShardSet {
        ShardSet::from_engines(
            (0..n)
                .map(|_| KvEngine::with_clock(per_shard, Arc::clone(clock)))
                .collect(),
        )
    }

    fn from_engines(engines: Vec<KvEngine>) -> ShardSet {
        let locks = (0..engines.len()).map(|_| Mutex::new(())).collect();
        ShardSet {
            engines: engines.into_iter().map(Arc::new).collect(),
            write_locks: locks,
        }
    }

    fn len(&self) -> usize {
        self.engines.len()
    }

    /// The engine owning `key` under this set's topology.
    fn engine_of(&self, key: &[u8]) -> &KvEngine {
        &self.engines[route_of(key, self.engines.len())]
    }

    /// Run a batch over this set: each shard's share through its
    /// engine's stage loop, responses back in query order, the tally the
    /// shards' sum.
    fn run_batch(&self, queries: Vec<Query>, config: PipelineConfig) -> (Vec<Response>, BatchTally) {
        let n = self.engines.len();
        if n == 1 {
            // Fast path: no partitioning, no order restoration.
            return self.engines[0].run_batch(queries, config);
        }
        let total = queries.len();
        let mut per_shard: Vec<Vec<Query>> = (0..n).map(|_| Vec::new()).collect();
        let mut positions: Vec<Vec<u32>> = (0..n).map(|_| Vec::new()).collect();
        for (pos, q) in queries.into_iter().enumerate() {
            let s = route_of(&q.key, n);
            positions[s].push(pos as u32);
            per_shard[s].push(q);
        }
        let mut out: Vec<Option<Response>> = vec![None; total];
        let mut tally = BatchTally::default();
        for (s, queries) in per_shard.into_iter().enumerate() {
            if queries.is_empty() {
                continue;
            }
            let (responses, shard_tally) = self.engines[s].run_batch(queries, config);
            tally.merge(&shard_tally);
            for (&pos, r) in positions[s].iter().zip(responses) {
                out[pos as usize] = Some(r);
            }
        }
        let responses = out
            .into_iter()
            .map(|r| r.expect("every query answered by its shard"))
            .collect();
        (responses, tally)
    }

    /// One follow-up pass of a migrating batch: each query `follow` maps
    /// (given whether it is answered `Ok` so far) runs over this set,
    /// and its answer replaces one that is not `Ok`, counting a
    /// recovered hit into `tally`.
    fn follow_up(
        &self,
        queries: &[Query],
        responses: &mut [Response],
        tally: &mut BatchTally,
        config: PipelineConfig,
        follow: impl Fn(&Query, bool) -> Option<Query>,
    ) {
        let (positions, pass): (Vec<usize>, Vec<Query>) = queries
            .iter()
            .zip(responses.iter())
            .enumerate()
            .filter_map(|(i, (q, r))| Some((i, follow(q, r.status == ResponseStatus::Ok)?)))
            .unzip();
        if pass.is_empty() {
            return;
        }
        for (i, r) in positions.into_iter().zip(self.run_batch(pass, config).0) {
            if responses[i].status != ResponseStatus::Ok {
                tally.count_response(queries[i].op, &r);
                responses[i] = r;
            }
        }
    }
}

/// The engine sets the data path runs against. Batches hold a read
/// guard on this for their whole run; resize transitions take the write
/// lock, which doubles as the quiescence barrier described above.
struct EngineSets {
    primary: Arc<ShardSet>,
    donor: Option<Arc<ShardSet>>,
    /// Op counts carried over from retired donor sets, so aggregate
    /// [`ShardedEngine::op_counts`] accounting survives resizes.
    retired: OpCounts,
}

/// Where the migration sweep is within the donor set.
struct MigrationCursor {
    donor_shard: usize,
    next_bucket: usize,
    /// The bucket count `next_bucket` counts in. A donor shard takes no
    /// inserts, so its index never grows and the cursor stays valid.
    buckets: usize,
}

/// Why a resize request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeError {
    /// A previous resize is still draining; settle it first.
    InProgress,
    /// The requested shard count equals the current one.
    NoChange,
    /// The requested shard count is 0, above [`MAX_SHARDS`], or splits
    /// the store into shards below [`MIN_STORE_BYTES`].
    BadCount,
    /// `settle_resize` was called with no resize in progress.
    NotMigrating,
    /// `settle_resize` was called before the donor set drained.
    NotDrained,
}

impl std::fmt::Display for ResizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResizeError::InProgress => write!(f, "a resize is already in progress"),
            ResizeError::NoChange => write!(f, "already at the requested shard count"),
            ResizeError::BadCount => write!(f, "shard count out of range"),
            ResizeError::NotMigrating => write!(f, "no resize in progress"),
            ResizeError::NotDrained => write!(f, "donor shards not fully drained"),
        }
    }
}

impl std::error::Error for ResizeError {}

/// Progress report from one [`ShardedEngine::migrate_chunk`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrateProgress {
    /// Keys copied to their new shard by this chunk.
    pub moved: usize,
    /// Keys lost because the target shard could not admit them (store
    /// rejection — equivalent to an eviction of a cold key).
    pub dropped: usize,
    /// The donor set is fully drained; [`ShardedEngine::settle_resize`]
    /// may run.
    pub drained: bool,
}

/// A set of independent [`KvEngine`] shards with hash routing through
/// the versioned [`ShardMap`] plane, supporting live resharding.
pub struct ShardedEngine {
    map: ShardMap,
    sets: RwLock<EngineSets>,
    /// Migration sweep position. Lock order: `sets` before `cursor`.
    cursor: Mutex<Option<MigrationCursor>>,
    /// Cumulative keys dropped by migrations (target store rejections).
    migrate_dropped: AtomicU64,
    /// One clock shared by every shard (and every future shard a resize
    /// creates), so TTL deadlines mean the same instant on all of them.
    clock: SharedClock,
}

impl ShardedEngine {
    /// Build `n` shards, each sized to `per_shard`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > MAX_SHARDS`.
    #[must_use]
    pub fn new(n: usize, per_shard: EngineConfig) -> ShardedEngine {
        Self::with_clock(n, per_shard, Arc::new(SystemClock))
    }

    /// [`ShardedEngine::new`] on an injected clock shared by every shard
    /// (tests drive TTL expiry with a mock instead of sleeping).
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > MAX_SHARDS`.
    #[must_use]
    pub fn with_clock(n: usize, per_shard: EngineConfig, clock: SharedClock) -> ShardedEngine {
        assert!(n > 0, "need at least one shard");
        Self::from_set(ShardSet::build(n, per_shard, &clock), clock)
    }

    /// Wrap already-built engines (e.g. a single preloaded engine) as
    /// shards. Routing follows the slice order; the first engine's clock
    /// becomes the set's shared clock (shards a resize creates run on
    /// it).
    ///
    /// # Panics
    /// Panics if `engines` is empty.
    #[must_use]
    pub fn from_engines(engines: Vec<KvEngine>) -> ShardedEngine {
        assert!(!engines.is_empty(), "need at least one shard");
        let clock = engines[0].clock();
        Self::from_set(ShardSet::from_engines(engines), clock)
    }

    fn from_set(set: ShardSet, clock: SharedClock) -> ShardedEngine {
        ShardedEngine {
            map: ShardMap::new(set.len()),
            sets: RwLock::new(EngineSets {
                primary: Arc::new(set),
                donor: None,
                retired: OpCounts::default(),
            }),
            cursor: Mutex::new(None),
            migrate_dropped: AtomicU64::new(0),
            clock,
        }
    }

    /// The versioned shard map (for monitoring and epoch-aware callers
    /// like the net dispatch loop).
    #[must_use]
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Current primary shard count (wait-free).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.map.shards()
    }

    /// Whether a resize is currently draining (wait-free).
    #[must_use]
    pub fn is_migrating(&self) -> bool {
        self.map.state().donors().is_some()
    }

    /// The primary shard a key routes to under the current map.
    #[must_use]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        route_of(key, self.map.shards())
    }

    /// One primary shard's engine.
    #[must_use]
    pub fn shard(&self, i: usize) -> Arc<KvEngine> {
        Arc::clone(&self.sets.read().primary.engines[i])
    }

    /// Snapshot of the primary set's engines (the control plane iterates
    /// these; cheap Arc clones).
    #[must_use]
    pub fn primary_engines(&self) -> Vec<Arc<KvEngine>> {
        self.sets.read().primary.engines.iter().map(Arc::clone).collect()
    }

    /// One query as a one-query [`ShardedEngine::run_batch`] under
    /// [`PipelineConfig::cpu_only`] (examples, tests, restores).
    pub fn execute(&self, q: &Query) -> Response {
        let (mut responses, _) = self.run_batch(vec![q.clone()], PipelineConfig::cpu_only());
        responses.pop().expect("one query, one response")
    }

    /// Store `key = value` directly (the preload path):
    /// [`KvEngine::load_object`] routed through the shard map. Returns
    /// the object's location in its owning shard, or `None` if the store
    /// rejected it.
    pub fn load(&self, key: &[u8], value: &[u8]) -> Option<u64> {
        let sets = self.sets.read();
        match &sets.donor {
            None => sets.primary.engine_of(key).load_object(key, value),
            Some(donor) => {
                let d = route_of(key, donor.len());
                let _wl = donor.write_locks[d].lock();
                let loc = sets.primary.engine_of(key).load_object(key, value)?;
                donor.engines[d].purge_key(key);
                Some(loc)
            }
        }
    }

    /// Process one batch across all shards *on the calling thread* under
    /// `config`, and report what it did.
    ///
    /// This is the concurrent serving core's data path: parallelism
    /// lives across the N network dispatchers that each call this
    /// concurrently. Each shard's sub-batch runs [`KvEngine::run_batch`]:
    /// no thread and no lock beyond the `sets` read guard (and, while a
    /// resize drains, the donor write locks its SETs and DELETEs need).
    /// A batch is a set of concurrent operations; each stage's tasks and
    /// index ops apply in plan order over the whole shard batch
    /// (DESIGN.md §9). Responses return in query order; the tally is the
    /// shards' sum.
    #[must_use]
    pub fn run_batch(
        &self,
        queries: Vec<Query>,
        config: PipelineConfig,
    ) -> (Vec<Response>, BatchTally) {
        let sets = self.sets.read();
        match &sets.donor {
            None => sets.primary.run_batch(queries, config),
            Some(donor) => Self::run_migrating(&sets.primary, donor, queries, config),
        }
    }

    /// A batch that lands while a resize drains (DESIGN.md §12): the
    /// settled run over the primary set, then — under the write locks of
    /// the donor shards its SETs and DELETEs route to — one pass over the
    /// donor set, then, with the locks released, a third probe of the
    /// GETs still missing. The tally is the primary run's plus the hits
    /// the two follow-up passes recover.
    fn run_migrating(
        primary: &ShardSet,
        donor: &ShardSet,
        queries: Vec<Query>,
        config: PipelineConfig,
    ) -> (Vec<Response>, BatchTally) {
        let mut locked: Vec<usize> = queries
            .iter()
            .filter(|q| q.op != QueryOp::Get)
            .map(|q| route_of(&q.key, donor.len()))
            .collect();
        locked.sort_unstable();
        locked.dedup();
        let guards: Vec<_> = locked.iter().map(|&d| donor.write_locks[d].lock()).collect();
        let (mut responses, mut tally) = primary.run_batch(queries.clone(), config);
        // A stored SET purges the donor copy. So does a DELETE, and
        // answers from it — unless the batch stored the key, which the
        // DELETE then met in the primary (Insert runs before Delete). A
        // GET that missed probes the donor.
        let stored: HashSet<&[u8]> = queries
            .iter()
            .zip(&responses)
            .filter(|(q, r)| q.op == QueryOp::Set && r.status == ResponseStatus::Ok)
            .map(|(q, _)| &q.key[..])
            .collect();
        donor.follow_up(&queries, &mut responses, &mut tally, config, |q, ok| match q.op {
            QueryOp::Set => ok.then(|| Query::delete(q.key.clone())),
            QueryOp::Delete => (!stored.contains(&q.key[..])).then(|| q.clone()),
            QueryOp::Get => (!ok).then(|| q.clone()),
        });
        drop(guards);
        // The worker may have moved a key between the first two probes.
        primary.follow_up(&queries, &mut responses, &mut tally, config, |q, ok| {
            (q.op == QueryOp::Get && !ok).then(|| q.clone())
        });
        (responses, tally)
    }

    /// [`ShardedEngine::run_batch`] under `config_for(0)`, responses only.
    // The per-shard closure has had one answer since the node got one
    // configuration cell; this spelling is kept only because the frozen
    // `benchmark/` package uses it.
    #[must_use]
    pub fn process_batch_inline(
        &self,
        queries: Vec<Query>,
        config_for: impl Fn(usize) -> PipelineConfig,
    ) -> Vec<Response> {
        self.run_batch(queries, config_for(0)).0
    }

    /// Install a `Migrating{old, new}` map: the current primary set
    /// becomes the donor, a fresh `n`-shard set (each shard sized to
    /// `per_shard`) becomes primary. Taking the `sets` write lock waits
    /// out every in-flight batch, so no batch ever runs against the old
    /// `Settled` view after this returns. Returns the new map epoch.
    pub fn begin_resize(&self, n: usize, per_shard: EngineConfig) -> Result<u32, ResizeError> {
        if n == 0 || n > MAX_SHARDS || per_shard.store_bytes < MIN_STORE_BYTES {
            return Err(ResizeError::BadCount);
        }
        let mut sets = self.sets.write();
        if sets.donor.is_some() {
            return Err(ResizeError::InProgress);
        }
        let old = sets.primary.len();
        if old == n {
            return Err(ResizeError::NoChange);
        }
        let fresh = Arc::new(ShardSet::build(n, per_shard, &self.clock));
        let donor = std::mem::replace(&mut sets.primary, fresh);
        sets.donor = Some(donor);
        *self.cursor.lock() = Some(MigrationCursor {
            donor_shard: 0,
            next_bucket: 0,
            buckets: 0,
        });
        Ok(self.map.publish(MapState::Migrating { old, new: n }))
    }

    /// Drain up to ~`max_keys` keys from the donor set (in
    /// [`MIGRATE_BUCKETS_PER_CHUNK`]-bucket steps; the last step may
    /// overshoot slightly). Intended to be called in a loop by the
    /// migration worker; safe to call concurrently with the data path.
    pub fn migrate_chunk(&self, max_keys: usize) -> MigrateProgress {
        let sets = self.sets.read();
        let Some(donor) = sets.donor.as_ref() else {
            return MigrateProgress { drained: true, ..MigrateProgress::default() };
        };
        let mut cursor_slot = self.cursor.lock();
        let Some(cur) = cursor_slot.as_mut() else {
            // Donor installed but sweep already finished: await settle.
            return MigrateProgress { drained: true, ..MigrateProgress::default() };
        };
        let mut progress = MigrateProgress::default();
        while progress.moved < max_keys.max(1) && cur.donor_shard < donor.len() {
            let d = &donor.engines[cur.donor_shard];
            let buckets = d.index.bucket_count();
            assert!(
                cur.next_bucket == 0 || buckets == cur.buckets,
                "donor shard {}'s index grew mid-walk: {} → {buckets} buckets",
                cur.donor_shard,
                cur.buckets
            );
            cur.buckets = buckets;
            if cur.next_bucket >= buckets {
                cur.donor_shard += 1;
                cur.next_bucket = 0;
                continue;
            }
            let step = MIGRATE_BUCKETS_PER_CHUNK.min(buckets - cur.next_bucket);
            // Serialize against SET/DELETE on this donor shard for the
            // whole step: the sweep's has_key/copy/delete must not
            // interleave with a dispatcher's write to the same key.
            let _wl = donor.write_locks[cur.donor_shard].lock();
            let mut locs = Vec::new();
            d.index
                .for_each_entry_in(cur.next_bucket..cur.next_bucket + step, |_sig, loc| {
                    locs.push(loc);
                });
            for loc in locs {
                match Self::migrate_one(d, &sets.primary, loc) {
                    Some(true) => progress.moved += 1,
                    Some(false) => progress.dropped += 1,
                    None => {}
                }
            }
            cur.next_bucket += step;
        }
        if cur.donor_shard >= donor.len() {
            *cursor_slot = None;
            progress.drained = true;
        }
        self.migrate_dropped
            .fetch_add(progress.dropped as u64, Ordering::Relaxed);
        progress
    }

    /// Move one donor index entry to its primary shard. `Some(true)` =
    /// copied, `Some(false)` = target rejected it (key dropped),
    /// `None` = nothing to move (dangling entry, or the key already
    /// reached primary via a concurrent SET). Caller holds the donor
    /// shard's write lock.
    fn migrate_one(d: &KvEngine, primary: &ShardSet, loc: u64) -> Option<bool> {
        let key = d.store.read_key(loc);
        if key.is_empty() || !d.store.key_matches(loc, &key) {
            // Dangling entry (the object was replaced or freed): nothing
            // to move; the donor index is dropped wholesale at settle.
            return None;
        }
        let kh = dido_hashtable::key_hash(&key);
        if d.store.is_expired(loc, d.now_secs()) {
            // Expired while awaiting its move: drop the donor copy here
            // instead of migrating it, so the data path's donor probe
            // can never resurrect a key that is already dead.
            d.remove(&UNMETERED, kh, loc);
            return None;
        }
        let target = primary.engine_of(&key);
        let mut outcome = None;
        if !target.has_key(&key) {
            let mut value = Vec::with_capacity(d.store.object_lens(loc).1);
            d.store.read_value(loc, &mut value);
            // The absolute deadline travels unchanged (load_object_at):
            // a donor→primary move must not re-base the expiry instant.
            let (deadline, cflags) = d.store.object_meta(loc);
            if let Some(new_loc) = target.load_object_at(&key, &value, deadline, cflags) {
                let (freq, epoch) = d.store.freq(loc);
                target.store.restore_clock(new_loc, freq, epoch);
                outcome = Some(true);
            } else {
                outcome = Some(false);
            }
        }
        d.remove(&UNMETERED, kh, loc);
        outcome
    }

    /// Flip the map to `Settled{new}` and retire the donor set,
    /// releasing its memory. The write lock again waits out in-flight
    /// batches, so no batch still holds the donor view afterwards.
    /// Donor op counters are folded into the retired baseline so
    /// aggregate [`ShardedEngine::op_counts`] accounting is preserved.
    /// Returns the new map epoch.
    pub fn settle_resize(&self) -> Result<u32, ResizeError> {
        let mut sets = self.sets.write();
        let cursor = self.cursor.lock();
        if sets.donor.is_none() {
            return Err(ResizeError::NotMigrating);
        }
        if cursor.is_some() {
            return Err(ResizeError::NotDrained);
        }
        drop(cursor);
        let donor = sets.donor.take().expect("checked above");
        for e in &donor.engines {
            sets.retired.merge(&e.op_counts());
        }
        Ok(self.map.publish(MapState::Settled {
            shards: sets.primary.len(),
        }))
    }

    /// Resize to `n` shards synchronously: install the migrating map,
    /// drain every donor key on the calling thread, settle. The data
    /// path stays fully available throughout (this is live resharding,
    /// just without a background worker).
    pub fn resize_blocking(&self, n: usize, per_shard: EngineConfig) -> Result<(), ResizeError> {
        self.begin_resize(n, per_shard)?;
        while !self.migrate_chunk(1024).drained {}
        self.settle_resize()?;
        Ok(())
    }

    /// Cumulative keys dropped by migrations because the target shard's
    /// store rejected them (should be 0 unless shrinking into too little
    /// capacity).
    #[must_use]
    pub fn migrate_dropped(&self) -> u64 {
        self.migrate_dropped.load(Ordering::Relaxed)
    }

    /// Fold `f` over every primary engine, then every donor engine
    /// while a resize drains, starting from `init(sets)`.
    fn fold_engines<T>(
        &self,
        init: impl FnOnce(&EngineSets) -> T,
        mut f: impl FnMut(&mut T, &KvEngine),
    ) -> T {
        let sets = self.sets.read();
        let mut acc = init(&sets);
        let donors = sets.donor.iter().flat_map(|d| &d.engines);
        for e in sets.primary.engines.iter().chain(donors) {
            f(&mut acc, e);
        }
        acc
    }

    /// Aggregate live objects across all current shards (donors
    /// included while migrating).
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.fold_engines(|_| 0, |n, e| *n += e.store.live_objects())
    }

    /// Bytes of every current shard's index bucket array (donors
    /// included while migrating).
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        self.fold_engines(|_| 0, |n, e| *n += e.index.bytes())
    }

    /// Arena bytes every current shard's store has carved into slots
    /// (donors included while migrating).
    #[must_use]
    pub fn store_carved_bytes(&self) -> usize {
        self.fold_engines(|_| 0, |n, e| *n += e.store.bytes_carved())
    }

    /// Aggregate pipeline op totals across current shards plus every
    /// retired donor set (so resizes never lose accounting).
    #[must_use]
    pub fn op_counts(&self) -> OpCounts {
        self.fold_engines(|sets| sets.retired, |total, e| total.merge(&e.op_counts()))
    }

    /// Proactive TTL expiry: sweep up to `max_segments_per_shard`
    /// expired segments on every *primary* shard (donors are left to
    /// drain — their expired objects are dropped by the migration walk
    /// instead, which already holds the per-shard write lock). Returns
    /// aggregate `(objects purged, segments reclaimed)`.
    pub fn sweep_expired(&self, max_segments_per_shard: usize) -> (usize, usize) {
        let sets = self.sets.read();
        let mut purged = 0;
        let mut segments = 0;
        for e in &sets.primary.engines {
            let (p, s) = e.sweep_expired(max_segments_per_shard);
            purged += p;
            segments += s;
        }
        (purged, segments)
    }

    /// Cumulative expiry-reclamation counters summed across every
    /// current shard (donors included while a resize drains — their
    /// pre-migration reclaims still count).
    #[must_use]
    pub fn expiry_stats(&self) -> ExpiryStats {
        self.fold_engines(
            |_| ExpiryStats::default(),
            |total, e| total.merge(&e.store.expiry_stats()),
        )
    }

    /// Per-class memory gauges merged across every current shard
    /// (donors included while a resize drains — their objects are
    /// resident too): every shard carves the same class ladder, so
    /// classes are matched by slot size and summed.
    #[must_use]
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let mut merged = self.fold_engines(
            |_| Vec::<ClassStats>::new(),
            |merged, e| {
                for c in e.store.class_stats() {
                    match merged.iter_mut().find(|m| m.class_bytes == c.class_bytes) {
                        Some(m) => {
                            m.live_objects += c.live_objects;
                            m.free_slots += c.free_slots;
                            m.live_bytes += c.live_bytes;
                            m.frag_bytes += c.frag_bytes;
                            m.open_segments += c.open_segments;
                        }
                        None => merged.push(c),
                    }
                }
            },
        );
        merged.sort_by_key(|c| c.class_bytes);
        merged
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (state, epoch) = self.map.load();
        f.debug_struct("ShardedEngine")
            .field("map", &state)
            .field("epoch", &epoch)
            .field("live_objects", &self.live_objects())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_model::ResponseStatus;

    fn cfg() -> EngineConfig {
        EngineConfig::new(1 << 20, 64 << 10, 16 << 10)
    }

    fn sharded(n: usize) -> ShardedEngine {
        ShardedEngine::new(n, cfg())
    }

    #[test]
    fn routing_is_stable_and_spread() {
        let s = sharded(4);
        let mut counts = [0usize; 4];
        for i in 0..10_000 {
            let key = format!("route-{i}");
            let a = s.shard_of(key.as_bytes());
            let b = s.shard_of(key.as_bytes());
            assert_eq!(a, b, "routing must be deterministic");
            counts[a] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (1_500..=3_500).contains(&c),
                "shard {i} got {c} of 10000 — poor spread"
            );
        }
    }

    #[test]
    fn routing_spread_holds_for_non_power_of_two_counts() {
        // The multiply-shift reduction must stay even when the shard
        // count does not divide the hash range (the old `% n` over 16
        // high bits was biased here).
        for n in [3usize, 5, 6, 7] {
            let s = sharded(n);
            let mut counts = vec![0usize; n];
            for i in 0..12_000 {
                counts[s.shard_of(format!("spread-{i}").as_bytes())] += 1;
            }
            let expect = 12_000 / n;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    c > expect / 2 && c < expect * 2,
                    "{n} shards: shard {i} got {c}, expected ~{expect}"
                );
            }
        }
    }

    #[test]
    fn single_query_api_round_trips() {
        let s = sharded(3);
        assert_eq!(
            s.execute(&Query::set("sk", "sv")).status,
            ResponseStatus::Ok
        );
        let r = s.execute(&Query::get("sk"));
        assert_eq!(&r.value[..], b"sv");
        assert_eq!(s.live_objects(), 1);
    }

    #[test]
    fn partitioned_batch_preserves_order_and_sums_the_shards_tallies() {
        let s = sharded(3);
        for i in 0..400 {
            s.execute(&Query::set(format!("inl-{i:03}"), format!("w{i:03}")));
        }
        let queries: Vec<Query> = (0..400).map(|i| Query::get(format!("inl-{i:03}"))).collect();
        let (responses, tally) = s.run_batch(queries, PipelineConfig::mega_kv());
        assert_eq!(responses.len(), 400);
        assert_eq!((tally.queries, tally.gets, tally.hits), (400, 400, 400));
        assert_eq!((tally.key_bytes, tally.hit_value_bytes), (400 * 7, 400 * 4));
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.status, ResponseStatus::Ok, "inl-{i}");
            assert_eq!(r.value, format!("w{i:03}"), "order broken at {i}");
        }
    }

    #[test]
    fn inline_single_shard_fast_path_answers() {
        let s = sharded(1);
        s.execute(&Query::set("solo", "v"));
        let responses = s.process_batch_inline(
            vec![Query::get("solo"), Query::get("missing")],
            |_| PipelineConfig::cpu_only(),
        );
        assert_eq!(responses[0].value, "v");
        assert_ne!(responses[1].status, ResponseStatus::Ok);
    }

    #[test]
    fn shards_are_isolated() {
        let s = sharded(2);
        s.execute(&Query::set("iso-key", "x"));
        let owner = s.shard_of(b"iso-key");
        let other = (owner + 1) % 2;
        assert_eq!(s.shard(owner).store.live_objects(), 1);
        assert_eq!(s.shard(other).store.live_objects(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = sharded(0);
    }

    #[test]
    fn blocking_resize_preserves_every_key() {
        let s = sharded(1);
        for i in 0..800 {
            s.execute(&Query::set(format!("mig-{i}"), format!("val-{i}")));
        }
        assert_eq!(s.live_objects(), 800);
        let e0 = s.shard_map().load().1;
        s.resize_blocking(4, cfg()).unwrap();
        assert_eq!(s.shard_count(), 4);
        assert!(!s.is_migrating());
        // Two epoch bumps: Migrating install + Settled flip.
        assert_eq!(s.shard_map().load().1, e0 + 2);
        assert_eq!(s.live_objects(), 800);
        assert_eq!(s.migrate_dropped(), 0);
        for i in 0..800 {
            let r = s.execute(&Query::get(format!("mig-{i}")));
            assert_eq!(r.status, ResponseStatus::Ok, "mig-{i} lost in resize");
            assert_eq!(r.value, format!("val-{i}"));
        }
        // Keys now live in their routed shard and nowhere else.
        for i in 0..50 {
            let key = format!("mig-{i}");
            let owner = s.shard_of(key.as_bytes());
            assert!(s.shard(owner).has_key(key.as_bytes()));
            for other in (0..4).filter(|&o| o != owner) {
                assert!(!s.shard(other).has_key(key.as_bytes()));
            }
        }
    }

    #[test]
    fn shrink_resize_preserves_every_key() {
        let s = sharded(4);
        for i in 0..600 {
            s.execute(&Query::set(format!("shr-{i}"), format!("v-{i}")));
        }
        // Shrink into one shard with the full capacity of the original
        // four, so nothing is dropped.
        s.resize_blocking(1, EngineConfig::new(4 << 20, 64 << 10, 16 << 10))
            .unwrap();
        assert_eq!(s.shard_count(), 1);
        assert_eq!(s.live_objects(), 600);
        for i in 0..600 {
            assert_eq!(s.execute(&Query::get(format!("shr-{i}"))).value, format!("v-{i}"));
        }
    }

    #[test]
    fn data_path_is_correct_mid_migration() {
        let s = sharded(1);
        for i in 0..400 {
            s.execute(&Query::set(format!("mid-{i}"), format!("old-{i}")));
        }
        s.begin_resize(4, cfg()).unwrap();
        assert!(s.is_migrating());
        // Move only part of the keyspace.
        let p = s.migrate_chunk(50);
        assert!(p.moved >= 50 && !p.drained, "{p:?}");
        // Every key still readable regardless of which side it is on.
        for i in 0..400 {
            let r = s.execute(&Query::get(format!("mid-{i}")));
            assert_eq!(r.status, ResponseStatus::Ok, "mid-{i} unreadable mid-migration");
            assert_eq!(r.value, format!("old-{i}"));
        }
        // Overwrites during migration land in the primary and never
        // resurface the stale donor copy.
        for i in 0..400 {
            s.execute(&Query::set(format!("mid-{i}"), format!("new-{i}")));
        }
        // Deletes during migration remove from both sides.
        assert_eq!(s.execute(&Query::delete("mid-0")).status, ResponseStatus::Ok);
        assert_eq!(
            s.execute(&Query::get("mid-0")).status,
            ResponseStatus::NotFound
        );
        while !s.migrate_chunk(1024).drained {}
        s.settle_resize().unwrap();
        for i in 1..400 {
            let r = s.execute(&Query::get(format!("mid-{i}")));
            assert_eq!(r.value, format!("new-{i}"), "stale value resurfaced for mid-{i}");
        }
        assert_eq!(
            s.execute(&Query::get("mid-0")).status,
            ResponseStatus::NotFound,
            "deleted key resurrected by migration"
        );
        // Overwritten versions linger as store garbage (memcached
        // semantics), so live_objects is a ceiling check only.
        assert!(s.live_objects() >= 399);
    }

    #[test]
    fn migration_carries_clock_metadata() {
        let s = sharded(1);
        s.execute(&Query::set("hot", "h"));
        // Heat the key up.
        for _ in 0..9 {
            let _ = s.execute(&Query::get("hot"));
        }
        s.resize_blocking(2, cfg()).unwrap();
        let owner = s.shard_of(b"hot");
        let e = s.shard(owner);
        let mut freq = 0;
        e.index.for_each_entry(|_sig, loc| {
            if e.store.key_matches(loc, b"hot") {
                freq = e.store.freq(loc).0;
            }
        });
        assert!(freq >= 9, "CLOCK frequency lost in migration: {freq}");
    }

    #[test]
    fn migration_preserves_ttl_deadlines() {
        use dido_model::MockClock;
        let clock = Arc::new(MockClock::at(10_000));
        let s = ShardedEngine::with_clock(1, cfg(), clock.clone());
        s.execute(&Query::set_with("ttl-long", "v", 100, 0));
        s.execute(&Query::set_with("ttl-short", "v", 5, 0));
        s.execute(&Query::set("ttl-never", "v"));
        clock.advance(50); // short is now dead, long has 50 s left
        s.resize_blocking(4, cfg()).unwrap();
        assert_eq!(
            s.execute(&Query::get("ttl-short")).status,
            ResponseStatus::NotFound,
            "expired key resurrected by migration"
        );
        assert_eq!(s.execute(&Query::get("ttl-long")).status, ResponseStatus::Ok);
        clock.advance(49);
        assert_eq!(
            s.execute(&Query::get("ttl-long")).status,
            ResponseStatus::Ok,
            "deadline shortened by migration (expired early)"
        );
        clock.advance(1);
        assert_eq!(
            s.execute(&Query::get("ttl-long")).status,
            ResponseStatus::NotFound,
            "deadline re-based by migration (expired late)"
        );
        assert_eq!(s.execute(&Query::get("ttl-never")).status, ResponseStatus::Ok);
    }

    #[test]
    fn set_with_ttl_during_migration_keeps_its_deadline() {
        use dido_model::MockClock;
        let clock = Arc::new(MockClock::at(2_000));
        let s = ShardedEngine::with_clock(1, cfg(), clock.clone());
        for i in 0..200 {
            s.execute(&Query::set(format!("fill-{i}"), "v"));
        }
        s.begin_resize(2, cfg()).unwrap();
        // A SET landing mid-migration goes through the locked donor
        // path; its TTL must not be dropped on the floor there.
        s.execute(&Query::set_with("mid-ttl", "v", 30, 0));
        assert_eq!(s.execute(&Query::get("mid-ttl")).status, ResponseStatus::Ok);
        while !s.migrate_chunk(1024).drained {}
        s.settle_resize().unwrap();
        clock.advance(30);
        assert_eq!(
            s.execute(&Query::get("mid-ttl")).status,
            ResponseStatus::NotFound,
            "TTL lost by the migrating SET path"
        );
    }

    #[test]
    fn sweep_expired_covers_every_primary_shard() {
        use dido_model::MockClock;
        let clock = Arc::new(MockClock::at(3_000));
        let s = ShardedEngine::with_clock(4, cfg(), clock.clone());
        for i in 0..120 {
            s.execute(&Query::set_with(format!("sw-{i}"), "v", 10, 0));
            s.execute(&Query::set(format!("keep-{i}"), "v"));
        }
        clock.advance(60);
        let (purged, segments) = s.sweep_expired(usize::MAX);
        assert_eq!(purged, 120);
        assert!(segments >= 4, "every shard should reclaim at least one segment");
        assert_eq!(s.live_objects(), 120);
        assert_eq!(s.execute(&Query::get("keep-7")).status, ResponseStatus::Ok);
    }

    #[test]
    fn resize_state_machine_rejects_misuse() {
        let s = sharded(2);
        assert_eq!(s.begin_resize(2, cfg()), Err(ResizeError::NoChange));
        assert_eq!(s.begin_resize(0, cfg()), Err(ResizeError::BadCount));
        assert_eq!(s.settle_resize(), Err(ResizeError::NotMigrating));
        s.execute(&Query::set("sm", "v"));
        s.begin_resize(3, cfg()).unwrap();
        assert_eq!(s.begin_resize(4, cfg()), Err(ResizeError::InProgress));
        assert_eq!(s.settle_resize(), Err(ResizeError::NotDrained));
        while !s.migrate_chunk(64).drained {}
        s.settle_resize().unwrap();
        assert_eq!(s.execute(&Query::get("sm")).value, "v");
    }

    #[test]
    fn op_counts_survive_a_resize() {
        let s = sharded(2);
        for i in 0..300 {
            s.execute(&Query::set(format!("oc-{i}"), "v"));
        }
        let queries: Vec<Query> = (0..300).map(|i| Query::get(format!("oc-{i}"))).collect();
        let _ = s.process_batch_inline(queries, |_| PipelineConfig::cpu_only());
        let before = s.op_counts();
        assert!(before.index_searches >= 300, "{before:?}");
        s.resize_blocking(3, cfg()).unwrap();
        let after = s.op_counts();
        assert_eq!(before, after, "resize must not lose pipeline op accounting");
    }
}
