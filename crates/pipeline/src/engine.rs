//! The shared functional state of a key-value node: index + object
//! store + op counters + clock + deferred purges. Nothing here is
//! simulated; the reproduction keeps its cache filters and NIC beside an
//! engine, in its own crate.

use crate::batch::Batch;
use crate::tasks::{self, Meter, NoMeter, StageCtx, KH_NONE};
use dido_hashtable::{
    key_hash, prefetch_read, tagged, untagged, IndexTable, InsertError, KeyHash, PROBE_WAVEFRONT,
};
use dido_kvstore::{ObjectStore, PurgedEntry};
use dido_model::{
    metric_table, ttl_to_deadline, BatchTally, Counter, PipelineConfig, Processor, Query,
    ResourceUsage, Response, SharedClock, SystemClock, TaskSet,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Context for a [`KvEngine::unlink`] or [`KvEngine::remove`] made
/// outside any stage (single-object loads, `purge_key`, the
/// controller's sweep, the migration walk): nothing is priced.
pub(crate) const UNMETERED: StageCtx = StageCtx {
    processor: Processor::Cpu,
    stage_tasks: TaskSet::EMPTY,
    cache_line: 64,
    meter: NoMeter,
};

/// Death records that must cross a batch boundary — the expired hits
/// `KC` observes after its batch's `IN`-Delete has already run — behind
/// a lock-free emptiness gate: the batched hot path drains this once
/// per sub-batch, and with TTLs absent or idle the drain is a single
/// relaxed-ish atomic read instead of a mutex acquisition.
pub(crate) struct DeferredPurges {
    nonempty: AtomicBool,
    entries: Mutex<Vec<PurgedEntry>>,
}

impl DeferredPurges {
    fn new() -> DeferredPurges {
        DeferredPurges {
            nonempty: AtomicBool::new(false),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Queue purge requests. The flag is raised while the lock is held,
    /// so a drain that observed it lowered either ran before this push
    /// (entries survive for the next drain) or already holds the
    /// entries it swept.
    pub(crate) fn push(&self, batch: impl IntoIterator<Item = PurgedEntry>) {
        let mut entries = self.entries.lock();
        entries.extend(batch);
        if !entries.is_empty() {
            self.nonempty.store(true, Ordering::Release);
        }
    }

    /// Take every queued request; returns an empty vec (no allocation,
    /// no lock) when nothing is pending.
    pub(crate) fn drain(&self) -> Vec<PurgedEntry> {
        if !self.nonempty.swap(false, Ordering::AcqRel) {
            return Vec::new();
        }
        std::mem::take(&mut *self.entries.lock())
    }
}

/// Sizing knobs for a [`KvEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Object-store arena bytes (the paper's APU shares 1,908 MB; tests
    /// and experiments use a scaled-down region with the same
    /// cache-to-store ratio dynamics).
    pub store_bytes: usize,
    /// CPU last-level cache bytes. The engine only carries this: it
    /// sizes the hot-set filter of a simulator driving the engine.
    pub cpu_cache_bytes: u64,
    /// GPU cache bytes (likewise simulator-only).
    pub gpu_cache_bytes: u64,
}

impl EngineConfig {
    /// Sizing derived from a hardware spec with a scaled store.
    #[must_use]
    pub fn new(store_bytes: usize, cpu_cache_bytes: u64, gpu_cache_bytes: u64) -> EngineConfig {
        EngineConfig {
            store_bytes,
            cpu_cache_bytes,
            gpu_cache_bytes,
        }
    }
}

/// Sizing of a whole node, before it is split into shards.
// Defined here rather than beside `dido::DidoOptions`, which carries it,
// only because the frozen `benchmark/` package spells it
// `dido_pipeline::TestbedOptions`.
#[derive(Debug, Clone, Copy)]
pub struct TestbedOptions {
    /// Object-store bytes. Experiments default to a scaled-down region
    /// (the paper's 1,908 MB shared area, shrunk while keeping the
    /// cache:store ratio dynamics); tests use a few MB.
    pub store_bytes: usize,
    /// RNG seed for the workload generator.
    pub seed: u64,
    /// Scale the cache filters by `store_bytes / hw.mem.shared_bytes`
    /// so the cache-to-store ratio (and therefore the Zipf hot-set
    /// fraction `P`) matches the paper's full-size testbed. On by
    /// default; turn off to use the raw hardware cache sizes.
    pub scale_caches: bool,
}

impl Default for TestbedOptions {
    fn default() -> TestbedOptions {
        TestbedOptions {
            store_bytes: 64 << 20,
            seed: 0xD1D0,
            scale_caches: true,
        }
    }
}

/// Result of an index↔store cross-check (see
/// [`KvEngine::verify_integrity`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Index entries examined.
    pub entries: usize,
    /// Entries whose location points at a dead/freed object.
    pub dangling: usize,
    /// Entries whose object is live but whose key hashes to a different
    /// signature (corruption; must always be 0).
    pub mismatched: usize,
}

impl IntegrityReport {
    /// No corruption and no dangling entries.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.dangling == 0 && self.mismatched == 0
    }
}

metric_table! {
    /// Write side of [`OpCounts`] (incremented by the task functions in
    /// `tasks.rs`).
    pub(crate) struct OpCounters;
    /// Snapshot of the per-task operation totals applied through the
    /// pipeline tasks (`MM` allocations and the three `IN` operation
    /// kinds). Every count is driven by the *workload* — e.g. one index
    /// search per GET, one allocation and one upsert per SET — so a
    /// test can compute the exact expected totals and detect a
    /// duplicated task execution as an inflated counter.
    pub struct OpCounts;

    /// `MM` allocation attempts (one per SET processed).
    mm_allocs: Counter,
    /// `IN`-Search lookups (one per GET processed).
    index_searches: Counter,
    /// `IN`-Insert upserts (one per SET whose allocation succeeded).
    index_inserts: Counter,
    /// `IN`-Delete removals applied (eviction cleanups + explicit
    /// DELETEs that matched).
    index_deletes: Counter,
    /// Objects `KC` found expired on access and queued for a lazy
    /// purge.
    expired_lazy: Counter,
    /// Versions a SET replaced that [`KvEngine::run_batch`] freed at the
    /// end of the batch (one per overwrite whose slot still held the
    /// replaced object).
    replaced_freed: Counter,
    /// Doublings of the index, whatever asked for the room (`IN`-Insert,
    /// a single-object load, an insert that found no slot). Not driven
    /// by the op mix alone: it depends on where the index started.
    index_grows: Counter,
}

/// Entries a serving engine's index starts with room for: 256 buckets,
/// 8 KiB, whatever the store's size. It doubles as keys arrive.
const INDEX_START_ENTRIES: usize = 768;

/// The functional key-value node shared by every pipeline configuration:
/// cuckoo index, slab object store, and the sampling epoch for skew
/// estimation.
pub struct KvEngine {
    id: u64,
    cfg: EngineConfig,
    /// The cuckoo hash index (the `IN` task's data structure).
    pub index: IndexTable,
    /// The key-value object store (`MM`/`KC`/`RD`).
    pub store: ObjectStore,
    epoch: AtomicU32,
    pub(crate) ops: OpCounters,
    pub(crate) clock: SharedClock,
    /// Expired objects observed by the batched `KC` path, awaiting
    /// purge. Within a batch `IN`-Delete has already run by the time
    /// `KC` compares keys, so the purge (index delete + slot free) is
    /// deferred here and drained by the next batch's `IN`-Delete or the
    /// background sweeper — off the response critical path either way.
    pub(crate) pending_expired: DeferredPurges,
    /// Upserts replace whichever entry of their signature they meet in
    /// their bucket pair, another key's included, as Mega-KV's do
    /// ([`KvEngine::mega_kv`]). A serving engine replaces only its own
    /// key's entry ([`KvEngine::same_key`]).
    by_signature: bool,
}

impl KvEngine {
    /// Build an engine on the system wall clock.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> KvEngine {
        KvEngine::with_clock(cfg, Arc::new(SystemClock))
    }

    /// Build an engine on an injected clock (tests use a mock so TTL
    /// expiry is driven explicitly instead of by sleeping).
    #[must_use]
    pub fn with_clock(cfg: EngineConfig, clock: SharedClock) -> KvEngine {
        // The index grows with the keys, not with the store: it starts
        // at a few KiB and doubles ahead of each insert that would take
        // it past its load target, so its size tracks the live entries
        // whatever `store_bytes` is.
        let index = IndexTable::with_capacity(INDEX_START_ENTRIES);
        KvEngine::build(cfg, clock, index, ObjectStore::new(cfg.store_bytes), false)
    }

    /// An engine with Mega-KV's index and store (paper §II-B), the only
    /// kind the reproduction builds, on the system wall clock. The index
    /// is sized once for every object of the store in the smallest (32 B)
    /// class, so it never nears its load target and never grows: its
    /// geometry, and with it every priced bucket probe, follows the
    /// store, not the keys. Its upserts replace by signature alone, so
    /// two keys of one signature in one bucket pair displace each other,
    /// as in the paper's systems. The store's size classes are powers of
    /// two ([`ObjectStore::mega_kv`]), so a full store holds the object
    /// counts the experiments were recorded with.
    #[must_use]
    pub fn mega_kv(cfg: EngineConfig) -> KvEngine {
        let index = IndexTable::with_capacity((cfg.store_bytes / 32).max(16));
        let store = ObjectStore::mega_kv(cfg.store_bytes);
        KvEngine::build(cfg, Arc::new(SystemClock), index, store, true)
    }

    fn build(
        cfg: EngineConfig,
        clock: SharedClock,
        index: IndexTable,
        store: ObjectStore,
        by_signature: bool,
    ) -> KvEngine {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        KvEngine {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            cfg,
            index,
            store,
            epoch: AtomicU32::new(1),
            ops: OpCounters::default(),
            clock,
            pending_expired: DeferredPurges::new(),
            by_signature,
        }
    }

    /// The sizing this engine was built from (a simulator sizes its
    /// cache filters from it).
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Process-unique identity: a simulator keeps its cache filters per
    /// engine, and an address can be reused by a later engine.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine's clock (shared with codecs and sweeper so every
    /// layer agrees on "now").
    #[must_use]
    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.clock)
    }

    /// Current unix time in seconds as this engine sees it.
    #[must_use]
    pub fn now_secs(&self) -> u32 {
        self.clock.now_secs()
    }

    /// Totals of `MM`/`IN` operations applied through the pipeline tasks
    /// (not the single-object loads of preload and migration). See
    /// [`OpCounts`] for what race tests derive from these.
    #[must_use]
    pub fn op_counts(&self) -> OpCounts {
        self.ops.snapshot()
    }

    /// Whether the index entry `(cookie, loc)` has been *refreshed*
    /// since the death record naming it was written: the slot was
    /// freed, then recycled to the **same key at the same location**
    /// (LIFO free lists make this common), so the entry now belongs to
    /// a fresh live object and must survive. A slot recycled to a
    /// different key leaves the old entry dangling — deleting it is
    /// still correct (the fresh occupant's entry has a different sig).
    fn entry_refreshed(&self, p: &PurgedEntry, now: u32) -> bool {
        self.store.slot_live(p.loc)
            && !self.store.is_expired(p.loc, now)
            && self.store.key_cookie(p.loc) == p.cookie
    }

    /// Drop the index entries of dead objects. Every death — CLOCK
    /// eviction, the expiry crawl, lazy expiry — ends here and nowhere
    /// else. Per record: the [`KvEngine::entry_refreshed`] guard spares
    /// an entry a recycled slot made fresh; otherwise `(cookie, loc)`
    /// leaves the index, and the slot is settled by the store's
    /// deadline-revalidating free, which releases a lazily-expired
    /// object still sitting there and does nothing to a slot that is
    /// already free or holds a fresh occupant. Records go to the index
    /// one prefetched probe wavefront at a time. Returns how many
    /// passed the guard.
    pub(crate) fn unlink<M: Meter>(&self, ctx: &StageCtx<M>, dead: &[PurgedEntry]) -> usize {
        if dead.is_empty() {
            return 0; // the common batch: no clock read, no gather buffers
        }
        let now = self.clock.now_secs();
        let mut items = [(KH_NONE, 0u64); PROBE_WAVEFRONT];
        let mut removed = [false; PROBE_WAVEFRONT];
        let mut unlinked = 0;
        for chunk in dead.chunks(PROBE_WAVEFRONT) {
            let mut n = 0;
            for p in chunk.iter().filter(|p| !self.entry_refreshed(p, now)) {
                items[n] = (KeyHash::from_hash(p.cookie), p.loc);
                n += 1;
            }
            if n == 0 {
                continue;
            }
            M::index_op(ctx, self.index.delete_batch(&items[..n], &mut removed[..n]));
            for &(_, loc) in &items[..n] {
                if self.store.expire_if_due(loc, now) {
                    M::freed(ctx, loc);
                }
            }
            unlinked += n;
        }
        unlinked
    }

    /// Drop a *live* object whose key the caller has just compared at
    /// `loc`: `(kh, loc)` leaves the index, then the slot is freed. The
    /// index delete is the ownership handoff — whoever removes the
    /// entry frees the slot. When the entry is already gone a racing
    /// DELETE or unlink won it and owns the slot; freeing here as well
    /// could kill an object a SET has since put there. Returns whether
    /// this call removed the entry.
    pub(crate) fn remove<M: Meter>(&self, ctx: &StageCtx<M>, kh: KeyHash, loc: u64) -> bool {
        let (removed, usage) = self.index.delete(kh, loc);
        M::index_op(ctx, usage);
        if removed {
            self.store.free(loc);
            M::freed(ctx, loc);
        }
        removed
    }

    /// Growth's rehash: for each index entry's `values` (a [`tagged`]
    /// location), its key's full hash, or `None` when the entry is stale —
    /// its slot no longer holds the live object of its tag (a CLOCK
    /// victim awaiting `IN`-Delete, or a dead slot), which `IN`-Delete or
    /// a purge would drop anyway. The objects are prefetched first, a
    /// wavefront at a time, as `KC` prefetches its candidates. Each key is
    /// hashed where it lies in the arena and the incarnation rechecked
    /// after, as `RD` rechecks a copy, so a slot recycled under the read
    /// is refused, never misplaced. Takes no store lock; the index
    /// compares each hash's signature with its entry's itself.
    fn rehash(&self, values: &[u64], hashes: &mut [Option<u64>]) {
        for &value in values {
            prefetch_read(self.store.object_ptr(untagged(value).0));
        }
        for (&value, hash) in values.iter().zip(hashes) {
            let (loc, tag) = untagged(value);
            let cookie = self.store.key_cookie(loc);
            *hash = self.store.holds(loc, tag).then_some(cookie);
        }
    }

    fn count_grows(&self, doublings: u32) {
        if doublings > 0 {
            self.ops.index_grows.add(u64::from(doublings));
        }
    }

    /// Whether the index entry `value` (a [`tagged`] location), found
    /// under `key`'s signature, may give way to a new version of `key`:
    /// it is `key`'s own, or stale — its slot no longer holds the live
    /// object of its tag. Another key's live entry may not: the two keys
    /// share a signature, and a SET of one must not unindex the other.
    /// The key is compared before the incarnation is rechecked, as `RD`
    /// copies before it rechecks. Mega-KV's engine asks nothing.
    fn same_key(&self, key: &[u8], value: u64) -> bool {
        if self.by_signature {
            return true;
        }
        let (loc, tag) = untagged(value);
        self.store.key_matches(loc, key) || !self.store.holds(loc, tag)
    }

    /// Upsert a wavefront of new versions — `items[k]` of key
    /// `key_of(k)` — in order, each replacing only an entry
    /// [`KvEngine::same_key`] accepts ([`IndexTable::upsert_batch_with`]).
    /// The index doubles first if they would take it past its load
    /// target, and again whenever one finds no slot, which is then
    /// retried: no version is refused for want of index room, only one
    /// whose location does not fit. `IN`-Insert calls this once per
    /// wavefront, a single-object load once per object. Returns the
    /// usage of every probe.
    pub(crate) fn upsert_wavefront<'k>(
        &self,
        items: &[(KeyHash, u64)],
        key_of: impl Fn(usize) -> &'k [u8],
        outs: &mut [Result<Option<u64>, InsertError>],
    ) -> ResourceUsage {
        self.count_grows(self.index.reserve(items.len(), |v, h| self.rehash(v, h)));
        let mut usage = ResourceUsage::ZERO;
        let mut at = 0;
        while at < items.len() {
            let seen = self.index.bucket_count();
            let (u, applied) =
                self.index
                    .upsert_batch_with(&items[at..], &mut outs[at..], |k, v| {
                        self.same_key(key_of(at + k), v)
                    });
            usage += u;
            at += applied;
            if at < items.len() {
                self.count_grows(self.index.grow(seen, |v, h| self.rehash(v, h)));
            }
        }
        usage
    }

    /// Proactive expiry: crawl up to `max_chunks` chunks of the store's
    /// CLOCK rings for objects past their deadline, free them, and drop
    /// their index entries (the crawl hashes each key in place). Driven
    /// from the serving controller thread; also useful directly in
    /// tests. Returns `(objects purged, chunks that freed something)`.
    pub fn sweep_expired(&self, max_chunks: usize) -> (usize, usize) {
        // The lazy expiries `KC` deferred go first, so they cannot
        // outlive a traffic stall.
        self.unlink(&UNMETERED, &self.pending_expired.drain());
        let mut purged = Vec::new();
        let now = self.clock.now_secs();
        let chunks = self.store.sweep_expired(now, max_chunks, &mut purged);
        self.unlink(&UNMETERED, &purged);
        (purged.len(), chunks)
    }

    /// Current skew-sampling epoch.
    #[must_use]
    pub fn sample_epoch(&self) -> u32 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Start a new sampling interval; returns the new epoch.
    pub fn advance_sample_epoch(&self) -> u32 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Cross-check every index entry against the object store: the
    /// object must be live and its key must hash back to the entry's
    /// signature. Dangling entries can exist transiently (an eviction's
    /// index delete races a concurrent upsert); signature mismatches
    /// never should. Intended for tests and offline verification.
    #[must_use]
    pub fn verify_integrity(&self) -> IntegrityReport {
        let mut report = IntegrityReport::default();
        self.index.for_each_entry(|sig, loc| {
            report.entries += 1;
            let key = self.store.read_key(loc);
            if key.is_empty() || !self.store.key_matches(loc, &key) {
                report.dangling += 1;
                return;
            }
            if key_hash(&key).sig != sig {
                report.mismatched += 1;
            }
        });
        report
    }

    /// Every live key-value pair as a replayable sequence of SET
    /// queries, so a node's contents survive restarts or move between
    /// systems: written out with `dido_net::write_trace`, a restore is
    /// `read_trace` plus [`KvEngine::execute`] per query.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Query> {
        let now = self.clock.now_secs();
        let mut sets = Vec::with_capacity(self.index.len());
        self.index.for_each_entry(|_sig, loc| {
            let key = self.store.read_key(loc);
            if key.is_empty() || !self.store.key_matches(loc, &key) {
                return; // dangling entry: skip
            }
            if self.store.is_expired(loc, now) {
                return; // expired: a restore must not resurrect it
            }
            let mut value = Vec::with_capacity(self.store.object_lens(loc).1);
            self.store.read_value(loc, &mut value);
            // Remaining lifetime travels as a relative TTL, so a restore
            // re-bases it on the restoring engine's clock.
            let (deadline, cflags) = self.store.object_meta(loc);
            let ttl = if deadline == 0 { 0 } else { deadline - now };
            sets.push(Query::set_with(key, value, ttl, cflags));
        });
        sets
    }

    /// Store one object outside any batch — preload, and shard
    /// migration through [`KvEngine::load_object_at`]: slab allocation,
    /// `unlink` for whatever died to make room, then index upsert, the
    /// index growing first if it must. Returns the new object's
    /// location, or `None` if the store rejected it. Served SETs run the
    /// `MM` and `IN` tasks instead.
    pub fn load_object(&self, key: &[u8], value: &[u8]) -> Option<u64> {
        self.load_object_with(key, value, 0, 0)
    }

    /// [`KvEngine::load_object`] with protocol metadata (*relative* TTL
    /// seconds and opaque client flags; 0 = unset). The TTL is converted
    /// to an absolute deadline against this engine's clock.
    pub fn load_object_with(&self, key: &[u8], value: &[u8], ttl: u32, flags: u32) -> Option<u64> {
        self.load_object_at(key, value, ttl_to_deadline(ttl, self.clock.now_secs()), flags)
    }

    /// Deadline-preserving variant of [`KvEngine::load_object_with`]:
    /// stores an already-absolute unix-seconds deadline unchanged. Shard
    /// migration uses this so a key's expiry instant survives a
    /// donor→primary move instead of being re-based on "now".
    pub fn load_object_at(&self, key: &[u8], value: &[u8], deadline: u32, flags: u32) -> Option<u64> {
        let kh = key_hash(key);
        let now = self.clock.now_secs();
        let out = self
            .store
            .allocate_with(key, value, deadline, flags, now, kh.hash)
            .ok()?;
        // Allocation pressure may have crawled expired objects and
        // evicted a CLOCK victim; their index entries go before anything
        // can re-probe them.
        self.unlink(&UNMETERED, &out.reclaimed);
        self.unlink(&UNMETERED, out.evicted.as_slice());
        let mut upserted = [Ok(None)];
        self.upsert_wavefront(&[(kh, tagged(out.loc, out.tag))], |_| key, &mut upserted);
        match upserted[0] {
            Ok(_replaced) => {
                // A replaced version is left to CLOCK here, as the
                // reproduction's preloaded full store assumes (paper
                // §V-A). Served SETs free theirs when their batch ends
                // (`run_batch`).
                Some(out.loc)
            }
            Err(_too_large) => {
                self.store.free(out.loc);
                None
            }
        }
    }

    /// Whether `key` is live in this engine (index entry pointing at a
    /// matching live object).
    #[must_use]
    pub fn has_key(&self, key: &[u8]) -> bool {
        let (cands, _) = self.index.search(key_hash(key));
        cands
            .as_slice()
            .iter()
            .any(|&loc| self.store.key_matches(loc, key))
    }

    /// Remove `key` from this engine (search, compare, then `remove`);
    /// `true` if a live entry was removed. `ShardedEngine::load`'s
    /// donor-side cleanup while a resize drains.
    pub fn purge_key(&self, key: &[u8]) -> bool {
        let kh = key_hash(key);
        let (cands, _) = self.index.search(kh);
        cands
            .as_slice()
            .iter()
            .any(|&loc| self.store.key_matches(loc, key) && self.remove(&UNMETERED, kh, loc))
    }

    /// The executor: `queries` through `config`'s stages, each stage's
    /// tasks in plan order over the whole batch (DESIGN.md §9), then the
    /// versions its SETs replaced are freed — each only if its slot
    /// still holds the incarnation the index named, else CLOCK gets it
    /// (DESIGN.md §17). Responses return in query order, with what the
    /// batch did.
    #[must_use]
    pub fn run_batch(
        &self,
        queries: Vec<Query>,
        config: PipelineConfig,
    ) -> (Vec<Response>, BatchTally) {
        let mut batch = Batch::new(queries, config);
        for stage in &config.plan().stages {
            tasks::run_stage(self, stage, &mut batch);
        }
        let freed = batch
            .replaced
            .iter()
            .filter(|&&(loc, tag)| self.store.free_incarnation(loc, tag))
            .count();
        if freed > 0 {
            self.ops.replaced_freed.add(freed as u64);
        }
        (batch.take_responses(), batch.tally)
    }

    /// One query as a one-query [`KvEngine::run_batch`] under
    /// [`PipelineConfig::cpu_only`] (examples, tests, restores).
    pub fn execute(&self, q: &Query) -> Response {
        let (mut responses, _) = self.run_batch(vec![q.clone()], PipelineConfig::cpu_only());
        responses.pop().expect("one query, one response")
    }
}

impl std::fmt::Debug for KvEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvEngine")
            .field("index", &self.index)
            .field("store", &self.store)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_model::ResponseStatus;

    fn engine() -> KvEngine {
        KvEngine::new(EngineConfig::new(1 << 20, 64 * 1024, 16 * 1024))
    }

    #[test]
    fn set_get_delete_lifecycle() {
        let e = engine();
        assert_eq!(e.execute(&Query::get("k")).status, ResponseStatus::NotFound);
        assert_eq!(e.execute(&Query::set("k", "v1")).status, ResponseStatus::Ok);
        let r = e.execute(&Query::get("k"));
        assert_eq!(r.status, ResponseStatus::Ok);
        assert_eq!(&r.value[..], b"v1");
        // Overwrite.
        assert_eq!(e.execute(&Query::set("k", "v2")).status, ResponseStatus::Ok);
        assert_eq!(&e.execute(&Query::get("k")).value[..], b"v2");
        // Delete.
        assert_eq!(e.execute(&Query::delete("k")).status, ResponseStatus::Ok);
        assert_eq!(e.execute(&Query::get("k")).status, ResponseStatus::NotFound);
        assert_eq!(
            e.execute(&Query::delete("k")).status,
            ResponseStatus::NotFound
        );
    }

    #[test]
    fn a_serving_store_steps_its_slots_four_times_per_doubling_mega_kv_once() {
        let cfg = EngineConfig::new(1 << 20, 0, 0);
        // K128: 24 B header + 128 B key + 1 KB value.
        assert_eq!(KvEngine::new(cfg).store.class_bytes_for(128, 1024), Some(1280));
        assert_eq!(KvEngine::mega_kv(cfg).store.class_bytes_for(128, 1024), Some(2048));
    }

    #[test]
    fn epochs_advance() {
        let e = engine();
        let a = e.sample_epoch();
        assert_eq!(e.advance_sample_epoch(), a + 1);
        assert_eq!(e.sample_epoch(), a + 1);
    }

    #[test]
    fn overwrite_returns_latest_and_old_versions_age_out() {
        let e = engine();
        for i in 0..100 {
            let v = format!("value-{i}");
            assert_eq!(e.execute(&Query::set("same", v)).status, ResponseStatus::Ok);
        }
        // Memcached semantics: `item_replace` unlinks the old item when
        // the new one is linked, so each overwrite frees the version it
        // replaced; reads always see the latest.
        assert_eq!(&e.execute(&Query::get("same")).value[..], b"value-99");
        assert_eq!(e.store.live_objects(), 1);
        assert_eq!(e.op_counts().replaced_freed, 99);
        // Keep overwriting in a tiny store: eviction must bound growth.
        let tiny = KvEngine::new(EngineConfig::new(4096, 1 << 20, 1 << 16));
        for i in 0..500 {
            let v = format!("value-{i}");
            assert_eq!(tiny.execute(&Query::set("same", v)).status, ResponseStatus::Ok);
        }
        assert!(tiny.store.live_objects() <= 4096 / 32);
        assert_eq!(&tiny.execute(&Query::get("same")).value[..], b"value-499");
    }

    #[test]
    fn snapshot_and_restore_round_trip() {
        let a = engine();
        for i in 0..300u32 {
            a.execute(&Query::set(format!("snap-{i}"), format!("val-{i}")));
        }
        a.execute(&Query::delete("snap-7"));
        let snapshot = a.snapshot();
        assert_eq!(snapshot.len(), 299);

        let b = engine();
        for q in &snapshot {
            b.execute(q);
        }
        for i in 0..300u32 {
            let r = b.execute(&Query::get(format!("snap-{i}")));
            if i == 7 {
                assert_eq!(r.status, ResponseStatus::NotFound);
            } else {
                assert_eq!(r.status, ResponseStatus::Ok, "snap-{i}");
                assert_eq!(r.value, format!("val-{i}"));
            }
        }
    }

    #[test]
    fn integrity_holds_after_churn() {
        let e = engine();
        for i in 0..2_000u32 {
            let k = format!("churn-{}", i % 400);
            e.execute(&Query::set(k.clone(), format!("v{i}")));
            if i % 7 == 0 {
                e.execute(&Query::delete(k));
            }
        }
        let report = e.verify_integrity();
        assert!(report.entries > 0);
        assert_eq!(report.mismatched, 0, "{report:?}");
        assert_eq!(report.dangling, 0, "{report:?}");
    }

    #[test]
    fn ttl_expiry_is_observed_in_band() {
        use dido_model::MockClock;
        let clock = Arc::new(MockClock::at(1_000));
        let e = KvEngine::with_clock(
            EngineConfig::new(1 << 20, 64 * 1024, 16 * 1024),
            clock.clone(),
        );
        e.execute(&Query::set_with("ttl-k", "v", 30, 0));
        e.execute(&Query::set("forever", "v"));
        assert_eq!(e.execute(&Query::get("ttl-k")).status, ResponseStatus::Ok);
        clock.advance(29);
        assert_eq!(e.execute(&Query::get("ttl-k")).status, ResponseStatus::Ok);
        clock.advance(1);
        // now == deadline: expired, a miss in-band, and queued for a
        // lazy purge ...
        assert_eq!(
            e.execute(&Query::get("ttl-k")).status,
            ResponseStatus::NotFound
        );
        assert_eq!(e.op_counts().expired_lazy, 1);
        // ... which the next batch's IN-Delete runs.
        assert_eq!(e.execute(&Query::get("forever")).status, ResponseStatus::Ok);
        assert!(!e.has_key(b"ttl-k"));
        // A second GET is a plain miss, not another lazy purge.
        assert_eq!(
            e.execute(&Query::get("ttl-k")).status,
            ResponseStatus::NotFound
        );
        assert_eq!(e.op_counts().expired_lazy, 1);
    }

    #[test]
    fn sweeper_crawls_expired_objects_and_index_entries() {
        use dido_model::MockClock;
        let clock = Arc::new(MockClock::at(1_000));
        let e = KvEngine::with_clock(
            EngineConfig::new(1 << 20, 64 * 1024, 16 * 1024),
            clock.clone(),
        );
        for i in 0..100u32 {
            e.execute(&Query::set_with(format!("short-{i}"), "v", 10, 0));
            e.execute(&Query::set(format!("long-{i}"), "v"));
        }
        assert_eq!(e.store.live_objects(), 200);
        assert_eq!(e.sweep_expired(usize::MAX), (0, 0), "nothing due yet");
        clock.advance(60);
        let (purged, chunks) = e.sweep_expired(usize::MAX);
        assert_eq!(purged, 100);
        assert!(chunks >= 1);
        assert_eq!(e.store.live_objects(), 100);
        for i in 0..100u32 {
            assert!(!e.has_key(format!("short-{i}").as_bytes()));
            assert!(e.has_key(format!("long-{i}").as_bytes()));
        }
        // Index entries were dropped, not left dangling.
        let report = e.verify_integrity();
        assert_eq!(report.dangling, 0, "{report:?}");
        assert_eq!(report.mismatched, 0, "{report:?}");
        assert_eq!(e.store.expiry_stats().expired_proactive, 100);
    }

    #[test]
    fn snapshot_skips_expired_and_rebases_ttl() {
        use dido_model::MockClock;
        let clock = Arc::new(MockClock::at(5_000));
        let cfg = EngineConfig::new(1 << 20, 64 * 1024, 16 * 1024);
        let a = KvEngine::with_clock(cfg, clock.clone());
        a.execute(&Query::set_with("stale", "v", 10, 0));
        a.execute(&Query::set_with("fresh", "v", 1_000, 7));
        a.execute(&Query::set("forever", "v"));
        clock.advance(100); // "stale" is now past its deadline
        let snapshot = a.snapshot();
        assert_eq!(snapshot.len(), 2);

        let restore_clock = Arc::new(MockClock::at(50_000));
        let b = KvEngine::with_clock(cfg, restore_clock.clone());
        for q in &snapshot {
            b.execute(q);
        }
        assert_eq!(b.execute(&Query::get("stale")).status, ResponseStatus::NotFound);
        assert_eq!(b.execute(&Query::get("fresh")).status, ResponseStatus::Ok);
        // The remaining lifetime (900 s) was re-based, not the absolute
        // deadline: the key survives past the donor's deadline instant.
        restore_clock.advance(899);
        assert_eq!(b.execute(&Query::get("fresh")).status, ResponseStatus::Ok);
        restore_clock.advance(2);
        assert_eq!(b.execute(&Query::get("fresh")).status, ResponseStatus::NotFound);
        assert_eq!(b.execute(&Query::get("forever")).status, ResponseStatus::Ok);
    }

    /// Where a death record comes from.
    #[derive(Debug, Clone, Copy)]
    enum Death {
        ClockEviction,
        ExpiryCrawl,
        KcLazyExpiry,
    }

    /// The recycle race, once per source of a death record, through the
    /// one `unlink`: the record is written, the slot is freed, a SET
    /// takes the slot back off the LIFO free list, and only then does
    /// the unlink run. Re-SET of the *same* key makes the stale entry
    /// fresh — it must survive (every such row fails with `unlink`'s
    /// guard removed). Re-SET of *another* key leaves the stale entry
    /// dangling — it must go.
    #[test]
    fn unlink_spares_a_slot_recycled_to_the_same_key_whatever_reported_the_death() {
        use dido_model::MockClock;
        const VICTIM: &[u8] = b"victim";
        const OTHER: &[u8] = b"other!";
        let loc_of = |e: &KvEngine, key: &[u8]| {
            let (cands, _) = e.index.search(key_hash(key));
            cands
                .as_slice()
                .iter()
                .copied()
                .find(|&l| e.store.key_matches(l, key))
        };
        let sources = [
            Death::ClockEviction,
            Death::ExpiryCrawl,
            Death::KcLazyExpiry,
        ];
        for source in sources {
            for same_key in [true, false] {
                let case = format!(
                    "{source:?}, re-SET of the {} key",
                    if same_key { "same" } else { "other" }
                );
                let clock = Arc::new(MockClock::at(1_000));
                // Four 56-byte slots (no object here fits the 32 B left):
                // the victim and three fillers fill it.
                let e =
                    KvEngine::with_clock(EngineConfig::new(256, 1 << 16, 1 << 14), clock.clone());
                let ttl = if matches!(source, Death::ClockEviction) {
                    0
                } else {
                    10
                };
                e.execute(&Query::set_with(VICTIM, vec![b'o'; 20], ttl, 0));
                let loc = loc_of(&e, VICTIM).expect("victim stored");
                for i in 0..3 {
                    e.execute(&Query::set(format!("fill-{i}"), vec![b'f'; 20]));
                }
                clock.advance(60);
                let now = e.now_secs();

                // The death record, and the slot back on the free list.
                let dead = match source {
                    Death::ClockEviction => {
                        // A SET's allocation displaces the victim (the
                        // oldest unreferenced object); its index insert
                        // never happens and the allocation is rolled back.
                        let out = e
                            .store
                            .allocate_with(b"intruder", &[b'i'; 20], 0, 0, now, 0)
                            .unwrap();
                        assert!(e.store.free(out.loc));
                        out.evicted.expect("a full store evicts")
                    }
                    Death::ExpiryCrawl => {
                        let mut purged = Vec::new();
                        e.store.sweep_expired(now, usize::MAX, &mut purged);
                        assert_eq!(purged.len(), 1, "{case}");
                        purged[0]
                    }
                    Death::KcLazyExpiry => {
                        let (responses, _) =
                            e.run_batch(vec![Query::get(VICTIM)], PipelineConfig::mega_kv());
                        assert_eq!(responses[0].status, ResponseStatus::NotFound);
                        let queued = e.pending_expired.drain();
                        assert_eq!(queued.len(), 1, "{case}");
                        assert!(
                            e.store.expire_if_due(loc, now),
                            "the sweeper frees the slot"
                        );
                        queued[0]
                    }
                };
                assert_eq!(
                    dead,
                    PurgedEntry {
                        loc,
                        cookie: key_hash(VICTIM).hash
                    },
                    "{case}"
                );

                let key = if same_key { VICTIM } else { OTHER };
                e.execute(&Query::set(key, "new"));
                assert_eq!(
                    loc_of(&e, key),
                    Some(loc),
                    "{case}: LIFO hands the slot back"
                );

                e.unlink(&UNMETERED, &[dead]);

                assert_eq!(&e.execute(&Query::get(key)).value[..], b"new", "{case}");
                if !same_key {
                    let (stale, _) = e.index.search(key_hash(VICTIM));
                    assert!(
                        !stale.as_slice().contains(&loc),
                        "{case}: stale entry left behind"
                    );
                    assert_eq!(
                        e.execute(&Query::get(VICTIM)).status,
                        ResponseStatus::NotFound
                    );
                }
                assert!(
                    e.verify_integrity().is_clean(),
                    "{case}: {:?}",
                    e.verify_integrity()
                );
                assert_eq!(e.store.live_objects(), 4, "{case}");
            }
        }
    }

    #[test]
    fn many_keys_round_trip() {
        let e = engine();
        for i in 0..500u32 {
            let k = format!("key-{i}");
            let v = format!("val-{i}");
            assert_eq!(e.execute(&Query::set(k, v)).status, ResponseStatus::Ok);
        }
        for i in 0..500u32 {
            let k = format!("key-{i}");
            let r = e.execute(&Query::get(k));
            assert_eq!(r.status, ResponseStatus::Ok);
            assert_eq!(r.value, format!("val-{i}"));
        }
    }
}
