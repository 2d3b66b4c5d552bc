//! The concurrent cuckoo hash index.
//!
//! Layout follows the Mega-KV / MemC3 lineage the paper builds on:
//!
//! * buckets of [`SLOTS_PER_BUCKET`] slots, 32 B each, two buckets per
//!   64 B cache line (a bucket never straddles a line, so a probe
//!   touches exactly one);
//! * each slot is a single `AtomicU64` packing
//!   `occupied(1) | spare(1) | tag(6) | signature(16) | location(40)`,
//!   where `tag` is the incarnation of the object at `location` when the
//!   entry was written (see [`tagged`]): the one fact that tells the
//!   version an upsert replaced from a later occupant of the same slot;
//! * two candidate buckets per key, with the alternate bucket computed
//!   from the *signature only* (partial-key cuckoo hashing), so a kicked
//!   entry can be rehomed without access to its key;
//! * Insert/Delete use compare-exchange to avoid write-write conflicts
//!   and Search uses atomic loads (paper §III-B-2's concurrency rules);
//! * every operation reports [`ResourceUsage`] — one memory access per
//!   bucket touched — feeding the timing layer and the cost model's
//!   `(Σ_{i=1..n} i)/n` bucket-probe estimate.

use crate::hash::KeyHash;
use crate::prefetch::prefetch_read;
use dido_model::ResourceUsage;
use std::alloc::{self, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

/// Keys probed per prefetch wavefront by the `*_batch` operations.
/// Matches the simulated pipeline's work-stealing tag granularity
/// ([`dido_model::WAVEFRONT_WIDTH`]), so stolen items are whole probe
/// wavefronts.
pub const PROBE_WAVEFRONT: usize = dido_model::WAVEFRONT_WIDTH;

/// Slots per bucket (4 × 8 B slots = one 32 B bucket, half a 64 B cache
/// line).
pub const SLOTS_PER_BUCKET: usize = 4;

const OCCUPIED: u64 = 1 << 63;
const SIG_SHIFT: u32 = 40;
const SIG_MASK: u64 = 0xffff << SIG_SHIFT;
const LOC_MASK: u64 = (1 << SIG_SHIFT) - 1;
const TAG_SHIFT: u32 = 56;
const TAG_MASK: u64 = ((1 << TAG_BITS) - 1) << TAG_SHIFT;

/// Maximum encodable location value (40 bits).
pub const MAX_LOCATION: u64 = LOC_MASK;

/// Width of an entry's incarnation tag.
pub const TAG_BITS: u32 = 6;

/// The value an entry holds: `loc` plus the incarnation `tag` (its low
/// [`TAG_BITS`] bits) of the object stored there, placed where the slot
/// word keeps them. [`IndexTable::insert`] and [`IndexTable::upsert`]
/// take one, `upsert` returns the one it replaced, and a plain location
/// is the value with tag 0. Searches and deletes deal in locations only.
#[must_use]
pub const fn tagged(loc: u64, tag: u8) -> u64 {
    loc | (((tag as u64) << TAG_SHIFT) & TAG_MASK)
}

/// `(location, tag)` of a [`tagged`] value.
#[must_use]
pub const fn untagged(value: u64) -> (u64, u8) {
    (value & LOC_MASK, ((value & TAG_MASK) >> TAG_SHIFT) as u8)
}

/// Instruction-cost constants charged per probe step; kept coarse on
/// purpose (the paper counts instructions the same way).
const INSNS_PER_BUCKET_PROBE: u64 = 24;
const INSNS_PER_CAS: u64 = 12;

/// The slot word for a [`tagged`] value under `sig`.
#[inline]
fn encode(sig: u16, value: u64) -> u64 {
    debug_assert!(fits(value), "location exceeds 40 bits");
    OCCUPIED | (u64::from(sig) << SIG_SHIFT) | (value & (LOC_MASK | TAG_MASK))
}

/// Whether a [`tagged`] value carries nothing but a 40-bit location and
/// a tag.
#[inline]
fn fits(value: u64) -> bool {
    value & !(LOC_MASK | TAG_MASK) == 0
}

#[inline]
fn slot_value(word: u64) -> u64 {
    word & (LOC_MASK | TAG_MASK)
}

#[inline]
fn slot_sig(word: u64) -> u16 {
    ((word & SIG_MASK) >> SIG_SHIFT) as u16
}

#[inline]
fn slot_loc(word: u64) -> u64 {
    word & LOC_MASK
}

#[inline]
fn slot_occupied(word: u64) -> bool {
    word & OCCUPIED != 0
}

#[repr(C, align(32))]
struct Bucket {
    slots: [AtomicU64; SLOTS_PER_BUCKET],
}

// Packed densely, two to a cache line; 32 B alignment keeps every
// bucket inside one line.
const _: () = assert!(size_of::<Bucket>() == 32 && 64 % align_of::<Bucket>() == 0);

/// The bucket array, in words the allocator zeroed: a bucket costs
/// resident memory only once a probe touches it.
///
/// The words are allocated at `AtomicU64`'s own alignment, which the
/// system allocator serves as calloc (fresh zero pages, left untouched);
/// asked for a 32 B-aligned zeroed block it would write every byte
/// instead. So one spare bucket's worth of words is allocated and the
/// array starts at the first 32 B boundary.
struct Buckets {
    words: Box<[AtomicU64]>,
    /// Word index of bucket 0 (below `SLOTS_PER_BUCKET`).
    first: usize,
    len: usize,
}

impl Buckets {
    fn zeroed(len: usize) -> Buckets {
        let n_words = (len + 1) * SLOTS_PER_BUCKET;
        let layout = Layout::array::<AtomicU64>(n_words).expect("bucket array exceeds isize::MAX");
        // SAFETY: `layout` is non-zero-sized (at least one spare bucket),
        // as `alloc_zeroed` requires. A non-null result is a fresh block
        // with exactly the layout of `[AtomicU64; n_words]` (same length,
        // same alignment), the one `Box<[AtomicU64]>` frees with, and
        // all-zero bits are a valid `AtomicU64`: an empty slot.
        let words = unsafe {
            let ptr = alloc::alloc_zeroed(layout).cast::<AtomicU64>();
            if ptr.is_null() {
                alloc::handle_alloc_error(layout);
            }
            Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, n_words))
        };
        let addr = words.as_ptr() as usize;
        let first = (addr.next_multiple_of(align_of::<Bucket>()) - addr) / size_of::<AtomicU64>();
        Buckets { words, first, len }
    }
}

impl std::ops::Deref for Buckets {
    type Target = [Bucket];

    fn deref(&self) -> &[Bucket] {
        // SAFETY: word `first` is 32 B-aligned (`zeroed` chose it so),
        // and `first < SLOTS_PER_BUCKET` leaves at least `len` buckets'
        // words after it in the block. `Bucket` is `repr(C)` over exactly
        // `SLOTS_PER_BUCKET` words with no padding, so those words are
        // valid buckets; they live, shared, as long as `self.words`.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().add(self.first).cast(), self.len) }
    }
}

/// Why an insert failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The bounded cuckoo kick walk could not free a slot (table too
    /// full / pathological cycle).
    TableFull,
    /// The location value does not fit in 40 bits.
    LocationTooLarge,
}

/// Result of an index search: candidate locations whose slot signature
/// matched. The `KC` task validates candidates against the full key.
/// `Copy` (it is a small POD array) so batched probes can scatter
/// results through stack buffers without heap traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Candidates {
    locs: [u64; 2 * SLOTS_PER_BUCKET],
    len: u8,
}

impl Candidates {
    fn push(&mut self, loc: u64) {
        if (self.len as usize) < self.locs.len() {
            self.locs[self.len as usize] = loc;
            self.len += 1;
        }
    }

    /// Number of candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// No candidates found.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Candidate locations, most-likely first.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.locs[..self.len as usize]
    }
}

/// A concurrent partial-key cuckoo hash index.
pub struct IndexTable {
    buckets: Buckets,
    bucket_mask: u64,
    kick_limit: usize,
    entries: AtomicU64,
    // Runtime statistics for the cost model: the paper computes "the
    // average number of accessed buckets for an Insert operation at
    // runtime" (§IV-B).
    insert_ops: AtomicU64,
    insert_buckets: AtomicU64,
    delete_ops: AtomicU64,
    delete_buckets: AtomicU64,
}

impl IndexTable {
    /// Create a table able to index at least `capacity` entries at a
    /// ~75 % target load factor.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> IndexTable {
        assert!(capacity > 0, "capacity must be positive");
        let needed_buckets = (capacity as f64 / SLOTS_PER_BUCKET as f64 / 0.75).ceil() as usize;
        let n = needed_buckets.next_power_of_two().max(2);
        IndexTable {
            buckets: Buckets::zeroed(n),
            bucket_mask: (n - 1) as u64,
            kick_limit: 128,
            entries: AtomicU64::new(0),
            insert_ops: AtomicU64::new(0),
            insert_buckets: AtomicU64::new(0),
            delete_ops: AtomicU64::new(0),
            delete_buckets: AtomicU64::new(0),
        }
    }

    /// Number of buckets (a power of two).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Bytes the bucket array occupies.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bucket_count() * size_of::<Bucket>()
    }

    /// Total slot capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buckets.len() * SLOTS_PER_BUCKET
    }

    /// Approximate number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// Whether the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current load factor.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.capacity() as f64
    }

    /// Observed mean number of buckets an insert touches (for the cost
    /// model). Defaults to 2.0 before any insert has been recorded.
    #[must_use]
    pub fn avg_insert_buckets(&self) -> f64 {
        let ops = self.insert_ops.load(Ordering::Relaxed);
        if ops == 0 {
            2.0
        } else {
            self.insert_buckets.load(Ordering::Relaxed) as f64 / ops as f64
        }
    }

    /// Observed mean number of buckets a delete touches. The analytic
    /// default is the paper's `(Σ_{i=1..n} i)/n = 1.5`, but deletes of
    /// already-replaced (garbage) entries probe both buckets, so the
    /// runtime average drifts toward 2 under overwrite-heavy load.
    #[must_use]
    pub fn avg_delete_buckets(&self) -> f64 {
        let ops = self.delete_ops.load(Ordering::Relaxed);
        if ops == 0 {
            1.5
        } else {
            self.delete_buckets.load(Ordering::Relaxed) as f64 / ops as f64
        }
    }

    #[inline]
    fn primary_bucket(&self, kh: KeyHash) -> u64 {
        kh.hash & self.bucket_mask
    }

    /// The alternate bucket is derived from the current bucket and the
    /// signature only, and the mapping is an involution
    /// (`alt(alt(b)) == b`), which is what lets displacement work
    /// without the key.
    #[inline]
    fn alt_bucket(&self, bucket: u64, sig: u16) -> u64 {
        let tag = (u64::from(sig).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1) & self.bucket_mask;
        bucket ^ tag
    }

    /// Search for entries whose signature matches. Returns the matching
    /// candidate locations and the resource usage of the probe.
    ///
    /// Probing checks the primary bucket first and only then the
    /// alternate, so a hit in the primary bucket costs one bucket read —
    /// giving the `(1+2)/2` average the paper's cost model assumes for a
    /// 2-function cuckoo table.
    #[must_use]
    pub fn search(&self, kh: KeyHash) -> (Candidates, ResourceUsage) {
        let mut cands = Candidates::default();
        let b1 = self.primary_bucket(kh);
        let mut buckets_read = 1u64;
        self.scan_bucket(b1, kh.sig, &mut cands);
        if cands.is_empty() {
            let b2 = self.alt_bucket(b1, kh.sig);
            buckets_read += 1;
            self.scan_bucket(b2, kh.sig, &mut cands);
        }
        let usage = ResourceUsage::new(buckets_read * INSNS_PER_BUCKET_PROBE, buckets_read, 0);
        (cands, usage)
    }

    fn scan_bucket(&self, bucket: u64, sig: u16, out: &mut Candidates) {
        let b = &self.buckets[bucket as usize];
        for slot in &b.slots {
            let word = slot.load(Ordering::Acquire);
            if slot_occupied(word) && slot_sig(word) == sig {
                out.push(slot_loc(word));
            }
        }
    }

    /// Insert `(signature, value)`, `value` a location or a [`tagged`]
    /// one. Returns the probe's resource usage alongside the outcome.
    pub fn insert(&self, kh: KeyHash, value: u64) -> (Result<(), InsertError>, ResourceUsage) {
        if !fits(value) {
            return (Err(InsertError::LocationTooLarge), ResourceUsage::ZERO);
        }
        let entry = encode(kh.sig, value);
        let mut buckets_touched = 0u64;
        let mut cas_ops = 0u64;
        let result = self.insert_inner(kh, entry, &mut buckets_touched, &mut cas_ops);
        self.insert_ops.fetch_add(1, Ordering::Relaxed);
        self.insert_buckets
            .fetch_add(buckets_touched, Ordering::Relaxed);
        if result.is_ok() {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        let usage = ResourceUsage::new(
            buckets_touched * INSNS_PER_BUCKET_PROBE + cas_ops * INSNS_PER_CAS,
            buckets_touched,
            0,
        );
        (result, usage)
    }

    fn insert_inner(
        &self,
        kh: KeyHash,
        entry: u64,
        buckets_touched: &mut u64,
        cas_ops: &mut u64,
    ) -> Result<(), InsertError> {
        let b1 = self.primary_bucket(kh);
        let b2 = self.alt_bucket(b1, kh.sig);
        let mut rng_state = kh.hash | 1;
        // A handful of full attempts absorbs benign CAS races.
        for _attempt in 0..4 {
            // Fast path: an empty slot in either candidate bucket.
            for &b in &[b1, b2] {
                *buckets_touched += 1;
                if self.try_place(b, entry, cas_ops) {
                    return Ok(());
                }
            }
            // MemC3-style displacement: find a path of victims leading
            // to an empty slot (read-only random walk), then shift
            // entries *backwards* from the hole. Every shift moves an
            // entry between its own two candidate buckets, so a search
            // can always find it and an aborted shift never strands an
            // entry.
            let start = if rng_state & (1 << 62) == 0 { b1 } else { b2 };
            if let Some(path) =
                self.find_kick_path(start, &mut rng_state, buckets_touched)
            {
                if self.shift_along_path(&path, cas_ops) {
                    // path[0]'s slot is now empty; claim it.
                    let (bucket0, slot0) = path[0];
                    *cas_ops += 1;
                    let slot = &self.buckets[bucket0 as usize].slots[slot0];
                    if slot
                        .compare_exchange(0, entry, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return Ok(());
                    }
                }
            }
        }
        Err(InsertError::TableFull)
    }

    /// Random-walk search for a displacement path. Returns
    /// `[(bucket, slot); k]` where every hop's entry can move to the
    /// next hop's bucket and the final hop's slot is empty.
    fn find_kick_path(
        &self,
        start: u64,
        rng_state: &mut u64,
        buckets_touched: &mut u64,
    ) -> Option<Vec<(u64, usize)>> {
        let mut path: Vec<(u64, usize)> = Vec::with_capacity(8);
        let mut bucket = start;
        for _ in 0..self.kick_limit {
            *buckets_touched += 1;
            let b = &self.buckets[bucket as usize];
            // An empty slot here terminates the path.
            for (i, slot) in b.slots.iter().enumerate() {
                if !slot_occupied(slot.load(Ordering::Acquire)) {
                    path.push((bucket, i));
                    return Some(path);
                }
            }
            // Pick a victim and walk to its alternate bucket.
            *rng_state ^= *rng_state << 13;
            *rng_state ^= *rng_state >> 7;
            *rng_state ^= *rng_state << 17;
            let victim_idx = (*rng_state as usize) % SLOTS_PER_BUCKET;
            let word = b.slots[victim_idx].load(Ordering::Acquire);
            if !slot_occupied(word) {
                path.push((bucket, victim_idx));
                return Some(path);
            }
            path.push((bucket, victim_idx));
            bucket = self.alt_bucket(bucket, slot_sig(word));
        }
        None
    }

    /// Shift entries backwards along `path`: the entry at `path[i]`
    /// moves into the (empty) slot at `path[i+1]`, vacating `path[i]`.
    /// Returns true if `path[0]`'s slot ended up empty. Aborts (safely)
    /// if a concurrent writer invalidated a hop.
    fn shift_along_path(&self, path: &[(u64, usize)], cas_ops: &mut u64) -> bool {
        for i in (0..path.len().saturating_sub(1)).rev() {
            let (from_bucket, from_slot) = path[i];
            let (to_bucket, to_slot) = path[i + 1];
            let from = &self.buckets[from_bucket as usize].slots[from_slot];
            let to = &self.buckets[to_bucket as usize].slots[to_slot];
            let word = from.load(Ordering::Acquire);
            if !slot_occupied(word) {
                // Already vacated (e.g. concurrent delete): nothing to
                // move, the hole simply propagates.
                continue;
            }
            // The move is only valid if `to_bucket` really is this
            // entry's alternate (a racing writer may have replaced it).
            if self.alt_bucket(from_bucket, slot_sig(word)) != to_bucket {
                return false;
            }
            *cas_ops += 2;
            if to
                .compare_exchange(0, word, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                return false;
            }
            if from
                .compare_exchange(word, 0, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // Someone altered the source mid-move: the entry now
                // exists in both candidate buckets. Roll the copy back
                // to restore exactly-once placement and abort.
                let _ = to.compare_exchange(word, 0, Ordering::AcqRel, Ordering::Acquire);
                return false;
            }
        }
        let (b0, s0) = path[0];
        !slot_occupied(self.buckets[b0 as usize].slots[s0].load(Ordering::Acquire))
    }

    fn try_place(&self, bucket: u64, entry: u64, cas_ops: &mut u64) -> bool {
        let b = &self.buckets[bucket as usize];
        for slot in &b.slots {
            if !slot_occupied(slot.load(Ordering::Acquire)) {
                *cas_ops += 1;
                if slot
                    .compare_exchange(0, entry, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return true;
                }
            }
        }
        false
    }

    /// Insert with Mega-KV SET semantics: if an entry with the same
    /// signature already exists in a candidate bucket, *replace* its
    /// location in place (two versions of one key never coexist in the
    /// index); otherwise insert fresh. `value` is a location or a
    /// [`tagged`] one; returns the replaced value, tag included, if any.
    /// The caller that gets it back is the only one the index handed
    /// that version to.
    ///
    /// Signature collisions between distinct keys make `upsert` evict
    /// the colliding key from the index — the standard
    /// signature-indexed-cache trade-off the paper's systems accept.
    pub fn upsert(
        &self,
        kh: KeyHash,
        value: u64,
    ) -> (Result<Option<u64>, InsertError>, ResourceUsage) {
        if !fits(value) {
            return (Err(InsertError::LocationTooLarge), ResourceUsage::ZERO);
        }
        let entry = encode(kh.sig, value);
        let b1 = self.primary_bucket(kh);
        let b2 = self.alt_bucket(b1, kh.sig);
        let mut buckets = 0u64;
        let mut cas_ops = 0u64;
        // One pass over both candidate buckets: replace a same-signature
        // entry if present, remembering empty slots along the way so the
        // fresh-insert case needs no second scan.
        let mut empties: [(u64, usize); 2 * SLOTS_PER_BUCKET] = Default::default();
        let mut n_empty = 0usize;
        for &b in &[b1, b2] {
            buckets += 1;
            let bucket = &self.buckets[b as usize];
            for (i, slot) in bucket.slots.iter().enumerate() {
                let mut word = slot.load(Ordering::Acquire);
                while slot_occupied(word) && slot_sig(word) == kh.sig {
                    cas_ops += 1;
                    match slot.compare_exchange(word, entry, Ordering::AcqRel, Ordering::Acquire) {
                        Ok(_) => {
                            let usage = ResourceUsage::new(
                                buckets * INSNS_PER_BUCKET_PROBE + cas_ops * INSNS_PER_CAS,
                                buckets,
                                0,
                            );
                            return (Ok(Some(slot_value(word))), usage);
                        }
                        // A racing upsert of the same key swapped the
                        // entry first: replace what it put there, or the
                        // key would end up with two entries.
                        Err(now) => word = now,
                    }
                }
                if !slot_occupied(word) {
                    empties[n_empty] = (b, i);
                    n_empty += 1;
                }
            }
        }
        // Fresh insert into a remembered empty slot.
        for &(b, i) in &empties[..n_empty] {
            cas_ops += 1;
            if self.buckets[b as usize].slots[i]
                .compare_exchange(0, entry, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.entries.fetch_add(1, Ordering::Relaxed);
                self.insert_ops.fetch_add(1, Ordering::Relaxed);
                self.insert_buckets.fetch_add(buckets, Ordering::Relaxed);
                let usage = ResourceUsage::new(
                    buckets * INSNS_PER_BUCKET_PROBE + cas_ops * INSNS_PER_CAS,
                    buckets,
                    0,
                );
                return (Ok(None), usage);
            }
        }
        // Both buckets full: fall back to the kicking insert.
        let (result, mut usage) = self.insert(kh, value);
        usage.instructions += cas_ops * INSNS_PER_CAS;
        (result.map(|()| None), usage)
    }

    /// Delete the entry matching `(signature, location)`, whatever its
    /// tag. Returns whether an entry was removed, plus resource usage.
    pub fn delete(&self, kh: KeyHash, loc: u64) -> (bool, ResourceUsage) {
        let b1 = self.primary_bucket(kh);
        let b2 = self.alt_bucket(b1, kh.sig);
        let target = encode(kh.sig, loc & LOC_MASK);
        let mut buckets = 0u64;
        let mut cas_ops = 0u64;
        let mut removed = false;
        'outer: for &b in &[b1, b2] {
            buckets += 1;
            let bucket = &self.buckets[b as usize];
            for slot in &bucket.slots {
                let word = slot.load(Ordering::Acquire);
                if word & !TAG_MASK == target {
                    cas_ops += 1;
                    if slot
                        .compare_exchange(word, 0, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        removed = true;
                        self.entries.fetch_sub(1, Ordering::Relaxed);
                        break 'outer;
                    }
                }
            }
        }
        self.delete_ops.fetch_add(1, Ordering::Relaxed);
        self.delete_buckets.fetch_add(buckets, Ordering::Relaxed);
        let usage = ResourceUsage::new(
            buckets * INSNS_PER_BUCKET_PROBE + cas_ops * INSNS_PER_CAS,
            buckets,
            0,
        );
        (removed, usage)
    }

    /// Batched search over a wavefront of keys: a two-pass probe that
    /// computes every key's primary bucket and prefetches it first, then
    /// scans the now-warm buckets (collecting the misses and prefetching
    /// their alternate buckets before the second scan). Observationally
    /// equivalent to `keys.len()` scalar [`IndexTable::search`] calls:
    /// same candidates per key, same total [`ResourceUsage`] — only the
    /// cache-miss serialization is amortized across the wavefront.
    ///
    /// # Panics
    /// Panics if `keys` and `out` differ in length.
    pub fn search_batch(&self, keys: &[KeyHash], out: &mut [Candidates]) -> ResourceUsage {
        assert_eq!(keys.len(), out.len(), "search_batch slices must match");
        let mut buckets_read = 0u64;
        for (kc, oc) in keys
            .chunks(PROBE_WAVEFRONT)
            .zip(out.chunks_mut(PROBE_WAVEFRONT))
        {
            buckets_read += self.search_wavefront(kc, oc);
        }
        ResourceUsage::new(buckets_read * INSNS_PER_BUCKET_PROBE, buckets_read, 0)
    }

    /// One wavefront of the batched search; returns buckets read.
    fn search_wavefront(&self, keys: &[KeyHash], out: &mut [Candidates]) -> u64 {
        let n = keys.len();
        debug_assert!(n <= PROBE_WAVEFRONT);
        // Pass 1: bucket indices + prefetch. Bucket indices are kept so
        // pass 2 never recomputes the hash mapping.
        let mut b1 = [0u64; PROBE_WAVEFRONT];
        for (slot, kh) in b1.iter_mut().zip(keys) {
            let b = self.primary_bucket(*kh);
            *slot = b;
            prefetch_read(&raw const self.buckets[b as usize]);
        }
        // Pass 2: scan the warm primary buckets; misses queue their
        // alternate bucket for the next prefetch round.
        let mut miss = [(0usize, 0u64); PROBE_WAVEFRONT];
        let mut n_miss = 0usize;
        for i in 0..n {
            out[i] = Candidates::default();
            self.scan_bucket(b1[i], keys[i].sig, &mut out[i]);
            if out[i].is_empty() {
                let alt = self.alt_bucket(b1[i], keys[i].sig);
                miss[n_miss] = (i, alt);
                n_miss += 1;
                prefetch_read(&raw const self.buckets[alt as usize]);
            }
        }
        // Pass 3: scan the warm alternate buckets of the misses.
        for &(i, alt) in &miss[..n_miss] {
            self.scan_bucket(alt, keys[i].sig, &mut out[i]);
        }
        (n + n_miss) as u64
    }

    /// Prefetch both candidate buckets of every key in a wavefront, so
    /// the mutating probe that follows starts against warm lines.
    fn prefetch_wavefront(&self, keys: impl Iterator<Item = KeyHash>) {
        for kh in keys {
            let b1 = self.primary_bucket(kh);
            let b2 = self.alt_bucket(b1, kh.sig);
            prefetch_read(&raw const self.buckets[b1 as usize]);
            prefetch_read(&raw const self.buckets[b2 as usize]);
        }
    }

    /// Batched insert: prefetches each wavefront's candidate buckets,
    /// then applies the same probe as [`IndexTable::insert`] per item.
    /// Equivalent to `items.len()` scalar inserts in order (same
    /// outcomes, same total [`ResourceUsage`], same runtime statistics).
    ///
    /// # Panics
    /// Panics if `items` and `out` differ in length.
    pub fn insert_batch(
        &self,
        items: &[(KeyHash, u64)],
        out: &mut [Result<(), InsertError>],
    ) -> ResourceUsage {
        assert_eq!(items.len(), out.len(), "insert_batch slices must match");
        let mut usage = ResourceUsage::ZERO;
        for (chunk, outs) in items
            .chunks(PROBE_WAVEFRONT)
            .zip(out.chunks_mut(PROBE_WAVEFRONT))
        {
            self.prefetch_wavefront(chunk.iter().map(|&(kh, _)| kh));
            for (&(kh, loc), slot) in chunk.iter().zip(outs) {
                let (r, u) = self.insert(kh, loc);
                usage += u;
                *slot = r;
            }
        }
        usage
    }

    /// Batched upsert (the `IN`-Insert task path): prefetches each
    /// wavefront's candidate buckets, then applies
    /// [`IndexTable::upsert`] per item. Equivalent to scalar upserts in
    /// order.
    ///
    /// # Panics
    /// Panics if `items` and `out` differ in length.
    pub fn upsert_batch(
        &self,
        items: &[(KeyHash, u64)],
        out: &mut [Result<Option<u64>, InsertError>],
    ) -> ResourceUsage {
        assert_eq!(items.len(), out.len(), "upsert_batch slices must match");
        let mut usage = ResourceUsage::ZERO;
        for (chunk, outs) in items
            .chunks(PROBE_WAVEFRONT)
            .zip(out.chunks_mut(PROBE_WAVEFRONT))
        {
            self.prefetch_wavefront(chunk.iter().map(|&(kh, _)| kh));
            for (&(kh, loc), slot) in chunk.iter().zip(outs) {
                let (r, u) = self.upsert(kh, loc);
                usage += u;
                *slot = r;
            }
        }
        usage
    }

    /// Batched delete: prefetches each wavefront's candidate buckets,
    /// then applies [`IndexTable::delete`] per item. Equivalent to
    /// scalar deletes in order.
    ///
    /// # Panics
    /// Panics if `items` and `out` differ in length.
    pub fn delete_batch(&self, items: &[(KeyHash, u64)], out: &mut [bool]) -> ResourceUsage {
        assert_eq!(items.len(), out.len(), "delete_batch slices must match");
        let mut usage = ResourceUsage::ZERO;
        for (chunk, outs) in items
            .chunks(PROBE_WAVEFRONT)
            .zip(out.chunks_mut(PROBE_WAVEFRONT))
        {
            self.prefetch_wavefront(chunk.iter().map(|&(kh, _)| kh));
            for (&(kh, loc), slot) in chunk.iter().zip(outs) {
                let (removed, u) = self.delete(kh, loc);
                usage += u;
                *slot = removed;
            }
        }
        usage
    }

    /// Visit every live entry as `(signature, location)` (maintenance /
    /// integrity checking; concurrent writers may be missed or seen
    /// twice, as with any lock-free snapshot).
    pub fn for_each_entry<F: FnMut(u16, u64)>(&self, f: F) {
        self.for_each_entry_in(0..self.buckets.len(), f);
    }

    /// Visit every live entry whose bucket index falls in `buckets`
    /// (clamped to the table). Lets a maintenance sweep — e.g. the shard
    /// migration worker — walk the table in bounded chunks instead of
    /// one monolithic pass. The chunked sweep is exhaustive only while
    /// no concurrent *inserts* run: inserts may cuckoo-displace an entry
    /// from an unvisited bucket into an already-visited one, while
    /// deletes never move entries.
    pub fn for_each_entry_in<F: FnMut(u16, u64)>(&self, buckets: std::ops::Range<usize>, mut f: F) {
        let end = buckets.end.min(self.buckets.len());
        let start = buckets.start.min(end);
        for b in &self.buckets[start..end] {
            for slot in &b.slots {
                let word = slot.load(Ordering::Acquire);
                if slot_occupied(word) {
                    f(slot_sig(word), slot_loc(word));
                }
            }
        }
    }

    /// Remove every entry (single-threaded maintenance helper).
    pub fn clear(&self) {
        for b in self.buckets.iter() {
            for slot in &b.slots {
                slot.store(0, Ordering::Release);
            }
        }
        self.entries.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for IndexTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexTable")
            .field("buckets", &self.buckets.len())
            .field("entries", &self.len())
            .field("load_factor", &self.load_factor())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::key_hash;

    #[test]
    fn search_batch_matches_scalar_search() {
        let t = IndexTable::with_capacity(4096);
        let keys: Vec<KeyHash> = (0u32..1500)
            .map(|i| key_hash(format!("key-{i}").as_bytes()))
            .collect();
        for (i, &kh) in keys.iter().enumerate().step_by(3) {
            t.insert(kh, i as u64 + 1).0.unwrap();
        }
        // Probe a mix of present and absent keys, crossing wavefront
        // boundaries (1500 is not a multiple of PROBE_WAVEFRONT).
        let mut batch = vec![Candidates::default(); keys.len()];
        let batch_usage = t.search_batch(&keys, &mut batch);
        let mut scalar_usage = ResourceUsage::ZERO;
        for (i, &kh) in keys.iter().enumerate() {
            let (c, u) = t.search(kh);
            scalar_usage += u;
            assert_eq!(c, batch[i], "candidates diverge at key {i}");
        }
        assert_eq!(batch_usage, scalar_usage);
    }

    #[test]
    fn mutating_batches_match_scalar_ops() {
        let batched = IndexTable::with_capacity(2048);
        let scalar = IndexTable::with_capacity(2048);
        let items: Vec<(KeyHash, u64)> = (0u32..700)
            .map(|i| (key_hash(format!("m-{i}").as_bytes()), u64::from(i) + 1))
            .collect();

        let mut ins = vec![Ok(()); items.len()];
        let bu = batched.insert_batch(&items, &mut ins);
        let mut su = ResourceUsage::ZERO;
        for (i, &(kh, loc)) in items.iter().enumerate() {
            let (r, u) = scalar.insert(kh, loc);
            su += u;
            assert_eq!(r, ins[i]);
        }
        assert_eq!(bu, su);
        assert_eq!(batched.len(), scalar.len());

        // Upsert every key to a new location.
        let moved: Vec<(KeyHash, u64)> =
            items.iter().map(|&(kh, loc)| (kh, loc + 1000)).collect();
        let mut ups = vec![Ok(None); moved.len()];
        let bu = batched.upsert_batch(&moved, &mut ups);
        let mut su = ResourceUsage::ZERO;
        for (i, &(kh, loc)) in moved.iter().enumerate() {
            let (r, u) = scalar.upsert(kh, loc);
            su += u;
            assert_eq!(r, ups[i]);
        }
        assert_eq!(bu, su);

        // Delete the moved locations plus some absent ones.
        let mut dels: Vec<(KeyHash, u64)> = moved.clone();
        dels.extend((0u32..50).map(|i| (key_hash(format!("absent-{i}").as_bytes()), 9)));
        let mut removed = vec![false; dels.len()];
        let bu = batched.delete_batch(&dels, &mut removed);
        let mut su = ResourceUsage::ZERO;
        for (i, &(kh, loc)) in dels.iter().enumerate() {
            let (r, u) = scalar.delete(kh, loc);
            su += u;
            assert_eq!(r, removed[i]);
        }
        assert_eq!(bu, su);
        assert_eq!(batched.len(), 0);
        assert_eq!(scalar.len(), 0);
    }

    #[test]
    fn buckets_are_32_bytes_two_per_line() {
        // 32 Ki entries at 75 % load → 16 Ki buckets × 32 B.
        assert_eq!(IndexTable::with_capacity(32 << 10).bytes(), 512 << 10);
    }

    #[test]
    fn batch_ops_accept_empty_slices() {
        let t = IndexTable::with_capacity(64);
        assert!(t.search_batch(&[], &mut []).is_zero());
        assert!(t.insert_batch(&[], &mut []).is_zero());
        assert!(t.upsert_batch(&[], &mut []).is_zero());
        assert!(t.delete_batch(&[], &mut []).is_zero());
    }

    #[test]
    fn insert_then_search_finds_location() {
        let t = IndexTable::with_capacity(1024);
        let kh = key_hash(b"alpha");
        let (r, u) = t.insert(kh, 42);
        assert!(r.is_ok());
        assert!(u.mem_accesses >= 1);
        let (c, u) = t.search(kh);
        assert!(c.as_slice().contains(&42));
        assert!(u.mem_accesses >= 1 && u.mem_accesses <= 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn search_miss_reads_both_buckets() {
        let t = IndexTable::with_capacity(1024);
        let (c, u) = t.search(key_hash(b"missing"));
        assert!(c.is_empty());
        assert_eq!(u.mem_accesses, 2);
    }

    #[test]
    fn delete_removes_exactly_the_target() {
        let t = IndexTable::with_capacity(1024);
        let kh = key_hash(b"k");
        t.insert(kh, 1).0.unwrap();
        t.insert(kh, 2).0.unwrap(); // same sig, different loc (collision chain)
        let (ok, _) = t.delete(kh, 1);
        assert!(ok);
        let (c, _) = t.search(kh);
        assert_eq!(c.as_slice(), &[2]);
        let (ok, _) = t.delete(kh, 3);
        assert!(!ok, "deleting an absent location must fail");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn alt_bucket_is_an_involution_and_differs() {
        let t = IndexTable::with_capacity(4096);
        for i in 0..1000u64 {
            let kh = key_hash(&i.to_le_bytes());
            let b1 = t.primary_bucket(kh);
            let b2 = t.alt_bucket(b1, kh.sig);
            assert_ne!(b1, b2, "candidate buckets must differ");
            assert_eq!(t.alt_bucket(b2, kh.sig), b1, "alt must be an involution");
        }
    }

    #[test]
    fn fills_to_high_load_factor_with_kicks() {
        let t = IndexTable::with_capacity(4000);
        let mut stored = Vec::new();
        let mut failed = 0;
        for i in 0..4000u64 {
            let key = format!("key-{i}");
            let kh = key_hash(key.as_bytes());
            match t.insert(kh, i).0 {
                Ok(()) => stored.push((kh, i)),
                Err(InsertError::TableFull) => failed += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(
            failed < 40,
            "cuckoo kicks should reach ~75% load: {failed} failures at {:.2} load",
            t.load_factor()
        );
        // Everything stored must be findable.
        for (kh, loc) in stored {
            let (c, _) = t.search(kh);
            assert!(c.as_slice().contains(&loc), "lost loc {loc}");
        }
    }

    #[test]
    fn average_search_cost_is_between_one_and_two_buckets() {
        let t = IndexTable::with_capacity(8192);
        for i in 0..4096u64 {
            let kh = key_hash(&i.to_le_bytes());
            let _ = t.insert(kh, i);
        }
        let mut total = 0u64;
        for i in 0..4096u64 {
            let kh = key_hash(&i.to_le_bytes());
            let (_, u) = t.search(kh);
            total += u.mem_accesses;
        }
        let avg = total as f64 / 4096.0;
        assert!(
            avg > 1.0 && avg < 2.0,
            "avg probe cost {avg} should sit between 1 and 2 buckets"
        );
    }

    #[test]
    fn insert_bucket_stats_update() {
        let t = IndexTable::with_capacity(1024);
        assert_eq!(t.avg_insert_buckets(), 2.0, "default before data");
        for i in 0..512u64 {
            let _ = t.insert(key_hash(&i.to_le_bytes()), i);
        }
        let avg = t.avg_insert_buckets();
        assert!((1.0..8.0).contains(&avg), "avg insert buckets {avg}");
    }

    #[test]
    fn upsert_inserts_then_replaces() {
        let t = IndexTable::with_capacity(1024);
        let kh = key_hash(b"same-key");
        let (r, _) = t.upsert(kh, 10);
        assert_eq!(r.unwrap(), None, "fresh key inserts");
        assert_eq!(t.len(), 1);
        let (r, u) = t.upsert(kh, 20);
        assert_eq!(r.unwrap(), Some(10), "same signature replaces in place");
        assert!(u.mem_accesses >= 1);
        assert_eq!(t.len(), 1, "replacement must not grow the table");
        let (c, _) = t.search(kh);
        assert_eq!(c.as_slice(), &[20], "only the new location remains");
    }

    #[test]
    fn tags_ride_with_their_entry_and_deletes_ignore_them() {
        let t = IndexTable::with_capacity(64);
        let kh = key_hash(b"tagged");
        assert_eq!(t.upsert(kh, tagged(10, 63)).0, Ok(None));
        let (r, _) = t.upsert(kh, tagged(20, 5));
        assert_eq!(r.map(|old| old.map(untagged)), Ok(Some((10, 63))));
        let (c, _) = t.search(kh);
        assert_eq!(c.as_slice(), &[20], "searches see locations only");
        assert!(t.delete(kh, 20).0, "a delete matches whatever the tag");
        assert!(t.is_empty());

        // Kicks move whole words: fill 8 buckets to ~90 %, so inserts
        // displace earlier entries, and every entry still answers with
        // its own tag.
        let t = IndexTable::with_capacity(16);
        let stored: Vec<(usize, KeyHash)> = (0u64..29)
            .map(|i| (i as usize, key_hash(&i.to_le_bytes())))
            .filter(|&(i, kh)| t.insert(kh, tagged(i as u64, i as u8)).0.is_ok())
            .collect();
        assert!(stored.len() > 24, "only {} of 29 placed", stored.len());
        for (i, kh) in stored {
            let (r, _) = t.upsert(kh, 1000);
            assert_eq!(r.unwrap().map(untagged), Some((i as u64, i as u8)), "key {i}");
        }
    }

    #[test]
    fn upsert_rejects_oversized_location() {
        let t = IndexTable::with_capacity(16);
        let (r, _) = t.upsert(key_hash(b"x"), MAX_LOCATION + 1);
        assert_eq!(r, Err(InsertError::LocationTooLarge));
    }

    #[test]
    fn location_too_large_is_rejected() {
        let t = IndexTable::with_capacity(16);
        let (r, _) = t.insert(key_hash(b"x"), MAX_LOCATION + 1);
        assert_eq!(r, Err(InsertError::LocationTooLarge));
        let (r, _) = t.insert(key_hash(b"x"), MAX_LOCATION);
        assert!(r.is_ok());
    }

    #[test]
    fn for_each_entry_visits_every_live_entry() {
        let t = IndexTable::with_capacity(256);
        for i in 0..100u64 {
            t.insert(key_hash(&i.to_le_bytes()), i).0.unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        t.for_each_entry(|_sig, loc| {
            assert!(seen.insert(loc), "duplicate loc {loc}");
        });
        assert_eq!(seen.len(), 100);
        for i in 0..100u64 {
            assert!(seen.contains(&i));
        }
    }

    #[test]
    fn clear_empties_table() {
        let t = IndexTable::with_capacity(64);
        for i in 0..32u64 {
            let _ = t.insert(key_hash(&i.to_le_bytes()), i);
        }
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
        let (c, _) = t.search(key_hash(&0u64.to_le_bytes()));
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = IndexTable::with_capacity(0);
    }

    #[test]
    fn concurrent_inserts_and_searches() {
        use std::sync::Arc;
        let t = Arc::new(IndexTable::with_capacity(64 * 1024));
        let threads = 4;
        let per_thread = 8_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let base = tid as u64 * per_thread;
                    for i in base..base + per_thread {
                        let kh = key_hash(&i.to_le_bytes());
                        t.insert(kh, i).0.expect("insert");
                    }
                    // Verify own writes while others keep inserting.
                    for i in base..base + per_thread {
                        let kh = key_hash(&i.to_le_bytes());
                        let (c, _) = t.search(kh);
                        assert!(c.as_slice().contains(&i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), threads as usize * per_thread as usize);
    }

    #[test]
    fn concurrent_delete_insert_mix() {
        use std::sync::Arc;
        let t = Arc::new(IndexTable::with_capacity(32 * 1024));
        for i in 0..16_000u64 {
            t.insert(key_hash(&i.to_le_bytes()), i).0.unwrap();
        }
        let deleter = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..8_000u64 {
                    let (ok, _) = t.delete(key_hash(&i.to_le_bytes()), i);
                    assert!(ok, "entry {i} must be deletable exactly once");
                }
            })
        };
        let searcher = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 8_000..16_000u64 {
                    let (c, _) = t.search(key_hash(&i.to_le_bytes()));
                    assert!(c.as_slice().contains(&i), "undeleted entry {i} must stay");
                }
            })
        };
        deleter.join().unwrap();
        searcher.join().unwrap();
        assert_eq!(t.len(), 8_000);
    }
}
