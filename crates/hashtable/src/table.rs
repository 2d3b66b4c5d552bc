//! The concurrent cuckoo hash index.
//!
//! Layout follows the Mega-KV / MemC3 lineage the paper builds on:
//!
//! * buckets of [`SLOTS_PER_BUCKET`] slots, 32 B each, two buckets per
//!   64 B cache line (a bucket never straddles a line, so a probe
//!   touches exactly one);
//! * each slot is a single `AtomicU64` packing
//!   `occupied(1) | shared(1) | tag(6) | signature(16) | location(40)`,
//!   where `tag` is the incarnation of the object at `location` when the
//!   entry was written (see [`tagged`]): the one fact that tells the
//!   version an upsert replaced from a later occupant of the same slot;
//!   and `shared` marks an entry whose bucket pair also holds another
//!   key's entry of the same signature (see [`IndexTable::upsert_batch_with`]);
//! * two candidate buckets per key, with the alternate bucket computed
//!   from the *signature only* (partial-key cuckoo hashing), so a kicked
//!   entry can be rehomed without access to its key;
//! * Insert/Delete use compare-exchange to avoid write-write conflicts
//!   and Search uses atomic loads (paper §III-B-2's concurrency rules);
//! * every operation reports [`ResourceUsage`] — one memory access per
//!   bucket touched — feeding the timing layer and the cost model's
//!   `(Σ_{i=1..n} i)/n` bucket-probe estimate.
//!
//! The table can grow. Its bucket array and mask sit behind a
//! reader-writer lock: every operation holds it shared (a batch
//! operation once per probe wavefront), and [`IndexTable::reserve`] /
//! [`IndexTable::grow`] hold it exclusive while they replace the array
//! with one a power of two larger. A slot keeps a 16-bit signature, not
//! the key's hash, so growth cannot place an entry by itself: the caller
//! supplies each entry's full hash, or refuses the entry, which is then
//! dropped. A table no caller grows keeps its geometry for life — the
//! reproduction's fixed Mega-KV index is one.

use crate::hash::KeyHash;
use crate::prefetch::prefetch_read;
use dido_model::ResourceUsage;
use std::alloc::{self, Layout};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// Keys probed per prefetch wavefront by the `*_batch` operations.
/// Matches the simulated pipeline's work-stealing tag granularity
/// ([`dido_model::WAVEFRONT_WIDTH`]), so stolen items are whole probe
/// wavefronts.
pub const PROBE_WAVEFRONT: usize = dido_model::WAVEFRONT_WIDTH;

/// Slots per bucket (4 × 8 B slots = one 32 B bucket, half a 64 B cache
/// line).
pub const SLOTS_PER_BUCKET: usize = 4;

const OCCUPIED: u64 = 1 << 63;
/// Another key's entry of this signature may sit in this entry's bucket
/// pair, so a search that matches this entry in its first bucket scans
/// the second as well. Set by a checked upsert, never cleared; it moves
/// with its word.
const SHARED: u64 = 1 << 62;
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

/// Victims a displacement walk visits before an insert gives up.
const KICK_LIMIT: usize = 128;

/// Entries `buckets` buckets hold at the load target: ¾ of their slots.
const fn max_entries(buckets: usize) -> usize {
    buckets * SLOTS_PER_BUCKET * 3 / 4
}

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
    /// full / pathological cycle). [`IndexTable::grow`] makes room.
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

/// An `AtomicU64` alone on its 64 B cache line.
#[repr(align(64))]
struct OwnLine(AtomicU64);

/// The bucket array and the mask that maps a hash into it: all that
/// growth replaces. Every probe runs against one `Geometry`, under the
/// table's lock.
struct Geometry {
    buckets: Buckets,
    mask: u64,
    /// Entries displacement walks have moved, bumped (Release) between a
    /// move's copy into its new slot and the clear of its old one. A
    /// probe that scans an entry's two buckets while it moves from the
    /// second to the first can find it in neither; any probe that saw the
    /// clear also sees the bump. So a probe that found nothing rereads
    /// this count, and scans again if it changed. Every kick writes it
    /// and every probe reads it, so it keeps a line of its own, apart
    /// from the lock word and from `buckets` and `mask`.
    moves: OwnLine,
}

impl Geometry {
    /// `n` empty buckets (`n` a power of two).
    fn zeroed(n: usize) -> Geometry {
        debug_assert!(n.is_power_of_two());
        Geometry {
            buckets: Buckets::zeroed(n),
            mask: (n - 1) as u64,
            moves: OwnLine(AtomicU64::new(0)),
        }
    }

    /// The move count, read ahead of a probe (Acquire: a probe that sees
    /// a move's bump also sees its copy).
    #[inline]
    fn moves(&self) -> u64 {
        self.moves.0.load(Ordering::Acquire)
    }

    #[inline]
    fn primary_bucket(&self, kh: KeyHash) -> u64 {
        kh.hash & self.mask
    }

    /// The alternate bucket is derived from the current bucket and the
    /// signature only, and the mapping is an involution
    /// (`alt(alt(b)) == b`), which is what lets displacement work
    /// without the key.
    #[inline]
    fn alt_bucket(&self, bucket: u64, sig: u16) -> u64 {
        let tag = (u64::from(sig).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1) & self.mask;
        bucket ^ tag
    }

    /// The first bucket's matches, and the second's too when the first
    /// had none or a [`SHARED`] one. A scan that may have missed the key's
    /// entry while one moved — it found nothing, or only entries marked
    /// shared — runs again.
    fn search(&self, kh: KeyHash) -> (Candidates, ResourceUsage) {
        let mut buckets_read = 0u64;
        loop {
            let moves = self.moves();
            let mut cands = Candidates::default();
            let b1 = self.primary_bucket(kh);
            buckets_read += 1;
            let mut shared = self.scan_bucket(b1, kh.sig, &mut cands);
            if cands.is_empty() || shared {
                let b2 = self.alt_bucket(b1, kh.sig);
                buckets_read += 1;
                shared |= self.scan_bucket(b2, kh.sig, &mut cands);
            }
            if (!cands.is_empty() && !shared) || self.moves() == moves {
                let usage =
                    ResourceUsage::new(buckets_read * INSNS_PER_BUCKET_PROBE, buckets_read, 0);
                return (cands, usage);
            }
        }
    }

    /// Push `bucket`'s locations under `sig`, in slot order; returns
    /// whether one of them is marked [`SHARED`]. The four slots are
    /// compared first and only the matches branched on: in a well-filled
    /// table whether a slot is occupied is a coin toss, and a branch per
    /// slot on it mispredicts.
    fn scan_bucket(&self, bucket: u64, sig: u16, out: &mut Candidates) -> bool {
        let want = OCCUPIED | (u64::from(sig) << SIG_SHIFT);
        let words = self.buckets[bucket as usize]
            .slots
            .each_ref()
            .map(|slot| slot.load(Ordering::Acquire));
        let mut matches = 0u32;
        for (i, &word) in words.iter().enumerate() {
            matches |= u32::from(word & (OCCUPIED | SIG_MASK) == want) << i;
        }
        let mut shared = false;
        while matches != 0 {
            let word = words[matches.trailing_zeros() as usize];
            out.push(slot_loc(word));
            shared |= word & SHARED != 0;
            matches &= matches - 1;
        }
        shared
    }

    /// Place the slot word `entry` in one of `kh`'s candidate buckets,
    /// displacing other entries if both are full.
    fn insert_word(
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
            if let Some(path) = self.find_kick_path(start, &mut rng_state, buckets_touched) {
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
        for _ in 0..KICK_LIMIT {
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
            self.moves.0.fetch_add(1, Ordering::AcqRel);
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

    /// One wavefront of the batched search; returns buckets read. Keys
    /// whose scan may have missed their entry while one moved (as in
    /// [`Geometry::search`]) are searched again, one by one.
    fn search_wavefront(&self, keys: &[KeyHash], out: &mut [Candidates]) -> u64 {
        let n = keys.len();
        debug_assert!(n <= PROBE_WAVEFRONT);
        let moves = self.moves();
        // Pass 1: bucket indices + prefetch. Bucket indices are kept so
        // pass 2 never recomputes the hash mapping.
        let mut b1 = [0u64; PROBE_WAVEFRONT];
        for (slot, kh) in b1.iter_mut().zip(keys) {
            let b = self.primary_bucket(*kh);
            *slot = b;
            prefetch_read(&raw const self.buckets[b as usize]);
        }
        // Pass 2: scan the warm primary buckets; misses (and matches
        // marked shared) queue their alternate bucket for the next
        // prefetch round.
        let mut miss = [(0usize, 0u64, false); PROBE_WAVEFRONT];
        let mut n_miss = 0usize;
        for i in 0..n {
            out[i] = Candidates::default();
            let shared = self.scan_bucket(b1[i], keys[i].sig, &mut out[i]);
            if out[i].is_empty() || shared {
                let alt = self.alt_bucket(b1[i], keys[i].sig);
                miss[n_miss] = (i, alt, shared);
                n_miss += 1;
                prefetch_read(&raw const self.buckets[alt as usize]);
            }
        }
        // Pass 3: scan the warm alternate buckets of the misses.
        for (i, alt, shared) in &mut miss[..n_miss] {
            *shared |= self.scan_bucket(*alt, keys[*i].sig, &mut out[*i]);
        }
        let mut buckets_read = (n + n_miss) as u64;
        if n_miss > 0 && self.moves() != moves {
            for &(i, _, shared) in &miss[..n_miss] {
                if out[i].is_empty() || shared {
                    let (cands, usage) = self.search(keys[i]);
                    out[i] = cands;
                    buckets_read += usage.mem_accesses;
                }
            }
        }
        buckets_read
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

    /// The occupied slot words.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.buckets
            .iter()
            .flat_map(|b| &b.slots)
            .map(|slot| slot.load(Ordering::Acquire))
            .filter(|&word| slot_occupied(word))
    }

    /// `self`'s entries in a fresh array of `n` buckets — or of the next
    /// power of two that takes them all, should one not fit — with every
    /// entry `rehash` refuses, or gives a hash of another signature,
    /// left behind. `rehash` is asked a wavefront of entries at a time.
    /// Returns the array and the entries it holds.
    fn rehashed(
        &self,
        mut n: usize,
        rehash: &mut impl FnMut(&[u64], &mut [Option<u64>]),
    ) -> (Geometry, u64) {
        let mut words = [0u64; PROBE_WAVEFRONT];
        let mut values = [0u64; PROBE_WAVEFRONT];
        let mut hashes = [None; PROBE_WAVEFRONT];
        'size: loop {
            let fresh = Geometry::zeroed(n);
            let mut carried = 0;
            let mut occupied = self.words();
            loop {
                let mut len = 0;
                for word in occupied.by_ref().take(PROBE_WAVEFRONT) {
                    (words[len], values[len]) = (word, slot_value(word));
                    len += 1;
                }
                if len == 0 {
                    return (fresh, carried);
                }
                rehash(&values[..len], &mut hashes[..len]);
                for (&word, hash) in words[..len].iter().zip(&hashes[..len]) {
                    let Some(kh) = hash.map(KeyHash::from_hash) else {
                        continue;
                    };
                    if kh.sig != slot_sig(word) {
                        continue;
                    }
                    if fresh.insert_word(kh, word, &mut 0, &mut 0).is_err() {
                        n *= 2;
                        continue 'size;
                    }
                    carried += 1;
                }
            }
        }
    }
}

/// A concurrent partial-key cuckoo hash index.
pub struct IndexTable {
    geometry: RwLock<Geometry>,
    /// `geometry`'s bucket count, readable without the lock; growth
    /// writes it under the exclusive lock.
    bucket_count: AtomicUsize,
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
    /// Create a table with room for `capacity` entries under its load
    /// target of ¾ of its slots. The bucket count is rounded up to a
    /// power of two (at least 2), so `capacity` entries fill between
    /// 37.5 % and 75 % of the slots. The table keeps this size until
    /// [`IndexTable::reserve`] or [`IndexTable::grow`] enlarges it.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> IndexTable {
        assert!(capacity > 0, "capacity must be positive");
        let n = capacity.div_ceil(max_entries(1)).next_power_of_two().max(2);
        IndexTable {
            geometry: RwLock::new(Geometry::zeroed(n)),
            bucket_count: AtomicUsize::new(n),
            entries: AtomicU64::new(0),
            insert_ops: AtomicU64::new(0),
            insert_buckets: AtomicU64::new(0),
            delete_ops: AtomicU64::new(0),
            delete_buckets: AtomicU64::new(0),
        }
    }

    /// The current geometry, held shared. Growth swaps in the new array
    /// only once it is complete, so a panic under the exclusive lock (in
    /// a caller's rehash) leaves the old table whole: a poisoned lock
    /// still guards a valid one.
    fn geometry(&self) -> RwLockReadGuard<'_, Geometry> {
        self.geometry.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of buckets (a power of two).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.bucket_count.load(Ordering::Relaxed)
    }

    /// Bytes the bucket array occupies.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bucket_count() * size_of::<Bucket>()
    }

    /// Total slot capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.bucket_count() * SLOTS_PER_BUCKET
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

    /// Make room for `additional` more entries: if they would take the
    /// table past its load target, grow it by doubling to the first size
    /// that holds them, as [`IndexTable::grow`] does. Racing callers
    /// re-check under the lock, so they grow the table once. Returns how
    /// many doublings it took: 0 when there was room, which costs two
    /// relaxed loads.
    pub fn reserve(
        &self,
        additional: usize,
        rehash: impl FnMut(&[u64], &mut [Option<u64>]),
    ) -> u32 {
        let short = |buckets| self.len() + additional > max_entries(buckets);
        if !short(self.bucket_count()) {
            return 0;
        }
        self.grow_while(short, rehash)
    }

    /// Double the table after an insert into `seen` buckets found no
    /// room ([`InsertError::TableFull`]) — unless a racing caller has
    /// grown it since. Holds the lock exclusive while it moves every
    /// entry `rehash` accepts, with its tag, into an allocator-zeroed
    /// array twice the size, then frees the old one. `rehash` is handed
    /// the [`tagged`] values of up to [`PROBE_WAVEFRONT`] entries at a
    /// time and names each one's full key hash, or refuses it (`None`);
    /// an entry refused, or given a hash of another signature, is
    /// dropped. Returns how many doublings it took (more than one only if
    /// an entry did not fit the doubled array).
    pub fn grow(&self, seen: usize, rehash: impl FnMut(&[u64], &mut [Option<u64>])) -> u32 {
        self.grow_while(|buckets| buckets <= seen, rehash)
    }

    /// Double the bucket count while `short` holds for it, decided under
    /// the exclusive lock, and move the entries over once.
    fn grow_while(
        &self,
        short: impl Fn(usize) -> bool,
        mut rehash: impl FnMut(&[u64], &mut [Option<u64>]),
    ) -> u32 {
        let mut geometry = self
            .geometry
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let old = geometry.buckets.len();
        let mut n = old;
        while short(n) {
            n *= 2;
        }
        if n == old {
            return 0;
        }
        let (fresh, carried) = geometry.rehashed(n, &mut rehash);
        let n = fresh.buckets.len();
        *geometry = fresh;
        self.bucket_count.store(n, Ordering::Relaxed);
        self.entries.store(carried, Ordering::Relaxed);
        // The probe averages describe the table probes run against: what
        // the smaller, fuller one measured no longer holds.
        let stats = [
            &self.insert_ops,
            &self.insert_buckets,
            &self.delete_ops,
            &self.delete_buckets,
        ];
        for stat in stats {
            stat.store(0, Ordering::Relaxed);
        }
        (n / old).ilog2()
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
        self.geometry().search(kh)
    }

    /// Insert `(signature, value)`, `value` a location or a [`tagged`]
    /// one. Returns the probe's resource usage alongside the outcome.
    pub fn insert(&self, kh: KeyHash, value: u64) -> (Result<(), InsertError>, ResourceUsage) {
        self.insert_in(&self.geometry(), kh, value)
    }

    fn insert_in(
        &self,
        g: &Geometry,
        kh: KeyHash,
        value: u64,
    ) -> (Result<(), InsertError>, ResourceUsage) {
        if !fits(value) {
            return (Err(InsertError::LocationTooLarge), ResourceUsage::ZERO);
        }
        self.place(g, kh, encode(kh.sig, value))
    }

    /// Place the slot word `entry`, displacing others if it must, and
    /// count it as an insert.
    fn place(
        &self,
        g: &Geometry,
        kh: KeyHash,
        entry: u64,
    ) -> (Result<(), InsertError>, ResourceUsage) {
        let mut buckets_touched = 0u64;
        let mut cas_ops = 0u64;
        let result = g.insert_word(kh, entry, &mut buckets_touched, &mut cas_ops);
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
    /// [`IndexTable::upsert_batch_with`] keeps both keys instead.
    pub fn upsert(
        &self,
        kh: KeyHash,
        value: u64,
    ) -> (Result<Option<u64>, InsertError>, ResourceUsage) {
        self.upsert_in(&self.geometry(), kh, value, &mut |_| true)
    }

    /// [`IndexTable::upsert`], replacing only a same-signature entry
    /// `same_key` accepts (it is handed the entry's [`tagged`] value).
    fn upsert_in(
        &self,
        g: &Geometry,
        kh: KeyHash,
        value: u64,
        same_key: &mut impl FnMut(u64) -> bool,
    ) -> (Result<Option<u64>, InsertError>, ResourceUsage) {
        if !fits(value) {
            return (Err(InsertError::LocationTooLarge), ResourceUsage::ZERO);
        }
        let mut entry = encode(kh.sig, value);
        let b1 = g.primary_bucket(kh);
        let b2 = g.alt_bucket(b1, kh.sig);
        let mut buckets = 0u64;
        let mut cas_ops = 0u64;
        // One pass over both candidate buckets: replace the key's entry
        // if present, remembering empty slots along the way so the
        // fresh-insert case needs no second scan. Another key's entry of
        // the signature is marked shared, and so is the new one. A pass
        // that found no entry of the key while one moved runs again.
        let mut empties: [(u64, usize); 2 * SLOTS_PER_BUCKET] = Default::default();
        let mut n_empty;
        loop {
            let moves = g.moves();
            n_empty = 0;
            for &b in &[b1, b2] {
                buckets += 1;
                let bucket = &g.buckets[b as usize];
                for (i, slot) in bucket.slots.iter().enumerate() {
                    let mut word = slot.load(Ordering::Acquire);
                    while slot_occupied(word) && slot_sig(word) == kh.sig {
                        if !same_key(slot_value(word)) {
                            entry |= SHARED;
                            if word & SHARED != 0 {
                                break;
                            }
                            cas_ops += 1;
                            match slot.compare_exchange(
                                word,
                                word | SHARED,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => break,
                                Err(now) => {
                                    word = now;
                                    continue;
                                }
                            }
                        }
                        cas_ops += 1;
                        match slot.compare_exchange(
                            word,
                            entry | (word & SHARED),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => {
                                let usage = ResourceUsage::new(
                                    buckets * INSNS_PER_BUCKET_PROBE + cas_ops * INSNS_PER_CAS,
                                    buckets,
                                    0,
                                );
                                return (Ok(Some(slot_value(word))), usage);
                            }
                            // A racing upsert of the same key swapped the
                            // entry first: replace what it put there, or
                            // the key would end up with two entries.
                            Err(now) => word = now,
                        }
                    }
                    if !slot_occupied(word) {
                        empties[n_empty] = (b, i);
                        n_empty += 1;
                    }
                }
            }
            if g.moves() == moves {
                break;
            }
        }
        // Fresh insert into a remembered empty slot.
        for &(b, i) in &empties[..n_empty] {
            cas_ops += 1;
            if g.buckets[b as usize].slots[i]
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
        let (result, mut usage) = self.place(g, kh, entry);
        usage.instructions += cas_ops * INSNS_PER_CAS;
        (result.map(|()| None), usage)
    }

    /// Delete the entry matching `(signature, location)`, whatever its
    /// tag or mark. Returns whether an entry was removed, plus resource
    /// usage.
    pub fn delete(&self, kh: KeyHash, loc: u64) -> (bool, ResourceUsage) {
        self.delete_in(&self.geometry(), kh, loc)
    }

    fn delete_in(&self, g: &Geometry, kh: KeyHash, loc: u64) -> (bool, ResourceUsage) {
        let b1 = g.primary_bucket(kh);
        let b2 = g.alt_bucket(b1, kh.sig);
        let target = encode(kh.sig, loc & LOC_MASK);
        let mut buckets = 0u64;
        let mut cas_ops = 0u64;
        let mut removed = false;
        // A pass that found no entry while one moved runs again.
        let mut moves = g.moves();
        'outer: loop {
            for &b in &[b1, b2] {
                buckets += 1;
                let bucket = &g.buckets[b as usize];
                for slot in &bucket.slots {
                    let word = slot.load(Ordering::Acquire);
                    if word & !(TAG_MASK | SHARED) == target {
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
            let now = g.moves();
            if now == moves {
                break;
            }
            moves = now;
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
            buckets_read += self.geometry().search_wavefront(kc, oc);
        }
        ResourceUsage::new(buckets_read * INSNS_PER_BUCKET_PROBE, buckets_read, 0)
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
            let g = self.geometry();
            g.prefetch_wavefront(chunk.iter().map(|&(kh, _)| kh));
            for (&(kh, loc), slot) in chunk.iter().zip(outs) {
                let (r, u) = self.insert_in(&g, kh, loc);
                usage += u;
                *slot = r;
            }
        }
        usage
    }

    /// Batched upsert: prefetches each wavefront's candidate buckets,
    /// then applies [`IndexTable::upsert`] per item. Equivalent to
    /// scalar upserts in order.
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
        let mut at = 0;
        while at < items.len() {
            let (u, applied) = self.upsert_batch_with(&items[at..], &mut out[at..], |_, _| true);
            usage += u;
            at += applied;
            if let Some(full) = out.get_mut(at) {
                *full = Err(InsertError::TableFull);
                at += 1;
            }
        }
        usage
    }

    /// Batched upsert that keeps keys of one signature apart, and stops
    /// where the table runs out of room (the `IN`-Insert task path).
    /// Items apply in order, a prefetched wavefront at a time. Of the
    /// entries under item `k`'s signature in its bucket pair, one that
    /// `same_key(k, value)` accepts — the key's own, or one its owner
    /// knows is stale — is replaced, as [`IndexTable::upsert`] replaces
    /// it. Every other stays, and it and the new entry are marked shared,
    /// so a search of either key scans both buckets and finds both.
    ///
    /// Stops before the first item whose insert found no slot
    /// ([`InsertError::TableFull`]), leaving its `out` untouched: the
    /// caller grows the table and resumes there, so the batch still
    /// applies in order. Returns the usage of every probe made, the
    /// failed one's included, and how many items were applied.
    ///
    /// # Panics
    /// Panics if `items` and `out` differ in length.
    pub fn upsert_batch_with(
        &self,
        items: &[(KeyHash, u64)],
        out: &mut [Result<Option<u64>, InsertError>],
        mut same_key: impl FnMut(usize, u64) -> bool,
    ) -> (ResourceUsage, usize) {
        assert_eq!(items.len(), out.len(), "upsert_batch slices must match");
        let mut usage = ResourceUsage::ZERO;
        for (w, (chunk, outs)) in items
            .chunks(PROBE_WAVEFRONT)
            .zip(out.chunks_mut(PROBE_WAVEFRONT))
            .enumerate()
        {
            let g = self.geometry();
            g.prefetch_wavefront(chunk.iter().map(|&(kh, _)| kh));
            for (i, (&(kh, loc), slot)) in chunk.iter().zip(outs).enumerate() {
                let k = w * PROBE_WAVEFRONT + i;
                let (r, u) = self.upsert_in(&g, kh, loc, &mut |value| same_key(k, value));
                usage += u;
                if r == Err(InsertError::TableFull) {
                    return (usage, k);
                }
                *slot = r;
            }
        }
        (usage, items.len())
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
            let g = self.geometry();
            g.prefetch_wavefront(chunk.iter().map(|&(kh, _)| kh));
            for (&(kh, loc), slot) in chunk.iter().zip(outs) {
                let (removed, u) = self.delete_in(&g, kh, loc);
                usage += u;
                *slot = removed;
            }
        }
        usage
    }

    /// Visit every live entry as `(signature, location)` (maintenance /
    /// integrity checking; concurrent writers may be missed or seen
    /// twice, as with any lock-free snapshot). `f` runs under the
    /// table's shared lock, so it must not call back into the table.
    pub fn for_each_entry<F: FnMut(u16, u64)>(&self, f: F) {
        self.for_each_entry_in(0..usize::MAX, f);
    }

    /// Visit every live entry whose bucket index falls in `buckets`
    /// (clamped to the table). Lets a maintenance sweep — e.g. the shard
    /// migration worker — walk the table in bounded chunks instead of
    /// one monolithic pass. The chunked sweep is exhaustive only while
    /// no concurrent *inserts* run: inserts may cuckoo-displace an entry
    /// from an unvisited bucket into an already-visited one, or grow the
    /// table, while deletes never move entries. As with
    /// [`IndexTable::for_each_entry`], `f` must not call back into the
    /// table.
    pub fn for_each_entry_in<F: FnMut(u16, u64)>(&self, buckets: std::ops::Range<usize>, mut f: F) {
        let g = self.geometry();
        let end = buckets.end.min(g.buckets.len());
        let start = buckets.start.min(end);
        for b in &g.buckets[start..end] {
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
        for b in self.geometry().buckets.iter() {
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
            .field("buckets", &self.bucket_count())
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

    /// The hash a `rehash` callback in these tests names: keys are the
    /// little-endian bytes of their location.
    fn hash_of_loc(value: u64) -> u64 {
        key_hash(&untagged(value).0.to_le_bytes()).hash
    }

    /// A `rehash` callback answering each entry with `f`.
    fn each(f: impl Fn(u64) -> Option<u64>) -> impl FnMut(&[u64], &mut [Option<u64>]) {
        move |values, hashes| {
            for (&value, hash) in values.iter().zip(hashes) {
                *hash = f(value);
            }
        }
    }

    #[test]
    fn grow_carries_exactly_the_accepted_entries_with_their_tags() {
        let t = IndexTable::with_capacity(300);
        let seen = t.bucket_count();
        for loc in 0..300u64 {
            let kh = key_hash(&loc.to_le_bytes());
            t.insert(kh, tagged(loc, (loc % 64) as u8)).0.unwrap();
        }
        // Refuse every third entry, and name a wrong hash (another
        // signature) for every seventh of the rest.
        let accepted = |loc: u64| !matches!((loc % 3, loc % 7), (0, _) | (_, 0));
        let doublings = t.grow(
            seen,
            each(|value| {
                let loc = untagged(value).0;
                match (loc % 3, loc % 7) {
                    (0, _) => None,
                    (_, 0) => Some(!hash_of_loc(value)),
                    _ => Some(hash_of_loc(value)),
                }
            }),
        );
        assert_eq!(doublings, 1);
        assert_eq!(t.bucket_count(), 2 * seen);
        assert_eq!(t.grow(seen, |_, _| unreachable!("already grown")), 0);
        assert_eq!(t.len(), (0..300).filter(|&l| accepted(l)).count());
        for loc in 0..300u64 {
            let kh = key_hash(&loc.to_le_bytes());
            let (cands, _) = t.search(kh);
            assert_eq!(cands.as_slice().contains(&loc), accepted(loc), "loc {loc}");
            if accepted(loc) {
                // The upsert hands back the carried entry, tag included.
                let (old, _) = t.upsert(kh, loc);
                assert_eq!(old.unwrap().map(untagged), Some((loc, (loc % 64) as u8)));
            }
        }
    }

    /// Keys sharing a signature and a bucket pair: a checked upsert of
    /// one keeps the others' entries, and a search of any of them —
    /// wherever inserts and kicks leave the entries — returns its own.
    #[test]
    fn checked_upserts_keep_every_key_of_a_shared_signature() {
        // One signature and one primary bucket; the middle bits tell the
        // keys apart, and a location `1000 k + version` names its key.
        let twin = |k: u64| KeyHash::from_hash((0xBEEF << 48) | (k << 24) | 5);
        let upsert = |t: &IndexTable, k: u64, loc: u64| {
            let mut out = [Ok(None)];
            let (_, applied) =
                t.upsert_batch_with(&[(twin(k), loc)], &mut out, |_, v| untagged(v).0 / 1000 == k);
            assert_eq!(applied, 1);
            out[0].unwrap()
        };
        let found =
            |t: &IndexTable, k: u64, loc: u64| t.search(twin(k)).0.as_slice().contains(&loc);
        let t = IndexTable::with_capacity(48);
        // Fill the table near its target so later inserts kick.
        for loc in 0..30u64 {
            t.insert(key_hash(format!("fill-{loc}").as_bytes()), loc).0.unwrap();
        }
        for k in 1..=3 {
            assert_eq!(upsert(&t, k, 1000 * k), None, "twin {k} is new");
        }
        for loc in 30..34u64 {
            t.insert(key_hash(format!("fill-{loc}").as_bytes()), loc).0.unwrap();
        }
        for k in 1..=3 {
            assert!(found(&t, k, 1000 * k), "twin {k}");
        }
        assert_eq!(upsert(&t, 2, 2001), Some(2000), "an overwrite replaces its own");
        assert!(found(&t, 1, 1000) && found(&t, 2, 2001) && found(&t, 3, 3000));
        assert!(t.delete(twin(1), 1000).0);
        assert!(found(&t, 2, 2001) && found(&t, 3, 3000));
        assert_eq!(t.len(), 30 + 4 + 2);
    }

    #[test]
    fn a_checked_batch_stops_where_the_table_is_full() {
        // Two buckets: every key shares their 8 slots.
        let t = IndexTable::with_capacity(1);
        let items: Vec<(KeyHash, u64)> =
            (0..10u64).map(|i| (key_hash(&i.to_le_bytes()), i)).collect();
        let mut out = [Ok(Some(7)); 10];
        let (usage, applied) = t.upsert_batch_with(&items, &mut out, |_, _| false);
        assert_eq!(applied, 8);
        assert!(out[..8].iter().all(|r| *r == Ok(None)));
        assert!(out[8..].iter().all(|r| *r == Ok(Some(7))), "untouched");
        assert!(usage.mem_accesses > 16, "the failed walk is counted");
    }

    #[test]
    fn reserve_grows_only_past_the_load_target() {
        let t = IndexTable::with_capacity(16);
        let (buckets, room) = (t.bucket_count(), max_entries(t.bucket_count()));
        for loc in 0..room as u64 {
            assert_eq!(t.reserve(1, |_, _| unreachable!("room left")), 0);
            t.insert(key_hash(&loc.to_le_bytes()), loc).0.unwrap();
        }
        assert_eq!(t.bucket_count(), buckets, "full to the target, not past it");
        assert_eq!(t.reserve(1, each(|v| Some(hash_of_loc(v)))), 1);
        assert_eq!(t.bucket_count(), 2 * buckets);
        assert_eq!(t.len(), room, "every entry carried");
    }

    #[test]
    fn reserving_from_a_small_table_reaches_the_presized_geometry() {
        for n in [1, 2, 7, 768, 769, 5000, 3 << 16, (3 << 16) + 1, 48 << 15] {
            let grown = IndexTable::with_capacity(1);
            grown.reserve(n, |_, _| unreachable!("empty"));
            assert_eq!(
                grown.bucket_count(),
                IndexTable::with_capacity(n).bucket_count(),
                "{n} entries"
            );
        }
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
        let g = t.geometry();
        for i in 0..1000u64 {
            let kh = key_hash(&i.to_le_bytes());
            let b1 = g.primary_bucket(kh);
            let b2 = g.alt_bucket(b1, kh.sig);
            assert_ne!(b1, b2, "candidate buckets must differ");
            assert_eq!(g.alt_bucket(b2, kh.sig), b1, "alt must be an involution");
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

    /// Inserters grow a small table through several doublings while
    /// searchers probe every key whose insert has already returned: no
    /// growth may lose one.
    #[test]
    fn searches_find_every_inserted_key_while_the_table_grows() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        const INSERTERS: u64 = 2;
        const PER_INSERTER: u64 = 6_000;
        let t = Arc::new(IndexTable::with_capacity(64));
        let start = t.bucket_count();
        // Keys below `inserted[i]` (inserter i's next key) are in.
        let inserted: Arc<Vec<AtomicU64>> =
            Arc::new((0..INSERTERS).map(|_| AtomicU64::new(0)).collect());
        let done = Arc::new(AtomicBool::new(false));
        let key_of = |inserter: u64, i: u64| inserter * PER_INSERTER + i;
        let inserters: Vec<_> = (0..INSERTERS)
            .map(|id| {
                let (t, inserted) = (Arc::clone(&t), Arc::clone(&inserted));
                std::thread::spawn(move || {
                    for i in 0..PER_INSERTER {
                        let loc = key_of(id, i);
                        t.reserve(1, each(|v| Some(hash_of_loc(v))));
                        t.insert(key_hash(&loc.to_le_bytes()), loc)
                            .0
                            .expect("room reserved");
                        inserted[id as usize].store(i + 1, Ordering::Release);
                    }
                })
            })
            .collect();
        let searchers: Vec<_> = (0..2u64)
            .map(|s| {
                let (t, inserted, done) =
                    (Arc::clone(&t), Arc::clone(&inserted), Arc::clone(&done));
                std::thread::spawn(move || loop {
                    let finished = done.load(Ordering::Acquire);
                    for id in 0..INSERTERS {
                        let upto = inserted[id as usize].load(Ordering::Acquire);
                        // The newest key and a spread of older ones.
                        for i in [upto, (upto + s) / 2, upto / 3] {
                            let Some(i) = i.checked_sub(1) else { continue };
                            let loc = key_of(id, i);
                            let (c, _) = t.search(key_hash(&loc.to_le_bytes()));
                            assert!(c.as_slice().contains(&loc), "inserted key {loc} lost");
                        }
                    }
                    if finished {
                        break;
                    }
                })
            })
            .collect();
        for h in inserters {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
        for h in searchers {
            h.join().unwrap();
        }
        let buckets = t.bucket_count();
        assert!(buckets >= 8 * start, "{start} → {buckets} buckets");
        assert_eq!(t.len(), (INSERTERS * PER_INSERTER) as usize);
        for loc in 0..INSERTERS * PER_INSERTER {
            let (c, _) = t.search(key_hash(&loc.to_le_bytes()));
            assert!(c.as_slice().contains(&loc), "key {loc} lost");
        }
    }

    /// Near the load target most inserts displace entries. A search
    /// racing a displacement walk must still find the entry it moves:
    /// searchers probe every resident key while inserters kick. No other
    /// key shares a resident key's signature — a search stops at the
    /// first bucket holding its signature, whosever entry it is.
    #[test]
    fn searches_find_entries_that_concurrent_kicks_move() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        const RESIDENT: usize = 5_800;
        const CHURN: usize = 100_000;
        const WINDOW: usize = 64;
        let sig = |loc: u64| key_hash(&loc.to_le_bytes()).sig;
        let mut sigs = HashSet::new();
        let resident: Vec<u64> = (0..)
            .filter(|&loc| sigs.insert(sig(loc)))
            .take(RESIDENT)
            .collect();
        let churn = |id: u64| -> Vec<u64> {
            (0..)
                .map(|i| (1 << 32) + 2 * i + id)
                .filter(|&loc| !sigs.contains(&sig(loc)))
                .take(CHURN)
                .collect()
        };
        let t = Arc::new(IndexTable::with_capacity(6_000)); // 2 048 buckets
        for &loc in &resident {
            t.insert(key_hash(&loc.to_le_bytes()), loc).0.unwrap();
        }
        let done = Arc::new(AtomicBool::new(false));
        // Each inserter keeps `WINDOW` more keys in the table, inserting
        // one and deleting its oldest: the load stays near the target.
        let inserters: Vec<_> = (0..2u64)
            .map(|id| {
                let (t, locs) = (Arc::clone(&t), churn(id));
                std::thread::spawn(move || {
                    for (i, &loc) in locs.iter().enumerate() {
                        // A walk may give up: then the key is absent.
                        let _ = t.insert(key_hash(&loc.to_le_bytes()), loc);
                        if let Some(old) = i.checked_sub(WINDOW) {
                            t.delete(key_hash(&locs[old].to_le_bytes()), locs[old]);
                        }
                    }
                })
            })
            .collect();
        let resident = Arc::new(resident);
        let searchers: Vec<_> = (0..2u64)
            .map(|_| {
                let (t, resident, done) =
                    (Arc::clone(&t), Arc::clone(&resident), Arc::clone(&done));
                std::thread::spawn(move || {
                    let keys: Vec<KeyHash> = resident
                        .iter()
                        .map(|loc| key_hash(&loc.to_le_bytes()))
                        .collect();
                    let mut out = vec![Candidates::default(); keys.len()];
                    while !done.load(Ordering::Acquire) {
                        t.search_batch(&keys, &mut out);
                        for (loc, c) in resident.iter().zip(&out) {
                            assert!(c.as_slice().contains(loc), "lost {loc}");
                        }
                    }
                })
            })
            .collect();
        for h in inserters {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
        for h in searchers {
            h.join().unwrap();
        }
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
