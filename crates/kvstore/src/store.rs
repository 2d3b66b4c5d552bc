//! Slab-allocated key-value object store with CLOCK eviction and
//! TTL-bucketed segment reclamation.
//!
//! Mirrors the memcached/Mega-KV storage design the paper assumes:
//! objects live in one shared arena, carved into size classes; when a
//! class runs out of memory a SET *evicts* an existing
//! object — which is why each SET generates an Insert **and** a Delete
//! index operation (paper §II-C-2) — and each object carries a frequency
//! counter plus a sampling timestamp for the runtime skewness estimate
//! (paper §IV-B).
//!
//! TTL handling follows the Segcache-lineage design: every allocation
//! with a deadline joins a *segment* — a batch of same-class objects
//! whose deadlines fall in the same bucket window — so the sweeper
//! reclaims whole expired segments in O(segment members) instead of
//! scanning the arena per object. Expiry decisions are clock-free at
//! this layer: every API that needs the time takes an explicit `now`
//! (unix seconds), so tests drive a mock clock and never sleep.
//!
//! Allocation falls back across classes in a fixed order: same-class
//! free slot → fresh carve → same-class CLOCK eviction → reclaim an
//! expired segment of *any* class → borrow a larger class's slot (free
//! first, then CLOCK) → out of memory. Borrowed slots keep the slot's
//! real class in the header so they return to the right free list, and
//! the rounding waste shows up in the per-class fragmentation gauge.
//!
//! Two class ladders, both from 32 B. A serving store
//! ([`ObjectStore::new`]) has four classes per doubling — 32, 40, 48,
//! 56, 64, 80, … — so a slot is at most 25 % larger than the class below
//! it, as with memcached's default 1.25 growth factor: a K128 object
//! (1 176 B) takes a 1 280 B slot. The reproduction's store
//! ([`ObjectStore::mega_kv`]) keeps one power-of-two class per doubling,
//! the geometry its recorded experiments were run with: the same object
//! takes 2 048 B there.

use crate::arena::Arena;
use dido_hashtable::hash64_bytes;
use dido_model::deadline_expired;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Object header layout (little endian):
/// `key_len:u16 | val_len:u32 | freq:u32 | epoch:u32 | class:u8 | flags:u8
///  | deadline:u32 | client_flags:u32`.
///
/// `deadline` is the absolute unix-seconds expiry (0 = never expires),
/// already converted from the protocol-relative TTL by the engine;
/// `client_flags` is the opaque memcached `flags` word, echoed back by
/// codecs that carry it. `flags` is `incarnation(6) | referenced(1) |
/// live(1)`: the incarnation is the slot's 6-bit reuse count, bumped by
/// every allocation into the slot and kept when the object dies, so
/// `(loc, incarnation)` names one object for as long as the slot is not
/// reused 64 times. The index stores it beside the location
/// (`dido_hashtable::tagged`).
pub const HEADER_SIZE: usize = 24;

const OFF_KEY_LEN: usize = 0;
const OFF_VAL_LEN: usize = 2;
const OFF_FREQ: usize = 6;
const OFF_EPOCH: usize = 10;
const OFF_CLASS: usize = 14;
const OFF_FLAGS: usize = 15;
const OFF_DEADLINE: usize = 16;
const OFF_CLIENT_FLAGS: usize = 20;

const FLAG_LIVE: u8 = 1;
const FLAG_REFERENCED: u8 = 2;
const INCARNATION_SHIFT: u32 = 2;

// The index holds every bit of an incarnation.
const _: () = assert!(u8::BITS - INCARNATION_SHIFT == dido_hashtable::TAG_BITS);

/// The incarnation in a flags byte.
#[inline]
fn incarnation(flags: u8) -> u8 {
    flags >> INCARNATION_SHIFT
}

/// Smallest size class in bytes.
const MIN_CLASS_BYTES: usize = 32;

/// Size classes per doubling of the slot size in a serving store. Every
/// class is a multiple of 8 B.
const SERVING_CLASSES_PER_DOUBLING: usize = 4;

/// Smallest arena [`ObjectStore::new`] accepts: one slot of the smallest
/// class. Callers that split a byte budget across stores check against
/// it instead of tripping the constructor's assertion.
pub const MIN_STORE_BYTES: usize = MIN_CLASS_BYTES;

/// Objects per segment before it seals and becomes sweepable as a unit.
const SEGMENT_SLOTS: usize = 512;

/// TTL-bucket width in seconds: allocations whose deadlines land in the
/// same window share a segment, so a sealed segment expires as a whole
/// within one bucket width of its earliest member.
const BUCKET_SECS: u32 = 8;

/// Open (unsealed) segments kept per class; when a new bucket would
/// exceed this, the segment closest to expiring is sealed early.
const MAX_OPEN_SEGMENTS: usize = 4;

/// What the `KC` task found at a candidate location (see
/// [`ObjectStore::probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Dead slot, stale location, or a different key.
    Miss,
    /// The queried key, live and unexpired, in the object of this
    /// incarnation.
    Hit(u8),
    /// The queried key, but past its deadline.
    Expired,
}

/// Errors from the object store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The object exceeds the largest size class.
    ObjectTooLarge,
    /// No free slot, no arena room left to carve, and nothing evictable
    /// in the object's size class or reclaimable/borrowable elsewhere.
    OutOfMemory,
}

/// How the store reports that an object died — displaced by CLOCK to
/// make room for an allocation (what turns one SET into an Insert plus a
/// Delete in the paper's Figure 6 accounting), or bulk-purged with its
/// expired segment. The slot is already free or reoccupied; the caller
/// must drop the index entry `(cookie, loc)` unless the slot has since
/// been recycled to the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PurgedEntry {
    /// The dead object's location.
    pub loc: u64,
    /// The dead object's 64-bit key hash: the cookie recorded at
    /// allocation time for segment members (no key bytes are re-read on
    /// the reclaim path), hashed in place for a CLOCK victim.
    pub cookie: u64,
}

/// Result of a successful allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocOutcome {
    /// Location of the stored object (index this under the key).
    pub loc: u64,
    /// The object's incarnation (index it beside `loc`).
    pub tag: u8,
    /// Object evicted to make room, if any (its slot is `loc`).
    pub evicted: Option<PurgedEntry>,
    /// Expired objects purged wholesale from reclaimed segments while
    /// satisfying this allocation; empty on the common path.
    pub reclaimed: Vec<PurgedEntry>,
}

/// Point-in-time occupancy of one slab size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassStats {
    /// Slot size of this class in bytes.
    pub class_bytes: usize,
    /// Live objects stored in slots of this class.
    pub live_objects: usize,
    /// Carved-but-unoccupied slots on the free list.
    pub free_slots: usize,
    /// Bytes of live object data (headers included) in this class.
    pub live_bytes: usize,
    /// Slot-rounding plus cross-class-borrow waste: Σ (slot bytes −
    /// object bytes) over live objects in this class's slots.
    pub frag_bytes: usize,
    /// Open (unsealed) TTL segments currently accepting members.
    pub open_segments: usize,
}

/// Cumulative expiry-reclamation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpiryStats {
    /// Objects freed by whole-segment reclamation (sweeper or
    /// allocation-pressure fallback).
    pub expired_proactive: u64,
    /// Segments reclaimed as a unit.
    pub segments_reclaimed: u64,
    /// Sealed segments currently awaiting expiry (gauge).
    pub sealed_segments: u64,
}

impl ExpiryStats {
    /// Add another store's counters (shards of one node sum).
    pub fn merge(&mut self, other: &ExpiryStats) {
        self.expired_proactive += other.expired_proactive;
        self.segments_reclaimed += other.segments_reclaimed;
        self.sealed_segments += other.sealed_segments;
    }
}

/// A batch of same-class allocations whose deadlines share a bucket
/// window. Members may be stale (freed, evicted, or recycled since
/// joining); reclamation revalidates each slot before freeing it.
struct Segment {
    bucket: u32,
    max_deadline: u32,
    members: Vec<(u64, u64)>, // (loc, key-hash cookie)
}

#[derive(Default)]
struct ClassLists {
    free: Vec<u64>,
    /// CLOCK ring: one entry per slot carved for this class, pushed when
    /// the slot is carved and only ever rotated after that. The hand
    /// passes over entries whose slot is free.
    ring: VecDeque<u64>,
    live: usize,
    live_bytes: usize,
    frag_bytes: usize,
    open: Vec<Segment>,
}

/// The key-value object store.
pub struct ObjectStore {
    arena: Arena,
    bump: Mutex<usize>,
    classes: Vec<Mutex<ClassLists>>,
    class_count: usize,
    /// Classes per doubling of the slot size (a power of two): 4
    /// serving, 1 Mega-KV.
    per_doubling: usize,
    /// Full segments waiting for their bucket window to pass.
    sealed: Mutex<Vec<Segment>>,
    expired_proactive: AtomicU64,
    segments_reclaimed: AtomicU64,
    /// Bumped (before the new bytes are written) every time an
    /// allocation reuses a previously-occupied slot, and before
    /// [`ObjectStore::free_incarnation`] frees a replaced version.
    /// Readers snapshot it before resolving a location and recheck after
    /// copying: an unchanged generation proves no recycle overlapped the
    /// read, so the per-query incarnation recheck can be skipped
    /// (seqlock-style).
    recycle_gen: AtomicU64,
}

impl ObjectStore {
    /// A serving store over `capacity` bytes: four size classes per
    /// doubling (32, 40, 48, 56, 64, 80, … B).
    ///
    /// # Panics
    /// Panics if `capacity < MIN_STORE_BYTES`.
    #[must_use]
    pub fn new(capacity: usize) -> ObjectStore {
        ObjectStore::with_ladder(capacity, SERVING_CLASSES_PER_DOUBLING)
    }

    /// Mega-KV's store (paper §II), the only kind the reproduction
    /// builds: one power-of-two size class per doubling (32, 64, 128, …
    /// B), so every object count and priced access it reports follows the
    /// geometry its experiments were recorded with.
    ///
    /// # Panics
    /// Panics if `capacity < MIN_STORE_BYTES`.
    #[must_use]
    pub fn mega_kv(capacity: usize) -> ObjectStore {
        ObjectStore::with_ladder(capacity, 1)
    }

    /// Classes from 32 B up to the power of two at or above `capacity`
    /// (at most 4 MiB), `per_doubling` of them per doubling.
    fn with_ladder(capacity: usize, per_doubling: usize) -> ObjectStore {
        assert!(capacity >= MIN_STORE_BYTES, "capacity too small");
        let max_class_bytes = capacity.next_power_of_two().min(1 << 22);
        let class_count = (max_class_bytes / MIN_CLASS_BYTES).ilog2() as usize * per_doubling + 1;
        ObjectStore {
            arena: Arena::new(capacity),
            bump: Mutex::new(0),
            classes: (0..class_count).map(|_| Mutex::new(ClassLists::default())).collect(),
            class_count,
            per_doubling,
            sealed: Mutex::new(Vec::new()),
            expired_proactive: AtomicU64::new(0),
            segments_reclaimed: AtomicU64::new(0),
            recycle_gen: AtomicU64::new(0),
        }
    }

    /// Current slot-recycle generation. Sample (Acquire) before
    /// resolving a location; if [`ObjectStore::recycle_gen_validate`]
    /// returns the same value after the value bytes were copied, no slot
    /// anywhere was recycled in between and the copy is untorn.
    #[must_use]
    #[inline]
    pub fn recycle_gen(&self) -> u64 {
        self.recycle_gen.load(Ordering::Acquire)
    }

    /// Recycle generation for the read-validation side: the fence keeps
    /// the caller's preceding value-byte reads from drifting past the
    /// load (the seqlock reader protocol).
    #[must_use]
    #[inline]
    pub fn recycle_gen_validate(&self) -> u64 {
        std::sync::atomic::fence(Ordering::Acquire);
        self.recycle_gen.load(Ordering::Relaxed)
    }

    /// Arena capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Bytes carved from the arena so far.
    #[must_use]
    pub fn bytes_carved(&self) -> usize {
        *self.bump.lock()
    }

    /// Number of live objects.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.classes.iter().map(|c| c.lock().live).sum()
    }

    /// The smallest class that holds `total` bytes, and its slot size.
    fn class_of(&self, total: usize) -> Option<(usize, usize)> {
        let idx = if total <= MIN_CLASS_BYTES {
            0
        } else {
            // The doubling (base, 2·base] that holds `total`, then the
            // first of its steps that reaches it. Steps are powers of
            // two, so they are counted by a shift, not a division.
            let doubling = ((total - 1) / MIN_CLASS_BYTES).ilog2() as usize;
            let base = MIN_CLASS_BYTES << doubling;
            let step_shift = (base / self.per_doubling).trailing_zeros();
            doubling * self.per_doubling + ((total - base + (1 << step_shift) - 1) >> step_shift)
        };
        (idx < self.class_count).then(|| (idx, self.class_size(idx)))
    }

    /// Slot bytes of class `idx`: `per_doubling` even steps from each
    /// power of two to the next.
    fn class_size(&self, idx: usize) -> usize {
        let doubling = idx >> self.per_doubling.trailing_zeros();
        let step = idx & (self.per_doubling - 1);
        (MIN_CLASS_BYTES + step * (MIN_CLASS_BYTES / self.per_doubling)) << doubling
    }

    /// Size-class byte size an object of `key_len`/`val_len` lands in
    /// (for capacity planning and the cost model's cached-object count).
    #[must_use]
    pub fn class_bytes_for(&self, key_len: usize, val_len: usize) -> Option<usize> {
        self.class_of(HEADER_SIZE + key_len + val_len).map(|(_, s)| s)
    }

    /// Store `key`/`value` with no expiry or metadata, evicting if
    /// necessary.
    pub fn allocate(&self, key: &[u8], value: &[u8]) -> Result<AllocOutcome, StoreError> {
        self.allocate_with(key, value, 0, 0, 0, 0)
    }

    /// Store `key`/`value` with protocol metadata, evicting or
    /// reclaiming if necessary.
    ///
    /// `deadline` is the absolute unix-seconds expiry (0 = never; the
    /// engine converts relative TTLs via `dido_model::ttl_to_deadline`),
    /// `client_flags` the opaque memcached flags word, `now` the current
    /// unix time used for expiry-aware eviction and segment reclaim, and
    /// `cookie` the 64-bit key hash recorded with the segment membership
    /// so reclamation can name the index entry to purge without
    /// re-reading key bytes (ignored when `deadline` is 0).
    pub fn allocate_with(
        &self,
        key: &[u8],
        value: &[u8],
        deadline: u32,
        client_flags: u32,
        now: u32,
        cookie: u64,
    ) -> Result<AllocOutcome, StoreError> {
        let total = HEADER_SIZE + key.len() + value.len();
        let (class_idx, class_size) = self.class_of(total).ok_or(StoreError::ObjectTooLarge)?;

        let mut evicted = None;
        let mut reclaimed = Vec::new();
        // A never-before-used slot can't be mid-read by anyone; only
        // reuse of an old slot has to bump the recycle generation.
        let mut fresh_carve = false;

        // Same-class free slot → fresh carve → same-class CLOCK.
        let mut slot = {
            let mut lists = self.classes[class_idx].lock();
            if let Some(loc) = lists.free.pop() {
                Some((loc, class_idx, class_size))
            } else {
                drop(lists);
                if let Some(loc) = self.carve(class_size) {
                    fresh_carve = true;
                    Some((loc, class_idx, class_size))
                } else {
                    let mut lists = self.classes[class_idx].lock();
                    evicted = self.evict_one(&mut lists, class_size, now);
                    evicted.map(|ev| (ev.loc, class_idx, class_size))
                }
            }
        };

        // Reclaim expired segments of any class, then retry this class's
        // free list (reclaim may have refilled it).
        if slot.is_none() {
            self.reclaim_expired(now, usize::MAX, &mut reclaimed);
            if !reclaimed.is_empty() {
                let mut lists = self.classes[class_idx].lock();
                slot = lists.free.pop().map(|loc| (loc, class_idx, class_size));
            }
        }

        // Borrow a slot from a larger class: its free list first, then
        // CLOCK eviction. The slot keeps its real class so it returns to
        // the right free list; the size gap is fragmentation.
        if slot.is_none() {
            slot = self.borrow_larger(class_idx, now, &mut evicted);
        }

        let (loc, slot_class, slot_size) = slot.ok_or(StoreError::OutOfMemory)?;
        if !fresh_carve {
            // AcqRel: the new object's byte writes below cannot be
            // reordered before the bump, so a reader that saw the old
            // generation after its copy cannot have read the new bytes.
            self.recycle_gen.fetch_add(1, Ordering::AcqRel);
        }
        // The next incarnation goes first, still dead (the shift drops
        // the carry out of the top bit: incarnations wrap at 64), so a
        // reader whose copy overlaps the bytes below finds it when it
        // rechecks.
        let flags_at = loc as usize + OFF_FLAGS;
        let dead = (incarnation(self.arena.read_u8(flags_at)) + 1) << INCARNATION_SHIFT;
        self.arena.write_u8(flags_at, dead);
        self.write_object(loc, key, value, slot_class as u8, deadline, client_flags);

        let mut lists = self.classes[slot_class].lock();
        // A carved or evicted slot's ring entry is at the back, behind
        // the hand. A slot off a free list keeps its entry wherever it
        // is, so its object starts referenced: the hand then passes it
        // once, moving it to the back, before it can be a victim — which
        // also keeps a SET's object from being evicted before the SET's
        // upsert indexes it.
        let referenced = if fresh_carve || evicted.is_some() { 0 } else { FLAG_REFERENCED };
        // Publish the object (and its accounting) under the class lock:
        // a concurrent sweep of a stale segment member pointing at this
        // slot either sees the dead flags and skips, or claims a
        // fully-accounted object — never a half-counted one. Release: a
        // reader that sees this occupant also sees whatever freed the
        // slot before it (`free_incarnation`).
        self.arena.store_u8_release(flags_at, dead | FLAG_LIVE | referenced);
        if fresh_carve {
            lists.ring.push_back(loc);
        }
        lists.live += 1;
        lists.live_bytes += total;
        lists.frag_bytes += slot_size - total;
        if deadline != 0 {
            self.join_segment(&mut lists, loc, cookie, deadline);
        }
        drop(lists);

        Ok(AllocOutcome {
            loc,
            tag: incarnation(dead),
            evicted,
            reclaimed,
        })
    }

    fn carve(&self, class_size: usize) -> Option<u64> {
        let mut bump = self.bump.lock();
        if *bump + class_size <= self.arena.capacity() {
            let loc = *bump as u64;
            *bump += class_size;
            Some(loc)
        } else {
            None
        }
    }

    fn borrow_larger(
        &self,
        class_idx: usize,
        now: u32,
        evicted: &mut Option<PurgedEntry>,
    ) -> Option<(u64, usize, usize)> {
        // Free slots anywhere above cost nothing; only then evict live
        // data from a larger class. Smallest sufficient class first, to
        // minimize the rounding waste.
        for c in class_idx + 1..self.class_count {
            let mut lists = self.classes[c].lock();
            if let Some(loc) = lists.free.pop() {
                return Some((loc, c, self.class_size(c)));
            }
        }
        for c in class_idx + 1..self.class_count {
            let mut lists = self.classes[c].lock();
            *evicted = self.evict_one(&mut lists, self.class_size(c), now);
            if let Some(ev) = evicted {
                return Some((ev.loc, c, self.class_size(c)));
            }
        }
        None
    }

    /// CLOCK sweep: pass over free slots, give referenced objects a
    /// second chance (unless they are expired, which forfeits it), evict
    /// the first eligible live object. Every entry the hand passes —
    /// free, referenced, the victim — rotates to the back, so the ring
    /// keeps one entry per carved slot. Decrements the class's live
    /// accounting for the victim and hashes its key before the caller
    /// overwrites the slot.
    fn evict_one(
        &self,
        lists: &mut ClassLists,
        class_size: usize,
        now: u32,
    ) -> Option<PurgedEntry> {
        let budget = lists.ring.len() * 2;
        for _ in 0..budget {
            let loc = lists.ring.pop_front()?;
            lists.ring.push_back(loc);
            let off = loc as usize;
            let flags = self.arena.read_u8(off + OFF_FLAGS);
            if flags & FLAG_LIVE == 0 {
                continue;
            }
            let expired = deadline_expired(self.arena.read_u32(off + OFF_DEADLINE), now);
            if flags & FLAG_REFERENCED != 0 && !expired {
                self.arena.fetch_and_u8(off + OFF_FLAGS, !FLAG_REFERENCED);
                continue;
            }
            // Claim the slot atomically so a racing free() cannot also
            // hand it out.
            let prev = self
                .arena
                .fetch_and_u8(off + OFF_FLAGS, !(FLAG_LIVE | FLAG_REFERENCED));
            if prev & FLAG_LIVE == 0 {
                continue;
            }
            let (key_len, val_len) = self.object_lens(loc);
            let total = HEADER_SIZE + key_len + val_len;
            lists.live = lists.live.saturating_sub(1);
            lists.live_bytes = lists.live_bytes.saturating_sub(total);
            lists.frag_bytes = lists
                .frag_bytes
                .saturating_sub(class_size - total.min(class_size));
            return Some(PurgedEntry {
                loc,
                cookie: self.key_cookie(loc),
            });
        }
        None
    }

    fn join_segment(&self, lists: &mut ClassLists, loc: u64, cookie: u64, deadline: u32) {
        let bucket = deadline / BUCKET_SECS;
        if let Some(pos) = lists.open.iter().position(|s| s.bucket == bucket) {
            let seg = &mut lists.open[pos];
            seg.members.push((loc, cookie));
            seg.max_deadline = seg.max_deadline.max(deadline);
            if seg.members.len() >= SEGMENT_SLOTS {
                let seg = lists.open.swap_remove(pos);
                self.sealed.lock().push(seg);
            }
            return;
        }
        if lists.open.len() >= MAX_OPEN_SEGMENTS {
            // Seal the segment closest to expiring so the sweeper can
            // take it without waiting for it to fill.
            let pos = lists
                .open
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.max_deadline)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let seg = lists.open.swap_remove(pos);
            self.sealed.lock().push(seg);
        }
        lists.open.push(Segment {
            bucket,
            max_deadline: deadline,
            members: vec![(loc, cookie)],
        });
    }

    /// Reclaim up to `max_segments` whole segments whose bucket window
    /// has fully passed, freeing every still-expired member slot and
    /// appending a [`PurgedEntry`] per freed object (the caller drops
    /// the matching index entries). Returns the number of segments
    /// reclaimed. This is the proactive expiry path: the background
    /// sweeper calls it on a timer, allocation pressure calls it as the
    /// any-class fallback.
    pub fn sweep_expired(&self, now: u32, max_segments: usize, out: &mut Vec<PurgedEntry>) -> usize {
        self.reclaim_expired(now, max_segments, out)
    }

    fn reclaim_expired(
        &self,
        now: u32,
        max_segments: usize,
        out: &mut Vec<PurgedEntry>,
    ) -> usize {
        let mut segs: Vec<Segment> = Vec::new();
        {
            let mut sealed = self.sealed.lock();
            let mut i = 0;
            while i < sealed.len() && segs.len() < max_segments {
                if deadline_expired(sealed[i].max_deadline, now) {
                    segs.push(sealed.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        if segs.len() < max_segments {
            for lists in &self.classes {
                let mut lists = lists.lock();
                let mut i = 0;
                while i < lists.open.len() && segs.len() < max_segments {
                    if deadline_expired(lists.open[i].max_deadline, now) {
                        segs.push(lists.open.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
            }
        }
        let mut purged = 0u64;
        for seg in &segs {
            for &(loc, cookie) in &seg.members {
                if self.expire_if_due(loc, now) {
                    out.push(PurgedEntry { loc, cookie });
                    purged += 1;
                }
            }
        }
        self.expired_proactive.fetch_add(purged, Ordering::Relaxed);
        self.segments_reclaimed
            .fetch_add(segs.len() as u64, Ordering::Relaxed);
        segs.len()
    }

    /// Free the object at `loc` if (and only if) it is live and past its
    /// deadline at `now`. Safe against slot recycling: the claim is
    /// atomic and revalidated, so a fresh unexpired occupant is left
    /// alone. Used by segment reclaim and the lazy-expiry purge.
    pub fn expire_if_due(&self, loc: u64, now: u32) -> bool {
        let off = loc as usize;
        if off + HEADER_SIZE > self.arena.capacity() {
            return false;
        }
        let flags = self.arena.read_u8(off + OFF_FLAGS);
        if flags & FLAG_LIVE == 0 {
            return false;
        }
        if !deadline_expired(self.arena.read_u32(off + OFF_DEADLINE), now) {
            return false;
        }
        let prev = self
            .arena
            .fetch_and_u8(off + OFF_FLAGS, !(FLAG_LIVE | FLAG_REFERENCED));
        if prev & FLAG_LIVE == 0 {
            return false;
        }
        if !deadline_expired(self.arena.read_u32(off + OFF_DEADLINE), now) {
            // The slot was recycled between the check and the claim;
            // restore the fresh occupant's flags.
            self.arena
                .fetch_or_u8(off + OFF_FLAGS, prev & (FLAG_LIVE | FLAG_REFERENCED));
            return false;
        }
        self.release_slot(loc);
        true
    }

    /// Cumulative proactive-expiry counters plus the sealed-segment
    /// backlog gauge.
    #[must_use]
    pub fn expiry_stats(&self) -> ExpiryStats {
        ExpiryStats {
            expired_proactive: self.expired_proactive.load(Ordering::Relaxed),
            segments_reclaimed: self.segments_reclaimed.load(Ordering::Relaxed),
            sealed_segments: self.sealed.lock().len() as u64,
        }
    }

    /// Occupancy snapshot per size class (smallest first, every class
    /// the store can represent — callers typically filter for classes
    /// with any live or free slots).
    #[must_use]
    pub fn class_stats(&self) -> Vec<ClassStats> {
        (0..self.class_count)
            .map(|idx| {
                let lists = self.classes[idx].lock();
                ClassStats {
                    class_bytes: self.class_size(idx),
                    live_objects: lists.live,
                    free_slots: lists.free.len(),
                    live_bytes: lists.live_bytes,
                    frag_bytes: lists.frag_bytes,
                    open_segments: lists.open.len(),
                }
            })
            .collect()
    }

    /// Everything of the header but the flags byte, then key and value.
    fn write_object(&self, loc: u64, key: &[u8], value: &[u8], class: u8, deadline: u32, cflags: u32) {
        let off = loc as usize;
        self.arena.write_u16(off + OFF_KEY_LEN, key.len() as u16);
        self.arena.write_u32(off + OFF_VAL_LEN, value.len() as u32);
        self.arena.write_u32(off + OFF_FREQ, 0);
        self.arena.write_u32(off + OFF_EPOCH, 0);
        self.arena.write_u8(off + OFF_CLASS, class);
        self.arena.write_u32(off + OFF_DEADLINE, deadline);
        self.arena.write_u32(off + OFF_CLIENT_FLAGS, cflags);
        self.arena.write(off + HEADER_SIZE, key);
        self.arena.write(off + HEADER_SIZE + key.len(), value);
    }

    /// Protocol metadata stored with the object at `loc`: `(absolute
    /// expiry deadline in unix seconds, opaque client flags)`, both 0
    /// when the writing protocol carried none.
    #[must_use]
    pub fn object_meta(&self, loc: u64) -> (u32, u32) {
        let off = loc as usize;
        (
            self.arena.read_u32(off + OFF_DEADLINE),
            self.arena.read_u32(off + OFF_CLIENT_FLAGS),
        )
    }

    /// Whether the slot at `loc` currently holds a live object (of any
    /// key). Gates deferred index purges: a freed slot can be recycled
    /// — possibly to the same key at the same location via the LIFO
    /// free lists — before its stale index entry is dropped, making
    /// that entry fresh again.
    #[must_use]
    #[inline]
    pub fn slot_live(&self, loc: u64) -> bool {
        let off = loc as usize;
        off + HEADER_SIZE <= self.arena.capacity()
            && self.arena.read_u8(off + OFF_FLAGS) & FLAG_LIVE != 0
    }

    /// Whether the object at `loc` is live but past its deadline at
    /// `now`. Dead or never-expiring objects return false.
    #[must_use]
    #[inline]
    pub fn is_expired(&self, loc: u64, now: u32) -> bool {
        let off = loc as usize;
        if off + HEADER_SIZE > self.arena.capacity() {
            return false;
        }
        if self.arena.read_u8(off + OFF_FLAGS) & FLAG_LIVE == 0 {
            return false;
        }
        deadline_expired(self.arena.read_u32(off + OFF_DEADLINE), now)
    }

    /// Free the object at `loc` (DELETE query). Returns false if it was
    /// not live (stale location).
    pub fn free(&self, loc: u64) -> bool {
        let off = loc as usize;
        if off + HEADER_SIZE > self.arena.capacity() {
            return false;
        }
        let prev = self
            .arena
            .fetch_and_u8(off + OFF_FLAGS, !(FLAG_LIVE | FLAG_REFERENCED));
        if prev & FLAG_LIVE == 0 {
            return false;
        }
        self.release_slot(loc);
        true
    }

    /// Free the object at `loc` if it is still the live object of
    /// incarnation `tag`: the version an index upsert replaced, which
    /// only the caller can still name. Returns false, leaving the slot
    /// to CLOCK, when the slot has died or been reused since — a CLOCK
    /// victim keeps its index entry until `IN`-Delete, so by the time an
    /// upsert replaces that entry the slot may hold another key's object
    /// or a pending SET of the same key.
    ///
    /// The recycle generation is bumped first, and the freeing CAS is a
    /// Release: a reader that finds this slot dead (or reoccupied) after
    /// an Acquire sees both the bump, which tells it to resolve again,
    /// and the upsert, which its next search then finds.
    pub fn free_incarnation(&self, loc: u64, tag: u8) -> bool {
        let off = loc as usize + OFF_FLAGS;
        let dead = tag << INCARNATION_SHIFT;
        let live = dead | FLAG_LIVE;
        let mut flags = self.arena.read_u8(off);
        if flags & !FLAG_REFERENCED != live {
            return false;
        }
        self.recycle_gen.fetch_add(1, Ordering::AcqRel);
        // Only the referenced bit may change under us and still leave
        // this incarnation ours to free.
        while let Err(now) = self.arena.compare_exchange_u8_release(off, flags, dead) {
            if now & !FLAG_REFERENCED != live {
                return false;
            }
            flags = now;
        }
        self.release_slot(loc);
        true
    }

    /// Return a just-claimed (flags already cleared) slot to its class
    /// free list and settle the accounting.
    fn release_slot(&self, loc: u64) {
        let off = loc as usize;
        let class = self.arena.read_u8(off + OFF_CLASS) as usize;
        let class = class.min(self.class_count - 1);
        let key_len = self.arena.read_u16(off + OFF_KEY_LEN) as usize;
        let val_len = self.arena.read_u32(off + OFF_VAL_LEN) as usize;
        let total = HEADER_SIZE + key_len + val_len;
        let class_size = self.class_size(class);
        let mut lists = self.classes[class].lock();
        lists.free.push(loc);
        lists.live = lists.live.saturating_sub(1);
        lists.live_bytes = lists.live_bytes.saturating_sub(total);
        lists.frag_bytes = lists.frag_bytes.saturating_sub(class_size - total.min(class_size));
    }

    /// Whether the live object at `loc` has exactly this key (the `KC`
    /// task). Stale or dead locations compare unequal.
    #[must_use]
    pub fn key_matches(&self, loc: u64, key: &[u8]) -> bool {
        let off = loc as usize;
        if off + HEADER_SIZE > self.arena.capacity() {
            return false;
        }
        if self.arena.read_u8(off + OFF_FLAGS) & FLAG_LIVE == 0 {
            return false;
        }
        if self.arena.read_u16(off + OFF_KEY_LEN) as usize != key.len() {
            return false;
        }
        self.arena.bytes_equal(off + HEADER_SIZE, key)
    }

    /// Key compare and expiry check in one header visit (the `KC` hot
    /// path): `Miss` for dead/stale/other-key slots, otherwise `Hit` or
    /// `Expired` by the recorded deadline. A `Hit` names the incarnation
    /// read before the key was compared: [`ObjectStore::holds`] after a
    /// copy proves the copy read that object.
    #[must_use]
    #[inline]
    pub fn probe(&self, loc: u64, key: &[u8], now: u32) -> ProbeOutcome {
        let off = loc as usize;
        if off + HEADER_SIZE > self.arena.capacity() {
            return ProbeOutcome::Miss;
        }
        let flags = self.arena.read_u8(off + OFF_FLAGS);
        if flags & FLAG_LIVE == 0
            || self.arena.read_u16(off + OFF_KEY_LEN) as usize != key.len()
            || !self.arena.bytes_equal(off + HEADER_SIZE, key)
        {
            return ProbeOutcome::Miss;
        }
        if deadline_expired(self.arena.read_u32(off + OFF_DEADLINE), now) {
            ProbeOutcome::Expired
        } else {
            ProbeOutcome::Hit(incarnation(flags))
        }
    }

    /// Whether the slot at `loc` still holds the live object of
    /// incarnation `tag`. Fenced (Acquire) ahead of its load, so a
    /// caller that copied the object's bytes and then gets `true` read
    /// that object, untorn; and its load is Acquire, so a caller that
    /// gets `false` because the object was freed by
    /// [`ObjectStore::free_incarnation`] sees the upsert that preceded
    /// the free.
    #[must_use]
    pub fn holds(&self, loc: u64, tag: u8) -> bool {
        std::sync::atomic::fence(Ordering::Acquire);
        let flags = self.arena.load_u8_acquire(loc as usize + OFF_FLAGS);
        flags & !FLAG_REFERENCED == (tag << INCARNATION_SHIFT) | FLAG_LIVE
    }

    /// Raw address of the object header at `loc`, for issuing a
    /// software prefetch before a batched `KC`/`RD` pass touches the
    /// object. The pointer is a hint address only — safe for stale or
    /// out-of-range locations because prefetches never fault.
    #[must_use]
    pub fn object_ptr(&self, loc: u64) -> *const u8 {
        self.arena.byte_ptr(loc as usize)
    }

    /// Raw address of the object's value bytes at `loc` (header and key
    /// skipped), for prefetching ahead of `RD`. Hint address only.
    #[must_use]
    pub fn value_ptr(&self, loc: u64) -> *const u8 {
        let (key_len, _) = self.object_lens(loc);
        self.arena.byte_ptr(loc as usize + HEADER_SIZE + key_len)
    }

    /// Key and value lengths of the object at `loc`.
    #[must_use]
    pub fn object_lens(&self, loc: u64) -> (usize, usize) {
        let off = loc as usize;
        (
            self.arena.read_u16(off + OFF_KEY_LEN) as usize,
            self.arena.read_u32(off + OFF_VAL_LEN) as usize,
        )
    }

    /// Append the object's value to `dst` (the `RD` task). Returns the
    /// value length.
    pub fn read_value(&self, loc: u64, dst: &mut Vec<u8>) -> usize {
        let off = loc as usize;
        let (key_len, val_len) = self.object_lens(loc);
        self.arena.read_into(off + HEADER_SIZE + key_len, val_len, dst);
        val_len
    }

    /// 64-bit hash of the key stored at `loc`, computed over the arena
    /// bytes where they lie — the cookie a [`PurgedEntry`] for this
    /// object carries.
    #[must_use]
    pub fn key_cookie(&self, loc: u64) -> u64 {
        let (key_len, _) = self.object_lens(loc);
        hash64_bytes(self.arena.bytes(loc as usize + HEADER_SIZE, key_len))
    }

    /// Copy of the object's key.
    #[must_use]
    pub fn read_key(&self, loc: u64) -> Vec<u8> {
        let off = loc as usize;
        let (key_len, _) = self.object_lens(loc);
        self.arena.read_vec(off + HEADER_SIZE, key_len)
    }

    /// Record an access for the skewness sampler (paper §IV-B): the
    /// frequency counter resets to 1 when the object's sampling epoch is
    /// stale, otherwise increments. Also sets the CLOCK referenced bit
    /// (a no-op in effect on dead slots: the live bit is never set
    /// here, so a racing free cannot be undone).
    /// Returns the post-update frequency.
    pub fn touch(&self, loc: u64, epoch: u32) -> u32 {
        let off = loc as usize;
        // Test-and-test-and-set: hot objects keep the bit set between
        // CLOCK scans, so the steady state skips the locked RMW (a
        // plain |= of the whole byte is not an option — it could
        // resurrect a concurrently cleared live bit). A touch racing a
        // CLOCK clear may skip the set it would have made; CLOCK is
        // approximate by design, so losing one reference mark is fine.
        if self.arena.read_u8(off + OFF_FLAGS) & FLAG_REFERENCED == 0 {
            self.arena.fetch_or_u8(off + OFF_FLAGS, FLAG_REFERENCED);
        }
        if self.arena.read_u32(off + OFF_EPOCH) != epoch {
            self.arena.write_u32(off + OFF_EPOCH, epoch);
            self.arena.write_u32(off + OFF_FREQ, 1);
            1
        } else {
            self.arena.fetch_add_u32(off + OFF_FREQ, 1) + 1
        }
    }

    /// The object's current sampling frequency and epoch.
    #[must_use]
    pub fn freq(&self, loc: u64) -> (u32, u32) {
        let off = loc as usize;
        (
            self.arena.read_u32(off + OFF_FREQ),
            self.arena.read_u32(off + OFF_EPOCH),
        )
    }

    /// Restore CLOCK/sampling metadata onto a (just-written) object:
    /// shard migration copies an object into its new shard and carries
    /// the donor's access frequency and sampling epoch over, so skew
    /// estimation and eviction ordering survive a reshard instead of
    /// every migrated object looking cold.
    pub fn restore_clock(&self, loc: u64, freq: u32, epoch: u32) {
        let off = loc as usize;
        self.arena.write_u32(off + OFF_FREQ, freq);
        self.arena.write_u32(off + OFF_EPOCH, epoch);
        if freq > 0 {
            self.arena.fetch_or_u8(off + OFF_FLAGS, FLAG_REFERENCED);
        }
    }
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("capacity", &self.capacity())
            .field("carved", &self.bytes_carved())
            .field("live_objects", &self.live_objects())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_hashtable::hash64;

    #[test]
    fn store_and_read_back() {
        let s = ObjectStore::new(4096);
        let out = s.allocate(b"key-1", b"value-1").unwrap();
        assert!(out.evicted.is_none());
        assert!(s.key_matches(out.loc, b"key-1"));
        assert!(!s.key_matches(out.loc, b"key-2"));
        let mut v = Vec::new();
        assert_eq!(s.read_value(out.loc, &mut v), 7);
        assert_eq!(v, b"value-1");
        assert_eq!(s.read_key(out.loc), b"key-1");
        assert_eq!(s.live_objects(), 1);
    }

    #[test]
    fn protocol_metadata_round_trips() {
        let s = ObjectStore::new(4096);
        let plain = s.allocate(b"plain", b"v").unwrap();
        assert_eq!(s.object_meta(plain.loc), (0, 0));
        let meta = s.allocate_with(b"meta", b"v", 300, 0xDEAD_BEEF, 100, 7).unwrap();
        assert_eq!(s.object_meta(meta.loc), (300, 0xDEAD_BEEF));
        assert!(s.key_matches(meta.loc, b"meta"));
        let mut v = Vec::new();
        s.read_value(meta.loc, &mut v);
        assert_eq!(v, b"v");
        // A recycled slot must not leak the previous object's metadata.
        assert!(s.free(meta.loc));
        let reused = s.allocate(b"zero", b"v").unwrap();
        assert_eq!(reused.loc, meta.loc);
        assert_eq!(s.object_meta(reused.loc), (0, 0));
    }

    #[test]
    fn free_then_reuse_same_class() {
        let s = ObjectStore::new(4096);
        let a = s.allocate(b"aaaa", b"1111").unwrap();
        assert!(s.free(a.loc));
        assert!(!s.free(a.loc), "double free must fail");
        let b = s.allocate(b"bbbb", b"2222").unwrap();
        assert_eq!(b.loc, a.loc, "freed slot should be recycled");
        assert!(s.key_matches(b.loc, b"bbbb"));
        assert!(!s.key_matches(b.loc, b"aaaa"), "stale key must not match");
    }

    #[test]
    fn eviction_kicks_in_when_full() {
        // Room for exactly 4 objects of the 32-byte class.
        let s = ObjectStore::new(128);
        let mut locs = Vec::new();
        for i in 0..4 {
            let key = format!("k{i}");
            locs.push(s.allocate(key.as_bytes(), b"v").unwrap());
            assert!(locs[i].evicted.is_none());
        }
        let out = s.allocate(b"k4", b"v").unwrap();
        let ev = out.evicted.expect("must evict");
        assert_eq!(
            ev.cookie,
            hash64(b"k0"),
            "CLOCK evicts the oldest unreferenced object"
        );
        assert_eq!(ev.loc, out.loc);
        assert_eq!(s.live_objects(), 4);
    }

    #[test]
    fn referenced_objects_get_a_second_chance() {
        let s = ObjectStore::new(128);
        for i in 0..4 {
            let key = format!("k{i}");
            s.allocate(key.as_bytes(), b"v").unwrap();
        }
        // Touch k0 so the clock skips it once.
        // (loc of k0 is 0: the first carve.)
        s.touch(0, 1);
        let out = s.allocate(b"k4", b"v").unwrap();
        assert_eq!(out.evicted.unwrap().cookie, hash64(b"k1"));
        assert!(s.key_matches(0, b"k0"), "referenced object survived");
    }

    #[test]
    fn a_replaced_version_is_freed_only_while_its_slot_holds_it() {
        let s = ObjectStore::new(4096);
        let x = s.allocate(b"x", b"1").unwrap();
        s.touch(x.loc, 1); // the referenced bit is not part of the match
        assert!(s.holds(x.loc, x.tag));
        assert!(!s.free_incarnation(x.loc, x.tag.wrapping_add(1) & 63));
        assert!(s.free_incarnation(x.loc, x.tag));
        assert!(!s.holds(x.loc, x.tag));
        assert!(!s.free_incarnation(x.loc, x.tag), "freed once");
        // The slot's next occupant is a new incarnation: the old name
        // no longer frees anything.
        let y = s.allocate(b"y", b"2").unwrap();
        assert_eq!(y.loc, x.loc);
        assert_ne!(y.tag, x.tag);
        assert!(!s.free_incarnation(x.loc, x.tag));
        assert!(s.key_matches(y.loc, b"y"));
        // Incarnations count reuses modulo 64.
        let mut last = (y.loc, y.tag);
        for i in 0..64 {
            assert!(s.free(last.0));
            let next = s.allocate(format!("z{i}").as_bytes(), b"3").unwrap();
            assert_eq!((next.loc, next.tag), (last.0, (last.1 + 1) % 64));
            last = (next.loc, next.tag);
        }
        assert_eq!(last, (y.loc, y.tag));
    }

    #[test]
    fn an_object_in_a_freed_slot_is_not_the_next_victim() {
        // Four 32-byte slots; freeing the first leaves its ring entry
        // at the hand, and the next allocation reuses that slot.
        let s = ObjectStore::new(128);
        let first = s.allocate(b"k0", b"v").unwrap();
        for i in 1..4 {
            s.allocate(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        assert!(s.free(first.loc));
        let x = s.allocate(b"x", b"v").unwrap();
        assert_eq!(x.loc, first.loc);
        let y = s.allocate(b"y", b"v").unwrap();
        assert_eq!(y.evicted.map(|e| e.cookie), Some(hash64(b"k1")));
        assert!(s.key_matches(x.loc, b"x"), "the newest object survived");
    }

    /// `(ring entries, carved slots)` per class; at rest every carved
    /// slot is live or on its class's free list.
    fn ring_and_carved(s: &ObjectStore) -> Vec<(usize, usize)> {
        s.classes
            .iter()
            .map(|c| {
                let lists = c.lock();
                (lists.ring.len(), lists.live + lists.free.len())
            })
            .collect()
    }

    #[test]
    fn the_ring_holds_one_entry_per_carved_slot() {
        let s = ObjectStore::new(512);
        let check = |step: &str| {
            let rings = ring_and_carved(&s);
            for (class, &(ring, carved)) in rings.iter().enumerate() {
                assert_eq!(ring, carved, "{step}: class {}", s.class_size(class));
            }
            let carved_bytes: usize = rings
                .iter()
                .enumerate()
                .map(|(class, &(ring, _))| ring * s.class_size(class))
                .sum();
            assert_eq!(carved_bytes, s.bytes_carved(), "{step}");
        };
        let big = vec![b'c'; 80]; // 24 + 2 + 80 = 106 → class 128
        let mid = vec![b'b'; 20]; // 24 + 2 + 20 = 46 → class 64
        let small: Vec<AllocOutcome> = (0..4)
            .map(|i| {
                let deadline = if i % 2 == 0 { 10 } else { 0 };
                s.allocate_with(format!("a{i}").as_bytes(), b"v", deadline, 0, 0, i)
                    .unwrap()
            })
            .collect();
        let c0 = s.allocate(b"c0", &big).unwrap();
        let c1 = s.allocate(b"c1", &big).unwrap();
        check("carved");

        assert!(s.free_incarnation(small[1].loc, small[1].tag));
        assert!(s.free(c1.loc));
        s.allocate(b"a4", b"v").unwrap();
        check("frees and a free-list reuse");

        let mut purged = Vec::new();
        s.sweep_expired(100, usize::MAX, &mut purged);
        assert_eq!(purged.len(), 2);
        check("expiry sweep");

        for i in 5..13 {
            s.allocate_with(format!("a{i}").as_bytes(), b"v", 0, 0, 100, 0).unwrap();
        }
        assert_eq!(s.bytes_carved(), 512);
        check("carved full, then CLOCK evictions");

        // Class 64 owns no slot: both borrow a 128-byte one, the first
        // from the free list, the second by evicting.
        let b0 = s.allocate(b"b0", &mid).unwrap();
        assert!(b0.evicted.is_none());
        let b1 = s.allocate(b"b1", &mid).unwrap();
        assert_eq!(b1.evicted.map(|e| e.loc), Some(c0.loc));
        assert!(s.free(b0.loc));
        check("cross-class borrows");
    }

    #[test]
    fn too_large_object_is_rejected() {
        let s = ObjectStore::new(1024);
        let big = vec![0u8; 8 * 1024 * 1024];
        assert_eq!(s.allocate(b"k", &big), Err(StoreError::ObjectTooLarge));
    }

    #[test]
    fn out_of_memory_when_nothing_fits() {
        // Fill the arena with 32-byte-class objects, then ask for a
        // 64-byte-class object: nothing same-class is evictable, no
        // segment is expired, and no *larger* class has slots to
        // borrow (32-byte slots cannot host a 64-byte-class object),
        // so the allocation must fail even though memory exists.
        let s = ObjectStore::new(96);
        for i in 0..3 {
            s.allocate(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let value = vec![1u8; 40];
        assert_eq!(s.allocate(b"big", &value), Err(StoreError::OutOfMemory));
    }

    #[test]
    fn small_objects_borrow_larger_class_slots_when_trapped() {
        // The PR-9 trap, inverted: the arena is fully carved into
        // 64-byte-class objects, and a 32-byte-class allocation arrives.
        // Same-class CLOCK has nothing (class 32 owns no slots), nothing
        // is expired, and the classes between own none either, so the
        // allocator borrows a 64-byte slot by evicting its occupant.
        let s = ObjectStore::new(256);
        for i in 0..4 {
            let value = vec![b'v'; 38]; // 24 + 2 + 38 = 64 → class 64
            s.allocate(format!("b{i}").as_bytes(), &value).unwrap();
        }
        assert_eq!(s.bytes_carved(), 256);
        let out = s.allocate(b"tiny", b"v").unwrap();
        let ev = out.evicted.expect("borrow must evict from the larger class");
        assert_eq!(ev.cookie, hash64(b"b0"));
        assert_eq!(ev.loc, out.loc);
        assert!(s.key_matches(out.loc, b"tiny"));
        // The borrowed slot keeps its real class: freeing it returns it
        // to the 64-byte free list, where a 64-byte-class allocation can
        // pick it up again.
        assert!(s.free(out.loc));
        let big = vec![b'v'; 38];
        let back = s.allocate(b"b9", &big).unwrap();
        assert_eq!(back.loc, out.loc);
        assert!(back.evicted.is_none());
        let live = |bytes| {
            let stats = s.class_stats();
            stats.iter().find(|c| c.class_bytes == bytes).unwrap().live_objects
        };
        assert_eq!(live(32), 0, "class 32 never owned the object");
        assert_eq!(live(64), 4);
    }

    #[test]
    fn fallback_order_same_class_clock_then_expired_segment_then_error() {
        // Regression pin for the allocation fallback order:
        // same-class CLOCK → any-class expired segment → error.

        // Step 1: same-class CLOCK wins even though an expired segment
        // exists in another class.
        let s = ObjectStore::new(192);
        let big = vec![b'v'; 38]; // 24 + 2 + 38 = 64 → class 64
        s.allocate(b"a0", b"v").unwrap();
        s.allocate(b"a1", b"v").unwrap();
        s.allocate_with(b"e0", &big, 50, 0, 10, 11).unwrap();
        s.allocate(b"a2", b"v").unwrap();
        s.allocate(b"a3", b"v").unwrap();
        assert_eq!(s.bytes_carved(), 192);
        let out = s.allocate_with(b"a4", b"v", 0, 0, 100, 0).unwrap();
        assert_eq!(
            out.evicted.expect("same-class CLOCK evicts first").cookie,
            hash64(b"a0")
        );
        assert!(out.reclaimed.is_empty(), "expired segment left untouched");

        // Step 2: a class with no slots of its own skips straight past
        // same-class CLOCK to the any-class expired segment, and borrows
        // a reclaimed slot without evicting live data.
        let s = ObjectStore::new(256);
        s.allocate_with(b"e0", &big, 50, 0, 10, 11).unwrap();
        s.allocate_with(b"e1", &big, 50, 0, 10, 22).unwrap();
        let live0 = s.allocate(b"l0", &big).unwrap();
        let live1 = s.allocate(b"l1", &big).unwrap();
        assert_eq!(s.bytes_carved(), 256);
        let out = s.allocate_with(b"tiny", b"v", 0, 0, 100, 0).unwrap();
        assert!(out.evicted.is_none(), "no live object evicted");
        let cookies: Vec<u64> = out.reclaimed.iter().map(|p| p.cookie).collect();
        assert!(cookies.contains(&11) && cookies.contains(&22));
        assert!(s.key_matches(out.loc, b"tiny"));
        assert!(s.key_matches(live0.loc, b"l0"));
        assert!(s.key_matches(live1.loc, b"l1"));

        // Step 3: nothing expired, nothing same-class, and no larger
        // class to borrow from → error.
        let s = ObjectStore::new(96);
        for i in 0..3 {
            s.allocate(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let value = vec![1u8; 40]; // 67 B → class 80: no slot of 80 B or more
        assert_eq!(
            s.allocate_with(b"big", &value, 0, 0, 100, 0),
            Err(StoreError::OutOfMemory)
        );
    }

    #[test]
    fn expired_objects_forfeit_their_second_chance() {
        let s = ObjectStore::new(128);
        // k0 expired but referenced; k1..k3 live forever.
        s.allocate_with(b"k0", b"v", 10, 0, 0, 1).unwrap();
        for i in 1..4 {
            s.allocate(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        s.touch(0, 1); // sets REFERENCED on k0
        let out = s.allocate_with(b"k4", b"v", 0, 0, 100, 0).unwrap();
        assert_eq!(
            out.evicted.unwrap().cookie,
            hash64(b"k0"),
            "an expired object is evicted despite its referenced bit"
        );
    }

    #[test]
    fn sweep_reclaims_whole_segments() {
        let s = ObjectStore::new(1 << 16);
        // Two deadline cohorts in the same class, far enough apart to
        // land in different buckets.
        for i in 0..20u32 {
            s.allocate_with(format!("s{i}").as_bytes(), b"v", 100, 0, 0, u64::from(i))
                .unwrap();
        }
        for i in 0..20u32 {
            s.allocate_with(format!("l{i}").as_bytes(), b"v", 10_000, 0, 0, u64::from(100 + i))
                .unwrap();
        }
        assert_eq!(s.live_objects(), 40);

        // Nothing expired yet.
        let mut purged = Vec::new();
        assert_eq!(s.sweep_expired(50, usize::MAX, &mut purged), 0);
        assert!(purged.is_empty());

        // The 100-deadline cohort expires; the 10_000 cohort survives.
        let reclaimed = s.sweep_expired(200, usize::MAX, &mut purged);
        assert!(reclaimed >= 1);
        assert_eq!(purged.len(), 20);
        assert!(purged.iter().all(|p| p.cookie < 100));
        assert_eq!(s.live_objects(), 20);
        let stats = s.expiry_stats();
        assert_eq!(stats.expired_proactive, 20);
        assert!(stats.segments_reclaimed >= 1);

        // Freed slots recycle through the free list.
        let reused = s.allocate(b"fresh", b"v").unwrap();
        assert!(reused.evicted.is_none());
        assert!(purged.iter().any(|p| p.loc == reused.loc));
    }

    #[test]
    fn expire_if_due_spares_recycled_slots() {
        let s = ObjectStore::new(4096);
        let out = s.allocate_with(b"gone", b"v", 10, 0, 0, 1).unwrap();
        // Not due yet.
        assert!(!s.expire_if_due(out.loc, 9));
        // Due: freed exactly once.
        assert!(s.expire_if_due(out.loc, 10));
        assert!(!s.expire_if_due(out.loc, 10));
        // The slot is recycled by an unexpiring object; a stale segment
        // member must not free it.
        let fresh = s.allocate(b"fresh", b"v").unwrap();
        assert_eq!(fresh.loc, out.loc);
        assert!(!s.expire_if_due(fresh.loc, u32::MAX - 1));
        assert!(s.key_matches(fresh.loc, b"fresh"));
    }

    #[test]
    fn is_expired_tracks_the_deadline() {
        let s = ObjectStore::new(4096);
        let forever = s.allocate(b"forever", b"v").unwrap();
        assert!(!s.is_expired(forever.loc, u32::MAX - 1));
        let brief = s.allocate_with(b"brief", b"v", 100, 0, 50, 3).unwrap();
        assert!(!s.is_expired(brief.loc, 99));
        assert!(s.is_expired(brief.loc, 100));
        s.free(brief.loc);
        assert!(!s.is_expired(brief.loc, 200), "dead slots are not expired");
    }

    #[test]
    fn class_stats_track_occupancy_and_fragmentation() {
        let s = ObjectStore::new(4096);
        // 24 + 4 + 1 = 29 bytes in a 32-byte slot: 3 bytes frag.
        s.allocate(b"aaaa", b"1").unwrap();
        // 24 + 4 + 13 = 41 bytes in a 48-byte slot: 7 bytes frag.
        s.allocate(b"bbbb", b"0123456789abc").unwrap();
        let stats = s.class_stats();
        assert_eq!(stats[0].class_bytes, 32);
        assert_eq!(stats[0].live_objects, 1);
        assert_eq!(stats[0].live_bytes, 29);
        assert_eq!(stats[0].frag_bytes, 3);
        assert_eq!(stats[1].class_bytes, 40);
        assert_eq!(stats[1].live_objects, 0);
        assert_eq!(stats[2].class_bytes, 48);
        assert_eq!(stats[2].live_bytes, 41);
        assert_eq!(stats[2].frag_bytes, 7);
        // Freeing settles the gauges back to zero.
        let total_live: usize = stats.iter().map(|c| c.live_objects).sum();
        assert_eq!(total_live, s.live_objects());
    }

    #[test]
    fn mega_kv_size_classes_are_powers_of_two() {
        let s = ObjectStore::mega_kv(1 << 20);
        assert_eq!(s.class_bytes_for(4, 4), Some(32));
        assert_eq!(s.class_bytes_for(8, 17), Some(64));
        assert_eq!(s.class_bytes_for(128, 1024), Some(2048));
        assert!(s.class_bytes_for(0, 1 << 23).is_none());
        let ladder: Vec<usize> = s.class_stats().iter().map(|c| c.class_bytes).collect();
        assert_eq!(ladder, (0..16).map(|d| 32 << d).collect::<Vec<_>>());
    }

    #[test]
    fn serving_size_classes_step_four_per_doubling() {
        let s = ObjectStore::new(1 << 20);
        let ladder: Vec<usize> = s.class_stats().iter().map(|c| c.class_bytes).collect();
        assert_eq!(ladder[..13], [32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256]);
        assert_eq!(ladder.len(), 15 * 4 + 1, "32 B to 1 MiB, four steps per doubling");
        assert_eq!(ladder.last(), Some(&(1 << 20)));
        // The three datasets the front-door benchmark stores, in header
        // + key + value bytes: K16 104, K32 312, K128 1 176.
        assert_eq!(s.class_bytes_for(16, 64), Some(112));
        assert_eq!(s.class_bytes_for(32, 256), Some(320));
        assert_eq!(s.class_bytes_for(128, 1024), Some(1280));
        assert_eq!(s.class_bytes_for(4, 4), Some(32));
        assert!(s.class_bytes_for(0, 1 << 23).is_none());
        // Both ladders stop at 4 MiB.
        for big in [ObjectStore::new(1 << 30), ObjectStore::mega_kv(1 << 30)] {
            assert_eq!(big.class_bytes_for(0, (4 << 20) - HEADER_SIZE), Some(4 << 20));
            assert!(big.class_bytes_for(0, (4 << 20) - HEADER_SIZE + 1).is_none());
        }
    }

    #[test]
    fn every_object_lands_in_the_smallest_class_that_holds_it() {
        for s in [ObjectStore::new(1 << 16), ObjectStore::mega_kv(1 << 16)] {
            let ladder: Vec<usize> = s.class_stats().iter().map(|c| c.class_bytes).collect();
            assert!(ladder.windows(2).all(|w| w[0] < w[1] && w[1] <= w[0] * 2));
            assert!(ladder.iter().all(|&bytes| bytes % 8 == 0));
            for total in HEADER_SIZE..=(1 << 16) + 1 {
                let want = ladder.iter().copied().find(|&bytes| bytes >= total);
                assert_eq!(s.class_bytes_for(0, total - HEADER_SIZE), want, "{total} B");
            }
        }
    }

    #[test]
    fn touch_tracks_epochs_and_freq() {
        let s = ObjectStore::new(4096);
        let out = s.allocate(b"key", b"val").unwrap();
        assert_eq!(s.touch(out.loc, 7), 1);
        assert_eq!(s.touch(out.loc, 7), 2);
        assert_eq!(s.touch(out.loc, 7), 3);
        assert_eq!(s.freq(out.loc), (3, 7));
        // New sampling epoch resets.
        assert_eq!(s.touch(out.loc, 8), 1);
        assert_eq!(s.freq(out.loc), (1, 8));
    }

    #[test]
    fn lens_and_capacity_reporting() {
        let s = ObjectStore::new(4096);
        let out = s.allocate(b"abc", b"defgh").unwrap();
        assert_eq!(s.object_lens(out.loc), (3, 5));
        assert!(s.bytes_carved() >= 32);
        assert_eq!(s.capacity(), 4096);
    }

    #[test]
    fn many_objects_across_classes() {
        let s = ObjectStore::new(1 << 20);
        let mut locs = Vec::new();
        for i in 0..1000u32 {
            let key = format!("key-{i}");
            let value = vec![b'x'; (i % 300) as usize];
            let out = s.allocate(key.as_bytes(), &value).unwrap();
            locs.push((out.loc, key, value));
        }
        assert_eq!(s.live_objects(), 1000);
        for (loc, key, value) in locs {
            assert!(s.key_matches(loc, key.as_bytes()));
            let mut v = Vec::new();
            s.read_value(loc, &mut v);
            assert_eq!(v, value);
        }
    }

    #[test]
    fn concurrent_allocate_and_free() {
        use std::sync::Arc;
        let s = Arc::new(ObjectStore::new(1 << 22));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..2000u32 {
                        let key = format!("t{t}-k{i}");
                        let out = s.allocate(key.as_bytes(), b"payload").unwrap();
                        assert!(s.key_matches(out.loc, key.as_bytes()));
                        if i % 3 == 0 {
                            assert!(s.free(out.loc));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_sweep_and_churn() {
        use std::sync::Arc;
        let s = Arc::new(ObjectStore::new(1 << 20));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sweeper = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let mut now = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    now = now.wrapping_add(7);
                    s.sweep_expired(now, usize::MAX, &mut out);
                    out.clear();
                }
            })
        };
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..3000u32 {
                        let key = format!("t{t}-k{i}");
                        let deadline = 1 + (i % 64);
                        let out = s
                            .allocate_with(key.as_bytes(), b"payload", deadline, 0, 0, u64::from(i))
                            .unwrap();
                        if i % 5 == 0 {
                            s.free(out.loc);
                        }
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        sweeper.join().unwrap();
        // Everything left is either live or on a free list; a final
        // sweep at the far future drains all remaining deadlines.
        let mut out = Vec::new();
        s.sweep_expired(u32::MAX - 1, usize::MAX, &mut out);
        assert_eq!(s.live_objects(), 0);
    }
}
