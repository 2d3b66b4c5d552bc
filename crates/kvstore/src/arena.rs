//! The shared-memory arena.
//!
//! Models the 1,908 MB CPU/GPU shared region of the paper's APU: one
//! flat byte range both processors read and write. Because dispatcher
//! threads and the controller's sweeper touch the arena concurrently —
//! and eviction can recycle an object while a stale reader still holds
//! its location — all accesses go through relaxed
//! atomic bytes. Racy readers observe stale-but-initialized data (which
//! the `KC` key-comparison step then rejects), never undefined behaviour.

use std::sync::atomic::{AtomicU8, Ordering};

/// A fixed-capacity byte arena with interior mutability.
pub struct Arena {
    bytes: Box<[AtomicU8]>,
}

impl Arena {
    /// Allocate a zeroed arena of `capacity` bytes. The allocator does
    /// the zeroing (`vec![0u8; n]` asks it for zeroed memory), so a page
    /// costs resident memory only once an object is written there.
    #[must_use]
    pub fn new(capacity: usize) -> Arena {
        let zeroed = Box::into_raw(vec![0u8; capacity].into_boxed_slice());
        // SAFETY: `AtomicU8` has the size, alignment and bit validity of
        // `u8`, so the block holds `capacity` valid atomics (zero is a
        // valid value) under exactly the layout `Box<[AtomicU8]>` frees
        // with: same length, same alignment.
        let bytes = unsafe { Box::from_raw(zeroed as *mut [AtomicU8]) };
        Arena { bytes }
    }

    /// Arena capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// Copy `src` into the arena at `offset`.
    ///
    /// # Panics
    /// Panics if the range exceeds the arena.
    pub fn write(&self, offset: usize, src: &[u8]) {
        let dst = &self.bytes[offset..offset + src.len()];
        for (d, &s) in dst.iter().zip(src) {
            d.store(s, Ordering::Relaxed);
        }
    }

    /// Copy `len` bytes at `offset` into `dst` (appended).
    ///
    /// # Panics
    /// Panics if the range exceeds the arena.
    pub fn read_into(&self, offset: usize, len: usize, dst: &mut Vec<u8>) {
        dst.reserve(len);
        for b in &self.bytes[offset..offset + len] {
            dst.push(b.load(Ordering::Relaxed));
        }
    }

    /// Read `len` bytes at `offset` into a fresh vector.
    #[must_use]
    pub fn read_vec(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        self.read_into(offset, len, &mut v);
        v
    }

    /// The `len` bytes at `offset`, read where they lie (no copy). A
    /// range that exceeds the arena yields nothing: a racing reader may
    /// hold a torn length from a slot that is being rewritten.
    pub fn bytes(&self, offset: usize, len: usize) -> impl Iterator<Item = u8> + '_ {
        let range = self.bytes.get(offset..offset.saturating_add(len));
        range
            .unwrap_or(&[])
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
    }

    /// Compare the bytes at `offset..offset+other.len()` with `other`.
    #[must_use]
    pub fn bytes_equal(&self, offset: usize, other: &[u8]) -> bool {
        if offset + other.len() > self.bytes.len() {
            return false;
        }
        self.bytes[offset..offset + other.len()]
            .iter()
            .zip(other)
            .all(|(a, &b)| a.load(Ordering::Relaxed) == b)
    }

    /// Read a little-endian `u16`.
    #[must_use]
    pub fn read_u16(&self, offset: usize) -> u16 {
        u16::from_le_bytes([
            self.bytes[offset].load(Ordering::Relaxed),
            self.bytes[offset + 1].load(Ordering::Relaxed),
        ])
    }

    /// Write a little-endian `u16`.
    pub fn write_u16(&self, offset: usize, v: u16) {
        self.write(offset, &v.to_le_bytes());
    }

    /// Read a little-endian `u32`.
    #[must_use]
    pub fn read_u32(&self, offset: usize) -> u32 {
        let mut b = [0u8; 4];
        for (i, out) in b.iter_mut().enumerate() {
            *out = self.bytes[offset + i].load(Ordering::Relaxed);
        }
        u32::from_le_bytes(b)
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&self, offset: usize, v: u32) {
        self.write(offset, &v.to_le_bytes());
    }

    /// Read one byte.
    #[must_use]
    pub fn read_u8(&self, offset: usize) -> u8 {
        self.bytes[offset].load(Ordering::Relaxed)
    }

    /// Write one byte.
    pub fn write_u8(&self, offset: usize, v: u8) {
        self.bytes[offset].store(v, Ordering::Relaxed);
    }

    /// Read one byte with Acquire ordering.
    #[must_use]
    pub fn load_u8_acquire(&self, offset: usize) -> u8 {
        self.bytes[offset].load(Ordering::Acquire)
    }

    /// Write one byte with Release ordering.
    pub fn store_u8_release(&self, offset: usize, v: u8) {
        self.bytes[offset].store(v, Ordering::Release);
    }

    /// Replace the byte at `offset` with `new` if it is `current`
    /// (Release on success); `Err` carries the byte found instead.
    pub fn compare_exchange_u8_release(&self, offset: usize, current: u8, new: u8) -> Result<u8, u8> {
        self.bytes[offset].compare_exchange(current, new, Ordering::Release, Ordering::Relaxed)
    }

    /// Raw address of the byte at `offset`, for software-prefetch hints
    /// ahead of a batched probe pass. Out-of-range offsets return the
    /// arena base — the caller only ever feeds the result to a prefetch
    /// instruction, which never faults and never dereferences.
    #[must_use]
    pub fn byte_ptr(&self, offset: usize) -> *const u8 {
        let clamped = offset.min(self.bytes.len().saturating_sub(1));
        // AtomicU8 is #[repr(C, align(1))] over a single u8, so the cast
        // is layout-sound; the pointer is only used as a hint address.
        self.bytes[clamped..].as_ptr().cast::<u8>()
    }

    /// Atomically OR `mask` into the byte at `offset`, returning the
    /// previous value. Used for flag bits (e.g. the CLOCK referenced
    /// bit) that must not resurrect concurrently-cleared state.
    pub fn fetch_or_u8(&self, offset: usize, mask: u8) -> u8 {
        self.bytes[offset].fetch_or(mask, Ordering::Relaxed)
    }

    /// Atomically AND `mask` into the byte at `offset`, returning the
    /// previous value. Clearing the live bit this way is the slot-
    /// ownership handoff: exactly one of a racing free/evict/expire
    /// observes the bit set and wins the slot.
    pub fn fetch_and_u8(&self, offset: usize, mask: u8) -> u8 {
        self.bytes[offset].fetch_and(mask, Ordering::Relaxed)
    }

    /// Add `add` to the `u32` at `offset` and return the value it had
    /// (best-effort; used for frequency counters).
    pub fn fetch_add_u32(&self, offset: usize, add: u32) -> u32 {
        // Not atomic: a relaxed read of the 4 bytes, then a relaxed write
        // of the sum, so a racing add can be lost (or a torn value
        // written). Fine for sampling counters whose exactness is not
        // load-bearing.
        let cur = self.read_u32(offset);
        let next = cur.wrapping_add(add);
        self.write_u32(offset, next);
        cur
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let a = Arena::new(128);
        a.write(10, b"hello world");
        assert_eq!(a.read_vec(10, 11), b"hello world");
        assert!(a.bytes_equal(10, b"hello world"));
        assert!(!a.bytes_equal(10, b"hello_world"));
    }

    #[test]
    fn ints_round_trip() {
        let a = Arena::new(64);
        a.write_u16(0, 0xBEEF);
        a.write_u32(2, 0xDEAD_BEEF);
        a.write_u8(6, 7);
        assert_eq!(a.read_u16(0), 0xBEEF);
        assert_eq!(a.read_u32(2), 0xDEAD_BEEF);
        assert_eq!(a.read_u8(6), 7);
    }

    #[test]
    fn bytes_equal_rejects_out_of_range() {
        let a = Arena::new(8);
        assert!(!a.bytes_equal(6, b"abc"));
    }

    #[test]
    fn fetch_or_and_round_trip() {
        let a = Arena::new(8);
        assert_eq!(a.fetch_or_u8(0, 0b10), 0);
        assert_eq!(a.read_u8(0), 0b10);
        assert_eq!(a.fetch_and_u8(0, !0b10), 0b10);
        assert_eq!(a.read_u8(0), 0);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let a = Arena::new(8);
        a.write_u32(0, 41);
        assert_eq!(a.fetch_add_u32(0, 1), 41);
        assert_eq!(a.read_u32(0), 42);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        Arena::new(4).write(2, b"toolong");
    }

    #[test]
    fn concurrent_disjoint_writes_are_safe() {
        use std::sync::Arc;
        let a = Arc::new(Arena::new(4096));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let base = t * 1024;
                    for i in 0..1024 {
                        a.write_u8(base + i, (i % 251) as u8);
                    }
                    for i in 0..1024 {
                        assert_eq!(a.read_u8(base + i), (i % 251) as u8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
