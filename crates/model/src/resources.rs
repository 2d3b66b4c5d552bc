//! Resource-usage accounting shared by the simulator and the cost model.

use std::ops::{Add, AddAssign};

/// Counted resources for executing some work (one query, one task over a
/// batch, one stage, ...).
///
/// This is the unit of currency between the functional layer (which
/// counts what really happened while processing a batch) and the timing
/// layer (`dido-apu-sim`, which converts counts into virtual nanoseconds
/// per paper Equation 1: `T = N · (I/IPC + N_M·L_M + N_C·L_C)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsage {
    /// Executed instructions (approximated by operation counts in the
    /// functional layer, mirroring the instruction-counting method the
    /// paper borrows from He et al.).
    pub instructions: u64,
    /// Random memory accesses that miss the cache hierarchy.
    pub mem_accesses: u64,
    /// Accesses served by the L2 cache (including prefetched lines of
    /// large objects and affinity-warmed lines).
    pub cache_accesses: u64,
    /// Bytes moved (used for PCIe transfer modelling on the discrete
    /// profile and for bandwidth-pressure interference).
    pub bytes: u64,
}

impl ResourceUsage {
    /// The zero usage.
    pub const ZERO: ResourceUsage = ResourceUsage {
        instructions: 0,
        mem_accesses: 0,
        cache_accesses: 0,
        bytes: 0,
    };

    /// Construct from the three Equation-1 components.
    #[must_use]
    pub fn new(instructions: u64, mem_accesses: u64, cache_accesses: u64) -> ResourceUsage {
        ResourceUsage {
            instructions,
            mem_accesses,
            cache_accesses,
            bytes: 0,
        }
    }

    /// Builder-style: set the bytes-moved component.
    #[must_use]
    pub fn with_bytes(mut self, bytes: u64) -> ResourceUsage {
        self.bytes = bytes;
        self
    }

    /// Scale every component by an integer factor (e.g. per-query usage
    /// into per-batch usage).
    #[must_use]
    pub fn scaled(self, n: u64) -> ResourceUsage {
        ResourceUsage {
            instructions: self.instructions * n,
            mem_accesses: self.mem_accesses * n,
            cache_accesses: self.cache_accesses * n,
            bytes: self.bytes * n,
        }
    }

    /// Reclassify a fraction `p` (clamped to `[0,1]`) of memory accesses
    /// as cache accesses. Used for task affinity and for skewed-key
    /// caching (paper §IV-B: `N_M' = (1-P)·N_M`, `N_C' = P·N_M + N_C`).
    #[must_use]
    pub fn with_mem_cached_fraction(self, p: f64) -> ResourceUsage {
        let p = p.clamp(0.0, 1.0);
        let moved = (self.mem_accesses as f64 * p).round() as u64;
        ResourceUsage {
            instructions: self.instructions,
            mem_accesses: self.mem_accesses - moved,
            cache_accesses: self.cache_accesses + moved,
            bytes: self.bytes,
        }
    }

    /// Total accesses (memory + cache), used by interference estimation.
    #[must_use]
    pub fn total_accesses(self) -> u64 {
        self.mem_accesses + self.cache_accesses
    }

    /// True if every component is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self == ResourceUsage::ZERO
    }
}

impl Add for ResourceUsage {
    type Output = ResourceUsage;
    fn add(self, rhs: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            instructions: self.instructions + rhs.instructions,
            mem_accesses: self.mem_accesses + rhs.mem_accesses,
            cache_accesses: self.cache_accesses + rhs.cache_accesses,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl AddAssign for ResourceUsage {
    fn add_assign(&mut self, rhs: ResourceUsage) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for ResourceUsage {
    fn sum<I: Iterator<Item = ResourceUsage>>(iter: I) -> ResourceUsage {
        iter.fold(ResourceUsage::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sum() {
        let a = ResourceUsage::new(10, 2, 3).with_bytes(100);
        let b = ResourceUsage::new(5, 1, 1).with_bytes(50);
        let c = a + b;
        assert_eq!(c.instructions, 15);
        assert_eq!(c.mem_accesses, 3);
        assert_eq!(c.cache_accesses, 4);
        assert_eq!(c.bytes, 150);
        let s: ResourceUsage = [a, b].into_iter().sum();
        assert_eq!(s, c);
    }

    #[test]
    fn scaling() {
        let a = ResourceUsage::new(3, 2, 1).with_bytes(8).scaled(4);
        assert_eq!(a, ResourceUsage::new(12, 8, 4).with_bytes(32));
    }

    #[test]
    fn cached_fraction_moves_mem_to_cache() {
        let a = ResourceUsage::new(0, 100, 10);
        let b = a.with_mem_cached_fraction(0.25);
        assert_eq!(b.mem_accesses, 75);
        assert_eq!(b.cache_accesses, 35);
        assert_eq!(b.total_accesses(), a.total_accesses());
    }

    #[test]
    fn cached_fraction_clamps() {
        let a = ResourceUsage::new(0, 10, 0);
        assert_eq!(a.with_mem_cached_fraction(2.0).mem_accesses, 0);
        assert_eq!(a.with_mem_cached_fraction(-1.0).mem_accesses, 10);
    }

    #[test]
    fn zero_checks() {
        assert!(ResourceUsage::ZERO.is_zero());
        assert!(!ResourceUsage::new(1, 0, 0).is_zero());
    }
}
