//! Operational hot-set cache filter.
//!
//! The paper's cost model estimates, for skewed workloads, the fraction
//! `P` of object accesses that hit the CPU cache from Zipf's law
//! (§IV-B). The *simulator* instead tracks an actual LRU-approximating
//! filter per processor: each object access either hits (the object was
//! recently touched and fits the modelled cache) or misses and inserts.
//! The divergence between the filter's behaviour and the model's
//! closed-form `P` is one of the intended sources of cost-model error
//! (Figure 9).

use std::collections::{HashMap, VecDeque};

/// A byte-capacity-bounded LRU filter over object locations.
///
/// Lazy LRU: hits refresh a monotonically increasing tick; eviction pops
/// queue entries whose tick is stale until the live footprint fits.
#[derive(Debug)]
pub struct LruFilter {
    capacity_bytes: u64,
    used_bytes: u64,
    tick: u64,
    /// loc -> (last tick, object bytes)
    map: HashMap<u64, (u64, u64)>,
    /// (loc, tick at insertion/refresh)
    queue: VecDeque<(u64, u64)>,
}

impl LruFilter {
    /// Filter modelling a cache of `capacity_bytes`.
    #[must_use]
    pub fn new(capacity_bytes: u64) -> LruFilter {
        LruFilter {
            capacity_bytes,
            used_bytes: 0,
            tick: 0,
            map: HashMap::new(),
            queue: VecDeque::new(),
        }
    }

    /// Record an access to the object at `loc` occupying `bytes`.
    /// Returns `true` on a hit (object was resident).
    pub fn access(&mut self, loc: u64, bytes: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let hit = match self.map.get_mut(&loc) {
            Some((t, b)) => {
                *t = tick;
                // Object may have been replaced by a different size.
                self.used_bytes = self.used_bytes - *b + bytes;
                *b = bytes;
                true
            }
            None => {
                if bytes > self.capacity_bytes {
                    return false; // cannot ever be resident
                }
                self.map.insert(loc, (tick, bytes));
                self.used_bytes += bytes;
                false
            }
        };
        self.queue.push_back((loc, tick));
        self.evict_to_fit();
        hit
    }

    fn evict_to_fit(&mut self) {
        while self.used_bytes > self.capacity_bytes {
            let Some((loc, tick)) = self.queue.pop_front() else {
                break;
            };
            match self.map.get(&loc) {
                Some((t, b)) if *t == tick => {
                    self.used_bytes -= *b;
                    self.map.remove(&loc);
                }
                _ => {} // stale queue entry
            }
        }
        // Bound queue growth from refresh churn.
        if self.queue.len() > 8 * self.map.len().max(16) {
            let map = &self.map;
            self.queue.retain(|(loc, tick)| {
                map.get(loc).map(|(t, _)| *t == *tick).unwrap_or(false)
            });
        }
    }

    /// Forget an object (e.g. after eviction from the store).
    pub fn invalidate(&mut self, loc: u64) {
        if let Some((_, b)) = self.map.remove(&loc) {
            self.used_bytes -= b;
        }
    }

    /// Resident objects.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Resident bytes.
    #[cfg(test)]
    fn used_bytes(&self) -> u64 {
        self.used_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut f = LruFilter::new(1024);
        assert!(!f.access(1, 100));
        assert!(f.access(1, 100));
        assert_eq!(f.len(), 1);
        assert_eq!(f.used_bytes(), 100);
    }

    #[test]
    fn capacity_evicts_least_recent() {
        let mut f = LruFilter::new(300);
        f.access(1, 100);
        f.access(2, 100);
        f.access(3, 100);
        // Refresh 1 so 2 is the LRU victim when 4 arrives.
        assert!(f.access(1, 100));
        f.access(4, 100);
        assert!(f.access(1, 100), "recently refreshed must survive");
        assert!(!f.access(2, 100), "LRU victim must be gone");
    }

    #[test]
    fn oversized_objects_never_cache() {
        let mut f = LruFilter::new(64);
        assert!(!f.access(9, 128));
        assert!(!f.access(9, 128));
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn invalidate_removes() {
        let mut f = LruFilter::new(1024);
        f.access(5, 50);
        f.invalidate(5);
        assert!(!f.access(5, 50));
        assert_eq!(f.used_bytes(), 50);
    }

    #[test]
    fn size_change_is_accounted() {
        let mut f = LruFilter::new(1000);
        f.access(1, 100);
        f.access(1, 400);
        assert_eq!(f.used_bytes(), 400);
    }

    #[test]
    fn hot_set_stays_under_zipf_like_traffic() {
        // 10 hot objects + occasional cold scans; hot objects must keep
        // hitting.
        let mut f = LruFilter::new(24 * 64);
        let mut hits = 0;
        let mut total = 0;
        for round in 0..1000u64 {
            let hot = round % 10;
            if f.access(hot, 64) {
                hits += 1;
            }
            total += 1;
            if round % 7 == 0 {
                f.access(1000 + round, 64); // cold pollution
            }
        }
        assert!(
            f64::from(hits) / f64::from(total) > 0.7,
            "hot objects should mostly hit: {hits}/{total}"
        );
    }
}
