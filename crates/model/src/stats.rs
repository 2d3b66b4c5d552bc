//! Per-batch workload statistics used by the profiler and cost model.

use crate::query::{Query, QueryOp, Response, ResponseStatus};

/// Workload characteristics of a batch of queries, as collected by the
/// Workload Profiler (paper §III-A: "The Cost Model only requires the
/// Workload Profiler to profile a few workload characteristics of each
/// batch, including GET/SET ratio and average key-value size. They can be
/// implemented with only a few counters.").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadStats {
    /// Fraction of GET queries in `[0, 1]`.
    pub get_ratio: f64,
    /// Fraction of DELETE queries in `[0, 1]` (the remainder after GET
    /// and DELETE are SETs).
    pub delete_ratio: f64,
    /// Mean key size in bytes.
    pub avg_key_size: f64,
    /// Mean value size in bytes.
    pub avg_value_size: f64,
    /// Estimated Zipf skewness of key popularity (0 = uniform).
    pub zipf_skew: f64,
    /// Number of queries profiled.
    pub batch_size: usize,
}

impl WorkloadStats {
    /// Stats for an empty batch.
    #[must_use]
    pub fn empty() -> WorkloadStats {
        WorkloadStats {
            get_ratio: 0.0,
            delete_ratio: 0.0,
            avg_key_size: 0.0,
            avg_value_size: 0.0,
            zipf_skew: 0.0,
            batch_size: 0,
        }
    }

    /// Fraction of SET queries.
    #[must_use]
    pub fn set_ratio(&self) -> f64 {
        (1.0 - self.get_ratio - self.delete_ratio).max(0.0)
    }

    /// Average whole-object size (key + value) in bytes.
    #[must_use]
    pub fn avg_object_size(&self) -> f64 {
        self.avg_key_size + self.avg_value_size
    }

    /// Whether this batch's characteristics differ from `prev` by more
    /// than `threshold` (relative, per counter). The paper uses a 10 %
    /// upper limit on the alteration of workload counters to trigger
    /// re-running the cost model (§III-A).
    #[must_use]
    pub fn changed_significantly(&self, prev: &WorkloadStats, threshold: f64) -> bool {
        fn rel_change(a: f64, b: f64) -> f64 {
            let denom = b.abs().max(1e-9);
            (a - b).abs() / denom
        }
        // Ratios are compared absolutely (a 0.05 -> 0.10 SET ratio doubling
        // matters even though both are small); sizes relatively.
        (self.get_ratio - prev.get_ratio).abs() > threshold
            || (self.delete_ratio - prev.delete_ratio).abs() > threshold
            || rel_change(self.avg_key_size, prev.avg_key_size) > threshold
            || rel_change(self.avg_value_size, prev.avg_value_size) > threshold
            || (self.zipf_skew - prev.zipf_skew).abs() > threshold * 2.0
    }
}

/// What one batch (or, summed, any interval of batches) did: the
/// profiler's "few counters", in plain integers. Counted once — the op
/// mix as the batch is built, the hits as its responses are collected —
/// and handed to every reader; [`BatchTally::workload_stats`] is the only
/// conversion to [`WorkloadStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTally {
    /// Queries.
    pub queries: u64,
    /// GET queries.
    pub gets: u64,
    /// DELETE queries (the rest are SETs).
    pub deletes: u64,
    /// Key bytes across all queries.
    pub key_bytes: u64,
    /// Value bytes across SET queries.
    pub set_value_bytes: u64,
    /// GETs answered `Ok`.
    pub hits: u64,
    /// Value bytes those hits returned.
    pub hit_value_bytes: u64,
}

impl BatchTally {
    /// Count one query's share of the op mix.
    pub fn count_query(&mut self, q: &Query) {
        self.queries += 1;
        self.key_bytes += q.key.len() as u64;
        match q.op {
            QueryOp::Get => self.gets += 1,
            QueryOp::Delete => self.deletes += 1,
            QueryOp::Set => self.set_value_bytes += q.value.len() as u64,
        }
    }

    /// Count the answer to a query of kind `op`: a hit is a GET answered
    /// `Ok`.
    pub fn count_response(&mut self, op: QueryOp, r: &Response) {
        if op == QueryOp::Get && r.status == ResponseStatus::Ok {
            self.hits += 1;
            self.hit_value_bytes += r.value.len() as u64;
        }
    }

    /// SET queries.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.queries - self.gets - self.deletes
    }

    /// Add another tally (a shard's share of a batch, the next batch of
    /// an interval).
    pub fn merge(&mut self, other: &BatchTally) {
        self.queries += other.queries;
        self.gets += other.gets;
        self.deletes += other.deletes;
        self.key_bytes += other.key_bytes;
        self.set_value_bytes += other.set_value_bytes;
        self.hits += other.hits;
        self.hit_value_bytes += other.hit_value_bytes;
    }

    /// The counts as [`WorkloadStats`]. Value size is the mean over SET
    /// payloads *and* hit payloads: on a 100 % GET workload SETs alone
    /// would report zero and the cost model would misprice RD/WR/SD.
    #[must_use]
    pub fn workload_stats(&self, zipf_skew: f64) -> WorkloadStats {
        let per_query = |count: u64| match self.queries {
            0 => 0.0,
            n => count as f64 / n as f64,
        };
        let values = self.sets() + self.hits;
        WorkloadStats {
            get_ratio: per_query(self.gets),
            delete_ratio: per_query(self.deletes),
            avg_key_size: per_query(self.key_bytes),
            avg_value_size: match values {
                0 => 0.0,
                n => (self.set_value_bytes + self.hit_value_bytes) as f64 / n as f64,
            },
            zipf_skew,
            batch_size: self.queries as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorkloadStats {
        WorkloadStats {
            get_ratio: 0.95,
            delete_ratio: 0.0,
            avg_key_size: 16.0,
            avg_value_size: 64.0,
            zipf_skew: 0.99,
            batch_size: 1000,
        }
    }

    #[test]
    fn set_ratio_complements() {
        let s = base();
        assert!((s.set_ratio() - 0.05).abs() < 1e-12);
        let mut d = base();
        d.delete_ratio = 0.03;
        assert!((d.set_ratio() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn object_size() {
        assert_eq!(base().avg_object_size(), 80.0);
    }

    #[test]
    fn no_change_below_threshold() {
        let a = base();
        let mut b = base();
        b.get_ratio = 0.93; // 2 points, below 10 %
        b.avg_value_size = 66.0; // ~3 % relative
        assert!(!b.changed_significantly(&a, 0.10));
    }

    #[test]
    fn get_ratio_shift_triggers() {
        let a = base();
        let mut b = base();
        b.get_ratio = 0.50;
        assert!(b.changed_significantly(&a, 0.10));
    }

    #[test]
    fn value_size_shift_triggers() {
        let a = base();
        let mut b = base();
        b.avg_value_size = 1024.0;
        assert!(b.changed_significantly(&a, 0.10));
    }

    #[test]
    fn skew_shift_triggers() {
        let a = base();
        let mut b = base();
        b.zipf_skew = 0.0;
        assert!(b.changed_significantly(&a, 0.10));
    }

    #[test]
    fn empty_is_zeroed() {
        let e = WorkloadStats::empty();
        assert_eq!(e.batch_size, 0);
        assert_eq!(e.set_ratio(), 1.0);
    }

    fn tally_of(queries: &[Query]) -> BatchTally {
        let mut t = BatchTally::default();
        for q in queries {
            t.count_query(q);
        }
        t
    }

    #[test]
    fn empty_tally_converts_to_empty_stats() {
        let s = BatchTally::default().workload_stats(0.0);
        assert_eq!(s, WorkloadStats::empty());
    }

    #[test]
    fn tally_counts_ratios_and_sizes() {
        let t = tally_of(&[
            Query::get("0123456789abcdef"), // 16B key
            Query::get("0123456789abcdef"),
            Query::get("0123456789abcdef"),
            Query::set("0123456789abcdef", vec![0u8; 64]),
            Query::delete("0123456789abcdef"),
        ]);
        assert_eq!(t.sets(), 1);
        let s = t.workload_stats(0.5);
        assert!((s.get_ratio - 0.6).abs() < 1e-12);
        assert!((s.delete_ratio - 0.2).abs() < 1e-12);
        assert!((s.set_ratio() - 0.2).abs() < 1e-12);
        assert!((s.avg_key_size - 16.0).abs() < 1e-12);
        assert!((s.avg_value_size - 64.0).abs() < 1e-12);
        assert_eq!((s.zipf_skew, s.batch_size), (0.5, 5));
    }

    #[test]
    fn get_only_tallies_size_values_from_their_hits() {
        let mut t = tally_of(&[Query::get("k"), Query::get("j")]);
        let s = t.workload_stats(0.0);
        assert_eq!(
            s.avg_value_size, 0.0,
            "no SETs, no hits: nothing to average"
        );
        assert_eq!(s.get_ratio, 1.0);
        // One hits, one misses; a SET's `Ok` is not a hit.
        t.count_response(QueryOp::Get, &Response::hit(vec![0u8; 48]));
        t.count_response(QueryOp::Get, &Response::not_found());
        t.count_response(QueryOp::Set, &Response::ok());
        assert_eq!((t.hits, t.hit_value_bytes), (1, 48));
        assert_eq!(
            t.workload_stats(0.0).avg_value_size,
            48.0,
            "the hits' mean, not 0"
        );
    }

    #[test]
    fn merge_adds_every_counter() {
        let mut a = tally_of(&[Query::get("ab"), Query::set("c", "xyz")]);
        a.count_response(QueryOp::Get, &Response::hit("v"));
        let mut sum = a;
        sum.merge(&a);
        let twice = BatchTally {
            queries: 4,
            gets: 2,
            deletes: 0,
            key_bytes: 6,
            set_value_bytes: 6,
            hits: 2,
            hit_value_bytes: 2,
        };
        assert_eq!(sum, twice);
    }
}
