//! The node's recording substrate: striped (per-dispatcher) workload
//! and batch counters, the control plane's counters, and the published
//! memory-plane snapshot. [`crate::Metrics`] is a read-side view
//! assembled from these on demand; nothing is kept twice.
//!
//! The sequential profiler owns a `&mut WorkloadProfiler` and folds each
//! batch in-line; with N dispatchers calling `process_batch(&self)`
//! concurrently that would serialize the data plane on profiling. Instead
//! each dispatcher lane owns a *stripe* of monotonic counters (one
//! relaxed add per counter per batch — the per-query work stays in
//! thread-local sums) and readers fold all stripes by kind. Folds are
//! cumulative, so the controller diffs consecutive folds to get an
//! interval profile; nothing is ever reset, which is what makes the
//! scheme lossless under concurrency (the stress tests assert exact
//! totals).
//!
//! Key-frequency sampling for the Zipf skew estimate is the sequential
//! profiler's own [`SkewWindow`], one per stripe under an uncontended
//! per-lane mutex; completed windows publish to one shared atomic cell,
//! last writer wins. With a single lane the published sequence is
//! bit-identical to `WorkloadProfiler::observe_queries`.

use crate::metrics::Metrics;
use crate::profiler::{ProfilerConfig, SkewWindow};
use dido_kvstore::ClassStats;
use dido_model::{metric_table, Counter, PipelineConfig, Query, QueryOp, WorkloadStats};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Memory-plane snapshot published by the control plane: cumulative
/// expiry counters plus per-size-class occupancy gauges. Like the skew
/// cell this folds by last value — the controller publishes a fresh
/// snapshot each sweep tick and readers see the most recent one; the
/// data plane never touches it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryFold {
    /// Objects expired in-band on the lookup path (cumulative).
    pub expired_lazy: u64,
    /// Objects freed by whole-segment reclamation (cumulative).
    pub expired_proactive: u64,
    /// TTL segments reclaimed as a unit (cumulative).
    pub segments_reclaimed: u64,
    /// Sealed TTL segments awaiting expiry (gauge).
    pub sealed_segments: u64,
    /// Per-class occupancy / free-slot / fragmentation gauges.
    pub classes: Vec<ClassStats>,
}

metric_table! {
    /// One dispatcher lane's counters.
    struct LaneCounters;
    /// A cumulative fold of every lane, taken at one instant.
    ///
    /// Subtract two folds (`delta`) to profile the interval between
    /// them; convert a delta to [`WorkloadStats`] with
    /// [`StatsFold::workload_stats`].
    pub struct StatsFold;

    /// Batches processed.
    batches: Counter,
    /// Queries observed.
    queries: Counter,
    /// GET queries observed.
    gets: Counter,
    /// DELETE queries observed.
    deletes: Counter,
    /// Total key bytes across all queries.
    key_bytes: Counter,
    /// Total value bytes across SET queries.
    set_value_bytes: Counter,
    /// GET queries that resolved to an object.
    hits: Counter,
    /// Total value bytes returned by those hits.
    hit_value_bytes: Counter,
    /// Wall time lanes spent executing batches, ns ([`crate::ServingCore`]
    /// only). Lanes run concurrently, so a fold's sum is lane-time, not
    /// node time; see [`Metrics::busy_ns`].
    lane_busy_ns: Counter,
    /// Batches the simulated executor applied work stealing to
    /// ([`crate::DidoSystem`] only).
    sim_steals: Counter,
    /// Wavefront items the simulated executor moved between processors.
    sim_stolen_items: Counter,
}

metric_table! {
    /// Control-plane counters: bumped by the planner and the
    /// controller's resize and sweep steps, never by a dispatcher.
    pub(crate) struct ControlCounters;
    /// Snapshot of the control plane's counters.
    pub struct ControlFold;

    /// Cost-model runs (one per >10 %-drift tick or batch).
    model_runs: Counter,
    /// Configurations the planner published for the node: runs whose
    /// choice differed from the active one.
    adaptions: Counter,
    /// Completed live shard resizes (settled migrations).
    resizes: Counter,
    /// Memory-plane sweep ticks executed.
    sweeps: Counter,
}

/// One dispatcher lane: its counters, its key-frequency window, and how
/// many batches it ran under each configuration.
#[derive(Debug, Default)]
struct Lane {
    counters: LaneCounters,
    skew: Mutex<SkewWindow>,
    /// A handful of entries at most, compared by `Eq`; grows only when
    /// the lane first sees a configuration.
    configs: Mutex<Vec<(PipelineConfig, u64)>>,
}

/// `counts[config] += n`, appending the entry on first sight.
fn bump_config(counts: &mut Vec<(PipelineConfig, u64)>, config: PipelineConfig, n: u64) {
    match counts.iter_mut().find(|(c, _)| *c == config) {
        Some((_, count)) => *count += n,
        None => counts.push((config, n)),
    }
}

impl StatsFold {
    /// The interval profile as [`WorkloadStats`], mirroring the
    /// simulator's per-batch accounting: `avg_value_size` weights SET
    /// payloads against resolved-GET payloads (the executor's GET-hit
    /// correction), `zipf_skew` is supplied by the caller from the skew
    /// cell, and `batch_size` is the interval's query count.
    #[must_use]
    pub fn workload_stats(&self, zipf_skew: f64) -> WorkloadStats {
        let n = self.queries as f64;
        let sets = self.queries - self.gets - self.deletes;
        let value_weight = sets + self.hits;
        WorkloadStats {
            get_ratio: if self.queries == 0 { 0.0 } else { self.gets as f64 / n },
            delete_ratio: if self.queries == 0 { 0.0 } else { self.deletes as f64 / n },
            avg_key_size: if self.queries == 0 { 0.0 } else { self.key_bytes as f64 / n },
            avg_value_size: if value_weight == 0 {
                0.0
            } else {
                (self.set_value_bytes + self.hit_value_bytes) as f64 / value_weight as f64
            },
            zipf_skew,
            batch_size: self.queries as usize,
        }
    }
}

/// Striped accumulators: one lane per dispatcher, one shared skew
/// estimate, the control plane's counters and memory snapshot.
#[derive(Debug)]
pub struct StripedStats {
    cfg: ProfilerConfig,
    lanes: Vec<Lane>,
    /// Latest completed-window skew estimate, as `f64` bits.
    skew_bits: AtomicU64,
    /// Latest memory-plane snapshot (last writer wins).
    memory: Mutex<MemoryFold>,
    pub(crate) control: ControlCounters,
}

impl StripedStats {
    /// Accumulators with `lanes` stripes (at least one).
    #[must_use]
    pub fn new(lanes: usize, cfg: ProfilerConfig) -> StripedStats {
        StripedStats {
            cfg,
            lanes: (0..lanes.max(1)).map(|_| Lane::default()).collect(),
            skew_bits: AtomicU64::new(0f64.to_bits()),
            memory: Mutex::new(MemoryFold::default()),
            control: ControlCounters::default(),
        }
    }

    /// Number of stripes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn lane(&self, lane: usize) -> &Lane {
        &self.lanes[lane % self.lanes.len()]
    }

    /// Observe one batch on `lane` (wrapped into range): fold the batch
    /// counters in and advance the lane's frequency-sampling window.
    /// `n_keys` is asked for the live key count only when a window
    /// completes.
    pub fn observe(&self, lane: usize, queries: &[Query], n_keys: impl Fn() -> u64) {
        let lane = self.lane(lane);
        let mut gets = 0u64;
        let mut deletes = 0u64;
        let mut key_bytes = 0u64;
        let mut set_value_bytes = 0u64;
        for q in queries {
            key_bytes += q.key.len() as u64;
            match q.op {
                QueryOp::Get => gets += 1,
                QueryOp::Delete => deletes += 1,
                QueryOp::Set => set_value_bytes += q.value.len() as u64,
            }
        }
        lane.counters.queries.add(queries.len() as u64);
        lane.counters.gets.add(gets);
        lane.counters.deletes.add(deletes);
        lane.counters.key_bytes.add(key_bytes);
        lane.counters.set_value_bytes.add(set_value_bytes);

        if let Some(skew) = lane.skew.lock().observe(&self.cfg, queries, n_keys) {
            self.skew_bits.store(skew.to_bits(), Ordering::Relaxed);
        }
    }

    /// Fold an executed batch's outcome into `lane`: the configuration
    /// it ran under, its GET hits, and the wall time it took (0 where
    /// time is virtual). Touches only the lane's own cells.
    pub fn record_batch(
        &self,
        lane: usize,
        config: PipelineConfig,
        hits: u64,
        hit_value_bytes: u64,
        busy_ns: u64,
    ) {
        let lane = self.lane(lane);
        lane.counters.batches.add(1);
        lane.counters.hits.add(hits);
        lane.counters.hit_value_bytes.add(hit_value_bytes);
        lane.counters.lane_busy_ns.add(busy_ns);
        bump_config(&mut lane.configs.lock(), config, 1);
    }

    /// Record a simulated-executor steal outcome (`items` wavefront
    /// items moved between processors in one batch).
    pub(crate) fn record_sim_steal(&self, lane: usize, items: u64) {
        let lane = self.lane(lane);
        lane.counters.sim_steals.add(1);
        lane.counters.sim_stolen_items.add(items);
    }

    /// Latest completed-window skew estimate (0 until a window fills).
    #[must_use]
    pub fn skew(&self) -> f64 {
        f64::from_bits(self.skew_bits.load(Ordering::Relaxed))
    }

    /// Publish a fresh memory-plane snapshot (controller sweep tick).
    pub fn publish_memory(&self, fold: MemoryFold) {
        *self.memory.lock() = fold;
    }

    /// The most recently published memory-plane snapshot.
    #[must_use]
    pub fn memory(&self) -> MemoryFold {
        self.memory.lock().clone()
    }

    /// Cumulative fold across all stripes.
    #[must_use]
    pub fn fold(&self) -> StatsFold {
        let mut f = StatsFold::default();
        for lane in &self.lanes {
            f.merge(&lane.counters.snapshot());
        }
        f
    }

    /// Wall time of the lane that spent longest executing batches, ns:
    /// the node was busy at least this long, so `queries / this` is the
    /// node's rate however many lanes ran beside it.
    #[must_use]
    pub(crate) fn busiest_lane_ns(&self) -> u64 {
        let busy = |lane: &Lane| lane.counters.lane_busy_ns.get();
        self.lanes.iter().map(busy).max().unwrap_or(0)
    }

    /// The node's metrics, assembled now from the lanes, the control
    /// counters and the memory snapshot. `busy_ns` is the owner's
    /// notion of node busy time (see [`Metrics::busy_ns`]).
    pub(crate) fn metrics(&self, busy_ns: f64) -> Metrics {
        let mut configs = Vec::new();
        for lane in &self.lanes {
            for &(config, n) in lane.configs.lock().iter() {
                bump_config(&mut configs, config, n);
            }
        }
        Metrics {
            work: self.fold(),
            busy_ns,
            control: self.control.snapshot(),
            memory: self.memory(),
            configs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::WorkloadProfiler;
    use dido_workload::{WorkloadGen, WorkloadSpec};

    #[test]
    fn fold_matches_batch_counters() {
        let s = StripedStats::new(2, ProfilerConfig::default());
        let spec = WorkloadSpec::from_label("K16-G95-U").unwrap();
        let mut g = WorkloadGen::new(spec, 10_000, 1);
        let a = g.batch(1000);
        let b = g.batch(500);
        s.observe(0, &a, || 10_000);
        s.observe(1, &b, || 10_000);
        s.record_batch(1, PipelineConfig::mega_kv(), 42, 42 * 64, 7);
        let f = s.fold();
        assert_eq!(f.queries, 1500);
        let gets = a.iter().chain(&b).filter(|q| q.op == QueryOp::Get).count() as u64;
        assert_eq!(f.gets, gets);
        assert_eq!(f.hits, 42);
        let d = f.delta(&f);
        assert_eq!(d, StatsFold::default());
    }

    #[test]
    fn metrics_view_folds_lanes_and_merges_config_counts() {
        let s = StripedStats::new(2, ProfilerConfig::default());
        let (mega, cpu) = (PipelineConfig::mega_kv(), PipelineConfig::cpu_only());
        s.record_batch(0, mega, 1, 8, 100);
        s.record_batch(0, cpu, 0, 0, 50);
        s.record_batch(1, cpu, 2, 16, 400);
        s.record_batch(3, cpu, 0, 0, 10); // lanes wrap: 3 is lane 1
        s.record_sim_steal(0, 128);
        s.control.adaptions.add(2);
        let m = s.metrics(s.busiest_lane_ns() as f64);
        assert_eq!(m.work.batches, 4);
        assert_eq!((m.work.hits, m.work.hit_value_bytes), (3, 24));
        assert_eq!((m.work.sim_steals, m.work.sim_stolen_items), (1, 128));
        assert_eq!(m.work.lane_busy_ns, 560, "the fold sums lane time");
        assert_eq!(m.busy_ns, 410.0, "node busy time is the busiest lane's");
        assert_eq!(m.configs, [(mega, 1), (cpu, 3)]);
        assert_eq!(m.control.adaptions, 2);
    }

    #[test]
    fn single_lane_skew_matches_sequential_profiler() {
        let cfg = ProfilerConfig {
            skew_window: 2_048,
            skew_sample_rate: 2,
            ..ProfilerConfig::default()
        };
        let s = StripedStats::new(1, cfg);
        let mut p = WorkloadProfiler::new(cfg);
        let spec = WorkloadSpec::from_label("K8-G100-S").unwrap();
        let mut g = WorkloadGen::new(spec, 50_000, 7);
        for _ in 0..6 {
            let batch = g.batch(4_096);
            s.observe(0, &batch, || 50_000);
            p.observe_queries(&batch, 50_000);
            assert_eq!(s.skew().to_bits(), p.skew().to_bits());
        }
        assert!(s.skew() > 0.5, "Zipf stream must register skew");
    }

    #[test]
    fn delta_stats_mirror_the_interval() {
        let s = StripedStats::new(1, ProfilerConfig::default());
        let spec = WorkloadSpec::from_label("K16-G50-U").unwrap();
        let mut g = WorkloadGen::new(spec, 10_000, 3);
        s.observe(0, &g.batch(2000), || 10_000);
        let before = s.fold();
        let batch = g.batch(1000);
        s.observe(0, &batch, || 10_000);
        let stats = s.fold().delta(&before).workload_stats(0.25);
        assert_eq!(stats.batch_size, 1000);
        let gets = batch.iter().filter(|q| q.op == QueryOp::Get).count();
        assert!((stats.get_ratio - gets as f64 / 1000.0).abs() < 1e-12);
        assert!((stats.zipf_skew - 0.25).abs() < 1e-12);
        assert!(stats.avg_key_size > 0.0);
    }
}
