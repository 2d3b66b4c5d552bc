//! The node's recording substrate: striped (per-dispatcher) workload
//! and batch counters and the control plane's counters.
//! [`crate::Metrics`] is a read-side view assembled from these on
//! demand; nothing is kept twice.
//!
//! The sequential profiler owns a `&mut WorkloadProfiler` and folds each
//! batch in-line; with N dispatchers calling `process_batch(&self)`
//! concurrently that would serialize the data plane on profiling. Instead
//! each dispatcher lane owns a *stripe* of monotonic counters (one
//! relaxed add per counter per batch, from the [`BatchTally`] the stage
//! loop hands back) and readers fold all stripes by kind. Folds are
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

use crate::metrics::{MemoryFold, Metrics};
use crate::profiler::{ProfilerConfig, SkewWindow};
use dido_model::{metric_table, BatchTally, Counter, PipelineConfig, Query};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

metric_table! {
    /// One dispatcher lane's counters.
    struct LaneCounters;
    /// A cumulative fold of every lane, taken at one instant.
    ///
    /// Subtract two folds (`delta`) to profile the interval between
    /// them; [`StatsFold::tally`] is the delta's workload half.
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
    /// Batches the simulated executor applied work stealing to (the
    /// reproduction's sequential system only).
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
    /// The fold's workload counters: the sum of every batch tally
    /// recorded into it.
    #[must_use]
    pub fn tally(&self) -> BatchTally {
        BatchTally {
            queries: self.queries,
            gets: self.gets,
            deletes: self.deletes,
            key_bytes: self.key_bytes,
            set_value_bytes: self.set_value_bytes,
            hits: self.hits,
            hit_value_bytes: self.hit_value_bytes,
        }
    }
}

/// Striped accumulators: one lane per dispatcher, one shared skew
/// estimate, the control plane's counters.
#[derive(Debug)]
pub struct StripedStats {
    cfg: ProfilerConfig,
    lanes: Vec<Lane>,
    /// Latest completed-window skew estimate, as `f64` bits.
    skew_bits: AtomicU64,
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

    /// Advance `lane`'s (wrapped into range) frequency-sampling window
    /// over a batch's keys — before they move into the engine. `n_keys`
    /// is asked for the live key count only when a window completes.
    pub fn observe(&self, lane: usize, queries: &[Query], n_keys: impl Fn() -> u64) {
        let mut window = self.lane(lane).skew.lock();
        if let Some(skew) = window.observe(&self.cfg, queries, n_keys) {
            self.skew_bits.store(skew.to_bits(), Ordering::Relaxed);
        }
    }

    /// Fold one executed batch into `lane`: what it did, the
    /// configuration it ran under, and the wall time it took (0 where
    /// time is virtual). The whole tally lands in one step after the
    /// batch, so a concurrent fold can split a batch's queries from its
    /// hits only between these adjacent adds, never across the engine
    /// call. Touches only the lane's own cells.
    pub fn record(&self, lane: usize, config: PipelineConfig, tally: &BatchTally, busy_ns: u64) {
        let lane = self.lane(lane);
        let c = &lane.counters;
        c.batches.add(1);
        c.queries.add(tally.queries);
        c.gets.add(tally.gets);
        c.deletes.add(tally.deletes);
        c.key_bytes.add(tally.key_bytes);
        c.set_value_bytes.add(tally.set_value_bytes);
        c.hits.add(tally.hits);
        c.hit_value_bytes.add(tally.hit_value_bytes);
        c.lane_busy_ns.add(busy_ns);
        bump_config(&mut lane.configs.lock(), config, 1);
    }

    /// Record a simulated-executor steal outcome (`items` wavefront
    /// items moved between processors in one batch).
    pub fn record_sim_steal(&self, lane: usize, items: u64) {
        let lane = self.lane(lane);
        lane.counters.sim_steals.add(1);
        lane.counters.sim_stolen_items.add(items);
    }

    /// Latest completed-window skew estimate (0 until a window fills).
    #[must_use]
    pub fn skew(&self) -> f64 {
        f64::from_bits(self.skew_bits.load(Ordering::Relaxed))
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

    /// The node's metrics, assembled now from the lanes and the control
    /// counters; the memory plane is left empty for an owner that has
    /// one to fill in. `busy_ns` is the owner's notion of node busy time
    /// (see [`Metrics::busy_ns`]).
    #[must_use]
    pub fn metrics(&self, busy_ns: f64) -> Metrics {
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
            memory: MemoryFold::default(),
            configs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::WorkloadProfiler;
    use dido_model::QueryOp;
    use dido_workload::{WorkloadGen, WorkloadSpec};

    /// What `run_batch` would hand back for `queries` if every GET hit
    /// a `value_len`-byte value.
    fn tally_of(queries: &[Query], value_len: u64) -> BatchTally {
        let mut t = BatchTally::default();
        for q in queries {
            t.count_query(q);
        }
        t.hits = t.gets;
        t.hit_value_bytes = t.gets * value_len;
        t
    }

    #[test]
    fn a_lanes_fold_is_the_sum_of_its_batch_tallies() {
        let s = StripedStats::new(2, ProfilerConfig::default());
        let spec = WorkloadSpec::from_label("K16-G95-U").unwrap();
        let mut g = WorkloadGen::new(spec, 10_000, 1);
        let mut sum = [BatchTally::default(); 2];
        for (i, n) in [1000, 500, 64, 1, 333].into_iter().enumerate() {
            let t = tally_of(&g.batch(n), 64);
            s.record(i % 2, PipelineConfig::mega_kv(), &t, 7);
            sum[i % 2].merge(&t);
        }
        for (lane, sum) in s.lanes.iter().zip(sum) {
            assert_eq!(lane.counters.snapshot().tally(), sum);
        }
        let f = s.fold();
        let mut total = sum[0];
        total.merge(&sum[1]);
        assert_eq!(f.tally(), total);
        assert_eq!((f.batches, f.queries, f.lane_busy_ns), (5, 1898, 35));
        assert!(f.hits > 0 && f.hits == f.gets);
        assert_eq!(f.delta(&f), StatsFold::default());
    }

    #[test]
    fn metrics_view_folds_lanes_and_merges_config_counts() {
        let s = StripedStats::new(2, ProfilerConfig::default());
        let (mega, cpu) = (PipelineConfig::mega_kv(), PipelineConfig::cpu_only());
        let hits = |hits, hit_value_bytes| BatchTally {
            hits,
            hit_value_bytes,
            ..BatchTally::default()
        };
        s.record(0, mega, &hits(1, 8), 100);
        s.record(0, cpu, &hits(0, 0), 50);
        s.record(1, cpu, &hits(2, 16), 400);
        s.record(3, cpu, &hits(0, 0), 10); // lanes wrap: 3 is lane 1
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
        let config = PipelineConfig::mega_kv();
        s.record(0, config, &tally_of(&g.batch(2000), 64), 0);
        let before = s.fold();
        let batch = g.batch(1000);
        s.record(0, config, &tally_of(&batch, 64), 0);
        let stats = s.fold().delta(&before).tally().workload_stats(0.25);
        assert_eq!(stats.batch_size, 1000);
        let gets = batch.iter().filter(|q| q.op == QueryOp::Get).count();
        assert!((stats.get_ratio - gets as f64 / 1000.0).abs() < 1e-12);
        assert!((stats.zipf_skew - 0.25).abs() < 1e-12);
        assert!(stats.avg_key_size > 0.0);
        assert!((stats.avg_value_size - 64.0).abs() < 1e-12);
    }
}
