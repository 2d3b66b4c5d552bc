//! The Workload Profiler (paper §III-A, §IV-B).
//!
//! Counts a few per-batch statistics (GET/SET ratio, average key/value
//! size — "implemented with only a few counters"), samples key
//! frequencies over a window to estimate the Zipf skewness, and decides
//! when the workload has changed enough (the 10 % rule) to re-run the
//! cost model.

use dido_cost_model::estimate_skew;
use dido_hashtable::hash64;
use dido_model::{Query, WorkloadStats};
use std::collections::HashMap;

/// Profiler configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProfilerConfig {
    /// Re-adaption threshold on workload-counter change ("the upper
    /// limit for the alteration of workload counters is set to 10%").
    pub change_threshold: f64,
    /// Queries per skew-sampling window.
    pub skew_window: usize,
    /// Sample one in `skew_sample_rate` queries for the frequency map
    /// (keeps the profiler lightweight).
    pub skew_sample_rate: usize,
}

impl Default for ProfilerConfig {
    fn default() -> ProfilerConfig {
        ProfilerConfig {
            change_threshold: 0.10,
            skew_window: 16_384,
            skew_sample_rate: 4,
        }
    }
}

/// Key-frequency sampling window: counts one in
/// [`ProfilerConfig::skew_sample_rate`] keys and estimates the Zipf skew
/// every [`ProfilerConfig::skew_window`] samples. The sequential
/// profiler owns one; the serving path's striped accumulators own one
/// per dispatcher lane.
#[derive(Debug, Default)]
pub(crate) struct SkewWindow {
    freqs: HashMap<u64, u32>,
    window_seen: usize,
    sample_tick: usize,
}

impl SkewWindow {
    /// Feed a batch's keys into the sampler. Returns the estimate of
    /// the last window the batch completed, if it completed one;
    /// `n_keys` is the live key count the estimate is taken against,
    /// asked for only when a window completes (counting keys takes the
    /// serving engine's shard-set lock, which no other batch needs to).
    pub(crate) fn observe(
        &mut self,
        cfg: &ProfilerConfig,
        queries: &[Query],
        n_keys: impl Fn() -> u64,
    ) -> Option<f64> {
        let mut completed = None;
        for q in queries {
            self.sample_tick += 1;
            if !self.sample_tick.is_multiple_of(cfg.skew_sample_rate) {
                continue;
            }
            *self.freqs.entry(hash64(&q.key)).or_insert(0) += 1;
            self.window_seen += 1;
            if self.window_seen >= cfg.skew_window {
                let freqs: Vec<u32> = self.freqs.values().copied().collect();
                completed = Some(estimate_skew(&freqs, n_keys().max(1)));
                self.freqs.clear();
                self.window_seen = 0;
            }
        }
        completed
    }
}

/// Runtime workload profiler.
#[derive(Debug)]
pub struct WorkloadProfiler {
    cfg: ProfilerConfig,
    window: SkewWindow,
    current_skew: f64,
    /// The stats in force when the pipeline was last (re)configured.
    last_applied: Option<WorkloadStats>,
    /// Exponentially smoothed stats (new batches count 50 %).
    smoothed: Option<WorkloadStats>,
}

impl WorkloadProfiler {
    /// Profiler with the given configuration.
    #[must_use]
    pub fn new(cfg: ProfilerConfig) -> WorkloadProfiler {
        WorkloadProfiler {
            cfg,
            window: SkewWindow::default(),
            current_skew: 0.0,
            last_applied: None,
            smoothed: None,
        }
    }

    /// Current skewness estimate.
    #[must_use]
    pub fn skew(&self) -> f64 {
        self.current_skew
    }

    /// Feed the queries of a batch into the frequency sampler.
    pub fn observe_queries(&mut self, queries: &[Query], n_keys: u64) {
        if let Some(skew) = self.window.observe(&self.cfg, queries, || n_keys) {
            self.current_skew = skew;
        }
    }

    /// Fold a batch's raw counters into the smoothed profile and return
    /// the stats for decision-making. The skew estimate travels in
    /// `stats.zipf_skew` and is not smoothed.
    pub fn finish_batch(&mut self, stats: WorkloadStats) -> WorkloadStats {
        let blended = match self.smoothed {
            None => stats,
            Some(prev) => WorkloadStats {
                get_ratio: 0.5 * (prev.get_ratio + stats.get_ratio),
                delete_ratio: 0.5 * (prev.delete_ratio + stats.delete_ratio),
                avg_key_size: 0.5 * (prev.avg_key_size + stats.avg_key_size),
                avg_value_size: 0.5 * (prev.avg_value_size + stats.avg_value_size),
                zipf_skew: stats.zipf_skew,
                batch_size: stats.batch_size,
            },
        };
        self.smoothed = Some(blended);
        blended
    }

    /// Whether the workload has drifted beyond the threshold since the
    /// last applied configuration. A `true` return *commits* `stats` as
    /// the new baseline (callers re-run the cost model on `true`).
    pub fn should_readapt(&mut self, stats: WorkloadStats) -> bool {
        match self.last_applied {
            None => {
                self.last_applied = Some(stats);
                true
            }
            Some(prev) => {
                if stats.changed_significantly(&prev, self.cfg.change_threshold) {
                    self.last_applied = Some(stats);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reset the baseline so the next batch triggers re-adaption.
    pub fn force_readapt(&mut self) {
        self.last_applied = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_workload::{WorkloadGen, WorkloadSpec};

    fn stats(get: f64, key: f64, val: f64) -> WorkloadStats {
        WorkloadStats {
            get_ratio: get,
            delete_ratio: 0.0,
            avg_key_size: key,
            avg_value_size: val,
            zipf_skew: 0.0,
            batch_size: 1024,
        }
    }

    #[test]
    fn first_batch_always_readapts() {
        let mut p = WorkloadProfiler::new(ProfilerConfig::default());
        let s = p.finish_batch(stats(0.95, 16.0, 64.0));
        assert!(p.should_readapt(s));
        assert!(!p.should_readapt(s), "unchanged workload must not re-adapt");
    }

    #[test]
    fn small_drift_is_ignored_big_drift_triggers() {
        let mut p = WorkloadProfiler::new(ProfilerConfig::default());
        let base = p.finish_batch(stats(0.95, 16.0, 64.0));
        assert!(p.should_readapt(base));
        // 3-point GET drift: under the 10% rule.
        assert!(!p.should_readapt(stats(0.92, 16.0, 64.0)));
        // Workload swap: well over.
        assert!(p.should_readapt(stats(0.50, 8.0, 8.0)));
        // And the new baseline sticks.
        assert!(!p.should_readapt(stats(0.50, 8.0, 8.0)));
    }

    #[test]
    fn force_readapt_resets_baseline() {
        let mut p = WorkloadProfiler::new(ProfilerConfig::default());
        let s = stats(0.95, 16.0, 64.0);
        assert!(p.should_readapt(s));
        p.force_readapt();
        assert!(p.should_readapt(s));
    }

    #[test]
    fn skew_estimate_converges_on_zipf_stream() {
        let mut p = WorkloadProfiler::new(ProfilerConfig {
            skew_window: 4_096,
            skew_sample_rate: 1,
            ..ProfilerConfig::default()
        });
        let spec = WorkloadSpec::from_label("K8-G100-S").unwrap();
        let mut g = WorkloadGen::new(spec, 100_000, 9);
        for _ in 0..8 {
            let batch = g.batch(4_096);
            p.observe_queries(&batch, 100_000);
        }
        assert!(
            (p.skew() - 0.99).abs() < 0.25,
            "skew estimate {} should approach 0.99",
            p.skew()
        );
    }

    #[test]
    fn uniform_stream_estimates_low_skew() {
        let mut p = WorkloadProfiler::new(ProfilerConfig {
            skew_window: 4_096,
            skew_sample_rate: 1,
            ..ProfilerConfig::default()
        });
        let spec = WorkloadSpec::from_label("K8-G100-U").unwrap();
        let mut g = WorkloadGen::new(spec, 100_000, 9);
        for _ in 0..8 {
            let batch = g.batch(4_096);
            p.observe_queries(&batch, 100_000);
        }
        assert!(p.skew() < 0.3, "uniform skew {} should be near 0", p.skew());
    }

    #[test]
    fn smoothing_blends_consecutive_batches() {
        let mut p = WorkloadProfiler::new(ProfilerConfig::default());
        let _ = p.finish_batch(stats(1.0, 16.0, 64.0));
        let s = p.finish_batch(stats(0.5, 16.0, 64.0));
        assert!((s.get_ratio - 0.75).abs() < 1e-9);
    }
}
