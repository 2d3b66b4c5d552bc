//! The node's adapt decision (paper §III-A, Figure 7), written once:
//! one Workload Profiler feeding one cost model that picks one pipeline
//! configuration for the node. [`crate::ServingCore`] asks per controller
//! tick, the reproduction's sequential system per batch under its serial
//! mutex; each keeps only what is its own (the stripe fold and its
//! delta; the simulator and its clock).

use crate::options::{scaled_caches, stage_interval_ns, DidoOptions};
use crate::profiler::WorkloadProfiler;
use crate::striped::StripedStats;
use dido_cost_model::{CostModel, ModelInputs};
use dido_model::{ConfigCell, WorkloadStats};
use dido_pipeline::KvEngine;
use parking_lot::Mutex;

/// What the cost model is told about the index and store it plans for.
#[derive(Debug, Clone, Copy)]
pub struct IndexShape {
    n_keys: u64,
    avg_insert_buckets: f64,
    avg_delete_buckets: f64,
}

impl IndexShape {
    /// `n_keys` live objects indexed by `engines`, whose measured bucket
    /// averages are taken as their mean (exact for one engine).
    #[must_use]
    pub fn of<'a>(n_keys: usize, engines: impl IntoIterator<Item = &'a KvEngine>) -> Self {
        let (mut n, mut insert, mut delete) = (0.0, 0.0, 0.0);
        for e in engines {
            n += 1.0;
            insert += e.index.avg_insert_buckets();
            delete += e.index.avg_delete_buckets();
        }
        IndexShape {
            n_keys: n_keys as u64,
            avg_insert_buckets: insert / n,
            avg_delete_buckets: delete / n,
        }
    }
}

/// Who chooses the node's pipeline configuration, and from which inputs.
pub struct Planner {
    model: CostModel,
    options: DidoOptions,
    /// The node's scaled CPU and GPU cache bytes.
    caches: (u64, u64),
    profiler: Mutex<WorkloadProfiler>,
}

impl Planner {
    /// A planner for a node built from `options`.
    #[must_use]
    pub fn new(options: DidoOptions) -> Planner {
        Planner {
            model: CostModel::new(options.hw),
            caches: scaled_caches(&options.testbed, &options.hw, 1),
            profiler: Mutex::new(WorkloadProfiler::new(options.profiler)),
            options,
        }
    }

    /// Per-stage interval implied by the latency budget.
    #[must_use]
    pub fn stage_interval_ns(&self) -> f64 {
        stage_interval_ns(self.options.latency_budget_ns)
    }

    /// The cost model's inputs for `stats` over `index`.
    #[must_use]
    pub fn model_inputs(&self, stats: WorkloadStats, index: IndexShape) -> ModelInputs {
        let (cpu_cache_bytes, gpu_cache_bytes) = self.caches;
        ModelInputs {
            stats,
            n_keys: index.n_keys,
            avg_insert_buckets: index.avg_insert_buckets,
            avg_delete_buckets: index.avg_delete_buckets,
            interval_ns: self.stage_interval_ns(),
            cpu_cache_bytes,
            gpu_cache_bytes,
        }
    }

    /// Reset the profiler baseline so the next [`Planner::replan`] runs
    /// the cost model regardless of drift.
    pub fn force_readapt(&self) {
        self.profiler.lock().force_readapt();
    }

    /// One adapt decision: fold `raw` (a batch's or an interval's
    /// tally, carrying the skew estimate) into the profile and, if the
    /// workload drifted past the 10 % threshold, search the configuration
    /// space over `index` (asked for only then) and publish the choice
    /// into `cell` when it differs from the active one, counting the run
    /// and the publish on `stripes`' control counters. Returns whether it
    /// published. Callers serialise their calls.
    pub fn replan(
        &self,
        raw: WorkloadStats,
        index: impl FnOnce() -> IndexShape,
        cell: &ConfigCell,
        stripes: &StripedStats,
    ) -> bool {
        let stats = {
            let mut profiler = self.profiler.lock();
            let stats = profiler.finish_batch(raw);
            if stats.batch_size == 0 || !profiler.should_readapt(stats) {
                return false;
            }
            stats
        };
        stripes.control.model_runs.add(1);
        let inputs = self.model_inputs(stats, index());
        let prediction = if self.options.greedy_search {
            self.model.greedy_config(&inputs)
        } else {
            self.model.optimal_config(&inputs, self.options.enumerator)
        };
        if prediction.config == cell.load().0 {
            return false;
        }
        cell.publish(prediction.config);
        stripes.control.adaptions.add(1);
        true
    }
}
