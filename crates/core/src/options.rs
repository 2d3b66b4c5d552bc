//! What a DIDO node is built from: [`DidoOptions`], and the two rules
//! that turn them into sizes — the cache-to-store ratio and the
//! per-stage interval.

use crate::profiler::ProfilerConfig;
use dido_apu_sim::HwSpec;
use dido_model::ConfigEnumerator;
use dido_pipeline::TestbedOptions;

/// Construction options for a DIDO node.
#[derive(Debug, Clone, Copy)]
pub struct DidoOptions {
    /// Hardware profile (defaults to the Kaveri APU).
    pub hw: HwSpec,
    /// Testbed sizing (store bytes, seed, cache scaling).
    pub testbed: TestbedOptions,
    /// End-to-end latency budget, ns (paper default 1,000 µs).
    pub latency_budget_ns: f64,
    /// Profiler thresholds.
    pub profiler: ProfilerConfig,
    /// Constrain the configuration search space (ablations).
    pub enumerator: ConfigEnumerator,
    /// Use the greedy search instead of the exhaustive sweep
    /// (extension; the paper searches exhaustively).
    pub greedy_search: bool,
}

impl Default for DidoOptions {
    fn default() -> DidoOptions {
        DidoOptions {
            hw: HwSpec::kaveri_apu(),
            testbed: TestbedOptions::default(),
            latency_budget_ns: 1_000_000.0,
            profiler: ProfilerConfig::default(),
            enumerator: ConfigEnumerator::default(),
            greedy_search: false,
        }
    }
}

/// CPU and GPU cache-filter bytes for one of `shards` equal slices of
/// `testbed` on `hw` (`shards == 1`: the whole node). The one place the
/// cache-to-store ratio is applied — engines are built with it and the
/// cost model plans against it.
#[must_use]
pub fn scaled_caches(testbed: &TestbedOptions, hw: &HwSpec, shards: usize) -> (u64, u64) {
    let ratio = if testbed.scale_caches {
        (testbed.store_bytes as f64 / hw.mem.shared_bytes as f64).min(1.0)
    } else {
        1.0
    };
    let slice =
        |bytes: u64, floor: u64| ((bytes as f64 * ratio) as u64 / shards.max(1) as u64).max(floor);
    (
        slice(hw.cpu.cache_bytes, 8 * 1024),
        slice(hw.gpu.cache_bytes, 2 * 1024),
    )
}

/// Per-stage interval implied by an end-to-end latency budget. With the
/// paper's periodical scheduling a query crosses up to three pipeline
/// stages plus queueing, so the per-stage cap is ~30 % of the budget
/// (1,000 µs budget → the 300 µs per-stage cap used in the paper's
/// Figure 4).
#[must_use]
pub fn stage_interval_ns(latency_budget_ns: f64) -> f64 {
    latency_budget_ns * 0.3
}
