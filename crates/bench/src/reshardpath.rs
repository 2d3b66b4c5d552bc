//! Live-resharding harness: steady-state throughput per shard count,
//! plus the serving dip while a live 1→4 resize migrates keys under
//! load.
//!
//! Dispatcher threads drive [`ServingCore::process_batch`] directly
//! (no TCP — the measurement target is the shard-map plane, and the
//! network front-end would only add jitter to the 100 ms dip windows).
//! Three measurements come out:
//!
//! * **Steady cells** — a fresh core preloaded at 1, 2 and 4 shards,
//!   hammered by `dispatchers` threads for a fixed span: the q/s each
//!   topology sustains when it isn't migrating.
//! * **Resize run** — a 1-shard core under the same load;
//!   [`ServingCore::resize`]`(4)` fires mid-run and the harness thread
//!   drains the donor while serving continues. Every batch completion
//!   is timestamped, the run is tiled into `window_ms` windows, and
//!   the worst window overlapping the migration is the dip.
//! * **Acceptance** — post-settle throughput over fresh-4-shard
//!   throughput. Live resharding must land within
//!   [`ACCEPT_THRESHOLD`] of a build that started at 4 shards, with
//!   zero keys dropped by the migration.
//!
//! Results serialize via [`ReshardReport::to_json`] for
//! `BENCH_reshard.json`.

use dido::{DidoOptions, ServingCore};
use dido_model::Query;
use dido_pipeline::TestbedOptions;
use dido_workload::{WorkloadGen, WorkloadSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Post-resize throughput must be at least this fraction of a fresh
/// build at the target shard count.
pub const ACCEPT_THRESHOLD: f64 = 0.9;

/// Shard counts measured as steady cells.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// GET-heavy so steady cells measure routing + probing, not eviction
/// churn (the store is preloaded to capacity; §V-A).
const WORKLOAD: &str = "K8-G95-U";

/// Pre-generated batches cycled per dispatcher thread, so generator
/// cost stays off the measured path.
const BATCH_POOL: usize = 48;

/// Harness knobs.
#[derive(Debug, Clone, Copy)]
pub struct ReshardOptions {
    /// Smoke mode: short spans, for CI.
    pub quick: bool,
    /// Workload generator seed.
    pub seed: u64,
    /// Object-store bytes (total; split across shards on resize).
    pub store_bytes: usize,
    /// Queries per batch.
    pub frame_queries: usize,
    /// Dispatcher threads (each drives its own profiling lane).
    pub dispatchers: usize,
    /// Measured span per steady cell, ms (after one warmup window).
    pub steady_ms: u64,
    /// Traffic before the live resize fires, ms.
    pub pre_ms: u64,
    /// Traffic after the migration settles, ms.
    pub post_ms: u64,
    /// Dip-window width, ms.
    pub window_ms: u64,
}

impl Default for ReshardOptions {
    fn default() -> ReshardOptions {
        ReshardOptions {
            quick: false,
            seed: 0xD1D0,
            store_bytes: 8 << 20,
            frame_queries: 64,
            dispatchers: 4,
            steady_ms: 2_000,
            pre_ms: 1_000,
            post_ms: 1_000,
            window_ms: 100,
        }
    }
}

impl ReshardOptions {
    /// CI smoke configuration: a few windows per span.
    #[must_use]
    pub fn quick() -> ReshardOptions {
        ReshardOptions {
            quick: true,
            store_bytes: 2 << 20,
            steady_ms: 400,
            pre_ms: 300,
            post_ms: 300,
            ..ReshardOptions::default()
        }
    }

    fn dido_options(&self) -> DidoOptions {
        DidoOptions {
            testbed: TestbedOptions {
                store_bytes: self.store_bytes,
                seed: self.seed,
                ..TestbedOptions::default()
            },
            ..DidoOptions::default()
        }
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec::from_label(WORKLOAD).expect("valid workload label")
    }
}

/// One steady-state measurement.
#[derive(Debug, Clone, Copy)]
pub struct ReshardCell {
    /// Shard count the core was built with.
    pub shards: usize,
    /// Sustained throughput, queries/sec.
    pub throughput_qps: f64,
}

/// The live 1→4 resize measurement.
#[derive(Debug, Clone, Copy)]
pub struct ResizeRun {
    /// Throughput before the resize fired, q/s.
    pub pre_qps: f64,
    /// Worst `window_ms` window overlapping the migration, q/s.
    pub worst_window_qps: f64,
    /// Throughput after the migration settled, q/s.
    pub post_qps: f64,
    /// Wall time of `ServingCore::resize` (begin to settle), ms.
    pub resize_ms: f64,
    /// Keys the migration worker dropped (must be 0).
    pub dropped: u64,
    /// Settled resizes the node counted (must be 1).
    pub resizes: u64,
}

/// Full harness output.
#[derive(Debug, Clone)]
pub struct ReshardReport {
    /// Options the run used.
    pub opts: ReshardOptions,
    /// Steady cells in [`SHARD_COUNTS`] order.
    pub cells: Vec<ReshardCell>,
    /// The live-resize run.
    pub resize: ResizeRun,
}

impl ReshardReport {
    /// Steady throughput of the fresh build at `shards`.
    #[must_use]
    pub fn steady_qps(&self, shards: usize) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.shards == shards)
            .map(|c| c.throughput_qps)
    }

    /// Post-resize over fresh-4-shard throughput.
    #[must_use]
    pub fn acceptance_ratio(&self) -> f64 {
        match self.steady_qps(4) {
            Some(fresh) if fresh > 0.0 => self.resize.post_qps / fresh,
            _ => 0.0,
        }
    }

    /// Worst migration window over pre-resize throughput (how deep the
    /// dip went; reported, not gated).
    #[must_use]
    pub fn dip_ratio(&self) -> f64 {
        if self.resize.pre_qps > 0.0 {
            self.resize.worst_window_qps / self.resize.pre_qps
        } else {
            0.0
        }
    }

    /// Acceptance: post-resize throughput within the threshold of the
    /// fresh build, nothing dropped, exactly one settled resize.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.acceptance_ratio() >= ACCEPT_THRESHOLD
            && self.resize.dropped == 0
            && self.resize.resizes == 1
    }

    /// Serialize as JSON (hand-rolled; the build has no serde_json).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        s.push_str("  \"bench\": \"reshardpath\",\n");
        s.push_str(&format!("  \"quick\": {},\n", self.opts.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.opts.seed));
        s.push_str(&format!("  \"workload\": \"{WORKLOAD}\",\n"));
        s.push_str(&format!("  \"dispatchers\": {},\n", self.opts.dispatchers));
        s.push_str(&format!("  \"window_ms\": {},\n", self.opts.window_ms));
        s.push_str("  \"acceptance\": {\n");
        s.push_str(
            "    \"metric\": \"post-resize throughput over a fresh 4-shard \
             build, under live 1->4 resharding\",\n",
        );
        s.push_str(&format!("    \"threshold\": {ACCEPT_THRESHOLD},\n"));
        s.push_str(&format!("    \"ratio\": {:.3},\n", self.acceptance_ratio()));
        s.push_str(&format!("    \"dropped\": {},\n", self.resize.dropped));
        s.push_str(&format!("    \"pass\": {}\n", self.pass()));
        s.push_str("  },\n");
        s.push_str("  \"resize\": {\n");
        s.push_str(&format!("    \"pre_qps\": {:.1},\n", self.resize.pre_qps));
        s.push_str(&format!(
            "    \"worst_window_qps\": {:.1},\n",
            self.resize.worst_window_qps
        ));
        s.push_str(&format!("    \"post_qps\": {:.1},\n", self.resize.post_qps));
        s.push_str(&format!("    \"dip_ratio\": {:.3},\n", self.dip_ratio()));
        s.push_str(&format!(
            "    \"resize_ms\": {:.3},\n",
            self.resize.resize_ms
        ));
        s.push_str(&format!("    \"resizes\": {}\n", self.resize.resizes));
        s.push_str("  },\n");
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"shards\": {}, \"throughput_qps\": {:.1}}}{}\n",
                c.shards,
                c.throughput_qps,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Per-thread batch pools, generated off the measured path and cycled
/// by each dispatcher.
fn build_pools(opts: &ReshardOptions, generator: &WorkloadGen) -> Vec<Vec<Vec<Query>>> {
    (0..opts.dispatchers)
        .map(|t| {
            // Re-seed per thread so dispatchers don't replay identical
            // key sequences in lockstep.
            let mut g = WorkloadGen::new(
                *generator.spec(),
                generator.keyspace(),
                opts.seed ^ ((t as u64 + 1) << 21),
            );
            (0..BATCH_POOL)
                .map(|_| g.batch(opts.frame_queries))
                .collect()
        })
        .collect()
}

/// Timestamped batch completions from one dispatcher thread:
/// `(nanos since run start, queries in the batch)`.
type Events = Vec<(u64, u32)>;

/// Spawn `dispatchers` threads hammering `core` until `stop`, each
/// recording its completion events against the shared `t0`.
fn spawn_dispatchers(
    core: &Arc<ServingCore>,
    pools: Vec<Vec<Vec<Query>>>,
    stop: &Arc<AtomicBool>,
    barrier: &Arc<Barrier>,
    t0: Instant,
) -> Vec<std::thread::JoinHandle<Events>> {
    pools
        .into_iter()
        .enumerate()
        .map(|(lane, pool)| {
            let core = Arc::clone(core);
            let stop = Arc::clone(stop);
            let barrier = Arc::clone(barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut events: Events = Vec::with_capacity(4096);
                let mut next = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let batch = pool[next].clone();
                    next = (next + 1) % pool.len();
                    let n = batch.len() as u32;
                    let _ = core.process_batch(lane, batch);
                    events.push((t0.elapsed().as_nanos() as u64, n));
                }
                events
            })
        })
        .collect()
}

/// Queries completed in `[from_ns, to_ns)` as a rate, q/s.
fn qps_in(events: &Events, from_ns: u64, to_ns: u64) -> f64 {
    if to_ns <= from_ns {
        return 0.0;
    }
    let q: u64 = events
        .iter()
        .filter(|&&(t, _)| t >= from_ns && t < to_ns)
        .map(|&(_, n)| u64::from(n))
        .sum();
    q as f64 * 1e9 / (to_ns - from_ns) as f64
}

/// Measure one steady cell: a fresh preloaded core at `shards`, driven
/// for `steady_ms` after one warmup window.
pub fn run_steady(opts: &ReshardOptions, shards: usize) -> ReshardCell {
    let (core, generator) =
        ServingCore::preloaded(opts.spec(), shards, opts.dispatchers, opts.dido_options());
    let core = Arc::new(core);
    let pools = build_pools(opts, &generator);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(opts.dispatchers + 1));
    let t0 = Instant::now();
    let threads = spawn_dispatchers(&core, pools, &stop, &barrier, t0);
    barrier.wait();
    std::thread::sleep(Duration::from_millis(opts.window_ms + opts.steady_ms));
    stop.store(true, Ordering::Release);
    let mut events: Events = Vec::new();
    for t in threads {
        events.extend(t.join().expect("dispatcher thread"));
    }
    // Skip the first window (cold caches, thread ramp-up).
    let from = opts.window_ms * 1_000_000;
    let to = (opts.window_ms + opts.steady_ms) * 1_000_000;
    ReshardCell {
        shards,
        throughput_qps: qps_in(&events, from, to),
    }
}

/// The live-resize run: 1-shard core under load, `resize(4)`
/// mid-run, per-window throughput across the whole timeline.
pub fn run_resize(opts: &ReshardOptions) -> ResizeRun {
    let (core, generator) =
        ServingCore::preloaded(opts.spec(), 1, opts.dispatchers, opts.dido_options());
    let core = Arc::new(core);
    let pools = build_pools(opts, &generator);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(opts.dispatchers + 1));
    let t0 = Instant::now();
    let threads = spawn_dispatchers(&core, pools, &stop, &barrier, t0);
    barrier.wait();

    std::thread::sleep(Duration::from_millis(opts.window_ms + opts.pre_ms));
    let resize_start = t0.elapsed();
    core.resize(4).expect("resize settles");
    let settled = t0.elapsed();
    assert!(!core.is_migrating(), "settled when resize returns");
    std::thread::sleep(Duration::from_millis(opts.post_ms));
    stop.store(true, Ordering::Release);
    let run_end = t0.elapsed();

    let mut events: Events = Vec::new();
    for t in threads {
        events.extend(t.join().expect("dispatcher thread"));
    }

    let window_ns = opts.window_ms * 1_000_000;
    let resize_ns = resize_start.as_nanos() as u64;
    let settled_ns = settled.as_nanos() as u64;
    let end_ns = run_end.as_nanos() as u64;

    // Tile the run into windows; the dip is the worst complete window
    // that overlaps the migration span (the span may be shorter than a
    // single window — its window still counts).
    let mut worst = f64::INFINITY;
    let mut w = window_ns; // window 0 is warmup
    while w + window_ns <= end_ns {
        let (from, to) = (w, w + window_ns);
        if to > resize_ns && from <= settled_ns {
            worst = worst.min(qps_in(&events, from, to));
        }
        w += window_ns;
    }
    if !worst.is_finite() {
        worst = 0.0;
    }

    ResizeRun {
        pre_qps: qps_in(&events, window_ns, resize_ns),
        worst_window_qps: worst,
        post_qps: qps_in(&events, settled_ns, end_ns),
        resize_ms: (settled - resize_start).as_secs_f64() * 1e3,
        dropped: core.engine().migrate_dropped(),
        resizes: core.metrics().control.resizes,
    }
}

/// Run every steady cell plus the live-resize run. `progress` receives
/// each finished steady cell (for live printing).
pub fn run_reshardpath(
    opts: &ReshardOptions,
    mut progress: impl FnMut(&ReshardCell),
) -> ReshardReport {
    let mut cells = Vec::with_capacity(SHARD_COUNTS.len());
    for shards in SHARD_COUNTS {
        let cell = run_steady(opts, shards);
        progress(&cell);
        cells.push(cell);
    }
    let resize = run_resize(opts);
    ReshardReport {
        opts: *opts,
        cells,
        resize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReshardOptions {
        ReshardOptions {
            store_bytes: 1 << 20,
            dispatchers: 2,
            steady_ms: 60,
            pre_ms: 60,
            post_ms: 60,
            window_ms: 20,
            ..ReshardOptions::quick()
        }
    }

    #[test]
    fn steady_cell_measures_traffic() {
        let cell = run_steady(&tiny(), 2);
        assert_eq!(cell.shards, 2);
        assert!(cell.throughput_qps > 0.0, "no traffic measured");
    }

    #[test]
    fn resize_run_settles_and_drops_nothing() {
        let r = run_resize(&tiny());
        assert!(r.pre_qps > 0.0, "no pre-resize traffic");
        assert!(r.post_qps > 0.0, "no post-resize traffic");
        assert_eq!(r.dropped, 0);
        assert_eq!(r.resizes, 1);
        assert!(r.resize_ms >= 0.0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = ReshardReport {
            opts: ReshardOptions::quick(),
            cells: SHARD_COUNTS
                .iter()
                .map(|&shards| ReshardCell {
                    shards,
                    throughput_qps: 1e5 * shards as f64,
                })
                .collect(),
            resize: ResizeRun {
                pre_qps: 1e5,
                worst_window_qps: 7e4,
                post_qps: 3.9e5,
                resize_ms: 12.5,
                dropped: 0,
                resizes: 1,
            },
        };
        assert!((report.acceptance_ratio() - 0.975).abs() < 1e-9);
        assert!((report.dip_ratio() - 0.7).abs() < 1e-9);
        assert!(report.pass());
        let json = report.to_json();
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"worst_window_qps\": 70000.0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn pass_requires_no_drops_and_one_settle() {
        let mut report = ReshardReport {
            opts: ReshardOptions::quick(),
            cells: vec![ReshardCell {
                shards: 4,
                throughput_qps: 1e5,
            }],
            resize: ResizeRun {
                pre_qps: 1e5,
                worst_window_qps: 5e4,
                post_qps: 9.5e4,
                resize_ms: 1.0,
                dropped: 0,
                resizes: 1,
            },
        };
        assert!(report.pass());
        report.resize.dropped = 1;
        assert!(!report.pass());
        report.resize.dropped = 0;
        report.resize.resizes = 0;
        assert!(!report.pass());
        report.resize.resizes = 1;
        report.resize.post_qps = 5e4;
        assert!(!report.pass());
    }
}
