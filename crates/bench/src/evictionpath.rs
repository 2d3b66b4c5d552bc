//! Eviction-path harness: mixed-size + TTL-churn traffic at a memory
//! overload (working set ≫ store), measuring what the live memory
//! plane costs and what it reclaims.
//!
//! Dispatcher threads drive [`ServingCore::process_batch`] directly
//! (no TCP — the target is the store's expiry/eviction machinery).
//! Each repeat runs two cells back to back in the same process window
//! — the connpath noise protocol: on a 1-core microVM absolute numbers
//! swing wildly between runs, so only same-window pairs are compared
//! and the best repeat gates:
//!
//! * **Baseline cell** — the [`TtlChurnGen`] mixed-size stream with an
//!   all-immortal ladder: pure CLOCK-eviction churn, no expiry.
//! * **TTL cell** — the same stream with a live TTL ladder while the
//!   mock clock advances and [`ServingCore::sweep_tick`] fires every
//!   tick, so proactive segment reclaim races lazy expiry under load.
//!
//! Acceptance: TTL throughput ≥ [`THROUGHPUT_FLOOR`] × the same-window
//! baseline, RSS bounded over the TTL run (second-half peak within
//! [`RSS_GROWTH_LIMIT`] of the first half), and proactive reclaim ≥
//! [`PROACTIVE_FLOOR`] of all expirations (the lazy path is the
//! backstop, not the workhorse). Per-class occupancy and fragmentation
//! gauges land in the JSON as columns.
//!
//! Results serialize via [`EvictionReport::to_json`] for
//! `BENCH_evictionpath.json`.

use dido::{DidoOptions, MemoryFold, ServingCore};
use dido_kvstore::HEADER_SIZE;
use dido_model::{MockClock, Query, SharedClock};
use dido_pipeline::{EngineConfig, ShardedEngine, TestbedOptions};
use dido_workload::{Dataset, TtlChurnGen, WorkloadSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// TTL-cell throughput must reach this fraction of the same-window
/// no-TTL baseline.
pub const THROUGHPUT_FLOOR: f64 = 0.9;

/// Proactive (segment) reclaim must account for at least this share of
/// all expirations.
pub const PROACTIVE_FLOOR: f64 = 0.5;

/// Second-half RSS peak may exceed the first-half peak by at most this
/// factor (plus [`RSS_SLACK_BYTES`]) — "bounded, not monotonic".
pub const RSS_GROWTH_LIMIT: f64 = 1.2;

/// Absolute slack on the RSS bound, for allocator warm-up on tiny
/// quick-mode stores.
pub const RSS_SLACK_BYTES: u64 = 8 << 20;

/// Op mix: half GETs, half SETs, uniform keys — sizes and TTLs are the
/// churn generator's, not the label's.
const WORKLOAD: &str = "K16-G50-U";

/// SET TTLs in mock-clock seconds; `0` is the immortal share. The
/// clock gains one second per tick, so every rung churns within even a
/// quick-mode span.
pub const TTL_LADDER: [u32; 4] = [1, 3, 10, 0];

/// Pre-generated batches cycled per dispatcher thread.
const BATCH_POOL: usize = 48;

/// Shards in the serving core (sweep covers every primary).
const SHARDS: usize = 2;

/// Harness knobs.
#[derive(Debug, Clone, Copy)]
pub struct EvictionOptions {
    /// Smoke mode: short spans, for CI.
    pub quick: bool,
    /// Workload generator seed.
    pub seed: u64,
    /// Object-store bytes (total across shards).
    pub store_bytes: usize,
    /// Working set as a multiple of the store (the overload factor).
    pub overload: f64,
    /// Queries per batch.
    pub frame_queries: usize,
    /// Dispatcher threads (each drives its own profiling lane).
    pub dispatchers: usize,
    /// Measured span per cell, ms (after one warmup window).
    pub span_ms: u64,
    /// Warmup window and RSS sampling cadence, ms.
    pub window_ms: u64,
    /// Mock-clock advance + sweep cadence, ms.
    pub tick_ms: u64,
    /// Interleaved baseline/TTL repeats.
    pub repeats: usize,
}

impl Default for EvictionOptions {
    fn default() -> EvictionOptions {
        EvictionOptions {
            quick: false,
            seed: 0xD1D0,
            store_bytes: 8 << 20,
            overload: 10.0,
            frame_queries: 64,
            dispatchers: 4,
            span_ms: 1_500,
            window_ms: 100,
            tick_ms: 25,
            repeats: 3,
        }
    }
}

impl EvictionOptions {
    /// CI smoke configuration: a few windows per cell.
    #[must_use]
    pub fn quick() -> EvictionOptions {
        EvictionOptions {
            quick: true,
            store_bytes: 2 << 20,
            dispatchers: 2,
            span_ms: 400,
            window_ms: 50,
            tick_ms: 10,
            repeats: 2,
            ..EvictionOptions::default()
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

    /// Keys such that the mixed-size working set is `overload` × the
    /// store: ids spread evenly over the four datasets, so the mean
    /// slab-class footprint prices a key.
    fn keyspace(&self) -> u64 {
        let mean_class: u64 = Dataset::ALL
            .iter()
            .map(|d| {
                (HEADER_SIZE + d.key_size() + d.value_size())
                    .max(32)
                    .next_power_of_two() as u64
            })
            .sum::<u64>()
            / Dataset::ALL.len() as u64;
        ((self.store_bytes as f64 * self.overload) as u64 / mean_class).max(1)
    }
}

/// Resident set size of this process, bytes (`/proc/self/statm`
/// field 2 × page size). Returns 0 where procfs is unavailable.
#[must_use]
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|f| f.parse::<u64>().ok())
        })
        .map_or(0, |pages| pages * 4096)
}

/// One measured cell (a baseline or TTL run).
#[derive(Debug, Clone)]
pub struct EvictionCell {
    /// Whether the TTL ladder was live.
    pub ttl: bool,
    /// Sustained throughput, queries/sec.
    pub throughput_qps: f64,
    /// End-of-run memory plane: expiry counters (lazy in-band by KC/RD,
    /// proactive by the segment sweeper) and per-class gauges.
    pub memory: MemoryFold,
    /// Peak RSS over the first half of the span, bytes.
    pub rss_first_half_peak: u64,
    /// Peak RSS over the second half of the span, bytes.
    pub rss_second_half_peak: u64,
}

impl EvictionCell {
    /// Share of expirations the proactive sweeper claimed.
    #[must_use]
    pub fn proactive_share(&self) -> f64 {
        let total = self.memory.expired_lazy + self.memory.expired_proactive;
        if total == 0 {
            0.0
        } else {
            self.memory.expired_proactive as f64 / total as f64
        }
    }

    /// RSS stayed bounded: no monotonic growth across the span.
    #[must_use]
    pub fn rss_bounded(&self) -> bool {
        self.rss_second_half_peak
            <= (self.rss_first_half_peak as f64 * RSS_GROWTH_LIMIT) as u64 + RSS_SLACK_BYTES
    }
}

/// One interleaved repeat: baseline and TTL measured back to back in
/// the same process window.
#[derive(Debug, Clone)]
pub struct EvictionRep {
    /// The no-TTL (all-immortal ladder) cell.
    pub baseline: EvictionCell,
    /// The live-ladder cell.
    pub ttl: EvictionCell,
}

impl EvictionRep {
    /// TTL over baseline throughput, same window.
    #[must_use]
    pub fn throughput_ratio(&self) -> f64 {
        if self.baseline.throughput_qps > 0.0 {
            self.ttl.throughput_qps / self.baseline.throughput_qps
        } else {
            0.0
        }
    }
}

/// Full harness output.
#[derive(Debug, Clone)]
pub struct EvictionReport {
    /// Options the run used.
    pub opts: EvictionOptions,
    /// Interleaved repeats, in run order.
    pub reps: Vec<EvictionRep>,
}

impl EvictionReport {
    /// Best same-window throughput ratio across repeats (the noise
    /// protocol: any clean window proves the machinery is cheap; the
    /// worst window mostly proves the VM was preempted).
    #[must_use]
    pub fn best_throughput_ratio(&self) -> f64 {
        self.reps
            .iter()
            .map(EvictionRep::throughput_ratio)
            .fold(0.0, f64::max)
    }

    /// Proactive share over all TTL cells pooled.
    #[must_use]
    pub fn proactive_share(&self) -> f64 {
        let (mut lazy, mut proactive) = (0u64, 0u64);
        for r in &self.reps {
            lazy += r.ttl.memory.expired_lazy;
            proactive += r.ttl.memory.expired_proactive;
        }
        if lazy + proactive == 0 {
            0.0
        } else {
            proactive as f64 / (lazy + proactive) as f64
        }
    }

    /// Total expirations observed across TTL cells.
    #[must_use]
    pub fn total_expirations(&self) -> u64 {
        self.reps
            .iter()
            .map(|r| r.ttl.memory.expired_lazy + r.ttl.memory.expired_proactive)
            .sum()
    }

    /// Every TTL cell kept its RSS bounded.
    #[must_use]
    pub fn rss_bounded(&self) -> bool {
        self.reps.iter().all(|r| r.ttl.rss_bounded())
    }

    /// Acceptance: throughput floor, RSS bound, expiry actually
    /// happened, and the sweeper did most of the reclaiming.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.best_throughput_ratio() >= THROUGHPUT_FLOOR
            && self.total_expirations() > 0
            && self.proactive_share() >= PROACTIVE_FLOOR
            && self.rss_bounded()
    }

    /// Serialize as JSON (hand-rolled; the build has no serde_json).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"bench\": \"evictionpath\",\n");
        s.push_str(&format!("  \"quick\": {},\n", self.opts.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.opts.seed));
        s.push_str(&format!("  \"workload\": \"{WORKLOAD}\",\n"));
        s.push_str(&format!("  \"overload\": {},\n", self.opts.overload));
        s.push_str(&format!(
            "  \"ttl_ladder\": [{}],\n",
            TTL_LADDER.map(|t| t.to_string()).join(", ")
        ));
        s.push_str(&format!("  \"dispatchers\": {},\n", self.opts.dispatchers));
        s.push_str(&format!("  \"repeats\": {},\n", self.opts.repeats));
        s.push_str("  \"acceptance\": {\n");
        s.push_str(
            "    \"metric\": \"TTL-churn throughput over the same-window no-TTL \
             baseline at memory overload, best interleaved repeat\",\n",
        );
        s.push_str(&format!("    \"throughput_floor\": {THROUGHPUT_FLOOR},\n"));
        s.push_str(&format!(
            "    \"best_throughput_ratio\": {:.3},\n",
            self.best_throughput_ratio()
        ));
        s.push_str(&format!("    \"proactive_floor\": {PROACTIVE_FLOOR},\n"));
        s.push_str(&format!(
            "    \"proactive_share\": {:.3},\n",
            self.proactive_share()
        ));
        s.push_str(&format!(
            "    \"expirations\": {},\n",
            self.total_expirations()
        ));
        s.push_str(&format!("    \"rss_bounded\": {},\n", self.rss_bounded()));
        s.push_str(&format!("    \"pass\": {}\n", self.pass()));
        s.push_str("  },\n");
        s.push_str("  \"reps\": [\n");
        for (i, r) in self.reps.iter().enumerate() {
            s.push_str("    {\n");
            push_cell_json(&mut s, "baseline", &r.baseline, true);
            push_cell_json(&mut s, "ttl", &r.ttl, false);
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.reps.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn push_cell_json(s: &mut String, name: &str, c: &EvictionCell, comma: bool) {
    s.push_str(&format!("      \"{name}\": {{\n"));
    s.push_str(&format!(
        "        \"throughput_qps\": {:.1},\n",
        c.throughput_qps
    ));
    s.push_str(&format!(
        "        \"expired_lazy\": {},\n",
        c.memory.expired_lazy
    ));
    s.push_str(&format!(
        "        \"expired_proactive\": {},\n",
        c.memory.expired_proactive
    ));
    s.push_str(&format!(
        "        \"segments_reclaimed\": {},\n",
        c.memory.segments_reclaimed
    ));
    s.push_str(&format!(
        "        \"rss_first_half_peak\": {},\n",
        c.rss_first_half_peak
    ));
    s.push_str(&format!(
        "        \"rss_second_half_peak\": {},\n",
        c.rss_second_half_peak
    ));
    s.push_str("        \"classes\": [\n");
    for (i, cl) in c.memory.classes.iter().enumerate() {
        s.push_str(&format!(
            "          {{\"class_bytes\": {}, \"live_objects\": {}, \
             \"free_slots\": {}, \"live_bytes\": {}, \"frag_bytes\": {}, \
             \"open_segments\": {}}}{}\n",
            cl.class_bytes,
            cl.live_objects,
            cl.free_slots,
            cl.live_bytes,
            cl.frag_bytes,
            cl.open_segments,
            if i + 1 < c.memory.classes.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("        ]\n");
    s.push_str(&format!("      }}{}\n", if comma { "," } else { "" }));
}

/// Per-thread batch pools from the churn generator, built off the
/// measured path. `ladder` is the TTL mix SETs carry.
fn build_pools(opts: &EvictionOptions, ladder: &[u32]) -> Vec<Vec<Vec<Query>>> {
    let n_keys = opts.keyspace();
    (0..opts.dispatchers)
        .map(|t| {
            let mut g = TtlChurnGen::new(
                opts.spec(),
                n_keys,
                opts.seed ^ ((t as u64 + 1) << 21),
                ladder,
            );
            (0..BATCH_POOL)
                .map(|_| g.batch(opts.frame_queries))
                .collect()
        })
        .collect()
}

/// Measure one cell: a fresh core on a mock clock, preloaded to
/// roughly store capacity, driven for `span_ms` after one warmup
/// window while the main thread ticks the clock and the sweeper.
pub fn run_cell(opts: &EvictionOptions, ttl: bool) -> EvictionCell {
    let ladder: &[u32] = if ttl { &TTL_LADDER } else { &[0] };
    let clock = Arc::new(MockClock::at(1_000));
    let engine = ShardedEngine::with_clock(
        SHARDS,
        EngineConfig::new(opts.store_bytes / SHARDS, 64 << 10, 16 << 10),
        Arc::clone(&clock) as SharedClock,
    );
    let core = Arc::new(ServingCore::from_engine(
        engine,
        opts.dispatchers,
        opts.dido_options(),
    ));

    // Preload one store's worth of the working set through the real
    // write path, so eviction pressure is immediate.
    let mut preload_gen = TtlChurnGen::new(opts.spec(), opts.keyspace(), opts.seed, ladder);
    let preload = preload_gen.preload_queries((opts.keyspace() as f64 / opts.overload) as u64);
    for chunk in preload.chunks(opts.frame_queries.max(1)) {
        let _ = core.process_batch(0, chunk.to_vec());
    }

    let pools = build_pools(opts, ladder);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(opts.dispatchers + 1));
    let counted: Arc<std::sync::atomic::AtomicU64> = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let threads: Vec<_> = pools
        .into_iter()
        .enumerate()
        .map(|(lane, pool)| {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let counted = Arc::clone(&counted);
            std::thread::spawn(move || {
                barrier.wait();
                let mut next = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let batch = pool[next].clone();
                    next = (next + 1) % pool.len();
                    let n = batch.len() as u64;
                    let _ = core.process_batch(lane, batch);
                    counted.fetch_add(n, Ordering::Relaxed);
                }
            })
        })
        .collect();
    barrier.wait();

    // Warmup window: traffic runs, nothing is counted.
    std::thread::sleep(Duration::from_millis(opts.window_ms));
    counted.store(0, Ordering::Relaxed);
    let t0 = Instant::now();
    let span = Duration::from_millis(opts.span_ms);
    let half = span / 2;
    let (mut rss_first, mut rss_second) = (0u64, 0u64);
    let mut next_tick = Duration::ZERO;
    let mut next_sample = Duration::ZERO;
    // Tick loop: one mock second + one sweep per tick (both cells, so
    // the baseline pays the sweeper's overhead too), RSS sampled every
    // window.
    while t0.elapsed() < span {
        let now = t0.elapsed();
        if now >= next_tick {
            clock.advance(1);
            core.sweep_tick();
            next_tick = now + Duration::from_millis(opts.tick_ms);
        }
        if now >= next_sample {
            let rss = rss_bytes();
            if now < half {
                rss_first = rss_first.max(rss);
            } else {
                rss_second = rss_second.max(rss);
            }
            next_sample = now + Duration::from_millis(opts.window_ms);
        }
        std::thread::sleep(Duration::from_millis(opts.tick_ms.min(5)));
    }
    let queries = counted.load(Ordering::Relaxed);
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Release);
    for t in threads {
        t.join().expect("dispatcher thread");
    }
    // Final sample so the second half always has one; a span too short
    // for first-half samples degrades to a trivially-bounded pair.
    rss_second = rss_second.max(rss_bytes());
    if rss_first == 0 {
        rss_first = rss_second;
    }

    EvictionCell {
        ttl,
        throughput_qps: queries as f64 / elapsed.as_secs_f64(),
        memory: core.metrics().memory,
        rss_first_half_peak: rss_first,
        rss_second_half_peak: rss_second,
    }
}

/// Run `repeats` interleaved baseline/TTL pairs. `progress` receives
/// each finished repeat (for live printing).
pub fn run_evictionpath(
    opts: &EvictionOptions,
    mut progress: impl FnMut(usize, &EvictionRep),
) -> EvictionReport {
    let mut reps = Vec::with_capacity(opts.repeats);
    for i in 0..opts.repeats.max(1) {
        let rep = EvictionRep {
            baseline: run_cell(opts, false),
            ttl: run_cell(opts, true),
        };
        progress(i, &rep);
        reps.push(rep);
    }
    EvictionReport { opts: *opts, reps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_kvstore::ClassStats;

    fn tiny() -> EvictionOptions {
        EvictionOptions {
            store_bytes: 1 << 20,
            dispatchers: 2,
            span_ms: 120,
            window_ms: 30,
            tick_ms: 10,
            repeats: 1,
            ..EvictionOptions::quick()
        }
    }

    #[test]
    fn ttl_cell_expires_and_reclaims() {
        let cell = run_cell(&tiny(), true);
        assert!(cell.throughput_qps > 0.0, "no traffic measured");
        assert!(
            cell.memory.expired_lazy + cell.memory.expired_proactive > 0,
            "TTL churn must expire something"
        );
        assert!(
            cell.memory.expired_proactive > 0 && cell.memory.segments_reclaimed > 0,
            "sweeper must reclaim whole segments: {cell:?}"
        );
        assert!(
            !cell.memory.classes.is_empty(),
            "class gauges must be populated"
        );
    }

    #[test]
    fn baseline_cell_never_expires() {
        let cell = run_cell(&tiny(), false);
        assert!(cell.throughput_qps > 0.0, "no traffic measured");
        assert_eq!(
            cell.memory.expired_lazy, 0,
            "immortal ladder must not expire"
        );
        assert_eq!(cell.memory.expired_proactive, 0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let cell = |ttl: bool, qps: f64| EvictionCell {
            ttl,
            throughput_qps: qps,
            memory: MemoryFold {
                expired_lazy: if ttl { 100 } else { 0 },
                expired_proactive: if ttl { 900 } else { 0 },
                segments_reclaimed: if ttl { 40 } else { 0 },
                sealed_segments: 0,
                classes: vec![ClassStats {
                    class_bytes: 128,
                    live_objects: 10,
                    free_slots: 6,
                    live_bytes: 1_000,
                    frag_bytes: 280,
                    open_segments: 1,
                }],
            },
            rss_first_half_peak: 100 << 20,
            rss_second_half_peak: 101 << 20,
        };
        let report = EvictionReport {
            opts: EvictionOptions::quick(),
            reps: vec![EvictionRep {
                baseline: cell(false, 1e5),
                ttl: cell(true, 9.5e4),
            }],
        };
        assert!((report.best_throughput_ratio() - 0.95).abs() < 1e-9);
        assert!((report.proactive_share() - 0.9).abs() < 1e-9);
        assert!(report.rss_bounded());
        assert!(report.pass());
        let json = report.to_json();
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"frag_bytes\": 280"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn pass_requires_every_gate() {
        let good = EvictionCell {
            ttl: true,
            throughput_qps: 1e5,
            memory: MemoryFold {
                expired_lazy: 10,
                expired_proactive: 90,
                segments_reclaimed: 5,
                ..MemoryFold::default()
            },
            rss_first_half_peak: 100 << 20,
            rss_second_half_peak: 100 << 20,
        };
        let base = EvictionCell {
            ttl: false,
            throughput_qps: 1e5,
            memory: MemoryFold::default(),
            rss_first_half_peak: 100 << 20,
            rss_second_half_peak: 100 << 20,
        };
        let mk = |ttl: EvictionCell| EvictionReport {
            opts: EvictionOptions::quick(),
            reps: vec![EvictionRep {
                baseline: base.clone(),
                ttl,
            }],
        };
        assert!(mk(good.clone()).pass());
        // Throughput floor.
        let mut slow = good.clone();
        slow.throughput_qps = 8e4;
        assert!(!mk(slow).pass());
        // Lazy path doing the work.
        let mut lazy = good.clone();
        lazy.memory.expired_lazy = 90;
        lazy.memory.expired_proactive = 10;
        assert!(!mk(lazy).pass());
        // RSS growth.
        let mut leaky = good.clone();
        leaky.rss_second_half_peak = 200 << 20;
        assert!(!mk(leaky).pass());
        // No expirations at all.
        let mut inert = good;
        inert.memory.expired_lazy = 0;
        inert.memory.expired_proactive = 0;
        assert!(!mk(inert).pass());
    }
}
