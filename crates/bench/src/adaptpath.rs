//! Adaptive serving-core harness: the concurrent [`ServingCore`] behind
//! the real TCP front-end, under a shifting workload.
//!
//! Pre-encoded client streams — the Figure 20/21 alternation (K8-G50-U
//! ↔ K16-G95-S) with §II-C interest spikes overlaid on the first phase —
//! are served through [`KvServer`] at 1, 2 and 4 dispatchers.
//! Dispatchers call [`ServingCore::process_batch`] directly, which
//! executes inline on the calling thread under a wait-free
//! epoch-stamped config load, stripes its profiling into per-lane
//! atomics, and leaves re-planning to a background controller thread.
//!
//! Each cell reports absolute throughput and frame latency. The check
//! is *time-to-readapt*: after the client stream flips phase, the
//! node's adaption counter must move within the probe budget, and
//! every cell must have adapted at least once. Results serialize via
//! [`AdaptReport::to_json`] for `BENCH_adaptpath.json`.

use bytes::{Bytes, BytesMut};
use dido::{ControllerHandle, DidoOptions, ServingCore};
use dido_net::{encode_queries_wire_into, BatchConfig, KvClient, KvServer};
use dido_pipeline::TestbedOptions;
use dido_workload::{SpikeGen, WorkloadGen, WorkloadSpec};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::connpath::{drive_conn, percentile_us};

/// Dispatcher counts measured.
pub const DISPATCHERS: [usize; 3] = [1, 2, 4];

/// The alternation pair from Figures 20/21.
const PHASE_A: &str = "K8-G50-U";
const PHASE_B: &str = "K16-G95-S";

/// Harness knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdaptpathOptions {
    /// Smoke mode: few frames per cell, for CI.
    pub quick: bool,
    /// Workload generator seed.
    pub seed: u64,
    /// Object-store bytes for the server node.
    pub store_bytes: usize,
    /// Total frames measured per cell (split across connections).
    pub target_frames: usize,
    /// Queries per request frame.
    pub frame_queries: usize,
    /// Concurrent client connections (fixed across cells so only the
    /// dispatcher count varies).
    pub connections: usize,
    /// In-flight frames per connection (pipelining depth).
    pub window: usize,
    /// Dispatcher drain window, microseconds.
    pub max_batch_delay_us: u64,
    /// Workload phase flips every this many frames of a connection's
    /// stream.
    pub shift_every_frames: usize,
    /// Background controller cadence.
    pub controller_period_us: u64,
    /// Measurement attempts per cell; the best throughput run is kept.
    pub repeats: usize,
}

impl Default for AdaptpathOptions {
    fn default() -> AdaptpathOptions {
        AdaptpathOptions {
            quick: false,
            seed: 0xD1D0,
            store_bytes: 8 << 20,
            target_frames: 2048,
            frame_queries: 64,
            connections: 8,
            window: 8,
            max_batch_delay_us: 200,
            shift_every_frames: 64,
            controller_period_us: 2_000,
            repeats: 3,
        }
    }
}

impl AdaptpathOptions {
    /// CI smoke configuration: just enough traffic to exercise every
    /// cell and trip at least one phase shift.
    #[must_use]
    pub fn quick() -> AdaptpathOptions {
        AdaptpathOptions {
            quick: true,
            store_bytes: 2 << 20,
            target_frames: 256,
            connections: 4,
            shift_every_frames: 16,
            repeats: 1,
            ..AdaptpathOptions::default()
        }
    }

    fn frames_per_conn(&self) -> usize {
        (self.target_frames / self.connections.max(1)).max(self.window * 2)
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
}

/// One per-dispatcher-count measurement.
#[derive(Debug, Clone, Copy)]
pub struct AdaptCell {
    /// Dispatcher threads.
    pub dispatchers: usize,
    /// End-to-end throughput, queries/sec.
    pub throughput_qps: f64,
    /// Median frame latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile frame latency, microseconds.
    pub p99_us: f64,
    /// Pipeline adaptions the node performed during the run.
    pub adaptions: u64,
}

/// Time-to-readapt after a workload phase flip.
#[derive(Debug, Clone, Copy)]
pub struct ReadaptProbe {
    /// Milliseconds from the first post-shift frame to the adaption
    /// counter moving (negative means it never moved in time).
    pub readapt_ms: f64,
    /// Whether an adaption landed before the probe's timeout.
    pub adapted: bool,
}

/// Full harness output.
#[derive(Debug, Clone)]
pub struct AdaptReport {
    /// Options the run used.
    pub opts: AdaptpathOptions,
    /// Cells in `DISPATCHERS` order.
    pub cells: Vec<AdaptCell>,
    /// The readapt probe.
    pub readapt: ReadaptProbe,
}

impl AdaptReport {
    /// Whether the core re-adapted: every cell saw at least one
    /// adaption and the readapt probe fired.
    #[must_use]
    pub fn readapt_pass(&self) -> bool {
        self.cells.iter().all(|c| c.adaptions > 0) && self.readapt.adapted
    }

    /// Serialize as JSON (hand-rolled; the build has no serde_json).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        s.push_str("  \"bench\": \"adaptpath\",\n");
        s.push_str(&format!("  \"quick\": {},\n", self.opts.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.opts.seed));
        s.push_str(&format!("  \"connections\": {},\n", self.opts.connections));
        s.push_str(&format!(
            "  \"frame_queries\": {},\n",
            self.opts.frame_queries
        ));
        s.push_str(&format!(
            "  \"shift_every_frames\": {},\n",
            self.opts.shift_every_frames
        ));
        s.push_str(&format!("  \"repeats\": {},\n", self.opts.repeats));
        s.push_str("  \"acceptance\": {\n");
        s.push_str(
            "    \"metric\": \"every cell adapts at least once and the probe \
             re-adapts after the phase flip\",\n",
        );
        s.push_str(&format!("    \"readapt_pass\": {}\n", self.readapt_pass()));
        s.push_str("  },\n");
        s.push_str(&format!(
            "  \"readapt\": {{\"readapt_ms\": {:.3}, \"adapted\": {}}},\n",
            self.readapt.readapt_ms, self.readapt.adapted
        ));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"dispatchers\": {}, \
                 \"throughput_qps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"adaptions\": {}}}{}\n",
                c.dispatchers,
                c.throughput_qps,
                c.p50_us,
                c.p99_us,
                c.adaptions,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn spec(label: &str) -> WorkloadSpec {
    WorkloadSpec::from_label(label).expect("valid workload label")
}

/// Pre-encode each connection's frame stream: phases alternate every
/// `shift_every_frames` frames between the two workloads, and the back
/// half of every phase-A interval carries a hot-set spike.
fn build_streams(opts: &AdaptpathOptions, n_keys: u64) -> Vec<Vec<Bytes>> {
    let shift = opts.shift_every_frames.max(1);
    (0..opts.connections)
        .map(|conn| {
            let conn_seed = opts.seed ^ ((conn as u64 + 1) << 17);
            let gen_a = WorkloadGen::new(spec(PHASE_A), n_keys, conn_seed);
            let mut gen_a = SpikeGen::new(gen_a, 64.min(n_keys).max(1), 0.5, conn_seed ^ 0x5717);
            let mut gen_b = WorkloadGen::new(spec(PHASE_B), n_keys, conn_seed + 1);
            (0..opts.frames_per_conn())
                .map(|f| {
                    let phase_b = (f / shift) % 2 == 1;
                    let queries = if phase_b {
                        gen_b.batch(opts.frame_queries)
                    } else {
                        gen_a.set_active(f % shift >= shift / 2);
                        gen_a.batch(opts.frame_queries)
                    };
                    let mut wire = BytesMut::new();
                    encode_queries_wire_into(&mut wire, &queries);
                    wire.freeze()
                })
                .collect()
        })
        .collect()
}

/// A preloaded serving core with its background adaptation controller
/// (kept alive until the handle drops).
fn build_node(opts: &AdaptpathOptions) -> (Arc<ServingCore>, ControllerHandle) {
    let lanes = DISPATCHERS.into_iter().max().unwrap_or(1);
    let (core, _) = ServingCore::preloaded(spec(PHASE_A), 1, lanes, opts.dido_options());
    let core = Arc::new(core);
    let controller = ServingCore::spawn_controller(
        Arc::clone(&core),
        Duration::from_micros(opts.controller_period_us),
    );
    (core, controller)
}

/// Start a server with `dispatchers` dispatcher threads over `core`.
fn start_server(opts: &AdaptpathOptions, dispatchers: usize, core: &Arc<ServingCore>) -> KvServer {
    let core = Arc::clone(core);
    KvServer::start_batched(
        "127.0.0.1:0",
        BatchConfig {
            max_batch_delay: Duration::from_micros(opts.max_batch_delay_us),
            dispatchers,
            ..BatchConfig::default()
        },
        move |lane, queries| core.process_batch(lane, queries),
    )
    .expect("bind server")
}

/// Measure one cell: a fresh node behind a server with `dispatchers`
/// dispatcher threads, all clients pipelining their pre-encoded
/// shifting streams to completion.
pub fn run_cell(
    opts: &AdaptpathOptions,
    dispatchers: usize,
    streams: &Arc<Vec<Vec<Bytes>>>,
) -> AdaptCell {
    let (core, _controller) = build_node(opts);
    let server = start_server(opts, dispatchers, &core);
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(opts.connections + 1));
    let clients: Vec<_> = (0..opts.connections)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let streams = Arc::clone(streams);
            let window = opts.window;
            std::thread::spawn(move || {
                barrier.wait();
                let mut client = KvClient::connect(addr).expect("connect");
                let mut latencies = Vec::new();
                drive_conn(&mut client, &streams[i], window, &mut latencies).expect("client I/O");
                latencies
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    let mut latencies: Vec<Duration> = Vec::new();
    for c in clients {
        latencies.extend(c.join().expect("client thread"));
    }
    let elapsed = start.elapsed();
    server.shutdown();

    latencies.sort_unstable();
    let total_queries = (latencies.len() * opts.frame_queries) as f64;
    AdaptCell {
        dispatchers,
        throughput_qps: total_queries / elapsed.as_secs_f64(),
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        adaptions: core.adaptions() as u64,
    }
}

/// Time-to-readapt probe: warm the node on phase-A traffic until its
/// adaption counter goes quiet, flip the stream to phase B, and time
/// how long until the counter moves again.
pub fn measure_readapt(opts: &AdaptpathOptions) -> ReadaptProbe {
    let (core, _controller) = build_node(opts);
    let server = start_server(opts, 1, &core);
    let mut client = KvClient::connect(server.addr()).expect("connect");

    let dopts = opts.dido_options();
    let n_keys = spec(PHASE_A)
        .keyspace_size(dopts.testbed.store_bytes as u64, dido_kvstore::HEADER_SIZE)
        .max(1);
    let mut gen_a = WorkloadGen::new(spec(PHASE_A), n_keys, opts.seed ^ 0xABCD);
    let mut gen_b = WorkloadGen::new(spec(PHASE_B), n_keys, opts.seed ^ 0xDCBA);

    // Warm-up: phase A until the adaption counter stays put for a few
    // consecutive batches (the initial profile itself can adapt).
    let warmup_frames = if opts.quick { 32 } else { 128 };
    let mut quiet = 0;
    let mut last = core.adaptions();
    for _ in 0..warmup_frames {
        client
            .request(&gen_a.batch(opts.frame_queries))
            .expect("warmup request");
        let now = core.adaptions();
        quiet = if now == last { quiet + 1 } else { 0 };
        last = now;
        if quiet >= 8 {
            break;
        }
    }

    // Shift: phase B until the counter moves (or the frame budget runs
    // out — the probe then reports failure rather than hanging).
    let baseline = core.adaptions();
    let budget = if opts.quick { 256 } else { 2048 };
    let t0 = Instant::now();
    let mut adapted = false;
    for _ in 0..budget {
        client
            .request(&gen_b.batch(opts.frame_queries))
            .expect("shift request");
        if core.adaptions() > baseline {
            adapted = true;
            break;
        }
    }
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    ReadaptProbe {
        readapt_ms: if adapted { elapsed_ms } else { -1.0 },
        adapted,
    }
}

/// Run every dispatcher count plus the readapt probe. `progress`
/// receives each finished cell (for live printing).
///
/// Cells are measured [`AdaptpathOptions::repeats`] times, keeping the
/// best-throughput run.
pub fn run_adaptpath(opts: &AdaptpathOptions, mut progress: impl FnMut(&AdaptCell)) -> AdaptReport {
    let dopts = opts.dido_options();
    let n_keys = spec(PHASE_A)
        .keyspace_size(dopts.testbed.store_bytes as u64, dido_kvstore::HEADER_SIZE)
        .max(1);
    let streams = Arc::new(build_streams(opts, n_keys));
    let mut cells = Vec::with_capacity(DISPATCHERS.len());
    for dispatchers in DISPATCHERS {
        let best = (0..opts.repeats.max(1))
            .map(|_| run_cell(opts, dispatchers, &streams))
            .max_by(|a, b| a.throughput_qps.total_cmp(&b.throughput_qps))
            .expect("at least one repeat");
        progress(&best);
        cells.push(best);
    }
    AdaptReport {
        opts: *opts,
        cells,
        readapt: measure_readapt(opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tiny cell over a live loopback server.
    #[test]
    fn smoke_cell() {
        let opts = AdaptpathOptions {
            store_bytes: 1 << 20,
            target_frames: 16,
            frame_queries: 8,
            connections: 2,
            window: 4,
            shift_every_frames: 2,
            ..AdaptpathOptions::quick()
        };
        let n_keys = spec(PHASE_A)
            .keyspace_size(opts.store_bytes as u64, dido_kvstore::HEADER_SIZE)
            .max(1);
        let streams = Arc::new(build_streams(&opts, n_keys));
        let cell = run_cell(&opts, 2, &streams);
        assert_eq!(cell.dispatchers, 2);
        assert!(cell.throughput_qps > 0.0, "no traffic measured");
        assert!(cell.p99_us >= cell.p50_us, "percentiles inverted");
    }

    fn mk(dispatchers: usize, adaptions: u64) -> AdaptCell {
        AdaptCell {
            dispatchers,
            throughput_qps: 1e5,
            p50_us: 80.0,
            p99_us: 200.0,
            adaptions,
        }
    }

    fn probe(adapted: bool) -> ReadaptProbe {
        ReadaptProbe {
            readapt_ms: if adapted { 6.5 } else { -1.0 },
            adapted,
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = AdaptReport {
            opts: AdaptpathOptions::quick(),
            cells: DISPATCHERS.iter().map(|&d| mk(d, 3)).collect(),
            readapt: probe(true),
        };
        assert!(report.readapt_pass());
        let json = report.to_json();
        assert_eq!(json.matches("\"dispatchers\"").count(), 3);
        assert!(json.contains("\"readapt_pass\": true"));
        assert!(json.contains("\"readapt_ms\": 6.500"));
        assert!(!json.contains("mode") && !json.contains("speedup"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn readapt_pass_requires_adaptions_and_probe() {
        let report = |adaptions, adapted| AdaptReport {
            opts: AdaptpathOptions::quick(),
            cells: vec![mk(4, adaptions)],
            readapt: probe(adapted),
        };
        assert!(report(1, true).readapt_pass());
        assert!(!report(0, true).readapt_pass());
        assert!(!report(1, false).readapt_pass());
    }
}
