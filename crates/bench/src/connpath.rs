//! Connection-scale harness: the server under {64, 512, 4096}
//! concurrent connections ({16, 64, 256} in `--quick`).
//!
//! This harness measures the *connection plane*. Every cell opens its
//! full fleet of connections before the clock starts — so the reactor
//! pool is carrying all of them at once — then drives a pipelined
//! workload through the fleet from a bounded pool of client threads.
//! What the report must show:
//!
//! * **Flat readers** — the server's reader-thread count is the same
//!   fixed pool size (`min(4, cores)`) at 64 and at 4096 connections.
//!
//! Results serialize via [`ConnpathReport::to_json`] for
//! `BENCH_connpath.json`.

use bytes::{Bytes, BytesMut};
use dido_apu_sim::HwSpec;
use dido_model::{PipelineConfig, Query};
use dido_net::{
    backend_matrix, encode_queries_wire_into, BatchConfig, DispatchMode, IoBackend, KvClient,
    KvServer, ProtocolKind,
};
use dido_pipeline::{preloaded_engine, KvEngine, TestbedOptions};
use dido_workload::{Dataset, KeyDistribution, WorkloadSpec};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::hotpath::{all_on_cpu_ctx, run_vectorized_batch};

/// Connection counts swept by the full run.
pub const CONNECTIONS: [usize; 3] = [64, 512, 4096];

/// Connection counts swept in `--quick` (CI smoke).
pub const QUICK_CONNECTIONS: [usize; 3] = [16, 64, 256];

/// Largest client-thread pool; cells with more connections than this
/// multiplex several connections onto each thread.
pub const MAX_CLIENT_THREADS: usize = 256;

/// Harness knobs.
#[derive(Debug, Clone, Copy)]
pub struct ConnpathOptions {
    /// Smoke mode: few frames and small fleets, for CI.
    pub quick: bool,
    /// Workload generator seed.
    pub seed: u64,
    /// Object-store bytes for the server engine.
    pub store_bytes: usize,
    /// Total frames measured per cell (split across connections; every
    /// connection drives at least two windows regardless).
    pub target_frames: usize,
    /// In-flight frames per connection (pipelining depth).
    pub window: usize,
    /// Queries per request frame.
    pub frame_queries: usize,
    /// Measurement attempts per cell; best throughput kept.
    pub repeats: usize,
}

impl Default for ConnpathOptions {
    fn default() -> ConnpathOptions {
        ConnpathOptions {
            quick: false,
            seed: 0xD1D0,
            store_bytes: 16 << 20,
            target_frames: 16384,
            window: 8,
            frame_queries: 16,
            repeats: 3,
        }
    }
}

impl ConnpathOptions {
    /// CI smoke configuration.
    #[must_use]
    pub fn quick() -> ConnpathOptions {
        ConnpathOptions {
            quick: true,
            store_bytes: 4 << 20,
            target_frames: 1024,
            repeats: 1,
            ..ConnpathOptions::default()
        }
    }

    /// The sweep this configuration runs.
    #[must_use]
    pub fn connections(&self) -> [usize; 3] {
        if self.quick {
            QUICK_CONNECTIONS
        } else {
            CONNECTIONS
        }
    }

    fn frames_per_conn(&self, connections: usize) -> usize {
        (self.target_frames / connections).max(self.window * 2)
    }
}

/// One connection-count measurement on one I/O backend.
#[derive(Debug, Clone, Copy)]
pub struct ConnCell {
    /// Concurrent client connections held open through the cell.
    pub connections: usize,
    /// The I/O backend the server ran on (pinned, not probed, so epoll
    /// and uring cells interleave inside one process window).
    pub io_backend: IoBackend,
    /// Server reader (reactor) threads — the flat-thread claim.
    pub reader_threads: u64,
    /// Connections the reactors reported registered at full fleet.
    pub registered_conns: u64,
    /// End-to-end throughput, queries/sec.
    pub throughput_qps: f64,
    /// Median frame latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile frame latency, microseconds.
    pub p99_us: f64,
    /// Mean frames aggregated per dispatch.
    pub mean_batch_frames: f64,
    /// Reactor readiness wakeups over the measured run.
    pub reactor_wakeups: u64,
    /// SD egress shard threads serving the cell.
    pub sd_writer_threads: u64,
    /// Connections parked on WRITABLE readiness during the run.
    pub sd_writable_parks: u64,
    /// Highest per-connection pending egress bytes observed.
    pub sd_pending_hiwater: u64,
    /// Egress buffer-ring hit rate (hits / lookups; 1.0 = fully
    /// recycled steady state).
    pub sd_buf_hit_rate: f64,
    /// I/O-plane syscalls over the best run (`io_uring_enter` on
    /// uring; `epoll_wait` + `read` + `writev` on epoll).
    pub ring_enters: u64,
    /// `ring_enters / queries` for the best run — the batching claim:
    /// uring should need at least 2x fewer than epoll at scale.
    pub syscalls_per_query: f64,
    /// Lowest throughput across the cell's repeats, queries/sec.
    pub qps_min: f64,
    /// Mean throughput across the cell's repeats, queries/sec.
    pub qps_mean: f64,
    /// Highest throughput across the cell's repeats, queries/sec
    /// (equals `throughput_qps`, the kept run).
    pub qps_max: f64,
    /// Relative spread `(max - min) / mean` across repeats — the
    /// noise-floor context every cross-cell comparison needs on a
    /// shared box.
    pub qps_rel_spread: f64,
}

/// The slow-consumer isolation cell: the standard fleet plus a handful
/// of connections that stop reading, measured against a baseline run of
/// the same fleet without them.
#[derive(Debug, Clone, Copy)]
pub struct SlowCell {
    /// Healthy connections driving the measured workload.
    pub connections: usize,
    /// Wedged connections that request but never read.
    pub slow_consumers: usize,
    /// Healthy-fleet p99 with no slow consumers attached, microseconds.
    pub base_p99_us: f64,
    /// Healthy-fleet p99 with the slow consumers wedged, microseconds.
    pub slow_p99_us: f64,
    /// `slow_p99_us / base_p99_us` — the isolation claim is that this
    /// stays under 2.
    pub healthy_p99_ratio: f64,
    /// Connections parked on WRITABLE readiness during the slow pass.
    pub sd_writable_parks: u64,
    /// Reads paused by pending-bytes backpressure during the slow pass.
    pub sd_read_pauses: u64,
    /// Connections retired by the stall deadline during the slow pass.
    pub sd_stall_retired: u64,
    /// Highest per-connection pending egress bytes seen (the
    /// backpressure cap in action).
    pub sd_pending_hiwater: u64,
}

/// Full harness output.
#[derive(Debug, Clone)]
pub struct ConnpathReport {
    /// Options the run used.
    pub opts: ConnpathOptions,
    /// One cell per swept connection count, ascending.
    pub cells: Vec<ConnCell>,
    /// The slow-consumer isolation cell (skipped only if the sweep was
    /// empty).
    pub slow: Option<SlowCell>,
    /// Protocol front-door cells (dido vs memcached vs RESP), per
    /// backend, repeats interleaved in one window.
    pub protopath: Vec<ProtoCell>,
}

impl ConnpathReport {
    /// Whether the reader-thread count stayed flat — identical in every
    /// cell — across the whole connection sweep.
    #[must_use]
    pub fn flat_readers(&self) -> bool {
        let mut counts = self.cells.iter().map(|c| c.reader_threads);
        match counts.next() {
            Some(first) => first >= 1 && counts.all(|r| r == first),
            None => false,
        }
    }

    /// The epoll and uring cells at the sweep's largest connection
    /// count, when both backends ran.
    #[must_use]
    pub fn top_cell_pair(&self) -> Option<(&ConnCell, &ConnCell)> {
        let top = self.cells.iter().map(|c| c.connections).max()?;
        let at = |b: IoBackend| {
            self.cells
                .iter()
                .find(|c| c.connections == top && c.io_backend == b)
        };
        Some((at(IoBackend::Epoll)?, at(IoBackend::Uring)?))
    }

    /// Uring ÷ epoll throughput at the largest connection count.
    /// Reported, not gated. `None` when the uring cells were skipped
    /// (no kernel support).
    #[must_use]
    pub fn uring_throughput_ratio(&self) -> Option<f64> {
        let (epoll, uring) = self.top_cell_pair()?;
        (epoll.throughput_qps > 0.0).then(|| uring.throughput_qps / epoll.throughput_qps)
    }

    /// Epoll ÷ uring I/O syscalls per query at the largest connection
    /// count (2.0 means uring served the same queries on half the
    /// syscalls). Reported, not gated. `None` when the uring cells were
    /// skipped.
    #[must_use]
    pub fn uring_syscall_ratio(&self) -> Option<f64> {
        let (epoll, uring) = self.top_cell_pair()?;
        (uring.syscalls_per_query > 0.0)
            .then(|| epoll.syscalls_per_query / uring.syscalls_per_query)
    }

    /// Serialize as JSON (hand-rolled; the build has no serde_json).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"bench\": \"connpath\",\n");
        s.push_str(&format!("  \"quick\": {},\n", self.opts.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.opts.seed));
        s.push_str(&format!("  \"window\": {},\n", self.opts.window));
        s.push_str(&format!(
            "  \"frame_queries\": {},\n",
            self.opts.frame_queries
        ));
        s.push_str(&format!("  \"repeats\": {},\n", self.opts.repeats));
        let flat = self.flat_readers();
        s.push_str("  \"acceptance\": {\n");
        s.push_str(
            "    \"flat_readers\": \"reader-thread count identical across the \
             whole connection sweep\",\n",
        );
        s.push_str(&format!("    \"flat_readers_pass\": {flat},\n"));
        s.push_str(
            "    \"uring_ratios\": \"reported, not gated; at the largest cell, both \
             backends interleaved in one process window: uring_throughput_ratio = \
             uring q/s / epoll q/s, uring_syscall_ratio = epoll syscalls/query / \
             uring syscalls/query\",\n",
        );
        match self.uring_throughput_ratio() {
            Some(r) => s.push_str(&format!("    \"uring_throughput_ratio\": {r:.3},\n")),
            None => s.push_str("    \"uring_throughput_ratio\": null,\n"),
        }
        match self.uring_syscall_ratio() {
            Some(r) => s.push_str(&format!("    \"uring_syscall_ratio\": {r:.2},\n")),
            None => s.push_str("    \"uring_syscall_ratio\": null,\n"),
        }
        // `pass` is the flat-readers check alone; the ratios are not in it.
        s.push_str(&format!("    \"pass\": {flat}\n"));
        s.push_str("  },\n");
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"connections\": {}, \"io_backend\": \"{}\", \
                 \"reader_threads\": {}, \
                 \"registered_conns\": {}, \"throughput_qps\": {:.1}, \
                 \"qps_min\": {:.1}, \"qps_mean\": {:.1}, \"qps_max\": {:.1}, \
                 \"qps_rel_spread\": {:.4}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"mean_batch_frames\": {:.2}, \
                 \"reactor_wakeups\": {}, \"ring_enters\": {}, \
                 \"syscalls_per_query\": {:.3}, \"sd_writer_threads\": {}, \
                 \"sd_writable_parks\": {}, \"sd_pending_bytes_hiwater\": {}, \
                 \"sd_buf_ring_hit_rate\": {:.4}}}{}\n",
                c.connections,
                c.io_backend.as_str(),
                c.reader_threads,
                c.registered_conns,
                c.throughput_qps,
                c.qps_min,
                c.qps_mean,
                c.qps_max,
                c.qps_rel_spread,
                c.p50_us,
                c.p99_us,
                c.mean_batch_frames,
                c.reactor_wakeups,
                c.ring_enters,
                c.syscalls_per_query,
                c.sd_writer_threads,
                c.sd_writable_parks,
                c.sd_pending_hiwater,
                c.sd_buf_hit_rate,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"protopath\": [\n");
        for (i, c) in self.protopath.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"proto\": \"{}\", \"io_backend\": \"{}\", \
                 \"connections\": {}, \"requests\": {}, \
                 \"throughput_qps\": {:.1}, \
                 \"qps_min\": {:.1}, \"qps_mean\": {:.1}, \"qps_max\": {:.1}, \
                 \"qps_rel_spread\": {:.4}, \
                 \"request_bytes_per_query\": {:.2}, \
                 \"reply_bytes_per_query\": {:.2}}}{}\n",
                c.proto.as_str(),
                c.io_backend.as_str(),
                c.connections,
                c.requests,
                c.throughput_qps,
                c.qps_min,
                c.qps_mean,
                c.qps_max,
                c.qps_rel_spread,
                c.request_bytes_per_query,
                c.reply_bytes_per_query,
                if i + 1 < self.protopath.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        match &self.slow {
            Some(sc) => {
                s.push_str("  \"slow_consumer\": {\n");
                s.push_str(&format!("    \"connections\": {},\n", sc.connections));
                s.push_str(&format!("    \"slow_consumers\": {},\n", sc.slow_consumers));
                s.push_str(&format!("    \"base_p99_us\": {:.1},\n", sc.base_p99_us));
                s.push_str(&format!("    \"slow_p99_us\": {:.1},\n", sc.slow_p99_us));
                s.push_str(&format!(
                    "    \"healthy_p99_ratio\": {:.3},\n",
                    sc.healthy_p99_ratio
                ));
                s.push_str(&format!(
                    "    \"healthy_p99_within_2x\": {},\n",
                    sc.healthy_p99_ratio <= 2.0
                ));
                s.push_str(&format!(
                    "    \"sd_writable_parks\": {},\n",
                    sc.sd_writable_parks
                ));
                s.push_str(&format!("    \"sd_read_pauses\": {},\n", sc.sd_read_pauses));
                s.push_str(&format!(
                    "    \"sd_stall_retired\": {},\n",
                    sc.sd_stall_retired
                ));
                s.push_str(&format!(
                    "    \"sd_pending_bytes_hiwater\": {}\n",
                    sc.sd_pending_hiwater
                ));
                s.push_str("  }\n");
            }
            None => s.push_str("  \"slow_consumer\": null\n"),
        }
        s.push_str("}\n");
        s
    }
}

/// Build the server engine and per-connection wire-ready frame streams
/// (all allocation and encoding before the clock starts).
fn build_workload(opts: &ConnpathOptions, connections: usize) -> (KvEngine, Vec<Vec<Bytes>>) {
    let spec = WorkloadSpec::new(Dataset::K16, 0.95, KeyDistribution::YCSB_ZIPF);
    let hw = HwSpec::kaveri_apu();
    let topts = TestbedOptions {
        store_bytes: opts.store_bytes,
        seed: opts.seed,
        ..TestbedOptions::default()
    };
    let (engine, mut generator) = preloaded_engine(spec, &hw, topts);
    let frames_per_conn = opts.frames_per_conn(connections);
    let streams = (0..connections)
        .map(|_| {
            (0..frames_per_conn)
                .map(|_| {
                    let mut wire = BytesMut::new();
                    encode_queries_wire_into(&mut wire, &generator.batch(opts.frame_queries));
                    wire.freeze()
                })
                .collect()
        })
        .collect();
    (engine, streams)
}

/// Drive one already-connected pipelined client (sliding window,
/// half-window send bursts), recording per-frame latency.
pub(crate) fn drive_conn(
    client: &mut KvClient,
    frames: &[Bytes],
    window: usize,
    latencies: &mut Vec<Duration>,
) -> std::io::Result<()> {
    let burst = (window / 2).max(1);
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut next = 0;
    let mut got = 0;
    while got < frames.len() {
        let room = window - sent_at.len();
        let avail = frames.len() - next;
        if avail > 0 && room > 0 && (room >= burst || avail <= room) {
            let n = burst.min(room).min(avail);
            let t0 = Instant::now();
            client.send_wire(&frames[next..next + n])?;
            sent_at.extend(std::iter::repeat_n(t0, n));
            next += n;
            continue;
        }
        let reply = client.recv_frame()?;
        latencies.push(sent_at.pop_front().expect("in-flight frame").elapsed());
        got += 1;
        std::hint::black_box(reply);
    }
    Ok(())
}

/// The `p`-quantile of an ascending-sorted latency list, microseconds.
pub(crate) fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e6
}

/// Measure one cell: open the *entire* fleet (so the reactor plane
/// carries every connection at once), then drive each connection's
/// stream from a bounded pool of client threads.
fn measure_cell(
    opts: &ConnpathOptions,
    connections: usize,
    backend: IoBackend,
    engine: &Arc<Mutex<KvEngine>>,
    streams: &Arc<Vec<Vec<Bytes>>>,
) -> ConnCell {
    let engine = Arc::clone(engine);
    let ctx = all_on_cpu_ctx();
    let handler = move |_lane: usize, queries: Vec<Query>| {
        let engine = engine.lock();
        run_vectorized_batch(ctx, &engine, queries, PipelineConfig::mega_kv())
    };
    let cfg = BatchConfig {
        io_backend: backend.into(),
        ..BatchConfig::default()
    };
    let server = KvServer::start_batched("127.0.0.1:0", cfg, handler).expect("bind server");
    let addr = server.addr();
    let stats = server.stats_handle();

    let threads = connections.min(MAX_CLIENT_THREADS);
    let per_thread = connections.div_ceil(threads);
    // Two barrier phases: all connections open (fleet fully registered,
    // gauges sampled) → all threads start driving together.
    let opened = Arc::new(Barrier::new(threads + 1));
    let go = Arc::new(Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let opened = Arc::clone(&opened);
            let go = Arc::clone(&go);
            let streams = Arc::clone(streams);
            let window = opts.window;
            std::thread::spawn(move || {
                let lo = t * per_thread;
                let hi = ((t + 1) * per_thread).min(streams.len());
                let mut clients: Vec<KvClient> = (lo..hi)
                    .map(|_| KvClient::connect(addr).expect("connect"))
                    .collect();
                opened.wait();
                go.wait();
                let mut latencies = Vec::new();
                for (c, i) in clients.iter_mut().zip(lo..hi) {
                    drive_conn(c, &streams[i], window, &mut latencies).expect("client I/O");
                }
                latencies
            })
        })
        .collect();

    opened.wait();
    // Fleet fully open: give registration commands a beat to drain,
    // then sample the connection-plane gauges the report asserts on.
    let deadline = Instant::now() + Duration::from_secs(10);
    while (stats.reactor_conns.get() as usize) < connections && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let reader_threads = stats.reactor_threads.get();
    let registered_conns = stats.reactor_conns.get();
    let wakeups_before = stats.reactor_wakeups.get();
    let enters_before = stats.ring_enters.get();
    let queries_before = stats.queries.get();

    go.wait();
    let start = Instant::now();
    let mut latencies: Vec<Duration> = Vec::new();
    for w in workers {
        latencies.extend(w.join().expect("client thread"));
    }
    let elapsed = start.elapsed();
    let mean_batch_frames = server.stats().snapshot().mean_batch_frames();
    let reactor_wakeups = stats.reactor_wakeups.get() - wakeups_before;
    let ring_enters = stats.ring_enters.get() - enters_before;
    let served_queries = stats.queries.get() - queries_before;
    // Egress gauges are sampled after shutdown: the shards fold their
    // buffer-ring counters one last time at teardown.
    server.shutdown();
    let hits = stats.sd_buf_hits.get();
    let lookups = hits + stats.sd_buf_misses.get();

    latencies.sort_unstable();
    let total_queries = (latencies.len() * opts.frame_queries) as f64;
    let throughput_qps = total_queries / elapsed.as_secs_f64();
    ConnCell {
        connections,
        io_backend: backend,
        reader_threads,
        registered_conns,
        throughput_qps,
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        mean_batch_frames,
        reactor_wakeups,
        sd_writer_threads: stats.sd_writer_threads.get(),
        sd_writable_parks: stats.sd_writable_parks.get(),
        sd_pending_hiwater: stats.sd_pending_bytes_hiwater.get(),
        sd_buf_hit_rate: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        ring_enters,
        syscalls_per_query: if served_queries == 0 {
            0.0
        } else {
            ring_enters as f64 / served_queries as f64
        },
        // Single-run placeholders; `run_connpath` folds the repeat
        // spread over the kept cell.
        qps_min: throughput_qps,
        qps_mean: throughput_qps,
        qps_max: throughput_qps,
        qps_rel_spread: 0.0,
    }
}

/// How many wedged connections the slow-consumer cell attaches.
pub const SLOW_CONSUMERS: usize = 4;

/// One pass of the slow-consumer cell: the healthy fleet drives the
/// standard workload while `slow_consumers` extra connections send
/// requests and never read. Returns the healthy fleet's p99 and the
/// final egress counters.
fn measure_slow_pass(
    opts: &ConnpathOptions,
    connections: usize,
    engine: &Arc<Mutex<KvEngine>>,
    streams: &Arc<Vec<Vec<Bytes>>>,
    slow_consumers: usize,
) -> (f64, Arc<dido_net::ServerStats>) {
    let engine = Arc::clone(engine);
    let ctx = all_on_cpu_ctx();
    let handler = move |_lane: usize, queries: Vec<Query>| {
        let engine = engine.lock();
        run_vectorized_batch(ctx, &engine, queries, PipelineConfig::mega_kv())
    };
    // A small kernel send buffer makes "peer stopped reading" visible
    // to the egress plane quickly; the high water caps how much of the
    // wedged backlog the server absorbs.
    let cfg = BatchConfig {
        sndbuf_bytes: Some(32 << 10),
        sd_hiwater_bytes: 256 << 10,
        ..BatchConfig::default()
    };
    let server = KvServer::start_batched("127.0.0.1:0", cfg, handler).expect("bind server");
    let addr = server.addr();
    let stats = server.stats_handle();

    // Wedge the slow consumers first: each pipelines request frames and
    // never reads a byte. `shutdown` from this thread unblocks their
    // writers once the measurement is done.
    let mut slow_streams = Vec::with_capacity(slow_consumers);
    let slow_threads: Vec<_> = (0..slow_consumers)
        .map(|s| {
            let stream = std::net::TcpStream::connect(addr).expect("slow connect");
            let _ = stream.set_nodelay(true);
            slow_streams.push(stream.try_clone().expect("clone slow stream"));
            let streams = Arc::clone(streams);
            std::thread::spawn(move || {
                let mut client = KvClient::from_stream(stream);
                let frames = &streams[s % streams.len()];
                loop {
                    for f in frames {
                        if client.send_wire(std::slice::from_ref(f)).is_err() {
                            return;
                        }
                        // Paced, not flat out: a slow consumer's defining
                        // load is the backlog it refuses to read, not a
                        // request flood — full-speed senders would turn
                        // the cell into an engine-contention benchmark.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        })
        .collect();
    if slow_consumers > 0 {
        // Don't start the clock until the wedge is real: at least one
        // connection parked on WRITABLE readiness.
        let deadline = Instant::now() + Duration::from_secs(10);
        while stats.sd_writable_parks.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    let threads = connections.min(MAX_CLIENT_THREADS);
    let per_thread = connections.div_ceil(threads);
    let go = Arc::new(Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let go = Arc::clone(&go);
            let streams = Arc::clone(streams);
            let window = opts.window;
            std::thread::spawn(move || {
                let lo = t * per_thread;
                let hi = ((t + 1) * per_thread).min(streams.len());
                let mut clients: Vec<KvClient> = (lo..hi)
                    .map(|_| KvClient::connect(addr).expect("connect"))
                    .collect();
                go.wait();
                let mut latencies = Vec::new();
                for (c, i) in clients.iter_mut().zip(lo..hi) {
                    drive_conn(c, &streams[i], window, &mut latencies).expect("client I/O");
                }
                latencies
            })
        })
        .collect();
    go.wait();
    let mut latencies: Vec<Duration> = Vec::new();
    for w in workers {
        latencies.extend(w.join().expect("client thread"));
    }

    for s in &slow_streams {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
    for t in slow_threads {
        let _ = t.join();
    }
    server.shutdown();

    latencies.sort_unstable();
    (percentile_us(&latencies, 0.99), stats)
}

/// Measure the slow-consumer isolation cell at `connections`: a
/// baseline pass (no slow consumers) and a wedged pass, same fleet and
/// workload, comparing the healthy fleet's p99.
#[must_use]
pub fn run_slow_cell(opts: &ConnpathOptions, connections: usize) -> SlowCell {
    let (engine, streams) = build_workload(opts, connections);
    let engine = Arc::new(Mutex::new(engine));
    let streams = Arc::new(streams);
    let (base_p99_us, _) = measure_slow_pass(opts, connections, &engine, &streams, 0);
    let (slow_p99_us, stats) =
        measure_slow_pass(opts, connections, &engine, &streams, SLOW_CONSUMERS);
    SlowCell {
        connections,
        slow_consumers: SLOW_CONSUMERS,
        base_p99_us,
        slow_p99_us,
        healthy_p99_ratio: if base_p99_us > 0.0 {
            slow_p99_us / base_p99_us
        } else {
            0.0
        },
        sd_writable_parks: stats.sd_writable_parks.get(),
        sd_read_pauses: stats.sd_read_pauses.get(),
        sd_stall_retired: stats.sd_stall_retired.get(),
        sd_pending_hiwater: stats.sd_pending_bytes_hiwater.get(),
    }
}

/// Measure one connection count on one backend with a freshly built
/// workload (the library entry point the smoke test uses).
#[must_use]
pub fn run_cell(opts: &ConnpathOptions, connections: usize, backend: IoBackend) -> ConnCell {
    let (engine, streams) = build_workload(opts, connections);
    measure_cell(
        opts,
        connections,
        backend,
        &Arc::new(Mutex::new(engine)),
        &Arc::new(streams),
    )
}

/// The backends the sweep measures on this kernel: always epoll, plus
/// uring when the probe finds a usable ring (a thin alias of
/// [`dido_net::backend_matrix`], so bench and test matrices agree).
#[must_use]
pub fn sweep_backends() -> Vec<IoBackend> {
    backend_matrix()
}

/// Concurrent connections each protopath cell drives (quick mode
/// halves twice: the cell measures codec cost, not connection scale).
pub const PROTO_CONNECTIONS: usize = 32;

/// Distinct keys the protopath population stores (quick: 512).
pub const PROTO_KEYS: usize = 4096;

/// One protocol front-door measurement: the same pipelined multi-GET
/// workload over the same engine and key population, differing only in
/// the wire protocol the listener speaks (`DESIGN.md` §16).
#[derive(Debug, Clone, Copy)]
pub struct ProtoCell {
    /// Wire protocol the measured listener spoke.
    pub proto: ProtocolKind,
    /// I/O backend the server ran on.
    pub io_backend: IoBackend,
    /// Concurrent connections held open through the cell.
    pub connections: usize,
    /// Requests completed over the best run (each carries
    /// `frame_queries` GETs).
    pub requests: u64,
    /// End-to-end throughput, queries/sec, best repeat.
    pub throughput_qps: f64,
    /// Request-stream bytes per query — the protocol's ingress wire
    /// cost.
    pub request_bytes_per_query: f64,
    /// Reply-stream bytes per query over the best run — the egress
    /// wire cost.
    pub reply_bytes_per_query: f64,
    /// Lowest throughput across the cell's repeats, queries/sec.
    pub qps_min: f64,
    /// Mean throughput across the cell's repeats, queries/sec.
    pub qps_mean: f64,
    /// Highest throughput across the cell's repeats, queries/sec.
    pub qps_max: f64,
    /// `(max - min) / mean` across repeats.
    pub qps_rel_spread: f64,
}

/// The protopath key for id `i`: 16 bytes, memcached-text safe, and —
/// with the value below — sized into the same slab class as the K16
/// preload, so population SETs evict preloaded objects instead of
/// dying on a class with no slabs.
fn proto_key(i: usize) -> String {
    format!("pp:{i:012x}p")
}

fn proto_value() -> Vec<u8> {
    vec![b'v'; Dataset::K16.value_size()]
}

/// Deterministic key-id sequence shared by every protocol's cell, so
/// the three front doors request identical keys in identical order.
struct ProtoIds(u64);

impl ProtoIds {
    fn next(&mut self, n_keys: usize) -> usize {
        // xorshift64*: cheap, seedable, and good enough to spread GETs.
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16) as usize % n_keys
    }
}

/// Build one connection's pipelined request stream for `proto`: each
/// request asks for `frame_queries` keys (a dido GET frame, a memcached
/// multi-key `get`, a RESP `MGET`).
fn proto_requests(
    proto: ProtocolKind,
    ids: &mut ProtoIds,
    n_keys: usize,
    requests: usize,
    frame_queries: usize,
) -> Vec<Bytes> {
    (0..requests)
        .map(|_| {
            let keys: Vec<String> = (0..frame_queries)
                .map(|_| proto_key(ids.next(n_keys)))
                .collect();
            match proto {
                ProtocolKind::Dido => {
                    let batch: Vec<Query> =
                        keys.iter().map(|k| Query::get(k.clone().into_bytes())).collect();
                    let mut wire = BytesMut::new();
                    encode_queries_wire_into(&mut wire, &batch);
                    wire.freeze()
                }
                ProtocolKind::Memcached => {
                    let mut line = String::from("get");
                    for k in &keys {
                        line.push(' ');
                        line.push_str(k);
                    }
                    line.push_str("\r\n");
                    Bytes::from(line.into_bytes())
                }
                ProtocolKind::Resp => {
                    let mut wire = format!("*{}\r\n$4\r\nMGET\r\n", keys.len() + 1).into_bytes();
                    for k in &keys {
                        wire.extend_from_slice(format!("${}\r\n{k}\r\n", k.len()).as_bytes());
                    }
                    Bytes::from(wire)
                }
            }
        })
        .collect()
}

/// Drain complete replies from the front of `buf`, returning how many
/// requests they answer. Partial tails stay buffered.
fn drain_replies(proto: ProtocolKind, buf: &mut BytesMut) -> usize {
    let mut done = 0;
    while let Some(n) = next_reply_len(proto, buf) {
        let _ = buf.split_to(n);
        done += 1;
    }
    done
}

/// Byte length of the complete reply at the start of `buf`, or `None`
/// while it is still partial.
fn next_reply_len(proto: ProtocolKind, buf: &[u8]) -> Option<usize> {
    match proto {
        ProtocolKind::Dido => {
            // One length-prefixed response frame answers one request.
            if buf.len() < 4 {
                return None;
            }
            let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
            (buf.len() >= 4 + len).then_some(4 + len)
        }
        ProtocolKind::Memcached => {
            // VALUE lines (with length-prefixed data blocks, so values
            // containing "END\r\n" can't fake a terminator) until the
            // END line.
            let mut pos = 0;
            loop {
                let lf = buf[pos..].iter().position(|&b| b == b'\n')?;
                let line = &buf[pos..pos + lf];
                let line_len = lf + 1;
                if line.starts_with(b"VALUE ") {
                    let bytes_tok = line
                        .split(|&b| b == b' ')
                        .filter(|t| !t.is_empty())
                        .nth(3)
                        .expect("VALUE line bytes field");
                    let n: usize = std::str::from_utf8(bytes_tok)
                        .ok()
                        .and_then(|s| s.trim_end().parse().ok())
                        .expect("VALUE bytes field numeric");
                    let total = line_len + n + 2;
                    if buf.len() < pos + total {
                        return None;
                    }
                    pos += total;
                } else if line.starts_with(b"END") {
                    return Some(pos + line_len);
                } else {
                    // ERROR / SERVER_ERROR lines answer the request too.
                    return Some(pos + line_len);
                }
            }
        }
        ProtocolKind::Resp => resp_reply_len(buf),
    }
}

/// Length of one complete RESP reply (`*N` array of bulks, a bulk, or
/// a simple/error/integer line), or `None` while partial.
fn resp_reply_len(buf: &[u8]) -> Option<usize> {
    fn line_end(buf: &[u8], pos: usize) -> Option<usize> {
        buf[pos..].iter().position(|&b| b == b'\n').map(|lf| pos + lf + 1)
    }
    fn bulk_len(buf: &[u8], pos: usize) -> Option<usize> {
        debug_assert_eq!(buf[pos], b'$');
        let end = line_end(buf, pos)?;
        let digits = std::str::from_utf8(&buf[pos + 1..end - 2]).ok()?;
        let n: i64 = digits.parse().expect("bulk length numeric");
        if n < 0 {
            return Some(end); // $-1\r\n null
        }
        let total = end + n as usize + 2;
        (buf.len() >= total).then_some(total)
    }
    match buf.first()? {
        b'*' => {
            let mut pos = line_end(buf, 0)?;
            let n: usize = std::str::from_utf8(&buf[1..pos - 2])
                .ok()
                .and_then(|s| s.parse().ok())
                .expect("array length numeric");
            for _ in 0..n {
                if buf.len() <= pos {
                    return None;
                }
                pos = bulk_len(buf, pos)?;
            }
            Some(pos)
        }
        b'$' => bulk_len(buf, 0),
        b'+' | b'-' | b':' => line_end(buf, 0),
        other => panic!("desynced RESP reply stream (byte {other:#x})"),
    }
}

/// Drive one connection's request stream with a sliding window,
/// returning the reply bytes received.
fn drive_proto_conn(
    stream: &mut std::net::TcpStream,
    proto: ProtocolKind,
    requests: &[Bytes],
    window: usize,
) -> std::io::Result<u64> {
    let mut rx = BytesMut::new();
    let mut tmp = vec![0u8; 64 << 10];
    let mut rx_bytes = 0u64;
    let mut next = 0;
    let mut inflight = 0;
    let mut done = 0;
    while done < requests.len() {
        while inflight < window && next < requests.len() {
            stream.write_all(&requests[next])?;
            next += 1;
            inflight += 1;
        }
        let n = match stream.read(&mut tmp) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-run",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        rx_bytes += n as u64;
        rx.extend_from_slice(&tmp[..n]);
        let c = drain_replies(proto, &mut rx);
        done += c;
        inflight -= c;
    }
    Ok(rx_bytes)
}

/// One protopath measurement pass: connect the fleet to `addr`, drive
/// every stream, and return `(elapsed, requests, tx_bytes, rx_bytes)`.
fn measure_proto_pass(
    addr: std::net::SocketAddr,
    proto: ProtocolKind,
    streams: &Arc<Vec<Vec<Bytes>>>,
    window: usize,
) -> (Duration, u64, u64, u64) {
    let threads = streams.len();
    let go = Arc::new(Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let go = Arc::clone(&go);
            let streams = Arc::clone(streams);
            std::thread::spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                go.wait();
                let rx = drive_proto_conn(&mut stream, proto, &streams[t], window)
                    .expect("protopath client I/O");
                (streams[t].len() as u64, rx)
            })
        })
        .collect();
    go.wait();
    let start = Instant::now();
    let mut requests = 0u64;
    let mut rx_bytes = 0u64;
    for w in workers {
        let (reqs, rx) = w.join().expect("protopath thread");
        requests += reqs;
        rx_bytes += rx;
    }
    let elapsed = start.elapsed();
    let tx_bytes: u64 = streams
        .iter()
        .flatten()
        .map(|r| r.len() as u64)
        .sum();
    (elapsed, requests, tx_bytes, rx_bytes)
}

/// Run the protocol front-door comparison: one multi-protocol server
/// per backend (dido + memcached + RESP listeners over one engine),
/// the protocols' repeats interleaved inside one process window — on a
/// shared box, cells taken minutes apart measure the machine's mood,
/// not the codec (see `ConnpathReport::qps_rel_spread` for the floor).
pub fn run_protopath(
    opts: &ConnpathOptions,
    mut progress: impl FnMut(&ProtoCell),
) -> Vec<ProtoCell> {
    let connections = if opts.quick {
        PROTO_CONNECTIONS / 4
    } else {
        PROTO_CONNECTIONS
    };
    let n_keys = if opts.quick { 512 } else { PROTO_KEYS };
    let requests_per_conn = opts.frames_per_conn(connections);
    let protos = ProtocolKind::all();

    // Identical per-connection request streams for every protocol:
    // same seed, same key-id sequence, different wire encoding.
    let streams: Vec<Arc<Vec<Vec<Bytes>>>> = protos
        .iter()
        .map(|&proto| {
            let mut ids = ProtoIds(opts.seed | 1);
            Arc::new(
                (0..connections)
                    .map(|_| {
                        proto_requests(proto, &mut ids, n_keys, requests_per_conn, opts.frame_queries)
                    })
                    .collect(),
            )
        })
        .collect();

    let mut cells = Vec::new();
    for backend in sweep_backends() {
        let spec = WorkloadSpec::new(Dataset::K16, 0.95, KeyDistribution::YCSB_ZIPF);
        let hw = HwSpec::kaveri_apu();
        let topts = TestbedOptions {
            store_bytes: opts.store_bytes,
            seed: opts.seed,
            ..TestbedOptions::default()
        };
        let (engine, _) = preloaded_engine(spec, &hw, topts);
        let engine = Arc::new(Mutex::new(engine));
        let ctx = all_on_cpu_ctx();
        let handler = {
            let engine = Arc::clone(&engine);
            move |_lane: usize, queries: Vec<Query>| {
                let engine = engine.lock();
                run_vectorized_batch(ctx, &engine, queries, PipelineConfig::mega_kv())
            }
        };
        let server = KvServer::start_multi(
            &[
                ("127.0.0.1:0", ProtocolKind::Dido),
                ("127.0.0.1:0", ProtocolKind::Memcached),
                ("127.0.0.1:0", ProtocolKind::Resp),
            ],
            DispatchMode::Batched(BatchConfig {
                io_backend: backend.into(),
                ..BatchConfig::default()
            }),
            handler,
        )
        .expect("bind multi-proto server");
        let addrs = server.addrs().to_vec();

        // Populate through the native door; every key lands in the K16
        // slab class, evicting preloaded objects.
        let mut pop = KvClient::connect(addrs[0]).expect("populate connect");
        for chunk in (0..n_keys).collect::<Vec<_>>().chunks(512) {
            let batch: Vec<Query> = chunk
                .iter()
                .map(|&i| Query::set(proto_key(i).into_bytes(), proto_value()))
                .collect();
            pop.request(&batch).expect("populate");
        }
        drop(pop);

        // Interleave the protocols inside each repeat round.
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); protos.len()];
        let mut best: Vec<Option<ProtoCell>> = vec![None; protos.len()];
        for _ in 0..opts.repeats.max(1) {
            for (pi, &proto) in protos.iter().enumerate() {
                let (elapsed, requests, tx, rx) =
                    measure_proto_pass(addrs[pi], proto, &streams[pi], opts.window);
                let queries = requests * opts.frame_queries as u64;
                let qps = queries as f64 / elapsed.as_secs_f64();
                samples[pi].push(qps);
                if best[pi].is_none_or(|b: ProtoCell| qps > b.throughput_qps) {
                    best[pi] = Some(ProtoCell {
                        proto,
                        io_backend: backend,
                        connections,
                        requests,
                        throughput_qps: qps,
                        request_bytes_per_query: tx as f64 / queries as f64,
                        reply_bytes_per_query: rx as f64 / queries as f64,
                        qps_min: qps,
                        qps_mean: qps,
                        qps_max: qps,
                        qps_rel_spread: 0.0,
                    });
                }
            }
        }
        server.shutdown();
        for (pi, best) in best.into_iter().enumerate() {
            let mut cell = best.expect("at least one repeat");
            let qps = &samples[pi];
            let min = qps.iter().copied().fold(f64::INFINITY, f64::min);
            let max = qps.iter().copied().fold(0.0, f64::max);
            let mean = qps.iter().sum::<f64>() / qps.len() as f64;
            cell.qps_min = min;
            cell.qps_mean = mean;
            cell.qps_max = max;
            cell.qps_rel_spread = if mean > 0.0 { (max - min) / mean } else { 0.0 };
            progress(&cell);
            cells.push(cell);
        }
    }
    cells
}

/// Run the connection sweep on every available backend. Repeats
/// interleave the backends (epoll, uring, epoll, uring, ...) so both
/// sides of every comparison sample the same process window — on a
/// shared box, comparing an epoll run against a uring run taken
/// minutes apart measures the machine's mood, not the backend.
/// `progress` receives each finished cell.
pub fn run_connpath(opts: &ConnpathOptions, mut progress: impl FnMut(&ConnCell)) -> ConnpathReport {
    let backends = sweep_backends();
    let mut cells = Vec::new();
    for connections in opts.connections() {
        let (engine, streams) = build_workload(opts, connections);
        let engine = Arc::new(Mutex::new(engine));
        let streams = Arc::new(streams);
        let mut best: Vec<Option<ConnCell>> = vec![None; backends.len()];
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); backends.len()];
        for _ in 0..opts.repeats.max(1) {
            for (bi, &backend) in backends.iter().enumerate() {
                let cell = measure_cell(opts, connections, backend, &engine, &streams);
                samples[bi].push(cell.throughput_qps);
                if best[bi].is_none_or(|b| cell.throughput_qps > b.throughput_qps) {
                    best[bi] = Some(cell);
                }
            }
        }
        for (bi, best) in best.into_iter().enumerate() {
            let mut cell = best.expect("at least one repeat");
            let qps = &samples[bi];
            let min = qps.iter().copied().fold(f64::INFINITY, f64::min);
            let max = qps.iter().copied().fold(0.0, f64::max);
            let mean = qps.iter().sum::<f64>() / qps.len() as f64;
            cell.qps_min = min;
            cell.qps_mean = mean;
            cell.qps_max = max;
            cell.qps_rel_spread = if mean > 0.0 { (max - min) / mean } else { 0.0 };
            progress(&cell);
            cells.push(cell);
        }
    }
    // The slow-consumer isolation cell runs at the sweep's middle scale
    // (512 connections full, 64 quick).
    let slow = opts
        .connections()
        .get(1)
        .copied()
        .map(|connections| run_slow_cell(opts, connections));
    // The protocol front-door comparison (its own small fleet; the
    // protocols interleave inside each repeat round).
    let protopath = run_protopath(opts, |_| {});
    ConnpathReport {
        opts: *opts,
        cells,
        slow,
        protopath,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny fleet over a live loopback server, once per available
    /// backend: the harness must open every connection up front and
    /// round-trip real traffic.
    #[test]
    fn smoke_cell_small_fleet() {
        let opts = ConnpathOptions {
            store_bytes: 1 << 20,
            target_frames: 32,
            window: 4,
            frame_queries: 4,
            ..ConnpathOptions::quick()
        };
        for backend in sweep_backends() {
            let cell = run_cell(&opts, 8, backend);
            assert_eq!(cell.connections, 8);
            assert_eq!(cell.io_backend, backend);
            assert_eq!(cell.registered_conns, 8, "fleet not fully registered");
            assert!(cell.reader_threads >= 1);
            assert!(cell.throughput_qps > 0.0, "no traffic measured");
            assert!(cell.p99_us >= cell.p50_us, "percentiles inverted");
            assert!(cell.sd_writer_threads >= 1, "egress plane not running");
            assert!(cell.ring_enters > 0, "no I/O-plane syscalls counted");
            assert!(
                cell.syscalls_per_query > 0.0,
                "syscalls-per-query not derived"
            );
            assert!(
                (0.0..=1.0).contains(&cell.sd_buf_hit_rate),
                "hit rate out of range: {}",
                cell.sd_buf_hit_rate
            );
        }
    }

    /// A tiny protopath run over a live multi-protocol server: every
    /// front door must move real traffic and account its wire bytes.
    #[test]
    fn smoke_protopath_small() {
        let opts = ConnpathOptions {
            store_bytes: 4 << 20,
            target_frames: 64,
            window: 4,
            frame_queries: 4,
            repeats: 1,
            ..ConnpathOptions::quick()
        };
        let cells = run_protopath(&opts, |_| {});
        let backends = sweep_backends().len();
        assert_eq!(cells.len(), 3 * backends, "one cell per proto per backend");
        for c in &cells {
            assert!(c.throughput_qps > 0.0, "{} moved no traffic", c.proto);
            assert!(c.requests > 0, "{} completed no requests", c.proto);
            assert!(
                c.request_bytes_per_query > 0.0 && c.reply_bytes_per_query > 0.0,
                "{} wire accounting missing",
                c.proto
            );
        }
        // All three protocols ran on each backend.
        for backend in sweep_backends() {
            let protos: Vec<_> = cells
                .iter()
                .filter(|c| c.io_backend == backend)
                .map(|c| c.proto)
                .collect();
            assert_eq!(protos.len(), 3, "{backend:?}");
        }
    }

    #[test]
    fn report_json_and_acceptance() {
        let mk = |connections: usize, backend: IoBackend, readers: u64, qps: f64| ConnCell {
            connections,
            io_backend: backend,
            reader_threads: readers,
            registered_conns: connections as u64,
            throughput_qps: qps,
            p50_us: 100.0,
            p99_us: 900.0,
            mean_batch_frames: 40.0,
            reactor_wakeups: 1000,
            sd_writer_threads: 2,
            sd_writable_parks: 3,
            sd_pending_hiwater: 65536,
            sd_buf_hit_rate: 0.98,
            ring_enters: 2000,
            syscalls_per_query: if backend == IoBackend::Uring {
                0.01
            } else {
                0.04
            },
            qps_min: qps * 0.9,
            qps_mean: qps * 0.95,
            qps_max: qps,
            qps_rel_spread: 0.105,
        };
        let slow_cell = SlowCell {
            connections: 512,
            slow_consumers: SLOW_CONSUMERS,
            base_p99_us: 900.0,
            slow_p99_us: 1200.0,
            healthy_p99_ratio: 1200.0 / 900.0,
            sd_writable_parks: 12,
            sd_read_pauses: 4,
            sd_stall_retired: 0,
            sd_pending_hiwater: 262144,
        };
        let report = ConnpathReport {
            opts: ConnpathOptions::default(),
            cells: vec![
                mk(64, IoBackend::Epoll, 4, 1.00e6),
                mk(64, IoBackend::Uring, 4, 1.05e6),
                mk(512, IoBackend::Epoll, 4, 9.5e5),
                mk(512, IoBackend::Uring, 4, 9.6e5),
                mk(4096, IoBackend::Epoll, 4, 9.0e5),
                mk(4096, IoBackend::Uring, 4, 9.9e5),
            ],
            slow: Some(slow_cell),
            protopath: vec![ProtoCell {
                proto: ProtocolKind::Memcached,
                io_backend: IoBackend::Epoll,
                connections: 32,
                requests: 16384,
                throughput_qps: 8.0e5,
                request_bytes_per_query: 17.25,
                reply_bytes_per_query: 130.5,
                qps_min: 7.0e5,
                qps_mean: 7.5e5,
                qps_max: 8.0e5,
                qps_rel_spread: 0.1333,
            }],
        };
        assert!(report.flat_readers());
        // The uring comparison reads the largest cell: 9.9e5 / 9.0e5
        // throughput, 0.04 / 0.01 syscalls per query.
        assert!((report.uring_throughput_ratio().unwrap() - 1.1).abs() < 1e-9);
        assert!((report.uring_syscall_ratio().unwrap() - 4.0).abs() < 1e-9);
        let json = report.to_json();
        assert!(json.contains("\"flat_readers_pass\": true"));
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"uring_ratios\": \"reported, not gated;"));
        assert!(!json.contains("uring_guard"));
        assert!(!json.contains("netpath"));
        assert!(json.contains("\"io_backend\": \"epoll\""));
        assert!(json.contains("\"io_backend\": \"uring\""));
        assert!(json.contains("\"uring_throughput_ratio\": 1.100"));
        assert!(json.contains("\"uring_syscall_ratio\": 4.00"));
        assert!(json.contains("\"ring_enters\": 2000"));
        assert!(json.contains("\"syscalls_per_query\": 0.010"));
        assert!(json.contains("\"qps_rel_spread\": 0.1050"));
        assert!(json.contains("\"sd_writer_threads\": 2"));
        assert!(json.contains("\"sd_buf_ring_hit_rate\": 0.9800"));
        assert!(json.contains("\"healthy_p99_ratio\": 1.333"));
        assert!(json.contains("\"healthy_p99_within_2x\": true"));
        assert!(json.contains("\"proto\": \"memcached\""));
        assert!(json.contains("\"request_bytes_per_query\": 17.25"));
        assert!(json.contains("\"reply_bytes_per_query\": 130.50"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        // Reader count scaling with the fleet: flat_readers must fail.
        let scaling = ConnpathReport {
            opts: ConnpathOptions::default(),
            cells: vec![
                mk(64, IoBackend::Epoll, 64, 1.0e6),
                mk(512, IoBackend::Epoll, 512, 1.0e6),
            ],
            slow: None,
            protopath: Vec::new(),
        };
        assert!(!scaling.flat_readers());
        // Epoll-only sweep (kernel without io_uring): the uring
        // comparison is null, not a failure.
        assert_eq!(scaling.uring_throughput_ratio(), None);
        assert_eq!(scaling.uring_syscall_ratio(), None);
        let scaling_json = scaling.to_json();
        assert!(scaling_json.contains("\"pass\": false"));
        assert!(scaling_json.contains("\"slow_consumer\": null"));
        assert!(scaling_json.contains("\"uring_throughput_ratio\": null"));
    }
}
