//! The front-end's counters: declared once each with their fold kind,
//! recorded by the reactors, dispatchers and SD shards, rendered here.

use crate::codec::{ProtocolKind, PROTOCOL_KINDS};
use crate::driver::IoBackend;
use dido_model::{metric_table, write_metric, Counter, Gauge, Hist, Max};
use std::fmt;

metric_table! {
    /// Server statistics, cumulative since start. Rows are grouped by
    /// the stats line they print on (`LINES`); a new row joins the line
    /// of the group it is declared in.
    pub struct ServerStats;
    /// Plain-value snapshot of [`ServerStats`]; its `Display` is the
    /// network half of the `--stats-every` block.
    pub struct NetStatsSnapshot;

    /// Connections accepted.
    connections: Counter,
    /// Query frames served.
    frames: Counter,
    /// Individual queries answered.
    queries: Counter,
    /// Malformed frames rejected.
    bad_frames: Counter,
    /// Frames dropped because the shared RX ring was full (each one is
    /// answered with an empty response frame so the client's
    /// request/response accounting stays aligned).
    dropped_frames: Counter,
    /// Dispatcher drains executed.
    dispatches: Counter,
    /// Frames aggregated across all dispatches.
    dispatched_frames: Counter,
    /// Queries aggregated across all dispatches.
    dispatched_queries: Counter,
    /// Dispatches that waited out the full drain window without
    /// accumulating a wavefront (the latency-bound regime of Fig. 9).
    delayed_dispatches: Counter,
    /// Deepest RX-ring occupancy observed at drain time.
    ring_depth_max: Max,
    /// Frames per dispatch.
    batch_hist: Hist,

    /// Reactor threads serving the data path (set at spawn).
    reactor_threads: Gauge,
    /// Connections currently registered with a reactor.
    reactor_conns: Gauge,
    /// Readiness wakeups across all reactors (waits that returned at
    /// least one completion).
    reactor_wakeups: Counter,
    /// Frames carved per reactor read completion. High buckets mean
    /// reads are amortizing framing well.
    read_burst_hist: Hist,

    /// Connections currently open inside the SD writer: every accepted
    /// connection enters here and leaves when it is retired, so a
    /// steady value under churn means no reorder-buffer leak.
    sd_open_conns: Gauge,
    /// SD egress shard threads (set at spawn).
    sd_writer_threads: Gauge,
    /// Response runs the SD writer freed without putting them on the
    /// wire: the socket died mid-stream, or runs were still parked in
    /// the reorder buffer when the connection was retired or the server
    /// shut down. A leak-detector counter.
    sd_pending_dropped: Counter,
    /// Connections retired because they stayed unwritable past
    /// `BatchConfig::sd_stall_timeout`.
    sd_stall_retired: Counter,
    /// Times a connection's write came up short and was parked on
    /// WRITABLE readiness instead of blocking its SD shard.
    sd_writable_parks: Counter,
    /// Times slow-consumer backpressure paused a connection's READ
    /// interest (pending bytes crossed the high-water mark).
    sd_read_pauses: Counter,
    /// Encode buffers served from an SD shard's reuse ring.
    sd_buf_hits: Counter,
    /// Encode buffers that had to be freshly allocated (ring dry).
    sd_buf_misses: Counter,
    /// Deepest per-connection pending-bytes backlog observed by the SD
    /// plane.
    sd_pending_bytes_hiwater: Max,

    /// Which I/O backend the planes resolved at spawn (0 = epoll,
    /// 1 = io_uring; see [`IoBackend`]).
    io_backend: Gauge,
    /// I/O-plane syscalls issued by reactors and SD shards, as counted
    /// by their drivers: every `io_uring_enter` on the uring backend;
    /// every `epoll_wait`, `read`, and `writev` on the epoll backend.
    ring_enters: Counter,
    /// Completions one `IoDriver::wait` returned to a reactor or SD
    /// shard (CQEs per `io_uring_enter` on the uring backend; empty
    /// waits are not recorded). High buckets mean one wait amortizes
    /// many per-connection reads/writes.
    cqe_per_enter_hist: Hist,

    /// Connections accepted per protocol ([`ProtocolKind::index`]).
    proto_conns: [Counter; PROTOCOL_KINDS],
    /// Queries decoded per protocol (a multi-key `get`/`MGET` counts
    /// once per key).
    proto_queries: [Counter; PROTOCOL_KINDS],
    /// Requests rejected with a per-protocol error reply (malformed
    /// frame, bad command line, bad data chunk).
    proto_parse_errors: [Counter; PROTOCOL_KINDS],
}

/// The stats lines: `(first metric on the line, label)`. A line carries
/// every metric from its first up to the next line's first.
const LINES: [(&str, &str); 5] = [
    ("connections", "net"),
    ("reactor_threads", "reactors"),
    ("sd_open_conns", "sd"),
    ("io_backend", "io"),
    ("proto_conns", "proto"),
];

impl ServerStats {
    pub(crate) fn record_dispatch(
        &self,
        frames: u64,
        queries: u64,
        ring_depth: u64,
        delayed: bool,
    ) {
        self.dispatches.add(1);
        self.dispatched_frames.add(frames);
        self.dispatched_queries.add(queries);
        self.ring_depth_max.observe(ring_depth);
        if delayed {
            self.delayed_dispatches.add(1);
        }
        self.batch_hist.observe(frames);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl NetStatsSnapshot {
    /// Mean frames aggregated per dispatch (0 when nothing dispatched).
    #[must_use]
    pub fn mean_batch_frames(&self) -> f64 {
        ratio(self.dispatched_frames, self.dispatches)
    }
}

/// One line per `LINES` group, every declared metric as a
/// `name=value` token plus the group's derived ratios. A group with
/// nothing to say prints nothing: no `net:` line before traffic, no
/// `proto:` line while every connection speaks DIDO.
impl fmt::Display for NetStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rows = Vec::new();
        self.for_each(|name, _, slots| rows.push((name, slots)));
        let start = |first: &str| {
            rows.iter()
                .position(|(name, _)| *name == first)
                .expect("every line starts at a declared metric")
        };
        for (i, (first, label)) in LINES.iter().enumerate() {
            let end = LINES.get(i + 1).map_or(rows.len(), |(next, _)| start(next));
            let group = &rows[start(first)..end];
            // The proto line skips slot 0 (DIDO): an all-DIDO node
            // keeps its block short.
            let skip = usize::from(*label == "proto");
            if group.iter().all(|(_, s)| s[skip..].iter().all(|&v| v == 0)) {
                continue;
            }
            write!(f, "{label}")?;
            if *label == "proto" {
                let names = ProtocolKind::all().map(ProtocolKind::as_str);
                write!(f, "({})", names.join("/"))?;
            }
            f.write_str(":")?;
            for (name, slots) in group {
                f.write_str(" ")?;
                write_metric(f, name, slots)?;
            }
            match *label {
                "net" => write!(f, " frames/dispatch={:.1}", self.mean_batch_frames())?,
                "sd" => {
                    let lookups = self.sd_buf_hits + self.sd_buf_misses;
                    write!(f, " buf_hit_rate={:.3}", ratio(self.sd_buf_hits, lookups))?;
                }
                "io" => {
                    // Bucket upper bounds make cqes/enter approximate;
                    // it still shows whether completions arrive in
                    // batches or dribbles.
                    let cqes: u64 = (0..)
                        .zip(self.cqe_per_enter_hist)
                        .map(|(i, n)| n << i)
                        .sum();
                    let waits: u64 = self.cqe_per_enter_hist.iter().sum();
                    write!(
                        f,
                        " backend={} syscalls/query={:.2} ~cqes/enter={:.1}",
                        IoBackend::name_of(self.io_backend),
                        ratio(self.ring_enters, self.dispatched_queries),
                        ratio(cqes, waits)
                    )?;
                }
                _ => {}
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_metric_is_on_a_stats_line() {
        // One live metric per line, so no line is gated out.
        let s = NetStatsSnapshot {
            connections: 3,
            reactor_threads: 2,
            sd_open_conns: 1,
            io_backend: 1,
            proto_conns: [1, 1, 1],
            ..NetStatsSnapshot::default()
        };
        let text = s.to_string();
        s.for_each(|name, _, _| {
            assert!(text.contains(&format!(" {name}=")), "{name} missing from:\n{text}");
        });
        let labels: Vec<&str> = text
            .lines()
            .map(|l| l.split([':', '(']).next().unwrap())
            .collect();
        assert_eq!(labels, ["net", "reactors", "sd", "io", "proto"]);
        assert!(text.contains(" connections=3 "), "{text}");
        assert!(text.contains("backend=uring"), "{text}");
    }

    #[test]
    fn quiet_groups_print_nothing() {
        assert_eq!(
            NetStatsSnapshot::default().to_string(),
            "",
            "no net: line before traffic"
        );
        let mut s = NetStatsSnapshot {
            connections: 5,
            dispatches: 4,
            dispatched_frames: 10,
            sd_buf_hits: 40,
            sd_buf_misses: 10,
            proto_conns: [5, 0, 0],
            proto_queries: [900, 0, 0],
            ..NetStatsSnapshot::default()
        };
        let text = s.to_string();
        assert!(text.starts_with("net: connections=5 "), "{text}");
        assert!(text.contains("frames/dispatch=2.5"), "{text}");
        assert!(text.contains("buf_hit_rate=0.800"), "{text}");
        assert!(
            !text.contains("reactors:") && !text.contains("io:"),
            "{text}"
        );
        assert!(
            !text.contains("proto"),
            "all-DIDO traffic has no proto line: {text}"
        );
        s.proto_parse_errors[ProtocolKind::Memcached.index()] = 3;
        let text = s.to_string();
        assert!(
            text.contains("proto(dido/memcached/resp): proto_conns=5/0/0 proto_queries=900/0/0 proto_parse_errors=0/3/0"),
            "{text}"
        );
    }

    #[test]
    fn per_protocol_cells_index_by_protocol_kind() {
        let stats = ServerStats::default();
        for k in ProtocolKind::all() {
            stats.proto_queries[k.index()].add(10 + k.index() as u64);
        }
        let s = stats.snapshot();
        assert_eq!(s.proto_queries[ProtocolKind::Dido.index()], 10);
        assert_eq!(s.proto_queries[ProtocolKind::Resp.index()], 12);
        assert_eq!(s.proto_queries.len(), PROTOCOL_KINDS);
    }
}
