//! Operational metrics for a running DIDO node.

use crate::striped::MemoryFold;
use dido_kvstore::ClassStats;
use dido_model::PipelineConfig;
use dido_net::NetStatsSnapshot;
use dido_pipeline::ExecStats;
use std::collections::BTreeMap;
use std::fmt;

/// Rolling counters accumulated over every processed batch.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// Batches processed.
    pub batches: u64,
    /// Queries processed.
    pub queries: u64,
    /// GET queries that resolved to an object.
    pub hits: u64,
    /// GET queries issued.
    pub gets: u64,
    /// Virtual time spent processing, ns.
    pub busy_ns: f64,
    /// Cost-model runs.
    pub model_runs: u64,
    /// Pipeline configuration changes.
    pub adaptions: u64,
    /// Completed live shard resizes (settled migrations).
    pub resizes: u64,
    /// Batches the simulated executor applied work stealing to.
    pub sim_steals: u64,
    /// Wavefront items the simulated executor moved between processors.
    pub sim_stolen_items: u64,
    /// Sub-batches claimed by their own stage thread (threaded
    /// executor; see [`ExecStats::owner_claims`]).
    pub owner_claims: u64,
    /// Sub-batches claimed by a steal helper (threaded executor).
    pub stolen_claims: u64,
    /// Steal attempts refused by the epoch guard (threaded executor;
    /// each one is a defused stale-group race).
    pub stale_rejects: u64,
    /// Batch groups handed to the steal helper (threaded executor).
    pub steal_groups: u64,
    /// Dispatcher drains executed by the batched network front-end.
    pub net_dispatches: u64,
    /// Frames aggregated across those network dispatches.
    pub net_frames: u64,
    /// Queries aggregated across those network dispatches.
    pub net_queries: u64,
    /// Frames dropped on network RX-ring overflow.
    pub net_dropped_frames: u64,
    /// Network dispatches that waited out the full drain window without
    /// accumulating a wavefront.
    pub net_delayed_dispatches: u64,
    /// Deepest network RX-ring occupancy observed at drain time.
    pub net_ring_depth_max: u64,
    /// Network frames-per-dispatch histogram (buckets
    /// `1, 2, 3–4, …, 65+`; see `dido_net::BATCH_HIST_BUCKETS`).
    pub net_batch_hist: [u64; dido_net::BATCH_HIST_BUCKETS],
    /// Reader (reactor) threads serving the connection plane — a gauge,
    /// folded by last value, not added.
    pub net_reactor_threads: u64,
    /// Connections currently registered with the reactors — a gauge,
    /// folded by last value.
    pub net_reactor_conns: u64,
    /// Reactor readiness wakeups (poll returns).
    pub net_reactor_wakeups: u64,
    /// Response runs freed without delivery — the peer disconnected
    /// with responses still parked in the SD reorder buffer.
    pub net_sd_pending_dropped: u64,
    /// Frames-per-readiness-read histogram (same buckets as
    /// [`Metrics::net_batch_hist`]): how many complete frames each
    /// reactor read burst produced.
    pub net_read_burst_hist: [u64; dido_net::BATCH_HIST_BUCKETS],
    /// SD egress shard threads — a gauge, folded by last value.
    pub net_sd_writer_threads: u64,
    /// Connections retired because their egress queue stayed parked past
    /// the stall deadline.
    pub net_sd_stall_retired: u64,
    /// Times an SD shard hit `WouldBlock` and parked a connection on
    /// WRITABLE readiness.
    pub net_sd_writable_parks: u64,
    /// Times slow-consumer backpressure paused a connection's READ
    /// interest in the reactor.
    pub net_sd_read_pauses: u64,
    /// Egress buffer-ring hits (recycled buffer served a response run).
    pub net_sd_buf_hits: u64,
    /// Egress buffer-ring misses (pool empty, fresh allocation).
    pub net_sd_buf_misses: u64,
    /// Highest per-connection pending egress bytes observed — folds by
    /// max, like [`Metrics::net_ring_depth_max`].
    pub net_sd_pending_hiwater: u64,
    /// Which I/O backend the front-end resolved (0 = epoll, 1 =
    /// io_uring) — a gauge, folded by last value.
    pub net_io_backend: u64,
    /// Comparable I/O syscalls: every `io_uring_enter` on the uring
    /// backend; every `epoll_wait`/`read`/`writev` on the epoll
    /// backend. Divide by `net_queries` for syscalls-per-query.
    pub net_ring_enters: u64,
    /// Connections accepted per front-door protocol, indexed by
    /// `dido_net::ProtocolKind::index` (dido, memcached, resp).
    pub net_proto_conns: [u64; dido_net::PROTOCOL_KINDS],
    /// Queries decoded per front-door protocol (same indexing).
    pub net_proto_queries: [u64; dido_net::PROTOCOL_KINDS],
    /// Requests answered with a per-protocol parse-error reply (same
    /// indexing).
    pub net_proto_parse_errors: [u64; dido_net::PROTOCOL_KINDS],
    /// Completions-per-driver-wait histogram (same buckets as
    /// [`Metrics::net_batch_hist`]; CQEs per `io_uring_enter` on the
    /// uring backend; empty waits not recorded).
    pub net_cqe_per_enter_hist: [u64; dido_net::BATCH_HIST_BUCKETS],
    /// Objects expired in-band on the lookup path — a cumulative engine
    /// counter folded by last value (the snapshot is already a total).
    pub expired_lazy: u64,
    /// Objects freed by whole-segment TTL reclamation — folded by last
    /// value, like [`Metrics::expired_lazy`].
    pub expired_proactive: u64,
    /// TTL segments reclaimed as a unit — folded by last value.
    pub segments_reclaimed: u64,
    /// Sealed TTL segments awaiting expiry — a gauge.
    pub sealed_segments: u64,
    /// Controller sweep ticks executed.
    pub sweeps: u64,
    /// Per-size-class occupancy / free-slot / fragmentation gauges —
    /// replaced wholesale by each sweep tick's snapshot.
    pub class_gauges: Vec<ClassStats>,
    /// Batches executed per configuration (display string → count).
    pub config_histogram: BTreeMap<String, u64>,
}

impl Metrics {
    /// Record one batch.
    pub(crate) fn record_batch(
        &mut self,
        config: PipelineConfig,
        queries: u64,
        gets: u64,
        hits: u64,
        t_max_ns: f64,
    ) {
        self.batches += 1;
        self.queries += queries;
        self.gets += gets;
        self.hits += hits;
        self.busy_ns += t_max_ns;
        *self.config_histogram.entry(config.to_string()).or_insert(0) += 1;
    }

    /// Fold a threaded executor's claim/steal counters into the node
    /// metrics, making stealing observable alongside the batch
    /// counters. `stats` is added as-is — pass a fresh pipeline's
    /// snapshot (or a delta between two snapshots), not a cumulative
    /// snapshot twice.
    pub fn record_exec_stats(&mut self, stats: &ExecStats) {
        self.owner_claims += stats.owner_claims;
        self.stolen_claims += stats.stolen_claims;
        self.stale_rejects += stats.stale_rejects;
        self.steal_groups += stats.steal_groups;
    }

    /// Fold a network front-end snapshot into the node metrics. Like
    /// [`Metrics::record_exec_stats`], `stats` is added as-is — pass a
    /// delta (see `NetStatsSnapshot::delta_since`), not the same
    /// cumulative snapshot twice. `ring_depth_max` folds by max, not by
    /// addition.
    pub fn record_net_stats(&mut self, stats: &NetStatsSnapshot) {
        self.net_dispatches += stats.dispatches;
        self.net_frames += stats.dispatched_frames;
        self.net_queries += stats.dispatched_queries;
        self.net_dropped_frames += stats.dropped_frames;
        self.net_delayed_dispatches += stats.delayed_dispatches;
        self.net_ring_depth_max = self.net_ring_depth_max.max(stats.ring_depth_max);
        for (acc, v) in self.net_batch_hist.iter_mut().zip(stats.batch_hist) {
            *acc += v;
        }
        // Gauges: `delta_since` carries the current value through, so
        // the latest snapshot wins rather than accumulating.
        self.net_reactor_threads = stats.reactor_threads;
        self.net_reactor_conns = stats.reactor_conns;
        self.net_reactor_wakeups += stats.reactor_wakeups;
        self.net_sd_pending_dropped += stats.sd_pending_dropped;
        for (acc, v) in self.net_read_burst_hist.iter_mut().zip(stats.read_burst_hist) {
            *acc += v;
        }
        self.net_sd_writer_threads = stats.sd_writer_threads;
        self.net_sd_stall_retired += stats.sd_stall_retired;
        self.net_sd_writable_parks += stats.sd_writable_parks;
        self.net_sd_read_pauses += stats.sd_read_pauses;
        self.net_sd_buf_hits += stats.sd_buf_hits;
        self.net_sd_buf_misses += stats.sd_buf_misses;
        self.net_sd_pending_hiwater = self
            .net_sd_pending_hiwater
            .max(stats.sd_pending_bytes_hiwater);
        self.net_io_backend = stats.io_backend;
        self.net_ring_enters += stats.ring_enters;
        for (acc, v) in self.net_proto_conns.iter_mut().zip(stats.proto_conns) {
            *acc += v;
        }
        for (acc, v) in self.net_proto_queries.iter_mut().zip(stats.proto_queries) {
            *acc += v;
        }
        for (acc, v) in self
            .net_proto_parse_errors
            .iter_mut()
            .zip(stats.proto_parse_errors)
        {
            *acc += v;
        }
        for (acc, v) in self
            .net_cqe_per_enter_hist
            .iter_mut()
            .zip(stats.cqe_per_enter_hist)
        {
            *acc += v;
        }
    }

    /// Fold a memory-plane snapshot into the node metrics. Everything
    /// in `fold` is a cumulative total or a gauge, so the latest
    /// snapshot replaces rather than adds (call sites pass the fold the
    /// controller just published to [`crate::StripedStats`]).
    pub fn record_memory(&mut self, fold: &MemoryFold) {
        self.expired_lazy = fold.expired_lazy;
        self.expired_proactive = fold.expired_proactive;
        self.segments_reclaimed = fold.segments_reclaimed;
        self.sealed_segments = fold.sealed_segments;
        self.class_gauges = fold.classes.clone();
    }

    /// Mean frames aggregated per network dispatch (0 when the batched
    /// front-end never ran).
    #[must_use]
    pub fn net_mean_batch_frames(&self) -> f64 {
        if self.net_dispatches == 0 {
            0.0
        } else {
            self.net_frames as f64 / self.net_dispatches as f64
        }
    }

    /// Record a simulated-executor steal outcome (`items` wavefront
    /// items moved between processors in one batch).
    pub(crate) fn record_sim_steal(&mut self, items: u64) {
        self.sim_steals += 1;
        self.sim_stolen_items += items;
    }

    /// GET hit rate in `[0, 1]` (1.0 when no GETs were issued).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.gets == 0 {
            1.0
        } else {
            self.hits as f64 / self.gets as f64
        }
    }

    /// Mean steady-state throughput over all processed batches, MOPS.
    #[must_use]
    pub fn mean_throughput_mops(&self) -> f64 {
        if self.busy_ns <= 0.0 {
            0.0
        } else {
            self.queries as f64 / self.busy_ns * 1_000.0
        }
    }

    /// The configuration most batches ran under.
    #[must_use]
    pub fn dominant_config(&self) -> Option<&str> {
        self.config_histogram
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(k, _)| k.as_str())
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} batches / {} queries, hit rate {:.1}%, mean {:.2} MOPS",
            self.batches,
            self.queries,
            self.hit_rate() * 100.0,
            self.mean_throughput_mops()
        )?;
        writeln!(
            f,
            "{} model runs, {} adaptions over {:.2} ms of virtual time",
            self.model_runs,
            self.adaptions,
            self.busy_ns / 1e6
        )?;
        if self.sim_steals > 0 {
            writeln!(
                f,
                "{} sim steals moved {} wavefront items",
                self.sim_steals, self.sim_stolen_items
            )?;
        }
        if self.owner_claims + self.stolen_claims + self.stale_rejects + self.steal_groups > 0 {
            writeln!(
                f,
                "claims: {} owner / {} stolen, {} stale rejects over {} steal groups",
                self.owner_claims, self.stolen_claims, self.stale_rejects, self.steal_groups
            )?;
        }
        if self.net_dispatches > 0 {
            writeln!(
                f,
                "net: {} dispatches ({:.1} frames/dispatch) over {} frames / {} queries, \
                 {} dropped, {} delayed, ring depth max {}",
                self.net_dispatches,
                self.net_mean_batch_frames(),
                self.net_frames,
                self.net_queries,
                self.net_dropped_frames,
                self.net_delayed_dispatches,
                self.net_ring_depth_max
            )?;
        }
        if self.net_reactor_threads > 0 {
            writeln!(
                f,
                "reactors: {} readers carrying {} conns, {} wakeups, \
                 {} pending runs dropped on disconnect",
                self.net_reactor_threads,
                self.net_reactor_conns,
                self.net_reactor_wakeups,
                self.net_sd_pending_dropped
            )?;
        }
        if self.net_sd_writer_threads > 0 {
            let lookups = self.net_sd_buf_hits + self.net_sd_buf_misses;
            let hit_rate = if lookups == 0 {
                0.0
            } else {
                self.net_sd_buf_hits as f64 / lookups as f64
            };
            writeln!(
                f,
                "sd: {} writers, {} writable parks, {} read pauses, \
                 {} stall-retired, buf-ring hit rate {:.3}, \
                 pending hiwater {} B",
                self.net_sd_writer_threads,
                self.net_sd_writable_parks,
                self.net_sd_read_pauses,
                self.net_sd_stall_retired,
                hit_rate,
                self.net_sd_pending_hiwater
            )?;
        }
        if self.net_ring_enters > 0 {
            let spq = if self.net_queries == 0 {
                0.0
            } else {
                self.net_ring_enters as f64 / self.net_queries as f64
            };
            let cqes: u64 = self
                .net_cqe_per_enter_hist
                .iter()
                .enumerate()
                .map(|(i, &n)| n << i)
                .sum();
            let enters_with_cqes: u64 = self.net_cqe_per_enter_hist.iter().sum();
            write!(
                f,
                "io: backend {}, {} ring enters ({:.2} syscalls/query)",
                dido_net::IoBackend::name_of(self.net_io_backend),
                self.net_ring_enters,
                spq
            )?;
            if enters_with_cqes > 0 {
                // Bucket midpoints make this approximate; it still shows
                // whether completions arrive in batches or dribbles.
                write!(
                    f,
                    ", ~{:.1} cqes/enter over {} non-empty enters",
                    cqes as f64 / enters_with_cqes as f64,
                    enters_with_cqes
                )?;
            }
            writeln!(f)?;
        }
        // Only worth a line once a non-dido front door saw traffic; an
        // all-dido node keeps its display unchanged.
        let multi_proto = dido_net::ProtocolKind::all().iter().any(|k| {
            k.index() != 0
                && (self.net_proto_conns[k.index()]
                    + self.net_proto_queries[k.index()]
                    + self.net_proto_parse_errors[k.index()])
                    > 0
        });
        if multi_proto {
            write!(f, "proto:")?;
            for k in dido_net::ProtocolKind::all() {
                let i = k.index();
                write!(
                    f,
                    " {}={} conns/{} queries/{} parse errors",
                    k.as_str(),
                    self.net_proto_conns[i],
                    self.net_proto_queries[i],
                    self.net_proto_parse_errors[i]
                )?;
            }
            writeln!(f)?;
        }
        // Memory plane: only once TTL/eviction machinery has moved (an
        // expiry-free node keeps its display unchanged).
        if self.expired_lazy + self.expired_proactive + self.sweeps > 0 {
            writeln!(
                f,
                "mem: {} lazy / {} proactive expirations, \
                 {} segments reclaimed, {} sealed pending, {} sweeps",
                self.expired_lazy,
                self.expired_proactive,
                self.segments_reclaimed,
                self.sealed_segments,
                self.sweeps
            )?;
        }
        for c in &self.class_gauges {
            // The full power-of-two ladder is long; untouched classes
            // say nothing.
            if c.live_objects + c.free_slots == 0 {
                continue;
            }
            writeln!(
                f,
                "  class {:>8} B: {} live / {} free slots, \
                 {:.1} KiB live, {:.1} KiB frag, {} open segs",
                c.class_bytes,
                c.live_objects,
                c.free_slots,
                c.live_bytes as f64 / 1024.0,
                c.frag_bytes as f64 / 1024.0,
                c.open_segments
            )?;
        }
        for (cfg, count) in &self.config_histogram {
            writeln!(f, "  {count:>6} x {cfg}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.record_batch(PipelineConfig::mega_kv(), 100, 90, 81, 50_000.0);
        m.record_batch(PipelineConfig::mega_kv(), 100, 90, 90, 50_000.0);
        m.record_batch(PipelineConfig::cpu_only(), 50, 0, 0, 25_000.0);
        assert_eq!(m.batches, 3);
        assert_eq!(m.queries, 250);
        assert!((m.hit_rate() - 171.0 / 180.0).abs() < 1e-12);
        assert!((m.mean_throughput_mops() - 250.0 / 125_000.0 * 1_000.0).abs() < 1e-9);
        assert_eq!(m.config_histogram.len(), 2);
        assert_eq!(
            m.dominant_config().unwrap(),
            PipelineConfig::mega_kv().to_string()
        );
    }

    #[test]
    fn empty_metrics_are_benign() {
        let m = Metrics::default();
        assert_eq!(m.hit_rate(), 1.0);
        assert_eq!(m.mean_throughput_mops(), 0.0);
        assert!(m.dominant_config().is_none());
        let s = m.to_string();
        assert!(s.contains("0 batches"));
    }

    #[test]
    fn exec_stats_fold_into_metrics() {
        let mut m = Metrics::default();
        m.record_exec_stats(&ExecStats {
            owner_claims: 10,
            stolen_claims: 4,
            stale_rejects: 2,
            steal_groups: 3,
        });
        m.record_exec_stats(&ExecStats {
            owner_claims: 1,
            ..ExecStats::default()
        });
        m.record_sim_steal(128);
        assert_eq!(m.owner_claims, 11);
        assert_eq!(m.stolen_claims, 4);
        assert_eq!(m.stale_rejects, 2);
        assert_eq!(m.steal_groups, 3);
        assert_eq!(m.sim_steals, 1);
        assert_eq!(m.sim_stolen_items, 128);
        let s = m.to_string();
        assert!(s.contains("4 stolen"), "{s}");
        assert!(s.contains("2 stale rejects"), "{s}");
        assert!(s.contains("128 wavefront items"), "{s}");
    }

    #[test]
    fn net_stats_fold_into_metrics() {
        let mut hist_a = [0u64; dido_net::BATCH_HIST_BUCKETS];
        hist_a[0] = 2;
        hist_a[3] = 1;
        let mut m = Metrics::default();
        let mut burst_a = [0u64; dido_net::BATCH_HIST_BUCKETS];
        burst_a[1] = 5;
        m.record_net_stats(&NetStatsSnapshot {
            dispatches: 3,
            dispatched_frames: 9,
            dispatched_queries: 120,
            reactor_threads: 4,
            reactor_conns: 100,
            reactor_wakeups: 7,
            sd_pending_dropped: 2,
            read_burst_hist: burst_a,
            dropped_frames: 1,
            delayed_dispatches: 2,
            ring_depth_max: 12,
            batch_hist: hist_a,
            sd_writer_threads: 2,
            sd_stall_retired: 1,
            sd_writable_parks: 4,
            sd_read_pauses: 2,
            sd_buf_hits: 30,
            sd_buf_misses: 10,
            sd_pending_bytes_hiwater: 8192,
            io_backend: 1,
            ring_enters: 40,
            cqe_per_enter_hist: {
                let mut h = [0u64; dido_net::BATCH_HIST_BUCKETS];
                h[2] = 6;
                h
            },
            ..NetStatsSnapshot::default()
        });
        m.record_net_stats(&NetStatsSnapshot {
            dispatches: 1,
            dispatched_frames: 1,
            ring_depth_max: 5, // lower than the prior max: keeps 12
            reactor_threads: 4,
            reactor_conns: 60, // gauge: latest value replaces, not adds
            reactor_wakeups: 3,
            sd_writer_threads: 2,
            sd_writable_parks: 1,
            sd_buf_hits: 10,
            sd_pending_bytes_hiwater: 4096, // lower than prior max: keeps 8192
            io_backend: 1,
            ring_enters: 20,
            cqe_per_enter_hist: {
                let mut h = [0u64; dido_net::BATCH_HIST_BUCKETS];
                h[2] = 2;
                h
            },
            ..NetStatsSnapshot::default()
        });
        assert_eq!(m.net_dispatches, 4);
        assert_eq!(m.net_frames, 10);
        assert_eq!(m.net_queries, 120);
        assert_eq!(m.net_dropped_frames, 1);
        assert_eq!(m.net_delayed_dispatches, 2);
        assert_eq!(m.net_ring_depth_max, 12);
        assert_eq!(m.net_batch_hist[0], 2);
        assert_eq!(m.net_batch_hist[3], 1);
        assert!((m.net_mean_batch_frames() - 2.5).abs() < 1e-12);
        assert_eq!(m.net_reactor_threads, 4);
        assert_eq!(m.net_reactor_conns, 60, "gauge folds by last value");
        assert_eq!(m.net_reactor_wakeups, 10);
        assert_eq!(m.net_sd_pending_dropped, 2);
        assert_eq!(m.net_read_burst_hist[1], 5);
        assert_eq!(m.net_sd_writer_threads, 2, "gauge folds by last value");
        assert_eq!(m.net_sd_stall_retired, 1);
        assert_eq!(m.net_sd_writable_parks, 5);
        assert_eq!(m.net_sd_read_pauses, 2);
        assert_eq!(m.net_sd_buf_hits, 40);
        assert_eq!(m.net_sd_buf_misses, 10);
        assert_eq!(m.net_sd_pending_hiwater, 8192, "hiwater folds by max");
        assert_eq!(m.net_io_backend, 1, "backend folds as a gauge");
        assert_eq!(m.net_ring_enters, 60);
        assert_eq!(m.net_cqe_per_enter_hist[2], 8);
        let s = m.to_string();
        assert!(s.contains("4 dispatches"), "{s}");
        assert!(s.contains("ring depth max 12"), "{s}");
        assert!(s.contains("4 readers carrying 60 conns"), "{s}");
        assert!(s.contains("sd: 2 writers"), "{s}");
        assert!(s.contains("hit rate 0.800"), "{s}");
        assert!(s.contains("io: backend uring, 60 ring enters"), "{s}");
        assert!(s.contains("non-empty enters"), "{s}");
    }

    #[test]
    fn net_line_absent_when_front_end_never_ran() {
        let m = Metrics::default();
        assert!(!m.to_string().contains("net:"));
    }

    #[test]
    fn proto_counters_fold_and_gate_the_display_line() {
        let mut m = Metrics::default();
        m.record_net_stats(&NetStatsSnapshot {
            proto_conns: [5, 0, 0],
            proto_queries: [900, 0, 0],
            ..NetStatsSnapshot::default()
        });
        // All-dido traffic: no proto line.
        assert!(!m.to_string().contains("proto:"), "{m}");
        m.record_net_stats(&NetStatsSnapshot {
            proto_conns: [0, 2, 1],
            proto_queries: [0, 40, 7],
            proto_parse_errors: [0, 3, 0],
            ..NetStatsSnapshot::default()
        });
        assert_eq!(m.net_proto_conns, [5, 2, 1]);
        assert_eq!(m.net_proto_queries, [900, 40, 7]);
        assert_eq!(m.net_proto_parse_errors, [0, 3, 0]);
        let s = m.to_string();
        assert!(s.contains("proto:"), "{s}");
        assert!(s.contains("memcached=2 conns/40 queries/3 parse errors"), "{s}");
        assert!(s.contains("resp=1 conns/7 queries/0 parse errors"), "{s}");
    }

    #[test]
    fn display_lists_configs() {
        let mut m = Metrics::default();
        m.record_batch(PipelineConfig::mega_kv(), 10, 10, 10, 1_000.0);
        let s = m.to_string();
        assert!(s.contains("[IN]GPU"), "{s}");
        assert!(s.contains("1 x"), "{s}");
    }
}
