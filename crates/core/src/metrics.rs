//! Operational metrics for a running DIDO node: a read-side view.

use crate::striped::{ControlFold, StatsFold};
use dido_kvstore::ClassStats;
use dido_model::{write_metric, PipelineConfig};
use dido_pipeline::ShardedEngine;
use std::fmt;

/// The memory plane as it stands: who holds the resident bytes,
/// cumulative expiry counters and per-size-class occupancy gauges, read
/// from the engine when someone asks ([`MemoryFold::of`]) — nothing
/// publishes or caches it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryFold {
    /// Bytes of the cuckoo index bucket arrays, summed over shards.
    pub index_bytes: usize,
    /// Doublings of those arrays since the node started (cumulative).
    pub index_grows: u64,
    /// Slab-arena bytes carved into slots, summed over shards.
    pub store_carved_bytes: usize,
    /// Versions SETs replaced and freed at their batch's end
    /// (cumulative).
    pub replaced_freed: u64,
    /// Objects expired in-band on the lookup path (cumulative).
    pub expired_lazy: u64,
    /// Objects freed by whole-segment reclamation (cumulative).
    pub expired_proactive: u64,
    /// TTL segments reclaimed as a unit (cumulative).
    pub segments_reclaimed: u64,
    /// Sealed TTL segments awaiting expiry (gauge).
    pub sealed_segments: u64,
    /// Per-class occupancy / free-slot / fragmentation gauges.
    pub classes: Vec<ClassStats>,
}

impl MemoryFold {
    /// Read `engine`'s memory plane now. Takes every shard's class
    /// locks, so this belongs on a reader's thread, not in a loop.
    pub(crate) fn of(engine: &ShardedEngine) -> MemoryFold {
        let expiry = engine.expiry_stats();
        let ops = engine.op_counts();
        MemoryFold {
            index_bytes: engine.index_bytes(),
            index_grows: ops.index_grows,
            store_carved_bytes: engine.store_carved_bytes(),
            replaced_freed: ops.replaced_freed,
            expired_lazy: ops.expired_lazy,
            expired_proactive: expiry.expired_proactive,
            segments_reclaimed: expiry.segments_reclaimed,
            sealed_segments: expiry.sealed_segments,
            classes: engine.class_stats(),
        }
    }
}

/// A point-in-time view of the node's counters, assembled on demand:
/// the lanes and the control plane by [`crate::StripedStats`], the
/// memory plane from the engine. Nothing here is recorded into; the
/// `Display` is the core half of `dido-server --stats-every`.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// The data plane's counters, folded over every lane (batches,
    /// queries, GETs, hits, …).
    pub work: StatsFold,
    /// How long the node was busy, ns. [`crate::ServingCore`]: wall time
    /// of the busiest lane — lanes run concurrently, so their sum
    /// (`work.lane_busy_ns`) would overstate it. The reproduction's
    /// sequential system: virtual time, its simulator's clock.
    pub busy_ns: f64,
    /// The control plane's counters (model runs, adaptions, …).
    pub control: ControlFold,
    /// The memory plane ([`crate::ServingCore`] only; empty otherwise).
    pub memory: MemoryFold,
    /// Batches executed per configuration, in first-seen order.
    pub configs: Vec<(PipelineConfig, u64)>,
}

impl Metrics {
    /// GET hit rate in `[0, 1]` (1.0 when no GETs were issued).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.work.gets == 0 {
            1.0
        } else {
            self.work.hits as f64 / self.work.gets as f64
        }
    }

    /// Mean throughput while busy over all processed batches, MOPS
    /// (queries per [`Metrics::busy_ns`]).
    #[must_use]
    pub fn mean_throughput_mops(&self) -> f64 {
        if self.busy_ns <= 0.0 {
            0.0
        } else {
            self.work.queries as f64 / self.busy_ns * 1_000.0
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rows = Vec::new();
        self.work
            .for_each(|name, _, slots| rows.push((name, slots)));
        self.control
            .for_each(|name, _, slots| rows.push((name, slots)));
        f.write_str("core:")?;
        for (name, slots) in rows {
            f.write_str(" ")?;
            write_metric(f, name, slots)?;
        }
        writeln!(
            f,
            " hit_rate={:.1}% busy_ms={:.2} mean_mops={:.2}",
            self.hit_rate() * 100.0,
            self.busy_ns / 1e6,
            self.mean_throughput_mops()
        )?;
        // Memory plane: whenever it was read from an engine (which always
        // has an index) or TTL/eviction machinery has moved; a view with
        // neither keeps its block short.
        let m = &self.memory;
        if m.index_bytes > 0 || m.expired_lazy + m.expired_proactive + self.control.sweeps > 0 {
            writeln!(
                f,
                "mem: {} lazy / {} proactive expirations, \
                 {} segments reclaimed, {} sealed pending, \
                 replaced_freed={} index_bytes={} index_grows={} store_carved_bytes={}",
                m.expired_lazy,
                m.expired_proactive,
                m.segments_reclaimed,
                m.sealed_segments,
                m.replaced_freed,
                m.index_bytes,
                m.index_grows,
                m.store_carved_bytes
            )?;
        }
        for c in &m.classes {
            // The full class ladder is long; untouched classes say
            // nothing.
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
        for (config, count) in &self.configs {
            writeln!(f, "  {count:>6} x {config}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let m = Metrics {
            work: StatsFold {
                queries: 250,
                gets: 180,
                hits: 171,
                ..StatsFold::default()
            },
            busy_ns: 125_000.0,
            configs: vec![
                (PipelineConfig::cpu_only(), 1),
                (PipelineConfig::mega_kv(), 2),
            ],
            ..Metrics::default()
        };
        assert!((m.hit_rate() - 171.0 / 180.0).abs() < 1e-12);
        assert!((m.mean_throughput_mops() - 250.0 / 125_000.0 * 1_000.0).abs() < 1e-9);
        let s = m.to_string();
        assert!(
            s.contains("hit_rate=95.0% busy_ms=0.12 mean_mops=2.00"),
            "{s}"
        );
        assert!(s.contains("     2 x "), "{s}");
        assert!(s.contains("[IN]GPU"), "{s}");
    }

    #[test]
    fn empty_metrics_are_benign() {
        let m = Metrics::default();
        assert_eq!(m.hit_rate(), 1.0);
        assert_eq!(m.mean_throughput_mops(), 0.0);
        let s = m.to_string();
        assert!(s.starts_with("core: batches=0 "), "{s}");
        assert!(!s.contains("mem:"), "no mem: line before TTL activity: {s}");
    }

    #[test]
    fn every_declared_metric_is_on_the_core_line() {
        let mut m = Metrics::default();
        m.control.sweeps = 7;
        let text = m.to_string();
        let check = |name: &str, _, _: &[u64]| {
            assert!(text.contains(&format!(" {name}=")), "{name} missing from: {text}");
        };
        m.work.for_each(check);
        m.control.for_each(check);
        assert!(text.contains(" sweeps=7 "), "{text}");
        assert!(text.contains("mem: "), "a sweep is TTL activity: {text}");
    }
}
