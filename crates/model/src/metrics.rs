//! One declaration per metric: the cell kinds and
//! [`metric_table!`](crate::metric_table), which derives everything
//! else from one row (DESIGN.md §18).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Buckets of a [`Hist`]: observed values `1, 2, 3–4, 5–8, 9–16, 17–32,
/// 33–64, 65+` (zero lands in the first bucket).
pub const HIST_BUCKETS: usize = 8;

/// How a metric folds — across lanes, across snapshots, and over an
/// interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic total: merges by addition, deltas by subtraction.
    Counter,
    /// Current level: the later value replaces the earlier one.
    Gauge,
    /// High-water mark: merges by maximum; a delta keeps the mark.
    Max,
    /// Log2-bucketed counts: each bucket is a counter.
    Hist,
}

impl MetricKind {
    /// `acc` after folding `other` (a sibling lane or a later snapshot)
    /// into it.
    #[must_use]
    pub fn merge(self, acc: u64, other: u64) -> u64 {
        match self {
            MetricKind::Counter | MetricKind::Hist => acc + other,
            MetricKind::Gauge => other,
            MetricKind::Max => acc.max(other),
        }
    }

    /// `now` relative to an `earlier` snapshot of the same recorder.
    #[must_use]
    pub fn delta(self, now: u64, earlier: u64) -> u64 {
        match self {
            MetricKind::Counter | MetricKind::Hist => now - earlier,
            MetricKind::Gauge | MetricKind::Max => now,
        }
    }
}

/// One recording cell of a metric table: an atomic write side, a plain
/// [`Cell::Value`] read side viewed as `u64` slots, and the kind that
/// says how those slots fold.
pub trait Cell {
    /// The snapshot type (`u64`, or an array of them).
    type Value: Copy;
    /// The fold kind of every slot.
    const KIND: MetricKind;
    /// Relaxed load of the current value.
    fn load(&self) -> Self::Value;
    /// The value's slots.
    fn slots(v: &Self::Value) -> &[u64];
    /// The value's slots, mutably.
    fn slots_mut(v: &mut Self::Value) -> &mut [u64];
}

/// Fold `other` into `acc` slot by slot with `op` (one of
/// [`MetricKind::merge`] / [`MetricKind::delta`]) under `C`'s kind.
pub fn fold_slots<C: Cell>(
    acc: &mut C::Value,
    other: &C::Value,
    op: fn(MetricKind, u64, u64) -> u64,
) {
    for (a, o) in C::slots_mut(acc).iter_mut().zip(C::slots(other)) {
        *a = op(C::KIND, *a, *o);
    }
}

macro_rules! scalar_cell {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $name(AtomicU64);

        impl $name {
            /// Current value (relaxed load).
            #[must_use]
            pub fn get(&self) -> u64 {
                self.0.load(Relaxed)
            }
        }

        impl Cell for $name {
            type Value = u64;
            const KIND: MetricKind = MetricKind::$name;
            fn load(&self) -> u64 {
                self.get()
            }
            fn slots(v: &u64) -> &[u64] {
                std::slice::from_ref(v)
            }
            fn slots_mut(v: &mut u64) -> &mut [u64] {
                std::slice::from_mut(v)
            }
        }
    };
}

scalar_cell!(
    /// A monotonic total.
    Counter
);
scalar_cell!(
    /// A current level (thread count, open connections).
    Gauge
);
scalar_cell!(
    /// A high-water mark.
    Max
);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }
}

impl Gauge {
    /// Replace the level.
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Raise the level by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Lower the level by `n`.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Relaxed);
    }
}

impl Max {
    /// Raise the mark to `v` if `v` is higher.
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }
}

/// A log2-bucketed histogram of observed values (see [`HIST_BUCKETS`]).
#[derive(Debug, Default)]
pub struct Hist([AtomicU64; HIST_BUCKETS]);

impl Hist {
    /// Count one observation of `v`.
    pub fn observe(&self, v: u64) {
        let bucket = if v <= 1 {
            0
        } else {
            ((64 - (v - 1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        self.0[bucket].fetch_add(1, Relaxed);
    }
}

impl Cell for Hist {
    type Value = [u64; HIST_BUCKETS];
    const KIND: MetricKind = MetricKind::Hist;
    fn load(&self) -> Self::Value {
        std::array::from_fn(|i| self.0[i].load(Relaxed))
    }
    fn slots(v: &Self::Value) -> &[u64] {
        v
    }
    fn slots_mut(v: &mut Self::Value) -> &mut [u64] {
        v
    }
}

/// `[kind; N]`: one scalar cell per index (e.g. per wire protocol).
impl<C: Cell<Value = u64>, const N: usize> Cell for [C; N] {
    type Value = [u64; N];
    const KIND: MetricKind = C::KIND;
    fn load(&self) -> [u64; N] {
        std::array::from_fn(|i| self[i].load())
    }
    fn slots(v: &[u64; N]) -> &[u64] {
        v
    }
    fn slots_mut(v: &mut [u64; N]) -> &mut [u64] {
        v
    }
}

/// Render one metric as `name=value`; a multi-slot metric (array,
/// histogram) as `name=a/b/c`. The one token format every stats exit
/// shares.
pub fn write_metric(f: &mut impl fmt::Write, name: &str, slots: &[u64]) -> fmt::Result {
    write!(f, "{name}=")?;
    for (i, v) in slots.iter().enumerate() {
        if i > 0 {
            f.write_char('/')?;
        }
        write!(f, "{v}")?;
    }
    Ok(())
}

/// Declare a metric table: a recorder struct, its snapshot struct, then
/// one `name: Kind` row per metric, where the kind — [`Counter`],
/// [`Gauge`], [`Max`], [`Hist`], or a fixed array of one of the first
/// three — is the field's type and says how the metric folds
/// ([`MetricKind`]). The recorder holds relaxed atomics (these are
/// statistics; they publish no other data) behind the kind's methods;
/// the snapshot holds plain values and gets `merge`, `delta` and
/// `for_each`.
///
/// ```
/// use dido_model::{metric_table, Counter, Max};
/// metric_table! {
///     /// Write side.
///     pub struct Recorder;
///     /// Read side.
///     pub struct Snapshot;
///     /// Requests seen.
///     requests: Counter,
///     /// Deepest queue seen.
///     depth_max: Max,
/// }
/// let r = Recorder::default();
/// r.requests.add(2);
/// r.depth_max.observe(7);
/// assert_eq!(r.snapshot(), Snapshot { requests: 2, depth_max: 7 });
/// ```
#[macro_export]
macro_rules! metric_table {
    (
        $(#[$rmeta:meta])* $rvis:vis struct $Rec:ident;
        $(#[$smeta:meta])* $svis:vis struct $Snap:ident;
        $( $(#[$fmeta:meta])* $field:ident : $cell:ty ),+ $(,)?
    ) => {
        $(#[$rmeta])*
        #[derive(Debug, Default)]
        $rvis struct $Rec {
            $( $(#[$fmeta])* pub $field: $cell, )+
        }

        $(#[$smeta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        $svis struct $Snap {
            $( $(#[$fmeta])* pub $field: <$cell as $crate::Cell>::Value, )+
        }

        impl $Rec {
            /// Plain-value copy of every metric (relaxed loads).
            #[must_use]
            $svis fn snapshot(&self) -> $Snap {
                $Snap { $( $field: $crate::Cell::load(&self.$field), )+ }
            }
        }

        impl $Snap {
            /// Fold `other` (a sibling lane, or a later snapshot) in by
            /// kind: counters and histogram buckets add, gauges take
            /// `other`'s value, maxima keep the larger.
            $svis fn merge(&mut self, other: &$Snap) {
                $( $crate::fold_slots::<$cell>(
                    &mut self.$field, &other.$field, $crate::MetricKind::merge); )+
            }

            /// The interval since `earlier` (an older snapshot of the
            /// same recorder): counters and histogram buckets subtract,
            /// gauges and maxima keep their current value.
            #[must_use]
            $svis fn delta(&self, earlier: &$Snap) -> $Snap {
                let mut d = *self;
                $( $crate::fold_slots::<$cell>(
                    &mut d.$field, &earlier.$field, $crate::MetricKind::delta); )+
                d
            }

            /// Visit every metric in declaration order as
            /// `(name, kind, slots)` — what a renderer walks.
            $svis fn for_each<'a>(
                &'a self,
                mut f: impl FnMut(&'static str, $crate::MetricKind, &'a [u64]),
            ) {
                $( f(stringify!($field), <$cell as $crate::Cell>::KIND,
                     <$cell as $crate::Cell>::slots(&self.$field)); )+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    metric_table! {
        /// Write side: one cell of every kind, plus an array.
        struct Rec;
        /// Read side.
        struct Snap;
        /// A counter.
        c: Counter,
        /// A gauge.
        g: Gauge,
        /// A maximum.
        m: Max,
        /// A histogram.
        h: Hist,
        /// A per-index counter array.
        per: [Counter; 3],
    }

    /// Two recordings of every cell, snapshotted after each.
    fn two_snapshots() -> (Snap, Snap) {
        let r = Rec::default();
        r.c.add(3);
        r.g.set(9);
        r.m.observe(12);
        r.h.observe(1);
        r.h.observe(4);
        r.per[2].add(5);
        let first = r.snapshot();
        r.c.add(4);
        r.g.add(1);
        r.g.sub(2);
        r.m.observe(5);
        r.h.observe(3);
        r.h.observe(1_000);
        r.per[0].add(1);
        r.per[2].add(1);
        (first, r.snapshot())
    }

    #[test]
    fn each_kind_records_by_its_rule() {
        let (first, second) = two_snapshots();
        assert_eq!((first.c, second.c), (3, 7), "counter adds");
        assert_eq!((first.g, second.g), (9, 8), "gauge holds the current level");
        assert_eq!(
            (first.m, second.m),
            (12, 12),
            "max ignores a lower observation"
        );
        assert_eq!(
            first.h,
            [1, 0, 1, 0, 0, 0, 0, 0],
            "1 -> bucket 0, 4 -> bucket 3-4"
        );
        assert_eq!(
            second.h,
            [1, 0, 2, 0, 0, 0, 0, 1],
            "3 -> bucket 3-4, 1000 -> 65+"
        );
        assert_eq!(second.per, [1, 0, 6], "array cells record per index");
    }

    #[test]
    fn hist_buckets_double() {
        for (v, bucket) in [
            (0, 0),
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (16, 4),
            (64, 6),
            (65, 7),
            (100_000, 7),
        ] {
            let h = Hist::default();
            h.observe(v);
            assert_eq!(h.load()[bucket], 1, "{v} belongs in bucket {bucket}");
        }
    }

    #[test]
    fn merge_folds_by_kind() {
        let (a, b) = two_snapshots();
        let mut acc = a;
        acc.merge(&b);
        assert_eq!(acc.c, 10, "counter adds");
        assert_eq!(acc.g, 8, "gauge keeps the last");
        assert_eq!(acc.m, 12, "max keeps the max");
        assert_eq!(acc.h, [2, 0, 3, 0, 0, 0, 0, 1], "hist adds bucket-wise");
        assert_eq!(acc.per, [1, 0, 11], "arrays fold per index");
        let mut lower = Snap {
            m: 20,
            ..Snap::default()
        };
        lower.merge(&b);
        assert_eq!(lower.m, 20, "max survives a lower sibling");
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_levels() {
        let (a, b) = two_snapshots();
        let d = b.delta(&a);
        assert_eq!(d.c, 4);
        assert_eq!(d.h, [0, 0, 1, 0, 0, 0, 0, 1]);
        assert_eq!(d.per, [1, 0, 1]);
        assert_eq!((d.g, d.m), (8, 12), "gauge and max carry through");
        // A snapshot against itself: every counter and bucket is zero.
        b.delta(&b).for_each(|name, kind, slots| match kind {
            MetricKind::Counter | MetricKind::Hist => {
                assert!(slots.iter().all(|&v| v == 0), "{name}")
            }
            MetricKind::Gauge | MetricKind::Max => {}
        });
    }

    #[test]
    fn for_each_walks_every_row_in_order_and_renders() {
        let s = Snap {
            c: 1,
            g: 2,
            m: 3,
            h: [4, 5, 6, 7, 8, 9, 10, 11],
            per: [12, 13, 14],
        };
        let mut seen = Vec::new();
        let mut text = String::new();
        s.for_each(|name, kind, slots| {
            seen.push((name, kind, slots.len()));
            write_metric(&mut text, name, slots).unwrap();
            text.push(' ');
        });
        assert_eq!(
            seen,
            [
                ("c", MetricKind::Counter, 1),
                ("g", MetricKind::Gauge, 1),
                ("m", MetricKind::Max, 1),
                ("h", MetricKind::Hist, HIST_BUCKETS),
                ("per", MetricKind::Counter, 3),
            ]
        );
        assert_eq!(text, "c=1 g=2 m=3 h=4/5/6/7/8/9/10/11 per=12/13/14 ");
    }
}
