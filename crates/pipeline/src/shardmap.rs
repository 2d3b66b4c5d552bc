//! The versioned shard-map plane: one routing rule, one epoch-stamped
//! map state, published through a single atomic word.
//!
//! Before this module existed the Lemire multiply-shift routing rule was
//! re-derived at every layer (`ShardedEngine`, the serving core's
//! preload path, bench harnesses). [`route_of`] is now the *only* shard
//! selection in the workspace; everything else calls it. On top of it,
//! [`ShardMap`] is the DIDO epoch-publish cell ([`EpochCell`], the same
//! one that carries the node's pipeline configuration) applied to *data
//! placement*: the map state — how many shards own the key space, and
//! whether a resize is mid-flight — packs into its 32-bit payload, which
//! the data path reads wait-free once per batch, while resize control
//! flow publishes transitions with a CAS epoch bump.
//!
//! Map states (see `DESIGN.md` §12):
//!
//! * [`MapState::Settled`] — every key lives in its routed shard of the
//!   single primary set. The common case; the data path takes the
//!   vectorized pipelines.
//! * [`MapState::Migrating`] — a resize is in progress: keys are moving
//!   from `old` donor shards to `new` primary shards. The data path
//!   double-probes (primary first, donor fallback) so correctness never
//!   depends on how far the migration worker has gotten.

use dido_hashtable::hash64;
use dido_model::{EpochCell, Packed};

/// Largest supported shard count (the packed word gives each count 16
/// bits; real topologies are orders of magnitude smaller).
pub const MAX_SHARDS: usize = u16::MAX as usize;

/// The one shard-routing rule: multiply-shift over the high 32 hash
/// bits (Lemire's unbiased range reduction). `(h * n) >> 32` maps
/// [0, 2^32) evenly onto [0, n) without the modulo bias of `h % n`.
/// High bits only — the low bits drive bucket choice inside the shard,
/// so reusing them would correlate shard and bucket.
#[must_use]
pub fn route_of(key: &[u8], shards: usize) -> usize {
    debug_assert!(shards > 0, "routing needs at least one shard");
    let h = hash64(key) >> 32;
    ((h * shards as u64) >> 32) as usize
}

/// What the shard map currently says about data placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapState {
    /// One set of `shards` shards owns every key.
    Settled {
        /// Number of shards in the (only) set.
        shards: usize,
    },
    /// A resize from `old` to `new` shards is draining: a key routed by
    /// the `new` topology may still live in its `old`-topology donor
    /// shard.
    Migrating {
        /// Donor shard count (the pre-resize topology).
        old: usize,
        /// Primary shard count (the post-resize topology).
        new: usize,
    },
}

impl MapState {
    /// The primary shard count — what [`route_of`] must be called with
    /// on the write path and the first probe of the read path.
    #[must_use]
    pub fn shards(&self) -> usize {
        match *self {
            MapState::Settled { shards } => shards,
            MapState::Migrating { new, .. } => new,
        }
    }

    /// Donor shard count while migrating, `None` once settled.
    #[must_use]
    pub fn donors(&self) -> Option<usize> {
        match *self {
            MapState::Settled { .. } => None,
            MapState::Migrating { old, .. } => Some(old),
        }
    }
}

impl Packed for MapState {
    /// Primary count in bits 0–15, donor count in bits 16–31 (0 =
    /// settled; a real donor count is never 0).
    ///
    /// # Panics
    /// Panics if a shard count is 0 or exceeds [`MAX_SHARDS`].
    fn pack(self) -> u32 {
        match self {
            MapState::Settled { shards } => {
                assert!((1..=MAX_SHARDS).contains(&shards), "bad shard count {shards}");
                shards as u32
            }
            MapState::Migrating { old, new } => {
                assert!((1..=MAX_SHARDS).contains(&old), "bad donor count {old}");
                assert!((1..=MAX_SHARDS).contains(&new), "bad shard count {new}");
                ((old as u32) << 16) | new as u32
            }
        }
    }

    fn unpack(bits: u32) -> MapState {
        let new = (bits & 0xFFFF) as usize;
        let old = (bits >> 16) as usize;
        if old == 0 {
            MapState::Settled { shards: new }
        } else {
            MapState::Migrating { old, new }
        }
    }
}

/// The epoch-stamped [`MapState`]. Readers [`ShardMap::load`]
/// wait-free; every [`ShardMap::publish`] bumps the epoch, so a reader
/// can tell "same state again" from "state changed and changed back" —
/// the property the net dispatchers and serving core rely on to detect
/// resizes between batches.
#[derive(Debug)]
pub struct ShardMap(EpochCell<MapState>);

impl ShardMap {
    /// A settled map over `shards` shards, at epoch 0.
    ///
    /// # Panics
    /// Panics if `shards` is 0 or exceeds [`MAX_SHARDS`].
    #[must_use]
    pub fn new(shards: usize) -> ShardMap {
        ShardMap(EpochCell::new(MapState::Settled { shards }))
    }

    /// The current state and its epoch (wait-free).
    #[must_use]
    pub fn load(&self) -> (MapState, u32) {
        self.0.load()
    }

    /// The current state (wait-free).
    #[must_use]
    pub fn state(&self) -> MapState {
        self.load().0
    }

    /// The current primary shard count (wait-free).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.state().shards()
    }

    /// Publish `state` with an epoch bump; returns the new epoch.
    pub fn publish(&self, state: MapState) -> u32 {
        self.0.publish(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_deterministic_and_unbiased() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let mut counts = vec![0usize; n];
            for i in 0..12_000 {
                let key = format!("rk-{i}");
                let a = route_of(key.as_bytes(), n);
                assert_eq!(a, route_of(key.as_bytes(), n));
                counts[a] += 1;
            }
            let expect = 12_000 / n;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    c > expect / 2 && c < expect * 2,
                    "{n} shards: shard {s} got {c}, expected ~{expect}"
                );
            }
        }
    }

    #[test]
    fn state_round_trips_through_the_packed_word() {
        for state in [
            MapState::Settled { shards: 1 },
            MapState::Settled { shards: MAX_SHARDS },
            MapState::Migrating { old: 1, new: 4 },
            MapState::Migrating { old: 7, new: 3 },
        ] {
            assert_eq!(MapState::unpack(state.pack()), state);
        }
    }

    #[test]
    fn publish_bumps_the_epoch_every_time() {
        let map = ShardMap::new(2);
        let (state, e0) = map.load();
        assert_eq!(state, MapState::Settled { shards: 2 });
        let e1 = map.publish(MapState::Migrating { old: 2, new: 4 });
        assert_eq!(e1, e0 + 1);
        assert_eq!(map.state(), MapState::Migrating { old: 2, new: 4 });
        assert_eq!(map.state().shards(), 4);
        assert_eq!(map.state().donors(), Some(2));
        let e2 = map.publish(MapState::Settled { shards: 4 });
        assert_eq!(e2, e1 + 1);
        assert_eq!(map.state().donors(), None);
    }

    #[test]
    #[should_panic(expected = "bad shard count")]
    fn zero_shards_is_rejected() {
        let _ = ShardMap::new(0);
    }
}
