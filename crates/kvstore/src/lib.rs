//! Key-value object storage for DIDO: shared arena, slab size classes,
//! CLOCK eviction, and the per-object frequency/epoch counters that feed
//! the runtime skewness estimate.
//!
//! The paper's memory-management (`MM`) task maps onto
//! [`ObjectStore::allocate`] (which may report an evicted object as a
//! [`PurgedEntry`] whose index entry the caller must delete — the
//! mechanism that makes every SET generate one Insert *and* one Delete
//! index operation), the
//! key-comparison (`KC`) task onto [`ObjectStore::key_matches`], and the
//! value-read (`RD`) task onto [`ObjectStore::read_value`].
//!
//! ```
//! use dido_kvstore::ObjectStore;
//!
//! let store = ObjectStore::new(64 * 1024);
//! let out = store.allocate(b"user:1", b"alice").unwrap();
//! assert!(store.key_matches(out.loc, b"user:1"));
//! let mut value = Vec::new();
//! store.read_value(out.loc, &mut value);
//! assert_eq!(value, b"alice");
//! ```

#![warn(missing_docs)]

mod arena;
mod store;

pub use arena::Arena;
pub use store::{
    AllocOutcome, ClassStats, ExpiryStats, ObjectStore, ProbeOutcome, PurgedEntry, StoreError,
    HEADER_SIZE, MIN_STORE_BYTES,
};
