//! Concurrent cuckoo hash index for the DIDO key-value store.
//!
//! The index data structure of the paper (§IV-B): a cuckoo hash table
//! holding 16-bit key signatures and 40-bit object locations, accessed
//! concurrently by the CPU and the (simulated) GPU. Search uses atomic
//! loads; Insert and Delete use compare-exchange, matching the paper's
//! use of OpenCL atomics for fine-grained memory consistency on the
//! coupled architecture (§III-B-2).
//!
//! Every operation returns a [`dido_model::ResourceUsage`] describing
//! the buckets it touched, which the timing layer converts into virtual
//! time and the cost model compares against its analytic estimates
//! (Search/Delete ≈ `(Σ_{i=1..n} i)/n` bucket reads for `n` hash
//! functions; Insert's mean probe count is tracked at runtime via
//! [`IndexTable::avg_insert_buckets`]).
//!
//! A table keeps the size it was built with until its owner asks it to
//! grow ([`IndexTable::reserve`], [`IndexTable::grow`]): the serving
//! engine starts small and doubles ahead of its inserts, the
//! reproduction builds it once at Mega-KV's store-sized geometry.
//!
//! ```
//! use dido_hashtable::{key_hash, IndexTable};
//!
//! let index = IndexTable::with_capacity(1024);
//! let kh = key_hash(b"user:42");
//! index.insert(kh, 7).0.unwrap();
//! let (candidates, usage) = index.search(kh);
//! assert!(candidates.as_slice().contains(&7));
//! assert!(usage.mem_accesses >= 1);
//! ```

#![warn(missing_docs)]

mod hash;
mod prefetch;
mod table;

pub use hash::{hash64, hash64_bytes, key_hash, KeyHash};
pub use prefetch::prefetch_read;
pub use table::{
    tagged, untagged, Candidates, IndexTable, InsertError, MAX_LOCATION, PROBE_WAVEFRONT,
    SLOTS_PER_BUCKET, TAG_BITS,
};
