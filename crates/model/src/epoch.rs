//! Epoch-stamped wait-free publication of a small control value.
//!
//! A control plane *publishes* a value now and then — the adaptation
//! controller a new [`PipelineConfig`], a resize a new shard-map state —
//! and data-plane dispatchers *load* the active one once per batch. Both
//! values pack into 32 bits (a [`PipelineConfig`] into 12: 8-bit GPU
//! segment bitset + one bit per index operation + the work-stealing
//! flag), so value and a 32-bit epoch fit one `AtomicU64`: readers take a
//! single `Acquire` load — no lock, no RCU, no deferred reclamation — and
//! writers bump the epoch with a CAS so concurrent publishers never lose
//! an update silently. [`EpochCell`] is that mechanism, written once.

use crate::config::{IndexOpAssignment, PipelineConfig};
use crate::task::{Processor, TaskKind, TaskSet};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bit positions of the packed index-operation assignments (one bit per
/// op; set = GPU) and the work-stealing flag, above the 8-bit segment.
const SEARCH_BIT: u32 = 1 << 8;
const INSERT_BIT: u32 = 1 << 9;
const DELETE_BIT: u32 = 1 << 10;
const STEAL_BIT: u32 = 1 << 11;

/// A value an [`EpochCell`] can carry: it round-trips through 32 bits.
pub trait Packed: Copy {
    /// The value as 32 bits.
    fn pack(self) -> u32;
    /// Inverse of [`Packed::pack`].
    fn unpack(bits: u32) -> Self;
}

impl Packed for PipelineConfig {
    /// Pack into 12 bits: bits 0–7 are the GPU-segment bitset in
    /// canonical task order, bits 8–10 the Search/Insert/Delete
    /// processors (set = GPU), bit 11 the work-stealing flag.
    fn pack(self) -> u32 {
        let mut bits = 0u32;
        for t in self.gpu_segment.iter() {
            bits |= 1 << t.index();
        }
        if self.index_ops.search == Processor::Gpu {
            bits |= SEARCH_BIT;
        }
        if self.index_ops.insert == Processor::Gpu {
            bits |= INSERT_BIT;
        }
        if self.index_ops.delete == Processor::Gpu {
            bits |= DELETE_BIT;
        }
        if self.work_stealing {
            bits |= STEAL_BIT;
        }
        bits
    }

    fn unpack(bits: u32) -> PipelineConfig {
        let mut gpu_segment = TaskSet::EMPTY;
        for t in TaskKind::ALL {
            if bits & (1 << t.index()) != 0 {
                gpu_segment.insert(t);
            }
        }
        let on = |bit: u32| {
            if bits & bit != 0 {
                Processor::Gpu
            } else {
                Processor::Cpu
            }
        };
        PipelineConfig {
            gpu_segment,
            index_ops: IndexOpAssignment {
                search: on(SEARCH_BIT),
                insert: on(INSERT_BIT),
                delete: on(DELETE_BIT),
            },
            work_stealing: bits & STEAL_BIT != 0,
        }
    }
}

/// A [`Packed`] value stamped with a publication epoch.
///
/// Layout: low 32 bits hold [`Packed::pack`], high 32 bits the epoch
/// (starts at 0, +1 per publication). Both halves travel in one atomic
/// word, so a reader can never observe a torn value/epoch pair, and a
/// reader can tell "same value again" from "changed and changed back".
///
/// Ordering: the whole payload is in the word, so the cell needs no
/// ordering for its own sake. `publish` succeeds with `Release` and
/// `load` is `Acquire` so that whatever the publisher set up *before*
/// publishing (the engine set a resize installs) is visible to a reader
/// that sees the new epoch; a later publisher's CAS is a read-modify-write
/// and so continues that release sequence. The CAS loop's own reads are
/// `Relaxed`: a stale `cur` only fails the CAS, which hands back the
/// current word.
pub struct EpochCell<T>(AtomicU64, PhantomData<T>);

/// The node's active pipeline configuration.
pub type ConfigCell = EpochCell<PipelineConfig>;

impl<T: Packed> EpochCell<T> {
    /// Cell holding `value` at epoch 0.
    #[must_use]
    pub fn new(value: T) -> EpochCell<T> {
        EpochCell(AtomicU64::new(u64::from(value.pack())), PhantomData)
    }

    /// Wait-free snapshot of the active value and its epoch.
    #[must_use]
    pub fn load(&self) -> (T, u32) {
        let word = self.0.load(Ordering::Acquire);
        (T::unpack(word as u32), (word >> 32) as u32)
    }

    /// Publish `value`, bumping the epoch; returns the new epoch.
    ///
    /// Lock-free: concurrent publishers retry on CAS failure, so every
    /// publication gets a distinct epoch and none is silently dropped.
    pub fn publish(&self, value: T) -> u32 {
        let packed = u64::from(value.pack());
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let epoch = ((cur >> 32) as u32).wrapping_add(1);
            let next = (u64::from(epoch) << 32) | packed;
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return epoch,
                Err(observed) => cur = observed,
            }
        }
    }
}

impl<T: Packed + std::fmt::Debug> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (value, epoch) = self.load();
        f.debug_struct("EpochCell")
            .field("value", &value)
            .field("epoch", &epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigEnumerator;
    use std::sync::Arc;

    #[test]
    fn every_valid_config_round_trips() {
        let configs = ConfigEnumerator::default().enumerate();
        assert!(!configs.is_empty());
        for c in configs {
            assert_eq!(PipelineConfig::unpack(c.pack()), c, "{c}");
        }
        // The named presets too.
        for c in [PipelineConfig::mega_kv(), PipelineConfig::cpu_only()] {
            assert_eq!(PipelineConfig::unpack(c.pack()), c, "{c}");
        }
    }

    #[test]
    fn publish_bumps_epoch_and_readers_see_latest() {
        let cell = ConfigCell::new(PipelineConfig::mega_kv());
        assert_eq!(cell.load(), (PipelineConfig::mega_kv(), 0));
        let e1 = cell.publish(PipelineConfig::cpu_only());
        assert_eq!(e1, 1);
        assert_eq!(cell.load(), (PipelineConfig::cpu_only(), 1));
        let e2 = cell.publish(PipelineConfig::mega_kv());
        assert_eq!(e2, 2);
        assert_eq!(cell.load(), (PipelineConfig::mega_kv(), 2));
    }

    #[test]
    fn concurrent_publishers_never_lose_an_epoch() {
        let cell = Arc::new(ConfigCell::new(PipelineConfig::mega_kv()));
        let configs = ConfigEnumerator::default().enumerate();
        let threads = 4;
        let per_thread = 200;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cell = Arc::clone(&cell);
                let configs = configs.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        cell.publish(configs[(t * per_thread + i) % configs.len()]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (_, epoch) = cell.load();
        assert_eq!(epoch as usize, threads * per_thread);
    }
}
