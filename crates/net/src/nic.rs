//! Bounded frame rings with drop accounting.
//!
//! Rings are bounded, and a full ring drops frames exactly like NIC
//! hardware under overload. The ring is generic over its payload: the
//! batched TCP server moves connection-tagged frames so one shared RX
//! ring can aggregate traffic across every client (the server's `RV`
//! stage), while the reproduction's simulator (`dido-bench`) builds the
//! paper's Intel 82599 from two rings of raw [`Bytes`] frames. Producers
//! and consumers move frames in bursts — [`FrameRing::push_burst`] and
//! [`FrameRing::pop_into`] take the ring lock once per burst, not once
//! per frame, which is what makes the shared ring cheaper than the
//! per-frame syscalls it replaces.

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// A bounded frame ring. `T` defaults to a raw [`Bytes`] frame.
#[derive(Debug)]
pub struct FrameRing<T = Bytes> {
    ring: Mutex<VecDeque<T>>,
    slots: usize,
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    dropped: AtomicU64,
}

impl<T> FrameRing<T> {
    /// Ring holding up to `slots` frames.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    #[must_use]
    pub fn new(slots: usize) -> FrameRing<T> {
        assert!(slots > 0, "ring must have at least one slot");
        FrameRing {
            ring: Mutex::new(VecDeque::with_capacity(slots)),
            slots,
            enqueued: AtomicU64::new(0),
            dequeued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Offer a frame; drops (and counts the drop) when full.
    /// Returns whether the frame was accepted.
    pub fn push(&self, frame: T) -> bool {
        let accepted = {
            let mut ring = self.ring.lock();
            if ring.len() < self.slots {
                ring.push_back(frame);
                true
            } else {
                false
            }
        };
        if accepted {
            self.enqueued.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        accepted
    }

    /// Offer a burst of frames under a single ring lock. Frames that
    /// fit are moved out of `frames` (in order); whatever the full ring
    /// rejects stays behind — counted as dropped, exactly as if each
    /// had been [`push`](FrameRing::push)ed — for the caller to answer.
    /// Returns the number accepted.
    pub fn push_burst(&self, frames: &mut Vec<T>) -> usize {
        if frames.is_empty() {
            return 0;
        }
        let accepted = {
            let mut ring = self.ring.lock();
            let take = frames.len().min(self.slots - ring.len());
            ring.extend(frames.drain(..take));
            take
        };
        self.enqueued.fetch_add(accepted as u64, Ordering::Relaxed);
        self.dropped
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        accepted
    }

    /// Take the next frame, if any.
    pub fn pop(&self) -> Option<T> {
        let f = self.ring.lock().pop_front();
        if f.is_some() {
            self.dequeued.fetch_add(1, Ordering::Relaxed);
        }
        f
    }

    /// Drain up to `max` frames.
    pub fn pop_up_to(&self, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        self.pop_into(max, &mut out);
        out
    }

    /// Drain up to `max` frames into `out` under a single ring lock
    /// (appends; no fresh allocation once `out`'s capacity is warm).
    /// Returns the number appended.
    pub fn pop_into(&self, max: usize, out: &mut Vec<T>) -> usize {
        let taken = {
            let mut ring = self.ring.lock();
            let take = max.min(ring.len());
            out.extend(ring.drain(..take));
            take
        };
        self.dequeued.fetch_add(taken as u64, Ordering::Relaxed);
        taken
    }

    /// Frames currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Lifetime counters: (enqueued, dequeued, dropped).
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.enqueued.load(Ordering::Relaxed),
            self.dequeued.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let r = FrameRing::new(8);
        r.push(Bytes::from_static(b"a"));
        r.push(Bytes::from_static(b"b"));
        assert_eq!(r.pop().unwrap(), Bytes::from_static(b"a"));
        assert_eq!(r.pop().unwrap(), Bytes::from_static(b"b"));
        assert!(r.pop().is_none());
    }

    #[test]
    fn overflow_drops_and_counts() {
        let r = FrameRing::new(2);
        assert!(r.push(Bytes::from_static(b"1")));
        assert!(r.push(Bytes::from_static(b"2")));
        assert!(!r.push(Bytes::from_static(b"3")));
        let (enq, deq, drop) = r.counters();
        assert_eq!((enq, deq, drop), (2, 0, 1));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn pop_up_to_respects_limit() {
        let r = FrameRing::new(8);
        for i in 0..5u8 {
            r.push(Bytes::copy_from_slice(&[i]));
        }
        let drained = r.pop_up_to(3);
        assert_eq!(drained.len(), 3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop_up_to(100).len(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn pop_into_appends_without_clearing() {
        let r = FrameRing::new(8);
        for i in 0..4u8 {
            r.push(Bytes::copy_from_slice(&[i]));
        }
        let mut out = vec![Bytes::from_static(b"existing")];
        assert_eq!(r.pop_into(2, &mut out), 2);
        assert_eq!(r.pop_into(10, &mut out), 2);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], Bytes::from_static(b"existing"));
        assert!(r.is_empty());
    }

    #[test]
    fn push_burst_accepts_prefix_and_leaves_overflow() {
        let r = FrameRing::new(3);
        r.push(Bytes::from_static(b"head"));
        let mut burst: Vec<Bytes> = (0..4u8).map(|i| Bytes::copy_from_slice(&[i])).collect();
        assert_eq!(r.push_burst(&mut burst), 2, "only two slots were free");
        assert_eq!(burst.len(), 2, "rejected tail stays with the caller");
        assert_eq!(burst[0], Bytes::from_static(&[2]));
        let (enq, _, drop) = r.counters();
        assert_eq!((enq, drop), (3, 2));
        // FIFO order survives the burst.
        assert_eq!(r.pop().unwrap(), Bytes::from_static(b"head"));
        assert_eq!(r.pop().unwrap(), Bytes::from_static(&[0]));
        assert_eq!(r.pop().unwrap(), Bytes::from_static(&[1]));
    }

    #[test]
    fn generic_ring_carries_tagged_payloads() {
        // The batched server tags frames with (conn, seq); the ring must
        // carry arbitrary payloads, not just raw Bytes.
        let r: FrameRing<(u64, Bytes)> = FrameRing::new(4);
        assert!(r.push((7, Bytes::from_static(b"payload"))));
        let (conn, frame) = r.pop().unwrap();
        assert_eq!(conn, 7);
        assert_eq!(frame, Bytes::from_static(b"payload"));
    }

    #[test]
    fn concurrent_producers_consumers() {
        use std::sync::Arc;
        let r = Arc::new(FrameRing::new(1024));
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        while !r.push(Bytes::from_static(b"x")) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut got = 0;
                while got < 1000 {
                    if r.pop().is_some() {
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                got
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(consumer.join().unwrap(), 1000);
        let (enq, deq, _) = r.counters();
        assert_eq!(enq, 1000);
        assert_eq!(deq, 1000);
    }
}
