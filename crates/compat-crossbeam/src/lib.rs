//! API-compatible subset of `crossbeam`, backed by a lock from the
//! `parking_lot` shim.
//!
//! Vendored because the build environment has no crates.io access (see
//! `crates/compat-*`). Covers the one thing the workspace uses: the
//! unbounded [`channel`] the reactor and SD planes take commands on —
//! many cloned senders, one polling receiver, disconnect-on-last-drop
//! semantics. The real crate's lock-free algorithm is replaced by a
//! mutex — identical observable behavior, lower peak throughput, which
//! no test depends on.

pub mod channel {
    //! Channels (`crossbeam::channel` subset): the [`unbounded`]
    //! constructor, cloneable [`Sender`], polling [`Receiver`], and
    //! disconnect when the other side drops.

    use parking_lot::Mutex;
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Shared<T> {
        items: Mutex<VecDeque<T>>,
        senders: AtomicUsize,
        receiver_gone: AtomicBool,
    }

    /// Sending half of a channel. Clone to add producers.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error on [`Sender::send`]: the receiver is gone. Returns the
    /// unsent value.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error on [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// Channel empty and every sender gone.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Create a channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            items: Mutex::new(VecDeque::new()),
            senders: AtomicUsize::new(1),
            receiver_gone: AtomicBool::new(false),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue `value`; never blocks.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut items = self.shared.items.lock();
            if self.shared.receiver_gone.load(Ordering::Acquire) {
                return Err(SendError(value));
            }
            items.push_back(value);
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue the next item only if one is ready right now.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            // The sender count is read under the queue lock: a sender
            // pushes before it drops, so an empty queue plus a zero
            // count means nothing more can arrive.
            let mut items = self.shared.items.lock();
            if let Some(v) = items.pop_front() {
                return Ok(v);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.shared.senders.fetch_sub(1, Ordering::AcqRel);
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receiver_gone.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, SendError, TryRecvError};

    #[test]
    fn channel_is_fifo_and_reports_empty() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn channel_drains_then_disconnects_after_the_last_sender_drops() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_errors_once_the_receiver_is_gone() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn channel_crosses_threads() {
        let (tx, rx) = unbounded();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        tx.send(p * 50 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got: Vec<i32> = Vec::new();
        loop {
            match rx.try_recv() {
                Ok(v) => got.push(v),
                Err(TryRecvError::Empty) => std::thread::yield_now(),
                Err(TryRecvError::Disconnected) => break,
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
