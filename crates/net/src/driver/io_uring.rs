//! The io_uring adapter: a submission is an SQE, a completion a CQE.
//!
//! SQEs are pushed as ops are submitted (flushing whenever the SQ
//! fills, so its size bounds batching, not connection count) and one
//! `io_uring_enter` per `wait` hands them all to the kernel and reaps
//! the whole completion batch. The waker's eventfd is folded into the
//! ring through a one-shot `POLL_ADD`, re-armed after each kick, so the
//! thread blocks in exactly one place.

use super::{Completion, IoDriver, IoVec, Waker, EIO, WAKE};
use std::collections::HashSet;
use std::io;
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uring::{Cqe, Uring};

/// SQ slots per ring.
const SQ_ENTRIES: u32 = 1024;
/// CQ slots; sized above the SQ so completion bursts from thousands of
/// armed connections do not hit the kernel's overflow path in steady
/// state (`FEAT_NODROP` keeps even that lossless).
const CQ_ENTRIES: u32 = 4096;

/// `user_data` of the adapter's own `ASYNC_CANCEL` SQEs (kind byte
/// `0xFF`, reserved like [`WAKE`]); their CQEs are never surfaced.
const UD_CANCEL: u64 = u64::MAX - 1;

/// Longest [`IoDriver::drain`] waits for canceled ops to complete.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// See the module docs.
pub struct UringDriver {
    ring: Uring,
    waker: Arc<Waker>,
    cqes: Vec<Cqe>,
    /// `user_data` of every caller op the kernel still owns — what
    /// `drain` must cancel and outwait.
    in_flight: HashSet<u64>,
    /// The adapter's own outstanding SQEs: the waker watch and cancels.
    internal: u64,
    /// Completions for ops that could not be queued (broken ring).
    ready: Vec<Completion>,
}

impl UringDriver {
    /// Push one SQE via `prep`, flushing the SQ while it is full.
    /// `false` means the ring itself is broken.
    fn push(&mut self, mut prep: impl FnMut(&mut Uring) -> bool) -> bool {
        while !prep(&mut self.ring) {
            if self.ring.submit().is_err() {
                return false;
            }
        }
        true
    }

    /// Push a caller op, tracking it — or completing it with an error
    /// when the ring would not take it.
    fn push_op(&mut self, user_data: u64, prep: impl FnMut(&mut Uring) -> bool) {
        if self.push(prep) {
            let fresh = self.in_flight.insert(user_data);
            debug_assert!(fresh, "user_data must be unique among in-flight ops");
        } else {
            self.ready.push(Completion {
                user_data,
                res: -EIO,
            });
        }
    }

    fn arm_waker(&mut self) -> io::Result<()> {
        let fd = self.waker.as_raw_fd();
        if self.push(|r| r.push_poll_add(fd, uring::POLL_IN, WAKE)) {
            self.internal += 1;
            Ok(())
        } else {
            Err(io::Error::other("io_uring submission queue is broken"))
        }
    }

    /// Move every available CQE into `out`, settling the in-flight
    /// accounting. Returns whether the waker watch completed (and so
    /// needs re-arming).
    fn reap(&mut self, out: &mut Vec<Completion>) -> bool {
        self.cqes.clear();
        self.ring.reap(&mut self.cqes);
        let mut woken = false;
        for cqe in &self.cqes {
            match cqe.user_data {
                UD_CANCEL => self.internal -= 1,
                WAKE => {
                    self.internal -= 1;
                    // POLL_ADD consumes nothing: reset the eventfd by
                    // hand. Re-arming happens after the whole batch, and
                    // readiness is level-based at arm time, so a kick
                    // posted in between still completes promptly.
                    uring::drain_notify_fd(self.waker.as_raw_fd());
                    woken = true;
                    out.push(Completion {
                        user_data: WAKE,
                        res: 0,
                    });
                }
                user_data => {
                    self.in_flight.remove(&user_data);
                    out.push(Completion {
                        user_data,
                        res: cqe.res,
                    });
                }
            }
        }
        woken
    }
}

impl IoDriver for UringDriver {
    fn new() -> io::Result<UringDriver> {
        let mut driver = UringDriver {
            ring: Uring::new(SQ_ENTRIES, CQ_ENTRIES)?,
            waker: Arc::new(Waker::unregistered()?),
            cqes: Vec::with_capacity(CQ_ENTRIES as usize),
            in_flight: HashSet::new(),
            internal: 0,
            ready: Vec::new(),
        };
        driver.arm_waker()?;
        Ok(driver)
    }

    fn prepare(_stream: &TcpStream) -> io::Result<()> {
        Ok(()) // accept(2) hands out blocking sockets
    }

    fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    fn watch_readable(&mut self, fd: RawFd, user_data: u64) {
        self.push_op(user_data, |r| {
            r.push_poll_add(fd, uring::POLL_IN, user_data)
        });
    }

    unsafe fn recv(&mut self, fd: RawFd, buf: *mut u8, len: u32, user_data: u64) {
        // SAFETY: `push_recv` needs `buf[..len]` valid and unread until
        // the CQE is reaped — this method's own pinned-buffer contract.
        self.push_op(user_data, |r| unsafe {
            r.push_recv(fd, buf, len, user_data)
        });
    }

    unsafe fn writev(&mut self, fd: RawFd, iov: *const IoVec, n: u32, user_data: u64) {
        // SAFETY: `push_writev` needs the array and its segments valid
        // and unmodified until the CQE is reaped — this method's own
        // pinned-buffer contract.
        self.push_op(user_data, |r| unsafe {
            r.push_writev(fd, iov, n, user_data)
        });
    }

    fn cancel(&mut self, _fd: RawFd, user_data: u64) {
        if self.in_flight.contains(&user_data) && self.push(|r| r.push_cancel(user_data, UD_CANCEL))
        {
            self.internal += 1;
        }
    }

    fn detach(&mut self, _fd: RawFd) {}

    fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Completion>) -> io::Result<()> {
        let timeout = if self.ready.is_empty() {
            timeout
        } else {
            out.append(&mut self.ready);
            Some(Duration::ZERO)
        };
        self.ring.submit_and_wait(1, timeout)?;
        if self.reap(out) {
            self.arm_waker()?;
        }
        Ok(())
    }

    fn drain(&mut self) -> bool {
        // The kernel owns every in-flight op's memory until its CQE
        // arrives (even a canceled op completes), so: cancel everything,
        // then reap until nothing is outstanding.
        let targets: Vec<u64> = self.in_flight.iter().copied().chain([WAKE]).collect();
        for target in targets {
            if self.push(|r| r.push_cancel(target, UD_CANCEL)) {
                self.internal += 1;
            }
        }
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut sink = Vec::new();
        while !self.in_flight.is_empty() || self.internal > 0 {
            if Instant::now() >= deadline
                || self
                    .ring
                    .submit_and_wait(1, Some(Duration::from_millis(100)))
                    .is_err()
            {
                return false;
            }
            self.reap(&mut sink);
            sink.clear();
        }
        self.ready.clear();
        true
    }

    fn enters(&self) -> u64 {
        self.ring.enters()
    }
}
