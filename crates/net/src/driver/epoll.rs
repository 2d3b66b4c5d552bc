//! The epoll adapter: completions synthesised from readiness.
//!
//! Each fd has one slot holding its in-flight op (if any) and whether
//! the fd is currently registered with the selector. A `recv` or watch
//! arms READABLE and is performed when the fd reports ready — reading
//! until the window is full or the socket would block; a `writev` is
//! attempted immediately and only `EAGAIN` arms WRITABLE. A fired
//! op leaves its registration in place: the common case is that the
//! loop re-arms the same interest before the next `wait`, which then
//! costs no `epoll_ctl`. Registrations nobody re-armed are dropped at
//! the top of the next `wait` (level-triggered, they would otherwise
//! spin it).

use super::{neg_errno, Completion, IoDriver, IoVec, Waker, ECANCELED, WAKE};
use mio::{Events, Interest, Poll, Token};
use std::io::{self, IoSlice, Read, Write};
use std::mem::ManuallyDrop;
use std::net::TcpStream;
use std::os::fd::{FromRawFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// The waker's token; fd-derived tokens are small non-negative ints.
const WAKER_TOKEN: usize = usize::MAX;

/// Most readiness events one `wait` takes from the selector (also the
/// initial size of the per-fd slot table, which grows with the highest
/// fd seen).
const EVENTS_PER_WAIT: usize = 1024;

#[derive(Clone, Copy)]
enum Op {
    Watch,
    Recv { buf: *mut u8, len: u32 },
    Writev { iov: *const IoVec, n: u32 },
}

#[derive(Default)]
struct Slot {
    /// The armed op and its `user_data`.
    op: Option<(Op, u64)>,
    /// The interest the fd is registered for, if it is.
    registered: Option<Interest>,
}

/// See the module docs.
pub struct EpollDriver {
    poll: Poll,
    events: Events,
    waker: Arc<Waker>,
    /// Indexed by fd.
    slots: Vec<Slot>,
    /// Ops armed and waiting for readiness.
    armed: usize,
    /// fds whose op fired during the last `wait`: deregistered at the
    /// top of the next one unless re-armed by then.
    fired: Vec<RawFd>,
    /// Completions produced outside `epoll_wait` (immediate writes,
    /// cancels, registration failures), delivered by the next `wait`.
    ready: Vec<Completion>,
    enters: u64,
}

// SAFETY: the raw pointers in `Op` are plain addresses the driver only
// dereferences inside `wait`/`writev` on whichever single thread owns
// it (`&mut self`), under the pinned-buffer contract of `IoDriver`; a
// driver is moved to its plane thread before any op is submitted.
unsafe impl Send for EpollDriver {}

/// Perform an armed `recv`: read until the window is full or the
/// socket would block, so one completion carries everything that was
/// available (the loop's burst). `None` means the readiness was
/// spurious and the op stays armed. Every `read` issued bumps `enters`.
///
/// # Safety
/// `buf[..len]` is pinned per the `IoDriver` contract and `fd` is an
/// open socket.
unsafe fn do_read(fd: RawFd, buf: *mut u8, len: u32, enters: &mut u64) -> Option<i32> {
    // SAFETY: `fd` is open and owned elsewhere; `ManuallyDrop` keeps
    // this borrowed view from closing it.
    let stream = ManuallyDrop::new(unsafe { TcpStream::from_raw_fd(fd) });
    // SAFETY: the pinned-buffer contract gives this op exclusive access
    // to the (initialised) window until its completion is returned.
    let window = unsafe { std::slice::from_raw_parts_mut(buf, len as usize) };
    let mut stream: &TcpStream = &stream;
    let mut got = 0usize;
    while got < window.len() {
        *enters += 1;
        match stream.read(&mut window[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && got == 0 => return None,
            // Bytes already read are delivered first; a pending error
            // (or EOF) resurfaces on the next recv.
            Err(e) if e.kind() != io::ErrorKind::WouldBlock && got == 0 => {
                return Some(neg_errno(&e))
            }
            Err(_) => break,
        }
    }
    Some(got as i32)
}

/// Perform a `writev`. `None` means `EAGAIN`: nothing was written.
/// Every `writev` issued bumps `enters`.
///
/// # Safety
/// `iov[..n]` and its segments are pinned per the `IoDriver` contract
/// and `fd` is an open socket.
unsafe fn do_writev(fd: RawFd, iov: *const IoVec, n: u32, enters: &mut u64) -> Option<i32> {
    // SAFETY: as in `do_read`.
    let stream = ManuallyDrop::new(unsafe { TcpStream::from_raw_fd(fd) });
    // SAFETY: `IoVec` is `repr(C)` `{ base, len }` and `IoSlice` is
    // documented ABI-compatible with `struct iovec` on Unix; the array
    // and its segments are pinned (and only read) for the op's life.
    let slices = unsafe { std::slice::from_raw_parts(iov.cast::<IoSlice<'_>>(), n as usize) };
    let mut stream: &TcpStream = &stream;
    loop {
        *enters += 1;
        match stream.write_vectored(slices) {
            Ok(n) => return Some(n as i32),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
            Err(e) => return Some(neg_errno(&e)),
        }
    }
}

impl EpollDriver {
    /// Arm `op` on `fd`, registering (or re-registering) the fd for
    /// `interest` unless it already is.
    fn arm(&mut self, fd: RawFd, op: Op, user_data: u64, interest: Interest) {
        let tok = fd as usize;
        if tok >= self.slots.len() {
            self.slots.resize_with(tok + 1, Slot::default);
        }
        let slot = &mut self.slots[tok];
        debug_assert!(slot.op.is_none(), "one op in flight per fd");
        let registry = self.poll.registry();
        let registered = match slot.registered {
            Some(current) if current == interest => Ok(()),
            Some(_) => registry.reregister(&fd, Token(tok), interest),
            None => registry.register(&fd, Token(tok), interest),
        };
        match registered {
            Ok(()) => {
                slot.registered = Some(interest);
                slot.op = Some((op, user_data));
                self.armed += 1;
            }
            Err(e) => self.ready.push(Completion {
                user_data,
                res: neg_errno(&e),
            }),
        }
    }

    fn deregister(&mut self, fd: RawFd) {
        if let Some(slot) = self.slots.get_mut(fd as usize) {
            if slot.op.take().is_some() {
                self.armed -= 1;
            }
            if slot.registered.take().is_some() {
                let _ = self.poll.registry().deregister(&fd);
            }
        }
    }
}

impl IoDriver for EpollDriver {
    fn new() -> io::Result<EpollDriver> {
        let mut poll = Poll::new()?;
        let waker = Arc::new(Waker::new(poll.registry(), Token(WAKER_TOKEN))?);
        let mut events = Events::with_capacity(EVENTS_PER_WAIT);
        // Everything the parked path needs is allocated here, not at the
        // first slow consumer: the selector's scratch (sized by a first
        // poll), and room for a whole wait's worth of fired ops.
        poll.poll(&mut events, Some(Duration::ZERO))?;
        Ok(EpollDriver {
            poll,
            events,
            waker,
            slots: std::iter::repeat_with(Slot::default)
                .take(EVENTS_PER_WAIT)
                .collect(),
            armed: 0,
            fired: Vec::with_capacity(EVENTS_PER_WAIT),
            ready: Vec::with_capacity(EVENTS_PER_WAIT),
            enters: 0,
        })
    }

    fn prepare(stream: &TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)
    }

    fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    fn watch_readable(&mut self, fd: RawFd, user_data: u64) {
        self.arm(fd, Op::Watch, user_data, Interest::READABLE);
    }

    unsafe fn recv(&mut self, fd: RawFd, buf: *mut u8, len: u32, user_data: u64) {
        self.arm(fd, Op::Recv { buf, len }, user_data, Interest::READABLE);
    }

    unsafe fn writev(&mut self, fd: RawFd, iov: *const IoVec, n: u32, user_data: u64) {
        // SAFETY: forwarded from this method's own contract.
        match unsafe { do_writev(fd, iov, n, &mut self.enters) } {
            Some(res) => self.ready.push(Completion { user_data, res }),
            None => self.arm(fd, Op::Writev { iov, n }, user_data, Interest::WRITABLE),
        }
    }

    fn cancel(&mut self, fd: RawFd, user_data: u64) {
        let in_flight = self
            .slots
            .get(fd as usize)
            .is_some_and(|s| matches!(s.op, Some((_, ud)) if ud == user_data));
        if in_flight {
            self.deregister(fd);
            self.ready.push(Completion {
                user_data,
                res: -ECANCELED,
            });
        }
    }

    fn detach(&mut self, fd: RawFd) {
        self.deregister(fd);
    }

    fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Completion>) -> io::Result<()> {
        for i in 0..self.fired.len() {
            let fd = self.fired[i];
            if self.slots[fd as usize].op.is_none() {
                self.deregister(fd);
            }
        }
        self.fired.clear();
        let timeout = if self.ready.is_empty() {
            timeout
        } else {
            out.append(&mut self.ready);
            if self.armed == 0 {
                // Nothing readiness could complete: skip the syscall.
                return Ok(());
            }
            // Still look, so a busy plane cannot starve its parked ops.
            Some(Duration::ZERO)
        };
        self.enters += 1;
        self.poll.poll(&mut self.events, timeout)?;
        for event in &self.events {
            let tok = event.token().0;
            if tok == WAKER_TOKEN {
                out.push(Completion {
                    user_data: WAKE,
                    res: 0,
                });
                continue;
            }
            let fd = tok as RawFd;
            let Some((op, user_data)) = self.slots[tok].op else {
                self.fired.push(fd); // stale event: drop the registration
                continue;
            };
            let res = match op {
                Op::Watch => Some(0),
                // SAFETY (both arms): pinned since submission per the
                // `IoDriver` pinned-buffer contract; the completion
                // below ends the op.
                Op::Recv { buf, len } => unsafe { do_read(fd, buf, len, &mut self.enters) },
                Op::Writev { iov, n } => unsafe { do_writev(fd, iov, n, &mut self.enters) },
            };
            if let Some(res) = res {
                self.slots[tok].op = None;
                self.armed -= 1;
                self.fired.push(fd);
                out.push(Completion { user_data, res });
            }
        }
        Ok(())
    }

    fn drain(&mut self) -> bool {
        // Nothing is ever in the kernel's hands between calls: dropping
        // the armed ops and their registrations is the whole drain.
        for fd in 0..self.slots.len() {
            self.deregister(fd as RawFd);
        }
        self.fired.clear();
        self.ready.clear();
        true
    }

    fn enters(&self) -> u64 {
        self.enters
    }
}
