//! Offline stand-in for the subset of `mio` that DIDO's reactor
//! threads use: a readiness poller ([`Poll`]/[`Registry`]), event
//! buffers ([`Events`]), registration tokens, and a cross-thread
//! [`Waker`].
//!
//! Like the other `compat-*` crates, this exists because the build
//! environment cannot fetch the registry version. The API mirrors
//! `mio` where we use it, with two documented deviations that keep the
//! shim small:
//!
//! * Sources are registered as anything [`AsRawFd`] (std `TcpStream`/
//!   `TcpListener` work directly) instead of `mio::net` wrapper types.
//!   Callers are responsible for putting sockets into nonblocking mode.
//! * [`wait_writable`] is an extension: a one-shot `poll(2)` on a
//!   single fd, used by blocking-style writers that share a nonblocking
//!   file description with a reactor-owned read half.
//!
//! Registrations are level-triggered: readiness is reported again on
//! every poll until the condition clears, so a reader that stops short
//! of draining a socket (e.g. to bound per-connection work per wakeup)
//! is re-notified on the next poll. The waker is the exception — it is
//! registered edge-triggered (an `eventfd`; each `wake` posts a fresh
//! edge) and never drained, so callers never read it.
//!
//! Linux only: the backend is `epoll` + `eventfd`, spoken to through
//! `extern "C"` declarations against the C library std already links —
//! no `libc` crate dependency.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("compat-mio supports Linux only (epoll + eventfd)");

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Caller-chosen identifier attached to a registration and reported
/// back on each readiness event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// What readiness to watch for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Readable readiness (includes peer hang-up, which surfaces as a
    /// readable event whose read returns 0).
    pub const READABLE: Interest = Interest(0b01);
    /// Writable readiness.
    pub const WRITABLE: Interest = Interest(0b10);

    /// Combine two interests. (Named after `mio::Interest::add`, not
    /// the `std::ops::Add` trait.)
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether this interest includes readable.
    #[must_use]
    pub fn is_readable(self) -> bool {
        self.0 & 0b01 != 0
    }

    /// Whether this interest includes writable.
    #[must_use]
    pub fn is_writable(self) -> bool {
        self.0 & 0b10 != 0
    }
}

/// One readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    error: bool,
    hup: bool,
}

impl Event {
    /// The token the ready source was registered with.
    #[must_use]
    pub fn token(&self) -> Token {
        self.token
    }

    /// Readable (data, EOF, or a pending error a read will surface).
    #[must_use]
    pub fn is_readable(&self) -> bool {
        self.readable || self.error || self.hup
    }

    /// Writable (or a pending error a write will surface).
    #[must_use]
    pub fn is_writable(&self) -> bool {
        self.writable || self.error
    }

    /// The peer closed or the socket errored; a read will observe it.
    #[must_use]
    pub fn is_read_closed(&self) -> bool {
        self.error || self.hup
    }
}

/// Reusable buffer of readiness events filled by [`Poll::poll`].
#[derive(Debug)]
pub struct Events {
    list: Vec<Event>,
    capacity: usize,
}

impl Events {
    /// Buffer that reports at most `capacity` events per poll.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            list: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
        }
    }

    /// Iterate the events of the last poll.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.list.iter()
    }

    /// Whether the last poll returned no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Number of events the last poll returned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.list.len()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.list.iter()
    }
}

/// Raw C library declarations. `std` links the platform C library, so
/// these resolve without the `libc` crate.
mod ffi {
    use std::ffi::{c_int, c_uint, c_ulong, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    pub const POLLOUT: i16 = 0x004;

    // setsockopt(2) levels/names for the send/receive buffer helpers.
    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;
    pub const SO_RCVBUF: c_int = 8;

    /// `struct epoll_event`; packed on x86-64, natural elsewhere —
    /// matching the kernel ABI.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Debug, Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn setsockopt(
            sockfd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: c_uint,
        ) -> c_int;
        pub fn listen(sockfd: c_int, backlog: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        // Round up so a 1ns request does not busy-spin as 0ms.
        Some(t) => i32::try_from(t.as_millis().max(u128::from(!t.is_zero()))).unwrap_or(i32::MAX),
        None => -1,
    }
}

/// Block the calling thread until `fd` is writable (or has a pending
/// error a write will surface), up to `timeout`. Returns whether the
/// fd became ready. This is the shim's extension for blocking-style
/// writers that share a nonblocking file description with a reactor.
pub fn wait_writable(fd: RawFd, timeout: Option<Duration>) -> io::Result<bool> {
    let mut pfd = ffi::PollFd {
        fd,
        events: ffi::POLLOUT,
        revents: 0,
    };
    loop {
        let r = unsafe { ffi::poll(&mut pfd, 1, timeout_ms(timeout)) };
        match cvt(r) {
            Ok(0) => return Ok(false),
            Ok(_) => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

fn set_buf_opt(fd: RawFd, optname: i32, bytes: usize) -> io::Result<()> {
    let val: i32 = i32::try_from(bytes).unwrap_or(i32::MAX);
    cvt(unsafe {
        ffi::setsockopt(
            fd,
            ffi::SOL_SOCKET,
            optname,
            (&raw const val).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    })?;
    Ok(())
}

/// Set `SO_SNDBUF` on a socket (the kernel may round the value). This
/// is the shim's extension for servers that want small, deterministic
/// send buffers — e.g. to exercise write-side backpressure in tests.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, ffi::SO_SNDBUF, bytes)
}

/// Set `SO_RCVBUF` on a socket (the kernel may round the value).
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, ffi::SO_RCVBUF, bytes)
}

/// Re-issue `listen(2)` on an already-listening socket to grow its
/// accept backlog (capped by `net.core.somaxconn`). `std`'s bind uses a
/// fixed backlog of 128, which a simultaneous connect storm overflows:
/// the kernel then silently drops handshake ACKs and the surplus
/// clients sit "connected" but never complete server-side. Linux (and
/// the BSDs) permit updating the backlog with a second `listen` call.
pub fn set_backlog(fd: RawFd, backlog: usize) -> io::Result<()> {
    let val = i32::try_from(backlog).unwrap_or(i32::MAX);
    cvt(unsafe { ffi::listen(fd, val) })?;
    Ok(())
}

mod sys {
    //! epoll backend.

    use super::{cvt, ffi, timeout_ms, Event, Events, Interest, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    #[derive(Debug)]
    pub struct Selector {
        epfd: RawFd,
        /// Kernel-facing event scratch, reused across polls so a poller
        /// waking thousands of times per second performs no per-wakeup
        /// allocation.
        scratch: Vec<ffi::EpollEvent>,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            let epfd = cvt(unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) })?;
            Ok(Selector {
                epfd,
                scratch: Vec::new(),
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: Token) -> io::Result<()> {
            let mut ev = ffi::EpollEvent {
                events,
                data: token.0 as u64,
            };
            cvt(unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut ev) })?;
            Ok(())
        }

        fn interest_bits(interest: Interest) -> u32 {
            let mut bits = ffi::EPOLLRDHUP;
            if interest.is_readable() {
                bits |= ffi::EPOLLIN;
            }
            if interest.is_writable() {
                bits |= ffi::EPOLLOUT;
            }
            bits
        }

        pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(ffi::EPOLL_CTL_ADD, fd, Self::interest_bits(interest), token)
        }

        pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(ffi::EPOLL_CTL_MOD, fd, Self::interest_bits(interest), token)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(ffi::EPOLL_CTL_DEL, fd, 0, Token(0))
        }

        /// Edge-triggered registration used by the waker's eventfd: the
        /// counter is never drained, and each `write` posts a new edge.
        pub fn register_waker_fd(&self, fd: RawFd, token: Token) -> io::Result<()> {
            self.ctl(ffi::EPOLL_CTL_ADD, fd, ffi::EPOLLIN | ffi::EPOLLET, token)
        }

        pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
            events.list.clear();
            self.scratch
                .resize(events.capacity, ffi::EpollEvent { events: 0, data: 0 });
            let buf = &mut self.scratch;
            let r = unsafe {
                ffi::epoll_wait(
                    self.epfd,
                    buf.as_mut_ptr(),
                    buf.len() as i32,
                    timeout_ms(timeout),
                )
            };
            let n = match cvt(r) {
                Ok(n) => n as usize,
                // A signal interrupting the wait reads as a timeout.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &buf[..n] {
                let bits = ev.events;
                events.list.push(Event {
                    token: Token(ev.data as usize),
                    readable: bits & ffi::EPOLLIN != 0,
                    writable: bits & ffi::EPOLLOUT != 0,
                    error: bits & ffi::EPOLLERR != 0,
                    hup: bits & (ffi::EPOLLHUP | ffi::EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            let _ = unsafe { ffi::close(self.epfd) };
        }
    }

    #[derive(Debug)]
    pub struct WakerFd {
        fd: RawFd,
    }

    impl WakerFd {
        pub fn unregistered() -> io::Result<WakerFd> {
            let fd = cvt(unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) })?;
            Ok(WakerFd { fd })
        }

        pub fn new(selector: &Selector, token: Token) -> io::Result<WakerFd> {
            let waker = WakerFd::unregistered()?;
            selector.register_waker_fd(waker.fd, token)?;
            Ok(waker)
        }

        pub fn notify_fd(&self) -> RawFd {
            self.fd
        }

        pub fn wake(&self) -> io::Result<()> {
            let one: u64 = 1;
            let r = unsafe {
                ffi::write(self.fd, (&raw const one).cast(), std::mem::size_of::<u64>())
            };
            if r < 0 {
                let e = io::Error::last_os_error();
                // A full counter still leaves the fd readable — the
                // wakeup is already pending, which is all wake promises.
                if e.kind() == io::ErrorKind::WouldBlock {
                    return Ok(());
                }
                return Err(e);
            }
            Ok(())
        }
    }

    impl Drop for WakerFd {
        fn drop(&mut self) {
            let _ = unsafe { ffi::close(self.fd) };
        }
    }
}

/// Registration handle: add, update, and remove event sources.
#[derive(Debug)]
pub struct Registry {
    selector: sys::Selector,
}

impl Registry {
    /// Watch `source` for `interest`, reporting readiness as `token`.
    /// The source must already be in nonblocking mode.
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.selector.register(source.as_raw_fd(), token, interest)
    }

    /// Change the token or interest of an already-registered source.
    pub fn reregister(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.selector
            .reregister(source.as_raw_fd(), token, interest)
    }

    /// Stop watching `source`.
    pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
        self.selector.deregister(source.as_raw_fd())
    }
}

/// The poller: owns the OS selector and fills [`Events`].
#[derive(Debug)]
pub struct Poll {
    registry: Registry,
}

impl Poll {
    /// Create a poller.
    pub fn new() -> io::Result<Poll> {
        Ok(Poll {
            registry: Registry {
                selector: sys::Selector::new()?,
            },
        })
    }

    /// The registration handle.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Wait up to `timeout` (`None` = forever) for readiness events and
    /// fill `events` with what arrived. An empty `events` after return
    /// means the timeout elapsed (or a signal interrupted the wait).
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        self.registry.selector.poll(events, timeout)
    }
}

/// Cross-thread wakeup: `wake` makes a concurrent or subsequent
/// [`Poll::poll`] return with an event carrying the waker's token.
#[derive(Debug)]
pub struct Waker {
    inner: sys::WakerFd,
}

impl Waker {
    /// Create a waker delivering `token` through `registry`'s poller.
    pub fn new(registry: &Registry, token: Token) -> io::Result<Waker> {
        Ok(Waker {
            inner: sys::WakerFd::new(&registry.selector, token)?,
        })
    }

    /// Extension over `mio`: a waker registered with no poller. Its
    /// owner watches the notification fd ([`AsRawFd`]) through its own
    /// event plane (DIDO's io_uring backend arms `POLL_ADD` on it).
    pub fn unregistered() -> io::Result<Waker> {
        Ok(Waker {
            inner: sys::WakerFd::unregistered()?,
        })
    }

    /// Wake the poller. Wakeups coalesce; one `poll` return may cover
    /// several `wake` calls.
    pub fn wake(&self) -> io::Result<()> {
        self.inner.wake()
    }
}

/// Extension over `mio`: exposes the waker's readable notification fd
/// (the eventfd) so an alternative event plane — DIDO's io_uring
/// backend — can arm its own readiness watch (`POLL_ADD`) on the waker
/// other planes kick through [`Waker::wake`]. Such a consumer must
/// drain the fd itself after each completion.
impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.inner.notify_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    const LISTENER: Token = Token(100);
    const CLIENT: Token = Token(200);
    const WAKER: Token = Token(300);

    #[test]
    fn listener_and_stream_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(16);
        poll.registry()
            .register(&listener, LISTENER, Interest::READABLE)
            .unwrap();

        // Nothing pending: a short poll times out empty.
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        // A connection attempt makes the listener readable.
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token() == LISTENER && e.is_readable()));

        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        poll.registry()
            .register(&accepted, CLIENT, Interest::READABLE)
            .unwrap();

        // Data makes the accepted side readable with its own token.
        client.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poll.poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token() == CLIENT && e.is_readable()) {
                break;
            }
            assert!(Instant::now() < deadline, "stream never became readable");
        }
        let mut accepted = accepted;
        let mut buf = [0u8; 8];
        assert_eq!(accepted.read(&mut buf).unwrap(), 4);

        // Peer close surfaces as readable (read returns 0).
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poll.poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token() == CLIENT && e.is_readable()) {
                break;
            }
            assert!(Instant::now() < deadline, "close never surfaced");
        }
        assert_eq!(accepted.read(&mut buf).unwrap(), 0);

        poll.registry().deregister(&accepted).unwrap();
        poll.registry().deregister(&listener).unwrap();
    }

    #[test]
    fn waker_wakes_a_blocked_poll() {
        let mut poll = Poll::new().unwrap();
        let waker = Arc::new(Waker::new(poll.registry(), WAKER).unwrap());
        let mut events = Events::with_capacity(4);

        let w = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake().unwrap();
        });
        let start = Instant::now();
        poll.poll(&mut events, Some(Duration::from_secs(10))).unwrap();
        t.join().unwrap();
        assert!(start.elapsed() < Duration::from_secs(5), "wake was lost");
        assert!(events.iter().any(|e| e.token() == WAKER));

        // Wakeups posted while not polling are not lost.
        waker.wake().unwrap();
        waker.wake().unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token() == WAKER));
    }

    #[test]
    fn wait_writable_reports_ready_socket() {
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // A fresh connected socket has send-buffer space.
        assert!(wait_writable(client.as_raw_fd(), Some(Duration::from_secs(1))).unwrap());
    }
}
