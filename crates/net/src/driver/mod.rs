//! The I/O driver seam: *how a plane waits for and performs socket
//! I/O* lives here and nowhere else.
//!
//! The reactor (RV) and SD egress loops are written once against
//! [`IoDriver`], a completion-shaped interface: submit an operation
//! tagged with `user_data`, later receive exactly one [`Completion`]
//! carrying that tag from [`IoDriver::wait`]. Two adapters implement
//! it, chosen at spawn and dispatched statically (the loops are generic
//! over the driver):
//!
//! * [`UringDriver`] — submission *is* an SQE and a completion *is* a
//!   CQE; one `io_uring_enter` per `wait` flushes every submission and
//!   reaps the whole batch.
//! * [`EpollDriver`] — completions are synthesised from readiness: a
//!   `recv` is armed on READABLE and performed when the fd reports
//!   ready (reading until the window is full or the socket would
//!   block); a `writev` is attempted at once and only an `EAGAIN` arms
//!   WRITABLE; a short write is reported as a short completion. Per
//!   wakeup that is one `epoll_wait`, one burst-read per ready
//!   connection and one `writev` per drain.
//!
//! Rules both adapters and both loops share:
//!
//! * **One op in flight per fd** within one driver, and `user_data` is
//!   unique among a driver's in-flight ops.
//! * **Failure to queue is a completion**: an op the adapter could not
//!   arm or submit completes with a negative `res`, so callers have one
//!   error path.
//! * **Drain before free**: [`IoDriver::drain`] must return `true`
//!   before any buffer handed to `recv`/`writev` is freed; on `false`
//!   the caller leaks those buffers instead.
//!
//! Each adapter counts the I/O syscalls it issues ([`IoDriver::enters`]:
//! `io_uring_enter`s, or `epoll_wait` + `read` + `writev`); the loops
//! fold the delta into `ServerStats::ring_enters` after every `wait`.

mod epoll;
mod io_uring;

pub use self::epoll::EpollDriver;
pub use self::io_uring::UringDriver;
/// C-layout `struct iovec`, the element of a [`IoDriver::writev`] array.
pub use ::uring::IoVec;
/// Cross-thread wakeup handle (see [`IoDriver::waker`]).
pub use mio::Waker;

use std::io;
use std::net::TcpStream;
use std::os::fd::RawFd;
use std::sync::Arc;
use std::time::Duration;

/// Which syscall backend the I/O planes should use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IoBackendChoice {
    /// Probe at spawn: io_uring when the kernel exposes a fully usable
    /// ring, else epoll. The `DIDO_IO_BACKEND` environment variable
    /// (`uring` / `epoll`) overrides the probe, so test and CI runs can
    /// pin a backend without touching configs.
    #[default]
    Auto,
    /// [`EpollDriver`], over the vendored epoll shim (`compat-mio`).
    Epoll,
    /// [`UringDriver`], over the vendored io_uring binding
    /// (`compat-uring`); spawning fails with `Unsupported` when the
    /// kernel lacks io_uring rather than silently falling back.
    Uring,
}

/// The backend [`IoBackendChoice`] resolved to at spawn. Encoded into
/// the `ServerStats::io_backend` gauge as its discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBackend {
    /// Readiness-driven epoll adapter (gauge value 0).
    Epoll = 0,
    /// Batched-submission io_uring adapter (gauge value 1).
    Uring = 1,
}

impl IoBackend {
    /// Stable lowercase name (`"epoll"` / `"uring"`), as recorded in
    /// bench reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            IoBackend::Epoll => "epoll",
            IoBackend::Uring => "uring",
        }
    }

    /// Decode the `ServerStats::io_backend` gauge back to a name.
    #[must_use]
    pub fn name_of(gauge: u64) -> &'static str {
        if gauge == IoBackend::Uring as u64 {
            "uring"
        } else {
            "epoll"
        }
    }
}

impl From<IoBackend> for IoBackendChoice {
    /// Pin a resolved backend back into a config choice (never
    /// `Auto`), for harnesses that sweep both backends explicitly.
    fn from(backend: IoBackend) -> IoBackendChoice {
        match backend {
            IoBackend::Epoll => IoBackendChoice::Epoll,
            IoBackend::Uring => IoBackendChoice::Uring,
        }
    }
}

/// Whether the running kernel exposes a fully usable io_uring (cached
/// probe: setup, required features and opcodes, NOP round-trip).
#[must_use]
pub fn uring_available() -> bool {
    ::uring::available()
}

/// The `DIDO_IO_BACKEND=epoll|uring` override, if set — the one place
/// the variable is parsed, shared by the server and the test matrix.
fn env_backend() -> Option<IoBackend> {
    match std::env::var("DIDO_IO_BACKEND").as_deref() {
        Ok("epoll") => Some(IoBackend::Epoll),
        Ok("uring") => Some(IoBackend::Uring),
        _ => None,
    }
}

/// The backend matrix test suites and bench harnesses sweep: always
/// [`IoBackend::Epoll`], plus [`IoBackend::Uring`] when the kernel
/// probe finds a usable ring. Prints a skip notice to stderr when the
/// uring leg is dropped, so a green matrix log can't silently mean
/// "epoll passed twice".
///
/// `DIDO_IO_BACKEND` pins the matrix to one leg — the CI escape hatch
/// (e.g. an epoll-only sanitizer run). A pinned `uring` on a kernel
/// without io_uring falls back to epoll with the notice: matrix callers
/// are test suites that must still run.
#[must_use]
pub fn backend_matrix() -> Vec<IoBackend> {
    let pinned = env_backend();
    let mut backends = Vec::with_capacity(2);
    if pinned != Some(IoBackend::Uring) {
        backends.push(IoBackend::Epoll);
    }
    if pinned != Some(IoBackend::Epoll) {
        if uring_available() {
            backends.push(IoBackend::Uring);
        } else {
            eprintln!(
                "note: skipping io_uring matrix leg ({}); running the epoll leg only",
                ::uring::probe().reason
            );
            if backends.is_empty() {
                backends.push(IoBackend::Epoll);
            }
        }
    }
    backends
}

/// Resolve a backend choice against the environment and the kernel
/// probe. `Auto` honors `DIDO_IO_BACKEND` before probing; an explicit
/// (or pinned) `Uring` on a kernel without io_uring is an error.
pub(crate) fn resolve_backend(choice: IoBackendChoice) -> io::Result<IoBackend> {
    let choice = match (choice, env_backend()) {
        (IoBackendChoice::Auto, Some(pinned)) => pinned.into(),
        (choice, _) => choice,
    };
    match choice {
        IoBackendChoice::Epoll => Ok(IoBackend::Epoll),
        IoBackendChoice::Uring if uring_available() => Ok(IoBackend::Uring),
        IoBackendChoice::Uring => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("io_uring backend unavailable: {}", ::uring::probe().reason),
        )),
        IoBackendChoice::Auto if uring_available() => Ok(IoBackend::Uring),
        IoBackendChoice::Auto => Ok(IoBackend::Epoll),
    }
}

/// One finished operation. `res` follows kernel convention: `>= 0` is
/// the op's result (bytes for `recv`/`writev`; `recv` 0 is EOF; a
/// `writev` short of what was submitted means the socket buffer
/// filled), `< 0` is a negated errno.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The tag the op was submitted with ([`WAKE`] for a waker kick).
    pub user_data: u64,
    /// Result, or negated errno when negative.
    pub res: i32,
}

/// `user_data` of the completion a [`IoDriver::waker`] kick produces.
/// Its kind byte (`0xFF`) is reserved: plane tags built with [`ud`]
/// must use smaller kinds.
pub const WAKE: u64 = u64::MAX;

const UD_KIND_SHIFT: u32 = 56;
const UD_ID_MASK: u64 = (1 << UD_KIND_SHIFT) - 1;

/// The planes' one `user_data` scheme: an 8-bit kind in the top byte,
/// a connection (or listener) id below.
#[must_use]
pub const fn ud(kind: u64, id: u64) -> u64 {
    (kind << UD_KIND_SHIFT) | (id & UD_ID_MASK)
}

/// The kind byte of a [`ud`] tag.
#[must_use]
pub const fn ud_kind(user_data: u64) -> u64 {
    user_data >> UD_KIND_SHIFT
}

/// The id bits of a [`ud`] tag.
#[must_use]
pub const fn ud_id(user_data: u64) -> u64 {
    user_data & UD_ID_MASK
}

// Raw errnos the loops discriminate on (`Completion::res` is a negated
// errno; there is no `io::Error` to match kinds against).
/// The op was canceled ([`IoDriver::cancel`] / [`IoDriver::drain`]).
pub const ECANCELED: i32 = 125;
/// Spurious wakeup; resubmit.
pub const EAGAIN: i32 = 11;
/// Interrupted; resubmit.
pub const EINTR: i32 = 4;
/// What an op the adapter failed to queue completes with.
const EIO: i32 = 5;

/// The negated-errno form of an `io::Error`, for synthesised
/// completions.
fn neg_errno(e: &io::Error) -> i32 {
    -e.raw_os_error().unwrap_or(EIO)
}

/// A completion-shaped socket I/O driver; see the module docs for the
/// rules shared by every adapter.
///
/// # The pinned-buffer contract
///
/// [`recv`](IoDriver::recv) and [`writev`](IoDriver::writev) hand the
/// driver raw memory that the kernel (io_uring) or the adapter itself
/// (epoll, inside `wait`) accesses *after the call returns*. From
/// submission until the op's [`Completion`] has been returned by
/// [`wait`](IoDriver::wait) — or [`drain`](IoDriver::drain) has
/// returned `true` — the caller must keep that memory **valid, at a
/// stable address, and untouched**: the recv window is neither read
/// nor written; the iovec array and every byte range it points at are
/// not written, freed or recycled. If `drain` returns `false` the
/// memory must be leaked, never freed. This is the single safety
/// argument every `unsafe` block in this module and at the loops' call
/// sites refers to.
pub trait IoDriver: Send + Sized {
    /// Build the driver (selector or ring, plus its waker). A failure
    /// here is a `KvServer::start*` error.
    fn new() -> io::Result<Self>;

    /// Put a freshly accepted socket into the mode this adapter needs:
    /// nonblocking for epoll (ops are attempted and `EAGAIN` arms
    /// readiness), blocking for io_uring (the ring poll-arms internally;
    /// a nonblocking socket would complete `RECV` with `EAGAIN`). The
    /// mode lives on the file description, so it covers every
    /// `try_clone` of the socket.
    fn prepare(stream: &TcpStream) -> io::Result<()>;

    /// The handle other threads kick. Kicks coalesce; each surfaces as
    /// a [`WAKE`] completion from a concurrent or later `wait`.
    fn waker(&self) -> Arc<Waker>;

    /// One-shot watch: completes (`res >= 0`) once `fd` is readable.
    /// Re-arm after consuming the readiness — for a listener, after
    /// accepting until `WouldBlock`.
    fn watch_readable(&mut self, fd: RawFd, user_data: u64);

    /// Receive up to `len` bytes from `fd` into `buf`.
    ///
    /// # Safety
    /// `buf[..len]` is pinned per the trait-level contract.
    unsafe fn recv(&mut self, fd: RawFd, buf: *mut u8, len: u32, user_data: u64);

    /// Vectored write of `iov[..n]` to `fd`; may complete short.
    ///
    /// # Safety
    /// `iov[..n]` and every segment it points at are pinned per the
    /// trait-level contract.
    unsafe fn writev(&mut self, fd: RawFd, iov: *const IoVec, n: u32, user_data: u64);

    /// Ask for the in-flight op tagged `user_data` on `fd` to finish
    /// early. It still completes exactly once — normally with
    /// `-ECANCELED`, or with its real result if it raced the cancel. A
    /// no-op when nothing so tagged is in flight.
    fn cancel(&mut self, fd: RawFd, user_data: u64);

    /// `fd` is about to be closed: forget any readiness registration
    /// for it. No op may be in flight on it.
    fn detach(&mut self, fd: RawFd);

    /// Submit everything queued, block until at least one completion
    /// is available or `timeout` elapses, and append every available
    /// completion to `out`. An `Err` means the driver is broken and the
    /// plane must tear down.
    fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Completion>) -> io::Result<()>;

    /// Teardown: cancel every in-flight op and reap (discarding the
    /// completions) until none remains. `false` means some op could not
    /// be reaped in bounded time and its buffers must be leaked.
    fn drain(&mut self) -> bool;

    /// I/O syscalls this driver has issued so far.
    fn enters(&self) -> u64;
}
