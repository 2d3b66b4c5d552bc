//! Vendored zero-dependency io_uring binding for DIDO's batched I/O
//! plane.
//!
//! Like the other `compat-*` crates this speaks to the platform
//! through `extern "C"` declarations against the C library std already
//! links — no `libc` crate, no registry dependency. It implements
//! exactly the subset the reactor RX and SD egress paths need:
//!
//! * [`Uring::new`] — `io_uring_setup` plus the SQ/CQ/SQE mmaps
//!   (single-mmap aware via `FEAT_SINGLE_MMAP`).
//! * SQE preparation for the five ops the planes use: `RECV`,
//!   `WRITEV`, `POLL_ADD`, `ASYNC_CANCEL`, and `NOP`.
//! * [`Uring::submit`] / [`Uring::submit_and_wait`] — one
//!   `io_uring_enter` per call (timed waits use
//!   `IORING_ENTER_EXT_ARG`), with an enter counter so callers can
//!   report syscalls-per-query.
//! * [`Uring::reap`] — drain the completion ring into a caller buffer.
//! * [`probe`] — a cached runtime availability check (setup succeeds,
//!   required features and opcodes present, NOP round-trips) so `auto`
//!   backends can fall back to epoll on kernels without io_uring
//!   (`ENOSYS`, seccomp, or pre-5.11 feature sets).
//!
//! Safety contract: buffers referenced by a prepared SQE (`recv`
//! destination, `writev` iovec array and the segments it points at)
//! must stay valid until the matching CQE has been reaped **or the
//! ring fd is closed and in-flight ops are known to have completed** —
//! closing the ring cancels asynchronously, so owners must drain
//! before freeing. The planes track in-flight counts for exactly this
//! reason.
//!
//! Linux only.
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("compat-uring supports Linux only (io_uring)");

/// One completion-queue entry, copied out by [`Uring::reap`].
///
/// `res` follows kernel convention: `>= 0` is the op's result (bytes
/// for `RECV`/`WRITEV`), `< 0` is a negated errno.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct Cqe {
    /// Caller tag set at prep time; identifies the originating SQE.
    pub user_data: u64,
    /// Result: op return value, or negated errno when negative.
    pub res: i32,
    /// CQE flags (unused by our ops).
    pub flags: u32,
}

/// C-layout `struct iovec` for [`Uring::push_writev`].
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct IoVec {
    /// Segment base pointer.
    pub base: *const u8,
    /// Segment length in bytes.
    pub len: usize,
}

// Poll event masks for `push_poll_add` (classic poll(2) bits).
/// Readable (`POLLIN`).
pub const POLL_IN: u32 = 0x001;
/// Writable (`POLLOUT`).
pub const POLL_OUT: u32 = 0x004;

/// Result of the cached runtime availability check. See [`probe`].
#[derive(Debug)]
pub struct Probe {
    /// Whether a fully usable ring (setup + required features +
    /// required opcodes + NOP round-trip) is available.
    pub available: bool,
    /// Human-readable reason when unavailable (empty when available).
    pub reason: String,
}

/// Convenience wrapper over [`probe`].
pub fn available() -> bool {
    probe().available
}

/// Runs the availability check once per process and caches the result.
pub fn probe() -> &'static Probe {
    static PROBE: std::sync::OnceLock<Probe> = std::sync::OnceLock::new();
    PROBE.get_or_init(imp::run_probe)
}

pub use imp::Uring;

/// Drain a readable notification fd (an eventfd counter). Uring event loops arm wakers with `POLL_ADD` (which
/// reports readiness but consumes nothing), so they must reset the fd
/// by hand before re-arming or the next poll completes immediately.
/// The fd must be nonblocking (compat-mio's wakers are).
pub fn drain_notify_fd(fd: i32) {
    imp::drain_notify_fd(fd)
}

mod imp {
    use super::{Cqe, IoVec, Probe};
    use std::io;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::time::Duration;

    // Syscall numbers (asm-generic; identical on x86_64 and aarch64).
    const SYS_IO_URING_SETUP: isize = 425;
    const SYS_IO_URING_ENTER: isize = 426;
    const SYS_IO_URING_REGISTER: isize = 427;

    // mmap offsets selecting which ring a map request refers to.
    const IORING_OFF_SQ_RING: i64 = 0;
    const IORING_OFF_CQ_RING: i64 = 0x0800_0000;
    const IORING_OFF_SQES: i64 = 0x1000_0000;

    // Setup flags / feature bits we care about.
    const IORING_SETUP_CQSIZE: u32 = 1 << 3;
    const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;
    const IORING_FEAT_NODROP: u32 = 1 << 1;
    const IORING_FEAT_EXT_ARG: u32 = 1 << 8;

    // Enter flags.
    const IORING_ENTER_GETEVENTS: u32 = 1 << 0;
    const IORING_ENTER_EXT_ARG: u32 = 1 << 3;

    // Register opcodes.
    const IORING_REGISTER_PROBE: u32 = 8;

    // SQE opcodes.
    const IORING_OP_NOP: u8 = 0;
    const IORING_OP_WRITEV: u8 = 2;
    const IORING_OP_POLL_ADD: u8 = 6;
    const IORING_OP_ASYNC_CANCEL: u8 = 14;
    const IORING_OP_RECV: u8 = 27;

    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_SHARED: i32 = 0x01;
    const MAP_POPULATE: i32 = 0x8000;

    const ETIME: i32 = 62;
    const EINTR: i32 = 4;

    extern "C" {
        fn syscall(num: isize, ...) -> isize;
        fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    }

    pub(super) fn drain_notify_fd(fd: i32) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
            if n < buf.len() as isize {
                break; // drained (short read) or would-block/error
            }
        }
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct SqringOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        flags: u32,
        dropped: u32,
        array: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct CqringOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        overflow: u32,
        cqes: u32,
        flags: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct UringParams {
        sq_entries: u32,
        cq_entries: u32,
        flags: u32,
        sq_thread_cpu: u32,
        sq_thread_idle: u32,
        features: u32,
        wq_fd: u32,
        resv: [u32; 3],
        sq_off: SqringOffsets,
        cq_off: CqringOffsets,
    }

    /// 64-byte submission-queue entry (fields beyond what our five ops
    /// use stay zero).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Sqe {
        opcode: u8,
        flags: u8,
        ioprio: u16,
        fd: i32,
        off: u64,
        addr: u64,
        len: u32,
        rw_flags: u32,
        user_data: u64,
        buf_index: u16,
        personality: u16,
        splice_fd_in: i32,
        pad2: [u64; 2],
    }

    const ZERO_SQE: Sqe = Sqe {
        opcode: 0,
        flags: 0,
        ioprio: 0,
        fd: -1,
        off: 0,
        addr: 0,
        len: 0,
        rw_flags: 0,
        user_data: 0,
        buf_index: 0,
        personality: 0,
        splice_fd_in: 0,
        pad2: [0; 2],
    };

    #[repr(C)]
    struct GetEventsArg {
        sigmask: u64,
        sigmask_sz: u32,
        pad: u32,
        ts: u64,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    fn cvt(ret: isize) -> io::Result<isize> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    struct Mmap {
        ptr: *mut u8,
        len: usize,
    }

    impl Mmap {
        fn map(fd: i32, len: usize, offset: i64) -> io::Result<Mmap> {
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE,
                    fd,
                    offset,
                )
            };
            if ptr as isize == -1 {
                Err(io::Error::last_os_error())
            } else {
                Ok(Mmap { ptr, len })
            }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }

    /// An io_uring instance: the ring fd plus mmapped SQ/CQ/SQE
    /// arrays. Single-threaded owner; `Send` but not `Sync`.
    pub struct Uring {
        fd: i32,
        features: u32,
        // Keep maps alive for the lifetime of the ring; cq_map is None
        // under FEAT_SINGLE_MMAP (cq pointers live inside sq_map).
        _sq_map: Mmap,
        _cq_map: Option<Mmap>,
        _sqe_map: Mmap,
        // Submission side.
        sq_head: *const u32,
        sq_tail: *mut u32,
        sq_mask: u32,
        sq_entries: u32,
        sq_array: *mut u32,
        sqes: *mut Sqe,
        local_tail: u32,
        // Completion side.
        cq_head: *mut u32,
        cq_tail: *const u32,
        cq_mask: u32,
        cqes: *const Cqe,
        enters: AtomicU64,
    }

    // Raw pointers into the shared maps; ownership is single-threaded
    // and the kernel side synchronizes via the head/tail atomics.
    unsafe impl Send for Uring {}

    impl Uring {
        /// Creates a ring with at least `sq_entries` submission slots
        /// and (when larger) `cq_entries` completion slots. The kernel
        /// rounds both up to powers of two.
        pub fn new(sq_entries: u32, cq_entries: u32) -> io::Result<Uring> {
            let mut p = UringParams::default();
            if cq_entries > sq_entries {
                p.flags |= IORING_SETUP_CQSIZE;
                p.cq_entries = cq_entries;
            }
            let fd = cvt(unsafe {
                syscall(
                    SYS_IO_URING_SETUP,
                    sq_entries as usize,
                    &mut p as *mut UringParams,
                )
            })? as i32;
            // From here on the fd must be closed on any error path.
            let built = Self::build(fd, &p);
            if built.is_err() {
                unsafe {
                    close(fd);
                }
            }
            built
        }

        fn build(fd: i32, p: &UringParams) -> io::Result<Uring> {
            let sq_ring_len =
                p.sq_off.array as usize + p.sq_entries as usize * std::mem::size_of::<u32>();
            let cq_ring_len =
                p.cq_off.cqes as usize + p.cq_entries as usize * std::mem::size_of::<Cqe>();
            let single = p.features & IORING_FEAT_SINGLE_MMAP != 0;

            let sq_map = Mmap::map(
                fd,
                if single {
                    sq_ring_len.max(cq_ring_len)
                } else {
                    sq_ring_len
                },
                IORING_OFF_SQ_RING,
            )?;
            let cq_map = if single {
                None
            } else {
                Some(Mmap::map(fd, cq_ring_len, IORING_OFF_CQ_RING)?)
            };
            let sqe_map = Mmap::map(
                fd,
                p.sq_entries as usize * std::mem::size_of::<Sqe>(),
                IORING_OFF_SQES,
            )?;

            let sq_base = sq_map.ptr;
            let cq_base = cq_map.as_ref().map(|m| m.ptr).unwrap_or(sq_map.ptr);
            unsafe {
                let ring = Uring {
                    fd,
                    features: p.features,
                    sq_head: sq_base.add(p.sq_off.head as usize) as *const u32,
                    sq_tail: sq_base.add(p.sq_off.tail as usize) as *mut u32,
                    sq_mask: *(sq_base.add(p.sq_off.ring_mask as usize) as *const u32),
                    sq_entries: p.sq_entries,
                    sq_array: sq_base.add(p.sq_off.array as usize) as *mut u32,
                    sqes: sqe_map.ptr as *mut Sqe,
                    local_tail: *(sq_base.add(p.sq_off.tail as usize) as *const u32),
                    cq_head: cq_base.add(p.cq_off.head as usize) as *mut u32,
                    cq_tail: cq_base.add(p.cq_off.tail as usize) as *const u32,
                    cq_mask: *(cq_base.add(p.cq_off.ring_mask as usize) as *const u32),
                    cqes: cq_base.add(p.cq_off.cqes as usize) as *const Cqe,
                    _sq_map: sq_map,
                    _cq_map: cq_map,
                    _sqe_map: sqe_map,
                    enters: AtomicU64::new(0),
                };
                // Identity-map the SQ index array once; slots are then
                // addressed directly by `tail & mask`.
                for i in 0..ring.sq_entries {
                    *ring.sq_array.add(i as usize) = i;
                }
                Ok(ring)
            }
        }

        /// Feature bits reported by the kernel at setup.
        pub fn features(&self) -> u32 {
            self.features
        }

        /// Number of free submission slots (prepared-but-unsubmitted
        /// entries count as used).
        pub fn sq_space(&self) -> u32 {
            let head = unsafe { AtomicU32::from_ptr(self.sq_head as *mut u32) }
                .load(Ordering::Acquire);
            self.sq_entries - self.local_tail.wrapping_sub(head)
        }

        /// Number of prepared entries not yet handed to the kernel.
        pub fn pending_submit(&self) -> u32 {
            let tail =
                unsafe { AtomicU32::from_ptr(self.sq_tail) }.load(Ordering::Relaxed);
            self.local_tail.wrapping_sub(tail)
        }

        /// `io_uring_enter` calls made so far (submit + wait combined):
        /// the backend's syscalls-per-query numerator.
        pub fn enters(&self) -> u64 {
            self.enters.load(Ordering::Relaxed)
        }

        fn slot(&mut self) -> Option<*mut Sqe> {
            if self.sq_space() == 0 {
                return None;
            }
            let idx = (self.local_tail & self.sq_mask) as usize;
            self.local_tail = self.local_tail.wrapping_add(1);
            Some(unsafe { self.sqes.add(idx) })
        }

        fn push(&mut self, sqe: Sqe) -> bool {
            match self.slot() {
                Some(p) => {
                    unsafe { *p = sqe };
                    true
                }
                None => false,
            }
        }

        /// Queues a `RECV` into `buf[..len]`. Returns `false` when the
        /// submission queue is full (caller should submit and retry).
        ///
        /// # Safety
        /// `buf[..len]` must stay valid (and unread by the caller)
        /// until the matching CQE is reaped or the in-flight op is
        /// known complete after ring close.
        pub unsafe fn push_recv(&mut self, fd: i32, buf: *mut u8, len: u32, user_data: u64) -> bool {
            let mut s = ZERO_SQE;
            s.opcode = IORING_OP_RECV;
            s.fd = fd;
            s.addr = buf as u64;
            s.len = len;
            s.user_data = user_data;
            self.push(s)
        }

        /// Queues a `WRITEV` over `iov[..n]`. Returns `false` when the
        /// submission queue is full.
        ///
        /// # Safety
        /// The iovec array **and** every segment it points at must stay
        /// valid and unmodified until the matching CQE is reaped (the
        /// kernel reads the array at submit but the segments during the
        /// write).
        pub unsafe fn push_writev(
            &mut self,
            fd: i32,
            iov: *const IoVec,
            n: u32,
            user_data: u64,
        ) -> bool {
            let mut s = ZERO_SQE;
            s.opcode = IORING_OP_WRITEV;
            s.fd = fd;
            s.addr = iov as u64;
            s.len = n;
            s.user_data = user_data;
            self.push(s)
        }

        /// Queues a one-shot `POLL_ADD` for `events` ([`POLL_IN`] /
        /// [`POLL_OUT`]) on `fd`. Completes once with the ready mask in
        /// `res`; re-arm by pushing again. Returns `false` when full.
        pub fn push_poll_add(&mut self, fd: i32, events: u32, user_data: u64) -> bool {
            let mut s = ZERO_SQE;
            s.opcode = IORING_OP_POLL_ADD;
            s.fd = fd;
            // poll32_events is little-endian in rw_flags.
            s.rw_flags = events.to_le();
            s.user_data = user_data;
            self.push(s)
        }

        /// Queues an `ASYNC_CANCEL` for the SQE tagged `target`. The
        /// cancel op itself completes with 0 (found), `-ENOENT`, or
        /// `-EALREADY`; the target (if found) completes with
        /// `-ECANCELED`. Returns `false` when full.
        pub fn push_cancel(&mut self, target: u64, user_data: u64) -> bool {
            let mut s = ZERO_SQE;
            s.opcode = IORING_OP_ASYNC_CANCEL;
            s.fd = -1;
            s.addr = target;
            s.user_data = user_data;
            self.push(s)
        }

        /// Queues a `NOP` (used by the probe and tests). Returns
        /// `false` when full.
        pub fn push_nop(&mut self, user_data: u64) -> bool {
            let mut s = ZERO_SQE;
            s.user_data = user_data;
            s.opcode = IORING_OP_NOP;
            self.push(s)
        }

        fn publish_tail(&mut self) -> u32 {
            let tail = unsafe { AtomicU32::from_ptr(self.sq_tail) };
            tail.store(self.local_tail, Ordering::Release);
            let head = unsafe { AtomicU32::from_ptr(self.sq_head as *mut u32) }
                .load(Ordering::Acquire);
            self.local_tail.wrapping_sub(head)
        }

        fn enter(
            &self,
            to_submit: u32,
            min_complete: u32,
            flags: u32,
            arg: *const GetEventsArg,
            argsz: usize,
        ) -> io::Result<usize> {
            self.enters.fetch_add(1, Ordering::Relaxed);
            let ret = unsafe {
                syscall(
                    SYS_IO_URING_ENTER,
                    self.fd as usize,
                    to_submit as usize,
                    min_complete as usize,
                    flags as usize,
                    arg as usize,
                    argsz,
                )
            };
            match cvt(ret) {
                Ok(n) => Ok(n as usize),
                // A timed-out or interrupted wait is not an error; any
                // prepared SQEs were still consumed by the kernel.
                Err(e) if matches!(e.raw_os_error(), Some(ETIME) | Some(EINTR)) => Ok(0),
                Err(e) => Err(e),
            }
        }

        /// Hands all prepared SQEs to the kernel without waiting.
        /// Returns the number consumed; no-op (and no syscall) when
        /// nothing is pending.
        pub fn submit(&mut self) -> io::Result<usize> {
            let to_submit = self.publish_tail();
            if to_submit == 0 {
                return Ok(0);
            }
            self.enter(to_submit, 0, 0, std::ptr::null(), 0)
        }

        /// Hands all prepared SQEs to the kernel and waits until at
        /// least `min_complete` completions are available or `timeout`
        /// elapses (`None` = wait indefinitely). Skips the syscall
        /// entirely when nothing is pending, `min_complete` is already
        /// satisfied by unreaped CQEs, or `min_complete` is 0.
        pub fn submit_and_wait(
            &mut self,
            min_complete: u32,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let to_submit = self.publish_tail();
            if to_submit == 0 && (min_complete == 0 || self.cq_ready() >= min_complete) {
                return Ok(0);
            }
            match timeout {
                None => self.enter(
                    to_submit,
                    min_complete,
                    IORING_ENTER_GETEVENTS,
                    std::ptr::null(),
                    0,
                ),
                Some(d) => {
                    if self.features & IORING_FEAT_EXT_ARG == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::Unsupported,
                            "kernel lacks IORING_FEAT_EXT_ARG (timed waits)",
                        ));
                    }
                    let ts = Timespec {
                        tv_sec: d.as_secs() as i64,
                        tv_nsec: d.subsec_nanos() as i64,
                    };
                    let arg = GetEventsArg {
                        sigmask: 0,
                        sigmask_sz: 8,
                        pad: 0,
                        ts: &ts as *const Timespec as u64,
                    };
                    self.enter(
                        to_submit,
                        min_complete,
                        IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG,
                        &arg,
                        std::mem::size_of::<GetEventsArg>(),
                    )
                }
            }
        }

        fn cq_ready(&self) -> u32 {
            let tail = unsafe { AtomicU32::from_ptr(self.cq_tail as *mut u32) }
                .load(Ordering::Acquire);
            let head =
                unsafe { AtomicU32::from_ptr(self.cq_head) }.load(Ordering::Relaxed);
            tail.wrapping_sub(head)
        }

        /// Drains every available CQE into `out`, returning how many
        /// were appended.
        pub fn reap(&mut self, out: &mut Vec<Cqe>) -> usize {
            let tail = unsafe { AtomicU32::from_ptr(self.cq_tail as *mut u32) }
                .load(Ordering::Acquire);
            let head_atomic = unsafe { AtomicU32::from_ptr(self.cq_head) };
            let mut head = head_atomic.load(Ordering::Relaxed);
            let n = tail.wrapping_sub(head) as usize;
            out.reserve(n);
            while head != tail {
                let idx = (head & self.cq_mask) as usize;
                out.push(unsafe { *self.cqes.add(idx) });
                head = head.wrapping_add(1);
            }
            head_atomic.store(head, Ordering::Release);
            n
        }
    }

    impl Drop for Uring {
        fn drop(&mut self) {
            unsafe {
                close(self.fd);
            }
        }
    }

    /// `io_uring_probe` layout for `IORING_REGISTER_PROBE`: 16-byte
    /// header followed by one 8-byte op record per opcode.
    #[repr(C)]
    struct ProbeHeader {
        last_op: u8,
        ops_len: u8,
        resv: u16,
        resv2: [u32; 3],
    }

    const PROBE_OPS: usize = 64;

    fn opcode_supported(buf: &[u8], opcode: u8) -> bool {
        let hdr_len = std::mem::size_of::<ProbeHeader>();
        let last_op = buf[0];
        let ops_len = buf[1] as usize;
        if opcode > last_op || (opcode as usize) >= ops_len {
            return false;
        }
        // Each op record: { op: u8, resv: u8, flags: u16, resv2: u32 }.
        let rec = hdr_len + opcode as usize * 8;
        let flags = u16::from_le_bytes([buf[rec + 2], buf[rec + 3]]);
        flags & 1 != 0 // IO_URING_OP_SUPPORTED
    }

    pub(super) fn run_probe() -> Probe {
        let no = |reason: String| Probe {
            available: false,
            reason,
        };
        let mut ring = match Uring::new(8, 16) {
            Ok(r) => r,
            Err(e) => return no(format!("io_uring_setup failed: {e}")),
        };
        let need = IORING_FEAT_NODROP | IORING_FEAT_EXT_ARG;
        if ring.features() & need != need {
            return no(format!(
                "missing ring features: have {:#x}, need NODROP|EXT_ARG",
                ring.features()
            ));
        }
        let mut buf =
            [0u8; std::mem::size_of::<ProbeHeader>() + PROBE_OPS * 8];
        let ret = unsafe {
            syscall(
                SYS_IO_URING_REGISTER,
                ring.fd as usize,
                IORING_REGISTER_PROBE as usize,
                buf.as_mut_ptr(),
                PROBE_OPS,
            )
        };
        if cvt(ret).is_err() {
            return no(format!(
                "IORING_REGISTER_PROBE failed: {}",
                io::Error::last_os_error()
            ));
        }
        for (op, name) in [
            (IORING_OP_RECV, "RECV"),
            (IORING_OP_WRITEV, "WRITEV"),
            (IORING_OP_POLL_ADD, "POLL_ADD"),
            (IORING_OP_ASYNC_CANCEL, "ASYNC_CANCEL"),
        ] {
            if !opcode_supported(&buf, op) {
                return no(format!("kernel lacks IORING_OP_{name}"));
            }
        }
        // Round-trip a NOP to make sure enter/reap actually work (a
        // seccomp filter could allow setup but block enter).
        if !ring.push_nop(0xD1D0) {
            return no("probe ring rejected a NOP".into());
        }
        let mut cqes = Vec::new();
        match ring.submit_and_wait(1, Some(Duration::from_millis(200))) {
            Ok(_) => {}
            Err(e) => return no(format!("io_uring_enter failed: {e}")),
        }
        ring.reap(&mut cqes);
        if !cqes.iter().any(|c| c.user_data == 0xD1D0 && c.res == 0) {
            return no("NOP did not complete".into());
        }
        Probe {
            available: true,
            reason: String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    extern "C" {
        fn socketpair(domain: i32, ty: i32, protocol: i32, sv: *mut i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const AF_UNIX: i32 = 1;
    const SOCK_STREAM: i32 = 1;

    struct Pair(i32, i32);

    impl Pair {
        fn new() -> Pair {
            let mut sv = [0i32; 2];
            assert_eq!(
                unsafe { socketpair(AF_UNIX, SOCK_STREAM, 0, sv.as_mut_ptr()) },
                0,
                "socketpair: {}",
                std::io::Error::last_os_error()
            );
            Pair(sv[0], sv[1])
        }
    }

    impl Drop for Pair {
        fn drop(&mut self) {
            unsafe {
                close(self.0);
                close(self.1);
            }
        }
    }

    fn wait_for(
        ring: &mut Uring,
        want: usize,
        cqes: &mut Vec<Cqe>,
    ) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while cqes.len() < want {
            assert!(Instant::now() < deadline, "timed out waiting for CQEs");
            ring.submit_and_wait(1, Some(Duration::from_millis(100)))
                .expect("enter");
            ring.reap(cqes);
        }
    }

    #[test]
    fn setup_and_teardown_repeats() {
        if !available() {
            eprintln!("skipping: io_uring unavailable: {}", probe().reason);
            return;
        }
        for _ in 0..8 {
            let ring = Uring::new(16, 32).expect("setup");
            assert!(ring.sq_space() >= 16);
            drop(ring);
        }
    }

    #[test]
    fn nop_round_trip_counts_enters() {
        if !available() {
            eprintln!("skipping: io_uring unavailable: {}", probe().reason);
            return;
        }
        let mut ring = Uring::new(8, 16).expect("setup");
        assert!(ring.push_nop(7));
        assert_eq!(ring.pending_submit(), 1);
        let mut cqes = Vec::new();
        wait_for(&mut ring, 1, &mut cqes);
        assert_eq!(cqes[0].user_data, 7);
        assert_eq!(cqes[0].res, 0);
        assert!(ring.enters() >= 1);
    }

    #[test]
    fn sq_full_is_reported_not_lost() {
        if !available() {
            eprintln!("skipping: io_uring unavailable: {}", probe().reason);
            return;
        }
        let mut ring = Uring::new(4, 8).expect("setup");
        let cap = ring.sq_space();
        for i in 0..cap {
            assert!(ring.push_nop(i as u64));
        }
        assert!(!ring.push_nop(99), "push past capacity must fail");
        let mut cqes = Vec::new();
        wait_for(&mut ring, cap as usize, &mut cqes);
        assert!(ring.push_nop(99), "space frees after submit");
    }

    #[test]
    fn recv_writev_round_trip() {
        if !available() {
            eprintln!("skipping: io_uring unavailable: {}", probe().reason);
            return;
        }
        let pair = Pair::new();
        let mut ring = Uring::new(8, 16).expect("setup");

        // Arm the recv first: it must stay pending (blocking-mode
        // socket, no data) rather than completing with -EAGAIN.
        let mut rx_buf = vec![0u8; 64];
        assert!(unsafe {
            ring.push_recv(pair.0, rx_buf.as_mut_ptr(), rx_buf.len() as u32, 1)
        });
        ring.submit().expect("submit recv");
        let mut cqes = Vec::new();
        ring.submit_and_wait(1, Some(Duration::from_millis(50)))
            .expect("short wait");
        ring.reap(&mut cqes);
        assert!(cqes.is_empty(), "recv completed before any data: {cqes:?}");

        let msg = b"hello-uring";
        let segs = [
            IoVec {
                base: msg.as_ptr(),
                len: 5,
            },
            IoVec {
                base: msg[5..].as_ptr(),
                len: msg.len() - 5,
            },
        ];
        assert!(unsafe { ring.push_writev(pair.1, segs.as_ptr(), 2, 2) });
        wait_for(&mut ring, 2, &mut cqes);
        cqes.sort_by_key(|c| c.user_data);
        assert_eq!(cqes[0].user_data, 1);
        assert_eq!(cqes[0].res as usize, msg.len());
        assert_eq!(&rx_buf[..msg.len()], msg);
        assert_eq!(cqes[1].user_data, 2);
        assert_eq!(cqes[1].res as usize, msg.len());
    }

    #[test]
    fn poll_add_cancel_completes_both_ops() {
        if !available() {
            eprintln!("skipping: io_uring unavailable: {}", probe().reason);
            return;
        }
        let pair = Pair::new();
        let mut ring = Uring::new(8, 16).expect("setup");
        assert!(ring.push_poll_add(pair.0, POLL_IN, 10));
        ring.submit().expect("submit poll");
        assert!(ring.push_cancel(10, 11));
        let mut cqes = Vec::new();
        wait_for(&mut ring, 2, &mut cqes);
        cqes.sort_by_key(|c| c.user_data);
        assert_eq!(cqes[0].user_data, 10);
        assert!(cqes[0].res < 0, "canceled poll reports an error");
        assert_eq!(cqes[1].user_data, 11);
    }

    #[test]
    fn timed_wait_returns_on_timeout() {
        if !available() {
            eprintln!("skipping: io_uring unavailable: {}", probe().reason);
            return;
        }
        let mut ring = Uring::new(4, 8).expect("setup");
        let start = Instant::now();
        ring.submit_and_wait(1, Some(Duration::from_millis(50)))
            .expect("timed wait");
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(30),
            "returned too early: {waited:?}"
        );
        let mut cqes = Vec::new();
        assert_eq!(ring.reap(&mut cqes), 0);
    }

    #[test]
    fn probe_is_coherent_with_setup() {
        let p = probe();
        assert_eq!(
            p.available,
            Uring::new(8, 8).is_ok(),
            "probe ({}) disagrees with setup",
            p.reason
        );
    }
}
