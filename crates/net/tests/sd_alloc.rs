//! Steady-state allocation audit of the SD egress machinery, on both
//! I/O backends.
//!
//! A counting global allocator watches the per-wakeup egress cycle
//! once the ring and queue are warm. The epoll leg audits buffer-ring
//! `get`, response encode into the recycled buffer, queue, vectored
//! `write_queue`, buffer-ring `put` (the old writer allocated a fresh
//! `BytesMut` per run plus two `Vec`s per vectored write). The uring
//! leg audits the same cycle through a real ring — fill the reusable
//! iovec array, `push_writev`, one `io_uring_enter`, reap the CQE,
//! recycle — which is allowed zero allocations too: the iovec box and
//! the CQE scratch are allocated once, at warmup.

use dido_model::Response;
use dido_net::{encode_responses_wire_into, write_queue, BufRing};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The counter above is process-global: the two backend audits must
/// not run concurrently or they would see each other's allocations.
static AUDIT_LOCK: Mutex<()> = Mutex::new(());

// The audit is scoped to the test thread: the libtest harness's main
// thread runs concurrently and performs its own occasional lazy-init
// allocations (e.g. its result channel's thread-local context), which
// are not the egress machinery's doing. The flag is const-initialized,
// so reading it from the allocator hook never itself allocates.
thread_local! {
    static AUDITED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn counted() -> bool {
    COUNTING.load(Ordering::Relaxed) && AUDITED.try_with(std::cell::Cell::get).unwrap_or(false)
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`, adding only a relaxed
// counter bump — allocation behaviour is unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_egress_cycle_does_not_allocate() {
    const WARMUP: usize = 64;
    const ITERS: usize = 1000;
    const RUNS_PER_ITER: usize = 4;
    let _serialized = AUDIT_LOCK.lock().unwrap();
    AUDITED.with(|a| a.set(true));

    // A real socket pair: the audited side writes, a peer thread drains
    // into a preallocated buffer (no allocations on that side either
    // while the counter runs).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let drainer = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().unwrap();
        let mut sink = vec![0u8; 64 << 10];
        while let Ok(n) = peer.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    let _ = stream.set_nodelay(true);

    let pool = BufRing::new(64, 256 << 10);
    let mut queue: VecDeque<_> = VecDeque::with_capacity(RUNS_PER_ITER * 2);
    let mut head_written = 0usize;
    let responses = [Response::hit(vec![b'v'; 1 << 10])];

    let mut cycle = |n: usize| {
        for _ in 0..n {
            for _ in 0..RUNS_PER_ITER {
                let mut buf = pool.get();
                encode_responses_wire_into(&mut buf, &responses);
                queue.push_back(buf);
            }
            // The blocking socket takes the whole queue; fully written
            // buffers go straight back to the pool.
            let (_, blocked) =
                write_queue(&mut stream, &mut queue, &mut head_written, &pool).expect("write");
            assert!(!blocked, "a blocking socket never reports WouldBlock");
            assert!(queue.is_empty(), "blocking write drains the queue");
        }
    };

    // Warm the pool (buffer capacities), the queue, and the lazily
    // initialized pieces of the socket path.
    cycle(WARMUP);

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    cycle(ITERS);
    COUNTING.store(false, Ordering::SeqCst);
    // This thread's teardown allocates (libtest's result send) after
    // `AUDIT_LOCK` is released, possibly inside the other audit's
    // counted window.
    AUDITED.with(|a| a.set(false));

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "warmed egress cycle (get → encode → queue → write → put) \
         allocated {allocs} times over {ITERS} iterations"
    );
    assert!(
        pool.hits() >= (WARMUP + ITERS - 1) as u64 * RUNS_PER_ITER as u64,
        "steady state must be served from the ring (hits {}, misses {})",
        pool.hits(),
        pool.misses()
    );

    drop(stream);
    drainer.join().unwrap();
}

/// The uring leg: the same get → encode → queue → write → put cycle,
/// but through a real io_uring — reusable iovec array, `push_writev`,
/// one enter, reap. Zero allocations once warm; skipped (with a
/// notice) on kernels without io_uring.
#[test]
fn steady_state_uring_egress_cycle_does_not_allocate() {
    const WARMUP: usize = 64;
    const ITERS: usize = 1000;
    const RUNS_PER_ITER: usize = 4;
    const SD_IOV_MAX: usize = 64;
    if !dido_net::uring_available() {
        eprintln!("note: skipping uring allocation audit (kernel has no usable io_uring)");
        return;
    }
    let _serialized = AUDIT_LOCK.lock().unwrap();
    AUDITED.with(|a| a.set(true));

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let drainer = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().unwrap();
        let mut sink = vec![0u8; 64 << 10];
        while let Ok(n) = peer.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    });
    let stream = TcpStream::connect(addr).unwrap();
    let _ = stream.set_nodelay(true);
    let fd = std::os::fd::AsRawFd::as_raw_fd(&stream);

    let mut ring = uring::Uring::new(64, 128).unwrap();
    let pool = BufRing::new(64, 256 << 10);
    let mut queue: VecDeque<_> = VecDeque::with_capacity(RUNS_PER_ITER * 2);
    let responses = [Response::hit(vec![b'v'; 1 << 10])];
    // The per-connection reusable pieces the SD shard keeps: the boxed
    // iovec array (allocated once, refilled per write) and the CQE
    // scratch vector.
    let mut iov = Box::new(
        [uring::IoVec {
            base: std::ptr::null(),
            len: 0,
        }; SD_IOV_MAX],
    );
    let mut cqes: Vec<uring::Cqe> = Vec::with_capacity(128);

    let mut cycle = |n: usize| {
        for _ in 0..n {
            for _ in 0..RUNS_PER_ITER {
                let mut buf = pool.get();
                encode_responses_wire_into(&mut buf, &responses);
                queue.push_back(buf);
            }
            // One writev per pass over the queue front, exactly like
            // the shard loop; a short write (socket buffer full)
            // resubmits the remainder on the next pass.
            let mut head_written = 0usize;
            while !queue.is_empty() {
                let mut n_iov = 0u32;
                for (i, b) in queue.iter().enumerate().take(SD_IOV_MAX) {
                    let s: &[u8] = if i == 0 { &b[head_written..] } else { &b[..] };
                    iov[n_iov as usize] = uring::IoVec {
                        base: s.as_ptr(),
                        len: s.len(),
                    };
                    n_iov += 1;
                }
                // SAFETY: `iov` and the queue buffers stay untouched
                // until the CQE below is reaped.
                loop {
                    if unsafe { ring.push_writev(fd, iov.as_ptr(), n_iov, 7) } {
                        break;
                    }
                    ring.submit().expect("submit");
                }
                let mut written = 0usize;
                while written == 0 {
                    ring.submit_and_wait(1, None).expect("enter");
                    cqes.clear();
                    ring.reap(&mut cqes);
                    for cqe in &cqes {
                        assert!(cqe.res > 0, "writev failed: {}", cqe.res);
                        written += cqe.res as usize;
                    }
                }
                while written > 0 {
                    let front_left =
                        queue.front().expect("written implies queued").len() - head_written;
                    if written >= front_left {
                        written -= front_left;
                        head_written = 0;
                        pool.put(queue.pop_front().expect("front just read"));
                    } else {
                        head_written += written;
                        written = 0;
                    }
                }
            }
        }
    };

    cycle(WARMUP);

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    cycle(ITERS);
    COUNTING.store(false, Ordering::SeqCst);
    // This thread's teardown allocates (libtest's result send) after
    // `AUDIT_LOCK` is released, possibly inside the other audit's
    // counted window.
    AUDITED.with(|a| a.set(false));

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "warmed uring egress cycle (get → encode → queue → push_writev → \
         enter → reap → put) allocated {allocs} times over {ITERS} iterations"
    );
    assert!(
        pool.hits() >= (WARMUP + ITERS - 1) as u64 * RUNS_PER_ITER as u64,
        "steady state must be served from the ring (hits {}, misses {})",
        pool.hits(),
        pool.misses()
    );

    drop(stream);
    drainer.join().unwrap();
}
