//! Steady-state allocation audit of the SD egress step, on every
//! available I/O backend.
//!
//! A counting global allocator watches the per-wakeup egress cycle once
//! the ring and queue are warm: buffer-ring `get`, response encode into
//! the recycled buffer, queue, [`WriteQueue::submit`] (fill the
//! reusable iovec array, `IoDriver::writev`), `IoDriver::wait`,
//! [`WriteQueue::complete`], buffer-ring `put`. This is the shard
//! loop's own code driven through the real adapters, and it is allowed
//! zero allocations: the iovec box and the completion scratch are
//! allocated once, at warmup.

use dido_model::Response;
use dido_net::driver::{Completion, EpollDriver, IoDriver, UringDriver};
use dido_net::{backend_matrix, encode_responses_wire_into, BufRing, IoBackend, WriteQueue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

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
    for backend in backend_matrix() {
        match backend {
            IoBackend::Epoll => audit::<EpollDriver>(backend),
            IoBackend::Uring => audit::<UringDriver>(backend),
        }
    }
}

fn audit<D: IoDriver>(backend: IoBackend) {
    const WARMUP: usize = 64;
    const ITERS: usize = 1000;
    const RUNS_PER_ITER: usize = 4;
    const UD: u64 = 7;
    let name = backend.as_str();

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
    let stream = TcpStream::connect(addr).unwrap();
    let _ = stream.set_nodelay(true);
    D::prepare(&stream).unwrap();
    let fd = stream.as_raw_fd();

    let mut driver = D::new().unwrap();
    let pool = BufRing::new(64, 256 << 10);
    let mut queue = WriteQueue::default();
    let mut done: Vec<Completion> = Vec::with_capacity(16);
    let responses = [Response::hit(vec![b'v'; 1 << 10])];

    let mut cycle = |n: usize| {
        for _ in 0..n {
            for _ in 0..RUNS_PER_ITER {
                let mut buf = pool.get();
                encode_responses_wire_into(&mut buf, &responses);
                queue.push(buf);
            }
            // One writev per pass over the queue front, exactly like
            // the shard loop; a short write (socket buffer full)
            // resubmits the remainder.
            while !queue.is_empty() {
                queue.submit(&mut driver, fd, UD);
                done.clear();
                while done.is_empty() {
                    driver.wait(None, &mut done).expect("wait");
                }
                assert_eq!(done.len(), 1, "{name}: one op in flight");
                assert_eq!(done[0].user_data, UD);
                assert!(done[0].res > 0, "{name}: writev failed: {}", done[0].res);
                queue.complete(done[0].res as usize, &pool);
            }
        }
    };

    // Warm the pool (buffer capacities), the queue, the iovec box, and
    // the lazily initialized pieces of the socket path.
    cycle(WARMUP);

    AUDITED.with(|a| a.set(true));
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    cycle(ITERS);
    COUNTING.store(false, Ordering::SeqCst);
    AUDITED.with(|a| a.set(false));

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "{name}: warmed egress cycle (get → encode → queue → submit → wait → \
         complete → put) allocated {allocs} times over {ITERS} iterations"
    );
    assert!(
        pool.hits() >= (WARMUP + ITERS - 1) as u64 * RUNS_PER_ITER as u64,
        "{name}: steady state must be served from the ring (hits {}, misses {})",
        pool.hits(),
        pool.misses()
    );

    assert!(driver.drain(), "{name}: nothing left in flight");
    drop(stream);
    drainer.join().unwrap();
}
