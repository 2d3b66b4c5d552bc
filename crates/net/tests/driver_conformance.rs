//! Conformance table for [`IoDriver`] adapters: every scenario runs
//! against every available adapter over real loopback sockets. The
//! planes exercise the adapters only through whole servers; this is the
//! seam's own spec — what a completion means, op by op — and what any
//! further adapter (e.g. a seed-driven in-memory sim driver) has to pass.

use dido_net::backend_matrix;
use dido_net::driver::{Completion, EpollDriver, IoDriver, IoVec, UringDriver, ECANCELED, WAKE};
use dido_net::IoBackend;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

const ECONNRESET: i32 = 104;

/// A connected loopback pair: `ours` (prepared for driver `D`) and the
/// plain blocking `peer`.
fn pair<D: IoDriver>() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (ours, _) = listener.accept().unwrap();
    D::prepare(&ours).unwrap();
    (ours, peer)
}

/// Wait until at least `n` completions have arrived (5 s cap).
fn wait_for<D: IoDriver>(driver: &mut D, n: usize) -> Vec<Completion> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut got = Vec::new();
    while got.len() < n {
        assert!(
            Instant::now() < deadline,
            "timed out with {got:?}, wanted {n}"
        );
        driver
            .wait(Some(Duration::from_millis(100)), &mut got)
            .unwrap();
    }
    got
}

/// Assert that nothing completes within a short quiet window.
fn assert_quiet<D: IoDriver>(driver: &mut D, why: &str) {
    let mut got = Vec::new();
    driver
        .wait(Some(Duration::from_millis(50)), &mut got)
        .unwrap();
    assert!(got.is_empty(), "{why}: {got:?}");
}

/// Submit a recv into `window` and wait for its completion.
fn recv_one<D: IoDriver>(driver: &mut D, sock: &TcpStream, window: &mut [u8], ud: u64) -> i32 {
    // SAFETY: `window` outlives the op — it is borrowed until the
    // completion is returned just below — and is not touched meanwhile.
    unsafe {
        driver.recv(
            sock.as_raw_fd(),
            window.as_mut_ptr(),
            window.len() as u32,
            ud,
        )
    };
    let got = wait_for(driver, 1);
    assert_eq!(got.len(), 1, "one op, one completion: {got:?}");
    assert_eq!(got[0].user_data, ud);
    got[0].res
}

fn data_then_eof<D: IoDriver>() {
    let mut driver = D::new().unwrap();
    let (ours, mut peer) = pair::<D>();
    let mut window = [0u8; 64];
    peer.write_all(b"hello").unwrap();
    assert_eq!(recv_one(&mut driver, &ours, &mut window, 1), 5);
    assert_eq!(&window[..5], b"hello");
    drop(peer);
    assert_eq!(
        recv_one(&mut driver, &ours, &mut window, 2),
        0,
        "EOF is res == 0"
    );
    assert!(driver.drain());
}

fn peer_reset<D: IoDriver>() {
    let mut driver = D::new().unwrap();
    let (mut ours, peer) = pair::<D>();
    // Closing a socket with unread data aborts the connection (RST).
    ours.write_all(b"never read").unwrap();
    let mut probe = [0u8; 1];
    assert_eq!(peer.peek(&mut probe).unwrap(), 1);
    drop(peer);
    let mut window = [0u8; 64];
    assert_eq!(recv_one(&mut driver, &ours, &mut window, 1), -ECONNRESET);
    assert!(driver.drain());
}

fn short_write_then_remainder<D: IoDriver>() {
    const TOTAL: usize = 4 << 20;
    let mut driver = D::new().unwrap();
    let (ours, mut peer) = pair::<D>();
    mio::set_send_buffer(ours.as_raw_fd(), 4 << 10).unwrap();
    let payload: Vec<u8> = (0..TOTAL).map(|i| (i % 251) as u8).collect();
    let mut iov = [IoVec {
        base: payload.as_ptr(),
        len: TOTAL,
    }];
    // SAFETY: `iov` and `payload` outlive every op below and are only
    // rewritten (`iov`) between a completion and the next submission.
    unsafe { driver.writev(ours.as_raw_fd(), iov.as_ptr(), 1, 9) };
    let got = wait_for(&mut driver, 1);
    assert_eq!(got[0].user_data, 9);
    let first = got[0].res;
    assert!(
        first > 0 && (first as usize) < TOTAL,
        "a peer that is not reading makes the write complete short, got {first}"
    );

    // The peer starts draining; the remainder completes over as many
    // resubmissions as the socket needs.
    let reader = std::thread::spawn(move || {
        let mut all = Vec::with_capacity(TOTAL);
        peer.read_to_end(&mut all).unwrap();
        all
    });
    let mut written = first as usize;
    while written < TOTAL {
        iov[0] = IoVec {
            base: payload[written..].as_ptr(),
            len: TOTAL - written,
        };
        // SAFETY: as above.
        unsafe { driver.writev(ours.as_raw_fd(), iov.as_ptr(), 1, 9) };
        let got = wait_for(&mut driver, 1);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].res > 0, "write failed: {}", got[0].res);
        written += got[0].res as usize;
    }
    assert_eq!(written, TOTAL);
    assert!(driver.drain());
    driver.detach(ours.as_raw_fd());
    drop(ours);
    assert!(
        reader.join().unwrap() == payload,
        "bytes arrive intact, in order"
    );
}

fn cancel_in_flight_recv<D: IoDriver>() {
    let mut driver = D::new().unwrap();
    let (ours, mut peer) = pair::<D>();
    let mut window = [0xAAu8; 64];
    // SAFETY: `window` lives to the end of the function and is only
    // read after the op's single completion has been returned.
    unsafe { driver.recv(ours.as_raw_fd(), window.as_mut_ptr(), 64, 5) };
    assert_quiet(&mut driver, "no data: the recv stays in flight");
    driver.cancel(ours.as_raw_fd(), 5);
    assert_eq!(
        wait_for(&mut driver, 1),
        [Completion {
            user_data: 5,
            res: -ECANCELED
        }]
    );
    // Exactly one completion, and the op is really gone: data arriving
    // now lands nowhere.
    peer.write_all(b"late").unwrap();
    assert_quiet(&mut driver, "exactly one completion per op");
    assert_eq!(
        window, [0xAAu8; 64],
        "a canceled recv leaves its window alone"
    );
    // Canceling nothing is a no-op, and the socket is still usable.
    driver.cancel(ours.as_raw_fd(), 5);
    assert_eq!(recv_one(&mut driver, &ours, &mut window, 6), 4);
    assert_eq!(&window[..4], b"late");
    assert!(driver.drain());
}

fn watches_fire_once<D: IoDriver>() {
    let mut driver = D::new().unwrap();
    let wake = Completion {
        user_data: WAKE,
        res: 0,
    };
    // The waker: one completion per kick, none spontaneously, and the
    // watch survives being fired.
    let waker = driver.waker();
    assert_quiet(&mut driver, "no kick yet");
    for _ in 0..3 {
        waker.wake().unwrap();
        assert_eq!(wait_for(&mut driver, 1), [wake]);
        assert_quiet(&mut driver, "one kick, one completion");
    }

    // A readable watch is one-shot: it fires once per arming, however
    // much readiness piles up behind it.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    driver.watch_readable(listener.as_raw_fd(), 11);
    assert_quiet(&mut driver, "nothing to accept yet");
    let _a = TcpStream::connect(addr).unwrap();
    let got = wait_for(&mut driver, 1);
    assert_eq!(
        (got.len(), got[0].user_data, got[0].res >= 0),
        (1, 11, true)
    );
    let _b = TcpStream::connect(addr).unwrap();
    assert_quiet(&mut driver, "not re-armed, so silent");
    // Re-armed with readiness already pending: fires at once.
    driver.watch_readable(listener.as_raw_fd(), 11);
    let got = wait_for(&mut driver, 1);
    assert_eq!((got.len(), got[0].user_data), (1, 11));
    assert!(driver.drain());
}

fn drain_leaves_nothing_in_flight<D: IoDriver>() {
    let mut driver = D::new().unwrap();
    let (ours, mut peer) = pair::<D>();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut window = vec![0x55u8; 64];
    // SAFETY: `window` is freed only after `drain()` returned `true`.
    unsafe { driver.recv(ours.as_raw_fd(), window.as_mut_ptr(), 64, 1) };
    driver.watch_readable(listener.as_raw_fd(), 2);
    assert!(
        driver.drain(),
        "idle ops cancel and reap well inside the deadline"
    );
    // Nothing completes any more — not the drained ops, not new data.
    peer.write_all(b"after").unwrap();
    assert_quiet(&mut driver, "drained ops never complete");
    assert_eq!(window, vec![0x55u8; 64]);
    drop(window);
    assert!(driver.drain(), "draining an idle driver is a no-op");
}

fn scenarios<D: IoDriver>() -> [(&'static str, fn()); 6] {
    [
        ("data then EOF", data_then_eof::<D>),
        ("peer reset", peer_reset::<D>),
        (
            "short write, then the remainder",
            short_write_then_remainder::<D>,
        ),
        ("cancel of an in-flight recv", cancel_in_flight_recv::<D>),
        (
            "watches fire once per wake / per arming",
            watches_fire_once::<D>,
        ),
        (
            "drain leaves nothing in flight",
            drain_leaves_nothing_in_flight::<D>,
        ),
    ]
}

#[test]
fn every_adapter_passes_the_scenario_table() {
    for backend in backend_matrix() {
        let table = match backend {
            IoBackend::Epoll => scenarios::<EpollDriver>(),
            IoBackend::Uring => scenarios::<UringDriver>(),
        };
        for (name, run) in table {
            eprintln!("driver conformance [{}]: {name}", backend.as_str());
            run();
        }
    }
}
