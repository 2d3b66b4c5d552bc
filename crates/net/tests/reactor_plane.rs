//! Regression tests for the SD path under the reactor connection
//! plane: sequence gaps from dropped frames must not stall the reorder
//! buffer, and a mid-stream disconnect must not leak parked responses.

use dido_model::{Query, Response};
use dido_net::{backend_matrix, BatchConfig, IoBackend, KvClient, KvServer};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn key_echo_handler(_lane: usize, queries: Vec<Query>) -> Vec<Response> {
    queries
        .iter()
        .map(|q| Response::hit(q.key.to_vec()))
        .collect()
}

/// A [`BatchConfig`] pinned to one I/O backend, for the matrix loops.
fn batch_cfg(backend: IoBackend) -> BatchConfig {
    BatchConfig {
        io_backend: backend.into(),
        ..BatchConfig::default()
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Seq-gap regression: RX-ring overflow leaves holes in the sequence
/// numbering of *dispatched* frames. Because dropped frames are
/// answered at drop time, the SD reorder buffer must advance straight
/// through those seqs — and, crucially, traffic sent *after* the
/// overflow round must still drain. A stalled `next` pointer would park
/// the later responses forever and this test would time out on `recv`.
#[test]
fn seq_gap_from_dropped_frames_does_not_stall_later_responses() {
    const K: usize = 10;
    const AFTER: usize = 16;
    for backend in backend_matrix() {
        let name = backend.as_str();
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock();
        let handler = {
            let gate = Arc::clone(&gate);
            move |lane: usize, queries: Vec<Query>| {
                let _unwedged = gate.lock();
                key_echo_handler(lane, queries)
            }
        };
        let server = KvServer::start_batched(
            "127.0.0.1:0",
            BatchConfig {
                ring_slots: 2,
                max_batch_delay: Duration::ZERO, // dispatch instantly, wedge fast
                ..batch_cfg(backend)
            },
            handler,
        )
        .unwrap();
        let mut client = KvClient::connect(server.addr()).unwrap();
        for i in 0..K {
            client.send(&[Query::get(format!("q{i}"))]).unwrap();
        }
        wait_until("ring overflow", || server.stats().dropped_frames.get() > 0);
        drop(held);

        // The overflow round itself drains: one response per request,
        // in order, dropped ones empty.
        let mut dropped = 0u64;
        for i in 0..K {
            let rs = client
                .recv()
                .unwrap_or_else(|e| panic!("{name} frame {i}: {e}"));
            if rs.is_empty() {
                dropped += 1;
            } else {
                assert_eq!(rs[0].value, format!("q{i}").into_bytes(), "{name}");
            }
        }
        assert!(dropped >= 1, "{name}: expected at least one overflow drop");

        // The actual regression check: the reorder buffer sits *past*
        // the gap now, and a fresh pipelined burst must drain
        // completely — one response per frame, in order. (The tiny
        // 2-slot ring may overflow again mid-burst; those arrive as
        // empty drop answers, which is fine — a *stalled* reorder
        // buffer would answer nothing at all.)
        for i in 0..AFTER {
            client.send(&[Query::get(format!("after-{i:02}"))]).unwrap();
        }
        for i in 0..AFTER {
            let rs = client
                .recv()
                .unwrap_or_else(|e| panic!("{name} post-overflow frame {i} stalled: {e}"));
            if !rs.is_empty() {
                assert_eq!(rs[0].value, format!("after-{i:02}").into_bytes(), "{name}");
            }
        }
        // And with the pipeline quiet, a plain round trip is served.
        let rs = client.request(&[Query::get("alive")]).unwrap();
        assert_eq!(&rs[0].value[..], b"alive", "{name}");
        server.shutdown();
    }
}

/// Disconnect-leak regression: a client that vanishes mid-stream —
/// with responses still parked in the SD reorder buffer behind an
/// in-flight dispatch — must have its per-connection state cleaned up,
/// and the freed runs must be counted in `sd_pending_dropped`. Before
/// the fix, a dead connection's buffer kept accumulating until server
/// teardown.
#[test]
fn disconnect_mid_stream_frees_reorder_buffer_and_counts_it() {
    for backend in backend_matrix() {
        let name = backend.as_str();
        let gate = Arc::new(Mutex::new(()));
        let entered = Arc::new(AtomicU64::new(0));
        let handler = {
            let gate = Arc::clone(&gate);
            let entered = Arc::clone(&entered);
            move |lane: usize, queries: Vec<Query>| {
                entered.fetch_add(1, Ordering::SeqCst);
                let _unwedged = gate.lock();
                key_echo_handler(lane, queries)
            }
        };
        let server = KvServer::start_batched(
            "127.0.0.1:0",
            BatchConfig {
                ring_slots: 2,
                max_batch_delay: Duration::ZERO,
                ..batch_cfg(backend)
            },
            handler,
        )
        .unwrap();
        let mut client = KvClient::connect(server.addr()).unwrap();

        // Warm-up round trip that the client never reads: the response
        // sits in the client's kernel receive buffer, so its later
        // close() aborts the connection with an RST (unread data ⇒
        // reset, per TCP) — which is exactly the "vanished mid-stream"
        // shape.
        client.send(&[Query::get("warmup")]).unwrap();
        wait_until("warm-up served", || server.stats().frames.get() >= 1);
        std::thread::sleep(Duration::from_millis(50)); // response delivery

        // Wedge the engine, then pin one frame inside it.
        let held = gate.lock();
        client.send(&[Query::get("stuck")]).unwrap();
        wait_until("dispatch wedged in the handler", || {
            entered.load(Ordering::SeqCst) >= 2
        });

        // Fill the 2-slot ring and overflow it: the drop answers park
        // in the reorder buffer behind the wedged frame's gap.
        for i in 0..12 {
            client.send(&[Query::get(format!("fill-{i}"))]).unwrap();
        }
        wait_until("ring overflow", || server.stats().dropped_frames.get() > 0);

        // Vanish. The reactor observes the reset and retires the read
        // side; the SD connection stays open — it still owes the
        // parked runs.
        drop(client);
        wait_until("reactor retired the connection", || {
            server.stats().reactor_conns.get() == 0
        });
        assert_eq!(server.stats().sd_open_conns.get(), 1, "{name}");

        // Unwedge: the stuck frame's response hits the dead socket,
        // the write fails, and cleanup must free the parked runs —
        // counted — and retire the connection.
        drop(held);
        wait_until("SD retired the dead connection", || {
            server.stats().sd_open_conns.get() == 0
        });
        assert!(
            server.stats().sd_pending_dropped.get() > 0,
            "{name}: parked runs freed on disconnect must be counted"
        );
        server.shutdown();
    }
}
