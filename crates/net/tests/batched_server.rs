//! End-to-end tests of the TCP data path that need client-side fault
//! injection: split prefix writes (the desync regression), deep
//! pipelining, and RX-ring overflow under a wedged engine.

use dido_model::{Query, Response};
use dido_net::{backend_matrix, BatchConfig, IoBackend, KvClient, KvServer};
use parking_lot::Mutex;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Responds to every query with its key as the value, so response
/// content and order are both checkable from the client.
fn key_echo_handler(_lane: usize, queries: Vec<Query>) -> Vec<Response> {
    queries
        .iter()
        .map(|q| Response::hit(q.key.to_vec()))
        .collect()
}

/// A [`BatchConfig`] pinned to one I/O backend (default everywhere
/// else), for the matrix loops below.
fn batch_cfg(backend: IoBackend) -> BatchConfig {
    BatchConfig {
        io_backend: backend.into(),
        ..BatchConfig::default()
    }
}

/// Stable label for assertion messages: `batched/epoll`,
/// `batched/uring`.
fn batched_name(backend: IoBackend) -> &'static str {
    match backend {
        IoBackend::Epoll => "batched/epoll",
        IoBackend::Uring => "batched/uring",
    }
}

/// A length prefix split across writes, with a long pause in the
/// middle: the reactor sees a readiness read end 2 bytes into the
/// prefix and must keep those bytes buffered until the rest arrives. A
/// reader that restarted the frame instead would desync the stream for
/// good (the next "prefix" would begin mid-prefix, usually parsing as a
/// gigantic length).
#[test]
fn split_prefix_write_with_delay_does_not_desync() {
    for backend in backend_matrix() {
        let name = batched_name(backend);
        let server =
            KvServer::start_batched("127.0.0.1:0", batch_cfg(backend), key_echo_handler).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();

        // Encode one frame by hand: count=1, GET "ping".
        let mut frame = Vec::new();
        frame.extend_from_slice(&1u16.to_le_bytes());
        frame.push(1); // GET opcode
        frame.extend_from_slice(&4u16.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(b"ping");
        let prefix = (frame.len() as u32).to_le_bytes();

        // First half of the prefix, then stall.
        stream.write_all(&prefix[..2]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(250));
        stream.write_all(&prefix[2..]).unwrap();
        stream.write_all(&frame).unwrap();
        stream.flush().unwrap();

        // A desynced server never answers; bound the wait so the buggy
        // code fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut client = KvClient::from_stream(stream);
        let rs = client.recv().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(rs.len(), 1, "{name}");
        assert_eq!(&rs[0].value[..], b"ping", "{name}");

        // The stream must still be in sync for a normal request.
        let rs = client.request(&[Query::get("again")]).unwrap();
        assert_eq!(&rs[0].value[..], b"again", "{name}");
        server.shutdown();
    }
}

/// A pipelined client sends K frames back-to-back before reading
/// anything; it must get K correct responses in order. This also
/// crosses dispatch boundaries (the drain window aggregates several of
/// the frames into shared engine invocations, and the writer restores
/// per-connection order).
#[test]
fn pipelined_client_gets_in_order_responses() {
    const K: usize = 12;
    for backend in backend_matrix() {
        let name = batched_name(backend);
        let server =
            KvServer::start_batched("127.0.0.1:0", batch_cfg(backend), key_echo_handler).unwrap();
        let mut client = KvClient::connect(server.addr()).unwrap();
        for i in 0..K {
            client.send(&[Query::get(format!("frame-{i:02}"))]).unwrap();
        }
        for i in 0..K {
            let rs = client
                .recv()
                .unwrap_or_else(|e| panic!("{name} frame {i}: {e}"));
            assert_eq!(rs.len(), 1, "{name} frame {i}");
            assert_eq!(
                rs[0].value,
                format!("frame-{i:02}").into_bytes(),
                "{name}: response out of order"
            );
        }
        server.shutdown();
    }
}

/// Two clients interleaving pipelined traffic: per-connection order
/// must hold even when the dispatcher mixes their frames into shared
/// batches and scatters responses back out.
#[test]
fn two_pipelined_clients_keep_their_own_order() {
    const K: usize = 10;
    for backend in backend_matrix() {
        let name = batched_name(backend);
        let server =
            KvServer::start_batched("127.0.0.1:0", batch_cfg(backend), key_echo_handler).unwrap();
        let mut a = KvClient::connect(server.addr()).unwrap();
        let mut b = KvClient::connect(server.addr()).unwrap();
        for i in 0..K {
            a.send(&[Query::get(format!("a-{i}"))]).unwrap();
            b.send(&[Query::get(format!("b-{i}"))]).unwrap();
        }
        for i in 0..K {
            assert_eq!(
                a.recv().unwrap()[0].value,
                format!("a-{i}").into_bytes(),
                "{name}"
            );
            assert_eq!(
                b.recv().unwrap()[0].value,
                format!("b-{i}").into_bytes(),
                "{name}"
            );
        }
        let stats = server.stats().snapshot();
        assert_eq!(
            stats.frames + stats.bad_frames + stats.dropped_frames,
            2 * K as u64,
            "{name}"
        );
        server.shutdown();
    }
}

/// Overflowing the shared RX ring must not hang the connection: drops
/// are counted in `ServerStats::dropped_frames` and each dropped frame
/// is answered with an empty response frame, so the client's
/// request/response accounting stays aligned.
#[test]
fn ring_overflow_counts_drops_and_keeps_connection_alive() {
    const K: usize = 10;
    for backend in backend_matrix() {
        let name = batched_name(backend);
        // Wedge the engine: the handler blocks on this until the test
        // is ready, so drained frames pin the dispatcher while later
        // frames pile into (and overflow) the 2-slot ring.
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
        // Wait for the overflow to happen before releasing the engine.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().dropped_frames.get() == 0 {
            assert!(Instant::now() < deadline, "{name}: ring never overflowed");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(held);

        // Every frame gets exactly one response — dropped ones arrive
        // empty, served ones carry their key — and the order still
        // holds.
        let mut served = 0;
        let mut dropped = 0;
        for i in 0..K {
            let rs = client
                .recv()
                .unwrap_or_else(|e| panic!("{name} frame {i}: {e}"));
            if rs.is_empty() {
                dropped += 1;
            } else {
                assert_eq!(rs[0].value, format!("q{i}").into_bytes(), "{name}");
                served += 1;
            }
        }
        assert_eq!(served + dropped, K, "{name}");
        assert!(dropped >= 1, "{name}: expected at least one overflow drop");
        let stats = server.stats().snapshot();
        assert_eq!(stats.dropped_frames, dropped as u64, "{name}");
        assert_eq!(stats.frames, served as u64, "{name}");
        // Connection survives overload: a fresh request round-trips.
        let rs = client.request(&[Query::get("alive")]).unwrap();
        assert_eq!(&rs[0].value[..], b"alive", "{name}");
        server.shutdown();
    }
}
