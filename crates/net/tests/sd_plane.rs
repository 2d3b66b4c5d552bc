//! Integration tests for the sharded SD egress plane: pipelined
//! ordering across writer-shard counts, slow-consumer isolation on a
//! shared shard, pending-bytes backpressure, stall-deadline retirement,
//! and writable-park recovery.

use dido_model::{Query, Response};
use dido_net::{backend_matrix, BatchConfig, IoBackend, KvClient, KvServer};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A [`BatchConfig`] pinned to one I/O backend, for the matrix loops.
fn batch_cfg(backend: IoBackend) -> BatchConfig {
    BatchConfig {
        io_backend: backend.into(),
        ..BatchConfig::default()
    }
}

fn key_echo_handler(_lane: usize, queries: Vec<Query>) -> Vec<Response> {
    queries
        .iter()
        .map(|q| Response::hit(q.key.to_vec()))
        .collect()
}

/// Handler that answers every GET with a value of `n` bytes — the
/// egress amplifier the slow-consumer tests use to fill socket buffers
/// quickly from small requests.
fn fat_value_handler(n: usize) -> impl Fn(usize, Vec<Query>) -> Vec<Response> + Send + Sync {
    move |_lane, queries| {
        queries
            .iter()
            .map(|_| Response::hit(vec![b'v'; n]))
            .collect()
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A slow consumer: connected, shrunk receive buffer, sends requests
/// but does not read responses until told to. The small `SO_RCVBUF`
/// keeps the kernel from absorbing the backlog on the client side, so
/// the server's egress queue actually fills.
fn slow_client(addr: std::net::SocketAddr) -> KvClient {
    let stream = TcpStream::connect(addr).unwrap();
    let _ = stream.set_nodelay(true);
    mio::set_recv_buffer(stream.as_raw_fd(), 16 << 10).unwrap();
    KvClient::from_stream(stream)
}

/// K pipelined frames per connection, several connections, across SD
/// writer-shard counts: every connection must get exactly one response
/// per frame, in send order, no matter how the dispatcher's runs
/// scatter over shards.
#[test]
fn pipelined_ordering_holds_across_sd_writer_counts() {
    const CONNS: usize = 8;
    const K: usize = 32;
    for backend in backend_matrix() {
        for sd_writers in [1usize, 2, 4] {
            let server = KvServer::start_batched(
                "127.0.0.1:0",
                BatchConfig {
                    sd_writers,
                    ..batch_cfg(backend)
                },
                key_echo_handler,
            )
            .unwrap();
            assert_eq!(server.stats().sd_writer_threads.get(), sd_writers as u64);
            let addr = server.addr();
            let workers: Vec<_> = (0..CONNS)
                .map(|c| {
                    std::thread::spawn(move || {
                        let mut client = KvClient::connect(addr).unwrap();
                        for i in 0..K {
                            client.send(&[Query::get(format!("c{c}-q{i:02}"))]).unwrap();
                        }
                        for i in 0..K {
                            let rs = client
                                .recv()
                                .unwrap_or_else(|e| panic!("conn {c} frame {i}: {e}"));
                            assert_eq!(
                                rs[0].value,
                                format!("c{c}-q{i:02}").into_bytes(),
                                "conn {c} got frame {i} out of order ({sd_writers} writers)"
                            );
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            server.shutdown();
        }
    }
}

/// Slow-consumer isolation: with a single SD shard, a connection whose
/// peer stops reading must park on WRITABLE readiness instead of
/// wedging the shard — a healthy connection on the *same* shard keeps
/// getting timely responses. Under the old blocking writer the healthy
/// requests queued behind a 30 s `wait_writable` stall.
#[test]
fn slow_reader_does_not_stall_healthy_conn_on_same_shard() {
    const SLOW_FRAMES: usize = 256;
    const VALUE: usize = 4 << 10;
    const PROBES: usize = 20;
    for backend in backend_matrix() {
        let server = KvServer::start_batched(
            "127.0.0.1:0",
            BatchConfig {
                sd_writers: 1,
                sd_hiwater_bytes: 64 << 10,
                sndbuf_bytes: Some(16 << 10),
                ..batch_cfg(backend)
            },
            fat_value_handler(VALUE),
        )
        .unwrap();

        // Baseline: healthy round-trip latency with nothing else connected.
        let mut healthy = KvClient::connect(server.addr()).unwrap();
        let mut base = Vec::with_capacity(PROBES);
        for _ in 0..PROBES {
            let t = Instant::now();
            let rs = healthy.request(&[Query::get("probe")]).unwrap();
            assert_eq!(rs[0].value.len(), VALUE);
            base.push(t.elapsed());
        }
        base.sort();
        let base_p99 = base[base.len() - 1];

        // Wedge a slow consumer: ~1 MiB of responses against a 16 KiB
        // send buffer and a 16 KiB client receive buffer. The sender thread
        // may itself block once backpressure pauses the connection's reads;
        // that is part of the scenario.
        let slow = slow_client(server.addr());
        let sender = std::thread::spawn(move || {
            let mut slow = slow;
            for i in 0..SLOW_FRAMES {
                if slow.send(&[Query::get(format!("slow-{i}"))]).is_err() {
                    break;
                }
            }
            slow
        });
        wait_until("slow connection parked on WRITABLE", || {
            server.stats().sd_writable_parks.get() >= 1
        });

        // Healthy probes while the slow connection is parked on the same
        // (only) shard.
        let mut during = Vec::with_capacity(PROBES);
        for _ in 0..PROBES {
            let t = Instant::now();
            let rs = healthy.request(&[Query::get("probe")]).unwrap();
            assert_eq!(rs[0].value.len(), VALUE);
            during.push(t.elapsed());
        }
        during.sort();
        let during_p99 = during[during.len() - 1];

        // 2x the idle baseline plus an absolute floor for scheduler noise
        // on tiny baselines (CI + TSan runs are slow; the regression being
        // caught here is a multi-second head-of-line stall, not jitter).
        let bound = base_p99 * 2 + Duration::from_millis(250);
        assert!(
            during_p99 <= bound,
            "healthy p99 {during_p99:?} exceeded {bound:?} (idle baseline {base_p99:?}) \
         while a slow consumer was parked on the same shard"
        );
        assert!(
            server.stats().sd_read_pauses.get() >= 1,
            "the slow consumer should have crossed the pending-bytes high water"
        );

        // Shutdown closes the wedged connection, which errors the sender
        // thread's blocked write and lets it join; its undelivered runs are
        // freed (and counted) by the shard teardown.
        drop(healthy);
        server.shutdown();
        let _ = sender.join();
    }
}

/// Backpressure cap: once a connection's pending egress bytes cross the
/// high-water mark its READ interest is paused, so pending stops
/// growing — bounded by the high water plus the batches already in
/// flight through the ring — instead of absorbing the client's whole
/// pipelined burst.
#[test]
fn backpressure_caps_pending_bytes_and_drains_in_order() {
    const FRAMES: usize = 128;
    const VALUE: usize = 4 << 10;
    const HIWATER: usize = 32 << 10;
    for backend in backend_matrix() {
        let server = KvServer::start_batched(
            "127.0.0.1:0",
            BatchConfig {
                sd_writers: 1,
                sd_hiwater_bytes: HIWATER,
                sndbuf_bytes: Some(16 << 10),
                ..batch_cfg(backend)
            },
            fat_value_handler(VALUE),
        )
        .unwrap();

        let stream = TcpStream::connect(server.addr()).unwrap();
        let _ = stream.set_nodelay(true);
        mio::set_recv_buffer(stream.as_raw_fd(), 16 << 10).unwrap();
        let mut reader = KvClient::from_stream(stream.try_clone().unwrap());
        let sender = std::thread::spawn(move || {
            let mut writer = KvClient::from_stream(stream);
            let mut sent = 0usize;
            for i in 0..FRAMES {
                // Trickle the burst in so the reactor observes the rising
                // backlog instead of swallowing it in one read.
                if writer.send(&[Query::get(format!("bp-{i:03}"))]).is_err() {
                    break;
                }
                sent += 1;
                if i % 4 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            sent
        });

        wait_until("read interest paused by backpressure", || {
            server.stats().sd_read_pauses.get() >= 1
        });
        let hiwater_seen = server.stats().sd_pending_bytes_hiwater.get();
        assert!(
            hiwater_seen >= HIWATER as u64,
            "pause implies the high water was crossed, saw {hiwater_seen}"
        );
        assert!(
            hiwater_seen <= (8 * HIWATER) as u64,
            "pending bytes must be capped near the high water, saw {hiwater_seen} \
         against a {HIWATER} B mark"
        );

        // Drain everything: reads resume below the low water and every
        // frame sent must come back, in order. Draining also unblocks the
        // sender, so it finishes the burst; read until both have happened.
        let mut got = 0usize;
        while got < FRAMES {
            let rs = reader.recv().unwrap_or_else(|e| panic!("frame {got}: {e}"));
            assert_eq!(rs[0].value.len(), VALUE, "frame {got}");
            got += 1;
        }
        let sent = sender.join().unwrap();
        assert_eq!(sent, FRAMES, "the drain should unblock the whole burst");
        assert_eq!(got, sent, "every accepted frame must be answered");
        server.shutdown();
    }
}

/// Stall retirement: a connection parked on WRITABLE with no progress
/// past `sd_stall_timeout` is retired — alone. The shard keeps serving
/// its healthy connections, where the old plane's 30 s blocking stall
/// wedged every connection behind the slow one.
#[test]
fn stall_deadline_retires_only_the_wedged_conn() {
    const VALUE: usize = 32 << 10;
    for backend in backend_matrix() {
        let server = KvServer::start_batched(
            "127.0.0.1:0",
            BatchConfig {
                sd_writers: 1,
                sd_stall_timeout: Duration::from_millis(300),
                sndbuf_bytes: Some(16 << 10),
                ..batch_cfg(backend)
            },
            fat_value_handler(VALUE),
        )
        .unwrap();

        let mut healthy = KvClient::connect(server.addr()).unwrap();
        let rs = healthy.request(&[Query::get("warm")]).unwrap();
        assert_eq!(rs[0].value.len(), VALUE);

        // ~512 KiB of responses into a dead-still consumer: fills both
        // socket buffers, parks, makes no progress, and must be retired
        // once the 300 ms deadline lapses.
        let mut slow = slow_client(server.addr());
        for i in 0..16 {
            slow.send(&[Query::get(format!("wedge-{i}"))]).unwrap();
        }
        wait_until("stalled connection retired", || {
            server.stats().sd_stall_retired.get() >= 1
        });
        wait_until("retired connection leaves the SD gauge", || {
            server.stats().sd_open_conns.get() == 1
        });

        // The healthy connection never noticed.
        let rs = healthy.request(&[Query::get("still-alive")]).unwrap();
        assert_eq!(rs[0].value.len(), VALUE);

        // The retired peer was really closed, not just forgotten: its
        // stream hits EOF/reset once the parked bytes are consumed.
        let dead = (0..64).any(|_| slow.recv().is_err());
        assert!(dead, "retired connection should read through to an error");
        server.shutdown();
    }
}

/// Writable-park recovery: a consumer that merely pauses — long enough
/// to park the connection, shorter than the stall deadline — must lose
/// nothing. Every response arrives, in order, once it resumes reading.
#[test]
fn writable_park_recovers_when_the_client_resumes() {
    const FRAMES: usize = 64;
    const VALUE: usize = 4 << 10;
    for backend in backend_matrix() {
        let server = KvServer::start_batched(
            "127.0.0.1:0",
            BatchConfig {
                sd_writers: 1,
                sndbuf_bytes: Some(16 << 10),
                ..batch_cfg(backend)
            },
            fat_value_handler(VALUE),
        )
        .unwrap();

        let mut client = slow_client(server.addr());
        for i in 0..FRAMES {
            client.send(&[Query::get(format!("nap-{i:02}"))]).unwrap();
        }
        wait_until("connection parked on WRITABLE", || {
            server.stats().sd_writable_parks.get() >= 1
        });
        // Napping (well under the 5 s default stall deadline), then
        // draining: the parked run must resume exactly where it stopped.
        std::thread::sleep(Duration::from_millis(300));
        for i in 0..FRAMES {
            let rs = client.recv().unwrap_or_else(|e| panic!("frame {i}: {e}"));
            assert_eq!(rs[0].value.len(), VALUE, "frame {i}");
        }
        let rs = client.request(&[Query::get("after")]).unwrap();
        assert_eq!(rs[0].value.len(), VALUE);
        assert_eq!(server.stats().sd_stall_retired.get(), 0);
        server.shutdown();
    }
}
