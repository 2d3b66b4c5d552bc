//! Thread audit: a serving `KvServer` holds exactly its configured
//! reactors, dispatchers and SD writers however many connections are
//! open; `KvServer::shutdown` returns only after every one of them has
//! been joined, and an idle connection observes the shutdown promptly.
//!
//! Thread counts come from `/proc/self/task`, so this file holds a
//! single test and nothing else runs in the binary to pollute the
//! count.

use dido_model::{Query, Response};
use dido_net::{backend_matrix, BatchConfig, IoBackend, KvClient, KvServer};
use std::time::{Duration, Instant};

fn key_echo_handler(_lane: usize, queries: Vec<Query>) -> Vec<Response> {
    queries
        .iter()
        .map(|q| Response::hit(q.key.to_vec()))
        .collect()
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

#[test]
fn shutdown_joins_every_thread_and_idle_conns_see_it_promptly() {
    for backend in backend_matrix() {
        audit(backend);
    }
}

fn audit(backend: IoBackend) {
    let before = thread_count();
    let cfg = BatchConfig {
        io_backend: backend.into(),
        ..BatchConfig::default()
    };
    let server = KvServer::start_batched("127.0.0.1:0", cfg, key_echo_handler).unwrap();

    // Live traffic plus one idle connection that never sends.
    let mut active: Vec<KvClient> = (0..6)
        .map(|_| KvClient::connect(server.addr()).unwrap())
        .collect();
    for (i, c) in active.iter_mut().enumerate() {
        let rs = c.request(&[Query::get(format!("k{i}"))]).unwrap();
        assert_eq!(rs[0].value, format!("k{i}").into_bytes());
    }
    let idle = KvClient::connect(server.addr()).unwrap();
    let mut idle_stream = std::net::TcpStream::connect(server.addr()).unwrap();
    // Make sure both idle connections are accepted (not still in the
    // listener backlog, where a closing listener would RST them)
    // before counting threads and shutting down.
    let accept_deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().connections.get() < 8 {
        assert!(Instant::now() < accept_deadline, "idle conns not accepted");
        std::thread::sleep(Duration::from_millis(5));
    }
    // With all 8 connections open the default config's thread count is
    // its fixed pools, nothing per connection.
    let stats = server.stats();
    let pools = stats.reactor_threads.get() as usize
        + cfg.dispatchers
        + stats.sd_writer_threads.get() as usize;
    assert_eq!(
        thread_count() - before,
        pools,
        "server threads must not scale with connections"
    );

    // Shutdown must be prompt even with idle connections parked on it.
    let t0 = Instant::now();
    server.shutdown();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "shutdown took {elapsed:?}"
    );

    // `shutdown` joins synchronously, so the process is already back
    // to its baseline thread count — nothing leaked, nothing detached.
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count() > before {
        assert!(
            Instant::now() < deadline,
            "threads not joined: {} before, {} after shutdown",
            before,
            thread_count()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The idle connection observes the shutdown as EOF, promptly.
    use std::io::Read;
    idle_stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    match idle_stream.read(&mut buf) {
        Ok(0) => {} // clean EOF
        Ok(n) => panic!("unexpected {n} bytes on an idle connection"),
        Err(e) => panic!("idle connection never saw shutdown: {e}"),
    }
    drop(idle);
    drop(active);
}
