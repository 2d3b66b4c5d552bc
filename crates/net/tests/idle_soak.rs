//! Idle soak: 512 concurrent connections parked on a batched server
//! must cost zero extra threads (the whole point of the reactor pool)
//! and only bounded memory, and the data path must still serve a deep
//! pipelined pass on every connection afterwards.
//!
//! Thread counts come from `/proc/self/task`, so this file holds a
//! single test (Linux only).

#![cfg(target_os = "linux")]

use dido_model::{Query, Response};
use dido_net::{BatchConfig, KvClient, KvServer};
use std::time::{Duration, Instant};

const CONNS: usize = 512;
const K: usize = 32;
/// Generous per-connection RSS ceiling: covers both the server-side
/// `ConnState`/reorder-buffer entry and the client half living in this
/// same process. A thread-per-connection design would blow past it on
/// stacks alone; buffer leaks show up here too.
const RSS_CEILING_KIB_PER_CONN: u64 = 128;

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

fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[test]
fn idle_soak_512_conns_flat_threads_bounded_rss_then_pipelined_pass() {
    let server =
        KvServer::start_batched("127.0.0.1:0", BatchConfig::default(), key_echo_handler).unwrap();
    let threads_before_conns = thread_count();
    let rss_before_conns = rss_kib();

    let mut clients: Vec<KvClient> = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        clients.push(KvClient::connect(server.addr()).unwrap());
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while (server.stats().reactor_conns.get() as usize) < CONNS {
        assert!(
            Instant::now() < deadline,
            "only {}/{CONNS} connections registered",
            server.stats().reactor_conns.get()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Soak: everything idle for two seconds.
    std::thread::sleep(Duration::from_secs(2));

    // Flat thread count: 512 open connections added no threads at all.
    let threads_after_conns = thread_count();
    assert_eq!(
        threads_after_conns, threads_before_conns,
        "connection count must not change the thread count"
    );
    let readers = server.stats().reactor_threads.get();
    assert!(readers >= 1, "no reactor threads reported");

    // Bounded memory: the per-connection footprint (both halves, since
    // client and server share this process) stays under the ceiling.
    let rss_delta = rss_kib().saturating_sub(rss_before_conns);
    assert!(
        rss_delta < RSS_CEILING_KIB_PER_CONN * CONNS as u64,
        "RSS grew {rss_delta} KiB over {CONNS} conns \
         (ceiling {RSS_CEILING_KIB_PER_CONN} KiB/conn)"
    );

    // The soak must not have wedged anything: a K-deep pipelined
    // ordering pass on every connection still round-trips in order.
    for (ci, client) in clients.iter_mut().enumerate() {
        for i in 0..K {
            client
                .send(&[Query::get(format!("c{ci}-f{i:02}"))])
                .unwrap();
        }
        for i in 0..K {
            let rs = client
                .recv()
                .unwrap_or_else(|e| panic!("conn {ci} frame {i}: {e}"));
            assert_eq!(rs[0].value, format!("c{ci}-f{i:02}").into_bytes());
        }
    }
    drop(clients);
    server.shutdown();
}
