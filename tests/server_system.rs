//! System-level test of the TCP front-end over a full DIDO node:
//! clients over real sockets, the dynamically adapted pipeline behind
//! the handler, trace capture, and snapshot/restore across "restarts".

use dido_bench::DidoSystem;
use dido_kv::dido::DidoOptions;
use dido_kv::model::{Query, ResponseStatus};
use dido_kv::net::{read_trace, write_trace, KvClient, KvServer};
use dido_kv::pipeline::TestbedOptions;
use parking_lot::Mutex;
use std::sync::Arc;

// `DidoSystem::process_batch` takes `&self`, so the node is shared with
// the server handler through a bare `Arc` — no global lock on the path.

fn dido_node(store_bytes: usize) -> DidoSystem {
    DidoSystem::new(DidoOptions {
        testbed: TestbedOptions {
            store_bytes,
            ..TestbedOptions::default()
        },
        ..DidoOptions::default()
    })
}

#[test]
fn tcp_clients_drive_a_dido_node_end_to_end() {
    let dido = Arc::new(dido_node(8 << 20));
    let handler = Arc::clone(&dido);
    let server = KvServer::start("127.0.0.1:0", move |_lane, queries| {
        handler.process_batch(queries).1
    })
    .expect("bind");

    // Two clients interleave writes and reads.
    let addr = server.addr();
    let mut a = KvClient::connect(addr).unwrap();
    let mut b = KvClient::connect(addr).unwrap();
    let sets: Vec<Query> = (0..512)
        .map(|i| Query::set(format!("sys-{i:04}"), format!("payload-{i:04}")))
        .collect();
    let rs = a.request(&sets).unwrap();
    assert!(rs.iter().all(|r| r.status == ResponseStatus::Ok));

    let gets: Vec<Query> = (0..512).map(|i| Query::get(format!("sys-{i:04}"))).collect();
    let rs = b.request(&gets).unwrap();
    for (i, r) in rs.iter().enumerate() {
        assert_eq!(r.status, ResponseStatus::Ok, "sys-{i:04}");
        assert_eq!(r.value, format!("payload-{i:04}"));
    }

    // The node profiled real traffic and ran its cost model.
    assert!(dido.metrics().work.batches >= 2);
    assert!(dido.model_runs() >= 1);
    server.shutdown();
}

#[test]
fn snapshot_survives_a_simulated_restart_behind_tcp() {
    let trace_path = std::env::temp_dir().join(format!("dido-sys-{}.snap", std::process::id()));

    // First incarnation: load data over TCP, snapshot it.
    {
        let dido = Arc::new(dido_node(4 << 20));
        let handler = Arc::clone(&dido);
        let server = KvServer::start("127.0.0.1:0", move |_lane, queries| {
            handler.process_batch(queries).1
        })
        .unwrap();
        let mut c = KvClient::connect(server.addr()).unwrap();
        let sets: Vec<Query> = (0..256)
            .map(|i| Query::set(format!("persist-{i}"), format!("gen1-{i}")))
            .collect();
        c.request(&sets).unwrap();
        write_trace(&trace_path, &dido.engine().snapshot()).unwrap();
        server.shutdown();
    }

    // Second incarnation: restore, serve the same data.
    {
        let dido = dido_node(4 << 20);
        let restored = read_trace(&trace_path).unwrap();
        assert_eq!(restored.len(), 256);
        for q in &restored {
            dido.execute(q);
        }
        let dido = Arc::new(dido);
        let handler = Arc::clone(&dido);
        let server = KvServer::start("127.0.0.1:0", move |_lane, queries| {
            handler.process_batch(queries).1
        })
        .unwrap();
        let mut c = KvClient::connect(server.addr()).unwrap();
        let gets: Vec<Query> = (0..256).map(|i| Query::get(format!("persist-{i}"))).collect();
        let rs = c.request(&gets).unwrap();
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r.status, ResponseStatus::Ok, "persist-{i}");
            assert_eq!(r.value, format!("gen1-{i}"));
        }
        server.shutdown();
    }
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn captured_traffic_replays_identically() {
    // Capture client traffic into a trace, then replay it against a
    // fresh node: the final visible state must match.
    let captured: Arc<Mutex<Vec<Query>>> = Arc::new(Mutex::new(Vec::new()));
    let live_node = Arc::new(dido_node(4 << 20));

    let tee = Arc::clone(&captured);
    let handler = Arc::clone(&live_node);
    let server = KvServer::start("127.0.0.1:0", move |_lane, queries| {
        tee.lock().extend(queries.iter().cloned());
        handler.process_batch(queries).1
    })
    .unwrap();
    let mut c = KvClient::connect(server.addr()).unwrap();
    for round in 0..4 {
        let batch: Vec<Query> = (0..128)
            .map(|i| {
                let id = (round * 37 + i) % 200;
                if i % 5 == 0 {
                    Query::set(format!("cap-{id}"), format!("r{round}i{i}"))
                } else {
                    Query::get(format!("cap-{id}"))
                }
            })
            .collect();
        c.request(&batch).unwrap();
    }
    server.shutdown();

    let trace_path = std::env::temp_dir().join(format!("dido-cap-{}.trace", std::process::id()));
    write_trace(&trace_path, &captured.lock()).unwrap();
    let replayed = read_trace(&trace_path).unwrap();
    assert_eq!(replayed.len(), 4 * 128);

    // Replay into a fresh node and compare every key's final value.
    let fresh = dido_node(4 << 20);
    for q in &replayed {
        fresh.execute(q);
    }
    for id in 0..200 {
        let q = Query::get(format!("cap-{id}"));
        let a = live_node.execute(&q);
        let b = fresh.execute(&q);
        assert_eq!(a.status, b.status, "cap-{id}");
        assert_eq!(a.value, b.value, "cap-{id}");
    }
    std::fs::remove_file(&trace_path).ok();
}
