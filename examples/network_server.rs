//! Serve a DIDO node over real TCP and drive it with a client — the
//! store as an actual network service, end to end: client frames →
//! TCP → parse → the dynamically adapted pipeline → response frames.
//!
//! ```sh
//! cargo run --release --example network_server
//! ```

use dido_bench::DidoSystem;
use dido_kv::dido::DidoOptions;
use dido_kv::model::{Query, ResponseStatus};
use dido_kv::net::{KvClient, KvServer};
use dido_kv::pipeline::TestbedOptions;

fn main() -> std::io::Result<()> {
    let dido = DidoSystem::new(DidoOptions {
        testbed: TestbedOptions {
            store_bytes: 16 << 20,
            ..TestbedOptions::default()
        },
        ..DidoOptions::default()
    });

    // Every request frame becomes one pipeline batch: the profiler sees
    // real client traffic and adapts the pipeline as it shifts. The
    // system is shared with the handler by value — `process_batch` is
    // `&self`, so no lock guards the query path.
    let server = KvServer::start("127.0.0.1:0", move |_lane, queries| {
        dido.process_batch(queries).1
    })?;
    println!("kv server listening on {}", server.addr());

    let mut client = KvClient::connect(server.addr())?;

    // Load a working set.
    for chunk in 0..8 {
        let sets: Vec<Query> = (0..512)
            .map(|i| {
                let id = chunk * 512 + i;
                Query::set(format!("key:{id:05}"), format!("value-{id}"))
            })
            .collect();
        let rs = client.request(&sets)?;
        assert!(rs.iter().all(|r| r.status == ResponseStatus::Ok));
    }
    println!("loaded 4096 keys over TCP");

    // Read-heavy traffic.
    let mut hits = 0;
    for round in 0..8 {
        let gets: Vec<Query> = (0..1024)
            .map(|i| Query::get(format!("key:{:05}", (round * 131 + i * 7) % 4096)))
            .collect();
        let rs = client.request(&gets)?;
        hits += rs
            .iter()
            .filter(|r| r.status == ResponseStatus::Ok)
            .count();
    }
    println!("8 x 1024 GETs answered, {hits} hits");

    let stats = server.stats();
    println!(
        "server stats: {} connections, {} frames, {} queries",
        stats.connections.get(),
        stats.frames.get(),
        stats.queries.get(),
    );
    server.shutdown();
    Ok(())
}
