//! Quickstart: bring up a DIDO node, use the key-value API, and push a
//! batch through the dynamically adapted pipeline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dido_bench::DidoSystem;
use dido_kv::dido::DidoOptions;
use dido_kv::model::{Query, ResponseStatus};
use dido_kv::pipeline::TestbedOptions;

fn main() {
    // A DIDO node over a 16 MB (simulated shared-memory) store.
    let dido = DidoSystem::new(DidoOptions {
        testbed: TestbedOptions {
            store_bytes: 16 << 20,
            ..TestbedOptions::default()
        },
        ..DidoOptions::default()
    });

    // --- Simple key-value API ------------------------------------------
    dido.execute(&Query::set("user:1", "alice"));
    dido.execute(&Query::set("user:2", "bob"));
    let r = dido.execute(&Query::get("user:1"));
    assert_eq!(r.status, ResponseStatus::Ok);
    println!("GET user:1 -> {}", String::from_utf8_lossy(&r.value));

    dido.execute(&Query::delete("user:2"));
    assert_eq!(
        dido.execute(&Query::get("user:2")).status,
        ResponseStatus::NotFound
    );
    println!("DELETE user:2 -> gone");

    // --- Batched pipeline processing ------------------------------------
    // Load a few thousand keys, then push a read-heavy batch through the
    // full eight-task pipeline on the simulated APU.
    for i in 0..4_000 {
        dido.execute(&Query::set(format!("item:{i}"), format!("value-{i}")));
    }
    let batch: Vec<Query> = (0..8_192)
        .map(|i| {
            if i % 20 == 0 {
                Query::set(format!("item:{}", i % 4_000), "updated")
            } else {
                Query::get(format!("item:{}", i % 4_000))
            }
        })
        .collect();
    let (report, responses) = dido.process_batch(batch);

    let hits = responses
        .iter()
        .filter(|r| r.status == ResponseStatus::Ok)
        .count();
    println!("\nbatch of {} queries, {} ok", report.batch_size, hits);
    println!("pipeline: {}", dido.current_config());
    for (i, stage) in report.stages.iter().enumerate() {
        println!(
            "  stage {} on {}: {:.1} us ({} cores)",
            i,
            stage.processor,
            stage.time_ns / 1_000.0,
            stage.cores,
        );
    }
    println!(
        "steady-state throughput: {:.2} MOPS (GPU util {:.0}%, {} adaptions)",
        report.throughput_mops(),
        report.gpu_utilization() * 100.0,
        dido.adaptions(),
    );
}
