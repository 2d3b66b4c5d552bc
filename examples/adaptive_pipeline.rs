//! Watch DIDO re-adapt as the workload changes character — the paper's
//! motivating scenario: a Facebook-style cache node whose traffic swings
//! between a tiny-value user-status workload (USR-like) and a general
//! mixed cache (ETC-like).
//!
//! ```sh
//! cargo run --release --example adaptive_pipeline
//! ```

use dido_bench::DidoSystem;
use dido_kv::dido::DidoOptions;
use dido_kv::pipeline::TestbedOptions;
use dido_kv::workload::{WorkloadGen, WorkloadSpec};

fn phase(dido: &DidoSystem, label: &str, batches: usize, store_mb: usize) {
    let spec = WorkloadSpec::from_label(label).expect("valid label");
    let n_keys = spec.keyspace_size((store_mb as u64) << 20, 16) / 2;
    let mut generator = WorkloadGen::new(spec, n_keys.max(1_000), 7);
    // Warm the store with this phase's keys so GETs hit.
    for q in generator.preload_queries(n_keys.min(20_000)) {
        dido.execute(&q);
    }
    println!("\n--- phase: {label} ---");
    for b in 0..batches {
        let (report, _) = dido.process_batch(generator.batch(6_144));
        let star = if dido.trace().last().is_some_and(|s| s.readapted) {
            "  <- re-adapted"
        } else {
            ""
        };
        println!(
            "batch {b}: {:6.2} MOPS under {}{}",
            report.throughput_mops(),
            dido.current_config(),
            star,
        );
    }
}

fn main() {
    let store_mb = 16usize;
    let dido = DidoSystem::new(DidoOptions {
        testbed: TestbedOptions {
            store_bytes: store_mb << 20,
            ..TestbedOptions::default()
        },
        ..DidoOptions::default()
    });

    // USR-like: tiny keys and values, almost pure reads, skewed.
    phase(&dido, "K8-G95-S", 4, store_mb);
    // ETC-like: mixed sizes, half writes.
    phase(&dido, "K32-G50-U", 4, store_mb);
    // Media-metadata-like: large values, read heavy.
    phase(&dido, "K128-G95-U", 4, store_mb);

    println!(
        "\ntotal: {} model runs, {} pipeline changes over {:.1} ms of virtual time",
        dido.model_runs(),
        dido.adaptions(),
        dido.clock_ns() / 1e6,
    );
}
