//! Run the pipeline on *real threads*: one host thread per stage wired
//! by channels (the "GPU" stage is a host thread standing in for the
//! device), plus tag-granular co-processing when work stealing is on.
//! Demonstrates that any dynamic pipeline configuration processes
//! batches correctly outside the virtual-time simulator.
//!
//! ```sh
//! cargo run --release --example threaded_server
//! ```

use dido_kv::model::{PipelineConfig, Query, ResponseStatus};
use dido_kv::pipeline::{EngineConfig, KvEngine, ThreadedPipeline};
use std::time::Instant;

fn main() {
    let engine = KvEngine::new(EngineConfig::new(32 << 20, 1 << 20, 256 << 10));

    // Load 50k keys through the convenience API.
    println!("loading 50,000 keys...");
    for i in 0..50_000 {
        engine.execute(&Query::set(format!("k{i:06}"), format!("value-{i}")));
    }

    // Stream 20 batches of 8,192 mixed queries through two different
    // pipeline configurations on real threads.
    for config in [
        PipelineConfig::mega_kv(),
        PipelineConfig::small_kv_read_intensive(),
    ] {
        let pipeline = ThreadedPipeline::new(&engine, config);
        let batches: Vec<Vec<Query>> = (0..20)
            .map(|b| {
                (0..8_192)
                    .map(|i| {
                        let id = (b * 8_192 + i * 7) % 50_000;
                        if i % 10 == 0 {
                            Query::set(format!("k{id:06}"), "rewritten")
                        } else {
                            Query::get(format!("k{id:06}"))
                        }
                    })
                    .collect()
            })
            .collect();
        let total: usize = batches.iter().map(Vec::len).sum();

        let start = Instant::now();
        let results = pipeline.run(batches);
        let elapsed = start.elapsed();

        let ok: usize = results
            .iter()
            .flatten()
            .filter(|r| r.status == ResponseStatus::Ok)
            .count();
        println!(
            "\nconfig: {}\n  {} queries in {:.1} ms wall clock ({:.2} M qps), {} ok",
            config,
            total,
            elapsed.as_secs_f64() * 1_000.0,
            total as f64 / elapsed.as_secs_f64() / 1e6,
            ok,
        );

        // The executor's claim accounting (epoch-guarded work stealing).
        println!("  {}", pipeline.exec_stats());
    }
}
