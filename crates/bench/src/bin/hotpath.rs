//! Hot-path bench: engine-only throughput of the wavefront-vectorized
//! zero-allocation path, across three workload mixes × three batch
//! sizes. Writes `BENCH_hotpath.json`.
//!
//! ```text
//! hotpath [--quick] [--seed N] [--store-mb N] [--out PATH]
//! ```
//!
//! `--quick` runs the CI smoke configuration (tiny store, few
//! iterations; numbers are noisy and only prove the harness runs).

use dido_bench::hotpath::{run_hotpath, HotpathOptions};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut opts = HotpathOptions::default();
    let mut out = String::from("BENCH_hotpath.json");
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                let seed = opts.seed;
                opts = HotpathOptions::quick();
                opts.seed = seed;
            }
            "--seed" => {
                opts.seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--store-mb" => {
                let mb: usize = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--store-mb needs a number"));
                opts.store_bytes = mb << 20;
            }
            "--out" => {
                out = iter.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "--help" | "-h" => {
                println!("hotpath [--quick] [--seed N] [--store-mb N] [--out PATH]");
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    println!("# hotpath: batched probes + staging arena, engine only");
    println!(
        "# store {} MB, {} queries/cell, seed {}{}",
        opts.store_bytes >> 20,
        opts.target_queries,
        opts.seed,
        if opts.quick { ", quick" } else { "" }
    );
    println!("{:<12} {:>10} {:>10}", "mix", "batch", "Mops");
    let report = run_hotpath(&opts, |c| {
        println!(
            "{:<12} {:>10} {:>10.3}",
            c.mix, c.batch_size, c.vectorized_mops
        );
    });

    if let Err(e) = std::fs::write(&out, report.to_json()) {
        die(&format!("writing {out}: {e}"));
    }
    println!("# wrote {out}");
}
