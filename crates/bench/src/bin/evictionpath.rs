//! Eviction-path bench: mixed-size + TTL-churn traffic at memory
//! overload vs. a same-window no-TTL baseline. Writes
//! `BENCH_evictionpath.json`.
//!
//! ```text
//! evictionpath [--quick] [--seed N] [--dispatchers N] [--span-ms N]
//!              [--repeats N] [--overload X] [--out PATH] [--check]
//! ```
//!
//! `--quick` runs the CI smoke configuration (short spans; numbers are
//! noisy and only prove the harness runs). `--check` exits non-zero if
//! the best-repeat TTL throughput falls below 90% of its same-window
//! baseline, proactive reclaim covers less than half of expirations,
//! or RSS grows across a TTL cell.

use dido_bench::evictionpath::{
    run_evictionpath, EvictionOptions, PROACTIVE_FLOOR, THROUGHPUT_FLOOR,
};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut opts = EvictionOptions::default();
    let mut out = String::from("BENCH_evictionpath.json");
    let mut check = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                let seed = opts.seed;
                opts = EvictionOptions::quick();
                opts.seed = seed;
            }
            "--seed" => {
                opts.seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--dispatchers" => {
                opts.dispatchers = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--dispatchers needs a number"));
            }
            "--span-ms" => {
                opts.span_ms = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--span-ms needs a number"));
            }
            "--repeats" => {
                opts.repeats = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--repeats needs a number"));
            }
            "--overload" => {
                opts.overload = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--overload needs a number"));
            }
            "--out" => {
                out = iter.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "--check" => check = true,
            "--help" | "-h" => {
                println!(
                    "usage: evictionpath [--quick] [--seed N] [--dispatchers N] \
                     [--span-ms N] [--repeats N] [--overload X] [--out PATH] [--check]"
                );
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }

    println!(
        "evictionpath: {} dispatchers x {} queries/batch, {:.0}x overload, \
         {} ms/cell, {} interleaved repeat(s)",
        opts.dispatchers, opts.frame_queries, opts.overload, opts.span_ms, opts.repeats
    );
    let report = run_evictionpath(&opts, |i, rep| {
        println!(
            "  rep {}: baseline {:>10.0} q/s | ttl {:>10.0} q/s (ratio {:.2}), \
             {} lazy / {} proactive expired, {} segments reclaimed",
            i,
            rep.baseline.throughput_qps,
            rep.ttl.throughput_qps,
            rep.throughput_ratio(),
            rep.ttl.memory.expired_lazy,
            rep.ttl.memory.expired_proactive,
            rep.ttl.memory.segments_reclaimed,
        );
    });
    println!(
        "acceptance: best ratio {:.2} (floor {THROUGHPUT_FLOOR}), proactive share \
         {:.2} (floor {PROACTIVE_FLOOR}), {} expirations, rss bounded: {}",
        report.best_throughput_ratio(),
        report.proactive_share(),
        report.total_expirations(),
        report.rss_bounded()
    );

    std::fs::write(&out, report.to_json()).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    println!("wrote {out}");

    if check && !report.pass() {
        eprintln!("acceptance FAILED");
        std::process::exit(1);
    }
}
