//! Connection-scale bench: the server's reactor plane under
//! {64, 512, 4096} concurrent connections, on every available I/O
//! backend (epoll always; io_uring when the kernel has it), with
//! repeats interleaved across backends so comparisons share one
//! process window. Writes `BENCH_connpath.json`.
//!
//! ```text
//! connpath [--quick] [--seed N] [--frames N] [--window N]
//!          [--repeats N] [--out PATH] [--check]
//! ```
//!
//! `--quick` runs the CI smoke sweep ({16, 64, 256} connections, few
//! frames; numbers are noisy and only prove the harness runs). Every
//! run finishes with a slow-consumer cell: the mid-sweep fleet plus a
//! few wedged connections that never read, reporting the healthy
//! fleet's p99 against a no-slow baseline and the SD egress gauges.
//! `--check` exits non-zero if the reader-thread count is not flat
//! across the sweep.

use dido_bench::connpath::{run_connpath, ConnpathOptions};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut opts = ConnpathOptions::default();
    let mut out = String::from("BENCH_connpath.json");
    let mut check = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                let seed = opts.seed;
                opts = ConnpathOptions::quick();
                opts.seed = seed;
            }
            "--seed" => {
                opts.seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--frames" => {
                opts.target_frames = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--frames needs a number"));
            }
            "--window" => {
                opts.window = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--window needs a number"));
            }
            "--repeats" => {
                opts.repeats = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--repeats needs a number"));
            }
            "--out" => {
                out = iter.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "--check" => check = true,
            "--help" | "-h" => {
                println!(
                    "connpath [--quick] [--seed N] [--frames N] [--window N] \
                     [--repeats N] [--out PATH] [--check]"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    println!(
        "# connpath: reactor connection plane at scale, loopback TCP, \
         {} in-flight frames/conn, {} queries/frame",
        opts.window, opts.frame_queries
    );
    println!(
        "# sweep {:?}, {} frames/cell, best of {} runs, seed {}{}",
        opts.connections(),
        opts.target_frames,
        opts.repeats,
        opts.seed,
        if opts.quick { ", quick" } else { "" }
    );
    println!(
        "{:>6} {:>7} {:>8} {:>8} {:>16} {:>9} {:>10} {:>10} {:>12} {:>10}",
        "conns",
        "backend",
        "readers",
        "reg'd",
        "throughput q/s",
        "spread",
        "p50 us",
        "p99 us",
        "frames/disp",
        "sys/query"
    );
    let report = run_connpath(&opts, |c| {
        println!(
            "{:>6} {:>7} {:>8} {:>8} {:>16.0} {:>8.1}% {:>10.1} {:>10.1} {:>12.1} {:>10.3}",
            c.connections,
            c.io_backend.as_str(),
            c.reader_threads,
            c.registered_conns,
            c.throughput_qps,
            c.qps_rel_spread * 100.0,
            c.p50_us,
            c.p99_us,
            c.mean_batch_frames,
            c.syscalls_per_query
        );
    });
    if let Some(sc) = &report.slow {
        println!(
            "# slow-consumer cell: {} conns + {} wedged, healthy p99 \
             {:.1} us vs {:.1} us base ({:.2}x, bar 2.00x), \
             {} writable parks, {} read pauses, pending hiwater {} B",
            sc.connections,
            sc.slow_consumers,
            sc.slow_p99_us,
            sc.base_p99_us,
            sc.healthy_p99_ratio,
            sc.sd_writable_parks,
            sc.sd_read_pauses,
            sc.sd_pending_hiwater
        );
    }

    if !report.protopath.is_empty() {
        println!(
            "# protopath: {} conns, pipelined {}-key multi-GET per request, \
             protocols interleaved per repeat",
            report.protopath[0].connections, opts.frame_queries
        );
        println!(
            "{:>10} {:>7} {:>16} {:>9} {:>12} {:>12}",
            "proto", "backend", "throughput q/s", "spread", "req B/query", "rep B/query"
        );
        for c in &report.protopath {
            println!(
                "{:>10} {:>7} {:>16.0} {:>8.1}% {:>12.2} {:>12.2}",
                c.proto.as_str(),
                c.io_backend.as_str(),
                c.throughput_qps,
                c.qps_rel_spread * 100.0,
                c.request_bytes_per_query,
                c.reply_bytes_per_query
            );
        }
    }

    match (
        report.uring_throughput_ratio(),
        report.uring_syscall_ratio(),
    ) {
        (Some(tp), Some(sys)) => println!(
            "# uring vs epoll at largest cell (interleaved window; reported, not \
             gated): {tp:.2}x throughput, {sys:.2}x fewer I/O syscalls/query"
        ),
        _ => println!("# uring cells skipped: kernel has no usable io_uring"),
    }

    let json = report.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        die(&format!("writing {out}: {e}"));
    }
    let flat = report.flat_readers();
    println!(
        "# wrote {out}; flat readers {}",
        if flat { "pass" } else { "FAIL" }
    );
    if check && !flat {
        eprintln!("FAIL: flat_readers {flat}");
        std::process::exit(1);
    }
}
