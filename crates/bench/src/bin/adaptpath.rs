//! Adaptive serving-core bench: the concurrent `ServingCore` behind a
//! real TCP server, under the Figure 20/21 shifting workload, at 1/2/4
//! dispatchers. Writes `BENCH_adaptpath.json`.
//!
//! ```text
//! adaptpath [--quick] [--seed N] [--frames N] [--connections N]
//!           [--repeats N] [--out PATH] [--check]
//! ```
//!
//! `--quick` runs the CI smoke configuration (few frames; numbers are
//! noisy and only prove the harness runs). `--check` exits non-zero if
//! the core never re-adapts after the workload shift.

use dido_bench::adaptpath::{run_adaptpath, AdaptpathOptions};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut opts = AdaptpathOptions::default();
    let mut out = String::from("BENCH_adaptpath.json");
    let mut check = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                let seed = opts.seed;
                opts = AdaptpathOptions::quick();
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
            "--connections" => {
                opts.connections = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--connections needs a number"));
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
                    "usage: adaptpath [--quick] [--seed N] [--frames N] \
                     [--connections N] [--repeats N] [--out PATH] [--check]"
                );
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }

    println!(
        "adaptpath: {} frames x {} queries/frame over {} connections, \
         shift every {} frames, {} repeat(s)",
        opts.target_frames,
        opts.frame_queries,
        opts.connections,
        opts.shift_every_frames,
        opts.repeats
    );
    let report = run_adaptpath(&opts, |cell| {
        println!(
            "  x{} dispatchers: {:>10.0} q/s  p50 {:>7.1}us  p99 {:>8.1}us  adaptions {}",
            cell.dispatchers, cell.throughput_qps, cell.p50_us, cell.p99_us, cell.adaptions
        );
    });
    if report.readapt.adapted {
        println!(
            "  re-adapted {:.2} ms after the shift",
            report.readapt.readapt_ms
        );
    } else {
        println!("  never re-adapted within the probe budget");
    }
    let readapt_ok = report.readapt_pass();
    println!("readapt {}", if readapt_ok { "ok" } else { "FAILED" });

    std::fs::write(&out, report.to_json()).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    println!("wrote {out}");

    if check && !readapt_ok {
        eprintln!("acceptance FAILED");
        std::process::exit(1);
    }
}
