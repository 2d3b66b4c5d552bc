//! `layers` — the traced run of one workload, as its own process so the
//! replay starts from a clean heap on the server's CPUs.
//!
//! ```text
//! layers --workload NAME --seed N --echo-seconds S --out DIR
//! ```
//!
//! Prints one `metric <name> <value>` line per group-B layer metric and
//! writes `DIR/trace.jsonl`.

use dido_benchmark::layers;
use dido_benchmark::spec::Workload;
use dido_benchmark::sys::CpuLayout;
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut echo_seconds = 5u64;
    let mut out = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Workload::by_name(&value),
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs a number"))
            }
            "--echo-seconds" => {
                echo_seconds = value
                    .parse()
                    .unwrap_or_else(|_| die("--echo-seconds needs a number"));
            }
            "--out" => out = PathBuf::from(value),
            _ => die(&format!("unknown flag {flag}")),
        }
    }
    let w = workload.unwrap_or_else(|| die("--workload must name a workload of the suite"));
    let layout = CpuLayout::detect().unwrap_or_else(|e| die(&e));
    match layers::run(w, seed, Duration::from_secs(echo_seconds), &layout, &out) {
        Ok(values) => {
            for (name, value) in &values {
                println!("metric {name} {value}");
            }
        }
        Err(e) => die(&e),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("layers: {msg}");
    std::process::exit(2);
}
