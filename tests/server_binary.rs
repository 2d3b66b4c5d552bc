//! The `dido-server` binary itself: spawn it, find its ready line,
//! round-trip a query, and check the threads it runs. Covers the flag
//! vector the `benchmark/` package starts it with and the bare default.

#![cfg(target_os = "linux")]

use dido_kv::model::Query;
use dido_kv::net::KvClient;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// `benchmark/src/server.rs::SERVER_FLAGS` plus the arguments
/// `ServerProc::spawn` appends (that package is outside the workspace,
/// so the vector is spelled again here).
const BENCHMARK_ARGS: [&str; 21] = [
    "--batched",
    "--shards",
    "1",
    "--dispatchers",
    "1",
    "--readers",
    "1",
    "--sd-writers",
    "1",
    "--io-backend",
    "epoll",
    "--max-batch-delay-us",
    "200",
    "--latency-us",
    "1000",
    "--store-mb",
    "16",
    "--proto",
    "dido",
    "--addr",
    "127.0.0.1:0",
];

const DEFAULT_ARGS: [&str; 4] = ["--store-mb", "16", "--addr", "127.0.0.1:0"];

/// The thread names `benchmark/src/sys.rs` charges CPU time to.
const PLANE_THREADS: [&str; 4] = [
    "dido-reactor-0",
    "dido-dispatch-0",
    "dido-sd-0",
    "dido-controller",
];

/// A running `dido-server`; dropping it kills and reaps the process, so
/// a failed assertion leaves nothing behind.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start the binary with `args` and wait for its ready line.
fn start(args: &[&str]) -> (Server, SocketAddr) {
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_dido-server"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dido-server"),
    );
    let stdout = server.0.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    // Reads to EOF (the kill in `Drop`): closing the pipe early would
    // fail the server's later prints.
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            let addr = line
                .strip_prefix("dido-server listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse::<SocketAddr>().ok());
            if let Some(addr) = addr {
                let _ = tx.send(addr);
            }
        }
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("dido-server printed no ready line");
    (server, addr)
}

fn thread_names(pid: u32) -> Vec<String> {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("read /proc/<pid>/task")
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .collect()
}

#[test]
fn binary_serves_on_the_reactor_planes_with_benchmark_and_default_flags() {
    for args in [&BENCHMARK_ARGS[..], &DEFAULT_ARGS[..]] {
        let (server, addr) = start(args);
        let mut client = KvClient::connect(addr).expect("connect");
        let rs = client
            .request(&[Query::set("bin-key", "bin-value"), Query::get("bin-key")])
            .expect("round trip");
        assert_eq!(&rs[1].value[..], b"bin-value", "{args:?}");
        let names = thread_names(server.0.id());
        for want in PLANE_THREADS {
            assert!(
                names.iter().any(|n| n == want),
                "{args:?}: no thread named {want} in {names:?}"
            );
        }
    }
}
