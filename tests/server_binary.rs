//! The `dido-server` binary itself: spawn it, find its ready line,
//! round-trip a query, and check the threads it runs. Covers the flag
//! vector the `benchmark/` package starts it with, the bare default,
//! the `--stats-every` block on stderr, the `--trace` recording, an idle
//! server's resident set, an index sized by its keys rather than its
//! store, the arena that overwriting the same keys
//! carves, the slot a K128 object takes, the refusal of a store size or latency budget
//! no node can serve, the README's flag list against `--help`, and what
//! the binary links: no simulator executor.

#![cfg(target_os = "linux")]

use dido_kv::model::{Query, ResponseStatus};
use dido_kv::net::{read_trace, KvClient};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

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

/// A running `dido-server` and its stderr, line by line; dropping it
/// kills and reaps the process, so a failed assertion leaves nothing
/// behind.
struct Server(Child, mpsc::Receiver<String>);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start the binary with `args` and wait for one ready line per
/// listener.
fn start(args: &[&str], listeners: usize) -> (Server, Vec<SocketAddr>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dido-server"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dido-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let stderr = child.stderr.take().expect("piped stderr");
    let (err_tx, err_rx) = mpsc::channel();
    let server = Server(child, err_rx);
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = err_tx.send(line);
        }
    });
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
    let addrs = (0..listeners)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(20))
                .expect("dido-server printed no ready line")
        })
        .collect();
    (server, addrs)
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
        let (server, addrs) = start(args, 1);
        let mut client = KvClient::connect(addrs[0]).expect("connect");
        let rs = client
            .request(&[Query::set("bin-key", "bin-value"), Query::get("bin-key")])
            .expect("round trip");
        assert_eq!(&rs[1].value[..], b"bin-value", "{args:?}");
        // A thread names itself once it first runs; on a busy host the
        // controller may not have been scheduled yet.
        let deadline = Instant::now() + Duration::from_secs(5);
        let names = loop {
            let names = thread_names(server.0.id());
            let all = PLANE_THREADS
                .iter()
                .all(|want| names.iter().any(|n| n == want));
            if all || Instant::now() > deadline {
                break names;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        for want in PLANE_THREADS {
            assert!(
                names.iter().any(|n| n == want),
                "{args:?}: no thread named {want} in {names:?}"
            );
        }
    }
}

/// Flag values no node can serve are refused at start-up: exit 2, the
/// flag named on stderr. A server that starts instead is killed at the
/// deadline and fails the row.
#[test]
fn unservable_store_sizes_and_latency_budgets_exit_2_naming_the_flag() {
    for (args, message) in [
        (&["--store-mb", "0"][..], "cannot be split"),
        (&["--store-mb", "1", "--shards", "40000"][..], "cannot be split"),
        (&["--store-mb", "8", "--shards", "70000"][..], "--shards"),
        (&["--store-mb", "17592186044417"][..], "--store-mb"),
        (&["--latency-us", "nan"][..], "--latency-us"),
        (&["--latency-us", "inf"][..], "--latency-us"),
        (&["--latency-us", "0"][..], "--latency-us"),
        (&["--latency-us", "-5"][..], "--latency-us"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dido-server"))
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn dido-server");
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait for dido-server") {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{args:?}: still running, so it started instead of refusing");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut stderr = String::new();
        let _ = child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr);
        assert_eq!(status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

/// The scripted resize trigger is gone (the `__dido/resize` admin key
/// is the way to resize a running node): its flag is now unknown.
#[test]
fn resize_after_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_dido-server"))
        .args(["--resize-after", "1:2", "--addr", "127.0.0.1:0"])
        .output()
        .expect("spawn dido-server");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --resize-after"), "{stderr}");
}

/// Package names in `cargo tree -e normal -p package`: what `package`
/// links outside tests.
fn linked_by(package: &str) -> BTreeSet<String> {
    let out = Command::new(env!("CARGO"))
        .args(["tree", "--offline", "-e", "normal", "--prefix", "none", "-p", package])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run cargo tree");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let tree = String::from_utf8(out.stdout).expect("cargo tree prints UTF-8");
    let names = tree.lines().filter_map(|line| line.split(' ').next());
    names.map(str::to_owned).collect()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &std::path::Path, into: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, into);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            into.push(path);
        }
    }
}

/// The reproduction/serving line is the crate graph: the server's
/// package links neither the reproduction crate nor a simulator
/// executor, the engine crate links no simulator, sockets or workload
/// generator, and no serving crate's source spells a simulator type.
#[test]
fn the_server_links_no_simulator() {
    let server = linked_by("dido-kv");
    assert!(server.contains("dido-pipeline"), "{server:?}");
    for reproduction in ["dido-bench", "dido-megakv"] {
        assert!(!server.contains(reproduction), "dido-kv links {reproduction}");
    }
    let engine = linked_by("dido-pipeline");
    for above in ["dido-apu-sim", "dido-net", "dido-workload"] {
        assert!(!engine.contains(above), "dido-pipeline links {above}");
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("src"), &mut sources);
    for serving in ["model", "hashtable", "kvstore", "net", "pipeline", "cost-model", "core"] {
        rust_sources(&root.join("crates").join(serving).join("src"), &mut sources);
    }
    for path in sources {
        let text = std::fs::read_to_string(&path).expect("read source");
        for simulator in ["SimExecutor", "SimMachine", "LruFilter"] {
            assert!(!text.contains(simulator), "{} spells {simulator}", path.display());
        }
    }
}

/// Every `--flag` spelled in `text`.
fn flags(text: &str) -> BTreeSet<&str> {
    let is_flag_char = |c: char| c.is_ascii_lowercase() || c == '-';
    text.split(|c: char| !is_flag_char(c))
        .filter(|word| {
            word.strip_prefix("--")
                .is_some_and(|name| name.starts_with(|c: char| c.is_ascii_lowercase()))
        })
        .collect()
}

/// README.md and `dido-server --help` name the same flags: every flag
/// the usage line prints appears in the README, and the README's server
/// section (lines about `dido-cli` and cargo's own flags aside) names
/// no flag the usage line does not print.
#[test]
fn readme_and_help_name_the_same_server_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_dido-server"))
        .arg("--help")
        .output()
        .expect("spawn dido-server");
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).expect("usage is UTF-8");
    let helped = flags(&help);
    assert!(helped.contains("--store-mb"), "no flags found in: {help}");

    let readme = include_str!("../README.md");
    let named = flags(readme);
    for flag in &helped {
        assert!(named.contains(flag), "README.md never names {flag}");
    }

    let (_, rest) = readme
        .split_once("Or run it as a standalone service")
        .expect("README.md has a server section");
    let (section, _) = rest
        .split_once("\nLibrary use:")
        .expect("the server section ends at the library example");
    for line in section.lines().filter(|line| !line.contains("dido-cli")) {
        for flag in flags(line) {
            assert!(
                helped.contains(flag) || ["--release", "--bin"].contains(&flag),
                "README.md's server section names {flag}, which `dido-server --help` does not print"
            );
        }
    }
}

/// The value of `name=` in a stats block.
fn metric<'a>(block: &'a str, name: &str) -> &'a str {
    let at = block
        .find(&format!(" {name}="))
        .unwrap_or_else(|| panic!("no {name}= in:\n{block}"));
    let rest = &block[at + name.len() + 2..];
    rest.split([' ', '\n']).next().expect("a value follows")
}

/// The first stats block (`--stats-every 1`) that has counted `queries`
/// queries. The handler prints a batch's block, which ends with its
/// `pipeline:` line, before the batch's reply leaves, so once the client
/// has every reply that block is already in the pipe.
fn block_counting(server: &Server, queries: usize) -> String {
    let mut block = String::new();
    loop {
        let line = server
            .1
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("no block counted {queries} queries; last:\n{block}"));
        block.push_str(&line);
        block.push('\n');
        if line.starts_with("pipeline: ") {
            if block.contains(&format!(" queries={queries} ")) {
                return block;
            }
            block.clear();
        }
    }
}

/// `--stats-every 1` on a two-shard, two-dispatcher node, driven one
/// request at a time over dido-binary and memcached-text: every batch
/// prints one block, and the last one carries the cumulative front-end
/// counters, the core's, a single adaptions figure and the node's one
/// pipeline line.
#[test]
fn stats_block_carries_cumulative_net_and_core_counters() {
    let args = "--stats-every 1 --shards 2 --dispatchers 2 --store-mb 16 \
                --listen 127.0.0.1:0 --proto memcached --listen 127.0.0.1:0";
    let args: Vec<&str> = args.split_whitespace().collect();
    let (server, addrs) = start(&args, 2);
    let mut dido = KvClient::connect(addrs[0]).expect("connect dido");
    let rs = dido
        .request(&[Query::set("stat-key", "v1"), Query::get("stat-key")])
        .expect("dido round trip");
    assert_eq!(&rs[1].value[..], b"v1");
    dido.request(&[Query::get("stat-key")]).expect("dido get");

    let mut mc = TcpStream::connect(addrs[1]).expect("connect memcached");
    mc.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut converse = |request: &[u8], until: &[u8]| {
        mc.write_all(request).expect("memcached write");
        let mut reply = Vec::new();
        let mut byte = [0u8; 1];
        while !reply.ends_with(until) {
            mc.read_exact(&mut byte).expect("memcached reply");
            reply.push(byte[0]);
        }
        reply
    };
    let stored = converse(b"set mc-key 0 0 2\r\nhi\r\n", b"\r\n");
    assert_eq!(stored, b"STORED\r\n");
    let reply = converse(b"get mc-key stat-key\r\n", b"END\r\n");
    assert!(reply.starts_with(b"VALUE mc-key 0 2\r\nhi\r\n"));
    dido.request(&[Query::get("mc-key")]).expect("dido get");

    // The handler prints a batch's block before its reply leaves, so
    // the fifth block is already in the pipe. 5 frames, 7 queries.
    let mut blocks: Vec<String> = Vec::new();
    while blocks.len() < 5 || !blocks[4].contains("\npipeline: ") {
        let line = server
            .1
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("stats blocks stopped short: {blocks:#?}"));
        if line.starts_with("--- after ") {
            blocks.push(String::new());
        }
        if let Some(block) = blocks.last_mut() {
            block.push_str(&line);
            block.push('\n');
        }
    }
    let (first, last) = (&blocks[0], &blocks[4]);
    let head = "--- after 5 batches ---\ncore: batches=5 queries=7 ";
    assert!(last.starts_with(head), "{last}");
    // Cumulative, not per-interval: the first block saw one frame.
    assert_eq!(metric(first, "frames"), "1", "{first}");
    for (name, want) in [
        ("frames", "5"),
        ("dispatches", "5"),
        ("dispatched_frames", "5"),
        ("connections", "2"),
        ("proto_queries", "4/3/0"),
    ] {
        assert_eq!(metric(last, name), want, "{name} in:\n{last}");
    }
    assert!(!first.contains("proto("), "all-DIDO so far: {first}");
    let lines = "net: |reactors: |sd: |io: |proto(dido/memcached/resp): |shard map: |pipeline: ";
    for line in lines.split('|') {
        let found = last.lines().filter(|l| l.starts_with(line)).count();
        assert_eq!(found, 1, "want exactly one {line:?} line in:\n{last}");
    }
    assert_eq!(last.matches("adaptions").count(), 1, "{last}");
    assert_eq!(last.matches("pipeline: ").count(), 1, "{last}");
    // Two shards whose indexes are still at their starting size, 256
    // buckets of 32 B apiece, whatever the store.
    assert_eq!(metric(last, "index_bytes"), (2 * 256 * 32).to_string(), "{last}");
    assert_eq!(metric(last, "index_grows"), "0", "{last}");
    assert_ne!(metric(last, "store_carved_bytes"), "0", "{last}");
}

/// The resident set of a server that has served nothing: the slab arena
/// and the index are zeroed by the allocator, not written at start-up,
/// so neither is resident until a request touches it.
#[test]
fn an_idle_server_holds_little_of_its_store_resident() {
    let store_mb = 256;
    let store = store_mb.to_string();
    let (server, _) = start(&["--store-mb", &store, "--addr", "127.0.0.1:0"], 1);
    let rss_kb = vm_rss_kb(&server);
    assert!(
        rss_kb < (store_mb << 10) / 4,
        "idle VmRSS {rss_kb} kB is not below a quarter of a {store_mb} MB store"
    );
}

/// VmRSS of `server`, in kB.
fn vm_rss_kb(server: &Server) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{}/status", server.0.id()))
        .expect("read /proc/<pid>/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no VmRSS in:\n{status}"))
}

/// A SET with a TTL costs its object and nothing more: a million SETs
/// with a one-hour TTL over 4 000 keys into `--store-mb 4` leave VmRSS
/// within the idle server plus the store, the index and a few MB. A
/// 16-byte record per TTL'd SET kept until its deadline would add
/// 16 MB, four times the store.
#[test]
fn long_ttl_sets_hold_no_memory_beyond_their_objects() {
    const KEYS: usize = 4_000;
    const SETS: usize = 1_000_000;
    const STORE_MB: usize = 4;
    const SLACK_MB: usize = 6;
    let store = STORE_MB.to_string();
    let args = ["--store-mb", &store, "--stats-every", "1", "--addr", "127.0.0.1:0"];
    let (server, addrs) = start(&args, 1);
    let idle_kb = vm_rss_kb(&server);
    let mut client = KvClient::connect(addrs[0]).expect("connect");
    for round in 0..SETS / KEYS {
        for first in (0..KEYS).step_by(1_000) {
            let sets: Vec<Query> = (first..first + 1_000)
                .map(|k| Query::set_with(format!("ttl-key-{k:08}"), format!("{round:08}"), 3_600, 0))
                .collect();
            let rs = client.request(&sets).expect("round trip");
            assert!(rs.iter().all(|r| r.status == ResponseStatus::Ok));
        }
    }
    let last = block_counting(&server, SETS);
    let rss_kb = vm_rss_kb(&server);
    let index_kb = metric(&last, "index_bytes").parse::<usize>().expect("a byte count") >> 10;
    let bound_kb = idle_kb + ((STORE_MB + SLACK_MB) << 10) + index_kb;
    assert!(
        rss_kb < bound_kb,
        "{SETS} TTL'd SETs: VmRSS {rss_kb} kB, idle {idle_kb} kB, bound {bound_kb} kB:\n{last}"
    );
}

/// The index grows with the keys, not with the store: 100 000 distinct
/// K16 keys into `--store-mb 256` leave a 2 MiB index, where one sized
/// for the store (every object in the 32 B class) would be 128 MiB.
#[test]
fn an_index_grows_with_its_keys_not_its_store() {
    const KEYS: usize = 100_000;
    const PER_REQUEST: usize = 1_000;
    let args = ["--store-mb", "256", "--stats-every", "1", "--addr", "127.0.0.1:0"];
    let (server, addrs) = start(&args, 1);
    let mut client = KvClient::connect(addrs[0]).expect("connect");
    for first in (0..KEYS).step_by(PER_REQUEST) {
        let sets: Vec<Query> = (first..first + PER_REQUEST)
            .map(|k| Query::set(format!("grow-key-{k:07}"), "v"))
            .collect();
        let rs = client.request(&sets).expect("round trip");
        assert!(rs.iter().all(|r| r.status == ResponseStatus::Ok));
    }
    let last = block_counting(&server, KEYS);
    let index_bytes: usize = metric(&last, "index_bytes").parse().expect("a byte count");
    assert!(index_bytes <= 2 << 20, "{KEYS} keys, {index_bytes} index bytes:\n{last}");
    let grows: u64 = metric(&last, "index_grows").parse().expect("a count");
    assert!(grows > 0, "{last}");
}

/// Overwrites free the versions they replace: SET the same 1 000 keys
/// until more SETs were sent than a 16 MB store has slots in their
/// 112-byte class, and the arena carved stays at the live keys plus one
/// batch's worth — not the whole class, as when each replaced version
/// waited for CLOCK.
#[test]
fn overwriting_the_same_keys_carves_room_for_them_and_one_batch() {
    const KEYS: usize = 1_000;
    const CLASS_BYTES: usize = 112;
    const CLASS_SLOTS: usize = (16 << 20) / CLASS_BYTES;
    const MAX_BATCH: usize = 4_096;
    let args = ["--store-mb", "16", "--stats-every", "1", "--addr", "127.0.0.1:0"];
    let (server, addrs) = start(&args, 1);
    let mut client = KvClient::connect(addrs[0]).expect("connect");
    let mut sent = 0;
    while sent <= CLASS_SLOTS {
        // 24 B header + 16 B key + 64 B value: the 112-byte class.
        let sets: Vec<Query> = (0..KEYS)
            .map(|k| Query::set(format!("overwrite-{k:06}"), format!("{sent:064}")))
            .collect();
        let rs = client.request(&sets).expect("round trip");
        assert!(rs.iter().all(|r| r.status == ResponseStatus::Ok));
        sent += KEYS;
    }
    let last = block_counting(&server, sent);
    let carved: usize = metric(&last, "store_carved_bytes").parse().expect("a byte count");
    assert!(
        carved <= (KEYS + MAX_BATCH) * CLASS_BYTES,
        "{sent} SETs of {KEYS} keys carved {carved} bytes:\n{last}"
    );
    assert_eq!(metric(&last, "replaced_freed"), (sent - KEYS).to_string(), "{last}");
}

/// The store steps its slot sizes four times per doubling: a K128
/// object (24 B header + 128 B key + 1 KB value = 1 176 B) takes a
/// 1 280-byte slot, where a power-of-two ladder would give it 2 048.
#[test]
fn a_k128_object_takes_a_1280_byte_slot() {
    const KEYS: usize = 1_000;
    const PER_REQUEST: usize = 100;
    let args = ["--store-mb", "16", "--stats-every", "1", "--addr", "127.0.0.1:0"];
    let (server, addrs) = start(&args, 1);
    let mut client = KvClient::connect(addrs[0]).expect("connect");
    for first in (0..KEYS).step_by(PER_REQUEST) {
        let sets: Vec<Query> = (first..first + PER_REQUEST)
            .map(|k| Query::set(format!("{k:0128}"), vec![b'v'; 1024]))
            .collect();
        let rs = client.request(&sets).expect("round trip");
        assert!(rs.iter().all(|r| r.status == ResponseStatus::Ok));
    }
    let last = block_counting(&server, KEYS);
    assert_eq!(metric(&last, "store_carved_bytes"), (KEYS * 1280).to_string(), "{last}");
    let class = format!("class     1280 B: {KEYS} live / 0 free slots");
    assert!(last.lines().any(|l| l.trim_start().starts_with(&class)), "{last}");
}

/// `--trace` under `--stats-every 1`: each block reports the batches a
/// full recording queue dropped, and the writer flushes whenever its
/// queue drains, so every SET the server answered is in the file while
/// it still runs — the only way it stops is a kill.
#[test]
fn a_traced_server_has_every_answered_set_on_disk_before_it_is_killed() {
    const N: usize = 5;
    let path = std::env::temp_dir().join(format!("dido-server-trace-{}", std::process::id()));
    let trace = path.to_str().expect("UTF-8 temp path");
    let args = ["--trace", trace, "--stats-every", "1", "--store-mb", "16", "--addr", "127.0.0.1:0"];
    let (server, addrs) = start(&args, 1);
    let mut client = KvClient::connect(addrs[0]).expect("connect");
    let sets: Vec<Query> = (0..N).map(|i| Query::set(format!("tr-{i}"), "v")).collect();
    for q in &sets {
        client.request(std::slice::from_ref(q)).expect("round trip");
    }
    // The handler prints a batch's block before its reply leaves.
    let mut trace_lines = Vec::new();
    while trace_lines.len() < N {
        let line = server
            .1
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("stats blocks stopped short: {trace_lines:?}"));
        if line.starts_with("trace: ") {
            trace_lines.push(line);
        }
    }
    assert_eq!(trace_lines[N - 1], "trace: dropped_batches=0");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let recorded = read_trace(&path);
        if recorded.as_ref().is_ok_and(|r| *r == sets) {
            break;
        }
        assert!(Instant::now() < deadline, "trace still {recorded:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(server);
    let _ = std::fs::remove_file(&path);
}
