//! `dido-server` — run a DIDO node as a TCP key-value service.
//!
//! ```text
//! dido-server [--addr HOST:PORT] [--store-mb N] [--latency-us N]
//!             [--shards N] [--dispatchers N] [--readers N]
//!             [--sd-writers N] [--trace FILE] [--stats-every N]
//!             [--max-batch-delay-us N]
//!             [--io-backend auto|uring|epoll]
//!             [--proto dido|memcached|resp] [--listen HOST:PORT]...
//! ```
//!
//! The node can serve several wire protocols at once, one per
//! listening socket. `--proto` selects the protocol for every
//! subsequent `--listen HOST:PORT` (repeatable, up to the reactor
//! listener budget); with no `--listen` the single `--addr` socket
//! speaks the current `--proto`. Example — native DIDO plus a
//! memcached-text port and a RESP port on one store:
//!
//! ```text
//! dido-server --listen 127.0.0.1:7878 \
//!             --proto memcached --listen 127.0.0.1:11211 \
//!             --proto resp --listen 127.0.0.1:6379
//! ```
//!
//! The serving core is the concurrent `ServingCore`: every
//! cross-connection dispatcher batch runs inline through the sharded
//! engine under the node's active pipeline configuration, which the
//! background controller re-plans off the hot path as the profiled
//! workload shifts. There is no global lock on the query path:
//! `--dispatchers N` dispatchers call the shared core concurrently, each
//! striping its profiling into its own lane, and `--shards N` partitions
//! the store by key hash. Connections are carried by a fixed pool of
//! `--readers N` reactor threads (default `min(4, cores)`) regardless of
//! how many clients connect — see `DESIGN.md` §13 — and responses leave
//! through `--sd-writers N` readiness-driven SD egress shards (default
//! `min(2, cores/2)`) — see `DESIGN.md` §14.
//! `--io-backend` picks the syscall backend for both planes: `uring`
//! runs them on batched io_uring submission, `epoll` on readiness
//! polling, and `auto` (the default) probes the kernel and falls back
//! to epoll when io_uring is unusable — see `DESIGN.md` §15.
//!
//! `--trace` tees accepted queries to a replayable trace file through a
//! bounded queue and a background writer (append-only, size-rotated,
//! flushed whenever the queue drains; recording never blocks the data
//! path — bursts beyond the queue are dropped and counted on the stats
//! block's `trace:` line). `--stats-every` prints a stats block every N
//! dispatcher batches: the core's counters (`core:`, `mem:`, batches
//! per configuration), the front-end's (`net:`, `reactors:`, `sd:`,
//! `io:`, `proto:`), the shard map and the node's pipeline — all
//! cumulative, read lock-free and formatted off the data path's locks.
//! Runs until killed.
//!
//! The shard topology can change live: any client can send a SET to the
//! admin key `__dido/resize` with the desired shard count as the value;
//! the request is handed to the background controller, which installs
//! the migrating shard map and drains donor shards between its other
//! steps while serving continues (see `DESIGN.md` §12).

use dido_kv::dido::{DidoOptions, ServingCore};
use dido_kv::net::{
    BatchConfig, DispatchMode, IoBackend, IoBackendChoice, KvServer, ProtocolKind, ServerStats,
    TraceWriter,
};
use dido_kv::pipeline::TestbedOptions;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

/// Cadence of the background adaptation controller.
const CONTROLLER_PERIOD: std::time::Duration = std::time::Duration::from_millis(5);
/// Trace rotation threshold: when the live file passes this size it is
/// renamed to `<path>.1` (replacing any previous rotation) and a fresh
/// file is started — the recording is bounded at ~2x this on disk.
const TRACE_ROTATE_BYTES: u64 = 64 << 20;
/// Bounded depth of the handler → trace-writer queue, in batches.
const TRACE_QUEUE_BATCHES: usize = 1024;

struct Args {
    addr: String,
    /// `(address, protocol)` per listening socket, in `--listen` order;
    /// empty means a single `--addr` listener speaking the protocol
    /// that was current when argument parsing finished.
    listeners: Vec<(String, ProtocolKind)>,
    /// Protocol stamped on `--addr` when no `--listen` is given (the
    /// last `--proto`, or DIDO by default).
    proto: ProtocolKind,
    store_bytes: usize,
    latency_us: f64,
    shards: usize,
    dispatchers: usize,
    /// Reactor (reader) threads; 0 = `min(4, cores)`.
    readers: usize,
    /// SD egress shard threads; 0 = `min(2, cores/2)`.
    sd_writers: usize,
    trace: Option<std::path::PathBuf>,
    stats_every: u64,
    max_batch_delay_us: u64,
    /// Syscall backend for the I/O planes (`auto` probes, falling back
    /// to epoll).
    io_backend: IoBackendChoice,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        listeners: Vec::new(),
        proto: ProtocolKind::Dido,
        store_bytes: 64 << 20,
        latency_us: 1_000.0,
        shards: 1,
        dispatchers: 1,
        readers: 0,
        sd_writers: 0,
        trace: None,
        stats_every: 0,
        max_batch_delay_us: 200,
        io_backend: IoBackendChoice::Auto,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        let parse_num = |name: &str, v: String| -> usize {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name} needs a number");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--proto" => {
                let v = value("--proto");
                args.proto = ProtocolKind::from_name(&v).unwrap_or_else(|| {
                    eprintln!("--proto must be dido, memcached, or resp (got {v})");
                    std::process::exit(2);
                });
            }
            "--listen" => {
                let addr = value("--listen");
                args.listeners.push((addr, args.proto));
            }
            "--store-mb" => {
                let mb = parse_num("--store-mb", value("--store-mb"));
                args.store_bytes = mb.checked_mul(1 << 20).unwrap_or_else(|| {
                    eprintln!("--store-mb {mb} does not fit a byte count");
                    std::process::exit(2);
                })
            }
            "--latency-us" => {
                let v = value("--latency-us");
                args.latency_us = match v.parse::<f64>() {
                    Ok(us) if us.is_finite() && us > 0.0 => us,
                    _ => {
                        eprintln!("--latency-us needs a finite number above 0 (got {v})");
                        std::process::exit(2);
                    }
                }
            }
            "--shards" => args.shards = parse_num("--shards", value("--shards")).max(1),
            "--dispatchers" => {
                args.dispatchers = parse_num("--dispatchers", value("--dispatchers")).max(1)
            }
            "--readers" => args.readers = parse_num("--readers", value("--readers")),
            "--sd-writers" => {
                args.sd_writers = parse_num("--sd-writers", value("--sd-writers"))
            }
            "--trace" => args.trace = Some(value("--trace").into()),
            "--stats-every" => {
                args.stats_every = parse_num("--stats-every", value("--stats-every")) as u64
            }
            // Accepted no-op: the frozen `benchmark/` package passes it.
            "--batched" => {}
            "--io-backend" => {
                args.io_backend = match value("--io-backend").as_str() {
                    "auto" => IoBackendChoice::Auto,
                    "uring" => IoBackendChoice::Uring,
                    "epoll" => IoBackendChoice::Epoll,
                    other => {
                        eprintln!("--io-backend must be auto, uring, or epoll (got {other})");
                        std::process::exit(2);
                    }
                }
            }
            "--max-batch-delay-us" => {
                args.max_batch_delay_us =
                    parse_num("--max-batch-delay-us", value("--max-batch-delay-us")) as u64
            }
            "--help" | "-h" => {
                println!(
                    "usage: dido-server [--addr HOST:PORT] [--store-mb N] \
                     [--latency-us N] [--shards N] [--dispatchers N] \
                     [--readers N] [--sd-writers N] [--trace FILE] \
                     [--stats-every N] \
                     [--max-batch-delay-us N] \
                     [--io-backend auto|uring|epoll] \
                     [--proto dido|memcached|resp] [--listen HOST:PORT]..."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    // The shard map holds at most MAX_SHARDS routes and asserts on more.
    let max_shards = dido_kv::pipeline::shardmap::MAX_SHARDS;
    if args.shards > max_shards {
        eprintln!("--shards {} is above the maximum {max_shards}", args.shards);
        std::process::exit(2);
    }
    // Every shard gets its own store, and the store asserts on a slice
    // it cannot carve one slot from.
    if args.store_bytes / args.shards < dido_kv::kvstore::MIN_STORE_BYTES {
        eprintln!(
            "--store-mb {} cannot be split into {} shard(s)",
            args.store_bytes >> 20,
            args.shards
        );
        std::process::exit(2);
    }
    args
}

/// Background trace recorder: the handler `try_send`s cloned batches
/// into a bounded queue (never blocking the data path; overflow is
/// counted, not waited out) and this thread appends them to a
/// size-rotated trace file.
struct TraceRecorder {
    tx: mpsc::SyncSender<Vec<dido_kv::model::Query>>,
    dropped: Arc<AtomicU64>,
}

fn spawn_trace_recorder(path: std::path::PathBuf) -> std::io::Result<TraceRecorder> {
    let (tx, rx) = mpsc::sync_channel::<Vec<dido_kv::model::Query>>(TRACE_QUEUE_BATCHES);
    let dropped = Arc::new(AtomicU64::new(0));
    let mut writer = TraceWriter::create(&path)
        .map_err(|e| std::io::Error::other(format!("trace create failed: {e}")))?;
    std::thread::Builder::new()
        .name("dido-trace".into())
        .spawn(move || {
            // The server only stops when it is killed, so the file is
            // flushed whenever the queue drains: what was recorded before
            // the last quiet moment is on disk.
            while let Ok(first) = rx.recv() {
                let queued = std::iter::from_fn(|| rx.try_recv().ok());
                for batch in std::iter::once(first).chain(queued) {
                    if let Err(e) = writer.append(&batch) {
                        eprintln!("trace write failed: {e}");
                        return;
                    }
                    if writer.bytes_written() >= TRACE_ROTATE_BYTES {
                        let _ = writer.flush();
                        let mut rotated = path.clone().into_os_string();
                        rotated.push(".1");
                        let _ = std::fs::rename(&path, std::path::Path::new(&rotated));
                        match TraceWriter::create(&path) {
                            Ok(w) => writer = w,
                            Err(e) => {
                                eprintln!("trace rotation failed: {e}");
                                return;
                            }
                        }
                    }
                }
                let _ = writer.flush();
            }
        })?;
    Ok(TraceRecorder { tx, dropped })
}

fn main() -> std::io::Result<()> {
    let args = parse_args();
    let core = Arc::new(ServingCore::new(
        args.shards,
        args.dispatchers.max(1),
        DidoOptions {
            testbed: TestbedOptions {
                store_bytes: args.store_bytes,
                ..TestbedOptions::default()
            },
            latency_budget_ns: args.latency_us * 1_000.0,
            ..DidoOptions::default()
        },
    ));
    // Held for the process lifetime; joined (never, here) on drop.
    let _controller = ServingCore::spawn_controller(Arc::clone(&core), CONTROLLER_PERIOD);

    let recorder = match args.trace.clone() {
        Some(path) => Some(spawn_trace_recorder(path)?),
        None => None,
    };
    let batches_seen = AtomicU64::new(0);

    // The handler closes over the server's stats to print them; the
    // server doesn't exist until `start_multi` returns, so hand them
    // over via a OnceLock.
    let net_stats: Arc<OnceLock<Arc<ServerStats>>> = Arc::new(OnceLock::new());

    let handler_core = Arc::clone(&core);
    let handler_net = Arc::clone(&net_stats);
    let stats_every = args.stats_every;
    let mode = DispatchMode::Batched(BatchConfig {
        max_batch_delay: std::time::Duration::from_micros(args.max_batch_delay_us),
        dispatchers: args.dispatchers,
        readers: args.readers,
        sd_writers: args.sd_writers,
        io_backend: args.io_backend,
        ..BatchConfig::default()
    });
    let listeners: Vec<(String, ProtocolKind)> = if args.listeners.is_empty() {
        vec![(args.addr.clone(), args.proto)]
    } else {
        args.listeners.clone()
    };
    let listener_refs: Vec<(&str, ProtocolKind)> =
        listeners.iter().map(|(a, p)| (a.as_str(), *p)).collect();
    let server = KvServer::start_multi(&listener_refs, mode, move |lane, queries| {
        if let Some(rec) = &recorder {
            // Never block the data path on trace I/O: on queue overflow
            // the batch is dropped from the recording and counted.
            if rec.tx.try_send(queries.clone()).is_err() {
                rec.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Admin trigger: a SET to `__dido/resize` asks for a live shard
        // resize; the request is handed to the background controller so
        // no dispatcher ever blocks on the resharding locks. The
        // first-byte guard keeps the scan free for ordinary keys.
        for q in &queries {
            if q.op == dido_kv::model::QueryOp::Set
                && q.key.first() == Some(&b'_')
                && &q.key[..] == b"__dido/resize"
            {
                if let Ok(n) = std::str::from_utf8(&q.value)
                    .unwrap_or("")
                    .trim()
                    .parse::<usize>()
                {
                    handler_core.request_resize(n);
                }
            }
        }
        let responses = handler_core.process_batch(lane, queries);
        // The batch count exists for the stats cadence alone: without
        // `--stats-every` the dispatchers share no written cache line.
        if stats_every > 0 {
            let n = batches_seen.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(stats_every) {
                // Both halves are cumulative snapshots of lock-free
                // cells; formatting and the (possibly slow) stderr write
                // happen on this dispatcher only.
                let metrics = handler_core.metrics();
                let net = handler_net.get().map(|s| s.snapshot()).unwrap_or_default();
                eprint!("--- after {n} batches ---\n{metrics}{net}");
                let (state, epoch) = handler_core.engine().shard_map().load();
                eprintln!("shard map: {state:?} (epoch {epoch})");
                eprintln!("pipeline: {}", handler_core.shard_config(0).0);
                if let Some(rec) = &recorder {
                    let dropped = rec.dropped.load(Ordering::Relaxed);
                    eprintln!("trace: dropped_batches={dropped}");
                }
            }
        }
        responses
    })?;
    let _ = net_stats.set(server.stats_handle());
    for (bound, (_, proto)) in server.addrs().iter().zip(&listeners) {
        println!("dido-server listening on {bound} ({})", proto.as_str());
    }
    println!(
        "store {} MB across {} shard(s), latency budget {:.0} us, \
         dispatch x{}, {} reader(s), {} sd writer(s), io backend {}{}",
        args.store_bytes >> 20,
        args.shards,
        args.latency_us,
        args.dispatchers,
        server.stats().reactor_threads.get(),
        server.stats().sd_writer_threads.get(),
        IoBackend::name_of(server.stats().io_backend.get()),
        if args.trace.is_some() {
            ", tracing on"
        } else {
            ""
        }
    );

    // Serve until the process is killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
