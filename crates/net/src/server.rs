//! A real TCP front-end for the key-value store.
//!
//! Query frames (the same wire format as [`crate::parse_frame`]) travel
//! over TCP with a 4-byte little-endian length prefix, and each request
//! frame is answered by exactly one response frame, in order.
//!
//! The data path is the paper's RV/SD topology mapped onto TCP. A fixed
//! pool of reactor threads (see [`crate::reactor`]) does framing *only*
//! (the `RV` task): each reactor runs a readiness loop over its share of
//! the connections, burst-reads every ready socket nonblockingly, and
//! pushes `(conn, seq, frame)` into a shared [`FrameRing`]; dispatcher
//! threads drain the ring across *all* connections, decode one combined
//! wavefront-aligned query batch, run the engine **once**, and scatter
//! encoded responses into per-SD-shard run batches. A sharded egress
//! plane (the `SD` task — see [`crate::sd`]) restores per-connection
//! order by sequence number and coalesces every ready response into
//! vectored writes, with write-side readiness, pooled response buffers,
//! and slow-consumer backpressure. An adaptive drain window trades batch
//! size against latency exactly like the paper's Figures 9–10: dispatch
//! immediately once at least one wavefront of queries is pending, else
//! wait up to [`BatchConfig::max_batch_delay`] for more frames.

use crate::codec::{
    decode_request, encode_reply_into, request_query_estimate, ProtocolKind, RequestMeta,
    PROTOCOL_KINDS,
};
use crate::driver::{
    resolve_backend, EpollDriver, IoBackend, IoBackendChoice, IoDriver, UringDriver,
};
use crate::nic::FrameRing;
use crate::protocol::ProtocolError;
use crate::sd::{ResponseRun, RunBatch, SdPlane};
use crate::stats::ServerStats;
use bytes::{Bytes, BytesMut};
use dido_model::{Query, Response, SharedClock, SystemClock, WAVEFRONT_WIDTH};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum accepted frame size (prevents a bad client from making the
/// server allocate unboundedly).
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// How long an idle dispatcher sleeps between doorbell checks.
const IDLE_WAIT: Duration = Duration::from_millis(5);

/// Bytes one socket read may pull into the frame reader's buffer. Large
/// enough that a pipelined client's whole burst of small frames arrives
/// in one syscall.
pub(crate) const READ_CHUNK: usize = 16 << 10;

/// Largest recv window a saturated connection grows to (see
/// [`FrameReader::begin_recv`]) — the most one connection delivers per
/// completion before its siblings get a turn.
const MAX_RECV_WINDOW: usize = 8 * READ_CHUNK;

/// Longest a [`KvClient`] send parks waiting for a stalled socket to
/// become writable again before failing with `TimedOut`. (The server's
/// SD egress plane has its own per-connection deadline,
/// [`BatchConfig::sd_stall_timeout`].)
const WRITE_STALL: Duration = Duration::from_secs(5);

fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Most frames one dispatch may aggregate.
const FRAME_BUDGET: usize = 512;

/// Quiescence close: while below a wavefront, if no new frame lands
/// within this long the dispatcher ships what it has instead of waiting
/// out the whole drain window. A lightly loaded link pays (at most) one
/// quiet beat of extra latency, not `max_batch_delay`; a busy link keeps
/// refilling the batch and never trips it.
const QUIET_DELAY: Duration = Duration::from_micros(30);

/// Knobs of the data path. A dispatcher ships immediately once one probe
/// wavefront ([`WAVEFRONT_WIDTH`] queries, the vectorized hot path's
/// unit) is pending.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Shared RX ring slots; a full ring drops frames (counted in
    /// [`ServerStats::dropped_frames`]) like real NIC hardware.
    pub ring_slots: usize,
    /// Longest a dispatcher waits below a wavefront before dispatching
    /// what it has — the batch-size/latency knob of Figures 9–10.
    pub max_batch_delay: Duration,
    /// Dispatcher thread count. Per-connection response order is kept
    /// by sequence numbers, so >1 is safe, but on few cores one is
    /// usually right.
    pub dispatchers: usize,
    /// Reactor (framing reader) thread count; `0` means
    /// `min(4, available cores)`. Connections are spread across the
    /// pool round-robin at accept time, so the thread count stays fixed
    /// no matter how many connections are open.
    pub readers: usize,
    /// SD egress shard count; `0` means `min(2, cores/2)` (floor one).
    /// Connections map to shards by connection id, and each shard owns
    /// its connections' write halves, reorder buffers, and readiness
    /// loop.
    pub sd_writers: usize,
    /// Longest a connection may stay unwritable (parked on WRITABLE
    /// readiness with no progress) before the SD plane retires it;
    /// every other connection on the shard keeps being serviced.
    pub sd_stall_timeout: Duration,
    /// Per-connection pending-bytes high-water mark: crossing it pauses
    /// the connection's READ interest in its reactor (resumed at half
    /// this value), bounding memory under un-drained clients.
    pub sd_hiwater_bytes: usize,
    /// Shrink each accepted socket's kernel send buffer (`SO_SNDBUF`)
    /// to this many bytes. `None` keeps the kernel default. Tests and
    /// benches use small values to make write-side backpressure
    /// deterministic.
    pub sndbuf_bytes: Option<usize>,
    /// Which syscall backend drives the reactor RX and SD egress
    /// planes (see [`IoBackendChoice`]).
    pub io_backend: IoBackendChoice,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            ring_slots: 4096,
            max_batch_delay: Duration::from_micros(200),
            dispatchers: 1,
            readers: 0,
            sd_writers: 0,
            sd_stall_timeout: Duration::from_secs(5),
            sd_hiwater_bytes: 1 << 20,
            sndbuf_bytes: None,
            io_backend: IoBackendChoice::default(),
        }
    }
}

/// How [`KvServer::start_multi`] is handed its [`BatchConfig`].
// One variant: kept only because the frozen `benchmark/` package spells
// `DispatchMode::Batched(cfg)`; the next benchmark PR removes it.
#[derive(Debug, Clone, Copy)]
pub enum DispatchMode {
    /// The reactor → RX ring → dispatcher → SD plane topology.
    Batched(BatchConfig),
}

/// A carved request tagged with its connection, per-connection sequence
/// number, and the protocol its listener speaks, as carried by the
/// shared RX ring. `frame` is the request payload the connection's
/// codec carved: the body of a length-prefixed frame for
/// [`ProtocolKind::Dido`], the full request text (terminators included)
/// for the line protocols.
#[derive(Debug)]
pub(crate) struct TaggedFrame {
    pub(crate) conn: u64,
    pub(crate) seq: u64,
    pub(crate) proto: ProtocolKind,
    pub(crate) frame: Bytes,
}

/// Wakes dispatchers when frames arrive. The generation counter closes
/// the missed-notify race: observe before draining, and `wait_past`
/// returns immediately if anything rang in between.
#[derive(Default)]
pub(crate) struct Doorbell {
    gen: Mutex<u64>,
    cv: Condvar,
}

impl Doorbell {
    pub(crate) fn ring(&self) {
        *self.gen.lock() += 1;
        self.cv.notify_all();
    }

    fn observe(&self) -> u64 {
        *self.gen.lock()
    }

    fn wait_past(&self, seen: u64, timeout: Duration) {
        let mut gen = self.gen.lock();
        if *gen == seen {
            let _ = self.cv.wait_for(&mut gen, timeout);
        }
    }
}

/// A running key-value TCP server.
///
/// The `handler` receives a *lane* plus each decoded query batch and
/// returns the responses in order — typically a closure over a
/// `dido_pipeline::KvEngine` or a `dido::ServingCore`. One handler call
/// covers queries from *many* connections, so cross-connection traffic
/// shares the vectorized wavefront path, and the lane is the calling
/// dispatcher's index (`0..dispatchers`) — concurrent serving cores use
/// it to stripe their profiling accumulators per dispatcher.
///
/// The thread handles are held so [`KvServer::shutdown`] can join every
/// thread the server spawned — a shutdown that returns proves no
/// reactor, dispatcher, or SD thread is still running.
pub struct KvServer {
    addrs: Vec<SocketAddr>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    doorbell: Arc<Doorbell>,
    reactors: crate::reactor::ReactorPool,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
    sd: Vec<std::thread::JoinHandle<()>>,
}

impl KvServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) and serve the
    /// dido-binary protocol with the default [`BatchConfig`].
    pub fn start<F>(addr: &str, handler: F) -> std::io::Result<KvServer>
    where
        F: Fn(usize, Vec<Query>) -> Vec<Response> + Send + Sync + 'static,
    {
        KvServer::start_batched(addr, BatchConfig::default(), handler)
    }

    /// [`KvServer::start`] with an explicit [`BatchConfig`].
    pub fn start_batched<F>(addr: &str, cfg: BatchConfig, handler: F) -> std::io::Result<KvServer>
    where
        F: Fn(usize, Vec<Query>) -> Vec<Response> + Send + Sync + 'static,
    {
        KvServer::start_multi(
            &[(addr, ProtocolKind::Dido)],
            DispatchMode::Batched(cfg),
            handler,
        )
    }

    /// Bind one listener per `(addr, protocol)` pair and serve them all
    /// over one shared data path: every connection is stamped with its
    /// listener's [`ProtocolKind`] at accept time, requests from all
    /// protocols aggregate through the same RX ring and dispatcher
    /// batches, and one handler answers the decoded queries regardless
    /// of which front door they came through.
    ///
    /// At most 15 listeners (the reactor's listener token space); at
    /// least one is required.
    pub fn start_multi<F>(
        listeners: &[(&str, ProtocolKind)],
        mode: DispatchMode,
        handler: F,
    ) -> std::io::Result<KvServer>
    where
        F: Fn(usize, Vec<Query>) -> Vec<Response> + Send + Sync + 'static,
    {
        KvServer::start_multi_with_clock(listeners, mode, Arc::new(SystemClock), handler)
    }

    /// [`KvServer::start_multi`] with an explicit clock. The clock
    /// anchors memcached's absolute-exptime conversion at decode time;
    /// pass the same clock the engine expires against so wire TTLs and
    /// store deadlines agree (tests use a `MockClock` to cross expiry
    /// boundaries without sleeping).
    pub fn start_multi_with_clock<F>(
        listeners: &[(&str, ProtocolKind)],
        mode: DispatchMode,
        clock: SharedClock,
        handler: F,
    ) -> std::io::Result<KvServer>
    where
        F: Fn(usize, Vec<Query>) -> Vec<Response> + Send + Sync + 'static,
    {
        let DispatchMode::Batched(cfg) = mode;
        if listeners.is_empty() || listeners.len() > crate::reactor::MAX_LISTENERS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "listener count must be 1..={} (got {})",
                    crate::reactor::MAX_LISTENERS,
                    listeners.len()
                ),
            ));
        }
        let mut bound = Vec::with_capacity(listeners.len());
        let mut addrs = Vec::with_capacity(listeners.len());
        for &(addr, proto) in listeners {
            let listener = TcpListener::bind(addr)?;
            // std binds with a backlog of 128, which a connection-scale
            // fleet opening all at once overflows (the kernel silently
            // drops handshake ACKs; surplus clients wedge half-open
            // until they transmit). Re-listen with a deeper queue,
            // capped by `net.core.somaxconn`; best-effort on exotic
            // platforms.
            let _ = mio::set_backlog(listener.as_raw_fd(), 4096);
            addrs.push(listener.local_addr()?);
            bound.push((listener, proto));
        }
        spawn_topology(addrs, bound, cfg, clock, Arc::new(handler))
    }

    /// The first listener's bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// Every listener's bound address, in [`KvServer::start_multi`]
    /// order.
    #[must_use]
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Server statistics.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// A shared handle to the server statistics, for observers that
    /// outlive borrows of the server (e.g. printing snapshots from the
    /// request handler).
    #[must_use]
    pub fn stats_handle(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Signal shutdown and join every thread the server spawned:
    /// reactors first, then dispatchers, then the SD shards. Connected
    /// clients observe EOF once their owed responses are written.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Reactors first: waking their poll loops makes them observe the
        // flag, retire every connection with an EOF mark, and exit — so
        // no new frames enter the ring.
        self.reactors.wake_all();
        self.reactors.join();
        // Dispatchers next: ring the doorbell so idle ones wake and
        // drain the ring dry (every consumed frame still gets its
        // response).
        self.doorbell.ring();
        for t in self.dispatchers.drain(..) {
            let _ = t.join();
        }
        // The reactors and dispatchers held the only `SdPlane` handles;
        // with both joined the plane drops, closing and waking every
        // shard, which drains its backlog, disconnects every client, and
        // exits.
        for t in self.sd.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for KvServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Resolve the I/O backend — the one place a driver adapter is chosen —
/// and spawn the topology on it.
fn spawn_topology<F>(
    addrs: Vec<SocketAddr>,
    listeners: Vec<(TcpListener, ProtocolKind)>,
    cfg: BatchConfig,
    clock: SharedClock,
    handler: Arc<F>,
) -> std::io::Result<KvServer>
where
    F: Fn(usize, Vec<Query>) -> Vec<Response> + Send + Sync + 'static,
{
    let stats = Arc::new(ServerStats::default());
    let backend = resolve_backend(cfg.io_backend)?;
    stats.io_backend.set(backend as u64);
    match backend {
        IoBackend::Epoll => {
            spawn_planes::<EpollDriver, F>(addrs, listeners, cfg, clock, handler, stats)
        }
        IoBackend::Uring => {
            spawn_planes::<UringDriver, F>(addrs, listeners, cfg, clock, handler, stats)
        }
    }
}

/// Spawn the planes over driver `D`: reactor scaffold, SD egress shards,
/// dispatchers, then the reactor pool (which owns the listeners and the
/// accept path). Every driver is built here, before any thread spawns —
/// a ring or selector that cannot be set up fails the start — and the
/// reactor scaffold comes first because SD backpressure needs the
/// reactor command handles.
fn spawn_planes<D, F>(
    addrs: Vec<SocketAddr>,
    listeners: Vec<(TcpListener, ProtocolKind)>,
    cfg: BatchConfig,
    clock: SharedClock,
    handler: Arc<F>,
    stats: Arc<ServerStats>,
) -> std::io::Result<KvServer>
where
    D: IoDriver + 'static,
    F: Fn(usize, Vec<Query>) -> Vec<Response> + Send + Sync + 'static,
{
    let shutdown = Arc::new(AtomicBool::new(false));
    let doorbell = Arc::new(Doorbell::default());
    let ring: Arc<FrameRing<TaggedFrame>> = Arc::new(FrameRing::new(cfg.ring_slots.max(1)));
    let (scaffold, handles) = crate::reactor::build_reactor_scaffold::<D>(
        crate::reactor::effective_readers(cfg.readers),
    )?;
    let handles = Arc::new(handles);

    let n_sd = crate::sd::effective_sd_writers(cfg.sd_writers);
    let (plane, parts) = crate::sd::build_sd_plane::<D>(n_sd)?;
    let plane = Arc::new(plane);
    stats.sd_writer_threads.set(n_sd as u64);
    let shard_cfg = crate::sd::SdShardCfg::new(cfg.sd_stall_timeout, cfg.sd_hiwater_bytes);
    let mut sd = Vec::with_capacity(n_sd);
    for (idx, part) in parts.into_iter().enumerate() {
        let reactors = Arc::clone(&handles);
        let stats = Arc::clone(&stats);
        let spawned = std::thread::Builder::new()
            .name(format!("dido-sd-{idx}"))
            .spawn(move || crate::sd::run_sd_shard(part, shard_cfg, &reactors, &stats));
        match spawned {
            Ok(t) => sd.push(t),
            Err(e) => {
                // Closing the plane wakes the shards already running.
                drop(plane);
                for t in sd {
                    let _ = t.join();
                }
                return Err(e);
            }
        }
    }

    let mut dispatchers = Vec::with_capacity(cfg.dispatchers.max(1));
    for lane in 0..cfg.dispatchers.max(1) {
        let ring = Arc::clone(&ring);
        let t_plane = Arc::clone(&plane);
        let t_stats = Arc::clone(&stats);
        let t_shutdown = Arc::clone(&shutdown);
        let t_doorbell = Arc::clone(&doorbell);
        let t_clock = Arc::clone(&clock);
        let handler = Arc::clone(&handler);
        let spawned = std::thread::Builder::new()
            .name(format!("dido-dispatch-{lane}"))
            .spawn(move || {
                run_dispatcher(
                    &ring,
                    &t_plane,
                    &t_stats,
                    &t_shutdown,
                    &t_doorbell,
                    cfg,
                    lane,
                    &t_clock,
                    &*handler,
                );
            });
        match spawned {
            Ok(t) => dispatchers.push(t),
            Err(e) => {
                unwind_spawn(&shutdown, &doorbell, dispatchers, plane, sd);
                return Err(e);
            }
        }
    }

    let shared = crate::reactor::ReactorShared {
        ring,
        sd: Arc::clone(&plane),
        stats: Arc::clone(&stats),
        shutdown: Arc::clone(&shutdown),
        doorbell: Arc::clone(&doorbell),
        sndbuf_bytes: cfg.sndbuf_bytes,
    };
    // After the pool spawns, only reactors and dispatchers hold
    // `SdPlane` handles (the local one drops below), which is what lets
    // the SD shards exit once both groups are joined.
    match crate::reactor::spawn_reactor_pool(listeners, scaffold, shared) {
        Ok(reactors) => Ok(KvServer {
            addrs,
            stats,
            shutdown,
            doorbell,
            reactors,
            dispatchers,
            sd,
        }),
        Err(e) => {
            // Unwind the threads already running so a failed start
            // leaks nothing.
            unwind_spawn(&shutdown, &doorbell, dispatchers, plane, sd);
            Err(e)
        }
    }
}

/// Tear down a partially spawned topology: stop and join the
/// dispatchers, then drop the last local plane handle so the SD shards
/// observe the disconnect and join.
fn unwind_spawn(
    shutdown: &AtomicBool,
    doorbell: &Doorbell,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
    plane: Arc<SdPlane>,
    sd: Vec<std::thread::JoinHandle<()>>,
) {
    shutdown.store(true, Ordering::Release);
    doorbell.ring();
    for t in dispatchers {
        let _ = t.join();
    }
    drop(plane);
    for t in sd {
        let _ = t.join();
    }
}

/// Dispatcher: drain the ring across all connections, widen the batch
/// through the adaptive drain window, run the engine once, scatter.
#[allow(clippy::too_many_arguments)]
fn run_dispatcher<F>(
    ring: &FrameRing<TaggedFrame>,
    sd: &SdPlane,
    stats: &ServerStats,
    shutdown: &AtomicBool,
    doorbell: &Doorbell,
    cfg: BatchConfig,
    lane: usize,
    clock: &SharedClock,
    handler: &F,
) where
    F: Fn(usize, Vec<Query>) -> Vec<Response>,
{
    let mut frames: Vec<TaggedFrame> = Vec::with_capacity(FRAME_BUDGET);
    let mut scatter = SdScatter::new(sd.n_shards());
    while !shutdown.load(Ordering::Acquire) {
        let seen = doorbell.observe();
        let depth = ring.len() as u64;
        frames.clear();
        ring.pop_into(FRAME_BUDGET, &mut frames);
        if frames.is_empty() {
            doorbell.wait_past(seen, IDLE_WAIT);
            continue;
        }
        let mut queries: usize = frames.iter().map(|t| request_query_estimate(t.proto, &t.frame)).sum();
        let mut delayed = false;
        if queries < WAVEFRONT_WIDTH && frames.len() < FRAME_BUDGET {
            // Below a wavefront: hold the batch open up to the drain
            // window, dispatching early the moment enough work arrives
            // — or as soon as the wire goes quiet (nothing new within
            // `QUIET_DELAY`), because an idle link will not fill the
            // wavefront no matter how long we hold.
            let deadline = Instant::now() + cfg.max_batch_delay;
            while queries < WAVEFRONT_WIDTH
                && frames.len() < FRAME_BUDGET
                && !shutdown.load(Ordering::Acquire)
            {
                let now = Instant::now();
                if now >= deadline {
                    delayed = true;
                    break;
                }
                let seen = doorbell.observe();
                let before = frames.len();
                if ring.pop_into(FRAME_BUDGET - frames.len(), &mut frames) == 0 {
                    doorbell.wait_past(seen, (deadline - now).min(QUIET_DELAY));
                    if ring.pop_into(FRAME_BUDGET - frames.len(), &mut frames) == 0 {
                        break; // quiescent: ship what we have
                    }
                }
                queries += frames[before..]
                    .iter()
                    .map(|t| request_query_estimate(t.proto, &t.frame))
                    .sum::<usize>();
            }
        }
        stats.record_dispatch(
            frames.len() as u64,
            queries as u64,
            depth.max(frames.len() as u64),
            delayed,
        );
        dispatch_batch(&frames, sd, stats, lane, clock, handler, &mut scatter);
    }
    // Shutdown: drain whatever is left so pipelined clients still get
    // every response they are owed.
    loop {
        frames.clear();
        if ring.pop_into(FRAME_BUDGET, &mut frames) == 0 {
            break;
        }
        stats.record_dispatch(
            frames.len() as u64,
            frames
                .iter()
                .map(|t| request_query_estimate(t.proto, &t.frame))
                .sum::<usize>() as u64,
            frames.len() as u64,
            false,
        );
        dispatch_batch(&frames, sd, stats, lane, clock, handler, &mut scatter);
    }
}

/// One request's place in a dispatch: which connection/sequence it came
/// from, which response range answers it, and the decoded
/// [`RequestMeta`] its reply is encoded through (one client request may
/// fan out to several queries — a memcached multi-key `get`, a RESP
/// `MGET` — whose responses re-aggregate into a single wire reply).
struct Slot {
    conn: u64,
    seq: u64,
    start: usize,
    len: usize,
    meta: RequestMeta,
}

/// Reusable dispatch→SD scatter state. Runs are partitioned by SD shard
/// *at coalesce time* — each shard receives exactly one pooled
/// [`RunBatch`] per dispatch, so dispatch cost stays one send + one
/// wakeup per shard (not per run), and the scratch (slot list, open-run
/// index, batch slots) keeps its capacity across dispatches: the hot
/// path performs no per-dispatch scatter allocation after warmup.
struct SdScatter {
    slots: Vec<Slot>,
    /// conn → index of its open (last) run inside its shard's batch.
    open: HashMap<u64, usize>,
    /// One pending batch slot per SD shard.
    batches: Vec<Option<RunBatch>>,
}

impl SdScatter {
    fn new(n_shards: usize) -> SdScatter {
        SdScatter {
            slots: Vec::new(),
            open: HashMap::new(),
            batches: (0..n_shards).map(|_| None).collect(),
        }
    }
}

/// Decode a drained batch into one cross-connection query vector, run
/// the handler once, and scatter encoded response runs to the SD
/// shards — one coalesced batch per shard.
#[allow(clippy::too_many_arguments)]
fn dispatch_batch<F>(
    frames: &[TaggedFrame],
    sd: &SdPlane,
    stats: &ServerStats,
    lane: usize,
    clock: &SharedClock,
    handler: &F,
    scatter: &mut SdScatter,
) where
    F: Fn(usize, Vec<Query>) -> Vec<Response>,
{
    let estimate: usize = frames
        .iter()
        .map(|t| request_query_estimate(t.proto, &t.frame))
        .sum();
    let mut batch: Vec<Query> = Vec::with_capacity(estimate);
    let slots = &mut scatter.slots;
    slots.clear();
    let mut good_frames = 0u64;
    let mut proto_queries = [0u64; PROTOCOL_KINDS];
    let mut proto_errors = [0u64; PROTOCOL_KINDS];
    // One clock sample per dispatch: every request in the batch decodes
    // against the same `now`, like one pipeline batch expires against
    // one `now`.
    let now = clock.now_secs();
    for t in frames {
        let start = batch.len();
        let meta = decode_request(t.proto, &t.frame, now, &mut batch);
        let len = batch.len() - start;
        if meta.is_parse_error() {
            stats.bad_frames.add(1);
            proto_errors[t.proto.index()] += 1;
        } else {
            good_frames += 1;
        }
        proto_queries[t.proto.index()] += len as u64;
        slots.push(Slot {
            conn: t.conn,
            seq: t.seq,
            start,
            len,
            meta,
        });
    }
    stats.frames.add(good_frames);
    stats.queries.add(batch.len() as u64);
    for i in 0..PROTOCOL_KINDS {
        if proto_queries[i] > 0 {
            stats.proto_queries[i].add(proto_queries[i]);
        }
        if proto_errors[i] > 0 {
            stats.proto_parse_errors[i].add(proto_errors[i]);
        }
    }
    let responses = if batch.is_empty() {
        Vec::new()
    } else {
        handler(lane, batch)
    };
    // Coalesce the scatter per connection into runs of consecutive
    // sequence numbers, each encoded into one contiguous wire buffer
    // drawn from the owning shard's reuse ring. A run must break at any
    // sequence gap — the missing frame was dropped (answered by the
    // reader) or drained by another dispatcher, and will fill the gap
    // on its own.
    for s in slots.iter() {
        let end = (s.start + s.len).min(responses.len());
        let rs = responses.get(s.start..end).unwrap_or(&[]);
        let shard = sd.shard_of(s.conn);
        let batch = scatter.batches[shard].get_or_insert_with(|| sd.take_batch(shard));
        match scatter.open.get(&s.conn) {
            Some(&i) if batch[i].1.first_seq + batch[i].1.count == s.seq => {
                encode_reply_into(&mut batch[i].1.bytes, &s.meta, rs);
                batch[i].1.count += 1;
            }
            _ => {
                let mut bytes = sd.get_buf(shard);
                encode_reply_into(&mut bytes, &s.meta, rs);
                batch.push((
                    s.conn,
                    ResponseRun {
                        first_seq: s.seq,
                        count: 1,
                        bytes,
                    },
                ));
                scatter.open.insert(s.conn, batch.len() - 1);
            }
        }
    }
    scatter.open.clear();
    for (shard, slot) in scatter.batches.iter_mut().enumerate() {
        if let Some(batch) = slot.take() {
            sd.send_batch(shard, batch);
        }
    }
}

/// Streaming request reader with a reusable per-connection buffer,
/// carving on the connection's [`ProtocolKind`] codec.
///
/// The socket is read in [`READ_CHUNK`]-sized chunks and every complete
/// request the chunk contains is carved out at once (the RV "burst"): a
/// pipelined client's back-to-back small requests cost roughly one
/// `read` syscall for the whole burst instead of two per request.
/// Carved requests are zero-copy slices of one frozen block; a partial
/// request's bytes stay buffered for the next read. What a carved
/// payload *is* depends on the codec: the frame body (prefix stripped)
/// for [`ProtocolKind::Dido`], the full request text for the line
/// protocols — see [`crate::codec::carve_one`].
#[derive(Debug, Default)]
pub(crate) struct FrameReader {
    /// The codec that finds request boundaries in the byte stream.
    proto: ProtocolKind,
    /// Raw bytes not yet carved — at most one partial request.
    buf: BytesMut,
    /// Complete request payloads carved but not yet handed to the
    /// caller.
    pending: VecDeque<Bytes>,
    /// Start, relative to `buf`, of the recv window opened by
    /// [`FrameReader::begin_recv`] and not yet closed by
    /// `complete_recv`/`abort_recv`.
    window: Option<usize>,
    /// Length of the next recv window (0 until the first: read as
    /// [`READ_CHUNK`]).
    window_len: usize,
    /// Scratch payload ranges of the current carve pass (kept across
    /// calls for its capacity).
    scratch: Vec<(usize, usize)>,
}

/// Socket state after a [`FrameReader::complete_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadReady {
    /// The socket is still open; more data may arrive later.
    Open,
    /// Clean EOF at a frame boundary.
    Closed,
}

impl FrameReader {
    /// A reader for the default dido length-prefixed framing.
    pub(crate) fn new() -> FrameReader {
        FrameReader::default()
    }

    /// A reader carving request boundaries with `proto`'s codec.
    pub(crate) fn with_proto(proto: ProtocolKind) -> FrameReader {
        FrameReader {
            proto,
            ..FrameReader::default()
        }
    }

    /// Read one frame. Returns `Ok(None)` on clean EOF at a frame
    /// boundary.
    ///
    /// A `WouldBlock`/`TimedOut` escapes **only** at a frame boundary
    /// (no byte of the next frame buffered), where a caller that set a
    /// read timeout on the stream can retry safely. Once any byte of a
    /// frame has arrived the reader retries internally, keeping the
    /// consumed bytes — propagating the timeout there and restarting
    /// would drop the prefix bytes already read and desync the stream
    /// for good.
    pub(crate) fn read_frame(&mut self, stream: &mut TcpStream) -> std::io::Result<Option<Bytes>> {
        loop {
            if let Some(frame) = self.pending.pop_front() {
                return Ok(Some(frame));
            }
            if !self.fill(stream)? {
                return Ok(None);
            }
        }
    }

    /// Open a recv window for an [`IoDriver::recv`]: reserve writable
    /// (zeroed) bytes at the tail of `buf` and return the pointer/len
    /// the op should target. The window is sized to what the last
    /// completion delivered (rounded up to [`READ_CHUNK`], the
    /// minimum), doubling up to [`MAX_RECV_WINDOW`] when it was filled,
    /// so a saturated stream drains in a few large bursts while an
    /// ordinary one never zeroes more than a chunk. Until
    /// [`FrameReader::complete_recv`] or [`FrameReader::abort_recv`]
    /// closes it the window belongs to the driver (the pinned-buffer
    /// contract): the reader must not be touched, which the reactor
    /// guarantees by keeping at most one recv in flight per connection.
    ///
    /// [`IoDriver::recv`]: crate::driver::IoDriver::recv
    pub(crate) fn begin_recv(&mut self) -> (*mut u8, u32) {
        debug_assert!(self.window.is_none(), "one recv window at a time");
        let old = self.buf.len();
        let len = self.window_len.max(READ_CHUNK);
        self.buf.resize(old + len, 0);
        self.window = Some(old);
        (self.buf[old..].as_mut_ptr(), len as u32)
    }

    /// Whether a recv window is open (an op may still target it).
    pub(crate) fn window_open(&self) -> bool {
        self.window.is_some()
    }

    /// Commit `n` received bytes into the open window and carve every
    /// complete frame into `out` — on **every** exit path, so frames
    /// framed before an EOF or error are never lost. `n == 0` is EOF:
    /// [`ReadReady::Closed`] at a frame boundary, an error mid-frame.
    /// Oversized/short frames are errors too; either way the caller
    /// retires the connection. A partial frame's bytes simply stay
    /// buffered across completions, so the frame-boundary invariant of
    /// [`FrameReader::read_frame`] holds structurally.
    pub(crate) fn complete_recv(
        &mut self,
        n: usize,
        out: &mut Vec<Bytes>,
    ) -> std::io::Result<ReadReady> {
        let base = self.window.take().expect("complete_recv without a window");
        let len = self.buf.len() - base;
        debug_assert!(n <= len);
        self.window_len = if n == len {
            2 * len
        } else {
            n.next_multiple_of(READ_CHUNK)
        }
        .clamp(READ_CHUNK, MAX_RECV_WINDOW);
        self.buf.truncate(base + n);
        if n == 0 {
            if base == 0 {
                return Ok(ReadReady::Closed);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "EOF inside a frame",
            ));
        }
        let carved = self.carve();
        out.extend(self.pending.drain(..));
        carved?;
        Ok(ReadReady::Open)
    }

    /// Close the open recv window (if any) without committing bytes —
    /// the op was canceled or failed; buffered partial-frame bytes are
    /// preserved.
    pub(crate) fn abort_recv(&mut self) {
        if let Some(base) = self.window.take() {
            self.buf.truncate(base);
        }
    }

    /// One socket read into the tail of `buf`, then carve. `Ok(false)`
    /// is clean EOF at a frame boundary; mid-frame timeouts retry
    /// internally so buffered bytes are never abandoned.
    fn fill(&mut self, stream: &mut TcpStream) -> std::io::Result<bool> {
        loop {
            let old = self.buf.len();
            self.buf.resize(old + READ_CHUNK, 0);
            let r = stream.read(&mut self.buf[old..]);
            let n = match r {
                Ok(n) => n,
                Err(e) => {
                    self.buf.resize(old, 0);
                    match e {
                        e if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        e if is_poll_timeout(&e) && old == 0 => return Err(e),
                        e if is_poll_timeout(&e) => continue, // mid-frame: keep bytes, retry
                        e => return Err(e),
                    }
                }
            };
            self.buf.resize(old + n, 0);
            if n == 0 {
                return if old == 0 {
                    Ok(false)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "EOF inside a frame",
                    ))
                };
            }
            self.carve()?;
            return Ok(true);
        }
    }

    /// Carve every complete request out of `buf` into `pending`, as
    /// zero-copy slices of one frozen block, using the connection's
    /// codec to find request boundaries. On a fatal carve error
    /// (oversized frame, unbounded line, corrupt RESP header) the
    /// requests carved *before* the bad bytes are still delivered —
    /// every exit path drains `pending` to the caller — and the error
    /// retires the connection.
    fn carve(&mut self) -> std::io::Result<()> {
        self.scratch.clear();
        let mut consumed = 0usize;
        let mut fatal = None;
        loop {
            match crate::codec::carve_one(self.proto, &self.buf[consumed..]) {
                Ok(crate::codec::Carve::Partial) => break,
                Ok(crate::codec::Carve::Request { total, skip }) => {
                    self.scratch.push((consumed + skip, consumed + total));
                    consumed += total;
                }
                Err(e) => {
                    fatal = Some(e);
                    break;
                }
            }
        }
        if consumed > 0 {
            let block = self.buf.split_to(consumed).freeze();
            for &(start, end) in &self.scratch {
                self.pending.push_back(block.slice(start..end));
            }
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Put `frames` on the wire, interleaving length prefixes and bodies
/// into one vectored write (retried on partial writes) and one flush.
fn write_frames(stream: &mut TcpStream, frames: &[Bytes]) -> std::io::Result<()> {
    let prefixes: Vec<[u8; 4]> = frames
        .iter()
        .map(|f| (f.len() as u32).to_le_bytes())
        .collect();
    let mut bufs: Vec<&[u8]> = Vec::with_capacity(frames.len() * 2);
    for (p, f) in prefixes.iter().zip(frames) {
        bufs.push(p);
        bufs.push(f);
    }
    write_all_vectored(stream, &bufs)?;
    stream.flush()
}

fn write_frame(stream: &mut TcpStream, frame: &Bytes) -> std::io::Result<()> {
    write_frames(stream, std::slice::from_ref(frame))
}

/// `write_all` over a list of buffers using `write_vectored`,
/// re-slicing past whatever each call consumed. (The std helper
/// `write_all_vectored` is unstable; this is its stable equivalent.)
///
/// Handles `WouldBlock` by parking on writability, so it stays correct
/// even on a stream someone made nonblocking. This is [`KvClient`]'s
/// blocking writer; the SD egress plane has its own readiness-driven
/// path (`sd::write_queue`).
fn write_all_vectored(stream: &mut TcpStream, bufs: &[&[u8]]) -> std::io::Result<()> {
    let mut idx = 0usize; // first buffer not fully written
    let mut off = 0usize; // bytes of bufs[idx] already written
    while idx < bufs.len() {
        if off >= bufs[idx].len() {
            idx += 1;
            off = 0;
            continue;
        }
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(bufs.len() - idx);
        slices.push(IoSlice::new(&bufs[idx][off..]));
        slices.extend(bufs[idx + 1..].iter().map(|b| IoSlice::new(b)));
        let n = match stream.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "wrote zero bytes",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                match mio::wait_writable(stream.as_raw_fd(), Some(WRITE_STALL)) {
                    Ok(true) => continue,
                    Ok(false) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "peer unwritable past the stall deadline",
                        ))
                    }
                    Err(e) => return Err(e),
                }
            }
            Err(e) => return Err(e),
        };
        let mut advanced = n;
        while advanced > 0 {
            let avail = bufs[idx].len() - off;
            if advanced >= avail {
                advanced -= avail;
                idx += 1;
                off = 0;
            } else {
                off += advanced;
                advanced = 0;
            }
        }
    }
    Ok(())
}

/// A blocking client for [`KvServer`].
///
/// Supports both call-and-response ([`KvClient::request`]) and
/// pipelined use: issue several [`KvClient::send`]s back-to-back, then
/// collect each reply with [`KvClient::recv`] — the server answers
/// every frame in order.
#[derive(Debug)]
pub struct KvClient {
    stream: TcpStream,
    reader: FrameReader,
}

impl KvClient {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<KvClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(KvClient::from_stream(stream))
    }

    /// Wrap an already-connected stream.
    #[must_use]
    pub fn from_stream(stream: TcpStream) -> KvClient {
        KvClient {
            stream,
            reader: FrameReader::new(),
        }
    }

    /// Send one query frame without waiting for the response.
    pub fn send(&mut self, queries: &[Query]) -> std::io::Result<()> {
        use crate::protocol::{FrameBuilder, FRAME_HEADER};
        let need: usize = FRAME_HEADER + queries.iter().map(FrameBuilder::wire_size).sum::<usize>();
        if need > MAX_FRAME_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "batch exceeds the maximum frame size",
            ));
        }
        // Exact-size builder: every query fits by construction, and the
        // send never reserves more than the frame actually needs.
        let mut b = FrameBuilder::with_capacity(need);
        for q in queries {
            let ok = b.push(q);
            debug_assert!(ok, "exactly-sized frame accepts every record");
        }
        write_frame(&mut self.stream, &b.finish())
    }

    /// Receive the next response frame without decoding its records —
    /// framing only. Load generators use this to keep per-frame client
    /// CPU out of the measurement; callers that need the records decode
    /// with [`crate::parse_responses`] or call
    /// [`recv`](KvClient::recv).
    pub fn recv_frame(&mut self) -> std::io::Result<Bytes> {
        self.reader
            .read_frame(&mut self.stream)?
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Receive the next response frame.
    pub fn recv(&mut self) -> std::io::Result<Vec<Response>> {
        let reply = self.recv_frame()?;
        crate::protocol::parse_responses(&reply).map_err(|e: ProtocolError| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}"))
        })
    }

    /// Send a batch of queries and wait for the responses.
    pub fn request(&mut self, queries: &[Query]) -> std::io::Result<Vec<Response>> {
        self.send(queries)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_model::{QueryOp, ResponseStatus};
    use parking_lot::Mutex;
    use std::collections::HashMap;

    fn echo_store_handler() -> impl Fn(usize, Vec<Query>) -> Vec<Response> + Send + Sync + 'static {
        // A tiny in-memory map suffices to exercise the wire path.
        let map: Mutex<HashMap<Vec<u8>, Vec<u8>>> = Mutex::new(HashMap::new());
        move |_lane, queries| {
            let mut map = map.lock();
            queries
                .iter()
                .map(|q| match q.op {
                    QueryOp::Set => {
                        map.insert(q.key.to_vec(), q.value.to_vec());
                        Response::ok()
                    }
                    QueryOp::Get => match map.get(&q.key.to_vec()) {
                        Some(v) => Response::hit(v.clone()),
                        None => Response::not_found(),
                    },
                    QueryOp::Delete => {
                        if map.remove(&q.key.to_vec()).is_some() {
                            Response::ok()
                        } else {
                            Response::not_found()
                        }
                    }
                })
                .collect()
        }
    }

    fn echo_store_server() -> KvServer {
        KvServer::start("127.0.0.1:0", echo_store_handler()).expect("bind ephemeral port")
    }

    fn echo_store_server_batched(cfg: BatchConfig) -> KvServer {
        KvServer::start_batched("127.0.0.1:0", cfg, echo_store_handler())
            .expect("bind ephemeral port")
    }

    #[test]
    fn round_trip_over_tcp_batched() {
        let server = echo_store_server_batched(BatchConfig::default());
        let mut client = KvClient::connect(server.addr()).unwrap();
        let rs = client
            .request(&[
                Query::set("tcp-key", "tcp-value"),
                Query::get("tcp-key"),
                Query::get("absent"),
                Query::delete("tcp-key"),
            ])
            .unwrap();
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[0].status, ResponseStatus::Ok);
        assert_eq!(&rs[1].value[..], b"tcp-value");
        assert_eq!(rs[2].status, ResponseStatus::NotFound);
        assert_eq!(rs[3].status, ResponseStatus::Ok);
        let stats = server.stats().snapshot();
        assert_eq!(stats.queries, 4);
        assert!(stats.dispatches >= 1);
        assert_eq!(stats.dispatched_frames, 1);
        server.shutdown();
    }

    #[test]
    fn multiple_clients_share_one_store_batched() {
        let server = echo_store_server_batched(BatchConfig::default());
        let mut a = KvClient::connect(server.addr()).unwrap();
        let mut b = KvClient::connect(server.addr()).unwrap();
        a.request(&[Query::set("shared", "from-a")]).unwrap();
        let rs = b.request(&[Query::get("shared")]).unwrap();
        assert_eq!(&rs[0].value[..], b"from-a");
        assert_eq!(server.stats().connections.get(), 2);
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_empty_response_batched() {
        let server = echo_store_server_batched(BatchConfig::default());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let garbage = [1u8, 0];
        stream
            .write_all(&(garbage.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(&garbage).unwrap();
        stream.flush().unwrap();
        let mut client = KvClient::from_stream(stream);
        let rs = client.recv().unwrap();
        assert!(rs.is_empty());
        assert_eq!(server.stats().bad_frames.get(), 1);
        let rs = client.request(&[Query::get("x")]).unwrap();
        assert_eq!(rs[0].status, ResponseStatus::NotFound);
        server.shutdown();
    }

    #[test]
    fn oversized_batches_are_rejected_client_side() {
        let server = echo_store_server();
        let mut client = KvClient::connect(server.addr()).unwrap();
        let huge: Vec<Query> = (0..8)
            .map(|i| Query::set(format!("k{i}"), vec![b'x'; MAX_FRAME_BYTES / 4]))
            .collect();
        let err = client.request(&huge).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        server.shutdown();
    }

    #[test]
    fn cross_connection_frames_aggregate_into_one_dispatch() {
        // Hold the drain window wide open, fill the ring from two
        // connections, and check the dispatcher batched them together.
        let server = echo_store_server_batched(BatchConfig {
            max_batch_delay: Duration::from_millis(250),
            ..BatchConfig::default()
        });
        let mut a = KvClient::connect(server.addr()).unwrap();
        let mut b = KvClient::connect(server.addr()).unwrap();
        a.send(&[Query::set("a", "1")]).unwrap();
        b.send(&[Query::set("b", "2")]).unwrap();
        assert_eq!(a.recv().unwrap()[0].status, ResponseStatus::Ok);
        assert_eq!(b.recv().unwrap()[0].status, ResponseStatus::Ok);
        let stats = server.stats().snapshot();
        assert_eq!(stats.frames, 2);
        // Both frames were below one wavefront, so the drain window held
        // them open; at least one dispatch must have carried >1 frame
        // unless scheduling delivered them far apart — accept either but
        // require the histogram and dispatch counters to be consistent.
        assert_eq!(stats.dispatched_frames, 2);
        assert!(stats.dispatches <= 2);
        let hist_total: u64 = stats.batch_hist.iter().sum();
        assert_eq!(hist_total, stats.dispatches);
        server.shutdown();
    }

    /// A three-request burst for each protocol, with the decode
    /// payloads the reader must carve out of it.
    fn carve_burst(proto: ProtocolKind) -> (Vec<u8>, Vec<Vec<u8>>) {
        match proto {
            ProtocolKind::Dido => {
                let mut stream = BytesMut::new();
                let mut payloads = Vec::new();
                for batch in [
                    vec![Query::set("alpha", "1"), Query::get("alpha")],
                    vec![Query::get("beta")],
                    vec![Query::delete("alpha")],
                ] {
                    let before = stream.len();
                    crate::protocol::encode_queries_wire_into(&mut stream, &batch);
                    payloads.push(stream[before + 4..].to_vec());
                }
                (stream.to_vec(), payloads)
            }
            ProtocolKind::Memcached => {
                let requests: [&[u8]; 3] = [
                    b"set alpha 0 0 3\r\none\r\n",
                    b"get alpha beta\r\n",
                    b"delete alpha noreply\r\n",
                ];
                let stream = requests.concat();
                (stream, requests.iter().map(|r| r.to_vec()).collect())
            }
            ProtocolKind::Resp => {
                let requests: [&[u8]; 3] = [
                    b"*3\r\n$3\r\nSET\r\n$5\r\nalpha\r\n$3\r\none\r\n",
                    b"*2\r\n$3\r\nGET\r\n$5\r\nalpha\r\n",
                    b"PING\r\n",
                ];
                let stream = requests.concat();
                (stream, requests.iter().map(|r| r.to_vec()).collect())
            }
        }
    }

    /// Feed `stream` to a fresh reader in two pieces cut at `split`,
    /// carving after each piece, and return every payload delivered.
    fn carve_in_two(proto: ProtocolKind, stream: &[u8], split: usize) -> Vec<Vec<u8>> {
        let mut reader = FrameReader::with_proto(proto);
        let mut got = Vec::new();
        for piece in [&stream[..split], &stream[split..]] {
            reader.buf.extend_from_slice(piece);
            reader.carve().expect("valid stream must carve");
            got.extend(reader.pending.drain(..).map(|p| p.to_vec()));
        }
        assert!(
            reader.buf.is_empty(),
            "no bytes may linger after a complete {proto} burst"
        );
        got
    }

    #[test]
    fn every_codec_carves_the_same_burst_at_every_split_boundary() {
        // The frame-boundary invariant, exhaustively: wherever a read
        // happens to end, the carved request sequence is identical.
        for proto in ProtocolKind::all() {
            let (stream, expected) = carve_burst(proto);
            for split in 0..=stream.len() {
                let got = carve_in_two(proto, &stream, split);
                assert_eq!(got, expected, "{proto} burst split at byte {split}");
            }
        }
    }

    #[test]
    fn oversized_frames_are_connection_fatal_for_every_codec() {
        // A length field beyond MAX_FRAME_BYTES (or an unbounded line)
        // can never resync, so carve must error — retiring the conn —
        // instead of buffering forever.
        let poison: [(ProtocolKind, Vec<u8>); 4] = [
            (
                ProtocolKind::Dido,
                ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec(),
            ),
            (
                ProtocolKind::Memcached,
                format!("set k 0 0 {}\r\n", MAX_FRAME_BYTES + 1).into_bytes(),
            ),
            (
                ProtocolKind::Memcached,
                vec![b'g'; crate::codec::MAX_LINE_BYTES + 1],
            ),
            (
                ProtocolKind::Resp,
                format!("*{}\r\n", crate::codec::MAX_RESP_ARRAY + 1).into_bytes(),
            ),
        ];
        for (proto, bytes) in poison {
            let mut reader = FrameReader::with_proto(proto);
            reader.buf.extend_from_slice(&bytes);
            assert!(
                reader.carve().is_err(),
                "{proto} must retire the connection on oversized input"
            );
        }
    }

    #[test]
    fn requests_carved_before_a_fatal_error_are_still_delivered() {
        // A pipelined burst whose tail is poison: the good head must
        // reach the dispatcher so its replies go out before the close.
        let (head, expected) = carve_burst(ProtocolKind::Memcached);
        let mut reader = FrameReader::with_proto(ProtocolKind::Memcached);
        reader.buf.extend_from_slice(&head);
        reader
            .buf
            .extend_from_slice(format!("set k 0 0 {}\r\n", MAX_FRAME_BYTES + 1).as_bytes());
        assert!(reader.carve().is_err());
        let got: Vec<Vec<u8>> = reader.pending.drain(..).map(|p| p.to_vec()).collect();
        assert_eq!(got, expected);
    }
}
