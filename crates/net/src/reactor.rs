//! Reactor connection plane: the server's ingress half.
//!
//! A fixed pool of reactor threads (default `min(4, cores)`) carries
//! every connection. Each reactor owns one [`IoDriver`], a set of
//! per-connection [`Conn`] machines, and a command queue for
//! registrations; the loop is written once and runs on whichever
//! adapter the server resolved (see `crate::driver`).
//!
//! Every connection keeps **at most one `recv` in flight**, targeting
//! its [`FrameReader`]'s window. When it completes, every complete
//! frame is carved out (partial-frame bytes stay buffered, so a read
//! that ends mid-frame never desyncs the stream), the tagged frames go
//! into the shared RX ring with one `push_burst` and one doorbell ring,
//! and the recv is re-armed — unless SD backpressure paused the
//! connection, in which case resume arms it again. Ring overflow is
//! answered at drop time with empty response frames so the connection's
//! sequence numbering never develops a hole (the SD writer's reorder
//! buffer advances past every dropped frame).
//!
//! Reactor 0 additionally owns the listeners, watched through the same
//! driver — accepting costs a completion, not a sleep-poll. New
//! connections round-robin across the pool via per-reactor command
//! queues, kicked by the target driver's waker. Shutdown is also
//! waker-driven: an idle server tears down in microseconds. Teardown
//! drains the driver before any reader is freed (the pinned-buffer
//! contract) and retires every still-registered connection with an
//! `Eof` message so the SD writer can close it.

use crate::codec::ProtocolKind;
use crate::driver::{ud, ud_id, ud_kind, Completion, IoDriver, Waker, EAGAIN, EINTR};
use crate::nic::FrameRing;
use crate::sd::SdPlane;
use crate::server::{Doorbell, FrameReader, ReadReady, TaggedFrame};
use crate::stats::ServerStats;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Most listeners one server may bind (`--listen` front doors).
pub(crate) const MAX_LISTENERS: usize = 15;

// Completion `user_data` kinds (see `driver::ud`): a listener watch
// carries the listener index, a recv the connection id.
const UD_LISTENER: u64 = 2;
const UD_RECV: u64 = 3;

/// Fallback wait timeout. Wakeups (frames, registrations, shutdown) are
/// event-driven; this only bounds how long a lost external signal could
/// go unnoticed.
const POLL_TIMEOUT: Duration = Duration::from_millis(500);

/// Everything a reactor shares with the rest of the batched topology.
#[derive(Clone)]
pub(crate) struct ReactorShared {
    pub(crate) ring: Arc<FrameRing<TaggedFrame>>,
    pub(crate) sd: Arc<SdPlane>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) doorbell: Arc<Doorbell>,
    /// Shrink each accepted socket's kernel send buffer (`SO_SNDBUF`)
    /// to this many bytes (`None` keeps the kernel default).
    pub(crate) sndbuf_bytes: Option<usize>,
}

/// Commands to a reactor thread (kick the waker after sending).
pub(crate) enum ReactorCmd {
    /// Adopt a freshly accepted connection's read half, carving with
    /// its listener's protocol codec.
    Register {
        conn: u64,
        stream: TcpStream,
        proto: ProtocolKind,
    },
    /// Pause (`resume: false`) or resume (`resume: true`) a
    /// connection's reads — the SD plane's slow-consumer backpressure
    /// actuator.
    SetRead { conn: u64, resume: bool },
}

/// Resolve a configured reader count: `0` means `min(4, cores)`.
#[must_use]
pub(crate) fn effective_readers(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }
}

/// The running reactor pool; join handles plus the wakers that unblock
/// each loop for shutdown.
pub(crate) struct ReactorPool {
    threads: Vec<std::thread::JoinHandle<()>>,
    wakers: Vec<Arc<Waker>>,
}

impl ReactorPool {
    /// Wake every reactor (used to make shutdown prompt).
    pub(crate) fn wake_all(&self) {
        for w in &self.wakers {
            let _ = w.wake();
        }
    }

    /// Join every reactor thread.
    pub(crate) fn join(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Per-connection state machine inside a reactor.
struct Conn {
    conn: u64,
    stream: TcpStream,
    /// Owns the recv window; `reader.window_open()` *is* the "a recv is
    /// in flight" flag, and gates every other touch of the reader.
    reader: FrameReader,
    /// The protocol the connection's listener speaks (stamped at
    /// accept time; every carved request is tagged with it).
    proto: ProtocolKind,
    /// Next sequence number to assign to a carved frame.
    seq: u64,
    /// Reads paused by SD backpressure: an in-flight recv may still
    /// land (and is committed), but it is not re-armed until resume.
    paused: bool,
}

/// Listener state, owned by reactor 0. A fatally broken listener is
/// retired in place (`None`) while the rest keep accepting.
struct Acceptor {
    listeners: Vec<Option<(TcpListener, ProtocolKind)>>,
    next_conn: u64,
    /// Command queues of every reactor (index-aligned with the pool).
    peers: Vec<Sender<ReactorCmd>>,
    peer_wakers: Vec<Arc<Waker>>,
}

/// The reactor pool's drivers and command queues, built *before* any
/// thread spawns so other planes (the SD egress shards) can hold
/// command handles from birth.
pub(crate) struct ReactorScaffold<D> {
    drivers: Vec<D>,
    wakers: Vec<Arc<Waker>>,
    cmd_txs: Vec<Sender<ReactorCmd>>,
    cmd_rxs: Vec<Receiver<ReactorCmd>>,
}

/// Cross-plane handle to the reactor pool's command queues: lets the SD
/// egress shards pause/resume a connection's reads without touching
/// reactor state directly.
pub(crate) struct ReactorHandles {
    cmd_txs: Vec<Sender<ReactorCmd>>,
    wakers: Vec<Arc<Waker>>,
}

impl ReactorHandles {
    /// Ask the reactor owning `conn` to pause or resume its reads.
    /// Routing mirrors the accept-time round-robin, so the command
    /// lands on the thread that owns the connection.
    pub(crate) fn set_read(&self, conn: u64, resume: bool) {
        let target = (conn as usize) % self.cmd_txs.len();
        if self.cmd_txs[target]
            .send(ReactorCmd::SetRead { conn, resume })
            .is_ok()
        {
            let _ = self.wakers[target].wake();
        }
    }
}

/// Build `n` reactors' drivers and command queues (no threads yet). The
/// scaffold is consumed by [`spawn_reactor_pool`]; the handles go to
/// whoever needs the command path.
pub(crate) fn build_reactor_scaffold<D: IoDriver>(
    n: usize,
) -> std::io::Result<(ReactorScaffold<D>, ReactorHandles)> {
    let n = n.max(1);
    let mut drivers = Vec::with_capacity(n);
    let mut wakers = Vec::with_capacity(n);
    let mut cmd_txs = Vec::with_capacity(n);
    let mut cmd_rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let driver = D::new()?;
        let (tx, rx) = channel::<ReactorCmd>();
        wakers.push(driver.waker());
        drivers.push(driver);
        cmd_txs.push(tx);
        cmd_rxs.push(rx);
    }
    let handles = ReactorHandles {
        cmd_txs: cmd_txs.clone(),
        wakers: wakers.clone(),
    };
    Ok((
        ReactorScaffold {
            drivers,
            wakers,
            cmd_txs,
            cmd_rxs,
        },
        handles,
    ))
}

/// Spawn the pool over a prebuilt scaffold, with the accept loop folded
/// into reactor 0.
pub(crate) fn spawn_reactor_pool<D: IoDriver + 'static>(
    listeners: Vec<(TcpListener, ProtocolKind)>,
    scaffold: ReactorScaffold<D>,
    shared: ReactorShared,
) -> std::io::Result<ReactorPool> {
    let ReactorScaffold {
        drivers,
        wakers,
        cmd_txs,
        cmd_rxs,
    } = scaffold;
    let n = drivers.len();
    shared.stats.reactor_threads.set(n as u64);

    debug_assert!((1..=MAX_LISTENERS).contains(&listeners.len()));
    // A watch completion means "readable"; the reactor then accepts
    // until `WouldBlock`, so listeners are nonblocking on every adapter.
    for (listener, _) in &listeners {
        listener.set_nonblocking(true)?;
    }
    let mut acceptor = Some(Acceptor {
        listeners: listeners.into_iter().map(Some).collect(),
        next_conn: 0,
        peers: cmd_txs,
        peer_wakers: wakers.clone(),
    });

    let mut threads = Vec::with_capacity(n);
    for (idx, (driver, cmd_rx)) in drivers.into_iter().zip(cmd_rxs).enumerate() {
        let acceptor = if idx == 0 { acceptor.take() } else { None };
        let shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("dido-reactor-{idx}"))
                .spawn(move || run_reactor(idx, driver, cmd_rx, acceptor, &shared))?,
        );
    }
    Ok(ReactorPool { threads, wakers })
}

/// Open `c`'s next reader window and submit a recv into it.
fn arm_recv<D: IoDriver>(driver: &mut D, c: &mut Conn) {
    let (buf, len) = c.reader.begin_recv();
    // SAFETY: the pinned-buffer contract (`IoDriver`): the window stays
    // allocated and untouched until the completion arrives —
    // `window_open()` gates every other use of this reader, `Conn`s are
    // only dropped with the window closed or after `drain()`, and an
    // undrained teardown leaks the reader instead.
    unsafe { driver.recv(c.stream.as_raw_fd(), buf, len, ud(UD_RECV, c.conn)) };
}

/// Adopt a connection: insert its state and arm the first recv (a
/// socket the driver cannot watch completes that recv with an error,
/// which retires it through the normal path).
fn register_conn<D: IoDriver>(
    driver: &mut D,
    conns: &mut HashMap<u64, Conn>,
    conn: u64,
    stream: TcpStream,
    proto: ProtocolKind,
    shared: &ReactorShared,
) {
    let mut c = Conn {
        conn,
        stream,
        reader: FrameReader::with_proto(proto),
        proto,
        seq: 0,
        paused: false,
    };
    arm_recv(driver, &mut c);
    conns.insert(conn, c);
    shared.stats.reactor_conns.add(1);
}

/// Retire a connection whose recv is not in flight: EOF to the SD plane
/// (which owns the write half and the close) and drop the read state.
fn retire_conn<D: IoDriver>(
    driver: &mut D,
    conns: &mut HashMap<u64, Conn>,
    conn: u64,
    shared: &ReactorShared,
) {
    if let Some(c) = conns.remove(&conn) {
        driver.detach(c.stream.as_raw_fd());
        shared.sd.send_eof(c.conn, c.seq);
        shared.stats.reactor_conns.sub(1);
    }
}

/// Accept until listener `lidx` would block, routing each connection to
/// its round-robin owner: remote reactors get a `Register` command,
/// this reactor's own share lands in `adopted` for the caller to
/// register. Every accepted connection is stamped with the listener's
/// [`ProtocolKind`] and put in the socket mode driver `D` needs.
/// Returns whether the listener is still usable.
fn accept_ready<D: IoDriver>(
    a: &mut Acceptor,
    lidx: usize,
    idx: usize,
    shared: &ReactorShared,
    adopted: &mut Vec<(u64, TcpStream, ProtocolKind)>,
) -> bool {
    let Some((listener, proto)) = a.listeners.get(lidx).and_then(Option::as_ref) else {
        return false; // stale completion for a retired listener
    };
    let proto = *proto;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if D::prepare(&stream).is_err() {
                    continue; // connection dies; client sees a close
                }
                if let Some(bytes) = shared.sndbuf_bytes {
                    // Best-effort: a failed shrink just means the kernel
                    // default stays, which is always safe.
                    let _ = mio::set_send_buffer(stream.as_raw_fd(), bytes);
                }
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                shared.stats.connections.add(1);
                shared.stats.proto_conns[proto.index()].add(1);
                let conn = a.next_conn;
                a.next_conn += 1;
                // Open must reach the SD plane before any response (or
                // drop-answer) for this connection can.
                shared.sd.send_open(conn, write_half);
                let target = (conn as usize) % a.peers.len();
                if target == idx {
                    adopted.push((conn, stream, proto));
                } else {
                    let _ = a.peers[target].send(ReactorCmd::Register {
                        conn,
                        stream,
                        proto,
                    });
                    let _ = a.peer_wakers[target].wake();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // A peer that aborted while queued is its problem, not the
            // listener's: under a connect storm ECONNABORTED is routine
            // and must not retire the accept path.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
            Err(_) => return false,
        }
    }
}

/// Tag a carved burst with sequence numbers and push it into the
/// shared RX ring with one lock and one doorbell ring; the full-ring
/// tail stays in `tagged` and is answered with empty frames at drop
/// time so the connection's sequence numbering never gains a hole.
fn publish_burst(
    conn: u64,
    proto: ProtocolKind,
    seq: &mut u64,
    burst: &mut Vec<bytes::Bytes>,
    tagged: &mut Vec<TaggedFrame>,
    shared: &ReactorShared,
) {
    if burst.is_empty() {
        return;
    }
    shared.stats.read_burst_hist.observe(burst.len() as u64);
    tagged.clear();
    for frame in burst.drain(..) {
        tagged.push(TaggedFrame {
            conn,
            seq: *seq,
            proto,
            frame,
        });
        *seq += 1;
    }
    if shared.ring.push_burst(tagged) > 0 {
        shared.doorbell.ring();
    }
    if !tagged.is_empty() {
        shared.stats.dropped_frames.add(tagged.len() as u64);
        shared.sd.overflow_answers(conn, tagged);
    }
}

/// RV work for one recv completion: commit the window, carve, tag and
/// publish the burst (drop-answering overflow), then re-arm — or retire
/// on EOF/error.
fn handle_recv<D: IoDriver>(
    driver: &mut D,
    conns: &mut HashMap<u64, Conn>,
    done: Completion,
    burst: &mut Vec<bytes::Bytes>,
    tagged: &mut Vec<TaggedFrame>,
    shared: &ReactorShared,
) {
    let conn = ud_id(done.user_data);
    let Some(c) = conns.get_mut(&conn) else {
        return; // no such connection (defensive: ops outlive no conn)
    };
    if done.res < 0 {
        c.reader.abort_recv();
        match -done.res {
            // Spurious wakeups: re-arm unless paused.
            EAGAIN | EINTR => {
                if !c.paused {
                    arm_recv(driver, c);
                }
            }
            // Fatal socket error (reset, aborted, unwatchable, …).
            _ => retire_conn(driver, conns, conn, shared),
        }
        return;
    }
    burst.clear();
    let status = c.reader.complete_recv(done.res as usize, burst);
    publish_burst(c.conn, c.proto, &mut c.seq, burst, tagged, shared);
    match status {
        Ok(ReadReady::Open) => {
            if !c.paused {
                arm_recv(driver, c);
            }
        }
        // Clean EOF, mid-frame EOF, or a frame error: either way the
        // connection is done producing frames.
        _ => retire_conn(driver, conns, conn, shared),
    }
}

fn run_reactor<D: IoDriver>(
    idx: usize,
    mut driver: D,
    cmd_rx: Receiver<ReactorCmd>,
    mut acceptor: Option<Acceptor>,
    shared: &ReactorShared,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut burst: Vec<bytes::Bytes> = Vec::new();
    let mut tagged: Vec<TaggedFrame> = Vec::new();
    let mut adopted: Vec<(u64, TcpStream, ProtocolKind)> = Vec::new();
    let mut completions: Vec<Completion> = Vec::new();
    let mut enters_folded = 0u64;

    if let Some(a) = acceptor.as_ref() {
        for (lidx, slot) in a.listeners.iter().enumerate() {
            if let Some((listener, _)) = slot {
                driver.watch_readable(listener.as_raw_fd(), ud(UD_LISTENER, lidx as u64));
            }
        }
    }

    loop {
        completions.clear();
        if driver.wait(Some(POLL_TIMEOUT), &mut completions).is_err() {
            // A broken driver cannot make progress; treat it like
            // shutdown so the server tears down instead of spinning.
            break;
        }
        let enters = driver.enters();
        shared.stats.ring_enters.add(enters - enters_folded);
        enters_folded = enters;
        if !completions.is_empty() {
            shared.stats.reactor_wakeups.add(1);
            shared
                .stats
                .cqe_per_enter_hist
                .observe(completions.len() as u64);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break; // the batch is moot: every conn is EOF'd at its seq below
        }
        for &done in &completions {
            match ud_kind(done.user_data) {
                UD_LISTENER => {
                    let lidx = ud_id(done.user_data) as usize;
                    let Some(a) = acceptor.as_mut() else { continue };
                    adopted.clear();
                    let alive = accept_ready::<D>(a, lidx, idx, shared, &mut adopted);
                    for (conn, stream, proto) in adopted.drain(..) {
                        register_conn(&mut driver, &mut conns, conn, stream, proto, shared);
                    }
                    if let Some((listener, _)) = a.listeners[lidx].as_ref() {
                        if alive {
                            driver.watch_readable(listener.as_raw_fd(), done.user_data);
                        } else {
                            // Fatal listener error: stop accepting on
                            // this front door but keep serving live
                            // connections (and the other listeners).
                            driver.detach(listener.as_raw_fd());
                            a.listeners[lidx] = None;
                        }
                    }
                }
                UD_RECV => handle_recv(
                    &mut driver,
                    &mut conns,
                    done,
                    &mut burst,
                    &mut tagged,
                    shared,
                ),
                _ => {} // a waker kick: commands are drained below
            }
        }
        // Wakeups coalesce, so the command queue is drained every pass
        // rather than only on a waker completion.
        while let Ok(cmd) = cmd_rx.try_recv() {
            match cmd {
                ReactorCmd::Register {
                    conn,
                    stream,
                    proto,
                } => register_conn(&mut driver, &mut conns, conn, stream, proto, shared),
                ReactorCmd::SetRead { conn, resume } => {
                    // An already-retired conn is fine: the SD plane
                    // learns via Eof.
                    if let Some(c) = conns.get_mut(&conn) {
                        c.paused = !resume;
                        if resume && !c.reader.window_open() {
                            arm_recv(&mut driver, c);
                        }
                    }
                }
            }
        }
    }

    // Teardown: the driver (or the kernel behind it) may access every
    // open recv window until its op completes, so drain first and only
    // then drop connection state. Bytes a canceled recv landed are
    // moot — each conn is EOF'd at its current seq. Then retire every
    // connection (the SD writer closes each once its owed responses
    // are written), including registrations queued but never adopted.
    let drained = driver.drain();
    let live = conns.len() as u64;
    for (_, c) in conns.drain() {
        shared.sd.send_eof(c.conn, c.seq);
        if !drained && c.reader.window_open() {
            // Undrained in-flight op: leak the reader so its window
            // stays allocated for as long as the process lives.
            std::mem::forget(c.reader);
        }
    }
    shared.stats.reactor_conns.sub(live);
    while let Ok(cmd) = cmd_rx.try_recv() {
        if let ReactorCmd::Register { conn, .. } = cmd {
            shared.sd.send_eof(conn, 0);
        }
    }
}
