//! Reactor connection plane: the server's ingress half.
//!
//! A fixed pool of reactor threads (default `min(4, cores)`) carries
//! every connection: each reactor owns an
//! epoll-style readiness loop (the vendored `mio` compat shim), a set
//! of per-connection [`ConnState`] machines, and a command queue for
//! registrations. On readiness a connection's socket is burst-read
//! nonblockingly — every complete frame is carved by the connection's
//! [`FrameReader`] (partial-frame bytes stay buffered, so a read that
//! ends mid-frame never desyncs the stream) — and the tagged frames
//! go into the shared RX ring with one `push_burst` and one doorbell
//! ring. Ring overflow is
//! answered at drop time with empty response frames so the connection's
//! sequence numbering never develops a hole (the SD writer's reorder
//! buffer advances past every dropped frame).
//!
//! Reactor 0 additionally owns the listener, registered for readiness
//! like any other source — accepting costs an event, not a 5 ms
//! sleep-poll. New connections round-robin across the pool via
//! per-reactor command queues, kicked by a [`Waker`]. Shutdown is also
//! waker-driven: an idle server tears down in microseconds, and every
//! still-registered connection is retired with an `Eof` message so the
//! SD writer can close it.

use crate::codec::ProtocolKind;
use crate::nic::FrameRing;
use crate::sd::SdPlane;
use crate::server::{
    Doorbell, FrameReader, IoBackend, ReadReady, ServerStats, TaggedFrame, READ_CHUNK,
};
use crossbeam::channel::{Receiver, Sender};
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Token of each reactor's waker.
const WAKER_TOKEN: Token = Token(0);
/// Listener tokens (reactor 0 only) start here:
/// `LISTENER_TOKEN_BASE + listener index`, one per `--listen` front
/// door.
const LISTENER_TOKEN_BASE: usize = 1;
/// Most listeners one server may bind — the token space reserved for
/// them between the waker and the first connection.
pub(crate) const MAX_LISTENERS: usize = 15;
/// Connection tokens start here: `CONN_TOKEN_BASE + conn id`.
const CONN_TOKEN_BASE: usize = LISTENER_TOKEN_BASE + MAX_LISTENERS;

/// Bytes one connection may burst-read per readiness wakeup. A firehose
/// connection yields after this much; level-triggered registration
/// re-reports it on the next poll, so nothing is lost — other
/// connections just get a turn first.
const READ_BUDGET: usize = 8 * READ_CHUNK;

/// Fallback poll timeout. Wakeups (frames, registrations, shutdown) are
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
    /// Which syscall backend this plane resolved at spawn. Epoll keeps
    /// sockets nonblocking and burst-reads on readiness; uring keeps
    /// sockets **blocking** (io_uring poll-arms them internally — a
    /// nonblocking socket would complete recv SQEs with `EAGAIN`
    /// instead) and keeps one recv SQE in flight per connection.
    pub(crate) backend: IoBackend,
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
    /// connection's READ interest — the SD plane's slow-consumer
    /// backpressure actuator.
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
/// each poll loop for shutdown.
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
struct ConnState {
    conn: u64,
    stream: TcpStream,
    reader: FrameReader,
    /// The protocol the connection's listener speaks (stamped at
    /// accept time; every carved request is tagged with it).
    proto: ProtocolKind,
    /// Next sequence number to assign to a carved frame.
    seq: u64,
    /// READ interest is currently deregistered (SD backpressure).
    paused: bool,
}

/// Listener state, owned by reactor 0. `listeners` is index-aligned
/// with the registration tokens (`LISTENER_TOKEN_BASE + index`); a
/// fatally broken listener is retired in place (`None`) while the rest
/// keep accepting.
struct Acceptor {
    listeners: Vec<Option<(TcpListener, ProtocolKind)>>,
    next_conn: u64,
    /// Command queues of every reactor (index-aligned with the pool).
    peers: Vec<Sender<ReactorCmd>>,
    peer_wakers: Vec<Arc<Waker>>,
}

impl Acceptor {
    /// Whether any listener is still accepting.
    fn any_alive(&self) -> bool {
        self.listeners.iter().any(Option::is_some)
    }
}

/// The reactor pool's polls and command queues, built *before* any
/// thread spawns so other planes (the SD egress shards) can hold
/// command handles from birth.
pub(crate) struct ReactorScaffold {
    polls: Vec<Poll>,
    wakers: Vec<Arc<Waker>>,
    cmd_txs: Vec<Sender<ReactorCmd>>,
    cmd_rxs: Vec<Receiver<ReactorCmd>>,
}

/// Cross-plane handle to the reactor pool's command queues: lets the SD
/// egress shards pause/resume a connection's READ interest without
/// touching reactor state directly.
pub(crate) struct ReactorHandles {
    cmd_txs: Vec<Sender<ReactorCmd>>,
    wakers: Vec<Arc<Waker>>,
}

impl ReactorHandles {
    /// Ask the reactor owning `conn` to pause or resume its READ
    /// interest. Routing mirrors the accept-time round-robin, so the
    /// command lands on the thread that owns the connection.
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

/// Build `n` reactors' polls, wakers, and command queues (no threads
/// yet). The scaffold is consumed by [`spawn_reactor_pool`]; the
/// handles go to whoever needs the command path.
pub(crate) fn build_reactor_scaffold(
    n: usize,
) -> std::io::Result<(ReactorScaffold, ReactorHandles)> {
    let n = n.max(1);
    let mut polls = Vec::with_capacity(n);
    let mut wakers = Vec::with_capacity(n);
    let mut cmd_txs = Vec::with_capacity(n);
    let mut cmd_rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(poll.registry(), WAKER_TOKEN)?);
        let (tx, rx) = crossbeam::channel::unbounded::<ReactorCmd>();
        polls.push(poll);
        wakers.push(waker);
        cmd_txs.push(tx);
        cmd_rxs.push(rx);
    }
    let handles = ReactorHandles {
        cmd_txs: cmd_txs.clone(),
        wakers: wakers.clone(),
    };
    Ok((
        ReactorScaffold {
            polls,
            wakers,
            cmd_txs,
            cmd_rxs,
        },
        handles,
    ))
}

/// Spawn the pool over a prebuilt scaffold, with the accept loop folded
/// into reactor 0.
pub(crate) fn spawn_reactor_pool(
    listeners: Vec<(TcpListener, ProtocolKind)>,
    scaffold: ReactorScaffold,
    shared: ReactorShared,
) -> std::io::Result<ReactorPool> {
    let ReactorScaffold {
        polls,
        wakers,
        cmd_txs,
        cmd_rxs,
    } = scaffold;
    let n = polls.len();
    shared
        .stats
        .reactor_threads
        .store(n as u64, Ordering::Relaxed);

    debug_assert!((1..=MAX_LISTENERS).contains(&listeners.len()));
    // Listeners stay nonblocking under both backends: the epoll loop
    // accepts on readiness events, the uring loop on `POLL_ADD`
    // completions — and both accept-until-`WouldBlock`.
    for (i, (listener, _)) in listeners.iter().enumerate() {
        listener.set_nonblocking(true)?;
        if shared.backend == IoBackend::Epoll {
            polls[0].registry().register(
                listener,
                Token(LISTENER_TOKEN_BASE + i),
                Interest::READABLE,
            )?;
        }
    }
    let mut acceptor = Some(Acceptor {
        listeners: listeners.into_iter().map(Some).collect(),
        next_conn: 0,
        peers: cmd_txs,
        peer_wakers: wakers.clone(),
    });

    let mut threads = Vec::with_capacity(n);
    for (idx, (poll, cmd_rx)) in polls.into_iter().zip(cmd_rxs).enumerate() {
        let acceptor = if idx == 0 { acceptor.take() } else { None };
        let shared = shared.clone();
        let waker = Arc::clone(&wakers[idx]);
        threads.push(
            std::thread::Builder::new()
                .name(format!("dido-reactor-{idx}"))
                .spawn(move || match shared.backend {
                    IoBackend::Epoll => run_reactor(idx, poll, cmd_rx, acceptor, &shared),
                    IoBackend::Uring => {
                        run_reactor_uring(idx, poll, waker, cmd_rx, acceptor, &shared)
                    }
                })?,
        );
    }
    Ok(ReactorPool { threads, wakers })
}

fn run_reactor(
    idx: usize,
    mut poll: Poll,
    cmd_rx: Receiver<ReactorCmd>,
    mut acceptor: Option<Acceptor>,
    shared: &ReactorShared,
) {
    let mut events = Events::with_capacity(1024);
    let mut ready: Vec<Token> = Vec::new();
    let mut conns: HashMap<usize, ConnState> = HashMap::new();
    let mut burst: Vec<bytes::Bytes> = Vec::new();
    let mut tagged: Vec<TaggedFrame> = Vec::new();
    let mut adopted: Vec<(u64, TcpStream, ProtocolKind)> = Vec::new();
    loop {
        if poll.poll(&mut events, Some(POLL_TIMEOUT)).is_err() {
            // A broken selector cannot make progress; treat it like
            // shutdown so the server tears down instead of spinning.
            break;
        }
        // I/O syscalls this pass: the poll itself plus every read the
        // ready handlers issue — the epoll side of the backends'
        // syscalls-per-query comparison.
        let mut sys = 1u64;
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        if !events.is_empty() {
            shared.stats.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
        }
        ready.clear();
        ready.extend(events.iter().map(|e| e.token()));
        for &tok in &ready {
            match tok {
                WAKER_TOKEN => {} // registrations are drained below
                Token(t) if t < CONN_TOKEN_BASE => {
                    let lidx = t - LISTENER_TOKEN_BASE;
                    if let Some(a) = acceptor.as_mut() {
                        adopted.clear();
                        let alive = accept_ready(a, lidx, idx, shared, true, &mut adopted);
                        for (conn, stream, proto) in adopted.drain(..) {
                            register_conn(&poll, &mut conns, conn, stream, proto, shared);
                        }
                        if !alive {
                            // Fatal listener error: stop accepting on
                            // this front door but keep serving live
                            // connections (and the other listeners).
                            if let Some((listener, _)) = a.listeners[lidx].take() {
                                let _ = poll.registry().deregister(&listener);
                            }
                            if !a.any_alive() {
                                acceptor = None;
                            }
                        }
                    }
                }
                Token(tok) => handle_conn_ready(
                    tok,
                    &poll,
                    &mut conns,
                    &mut burst,
                    &mut tagged,
                    shared,
                    &mut sys,
                ),
            }
        }
        shared.stats.ring_enters.fetch_add(sys, Ordering::Relaxed);
        // Wakeups coalesce, so the command queue is drained every pass
        // rather than only on a waker event.
        while let Ok(cmd) = cmd_rx.try_recv() {
            match cmd {
                ReactorCmd::Register {
                    conn,
                    stream,
                    proto,
                } => {
                    register_conn(&poll, &mut conns, conn, stream, proto, shared);
                }
                ReactorCmd::SetRead { conn, resume } => {
                    set_read_interest(&poll, &mut conns, conn, resume, shared);
                }
            }
        }
    }
    // Shutdown: retire every connection (the SD writer closes each once
    // its owed responses are written), including registrations that
    // were queued but never adopted.
    let live = conns.len() as u64;
    for (_, c) in conns.drain() {
        shared.sd.send_eof(c.conn, c.seq);
    }
    shared
        .stats
        .reactor_conns
        .fetch_sub(live, Ordering::Relaxed);
    while let Ok(cmd) = cmd_rx.try_recv() {
        if let ReactorCmd::Register { conn, .. } = cmd {
            shared.sd.send_eof(conn, 0);
        }
    }
}

/// Apply an SD-plane backpressure command: deregister a paused
/// connection's READ interest, or re-register it on resume. A resume
/// that cannot re-register retires the connection (it would otherwise
/// be stranded forever — no readiness events, no EOF).
fn set_read_interest(
    poll: &Poll,
    conns: &mut HashMap<usize, ConnState>,
    conn: u64,
    resume: bool,
    shared: &ReactorShared,
) {
    let tok = CONN_TOKEN_BASE + conn as usize;
    let Some(c) = conns.get_mut(&tok) else {
        return; // already retired; the SD plane learns via Eof
    };
    if resume && c.paused {
        if poll
            .registry()
            .register(&c.stream, Token(tok), Interest::READABLE)
            .is_ok()
        {
            c.paused = false;
        } else {
            let c = conns.remove(&tok).expect("conn just found");
            shared.sd.send_eof(c.conn, c.seq);
            shared.stats.reactor_conns.fetch_sub(1, Ordering::Relaxed);
        }
    } else if !resume && !c.paused {
        let _ = poll.registry().deregister(&c.stream);
        c.paused = true;
    }
}

/// Accept until listener `lidx` would block, routing each connection to
/// its round-robin owner: remote reactors get a `Register` command,
/// this reactor's own share lands in `adopted` for the caller to
/// register backend-appropriately. Every accepted connection is stamped
/// with the listener's [`ProtocolKind`]. `nonblocking` selects the
/// accepted socket's mode (epoll needs nonblocking reads; the uring
/// backend must keep sockets blocking so recv SQEs poll-arm instead of
/// completing with `EAGAIN`). Returns whether the listener is still
/// usable.
fn accept_ready(
    a: &mut Acceptor,
    lidx: usize,
    idx: usize,
    shared: &ReactorShared,
    nonblocking: bool,
    adopted: &mut Vec<(u64, TcpStream, ProtocolKind)>,
) -> bool {
    let Some((listener, proto)) = a.listeners.get(lidx).and_then(Option::as_ref) else {
        return false; // stale event for a retired listener
    };
    let proto = *proto;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                // accept(2) does not inherit the listener's nonblocking
                // flag on Linux, so each mode sets what it needs.
                if nonblocking && stream.set_nonblocking(true).is_err() {
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
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                shared.stats.proto_conns[proto.index()].fetch_add(1, Ordering::Relaxed);
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

fn register_conn(
    poll: &Poll,
    conns: &mut HashMap<usize, ConnState>,
    conn: u64,
    stream: TcpStream,
    proto: ProtocolKind,
    shared: &ReactorShared,
) {
    let tok = CONN_TOKEN_BASE + conn as usize;
    if poll
        .registry()
        .register(&stream, Token(tok), Interest::READABLE)
        .is_err()
    {
        // Unwatchable: retire immediately so the SD writer closes it.
        shared.sd.send_eof(conn, 0);
        return;
    }
    conns.insert(
        tok,
        ConnState {
            conn,
            stream,
            reader: FrameReader::with_proto(proto),
            proto,
            seq: 0,
            paused: false,
        },
    );
    shared.stats.reactor_conns.fetch_add(1, Ordering::Relaxed);
}

/// Tag a carved burst with sequence numbers and push it into the
/// shared RX ring with one lock and one doorbell ring; the full-ring
/// tail stays in `tagged` and is answered with empty frames at drop
/// time so the connection's sequence numbering never gains a hole.
/// Shared verbatim by both backends — only how bytes reach the
/// [`FrameReader`] differs.
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
    shared.stats.record_read_burst(burst.len() as u64);
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
        shared
            .stats
            .dropped_frames
            .fetch_add(tagged.len() as u64, Ordering::Relaxed);
        shared.sd.overflow_answers(conn, tagged);
    }
}

/// RV work for one ready connection: burst-read, carve, tag, push into
/// the shared ring (drop-answering overflow), retire on EOF/error.
#[allow(clippy::too_many_arguments)]
fn handle_conn_ready(
    tok: usize,
    poll: &Poll,
    conns: &mut HashMap<usize, ConnState>,
    burst: &mut Vec<bytes::Bytes>,
    tagged: &mut Vec<TaggedFrame>,
    shared: &ReactorShared,
    sys: &mut u64,
) {
    let Some(c) = conns.get_mut(&tok) else {
        return; // already retired this pass (spurious/stale event)
    };
    burst.clear();
    let status = c.reader.read_ready(&mut c.stream, burst, READ_BUDGET, sys);
    publish_burst(c.conn, c.proto, &mut c.seq, burst, tagged, shared);
    if !matches!(status, Ok(ReadReady::Open)) {
        // Clean EOF, mid-frame EOF, or a fatal read/frame error: either
        // way the connection is done producing frames.
        let c = conns.remove(&tok).expect("conn just found");
        if !c.paused {
            let _ = poll.registry().deregister(&c.stream);
        }
        shared.sd.send_eof(c.conn, c.seq);
        shared.stats.reactor_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// io_uring backend: batched-submission RV loop.
//
// Where the epoll loop pays one `epoll_wait` plus one `read` per ready
// connection per wakeup, this loop keeps one recv SQE in flight per
// connection (targeting the connection's `FrameReader` window) and
// reaps a whole batch of completions with a single `io_uring_enter`.
// The waker eventfd and the listener are folded into the same ring via
// one-shot `POLL_ADD` SQEs, re-armed after each completion, so the
// thread blocks in exactly one place. Everything downstream of the
// reader — carving, tagging, `push_burst`, overflow answering, EOF
// retirement — is shared verbatim with the epoll path.

/// CQE user-data kind tags (top 8 bits; low 56 bits carry the conn id
/// for `RECV`).
const UD_KIND_SHIFT: u32 = 56;
const UD_DATA_MASK: u64 = (1 << UD_KIND_SHIFT) - 1;
const UD_WAKER: u64 = 1;
const UD_LISTENER: u64 = 2;
const UD_RECV: u64 = 3;
const UD_CANCEL: u64 = 4;

fn ud(kind: u64, data: u64) -> u64 {
    (kind << UD_KIND_SHIFT) | (data & UD_DATA_MASK)
}

// Raw errnos the CQE paths discriminate on (CQE `res` is a negated
// errno; there is no `io::Error` to match kinds against).
const ECANCELED: i32 = 125;
const EAGAIN: i32 = 11;
const EINTR_RAW: i32 = 4;

/// SQ slots per reactor ring. Arms (recv re-arms, poll re-arms,
/// cancels) are pushed incrementally and flushed whenever the queue
/// fills, so this bounds batching, not connection count.
const URING_SQ: u32 = 1024;
/// CQ slots; sized above the SQ so completion bursts from thousands of
/// armed connections do not hit the kernel's overflow path in steady
/// state (`FEAT_NODROP` keeps even that lossless).
const URING_CQ: u32 = 4096;

/// Per-connection state in the uring reactor. No `paused`/epoll
/// registration pair here: backpressure simply stops re-arming the
/// recv, and resume arms it again.
struct UringConn {
    conn: u64,
    stream: TcpStream,
    reader: FrameReader,
    /// The protocol the connection's listener speaks.
    proto: ProtocolKind,
    /// Next sequence number to assign to a carved frame.
    seq: u64,
    /// READ interest paused by SD backpressure: completions still
    /// commit (one in-flight window may land after the pause), but the
    /// recv is not re-armed until resume.
    paused: bool,
    /// A recv SQE is in flight; its window owns the reader's tail.
    recv_inflight: bool,
}

/// Push a recv SQE for `c`'s next reader window, flushing the SQ when
/// full. An `Err` means the ring itself is broken (fatal for the
/// reactor).
fn arm_recv(ring: &mut uring::Uring, c: &mut UringConn, inflight: &mut u64) -> std::io::Result<()> {
    let (ptr, len) = c.reader.begin_recv();
    let fd = c.stream.as_raw_fd();
    // SAFETY: the window stays valid until the CQE is handled —
    // `recv_inflight` gates every other touch of this reader, and
    // teardown drains in-flight ops before freeing connections.
    while !unsafe { ring.push_recv(fd, ptr, len, ud(UD_RECV, c.conn)) } {
        ring.submit()?;
    }
    c.recv_inflight = true;
    *inflight += 1;
    Ok(())
}

/// Push a one-shot `POLL_ADD` readable watch, flushing the SQ when
/// full.
fn arm_poll_in(
    ring: &mut uring::Uring,
    fd: std::os::fd::RawFd,
    user_data: u64,
    inflight: &mut u64,
) -> std::io::Result<()> {
    while !ring.push_poll_add(fd, uring::POLL_IN, user_data) {
        ring.submit()?;
    }
    *inflight += 1;
    Ok(())
}

/// Retire a uring-side connection: EOF to the SD plane (which owns the
/// write half and the close) and drop the read state.
fn retire_uring_conn(conns: &mut HashMap<u64, UringConn>, conn: u64, shared: &ReactorShared) {
    if let Some(c) = conns.remove(&conn) {
        shared.sd.send_eof(c.conn, c.seq);
        shared.stats.reactor_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Adopt a connection into the uring reactor: insert state and arm its
/// first recv. A ring failure retires it immediately (EOF) so the SD
/// plane closes the socket.
#[allow(clippy::too_many_arguments)]
fn register_conn_uring(
    ring: &mut uring::Uring,
    conns: &mut HashMap<u64, UringConn>,
    conn: u64,
    stream: TcpStream,
    proto: ProtocolKind,
    shared: &ReactorShared,
    inflight: &mut u64,
) {
    let mut c = UringConn {
        conn,
        stream,
        reader: FrameReader::with_proto(proto),
        proto,
        seq: 0,
        paused: false,
        recv_inflight: false,
    };
    if arm_recv(ring, &mut c, inflight).is_err() {
        shared.sd.send_eof(conn, 0);
        return;
    }
    conns.insert(conn, c);
    shared.stats.reactor_conns.fetch_add(1, Ordering::Relaxed);
}

/// Handle one recv completion: commit the window, publish the carved
/// burst, and re-arm — or retire on EOF/error. Mirrors
/// `handle_conn_ready` outcome-for-outcome so the reactor-plane test
/// suite holds on both backends.
#[allow(clippy::too_many_arguments)]
fn handle_recv_cqe(
    ring: &mut uring::Uring,
    conns: &mut HashMap<u64, UringConn>,
    conn: u64,
    res: i32,
    burst: &mut Vec<bytes::Bytes>,
    tagged: &mut Vec<TaggedFrame>,
    shared: &ReactorShared,
    inflight: &mut u64,
) {
    let Some(c) = conns.get_mut(&conn) else {
        return; // raced with retirement (e.g. a canceled teardown op)
    };
    c.recv_inflight = false;
    if res < 0 {
        c.reader.abort_recv();
        match -res {
            // Canceled: pause/teardown decided this recv should not
            // land; the conn stays (teardown retires it separately).
            ECANCELED => return,
            // Spurious wakeups: re-arm unless paused.
            EAGAIN | EINTR_RAW => {
                if !c.paused && arm_recv(ring, c, inflight).is_err() {
                    retire_uring_conn(conns, conn, shared);
                }
                return;
            }
            // Fatal socket error (reset, aborted, …): done producing.
            _ => {
                retire_uring_conn(conns, conn, shared);
                return;
            }
        }
    }
    burst.clear();
    let status = c.reader.complete_recv(res as usize, burst);
    publish_burst(c.conn, c.proto, &mut c.seq, burst, tagged, shared);
    match status {
        Ok(ReadReady::Open) => {
            if !c.paused && arm_recv(ring, c, inflight).is_err() {
                retire_uring_conn(conns, conn, shared);
            }
        }
        // Clean EOF, mid-frame EOF, or a frame error: retire, exactly
        // like the epoll path.
        _ => retire_uring_conn(conns, conn, shared),
    }
}

/// The uring reactor loop. `_poll` is kept alive (unused) so the
/// scaffold's waker registration outlives the thread; the waker's
/// eventfd is watched through the ring instead.
fn run_reactor_uring(
    idx: usize,
    _poll: Poll,
    waker: Arc<Waker>,
    cmd_rx: Receiver<ReactorCmd>,
    mut acceptor: Option<Acceptor>,
    shared: &ReactorShared,
) {
    let mut conns: HashMap<u64, UringConn> = HashMap::new();
    let mut burst: Vec<bytes::Bytes> = Vec::new();
    let mut tagged: Vec<TaggedFrame> = Vec::new();
    let mut adopted: Vec<(u64, TcpStream, ProtocolKind)> = Vec::new();
    let mut cqes: Vec<uring::Cqe> = Vec::with_capacity(URING_CQ as usize);
    // Outstanding SQEs (recvs + poll watches + cancels): teardown must
    // drain this to zero before connection buffers may be freed.
    let mut inflight: u64 = 0;
    let waker_fd = waker.as_raw_fd();

    // The probe passed at spawn, so ring setup failing here is a local
    // resource problem (fd limits); behave like an immediate shutdown
    // so accepted work is EOF'd rather than wedged.
    let ring = uring::Uring::new(URING_SQ, URING_CQ);
    let mut ring = match ring {
        Ok(r) => r,
        Err(_) => {
            for (_, c) in conns.drain() {
                shared.sd.send_eof(c.conn, c.seq);
            }
            while let Ok(cmd) = cmd_rx.try_recv() {
                if let ReactorCmd::Register { conn, .. } = cmd {
                    shared.sd.send_eof(conn, 0);
                }
            }
            return;
        }
    };

    let mut fatal = arm_poll_in(&mut ring, waker_fd, ud(UD_WAKER, 0), &mut inflight).is_err();
    if !fatal {
        if let Some(a) = acceptor.as_ref() {
            // One POLL_ADD per front door; the CQE's user-data low bits
            // carry the listener index.
            for (lidx, slot) in a.listeners.iter().enumerate() {
                if let Some((listener, _)) = slot {
                    if arm_poll_in(
                        &mut ring,
                        listener.as_raw_fd(),
                        ud(UD_LISTENER, lidx as u64),
                        &mut inflight,
                    )
                    .is_err()
                    {
                        fatal = true;
                        break;
                    }
                }
            }
        }
    }

    while !fatal {
        let enters_before = ring.enters();
        if ring.submit_and_wait(1, Some(POLL_TIMEOUT)).is_err() {
            break;
        }
        cqes.clear();
        ring.reap(&mut cqes);
        shared
            .stats
            .ring_enters
            .fetch_add(ring.enters() - enters_before, Ordering::Relaxed);
        if !cqes.is_empty() {
            shared.stats.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
            shared.stats.record_cqe_batch(cqes.len() as u64);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            // The just-reaped batch is not getting processed; settle
            // its accounting so the teardown drain below terminates as
            // soon as the remaining (truly in-flight) ops complete.
            for cqe in &cqes {
                inflight -= 1;
                if cqe.user_data >> UD_KIND_SHIFT == UD_RECV {
                    if let Some(c) = conns.get_mut(&(cqe.user_data & UD_DATA_MASK)) {
                        c.recv_inflight = false;
                        c.reader.abort_recv();
                    }
                }
            }
            break;
        }
        let mut rearm_waker = false;
        // Bitmask of listener indices whose POLL_ADD completed this
        // pass (MAX_LISTENERS ≤ 15, so a u64 is plenty).
        let mut rearm_listeners = 0u64;
        for &cqe in &cqes {
            inflight -= 1;
            match cqe.user_data >> UD_KIND_SHIFT {
                UD_WAKER => {
                    // POLL_ADD consumes nothing: reset the eventfd by
                    // hand, then re-arm below (after the drain, so a
                    // wake posted in between still completes promptly —
                    // readiness is level-based at arm time).
                    uring::drain_notify_fd(waker_fd);
                    rearm_waker = true;
                }
                UD_LISTENER => rearm_listeners |= 1 << (cqe.user_data & UD_DATA_MASK),
                UD_RECV => handle_recv_cqe(
                    &mut ring,
                    &mut conns,
                    cqe.user_data & UD_DATA_MASK,
                    cqe.res,
                    &mut burst,
                    &mut tagged,
                    shared,
                    &mut inflight,
                ),
                _ => {} // a cancel op's own completion
            }
        }
        for lidx in 0..MAX_LISTENERS {
            if rearm_listeners & (1 << lidx) == 0 {
                continue;
            }
            let Some(a) = acceptor.as_mut() else { break };
            adopted.clear();
            let alive = accept_ready(a, lidx, idx, shared, false, &mut adopted);
            for (conn, stream, proto) in adopted.drain(..) {
                register_conn_uring(
                    &mut ring,
                    &mut conns,
                    conn,
                    stream,
                    proto,
                    shared,
                    &mut inflight,
                );
            }
            if !alive {
                // Retire this front door; the rest keep accepting.
                a.listeners[lidx] = None;
                if !a.any_alive() {
                    acceptor = None;
                }
            } else if let Some((listener, _)) = a.listeners[lidx].as_ref() {
                if arm_poll_in(
                    &mut ring,
                    listener.as_raw_fd(),
                    ud(UD_LISTENER, lidx as u64),
                    &mut inflight,
                )
                .is_err()
                {
                    fatal = true;
                }
            }
        }
        if rearm_waker && arm_poll_in(&mut ring, waker_fd, ud(UD_WAKER, 0), &mut inflight).is_err()
        {
            fatal = true;
        }
        // Commands are drained every pass (wakeups coalesce), exactly
        // like the epoll loop.
        while let Ok(cmd) = cmd_rx.try_recv() {
            match cmd {
                ReactorCmd::Register {
                    conn,
                    stream,
                    proto,
                } => {
                    register_conn_uring(
                        &mut ring,
                        &mut conns,
                        conn,
                        stream,
                        proto,
                        shared,
                        &mut inflight,
                    );
                }
                ReactorCmd::SetRead { conn, resume } => {
                    if let Some(c) = conns.get_mut(&conn) {
                        if resume && c.paused {
                            c.paused = false;
                            if !c.recv_inflight && arm_recv(&mut ring, c, &mut inflight).is_err() {
                                retire_uring_conn(&mut conns, conn, shared);
                            }
                        } else if !resume {
                            c.paused = true;
                        }
                    }
                }
            }
        }
    }

    // Teardown. The kernel owns every in-flight recv's buffer until its
    // CQE arrives (even a canceled op completes), so: cancel everything,
    // drain the ring to zero in-flight, and only then drop connection
    // state. If the drain cannot finish, the affected readers are
    // leaked rather than freed out from under a pending DMA-style
    // write.
    let mut cancels: Vec<u64> = Vec::new();
    cancels.push(ud(UD_WAKER, 0));
    if let Some(a) = acceptor.as_ref() {
        for (lidx, slot) in a.listeners.iter().enumerate() {
            if slot.is_some() {
                cancels.push(ud(UD_LISTENER, lidx as u64));
            }
        }
    }
    for c in conns.values() {
        if c.recv_inflight {
            cancels.push(ud(UD_RECV, c.conn));
        }
    }
    for target in cancels {
        while !ring.push_cancel(target, ud(UD_CANCEL, 0)) {
            if ring.submit().is_err() {
                break;
            }
        }
        inflight += 1;
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while inflight > 0 && std::time::Instant::now() < deadline {
        if ring
            .submit_and_wait(1, Some(Duration::from_millis(100)))
            .is_err()
        {
            break;
        }
        cqes.clear();
        ring.reap(&mut cqes);
        for cqe in &cqes {
            inflight = inflight.saturating_sub(1);
            if cqe.user_data >> UD_KIND_SHIFT == UD_RECV {
                if let Some(c) = conns.get_mut(&(cqe.user_data & UD_DATA_MASK)) {
                    // Close the window; the bytes (if any) are moot —
                    // dispatchers drain the ring after reactors join,
                    // but this conn is about to be EOF'd at its current
                    // seq anyway.
                    c.recv_inflight = false;
                    c.reader.abort_recv();
                }
            }
        }
    }
    let live = conns.len() as u64;
    for (_, c) in conns.drain() {
        shared.sd.send_eof(c.conn, c.seq);
        if c.recv_inflight {
            // Undrained in-flight op: leak the reader so its window
            // stays allocated for as long as the process lives.
            std::mem::forget(c.reader);
        }
    }
    shared
        .stats
        .reactor_conns
        .fetch_sub(live, Ordering::Relaxed);
    while let Ok(cmd) = cmd_rx.try_recv() {
        if let ReactorCmd::Register { conn, .. } = cmd {
            shared.sd.send_eof(conn, 0);
        }
    }
}
