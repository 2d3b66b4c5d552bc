//! SD egress plane: sharded, completion-driven response writers.
//!
//! A small fixed pool of *shards* (see [`effective_sd_writers`]) owns
//! the write side: connections map to shards by id, and each shard owns
//! its connections' write halves, reorder buffers, and one
//! [`IoDriver`]. The loop is written once and runs on whichever adapter
//! the server resolved (see `crate::driver`).
//!
//! * **One `writev` in flight per connection.** In-order runs coalesce
//!   into a [`WriteQueue`]; servicing a connection submits one vectored
//!   write over the queue's front (its iovec array and buffers pinned
//!   until the completion) and the completion advances the queue and
//!   resubmits any remainder. A completion short of what was submitted
//!   means the socket buffer filled (counted in
//!   `ServerStats::sd_writable_parks`); the shard keeps servicing every
//!   other socket meanwhile.
//! * **One stall clock, measured from submission.** An op outstanding
//!   past [`BatchConfig::sd_stall_timeout`] is a wedged peer: it is
//!   canceled and only that connection is retired
//!   (`ServerStats::sd_stall_retired`). Any progress completes the op,
//!   so the deadline measures *continuous* stall.
//! * **Buffer-reuse rings.** Encoded-response `BytesMut` buffers cycle
//!   through a per-shard [`BufRing`] (pelikan `buf_ring` style):
//!   dispatchers draw recycled buffers when encoding, the shard returns
//!   them after the bytes hit the wire, and each connection's iovec
//!   array is allocated once — steady-state egress performs zero
//!   allocations (audited by `crates/net/tests/sd_alloc.rs`).
//! * **Slow-consumer backpressure.** Each connection's not-yet-written
//!   bytes are tracked; crossing [`BatchConfig::sd_hiwater_bytes`]
//!   pauses that connection's reads in its reactor (resumed at half the
//!   mark), so an un-drained client is bounded by the watermark plus
//!   in-flight frames instead of growing without limit.
//!
//! The ordering contract: `Open` reaches a shard's channel before any
//! run or `Eof` for that connection can (the reactor sends `Open`
//! before registering the read half), and the channel is FIFO, so
//! per-connection sequence numbers reorder deterministically.
//!
//! [`BatchConfig::sd_stall_timeout`]: crate::BatchConfig::sd_stall_timeout
//! [`BatchConfig::sd_hiwater_bytes`]: crate::BatchConfig::sd_hiwater_bytes

use crate::codec::encode_overflow_into;
use crate::driver::{ud, ud_id, ud_kind, Completion, IoDriver, IoVec, Waker, ECANCELED, EINTR};
use crate::reactor::ReactorHandles;
use crate::server::TaggedFrame;
use crate::stats::ServerStats;
use bytes::BytesMut;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Completion `user_data` kind of a connection's writev (see
/// `driver::ud`); the id bits carry the connection id.
const UD_WRITE: u64 = 3;

/// Fallback wait timeout: wakeups are event-driven, this only bounds
/// how long a lost signal (or the teardown disconnect, which cannot
/// wake an already-parked wait) could go unnoticed.
const POLL_TIMEOUT: Duration = Duration::from_millis(500);

/// Most buffers one vectored write submits.
const SD_IOV_MAX: usize = 64;

/// Recycled buffers one shard's ring retains.
const BUF_RING_SLOTS: usize = 1024;

/// Largest buffer the ring recycles; responses that ballooned past this
/// are dropped so one huge frame cannot pin its capacity forever.
const BUF_MAX_RECYCLE: usize = 256 << 10;

/// Recycled dispatch-batch vectors one shard retains.
const MSG_POOL_SLOTS: usize = 32;

/// Resolve a configured SD writer count: `0` means `min(2, cores/2)`
/// with a floor of one — egress is cheaper than framing or dispatch, so
/// it gets a small slice of the machine by default.
#[must_use]
pub(crate) fn effective_sd_writers(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        (std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            / 2)
        .clamp(1, 2)
    }
}

/// A contiguous range of response frames for one connection, already in
/// wire form (length prefixes included): frames `first_seq ..
/// first_seq + count` back-to-back in `bytes`. The buffer is drawn from
/// and returned to a shard's [`BufRing`].
pub(crate) struct ResponseRun {
    pub(crate) first_seq: u64,
    pub(crate) count: u64,
    pub(crate) bytes: BytesMut,
}

/// One dispatch's output for a single shard: `(conn, run)` pairs in
/// slot order. The vector itself is pooled (see [`SdPlane::take_batch`])
/// so the dispatch hot path allocates nothing.
pub(crate) type RunBatch = Vec<(u64, ResponseRun)>;

/// Messages to one SD shard.
pub(crate) enum SdMsg {
    /// A connection was accepted; `stream` is its write half.
    Open { conn: u64, stream: TcpStream },
    /// Response runs for one connection (reactor overflow answers).
    Runs { conn: u64, runs: Vec<ResponseRun> },
    /// One dispatch's runs for this shard's connections.
    Batch(RunBatch),
    /// The reactor consumed `frames_read` frames total and retired the
    /// read side; the connection closes once every response below that
    /// is on the wire.
    Eof { conn: u64, frames_read: u64 },
}

/// Dense seq-indexed reorder buffer, replacing the old
/// `BTreeMap<u64, (count, bytes)>`: a run whose `first_seq` is `s`
/// lands in slot `s - base` of a flat `VecDeque<Option<_>>`, so insert
/// and the promote-loop's `remove(next)` are O(1) array indexing with
/// no tree-node churn. Seq gaps are bounded by frames in flight between
/// reactor tag time and SD delivery (the RX ring plus one dispatch), so
/// the deque stays small; slots covered by a multi-frame run's tail are
/// simply `None`.
struct ReorderRing {
    slots: VecDeque<Option<(u64, BytesMut)>>,
    /// Sequence number of `slots[0]` (meaningful only when non-empty).
    base: u64,
    /// Number of occupied slots.
    len: usize,
}

impl ReorderRing {
    fn new() -> ReorderRing {
        ReorderRing {
            slots: VecDeque::new(),
            base: 0,
            len: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Park a run at `seq` (its `first_seq`). Duplicate seqs cannot
    /// occur (each frame is tagged once); if one did, the newer run
    /// replaces the older and the caller leaks nothing because the ring
    /// returns the displaced buffer.
    fn insert(&mut self, seq: u64, count: u64, bytes: BytesMut) -> Option<BytesMut> {
        if self.len == 0 {
            self.slots.clear();
            self.base = seq;
        }
        if seq < self.base {
            for _ in 0..(self.base - seq) {
                self.slots.push_front(None);
            }
            self.base = seq;
        }
        let idx = (seq - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace((count, bytes));
        if old.is_none() {
            self.len += 1;
        }
        old.map(|(_, b)| b)
    }

    /// Take the run whose `first_seq` is exactly `seq`, if parked.
    fn remove(&mut self, seq: u64) -> Option<(u64, BytesMut)> {
        if self.len == 0 || seq < self.base {
            return None;
        }
        let idx = (seq - self.base) as usize;
        let run = self.slots.get_mut(idx)?.take()?;
        self.len -= 1;
        // Compact: drop leading holes (freed slots and multi-frame-run
        // tails) so the deque tracks the live window.
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        if self.len == 0 {
            self.slots.clear();
        }
        Some(run)
    }

    /// Drain every parked buffer (retirement path).
    fn drain(&mut self) -> impl Iterator<Item = BytesMut> + '_ {
        self.len = 0;
        self.slots.drain(..).flatten().map(|(_, b)| b)
    }
}

/// A pool of recycled `BytesMut` buffers (pelikan `buf_ring` style).
/// `get` pops a cleared buffer whose capacity survived its last trip to
/// the wire; `put` returns one, dropping it if the ring is full or the
/// buffer outgrew [`BUF_MAX_RECYCLE`]-style bounds. Hit/miss counters
/// feed the egress gauges.
pub struct BufRing {
    free: Mutex<Vec<BytesMut>>,
    slots: usize,
    max_recycle: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufRing {
    /// Ring retaining up to `slots` buffers of at most `max_recycle`
    /// capacity each.
    #[must_use]
    pub fn new(slots: usize, max_recycle: usize) -> BufRing {
        BufRing {
            free: Mutex::new(Vec::with_capacity(slots)),
            slots,
            max_recycle,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Pop a recycled buffer (cleared, capacity preserved), or a fresh
    /// empty one if the ring is dry.
    #[must_use]
    pub fn get(&self) -> BytesMut {
        match self.free.lock().pop() {
            Some(mut b) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                b.clear();
                b
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                BytesMut::new()
            }
        }
    }

    /// Return a buffer to the ring. Buffers that never grew a capacity,
    /// outgrew the recycle bound, or arrive with the ring full are
    /// simply dropped.
    pub fn put(&self, buf: BytesMut) {
        if buf.capacity() == 0 || buf.capacity() > self.max_recycle {
            return;
        }
        let mut free = self.free.lock();
        if free.len() < self.slots {
            free.push(buf);
        }
    }

    /// Buffers served from the ring.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Buffers that had to be freshly allocated.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Per-shard handle held by the plane: the channel, the waker that
/// unparks the shard's poll, and the shard's buffer pools (shared with
/// dispatchers, which draw from them when encoding).
struct SdShardHandle {
    tx: Sender<SdMsg>,
    waker: Arc<Waker>,
    bufs: Arc<BufRing>,
    msgs: Arc<Mutex<Vec<RunBatch>>>,
}

/// The dispatchers' and reactors' handle to the egress plane: routes
/// per-connection traffic to the owning shard. Dropping the last clone
/// closes every shard's channel and wakes it, which is what lets the
/// shard threads exit at teardown.
pub(crate) struct SdPlane {
    shards: Vec<SdShardHandle>,
}

impl SdPlane {
    #[must_use]
    pub(crate) fn n_shards(&self) -> usize {
        self.shards.len()
    }

    #[must_use]
    pub(crate) fn shard_of(&self, conn: u64) -> usize {
        (conn % self.shards.len() as u64) as usize
    }

    /// Draw a recycled encode buffer from `shard`'s ring.
    #[must_use]
    pub(crate) fn get_buf(&self, shard: usize) -> BytesMut {
        self.shards[shard].bufs.get()
    }

    /// Draw a recycled dispatch-batch vector for `shard`.
    #[must_use]
    pub(crate) fn take_batch(&self, shard: usize) -> RunBatch {
        self.shards[shard].msgs.lock().pop().unwrap_or_default()
    }

    /// Send one dispatch's runs to `shard` and wake it.
    pub(crate) fn send_batch(&self, shard: usize, batch: RunBatch) {
        let h = &self.shards[shard];
        if h.tx.send(SdMsg::Batch(batch)).is_ok() {
            let _ = h.waker.wake();
        }
    }

    /// Announce an accepted connection's write half to its shard. Must
    /// happen before the read half registers with a reactor, so the
    /// FIFO channel delivers `Open` before any run or `Eof`.
    pub(crate) fn send_open(&self, conn: u64, stream: TcpStream) {
        let h = &self.shards[self.shard_of(conn)];
        if h.tx.send(SdMsg::Open { conn, stream }).is_ok() {
            let _ = h.waker.wake();
        }
    }

    /// Mark a connection's read side done after `frames_read` frames.
    pub(crate) fn send_eof(&self, conn: u64, frames_read: u64) {
        let h = &self.shards[self.shard_of(conn)];
        if h.tx.send(SdMsg::Eof { conn, frames_read }).is_ok() {
            let _ = h.waker.wake();
        }
    }

    /// Answer ring-overflow drops with empty response frames, one per
    /// dropped request, so the connection's sequence numbering never
    /// develops a hole (see `ServerStats::dropped_frames`). Buffers come
    /// from the owning shard's ring like every other run.
    pub(crate) fn overflow_answers(&self, conn: u64, tagged: &mut Vec<TaggedFrame>) {
        let shard = self.shard_of(conn);
        let runs: Vec<ResponseRun> = tagged
            .drain(..)
            .map(|t| {
                let mut bytes = self.get_buf(shard);
                encode_overflow_into(&mut bytes, t.proto, &t.frame);
                ResponseRun {
                    first_seq: t.seq,
                    count: 1,
                    bytes,
                }
            })
            .collect();
        let h = &self.shards[shard];
        if h.tx.send(SdMsg::Runs { conn, runs }).is_ok() {
            let _ = h.waker.wake();
        }
    }
}

impl Drop for SdPlane {
    fn drop(&mut self) {
        // Close each shard's channel *before* waking it: shard threads
        // hold their own waker clones, so the eventfd outlives this
        // handle and a parked shard observes the disconnect promptly
        // instead of after the fallback poll timeout.
        for h in self.shards.drain(..) {
            let SdShardHandle { tx, waker, .. } = h;
            drop(tx);
            let _ = waker.wake();
        }
    }
}

/// Everything one shard thread needs, built before any thread spawns.
pub(crate) struct SdShardPart<D> {
    driver: D,
    rx: Receiver<SdMsg>,
    bufs: Arc<BufRing>,
    msgs: Arc<Mutex<Vec<RunBatch>>>,
}

/// Shard-loop knobs resolved from `BatchConfig`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SdShardCfg {
    /// Longest one write may stay in flight before the peer is retired.
    pub(crate) stall: Duration,
    /// Pending-bytes mark that pauses the connection's reactor reads.
    pub(crate) hiwater: usize,
    /// Mark below which paused reads resume (half the high water).
    pub(crate) lowater: usize,
}

impl SdShardCfg {
    pub(crate) fn new(stall: Duration, hiwater: usize) -> SdShardCfg {
        let hiwater = hiwater.max(1);
        SdShardCfg {
            stall,
            hiwater,
            lowater: hiwater / 2,
        }
    }
}

/// Build the plane and its per-shard parts (an [`IoDriver`], a channel
/// and buffer pools each). Shard threads are spawned by the caller from
/// the returned parts.
pub(crate) fn build_sd_plane<D: IoDriver>(
    n: usize,
) -> std::io::Result<(SdPlane, Vec<SdShardPart<D>>)> {
    let n = n.max(1);
    let mut shards = Vec::with_capacity(n);
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let driver = D::new()?;
        let (tx, rx) = channel::<SdMsg>();
        let bufs = Arc::new(BufRing::new(BUF_RING_SLOTS, BUF_MAX_RECYCLE));
        let msgs = Arc::new(Mutex::new(Vec::with_capacity(MSG_POOL_SLOTS)));
        shards.push(SdShardHandle {
            tx,
            waker: driver.waker(),
            bufs: Arc::clone(&bufs),
            msgs: Arc::clone(&msgs),
        });
        parts.push(SdShardPart {
            driver,
            rx,
            bufs,
            msgs,
        });
    }
    Ok((SdPlane { shards }, parts))
}

/// One connection's in-order egress queue and the single vectored write
/// that may be in flight over its front — the egress step shared by
/// every adapter (and driven directly by `tests/sd_alloc.rs`).
///
/// The fields are private because the pinned-buffer contract of
/// [`IoDriver::writev`] rests on them: while `in_flight` is `Some`, no
/// buffer is popped, advanced or recycled and the iovec array is not
/// rewritten. Pushing is always allowed — it moves `BytesMut` handles
/// inside the deque, never the heap bytes the iovecs point at.
#[doc(hidden)]
#[derive(Default)]
pub struct WriteQueue {
    /// Runs not yet (fully) written; the front buffer may be partially
    /// consumed (`head_written`).
    bufs: VecDeque<BytesMut>,
    /// Bytes of `bufs.front()` already on the wire.
    head_written: usize,
    /// Reusable iovec array, allocated on the first submission and
    /// recycled for every write after. Boxed, so the array an adapter
    /// reads asynchronously keeps one stable heap address even as the
    /// connection moves around the shard's map.
    iov: Option<Box<[IoVec; SD_IOV_MAX]>>,
    /// The in-flight write: the byte count its iovecs cover and its
    /// submission instant (the stall clock).
    in_flight: Option<(usize, Instant)>,
}

impl WriteQueue {
    /// Append a run's wire bytes.
    pub fn push(&mut self, bytes: BytesMut) {
        self.bufs.push_back(bytes);
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Submit one `writev` over the front of the queue (up to
    /// [`SD_IOV_MAX`] buffers) tagged `user_data`, and start its stall
    /// clock. Returns the submission instant.
    ///
    /// # Panics
    /// If a write is already in flight or the queue is empty.
    pub fn submit<D: IoDriver>(&mut self, driver: &mut D, fd: RawFd, user_data: u64) -> Instant {
        assert!(self.in_flight.is_none() && !self.bufs.is_empty());
        let iov = self.iov.get_or_insert_with(|| {
            Box::new(
                [IoVec {
                    base: std::ptr::null(),
                    len: 0,
                }; SD_IOV_MAX],
            )
        });
        let mut n_iov = 0u32;
        let mut submitted = 0usize;
        for (i, b) in self.bufs.iter().enumerate().take(SD_IOV_MAX) {
            let s: &[u8] = if i == 0 {
                &b[self.head_written..]
            } else {
                &b[..]
            };
            iov[n_iov as usize] = IoVec {
                base: s.as_ptr(),
                len: s.len(),
            };
            submitted += s.len();
            n_iov += 1;
        }
        let since = Instant::now();
        self.in_flight = Some((submitted, since));
        // SAFETY: the pinned-buffer contract (`IoDriver`): `in_flight`
        // (set above, cleared only by `complete`) gates every pop,
        // advance and recycle of the queued buffers and every rewrite
        // of the boxed array, whose heap address is stable; an
        // undrained teardown goes through `leak`.
        unsafe { driver.writev(fd, iov.as_ptr(), n_iov, user_data) };
        since
    }

    /// Apply the in-flight write's completion: `written` bytes (0 for a
    /// failed or canceled op) leave the front of the queue, fully
    /// written buffers return to `pool`. Returns whether the write came
    /// up short with data still queued — the socket buffer filled.
    pub fn complete(&mut self, written: usize, pool: &BufRing) -> bool {
        let Some((submitted, _)) = self.in_flight.take() else {
            return false;
        };
        let mut left = written;
        while left > 0 {
            let avail = self
                .bufs
                .front()
                .expect("bytes written from a buffer")
                .len()
                - self.head_written;
            if left >= avail {
                left -= avail;
                self.head_written = 0;
                pool.put(self.bufs.pop_front().expect("front just measured"));
            } else {
                self.head_written += left;
                left = 0;
            }
        }
        written < submitted && !self.bufs.is_empty()
    }

    /// Return every queued buffer to `pool` (no write may be in flight).
    fn free_into(&mut self, pool: &BufRing) {
        debug_assert!(self.in_flight.is_none());
        for bytes in self.bufs.drain(..) {
            pool.put(bytes);
        }
        self.head_written = 0;
    }

    /// The in-flight write could not be drained: leak the buffers and
    /// the iovec array rather than recycle memory still being read.
    fn leak(&mut self) {
        std::mem::forget(std::mem::take(&mut self.bufs));
        std::mem::forget(self.iov.take());
    }
}

/// Per-connection state inside one SD shard.
struct SdConn {
    stream: TcpStream,
    /// Next sequence number owed to the client.
    next: u64,
    /// Total frames the reader consumed, once known.
    eof: Option<u64>,
    /// Out-of-order runs: first_seq → (frame count, wire bytes). The
    /// in-order common case bypasses this ring entirely (runs go
    /// straight to `out`), keeping the steady state allocation-free.
    pending: ReorderRing,
    /// In-order runs not yet written, and the write in flight over them.
    out: WriteQueue,
    /// Bytes parked or queued but not yet written (backpressure input).
    unsent: usize,
    /// This connection's reactor reads are currently paused.
    read_paused: bool,
    /// A write failed; stop writing but keep consuming messages until
    /// EOF so the connection can still be retired.
    dead: bool,
    /// Already queued for service this wakeup (O(1) touch dedupe).
    touched: bool,
}

impl SdConn {
    /// Whether every response owed to the client is on the wire (or the
    /// socket died), so the connection can be closed. A connection with
    /// a write in flight is never done: its buffers are pinned until
    /// the completion.
    fn done(&self) -> bool {
        if self.out.in_flight.is_some() {
            return false;
        }
        match self.eof {
            Some(total) => self.dead || (self.next >= total && self.out.is_empty()),
            None => false,
        }
    }
}

/// Everything the per-connection steps need besides the connection and
/// the driver.
struct ShardCtx<'a> {
    bufs: &'a BufRing,
    reactors: &'a ReactorHandles,
    stats: &'a ServerStats,
    cfg: SdShardCfg,
}

/// One shard's event loop: drain the channel, service touched
/// connections (submitting writes), wait, apply write completions
/// (which resubmit or retire), sweep stall deadlines.
pub(crate) fn run_sd_shard<D: IoDriver>(
    part: SdShardPart<D>,
    cfg: SdShardCfg,
    reactors: &ReactorHandles,
    stats: &ServerStats,
) {
    let SdShardPart {
        mut driver,
        rx,
        bufs,
        msgs,
    } = part;
    let ctx = ShardCtx {
        bufs: &bufs,
        reactors,
        stats,
        cfg,
    };
    let mut conns: HashMap<u64, SdConn> = HashMap::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut completions: Vec<Completion> = Vec::new();
    // Earliest instant any in-flight write could hit its stall
    // deadline; `None` while nothing is in flight.
    let mut next_sweep: Option<Instant> = None;
    // Ring counters fold into the shared stats as deltas so multiple
    // shards (and the dispatchers drawing from their rings) sum.
    let (mut last_hits, mut last_misses) = (0u64, 0u64);
    let mut disconnected = false;
    let mut enters_folded = 0u64;
    loop {
        // Apply every queued message, then service each touched
        // connection once.
        touched.clear();
        loop {
            match rx.try_recv() {
                Ok(msg) => apply_msg(msg, &mut conns, &mut touched, &msgs, &ctx),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        for &conn in &touched {
            service_and_maybe_retire(conn, &mut conns, &mut driver, &ctx, &mut next_sweep);
        }
        fold_ring_stats(&bufs, stats, &mut last_hits, &mut last_misses);
        if disconnected {
            break;
        }
        let timeout = match next_sweep {
            Some(at) => at
                .saturating_duration_since(Instant::now())
                .min(POLL_TIMEOUT),
            None => POLL_TIMEOUT,
        };
        completions.clear();
        if driver.wait(Some(timeout), &mut completions).is_err() {
            break; // broken driver: tear down rather than spin
        }
        // Everything since the last fold: this wait plus the immediate
        // writes the servicing above may have issued.
        let enters = driver.enters();
        stats.ring_enters.add(enters - enters_folded);
        enters_folded = enters;
        if !completions.is_empty() {
            stats.cqe_per_enter_hist.observe(completions.len() as u64);
        }
        for &done in &completions {
            // Waker kicks need nothing: the channel is drained at the
            // top of every pass.
            if ud_kind(done.user_data) == UD_WRITE {
                handle_write_done(done, &mut conns, &mut driver, &ctx, &mut next_sweep);
            }
        }
        if next_sweep.is_some_and(|at| Instant::now() >= at) {
            next_sweep = sweep_stalls(&mut conns, &mut driver, &ctx);
        }
    }
    // Teardown (all plane handles dropped): every queued message has
    // been applied and every touched connection serviced once above.
    // Drain the driver — pinned iovecs and the buffers they point into
    // may be read until each op completes — then retire the survivors
    // so gauges and leak counters stay truthful, and drop the write
    // halves to disconnect the clients.
    let drained = driver.drain();
    for (_, mut c) in conns.drain() {
        if c.out.in_flight.take().is_some() && !drained {
            stats.sd_pending_dropped.add(c.out.bufs.len() as u64);
            c.out.leak();
        }
        free_unwritten(&mut c, &ctx);
        stats.sd_open_conns.sub(1);
    }
    fold_ring_stats(&bufs, stats, &mut last_hits, &mut last_misses);
}

/// Fold the ring's cumulative hit/miss counters into the shared stats
/// as deltas (dispatchers bump the ring from their side, so the shard
/// is the single folder per ring).
fn fold_ring_stats(
    bufs: &BufRing,
    stats: &ServerStats,
    last_hits: &mut u64,
    last_misses: &mut u64,
) {
    let (h, m) = (bufs.hits(), bufs.misses());
    if h != *last_hits {
        stats.sd_buf_hits.add(h - *last_hits);
        *last_hits = h;
    }
    if m != *last_misses {
        stats.sd_buf_misses.add(m - *last_misses);
        *last_misses = m;
    }
}

fn apply_msg(
    msg: SdMsg,
    conns: &mut HashMap<u64, SdConn>,
    touched: &mut Vec<u64>,
    msg_pool: &Mutex<Vec<RunBatch>>,
    ctx: &ShardCtx<'_>,
) {
    match msg {
        SdMsg::Open { conn, stream } => {
            ctx.stats.sd_open_conns.add(1);
            conns.insert(
                conn,
                SdConn {
                    stream,
                    next: 0,
                    eof: None,
                    pending: ReorderRing::new(),
                    out: WriteQueue::default(),
                    unsent: 0,
                    read_paused: false,
                    dead: false,
                    touched: false,
                },
            );
        }
        SdMsg::Runs { conn, runs } => {
            if let Some(c) = conns.get_mut(&conn) {
                for r in runs {
                    park_run(c, r, ctx);
                }
                touch(conn, c, touched);
            } else {
                ctx.stats.sd_pending_dropped.add(runs.len() as u64);
                for r in runs {
                    ctx.bufs.put(r.bytes);
                }
            }
        }
        SdMsg::Batch(mut batch) => {
            for (conn, run) in batch.drain(..) {
                match conns.get_mut(&conn) {
                    Some(c) => {
                        park_run(c, run, ctx);
                        touch(conn, c, touched);
                    }
                    None => {
                        // Already retired (e.g. stall-retired while the
                        // dispatch was in flight); the run can never be
                        // delivered.
                        ctx.stats.sd_pending_dropped.add(1);
                        ctx.bufs.put(run.bytes);
                    }
                }
            }
            // Return the emptied vector so the dispatcher's next
            // scatter reuses its capacity.
            let mut pool = msg_pool.lock();
            if pool.len() < MSG_POOL_SLOTS {
                pool.push(batch);
            }
        }
        SdMsg::Eof { conn, frames_read } => {
            if let Some(c) = conns.get_mut(&conn) {
                c.eof = Some(frames_read);
                touch(conn, c, touched);
            }
        }
    }
}

fn touch(conn: u64, c: &mut SdConn, touched: &mut Vec<u64>) {
    if !c.touched {
        c.touched = true;
        touched.push(conn);
    }
}

/// Park one response run: straight onto the write queue when it is the
/// next run in sequence (the common case — no reorder churn), into the
/// reorder ring otherwise. Runs for a dead socket are freed at once.
fn park_run(c: &mut SdConn, run: ResponseRun, ctx: &ShardCtx<'_>) {
    if c.dead {
        ctx.stats.sd_pending_dropped.add(1);
        ctx.bufs.put(run.bytes);
        return;
    }
    c.unsent += run.bytes.len();
    if run.first_seq == c.next && c.pending.is_empty() {
        c.next += run.count;
        c.out.push(run.bytes);
    } else if let Some(displaced) = c.pending.insert(run.first_seq, run.count, run.bytes) {
        // Unreachable in practice (each seq is tagged once); keep the
        // buffer and byte accounting honest regardless.
        c.unsent -= displaced.len();
        ctx.bufs.put(displaced);
    }
}

/// Service the connection `conn` names, and retire it when done.
fn service_and_maybe_retire<D: IoDriver>(
    conn: u64,
    conns: &mut HashMap<u64, SdConn>,
    driver: &mut D,
    ctx: &ShardCtx<'_>,
    next_sweep: &mut Option<Instant>,
) {
    // A miss is a stale touch after retire.
    if let Some(c) = conns.get_mut(&conn) {
        if service_conn(conn, c, driver, ctx, next_sweep) {
            retire_conn(conn, conns, driver, ctx);
        }
    }
}

/// Service one connection: promote in-order runs, then submit a write —
/// or, with one already in flight, apply backpressure. Returns whether
/// the connection is done; `done()` is false while a write is in
/// flight, so retirement always happens with no pinned buffers.
fn service_conn<D: IoDriver>(
    conn: u64,
    c: &mut SdConn,
    driver: &mut D,
    ctx: &ShardCtx<'_>,
    next_sweep: &mut Option<Instant>,
) -> bool {
    c.touched = false;
    while let Some((count, bytes)) = c.pending.remove(c.next) {
        c.next += count;
        c.out.push(bytes);
    }
    if c.dead {
        // Nothing to write, nothing to throttle.
    } else if c.out.in_flight.is_none() && !c.out.is_empty() {
        let since = c
            .out
            .submit(driver, c.stream.as_raw_fd(), ud(UD_WRITE, conn));
        // Every submission arms the stall deadline: an op that never
        // completes is exactly a wedged peer.
        let deadline = since + ctx.cfg.stall;
        *next_sweep = Some(next_sweep.map_or(deadline, |at| at.min(deadline)));
    } else {
        // Runs piling up behind a write still in flight (or nothing
        // left to write): `unsent` is what the socket has not taken.
        apply_backpressure(conn, c, ctx);
    }
    c.done()
}

/// Remove a done connection: free what it never delivered and drop the
/// write half, so the client sees EOF.
fn retire_conn<D: IoDriver>(
    conn: u64,
    conns: &mut HashMap<u64, SdConn>,
    driver: &mut D,
    ctx: &ShardCtx<'_>,
) {
    let mut c = conns.remove(&conn).expect("caller just found it");
    free_unwritten(&mut c, ctx);
    driver.detach(c.stream.as_raw_fd());
    ctx.stats.sd_open_conns.sub(1);
}

/// Slow-consumer backpressure: pause the connection's reactor reads
/// when its unwritten backlog crosses the high water, resume below the
/// low water. Judged on what the socket has *refused*, so it runs where
/// a write's outcome is known — at its completion, and when runs pile
/// up behind a write still in flight — never in the pass that submits
/// one (a write the socket takes whole must not read as a backlog).
fn apply_backpressure(conn: u64, c: &mut SdConn, ctx: &ShardCtx<'_>) {
    ctx.stats.sd_pending_bytes_hiwater.observe(c.unsent as u64);
    if !c.read_paused && c.unsent > ctx.cfg.hiwater {
        c.read_paused = true;
        ctx.stats.sd_read_pauses.add(1);
        ctx.reactors.set_read(conn, false);
    } else if c.read_paused && c.unsent <= ctx.cfg.lowater {
        c.read_paused = false;
        ctx.reactors.set_read(conn, true);
    }
}

/// Apply one write completion: advance the queue by the written byte
/// count, count a park when the write came up short with data still
/// queued (the socket buffer filled), run the deferred free for peers
/// that died while the op was in flight, and re-service (which
/// resubmits any remainder or retires).
fn handle_write_done<D: IoDriver>(
    done: Completion,
    conns: &mut HashMap<u64, SdConn>,
    driver: &mut D,
    ctx: &ShardCtx<'_>,
    next_sweep: &mut Option<Instant>,
) {
    let conn = ud_id(done.user_data);
    let Some(c) = conns.get_mut(&conn) else {
        return; // no such connection (defensive: ops outlive no conn)
    };
    let written = usize::try_from(done.res).unwrap_or(0);
    let short = c.out.complete(written, ctx.bufs);
    c.unsent -= written;
    if written > 0 {
        if short {
            ctx.stats.sd_writable_parks.add(1);
        }
    } else if !matches!(-done.res, ECANCELED | EINTR) {
        // An error, or a zero-byte vectored write: the peer is gone.
        // (Canceled by the stall sweep — already marked dead — or
        // spuriously interrupted: re-servicing below handles both.)
        mark_dead(conn, c, ctx);
    }
    if c.dead {
        // Deferred free: `mark_dead` could not reclaim buffers while
        // the write held them; it can now.
        free_unwritten(c, ctx);
    } else {
        apply_backpressure(conn, c, ctx);
    }
    if service_conn(conn, c, driver, ctx, next_sweep) {
        retire_conn(conn, conns, driver, ctx);
    }
}

/// The socket can take no more responses (write error, or retired by
/// the stall sweep): free everything parked, undo pause state, and shut
/// the socket down both ways so the reactor — which still owns the
/// shared file description's read half — observes it and posts the
/// `Eof` that lets the connection retire.
fn mark_dead(conn: u64, c: &mut SdConn, ctx: &ShardCtx<'_>) {
    c.dead = true;
    if c.out.in_flight.is_none() {
        free_unwritten(c, ctx);
    }
    // else: the in-flight write still pins the queued buffers;
    // `handle_write_done` frees them once it completes.
    if c.read_paused {
        c.read_paused = false;
        // Resume reads so the paused read half gets a recv armed again
        // and the reactor can observe the shutdown.
        ctx.reactors.set_read(conn, true);
    }
    let _ = c.stream.shutdown(Shutdown::Both);
}

/// Count and free every run this connection will never deliver,
/// returning the buffers to the shard's ring.
fn free_unwritten(c: &mut SdConn, ctx: &ShardCtx<'_>) {
    let undelivered = (c.out.bufs.len() + c.pending.len()) as u64;
    if undelivered > 0 {
        ctx.stats.sd_pending_dropped.add(undelivered);
    }
    c.out.free_into(ctx.bufs);
    for bytes in c.pending.drain() {
        ctx.bufs.put(bytes);
    }
    c.unsent = 0;
}

/// Retire every connection whose write has been in flight past the
/// stall deadline: mark it dead (shutting the socket down) and cancel
/// the op. Buffer reclamation and map removal happen at its completion.
/// Returns the next deadline still outstanding.
fn sweep_stalls<D: IoDriver>(
    conns: &mut HashMap<u64, SdConn>,
    driver: &mut D,
    ctx: &ShardCtx<'_>,
) -> Option<Instant> {
    let now = Instant::now();
    let mut next: Option<Instant> = None;
    for (&conn, c) in conns.iter_mut() {
        let Some((_, since)) = c.out.in_flight.filter(|_| !c.dead) else {
            continue;
        };
        let deadline = since + ctx.cfg.stall;
        if now >= deadline {
            ctx.stats.sd_stall_retired.add(1);
            mark_dead(conn, c, ctx);
            driver.cancel(c.stream.as_raw_fd(), ud(UD_WRITE, conn));
        } else {
            next = Some(next.map_or(deadline, |at| at.min(deadline)));
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buf_ring_recycles_and_counts() {
        let ring = BufRing::new(2, 1024);
        let mut a = ring.get();
        assert_eq!(ring.misses(), 1);
        a.extend_from_slice(&[7u8; 100]);
        let cap = a.capacity();
        ring.put(a);
        let b = ring.get();
        assert_eq!(ring.hits(), 1);
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        // Oversized buffers are not retained.
        let mut big = BytesMut::new();
        big.resize(4096, 0);
        ring.put(big);
        let _ = ring.get();
        let _ = ring.get();
        assert_eq!(ring.misses(), 3, "oversized buffer was dropped, not pooled");
    }

    /// The shim `BytesMut` has no `From<&[u8]>`; build one by hand.
    fn bm(s: &[u8]) -> BytesMut {
        let mut b = BytesMut::new();
        b.extend_from_slice(s);
        b
    }

    #[test]
    fn reorder_ring_out_of_order_promotion() {
        let mut r = ReorderRing::new();
        assert!(r.is_empty());
        // Runs arrive 4, 0, 2 (counts 2, 2, 2): promote in seq order.
        r.insert(4, 2, bm(b"c"));
        r.insert(0, 2, bm(b"a"));
        r.insert(2, 2, bm(b"b"));
        assert_eq!(r.len(), 3);
        let mut next = 0u64;
        let mut order = Vec::new();
        while let Some((count, bytes)) = r.remove(next) {
            next += count;
            order.push(bytes);
        }
        assert_eq!(next, 6);
        assert_eq!(
            order.iter().map(|b| &b[..]).collect::<Vec<_>>(),
            vec![&b"a"[..], &b"b"[..], &b"c"[..]],
        );
        assert!(r.is_empty());
        assert!(r.slots.is_empty(), "compacted after full promotion");
    }

    #[test]
    fn reorder_ring_gap_blocks_promotion() {
        let mut r = ReorderRing::new();
        r.insert(5, 1, bm(b"later"));
        assert!(r.remove(0).is_none(), "gap: seq 0 never arrived");
        assert_eq!(r.len(), 1);
        r.insert(0, 5, bm(b"first"));
        let (count, bytes) = r.remove(0).expect("front arrived");
        assert_eq!((count, &bytes[..]), (5, &b"first"[..]));
        let (count, bytes) = r.remove(5).expect("parked run now in order");
        assert_eq!((count, &bytes[..]), (1, &b"later"[..]));
        assert!(r.is_empty());
    }

    #[test]
    fn reorder_ring_drains_every_buffer() {
        let mut r = ReorderRing::new();
        r.insert(7, 1, bm(b"x"));
        r.insert(3, 4, bm(b"y"));
        r.insert(9, 2, bm(b"z"));
        let drained: Vec<BytesMut> = r.drain().collect();
        assert_eq!(drained.len(), 3);
        assert!(r.is_empty());
        assert!(r.remove(3).is_none());
    }

    #[test]
    fn reorder_ring_displacement_returns_old_buffer() {
        let mut r = ReorderRing::new();
        assert!(r.insert(1, 1, bm(b"old")).is_none());
        let displaced = r.insert(1, 1, bm(b"new"));
        assert_eq!(displaced.as_deref(), Some(&b"old"[..]));
        assert_eq!(r.len(), 1);
        let (_, bytes) = r.remove(1).expect("replacement stays parked");
        assert_eq!(&bytes[..], b"new");
    }

    #[test]
    fn effective_sd_writers_resolution() {
        assert_eq!(effective_sd_writers(3), 3);
        let auto = effective_sd_writers(0);
        assert!((1..=2).contains(&auto));
    }
}
