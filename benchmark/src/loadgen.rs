//! The load generator: one thread, nonblocking connections, requests
//! copied from a pre-encoded pool, every reply checked.
//!
//! It never sleeps: it has a CPU to itself and polls its sockets, so a
//! due time is met to the microsecond and no wake-up of its own is
//! charged to the server (on this VM a sleeping closed-loop client left
//! the server idle a fifth of the time). Whether it or the server was
//! the limit shows in the share of its time spent doing work rather than
//! polling empty sockets.

use crate::spec::{
    parse_hex8, write_hex8, write_key, write_value_body, Pool, Proto, Workload, GROUP_QUERIES,
    VERSION_BYTES,
};
use crate::stats::{OpenLoop, Slices};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One GET hit in 64 is compared byte for byte (all of them in `rtt`);
/// status, length and version are checked on every reply.
const FULL_COMPARE_EVERY: u32 = 64;
/// Open-loop requests allowed in flight before sending waits (and the
/// wait shows as lateness). Well inside the server's 4096-slot RX ring
/// even when a memcached group is several requests: past the ring the
/// server answers "busy" instead of queueing, which is a different
/// experiment.
const MAX_OPEN_OUTSTANDING: usize = 1024;
/// How long replies may stay missing before the phase gives up on them.
const STALL_TIMEOUT_NS: u64 = 10_000_000_000;
/// The latency limit a paced request is held to (`--latency-us 1000`).
pub const SLO_NS: u64 = 1_000_000;
const READ_BUF: usize = 1 << 20;

/// What happened to the requests of one or more phases.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Queries sent.
    pub attempted: u64,
    /// Queries refused, timed out, answered short or answered wrong.
    pub failed: u64,
    /// GETs answered.
    pub gets: u64,
    /// GETs answered with a value.
    pub hits: u64,
    /// Request groups answered.
    pub requests: u64,
    /// Queries answered.
    pub answered: u64,
    /// Request bytes written.
    pub request_bytes: u64,
    /// Reply bytes consumed.
    pub reply_bytes: u64,
    /// Paced requests over [`SLO_NS`] (failed ones included).
    pub slo_misses: u64,
    /// Time the generator spent sending, reading and checking, as
    /// opposed to polling an empty socket, ns.
    pub busy_ns: u64,
}

impl Tally {
    /// Sum of two tallies.
    #[must_use]
    pub fn plus(&self, o: &Tally) -> Tally {
        Tally {
            attempted: self.attempted + o.attempted,
            failed: self.failed + o.failed,
            gets: self.gets + o.gets,
            hits: self.hits + o.hits,
            requests: self.requests + o.requests,
            answered: self.answered + o.answered,
            request_bytes: self.request_bytes + o.request_bytes,
            reply_bytes: self.reply_bytes + o.reply_bytes,
            slo_misses: self.slo_misses + o.slo_misses,
            busy_ns: self.busy_ns + o.busy_ns,
        }
    }
}

/// Per-key SET versions, so a GET's value can be held to what the
/// server acknowledged before the GET was sent.
///
/// SETs to one key may be in flight on both connections at once, and the
/// order the server applies them in is not the order their replies
/// arrive in. What is certain: once every SET of an overlapping burst is
/// acknowledged, the key holds one of that burst's versions, so the
/// burst's first version becomes the floor. A later GET that returns an
/// older version — or a version never sent — is wrong.
#[derive(Debug)]
pub struct Verifier {
    issued: Vec<u32>,
    floor: Vec<u32>,
    burst_start: Vec<u32>,
    sets_in_flight: Vec<u16>,
    expected_body: Vec<u8>,
    hits_seen: u32,
}

impl Verifier {
    /// A verifier for key ids below `keyspace` and values of `val_len`.
    #[must_use]
    pub fn new(keyspace: u32, val_len: usize) -> Verifier {
        let n = keyspace as usize;
        Verifier {
            issued: vec![0; n],
            floor: vec![0; n],
            burst_start: vec![0; n],
            sets_in_flight: vec![0; n],
            expected_body: vec![0; val_len.saturating_sub(VERSION_BYTES)],
            hits_seen: 0,
        }
    }

    /// A SET of `id` is about to be sent; returns the version to put in
    /// its value.
    pub fn set_sent(&mut self, id: u32) -> u32 {
        let i = id as usize;
        self.issued[i] += 1;
        if self.sets_in_flight[i] == 0 {
            self.burst_start[i] = self.issued[i];
        }
        self.sets_in_flight[i] += 1;
        self.issued[i]
    }

    /// The reply to a SET of `id` arrived.
    pub fn set_answered(&mut self, id: u32) {
        let i = id as usize;
        self.sets_in_flight[i] -= 1;
        if self.sets_in_flight[i] == 0 {
            self.floor[i] = self.burst_start[i];
        }
    }

    /// Oldest version a GET of `id` sent now may return.
    #[must_use]
    pub fn floor(&self, id: u32) -> u32 {
        self.floor[id as usize]
    }

    /// Whether `value`, returned for a GET of `id` sent when the floor
    /// was `floor`, is one the key can hold.
    pub fn hit_is_valid(&mut self, id: u32, floor: u32, value: &[u8], compare_all: bool) -> bool {
        if value.len() != VERSION_BYTES + self.expected_body.len() {
            return false;
        }
        let Some(version) = parse_hex8(value) else {
            return false;
        };
        if version < floor.max(1) || version > self.issued[id as usize] {
            return false;
        }
        self.hits_seen = self.hits_seen.wrapping_add(1);
        if compare_all || self.hits_seen.is_multiple_of(FULL_COMPARE_EVERY) {
            write_value_body(&mut self.expected_body, id);
            return value[VERSION_BYTES..] == self.expected_body[..];
        }
        true
    }
}

/// A request group awaiting its reply.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    group: u32,
    cycle: u32,
    /// What latency is timed from: send time in a closed loop, due time
    /// in an open one (ns since the generator started).
    t0_ns: u64,
    /// Per query: the version sent (SET) or the floor at send time (GET).
    notes: [u32; GROUP_QUERIES],
}

/// A completed request, handed back to the phase loop.
#[derive(Debug, Clone, Copy)]
struct Done {
    conn: usize,
    t0_ns: u64,
    queries: u64,
    failed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Miss,
    Hit { start: usize, end: usize },
    Stored,
    Failed,
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    rpos: usize,
    rlen: usize,
    in_flight: VecDeque<InFlight>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            wbuf: Vec::with_capacity(1 << 20),
            wpos: 0,
            rbuf: vec![0; READ_BUF],
            rpos: 0,
            rlen: 0,
            in_flight: VecDeque::new(),
        })
    }

    /// Write what is queued, until done or the socket would block.
    fn flush(&mut self) -> Result<(), String> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }

    /// One nonblocking read into the buffer; `Ok(false)` if nothing was
    /// there.
    fn fill(&mut self) -> Result<bool, String> {
        if self.rpos == self.rlen {
            self.rpos = 0;
            self.rlen = 0;
        } else if self.rlen == self.rbuf.len() {
            self.rbuf.copy_within(self.rpos..self.rlen, 0);
            self.rlen -= self.rpos;
            self.rpos = 0;
            if self.rlen == self.rbuf.len() {
                return Err("reply larger than the read buffer".into());
            }
        }
        match self.stream.read(&mut self.rbuf[self.rlen..]) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.rlen += n;
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                Ok(false)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Where a phase continues in the pool: phases of one server lifetime
/// walk it onward instead of replaying its start.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cursor {
    group: usize,
    cycle: u32,
}

impl Cursor {
    fn next(&mut self, pool: &Pool) -> (usize, u32) {
        let at = (self.group, self.cycle);
        self.group += 1;
        if self.group == pool.groups() {
            self.group = 0;
            self.cycle += 1;
        }
        at
    }
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many request groups (set-up: a count, not a duration,
    /// so set-up does the same work on a slow day).
    Groups(u64),
    /// After this long.
    After(Duration),
}

/// How a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoop {
    /// Connections to use (from the first).
    pub conns: usize,
    /// Requests kept outstanding per connection.
    pub window: usize,
    /// When to stop sending.
    pub stop: Stop,
    /// Compare every GET hit byte for byte.
    pub compare_all: bool,
}

/// The generator: its connections and what it knows about every key.
pub struct LoadGen<'w> {
    workload: &'w Workload,
    conns: Vec<Conn>,
    verifier: Verifier,
    started: Instant,
    done: Vec<Done>,
    first_failure: Option<String>,
}

impl<'w> LoadGen<'w> {
    /// Open `conns` connections to a freshly started server.
    pub fn connect(workload: &'w Workload, addr: SocketAddr, conns: usize) -> Result<Self, String> {
        Ok(LoadGen {
            workload,
            conns: (0..conns)
                .map(|_| Conn::open(addr))
                .collect::<Result<_, _>>()?,
            verifier: Verifier::new(workload.keyspace, workload.dataset.value_size()),
            started: Instant::now(),
            done: Vec::new(),
            first_failure: None,
        })
    }

    /// What the first failed query was and what came back for it.
    #[must_use]
    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.in_flight.len()).sum()
    }

    /// Queue pool group `g` on connection `c`: copy its bytes, rewrite
    /// the keys if this pass over the pool shifts them, stamp each SET
    /// with its version, and remember what the reply must look like.
    fn issue(&mut self, pool: &Pool, c: usize, at: (usize, u32), t0_ns: u64, tally: &mut Tally) {
        let (g, cycle) = at;
        let w = self.workload;
        let conn = &mut self.conns[c];
        let base = conn.wbuf.len();
        conn.wbuf.extend_from_slice(pool.group_bytes(g));
        let mut notes = [0u32; GROUP_QUERIES];
        for (slot, q) in pool.group_queries(g).enumerate() {
            let id = w.id_on_cycle(pool.ids[q], cycle);
            let shifted = id != pool.ids[q];
            if shifted {
                let k = base + pool.key_off[q] as usize;
                write_key(&mut conn.wbuf[k..k + pool.key_len], id);
            }
            notes[slot] = if pool.set[q] {
                let version = self.verifier.set_sent(id);
                let v = base + pool.val_off[q] as usize;
                write_hex8(&mut conn.wbuf[v..], version);
                if shifted {
                    write_value_body(&mut conn.wbuf[v + VERSION_BYTES..v + pool.val_len], id);
                }
                version
            } else {
                self.verifier.floor(id)
            };
        }
        tally.attempted += pool.group_queries(g).len() as u64;
        tally.request_bytes += (conn.wbuf.len() - base) as u64;
        conn.in_flight.push_back(InFlight {
            group: g as u32,
            cycle,
            t0_ns,
            notes,
        });
    }

    /// Read once from connection `c` and consume every complete reply,
    /// pushing one [`Done`] per request. `Ok(false)` if the socket had
    /// nothing.
    fn read_replies(
        &mut self,
        pool: &Pool,
        c: usize,
        compare_all: bool,
        tally: &mut Tally,
    ) -> Result<bool, String> {
        if !self.conns[c].fill()? {
            return Ok(false);
        }
        loop {
            let conn = &self.conns[c];
            let Some(head) = conn.in_flight.front().copied() else {
                if conn.rpos != conn.rlen {
                    return Err("reply bytes with no request outstanding".into());
                }
                return Ok(true);
            };
            let buf = &conn.rbuf[conn.rpos..conn.rlen];
            let queries = pool.group_queries(head.group as usize);
            let mut ids = [0u32; GROUP_QUERIES];
            for (slot, q) in queries.clone().enumerate() {
                ids[slot] = self.workload.id_on_cycle(pool.ids[q], head.cycle);
            }
            let mut outcomes = [Outcome::Failed; GROUP_QUERIES];
            let parsed = match pool.proto {
                Proto::Dido => parse_dido_reply(buf, queries.len(), &mut outcomes)?,
                Proto::Memcached => {
                    let is_set = &pool.set[queries.clone()];
                    parse_memcached_reply(buf, is_set, &ids, pool.key_len, &mut outcomes)?
                }
            };
            let Some(consumed) = parsed else {
                return Ok(true);
            };
            let mut failed = false;
            for (slot, q) in queries.clone().enumerate() {
                let id = ids[slot];
                let ok = match (pool.set[q], outcomes[slot]) {
                    (true, outcome) => {
                        self.verifier.set_answered(id);
                        outcome == Outcome::Stored
                    }
                    (false, Outcome::Miss) => {
                        tally.gets += 1;
                        true
                    }
                    (false, Outcome::Hit { start, end }) => {
                        tally.gets += 1;
                        tally.hits += 1;
                        self.verifier.hit_is_valid(
                            id,
                            head.notes[slot],
                            &buf[start..end],
                            compare_all,
                        )
                    }
                    (false, _) => false,
                };
                if !ok {
                    tally.failed += 1;
                    failed = true;
                    self.first_failure.get_or_insert_with(|| {
                        let op = if pool.set[q] { "SET" } else { "GET" };
                        let got = match outcomes[slot] {
                            Outcome::Hit { start, end } => {
                                format!(
                                    "value {:?}",
                                    buf[start..end.min(start + 24)].escape_ascii().to_string()
                                )
                            }
                            other => format!("{other:?}"),
                        };
                        format!(
                            "{op} of key id {id} (note {}) answered {got}",
                            head.notes[slot]
                        )
                    });
                }
            }
            tally.requests += 1;
            tally.answered += queries.len() as u64;
            tally.reply_bytes += consumed as u64;
            let conn = &mut self.conns[c];
            conn.rpos += consumed;
            conn.in_flight.pop_front();
            self.done.push(Done {
                conn: c,
                t0_ns: head.t0_ns,
                queries: queries.len() as u64,
                failed,
            });
        }
    }

    /// Write what each connection has queued, as far as its socket
    /// takes it.
    fn flush_all(&mut self, used: usize) -> Result<(), String> {
        self.conns[..used].iter_mut().try_for_each(Conn::flush)
    }

    /// Count what is still unanswered as failed and forget it.
    fn abandon_outstanding(&mut self, pool: &Pool, tally: &mut Tally) {
        for conn in &mut self.conns {
            for f in conn.in_flight.drain(..) {
                tally.failed += pool.group_queries(f.group as usize).len() as u64;
                tally.slo_misses += 1;
            }
        }
    }

    /// Run a closed loop over `pool`. With `slices`, each completion is
    /// recorded in its one-second slice together with its latency from
    /// send time.
    pub fn closed_loop(
        &mut self,
        pool: &Pool,
        cursor: &mut Cursor,
        cfg: ClosedLoop,
        mut slices: Option<&mut Slices>,
    ) -> Result<Tally, String> {
        let mut tally = Tally::default();
        let start = self.now_ns();
        let (max_groups, end) = match cfg.stop {
            Stop::Groups(n) => (n, u64::MAX),
            Stop::After(d) => (u64::MAX, start + d.as_nanos() as u64),
        };
        let mut sent = 0u64;
        let mut last_progress = start;
        for c in 0..cfg.conns {
            for _ in 0..cfg.window {
                if sent < max_groups {
                    let at = cursor.next(pool);
                    self.issue(pool, c, at, start, &mut tally);
                    sent += 1;
                }
            }
        }
        while self.outstanding() > 0 {
            self.flush_all(cfg.conns)?;
            let woke = self.now_ns();
            let mut got_bytes = false;
            for c in 0..cfg.conns {
                got_bytes |= self.read_replies(pool, c, cfg.compare_all, &mut tally)?;
            }
            let now = self.now_ns();
            if !self.done.is_empty() {
                last_progress = now;
            } else if now - last_progress > STALL_TIMEOUT_NS {
                self.abandon_outstanding(pool, &mut tally);
                return Err("server stopped answering".into());
            }
            for i in 0..self.done.len() {
                let d = self.done[i];
                if let Some(s) = slices.as_deref_mut() {
                    s.record(now - start, d.queries, Some(now - d.t0_ns));
                }
                if sent < max_groups && now < end {
                    let at = cursor.next(pool);
                    self.issue(pool, d.conn, at, now, &mut tally);
                    sent += 1;
                }
            }
            self.done.clear();
            if got_bytes {
                // Flushing what was just issued belongs to this turn.
                self.flush_all(cfg.conns)?;
                tally.busy_ns += self.now_ns() - woke;
            }
        }
        Ok(tally)
    }

    /// Run an open loop over `pool` at `rate_qps` for `duration`,
    /// request `i` on connection `i mod 2`, arriving in bursts every
    /// `tick`. Latency runs from each request's due time;
    /// `lateness_ns` collects how long after its due time each was
    /// handed to the socket.
    #[allow(clippy::too_many_arguments)]
    pub fn open_loop(
        &mut self,
        pool: &Pool,
        cursor: &mut Cursor,
        rate_qps: u64,
        tick: Duration,
        duration: Duration,
        slices: &mut Slices,
        lateness_ns: &mut Vec<u32>,
    ) -> Result<Tally, String> {
        let mut tally = Tally::default();
        let start = self.now_ns();
        let duration_ns = duration.as_nanos() as u64;
        let mut schedule = OpenLoop::new(
            rate_qps as f64 / pool.per_group as f64,
            tick.as_nanos() as u64,
            duration_ns,
        );
        let conns = self.conns.len();
        let mut last_progress = start;
        while !schedule.exhausted() || self.outstanding() > 0 {
            let turn = self.now_ns();
            let mut worked = false;
            while self.outstanding() < MAX_OPEN_OUTSTANDING {
                let Some((i, due)) = schedule.take_due(turn - start) else {
                    break;
                };
                let at = cursor.next(pool);
                self.issue(pool, i as usize % conns, at, start + due, &mut tally);
                lateness_ns.push((turn - start - due).min(u64::from(u32::MAX)) as u32);
                worked = true;
            }
            self.flush_all(conns)?;
            for c in 0..conns {
                worked |= self.read_replies(pool, c, false, &mut tally)?;
            }
            let now = self.now_ns();
            if worked {
                tally.busy_ns += now - turn;
            }
            // Waiting for the next burst to come due is not a stall;
            // waiting for replies with nothing left to send is.
            let may_send = !schedule.exhausted() && self.outstanding() < MAX_OPEN_OUTSTANDING;
            if worked || may_send {
                last_progress = now;
            } else if now - last_progress > STALL_TIMEOUT_NS {
                self.abandon_outstanding(pool, &mut tally);
                return Err("server stopped answering".into());
            }
            for d in self.done.drain(..) {
                let latency = now - d.t0_ns;
                if d.failed || latency > SLO_NS {
                    tally.slo_misses += 1;
                }
                slices.record(now - start, d.queries, Some(latency));
            }
        }
        Ok(tally)
    }
}

fn short() -> String {
    "malformed reply".into()
}

/// Parse one dido reply frame (`len:u32 count:u16 (status:u8 len:u32
/// value)*`) from the front of `buf`. `Ok(None)` until it is complete;
/// otherwise the bytes it occupies, with per-query outcomes filled in
/// (hit ranges are offsets into `buf`).
fn parse_dido_reply(
    buf: &[u8],
    expect: usize,
    outcomes: &mut [Outcome; GROUP_QUERIES],
) -> Result<Option<usize>, String> {
    let Some(prefix) = buf.get(..4) else {
        return Ok(None);
    };
    let total = 4 + u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let count = u16::from_le_bytes(
        buf.get(4..6)
            .ok_or_else(short)?
            .try_into()
            .expect("2 bytes"),
    );
    if count as usize != expect {
        // An empty frame is the server's answer to a frame it could not
        // decode; every query in it failed, but the stream is in step.
        return Ok(Some(total));
    }
    let mut pos = 6;
    for outcome in outcomes.iter_mut().take(expect) {
        let head = buf.get(pos..pos + 5).ok_or_else(short)?;
        let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes")) as usize;
        let (start, end) = (pos + 5, pos + 5 + len);
        if end > total {
            return Err(short());
        }
        *outcome = match head[0] {
            0 if len == 0 => Outcome::Stored,
            0 => Outcome::Hit { start, end },
            1 if len == 0 => Outcome::Miss,
            _ => Outcome::Failed,
        };
        pos = end;
    }
    if pos != total {
        return Err(short());
    }
    Ok(Some(total))
}

/// Parse the memcached replies to one request group from the front of
/// `buf`: `STORED` per SET, and per run of GETs the `VALUE` lines of
/// its hits (in request order, keys echoed) closed by `END`.
fn parse_memcached_reply(
    buf: &[u8],
    is_set: &[bool],
    ids: &[u32; GROUP_QUERIES],
    key_len: usize,
    outcomes: &mut [Outcome; GROUP_QUERIES],
) -> Result<Option<usize>, String> {
    let n = is_set.len();
    let mut pos = 0;
    let mut q = 0;
    while q < n {
        if is_set[q] {
            let Some(line) = line_at(buf, pos) else {
                return Ok(None);
            };
            outcomes[q] = if line == b"STORED" {
                Outcome::Stored
            } else {
                Outcome::Failed
            };
            pos += line.len() + 2;
            q += 1;
            continue;
        }
        let run_end = (q..n).find(|&i| is_set[i]).unwrap_or(n);
        loop {
            let Some(line) = line_at(buf, pos) else {
                return Ok(None);
            };
            pos += line.len() + 2;
            if line == b"END" {
                outcomes[q..run_end].fill(Outcome::Miss);
                q = run_end;
                break;
            }
            if line.starts_with(b"SERVER_ERROR") {
                // The whole `get` was refused (ring overflow): one line
                // answers it, no END follows.
                q = run_end;
                break;
            }
            // VALUE <key> <flags> <bytes>
            let mut tokens = line.split(|&b| b == b' ');
            let (Some(b"VALUE"), Some(key), Some(_flags), Some(len)) =
                (tokens.next(), tokens.next(), tokens.next(), tokens.next())
            else {
                return Err(format!(
                    "unexpected memcached line {:?}",
                    line.escape_ascii().to_string()
                ));
            };
            let len: usize = std::str::from_utf8(len)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(short)?;
            if buf.len() < pos + len + 2 {
                return Ok(None);
            }
            // Hits come in request order: every requested key skipped to
            // reach this one was a miss. The key a request sent is not
            // kept, but its id is the key's first eight characters.
            let id = parse_hex8(key).ok_or_else(short)?;
            while q < run_end && ids[q] != id {
                outcomes[q] = Outcome::Miss;
                q += 1;
            }
            if q == run_end || key.len() != key_len {
                return Err("VALUE for a key that was not requested".into());
            }
            outcomes[q] = Outcome::Hit {
                start: pos,
                end: pos + len,
            };
            q += 1;
            pos += len + 2;
        }
    }
    Ok(Some(pos))
}

/// The CRLF-terminated line starting at `pos`, without its terminator;
/// `None` until the terminator has arrived.
fn line_at(buf: &[u8], pos: usize) -> Option<&[u8]> {
    let rest = buf.get(pos..)?;
    let lf = rest.iter().position(|&b| b == b'\n')?;
    Some(rest[..lf].strip_suffix(b"\r").unwrap_or(&rest[..lf]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{generate, write_value, GenQuery};

    #[test]
    fn verifier_holds_gets_to_acknowledged_sets() {
        let mut v = Verifier::new(4, 64);
        let mut val = vec![0u8; 64];
        let v1 = v.set_sent(2);
        assert_eq!(v1, 1);
        // In flight: floor unchanged, the version is already allowed.
        assert_eq!(v.floor(2), 0);
        write_value(&mut val, 2, 1);
        assert!(v.hit_is_valid(2, v.floor(2), &val, true));
        v.set_answered(2);
        assert_eq!(v.floor(2), 1);
        // Two overlapping SETs: either may win, the older burst may not.
        let (a, b) = (v.set_sent(2), v.set_sent(2));
        v.set_answered(2);
        assert_eq!(v.floor(2), 1, "burst still open");
        v.set_answered(2);
        assert_eq!(v.floor(2), a);
        let floor = v.floor(2);
        for (version, ok) in [(1, false), (a, true), (b, true), (b + 1, false)] {
            write_value(&mut val, 2, version);
            assert_eq!(
                v.hit_is_valid(2, floor, &val, true),
                ok,
                "version {version}"
            );
        }
        // Wrong body, wrong length, wrong key's body.
        write_value(&mut val, 3, b);
        assert!(!v.hit_is_valid(2, floor, &val, true));
        write_value(&mut val, 2, b);
        assert!(!v.hit_is_valid(2, floor, &val[..63], true));
        val[20] ^= 1;
        assert!(!v.hit_is_valid(2, floor, &val, true));
    }

    #[test]
    fn dido_reply_parser_waits_then_classifies() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&3u16.to_le_bytes());
        frame.extend_from_slice(&[0, 3, 0, 0, 0, b'a', b'b', b'c']); // hit "abc"
        frame.extend_from_slice(&[1, 0, 0, 0, 0]); // miss
        frame.extend_from_slice(&[0, 0, 0, 0, 0]); // stored
        let mut wire = (frame.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&frame);
        let mut out = [Outcome::Failed; GROUP_QUERIES];
        for cut in 0..wire.len() {
            assert_eq!(parse_dido_reply(&wire[..cut], 3, &mut out), Ok(None));
        }
        wire.extend_from_slice(b"next");
        assert_eq!(
            parse_dido_reply(&wire, 3, &mut out),
            Ok(Some(wire.len() - 4))
        );
        assert_eq!(out[0], Outcome::Hit { start: 11, end: 14 });
        assert_eq!(&wire[11..14], b"abc");
        assert_eq!(out[1], Outcome::Miss);
        assert_eq!(out[2], Outcome::Stored);
        // A frame answering fewer queries fails them all but stays in step.
        let mut out = [Outcome::Failed; GROUP_QUERIES];
        assert_eq!(
            parse_dido_reply(&wire, 4, &mut out),
            Ok(Some(wire.len() - 4))
        );
        assert!(out.iter().all(|o| *o == Outcome::Failed));
        // An error status is a failure.
        let bad = [7, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0];
        assert_eq!(parse_dido_reply(&bad, 1, &mut out), Ok(Some(11)));
        assert_eq!(out[0], Outcome::Failed);
    }

    #[test]
    fn memcached_reply_parser_maps_values_to_requested_keys() {
        let stream = [
            GenQuery {
                set: false,
                id: 10,
                ttl: 0,
            },
            GenQuery {
                set: false,
                id: 11,
                ttl: 0,
            },
            GenQuery {
                set: false,
                id: 12,
                ttl: 0,
            },
            GenQuery {
                set: true,
                id: 13,
                ttl: 0,
            },
            GenQuery {
                set: false,
                id: 14,
                ttl: 0,
            },
        ];
        let is_set: Vec<bool> = stream.iter().map(|q| q.set).collect();
        let mut ids = [0u32; GROUP_QUERIES];
        for (slot, q) in stream.iter().enumerate() {
            ids[slot] = q.id;
        }
        let parse = |buf: &[u8], n: usize, out: &mut [Outcome; GROUP_QUERIES]| {
            parse_memcached_reply(buf, &is_set[..n], &ids, 16, out)
        };
        let key = |id| {
            let mut k = vec![0u8; 16];
            write_key(&mut k, id);
            String::from_utf8(k).unwrap()
        };
        // 10 misses, 11 and 12 hit, the SET is stored, 14 misses.
        let reply = format!(
            "VALUE {} 0 3\r\nabc\r\nVALUE {} 0 2\r\n\r\n\r\nEND\r\nSTORED\r\nEND\r\n",
            key(11),
            key(12)
        );
        let mut out = [Outcome::Failed; GROUP_QUERIES];
        for cut in 0..reply.len() {
            assert_eq!(
                parse(&reply.as_bytes()[..cut], 5, &mut out),
                Ok(None),
                "cut {cut}"
            );
        }
        assert_eq!(parse(reply.as_bytes(), 5, &mut out), Ok(Some(reply.len())));
        assert_eq!(out[0], Outcome::Miss);
        let Outcome::Hit { start, end } = out[1] else {
            panic!("{:?}", out[1])
        };
        assert_eq!(&reply.as_bytes()[start..end], b"abc");
        let Outcome::Hit { start, end } = out[2] else {
            panic!("{:?}", out[2])
        };
        assert_eq!(
            &reply.as_bytes()[start..end],
            b"\r\n",
            "data may contain CRLF"
        );
        assert_eq!(out[3], Outcome::Stored);
        assert_eq!(out[4], Outcome::Miss);
        // A value for a key that was not asked for is a protocol error.
        let stray = format!("VALUE {} 0 1\r\nx\r\nEND\r\n", key(99));
        assert!(parse(stray.as_bytes(), 3, &mut out).is_err());
        // A refused SET fails that query only.
        let refused = b"END\r\nSERVER_ERROR object too large for cache\r\nEND\r\n";
        assert_eq!(parse(refused, 5, &mut out), Ok(Some(refused.len())));
        assert_eq!(out[3], Outcome::Failed);
        // A refused `get` fails its whole run with one line.
        let busy = b"SERVER_ERROR busy\r\nSTORED\r\nEND\r\n";
        let mut out = [Outcome::Failed; GROUP_QUERIES];
        assert_eq!(parse(busy, 5, &mut out), Ok(Some(busy.len())));
        assert_eq!(out[..3], [Outcome::Failed; 3]);
        assert_eq!((out[3], out[4]), (Outcome::Stored, Outcome::Miss));
    }

    #[test]
    fn cursor_walks_the_pool_and_counts_passes() {
        let w = Workload::by_name("k16_g95_zipf").unwrap();
        let pool = Pool::encode(
            &generate(w, 1, 3 * GROUP_QUERIES),
            GROUP_QUERIES,
            w.dataset,
            w.proto,
        );
        let mut cur = Cursor::default();
        let seen: Vec<_> = (0..7).map(|_| cur.next(&pool)).collect();
        assert_eq!(
            seen,
            vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2)]
        );
    }
}
