//! Canned protocol sessions: byte-literal memcached-text and RESP
//! transcripts replayed against a live multi-protocol server, with the
//! reply stream compared byte-for-byte (`DESIGN.md` §16). Every session
//! runs on each I/O backend the host supports.

use dido_model::{
    deadline_expired, ttl_to_deadline, MockClock, Query, QueryOp, Response, SharedClock,
};
use dido_net::{backend_matrix, BatchConfig, DispatchMode, KvClient, KvServer, ProtocolKind};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A tiny in-memory store: enough to give the wire sessions real
/// SET/GET/DELETE semantics, shared by every listener of a server.
fn map_store_handler() -> impl Fn(usize, Vec<Query>) -> Vec<Response> + Send + Sync + 'static {
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

/// Like [`map_store_handler`], but TTL-aware: SETs record an absolute
/// deadline from the query's (already codec-normalized, relative) TTL,
/// and GETs observe expiry in-band against the shared mock clock —
/// exactly how the real engine's KC task treats an expired object as a
/// miss.
fn ttl_store_handler(
    clock: SharedClock,
) -> impl Fn(usize, Vec<Query>) -> Vec<Response> + Send + Sync + 'static {
    /// Stored value plus its absolute expiry deadline (0 = never).
    type DeadlineMap = HashMap<Vec<u8>, (Vec<u8>, u32)>;
    let map: Mutex<DeadlineMap> = Mutex::new(HashMap::new());
    move |_lane, queries| {
        let now = clock.now_secs();
        let mut map = map.lock();
        queries
            .iter()
            .map(|q| match q.op {
                QueryOp::Set => {
                    map.insert(q.key.to_vec(), (q.value.to_vec(), ttl_to_deadline(q.ttl, now)));
                    Response::ok()
                }
                QueryOp::Get => match map.get(&q.key.to_vec()) {
                    Some((v, deadline)) if !deadline_expired(*deadline, now) => {
                        Response::hit(v.clone())
                    }
                    _ => Response::not_found(),
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

/// One `(label, mode)` per I/O backend the host supports.
fn modes() -> Vec<(&'static str, DispatchMode)> {
    backend_matrix()
        .into_iter()
        .map(|backend| {
            (
                backend.as_str(),
                DispatchMode::Batched(BatchConfig {
                    io_backend: backend.into(),
                    ..BatchConfig::default()
                }),
            )
        })
        .collect()
}

/// One front door per protocol, all serving the same store.
fn multi_proto_server(mode: DispatchMode) -> KvServer {
    KvServer::start_multi(
        &[
            ("127.0.0.1:0", ProtocolKind::Memcached),
            ("127.0.0.1:0", ProtocolKind::Resp),
            ("127.0.0.1:0", ProtocolKind::Dido),
        ],
        mode,
        map_store_handler(),
    )
    .expect("bind ephemeral multi-proto listeners")
}

/// `(client sends, server must answer exactly)` steps over one
/// connection. An empty expectation is legal (e.g. `noreply`): the
/// next step's reply proves nothing extra arrived in between.
type Session = &'static [(&'static [u8], &'static [u8])];

fn run_session(addr: std::net::SocketAddr, session: Session, label: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for (i, (send, expect)) in session.iter().enumerate() {
        stream.write_all(send).expect("send");
        stream.flush().unwrap();
        let mut got = vec![0u8; expect.len()];
        stream
            .read_exact(&mut got)
            .unwrap_or_else(|e| panic!("{label} step {i}: short reply: {e}"));
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(expect),
            "{label} step {i}"
        );
    }
    // Nothing may trail the scripted replies.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut extra = [0u8; 64];
    loop {
        match stream.read(&mut extra) {
            Ok(0) => break,
            Ok(n) => panic!(
                "{label}: {n} unexpected trailing bytes: {:?}",
                String::from_utf8_lossy(&extra[..n])
            ),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(e) => panic!("{label}: trailing read failed: {e}"),
        }
    }
}

/// The memcached-text transcript: storage, retrieval with flags echo,
/// `noreply` silence, `gets` CAS column, deletes, and an unknown
/// command that must answer in-band without dropping the connection.
const MC_SESSION: Session = &[
    (b"set greet 0 0 5\r\nhello\r\n", b"STORED\r\n"),
    (
        b"get greet missing\r\n",
        b"VALUE greet 0 5\r\nhello\r\nEND\r\n",
    ),
    // noreply stores silently; the pipelined get right behind it
    // proves the zero-byte reply run still advanced the stream.
    (
        b"set quiet 0 0 2 noreply\r\nok\r\nget quiet\r\n",
        b"VALUE quiet 0 2\r\nok\r\nEND\r\n",
    ),
    (b"gets greet\r\n", b"VALUE greet 0 5 0\r\nhello\r\nEND\r\n"),
    (b"delete greet\r\n", b"DELETED\r\n"),
    (b"delete greet\r\n", b"NOT_FOUND\r\n"),
    (b"bogus greet\r\n", b"ERROR\r\n"),
    // Bad flags field: the line still carves (the bytes field is
    // intact, so the data block is skippable) but decode rejects it
    // in-band. An unparsable *bytes* field, by contrast, is
    // connection-fatal — covered in the codec unit tests.
    (
        b"set greet zz 0 5\r\nhello\r\n",
        b"CLIENT_ERROR bad command line format\r\n",
    ),
    // Pipelined multi-GET ordering: two bursts in one write; VALUE
    // lines must come back in request order, per burst, in sequence.
    (
        b"set a 0 0 1\r\nA\r\nset b 0 0 1\r\nB\r\nget a b\r\nget b a nope\r\n",
        b"STORED\r\nSTORED\r\nVALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nB\r\nEND\r\nVALUE b 0 1\r\nB\r\nVALUE a 0 1\r\nA\r\nEND\r\n",
    ),
];

/// The RESP transcript: handshake commands, bulk-string round trips,
/// null replies for misses, DEL's integer reply, MGET ordering, and an
/// in-band error for an unknown command.
const RESP_SESSION: Session = &[
    (b"*1\r\n$4\r\nPING\r\n", b"+PONG\r\n"),
    (b"*1\r\n$7\r\nCOMMAND\r\n", b"*0\r\n"),
    (b"*3\r\n$3\r\nSET\r\n$5\r\ngreet\r\n$5\r\nhello\r\n", b"+OK\r\n"),
    (b"*2\r\n$3\r\nGET\r\n$5\r\ngreet\r\n", b"$5\r\nhello\r\n"),
    (b"*2\r\n$3\r\nGET\r\n$7\r\nmissing\r\n", b"$-1\r\n"),
    (
        b"*4\r\n$4\r\nMGET\r\n$5\r\ngreet\r\n$7\r\nmissing\r\n$5\r\ngreet\r\n",
        b"*3\r\n$5\r\nhello\r\n$-1\r\n$5\r\nhello\r\n",
    ),
    (
        b"*3\r\n$3\r\nDEL\r\n$5\r\ngreet\r\n$7\r\nmissing\r\n",
        b":1\r\n",
    ),
    (b"*1\r\n$4\r\nBLAH\r\n", b"-ERR unknown command\r\n"),
    // Inline (non-array) commands, as redis-cli sends before the
    // handshake; case-insensitive verbs.
    (b"set inline live\r\n", b"+OK\r\n"),
    (b"get inline\r\n", b"$4\r\nlive\r\n"),
    // Pipelined burst in one write: replies in request order.
    (
        b"*3\r\n$3\r\nSET\r\n$1\r\na\r\n$1\r\nA\r\n*3\r\n$3\r\nSET\r\n$1\r\nb\r\n$1\r\nB\r\n*3\r\n$4\r\nMGET\r\n$1\r\na\r\n$1\r\nb\r\n*2\r\n$3\r\nGET\r\n$1\r\na\r\n",
        b"+OK\r\n+OK\r\n*2\r\n$1\r\nA\r\n$1\r\nB\r\n$1\r\nA\r\n",
    ),
];

#[test]
fn canned_sessions_are_byte_exact_on_every_backend() {
    for (name, mode) in modes() {
        let server = multi_proto_server(mode);
        let addrs = server.addrs().to_vec();
        run_session(addrs[0], MC_SESSION, &format!("{name}/memcached"));
        run_session(addrs[1], RESP_SESSION, &format!("{name}/resp"));

        // The dido listener still speaks the native binary protocol.
        let mut dido = KvClient::connect(addrs[2]).unwrap();
        let rs = dido
            .request(&[Query::set("native", "frame"), Query::get("native")])
            .unwrap();
        assert_eq!(&rs[1].value[..], b"frame", "{name}/dido");

        // Per-protocol accounting: each front door saw its own
        // connection and requests; the scripted parse errors landed on
        // the right counters.
        let stats = server.stats();
        let mc = ProtocolKind::Memcached.index();
        let resp = ProtocolKind::Resp.index();
        assert_eq!(stats.proto_conns[mc].get(), 1, "{name}");
        assert_eq!(stats.proto_conns[resp].get(), 1, "{name}");
        assert!(stats.proto_queries[mc].get() >= 10, "{name}");
        assert!(stats.proto_queries[resp].get() >= 10, "{name}");
        // "bogus" + bad set line (mc); BLAH (resp).
        assert_eq!(
            stats.proto_parse_errors[mc].get(),
            2,
            "{name}"
        );
        assert_eq!(
            stats.proto_parse_errors[resp].get(),
            1,
            "{name}"
        );
        server.shutdown();
    }
}

#[test]
fn cross_protocol_listeners_share_one_store() {
    for (name, mode) in modes() {
        let server = multi_proto_server(mode);
        let addrs = server.addrs().to_vec();
        // Store through the memcached door, read through RESP and dido.
        run_session(
            addrs[0],
            &[(b"set shared 0 0 3\r\nxyz\r\n", b"STORED\r\n")],
            &format!("{name}/mc-set"),
        );
        run_session(
            addrs[1],
            &[(b"*2\r\n$3\r\nGET\r\n$6\r\nshared\r\n", b"$3\r\nxyz\r\n")],
            &format!("{name}/resp-get"),
        );
        let mut dido = KvClient::connect(addrs[2]).unwrap();
        let rs = dido.request(&[Query::get("shared")]).unwrap();
        assert_eq!(&rs[0].value[..], b"xyz", "{name}/dido-get");
        server.shutdown();
    }
}

#[test]
fn ttl_sessions_expire_per_protocol_semantics() {
    // Memcached exptime (relative, absolute-unix, and already-passed)
    // and RESP `SET ... EX` against a mock clock the server's codecs
    // share — expiry is observed in-band by plain GETs, never by
    // sleeping. The clock starts above memcached's 30-day threshold so
    // absolute exptimes are representable.
    const START: u32 = 3_000_000;
    for (name, mode) in modes() {
        let clock = Arc::new(MockClock::at(START));
        let shared: SharedClock = clock.clone();
        let server = KvServer::start_multi_with_clock(
            &[
                ("127.0.0.1:0", ProtocolKind::Memcached),
                ("127.0.0.1:0", ProtocolKind::Resp),
            ],
            mode,
            shared.clone(),
            ttl_store_handler(shared),
        )
        .expect("bind ttl listeners");
        let addrs = server.addrs().to_vec();

        run_session(
            addrs[0],
            &[
                // exptime 10 ≤ 30 days: relative seconds from now.
                (b"set rel 0 10 3\r\nrrr\r\n", b"STORED\r\n"),
                // exptime > 30 days: absolute unix time (now + 40).
                (b"set abs 0 3000040 3\r\naaa\r\n", b"STORED\r\n"),
                // Absolute exptime already in the past: stored but
                // immediately expired, per memcached semantics.
                (b"set old 0 2600000 3\r\nooo\r\n", b"STORED\r\n"),
                // exptime 0: never expires.
                (b"set ever 0 0 3\r\neee\r\n", b"STORED\r\n"),
                (
                    b"get rel abs old ever\r\n",
                    b"VALUE rel 0 3\r\nrrr\r\nVALUE abs 0 3\r\naaa\r\nVALUE ever 0 3\r\neee\r\nEND\r\n",
                ),
            ],
            &format!("{name}/mc-ttl-store"),
        );
        run_session(
            addrs[1],
            &[
                (
                    b"*5\r\n$3\r\nSET\r\n$1\r\nk\r\n$3\r\nval\r\n$2\r\nEX\r\n$2\r\n20\r\n",
                    b"+OK\r\n",
                ),
                (b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n", b"$3\r\nval\r\n"),
            ],
            &format!("{name}/resp-ex-store"),
        );

        // 10 s on: `rel` hits its deadline (expiry is inclusive); the
        // absolute entry and the RESP `EX 20` key live on.
        clock.advance(10);
        run_session(
            addrs[0],
            &[(
                b"get rel abs\r\n",
                b"VALUE abs 0 3\r\naaa\r\nEND\r\n",
            )],
            &format!("{name}/mc-ttl-mid"),
        );
        run_session(
            addrs[1],
            &[(b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n", b"$3\r\nval\r\n")],
            &format!("{name}/resp-ex-mid"),
        );

        // 40 s on: everything with a deadline is gone; exptime 0 stays.
        clock.advance(30);
        run_session(
            addrs[0],
            &[(
                b"get rel abs old ever\r\n",
                b"VALUE ever 0 3\r\neee\r\nEND\r\n",
            )],
            &format!("{name}/mc-ttl-late"),
        );
        run_session(
            addrs[1],
            &[(b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n", b"$-1\r\n")],
            &format!("{name}/resp-ex-late"),
        );
        server.shutdown();
    }
}

#[test]
fn requests_split_across_writes_decode_whole() {
    // The canned sessions above write whole requests; this one drips a
    // memcached set through arbitrary write boundaries (prefix of the
    // command line, then the rest mid-data-block) with pauses between
    // them — the carved request must come out
    // identical. Exhaustive split coverage lives in the codec property
    // tests; this proves the live read loop honors the boundary.
    for (name, mode) in modes() {
        let server = multi_proto_server(mode);
        let addr = server.addrs()[0];
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for piece in [
            &b"set dri"[..],
            &b"p 0 0 7\r\ndr"[..],
            &b"ip-it\r\nget drip\r\n"[..],
        ] {
            stream.write_all(piece).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(150));
        }
        let expect = b"STORED\r\nVALUE drip 0 7\r\ndrip-it\r\nEND\r\n";
        let mut got = vec![0u8; expect.len()];
        stream.read_exact(&mut got).expect("split-write reply");
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(expect),
            "{name}"
        );
        server.shutdown();
    }
}
