//! The four workloads: what each one sends, and the bytes it sends.
//!
//! A workload is a seeded stream of 16-query request groups. The stream
//! is generated once as abstract `(op, key id, ttl)` triples and then
//! encoded for the wire, so `k16_g95_zipf` and `mc_k16_g95_zipf` carry
//! the same queries over two protocols. Keys are printable fixed-width
//! ASCII so the memcached text protocol can carry them unchanged; a value
//! is a function of `(key id, version)` so every GET reply can be
//! checked against what was stored.

use dido_kvstore::HEADER_SIZE;
use dido_workload::{Dataset, KeyDistribution, ScrambledZipfian, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Queries per request group (one dido frame; one pipelined memcached
/// write).
pub const GROUP_QUERIES: usize = 16;
/// `--store-mb` of the fixed server topology.
pub const STORE_MB: usize = 128;
/// Relative TTLs (seconds, 0 = immortal) a churn SET draws from; the
/// ladder `evictionpath` drives `TtlChurnGen` with.
pub const TTL_LADDER: [u32; 4] = [1, 3, 10, 0];
/// Width of the version field at the start of every value.
pub const VERSION_BYTES: usize = 8;
/// Width of the key id at the start of every key.
pub const ID_BYTES: usize = 8;

/// Wire protocol a workload speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Length-prefixed dido binary frames.
    Dido,
    /// memcached text: a run of GETs is one multi-key `get`, a SET is
    /// `set` with reply.
    Memcached,
}

impl Proto {
    /// The server's name for it (its `as_str` is the `--proto` value).
    #[must_use]
    pub fn kind(self) -> dido_net::ProtocolKind {
        match self {
            Proto::Dido => dido_net::ProtocolKind::Dido,
            Proto::Memcached => dido_net::ProtocolKind::Memcached,
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the suite (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Key and value sizes.
    pub dataset: Dataset,
    /// Share of GETs; the rest are SETs.
    pub get_ratio: f64,
    /// Zipf skew of key popularity, or uniform.
    pub zipf: Option<f64>,
    /// Distinct key ids the stream draws from.
    pub keyspace: u32,
    /// SETs carry TTLs from [`TTL_LADDER`], and key ids shift on every
    /// pass over the pool so the key space stays larger than the pool.
    pub churn: bool,
    /// Wire protocol.
    pub proto: Proto,
    /// Fixed open-loop rate of the `paced` phase, queries/s.
    pub paced_qps: u64,
    /// Request groups pre-encoded for the timed phases.
    pub pool_groups: usize,
    /// Queries of the workload's own mix sent after the preload and
    /// before timing starts. A count, not a duration, so set-up does the
    /// same work however fast the host is today; sized per workload so
    /// that set-up takes two to three seconds on the reference box.
    pub warmup_queries: u64,
}

/// The suite. Names are final: `BENCHMARK.json` and every later
/// comparison key on them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "k16_g95_zipf",
        why: "16 B keys, 64 B values, 95% GET, zipf 0.99, dido-binary: per-query fixed cost (framing, hand-off, core bookkeeping, index search) is nearly all the work",
        dataset: Dataset::K16,
        get_ratio: 0.95,
        zipf: Some(0.99),
        keyspace: 500_000,
        churn: false,
        proto: Proto::Dido,
        paced_qps: 500_000,
        pool_groups: 65_536,
        warmup_queries: 2_200_000,
    },
    Workload {
        name: "k128_g95_uniform",
        why: "128 B keys, 1 KB values, 95% GET, uniform over half the objects the store holds: every GET is a cache-missing 1 KB read, compare and reply, so copies and egress dominate",
        dataset: Dataset::K128,
        get_ratio: 0.95,
        zipf: None,
        // Half the 65 536 objects (2 KB slab class) the store holds, as
        // K16's 500 k keys are half of its 2^20. The engine does not free
        // a replaced version: it lingers until CLOCK reaches it, so CLOCK
        // comes round once per (capacity - keys) SETs. With the key space
        // equal to capacity that was faster than GETs re-referenced live
        // keys, live keys were evicted, and the hit ratio decayed for
        // minutes (0.86 over 20 s, 0.82 over 60 s): every number depended
        // on how long the run had lasted. With half, a live key is
        // referenced ~19 times per revolution and none is evicted.
        keyspace: 32_768,
        churn: false,
        proto: Proto::Dido,
        paced_qps: 150_000,
        pool_groups: 16_384,
        warmup_queries: 800_000,
    },
    Workload {
        name: "k32_g50_churn",
        why: "32 B keys, 256 B values, 50% SET with TTLs over 8x the store: allocation, CLOCK eviction, index insert/delete and expiry, so a GET gain paid for by writes shows as a loss",
        dataset: Dataset::K32,
        get_ratio: 0.50,
        zipf: None,
        // Eight times the 262 144 objects the store holds.
        keyspace: 2_097_152,
        churn: true,
        proto: Proto::Dido,
        paced_qps: 400_000,
        pool_groups: 32_768,
        warmup_queries: 2_000_000,
    },
    Workload {
        name: "mc_k16_g95_zipf",
        why: "the byte-identical query stream of k16_g95_zipf over memcached-text: everything below the codec is the same, so the difference between the two is the codec's cost",
        dataset: Dataset::K16,
        get_ratio: 0.95,
        zipf: Some(0.99),
        keyspace: 500_000,
        churn: false,
        proto: Proto::Memcached,
        paced_qps: 250_000,
        pool_groups: 65_536,
        warmup_queries: 1_400_000,
    },
];

impl Workload {
    /// Look a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Objects of this dataset the 128 MB store holds (its slab class
    /// is the power of two above header + key + value).
    #[must_use]
    pub fn capacity_objects(&self) -> u32 {
        self.as_spec()
            .keyspace_size((STORE_MB as u64) << 20, HEADER_SIZE) as u32
    }

    /// Key ids of the preload, in send order: the key space once (or as
    /// much of it as fits), then round again until the store is full, so
    /// the timed phases start in the evicting steady state instead of
    /// crossing into it mid-run.
    pub fn preload_ids(&self) -> impl Iterator<Item = u32> {
        let keys = self.keyspace.min(self.capacity_objects());
        let sets = keys.max(self.capacity_objects());
        (0..sets).map(move |i| i % keys)
    }

    /// The same workload in the repo's own notation.
    #[must_use]
    pub fn as_spec(&self) -> WorkloadSpec {
        let dist = match self.zipf {
            Some(theta) => KeyDistribution::Zipf(theta),
            None => KeyDistribution::Uniform,
        };
        WorkloadSpec::new(self.dataset, self.get_ratio, dist)
    }

    /// Key id a pooled query addresses on pass `cycle` over the pool.
    /// Only churn shifts: its key space is larger than any pool, and
    /// replaying the same ids would shrink it to the pool's.
    #[must_use]
    pub fn id_on_cycle(&self, id: u32, cycle: u32) -> u32 {
        if !self.churn || cycle == 0 {
            return id;
        }
        ((u64::from(id) + u64::from(cycle) * 0x9E_3779) % u64::from(self.keyspace)) as u32
    }
}

/// One generated query, before encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenQuery {
    /// SET (true) or GET.
    pub set: bool,
    /// Key id.
    pub id: u32,
    /// Relative TTL of a SET.
    pub ttl: u32,
}

/// The SETs that load `w`'s key space (see [`Workload::preload_ids`]),
/// with the TTLs churn draws for them.
#[must_use]
pub fn preload_stream(w: &Workload, seed: u64) -> Vec<GenQuery> {
    let mut ttl_rng = StdRng::seed_from_u64(seed ^ 0x7711_C4C4_77A1_D0D0);
    w.preload_ids()
        .map(|id| GenQuery {
            set: true,
            id,
            ttl: if w.churn {
                TTL_LADDER[ttl_rng.gen_range(0..TTL_LADDER.len())]
            } else {
                0
            },
        })
        .collect()
}

/// The first `n` queries of the workload's stream for `seed`. The name
/// is not mixed into the seed: the two K16 workloads share a stream.
#[must_use]
pub fn generate(w: &Workload, seed: u64, n: usize) -> Vec<GenQuery> {
    let keyspace = u64::from(w.keyspace);
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = w.zipf.map(|theta| ScrambledZipfian::new(keyspace, theta));
    (0..n)
        .map(|_| {
            let id = match &zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.gen_range(0..keyspace),
            } as u32;
            let set = rng.gen::<f64>() >= w.get_ratio;
            let ttl = if set && w.churn {
                TTL_LADDER[rng.gen_range(0..TTL_LADDER.len())]
            } else {
                0
            };
            GenQuery { set, id, ttl }
        })
        .collect()
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Write `v` as eight lowercase hex digits.
pub fn write_hex8(dst: &mut [u8], v: u32) {
    for (i, d) in dst[..8].iter_mut().enumerate() {
        *d = HEX[((v >> (28 - 4 * i)) & 15) as usize];
    }
}

/// Parse eight lowercase hex digits.
#[must_use]
pub fn parse_hex8(src: &[u8]) -> Option<u32> {
    if src.len() < 8 {
        return None;
    }
    src[..8].iter().try_fold(0u32, |acc, &c| {
        let d = match c {
            b'0'..=b'9' => c - b'0',
            b'a'..=b'f' => c - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u32::from(d))
    })
}

/// Fill `dst` with lowercase letters drawn from a xorshift stream.
fn fill_letters(dst: &mut [u8], seed: u64) {
    let mut x = seed | 1;
    for chunk in dst.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        for (d, s) in chunk.iter_mut().zip(x.to_le_bytes()) {
            *d = b'a' + (s & 15);
        }
    }
}

/// The key of `id`: eight hex digits of the id, then letters derived
/// from it, exactly `dst.len()` printable bytes.
pub fn write_key(dst: &mut [u8], id: u32) {
    write_hex8(dst, id);
    fill_letters(
        &mut dst[ID_BYTES..],
        dido_workload::fnv_mix(u64::from(id) ^ 0xD1D0_4B45_5953),
    );
}

/// The part of `id`'s value after the version field.
pub fn write_value_body(dst: &mut [u8], id: u32) {
    fill_letters(
        dst,
        dido_workload::fnv_mix(u64::from(id) ^ 0x5641_4C55_4553),
    );
}

/// The value of `(id, version)`: eight hex digits of the version, then
/// letters derived from the id.
pub fn write_value(dst: &mut [u8], id: u32, version: u32) {
    write_hex8(dst, version);
    write_value_body(&mut dst[VERSION_BYTES..], id);
}

/// Pre-encoded request groups plus what the load generator needs to
/// patch, send and verify them without decoding.
#[derive(Debug)]
pub struct Pool {
    /// Protocol the bytes are encoded for.
    pub proto: Proto,
    /// Key width.
    pub key_len: usize,
    /// Value width.
    pub val_len: usize,
    /// Queries per group.
    pub per_group: usize,
    /// All groups' wire bytes, back to back.
    pub bytes: Vec<u8>,
    /// Byte offset of each group, plus the end of the last.
    pub group_start: Vec<usize>,
    /// Per query: SET or GET.
    pub set: Vec<bool>,
    /// Per query: key id at cycle 0.
    pub ids: Vec<u32>,
    /// Per query: key offset inside its group.
    pub key_off: Vec<u32>,
    /// Per SET: value offset inside its group (0 for a GET).
    pub val_off: Vec<u32>,
}

impl Pool {
    /// Encode `queries` in groups of `per_group` for `proto`. Version
    /// fields are written as 0 and patched when a group is sent.
    #[must_use]
    pub fn encode(queries: &[GenQuery], per_group: usize, dataset: Dataset, proto: Proto) -> Pool {
        let (key_len, val_len) = (dataset.key_size(), dataset.value_size());
        let n = queries.len();
        let mut pool = Pool {
            proto,
            key_len,
            val_len,
            per_group,
            bytes: Vec::new(),
            group_start: Vec::with_capacity(n / per_group + 2),
            set: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            key_off: Vec::with_capacity(n),
            val_off: Vec::with_capacity(n),
        };
        for group in queries.chunks(per_group) {
            let start = pool.bytes.len();
            pool.group_start.push(start);
            match proto {
                Proto::Dido => pool.push_dido_group(group, start),
                Proto::Memcached => pool.push_memcached_group(group, start),
            }
        }
        pool.group_start.push(pool.bytes.len());
        pool
    }

    /// Number of groups.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.group_start.len() - 1
    }

    /// Wire bytes of group `g`.
    #[must_use]
    pub fn group_bytes(&self, g: usize) -> &[u8] {
        &self.bytes[self.group_start[g]..self.group_start[g + 1]]
    }

    /// Query indices of group `g`.
    #[must_use]
    pub fn group_queries(&self, g: usize) -> std::ops::Range<usize> {
        let q0 = g * self.per_group;
        q0..(q0 + self.per_group).min(self.set.len())
    }

    /// FNV-1a of every request byte: equal seeds must give equal hashes.
    #[must_use]
    pub fn byte_hash(&self) -> u64 {
        self.bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn push_key(&mut self, q: &GenQuery, start: usize) {
        self.set.push(q.set);
        self.ids.push(q.id);
        self.key_off.push((self.bytes.len() - start) as u32);
        let at = self.bytes.len();
        self.bytes.resize(at + self.key_len, 0);
        write_key(&mut self.bytes[at..], q.id);
    }

    fn push_value(&mut self, q: &GenQuery, start: usize) {
        self.val_off.push((self.bytes.len() - start) as u32);
        let at = self.bytes.len();
        self.bytes.resize(at + self.val_len, 0);
        write_value(&mut self.bytes[at..], q.id, 0);
    }

    /// `len:u32 count:u16 (op:u8 key_len:u16 val_len:u32 [ttl:u32
    /// flags:u32] key value)*` — the layout `dido_net::parse_frame`
    /// reads, written here so offsets can be recorded on the way.
    fn push_dido_group(&mut self, group: &[GenQuery], start: usize) {
        self.bytes.extend_from_slice(&[0; 4]);
        self.bytes
            .extend_from_slice(&(group.len() as u16).to_le_bytes());
        for q in group {
            let val_len = if q.set { self.val_len } else { 0 };
            self.bytes.push(if q.set { 2 } else { 1 });
            self.bytes
                .extend_from_slice(&(self.key_len as u16).to_le_bytes());
            self.bytes
                .extend_from_slice(&(val_len as u32).to_le_bytes());
            if q.set {
                self.bytes.extend_from_slice(&q.ttl.to_le_bytes());
                self.bytes.extend_from_slice(&0u32.to_le_bytes());
            }
            self.push_key(q, start);
            if q.set {
                self.push_value(q, start);
            } else {
                self.val_off.push(0);
            }
        }
        let frame_len = (self.bytes.len() - start - 4) as u32;
        self.bytes[start..start + 4].copy_from_slice(&frame_len.to_le_bytes());
    }

    fn push_memcached_group(&mut self, group: &[GenQuery], start: usize) {
        let mut in_get = false;
        for q in group {
            if q.set {
                if in_get {
                    self.bytes.extend_from_slice(b"\r\n");
                    in_get = false;
                }
                self.bytes.extend_from_slice(b"set ");
                self.push_key(q, start);
                self.bytes
                    .extend_from_slice(format!(" 0 {} {}\r\n", q.ttl, self.val_len).as_bytes());
                self.push_value(q, start);
                self.bytes.extend_from_slice(b"\r\n");
            } else {
                self.bytes
                    .extend_from_slice(if in_get { b" " } else { b"get " });
                in_get = true;
                self.push_key(q, start);
                self.val_off.push(0);
            }
        }
        if in_get {
            self.bytes.extend_from_slice(b"\r\n");
        }
    }
}

/// The pools one run needs, all derived from one seed.
#[derive(Debug)]
pub struct Pools {
    /// 16-query groups of the workload's mix, for warm-up, `sat` and
    /// `paced`.
    pub main: Pool,
    /// Single-query requests of the same mix, for `rtt`.
    pub single: Pool,
    /// SET-only groups that load the key space.
    pub preload: Pool,
}

impl Pools {
    /// Generate and encode everything `w` sends for `seed`.
    #[must_use]
    pub fn build(w: &Workload, seed: u64) -> Pools {
        let main = generate(w, seed, w.pool_groups * GROUP_QUERIES);
        let single = generate(w, seed ^ 0x5254_545F_5345_4544, 16_384);
        let preload = preload_stream(w, seed);
        Pools {
            main: Pool::encode(&main, GROUP_QUERIES, w.dataset, w.proto),
            single: Pool::encode(&single, 1, w.dataset, w.proto),
            preload: Pool::encode(&preload, GROUP_QUERIES, w.dataset, w.proto),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dido_model::{Query, QueryOp};
    use dido_net::{carve_one, decode_request, parse_frame, Carve, ProtocolKind};

    #[test]
    fn keys_are_printable_and_fixed_width_for_every_dataset() {
        for ds in Dataset::ALL {
            let mut seen = std::collections::HashSet::new();
            for id in [0u32, 1, 499_999, 2_097_151, u32::MAX] {
                let mut key = vec![0u8; ds.key_size()];
                write_key(&mut key, id);
                assert_eq!(key.len(), ds.key_size());
                assert!(
                    key.iter().all(|b| b.is_ascii_graphic()),
                    "{ds} key of {id} not printable: {key:?}"
                );
                assert_eq!(parse_hex8(&key), Some(id));
                assert!(seen.insert(key), "{ds} keys collide");
            }
        }
    }

    #[test]
    fn values_carry_their_version_and_depend_on_the_id() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        write_value(&mut a, 7, 0xdead_beef);
        write_value(&mut b, 8, 0xdead_beef);
        assert_eq!(parse_hex8(&a), Some(0xdead_beef));
        assert_eq!(a[..8], b[..8]);
        assert_ne!(a[8..], b[8..]);
        let mut again = vec![0u8; 64];
        write_value(&mut again, 7, 3);
        assert_eq!(a[8..], again[8..]);
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        for w in &WORKLOADS {
            let small = Workload {
                pool_groups: 64,
                ..*w
            };
            let hash = |seed| {
                let q = generate(&small, seed, 64 * GROUP_QUERIES);
                Pool::encode(&q, GROUP_QUERIES, w.dataset, w.proto).byte_hash()
            };
            assert_eq!(hash(1), hash(1), "{}", w.name);
            assert_ne!(hash(1), hash(2), "{}", w.name);
        }
    }

    fn as_tuple(q: &Query) -> (QueryOp, Vec<u8>, Vec<u8>, u32) {
        (q.op, q.key.to_vec(), q.value.to_vec(), q.ttl)
    }

    /// Decode every group of `pool` with the server's own codec.
    fn decode_all(pool: &Pool) -> Vec<Query> {
        let mut out = Vec::new();
        for g in 0..pool.groups() {
            let bytes = Bytes::copy_from_slice(pool.group_bytes(g));
            match pool.proto {
                Proto::Dido => out.extend(parse_frame(&bytes.slice(4..)).unwrap()),
                Proto::Memcached => {
                    let mut pos = 0;
                    while pos < bytes.len() {
                        let Carve::Request { total, skip } =
                            carve_one(ProtocolKind::Memcached, &bytes[pos..]).unwrap()
                        else {
                            panic!("group {g} ends mid-request");
                        };
                        let payload = bytes.slice(pos + skip..pos + total);
                        let meta = decode_request(ProtocolKind::Memcached, &payload, 0, &mut out);
                        assert!(!meta.is_parse_error(), "group {g}: {meta:?}");
                        pos += total;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn binary_and_memcached_streams_decode_to_the_same_queries() {
        let k16 = Workload::by_name("k16_g95_zipf").unwrap();
        let mc = Workload::by_name("mc_k16_g95_zipf").unwrap();
        let n = 256 * GROUP_QUERIES;
        let stream = generate(k16, 42, n);
        assert_eq!(stream, generate(mc, 42, n));
        let bin = decode_all(&Pool::encode(
            &stream,
            GROUP_QUERIES,
            k16.dataset,
            Proto::Dido,
        ));
        let txt = decode_all(&Pool::encode(
            &stream,
            GROUP_QUERIES,
            mc.dataset,
            Proto::Memcached,
        ));
        assert_eq!(bin.len(), n);
        assert_eq!(
            bin.iter().map(as_tuple).collect::<Vec<_>>(),
            txt.iter().map(as_tuple).collect::<Vec<_>>()
        );
        assert!(bin.iter().any(|q| q.op == QueryOp::Set));
        for (q, g) in bin.iter().zip(&stream) {
            assert_eq!(q.op == QueryOp::Set, g.set);
            assert_eq!(parse_hex8(&q.key), Some(g.id));
        }
    }

    #[test]
    fn recorded_offsets_point_at_keys_and_values() {
        for w in &WORKLOADS {
            let stream = generate(w, 9, 8 * GROUP_QUERIES);
            let pool = Pool::encode(&stream, GROUP_QUERIES, w.dataset, w.proto);
            for g in 0..pool.groups() {
                let bytes = pool.group_bytes(g);
                for q in pool.group_queries(g) {
                    let k = pool.key_off[q] as usize;
                    assert_eq!(parse_hex8(&bytes[k..]), Some(pool.ids[q]), "{}", w.name);
                    if pool.set[q] {
                        let v = pool.val_off[q] as usize;
                        assert_eq!(parse_hex8(&bytes[v..]), Some(0));
                    }
                }
            }
        }
    }

    #[test]
    fn preload_fills_the_store_and_churn_outgrows_it() {
        let k16 = Workload::by_name("k16_g95_zipf").unwrap();
        assert_eq!(k16.capacity_objects(), 1 << 20);
        assert_eq!(k16.preload_ids().count(), 1 << 20);
        assert_eq!(k16.preload_ids().max(), Some(499_999));
        let k128 = Workload::by_name("k128_g95_uniform").unwrap();
        assert_eq!(k128.capacity_objects(), 65_536);
        assert_eq!(k128.keyspace * 2, k128.capacity_objects());
        assert_eq!(k128.preload_ids().count() as u32, k128.capacity_objects());
        assert_eq!(k128.preload_ids().max(), Some(k128.keyspace - 1));
        let churn = Workload::by_name("k32_g50_churn").unwrap();
        assert_eq!(churn.keyspace, 8 * churn.capacity_objects());
        assert_eq!(churn.preload_ids().count() as u32, churn.capacity_objects());
        assert_ne!(churn.id_on_cycle(5, 1), 5);
        assert!(churn.id_on_cycle(u32::MAX % churn.keyspace, 3) < churn.keyspace);
        assert_eq!(k16.id_on_cycle(5, 1), 5);
    }
}
