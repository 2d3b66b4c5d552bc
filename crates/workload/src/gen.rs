//! Query stream generation.

use crate::spec::{Dataset, KeyDistribution, WorkloadSpec};
use crate::zipf::ScrambledZipfian;
use bytes::Bytes;
use dido_model::{Query, QueryOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic key bytes for key id `id` under a dataset: the id in
/// little-endian followed by a repeating mixed pad to the exact key
/// size. Distinct ids always produce distinct keys.
#[must_use]
pub fn key_bytes(dataset: Dataset, id: u64) -> Bytes {
    let size = dataset.key_size();
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(&id.to_le_bytes());
    let mut pad = crate::zipf::fnv_mix(id ^ 0xD1D0_D1D0_D1D0_D1D0);
    while out.len() < size {
        out.extend_from_slice(&pad.to_le_bytes());
        pad = pad.rotate_left(17) ^ 0xA5A5_5A5A_0F0F_F0F0;
    }
    out.truncate(size);
    Bytes::from(out)
}

/// Deterministic value bytes for key id `id` (size from the dataset).
#[must_use]
pub fn value_bytes(dataset: Dataset, id: u64) -> Bytes {
    let size = dataset.value_size();
    let mut out = Vec::with_capacity(size);
    let mut word = crate::zipf::fnv_mix(id.wrapping_mul(0x1234_5678_9ABC_DEF1));
    while out.len() < size {
        out.extend_from_slice(&word.to_le_bytes());
        word = word.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(23);
    }
    out.truncate(size);
    Bytes::from(out)
}

/// A seeded query-stream generator for one workload.
#[derive(Debug)]
pub struct WorkloadGen {
    spec: WorkloadSpec,
    n_keys: u64,
    rng: StdRng,
    zipf: Option<ScrambledZipfian>,
    generated: u64,
}

impl WorkloadGen {
    /// Generator over `n_keys` distinct keys, seeded for determinism.
    ///
    /// # Panics
    /// Panics if `n_keys == 0`.
    #[must_use]
    pub fn new(spec: WorkloadSpec, n_keys: u64, seed: u64) -> WorkloadGen {
        assert!(n_keys > 0, "need at least one key");
        let zipf = match spec.distribution {
            KeyDistribution::Uniform => None,
            KeyDistribution::Zipf(theta) => Some(ScrambledZipfian::new(n_keys, theta)),
        };
        WorkloadGen {
            spec,
            n_keys,
            rng: StdRng::seed_from_u64(seed),
            zipf,
            generated: 0,
        }
    }

    /// The workload specification.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn keyspace(&self) -> u64 {
        self.n_keys
    }

    /// Queries generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generated
    }

    fn sample_key_id(&mut self) -> u64 {
        match &self.zipf {
            None => self.rng.gen_range(0..self.n_keys),
            Some(z) => z.sample(&mut self.rng),
        }
    }

    /// Generate the next query.
    pub fn next_query(&mut self) -> Query {
        self.generated += 1;
        let id = self.sample_key_id();
        let key = key_bytes(self.spec.dataset, id);
        let r: f64 = self.rng.gen();
        if r < self.spec.get_ratio {
            Query {
                op: QueryOp::Get,
                key,
                value: Bytes::new(),
                ttl: 0,
                flags: 0,
            }
        } else if r < self.spec.get_ratio + self.spec.delete_ratio {
            Query {
                op: QueryOp::Delete,
                key,
                value: Bytes::new(),
                ttl: 0,
                flags: 0,
            }
        } else {
            Query {
                op: QueryOp::Set,
                key,
                value: value_bytes(self.spec.dataset, id),
                ttl: 0,
                flags: 0,
            }
        }
    }

    /// Generate a batch of `n` queries.
    pub fn batch(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }

    /// SET queries for every key id in `0..limit` — used to preload the
    /// store before measuring.
    pub fn preload_queries(&self, limit: u64) -> impl Iterator<Item = Query> + '_ {
        let dataset = self.spec.dataset;
        (0..limit.min(self.n_keys)).map(move |id| Query {
            op: QueryOp::Set,
            key: key_bytes(dataset, id),
            value: value_bytes(dataset, id),
            ttl: 0,
            flags: 0,
        })
    }
}

impl Iterator for WorkloadGen {
    type Item = Query;
    fn next(&mut self) -> Option<Query> {
        Some(self.next_query())
    }
}

/// Alternates between two workloads every `cycle` queries — the
/// Figure 20/21 stress pattern ("cyclically alternating the workload
/// between K8-G50-U and K16-G95-S").
#[derive(Debug)]
pub struct AlternatingGen {
    a: WorkloadGen,
    b: WorkloadGen,
    cycle: u64,
    emitted: u64,
}

impl AlternatingGen {
    /// Alternate between `a` and `b` every `cycle` queries.
    ///
    /// # Panics
    /// Panics if `cycle == 0`.
    #[must_use]
    pub fn new(a: WorkloadGen, b: WorkloadGen, cycle: u64) -> AlternatingGen {
        assert!(cycle > 0, "cycle must be positive");
        AlternatingGen {
            a,
            b,
            cycle,
            emitted: 0,
        }
    }

    /// Which workload the next query comes from (false = `a`).
    #[must_use]
    pub fn in_second_phase(&self) -> bool {
        (self.emitted / self.cycle) % 2 == 1
    }

    /// Next query from the active workload.
    pub fn next_query(&mut self) -> Query {
        let q = if self.in_second_phase() {
            self.b.next_query()
        } else {
            self.a.next_query()
        };
        self.emitted += 1;
        q
    }

    /// Generate a batch of `n` queries (may span a phase boundary).
    pub fn batch(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

/// Overlays TTL churn and mixed object sizes on a base workload: every
/// SET carries a TTL drawn from a small ladder (a rung of `0` means a
/// share of immortal keys), and each key id maps deterministically onto
/// one of the four datasets so one stream exercises several slab
/// classes at once. Keys embed the id in their first eight bytes, so
/// GETs and DELETEs are re-keyed onto the same per-id dataset and
/// always find their writes regardless of which class the object
/// landed in. This is the eviction-path stress shape: expiry storms
/// plus cross-class allocation pressure.
#[derive(Debug)]
pub struct TtlChurnGen {
    inner: WorkloadGen,
    ladder: Vec<u32>,
    rng: StdRng,
}

impl TtlChurnGen {
    /// Wrap the workload `spec` with TTLs sampled uniformly from
    /// `ladder` on every SET.
    ///
    /// # Panics
    /// Panics if `ladder` is empty or `n_keys == 0`.
    #[must_use]
    pub fn new(spec: WorkloadSpec, n_keys: u64, seed: u64, ladder: &[u32]) -> TtlChurnGen {
        assert!(!ladder.is_empty(), "need at least one TTL rung");
        TtlChurnGen {
            inner: WorkloadGen::new(spec, n_keys, seed),
            ladder: ladder.to_vec(),
            rng: StdRng::seed_from_u64(seed ^ 0x7711_C4C4_77A1_D0D0),
        }
    }

    /// The dataset (and thus slab class) key id `id` lives in.
    #[must_use]
    pub fn dataset_for(id: u64) -> Dataset {
        let pick = crate::zipf::fnv_mix(id ^ 0xC1A5_5E5E_0B0B_B0B0) as usize;
        Dataset::ALL[pick % Dataset::ALL.len()]
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn keyspace(&self) -> u64 {
        self.inner.keyspace()
    }

    /// The base workload specification (op mix and distribution; sizes
    /// are per-key, not the spec's).
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        self.inner.spec()
    }

    fn sample_ttl(&mut self) -> u32 {
        self.ladder[self.rng.gen_range(0..self.ladder.len())]
    }

    fn rekey(q: &mut Query) -> u64 {
        let id = u64::from_le_bytes(q.key[..8].try_into().expect("keys embed an 8-byte id"));
        q.key = key_bytes(TtlChurnGen::dataset_for(id), id);
        id
    }

    /// Next query: the base workload's op and key id, re-keyed onto the
    /// id's own dataset, with a ladder TTL on SETs.
    pub fn next_query(&mut self) -> Query {
        let mut q = self.inner.next_query();
        let id = TtlChurnGen::rekey(&mut q);
        if q.op == QueryOp::Set {
            q.value = value_bytes(TtlChurnGen::dataset_for(id), id);
            q.ttl = self.sample_ttl();
        }
        q
    }

    /// Generate a batch of `n` queries.
    pub fn batch(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }

    /// SET queries (with ladder TTLs) for every key id in `0..limit`.
    pub fn preload_queries(&mut self, limit: u64) -> Vec<Query> {
        (0..limit.min(self.inner.keyspace()))
            .map(|id| {
                let ds = TtlChurnGen::dataset_for(id);
                Query {
                    op: QueryOp::Set,
                    key: key_bytes(ds, id),
                    value: value_bytes(ds, id),
                    ttl: self.sample_ttl(),
                    flags: 0,
                }
            })
            .collect()
    }
}

impl Iterator for TtlChurnGen {
    type Item = Query;
    fn next(&mut self) -> Option<Query> {
        Some(self.next_query())
    }
}

/// Overlays a traffic spike on a base workload: while active, a small
/// hot set absorbs a fixed share of queries — the paper's §II-C spike
/// scenario ("a swift surge in user interest on one topic, such as
/// major news or media events"), which shifts the effective skewness
/// and should trigger re-adaption.
#[derive(Debug)]
pub struct SpikeGen {
    inner: WorkloadGen,
    spike_keys: u64,
    spike_share: f64,
    active: bool,
    rng: StdRng,
}

impl SpikeGen {
    /// Wrap `inner`; while the spike is active, `spike_share` of
    /// queries target the `spike_keys` hottest ids.
    ///
    /// # Panics
    /// Panics if `spike_keys` is 0 or `spike_share` not in `[0, 1]`.
    #[must_use]
    pub fn new(inner: WorkloadGen, spike_keys: u64, spike_share: f64, seed: u64) -> SpikeGen {
        assert!(spike_keys > 0, "need at least one spike key");
        assert!(
            (0.0..=1.0).contains(&spike_share),
            "spike share must be a fraction"
        );
        SpikeGen {
            spike_keys: spike_keys.min(inner.keyspace()),
            inner,
            spike_share,
            active: false,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Turn the spike on or off.
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// Whether the spike is currently active.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Next query: the base workload's, except that during a spike a
    /// share of GETs is redirected onto the hot set.
    pub fn next_query(&mut self) -> Query {
        let mut q = self.inner.next_query();
        if self.active && q.op == QueryOp::Get && self.rng.gen::<f64>() < self.spike_share {
            let hot = self.rng.gen_range(0..self.spike_keys);
            q.key = key_bytes(self.inner.spec().dataset, hot);
        }
        q
    }

    /// Generate a batch of `n` queries.
    pub fn batch(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(label: &str) -> WorkloadSpec {
        WorkloadSpec::from_label(label).unwrap()
    }

    #[test]
    fn keys_have_exact_size_and_are_distinct() {
        for ds in Dataset::ALL {
            let a = key_bytes(ds, 1);
            let b = key_bytes(ds, 2);
            assert_eq!(a.len(), ds.key_size());
            assert_eq!(b.len(), ds.key_size());
            assert_ne!(a, b);
        }
        // Determinism.
        assert_eq!(key_bytes(Dataset::K32, 77), key_bytes(Dataset::K32, 77));
        assert_eq!(value_bytes(Dataset::K128, 9).len(), 1024);
    }

    #[test]
    fn get_ratio_is_respected() {
        let mut g = WorkloadGen::new(spec("K16-G95-U"), 10_000, 1);
        let n = 50_000;
        let gets = (0..n).filter(|_| g.next_query().op == QueryOp::Get).count();
        let ratio = gets as f64 / n as f64;
        assert!(
            (ratio - 0.95).abs() < 0.01,
            "GET ratio {ratio:.3} should be ~0.95"
        );
    }

    #[test]
    fn set_queries_carry_right_value_size() {
        let mut g = WorkloadGen::new(spec("K32-G50-U"), 1_000, 2);
        for _ in 0..1_000 {
            let q = g.next_query();
            match q.op {
                QueryOp::Set => {
                    assert_eq!(q.key.len(), 32);
                    assert_eq!(q.value.len(), 256);
                }
                _ => assert!(q.value.is_empty()),
            }
        }
    }

    #[test]
    fn zipf_workload_is_skewed_uniform_is_not() {
        let count_hot = |label: &str| {
            let mut g = WorkloadGen::new(spec(label), 100_000, 3);
            let mut counts = std::collections::HashMap::new();
            for _ in 0..50_000 {
                *counts.entry(g.next_query().key).or_insert(0u32) += 1;
            }
            let mut v: Vec<u32> = counts.values().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            f64::from(v[0]) / 50_000.0
        };
        assert!(count_hot("K8-G100-S") > 0.02, "zipf head should be hot");
        assert!(count_hot("K8-G100-U") < 0.01, "uniform head should be cold");
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mk = || WorkloadGen::new(spec("K16-G95-S"), 1_000, 99).batch(50);
        assert_eq!(mk(), mk());
        let other = WorkloadGen::new(spec("K16-G95-S"), 1_000, 100).batch(50);
        assert_ne!(mk(), other);
    }

    #[test]
    fn preload_covers_prefix_of_keyspace() {
        let g = WorkloadGen::new(spec("K8-G95-U"), 100, 1);
        let pre: Vec<Query> = g.preload_queries(10).collect();
        assert_eq!(pre.len(), 10);
        assert!(pre.iter().all(|q| q.op == QueryOp::Set));
        assert_eq!(pre[3].key, key_bytes(Dataset::K8, 3));
    }

    #[test]
    fn alternating_switches_specs_on_cycle() {
        let a = WorkloadGen::new(spec("K8-G50-U"), 1_000, 1);
        let b = WorkloadGen::new(spec("K16-G95-S"), 1_000, 2);
        let mut alt = AlternatingGen::new(a, b, 100);
        for i in 0..400 {
            let expect_b = (i / 100) % 2 == 1;
            assert_eq!(alt.in_second_phase(), expect_b, "at query {i}");
            let q = alt.next_query();
            let expected_key = if expect_b { 16 } else { 8 };
            assert_eq!(q.key.len(), expected_key, "at query {i}");
        }
    }

    #[test]
    fn spike_concentrates_traffic_while_active() {
        let base = WorkloadGen::new(spec("K8-G100-U"), 100_000, 4);
        let mut sg = SpikeGen::new(base, 4, 0.5, 5);
        let hot_share = |sg: &mut SpikeGen| {
            let hot: Vec<_> = (0..4).map(|i| key_bytes(Dataset::K8, i)).collect();
            let n = 20_000;
            let hits = (0..n)
                .filter(|_| hot.contains(&sg.next_query().key))
                .count();
            hits as f64 / n as f64
        };
        assert!(!sg.is_active());
        let quiet = hot_share(&mut sg);
        assert!(quiet < 0.01, "no spike: hot share {quiet}");
        sg.set_active(true);
        let spiking = hot_share(&mut sg);
        assert!(
            (spiking - 0.5).abs() < 0.05,
            "spike share should be ~0.5, got {spiking}"
        );
        sg.set_active(false);
        assert!(hot_share(&mut sg) < 0.01, "spike must switch off");
    }

    #[test]
    fn ttl_churn_mixes_classes_and_ttls() {
        let ladder = [2u32, 10, 0];
        let mut g = TtlChurnGen::new(spec("K16-G50-U"), 5_000, 7, &ladder);
        let mut key_sizes = std::collections::HashSet::new();
        let mut seen_ttls = std::collections::HashSet::new();
        for _ in 0..5_000 {
            let q = g.next_query();
            key_sizes.insert(q.key.len());
            let id = u64::from_le_bytes(q.key[..8].try_into().unwrap());
            let ds = TtlChurnGen::dataset_for(id);
            assert_eq!(q.key, key_bytes(ds, id), "key must match the id's dataset");
            if q.op == QueryOp::Set {
                assert_eq!(q.value.len(), ds.value_size());
                assert!(ladder.contains(&q.ttl), "ttl {} not on ladder", q.ttl);
                seen_ttls.insert(q.ttl);
            } else {
                assert_eq!(q.ttl, 0, "only SETs carry TTLs");
            }
        }
        assert!(key_sizes.len() >= 3, "sizes must span classes: {key_sizes:?}");
        assert_eq!(seen_ttls.len(), 3, "all rungs must be used: {seen_ttls:?}");
    }

    #[test]
    fn ttl_churn_reads_find_their_writes() {
        // A GET of id k produces exactly the key a SET of id k produced,
        // even though sizes are per-key now.
        let mut g = TtlChurnGen::new(spec("K8-G50-U"), 64, 11, &[5]);
        let mut stored = std::collections::HashMap::new();
        for q in g.by_ref().take(2_000) {
            match q.op {
                QueryOp::Set => {
                    stored.insert(q.key.clone(), q.value.clone());
                }
                _ => {
                    if let Some(v) = stored.get(&q.key) {
                        let id = u64::from_le_bytes(q.key[..8].try_into().unwrap());
                        assert_eq!(v, &value_bytes(TtlChurnGen::dataset_for(id), id));
                    }
                }
            }
        }
        assert!(!stored.is_empty());
    }

    #[test]
    fn ttl_churn_is_deterministic_and_preloads() {
        let mk = || TtlChurnGen::new(spec("K16-G95-S"), 500, 3, &[1, 60]).batch(100);
        assert_eq!(mk(), mk());
        let mut g = TtlChurnGen::new(spec("K16-G95-S"), 500, 3, &[1, 60]);
        let pre = g.preload_queries(50);
        assert_eq!(pre.len(), 50);
        assert!(pre.iter().all(|q| q.op == QueryOp::Set));
        assert!(pre.iter().all(|q| q.ttl == 1 || q.ttl == 60));
    }

    #[test]
    #[should_panic(expected = "spike share")]
    fn spike_share_validated() {
        let base = WorkloadGen::new(spec("K8-G100-U"), 100, 1);
        let _ = SpikeGen::new(base, 1, 1.5, 0);
    }

    #[test]
    fn iterator_interface_works() {
        let g = WorkloadGen::new(spec("K8-G100-U"), 10, 5);
        let qs: Vec<Query> = g.take(7).collect();
        assert_eq!(qs.len(), 7);
        assert!(qs.iter().all(|q| q.op == QueryOp::Get));
    }
}
