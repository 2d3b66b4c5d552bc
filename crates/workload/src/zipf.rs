//! Zipfian key-popularity sampling (YCSB-compatible).
//!
//! The paper's skewed workloads follow "a Zipf distribution of skewness
//! 0.99, which is the same with the YCSB workload" (§V-A). This is the
//! classic Gray et al. rejection-inversion generator YCSB uses, plus a
//! *scrambled* variant that hashes ranks so the popular keys are spread
//! over the key space instead of clustered at low ids.

use rand::Rng;

/// Zipfian generator over ranks `0..n`, with rank 0 the most popular.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Generator over `n` items with skew `theta` (YCSB default 0.99).
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "need at least one item");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0,1); got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Harmonic-like normalizer `ζ(n, θ) = Σ_{i=1..n} 1/i^θ`.
    ///
    /// Exact summation for the head; Euler-Maclaurin tail beyond 10⁴
    /// terms (the cost model evaluates this in inner loops, and the
    /// tail approximation's relative error is < 10⁻⁶ for θ < 1).
    #[must_use]
    pub fn zeta(n: u64, theta: f64) -> f64 {
        const HEAD: u64 = 10_000;
        if n <= HEAD {
            return (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        }
        let head: f64 = (1..=HEAD).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        // Euler-Maclaurin: Σ_{a+1..b} f(i) ≈ ∫_a^b f + (f(b) - f(a))/2,
        // with f(x) = x^-θ.
        let a = HEAD as f64;
        let b = n as f64;
        let integral = (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        head + integral + 0.5 * (b.powf(-theta) - a.powf(-theta))
    }

    /// Number of items.
    #[must_use]
    pub fn items(&self) -> u64 {
        self.n
    }

    /// The skew parameter θ.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Sample a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Theoretical probability of rank `i` (0-based).
    #[must_use]
    pub fn probability(&self, rank: u64) -> f64 {
        1.0 / ((rank + 1) as f64).powf(self.theta) / self.zetan
    }

    /// Fraction of accesses landing on the `k` most popular items —
    /// the `P = Σ_{i≤n'} f_i / Σ_j f_j` term the cost model uses for
    /// cache-hit estimation (paper §IV-B).
    #[must_use]
    pub fn top_k_mass(&self, k: u64) -> f64 {
        let k = k.min(self.n);
        Self::zeta(k.max(1), self.theta) / self.zetan * if k == 0 { 0.0 } else { 1.0 }
    }
}

/// Scrambled Zipfian: Zipfian ranks pushed through a mix function so hot
/// keys scatter across the id space (YCSB's `ScrambledZipfianGenerator`).
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// See [`Zipfian::new`].
    #[must_use]
    pub fn new(n: u64, theta: f64) -> ScrambledZipfian {
        ScrambledZipfian {
            inner: Zipfian::new(n, theta),
        }
    }

    /// Sample a key id in `0..n` with Zipf popularity but scrambled
    /// identity.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let rank = self.inner.sample(rng);
        // Salt before mixing: fnv_mix is a bijection with a fixed point
        // at 0, which would pin the hottest rank to key id 0.
        fnv_mix(rank.wrapping_add(0x9E37_79B9_7F4A_7C15)) % self.inner.n
    }
}

/// 64-bit FNV-style mix used for rank scrambling.
#[must_use]
pub fn fnv_mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeta_small_values() {
        assert!((Zipfian::zeta(1, 0.99) - 1.0).abs() < 1e-12);
        let z2 = Zipfian::zeta(2, 0.5);
        assert!((z2 - (1.0 + 1.0 / 2f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn rank_zero_dominates() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut zero = 0u32;
        let n = 100_000;
        for _ in 0..n {
            if z.sample(&mut rng) == 0 {
                zero += 1;
            }
        }
        let observed = f64::from(zero) / f64::from(n);
        let expected = z.probability(0);
        assert!(
            (observed - expected).abs() / expected < 0.1,
            "rank-0 frequency {observed:.4} vs theoretical {expected:.4}"
        );
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = Zipfian::new(500, 0.8);
        let sum: f64 = (0..500).map(|r| z.probability(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_k_mass_matches_ycsb_rule_of_thumb() {
        // Under θ=0.99 Zipf, a small head carries a large access share.
        let z = Zipfian::new(1_000_000, 0.99);
        let top1pct = z.top_k_mass(10_000);
        assert!(
            top1pct > 0.4,
            "top 1% of a 0.99-skew keyspace should draw >40% of traffic, got {top1pct:.3}"
        );
        assert!(z.top_k_mass(1_000_000) > 0.999);
        assert!(z.top_k_mass(0) == 0.0);
    }

    #[test]
    fn top_k_mass_is_monotone() {
        let z = Zipfian::new(10_000, 0.99);
        let mut prev = 0.0;
        for k in [1u64, 10, 100, 1_000, 10_000] {
            let m = z.top_k_mass(k);
            assert!(m >= prev);
            prev = m;
        }
    }

    #[test]
    fn scrambled_preserves_skew_but_spreads_ids() {
        let s = ScrambledZipfian::new(100_000, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..200_000 {
            *counts.entry(s.sample(&mut rng)).or_insert(0u32) += 1;
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Hot key should carry a few percent of traffic...
        assert!(f64::from(freqs[0]) / 200_000.0 > 0.02);
        // ...and hot ids should not all be tiny numbers.
        let hot_id = counts.iter().max_by_key(|(_, &c)| c).map(|(&k, _)| k).unwrap();
        assert!(hot_id > 1_000, "scrambling must move the hot key away from id 0");
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn invalid_theta_panics() {
        let _ = Zipfian::new(10, 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_panics() {
        let _ = Zipfian::new(0, 0.9);
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipfian::new(1000, 0.99);
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(11);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(11);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
