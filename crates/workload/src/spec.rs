//! Workload specifications: the paper's 24-workload benchmark matrix.

use std::fmt;

/// The four key-value size datasets of §V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// 8-byte keys, 8-byte values (e.g. counters / USR-like tiny data).
    K8,
    /// 16-byte keys, 64-byte values.
    K16,
    /// 32-byte keys, 256-byte values.
    K32,
    /// 128-byte keys, 1024-byte values.
    K128,
}

impl Dataset {
    /// All four datasets.
    pub const ALL: [Dataset; 4] = [Dataset::K8, Dataset::K16, Dataset::K32, Dataset::K128];

    /// Key size in bytes.
    #[must_use]
    pub fn key_size(self) -> usize {
        match self {
            Dataset::K8 => 8,
            Dataset::K16 => 16,
            Dataset::K32 => 32,
            Dataset::K128 => 128,
        }
    }

    /// Value size in bytes.
    #[must_use]
    pub fn value_size(self) -> usize {
        match self {
            Dataset::K8 => 8,
            Dataset::K16 => 64,
            Dataset::K32 => 256,
            Dataset::K128 => 1024,
        }
    }

    /// Name as used in workload labels (`K8`, `K16`, ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Dataset::K8 => "K8",
            Dataset::K16 => "K16",
            Dataset::K32 => "K32",
            Dataset::K128 => "K128",
        }
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Key popularity distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every key equally likely.
    Uniform,
    /// Zipf with the given skewness (paper/YCSB: 0.99).
    Zipf(f64),
}

impl KeyDistribution {
    /// The paper's skewed setting.
    pub const YCSB_ZIPF: KeyDistribution = KeyDistribution::Zipf(0.99);

    /// Suffix used in workload labels: `U` or `S`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KeyDistribution::Uniform => "U",
            KeyDistribution::Zipf(_) => "S",
        }
    }

    /// Skewness value (0 for uniform).
    #[must_use]
    pub fn skew(self) -> f64 {
        match self {
            KeyDistribution::Uniform => 0.0,
            KeyDistribution::Zipf(s) => s,
        }
    }
}

/// One benchmark workload: dataset × GET ratio × key distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Key/value sizes.
    pub dataset: Dataset,
    /// Fraction of GETs (1.0, 0.95 or 0.50 in the paper; any value in
    /// `[0,1]` is accepted).
    pub get_ratio: f64,
    /// Fraction of DELETEs (0 in the paper's matrix; the remainder after
    /// GETs and DELETEs are SETs).
    pub delete_ratio: f64,
    /// Key popularity.
    pub distribution: KeyDistribution,
}

impl WorkloadSpec {
    /// Construct a paper-style workload (no DELETEs).
    #[must_use]
    pub fn new(dataset: Dataset, get_ratio: f64, distribution: KeyDistribution) -> WorkloadSpec {
        WorkloadSpec {
            dataset,
            get_ratio,
            delete_ratio: 0.0,
            distribution,
        }
    }

    /// The paper's full 24-workload matrix: 4 datasets × {100, 95, 50} %
    /// GET × {uniform, zipf 0.99}.
    #[must_use]
    pub fn all_24() -> Vec<WorkloadSpec> {
        let mut v = Vec::with_capacity(24);
        for dataset in Dataset::ALL {
            for get in [1.0, 0.95, 0.50] {
                for dist in [KeyDistribution::Uniform, KeyDistribution::YCSB_ZIPF] {
                    v.push(WorkloadSpec::new(dataset, get, dist));
                }
            }
        }
        v
    }

    /// Label in the paper's `K32-G95-U` notation.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}-G{}-{}",
            self.dataset,
            (self.get_ratio * 100.0).round() as u32,
            self.distribution.label()
        )
    }

    /// Parse a `K32-G95-U`-style label (zipf labels get skew 0.99).
    #[must_use]
    pub fn from_label(label: &str) -> Option<WorkloadSpec> {
        let mut parts = label.split('-');
        let ds = match parts.next()? {
            "K8" => Dataset::K8,
            "K16" => Dataset::K16,
            "K32" => Dataset::K32,
            "K128" => Dataset::K128,
            _ => return None,
        };
        let g = parts.next()?;
        let ratio: f64 = g.strip_prefix('G')?.parse::<u32>().ok()? as f64 / 100.0;
        if !(0.0..=1.0).contains(&ratio) {
            return None;
        }
        let dist = match parts.next()? {
            "U" => KeyDistribution::Uniform,
            "S" => KeyDistribution::YCSB_ZIPF,
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(WorkloadSpec::new(ds, ratio, dist))
    }

    /// Number of distinct keys that fit the store: "we store as many
    /// key-value objects as possible with an upper limit of the data set
    /// size to be 1,908 MB" (§V-A). Uses the object's slab class size on
    /// the reproduction's power-of-two ladder (`ObjectStore::mega_kv`); a
    /// serving store's finer ladder holds more.
    #[must_use]
    pub fn keyspace_size(&self, store_capacity_bytes: u64, header_size: usize) -> u64 {
        let total = header_size + self.dataset.key_size() + self.dataset.value_size();
        let class = (total.max(32)).next_power_of_two() as u64;
        (store_capacity_bytes / class).max(1)
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_sizes_match_paper() {
        assert_eq!((Dataset::K8.key_size(), Dataset::K8.value_size()), (8, 8));
        assert_eq!((Dataset::K16.key_size(), Dataset::K16.value_size()), (16, 64));
        assert_eq!((Dataset::K32.key_size(), Dataset::K32.value_size()), (32, 256));
        assert_eq!(
            (Dataset::K128.key_size(), Dataset::K128.value_size()),
            (128, 1024)
        );
    }

    #[test]
    fn twenty_four_unique_workloads() {
        let all = WorkloadSpec::all_24();
        assert_eq!(all.len(), 24);
        let labels: std::collections::HashSet<String> =
            all.iter().map(WorkloadSpec::label).collect();
        assert_eq!(labels.len(), 24);
        assert!(labels.contains("K8-G100-U"));
        assert!(labels.contains("K128-G50-S"));
    }

    #[test]
    fn label_round_trips() {
        for spec in WorkloadSpec::all_24() {
            let parsed = WorkloadSpec::from_label(&spec.label()).unwrap();
            assert_eq!(parsed, spec);
        }
        assert!(WorkloadSpec::from_label("K9-G95-U").is_none());
        assert!(WorkloadSpec::from_label("K8-95-U").is_none());
        assert!(WorkloadSpec::from_label("K8-G95-X").is_none());
        assert!(WorkloadSpec::from_label("K8-G95-U-extra").is_none());
        assert!(WorkloadSpec::from_label("K8-G950-U").is_none());
    }

    #[test]
    fn keyspace_scales_inversely_with_object_size() {
        let cap = 1_908 * 1024 * 1024;
        let k8 = WorkloadSpec::from_label("K8-G95-U").unwrap().keyspace_size(cap, 16);
        let k128 = WorkloadSpec::from_label("K128-G95-U").unwrap().keyspace_size(cap, 16);
        assert!(k8 > k128 * 10);
        // K8: 16+8+8 = 32B class -> ~62.5M keys.
        assert_eq!(k8, cap / 32);
        // K128: 16+128+1024 = 1168 -> 2048B class.
        assert_eq!(k128, cap / 2048);
    }

    #[test]
    fn distribution_labels() {
        assert_eq!(KeyDistribution::Uniform.label(), "U");
        assert_eq!(KeyDistribution::YCSB_ZIPF.label(), "S");
        assert_eq!(KeyDistribution::Uniform.skew(), 0.0);
        assert!((KeyDistribution::YCSB_ZIPF.skew() - 0.99).abs() < 1e-12);
    }
}
