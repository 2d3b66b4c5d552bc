//! PCIe transfer model for the discrete CPU-GPU profile.
//!
//! On a discrete architecture every batch shipped to the GPU (keys,
//! signatures, job descriptors) and every result batch shipped back
//! crosses the PCIe bus — "considered as one of the largest overhead for
//! GPU execution" (paper §II-A). The coupled profile never pays this.

use crate::Ns;

/// PCIe link model: fixed per-transfer setup cost plus bytes/bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieModel {
    /// Effective bandwidth, bytes per nanosecond (GB/s numerically).
    pub bandwidth_gbps: f64,
    /// Fixed DMA setup + driver latency per transfer, ns.
    pub per_transfer_ns: f64,
}

impl PcieModel {
    /// PCIe 3.0 x16 with realistic effective bandwidth (~10 GB/s of the
    /// 15.75 GB/s theoretical) and ~8 µs per-transfer overhead.
    #[must_use]
    pub fn pcie3_x16() -> PcieModel {
        PcieModel {
            bandwidth_gbps: 10.0,
            per_transfer_ns: 8_000.0,
        }
    }

    /// Time to move `bytes` in one DMA transfer. Zero bytes cost zero
    /// (no transfer issued).
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> Ns {
        if bytes == 0 {
            return 0.0;
        }
        self.per_transfer_ns + bytes as f64 / self.bandwidth_gbps
    }

    /// Round trip: host→device input of `in_bytes` plus device→host
    /// output of `out_bytes` (two transfers).
    #[must_use]
    pub fn round_trip_time(&self, in_bytes: u64, out_bytes: u64) -> Ns {
        self.transfer_time(in_bytes) + self.transfer_time(out_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        let p = PcieModel::pcie3_x16();
        assert_eq!(p.transfer_time(0), 0.0);
    }

    #[test]
    fn fixed_cost_dominates_small_transfers() {
        let p = PcieModel::pcie3_x16();
        let t = p.transfer_time(64);
        assert!((t - p.per_transfer_ns) / p.per_transfer_ns < 0.01);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let p = PcieModel::pcie3_x16();
        let bytes = 100 * 1024 * 1024_u64;
        let t = p.transfer_time(bytes);
        let pure_bw = bytes as f64 / p.bandwidth_gbps;
        assert!((t - pure_bw) / pure_bw < 0.01);
    }

    #[test]
    fn round_trip_is_two_transfers() {
        let p = PcieModel::pcie3_x16();
        assert_eq!(
            p.round_trip_time(1_000, 2_000),
            p.transfer_time(1_000) + p.transfer_time(2_000)
        );
    }

    #[test]
    fn monotonic_in_bytes() {
        let p = PcieModel::pcie3_x16();
        assert!(p.transfer_time(2_000) > p.transfer_time(1_000));
    }
}
