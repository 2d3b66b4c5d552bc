//! Hardware specifications: the Kaveri APU profile and the discrete
//! Mega-KV testbed profile.


/// CPU-side hardware parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Number of cores available to pipeline stages.
    pub cores: usize,
    /// Core frequency in GHz (cycles per nanosecond).
    pub freq_ghz: f64,
    /// Peak sustained instructions per cycle per core.
    pub ipc: f64,
    /// Random (cache-missing) memory access latency, ns. The paper's
    /// Equation 1 charges this serially per access (`L_M^{XPU}`).
    pub mem_latency_ns: f64,
    /// L2 cache access latency, ns (`L_C^{XPU}`).
    pub l2_latency_ns: f64,
    /// Last-level cache capacity in bytes (used for the skewed-key hot
    /// set: the "most frequently visited key-value objects are cached by
    /// the CPU", paper §IV-B).
    pub cache_bytes: u64,
    /// Cache line size in bytes (`C^{XPU}` in the paper's key-value
    /// object access-cost estimate).
    pub cache_line: u64,
}

/// GPU-side hardware parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Compute units (Kaveri: 8).
    pub compute_units: usize,
    /// Lanes (shaders) per compute unit — the wavefront width (64).
    pub lanes_per_cu: usize,
    /// Shader frequency in GHz.
    pub freq_ghz: f64,
    /// Peak instructions per cycle per lane.
    pub ipc: f64,
    /// Random memory access latency as seen from the GPU, ns. Higher
    /// than the CPU's: the integrated GPU's path to DRAM is longer, and
    /// it has no large cache in front.
    pub mem_latency_ns: f64,
    /// GPU L2 access latency, ns.
    pub l2_latency_ns: f64,
    /// GPU cache capacity in bytes (small compared to the CPU's, so
    /// skewed workloads benefit much less when hot tasks run GPU-side).
    pub cache_bytes: u64,
    /// Maximum memory-level parallelism: outstanding random accesses the
    /// GPU memory system sustains at full occupancy. This is what lets a
    /// well-fed GPU hide memory latency (paper §II-A).
    pub max_mlp: f64,
    /// Minimum effective MLP even at one resident wavefront (the lanes
    /// of a single wavefront still issue some accesses concurrently).
    pub min_mlp: f64,
    /// Memory-level parallelism cap for *atomic* (CAS/read-modify-write)
    /// traffic: atomics serialize at the memory controller and cannot be
    /// latency-hidden like plain loads, which is why small Insert/Delete
    /// kernels stay expensive even in large batches (Figure 6).
    pub atomic_mlp: f64,
    /// Number of in-flight items that saturate occupancy. Batches
    /// smaller than this get proportionally less latency hiding — the
    /// root cause of the paper's Figure 6.
    pub saturation_items: f64,
    /// Fixed cost of launching one kernel, ns (OpenCL enqueue + schedule;
    /// a few microseconds on the APU).
    pub kernel_launch_ns: f64,
    /// Memory bandwidth available to GPU kernels, bytes/ns (the shared
    /// DDR3 bus on the APU; the cards' own GDDR5 on the discrete
    /// profile). Streaming kernels (bulk value reads) bottleneck here
    /// long before the latency/MLP limit — the reason the paper's DIDO
    /// keeps RD on the CPU for large key-value sizes (§V-C).
    pub mem_bandwidth_gbps: f64,
}

impl GpuSpec {
    /// Items processed per wave (`lanes × CUs`).
    #[must_use]
    pub fn wave_items(&self) -> usize {
        self.compute_units * self.lanes_per_cu
    }
}

/// Shared-memory parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySpec {
    /// Peak memory bus bandwidth, bytes per nanosecond (GB/s numerically).
    pub bandwidth_gbps: f64,
    /// Shared CPU+GPU memory capacity available for key-value data,
    /// bytes. The paper's APU could allocate 1,908 MB of shared memory
    /// (§V-A).
    pub shared_bytes: u64,
}

/// Price and power constants for the Figure 17/18 comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformCosts {
    /// Processor price in USD.
    pub price_usd: f64,
    /// Thermal design power in watts.
    pub tdp_watts: f64,
}

/// A complete hardware profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwSpec {
    /// CPU parameters.
    pub cpu: CpuSpec,
    /// GPU parameters.
    pub gpu: GpuSpec,
    /// Memory parameters.
    pub mem: MemorySpec,
    /// Price/power constants.
    pub costs: PlatformCosts,
    /// Whether CPU and GPU share one address space (coupled/hUMA) or the
    /// GPU sits behind PCIe (discrete).
    pub coupled: bool,
    /// Interference couplings: how strongly the GPU's memory traffic
    /// slows the CPU (`mu_cpu_k`) and vice versa (`mu_gpu_k`). The paper
    /// (citing Kayiran et al.) notes GPUs impact CPUs more than the
    /// reverse, so `mu_cpu_k > mu_gpu_k` on the coupled profile; a
    /// discrete GPU has its own memory, so both are 0 there.
    pub mu_cpu_k: f64,
    /// See `mu_cpu_k`.
    pub mu_gpu_k: f64,
}

impl HwSpec {
    /// The AMD A10-7850K Kaveri APU profile (paper §V-A): 4 CPU cores at
    /// 3.7 GHz, 8 GPU CUs × 64 lanes at 720 MHz, 1333 MHz dual-channel
    /// DDR3, 1,908 MB of CPU/GPU shared memory, 95 W TDP, ~152 USD.
    #[must_use]
    pub fn kaveri_apu() -> HwSpec {
        HwSpec {
            cpu: CpuSpec {
                cores: 4,
                freq_ghz: 3.7,
                ipc: 2.0,
                mem_latency_ns: 80.0,
                l2_latency_ns: 5.0,
                cache_bytes: 4 * 1024 * 1024,
                cache_line: 64,
            },
            gpu: GpuSpec {
                compute_units: 8,
                lanes_per_cu: 64,
                freq_ghz: 0.72,
                ipc: 1.0,
                mem_latency_ns: 500.0,
                l2_latency_ns: 30.0,
                cache_bytes: 512 * 1024,
                max_mlp: 64.0,
                min_mlp: 8.0,
                atomic_mlp: 12.0,
                saturation_items: 4096.0,
                kernel_launch_ns: 8_000.0,
                mem_bandwidth_gbps: 21.3,
            },
            mem: MemorySpec {
                bandwidth_gbps: 21.3,
                shared_bytes: 1_908 * 1024 * 1024,
            },
            costs: PlatformCosts {
                price_usd: 152.0,
                tdp_watts: 95.0,
            },
            coupled: true,
            mu_cpu_k: 0.35,
            mu_gpu_k: 0.15,
        }
    }

    /// The Mega-KV (Discrete) testbed profile (paper §V-E): two Intel
    /// E5-2650 v2 CPUs (8 cores each, 2.6 GHz) and two NVIDIA GeForce
    /// GTX 780 GPUs (12 SMX, GDDR5) connected over PCIe 3.0. Aggregated
    /// into one spec: core counts and GPU width doubled, memory
    /// bandwidth is the GPUs' own GDDR5. Price ≈ 25× the APU
    /// (2×1,166 + 2×649 ≈ 3,630 USD); TDP 2×95 + 2×250 = 690 W.
    #[must_use]
    pub fn discrete_gtx780() -> HwSpec {
        HwSpec {
            cpu: CpuSpec {
                cores: 16,
                freq_ghz: 2.6,
                ipc: 2.5,
                mem_latency_ns: 90.0,
                l2_latency_ns: 4.0,
                cache_bytes: 2 * 20 * 1024 * 1024,
                cache_line: 64,
            },
            gpu: GpuSpec {
                // 2 × 12 SMX, modelled as wavefront-width lanes per unit.
                compute_units: 24,
                lanes_per_cu: 64,
                freq_ghz: 0.9,
                ipc: 2.0,
                mem_latency_ns: 350.0,
                l2_latency_ns: 20.0,
                cache_bytes: 2 * 1536 * 1024,
                max_mlp: 512.0,
                min_mlp: 16.0,
                atomic_mlp: 48.0,
                saturation_items: 24576.0,
                kernel_launch_ns: 10_000.0,
                mem_bandwidth_gbps: 2.0 * 288.0,
            },
            mem: MemorySpec {
                // GDDR5 on the cards; host DDR3 is not the index
                // bottleneck in Mega-KV (Discrete).
                bandwidth_gbps: 2.0 * 288.0,
                shared_bytes: 2 * 3 * 1024 * 1024 * 1024,
            },
            costs: PlatformCosts {
                price_usd: 3_630.0,
                tdp_watts: 690.0,
            },
            coupled: false,
            mu_cpu_k: 0.0,
            mu_gpu_k: 0.0,
        }
    }

    /// Peak random cache-line accesses per nanosecond the memory bus
    /// sustains (bandwidth divided by line size).
    #[must_use]
    pub fn bus_peak_access_rate(&self) -> f64 {
        self.mem.bandwidth_gbps / self.cpu.cache_line as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaveri_matches_paper_headline_numbers() {
        let hw = HwSpec::kaveri_apu();
        assert_eq!(hw.cpu.cores, 4);
        assert_eq!(hw.gpu.compute_units, 8);
        assert_eq!(hw.gpu.lanes_per_cu, 64);
        assert!((hw.cpu.freq_ghz - 3.7).abs() < 1e-9);
        assert!((hw.gpu.freq_ghz - 0.72).abs() < 1e-9);
        assert_eq!(hw.mem.shared_bytes, 1_908 * 1024 * 1024);
        assert!(hw.coupled);
        assert!((hw.costs.tdp_watts - 95.0).abs() < 1e-9);
    }

    #[test]
    fn discrete_is_pricier_and_hotter() {
        let apu = HwSpec::kaveri_apu();
        let disc = HwSpec::discrete_gtx780();
        assert!(!disc.coupled);
        let price_ratio = disc.costs.price_usd / apu.costs.price_usd;
        assert!(
            (20.0..30.0).contains(&price_ratio),
            "paper: discrete processors ~25x the APU price, got {price_ratio:.1}"
        );
        assert!(disc.costs.tdp_watts > 6.0 * apu.costs.tdp_watts);
        assert_eq!(disc.mu_cpu_k, 0.0, "discrete GPUs have their own memory");
    }

    #[test]
    fn gpu_wave_items() {
        assert_eq!(HwSpec::kaveri_apu().gpu.wave_items(), 512);
    }

    #[test]
    fn interference_asymmetry() {
        let hw = HwSpec::kaveri_apu();
        assert!(
            hw.mu_cpu_k > hw.mu_gpu_k,
            "GPUs impact CPUs more than the reverse (Kayiran et al.)"
        );
    }

    #[test]
    fn bus_rate_is_positive() {
        assert!(HwSpec::kaveri_apu().bus_peak_access_rate() > 0.1);
    }
}
