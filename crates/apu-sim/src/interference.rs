//! CPU↔GPU performance interference on the shared memory bus.
//!
//! On a coupled architecture the two processors compete for one memory
//! system; the paper models this with a factor `µ^{XPU}_{N_C,N_G}` —
//! "performance interference to the XPU with N_C memory accesses on the
//! CPU and N_G memory accesses on the GPU" — measured by a
//! microbenchmark (§IV-A). We provide both:
//!
//! * [`InterferenceModel`]: the continuous law the *simulator* applies,
//!   `µ = 1 + k · min(1, other_rate / bus_peak_rate)`, asymmetric
//!   (GPU traffic hurts the CPU more than the reverse, after Kayiran et
//!   al., cited by the paper).
//! * [`InterferenceTable`]: a quantized lookup table built by running a
//!   grid of synthetic access-rate pairs through the model — exactly the
//!   microbenchmark-then-table approach the paper's cost model uses. The
//!   quantization is a deliberate source of cost-model error relative to
//!   the simulator (Figure 9).

use crate::spec::HwSpec;
use dido_model::Processor;

/// Continuous interference law.
#[derive(Debug, Clone, Copy)]
pub struct InterferenceModel {
    bus_peak_rate: f64,
    mu_cpu_k: f64,
    mu_gpu_k: f64,
}

impl InterferenceModel {
    /// Build from a hardware spec.
    #[must_use]
    pub fn new(hw: &HwSpec) -> InterferenceModel {
        InterferenceModel {
            bus_peak_rate: hw.bus_peak_access_rate(),
            mu_cpu_k: hw.mu_cpu_k,
            mu_gpu_k: hw.mu_gpu_k,
        }
    }

    /// Slowdown factor for `victim` given the *other* processor's memory
    /// access rate (accesses per nanosecond) during overlapped execution.
    #[must_use]
    pub fn mu(&self, victim: Processor, other_rate: f64) -> f64 {
        let k = match victim {
            Processor::Cpu => self.mu_cpu_k,
            Processor::Gpu => self.mu_gpu_k,
        };
        1.0 + k * (other_rate / self.bus_peak_rate).clamp(0.0, 1.0)
    }

    /// Convenience: µ for the CPU given CPU/GPU access rates (the CPU is
    /// the victim of GPU traffic).
    #[must_use]
    pub fn mu_cpu(&self, gpu_rate: f64) -> f64 {
        self.mu(Processor::Cpu, gpu_rate)
    }

    /// Convenience: µ for the GPU given CPU traffic.
    #[must_use]
    pub fn mu_gpu(&self, cpu_rate: f64) -> f64 {
        self.mu(Processor::Gpu, cpu_rate)
    }
}

/// Microbenchmark-built µ lookup table (what the cost model consults).
///
/// Rates are quantized to `buckets` steps of the bus peak rate in each
/// dimension; lookups round to the nearest grid point.
#[derive(Debug, Clone)]
pub struct InterferenceTable {
    buckets: usize,
    bus_peak_rate: f64,
    cpu_mu: Vec<f64>,
    gpu_mu: Vec<f64>,
}

impl InterferenceTable {
    /// Run the µ microbenchmark over a `buckets × buckets` grid of
    /// (CPU rate, GPU rate) pairs.
    #[must_use]
    pub fn measure(hw: &HwSpec, buckets: usize) -> InterferenceTable {
        assert!(buckets >= 2, "need at least two grid points");
        let model = InterferenceModel::new(hw);
        let peak = hw.bus_peak_access_rate();
        let mut cpu_mu = Vec::with_capacity(buckets);
        let mut gpu_mu = Vec::with_capacity(buckets);
        for i in 0..buckets {
            // Grid point i represents the other processor generating
            // i/(buckets-1) of the peak rate.
            let other_rate = peak * i as f64 / (buckets - 1) as f64;
            cpu_mu.push(model.mu_cpu(other_rate));
            gpu_mu.push(model.mu_gpu(other_rate));
        }
        InterferenceTable {
            buckets,
            bus_peak_rate: peak,
            cpu_mu,
            gpu_mu,
        }
    }

    fn bucket(&self, rate: f64) -> usize {
        let frac = (rate / self.bus_peak_rate).clamp(0.0, 1.0);
        (frac * (self.buckets - 1) as f64).round() as usize
    }

    /// Table lookup of µ for `victim` under the other processor's rate.
    #[must_use]
    pub fn mu(&self, victim: Processor, other_rate: f64) -> f64 {
        let idx = self.bucket(other_rate);
        match victim {
            Processor::Cpu => self.cpu_mu[idx],
            Processor::Gpu => self.gpu_mu[idx],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HwSpec {
        HwSpec::kaveri_apu()
    }

    #[test]
    fn no_traffic_no_interference() {
        let m = InterferenceModel::new(&hw());
        assert_eq!(m.mu_cpu(0.0), 1.0);
        assert_eq!(m.mu_gpu(0.0), 1.0);
    }

    #[test]
    fn mu_grows_with_other_rate_and_saturates() {
        let m = InterferenceModel::new(&hw());
        let peak = hw().bus_peak_access_rate();
        assert!(m.mu_cpu(peak / 2.0) > m.mu_cpu(peak / 4.0));
        assert_eq!(m.mu_cpu(peak), m.mu_cpu(peak * 10.0));
        assert!((m.mu_cpu(peak) - (1.0 + hw().mu_cpu_k)).abs() < 1e-12);
    }

    #[test]
    fn gpu_hurts_cpu_more_than_reverse() {
        let m = InterferenceModel::new(&hw());
        let r = hw().bus_peak_access_rate() / 2.0;
        assert!(m.mu_cpu(r) > m.mu_gpu(r));
    }

    #[test]
    fn discrete_profile_has_no_interference() {
        let m = InterferenceModel::new(&HwSpec::discrete_gtx780());
        let r = 1.0;
        assert_eq!(m.mu_cpu(r), 1.0);
        assert_eq!(m.mu_gpu(r), 1.0);
    }

    #[test]
    fn table_matches_model_at_grid_points() {
        let h = hw();
        let model = InterferenceModel::new(&h);
        let table = InterferenceTable::measure(&h, 9);
        let peak = h.bus_peak_access_rate();
        for i in 0..9 {
            let rate = peak * i as f64 / 8.0;
            assert!((table.mu(Processor::Cpu, rate) - model.mu_cpu(rate)).abs() < 1e-12);
            assert!((table.mu(Processor::Gpu, rate) - model.mu_gpu(rate)).abs() < 1e-12);
        }
    }

    #[test]
    fn table_quantizes_between_grid_points() {
        let h = hw();
        let model = InterferenceModel::new(&h);
        let table = InterferenceTable::measure(&h, 5);
        let peak = h.bus_peak_access_rate();
        // Just off a grid point: table rounds, model interpolates — they
        // differ (that is the intended cost-model error source) but stay
        // close.
        let rate = peak * 0.33;
        let t = table.mu(Processor::Cpu, rate);
        let m = model.mu_cpu(rate);
        assert!((t - m).abs() > 0.0);
        assert!((t - m).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn table_needs_two_buckets() {
        let _ = InterferenceTable::measure(&hw(), 1);
    }
}
