//! Energy estimation.
//!
//! The paper's Figure 18 divides throughput by TDP — a worst-case
//! power assumption. This model refines it: a chip at partial
//! utilization draws its idle floor plus a dynamic share proportional
//! to how busy it is, which is how modern power management actually
//! behaves and what the ablation-style "util-scaled" energy column
//! reports.

use crate::spec::HwSpec;

/// Utilization-aware power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Thermal design power, watts.
    pub tdp_watts: f64,
    /// Fraction of TDP drawn at idle (package power floor).
    pub idle_fraction: f64,
}

impl EnergyModel {
    /// Model for a hardware profile with a typical 30 % idle floor.
    #[must_use]
    pub fn for_hw(hw: &HwSpec) -> EnergyModel {
        EnergyModel {
            tdp_watts: hw.costs.tdp_watts,
            idle_fraction: 0.3,
        }
    }

    /// Estimated package power at the given CPU/GPU utilizations
    /// (each in `[0, 1]`), weighting the two sides by their share of
    /// TDP (CPU and GPU are assumed to split the budget evenly on the
    /// APU; the discrete profile's TDP already sums both devices).
    #[must_use]
    pub fn power_watts(&self, cpu_util: f64, gpu_util: f64) -> f64 {
        let cpu_util = cpu_util.clamp(0.0, 1.0);
        let gpu_util = gpu_util.clamp(0.0, 1.0);
        let dynamic = 0.5 * (cpu_util + gpu_util);
        self.tdp_watts * (self.idle_fraction + (1.0 - self.idle_fraction) * dynamic)
    }

    /// Throughput per watt: `KOPS/W` for a given MOPS throughput and
    /// utilization pair.
    #[must_use]
    pub fn kops_per_watt(&self, throughput_mops: f64, cpu_util: f64, gpu_util: f64) -> f64 {
        let p = self.power_watts(cpu_util, gpu_util);
        if p <= 0.0 {
            return 0.0;
        }
        throughput_mops * 1_000.0 / p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel {
            tdp_watts: 100.0,
            idle_fraction: 0.3,
        }
    }

    #[test]
    fn idle_draws_the_floor_and_full_load_draws_tdp() {
        let m = model();
        assert!((m.power_watts(0.0, 0.0) - 30.0).abs() < 1e-9);
        assert!((m.power_watts(1.0, 1.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn power_is_monotone_in_utilization() {
        let m = model();
        assert!(m.power_watts(0.8, 0.2) > m.power_watts(0.4, 0.2));
        assert!(m.power_watts(0.4, 0.9) > m.power_watts(0.4, 0.2));
    }

    #[test]
    fn utilization_clamps() {
        let m = model();
        assert_eq!(m.power_watts(2.0, 2.0), m.power_watts(1.0, 1.0));
        assert_eq!(m.power_watts(-1.0, 0.0), m.power_watts(0.0, 0.0));
    }

    #[test]
    fn efficiency_favours_busy_chips() {
        // Same throughput at lower utilization means the idle floor is
        // amortized worse — a half-idle chip is less efficient per op
        // than a busy one delivering proportionally more.
        let m = model();
        let busy = m.kops_per_watt(10.0, 1.0, 1.0);
        let half = m.kops_per_watt(5.0, 0.5, 0.5);
        assert!(busy > half);
    }

    #[test]
    fn for_hw_uses_profile_tdp() {
        let apu = EnergyModel::for_hw(&HwSpec::kaveri_apu());
        assert!((apu.tdp_watts - 95.0).abs() < 1e-9);
        let disc = EnergyModel::for_hw(&HwSpec::discrete_gtx780());
        assert!(disc.tdp_watts > 600.0);
    }
}
