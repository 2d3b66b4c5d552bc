//! Figure 9: cost-model error rate across all 24 workloads —
//! `(T_DIDO − T_Model) / T_DIDO`, where `T_DIDO` is the measured
//! (simulated) throughput and `T_Model` the analytic prediction for the
//! same configuration.

use crate::harness::measure_dido;
use crate::{DidoSystem, ExperimentCtx, Table};
use dido_cost_model::CostModel;
use dido_workload::WorkloadSpec;

/// Run the Figure 9 comparison.
pub fn run(ctx: &ExperimentCtx) {
    println!("\n== Figure 9: cost model error rate (all 24 workloads) ==");
    println!("(paper: max 14.2%, average 7.7%)\n");
    let model = CostModel::new(dido_apu_sim::HwSpec::kaveri_apu());
    let mut t = Table::new(["workload", "measured(MOPS)", "predicted(MOPS)", "error(%)"]);
    let mut abs_errors = Vec::new();
    for w in WorkloadSpec::all_24() {
        let m = measure_dido(ctx, w);
        // Predict the throughput of the *same* configuration DIDO chose,
        // from the same profiled inputs.
        let dido = DidoSystem::preloaded(w, ctx.dido_options());
        let mut stats = m.report.report.stats;
        stats.zipf_skew = w.distribution.skew();
        let inputs = dido.model_inputs(stats);
        let pred = model.predict(m.config, &inputs);
        let measured = m.mops();
        let predicted = pred.throughput_mops();
        let err = (measured - predicted) / measured * 100.0;
        abs_errors.push(err.abs());
        t.row([
            w.label(),
            format!("{measured:.2}"),
            format!("{predicted:.2}"),
            format!("{err:+.1}"),
        ]);
    }
    t.emit(ctx, "fig9");
    let avg = abs_errors.iter().sum::<f64>() / abs_errors.len() as f64;
    let max = abs_errors.iter().fold(0.0_f64, |a, &b| a.max(b));
    println!("\naverage |error| = {avg:.1}%   max |error| = {max:.1}%");
}
