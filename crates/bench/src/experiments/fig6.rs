//! Figure 6: normalized GPU execution time of Search / Insert / Delete
//! as the Insert batch grows (95:5 GET:SET — each batch carries 19×
//! Searches, and at steady state one eviction Delete per Insert).

use crate::harness::spec;
use crate::{preloaded_engine, ExperimentCtx, SimExecutor, Table};
use dido_apu_sim::{HwSpec, TimingEngine};
use dido_model::{IndexOpKind, PipelineConfig};

/// Run the Figure 6 sweep.
pub fn run(ctx: &ExperimentCtx) {
    println!("\n== Figure 6: GPU time share of index operations (Mega-KV pipeline) ==");
    println!("(paper: Insert 26.8% and Delete 20.4% of GPU time on average —");
    println!(" 35-56% combined — despite being 5% of the operations)\n");
    let hw = HwSpec::kaveri_apu();
    let w = spec("K8-G95-S");
    let (engine, mut generator) = preloaded_engine(w, &hw, ctx.testbed());
    let sim = SimExecutor::new(TimingEngine::new(hw));

    let mut t = Table::new([
        "inserts",
        "search(norm)",
        "insert(norm)",
        "delete(norm)",
        "upd_share(%)",
    ]);
    for inserts in [1_000usize, 2_000, 3_000, 4_000, 5_000] {
        // 95:5 GET:SET => batch = 20 × inserts (19× searches). Evictions
        // supply the same number of Deletes.
        let batch = generator.batch(inserts * 20);
        let (report, _) = sim.run_batch(&engine, batch, PipelineConfig::mega_kv());
        let s = report.gpu_index_op_time(IndexOpKind::Search);
        let i = report.gpu_index_op_time(IndexOpKind::Insert);
        let d = report.gpu_index_op_time(IndexOpKind::Delete);
        let total = (s + i + d).max(1e-9);
        t.row([
            format!("{inserts}"),
            format!("{:.3}", s / total),
            format!("{:.3}", i / total),
            format!("{:.3}", d / total),
            format!("{:.0}", (i + d) / total * 100.0),
        ]);
    }
    t.emit(ctx, "fig6");
}
