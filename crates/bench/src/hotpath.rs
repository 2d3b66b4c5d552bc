//! Hot-path harness: engine-only throughput of the
//! wavefront-vectorized zero-allocation path.
//!
//! Runs the real [`dido_pipeline::tasks`] — batched probes with software
//! prefetch, one staging arena per batch, zero-copy response slices —
//! in one all-on-CPU stage over a preloaded engine, with no network in
//! the way: the ceiling every front-door number sits under.
//!
//! Results are reported as ops/sec per (workload mix × batch size) cell
//! and serialized by [`HotpathReport::to_json`] for `BENCH_hotpath.json`.

use dido_apu_sim::HwSpec;
use dido_model::{PipelineConfig, Processor, Query, Response, TaskKind, TaskSet};
use dido_pipeline::{preloaded_engine, tasks, Batch, KvEngine, StageCtx, TestbedOptions};
use dido_workload::{Dataset, KeyDistribution, WorkloadSpec};
use std::time::Instant;

/// Batch sizes measured per mix; 64 matches the probe wavefront /
/// steal-tag granularity, 8192 is the paper's standard batch.
pub const BATCH_SIZES: [usize; 3] = [64, 512, 8192];

/// A workload mix measured by the harness.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Stable name used in the JSON report (`get_heavy`, ...).
    pub name: &'static str,
    /// Fraction of GETs; the remainder are SETs.
    pub get_ratio: f64,
}

/// The three mixes of the harness: pure GET, SET-dominated, and the
/// paper's standard 95/5 read-mostly mix.
pub const MIXES: [Mix; 3] = [
    Mix {
        name: "get_heavy",
        get_ratio: 1.0,
    },
    Mix {
        name: "set_heavy",
        get_ratio: 0.05,
    },
    Mix {
        name: "mixed_95_5",
        get_ratio: 0.95,
    },
];

/// Harness knobs (store size, measurement volume, workload seed).
#[derive(Debug, Clone, Copy)]
pub struct HotpathOptions {
    /// Smoke mode: tiny store and few iterations, for CI.
    pub quick: bool,
    /// Workload generator seed.
    pub seed: u64,
    /// Object-store bytes of the engine.
    pub store_bytes: usize,
    /// Queries measured per cell (split into batches).
    pub target_queries: usize,
}

impl Default for HotpathOptions {
    fn default() -> HotpathOptions {
        HotpathOptions {
            quick: false,
            seed: 0xD1D0,
            store_bytes: 48 << 20,
            target_queries: 1 << 18,
        }
    }
}

impl HotpathOptions {
    /// CI smoke configuration: small store, just enough iterations to
    /// exercise every cell.
    #[must_use]
    pub fn quick() -> HotpathOptions {
        HotpathOptions {
            quick: true,
            store_bytes: 8 << 20,
            target_queries: 1 << 14,
            ..HotpathOptions::default()
        }
    }
}

/// One (mix × batch size) measurement.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Mix name (`get_heavy`, `set_heavy`, `mixed_95_5`).
    pub mix: &'static str,
    /// Queries per batch.
    pub batch_size: usize,
    /// Throughput, million ops/sec.
    pub vectorized_mops: f64,
}

/// Full harness output: every cell plus the run configuration.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Options the run used.
    pub opts: HotpathOptions,
    /// One entry per mix × batch size, in `MIXES` × `BATCH_SIZES` order.
    pub cells: Vec<Cell>,
}

impl HotpathReport {
    /// Serialize as JSON (hand-rolled; the build has no serde_json).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        s.push_str("  \"bench\": \"hotpath\",\n");
        s.push_str(&format!("  \"quick\": {},\n", self.opts.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.opts.seed));
        s.push_str(&format!(
            "  \"store_mb\": {},\n",
            self.opts.store_bytes >> 20
        ));
        s.push_str(&format!(
            "  \"batch_sizes\": [{}, {}, {}],\n",
            BATCH_SIZES[0], BATCH_SIZES[1], BATCH_SIZES[2]
        ));
        s.push_str("  \"mixes\": [\n");
        for (mi, mix) in MIXES.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", mix.name));
            s.push_str(&format!("      \"get_ratio\": {},\n", mix.get_ratio));
            s.push_str("      \"cells\": [\n");
            let cells: Vec<&Cell> = self.cells.iter().filter(|c| c.mix == mix.name).collect();
            for (ci, c) in cells.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"batch_size\": {}, \"vectorized_mops\": {:.3}}}{}\n",
                    c.batch_size,
                    c.vectorized_mops,
                    if ci + 1 < cells.len() { "," } else { "" }
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if mi + 1 < MIXES.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Run one batch through the real wavefront-vectorized tasks and
/// return its responses.
pub fn run_vectorized_batch(
    ctx: StageCtx,
    engine: &KvEngine,
    queries: Vec<Query>,
    config: PipelineConfig,
) -> Vec<Response> {
    let mut batch = Batch::new(queries, config);
    let n = batch.len();
    tasks::run_mm(ctx, engine, &mut batch, 0..n);
    tasks::run_index_insert(ctx, engine, &mut batch, 0..n);
    tasks::run_index_delete(ctx, engine, &mut batch, 0..n);
    tasks::run_index_search(ctx, engine, &mut batch, 0..n);
    tasks::run_kc(ctx, engine, &mut batch, 0..n);
    tasks::run_rd(ctx, engine, &mut batch, 0..n);
    tasks::run_wr(ctx, &mut batch, 0..n);
    batch.take_responses()
}

/// Single-stage context: everything on the CPU in one stage (no
/// inter-stage copy).
#[must_use]
pub fn all_on_cpu_ctx() -> StageCtx {
    StageCtx::new(Processor::Cpu, TaskSet::from_tasks(&TaskKind::ALL), 64)
}

fn measure_cell(mix: Mix, batch_size: usize, opts: &HotpathOptions) -> Cell {
    let spec = WorkloadSpec::new(Dataset::K16, mix.get_ratio, KeyDistribution::YCSB_ZIPF);
    let hw = HwSpec::kaveri_apu();
    let topts = TestbedOptions {
        store_bytes: opts.store_bytes,
        seed: opts.seed,
        ..TestbedOptions::default()
    };
    let (engine, mut generator) = preloaded_engine(spec, &hw, topts);
    let ctx = all_on_cpu_ctx();
    let config = PipelineConfig::mega_kv();

    let iters = (opts.target_queries / batch_size).max(2);
    let batches: Vec<Vec<Query>> = (0..iters).map(|_| generator.batch(batch_size)).collect();
    let warmup = generator.batch(batch_size);

    // `Batch::new` consumes its queries, so the loop runs on clones made
    // outside the timed region; the originals outlive it, so the key and
    // value buffers are not freed on the clock.
    let timed: Vec<Vec<Query>> = batches.clone();
    std::hint::black_box(run_vectorized_batch(ctx, &engine, warmup, config));
    let start = Instant::now();
    for qs in timed {
        std::hint::black_box(run_vectorized_batch(ctx, &engine, qs, config));
    }
    let elapsed = start.elapsed();
    drop(batches);

    Cell {
        mix: mix.name,
        batch_size,
        vectorized_mops: (iters * batch_size) as f64 / elapsed.as_secs_f64() / 1e6,
    }
}

/// Run the full mix × batch-size matrix and collect a report.
/// `progress` receives each finished cell (for live printing).
pub fn run_hotpath(opts: &HotpathOptions, mut progress: impl FnMut(&Cell)) -> HotpathReport {
    let mut cells = Vec::with_capacity(MIXES.len() * BATCH_SIZES.len());
    for mix in MIXES {
        for batch_size in BATCH_SIZES {
            let cell = measure_cell(mix, batch_size, opts);
            progress(&cell);
            cells.push(cell);
        }
    }
    HotpathReport { opts: *opts, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_well_formed() {
        let report = HotpathReport {
            opts: HotpathOptions::quick(),
            cells: MIXES
                .iter()
                .flat_map(|m| {
                    BATCH_SIZES.map(|b| Cell {
                        mix: m.name,
                        batch_size: b,
                        vectorized_mops: 1.5,
                    })
                })
                .collect(),
        };
        let json = report.to_json();
        assert_eq!(json.matches("\"batch_size\"").count(), 9);
        assert_eq!(json.matches("\"name\"").count(), 3);
        assert_eq!(json.matches("\"vectorized_mops\": 1.500").count(), 9);
        assert!(!json.contains("scalar") && !json.contains("speedup"));
        // Balanced braces/brackets — cheap well-formedness check in a
        // build without a JSON parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
