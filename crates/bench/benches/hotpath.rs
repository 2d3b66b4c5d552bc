//! Criterion view of the hot path: the wavefront-vectorized tasks over
//! a preloaded engine. The `hotpath` binary is the source of record (it
//! measures the full matrix and writes `BENCH_hotpath.json`); this
//! bench exists so `cargo bench` tracks the same code path with
//! criterion's sampling, and so `cargo test` smoke-builds it.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dido_apu_sim::HwSpec;
use dido_bench::hotpath::{all_on_cpu_ctx, run_vectorized_batch};
use dido_model::PipelineConfig;
use dido_pipeline::{preloaded_engine, TestbedOptions};
use dido_workload::{Dataset, KeyDistribution, WorkloadSpec};

fn bench_hotpath(c: &mut Criterion) {
    let hw = HwSpec::kaveri_apu();
    let ctx = all_on_cpu_ctx();
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10);
    for batch in [64usize, 512, 8192] {
        let spec = WorkloadSpec::new(Dataset::K16, 0.95, KeyDistribution::YCSB_ZIPF);
        let topts = TestbedOptions {
            store_bytes: 8 << 20,
            ..TestbedOptions::default()
        };
        let (engine, mut generator) = preloaded_engine(spec, &hw, topts);
        g.throughput(Throughput::Elements(batch as u64));
        g.bench_function(&format!("vectorized_95_5_{batch}"), |b| {
            b.iter_batched(
                || generator.batch(batch),
                |queries| {
                    std::hint::black_box(run_vectorized_batch(
                        ctx,
                        &engine,
                        queries,
                        PipelineConfig::mega_kv(),
                    ))
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
