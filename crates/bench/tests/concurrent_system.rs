//! Concurrency-exactness tests for the sequential system: hammering
//! `DidoSystem::process_batch` from many threads must lose no profiler
//! samples and apply no adaption twice, and a 1-shard `ServingCore`'s
//! controller decisions on a recorded workload must match the
//! sequential system's oracle.

use dido::{DidoOptions, ServingCore};
use dido_bench::DidoSystem;
use dido_model::QueryOp;
use dido_pipeline::TestbedOptions;
use dido_workload::{AlternatingGen, WorkloadGen, WorkloadSpec};
use std::sync::Arc;

const THREADS: usize = 4;
const BATCHES_PER_THREAD: usize = 12;
const BATCH: usize = 512;

fn spec(label: &str) -> WorkloadSpec {
    WorkloadSpec::from_label(label).expect("valid label")
}

fn options(store_bytes: usize) -> DidoOptions {
    DidoOptions {
        testbed: TestbedOptions {
            store_bytes,
            ..TestbedOptions::default()
        },
        ..DidoOptions::default()
    }
}

/// Pre-generate each thread's batches (and the exact op totals) so the
/// threads spend their time inside `process_batch`, not in the RNG.
fn thread_batches(seed_salt: u64, store_bytes: usize) -> (Vec<Vec<Vec<dido_model::Query>>>, u64, u64) {
    let spec = spec("K8-G50-U");
    let n_keys = spec
        .keyspace_size(store_bytes as u64, dido_kvstore::HEADER_SIZE)
        .max(1);
    let mut total_queries = 0u64;
    let mut total_gets = 0u64;
    let per_thread: Vec<Vec<Vec<dido_model::Query>>> = (0..THREADS)
        .map(|t| {
            let mut generator = WorkloadGen::new(spec, n_keys, seed_salt + t as u64);
            (0..BATCHES_PER_THREAD)
                .map(|_| {
                    let batch = generator.batch(BATCH);
                    total_queries += batch.len() as u64;
                    total_gets += batch.iter().filter(|q| q.op == QueryOp::Get).count() as u64;
                    batch
                })
                .collect()
        })
        .collect();
    (per_thread, total_queries, total_gets)
}

/// N threads drive a shared `DidoSystem`: after the dust settles, the metrics totals must be exact (every batch and
/// query accounted for, none double-counted). The adaption counters
/// have one source — the metrics view and the accessors read the same
/// cells — so a double-applied adaption shows up against the trace.
#[test]
fn concurrent_dido_system_counts_exactly() {
    let store_bytes = 2 << 20;
    let (batches, total_queries, total_gets) = thread_batches(0xC0DE, store_bytes);
    let dido = Arc::new(DidoSystem::preloaded(spec("K8-G50-U"), options(store_bytes)));

    let handles: Vec<_> = batches
        .into_iter()
        .map(|work| {
            let dido = Arc::clone(&dido);
            std::thread::spawn(move || {
                for batch in work {
                    let (report, responses) = dido.process_batch(batch);
                    assert_eq!(report.batch_size, responses.len());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }

    let m = dido.metrics();
    assert_eq!(m.work.batches, (THREADS * BATCHES_PER_THREAD) as u64);
    assert_eq!(m.work.queries, total_queries);
    assert_eq!(m.work.gets, total_gets, "get accounting must be exact");
    assert!(m.work.hits <= m.work.gets);
    assert_eq!(
        m.configs.iter().map(|(_, n)| n).sum::<u64>(),
        m.work.batches,
        "every batch must land in the config histogram exactly once"
    );
    let trace = dido.trace();
    assert_eq!(trace.len(), m.work.batches as usize, "one trace sample per batch");
    assert_eq!(
        m.control.adaptions,
        trace.iter().filter(|t| t.readapted).count() as u64,
        "every adaption is one re-adapted trace sample, none counted twice"
    );
    assert!(m.control.model_runs >= m.control.adaptions);
}

/// The control-plane refactor must not change *decisions*: replaying a
/// recorded shifting workload through a 1-shard `ServingCore` with a
/// controller tick after every batch must produce the same
/// configuration sequence and adaption count as the sequential
/// `DidoSystem` oracle on the identical batches.
#[test]
fn controller_matches_sequential_oracle_on_recorded_workload() {
    let store_bytes = 2 << 20;
    let opts = options(store_bytes);
    let a = spec("K8-G50-U");
    let b = spec("K16-G95-S");
    let n_keys = a
        .keyspace_size(store_bytes as u64, dido_kvstore::HEADER_SIZE)
        .max(1);

    // Record the workload once: the Fig 20/21 alternation, 6 phases.
    let mut generator = AlternatingGen::new(
        WorkloadGen::new(a, n_keys, 0xD1D0),
        WorkloadGen::new(b, n_keys, 0xD1D1),
        4 * BATCH as u64,
    );
    let recorded: Vec<Vec<dido_model::Query>> =
        (0..24).map(|_| generator.batch(BATCH)).collect();

    let oracle = DidoSystem::preloaded(a, opts);
    let (core, _) = ServingCore::preloaded(a, 1, 1, opts);

    let mut oracle_configs = Vec::with_capacity(recorded.len());
    let mut core_configs = Vec::with_capacity(recorded.len());
    for batch in &recorded {
        oracle.process_batch(batch.clone());
        oracle_configs.push(oracle.current_config());
        core.process_batch(0, batch.clone());
        core.controller_tick();
        core_configs.push(core.shard_config(0).0);
    }

    assert_eq!(
        core_configs, oracle_configs,
        "controller decisions diverged from the sequential oracle"
    );
    assert_eq!(core.adaptions(), oracle.adaptions());
    assert!(
        oracle.adaptions() > 0,
        "the recorded shift must actually trigger re-adaption"
    );
}
