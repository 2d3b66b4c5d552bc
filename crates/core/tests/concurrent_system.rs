//! Concurrency-exactness tests for the serving core: hammering
//! `ServingCore::process_batch` from many threads must lose no profiler
//! samples, and the background controller's decisions on a recorded
//! workload must not depend on the shard count. (That they match the
//! sequential oracle at one shard is `dido-bench`'s test of the same
//! name.)

use dido::{DidoOptions, ServingCore};
use dido_model::{PipelineConfig, QueryOp};
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

/// Same hammering against `ServingCore::process_batch`: the striped
/// fold must equal the exact op counts of everything sent (relaxed
/// atomics lose nothing), and so must the batch and per-configuration
/// counts, which no lock guards.
#[test]
fn concurrent_serving_core_fold_is_exact() {
    let store_bytes = 2 << 20;
    let (batches, total_queries, total_gets) = thread_batches(0xFACE, store_bytes);
    let mut total_deletes = 0u64;
    let mut total_key_bytes = 0u64;
    for work in &batches {
        for batch in work {
            for q in batch {
                total_key_bytes += q.key.len() as u64;
                if q.op == QueryOp::Delete {
                    total_deletes += 1;
                }
            }
        }
    }
    let (core, _) = ServingCore::preloaded(spec("K8-G50-U"), 2, THREADS, options(store_bytes));
    let core = Arc::new(core);
    // Each lane flips every shard's configuration halfway through its
    // work, so the per-lane config counts see more than one entry while
    // other lanes are recording.
    let flip = PipelineConfig::cpu_only();
    assert_ne!(core.configs()[0], flip);

    let handles: Vec<_> = batches
        .into_iter()
        .enumerate()
        .map(|(lane, work)| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                for (i, batch) in work.into_iter().enumerate() {
                    if i == BATCHES_PER_THREAD / 2 {
                        core.set_config(flip);
                    }
                    let n = batch.len();
                    let responses = core.process_batch(lane, batch);
                    assert_eq!(responses.len(), n);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }

    let m = core.metrics();
    let fold = m.work;
    assert_eq!(fold.queries, total_queries, "striped query count must be exact");
    assert_eq!(fold.gets, total_gets, "striped get count must be exact");
    assert_eq!(fold.deletes, total_deletes);
    assert_eq!(fold.key_bytes, total_key_bytes);
    assert!(fold.hits <= fold.gets);

    let total_batches = (THREADS * BATCHES_PER_THREAD) as u64;
    assert_eq!(fold.batches, total_batches, "lock-free batch count must be exact");
    assert_eq!(
        m.configs.iter().map(|(_, n)| n).sum::<u64>(),
        total_batches,
        "every batch lands under exactly one configuration"
    );
    let under_flip = m.configs.iter().find(|(c, _)| *c == flip).map_or(0, |(_, n)| *n);
    // Every lane's second half ran after its own flip; earlier batches
    // may have too, if a sibling flipped first.
    assert!(under_flip >= total_batches / 2, "{:?}", m.configs);
    assert!(m.configs.len() <= 2, "{:?}", m.configs);
    assert!(m.busy_ns > 0.0 && m.busy_ns <= fold.lane_busy_ns as f64);

    // The shards took every lane's SETs, DELETEs and evictions at once:
    // each index entry must still lead to an object with its key.
    for shard in core.engine().primary_engines() {
        let report = shard.verify_integrity();
        assert_eq!(report.mismatched, 0, "{report:?}");
    }

    // A controller tick over the settled stripes must drain the whole
    // interval; a second immediate tick sees an empty delta.
    core.controller_tick();
    assert_eq!(core.metrics().work.queries, total_queries);
    assert!(!core.controller_tick() || core.metrics().work.queries == total_queries);
}

/// The node has one pipeline configuration, planned once per drift on
/// node totals: the same recorded alternation through cores of 1, 2, 4
/// and 8 shards over equal total store, ticked once per batch, must run
/// the cost model the same number of times (drift is a function of the
/// workload alone) and publish at most once per run — never once per
/// shard. Where the cost model has no near-tie to break (`K16-G100-S` ↔
/// `K8-G50-U`), the published sequence itself is identical; on other
/// alternations a tick may land one neighbouring partition away at some
/// shard count, so only the counts are held there.
#[test]
fn decisions_do_not_depend_on_the_shard_count() {
    const SHARDS: [usize; 4] = [1, 2, 4, 8];
    const TICKS: usize = 24;
    const TICK_BATCH: usize = 4096;
    let store_bytes = 2 << 20;
    let opts = options(store_bytes);
    for (pair, identical) in [
        (["K16-G100-S", "K8-G50-U"], true),
        (["K8-G50-U", "K16-G95-S"], false),
        (["K32-G95-U", "K8-G100-S"], false),
    ] {
        let [a, b] = pair.map(spec);
        let n_keys = a
            .keyspace_size(store_bytes as u64, dido_kvstore::HEADER_SIZE)
            .max(1);
        let mut generator = AlternatingGen::new(
            WorkloadGen::new(a, n_keys, 0xD1D0),
            WorkloadGen::new(b, n_keys, 0xD1D1),
            4 * TICK_BATCH as u64,
        );
        let recorded: Vec<Vec<dido_model::Query>> =
            (0..TICKS).map(|_| generator.batch(TICK_BATCH)).collect();

        let runs: Vec<(usize, usize, Vec<PipelineConfig>)> = SHARDS
            .into_iter()
            .map(|shards| {
                let (core, _) = ServingCore::preloaded(a, shards, 1, opts);
                let sequence = recorded
                    .iter()
                    .map(|batch| {
                        core.process_batch(0, batch.clone());
                        core.controller_tick();
                        core.shard_config(0).0
                    })
                    .collect();
                (core.model_runs(), core.adaptions(), sequence)
            })
            .collect();

        let (runs_at_one, _, sequence_at_one) = &runs[0];
        assert!(*runs_at_one > 1, "{pair:?} must drift");
        for (shards, (model_runs, adaptions, sequence)) in SHARDS.into_iter().zip(&runs) {
            assert_eq!(
                model_runs, runs_at_one,
                "{pair:?}: cost-model runs at {shards} shards"
            );
            assert!(
                adaptions <= model_runs,
                "{pair:?}: {adaptions} publishes from {model_runs} runs at {shards} shards"
            );
            let ticks_apart = sequence
                .iter()
                .zip(sequence_at_one)
                .filter(|(x, y)| x != y)
                .count();
            println!(
                "{pair:?} at {shards} shards: {model_runs} runs, {adaptions} publishes, \
                 {ticks_apart}/{TICKS} ticks off the 1-shard sequence"
            );
            if identical {
                assert_eq!(sequence, sequence_at_one, "{shards} shards");
            }
        }
    }
}
