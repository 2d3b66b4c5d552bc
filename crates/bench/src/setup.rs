//! Testbed setup: engines preloaded with a workload's key space.
//!
//! The paper preloads the store to capacity before measuring ("we store
//! as many key-value objects as possible", §V-A), so every experiment
//! starts from a full store where SETs evict.

use dido::scaled_caches;
use dido_apu_sim::HwSpec;
use dido_kvstore::HEADER_SIZE;
use dido_pipeline::{EngineConfig, KvEngine, TestbedOptions};
use dido_workload::{key_bytes, value_bytes, WorkloadGen, WorkloadSpec};

/// Build an engine sized from `hw`, preload the full key space of
/// `spec`, and return it with a matching query generator.
#[must_use]
pub fn preloaded_engine(
    spec: WorkloadSpec,
    hw: &HwSpec,
    opts: TestbedOptions,
) -> (KvEngine, WorkloadGen) {
    let (cpu_cache, gpu_cache) = scaled_caches(&opts, hw, 1);
    let engine = KvEngine::mega_kv(EngineConfig::new(opts.store_bytes, cpu_cache, gpu_cache));
    // Fill the store completely ("we store as many key-value objects as
    // possible", §V-A): every subsequent SET must evict, generating the
    // paper's one-Delete-per-SET steady state.
    let n_keys = spec.keyspace_size(opts.store_bytes as u64, HEADER_SIZE).max(1);
    for id in 0..n_keys {
        let key = key_bytes(spec.dataset, id);
        let value = value_bytes(spec.dataset, id);
        engine
            .load_object(&key, &value)
            .expect("preload must fit the store and index");
    }
    let generator = WorkloadGen::new(spec, n_keys, opts.seed);
    (engine, generator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_model::{Query, ResponseStatus};

    #[test]
    fn preload_fills_store_and_index_consistently() {
        let spec = WorkloadSpec::from_label("K16-G95-U").unwrap();
        let (engine, generator) = preloaded_engine(
            spec,
            &HwSpec::kaveri_apu(),
            TestbedOptions {
                store_bytes: 1 << 20,
                seed: 1,
                ..TestbedOptions::default()
            },
        );
        let expected = generator.keyspace();
        assert!(expected > 1000, "K16 keyspace in 1MB should be >1k");
        assert_eq!(engine.store.live_objects() as u64, expected);
        assert_eq!(
            engine.op_counts().index_grows,
            0,
            "a full store fits the fixed index"
        );
        // Index may be slightly smaller than the store if signatures
        // collided during preload (Mega-KV's upsert replaces).
        assert!(engine.index.len() as u64 <= expected);
        assert!(engine.index.len() as u64 >= expected * 95 / 100);
    }

    /// The experiments' index is Mega-KV's fixed one at the default
    /// 48 MB store: 2^19 buckets, the geometry `experiments_full.log`
    /// was recorded with.
    #[test]
    fn the_experiments_index_has_the_mega_kv_geometry() {
        let store_bytes = crate::ExperimentCtx::default().store_bytes;
        let engine = KvEngine::mega_kv(EngineConfig::new(store_bytes, 0, 0));
        assert_eq!(engine.index.bucket_count(), 1 << 19);
    }

    /// The experiments' store is Mega-KV's: one power-of-two size class
    /// per doubling, so a preload of `keyspace_size` objects fills it, as
    /// `experiments_full.log` was recorded with.
    #[test]
    fn the_experiments_store_has_power_of_two_classes() {
        let store_bytes = crate::ExperimentCtx::default().store_bytes;
        let engine = KvEngine::mega_kv(EngineConfig::new(store_bytes, 0, 0));
        let ladder: Vec<usize> = engine.store.class_stats().iter().map(|c| c.class_bytes).collect();
        assert_eq!(ladder, (0..ladder.len()).map(|d| 32 << d).collect::<Vec<_>>());
        assert_eq!(ladder.last(), Some(&(4 << 20)));
    }

    #[test]
    fn preloaded_keys_are_gettable() {
        let spec = WorkloadSpec::from_label("K8-G100-S").unwrap();
        let (engine, generator) = preloaded_engine(
            spec,
            &HwSpec::kaveri_apu(),
            TestbedOptions {
                store_bytes: 256 << 10,
                seed: 2,
                ..TestbedOptions::default()
            },
        );
        let mut hits = 0;
        let total = 500.min(generator.keyspace());
        for id in 0..total {
            let key = key_bytes(spec.dataset, id);
            let r = engine.execute(&Query {
                op: dido_model::QueryOp::Get,
                key,
                value: bytes::Bytes::new(),
                ttl: 0,
                flags: 0,
            });
            if r.status == ResponseStatus::Ok {
                assert_eq!(r.value, value_bytes(spec.dataset, id));
                hits += 1;
            }
        }
        assert!(
            hits as u64 >= total * 95 / 100,
            "preloaded keys must be readable: {hits}/{total}"
        );
    }
}
