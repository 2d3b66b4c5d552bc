//! End-to-end integration tests spanning every crate: workload
//! generation → network framing → pipeline execution → index/store →
//! responses, under dynamic adaption.

use dido_bench::DidoSystem;
use dido_kv::dido::DidoOptions;
use dido_kv::model::{PipelineConfig, Query, QueryOp, ResponseStatus};
use dido_kv::pipeline::TestbedOptions;
use dido_kv::workload::{key_bytes, value_bytes, WorkloadGen, WorkloadSpec};

fn options(store_bytes: usize) -> DidoOptions {
    DidoOptions {
        testbed: TestbedOptions {
            store_bytes,
            ..TestbedOptions::default()
        },
        ..DidoOptions::default()
    }
}

#[test]
fn preloaded_system_answers_get_queries_through_the_pipeline() {
    let spec = WorkloadSpec::from_label("K16-G95-S").unwrap();
    let dido = DidoSystem::preloaded(spec, options(4 << 20));
    let n_keys = spec.keyspace_size(4 << 20, dido_kv::kvstore::HEADER_SIZE);
    // A pure-GET batch over preloaded ids must hit with correct values.
    let batch: Vec<Query> = (0..1_000)
        .map(|i| Query {
            op: QueryOp::Get,
            key: key_bytes(spec.dataset, i % n_keys),
            value: bytes::Bytes::new(),
            ttl: 0,
            flags: 0,
        })
        .collect();
    let (_, responses) = dido.process_batch(batch);
    assert_eq!(responses.len(), 1_000);
    let mut hits = 0;
    for (i, r) in responses.iter().enumerate() {
        if r.status == ResponseStatus::Ok {
            assert_eq!(
                r.value,
                value_bytes(spec.dataset, (i as u64) % n_keys),
                "wrong value at {i}"
            );
            hits += 1;
        }
    }
    assert!(hits >= 990, "only {hits}/1000 preloaded GETs hit");
}

#[test]
fn writes_survive_pipeline_reconfiguration() {
    let spec = WorkloadSpec::from_label("K8-G50-U").unwrap();
    let dido = DidoSystem::preloaded(spec, options(4 << 20));
    // Write a sentinel set through one config...
    // Keys/values sized to the preloaded K8 slab class (a full store
    // can only recycle slots of classes it already holds).
    let sets: Vec<Query> = (0..200)
        .map(|i| Query::set(format!("sent-{i:03}"), format!("p{i:03}")))
        .collect();
    dido.set_config(PipelineConfig::mega_kv());
    let (_, rs) = dido.process_batch(sets);
    assert!(rs.iter().all(|r| r.status == ResponseStatus::Ok));
    // ...then read it back through a completely different one.
    dido.set_config(PipelineConfig::small_kv_read_intensive());
    let gets: Vec<Query> = (0..200).map(|i| Query::get(format!("sent-{i:03}"))).collect();
    let (_, rs) = dido.process_batch(gets);
    for (i, r) in rs.iter().enumerate() {
        assert_eq!(r.status, ResponseStatus::Ok, "sent-{i} lost after reconfig");
        assert_eq!(r.value, format!("p{i:03}"));
    }
}

#[test]
fn adaption_changes_config_for_small_read_heavy_workloads() {
    let spec = WorkloadSpec::from_label("K8-G95-S").unwrap();
    let dido = DidoSystem::preloaded(spec, options(4 << 20));
    let mut generator = WorkloadGen::new(spec, spec.keyspace_size(4 << 20, dido_kv::kvstore::HEADER_SIZE), 3);
    assert_eq!(dido.current_config(), PipelineConfig::mega_kv());
    let _ = dido.process_batch(generator.batch(4_096));
    assert_ne!(
        dido.current_config(),
        PipelineConfig::mega_kv(),
        "paper §V-C: small-KV read-heavy workloads must leave the static pipeline"
    );
    assert!(dido.current_config().is_valid());
}

#[test]
fn dido_outperforms_static_pipeline_on_read_heavy_small_kv() {
    // The headline claim (Figure 11), asserted end-to-end at small scale.
    let spec = WorkloadSpec::from_label("K16-G95-U").unwrap();

    let dido = DidoSystem::preloaded(spec, options(8 << 20));
    let mut g1 = WorkloadGen::new(spec, spec.keyspace_size(8 << 20, dido_kv::kvstore::HEADER_SIZE), 5);
    let dd = dido.measure(|n| g1.batch(n), 5);

    let mk = dido_bench::MegaKv::coupled().measure(
        spec,
        TestbedOptions {
            store_bytes: 8 << 20,
            ..TestbedOptions::default()
        },
        dido_bench::RunOptions::default(),
    );

    let speedup = dd.throughput_mops() / mk.throughput_mops();
    assert!(
        speedup > 1.3,
        "DIDO {:.2} MOPS should clearly beat Mega-KV {:.2} MOPS, got {speedup:.2}x",
        dd.throughput_mops(),
        mk.throughput_mops()
    );
}

#[test]
fn deletes_propagate_through_batch_pipeline() {
    let dido = DidoSystem::new(options(2 << 20));
    let (_, rs) = dido.process_batch(vec![Query::set("gone", "soon")]);
    assert_eq!(rs[0].status, ResponseStatus::Ok);
    let (_, rs) = dido.process_batch(vec![Query::delete("gone")]);
    assert_eq!(rs[0].status, ResponseStatus::Ok);
    let (_, rs) = dido.process_batch(vec![Query::get("gone"), Query::delete("gone")]);
    assert_eq!(rs[0].status, ResponseStatus::NotFound);
    assert_eq!(rs[1].status, ResponseStatus::NotFound);
}

#[test]
fn store_never_grows_beyond_capacity_under_write_pressure() {
    let spec = WorkloadSpec::from_label("K16-G50-U").unwrap();
    let dido = DidoSystem::preloaded(spec, options(2 << 20));
    let mut generator = WorkloadGen::new(spec, spec.keyspace_size(2 << 20, dido_kv::kvstore::HEADER_SIZE), 9);
    for _ in 0..5 {
        let _ = dido.process_batch(generator.batch(4_096));
    }
    let store = &dido.engine().store;
    assert!(store.bytes_carved() <= store.capacity());
    // The index never holds more entries than live objects.
    assert!(dido.engine().index.len() <= store.live_objects());
}
