//! Every metric by name: its unit, direction, bound and meaning. This
//! table is what the reports print, what the A/A mode gates against, and
//! what a unit test holds `BENCHMARK.json` to.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in `BENCHMARK.json` and every report.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether larger is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for layer metrics, which are not gated.
    pub bound: f64,
    /// Phase and definition.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    what: &'static str,
) -> MetricDef {
    e2e(name, unit, higher_is_better, 0.0, what)
}

/// How long one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// What a user of the server would see, as far as this host can
/// measure it repeatably. The issue allows a bound at most 0.10, and an
/// end-to-end metric that cannot hold that is not widened but reported
/// un-gated as `loadgen.<name>` (`NOISE.md` has the evidence). What is
/// left is what does not depend on how fast the host is this minute,
/// and `setup_s`, which does, but which the driver's contract requires
/// here and tells the benchmark to give the largest bound.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", false, 0.25, "spawn -> ready line -> preload -> fixed-count warm-up done; median of the run's server lifetimes"),
    e2e("server_rss_mb", "MB", false, 0.06, "VmRSS of the server at the end of sat"),
    e2e("hit_ratio", "ratio", true, 0.06, "GET hits / GETs over sat + paced"),
];

/// One number per layer boundary. Group A is read from `/proc` during
/// the front-door run, group B from the in-process traced run.
pub const PER_LAYER: [MetricDef; 58] = [
    // Five of the issue's eight end-to-end metrics, reported here under
    // their own definitions because they could not hold a 0.10 bound on
    // this host (NOISE.md): throughput follows the host's speed, which
    // drifts by more than that within the hour, and the other four each
    // need the server's one CPU to wake from idle, and how long that
    // takes is the hypervisor's business.
    layer("loadgen.throughput_qps", "queries/s", true, "sat: median 1-s slice of queries completed, closed loop, 4096 queries outstanding"),
    layer("loadgen.latency_p50_us", "us", false, "paced: median over slices of the slice's p50, each request timed from its due time (bursts every 250 us)"),
    layer("loadgen.latency_p99_us", "us", false, "paced: median over slices of the slice's p99, timed from due time"),
    layer("loadgen.rtt_p50_us", "us", false, "rtt: median over slices of the slice's p50 of one single-query request outstanding"),
    layer("loadgen.server_cpu_us_per_query", "us", false, "paced: server process CPU (schedstat run time, all threads) per query answered, at the fixed rate"),
    // A: the instrument's own health. None should move with the program.
    layer("loadgen.cpu_share", "ratio", false, "sat: generator time spent sending, reading and checking / wall (the rest polls empty sockets); above 0.8 the run is loadgen-bound and fails"),
    layer("loadgen.lateness_p99_us", "us", false, "paced: p99 of (handed to the socket - due)"),
    layer("loadgen.paced_rate_achieved_ratio", "ratio", true, "paced: queries answered inside the phase / (rate x duration)"),
    layer("loadgen.request_bytes_per_query", "B", false, "sat: request bytes written / queries"),
    layer("loadgen.reply_bytes_per_query", "B", false, "sat: reply bytes read / queries"),
    layer("loadgen.throughput_mean_qps", "queries/s", true, "sat: mean over slices (a stalled second drags it; never gated)"),
    layer("loadgen.throughput_min_slice_qps", "queries/s", true, "sat: slowest slice (the periodic stall a median hides)"),
    layer("loadgen.slo_miss_share", "ratio", false, "paced: requests over the 1000 us limit, failed ones included / requests"),
    layer("loadgen.latency_p999_us", "us", false, "paced: p99.9 over the whole phase"),
    // A: server threads, by thread name, in sat.
    layer("net.reactor.cpu_ns_per_query", "ns", false, "sat: dido-reactor-* on-CPU time / query (RX read + carve)"),
    layer("net.reactor.runq_wait_ns_per_query", "ns", false, "sat: dido-reactor-* runnable-but-waiting time / query"),
    layer("net.dispatch.cpu_ns_per_query", "ns", false, "sat: dido-dispatch-* on-CPU time / query (decode + engine + encode)"),
    layer("net.dispatch.runq_wait_ns_per_query", "ns", false, "sat: dido-dispatch-* run-queue wait / query"),
    layer("net.sd.cpu_ns_per_query", "ns", false, "sat: dido-sd-* on-CPU time / query (reply egress)"),
    layer("net.sd.runq_wait_ns_per_query", "ns", false, "sat: dido-sd-* run-queue wait / query"),
    layer("core.controller.cpu_ns_per_query", "ns", false, "sat: dido-controller on-CPU time / query (adaptation + expiry sweeps)"),
    layer("server.ctx_switches_per_kquery", "count", false, "sat: context switches of all server threads / 1000 queries"),
    layer("server.cpu_share_sat", "ratio", false, "sat: server CPU / (wall x server CPUs)"),
    layer("server.rtt_cpu_us_per_query", "us", false, "rtt: server CPU / query with one request outstanding"),
    layer("server.rtt_ctx_switches_per_query", "count", false, "rtt: context switches of all server threads / query"),
    // B: net.
    layer("net.codec.carve_ns_per_query", "ns", false, "traced: carve_one over the workload's request bytes"),
    layer("net.codec.decode_ns_per_query", "ns", false, "traced: decode_request of each carved request"),
    layer("net.codec.encode_ns_per_query", "ns", false, "traced: encode_reply_into of each request's responses"),
    layer("net.codec.reply_bytes_per_query", "B", false, "traced: encoded reply bytes / query"),
    layer("net.echo.throughput_qps", "queries/s", true, "KvServer::start_multi with a canned-reply handler under the sat load: the front door's ceiling with a free engine"),
    // B: core.
    layer("core.process_batch_ns_per_query", "ns", false, "traced: ServingCore::process_batch on the even 64-query batches of the replay"),
    layer("core.overhead_ns_per_query", "ns", false, "process_batch minus process_batch_inline: alternate batches, same engine, same cache state"),
    layer("core.profiler.observe_ns_per_query", "ns", false, "WorkloadProfiler::observe_queries on the same batches"),
    layer("core.controller_tick_us", "us", false, "mean ServingCore::controller_tick, one per 64 batches"),
    // B: pipeline (the paper's tasks).
    layer("pipeline.process_batch_inline_ns_per_query", "ns", false, "traced: ShardedEngine::process_batch_inline on the odd batches of the replay, the serving core's own engine"),
    layer("pipeline.mm_ns_per_query", "ns", false, "traced: tasks::run_mm self time / query"),
    layer("pipeline.in_search_ns_per_query", "ns", false, "traced: tasks::run_index_search / query"),
    layer("pipeline.in_insert_ns_per_query", "ns", false, "traced: tasks::run_index_insert / query"),
    layer("pipeline.in_delete_ns_per_query", "ns", false, "traced: tasks::run_index_delete / query"),
    layer("pipeline.kc_ns_per_query", "ns", false, "traced: tasks::run_kc / query"),
    layer("pipeline.rd_ns_per_query", "ns", false, "traced: tasks::run_rd / query"),
    layer("pipeline.wr_ns_per_query", "ns", false, "traced: tasks::run_wr / query"),
    layer("pipeline.tasks_sum_ratio", "ratio", true, "sum of the seven task times / process_batch_inline: what the executor adds"),
    // B: hashtable.
    layer("hashtable.search_batch_ns_per_key", "ns", false, "IndexTable::search_batch over the workload's GET keys, 64 at a time"),
    layer("hashtable.upsert_batch_ns_per_key", "ns", false, "IndexTable::upsert_batch of the workload's SET keys into a scratch table"),
    layer("hashtable.delete_batch_ns_per_key", "ns", false, "IndexTable::delete_batch of the same entries"),
    layer("hashtable.mem_accesses_per_search", "count", false, "ResourceUsage.mem_accesses of search_batch / key (single-threaded: repeats exactly)"),
    layer("hashtable.load_factor", "ratio", true, "IndexTable::load_factor of the preloaded engine after the replay"),
    // B: kvstore.
    layer("kvstore.allocate_ns_per_op", "ns", false, "ObjectStore::allocate_with on a full scratch store (every allocation evicts or reclaims)"),
    layer("kvstore.probe_ns_per_op", "ns", false, "ObjectStore::probe of stored objects in random order"),
    layer("kvstore.read_value_ns_per_op", "ns", false, "ObjectStore::read_value of stored objects in random order"),
    layer("kvstore.evictions_per_allocate", "ratio", false, "allocations on the full store that evicted a live object / allocations"),
    layer("kvstore.sweep_expired_us_per_segment", "us", false, "ObjectStore::sweep_expired over sealed, expired segments of the workload's objects"),
    layer("kvstore.stored_bytes_per_user_byte", "ratio", false, "bytes carved from the arena / key+value bytes of the live objects"),
    // B: cost-model and workload.
    layer("cost_model.predict_ns", "ns", false, "CostModel::predict for the workload's profile"),
    layer("cost_model.optimal_config_us", "us", false, "CostModel::optimal_config: what one re-adaptation costs the controller"),
    layer("workload.gen_ns_per_query", "ns", false, "WorkloadGen::next_query for the workload's spec"),
    layer("trace.overhead_ratio", "ratio", false, "traced replay time / the same replay with spans off"),
];

/// The user-visible metrics at the head of [`PER_LAYER`] that are
/// reported but not gated.
#[must_use]
pub fn ungated_end_to_end() -> &'static [MetricDef] {
    &PER_LAYER[..5]
}

/// Look up a definition.
#[must_use]
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Store `value` under a defined name.
///
/// # Panics
/// Panics on a name the tables do not define: a typo must not ship as a
/// silently missing metric.
pub fn put(values: &mut Values, name: &str, value: f64) {
    let d = def(name).unwrap_or_else(|| panic!("undefined metric {name}"));
    values.insert(d.name, value);
}

/// Names in `defs` that `values` lacks or holds as a non-number.
#[must_use]
pub fn missing(defs: &[MetricDef], values: &Values) -> Vec<&'static str> {
    defs.iter()
        .filter(|d| !values.get(d.name).is_some_and(|v| v.is_finite()))
        .map(|d| d.name)
        .collect()
}

/// `name  value unit` lines for the metrics of `defs`, in table order.
#[must_use]
pub fn render(defs: &[MetricDef], values: &Values) -> String {
    let mut out = String::new();
    for d in defs {
        if let Some(v) = values.get(d.name) {
            let _ = writeln!(out, "  {:<44} {:>16.4} {}", d.name, v, d.unit);
        }
    }
    out
}

/// The one-line JSON object the driver reads from the end of stdout.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .filter_map(|d| {
            values.get(d.name).map(|v| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn better(d: &MetricDef) -> &'static str {
        if d.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    /// What `BENCHMARK.json` must say for the tables above.
    fn benchmark_json() -> String {
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name,
                    d.unit,
                    better(d),
                    d.bound
                )
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name,
                    d.unit,
                    better(d)
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n")
        )
    }

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} used twice", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                d.unit
            );
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
        }
        // The driver's contract: `setup_s` is present, in seconds, lower
        // is better, and carries the largest bound, at most 0.25. It is
        // the one metric that cannot leave this list, so the one the
        // issue's ceiling cannot be enforced on by moving it.
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        assert!(setup.bound <= 0.25);
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        for d in END_TO_END.iter().filter(|d| d.name != "setup_s") {
            assert!(
                d.bound > 0.0 && d.bound <= 0.10,
                "{} bound {}: the issue's ceiling is 0.10; move the metric to loadgen.* instead",
                d.name,
                d.bound
            );
        }
        assert!(benchmark_json().len() < 64 << 10);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let expected = benchmark_json();
        assert!(
            committed == expected,
            "BENCHMARK.json disagrees with the tables in metrics.rs and spec.rs, which say:\n{expected}"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut v = Values::new();
        put(&mut v, "setup_s", 2.5);
        put(&mut v, "hit_ratio", 0.125);
        put(&mut v, "loadgen.cpu_share", 0.4);
        assert_eq!(
            result_line(true, 10, 0, &END_TO_END, &v),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}, \"hit_ratio\": {\"value\": 0.125, \"unit\": \"ratio\"}}}"
        );
        assert_eq!(missing(&END_TO_END, &v), vec!["server_rss_mb"]);
        assert!(render(&PER_LAYER, &v).contains("loadgen.cpu_share"));
    }

    #[test]
    #[should_panic(expected = "undefined metric")]
    fn a_misspelt_metric_name_panics() {
        put(&mut Values::new(), "loadgen.throughput_qqs", 1.0);
    }
}
