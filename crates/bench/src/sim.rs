//! The virtual-time pipeline executor.
//!
//! Executes a batch *functionally* (real index, real store, real
//! protocol) while accounting per-stage [`ResourceUsage`], then prices
//! the steady-state pipeline on the simulated hardware:
//!
//! 1. every stage's isolated time (CPU Equation 1 over its assigned
//!    cores; GPU per-kernel wave/occupancy model, one kernel per task
//!    and per index-operation type — which is what makes small
//!    Insert/Delete batches expensive, Figure 6);
//! 2. CPU↔GPU interference (the µ fixed point);
//! 3. work stealing at wavefront granularity (§III-B-3), moving items
//!    from the bottleneck stage to the other processor's idle capacity;
//! 4. throughput `S = N / T_max` under the paper's periodical
//!    scheduling: the batch size is calibrated so `T_max` fits the
//!    per-stage interval implied by the latency budget.

use crate::sim_meter::{self, SimMachine};
use dido_apu_sim::{Ns, StageTiming, TimingEngine};
use dido_model::costs::STEAL_TAG_INSNS;
use dido_model::{
    BatchTally, IndexOpKind, PipelineConfig, Processor, Query, ResourceUsage, Response, TaskKind,
    WorkloadStats, WAVEFRONT_WIDTH,
};
use dido_net::parse_responses;
use dido_pipeline::{tasks, Batch, KvEngine};
use std::cell::RefCell;

/// A GPU kernel launched within a stage (per task / per index op).
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Human-readable label (`IN/Search`, `KC`, ...).
    pub label: String,
    /// Items the kernel processed.
    pub items: usize,
    /// Aggregate resource usage.
    pub usage: ResourceUsage,
    /// Kernel time, ns.
    pub time_ns: Ns,
    /// Occupancy fraction at this item count.
    pub occupancy: f64,
}

/// Timing record of one pipeline stage for one batch.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Processor of this stage.
    pub processor: Processor,
    /// Tasks the stage ran.
    pub tasks: dido_model::TaskSet,
    /// Index operations the stage ran.
    pub index_ops: Vec<IndexOpKind>,
    /// CPU cores assigned (0 for GPU stages).
    pub cores: usize,
    /// Total resource usage.
    pub usage: ResourceUsage,
    /// Isolated time before interference/stealing.
    pub base_ns: Ns,
    /// Final time after interference and stealing.
    pub time_ns: Ns,
    /// Interference factor applied.
    pub mu: f64,
    /// GPU kernel breakdown (empty for CPU stages).
    pub kernels: Vec<KernelReport>,
    /// PCIe transfer time charged to this stage (discrete profile).
    pub pcie_ns: Ns,
}

/// Work-stealing outcome for a batch.
#[derive(Debug, Clone, Copy)]
pub struct StealReport {
    /// The processor that stole work.
    pub thief: Processor,
    /// Items moved (multiple of the wavefront width).
    pub items: usize,
    /// Bottleneck time before stealing.
    pub t_max_before_ns: Ns,
}

/// Full timing/throughput report for one batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Queries in the batch.
    pub batch_size: usize,
    /// Per-stage records.
    pub stages: Vec<StageReport>,
    /// Steady-state interval (bottleneck stage time), ns.
    pub t_max_ns: Ns,
    /// Work stealing applied, if any.
    pub steal: Option<StealReport>,
    /// What the batch did, as the stage loop counted it.
    pub tally: BatchTally,
    /// `tally` as workload statistics (skew is not a per-batch figure
    /// and reads 0).
    pub stats: WorkloadStats,
    /// GET queries that resolved to an object (`tally.hits`).
    pub hits: usize,
}

impl BatchReport {
    /// Steady-state throughput in million operations per second.
    #[must_use]
    pub fn throughput_mops(&self) -> f64 {
        if self.t_max_ns <= 0.0 {
            return 0.0;
        }
        self.batch_size as f64 / self.t_max_ns * 1_000.0
    }

    /// CPU utilization: busy core-time over available core-time.
    #[must_use]
    pub fn cpu_utilization(&self, total_cores: usize) -> f64 {
        if self.t_max_ns <= 0.0 || total_cores == 0 {
            return 0.0;
        }
        let busy: f64 = self
            .stages
            .iter()
            .filter(|s| s.processor == Processor::Cpu)
            .map(|s| s.time_ns * s.cores as f64)
            .sum();
        (busy / (self.t_max_ns * total_cores as f64)).min(1.0)
    }

    /// GPU utilization: busy fraction × time-weighted kernel occupancy
    /// (the profiler-style metric behind the paper's Figure 5/12).
    #[must_use]
    pub fn gpu_utilization(&self) -> f64 {
        let Some(gpu) = self.stages.iter().find(|s| s.processor == Processor::Gpu) else {
            return 0.0;
        };
        if self.t_max_ns <= 0.0 {
            return 0.0;
        }
        let busy_frac = (gpu.time_ns / self.t_max_ns).min(1.0);
        let ktime: f64 = gpu.kernels.iter().map(|k| k.time_ns).sum();
        let occ = if ktime > 0.0 {
            gpu.kernels
                .iter()
                .map(|k| k.occupancy * k.time_ns)
                .sum::<f64>()
                / ktime
        } else {
            0.0
        };
        busy_frac * occ
    }

    /// GPU kernel time of one index operation (for Figure 6), ns.
    #[must_use]
    pub fn gpu_index_op_time(&self, op: IndexOpKind) -> Ns {
        let label = format!("IN/{op}");
        self.stages
            .iter()
            .filter(|s| s.processor == Processor::Gpu)
            .flat_map(|s| &s.kernels)
            .filter(|k| k.label == label)
            .map(|k| k.time_ns)
            .sum()
    }
}

/// Options for steady-state workload runs.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// End-to-end latency budget, ns (paper default: 1,000 µs).
    pub latency_budget_ns: f64,
    /// Batch-size calibration iterations.
    pub calibration_iters: usize,
    /// Starting batch size.
    pub initial_batch: usize,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            latency_budget_ns: 1_000_000.0,
            calibration_iters: 4,
            initial_batch: 4096,
        }
    }
}

impl RunOptions {
    /// Per-stage interval implied by the latency budget.
    #[must_use]
    pub fn stage_interval_ns(&self) -> f64 {
        dido::stage_interval_ns(self.latency_budget_ns)
    }
}

/// Result of a calibrated steady-state run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The converged batch report.
    pub report: BatchReport,
    /// Converged batch size.
    pub batch_size: usize,
    /// Per-stage interval used, ns.
    pub interval_ns: f64,
}

impl WorkloadReport {
    /// Steady-state throughput, MOPS.
    #[must_use]
    pub fn throughput_mops(&self) -> f64 {
        self.report.throughput_mops()
    }

    /// Estimated mean end-to-end query latency, ns: half an interval of
    /// batch assembly (a query arrives uniformly within the fill
    /// window), plus the traversal of every pipeline stage. Periodical
    /// scheduling keeps this within the configured budget (paper §V-A:
    /// "the average system latencies ... are always limited within
    /// 1,000 microseconds").
    #[must_use]
    pub fn avg_latency_ns(&self) -> f64 {
        let stages: f64 = self.report.stages.iter().map(|s| s.time_ns).sum();
        0.5 * self.interval_ns + stages
    }
}

struct StageExec {
    processor: Processor,
    tasks: dido_model::TaskSet,
    index_ops: Vec<IndexOpKind>,
    usage: ResourceUsage,
    kernels: Vec<KernelReport>,
    pcie_bytes_in: u64,
    pcie_bytes_out: u64,
}

/// The virtual-time executor.
///
/// The executor owns the simulated machine around the engine it is
/// driving: cache filters and NIC rings sized from that engine's
/// [`dido_pipeline::EngineConfig`], warm across its batches, and rebuilt cold
/// when a batch arrives for a different engine.
#[derive(Debug)]
pub struct SimExecutor {
    timing: TimingEngine,
    /// The machine and the id of the engine it was built for.
    machine: RefCell<Option<(u64, SimMachine)>>,
}

impl SimExecutor {
    /// Executor over a hardware profile's timing engine.
    #[must_use]
    pub fn new(timing: TimingEngine) -> SimExecutor {
        SimExecutor {
            timing,
            machine: RefCell::new(None),
        }
    }

    /// The timing engine.
    #[must_use]
    pub fn timing(&self) -> &TimingEngine {
        &self.timing
    }

    /// Execute one batch of raw queries under `config`: inject into the
    /// NIC, run the full functional pipeline, and price it. Returns the
    /// report and the client-visible responses.
    pub fn run_batch(
        &self,
        engine: &KvEngine,
        queries: Vec<Query>,
        config: PipelineConfig,
    ) -> (BatchReport, Vec<Response>) {
        let hw = self.timing.hw();
        let cache_line = hw.cpu.cache_line;
        let mut machine = self.machine.borrow_mut();
        if machine.as_ref().map(|(id, _)| *id) != Some(engine.id()) {
            *machine = Some((engine.id(), SimMachine::new(engine.config())));
        }
        let machine = &machine.as_ref().expect("installed above").1;

        // Network ingress: RV + PP always belong to the first stage.
        let n_injected = queries.len();
        sim_meter::inject_queries(&machine.rx, &queries);
        let (frames, rv_usage) = sim_meter::run_rv(&machine.rx, usize::MAX >> 1);
        let (parsed, pp_usage) = sim_meter::run_pp(&frames);
        debug_assert_eq!(
            parsed.len(),
            n_injected,
            "RX ring must be sized so no batch frame drops"
        );
        let mut batch = Batch::new(parsed, config);
        let n = batch.len();

        let plan = config.plan();
        let mut execs: Vec<StageExec> = plan
            .stages
            .iter()
            .map(|s| StageExec {
                processor: s.processor,
                tasks: s.tasks,
                index_ops: s.index_ops.clone(),
                usage: ResourceUsage::ZERO,
                kernels: Vec::new(),
                pcie_bytes_in: 0,
                pcie_bytes_out: 0,
            })
            .collect();
        execs[0].usage += rv_usage + pp_usage;

        // Item counts needed for GPU kernel sizing.
        let mix = batch.tally;
        let (n_get, n_set, n_del_q) =
            (mix.gets as usize, mix.sets() as usize, mix.deletes as usize);

        // Functional execution, stage by stage, tasks in canonical order.
        for (si, stage) in plan.stages.iter().enumerate() {
            let ctx = machine.ctx(stage.processor, stage.tasks, cache_line);
            let gpu = stage.processor == Processor::Gpu;
            for t in stage.tasks.iter() {
                match t {
                    TaskKind::Rv | TaskKind::Pp => {} // done above
                    TaskKind::Mm => {
                        tasks::run_mm(ctx, engine, &mut batch, 0..n);
                        execs[si].usage += machine.take_usage();
                    }
                    TaskKind::In => {
                        for &op in &stage.index_ops {
                            let items = match op {
                                IndexOpKind::Search => n_get,
                                IndexOpKind::Insert => n_set,
                                IndexOpKind::Delete => n_del_q + batch.dead.len(),
                            };
                            tasks::run_index_op(op, ctx, engine, &mut batch, 0..n);
                            let u = machine.take_usage();
                            execs[si].usage += u;
                            if gpu {
                                execs[si].kernels.push(self.kernel(
                                    format!("IN/{op}"),
                                    items,
                                    u,
                                ));
                                execs[si].pcie_bytes_in += 16 * items as u64;
                                execs[si].pcie_bytes_out += 8 * items as u64;
                            }
                        }
                    }
                    TaskKind::Kc => {
                        tasks::run_kc(ctx, engine, &mut batch, 0..n);
                        let u = machine.take_usage();
                        execs[si].usage += u;
                        if gpu {
                            execs[si].kernels.push(self.kernel("KC".into(), n_get, u));
                            execs[si].pcie_bytes_in += mix.key_bytes;
                            execs[si].pcie_bytes_out += n_get as u64;
                        }
                    }
                    TaskKind::Rd => {
                        // RD's items are the objects KC located; the
                        // tally's hits exist only once SD has collected
                        // the responses.
                        let located = batch.state.iter().filter(|s| s.loc.is_some()).count();
                        tasks::run_rd(ctx, engine, &mut batch, 0..n);
                        let u = machine.take_usage();
                        execs[si].usage += u;
                        if gpu {
                            execs[si].kernels.push(self.kernel("RD".into(), located, u));
                            execs[si].pcie_bytes_out += u.bytes;
                        }
                    }
                    TaskKind::Wr => {
                        tasks::run_wr(ctx, &mut batch, 0..n);
                        let u = machine.take_usage();
                        execs[si].usage += u;
                        if gpu {
                            execs[si].kernels.push(self.kernel("WR".into(), n, u));
                            // Response descriptors; value bytes were
                            // already charged by RD's transfer.
                            execs[si].pcie_bytes_out += 8 * n as u64;
                        }
                    }
                    TaskKind::Sd => {
                        execs[si].usage += sim_meter::run_sd(&machine.tx, &batch.take_responses());
                    }
                }
            }
            // Index ops placed in a stage without IN (the pre-GPU CPU
            // stage hosting CPU-assigned Insert/Delete, §V-C).
            if !stage.tasks.contains(TaskKind::In) {
                for &op in &stage.index_ops {
                    tasks::run_index_op(op, ctx, engine, &mut batch, 0..n);
                    execs[si].usage += machine.take_usage();
                }
            }
        }
        // The priced probes are Mega-KV's fixed index's: a growth would
        // change the geometry under them.
        assert_eq!(
            engine.op_counts().index_grows,
            0,
            "an index grew under the simulator: build its engines with `KvEngine::mega_kv`"
        );

        // Collect client-visible responses from the TX ring.
        let mut responses = Vec::with_capacity(n);
        while let Some(frame) = machine.tx.pop() {
            if let Ok(mut rs) = parse_responses(&frame) {
                responses.append(&mut rs);
            }
        }

        // ---- Timing ----
        let report = self.price(execs, batch.tally, config);
        (report, responses)
    }

    fn kernel(&self, label: String, items: usize, usage: ResourceUsage) -> KernelReport {
        let g = self.timing.gpu();
        // Index updates are CAS-dominated kernels (paper §III-B-2) and
        // forfeit GPU latency hiding.
        let atomic = label == "IN/Insert" || label == "IN/Delete";
        KernelReport {
            time_ns: g.kernel_time_aggregate_opts(items, usage, atomic),
            occupancy: g.occupancy(items),
            label,
            items,
            usage,
        }
    }

    fn price(
        &self,
        execs: Vec<StageExec>,
        tally: BatchTally,
        config: PipelineConfig,
    ) -> BatchReport {
        let n = tally.queries as usize;
        let hw = self.timing.hw();
        let total_cores = hw.cpu.cores;

        // Assign cores to CPU stages: every split is tried and the one
        // minimizing the bottleneck wins (integer split, ≥1 core each).
        let cpu_raw: Vec<(usize, Ns)> = execs
            .iter()
            .enumerate()
            .filter(|(_, e)| e.processor == Processor::Cpu)
            .map(|(i, e)| (i, self.timing.cpu_time_single_core(e.usage)))
            .collect();
        let mut cores_for = vec![0usize; execs.len()];
        match cpu_raw.len() {
            0 => {}
            1 => cores_for[cpu_raw[0].0] = total_cores,
            2 => {
                let (i0, t0) = cpu_raw[0];
                let (i1, t1) = cpu_raw[1];
                let mut best = (1, f64::INFINITY);
                for c in 1..total_cores {
                    let m = (t0 / c as f64).max(t1 / (total_cores - c) as f64);
                    if m < best.1 {
                        best = (c, m);
                    }
                }
                cores_for[i0] = best.0;
                cores_for[i1] = total_cores - best.0;
            }
            _ => unreachable!("plans have at most two CPU stages"),
        }

        // Isolated stage times.
        let mut stages: Vec<StageReport> = execs
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let (base, pcie_ns) = match e.processor {
                    Processor::Cpu => (
                        self.timing.cpu_stage_time(e.usage, cores_for[i].max(1)),
                        0.0,
                    ),
                    Processor::Gpu => {
                        let kernel_total: Ns = e.kernels.iter().map(|k| k.time_ns).sum();
                        let pcie = self
                            .timing
                            .pcie()
                            .map(|p| p.round_trip_time(e.pcie_bytes_in, e.pcie_bytes_out))
                            .unwrap_or(0.0);
                        (kernel_total + pcie, pcie)
                    }
                };
                StageReport {
                    processor: e.processor,
                    tasks: e.tasks,
                    index_ops: e.index_ops,
                    cores: cores_for[i],
                    usage: e.usage,
                    base_ns: base,
                    time_ns: base,
                    mu: 1.0,
                    kernels: e.kernels,
                    pcie_ns,
                }
            })
            .collect();

        // Interference fixed point.
        let mut timings: Vec<StageTiming> = stages
            .iter()
            .map(|s| StageTiming::new(s.processor, s.base_ns, s.usage.mem_accesses))
            .collect();
        self.timing.apply_interference(&mut timings);
        for (s, t) in stages.iter_mut().zip(&timings) {
            s.time_ns = t.final_ns;
            s.mu = t.mu;
        }

        // Work stealing.
        let steal = if config.work_stealing {
            self.apply_stealing(&mut stages, n)
        } else {
            None
        };

        let t_max_ns = stages.iter().map(|s| s.time_ns).fold(0.0_f64, f64::max);
        BatchReport {
            batch_size: n,
            stages,
            t_max_ns,
            steal,
            tally,
            stats: tally.workload_stats(0.0),
            hits: tally.hits as usize,
        }
    }

    /// Wavefront-granular work stealing: move tag groups from the
    /// bottleneck stage to the other processor's idle capacity, paying a
    /// per-tag synchronization cost (§III-B-3). Operates on the timing
    /// records; the functional work already ran.
    fn apply_stealing(&self, stages: &mut [StageReport], n: usize) -> Option<StealReport> {
        if n == 0 || stages.len() < 2 {
            return None;
        }
        let hw = self.timing.hw();
        let b = stages
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.time_ns.total_cmp(&b.1.time_ns))
            .map(|(i, _)| i)?;
        let t_before = stages[b].time_ns;
        let victim_proc = stages[b].processor;
        let thief_proc = victim_proc.other();
        // The thief must exist in the plan for GPU victims (CPU always
        // exists); for CPU victims the GPU stage must be present.
        if thief_proc == Processor::Gpu
            && !stages.iter().any(|s| s.processor == Processor::Gpu)
        {
            return None;
        }

        // Stealable fraction of the victim stage: GPU stages are fully
        // stealable (their tasks all run on CPUs too); CPU stages only
        // for their offloadable-task share. RV/PP/MM/SD cannot be stolen.
        let offloadable_share = match victim_proc {
            Processor::Gpu => 1.0,
            Processor::Cpu => {
                // Approximate the offloadable share by usage of
                // offloadable tasks: we lack a per-task split on CPU
                // stages, so use a conservative share when the stage
                // hosts non-stealable work.
                let has_fixed = stages[b]
                    .tasks
                    .iter()
                    .any(|t| t.cpu_only());
                let has_offloadable = stages[b].tasks.iter().any(|t| !t.cpu_only())
                    || !stages[b].index_ops.is_empty();
                if !has_offloadable {
                    return None;
                }
                if has_fixed {
                    0.6
                } else {
                    1.0
                }
            }
        };

        // Victim marginal rate: ns shed per stolen item.
        let fixed: Ns = stages[b].kernels.iter().map(|_| hw.gpu.kernel_launch_ns).sum();
        let var = (stages[b].time_ns - fixed).max(0.0);
        let victim_rate = var * offloadable_share / n as f64;
        if victim_rate <= 0.0 {
            return None;
        }
        // Per-item usage of the victim's (stealable) work, re-priced on
        // the thief.
        let per_item = ResourceUsage {
            instructions: (stages[b].usage.instructions as f64 * offloadable_share / n as f64)
                as u64,
            mem_accesses: ((stages[b].usage.mem_accesses as f64 * offloadable_share
                / n as f64)
                .ceil()) as u64,
            cache_accesses: ((stages[b].usage.cache_accesses as f64 * offloadable_share
                / n as f64)
                .ceil()) as u64,
            bytes: 0,
        };

        let max_steal = ((n as f64 * offloadable_share) as usize / WAVEFRONT_WIDTH)
            * WAVEFRONT_WIDTH;
        let tag_cost_cpu =
            STEAL_TAG_INSNS as f64 / (hw.cpu.ipc * hw.cpu.freq_ghz);

        // New per-stage times if `s` items move to the thief. The SAME
        // function drives the search and the commit, so the chosen `s`
        // always produces exactly the times the search evaluated (and
        // `s = 0` keeps the status quo — stealing can never hurt).
        let new_times = |s: usize| -> Option<Vec<(usize, Ns)>> {
            let victim_new = (stages[b].time_ns - victim_rate * s as f64).max(fixed);
            let mut out = vec![(b, victim_new)];
            match thief_proc {
                Processor::Cpu => {
                    let tags = s / WAVEFRONT_WIDTH;
                    let extra = self
                        .timing
                        .cpu_time_single_core(per_item.scaled(s as u64))
                        + tags as f64 * tag_cost_cpu;
                    // Stolen work fills the CPU stages' cores to a
                    // common waterline (each stage first finishes its
                    // own work, then its cores help).
                    let mut loads: Vec<(usize, f64, Ns)> = stages
                        .iter()
                        .enumerate()
                        .filter(|(i, st)| *i != b && st.processor == Processor::Cpu)
                        .map(|(i, st)| (i, st.cores.max(1) as f64, st.time_ns))
                        .collect();
                    if loads.is_empty() {
                        return None;
                    }
                    loads.sort_by(|a, c| a.2.total_cmp(&c.2));
                    let mut remaining = extra;
                    let mut level = loads[0].2;
                    let mut cap = 0.0;
                    for k in 0..loads.len() {
                        cap += loads[k].1;
                        let next = loads.get(k + 1).map(|l| l.2).unwrap_or(f64::INFINITY);
                        let absorb = cap * (next - level);
                        if absorb >= remaining {
                            level += remaining / cap;
                            remaining = 0.0;
                            break;
                        }
                        remaining -= absorb;
                        level = next;
                    }
                    debug_assert!(remaining <= 1e-6);
                    for (i, _, t) in loads {
                        out.push((i, t.max(level)));
                    }
                }
                Processor::Gpu => {
                    let g = stages
                        .iter()
                        .position(|st| st.processor == Processor::Gpu)
                        .expect("checked above");
                    let steal_kernel = self.timing.gpu().kernel_time(s, per_item);
                    out.push((g, stages[g].time_ns + steal_kernel));
                }
            }
            Some(out)
        };
        let t_max_of = |times: &[(usize, Ns)]| -> Ns {
            stages
                .iter()
                .enumerate()
                .map(|(i, st)| {
                    times
                        .iter()
                        .find(|(j, _)| *j == i)
                        .map(|(_, t)| *t)
                        .unwrap_or(st.time_ns)
                })
                .fold(0.0_f64, f64::max)
        };

        let mut best: (usize, Ns) = (0, t_before);
        let mut s = WAVEFRONT_WIDTH;
        while s <= max_steal {
            let Some(times) = new_times(s) else { break };
            let t_candidate = t_max_of(&times);
            if t_candidate < best.1 {
                best = (s, t_candidate);
            }
            s += WAVEFRONT_WIDTH;
        }

        if best.0 == 0 || best.1 >= t_before * 0.999 {
            return None;
        }
        let (s_items, _) = best;
        let times = new_times(s_items).expect("was feasible during search");
        for (i, t) in times {
            stages[i].time_ns = t;
        }
        if thief_proc == Processor::Gpu {
            let g = stages
                .iter()
                .position(|st| st.processor == Processor::Gpu)
                .expect("checked above");
            stages[g].kernels.push(KernelReport {
                label: "steal".into(),
                items: s_items,
                usage: per_item.scaled(s_items as u64),
                time_ns: self.timing.gpu().kernel_time(s_items, per_item),
                occupancy: self.timing.gpu().occupancy(s_items),
            });
        }
        Some(StealReport {
            thief: thief_proc,
            items: s_items,
            t_max_before_ns: t_before,
        })
    }

    /// Calibrated steady-state run: iteratively sizes the batch so the
    /// bottleneck stage fits the per-stage interval (periodical
    /// scheduling, §IV-A), then reports the converged throughput.
    pub fn run_workload<F>(
        &self,
        engine: &KvEngine,
        config: PipelineConfig,
        opts: RunOptions,
        mut next_batch: F,
    ) -> WorkloadReport
    where
        F: FnMut(usize) -> Vec<Query>,
    {
        let interval = opts.stage_interval_ns();
        let round = |x: usize| {
            x.clamp(WAVEFRONT_WIDTH, 1 << 18)
                .div_ceil(WAVEFRONT_WIDTH)
                * WAVEFRONT_WIDTH
        };
        let mut n = opts.initial_batch.max(WAVEFRONT_WIDTH);
        for _ in 0..opts.calibration_iters.max(1) {
            let queries = next_batch(n);
            let (report, _) = self.run_batch(engine, queries, config);
            let t = report.t_max_ns.max(1.0);
            // Damped update, rounded to wavefront granularity.
            let target = (n as f64 * interval / t) as usize;
            n = round((target + n) / 2);
        }
        // One undamped correction (t_max is near-linear in N by now),
        // then measure at the converged batch size.
        let (report, _) = self.run_batch(engine, next_batch(n), config);
        n = round((n as f64 * interval / report.t_max_ns.max(1.0)) as usize);
        let (report, _) = self.run_batch(engine, next_batch(n), config);
        WorkloadReport {
            report,
            batch_size: n,
            interval_ns: interval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_apu_sim::HwSpec;
    use dido_model::ResponseStatus;
    use dido_pipeline::EngineConfig;

    fn setup() -> (SimExecutor, KvEngine) {
        let hw = HwSpec::kaveri_apu();
        let engine = KvEngine::mega_kv(EngineConfig::new(
            4 << 20,
            hw.cpu.cache_bytes,
            hw.gpu.cache_bytes,
        ));
        (SimExecutor::new(TimingEngine::new(hw)), engine)
    }

    fn mixed_queries(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                if i % 20 == 0 {
                    Query::set(format!("key-{:06}", i % 500), vec![b'v'; 64])
                } else {
                    Query::get(format!("key-{:06}", i % 500))
                }
            })
            .collect()
    }

    #[test]
    fn batch_round_trips_responses_in_order() {
        let (sim, engine) = setup();
        let (_, responses) = sim.run_batch(
            &engine,
            vec![
                Query::set("a", "1"),
                Query::get("a"),
                Query::get("missing"),
            ],
            PipelineConfig::mega_kv(),
        );
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].status, ResponseStatus::Ok);
        assert_eq!(&responses[1].value[..], b"1");
        assert_eq!(responses[2].status, ResponseStatus::NotFound);
    }

    #[test]
    fn mega_kv_plan_reports_three_stages() {
        let (sim, engine) = setup();
        let (report, _) = sim.run_batch(
            &engine,
            mixed_queries(2048),
            PipelineConfig::mega_kv(),
        );
        assert_eq!(report.stages.len(), 3);
        assert_eq!(report.stages[1].processor, Processor::Gpu);
        // GPU stage has one kernel per index op type.
        let labels: Vec<&str> = report.stages[1]
            .kernels
            .iter()
            .map(|k| k.label.as_str())
            .collect();
        assert!(labels.contains(&"IN/Search"));
        assert!(labels.contains(&"IN/Insert"));
        assert!(labels.contains(&"IN/Delete"));
        // Cores split across the two CPU stages.
        assert_eq!(report.stages[0].cores + report.stages[2].cores, 4);
        assert!(report.t_max_ns > 0.0);
        assert!(report.throughput_mops() > 0.0);
    }

    #[test]
    fn utilizations_are_fractions() {
        let (sim, engine) = setup();
        let (report, _) = sim.run_batch(&engine, mixed_queries(4096), PipelineConfig::mega_kv());
        let cpu = report.cpu_utilization(4);
        let gpu = report.gpu_utilization();
        assert!((0.0..=1.0).contains(&cpu), "cpu util {cpu}");
        assert!((0.0..=1.0).contains(&gpu), "gpu util {gpu}");
        assert!(gpu > 0.0, "GPU ran kernels, must be nonzero");
    }

    #[test]
    fn work_stealing_never_hurts_t_max() {
        let (sim, engine) = setup();
        // Preload so GETs hit.
        for q in mixed_queries(512) {
            engine.execute(&q);
        }
        let mut cfg = PipelineConfig::mega_kv();
        let (no_steal, _) = sim.run_batch(&engine, mixed_queries(4096), cfg);
        cfg.work_stealing = true;
        let (steal, _) = sim.run_batch(&engine, mixed_queries(4096), cfg);
        assert!(
            steal.t_max_ns <= no_steal.t_max_ns * 1.05,
            "stealing must not make the bottleneck meaningfully worse: {} vs {}",
            steal.t_max_ns,
            no_steal.t_max_ns
        );
        if let Some(s) = steal.steal {
            assert_eq!(s.items % WAVEFRONT_WIDTH, 0, "steals are wavefront-granular");
            assert!(s.t_max_before_ns >= steal.t_max_ns);
        }
    }

    #[test]
    fn cpu_only_plan_uses_all_cores_single_stage() {
        let (sim, engine) = setup();
        let (report, responses) = sim.run_batch(
            &engine,
            mixed_queries(1024),
            PipelineConfig::cpu_only(),
        );
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stages[0].cores, 4);
        assert_eq!(report.gpu_utilization(), 0.0);
        assert_eq!(responses.len(), 1024);
    }

    #[test]
    fn calibration_converges_to_interval() {
        let (sim, engine) = setup();
        for q in mixed_queries(512) {
            engine.execute(&q);
        }
        let mut i = 0usize;
        let wr = sim.run_workload(
            &engine,
            PipelineConfig::mega_kv(),
            RunOptions {
                calibration_iters: 6,
                ..RunOptions::default()
            },
            |n| {
                i += 1;
                mixed_queries(n)
            },
        );
        let interval = wr.interval_ns;
        assert!(
            wr.report.t_max_ns < interval * 1.6,
            "t_max {} must approach interval {}",
            wr.report.t_max_ns,
            interval
        );
        assert!(wr.report.t_max_ns > interval * 0.3);
        assert_eq!(wr.batch_size % WAVEFRONT_WIDTH, 0);
    }

    #[test]
    fn latency_estimate_respects_the_budget() {
        let (sim, engine) = setup();
        for q in mixed_queries(512) {
            engine.execute(&q);
        }
        let opts = RunOptions::default(); // 1,000 us budget
        let mut g = 0usize;
        let wr = sim.run_workload(&engine, PipelineConfig::mega_kv(), opts, |n| {
            g += 1;
            mixed_queries(n)
        });
        let latency = wr.avg_latency_ns();
        assert!(latency > 0.0);
        assert!(
            latency <= opts.latency_budget_ns * 1.25,
            "estimated latency {:.0}us must stay near the 1000us budget",
            latency / 1000.0
        );
    }

    #[test]
    fn functional_results_identical_across_configs() {
        // The embedded-config mechanism guarantees any valid pipeline
        // produces the same answers.
        let configs = [
            PipelineConfig::mega_kv(),
            PipelineConfig::small_kv_read_intensive(),
            PipelineConfig::cpu_only(),
        ];
        let mut all: Vec<Vec<ResponseStatus>> = Vec::new();
        for cfg in configs {
            let (sim, engine) = setup();
            for q in mixed_queries(256) {
                engine.execute(&q);
            }
            let (_, responses) = sim.run_batch(&engine, mixed_queries(512), cfg);
            all.push(responses.iter().map(|r| r.status).collect());
        }
        assert_eq!(all[0], all[1]);
        assert_eq!(all[0], all[2]);
    }

    #[test]
    fn discrete_profile_charges_pcie() {
        let hw = HwSpec::discrete_gtx780();
        let engine = KvEngine::mega_kv(EngineConfig::new(
            4 << 20,
            hw.cpu.cache_bytes,
            hw.gpu.cache_bytes,
        ));
        let sim = SimExecutor::new(TimingEngine::new(hw));
        let (report, _) = sim.run_batch(&engine, mixed_queries(2048), PipelineConfig::mega_kv());
        let gpu = &report.stages[1];
        assert!(gpu.pcie_ns > 0.0, "discrete GPU stages must pay PCIe transfers");
    }
}
