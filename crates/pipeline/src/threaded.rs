//! A real multi-threaded pipeline executor: the live demonstration of
//! the paper's staged, work-stealing design.
//!
//! Where [`crate::SimExecutor`] prices a batch on the simulated APU and
//! the serving path runs [`tasks::run_stage`] on its dispatcher thread,
//! `ThreadedPipeline` runs the same stages on host threads wired by
//! channels, with batches flowing through in pipelined fashion — one
//! thread per pipeline stage (the "GPU" stage is a host thread standing
//! in for the device) plus, when work stealing is enabled, a helper
//! thread that co-processes the GPU stage's sub-batches exactly like the
//! paper's CPU threads grabbing 64-query tag sets (§III-B-3).
//!
//! Batches are split into wavefront-sized sub-batches up front; within a
//! stage, workers claim sub-batches through the epoch-guarded
//! [`ClaimCtrl`] word, so intra-batch parallelism needs no per-query
//! locking and a lagging steal helper can never touch a group its stage
//! has already finished (see `DESIGN.md` § "Executor safety protocol").

use crate::batch::Batch;
use crate::engine::KvEngine;
use crate::sync::{Backoff, Claim, ClaimCtrl};
use crate::tasks;
use crossbeam::channel::{bounded, Receiver, Sender};
use dido_model::{
    metric_table, Counter, PipelineConfig, PipelinePlan, Query, Response, StagePlan,
    WAVEFRONT_WIDTH,
};
use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::sync::Arc;
use std::time::Duration;

/// A sub-batch slot claimable by exactly one worker per stage.
///
/// # Safety protocol
/// Mutable access is granted only through [`ClaimCtrl::try_claim`]: the
/// claim word packs the group's **stage epoch** next to the claim
/// cursor, and a claimer presents the epoch it was handed along with the
/// group. Exactly one claimer can win index `i` per epoch, and a claimer
/// holding a ticket for an earlier epoch (e.g. a steal helper that
/// dequeued the group after its stage completed) is refused atomically
/// ([`Claim::Stale`]) before it can form a reference. The claim's
/// Acquire/Release CAS orders the winner's access after the epoch
/// advance, and the stage barrier (`StageBarrier`, a mutex-guarded
/// completion count) orders every access of stage *k* before the owner
/// forwards the group — and therefore before stage *k*+1's epoch
/// advance. At no point can two live `&mut` references to the same
/// sub-batch exist.
struct SubCell(UnsafeCell<Batch>);

// SAFETY: see the claim protocol above — at most one thread can win a
// given (epoch, index) ticket, stale ticket-holders are turned away
// before touching the cell, and the claim CAS plus the barrier mutex
// provide the necessary happens-before edges between stages.
unsafe impl Sync for SubCell {}

/// Completion barrier for one stage of one group: the stage owner waits
/// until every claimed sub-batch has been processed (by itself or by a
/// steal helper) before forwarding the group. Condvar-based so the
/// owner parks instead of burning a core — essential on machines with
/// fewer cores than pipeline threads.
struct StageBarrier {
    done: Mutex<usize>,
    all_done: Condvar,
}

struct BatchGroup {
    subs: Vec<SubCell>,
    /// Epoch-guarded claim word (stage epoch + claim cursor).
    ctrl: ClaimCtrl,
    barrier: StageBarrier,
}

impl BatchGroup {
    fn new(queries: Vec<Query>, config: PipelineConfig) -> BatchGroup {
        let subs: Vec<SubCell> = queries
            .chunks(WAVEFRONT_WIDTH)
            .map(|c| SubCell(UnsafeCell::new(Batch::new(c.to_vec(), config))))
            .collect();
        BatchGroup {
            subs,
            ctrl: ClaimCtrl::new(),
            barrier: StageBarrier {
                done: Mutex::new(0),
                all_done: Condvar::new(),
            },
        }
    }

    /// Open this group for a new stage. Only the thread that owns the
    /// group for the stage may call this, and only after receiving it
    /// from the previous stage (whose barrier has therefore passed).
    /// Resets the completion count *before* advancing the epoch, so a
    /// straggler from the previous stage can never see the zeroed count:
    /// its claim attempts die on the stale epoch first.
    fn begin_stage(&self) -> u32 {
        *self.barrier.done.lock() = 0;
        self.ctrl.advance_epoch()
    }

    /// Record one processed sub-batch; wakes the stage owner when the
    /// whole group is done.
    fn complete_one(&self) {
        let mut done = self.barrier.done.lock();
        *done += 1;
        if *done == self.subs.len() {
            self.barrier.all_done.notify_all();
        }
    }

    /// Park until every sub-batch of the current stage has completed.
    fn wait_stage_complete(&self) {
        let mut done = self.barrier.done.lock();
        while *done < self.subs.len() {
            self.barrier.all_done.wait(&mut done);
        }
    }

    fn into_batches(self) -> Vec<Batch> {
        self.subs.into_iter().map(|c| c.0.into_inner()).collect()
    }
}

metric_table! {
    /// Write side of [`ExecStats`].
    struct ExecCounters;
    /// Claim/steal counters of one [`ThreadedPipeline`], accumulated
    /// across every `run` call. Snapshot via
    /// [`ThreadedPipeline::exec_stats`]; its `Display` is the claim
    /// accounting line.
    pub struct ExecStats;

    /// Sub-batches processed by their stage's own thread.
    owner_claims: Counter,
    /// Sub-batches processed by the steal helper.
    stolen_claims: Counter,
    /// Steal attempts refused because the group had already moved to a
    /// later stage (each one is a race the epoch guard defused).
    stale_rejects: Counter,
    /// Groups handed to the steal helper.
    steal_groups: Counter,
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "claims: {} owner / {} stolen, {} stale rejects over {} steal groups",
            self.owner_claims, self.stolen_claims, self.stale_rejects, self.steal_groups
        )
    }
}

#[derive(Clone, Copy)]
enum Role {
    Owner,
    Thief,
}

/// Claim-and-process loop shared by a stage's own thread and any
/// stealing helper. `epoch` is the ticket handed out by
/// [`BatchGroup::begin_stage`]; the loop stops at the first exhausted or
/// stale claim.
fn drain_group(
    engine: &KvEngine,
    stage: &StagePlan,
    group: &BatchGroup,
    epoch: u32,
    counters: &ExecCounters,
    role: Role,
    per_sub_lag: Option<Duration>,
) {
    loop {
        match group.ctrl.try_claim(epoch, group.subs.len()) {
            Claim::Sub(i) => {
                if let Some(lag) = per_sub_lag {
                    std::thread::sleep(lag);
                }
                // SAFETY: the claim word handed index `i` to this worker
                // exclusively for `epoch`; any other claimer either gets
                // a different index or is refused (`Exhausted`/`Stale`).
                // The next stage cannot advance the epoch until our
                // `complete_one` below has been counted by the barrier.
                let sub = unsafe { &mut *group.subs[i].0.get() };
                tasks::run_stage(engine, stage, sub);
                match role {
                    Role::Owner => counters.owner_claims.add(1),
                    Role::Thief => counters.stolen_claims.add(1),
                };
                group.complete_one();
            }
            Claim::Exhausted => break,
            Claim::Stale => {
                // The group already belongs to a later stage: on the
                // pre-epoch executor this was the moment a lagging
                // helper re-ran index ops on sub-batches the next stage
                // was concurrently mutating.
                counters.stale_rejects.add(1);
                break;
            }
        }
    }
}

/// Real-thread pipeline over an engine.
pub struct ThreadedPipeline<'e> {
    engine: &'e KvEngine,
    plan: PipelinePlan,
    counters: ExecCounters,
    /// Test hook: delay the steal helper between dequeuing a group and
    /// claiming from it (forces it to lag behind the owner).
    steal_lag: Option<Duration>,
    /// Test hook: delay the stolen-from stage's owner before processing
    /// each claimed sub-batch (gives the helper room to win claims, even
    /// on a single-core host).
    owner_lag: Option<Duration>,
}

impl<'e> ThreadedPipeline<'e> {
    /// Build a pipeline for `config`.
    #[must_use]
    pub fn new(engine: &'e KvEngine, config: PipelineConfig) -> ThreadedPipeline<'e> {
        ThreadedPipeline {
            engine,
            plan: config.plan(),
            counters: ExecCounters::default(),
            steal_lag: None,
            owner_lag: None,
        }
    }

    /// The expanded stage plan.
    #[must_use]
    pub fn plan(&self) -> &PipelinePlan {
        &self.plan
    }

    /// Delay the steal helper by `lag` between dequeuing a group and
    /// claiming from it. Race-regression test hook: a real helper lags
    /// whenever it is descheduled; this makes the lag deterministic so
    /// tests can prove a stale helper touches nothing.
    #[must_use]
    pub fn with_steal_lag(mut self, lag: Duration) -> ThreadedPipeline<'e> {
        self.steal_lag = Some(lag);
        self
    }

    /// Delay the stolen-from stage's owner by `lag` per claimed
    /// sub-batch, so the steal helper reliably wins claims even when the
    /// host has a single core. Test hook.
    #[must_use]
    pub fn with_owner_lag(mut self, lag: Duration) -> ThreadedPipeline<'e> {
        self.owner_lag = Some(lag);
        self
    }

    /// Snapshot of the claim/steal counters accumulated so far.
    #[must_use]
    pub fn exec_stats(&self) -> ExecStats {
        self.counters.snapshot()
    }

    /// Process batches through the staged pipeline; returns per-batch
    /// responses in submission order.
    #[must_use]
    pub fn run(&self, batches: Vec<Vec<Query>>) -> Vec<Vec<Response>> {
        let stages = &self.plan.stages;
        let engine = self.engine;
        let config = self.plan.config;
        let work_stealing = config.work_stealing;
        let n_batches = batches.len();
        let counters = &self.counters;

        let mut results: Vec<Vec<Response>> = Vec::with_capacity(n_batches);
        std::thread::scope(|scope| {
            // Channel chain: injector -> stage 0 -> ... -> collector.
            let mut senders: Vec<Sender<Arc<BatchGroup>>> = Vec::new();
            let mut receivers: Vec<Receiver<Arc<BatchGroup>>> = Vec::new();
            for _ in 0..=stages.len() {
                let (tx, rx) = bounded::<Arc<BatchGroup>>(4);
                senders.push(tx);
                receivers.push(rx);
            }

            // Steal helper: co-processes GPU-stage groups. The channel
            // carries the epoch the group was opened under, so a helper
            // that dequeues late presents a dead ticket and is refused.
            let gpu_stage_idx = self.plan.gpu_stage();
            let steal_pair = match (work_stealing, gpu_stage_idx) {
                (true, Some(_)) => Some(bounded::<(Arc<BatchGroup>, u32)>(4)),
                _ => None,
            };
            if let (Some((_, steal_rx)), Some(gsi)) = (&steal_pair, gpu_stage_idx) {
                let steal_rx = steal_rx.clone();
                let stage = stages[gsi].clone();
                let steal_lag = self.steal_lag;
                scope.spawn(move || {
                    while let Ok((group, epoch)) = steal_rx.recv() {
                        if let Some(lag) = steal_lag {
                            std::thread::sleep(lag);
                        }
                        drain_group(engine, &stage, &group, epoch, counters, Role::Thief, None);
                    }
                });
            }

            // Stage threads.
            for (si, stage) in stages.iter().cloned().enumerate() {
                let rx = receivers[si].clone();
                let tx = senders[si + 1].clone();
                let steal_tx = if Some(si) == gpu_stage_idx {
                    steal_pair.as_ref().map(|(tx, _)| tx.clone())
                } else {
                    None
                };
                let owner_lag = if Some(si) == gpu_stage_idx {
                    self.owner_lag
                } else {
                    None
                };
                scope.spawn(move || {
                    while let Ok(group) = rx.recv() {
                        let epoch = group.begin_stage();
                        if let Some(steal_tx) = &steal_tx {
                            if steal_tx.try_send((Arc::clone(&group), epoch)).is_ok() {
                                counters.steal_groups.add(1);
                            }
                        }
                        drain_group(
                            engine,
                            &stage,
                            &group,
                            epoch,
                            counters,
                            Role::Owner,
                            owner_lag,
                        );
                        // Stage barrier: park until helpers finish their
                        // claimed sub-batches.
                        group.wait_stage_complete();
                        if tx.send(group).is_err() {
                            break;
                        }
                    }
                });
            }

            // Injector.
            let injector = senders[0].clone();
            drop(senders);
            drop(steal_pair);
            let final_rx = receivers[stages.len()].clone();
            drop(receivers);

            scope.spawn(move || {
                for queries in batches {
                    let group = Arc::new(BatchGroup::new(queries, config));
                    if injector.send(group).is_err() {
                        break;
                    }
                }
            });

            // Collector.
            for _ in 0..n_batches {
                let Ok(group) = final_rx.recv() else { break };
                // The steal helper may still hold its Arc for an instant
                // after being refused/exhausted; back off instead of
                // burning a scheduler quantum per probe.
                let mut group = group;
                let mut backoff = Backoff::new();
                let group = loop {
                    match Arc::try_unwrap(group) {
                        Ok(g) => break g,
                        Err(g) => {
                            group = g;
                            backoff.snooze();
                        }
                    }
                };
                let mut responses = Vec::new();
                for mut sub in group.into_batches() {
                    responses.append(&mut sub.take_responses());
                }
                results.push(responses);
            }
        });
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use dido_model::ResponseStatus;

    fn engine() -> KvEngine {
        KvEngine::new(EngineConfig::new(4 << 20, 256 << 10, 64 << 10))
    }

    fn queries(n: usize, prefix: &str) -> Vec<Query> {
        (0..n)
            .map(|i| {
                if i % 10 == 0 {
                    Query::set(format!("{prefix}-{:05}", i % 300), vec![b'v'; 48])
                } else {
                    Query::get(format!("{prefix}-{:05}", i % 300))
                }
            })
            .collect()
    }

    #[test]
    fn single_batch_through_mega_kv_plan() {
        let e = engine();
        // Warm the store so GETs hit.
        for i in 0..300 {
            e.execute(&Query::set(format!("tp-{i:05}"), vec![b'v'; 48]));
        }
        let tp = ThreadedPipeline::new(&e, PipelineConfig::mega_kv());
        let out = tp.run(vec![queries(512, "tp")]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 512);
        let hits = out[0]
            .iter()
            .filter(|r| r.status == ResponseStatus::Ok)
            .count();
        assert!(hits > 400, "most queries should succeed, got {hits}");
    }

    #[test]
    fn multiple_batches_stay_in_order_and_correct() {
        let e = engine();
        let tp = ThreadedPipeline::new(&e, PipelineConfig::mega_kv());
        // Batch 0 sets unique keys; batch 1..n read them back.
        let sets: Vec<Query> = (0..256)
            .map(|i| Query::set(format!("ord-{i}"), format!("val-{i}")))
            .collect();
        let gets: Vec<Query> = (0..256).map(|i| Query::get(format!("ord-{i}"))).collect();
        let out = tp.run(vec![sets, gets.clone(), gets]);
        assert_eq!(out.len(), 3);
        for batch_out in &out[1..] {
            for (i, r) in batch_out.iter().enumerate() {
                assert_eq!(r.status, ResponseStatus::Ok, "get {i}");
                assert_eq!(r.value, format!("val-{i}"));
            }
        }
    }

    #[test]
    fn work_stealing_produces_identical_results() {
        let run = |ws: bool| {
            let e = engine();
            for q in queries(300, "ws") {
                e.execute(&q);
            }
            let mut cfg = PipelineConfig::small_kv_read_intensive();
            cfg.work_stealing = ws;
            let tp = ThreadedPipeline::new(&e, cfg);
            tp.run(vec![queries(1024, "ws"), queries(1024, "ws")])
                .into_iter()
                .map(|rs| rs.into_iter().map(|r| r.status).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn cpu_only_plan_works_threaded() {
        let e = engine();
        let tp = ThreadedPipeline::new(&e, PipelineConfig::cpu_only());
        // Per-batch ordering is guaranteed across batches (not within
        // one unordered batch), so each step ships separately.
        let out = tp.run(vec![
            vec![Query::set("solo", "x")],
            vec![Query::get("solo")],
            vec![Query::delete("solo")],
            vec![Query::get("solo")],
        ]);
        let statuses: Vec<ResponseStatus> = out.iter().map(|b| b[0].status).collect();
        assert_eq!(
            statuses,
            vec![
                ResponseStatus::Ok,
                ResponseStatus::Ok,
                ResponseStatus::Ok,
                ResponseStatus::NotFound
            ]
        );
    }

    #[test]
    fn empty_run_is_fine() {
        let e = engine();
        let tp = ThreadedPipeline::new(&e, PipelineConfig::mega_kv());
        assert!(tp.run(Vec::new()).is_empty());
        let out = tp.run(vec![Vec::new()]);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
    }

    #[test]
    fn exec_stats_account_for_every_sub_batch() {
        let e = engine();
        for q in queries(300, "st") {
            e.execute(&q);
        }
        let mut cfg = PipelineConfig::small_kv_read_intensive();
        cfg.work_stealing = true;
        let tp = ThreadedPipeline::new(&e, cfg);
        let batches = vec![queries(1024, "st"), queries(1024, "st")];
        let subs_per_batch = 1024usize.div_ceil(WAVEFRONT_WIDTH) as u64;
        let n_stages = tp.plan().stages.len() as u64;
        let out = tp.run(batches);
        assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 2 * 1024);
        let stats = tp.exec_stats();
        // Every (stage, sub-batch) pair processed exactly once, whether
        // by the owner or the thief — never twice, never zero times.
        assert_eq!(
            stats.owner_claims + stats.stolen_claims,
            2 * subs_per_batch * n_stages,
            "{stats:?}"
        );
    }

    #[test]
    fn lagging_owner_lets_the_helper_steal() {
        // The owner sleeps per claimed sub-batch, so even on a
        // single-core host the helper gets scheduled and wins claims.
        let e = engine();
        for q in queries(300, "lg") {
            e.execute(&q);
        }
        let mut cfg = PipelineConfig::small_kv_read_intensive();
        cfg.work_stealing = true;
        let tp =
            ThreadedPipeline::new(&e, cfg).with_owner_lag(Duration::from_micros(500));
        let mut stolen = 0;
        for round in 0..20 {
            let out = tp.run(vec![queries(1024, "lg")]);
            assert_eq!(out[0].len(), 1024, "round {round}");
            stolen = tp.exec_stats().stolen_claims;
            if stolen > 0 {
                break;
            }
        }
        assert!(stolen > 0, "helper never won a claim: {:?}", tp.exec_stats());
    }

    #[test]
    fn lagging_helper_is_refused_stale_groups() {
        // The helper dequeues groups long after the owner finished the
        // stage: every one of its claim attempts must die on the epoch
        // guard, and results must stay exactly correct.
        let e = engine();
        let mut cfg = PipelineConfig::small_kv_read_intensive();
        cfg.work_stealing = true;
        let tp = ThreadedPipeline::new(&e, cfg).with_steal_lag(Duration::from_millis(2));
        let sets: Vec<Query> = (0..256)
            .map(|i| Query::set(format!("stale-{i}"), format!("v-{i}")))
            .collect();
        let gets: Vec<Query> = (0..256)
            .map(|i| Query::get(format!("stale-{i}")))
            .collect();
        let out = tp.run(vec![sets, gets.clone(), gets]);
        for batch_out in &out[1..] {
            for (i, r) in batch_out.iter().enumerate() {
                assert_eq!(r.status, ResponseStatus::Ok, "get {i}");
                assert_eq!(r.value, format!("v-{i}"), "get {i}");
            }
        }
        let stats = tp.exec_stats();
        assert!(stats.steal_groups > 0, "{stats:?}");
        assert!(
            stats.stale_rejects > 0,
            "a 2ms-lagging helper must hit the stale guard: {stats:?}"
        );
    }
}
