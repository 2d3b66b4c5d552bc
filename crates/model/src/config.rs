//! Pipeline configurations and their expansion into stage plans.

use crate::task::{IndexOpKind, Processor, TaskKind, TaskSet};
use std::fmt;

/// Where each of the three index operations executes
/// (paper §III-B-2, flexible index operation assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexOpAssignment {
    /// Processor for Search operations.
    pub search: Processor,
    /// Processor for Insert operations.
    pub insert: Processor,
    /// Processor for Delete operations.
    pub delete: Processor,
}

impl IndexOpAssignment {
    /// Everything on the GPU (Mega-KV's fixed policy).
    pub const ALL_GPU: IndexOpAssignment = IndexOpAssignment {
        search: Processor::Gpu,
        insert: Processor::Gpu,
        delete: Processor::Gpu,
    };

    /// Everything on the CPU.
    pub const ALL_CPU: IndexOpAssignment = IndexOpAssignment {
        search: Processor::Cpu,
        insert: Processor::Cpu,
        delete: Processor::Cpu,
    };

    /// Search on the GPU, updates (Insert/Delete) on the CPU — the policy
    /// DIDO picks for read-intensive workloads (paper §V-C).
    pub const UPDATES_ON_CPU: IndexOpAssignment = IndexOpAssignment {
        search: Processor::Gpu,
        insert: Processor::Cpu,
        delete: Processor::Cpu,
    };

    /// Processor for one operation kind.
    #[must_use]
    pub fn processor_for(&self, op: IndexOpKind) -> Processor {
        match op {
            IndexOpKind::Search => self.search,
            IndexOpKind::Insert => self.insert,
            IndexOpKind::Delete => self.delete,
        }
    }

    /// All eight possible assignments.
    #[must_use]
    pub fn all() -> Vec<IndexOpAssignment> {
        let procs = [Processor::Cpu, Processor::Gpu];
        let mut v = Vec::with_capacity(8);
        for &s in &procs {
            for &i in &procs {
                for &d in &procs {
                    v.push(IndexOpAssignment {
                        search: s,
                        insert: i,
                        delete: d,
                    });
                }
            }
        }
        v
    }
}

/// A complete dynamic-pipeline configuration.
///
/// A configuration names the contiguous run of offloadable tasks placed
/// on the GPU (`gpu_segment ⊆ {IN, KC, RD, WR}`), the per-operation index
/// assignment, and whether work stealing is active. `RV`, `PP`, `MM` and
/// `SD` are pinned to the CPU (see [`TaskKind::cpu_only`]).
///
/// The derived [`PipelinePlan`] has up to three stages:
/// `[pre-GPU tasks]_CPU → [gpu_segment]_GPU → [post-GPU tasks]_CPU`,
/// or a single CPU stage when the segment is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Contiguous subset of `{IN, KC, RD, WR}` offloaded to the GPU.
    pub gpu_segment: TaskSet,
    /// Per-operation index assignment. Only meaningful for operations the
    /// `IN` task would otherwise run on the GPU; an op assigned to the
    /// CPU executes in the adjacent CPU stage.
    pub index_ops: IndexOpAssignment,
    /// Whether CPU↔GPU work stealing is enabled (paper §III-B-3).
    pub work_stealing: bool,
}

impl PipelineConfig {
    /// Mega-KV's static pipeline:
    /// `[RV,PP,MM]_CPU → [IN]_GPU → [KC,RD,WR,SD]_CPU`, all index
    /// operations on the GPU, no work stealing.
    #[must_use]
    pub fn mega_kv() -> PipelineConfig {
        PipelineConfig {
            gpu_segment: TaskSet::from_tasks(&[TaskKind::In]),
            index_ops: IndexOpAssignment::ALL_GPU,
            work_stealing: false,
        }
    }

    /// The pipeline DIDO selects for small-KV read-intensive workloads
    /// (paper §V-C): `[RV,PP,MM]_CPU → [IN,KC,RD]_GPU → [WR,SD]_CPU`
    /// with Insert/Delete on the CPU and stealing enabled.
    #[must_use]
    pub fn small_kv_read_intensive() -> PipelineConfig {
        PipelineConfig {
            gpu_segment: TaskSet::from_tasks(&[TaskKind::In, TaskKind::Kc, TaskKind::Rd]),
            index_ops: IndexOpAssignment::UPDATES_ON_CPU,
            work_stealing: true,
        }
    }

    /// A CPU-only configuration (no GPU stage at all).
    #[must_use]
    pub fn cpu_only() -> PipelineConfig {
        PipelineConfig {
            gpu_segment: TaskSet::EMPTY,
            index_ops: IndexOpAssignment::ALL_CPU,
            work_stealing: false,
        }
    }

    /// Validity: the GPU segment must be contiguous, contain only
    /// offloadable tasks, and the index assignment must be consistent
    /// with the segment (if `IN` is *not* on the GPU, no op may claim the
    /// GPU; if it *is*, at least one op must actually run there,
    /// otherwise the configuration is a duplicate of the one without `IN`
    /// in the segment).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        if !self.gpu_segment.is_contiguous() {
            return false;
        }
        if self.gpu_segment.iter().any(TaskKind::cpu_only) {
            return false;
        }
        let in_on_gpu = self.gpu_segment.contains(TaskKind::In);
        let ops_on_gpu = IndexOpKind::ALL
            .iter()
            .filter(|&&op| self.index_ops.processor_for(op) == Processor::Gpu)
            .count();
        if in_on_gpu {
            ops_on_gpu > 0
        } else {
            ops_on_gpu == 0
        }
    }

    /// Expand into the concrete stage plan.
    #[must_use]
    pub fn plan(&self) -> PipelinePlan {
        let mut pre = TaskSet::EMPTY;
        let mut post = TaskSet::EMPTY;
        let gpu = self.gpu_segment;
        if gpu.is_empty() {
            let all = TaskSet::from_tasks(&TaskKind::ALL);
            return PipelinePlan {
                stages: vec![StagePlan {
                    processor: Processor::Cpu,
                    tasks: all,
                    index_ops: index_ops_on(self, Processor::Cpu),
                }],
                config: *self,
            };
        }
        let first_gpu = gpu.iter().next().expect("non-empty").index();
        let last_gpu = gpu.iter().last().expect("non-empty").index();
        for t in TaskKind::ALL {
            if gpu.contains(t) {
                continue;
            }
            if t.index() < first_gpu {
                pre.insert(t);
            } else if t.index() > last_gpu {
                post.insert(t);
            } else {
                // A CPU-only task strictly inside the GPU segment cannot
                // happen for valid configs (segment ⊆ {IN,KC,RD,WR} is
                // contiguous), but keep the derivation total.
                pre.insert(t);
            }
        }
        // Index ops assigned to the CPU while IN sits on the GPU run in
        // the pre-GPU stage (inserts follow MM's allocation; deletes pair
        // with eviction), per paper §V-C.
        let cpu_ops = index_ops_on(self, Processor::Cpu);
        let gpu_ops = index_ops_on(self, Processor::Gpu);
        let mut stages = Vec::with_capacity(3);
        stages.push(StagePlan {
            processor: Processor::Cpu,
            tasks: pre,
            index_ops: cpu_ops,
        });
        stages.push(StagePlan {
            processor: Processor::Gpu,
            tasks: gpu,
            index_ops: gpu_ops,
        });
        if !post.is_empty() {
            stages.push(StagePlan {
                processor: Processor::Cpu,
                tasks: post,
                index_ops: Vec::new(),
            });
        }
        PipelinePlan {
            stages,
            config: *self,
        }
    }
}

fn index_ops_on(cfg: &PipelineConfig, proc: Processor) -> Vec<IndexOpKind> {
    let in_on_gpu = cfg.gpu_segment.contains(TaskKind::In);
    // Execution order within a stage: Insert, Delete, Search — so a GET
    // in the same batch as the SET that created its key observes the
    // insert (batch-internal ordering; across stages the plan order
    // already guarantees CPU-assigned updates run before GPU searches).
    [IndexOpKind::Insert, IndexOpKind::Delete, IndexOpKind::Search]
        .into_iter()
        .filter(|&op| {
            let assigned = if in_on_gpu {
                cfg.index_ops.processor_for(op)
            } else {
                Processor::Cpu
            };
            assigned == proc
        })
        .collect()
}

impl fmt::Display for PipelineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let plan = self.plan();
        for (i, st) in plan.stages.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "[")?;
            let mut first = true;
            for t in st.tasks.iter() {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{t}")?;
                first = false;
            }
            write!(f, "]{}", st.processor)?;
        }
        if self.gpu_segment.contains(TaskKind::In) {
            write!(
                f,
                " (S:{} I:{} D:{})",
                self.index_ops.search, self.index_ops.insert, self.index_ops.delete
            )?;
        }
        if self.work_stealing {
            write!(f, " +WS")?;
        }
        Ok(())
    }
}

/// One pipeline stage: a processor and the tasks (and index operations)
/// it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    /// The processor in charge of this stage.
    pub processor: Processor,
    /// Tasks executed in this stage, in canonical order.
    pub tasks: TaskSet,
    /// Index operations executed in this stage (relevant when the stage
    /// contains `IN`, or when CPU-assigned operations piggyback on the
    /// pre-GPU stage).
    pub index_ops: Vec<IndexOpKind>,
}

/// A pipeline configuration expanded into concrete stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinePlan {
    /// Stages in processing order (1–3 of them).
    pub stages: Vec<StagePlan>,
    /// The configuration this plan was derived from.
    pub config: PipelineConfig,
}

impl PipelinePlan {
    /// Index of the GPU stage, if any.
    #[must_use]
    pub fn gpu_stage(&self) -> Option<usize> {
        self.stages
            .iter()
            .position(|s| s.processor == Processor::Gpu)
    }

    /// Number of CPU stages.
    #[must_use]
    pub fn cpu_stage_count(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.processor == Processor::Cpu)
            .count()
    }

    /// Whether task `t`'s affinity predecessor is placed in the same
    /// stage (paper §III-B-1, task affinity).
    #[must_use]
    pub fn affinity_satisfied(&self, t: TaskKind) -> bool {
        let Some(pred) = t.affinity_predecessor() else {
            return false;
        };
        self.stages
            .iter()
            .any(|s| s.tasks.contains(t) && s.tasks.contains(pred))
    }
}

/// Enumerates the whole valid configuration space (paper §IV-B: "we
/// search the entire configuration space to obtain the optimal
/// configuration plan. Since we only have a limited number of pipeline
/// partitioning schemes ... and a limited number of index operation
/// assignment policies").
#[derive(Debug, Clone, Copy, Default)]
pub struct ConfigEnumerator {
    /// If set, only emit configurations with this work-stealing flag.
    pub work_stealing: Option<bool>,
    /// If set, restrict to this GPU segment (used by the Fig-13 ablation
    /// that fixes the Mega-KV partitioning while varying index ops).
    pub fixed_segment: Option<TaskSet>,
}

impl ConfigEnumerator {
    /// Enumerate every valid configuration under the constraints.
    #[must_use]
    pub fn enumerate(&self) -> Vec<PipelineConfig> {
        let offloadable = [TaskKind::In, TaskKind::Kc, TaskKind::Rd, TaskKind::Wr];
        let mut segments: Vec<TaskSet> = vec![TaskSet::EMPTY];
        for start in 0..offloadable.len() {
            for end in start..offloadable.len() {
                segments.push(TaskSet::from_tasks(&offloadable[start..=end]));
            }
        }
        if let Some(seg) = self.fixed_segment {
            segments.retain(|s| *s == seg);
        }
        let stealing_options: &[bool] = match self.work_stealing {
            Some(true) => &[true],
            Some(false) => &[false],
            None => &[false, true],
        };
        let mut out = Vec::new();
        for seg in segments {
            for ops in IndexOpAssignment::all() {
                for &ws in stealing_options {
                    let cfg = PipelineConfig {
                        gpu_segment: seg,
                        index_ops: ops,
                        work_stealing: ws,
                    };
                    if cfg.is_valid() && !out.contains(&cfg) {
                        out.push(cfg);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mega_kv_plan_shape() {
        let plan = PipelineConfig::mega_kv().plan();
        assert_eq!(plan.stages.len(), 3);
        assert_eq!(plan.stages[0].processor, Processor::Cpu);
        assert_eq!(
            plan.stages[0].tasks,
            TaskSet::from_tasks(&[TaskKind::Rv, TaskKind::Pp, TaskKind::Mm])
        );
        assert_eq!(plan.stages[1].processor, Processor::Gpu);
        assert_eq!(plan.stages[1].tasks, TaskSet::from_tasks(&[TaskKind::In]));
        assert_eq!(
            plan.stages[2].tasks,
            TaskSet::from_tasks(&[TaskKind::Kc, TaskKind::Rd, TaskKind::Wr, TaskKind::Sd])
        );
        assert_eq!(plan.gpu_stage(), Some(1));
        assert_eq!(plan.cpu_stage_count(), 2);
    }

    #[test]
    fn small_kv_plan_moves_kc_rd_to_gpu() {
        let plan = PipelineConfig::small_kv_read_intensive().plan();
        assert_eq!(plan.stages.len(), 3);
        assert_eq!(
            plan.stages[1].tasks,
            TaskSet::from_tasks(&[TaskKind::In, TaskKind::Kc, TaskKind::Rd])
        );
        assert_eq!(
            plan.stages[2].tasks,
            TaskSet::from_tasks(&[TaskKind::Wr, TaskKind::Sd])
        );
        // Insert/Delete run in the pre-GPU CPU stage.
        assert_eq!(
            plan.stages[0].index_ops,
            vec![IndexOpKind::Insert, IndexOpKind::Delete]
        );
        // Within-stage execution order is Insert, Delete, Search.
        assert_eq!(plan.stages[1].index_ops, vec![IndexOpKind::Search]);
    }

    #[test]
    fn cpu_only_plan_is_single_stage() {
        let plan = PipelineConfig::cpu_only().plan();
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(plan.stages[0].processor, Processor::Cpu);
        assert_eq!(plan.stages[0].tasks.len(), 8);
        assert_eq!(
            plan.stages[0].index_ops,
            vec![IndexOpKind::Insert, IndexOpKind::Delete, IndexOpKind::Search]
        );
        assert_eq!(plan.gpu_stage(), None);
    }

    #[test]
    fn validity_rules() {
        assert!(PipelineConfig::mega_kv().is_valid());
        assert!(PipelineConfig::small_kv_read_intensive().is_valid());
        assert!(PipelineConfig::cpu_only().is_valid());
        // Non-contiguous segment.
        let bad = PipelineConfig {
            gpu_segment: TaskSet::from_tasks(&[TaskKind::In, TaskKind::Rd]),
            index_ops: IndexOpAssignment::ALL_GPU,
            work_stealing: false,
        };
        assert!(!bad.is_valid());
        // CPU-only task on the GPU.
        let bad = PipelineConfig {
            gpu_segment: TaskSet::from_tasks(&[TaskKind::Mm, TaskKind::In]),
            index_ops: IndexOpAssignment::ALL_GPU,
            work_stealing: false,
        };
        assert!(!bad.is_valid());
        // IN on GPU but no op assigned there: degenerate duplicate.
        let bad = PipelineConfig {
            gpu_segment: TaskSet::from_tasks(&[TaskKind::In]),
            index_ops: IndexOpAssignment::ALL_CPU,
            work_stealing: false,
        };
        assert!(!bad.is_valid());
        // IN off GPU but ops claim GPU: inconsistent.
        let bad = PipelineConfig {
            gpu_segment: TaskSet::from_tasks(&[TaskKind::Kc, TaskKind::Rd]),
            index_ops: IndexOpAssignment::ALL_GPU,
            work_stealing: false,
        };
        assert!(!bad.is_valid());
    }

    #[test]
    fn enumerator_yields_valid_unique_configs() {
        let configs = ConfigEnumerator::default().enumerate();
        assert!(configs.iter().all(PipelineConfig::is_valid));
        let mut seen = std::collections::HashSet::new();
        for c in &configs {
            assert!(seen.insert(format!("{c:?}")), "duplicate config {c}");
        }
        // Both stealing options present, Mega-KV shape present.
        assert!(configs.iter().any(|c| c.work_stealing));
        assert!(configs.iter().any(|c| !c.work_stealing));
        assert!(configs.contains(&PipelineConfig::mega_kv()));
        assert!(configs.contains(&PipelineConfig::small_kv_read_intensive()));
        // Space is small enough for exhaustive search.
        assert!(configs.len() < 200, "space too large: {}", configs.len());
    }

    #[test]
    fn enumerator_fixed_segment() {
        let e = ConfigEnumerator {
            work_stealing: Some(false),
            fixed_segment: Some(TaskSet::from_tasks(&[TaskKind::In])),
        };
        let configs = e.enumerate();
        assert!(!configs.is_empty());
        assert!(configs
            .iter()
            .all(|c| c.gpu_segment == TaskSet::from_tasks(&[TaskKind::In]) && !c.work_stealing));
        // 7 index assignments have at least one GPU op.
        assert_eq!(configs.len(), 7);
    }

    #[test]
    fn affinity_satisfaction() {
        let plan = PipelineConfig::mega_kv().plan();
        // KC has no affinity predecessor.
        assert!(!plan.affinity_satisfied(TaskKind::Kc));
        // RD follows KC in the same CPU stage: satisfied.
        assert!(plan.affinity_satisfied(TaskKind::Rd));
        assert!(plan.affinity_satisfied(TaskKind::Wr));
        let plan = PipelineConfig::small_kv_read_intensive().plan();
        // KC and RD share the GPU stage: RD's affinity holds; WR sits
        // alone in the last CPU stage, so its affinity with RD is lost.
        assert!(plan.affinity_satisfied(TaskKind::Rd));
        assert!(!plan.affinity_satisfied(TaskKind::Wr));
    }

    #[test]
    fn display_is_readable() {
        let s = PipelineConfig::mega_kv().to_string();
        assert!(s.contains("[RV,PP,MM]CPU"), "{s}");
        assert!(s.contains("[IN]GPU"), "{s}");
        let s = PipelineConfig::small_kv_read_intensive().to_string();
        assert!(s.contains("+WS"), "{s}");
        assert!(s.contains("I:CPU"), "{s}");
    }
}
