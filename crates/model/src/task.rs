//! Tasks, processors, and task sets.

use std::fmt;

/// A compute unit of the coupled CPU-GPU chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Processor {
    /// The multicore CPU side of the APU.
    Cpu,
    /// The integrated GPU side of the APU.
    Gpu,
}

impl Processor {
    /// The other processor of the pair.
    #[must_use]
    pub fn other(self) -> Processor {
        match self {
            Processor::Cpu => Processor::Gpu,
            Processor::Gpu => Processor::Cpu,
        }
    }
}

impl fmt::Display for Processor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Processor::Cpu => write!(f, "CPU"),
            Processor::Gpu => write!(f, "GPU"),
        }
    }
}

/// The eight fine-grained tasks of key-value query processing
/// (paper §III-A).
///
/// The discriminant order is the canonical processing order of a query;
/// `TaskKind::ALL` iterates in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum TaskKind {
    /// Receive packets from the network.
    Rv = 0,
    /// Packet processing: TCP/IP handling and query parsing.
    Pp = 1,
    /// Memory management: allocation and eviction for SET queries.
    Mm = 2,
    /// Index operations (Search / Insert / Delete) on the cuckoo table.
    In = 3,
    /// Key comparison: verify the full key after a signature match.
    Kc = 4,
    /// Read the key-value object from memory.
    Rd = 5,
    /// Write the response packet.
    Wr = 6,
    /// Send responses to clients.
    Sd = 7,
}

impl TaskKind {
    /// All tasks in canonical processing order.
    pub const ALL: [TaskKind; 8] = [
        TaskKind::Rv,
        TaskKind::Pp,
        TaskKind::Mm,
        TaskKind::In,
        TaskKind::Kc,
        TaskKind::Rd,
        TaskKind::Wr,
        TaskKind::Sd,
    ];

    /// Index into [`TaskKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Task from its canonical index.
    ///
    /// # Panics
    /// Panics if `idx >= 8`.
    #[must_use]
    pub fn from_index(idx: usize) -> TaskKind {
        TaskKind::ALL[idx]
    }

    /// Whether this task is pinned to the CPU (paper §IV-B: "RV and SD
    /// are fixed to run on the CPU"; MM manages the host allocator and is
    /// likewise never offloaded; PP parses packets delivered to host
    /// rings).
    #[must_use]
    pub fn cpu_only(self) -> bool {
        matches!(
            self,
            TaskKind::Rv | TaskKind::Pp | TaskKind::Mm | TaskKind::Sd
        )
    }

    /// The affinity predecessor of this task, if any (paper §III-B-1):
    /// placing the task in the same stage as its predecessor lets it find
    /// its data already in cache.
    ///
    /// * `KC` fetches key-value objects to compare keys; `RD` then reads
    ///   the same objects, so `RD` has affinity with `KC` ("placing RD
    ///   in the same stage with KC would be much faster").
    /// * `WR` has affinity with `RD`: with both in one stage the value
    ///   is copied straight out of the just-read object; when separated,
    ///   `RD` stages values into a buffer that `WR` then re-reads
    ///   (sequentially, hence cached — but an extra copy).
    #[must_use]
    pub fn affinity_predecessor(self) -> Option<TaskKind> {
        match self {
            TaskKind::Rd => Some(TaskKind::Kc),
            TaskKind::Wr => Some(TaskKind::Rd),
            _ => None,
        }
    }

    /// Short uppercase name used in experiment output (matches the
    /// paper's notation, e.g. `RV`, `PP`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Rv => "RV",
            TaskKind::Pp => "PP",
            TaskKind::Mm => "MM",
            TaskKind::In => "IN",
            TaskKind::Kc => "KC",
            TaskKind::Rd => "RD",
            TaskKind::Wr => "WR",
            TaskKind::Sd => "SD",
        }
    }
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The three index operations, independently assignable to either
/// processor (paper §III-B-2: "we treat Search, Delete, and Insert
/// operations as three independent tasks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexOpKind {
    /// Locate the value of a GET query.
    Search,
    /// Add the index entry of a newly stored object.
    Insert,
    /// Remove the index entry of an evicted or deleted object.
    Delete,
}

impl IndexOpKind {
    /// All index operations.
    pub const ALL: [IndexOpKind; 3] = [
        IndexOpKind::Search,
        IndexOpKind::Insert,
        IndexOpKind::Delete,
    ];
}

impl fmt::Display for IndexOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexOpKind::Search => write!(f, "Search"),
            IndexOpKind::Insert => write!(f, "Insert"),
            IndexOpKind::Delete => write!(f, "Delete"),
        }
    }
}

/// A set of tasks, stored as a bitset over the canonical task order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TaskSet(u8);

impl TaskSet {
    /// The empty set.
    pub const EMPTY: TaskSet = TaskSet(0);

    /// Build a set from a slice of tasks.
    #[must_use]
    pub fn from_tasks(tasks: &[TaskKind]) -> TaskSet {
        let mut s = TaskSet::EMPTY;
        for &t in tasks {
            s.insert(t);
        }
        s
    }

    /// Insert a task.
    pub fn insert(&mut self, t: TaskKind) {
        self.0 |= 1 << t.index();
    }

    /// Remove a task.
    pub fn remove(&mut self, t: TaskKind) {
        self.0 &= !(1 << t.index());
    }

    /// Membership test.
    #[must_use]
    pub fn contains(self, t: TaskKind) -> bool {
        self.0 & (1 << t.index()) != 0
    }

    /// Number of tasks in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate tasks in canonical processing order.
    pub fn iter(self) -> impl Iterator<Item = TaskKind> {
        TaskKind::ALL.into_iter().filter(move |t| self.contains(*t))
    }

    /// Whether the members form a contiguous run in the canonical order
    /// (required of a GPU segment: a pipeline stage processes a
    /// contiguous slice of the query workflow). The empty set is
    /// contiguous.
    #[must_use]
    pub fn is_contiguous(self) -> bool {
        if self.0 == 0 {
            return true;
        }
        let shifted = u16::from(self.0 >> self.0.trailing_zeros());
        (shifted & (shifted + 1)) == 0
    }
}

impl fmt::Debug for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for t in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<TaskKind> for TaskSet {
    fn from_iter<I: IntoIterator<Item = TaskKind>>(iter: I) -> TaskSet {
        let mut s = TaskSet::EMPTY;
        for t in iter {
            s.insert(t);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_is_stable() {
        for (i, t) in TaskKind::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(TaskKind::from_index(i), *t);
        }
    }

    #[test]
    fn cpu_only_tasks() {
        assert!(TaskKind::Rv.cpu_only());
        assert!(TaskKind::Pp.cpu_only());
        assert!(TaskKind::Mm.cpu_only());
        assert!(TaskKind::Sd.cpu_only());
        assert!(!TaskKind::In.cpu_only());
        assert!(!TaskKind::Kc.cpu_only());
        assert!(!TaskKind::Rd.cpu_only());
        assert!(!TaskKind::Wr.cpu_only());
    }

    #[test]
    fn affinity_chain_matches_paper() {
        assert_eq!(TaskKind::Kc.affinity_predecessor(), None);
        assert_eq!(TaskKind::Rd.affinity_predecessor(), Some(TaskKind::Kc));
        assert_eq!(TaskKind::Wr.affinity_predecessor(), Some(TaskKind::Rd));
        assert_eq!(TaskKind::Rv.affinity_predecessor(), None);
        assert_eq!(TaskKind::In.affinity_predecessor(), None);
    }

    #[test]
    fn taskset_basic_ops() {
        let mut s = TaskSet::EMPTY;
        assert!(s.is_empty());
        s.insert(TaskKind::In);
        s.insert(TaskKind::Kc);
        assert_eq!(s.len(), 2);
        assert!(s.contains(TaskKind::In));
        assert!(!s.contains(TaskKind::Rd));
        s.remove(TaskKind::In);
        assert!(!s.contains(TaskKind::In));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn taskset_iterates_in_order() {
        let s = TaskSet::from_tasks(&[TaskKind::Rd, TaskKind::In, TaskKind::Kc]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![TaskKind::In, TaskKind::Kc, TaskKind::Rd]);
    }

    #[test]
    fn contiguity() {
        assert!(TaskSet::EMPTY.is_contiguous());
        assert!(TaskSet::from_tasks(&[TaskKind::In]).is_contiguous());
        assert!(TaskSet::from_tasks(&[TaskKind::In, TaskKind::Kc, TaskKind::Rd]).is_contiguous());
        assert!(!TaskSet::from_tasks(&[TaskKind::In, TaskKind::Rd]).is_contiguous());
        assert!(!TaskSet::from_tasks(&[TaskKind::Rv, TaskKind::Mm]).is_contiguous());
        assert!(TaskSet::from_tasks(&TaskKind::ALL).is_contiguous());
    }

    #[test]
    fn processor_other() {
        assert_eq!(Processor::Cpu.other(), Processor::Gpu);
        assert_eq!(Processor::Gpu.other(), Processor::Cpu);
    }

    #[test]
    fn display_names() {
        assert_eq!(TaskKind::Rv.to_string(), "RV");
        assert_eq!(TaskKind::Sd.to_string(), "SD");
        assert_eq!(Processor::Cpu.to_string(), "CPU");
        assert_eq!(IndexOpKind::Search.to_string(), "Search");
        assert_eq!(format!("{:?}", TaskSet::from_tasks(&[TaskKind::In, TaskKind::Kc])), "{IN,KC}");
    }
}
