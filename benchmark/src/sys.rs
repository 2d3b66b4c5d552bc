//! What the benchmark asks of the operating system: the CPU partition,
//! a parent-death signal for children, and the `/proc` counters the
//! group-A layer metrics are read from.

use std::collections::HashMap;
use std::io;

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;
/// `cpu_set_t` is 1024 bits.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Which CPUs the server and the load generator get.
///
/// With both floating over the same two vCPUs, three identical runs
/// differed by 15 % in throughput; partitioned, by 1.8 %. The partition
/// is applied from outside the program: no flag is added to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuLayout {
    /// CPUs the server process (or the in-process replay) may use.
    pub server: Vec<usize>,
    /// The load generator's CPU.
    pub loadgen: usize,
}

impl CpuLayout {
    /// Split the CPUs this process may run on: the last one to the load
    /// generator, the rest to the server. Refuses fewer than two.
    pub fn detect() -> Result<CpuLayout, String> {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("/proc/self/status: {e}"))?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .ok_or("no Cpus_allowed_list in /proc/self/status")?;
        CpuLayout::from_allowed(parse_cpu_list(list.trim())?)
    }

    /// The split for an explicit allowed set.
    pub fn from_allowed(mut allowed: Vec<usize>) -> Result<CpuLayout, String> {
        if allowed.len() < 2 {
            return Err(format!(
                "need at least 2 CPUs to keep the load generator off the server's, have {}",
                allowed.len()
            ));
        }
        let loadgen = allowed.pop().expect("two or more");
        Ok(CpuLayout {
            server: allowed,
            loadgen,
        })
    }

    /// `server=0 loadgen=1`, for the report.
    #[must_use]
    pub fn describe(&self) -> String {
        let server: Vec<String> = self.server.iter().map(ToString::to_string).collect();
        format!("server={} loadgen={}", server.join(","), self.loadgen)
    }
}

/// Parse `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let lo: usize = lo.parse().map_err(|_| format!("bad CPU list {list:?}"))?;
        let hi: usize = hi.parse().map_err(|_| format!("bad CPU list {list:?}"))?;
        out.extend(lo..=hi);
    }
    Ok(out)
}

/// Confine the calling thread to `cpus`. Threads and processes it then
/// starts inherit the mask, which is how a child is pinned without the
/// child knowing.
pub fn pin_current_thread(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; CPU_SET_WORDS];
    for &c in cpus {
        if c >= CPU_SET_WORDS * 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("CPU {c} beyond cpu_set_t"),
            ));
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live, correctly sized and aligned cpu_set_t
    // for the duration of the call; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Make the kernel SIGKILL the calling process when its parent dies.
/// Meant for `CommandExt::pre_exec`: a benchmark that is itself killed
/// must not leave a `dido-server` holding a port and a core.
pub fn die_with_parent() -> io::Result<()> {
    // SAFETY: PR_SET_PDEATHSIG takes one integer argument and touches no
    // memory; the call is async-signal-safe.
    let rc = unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The server threads a layer metric is charged to, by thread name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// `dido-reactor-N`: RX reads and carving.
    Reactor,
    /// `dido-dispatch-N`: decode, engine, encode.
    Dispatch,
    /// `dido-sd-N`: reply egress.
    Sd,
    /// `dido-controller`: adaptation and expiry sweeps.
    Controller,
    /// Anything else (main, reshard worker).
    Other,
}

impl Role {
    fn of(comm: &str) -> Role {
        if comm.starts_with("dido-reactor") {
            Role::Reactor
        } else if comm.starts_with("dido-dispatch") {
            Role::Dispatch
        } else if comm.starts_with("dido-sd") {
            Role::Sd
        } else if comm.starts_with("dido-controller") {
            Role::Controller
        } else {
            Role::Other
        }
    }
}

/// Scheduler counters of one thread or a sum of threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Time on a CPU, ns.
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, ns.
    pub wait_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub switches: u64,
}

impl SchedCounters {
    fn add(&mut self, o: SchedCounters) {
        self.run_ns += o.run_ns;
        self.wait_ns += o.wait_ns;
        self.switches += o.switches;
    }

    /// Counters accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &SchedCounters) -> SchedCounters {
        SchedCounters {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            switches: self.switches.saturating_sub(earlier.switches),
        }
    }
}

/// One reading of a process's per-thread counters.
#[derive(Debug, Clone, Default)]
pub struct ProcSample {
    by_role: HashMap<Role, SchedCounters>,
    /// Resident set, kB.
    pub rss_kb: u64,
}

impl ProcSample {
    /// Read `/proc/<pid>/task/*/{comm,schedstat,status}` and the
    /// process's `VmRSS`.
    pub fn read(pid: u32) -> io::Result<ProcSample> {
        let mut sample = ProcSample::default();
        for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            let dir = entry?.path();
            // A thread may exit between readdir and open; skip it.
            let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
                continue;
            };
            let Ok(counters) = read_thread(&dir) else {
                continue;
            };
            sample
                .by_role
                .entry(Role::of(comm.trim()))
                .or_default()
                .add(counters);
        }
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        sample.rss_kb = status_field(&status, "VmRSS:").unwrap_or(0);
        Ok(sample)
    }

    /// Counters of the threads in `role`.
    #[must_use]
    pub fn role(&self, role: Role) -> SchedCounters {
        self.by_role.get(&role).copied().unwrap_or_default()
    }

    /// Counters of every thread.
    #[must_use]
    pub fn total(&self) -> SchedCounters {
        let mut t = SchedCounters::default();
        for c in self.by_role.values() {
            t.add(*c);
        }
        t
    }
}

fn read_thread(dir: &std::path::Path) -> io::Result<SchedCounters> {
    let schedstat = std::fs::read_to_string(dir.join("schedstat"))?;
    let mut fields = schedstat.split_whitespace().map(str::parse::<u64>);
    let (Some(Ok(run_ns)), Some(Ok(wait_ns))) = (fields.next(), fields.next()) else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "schedstat"));
    };
    let status = std::fs::read_to_string(dir.join("status"))?;
    let switches = status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
        + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
    Ok(SchedCounters {
        run_ns,
        wait_ns,
        switches,
    })
}

/// First number after `key` at the start of a line of a `status` file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1").unwrap(), vec![0, 1]);
        assert_eq!(
            parse_cpu_list("0-2,8,10-11").unwrap(),
            vec![0, 1, 2, 8, 10, 11]
        );
        assert!(parse_cpu_list("x").is_err());
    }

    #[test]
    fn layout_gives_the_last_cpu_to_the_load_generator_and_refuses_one_cpu() {
        let l = CpuLayout::from_allowed(vec![0, 1, 2, 3]).unwrap();
        assert_eq!((l.server.clone(), l.loadgen), (vec![0, 1, 2], 3));
        assert_eq!(l.describe(), "server=0,1,2 loadgen=3");
        assert!(CpuLayout::from_allowed(vec![0]).is_err());
    }

    #[test]
    fn own_process_is_readable() {
        let s = ProcSample::read(std::process::id()).unwrap();
        assert!(s.rss_kb > 0);
        assert!(s.total().run_ns > 0);
        assert_eq!(s.role(Role::Dispatch), SchedCounters::default());
        assert_eq!(Role::of("dido-dispatch-0"), Role::Dispatch);
        assert_eq!(Role::of("dido-sd-1"), Role::Sd);
        assert_eq!(Role::of("dido-server"), Role::Other);
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmRSS:\t   1234 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmRSS:"), Some(1234));
        assert_eq!(status_field(s, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_field(s, "nonvoluntary_ctxt_switches:"), None);
    }
}
