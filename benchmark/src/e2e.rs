//! The front-door run of one workload: server lifetimes, phases, and
//! the end-to-end and group-A layer metrics they yield.

use crate::loadgen::{ClosedLoop, Cursor, LoadGen, Stop};
use crate::metrics::{put, Values};
use crate::server::ServerProc;
use crate::spec::{Pools, Workload, GROUP_QUERIES};
use crate::stats::{median, percentile, Slices};
use crate::sys::{CpuLayout, ProcSample, Role, SchedCounters};
use std::path::Path;
use std::time::{Duration, Instant};

/// Connections of the `sat` and `paced` phases.
pub const CONNS: usize = 2;
/// Request groups kept outstanding per connection in closed loops:
/// 2 x 128 x 16 = 4096 queries in flight. The issue's 2 x 32 x 16 = 1024
/// left the server asleep 9-12 % of `sat` (NOISE.md).
pub const WINDOW: usize = 128;
/// The `paced` phase releases its requests in bursts this far apart,
/// about the server's own 200 us batching window. Evenly spaced single
/// frames never let the server's one CPU sleep and cost it three times
/// the CPU per query, which measures the hypervisor's wake-up path.
pub const PACED_TICK: Duration = Duration::from_micros(250);
/// Above this share of its CPU in `sat`, the load generator and not the
/// server was the limit.
pub const LOADGEN_BOUND_SHARE: f64 = 0.8;

/// How long each phase runs and how often set-up is repeated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhasePlan {
    /// Closed-loop saturation, seconds (= slices).
    pub sat_s: u64,
    /// Open loop at the workload's fixed rate, seconds.
    pub paced_s: u64,
    /// One single-query request outstanding, seconds.
    pub rtt_s: u64,
    /// Server lifetimes set up; `setup_s` is their median and the last
    /// one is measured.
    pub setups: usize,
}

impl PhasePlan {
    /// Smoke test: 2 s phases, results not comparable with anything.
    pub const QUICK: PhasePlan = PhasePlan {
        sat_s: 2,
        paced_s: 2,
        rtt_s: 2,
        setups: 1,
    };

    /// Split `seconds` of measuring in the issue's 14 : 12 : 4
    /// proportions, shortening `rtt` first, then `paced`, and keeping
    /// `sat` at ten slices or more whenever `seconds` allows.
    #[must_use]
    pub fn for_seconds(seconds: u64, setups: usize) -> PhasePlan {
        let seconds = seconds.max(3);
        let rtt_s = (seconds * 4 / 30).max(1);
        let sat_s = (seconds * 14 / 30).max(10).min(seconds - rtt_s - 1);
        PhasePlan {
            sat_s,
            paced_s: seconds - sat_s - rtt_s,
            rtt_s,
            setups,
        }
    }
}

/// What one workload's front-door run produced.
#[derive(Debug)]
pub struct E2eOutcome {
    /// End-to-end and group-A layer metrics.
    pub values: Values,
    /// Queries sent in the timed phases.
    pub attempted: u64,
    /// Of those, refused, timed out, short or wrong.
    pub failed: u64,
    /// Whether the load generator was the limit in `sat`.
    pub loadgen_bound: bool,
}

impl E2eOutcome {
    /// No failed query and a server-bound `sat`.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.loadgen_bound
    }
}

/// A phase's wall time and the scheduler counters that moved during it.
struct Window {
    wall_ns: u64,
    server: ProcSample,
    server_before: ProcSample,
}

impl Window {
    fn role(&self, role: Role) -> SchedCounters {
        self.server.role(role).since(&self.server_before.role(role))
    }

    fn server_total(&self) -> SchedCounters {
        self.server.total().since(&self.server_before.total())
    }
}

/// Run `body` between two readings of the server's counters.
fn observed<T>(
    server: &ServerProc,
    body: impl FnOnce() -> Result<T, String>,
) -> Result<(T, Window), String> {
    let read = || {
        let pid = server.pid();
        ProcSample::read(pid).map_err(|e| format!("/proc/{pid}: {e}"))
    };
    let server_before = read()?;
    let started = Instant::now();
    let out = body()?;
    let wall_ns = started.elapsed().as_nanos() as u64;
    Ok((
        out,
        Window {
            wall_ns,
            server: read()?,
            server_before,
        },
    ))
}

/// Per-slice values of every phase, one line per slice: what the
/// medians were taken over, for whoever has to explain an odd run.
fn write_slices(path: &Path, phases: &[(&str, &Slices)]) -> std::io::Result<()> {
    let mut out = String::from("phase slice queries p50_us p99_us\n");
    for (name, slices) in phases {
        for (i, s) in slices.as_slice().iter().enumerate() {
            let mut l = s.latencies_ns.clone();
            l.sort_unstable();
            let pct = |p| {
                l.first()
                    .map_or(0.0, |_| f64::from(percentile(&l, p)) / 1e3)
            };
            out.push_str(&format!(
                "{name} {i} {} {:.1} {:.1}\n",
                s.queries,
                pct(50.0),
                pct(99.0)
            ));
        }
    }
    std::fs::write(path, out)
}

/// One server lifetime up to the end of warm-up.
fn set_up<'w>(
    w: &'w Workload,
    pools: &Pools,
    server_bin: &Path,
    layout: &CpuLayout,
    log_dir: &Path,
) -> Result<(ServerProc, LoadGen<'w>, Cursor, f64), String> {
    let started = Instant::now();
    let mut server = ServerProc::spawn(server_bin, w.proto, layout, log_dir)?;
    let mut lg = LoadGen::connect(w, server.addr, CONNS)?;
    let closed = |groups| ClosedLoop {
        conns: CONNS,
        window: WINDOW,
        stop: Stop::Groups(groups),
        compare_all: false,
    };
    let preload = lg.closed_loop(
        &pools.preload,
        &mut Cursor::default(),
        closed(pools.preload.groups() as u64),
        None,
    )?;
    let mut cursor = Cursor::default();
    let warm = lg.closed_loop(
        &pools.main,
        &mut cursor,
        closed(w.warmup_queries / GROUP_QUERIES as u64),
        None,
    )?;
    server.check_alive()?;
    let failed = preload.failed + warm.failed;
    if failed > 0 {
        return Err(format!(
            "{failed} queries failed during set-up; first: {}",
            lg.first_failure().unwrap_or("?")
        ));
    }
    Ok((server, lg, cursor, started.elapsed().as_secs_f64()))
}

/// Run `w` through the front door of a freshly spawned `dido-server`.
pub fn run(
    w: &Workload,
    seed: u64,
    plan: PhasePlan,
    server_bin: &Path,
    layout: &CpuLayout,
    log_dir: &Path,
) -> Result<E2eOutcome, String> {
    let pools = Pools::build(w, seed);
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..plan.setups.max(1) {
        // The previous lifetime is killed and reaped before the next is
        // spawned, so two servers never share the server CPUs.
        drop(live.take());
        let (server, lg, cursor, secs) = set_up(w, &pools, server_bin, layout, log_dir)?;
        setup_s.push(secs);
        live = Some((server, lg, cursor));
    }
    let (mut server, mut lg, mut cursor) = live.expect("at least one set-up");

    let mut sat_slices = Slices::new(plan.sat_s as usize);
    let (sat, sat_win) = observed(&server, || {
        lg.closed_loop(
            &pools.main,
            &mut cursor,
            ClosedLoop {
                conns: CONNS,
                window: WINDOW,
                stop: Stop::After(Duration::from_secs(plan.sat_s)),
                compare_all: false,
            },
            Some(&mut sat_slices),
        )
    })?;
    let rss_kb = sat_win.server.rss_kb;

    let mut paced_slices = Slices::new(plan.paced_s as usize);
    let mut lateness = Vec::new();
    let (paced, paced_win) = observed(&server, || {
        lg.open_loop(
            &pools.main,
            &mut cursor,
            w.paced_qps,
            PACED_TICK,
            Duration::from_secs(plan.paced_s),
            &mut paced_slices,
            &mut lateness,
        )
    })?;

    let mut rtt_slices = Slices::new(plan.rtt_s as usize);
    let (rtt, rtt_win) = observed(&server, || {
        lg.closed_loop(
            &pools.single,
            &mut Cursor::default(),
            ClosedLoop {
                conns: 1,
                window: 1,
                stop: Stop::After(Duration::from_secs(plan.rtt_s)),
                compare_all: true,
            },
            Some(&mut rtt_slices),
        )
    })?;
    server.check_alive()?;
    if let Some(note) = lg.first_failure() {
        eprintln!("benchmark: {}: first failed query: {note}", w.name);
    }
    drop(lg);
    drop(server);
    write_slices(
        &log_dir.join("slices.txt"),
        &[
            ("sat", &sat_slices),
            ("paced", &paced_slices),
            ("rtt", &rtt_slices),
        ],
    )
    .map_err(|e| format!("slices.txt: {e}"))?;

    let mut v = Values::new();
    let need = |x: Option<f64>, what: &str| x.ok_or_else(|| format!("no samples for {what}"));
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;

    put(&mut v, "setup_s", need(median(&setup_s), "setup_s")?);
    put(
        &mut v,
        "loadgen.throughput_qps",
        need(sat_slices.median_qps(), "loadgen.throughput_qps")?,
    );
    put(
        &mut v,
        "loadgen.latency_p50_us",
        need(
            paced_slices.median_of_percentile_us(50.0),
            "loadgen.latency_p50_us",
        )?,
    );
    put(
        &mut v,
        "loadgen.latency_p99_us",
        need(
            paced_slices.median_of_percentile_us(99.0),
            "loadgen.latency_p99_us",
        )?,
    );
    put(
        &mut v,
        "loadgen.rtt_p50_us",
        need(
            rtt_slices.median_of_percentile_us(50.0),
            "loadgen.rtt_p50_us",
        )?,
    );
    put(
        &mut v,
        "loadgen.server_cpu_us_per_query",
        per(paced_win.server_total().run_ns, paced.answered) / 1e3,
    );
    put(&mut v, "server_rss_mb", rss_kb as f64 / 1024.0);
    let both = sat.plus(&paced);
    put(&mut v, "hit_ratio", per(both.hits, both.gets));

    // Group A: the instrument's own health.
    let loadgen_share = per(sat.busy_ns, sat_win.wall_ns);
    put(&mut v, "loadgen.cpu_share", loadgen_share);
    lateness.sort_unstable();
    put(
        &mut v,
        "loadgen.lateness_p99_us",
        f64::from(percentile(&lateness, 99.0)) / 1e3,
    );
    let in_phase: u64 = paced_slices.as_slice().iter().map(|s| s.queries).sum();
    put(
        &mut v,
        "loadgen.paced_rate_achieved_ratio",
        in_phase as f64 / (w.paced_qps * plan.paced_s) as f64,
    );
    put(
        &mut v,
        "loadgen.request_bytes_per_query",
        per(sat.request_bytes, sat.attempted),
    );
    put(
        &mut v,
        "loadgen.reply_bytes_per_query",
        per(sat.reply_bytes, sat.answered),
    );
    let sat_qps: Vec<f64> = sat_slices
        .as_slice()
        .iter()
        .map(|s| s.queries as f64)
        .collect();
    put(
        &mut v,
        "loadgen.throughput_mean_qps",
        sat_qps.iter().sum::<f64>() / sat_qps.len() as f64,
    );
    put(
        &mut v,
        "loadgen.throughput_min_slice_qps",
        sat_qps.iter().copied().fold(f64::INFINITY, f64::min),
    );
    put(
        &mut v,
        "loadgen.slo_miss_share",
        per(paced.slo_misses, paced.requests),
    );
    put(
        &mut v,
        "loadgen.latency_p999_us",
        need(
            paced_slices.whole_phase_percentile_us(99.9),
            "latency_p999_us",
        )?,
    );

    // Group A: server threads by name.
    for (role, prefix) in [
        (Role::Reactor, "net.reactor"),
        (Role::Dispatch, "net.dispatch"),
        (Role::Sd, "net.sd"),
    ] {
        let c = sat_win.role(role);
        put(
            &mut v,
            &format!("{prefix}.cpu_ns_per_query"),
            per(c.run_ns, sat.answered),
        );
        put(
            &mut v,
            &format!("{prefix}.runq_wait_ns_per_query"),
            per(c.wait_ns, sat.answered),
        );
    }
    put(
        &mut v,
        "core.controller.cpu_ns_per_query",
        per(sat_win.role(Role::Controller).run_ns, sat.answered),
    );
    let sat_total = sat_win.server_total();
    put(
        &mut v,
        "server.ctx_switches_per_kquery",
        per(sat_total.switches, sat.answered) * 1e3,
    );
    put(
        &mut v,
        "server.cpu_share_sat",
        sat_total.run_ns as f64 / (sat_win.wall_ns as f64 * layout.server.len() as f64),
    );
    let rtt_total = rtt_win.server_total();
    put(
        &mut v,
        "server.rtt_cpu_us_per_query",
        per(rtt_total.run_ns, rtt.answered) / 1e3,
    );
    put(
        &mut v,
        "server.rtt_ctx_switches_per_query",
        per(rtt_total.switches, rtt.answered),
    );

    let all = both.plus(&rtt);
    Ok(E2eOutcome {
        values: v,
        attempted: all.attempted,
        failed: all.failed,
        loadgen_bound: loadgen_share > LOADGEN_BOUND_SHARE,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_keeps_sat_at_ten_slices_and_shortens_rtt_first() {
        assert_eq!(
            PhasePlan::for_seconds(30, 3),
            PhasePlan {
                sat_s: 14,
                paced_s: 12,
                rtt_s: 4,
                setups: 3
            }
        );
        assert_eq!(
            PhasePlan::for_seconds(20, 3),
            PhasePlan {
                sat_s: 10,
                paced_s: 8,
                rtt_s: 2,
                setups: 3
            }
        );
        for s in 3..=60 {
            let p = PhasePlan::for_seconds(s, 1);
            assert_eq!(p.sat_s + p.paced_s + p.rtt_s, s);
            assert!(p.sat_s >= 1 && p.paced_s >= 1 && p.rtt_s >= 1, "{p:?}");
            assert!(s < 14 || p.sat_s >= 10, "{p:?}");
        }
    }
}
