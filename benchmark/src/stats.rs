//! Estimators. Every timing is the median over a phase's one-second
//! slices of that slice's value, because on this host a single stalled
//! second drags a run mean by 9 % and does not move the median slice.
//! A stall that takes out most of a phase does move it, which is the
//! point: the median hides what the host does to one second, not what
//! the program does to seven.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
///
/// # Panics
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered values (mean of the middle two for an even
/// count). `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses for
/// run-to-run spread. `None` below two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median.
#[must_use]
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values)?)
}

/// One second of a phase.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    /// Queries completed in the slice.
    pub queries: u64,
    /// Request latencies completed in the slice, ns.
    pub latencies_ns: Vec<u32>,
}

/// A phase cut into one-second slices by completion time.
#[derive(Debug, Clone)]
pub struct Slices {
    slices: Vec<Slice>,
}

/// Length of a slice.
pub const SLICE_NS: u64 = 1_000_000_000;

impl Slices {
    /// `seconds` empty slices.
    #[must_use]
    pub fn new(seconds: usize) -> Slices {
        Slices {
            slices: vec![Slice::default(); seconds],
        }
    }

    /// Record a request of `queries` queries completing `at_ns` after
    /// the phase began. Completions after the last slice are dropped:
    /// they belong to the drain, not the phase.
    pub fn record(&mut self, at_ns: u64, queries: u64, latency_ns: Option<u64>) {
        if let Some(s) = self.slices.get_mut((at_ns / SLICE_NS) as usize) {
            s.queries += queries;
            if let Some(l) = latency_ns {
                s.latencies_ns.push(l.min(u64::from(u32::MAX)) as u32);
            }
        }
    }

    /// The slices.
    #[must_use]
    pub fn as_slice(&self) -> &[Slice] {
        &self.slices
    }

    /// Median over slices of queries completed per slice.
    #[must_use]
    pub fn median_qps(&self) -> Option<f64> {
        let q: Vec<f64> = self.slices.iter().map(|s| s.queries as f64).collect();
        median(&q)
    }

    /// Median over slices of each slice's `p`-th latency percentile, µs.
    /// Slices with no sample are skipped.
    #[must_use]
    pub fn median_of_percentile_us(&self, p: f64) -> Option<f64> {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| !s.latencies_ns.is_empty())
            .map(|s| {
                let mut l = s.latencies_ns.clone();
                l.sort_unstable();
                f64::from(percentile(&l, p)) / 1e3
            })
            .collect();
        median(&per_slice)
    }

    /// `p`-th percentile over every latency of the phase, µs.
    #[must_use]
    pub fn whole_phase_percentile_us(&self, p: f64) -> Option<f64> {
        let mut all: Vec<u32> = self
            .slices
            .iter()
            .flat_map(|s| s.latencies_ns.iter().copied())
            .collect();
        if all.is_empty() {
            return None;
        }
        all.sort_unstable();
        Some(f64::from(percentile(&all, p)) / 1e3)
    }
}

/// When each request of an open loop is due, and what it is timed from.
///
/// Requests arrive in bursts: request `i` of an even stream at
/// `rate_per_s` is due at the start of the tick that `i * interval`
/// falls in, whatever happened to the requests before it. Its latency
/// runs from that instant, not from when the generator got round to
/// sending it, so a stall shows in the latency of every request that
/// came due during it.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    interval_ns: f64,
    tick_ns: u64,
    total: u64,
    next: u64,
}

impl OpenLoop {
    /// `rate_per_s` requests per second for `duration_ns`, released
    /// every `tick_ns` (0 or 1: each at its own instant).
    #[must_use]
    pub fn new(rate_per_s: f64, tick_ns: u64, duration_ns: u64) -> OpenLoop {
        OpenLoop {
            interval_ns: 1e9 / rate_per_s,
            tick_ns: tick_ns.max(1),
            total: (duration_ns as f64 * rate_per_s / 1e9) as u64,
            next: 0,
        }
    }

    /// Due time of request `i`, ns after the phase began.
    #[must_use]
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * self.interval_ns) as u64 / self.tick_ns * self.tick_ns
    }

    /// The next request if it is due at `now_ns`: its index and due
    /// time. Call until `None` to catch up after a stall.
    pub fn take_due(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        let due = self.due_ns(self.next);
        if self.next >= self.total || due > now_ns {
            return None;
        }
        self.next += 1;
        Some((self.next - 1, due))
    }

    /// Whether every request has been handed out.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.next >= self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u32], 99.0), 7);
        assert_eq!(percentile(&[1u32, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[1u32, 2, 3, 4], 51.0), 3);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(iqr_share(&v), Some(1.0));
    }

    #[test]
    fn slice_median_ignores_one_stalled_second_and_shows_seven() {
        let mut s = Slices::new(5);
        for (sec, q) in [1200u64, 1190, 500, 1210, 1205].iter().enumerate() {
            s.record(sec as u64 * SLICE_NS + 5, *q, None);
        }
        assert_eq!(s.median_qps(), Some(1200.0));
        let mean = s.as_slice().iter().map(|x| x.queries).sum::<u64>() as f64 / 5.0;
        assert!(mean < 1100.0);
        // Seven stalled seconds of ten are the program's doing, and show.
        let mut s = Slices::new(10);
        for (sec, q) in [1200u64, 500, 510, 1190, 505, 495, 500, 1210, 490, 515]
            .iter()
            .enumerate()
        {
            s.record(sec as u64 * SLICE_NS, *q, None);
        }
        assert_eq!(s.median_qps(), Some(507.5));
        assert_eq!(Slices::new(0).median_qps(), None);
    }

    #[test]
    fn slice_percentiles_are_per_slice_then_median() {
        let mut s = Slices::new(3);
        // slice 0: 1..=100 µs, slice 1: all 10 µs, slice 2: all 1000 µs.
        for l in 1..=100u64 {
            s.record(l, 1, Some(l * 1000));
            s.record(SLICE_NS + l, 1, Some(10_000));
            s.record(2 * SLICE_NS + l, 1, Some(1_000_000));
        }
        assert_eq!(s.median_of_percentile_us(50.0), Some(50.0));
        assert_eq!(s.median_of_percentile_us(99.0), Some(99.0));
        assert_eq!(s.whole_phase_percentile_us(99.9), Some(1000.0));
        // A completion after the phase is not counted anywhere.
        s.record(3 * SLICE_NS, 16, Some(1));
        assert_eq!(s.as_slice().iter().map(|x| x.queries).sum::<u64>(), 300);
    }

    #[test]
    fn open_loop_times_from_due_time_so_a_stall_delays_later_requests() {
        // 100 k requests/s: one every 10 µs, for 100 µs.
        let mut ol = OpenLoop::new(100_000.0, 0, 100_000);
        assert_eq!(ol.take_due(0), Some((0, 0)));
        assert_eq!(ol.take_due(5_000), None);
        assert_eq!(ol.take_due(10_000), Some((1, 10_000)));
        // The generator stalls until t = 70 µs: requests 2..=7 came due
        // meanwhile and are all handed out now, each with its own due
        // time.
        let mut late = Vec::new();
        while let Some((i, due)) = ol.take_due(70_000) {
            late.push((i, due));
        }
        assert_eq!(late.first(), Some(&(2, 20_000)));
        assert_eq!(late.last(), Some(&(7, 70_000)));
        // All six are answered at t = 75 µs. Timed from send they would
        // each read 5 µs; timed from due time the stall shows.
        let latencies: Vec<u64> = late.iter().map(|&(_, due)| 75_000 - due).collect();
        assert_eq!(
            latencies,
            vec![55_000, 45_000, 35_000, 25_000, 15_000, 5_000]
        );
        assert!(!ol.exhausted());
        assert_eq!(ol.take_due(1_000_000), Some((8, 80_000)));
        assert_eq!(ol.take_due(1_000_000), Some((9, 90_000)));
        assert_eq!(ol.take_due(1_000_000), None);
        assert!(ol.exhausted());
    }

    #[test]
    fn open_loop_releases_a_tick_of_requests_together() {
        // 100 k requests/s in 25 µs ticks: 2 or 3 requests per tick.
        let mut ol = OpenLoop::new(100_000.0, 25_000, 100_000);
        let mut dues = Vec::new();
        while let Some((_, due)) = ol.take_due(24_999) {
            dues.push(due);
        }
        assert_eq!(
            dues,
            vec![0, 0, 0],
            "requests 0, 10 and 20 µs belong to the first tick"
        );
        assert_eq!(ol.take_due(25_000), Some((3, 25_000)));
        let all: Vec<u64> = (0..10).map(|i| ol.due_ns(i)).collect();
        assert_eq!(
            all,
            vec![0, 0, 0, 25_000, 25_000, 50_000, 50_000, 50_000, 75_000, 75_000]
        );
    }
}
