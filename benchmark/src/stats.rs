//! Sample statistics used by every workload: medians, the percentile rule
//! ("report a percentile only with at least ten samples beyond it"),
//! epoch-aligned window rates, open-loop due-time arithmetic, and the
//! ladder's adjacent-leg subtraction.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile before it is reported.
pub const BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether percentile `p` of `n` samples has at least [`BEYOND`] samples
/// strictly beyond its nearest-rank position.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + BEYOND
}

/// The highest whole percentile not above `want` that `n` samples support
/// under the [`BEYOND`] rule; `None` when even the median is unsupported.
pub fn supported_percentile(n: usize, want: f64) -> Option<f64> {
    let mut p = want.floor();
    while p >= 50.0 {
        if percentile_supported(n, p) {
            return Some(p);
        }
        p -= 1.0;
    }
    None
}

/// A tail latency: the value and the percentile it actually is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (≤ the one asked for).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub n: usize,
}

/// `want`-th percentile of `xs`, lowered to the highest percentile the
/// sample supports. With fewer than `2·BEYOND + 1` samples not even the
/// median qualifies and the maximum is returned as percentile 100 — the
/// caller prints `pct` and `n`, so the downgrade is visible.
pub fn tail(xs: &[f64], want: f64) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match supported_percentile(v.len(), want) {
        Some(pct) => Tail {
            pct,
            value: percentile_sorted(&v, pct),
            n: v.len(),
        },
        None => Tail {
            pct: 100.0,
            value: v.last().copied().unwrap_or(0.0),
            n: v.len(),
        },
    }
}

/// First and third quartile spread as a share of the median, with the
/// "exclusive" method Python's `statistics.quantiles(values, n=4)` uses —
/// the acceptance rule for run-to-run steadiness.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: usize| {
        // Exclusive method: position k·(n+1)/4, 1-based, linear between.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    ((q(3) - q(1)) / med).abs()
}

/// Marks taken at planning-epoch boundaries; adjacent marks delimit one
/// timed window. Between barriers a push is a mailbox enqueue and the
/// call that crosses the epoch does all the work, so only whole epochs
/// are meaningful windows.
#[derive(Debug, Clone)]
pub struct EpochWindows {
    marks: Vec<(Instant, u64)>,
}

impl EpochWindows {
    /// Start the first window now, with `done` segments already settled.
    pub fn start(done: u64) -> Self {
        Self {
            marks: vec![(Instant::now(), done)],
        }
    }

    /// Close the current window: `done` segments are settled in total.
    pub fn mark(&mut self, done: u64) {
        self.marks.push((Instant::now(), done));
    }

    /// Complete windows recorded.
    pub fn len(&self) -> usize {
        self.marks.len() - 1
    }

    /// No window has been closed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-window rates, segments per second.
    pub fn rates(&self) -> Vec<f64> {
        window_rates(
            &self
                .marks
                .iter()
                .map(|&(t, n)| (t.duration_since(self.marks[0].0).as_secs_f64(), n))
                .collect::<Vec<_>>(),
        )
    }

    /// Segments settled between the first and the last mark.
    pub fn segments(&self) -> u64 {
        self.marks[self.marks.len() - 1].1 - self.marks[0].1
    }
}

/// Rates of the windows delimited by `(seconds, cumulative segments)` marks.
pub fn window_rates(marks: &[(f64, u64)]) -> Vec<f64> {
    marks
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0))
        .collect()
}

/// Schedule of an open-loop generator sending at a fixed rate: message `i`
/// is due at `start + i / rate`, whatever happened to the messages before.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    start: Instant,
    period: Duration,
}

impl Pacer {
    /// A schedule of `rate_per_s` messages per second beginning at `start`.
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        Self {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When message `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.period.mul_f64(i as f64)
    }

    /// Age of message `i` at `acked`: time since it was *due*, not since it
    /// was sent — a stall is charged to every message that queued behind it.
    pub fn age(&self, i: u64, acked: Instant) -> Duration {
        acked.saturating_duration_since(self.due(i))
    }

    /// How late the generator started message `i` (zero when on time).
    pub fn lateness(&self, i: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }
}

/// Cost of the layer a thicker leg adds over a thinner one: the
/// difference of the two legs' wall times per unit of work, in
/// nanoseconds. Negative when noise exceeds the layer.
pub fn ladder_step_ns(thicker_s: f64, thinner_s: f64, units: u64) -> f64 {
    if units == 0 {
        return 0.0;
    }
    (thicker_s - thinner_s) * 1e9 / units as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v[..1], 99.0), 1.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly ten lie beyond.
        assert!(percentile_supported(1000, 99.0));
        assert!(!percentile_supported(999, 99.0));
        // p50 of 20 samples sits at rank 10 with ten beyond.
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        assert_eq!(supported_percentile(1024, 99.0), Some(99.0));
        // 512 samples: rank of p98 is 502, ten beyond; p99 has only five.
        assert_eq!(supported_percentile(512, 99.0), Some(98.0));
        assert_eq!(supported_percentile(128, 99.0), Some(92.0));
        assert_eq!(supported_percentile(15, 99.0), None);
    }

    #[test]
    fn tail_downgrades_visibly() {
        let xs: Vec<f64> = (1..=128).map(f64::from).collect();
        let t = tail(&xs, 99.0);
        assert_eq!((t.pct, t.value, t.n), (92.0, 118.0, 128));
        let few = tail(&[5.0, 9.0, 7.0], 99.0);
        assert_eq!((few.pct, few.value), (100.0, 9.0));
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // quantiles([10, 20, 30, 50], n=4) == [12.5, 25.0, 45.0]
        assert!((iqr_share(&[10.0, 20.0, 30.0, 50.0]) - 32.5 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn window_rates_use_epoch_marks_only() {
        // Three windows of 100 segments taking 1 s, 4 s and 2 s.
        let rates = window_rates(&[(0.0, 0), (1.0, 100), (5.0, 200), (7.0, 300)]);
        assert_eq!(rates, vec![100.0, 25.0, 50.0]);
        assert_eq!(median(&rates), 50.0);
        // A zero-length window is dropped, not divided by.
        assert_eq!(window_rates(&[(1.0, 0), (1.0, 50)]), Vec::<f64>::new());
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let t0 = Instant::now();
        let p = Pacer::new(t0, 4000.0);
        assert_eq!(p.due(0), t0);
        assert_eq!(p.due(4000), t0 + Duration::from_secs(1));
        // Message 8 is due at 2 ms. A stall delays its send to 10 ms and
        // its ack to 10.1 ms: the age is 8.1 ms, not the 0.1 ms round trip.
        let sent = t0 + Duration::from_millis(10);
        let acked = sent + Duration::from_micros(100);
        assert_eq!(p.age(8, acked), Duration::from_micros(8100));
        assert_eq!(p.lateness(8, sent), Duration::from_millis(8));
        // Sent early (generator ahead of schedule): never negative.
        assert_eq!(p.lateness(8, t0), Duration::ZERO);
    }

    #[test]
    fn ladder_step_is_the_adjacent_difference_per_unit() {
        assert_eq!(ladder_step_ns(1.5, 1.0, 1_000_000), 500.0);
        assert_eq!(ladder_step_ns(1.0, 1.5, 1_000_000), -500.0);
        assert_eq!(ladder_step_ns(1.0, 0.5, 0), 0.0);
    }
}
