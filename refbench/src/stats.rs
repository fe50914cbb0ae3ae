//! Latency summaries and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a percentile must leave above it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile of `n` samples, in
/// integer per-mille arithmetic so `p = 99` of 1 000 is exactly 990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1_000)
}

/// Nearest-rank percentile of ascending `sorted` (empty ⇒ 0).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples above it.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A set of latency samples in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    us: Vec<f64>,
}

impl Latencies {
    /// Record one sample.
    pub fn push(&mut self, d: Duration) {
        self.us.push(d.as_secs_f64() * 1e6);
    }

    /// Fold in another set.
    pub fn extend(&mut self, other: Latencies) {
        self.us.extend(other.us);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// Summarise (sorts a copy).
    pub fn summary(&self) -> Summary {
        let mut sorted = self.us.clone();
        sorted.sort_by(f64::total_cmp);
        let tail = supported_tail(sorted.len()).map(|p| (p, percentile(&sorted, p)));
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            mean: if sorted.is_empty() {
                0.0
            } else {
                sorted.iter().sum::<f64>() / sorted.len() as f64
            },
            tail,
        }
    }
}

/// Median, p99 and the highest supported tail of a sample set, in µs.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (nearest rank; see `tail` for whether the count
    /// supports it).
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// [`MIN_BEYOND`] samples above it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// One-line rendering for the report.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p}={v:.1}"),
            None => "no supported tail".to_string(),
        };
        format!(
            "n={} p50={:.1} p99={:.1} ({tail}, >= {MIN_BEYOND} beyond)",
            self.n, self.p50, self.p99
        )
    }
}

/// Median of `xs` (0 when empty; mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` of an f64 is its shortest round-trip form: every digit.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(supported_tail(9), None);
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        for n in [100, 1_000, 10_000, 54_321] {
            let p = supported_tail(n).expect("large sample");
            assert!(beyond(n, p) >= MIN_BEYOND);
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 100.0), 1_000.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let mut l = Latencies::default();
        for us in (1..=1_000).rev() {
            l.push(Duration::from_micros(us));
        }
        let s = l.summary();
        let (p, v) = s.tail.expect("1 000 samples support p99");
        assert_eq!(p, 99.0);
        assert!((v - 990.0).abs() < 1e-6);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.125,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
    }
}
