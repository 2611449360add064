//! Exact-sample latency statistics. The program's own `LatencyStats`
//! is a 3 %-bucket histogram; a benchmark that gates on 2 % keeps every
//! sample and sorts.

/// Fewest samples that must lie beyond a reported percentile.
const TAIL_SAMPLES: usize = 10;

/// Latency samples in nanoseconds (virtual or host, the caller knows).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile in nanoseconds, or `None` when fewer
    /// than [`TAIL_SAMPLES`] samples would lie beyond it (p99 needs
    /// 1 000 samples, p50 needs 20): a tail read off a handful of
    /// samples is noise, so it is refused rather than reported.
    pub fn percentile_ns(&mut self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p < 100.0);
        let n = self.ns.len();
        // The epsilon keeps 99.9 % of 10 000 at rank 9 990, not 9 991
        // (0.999 is not a binary fraction).
        let rank = ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).max(1);
        if n < rank + TAIL_SAMPLES {
            return None;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        Some(self.ns[rank - 1])
    }

    /// Percentile in microseconds; 0 when refused (see
    /// [`Samples::percentile_ns`]) — callers that gate on the value
    /// size their windows so it never is.
    pub fn percentile_us(&mut self, p: f64) -> f64 {
        self.percentile_ns(p).map_or(0.0, |ns| ns as f64 / 1e3)
    }

    pub fn sum_ns(&self) -> f64 {
        self.ns.iter().map(|&n| n as f64).sum()
    }

    /// Mean of the slowest `share` of the samples, in microseconds —
    /// the tail as one continuous number. A nearest-rank percentile of
    /// a deterministic cost model is the same value on every seed; an
    /// average over the tail is not, and it moves when any part of the
    /// tail does.
    pub fn tail_mean_us(&mut self, share: f64) -> f64 {
        assert!(share > 0.0 && share <= 1.0);
        let n = self.ns.len();
        let k = ((n as f64 * share).ceil() as usize).min(n);
        if k < TAIL_SAMPLES {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        self.ns[n - k..].iter().map(|&v| v as f64).sum::<f64>() / k as f64 / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        ratio(self.sum_ns() / 1e3, self.ns.len() as f64)
    }
}

/// Median of a non-empty slice (mean of the middle two for even length).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0 (a per-layer ratio whose layer did no
/// work on this workload).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Samples {
        let mut s = Samples::default();
        // Pushed in reverse so the sort matters.
        for v in (1..=n).rev() {
            s.push(v * 1_000);
        }
        s
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        assert_eq!(ramp(999).percentile_ns(99.0), None);
        assert_eq!(ramp(1_000).percentile_ns(99.0), Some(990_000));
        assert_eq!(ramp(999).percentile_us(99.0), 0.0);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(ramp(19).percentile_ns(50.0), None);
        assert_eq!(ramp(20).percentile_ns(50.0), Some(10_000));
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let mut s = ramp(10_000);
        assert_eq!(s.percentile_ns(50.0), Some(5_000_000));
        assert_eq!(s.percentile_ns(99.0), Some(9_900_000));
        assert_eq!(s.percentile_ns(99.9), Some(9_990_000));
        assert!((s.mean_us() - 5_000.5).abs() < 1e-9);
    }

    #[test]
    fn tail_mean_averages_the_slowest_share() {
        let mut s = ramp(10_000);
        // Slowest 1 %: 9 901..=10 000 µs.
        assert!((s.tail_mean_us(0.01) - 9_950.5).abs() < 1e-9);
        assert_eq!(
            ramp(900).tail_mean_us(0.01),
            0.0,
            "nine samples are no tail"
        );
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
