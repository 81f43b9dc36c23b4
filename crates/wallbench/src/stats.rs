//! Order statistics: every reported number is a median with its sample
//! count and quartiles.

/// Median, quartiles and sample count of a set of measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// A single exact value (a count or a deterministic simulated
    /// statistic): quartiles collapse onto it.
    pub fn exact(v: f64) -> Self {
        Self {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }

    /// The same distribution through a monotone map (`f` decreasing
    /// swaps the quartiles), e.g. seconds per pass → passes per second.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (f(self.q1), f(self.q3));
        Self {
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
            n: self.n,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`, so the numbers here match the ones
/// an outside harness computes from the same samples.
///
/// # Panics
/// Panics on an empty slice.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "no samples");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return Summary::exact(v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
        n,
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`, or `None` unless at least
/// ten samples lie beyond it — a tail read off fewer is not reported.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let beyond = (n as f64 * (100.0 - p) / 100.0).floor() as usize;
    if beyond < 10 {
        return None;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(v[rank.clamp(1, n) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn decreasing_map_keeps_quartiles_ordered() {
        let s = summarize(&[1.0, 2.0, 4.0]).map(|x| 1.0 / x);
        assert!(s.q1 <= s.median && s.median <= s.q3);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), None);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(989.0));
        assert_eq!(tail_percentile(&xs, 50.0), Some(499.0));
    }
}
