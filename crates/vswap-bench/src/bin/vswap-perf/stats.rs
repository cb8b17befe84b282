//! Order statistics over repeated measurements.

/// The spread of one metric over the timed reps of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// Number of samples.
    pub k: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let [q1, median, q3] = quartiles(&sorted);
        Some(Summary { median, q1, q3, min, max, k: sorted.len() })
    }

    /// A single exact value (a deterministic count repeats on every rep).
    pub fn exact(value: f64) -> Summary {
        Summary { median: value, q1: value, q3: value, min: value, max: value, k: 1 }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of sorted data by the "exclusive" method, the default of
/// Python's `statistics.quantiles(data, n=4)`, so spreads computed here
/// and by external tooling agree. The middle one is the median.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// The `q`-quantile of sorted data by nearest rank, or `None` unless at
/// least ten samples lie beyond it: a tail percentile backed by fewer
/// samples is noise, so it is omitted rather than reported.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.k), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.k), (4.0, 4.0, 4.0, 1));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&sorted, 0.99), Some(990.0), "exactly ten lie beyond");
        assert_eq!(tail_percentile(&sorted[..999], 0.99), None, "nine beyond is too few");
        assert_eq!(tail_percentile(&sorted[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }
}
