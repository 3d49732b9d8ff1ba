//! Order statistics for host-time samples.

/// Median, quartiles and sample count of a set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Second quartile.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method), so the numbers here and the acceptance rule that
/// is stated in those terms agree. One sample is its own quartiles.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Summary {
            median: v[0],
            q1: v[0],
            q3: v[0],
            n,
        };
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

/// Median of the samples.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_and_spread() {
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
        let s = summarize(&[9.0, 10.0, 11.0]);
        assert!((s.spread() - 0.2).abs() < 1e-12);
    }
}
