//! Run statistics: mean, standard deviation, coefficient of variation and
//! percent error.
//!
//! The paper's accuracy studies (Table 3, Figure 6) report simulated-time
//! *error* relative to a LaxBarrier baseline and the run-to-run *coefficient
//! of variation* over ten runs; [`RunStats`] computes both.

use std::fmt;

/// Accumulates samples of a scalar quantity (for example, simulated run-time
/// over repeated runs) and reports mean, standard deviation, coefficient of
/// variation and percent error against a baseline.
///
/// Uses Welford's online algorithm, so it is numerically stable for long
/// streams.
///
/// # Examples
///
/// ```
/// use graphite_base::RunStats;
/// let mut s = RunStats::new();
/// for x in [10.0, 12.0, 11.0, 13.0] {
///     s.push(x);
/// }
/// assert_eq!(s.len(), 4);
/// assert!((s.mean() - 11.5).abs() < 1e-12);
/// assert!(s.cov_percent() > 0.0);
/// assert!((s.error_percent(11.5)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample, or NaN when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample, or NaN when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Sample standard deviation (n-1 denominator), or 0 with fewer than two
    /// samples.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Coefficient of variation as a percentage: `100 * std_dev / mean`
    /// (Table 3's CoV metric). Returns 0 for an empty or zero-mean stream.
    pub fn cov_percent(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            100.0 * self.std_dev() / m
        }
    }

    /// Percent deviation of the mean from `baseline` (Table 3's error
    /// metric): `100 * |mean - baseline| / baseline`.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is zero.
    pub fn error_percent(&self, baseline: f64) -> f64 {
        assert!(baseline != 0.0, "error baseline must be non-zero");
        100.0 * (self.mean() - baseline).abs() / baseline
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.mean = mean;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} cov={:.2}%",
            self.n,
            self.mean(),
            self.std_dev(),
            self.cov_percent()
        )
    }
}

impl Extend<f64> for RunStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunStats::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runstats_known_values() {
        let s: RunStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample std dev of this classic set is ~2.138.
        assert!((s.std_dev() - 2.1380899).abs() < 1e-6);
        assert!((s.cov_percent() - 42.7617989).abs() < 1e-5);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn runstats_error_percent() {
        let s: RunStats = [110.0, 110.0].into_iter().collect();
        assert!((s.error_percent(100.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn runstats_error_zero_baseline_panics() {
        RunStats::new().error_percent(0.0);
    }

    #[test]
    fn runstats_merge_matches_single_stream() {
        let mut a: RunStats = [1.0, 2.0, 3.0].into_iter().collect();
        let b: RunStats = [4.0, 5.0].into_iter().collect();
        a.merge(&b);
        let whole: RunStats = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.std_dev() - whole.std_dev()).abs() < 1e-12);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn runstats_empty_behaviour() {
        let s = RunStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.cov_percent(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn runstats_merge_into_empty() {
        let mut a = RunStats::new();
        let b: RunStats = [4.0, 6.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        let mut c: RunStats = [1.0].into_iter().collect();
        c.merge(&RunStats::new());
        assert_eq!(c.len(), 1);
    }
}
