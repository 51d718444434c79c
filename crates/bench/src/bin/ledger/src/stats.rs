//! The arithmetic behind every reported number: medians, the percentile
//! rule, quartile spread and open-loop schedule bookkeeping.

use std::time::Duration;

/// Median of `xs` (any order). `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest-rank index of the `per_mille`-th percentile among `n`
/// samples. Integer arithmetic: `0.999 * 10_000` is not 9990 in floats.
fn nearest_rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of `xs` (`per_mille` = 900 for p90), with the
/// number of samples that lie beyond it. `None` for an empty slice.
pub fn percentile(xs: &[f64], per_mille: usize) -> Option<(f64, usize)> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = nearest_rank(v.len(), per_mille);
    Some((v[rank - 1], v.len() - rank))
}

/// The highest of p50/p90/p99/p99.9 (in per-mille) that still has at least
/// ten samples beyond it among `n` samples — the only tail a report may
/// quote. `None` below 20 samples, where not even the median qualifies.
pub fn highest_reportable_percentile(n: usize) -> Option<usize> {
    [999, 990, 900, 500].into_iter().find(|&pm| n > 0 && n - nearest_rank(n, pm) >= 10)
}

/// Inter-quartile distance over the median, quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method) — the
/// spread the benchmark contract judges steadiness by. `None` below 2 samples.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        // 1-based rank k(n+1)/4, clamped to the data, linear in between.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((quartile(3) - quartile(1)) / median(&v))
}

/// When request `i` of an open-loop stream at `rate_hz` is due, measured
/// from the start of the stream.
pub fn scheduled_at(i: usize, rate_hz: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_hz)
}

/// One open-loop request's timing, all measured from the start of the
/// stream.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    /// When the request was due.
    pub scheduled: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// When the request completed.
    pub completed: Duration,
}

impl Paced {
    /// How late the generator ran: never negative, because a generator
    /// ahead of schedule waits.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.scheduled)
    }

    /// Latency as the user sees it: from when the request was *due*, so the
    /// wait a stall imposes on later requests is counted.
    pub fn latency(&self) -> Duration {
        self.completed.saturating_sub(self.scheduled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_counts_the_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 900), Some((180.0, 20)));
        assert_eq!(percentile(&xs, 500), Some((100.0, 100)));
        assert_eq!(percentile(&xs, 1000), Some((200.0, 0)));
        assert_eq!(percentile(&[], 900), None);
    }

    #[test]
    fn only_percentiles_with_ten_samples_beyond_are_reportable() {
        // 200 samples: 20 lie beyond p90, only 2 beyond p99.
        assert_eq!(highest_reportable_percentile(200), Some(900));
        assert_eq!(highest_reportable_percentile(100), Some(900));
        assert_eq!(highest_reportable_percentile(99), Some(500));
        assert_eq!(highest_reportable_percentile(1000), Some(990));
        assert_eq!(highest_reportable_percentile(10_000), Some(999));
        assert_eq!(highest_reportable_percentile(20), Some(500));
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(0), None);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&xs).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]).unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn open_loop_latency_runs_from_the_scheduled_send_time() {
        let ms = Duration::from_millis;
        assert_eq!(scheduled_at(0, 20.0), ms(0));
        assert_eq!(scheduled_at(7, 20.0), ms(350));
        // Due at 350 ms, sent 30 ms late, done at 500 ms: the user waited
        // 150 ms, not the 120 ms a send-time clock would show.
        let late = Paced { scheduled: ms(350), sent: ms(380), completed: ms(500) };
        assert_eq!(late.lateness(), ms(30));
        assert_eq!(late.latency(), ms(150));
        // A generator ahead of schedule is not "negatively late".
        let early = Paced { scheduled: ms(350), sent: ms(349), completed: ms(400) };
        assert_eq!(early.lateness(), ms(0));
    }
}
