//! Order statistics and the host calibration loop.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller times at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the fastest quarter of `values` (of the single fastest for fewer
/// than eight): how a run turns repeated timings of one thing into one
/// number.
///
/// On the shared hosts this runs on, a neighbour on the core's other
/// hardware thread slows cache-resident code by up to 2x for seconds at a
/// time, while an ALU loop stays within 2 %. That interference only ever
/// adds time, so the slow end of a run's repetitions is made of it. Over
/// three sets of ten runs of each workload, the spread (quartile distance
/// over median) of the per-run median was 6-22 % and the medians of two
/// sets differed by up to 17 %; for this figure 2-14 % and 10 %; for the
/// mean of the faster half 3-17 % and 13 %. Gating repetitions on a
/// calibration loop did no better than the faster-half mean.
pub fn fastest_quarter_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quarter = &v[..(v.len() / 4).max(1)];
    quarter.iter().sum::<f64>() / quarter.len() as f64
}

/// Nearest-rank percentile `p` (in 0..=100) of `values`. `None` when fewer
/// than ten samples lie beyond the percentile's rank: a tail figure read
/// off a handful of samples is one outlier, not a percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank + 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// [`percentile`], falling back to the largest sample when the tail is too
/// thin. Only `--quick` smoke runs are short enough to take the fallback.
pub fn percentile_or_max(values: &[f64], p: f64) -> f64 {
    percentile(values, p).unwrap_or_else(|| values.iter().copied().fold(0.0, f64::max))
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method) — the spread the driver accepts the benchmark
/// by. `None` with fewer than four samples.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v);
    (med != 0.0).then(|| (quantile(3) - quantile(1)) / med.abs())
}

/// Working set of the calibration loop: 256 K `u32` links, 1 MiB — it sits
/// in a private L2, so the loop slows when a neighbour on the core's other
/// hardware thread takes cache away. That interference is this class of
/// host's dominant noise (cache-resident pointer chases were measured
/// flipping between 4 and 8 ns a hop for seconds at a time while an ALU
/// loop stayed within 2 %), and it is exactly what slows the simulator's
/// chain walks.
const CALIB_LINKS: usize = 1 << 18;
/// Hops of one calibration: about 4 ms on a quiet host.
const CALIB_HOPS: u64 = 1_000_000;

/// A fixed integer loop with no code under test in it: a pointer chase
/// round one random cycle through [`CALIB_LINKS`] links.
pub struct Calibrator {
    next: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Self {
        // Sattolo's shuffle: one cycle through every link, from a fixed
        // xorshift stream so every run chases the same cycle.
        let mut next: Vec<u32> = (0..CALIB_LINKS as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CALIB_LINKS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Calibrator { next }
    }

    /// Millions of hops per second right now.
    pub fn mops(&self) -> f64 {
        let start = Instant::now();
        let mut p = 0u32;
        for _ in 0..CALIB_HOPS {
            p = self.next[p as usize];
        }
        std::hint::black_box(p);
        CALIB_HOPS as f64 / start.elapsed().as_secs_f64() / 1e6
    }
}

/// Share of the run's best calibration below which the host counts as
/// noisy around a repetition (reported in `noisy_reps`, nothing more: see
/// [`fastest_quarter_mean`] for what keeps the noise out of the numbers).
pub const QUIET_SHARE: f64 = 0.9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fastest_quarter_mean_keeps_the_quiet_end() {
        let v = [9.0, 1.0, 3.0, 50.0, 2.0, 8.0, 7.0, 6.0];
        assert_eq!(fastest_quarter_mean(&v), 1.5);
        assert_eq!(fastest_quarter_mean(&v[..7]), 1.0);
        assert_eq!(fastest_quarter_mean(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples has exactly ten beyond it; p91 has nine.
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 91.0), None);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v[..10], 50.0), None);
        // p99 needs a thousand samples.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&big[..999], 99.0), None);
        assert_eq!(percentile_or_max(&big[..999], 99.0), 999.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        assert_eq!(quartile_spread(&v[..3]), None);
    }

    #[test]
    fn calibration_chases_one_full_cycle() {
        let c = Calibrator::new();
        let mut p = 0u32;
        let mut hops = 0;
        loop {
            p = c.next[p as usize];
            hops += 1;
            if p == 0 {
                break;
            }
        }
        assert_eq!(hops, CALIB_LINKS);
        assert!(c.mops() > 0.0);
    }
}
