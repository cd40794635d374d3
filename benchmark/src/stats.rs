//! Order statistics used by every number the benchmark prints.
//!
//! Timings are reported as a pooled median over every sample of a run
//! (never a median of lap medians) plus the highest percentile that still
//! has ten samples beyond it.

/// The percentiles a tail may be reported at, lowest first, in hundredths
/// of a percent so that ranks are exact integer arithmetic.
const TAIL_LADDER: [u64; 7] = [5000, 7500, 9000, 9500, 9900, 9990, 9999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sort a sample set in place (timings are finite, so the order is total).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// 1-based nearest rank of a percentile, given in hundredths of a percent,
/// among `n` samples.
fn rank(n: usize, pct_hundredths: u64) -> usize {
    ((n as u64 * pct_hundredths).div_ceil(10_000) as usize).clamp(1, n)
}

/// Median of an ascending slice, the mean of the middle pair when `n` is
/// even (what `statistics.median` gives, so receipts agree with the
/// driver's arithmetic).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unsorted sample set.
pub fn median_of(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    median(&v)
}

/// The highest ladder percentile (in hundredths of a percent) with at
/// least [`TAIL_MIN_BEYOND`] samples strictly beyond its nearest rank; the
/// median when the set is too small for any.
fn tail_hundredths(n: usize) -> u64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|p| n >= TAIL_MIN_BEYOND && n - rank(n, *p) >= TAIL_MIN_BEYOND)
        .fold(TAIL_LADDER[0], u64::max)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method), so the spreads printed here are the
/// spreads the driver computes. Needs two samples; `(v, v)` for one.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Summary of one sample set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub mean: f64,
    /// Value at [`Summary::tail_pct`].
    pub tail: f64,
    pub tail_pct: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        sort(&mut v);
        let n = v.len();
        if n == 0 {
            return Summary::default();
        }
        let (p25, p75) = quartiles(&v);
        let tail = tail_hundredths(n);
        Summary {
            n,
            p25,
            p50: median(&v),
            p75,
            mean: v.iter().sum::<f64>() / n as f64,
            tail: v[rank(n, tail) - 1],
            tail_pct: tail as f64 / 100.0,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.p50.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // Below 20 samples even the median has fewer than ten beyond it.
        assert_eq!(tail_hundredths(0), 5000);
        assert_eq!(tail_hundredths(19), 5000);
        assert_eq!(tail_hundredths(20), 5000);
        // p75 of 40 is rank 30: exactly ten beyond.
        assert_eq!(tail_hundredths(39), 5000);
        assert_eq!(tail_hundredths(40), 7500);
        // The slowest workload's 76 ops: p75 (19 beyond), not p90 (7 beyond).
        assert_eq!(tail_hundredths(76), 7500);
        assert_eq!(tail_hundredths(100), 9000);
        assert_eq!(tail_hundredths(200), 9500);
        assert_eq!(tail_hundredths(999), 9500);
        assert_eq!(tail_hundredths(1000), 9900);
        assert_eq!(tail_hundredths(10_000), 9990);
        assert_eq!(tail_hundredths(100_000), 9999);
        for n in [40usize, 76, 100, 1000, 6875] {
            let p = tail_hundredths(n);
            assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_value_is_nearest_rank() {
        let v = ramp(100);
        let s = Summary::of(&v);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail, 90.0);
        assert_eq!(v.iter().filter(|x| **x > s.tail).count(), 10);
    }

    #[test]
    fn pooled_median_is_not_a_median_of_lap_medians() {
        // Three laps whose medians are 1, 1 and 100: the median of lap
        // medians says 1; pooled over every op it is 2.
        let laps = [
            vec![1.0, 1.0, 50.0],
            vec![1.0, 1.0, 2.0],
            vec![3.0, 100.0, 100.0],
        ];
        let lap_medians: Vec<f64> = laps.iter().map(|l| median_of(l)).collect();
        assert_eq!(median_of(&lap_medians), 1.0);
        let pooled: Vec<f64> = laps.concat();
        assert_eq!(median_of(&pooled), 2.0);
        // Even counts take the mean of the middle pair.
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_of(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10));
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&ramp(5));
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&ramp(2));
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        let s = Summary::of(&ramp(10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
