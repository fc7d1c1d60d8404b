//! Order statistics for the benchmark's timings.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count, so a tail figure never rests on one or two outliers.

/// Percentiles a tail may be read at, lowest first.
pub const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// One percentile read from a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pick {
    /// The percentile, as a fraction (`0.99` for p99; `1.0` for the maximum).
    pub q: f64,
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

impl Pick {
    /// `p99`, `p99.9`, `max`.
    pub fn label(&self) -> String {
        if self.q >= 1.0 {
            "max".into()
        } else {
            format!("p{}", (self.q * 1000.0).round() / 10.0)
        }
    }
}

/// Nearest-rank position (1-based) of quantile `q` in `n` samples. The
/// small epsilon keeps `0.99 * 1000` from rounding up to rank 991.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Nearest-rank quantile of `sorted` (ascending). Returns `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<Pick> {
    let n = sorted.len();
    (n > 0).then(|| {
        let r = rank(n, q);
        Pick {
            q,
            value: sorted[r - 1],
            n,
            beyond: n - r,
        }
    })
}

/// The highest [`LADDER`] percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// The [`tail_percentile`] of a sorted sample; with too few samples for
/// even the median, the maximum.
pub fn tail(sorted: &[f64]) -> Option<Pick> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    match tail_percentile(n) {
        Some(q) => quantile(sorted, q),
        None => Some(Pick {
            q: 1.0,
            value: sorted[n - 1],
            n,
            beyond: 0,
        }),
    }
}

/// Median of an unsorted sample (mean of the middle pair for even counts).
/// Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Index of the element whose value is the (lower) median: the pass whose
/// breakdown is reported next to a median total.
pub fn median_index(values: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    idx[(idx.len().max(1) - 1) / 2]
}

/// Nearest-rank lower quartile of unsorted values; `0` for none.
///
/// A per-pass timing on a shared host is slowed whenever CPU steal hits
/// its pass, which can be a quarter of the passes or more in one run. The
/// lower quartile ignores up to three quarters of disturbed passes, while a
/// change to the program moves every pass and so moves the quartile too.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.25).map_or(0.0, |p| p.value)
}

/// Sorts in place and returns the slice, for chaining into [`tail`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let pick = tail(&ramp(1000)).unwrap();
        assert_eq!(
            (pick.q, pick.value, pick.n, pick.beyond),
            (0.99, 990.0, 1000, 10)
        );
        assert_eq!(pick.label(), "p99");
        // One sample fewer leaves only nine beyond p99: fall back to p90.
        let pick = tail(&ramp(999)).unwrap();
        assert_eq!((pick.q, pick.beyond), (0.9, 999 - 900));
        assert_eq!(pick.label(), "p90");
    }

    #[test]
    fn p999_is_chosen_once_the_sample_allows_it() {
        let pick = tail(&ramp(10_000)).unwrap();
        assert_eq!((pick.q, pick.value, pick.beyond), (0.999, 9990.0, 10));
        assert_eq!(pick.label(), "p99.9");
    }

    #[test]
    fn tiny_samples_report_the_median_or_the_maximum() {
        let pick = tail(&ramp(21)).unwrap();
        assert_eq!((pick.q, pick.value, pick.beyond), (0.5, 11.0, 10));
        let pick = tail(&ramp(5)).unwrap();
        assert_eq!((pick.q, pick.value, pick.beyond), (1.0, 5.0, 0));
        assert_eq!(pick.label(), "max");
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn median_and_its_index() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(
            lower_quartile(&[8.0, 1.0, 3.0, 2.0, 9.0, 4.0, 7.0, 5.0]),
            2.0
        );
        assert_eq!(lower_quartile(&[]), 0.0);
        assert_eq!(median_index(&[5.0, 1.0, 9.0]), 0);
        assert_eq!(median_index(&[5.0, 1.0, 9.0, 7.0]), 0);
        let q = quantile(&ramp(100), 0.5).unwrap();
        assert_eq!((q.value, q.beyond), (50.0, 50));
    }
}
