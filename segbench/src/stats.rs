//! Sample statistics: medians, nearest-rank percentiles and the
//! "highest percentile with at least ten samples beyond it" rule every
//! reported tail follows.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sorted copy of a sample.
///
/// # Panics
/// Panics on a non-finite value: a NaN would sort arbitrarily and poison
/// every statistic taken from the sample.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(xs.iter().all(|x| x.is_finite()), "non-finite sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(p: f64, n: usize) -> usize {
    // The tolerance keeps 99.9% of 10 000 at rank 9 990, not 9 991.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A tail statistic: the percentile it was taken at, its value, and how
/// many samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile (0–100).
    pub pct: f64,
    /// Nearest-rank value at `pct`.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] samples beyond its rank; `None` when even the median has
/// fewer (a sample of fewer than 20).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        if n == 0 {
            return None;
        }
        let k = rank(pct, n);
        (n - k >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: v[k - 1],
            beyond: n - k,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("1000 samples reach p99");
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));

        // 999 samples: p99 leaves only 9 beyond, so p95 is the tail.
        let t = tail(&xs[..999]).expect("999 samples reach p95");
        assert_eq!(t.pct, 95.0);
        assert!(t.beyond >= TAIL_BEYOND);

        // 10 000 samples reach p99.9.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).expect("reaches p99.9").pct, 99.9);
    }

    #[test]
    fn tail_needs_twenty_samples() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs[..19]), None);
        let t = tail(&xs).expect("20 samples reach the median");
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn every_reported_tail_has_ten_beyond() {
        for n in 0..2500 {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            if let Some(t) = tail(&xs) {
                let above = xs.iter().filter(|&&x| x > t.value).count();
                assert_eq!(above, t.beyond);
                assert!(above >= TAIL_BEYOND, "n={n}");
            }
        }
    }
}
