//! Order statistics over timing samples.

/// A percentile was asked of too few samples to be trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooFewBeyond {
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Samples required there.
    pub needed: usize,
}

/// Samples that must lie beyond a percentile before it is reported
/// without a warning (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it. `p` in `(0, 1]`.
///
/// # Panics
/// On an empty slice or `p` outside `(0, 1]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile p={p} outside (0, 1]");
    let v = sorted(samples);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// [`percentile`], refused when fewer than [`MIN_BEYOND`] samples lie
/// beyond its rank — a tail estimate resting on a handful of points.
///
/// # Errors
/// [`TooFewBeyond`] with the count found.
pub fn percentile_guarded(samples: &[f64], p: f64) -> Result<f64, TooFewBeyond> {
    let rank = (p * samples.len() as f64).ceil() as usize;
    let beyond = samples.len().saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(TooFewBeyond {
            beyond,
            needed: MIN_BEYOND,
        });
    }
    Ok(percentile(samples, p))
}

/// Median with the two middle samples averaged for even counts (matches
/// Python's `statistics.median`). 0 for no samples, so that a layer a
/// workload never enters reports zero time.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
///
/// # Panics
/// With fewer than two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let v = sorted(samples);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the acceptance check compares with a metric's bound.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(samples);
    let med = median(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn guard_refuses_thin_tails() {
        let v: Vec<f64> = (1..=110).map(f64::from).collect();
        // 110 samples: p90 has 11 beyond it, p95 only 5.
        assert_eq!(percentile_guarded(&v, 0.9), Ok(99.0));
        assert_eq!(
            percentile_guarded(&v, 0.95),
            Err(TooFewBeyond {
                beyond: 5,
                needed: MIN_BEYOND
            })
        );
        // 99 samples leave only 9 beyond p90.
        assert!(percentile_guarded(&v[..99], 0.9).is_err());
        assert!(percentile_guarded(&v[..100], 0.9).is_ok());
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-15);
    }
}
