//! Percentiles of timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two closest ranks (the "linear" rule of NumPy and R's
/// type 7). `None` for an empty sample or a non-finite value.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) || samples.iter().any(|x| !x.is_finite()) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Samples needed so that at least `tail` of them lie beyond the
/// `q`-quantile (for distinct values): the smallest `n` with
/// `n − 1 − ⌊q (n − 1)⌋ ≥ tail`.
pub fn samples_for_tail(q: f64, tail: usize) -> usize {
    let mut n = tail + 1;
    while n - 1 - ((q * (n - 1) as f64).floor() as usize) < tail {
        n += 1;
    }
    n
}
