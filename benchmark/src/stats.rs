//! Summary statistics over latency samples.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the value is one outlier's latency, not a property of the run.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((p * n as f64 / 100.0).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// A tail percentile for a metric that must always have a value: the
/// `p`-th where the sample supports it, else the highest rank that still
/// has [`MIN_BEYOND`] samples beyond it. Returns the value and the
/// percentile it actually stands for; `None` only under eleven samples.
pub fn supported_tail(sorted: &[u64], p: f64) -> Option<(u64, f64)> {
    if let Some(v) = percentile(sorted, p) {
        return Some((v, p));
    }
    let rank = sorted.len().checked_sub(MIN_BEYOND).filter(|&r| r > 0)?;
    Some((sorted[rank - 1], 100.0 * rank as f64 / sorted.len() as f64))
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

/// Median of unsorted floats (mean of the middle two for even counts).
///
/// # Panics
/// On an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
