//! Order statistics for the benchmark's reports.

/// Candidate percentiles for a tail report, ascending.
pub const TAIL_PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// A percentile together with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p / 100 * n` from bumping an
    // exact rank (e.g. p99.9 of 20 000) up by one.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p)]
}

/// The highest of [`TAIL_PERCENTILES`] with at least ten samples beyond
/// it, or `None` when even the median has fewer.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    TAIL_PERCENTILES.iter().rev().find_map(|&p| {
        if sorted.is_empty() {
            return None;
        }
        let beyond = sorted.len() - 1 - rank(sorted.len(), p);
        (beyond >= 10).then(|| Tail {
            percentile: p,
            value: sorted[rank(sorted.len(), p)],
            beyond,
        })
    })
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of `values` (the mean of the middle two for an even count);
/// 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Share of the total held by the costliest `fraction` of `values`
/// (at least one value); 0 for no samples.
pub fn top_share(values: &[f64], fraction: f64) -> f64 {
    let s = sorted(values);
    let total: f64 = s.iter().sum();
    if s.is_empty() || total <= 0.0 {
        return 0.0;
    }
    let k = ((s.len() as f64 * fraction).ceil() as usize).max(1);
    s[s.len() - k..].iter().sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99.9 has 1 beyond, p99 has exactly 10.
        let t = tail(&ramp(1000)).expect("p99 qualifies");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 has 9 beyond, so p90 (99 beyond) wins.
        let t = tail(&ramp(999)).expect("p90 qualifies");
        assert_eq!((t.percentile, t.beyond), (90.0, 99));
        // 100 samples: p90 has exactly 10 beyond.
        let t = tail(&ramp(100)).expect("p90 qualifies");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 20 samples: only the median has 10 beyond.
        let t = tail(&ramp(20)).expect("p50 qualifies");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        // 19 samples: nothing qualifies.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
        // 20 000 samples: p99.9 has 20 beyond.
        let t = tail(&ramp(20_000)).expect("p99.9 qualifies");
        assert_eq!((t.percentile, t.beyond), (99.9, 20));
    }

    #[test]
    fn median_and_top_share() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // Top 5 % of 1..=100 is {96..=100}: 490 of 5050.
        assert!((top_share(&ramp(100), 0.05) - 490.0 / 5050.0).abs() < 1e-12);
    }
}
