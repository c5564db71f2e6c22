//! Order statistics over latency samples.

/// Percentiles the report may quote, highest first, in permille.
const PERCENTILES: [u32; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_SAMPLES: u64 = 10;

/// The highest percentile (in permille) with at least ten samples beyond
/// it, or `None` when even the median lacks them (fewer than 20 samples).
pub fn tail_percentile(samples: usize) -> Option<u32> {
    let n = samples as u64;
    PERCENTILES
        .into_iter()
        .find(|&p| n * u64::from(1000 - p) >= TAIL_SAMPLES * 1000)
}

/// Whether `samples` values support the percentile `permille`.
pub fn supports(samples: usize, permille: u32) -> bool {
    tail_percentile(samples).is_some_and(|p| p >= permille)
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// the closest ranks. `values` need not be sorted; NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean of `values` without the lowest and the highest tenth of them
/// (rounded up, but never all of them); NaN for an empty slice.
///
/// When the machine flips between a fast and a slow state, the median of
/// a run's samples jumps from one state's value to the other's as the
/// slow share crosses one half. This mean moves in proportion to that
/// share, and the trimming keeps a rare stall from dominating it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len().div_ceil(10).min((sorted.len() - 1) / 2);
    mean(&sorted[cut..sorted.len() - cut])
}

/// Renders a permille percentile as its conventional label (`p99`, `p99.9`).
pub fn label(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(99), Some(500));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(999), Some(900));
        assert_eq!(tail_percentile(1_000), Some(990));
        assert_eq!(tail_percentile(9_999), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        assert!(supports(1_000, 990));
        assert!(!supports(999, 990));
        assert!(supports(150, 500));
        assert_eq!(label(990), "p99");
        assert_eq!(label(999), "p99.9");
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        let ranks: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((quantile(&ranks, 0.9) - 91.0).abs() < 1e-9);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut v: Vec<f64> = (1..=19).map(f64::from).collect();
        v.push(1_000.0);
        // A tenth of 20 is 2 from each end: 3..=18 remain.
        assert_eq!(trimmed_mean(&v), 10.5);
        // A tenth of 9 rounds up to 1 from each end.
        assert_eq!(
            trimmed_mean(&[9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
            5.0
        );
        assert_eq!(trimmed_mean(&[3.0, 5.0]), 4.0);
        assert_eq!(trimmed_mean(&[7.0]), 7.0);
        assert!(trimmed_mean(&[]).is_nan());
    }
}
