//! Order statistics over small sample vectors.

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; `percentile(v, 50.0)` is the usual median.  Returns 0 for an
/// empty slice so an idle layer reports 0 rather than NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_hand_computed_cases() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        // rank = 0.25 * 3 = 0.75 → 1 + 0.75 * (2 - 1)
        assert_eq!(percentile(&v, 25.0), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        // 1..=101: the p-th percentile is p + 1.
        let ramp: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&ramp, 95.0), 96.0);
        assert_eq!(percentile(&ramp, 99.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn min_and_max_scan_the_slice() {
        assert_eq!(min(&[3.0, -1.0, 2.0]), -1.0);
        assert_eq!(max(&[3.0, -1.0, 2.0]), 3.0);
    }
}
