//! Order statistics over exact samples (no histogram bucketing, so a
//! reported percentile is a measured value with all its digits).

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the "type 7" rule). `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values` (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quantile of a distribution given as bucket upper edges with
/// per-bucket counts (ascending edges; the last edge may be infinite).
/// Interpolates linearly inside the bucket that holds the rank, taking
/// the previous edge (or 0) as the bucket's lower end.
pub fn bucket_quantile(buckets: &[(f64, f64)], q: f64) -> f64 {
    let total: f64 = buckets.iter().map(|b| b.1).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total;
    let mut seen = 0.0;
    let mut lower = 0.0;
    for &(edge, count) in buckets {
        if count > 0.0 && seen + count >= target {
            if !edge.is_finite() {
                return lower;
            }
            return lower + (edge - lower) * ((target - seen) / count).clamp(0.0, 1.0);
        }
        seen += count;
        if edge.is_finite() {
            lower = edge;
        }
    }
    lower
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.25) - 2.0).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_rank_bucket() {
        // 10 samples in (0, 10], 10 in (10, 20].
        let b = [(10.0, 10.0), (20.0, 10.0), (f64::INFINITY, 0.0)];
        assert!((bucket_quantile(&b, 0.5) - 10.0).abs() < 1e-9);
        assert!((bucket_quantile(&b, 0.75) - 15.0).abs() < 1e-9);
        assert_eq!(bucket_quantile(&[], 0.5), 0.0);
    }
}
