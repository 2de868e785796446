//! Exact order statistics over every recorded sample. Latencies are kept
//! in full rather than bucketed, so a quantile is one of the measured
//! values, not a bucket edge.

/// The 0-based index of the `q`-quantile in a sorted sample of `n`
/// values, by the nearest-rank definition: the smallest value with at
/// least `q·n` samples at or below it.
fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The exact nearest-rank `q`-quantile of `values`, found by selection
/// in linear time. Reorders `values`.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    let rank = nearest_rank(values.len(), q);
    *values.select_nth_unstable(rank).1
}

/// Nanoseconds as microseconds, keeping the fraction.
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// The exact `q`-quantile of a nanosecond sample in microseconds, or 0
/// for an empty sample (a layer that did not run).
pub fn quantile_us(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        ns_to_us(quantile(values, q))
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile of a sample of measurements, interpolating linearly
/// between the two nearest order statistics.
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Median of a sample of measurements.
pub fn median_f64(values: &[f64]) -> f64 {
    quantile_f64(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: sort the whole sample and index it.
    fn sorted_oracle(values: &[u64], q: f64) -> u64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted[nearest_rank(sorted.len(), q)]
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn selection_matches_the_sorted_vector_oracle() {
        let mut state = 17u64;
        for trial in 0..200 {
            let n = 1 + (splitmix64(&mut state) % 3_000) as usize;
            // Narrow value ranges force many ties, wide ones none.
            let spread = if trial % 2 == 0 { 50 } else { u64::MAX };
            let values: Vec<u64> = (0..n).map(|_| splitmix64(&mut state) % spread).collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                let mut work = values.clone();
                assert_eq!(
                    quantile(&mut work, q),
                    sorted_oracle(&values, q),
                    "n={n} q={q} trial={trial}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_picks_measured_values() {
        let mut v = vec![40, 10, 30, 20];
        assert_eq!(quantile(&mut v, 0.5), 20);
        assert_eq!(quantile(&mut v, 0.51), 30);
        assert_eq!(quantile(&mut v, 1.0), 40);
        assert_eq!(quantile(&mut v, 0.0), 10);
        let mut one = vec![7];
        assert_eq!(quantile(&mut one, 0.99), 7);
    }

    #[test]
    fn empty_samples_and_zero_denominators_read_zero() {
        assert_eq!(quantile_us(&mut [], 0.5), 0.0);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(quantile_us(&mut [1_500], 0.5), 1.5);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile_f64(&v, 0.0), 10.0);
        assert_eq!(quantile_f64(&v, 0.25), 20.0);
        assert_eq!(quantile_f64(&v, 0.75), 40.0);
        assert_eq!(quantile_f64(&v, 1.0), 50.0);
        assert_eq!(quantile_f64(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile_f64(&[7.0], 0.9), 7.0);
    }
}
