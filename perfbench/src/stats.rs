//! Percentiles that carry their sample count, and the tail rule.
//!
//! A median is always reported.  A tail percentile (p90, p99, …) is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it: with
//! fewer, the "p99" of a run is just its maximum, and moves with every
//! outlier.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample, with the count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile level, e.g. `99.0`.
    pub level: f64,
    /// The nearest-rank value.
    pub value: f64,
    /// How many samples it was taken over.
    pub n: usize,
}

/// Nearest rank (1-based) of percentile `level` in `n` samples.
fn rank(n: usize, level: f64) -> usize {
    ((n as f64 * level / 100.0).ceil() as usize).clamp(1, n)
}

/// The median of `samples` (nearest rank), or `None` when empty.
pub fn median(samples: &[f64]) -> Option<Pct> {
    nearest_rank(samples, 50.0)
}

/// Percentile `level` of `samples`, or `None` when it is a tail (above
/// the median) with fewer than [`MIN_BEYOND`] samples beyond its rank.
pub fn percentile(samples: &[f64], level: f64) -> Option<Pct> {
    let p = nearest_rank(samples, level)?;
    if level > 50.0 && samples.len() - rank(samples.len(), level) < MIN_BEYOND {
        return None;
    }
    Some(p)
}

fn nearest_rank(samples: &[f64], level: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct {
        level,
        value: sorted[rank(sorted.len(), level) - 1],
        n: sorted.len(),
    })
}

/// `median` as a plain value, 0 for an empty sample (used for layer
/// figures of a layer the workload never reaches).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    median(samples).map_or(0.0, |p| p.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn eighteen_samples_give_the_median_only() {
        let s = ramp(18);
        assert_eq!(median(&s).unwrap().value, 9.0);
        assert_eq!(median(&s).unwrap().n, 18);
        assert_eq!(percentile(&s, 90.0), None);
        assert_eq!(percentile(&s, 99.0), None);
    }

    #[test]
    fn one_hundred_fifty_samples_give_p90() {
        let s = ramp(150);
        let p90 = percentile(&s, 90.0).unwrap();
        assert_eq!((p90.value, p90.n), (135.0, 150));
        assert_eq!(percentile(&s, 99.0), None);
    }

    #[test]
    fn twelve_hundred_samples_give_p99() {
        let s = ramp(1200);
        let p99 = percentile(&s, 99.0).unwrap();
        assert_eq!((p99.value, p99.n), (1188.0, 1200));
        assert_eq!(percentile(&s, 99.9), None);
    }

    #[test]
    fn order_and_emptiness() {
        assert_eq!(median(&[]), None);
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap().value, 2.0);
        // Exactly ten beyond is enough.
        assert!(percentile(&ramp(100), 90.0).is_some());
        assert!(percentile(&ramp(99), 90.0).is_none());
    }
}
