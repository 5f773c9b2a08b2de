//! Percentiles over raw samples.

/// Median and the highest percentile the sample supports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// The value at quantile `q` (nearest rank) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile(&samples, 0.5)
}

/// The mean of what is left after dropping the lowest and the highest
/// quarter of the values (each rounded down): as steady as a mean when no
/// value is off, and blind to up to a quarter of them being off on one side.
pub fn interquartile_mean(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    values.sort_by(f64::total_cmp);
    let drop = values.len() / 4;
    let kept = &values[drop..values.len() - drop];
    kept.iter().sum::<f64>() / kept.len() as f64
}

pub fn summarize(mut samples: Vec<f64>) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    samples.sort_by(f64::total_cmp);
    Summary {
        p50: quantile(&samples, 0.5),
        p90: quantile(&samples, 0.9),
        p99: quantile(&samples, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(vec![5.0]), 5.0);
        assert_eq!(interquartile_mean(vec![1.0, 2.0, 6.0]), 3.0);
        let v = vec![100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(v), 3.5);
    }
}
