//! Order statistics.

/// Nearest-rank percentile (`p` in 0..=1) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method) computes them, so the spreads
/// this tool prints match an external check. Needs two values or more.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    assert!(ld >= 2, "quartiles need at least two values");
    let (n, m) = (4i64, ld + 1);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (data[(j - 1) as usize] * (n - delta) as f64 + data[j as usize] * delta as f64) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, median, q3) = quartiles(values);
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
