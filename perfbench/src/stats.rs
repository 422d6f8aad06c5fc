//! Order statistics over timing samples.

/// The median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let sorted = sorted(xs);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The 90th percentile (nearest rank), reported only when at least ten
/// samples lie beyond it — that is, with 100 samples or more; 0 otherwise.
pub fn p90(xs: &[f64]) -> f64 {
    if xs.len() < 100 {
        return 0.0;
    }
    let sorted = sorted(xs);
    let rank = (xs.len() * 9).div_ceil(10);
    sorted[rank - 1]
}

/// The arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `n=…, p25/p50/p75=…` for a note on standard error.
pub fn describe(xs: &[f64]) -> String {
    if xs.is_empty() {
        return "n=0".into();
    }
    let sorted = sorted(xs);
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    format!(
        "n={}, p25/p50/p75 = {:.6}/{:.6}/{:.6}",
        xs.len(),
        at(0.25),
        median(xs),
        at(0.75)
    )
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&xs), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&xs), 90.0);
    }
}
