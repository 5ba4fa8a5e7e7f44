//! Summary math shared by the experiment harness.

/// Arithmetic mean of a slice; `None` when empty.
///
/// The paper's per-figure "Average" bars are arithmetic means over the
/// 11 benchmarks, so the harness uses this for every figure.
///
/// # Examples
///
/// ```
/// assert_eq!(padlock_stats::arith_mean(&[1.0, 3.0]), Some(2.0));
/// assert_eq!(padlock_stats::arith_mean(&[]), None);
/// ```
pub fn arith_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arith_mean_of_singleton_is_value() {
        assert_eq!(arith_mean(&[5.5]), Some(5.5));
    }
}
