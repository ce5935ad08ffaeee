//! Evaluation metrics used throughout the reproduction.
//!
//! The paper reports the forecaster's **Mean Absolute Error** over predicted
//! content-category histograms (Tables 5 and 6) and the knob switcher's
//! classification **accuracy** (Table 4).

/// Mean absolute error between two equal-length prediction/target sequences
/// of vectors: `mean_i mean_j |p_ij - t_ij|`.
pub fn mean_absolute_error(predictions: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "prediction/target count mismatch"
    );
    assert!(!predictions.is_empty(), "MAE of an empty set is undefined");
    let mut total = 0.0;
    let mut count = 0usize;
    for (p, t) in predictions.iter().zip(targets.iter()) {
        assert_eq!(p.len(), t.len(), "prediction/target dimension mismatch");
        for (&pi, &ti) in p.iter().zip(t.iter()) {
            total += (pi - ti).abs();
            count += 1;
        }
    }
    total / count as f64
}

/// Fraction of positions where the predicted label equals the true label.
pub fn accuracy(predicted: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "label count mismatch");
    if predicted.is_empty() {
        return 1.0;
    }
    let hits = predicted
        .iter()
        .zip(truth.iter())
        .filter(|(a, b)| a == b)
        .count();
    hits as f64 / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_of_identical_vectors_is_zero() {
        let v = vec![vec![0.1, 0.9], vec![0.5, 0.5]];
        assert_eq!(mean_absolute_error(&v, &v), 0.0);
    }

    #[test]
    fn mae_hand_computed() {
        let p = vec![vec![0.0, 1.0]];
        let t = vec![vec![0.5, 0.5]];
        assert!((mean_absolute_error(&p, &t) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[0, 1, 2, 1], &[0, 1, 1, 1]), 0.75);
        assert_eq!(accuracy(&[], &[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn mae_checks_lengths() {
        let _ = mean_absolute_error(&[vec![0.0]], &[]);
    }
}
