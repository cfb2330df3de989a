//! Classification metrics (precision, recall, F1) used throughout the
//! evaluation, mirroring the paper's use of F1-score under cross-validation.

/// A confusion matrix over a test split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Positive examples predicted positive.
    pub true_positives: usize,
    /// Negative examples predicted positive.
    pub false_positives: usize,
    /// Positive examples predicted negative.
    pub false_negatives: usize,
    /// Negative examples predicted negative.
    pub true_negatives: usize,
}

impl Confusion {
    /// Build a confusion matrix from predictions over positive and negative
    /// test examples.
    pub fn from_predictions(positive_predictions: &[bool], negative_predictions: &[bool]) -> Self {
        let true_positives = positive_predictions.iter().filter(|&&p| p).count();
        let false_negatives = positive_predictions.len() - true_positives;
        let false_positives = negative_predictions.iter().filter(|&&p| p).count();
        let true_negatives = negative_predictions.len() - false_positives;
        Confusion {
            true_positives,
            false_positives,
            false_negatives,
            true_negatives,
        }
    }

    /// Precision (1.0 when nothing was predicted positive).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            return 1.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// Recall (0.0 when there are no positives).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            return 0.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// F1-score: harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Mean of a slice of floats (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_give_f1_of_one() {
        let c = Confusion::from_predictions(&[true, true], &[false, false, false]);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert_eq!(c.f1(), 1.0);
    }

    #[test]
    fn all_negative_predictions_give_zero_recall() {
        let c = Confusion::from_predictions(&[false, false], &[false]);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.precision(), 1.0, "vacuous precision");
    }

    #[test]
    fn mixed_predictions_compute_expected_f1() {
        // 3 TP, 1 FN, 1 FP: precision 0.75, recall 0.75, f1 0.75.
        let c = Confusion::from_predictions(&[true, true, true, false], &[true, false, false]);
        assert!((c.precision() - 0.75).abs() < 1e-12);
        assert!((c.recall() - 0.75).abs() < 1e-12);
        assert!((c.f1() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mean_handles_empty_input() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
