//! Softmax + cross-entropy loss head.
//!
//! Computed jointly for numerical stability: the gradient of the combined
//! loss with respect to logits is simply `softmax(z) - onehot(label)`.

use adr_tensor::Tensor4;

/// Loss value and logits gradient for one batch.
#[derive(Clone, Debug)]
pub struct LossOutput {
    /// Mean cross-entropy over the batch.
    pub loss: f32,
    /// Gradient of the mean loss w.r.t. the logits, same shape as the input.
    pub grad: Tensor4,
    /// Per-example predicted class (argmax of logits).
    pub predictions: Vec<usize>,
}

/// Computes row-wise softmax of `(n, 1, 1, classes)` logits.
///
/// # Panics
/// Panics unless the logits are flattened to `(n, 1, 1, classes)`.
pub fn softmax(logits: &Tensor4) -> Tensor4 {
    let (n, h, w, c) = logits.shape();
    assert_eq!((h, w), (1, 1), "softmax expects flattened (n,1,1,classes) logits");
    let mut out = logits.clone();
    for b in 0..n {
        let row = &mut out.as_mut_slice()[b * c..(b + 1) * c];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

/// Joint softmax cross-entropy: loss, gradient and argmax predictions.
///
/// # Panics
/// Panics when `labels.len() != batch` or any label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor4, labels: &[usize]) -> LossOutput {
    let (n, h, w, c) = logits.shape();
    assert_eq!((h, w), (1, 1), "loss head expects flattened (n,1,1,classes) logits");
    assert_eq!(labels.len(), n, "labels/batch size mismatch");
    let probs = softmax(logits);
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    let mut predictions = Vec::with_capacity(n);
    let inv_n = 1.0 / n as f32;
    for (b, &label) in labels.iter().enumerate() {
        assert!(label < c, "label {label} out of range for {c} classes");
        let row = &probs.as_slice()[b * c..(b + 1) * c];
        predictions.push(argmax(row));
        loss -= row[label].max(1e-12).ln();
        let grow = &mut grad.as_mut_slice()[b * c..(b + 1) * c];
        grow[label] -= 1.0;
        for g in grow.iter_mut() {
            *g *= inv_n;
        }
    }
    LossOutput { loss: loss * inv_n, grad, predictions }
}

/// The predicted class of one row of logits or probabilities: the index of
/// its largest value under `f32::total_cmp` (the last of equal maxima), 0
/// for an empty row.
pub fn argmax(row: &[f32]) -> usize {
    row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(i, _)| i)
}

/// Fraction of predictions matching labels.
///
/// # Panics
/// Panics when the two slices differ in length.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    assert_eq!(predictions.len(), labels.len(), "predictions/labels length mismatch");
    if predictions.is_empty() {
        return 0.0;
    }
    let hits = predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
    hits as f32 / predictions.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits(rows: &[&[f32]]) -> Tensor4 {
        let n = rows.len();
        let c = rows[0].len();
        let data: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Tensor4::from_vec(n, 1, 1, c, data).unwrap()
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let z = logits(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let p = softmax(&z);
        for b in 0..2 {
            let s: f32 = p.as_slice()[b * 3..(b + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&logits(&[&[1.0, 2.0, 3.0]]));
        let b = softmax(&logits(&[&[101.0, 102.0, 103.0]]));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn uniform_logits_give_ln_c_loss() {
        let z = logits(&[&[0.0, 0.0, 0.0, 0.0]]);
        let out = softmax_cross_entropy(&z, &[2]);
        assert!((out.loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let z = logits(&[&[10.0, -10.0]]);
        let out = softmax_cross_entropy(&z, &[0]);
        assert!(out.loss < 1e-3);
        assert_eq!(out.predictions, vec![0]);
    }

    #[test]
    fn argmax_takes_the_last_of_equal_maxima_and_zero_when_empty() {
        assert_eq!(argmax(&[0.1, 0.7, 0.2]), 1);
        assert_eq!(argmax(&[0.5, 0.2, 0.5]), 2);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn gradient_is_probs_minus_onehot_over_n() {
        let z = logits(&[&[0.0, 0.0]]);
        let out = softmax_cross_entropy(&z, &[1]);
        // probs = [0.5, 0.5]; grad = ([0.5, -0.5]) / 1
        assert!((out.grad.as_slice()[0] - 0.5).abs() < 1e-6);
        assert!((out.grad.as_slice()[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let z = logits(&[&[0.3, -0.7, 1.2], &[-0.1, 0.8, 0.05]]);
        let labels = [2usize, 0];
        let base = softmax_cross_entropy(&z, &labels);
        let eps = 1e-3;
        for idx in 0..6 {
            let mut zp = z.clone();
            zp.as_mut_slice()[idx] += eps;
            let lp = softmax_cross_entropy(&zp, &labels).loss;
            let numeric = (lp - base.loss) / eps;
            assert!(
                (numeric - base.grad.as_slice()[idx]).abs() < 1e-3,
                "idx {idx}: numeric {numeric} vs {}",
                base.grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn out_of_range_label_panics() {
        softmax_cross_entropy(&logits(&[&[0.0, 0.0]]), &[5]);
    }
}
