//! Angular-cosine similarity helpers.
//!
//! The paper measures neuron-vector similarity as the distance between
//! L2-normalised vectors (`‖x̂_i − x̂_j‖`, §III-B "Similarity Metric").
//! Sign-random-projection LSH is scale-invariant, so hashing does not need
//! normalisation, but k-means (the verification clustering) does.

/// Angular cosine distance between two vectors: `‖â − b̂‖₂`.
///
/// Ranges from 0 (same direction) to 2 (opposite direction). Zero vectors
/// are treated as normalised-zero, giving the other vector's norm (1 or 0).
///
/// # Panics
/// Panics when the two vectors differ in length.
pub fn angular_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "angular_distance: length mismatch");
    let na = a.iter().map(|v| v * v).sum::<f32>().sqrt();
    let nb = b.iter().map(|v| v * v).sum::<f32>().sqrt();
    let ia = if na > 0.0 { 1.0 / na } else { 0.0 };
    let ib = if nb > 0.0 { 1.0 / nb } else { 0.0 };
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x * ia - y * ib;
            d * d
        })
        .sum::<f32>()
        .sqrt()
}

/// Cosine similarity `⟨a, b⟩ / (‖a‖·‖b‖)`; zero when either vector is zero.
///
/// # Panics
/// Panics when the two vectors differ in length.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_similarity: length mismatch");
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na = a.iter().map(|v| v * v).sum::<f32>().sqrt();
    let nb = b.iter().map(|v| v * v).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn angular_distance_of_parallel_vectors_is_zero() {
        assert!(angular_distance(&[1.0, 2.0], &[2.0, 4.0]) < 1e-6);
    }

    #[test]
    fn angular_distance_of_opposite_vectors_is_two() {
        assert!((angular_distance(&[1.0, 0.0], &[-3.0, 0.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn angular_distance_is_scale_invariant() {
        let d1 = angular_distance(&[1.0, 0.5], &[0.2, 0.9]);
        let d2 = angular_distance(&[10.0, 5.0], &[0.02, 0.09]);
        assert!((d1 - d2).abs() < 1e-5);
    }

    #[test]
    fn cosine_similarity_bounds() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }
}
