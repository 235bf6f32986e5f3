//! The one NaN/Inf scan. Serving's admission check and output quarantine
//! and the trainer's guardrails (parameter scan, rolled-back batch scan)
//! report the first non-finite value through it.

/// First non-finite value in `data`, as `(flat index, value)`.
pub fn first_non_finite(data: &[f32]) -> Option<(usize, f32)> {
    data.iter().enumerate().find(|&(_, v)| !v.is_finite()).map(|(i, &v)| (i, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_first_non_finite() {
        assert_eq!(first_non_finite(&[1.0, 2.0, 3.0]), None);
        assert_eq!(first_non_finite(&[1.0, f32::NAN, f32::INFINITY]).map(|(i, _)| i), Some(1));
        assert_eq!(first_non_finite(&[f32::NEG_INFINITY]).map(|(i, _)| i), Some(0));
    }
}
