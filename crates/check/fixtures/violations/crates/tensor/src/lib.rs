//! Fixture: seeded `adr::no_panic` violation.
//! Not compiled — scanned by the adr-check integration test.

/// `.unwrap()` in library code: a violation.
pub fn make_matrix(rows: usize, cols: usize) -> Vec<f32> {
    vec![0.0; rows.checked_mul(cols).unwrap()]
}

/// `unwrap_or` handles the case: fine.
pub fn make_matrix_saturating(rows: usize, cols: usize) -> Vec<f32> {
    vec![0.0; rows.checked_mul(cols).unwrap_or(usize::MAX)]
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        let v: Option<u8> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
