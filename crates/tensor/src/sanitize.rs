//! Feature-gated runtime invariant layer: NaN/Inf "tensor sanitizer" and
//! redundant shape-contract checks.
//!
//! With the `checked` cargo feature **off** (the default), every assertion
//! here compiles to an empty inline function — zero cost in the training
//! hot path. With `--features checked`, each call scans its buffer and
//! panics with a message naming the *site* (layer, pass, sub-matrix or
//! cluster) that produced the first non-finite value, so a diverging run
//! fails at the layer that broke rather than epochs later in the loss.
//!
//! Each panic here carries an `#[expect(clippy::panic, ..)]` (the crate
//! denies `clippy::panic` outside tests): the whole point of the checked
//! build is to fail fast and loudly.

/// First non-finite value in `data`, as `(flat index, value)`.
pub fn first_non_finite(data: &[f32]) -> Option<(usize, f32)> {
    data.iter().enumerate().find(|&(_, v)| !v.is_finite()).map(|(i, &v)| (i, v))
}

/// Checked build: panics when `data` holds a NaN/Inf, naming `tag` as the
/// producing site.
///
/// # Panics
/// Panics when `data` contains a non-finite value — that is the feature.
#[cfg(feature = "checked")]
#[track_caller]
#[expect(clippy::panic, reason = "checked-feature: failing loudly is the feature")]
pub fn assert_finite(tag: &str, data: &[f32]) {
    if let Some((i, v)) = first_non_finite(data) {
        panic!(
            "tensor sanitizer: {tag}: first non-finite value {v} at flat index {i} of {}",
            data.len()
        );
    }
}

/// Unchecked build: no-op.
#[cfg(not(feature = "checked"))]
#[inline(always)]
pub fn assert_finite(_tag: &str, _data: &[f32]) {}

/// Checked build: like [`assert_finite`] but reports the offending row and
/// column of a row-major `? × cols` matrix — with per-cluster buffers the
/// row *is* the cluster id.
///
/// # Panics
/// Panics when `data` contains a non-finite value — that is the feature.
#[cfg(feature = "checked")]
#[track_caller]
#[expect(clippy::panic, reason = "checked-feature: failing loudly is the feature")]
pub fn assert_finite_rows(tag: &str, data: &[f32], cols: usize) {
    if let Some((i, v)) = first_non_finite(data) {
        let (r, c) = match i.checked_div(cols) {
            Some(r) => (r, i % cols),
            None => (0, i),
        };
        panic!("tensor sanitizer: {tag}: first non-finite value {v} at row {r}, col {c}");
    }
}

/// Unchecked build: no-op.
#[cfg(not(feature = "checked"))]
#[inline(always)]
pub fn assert_finite_rows(_tag: &str, _data: &[f32], _cols: usize) {}

/// Checked build: panics when a shape disagrees with its contract. Used for
/// redundant internal re-derivations (e.g. the unfolded matrix against the
/// convolution geometry), not as a replacement for the API-boundary
/// `assert!`s.
///
/// # Panics
/// Panics when `actual != expected` — that is the feature.
#[cfg(feature = "checked")]
#[track_caller]
#[expect(clippy::panic, reason = "checked-feature: failing loudly is the feature")]
pub fn assert_shape<T: PartialEq + core::fmt::Debug>(tag: &str, actual: T, expected: T) {
    if actual != expected {
        panic!("shape contract: {tag}: got {actual:?}, expected {expected:?}");
    }
}

/// Unchecked build: no-op.
#[cfg(not(feature = "checked"))]
#[inline(always)]
pub fn assert_shape<T: PartialEq + core::fmt::Debug>(_tag: &str, _actual: T, _expected: T) {}

/// Checked build: asserts every element of a slice is finite; the format
/// arguments name the producing site and are **not evaluated** in unchecked
/// builds, so hot-path call sites cost nothing by default.
///
/// ```
/// let y = vec![0.0f32; 4];
/// adr_tensor::checked_finite!(&y, "conv {}: forward output", "c1");
/// ```
#[macro_export]
macro_rules! checked_finite {
    ($data:expr, $($fmt:tt)+) => {{
        #[cfg(feature = "checked")]
        $crate::sanitize::assert_finite(&format!($($fmt)+), $data);
        #[cfg(not(feature = "checked"))]
        let _ = &$data;
    }};
}

/// Like [`checked_finite!`] for a row-major `? × cols` buffer; the panic
/// message reports the offending row (for per-cluster buffers, the cluster
/// id) and column.
#[macro_export]
macro_rules! checked_finite_rows {
    ($data:expr, $cols:expr, $($fmt:tt)+) => {{
        #[cfg(feature = "checked")]
        $crate::sanitize::assert_finite_rows(&format!($($fmt)+), $data, $cols);
        #[cfg(not(feature = "checked"))]
        let _ = (&$data, &$cols);
    }};
}

/// Checked build: asserts a redundant shape contract (`actual == expected`),
/// naming the violated contract via the format arguments.
#[macro_export]
macro_rules! checked_shape {
    ($actual:expr, $expected:expr, $($fmt:tt)+) => {{
        #[cfg(feature = "checked")]
        $crate::sanitize::assert_shape(&format!($($fmt)+), $actual, $expected);
        #[cfg(not(feature = "checked"))]
        let _ = (&$actual, &$expected);
    }};
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

    #[test]
    fn clean_buffers_pass_in_all_builds() {
        assert_finite("test", &[0.0, -1.5, 1e30]);
        assert_finite_rows("test", &[0.0, 1.0, 2.0, 3.0], 2);
        assert_shape("test", (2, 3), (2, 3));
    }

    #[test]
    fn macros_accept_clean_inputs_in_all_builds() {
        let buf = [0.5f32, -0.5];
        crate::checked_finite!(&buf, "layer {}", 1);
        crate::checked_finite_rows!(&buf, 2, "cluster outputs of sub-matrix {}", 0);
        crate::checked_shape!((1usize, 2usize), (1usize, 2usize), "unfold contract");
    }

    #[cfg(feature = "checked")]
    #[test]
    #[should_panic(expected = "tensor sanitizer: bad layer")]
    fn checked_build_panics_on_nan() {
        assert_finite("bad layer", &[0.0, f32::NAN]);
    }

    #[cfg(feature = "checked")]
    #[test]
    #[should_panic(expected = "row 1, col 0")]
    fn checked_build_names_row_and_col() {
        assert_finite_rows("cluster output", &[0.0, 1.0, f32::INFINITY, 2.0], 2);
    }

    #[cfg(feature = "checked")]
    #[test]
    #[should_panic(expected = "shape contract: unfold")]
    fn checked_build_panics_on_shape_mismatch() {
        assert_shape("unfold", (4, 9), (4, 8));
    }
}
