//! Row sums held in registers, in two shapes:
//!
//! * [`sum_rows`]: `dst = first + Σ rest` — the reconstruction `y[r] = b +
//!   Σ_I y_c^(I)[id_I(r)]` of the deep-reuse forward pass (Fig. 2), where
//!   every source is a different sub-matrix's cluster output row; and
//!   [`add_rows`], `dst += Σ rest`, which carries that sum on from the
//!   partial row an earlier band of sub-matrices stored.
//! * [`sum_clusters`]: `dst[id] += src` over a list of `(src, id)` pairs —
//!   the member sums of a clustering: the forward pass's centroid sums and
//!   the backward pass's cluster gradients `δy_{c,s}` (Eq. 8).
//!
//! The loops they replace wrote one destination row per source: each source
//! cost a load *and a store* of the whole destination row, and the next
//! source into the same row waited on that store. Here a tile of the
//! destination row is loaded once, receives its sources' tiles in order,
//! and is stored once — [`sum_rows`] and [`add_rows`] across all sources,
//! [`sum_clusters`] across each run of consecutive sources with one cluster
//! id. [`sum_rows`] and [`add_rows`] cut the row into the column tiers of
//! [`super::gemm`]:
//! tiles of 64 columns (eight [`F32x8`] registers) while they fit, then at
//! most one tile each of 32, 16 and 8 columns, then a scalar tail.
//! [`sum_clusters`] walks its source list once per window, so it cuts the
//! row into as few windows as it can: at most 64 columns (one to eight
//! registers) each, the last register of a window ending at the window's
//! end and overlapping its neighbour, and rows narrower than one register
//! in scalar registers. A cluster change mid-walk costs a store and a load
//! of the window; an extra walk costs one per source row, and a scalar
//! tail column would be a walk of its own.
//!
//! # Why no bit moves
//!
//! Every output element of [`sum_rows`] is `((first + s_0) + s_1) + …` —
//! one IEEE add per source, in the sources' order, starting from `first`;
//! [`add_rows`] starts from the element's own value instead — and every
//! element of a [`sum_clusters`] row is its value on entry plus
//! one IEEE add per source with that row's id, in the sources' order:
//! exactly the additions of the loops they replaced. Which register holds
//! the running sum, and when it goes back to memory, changes no operation
//! and no order; a column two overlapping registers share gets the same
//! operations in both and is stored twice with one value. Each kernel is
//! one portable body instantiated twice and picked at run time (see
//! [`super`]).

use crate::simd::{F32x8, LANES};

/// Where register `q` of a `V`-register window over columns `[a, b)` sits:
/// eight columns apart from `a`, except the last, which ends at `b`. A
/// window narrower than `8·V` thus overlaps its last two registers instead
/// of leaving a scalar tail: the shared columns are loaded together, receive
/// the same adds and are stored with the same value twice.
#[inline(always)]
fn column<const V: usize>(q: usize, a: usize, b: usize) -> usize {
    if q + 1 == V {
        b - LANES
    } else {
        a + q * LANES
    }
}

/// The `V` registers of columns `[a, b)` of `row`.
#[inline(always)]
fn load_window<const V: usize>(row: &[f32], a: usize, b: usize) -> [F32x8; V] {
    let row = &row[..b];
    let mut acc = [F32x8::splat(0.0); V];
    for (q, acc) in acc.iter_mut().enumerate() {
        *acc = F32x8::load(&row[column::<V>(q, a, b)..]);
    }
    acc
}

/// `acc += ` the `V` registers of columns `[a, b)` of `row`.
#[inline(always)]
fn add_window<const V: usize>(acc: &mut [F32x8; V], row: &[f32], a: usize, b: usize) {
    let row = &row[..b];
    for (q, acc) in acc.iter_mut().enumerate() {
        *acc = *acc + F32x8::load(&row[column::<V>(q, a, b)..]);
    }
}

/// Stores `V` registers into columns `[a, b)` of `row`.
#[inline(always)]
fn store_window<const V: usize>(acc: &[F32x8; V], row: &mut [f32], a: usize, b: usize) {
    let row = &mut row[..b];
    for (q, acc) in acc.iter().enumerate() {
        acc.store(&mut row[column::<V>(q, a, b)..]);
    }
}

/// Columns `[j, j + 8·V)` of `dst`, for every `j` from `j0` on that fits:
/// `first`'s tile (`dst`'s own without one) plus every source's tile, in
/// order, held in `V` registers. Returns where the tiles stopped.
#[inline(always)]
fn sum_tiles<'a, const V: usize, S>(
    dst: &mut [f32],
    first: Option<&[f32]>,
    rest: &S,
    j0: usize,
) -> usize
where
    S: Iterator<Item = &'a [f32]> + Clone,
{
    let mut j = j0;
    while j + V * LANES <= dst.len() {
        let b = j + V * LANES;
        let mut acc = load_window::<V>(first.unwrap_or(dst), j, b);
        for src in rest.clone() {
            add_window(&mut acc, src, j, b);
        }
        store_window(&acc, dst, j, b);
        j = b;
    }
    j
}

/// `dst[j] = first[j] + rest_0[j] + rest_1[j] + …`, added in that order.
///
/// `rest` is walked once per column tile, so it must be cheap to clone — a
/// slice iterator or a `map` over one, never a collected list.
///
/// # Shape
/// `first` and every source hold at least `dst.len()` elements.
///
/// # Panics
/// Panics when a source is shorter than `dst`.
pub fn sum_rows<'a, S>(dst: &mut [f32], first: &[f32], rest: S)
where
    S: Iterator<Item = &'a [f32]> + Clone,
{
    #[cfg(target_arch = "x86_64")]
    if super::avx_detected() {
        // SAFETY: `avx_detected` has just observed the `avx` CPU feature,
        // the only precondition of the clone.
        return unsafe { sum_rows_avx(dst, first, rest) };
    }
    sum_rows_portable(dst, Some(first), rest);
}

/// [`sum_rows`] compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn sum_rows_avx<'a, S>(dst: &mut [f32], first: &[f32], rest: S)
where
    S: Iterator<Item = &'a [f32]> + Clone,
{
    sum_rows_portable(dst, Some(first), rest);
}

/// `dst[j] = dst[j] + rest_0[j] + rest_1[j] + …`, added in that order:
/// [`sum_rows`] with `dst`'s own row as `first`.
///
/// `rest` is walked once per column tile, as in [`sum_rows`].
///
/// # Panics
/// Panics when a source is shorter than `dst`.
pub fn add_rows<'a, S>(dst: &mut [f32], rest: S)
where
    S: Iterator<Item = &'a [f32]> + Clone,
{
    #[cfg(target_arch = "x86_64")]
    if super::avx_detected() {
        // SAFETY: `avx_detected` has just observed the `avx` CPU feature,
        // the only precondition of the clone.
        return unsafe { add_rows_avx(dst, rest) };
    }
    sum_rows_portable(dst, None, rest);
}

/// [`add_rows`] compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn add_rows_avx<'a, S>(dst: &mut [f32], rest: S)
where
    S: Iterator<Item = &'a [f32]> + Clone,
{
    sum_rows_portable(dst, None, rest);
}

/// The one body of [`sum_rows`] (`first` given) and [`add_rows`] (`None`:
/// `dst` is its own first row): 64-column tiles while they fit, then at
/// most one 32-, 16- and 8-column tile, then the scalar tail.
#[inline(always)]
pub(crate) fn sum_rows_portable<'a, S>(dst: &mut [f32], first: Option<&[f32]>, rest: S)
where
    S: Iterator<Item = &'a [f32]> + Clone,
{
    let first = first.map(|f| &f[..dst.len()]);
    let mut j = sum_tiles::<8, S>(dst, first, &rest, 0);
    j = sum_tiles::<4, S>(dst, first, &rest, j);
    j = sum_tiles::<2, S>(dst, first, &rest, j);
    j = sum_tiles::<1, S>(dst, first, &rest, j);
    // Indexed, not `enumerate().skip(j)`: that `nth` stays an out-of-line
    // call, compiled without `avx` (module docs of `super`).
    for t in j..dst.len() {
        let mut v = first.map_or(dst[t], |f| f[t]);
        for src in rest.clone() {
            v += src[t];
        }
        dst[t] = v;
    }
}

/// One walk of `rows` over columns `[a, b)` of the cluster rows, where
/// `8·(V − 1) < b − a ≤ 8·V`: the running cluster window stays in `V`
/// registers and is stored, and the next cluster's loaded, only when the id
/// changes.
#[inline(always)]
fn cluster_window<'a, const V: usize, S>(
    dst: &mut [f32],
    width: usize,
    mut rows: S,
    a: usize,
    b: usize,
) where
    S: Iterator<Item = (&'a [f32], usize)>,
{
    let Some((src, first)) = rows.next() else { return };
    let mut id = first;
    let mut acc = load_window::<V>(&dst[id * width..], a, b);
    add_window(&mut acc, src, a, b);
    for (src, next) in rows {
        if next != id {
            store_window(&acc, &mut dst[id * width..], a, b);
            id = next;
            acc = load_window(&dst[id * width..], a, b);
        }
        add_window(&mut acc, src, a, b);
    }
    store_window(&acc, &mut dst[id * width..], a, b);
}

/// [`cluster_window`] for rows of `1 ≤ width < 8` columns, in seven scalar
/// registers: register `t` holds column `min(t, width − 1)`, so the last
/// column may be held several times over, always with the same value.
#[inline(always)]
fn cluster_narrow<'a, S>(dst: &mut [f32], width: usize, mut rows: S)
where
    S: Iterator<Item = (&'a [f32], usize)>,
{
    const W: usize = LANES - 1;
    let mut col = [0usize; W];
    for (t, col) in col.iter_mut().enumerate() {
        *col = t.min(width - 1);
    }
    let Some((src, first)) = rows.next() else { return };
    let mut id = first;
    let mut acc = [0.0f32; W];
    let row = &dst[id * width..][..width];
    for (acc, &c) in acc.iter_mut().zip(&col) {
        *acc = row[c] + src[c];
    }
    for (src, next) in rows {
        if next != id {
            let row = &mut dst[id * width..][..width];
            for (&acc, &c) in acc.iter().zip(&col) {
                row[c] = acc;
            }
            id = next;
            let row = &dst[id * width..][..width];
            for (acc, &c) in acc.iter_mut().zip(&col) {
                *acc = row[c];
            }
        }
        let src = &src[..width];
        for (acc, &c) in acc.iter_mut().zip(&col) {
            *acc += src[c];
        }
    }
    let row = &mut dst[id * width..][..width];
    for (&acc, &c) in acc.iter().zip(&col) {
        row[c] = acc;
    }
}

/// `dst[id] += src` for every `(src, id)` of `rows`, in that order: each
/// cluster row of `dst` receives its sources' first `width` elements, one
/// IEEE add each, in the order `rows` lists them.
///
/// `rows` is walked once per window of up to 64 columns, so it must be
/// cheap to clone — a range or slice iterator or a `map` over one, never a
/// collected list. A source may be a window of a wider row (a column band
/// of a strided matrix): only its first `width` elements are read. Listing
/// each cluster's sources consecutively (member order) loads and stores
/// each cluster row once per window; any order gives the same bits as the
/// scalar `dst[id][j] += src[j]` loop over the same list.
///
/// # Shape
/// `dst` is `|C| × width`, row-major; every id is below `|C|` and every
/// source holds at least `width` elements.
///
/// # Panics
/// Panics when `dst` is not a whole number of `width`-wide rows, an id is
/// out of range or a source is shorter than `width`.
pub fn sum_clusters<'a, S>(dst: &mut [f32], width: usize, rows: S)
where
    S: Iterator<Item = (&'a [f32], usize)> + Clone,
{
    assert!(
        dst.len().is_multiple_of(width),
        "cluster rows: {} elements are not whole rows of {width}",
        dst.len()
    );
    #[cfg(target_arch = "x86_64")]
    if super::avx_detected() {
        // SAFETY: `avx_detected` has just observed the `avx` CPU feature,
        // the only precondition of the clone.
        return unsafe { sum_clusters_avx(dst, width, rows) };
    }
    sum_clusters_portable(dst, width, rows);
}

/// [`sum_clusters`] compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn sum_clusters_avx<'a, S>(dst: &mut [f32], width: usize, rows: S)
where
    S: Iterator<Item = (&'a [f32], usize)> + Clone,
{
    sum_clusters_portable(dst, width, rows);
}

/// The one body of [`sum_clusters`]: one walk of `rows` per window of at
/// most 64 columns, in one to eight registers. A row narrower
/// than one register is walked in scalar registers; otherwise every window
/// is at least eight columns wide — the last two windows are cut so — and
/// ends in overlapping registers, never a scalar tail.
#[inline(always)]
pub(crate) fn sum_clusters_portable<'a, S>(dst: &mut [f32], width: usize, rows: S)
where
    S: Iterator<Item = (&'a [f32], usize)> + Clone,
{
    const WIDE: usize = 8 * LANES;
    if width < LANES {
        if width > 0 {
            cluster_narrow(dst, width, rows);
        }
        return;
    }
    let mut a = 0;
    while a < width {
        let b = match width - a {
            rest if rest <= WIDE => width,
            rest if rest - WIDE < LANES => a + WIDE - LANES,
            _ => a + WIDE,
        };
        let rows = rows.clone();
        match (b - a).div_ceil(LANES) {
            1 => cluster_window::<1, S>(dst, width, rows, a, b),
            2 => cluster_window::<2, S>(dst, width, rows, a, b),
            3 => cluster_window::<3, S>(dst, width, rows, a, b),
            4 => cluster_window::<4, S>(dst, width, rows, a, b),
            5 => cluster_window::<5, S>(dst, width, rows, a, b),
            6 => cluster_window::<6, S>(dst, width, rows, a, b),
            7 => cluster_window::<7, S>(dst, width, rows, a, b),
            _ => cluster_window::<8, S>(dst, width, rows, a, b),
        }
        a = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tests::assert_same_bits;
    use crate::rng::AdrRng;

    /// The loop [`sum_rows`] replaced, scalar: `first`, then `+=` each
    /// source row in order — also what [`add_rows`] does to a row that
    /// holds `first`.
    fn reference(dst: &mut [f32], first: &[f32], rest: &[&[f32]]) {
        dst.copy_from_slice(&first[..dst.len()]);
        for src in rest {
            for (d, s) in dst.iter_mut().zip(*src) {
                *d += s;
            }
        }
    }

    /// Row widths on every side of the 8-, 16-, 32- and 64-column tiers.
    const M_GRID: [usize; 15] = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 130];

    /// A first row and a pool of twelve source rows. Every fifth element of
    /// the first row and every third of pool rows 0–2 is, in turn, `±0.0`,
    /// `±inf`, NaN or a denormal; rows 3–11 are finite, so that 200 of them
    /// (ids repeating) still sum to finite values a lost or reordered add
    /// would move.
    #[test]
    fn sum_rows_is_the_scalar_loop_bit_for_bit() {
        const SPECIALS: [f32; 7] =
            [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-40, -1e-40];
        let special = |i: usize| SPECIALS[i % SPECIALS.len()];
        let mut rng = AdrRng::seeded(28);
        for m in M_GRID {
            let mut pool = vec![0.0f32; 12 * m];
            for (i, v) in pool.iter_mut().enumerate() {
                *v = if i < 3 * m && i % 3 == 1 { special(i / 3) } else { rng.gauss() };
            }
            let first: Vec<f32> =
                (0..m).map(|j| if j % 5 == 0 { special(j / 5) } else { rng.gauss() }).collect();
            for count in [0usize, 1, 3, 200] {
                let ids: Vec<usize> = (0..count)
                    .map(|s| if count > 3 { 3 + (s * 7 + s / 3) % 9 } else { s * 5 % 12 })
                    .collect();
                let rows: Vec<&[f32]> = ids.iter().map(|&id| &pool[id * m..][..m]).collect();
                let what = format!("m={m} sources={count}");
                let mut want = vec![f32::NAN; m];
                reference(&mut want, &first, &rows);
                let mut got = vec![f32::NAN; m];
                sum_rows(&mut got, &first, rows.iter().copied());
                assert_same_bits(&got, &want, &format!("dispatched, {what}"));
                let mut got = vec![f32::NAN; m];
                sum_rows_portable(&mut got, Some(&first), rows.iter().copied());
                assert_same_bits(&got, &want, &format!("portable, {what}"));
                // In place: the row already holds `first`.
                let mut got = first.clone();
                add_rows(&mut got, rows.iter().copied());
                assert_same_bits(&got, &want, &format!("in place, dispatched, {what}"));
                let mut got = first.clone();
                sum_rows_portable(&mut got, None, rows.iter().copied());
                assert_same_bits(&got, &want, &format!("in place, portable, {what}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_out_of_range_cluster_id_panics() {
        let mut dst = [0.0f32; 16];
        sum_clusters(&mut dst, 8, [(&[1.0f32; 8][..], 2)].into_iter());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_short_source_panics() {
        let mut dst = [0.0f32; 16];
        sum_rows(&mut dst, &[0.0; 16], [&[1.0f32; 9][..]].into_iter());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_short_source_panics_in_place() {
        let mut dst = [0.0f32; 16];
        add_rows(&mut dst, [&[1.0f32; 9][..]].into_iter());
    }
}
