//! The dense oracle, bitwise, in both directions: a `ReuseConv2d` in dense
//! mode (`exact_fallback`) against its `Conv2d` twin — forward output in
//! `Eval` and `Train` mode, `∇W`, `∇b`, `δx`, the weights after an SGD step
//! and the FLOP meters — over seeded geometries and inputs chosen to break
//! anything that groups, averages or re-orders rows (what the `{L = K,
//! H = 64}` emulation this mode replaced did): duplicate rows, rows one ulp
//! apart, `±0.0`, denormals and `1e30` magnitudes.
//!
//! One `#[test]` in its own binary: the worker-thread override it flips is
//! process-global.

// Test code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::nn::conv::Conv2d;
use adaptive_deep_reuse::nn::{Layer, Mode, Sgd};
use adaptive_deep_reuse::reuse::{ReuseConfig, ReuseConv2d};
use adaptive_deep_reuse::tensor::im2col::ConvGeom;
use adaptive_deep_reuse::tensor::par::set_thread_override;
use adaptive_deep_reuse::tensor::rng::AdrRng;
use adaptive_deep_reuse::tensor::Tensor4;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The next float away from zero (`±0.0` becomes the smallest denormal).
fn one_ulp_up(v: f32) -> f32 {
    f32::from_bits(v.to_bits() + 1)
}

/// A batch for `geom` whose unfolded rows collide in every way a hash could
/// trip over. The first image repeats a 2×2 tile of hostile values, so its
/// receptive fields recur exactly; every later image is a copy of it with
/// one pixel moved by one ulp, so most rows of the batch are exact
/// duplicates and the rows covering that pixel are near-duplicates.
fn hostile_batch(batch: usize, geom: &ConvGeom, rng: &mut AdrRng) -> Tensor4 {
    let specials = [0.0, -0.0, 1.0e-40, -1.0e-40, 1.0e30, -1.0e30, 1.0, one_ulp_up(1.0)];
    let tile: Vec<f32> = (0..4 * geom.in_c)
        .map(|_| if rng.below(3) == 0 { rng.gauss() } else { specials[rng.below(specials.len())] })
        .collect();
    let mut x = Tensor4::from_fn(batch, geom.in_h, geom.in_w, geom.in_c, |_, y, xx, c| {
        tile[((y % 2) * 2 + xx % 2) * geom.in_c + c]
    });
    let per_image = geom.in_h * geom.in_w * geom.in_c;
    for image in 1..batch {
        let at = image * per_image + rng.below(per_image);
        x.as_mut_slice()[at] = one_ulp_up(x.as_slice()[at]);
    }
    x
}

/// Hand-picked corners first — `K < 8`, a one-row batch, a one-image batch,
/// stride 2 with padding 2 — then seeded random geometries.
fn cases(rng: &mut AdrRng) -> Vec<(ConvGeom, usize, usize)> {
    let geom = |h, w, c, kh, kw, s, p| ConvGeom::new(h, w, c, kh, kw, s, p).unwrap();
    let mut cases = vec![
        (geom(3, 3, 1, 3, 3, 1, 0), 2, 1), // N = 1: one image, one output pixel
        (geom(5, 5, 1, 2, 2, 1, 0), 3, 1), // K = 4
        (geom(4, 6, 3, 1, 1, 1, 0), 5, 2), // 1×1 kernel, K = 3
        (geom(7, 7, 2, 3, 3, 2, 2), 4, 3), // stride 2, padding 2
        (geom(6, 5, 2, 3, 2, 1, 1), 1, 2), // M = 1
        (geom(16, 16, 3, 5, 5, 1, 2), 8, 4), // big enough to fan out at 2 threads
    ];
    while cases.len() < 30 {
        let (h, w, c) = (2 + rng.below(7), 2 + rng.below(7), 1 + rng.below(3));
        let (kh, kw) = (1 + rng.below(3), 1 + rng.below(3));
        let (stride, padding) = (1 + rng.below(2), rng.below(3));
        if let Some(g) = ConvGeom::new(h, w, c, kh, kw, stride, padding) {
            cases.push((g, 1 + rng.below(6), 1 + rng.below(3)));
        }
    }
    cases
}

#[test]
fn dense_mode_is_bitwise_the_conv2d_twin_in_both_directions() {
    for threads in [1, 2] {
        set_thread_override(Some(threads));
        let mut rng = AdrRng::seeded(2024);
        for (case, (geom, m, batch)) in cases(&mut rng).into_iter().enumerate() {
            let what = format!("threads {threads}, case {case}: {geom:?}, M {m}, batch {batch}");
            let mut dense = Conv2d::new("twin", geom, m, &mut rng);
            let config =
                ReuseConfig::new(1 + rng.below(geom.k()), 1 + rng.below(12), case % 2 == 0);
            let mut reuse = ReuseConv2d::from_dense(&dense, config, &mut rng);
            reuse.exact_fallback();
            let x = hostile_batch(batch, &geom, &mut rng);

            let y = dense.forward(&x, Mode::Eval);
            assert_eq!(
                bits(reuse.forward(&x, Mode::Eval).as_slice()),
                bits(y.as_slice()),
                "{what}"
            );
            let y = dense.forward(&x, Mode::Train);
            assert_eq!(
                bits(reuse.forward(&x, Mode::Train).as_slice()),
                bits(y.as_slice()),
                "{what}"
            );

            let (n, oh, ow, _) = y.shape();
            let g = Tensor4::from_fn(n, oh, ow, m, |_, _, _, _| match rng.below(4) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gauss(),
            });
            let dx = dense.backward(&g);
            assert_eq!(bits(reuse.backward(&g).as_slice()), bits(dx.as_slice()), "δx, {what}");
            for (slot, name) in ["∇W", "∇b"].iter().enumerate() {
                let want = bits(dense.params_mut()[slot].grad);
                assert_eq!(bits(reuse.params_mut()[slot].grad), want, "{name}, {what}");
            }
            Sgd::constant(0.05).apply(&mut dense.params_mut());
            Sgd::constant(0.05).apply(&mut reuse.params_mut());
            assert_eq!(bits(reuse.weight().as_slice()), bits(dense.weight().as_slice()), "{what}");
            assert_eq!(bits(reuse.bias()), bits(dense.bias()), "{what}");

            assert_eq!(reuse.flops(), dense.flops(), "{what}");
            assert_eq!(reuse.baseline_flops(), dense.flops(), "{what}");
            assert_eq!(reuse.config(), config, "dense mode leaves the configuration alone");
        }
    }
    set_thread_override(None);
}
