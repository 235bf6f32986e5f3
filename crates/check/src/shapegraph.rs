//! Static model-graph shape verification (`adr-check shapes`).
//!
//! Every ADR transformation assumes a consistent im2col factorization: the
//! unfolded input is `N × K` (Eq. 5's `K = Ic·kh·kw`), split into `K/L`
//! sub-matrices of width `L`, each clustered under `H ≤ 64` hash bits
//! packed into one `u64` signature. A layer chain whose declared shapes
//! disagree — or whose reuse knobs violate those factorization bounds —
//! would only surface at runtime as a mid-epoch panic or, worse, a silent
//! mis-fold. This module propagates `(N, C, H, W)` symbolically through a
//! [`NetSpec`] and rejects the chain *before* any weight is allocated.
//!
//! Checks, per layer kind:
//!
//! * `conv` — declared `(in_h, in_w, in_c)` must equal the propagated
//!   shape; a declared reuse config must satisfy `L | K`, `L ≤ K`, and
//!   `1 ≤ H ≤ 64` (the packed-signature bit budget of `hashpack`);
//! * `pool` — the window must fit inside the propagated spatial dims;
//! * `batchnorm` — declared channels must equal the propagated `C`;
//! * `dropout` — the rate must lie in `[0, 1)`;
//! * `flatten` — collapses `(C, H, W)` to `C·H·W` features, once;
//! * `dense` — declared `in_features` must equal the propagated feature
//!   count (an implicit flatten is inserted when a dense head directly
//!   follows a spatial layer, mirroring `adr_nn::dense::Dense`).
//!
//! Failures carry the *full* propagated trace up to the offending layer, so
//! the diagnostic shows where the declared and propagated shapes diverged.

use adr_models::{LayerSpec, NetSpec};

/// Everything one verification pass produced: the trace always covers the
/// prefix that propagated cleanly (plus a `!!` line for the failure).
#[derive(Debug)]
pub struct ShapeReport {
    /// Network name.
    pub net: String,
    /// One line per propagated layer, `input` first.
    pub trace: Vec<String>,
    /// The first failure, if any (propagation stops there).
    pub error: Option<ShapeError>,
}

impl ShapeReport {
    /// True when the whole chain propagated without a violation.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// One shape violation, anchored to the layer that caused it.
#[derive(Debug)]
pub struct ShapeError {
    /// Name of the offending layer.
    pub layer: String,
    /// What went wrong.
    pub message: String,
}

/// Propagated activation shape (batch dimension stays symbolic `N`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Spatial activation `(N, C, H, W)`.
    Spatial {
        /// Channels.
        c: usize,
        /// Height.
        h: usize,
        /// Width.
        w: usize,
    },
    /// Flattened activation `(N, features)`.
    Flat {
        /// Feature count.
        features: usize,
    },
}

impl State {
    fn fmt(self) -> String {
        match self {
            State::Spatial { c, h, w } => format!("(N, {c}, {h}, {w})"),
            State::Flat { features } => format!("(N, {features})"),
        }
    }
}

/// Symbolically propagates `(N, C, H, W)` through `spec`, recording a trace
/// line per layer and stopping at the first violation.
pub fn verify(spec: &NetSpec) -> ShapeReport {
    let (in_h, in_w, in_c) = spec.input;
    let mut state = State::Spatial { c: in_c, h: in_h, w: in_w };
    let mut trace = vec![format!("{:<12} {}", "input", state.fmt())];
    for layer in &spec.layers {
        match step(layer, state) {
            Ok((next, note)) => {
                trace.push(format!(
                    "{:<12} {} -> {}{}",
                    layer.name(),
                    state.fmt(),
                    next.fmt(),
                    note
                ));
                state = next;
            }
            Err(message) => {
                trace.push(format!("{:<12} {} -> !! {}", layer.name(), state.fmt(), message));
                return ShapeReport {
                    net: spec.name.clone(),
                    trace,
                    error: Some(ShapeError { layer: layer.name().to_string(), message }),
                };
            }
        }
    }
    ShapeReport { net: spec.name.clone(), trace, error: None }
}

/// Applies one layer to the propagated state; `Ok` carries the next state
/// and an annotation suffix for the trace line.
fn step(layer: &LayerSpec, state: State) -> Result<(State, String), String> {
    match layer {
        LayerSpec::Conv { geom, out_channels, reuse, .. } => {
            let State::Spatial { c, h, w } = state else {
                return Err("convolution after flatten (no spatial dims left)".to_string());
            };
            if (geom.in_h, geom.in_w, geom.in_c) != (h, w, c) {
                return Err(format!(
                    "declared input (C={}, H={}, W={}) disagrees with propagated (C={c}, H={h}, W={w})",
                    geom.in_c, geom.in_h, geom.in_w
                ));
            }
            let k = geom.k();
            let mut note = format!("   [K={k}");
            if let Some(r) = reuse {
                let l = r.sub_vector_len;
                if l == 0 || l > k {
                    return Err(format!("reuse L={l} outside 1..=K (K={k})"));
                }
                if k % l != 0 {
                    return Err(format!(
                        "invalid im2col factorization (Eq. 5): L={l} does not divide K={k}"
                    ));
                }
                if r.num_hashes == 0 || r.num_hashes > 64 {
                    return Err(format!(
                        "reuse H={} exceeds the 64-bit packed-signature budget (need 1..=64)",
                        r.num_hashes
                    ));
                }
                note.push_str(&format!(", L={l}, H={}", r.num_hashes));
            }
            note.push(']');
            Ok((State::Spatial { c: *out_channels, h: geom.out_h(), w: geom.out_w() }, note))
        }
        LayerSpec::Pool { size, stride, .. } => {
            let State::Spatial { c, h, w } = state else {
                return Err("pool after flatten (no spatial dims left)".to_string());
            };
            if *size == 0 || *stride == 0 {
                return Err(format!("pool window {size}x{size} stride {stride} is degenerate"));
            }
            if *size > h || *size > w {
                return Err(format!("pool window {size}x{size} does not fit in {h}x{w}"));
            }
            let oh = (h - size) / stride + 1;
            let ow = (w - size) / stride + 1;
            Ok((State::Spatial { c, h: oh, w: ow }, String::new()))
        }
        LayerSpec::Relu { .. } | LayerSpec::Lrn { .. } => Ok((state, String::new())),
        LayerSpec::BatchNorm { channels, .. } => {
            let State::Spatial { c, .. } = state else {
                return Err("batchnorm after flatten (no channel dim left)".to_string());
            };
            if *channels != c {
                return Err(format!("declared {channels} channels but propagated C={c}"));
            }
            Ok((state, String::new()))
        }
        LayerSpec::Dropout { rate, .. } => {
            if !(0.0..1.0).contains(rate) {
                return Err(format!("dropout rate {rate} outside [0, 1)"));
            }
            Ok((state, String::new()))
        }
        LayerSpec::Flatten => match state {
            State::Spatial { c, h, w } => Ok((State::Flat { features: c * h * w }, String::new())),
            State::Flat { .. } => Err("flatten applied twice".to_string()),
        },
        LayerSpec::Dense { in_features, out_features, .. } => {
            let (features, note) = match state {
                State::Flat { features } => (features, String::new()),
                // Mirror adr_nn::dense::Dense, which flattens implicitly.
                State::Spatial { c, h, w } => (c * h * w, "   (implicit flatten)".to_string()),
            };
            if *in_features != features {
                return Err(format!(
                    "declared in_features={in_features} but propagated features={features}"
                ));
            }
            Ok((State::Flat { features: *out_features }, note))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_models::ReuseSpec;
    use adr_tensor::im2col::ConvGeom;

    fn conv(name: &str, geom: ConvGeom, out: usize, reuse: Option<ReuseSpec>) -> LayerSpec {
        LayerSpec::Conv { name: name.to_string(), geom, out_channels: out, reuse }
    }

    #[test]
    fn shipped_net_specs_all_verify() {
        for spec in adr_models::all_net_specs() {
            let report = verify(&spec);
            assert!(report.is_ok(), "{}: {:#?}", spec.name, report.error);
            // Trace covers input + every layer.
            assert_eq!(report.trace.len(), spec.layers.len() + 1, "{}", spec.name);
        }
    }

    #[test]
    fn declared_input_mismatch_is_rejected_with_trace() {
        let spec = NetSpec {
            name: "bad".into(),
            input: (8, 8, 3),
            layers: vec![
                conv("conv1", ConvGeom::new(8, 8, 3, 3, 3, 1, 0).unwrap(), 4, None),
                // conv1 output is 6x6x4; this declares 8x8x4.
                conv("conv2", ConvGeom::new(8, 8, 4, 3, 3, 1, 0).unwrap(), 4, None),
            ],
        };
        let report = verify(&spec);
        let err = report.error.expect("mismatch must be rejected");
        assert_eq!(err.layer, "conv2");
        assert!(err.message.contains("disagrees"), "{}", err.message);
        assert!(report.trace.last().unwrap().contains("!!"));
    }

    #[test]
    fn reuse_l_must_divide_k() {
        let geom = ConvGeom::new(8, 8, 3, 5, 5, 1, 2).unwrap(); // K = 75
        let bad = ReuseSpec { sub_vector_len: 8, num_hashes: 8 };
        let spec = NetSpec {
            name: "bad-l".into(),
            input: (8, 8, 3),
            layers: vec![conv("conv1", geom, 4, Some(bad))],
        };
        let err = verify(&spec).error.expect("L=8 does not divide 75");
        assert!(err.message.contains("Eq. 5"), "{}", err.message);

        let good = ReuseSpec { sub_vector_len: 5, num_hashes: 8 };
        let spec = NetSpec {
            name: "good-l".into(),
            input: (8, 8, 3),
            layers: vec![conv("conv1", geom, 4, Some(good))],
        };
        assert!(verify(&spec).is_ok());
    }

    #[test]
    fn reuse_h_is_capped_at_64_bits() {
        let geom = ConvGeom::new(8, 8, 3, 5, 5, 1, 2).unwrap();
        let bad = ReuseSpec { sub_vector_len: 5, num_hashes: 70 };
        let spec = NetSpec {
            name: "bad-h".into(),
            input: (8, 8, 3),
            layers: vec![conv("conv1", geom, 4, Some(bad))],
        };
        let err = verify(&spec).error.expect("H=70 must be rejected");
        assert!(err.message.contains("64-bit"), "{}", err.message);
    }

    #[test]
    fn pool_window_must_fit() {
        let spec = NetSpec {
            name: "bad-pool".into(),
            input: (4, 4, 2),
            layers: vec![LayerSpec::Pool { name: "pool".into(), size: 5, stride: 2 }],
        };
        let err = verify(&spec).error.expect("5x5 window in 4x4 input");
        assert!(err.message.contains("does not fit"), "{}", err.message);
    }

    #[test]
    fn dense_checks_flattened_features_and_implicit_flatten() {
        let mut layers = vec![
            conv("conv", ConvGeom::new(6, 6, 1, 3, 3, 1, 0).unwrap(), 2, None),
            LayerSpec::Dense { name: "fc".into(), in_features: 4 * 4 * 2, out_features: 3 },
        ];
        let spec = NetSpec { name: "implicit".into(), input: (6, 6, 1), layers: layers.clone() };
        let report = verify(&spec);
        assert!(report.is_ok(), "{:?}", report.error);
        assert!(report.trace.last().unwrap().contains("implicit flatten"));

        layers[1] = LayerSpec::Dense { name: "fc".into(), in_features: 99, out_features: 3 };
        let spec = NetSpec { name: "wrong".into(), input: (6, 6, 1), layers };
        let err = verify(&spec).error.expect("in_features=99 vs 32");
        assert!(err.message.contains("in_features=99"), "{}", err.message);
    }

    #[test]
    fn batchnorm_channel_mismatch_is_rejected() {
        let spec = NetSpec {
            name: "bad-bn".into(),
            input: (4, 4, 3),
            layers: vec![LayerSpec::BatchNorm { name: "bn".into(), channels: 8 }],
        };
        let err = verify(&spec).error.expect("8 != 3 channels");
        assert!(err.message.contains("propagated C=3"), "{}", err.message);
    }
}
