//! Paper-scale model geometry (no weights), for Table II verification.
//!
//! One spec level: [`ModelSpec`] — the conv-only view Table II talks about
//! (K/M ranges). Whole-network shape consistency is not declared here; it
//! is enforced where a network is built, by `Network::push` →
//! `Layer::output_shape`, layer by layer and by name.

use adr_tensor::im2col::ConvGeom;

/// Geometry of one convolutional layer.
#[derive(Clone, Debug)]
pub struct ConvSpec {
    /// Layer name (`"conv3"`, `"conv4_2"`, ...).
    pub name: String,
    /// Full convolution geometry.
    pub geom: ConvGeom,
    /// Output channels `M`.
    pub out_channels: usize,
}

impl ConvSpec {
    /// The paper's `K = Ic·kh·kw` for this layer.
    pub fn k(&self) -> usize {
        self.geom.k()
    }
}

/// Geometry of a whole network's convolutional stack.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Network name.
    pub name: &'static str,
    /// Input `(h, w, c)`.
    pub input: (usize, usize, usize),
    /// Convolutional layers in order.
    pub convs: Vec<ConvSpec>,
}

impl ModelSpec {
    /// Number of convolutional layers (Table II's "# convlayers").
    pub fn num_conv_layers(&self) -> usize {
        self.convs.len()
    }

    /// `(min K, max K)` across conv layers.
    ///
    /// # Panics
    /// Panics when the spec has no conv layers (never for the shipped specs).
    pub fn k_range(&self) -> (usize, usize) {
        let ks: Vec<usize> = self.convs.iter().map(ConvSpec::k).collect();
        let min = *ks.iter().min().expect("spec has at least one conv layer");
        let max = *ks.iter().max().expect("spec has at least one conv layer");
        (min, max)
    }

    /// `(min M, max M)` across conv layers.
    ///
    /// # Panics
    /// Panics when the spec has no conv layers (never for the shipped specs).
    pub fn m_range(&self) -> (usize, usize) {
        let ms: Vec<usize> = self.convs.iter().map(|c| c.out_channels).collect();
        let min = *ms.iter().min().expect("spec has at least one conv layer");
        let max = *ms.iter().max().expect("spec has at least one conv layer");
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use crate::{alexnet, cifarnet, vgg19};

    /// Table II, row 1: CifarNet on CIFAR-10 — 2 conv layers, K 75–1600,
    /// M = 64, image 32×32.
    #[test]
    fn cifarnet_matches_table_ii() {
        let s = cifarnet::spec();
        assert_eq!(s.num_conv_layers(), 2);
        assert_eq!(s.input, (32, 32, 3));
        assert_eq!(s.k_range(), (75, 1600));
        assert_eq!(s.m_range(), (64, 64));
    }

    /// Table II, row 2: AlexNet on ImageNet — 5 conv layers, K 363–3456,
    /// M 64–384, image 224×224.
    #[test]
    fn alexnet_matches_table_ii() {
        let s = alexnet::spec();
        assert_eq!(s.num_conv_layers(), 5);
        assert_eq!(s.input, (224, 224, 3));
        assert_eq!(s.k_range(), (363, 3456));
        assert_eq!(s.m_range(), (64, 384));
    }

    /// Table II, row 3: VGG-19 on ImageNet — 16 conv layers, M 64–512,
    /// image 224×224. (The paper prints the K upper bound as 4068; the
    /// actual 3×3×512 kernel gives 4608 — we assert the true value and
    /// note the paper's typo.)
    #[test]
    fn vgg19_matches_table_ii() {
        let s = vgg19::spec();
        assert_eq!(s.num_conv_layers(), 16);
        assert_eq!(s.input, (224, 224, 3));
        assert_eq!(s.k_range(), (27, 4608));
        assert_eq!(s.m_range(), (64, 512));
    }

    /// Spatial dimensions must chain: each conv/pool output feeds the next
    /// layer's declared input.
    #[test]
    fn spec_geometries_are_internally_consistent() {
        for spec in [cifarnet::spec(), alexnet::spec(), vgg19::spec()] {
            for conv in &spec.convs {
                // Every declared geometry must produce at least one output
                // pixel (ConvGeom::new enforces it; re-assert here).
                assert!(conv.geom.out_h() > 0 && conv.geom.out_w() > 0, "{}", conv.name);
                assert!(conv.k() == conv.geom.in_c * conv.geom.kernel_h * conv.geom.kernel_w);
            }
        }
    }
}
