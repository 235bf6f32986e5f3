//! Per-class smoothed-template image synthesis.

// Pixel coordinates are bounds-checked or clamped before i64 -> usize casts.
#![allow(clippy::cast_possible_truncation)]

use adr_tensor::rng::AdrRng;
use adr_tensor::Tensor4;

/// Parameters of the synthetic generator.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    /// Number of images to generate.
    pub num_images: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Channels.
    pub channels: usize,
    /// Box-blur passes applied to each class template (more = smoother
    /// images = more neuron-vector similarity).
    pub smoothing_passes: usize,
    /// Per-pixel Gaussian noise standard deviation.
    pub noise_std: f32,
    /// Maximum |translation| in pixels applied per sample.
    pub max_shift: usize,
    /// Weight in `[0, 1)` of a *per-image* smoothed random field mixed into
    /// every sample. Zero reproduces pure template+noise images; higher
    /// values add image-specific structure, which both raises the
    /// neuron-vector remaining ratio towards natural-image levels and makes
    /// classification genuinely hard (the class signal must be separated
    /// from per-image content).
    pub image_variability: f32,
}

impl SynthConfig {
    /// CIFAR-10 stand-in: 32×32×3, 10 classes.
    pub fn cifar_like(num_images: usize) -> Self {
        Self {
            num_images,
            num_classes: 10,
            height: 32,
            width: 32,
            channels: 3,
            smoothing_passes: 3,
            noise_std: 0.05,
            max_shift: 3,
            image_variability: 0.45,
        }
    }

    /// ImageNet stand-in at bench scale: 64×64×3, 100 classes by default.
    /// (Full 224×224 is far too slow to *train* on a CPU; see DESIGN.md.)
    pub fn imagenet_like(num_images: usize, num_classes: usize) -> Self {
        Self {
            num_images,
            num_classes,
            height: 64,
            width: 64,
            channels: 3,
            smoothing_passes: 4,
            noise_std: 0.05,
            max_shift: 5,
            image_variability: 0.45,
        }
    }
}

/// A fully materialised labelled image set.
#[derive(Clone, Debug)]
pub struct SynthDataset {
    images: Tensor4,
    labels: Vec<usize>,
    num_classes: usize,
}

/// One class template: a smoothed random field per channel.
fn make_template(cfg: &SynthConfig, rng: &mut AdrRng) -> Vec<f32> {
    let (h, w, c) = (cfg.height, cfg.width, cfg.channels);
    let mut field: Vec<f32> = (0..h * w * c).map(|_| rng.uniform()).collect();
    // Separable box blur per channel, `smoothing_passes` times.
    let mut tmp = vec![0.0f32; h * w * c];
    for _ in 0..cfg.smoothing_passes {
        // Horizontal pass.
        for y in 0..h {
            for x in 0..w {
                for ch in 0..c {
                    let mut sum = 0.0;
                    let mut count = 0.0;
                    for dx in -1i64..=1 {
                        let xx = x as i64 + dx;
                        if xx < 0 || xx >= w as i64 {
                            continue;
                        }
                        sum += field[(y * w + xx as usize) * c + ch];
                        count += 1.0;
                    }
                    tmp[(y * w + x) * c + ch] = sum / count;
                }
            }
        }
        // Vertical pass.
        for y in 0..h {
            for x in 0..w {
                for ch in 0..c {
                    let mut sum = 0.0;
                    let mut count = 0.0;
                    for dy in -1i64..=1 {
                        let yy = y as i64 + dy;
                        if yy < 0 || yy >= h as i64 {
                            continue;
                        }
                        sum += tmp[(yy as usize * w + x) * c + ch];
                        count += 1.0;
                    }
                    field[(y * w + x) * c + ch] = sum / count;
                }
            }
        }
    }
    // Stretch contrast to [-0.5, 0.5]. Zero-mean matters: the paper's
    // TF-slim pipeline standardises images per-image, and angular-cosine
    // LSH needs sign diversity — all-positive patches would collapse into
    // a handful of clusters regardless of content.
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in &field {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let scale = if hi > lo { 1.0 / (hi - lo) } else { 1.0 };
    for v in &mut field {
        *v = (*v - lo) * scale - 0.5;
    }
    field
}

impl SynthDataset {
    /// Generates a dataset from a config.
    ///
    /// # Panics
    /// Panics on zero-sized dimensions or `num_classes == 0`.
    pub fn generate(cfg: &SynthConfig, rng: &mut AdrRng) -> Self {
        assert!(cfg.num_classes > 0, "need at least one class");
        assert!(cfg.height > 0 && cfg.width > 0 && cfg.channels > 0, "degenerate image shape");
        assert!((0.0..1.0).contains(&cfg.image_variability), "image_variability must be in [0, 1)");
        let templates: Vec<Vec<f32>> =
            (0..cfg.num_classes).map(|_| make_template(cfg, rng)).collect();
        // Per-image fields use fewer smoothing passes than class templates:
        // they model mid-frequency image-specific content.
        let field_cfg = SynthConfig { smoothing_passes: cfg.smoothing_passes.div_ceil(2), ..*cfg };
        let (h, w, c) = (cfg.height, cfg.width, cfg.channels);
        let mut images = Tensor4::zeros(cfg.num_images, h, w, c);
        let mut labels = Vec::with_capacity(cfg.num_images);
        for img in 0..cfg.num_images {
            let label = rng.below(cfg.num_classes);
            labels.push(label);
            let template = &templates[label];
            let shift = cfg.max_shift as i64;
            let dy = if shift > 0 { rng.below(2 * shift as usize + 1) as i64 - shift } else { 0 };
            let dx = if shift > 0 { rng.below(2 * shift as usize + 1) as i64 - shift } else { 0 };
            let gain = 0.8 + 0.4 * rng.uniform();
            let own_field = if cfg.image_variability > 0.0 {
                Some(make_template(&field_cfg, rng))
            } else {
                None
            };
            let w_class = 1.0 - cfg.image_variability;
            for y in 0..h {
                for x in 0..w {
                    // Clamped translation keeps patches smooth at borders.
                    let sy = (y as i64 + dy).clamp(0, h as i64 - 1) as usize;
                    let sx = (x as i64 + dx).clamp(0, w as i64 - 1) as usize;
                    for ch in 0..c {
                        let mut v = template[(sy * w + sx) * c + ch] * w_class;
                        if let Some(field) = &own_field {
                            v += field[(y * w + x) * c + ch] * cfg.image_variability;
                        }
                        *images.get_mut(img, y, x, ch) = v * gain + cfg.noise_std * rng.gauss();
                    }
                }
            }
        }
        Self { images, labels, num_classes: cfg.num_classes }
    }

    /// CIFAR-10-like shorthand: `num_images` 32×32×3 images over
    /// `num_classes` classes (pass 10 for the paper's setup).
    pub fn cifar_like(num_images: usize, num_classes: usize, rng: &mut AdrRng) -> Self {
        let cfg = SynthConfig { num_classes, ..SynthConfig::cifar_like(num_images) };
        Self::generate(&cfg, rng)
    }

    /// ImageNet-like shorthand at bench scale (64×64×3).
    pub fn imagenet_like(num_images: usize, num_classes: usize, rng: &mut AdrRng) -> Self {
        Self::generate(&SynthConfig::imagenet_like(num_images, num_classes), rng)
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-image `(h, w, c)`.
    pub fn image_shape(&self) -> (usize, usize, usize) {
        (self.images.height(), self.images.width(), self.images.channels())
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Borrow the full image tensor.
    pub fn images(&self) -> &Tensor4 {
        &self.images
    }

    /// Copies the images at `indices` into a batch.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather(&self, indices: &[usize]) -> (Tensor4, Vec<usize>) {
        let (h, w, c) = self.image_shape();
        let per = h * w * c;
        let mut out = Tensor4::zeros(indices.len(), h, w, c);
        let mut labels = Vec::with_capacity(indices.len());
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.len(), "index {idx} out of bounds");
            out.as_mut_slice()[i * per..(i + 1) * per]
                .copy_from_slice(&self.images.as_slice()[idx * per..(idx + 1) * per]);
            labels.push(self.labels[idx]);
        }
        (out, labels)
    }

    /// The `index`-th contiguous batch of `batch_size` images (wrapping at
    /// the end of the dataset).
    ///
    /// # Panics
    /// Panics when `batch_size` is zero.
    pub fn batch(&self, index: usize, batch_size: usize) -> (Tensor4, Vec<usize>) {
        assert!(batch_size > 0, "batch_size must be positive");
        let start = (index * batch_size) % self.len();
        let indices: Vec<usize> = (0..batch_size).map(|i| (start + i) % self.len()).collect();
        self.gather(&indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> SynthDataset {
        let cfg = SynthConfig {
            num_images: 40,
            num_classes: 4,
            height: 12,
            width: 12,
            channels: 3,
            smoothing_passes: 2,
            noise_std: 0.05,
            max_shift: 2,
            image_variability: 0.4,
        };
        SynthDataset::generate(&cfg, &mut AdrRng::seeded(seed))
    }

    #[test]
    fn shapes_and_labels_are_consistent() {
        let d = small(1);
        assert_eq!(d.len(), 40);
        assert_eq!(d.image_shape(), (12, 12, 3));
        assert!(d.labels().iter().all(|&l| l < 4));
        // All classes appear with 40 draws over 4 classes (overwhelmingly).
        let mut seen = [false; 4];
        for &l in d.labels() {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small(7);
        let b = small(7);
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.images().as_slice(), b.images().as_slice());
    }

    #[test]
    fn same_class_images_are_more_similar_than_cross_class() {
        let d = small(3);
        // Mean pixel L2 distance within class vs across classes.
        let dist = |i: usize, j: usize| -> f32 {
            let (h, w, c) = d.image_shape();
            let per = h * w * c;
            let a = &d.images().as_slice()[i * per..(i + 1) * per];
            let b = &d.images().as_slice()[j * per..(j + 1) * per];
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
        };
        let mut within = Vec::new();
        let mut across = Vec::new();
        for i in 0..d.len() {
            for j in (i + 1)..d.len() {
                if d.labels()[i] == d.labels()[j] {
                    within.push(dist(i, j));
                } else {
                    across.push(dist(i, j));
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&within) < mean(&across),
            "within {} vs across {}",
            mean(&within),
            mean(&across)
        );
    }

    #[test]
    fn images_are_locally_smooth() {
        // The key property for deep reuse: neighbouring pixels correlate.
        let d = small(4);
        let (h, w, c) = d.image_shape();
        let mut neighbour_diff = 0.0f32;
        let mut random_diff = 0.0f32;
        let mut rng = AdrRng::seeded(9);
        let mut count = 0.0;
        for img in 0..4 {
            for y in 0..h - 1 {
                for x in 0..w - 1 {
                    let a = d.images().get(img, y, x, 0);
                    neighbour_diff += (a - d.images().get(img, y, x + 1, 0)).abs();
                    let ry = rng.below(h);
                    let rx = rng.below(w);
                    random_diff += (a - d.images().get(img, ry, rx, 0)).abs();
                    count += 1.0;
                }
            }
        }
        let _ = c;
        assert!(
            neighbour_diff / count < random_diff / count,
            "adjacent pixels must correlate more than random pairs"
        );
    }

    #[test]
    fn batches_wrap_around() {
        let d = small(5);
        let (imgs, labels) = d.batch(0, 16);
        assert_eq!(imgs.batch(), 16);
        assert_eq!(labels.len(), 16);
        // Index far beyond the dataset still works.
        let (imgs2, _) = d.batch(100, 16);
        assert_eq!(imgs2.batch(), 16);
    }

    #[test]
    fn gather_picks_requested_rows() {
        let d = small(6);
        let (imgs, labels) = d.gather(&[3, 3, 7]);
        assert_eq!(imgs.batch(), 3);
        assert_eq!(labels[0], d.labels()[3]);
        assert_eq!(labels[1], d.labels()[3]);
        assert_eq!(labels[2], d.labels()[7]);
        assert_eq!(imgs.image(0), imgs.image(1));
    }

    #[test]
    fn cifar_like_has_paper_geometry() {
        let d = SynthDataset::cifar_like(8, 10, &mut AdrRng::seeded(8));
        assert_eq!(d.image_shape(), (32, 32, 3));
        assert_eq!(d.num_classes(), 10);
    }
}
