//! Shared experiment plumbing.

use adaptive_deep_reuse::source::DatasetSource;
use adr_clustering::kmeans::{kmeans, KMeansConfig};
use adr_core::trainer::BatchSource;
use adr_nn::conv::Conv2d;
use adr_nn::softmax::softmax_cross_entropy;
use adr_nn::{Mode, Network, Sgd};
use adr_reuse::{ReuseConfig, ReuseConv2d};
use adr_tensor::im2col::im2col;
use adr_tensor::matrix::Matrix;
use adr_tensor::rng::AdrRng;
use adr_tensor::Tensor4;

use adr_data::synth::SynthDataset;

/// Builds a synthetic dataset matching a network's input shape, with
/// explicit smoothness/variability (the two knobs that set the task
/// difficulty and the neuron-vector redundancy level).
pub fn synth_custom(
    (h, w, c): (usize, usize, usize),
    num_images: usize,
    num_classes: usize,
    smoothing_passes: usize,
    image_variability: f32,
    rng: &mut AdrRng,
) -> SynthDataset {
    let cfg = adr_data::synth::SynthConfig {
        num_images,
        num_classes,
        height: h,
        width: w,
        channels: c,
        smoothing_passes,
        noise_std: 0.08,
        max_shift: (h / 10).max(1),
        image_variability,
    };
    SynthDataset::generate(&cfg, rng)
}

/// [`synth_custom`] with the default inference-experiment difficulty.
pub fn synth_for(
    shape: (usize, usize, usize),
    num_images: usize,
    num_classes: usize,
    rng: &mut AdrRng,
) -> SynthDataset {
    synth_custom(shape, num_images, num_classes, 2, 0.45, rng)
}

/// Trains a dense network for `iterations` SGD steps over the source's
/// training stream — the "trained model" every inference experiment starts
/// from (§VI-A trains normally, then applies reuse to inference only).
pub fn train_dense(net: &mut Network, source: &mut DatasetSource, iterations: usize, lr: f32) {
    let mut sgd = Sgd::new(adr_nn::LrSchedule::InverseTime { base: lr, rate: 0.005 }, 0.9, 0.0)
        .with_clip_norm(5.0);
    for iter in 0..iterations {
        let (images, labels) = source.batch(iter % source.num_batches());
        net.train_batch(&images, &labels, &mut sgd);
    }
}

/// Clustering scope for the k-means verification (§III-B "Cluster Scope").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Cluster each image's rows separately.
    SingleInput,
    /// Cluster all rows of the batch together.
    SingleBatch,
}

impl Scope {
    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Scope::SingleInput => "single-input",
            Scope::SingleBatch => "single-batch",
        }
    }
}

/// Runs one convolution with *k-means* clustered reuse (the Fig. 7
/// verification path): unfold, cluster rows into `k` clusters at the given
/// scope, compute centroid outputs, scatter to members. Returns the output
/// tensor and the achieved remaining ratio `r_c`.
///
/// # Panics
/// Panics when `input` is incompatible with the convolution's geometry.
pub fn kmeans_conv_forward(
    conv: &Conv2d,
    input: &Tensor4,
    k: usize,
    scope: Scope,
    rng: &mut AdrRng,
) -> (Tensor4, f64) {
    let geom = conv.geom();
    let unfolded = im2col(input, geom);
    let n = unfolded.rows();
    let m = conv.out_channels();
    let mut output = Matrix::zeros(n, m);
    let cfg = KMeansConfig { k, max_iters: 15, tolerance: 1e-3 };
    let mut total_clusters = 0usize;
    match scope {
        Scope::SingleBatch => {
            let result = kmeans(&unfolded, &cfg, rng);
            let y_c = result.centroids.matmul(conv.weight());
            result.table.scatter_add(&y_c, &mut output);
            total_clusters = result.table.num_clusters();
        }
        Scope::SingleInput => {
            let per = geom.rows_per_image();
            for b in 0..input.batch() {
                let block = sub_rows(&unfolded, b * per, (b + 1) * per);
                let result = kmeans(&block, &cfg, rng);
                let y_c = result.centroids.matmul(conv.weight());
                let mut block_out = Matrix::zeros(per, m);
                result.table.scatter_add(&y_c, &mut block_out);
                output.set_row_slice(b * per, &block_out);
                total_clusters += result.table.num_clusters();
            }
        }
    }
    output.add_row_bias(conv.bias());
    let rc = total_clusters as f64 / n as f64;
    let out = Tensor4::from_vec(input.batch(), geom.out_h(), geom.out_w(), m, output.into_vec())
        .expect("shape arithmetic is consistent");
    (out, rc)
}

fn sub_rows(m: &Matrix, start: usize, end: usize) -> Matrix {
    m.row_slice(start, end)
}

/// Evaluates the network on `(images, labels)` with layer `layer_idx`
/// replaced by a k-means clustered forward. Returns `(accuracy, r_c)`.
///
/// # Panics
/// Panics if `layer_idx` is not a dense [`Conv2d`].
pub fn evaluate_with_kmeans_conv(
    net: &mut Network,
    layer_idx: usize,
    images: &Tensor4,
    labels: &[usize],
    k: usize,
    scope: Scope,
    rng: &mut AdrRng,
) -> (f32, f64) {
    let mut x = images.clone();
    let mut rc = 1.0f64;
    for i in 0..net.len() {
        if i == layer_idx {
            let layer = &net.layers()[i];
            let conv = layer
                .as_any()
                .and_then(|a| a.downcast_ref::<Conv2d>())
                .expect("layer_idx must point at a dense Conv2d");
            let (y, got_rc) = kmeans_conv_forward(conv, &x, k, scope, rng);
            rc = got_rc;
            x = y;
        } else {
            x = net.layers_mut()[i].forward(&x, Mode::Eval);
        }
    }
    let out = softmax_cross_entropy(&x, labels);
    let hits = out.predictions.iter().zip(labels).filter(|(p, l)| p == l).count();
    (hits as f32 / labels.len() as f32, rc)
}

/// Replaces the dense convolution at `layer_idx` with a [`ReuseConv2d`]
/// carrying the same weights and the given config.
///
/// # Panics
/// Panics if the layer is not a dense [`Conv2d`].
pub fn swap_in_reuse(net: &mut Network, layer_idx: usize, config: ReuseConfig, rng: &mut AdrRng) {
    let conv = net.layers()[layer_idx]
        .as_any()
        .and_then(|a| a.downcast_ref::<Conv2d>())
        .expect("layer_idx must point at a dense Conv2d");
    let reuse = ReuseConv2d::from_dense(conv, config, rng);
    net.layers_mut()[layer_idx] = Box::new(reuse);
}

/// Retunes the [`ReuseConv2d`] at `layer_idx`.
///
/// # Panics
/// Panics if the layer is not a [`ReuseConv2d`].
pub fn set_reuse_config(net: &mut Network, layer_idx: usize, config: ReuseConfig) {
    let layer = &mut net.layers_mut()[layer_idx];
    let reuse = layer
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<ReuseConv2d>())
        .expect("layer_idx must point at a ReuseConv2d");
    reuse.set_config(config);
}

/// Reads the reuse stats of the [`ReuseConv2d`] at `layer_idx`.
///
/// # Panics
/// Panics if the layer is not a [`ReuseConv2d`].
pub fn reuse_stats(net: &Network, layer_idx: usize) -> adr_reuse::ReuseStats {
    net.layers()[layer_idx]
        .as_any()
        .and_then(|a| a.downcast_ref::<ReuseConv2d>())
        .expect("layer_idx must point at a ReuseConv2d")
        .stats()
}

/// Mean across-batch reuse rate of the [`ReuseConv2d`] at `layer_idx`.
///
/// # Panics
/// Panics when `layer_idx` does not point at a [`ReuseConv2d`].
pub fn reuse_rate(net: &Network, layer_idx: usize) -> f64 {
    net.layers()[layer_idx]
        .as_any()
        .and_then(|a| a.downcast_ref::<ReuseConv2d>())
        .expect("layer_idx must point at a ReuseConv2d")
        .mean_reuse_rate()
}

/// Writes rows as a CSV file (creating parent directories), so experiment
/// outputs can be plotted directly. The file is replaced atomically
/// ([`adr_nn::durable::write_atomic`]): a killed run leaves the previous
/// table or the new one, never a torn one.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_csv(
    path: impl AsRef<std::path::Path>,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut csv = headers.join(",") + "\n";
    for row in rows {
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    adr_nn::durable::write_atomic(path, csv.as_bytes())
}

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}", w = w)).collect();
        println!("| {} |", joined.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_nn::Layer as _;

    /// A bench-scale dense CifarNet trained `train_iters` steps on 160
    /// seeded synthetic images, with its data source.
    fn trained_dense_cifarnet(seed: u64, train_iters: usize) -> (Network, DatasetSource) {
        let mut rng = AdrRng::seeded(seed);
        let dataset = synth_for((16, 16, 3), 160, 4, &mut rng);
        let mut source = DatasetSource::new(dataset, 16, 32);
        let mut net = adr_models::cifarnet::bench_scale(4, adr_models::ConvMode::Dense, &mut rng);
        train_dense(&mut net, &mut source, train_iters, 0.03);
        (net, source)
    }

    #[test]
    fn dataset_source_separates_probe_from_training() {
        let mut rng = AdrRng::seeded(1);
        let dataset = SynthDataset::cifar_like(48, 4, &mut rng);
        let mut source = DatasetSource::new(dataset, 8, 16);
        assert_eq!(source.num_batches(), 4);
        let (probe_imgs, probe_labels) = source.probe();
        assert_eq!(probe_imgs.batch(), 16);
        assert_eq!(probe_labels.len(), 16);
        let (train_imgs, _) = source.batch(0);
        assert_eq!(train_imgs.batch(), 8);
    }

    #[test]
    fn kmeans_forward_with_k_equal_n_is_nearly_exact() {
        let mut rng = AdrRng::seeded(2);
        let geom = adr_tensor::im2col::ConvGeom::new(8, 8, 2, 3, 3, 1, 0).unwrap();
        let mut conv = Conv2d::new("c", geom, 4, &mut rng);
        let x = Tensor4::from_fn(1, 8, 8, 2, |_, _, _, _| rng.gauss());
        let dense = conv.forward(&x, Mode::Eval);
        let (approx, rc) = kmeans_conv_forward(&conv, &x, 36, Scope::SingleBatch, &mut rng);
        assert!(rc > 0.9, "rc {rc}");
        let diff = approx
            .as_slice()
            .iter()
            .zip(dense.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-2, "diff {diff}");
    }

    #[test]
    fn kmeans_single_input_scope_clusters_per_image() {
        let mut rng = AdrRng::seeded(3);
        let geom = adr_tensor::im2col::ConvGeom::new(6, 6, 1, 3, 3, 1, 0).unwrap();
        let conv = Conv2d::new("c", geom, 2, &mut rng);
        let x = Tensor4::from_fn(3, 6, 6, 1, |_, _, _, _| rng.gauss());
        let (_, rc) = kmeans_conv_forward(&conv, &x, 4, Scope::SingleInput, &mut rng);
        // 3 images × ≤4 clusters over 48 rows.
        assert!(rc <= 12.0 / 48.0 + 1e-9, "rc {rc}");
    }

    #[test]
    fn swap_in_reuse_then_retune_round_trips() {
        let (mut net, mut source) = trained_dense_cifarnet(4, 10);
        swap_in_reuse(&mut net, 0, ReuseConfig::new(5, 8, false), &mut AdrRng::seeded(5));
        let (images, labels) = source.probe();
        net.evaluate(&images, &labels);
        let stats = reuse_stats(&net, 0);
        assert!(stats.rows > 0);
        set_reuse_config(&mut net, 0, ReuseConfig::new(10, 12, true));
        net.evaluate(&images, &labels);
        assert!(reuse_rate(&net, 0) >= 0.0);
    }

    #[test]
    fn write_csv_round_trips_rows() {
        let dir = std::env::temp_dir().join("adr_csv_test");
        let path = dir.join("out.csv");
        let rows = vec![
            vec!["a".to_string(), "1.5".to_string()],
            vec!["b".to_string(), "2.5".to_string()],
        ];
        write_csv(&path, &["name", "value"], &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "name,value\na,1.5\nb,2.5\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn train_dense_improves_over_initial() {
        let (mut net, mut source) = trained_dense_cifarnet(6, 120);
        let (images, labels) = source.probe();
        let acc = net.evaluate(&images, &labels).accuracy;
        assert!(acc > 0.5, "trained probe accuracy {acc}");
    }
}
