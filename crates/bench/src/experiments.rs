//! The experiments of §VI, each returning structured rows.
//!
//! Every function takes a `quick` flag: `true` shrinks datasets/iteration
//! counts for use in tests, `false` runs the full bench-scale experiment
//! (what the `src/bin/*` binaries use).

use adaptive_deep_reuse::source::DatasetSource;
use adr_core::report::TrainReport;
use adr_core::trainer::{Trainer, TrainerConfig};
use adr_core::Strategy;
use adr_models::ConvMode;
use adr_nn::{LrSchedule, Network, Sgd};
use adr_reuse::{ReuseConfig, ReuseConv2d};
use adr_tensor::rng::AdrRng;

use crate::harness::{
    evaluate_with_kmeans_conv, reuse_stats, set_reuse_config, swap_in_reuse, train_dense, Scope,
};
pub use crate::harness::{synth_custom, synth_for};

// ---------------------------------------------------------------------------
// Fig. 7 — k-means verification of neuron-vector similarity
// ---------------------------------------------------------------------------

/// One point of the Fig. 7 r_c–accuracy curves.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Network name.
    pub network: &'static str,
    /// Convolutional layer the clustering is applied to.
    pub layer: &'static str,
    /// Clustering scope label.
    pub scope: &'static str,
    /// Requested cluster count `k`.
    pub k: usize,
    /// Achieved remaining ratio.
    pub rc: f64,
    /// Inference accuracy with clustered reuse on that layer.
    pub accuracy: f32,
    /// Accuracy of the unmodified network (the "original accuracy" line).
    pub baseline_accuracy: f32,
}

/// Regenerates Fig. 7: k-means clustering applied to the inference of a
/// trained CifarNet (conv1) and AlexNet (conv3), at single-input and
/// single-batch scope, sweeping the cluster count.
pub fn fig7(quick: bool) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    let ks: &[usize] = if quick { &[2, 16] } else { &[1, 2, 4, 8, 16, 32, 64, 128] };

    // CifarNet conv1 (layer index 0).
    {
        let mut rng = AdrRng::seeded(701);
        let classes = if quick { 4 } else { 10 };
        let dataset =
            synth_custom((16, 16, 3), if quick { 80 } else { 480 }, classes, 2, 0.5, &mut rng);
        let mut source = DatasetSource::new(dataset, 16, if quick { 32 } else { 48 });
        let mut net = adr_models::cifarnet::bench_scale(classes, ConvMode::Dense, &mut rng);
        train_dense(&mut net, &mut source, if quick { 40 } else { 400 }, 0.02);
        let (images, labels) = adr_core::trainer::BatchSource::probe(&mut source);
        let baseline = net.evaluate(&images, &labels).accuracy;
        for &scope in &[Scope::SingleInput, Scope::SingleBatch] {
            for &k in ks {
                let (acc, rc) =
                    evaluate_with_kmeans_conv(&mut net, 0, &images, &labels, k, scope, &mut rng);
                rows.push(Fig7Row {
                    network: "cifarnet",
                    layer: "conv1",
                    scope: scope.label(),
                    k,
                    rc,
                    accuracy: acc,
                    baseline_accuracy: baseline,
                });
            }
        }
    }

    // AlexNet conv3 (layer index 6).
    if !quick {
        let mut rng = AdrRng::seeded(702);
        let dataset = synth_custom((64, 64, 3), 240, 4, 2, 0.5, &mut rng);
        let mut source = DatasetSource::new(dataset, 8, 32);
        let mut net = adr_models::alexnet::bench_scale(4, ConvMode::Dense, &mut rng);
        train_dense(&mut net, &mut source, 400, 0.02);
        let (images, labels) = adr_core::trainer::BatchSource::probe(&mut source);
        let baseline = net.evaluate(&images, &labels).accuracy;
        for &scope in &[Scope::SingleInput, Scope::SingleBatch] {
            for &k in ks {
                let (acc, rc) =
                    evaluate_with_kmeans_conv(&mut net, 6, &images, &labels, k, scope, &mut rng);
                rows.push(Fig7Row {
                    network: "alexnet",
                    layer: "conv3",
                    scope: scope.label(),
                    k,
                    rc,
                    accuracy: acc,
                    baseline_accuracy: baseline,
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 8 — LSH r_c–accuracy per {L, H}
// ---------------------------------------------------------------------------

/// One point of the Fig. 8 curves.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Network name.
    pub network: &'static str,
    /// Layer under reuse.
    pub layer: &'static str,
    /// Sub-vector length.
    pub l: usize,
    /// Hash count.
    pub h: usize,
    /// Measured remaining ratio.
    pub rc: f64,
    /// Inference accuracy.
    pub accuracy: f32,
    /// Unmodified network accuracy.
    pub baseline_accuracy: f32,
}

/// Descending sub-vector lengths for a layer: `K`, then `kw·{32,16,8,4,2,1}`.
fn l_sweep(k: usize, kw: usize, quick: bool) -> Vec<usize> {
    let mut ls = vec![k];
    let multipliers: &[usize] = if quick { &[4, 1] } else { &[32, 16, 8, 4, 2, 1] };
    for &m in multipliers {
        let l = kw * m;
        if l < k && !ls.contains(&l) {
            ls.push(l);
        }
    }
    ls
}

/// Regenerates Fig. 8: for conv2 of CifarNet, AlexNet and VGG-19, sweep the
/// sub-vector length (curves) and the number of hash functions (dots along
/// each curve), recording r_c and inference accuracy.
///
/// # Panics
/// Panics when a model builder produces geometry the forward pass rejects
/// (never for the shipped cases).
pub fn fig8(quick: bool) -> Vec<Fig8Row> {
    let hs: &[usize] = if quick { &[4, 10] } else { &[2, 4, 6, 8, 12, 16, 24, 32] };
    let mut rows = Vec::new();

    // (name, layer label, layer index, kw, build + train)
    struct Case {
        network: &'static str,
        layer: &'static str,
        layer_idx: usize,
        kernel_w: usize,
        net: Network,
        source: DatasetSource,
    }

    let mut cases = Vec::new();
    {
        let mut rng = AdrRng::seeded(801);
        let classes = if quick { 4 } else { 10 };
        let dataset =
            synth_custom((16, 16, 3), if quick { 80 } else { 480 }, classes, 2, 0.5, &mut rng);
        let mut source = DatasetSource::new(dataset, 16, if quick { 32 } else { 48 });
        let mut net = adr_models::cifarnet::bench_scale(classes, ConvMode::Dense, &mut rng);
        train_dense(&mut net, &mut source, if quick { 40 } else { 400 }, 0.02);
        cases.push(Case {
            network: "cifarnet",
            layer: "conv2",
            layer_idx: 3,
            kernel_w: 5,
            net,
            source,
        });
    }
    if !quick {
        let mut rng = AdrRng::seeded(802);
        let dataset = synth_custom((64, 64, 3), 240, 4, 2, 0.5, &mut rng);
        let mut source = DatasetSource::new(dataset, 8, 32);
        let mut net = adr_models::alexnet::bench_scale(4, ConvMode::Dense, &mut rng);
        train_dense(&mut net, &mut source, 400, 0.02);
        cases.push(Case {
            network: "alexnet",
            layer: "conv2",
            layer_idx: 3,
            kernel_w: 5,
            net,
            source,
        });
        let mut rng = AdrRng::seeded(803);
        let dataset = synth_custom((32, 32, 3), 240, 4, 2, 0.5, &mut rng);
        let mut source = DatasetSource::new(dataset, 8, 32);
        let mut net = adr_models::vgg19::bench_scale(4, ConvMode::Dense, &mut rng);
        train_dense(&mut net, &mut source, 500, 0.025);
        cases.push(Case {
            network: "vgg19",
            layer: "conv2_1",
            layer_idx: 5,
            kernel_w: 3,
            net,
            source,
        });
    }

    for case in &mut cases {
        let (images, labels) = adr_core::trainer::BatchSource::probe(&mut case.source);
        let baseline = case.net.evaluate(&images, &labels).accuracy;
        // Determine K by peeking at the dense layer.
        let k = case.net.layers()[case.layer_idx]
            .as_any()
            .and_then(|a| a.downcast_ref::<adr_nn::conv::Conv2d>())
            .expect("case points at a dense conv")
            .geom()
            .k();
        let mut rng = AdrRng::seeded(810);
        let mut first = true;
        for l in l_sweep(k, case.kernel_w, quick) {
            for &h in hs {
                let cfg = ReuseConfig::new(l, h, false);
                if first {
                    swap_in_reuse(&mut case.net, case.layer_idx, cfg, &mut rng);
                    first = false;
                } else {
                    set_reuse_config(&mut case.net, case.layer_idx, cfg);
                }
                let acc = case.net.evaluate(&images, &labels).accuracy;
                let stats = reuse_stats(&case.net, case.layer_idx);
                rows.push(Fig8Row {
                    network: case.network,
                    layer: case.layer,
                    l,
                    h,
                    rc: stats.avg_remaining_ratio,
                    accuracy: acc,
                    baseline_accuracy: baseline,
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Table III — cluster reuse on/off
// ---------------------------------------------------------------------------

/// One row of Table III.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Layer under reuse.
    pub layer: &'static str,
    /// Sub-vector length.
    pub l: usize,
    /// Hash count.
    pub h: usize,
    /// Mean accuracy with `CR = 0`.
    pub acc_cr0: f32,
    /// Mean accuracy with `CR = 1`.
    pub acc_cr1: f32,
    /// Mean reuse rate over the CR = 1 stream.
    pub reuse_rate: f64,
}

/// Regenerates Table III: inference accuracy of CifarNet with cluster reuse
/// off vs on, for the paper's per-layer `{L, H}` choices (conv1: {5, 15},
/// conv2: {10, 10}).
pub fn table3(quick: bool) -> Vec<Table3Row> {
    let mut rng = AdrRng::seeded(301);
    let classes = if quick { 4 } else { 10 };
    let dataset =
        synth_custom((16, 16, 3), if quick { 96 } else { 480 }, classes, 2, 0.5, &mut rng);
    let mut source = DatasetSource::new(dataset, 16, 32);
    let mut net = adr_models::cifarnet::bench_scale(classes, ConvMode::Dense, &mut rng);
    train_dense(&mut net, &mut source, if quick { 40 } else { 400 }, 0.02);

    let num_eval_batches = if quick { 4 } else { 12 };
    let cases: [(&'static str, usize, usize, usize); 2] =
        [("conv1", 0, 5, 15), ("conv2", 3, 10, 10)];
    let mut rows = Vec::new();
    for (layer, idx, l, h) in cases {
        let mut swapped = false;
        let acc_for = |net: &mut Network,
                       source: &mut DatasetSource,
                       cr: bool,
                       swapped: &mut bool,
                       rng: &mut AdrRng|
         -> (f32, f64) {
            let cfg = ReuseConfig::new(l, h, cr);
            if *swapped {
                set_reuse_config(net, idx, cfg);
            } else {
                swap_in_reuse(net, idx, cfg, rng);
                *swapped = true;
            }
            let mut total = 0.0;
            for b in 0..num_eval_batches {
                let (images, labels) = adr_core::trainer::BatchSource::batch(source, b);
                total += net.evaluate(&images, &labels).accuracy;
            }
            let rate = crate::harness::reuse_rate(net, idx);
            (total / num_eval_batches as f32, rate)
        };
        let (acc_cr0, _) = acc_for(&mut net, &mut source, false, &mut swapped, &mut rng);
        let (acc_cr1, rate) = acc_for(&mut net, &mut source, true, &mut swapped, &mut rng);
        rows.push(Table3Row { layer, l, h, acc_cr0, acc_cr1, reuse_rate: rate });
        // Restore a dense conv for the next case by rebuilding is
        // unnecessary: the next case touches a different layer, and this
        // layer keeps its (weight-preserving) reuse wrapper with CR = 1.
        // Reset it to CR = 0 so the second row isn't affected.
        set_reuse_config(&mut net, idx, ReuseConfig::new(l, h, false));
    }
    rows
}

// ---------------------------------------------------------------------------
// §VI-B1 — reuse-rate growth over batches
// ---------------------------------------------------------------------------

/// Reuse rate of one completed batch.
#[derive(Clone, Debug)]
pub struct ReuseRateRow {
    /// Batch index (0-based).
    pub batch: usize,
    /// Mean reuse rate `R` for that batch.
    pub reuse_rate: f64,
}

/// Regenerates the §VI-B1 observation that with cluster reuse the per-batch
/// reuse rate climbs towards ~1 after a couple of dozen batches.
///
/// # Panics
/// Panics when the probed layer is not a [`ReuseConv2d`] (never for the
/// network built here).
pub fn reuse_rate_growth(quick: bool) -> Vec<ReuseRateRow> {
    let mut rng = AdrRng::seeded(311);
    let classes = if quick { 4 } else { 10 };
    let dataset =
        synth_custom((16, 16, 3), if quick { 96 } else { 480 }, classes, 2, 0.5, &mut rng);
    let mut source = DatasetSource::new(dataset, 16, 32);
    let mut net = adr_models::cifarnet::bench_scale(classes, ConvMode::Dense, &mut rng);
    train_dense(&mut net, &mut source, if quick { 30 } else { 300 }, 0.02);
    swap_in_reuse(&mut net, 0, ReuseConfig::new(5, 12, true), &mut rng);

    let num_batches = if quick { 6 } else { 24 };
    (0..num_batches)
        .map(|batch| {
            let (images, labels) = adr_core::trainer::BatchSource::batch(&mut source, batch % 8);
            net.evaluate(&images, &labels);
            // The layer's rate is the in-flight batch's: this batch's.
            let reuse_rate = net.layers()[0]
                .as_any()
                .and_then(|a| a.downcast_ref::<ReuseConv2d>())
                .expect("layer 0 is the reuse conv")
                .mean_reuse_rate();
            ReuseRateRow { batch, reuse_rate }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table IV — end-to-end training-time savings of the three strategies
// ---------------------------------------------------------------------------

/// One row of Table IV (plus the §VI-B2 iteration counts).
#[derive(Clone, Debug)]
pub struct Table4Row {
    /// Network name.
    pub network: &'static str,
    /// Strategy name.
    pub strategy: String,
    /// Iterations executed.
    pub iterations: usize,
    /// First iteration at which probe accuracy reached the (moderate)
    /// reference target — computed post-hoc from the accuracy history, so
    /// every run trains the full budget (the long-training regime the paper
    /// operates in).
    pub iterations_to_target: Option<usize>,
    /// Final probe accuracy.
    pub final_accuracy: f32,
    /// Fraction of dense multiply–adds avoided.
    pub flop_savings: f64,
    /// Wall-clock seconds.
    pub wall_time_s: f64,
    /// `1 − t/t_baseline` for the same network (0 for the baseline row).
    pub time_savings: f64,
}

/// Per-network Table IV experiment configuration.
struct Table4Case {
    network: &'static str,
    input: (usize, usize, usize),
    build: fn(usize, ConvMode, &mut AdrRng) -> Network,
    batch_size: usize,
    max_iterations: usize,
    fixed_l: usize,
    fixed_h: usize,
    lr: f32,
    /// Task difficulty: classes, template smoothing, per-image variability.
    classes: usize,
    smoothing: usize,
    variability: f32,
}

/// Regenerates Table IV: trains each network with the dense baseline and
/// strategies 1–3, reporting wall time, FLOP savings and iteration counts.
pub fn table4(quick: bool) -> Vec<Table4Row> {
    let cases = [
        Table4Case {
            network: "cifarnet",
            input: (16, 16, 3),
            build: adr_models::cifarnet::bench_scale,
            batch_size: 16,
            max_iterations: if quick { 40 } else { 800 },
            fixed_l: 10,
            fixed_h: 10,
            lr: 0.015,
            classes: if quick { 4 } else { 10 },
            smoothing: 1,
            variability: 0.6,
        },
        Table4Case {
            network: "alexnet",
            input: (64, 64, 3),
            build: adr_models::alexnet::bench_scale,
            batch_size: 16,
            max_iterations: if quick { 15 } else { 500 },
            fixed_l: 9,
            fixed_h: 12,
            lr: 0.015,
            classes: 4,
            smoothing: 3,
            variability: 0.4,
        },
        Table4Case {
            network: "vgg19",
            input: (32, 32, 3),
            build: adr_models::vgg19::bench_scale,
            batch_size: 16,
            max_iterations: if quick { 15 } else { 500 },
            fixed_l: 9,
            fixed_h: 12,
            lr: 0.02,
            classes: 4,
            smoothing: 3,
            variability: 0.4,
        },
    ];
    let cases: &[Table4Case] = if quick { &cases[..1] } else { &cases[..] };

    let mut rows = Vec::new();
    for case in cases {
        let strategies = [
            (ConvMode::Dense, Strategy::baseline()),
            (
                ConvMode::Reuse(ReuseConfig::new(case.fixed_l, case.fixed_h, false)),
                Strategy::fixed(case.fixed_l, case.fixed_h),
            ),
            (ConvMode::reuse_default(), Strategy::adaptive()),
            (
                ConvMode::Reuse(ReuseConfig::new(case.fixed_l, case.fixed_h, true)),
                Strategy::cluster_reuse(case.fixed_l, case.fixed_h),
            ),
        ];
        let mut baseline_time = None;
        // The reference target is set from the baseline run's achieved
        // accuracy so "iterations to target" is meaningful for every
        // strategy (the paper trains everything to the same accuracy).
        let mut reference_target = 0.5f32;
        for (mode, strategy) in strategies {
            let report = run_one(case, mode, strategy, quick);
            let time_savings =
                baseline_time.map(|t| 1.0 - report.wall_time.as_secs_f64() / t).unwrap_or(0.0);
            if baseline_time.is_none() {
                baseline_time = Some(report.wall_time.as_secs_f64());
                reference_target = (report.final_accuracy * 0.8).max(0.3);
            }
            let iterations_to_target = report
                .accuracy_history
                .iter()
                .find(|(_, acc)| *acc >= reference_target)
                .map(|(iter, _)| *iter + 1);
            rows.push(Table4Row {
                network: case.network,
                strategy: report.strategy.clone(),
                iterations: report.iterations_run,
                iterations_to_target,
                final_accuracy: report.final_accuracy,
                flop_savings: report.flop_savings(),
                wall_time_s: report.wall_time.as_secs_f64(),
                time_savings,
            });
        }
    }
    rows
}

fn run_one(case: &Table4Case, mode: ConvMode, strategy: Strategy, quick: bool) -> TrainReport {
    // Same seed per network: identical data and (per-topology) identical
    // weight initialisation across strategies.
    let mut rng = AdrRng::seeded(4000 + case.network.len() as u64);
    let classes = if quick { 4 } else { case.classes };
    // Task difficulty is tuned per network so the dense baseline needs
    // hundreds of iterations — the paper's long-training regime, where
    // per-step savings dominate (CifarNet trains for 24K+ iterations there).
    let dataset = synth_custom(
        case.input,
        if quick { 80 } else { 480 },
        classes,
        case.smoothing,
        case.variability,
        &mut rng,
    );
    let mut source = DatasetSource::new(dataset, case.batch_size, 32);
    let mut net = (case.build)(classes, mode, &mut rng);
    let trainer = Trainer::new(TrainerConfig {
        max_iterations: case.max_iterations,
        target_accuracy: None, // full budget; targets computed post-hoc
        eval_every: 10,
        plateau_patience: 10,
        plateau_min_delta: 0.01,
        plateau_warmup: 25,
        max_h_values: 5,
    });
    let mut sgd = Sgd::new(LrSchedule::InverseTime { base: case.lr, rate: 0.005 }, 0.9, 0.0)
        .with_clip_norm(5.0);
    trainer
        .train(&mut net, strategy, &mut source, &mut sgd)
        .expect("bench networks always match their strategy")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_quick_produces_both_scopes() {
        let rows = fig7(true);
        assert!(rows.iter().any(|r| r.scope == "single-input"));
        assert!(rows.iter().any(|r| r.scope == "single-batch"));
        for r in &rows {
            assert!(r.rc > 0.0 && r.rc <= 1.0, "rc {}", r.rc);
            assert!((0.0..=1.0).contains(&r.accuracy));
        }
    }

    #[test]
    fn fig7_quick_accuracy_improves_with_more_clusters() {
        let rows = fig7(true);
        // Within the single-batch scope, accuracy at the largest k should be
        // at least that at the smallest k (weak monotonicity in expectation).
        let batch_rows: Vec<_> = rows.iter().filter(|r| r.scope == "single-batch").collect();
        let lo = batch_rows.iter().find(|r| r.k == 2).unwrap();
        let hi = batch_rows.iter().find(|r| r.k == 16).unwrap();
        assert!(hi.accuracy >= lo.accuracy - 0.15, "hi {} lo {}", hi.accuracy, lo.accuracy);
        assert!(hi.rc >= lo.rc);
    }

    #[test]
    fn fig8_quick_rc_grows_with_h() {
        let rows = fig8(true);
        assert!(!rows.is_empty());
        // Group by L; within a curve, larger H must give larger (or equal) rc.
        let l_of_first = rows[0].l;
        let curve: Vec<_> = rows.iter().filter(|r| r.l == l_of_first).collect();
        assert!(curve.len() >= 2);
        assert!(curve.last().unwrap().rc >= curve.first().unwrap().rc, "rc must grow with H");
    }

    #[test]
    fn table3_quick_has_two_rows_with_sane_values() {
        let rows = table3(true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.acc_cr0));
            assert!((0.0..=1.0).contains(&r.acc_cr1));
            assert!(r.reuse_rate >= 0.0 && r.reuse_rate <= 1.0);
        }
        assert_eq!(rows[0].layer, "conv1");
        assert_eq!(rows[1].layer, "conv2");
    }

    #[test]
    fn reuse_rate_quick_grows() {
        let rows = reuse_rate_growth(true);
        assert!(rows.len() >= 4);
        let first = rows.first().unwrap().reuse_rate;
        let last = rows.last().unwrap().reuse_rate;
        assert!(last > first, "reuse rate should grow: {first} -> {last}");
        assert!(last > 0.5, "late batches should mostly reuse, got {last}");
    }

    #[test]
    fn table4_quick_runs_all_strategies_on_cifarnet() {
        let rows = table4(true);
        assert_eq!(rows.len(), 4);
        let names: Vec<_> = rows.iter().map(|r| r.strategy.as_str()).collect();
        assert!(names.contains(&"baseline"));
        assert!(names.contains(&"strategy2-adaptive"));
        // Reuse strategies must save FLOPs against the dense baseline.
        for r in rows.iter().filter(|r| r.strategy != "baseline") {
            assert!(r.flop_savings > 0.0, "{} saved {}", r.strategy, r.flop_savings);
        }
    }
}
