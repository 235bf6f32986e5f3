//! Inspect what the adaptive controller plans before training: per-layer
//! `{L, H}` ranges (Policies 1/2), the Policy-3 candidate schedule, and the
//! modelled cost of each stage — the paper's §V-A machinery made visible.
//!
//! Run with: `cargo run --release --example adaptive_introspection`

// Test/example code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::adaptive::controller::AdaptiveController;
use adaptive_deep_reuse::models::{alexnet, cifarnet, vgg19, ConvMode};
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::reuse::cost::{training_step_cost, CostParams};
use adaptive_deep_reuse::reuse::ReuseConv2d;

fn inspect(name: &str, mut net: Network, batch_size: usize) {
    println!("=== {name} (batch {batch_size}) ===");
    let controller = AdaptiveController::for_network(&mut net, batch_size, 6, 8, 0.01, 20).unwrap();
    for plan in controller.plans() {
        // Pull the layer's geometry for context.
        let layer = &net.layers()[plan.layer_index];
        let reuse = layer
            .as_any()
            .and_then(|a| a.downcast_ref::<ReuseConv2d>())
            .expect("plan points at a reuse layer");
        let geom = reuse.geom();
        let settings = plan.candidates.settings();
        println!(
            "  {} (K = {}, M = {}): {} stages, {:?} -> {:?}",
            layer.name(),
            geom.k(),
            reuse.out_channels(),
            settings.len(),
            settings.first().unwrap(),
            settings.last().unwrap(),
        );
        // Modelled relative step cost per stage, assuming a representative
        // remaining ratio (r_c = 0.1) — the ordering is what matters.
        let costs: Vec<String> = settings
            .iter()
            .map(|&(l, h)| {
                let p = CostParams { m: reuse.out_channels(), l, h, rc: 0.1, reuse_rate: 0.0 };
                format!("{:.2}", training_step_cost(&p, false))
            })
            .collect();
        println!("    schedule: {settings:?}");
        println!("    modelled step cost (rc = 0.1): [{}]", costs.join(", "));
    }
    println!();
}

fn main() {
    println!("adaptive controller introspection\n");
    let mut rng = AdrRng::seeded(1);
    inspect("cifarnet", cifarnet::bench_scale(10, ConvMode::reuse_default(), &mut rng), 16);
    inspect("alexnet", alexnet::bench_scale(10, ConvMode::reuse_default(), &mut rng), 8);
    inspect("vgg19", vgg19::bench_scale(10, ConvMode::reuse_default(), &mut rng), 8);
    println!("Reading: each layer starts at its most aggressive (cheapest) stage and");
    println!("walks towards precision; Policy 3 ordered the walk so every step is the");
    println!("smallest available increase in expected cost (Eqs. 22/23).");
}
