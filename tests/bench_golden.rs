//! The BENCH gate: both counter documents, rendered in-process, must equal
//! the committed `BENCH_train.json` / `BENCH_serve.json` byte for byte
//! (DESIGN.md §11.4). Equality subsumes schema and tolerance checks, and —
//! run in the debug and release profiles, on AVX hosts and (CI's
//! `test-portable` job) on one without — pins that both instantiations of
//! the lane kernels produce the counters of the commit that wrote the files.

// Test code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::bench::{serve_document, train_document};
use adaptive_deep_reuse::obs::Json;

fn assert_matches_committed(file: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let committed = std::fs::read_to_string(&path).unwrap();
    if committed == rendered {
        return;
    }
    let line = committed.lines().zip(rendered.lines()).position(|(c, r)| c != r);
    let line = line.unwrap_or_else(|| committed.lines().count().min(rendered.lines().count()));
    panic!(
        "{file} line {}: committed `{}`, rendered `{}` — if the change is intended, re-baseline \
         with `cargo run --release --bin adr -- bench` and commit",
        line + 1,
        committed.lines().nth(line).unwrap_or("<end of file>").trim(),
        rendered.lines().nth(line).unwrap_or("<end of file>").trim(),
    );
}

#[test]
fn train_document_matches_the_committed_baseline() {
    let (doc, losses) = train_document();
    // The pinned run must be one that learns, not one sitting at the loss
    // clamp: every step finite, the last below the first.
    assert!(losses.iter().all(|l| l.is_finite()), "non-finite loss in {losses:?}");
    assert!(losses.last() < losses.first(), "loss did not fall: {losses:?}");
    // README: the paper's modelled step cost and the metered FLOP ratio
    // "agree to a few percent" — here, within 0.02 on every reuse layer.
    for layer in doc.get("layers").and_then(Json::as_arr).unwrap() {
        let field = |key: &str| layer.get(key).and_then(Json::as_f64).unwrap();
        let (modelled, metered) = (field("modelled_cost"), field("flop_ratio"));
        assert!((modelled - metered).abs() <= 0.02, "{modelled} vs {metered} in {layer:?}");
    }
    let rendered = doc.render_pretty();
    assert_eq!(train_document().0.render_pretty(), rendered, "two renders in one process differ");
    assert_matches_committed("BENCH_train.json", &rendered);
}

#[test]
fn serve_document_matches_the_committed_baseline() {
    let doc = serve_document().unwrap();
    // Serving never does more multiply–adds than the dense network would:
    // stage 0 is the dense code path and every other rung is below it.
    for (name, model) in doc.get("models").and_then(Json::as_obj).unwrap() {
        let field = |key: &str| model.get(key).and_then(Json::as_u64).unwrap();
        assert!(field("flops_actual") <= field("flops_exact"), "model {name}: {model:?}");
    }
    let rendered = doc.render_pretty();
    assert_eq!(
        serve_document().unwrap().render_pretty(),
        rendered,
        "two renders in one process differ"
    );
    assert_matches_committed("BENCH_serve.json", &rendered);
}
