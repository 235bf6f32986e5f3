//! The `adr` binary's argument checks: a numeric knob outside the range the
//! library asserts is a usage error (`error: …` plus the usage text, exit
//! code 1) and never reaches the assertion (a panic exits with 101). Plus
//! one happy path: `adr similarity`'s pinned remaining ratio.

// Test code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use std::process::Command;

#[test]
fn out_of_range_knobs_are_usage_errors_not_panics() {
    let cases: [(&[&str], &str); 9] = [
        (&["train", "--hashes", "0"], "option --hashes: must be in 1..=64, got 0"),
        (&["train", "--hashes", "65"], "option --hashes: must be in 1..=64, got 65"),
        (&["train", "--sub-vector", "0"], "option --sub-vector: must be at least 1, got 0"),
        (&["train", "--batch", "0"], "option --batch: must be at least 1, got 0"),
        (&["train", "--classes", "0"], "option --classes: must be at least 1, got 0"),
        (&["train", "--iterations", "0"], "option --iterations: must be at least 1, got 0"),
        (&["similarity", "--sub-vector", "0"], "option --sub-vector: must be at least 1, got 0"),
        (&["similarity", "--hashes", "0"], "option --hashes: must be in 1..=64, got 0"),
        (&["similarity", "--hashes", "65"], "option --hashes: must be in 1..=64, got 65"),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_adr")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("error: {message}\n")), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: adr"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} built something before failing");
    }
}

/// `adr similarity` hashes the default seed's unfolded batch with the packed
/// hasher and groups it; the cluster count is pinned, so any change to the
/// signatures shows here.
#[test]
fn similarity_prints_the_pinned_remaining_ratio() {
    let out = Command::new(env!("CARGO_BIN_EXE_adr"))
        .args(["similarity", "--hashes", "10"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let want =
        "3200 neuron vectors (window length 75, H = 10): |C| = 760, remaining ratio r_c = 0.2375";
    assert!(stdout.lines().any(|line| line == want), "{stdout}");
}
