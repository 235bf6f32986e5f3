//! Corrupt-artifact handling: every damaged checkpoint or train-state file
//! must fail closed with a typed error and leave the live network (and any
//! previous on-disk artifact) untouched.

// Test code asserts on values it just constructed; unwrap is the idiom.
#![allow(clippy::unwrap_used)]

use adaptive_deep_reuse::models::ConvMode;
use adaptive_deep_reuse::nn::dense::Dense;
use adaptive_deep_reuse::nn::relu::Relu;
use adaptive_deep_reuse::prelude::*;
use adaptive_deep_reuse::tensor::im2col::ConvGeom;

fn reuse_net(seed: u64) -> Network {
    let mut rng = AdrRng::seeded(seed);
    let mut net = Network::new((6, 6, 1));
    let g = ConvGeom::new(6, 6, 1, 3, 3, 1, 0).unwrap();
    net.push(Box::new(ReuseConv2d::new("conv1", g, 6, ReuseConfig::new(3, 6, false), &mut rng)));
    net.push(Box::new(Relu::new("relu1")));
    net.push(Box::new(Dense::new("fc", 4 * 4 * 6, 3, &mut rng)));
    net
}

fn weight_bits(net: &mut Network) -> Vec<Vec<u32>> {
    let sgd = Sgd::constant(0.01);
    TrainState::capture(net, &sgd, Strategy::baseline(), 0)
        .model
        .params
        .iter()
        .map(|s| s.iter().map(|v| v.to_bits()).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Parameter checkpoints (`Checkpoint`, the ADR1 format)
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_truncated_header_is_typed() {
    let mut net = reuse_net(1);
    let bytes = Checkpoint::capture(&mut net).to_bytes();
    let err = Checkpoint::from_bytes(&bytes[..6]).unwrap_err();
    assert!(matches!(err, CheckpointError::Truncated(_)), "{err}");
    // Even shorter than the magic: still typed, still closed.
    let err = Checkpoint::from_bytes(&bytes[..2]).unwrap_err();
    assert!(matches!(err, CheckpointError::Truncated("magic")), "{err}");
}

#[test]
fn checkpoint_bad_magic_is_typed() {
    let mut net = reuse_net(2);
    let mut bytes = Checkpoint::capture(&mut net).to_bytes();
    bytes[0] ^= 0xFF;
    let err = Checkpoint::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, CheckpointError::BadMagic), "{err}");
    // A short file full of junk is "not a checkpoint", not "truncated".
    let err = Checkpoint::from_bytes(b"garbage!").unwrap_err();
    assert!(matches!(err, CheckpointError::BadMagic), "{err}");
}

#[test]
fn checkpoint_unknown_version_is_typed() {
    let mut net = reuse_net(3);
    let mut bytes = Checkpoint::capture(&mut net).to_bytes();
    bytes[4] = 99;
    let err = Checkpoint::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, CheckpointError::UnsupportedVersion(99)), "{err}");
}

#[test]
fn checkpoint_short_f32_section_is_typed() {
    let mut net = reuse_net(4);
    let bytes = Checkpoint::capture(&mut net).to_bytes();
    // The ADR1 format verifies its whole-payload CRC before parsing any
    // section, so a cut anywhere past the header surfaces as a checksum
    // mismatch — still typed, still closed.
    for cut in [5, 40] {
        let err = Checkpoint::from_bytes(&bytes[..bytes.len() - cut]).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Truncated(_) | CheckpointError::ChecksumMismatch { .. }),
            "cut {cut}: {err}"
        );
    }
}

#[test]
fn checkpoint_flipped_bit_is_detected_by_checksum() {
    let mut net = reuse_net(5);
    let bytes = Checkpoint::capture(&mut net).to_bytes();
    let mut flipped = bytes.clone();
    let mid = bytes.len() / 2;
    flipped[mid] ^= 0x01;
    let err = Checkpoint::from_bytes(&flipped).unwrap_err();
    assert!(
        matches!(
            err,
            CheckpointError::ChecksumMismatch { .. }
                | CheckpointError::Truncated(_)
                | CheckpointError::SectionOverflow
        ),
        "a single flipped bit anywhere must be caught: {err}"
    );
}

#[test]
fn failed_checkpoint_restore_leaves_network_untouched() {
    let mut donor = reuse_net(6);
    let checkpoint = Checkpoint::capture(&mut donor);

    // A structurally different network: restore must refuse it wholesale.
    let mut rng = AdrRng::seeded(60);
    let mut other = Network::new((6, 6, 1));
    other.push(Box::new(Dense::new("fc", 36, 3, &mut rng)));
    let before = weight_bits(&mut other);
    let err = checkpoint.restore(&mut other).unwrap_err();
    assert!(matches!(err, CheckpointError::SlotCountMismatch { .. }), "{err}");
    assert_eq!(weight_bits(&mut other), before, "no partial writes on failure");
}

#[test]
fn stale_state_slot_fails_closed() {
    // A checkpoint written by a network with non-learnable layer state (a
    // batch-norm layer's running statistics) still decodes, but no network
    // built here has a state buffer to take it: restore must refuse it
    // before writing a single parameter.
    let mut donor = cifarnet::bench_scale(4, ConvMode::Dense, &mut AdrRng::seeded(8));
    let mut stale = Checkpoint::capture(&mut donor);
    stale.state.push(vec![0.5; 16]);
    let stale = Checkpoint::from_bytes(&stale.to_bytes()).unwrap();
    assert_eq!(stale.state.len(), 1, "the state slot survives the byte round trip");

    let mut net = cifarnet::bench_scale(4, ConvMode::Dense, &mut AdrRng::seeded(80));
    let before = weight_bits(&mut net);
    let err = stale.restore(&mut net).unwrap_err();
    assert!(
        matches!(
            err,
            CheckpointError::SlotCountMismatch { section: "state", expected: 1, found: 0 }
        ),
        "{err}"
    );
    assert_eq!(weight_bits(&mut net), before, "no partial writes on failure");
}

// ---------------------------------------------------------------------------
// Train states (`TrainState`, the ADRS format)
// ---------------------------------------------------------------------------

fn sample_state() -> (Network, Sgd, TrainState) {
    let mut net = reuse_net(7);
    let mut sgd = Sgd::constant(0.05);
    let mut rng = AdrRng::seeded(70);
    let x = Tensor4::from_fn(4, 6, 6, 1, |_, _, _, _| rng.gauss());
    for _ in 0..3 {
        net.train_batch(&x, &[0, 1, 2, 0], &mut sgd);
    }
    let state = TrainState::capture(&mut net, &sgd, Strategy::fixed(3, 6), 3);
    (net, sgd, state)
}

#[test]
fn train_state_truncations_are_typed() {
    let (_, _, state) = sample_state();
    let bytes = state.to_bytes();
    for cut in [2, 6, 20, bytes.len() / 2 + 1, bytes.len() - 3] {
        let err = TrainState::from_bytes(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Truncated(_)),
            "cut at {cut}: expected truncation, got {err}"
        );
    }
}

#[test]
fn train_state_bad_magic_and_version_are_typed() {
    let (_, _, state) = sample_state();
    let bytes = state.to_bytes();
    let mut bad = bytes.clone();
    bad[2] ^= 0x20;
    assert!(matches!(TrainState::from_bytes(&bad).unwrap_err(), CheckpointError::BadMagic));
    let mut bad = bytes;
    bad[4] = 77;
    assert!(matches!(
        TrainState::from_bytes(&bad).unwrap_err(),
        CheckpointError::UnsupportedVersion(77)
    ));
}

#[test]
fn train_state_per_section_crc_catches_payload_corruption() {
    let (_, _, state) = sample_state();
    let bytes = state.to_bytes();
    // Flip one bit in every byte position of the PRMS section's payload
    // region and demand a typed failure each time. Section layout after
    // the 8-byte header: 16-byte section header then payload.
    let meta_payload_start = 8 + 16;
    let mut checked = 0;
    for pos in (meta_payload_start..bytes.len()).step_by(97) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        if TrainState::from_bytes(&bad).is_ok() {
            panic!("flipped bit at byte {pos} went undetected");
        }
        checked += 1;
    }
    assert!(checked > 10, "sampled too few positions");
}

#[test]
fn train_state_trailing_bytes_are_rejected() {
    let (_, _, state) = sample_state();
    let mut bytes = state.to_bytes();
    bytes.push(0);
    assert!(matches!(TrainState::from_bytes(&bytes).unwrap_err(), CheckpointError::TrailingBytes));
}

#[test]
fn failed_train_state_restore_leaves_network_untouched() {
    let (_, _, state) = sample_state();
    let mut rng = AdrRng::seeded(80);
    let mut other = Network::new((6, 6, 1));
    other.push(Box::new(Dense::new("fc", 36, 3, &mut rng)));
    let mut sgd = Sgd::constant(0.05);
    let before = weight_bits(&mut other);
    let step_before = sgd.step_count();
    let err = state.restore_model(&mut other, &mut sgd).unwrap_err();
    assert!(matches!(err, CheckpointError::LayerCountMismatch { .. }), "{err}");
    assert_eq!(weight_bits(&mut other), before, "no partial writes on failure");
    assert_eq!(sgd.step_count(), step_before, "optimiser untouched on failure");
}

#[test]
#[expect(clippy::disallowed_methods, reason = "test: tears the file on purpose")]
fn corrupt_file_on_disk_fails_closed_via_load() {
    let (_, _, state) = sample_state();
    let dir = std::env::temp_dir().join("adr_corrupt_checkpoint");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.bin");
    state.save(&path).unwrap();

    // Corrupt the file in place (as a crashed disk or bad sector would).
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&path, &bytes).unwrap();
    assert!(TrainState::load(&path).is_err(), "corrupted file must not load");

    // Missing file: typed I/O error, not a panic.
    let missing = dir.join("does_not_exist.bin");
    assert!(matches!(TrainState::load(&missing).unwrap_err(), CheckpointError::Io(_)));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Non-finite plateau state: a checkpoint carrying a NaN/-inf detector window
// would silently disarm adaptation after resume (NaN comparisons are always
// false), so deserialization rejects it outright.
// ---------------------------------------------------------------------------

use adaptive_deep_reuse::adaptive::controller::ControllerState;
use adaptive_deep_reuse::adaptive::schedule::ScheduleState;
use adaptive_deep_reuse::nn::metrics::PlateauState;

fn poisoned_roundtrip(mutate: impl FnOnce(&mut TrainState)) -> CheckpointError {
    let (_, _, mut state) = sample_state();
    mutate(&mut state);
    TrainState::from_bytes(&state.to_bytes()).unwrap_err()
}

#[test]
fn nan_plateau_smoothed_loss_is_typed() {
    let err = poisoned_roundtrip(|state| {
        state.schedule = ScheduleState::Adaptive(ControllerState {
            stage: 1,
            plateau: PlateauState { smoothed: Some(f32::NAN), best: 1.0, stale: 0, seen: 2 },
        });
    });
    assert!(matches!(err, CheckpointError::Malformed(_)), "expected Malformed, got {err}");
    assert!(err.to_string().contains("not finite"), "unexpected message: {err}");
}

#[test]
fn nan_plateau_best_loss_is_typed() {
    let err = poisoned_roundtrip(|state| {
        state.schedule = ScheduleState::ClusterReuse {
            plateau: PlateauState { smoothed: Some(0.5), best: f32::NAN, stale: 1, seen: 3 },
            active: true,
        };
    });
    assert!(matches!(err, CheckpointError::Malformed(_)), "expected Malformed, got {err}");
}

#[test]
fn negative_infinite_plateau_best_is_typed() {
    let err = poisoned_roundtrip(|state| {
        state.schedule = ScheduleState::Adaptive(ControllerState {
            stage: 0,
            plateau: PlateauState {
                smoothed: Some(0.5),
                best: f32::NEG_INFINITY,
                stale: 0,
                seen: 1,
            },
        });
    });
    assert!(matches!(err, CheckpointError::Malformed(_)), "expected Malformed, got {err}");
}

#[test]
fn positive_infinite_plateau_best_still_roundtrips() {
    // `+inf` is the legitimate "no best yet" sentinel a fresh detector
    // starts from; rejecting it would break resuming an early checkpoint.
    let (_, _, mut state) = sample_state();
    let plateau = PlateauState { smoothed: None, best: f32::INFINITY, stale: 0, seen: 0 };
    state.schedule = ScheduleState::Adaptive(ControllerState { stage: 0, plateau });
    let restored = TrainState::from_bytes(&state.to_bytes()).unwrap();
    assert_eq!(restored.schedule, ScheduleState::Adaptive(ControllerState { stage: 0, plateau }));
}

/// Byte offset at which each of the nine sections starts (8-byte file
/// header, then per section a 16-byte header — tag, length, CRC — and the
/// payload).
fn section_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 8;
    while pos < bytes.len() {
        starts.push(pos);
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        pos += 16 + usize::try_from(len).unwrap();
    }
    starts
}

#[test]
fn schedule_slots_that_spell_no_cursor_are_malformed() {
    // No `TrainState` encodes these any more, so splice them from three that
    // do: META..CTRL of one snapshot, CRPL..SRCS of another. Every section
    // keeps a valid CRC; only the combination is wrong.
    let plateau = PlateauState { smoothed: Some(0.5), best: 0.4, stale: 1, seen: 30 };
    let (_, _, mut state) = sample_state();
    let unset = state.to_bytes();
    state.schedule = ScheduleState::Adaptive(ControllerState { stage: 1, plateau });
    let adaptive = state.to_bytes();
    state.schedule = ScheduleState::ClusterReuse { plateau, active: true };
    let cluster_reuse = state.to_bytes();
    let splice = |head: &[u8], tail: &[u8]| {
        let crpl = 6; // META PRMS VELO STAT FLOP CTRL | CRPL EPOC SRCS
        [&head[..section_starts(head)[crpl]], &tail[section_starts(tail)[crpl]..]].concat()
    };
    assert!(TrainState::from_bytes(&splice(&adaptive, &unset)).is_ok(), "the splice is sound");
    for (name, bytes) in [
        ("CTRL and CRPL both present", splice(&adaptive, &cluster_reuse)),
        ("CR flag without its plateau window", splice(&cluster_reuse, &unset)),
        ("plateau window without its CR flag", splice(&unset, &cluster_reuse)),
    ] {
        let err = TrainState::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Malformed(_)),
            "{name}: expected Malformed, got {err}"
        );
        assert!(err.to_string().contains("schedule cursor"), "{name}: {err}");
    }
}

// ---------------------------------------------------------------------------
// Exhaustive sweep: every truncation and every single-bit flip of a small
// artifact, in both formats, fails closed.
// ---------------------------------------------------------------------------

/// Decodes every strict prefix of `bytes` and every copy with one bit
/// flipped; each must be an `Err` (a panic fails the test as well).
/// Returns the number of mutations tried.
fn assert_every_mutation_fails<T>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, CheckpointError>,
) -> usize {
    for cut in 0..bytes.len() {
        assert!(decode(&bytes[..cut]).is_err(), "a {cut}-byte prefix decoded");
    }
    let mut flipped = bytes.to_vec();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            flipped[pos] ^= 1 << bit;
            assert!(decode(&flipped).is_err(), "bit {bit} of byte {pos} flipped went undetected");
            flipped[pos] ^= 1 << bit;
        }
    }
    bytes.len() * 9
}

#[test]
fn every_truncation_and_bit_flip_fails_closed() {
    let mut rng = AdrRng::seeded(90);
    let mut net = Network::new((2, 3, 1));
    net.push(Box::new(Dense::new("fc", 6, 6, &mut rng)));
    let adr1 = Checkpoint::capture(&mut net).to_bytes();
    let mut mutations = assert_every_mutation_fails(&adr1, Checkpoint::from_bytes);

    let plateau = PlateauState { smoothed: Some(0.5), best: 0.4, stale: 1, seen: 30 };
    let mut state = TrainState::capture(&mut net, &Sgd::constant(0.05), Strategy::fixed(3, 6), 3);
    state.source_state = vec![4, 2];
    for schedule in [
        ScheduleState::Unset,
        ScheduleState::Adaptive(ControllerState { stage: 1, plateau }),
        ScheduleState::ClusterReuse { plateau, active: true },
        ScheduleState::ClusterReuse { plateau, active: false },
    ] {
        state.schedule = schedule;
        mutations += assert_every_mutation_fails(&state.to_bytes(), TrainState::from_bytes);
    }
    // 212 bytes of ADR1 and 2 787 of ADRS, each byte cut once and flipped
    // eight times.
    assert_eq!(mutations, 26_991);
}
