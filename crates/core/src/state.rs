//! Full-training-state snapshots — the unit of crash recovery.
//!
//! A parameter checkpoint (`adr_nn::checkpoint`) is enough to *reuse* a
//! model but not to *resume* a run: bitwise-identical continuation also
//! needs the optimiser's momentum buffers and step counter, the schedule's
//! cursor ([`ScheduleState`]: Strategy 2's stage and plateau window, or
//! Strategy 3's plateau window and `CR` flag), the epoch meter and the FLOP
//! totals. [`TrainState`] is that checkpoint plus all of it. Its on-disk
//! format is built from the checkpoint's codec — the same header check,
//! field reader, f32 slot lists and [`CheckpointError`] — arranged as
//! fixed-order tagged sections each protected by its own CRC32, written
//! through the atomic-rename protocol in [`adr_nn::durable`]; its restore
//! validates every length before mutating anything.
//!
//! Known non-goals (documented, deliberate): the across-batch cluster-reuse
//! caches (`CR = 1`) are *not* captured — they are transient acceleration
//! state whose loss changes timing, not correctness, and the
//! kill-and-resume determinism guarantee is stated
//! for `CR = 0` strategies. Nor is what the guardrails learned in one
//! process: their rollback budget and loss EMA, and the schedule's one-way
//! exact-fallback bit. A resumed run starts with fresh guardrails and its
//! reuse layers on the reuse path.

use std::path::Path;

use adr_nn::checkpoint::{check_header, header, write_slots, Fields};
use adr_nn::durable::{self, IoFault, RetryPolicy};
use adr_nn::flops::FlopReport;
use adr_nn::metrics::{EpochMeterState, PlateauState};
use adr_nn::{Checkpoint, CheckpointError, Network, Sgd};

use crate::controller::ControllerState;
use crate::schedule::ScheduleState;
use crate::strategy::Strategy;

const MAGIC: &[u8; 4] = b"ADRS";
const VERSION: u32 = 1;

/// Cumulative FLOP totals of one layer at capture time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerFlopState {
    /// Multiply–adds the layer actually performed.
    pub actual: FlopReport,
    /// Multiply–adds a dense implementation would have performed.
    pub baseline: FlopReport,
}

/// Everything a training run needs to continue bitwise-identically after a
/// crash: the model's [`Checkpoint`], SGD momentum and step counter, the
/// schedule cursor, the epoch meter, per-layer FLOP totals, and an empty
/// batch-source cursor.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainState {
    /// Next training iteration to run (iterations completed so far).
    pub iteration: usize,
    /// Optimiser step counter (drives the learning-rate schedule).
    pub sgd_step: usize,
    /// Strategy the run was using; resume refuses a different one.
    pub strategy: Strategy,
    /// Learnable parameters and non-learnable layer state.
    pub model: Checkpoint,
    /// SGD momentum buffers, parallel to `model.params`.
    pub velocity: Vec<Vec<f32>>,
    /// Cumulative FLOP totals, one entry per layer.
    pub flops: Vec<LayerFlopState>,
    /// Where the strategy's schedule stood (Strategies 2 and 3).
    pub schedule: ScheduleState,
    /// Running epoch meter (smoothed training accuracy feeds Amendment
    /// rule selection, so it must survive a restart).
    pub meter: EpochMeterState,
    /// Batch-source cursor (the `SRCS` section). The trainer writes it
    /// empty, because every batch is a function of its index, and a resume
    /// refuses a non-empty one; the section stays so the byte layout does
    /// not move.
    pub source_state: Vec<u64>,
}

impl TrainState {
    /// Captures the model-side state (checkpoint, velocity, FLOP totals,
    /// SGD step) of `net`. The trainer fills in the loop-side fields
    /// (`schedule`, `meter`) before persisting.
    pub fn capture(net: &mut Network, sgd: &Sgd, strategy: Strategy, iteration: usize) -> Self {
        let velocity = net
            .layers_mut()
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .map(|p| p.velocity.to_vec())
            .collect();
        let flops = net
            .layers()
            .iter()
            .map(|l| LayerFlopState { actual: l.flops(), baseline: l.baseline_flops() })
            .collect();
        Self {
            iteration,
            sgd_step: sgd.step_count(),
            strategy,
            model: Checkpoint::capture(net),
            velocity,
            flops,
            schedule: ScheduleState::Unset,
            meter: EpochMeterState::default(),
            source_state: Vec::new(),
        }
    }

    /// Restores the checkpoint, momentum, FLOP totals, and the SGD step
    /// counter into `net`/`sgd`, transactionally: the layer count and the
    /// velocity's shape are checked here and every buffer against the
    /// network by [`Checkpoint::restore`], all before the first write, so
    /// a mismatched snapshot never leaves the network partially restored.
    ///
    /// # Errors
    /// Returns a mismatch variant when the network's shape disagrees with
    /// the snapshot (different architecture or different reuse configs
    /// changing layer counts).
    pub fn restore_model(&self, net: &mut Network, sgd: &mut Sgd) -> Result<(), CheckpointError> {
        if net.len() != self.flops.len() {
            return Err(CheckpointError::LayerCountMismatch {
                expected: self.flops.len(),
                found: net.len(),
            });
        }
        let params = &self.model.params;
        if self.velocity.len() != params.len()
            || self.velocity.iter().zip(params).any(|(v, p)| v.len() != p.len())
        {
            return Err(CheckpointError::Malformed("velocity slots differ from params"));
        }
        self.model.restore(net)?;
        for (p, saved) in
            net.layers_mut().iter_mut().flat_map(|l| l.params_mut()).zip(&self.velocity)
        {
            p.velocity.copy_from_slice(saved);
        }
        for (layer, f) in net.layers_mut().iter_mut().zip(&self.flops) {
            layer.restore_flops(f.actual, f.baseline);
        }
        sgd.set_step_count(self.sgd_step);
        Ok(())
    }

    /// Serialises to the on-disk layout: magic, version, then nine tagged
    /// sections in fixed order, each carrying its own payload CRC32. The
    /// schedule cursor is spread over the v1 layout's three slots: a `META`
    /// flag (Strategy 3's `CR`), `CTRL` (Strategy 2) and `CRPL` (Strategy
    /// 3's plateau window).
    pub fn to_bytes(&self) -> Vec<u8> {
        // Presence byte first; 0 = absent.
        let (mut ctrl, mut crpl, mut cr_flag) = (vec![0u8], vec![0u8], 0u8);
        match &self.schedule {
            ScheduleState::Unset => {}
            ScheduleState::Adaptive(c) => {
                ctrl[0] = 1;
                ctrl.extend_from_slice(&(c.stage as u64).to_le_bytes());
                push_plateau(&mut ctrl, &c.plateau);
            }
            ScheduleState::ClusterReuse { plateau, active } => {
                cr_flag = 1 + u8::from(*active);
                crpl[0] = 1;
                push_plateau(&mut crpl, plateau);
            }
        }
        let mut buf = header(MAGIC, VERSION);

        let mut meta = Vec::new();
        meta.extend_from_slice(&(self.iteration as u64).to_le_bytes());
        meta.extend_from_slice(&(self.sgd_step as u64).to_le_bytes());
        let (kind, l, h) = strategy_tag(self.strategy);
        meta.push(kind);
        meta.extend_from_slice(&l.to_le_bytes());
        meta.extend_from_slice(&h.to_le_bytes());
        meta.push(cr_flag);
        push_section(&mut buf, b"META", &meta);

        for (tag, slots) in
            [(b"PRMS", &self.model.params), (b"VELO", &self.velocity), (b"STAT", &self.model.state)]
        {
            let mut payload = Vec::new();
            write_slots(&mut payload, slots);
            push_section(&mut buf, tag, &payload);
        }

        let mut flop = Vec::new();
        flop.extend_from_slice(&(self.flops.len() as u64).to_le_bytes());
        for f in &self.flops {
            for v in [f.actual.forward, f.actual.backward, f.baseline.forward, f.baseline.backward]
            {
                flop.extend_from_slice(&v.to_le_bytes());
            }
        }
        push_section(&mut buf, b"FLOP", &flop);

        push_section(&mut buf, b"CTRL", &ctrl);
        push_section(&mut buf, b"CRPL", &crpl);

        let mut epoc = Vec::new();
        epoc.extend_from_slice(&self.meter.loss_sum.to_le_bytes());
        epoc.extend_from_slice(&(self.meter.hits as u64).to_le_bytes());
        epoc.extend_from_slice(&(self.meter.examples as u64).to_le_bytes());
        epoc.extend_from_slice(&(self.meter.batches as u64).to_le_bytes());
        push_section(&mut buf, b"EPOC", &epoc);

        let mut srcs = Vec::new();
        srcs.extend_from_slice(&(self.source_state.len() as u64).to_le_bytes());
        for w in &self.source_state {
            srcs.extend_from_slice(&w.to_le_bytes());
        }
        push_section(&mut buf, b"SRCS", &srcs);

        buf
    }

    /// Deserialises the layout produced by [`TrainState::to_bytes`].
    ///
    /// # Errors
    /// Fails closed on bad magic, unsupported versions, truncation,
    /// out-of-order sections, per-section checksum mismatches, trailing
    /// garbage, and a `META` flag / `CTRL` / `CRPL` combination that is no
    /// [`ScheduleState`] — nothing is partially decoded.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut file = Fields::new(check_header(bytes, MAGIC, VERSION)?, "section header");

        let mut f = section(&mut file, b"META")?;
        let iteration = f.length()?;
        let sgd_step = f.length()?;
        let kind = f.u8()?;
        let l = f.u64()?;
        let h = f.u64()?;
        let strategy = strategy_from_tag(kind, l, h)?;
        let cr_flag = f.u8()?;
        f.done()?;

        let mut slot_section = |tag| {
            let mut f = section(&mut file, tag)?;
            let slots = f.slots()?;
            f.done().map(|()| slots)
        };
        let params = slot_section(b"PRMS")?;
        let velocity = slot_section(b"VELO")?;
        let state = slot_section(b"STAT")?;

        let mut f = section(&mut file, b"FLOP")?;
        let n_layers = f.length()?;
        let mut flops = Vec::with_capacity(n_layers.min(f.remaining() / 32));
        for _ in 0..n_layers {
            let actual = FlopReport { forward: f.u64()?, backward: f.u64()? };
            let baseline = FlopReport { forward: f.u64()?, backward: f.u64()? };
            flops.push(LayerFlopState { actual, baseline });
        }
        f.done()?;

        let mut f = section(&mut file, b"CTRL")?;
        let controller = match f.u8()? {
            0 => None,
            1 => {
                let stage = f.length()?;
                let plateau = read_plateau(&mut f)?;
                Some(ControllerState { stage, plateau })
            }
            _ => return Err(CheckpointError::Malformed("CTRL: presence flag")),
        };
        f.done()?;

        let mut f = section(&mut file, b"CRPL")?;
        let cr_plateau = match f.u8()? {
            0 => None,
            1 => Some(read_plateau(&mut f)?),
            _ => return Err(CheckpointError::Malformed("CRPL: presence flag")),
        };
        f.done()?;

        let mut f = section(&mut file, b"EPOC")?;
        let meter = EpochMeterState {
            loss_sum: f.f64()?,
            hits: f.length()?,
            examples: f.length()?,
            batches: f.length()?,
        };
        f.done()?;

        let mut f = section(&mut file, b"SRCS")?;
        let n_words = f.length()?;
        let mut source_state = Vec::with_capacity(n_words.min(f.remaining() / 8));
        for _ in 0..n_words {
            source_state.push(f.u64()?);
        }
        f.done()?;

        if file.remaining() != 0 {
            return Err(CheckpointError::TrailingBytes);
        }
        let schedule = match (controller, cr_plateau, cr_flag) {
            (None, None, 0) => ScheduleState::Unset,
            (Some(cursor), None, 0) => ScheduleState::Adaptive(cursor),
            (None, Some(plateau), 1 | 2) => {
                ScheduleState::ClusterReuse { plateau, active: cr_flag == 2 }
            }
            _ => return Err(CheckpointError::Malformed("schedule cursor: CTRL / CRPL / CR flag")),
        };
        Ok(Self {
            iteration,
            sgd_step,
            strategy,
            model: Checkpoint { params, state },
            velocity,
            flops,
            schedule,
            meter,
            source_state,
        })
    }

    /// Saves to a file crash-safely (temp file + fsync + atomic rename).
    ///
    /// # Errors
    /// Propagates I/O errors; the destination is untouched on failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        durable::write_atomic(path.as_ref(), &self.to_bytes())?;
        Ok(())
    }

    /// [`TrainState::save`] with bounded retry + backoff and a fault hook
    /// (the trainer's checkpoint path, where a transient write failure
    /// must not kill the run). Returns the number of bytes written, which
    /// the trainer feeds into the `adr_train_checkpoint_bytes` counter.
    ///
    /// # Errors
    /// Returns the last I/O error when every attempt fails; the
    /// destination file keeps its previous contents in that case.
    pub fn save_with(
        &self,
        path: &Path,
        policy: RetryPolicy,
        faults: &mut dyn IoFault,
    ) -> Result<usize, CheckpointError> {
        let bytes = self.to_bytes();
        durable::write_atomic_retry(path, &bytes, policy, faults)?;
        Ok(bytes.len())
    }

    /// Loads from a file.
    ///
    /// # Errors
    /// Propagates I/O and format errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

fn strategy_tag(strategy: Strategy) -> (u8, u64, u64) {
    match strategy {
        Strategy::Baseline => (0, 0, 0),
        Strategy::FixedLh { l, h } => (1, l as u64, h as u64),
        Strategy::AdaptiveLh => (2, 0, 0),
        Strategy::ClusterReuseSchedule { l, h } => (3, l as u64, h as u64),
    }
}

fn strategy_from_tag(kind: u8, l: u64, h: u64) -> Result<Strategy, CheckpointError> {
    let l = usize::try_from(l).map_err(|_| CheckpointError::SectionOverflow)?;
    let h = usize::try_from(h).map_err(|_| CheckpointError::SectionOverflow)?;
    match kind {
        0 => Ok(Strategy::Baseline),
        1 => Ok(Strategy::FixedLh { l, h }),
        2 => Ok(Strategy::AdaptiveLh),
        3 => Ok(Strategy::ClusterReuseSchedule { l, h }),
        _ => Err(CheckpointError::Malformed("META: strategy kind")),
    }
}

/// Appends one tagged section: tag, u64 payload length, payload CRC32,
/// payload.
fn push_section(buf: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    buf.extend_from_slice(tag);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&durable::crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Reads the next section [`push_section`] wrote, checks its tag and CRC32,
/// and returns a reader over its payload.
fn section<'a>(
    file: &mut Fields<'a>,
    tag: &'static [u8; 4],
) -> Result<Fields<'a>, CheckpointError> {
    let name = std::str::from_utf8(tag).unwrap_or("section");
    let found = file.take(4)?;
    if found != tag {
        return Err(CheckpointError::SectionTagMismatch {
            expected: name,
            found: [found[0], found[1], found[2], found[3]],
        });
    }
    let len = file.length()?;
    let expected = file.u32()?;
    if file.remaining() < len {
        return Err(CheckpointError::Truncated(name));
    }
    let payload = file.take(len)?;
    let actual = durable::crc32(payload);
    if expected != actual {
        return Err(CheckpointError::ChecksumMismatch { section: name, expected, actual });
    }
    Ok(Fields::new(payload, name))
}

fn push_plateau(buf: &mut Vec<u8>, p: &PlateauState) {
    match p.smoothed {
        Some(v) => {
            buf.push(1);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        None => {
            buf.push(0);
            buf.extend_from_slice(&0f32.to_le_bytes());
        }
    }
    buf.extend_from_slice(&p.best.to_le_bytes());
    buf.extend_from_slice(&(p.stale as u64).to_le_bytes());
    buf.extend_from_slice(&(p.seen as u64).to_le_bytes());
}

fn read_plateau(f: &mut Fields<'_>) -> Result<PlateauState, CheckpointError> {
    let present = f.u8()?;
    let raw = f.f32()?;
    let smoothed = match present {
        0 => None,
        1 => {
            // A CRC-valid snapshot can still carry crafted bytes: a NaN
            // smoothed loss would seed the plateau/guardrail EMA and
            // permanently disarm loss comparisons. Refuse it typed.
            if !raw.is_finite() {
                return Err(CheckpointError::Malformed("plateau smoothed loss is not finite"));
            }
            Some(raw)
        }
        _ => return Err(CheckpointError::Malformed("plateau presence flag")),
    };
    let best = f.f32()?;
    // `+∞` is the legitimate "no best yet" sentinel; NaN and `-∞` wedge the
    // improvement test (`current < best * (1 - δ)`) forever.
    if best.is_nan() || (best.is_infinite() && best.is_sign_negative()) {
        return Err(CheckpointError::Malformed("plateau best loss is NaN or -inf"));
    }
    Ok(PlateauState { smoothed, best, stale: f.length()?, seen: f.length()? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adr_nn::dense::Dense;
    use adr_nn::relu::Relu;
    use adr_reuse::{ReuseConfig, ReuseConv2d};
    use adr_tensor::im2col::ConvGeom;
    use adr_tensor::rng::AdrRng;
    use adr_tensor::Tensor4;

    fn net(seed: u64) -> Network {
        let mut rng = AdrRng::seeded(seed);
        let mut net = Network::new((6, 6, 1));
        let g = ConvGeom::new(6, 6, 1, 3, 3, 1, 0).unwrap();
        net.push(Box::new(ReuseConv2d::new(
            "conv1",
            g,
            4,
            ReuseConfig::new(3, 6, false),
            &mut rng,
        )));
        net.push(Box::new(Relu::new("relu1")));
        net.push(Box::new(Dense::new("fc", 4 * 4 * 4, 3, &mut rng)));
        net
    }

    fn trained_state(seed: u64) -> (Network, Sgd, TrainState) {
        let mut n = net(seed);
        let mut sgd = Sgd::new(adr_nn::LrSchedule::Constant(0.05), 0.9, 0.0);
        let mut rng = AdrRng::seeded(seed + 100);
        let x = Tensor4::from_fn(4, 6, 6, 1, |_, _, _, _| rng.gauss());
        for _ in 0..3 {
            n.train_batch(&x, &[0, 1, 2, 0], &mut sgd);
        }
        let mut s = TrainState::capture(&mut n, &sgd, Strategy::fixed(3, 6), 3);
        s.meter = EpochMeterState { loss_sum: 3.5, hits: 7, examples: 12, batches: 3 };
        s.source_state = vec![1, 2, 3];
        s.schedule = ScheduleState::ClusterReuse {
            plateau: PlateauState { smoothed: Some(1.2), best: 1.1, stale: 2, seen: 9 },
            active: true,
        };
        (n, sgd, s)
    }

    fn adaptive_cursor() -> ScheduleState {
        ScheduleState::Adaptive(ControllerState {
            stage: 2,
            plateau: PlateauState { smoothed: None, best: f32::INFINITY, stale: 0, seen: 0 },
        })
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let (_, _, mut s) = trained_state(1);
        let cluster_reuse_off = ScheduleState::ClusterReuse {
            plateau: PlateauState { smoothed: None, best: 0.7, stale: 0, seen: 40 },
            active: false,
        };
        for cursor in [s.schedule, cluster_reuse_off, adaptive_cursor(), ScheduleState::Unset] {
            s.schedule = cursor;
            assert_eq!(TrainState::from_bytes(&s.to_bytes()).unwrap(), s, "{cursor:?}");
        }
    }

    /// The ADRS v1 bytes are a compatibility surface: files written before
    /// the schedule cursor became one enum must keep loading, and files
    /// written now must load there. Both constants are the CRC32 of
    /// `to_bytes()` computed at commit 63ca90f (the last with three
    /// `Option` fields) from `cr_plateau` + `cr_active = Some(true)`,
    /// resp. `controller`, set to the values below.
    #[test]
    fn v1_bytes_are_the_ones_the_three_option_layout_wrote() {
        let (_, _, mut s) = trained_state(1);
        assert_eq!(durable::crc32(&s.to_bytes()), 0xed59_425d, "ClusterReuse cursor");
        s.schedule = adaptive_cursor();
        assert_eq!(durable::crc32(&s.to_bytes()), 0xffd0_d294, "Adaptive cursor");
    }

    /// The ADR1 v3 bytes are the same kind of surface for parameter
    /// checkpoints. The constant is the CRC32 of `to_bytes()` of the network
    /// above, computed at commit 2c085b3, the last whose checkpoint had a
    /// decoder of its own.
    #[test]
    fn adr1_bytes_are_the_ones_the_standalone_codec_wrote() {
        let (mut n, _, s) = trained_state(1);
        let bytes = s.model.to_bytes();
        assert_eq!(durable::crc32(&bytes), 0xc8ac_2838);
        assert_eq!(Checkpoint::capture(&mut n).to_bytes(), bytes);
    }

    #[test]
    fn restore_model_reverts_params_velocity_and_flops() {
        let (mut n, mut sgd, s) = trained_state(2);
        let flops_at_capture = n.flops();
        // Train further; everything drifts.
        let mut rng = AdrRng::seeded(999);
        let x = Tensor4::from_fn(4, 6, 6, 1, |_, _, _, _| rng.gauss());
        for _ in 0..3 {
            n.train_batch(&x, &[1, 2, 0, 1], &mut sgd);
        }
        assert_ne!(n.flops(), flops_at_capture);
        assert_ne!(
            TrainState::capture(&mut n, &sgd, Strategy::fixed(3, 6), 6).model.params,
            s.model.params
        );
        s.restore_model(&mut n, &mut sgd).unwrap();
        let recaptured = TrainState::capture(&mut n, &sgd, Strategy::fixed(3, 6), 3);
        assert_eq!(recaptured.model.params, s.model.params);
        assert_eq!(recaptured.velocity, s.velocity);
        assert_eq!(recaptured.flops, s.flops);
        assert_eq!(sgd.step_count(), s.sgd_step);
        assert_eq!(n.flops(), flops_at_capture);
    }

    #[test]
    fn restore_rejects_mismatched_architecture_untouched() {
        let (_, _, s) = trained_state(3);
        let mut rng = AdrRng::seeded(50);
        let mut other = Network::new((6, 6, 1));
        other.push(Box::new(Dense::new("fc", 36, 3, &mut rng)));
        let mut sgd = Sgd::constant(0.1);
        let before = TrainState::capture(&mut other, &sgd, Strategy::baseline(), 0);
        let err = s.restore_model(&mut other, &mut sgd).unwrap_err();
        assert!(
            matches!(err, CheckpointError::LayerCountMismatch { expected: 3, found: 1 }),
            "{err}"
        );
        let after = TrainState::capture(&mut other, &sgd, Strategy::baseline(), 0);
        assert_eq!(
            before.model.params, after.model.params,
            "failed restore must not write anything"
        );
    }

    #[test]
    fn corrupt_bytes_fail_closed() {
        let (_, _, s) = trained_state(5);
        let bytes = s.to_bytes();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(TrainState::from_bytes(&bad).unwrap_err(), CheckpointError::BadMagic));

        // Unsupported version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            TrainState::from_bytes(&bad).unwrap_err(),
            CheckpointError::UnsupportedVersion(99)
        ));

        // Truncation inside a section body.
        let bad = &bytes[..bytes.len() - 3];
        assert!(matches!(TrainState::from_bytes(bad).unwrap_err(), CheckpointError::Truncated(_)));

        // A flipped payload bit trips that section's CRC.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            TrainState::from_bytes(&bad).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. } | CheckpointError::SectionTagMismatch { .. }
        ));

        // Trailing garbage after a complete snapshot.
        let mut bad = bytes.clone();
        bad.extend_from_slice(b"junk");
        assert!(matches!(
            TrainState::from_bytes(&bad).unwrap_err(),
            CheckpointError::TrailingBytes
        ));
    }

    #[test]
    fn file_round_trip_via_atomic_save() {
        let (_, _, s) = trained_state(6);
        let path = std::env::temp_dir().join("adr_train_state_roundtrip.bin");
        s.save(&path).unwrap();
        let back = TrainState::load(&path).unwrap();
        assert_eq!(back, s);
        std::fs::remove_file(&path).ok();
    }
}
