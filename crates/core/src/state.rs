//! Full-training-state snapshots — the unit of crash recovery.
//!
//! A parameter checkpoint (`adr_nn::checkpoint`) is enough to *reuse* a
//! model but not to *resume* a run: bitwise-identical continuation also
//! needs the optimiser's momentum buffers and step counter, the schedule's
//! cursor ([`ScheduleState`]: Strategy 2's stage and plateau window, or
//! Strategy 3's plateau window and `CR` flag), the epoch meter, the FLOP
//! totals, and the batch source's position. [`TrainState`] captures all of
//! it, and its on-disk format follows the same fail-closed discipline as
//! the parameter checkpoint: magic + version, fixed-order tagged sections
//! each protected by its own CRC32, writes through the atomic-rename
//! protocol in [`adr_nn::durable`], and a two-phase restore that validates
//! every length before mutating anything.
//!
//! Known non-goals (documented, deliberate): dropout RNG streams and the
//! across-batch cluster-reuse caches (`CR = 1`) are *not* captured — both
//! are transient acceleration state whose loss changes timing, not
//! correctness, and the kill-and-resume determinism guarantee is stated
//! for `CR = 0` strategies. Nor is what the guardrails learned in one
//! process: their rollback budget and loss EMA, and the schedule's one-way
//! exact-fallback bit. A resumed run starts with fresh guardrails and its
//! reuse layers on the reuse path.

use std::fmt;
use std::io;
use std::path::Path;

use adr_nn::durable::{self, IoFault, RetryPolicy};
use adr_nn::flops::FlopReport;
use adr_nn::metrics::{EpochMeterState, PlateauState};
use adr_nn::{Network, Sgd};

use crate::controller::ControllerState;
use crate::schedule::ScheduleState;
use crate::strategy::Strategy;

const MAGIC: &[u8; 4] = b"ADRS";
const VERSION: u32 = 1;

/// Why a training-state snapshot could not be decoded or restored.
#[derive(Debug)]
pub enum StateError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file does not start with the `ADRS` magic.
    BadMagic,
    /// The version field names a format this build cannot read.
    UnsupportedVersion(u32),
    /// The byte stream ended inside the named structure.
    Truncated(&'static str),
    /// A section arrived out of order or with an unknown tag.
    SectionTagMismatch {
        /// Tag the fixed layout expects at this position.
        expected: &'static str,
        /// Tag found in the file.
        found: [u8; 4],
    },
    /// A section's stored CRC32 disagrees with its payload: corruption.
    ChecksumMismatch {
        /// Which section failed.
        section: &'static str,
        /// Checksum recorded in the file.
        expected: u32,
        /// Checksum of the payload as read.
        actual: u32,
    },
    /// A recorded length does not fit in memory on this platform.
    SectionOverflow,
    /// Extra bytes follow a structurally complete snapshot.
    TrailingBytes,
    /// A section decoded but its contents are internally inconsistent.
    Malformed(&'static str),
    /// The snapshot and the network disagree on a buffer count.
    SlotCountMismatch {
        /// Which section disagrees (`"params"`, `"velocity"`, `"state"`).
        section: &'static str,
        /// Buffers in the snapshot.
        expected: usize,
        /// Buffers in the target network.
        found: usize,
    },
    /// One buffer has the wrong length (different layer shape).
    SlotLenMismatch {
        /// Which section disagrees.
        section: &'static str,
        /// Buffer index in capture order.
        index: usize,
        /// Values in the snapshot buffer.
        expected: usize,
        /// Values the network expects.
        found: usize,
    },
    /// The snapshot's per-layer FLOP list does not match the network.
    LayerCountMismatch {
        /// Layers in the snapshot.
        expected: usize,
        /// Layers in the target network.
        found: usize,
    },
    /// The snapshot was captured under a different training strategy.
    StrategyMismatch {
        /// Strategy the resuming run is using.
        expected: String,
        /// Strategy recorded in the snapshot.
        found: String,
    },
    /// The batch source rejected its recorded cursor state.
    SourceState(String),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "train-state I/O failed: {e}"),
            Self::BadMagic => write!(f, "not an ADR train-state file (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported train-state version {v}"),
            Self::Truncated(what) => write!(f, "train state truncated inside {what}"),
            Self::SectionTagMismatch { expected, found } => write!(
                f,
                "expected section {expected:?}, found {:?}",
                String::from_utf8_lossy(found)
            ),
            Self::ChecksumMismatch { section, expected, actual } => write!(
                f,
                "section {section} checksum mismatch (recorded {expected:#010x}, \
                 computed {actual:#010x})"
            ),
            Self::SectionOverflow => write!(f, "train-state section length overflows usize"),
            Self::TrailingBytes => write!(f, "trailing bytes after train-state payload"),
            Self::Malformed(what) => write!(f, "malformed train-state section: {what}"),
            Self::SlotCountMismatch { section, expected, found } => {
                write!(f, "train state has {expected} {section} buffers, network has {found}")
            }
            Self::SlotLenMismatch { section, index, expected, found } => write!(
                f,
                "{section} buffer {index}: snapshot holds {expected} values, network \
                 expects {found}"
            ),
            Self::LayerCountMismatch { expected, found } => {
                write!(f, "train state covers {expected} layers, network has {found}")
            }
            Self::StrategyMismatch { expected, found } => write!(
                f,
                "train state was captured under strategy {found}, resuming run uses {expected}"
            ),
            Self::SourceState(e) => write!(f, "batch source rejected its recorded state: {e}"),
        }
    }
}

impl std::error::Error for StateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StateError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Cumulative FLOP totals of one layer at capture time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerFlopState {
    /// Multiply–adds the layer actually performed.
    pub actual: FlopReport,
    /// Multiply–adds a dense implementation would have performed.
    pub baseline: FlopReport,
}

/// Everything a training run needs to continue bitwise-identically after a
/// crash: model parameters and layer state, SGD momentum and step counter,
/// the schedule cursor, the epoch meter, per-layer FLOP totals, and
/// the batch source's opaque cursor.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainState {
    /// Next training iteration to run (iterations completed so far).
    pub iteration: usize,
    /// Optimiser step counter (drives the learning-rate schedule).
    pub sgd_step: usize,
    /// Strategy the run was using; resume refuses a different one.
    pub strategy: Strategy,
    /// Learnable parameters, one slot per `ParamRefMut` in layer order.
    pub params: Vec<Vec<f32>>,
    /// SGD momentum buffers, parallel to `params`.
    pub velocity: Vec<Vec<f32>>,
    /// Non-learnable layer state (batch-norm running statistics, ...).
    pub state_bufs: Vec<Vec<f32>>,
    /// Cumulative FLOP totals, one entry per layer.
    pub flops: Vec<LayerFlopState>,
    /// Where the strategy's schedule stood (Strategies 2 and 3).
    pub schedule: ScheduleState,
    /// Running epoch meter (smoothed training accuracy feeds Amendment
    /// rule selection, so it must survive a restart).
    pub meter: EpochMeterState,
    /// Opaque batch-source cursor from `BatchSource::snapshot_state`.
    pub source_state: Vec<u64>,
}

impl TrainState {
    /// Captures the model-side state (parameters, velocity, layer state,
    /// FLOP totals, SGD step) of `net`. The trainer fills in the
    /// loop-side fields (`schedule`, `meter`, `source_state`) before
    /// persisting.
    pub fn capture(net: &mut Network, sgd: &Sgd, strategy: Strategy, iteration: usize) -> Self {
        let mut params = Vec::new();
        let mut velocity = Vec::new();
        for layer in net.layers_mut() {
            for p in layer.params_mut() {
                params.push(p.data.to_vec());
                velocity.push(p.velocity.to_vec());
            }
        }
        let state_bufs = net
            .layers_mut()
            .iter_mut()
            .flat_map(|l| l.state_buffers())
            .map(|s| s.to_vec())
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
            params,
            velocity,
            state_bufs,
            flops,
            schedule: ScheduleState::Unset,
            meter: EpochMeterState::default(),
            source_state: Vec::new(),
        }
    }

    /// Checks that the snapshot was captured under `strategy`.
    ///
    /// # Errors
    /// Returns [`StateError::StrategyMismatch`] otherwise — resuming a
    /// fixed-`{L, H}` snapshot under the adaptive schedule (or vice versa)
    /// would silently train a different experiment.
    pub fn verify_strategy(&self, strategy: Strategy) -> Result<(), StateError> {
        if self.strategy == strategy {
            Ok(())
        } else {
            Err(StateError::StrategyMismatch {
                expected: format!("{strategy:?}"),
                found: format!("{:?}", self.strategy),
            })
        }
    }

    /// Restores parameters, momentum, layer state, FLOP totals, and the
    /// SGD step counter into `net`/`sgd`, transactionally: every buffer
    /// count and length is validated before the first write, so a
    /// mismatched snapshot never leaves the network partially restored.
    ///
    /// # Errors
    /// Returns a mismatch variant when the network's shape disagrees with
    /// the snapshot (different architecture or different reuse configs
    /// changing layer counts).
    pub fn restore_model(&self, net: &mut Network, sgd: &mut Sgd) -> Result<(), StateError> {
        if net.len() != self.flops.len() {
            return Err(StateError::LayerCountMismatch {
                expected: self.flops.len(),
                found: net.len(),
            });
        }
        if self.params.len() != self.velocity.len() {
            return Err(StateError::Malformed("params/velocity slot counts differ"));
        }
        // Phase 1: validate everything against the live network.
        {
            let slot_lens: Vec<usize> = net
                .layers_mut()
                .iter_mut()
                .flat_map(|l| l.params_mut())
                .map(|p| p.data.len())
                .collect();
            if slot_lens.len() != self.params.len() {
                return Err(StateError::SlotCountMismatch {
                    section: "params",
                    expected: self.params.len(),
                    found: slot_lens.len(),
                });
            }
            for (section, saved) in [("params", &self.params), ("velocity", &self.velocity)] {
                for (i, (&len, slot)) in slot_lens.iter().zip(saved).enumerate() {
                    if len != slot.len() {
                        return Err(StateError::SlotLenMismatch {
                            section,
                            index: i,
                            expected: slot.len(),
                            found: len,
                        });
                    }
                }
            }
            let state_lens: Vec<usize> = net
                .layers_mut()
                .iter_mut()
                .flat_map(|l| l.state_buffers())
                .map(|s| s.len())
                .collect();
            if state_lens.len() != self.state_bufs.len() {
                return Err(StateError::SlotCountMismatch {
                    section: "state",
                    expected: self.state_bufs.len(),
                    found: state_lens.len(),
                });
            }
            for (i, (&len, slot)) in state_lens.iter().zip(&self.state_bufs).enumerate() {
                if len != slot.len() {
                    return Err(StateError::SlotLenMismatch {
                        section: "state",
                        index: i,
                        expected: slot.len(),
                        found: len,
                    });
                }
            }
        }
        // Phase 2: write.
        let mut slot = 0;
        for layer in net.layers_mut() {
            for p in layer.params_mut() {
                p.data.copy_from_slice(&self.params[slot]);
                p.velocity.copy_from_slice(&self.velocity[slot]);
                slot += 1;
            }
        }
        let mut state: Vec<_> =
            net.layers_mut().iter_mut().flat_map(|l| l.state_buffers()).collect();
        for (s, saved) in state.iter_mut().zip(&self.state_bufs) {
            s.copy_from_slice(saved);
        }
        drop(state);
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
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());

        let mut meta = Vec::new();
        meta.extend_from_slice(&(self.iteration as u64).to_le_bytes());
        meta.extend_from_slice(&(self.sgd_step as u64).to_le_bytes());
        let (kind, l, h) = strategy_tag(self.strategy);
        meta.push(kind);
        meta.extend_from_slice(&l.to_le_bytes());
        meta.extend_from_slice(&h.to_le_bytes());
        meta.push(cr_flag);
        push_section(&mut buf, b"META", &meta);

        push_section(&mut buf, b"PRMS", &encode_f32_slots(&self.params));
        push_section(&mut buf, b"VELO", &encode_f32_slots(&self.velocity));
        push_section(&mut buf, b"STAT", &encode_f32_slots(&self.state_bufs));

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
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StateError> {
        if bytes.len() < 4 {
            return Err(StateError::Truncated("magic"));
        }
        if &bytes[..4] != MAGIC {
            return Err(StateError::BadMagic);
        }
        if bytes.len() < 8 {
            return Err(StateError::Truncated("header"));
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != VERSION {
            return Err(StateError::UnsupportedVersion(version));
        }
        let mut sections = SectionReader { bytes, pos: 8 };

        let meta = sections.section(b"META", "META")?;
        let mut f = Fields::new(meta, "META");
        let iteration = f.length()?;
        let sgd_step = f.length()?;
        let kind = f.u8()?;
        let l = f.u64()?;
        let h = f.u64()?;
        let strategy = strategy_from_tag(kind, l, h)?;
        let cr_flag = f.u8()?;
        f.done()?;

        let params = decode_f32_slots(sections.section(b"PRMS", "PRMS")?, "PRMS")?;
        let velocity = decode_f32_slots(sections.section(b"VELO", "VELO")?, "VELO")?;
        let state_bufs = decode_f32_slots(sections.section(b"STAT", "STAT")?, "STAT")?;

        let flop_bytes = sections.section(b"FLOP", "FLOP")?;
        let mut f = Fields::new(flop_bytes, "FLOP");
        let n_layers = f.length()?;
        let mut flops = Vec::with_capacity(n_layers.min(1 << 16));
        for _ in 0..n_layers {
            let actual = FlopReport { forward: f.u64()?, backward: f.u64()? };
            let baseline = FlopReport { forward: f.u64()?, backward: f.u64()? };
            flops.push(LayerFlopState { actual, baseline });
        }
        f.done()?;

        let ctrl_bytes = sections.section(b"CTRL", "CTRL")?;
        let mut f = Fields::new(ctrl_bytes, "CTRL");
        let controller = match f.u8()? {
            0 => None,
            1 => {
                let stage = f.length()?;
                let plateau = read_plateau(&mut f)?;
                Some(ControllerState { stage, plateau })
            }
            _ => return Err(StateError::Malformed("CTRL: presence flag")),
        };
        f.done()?;

        let crpl_bytes = sections.section(b"CRPL", "CRPL")?;
        let mut f = Fields::new(crpl_bytes, "CRPL");
        let cr_plateau = match f.u8()? {
            0 => None,
            1 => Some(read_plateau(&mut f)?),
            _ => return Err(StateError::Malformed("CRPL: presence flag")),
        };
        f.done()?;

        let epoc_bytes = sections.section(b"EPOC", "EPOC")?;
        let mut f = Fields::new(epoc_bytes, "EPOC");
        let meter = EpochMeterState {
            loss_sum: f.f64()?,
            hits: f.length()?,
            examples: f.length()?,
            batches: f.length()?,
        };
        f.done()?;

        let srcs_bytes = sections.section(b"SRCS", "SRCS")?;
        let mut f = Fields::new(srcs_bytes, "SRCS");
        let n_words = f.length()?;
        let mut source_state = Vec::with_capacity(n_words.min(1 << 16));
        for _ in 0..n_words {
            source_state.push(f.u64()?);
        }
        f.done()?;

        sections.done()?;
        let schedule = match (controller, cr_plateau, cr_flag) {
            (None, None, 0) => ScheduleState::Unset,
            (Some(cursor), None, 0) => ScheduleState::Adaptive(cursor),
            (None, Some(plateau), 1 | 2) => {
                ScheduleState::ClusterReuse { plateau, active: cr_flag == 2 }
            }
            _ => return Err(StateError::Malformed("schedule cursor: CTRL / CRPL / CR flag")),
        };
        Ok(Self {
            iteration,
            sgd_step,
            strategy,
            params,
            velocity,
            state_bufs,
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
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StateError> {
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
    ) -> Result<usize, StateError> {
        let bytes = self.to_bytes();
        durable::write_atomic_retry(path, &bytes, policy, faults)?;
        Ok(bytes.len())
    }

    /// Loads from a file.
    ///
    /// # Errors
    /// Propagates I/O and format errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StateError> {
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

fn strategy_from_tag(kind: u8, l: u64, h: u64) -> Result<Strategy, StateError> {
    let l = usize::try_from(l).map_err(|_| StateError::SectionOverflow)?;
    let h = usize::try_from(h).map_err(|_| StateError::SectionOverflow)?;
    match kind {
        0 => Ok(Strategy::Baseline),
        1 => Ok(Strategy::FixedLh { l, h }),
        2 => Ok(Strategy::AdaptiveLh),
        3 => Ok(Strategy::ClusterReuseSchedule { l, h }),
        _ => Err(StateError::Malformed("META: strategy kind")),
    }
}

fn push_section(buf: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    buf.extend_from_slice(tag);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&durable::crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

fn encode_f32_slots(slots: &[Vec<f32>]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(slots.len() as u64).to_le_bytes());
    for slot in slots {
        buf.extend_from_slice(&(slot.len() as u64).to_le_bytes());
        for &v in slot {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

fn decode_f32_slots(bytes: &[u8], section: &'static str) -> Result<Vec<Vec<f32>>, StateError> {
    let mut f = Fields::new(bytes, section);
    let count = f.length()?;
    let mut slots = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let len = f.length()?;
        let nbytes = len.checked_mul(4).ok_or(StateError::SectionOverflow)?;
        let chunk = f.take(nbytes)?;
        let slot =
            chunk.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
        slots.push(slot);
    }
    f.done()?;
    Ok(slots)
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

fn read_plateau(f: &mut Fields<'_>) -> Result<PlateauState, StateError> {
    let present = f.u8()?;
    let raw = f.f32()?;
    let smoothed = match present {
        0 => None,
        1 => {
            // A CRC-valid snapshot can still carry crafted bytes: a NaN
            // smoothed loss would seed the plateau/guardrail EMA and
            // permanently disarm loss comparisons. Refuse it typed.
            if !raw.is_finite() {
                return Err(StateError::Malformed("plateau smoothed loss is not finite"));
            }
            Some(raw)
        }
        _ => return Err(StateError::Malformed("plateau presence flag")),
    };
    let best = f.f32()?;
    // `+∞` is the legitimate "no best yet" sentinel; NaN and `-∞` wedge the
    // improvement test (`current < best * (1 - δ)`) forever.
    if best.is_nan() || (best.is_infinite() && best.is_sign_negative()) {
        return Err(StateError::Malformed("plateau best loss is NaN or -inf"));
    }
    Ok(PlateauState { smoothed, best, stale: f.length()?, seen: f.length()? })
}

/// Walks the fixed section layout, verifying tags and per-section CRCs.
struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    fn section(
        &mut self,
        tag: &'static [u8; 4],
        name: &'static str,
    ) -> Result<&'a [u8], StateError> {
        let head_end = self.pos.checked_add(16).ok_or(StateError::SectionOverflow)?;
        let head =
            self.bytes.get(self.pos..head_end).ok_or(StateError::Truncated("section header"))?;
        if &head[..4] != tag {
            return Err(StateError::SectionTagMismatch {
                expected: name,
                found: [head[0], head[1], head[2], head[3]],
            });
        }
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&head[4..12]);
        let len = usize::try_from(u64::from_le_bytes(len_bytes))
            .map_err(|_| StateError::SectionOverflow)?;
        let expected = u32::from_le_bytes([head[12], head[13], head[14], head[15]]);
        let end = head_end.checked_add(len).ok_or(StateError::SectionOverflow)?;
        let payload = self.bytes.get(head_end..end).ok_or(StateError::Truncated(name))?;
        let actual = durable::crc32(payload);
        if expected != actual {
            return Err(StateError::ChecksumMismatch { section: name, expected, actual });
        }
        self.pos = end;
        Ok(payload)
    }

    fn done(&self) -> Result<(), StateError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(StateError::TrailingBytes)
        }
    }
}

/// Bounds-checked field reader inside one verified section payload.
struct Fields<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Fields<'a> {
    fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Self { bytes, pos: 0, section }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let end = self.pos.checked_add(n).ok_or(StateError::SectionOverflow)?;
        let chunk = self.bytes.get(self.pos..end).ok_or(StateError::Truncated(self.section))?;
        self.pos = end;
        Ok(chunk)
    }

    fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, StateError> {
        let chunk = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(chunk);
        Ok(u64::from_le_bytes(buf))
    }

    /// A u64 that must fit a `usize` (counts, lengths, cursors).
    fn length(&mut self) -> Result<usize, StateError> {
        usize::try_from(self.u64()?).map_err(|_| StateError::SectionOverflow)
    }

    fn f32(&mut self) -> Result<f32, StateError> {
        let chunk = self.take(4)?;
        Ok(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]))
    }

    fn f64(&mut self) -> Result<f64, StateError> {
        let chunk = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(chunk);
        Ok(f64::from_le_bytes(buf))
    }

    fn done(&self) -> Result<(), StateError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(StateError::Malformed(self.section))
        }
    }
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
        assert_ne!(TrainState::capture(&mut n, &sgd, Strategy::fixed(3, 6), 6).params, s.params);
        s.restore_model(&mut n, &mut sgd).unwrap();
        let recaptured = TrainState::capture(&mut n, &sgd, Strategy::fixed(3, 6), 3);
        assert_eq!(recaptured.params, s.params);
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
        assert!(matches!(err, StateError::LayerCountMismatch { expected: 3, found: 1 }), "{err}");
        let after = TrainState::capture(&mut other, &sgd, Strategy::baseline(), 0);
        assert_eq!(before.params, after.params, "failed restore must not write anything");
    }

    #[test]
    fn strategy_verification_fails_closed() {
        let (_, _, s) = trained_state(4);
        s.verify_strategy(Strategy::fixed(3, 6)).unwrap();
        let err = s.verify_strategy(Strategy::adaptive()).unwrap_err();
        assert!(matches!(err, StateError::StrategyMismatch { .. }), "{err}");
        assert!(err.to_string().contains("AdaptiveLh"), "{err}");
    }

    #[test]
    fn corrupt_bytes_fail_closed() {
        let (_, _, s) = trained_state(5);
        let bytes = s.to_bytes();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(TrainState::from_bytes(&bad).unwrap_err(), StateError::BadMagic));

        // Unsupported version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            TrainState::from_bytes(&bad).unwrap_err(),
            StateError::UnsupportedVersion(99)
        ));

        // Truncation inside a section body.
        let bad = &bytes[..bytes.len() - 3];
        assert!(matches!(TrainState::from_bytes(bad).unwrap_err(), StateError::Truncated(_)));

        // A flipped payload bit trips that section's CRC.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            TrainState::from_bytes(&bad).unwrap_err(),
            StateError::ChecksumMismatch { .. } | StateError::SectionTagMismatch { .. }
        ));

        // Trailing garbage after a complete snapshot.
        let mut bad = bytes.clone();
        bad.extend_from_slice(b"junk");
        assert!(matches!(TrainState::from_bytes(&bad).unwrap_err(), StateError::TrailingBytes));
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
