//! The snapshot codec: parameter checkpoints (`ADR1`) and the pieces the
//! full train state (`ADRS`, `adr_core::state`) is built from.
//!
//! A [`Checkpoint`] saves and restores the learnable parameters and layer
//! state of a network whose architecture is reconstructed by code (the
//! model builders in `adr-models` are deterministic, so architecture is
//! never serialised — only the parameter values). Its file is magic,
//! version, two f32 slot lists (parameters, then layer state) and a CRC32
//! over everything after the header, so bit rot and partial copies fail
//! loudly instead of restoring garbage. The `ADRS` train state writes the
//! same two slot lists as its `PRMS` and `STAT` sections, reads them with
//! the same [`Fields`] reader, and restores them through
//! [`Checkpoint::restore`]; every decode and restore failure of either
//! format is one [`CheckpointError`].
//!
//! Failure handling is transactional on both axes: [`Checkpoint::restore`]
//! validates every slot and state-buffer length before mutating anything,
//! and [`Checkpoint::save`] goes through the atomic-rename protocol in
//! [`crate::durable`], so neither a mismatched file nor a crash mid-save
//! can leave a half-written network or checkpoint behind.

use std::fmt;
use std::io;
use std::path::Path;

use crate::durable;
use crate::network::Network;

const MAGIC: &[u8; 4] = b"ADR1";
const VERSION: u32 = 3;

/// Why a snapshot (`ADR1` checkpoint or `ADRS` train state) could not be
/// decoded or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file does not start with the format's magic.
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
    /// A stored CRC32 disagrees with its payload: corruption.
    ChecksumMismatch {
        /// What the checksum covers (`"ADR1"` for a checkpoint's body, a
        /// section tag in a train state).
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
    /// The snapshot and the network disagree on a buffer count (different
    /// architecture).
    SlotCountMismatch {
        /// Which buffers disagree (`"params"` or `"state"`).
        section: &'static str,
        /// Buffers in the snapshot.
        expected: usize,
        /// Buffers in the target network.
        found: usize,
    },
    /// One buffer has the wrong length (different layer shape).
    SlotLenMismatch {
        /// Which buffers disagree.
        section: &'static str,
        /// Buffer index in capture order.
        index: usize,
        /// Values in the snapshot buffer.
        expected: usize,
        /// Values the network expects.
        found: usize,
    },
    /// A train state's per-layer FLOP list does not match the network.
    LayerCountMismatch {
        /// Layers in the snapshot.
        expected: usize,
        /// Layers in the target network.
        found: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            Self::BadMagic => write!(f, "bad magic: not a snapshot of the expected format"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            Self::Truncated(what) => write!(f, "snapshot truncated inside {what}"),
            Self::SectionTagMismatch { expected, found } => write!(
                f,
                "expected section {expected:?}, found {:?}",
                String::from_utf8_lossy(found)
            ),
            Self::ChecksumMismatch { section, expected, actual } => write!(
                f,
                "{section} checksum mismatch (recorded {expected:#010x}, computed {actual:#010x})"
            ),
            Self::SectionOverflow => write!(f, "snapshot length field overflows usize"),
            Self::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
            Self::Malformed(what) => write!(f, "malformed snapshot section: {what}"),
            Self::SlotCountMismatch { section, expected, found } => {
                write!(f, "snapshot has {expected} {section} buffers, network has {found}")
            }
            Self::SlotLenMismatch { section, index, expected, found } => write!(
                f,
                "{section} buffer {index}: snapshot holds {expected} values, network expects {found}"
            ),
            Self::LayerCountMismatch { expected, found } => {
                write!(f, "snapshot covers {expected} layers, network has {found}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// A snapshot of every learnable parameter of a network (in layer order)
/// plus non-learnable layer state (batch-norm running statistics, ...).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Learnable parameters, one slot per `ParamRefMut` in layer order.
    pub params: Vec<Vec<f32>>,
    /// Non-learnable layer state, one slot per state buffer in layer order.
    pub state: Vec<Vec<f32>>,
}

impl Checkpoint {
    /// Captures the current parameters and layer state of `net`.
    pub fn capture(net: &mut Network) -> Self {
        let params = net
            .layers_mut()
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .map(|p| p.data.to_vec())
            .collect();
        let state = net
            .layers_mut()
            .iter_mut()
            .flat_map(|l| l.state_buffers())
            .map(|s| s.to_vec())
            .collect();
        Self { params, state }
    }

    /// Restores the captured parameters into `net`, transactionally: every
    /// slot and state-buffer length is validated before the first write, so
    /// a mismatched checkpoint never leaves `net` partially restored.
    ///
    /// # Errors
    /// Returns a mismatch variant when the network's parameter slots or
    /// state buffers disagree with the checkpoint (different architecture).
    pub fn restore(&self, net: &mut Network) -> Result<(), CheckpointError> {
        let param_lens =
            net.layers_mut().iter_mut().flat_map(|l| l.params_mut()).map(|p| p.data.len());
        check_lens("params", &self.params, param_lens.collect())?;
        let state_lens =
            net.layers_mut().iter_mut().flat_map(|l| l.state_buffers()).map(|s| s.len());
        check_lens("state", &self.state, state_lens.collect())?;
        for (p, saved) in net.layers_mut().iter_mut().flat_map(|l| l.params_mut()).zip(&self.params)
        {
            p.data.copy_from_slice(saved);
        }
        for (s, saved) in
            net.layers_mut().iter_mut().flat_map(|l| l.state_buffers()).zip(&self.state)
        {
            s.copy_from_slice(saved);
        }
        Ok(())
    }

    /// Serialises to the on-disk byte layout: magic, version, the parameter
    /// and state slot lists, and a trailing CRC32 over everything after the
    /// header.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = header(MAGIC, VERSION);
        write_slots(&mut buf, &self.params);
        write_slots(&mut buf, &self.state);
        let crc = durable::crc32(&buf[8..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Deserialises the byte layout produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    /// Fails closed on bad magic, unsupported versions, truncation,
    /// checksum mismatches, and trailing garbage.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let rest = check_header(bytes, MAGIC, VERSION)?;
        let (body, trailer) =
            rest.split_last_chunk::<4>().ok_or(CheckpointError::Truncated("checksum"))?;
        let (expected, actual) = (u32::from_le_bytes(*trailer), durable::crc32(body));
        if expected != actual {
            return Err(CheckpointError::ChecksumMismatch { section: "ADR1", expected, actual });
        }
        let mut f = Fields::new(body, "ADR1");
        let params = f.slots()?;
        let state = f.slots()?;
        if f.remaining() != 0 {
            return Err(CheckpointError::TrailingBytes);
        }
        Ok(Self { params, state })
    }

    /// Saves to a file crash-safely (temp file + fsync + atomic rename via
    /// [`crate::durable::write_atomic`]).
    ///
    /// # Errors
    /// Propagates I/O errors; the destination is untouched on failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        durable::write_atomic(path.as_ref(), &self.to_bytes())?;
        Ok(())
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

/// Phase one of a two-phase restore: `saved` must hold one slot per live
/// buffer, each of the live buffer's length.
fn check_lens(
    section: &'static str,
    saved: &[Vec<f32>],
    live: Vec<usize>,
) -> Result<(), CheckpointError> {
    if saved.len() != live.len() {
        return Err(CheckpointError::SlotCountMismatch {
            section,
            expected: saved.len(),
            found: live.len(),
        });
    }
    for (index, (slot, found)) in saved.iter().zip(live).enumerate() {
        if slot.len() != found {
            return Err(CheckpointError::SlotLenMismatch {
                section,
                index,
                expected: slot.len(),
                found,
            });
        }
    }
    Ok(())
}

/// The 8-byte file header: `magic`, then `version` as a little-endian u32.
pub fn header(magic: &[u8; 4], version: u32) -> Vec<u8> {
    let mut buf = magic.to_vec();
    buf.extend_from_slice(&version.to_le_bytes());
    buf
}

/// Checks the header [`header`] writes and returns the bytes after it.
///
/// # Errors
/// The magic is checked before the full header, so a short junk file
/// reports [`CheckpointError::BadMagic`] rather than a truncation.
pub fn check_header<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u32,
) -> Result<&'a [u8], CheckpointError> {
    let found = bytes.get(..4).ok_or(CheckpointError::Truncated("magic"))?;
    if found != magic {
        return Err(CheckpointError::BadMagic);
    }
    let (head, rest) =
        bytes.split_first_chunk::<8>().ok_or(CheckpointError::Truncated("header"))?;
    let found = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if found != version {
        return Err(CheckpointError::UnsupportedVersion(found));
    }
    Ok(rest)
}

/// Appends an f32 slot list: a u64 slot count, then per slot a u64 length
/// and that many little-endian f32 values. [`Fields::slots`] reads it back.
pub fn write_slots(buf: &mut Vec<u8>, slots: &[Vec<f32>]) {
    buf.extend_from_slice(&(slots.len() as u64).to_le_bytes());
    for slot in slots {
        buf.extend_from_slice(&(slot.len() as u64).to_le_bytes());
        for &v in slot {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Bounds-checked little-endian reader over one checksummed payload. A read
/// past the end fails with [`CheckpointError::Truncated`] naming the
/// payload, a length that does not fit a `usize` with
/// [`CheckpointError::SectionOverflow`].
pub struct Fields<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Fields<'a> {
    /// A reader at the start of `bytes`, which errors call `section`.
    pub fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Self { bytes, pos: 0, section }
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::SectionOverflow)?;
        let chunk =
            self.bytes.get(self.pos..end).ok_or(CheckpointError::Truncated(self.section))?;
        self.pos = end;
        Ok(chunk)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let mut buf = [0u8; N];
        buf.copy_from_slice(self.take(N)?);
        Ok(buf)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A u64 that must fit a `usize` (counts, lengths, cursors).
    pub fn length(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::SectionOverflow)
    }

    /// A little-endian f32.
    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        self.array().map(f32::from_le_bytes)
    }

    /// A little-endian f64.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        self.array().map(f64::from_le_bytes)
    }

    /// An f32 slot list as [`write_slots`] lays it out.
    pub fn slots(&mut self) -> Result<Vec<Vec<f32>>, CheckpointError> {
        let count = self.length()?;
        // Every slot carries at least its 8-byte length, so a crafted count
        // cannot reserve more than the payload could hold.
        let mut slots = Vec::with_capacity(count.min(self.remaining() / 8));
        for _ in 0..count {
            let nbytes = self.length()?.checked_mul(4).ok_or(CheckpointError::SectionOverflow)?;
            let values = self.take(nbytes)?.chunks_exact(4);
            slots.push(values.map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect());
        }
        Ok(slots)
    }

    /// Checks that the whole payload was read.
    ///
    /// # Errors
    /// [`CheckpointError::Malformed`] naming the payload otherwise.
    pub fn done(&self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Malformed(self.section))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2d;
    use crate::dense::Dense;
    use crate::relu::Relu;
    use crate::{Mode, Sgd};
    use adr_tensor::im2col::ConvGeom;
    use adr_tensor::rng::AdrRng;
    use adr_tensor::Tensor4;

    fn net(seed: u64) -> Network {
        let mut rng = AdrRng::seeded(seed);
        let mut net = Network::new((5, 5, 1));
        let geom = ConvGeom::new(5, 5, 1, 3, 3, 1, 0).unwrap();
        net.push(Box::new(Conv2d::new("conv", geom, 2, &mut rng)));
        net.push(Box::new(Relu::new("relu")));
        net.push(Box::new(Dense::new("fc", 3 * 3 * 2, 2, &mut rng)));
        net
    }

    #[test]
    fn capture_restore_round_trip() {
        let mut a = net(1);
        let snap = Checkpoint::capture(&mut a);
        assert_eq!(snap.params.len(), 4); // conv w+b, dense w+b
                                          // Train a bit; parameters drift. Gaussian input keeps ReLUs alive
                                          // and distinct images give a non-degenerate loss gradient.
        let mut sgd = Sgd::constant(0.1);
        let mut xrng = AdrRng::seeded(9);
        let x = Tensor4::from_fn(2, 5, 5, 1, |_, _, _, _| xrng.gauss());
        for _ in 0..5 {
            a.train_batch(&x, &[0, 1], &mut sgd);
        }
        let drifted = Checkpoint::capture(&mut a);
        assert_ne!(snap, drifted);
        // Restore: parameters revert exactly.
        snap.restore(&mut a).unwrap();
        assert_eq!(Checkpoint::capture(&mut a), snap);
    }

    #[test]
    fn serialised_round_trip_is_bit_exact() {
        let mut a = net(2);
        let snap = Checkpoint::capture(&mut a);
        let back = Checkpoint::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn file_round_trip_transfers_behaviour() {
        let dir = std::env::temp_dir().join("adr_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.adr");
        let mut trained = net(3);
        let mut sgd = Sgd::constant(0.05);
        let x = Tensor4::from_fn(2, 5, 5, 1, |_, y, xx, _| (y * 5 + xx) as f32 * 0.05);
        for _ in 0..10 {
            trained.train_batch(&x, &[0, 1], &mut sgd);
        }
        Checkpoint::capture(&mut trained).save(&path).unwrap();
        // A freshly built net with different seed gives different logits...
        let mut fresh = net(4);
        let before = fresh.forward(&x, Mode::Eval);
        // ...until the checkpoint is loaded.
        Checkpoint::load(&path).unwrap().restore(&mut fresh).unwrap();
        let after = fresh.forward(&x, Mode::Eval);
        let expected = trained.forward(&x, Mode::Eval);
        assert_ne!(before.as_slice(), after.as_slice());
        assert_eq!(after.as_slice(), expected.as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_rejects_mismatched_architecture() {
        let mut a = net(5);
        let snap = Checkpoint::capture(&mut a);
        let mut rng = AdrRng::seeded(6);
        let mut other = Network::new((5, 5, 1));
        other.push(Box::new(Dense::new("fc", 25, 3, &mut rng)));
        let err = snap.restore(&mut other).unwrap_err();
        assert!(
            matches!(err, CheckpointError::SlotCountMismatch { expected: 4, found: 2, .. }),
            "{err}"
        );
        // Partial mismatch (right slot count, wrong sizes) is also refused
        // without mutating anything.
        let mut rng = AdrRng::seeded(7);
        let mut same_count = Network::new((5, 5, 1));
        let geom = ConvGeom::new(5, 5, 1, 3, 3, 1, 0).unwrap();
        same_count.push(Box::new(Conv2d::new("conv", geom, 3, &mut rng)));
        same_count.push(Box::new(Dense::new("fc", 3 * 3 * 3, 2, &mut rng)));
        let before = Checkpoint::capture(&mut same_count);
        let err = snap.restore(&mut same_count).unwrap_err();
        assert!(matches!(err, CheckpointError::SlotLenMismatch { .. }), "{err}");
        assert_eq!(Checkpoint::capture(&mut same_count), before, "no partial writes");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bytes = b"NOPE\x01\x00\x00\x00";
        let err = Checkpoint::from_bytes(bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic), "{err}");
    }
}
