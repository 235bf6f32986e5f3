//! Parameter checkpointing.
//!
//! Saves and restores the learnable parameters of a network whose
//! architecture is reconstructed by code (the model builders in
//! `adr-models` are deterministic, so architecture is never serialised —
//! only the parameter values). The format is a small versioned binary
//! layout: magic, version, slot count, then per-slot length + little-endian
//! `f32` data, closed by a CRC32 checksum over everything after the header
//! so bit rot and partial copies fail loudly instead of restoring garbage.
//!
//! Failure handling is transactional on both axes: [`Checkpoint::restore`]
//! validates every slot and state-buffer length before mutating anything,
//! and [`Checkpoint::save`] goes through the atomic-rename protocol in
//! [`crate::durable`], so neither a mismatched file nor a crash mid-save
//! can leave a half-written network or checkpoint behind.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::durable;
use crate::network::Network;

const MAGIC: &[u8; 4] = b"ADR1";
const VERSION: u32 = 3;

/// Why a checkpoint could not be decoded or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file does not start with the `ADR1` magic.
    BadMagic,
    /// The version field names a format this build cannot read.
    UnsupportedVersion(u32),
    /// The byte stream ended inside the named structure.
    Truncated(&'static str),
    /// The stored CRC32 disagrees with the payload: corruption.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u32,
        /// Checksum of the payload as read.
        actual: u32,
    },
    /// A recorded length does not fit in memory on this platform.
    SectionOverflow,
    /// Extra bytes follow a structurally complete checkpoint.
    TrailingBytes,
    /// The checkpoint and the network disagree on the number of
    /// parameter slots (different architecture).
    SlotCountMismatch {
        /// Slots in the checkpoint.
        expected: usize,
        /// Slots in the target network.
        found: usize,
    },
    /// One parameter slot has the wrong length (different layer shape).
    SlotLenMismatch {
        /// Slot index in capture order.
        index: usize,
        /// Values in the checkpoint slot.
        expected: usize,
        /// Values the network expects.
        found: usize,
    },
    /// The checkpoint and the network disagree on the number of
    /// non-learnable state buffers.
    StateCountMismatch {
        /// Buffers in the checkpoint.
        expected: usize,
        /// Buffers in the target network.
        found: usize,
    },
    /// One state buffer has the wrong length.
    StateLenMismatch {
        /// Buffer index in capture order.
        index: usize,
        /// Values in the checkpoint buffer.
        expected: usize,
        /// Values the network expects.
        found: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            Self::BadMagic => write!(f, "not an ADR checkpoint (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::Truncated(what) => write!(f, "checkpoint truncated inside {what}"),
            Self::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch (recorded {expected:#010x}, computed {actual:#010x})"
            ),
            Self::SectionOverflow => write!(f, "checkpoint section length overflows usize"),
            Self::TrailingBytes => write!(f, "trailing bytes after checkpoint payload"),
            Self::SlotCountMismatch { expected, found } => {
                write!(f, "checkpoint has {expected} parameter slots, network has {found}")
            }
            Self::SlotLenMismatch { index, expected, found } => write!(
                f,
                "slot {index}: checkpoint holds {expected} values, network expects {found}"
            ),
            Self::StateCountMismatch { expected, found } => {
                write!(f, "checkpoint has {expected} state buffers, network has {found}")
            }
            Self::StateLenMismatch { index, expected, found } => write!(
                f,
                "state buffer {index}: checkpoint holds {expected} values, network expects {found}"
            ),
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
    slots: Vec<Vec<f32>>,
    state: Vec<Vec<f32>>,
}

impl Checkpoint {
    /// Captures the current parameters and layer state of `net`.
    pub fn capture(net: &mut Network) -> Self {
        let slots = net
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
        Self { slots, state }
    }

    /// Number of parameter slots (weights + biases across layers).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of non-learnable state buffers.
    pub fn num_state_buffers(&self) -> usize {
        self.state.len()
    }

    /// Restores the captured parameters into `net`, transactionally: every
    /// slot and state-buffer length is validated before the first write, so
    /// a mismatched checkpoint never leaves `net` partially restored.
    ///
    /// # Errors
    /// Returns a mismatch variant when the network's parameter slots or
    /// state buffers disagree with the checkpoint (different architecture).
    pub fn restore(&self, net: &mut Network) -> Result<(), CheckpointError> {
        {
            let params: Vec<_> = net.layers_mut().iter_mut().flat_map(|l| l.params_mut()).collect();
            if params.len() != self.slots.len() {
                return Err(CheckpointError::SlotCountMismatch {
                    expected: self.slots.len(),
                    found: params.len(),
                });
            }
            for (i, (p, saved)) in params.iter().zip(&self.slots).enumerate() {
                if p.data.len() != saved.len() {
                    return Err(CheckpointError::SlotLenMismatch {
                        index: i,
                        expected: saved.len(),
                        found: p.data.len(),
                    });
                }
            }
        }
        {
            let state: Vec<_> =
                net.layers_mut().iter_mut().flat_map(|l| l.state_buffers()).collect();
            if state.len() != self.state.len() {
                return Err(CheckpointError::StateCountMismatch {
                    expected: self.state.len(),
                    found: state.len(),
                });
            }
            for (i, (s, saved)) in state.iter().zip(&self.state).enumerate() {
                if s.len() != saved.len() {
                    return Err(CheckpointError::StateLenMismatch {
                        index: i,
                        expected: saved.len(),
                        found: s.len(),
                    });
                }
            }
        }
        let mut params: Vec<_> = net.layers_mut().iter_mut().flat_map(|l| l.params_mut()).collect();
        for (p, saved) in params.iter_mut().zip(&self.slots) {
            p.data.copy_from_slice(saved);
        }
        drop(params);
        let mut state: Vec<_> =
            net.layers_mut().iter_mut().flat_map(|l| l.state_buffers()).collect();
        for (s, saved) in state.iter_mut().zip(&self.state) {
            s.copy_from_slice(saved);
        }
        Ok(())
    }

    /// Serialises to the on-disk byte layout: magic, version, both f32
    /// sections, and a trailing CRC32 over everything after the header.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        for section in [&self.slots, &self.state] {
            buf.extend_from_slice(&(section.len() as u64).to_le_bytes());
            for slot in section {
                buf.extend_from_slice(&(slot.len() as u64).to_le_bytes());
                for &v in slot {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
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
        // Magic is checked before the full header so a short junk file
        // reports "not a checkpoint" rather than "truncated".
        if bytes.len() < 4 {
            return Err(CheckpointError::Truncated("magic"));
        }
        if &bytes[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < 12 {
            return Err(CheckpointError::Truncated("header"));
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let body = &bytes[8..bytes.len() - 4];
        let trailer = &bytes[bytes.len() - 4..];
        let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let actual = durable::crc32(body);
        if expected != actual {
            return Err(CheckpointError::ChecksumMismatch { expected, actual });
        }
        let mut cursor = Cursor { bytes: body, pos: 0 };
        let slots = cursor.read_section()?;
        let state = cursor.read_section()?;
        if cursor.pos != body.len() {
            return Err(CheckpointError::TrailingBytes);
        }
        Ok(Self { slots, state })
    }

    /// Serialises into a writer ([`Checkpoint::to_bytes`] layout).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.to_bytes())
    }

    /// Deserialises from a reader ([`Checkpoint::from_bytes`] layout).
    ///
    /// # Errors
    /// Fails on I/O errors or any format error, mapped to `InvalidData`.
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
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

/// Bounds-checked reader over the checksummed body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn read_u64(&mut self, what: &'static str) -> Result<u64, CheckpointError> {
        let end = self.pos.checked_add(8).ok_or(CheckpointError::SectionOverflow)?;
        let chunk = self.bytes.get(self.pos..end).ok_or(CheckpointError::Truncated(what))?;
        self.pos = end;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(chunk);
        Ok(u64::from_le_bytes(buf))
    }

    fn read_section(&mut self) -> Result<Vec<Vec<f32>>, CheckpointError> {
        let num_slots = usize::try_from(self.read_u64("section header")?)
            .map_err(|_| CheckpointError::SectionOverflow)?;
        let mut slots = Vec::with_capacity(num_slots.min(1 << 20));
        for _ in 0..num_slots {
            let len = usize::try_from(self.read_u64("slot header")?)
                .map_err(|_| CheckpointError::SectionOverflow)?;
            let nbytes = len.checked_mul(4).ok_or(CheckpointError::SectionOverflow)?;
            let end = self.pos.checked_add(nbytes).ok_or(CheckpointError::SectionOverflow)?;
            let chunk =
                self.bytes.get(self.pos..end).ok_or(CheckpointError::Truncated("f32 section"))?;
            self.pos = end;
            let slot = chunk
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            slots.push(slot);
        }
        Ok(slots)
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
        assert_eq!(snap.num_slots(), 4); // conv w+b, dense w+b
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
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&mut buf.as_slice()).unwrap();
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
            matches!(err, CheckpointError::SlotCountMismatch { expected: 4, found: 2 }),
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
        // And through the io-flavoured reader, it maps to InvalidData.
        let err = Checkpoint::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
