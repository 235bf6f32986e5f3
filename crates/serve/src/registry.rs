//! The model registry: named, hot-swappable engine replicas.
//!
//! A [`ModelRegistry`] maps model names to independent [`Engine`] replicas
//! (batch executors; the gateway owns every queue), each loaded from a
//! named `ADR1` checkpoint or `ADRS` train-state artifact. Every entry
//! carries a *generation* counter and the factory that rebuilds its network
//! architecture, which is what makes zero-downtime hot swap possible:
//!
//! 1. **load-new** — read the replacement artifact and restore it into a
//!    freshly built network (the live engine is untouched);
//! 2. **warm-verify** — run the candidate network on the entry's probe
//!    batch and require finite logits of the right shape;
//! 3. **atomic flip** — replace the engine and bump the generation in one
//!    assignment (requests never observe a half-swapped model);
//! 4. **drain-old** — the previous engine holds no requests (the gateway
//!    owns all queues), so dropping it completes the drain trivially.
//!
//! Any failure before the flip returns a typed [`SwapError`] and leaves
//! the previous generation serving — rollback is the absence of the flip.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use adr_core::state::TrainState;
use adr_nn::checkpoint::{Checkpoint, CheckpointError};
use adr_nn::network::Network;
use adr_nn::sgd::Sgd;
use adr_tensor::sanitize::first_non_finite;
use adr_tensor::Tensor4;

use crate::engine::Engine;
use crate::error::{EngineError, SwapError};

/// Which artifact format a registry entry loads its weights from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// An `ADR1` parameter checkpoint ([`Checkpoint`]).
    Adr1,
    /// An `ADRS` full train-state snapshot ([`TrainState`]); serving
    /// restores the model half and ignores the optimiser.
    Adrs,
}

/// Rebuilds a model's (untrained) network architecture. Called once at
/// registration and once per hot swap, so a swap restores into a clean
/// network rather than mutating the live one.
pub type NetFactory = Box<dyn Fn() -> Network + Send>;

/// One registered model: its live engine, generation, and rebuild recipe.
pub(crate) struct ModelEntry {
    pub(crate) engine: Engine,
    pub(crate) generation: u64,
    kind: ArtifactKind,
    factory: NetFactory,
    probe: Tensor4,
}

/// Named model catalogue with per-entry hot swap.
#[derive(Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, ModelEntry>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads `path` as `kind` into a network built by `factory` and
    /// registers it under `name` at generation 0.
    ///
    /// # Errors
    /// [`EngineError::BadConfig`] for a duplicate name; load/restore
    /// failures as [`EngineError::Checkpoint`].
    pub fn register(
        &mut self,
        name: &str,
        kind: ArtifactKind,
        path: impl AsRef<Path>,
        factory: NetFactory,
    ) -> Result<(), EngineError> {
        if self.models.contains_key(name) {
            return Err(EngineError::BadConfig(format!("model '{name}' already registered")));
        }
        let bytes = fs::read(path.as_ref()).map_err(CheckpointError::from)?;
        let net = restore_into(factory(), kind, &bytes)?;
        let (h, w, c) = net.input_shape();
        // Deterministic finite probe batch for warm-verifying future swaps.
        let probe =
            Tensor4::from_fn(1, h, w, c, |_, y, x, ch| ((y * w + x) * c + ch) as f32 % 17.0 * 0.05);
        self.models.insert(
            name.to_string(),
            ModelEntry { engine: Engine::new(net), generation: 0, kind, factory, probe },
        );
        Ok(())
    }

    /// Hot-swaps `name` to the artifact at `path`: load-new → warm-verify
    /// → atomic flip. Returns the new generation number.
    ///
    /// # Errors
    /// Typed [`SwapError`]; on any error the previous generation is still
    /// registered and serving.
    pub(crate) fn swap(&mut self, name: &str, path: impl AsRef<Path>) -> Result<u64, SwapError> {
        let Some(entry) = self.models.get_mut(name) else {
            return Err(SwapError::UnknownModel { model: name.to_string() });
        };
        // load-new: everything below operates on a candidate network; the
        // live engine in `entry` is not touched until the flip.
        let bytes =
            fs::read(path.as_ref()).map_err(|e| EngineError::from(CheckpointError::from(e)))?;
        let net = restore_into((entry.factory)(), entry.kind, &bytes)?;
        // warm-verify: the candidate must serve the probe batch the live
        // generation serves, with finite logits.
        let expected = entry.engine.input_shape();
        if net.input_shape() != expected {
            return Err(SwapError::ProbeShape { expected, found: net.input_shape() });
        }
        let mut net = net;
        let logits = match net.infer(&entry.probe) {
            Ok(t) => t,
            Err(e) => return Err(SwapError::ProbeShape { expected: e.expected, found: e.found }),
        };
        if let Some((index, _)) = first_non_finite(logits.as_slice()) {
            return Err(SwapError::ProbeNonFinite { index });
        }
        // atomic flip + drain-old: one assignment replaces the replica; the
        // old engine holds no queued requests (the gateway does), so
        // dropping it is the drain. The probe's forward is not served work:
        // the engine's meters restart with its first batch.
        entry.engine = Engine::new(net);
        entry.generation += 1;
        Ok(entry.generation)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.models.contains_key(name)
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// The live generation of `name` (0 until the first swap).
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.models.get(name).map(|e| e.generation)
    }

    /// Shared access to a model's live engine.
    pub fn engine(&self, name: &str) -> Option<&Engine> {
        self.models.get(name).map(|e| &e.engine)
    }

    pub(crate) fn entry_mut(&mut self, name: &str) -> Option<&mut ModelEntry> {
        self.models.get_mut(name)
    }
}

/// Restores `bytes` (parsed as `kind`) into `net`.
fn restore_into(
    mut net: Network,
    kind: ArtifactKind,
    bytes: &[u8],
) -> Result<Network, EngineError> {
    match kind {
        ArtifactKind::Adr1 => {
            let checkpoint = Checkpoint::from_bytes(bytes)?;
            checkpoint.restore(&mut net)?;
        }
        ArtifactKind::Adrs => {
            let state = TrainState::from_bytes(bytes)?;
            let mut throwaway = Sgd::constant(0.0);
            state.restore_model(&mut net, &mut throwaway)?;
        }
    }
    Ok(net)
}
