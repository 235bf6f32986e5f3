//! Typed failure surface of the serving engine.
//!
//! Serving failures split along the same line as the checkpoint formats'
//! errors: [`RequestError`] is the per-request contract with a caller
//! (reject, shed, miss a deadline), [`EngineError`] is the engine's own
//! construction/loading contract. Neither ever panics a caller — overload
//! and poisoned inputs are ordinary, typed outcomes.

use std::fmt;
use std::time::Duration;

use adr_nn::checkpoint::CheckpointError;
use adr_nn::layer::Shape3;

/// Why one inference request was rejected or failed.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestError {
    /// The bounded admission queue is full: the request is shed rather
    /// than buffered without bound (backpressure).
    Overloaded {
        /// Requests already queued.
        depth: usize,
        /// Configured queue capacity.
        capacity: usize,
        /// Backoff hint: estimated time until the queue drains, computed
        /// from the current depth and the observed per-batch drain rate.
        /// Clients that honour it stop hammering a hot engine.
        retry_after: Duration,
    },
    /// The tenant's token bucket is empty: the request is rejected before
    /// it can occupy queue capacity, with a deterministic refill hint.
    RateLimited {
        /// Time until the bucket holds one whole token again.
        retry_after: Duration,
    },
    /// The request named a model the registry does not hold.
    UnknownModel {
        /// The model name the request carried.
        model: String,
    },
    /// The request named a tenant the gateway has no configuration for.
    UnknownTenant {
        /// The tenant name the request carried.
        tenant: String,
    },
    /// The request tensor is not a single image (`batch != 1`).
    NotSingleImage {
        /// Batch dimension of the submitted tensor.
        batch: usize,
    },
    /// The per-image shape disagrees with the network input.
    ShapeMismatch {
        /// Shape the frozen network expects.
        expected: Shape3,
        /// Shape the request carried.
        found: Shape3,
    },
    /// A NaN/Inf pixel was found at admission.
    NonFiniteInput {
        /// Flat index of the first non-finite value.
        index: usize,
        /// The offending value.
        value: f32,
    },
    /// The batch output stayed non-finite even after the exact-GEMM retry;
    /// the whole batch is failed rather than surfacing poison.
    NonFiniteOutput {
        /// Flat index of the first non-finite logit in the batch output.
        index: usize,
    },
    /// The response would have arrived after the request's latency budget.
    DeadlineExceeded {
        /// Budget the request was admitted with, in milliseconds.
        budget_ms: u64,
        /// Admission-to-completion latency actually observed.
        elapsed_ms: u64,
    },
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded { depth, capacity, retry_after } => {
                write!(
                    f,
                    "overloaded: admission queue holds {depth}/{capacity} requests, retry after \
                     {} ms",
                    retry_after.as_millis()
                )
            }
            Self::RateLimited { retry_after } => {
                write!(
                    f,
                    "rate limited: token bucket empty, retry after {} ms",
                    retry_after.as_millis()
                )
            }
            Self::UnknownModel { model } => {
                write!(f, "unknown model '{model}': not in the registry")
            }
            Self::UnknownTenant { tenant } => {
                write!(f, "unknown tenant '{tenant}': no gateway configuration")
            }
            Self::NotSingleImage { batch } => {
                write!(f, "request must be a single image, got a batch of {batch}")
            }
            Self::ShapeMismatch { expected, found } => write!(
                f,
                "input shape {}x{}x{} does not match the network's {}x{}x{}",
                found.0, found.1, found.2, expected.0, expected.1, expected.2
            ),
            Self::NonFiniteInput { index, value } => {
                write!(f, "non-finite input value {value} at flat index {index}")
            }
            Self::NonFiniteOutput { index } => {
                write!(f, "batch output non-finite at flat index {index} even after exact retry")
            }
            Self::DeadlineExceeded { budget_ms, elapsed_ms } => {
                write!(f, "deadline exceeded: budget {budget_ms} ms, elapsed {elapsed_ms} ms")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Why the engine could not be built or a checkpoint could not be loaded.
#[derive(Debug)]
pub enum EngineError {
    /// The artifact (`ADR1` checkpoint or `ADRS` train state) failed to
    /// load or restore.
    Checkpoint(CheckpointError),
    /// The degradation ladder has no stages.
    EmptyLadder,
    /// A ladder stage carries an invalid reuse configuration.
    BadStage {
        /// Index of the offending stage.
        stage: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A structurally invalid engine configuration (zero queue capacity,
    /// zero micro-batch size, or a zero latency target).
    BadConfig(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Checkpoint(e) => write!(f, "checkpoint load failed: {e}"),
            Self::EmptyLadder => write!(f, "degradation ladder has no stages"),
            Self::BadStage { stage, reason } => write!(f, "ladder stage {stage}: {reason}"),
            Self::BadConfig(msg) => write!(f, "invalid engine config: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// Why a zero-downtime hot swap was rejected and rolled back.
///
/// Every variant leaves the previous generation serving: the swap state
/// machine only flips the generation pointer after the new artifact has
/// loaded, restored, and answered a finite probe batch.
#[derive(Debug)]
pub enum SwapError {
    /// The swap named a model the registry does not hold.
    UnknownModel {
        /// The model name the swap carried.
        model: String,
    },
    /// The new artifact failed to read, parse, or restore. The rollback
    /// happened before any serving state was touched.
    Load(EngineError),
    /// The new generation produced a non-finite logit on the warm-verify
    /// probe batch — it never went live.
    ProbeNonFinite {
        /// Flat index of the first non-finite probe logit.
        index: usize,
    },
    /// The new generation's network disagrees with the serving input
    /// shape — a mis-built factory or a checkpoint for another model.
    ProbeShape {
        /// Shape the live generation serves.
        expected: Shape3,
        /// Shape the candidate network expects.
        found: Shape3,
    },
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownModel { model } => {
                write!(f, "swap rejected: unknown model '{model}'")
            }
            Self::Load(e) => write!(f, "swap rolled back: new artifact failed to load: {e}"),
            Self::ProbeNonFinite { index } => write!(
                f,
                "swap rolled back: warm-verify probe produced a non-finite logit at flat index \
                 {index}"
            ),
            Self::ProbeShape { expected, found } => write!(
                f,
                "swap rolled back: candidate expects {}x{}x{}, live generation serves {}x{}x{}",
                found.0, found.1, found.2, expected.0, expected.1, expected.2
            ),
        }
    }
}

impl std::error::Error for SwapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Load(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for SwapError {
    fn from(e: EngineError) -> Self {
        Self::Load(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_errors_render_their_parameters() {
        let shed = RequestError::Overloaded {
            depth: 8,
            capacity: 8,
            retry_after: Duration::from_millis(120),
        };
        assert!(shed.to_string().contains("8/8"));
        assert!(shed.to_string().contains("retry after 120 ms"), "{shed}");
        let limited = RequestError::RateLimited { retry_after: Duration::from_millis(500) };
        assert!(limited.to_string().contains("500 ms"));
        let model = RequestError::UnknownModel { model: "resnet".into() };
        assert!(model.to_string().contains("resnet"));
        let tenant = RequestError::UnknownTenant { tenant: "ghost".into() };
        assert!(tenant.to_string().contains("ghost"));
        let shape = RequestError::ShapeMismatch { expected: (16, 16, 3), found: (8, 8, 1) };
        assert!(shape.to_string().contains("8x8x1"));
        assert!(shape.to_string().contains("16x16x3"));
        let late = RequestError::DeadlineExceeded { budget_ms: 10, elapsed_ms: 250 };
        assert!(late.to_string().contains("250"));
    }

    #[test]
    fn swap_errors_render_and_chain_their_sources() {
        let rolled = SwapError::Load(EngineError::Checkpoint(CheckpointError::BadMagic));
        assert!(rolled.to_string().contains("rolled back"));
        assert!(std::error::Error::source(&rolled).is_some());
        let probe = SwapError::ProbeNonFinite { index: 3 };
        assert!(probe.to_string().contains("flat index 3"));
        let shape = SwapError::ProbeShape { expected: (16, 16, 3), found: (8, 8, 3) };
        assert!(shape.to_string().contains("8x8x3"));
        assert!(SwapError::UnknownModel { model: "m".into() }.to_string().contains("'m'"));
    }

    #[test]
    fn engine_errors_wrap_their_sources() {
        let e = EngineError::from(CheckpointError::BadMagic);
        assert!(matches!(e, EngineError::Checkpoint(CheckpointError::BadMagic)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(EngineError::EmptyLadder.to_string().contains("no stages"));
    }
}
