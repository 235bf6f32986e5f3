//! Robust inference serving for adaptive deep reuse.
//!
//! The training side of this workspace tightens reuse when the model needs
//! more precision; serving runs the same dial in reverse. ADR's knobs
//! `{L, H, CR}` form a built-in quality/latency trade (Eqs. 5/6 of the
//! paper): under load the server *relaxes* reuse — coarser clusters, fewer
//! GEMM rows — instead of dropping requests, and recovers back toward the
//! exact im2col GEMM when pressure subsides.
//!
//! There is one request path, and [`gateway::Gateway`] is it:
//!
//! * **Admission** — requests enter per `(model, tenant)` lane. Unknown
//!   names, non-finite pixels and shape mismatches are rejected with a
//!   typed [`error::RequestError`] before they can touch a network; a
//!   tenant over its token bucket gets
//!   [`error::RequestError::RateLimited`], and once its fair share of the
//!   queue is full, further requests are shed with
//!   [`error::RequestError::Overloaded`] (backpressure, not buffering).
//! * **Micro-batching** — admitted requests are compatible by construction
//!   (admission pinned them to the model's input shape), so each
//!   `Gateway::poll` drains one lane FIFO into a batch of at most
//!   `max_batch`, visiting lanes round-robin.
//! * **Deadlines** — every request carries a latency budget measured from
//!   admission. A response that would arrive late is converted into a typed
//!   [`error::RequestError::DeadlineExceeded`] instead of silently served.
//! * **Degradation ladder** — a latency/queue-depth EMA
//!   ([`ladder::DegradationLadder`], one per lane) steps the reuse strategy
//!   between stages, from the exact GEMM through increasingly aggressive
//!   reuse — the trainer's guardrail tightening, mirrored. One tenant's
//!   burst degrades only its own quality.
//! * **Execution and output sanitation** — the batch runs on the model's
//!   replica, an [`engine::Engine`]: a frozen network that applies the
//!   lane's stage policy, scans every output with
//!   `adr_tensor::sanitize::first_non_finite`, quarantines a poisoned
//!   batch and retries it once on the exact GEMM path. A caller never
//!   observes a non-finite value. The engine has no queue, clock or report
//!   of its own; it tells the gateway what the batch did.
//! * **Registry and hot swap** — [`registry::ModelRegistry`] holds the named
//!   replicas loaded from `ADR1`/`ADRS` artifacts, each with a generation
//!   counter and a zero-downtime hot-swap state machine (load-new →
//!   warm-verify → atomic flip, typed [`error::SwapError`] rollback).
//! * **Observability** — one [`report::ServeReport`] accumulates per-tenant
//!   admission, deadline, ladder and per-stage counts, per-model batch,
//!   swap, sanitizer and FLOP counts, a latency histogram and the ordered
//!   event log (exact totals per kind, the newest 1 024 events in full);
//!   `Gateway::{ready, healthy}` are the probe surface.
//!
//! Single-tenant serving is not a second mode: it is a gateway with one
//! model and one tenant whose bucket never empties (`rate_per_sec` and
//! `burst` at `u64::MAX`), which is what `adr serve --checkpoint` builds.
//!
//! Determinism mirrors the training loop: with the [`clock::ManualClock`]
//! and no injected faults, the same request stream against the same
//! checkpoint produces bitwise-identical outputs and an identical report
//! (`tests/determinism.rs` pins this) — scheduling is round-robin over
//! `BTreeMap`-ordered lanes and all time flows through the injected clock.

#![warn(missing_docs)]
// Tests assert on values they just constructed; unwrap there is the idiom.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod clock;
pub mod engine;
pub mod error;
pub mod gateway;
pub mod ladder;
pub mod registry;
pub mod report;
pub mod tenant;

pub use clock::{ManualClock, MonotonicClock, ServeClock};
pub use engine::{BatchRun, Engine};
pub use error::{EngineError, RequestError, SwapError};
pub use gateway::{Gateway, GatewayConfig, InferResponse};
pub use ladder::{DegradationLadder, LadderConfig, LadderMove, StagePolicy};
pub use registry::{ArtifactKind, ModelRegistry, NetFactory};
pub use report::{
    EventLog, LatencyHistogram, ModelCounters, ServeEvent, ServeEventKind, ServeReport,
    TenantCounters,
};
pub use tenant::TenantConfig;
