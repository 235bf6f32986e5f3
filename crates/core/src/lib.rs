//! Adaptive deep reuse — the paper's contribution (§V).
//!
//! Different CNN training stages tolerate different amounts of precision
//! relaxation: a rough early model barely notices clustering error, while a
//! nearly-converged model is derailed by it. This crate turns that insight
//! into machinery:
//!
//! * [`policy`] — Policies 1 and 2 (plus Amendment 1) derive each layer's
//!   admissible ranges of sub-vector length `L` and hash count `H` from its
//!   geometry (`kw`, `Ic`) and unfolded row count `N`.
//! * [`candidates`] — Policy 3 merges the descending `[L]` list and the
//!   ascending `[H]` list into one ordered candidate schedule, always
//!   stepping in the direction of smaller expected-time increase
//!   (Eqs. 22/23).
//! * [`controller`] — the runtime: watches the training loss; when it
//!   plateaus, probes the next candidates on a held-out batch and accepts
//!   per Amendments 3.1–3.3.
//! * [`strategy`] — the three training strategies compared in Table IV:
//!   fixed `{L, H}` (Strategy 1), adaptive `{L, H}` (Strategy 2), and the
//!   cluster-reuse on→off schedule (Strategy 3), plus the dense baseline.
//! * [`schedule`] — what a strategy applies to the reuse layers, as one
//!   value: the only writer of `{L, H, CR}` during a run, the guardrails'
//!   one-way exact fallback, and the resumable cursor (`ScheduleState`).
//! * [`trainer`] — the training loop: one run state, captured and restored
//!   one way for checkpoints, resume and rollback alike, with
//!   FLOP/time/iteration accounting.
//! * [`report`] — the per-run summary used to regenerate Table IV.
//! * [`state`] — full-run snapshots (`TrainState`): crash-safe persistence
//!   of parameters, momentum, the schedule cursor, FLOP totals and the
//!   batch-source position, enabling bitwise-identical resume.
//! * [`guardrails`] — runtime health checks (non-finite loss/params, loss
//!   spikes, degenerate clusterings) with rollback + stage tightening.
//! * [`faults`] — a deterministic fault-injection harness for testing the
//!   two modules above, plus serving-side injection points (slow batches,
//!   poisoned outputs, corrupt checkpoint loads) for `adr_serve`.

#![warn(missing_docs)]
// Tests assert on values they just constructed; unwrap there is the idiom.
#![cfg_attr(test, allow(clippy::unwrap_used))]
// Exact float `==`/`!=` outside tests is a bug: compare against a tolerance.
// Typed, and `x == 0.0` IEEE special-case guards are exempt by clippy's design.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod candidates;
pub mod controller;
pub mod faults;
pub mod guardrails;
pub mod policy;
pub mod report;
pub mod schedule;
pub mod state;
pub mod strategy;
pub mod trainer;

pub use candidates::CandidateList;
pub use controller::{AdaptiveController, ControllerError, ControllerState};
pub use faults::{FaultKind, FaultPlan, ServeFaultKind, ServeFaultPlan};
pub use guardrails::{Guardrail, GuardrailConfig, GuardrailEvent, GuardrailEventKind};
pub use policy::{HRange, LRange};
pub use report::TrainReport;
pub use schedule::ScheduleState;
pub use state::{StateError, TrainState};
pub use strategy::Strategy;
pub use trainer::{
    BatchSource, CheckpointPolicy, FnBatchSource, TrainError, TrainOptions, Trainer, TrainerConfig,
};
