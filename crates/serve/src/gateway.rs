//! The serving gateway: registry, admission, fair scheduling — the one
//! request path.
//!
//! A [`Gateway`] fronts a [`ModelRegistry`] of independent engine replicas
//! (pure batch executors) and owns everything between a submitted image and
//! its answer: validation, rate limits, queues, deadlines, the degradation
//! ladders, the fault plan and the [`ServeReport`]. Single-tenant serving is
//! the same object with one model and one tenant whose token bucket never
//! empties (`rate_per_sec` and `burst` at `u64::MAX`).
//!
//! * **Admission order** — `UnknownModel` / `UnknownTenant` first, then
//!   request validation (shape, finiteness), then the tenant's token
//!   bucket ([`RequestError::RateLimited`] with an exact `retry_after`),
//!   then the tenant's fair share of the queue
//!   ([`RequestError::Overloaded`], also with `retry_after`). Malformed
//!   requests never spend a token; rate-limited requests never occupy
//!   queue capacity.
//! * **Fair share** — the configured queue capacity is divided evenly
//!   across tenants (`capacity.div_ceil(tenants)` per lane), so one
//!   bursting tenant can exhaust only its own slice.
//! * **Lanes** — requests queue per `(model, tenant)` lane, and each lane
//!   owns its own [`DegradationLadder`]. [`Gateway::poll`] serves one lane
//!   per call — a FIFO micro-batch of at most `max_batch` requests —
//!   visiting non-empty lanes round-robin in key order; the replica runs
//!   the batch under *that lane's* ladder policy. A bursting tenant
//!   therefore walks only its own ladder down while a quiet tenant's
//!   requests keep running the exact path — bitwise equal to a dense
//!   forward (`tests/gateway.rs` pins this).
//! * **Deadlines** — every request carries a latency budget measured from
//!   admission; a response that would arrive late becomes a typed
//!   [`RequestError::DeadlineExceeded`] instead of being silently served.
//! * **Hot swap** — [`Gateway::swap`] delegates to the registry's
//!   load-new → warm-verify → atomic-flip state machine. In-flight
//!   requests live in the gateway's lanes, never inside a replica, so a
//!   generation flip cannot drop them: zero-downtime by construction.
//!
//! Determinism mirrors the training loop: all time flows through one
//! injected [`ServeClock`], all per-tenant state lives in `BTreeMap`s, and
//! scheduling is a pure function of the queue contents — the same request
//! stream against the same artifacts replays bitwise under `ManualClock`.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::Duration;

use adr_core::faults::{ServeFaultKind, ServeFaultPlan};
use adr_tensor::sanitize::first_non_finite;
use adr_tensor::Tensor4;

use crate::clock::{MonotonicClock, ServeClock};
use crate::error::{EngineError, RequestError, SwapError};
use crate::ladder::{DegradationLadder, LadderMove};
use crate::registry::{ArtifactKind, ModelRegistry, NetFactory};
use crate::report::{ModelCounters, ServeEvent, ServeEventKind, ServeReport, TenantCounters};
use crate::tenant::{TenantConfig, TokenBucket};

/// Gateway-level knobs; per-tenant policy lives in [`TenantConfig`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Total queued requests per model, divided fairly across tenants.
    pub queue_capacity: usize,
    /// Maximum requests folded into one micro-batch.
    pub max_batch: usize,
    /// Batch latency the per-lane pressure signals are normalised against.
    pub target_batch_latency: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self { queue_capacity: 32, max_batch: 8, target_batch_latency: Duration::from_millis(50) }
    }
}

/// A successfully served request.
#[derive(Clone, Debug, PartialEq)]
pub struct InferResponse {
    /// Request id returned by [`Gateway::submit`].
    pub id: u64,
    /// Argmax class index.
    pub class: usize,
    /// Raw per-class logits.
    pub logits: Vec<f32>,
    /// Ladder stage the request's batch ran at (0 = exact).
    pub stage: usize,
    /// Admission-to-completion latency.
    pub latency: Duration,
}

/// One admitted, not-yet-served request.
struct Pending {
    id: u64,
    image: Tensor4,
    admitted_at: Duration,
    deadline: Duration,
}

/// One `(model, tenant)` queue with its own degradation ladder.
struct Lane {
    queue: VecDeque<Pending>,
    ladder: DegradationLadder,
}

/// One tenant's live admission state.
struct TenantState {
    cfg: TenantConfig,
    bucket: TokenBucket,
}

/// The multi-tenant gateway over a model registry.
pub struct Gateway {
    cfg: GatewayConfig,
    registry: ModelRegistry,
    tenants: BTreeMap<String, TenantState>,
    /// `model -> tenant -> lane`; nested (rather than tuple-keyed) so hot
    /// lookups borrow `&str` without allocating a key.
    lanes: BTreeMap<String, BTreeMap<String, Lane>>,
    clock: Box<dyn ServeClock>,
    faults: ServeFaultPlan,
    report: ServeReport,
    next_id: u64,
    batch_index: usize,
    /// Position, in `(model, tenant)` key order, of the last lane served —
    /// the deterministic round-robin cursor.
    last_served: Option<usize>,
    /// Latest observed per-batch drain time, seeding `retry_after` hints.
    drain_estimate: Duration,
}

impl Gateway {
    /// A gateway on the monotonic wall clock.
    ///
    /// # Errors
    /// Rejects a structurally invalid config (zero queue capacity, zero
    /// micro-batch size, zero latency target).
    pub fn new(cfg: GatewayConfig) -> Result<Self, EngineError> {
        Self::with_clock(cfg, Box::new(MonotonicClock::new()))
    }

    /// [`Gateway::new`] with an injected time source (tests use
    /// [`crate::clock::ManualClock`] for bitwise-reproducible scheduling).
    ///
    /// # Errors
    /// Same contract as [`Gateway::new`].
    pub fn with_clock(cfg: GatewayConfig, clock: Box<dyn ServeClock>) -> Result<Self, EngineError> {
        if cfg.queue_capacity == 0 {
            return Err(EngineError::BadConfig("queue capacity must be positive".into()));
        }
        if cfg.max_batch == 0 {
            return Err(EngineError::BadConfig("micro-batch size must be positive".into()));
        }
        if cfg.target_batch_latency.is_zero() {
            return Err(EngineError::BadConfig("target batch latency must be positive".into()));
        }
        let drain_estimate = cfg.target_batch_latency;
        Ok(Self {
            cfg,
            registry: ModelRegistry::new(),
            tenants: BTreeMap::new(),
            lanes: BTreeMap::new(),
            clock,
            faults: ServeFaultPlan::new(),
            report: ServeReport::default(),
            next_id: 0,
            batch_index: 0,
            last_served: None,
            drain_estimate,
        })
    }

    /// Loads `path` as `kind` into a network built by `factory` and
    /// registers it under `name`, creating a lane for every known tenant.
    /// An armed [`ServeFaultPlan::corrupt_checkpoint_load`] hits the bytes
    /// of this load.
    ///
    /// # Errors
    /// Duplicate names and load failures, per
    /// [`ModelRegistry::register`][crate::registry::ModelRegistry].
    pub fn register_model(
        &mut self,
        name: &str,
        kind: ArtifactKind,
        path: impl AsRef<Path>,
        factory: NetFactory,
    ) -> Result<(), EngineError> {
        self.registry.register(name, kind, path, factory, &mut self.faults)?;
        let mut lanes = BTreeMap::new();
        for (tenant, state) in &self.tenants {
            lanes.insert(
                tenant.clone(),
                Lane {
                    queue: VecDeque::new(),
                    ladder: DegradationLadder::new(state.cfg.ladder.clone())?,
                },
            );
        }
        self.lanes.insert(name.to_string(), lanes);
        self.report.models.insert(name.to_string(), ModelCounters::default());
        Ok(())
    }

    /// Registers a tenant, creating its token bucket (full, as of the
    /// current clock) and one lane per registered model.
    ///
    /// # Errors
    /// [`EngineError::BadConfig`] for duplicate names, a zero rate or
    /// burst, or an invalid ladder configuration.
    pub fn add_tenant(&mut self, name: &str, cfg: TenantConfig) -> Result<(), EngineError> {
        if self.tenants.contains_key(name) {
            return Err(EngineError::BadConfig(format!("tenant '{name}' already registered")));
        }
        if cfg.rate_per_sec == 0 {
            return Err(EngineError::BadConfig("tenant rate must be positive".into()));
        }
        if cfg.burst == 0 {
            return Err(EngineError::BadConfig("tenant burst must be positive".into()));
        }
        // Validates the ladder config once; per-model lanes clone it.
        let ladder = DegradationLadder::new(cfg.ladder.clone())?;
        for lanes in self.lanes.values_mut() {
            lanes.insert(
                name.to_string(),
                Lane {
                    queue: VecDeque::new(),
                    ladder: DegradationLadder::new(cfg.ladder.clone())?,
                },
            );
        }
        self.report.tenants.insert(
            name.to_string(),
            TenantCounters {
                requests_per_stage: vec![0; ladder.num_stages()],
                ..TenantCounters::default()
            },
        );
        let bucket = TokenBucket::new(cfg.rate_per_sec, cfg.burst, self.clock.now());
        self.tenants.insert(name.to_string(), TenantState { cfg, bucket });
        Ok(())
    }

    /// Installs a fault plan for subsequent loads, submissions, batches and
    /// swaps.
    pub fn set_fault_plan(&mut self, plan: ServeFaultPlan) {
        self.faults = plan;
    }

    /// Submits one image for `tenant` against `model` with the tenant's
    /// default deadline.
    ///
    /// # Errors
    /// See [`Gateway::submit_with_deadline`].
    pub fn submit(
        &mut self,
        model: &str,
        tenant: &str,
        image: &Tensor4,
    ) -> Result<u64, RequestError> {
        let deadline = match self.tenants.get(tenant) {
            Some(state) => state.cfg.default_deadline,
            // Rejected as UnknownTenant below; the value is never used.
            None => Duration::ZERO,
        };
        self.submit_with_deadline(model, tenant, image, deadline)
    }

    /// Submits one image with an explicit latency budget, returning its
    /// request id.
    ///
    /// # Errors
    /// [`RequestError::UnknownModel`] / [`RequestError::UnknownTenant`]
    /// for unregistered names; [`RequestError::NotSingleImage`] /
    /// [`RequestError::ShapeMismatch`] / [`RequestError::NonFiniteInput`]
    /// for malformed requests; [`RequestError::RateLimited`] when the
    /// tenant's bucket is empty; [`RequestError::Overloaded`] when the
    /// tenant's fair queue share is full.
    pub fn submit_with_deadline(
        &mut self,
        model: &str,
        tenant: &str,
        image: &Tensor4,
        deadline: Duration,
    ) -> Result<u64, RequestError> {
        let expected = match self.registry.engine(model) {
            Some(engine) => engine.input_shape(),
            None => {
                self.event(ServeEventKind::RejectedInput, format!("unknown model '{model}'"));
                return Err(RequestError::UnknownModel { model: model.to_string() });
            }
        };
        if !self.tenants.contains_key(tenant) {
            self.event(ServeEventKind::RejectedInput, format!("unknown tenant '{tenant}'"));
            return Err(RequestError::UnknownTenant { tenant: tenant.to_string() });
        }
        let mut image = image.clone();
        if self.faults.take_request_poison() {
            if let Some(first) = image.as_mut_slice().first_mut() {
                *first = f32::NAN;
            }
            self.event(ServeEventKind::PoisonFault, "request poisoned with NaN pixel".into());
        }
        let (n, h, w, c) = image.shape();
        if n != 1 {
            if let Some(counters) = self.report.tenants.get_mut(tenant) {
                counters.rejected_shape += 1;
            }
            self.event(ServeEventKind::RejectedInput, format!("batch of {n} is not one image"));
            return Err(RequestError::NotSingleImage { batch: n });
        }
        if (h, w, c) != expected {
            if let Some(counters) = self.report.tenants.get_mut(tenant) {
                counters.rejected_shape += 1;
            }
            self.event(
                ServeEventKind::RejectedInput,
                format!("shape {h}x{w}x{c} rejected at admission"),
            );
            return Err(RequestError::ShapeMismatch { expected, found: (h, w, c) });
        }
        if let Some((index, value)) = first_non_finite(image.as_slice()) {
            if let Some(counters) = self.report.tenants.get_mut(tenant) {
                counters.rejected_non_finite += 1;
            }
            self.event(
                ServeEventKind::RejectedInput,
                format!("non-finite pixel {value} at flat index {index}"),
            );
            return Err(RequestError::NonFiniteInput { index, value });
        }
        let now = self.clock.now();
        if let Some(state) = self.tenants.get_mut(tenant) {
            if let Err(retry_after) = state.bucket.try_take(now) {
                if let Some(counters) = self.report.tenants.get_mut(tenant) {
                    counters.rate_limited += 1;
                }
                self.event(
                    ServeEventKind::RateLimited,
                    format!(
                        "tenant '{tenant}' bucket empty, retry in {} ms",
                        retry_after.as_millis()
                    ),
                );
                return Err(RequestError::RateLimited { retry_after });
            }
        }
        let cap = self.per_tenant_cap();
        let retry_after = self.retry_after_hint();
        let Some(lane) = self.lanes.get_mut(model).and_then(|m| m.get_mut(tenant)) else {
            // Unreachable: both names were validated above.
            return Err(RequestError::UnknownModel { model: model.to_string() });
        };
        if lane.queue.len() >= cap {
            let depth = lane.queue.len();
            if let Some(counters) = self.report.tenants.get_mut(tenant) {
                counters.shed_overloaded += 1;
            }
            self.event(
                ServeEventKind::Overloaded,
                format!("tenant '{tenant}' lane {depth}/{cap} full, request shed"),
            );
            return Err(RequestError::Overloaded { depth, capacity: cap, retry_after });
        }
        let id = self.next_id;
        self.next_id += 1;
        lane.queue.push_back(Pending { id, image, admitted_at: now, deadline });
        if let Some(counters) = self.report.tenants.get_mut(tenant) {
            counters.admitted += 1;
        }
        Ok(id)
    }

    /// Serves one micro-batch from the next non-empty lane (round-robin in
    /// `(model, tenant)` key order), answering each request in it.
    ///
    /// Returns `(request id, outcome)` pairs in admission order; an empty
    /// vec when every lane is idle.
    pub fn poll(&mut self) -> Vec<(u64, Result<InferResponse, RequestError>)> {
        let Some(position) = self.next_lane() else {
            return Vec::new();
        };
        let batch_index = self.batch_index;
        let cap = self.per_tenant_cap();
        let Self { cfg, registry, lanes, clock, faults, report, drain_estimate, .. } = self;
        let ServeReport { tenants, models, batches, latency, events } = report;
        let mut event =
            |kind, detail: String| events.push(ServeEvent { batch: batch_index, kind, detail });
        let lane = lanes
            .iter_mut()
            .flat_map(|(m, ts)| ts.iter_mut().map(move |(t, lane)| (m.as_str(), t.as_str(), lane)))
            .nth(position);
        // Unreachable `else`s: every lane is keyed by a registered model
        // and tenant, and both got their counters when they registered.
        let Some((model, tenant, lane)) = lane else {
            return Vec::new();
        };
        let (Some(entry), Some(counters), Some(model_counters)) =
            (registry.entry_mut(model), tenants.get_mut(tenant), models.get_mut(model))
        else {
            return Vec::new();
        };
        let t0 = clock.now();

        let mut poison_output = false;
        for fault in faults.take_due(batch_index) {
            match fault {
                ServeFaultKind::SlowBatch { stall_ms } => {
                    event(ServeEventKind::SlowBatchFault, format!("injected {stall_ms} ms stall"));
                    clock.stall(Duration::from_millis(stall_ms));
                }
                ServeFaultKind::PoisonOutput => {
                    event(ServeEventKind::PoisonFault, "batch output will be poisoned".into());
                    poison_output = true;
                }
            }
        }
        if faults.take_tenant_poison(tenant) {
            event(
                ServeEventKind::PoisonFault,
                format!("tenant '{tenant}' batch output will be poisoned"),
            );
            poison_output = true;
        }

        let take = cfg.max_batch.min(lane.queue.len());
        let pending: Vec<Pending> = lane.queue.drain(..take).collect();
        let (stage, policy) = (lane.ladder.stage(), lane.ladder.policy());
        let (h, w, c) = entry.engine.input_shape();
        let mut batch = Tensor4::zeros(pending.len(), h, w, c);
        {
            let image_len = h * w * c;
            let dst = batch.as_mut_slice();
            for (i, p) in pending.iter().enumerate() {
                dst[i * image_len..(i + 1) * image_len].copy_from_slice(p.image.as_slice());
            }
        }
        let run = entry.engine.run(&batch, policy, poison_output);
        if let Some((index, value)) = run.quarantined {
            model_counters.quarantined_batches += 1;
            event(
                ServeEventKind::QuarantinedBatch,
                format!("stage {stage} output {value} at flat index {index}"),
            );
            model_counters.retried_batches += 1;
            event(ServeEventKind::RetriedExact, "re-running batch on exact GEMM".into());
        }
        let classes = {
            let (oh, ow, oc) = entry.engine.output_shape();
            oh * ow * oc
        };

        let t1 = clock.now();
        let batch_latency = t1.checked_sub(t0).unwrap_or_default();
        if !batch_latency.is_zero() {
            *drain_estimate = batch_latency;
        }
        *batches += 1;
        model_counters.batches += 1;
        model_counters.generation = entry.generation;
        model_counters.flops_actual += run.flops_actual;
        model_counters.flops_exact += run.flops_exact;

        let latency_frac = batch_latency.as_secs_f32() / cfg.target_batch_latency.as_secs_f32();
        let queue_frac = lane.queue.len() as f32 / cap as f32;
        if let Some(ladder_move) = lane.ladder.observe(latency_frac, queue_frac) {
            let (kind, steps, from, to) = match ladder_move {
                LadderMove::Degraded { from, to } => {
                    (ServeEventKind::Degraded, &mut counters.degraded_steps, from, to)
                }
                LadderMove::Recovered { from, to } => {
                    (ServeEventKind::Recovered, &mut counters.recovered_steps, from, to)
                }
            };
            *steps += 1;
            event(
                kind,
                format!(
                    "tenant '{tenant}' on '{model}': stage {from} -> {to} (pressure {:.2})",
                    lane.ladder.pressure()
                ),
            );
        }

        let mut results = Vec::with_capacity(pending.len());
        for (i, p) in pending.iter().enumerate() {
            let elapsed = t1.checked_sub(p.admitted_at).unwrap_or_default();
            latency.record(elapsed);
            let answer = match &run.outcome {
                Ok(logits) => {
                    if elapsed > p.deadline {
                        let budget_ms = duration_ms(p.deadline);
                        let elapsed_ms = duration_ms(elapsed);
                        counters.deadline_missed += 1;
                        event(
                            ServeEventKind::DeadlineMissed,
                            format!("request {} budget {budget_ms} ms, took {elapsed_ms} ms", p.id),
                        );
                        Err(RequestError::DeadlineExceeded { budget_ms, elapsed_ms })
                    } else {
                        let row = logits.as_slice()[i * classes..(i + 1) * classes].to_vec();
                        let class = row
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(idx, _)| idx)
                            .unwrap_or(0);
                        counters.completed += 1;
                        if let Some(count) = counters.requests_per_stage.get_mut(stage) {
                            *count += 1;
                        }
                        Ok(InferResponse { id: p.id, class, logits: row, stage, latency: elapsed })
                    }
                }
                Err(e) => {
                    if matches!(e, RequestError::NonFiniteOutput { .. }) {
                        counters.failed_non_finite += 1;
                    }
                    Err(e.clone())
                }
            };
            results.push((p.id, answer));
        }
        self.batch_index += 1;
        results
    }

    /// Serves every queued request in every lane to completion.
    pub fn drain(&mut self) -> Vec<(u64, Result<InferResponse, RequestError>)> {
        let mut all = Vec::new();
        while self.queued_total() > 0 {
            all.extend(self.poll());
        }
        all
    }

    /// Hot-swaps `model` to the artifact at `path`; see
    /// [`crate::registry`] for the swap state machine. In-flight requests
    /// stay queued in the gateway's lanes throughout, so neither a
    /// successful flip nor a rollback can drop them.
    ///
    /// # Errors
    /// Typed [`SwapError`]; the previous generation keeps serving on any
    /// error.
    pub fn swap(&mut self, model: &str, path: impl AsRef<Path>) -> Result<u64, SwapError> {
        self.event(ServeEventKind::SwapStarted, format!("model '{model}' swap requested"));
        match self.registry.swap(model, path, &mut self.faults) {
            Ok(generation) => {
                if let Some(m) = self.report.models.get_mut(model) {
                    m.swaps_completed += 1;
                    m.generation = generation;
                }
                self.event(
                    ServeEventKind::SwapCompleted,
                    format!("model '{model}' now at generation {generation}"),
                );
                Ok(generation)
            }
            Err(e) => {
                if let Some(m) = self.report.models.get_mut(model) {
                    m.swaps_rolled_back += 1;
                }
                self.event(ServeEventKind::SwapRolledBack, format!("model '{model}': {e}"));
                Err(e)
            }
        }
    }

    /// Each tenant's slice of a model's queue capacity.
    fn per_tenant_cap(&self) -> usize {
        self.cfg.queue_capacity.div_ceil(self.tenants.len().max(1))
    }

    /// Backoff hint: batches left to drain everything queued, times the
    /// last observed (or configured) per-batch latency.
    fn retry_after_hint(&self) -> Duration {
        let batches_left = self.queued_total().div_ceil(self.cfg.max_batch).max(1);
        self.drain_estimate * u32::try_from(batches_left).unwrap_or(u32::MAX)
    }

    /// Requests queued across every lane.
    fn queued_total(&self) -> usize {
        self.lanes.values().flat_map(|m| m.values()).map(|lane| lane.queue.len()).sum()
    }

    /// The position (in `(model, tenant)` key order) of the next non-empty
    /// lane strictly after the last one served, wrapping to the first —
    /// deterministic round-robin over whatever lanes currently hold work.
    /// A lane registered mid-stream shifts the positions behind it, which
    /// at most reorders one round.
    fn next_lane(&mut self) -> Option<usize> {
        let lanes = || self.lanes.values().flat_map(BTreeMap::values).enumerate();
        let waiting = |(_, lane): &(usize, &Lane)| !lane.queue.is_empty();
        let start = self.last_served.map_or(0, |last| last + 1);
        let (next, _) = lanes().skip(start).find(waiting).or_else(|| lanes().find(waiting))?;
        self.last_served = Some(next);
        Some(next)
    }

    /// Accumulated serving telemetry.
    pub fn report(&self) -> &ServeReport {
        &self.report
    }

    /// Consumes the gateway, returning its telemetry.
    pub fn into_report(self) -> ServeReport {
        self.report
    }

    /// The live generation of `model` (0 until the first swap).
    pub fn generation(&self, model: &str) -> Option<u64> {
        self.registry.generation(model)
    }

    /// The `(h, w, c)` input shape `model` serves, if registered.
    pub fn input_shape(&self, model: &str) -> Option<(usize, usize, usize)> {
        self.registry.engine(model).map(|e| e.input_shape())
    }

    /// The current ladder stage of one `(model, tenant)` lane.
    pub fn stage(&self, model: &str, tenant: &str) -> Option<usize> {
        self.lanes.get(model).and_then(|m| m.get(tenant)).map(|lane| lane.ladder.stage())
    }

    /// Requests currently queued in one `(model, tenant)` lane.
    pub fn queue_depth(&self, model: &str, tenant: &str) -> Option<usize> {
        self.lanes.get(model).and_then(|m| m.get(tenant)).map(|lane| lane.queue.len())
    }

    /// Registered model names, sorted.
    pub fn models(&self) -> Vec<&str> {
        self.registry.names()
    }

    /// Registered tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.keys().map(String::as_str).collect()
    }

    /// Readiness probe: at least one model is registered and serving.
    pub fn ready(&self) -> bool {
        !self.registry.names().is_empty()
    }

    /// Liveness probe: every registered replica is healthy.
    pub fn healthy(&self) -> bool {
        self.registry
            .names()
            .iter()
            .all(|name| self.registry.engine(name).is_none_or(|e| e.healthy()))
    }

    fn event(&mut self, kind: ServeEventKind, detail: String) {
        self.report.events.push(ServeEvent { batch: self.batch_index, kind, detail });
    }
}

fn duration_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::engine::tests::{image, tiny_net};
    use adr_nn::checkpoint::Checkpoint;

    /// The tiny net's weights as a real artifact (one path per test).
    fn tiny_artifact(name: &str) -> std::path::PathBuf {
        let artifact = std::env::temp_dir().join(format!("adr-gw-unit-{name}.adr1"));
        Checkpoint::capture(&mut tiny_net(9)).save(&artifact).unwrap();
        artifact
    }

    /// Single-tenant serving on the virtual clock: the tiny net as model
    /// `"m"`, behind tenant `"t"` whose bucket never empties.
    fn single_tenant(name: &str, cfg: GatewayConfig) -> Gateway {
        let artifact = tiny_artifact(name);
        let mut gw = Gateway::with_clock(cfg, Box::new(ManualClock::new())).unwrap();
        let unlimited =
            TenantConfig { rate_per_sec: u64::MAX, burst: u64::MAX, ..TenantConfig::default() };
        gw.add_tenant("t", unlimited).unwrap();
        gw.register_model("m", ArtifactKind::Adr1, &artifact, Box::new(|| tiny_net(9))).unwrap();
        std::fs::remove_file(&artifact).ok();
        gw
    }

    #[test]
    fn full_lane_sheds_with_the_latency_target_as_the_first_retry_hint() {
        let cfg = GatewayConfig { queue_capacity: 2, ..GatewayConfig::default() };
        let mut gw = single_tenant("shed", cfg);
        assert!(gw.submit("m", "t", &image(0.1)).is_ok());
        assert!(gw.submit("m", "t", &image(0.2)).is_ok());
        match gw.submit("m", "t", &image(0.3)) {
            Err(RequestError::Overloaded { depth: 2, capacity: 2, retry_after }) => {
                // No batch has run yet, so the drain estimate is the
                // configured target latency; 2 queued / max_batch 8 = one
                // batch left to drain.
                assert_eq!(retry_after, GatewayConfig::default().target_batch_latency);
            }
            other => panic!("expected typed shed, got {other:?}"),
        }
        assert_eq!(gw.report().tenants["t"].shed_overloaded, 1);
        assert_eq!(gw.queue_depth("m", "t"), Some(2));
    }

    #[test]
    fn poll_micro_batches_fifo_and_answers_every_request() {
        let cfg = GatewayConfig { max_batch: 2, ..GatewayConfig::default() };
        let mut gw = single_tenant("fifo", cfg);
        let ids: Vec<u64> =
            (0..3).map(|i| gw.submit("m", "t", &image(i as f32 * 0.1)).unwrap()).collect();
        let first = gw.poll();
        assert_eq!(first.len(), 2, "micro-batch caps at max_batch");
        assert_eq!(first[0].0, ids[0]);
        assert_eq!(first[1].0, ids[1]);
        let second = gw.poll();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].0, ids[2]);
        assert!(gw.poll().is_empty(), "idle gateway serves nothing");
        for (_, r) in first.iter().chain(second.iter()) {
            let resp = r.as_ref().unwrap();
            assert!(resp.logits.iter().all(|v| v.is_finite()));
            assert_eq!(resp.logits.len(), 3);
            assert_eq!(resp.stage, 0);
        }
        assert_eq!(gw.report().tenants["t"].completed, 3);
        assert_eq!(gw.report().batches, 2);
        assert_eq!(gw.report().tenants["t"].requests_per_stage[0], 3);
    }

    #[test]
    fn the_event_record_is_bounded_and_its_totals_stay_exact() {
        let mut gw = single_tenant("bounded", GatewayConfig::default());
        // Each rejection names the flat index of its NaN pixel, so a
        // retained event says which submission it came from.
        let poisoned_at = |index: usize| {
            let mut bad = image(0.5);
            bad.as_mut_slice()[index] = f32::NAN;
            bad
        };
        for i in 0..4999 {
            assert!(gw.submit("m", "t", &poisoned_at(i % 35)).is_err());
        }
        assert!(gw.submit("m", "t", &poisoned_at(35)).is_err());
        let report = gw.report();
        assert_eq!(report.events.len(), 1024);
        assert_eq!(report.events_of(ServeEventKind::RejectedInput), 5000);
        assert_eq!(report.tenants["t"].rejected_non_finite, 5000);
        let detail = |e: Option<&ServeEvent>| e.map(|e| e.detail.clone()).unwrap_or_default();
        assert!(detail(report.events.iter().last()).ends_with("index 35"), "newest event last");
        let oldest = format!("index {}", (5000 - 1024) % 35);
        assert!(detail(report.events.iter().next()).ends_with(&oldest), "oldest retained first");
    }

    #[test]
    fn in_batch_events_carry_their_own_batch_index() {
        let mut gw = single_tenant("stamp", GatewayConfig::default());
        gw.set_fault_plan(
            ServeFaultPlan::new().inject_at_batch(0, ServeFaultKind::SlowBatch { stall_ms: 40 }),
        );
        gw.submit_with_deadline("m", "t", &image(0.5), Duration::from_millis(10)).unwrap();
        let results = gw.poll();
        assert_eq!(
            results[0].1,
            Err(RequestError::DeadlineExceeded { budget_ms: 10, elapsed_ms: 40 })
        );
        assert!(gw.submit("m", "t", &Tensor4::zeros(1, 4, 4, 1)).is_err());
        let stamps: Vec<(ServeEventKind, usize)> =
            gw.report().events.iter().map(|e| (e.kind, e.batch)).collect();
        assert_eq!(
            stamps,
            vec![
                (ServeEventKind::SlowBatchFault, 0),
                (ServeEventKind::DeadlineMissed, 0),
                (ServeEventKind::RejectedInput, 1),
            ],
            "batch 0's events are stamped 0; the next admission event belongs to batch 1"
        );
    }

    #[test]
    fn model_flops_accumulate_across_a_hot_swap_and_exclude_the_probe() {
        let cfg = GatewayConfig { max_batch: 1, ..GatewayConfig::default() };
        let mut gw = single_tenant("flops", cfg);
        let artifact = tiny_artifact("flops-swap");
        let serve_three = |gw: &mut Gateway| {
            for i in 0..3 {
                gw.submit("m", "t", &image(i as f32 * 0.1)).unwrap();
            }
            assert!(gw.drain().iter().all(|(_, r)| r.is_ok()));
        };
        serve_three(&mut gw);
        let before = gw.report().models["m"].clone();
        assert!(before.flops_exact > 0);
        assert_eq!(gw.swap("m", &artifact).unwrap(), 1);
        assert_eq!(gw.report().models["m"].flops_exact, before.flops_exact, "probe is not served");
        serve_three(&mut gw);
        let after = &gw.report().models["m"];
        assert_eq!(after.flops_exact, 2 * before.flops_exact);
        assert_eq!(after.flops_actual, 2 * before.flops_actual);
        assert_eq!(after.batches, 6);
        std::fs::remove_file(&artifact).ok();
    }

    #[test]
    fn invalid_configs_are_rejected_at_construction() {
        let cfg = GatewayConfig { queue_capacity: 0, ..GatewayConfig::default() };
        assert!(matches!(
            Gateway::new(cfg),
            Err(EngineError::BadConfig(msg)) if msg.contains("queue")
        ));
        let cfg = GatewayConfig { max_batch: 0, ..GatewayConfig::default() };
        assert!(matches!(Gateway::new(cfg), Err(EngineError::BadConfig(_))));
        let cfg =
            GatewayConfig { target_batch_latency: Duration::ZERO, ..GatewayConfig::default() };
        assert!(matches!(Gateway::new(cfg), Err(EngineError::BadConfig(_))));
    }

    #[test]
    fn unknown_names_are_rejected_before_anything_else() {
        let mut gw =
            Gateway::with_clock(GatewayConfig::default(), Box::new(ManualClock::new())).unwrap();
        let image = Tensor4::zeros(1, 6, 6, 1);
        assert_eq!(
            gw.submit("ghost", "alpha", &image),
            Err(RequestError::UnknownModel { model: "ghost".into() })
        );
        assert!(gw.poll().is_empty(), "an empty gateway serves nothing");
        assert!(!gw.ready(), "no registered models: not ready");
        assert!(gw.healthy(), "vacuously healthy");
        assert!(matches!(gw.swap("ghost", "/nonexistent"), Err(SwapError::UnknownModel { .. })));
        assert_eq!(gw.report().events_of(ServeEventKind::SwapRolledBack), 1);
    }

    #[test]
    fn tenant_validation_rejects_bad_policies() {
        let mut gw =
            Gateway::with_clock(GatewayConfig::default(), Box::new(ManualClock::new())).unwrap();
        let bad_rate = TenantConfig { rate_per_sec: 0, ..TenantConfig::default() };
        assert!(matches!(gw.add_tenant("a", bad_rate), Err(EngineError::BadConfig(_))));
        let bad_burst = TenantConfig { burst: 0, ..TenantConfig::default() };
        assert!(matches!(gw.add_tenant("a", bad_burst), Err(EngineError::BadConfig(_))));
        assert!(gw.add_tenant("a", TenantConfig::default()).is_ok());
        assert!(
            matches!(gw.add_tenant("a", TenantConfig::default()), Err(EngineError::BadConfig(_))),
            "duplicate tenant"
        );
        assert_eq!(gw.tenant_names(), vec!["a"]);
    }

    #[test]
    fn fair_share_divides_capacity_across_tenants() {
        let cfg = GatewayConfig { queue_capacity: 8, ..GatewayConfig::default() };
        let mut gw = Gateway::with_clock(cfg, Box::new(ManualClock::new())).unwrap();
        assert_eq!(gw.per_tenant_cap(), 8, "no tenants yet: full capacity");
        gw.add_tenant("a", TenantConfig::default()).unwrap();
        gw.add_tenant("b", TenantConfig::default()).unwrap();
        assert_eq!(gw.per_tenant_cap(), 4);
        gw.add_tenant("c", TenantConfig::default()).unwrap();
        assert_eq!(gw.per_tenant_cap(), 3, "ceil(8/3)");
    }
}
