//! The server: bounded submission queue → dynamic batcher → executor →
//! completion handles.
//!
//! Resilience hooks live here too: per-request deadlines are checked both
//! at dequeue (stale work is never executed) and at completion (a result
//! that arrives late is discarded), and the optional per-slot circuit
//! breakers decide per batch slot whether that slot's depth branch may be
//! fused at all — one breaker per [`SourceId`], so one dying sensor trips
//! only its own traffic.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sf_core::{
    BreakerConfig, BreakerState, CircuitBreaker, DepthRoute, FusionNet, HealthIssue, Predictor,
};
use sf_tensor::Tensor;

use crate::config::{Backpressure, ServeConfig};
use crate::error::ServeError;
use crate::handle::{completion_pair, Completion, Fulfiller, Prediction};
use crate::request::{Request, SourceId};
use crate::stats::{SlotBreakerStats, StatsCollector, StatsSnapshot};

/// An admitted [`Request`] waiting in the queue: the frames plus the
/// resolved (request-or-default) deadline and the executor's side of the
/// completion handle.
struct QueuedRequest {
    rgb: Tensor,
    depth: Tensor,
    fulfiller: Fulfiller,
    enqueued: Instant,
    /// Relative deadline measured from `enqueued`; `None` waits forever.
    deadline: Option<Duration>,
    source: Option<SourceId>,
}

impl QueuedRequest {
    /// How long this request has been waiting, and whether that already
    /// exceeds its deadline.
    fn expired(&self, now: Instant) -> Option<(Duration, Duration)> {
        let deadline = self.deadline?;
        let waited = now.saturating_duration_since(self.enqueued);
        (waited >= deadline).then_some((deadline, waited))
    }
}

struct QueueState {
    items: VecDeque<QueuedRequest>,
    shutdown: bool,
    /// Set by [`Server::abort`]: queued-but-unclaimed requests are failed
    /// with [`ServeError::Aborted`] instead of being executed.
    aborted: bool,
}

/// A model staged for a zero-downtime hot swap: the executor claims it at
/// the next batch boundary. Compiled on the *staging* thread, so the hot
/// path never pays plan compilation.
struct StagedModel {
    net: FusionNet,
    predictor: Predictor,
    version: u64,
}

/// One circuit breaker per [`SourceId`] slot, created lazily on first
/// sight of a source. Untagged requests share the `None` slot, which
/// keeps the configured seed verbatim — a bank seeing only untagged
/// traffic behaves bit-identically to the old single fleet-wide breaker.
struct BreakerBank {
    config: BreakerConfig,
    slots: BTreeMap<Option<SourceId>, CircuitBreaker>,
}

impl BreakerBank {
    fn new(config: BreakerConfig) -> BreakerBank {
        BreakerBank {
            config,
            slots: BTreeMap::new(),
        }
    }

    fn slot(&mut self, source: Option<SourceId>) -> &mut CircuitBreaker {
        let config = self.config;
        self.slots.entry(source).or_insert_with(|| {
            let mut cfg = config;
            if let Some(SourceId(id)) = source {
                // Decorrelate the per-slot probe streams; the untagged
                // slot keeps the configured seed so existing single-stream
                // fingerprints stay stable.
                cfg.seed ^= id.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            CircuitBreaker::new(cfg)
        })
    }
}

struct Inner {
    queue: Mutex<QueueState>,
    /// Signalled when a request is enqueued or shutdown begins.
    not_empty: Condvar,
    /// Signalled when the batcher claims requests (slots freed) or
    /// shutdown begins, waking blocked submitters.
    not_full: Condvar,
    config: ServeConfig,
    stats: StatsCollector,
    /// Per-slot depth circuit breakers, present iff `config.breaker` is
    /// set. Only the executor mutates them (admit/observe); other threads
    /// read them for snapshots, so contention is negligible.
    breakers: Option<Mutex<BreakerBank>>,
    /// Model staged for a hot swap; the executor claims it at the next
    /// batch boundary.
    staged: Mutex<Option<StagedModel>>,
}

/// In-process batched inference server.
///
/// [`Server::start`] moves a [`FusionNet`] onto a dedicated executor
/// thread, where it is compiled once into a [`Predictor`] — every batch
/// runs through the compiled plans, not the graph path. Callers
/// [`submit`] [`Request`]s from any thread and block on the returned
/// [`Completion`] handles; the executor coalesces queued requests into
/// batches (flushing on `max_batch` or the `max_wait` deadline of the
/// oldest request, whichever comes first) and runs one fused plan pass
/// per batch. Unhealthy depth inputs degrade only their own slot; a
/// configured [`BreakerConfig`] additionally runs one circuit breaker per
/// [`SourceId`] slot, tripping a source to camera-only when *its own*
/// quarantine rate spikes — other sources keep fusing.
///
/// [`submit`]: Server::submit
/// [`BreakerConfig`]: sf_core::BreakerConfig
///
/// # Examples
///
/// ```
/// use sf_core::{FusionNet, FusionScheme, NetworkConfig};
/// use sf_serve::{Request, ServeConfig, Server};
/// use sf_tensor::Tensor;
///
/// let config = NetworkConfig::tiny();
/// let net = FusionNet::new(FusionScheme::Baseline, &config).unwrap();
/// let server = Server::start(net, ServeConfig::default()).unwrap();
/// let rgb = Tensor::ones(&[3, config.height, config.width]);
/// let depth = Tensor::ones(&[1, config.height, config.width]);
/// let completion = server.submit(Request::new(rgb, depth)).unwrap();
/// let prediction = completion.wait().unwrap();
/// assert_eq!(prediction.prob.shape(), &[config.height, config.width]);
/// let (_net, stats) = server.shutdown();
/// assert_eq!(stats.completed, 1);
/// ```
pub struct Server {
    inner: Arc<Inner>,
    executor: Option<std::thread::JoinHandle<FusionNet>>,
    rgb_shape: Vec<usize>,
    depth_shape: Vec<usize>,
}

impl Server {
    /// Validates `config` and spawns the executor thread, taking ownership
    /// of `net` (returned by [`Server::shutdown`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `config` breaks a batcher
    /// invariant (see [`ServeConfig::builder`]).
    pub fn start(net: FusionNet, config: ServeConfig) -> Result<Server, ServeError> {
        config.check()?;
        let net_config = net.config();
        let (h, w) = (net_config.height, net_config.width);
        let rgb_shape = vec![3, h, w];
        let depth_shape = vec![net_config.depth_channels, h, w];
        let breakers = config.breaker.map(|cfg| Mutex::new(BreakerBank::new(cfg)));
        let inner = Arc::new(Inner {
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                shutdown: false,
                aborted: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            config,
            stats: StatsCollector::new(),
            breakers,
            staged: Mutex::new(None),
        });
        let executor_inner = Arc::clone(&inner);
        let executor = std::thread::Builder::new()
            .name("sf-serve-executor".to_string())
            .spawn(move || executor_loop(net, &executor_inner))
            .expect("failed to spawn sf-serve executor");
        Ok(Server {
            inner,
            executor: Some(executor),
            rgb_shape,
            depth_shape,
        })
    }

    /// Submits one [`Request`] and returns a handle to wait on. A request
    /// without an explicit [`Request::deadline`] carries the configured
    /// [`ServeConfig::default_deadline`], if any; if no result is
    /// delivered within the deadline of submission the request completes
    /// with [`ServeError::DeadlineExceeded`], and a request already past
    /// its deadline when the batcher dequeues it is expired *without*
    /// being executed.
    ///
    /// # Errors
    ///
    /// - [`ServeError::BadRequest`] if the shapes do not match the served
    ///   network's resolution, or the camera frame holds a NaN or an
    ///   infinity — there is no plan that runs without the camera, so the
    ///   frame is refused here, on the submitting thread, before it can
    ///   share a batch with anyone;
    /// - [`ServeError::QueueFull`] if the queue is full under
    ///   [`Backpressure::Reject`];
    /// - [`ServeError::ShuttingDown`] if [`Server::shutdown`] has begun
    ///   (including while blocked under [`Backpressure::Block`]).
    pub fn submit(&self, request: Request) -> Result<Completion, ServeError> {
        self.check_request(&request.rgb, &request.depth)?;
        self.submit_inner(request)
    }

    fn check_request(&self, rgb: &Tensor, depth: &Tensor) -> Result<(), ServeError> {
        if rgb.shape() != self.rgb_shape.as_slice() {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "rgb shape {:?} does not match served network {:?}",
                    rgb.shape(),
                    self.rgb_shape
                ),
            });
        }
        if depth.shape() != self.depth_shape.as_slice() {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "depth shape {:?} does not match served network {:?}",
                    depth.shape(),
                    self.depth_shape
                ),
            });
        }
        if rgb.has_non_finite() {
            return Err(ServeError::BadRequest {
                reason: "rgb holds a NaN or an infinity".to_string(),
            });
        }
        Ok(())
    }

    /// [`Server::submit`] without the shape and finite-RGB guard. Exists so tests can
    /// force a panic inside a batch's forward pass; everyone else wants
    /// the checked path.
    #[doc(hidden)]
    pub fn submit_unchecked(&self, request: Request) -> Result<Completion, ServeError> {
        self.submit_inner(request)
    }

    fn submit_inner(&self, request: Request) -> Result<Completion, ServeError> {
        // An explicit deadline (even `Some(ZERO)`) wins over the default.
        let deadline = request.deadline.or(self.inner.config.default_deadline);
        let mut queue = self.inner.queue.lock().expect("serve queue poisoned");
        loop {
            if queue.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if queue.items.len() < self.inner.config.queue_capacity {
                break;
            }
            match self.inner.config.backpressure {
                Backpressure::Reject => {
                    self.inner.stats.record_rejected();
                    return Err(ServeError::QueueFull {
                        capacity: self.inner.config.queue_capacity,
                    });
                }
                Backpressure::Block => {
                    queue = self
                        .inner
                        .not_full
                        .wait(queue)
                        .expect("serve queue poisoned");
                }
            }
        }
        let (completion, fulfiller) = completion_pair();
        queue.items.push_back(QueuedRequest {
            rgb: request.rgb,
            depth: request.depth,
            fulfiller,
            enqueued: Instant::now(),
            deadline,
            source: request.source,
        });
        self.inner.stats.record_admitted();
        drop(queue);
        self.inner.not_empty.notify_all();
        Ok(completion)
    }

    /// Point-in-time statistics, including circuit-breaker state when one
    /// is configured.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot_with_breaker(&self.inner)
    }

    /// True when any slot breaker is currently open — the soft-unhealthy
    /// signal the fleet router uses to prefer other replicas. Cheaper
    /// than a full [`Server::stats`] snapshot.
    pub fn breaker_open(&self) -> bool {
        self.inner.breakers.as_ref().is_some_and(|bank| {
            bank.lock()
                .expect("breaker bank poisoned")
                .slots
                .values()
                .any(|b| b.state() == BreakerState::Open)
        })
    }

    /// Stops accepting new requests (idempotent). Queued requests still
    /// drain through the batcher; submitters blocked on a full queue wake
    /// with [`ServeError::ShuttingDown`]. Callable from any thread that
    /// shares the server, e.g. to let one client initiate shutdown while
    /// the owner later collects the network via [`Server::shutdown`].
    pub fn close(&self) {
        {
            let mut queue = self.inner.queue.lock().expect("serve queue poisoned");
            queue.shutdown = true;
        }
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Kills the replica (idempotent): stops admissions like
    /// [`Server::close`], but queued-not-yet-claimed requests are failed
    /// with [`ServeError::Aborted`] instead of being executed. A batch the
    /// executor has already claimed still finishes — abort takes effect at
    /// the batch boundary. The counters stay conserved: aborted requests
    /// are recorded as `failed`.
    ///
    /// This is the replica-death primitive the [`Fleet`] uses: it marks
    /// the replica dead, lets in-flight work finish, and redirects the
    /// aborted remainder to healthy replicas.
    ///
    /// [`Fleet`]: crate::Fleet
    pub fn abort(&self) {
        {
            let mut queue = self.inner.queue.lock().expect("serve queue poisoned");
            queue.shutdown = true;
            queue.aborted = true;
        }
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Stages `net` for a zero-downtime hot swap. The compiled plans are
    /// built *here*, on the calling thread; the executor claims the staged
    /// model at its next batch boundary, so no batch ever observes a
    /// half-swapped model and the hot path never pays compilation.
    /// Staging again before the executor claims replaces the previous
    /// staged model (latest wins).
    ///
    /// `version` is an opaque tag surfaced as
    /// [`StatsSnapshot::model_version`] once the swap is claimed.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DeployFailed`] if `net`'s geometry (height,
    /// width, depth channels) differs from the served network's — requests
    /// already in the queue would no longer match.
    pub fn stage_model(&self, net: FusionNet, version: u64) -> Result<(), ServeError> {
        let config = net.config();
        let staged_rgb = vec![3, config.height, config.width];
        let staged_depth = vec![config.depth_channels, config.height, config.width];
        if staged_rgb != self.rgb_shape || staged_depth != self.depth_shape {
            return Err(ServeError::DeployFailed {
                reason: format!(
                    "candidate geometry {}x{} (depth {}) does not match served {:?}/{:?}",
                    config.height,
                    config.width,
                    config.depth_channels,
                    self.rgb_shape,
                    self.depth_shape
                ),
            });
        }
        let predictor = Predictor::compile(&net);
        let staged = StagedModel {
            net,
            predictor,
            version,
        };
        *self.inner.staged.lock().expect("staged model poisoned") = Some(staged);
        Ok(())
    }

    /// Stops accepting new requests, drains every queued request through
    /// the batcher, joins the executor and returns the network plus final
    /// statistics.
    pub fn shutdown(mut self) -> (FusionNet, StatsSnapshot) {
        let net = self.join_executor().expect("executor joined once");
        (net, snapshot_with_breaker(&self.inner))
    }

    fn join_executor(&mut self) -> Option<FusionNet> {
        self.close();
        self.executor
            .take()
            .map(|h| h.join().expect("sf-serve executor panicked"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.join_executor();
    }
}

fn breaker_severity(state: BreakerState) -> u8 {
    match state {
        BreakerState::Closed => 0,
        BreakerState::HalfOpen => 1,
        BreakerState::Open => 2,
    }
}

fn snapshot_with_breaker(inner: &Inner) -> StatsSnapshot {
    let mut snap = inner.stats.snapshot();
    if let Some(bank) = &inner.breakers {
        let bank = bank.lock().expect("breaker bank poisoned");
        let mut worst = BreakerState::Closed;
        for (source, breaker) in &bank.slots {
            let state = breaker.state();
            if breaker_severity(state) > breaker_severity(worst) {
                worst = state;
            }
            snap.breaker_trips += breaker.trips();
            snap.breaker_transitions
                .extend(breaker.transitions().iter().cloned());
            snap.breaker_slots.push(SlotBreakerStats {
                source: *source,
                state,
                trips: breaker.trips(),
            });
        }
        snap.breaker_state = Some(worst);
    }
    snap
}

/// Collects one batch from the queue: blocks for the first request, then
/// tops up until `max_batch`, the oldest request's `max_wait` deadline, or
/// shutdown. Returns `None` once the queue is drained *and* shut down.
fn collect_batch(inner: &Inner) -> Option<Vec<QueuedRequest>> {
    let mut queue = inner.queue.lock().expect("serve queue poisoned");
    let first = loop {
        if let Some(first) = queue.items.pop_front() {
            break first;
        }
        if queue.shutdown {
            return None;
        }
        queue = inner.not_empty.wait(queue).expect("serve queue poisoned");
    };
    // Every pop frees a queue slot; announce it IMMEDIATELY (not after the
    // batch is complete), otherwise a submitter blocked on a full queue
    // sleeps through the whole batching window while the batcher idles at
    // the deadline waiting for exactly that submitter's request.
    inner.not_full.notify_all();
    let deadline = first.enqueued + inner.config.max_wait;
    let mut batch = vec![first];
    while batch.len() < inner.config.max_batch {
        if let Some(next) = queue.items.pop_front() {
            batch.push(next);
            inner.not_full.notify_all();
            continue;
        }
        // During shutdown there are no future arrivals to wait for.
        if queue.shutdown {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (q, timeout) = inner
            .not_empty
            .wait_timeout(queue, deadline - now)
            .expect("serve queue poisoned");
        queue = q;
        if timeout.timed_out() && queue.items.is_empty() {
            break;
        }
    }
    drop(queue);
    Some(batch)
}

/// Splits a freshly collected batch into live requests and
/// already-expired ones, expiring the stale ones without executing them.
fn expire_stale(inner: &Inner, batch: Vec<QueuedRequest>) -> Vec<QueuedRequest> {
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for request in batch {
        match request.expired(now) {
            Some((deadline, waited)) => {
                inner.stats.record_expired();
                request
                    .fulfiller
                    .fulfill(Err(ServeError::DeadlineExceeded { deadline, waited }));
            }
            None => live.push(request),
        }
    }
    live
}

/// Decides the quarantine verdict for each live slot, merging the
/// per-input degradation policy with that slot's circuit breaker.
///
/// The policy verdict is computed first (pure input screening). With no
/// breakers, that verdict stands. With breakers, each slot is routed by
/// the breaker keyed on its [`SourceId`]: `Fuse`/`Probe` slots keep the
/// policy verdict and feed it back as a breaker observation;
/// `ForceCameraOnly` slots are overridden to [`HealthIssue::BreakerOpen`]
/// and observe nothing (a skipped depth branch yields no evidence about
/// sensor health). One source's quarantine storm therefore trips only its
/// own breaker — healthy sources in the same batch keep fusing.
fn judge_slots(
    inner: &Inner,
    depth: &[&Tensor],
    sources: &[Option<SourceId>],
) -> Vec<Option<HealthIssue>> {
    let policy = inner.config.policy;
    let thresholds = &inner.config.thresholds;
    let verdicts: Vec<Option<HealthIssue>> = depth
        .iter()
        .map(|d| policy.quarantine_depth(d, thresholds))
        .collect();
    let Some(bank) = &inner.breakers else {
        return verdicts;
    };
    let mut bank = bank.lock().expect("breaker bank poisoned");
    verdicts
        .into_iter()
        .zip(sources)
        .map(|(verdict, source)| {
            let breaker = bank.slot(*source);
            match breaker.admit() {
                DepthRoute::Fuse | DepthRoute::Probe => {
                    breaker.observe(verdict.is_some());
                    verdict
                }
                DepthRoute::ForceCameraOnly => Some(HealthIssue::BreakerOpen),
            }
        })
        .collect()
}

/// Checks for an abort ([`Server::abort`]): if flagged, drains every
/// queued-but-unclaimed request, failing each with [`ServeError::Aborted`]
/// (recorded as `failed`, preserving conservation). Returns true when the
/// executor should stop collecting batches.
fn drain_aborted(inner: &Inner) -> bool {
    let mut queue = inner.queue.lock().expect("serve queue poisoned");
    if !queue.aborted {
        return false;
    }
    let items: Vec<QueuedRequest> = queue.items.drain(..).collect();
    drop(queue);
    inner.not_full.notify_all();
    if !items.is_empty() {
        inner.stats.record_failed(items.len());
        for request in items {
            request.fulfiller.fulfill(Err(ServeError::Aborted));
        }
    }
    true
}

fn executor_loop(mut net: FusionNet, inner: &Inner) -> FusionNet {
    // Freeze the network once: every batch replays the compiled plans
    // (shape derivation, dispatch and scratch placement all paid here).
    // The quarantine verdicts are prejudged per slot, so the predictor's
    // own policy stays at its default.
    let mut predictor = Predictor::compile(&net);
    let mut batch_index: u64 = 0;
    loop {
        // Batch boundary: claim a staged hot swap, if any. No batch ever
        // observes a half-swapped model — the predictor and weights change
        // atomically between batches.
        if let Some(staged) = inner.staged.lock().expect("staged model poisoned").take() {
            predictor = staged.predictor;
            net = staged.net;
            inner.stats.record_swap(staged.version);
        }
        // An abort fails queued-unclaimed work instead of executing it.
        if drain_aborted(inner) {
            break;
        }
        let Some(batch) = collect_batch(inner) else {
            break;
        };
        let batch = expire_stale(inner, batch);
        if batch.is_empty() {
            continue;
        }
        let occupancy = batch.len();
        inner.stats.record_batch(occupancy);
        let this_batch = batch_index;
        batch_index += 1;
        let mut fulfillers = Vec::with_capacity(occupancy);
        let mut rgb = Vec::with_capacity(occupancy);
        let mut depth = Vec::with_capacity(occupancy);
        let mut metas = Vec::with_capacity(occupancy);
        for request in batch {
            fulfillers.push(request.fulfiller);
            rgb.push(request.rgb);
            depth.push(request.depth);
            metas.push((request.enqueued, request.deadline, request.source));
        }
        let rgb_refs: Vec<&Tensor> = rgb.iter().collect();
        let depth_refs: Vec<&Tensor> = depth.iter().collect();
        // Breaker admission and observation happen OUTSIDE the panic
        // guard: input screening is pure tensor statistics, and keeping
        // the breaker mutex out of the unwind path means a panicking
        // batch can never poison it.
        let sources: Vec<Option<SourceId>> = metas.iter().map(|(_, _, s)| *s).collect();
        let issues = judge_slots(inner, &depth_refs, &sources);
        // Plan execution only reads frozen weights, and a panicking batch
        // leaves the plan's scratch state reusable: fail this batch's
        // requests with a typed error and keep serving.
        let probe = inner.config.batch_probe.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(probe) = &probe {
                (probe.0)(this_batch);
            }
            predictor.run_slots_prejudged(&rgb_refs, &depth_refs, &issues)
        }));
        match outcome {
            Ok(Ok(slots)) => {
                for ((fulfiller, slot), (enqueued, deadline, source)) in
                    fulfillers.into_iter().zip(slots).zip(metas)
                {
                    let latency = enqueued.elapsed();
                    // A result that arrives after the deadline is stale:
                    // deliver the typed expiry, not the late prediction.
                    if let Some(deadline) = deadline {
                        if latency >= deadline {
                            inner.stats.record_expired();
                            fulfiller.fulfill(Err(ServeError::DeadlineExceeded {
                                deadline,
                                waited: latency,
                            }));
                            continue;
                        }
                    }
                    let quarantined = slot.quarantined.is_some();
                    fulfiller.fulfill(Ok(Prediction {
                        prob: slot.prob,
                        quarantined: slot.quarantined,
                        latency,
                        batch_size: occupancy,
                        source,
                    }));
                    inner.stats.record_completed(latency, quarantined);
                }
            }
            Ok(Err(err)) => {
                inner.stats.record_failed(occupancy);
                let reason = err.to_string();
                for fulfiller in fulfillers {
                    fulfiller.fulfill(Err(ServeError::BadRequest {
                        reason: reason.clone(),
                    }));
                }
            }
            Err(payload) => {
                inner.stats.record_failed(occupancy);
                let message = panic_message(&payload);
                for fulfiller in fulfillers {
                    fulfiller.fulfill(Err(ServeError::BatchPanicked {
                        message: message.clone(),
                    }));
                }
            }
        }
    }
    net
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
