//! Replica fleet: N servers behind one deterministic router.
//!
//! A [`Fleet`] owns N [`Server`] replicas, each with its own executor
//! thread and its own compiled [`Predictor`](sf_core::Predictor), behind
//! a seeded [`DispatchPolicy`]. The fleet adds the failure domains a
//! single server cannot express:
//!
//! - **Deterministic routing** — rendezvous (highest-random-weight)
//!   consistent hashing on [`SourceId`], or least-outstanding with a
//!   seeded tie-break. Same seed + same submission order ⇒ same routes.
//! - **Replica death and redirect** — [`Fleet::kill`] aborts a replica;
//!   its queued work fails with [`ServeError::Aborted`] and the waiting
//!   [`FleetCompletion`] transparently resubmits to a healthy replica
//!   (bounded by [`FleetConfig::max_redirects`]). A replica observed dead
//!   at submit time (raced kill) is marked unhealthy and routed around.
//! - **Revival** — [`Fleet::revive`] (or seeded half-open probing via
//!   [`FleetConfig::revive_probe_chance`]) restarts a dead replica from
//!   the fleet's live model; consistent hashing sends its keys back.
//! - **Zero-downtime hot swap** — [`Fleet::deploy`] compiles the
//!   candidate off the hot path and stages it per replica; each executor
//!   claims it at a batch boundary, so no request ever sees a
//!   half-swapped model and none fail because of a deploy. Optional
//!   shadow mode mirrors a seeded fraction of completed traffic to the
//!   candidate and diffs predictions against live before promoting.
//!
//! # Accounting
//!
//! Fleet counters are **per routing leg**: every attempt to place a
//! request on a replica is one submitted leg, and every leg terminates in
//! exactly one bucket, so at quiescence (all [`FleetCompletion`]s waited)
//!
//! ```text
//! submitted == completed + rejected + expired + failed + redirected
//! ```
//!
//! A redirect closes the aborted leg (`redirected`) and opens a new one
//! (`submitted` again). Legs refused because no replica is healthy count
//! as `submitted + rejected + no_replica` without touching any server.
//! [`FleetStats::cross_check`] additionally reconciles the fleet's
//! counters against the per-replica [`StatsSnapshot`]s — the
//! router-vs-replica tally the chaos engine asserts at every scene
//! boundary.

use std::path::Path;
use std::sync::{Arc, Mutex};

use sf_core::{load_checkpoint, BreakerState, BreakerTransition, FusionNet, Predictor};
use sf_tensor::TensorRng;

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::handle::{Completion, Prediction};
use crate::request::{Request, SourceId};
use crate::server::Server;
use crate::stats::{SlotBreakerStats, StatsSnapshot};

/// How the router picks a replica for each leg. Both policies are
/// deterministic given the fleet seed and the submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Rendezvous (highest-random-weight) hashing on the request's
    /// [`SourceId`]: each source consistently lands on the replica with
    /// the highest seeded score, and killing a replica remaps only the
    /// keys it owned — everyone else keeps their affinity. Untagged
    /// requests share one key.
    ConsistentHash,
    /// The replica with the fewest outstanding fleet legs; ties broken by
    /// a seeded hash of the leg counter, so same-seed runs tie-break
    /// identically.
    LeastOutstanding,
}

impl DispatchPolicy {
    /// Stable lowercase label (used by the CLI and bench tables).
    pub fn label(&self) -> &'static str {
        match self {
            DispatchPolicy::ConsistentHash => "hash",
            DispatchPolicy::LeastOutstanding => "least",
        }
    }

    /// Parses a [`label`](DispatchPolicy::label).
    pub fn parse(s: &str) -> Option<DispatchPolicy> {
        match s {
            "hash" => Some(DispatchPolicy::ConsistentHash),
            "least" => Some(DispatchPolicy::LeastOutstanding),
            _ => None,
        }
    }
}

/// Shadow-mode parameters for [`Fleet::deploy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowConfig {
    /// Seeded fraction of completed live traffic mirrored to the
    /// candidate (`1.0` mirrors everything).
    pub fraction: f64,
    /// Mirrored samples that must pass before the candidate is promoted.
    pub required_samples: u64,
    /// Largest tolerated per-pixel |live − candidate| probability
    /// difference; one sample beyond this aborts the deploy. `0.0`
    /// demands bit-identical predictions.
    pub max_delta: f64,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        ShadowConfig {
            fraction: 0.25,
            required_samples: 8,
            max_delta: 1e-4,
        }
    }
}

/// Options for [`Fleet::deploy`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeployOptions {
    /// `None` promotes immediately (still zero-downtime: replicas swap at
    /// batch boundaries). `Some` shadows first and promotes only after
    /// [`ShadowConfig::required_samples`] clean diffs.
    pub shadow: Option<ShadowConfig>,
}

/// Tunables for a [`Fleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of replicas (≥ 1).
    pub replicas: usize,
    /// Routing policy.
    pub dispatch: DispatchPolicy,
    /// Seed for routing scores, shadow sampling and revive probing.
    pub seed: u64,
    /// Per-replica server configuration (each replica gets a clone).
    pub serve: ServeConfig,
    /// How many times an [`ServeError::Aborted`] leg may be redirected
    /// before it is failed back to the caller.
    pub max_redirects: usize,
    /// Legs that must pass after a replica's death before revive probing
    /// considers it.
    pub revive_cooldown: u64,
    /// Seeded per-submit chance of reviving an eligible dead replica;
    /// `0.0` (the default) leaves revival to explicit [`Fleet::revive`]
    /// calls, which keeps routing streams untouched for reproducibility.
    pub revive_probe_chance: f64,
    /// Prefer replicas whose breaker bank has no open slot: a replica
    /// with an open breaker is soft-unhealthy and only receives traffic
    /// when every alive replica has one.
    pub route_around_open_breakers: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 2,
            dispatch: DispatchPolicy::ConsistentHash,
            seed: 0x5EED_F1EE,
            serve: ServeConfig::default(),
            max_redirects: 3,
            revive_cooldown: 64,
            revive_probe_chance: 0.0,
            route_around_open_breakers: true,
        }
    }
}

impl FleetConfig {
    fn check(&self) -> Result<(), ServeError> {
        if self.replicas == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "fleet replicas must be >= 1".to_string(),
            });
        }
        if !(0.0..=1.0).contains(&self.revive_probe_chance) {
            return Err(ServeError::InvalidConfig {
                reason: "revive_probe_chance must be in [0, 1]".to_string(),
            });
        }
        self.serve.check()
    }
}

/// One replica's fleet-side bookkeeping. The replica's own counters live
/// in its [`Server`]; killed incarnations are retained so their final
/// statistics still roll up.
struct Replica {
    current: Arc<Server>,
    /// Killed incarnations, oldest first; snapshotted lazily so counters
    /// from in-flight batches that finish after the kill are not lost.
    past: Vec<Arc<Server>>,
    alive: bool,
    /// 1-based; incremented on every revive. Legs remember the
    /// incarnation they were routed to so a stale settle never touches a
    /// successor's bookkeeping.
    incarnation: u64,
    /// Fleet legs routed here and not yet settled (the least-outstanding
    /// signal). Reset on revive.
    outstanding: u64,
    /// Leg counter at death; gates the revive cooldown.
    dead_since_leg: u64,
}

/// A model shadow-deploying against live traffic.
enum DeployState {
    Idle,
    Shadowing {
        net: Box<FusionNet>,
        predictor: Box<Predictor>,
        version: u64,
        options: ShadowConfig,
    },
}

#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    rejected: u64,
    expired: u64,
    failed: u64,
    redirected: u64,
    no_replica: u64,
}

struct Core {
    replicas: Vec<Replica>,
    shutdown: bool,
    /// Total routing legs attempted; drives least-outstanding tie-breaks
    /// and revive cooldowns.
    legs: u64,
    counters: Counters,
    deploy: DeployState,
    /// The model currently considered live: revived replicas start from a
    /// clone of this, and deploys promote into it.
    live_net: FusionNet,
    model_version: u64,
    deploys: u64,
    promotions: u64,
    deploy_aborts: u64,
    shadow_samples: u64,
    shadow_max_delta: f64,
    /// Seeded stream for shadow sampling and revive probing. Stepped only
    /// when those features are active, so plain routing never consumes
    /// randomness.
    rng: TensorRng,
}

struct FleetInner {
    core: Mutex<Core>,
    config: FleetConfig,
}

/// One replica's roll-up inside [`FleetStats`]: counters summed over all
/// incarnations, live-incarnation metadata alongside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Replica index (stable across incarnations).
    pub index: usize,
    /// Whether the replica was alive at snapshot time.
    pub alive: bool,
    /// 1-based incarnation count (1 = never killed).
    pub incarnations: u64,
    /// Server-side `submitted`, summed over incarnations.
    pub submitted: u64,
    /// Server-side `completed`, summed over incarnations.
    pub completed: u64,
    /// Server-side `rejected`, summed over incarnations.
    pub rejected: u64,
    /// Server-side `expired`, summed over incarnations.
    pub expired: u64,
    /// Server-side `failed` (panics **and** aborted-at-kill requests),
    /// summed over incarnations.
    pub failed: u64,
    /// Fulfilled requests whose depth slot was quarantined, summed over
    /// incarnations.
    pub quarantined: u64,
    /// Batches executed, summed over incarnations.
    pub batches: u64,
    /// Hot swaps claimed by the live incarnation's executor.
    pub swaps: u64,
    /// Model version the live incarnation serves.
    pub model_version: u64,
    /// Worst breaker state on the live incarnation, if breakers run.
    pub breaker_state: Option<BreakerState>,
    /// Breaker trips on the live incarnation, summed over slots.
    pub breaker_trips: u64,
    /// Per-slot breaker detail on the live incarnation, in slot-key
    /// order (untagged first, then ascending [`SourceId`]). The chaos
    /// engine uses this to pin *which* source tripped a replica's
    /// breaker, not just that one did.
    pub breaker_slots: Vec<SlotBreakerStats>,
    /// The live incarnation's breaker transition logs, concatenated in
    /// slot-key order, oldest first within a slot.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Largest scratch-arena high-water mark any incarnation's executor
    /// thread published, bytes (see [`StatsSnapshot::scratch_peak_bytes`]).
    pub scratch_peak_bytes: usize,
}

/// Fleet-wide counters plus per-replica roll-ups. See the
/// [module docs](self) for the leg-accounting model.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Routing legs attempted (including `no_replica` refusals).
    pub submitted: u64,
    /// Legs that delivered a prediction.
    pub completed: u64,
    /// Legs refused by backpressure (`QueueFull`) or `no_replica`.
    pub rejected: u64,
    /// Legs that expired past their deadline.
    pub expired: u64,
    /// Legs that terminally failed (batch panic, abort with no redirect
    /// budget or no healthy replica left).
    pub failed: u64,
    /// Aborted legs that were successfully resubmitted elsewhere.
    pub redirected: u64,
    /// Legs refused because no replica was healthy (subset of
    /// `rejected`).
    pub no_replica: u64,
    /// Version of the live model (0 until the first deploy promotes).
    pub model_version: u64,
    /// Deploys attempted via [`Fleet::deploy`].
    pub deploys: u64,
    /// Deploys promoted to live (immediately or after shadowing).
    pub promotions: u64,
    /// Shadow deploys aborted on divergence.
    pub deploy_aborts: u64,
    /// Mirrored samples diffed by the current/most recent shadow deploy.
    pub shadow_samples: u64,
    /// Largest |live − candidate| probability difference seen by the
    /// current/most recent shadow deploy.
    pub shadow_max_delta: f64,
    /// Per-replica roll-ups, indexed by replica.
    pub replicas: Vec<ReplicaStats>,
}

impl FleetStats {
    /// Fleet-level conservation: every counted leg reached exactly one
    /// terminal bucket. Holds at quiescence (all completions waited).
    pub fn is_conserved(&self) -> bool {
        self.submitted
            == self.completed + self.rejected + self.expired + self.failed + self.redirected
    }

    /// The router-vs-replica tally cross-check: fleet counters must
    /// reconcile exactly with the per-replica server counters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first identity that fails. Only
    /// meaningful at quiescence.
    pub fn cross_check(&self) -> Result<(), String> {
        if !self.is_conserved() {
            return Err(format!(
                "fleet counters not conserved: {} submitted vs {} completed + {} rejected \
                 + {} expired + {} failed + {} redirected",
                self.submitted,
                self.completed,
                self.rejected,
                self.expired,
                self.failed,
                self.redirected
            ));
        }
        let sums = self
            .replicas
            .iter()
            .fold((0u64, 0u64, 0u64, 0u64, 0u64), |acc, r| {
                (
                    acc.0 + r.submitted,
                    acc.1 + r.completed,
                    acc.2 + r.rejected,
                    acc.3 + r.expired,
                    acc.4 + r.failed,
                )
            });
        let identities = [
            ("submitted", sums.0, self.submitted - self.no_replica),
            ("completed", sums.1, self.completed),
            ("rejected", sums.2, self.rejected - self.no_replica),
            ("expired", sums.3, self.expired),
            // Every server-side failure is either redirected by the fleet
            // or surfaced as a fleet failure.
            ("failed", sums.4, self.failed + self.redirected),
        ];
        for (name, replica_sum, fleet_view) in identities {
            if replica_sum != fleet_view {
                return Err(format!(
                    "router-vs-replica mismatch on `{name}`: replicas sum to {replica_sum}, \
                     fleet expects {fleet_view}"
                ));
            }
        }
        Ok(())
    }
}

/// splitmix64 finalizer: the bijective avalanche step, used as a pure
/// hash for routing scores.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Rendezvous score of `(key, replica)` under `seed`: each (key, replica)
/// pair gets an independent uniform score, and the router picks the
/// argmax over candidate replicas.
fn rendezvous_score(seed: u64, key: u64, replica: u64) -> u64 {
    mix64(
        seed ^ mix64(
            key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ mix64(replica.wrapping_add(0xA076_1D64_78BD_642F)),
        ),
    )
}

fn routing_key(source: Option<SourceId>) -> u64 {
    source.map_or(0, |s| s.0.wrapping_add(1))
}

/// Picks a replica for one leg, or `None` when no replica is alive.
fn route(core: &Core, config: &FleetConfig, source: Option<SourceId>, leg: u64) -> Option<usize> {
    let alive: Vec<usize> = core
        .replicas
        .iter()
        .enumerate()
        .filter(|(_, r)| r.alive)
        .map(|(i, _)| i)
        .collect();
    if alive.is_empty() {
        return None;
    }
    let candidates = if config.route_around_open_breakers {
        let preferred: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&i| !core.replicas[i].current.breaker_open())
            .collect();
        if preferred.is_empty() {
            alive
        } else {
            preferred
        }
    } else {
        alive
    };
    Some(match config.dispatch {
        DispatchPolicy::ConsistentHash => {
            let key = routing_key(source);
            candidates
                .into_iter()
                .max_by_key(|&i| rendezvous_score(config.seed, key, i as u64))
                .expect("candidates nonempty")
        }
        DispatchPolicy::LeastOutstanding => {
            let min = candidates
                .iter()
                .map(|&i| core.replicas[i].outstanding)
                .min()
                .expect("candidates nonempty");
            candidates
                .into_iter()
                .filter(|&i| core.replicas[i].outstanding == min)
                .max_by_key(|&i| rendezvous_score(config.seed, leg, i as u64))
                .expect("candidates nonempty")
        }
    })
}

fn settle_outstanding(core: &mut Core, index: usize, incarnation: u64) {
    if let Some(replica) = core.replicas.get_mut(index) {
        if replica.incarnation == incarnation {
            replica.outstanding = replica.outstanding.saturating_sub(1);
        }
    }
}

/// Marks a replica dead if it is still the incarnation the caller routed
/// to (a raced revive must not be re-killed by a stale observation).
fn mark_dead(core: &mut Core, index: usize, incarnation: u64) {
    let legs = core.legs;
    if let Some(replica) = core.replicas.get_mut(index) {
        if replica.incarnation == incarnation && replica.alive {
            replica.alive = false;
            replica.dead_since_leg = legs;
        }
    }
}

fn revive_replica(core: &mut Core, index: usize, config: &FleetConfig) {
    let server = Server::start(core.live_net.clone(), config.serve.clone())
        .expect("fleet serve config was validated at start");
    let replica = &mut core.replicas[index];
    let old = std::mem::replace(&mut replica.current, Arc::new(server));
    replica.past.push(old);
    replica.alive = true;
    replica.incarnation += 1;
    replica.outstanding = 0;
}

/// Seeded half-open probing: each submit gives every cooled-down dead
/// replica one seeded chance to come back.
fn maybe_revive(core: &mut Core, config: &FleetConfig) {
    if config.revive_probe_chance <= 0.0 {
        return;
    }
    for index in 0..core.replicas.len() {
        let replica = &core.replicas[index];
        if replica.alive
            || core.legs.saturating_sub(replica.dead_since_leg) < config.revive_cooldown
        {
            continue;
        }
        if core.rng.chance(config.revive_probe_chance) {
            revive_replica(core, index, config);
        }
    }
}

/// Draws whether this leg's completion mirrors to the shadow candidate.
fn shadow_draw(core: &mut Core) -> bool {
    let Core { deploy, rng, .. } = core;
    match deploy {
        DeployState::Shadowing { options, .. } => {
            if options.fraction >= 1.0 {
                true
            } else if options.fraction <= 0.0 {
                false
            } else {
                rng.chance(options.fraction)
            }
        }
        DeployState::Idle => false,
    }
}

/// Runs the candidate on the mirrored request with the live quarantine
/// verdict (so live and shadow take the same fused/camera-only route) and
/// returns the max per-pixel |Δ probability|.
fn shadow_delta(
    live: &Prediction,
    predictor: &mut Predictor,
    request: &Request,
) -> Result<f64, String> {
    let issues = vec![live.quarantined];
    let slots = predictor
        .run_slots_prejudged(&[&request.rgb], &[&request.depth], &issues)
        .map_err(|e| e.to_string())?;
    let candidate = &slots[0].prob;
    Ok(live
        .prob
        .data()
        .iter()
        .zip(candidate.data().iter())
        .map(|(a, b)| (a - b).abs() as f64)
        .fold(0.0, f64::max))
}

/// Promotes `net` to live: stages it on every alive replica (executors
/// claim at their next batch boundary) and makes it the revive source.
fn promote(core: &mut Core, net: FusionNet, version: u64) -> Result<(), ServeError> {
    for replica in &core.replicas {
        if replica.alive {
            replica.current.stage_model(net.clone(), version)?;
        }
    }
    core.live_net = net;
    core.model_version = version;
    core.promotions += 1;
    core.deploy = DeployState::Idle;
    Ok(())
}

/// One completed mirrored sample: diff against the candidate, then abort
/// or promote the shadow deploy.
fn shadow_observe(core: &mut Core, live: &Prediction, request: &Request) {
    if !matches!(core.deploy, DeployState::Shadowing { .. }) {
        return;
    }
    let state = std::mem::replace(&mut core.deploy, DeployState::Idle);
    let DeployState::Shadowing {
        net,
        mut predictor,
        version,
        options,
    } = state
    else {
        unreachable!("matched Shadowing above");
    };
    let delta = match shadow_delta(live, &mut predictor, request) {
        Ok(delta) => delta,
        Err(_) => {
            core.deploy_aborts += 1;
            return;
        }
    };
    core.shadow_samples += 1;
    if delta > core.shadow_max_delta {
        core.shadow_max_delta = delta;
    }
    if delta > options.max_delta {
        core.deploy_aborts += 1;
        return;
    }
    if core.shadow_samples >= options.required_samples {
        if promote(core, *net, version).is_err() {
            core.deploy_aborts += 1;
        }
        return;
    }
    core.deploy = DeployState::Shadowing {
        net,
        predictor,
        version,
        options,
    };
}

/// N replica servers behind a deterministic router. See the
/// [module docs](self) for semantics and the accounting model.
///
/// # Examples
///
/// ```
/// use sf_core::{FusionNet, FusionScheme, NetworkConfig};
/// use sf_serve::{Fleet, FleetConfig, Request, SourceId};
/// use sf_tensor::Tensor;
///
/// let config = NetworkConfig::tiny();
/// let net = FusionNet::new(FusionScheme::AllFilterU, &config).unwrap();
/// let fleet = Fleet::start(net, FleetConfig { replicas: 3, ..FleetConfig::default() }).unwrap();
/// let request = Request::new(
///     Tensor::ones(&[3, config.height, config.width]),
///     Tensor::ones(&[1, config.height, config.width]),
/// )
/// .with_source(SourceId(7));
/// let completion = fleet.submit(request).unwrap();
/// let prediction = completion.wait().unwrap();
/// assert_eq!(prediction.prob.shape(), &[config.height, config.width]);
/// let (_net, stats) = fleet.shutdown();
/// assert_eq!(stats.completed, 1);
/// stats.cross_check().unwrap();
/// ```
pub struct Fleet {
    inner: Arc<FleetInner>,
}

/// Waitable handle for one fleet request. Wraps the replica-level
/// [`Completion`]; on [`ServeError::Aborted`] (replica killed under the
/// request) it transparently redirects to a healthy replica before
/// surfacing an error. Fleet counters for the request settle inside
/// [`wait`](FleetCompletion::wait) — conservation holds once every
/// completion has been waited.
pub struct FleetCompletion {
    inner: Option<Completion>,
    fleet: Arc<FleetInner>,
    request: Request,
    replica: usize,
    incarnation: u64,
    shadow: bool,
    redirects: usize,
}

impl Fleet {
    /// Validates `config` and starts `config.replicas` servers, each from
    /// a clone of `net` (compiling its own plans on its own executor).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid fleet or
    /// per-replica serve configuration.
    pub fn start(net: FusionNet, config: FleetConfig) -> Result<Fleet, ServeError> {
        config.check()?;
        let mut replicas = Vec::with_capacity(config.replicas);
        for _ in 0..config.replicas {
            replicas.push(Replica {
                current: Arc::new(Server::start(net.clone(), config.serve.clone())?),
                past: Vec::new(),
                alive: true,
                incarnation: 1,
                outstanding: 0,
                dead_since_leg: 0,
            });
        }
        let rng = TensorRng::seed_from(config.seed ^ 0xF1EE_7000_0000_0001);
        Ok(Fleet {
            inner: Arc::new(FleetInner {
                core: Mutex::new(Core {
                    replicas,
                    shutdown: false,
                    legs: 0,
                    counters: Counters::default(),
                    deploy: DeployState::Idle,
                    live_net: net,
                    model_version: 0,
                    deploys: 0,
                    promotions: 0,
                    deploy_aborts: 0,
                    shadow_samples: 0,
                    shadow_max_delta: 0.0,
                    rng,
                }),
                config,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Core> {
        self.inner.core.lock().expect("fleet core poisoned")
    }

    /// Routes and submits one request. The first leg is placed by the
    /// configured [`DispatchPolicy`]; a replica that turns out dead at
    /// submit time (raced kill) is marked unhealthy and another is tried
    /// without consuming any counter.
    ///
    /// # Errors
    ///
    /// - [`ServeError::NoHealthyReplica`] when every replica is dead
    ///   (counted as a rejected `no_replica` leg);
    /// - [`ServeError::QueueFull`] when the routed replica sheds the leg
    ///   under [`Backpressure::Reject`](crate::Backpressure::Reject);
    /// - [`ServeError::ShuttingDown`] after [`Fleet::close`];
    /// - [`ServeError::BadRequest`] for shape mismatches and non-finite
    ///   camera frames (uncounted, as on [`Server::submit`]).
    pub fn submit(&self, request: Request) -> Result<FleetCompletion, ServeError> {
        loop {
            let (server, index, incarnation, shadow) = {
                let mut core = self.lock();
                if core.shutdown {
                    return Err(ServeError::ShuttingDown);
                }
                maybe_revive(&mut core, &self.inner.config);
                core.legs += 1;
                let leg = core.legs;
                match route(&core, &self.inner.config, request.source, leg) {
                    None => {
                        core.counters.submitted += 1;
                        core.counters.rejected += 1;
                        core.counters.no_replica += 1;
                        return Err(ServeError::NoHealthyReplica {
                            replicas: core.replicas.len(),
                        });
                    }
                    Some(index) => {
                        let shadow = shadow_draw(&mut core);
                        let replica = &mut core.replicas[index];
                        replica.outstanding += 1;
                        (
                            Arc::clone(&replica.current),
                            index,
                            replica.incarnation,
                            shadow,
                        )
                    }
                }
            };
            match server.submit(request.clone()) {
                Ok(inner) => {
                    self.lock().counters.submitted += 1;
                    return Ok(FleetCompletion {
                        inner: Some(inner),
                        fleet: Arc::clone(&self.inner),
                        request,
                        replica: index,
                        incarnation,
                        shadow,
                        redirects: 0,
                    });
                }
                Err(ServeError::QueueFull { capacity }) => {
                    let mut core = self.lock();
                    settle_outstanding(&mut core, index, incarnation);
                    // The replica counted this leg as submitted+rejected;
                    // mirror it so the cross-check tallies.
                    core.counters.submitted += 1;
                    core.counters.rejected += 1;
                    return Err(ServeError::QueueFull { capacity });
                }
                Err(ServeError::ShuttingDown) => {
                    let mut core = self.lock();
                    settle_outstanding(&mut core, index, incarnation);
                    if core.shutdown {
                        return Err(ServeError::ShuttingDown);
                    }
                    // The replica was killed between routing and submit:
                    // record the observation and retry elsewhere.
                    mark_dead(&mut core, index, incarnation);
                }
                Err(other) => {
                    let mut core = self.lock();
                    settle_outstanding(&mut core, index, incarnation);
                    return Err(other);
                }
            }
        }
    }

    /// The replica the router would pick for `source` right now, without
    /// consuming a leg. Exact for [`DispatchPolicy::ConsistentHash`];
    /// advisory under [`DispatchPolicy::LeastOutstanding`] (outstanding
    /// counts move with traffic).
    pub fn route_preview(&self, source: Option<SourceId>) -> Option<usize> {
        let core = self.lock();
        route(&core, &self.inner.config, source, core.legs + 1)
    }

    /// Kills replica `index`: marks it dead for routing and aborts its
    /// server — the batch its executor already claimed finishes, queued
    /// work fails with [`ServeError::Aborted`] (and is redirected by the
    /// waiting [`FleetCompletion`]s). Returns false if the index is out
    /// of range or the replica is already dead.
    pub fn kill(&self, index: usize) -> bool {
        let server = {
            let mut core = self.lock();
            let legs = core.legs;
            let Some(replica) = core.replicas.get_mut(index) else {
                return false;
            };
            if !replica.alive {
                return false;
            }
            replica.alive = false;
            replica.dead_since_leg = legs;
            Arc::clone(&replica.current)
        };
        server.abort();
        true
    }

    /// Revives a dead replica with a fresh server built from the fleet's
    /// live model (so a post-deploy revival serves the new model). Under
    /// consistent hashing its keys return to it immediately. Returns
    /// false if the index is out of range or the replica is alive.
    pub fn revive(&self, index: usize) -> bool {
        let mut core = self.lock();
        match core.replicas.get(index) {
            Some(replica) if !replica.alive => {}
            _ => return false,
        }
        revive_replica(&mut core, index, &self.inner.config);
        true
    }

    /// Deploys `net` as the fleet's model, hot-swapping with zero
    /// downtime: compilation happens here (off the hot path), replicas
    /// swap at batch boundaries, and no in-flight request fails because
    /// of the deploy. With [`DeployOptions::shadow`] the candidate first
    /// mirrors a seeded fraction of live traffic; it is promoted after
    /// [`ShadowConfig::required_samples`] diffs within
    /// [`ShadowConfig::max_delta`], or the deploy aborts on the first
    /// sample beyond it. Returns the candidate's version tag.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DeployFailed`] if the candidate's geometry
    /// disagrees with the fleet's or the shadow options are invalid.
    pub fn deploy(&self, net: FusionNet, options: DeployOptions) -> Result<u64, ServeError> {
        if let Some(shadow) = &options.shadow {
            if !(0.0..=1.0).contains(&shadow.fraction) {
                return Err(ServeError::DeployFailed {
                    reason: "shadow fraction must be in [0, 1]".to_string(),
                });
            }
            if shadow.required_samples == 0 {
                return Err(ServeError::DeployFailed {
                    reason: "shadow required_samples must be >= 1".to_string(),
                });
            }
            if shadow.max_delta.is_nan() || shadow.max_delta < 0.0 {
                return Err(ServeError::DeployFailed {
                    reason: "shadow max_delta must be >= 0".to_string(),
                });
            }
        }
        let mut core = self.lock();
        if core.shutdown {
            return Err(ServeError::DeployFailed {
                reason: "fleet is shutting down".to_string(),
            });
        }
        let live = core.live_net.config();
        let cand = net.config();
        if (live.height, live.width, live.depth_channels)
            != (cand.height, cand.width, cand.depth_channels)
        {
            return Err(ServeError::DeployFailed {
                reason: format!(
                    "candidate geometry {}x{} (depth {}) does not match fleet {}x{} (depth {})",
                    cand.height,
                    cand.width,
                    cand.depth_channels,
                    live.height,
                    live.width,
                    live.depth_channels
                ),
            });
        }
        core.deploys += 1;
        let version = core.deploys;
        match options.shadow {
            Some(shadow) => {
                core.shadow_samples = 0;
                core.shadow_max_delta = 0.0;
                core.deploy = DeployState::Shadowing {
                    predictor: Box::new(Predictor::compile(&net)),
                    net: Box::new(net),
                    version,
                    options: shadow,
                };
            }
            None => promote(&mut core, net, version)?,
        }
        Ok(version)
    }

    /// Loads an SFM1 checkpoint file and [`deploy`](Fleet::deploy)s it.
    /// Quantized (v3) checkpoints load transparently as f32 models via
    /// `sf_core::load_checkpoint`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DeployFailed`] if the checkpoint cannot be
    /// loaded, plus everything [`deploy`](Fleet::deploy) can return.
    pub fn deploy_from_path(&self, path: &Path, options: DeployOptions) -> Result<u64, ServeError> {
        let net = load_checkpoint(path).map_err(|e| ServeError::DeployFailed {
            reason: e.to_string(),
        })?;
        self.deploy(net, options)
    }

    /// Point-in-time fleet statistics (replica counters summed over all
    /// incarnations). The cross-check identities hold at quiescence.
    pub fn stats(&self) -> FleetStats {
        let core = self.lock();
        let replicas = core
            .replicas
            .iter()
            .enumerate()
            .map(|(index, r)| {
                let past = r.past.iter().map(|server| server.stats());
                roll_up(index, r.alive, r.incarnation, r.current.stats(), past)
            })
            .collect();
        fleet_stats(&core, replicas)
    }

    /// Stops admissions fleet-wide (idempotent) and closes every replica,
    /// waking submitters blocked on full queues with
    /// [`ServeError::ShuttingDown`]. Queued work still drains.
    pub fn close(&self) {
        let servers: Vec<Arc<Server>> = {
            let mut core = self.lock();
            core.shutdown = true;
            core.replicas
                .iter()
                .map(|r| Arc::clone(&r.current))
                .collect()
        };
        for server in servers {
            server.close();
        }
    }

    /// Graceful shutdown: closes every replica, drains their queues,
    /// joins every executor (current and killed incarnations) and returns
    /// the live model plus final statistics. Wait every outstanding
    /// [`FleetCompletion`] first — counters settle in
    /// [`wait`](FleetCompletion::wait), so the final snapshot conserves
    /// exactly when nothing is left pending.
    pub fn shutdown(self) -> (FusionNet, FleetStats) {
        self.close();
        let replicas = std::mem::take(&mut self.lock().replicas);
        let rollups = replicas
            .into_iter()
            .enumerate()
            .map(|(index, r)| {
                let joined = |server| unwrap_server(server).shutdown().1;
                let past = r.past.into_iter().map(joined);
                roll_up(index, r.alive, r.incarnation, joined(r.current), past)
            })
            .collect();
        let core = self.lock();
        (core.live_net.clone(), fleet_stats(&core, rollups))
    }
}

/// One replica's [`ReplicaStats`]: terminal counters summed over every
/// incarnation's snapshot, live-incarnation metadata from `current`.
fn roll_up(
    index: usize,
    alive: bool,
    incarnations: u64,
    current: StatsSnapshot,
    past: impl Iterator<Item = StatsSnapshot>,
) -> ReplicaStats {
    let mut stats = ReplicaStats {
        index,
        alive,
        incarnations,
        submitted: current.submitted,
        completed: current.completed,
        rejected: current.rejected,
        expired: current.expired,
        failed: current.failed,
        quarantined: current.quarantined,
        batches: current.batches,
        swaps: current.swaps,
        model_version: current.model_version,
        breaker_state: current.breaker_state,
        breaker_trips: current.breaker_trips,
        breaker_slots: current.breaker_slots,
        breaker_transitions: current.breaker_transitions,
        scratch_peak_bytes: current.scratch_peak_bytes,
    };
    for snap in past {
        stats.submitted += snap.submitted;
        stats.completed += snap.completed;
        stats.rejected += snap.rejected;
        stats.expired += snap.expired;
        stats.failed += snap.failed;
        stats.quarantined += snap.quarantined;
        stats.batches += snap.batches;
        stats.scratch_peak_bytes = stats.scratch_peak_bytes.max(snap.scratch_peak_bytes);
    }
    stats
}

/// The fleet-side ledger plus the given per-replica roll-ups.
fn fleet_stats(core: &Core, replicas: Vec<ReplicaStats>) -> FleetStats {
    FleetStats {
        submitted: core.counters.submitted,
        completed: core.counters.completed,
        rejected: core.counters.rejected,
        expired: core.counters.expired,
        failed: core.counters.failed,
        redirected: core.counters.redirected,
        no_replica: core.counters.no_replica,
        model_version: core.model_version,
        deploys: core.deploys,
        promotions: core.promotions,
        deploy_aborts: core.deploy_aborts,
        shadow_samples: core.shadow_samples,
        shadow_max_delta: core.shadow_max_delta,
        replicas,
    }
}

/// Spins until the fleet is the sole owner of a replica server (waiters
/// hold server `Arc`s only transiently, during routing and redirects).
fn unwrap_server(mut arc: Arc<Server>) -> Server {
    loop {
        match Arc::try_unwrap(arc) {
            Ok(server) => return server,
            Err(back) => {
                arc = back;
                std::thread::yield_now();
            }
        }
    }
}

impl FleetCompletion {
    /// The replica this request is currently routed to. Available before
    /// [`wait`](FleetCompletion::wait); updated if a redirect moves the
    /// request.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// True once the current leg has been fulfilled (a pending redirect
    /// may still follow).
    pub fn is_done(&self) -> bool {
        self.inner.as_ref().is_some_and(Completion::is_done)
    }

    /// Blocks until the request resolves, redirecting aborted legs to
    /// healthy replicas along the way, and settles the fleet counters for
    /// its terminal state.
    ///
    /// # Errors
    ///
    /// The replica-level errors ([`ServeError::DeadlineExceeded`],
    /// [`ServeError::BatchPanicked`], …), plus [`ServeError::Aborted`]
    /// when the redirect budget or healthy replicas ran out, and
    /// [`ServeError::QueueFull`] when a redirect target shed the retry.
    pub fn wait(mut self) -> Result<Prediction, ServeError> {
        loop {
            let result = self.inner.take().expect("wait consumes the handle").wait();
            match result {
                Ok(prediction) => {
                    let mut core = self.fleet.core.lock().expect("fleet core poisoned");
                    settle_outstanding(&mut core, self.replica, self.incarnation);
                    core.counters.completed += 1;
                    if self.shadow {
                        shadow_observe(&mut core, &prediction, &self.request);
                    }
                    return Ok(prediction);
                }
                Err(ServeError::Aborted) | Err(ServeError::ServerDropped) => {
                    self.redirect()?;
                }
                Err(err) => {
                    let mut core = self.fleet.core.lock().expect("fleet core poisoned");
                    settle_outstanding(&mut core, self.replica, self.incarnation);
                    if matches!(err, ServeError::DeadlineExceeded { .. }) {
                        core.counters.expired += 1;
                    } else {
                        core.counters.failed += 1;
                    }
                    return Err(err);
                }
            }
        }
    }

    /// Closes the aborted leg and opens a new one on a healthy replica.
    /// On success `self.inner` holds the new leg's completion; on error
    /// the aborted leg has been counted terminally.
    fn redirect(&mut self) -> Result<(), ServeError> {
        {
            let mut core = self.fleet.core.lock().expect("fleet core poisoned");
            settle_outstanding(&mut core, self.replica, self.incarnation);
            mark_dead(&mut core, self.replica, self.incarnation);
            if self.redirects >= self.fleet.config.max_redirects {
                core.counters.failed += 1;
                return Err(ServeError::Aborted);
            }
        }
        loop {
            let (server, index, incarnation) = {
                let mut core = self.fleet.core.lock().expect("fleet core poisoned");
                if core.shutdown {
                    core.counters.failed += 1;
                    return Err(ServeError::Aborted);
                }
                core.legs += 1;
                let leg = core.legs;
                match route(&core, &self.fleet.config, self.request.source, leg) {
                    None => {
                        core.counters.failed += 1;
                        return Err(ServeError::Aborted);
                    }
                    Some(index) => {
                        let replica = &mut core.replicas[index];
                        replica.outstanding += 1;
                        (Arc::clone(&replica.current), index, replica.incarnation)
                    }
                }
            };
            match server.submit(self.request.clone()) {
                Ok(inner) => {
                    let mut core = self.fleet.core.lock().expect("fleet core poisoned");
                    core.counters.redirected += 1;
                    core.counters.submitted += 1;
                    drop(core);
                    self.inner = Some(inner);
                    self.replica = index;
                    self.incarnation = incarnation;
                    self.redirects += 1;
                    return Ok(());
                }
                Err(ServeError::QueueFull { capacity }) => {
                    let mut core = self.fleet.core.lock().expect("fleet core poisoned");
                    settle_outstanding(&mut core, index, incarnation);
                    core.counters.redirected += 1;
                    core.counters.submitted += 1;
                    core.counters.rejected += 1;
                    return Err(ServeError::QueueFull { capacity });
                }
                Err(ServeError::ShuttingDown) => {
                    let mut core = self.fleet.core.lock().expect("fleet core poisoned");
                    settle_outstanding(&mut core, index, incarnation);
                    if core.shutdown {
                        core.counters.failed += 1;
                        return Err(ServeError::Aborted);
                    }
                    mark_dead(&mut core, index, incarnation);
                }
                Err(other) => {
                    let mut core = self.fleet.core.lock().expect("fleet core poisoned");
                    settle_outstanding(&mut core, index, incarnation);
                    core.counters.failed += 1;
                    return Err(other);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_remaps_only_the_dead_replicas_keys() {
        let seed = 42;
        let all: Vec<u64> = (0..4).collect();
        let choose = |candidates: &[u64], key: u64| -> u64 {
            candidates
                .iter()
                .copied()
                .max_by_key(|&r| rendezvous_score(seed, key, r))
                .unwrap()
        };
        let dead = 2u64;
        let survivors: Vec<u64> = all.iter().copied().filter(|&r| r != dead).collect();
        let mut remapped = 0;
        for key in 0..512 {
            let before = choose(&all, key);
            let after = choose(&survivors, key);
            if before == dead {
                remapped += 1;
                assert_ne!(after, dead);
            } else {
                // The consistent-hashing property: keys not owned by the
                // dead replica keep their placement.
                assert_eq!(before, after, "key {key} moved without its replica dying");
            }
        }
        // The dead replica owned a nontrivial share of the keyspace.
        assert!(
            remapped > 64,
            "only {remapped} of 512 keys on the dead replica"
        );
    }

    #[test]
    fn rendezvous_spreads_keys_across_replicas() {
        let mut owned = [0usize; 4];
        for key in 0..1024 {
            let r = (0..4u64)
                .max_by_key(|&r| rendezvous_score(7, key, r))
                .unwrap();
            owned[r as usize] += 1;
        }
        for (i, &count) in owned.iter().enumerate() {
            assert!(
                count > 128,
                "replica {i} owns only {count} of 1024 keys: {owned:?}"
            );
        }
    }

    #[test]
    fn dispatch_policy_labels_round_trip() {
        for policy in [
            DispatchPolicy::ConsistentHash,
            DispatchPolicy::LeastOutstanding,
        ] {
            assert_eq!(DispatchPolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(DispatchPolicy::parse("nope"), None);
    }

    #[test]
    fn fleet_config_rejects_zero_replicas_and_bad_chance() {
        let net_err = FleetConfig {
            replicas: 0,
            ..FleetConfig::default()
        }
        .check()
        .unwrap_err();
        assert!(net_err.to_string().contains("replicas"));
        let chance_err = FleetConfig {
            revive_probe_chance: 1.5,
            ..FleetConfig::default()
        }
        .check()
        .unwrap_err();
        assert!(chance_err.to_string().contains("revive_probe_chance"));
    }

    #[test]
    fn cross_check_catches_a_cooked_tally() {
        let replica = ReplicaStats {
            index: 0,
            alive: true,
            incarnations: 1,
            submitted: 4,
            completed: 4,
            rejected: 0,
            expired: 0,
            failed: 0,
            quarantined: 0,
            batches: 1,
            swaps: 0,
            model_version: 0,
            breaker_state: None,
            breaker_trips: 0,
            breaker_slots: Vec::new(),
            breaker_transitions: Vec::new(),
            scratch_peak_bytes: 0,
        };
        let mut stats = FleetStats {
            submitted: 4,
            completed: 4,
            rejected: 0,
            expired: 0,
            failed: 0,
            redirected: 0,
            no_replica: 0,
            model_version: 0,
            deploys: 0,
            promotions: 0,
            deploy_aborts: 0,
            shadow_samples: 0,
            shadow_max_delta: 0.0,
            replicas: vec![replica],
        };
        stats.cross_check().unwrap();
        stats.completed = 3; // lose one
        assert!(stats.cross_check().unwrap_err().contains("not conserved"));
        stats.completed = 4;
        stats.replicas[0].completed = 3; // replica lies
        assert!(stats.cross_check().unwrap_err().contains("completed"));
    }
}
