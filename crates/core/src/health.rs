//! Input health checks, the graceful-degradation policy, and the
//! depth-branch circuit breaker.
//!
//! A fusion network fed a dead or corrupted depth sensor does not fail
//! loudly — it fuses garbage and produces confidently wrong masks. The
//! types here give eval/infer a first line of defence: [`InputHealth`]
//! summarises a sensor tensor (non-finite ratio, energy, saturation),
//! [`HealthThresholds`] says what counts as broken, and
//! [`DegradationPolicy`] decides whether the depth input is quarantined,
//! in which case the network falls back to its camera-only path instead
//! of fusing the bad sensor.
//!
//! Per-request quarantine handles *transient* faults; a LiDAR outage is a
//! *sustained* fault, and re-detecting it on every single request wastes a
//! health assessment per frame and keeps feeding a known-bad sensor into
//! the health checker. The [`CircuitBreaker`] watches the quarantine rate
//! over a sliding window and, once it trips, routes the whole fleet to the
//! camera-only path until seeded half-open probes confirm the depth branch
//! has recovered.

use std::collections::VecDeque;
use std::fmt;

use sf_tensor::{Tensor, TensorRng};

/// Values at or above this fraction of full scale count as saturated
/// (depth images are normalized to `[0, 1]`).
const SATURATION_LEVEL: f32 = 0.995;

/// What counts as a broken sensor input. Defaults assume unit-normalized
/// images: any non-finite value, a mean magnitude below `1e-6` (dead
/// sensor) or more than half the pixels pinned at full scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthThresholds {
    /// Maximum tolerated fraction of non-finite (NaN/±inf) values.
    pub max_non_finite_ratio: f32,
    /// Minimum mean absolute value; below this the sensor is dead.
    pub min_energy: f32,
    /// Maximum tolerated fraction of full-scale (saturated) values.
    pub max_saturation_ratio: f32,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            max_non_finite_ratio: 0.0,
            min_energy: 1e-6,
            max_saturation_ratio: 0.5,
        }
    }
}

/// Why a sensor input was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthIssue {
    /// The tensor contains more non-finite values than tolerated.
    NonFinite,
    /// The tensor is (near-)all-zero: a dead or disconnected sensor.
    ZeroEnergy,
    /// Too many values are pinned at full scale.
    Saturated,
    /// No defect — the policy unconditionally ignores this sensor.
    ForcedCameraOnly,
    /// No per-input defect — the depth-branch [`CircuitBreaker`] is open
    /// (sustained sensor failure), so the whole fleet runs camera-only.
    BreakerOpen,
}

impl fmt::Display for HealthIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthIssue::NonFinite => write!(f, "non-finite values"),
            HealthIssue::ZeroEnergy => write!(f, "zero energy (dead sensor)"),
            HealthIssue::Saturated => write!(f, "saturated"),
            HealthIssue::ForcedCameraOnly => write!(f, "camera-only policy"),
            HealthIssue::BreakerOpen => write!(f, "depth circuit breaker open"),
        }
    }
}

/// Summary statistics of one sensor tensor, cheap enough to compute per
/// frame before every eval/infer forward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputHealth {
    /// Fraction of values that are NaN or ±infinity.
    pub non_finite_ratio: f32,
    /// Mean absolute value over the finite entries (non-finite entries
    /// contribute zero).
    pub energy: f32,
    /// Fraction of values at or above the full-scale saturation level.
    pub saturation_ratio: f32,
}

impl InputHealth {
    /// Measures `t` in one pass.
    pub fn assess(t: &Tensor) -> InputHealth {
        let n = t.numel().max(1) as f32;
        let mut non_finite = 0usize;
        let mut abs_sum = 0.0f64;
        let mut saturated = 0usize;
        for &v in t.data() {
            if !v.is_finite() {
                non_finite += 1;
            } else {
                abs_sum += f64::from(v.abs());
                if v.abs() >= SATURATION_LEVEL {
                    saturated += 1;
                }
            }
        }
        InputHealth {
            non_finite_ratio: non_finite as f32 / n,
            energy: (abs_sum / f64::from(n)) as f32,
            saturation_ratio: saturated as f32 / n,
        }
    }

    /// The first threshold this input violates, or `None` if healthy.
    pub fn diagnose(&self, thresholds: &HealthThresholds) -> Option<HealthIssue> {
        if self.non_finite_ratio > thresholds.max_non_finite_ratio {
            Some(HealthIssue::NonFinite)
        } else if self.energy < thresholds.min_energy {
            Some(HealthIssue::ZeroEnergy)
        } else if self.saturation_ratio > thresholds.max_saturation_ratio {
            Some(HealthIssue::Saturated)
        } else {
            None
        }
    }
}

/// What eval/infer does about an unhealthy depth input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Feed the network whatever the sensor delivered (pre-fault-model
    /// behavior; the degradation layer is inert).
    #[default]
    Trust,
    /// Health-check the depth input and, if it is broken, quarantine it:
    /// the network runs its camera-only path instead of fusing garbage.
    CameraFallback,
    /// Always ignore depth — the explicit camera-only reference that the
    /// fallback path must match exactly.
    CameraOnly,
}

impl DegradationPolicy {
    /// Decides whether a depth tensor must be quarantined under this
    /// policy, returning the reason if so.
    pub fn quarantine_depth(
        self,
        depth: &Tensor,
        thresholds: &HealthThresholds,
    ) -> Option<HealthIssue> {
        match self {
            DegradationPolicy::Trust => None,
            DegradationPolicy::CameraOnly => Some(HealthIssue::ForcedCameraOnly),
            DegradationPolicy::CameraFallback => InputHealth::assess(depth).diagnose(thresholds),
        }
    }
}

impl fmt::Display for DegradationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationPolicy::Trust => write!(f, "trust"),
            DegradationPolicy::CameraFallback => write!(f, "fallback"),
            DegradationPolicy::CameraOnly => write!(f, "camera-only"),
        }
    }
}

/// Tunables for the depth-branch [`CircuitBreaker`].
///
/// The breaker is request-count driven, not wall-clock driven: cooldowns
/// and windows are measured in observed requests, which keeps every state
/// transition a pure function of the request sequence (and the `seed`) —
/// the chaos harness relies on this for bit-reproducible runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding window length, in fused/probed requests, over which the
    /// quarantine rate is measured.
    pub window: usize,
    /// Minimum observations in the window before the rate can trip the
    /// breaker (guards against tripping on the first unlucky request).
    pub min_samples: usize,
    /// Quarantine rate that trips the breaker open (strictly above).
    pub trip_threshold: f32,
    /// Requests served camera-only while open before the breaker moves to
    /// half-open and starts probing the depth branch again.
    pub cooldown: usize,
    /// Consecutive healthy half-open probes required to close.
    pub success_probes: usize,
    /// Probability that a half-open request is a trial probe (the rest
    /// stay camera-only); drawn from the seeded stream.
    pub probe_chance: f64,
    /// Seed for the probe-selection stream.
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            min_samples: 8,
            trip_threshold: 0.5,
            cooldown: 16,
            success_probes: 3,
            probe_chance: 0.5,
            seed: 0xB0EA,
        }
    }
}

impl BreakerConfig {
    /// Returns the config with a different trip threshold (chainable).
    pub fn with_trip_threshold(mut self, trip_threshold: f32) -> Self {
        self.trip_threshold = trip_threshold;
        self
    }

    /// Returns the config with a different window length (chainable).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Returns the config with a different cooldown (chainable).
    pub fn with_cooldown(mut self, cooldown: usize) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Checks the invariants the breaker state machine relies on.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("breaker window must be >= 1 request".to_string());
        }
        if self.min_samples == 0 || self.min_samples > self.window {
            return Err(format!(
                "breaker min_samples must be in 1..={} (the window), got {}",
                self.window, self.min_samples
            ));
        }
        if !(0.0..=1.0).contains(&self.trip_threshold) {
            return Err(format!(
                "breaker trip_threshold must be a rate in [0, 1], got {}",
                self.trip_threshold
            ));
        }
        if self.cooldown == 0 {
            return Err("breaker cooldown must be >= 1 request".to_string());
        }
        if self.success_probes == 0 {
            return Err("breaker success_probes must be >= 1".to_string());
        }
        if !(self.probe_chance > 0.0 && self.probe_chance <= 1.0) {
            return Err(format!(
                "breaker probe_chance must be in (0, 1] or half-open can never probe, got {}",
                self.probe_chance
            ));
        }
        Ok(())
    }
}

/// The breaker's position in the classic closed → open → half-open cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal operation: depth inputs are health-checked per request.
    #[default]
    Closed,
    /// Sustained failure detected: every request runs camera-only.
    Open,
    /// Cooldown elapsed: seeded trial probes test the depth branch.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// One recorded breaker state change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerTransition {
    /// State before the change.
    pub from: BreakerState,
    /// State after the change.
    pub to: BreakerState,
    /// Number of requests the breaker had admitted when it changed.
    pub at_request: u64,
    /// Why the breaker moved (deterministic for a given request sequence).
    pub reason: String,
}

impl fmt::Display for BreakerTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} @ request {} ({})",
            self.from, self.to, self.at_request, self.reason
        )
    }
}

/// Where the breaker routes one request's depth input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepthRoute {
    /// Closed: health-check and (if healthy) fuse as usual.
    Fuse,
    /// Half-open trial: health-check the depth input and report the
    /// verdict back via [`CircuitBreaker::observe`].
    Probe,
    /// Open (or a non-probe half-open request): skip the depth branch
    /// entirely and run camera-only with [`HealthIssue::BreakerOpen`].
    ForceCameraOnly,
}

/// Fleet-wide depth-branch circuit breaker.
///
/// Callers run every request through [`admit`](CircuitBreaker::admit) to
/// learn its depth route, then report the quarantine verdict of fused and
/// probed requests via [`observe`](CircuitBreaker::observe). All state is
/// request-count driven, so a fixed request sequence produces a
/// bit-identical transition log.
///
/// # Examples
///
/// ```
/// use sf_core::{BreakerConfig, BreakerState, CircuitBreaker, DepthRoute};
///
/// let config = BreakerConfig {
///     window: 4,
///     min_samples: 2,
///     trip_threshold: 0.5,
///     cooldown: 2,
///     success_probes: 1,
///     probe_chance: 1.0,
///     ..BreakerConfig::default()
/// };
/// let mut breaker = CircuitBreaker::new(config);
/// for _ in 0..2 {
///     assert_eq!(breaker.admit(), DepthRoute::Fuse);
///     breaker.observe(true); // every depth input quarantined
/// }
/// assert_eq!(breaker.state(), BreakerState::Open);
/// assert_eq!(breaker.admit(), DepthRoute::ForceCameraOnly);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Recent quarantine verdicts (true = quarantined), newest at the back.
    outcomes: VecDeque<bool>,
    /// Requests served camera-only since the breaker last opened.
    open_served: usize,
    /// Consecutive healthy probes since entering half-open.
    probe_successes: usize,
    rng: TensorRng,
    admitted: u64,
    trips: u64,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// Creates a closed breaker. Call [`BreakerConfig::validate`] first if
    /// the config is untrusted.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            rng: TensorRng::seed_from(config.seed),
            config,
            state: BreakerState::Closed,
            outcomes: VecDeque::new(),
            open_served: 0,
            probe_successes: 0,
            admitted: 0,
            trips: 0,
            transitions: Vec::new(),
        }
    }

    /// Routes the next request. Must be called exactly once per request,
    /// in serving order.
    pub fn admit(&mut self) -> DepthRoute {
        self.admitted += 1;
        if self.state == BreakerState::Open && self.open_served >= self.config.cooldown {
            let reason = format!(
                "cooldown of {} camera-only requests elapsed",
                self.config.cooldown
            );
            self.transition(BreakerState::HalfOpen, reason);
            self.probe_successes = 0;
        }
        match self.state {
            BreakerState::Closed => DepthRoute::Fuse,
            BreakerState::Open => {
                self.open_served += 1;
                DepthRoute::ForceCameraOnly
            }
            BreakerState::HalfOpen => {
                if self.rng.chance(self.config.probe_chance) {
                    DepthRoute::Probe
                } else {
                    DepthRoute::ForceCameraOnly
                }
            }
        }
    }

    /// Reports the quarantine verdict of a [`DepthRoute::Fuse`] or
    /// [`DepthRoute::Probe`] request (`true` = the depth input was
    /// quarantined). [`DepthRoute::ForceCameraOnly`] requests are not
    /// observed — the breaker never saw their sensor.
    pub fn observe(&mut self, quarantined: bool) {
        match self.state {
            BreakerState::Closed => {
                self.outcomes.push_back(quarantined);
                while self.outcomes.len() > self.config.window {
                    self.outcomes.pop_front();
                }
                let rate = self.quarantine_rate();
                if self.outcomes.len() >= self.config.min_samples
                    && rate > self.config.trip_threshold
                {
                    let reason = format!(
                        "quarantine rate {:.2} over last {} requests exceeds {:.2}",
                        rate,
                        self.outcomes.len(),
                        self.config.trip_threshold
                    );
                    self.trip(reason);
                }
            }
            BreakerState::HalfOpen => {
                if quarantined {
                    self.trip("half-open probe was quarantined".to_string());
                } else {
                    self.probe_successes += 1;
                    if self.probe_successes >= self.config.success_probes {
                        let reason =
                            format!("{} consecutive healthy probes", self.config.success_probes);
                        self.transition(BreakerState::Closed, reason);
                        self.outcomes.clear();
                        self.probe_successes = 0;
                    }
                }
            }
            // Open-state requests are all ForceCameraOnly; a stray verdict
            // carries no depth-branch information, so ignore it.
            BreakerState::Open => {}
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Requests routed so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Quarantine rate over the current window (0.0 while empty).
    pub fn quarantine_rate(&self) -> f32 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let bad = self.outcomes.iter().filter(|&&q| q).count();
        bad as f32 / self.outcomes.len() as f32
    }

    /// Every state change so far, oldest first.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    fn trip(&mut self, reason: String) {
        self.transition(BreakerState::Open, reason);
        self.outcomes.clear();
        self.open_served = 0;
        self.probe_successes = 0;
        self.trips += 1;
    }

    fn transition(&mut self, to: BreakerState, reason: String) {
        self.transitions.push(BreakerTransition {
            from: self.state,
            to,
            at_request: self.admitted,
            reason,
        });
        self.state = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thresholds() -> HealthThresholds {
        HealthThresholds::default()
    }

    #[test]
    fn healthy_depth_passes() {
        let t = Tensor::from_vec(vec![0.1, 0.4, 0.7, 0.3], &[4]).unwrap();
        let h = InputHealth::assess(&t);
        assert_eq!(h.non_finite_ratio, 0.0);
        assert!((h.energy - 0.375).abs() < 1e-6);
        assert_eq!(h.saturation_ratio, 0.0);
        assert_eq!(h.diagnose(&thresholds()), None);
    }

    #[test]
    fn zero_energy_is_flagged() {
        let h = InputHealth::assess(&Tensor::zeros(&[1, 4, 4]));
        assert_eq!(h.diagnose(&thresholds()), Some(HealthIssue::ZeroEnergy));
    }

    #[test]
    fn non_finite_is_flagged_first() {
        let t = Tensor::from_vec(vec![f32::NAN, 0.5, f32::INFINITY, 0.2], &[4]).unwrap();
        let h = InputHealth::assess(&t);
        assert_eq!(h.non_finite_ratio, 0.5);
        assert_eq!(h.diagnose(&thresholds()), Some(HealthIssue::NonFinite));
    }

    #[test]
    fn saturation_is_flagged() {
        let t = Tensor::from_vec(vec![1.0, 1.0, 1.0, 0.4], &[4]).unwrap();
        let h = InputHealth::assess(&t);
        assert_eq!(h.saturation_ratio, 0.75);
        assert_eq!(h.diagnose(&thresholds()), Some(HealthIssue::Saturated));
    }

    #[test]
    fn policies_decide_quarantine() {
        let dead = Tensor::zeros(&[2, 2]);
        let fine = Tensor::full(&[2, 2], 0.4);
        let th = thresholds();
        assert_eq!(DegradationPolicy::Trust.quarantine_depth(&dead, &th), None);
        assert_eq!(
            DegradationPolicy::CameraFallback.quarantine_depth(&dead, &th),
            Some(HealthIssue::ZeroEnergy)
        );
        assert_eq!(
            DegradationPolicy::CameraFallback.quarantine_depth(&fine, &th),
            None
        );
        assert_eq!(
            DegradationPolicy::CameraOnly.quarantine_depth(&fine, &th),
            Some(HealthIssue::ForcedCameraOnly)
        );
    }

    #[test]
    fn issue_and_policy_render_for_logs() {
        assert_eq!(
            HealthIssue::ZeroEnergy.to_string(),
            "zero energy (dead sensor)"
        );
        assert_eq!(DegradationPolicy::CameraFallback.to_string(), "fallback");
        assert_eq!(
            HealthIssue::BreakerOpen.to_string(),
            "depth circuit breaker open"
        );
    }

    fn breaker_config() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_samples: 4,
            trip_threshold: 0.5,
            cooldown: 3,
            success_probes: 2,
            probe_chance: 1.0,
            seed: 42,
        }
    }

    #[test]
    fn breaker_full_cycle_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new(breaker_config());
        assert_eq!(b.state(), BreakerState::Closed);
        // Four quarantined requests: rate 1.0 over min_samples trips it.
        for _ in 0..4 {
            assert_eq!(b.admit(), DepthRoute::Fuse);
            b.observe(true);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // Cooldown: three requests forced camera-only.
        for _ in 0..3 {
            assert_eq!(b.admit(), DepthRoute::ForceCameraOnly);
        }
        // Cooldown elapsed: probe_chance 1.0 makes every request a probe.
        assert_eq!(b.admit(), DepthRoute::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.observe(false);
        assert_eq!(b.admit(), DepthRoute::Probe);
        b.observe(false);
        assert_eq!(b.state(), BreakerState::Closed, "two healthy probes close");
        let states: Vec<(BreakerState, BreakerState)> =
            b.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            states,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn breaker_reopens_on_failed_probe() {
        let mut b = CircuitBreaker::new(breaker_config());
        for _ in 0..4 {
            b.admit();
            b.observe(true);
        }
        for _ in 0..3 {
            b.admit();
        }
        assert_eq!(b.admit(), DepthRoute::Probe);
        b.observe(true); // the sensor is still broken
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn breaker_needs_min_samples_and_rate_to_trip() {
        // Three quarantines: below min_samples, must not trip.
        let mut b = CircuitBreaker::new(breaker_config());
        for _ in 0..3 {
            b.admit();
            b.observe(true);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.transitions().is_empty());
        // Alternating traffic sits exactly at the 0.5 threshold after
        // every even observation and below it after every odd one: "rate
        // strictly above" must never trip.
        let mut b = CircuitBreaker::new(breaker_config());
        for _ in 0..4 {
            b.admit();
            b.observe(false);
            b.admit();
            b.observe(true);
        }
        assert_eq!(b.quarantine_rate(), 0.5);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.transitions().is_empty());
    }

    #[test]
    fn breaker_transition_log_is_deterministic() {
        let drive = || {
            let mut b = CircuitBreaker::new(BreakerConfig {
                probe_chance: 0.5,
                ..breaker_config()
            });
            for i in 0..200u64 {
                match b.admit() {
                    DepthRoute::Fuse | DepthRoute::Probe => b.observe(i % 3 != 2),
                    DepthRoute::ForceCameraOnly => {}
                }
            }
            b.transitions().to_vec()
        };
        let first = drive();
        assert_eq!(first, drive(), "same seed + sequence, same log");
        assert!(!first.is_empty(), "this sequence must trip the breaker");
    }

    #[test]
    fn breaker_config_validation() {
        assert!(BreakerConfig::default().validate().is_ok());
        assert!(BreakerConfig {
            window: 0,
            ..BreakerConfig::default()
        }
        .validate()
        .is_err());
        assert!(BreakerConfig {
            min_samples: 33,
            ..BreakerConfig::default()
        }
        .validate()
        .is_err());
        assert!(BreakerConfig {
            trip_threshold: 1.5,
            ..BreakerConfig::default()
        }
        .validate()
        .is_err());
        assert!(BreakerConfig {
            cooldown: 0,
            ..BreakerConfig::default()
        }
        .validate()
        .is_err());
        assert!(BreakerConfig {
            probe_chance: 0.0,
            ..BreakerConfig::default()
        }
        .validate()
        .is_err());
    }
}
