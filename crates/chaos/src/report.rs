//! What a run produces: the one leg [`Ledger`], per-scene
//! [`Checkpoint`]s, the [`Report`] with its fingerprint and rendering,
//! and the one [`ChaosError`].

use std::collections::BTreeMap;
use std::fmt;

use sf_core::BreakerTransition;
use sf_scene::Weather;
use sf_serve::{FleetStats, ServeError};

use crate::Scene;

/// The routing-leg ledger with its single conservation law. Built from a
/// [`FleetStats`]; the engine keeps a second one counted from outside
/// and proves the two equal at every scene boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Legs that entered `submit` (admitted, shed or re-routed).
    pub submitted: u64,
    /// Legs that delivered a prediction.
    pub completed: u64,
    /// Legs shed with `QueueFull`.
    pub rejected: u64,
    /// Legs that terminated with `DeadlineExceeded`.
    pub expired: u64,
    /// Legs that terminally failed (`BatchPanicked`).
    pub failed: u64,
    /// Legs aborted by a replica kill and resubmitted elsewhere.
    pub redirected: u64,
}

impl Ledger {
    /// The conservation law: every leg reached exactly one terminal
    /// bucket. Holds whenever the fleet is quiescent.
    pub fn is_conserved(&self) -> bool {
        self.submitted
            == self.completed + self.rejected + self.expired + self.failed + self.redirected
    }
}

impl From<&FleetStats> for Ledger {
    fn from(stats: &FleetStats) -> Ledger {
        Ledger {
            submitted: stats.submitted,
            completed: stats.completed,
            rejected: stats.rejected,
            expired: stats.expired,
            failed: stats.failed,
            redirected: stats.redirected,
        }
    }
}

impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "submitted {} = completed {} + rejected {} + expired {} + failed {} + redirected {}",
            self.submitted,
            self.completed,
            self.rejected,
            self.expired,
            self.failed,
            self.redirected
        )
    }
}

/// The state recorded at one scene boundary, after the ledger reconciled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// The scene that just ended.
    pub scene: Scene,
    /// Cumulative fleet ledger at the boundary.
    pub ledger: Ledger,
    /// High-water mark of the scratch arenas the run owns, bytes: every
    /// replica executor's published peak plus the driver thread's.
    pub scratch_peak_bytes: usize,
    /// Weather in effect at the boundary (clear under uniform traffic).
    pub weather: Weather,
}

/// Outcome of a run that satisfied every invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Final fleet statistics (conserved and cross-checked).
    pub stats: FleetStats,
    /// Replica kills the schedule performed.
    pub kills: u64,
    /// Replica revivals the schedule performed.
    pub revives: u64,
    /// One entry per scene, in order.
    pub checkpoints: Vec<Checkpoint>,
    /// Index of the first checkpoint whose scratch peak equals the final
    /// peak (the plateau point).
    pub plateau: usize,
    /// Breaker trips per source id, summed over the live replicas.
    pub source_trips: BTreeMap<u64, u64>,
}

impl Report {
    /// The final fleet ledger.
    pub fn ledger(&self) -> Ledger {
        Ledger::from(&self.stats)
    }

    /// Served requests whose depth slot was quarantined (per-input policy
    /// or open breaker), fleet-wide.
    pub fn quarantined(&self) -> u64 {
        self.stats.replicas.iter().map(|r| r.quarantined).sum()
    }

    /// Every live replica's breaker transitions, replica by replica.
    pub fn transitions(&self) -> impl Iterator<Item = &BreakerTransition> {
        self.stats
            .replicas
            .iter()
            .flat_map(|r| &r.breaker_transitions)
    }

    /// A canonical string over everything that must replay bit-identically
    /// across runs of one scenario: the ledger at every checkpoint, the
    /// deploy ledger and shadow diff bound, kills and revives, per-source
    /// breaker trips, and each replica's terminal counters, quarantine
    /// count and breaker transition log. Deliberately excludes wall-clock
    /// and thread-scheduling dependent values (latency, batch counts, swap
    /// claim timing, scratch bytes).
    pub fn fingerprint(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "legs[{}] no_replica={} model=v{} deploys={} promotions={} aborts={} \
             shadow[{} samples, max_delta {:e}] kills={} revives={} quarantined={}",
            self.ledger(),
            s.no_replica,
            s.model_version,
            s.deploys,
            s.promotions,
            s.deploy_aborts,
            s.shadow_samples,
            s.shadow_max_delta,
            self.kills,
            self.revives,
            self.quarantined(),
        );
        for c in &self.checkpoints {
            out.push_str(&format!(" @{}[{}]", c.scene, c.ledger));
        }
        for (source, trips) in &self.source_trips {
            out.push_str(&format!(" src{source}:trips={trips}"));
        }
        for r in &s.replicas {
            out.push_str(&format!(
                " | r{}:{} inc={} sub={} comp={} rej={} exp={} fail={} quar={} trips={}",
                r.index,
                if r.alive { "alive" } else { "dead" },
                r.incarnations,
                r.submitted,
                r.completed,
                r.rejected,
                r.expired,
                r.failed,
                r.quarantined,
                r.breaker_trips,
            ));
            for t in &r.breaker_transitions {
                out.push_str(&format!(
                    " {}->{}@{}:{}",
                    t.from, t.to, t.at_request, t.reason
                ));
            }
        }
        out
    }

    /// Multi-line human rendering for the CLI and the experiment sweeps.
    pub fn render(&self) -> String {
        let s = &self.stats;
        let mut out = format!("  legs: {}\n", self.ledger());
        out.push_str(&format!(
            "  quarantined {}  kills {}  revives {}  model v{}  deploys {}  promotions {}  \
             aborts {}  shadow {} samples (max delta {:e})\n",
            self.quarantined(),
            self.kills,
            self.revives,
            s.model_version,
            s.deploys,
            s.promotions,
            s.deploy_aborts,
            s.shadow_samples,
            s.shadow_max_delta,
        ));
        out.push_str(&format!(
            "  scratch peak {} KiB, plateaued at checkpoint {} of {}\n",
            self.checkpoints.last().map_or(0, |c| c.scratch_peak_bytes) / 1024,
            self.plateau + 1,
            self.checkpoints.len(),
        ));
        for (source, trips) in self.source_trips.iter().filter(|(_, &t)| t > 0) {
            out.push_str(&format!("  source {source}: {trips} breaker trip(s)\n"));
        }
        for r in &s.replicas {
            out.push_str(&format!(
                "  replica {}: {} inc {}  submitted {}  completed {}  rejected {}  expired {}  \
                 failed {}  batches {}  breaker {}\n",
                r.index,
                if r.alive { "alive" } else { "dead " },
                r.incarnations,
                r.submitted,
                r.completed,
                r.rejected,
                r.expired,
                r.failed,
                r.batches,
                r.breaker_state.map_or_else(
                    || "disabled".to_string(),
                    |state| format!("{state} (trips {})", r.breaker_trips)
                ),
            ));
            for t in &r.breaker_transitions {
                out.push_str(&format!("    {t}\n"));
            }
        }
        for c in &self.checkpoints {
            out.push_str(&format!(
                "  after {:<14}  weather {:<9}  completed {:>6}  scratch peak {:>4} KiB\n",
                c.scene.to_string(),
                c.weather.to_string(),
                c.ledger.completed,
                c.scratch_peak_bytes / 1024,
            ));
        }
        out
    }
}

/// A broken invariant (or an unrunnable scenario). Any variant but
/// [`Config`](ChaosError::Config) is a bug in the serving stack, not in
/// the schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// The scenario itself is invalid.
    Config {
        /// Human-readable reason.
        reason: String,
    },
    /// A request terminated in a way the schedule cannot explain — lost
    /// (`ServerDropped`), aborted past the redirect budget, or refused
    /// while the fleet should be live.
    UnexpectedOutcome {
        /// Which scene observed it.
        scene: String,
        /// The offending error.
        error: ServeError,
    },
    /// The fleet's ledger disagrees with the tally counted from outside —
    /// something was lost or double-counted internally.
    TallyMismatch {
        /// The boundary (scene, or `shutdown`).
        scene: String,
        /// What the engine observed.
        outside: Ledger,
        /// What the fleet reported.
        fleet: Ledger,
    },
    /// The fleet's ledger breaks the conservation law, or does not
    /// reconcile with the per-replica server counters.
    CrossCheck {
        /// The boundary (scene, or `shutdown`).
        scene: String,
        /// The failing identity, rendered.
        detail: String,
    },
    /// A scene's ledger delta broke its contract: a flood shed the wrong
    /// count, stale work executed, a panicked batch served, a kill or
    /// deploy cost a leg, a bit-identical shadow diffed or did not
    /// promote.
    SceneContract {
        /// Which scene.
        scene: String,
        /// Human-readable description.
        detail: String,
    },
    /// The run's scratch arenas kept growing instead of plateauing — a
    /// leak the counters cannot see.
    MemoryGrowth {
        /// Human-readable description.
        detail: String,
    },
    /// The breaker record does not match the injected fault schedule.
    BreakerSchedule {
        /// Human-readable description.
        detail: String,
    },
    /// The worker pool stopped serving work after the run.
    PoolStalled,
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Config { reason } => write!(f, "invalid scenario: {reason}"),
            ChaosError::UnexpectedOutcome { scene, error } => {
                write!(f, "scene {scene}: unexpected outcome: {error}")
            }
            ChaosError::TallyMismatch {
                scene,
                outside,
                fleet,
            } => write!(
                f,
                "after {scene}: fleet ledger disagrees with the outside tally: \
                 outside [{outside}] vs fleet [{fleet}]"
            ),
            ChaosError::CrossCheck { scene, detail } => {
                write!(f, "after {scene}: ledger cross-check failed: {detail}")
            }
            ChaosError::SceneContract { scene, detail } => {
                write!(f, "scene {scene} broke its contract: {detail}")
            }
            ChaosError::MemoryGrowth { detail } => {
                write!(f, "scratch arenas did not plateau: {detail}")
            }
            ChaosError::BreakerSchedule { detail } => {
                write!(f, "breaker record does not match fault schedule: {detail}")
            }
            ChaosError::PoolStalled => {
                write!(f, "sf-runtime pool no longer serves work after the run")
            }
        }
    }
}

impl std::error::Error for ChaosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChaosError::UnexpectedOutcome { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_conservation_counts_redirects() {
        let mut ledger = Ledger {
            submitted: 7,
            completed: 3,
            rejected: 1,
            expired: 1,
            failed: 1,
            redirected: 1,
        };
        assert!(ledger.is_conserved());
        assert!(ledger.to_string().contains("+ redirected 1"));
        ledger.completed = 2; // lose one
        assert!(!ledger.is_conserved());
    }

    #[test]
    fn chaos_error_display_and_source() {
        let err = ChaosError::UnexpectedOutcome {
            scene: "storm:3".to_string(),
            error: ServeError::ShuttingDown,
        };
        assert!(err.to_string().contains("storm:3"));
        assert!(std::error::Error::source(&err).is_some());
        let contract = ChaosError::SceneContract {
            scene: "deploystorm:2".to_string(),
            detail: "2 legs failed".to_string(),
        };
        assert!(contract.to_string().contains("broke its contract"));
        assert!(std::error::Error::source(&contract).is_none());
    }
}
