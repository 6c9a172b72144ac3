//! One deterministic chaos engine for the serving stack.
//!
//! Chaos testing usually trades reproducibility for realism: random fault
//! injection finds bugs but cannot replay them. This crate keeps both. A
//! [`Scenario`] is a *seeded fault schedule* — a fleet shape, a replica
//! shape, a [`Traffic`] source and an ordered list of [`Scene`]s — driven
//! closed-loop against a real [`Fleet`](sf_serve::Fleet), so the order in
//! which the stack observes events is a pure function of the scenario.
//! A single server is a fleet of one replica; a long-haul soak is the same
//! engine on [`Traffic::Rig`] whose scene boundaries are its windows.
//!
//! [`run`] asserts, with a typed [`ChaosError`] when one breaks:
//!
//! 1. **One ledger, at every scene boundary** — the tally counted from
//!    outside equals the fleet's leg ledger, `submitted == completed +
//!    rejected + expired + failed + redirected` ([`Ledger`]), and the
//!    router's counters reconcile with the per-replica server counters
//!    ([`FleetStats::cross_check`](sf_serve::FleetStats::cross_check)).
//! 2. **Scene contracts** — a flood sheds exactly its excess; zero-deadline
//!    requests expire without executing a batch; injected panics fail
//!    typed and never serve; kill-storm legs redirect, never fail; deploy
//!    scenes lose no leg; a bit-identical shadow candidate diffs exactly
//!    0.0 and promotes.
//! 3. **Bounded memory** — with four or more checkpoints, the scratch
//!    arenas the run owns (each replica executor's plus the driver
//!    thread's) reach their final high-water mark in the first quarter.
//! 4. **Breaker schedule** — only sources with a scheduled fault trip;
//!    every [`FaultBurst`] source trips and has re-closed by the end.
//! 5. **Pool survives** — injected batch panics never poison the
//!    `sf-runtime` worker pool; it still serves work after shutdown.
//!
//! Two runs of one scenario produce equal [`Report::fingerprint`]s;
//! [`run_twice`] checks exactly that.
//!
//! # Examples
//!
//! ```
//! use sf_chaos::{parse_scenes, Scenario};
//!
//! let scenario = Scenario::chaos(2, true)
//!     .with_seed(7)
//!     .with_scenes(parse_scenes("calm:3,stale:2,storm:2,revive:1").unwrap());
//! let report = sf_chaos::run(&scenario).unwrap();
//! assert_eq!(report.ledger().expired, 2);
//! assert_eq!((report.kills, report.revives), (1, 1));
//! ```
//!
//! A soak is the same call on rig traffic:
//!
//! ```
//! use sf_chaos::Scenario;
//!
//! let report = sf_chaos::run(&Scenario::soak(true).with_seed(11)).unwrap();
//! assert!(report.ledger().is_conserved());
//! assert!(report.source_trips[&1] >= 1);
//! ```

mod engine;
mod report;

pub use engine::{frame, run, run_twice};
pub use report::{ChaosError, Checkpoint, Ledger, Report};

use std::fmt;
use std::time::Duration;

use sf_core::{BreakerConfig, DegradationPolicy};
use sf_scene::{Rig, Weather};
use sf_serve::{Backpressure, DispatchPolicy, ServeConfig, ServeError};

/// One phase of a schedule. Scenes run in order; every scene ends with
/// the fleet quiescent and a [`Checkpoint`]. A *frame* is one draw from
/// the scenario's [`Traffic`]: one request under uniform traffic, one
/// request per rig mount under rig traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scene {
    /// Healthy traffic: submit-and-wait this many frames.
    Calm(usize),
    /// Source 0's depth sensor goes dark (all-zero depth) for this many
    /// frames: its slot quarantines and, with enough of them, its breaker
    /// trips — without dragging other sources down.
    Corrupt(usize),
    /// Already-dead work: frames submitted with a zero deadline, which
    /// must expire at dequeue without ever executing a batch.
    Stale(usize),
    /// Worker panics: every batch executed during the scene panics inside
    /// the executor's guard; its requests must fail typed
    /// (`BatchPanicked`), never serve, and the fleet must keep serving.
    Panic(usize),
    /// Batch slowdowns: every batch sleeps before its forward pass. With a
    /// generous deadline the frames still complete; with a tight one they
    /// expire — either way they terminate.
    Slow {
        /// Frames to serve slowly.
        frames: usize,
        /// Injected per-batch delay, milliseconds.
        sleep_ms: u64,
    },
    /// Queue flood: park every executor, fill the routed queue(s) to
    /// capacity, then submit this many more — exactly that many are shed
    /// with `QueueFull`.
    Flood(usize),
    /// Replica kill storm: park every executor, queue `frames` frames,
    /// kill the lowest alive replica, optionally hot-deploy a retrained
    /// model mid-storm, then release. The victim's queued legs must be
    /// redirected — never terminally failed.
    Storm {
        /// Frames queued behind the parked executors.
        frames: usize,
        /// Hot-swap a retrained model while the storm is in flight.
        deploy: bool,
    },
    /// Revive every dead replica from the live model, then serve this
    /// many frames (under consistent hashing its keys come home).
    Revive(usize),
    /// Shadow-deploy a candidate rebuilt from the live model's seed while
    /// serving this many frames: every mirrored diff must be bitwise zero
    /// and the candidate must promote.
    Shadow(usize),
}

impl Scene {
    /// The scene's count: frames it draws, or a flood's shed excess.
    pub fn count(&self) -> usize {
        match *self {
            Scene::Calm(n)
            | Scene::Corrupt(n)
            | Scene::Stale(n)
            | Scene::Panic(n)
            | Scene::Flood(n)
            | Scene::Revive(n)
            | Scene::Shadow(n) => n,
            Scene::Slow { frames, .. } | Scene::Storm { frames, .. } => frames,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Scene::Calm(_) => "calm",
            Scene::Corrupt(_) => "corrupt",
            Scene::Stale(_) => "stale",
            Scene::Panic(_) => "panic",
            Scene::Slow { .. } => "slow",
            Scene::Flood(_) => "flood",
            Scene::Storm { deploy: false, .. } => "storm",
            Scene::Storm { deploy: true, .. } => "deploystorm",
            Scene::Revive(_) => "revive",
            Scene::Shadow(_) => "shadow",
        }
    }
}

impl fmt::Display for Scene {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind(), self.count())
    }
}

/// Parses a comma-separated scene list, e.g.
/// `calm:6,corrupt:10,flood:4,storm:3,revive:2,shadow:4` — the one
/// grammar every entry point shares (and the inverse of `Scene`'s
/// `Display`). Kinds: `calm`, `corrupt` (dead depth on source 0), `stale`
/// (zero deadline), `panic`, `slow` (5 ms per batch), `flood` (queue
/// flood shedding N), `storm` (kill a replica under N queued frames),
/// `deploystorm` (storm plus a mid-storm hot deploy), `revive`, `shadow`.
///
/// # Errors
///
/// Returns a human-readable message naming the offending element.
pub fn parse_scenes(spec: &str) -> Result<Vec<Scene>, String> {
    spec.split(',')
        .map(|part| {
            let part = part.trim();
            let (kind, count) = part
                .split_once(':')
                .ok_or_else(|| format!("scene '{part}' is not of the form kind:count"))?;
            let n: usize = count
                .parse()
                .map_err(|_| format!("scene '{part}': '{count}' is not a count"))?;
            if n == 0 {
                return Err(format!("scene '{part}': count must be >= 1"));
            }
            Ok(match kind {
                "calm" => Scene::Calm(n),
                "corrupt" => Scene::Corrupt(n),
                "stale" => Scene::Stale(n),
                "panic" => Scene::Panic(n),
                "slow" => Scene::Slow {
                    frames: n,
                    sleep_ms: 5,
                },
                "flood" => Scene::Flood(n),
                "storm" | "deploystorm" => Scene::Storm {
                    frames: n,
                    deploy: kind == "deploystorm",
                },
                "revive" => Scene::Revive(n),
                "shadow" => Scene::Shadow(n),
                other => {
                    return Err(format!(
                        "unknown scene kind '{other}' (expected calm|corrupt|stale|panic|slow|\
                         flood|storm|deploystorm|revive|shadow)"
                    ))
                }
            })
        })
        .collect()
}

/// A weather change on the rig stream's scene clock: from `frame` on, the
/// stream renders under `weather` (until a later front takes over).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherFront {
    /// First frame rendered under this front's weather.
    pub frame: u64,
    /// The weather the front brings.
    pub weather: Weather,
}

/// A per-source sensor outage on the rig stream: for `frames` frames
/// starting at `frame`, the mount tagged `source` submits all-zero depth
/// (a dead sensor), so its slot breaker must trip — and recover once the
/// burst passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBurst {
    /// The [`SourceId`](sf_serve::SourceId) whose sensor dies.
    pub source: u64,
    /// First dead frame.
    pub frame: u64,
    /// Length of the outage in frames.
    pub frames: u64,
}

impl FaultBurst {
    fn active(&self, frame: u64) -> bool {
        frame >= self.frame && frame < self.frame + self.frames
    }
}

/// Where a scenario's frames come from.
#[derive(Debug, Clone, PartialEq)]
pub enum Traffic {
    /// Seeded uniform-noise frames ([`frame`]), one request each, tagged
    /// with eight rotating sources.
    Uniform,
    /// The rendered world: one procedural road scene with a seeded
    /// occluder convoy, observed through a multi-LiDAR rig. Each frame
    /// fans out one request per mount, tagged with the mount's source, and
    /// the stream recycles its frame buffers through the scratch arena —
    /// which is what makes invariant 3 a real bounded-memory probe.
    Rig {
        /// The rig; each mount is its own source stream at the fleet.
        rig: Rig,
        /// Weather schedule, sorted by frame; clear before the first.
        fronts: Vec<WeatherFront>,
        /// Per-source dead-sensor bursts.
        bursts: Vec<FaultBurst>,
    },
}

impl Traffic {
    /// Requests one frame fans out into.
    pub(crate) fn legs_per_frame(&self) -> usize {
        match self {
            Traffic::Uniform => 1,
            Traffic::Rig { rig, .. } => rig.len(),
        }
    }

    /// The weather in effect at scene-clock `frame`: the latest front at
    /// or before it; clear before the first front and under uniform
    /// traffic.
    pub(crate) fn weather_at(&self, frame: u64) -> Weather {
        match self {
            Traffic::Uniform => Weather::clear(),
            Traffic::Rig { fronts, .. } => fronts
                .iter()
                .filter(|f| f.frame <= frame)
                .max_by_key(|f| f.frame)
                .map_or(Weather::clear(), |f| f.weather),
        }
    }
}

/// A seeded scenario: the fleet shape, the replica shape, the traffic
/// source and the fault schedule — everything [`run`] needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Master seed: frames, the rendered world, routing scores and the
    /// breakers' probe streams all derive from it.
    pub seed: u64,
    /// Replica count (≥ 1; a single server is a fleet of one).
    pub replicas: usize,
    /// Routing policy under test.
    pub dispatch: DispatchPolicy,
    /// Per-replica served batch-size bound.
    pub max_batch: usize,
    /// Per-replica bounded queue capacity. Floods fill it exactly; storms
    /// and one frame's fan-out must fit inside it.
    pub queue_capacity: usize,
    /// Default request deadline ([`Scene::Stale`] overrides with zero).
    /// Generous by default so live requests never expire
    /// nondeterministically; the chaos sweep tightens it on purpose.
    pub deadline: Option<Duration>,
    /// Per-source circuit breaker bank on every replica; `None` disables.
    pub breaker: Option<BreakerConfig>,
    /// Where frames come from.
    pub traffic: Traffic,
    /// Ordered fault schedule.
    pub scenes: Vec<Scene>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::chaos(1, false)
    }
}

impl Scenario {
    /// The request-level chaos recipe on uniform traffic: every fault kind
    /// once, against `replicas` replicas (kill storms are left out of a
    /// fleet of one). `smoke` shrinks the counts to a CI-sized schedule
    /// that still touches every kind.
    pub fn chaos(replicas: usize, smoke: bool) -> Scenario {
        let spec = if smoke {
            "calm:2,corrupt:2,slow:2,panic:2,stale:2,flood:2,deploystorm:2,revive:1,shadow:2,calm:1"
        } else {
            "calm:6,corrupt:10,slow:4,panic:3,stale:4,flood:4,storm:4,revive:3,deploystorm:4,\
             shadow:5,calm:6"
        };
        let mut scenes = parse_scenes(spec).expect("recipe spec parses");
        scenes.retain(|s| replicas > 1 || !matches!(s, Scene::Storm { .. }));
        Scenario {
            seed: 0xC4A05,
            replicas,
            dispatch: DispatchPolicy::ConsistentHash,
            max_batch: 4,
            queue_capacity: 4,
            deadline: Some(Duration::from_secs(10)),
            // Small window so a handful of dead-depth frames completes a
            // trip -> cooldown -> probe -> close cycle inside one schedule.
            breaker: Some(BreakerConfig {
                window: 4,
                min_samples: 4,
                trip_threshold: 0.5,
                cooldown: 4,
                success_probes: 2,
                probe_chance: 1.0,
                seed: 23,
            }),
            traffic: Traffic::Uniform,
            scenes,
        }
    }

    /// The long-haul recipe on rig traffic against three replicas: 2000
    /// frames in 200-frame windows, a 3-mount rig, three weather fronts
    /// and two 12-frame fault bursts on the left-pod source. `smoke` is
    /// the same recipe at CI size (240 frames, 40-frame windows, a
    /// sparser ray budget); it still checks every invariant.
    pub fn soak(smoke: bool) -> Scenario {
        // The full ray budget is wasted on a 48x16 serving frame; trimming
        // it keeps the long haul minutes-scale without changing any path.
        let (frames, window, rings, azimuth) = if smoke {
            (240, 40, 12, 48)
        } else {
            (2000, 200, 24, 72)
        };
        let front = |frame, weather| WeatherFront { frame, weather };
        // Early first burst: the arena must already be at its final size
        // before the plateau checkpoint, and each breaker trip must
        // recover long before shutdown.
        let burst = |frame| FaultBurst {
            source: 1,
            frame,
            frames: 12,
        };
        Scenario {
            seed: 0x50A4_0001 ^ 0x2022,
            queue_capacity: 16,
            traffic: Traffic::Rig {
                rig: Rig::triple().with_resolution(rings, azimuth),
                fronts: vec![
                    front(frames / 4, Weather::rain(0.5)),
                    front(frames / 2, Weather::fog(0.8)),
                    front(3 * frames / 4, Weather::snow(0.7)),
                ],
                bursts: vec![burst(frames / 10), burst(3 * frames / 5)],
            },
            scenes: windows(frames, window),
            ..Scenario::chaos(3, smoke)
        }
    }

    /// Returns the scenario with a different seed (chainable).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the scenario with a different schedule (chainable).
    pub fn with_scenes(mut self, scenes: Vec<Scene>) -> Self {
        self.scenes = scenes;
        self
    }

    /// Returns the scenario with a different dispatch policy (chainable).
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Returns the scenario with a different default deadline (chainable).
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Returns the scenario with a different breaker (chainable; `None`
    /// disables the breaker bank).
    pub fn with_breaker(mut self, breaker: Option<BreakerConfig>) -> Self {
        self.breaker = breaker;
        self
    }

    /// Returns the scenario with a calm-only schedule of `frames` frames
    /// cut into `window`-frame scenes, so every window boundary is a
    /// [`Checkpoint`] (chainable). Rig fronts and bursts are rescaled with
    /// the stream length, keeping their relative positions.
    pub fn with_windows(mut self, frames: u64, window: u64) -> Self {
        let ratio = frames as f64 / self.total_frames().max(1) as f64;
        let scale = |frame: u64| (frame as f64 * ratio) as u64;
        if let Traffic::Rig { fronts, bursts, .. } = &mut self.traffic {
            fronts.iter_mut().for_each(|f| f.frame = scale(f.frame));
            bursts.iter_mut().for_each(|b| b.frame = scale(b.frame));
        }
        self.scenes = windows(frames, window);
        self
    }

    /// The replica shape as `sf-serve` takes it (validated by its
    /// builder); the engine adds its batch probe.
    pub(crate) fn serve_config(&self) -> Result<ServeConfig, ServeError> {
        let mut builder = ServeConfig::builder()
            .max_batch(self.max_batch)
            .queue_capacity(self.queue_capacity)
            .backpressure(Backpressure::Reject)
            .max_wait(Duration::ZERO)
            .policy(DegradationPolicy::CameraFallback);
        if let Some(deadline) = self.deadline {
            builder = builder.default_deadline(deadline);
        }
        if let Some(breaker) = self.breaker {
            builder = builder.breaker(breaker);
        }
        builder.build()
    }

    /// Frames the schedule draws from the traffic source — the length of
    /// the rig stream's scene clock.
    pub fn total_frames(&self) -> u64 {
        self.scenes
            .iter()
            .filter(|s| !matches!(s, Scene::Flood(_)))
            .map(|s| s.count() as u64)
            .sum()
    }

    /// Checks that the scenario is runnable, deterministic and its
    /// assertions decidable.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Config`] for: no replicas or scenes; a zero
    /// count; a replica shape `sf-serve` rejects (zero `max_batch`,
    /// `queue_capacity` or deadline, an invalid breaker); a queue that
    /// cannot hold one frame's fan-out; a kill storm
    /// that would take the last alive replica (so any kill scene on one
    /// replica), or whose queued frames could overflow a queue and shed
    /// by race; and, on rig traffic, an empty rig, unsorted fronts, or a
    /// burst that names no mount, has no breaker to trip, or ends too
    /// close to the end of the stream for the breaker to recover.
    pub fn validate(&self) -> Result<(), ChaosError> {
        let config = |reason: String| Err(ChaosError::Config { reason });
        if self.replicas == 0 || self.scenes.is_empty() {
            return config("a scenario needs at least one replica and one scene".into());
        }
        if let Err(error) = self.serve_config() {
            return config(error.to_string());
        }
        let legs = self.traffic.legs_per_frame();
        if legs == 0 || legs > self.queue_capacity {
            return config(format!(
                "queue_capacity {} cannot hold one frame's {legs} requests",
                self.queue_capacity
            ));
        }
        let mut alive = self.replicas;
        for scene in &self.scenes {
            match *scene {
                _ if scene.count() == 0 => {
                    return config(format!("scene {scene}: count must be >= 1"));
                }
                Scene::Storm { frames, .. } if frames * legs > self.queue_capacity => {
                    return config(format!(
                        "scene {scene} queues {} requests past queue_capacity {}: \
                         a storm that can shed is nondeterministic",
                        frames * legs,
                        self.queue_capacity
                    ));
                }
                Scene::Storm { .. } if alive < 2 => {
                    return config(format!(
                        "scene {scene} would kill the last of {} replica(s), \
                         leaving none to redirect to",
                        self.replicas
                    ));
                }
                Scene::Storm { .. } => alive -= 1,
                Scene::Revive(_) => alive = self.replicas,
                _ => {}
            }
        }
        let Traffic::Rig {
            rig,
            fronts,
            bursts,
        } = &self.traffic
        else {
            return Ok(());
        };
        if fronts.windows(2).any(|w| w[1].frame < w[0].frame) {
            return config("weather fronts must be sorted by frame".into());
        }
        for burst in bursts {
            let Some(breaker) = &self.breaker else {
                return config("a fault burst needs a breaker to trip".into());
            };
            if burst.frames == 0 || !rig.mounts().iter().any(|m| m.source == burst.source) {
                return config(format!(
                    "fault burst on source {} needs >= 1 frame and a rig mount with that source",
                    burst.source
                ));
            }
            // The breaker must have healthy frames left to recover in.
            if burst.frame + burst.frames + 8 * breaker.window as u64 > self.total_frames() {
                return config(format!(
                    "fault burst at frame {} runs too close to the end ({} frames): \
                     the tripped breaker has no room to recover",
                    burst.frame,
                    self.total_frames()
                ));
            }
        }
        Ok(())
    }
}

/// `frames` calm frames cut into `window`-frame scenes (the last one
/// shorter if `window` does not divide `frames`).
fn windows(frames: u64, window: u64) -> Vec<Scene> {
    let window = window.max(1);
    (0..frames.div_ceil(window))
        .map(|i| Scene::Calm(window.min(frames - i * window) as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_grammar_round_trips_and_rejects_garbage() {
        let spec = "calm:2,corrupt:3,stale:1,panic:2,slow:4,flood:1,storm:3,deploystorm:1,\
                    revive:2,shadow:4";
        let scenes = parse_scenes(spec).expect("parses");
        assert_eq!(scenes.len(), 10);
        assert_eq!(scenes[1], Scene::Corrupt(3));
        assert_eq!(
            scenes[4],
            Scene::Slow {
                frames: 4,
                sleep_ms: 5
            }
        );
        // Flood and kill storm are distinct kinds: no homonyms.
        assert_eq!(scenes[5], Scene::Flood(1));
        assert_eq!(
            scenes[6],
            Scene::Storm {
                frames: 3,
                deploy: false
            }
        );
        assert_eq!(
            scenes[7],
            Scene::Storm {
                frames: 1,
                deploy: true
            }
        );
        let shown: Vec<String> = scenes.iter().map(Scene::to_string).collect();
        assert_eq!(shown.join(","), spec.replace(' ', ""));
        assert_eq!(parse_scenes(" calm:2 , flood:1 ").unwrap().len(), 2);
        for bad in ["calm", "calm:0", "calm:x", "riot:3"] {
            assert!(parse_scenes(bad).is_err(), "{bad}");
        }
    }

    /// Every rejection the three old `validate`s made, once, as rows.
    #[test]
    fn validation_table() {
        let chaos = |replicas, spec: &str| {
            Scenario::chaos(replicas, false).with_scenes(parse_scenes(spec).unwrap())
        };
        let soak = || Scenario::soak(true);
        let with_bursts = |bursts: Vec<FaultBurst>| {
            let mut s = soak();
            if let Traffic::Rig { bursts: b, .. } = &mut s.traffic {
                *b = bursts;
            }
            s
        };
        let burst = |source, frame, frames| FaultBurst {
            source,
            frame,
            frames,
        };
        let rows: Vec<(&str, Scenario, bool)> = vec![
            ("chaos recipe x1", Scenario::chaos(1, false), true),
            ("chaos smoke x1", Scenario::chaos(1, true), true),
            ("chaos recipe x3", Scenario::chaos(3, false), true),
            ("chaos smoke x2", Scenario::chaos(2, true), true),
            ("soak recipe", Scenario::soak(false), true),
            ("soak smoke", soak(), true),
            ("no scenes", chaos(1, "calm:1").with_scenes(vec![]), false),
            (
                "zero count",
                chaos(1, "calm:1").with_scenes(vec![Scene::Calm(0)]),
                false,
            ),
            (
                "zero deadline",
                chaos(1, "calm:1").with_deadline(Some(Duration::ZERO)),
                false,
            ),
            (
                "zero batch",
                Scenario {
                    max_batch: 0,
                    ..chaos(1, "calm:1")
                },
                false,
            ),
            (
                "zero replicas",
                Scenario {
                    replicas: 0,
                    ..chaos(1, "calm:1")
                },
                false,
            ),
            // Killing the last replica is a schedule bug, not a fleet bug.
            ("kill on one replica", chaos(1, "storm:2"), false),
            (
                "deploy kill on one replica",
                chaos(1, "deploystorm:2"),
                false,
            ),
            // Two storms without a revive in between drain a 2-fleet...
            ("double storm", chaos(2, "storm:2,storm:2"), false),
            // ...a revive between them makes it legal again.
            (
                "storm revive storm",
                chaos(2, "storm:2,revive:1,storm:2"),
                true,
            ),
            // Queued frames past the capacity could shed by race.
            ("storm overflows queue", chaos(2, "storm:5"), false),
            (
                "flood on any fleet",
                chaos(3, "flood:9").with_dispatch(DispatchPolicy::LeastOutstanding),
                true,
            ),
            (
                "burst names no mount",
                with_bursts(vec![burst(9, 6, 4)]),
                false,
            ),
            (
                "burst too late to recover",
                with_bursts(vec![burst(1, 220, 10)]),
                false,
            ),
            ("burst without breaker", soak().with_breaker(None), false),
            (
                "queue below fan-out",
                Scenario {
                    queue_capacity: 2,
                    ..soak()
                },
                false,
            ),
        ];
        for (name, scenario, ok) in rows {
            assert_eq!(
                scenario.validate().is_ok(),
                ok,
                "{name}: {:?}",
                scenario.validate()
            );
        }
    }

    #[test]
    fn windows_cover_the_stream_and_fronts_resolve_by_frame() {
        let soak = Scenario::soak(false);
        assert_eq!(soak.scenes, vec![Scene::Calm(200); 10]);
        assert_eq!(soak.total_frames(), 2000);
        assert!(soak.traffic.weather_at(0).is_clear());
        assert_eq!(soak.traffic.weather_at(500), Weather::rain(0.5));
        assert_eq!(soak.traffic.weather_at(1999), Weather::snow(0.7));
        // A shorter stream keeps the schedules' relative positions.
        let ragged = Scenario::soak(true).with_windows(100, 30);
        assert_eq!(ragged.scenes.last(), Some(&Scene::Calm(10)));
        assert_eq!(ragged.total_frames(), 100);
        assert_eq!(ragged.traffic.weather_at(24), Weather::clear());
        assert_eq!(ragged.traffic.weather_at(25), Weather::rain(0.5));
        let Traffic::Rig { bursts, .. } = &ragged.traffic else {
            panic!("soak runs on rig traffic");
        };
        assert_eq!(bursts.iter().map(|b| b.frame).collect::<Vec<_>>(), [10, 60]);
        assert!(Traffic::Uniform.weather_at(7).is_clear());
    }
}
