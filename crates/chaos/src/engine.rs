//! The engine: one [`run`] that drives any [`Scenario`] scene by scene
//! against a live [`Fleet`], reconciling the ledger at every boundary.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use sf_core::{BreakerState, FusionNet, FusionScheme, NetworkConfig};
use sf_dataset::RigFrame;
use sf_scene::{Lighting, Occluder, PinholeCamera, RoadCategory, SceneBuilder};
use sf_serve::{
    BatchProbe, DeployOptions, DispatchPolicy, Fleet, FleetCompletion, FleetConfig, FleetStats,
    Request, ServeError, ShadowConfig, SourceId,
};
use sf_tensor::{scratch, Tensor, TensorRng};

use crate::{ChaosError, Checkpoint, Ledger, Report, Scenario, Scene, Traffic};

/// The source whose depth sensor dies in [`Scene::Corrupt`]. Part of the
/// uniform rotation (and the rig's roof mount), so later healthy traffic
/// probes its breaker closed again.
const FAULTY_SOURCE: SourceId = SourceId(0);
/// Uniform traffic rotates over this many tagged sources.
const UNIFORM_SOURCES: u64 = 8;
/// All of a queue flood's requests carry this source, so consistent
/// hashing routes them to one replica.
const FLOOD_SOURCE: SourceId = SourceId(999);
/// Holder requests (which park executors) draw their sources from here
/// up, away from every traffic range.
const HOLDER_SOURCE_BASE: u64 = 1_000;
/// Moving occluder vehicles in the rendered world.
const OCCLUDERS: usize = 3;
/// Depth densification iterations per rig mount image.
const FILL_ITERATIONS: usize = 2;

/// One seeded uniform-noise `(rgb, depth)` frame pair at `net_config`'s
/// resolution — the synthetic request payload shared by the engine, the
/// load generator and the serving sweep.
pub fn frame(rng: &mut TensorRng, net_config: &NetworkConfig) -> (Tensor, Tensor) {
    let (h, w) = (net_config.height, net_config.width);
    (
        rng.uniform(&[3, h, w], 0.0, 1.0),
        rng.uniform(&[net_config.depth_channels, h, w], 0.1, 1.0),
    )
}

/// What every batch executed right now suffers, set per scene.
#[derive(Debug, Clone, Copy, Default)]
enum Mode {
    #[default]
    Pass,
    Sleep(Duration),
    Panic,
}

#[derive(Default)]
struct ProbeState {
    mode: Mode,
    /// Batches that must still park (one per holder request).
    holds: usize,
    held: bool,
}

/// The executor-side instrument every replica shares through
/// [`ServeConfig::batch_probe`](sf_serve::ServeConfig::batch_probe): it injects the scene's [`Mode`] into
/// each batch, and parks the batches that carry holder requests until
/// [`Probe::release`].
#[derive(Default)]
struct Probe {
    state: Mutex<ProbeState>,
    released: Condvar,
}

impl Probe {
    fn lock(&self) -> MutexGuard<'_, ProbeState> {
        // The probe panics on purpose, but never while holding the lock.
        self.state.lock().expect("probe state poisoned")
    }

    fn set_mode(&self, mode: Mode) {
        self.lock().mode = mode;
    }

    /// The next batch to execute parks until [`Probe::release`].
    fn hold_next(&self) {
        let mut state = self.lock();
        state.holds += 1;
        state.held = true;
    }

    /// Back to pass-through: unparks every held batch, clears the mode.
    fn release(&self) {
        *self.lock() = ProbeState::default();
        self.released.notify_all();
    }

    fn batch_probe(self: &Arc<Self>) -> BatchProbe {
        let probe = Arc::clone(self);
        BatchProbe::new(move |_batch| {
            let mut state = probe.lock();
            match state.mode {
                Mode::Panic => {
                    drop(state);
                    panic!("chaos: injected batch panic");
                }
                Mode::Sleep(delay) => {
                    drop(state);
                    std::thread::sleep(delay);
                }
                Mode::Pass if state.holds > 0 => {
                    state.holds -= 1;
                    while state.held {
                        state = probe.released.wait(state).expect("probe state poisoned");
                    }
                }
                Mode::Pass => {}
            }
        })
    }
}

/// The rendered world behind [`Traffic::Rig`].
struct World {
    scene: sf_scene::Scene,
    camera: PinholeCamera,
    occluders: Vec<Occluder>,
}

/// The scenario's traffic source as a running stream.
struct Stream<'a> {
    scenario: &'a Scenario,
    rng: TensorRng,
    net_config: &'a NetworkConfig,
    world: Option<World>,
    /// Scene-clock frames drawn so far.
    clock: u64,
}

impl<'a> Stream<'a> {
    fn new(scenario: &'a Scenario, net_config: &'a NetworkConfig) -> Stream<'a> {
        let world = matches!(scenario.traffic, Traffic::Rig { .. }).then(|| {
            let scene = SceneBuilder::new(RoadCategory::UrbanMarked, scenario.seed).build();
            World {
                camera: PinholeCamera::kitti_like(net_config.width, net_config.height),
                occluders: Occluder::convoy(&scene, OCCLUDERS, scenario.seed),
                scene,
            }
        });
        Stream {
            scenario,
            rng: TensorRng::seed_from(scenario.seed),
            net_config,
            world,
            clock: 0,
        }
    }

    /// Draws the next frame: one request per leg. `index` is the frame's
    /// position in its scene (uniform traffic rotates sources on it);
    /// `corrupt` kills [`FAULTY_SOURCE`]'s depth sensor for this frame.
    fn next(&mut self, index: usize, corrupt: bool) -> Vec<Request> {
        let config = self.net_config;
        let dead = || Tensor::zeros(&[config.depth_channels, config.height, config.width]);
        let frame_index = self.clock;
        self.clock += 1;
        let traffic = &self.scenario.traffic;
        let (Traffic::Rig { rig, bursts, .. }, Some(world)) = (traffic, &self.world) else {
            let (rgb, depth) = frame(&mut self.rng, config);
            return vec![if corrupt {
                Request::new(rgb, dead()).with_source(FAULTY_SOURCE)
            } else {
                Request::new(rgb, depth).with_source(SourceId(index as u64 % UNIFORM_SOURCES))
            }];
        };
        let rendered = RigFrame::render(
            &world.scene.with_occluders(&world.occluders, frame_index),
            &world.camera,
            Lighting::day(),
            traffic.weather_at(frame_index),
            rig,
            self.scenario.seed,
            frame_index,
            FILL_ITERATIONS,
        );
        let legs = rendered
            .depths
            .into_iter()
            .map(|(source, depth)| {
                let burst = bursts
                    .iter()
                    .any(|b| b.source == source && b.active(frame_index));
                let depth = if burst || (corrupt && source == FAULTY_SOURCE.0) {
                    dead()
                } else {
                    depth
                };
                Request::new(rendered.rgb.clone(), depth).with_source(SourceId(source))
            })
            .collect();
        scratch::recycle(rendered.rgb.into_vec());
        legs
    }

    /// Returns a served mask's buffer to the driver thread's arena, where
    /// the rig renderer draws its next frame buffers from — the stream
    /// reuses them instead of allocating, so the arena's high-water mark
    /// grows while new buffer shapes appear, then plateaus. Uniform
    /// frames are not pool-backed, so their masks are simply dropped.
    fn recycle(&self, prob: Tensor) {
        if self.world.is_some() {
            scratch::recycle(prob.into_vec());
        }
    }
}

/// Everything one run threads through its scenes.
struct Engine<'a> {
    scenario: &'a Scenario,
    fleet: &'a Fleet,
    probe: &'a Probe,
    stream: Stream<'a>,
    /// Terminal states counted from the outside, per request.
    outside: Ledger,
    kills: u64,
    revives: u64,
    /// [`NetworkConfig::seed`] of the model currently live fleet-wide;
    /// shadow candidates rebuild from it so they are bit-identical.
    live_seed: u64,
    checkpoints: Vec<Checkpoint>,
}

fn config_error(what: &str, error: impl std::fmt::Display) -> ChaosError {
    ChaosError::Config {
        reason: format!("{what}: {error}"),
    }
}

/// Forward-pass batches executed fleet-wide.
fn batches(stats: &FleetStats) -> u64 {
    stats.replicas.iter().map(|r| r.batches).sum()
}

fn unexpected(scene: &Scene, error: ServeError) -> ChaosError {
    ChaosError::UnexpectedOutcome {
        scene: scene.to_string(),
        error,
    }
}

impl Engine<'_> {
    /// Submits one request, counting it (and a shed) in the outside tally.
    fn submit(
        &mut self,
        scene: &Scene,
        request: Request,
    ) -> Result<Option<FleetCompletion>, ChaosError> {
        self.outside.submitted += 1;
        match self.fleet.submit(request) {
            Ok(completion) => Ok(Some(completion)),
            Err(ServeError::QueueFull { .. }) => {
                self.outside.rejected += 1;
                Ok(None)
            }
            Err(error) => Err(unexpected(scene, error)),
        }
    }

    /// Waits one request and classifies its terminal state. Anything but
    /// served / shed / expired / panicked means the fleet lost it.
    fn settle(&mut self, scene: &Scene, completion: FleetCompletion) -> Result<(), ChaosError> {
        match completion.wait() {
            Ok(prediction) => {
                self.outside.completed += 1;
                self.stream.recycle(prediction.prob);
            }
            Err(ServeError::QueueFull { .. }) => self.outside.rejected += 1,
            Err(ServeError::DeadlineExceeded { .. }) => self.outside.expired += 1,
            Err(ServeError::BatchPanicked { .. }) => self.outside.failed += 1,
            Err(error) => return Err(unexpected(scene, error)),
        }
        Ok(())
    }

    fn settle_all(
        &mut self,
        scene: &Scene,
        pending: Vec<FleetCompletion>,
    ) -> Result<(), ChaosError> {
        pending.into_iter().try_for_each(|c| self.settle(scene, c))
    }

    /// Queues `frames` frames without waiting them.
    fn enqueue(
        &mut self,
        scene: &Scene,
        frames: usize,
    ) -> Result<Vec<FleetCompletion>, ChaosError> {
        let mut pending = Vec::new();
        for index in 0..frames {
            for mut request in self.stream.next(index, matches!(scene, Scene::Corrupt(_))) {
                if matches!(scene, Scene::Stale(_)) {
                    request = request.with_deadline(Duration::ZERO);
                }
                pending.extend(self.submit(scene, request)?);
            }
        }
        Ok(pending)
    }

    /// Closed loop: each frame's legs are all waited before the next
    /// frame is drawn.
    fn drive(&mut self, scene: &Scene, frames: usize) -> Result<(), ChaosError> {
        for _ in 0..frames {
            let pending = self.enqueue(scene, 1)?;
            self.settle_all(scene, pending)?;
        }
        Ok(())
    }

    /// Parks every alive replica's executor behind one holder request
    /// each, so whatever is submitted next queues instead of executing.
    /// Under consistent hashing the holder's source is searched so its key
    /// lands on an uncovered replica; under least-outstanding the
    /// unsettled holders spread themselves.
    fn park_all(&mut self, scene: &Scene) -> Result<Vec<FleetCompletion>, ChaosError> {
        let mut covered = vec![false; self.scenario.replicas];
        let alive = self
            .fleet
            .stats()
            .replicas
            .iter()
            .filter(|r| r.alive)
            .count();
        let mut holders = Vec::new();
        let mut key = HOLDER_SOURCE_BASE;
        while covered.iter().filter(|c| **c).count() < alive && key < HOLDER_SOURCE_BASE + 4096 {
            let source = SourceId(key);
            key += 1;
            match self.fleet.route_preview(Some(source)) {
                Some(target) if !covered[target] => {}
                _ => continue,
            }
            let before = batches(&self.fleet.stats());
            self.probe.hold_next();
            let (rgb, depth) = frame(&mut self.stream.rng, self.stream.net_config);
            let request = Request::new(rgb, depth).with_source(source);
            let Some(holder) = self.submit(scene, request)? else {
                continue;
            };
            // Wait until the holder's batch — the only work in flight — is
            // claimed and parked, so what follows queues behind it instead
            // of executing.
            while batches(&self.fleet.stats()) == before {
                std::thread::sleep(Duration::from_millis(1));
            }
            covered[holder.replica()] = true;
            holders.push(holder);
        }
        Ok(holders)
    }

    /// Queue flood: fill every queue the flood can route to, then submit
    /// `excess` more. One source hashes to one replica; least-outstanding
    /// spreads it over all the alive ones.
    fn flood(&mut self, scene: &Scene, excess: usize) -> Result<(), ChaosError> {
        let mut pending = self.park_all(scene)?;
        let queues = match self.scenario.dispatch {
            DispatchPolicy::ConsistentHash => 1,
            DispatchPolicy::LeastOutstanding => pending.len(),
        };
        for _ in 0..queues * self.scenario.queue_capacity + excess {
            let (rgb, depth) = frame(&mut self.stream.rng, self.stream.net_config);
            let request = Request::new(rgb, depth).with_source(FLOOD_SOURCE);
            pending.extend(self.submit(scene, request)?);
        }
        self.probe.release();
        self.settle_all(scene, pending)
    }

    /// Kill storm: queue frames behind parked executors, kill the lowest
    /// alive replica, optionally hot-swap a retrained model while the
    /// storm is still in flight, then release.
    fn storm(&mut self, scene: &Scene, frames: usize, deploy: bool) -> Result<(), ChaosError> {
        let mut pending = self.park_all(scene)?;
        pending.extend(self.enqueue(scene, frames)?);
        if (0..self.scenario.replicas).any(|replica| self.fleet.kill(replica)) {
            self.kills += 1;
        }
        if deploy {
            // A retrained model, its seed salted with the scene's index;
            // survivors claim it at a batch boundary.
            self.live_seed ^= 0xD00D_0000_0000_0001 | (self.checkpoints.len() as u64) << 8;
            self.deploy(scene, DeployOptions::default())?;
        }
        self.probe.release();
        self.settle_all(scene, pending)
    }

    /// Deploys a model built from `self.live_seed`.
    fn deploy(&mut self, scene: &Scene, options: DeployOptions) -> Result<(), ChaosError> {
        let mut config = self.stream.net_config.clone();
        config.seed = self.live_seed;
        let net = FusionNet::new(FusionScheme::AllFilterU, &config)
            .map_err(|e| config_error("cannot build deploy candidate", e))?;
        self.fleet
            .deploy(net, options)
            .map(|_version| ())
            .map_err(|error| unexpected(scene, error))
    }

    /// Ends a scene: settles, reconciles and records the checkpoint.
    fn checkpoint(&mut self, scene: &Scene) -> Result<FleetStats, ChaosError> {
        // The fleet-side counters settled inside wait(); the replica-side
        // ones are written by the executors just after fulfilling, so give
        // them a moment to catch up before reconciling (bounded — a real
        // loss stays visible).
        let mut stats = self.fleet.stats();
        for _ in 0..500 {
            if stats.cross_check().is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
            stats = self.fleet.stats();
        }
        reconcile(&self.outside, &scene.to_string(), &stats)?;
        let executors: usize = stats.replicas.iter().map(|r| r.scratch_peak_bytes).sum();
        let last_frame = self.stream.clock.saturating_sub(1);
        self.checkpoints.push(Checkpoint {
            scene: *scene,
            ledger: Ledger::from(&stats),
            scratch_peak_bytes: executors + scratch::stats().peak_bytes,
            weather: self.scenario.traffic.weather_at(last_frame),
        });
        Ok(stats)
    }

    /// Runs one scene to its checkpoint, then holds the scene's ledger
    /// delta to its contract.
    fn scene(&mut self, scene: &Scene) -> Result<(), ChaosError> {
        let before = self.fleet.stats();
        match *scene {
            Scene::Calm(n) | Scene::Corrupt(n) | Scene::Stale(n) => self.drive(scene, n)?,
            Scene::Panic(n) => {
                self.probe.set_mode(Mode::Panic);
                self.drive(scene, n)?;
            }
            Scene::Slow { frames, sleep_ms } => {
                self.probe
                    .set_mode(Mode::Sleep(Duration::from_millis(sleep_ms)));
                self.drive(scene, frames)?;
            }
            Scene::Flood(excess) => self.flood(scene, excess)?,
            Scene::Storm { frames, deploy } => self.storm(scene, frames, deploy)?,
            Scene::Revive(n) => {
                for replica in 0..self.scenario.replicas {
                    self.revives += u64::from(self.fleet.revive(replica));
                }
                self.drive(scene, n)?;
            }
            Scene::Shadow(n) => {
                let legs = (n * self.scenario.traffic.legs_per_frame()) as u64;
                let shadow = Some(ShadowConfig {
                    fraction: 1.0,
                    required_samples: legs.clamp(1, 4),
                    max_delta: 0.0,
                });
                self.deploy(scene, DeployOptions { shadow })?;
                self.drive(scene, n)?;
            }
        }
        self.probe.release();
        let after = self.checkpoint(scene)?;
        let delta = |field: fn(&FleetStats) -> u64| field(&after) - field(&before);
        let broken = match scene {
            Scene::Stale(_) if delta(|s| s.expired) != delta(|s| s.submitted) => {
                Some("a zero-deadline request did not expire".to_string())
            }
            Scene::Stale(_) if delta(batches) != 0 => {
                Some(format!("stale work executed {} batch(es)", delta(batches)))
            }
            Scene::Panic(_) if delta(|s| s.completed) != 0 => Some(format!(
                "{} request(s) of a panicked batch were served",
                delta(|s| s.completed)
            )),
            Scene::Flood(excess) if delta(|s| s.rejected) != *excess as u64 => Some(format!(
                "shed {} request(s), expected exactly {excess}",
                delta(|s| s.rejected)
            )),
            Scene::Storm { .. } | Scene::Shadow(_)
                if delta(|s| s.failed) + delta(|s| s.rejected) != 0 =>
            {
                Some(format!(
                    "{} leg(s) failed and {} were shed across a kill/deploy",
                    delta(|s| s.failed),
                    delta(|s| s.rejected)
                ))
            }
            Scene::Shadow(_) if after.shadow_max_delta != 0.0 => Some(format!(
                "bit-identical shadow candidate diffed {:e}",
                after.shadow_max_delta
            )),
            Scene::Shadow(_) if delta(|s| s.promotions) != 1 => Some(format!(
                "clean shadow deploy did not promote ({} aborts)",
                after.deploy_aborts
            )),
            _ => None,
        };
        match broken {
            Some(detail) => Err(ChaosError::SceneContract {
                scene: scene.to_string(),
                detail,
            }),
            None => Ok(()),
        }
    }
}

/// Reconciles `stats` at a boundary: conservation plus the
/// router-vs-replica identities (both in `cross_check`), and outside
/// tally == fleet ledger (a request the outside saw once is one leg plus
/// one per redirect).
fn reconcile(outside: &Ledger, boundary: &str, stats: &FleetStats) -> Result<(), ChaosError> {
    let scene = boundary.to_string();
    let fleet = Ledger::from(stats);
    if let Err(detail) = stats.cross_check() {
        return Err(ChaosError::CrossCheck { scene, detail });
    }
    let outside = Ledger {
        submitted: outside.submitted + fleet.redirected,
        redirected: fleet.redirected,
        ..*outside
    };
    if outside != fleet {
        return Err(ChaosError::TallyMismatch {
            scene,
            outside,
            fleet,
        });
    }
    Ok(())
}

/// The fleet a scenario runs against.
fn fleet_config(scenario: &Scenario, probe: &Arc<Probe>) -> Result<FleetConfig, ChaosError> {
    let mut serve = scenario
        .serve_config()
        .map_err(|e| config_error("replica server rejected the scenario", e))?;
    serve.batch_probe = Some(probe.batch_probe());
    Ok(FleetConfig {
        replicas: scenario.replicas,
        dispatch: scenario.dispatch,
        seed: scenario.seed,
        serve,
        max_redirects: scenario.replicas.max(2),
        // Revival is explicit (revive scenes), and sources stay pinned to
        // their replica while a breaker is open, so routing never depends
        // on a probe draw or on how far an executor has got — every fault
        // observation lands on one slot and replays exactly.
        revive_probe_chance: 0.0,
        route_around_open_breakers: false,
        ..FleetConfig::default()
    })
}

/// Invariant 3: the owned arenas' high-water mark plateaus in the first
/// quarter of the checkpoints. Returns the plateau index.
fn check_plateau(checkpoints: &[Checkpoint]) -> Result<usize, ChaosError> {
    let peaks: Vec<usize> = checkpoints.iter().map(|c| c.scratch_peak_bytes).collect();
    let plateau = peaks
        .iter()
        .position(|peak| Some(peak) == peaks.last())
        .unwrap_or(0);
    let budget = peaks.len().div_ceil(4).max(1) - 1;
    if peaks.len() >= 4 && plateau > budget {
        return Err(ChaosError::MemoryGrowth {
            detail: format!(
                "final scratch peak first reached at checkpoint {} of {}, past the \
                 first-quarter budget (checkpoint {}); peaks: {peaks:?}",
                plateau + 1,
                peaks.len(),
                budget + 1,
            ),
        });
    }
    Ok(plateau)
}

/// Invariant 4: trips happened only where the schedule injected faults,
/// and every burst source tripped and recovered. Returns trips by source.
fn check_breakers(
    scenario: &Scenario,
    stats: &FleetStats,
) -> Result<BTreeMap<u64, u64>, ChaosError> {
    let schedule = |detail: String| Err(ChaosError::BreakerSchedule { detail });
    let mut bursts = BTreeSet::new();
    let mut trips = BTreeMap::new();
    if let Traffic::Rig { bursts: b, .. } = &scenario.traffic {
        bursts.extend(b.iter().map(|burst| burst.source));
    }
    let corrupt = scenario
        .scenes
        .iter()
        .any(|s| matches!(s, Scene::Corrupt(_)));
    for replica in &stats.replicas {
        for slot in &replica.breaker_slots {
            let Some(SourceId(source)) = slot.source else {
                continue;
            };
            *trips.entry(source).or_insert(0) += slot.trips;
            let faulted = bursts.contains(&source) || (corrupt && source == FAULTY_SOURCE.0);
            if slot.trips > 0 && !faulted {
                return schedule(format!(
                    "source {source} tripped {} time(s) with no fault scheduled",
                    slot.trips
                ));
            }
            if slot.trips > 0 && bursts.contains(&source) && slot.state != BreakerState::Closed {
                return schedule(format!(
                    "source {source} breaker on replica {} ended {:?}, expected Closed after \
                     recovery",
                    replica.index, slot.state
                ));
            }
        }
    }
    match bursts
        .iter()
        .find(|source| trips.get(source).is_none_or(|&t| t == 0))
    {
        Some(source) => schedule(format!(
            "source {source} had a fault burst but never tripped"
        )),
        None => Ok(trips),
    }
}

/// Runs the scenario against a fresh tiny fusion net behind a fresh
/// fleet and checks every invariant. See the crate docs for the list.
///
/// # Errors
///
/// Returns the first [`ChaosError`] encountered — an invalid scenario, an
/// inexplicable request outcome, or a broken invariant.
pub fn run(scenario: &Scenario) -> Result<Report, ChaosError> {
    scenario.validate()?;
    let net_config = NetworkConfig::tiny();
    let net = FusionNet::new(FusionScheme::AllFilterU, &net_config)
        .map_err(|e| config_error("cannot build chaos net", e))?;
    let probe = Arc::new(Probe::default());
    let fleet = Fleet::start(net, fleet_config(scenario, &probe)?)
        .map_err(|e| config_error("fleet rejected the scenario", e))?;
    let pool_before = sf_runtime::pool_stats();
    // The driver thread's arena outlives a run; measure this run's peak
    // from what the thread holds now, not from an earlier run's mark.
    scratch::reset_peak();
    let mut engine = Engine {
        scenario,
        fleet: &fleet,
        probe: &probe,
        stream: Stream::new(scenario, &net_config),
        outside: Ledger::default(),
        kills: 0,
        revives: 0,
        live_seed: net_config.seed,
        checkpoints: Vec::new(),
    };
    let driven = scenario
        .scenes
        .iter()
        .try_for_each(|scene| engine.scene(scene));
    // Always unpark held executors before shutdown, even on an invariant
    // failure mid-schedule, so the error propagates instead of hanging.
    probe.release();
    let Engine {
        outside,
        kills,
        revives,
        checkpoints,
        ..
    } = engine;
    let (_net, stats) = fleet.shutdown();
    driven?;
    reconcile(&outside, "shutdown", &stats)?;
    let plateau = check_plateau(&checkpoints)?;
    let source_trips = check_breakers(scenario, &stats)?;
    // Invariant 5: the pool must still serve work after every injected
    // panic.
    sf_runtime::parallel_for(4, |_| {});
    if (sf_runtime::pool_stats() - pool_before).batches == 0 {
        return Err(ChaosError::PoolStalled);
    }
    Ok(Report {
        stats,
        kills,
        revives,
        checkpoints,
        plateau,
        source_trips,
    })
}

/// Runs the scenario twice — reproducibility as a checked property.
/// Returns the first run's report plus, if the second run's
/// [`Report::fingerprint`] differs from the first's, that diverging
/// fingerprint (`None` means the replay was bit-identical).
///
/// # Errors
///
/// Returns the first [`ChaosError`] either run encounters.
pub fn run_twice(scenario: &Scenario) -> Result<(Report, Option<String>), ChaosError> {
    let first = run(scenario)?;
    let second = run(scenario)?.fingerprint();
    let diverged = (second != first.fingerprint()).then_some(second);
    Ok((first, diverged))
}
