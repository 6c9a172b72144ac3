//! Set-up: everything a workload needs before its first timed
//! operation — seeds, scene, dataset, a trained model, the pre-rendered
//! frame pool, the int8 predictor and the fleet.
//!
//! Every random choice derives from the one `--seed`; the library only
//! ever receives generated inputs.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use sf_core::{
    train, BreakerConfig, CalibrationProfile, FusionNet, FusionScheme, NetworkConfig, TrainConfig,
};
use sf_dataset::{DatasetConfig, RigFrame, RoadDataset};
use sf_scene::{
    Lighting, Obstacle, Occluder, PinholeCamera, Rig, RoadCategory, Scene, SceneBuilder, Weather,
};
use sf_serve::{BatchProbe, DispatchPolicy, Fleet, FleetConfig, Request, ServeConfig, SourceId};
use sf_tensor::{Tensor, TensorRng};

use crate::sys::SeedStream;
use crate::workloads::Workload;

/// Epochs of set-up training: enough that masks are non-degenerate.
pub const TRAIN_EPOCHS: usize = 4;
/// Training frames per road category.
const TRAIN_PER_CATEGORY: usize = 8;
/// Held-out frames per category for the `quality.*` invariants.
const TEST_PER_CATEGORY: usize = 4;
/// Frames in the pre-rendered pool of the three pool workloads.
pub const POOL_FRAMES: usize = 64;
/// Training frames streamed through calibration.
pub const CALIBRATION_FRAMES: usize = 8;
/// Moving occluder vehicles in the scene.
const OCCLUDERS: usize = 3;
/// Roadside clutter every benchmark scene has: obstacles, and how many
/// of them are buildings (the rest are poles).
const ROADSIDE_OBSTACLES: usize = 5;
const ROADSIDE_BUILDINGS: usize = 3;
/// Depth densification passes per mount image (the soak harness's value).
const FILL_ITERATIONS: usize = 2;
/// Every serving request's deadline; nothing may come near it.
pub const DEADLINE: Duration = Duration::from_millis(50);

/// The sub-seeds derived from `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub scene: u64,
    pub dataset: u64,
    pub net: u64,
    pub shuffle: u64,
    pub rig: u64,
    pub pool_order: u64,
    pub fleet: u64,
    pub breaker: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        let mut s = SeedStream::new(seed);
        Seeds {
            scene: s.next_seed(),
            dataset: s.next_seed(),
            net: s.next_seed(),
            shuffle: s.next_seed(),
            rig: s.next_seed(),
            pool_order: s.next_seed(),
            fleet: s.next_seed(),
            breaker: s.next_seed(),
        }
    }
}

/// The observed world: one procedural scene, a triple-LiDAR rig and a
/// seeded occluder convoy advancing on the scene clock.
pub struct World {
    pub scene: Scene,
    pub camera: PinholeCamera,
    pub rig: Rig,
    pub occluders: Vec<Occluder>,
    rig_seed: u64,
}

impl World {
    fn new(seeds: &Seeds, config: &NetworkConfig) -> World {
        // Ray casting tests every box and pole, so rendering cost follows
        // the scene's clutter (2.9 ms with one building, 3.7 ms with six).
        // The scene is seeded, but held to the typical clutter so that
        // `drive_closed` is the same workload under every `--seed`.
        let scene = (0..4096)
            .map(|bump| {
                SceneBuilder::new(RoadCategory::UrbanMarked, seeds.scene.wrapping_add(bump)).build()
            })
            .find(|scene| {
                let buildings = scene
                    .obstacles()
                    .iter()
                    .filter(|o| matches!(o, Obstacle::Block { .. }))
                    .count();
                (scene.obstacles().len(), buildings) == (ROADSIDE_OBSTACLES, ROADSIDE_BUILDINGS)
            })
            .expect("about one scene seed in twelve has the typical clutter");
        let occluders = Occluder::convoy(&scene, OCCLUDERS, seeds.scene);
        World {
            scene,
            camera: PinholeCamera::kitti_like(config.width, config.height),
            rig: Rig::triple(),
            occluders,
            rig_seed: seeds.rig,
        }
    }

    /// Weather fronts roll through in quarters of the run: clear, rain
    /// 0.6, fog 0.5, clear again.
    pub fn weather_at(frame: u64, total: u64) -> Weather {
        match 4 * frame / total.max(1) {
            1 => Weather::rain(0.6),
            2 => Weather::fog(0.5),
            _ => Weather::clear(),
        }
    }

    /// The scene with the convoy at its `frame` position.
    pub fn scene_at(&self, frame: u64) -> Scene {
        self.scene.with_occluders(&self.occluders, frame)
    }

    /// One rig frame of `scene` under `weather`.
    pub fn render(&self, scene: &Scene, weather: Weather, frame: u64) -> RigFrame {
        RigFrame::render(
            scene,
            &self.camera,
            Lighting::day(),
            weather,
            &self.rig,
            self.rig_seed,
            frame,
            FILL_ITERATIONS,
        )
    }
}

/// One pre-rendered healthy rig frame: the shared camera image and one
/// depth image per mount (mount index == source id).
pub struct PoolFrame {
    pub rgb: Tensor,
    pub depths: Vec<Tensor>,
}

/// Wall-clock of the set-up stages, seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub train_s: f64,
    pub pool_render_s: f64,
    /// Each `RigFrame::render` call made while rendering the pool, ms.
    pub rig_frame_ms: Vec<f64>,
}

/// Everything a workload runs against.
pub struct Setup {
    pub seeds: Seeds,
    pub config: NetworkConfig,
    pub world: World,
    pub dataset: RoadDataset,
    pub net: FusionNet,
    /// Empty on `drive_closed`, which renders every frame live.
    pub pool: Vec<PoolFrame>,
    /// Seeded visiting order over the pool.
    pub pool_order: Vec<usize>,
    /// The int8 calibration profile (`offline_int8` only).
    pub int8_profile: Option<CalibrationProfile>,
    pub times: SetupTimes,
}

impl Setup {
    /// Builds the workload's inputs: dataset, trained model, then the
    /// frame pool (pool workloads) and the int8 calibration (`offline_int8`).
    pub fn build(workload: Workload, seed: u64) -> Setup {
        let seeds = Seeds::derive(seed);
        let mut config = NetworkConfig::standard();
        config.seed = seeds.net;
        let mut times = SetupTimes::default();

        let dataset = RoadDataset::generate(&DatasetConfig {
            train_per_category: TRAIN_PER_CATEGORY,
            test_per_category: TEST_PER_CATEGORY,
            seed: seeds.dataset,
            ..DatasetConfig::standard()
        });
        let mut net =
            FusionNet::new(FusionScheme::AllFilterU, &config).expect("standard config is valid");
        let started = Instant::now();
        let report = train(
            &mut net,
            &dataset.train(None),
            &TrainConfig::standard()
                .with_epochs(TRAIN_EPOCHS)
                .with_seed(seeds.shuffle),
        );
        times.train_s = started.elapsed().as_secs_f64();
        assert!(!report.diverged, "set-up training diverged");

        let world = World::new(&seeds, &config);
        let mut pool = Vec::new();
        if workload != Workload::DriveClosed {
            let started = Instant::now();
            for frame in 0..POOL_FRAMES as u64 {
                let scene = world.scene_at(frame);
                let weather = World::weather_at(frame, POOL_FRAMES as u64);
                let t = Instant::now();
                let rendered = world.render(&scene, weather, frame);
                times.rig_frame_ms.push(t.elapsed().as_secs_f64() * 1e3);
                pool.push(PoolFrame {
                    rgb: rendered.rgb,
                    depths: rendered.depths.into_iter().map(|(_, d)| d).collect(),
                });
            }
            times.pool_render_s = started.elapsed().as_secs_f64();
        }
        let mut pool_order: Vec<usize> = (0..pool.len()).collect();
        TensorRng::seed_from(seeds.pool_order).shuffle(&mut pool_order);

        let int8_profile = (workload == Workload::OfflineInt8).then(|| {
            let train = dataset.train(None);
            sf_quant::calibrate(&net, &train[..CALIBRATION_FRAMES])
        });

        Setup {
            seeds,
            config,
            world,
            dataset,
            net,
            pool,
            pool_order,
            int8_profile,
            times,
        }
    }

    /// The `(rgb, depth)` pair behind pool slot `slot = frame·3 + leg`
    /// in the seeded visiting order.
    pub fn pool_pair(&self, slot: usize) -> (&Tensor, &Tensor) {
        let mounts = self.world.rig.len();
        let frame = &self.pool[self.pool_order[(slot / mounts) % self.pool.len()]];
        (&frame.rgb, &frame.depths[slot % mounts])
    }

    /// Distinct `(rgb, depth)` pairs in the pool.
    pub fn pool_slots(&self) -> usize {
        self.pool.len() * self.world.rig.len()
    }
}

/// Timestamps the executor threads report through
/// [`ServeConfig::batch_probe`]: one entry per executed batch, in
/// execution order per thread. Only the traced pass installs it.
type ProbeLog = Arc<Mutex<Vec<(ThreadId, Instant)>>>;

/// A started fleet plus what the trace needs to read its batches.
pub struct FleetUnderTest {
    pub fleet: Fleet,
    probe_log: Option<ProbeLog>,
    /// Executor thread of each replica, learnt during warm-up (traced).
    replica_threads: Vec<Option<ThreadId>>,
    /// Batches each replica ran during warm-up: one per warm-up leg, so
    /// their sum is what the ledger holds before the window opens.
    pub warmup_batches: Vec<usize>,
}

/// The per-replica serve configuration. Batching fields stay at the
/// `ServeConfig::builder()` defaults on purpose: a better default must
/// be measurable. Only the deadline, the breaker (`drive_closed`) and —
/// on the traced pass — the batch probe are set.
fn serve_config(seeds: &Seeds, breaker: bool, probe: Option<BatchProbe>) -> ServeConfig {
    let mut builder = ServeConfig::builder().default_deadline(DEADLINE);
    if breaker {
        builder = builder.breaker(BreakerConfig {
            seed: seeds.breaker,
            ..BreakerConfig::default()
        });
    }
    if let Some(probe) = probe {
        builder = builder.batch_probe(probe);
    }
    builder.build().expect("benchmark serve config is valid")
}

/// Whether rendezvous hashing spreads the rig's sources over every
/// replica of `fleet`.
fn spreads_sources(fleet: &Fleet, rig: &Rig, replicas: usize) -> bool {
    let mut used = vec![false; replicas];
    for mount in rig.mounts() {
        if let Some(replica) = fleet.route_preview(Some(SourceId(mount.source))) {
            used[replica] = true;
        }
    }
    used.iter().all(|&u| u)
}

impl FleetUnderTest {
    /// Starts the fleet and warms it: one request per source, waited one
    /// at a time, so every replica has compiled its plans and (traced)
    /// each replica's executor thread is known.
    pub fn start(setup: &Setup, replicas: usize, breaker: bool, traced: bool) -> FleetUnderTest {
        let probe_log: Option<ProbeLog> = traced.then(|| Arc::new(Mutex::new(Vec::new())));
        let probe = probe_log.clone().map(|log| {
            BatchProbe::new(move |_| {
                log.lock()
                    .expect("probe log poisoned")
                    .push((std::thread::current().id(), Instant::now()));
            })
        });
        // The first fleet seed at or after the derived one whose routing
        // uses every replica, so the routing shape (3 sources on 2
        // replicas: 2 + 1) is the same under every `--seed`.
        let fleet = (0..64)
            .find_map(|bump| {
                let fleet = Fleet::start(
                    setup.net.clone(),
                    FleetConfig {
                        replicas,
                        dispatch: DispatchPolicy::ConsistentHash,
                        seed: setup.seeds.fleet.wrapping_add(bump),
                        serve: serve_config(&setup.seeds, breaker, probe.clone()),
                        // Sources stay pinned to their rendezvous replica
                        // while a breaker is open, so routing never races
                        // the executor and every count replays exactly (as
                        // in the soak harness).
                        route_around_open_breakers: false,
                        ..FleetConfig::default()
                    },
                )
                .expect("benchmark fleet config is valid");
                spreads_sources(&fleet, &setup.world.rig, replicas).then_some(fleet)
            })
            .expect("some fleet seed in 64 routes a source to every replica");

        let mut under_test = FleetUnderTest {
            fleet,
            probe_log,
            replica_threads: vec![None; replicas],
            warmup_batches: vec![0; replicas],
        };
        let warm = setup.world.render(
            &setup.world.scene_at(0),
            Weather::clear(),
            u64::MAX, // a stream seed no timed frame uses
        );
        for (source, depth) in warm.depths {
            let request = Request::new(warm.rgb.clone(), depth).with_source(SourceId(source));
            let completion = under_test
                .fleet
                .submit(request)
                .expect("warm-up request admitted");
            let replica = completion.replica();
            completion.wait().expect("warm-up request served");
            under_test.warmup_batches[replica] += 1;
            if let Some(log) = &under_test.probe_log {
                let log = log.lock().expect("probe log poisoned");
                let (thread, _) = *log.last().expect("warm-up batch was probed");
                under_test.replica_threads[replica] = Some(thread);
            }
        }
        under_test
    }

    /// Legs warm-up submitted (and the fleet served) before the window.
    pub fn warmup_legs(&self) -> u64 {
        self.warmup_batches.iter().sum::<usize>() as u64
    }

    /// The probe timestamps of one replica's batches, in order.
    pub fn batch_times(&self, replica: usize) -> Vec<Instant> {
        let (Some(log), Some(thread)) = (&self.probe_log, self.replica_threads[replica]) else {
            return Vec::new();
        };
        log.lock()
            .expect("probe log poisoned")
            .iter()
            .filter(|(t, _)| *t == thread)
            .map(|(_, at)| *at)
            .collect()
    }
}
