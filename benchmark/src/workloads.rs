//! The four workloads. Each does a fixed amount of work sized from
//! `--seconds`, so every count and fingerprint repeats exactly for a
//! given seed; only the clocks differ between repetitions.
//!
//! All four record the same raw material — per-request timestamps taken
//! by the benchmark around calls the workload makes anyway — and leave
//! the arithmetic to [`crate::measure`].

use std::sync::mpsc;
use std::time::{Duration, Instant};

use sf_core::Predictor;
use sf_runtime::PoolStats;
use sf_serve::{Fleet, FleetCompletion, FleetStats, Request, ServeError, SourceId};
use sf_tensor::Tensor;

use crate::metrics::RUN_SECONDS;
use crate::schedule::open_loop;
use crate::setup::{FleetUnderTest, Setup, World};
use crate::sys;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DriveClosed,
    StreamOpen,
    SaturateClosed,
    OfflineInt8,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DriveClosed,
        Workload::StreamOpen,
        Workload::SaturateClosed,
        Workload::OfflineInt8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DriveClosed => "drive_closed",
            Workload::StreamOpen => "stream_open",
            Workload::SaturateClosed => "saturate_closed",
            Workload::OfflineInt8 => "offline_int8",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Replicas of the fleet this workload drives (0: no serving layer).
    pub fn replicas(self) -> usize {
        match self {
            Workload::DriveClosed => 2,
            Workload::StreamOpen | Workload::SaturateClosed => 1,
            Workload::OfflineInt8 => 0,
        }
    }
}

/// Rig frames per second `stream_open` offers (× 3 mounts = 450 req/s).
pub const STREAM_FRAMES_PER_S: f64 = 150.0;
/// Requests `saturate_closed` keeps outstanding.
const OUTSTANDING: usize = 16;
/// Images per `offline_int8` call.
pub const OFFLINE_BATCH: usize = 8;

/// The fixed work of one run. The nominal run (`--seconds` equal to the
/// manifest's `run_seconds`) is 800 rig frames, 8 000 requests and 600
/// batch-8 calls — about that many seconds each at the speed this
/// benchmark was sized at; other `--seconds` scale it linearly.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub drive_frames: u64,
    pub stream_ticks: u64,
    pub saturate_requests: u64,
    pub offline_calls: u64,
    /// Seconds per rate step of the open-loop ladder (traced pass).
    pub ladder_step_s: f64,
}

impl Sizing {
    pub fn for_seconds(seconds: u64) -> Sizing {
        let s = seconds.max(1);
        Sizing {
            // Multiples of 8 keep the quarter-run weather fronts and the
            // eighth-run sensor outage on whole frames.
            drive_frames: 8 * (100 * s / RUN_SECONDS).max(1),
            stream_ticks: (STREAM_FRAMES_PER_S as u64) * s,
            saturate_requests: 8 * (1000 * s / RUN_SECONDS).max(2),
            offline_calls: (600 * s / RUN_SECONDS).max(24),
            ladder_step_s: 4.0 * s as f64 / RUN_SECONDS as f64,
        }
    }

    /// `drive_closed`: source 1's LiDAR is dead for the fourth eighth of
    /// the run (frames [300, 400) of 800), inside the rain front.
    pub fn sensor_dead(&self, frame: u64, source: u64) -> bool {
        source == 1 && (3 * self.drive_frames / 8..self.drive_frames / 2).contains(&frame)
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LegResult {
    Served {
        /// Server-side enqueue → fulfil.
        latency: Duration,
        /// Requests that shared the forward pass.
        batch: usize,
        quarantined: bool,
        /// FNV-1a of the mask's f32 bits.
        print: u64,
    },
    Rejected,
    Expired,
    Failed,
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    /// Rig frame / tick / request index this leg belongs to.
    pub frame: u64,
    pub source: u64,
    pub replica: usize,
    /// `Fleet::submit` called / returned; `wait()` returned.
    pub submit: Instant,
    pub accepted: Instant,
    pub wake: Instant,
    pub result: LegResult,
}

impl Leg {
    /// When the executor fulfilled the request, reconstructed from the
    /// server's own latency figure.
    pub fn fulfilled(&self) -> Option<Instant> {
        match self.result {
            LegResult::Served { latency, .. } => Some(self.accepted + latency),
            _ => None,
        }
    }
}

/// A submitted request the collector still has to wait for.
struct Pending {
    frame: u64,
    source: u64,
    submit: Instant,
    accepted: Instant,
    outcome: Result<FleetCompletion, ServeError>,
}

fn submit_leg(fleet: &Fleet, frame: u64, source: u64, rgb: Tensor, depth: Tensor) -> Pending {
    let request = Request::new(rgb, depth).with_source(SourceId(source));
    let submit = Instant::now();
    let outcome = fleet.submit(request);
    Pending {
        frame,
        source,
        submit,
        accepted: Instant::now(),
        outcome,
    }
}

/// Waits a pending request out. Returns the leg and the served mask's
/// buffer, which `drive_closed` hands back to the scratch pool.
fn finish_leg(pending: Pending) -> (Leg, Option<Vec<f32>>) {
    let mut replica = 0;
    let mut mask = None;
    let result = match pending.outcome {
        Ok(completion) => {
            replica = completion.replica();
            match completion.wait() {
                Ok(prediction) => {
                    let print = sys::fnv_mask(prediction.prob.data());
                    let result = LegResult::Served {
                        latency: prediction.latency,
                        batch: prediction.batch_size,
                        quarantined: prediction.quarantined.is_some(),
                        print,
                    };
                    mask = Some(prediction.prob.into_vec());
                    result
                }
                Err(ServeError::DeadlineExceeded { .. }) => LegResult::Expired,
                Err(_) => LegResult::Failed,
            }
        }
        Err(ServeError::QueueFull { .. }) => LegResult::Rejected,
        Err(_) => LegResult::Failed,
    };
    let leg = Leg {
        frame: pending.frame,
        source: pending.source,
        replica,
        submit: pending.submit,
        accepted: pending.accepted,
        wake: Instant::now(),
        result,
    };
    (leg, mask)
}

/// The clocks of one rig frame of `drive_closed`.
#[derive(Debug, Clone, Copy)]
pub struct FrameSpan {
    pub start: Instant,
    pub occluders_placed: Instant,
    pub rendered: Instant,
    pub done: Instant,
}

/// Process-level readings around the timed window.
struct Window {
    started: Instant,
    cpu: f64,
    pool: PoolStats,
}

impl Window {
    fn open() -> Window {
        Window {
            pool: sf_runtime::pool_stats(),
            cpu: sys::process_cpu_seconds(),
            started: Instant::now(),
        }
    }
}

/// Everything one timed pass of a workload recorded.
pub struct Pass {
    pub workload: Workload,
    pub sizing: Sizing,
    pub started: Instant,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    /// `sf-runtime` pool batches dispatched during the window.
    pub pool_batches: u64,
    /// Serving workloads: every request, in submit order.
    pub legs: Vec<Leg>,
    /// `drive_closed`: one per rig frame.
    pub frames: Vec<FrameSpan>,
    /// `stream_open`: when each tick was due, and how late it was sent.
    pub due: Vec<Instant>,
    pub lag_us: Vec<f64>,
    /// `offline_int8`: each `run_slots` call and every output's print.
    pub calls: Vec<(Instant, Instant)>,
    pub prints: Vec<u64>,
    /// Fleet ledger right after warm-up and at the end of the window.
    pub ledger_before: Option<FleetStats>,
    pub ledger_after: Option<FleetStats>,
    /// `Fleet::stats()` timed at the end of the window, microseconds.
    pub stats_snapshot_us: f64,
}

impl Pass {
    fn close(workload: Workload, sizing: Sizing, window: Window) -> Pass {
        let wall_s = window.started.elapsed().as_secs_f64();
        Pass {
            workload,
            sizing,
            started: window.started,
            wall_s,
            cpu_s: sys::process_cpu_seconds() - window.cpu,
            peak_rss_mib: sys::peak_rss_mib(),
            pool_batches: (sf_runtime::pool_stats() - window.pool).batches,
            legs: Vec::new(),
            frames: Vec::new(),
            due: Vec::new(),
            lag_us: Vec::new(),
            calls: Vec::new(),
            prints: Vec::new(),
            ledger_before: None,
            ledger_after: None,
            stats_snapshot_us: 0.0,
        }
    }

    /// p95 of how late the open loop's generator sent its ticks, µs (0
    /// for the closed loops).
    pub fn generator_lag_p95_us(&self) -> f64 {
        crate::stats::percentile_sorted(&crate::stats::sorted(self.lag_us.clone()), 95.0)
    }

    /// Reads the fleet ledger at the end of the window, timing the
    /// snapshot (the clone-and-sort under the stats mutex).
    fn read_ledger(&mut self, fleet: &Fleet, before: FleetStats) {
        let mut times = Vec::new();
        let mut after = fleet.stats();
        // Replica-side counters are written just after fulfilment; give
        // them a bounded moment to settle before reconciling.
        for _ in 0..500 {
            let t = Instant::now();
            after = fleet.stats();
            times.push(t.elapsed().as_secs_f64() * 1e6);
            if times.len() >= 5 && after.is_conserved() && after.cross_check().is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.stats_snapshot_us = crate::stats::median(&times);
        self.ledger_before = Some(before);
        self.ledger_after = Some(after);
    }
}

/// `drive_closed`: per scene-clock frame, place the convoy, render the
/// triple rig, fan three tagged legs out to the 2-replica fleet and wait
/// them all; one driver thread.
pub fn drive_closed(setup: &Setup, under_test: &FleetUnderTest, sizing: Sizing) -> Pass {
    let fleet = &under_test.fleet;
    let world = &setup.world;
    let total = sizing.drive_frames;
    let depth_shape = [
        setup.config.depth_channels,
        setup.config.height,
        setup.config.width,
    ];
    let mut legs = Vec::with_capacity(total as usize * world.rig.len());
    let mut frames = Vec::with_capacity(total as usize);
    let before = fleet.stats();
    let window = Window::open();
    for frame in 0..total {
        let start = Instant::now();
        let scene = world.scene_at(frame);
        let occluders_placed = Instant::now();
        let rendered = world.render(&scene, World::weather_at(frame, total), frame);
        let rendered_at = Instant::now();
        let pending: Vec<Pending> = rendered
            .depths
            .into_iter()
            .map(|(source, depth)| {
                let depth = if sizing.sensor_dead(frame, source) {
                    Tensor::zeros(&depth_shape)
                } else {
                    depth
                };
                submit_leg(fleet, frame, source, rendered.rgb.clone(), depth)
            })
            .collect();
        for p in pending {
            let (leg, mask) = finish_leg(p);
            legs.push(leg);
            // Hand the frame's buffers back so rendering reuses them, as
            // the soak harness's closed loop does.
            if let Some(mask) = mask {
                sf_tensor::scratch::recycle(mask);
            }
        }
        sf_tensor::scratch::recycle(rendered.rgb.into_vec());
        frames.push(FrameSpan {
            start,
            occluders_placed,
            rendered: rendered_at,
            done: Instant::now(),
        });
    }
    let mut pass = Pass::close(Workload::DriveClosed, sizing, window);
    pass.legs = legs;
    pass.frames = frames;
    pass.read_ledger(fleet, before);
    pass
}

/// `stream_open`: an open loop — every tick submits one pool frame's
/// three legs at its due time whether or not earlier ones finished. One
/// generator thread (this one) and one collector thread.
pub fn stream_open(
    setup: &Setup,
    under_test: &FleetUnderTest,
    sizing: Sizing,
    frames_per_s: f64,
    ticks: u64,
) -> Pass {
    let fleet = &under_test.fleet;
    let mounts = setup.world.rig.len();
    let period = Duration::from_secs_f64(1.0 / frames_per_s);
    let before = fleet.stats();
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut due_times = Vec::with_capacity(ticks as usize);
    let mut lag_us = Vec::with_capacity(ticks as usize);
    let window = Window::open();
    let legs = std::thread::scope(|scope| {
        let collector = scope.spawn(move || rx.into_iter().map(|p| finish_leg(p).0).collect());
        open_loop(ticks, period, window.started + period, |tick, due| {
            lag_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            due_times.push(due);
            for leg in 0..mounts {
                let (rgb, depth) = setup.pool_pair(tick as usize * mounts + leg);
                let pending = submit_leg(fleet, tick, leg as u64, rgb.clone(), depth.clone());
                tx.send(pending).expect("collector outlives the generator");
            }
        });
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let mut pass = Pass::close(Workload::StreamOpen, sizing, window);
    pass.legs = legs;
    pass.due = due_times;
    pass.lag_us = lag_us;
    pass.read_ledger(fleet, before);
    pass
}

/// `saturate_closed`: 16 requests kept outstanding — a submitter (this
/// thread) that spends one token per request and a collector that hands
/// a token back per completion.
pub fn saturate_closed(setup: &Setup, under_test: &FleetUnderTest, sizing: Sizing) -> Pass {
    let fleet = &under_test.fleet;
    let mounts = setup.world.rig.len() as u64;
    let before = fleet.stats();
    let (tx, rx) = mpsc::channel::<Pending>();
    let (token_tx, token_rx) = mpsc::channel::<()>();
    for _ in 0..OUTSTANDING {
        token_tx.send(()).expect("token receiver is alive");
    }
    let window = Window::open();
    let legs = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            rx.into_iter()
                .map(|p| {
                    let leg = finish_leg(p).0;
                    // The submitter hangs up after its last request.
                    let _ = token_tx.send(());
                    leg
                })
                .collect()
        });
        for request in 0..sizing.saturate_requests {
            token_rx
                .recv()
                .expect("collector returns a token per request");
            let (rgb, depth) = setup.pool_pair(request as usize);
            let pending = submit_leg(fleet, request, request % mounts, rgb.clone(), depth.clone());
            tx.send(pending).expect("collector outlives the submitter");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let mut pass = Pass::close(Workload::SaturateClosed, sizing, window);
    pass.legs = legs;
    pass.read_ledger(fleet, before);
    pass
}

/// `offline_int8`: batch-8 passes of the int8 predictor over the pool,
/// no serving layer; one caller thread.
pub fn offline_int8(setup: &Setup, sizing: Sizing) -> Pass {
    let profile = setup
        .int8_profile
        .as_ref()
        .expect("offline_int8 set-up calibrated");
    let mut predictor =
        Predictor::compile_int8(&setup.net, profile).expect("calibration covers both plans");
    let calls_total = sizing.offline_calls as usize;
    let mut calls = Vec::with_capacity(calls_total);
    let mut prints = Vec::with_capacity(calls_total * OFFLINE_BATCH);
    let window = Window::open();
    for call in 0..calls_total {
        let pairs: Vec<(&Tensor, &Tensor)> = (0..OFFLINE_BATCH)
            .map(|i| setup.pool_pair(call * OFFLINE_BATCH + i))
            .collect();
        let rgb: Vec<&Tensor> = pairs.iter().map(|p| p.0).collect();
        let depth: Vec<&Tensor> = pairs.iter().map(|p| p.1).collect();
        let start = Instant::now();
        let slots = predictor
            .run_slots(&rgb, &depth)
            .expect("pool frames match the compiled geometry");
        calls.push((start, Instant::now()));
        prints.extend(slots.iter().map(|s| sys::fnv_mask(s.prob.data())));
    }
    let mut pass = Pass::close(Workload::OfflineInt8, sizing, window);
    pass.calls = calls;
    pass.prints = prints;
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_sizing_is_the_documented_work() {
        let s = Sizing::for_seconds(RUN_SECONDS);
        assert_eq!(s.drive_frames, 800);
        assert_eq!(s.stream_ticks, 1050);
        assert_eq!(s.saturate_requests, 8000);
        assert_eq!(s.offline_calls, 600);
        assert_eq!(s.ladder_step_s, 4.0);
        // The outage is frames [300, 400) of source 1 only.
        assert!(!s.sensor_dead(299, 1) && s.sensor_dead(300, 1));
        assert!(s.sensor_dead(399, 1) && !s.sensor_dead(400, 1));
        assert!(!s.sensor_dead(350, 0) && !s.sensor_dead(350, 2));
    }

    #[test]
    fn smoke_sizing_stays_runnable() {
        for seconds in [1, 2, 3] {
            let s = Sizing::for_seconds(seconds);
            assert!(s.drive_frames >= 8 && s.drive_frames.is_multiple_of(8));
            assert!(s.saturate_requests >= 16 && s.offline_calls >= 24);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        let names: Vec<&str> = crate::metrics::WORKLOADS.iter().map(|w| w.name).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
