//! Turns a recorded [`Pass`] into numbers and verdicts: the end-to-end
//! summary, the output-correctness checks, and (traced pass) the
//! span-derived per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use sf_autograd::Graph;
use sf_core::{DegradationPolicy, Predictor};
use sf_nn::Mode;
use sf_serve::FleetStats;
use sf_tensor::Tensor;

use crate::setup::{FleetUnderTest, Setup, World};
use crate::stats::{median, percentile_sorted, sorted};
use crate::sys;
use crate::workloads::{Leg, LegResult, Pass, Workload, OFFLINE_BATCH};

/// The end-to-end view of one pass.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Masks requested / not delivered (rejected + expired + failed).
    pub attempted: u64,
    pub failed: u64,
    pub rejected: u64,
    pub expired: u64,
    /// Latency sample in the workload's unit (rig frame, request or
    /// batch call), ascending, milliseconds.
    pub latencies_ms: Vec<f64>,
    pub throughput_rps: f64,
    pub served_share: f64,
    pub cpu_s_per_kreq: f64,
    pub peak_rss_mib: f64,
    /// Everything that must replay exactly for a given seed: counts and
    /// a hash over every served mask, in submit order.
    pub ledger: String,
}

impl Summary {
    pub fn p(&self, percentile: f64) -> f64 {
        percentile_sorted(&self.latencies_ms, percentile)
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Groups a serving pass's legs by the frame / tick they belong to.
fn legs_by_frame(legs: &[Leg]) -> BTreeMap<u64, Vec<&Leg>> {
    let mut frames: BTreeMap<u64, Vec<&Leg>> = BTreeMap::new();
    for leg in legs {
        frames.entry(leg.frame).or_default().push(leg);
    }
    frames
}

pub fn summarize(pass: &Pass) -> Summary {
    let mut hash = sys::fnv_start();
    let attempted = match pass.workload {
        Workload::OfflineInt8 => pass.prints.len(),
        _ => pass.legs.len(),
    } as u64;
    let (mut rejected, mut expired, mut errored, mut quarantined) = (0u64, 0u64, 0u64, 0u64);
    for print in &pass.prints {
        hash = sys::fnv_fold(hash, *print);
    }
    for leg in &pass.legs {
        match leg.result {
            LegResult::Served {
                print,
                quarantined: q,
                ..
            } => {
                hash = sys::fnv_fold(hash, print);
                quarantined += u64::from(q);
            }
            LegResult::Rejected => rejected += 1,
            LegResult::Expired => expired += 1,
            LegResult::Failed => errored += 1,
        }
    }
    let failed = rejected + expired + errored;
    let served = attempted - failed;

    // A frame (or tick) whose legs were not all served has no latency:
    // it misses, and is counted in `failed` instead.
    let all_served = |legs: &[&Leg]| legs.iter().all(|l| l.fulfilled().is_some());
    let latencies_ms = match pass.workload {
        Workload::DriveClosed => {
            let frames = legs_by_frame(&pass.legs);
            pass.frames
                .iter()
                .enumerate()
                .filter(|(i, _)| frames.get(&(*i as u64)).is_some_and(|l| all_served(l)))
                .map(|(_, f)| ms(f.start, f.done))
                .collect()
        }
        Workload::StreamOpen => legs_by_frame(&pass.legs)
            .iter()
            .filter(|(_, legs)| all_served(legs))
            .map(|(tick, legs)| {
                let due = pass.due[*tick as usize];
                let last = legs.iter().filter_map(|l| l.fulfilled()).max();
                ms(due, last.expect("all legs served"))
            })
            .collect(),
        Workload::SaturateClosed => pass
            .legs
            .iter()
            .filter(|l| l.fulfilled().is_some())
            .map(|l| ms(l.submit, l.wake))
            .collect(),
        Workload::OfflineInt8 => pass.calls.iter().map(|(a, b)| ms(*a, *b)).collect(),
    };

    let mut ledger = format!(
        "{} attempted={attempted} served={served} rejected={rejected} expired={expired} \
         failed={errored} quarantined={quarantined} masks={hash:016x}",
        pass.workload.name()
    );
    if let Some(stats) = &pass.ledger_after {
        for r in &stats.replicas {
            ledger.push_str(&format!(
                " r{}:completed={},trips={}",
                r.index, r.completed, r.breaker_trips
            ));
        }
    }
    Summary {
        attempted,
        failed,
        rejected,
        expired,
        latencies_ms: sorted(latencies_ms),
        throughput_rps: served as f64 / pass.wall_s,
        served_share: served as f64 / attempted.max(1) as f64,
        cpu_s_per_kreq: pass.cpu_s / (served.max(1) as f64 / 1e3),
        peak_rss_mib: pass.peak_rss_mib,
        ledger,
    }
}

/// The unbatched references every served mask must equal bit for bit.
struct Reference {
    fused: Predictor,
    camera_only: Predictor,
}

impl Reference {
    fn new(setup: &Setup) -> Reference {
        Reference {
            fused: Predictor::compile(&setup.net),
            camera_only: Predictor::compile(&setup.net).with_policy(DegradationPolicy::CameraOnly),
        }
    }

    fn print(&mut self, rgb: &Tensor, depth: &Tensor, camera_only: bool) -> u64 {
        let predictor = if camera_only {
            &mut self.camera_only
        } else {
            &mut self.fused
        };
        let prediction = predictor
            .run(rgb, depth)
            .expect("inputs match the geometry");
        sys::fnv_mask(prediction.prob.data())
    }
}

/// Checks one served leg against `Predictor::run` on the same inputs; a
/// quarantined leg must equal the camera-only plan.
fn check_leg(
    reference: &mut Reference,
    leg: &Leg,
    rgb: &Tensor,
    depth: &Tensor,
    dead: bool,
    problems: &mut Vec<String>,
) {
    let LegResult::Served {
        quarantined, print, ..
    } = leg.result
    else {
        return;
    };
    if dead && !quarantined {
        problems.push(format!(
            "frame {} source {}: dead depth was fused, not quarantined",
            leg.frame, leg.source
        ));
    }
    if print != reference.print(rgb, depth, quarantined) {
        problems.push(format!(
            "frame {} source {}: served mask differs from Predictor::run ({})",
            leg.frame,
            leg.source,
            if quarantined { "camera-only" } else { "fused" }
        ));
    }
}

/// `drive_closed` frames are rendered live and not kept (that would
/// inflate the measured RSS), so verification re-renders them — the
/// pipeline is deterministic — on two threads, outside the window.
fn verify_drive(setup: &Setup, pass: &Pass) -> Vec<String> {
    let frames = legs_by_frame(&pass.legs);
    let total = pass.sizing.drive_frames;
    let threads = 2;
    let zeros = Tensor::zeros(&[
        setup.config.depth_channels,
        setup.config.height,
        setup.config.width,
    ]);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|worker| {
                let (frames, zeros) = (&frames, &zeros);
                scope.spawn(move || {
                    let mut reference = Reference::new(setup);
                    let mut problems = Vec::new();
                    for frame in (worker..total).step_by(threads as usize) {
                        let Some(legs) = frames.get(&frame) else {
                            problems.push(format!("frame {frame} has no legs"));
                            continue;
                        };
                        let scene = setup.world.scene_at(frame);
                        let weather = World::weather_at(frame, total);
                        let rendered = setup.world.render(&scene, weather, frame);
                        for leg in legs {
                            let dead = pass.sizing.sensor_dead(frame, leg.source);
                            let depth = rendered.depths.iter().find(|(s, _)| *s == leg.source);
                            let Some((_, depth)) = depth else {
                                problems
                                    .push(format!("frame {frame}: unknown source {}", leg.source));
                                continue;
                            };
                            let depth = if dead { zeros } else { depth };
                            check_leg(
                                &mut reference,
                                leg,
                                &rendered.rgb,
                                depth,
                                dead,
                                &mut problems,
                            );
                        }
                    }
                    problems
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("verifier thread panicked"))
            .collect()
    })
}

/// Pool workloads: every served mask equals the reference of its slot.
fn verify_pool_serving(setup: &Setup, pass: &Pass) -> Vec<String> {
    let mut reference = Reference::new(setup);
    let mounts = setup.world.rig.len();
    let mut expected: Vec<Option<u64>> = vec![None; setup.pool_slots()];
    let mut problems = Vec::new();
    for leg in &pass.legs {
        let LegResult::Served {
            quarantined, print, ..
        } = leg.result
        else {
            continue;
        };
        let slot = match pass.workload {
            Workload::StreamOpen => leg.frame as usize * mounts + leg.source as usize,
            _ => leg.frame as usize,
        } % setup.pool_slots();
        if quarantined {
            problems.push(format!(
                "request {}: healthy pool frame quarantined",
                leg.frame
            ));
        }
        let want = *expected[slot].get_or_insert_with(|| {
            let (rgb, depth) = setup.pool_pair(slot);
            reference.print(rgb, depth, false)
        });
        if print != want {
            problems.push(format!(
                "request {} source {}: served mask differs from Predictor::run",
                leg.frame, leg.source
            ));
        }
    }
    problems
}

/// Share of pixels on which two probability maps agree at threshold 0.5.
fn agreement(a: &[f32], b: &[f32]) -> (usize, usize) {
    let same = a
        .iter()
        .zip(b)
        .filter(|(x, y)| (**x >= 0.5) == (**y >= 0.5))
        .count();
    (same, a.len())
}

/// Int8-vs-f32 mask agreement over `pairs`.
pub fn mask_agreement(
    int8: &mut Predictor,
    f32_ref: &mut Predictor,
    pairs: &[(&Tensor, &Tensor)],
) -> f64 {
    let (mut same, mut total) = (0, 0);
    for (rgb, depth) in pairs {
        let q = int8.run(rgb, depth).expect("int8 run");
        let f = f32_ref.run(rgb, depth).expect("f32 run");
        let (s, t) = agreement(q.prob.data(), f.prob.data());
        same += s;
        total += t;
    }
    same as f64 / total.max(1) as f64
}

/// Minimum int8-vs-f32 agreement the int8 workload must keep.
const MIN_MASK_AGREEMENT: f64 = 0.97;

/// `offline_int8`: the pool repeats, so every later visit of a slot must
/// reproduce the first visit's fingerprint; and the int8 masks must
/// agree with the f32 plan's.
fn verify_offline(setup: &Setup, pass: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    let slots = setup.pool_slots();
    if pass.prints.len() != pass.sizing.offline_calls as usize * OFFLINE_BATCH {
        problems.push(format!("{} outputs recorded", pass.prints.len()));
    }
    for (i, print) in pass.prints.iter().enumerate().skip(slots) {
        if *print != pass.prints[i % slots] {
            problems.push(format!("int8 output {i} differs from its first run"));
            break;
        }
    }
    let profile = setup
        .int8_profile
        .as_ref()
        .expect("offline_int8 set-up calibrated");
    let mut int8 = Predictor::compile_int8(&setup.net, profile).expect("profile covers both plans");
    let mut f32_ref = Predictor::compile(&setup.net);
    let pairs: Vec<_> = (0..slots).map(|s| setup.pool_pair(s)).collect();
    let share = mask_agreement(&mut int8, &mut f32_ref, &pairs);
    if share < MIN_MASK_AGREEMENT {
        problems.push(format!(
            "int8 mask agreement {share:.4} below {MIN_MASK_AGREEMENT}"
        ));
    }
    problems
}

/// The compiled plan against the autograd graph it was frozen from, on
/// four frames: the largest probability delta, which must be exactly 0.
pub fn plan_vs_graph_delta(setup: &Setup, inputs: &[(Tensor, Tensor)]) -> f32 {
    let mut net = setup.net.clone();
    let mut plan = Predictor::compile(&setup.net);
    let (h, w) = (setup.config.height, setup.config.width);
    let mut worst = 0.0f32;
    for (rgb, depth) in inputs.iter().take(4) {
        let mut g = Graph::new();
        let r = g.leaf(rgb.reshape(&[1, 3, h, w]).expect("rgb is [3,H,W]"));
        let d = g.leaf(
            depth
                .reshape(&[1, setup.config.depth_channels, h, w])
                .expect("depth is [C,H,W]"),
        );
        let out = net.forward(&mut g, r, d, Mode::Eval);
        let prob = g.sigmoid(out.logits);
        let planned = plan.run(rgb, depth).expect("plan runs");
        for (a, b) in g.value(prob).data().iter().zip(planned.prob.data()) {
            let delta = (a - b).abs();
            // NaN must fail the check, not vanish in a max().
            worst = if delta.is_nan() {
                f32::INFINITY
            } else {
                worst.max(delta)
            };
        }
    }
    worst
}

/// The fleet's own books: conserved, cross-checked, and matching what
/// the client counted.
fn verify_ledger(pass: &Pass, summary: &Summary, warmup_legs: u64) -> Vec<String> {
    let (Some(before), Some(after)) = (&pass.ledger_before, &pass.ledger_after) else {
        return Vec::new();
    };
    let mut problems = Vec::new();
    if !after.is_conserved() {
        problems.push("fleet ledger is not conserved".to_string());
    }
    if let Err(detail) = after.cross_check() {
        problems.push(format!("fleet cross-check: {detail}"));
    }
    if before.submitted != warmup_legs || before.completed != warmup_legs {
        problems.push(format!("warm-up ledger: {} submitted", before.submitted));
    }
    let delta = |f: fn(&FleetStats) -> u64| f(after) - f(before);
    let served = summary.attempted - summary.failed;
    let books = [
        ("submitted", delta(|s| s.submitted), summary.attempted),
        ("completed", delta(|s| s.completed), served),
        ("rejected", delta(|s| s.rejected), summary.rejected),
        ("expired", delta(|s| s.expired), summary.expired),
        (
            "failed",
            delta(|s| s.failed),
            summary.failed - summary.rejected - summary.expired,
        ),
        ("redirected", delta(|s| s.redirected), 0),
    ];
    for (name, fleet, client) in books {
        if fleet != client {
            problems.push(format!(
                "ledger `{name}`: fleet counted {fleet}, client {client}"
            ));
        }
    }
    problems
}

/// Every output-correctness check that applies to the pass. An empty
/// list means the outputs are correct.
pub fn verify(setup: &Setup, pass: &Pass, summary: &Summary, warmup_legs: u64) -> Vec<String> {
    let mut problems = match pass.workload {
        Workload::DriveClosed => verify_drive(setup, pass),
        Workload::StreamOpen | Workload::SaturateClosed => verify_pool_serving(setup, pass),
        Workload::OfflineInt8 => verify_offline(setup, pass),
    };
    problems.extend(verify_ledger(pass, summary, warmup_legs));
    let inputs = probe_inputs(setup);
    let delta = plan_vs_graph_delta(setup, &inputs);
    if delta != 0.0 {
        problems.push(format!("plan vs graph delta {delta:e}, must be exactly 0"));
    }
    problems
}

/// Nine `(rgb, depth)` pairs on the workload's own shapes: three rig
/// frames rendered under the three weathers the workloads see.
pub fn probe_inputs(setup: &Setup) -> Vec<(Tensor, Tensor)> {
    (0..3u64)
        .flat_map(|frame| {
            let scene = setup.world.scene_at(frame);
            let rendered = setup
                .world
                .render(&scene, World::weather_at(frame + 1, 4), frame);
            let rgb = rendered.rgb;
            rendered
                .depths
                .into_iter()
                .map(move |(_, depth)| (rgb.clone(), depth))
        })
        .collect()
}

/// One reconstructed batch of the traced pass.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Indices into `pass.legs`.
    pub legs: Vec<usize>,
    /// The executor's `batch_probe` timestamp: forward pass about to run.
    pub started: Instant,
    /// How long the batcher sat on the batch after it could have run:
    /// from the later of (newest member admitted, previous batch done).
    pub flush_wait_ms: f64,
}

/// Rebuilds the batches of a traced pass. Each replica serves FIFO, so
/// walking its legs in submit order and cutting at `batch_size`
/// boundaries recovers the batches; the k-th batch's start is the k-th
/// probe timestamp of that replica's executor thread (after warm-up).
///
/// # Errors
///
/// Returns a description if the legs do not tile into batches — which
/// happens when a request expired inside a batch; such a pass is already
/// incorrect.
pub fn reconstruct_batches(pass: &Pass, under_test: &FleetUnderTest) -> Result<Vec<Batch>, String> {
    let mut batches = Vec::new();
    for replica in 0..under_test.warmup_batches.len() {
        let times = under_test.batch_times(replica);
        let served: Vec<usize> = (0..pass.legs.len())
            .filter(|&i| pass.legs[i].replica == replica && pass.legs[i].fulfilled().is_some())
            .collect();
        let mut next_time = under_test.warmup_batches[replica];
        let mut previous_done: Option<Instant> = None;
        let mut i = 0;
        while i < served.len() {
            let LegResult::Served { batch: size, .. } = pass.legs[served[i]].result else {
                unreachable!("filtered to served legs");
            };
            let members = served.get(i..i + size).ok_or_else(|| {
                format!("replica {replica}: batch of {size} overruns the served legs")
            })?;
            if members.iter().any(|&m| {
                !matches!(pass.legs[m].result, LegResult::Served { batch, .. } if batch == size)
            }) {
                return Err(format!("replica {replica}: legs do not tile into batches at leg {i}"));
            }
            let started = *times.get(next_time).ok_or_else(|| {
                format!("replica {replica}: no probe timestamp for batch {next_time}")
            })?;
            let newest = members
                .iter()
                .map(|&m| pass.legs[m].accepted)
                .max()
                .expect("non-empty");
            let ready = previous_done.map_or(newest, |done| done.max(newest));
            batches.push(Batch {
                legs: members.to_vec(),
                started,
                flush_wait_ms: ms(ready, started),
            });
            previous_done = members
                .iter()
                .filter_map(|&m| pass.legs[m].fulfilled())
                .max();
            next_time += 1;
            i += size;
        }
    }
    Ok(batches)
}

/// The batch size most batches of the traced pass had: the occupancy
/// at which the plan is probed for `serve.exec_overhead_ms`.
pub fn typical_occupancy(batches: &[Batch]) -> usize {
    let sizes: Vec<f64> = batches.iter().map(|b| b.legs.len() as f64).collect();
    (percentile_sorted(&sorted(sizes), 50.0) as usize).max(1)
}

/// The `sf-serve`, `sf-dataset`, health and client metrics a pass's own
/// spans and ledgers give. `batches` is empty on the untraced pass.
pub fn span_metrics(
    pass: &Pass,
    summary: &Summary,
    batches: &[Batch],
    plan_at_occupancy_ms: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let med = |values: Vec<f64>| median(&values);
    m.insert("client.latency_p99_ms", summary.p(99.0));
    m.insert("client.latency_max_ms", summary.p(100.0));
    m.insert("client.generator_lag_p95_us", pass.generator_lag_p95_us());

    if !pass.frames.is_empty() {
        let rendering: Vec<f64> = pass
            .frames
            .iter()
            .map(|f| ms(f.occluders_placed, f.rendered))
            .collect();
        let total: f64 = pass.frames.iter().map(|f| ms(f.start, f.done)).sum();
        m.insert(
            "dataset.rig_frame_share",
            rendering.iter().sum::<f64>() / total.max(f64::MIN_POSITIVE),
        );
        m.insert("dataset.rig_frame_ms", med(rendering));
    }

    if let (Some(before), Some(after)) = (&pass.ledger_before, &pass.ledger_after) {
        let forwards: u64 = after.replicas.iter().map(|r| r.batches).sum::<u64>()
            - before.replicas.iter().map(|r| r.batches).sum::<u64>();
        let executed = (after.completed + after.expired + after.failed)
            - (before.completed + before.expired + before.failed);
        m.insert("serve.batches", forwards as f64);
        m.insert(
            "serve.batch_occupancy",
            executed as f64 / forwards.max(1) as f64,
        );
        m.insert("serve.rejected", (after.rejected - before.rejected) as f64);
        m.insert("serve.expired", (after.expired - before.expired) as f64);
        m.insert("serve.stats_snapshot_us", pass.stats_snapshot_us);
        m.insert(
            "runtime.batches_per_forward",
            pass.pool_batches as f64 / forwards.max(1) as f64,
        );
        let quarantined = pass
            .legs
            .iter()
            .filter(|l| {
                matches!(
                    l.result,
                    LegResult::Served {
                        quarantined: true,
                        ..
                    }
                )
            })
            .count();
        m.insert(
            "health.quarantined_share",
            quarantined as f64 / summary.attempted.max(1) as f64,
        );
        m.insert(
            "health.breaker_trips",
            after.replicas.iter().map(|r| r.breaker_trips).sum::<u64>() as f64,
        );
        let per_replica: Vec<u64> = after
            .replicas
            .iter()
            .zip(&before.replicas)
            .map(|(a, b)| a.completed - b.completed)
            .collect();
        let (min, max) = (
            per_replica.iter().min().copied().unwrap_or(0),
            per_replica.iter().max().copied().unwrap_or(0),
        );
        m.insert("fleet.replica_imbalance", max as f64 / min.max(1) as f64);
        m.insert(
            "serve.submit_us",
            med(pass
                .legs
                .iter()
                .map(|l| ms(l.submit, l.accepted) * 1e3)
                .collect()),
        );
    } else {
        // No serving layer: the forwards are the direct plan calls.
        m.insert(
            "runtime.batches_per_forward",
            pass.pool_batches as f64 / pass.calls.len().max(1) as f64,
        );
    }

    if !batches.is_empty() {
        let mut queue_wait = Vec::new();
        let mut exec = Vec::new();
        let mut wake = Vec::new();
        let mut overhead = Vec::new();
        let occupancy = typical_occupancy(batches);
        for batch in batches {
            let mut done = batch.started;
            for &i in &batch.legs {
                let leg = &pass.legs[i];
                let fulfilled = leg.fulfilled().expect("batches hold served legs");
                queue_wait.push(ms(leg.accepted, batch.started));
                exec.push(ms(batch.started, fulfilled));
                wake.push(ms(fulfilled, leg.wake) * 1e3);
                done = done.max(fulfilled);
            }
            // Executor time the plan does not explain (triage, stacking,
            // fulfilment), on the batches of the probed occupancy.
            if batch.legs.len() == occupancy {
                overhead.push(ms(batch.started, done) - plan_at_occupancy_ms);
            }
        }
        m.insert("serve.queue_wait_ms", med(queue_wait));
        m.insert(
            "serve.flush_wait_ms",
            med(batches.iter().map(|b| b.flush_wait_ms).collect()),
        );
        m.insert("serve.exec_ms", med(exec));
        m.insert("serve.exec_overhead_ms", med(overhead));
        m.insert("serve.wake_us", med(wake));
    }
    m
}

/// Acceptance check on `stream_open`: per request, the spans submit +
/// queue wait + exec + wake must add up to the client's own clock
/// (due → `wait()` returned) to within a few percent. Returns the
/// median ratio of span sum to measured latency.
pub fn span_sum_ratio(pass: &Pass, batches: &[Batch]) -> f64 {
    let mut ratios = Vec::new();
    for batch in batches {
        for &i in &batch.legs {
            let leg = &pass.legs[i];
            let Some(fulfilled) = leg.fulfilled() else {
                continue;
            };
            let spans = ms(leg.submit, leg.accepted)
                + ms(leg.accepted, batch.started)
                + ms(batch.started, fulfilled)
                + ms(fulfilled, leg.wake);
            let origin = pass
                .due
                .get(leg.frame as usize)
                .copied()
                .unwrap_or(leg.submit);
            ratios.push(spans / ms(origin, leg.wake).max(f64::MIN_POSITIVE));
        }
    }
    median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_counts_matching_thresholded_pixels() {
        assert_eq!(
            agreement(&[0.9, 0.1, 0.5, 0.49], &[0.6, 0.2, 0.4, 0.3]),
            (3, 4)
        );
    }
}
