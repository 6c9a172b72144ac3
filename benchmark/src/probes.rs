//! Probes: the benchmark calling a lower public function in isolation,
//! on the workload's own shapes. They run only on the traced pass, after
//! the timed window, and report medians.
//!
//! Until spans exist inside the program, probes are how the time inside
//! a convolution (im2col / matmul / quantize) is estimated.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sf_autograd::Graph;
use sf_core::{
    evaluate_with_predictor, load_checkpoint, save_checkpoint, CompiledPlan, DegradationPolicy,
    EvalOptions, HealthThresholds, PlanMode, Predictor,
};
use sf_nn::Mode;
use sf_scene::{depth_image_from_cloud, render_ground_truth, render_rgb_with, Lighting, Weather};
use sf_serve::{DeployOptions, Fleet, FleetConfig, Request, ServeConfig, Server, SourceId};
use sf_tensor::int8::{im2col_i8_into, matmul_i8_into, quantize_i8};
use sf_tensor::{conv2d, conv2d_backward, im2col_into, matmul_into, Conv2dSpec, Tensor, TensorRng};

use crate::measure::{mask_agreement, probe_inputs};
use crate::opkind::{classify, Label, OpKind};
use crate::setup::{Setup, CALIBRATION_FRAMES, DEADLINE, TRAIN_EPOCHS};
use crate::stats::median;

/// Median of `iterations` samples (seconds) that `sample` measures
/// itself, after two discarded warm-up samples.
fn median_secs(iterations: usize, mut sample: impl FnMut() -> f64) -> f64 {
    sample();
    sample();
    let samples: Vec<f64> = (0..iterations).map(|_| sample()).collect();
    median(&samples)
}

/// Median seconds per call of `f`.
fn time_median(iterations: usize, mut f: impl FnMut()) -> f64 {
    median_secs(iterations, || {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    })
}

/// Seconds `kernel` takes on `buffer`, which is cleared first, untimed:
/// im2col needs a zeroed destination (padding taps stay untouched) and
/// the matmuls accumulate into their output.
fn timed_on_cleared<T: Copy + Default>(buffer: &mut [T], kernel: impl FnOnce(&mut [T])) -> f64 {
    buffer.fill(T::default());
    let t = Instant::now();
    kernel(buffer);
    let elapsed = t.elapsed().as_secs_f64();
    black_box(buffer);
    elapsed
}

/// `(M, K, N)` of the two convolutions the kernel probes replay:
/// `dec4.conv` (8→8 at 32×96) and `enc1.rgb.conv` (8→12 at 16×48).
const CONV_SHAPES: [ConvShape; 2] = [
    ConvShape {
        out_channels: 8,
        in_channels: 8,
        height: 32,
        width: 96,
    },
    ConvShape {
        out_channels: 12,
        in_channels: 8,
        height: 16,
        width: 48,
    },
];

struct ConvShape {
    out_channels: usize,
    in_channels: usize,
    height: usize,
    width: usize,
}

impl ConvShape {
    fn k(&self) -> usize {
        self.in_channels * 9
    }
    fn n(&self) -> usize {
        self.height * self.width
    }
    fn plane(&self) -> usize {
        self.in_channels * self.height * self.width
    }
}

type Metrics = BTreeMap<&'static str, f64>;

fn scene_probes(setup: &Setup, m: &mut Metrics) {
    let world = &setup.world;
    // The heaviest phase of drive_closed: the rain front.
    let weather = Weather::rain(0.6);
    let scene = world.scene_at(17);
    let roof = world.rig.mounts()[0].spec;
    let mut rng = TensorRng::seed_from(setup.seeds.rig);
    let cloud = roof.scan_with(&scene, weather, &mut rng);
    m.insert(
        "scene.render_rgb_ms",
        1e3 * time_median(20, || {
            black_box(render_rgb_with(
                &scene,
                &world.camera,
                Lighting::day(),
                weather,
            ));
        }),
    );
    m.insert(
        "scene.ground_truth_ms",
        1e3 * time_median(20, || {
            black_box(render_ground_truth(&scene, &world.camera));
        }),
    );
    m.insert(
        "scene.lidar_scan_ms",
        1e3 * time_median(20, || {
            black_box(roof.scan_with(&scene, weather, &mut rng));
        }),
    );
    m.insert(
        "scene.depth_image_ms",
        1e3 * time_median(20, || {
            black_box(depth_image_from_cloud(
                &cloud,
                &world.camera,
                roof.max_range,
                2,
            ));
        }),
    );
    let mut frame = 0;
    m.insert(
        "scene.occluder_step_us",
        1e6 * time_median(50, || {
            frame += 1;
            black_box(world.scene_at(frame));
        }),
    );
}

/// Stacks the first `n` probe inputs into `[n, C, H, W]` batches.
fn stacked(inputs: &[(Tensor, Tensor)], n: usize) -> (Tensor, Tensor) {
    let rgb: Vec<&Tensor> = inputs[..n].iter().map(|p| &p.0).collect();
    let depth: Vec<&Tensor> = inputs[..n].iter().map(|p| &p.1).collect();
    (
        Tensor::stack_refs(&rgb).expect("rgb frames stack"),
        Tensor::stack_refs(&depth).expect("depth frames stack"),
    )
}

/// Median wall time of `plan.run_batch` on a batch of `n`, milliseconds.
fn plan_ms(plan: &mut CompiledPlan, inputs: &[(Tensor, Tensor)], n: usize) -> f64 {
    let (rgb, depth) = stacked(inputs, n);
    1e3 * time_median(if n == 1 { 40 } else { 20 }, || {
        black_box(plan.run_batch(&rgb, Some(&depth)).expect("plan runs"));
    })
}

/// Per-op-kind time of one plan pass, and the pass's whole wall time
/// while observed (both medians, milliseconds). Per-op time is the gap
/// between `run_batch_observed` callbacks, grouped by label: the callback
/// for an op fires right after it wrote its output, so the gap since the
/// previous callback is that op's time.
///
/// # Panics
///
/// Panics on a label [`classify`] does not know — dropping its time
/// silently would corrupt the profile.
fn op_profile(
    plan: &mut CompiledPlan,
    inputs: &[(Tensor, Tensor)],
    n: usize,
) -> (BTreeMap<OpKind, f64>, f64) {
    let (rgb, depth) = stacked(inputs, n);
    let mut per_kind: BTreeMap<OpKind, Vec<f64>> = BTreeMap::new();
    let observed_ms = 1e3
        * time_median(20, || {
            let mut sums: BTreeMap<OpKind, f64> = BTreeMap::new();
            let mut last = Instant::now();
            plan.run_batch_observed(&rgb, Some(&depth), &mut |label, _| {
                let now = Instant::now();
                match classify(label).unwrap_or_else(|e| panic!("{e}")) {
                    Label::Input => {}
                    Label::Op(kind) => {
                        *sums.entry(kind).or_insert(0.0) += now.duration_since(last).as_secs_f64();
                    }
                }
                last = Instant::now();
            })
            .expect("plan runs");
            for (kind, seconds) in sums {
                per_kind.entry(kind).or_default().push(seconds * 1e3);
            }
        });
    let profile = per_kind
        .into_iter()
        .map(|(kind, per_pass)| (kind, median(&per_pass)))
        .collect();
    (profile, observed_ms)
}

const OP_MS: [&str; 5] = [
    "plan.op_ms.conv3x3",
    "plan.op_ms.conv1x1",
    "plan.op_ms.pool",
    "plan.op_ms.upsample",
    "plan.op_ms.sigmoid",
];
const OP_MS_B8: [&str; 5] = [
    "plan.op_ms_b8.conv3x3",
    "plan.op_ms_b8.conv1x1",
    "plan.op_ms_b8.pool",
    "plan.op_ms_b8.upsample",
    "plan.op_ms_b8.sigmoid",
];
const INT8_OP_MS: [&str; 5] = [
    "plan.int8_op_ms.conv3x3",
    "plan.int8_op_ms.conv1x1",
    "plan.int8_op_ms.pool",
    "plan.int8_op_ms.upsample",
    "plan.int8_op_ms.sigmoid",
];

fn insert_profile(m: &mut Metrics, names: [&'static str; 5], profile: &BTreeMap<OpKind, f64>) {
    for (name, kind) in names.into_iter().zip(OpKind::REPORTED) {
        debug_assert!(name.ends_with(kind.name()));
        m.insert(name, profile.get(&kind).copied().unwrap_or(0.0));
    }
}

fn plan_and_quant_probes(
    setup: &Setup,
    inputs: &[(Tensor, Tensor)],
    occupancy: usize,
    m: &mut Metrics,
) {
    let net = &setup.net;
    m.insert(
        "plan.compile_ms",
        1e3 * time_median(5, || {
            black_box(Predictor::compile(net));
        }),
    );
    let mut fused = CompiledPlan::compile(net, PlanMode::Fused);
    let mut camera = CompiledPlan::compile(net, PlanMode::CameraOnly);
    let fused_b1 = plan_ms(&mut fused, inputs, 1);
    let fused_b8 = plan_ms(&mut fused, inputs, 8);
    m.insert("plan.fused_b1_ms", fused_b1);
    m.insert("plan.fused_b8_ms", fused_b8);
    m.insert("plan.camera_b1_ms", plan_ms(&mut camera, inputs, 1));
    m.insert("plan.camera_b8_ms", plan_ms(&mut camera, inputs, 8));
    m.insert("plan.b8_speedup", 8.0 * fused_b1 / fused_b8);
    m.insert(
        FUSED_AT_OCCUPANCY_MS,
        plan_ms(&mut fused, inputs, occupancy),
    );
    m.insert(
        "plan.reservation_kib",
        fused.reservation_per_image() as f64 * 4.0 / 1024.0,
    );

    let (b1_profile, observed_b1) = op_profile(&mut fused, inputs, 1);
    insert_profile(m, OP_MS, &b1_profile);
    insert_profile(m, OP_MS_B8, &op_profile(&mut fused, inputs, 8).0);
    m.insert("plan.observer_overhead_share", observed_b1 / fused_b1 - 1.0);

    let (rgb8, depth8): (Vec<&Tensor>, Vec<&Tensor>) =
        inputs[..8].iter().map(|p| (&p.0, &p.1)).unzip();
    m.insert(
        "plan.stack_us",
        1e6 * time_median(50, || {
            black_box(Tensor::stack_refs(&rgb8).expect("stack"));
            black_box(Tensor::stack_refs(&depth8).expect("stack"));
        }),
    );

    // sf-quant: calibrate on the same frames set-up would, then lower.
    let train = setup.dataset.train(None);
    let frames = &train[..CALIBRATION_FRAMES];
    m.insert(
        "quant.calibrate_ms",
        1e3 * time_median(3, || {
            black_box(sf_quant::calibrate(net, frames));
        }),
    );
    let profile = sf_quant::calibrate(net, frames);
    let mut int8 =
        CompiledPlan::compile_int8(net, &profile, PlanMode::Int8).expect("profile covers the plan");
    let int8_b8 = plan_ms(&mut int8, inputs, 8);
    m.insert("plan.int8_b1_ms", plan_ms(&mut int8, inputs, 1));
    m.insert("plan.int8_b8_ms", int8_b8);
    insert_profile(m, INT8_OP_MS, &op_profile(&mut int8, inputs, 8).0);
    m.insert(
        "quant.weight_bytes_ratio",
        int8.weight_bytes() as f64 / fused.weight_bytes() as f64,
    );
    m.insert("quant.int8_vs_f32_ratio", fused_b8 / int8_b8);

    let mut int8_predictor = Predictor::compile_int8(net, &profile).expect("profile covers both");
    let mut f32_predictor = Predictor::compile(net);
    let pairs: Vec<(&Tensor, &Tensor)> = inputs.iter().map(|p| (&p.0, &p.1)).collect();
    m.insert(
        "quant.mask_agreement",
        mask_agreement(&mut int8_predictor, &mut f32_predictor, &pairs),
    );

    // Quality on the held-out frames: invariants for a given seed.
    let test = setup.dataset.test(None);
    let options = EvalOptions::default();
    let (f32_eval, _) =
        evaluate_with_predictor(f32_predictor, &test, &setup.world.camera, &options);
    let (int8_eval, _) =
        evaluate_with_predictor(int8_predictor, &test, &setup.world.camera, &options);
    m.insert("quality.maxf_f32", f32_eval.f_score);
    m.insert("quality.maxf_int8", int8_eval.f_score);
}

fn tensor_probes(m: &mut Metrics) {
    let mut rng = TensorRng::seed_from(7);
    let spec = Conv2dSpec::same(3);
    let (mut flops, mut matmul_s, mut i8_s) = (0.0, 0.0, 0.0);
    let (mut f32_bytes, mut im2col_s) = (0.0, 0.0);
    let (mut i8_bytes, mut im2col_i8_s) = (0.0, 0.0);
    let (mut quant_bytes, mut quant_s) = (0.0, 0.0);
    for shape in &CONV_SHAPES {
        let (mm, k, n) = (shape.out_channels, shape.k(), shape.n());
        let (c, h, w) = (shape.in_channels, shape.height, shape.width);
        let weights = rng.uniform(&[mm * k], -1.0, 1.0);
        let image = rng.uniform(&[shape.plane()], 0.0, 1.0);
        let mut patches = vec![0.0f32; k * n];
        let mut out = vec![0.0f32; mm * n];

        im2col_s += median_secs(30, || {
            timed_on_cleared(&mut patches, |dst| {
                im2col_into(image.data(), c, h, w, 3, 3, spec, dst, n, 0);
            })
        });
        matmul_s += median_secs(30, || {
            timed_on_cleared(&mut out, |dst| {
                matmul_into(weights.data(), &patches, dst, mm, k, n)
            })
        });
        flops += 2.0 * (mm * k * n) as f64;
        // Bytes moved, computed from the shapes: the image read once, the
        // patch matrix written once.
        f32_bytes += 4.0 * (shape.plane() + k * n) as f64;

        let mut q_image = vec![0i8; shape.plane()];
        quant_s += time_median(30, || {
            quantize_i8(image.data(), 1.0 / 127.0, &mut q_image);
            black_box(&q_image);
        });
        quant_bytes += 5.0 * shape.plane() as f64;
        let (q_weights, _) = sf_tensor::int8::quantize_per_row(weights.data(), mm);
        let mut q_patches = vec![0i8; k * n];
        let mut acc = vec![0i32; mm * n];
        im2col_i8_s += median_secs(30, || {
            timed_on_cleared(&mut q_patches, |dst| {
                im2col_i8_into(&q_image, c, h, w, 3, 3, spec, dst, n, 0);
            })
        });
        i8_bytes += (shape.plane() + k * n) as f64;
        i8_s += median_secs(30, || {
            timed_on_cleared(&mut acc, |dst| {
                matmul_i8_into(&q_weights, &q_patches, dst, mm, k, n)
            })
        });
    }
    m.insert("tensor.matmul_f32_gflops", flops / matmul_s / 1e9);
    m.insert("tensor.im2col_f32_gbps", f32_bytes / im2col_s / 1e9);
    m.insert("tensor.matmul_i8_gops", flops / i8_s / 1e9);
    m.insert("tensor.im2col_i8_gbps", i8_bytes / im2col_i8_s / 1e9);
    m.insert("tensor.quantize_i8_gbps", quant_bytes / quant_s / 1e9);

    // The training path's use of the same kernels: 8→12, 16×48, batch 4.
    let x = rng.uniform(&[4, 8, 16, 48], 0.0, 1.0);
    let w = rng.uniform(&[12, 8, 3, 3], -0.5, 0.5);
    let grad = rng.uniform(&[4, 12, 16, 48], -1.0, 1.0);
    m.insert(
        "tensor.conv2d_fwd_us",
        1e6 * time_median(30, || {
            black_box(conv2d(&x, &w, None, spec).expect("conv2d"));
        }),
    );
    m.insert(
        "tensor.conv2d_bwd_us",
        1e6 * time_median(30, || {
            black_box(conv2d_backward(&x, &w, &grad, spec).expect("conv2d_backward"));
        }),
    );
}

fn runtime_and_health_probes(setup: &Setup, inputs: &[(Tensor, Tensor)], m: &mut Metrics) {
    let threads = sf_runtime::num_threads();
    m.insert("runtime.threads", threads as f64);
    m.insert(
        "runtime.dispatch_us",
        1e6 * time_median(200, || {
            sf_runtime::parallel_for(threads, |i| {
                black_box(i);
            })
        }),
    );
    let thresholds = HealthThresholds::default();
    let depth = &inputs[0].1;
    m.insert(
        "health.assess_us",
        1e6 * time_median(200, || {
            black_box(DegradationPolicy::CameraFallback.quarantine_depth(depth, &thresholds));
        }),
    );
    m.insert(
        "tensor.scratch_peak_kib",
        sf_tensor::scratch::pool_stats().peak_bytes as f64 / 1024.0,
    );
    m.insert(
        "train.epoch_ms",
        1e3 * setup.times.train_s / TRAIN_EPOCHS as f64,
    );
    m.insert("dataset.pool_render_s", setup.times.pool_render_s);
    if !setup.times.rig_frame_ms.is_empty() {
        m.insert("dataset.rig_frame_ms", median(&setup.times.rig_frame_ms));
    }
}

/// Median `submit` call time over `n` one-at-a-time requests.
fn submit_us<C>(
    inputs: &[(Tensor, Tensor)],
    n: usize,
    submit: impl Fn(Request) -> C,
    wait: impl Fn(C),
) -> f64 {
    let samples: Vec<f64> = (0..n + 2)
        .map(|i| {
            let (rgb, depth) = &inputs[i % inputs.len()];
            let request =
                Request::new(rgb.clone(), depth.clone()).with_source(SourceId(i as u64 % 3));
            let t = Instant::now();
            let completion = submit(request);
            let elapsed = t.elapsed().as_secs_f64() * 1e6;
            wait(completion);
            elapsed
        })
        .collect();
    median(&samples[2..])
}

fn fleet_probes(setup: &Setup, inputs: &[(Tensor, Tensor)], m: &mut Metrics) {
    let serve = ServeConfig::builder()
        .default_deadline(DEADLINE)
        .build()
        .expect("probe serve config is valid");
    let server = Server::start(setup.net.clone(), serve.clone()).expect("probe server starts");
    let direct = submit_us(
        inputs,
        64,
        |r| server.submit(r).expect("probe request admitted"),
        |c| drop(c.wait()),
    );
    drop(server);
    let fleet = Fleet::start(
        setup.net.clone(),
        FleetConfig {
            replicas: 1,
            seed: setup.seeds.fleet,
            serve,
            ..FleetConfig::default()
        },
    )
    .expect("probe fleet starts");
    let routed = submit_us(
        inputs,
        64,
        |r| fleet.submit(r).expect("probe request admitted"),
        |c| drop(c.wait()),
    );
    m.insert("fleet.submit_overhead_us", routed - direct);
    m.insert(
        "fleet.route_us",
        1e6 * time_median(200, || {
            black_box(fleet.route_preview(Some(SourceId(1))));
        }),
    );
    m.insert(
        "fleet.deploy_ms",
        1e3 * time_median(3, || {
            fleet
                .deploy(setup.net.clone(), DeployOptions::default())
                .expect("same-geometry deploy");
        }),
    );
    drop(fleet.shutdown());
}

fn model_probes(setup: &Setup, inputs: &[(Tensor, Tensor)], out_dir: &Path, m: &mut Metrics) {
    let path = out_dir.join("probe_checkpoint.sfm");
    let mut net = setup.net.clone();
    m.insert(
        "checkpoint.roundtrip_ms",
        1e3 * time_median(3, || {
            save_checkpoint(&mut net, &path).expect("checkpoint saves");
            black_box(load_checkpoint(&path).expect("checkpoint loads"));
        }),
    );
    let _ = std::fs::remove_file(&path);

    let (h, w) = (setup.config.height, setup.config.width);
    let rgb = inputs[0].0.reshape(&[1, 3, h, w]).expect("rgb is [3,H,W]");
    let depth = inputs[0]
        .1
        .reshape(&[1, setup.config.depth_channels, h, w])
        .expect("depth is [C,H,W]");
    m.insert(
        "autograd.graph_forward_b1_ms",
        1e3 * time_median(10, || {
            let mut g = Graph::new();
            let r = g.leaf(rgb.clone());
            let d = g.leaf(depth.clone());
            let out = net.forward(&mut g, r, d, Mode::Eval);
            let prob = g.sigmoid(out.logits);
            black_box(g.value(prob));
        }),
    );
}

/// Not a reported metric: the fused plan at the traced pass's typical
/// batch occupancy, which `serve.exec_overhead_ms` subtracts.
pub const FUSED_AT_OCCUPANCY_MS: &str = "(plan.fused_at_occupancy_ms)";

/// Runs every probe. `occupancy` is the batch size to probe the fused
/// plan at besides 1 and 8; `out_dir` receives (and loses again) the
/// checkpoint round-trip's scratch file.
pub fn run_probes(setup: &Setup, occupancy: usize, out_dir: &Path) -> Metrics {
    let mut m = Metrics::new();
    let inputs = probe_inputs(setup);
    scene_probes(setup, &mut m);
    plan_and_quant_probes(setup, &inputs, occupancy.clamp(1, 8), &mut m);
    tensor_probes(&mut m);
    runtime_and_health_probes(setup, &inputs, &mut m);
    fleet_probes(setup, &inputs, &mut m);
    model_probes(setup, &inputs, out_dir, &mut m);
    m
}
