//! Int8 quantization sweep — calibration-set size × batch size.
//!
//! The paper's efficiency argument is architectural (fusion filters cut
//! MACs); this experiment measures the orthogonal deployment lever:
//! post-training int8 quantization of the compiled plan. For every
//! (calibration frames, batch size) cell we report the int8 model's
//! MaxF/IOU and their deltas against the f32 baseline, sustained
//! single-core throughput of both precisions, and a fingerprint of the
//! int8 output — each cell runs its forward pass twice and the cell is
//! only marked reproducible when both passes produce bit-identical
//! probabilities (i32 accumulation is exactly associative, so they must).

use std::time::Instant;

use sf_core::{
    evaluate_with_predictor, CompiledPlan, EvalOptions, FusionScheme, PlanMode, Predictor,
};
use sf_dataset::{Sample, SegmentationEval};
use sf_quant::calibrate;
use sf_tensor::Tensor;

use crate::experiments::Bundle;
use crate::{ExperimentScale, TextTable};

/// One (calibration size, batch size) measurement.
#[derive(Debug, Clone)]
pub struct QuantCell {
    /// Calibration frames used for the activation scales.
    pub calib: usize,
    /// Images per forward pass in the timed window.
    pub batch: usize,
    /// Int8 MaxF on the pooled test split, ×100.
    pub int8_f: f64,
    /// Int8 − f32 MaxF delta, ×100 (negative = int8 worse).
    pub delta_f: f64,
    /// Int8 IOU on the pooled test split, ×100.
    pub int8_iou: f64,
    /// Int8 − f32 IOU delta, ×100.
    pub delta_iou: f64,
    /// f32 fused-plan throughput, images per second.
    pub f32_ips: f64,
    /// Int8 fused-plan throughput, images per second.
    pub int8_ips: f64,
    /// FNV-1a hash of the int8 output's f32 bit patterns.
    pub fingerprint: u64,
    /// Whether two back-to-back int8 passes were bit-identical.
    pub reproducible: bool,
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct QuantResult {
    /// Calibration sizes swept (outer grid axis).
    pub calib_sizes: Vec<usize>,
    /// Batch sizes swept (inner grid axis).
    pub batch_sizes: Vec<usize>,
    /// f32 baseline on the pooled test split.
    pub f32_eval: SegmentationEval,
    /// Row-major grid, calibration-major then batch order.
    pub cells: Vec<QuantCell>,
    /// f32 fused-plan weight bytes.
    pub f32_weight_bytes: usize,
    /// Int8 fused-plan weight bytes (i8 grids + scale blocks).
    pub int8_weight_bytes: usize,
}

impl QuantResult {
    /// The measured cell for a grid point.
    pub fn cell(&self, calib: usize, batch: usize) -> Option<&QuantCell> {
        self.cells
            .iter()
            .find(|c| c.calib == calib && c.batch == batch)
    }

    /// Weight compression ratio (f32 bytes / int8 bytes).
    pub fn compression(&self) -> f64 {
        self.f32_weight_bytes as f64 / self.int8_weight_bytes.max(1) as f64
    }

    /// The largest-batch cell at the largest calibration size — the cell
    /// the throughput acceptance bar applies to.
    pub fn headline_cell(&self) -> &QuantCell {
        let calib = *self.calib_sizes.iter().max().expect("non-empty grid");
        let batch = *self.batch_sizes.iter().max().expect("non-empty grid");
        self.cell(calib, batch).expect("grid is fully populated")
    }
}

/// Sweep grid for a scale: (calibration sizes, batch sizes, timed reps).
fn grid(scale: ExperimentScale) -> (Vec<usize>, Vec<usize>, usize) {
    match scale {
        ExperimentScale::Full => (vec![1, 4, 16], vec![1, 4, 8], 24),
        ExperimentScale::Quick => (vec![1, 4], vec![1, 2], 2),
    }
}

/// Runs the sweep on a trained AllFilter_U network.
pub fn run(scale: ExperimentScale) -> QuantResult {
    let bundle = Bundle::new(scale);
    let alpha = scale.train_config().alpha;
    let (net, _) = bundle.train_scheme(FusionScheme::AllFilterU, alpha);
    let camera = bundle.data.config().camera();
    let options = EvalOptions::default();
    let test = bundle.data.test(None);
    let train = bundle.data.train(None);

    let (f32_eval, _) = evaluate_with_predictor(Predictor::compile(&net), &test, &camera, &options);
    let mut f32_plan = CompiledPlan::compile(&net, PlanMode::Fused);
    let f32_weight_bytes = f32_plan.weight_bytes();

    let (calib_sizes, batch_sizes, reps) = grid(scale);
    let mut cells = Vec::new();
    let mut int8_weight_bytes = 0;
    for &calib in &calib_sizes {
        let frames: Vec<&Sample> = train.iter().copied().take(calib).collect();
        let profile = calibrate(&net, &frames);
        let predictor = Predictor::compile_int8(&net, &profile)
            .expect("calibration on real frames covers every boundary");
        let (int8_eval, _) = evaluate_with_predictor(predictor, &test, &camera, &options);
        let mut int8_plan = CompiledPlan::compile_int8(&net, &profile, PlanMode::Int8)
            .expect("profile covers the fused plan");
        int8_weight_bytes = int8_plan.weight_bytes();
        for &batch in &batch_sizes {
            let (rgb, depth) = batched_input(&test, batch);
            let f32_ips = time_ips(&mut f32_plan, &rgb, &depth, batch, reps);
            let int8_ips = time_ips(&mut int8_plan, &rgb, &depth, batch, reps);
            let first = fingerprint(
                &int8_plan
                    .run_batch(&rgb, Some(&depth))
                    .expect("valid batch"),
            );
            let second = fingerprint(
                &int8_plan
                    .run_batch(&rgb, Some(&depth))
                    .expect("valid batch"),
            );
            cells.push(QuantCell {
                calib,
                batch,
                int8_f: int8_eval.f_score,
                delta_f: int8_eval.f_score - f32_eval.f_score,
                int8_iou: int8_eval.iou,
                delta_iou: int8_eval.iou - f32_eval.iou,
                f32_ips,
                int8_ips,
                fingerprint: first,
                reproducible: first == second,
            });
        }
    }
    QuantResult {
        calib_sizes,
        batch_sizes,
        f32_eval,
        cells,
        f32_weight_bytes,
        int8_weight_bytes,
    }
}

/// Stacks `n` test frames (cycling if needed) into `[N,C,H,W]` batches.
fn batched_input(samples: &[&Sample], n: usize) -> (Tensor, Tensor) {
    let rgb_shape = samples[0].rgb.shape().to_vec();
    let depth_shape = samples[0].depth.shape().to_vec();
    let mut rgb = Vec::with_capacity(n * samples[0].rgb.numel());
    let mut depth = Vec::with_capacity(n * samples[0].depth.numel());
    for i in 0..n {
        let s = samples[i % samples.len()];
        rgb.extend_from_slice(s.rgb.data());
        depth.extend_from_slice(s.depth.data());
    }
    let mut rs = vec![n];
    rs.extend_from_slice(&rgb_shape);
    let mut ds = vec![n];
    ds.extend_from_slice(&depth_shape);
    (
        Tensor::from_vec(rgb, &rs).expect("stacked rgb shape"),
        Tensor::from_vec(depth, &ds).expect("stacked depth shape"),
    )
}

/// Times `reps` forward passes and returns images per second.
fn time_ips(
    plan: &mut CompiledPlan,
    rgb: &Tensor,
    depth: &Tensor,
    batch: usize,
    reps: usize,
) -> f64 {
    // One warm pass so allocator growth of the scratch arena is not timed.
    plan.run_batch(rgb, Some(depth)).expect("valid batch");
    let started = Instant::now();
    for _ in 0..reps {
        plan.run_batch(rgb, Some(depth)).expect("valid batch");
    }
    (reps * batch) as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// FNV-1a over the probability map's exact bit patterns.
fn fingerprint(t: &Tensor) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in t.data() {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Renders the sweep table plus the weight-compression and
/// reproducibility summary recorded in `results/bench.txt`.
pub fn render(result: &QuantResult) -> String {
    let mut out = String::new();
    out.push_str("Int8 quantization sweep (AllFilter_U, fused plan)\n");
    out.push_str(&format!(
        "weights: {} B f32 -> {} B int8 ({:.2}x smaller)\n",
        result.f32_weight_bytes,
        result.int8_weight_bytes,
        result.compression()
    ));
    out.push_str(&format!(
        "f32 baseline: MaxF {:.2}, IOU {:.2}\n\n",
        result.f32_eval.f_score, result.f32_eval.iou
    ));
    let mut table = TextTable::new(vec![
        "calib",
        "batch",
        "MaxF",
        "dMaxF",
        "IOU",
        "dIOU",
        "f32 img/s",
        "int8 img/s",
        "ratio",
        "fingerprint",
        "repro",
    ]);
    for c in &result.cells {
        table.add_row(vec![
            format!("{}", c.calib),
            format!("{}", c.batch),
            format!("{:.2}", c.int8_f),
            format!("{:+.2}", c.delta_f),
            format!("{:.2}", c.int8_iou),
            format!("{:+.2}", c.delta_iou),
            format!("{:.1}", c.f32_ips),
            format!("{:.1}", c.int8_ips),
            format!("{:.2}x", c.int8_ips / c.f32_ips.max(1e-9)),
            format!("{:016x}", c.fingerprint),
            if c.reproducible { "yes" } else { "NO" }.to_string(),
        ]);
    }
    out.push_str(&table.render());
    let headline = result.headline_cell();
    if headline.int8_ips >= headline.f32_ips {
        out.push_str(&format!(
            "\nnote: int8 is faster than f32 on the largest batch cell \
             (calib {}, batch {}: {:.1} vs {:.1} img/s; kernel ISA: {}).\n",
            headline.calib,
            headline.batch,
            headline.int8_ips,
            headline.f32_ips,
            sf_tensor::kernel_isa()
        ));
    } else {
        out.push_str(&format!(
            "\nnote: int8 trails f32 on the largest batch cell (calib {}, batch {}: \
             {:.1} vs {:.1} img/s). Both precisions run the same register-tiled \
             GEMM (kernel ISA: {}): the i8 operands are widened to i32 lanes, so \
             int8 retires the same multiply count as f32 and wins only the \
             narrower im2col traffic, less its activation-quantize and dequantize \
             passes; the deploy wins are the {:.2}x weight compression and the \
             bounded accuracy delta.\n",
            headline.calib,
            headline.batch,
            headline.int8_ips,
            headline.f32_ips,
            sf_tensor::kernel_isa(),
            result.compression()
        ));
    }
    out.push_str("MaxF/IOU are calibration-size dependent only; throughput cells share the\n");
    out.push_str("calibration row's scales. Fingerprints hash the int8 probability bits —\n");
    out.push_str("identical across reruns of the same grid cell.\n");
    out
}
