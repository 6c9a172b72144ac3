//! Freezing a [`FusionNet`] into a flat op list with a static scratch
//! schedule.
//!
//! Compilation walks the network's [`stage wiring`](FusionNet::stage_wiring)
//! once and emits a linear sequence of [`PlanOp`]s with every shape
//! pre-computed. Three rewrites happen on the way:
//!
//! - **Epilogue fusion** — each convolution op carries its bias add, the
//!   folded inference-mode BatchNorm constants and the ReLU, applied in one
//!   pass over the output instead of four broadcast passes.
//! - **Sum folding** — every element-wise fusion sum (Eq. 2, decoder
//!   skips, the AB reverse filter) is folded into the producing kernel as
//!   an `accumulate` operand, so the sum costs zero extra passes.
//! - **Dead-branch elimination** — a [`PlanMode::CameraOnly`] plan simply
//!   never emits the depth column or any fusion op; degraded traffic
//!   executes exactly one branch.
//!
//! After emission a linear-scan allocator assigns every intermediate value
//! to a reusable slot (exact-size free list, values freed after their last
//! use), yielding an exact peak-memory reservation at plan time — the
//! executor never consults the per-thread free list the graph path's
//! tensors allocate through.

use std::collections::HashMap;
use std::fmt;

use sf_nn::BatchNorm2d;
use sf_tensor::int8::quantize_per_row;
use sf_tensor::{Conv2dSpec, Tensor};

use super::quant::{CalibrationProfile, QuantError, INPUT_DEPTH, INPUT_RGB};
use crate::awn::AuxiliaryWeightNetwork;
use crate::network::{DepthContribution, FusionNet};
use crate::stage::EncoderStage;

/// Which branch set a plan freezes, and at what precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Both branches and the configured fusion mechanism.
    Fused,
    /// Only the RGB column: the depth branch, Fusion-filters and AWN are
    /// dead-branch eliminated at compile time.
    CameraOnly,
    /// [`PlanMode::Fused`] topology with every convolution lowered to
    /// int8 (per-channel weight scales, calibrated activation scales,
    /// i32 accumulation). Fusion sums, pooling, AWN and the sigmoid
    /// head stay f32 — branch mixing happens after dequantization.
    Int8,
    /// [`PlanMode::CameraOnly`] topology with int8 convolutions.
    Int8CameraOnly,
}

impl PlanMode {
    /// Whether a plan in this mode consumes the depth input.
    pub fn needs_depth(self) -> bool {
        matches!(self, PlanMode::Fused | PlanMode::Int8)
    }

    /// Whether this mode lowers convolutions to int8.
    pub fn is_int8(self) -> bool {
        matches!(self, PlanMode::Int8 | PlanMode::Int8CameraOnly)
    }
}

impl fmt::Display for PlanMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanMode::Fused => write!(f, "fused"),
            PlanMode::CameraOnly => write!(f, "camera-only"),
            PlanMode::Int8 => write!(f, "int8"),
            PlanMode::Int8CameraOnly => write!(f, "int8-camera-only"),
        }
    }
}

/// A value source: one of the two external inputs or a scratch slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ref {
    Rgb,
    Depth,
    Slot(usize),
}

impl fmt::Display for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ref::Rgb => write!(f, "rgb"),
            Ref::Depth => write!(f, "depth"),
            Ref::Slot(s) => write!(f, "s{s}"),
        }
    }
}

/// Pre-computed convolution geometry (per image).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvGeom {
    pub in_c: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub out_c: usize,
    pub k: usize,
    pub spec: Conv2dSpec,
    pub oh: usize,
    pub ow: usize,
}

impl ConvGeom {
    pub fn patch(&self) -> usize {
        self.in_c * self.k * self.k
    }

    pub fn cols(&self) -> usize {
        self.oh * self.ow
    }

    pub fn in_plane(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    pub fn out_plane(&self) -> usize {
        self.out_c * self.cols()
    }
}

/// Inference-mode BatchNorm folded to four per-channel constants. The
/// epilogue applies `((v − mean[c]) · scale[c]) · gamma[c] + beta[c]` —
/// the same four f32 operations, in the same order, as the graph path's
/// broadcast `sub → mul → mul → add` chain, so results stay bit-identical
/// (the constants are deliberately *not* algebraically merged).
#[derive(Debug, Clone)]
pub(crate) struct BnFold {
    pub mean: Vec<f32>,
    pub scale: Vec<f32>,
    pub gamma: Vec<f32>,
    pub beta: Vec<f32>,
}

fn fold_bn(bn: &BatchNorm2d) -> BnFold {
    BnFold {
        mean: bn.running_mean().data().to_vec(),
        // The identical expression `Graph::batch_norm_infer` builds its
        // scale leaf with, so every per-channel constant matches bit-wise.
        scale: bn
            .running_var()
            .map(|v| 1.0 / (v + bn.eps()).sqrt())
            .into_vec(),
        gamma: bn.gamma().value.data().to_vec(),
        beta: bn.beta().value.data().to_vec(),
    }
}

/// A convolution with its fused epilogue: `im2col · W` then, per output
/// element in one pass: `+bias[c]`, folded BatchNorm, ReLU, `+accumulate`.
#[derive(Debug, Clone)]
pub(crate) struct ConvOp {
    pub label: String,
    pub input: Ref,
    /// Weights reshaped to `[out_c, patch]` at compile time.
    pub wmat: Tensor,
    pub bias: Option<Vec<f32>>,
    pub bn: Option<BnFold>,
    pub relu: bool,
    /// Folded element-wise sum: the referenced value is added to each
    /// output element after the epilogue.
    pub accumulate: Option<Ref>,
    pub out: usize,
    pub geom: ConvGeom,
}

/// [`ConvOp`] lowered to int8: the weight matrix quantized per output
/// channel, the input plane quantized with one calibrated activation
/// scale, products accumulated in i32 and dequantized through
/// `in_scale · wscale[oc]` before the (still-f32) epilogue.
#[derive(Debug, Clone)]
pub(crate) struct QConvOp {
    pub label: String,
    pub input: Ref,
    /// Quantized weights, row-major `[out_c, patch]`.
    pub wq: Vec<i8>,
    /// One symmetric weight scale per output channel.
    pub wscale: Vec<f32>,
    /// The input activation's calibrated scale.
    pub in_scale: f32,
    pub bias: Option<Vec<f32>>,
    pub bn: Option<BnFold>,
    pub relu: bool,
    pub accumulate: Option<Ref>,
    pub out: usize,
    pub geom: ConvGeom,
}

impl QConvOp {
    /// i8 workspace elements per image: the quantized input plane plus
    /// the int8 im2col patch matrix.
    pub fn q_ws(&self) -> usize {
        self.geom.in_plane() + self.geom.patch() * self.geom.cols()
    }

    /// i32 accumulator elements per image (one output plane).
    pub fn acc_ws(&self) -> usize {
        self.geom.out_plane()
    }

    /// The in-flight workspace expressed in f32-equivalent elements
    /// (i8 packs 4 per element, i32 is 1:1) — the unit the scratch
    /// schedule's peak accounting uses.
    pub fn ws_f32_equiv(&self) -> usize {
        self.q_ws().div_ceil(4) + self.acc_ws()
    }
}

/// One frozen op. `out` indexes the scratch-slot table after
/// finalization (value ids during building).
#[derive(Debug, Clone)]
pub(crate) enum PlanOp {
    Conv(ConvOp),
    QConv(QConvOp),
    /// 2×2 stride-2 max pool, optionally accumulating a folded fusion sum
    /// into its output pass. `(c, h, w)` is the *input* geometry.
    MaxPool {
        label: String,
        input: Ref,
        out: usize,
        c: usize,
        h: usize,
        w: usize,
        accumulate: Option<Ref>,
    },
    /// ×2 nearest-neighbour upsample. `(c, h, w)` is the input geometry.
    Upsample {
        label: String,
        input: Ref,
        out: usize,
        c: usize,
        h: usize,
        w: usize,
    },
    /// The AWN weight head: `GAP(r − d) → fc1 → ReLU → fc2 → sigmoid`,
    /// one scalar per image.
    AwnWeight {
        label: String,
        r: Ref,
        d: Ref,
        out: usize,
        c: usize,
        h: usize,
        w: usize,
        fc1_w: Tensor,
        fc1_b: Tensor,
        fc2_w: Tensor,
        fc2_b: Tensor,
    },
    /// The WS fusion sum with its scalar weight folded in:
    /// `out[i] = r[i] + d[i] · w[img]`.
    MulAdd {
        label: String,
        r: Ref,
        d: Ref,
        weight: Ref,
        out: usize,
        elems: usize,
    },
    /// Element-wise logistic sigmoid (the probability head).
    Sigmoid {
        label: String,
        input: Ref,
        out: usize,
        elems: usize,
    },
}

impl PlanOp {
    pub(crate) fn out_val(&self) -> usize {
        match self {
            PlanOp::Conv(c) => c.out,
            PlanOp::QConv(c) => c.out,
            PlanOp::MaxPool { out, .. }
            | PlanOp::Upsample { out, .. }
            | PlanOp::AwnWeight { out, .. }
            | PlanOp::MulAdd { out, .. }
            | PlanOp::Sigmoid { out, .. } => *out,
        }
    }

    fn set_out(&mut self, slot: usize) {
        match self {
            PlanOp::Conv(c) => c.out = slot,
            PlanOp::QConv(c) => c.out = slot,
            PlanOp::MaxPool { out, .. }
            | PlanOp::Upsample { out, .. }
            | PlanOp::AwnWeight { out, .. }
            | PlanOp::MulAdd { out, .. }
            | PlanOp::Sigmoid { out, .. } => *out = slot,
        }
    }

    /// The op's label — also the calibration key of the value it writes.
    pub(crate) fn label(&self) -> &str {
        match self {
            PlanOp::Conv(c) => &c.label,
            PlanOp::QConv(c) => &c.label,
            PlanOp::MaxPool { label, .. }
            | PlanOp::Upsample { label, .. }
            | PlanOp::AwnWeight { label, .. }
            | PlanOp::MulAdd { label, .. }
            | PlanOp::Sigmoid { label, .. } => label,
        }
    }

    /// Every value this op reads (inputs, accumulate and weight operands).
    fn reads(&self) -> Vec<Ref> {
        match self {
            PlanOp::Conv(c) => {
                let mut v = vec![c.input];
                v.extend(c.accumulate);
                v
            }
            PlanOp::QConv(c) => {
                let mut v = vec![c.input];
                v.extend(c.accumulate);
                v
            }
            PlanOp::MaxPool {
                input, accumulate, ..
            } => {
                let mut v = vec![*input];
                v.extend(*accumulate);
                v
            }
            PlanOp::Upsample { input, .. } | PlanOp::Sigmoid { input, .. } => vec![*input],
            PlanOp::AwnWeight { r, d, .. } => vec![*r, *d],
            PlanOp::MulAdd { r, d, weight, .. } => vec![*r, *d, *weight],
        }
    }

    fn for_each_ref(&mut self, f: &mut impl FnMut(&mut Ref)) {
        match self {
            PlanOp::Conv(c) => {
                f(&mut c.input);
                if let Some(a) = &mut c.accumulate {
                    f(a);
                }
            }
            PlanOp::QConv(c) => {
                f(&mut c.input);
                if let Some(a) = &mut c.accumulate {
                    f(a);
                }
            }
            PlanOp::MaxPool {
                input, accumulate, ..
            } => {
                f(input);
                if let Some(a) = accumulate {
                    f(a);
                }
            }
            PlanOp::Upsample { input, .. } | PlanOp::Sigmoid { input, .. } => f(input),
            PlanOp::AwnWeight { r, d, .. } => {
                f(r);
                f(d);
            }
            PlanOp::MulAdd { r, d, weight, .. } => {
                f(r);
                f(d);
                f(weight);
            }
        }
    }

    fn describe(&self) -> String {
        match self {
            PlanOp::Conv(c) => {
                let g = &c.geom;
                let mut epi = String::new();
                if c.bias.is_some() {
                    epi.push_str(" +bias");
                }
                if c.bn.is_some() {
                    epi.push_str(" +bn");
                }
                if c.relu {
                    epi.push_str(" +relu");
                }
                if let Some(a) = c.accumulate {
                    epi.push_str(&format!(" +acc({a})"));
                }
                format!(
                    "conv{k}x{k}  {label:<14} {input}[{ic}x{ih}x{iw}] -> s{out}[{oc}x{oh}x{ow}]{epi}",
                    k = g.k,
                    label = c.label,
                    input = c.input,
                    ic = g.in_c,
                    ih = g.in_h,
                    iw = g.in_w,
                    out = c.out,
                    oc = g.out_c,
                    oh = g.oh,
                    ow = g.ow,
                )
            }
            PlanOp::QConv(c) => {
                let g = &c.geom;
                let mut epi = String::new();
                if c.bias.is_some() {
                    epi.push_str(" +bias");
                }
                if c.bn.is_some() {
                    epi.push_str(" +bn");
                }
                if c.relu {
                    epi.push_str(" +relu");
                }
                if let Some(a) = c.accumulate {
                    epi.push_str(&format!(" +acc({a})"));
                }
                format!(
                    "qconv{k}x{k} {label:<14} {input}[{ic}x{ih}x{iw}] -> s{out}[{oc}x{oh}x{ow}] \
                     i8(s={s:.2e}){epi}",
                    k = g.k,
                    label = c.label,
                    input = c.input,
                    ic = g.in_c,
                    ih = g.in_h,
                    iw = g.in_w,
                    out = c.out,
                    oc = g.out_c,
                    oh = g.oh,
                    ow = g.ow,
                    s = c.in_scale,
                )
            }
            PlanOp::MaxPool {
                label,
                input,
                out,
                c,
                h,
                w,
                accumulate,
            } => {
                let acc = accumulate
                    .map(|a| format!(" +acc({a})"))
                    .unwrap_or_default();
                format!(
                    "pool2x2  {label:<14} {input}[{c}x{h}x{w}] -> s{out}[{c}x{ph}x{pw}]{acc}",
                    ph = h / 2,
                    pw = w / 2,
                )
            }
            PlanOp::Upsample {
                label,
                input,
                out,
                c,
                h,
                w,
            } => format!(
                "upx2     {label:<14} {input}[{c}x{h}x{w}] -> s{out}[{c}x{uh}x{uw}]",
                uh = h * 2,
                uw = w * 2,
            ),
            PlanOp::AwnWeight {
                label,
                r,
                d,
                out,
                c,
                h,
                w,
                ..
            } => format!("awn      {label:<14} ({r},{d})[{c}x{h}x{w}] -> s{out}[1]"),
            PlanOp::MulAdd {
                label,
                r,
                d,
                weight,
                out,
                elems,
            } => format!("muladd   {label:<14} {r} + {d}*{weight} -> s{out}[{elems}]"),
            PlanOp::Sigmoid {
                label,
                input,
                out,
                elems,
            } => format!("sigmoid  {label:<14} {input} -> s{out}[{elems}]"),
        }
    }
}

/// Emits ops with fresh value ids; slots are assigned by `finalize`.
#[derive(Default)]
struct Builder {
    ops: Vec<PlanOp>,
    val_elems: Vec<usize>,
}

type Placed = (Ref, (usize, usize, usize));

impl Builder {
    fn new_val(&mut self, elems: usize) -> usize {
        self.val_elems.push(elems);
        self.val_elems.len() - 1
    }

    #[allow(clippy::too_many_arguments)]
    fn conv(
        &mut self,
        label: String,
        input: Ref,
        in_chw: (usize, usize, usize),
        layer: &sf_nn::Conv2d,
        bn: Option<&BatchNorm2d>,
        relu: bool,
        accumulate: Option<Ref>,
    ) -> Placed {
        let (c, h, w) = in_chw;
        let wshape = layer.weight().value.shape().to_vec();
        let (o, k) = (wshape[0], wshape[2]);
        debug_assert_eq!(wshape[1], c, "conv input channels");
        let spec = layer.spec();
        let (oh, ow) = (spec.out_size(h, k), spec.out_size(w, k));
        let wmat = layer
            .weight()
            .value
            .reshape(&[o, c * k * k])
            .expect("conv weight reshapes to [O, patch]");
        let out = self.new_val(o * oh * ow);
        self.ops.push(PlanOp::Conv(ConvOp {
            label,
            input,
            wmat,
            bias: layer.bias().map(|p| p.value.data().to_vec()),
            bn: bn.map(fold_bn),
            relu,
            accumulate,
            out,
            geom: ConvGeom {
                in_c: c,
                in_h: h,
                in_w: w,
                out_c: o,
                k,
                spec,
                oh,
                ow,
            },
        }));
        (Ref::Slot(out), (o, oh, ow))
    }

    fn max_pool(
        &mut self,
        label: String,
        input: Ref,
        (c, h, w): (usize, usize, usize),
        accumulate: Option<Ref>,
    ) -> Placed {
        let out = self.new_val(c * (h / 2) * (w / 2));
        self.ops.push(PlanOp::MaxPool {
            label,
            input,
            out,
            c,
            h,
            w,
            accumulate,
        });
        (Ref::Slot(out), (c, h / 2, w / 2))
    }

    fn upsample(&mut self, label: String, input: Ref, (c, h, w): (usize, usize, usize)) -> Placed {
        let out = self.new_val(c * h * 2 * w * 2);
        self.ops.push(PlanOp::Upsample {
            label,
            input,
            out,
            c,
            h,
            w,
        });
        (Ref::Slot(out), (c, h * 2, w * 2))
    }

    fn awn_weight(
        &mut self,
        label: String,
        awn: &AuxiliaryWeightNetwork,
        r: Ref,
        d: Ref,
        (c, h, w): (usize, usize, usize),
    ) -> Ref {
        let out = self.new_val(1);
        self.ops.push(PlanOp::AwnWeight {
            label,
            r,
            d,
            out,
            c,
            h,
            w,
            fc1_w: awn.fc1.weight().value.clone(),
            fc1_b: awn.fc1.bias().expect("AWN fc1 has a bias").value.clone(),
            fc2_w: awn.fc2.weight().value.clone(),
            fc2_b: awn.fc2.bias().expect("AWN fc2 has a bias").value.clone(),
        });
        Ref::Slot(out)
    }

    fn weighted_add(&mut self, label: String, r: Ref, d: Ref, weight: Ref, elems: usize) -> Ref {
        let out = self.new_val(elems);
        self.ops.push(PlanOp::MulAdd {
            label,
            r,
            d,
            weight,
            out,
            elems,
        });
        Ref::Slot(out)
    }

    fn sigmoid(&mut self, label: String, input: Ref, elems: usize) -> usize {
        let out = self.new_val(elems);
        self.ops.push(PlanOp::Sigmoid {
            label,
            input,
            out,
            elems,
        });
        out
    }

    /// One encoder stage: conv (+bn +relu epilogue) then 2×2 pool. A
    /// folded fusion sum rides on the pool's output pass.
    fn encoder(
        &mut self,
        prefix: &str,
        stage: &EncoderStage,
        input: Ref,
        chw: (usize, usize, usize),
        accumulate: Option<Ref>,
    ) -> Placed {
        let (cv, chw) = self.conv(
            format!("{prefix}.conv"),
            input,
            chw,
            &stage.conv,
            Some(&stage.bn),
            true,
            None,
        );
        self.max_pool(format!("{prefix}.pool"), cv, chw, accumulate)
    }
}

/// A [`FusionNet`] frozen for inference: flat op list, pre-computed
/// shapes, fused epilogues and a static scratch schedule. Outputs are
/// bit-identical to running the graph path in [`sf_nn::Mode::Eval`] and
/// taking the sigmoid of the logits.
///
/// Weights are cloned at compile time — a plan does not observe later
/// training steps; recompile after updating the network.
#[derive(Debug)]
pub struct CompiledPlan {
    mode: PlanMode,
    pub(crate) ops: Vec<PlanOp>,
    /// Per-image element count of every scratch slot.
    pub(crate) slot_sizes: Vec<usize>,
    /// Per-image im2col workspace reservation: the maximum `patch·cols`
    /// over all convolution ops.
    pub(crate) ws_per_image: usize,
    /// Per-image i8 workspace (quantized input plane + int8 patch
    /// matrix), the maximum over all int8 convolution ops. Zero on f32
    /// plans.
    pub(crate) q_ws_per_image: usize,
    /// Per-image i32 accumulator workspace, the maximum output plane
    /// over all int8 convolution ops. Zero on f32 plans.
    pub(crate) acc_ws_per_image: usize,
    /// Per-op: per-image elements of the value the op writes.
    pub(crate) births: Vec<usize>,
    /// Per-op: per-image sizes of values whose last use is this op.
    pub(crate) deaths: Vec<Vec<usize>>,
    pub(crate) rgb_chw: (usize, usize, usize),
    pub(crate) depth_chw: (usize, usize, usize),
    pub(crate) out_slot: usize,
    pub(crate) out_hw: (usize, usize),
    peak_live_per_image: usize,
    // Reused run-to-run: the static arena the schedule indexes into.
    pub(crate) slots: Vec<Vec<f32>>,
    pub(crate) workspace: Vec<f32>,
    pub(crate) qworkspace: Vec<i8>,
    pub(crate) accworkspace: Vec<i32>,
    pub(crate) last_high_water: usize,
}

/// Walks the network wiring and emits the full f32 op list; `with_depth`
/// selects the fused topology vs the camera-only dead-branch-eliminated
/// one. Returns the builder and the output value id.
fn build_ops(net: &FusionNet, with_depth: bool) -> (Builder, usize) {
    let cfg = net.config();
    let (h0, w0) = (cfg.height, cfg.width);
    let depth_chw = (cfg.depth_channels, h0, w0);
    let mut b = Builder::default();
    let mut fused_maps: Vec<Placed> = Vec::new();

    if !with_depth {
        let mut r: Placed = (Ref::Rgb, (3, h0, w0));
        for wire in net.stage_wiring() {
            let i = wire.index;
            r = b.encoder(&format!("enc{i}.rgb"), &net.rgb_stages[i], r.0, r.1, None);
            fused_maps.push(r);
        }
    } else {
        let mut r: Placed = (Ref::Rgb, (3, h0, w0));
        let mut d: Placed = (Ref::Depth, depth_chw);
        for wire in net.stage_wiring() {
            let i = wire.index;
            let rgb_stage = &net.rgb_stages[i];
            let depth_stage = if wire.shared {
                rgb_stage
            } else {
                &net.depth_stages[i]
            };
            match wire.d_contrib {
                DepthContribution::Direct => {
                    // The fusion sum folds into the RGB pool's
                    // output pass (r_feat + d_feat, reference
                    // operand order preserved).
                    let d_feat = b.encoder(&format!("enc{i}.depth"), depth_stage, d.0, d.1, None);
                    let fused =
                        b.encoder(&format!("enc{i}.rgb"), rgb_stage, r.0, r.1, Some(d_feat.0));
                    r = fused;
                    d = d_feat;
                }
                DepthContribution::FilteredD2r => {
                    let r_feat = b.encoder(&format!("enc{i}.rgb"), rgb_stage, r.0, r.1, None);
                    let d_feat = b.encoder(&format!("enc{i}.depth"), depth_stage, d.0, d.1, None);
                    // r_feat rides on the 1×1 filter's output pass
                    // (filter + r_feat; the reference computes
                    // r_feat + filter — IEEE addition commutes).
                    let fused = b.conv(
                        format!("fuse{i}.d2r"),
                        d_feat.0,
                        d_feat.1,
                        &net.filters_d2r[i],
                        None,
                        false,
                        Some(r_feat.0),
                    );
                    let d_next = if wire.reverse_filter {
                        b.conv(
                            format!("fuse{i}.r2d"),
                            r_feat.0,
                            r_feat.1,
                            &net.filters_r2d[i],
                            None,
                            false,
                            Some(d_feat.0),
                        )
                    } else {
                        d_feat
                    };
                    r = fused;
                    d = d_next;
                }
                DepthContribution::AwnWeighted => {
                    let r_feat = b.encoder(&format!("enc{i}.rgb"), rgb_stage, r.0, r.1, None);
                    let d_feat = b.encoder(&format!("enc{i}.depth"), depth_stage, d.0, d.1, None);
                    let awn = net.awn.as_ref().expect("WS always builds an AWN");
                    let wv =
                        b.awn_weight(format!("fuse{i}.awn"), awn, r_feat.0, d_feat.0, r_feat.1);
                    let elems = r_feat.1 .0 * r_feat.1 .1 * r_feat.1 .2;
                    let fused =
                        b.weighted_add(format!("fuse{i}.sum"), r_feat.0, d_feat.0, wv, elems);
                    r = (fused, r_feat.1);
                    d = d_feat;
                }
            }
            fused_maps.push(r);
        }
    }

    // Decoder with additive skips, then the 1×1 head and the
    // probability sigmoid — identical for both modes.
    let stages = fused_maps.len();
    let (mut x, mut chw) = *fused_maps.last().expect("at least one stage");
    for (k, dec) in net.decoder.iter().enumerate() {
        let (up, up_chw) = b.upsample(format!("dec{k}.up"), x, chw);
        // The skip sum rides on the decoder conv's output pass, after
        // its ReLU (matching the graph's relu-then-add order).
        let skip = (k < stages - 1).then(|| fused_maps[stages - 2 - k].0);
        let (cv, cchw) = b.conv(
            format!("dec{k}.conv"),
            up,
            up_chw,
            &dec.conv,
            Some(&dec.bn),
            true,
            skip,
        );
        x = cv;
        chw = cchw;
    }
    let (hx, hchw) = b.conv("head".into(), x, chw, &net.head, None, false, None);
    let out_val = b.sigmoid("sigmoid".into(), hx, hchw.0 * hchw.1 * hchw.2);
    (b, out_val)
}

/// Rewrites every [`PlanOp::Conv`] into a [`PlanOp::QConv`]: weights are
/// quantized per output channel on the spot; the input activation scale
/// is looked up in `profile` under the label of the value's producer
/// (`input.rgb` / `input.depth` for the external inputs).
fn quantize_ops(ops: &mut [PlanOp], profile: &CalibrationProfile) -> Result<(), QuantError> {
    // Pre-finalize, `out` fields are unique value ids — map them to the
    // producing op's label so a conv can name its input activation.
    let producer: HashMap<usize, String> = ops
        .iter()
        .map(|op| (op.out_val(), op.label().to_string()))
        .collect();
    for op in ops.iter_mut() {
        let PlanOp::Conv(c) = op else { continue };
        let in_label = match c.input {
            Ref::Rgb => INPUT_RGB.to_string(),
            Ref::Depth => INPUT_DEPTH.to_string(),
            Ref::Slot(v) => producer[&v].clone(),
        };
        let in_scale = profile
            .act_scale(&in_label)
            .ok_or(QuantError::MissingScale(in_label))?;
        let (wq, wscale) = quantize_per_row(c.wmat.data(), c.geom.out_c);
        *op = PlanOp::QConv(QConvOp {
            label: c.label.clone(),
            input: c.input,
            wq,
            wscale,
            in_scale,
            bias: c.bias.clone(),
            bn: c.bn.clone(),
            relu: c.relu,
            accumulate: c.accumulate,
            out: c.out,
            geom: c.geom,
        });
    }
    Ok(())
}

impl CompiledPlan {
    /// Freezes `net` into a plan for an f32 `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is an int8 mode — those carry calibration data,
    /// use [`CompiledPlan::compile_int8`].
    pub fn compile(net: &FusionNet, mode: PlanMode) -> CompiledPlan {
        assert!(
            !mode.is_int8(),
            "int8 plans need a calibration profile — use CompiledPlan::compile_int8"
        );
        let cfg = net.config();
        let (h0, w0) = (cfg.height, cfg.width);
        let (b, out_val) = build_ops(net, mode.needs_depth());
        finalize(
            mode,
            b,
            (3, h0, w0),
            (cfg.depth_channels, h0, w0),
            out_val,
            (h0, w0),
        )
    }

    /// Freezes `net` into an int8 plan: identical topology to the f32
    /// plan of the same branch set, with every convolution lowered to
    /// quantized weights and the activation scales taken from `profile`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NotAnInt8Mode`] for an f32 `mode` and
    /// [`QuantError::MissingScale`] if the profile does not cover every
    /// conv input in this topology.
    pub fn compile_int8(
        net: &FusionNet,
        profile: &CalibrationProfile,
        mode: PlanMode,
    ) -> Result<CompiledPlan, QuantError> {
        if !mode.is_int8() {
            return Err(QuantError::NotAnInt8Mode(mode.to_string()));
        }
        let cfg = net.config();
        let (h0, w0) = (cfg.height, cfg.width);
        let (mut b, out_val) = build_ops(net, mode.needs_depth());
        quantize_ops(&mut b.ops, profile)?;
        Ok(finalize(
            mode,
            b,
            (3, h0, w0),
            (cfg.depth_channels, h0, w0),
            out_val,
            (h0, w0),
        ))
    }

    /// The mode this plan was compiled for.
    pub fn mode(&self) -> PlanMode {
        self.mode
    }

    /// Number of frozen ops.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Expected per-slot input geometry `(C, H, W)` for the RGB input.
    pub fn rgb_shape(&self) -> (usize, usize, usize) {
        self.rgb_chw
    }

    /// Expected per-slot input geometry `(C, H, W)` for the depth input.
    pub fn depth_shape(&self) -> (usize, usize, usize) {
        self.depth_chw
    }

    /// Total scratch reservation per image, in f32-equivalent elements:
    /// every slot plus the shared im2col workspace (and, on int8 plans,
    /// the i8/i32 workspaces at 4 i8 per element, 1 i32 per element).
    /// The executor allocates exactly `n ×` this for a batch of `n` —
    /// no free-list search at run time.
    pub fn reservation_per_image(&self) -> usize {
        self.slot_sizes.iter().sum::<usize>()
            + self.ws_per_image
            + self.q_ws_per_image.div_ceil(4)
            + self.acc_ws_per_image
    }

    /// Bytes of convolution weights this plan carries: `4 ×` the matrix
    /// elements on f32 plans; quantized data plus the per-channel f32
    /// scale block on int8 plans. The quantity the `exp_quant` weight
    /// size comparison reports.
    pub fn weight_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                PlanOp::Conv(c) => c.wmat.data().len() * 4,
                PlanOp::QConv(c) => c.wq.len() + c.wscale.len() * 4,
                _ => 0,
            })
            .sum()
    }

    /// Exact peak of simultaneously-live values (plus the in-flight conv
    /// workspace) per image, computed from the schedule's birth/death
    /// events at compile time. Always ≤ [`Self::reservation_per_image`].
    pub fn peak_live_per_image(&self) -> usize {
        self.peak_live_per_image
    }

    /// The scratch reservation for a batch of `n`, in f32 elements.
    pub fn reservation_elems(&self, n: usize) -> usize {
        n * self.reservation_per_image()
    }

    /// The live-memory high-water mark (f32 elements, including the conv
    /// workspace in flight) actually reached by the most recent
    /// `run_batch` call. Zero before the first run.
    pub fn last_high_water_elems(&self) -> usize {
        self.last_high_water
    }
}

impl fmt::Display for CompiledPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (rc, rh, rw) = self.rgb_chw;
        let (dc, _, _) = self.depth_chw;
        writeln!(
            f,
            "plan({mode}): rgb [{rc}x{rh}x{rw}]{depth}, {ops} ops",
            mode = self.mode,
            depth = if self.mode.needs_depth() {
                format!(" + depth [{dc}x{rh}x{rw}]")
            } else {
                String::new()
            },
            ops = self.ops.len(),
        )?;
        writeln!(f, "op list:")?;
        for (j, op) in self.ops.iter().enumerate() {
            writeln!(f, "  {j:>2}  {}", op.describe())?;
        }
        writeln!(f, "scratch schedule (per image):")?;
        for (s, elems) in self.slot_sizes.iter().enumerate() {
            writeln!(
                f,
                "  s{s:<3} {elems:>8} elems ({:.1} KiB)",
                *elems as f64 * 4.0 / 1024.0
            )?;
        }
        writeln!(
            f,
            "  workspace {:>5} elems ({:.1} KiB)",
            self.ws_per_image,
            self.ws_per_image as f64 * 4.0 / 1024.0
        )?;
        if self.mode.is_int8() {
            writeln!(
                f,
                "  i8 workspace {:>5} elems ({:.1} KiB), i32 accumulators {} elems ({:.1} KiB)",
                self.q_ws_per_image,
                self.q_ws_per_image as f64 / 1024.0,
                self.acc_ws_per_image,
                self.acc_ws_per_image as f64 * 4.0 / 1024.0
            )?;
        }
        writeln!(
            f,
            "  reservation {} elems ({:.1} KiB), peak live {} elems ({:.1} KiB)",
            self.reservation_per_image(),
            self.reservation_per_image() as f64 * 4.0 / 1024.0,
            self.peak_live_per_image,
            self.peak_live_per_image as f64 * 4.0 / 1024.0
        )
    }
}

/// Assigns every value to a slot with a linear scan over the op list:
/// a value's slot returns to an exact-size free list right after the op
/// that reads it last, and the next same-size value reuses it. Outputs
/// are allocated *before* dead inputs are freed, so an op's output slot
/// can never alias any of its own operands.
fn finalize(
    mode: PlanMode,
    b: Builder,
    rgb_chw: (usize, usize, usize),
    depth_chw: (usize, usize, usize),
    out_val: usize,
    out_hw: (usize, usize),
) -> CompiledPlan {
    let Builder { mut ops, val_elems } = b;
    let mut last_use = vec![usize::MAX; val_elems.len()];
    for (j, op) in ops.iter().enumerate() {
        for r in op.reads() {
            if let Ref::Slot(v) = r {
                last_use[v] = j;
            }
        }
    }
    // The plan output must survive the whole run.
    last_use[out_val] = usize::MAX;

    let mut val_slot = vec![usize::MAX; val_elems.len()];
    let mut slot_sizes: Vec<usize> = Vec::new();
    let mut free: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut births = Vec::with_capacity(ops.len());
    let mut deaths: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
    let mut ws_per_image = 0usize;
    let mut q_ws_per_image = 0usize;
    let mut acc_ws_per_image = 0usize;
    let mut live = 0usize;
    let mut peak = 0usize;
    for j in 0..ops.len() {
        let v = ops[j].out_val();
        let elems = val_elems[v];
        let slot = match free.get_mut(&elems).and_then(Vec::pop) {
            Some(s) => s,
            None => {
                slot_sizes.push(elems);
                slot_sizes.len() - 1
            }
        };
        val_slot[v] = slot;
        births.push(elems);
        live += elems;
        let ws = match &ops[j] {
            PlanOp::Conv(c) => c.geom.patch() * c.geom.cols(),
            PlanOp::QConv(c) => {
                q_ws_per_image = q_ws_per_image.max(c.q_ws());
                acc_ws_per_image = acc_ws_per_image.max(c.acc_ws());
                c.ws_f32_equiv()
            }
            _ => 0,
        };
        if matches!(&ops[j], PlanOp::Conv(_)) {
            ws_per_image = ws_per_image.max(ws);
        }
        peak = peak.max(live + ws);
        // Free after allocating the output: no intra-op aliasing.
        let mut dying: Vec<usize> = ops[j]
            .reads()
            .into_iter()
            .filter_map(|r| match r {
                Ref::Slot(u) if last_use[u] == j => Some(u),
                _ => None,
            })
            .collect();
        dying.sort_unstable();
        dying.dedup();
        for u in dying {
            free.entry(val_elems[u]).or_default().push(val_slot[u]);
            deaths[j].push(val_elems[u]);
            live -= val_elems[u];
        }
    }

    // Rewrite value ids into slot ids.
    for op in &mut ops {
        let slot = val_slot[op.out_val()];
        op.set_out(slot);
        op.for_each_ref(&mut |r| {
            if let Ref::Slot(v) = r {
                *r = Ref::Slot(val_slot[*v]);
            }
        });
    }

    let slot_count = slot_sizes.len();
    CompiledPlan {
        mode,
        ops,
        slot_sizes,
        ws_per_image,
        q_ws_per_image,
        acc_ws_per_image,
        births,
        deaths,
        rgb_chw,
        depth_chw,
        out_slot: val_slot[out_val],
        out_hw,
        peak_live_per_image: peak,
        slots: vec![Vec::new(); slot_count],
        workspace: Vec::new(),
        qworkspace: Vec::new(),
        accworkspace: Vec::new(),
        last_high_water: 0,
    }
}
