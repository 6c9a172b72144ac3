//! Lowering a [`FusionNet`]'s architecture description to a flat op list
//! with a static scratch schedule.
//!
//! Compilation walks the network's description (`crate::arch`) once: one
//! node becomes one [`PlanOp`], its weights frozen from the layer the node
//! names and every shape read off the description. The description
//! already says where each element-wise sum rides and which nodes a
//! camera-only network lacks, so the plan's three rewrites fall out of
//! the lowering rather than being decided here:
//!
//! - **Epilogue fusion** — a conv node carries its bias add, BatchNorm and
//!   ReLU flags; the op applies them (BatchNorm folded to inference-mode
//!   constants) in one pass over the output instead of four broadcast
//!   passes.
//! - **Sum folding** — a node's `plus` operand (Eq. 2 fusion sums, decoder
//!   skips, the AB reverse filter) becomes the producing kernel's
//!   `accumulate` operand, so the sum costs zero extra passes.
//! - **Dead-branch elimination** — a [`PlanMode::CameraOnly`] plan lowers
//!   the camera-only description, which has no depth column or fusion
//!   node; degraded traffic executes exactly one branch.
//!
//! The int8 modes lower the same nodes; only a conv's frozen weights
//! differ ([`ConvWeights`]).
//!
//! After lowering a linear-scan allocator assigns every intermediate value
//! to a reusable slot (exact-size free list, values freed after their last
//! use), yielding an exact per-image reservation at plan time — the
//! executor allocates it once per lane (`exec::Lane`) and never consults
//! the per-thread free list the graph path's tensors allocate through.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use sf_nn::BatchNorm2d;
use sf_tensor::int8::quantize_per_row;
use sf_tensor::{Conv2dSpec, Tensor};

use super::exec::Lane;
use super::quant::{CalibrationProfile, QuantError};
use crate::arch::{Arch, Chw, Op, Val};
use crate::network::FusionNet;

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

/// A convolution's frozen weight matrix, `[out_c, patch]` row-major.
#[derive(Debug, Clone)]
pub(crate) enum ConvWeights {
    F32(Tensor),
    /// Quantized per output channel (`wscale[oc]`); the input plane is
    /// quantized with the calibrated activation scale `in_scale`, products
    /// accumulate in i32 and dequantize through `in_scale · wscale[oc]`
    /// before the (still-f32) epilogue.
    I8 {
        wq: Vec<i8>,
        wscale: Vec<f32>,
        in_scale: f32,
    },
}

/// A convolution with its fused epilogue: `im2col · W` then, per output
/// element in one pass: `+bias[c]`, folded BatchNorm, ReLU, `+accumulate`.
#[derive(Debug, Clone)]
pub(crate) struct ConvOp {
    pub input: Ref,
    pub weights: ConvWeights,
    pub bias: Option<Vec<f32>>,
    pub bn: Option<BnFold>,
    pub relu: bool,
    /// Folded element-wise sum: the referenced value is added to each
    /// output element after the epilogue.
    pub accumulate: Option<Ref>,
    pub geom: ConvGeom,
}

/// Per-image scratch an op needs while it runs, beyond its operands:
/// `(f32, i8, i32)` element counts.
pub(crate) type Workspace = (usize, usize, usize);

/// A [`Workspace`] in f32-equivalent elements (i8 packs 4 per element,
/// i32 is 1:1) — the unit the scratch schedule's peak accounting uses.
pub(crate) fn f32_equiv((f, q, acc): Workspace) -> usize {
    f + q.div_ceil(4) + acc
}

/// What a frozen op computes. `(c, h, w)` is always the *input* geometry.
#[derive(Debug, Clone)]
pub(crate) enum OpKind {
    Conv(ConvOp),
    /// 2×2 stride-2 max pool, optionally accumulating a folded fusion sum
    /// into its output pass.
    MaxPool {
        input: Ref,
        chw: Chw,
        accumulate: Option<Ref>,
    },
    /// ×2 nearest-neighbour upsample.
    Upsample {
        input: Ref,
        chw: Chw,
    },
    /// The AWN weight head: `GAP(r − d) → fc1 → ReLU → fc2 → sigmoid`,
    /// one scalar per image.
    AwnWeight {
        r: Ref,
        d: Ref,
        chw: Chw,
        fc1_w: Tensor,
        fc1_b: Tensor,
        fc2_w: Tensor,
        fc2_b: Tensor,
    },
    /// The WS fusion sum with its scalar weight folded in:
    /// `out[i] = r[i] + d[i] · w[img]`.
    MulAdd {
        r: Ref,
        d: Ref,
        weight: Ref,
        elems: usize,
    },
    /// Element-wise logistic sigmoid (the probability head).
    Sigmoid {
        input: Ref,
        elems: usize,
    },
}

/// One frozen op.
#[derive(Debug, Clone)]
pub(crate) struct PlanOp {
    /// The description node's label — also the calibration key of the
    /// value this op writes.
    pub label: String,
    /// The scratch slot written (the node's value id until `finalize`).
    pub out: usize,
    pub kind: OpKind,
}

impl PlanOp {
    /// Visits every value this op reads (inputs, accumulate and weight
    /// operands).
    fn for_each_ref(&mut self, f: &mut impl FnMut(&mut Ref)) {
        match &mut self.kind {
            OpKind::Conv(ConvOp {
                input, accumulate, ..
            })
            | OpKind::MaxPool {
                input, accumulate, ..
            } => {
                f(input);
                accumulate.iter_mut().for_each(f);
            }
            OpKind::Upsample { input, .. } | OpKind::Sigmoid { input, .. } => f(input),
            OpKind::AwnWeight { r, d, .. } => [r, d].into_iter().for_each(f),
            OpKind::MulAdd { r, d, weight, .. } => [r, d, weight].into_iter().for_each(f),
        }
    }

    /// The im2col (f32) or quantized-plane + patch-matrix (i8) and
    /// accumulator (i32) scratch of a convolution; nothing for other ops.
    pub(crate) fn workspace(&self) -> Workspace {
        match &self.kind {
            OpKind::Conv(c) => {
                let g = &c.geom;
                match c.weights {
                    ConvWeights::F32(_) => (g.patch() * g.cols(), 0, 0),
                    ConvWeights::I8 { .. } => {
                        (0, g.in_plane() + g.patch() * g.cols(), g.out_plane())
                    }
                }
            }
            _ => (0, 0, 0),
        }
    }

    fn describe(&self) -> String {
        let (label, out) = (&self.label, self.out);
        match &self.kind {
            OpKind::Conv(c) => {
                let g = &c.geom;
                let (name, mut epi) = match c.weights {
                    ConvWeights::F32(_) => ("conv", String::new()),
                    ConvWeights::I8 { in_scale, .. } => ("qconv", format!(" i8(s={in_scale:.2e})")),
                };
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
                    "{kind:<9}{label:<14} {input}[{ic}x{ih}x{iw}] -> s{out}[{oc}x{oh}x{ow}]{epi}",
                    kind = format!("{name}{k}x{k}", k = g.k),
                    input = c.input,
                    ic = g.in_c,
                    ih = g.in_h,
                    iw = g.in_w,
                    oc = g.out_c,
                    oh = g.oh,
                    ow = g.ow,
                )
            }
            OpKind::MaxPool {
                input,
                chw: (c, h, w),
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
            OpKind::Upsample {
                input,
                chw: (c, h, w),
            } => format!(
                "upx2     {label:<14} {input}[{c}x{h}x{w}] -> s{out}[{c}x{uh}x{uw}]",
                uh = h * 2,
                uw = w * 2,
            ),
            OpKind::AwnWeight {
                r,
                d,
                chw: (c, h, w),
                ..
            } => format!("awn      {label:<14} ({r},{d})[{c}x{h}x{w}] -> s{out}[1]"),
            OpKind::MulAdd {
                r,
                d,
                weight,
                elems,
            } => format!("muladd   {label:<14} {r} + {d}*{weight} -> s{out}[{elems}]"),
            OpKind::Sigmoid { input, elems } => {
                format!("sigmoid  {label:<14} {input} -> s{out}[{elems}]")
            }
        }
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
    pub(crate) rgb_chw: (usize, usize, usize),
    pub(crate) depth_chw: (usize, usize, usize),
    pub(crate) out_slot: usize,
    pub(crate) out_hw: (usize, usize),
    peak_live_per_image: usize,
    /// Reused run-to-run: one arena per lane, grown (never shrunk) to the
    /// most lanes a batch has needed so far. A lock per lane is how the
    /// threads of a pass check arenas out in safe code; it is never
    /// contended.
    pub(crate) lanes: Vec<Mutex<Lane>>,
}

fn elems((c, h, w): Chw) -> usize {
    c * h * w
}

/// The plan lowering, shared by every mode: one description node becomes
/// one [`PlanOp`]. With a `profile` the convolutions are lowered to int8 —
/// weights quantized per output channel on the spot, the input activation
/// scale looked up under the label of the value the conv reads
/// (`input.rgb` / `input.depth` for the external inputs).
fn lower(
    net: &FusionNet,
    mode: PlanMode,
    profile: Option<&CalibrationProfile>,
) -> Result<CompiledPlan, QuantError> {
    let arch = net.arch(mode.needs_depth());
    let at = |v: Val| match v {
        Val::Rgb => Ref::Rgb,
        Val::Depth => Ref::Depth,
        Val::Node(i) => Ref::Slot(i),
    };
    let mut ops = Vec::with_capacity(arch.nodes.len());
    for (out, node) in arch.nodes.iter().enumerate() {
        let kind = match node.op {
            Op::Conv {
                input,
                layer,
                k,
                bias,
                bn: norm,
                relu,
                plus,
            } => {
                let (conv, bn) = net.layer(layer);
                let (in_c, in_h, in_w) = arch.chw(input);
                let (out_c, oh, ow) = node.out;
                let spec = conv.spec();
                // The layer `FusionNet::new` built is the one described.
                debug_assert_eq!(conv.weight().value.shape(), [out_c, in_c, k, k]);
                debug_assert_eq!((conv.bias().is_some(), bn.is_some()), (bias, norm));
                debug_assert_eq!((oh, ow), (spec.out_size(in_h, k), spec.out_size(in_w, k)));
                let wmat = conv
                    .weight()
                    .value
                    .reshape(&[out_c, in_c * k * k])
                    .expect("conv weight reshapes to [O, patch]");
                let weights = match profile {
                    None => ConvWeights::F32(wmat),
                    Some(profile) => {
                        let in_label = arch.label(input);
                        let in_scale = profile
                            .act_scale(in_label)
                            .ok_or_else(|| QuantError::MissingScale(in_label.to_string()))?;
                        let (wq, wscale) = quantize_per_row(wmat.data(), out_c);
                        ConvWeights::I8 {
                            wq,
                            wscale,
                            in_scale,
                        }
                    }
                };
                OpKind::Conv(ConvOp {
                    input: at(input),
                    weights,
                    bias: conv.bias().map(|p| p.value.data().to_vec()),
                    bn: bn.map(fold_bn),
                    relu,
                    accumulate: plus.map(|p| at(p.operand())),
                    geom: ConvGeom {
                        in_c,
                        in_h,
                        in_w,
                        out_c,
                        k,
                        spec,
                        oh,
                        ow,
                    },
                })
            }
            Op::Pool { input, plus } => OpKind::MaxPool {
                input: at(input),
                chw: arch.chw(input),
                accumulate: plus.map(|p| at(p.operand())),
            },
            Op::Upsample { input } => OpKind::Upsample {
                input: at(input),
                chw: arch.chw(input),
            },
            Op::Awn { r, d } => {
                let awn = net.awn.as_ref().expect("WS always builds an AWN");
                OpKind::AwnWeight {
                    r: at(r),
                    d: at(d),
                    chw: arch.chw(r),
                    fc1_w: awn.fc1.weight().value.clone(),
                    fc1_b: awn.fc1.bias().expect("AWN fc1 has a bias").value.clone(),
                    fc2_w: awn.fc2.weight().value.clone(),
                    fc2_b: awn.fc2.bias().expect("AWN fc2 has a bias").value.clone(),
                }
            }
            Op::MulAdd { r, d, weight } => OpKind::MulAdd {
                r: at(r),
                d: at(d),
                weight: at(weight),
                elems: elems(node.out),
            },
            Op::Sigmoid { input } => OpKind::Sigmoid {
                input: at(input),
                elems: elems(node.out),
            },
        };
        ops.push(PlanOp {
            label: node.label.clone(),
            out,
            kind,
        });
    }
    Ok(finalize(mode, ops, arch))
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
        lower(net, mode, None).expect("an f32 lowering looks up no scale")
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
        lower(net, mode, Some(profile))
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
    /// The executor allocates exactly this once per lane — no free-list
    /// search and no resize at run time.
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
            .map(|op| match &op.kind {
                OpKind::Conv(c) => match &c.weights {
                    ConvWeights::F32(w) => w.data().len() * 4,
                    ConvWeights::I8 { wq, wscale, .. } => wq.len() + wscale.len() * 4,
                },
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
fn finalize(mode: PlanMode, mut ops: Vec<PlanOp>, arch: &Arch) -> CompiledPlan {
    let val_elems: Vec<usize> = arch.nodes.iter().map(|node| elems(node.out)).collect();
    let reads: Vec<Vec<Ref>> = ops
        .iter_mut()
        .map(|op| {
            let mut reads = Vec::new();
            op.for_each_ref(&mut |r| reads.push(*r));
            reads
        })
        .collect();
    let mut last_use = vec![usize::MAX; val_elems.len()];
    for (j, reads) in reads.iter().enumerate() {
        for r in reads {
            if let Ref::Slot(v) = r {
                last_use[*v] = j;
            }
        }
    }
    // The plan output (the last node) must survive the whole run.
    let out_val = ops.len() - 1;
    last_use[out_val] = usize::MAX;

    let mut val_slot = vec![usize::MAX; val_elems.len()];
    let mut slot_sizes: Vec<usize> = Vec::new();
    let mut free: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut reservation: Workspace = (0, 0, 0);
    let mut live = 0usize;
    let mut peak = 0usize;
    for (j, op) in ops.iter().enumerate() {
        let v = op.out;
        let elems = val_elems[v];
        let slot = match free.get_mut(&elems).and_then(Vec::pop) {
            Some(s) => s,
            None => {
                slot_sizes.push(elems);
                slot_sizes.len() - 1
            }
        };
        val_slot[v] = slot;
        live += elems;
        let ws = op.workspace();
        reservation = (
            reservation.0.max(ws.0),
            reservation.1.max(ws.1),
            reservation.2.max(ws.2),
        );
        peak = peak.max(live + f32_equiv(ws));
        // Free after allocating the output: no intra-op aliasing.
        let mut dying: Vec<usize> = reads[j]
            .iter()
            .filter_map(|r| match r {
                Ref::Slot(u) if last_use[*u] == j => Some(*u),
                _ => None,
            })
            .collect();
        dying.sort_unstable();
        dying.dedup();
        for u in dying {
            free.entry(val_elems[u]).or_default().push(val_slot[u]);
            live -= val_elems[u];
        }
    }

    // Rewrite value ids into slot ids.
    for op in &mut ops {
        op.out = val_slot[op.out];
        op.for_each_ref(&mut |r| {
            if let Ref::Slot(v) = r {
                *r = Ref::Slot(val_slot[*v]);
            }
        });
    }

    CompiledPlan {
        mode,
        ops,
        slot_sizes,
        ws_per_image: reservation.0,
        q_ws_per_image: reservation.1,
        acc_ws_per_image: reservation.2,
        rgb_chw: arch.rgb,
        depth_chw: arch.depth,
        out_slot: val_slot[out_val],
        out_hw: (arch.rgb.1, arch.rgb.2),
        peak_live_per_image: peak,
        lanes: Vec::new(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::arch::Plus;
    use crate::config::{FusionScheme, NetworkConfig};
    use crate::plan::{INPUT_DEPTH, INPUT_RGB};
    use sf_tensor::testkit::{check_cases, CaseCtx};

    pub(crate) const ALL_MODES: [PlanMode; 4] = [
        PlanMode::Fused,
        PlanMode::CameraOnly,
        PlanMode::Int8,
        PlanMode::Int8CameraOnly,
    ];

    /// A random valid network of a random scheme, with a profile that has
    /// a scale for every label (any scale does: neither the schedule nor
    /// the executor's batching depends on its value).
    pub(crate) fn random_net(c: &mut CaseCtx) -> (FusionNet, CalibrationProfile) {
        let stages = c.usize_in(2, 5);
        let config = NetworkConfig {
            width: (1 << stages) * c.usize_in(1, 4),
            height: (1 << stages) * c.usize_in(1, 3),
            stage_channels: (0..stages).map(|_| c.usize_in(1, 7)).collect(),
            shared_stages: c.usize_in(1, stages),
            depth_channels: c.usize_in(1, 4),
            seed: c.seed(),
        };
        let scheme = FusionScheme::ALL[c.usize_in(0, FusionScheme::ALL.len())];
        let net = FusionNet::new(scheme, &config).expect("a valid random config");
        let mut profile = CalibrationProfile::new();
        for label in [INPUT_RGB, INPUT_DEPTH] {
            profile.set_scale(label, 0.05);
        }
        for node in &net.arch(true).nodes {
            profile.set_scale(&node.label, 0.05);
        }
        (net, profile)
    }

    /// `net` lowered for `mode`, int8 modes with `profile`.
    pub(crate) fn lowered(
        net: &FusionNet,
        mode: PlanMode,
        profile: &CalibrationProfile,
    ) -> CompiledPlan {
        lower(net, mode, mode.is_int8().then_some(profile)).expect("every label has a scale")
    }

    /// The values node `j` reads, in `for_each_ref` order.
    fn operands(op: Op) -> Vec<Val> {
        match op {
            Op::Conv { input, plus, .. } | Op::Pool { input, plus } => std::iter::once(input)
                .chain(plus.map(Plus::operand))
                .collect(),
            Op::Upsample { input } | Op::Sigmoid { input } => vec![input],
            Op::Awn { r, d } => vec![r, d],
            Op::MulAdd { r, d, weight } => vec![r, d, weight],
        }
    }

    /// Checks a finalized plan's slot assignment against the value-level
    /// liveness its description implies — the ground truth `finalize`
    /// itself is not consulted for.
    fn check_schedule(plan: &mut CompiledPlan, arch: &Arch) {
        let n = arch.nodes.len();
        assert_eq!(plan.ops.len(), n);
        let slot_of: Vec<usize> = plan.ops.iter().map(|op| op.out).collect();
        // Value i is written by op i and live until its last reader (the
        // output: until the end).
        let mut last_use: Vec<usize> = (0..n).collect();
        last_use[n - 1] = usize::MAX;
        for (j, node) in arch.nodes.iter().enumerate() {
            let mut read_slots = Vec::new();
            plan.ops[j].for_each_ref(&mut |r| read_slots.push(*r));
            let want: Vec<Ref> = operands(node.op)
                .into_iter()
                .map(|v| match v {
                    Val::Rgb => Ref::Rgb,
                    Val::Depth => Ref::Depth,
                    Val::Node(i) => {
                        last_use[i] = last_use[i].max(j);
                        Ref::Slot(slot_of[i])
                    }
                })
                .collect();
            assert_eq!(read_slots, want, "op {j} reads its operands' slots");
            assert!(
                !read_slots.contains(&Ref::Slot(slot_of[j])),
                "op {j} writes a slot it reads"
            );
        }
        for a in 0..n {
            for b in a + 1..n {
                if b <= last_use[a] {
                    assert_ne!(
                        slot_of[a], slot_of[b],
                        "values {a} and {b} are live together"
                    );
                }
            }
        }
        // The recorded peak is that of the same liveness, every slot is
        // exactly its tenants' size (the executor never resizes one), and
        // every op's workspace fits the lane's.
        let size = |i: usize| elems(arch.nodes[i].out);
        let mut peak = 0usize;
        for (j, &slot) in slot_of.iter().enumerate() {
            assert_eq!(plan.slot_sizes[slot], size(j));
            let live: usize = (0..=j).filter(|&i| last_use[i] >= j).map(size).sum();
            let (f, q, acc) = plan.ops[j].workspace();
            peak = peak.max(live + f32_equiv((f, q, acc)));
            assert!(
                f <= plan.ws_per_image && q <= plan.q_ws_per_image && acc <= plan.acc_ws_per_image,
                "op {j} needs more workspace than the plan reserves"
            );
        }
        assert_eq!(plan.peak_live_per_image(), peak);
        assert!(peak <= plan.reservation_per_image());
    }

    #[test]
    fn static_schedule_never_aliases_live_values() {
        check_cases(40, |c| {
            let (net, profile) = random_net(c);
            for mode in ALL_MODES {
                let mut plan = lowered(&net, mode, &profile);
                check_schedule(&mut plan, net.arch(mode.needs_depth()));
            }
        });
    }
}
