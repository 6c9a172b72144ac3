//! The compiled-plan executor.
//!
//! Every kernel here replays the graph path's per-element f32 arithmetic
//! in the identical order, so plan outputs are bit-for-bit equal to
//! running [`crate::FusionNet::forward`] in `Mode::Eval` and taking the
//! sigmoid of the logits. Where a kernel deviates structurally (fused
//! epilogues, folded sums) the deviation is restricted to *where* a value
//! is computed, never to the sequence of operations that produce it.

use sf_tensor::int8::{im2col_i8_into, matmul_i8_into, quantize_i8};
use sf_tensor::{
    conv_epilogue, im2col_into, matmul_into, matmul_transpose_b, ConvEpilogue, Dequant, Tensor,
    TensorError,
};

use super::compile::{BnFold, CompiledPlan, ConvOp, PlanOp, QConvOp, Ref};
use super::quant::{INPUT_DEPTH, INPUT_RGB};

/// Bit-for-bit the same function as the autograd graph's private
/// `stable_sigmoid` (crates/autograd/src/graph.rs) — the plan's
/// probability head must reproduce it exactly.
fn stable_sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Shares a raw workspace pointer across the worker closure. Each image
/// index touches a disjoint region, so concurrent access never overlaps
/// (same idiom as the pool kernels in `sf-tensor`).
struct SyncPtr<T>(*mut T);

unsafe impl<T> Send for SyncPtr<T> {}
unsafe impl<T> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// The observation hook `run_batch_observed` threads through execution:
/// called with each op label and its freshly written output.
type Observer<'a> = &'a mut dyn FnMut(&str, &[f32]);

/// The plan's statically reserved scratch buffers, threaded to each op:
/// per-image f32 im2col regions plus the i8/i32 regions int8 convs use.
struct Workspaces<'a> {
    f32_buf: &'a mut [f32],
    f32_per_image: usize,
    q_buf: &'a mut [i8],
    q_per_image: usize,
    acc_buf: &'a mut [i32],
    acc_per_image: usize,
}

/// Resolves a value reference against the external inputs and the slot
/// arena.
fn resolve<'a>(
    r: Ref,
    rgb: &'a [f32],
    depth: Option<&'a [f32]>,
    slots: &'a [Vec<f32>],
) -> &'a [f32] {
    match r {
        Ref::Rgb => rgb,
        Ref::Depth => depth.expect("fused plan resolved a depth ref without a depth input"),
        Ref::Slot(s) => &slots[s],
    }
}

impl CompiledPlan {
    /// Runs the plan over a batch.
    ///
    /// `rgb` must be `[N, C_rgb, H, W]` matching the compiled geometry;
    /// `depth` is required (same `N`, `[N, C_d, H, W]`) for a
    /// [`PlanMode::Fused`] plan and ignored for camera-only plans.
    /// Returns road probabilities of shape `[N, 1, H, W]`.
    ///
    /// Scratch slots and the im2col workspace are reserved up front from
    /// the static schedule — the hot path performs no free-list search.
    pub fn run_batch(
        &mut self,
        rgb: &Tensor,
        depth: Option<&Tensor>,
    ) -> Result<Tensor, TensorError> {
        self.run_batch_inner(rgb, depth, None)
    }

    /// Like [`run_batch`](CompiledPlan::run_batch), but calls `observe`
    /// with `(label, data)` for the external inputs (`input.rgb`,
    /// `input.depth`) and then for every op's freshly written output,
    /// in execution order — the hook the int8 calibration pass streams
    /// activation ranges through. Observation never changes the
    /// computation; results stay bit-identical to `run_batch`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_batch`](CompiledPlan::run_batch).
    pub fn run_batch_observed(
        &mut self,
        rgb: &Tensor,
        depth: Option<&Tensor>,
        observe: Observer<'_>,
    ) -> Result<Tensor, TensorError> {
        self.run_batch_inner(rgb, depth, Some(observe))
    }

    fn run_batch_inner(
        &mut self,
        rgb: &Tensor,
        depth: Option<&Tensor>,
        mut observe: Option<Observer<'_>>,
    ) -> Result<Tensor, TensorError> {
        let (rc, rh, rw) = self.rgb_chw;
        let n = match rgb.shape() {
            [n, c, h, w] if *c == rc && *h == rh && *w == rw && *n > 0 => *n,
            other => {
                return Err(TensorError::InvalidGeometry {
                    op: "plan::run_batch",
                    reason: format!(
                        "plan expects rgb [N, {rc}, {rh}, {rw}] with N > 0, got {other:?}"
                    ),
                })
            }
        };
        let depth_data = if self.mode().needs_depth() {
            let (dc, dh, dw) = self.depth_chw;
            let d = depth.ok_or_else(|| TensorError::InvalidGeometry {
                op: "plan::run_batch",
                reason: "fused plan requires a depth batch".into(),
            })?;
            match d.shape() {
                [dn, c, h, w] if *dn == n && *c == dc && *h == dh && *w == dw => {}
                other => {
                    return Err(TensorError::InvalidGeometry {
                        op: "plan::run_batch",
                        reason: format!(
                            "plan expects depth [{n}, {dc}, {dh}, {dw}], got {other:?}"
                        ),
                    })
                }
            }
            Some(d.data())
        } else {
            None
        };
        let rgb_data = rgb.data();
        if let Some(obs) = observe.as_deref_mut() {
            obs(INPUT_RGB, rgb_data);
            if let Some(d) = depth_data {
                obs(INPUT_DEPTH, d);
            }
        }

        // Static reservation: one resize against the schedule, no
        // free-list search per op.
        let ws_need = n * self.ws_per_image;
        if self.workspace.len() != ws_need {
            self.workspace.resize(ws_need, 0.0);
        }
        let q_ws_need = n * self.q_ws_per_image;
        if self.qworkspace.len() != q_ws_need {
            self.qworkspace.resize(q_ws_need, 0);
        }
        let acc_ws_need = n * self.acc_ws_per_image;
        if self.accworkspace.len() != acc_ws_need {
            self.accworkspace.resize(acc_ws_need, 0);
        }

        // Disjoint field borrows: the op list stays in place (a panic
        // mid-batch must leave the plan reusable) while the slot arena
        // and workspace are threaded through the kernels mutably.
        let ws_per_image = self.ws_per_image;
        let q_ws_per_image = self.q_ws_per_image;
        let acc_ws_per_image = self.acc_ws_per_image;
        let mut live = 0usize;
        let mut high = 0usize;
        {
            let ops = &self.ops;
            let slots = &mut self.slots;
            let workspace = &mut self.workspace;
            let qworkspace = &mut self.qworkspace;
            let accworkspace = &mut self.accworkspace;
            for (j, op) in ops.iter().enumerate() {
                live += n * self.births[j];
                match op {
                    PlanOp::Conv(c) => {
                        high = high.max(live + n * c.geom.patch() * c.geom.cols());
                    }
                    PlanOp::QConv(c) => {
                        high = high.max(live + n * c.ws_f32_equiv());
                    }
                    _ => high = high.max(live),
                }
                let ws = Workspaces {
                    f32_buf: workspace,
                    f32_per_image: ws_per_image,
                    q_buf: qworkspace,
                    q_per_image: q_ws_per_image,
                    acc_buf: accworkspace,
                    acc_per_image: acc_ws_per_image,
                };
                exec_op(op, n, rgb_data, depth_data, slots, ws);
                if let Some(obs) = observe.as_deref_mut() {
                    obs(op.label(), &slots[op.out_val()]);
                }
                live -= n * self.deaths[j].iter().sum::<usize>();
            }
        }
        self.last_high_water = high;

        let (oh, ow) = self.out_hw;
        let data = std::mem::take(&mut self.slots[self.out_slot]);
        Tensor::from_vec(data, &[n, 1, oh, ow])
    }
}

fn exec_op(
    op: &PlanOp,
    n: usize,
    rgb: &[f32],
    depth: Option<&[f32]>,
    slots: &mut [Vec<f32>],
    ws: Workspaces<'_>,
) {
    match op {
        PlanOp::Conv(c) => exec_conv(c, n, rgb, depth, slots, ws.f32_buf, ws.f32_per_image),
        PlanOp::QConv(c) => exec_qconv(c, n, rgb, depth, slots, ws),
        PlanOp::MaxPool {
            input,
            out,
            c,
            h,
            w,
            accumulate,
            ..
        } => {
            let (c, h, w) = (*c, *h, *w);
            let (oh, ow) = (h / 2, w / 2);
            let out_plane = oh * ow;
            let mut buf = std::mem::take(&mut slots[*out]);
            buf.resize(n * c * out_plane, 0.0);
            let src = resolve(*input, rgb, depth, slots);
            let acc = accumulate.map(|r| resolve(r, rgb, depth, slots));
            // Identical traversal to the reference `max_pool2d`
            // kernel (2×2, stride 2), with the folded fusion sum
            // applied as `best + acc` — the reference's `r + d`.
            sf_runtime::parallel_chunks_mut(&mut buf, out_plane, |p, dst| {
                let plane = p * h * w;
                let ac = acc.map(|a| &a[p * out_plane..(p + 1) * out_plane]);
                let mut oi = 0usize;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for ky in 0..2 {
                            let iy = oy * 2 + ky;
                            let row = plane + iy * w + ox * 2;
                            for kx in 0..2 {
                                let v = src[row + kx];
                                if v > best {
                                    best = v;
                                }
                            }
                        }
                        dst[oi] = match ac {
                            Some(a) => best + a[oi],
                            None => best,
                        };
                        oi += 1;
                    }
                }
            });
            slots[*out] = buf;
        }
        PlanOp::Upsample {
            input,
            out,
            c,
            h,
            w,
            ..
        } => {
            let (c, h, w) = (*c, *h, *w);
            let (uh, uw) = (h * 2, w * 2);
            let mut buf = std::mem::take(&mut slots[*out]);
            buf.resize(n * c * uh * uw, 0.0);
            let src = resolve(*input, rgb, depth, slots);
            // Pure copies — the reference builds each output row then
            // duplicates it; any write order is bit-identical.
            for plane in 0..n * c {
                let sp = plane * h * w;
                let dp = plane * uh * uw;
                for iy in 0..h {
                    let srow = &src[sp + iy * w..sp + (iy + 1) * w];
                    let dbase = dp + iy * 2 * uw;
                    let drow = &mut buf[dbase..dbase + uw];
                    for (ix, &v) in srow.iter().enumerate() {
                        drow[ix * 2..(ix + 1) * 2].fill(v);
                    }
                    let (head, tail) = buf.split_at_mut(dbase + uw);
                    tail[..uw].copy_from_slice(&head[dbase..dbase + uw]);
                }
            }
            slots[*out] = buf;
        }
        PlanOp::AwnWeight {
            r,
            d,
            out,
            c,
            h,
            w,
            fc1_w,
            fc1_b,
            fc2_w,
            fc2_b,
            ..
        } => {
            let (c, h, w) = (*c, *h, *w);
            let plane = h * w;
            let rd = resolve(*r, rgb, depth, slots);
            let dd = resolve(*d, rgb, depth, slots);
            // GAP of the branch difference, accumulated in ascending
            // element order exactly like the reference
            // `sub → global_avg_pool` chain.
            let inv = 1.0 / plane as f32;
            let mut pooled = Tensor::zeros(&[n, c]);
            {
                let pd = pooled.data_mut();
                for img in 0..n {
                    for ch in 0..c {
                        let base = (img * c + ch) * plane;
                        let mut acc = 0.0f32;
                        for k in 0..plane {
                            acc += rd[base + k] - dd[base + k];
                        }
                        pd[img * c + ch] = acc * inv;
                    }
                }
            }
            // Same call chain as the graph's linear → relu → linear →
            // sigmoid on the tiny [N, C] pooled tensor.
            let h1 = matmul_transpose_b(&pooled, fc1_w)
                .expect("AWN fc1 matmul")
                .add(fc1_b);
            let h1 = h1.map(|x| x.max(0.0));
            let h2 = matmul_transpose_b(&h1, fc2_w)
                .expect("AWN fc2 matmul")
                .add(fc2_b);
            let wv = h2.map(stable_sigmoid);
            let mut buf = std::mem::take(&mut slots[*out]);
            buf.clear();
            buf.extend_from_slice(wv.data());
            slots[*out] = buf;
        }
        PlanOp::MulAdd {
            r,
            d,
            weight,
            out,
            elems,
            ..
        } => {
            let elems = *elems;
            let mut buf = std::mem::take(&mut slots[*out]);
            buf.resize(n * elems, 0.0);
            let rd = resolve(*r, rgb, depth, slots);
            let dd = resolve(*d, rgb, depth, slots);
            let wv = resolve(*weight, rgb, depth, slots);
            // `r + d·w[img]`: multiply then add, the reference's
            // `mul(d, w)` → `add(r, ·)` order.
            for (img, &wi) in wv[..n].iter().enumerate() {
                let base = img * elems;
                for k in 0..elems {
                    buf[base + k] = rd[base + k] + dd[base + k] * wi;
                }
            }
            slots[*out] = buf;
        }
        PlanOp::Sigmoid {
            input, out, elems, ..
        } => {
            let elems = *elems;
            let mut buf = std::mem::take(&mut slots[*out]);
            buf.resize(n * elems, 0.0);
            let src = resolve(*input, rgb, depth, slots);
            for (v, &s) in buf.iter_mut().zip(&src[..n * elems]) {
                *v = stable_sigmoid(s);
            }
            slots[*out] = buf;
        }
    }
}

/// The part of a convolution's epilogue both lowerings share, borrowed
/// from the op: `+bias`, folded BatchNorm, ReLU, and image `plane`'s
/// span of the folded `+accumulate` sum.
fn epilogue<'a>(
    bias: &'a Option<Vec<f32>>,
    bn: &'a Option<BnFold>,
    relu: bool,
    accumulate: Option<&'a [f32]>,
    plane: std::ops::Range<usize>,
) -> ConvEpilogue<'a> {
    ConvEpilogue {
        dequant: None,
        bias: bias.as_deref(),
        bn: bn.as_ref().map(|bn| sf_tensor::BnFold {
            mean: &bn.mean,
            scale: &bn.scale,
            gamma: &bn.gamma,
            beta: &bn.beta,
        }),
        relu,
        accumulate: accumulate.map(|a| &a[plane]),
    }
}

/// The convolution kernel with its fused epilogue. Per image:
/// `im2col → matmul` (the reference's exact unfold and accumulate
/// order), then one pass applying `+bias`, the folded BatchNorm
/// (`((v − m)·s)·γ + β`), ReLU, and the folded `+accumulate` sum.
#[allow(clippy::too_many_arguments)]
fn exec_conv(
    op: &ConvOp,
    n: usize,
    rgb: &[f32],
    depth: Option<&[f32]>,
    slots: &mut [Vec<f32>],
    workspace: &mut [f32],
    ws_per_image: usize,
) {
    let g = op.geom;
    let in_plane = g.in_plane();
    let out_plane = g.out_plane();
    let (patch, cols) = (g.patch(), g.cols());
    let mut out = std::mem::take(&mut slots[op.out]);
    // The matmul accumulates, so the output must start zeroed.
    out.clear();
    out.resize(n * out_plane, 0.0);
    let input = resolve(op.input, rgb, depth, slots);
    let acc = op.accumulate.map(|r| resolve(r, rgb, depth, slots));
    let wm = op.wmat.data();
    let ws_ptr = SyncPtr(workspace.as_mut_ptr());
    sf_runtime::parallel_chunks_mut(&mut out, out_plane, |img, dst| {
        // SAFETY: image `img` exclusively owns the workspace region
        // `[img · ws_per_image, img · ws_per_image + patch·cols)`;
        // regions of distinct images are disjoint and `ws_per_image ≥
        // patch·cols` for every conv in the plan.
        let cb = unsafe {
            std::slice::from_raw_parts_mut(ws_ptr.get().add(img * ws_per_image), patch * cols)
        };
        im2col_into(
            &input[img * in_plane..(img + 1) * in_plane],
            g.in_c,
            g.in_h,
            g.in_w,
            g.k,
            g.k,
            g.spec,
            cb,
            cols,
            0,
        );
        matmul_into(wm, cb, dst, g.out_c, patch, cols);
        let tail = epilogue(
            &op.bias,
            &op.bn,
            op.relu,
            acc,
            img * out_plane..(img + 1) * out_plane,
        );
        conv_epilogue(dst, cols, tail);
    });
    slots[op.out] = out;
}

/// The int8 convolution kernel. Per image: quantize the input plane with
/// the calibrated activation scale, unfold it with the i8 `im2col`,
/// multiply against the per-channel-quantized weights in i32, dequantize
/// through `in_scale · wscale[oc]`, then run the identical f32 epilogue
/// as [`exec_conv`] (`+bias`, folded BatchNorm, ReLU, `+accumulate`).
///
/// i32 accumulation is exactly associative, so outputs are bit-identical
/// run to run regardless of thread count or tiling — int8 plans are
/// reproducible by construction.
fn exec_qconv(
    op: &QConvOp,
    n: usize,
    rgb: &[f32],
    depth: Option<&[f32]>,
    slots: &mut [Vec<f32>],
    ws: Workspaces<'_>,
) {
    let g = op.geom;
    let in_plane = g.in_plane();
    let out_plane = g.out_plane();
    let (patch, cols) = (g.patch(), g.cols());
    let mut out = std::mem::take(&mut slots[op.out]);
    // The dequantizing epilogue overwrites every element: size, don't clear.
    out.resize(n * out_plane, 0.0);
    let input = resolve(op.input, rgb, depth, slots);
    let acc = op.accumulate.map(|r| resolve(r, rgb, depth, slots));
    let q_per_image = ws.q_per_image;
    let acc_per_image = ws.acc_per_image;
    let q_ptr = SyncPtr(ws.q_buf.as_mut_ptr());
    let acc_ptr = SyncPtr(ws.acc_buf.as_mut_ptr());
    sf_runtime::parallel_chunks_mut(&mut out, out_plane, |img, dst| {
        // SAFETY: image `img` exclusively owns the i8 region
        // `[img · q_per_image, img · q_per_image + in_plane + patch·cols)`
        // and the i32 region `[img · acc_per_image, … + out_plane)`;
        // regions of distinct images are disjoint and the per-image
        // reservations cover every int8 conv in the plan.
        let qregion = unsafe {
            std::slice::from_raw_parts_mut(
                q_ptr.get().add(img * q_per_image),
                in_plane + patch * cols,
            )
        };
        let accbuf = unsafe {
            std::slice::from_raw_parts_mut(acc_ptr.get().add(img * acc_per_image), out_plane)
        };
        let (qimg, qcols) = qregion.split_at_mut(in_plane);
        quantize_i8(
            &input[img * in_plane..(img + 1) * in_plane],
            op.in_scale,
            qimg,
        );
        im2col_i8_into(
            qimg, g.in_c, g.in_h, g.in_w, g.k, g.k, g.spec, qcols, cols, 0,
        );
        accbuf.fill(0);
        matmul_i8_into(&op.wq, qcols, accbuf, g.out_c, patch, cols);
        let tail = epilogue(
            &op.bias,
            &op.bn,
            op.relu,
            acc,
            img * out_plane..(img + 1) * out_plane,
        );
        conv_epilogue(
            dst,
            cols,
            ConvEpilogue {
                dequant: Some(Dequant {
                    acc: accbuf,
                    in_scale: op.in_scale,
                    wscale: &op.wscale,
                }),
                ..tail
            },
        );
    });
    slots[op.out] = out;
}
