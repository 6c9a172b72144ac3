//! The compiled-plan executor.
//!
//! Every kernel here replays the graph path's per-element f32 arithmetic
//! in the identical order, so plan outputs are bit-for-bit equal to
//! running [`crate::FusionNet::forward`] in `Mode::Eval` and taking the
//! sigmoid of the logits. Where a kernel deviates structurally (fused
//! epilogues, folded sums) the deviation is restricted to *where* a value
//! is computed, never to the sequence of operations that produce it.

use std::marker::PhantomData;

use sf_tensor::int8::{im2col_i8_into, matmul_i8_into, quantize_i8};
use sf_tensor::{
    conv_epilogue, im2col_into, matmul_into, matmul_transpose_b, ConvEpilogue, Dequant, Tensor,
    TensorError,
};

use super::compile::{f32_equiv, CompiledPlan, ConvOp, ConvWeights, OpKind, PlanOp, Ref};
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

/// One of the plan's statically reserved workspaces, carved into one
/// region of `per_image` elements per image so pool workers can fill
/// their images' regions concurrently (the same idiom as the pool kernels
/// in `sf-tensor`).
///
/// The disjointness invariant: image `img` owns
/// `[img · per_image, (img + 1) · per_image)` and nothing else; a kernel
/// working on image `img` asks for the first `need ≤ per_image` elements
/// of that range. `per_image` is the static schedule's maximum `need`
/// over every op in the plan, and the buffer holds `n · per_image`
/// elements for a batch of `n`.
struct Regions<'a, T> {
    base: *mut T,
    len: usize,
    per_image: usize,
    _buf: PhantomData<&'a mut [T]>,
}

// SAFETY: a `Regions` is a pointer into a buffer it borrows exclusively
// for `'a`; the only access path is `image`, whose contract keeps
// concurrent callers on disjoint ranges, so moving it to another thread
// is as sound as moving the `&mut [T]` it was made from.
unsafe impl<T: Send> Send for Regions<'_, T> {}
// SAFETY: as above — sharing it only lets several threads call `image`,
// which they may do for distinct images only.
unsafe impl<T: Send> Sync for Regions<'_, T> {}

impl<'a, T> Regions<'a, T> {
    fn new(buf: &'a mut [T], per_image: usize) -> Self {
        Regions {
            base: buf.as_mut_ptr(),
            len: buf.len(),
            per_image,
            _buf: PhantomData,
        }
    }

    /// The first `need` elements of image `img`'s region. Panics if that
    /// range leaves the region or the buffer — the static schedule rules
    /// it out, but memory safety rests on it, so release builds check too
    /// (two comparisons per image per convolution).
    ///
    /// # Safety
    ///
    /// No two slices obtained for the same `img` may be alive at once
    /// (`parallel_chunks_mut` hands each image index to exactly one
    /// worker).
    #[allow(clippy::mut_from_ref)]
    unsafe fn image(&self, img: usize, need: usize) -> &mut [T] {
        assert!(
            need <= self.per_image && img * self.per_image + need <= self.len,
            "image {img} needs {need} of a {}-element region in a {}-element workspace",
            self.per_image,
            self.len
        );
        // SAFETY: in bounds by the assertion above, and exclusive because
        // regions of distinct images are disjoint and the caller holds at
        // most one slice per image.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(img * self.per_image), need) }
    }
}

/// The observation hook `run_batch_observed` threads through execution:
/// called with each op label and its freshly written output.
type Observer<'a> = &'a mut dyn FnMut(&str, &[f32]);

/// The plan's statically reserved scratch buffers, threaded to each op:
/// per-image f32 im2col regions plus the i8/i32 regions int8 convs use.
struct Workspaces<'a> {
    f32: Regions<'a, f32>,
    q: Regions<'a, i8>,
    acc: Regions<'a, i32>,
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
        // mid-batch must leave the plan reusable) while the slot being
        // written is lifted out of the arena, so the kernels read every
        // other slot through a shared borrow.
        let ws = Workspaces {
            f32: Regions::new(&mut self.workspace, self.ws_per_image),
            q: Regions::new(&mut self.qworkspace, self.q_ws_per_image),
            acc: Regions::new(&mut self.accworkspace, self.acc_ws_per_image),
        };
        let mut live = 0usize;
        let mut high = 0usize;
        for (j, op) in self.ops.iter().enumerate() {
            live += n * self.births[j];
            high = high.max(live + n * f32_equiv(op.workspace()));
            let mut out = std::mem::take(&mut self.slots[op.out]);
            out.resize(n * self.births[j], 0.0);
            exec_op(op, n, rgb_data, depth_data, &self.slots, &mut out, &ws);
            if let Some(obs) = observe.as_deref_mut() {
                obs(&op.label, &out);
            }
            self.slots[op.out] = out;
            live -= n * self.deaths[j].iter().sum::<usize>();
        }
        self.last_high_water = high;

        let (oh, ow) = self.out_hw;
        let data = std::mem::take(&mut self.slots[self.out_slot]);
        Tensor::from_vec(data, &[n, 1, oh, ow])
    }
}

/// Runs one op: reads its operands from the inputs and `slots`, writes
/// `out` (already sized to `n ×` the op's per-image output).
fn exec_op(
    op: &PlanOp,
    n: usize,
    rgb: &[f32],
    depth: Option<&[f32]>,
    slots: &[Vec<f32>],
    out: &mut [f32],
    ws: &Workspaces<'_>,
) {
    // Resolves a value reference against the external inputs and the
    // slot arena.
    let at = |r: Ref| match r {
        Ref::Rgb => rgb,
        Ref::Depth => depth.expect("fused plan resolved a depth ref without a depth input"),
        Ref::Slot(s) => &slots[s][..],
    };
    match &op.kind {
        OpKind::Conv(c) => exec_conv(c, at(c.input), c.accumulate.map(at), out, ws),
        OpKind::MaxPool {
            input,
            chw: (_, h, w),
            accumulate,
        } => {
            let (h, w) = (*h, *w);
            let (oh, ow) = (h / 2, w / 2);
            let out_plane = oh * ow;
            let src = at(*input);
            let acc = accumulate.map(at);
            // Identical traversal to the reference `max_pool2d`
            // kernel (2×2, stride 2), with the folded fusion sum
            // applied as `best + acc` — the reference's `r + d`.
            sf_runtime::parallel_chunks_mut(out, out_plane, |p, dst| {
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
        }
        OpKind::Upsample {
            input,
            chw: (c, h, w),
        } => {
            let (c, h, w) = (*c, *h, *w);
            let (uh, uw) = (h * 2, w * 2);
            let src = at(*input);
            // Pure copies — the reference builds each output row then
            // duplicates it; any write order is bit-identical.
            for plane in 0..n * c {
                let sp = plane * h * w;
                let dp = plane * uh * uw;
                for iy in 0..h {
                    let srow = &src[sp + iy * w..sp + (iy + 1) * w];
                    let dbase = dp + iy * 2 * uw;
                    let drow = &mut out[dbase..dbase + uw];
                    for (ix, &v) in srow.iter().enumerate() {
                        drow[ix * 2..(ix + 1) * 2].fill(v);
                    }
                    let (head, tail) = out.split_at_mut(dbase + uw);
                    tail[..uw].copy_from_slice(&head[dbase..dbase + uw]);
                }
            }
        }
        OpKind::AwnWeight {
            r,
            d,
            chw: (c, h, w),
            fc1_w,
            fc1_b,
            fc2_w,
            fc2_b,
        } => {
            let (c, plane) = (*c, h * w);
            let (rd, dd) = (at(*r), at(*d));
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
            out.copy_from_slice(h2.map(stable_sigmoid).data());
        }
        OpKind::MulAdd {
            r,
            d,
            weight,
            elems,
        } => {
            let elems = *elems;
            let (rd, dd, wv) = (at(*r), at(*d), at(*weight));
            // `r + d·w[img]`: multiply then add, the reference's
            // `mul(d, w)` → `add(r, ·)` order.
            for (img, &wi) in wv[..n].iter().enumerate() {
                let base = img * elems;
                for k in 0..elems {
                    out[base + k] = rd[base + k] + dd[base + k] * wi;
                }
            }
        }
        OpKind::Sigmoid { input, .. } => {
            for (v, &s) in out.iter_mut().zip(at(*input)) {
                *v = stable_sigmoid(s);
            }
        }
    }
}

/// The convolution kernel with its fused epilogue, f32 or int8. Per image
/// the GEMM stage fills either `dst` itself or the i32 accumulators:
///
/// - f32: `im2col → matmul`, the reference's exact unfold and accumulate
///   order;
/// - int8: quantize the input plane with the calibrated activation scale,
///   unfold it with the i8 `im2col`, multiply against the
///   per-channel-quantized weights in i32. i32 accumulation is exactly
///   associative, so outputs are bit-identical run to run regardless of
///   thread count or tiling — int8 plans are reproducible by construction.
///
/// Then one pass over `dst` applies the epilogue both share: dequantize
/// through `in_scale · wscale[oc]` (int8 only), `+bias`, the folded
/// BatchNorm (`((v − m)·s)·γ + β`), ReLU, and the folded `+accumulate`
/// sum.
fn exec_conv(
    op: &ConvOp,
    input: &[f32],
    accumulate: Option<&[f32]>,
    out: &mut [f32],
    ws: &Workspaces<'_>,
) {
    let g = op.geom;
    let in_plane = g.in_plane();
    let out_plane = g.out_plane();
    let (patch, cols) = (g.patch(), g.cols());
    sf_runtime::parallel_chunks_mut(out, out_plane, |img, dst| {
        let plane = &input[img * in_plane..(img + 1) * in_plane];
        let dequant = match &op.weights {
            ConvWeights::F32(wmat) => {
                // SAFETY: this worker is the only one handed image `img`.
                let cb = unsafe { ws.f32.image(img, patch * cols) };
                im2col_into(plane, g.in_c, g.in_h, g.in_w, g.k, g.k, g.spec, cb, cols, 0);
                // The matmul accumulates, so the output must start zeroed.
                dst.fill(0.0);
                matmul_into(wmat.data(), cb, dst, g.out_c, patch, cols);
                None
            }
            ConvWeights::I8 {
                wq,
                wscale,
                in_scale,
            } => {
                // SAFETY: this worker is the only one handed image `img`.
                let (qregion, acc) = unsafe {
                    (
                        ws.q.image(img, in_plane + patch * cols),
                        ws.acc.image(img, out_plane),
                    )
                };
                let (qimg, qcols) = qregion.split_at_mut(in_plane);
                quantize_i8(plane, *in_scale, qimg);
                im2col_i8_into(
                    qimg, g.in_c, g.in_h, g.in_w, g.k, g.k, g.spec, qcols, cols, 0,
                );
                acc.fill(0);
                matmul_i8_into(wq, qcols, acc, g.out_c, patch, cols);
                // The dequantizing epilogue overwrites every element of
                // `dst`: no need to clear it.
                Some(Dequant {
                    acc,
                    in_scale: *in_scale,
                    wscale,
                })
            }
        };
        let tail = ConvEpilogue {
            dequant,
            bias: op.bias.as_deref(),
            bn: op.bn.as_ref().map(|bn| sf_tensor::BnFold {
                mean: &bn.mean,
                scale: &bn.scale,
                gamma: &bn.gamma,
                beta: &bn.beta,
            }),
            relu: op.relu,
            accumulate: accumulate.map(|a| &a[img * out_plane..(img + 1) * out_plane]),
        };
        conv_epilogue(dst, cols, tail);
    });
}
