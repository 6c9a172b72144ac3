//! The compiled-plan executor.
//!
//! Every kernel here replays the graph path's per-element f32 arithmetic
//! in the identical order, so plan outputs are bit-for-bit equal to
//! running [`crate::FusionNet::forward`] in `Mode::Eval` and taking the
//! sigmoid of the logits. Where a kernel deviates structurally (fused
//! epilogues, folded sums) the deviation is restricted to *where* a value
//! is computed, never to the sequence of operations that produce it.
//!
//! Execution is image-major: a pass is one parallel region whose tasks are
//! the batch's images, and each image walks the whole op list on one
//! thread, on a scratch arena (a [`Lane`]) checked out for the duration.
//! Which thread runs which image changes no value — every image is
//! computed by the same calls whatever the batch around it.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

use sf_tensor::int8::{im2col_i8_into, matmul_i8_into, quantize_i8};
use sf_tensor::{
    conv_epilogue, im2col_into, matmul_into, matmul_transpose_b, ConvEpilogue, Dequant, Tensor,
    TensorError,
};

use super::compile::{CompiledPlan, ConvOp, ConvWeights, OpKind, PlanOp, Ref};
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

/// The observation hook `run_batch_observed` threads through execution:
/// called with each op label and the image's freshly written output.
type Observer<'a> = &'a mut dyn FnMut(&str, &[f32]);

/// A buffer whose first element sits on a cache-line boundary. The
/// allocator promises a `Vec<f32>` 4 bytes, so where a recycled heap chunk
/// starts is the process's allocation history — and when it starts 16
/// bytes off a 32-byte boundary every other vector load of the im2col and
/// the GEMM straddles two lines. Measured on the standard network (AVX2, 2
/// threads): a batch-8 pass takes 2.17 ms on aligned arenas and 2.32 ms on
/// ones 16 bytes off; which of the two a process drew was the run-to-run
/// spread of the serving benchmark.
#[derive(Debug)]
struct Aligned<T> {
    buf: Vec<T>,
    start: usize,
    len: usize,
}

impl<T: Clone + Default> Aligned<T> {
    const LINE: usize = 64;

    fn new(len: usize) -> Self {
        let pad = Self::LINE / std::mem::size_of::<T>();
        let buf = vec![T::default(); len + pad];
        // `align_offset` may decline (`usize::MAX`): alignment buys speed,
        // nothing depends on it.
        let start = buf.as_ptr().align_offset(Self::LINE).min(pad);
        Aligned { buf, start, len }
    }
}

impl<T> Deref for Aligned<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl<T> DerefMut for Aligned<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

/// One lane's arena: every scratch slot of the static schedule plus the
/// conv workspaces (f32 im2col, i8 quantized plane + patch matrix, i32
/// accumulators), each allocated once at the schedule's per-image maximum.
/// A thread of the pass checks one out per image, so one image's worth is
/// all it ever needs; ops borrow prefixes and nothing is resized or moved
/// at run time.
#[derive(Debug)]
pub(crate) struct Lane {
    slots: Vec<Aligned<f32>>,
    cols: Aligned<f32>,
    q: Aligned<i8>,
    acc: Aligned<i32>,
}

/// The lanes a batch of `n` runs on: one per thread that can take part in
/// the pass.
fn lanes_for(n: usize) -> usize {
    n.clamp(1, sf_runtime::num_threads())
}

/// Checks out a lane nobody is running on. A pass has a lane per thread
/// and a thread holds one only while it runs an image, so there always is
/// one; no thread ever waits here.
fn free_lane(lanes: &[Mutex<Lane>]) -> MutexGuard<'_, Lane> {
    for lane in lanes {
        match lane.try_lock() {
            Ok(lane) => return lane,
            // A panicking op poisons the lock, not the arena: no op moves
            // or resizes a buffer, so the plan stays usable after a failed
            // batch.
            Err(TryLockError::Poisoned(lane)) => return lane.into_inner(),
            Err(TryLockError::WouldBlock) => {}
        }
    }
    panic!("a pass has one lane per thread taking part")
}

/// One input of a batch of `n`, checked against the compiled geometry:
/// its data and its elements per image.
fn input<'a>(
    n: usize,
    name: &str,
    t: &'a Tensor,
    (c, h, w): (usize, usize, usize),
) -> Result<(&'a [f32], usize), TensorError> {
    if n > 0 && t.shape() == [n, c, h, w] {
        return Ok((t.data(), c * h * w));
    }
    Err(TensorError::InvalidGeometry {
        op: "plan::run_batch",
        reason: format!(
            "plan expects {name} [N, {c}, {h}, {w}] with rgb's N > 0, got {:?}",
            t.shape()
        ),
    })
}

/// Image `i` of a checked input.
fn image_of(i: usize, (data, elems): (&[f32], usize)) -> &[f32] {
    &data[i * elems..(i + 1) * elems]
}

impl CompiledPlan {
    /// Runs the plan over a batch.
    ///
    /// `rgb` must be `[N, C_rgb, H, W]` matching the compiled geometry;
    /// `depth` is required (same `N`, `[N, C_d, H, W]`) for a
    /// [`PlanMode::Fused`] plan and ignored for camera-only plans.
    /// Returns road probabilities of shape `[N, 1, H, W]`.
    ///
    /// The pass is one parallel region whose unit of work is an image:
    /// a thread of the pool claims the next image, checks out one of the
    /// plan's `min(N, threads)` lanes and walks the image through the
    /// whole op list on that lane's arena. A batch of one runs on the
    /// calling thread.
    pub fn run_batch(
        &mut self,
        rgb: &Tensor,
        depth: Option<&Tensor>,
    ) -> Result<Tensor, TensorError> {
        self.run_batch_inner(rgb, depth, None)
    }

    /// Like [`run_batch`](CompiledPlan::run_batch), but runs the images
    /// one after another on the calling thread and calls `observe` with
    /// `(label, data)` per image: first its external inputs (`input.rgb`,
    /// `input.depth`), then every op's freshly written output for that
    /// image, in execution order — the hook the int8 calibration pass
    /// streams activation ranges through. The time between two callbacks
    /// is therefore one op's serial time on one image. Observation never
    /// changes the computation; results stay bit-identical to `run_batch`.
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
        observe: Option<Observer<'_>>,
    ) -> Result<Tensor, TensorError> {
        let n = rgb.shape().first().copied().unwrap_or(0);
        let rgb = input(n, "rgb", rgb, self.rgb_chw)?;
        let depth = match (self.mode().needs_depth(), depth) {
            (false, _) => None,
            (true, Some(d)) => Some(input(n, "depth", d, self.depth_chw)?),
            (true, None) => {
                return Err(TensorError::InvalidGeometry {
                    op: "plan::run_batch",
                    reason: "fused plan requires a depth batch".into(),
                })
            }
        };

        while self.lanes.len() < lanes_for(n) {
            self.lanes.push(Mutex::new(Lane {
                slots: self.slot_sizes.iter().map(|&s| Aligned::new(s)).collect(),
                cols: Aligned::new(self.ws_per_image),
                q: Aligned::new(self.q_ws_per_image),
                acc: Aligned::new(self.acc_ws_per_image),
            }));
        }
        let (oh, ow) = self.out_hw;
        let mut out = vec![0.0f32; n * oh * ow];
        let image = |i: usize, dst: &mut [f32], observe: Option<Observer<'_>>| {
            let mut lane = free_lane(&self.lanes);
            let frame = (image_of(i, rgb), depth.map(|d| image_of(i, d)));
            run_image(&self.ops, &mut lane, frame, observe);
            dst.copy_from_slice(&lane.slots[self.out_slot]);
        };
        match observe {
            Some(observe) => {
                for (i, dst) in out.chunks_mut(oh * ow).enumerate() {
                    image(i, dst, Some(&mut *observe));
                }
            }
            None => sf_runtime::parallel_chunks_mut(&mut out, oh * ow, |i, dst| {
                // An image never blocks, and every core may be running
                // one: before taking another, let a thread queued behind
                // this one (the serving layer's clients, woken by the
                // previous batch's results) have the core. Without this,
                // saturated closed-loop clients on 2 cores were held up
                // for a whole pass and ~10 % of the batches went out
                // part-full.
                if i > 0 {
                    std::thread::yield_now();
                }
                image(i, dst, None);
            }),
        }
        Tensor::from_vec(out, &[n, 1, oh, ow])
    }

    /// The scratch a batch of `n` runs on, in f32-equivalent elements: one
    /// [`reservation_per_image`](Self::reservation_per_image) per lane — it
    /// scales with the worker threads, not with the batch.
    pub fn reservation_elems(&self, n: usize) -> usize {
        lanes_for(n) * self.reservation_per_image()
    }

    /// The scratch this plan holds right now, measured off its arenas
    /// (f32-equivalent elements, alignment padding aside). Zero before the
    /// first run; afterwards [`reservation_elems`](Self::reservation_elems)
    /// of the widest batch so far.
    pub fn arena_elems(&self) -> usize {
        let held = |l: &Lane| {
            l.slots.iter().map(|s| s.len()).sum::<usize>()
                + l.cols.len()
                + l.q.len().div_ceil(4)
                + l.acc.len()
        };
        let lanes = self.lanes.iter();
        lanes
            .map(|l| held(&l.lock().unwrap_or_else(PoisonError::into_inner)))
            .sum()
    }
}

/// Walks one image through the whole op list on `lane`, leaving every
/// value in its slot.
fn run_image(
    ops: &[PlanOp],
    lane: &mut Lane,
    (rgb, depth): (&[f32], Option<&[f32]>),
    mut observe: Option<Observer<'_>>,
) {
    if let Some(obs) = observe.as_deref_mut() {
        obs(INPUT_RGB, rgb);
        if let Some(d) = depth {
            obs(INPUT_DEPTH, d);
        }
    }
    for op in ops {
        exec_op(op, rgb, depth, lane);
        if let Some(obs) = observe.as_deref_mut() {
            obs(&op.label, &lane.slots[op.out]);
        }
    }
}

/// Runs one op on one image: reads its operands from the image's inputs
/// and the lane's other slots, writes the op's output slot.
fn exec_op(op: &PlanOp, rgb: &[f32], depth: Option<&[f32]>, lane: &mut Lane) {
    let Lane {
        slots,
        cols,
        q,
        acc: acc32,
    } = lane;
    // The slot being written is split off, so the kernels read every other
    // slot through a shared borrow (the schedule never lets an op read the
    // slot it writes).
    let (before, rest) = slots.split_at_mut(op.out);
    let (out, after) = rest.split_first_mut().expect("an op writes a slot");
    let out = &mut out[..];
    // Resolves a value reference against the external inputs and the
    // slot arena.
    let at = |r: Ref| match r {
        Ref::Rgb => rgb,
        Ref::Depth => depth.expect("fused plan resolved a depth ref without a depth input"),
        Ref::Slot(s) if s < op.out => &before[s][..],
        Ref::Slot(s) => &after[s - op.out - 1][..],
    };
    match &op.kind {
        OpKind::Conv(c) => exec_conv(c, at(c.input), c.accumulate.map(at), out, cols, q, acc32),
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
            for (p, dst) in out.chunks_mut(out_plane).enumerate() {
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
            }
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
            for plane in 0..c {
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
            let mut pooled = Tensor::zeros(&[1, c]);
            for (ch, p) in pooled.data_mut().iter_mut().enumerate() {
                let base = ch * plane;
                let mut acc = 0.0f32;
                for k in 0..plane {
                    acc += rd[base + k] - dd[base + k];
                }
                *p = acc * inv;
            }
            // Same call chain as the graph's linear → relu → linear →
            // sigmoid, on this image's `[1, C]` row of the pooled tensor.
            let h1 = matmul_transpose_b(&pooled, fc1_w)
                .expect("AWN fc1 matmul")
                .add(fc1_b);
            let h1 = h1.map(|x| x.max(0.0));
            let h2 = matmul_transpose_b(&h1, fc2_w)
                .expect("AWN fc2 matmul")
                .add(fc2_b);
            out.copy_from_slice(h2.map(stable_sigmoid).data());
        }
        OpKind::MulAdd { r, d, weight, .. } => {
            let (rd, dd, wi) = (at(*r), at(*d), at(*weight)[0]);
            // `r + d·w`: multiply then add, the reference's `mul(d, w)` →
            // `add(r, ·)` order, with this image's scalar weight.
            for (o, (&rv, &dv)) in out.iter_mut().zip(rd.iter().zip(dd)) {
                *o = rv + dv * wi;
            }
        }
        OpKind::Sigmoid { input, .. } => {
            for (v, &s) in out.iter_mut().zip(at(*input)) {
                *v = stable_sigmoid(s);
            }
        }
    }
}

/// The convolution kernel with its fused epilogue, f32 or int8, on one
/// image. The GEMM stage fills either `dst` itself or the i32 accumulators:
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
///
/// `cols`, `q` and `acc` are the lane's workspaces; the op borrows the
/// prefix it needs (the static schedule sized them to the largest op, and
/// a prefix that did not fit would panic, not overrun).
fn exec_conv(
    op: &ConvOp,
    plane: &[f32],
    accumulate: Option<&[f32]>,
    dst: &mut [f32],
    cols: &mut [f32],
    q: &mut [i8],
    acc: &mut [i32],
) {
    let g = op.geom;
    let (patch, ncols) = (g.patch(), g.cols());
    let dequant = match &op.weights {
        ConvWeights::F32(wmat) => {
            let cb = &mut cols[..patch * ncols];
            im2col_into(
                plane, g.in_c, g.in_h, g.in_w, g.k, g.k, g.spec, cb, ncols, 0,
            );
            // The matmul accumulates, so the output must start zeroed.
            dst.fill(0.0);
            matmul_into(wmat.data(), cb, dst, g.out_c, patch, ncols);
            None
        }
        ConvWeights::I8 {
            wq,
            wscale,
            in_scale,
        } => {
            let (qimg, qcols) = q[..g.in_plane() + patch * ncols].split_at_mut(g.in_plane());
            let acc = &mut acc[..g.out_plane()];
            quantize_i8(plane, *in_scale, qimg);
            im2col_i8_into(
                qimg, g.in_c, g.in_h, g.in_w, g.k, g.k, g.spec, qcols, ncols, 0,
            );
            acc.fill(0);
            matmul_i8_into(wq, qcols, acc, g.out_c, patch, ncols);
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
        accumulate,
    };
    conv_epilogue(dst, ncols, tail);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile::tests::{lowered, random_net, ALL_MODES};
    use sf_tensor::testkit::check_cases;

    /// Where every buffer of every lane lives: moves only if something
    /// reallocates.
    fn arena_addresses(plan: &CompiledPlan) -> Vec<Vec<usize>> {
        plan.lanes
            .iter()
            .map(|lane| {
                let lane = lane.lock().expect("no pass in flight");
                let mut at: Vec<usize> = lane.slots.iter().map(|s| s.as_ptr() as usize).collect();
                at.extend([
                    lane.cols.as_ptr() as usize,
                    lane.q.as_ptr() as usize,
                    lane.acc.as_ptr() as usize,
                ]);
                at
            })
            .collect()
    }

    /// Batch shape never changes a value: `run_batch` of `n` equals `n`
    /// batch-1 passes bit for bit — one image, odd batches, more images
    /// than lanes — for random networks of every scheme in all four modes
    /// (WS brings the per-image AWN weight and `MulAdd`). Run under
    /// `SF_THREADS=1,2,4` by CI, so thread count is covered too.
    #[test]
    fn batch_shape_never_changes_a_value() {
        check_cases(24, |c| {
            let (net, profile) = random_net(c);
            let config = net.config().clone();
            let (h, w) = (config.height, config.width);
            let dc = config.depth_channels;
            let rgb: Vec<Tensor> = (0..9)
                .map(|_| c.rng().uniform(&[3, h, w], 0.0, 1.0))
                .collect();
            let depth: Vec<Tensor> = (0..9)
                .map(|_| c.rng().uniform(&[dc, h, w], 0.0, 1.0))
                .collect();
            let batch = |frames: &[Tensor]| Tensor::stack(frames).expect("same-shape frames");
            for mode in ALL_MODES {
                let mut plan = lowered(&net, mode, &profile);
                let mut single = lowered(&net, mode, &profile);
                let alone: Vec<Tensor> = (0..9)
                    .map(|i| {
                        let d = batch(&depth[i..=i]);
                        single
                            .run_batch(&batch(&rgb[i..=i]), mode.needs_depth().then_some(&d))
                            .expect("batch of one")
                    })
                    .collect();
                for n in [1usize, 2, 3, 5, 8, 9] {
                    let d = batch(&depth[..n]);
                    let got = plan
                        .run_batch(&batch(&rgb[..n]), mode.needs_depth().then_some(&d))
                        .unwrap_or_else(|e| panic!("{mode} {config:?} n={n}: {e}"));
                    for (i, (got, want)) in got
                        .data()
                        .chunks(h * w)
                        .zip(alone.iter().map(Tensor::data))
                        .enumerate()
                    {
                        let same = got
                            .iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "{mode} {config:?}: image {i} of {n} differs");
                    }
                }
            }
        });
    }

    /// The arenas are allocated once per lane, every buffer on a cache-line
    /// boundary, and never again: alternating
    /// batch sizes (the serving layer's every flush) moves no buffer, and
    /// a wider batch only adds lanes.
    #[test]
    fn alternating_batch_sizes_reallocate_nothing() {
        check_cases(4, |c| {
            let (net, profile) = random_net(c);
            let config = net.config().clone();
            let mut batch = |n: usize| {
                (
                    c.rng()
                        .uniform(&[n, 3, config.height, config.width], 0.0, 1.0),
                    c.rng().uniform(
                        &[n, config.depth_channels, config.height, config.width],
                        0.0,
                        1.0,
                    ),
                )
            };
            for mode in ALL_MODES {
                let mut plan = lowered(&net, mode, &profile);
                let mut run = |plan: &mut CompiledPlan, n: usize| {
                    let (rgb, depth) = batch(n);
                    plan.run_batch(&rgb, mode.needs_depth().then_some(&depth))
                        .expect("plan runs");
                };
                run(&mut plan, 8);
                let after_first = arena_addresses(&plan);
                let on_a_line = |at: &usize| at.is_multiple_of(Aligned::<f32>::LINE);
                assert!(after_first.iter().flatten().all(on_a_line), "{mode}");
                assert_eq!(plan.arena_elems(), plan.reservation_elems(8));
                for n in [1usize, 3, 8] {
                    run(&mut plan, n);
                    assert_eq!(arena_addresses(&plan), after_first, "{mode} n={n}");
                }
                // Growing: the lanes a narrower batch made stay where they are.
                let mut plan = lowered(&net, mode, &profile);
                let mut seen: Vec<Vec<usize>> = Vec::new();
                for n in [1usize, 3, 8] {
                    run(&mut plan, n);
                    let now = arena_addresses(&plan);
                    assert_eq!(now[..seen.len()], seen[..], "{mode} n={n}");
                    assert_eq!(plan.arena_elems(), plan.reservation_elems(n));
                    seen = now;
                }
            }
        });
    }
}
