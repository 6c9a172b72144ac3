//! 2-D convolution via `im2col`, with exact forward and backward passes.
//!
//! Layout conventions (all row-major):
//! - input `x`: `[N, C, H, W]`
//! - weight `w`: `[O, C, KH, KW]`
//! - bias `b`: `[O]`
//! - output `y`: `[N, O, OH, OW]` with
//!   `OH = (H + 2·pad − KH)/stride + 1` (likewise `OW`).

use crate::kernels::gemm;
use crate::linalg::{matmul_transpose_a, matmul_transpose_b};
use crate::{scratch, Result, Tensor, TensorError};

/// Geometry of a 2-D convolution: stride and symmetric zero padding.
///
/// # Examples
///
/// ```
/// use sf_tensor::Conv2dSpec;
///
/// let same = Conv2dSpec::same(3); // 3×3 kernel, stride 1, pad 1
/// assert_eq!(same.out_size(32, 3), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Stride applied in both spatial dimensions (must be ≥ 1).
    pub stride: usize,
    /// Symmetric zero padding applied in both spatial dimensions.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec with the given stride and padding.
    pub fn new(stride: usize, padding: usize) -> Self {
        Conv2dSpec { stride, padding }
    }

    /// The "same" convolution spec for an odd `kernel` size: stride 1 and
    /// padding `kernel / 2`, so spatial dimensions are preserved.
    pub fn same(kernel: usize) -> Self {
        Conv2dSpec {
            stride: 1,
            padding: kernel / 2,
        }
    }

    /// Returns the spec with the given stride (chainable).
    ///
    /// # Examples
    ///
    /// ```
    /// use sf_tensor::Conv2dSpec;
    ///
    /// let spec = Conv2dSpec::default().with_stride(2).with_padding(1);
    /// assert_eq!(spec, Conv2dSpec::new(2, 1));
    /// ```
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Returns the spec with the given symmetric padding (chainable).
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Output spatial size for an input of size `input` and kernel size
    /// `kernel`, or 0 if the kernel does not fit.
    pub fn out_size(&self, input: usize, kernel: usize) -> usize {
        let padded = input + 2 * self.padding;
        if padded < kernel || self.stride == 0 {
            0
        } else {
            (padded - kernel) / self.stride + 1
        }
    }
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec {
            stride: 1,
            padding: 0,
        }
    }
}

fn conv_geometry(
    x: &Tensor,
    w: &Tensor,
    spec: Conv2dSpec,
) -> Result<(usize, usize, usize, usize, usize, usize, usize)> {
    let (n, c, h, ww) = match x.shape() {
        [n, c, h, w] => (*n, *c, *h, *w),
        other => {
            return Err(TensorError::RankMismatch {
                op: "conv2d",
                expected: 4,
                actual: other.to_vec(),
            })
        }
    };
    let (o, cw, kh, kw) = match w.shape() {
        [o, cw, kh, kw] => (*o, *cw, *kh, *kw),
        other => {
            return Err(TensorError::RankMismatch {
                op: "conv2d",
                expected: 4,
                actual: other.to_vec(),
            })
        }
    };
    if c != cw {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: x.shape().to_vec(),
            rhs: w.shape().to_vec(),
        });
    }
    if spec.stride == 0 {
        return Err(TensorError::InvalidGeometry {
            op: "conv2d",
            reason: "stride must be >= 1".to_string(),
        });
    }
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(ww, kw);
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidGeometry {
            op: "conv2d",
            reason: format!(
                "kernel {kh}x{kw} with padding {} does not fit input {h}x{ww}",
                spec.padding
            ),
        });
    }
    let _ = (oh, ow);
    Ok((n, c, h, ww, o, kh, kw))
}

/// Unfolds one `CHW` image into the `im2col` matrix `[C·KH·KW, OH·OW]`.
///
/// Each column holds the receptive field of one output pixel; out-of-bounds
/// (padding) taps are zero.
///
/// # Errors
///
/// Returns an error if `image` is not rank 3 or the geometry is invalid.
pub fn im2col(image: &Tensor, kh: usize, kw: usize, spec: Conv2dSpec) -> Result<Tensor> {
    let (c, h, w) = match image.shape() {
        [c, h, w] => (*c, *h, *w),
        other => {
            return Err(TensorError::RankMismatch {
                op: "im2col",
                expected: 3,
                actual: other.to_vec(),
            })
        }
    };
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidGeometry {
            op: "im2col",
            reason: format!("kernel {kh}x{kw} does not fit input {h}x{w}"),
        });
    }
    let cols = oh * ow;
    let mut out = Tensor::zeros(&[c * kh * kw, cols]);
    im2col_into(image.data(), c, h, w, kh, kw, spec, out.data_mut(), cols, 0);
    Ok(out)
}

/// Scatters one `CHW` image into an `im2col` destination whose rows have
/// length `row_stride`, writing this image's `OH·OW` columns at
/// `col_offset` — so several images can share one wide patch matrix (the
/// batched convolution path). Every one of those columns is written,
/// padding taps as zeros, so the destination need not be cleared first.
///
/// Public because the compiled-plan executor in `sf-core` builds its
/// convolution ops from exactly this unfold plus [`matmul_into`]; going
/// through the same kernels is what keeps plan outputs bit-identical to
/// [`conv2d`].
///
/// [`matmul_into`]: crate::matmul_into
#[allow(clippy::too_many_arguments)]
pub fn im2col_into(
    src: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    dst: &mut [f32],
    row_stride: usize,
    col_offset: usize,
) {
    unfold_into(src, c, h, w, kh, kw, spec, dst, row_stride, col_offset);
}

/// The unfold shared by [`im2col_into`] and its int8 twin: in-bounds taps
/// are copied, padding taps written as `T::default()` (zero).
#[allow(clippy::too_many_arguments)]
pub(crate) fn unfold_into<T: Copy + Default>(
    src: &[T],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    dst: &mut [T],
    row_stride: usize,
    col_offset: usize,
) {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    if oh == 0 || ow == 0 {
        return;
    }
    let pad = spec.padding as isize;
    let stride = spec.stride;
    let zero = T::default();
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let dst_row = &mut dst[row * row_stride + col_offset..][..oh * ow];
                // With unit stride the in-bounds taps of an output row are
                // one contiguous span `ox0..ox1` (ix = ox + kj − pad): copy
                // it as a block instead of testing every tap.
                let shift = kj as isize - pad;
                let ox0 = ((-shift).max(0) as usize).min(ow);
                let ox1 = ow.min((w as isize - shift).max(0) as usize).max(ox0);
                for (oy, dst_span) in dst_row.chunks_exact_mut(ow).enumerate() {
                    let iy = (oy * stride) as isize + ki as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        dst_span.fill(zero);
                        continue;
                    }
                    let src_row = &src[(ch * h + iy as usize) * w..][..w];
                    if stride == 1 {
                        let (left, rest) = dst_span.split_at_mut(ox0);
                        let (span, right) = rest.split_at_mut(ox1 - ox0);
                        // The pads are a tap or two: a loop beats a memset call.
                        for d in left.iter_mut().chain(right) {
                            *d = zero;
                        }
                        if !span.is_empty() {
                            let ix0 = (ox0 as isize + shift) as usize;
                            span.copy_from_slice(&src_row[ix0..][..ox1 - ox0]);
                        }
                    } else {
                        for (ox, d) in dst_span.iter_mut().enumerate() {
                            let ix = (ox * stride) as isize + kj as isize - pad;
                            *d = if ix >= 0 && ix < w as isize {
                                src_row[ix as usize]
                            } else {
                                zero
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Folds an `im2col` matrix back into a `CHW` image, *summing* overlapping
/// contributions — the adjoint of [`im2col`], used for input gradients.
///
/// # Errors
///
/// Returns an error if `cols` is not rank 2 or its shape is inconsistent
/// with the requested geometry.
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let expected = [c * kh * kw, oh * ow];
    if cols.shape() != expected {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols.shape().to_vec(),
            rhs: expected.to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[c, h, w]);
    let src = cols.data();
    let dst = out.data_mut();
    let pad = spec.padding as isize;
    let stride = spec.stride;
    let ncols = oh * ow;
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let src_row = &src[row * ncols..(row + 1) * ncols];
                for oy in 0..oh {
                    let iy = (oy * stride) as isize + ki as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_base = (ch * h + iy as usize) * w;
                    let src_base = oy * ow;
                    for ox in 0..ow {
                        let ix = (ox * stride) as isize + kj as isize - pad;
                        if ix >= 0 && ix < w as isize {
                            dst[dst_base + ix as usize] += src_row[src_base + ox];
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Batched 2-D convolution forward pass.
///
/// `bias` of shape `[O]` is optional.
///
/// # Errors
///
/// Returns an error on rank or channel mismatches, zero stride, or a kernel
/// that does not fit the padded input.
///
/// # Examples
///
/// ```
/// use sf_tensor::{conv2d, Conv2dSpec, Tensor};
///
/// // 1×1×3×3 input, single 3×3 averaging kernel, "same" padding.
/// let x = Tensor::ones(&[1, 1, 3, 3]);
/// let w = Tensor::full(&[1, 1, 3, 3], 1.0 / 9.0);
/// let y = conv2d(&x, &w, None, Conv2dSpec::same(3))?;
/// assert_eq!(y.shape(), &[1, 1, 3, 3]);
/// // Centre pixel sees the full kernel: exactly 1.0.
/// assert!((y.at(&[0, 0, 1, 1]) - 1.0).abs() < 1e-6);
/// # Ok::<(), sf_tensor::TensorError>(())
/// ```
pub fn conv2d(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Result<Tensor> {
    let (n, c, h, iw, o, kh, kw) = conv_geometry(x, w, spec)?;
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(iw, kw);
    if let Some(b) = bias {
        if b.shape() != [o] {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d bias",
                lhs: b.shape().to_vec(),
                rhs: vec![o],
            });
        }
    }
    let wmat = w.reshape(&[o, c * kh * kw])?;
    let patch = c * kh * kw;
    let cols = oh * ow;
    let plane = o * cols;
    let in_plane = c * h * iw;
    let mut out = Tensor::zeros_pooled(&[n, o, oh, ow]);
    let xd = x.data();
    let add_bias = |dst: &mut [f32]| {
        if let Some(b) = bias {
            for (oc, &bv) in b.data().iter().enumerate() {
                for v in &mut dst[oc * cols..(oc + 1) * cols] {
                    *v += bv;
                }
            }
        }
    };
    // One image: unfold into per-thread scratch, multiply straight into
    // its [O, OH·OW] output plane — no staging matrix, no scatter copy,
    // steady-state calls allocation-free. Each output element is the same
    // ascending-tap accumulation on every path, so results are
    // bit-identical regardless of batch size or threads.
    let per_image = |img: usize, dst: &mut [f32]| {
        scratch::with_zeroed(patch * cols, |cb| {
            let image = &xd[img * in_plane..(img + 1) * in_plane];
            im2col_into(image, c, h, iw, kh, kw, spec, cb, cols, 0);
            gemm(wmat.data(), cb, dst, o, patch, cols);
        });
        add_bias(dst);
    };
    if n > 1 && sf_runtime::num_threads() > 1 {
        // Each image owns a disjoint output plane, so the batch splits
        // across the worker pool.
        sf_runtime::parallel_chunks_mut(out.data_mut(), plane, per_image);
    } else {
        // A single image keeps the pool free for the GEMM's own row split.
        for (img, dst) in out.data_mut().chunks_mut(plane).enumerate() {
            per_image(img, dst);
        }
    }
    Ok(out)
}

/// Gradients of a 2-D convolution.
///
/// Given upstream `grad_out` of shape `[N, O, OH, OW]`, returns
/// `(grad_input, grad_weight, grad_bias)` with the shapes of `x`, `w`, and
/// `[O]` respectively. `grad_bias` is always returned; callers without a
/// bias simply ignore it.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with the forward geometry.
pub fn conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, c, h, iw, o, kh, kw) = conv_geometry(x, w, spec)?;
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(iw, kw);
    if grad_out.shape() != [n, o, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: grad_out.shape().to_vec(),
            rhs: vec![n, o, oh, ow],
        });
    }
    let wmat = w.reshape(&[o, c * kh * kw])?;
    let patch = c * kh * kw;
    let ncols = oh * ow;
    let mut grad_x = Tensor::zeros_pooled(x.shape());
    let mut grad_w_mat = Tensor::zeros(&[o, c * kh * kw]);
    let mut grad_b = Tensor::zeros(&[o]);
    let in_plane = c * h * iw;
    let xd = x.data();
    // Per-image partials are independent, so they run across the worker
    // pool; the weight/bias reduction below stays serial and in image order
    // so gradients are bit-identical to a serial pass. Geometry was
    // validated above, so the per-image ops cannot fail. The im2col matrix
    // is loaned from per-worker scratch and recycled, so the training hot
    // loop does not reallocate it every step.
    let imgs: Vec<usize> = (0..n).collect();
    let partials = sf_runtime::parallel_map(&imgs, |&img| {
        let go = grad_out
            .index_axis0(img)
            .reshape(&[o, oh * ow])
            .expect("geometry validated");
        let mut cols_buf = scratch::take_zeroed(patch * ncols);
        im2col_into(
            &xd[img * in_plane..(img + 1) * in_plane],
            c,
            h,
            iw,
            kh,
            kw,
            spec,
            &mut cols_buf,
            ncols,
            0,
        );
        let cols = Tensor::from_vec(cols_buf, &[patch, ncols]).expect("geometry validated");
        // dW_img = dY · colᵀ
        let gw = matmul_transpose_b(&go, &cols).expect("shapes agree by construction");
        // dCol = Wᵀ · dY, then fold back to image space.
        let grad_cols = matmul_transpose_a(&wmat, &go).expect("shapes agree by construction");
        let gx = col2im(&grad_cols, c, h, iw, kh, kw, spec).expect("geometry validated");
        scratch::recycle(cols.into_vec());
        // dB_img = Σ spatial dY
        let gb: Vec<f32> = (0..o)
            .map(|oc| {
                go.data()[oc * oh * ow..(oc + 1) * oh * ow]
                    .iter()
                    .sum::<f32>()
            })
            .collect();
        (gx, gw, gb)
    });
    for (img, (gx, gw, gb)) in partials.into_iter().enumerate() {
        grad_x.data_mut()[img * in_plane..(img + 1) * in_plane].copy_from_slice(gx.data());
        grad_w_mat.add_assign(&gw);
        for (dst, v) in grad_b.data_mut().iter_mut().zip(&gb) {
            *dst += v;
        }
    }
    let grad_w = grad_w_mat.reshape(w.shape())?;
    Ok((grad_x, grad_w, grad_b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_conv2d(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        let (n, c, h, iw) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (o, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(iw, kw);
        Tensor::from_fn(&[n, o, oh, ow], |ix| {
            let (img, oc, oy, ox) = (ix[0], ix[1], ix[2], ix[3]);
            let mut acc = bias.map(|b| b.at(&[oc])).unwrap_or(0.0);
            for ch in 0..c {
                for ki in 0..kh {
                    for kj in 0..kw {
                        let iy = (oy * spec.stride + ki) as isize - spec.padding as isize;
                        let ixx = (ox * spec.stride + kj) as isize - spec.padding as isize;
                        if iy >= 0 && iy < h as isize && ixx >= 0 && ixx < iw as isize {
                            acc += x.at(&[img, ch, iy as usize, ixx as usize])
                                * w.at(&[oc, ch, ki, kj]);
                        }
                    }
                }
            }
            acc
        })
    }

    fn pseudo_random(shape: &[usize], seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Tensor::from_fn(shape, |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 1000) as f32 - 500.0) / 250.0
        })
    }

    #[test]
    fn conv_matches_naive_same_padding() {
        let x = pseudo_random(&[2, 3, 5, 7], 1);
        let w = pseudo_random(&[4, 3, 3, 3], 2);
        let b = pseudo_random(&[4], 3);
        let spec = Conv2dSpec::same(3);
        let fast = conv2d(&x, &w, Some(&b), spec).unwrap();
        let slow = naive_conv2d(&x, &w, Some(&b), spec);
        assert!(fast.allclose(&slow, 1e-3));
    }

    #[test]
    fn conv_matches_naive_strided() {
        let x = pseudo_random(&[1, 2, 8, 8], 4);
        let w = pseudo_random(&[3, 2, 3, 3], 5);
        let spec = Conv2dSpec::new(2, 1);
        let fast = conv2d(&x, &w, None, spec).unwrap();
        let slow = naive_conv2d(&x, &w, None, spec);
        assert_eq!(fast.shape(), &[1, 3, 4, 4]);
        assert!(fast.allclose(&slow, 1e-3));
    }

    #[test]
    fn conv_1x1_is_channel_mix() {
        let x = pseudo_random(&[1, 2, 3, 3], 6);
        let w = Tensor::from_vec(vec![1.0, 2.0], &[1, 2, 1, 1]).unwrap();
        let y = conv2d(&x, &w, None, Conv2dSpec::default()).unwrap();
        for iy in 0..3 {
            for ix in 0..3 {
                let expect = x.at(&[0, 0, iy, ix]) + 2.0 * x.at(&[0, 1, iy, ix]);
                assert!((y.at(&[0, 0, iy, ix]) - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn conv_rejects_bad_geometry() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[1, 1, 5, 5]);
        assert!(conv2d(&x, &w, None, Conv2dSpec::default()).is_err());
        let w2 = Tensor::zeros(&[1, 3, 1, 1]); // channel mismatch
        assert!(conv2d(&x, &w2, None, Conv2dSpec::default()).is_err());
        let w3 = Tensor::zeros(&[1, 1, 1, 1]);
        assert!(conv2d(&x, &w3, None, Conv2dSpec::new(0, 0)).is_err());
        let bad_bias = Tensor::zeros(&[2]);
        assert!(conv2d(&x, &w3, Some(&bad_bias), Conv2dSpec::default()).is_err());
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), y> must equal <x, col2im(y)> — the defining property
        // of an adjoint pair, which is exactly what backward relies on.
        let spec = Conv2dSpec::new(2, 1);
        let x = pseudo_random(&[2, 5, 6], 7);
        let cols = im2col(&x, 3, 3, spec).unwrap();
        let y = pseudo_random(cols.shape(), 8);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let back = col2im(&y, 2, 5, 6, 3, 3, spec).unwrap();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn im2col_into_a_dirty_destination_equals_a_zeroed_one() {
        use crate::int8::im2col_i8_into;
        use crate::testkit::check_cases;
        // Every column of the image's span is written (padding taps as
        // zeros); nothing outside the span is touched.
        check_cases(64, |c| {
            let (ch, h, w) = (c.usize_in(1, 4), c.usize_in(1, 9), c.usize_in(1, 9));
            let k = c.usize_in(1, 4);
            let spec = Conv2dSpec::new(c.usize_in(1, 3), c.usize_in(0, 3));
            let (oh, ow) = (spec.out_size(h, k), spec.out_size(w, k));
            if oh == 0 || ow == 0 {
                return;
            }
            let cols = oh * ow;
            let (col_offset, row_stride) = (c.usize_in(0, 5), cols + 7);
            let len = ch * k * k * row_stride;
            let img = c.rng().uniform(&[ch * h * w], -1.0, 1.0).into_vec();
            let unfold = |fill: f32| {
                let mut dst = vec![fill; len];
                im2col_into(&img, ch, h, w, k, k, spec, &mut dst, row_stride, col_offset);
                dst
            };
            let (clean, dirty) = (unfold(0.0), unfold(f32::NAN));
            let qimg: Vec<i8> = img.iter().map(|&v| (v * 127.0) as i8).collect();
            let mut qdirty = vec![-77i8; len];
            im2col_i8_into(
                &qimg,
                ch,
                h,
                w,
                k,
                k,
                spec,
                &mut qdirty,
                row_stride,
                col_offset,
            );
            for (i, ((&z, &d), &q)) in clean.iter().zip(&dirty).zip(&qdirty).enumerate() {
                if (col_offset..col_offset + cols).contains(&(i % row_stride)) {
                    assert_eq!(z.to_bits(), d.to_bits(), "case {}: element {i}", c.case);
                    assert_eq!(f32::from(q), (z * 127.0).trunc(), "case {}: i8 {i}", c.case);
                } else {
                    assert!(z == 0.0 && d.is_nan() && q == -77, "case {}: {i}", c.case);
                }
            }
        });
    }

    #[test]
    fn conv_backward_finite_difference() {
        let spec = Conv2dSpec::same(3);
        let x = pseudo_random(&[1, 2, 4, 4], 10);
        let w = pseudo_random(&[2, 2, 3, 3], 11);
        let b = pseudo_random(&[2], 12);
        // Loss = sum of outputs → upstream grad of ones.
        let y = conv2d(&x, &w, Some(&b), spec).unwrap();
        let grad_out = Tensor::ones(y.shape());
        let (gx, gw, gb) = conv2d_backward(&x, &w, &grad_out, spec).unwrap();
        let eps = 1e-2f32;
        // Check a scattering of input coordinates.
        for &(i, c, yy, xx) in &[(0, 0, 0, 0), (0, 1, 2, 3), (0, 0, 3, 1)] {
            let mut xp = x.clone();
            xp.set(&[i, c, yy, xx], x.at(&[i, c, yy, xx]) + eps);
            let mut xm = x.clone();
            xm.set(&[i, c, yy, xx], x.at(&[i, c, yy, xx]) - eps);
            let fp = conv2d(&xp, &w, Some(&b), spec).unwrap().sum();
            let fm = conv2d(&xm, &w, Some(&b), spec).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = gx.at(&[i, c, yy, xx]);
            assert!((num - ana).abs() < 2e-2, "dx mismatch: {num} vs {ana}");
        }
        for &(o, c, ki, kj) in &[(0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 0)] {
            let mut wp = w.clone();
            wp.set(&[o, c, ki, kj], w.at(&[o, c, ki, kj]) + eps);
            let mut wm = w.clone();
            wm.set(&[o, c, ki, kj], w.at(&[o, c, ki, kj]) - eps);
            let fp = conv2d(&x, &wp, Some(&b), spec).unwrap().sum();
            let fm = conv2d(&x, &wm, Some(&b), spec).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = gw.at(&[o, c, ki, kj]);
            assert!((num - ana).abs() < 2e-2, "dw mismatch: {num} vs {ana}");
        }
        // Bias gradient: d(sum y)/db_o = OH*OW per image.
        for o in 0..2 {
            assert!((gb.at(&[o]) - 16.0).abs() < 1e-3);
        }
    }

    #[test]
    fn out_size_arithmetic() {
        let s = Conv2dSpec::new(2, 1);
        assert_eq!(s.out_size(8, 3), 4);
        assert_eq!(Conv2dSpec::same(5).out_size(10, 5), 10);
        assert_eq!(Conv2dSpec::default().out_size(2, 5), 0);
    }
}
