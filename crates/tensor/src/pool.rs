//! Pooling and up-sampling kernels with exact backward passes.
//!
//! The pooling forward passes split their `N·C` planes across the
//! persistent [`sf_runtime`] worker pool; every plane is computed by the
//! same serial kernel, so results are bit-identical to a serial loop.

use crate::{Result, Tensor, TensorError};

/// Raw-pointer wrapper letting the pooling kernels hand each worker its own
/// disjoint plane of a second output buffer (the `argmax` array).
struct SyncPtr<T>(*mut T);

// SAFETY: the wrapper only carries the pointer to the workers; every
// dereference is of a plane no other worker touches (see the `SAFETY`
// note at the use site), so sending or sharing it moves only `T: Send`
// data between threads.
unsafe impl<T: Send> Send for SyncPtr<T> {}
// SAFETY: as above — shared access never aliases a written plane.
unsafe impl<T: Send> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

fn check_nchw(op: &'static str, t: &Tensor) -> Result<(usize, usize, usize, usize)> {
    match t.shape() {
        [n, c, h, w] => Ok((*n, *c, *h, *w)),
        other => Err(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: other.to_vec(),
        }),
    }
}

/// Max pooling over non-overlapping-or-strided `kernel×kernel` windows.
///
/// Returns `(output, argmax)` where `argmax` holds, for every output
/// element, the flat index into `x`'s data of the selected input element —
/// exactly what [`max_pool2d_backward`] needs.
///
/// # Errors
///
/// Returns an error if `x` is not rank 4 or the kernel does not fit.
pub fn max_pool2d(x: &Tensor, kernel: usize, stride: usize) -> Result<(Tensor, Vec<usize>)> {
    let (n, c, h, w) = check_nchw("max_pool2d", x)?;
    if kernel == 0 || stride == 0 || kernel > h || kernel > w {
        return Err(TensorError::InvalidGeometry {
            op: "max_pool2d",
            reason: format!("kernel {kernel} stride {stride} on input {h}x{w}"),
        });
    }
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let mut out = Tensor::zeros_pooled(&[n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let src = x.data();
    let out_plane = oh * ow;
    let arg_base = SyncPtr(argmax.as_mut_ptr());
    sf_runtime::parallel_chunks_mut(out.data_mut(), out_plane, |p, dst| {
        // SAFETY: plane `p` exclusively owns argmax[p*out_plane..(p+1)*out_plane],
        // mirroring the disjoint `dst` chunk the pool already handed us.
        let arg =
            unsafe { std::slice::from_raw_parts_mut(arg_base.get().add(p * out_plane), out_plane) };
        let plane = p * h * w;
        let mut oi = 0usize;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for ky in 0..kernel {
                    let iy = oy * stride + ky;
                    let row = plane + iy * w + ox * stride;
                    for kx in 0..kernel {
                        let v = src[row + kx];
                        if v > best {
                            best = v;
                            best_idx = row + kx;
                        }
                    }
                }
                dst[oi] = best;
                arg[oi] = best_idx;
                oi += 1;
            }
        }
    });
    Ok((out, argmax))
}

/// Routes `grad_out` back through a max pool using the `argmax` returned by
/// [`max_pool2d`].
///
/// # Errors
///
/// Returns an error if `grad_out.numel()` disagrees with `argmax.len()`.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_shape: &[usize],
) -> Result<Tensor> {
    if grad_out.numel() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            len: argmax.len(),
            shape: grad_out.shape().to_vec(),
        });
    }
    let mut grad_x = Tensor::zeros(input_shape);
    let dst = grad_x.data_mut();
    for (&g, &idx) in grad_out.data().iter().zip(argmax) {
        dst[idx] += g;
    }
    Ok(grad_x)
}

/// Average pooling over `kernel×kernel` windows with the given stride.
///
/// # Errors
///
/// Returns an error if `x` is not rank 4 or the kernel does not fit.
pub fn avg_pool2d(x: &Tensor, kernel: usize, stride: usize) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw("avg_pool2d", x)?;
    if kernel == 0 || stride == 0 || kernel > h || kernel > w {
        return Err(TensorError::InvalidGeometry {
            op: "avg_pool2d",
            reason: format!("kernel {kernel} stride {stride} on input {h}x{w}"),
        });
    }
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let inv = 1.0 / (kernel * kernel) as f32;
    let mut out = Tensor::zeros_pooled(&[n, c, oh, ow]);
    let src = x.data();
    let out_plane = oh * ow;
    sf_runtime::parallel_chunks_mut(out.data_mut(), out_plane, |p, dst| {
        let plane = p * h * w;
        let mut oi = 0usize;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ky in 0..kernel {
                    let row = plane + (oy * stride + ky) * w + ox * stride;
                    for kx in 0..kernel {
                        acc += src[row + kx];
                    }
                }
                dst[oi] = acc * inv;
                oi += 1;
            }
        }
    });
    Ok(out)
}

/// Gradient of [`avg_pool2d`]: spreads each upstream value uniformly over
/// its window.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with the forward geometry.
pub fn avg_pool2d_backward(
    grad_out: &Tensor,
    input_shape: &[usize],
    kernel: usize,
    stride: usize,
) -> Result<Tensor> {
    let (n, c, h, w) = match input_shape {
        [n, c, h, w] => (*n, *c, *h, *w),
        other => {
            return Err(TensorError::RankMismatch {
                op: "avg_pool2d_backward",
                expected: 4,
                actual: other.to_vec(),
            })
        }
    };
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    if grad_out.shape() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "avg_pool2d_backward",
            lhs: grad_out.shape().to_vec(),
            rhs: vec![n, c, oh, ow],
        });
    }
    let inv = 1.0 / (kernel * kernel) as f32;
    let mut grad_x = Tensor::zeros(input_shape);
    let dst = grad_x.data_mut();
    let src = grad_out.data();
    let mut oi = 0usize;
    for img in 0..n {
        for ch in 0..c {
            let plane = (img * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = src[oi] * inv;
                    oi += 1;
                    for ky in 0..kernel {
                        let row = plane + (oy * stride + ky) * w + ox * stride;
                        for kx in 0..kernel {
                            dst[row + kx] += g;
                        }
                    }
                }
            }
        }
    }
    Ok(grad_x)
}

/// Nearest-neighbour up-sampling by an integer `factor` in both spatial
/// dimensions.
///
/// # Errors
///
/// Returns an error if `x` is not rank 4 or `factor == 0`.
pub fn upsample_nearest2d(x: &Tensor, factor: usize) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw("upsample_nearest2d", x)?;
    if factor == 0 {
        return Err(TensorError::InvalidGeometry {
            op: "upsample_nearest2d",
            reason: "factor must be >= 1".to_string(),
        });
    }
    let (oh, ow) = (h * factor, w * factor);
    let mut out = Tensor::zeros_pooled(&[n, c, oh, ow]);
    let src = x.data();
    let dst = out.data_mut();
    // Build each output row once by replicating pixels, then duplicate it
    // for the remaining `factor - 1` rows with straight slice copies.
    for plane in 0..n * c {
        let sp = plane * h * w;
        let dp = plane * oh * ow;
        for iy in 0..h {
            let srow = &src[sp + iy * w..sp + (iy + 1) * w];
            let dbase = dp + iy * factor * ow;
            {
                let drow = &mut dst[dbase..dbase + ow];
                for (ix, &v) in srow.iter().enumerate() {
                    drow[ix * factor..(ix + 1) * factor].fill(v);
                }
            }
            for r in 1..factor {
                let (head, tail) = dst.split_at_mut(dbase + r * ow);
                tail[..ow].copy_from_slice(&head[dbase..dbase + ow]);
            }
        }
    }
    Ok(out)
}

/// Gradient of [`upsample_nearest2d`]: sums each `factor×factor` block of
/// the upstream gradient back onto its source pixel.
///
/// # Errors
///
/// Returns an error if `grad_out` is not rank 4 or its spatial size is not
/// a multiple of `factor`.
pub fn upsample_nearest2d_backward(grad_out: &Tensor, factor: usize) -> Result<Tensor> {
    let (n, c, oh, ow) = check_nchw("upsample_nearest2d_backward", grad_out)?;
    if factor == 0 || oh % factor != 0 || ow % factor != 0 {
        return Err(TensorError::InvalidGeometry {
            op: "upsample_nearest2d_backward",
            reason: format!("output {oh}x{ow} is not a multiple of factor {factor}"),
        });
    }
    let (h, w) = (oh / factor, ow / factor);
    let mut grad_x = Tensor::zeros(&[n, c, h, w]);
    let src = grad_out.data();
    let dst = grad_x.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let sp = (img * c + ch) * oh * ow;
            let dp = (img * c + ch) * h * w;
            for oy in 0..oh {
                let srow = sp + oy * ow;
                let drow = dp + (oy / factor) * w;
                for ox in 0..ow {
                    dst[drow + ox / factor] += src[srow + ox];
                }
            }
        }
    }
    Ok(grad_x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_2x2() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, -4.0, 0.25, 0.75,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let (y, arg) = max_pool2d(&x, 2, 2).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, -1.0, 0.75]);
        assert_eq!(arg, vec![5, 7, 8, 15]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_fn(&[1, 1, 4, 4], |ix| (ix[2] * 4 + ix[3]) as f32);
        let (y, arg) = max_pool2d(&x, 2, 2).unwrap();
        let g = Tensor::ones(y.shape());
        let gx = max_pool2d_backward(&g, &arg, x.shape()).unwrap();
        // Max of every 2x2 block is its bottom-right element.
        assert_eq!(gx.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(gx.at(&[0, 0, 1, 3]), 1.0);
        assert_eq!(gx.at(&[0, 0, 3, 1]), 1.0);
        assert_eq!(gx.at(&[0, 0, 3, 3]), 1.0);
        assert_eq!(gx.sum(), 4.0);
    }

    #[test]
    fn avg_pool_is_block_mean() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = avg_pool2d(&x, 2, 2).unwrap();
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn avg_pool_backward_uniform() {
        let g = Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]).unwrap();
        let gx = avg_pool2d_backward(&g, &[1, 1, 2, 2], 2, 2).unwrap();
        assert_eq!(gx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn upsample_repeats_pixels() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = upsample_nearest2d(&x, 2).unwrap();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 1.0);
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(y.at(&[0, 0, 3, 3]), 4.0);
    }

    #[test]
    fn upsample_backward_sums_blocks() {
        let g = Tensor::ones(&[1, 1, 4, 4]);
        let gx = upsample_nearest2d_backward(&g, 2).unwrap();
        assert_eq!(gx.shape(), &[1, 1, 2, 2]);
        assert!(gx.data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn upsample_round_trip_is_identity_on_constant() {
        let x = Tensor::full(&[2, 3, 4, 4], 2.5);
        let up = upsample_nearest2d(&x, 3).unwrap();
        let down = avg_pool2d(&up, 3, 3).unwrap();
        assert!(down.allclose(&x, 1e-6));
    }

    #[test]
    fn pooling_geometry_errors() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(max_pool2d(&x, 3, 1).is_err());
        assert!(max_pool2d(&x, 2, 0).is_err());
        assert!(avg_pool2d(&x, 0, 1).is_err());
        assert!(upsample_nearest2d(&x, 0).is_err());
        assert!(upsample_nearest2d_backward(&Tensor::zeros(&[1, 1, 3, 3]), 2).is_err());
        assert!(max_pool2d(&Tensor::zeros(&[2, 2]), 2, 2).is_err());
    }

    #[test]
    fn strided_max_pool_overlapping() {
        let x = Tensor::from_fn(&[1, 1, 3, 3], |ix| (ix[2] * 3 + ix[3]) as f32);
        let (y, _) = max_pool2d(&x, 2, 1).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 5.0, 7.0, 8.0]);
    }
}
