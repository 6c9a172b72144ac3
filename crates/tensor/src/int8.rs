//! Int8 quantization primitives and integer convolution kernels.
//!
//! Symmetric linear quantization: a real value `v` is stored as
//! `q = clamp(round(v / scale), -127, 127)` and recovered as `q · scale`.
//! The range is deliberately `[-127, 127]` (not `-128`) so negation never
//! overflows and the representable grid is symmetric around zero — the
//! standard choice for weight quantization.
//!
//! The kernels here are integer twins of the f32 `im2col` + GEMM pair
//! that powers every convolution in the stack (both GEMMs are one
//! register-tiled body in `crate::kernels`): the compiled
//! plan's int8 lowering in `sf-core` quantizes the activation plane,
//! unfolds it with [`im2col_i8_into`], multiplies with
//! [`matmul_i8_into`] into `i32` accumulators and dequantizes once per
//! output channel. Because `i32` addition is exact (no rounding), the
//! accumulator value is independent of summation order — int8 results are
//! bit-reproducible by construction, parallel or not.

use crate::kernels::{self, QuantizeI8};
use crate::Conv2dSpec;

/// The symmetric scale mapping `[-max_abs, max_abs]` onto the int8 grid:
/// `max_abs / 127`, with an all-zero range degenerating to `1.0` so the
/// quantizer never divides by zero (every value is 0 either way).
pub fn symmetric_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Largest absolute value in `src` (`0.0` for an empty slice).
pub fn max_abs(src: &[f32]) -> f32 {
    src.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Quantizes `src` into `dst` with one shared `scale`:
/// `q = clamp(round(v / scale), -127, 127)`, round-half-away-from-zero
/// (`f32::round`). Non-finite inputs saturate.
///
/// # Panics
///
/// Panics if the slices differ in length or `scale` is not positive.
pub fn quantize_i8(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_i8 slice lengths differ");
    assert!(scale > 0.0, "quantize_i8 scale must be positive");
    kernels::dispatch(QuantizeI8 {
        src,
        inv: 1.0 / scale,
        dst,
    });
}

/// Dequantizes `src` into `dst`: `v = q · scale`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dequantize_i8(src: &[i8], scale: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "dequantize_i8 slice lengths differ");
    for (d, &q) in dst.iter_mut().zip(src) {
        *d = f32::from(q) * scale;
    }
}

/// Quantizes a row-major `[rows, cols]` matrix with one symmetric scale
/// per row — the per-output-channel weight quantization used for conv
/// weight matrices laid out `[out_c, patch]`. Returns `(q, scales)` with
/// `q.len() == src.len()` and `scales.len() == rows`.
///
/// # Panics
///
/// Panics if `src.len()` is not a multiple of `rows` (for `rows > 0`).
pub fn quantize_per_row(src: &[f32], rows: usize) -> (Vec<i8>, Vec<f32>) {
    if rows == 0 {
        assert!(src.is_empty(), "quantize_per_row: rows=0 with data");
        return (Vec::new(), Vec::new());
    }
    assert_eq!(src.len() % rows, 0, "quantize_per_row: ragged rows");
    let cols = src.len() / rows;
    let mut q = vec![0i8; src.len()];
    let mut scales = Vec::with_capacity(rows);
    for (qrow, row) in q.chunks_mut(cols).zip(src.chunks(cols)) {
        let scale = symmetric_scale(max_abs(row));
        quantize_i8(row, scale, qrow);
        scales.push(scale);
    }
    (q, scales)
}

/// The int8 twin of the f32 `im2col_into`: scatters one `CHW` image of
/// quantized activations into a patch matrix whose rows have length
/// `row_stride`, writing this image's `OH·OW` columns at `col_offset`.
/// Padding taps are written as 0 — exact, because the zero-point is 0
/// under symmetric quantization.
#[allow(clippy::too_many_arguments)]
pub fn im2col_i8_into(
    src: &[i8],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    dst: &mut [i8],
    row_stride: usize,
    col_offset: usize,
) {
    crate::conv::unfold_into(src, c, h, w, kh, kw, spec, dst, row_stride, col_offset);
}

/// `out[m,n] += a[m,k] · b[k,n]` with `i8` operands widened into `i32`
/// accumulators. `out` must be zeroed (the kernel accumulates).
///
/// With `|a|, |b| ≤ 127` the per-element product is at most `16129`, so
/// the `i32` accumulator is exact up to `k ≈ 1.3e5` — far beyond any
/// patch length in this stack — and integer addition is associative, so
/// the result is bit-identical regardless of tiling or thread split.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` extent implies.
pub fn matmul_i8_into(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    assert!(
        a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
        "matmul_i8_into slice lengths too short for {m}x{k}x{n}"
    );
    kernels::gemm(a, b, out, m, k, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> f32 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        ((*state % 2000) as f32 - 1000.0) / 500.0
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let mut state = 7u64;
        let src: Vec<f32> = (0..256).map(|_| xorshift(&mut state)).collect();
        let scale = symmetric_scale(max_abs(&src));
        let mut q = vec![0i8; src.len()];
        quantize_i8(&src, scale, &mut q);
        let mut back = vec![0.0f32; src.len()];
        dequantize_i8(&q, scale, &mut back);
        for (&v, &r) in src.iter().zip(&back) {
            assert!(
                (v - r).abs() <= scale / 2.0 + 1e-6,
                "{v} vs {r} (scale {scale})"
            );
        }
    }

    #[test]
    fn rounding_is_half_away_from_zero_and_saturating() {
        let mut q = [0i8; 5];
        quantize_i8(&[0.5, -0.5, 1.49, 400.0, -400.0], 1.0, &mut q);
        assert_eq!(q, [1, -1, 1, 127, -127]);
        assert_eq!(symmetric_scale(0.0), 1.0);
    }

    #[test]
    fn per_row_scales_are_independent() {
        let src = [1.0, -0.5, 0.0, 100.0, 50.0, -100.0];
        let (q, scales) = quantize_per_row(&src, 2);
        assert_eq!(scales.len(), 2);
        assert!((scales[0] - 1.0 / 127.0).abs() < 1e-9);
        assert!((scales[1] - 100.0 / 127.0).abs() < 1e-9);
        assert_eq!(q[0], 127);
        assert_eq!(q[3], 127);
        assert_eq!(q[5], -127);
    }

    #[test]
    fn i8_matmul_matches_naive_i32() {
        let (m, k, n) = (5, 7, 9);
        let mut state = 3u64;
        let a: Vec<i8> = (0..m * k)
            .map(|_| (xorshift(&mut state) * 60.0) as i8)
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|_| (xorshift(&mut state) * 60.0) as i8)
            .collect();
        let mut fast = vec![0i32; m * n];
        matmul_i8_into(&a, &b, &mut fast, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let want: i32 = (0..k)
                    .map(|p| i32::from(a[i * k + p]) * i32::from(b[p * n + j]))
                    .sum();
                assert_eq!(fast[i * n + j], want, "({i},{j})");
            }
        }
    }

    #[test]
    fn large_i8_matmul_parallel_path_is_exact() {
        // m*n crosses the parallel threshold; i32 accumulation is exact,
        // so the parallel result must equal the naive one bit-for-bit.
        let (m, k, n) = (128, 33, 512);
        let mut state = 11u64;
        let a: Vec<i8> = (0..m * k)
            .map(|_| (xorshift(&mut state) * 80.0) as i8)
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|_| (xorshift(&mut state) * 80.0) as i8)
            .collect();
        let mut fast = vec![0i32; m * n];
        matmul_i8_into(&a, &b, &mut fast, m, k, n);
        let mut slow = vec![0i32; m * n];
        kernels::reference::mm_i8_rows(&a, &b, &mut slow, 0..m, k, n);
        assert_eq!(fast, slow);
    }

    #[test]
    fn per_row_round_trip_error_is_bounded_by_each_rows_scale() {
        use crate::testkit::check_cases;
        check_cases(64, |c| {
            let rows = c.usize_in(1, 8);
            let cols = c.usize_in(1, 33);
            let mag = c.f32_in(0.05, 50.0);
            let mut src = c.rng().uniform(&[rows, cols], -mag, mag).data().to_vec();
            if c.case % 3 == 0 {
                // An all-zero row degenerates to scale 1.0 and must
                // round-trip exactly, independent of its neighbours.
                src[..cols].fill(0.0);
            }
            let (q, scales) = quantize_per_row(&src, rows);
            assert_eq!(scales.len(), rows);
            for r in 0..rows {
                let row = &src[r * cols..(r + 1) * cols];
                let mut back = vec![0.0f32; cols];
                dequantize_i8(&q[r * cols..(r + 1) * cols], scales[r], &mut back);
                let bound = scales[r] / 2.0 + scales[r] * 1e-5;
                for (&v, &rec) in row.iter().zip(&back) {
                    assert!(
                        (v - rec).abs() <= bound,
                        "case {}: row {r}: {v} vs {rec} (scale {})",
                        c.case,
                        scales[r]
                    );
                }
            }
        });
    }

    #[test]
    fn dequantized_i8_matmul_tracks_f32_within_accumulated_scale_bound() {
        use crate::testkit::check_cases;
        check_cases(48, |c| {
            let m = c.usize_in(1, 7);
            let k = c.usize_in(1, 17);
            let n = c.usize_in(1, 9);
            let wmag = c.f32_in(0.1, 4.0);
            let xmag = c.f32_in(0.1, 8.0);
            let w = c.rng().uniform(&[m, k], -wmag, wmag).data().to_vec();
            let x = c.rng().uniform(&[k, n], -xmag, xmag).data().to_vec();
            // The compiled plan's scale placement: weights per output row,
            // activations per tensor, i32 accumulation, dequantize with
            // the product of both scales.
            let (qw, wscales) = quantize_per_row(&w, m);
            let xscale = symmetric_scale(max_abs(&x));
            let mut qx = vec![0i8; x.len()];
            quantize_i8(&x, xscale, &mut qx);
            let mut acc = vec![0i32; m * n];
            matmul_i8_into(&qw, &qx, &mut acc, m, k, n);
            let xmax = f64::from(max_abs(&x));
            let xs = f64::from(xscale);
            for i in 0..m {
                let ws = f64::from(wscales[i]);
                let wmax_row = f64::from(max_abs(&w[i * k..(i + 1) * k]));
                // Per-term error ≤ |w|·|dx| + |x̂|·|dw| with |dx| ≤ xs/2,
                // |dw| ≤ ws/2 and |x̂| ≤ xmax + xs/2, accumulated over k.
                let bound = k as f64 * (wmax_row * xs / 2.0 + (xmax + xs / 2.0) * ws / 2.0) + 1e-4;
                for j in 0..n {
                    let exact: f64 = (0..k)
                        .map(|p| f64::from(w[i * k + p]) * f64::from(x[p * n + j]))
                        .sum();
                    let deq = f64::from(acc[i * n + j]) * ws * xs;
                    assert!(
                        (deq - exact).abs() <= bound,
                        "case {}: ({i},{j}) dequantized {deq} vs exact {exact} (bound {bound})",
                        c.case
                    );
                }
            }
        });
    }

    #[test]
    fn i8_im2col_matches_f32_im2col_on_quantized_input() {
        use crate::{im2col_into, Conv2dSpec};
        let (c, h, w, kh, kw) = (2, 5, 6, 3, 3);
        let spec = Conv2dSpec::same(3);
        let mut state = 19u64;
        let img: Vec<f32> = (0..c * h * w).map(|_| xorshift(&mut state)).collect();
        let scale = symmetric_scale(max_abs(&img));
        let mut qimg = vec![0i8; img.len()];
        quantize_i8(&img, scale, &mut qimg);
        let cols = h * w;
        // f32 unfold of the already-quantized (integer-valued) image...
        let fimg: Vec<f32> = qimg.iter().map(|&q| f32::from(q)).collect();
        let mut fcols = vec![0.0f32; c * kh * kw * cols];
        im2col_into(&fimg, c, h, w, kh, kw, spec, &mut fcols, cols, 0);
        // ...must equal the i8 unfold, element for element.
        let mut qcols = vec![0i8; c * kh * kw * cols];
        im2col_i8_into(&qimg, c, h, w, kh, kw, spec, &mut qcols, cols, 0);
        for (&f, &q) in fcols.iter().zip(&qcols) {
            assert_eq!(f, f32::from(q));
        }
    }

    #[test]
    fn strided_i8_im2col_matches_f32() {
        use crate::im2col_into;
        let (c, h, w, kh, kw) = (1, 6, 6, 2, 2);
        let spec = Conv2dSpec {
            stride: 2,
            padding: 0,
        };
        let qimg: Vec<i8> = (0..c * h * w).map(|i| (i as i8).wrapping_sub(17)).collect();
        let fimg: Vec<f32> = qimg.iter().map(|&q| f32::from(q)).collect();
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(w, kw);
        let cols = oh * ow;
        let mut fcols = vec![0.0f32; c * kh * kw * cols];
        im2col_into(&fimg, c, h, w, kh, kw, spec, &mut fcols, cols, 0);
        let mut qcols = vec![0i8; c * kh * kw * cols];
        im2col_i8_into(&qimg, c, h, w, kh, kw, spec, &mut qcols, cols, 0);
        for (&f, &q) in fcols.iter().zip(&qcols) {
            assert_eq!(f, f32::from(q));
        }
    }
}
