//! Dense matrix multiplication kernels.
//!
//! These power the `im2col` convolution path: the forward GEMM runs
//! through the register-tiled kernel seam (`crate::kernels`) with a row
//! split across the persistent [`sf_runtime`] worker pool for large
//! problems. They operate on rank-2 [`Tensor`]s.

use crate::{kernels, Result, Tensor, TensorError};

fn check_rank2(op: &'static str, t: &Tensor) -> Result<(usize, usize)> {
    match t.shape() {
        [r, c] => Ok((*r, *c)),
        other => Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: other.to_vec(),
        }),
    }
}

/// `C = A · B` for row-major matrices `A: [m, k]`, `B: [k, n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 2,
/// or [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use sf_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(matmul(&a, &id)?.data(), a.data());
/// # Ok::<(), sf_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_rank2("matmul", a)?;
    let (k2, n) = check_rank2("matmul", b)?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    kernels::gemm(a.data(), b.data(), out.data_mut(), m, k, n);
    Ok(out)
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` without materialising the
/// transpose.
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = check_rank2("matmul_transpose_a", a)?;
    let (k2, n) = check_rank2("matmul_transpose_a", b)?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transpose_a",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd, od) = (a.data(), b.data(), out.data_mut());
    // out[i][j] += a[p][i] * b[p][j]; p-outer keeps both reads sequential.
    for p in 0..k {
        let brow = &bd[p * n..(p + 1) * n];
        for i in 0..m {
            let av = ad[p * m + i];
            if av == 0.0 {
                continue;
            }
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    Ok(out)
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` without materialising the
/// transpose.
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_rank2("matmul_transpose_b", a)?;
    let (n, k2) = check_rank2("matmul_transpose_b", b)?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transpose_b",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd, od) = (a.data(), b.data(), out.data_mut());
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut od[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
    Ok(out)
}

/// `out[m,n] += a[m,k] · b[k,n]` on raw row-major slices. `out` must be
/// zeroed (the kernel accumulates into it).
///
/// This is the public face of the internal GEMM kernel that powers
/// [`matmul`] and the `im2col` convolution path: the compiled-plan
/// executor in `sf-core` multiplies straight into its statically
/// scheduled slot buffers through it, so plan results stay bit-identical
/// to the graph path's convolutions.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` extent implies.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n);
    kernels::gemm(a, b, out, m, k, n);
}

/// Returns the rank-2 transpose of `t`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `t` is not rank 2.
pub fn transpose2d(t: &Tensor) -> Result<Tensor> {
    let (r, c) = check_rank2("transpose2d", t)?;
    let mut out = Tensor::zeros(&[c, r]);
    let (src, dst) = (t.data(), out.data_mut());
    for i in 0..r {
        for j in 0..c {
            dst[j * r + i] = src[i * c + j];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        Tensor::from_fn(&[m, n], |ix| {
            (0..k).map(|p| a.at(&[ix[0], p]) * b.at(&[p, ix[1]])).sum()
        })
    }

    fn random_matrix(r: usize, c: usize, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        Tensor::from_fn(&[r, c], |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 - 1000.0) / 500.0
        })
    }

    #[test]
    fn matmul_matches_naive() {
        let a = random_matrix(7, 5, 1);
        let b = random_matrix(5, 9, 2);
        let fast = matmul(&a, &b).unwrap();
        let slow = naive_matmul(&a, &b);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn matmul_identity() {
        let a = random_matrix(4, 4, 3);
        let id = Tensor::from_fn(&[4, 4], |ix| if ix[0] == ix[1] { 1.0 } else { 0.0 });
        assert!(matmul(&a, &id).unwrap().allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&Tensor::zeros(&[6]), &b).is_err());
    }

    #[test]
    fn transpose_a_matches_explicit() {
        let a = random_matrix(6, 4, 4);
        let b = random_matrix(6, 5, 5);
        let at = transpose2d(&a).unwrap();
        let expect = matmul(&at, &b).unwrap();
        let got = matmul_transpose_a(&a, &b).unwrap();
        assert!(got.allclose(&expect, 1e-4));
    }

    #[test]
    fn transpose_b_matches_explicit() {
        let a = random_matrix(3, 7, 6);
        let b = random_matrix(5, 7, 7);
        let bt = transpose2d(&b).unwrap();
        let expect = matmul(&a, &bt).unwrap();
        let got = matmul_transpose_b(&a, &b).unwrap();
        assert!(got.allclose(&expect, 1e-4));
    }

    #[test]
    fn large_matmul_parallel_path_matches_naive() {
        // Force the multi-threaded branch (m*n >= threshold).
        let a = random_matrix(300, 40, 8);
        let b = random_matrix(40, 300, 9);
        let fast = matmul(&a, &b).unwrap();
        let slow = naive_matmul(&a, &b);
        assert!(fast.allclose(&slow, 1e-2));
    }

    #[test]
    fn transpose_round_trip() {
        let a = random_matrix(5, 8, 10);
        let tt = transpose2d(&transpose2d(&a).unwrap()).unwrap();
        assert!(tt.allclose(&a, 0.0));
    }
}
