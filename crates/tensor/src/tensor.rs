//! The dense `f32` tensor type.

use std::fmt;

use crate::shape::{flat_index, numel, strides_for};
use crate::{broadcast_shapes, scratch, Result, TensorError};

/// A dense, row-major (C-contiguous) `f32` tensor of arbitrary rank.
///
/// `Tensor` is the value type of the whole reproduction stack: images,
/// feature maps, convolution weights and gradients are all `Tensor`s.
/// Batches of images use the `NCHW` layout (batch, channel, height, width).
///
/// Element-wise binary operations support NumPy-style broadcasting; they
/// panic on incompatible shapes (see the per-method `Panics` sections) —
/// shape mismatches are programmer errors, not recoverable conditions.
///
/// # Examples
///
/// ```
/// use sf_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2])?;
/// let relu = x.map(|v| v.max(0.0));
/// assert_eq!(relu.data(), &[1.0, 0.0, 3.0, 0.0]);
/// # Ok::<(), sf_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; numel(shape)],
        }
    }

    /// Creates a zeroed tensor whose storage is drawn from this thread's
    /// [`scratch`] pool — for kernel outputs in hot loops, where the
    /// buffer eventually flows back via [`scratch::recycle`].
    pub(crate) fn zeros_pooled(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: scratch::take_zeroed(numel(shape)),
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; numel(shape)],
        }
    }

    /// Creates a rank-0 (scalar) tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Creates a tensor from a flat `Vec` and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        if data.len() != numel(shape) {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                shape: shape.to_vec(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a tensor by evaluating `f` at every multi-dimensional index,
    /// iterating in row-major order.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let n = numel(shape);
        let mut data = Vec::with_capacity(n);
        let mut index = vec![0usize; shape.len()];
        for _ in 0..n {
            data.push(f(&index));
            // Advance the row-major odometer.
            for d in (0..shape.len()).rev() {
                index[d] += 1;
                if index[d] < shape[d] {
                    break;
                }
                index[d] = 0;
            }
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a 1-D tensor with `n` evenly spaced values in `[start, end]`
    /// (inclusive endpoints when `n >= 2`).
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        if n == 0 {
            return Tensor::zeros(&[0]);
        }
        if n == 1 {
            return Tensor::from_vec(vec![start], &[1]).expect("length matches");
        }
        let step = (end - start) / (n as f32 - 1.0);
        let data = (0..n).map(|i| start + step * i as f32).collect();
        Tensor {
            shape: vec![n],
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// A view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[flat_index(&self.shape, index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = flat_index(&self.shape, index);
        self.data[i] = value;
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the new shape has a
    /// different number of elements.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        if numel(shape) != self.data.len() {
            return Err(TensorError::LengthMismatch {
                len: self.data.len(),
                shape: shape.to_vec(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Applies `f` element-wise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = scratch::take_spare(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two tensors element-wise with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes cannot be broadcast together.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        if self.shape == other.shape {
            // Fast path: identical shapes.
            let mut data = scratch::take_spare(self.data.len());
            data.extend(
                self.data
                    .iter()
                    .zip(other.data.iter())
                    .map(|(&a, &b)| f(a, b)),
            );
            return Tensor {
                shape: self.shape.clone(),
                data,
            };
        }
        let out_shape =
            broadcast_shapes(&self.shape, &other.shape).unwrap_or_else(|e| panic!("zip_map: {e}"));
        let lhs_strides = broadcast_strides(&self.shape, &out_shape);
        let rhs_strides = broadcast_strides(&other.shape, &out_shape);
        let n = numel(&out_shape);
        if n == 0 {
            return Tensor {
                shape: out_shape,
                data: Vec::new(),
            };
        }
        let mut data = scratch::take_spare(n);
        // Trailing dims where each operand is either contiguous or constant
        // form a block the inner loop can stream without any index
        // arithmetic; the odometer then only walks the leading dims. The
        // common broadcasts (per-channel [C,1,1] statistics against NCHW,
        // row/column vectors against matrices) all collapse this way.
        let (outer_dims, block, lhs_contig, rhs_contig) =
            broadcast_block(&out_shape, &lhs_strides, &rhs_strides);
        let mut index = vec![0usize; outer_dims];
        for _ in 0..n / block {
            let li: usize = index.iter().zip(&lhs_strides).map(|(&i, &s)| i * s).sum();
            let ri: usize = index.iter().zip(&rhs_strides).map(|(&i, &s)| i * s).sum();
            match (lhs_contig, rhs_contig) {
                (true, true) => {
                    let lhs = &self.data[li..li + block];
                    let rhs = &other.data[ri..ri + block];
                    data.extend(lhs.iter().zip(rhs).map(|(&a, &b)| f(a, b)));
                }
                (true, false) => {
                    let b = other.data[ri];
                    data.extend(self.data[li..li + block].iter().map(|&a| f(a, b)));
                }
                (false, true) => {
                    let a = self.data[li];
                    data.extend(other.data[ri..ri + block].iter().map(|&b| f(a, b)));
                }
                (false, false) => {
                    let (a, b) = (self.data[li], other.data[ri]);
                    data.extend((0..block).map(|_| f(a, b)));
                }
            }
            for d in (0..outer_dims).rev() {
                index[d] += 1;
                if index[d] < out_shape[d] {
                    break;
                }
                index[d] = 0;
            }
        }
        Tensor {
            shape: out_shape,
            data,
        }
    }

    /// Element-wise sum with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes cannot be broadcast together.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes cannot be broadcast together.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise product with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes cannot be broadcast together.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Element-wise quotient with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes cannot be broadcast together.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `value` to every element.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.map(|v| v + value)
    }

    /// Multiplies every element by `value`.
    pub fn scale(&self, value: f32) -> Tensor {
        self.map(|v| v * value)
    }

    /// In-place `self += other` without broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign: shapes {:?} and {:?} differ",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy) without broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy: shapes {:?} and {:?} differ",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    /// Sum of all elements (as `f64` accumulation for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32
    }

    /// Arithmetic mean of all elements; 0 for empty tensors.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for empty tensors.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm of the tensor viewed as a flat vector.
    pub fn norm_sq(&self) -> f32 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>() as f32
    }

    /// True if any element is NaN or infinite. A branch-free pass, which
    /// the compiler vectorises: a healthy tensor never takes an early
    /// exit, and the server screens every submitted camera frame with
    /// this (0.7 µs for 96×32 RGB; 4.3 µs with `any`).
    pub fn has_non_finite(&self) -> bool {
        self.data
            .iter()
            .fold(false, |found, v| found | !v.is_finite())
    }

    /// Extracts the `n`-th slice along the first axis (e.g. one image from
    /// an `NCHW` batch, yielding `CHW`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `n` is out of bounds.
    pub fn index_axis0(&self, n: usize) -> Tensor {
        assert!(self.rank() >= 1, "index_axis0 requires rank >= 1");
        assert!(
            n < self.shape[0],
            "index {n} out of bounds for axis of size {}",
            self.shape[0]
        );
        let inner: usize = self.shape[1..].iter().product();
        let data = self.data[n * inner..(n + 1) * inner].to_vec();
        Tensor {
            shape: self.shape[1..].to_vec(),
            data,
        }
    }

    /// Stacks rank-`k` tensors of identical shape into a rank-`k+1` tensor
    /// along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the tensors disagree in
    /// shape, or [`TensorError::InvalidGeometry`] if `items` is empty.
    pub fn stack(items: &[Tensor]) -> Result<Tensor> {
        let refs: Vec<&Tensor> = items.iter().collect();
        Tensor::stack_refs(&refs)
    }

    /// Like [`Tensor::stack`] but takes borrowed tensors, so callers that
    /// hold `&Tensor`s (batch assembly, the serving batcher) can build the
    /// stacked buffer with one slice copy per item and no intermediate
    /// clones.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::stack`].
    pub fn stack_refs(items: &[&Tensor]) -> Result<Tensor> {
        let first = *items.first().ok_or_else(|| TensorError::InvalidGeometry {
            op: "stack",
            reason: "cannot stack zero tensors".to_string(),
        })?;
        let mut data = scratch::take_spare(first.numel() * items.len());
        for item in items {
            if item.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.shape.clone(),
                    rhs: item.shape.clone(),
                });
            }
            data.extend_from_slice(&item.data);
        }
        let mut shape = Vec::with_capacity(first.rank() + 1);
        shape.push(items.len());
        shape.extend_from_slice(&first.shape);
        Ok(Tensor { shape, data })
    }

    /// Concatenates tensors along `axis`. All other dimensions must match.
    ///
    /// # Errors
    ///
    /// Returns an error if `items` is empty, `axis` is out of range, or the
    /// non-`axis` dimensions disagree.
    pub fn concat(items: &[Tensor], axis: usize) -> Result<Tensor> {
        let first = items.first().ok_or_else(|| TensorError::InvalidGeometry {
            op: "concat",
            reason: "cannot concat zero tensors".to_string(),
        })?;
        if axis >= first.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: first.rank(),
            });
        }
        let mut axis_total = 0usize;
        for item in items {
            if item.rank() != first.rank() {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.shape.clone(),
                    rhs: item.shape.clone(),
                });
            }
            for d in 0..first.rank() {
                if d != axis && item.shape[d] != first.shape[d] {
                    return Err(TensorError::ShapeMismatch {
                        op: "concat",
                        lhs: first.shape.clone(),
                        rhs: item.shape.clone(),
                    });
                }
            }
            axis_total += item.shape[axis];
        }
        let mut out_shape = first.shape.clone();
        out_shape[axis] = axis_total;
        let outer: usize = first.shape[..axis].iter().product();
        let inner: usize = first.shape[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(numel(&out_shape));
        for o in 0..outer {
            for item in items {
                let block = item.shape[axis] * inner;
                data.extend_from_slice(&item.data[o * block..(o + 1) * block]);
            }
        }
        Ok(Tensor {
            shape: out_shape,
            data,
        })
    }

    /// Reverses the last axis — for `CHW`/`NCHW` image tensors this is a
    /// horizontal mirror, the classic segmentation augmentation.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0.
    pub fn flip_last_axis(&self) -> Tensor {
        assert!(self.rank() >= 1, "flip_last_axis requires rank >= 1");
        let w = *self.shape.last().expect("rank checked above");
        let mut out = self.clone();
        if w <= 1 {
            return out;
        }
        let rows = self.data.len() / w;
        let dst = out.data_mut();
        for r in 0..rows {
            dst[r * w..(r + 1) * w].reverse();
        }
        out
    }

    /// Returns `true` if every element differs from `other` by at most
    /// `tol` (absolute). Shapes must match exactly.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

/// Finds the largest trailing block over which both operands can be
/// streamed linearly: across the block's dims each operand must be either
/// contiguous (strides matching the output's trailing layout) or constant
/// (all-zero strides). Returns `(outer_dims, block_len, lhs_contiguous,
/// rhs_contiguous)`; the odometer walks only the remaining `outer_dims`
/// leading dims.
fn broadcast_block(
    out_shape: &[usize],
    lhs_strides: &[usize],
    rhs_strides: &[usize],
) -> (usize, usize, bool, bool) {
    let mut block = 1usize;
    let mut lhs_contig = false;
    let mut rhs_contig = false;
    let mut d = out_shape.len();
    while d > 0 {
        let dim = d - 1;
        let size = out_shape[dim];
        if size == 1 {
            d -= 1;
            continue;
        }
        match (
            extend_block(lhs_strides[dim], lhs_contig, block),
            extend_block(rhs_strides[dim], rhs_contig, block),
        ) {
            (Some(lc), Some(rc)) => {
                lhs_contig = lc;
                rhs_contig = rc;
                block *= size;
                d -= 1;
            }
            _ => return (d, block, lhs_contig, rhs_contig),
        }
    }
    (d, block, lhs_contig, rhs_contig)
}

/// Whether a dim with `stride` keeps an operand streamable over a grown
/// block, given it was contiguous (`contig`) over the current `block`
/// elements. Returns the new contiguity, or `None` if the dim breaks the
/// pattern (e.g. a broadcast axis below a real one).
fn extend_block(stride: usize, contig: bool, block: usize) -> Option<bool> {
    if stride == 0 && !contig {
        Some(false)
    } else if stride == block {
        Some(true)
    } else {
        None
    }
}

/// Strides for reading `shape` as if broadcast to `out_shape` (stride 0 on
/// broadcast axes).
fn broadcast_strides(shape: &[usize], out_shape: &[usize]) -> Vec<usize> {
    let strides = strides_for(shape);
    let mut out = vec![0usize; out_shape.len()];
    let offset = out_shape.len() - shape.len();
    for (i, (&dim, &stride)) in shape.iter().zip(&strides).enumerate() {
        out[offset + i] = if dim == 1 { 0 } else { stride };
    }
    out
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, .. {} elems .. {:.4}])",
                self.data[0],
                self.data[1],
                self.data.len(),
                self.data[self.data.len() - 1]
            )
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl From<f32> for Tensor {
    fn from(value: f32) -> Self {
        Tensor::scalar(value)
    }
}

impl From<Vec<f32>> for Tensor {
    fn from(data: Vec<f32>) -> Self {
        let shape = vec![data.len()];
        Tensor { shape, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 3]).numel(), 6);
        assert_eq!(Tensor::ones(&[4]).sum(), 4.0);
        assert_eq!(Tensor::full(&[2], 2.5).data(), &[2.5, 2.5]);
        assert_eq!(Tensor::scalar(7.0).rank(), 0);
        assert_eq!(Tensor::scalar(7.0).at(&[]), 7.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(&[2, 3], |ix| (ix[0] * 10 + ix[1]) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(0.0, 1.0, 5);
        assert_eq!(t.data(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(Tensor::linspace(3.0, 9.0, 1).data(), &[3.0]);
        assert_eq!(Tensor::linspace(0.0, 1.0, 0).numel(), 0);
    }

    #[test]
    fn at_and_set() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 0], 5.0);
        assert_eq!(t.at(&[1, 0]), 5.0);
        assert_eq!(t.at(&[0, 0]), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn broadcasting_add_row() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        let c = a.add(&row);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcasting_mul_column() {
        let a = Tensor::ones(&[2, 3]);
        let col = Tensor::from_vec(vec![2.0, 3.0], &[2, 1]).unwrap();
        let c = a.mul(&col);
        assert_eq!(c.data(), &[2.0, 2.0, 2.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "zip_map")]
    fn incompatible_broadcast_panics() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[3, 2]);
        let _ = a.add(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.norm_sq(), 14.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::ones(&[2]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn index_axis0_extracts_image() {
        let t = Tensor::from_fn(&[2, 3, 4], |ix| ix[0] as f32);
        let img = t.index_axis0(1);
        assert_eq!(img.shape(), &[3, 4]);
        assert!(img.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn stack_and_concat() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::zeros(&[2, 2]);
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.shape(), &[2, 2, 2]);
        let c = Tensor::concat(&[a.clone(), b.clone()], 1).unwrap();
        assert_eq!(c.shape(), &[2, 4]);
        assert_eq!(c.data(), &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
        let c0 = Tensor::concat(&[a, b], 0).unwrap();
        assert_eq!(c0.shape(), &[4, 2]);
    }

    #[test]
    fn concat_rejects_mismatched() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::ones(&[3, 3]);
        assert!(Tensor::concat(&[a.clone(), b], 0).is_err());
        assert!(Tensor::concat(&[a], 5).is_err());
        assert!(Tensor::concat(&[], 0).is_err());
    }

    #[test]
    fn flip_last_axis_mirrors_rows() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let f = t.flip_last_axis();
        assert_eq!(f.data(), &[3.0, 2.0, 1.0, 6.0, 5.0, 4.0]);
        // Involution.
        assert_eq!(f.flip_last_axis(), t);
        // Width-1 tensors are unchanged.
        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        assert_eq!(col.flip_last_axis(), col);
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::ones(&[3]);
        let b = a.add_scalar(1e-4);
        assert!(a.allclose(&b, 1e-3));
        assert!(!a.allclose(&b, 1e-5));
        assert!(!a.allclose(&Tensor::ones(&[4]), 1.0));
    }

    #[test]
    fn debug_output_is_nonempty() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("shape"));
        let small = Tensor::zeros(&[2]);
        assert!(format!("{small:?}").contains("data"));
    }

    #[test]
    fn conversions() {
        let t: Tensor = 3.0f32.into();
        assert_eq!(t.rank(), 0);
        let v: Tensor = vec![1.0, 2.0].into();
        assert_eq!(v.shape(), &[2]);
        assert_eq!(Tensor::default().numel(), 1);
    }
}
