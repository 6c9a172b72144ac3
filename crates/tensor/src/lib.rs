//! Dense `f32` N-dimensional tensors and the numerical kernels used by the
//! sensor-fusion reproduction: element-wise arithmetic, matrix
//! multiplication, `im2col`-based 2-D convolution (forward and backward),
//! pooling, up-sampling and reductions.
//!
//! The crate is deliberately self-contained — the whole deep-learning stack
//! of the reproduction is built on top of it — and favours clarity and
//! testability over peak throughput. All data is stored row-major
//! (C-contiguous); image batches use the `NCHW` layout.
//!
//! # Examples
//!
//! ```
//! use sf_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::ones(&[2, 2]);
//! let c = a.add(&b);
//! assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
//! # Ok::<(), sf_tensor::TensorError>(())
//! ```

// The crate's few `unsafe` sites (the ISA dispatch in `kernels`, the
// disjoint-plane pointers in `pool`) must each argue their soundness.
#![deny(clippy::undocumented_unsafe_blocks)]

mod conv;
mod error;
pub mod int8;
mod kernels;
mod linalg;
mod pool;
mod reduce;
mod rng;
pub mod scratch;
mod shape;
mod tensor;
pub mod testkit;

pub use conv::{col2im, conv2d, conv2d_backward, im2col, im2col_into, Conv2dSpec};
pub use error::TensorError;
pub use kernels::{conv_epilogue, kernel_isa, BnFold, ConvEpilogue, Dequant};
pub use linalg::{matmul, matmul_into, matmul_transpose_a, matmul_transpose_b, transpose2d};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, max_pool2d, max_pool2d_backward, upsample_nearest2d,
    upsample_nearest2d_backward,
};
pub use reduce::{Axis, Reduction};
pub use rng::TensorRng;
pub use shape::{broadcast_shapes, strides_for};
pub use tensor::Tensor;

/// Result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
