//! Neural-network building blocks on top of [`sf_autograd`]: layers with
//! owned parameters, optimizers, loss helpers, and analytic MAC/parameter
//! accounting (the quantities Fig. 7 of the paper reports).
//!
//! The central abstraction is [`Module`]: a layer that binds its
//! parameters onto a fresh [`sf_autograd::Graph`] each forward pass,
//! harvests gradients after `backward`, and lets an [`Optimizer`] update
//! the owned tensors in place.
//!
//! # Examples
//!
//! ```
//! use sf_autograd::Graph;
//! use sf_nn::{Conv2d, Mode, Module, Optimizer, Parameterized, Sgd};
//! use sf_tensor::{Conv2dSpec, Tensor, TensorRng};
//!
//! let mut rng = TensorRng::seed_from(0);
//! let mut conv = Conv2d::new(3, 8, 3, Conv2dSpec::same(3), true, &mut rng);
//! let mut g = Graph::new();
//! let x = g.leaf(rng.uniform(&[1, 3, 8, 8], -1.0, 1.0));
//! let y = conv.forward(&mut g, x, Mode::Train);
//! let loss = g.mean_all(y);
//! g.backward(loss);
//! conv.collect_grads(&g);
//! Sgd::new(0.1).step(&mut conv);
//! ```

mod conv;
mod cost;
mod linear;
mod module;
mod norm;
mod optim;
mod param;
mod state;

pub use conv::Conv2d;
pub use cost::Cost;
pub use linear::Linear;
pub use module::{
    GlobalAvgPool, MaxPool2d, Mode, Module, Parameterized, Relu, Sequential, Upsample,
};
pub use norm::BatchNorm2d;
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use state::{
    crc32, read_tagged, write_tagged, DType, LoadStateError, Stateful, TaggedTensor, TensorPayload,
};

// Canonical error/result types for the whole stack live in `sf_tensor`;
// re-exported here so downstream crates need only one import.
pub use sf_tensor::{Result, TensorError};
