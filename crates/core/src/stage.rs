//! The weight-carrying building block of the two-branch network.

use sf_nn::{BatchNorm2d, Conv2d, Param, Parameterized};
use sf_tensor::{Conv2dSpec, TensorRng};

/// The weights of one encoder or decoder stage: a same-padded `conv3×3`
/// and its BatchNorm. What surrounds them — the ReLU, the encoder's
/// `maxpool 2×2`, the decoder's `upsample ×2`, the fusion and skip sums —
/// is topology and lives in the architecture description (`crate::arch`).
#[derive(Debug, Clone)]
pub(crate) struct Stage {
    pub(crate) conv: Conv2d,
    pub(crate) bn: BatchNorm2d,
}

impl Stage {
    /// Creates a stage mapping `in_c → out_c` channels.
    pub fn new(in_c: usize, out_c: usize, rng: &mut TensorRng) -> Self {
        Stage {
            conv: Conv2d::new(in_c, out_c, 3, Conv2dSpec::same(3), false, rng),
            bn: BatchNorm2d::new(out_c),
        }
    }
}

impl Parameterized for Stage {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params(f);
        self.bn.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut sf_tensor::Tensor)) {
        self.bn.visit_buffers(f);
    }
}
