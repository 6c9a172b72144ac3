//! The Auxiliary Weight Network (Fig. 4(c)).
//!
//! In the non-shared architecture each branch's filters carry an implicit
//! fusion weight; once the deep layer is shared that weight disappears.
//! The AWN restores it *dynamically*: the difference of the two shared-
//! stage outputs is pooled and passed through a small fully-connected
//! stack, producing one sigmoid weight per input that scales the depth
//! features at the fusion point.

use sf_autograd::{Graph, NodeId};
use sf_nn::{Cost, Linear, Mode, Module, Param, Parameterized};
use sf_tensor::TensorRng;

/// The Auxiliary Weight Network: `GAP(f_R − f_D) → FC → ReLU → FC →
/// sigmoid → w_f ∈ (0, 1)` per input.
#[derive(Debug, Clone)]
pub struct AuxiliaryWeightNetwork {
    pub(crate) fc1: Linear,
    pub(crate) fc2: Linear,
    channels: usize,
}

impl AuxiliaryWeightNetwork {
    /// Creates an AWN over `channels`-wide deep features.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(channels: usize, rng: &mut TensorRng) -> Self {
        assert!(channels > 0, "AWN requires at least one channel");
        let hidden = Self::hidden_width(channels);
        AuxiliaryWeightNetwork {
            fc1: Linear::new(channels, hidden, true, rng),
            fc2: Linear::new(hidden, 1, true, rng),
            channels,
        }
    }

    /// Width of the hidden fully-connected layer for `channels`-wide
    /// features.
    pub(crate) fn hidden_width(channels: usize) -> usize {
        (channels / 2).max(2)
    }

    /// Computes the per-input fusion weight node of shape `[N, 1, 1, 1]`
    /// from the two branch features (`[N, C, H, W]` each).
    pub fn weight(
        &mut self,
        g: &mut Graph,
        rgb_feat: NodeId,
        depth_feat: NodeId,
        mode: Mode,
    ) -> NodeId {
        let n = g.value(rgb_feat).shape()[0];
        let diff = g.sub(rgb_feat, depth_feat);
        let pooled = g.global_avg_pool(diff);
        let h1 = self.fc1.forward(g, pooled, mode);
        let r = g.relu(h1);
        let h2 = self.fc2.forward(g, r, mode);
        let w = g.sigmoid(h2);
        g.reshape(w, &[n, 1, 1, 1])
    }

    /// Channel width this AWN was built for.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

impl Parameterized for AuxiliaryWeightNetwork {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }
}

impl Module for AuxiliaryWeightNetwork {
    fn forward(&mut self, g: &mut Graph, x: NodeId, mode: Mode) -> NodeId {
        // Standalone forward (x assumed to be the pooled difference).
        let h1 = self.fc1.forward(g, x, mode);
        let r = g.relu(h1);
        let h2 = self.fc2.forward(g, r, mode);
        g.sigmoid(h2)
    }

    fn cost(&self, in_chw: (usize, usize, usize)) -> (Cost, (usize, usize, usize)) {
        let (c1, s1) = self.fc1.cost((self.channels, 1, 1));
        let (c2, s2) = self.fc2.cost(s1);
        let _ = in_chw;
        (c1 + c2, s2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_is_per_input_sigmoid() {
        let mut rng = TensorRng::seed_from(4);
        let mut awn = AuxiliaryWeightNetwork::new(8, &mut rng);
        let mut g = Graph::new();
        let r = g.leaf(rng.uniform(&[3, 8, 4, 4], -1.0, 1.0));
        let d = g.leaf(rng.uniform(&[3, 8, 4, 4], -1.0, 1.0));
        let w = awn.weight(&mut g, r, d, Mode::Train);
        let wv = g.value(w);
        assert_eq!(wv.shape(), &[3, 1, 1, 1]);
        assert!(wv.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Different inputs give different weights (dynamic behaviour).
        assert!(
            (wv.data()[0] - wv.data()[1]).abs() > 1e-6
                || (wv.data()[1] - wv.data()[2]).abs() > 1e-6
        );
    }

    #[test]
    fn awn_is_trainable() {
        let mut rng = TensorRng::seed_from(5);
        let mut awn = AuxiliaryWeightNetwork::new(4, &mut rng);
        let mut g = Graph::new();
        let r = g.leaf(rng.uniform(&[2, 4, 3, 3], -1.0, 1.0));
        let d = g.leaf(rng.uniform(&[2, 4, 3, 3], -1.0, 1.0));
        let w = awn.weight(&mut g, r, d, Mode::Train);
        let loss = g.mean_all(w);
        g.backward(loss);
        awn.collect_grads(&g);
        let mut total = 0.0;
        awn.visit_params(&mut |p| total += p.grad.norm_sq());
        assert!(total > 0.0);
    }

    #[test]
    fn cost_counts_both_layers() {
        let mut rng = TensorRng::seed_from(6);
        let mut awn = AuxiliaryWeightNetwork::new(16, &mut rng);
        let (cost, _) = awn.cost((16, 1, 1));
        // fc1: 16→8 (+8 bias), fc2: 8→1 (+1 bias).
        assert_eq!(cost.params, (16 * 8 + 8) + (8 + 1));
        assert_eq!(awn.channels(), 16);
        assert_eq!(cost.params as usize, awn.param_count());
    }

    #[test]
    fn identical_branches_still_yield_valid_weight() {
        let mut rng = TensorRng::seed_from(7);
        let mut awn = AuxiliaryWeightNetwork::new(4, &mut rng);
        let mut g = Graph::new();
        let feat = g.leaf(rng.uniform(&[1, 4, 2, 2], -1.0, 1.0));
        let w = awn.weight(&mut g, feat, feat, Mode::Eval);
        // Difference is zero → weight is sigmoid(bias path) ∈ (0, 1).
        let v = g.value(w).data()[0];
        assert!((0.0..=1.0).contains(&v));
    }
}
