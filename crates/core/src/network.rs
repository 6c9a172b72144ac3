//! The two-branch fusion network and its five architectural variants.

use std::sync::Arc;

use sf_autograd::{Graph, NodeId};
use sf_nn::{BatchNorm2d, Conv2d, Cost, Mode, Module, Param, Parameterized};
use sf_tensor::{Conv2dSpec, TensorRng};

use crate::arch::{describe, Arch, LayerRef, Op, Plus, Val};
use crate::awn::AuxiliaryWeightNetwork;
use crate::config::{ConfigError, FusionScheme, NetworkConfig};
use crate::stage::Stage;

/// The nodes produced by one forward pass of a [`FusionNet`].
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// Per-pixel road logits, `[N, 1, H, W]`.
    pub logits: NodeId,
    /// For every fusion stage, the two feature-map nodes that were
    /// element-wise summed: `(rgb_features, depth_contribution)`. The
    /// depth side already includes any Fusion-filter or AWN weighting —
    /// these are exactly the maps whose disparity the paper measures
    /// (Fig. 3) and penalises (Eq. 3).
    pub fusion_pairs: Vec<(NodeId, NodeId)>,
}

/// A RoadSeg-style two-branch encoder–decoder with configurable fusion
/// (the paper's model zoo, Fig. 5).
///
/// - RGB branch: `stages` encoder stages, each halving the resolution.
/// - Depth branch: same topology; under Layer-sharing the deepest stage
///   reuses the RGB branch's filters.
/// - Fusion: after every stage, the depth contribution is element-wise
///   summed into the RGB branch (Eq. 2), optionally through a `1×1`
///   Fusion-filter (AU/AB) or scaled by the AWN weight (WS).
/// - Decoder: nearest-up-sampling stages with additive skip connections
///   from the fused encoder features, ending in a `1×1` segmentation
///   head.
///
/// The struct owns the weights; how they are wired together is the
/// architecture description (`crate::arch`), built once at construction
/// and walked by every forward pass, plan compile and cost query.
#[derive(Debug, Clone)]
pub struct FusionNet {
    scheme: FusionScheme,
    config: NetworkConfig,
    fused: Arc<Arch>,
    camera_only: Arc<Arch>,
    pub(crate) rgb_stages: Vec<Stage>,
    /// One fewer entry than `rgb_stages` under Layer-sharing.
    pub(crate) depth_stages: Vec<Stage>,
    /// Depth→RGB Fusion-filters, one per stage (AU and AB).
    pub(crate) filters_d2r: Vec<Conv2d>,
    /// RGB→Depth Fusion-filters, one per stage (AB only).
    pub(crate) filters_r2d: Vec<Conv2d>,
    pub(crate) awn: Option<AuxiliaryWeightNetwork>,
    pub(crate) decoder: Vec<Stage>,
    pub(crate) head: Conv2d,
}

impl FusionNet {
    /// Builds a network for `scheme` with weights drawn from
    /// `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`NetworkConfig::validate`] if the
    /// configuration is invalid.
    pub fn new(scheme: FusionScheme, config: &NetworkConfig) -> Result<FusionNet, ConfigError> {
        config.validate()?;
        let mut rng = TensorRng::seed_from(config.seed);
        let stages = config.stages();
        let chans = &config.stage_channels;

        let shared_from = if scheme.shares_deep_stage() {
            stages - config.shared_stages
        } else {
            stages
        };
        let mut rgb_stages = Vec::with_capacity(stages);
        let mut depth_stages = Vec::with_capacity(shared_from);
        for i in 0..stages {
            let in_rgb = if i == 0 { 3 } else { chans[i - 1] };
            let in_depth = if i == 0 {
                config.depth_channels
            } else {
                chans[i - 1]
            };
            rgb_stages.push(Stage::new(in_rgb, chans[i], &mut rng));
            // Shared stages must accept both branches' inputs, which is
            // only well-formed from stage 1 on (validate() enforces
            // shared_stages < stages).
            if i < shared_from {
                depth_stages.push(Stage::new(in_depth, chans[i], &mut rng));
            }
        }

        // Fusion-filters start from the identity map: at initialisation a
        // filtered architecture behaves exactly like the element-wise-sum
        // baseline, and training only has to learn the *correction* that
        // matches depth features to RGB features (Eq. 2).
        let identity_1x1 = |c: usize, rng: &mut TensorRng| {
            let mut f = Conv2d::new(c, c, 1, Conv2dSpec::default(), false, rng);
            let w = &mut f.weight_mut().value;
            w.fill(0.0);
            for k in 0..c {
                w.set(&[k, k, 0, 0], 1.0);
            }
            f
        };
        let mut filters_d2r = Vec::new();
        let mut filters_r2d = Vec::new();
        if scheme.has_fusion_filter() {
            for &c in chans {
                filters_d2r.push(identity_1x1(c, &mut rng));
            }
            if scheme == FusionScheme::AllFilterB {
                // No reverse filter at the deepest stage: the depth branch
                // ends there, so it would never influence the output.
                for &c in &chans[..stages - 1] {
                    filters_r2d.push(identity_1x1(c, &mut rng));
                }
            }
        }

        let awn = (scheme == FusionScheme::WeightedSharing)
            .then(|| AuxiliaryWeightNetwork::new(chans[stages - 1], &mut rng));

        // Decoder: stages-1 skip stages (deep → shallow) plus one final
        // full-resolution stage, then a 1×1 head.
        let mut decoder = Vec::with_capacity(stages);
        for i in (0..stages - 1).rev() {
            decoder.push(Stage::new(chans[i + 1], chans[i], &mut rng));
        }
        decoder.push(Stage::new(chans[0], chans[0], &mut rng));
        let head = Conv2d::new(chans[0], 1, 1, Conv2dSpec::default(), true, &mut rng);

        Ok(FusionNet {
            scheme,
            config: config.clone(),
            fused: Arc::new(describe(scheme, config, true)),
            camera_only: Arc::new(describe(scheme, config, false)),
            rgb_stages,
            depth_stages,
            filters_d2r,
            filters_r2d,
            awn,
            decoder,
            head,
        })
    }

    /// The architecture variant.
    pub fn scheme(&self) -> FusionScheme {
        self.scheme
    }

    /// The construction configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The architecture description: both branches and the fusion
    /// mechanism, or the RGB column alone.
    pub(crate) fn arch(&self, with_depth: bool) -> &Arc<Arch> {
        if with_depth {
            &self.fused
        } else {
            &self.camera_only
        }
    }

    /// The convolution (and BatchNorm, if it has one) a description node
    /// names.
    pub(crate) fn layer(&self, layer: LayerRef) -> (&Conv2d, Option<&BatchNorm2d>) {
        let stage = match layer {
            LayerRef::RgbStage(i) => &self.rgb_stages[i],
            LayerRef::DepthStage(i) => &self.depth_stages[i],
            LayerRef::Decoder(k) => &self.decoder[k],
            LayerRef::D2r(i) => return (&self.filters_d2r[i], None),
            LayerRef::R2d(i) => return (&self.filters_r2d[i], None),
            LayerRef::Head => return (&self.head, None),
        };
        (&stage.conv, Some(&stage.bn))
    }

    fn layer_mut(&mut self, layer: LayerRef) -> (&mut Conv2d, Option<&mut BatchNorm2d>) {
        let stage = match layer {
            LayerRef::RgbStage(i) => &mut self.rgb_stages[i],
            LayerRef::DepthStage(i) => &mut self.depth_stages[i],
            LayerRef::Decoder(k) => &mut self.decoder[k],
            LayerRef::D2r(i) => return (&mut self.filters_d2r[i], None),
            LayerRef::R2d(i) => return (&mut self.filters_r2d[i], None),
            LayerRef::Head => return (&mut self.head, None),
        };
        (&mut stage.conv, Some(&mut stage.bn))
    }

    /// Records a full forward pass for a batch: `rgb` is `[N, 3, H, W]`,
    /// `depth` is `[N, 1, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if the input shapes do not match the configuration.
    pub fn forward(
        &mut self,
        g: &mut Graph,
        rgb: NodeId,
        depth: NodeId,
        mode: Mode,
    ) -> ForwardOutput {
        self.interpret(g, rgb, Some(depth), mode)
    }

    /// Records a camera-only forward pass: the RGB encoder runs alone and
    /// the depth branch (and every fusion mechanism) is bypassed entirely.
    ///
    /// This is the graceful-degradation path taken when a
    /// [`crate::DegradationPolicy`] quarantines the depth input — the
    /// depth contribution to every fusion sum is exactly zero, so the
    /// prediction depends only on the camera. `fusion_pairs` is empty
    /// (there are no fusions to measure a disparity over).
    pub fn forward_camera_only(&mut self, g: &mut Graph, rgb: NodeId, mode: Mode) -> ForwardOutput {
        self.interpret(g, rgb, None, mode)
    }

    /// The graph lowering: records the description's nodes on `g` in
    /// order — fused when a depth node is given, camera-only otherwise.
    fn interpret(
        &mut self,
        g: &mut Graph,
        rgb: NodeId,
        depth: Option<NodeId>,
        mode: Mode,
    ) -> ForwardOutput {
        let arch = Arc::clone(self.arch(depth.is_some()));
        let mut vals: Vec<NodeId> = Vec::with_capacity(arch.nodes.len());
        let mut fusion_pairs = Vec::new();
        for node in &arch.nodes {
            let at = |v: Val| match v {
                Val::Rgb => rgb,
                Val::Depth => depth.expect("a camera-only description never reads depth"),
                Val::Node(i) => vals[i],
            };
            let (mut out, plus) = match node.op {
                Op::Conv {
                    input,
                    layer,
                    relu,
                    plus,
                    ..
                } => {
                    let (conv, bn) = self.layer_mut(layer);
                    let mut y = conv.forward(g, at(input), mode);
                    if let Some(bn) = bn {
                        y = bn.forward(g, y, mode);
                    }
                    (if relu { g.relu(y) } else { y }, plus)
                }
                Op::Pool { input, plus } => (g.max_pool2d(at(input), 2, 2), plus),
                Op::Upsample { input } => (g.upsample_nearest2d(at(input), 2), None),
                Op::Awn { r, d } => {
                    let awn = self.awn.as_mut().expect("WS always builds an AWN");
                    (awn.weight(g, at(r), at(d), mode), None)
                }
                Op::MulAdd { r, d, weight } => {
                    let d_contrib = g.mul(at(d), at(weight));
                    fusion_pairs.push((at(r), d_contrib));
                    (g.add(at(r), d_contrib), None)
                }
                // The training loss takes raw logits; only plans run the
                // probability head.
                Op::Sigmoid { input } => (at(input), None),
            };
            if let Some(plus) = plus {
                let operand = at(plus.operand());
                match plus {
                    Plus::FuseDepth(_) => fusion_pairs.push((out, operand)),
                    Plus::FuseRgb(_) => fusion_pairs.push((operand, out)),
                    Plus::Sum(_) => {}
                }
                out = g.add(out, operand);
            }
            vals.push(out);
        }
        ForwardOutput {
            logits: *vals.last().expect("a description ends in its output"),
            fusion_pairs,
        }
    }

    /// Analytic per-image cost (MACs and parameters) of the whole
    /// network, the quantities plotted in Fig. 7.
    ///
    /// Layer-sharing halves the deepest stage's *parameters* but not its
    /// MACs (both streams are still processed); Fusion-filters add both.
    pub fn cost(&self) -> Cost {
        self.fused
            .cost()
            .expect("a constructed network's cost fits in u64")
    }
}

impl Parameterized for FusionNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for s in &mut self.rgb_stages {
            s.visit_params(f);
        }
        for s in &mut self.depth_stages {
            s.visit_params(f);
        }
        for c in &mut self.filters_d2r {
            c.visit_params(f);
        }
        for c in &mut self.filters_r2d {
            c.visit_params(f);
        }
        if let Some(awn) = &mut self.awn {
            awn.visit_params(f);
        }
        for s in &mut self.decoder {
            s.visit_params(f);
        }
        self.head.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut sf_tensor::Tensor)) {
        for s in &mut self.rgb_stages {
            s.visit_buffers(f);
        }
        for s in &mut self.depth_stages {
            s.visit_buffers(f);
        }
        for s in &mut self.decoder {
            s.visit_buffers(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_tensor::TensorRng;

    fn run_forward(scheme: FusionScheme) -> (FusionNet, Vec<usize>) {
        let config = NetworkConfig::tiny();
        let mut net = FusionNet::new(scheme, &config).expect("valid config");
        let mut rng = TensorRng::seed_from(9);
        let mut g = Graph::new();
        let rgb = g.leaf(rng.uniform(&[2, 3, config.height, config.width], 0.0, 1.0));
        let depth = g.leaf(rng.uniform(&[2, 1, config.height, config.width], 0.0, 1.0));
        let out = net.forward(&mut g, rgb, depth, Mode::Train);
        let shape = g.value(out.logits).shape().to_vec();
        (net, shape)
    }

    #[test]
    fn all_schemes_produce_full_resolution_logits() {
        for scheme in FusionScheme::ALL {
            let (_, shape) = run_forward(scheme);
            assert_eq!(shape, vec![2, 1, 16, 48], "{scheme} output shape");
        }
    }

    #[test]
    fn fusion_pair_count_matches_stages() {
        let config = NetworkConfig::tiny();
        let mut net = FusionNet::new(FusionScheme::Baseline, &config).expect("valid config");
        let mut rng = TensorRng::seed_from(10);
        let mut g = Graph::new();
        let rgb = g.leaf(rng.uniform(&[1, 3, 16, 48], 0.0, 1.0));
        let depth = g.leaf(rng.uniform(&[1, 1, 16, 48], 0.0, 1.0));
        let out = net.forward(&mut g, rgb, depth, Mode::Eval);
        assert_eq!(out.fusion_pairs.len(), 3);
        // Pair shapes match per stage and halve each time.
        for (i, &(r, d)) in out.fusion_pairs.iter().enumerate() {
            assert_eq!(g.value(r).shape(), g.value(d).shape());
            assert_eq!(g.value(r).shape()[2], 16 >> (i + 1));
        }
    }

    #[test]
    fn parameter_ordering_matches_paper_fig7() {
        // AB > AU > Baseline > WS > BS in parameter count.
        let config = NetworkConfig::standard();
        let count = |s: FusionScheme| {
            FusionNet::new(s, &config)
                .expect("valid config")
                .param_count()
        };
        let base = count(FusionScheme::Baseline);
        let au = count(FusionScheme::AllFilterU);
        let ab = count(FusionScheme::AllFilterB);
        let bs = count(FusionScheme::BaseSharing);
        let ws = count(FusionScheme::WeightedSharing);
        assert!(ab > au, "AB {ab} > AU {au}");
        assert!(au > base, "AU {au} > Baseline {base}");
        assert!(base > ws, "Baseline {base} > WS {ws}");
        assert!(ws > bs, "WS {ws} > BS {bs}");
    }

    #[test]
    fn cost_params_agree_with_visit_params() {
        let config = NetworkConfig::standard();
        for scheme in FusionScheme::ALL {
            let mut net = FusionNet::new(scheme, &config).expect("valid config");
            assert_eq!(
                net.cost().params as usize,
                net.param_count(),
                "{scheme} cost/param mismatch"
            );
        }
    }

    #[test]
    fn mac_ordering_matches_paper_fig7() {
        // Fusion filters add MACs; sharing keeps them ~equal to baseline.
        let config = NetworkConfig::standard();
        let macs = |s: FusionScheme| {
            FusionNet::new(s, &config)
                .expect("valid config")
                .cost()
                .macs
        };
        let base = macs(FusionScheme::Baseline);
        assert!(macs(FusionScheme::AllFilterU) > base);
        assert!(macs(FusionScheme::AllFilterB) > macs(FusionScheme::AllFilterU));
        assert_eq!(macs(FusionScheme::BaseSharing), base);
        assert!(macs(FusionScheme::WeightedSharing) >= base);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let config = NetworkConfig::tiny();
        for scheme in FusionScheme::ALL {
            let mut net = FusionNet::new(scheme, &config).expect("valid config");
            let mut rng = TensorRng::seed_from(11);
            let mut g = Graph::new();
            let rgb = g.leaf(rng.uniform(&[2, 3, 16, 48], 0.0, 1.0));
            let depth = g.leaf(rng.uniform(&[2, 1, 16, 48], 0.0, 1.0));
            let out = net.forward(&mut g, rgb, depth, Mode::Train);
            let target = rng.uniform(&[2, 1, 16, 48], 0.0, 1.0).map(f32::round);
            let loss = g.bce_with_logits(out.logits, &target);
            g.backward(loss);
            net.collect_grads(&g);
            let mut missing = Vec::new();
            net.visit_params(&mut |p| {
                if p.grad.norm_sq() == 0.0 {
                    missing.push(p.name.clone());
                }
            });
            assert!(
                missing.is_empty(),
                "{scheme}: parameters with zero grad: {missing:?}"
            );
        }
    }

    #[test]
    fn camera_only_forward_ignores_depth_entirely() {
        let config = NetworkConfig::tiny();
        for scheme in FusionScheme::ALL {
            let mut net = FusionNet::new(scheme, &config).expect("valid config");
            let mut rng = TensorRng::seed_from(21);
            let rgb_t = rng.uniform(&[2, 3, 16, 48], 0.0, 1.0);
            let mut g = Graph::new();
            let rgb = g.leaf(rgb_t.clone());
            let out = net.forward_camera_only(&mut g, rgb, Mode::Eval);
            assert_eq!(g.value(out.logits).shape(), &[2, 1, 16, 48]);
            assert!(out.fusion_pairs.is_empty());
            let reference = g.value(out.logits).clone();
            // A second camera-only pass is bit-identical regardless of
            // what the (ignored) depth sensor would have delivered.
            let mut g2 = Graph::new();
            let rgb2 = g2.leaf(rgb_t.clone());
            let out2 = net.forward_camera_only(&mut g2, rgb2, Mode::Eval);
            assert_eq!(g2.value(out2.logits), &reference, "{scheme}");
        }
    }

    #[test]
    fn shared_stage_reduces_depth_branch() {
        let config = NetworkConfig::tiny();
        let base = FusionNet::new(FusionScheme::Baseline, &config).expect("valid config");
        let bs = FusionNet::new(FusionScheme::BaseSharing, &config).expect("valid config");
        assert_eq!(base.depth_stages.len(), 3);
        assert_eq!(bs.depth_stages.len(), 2);
    }

    #[test]
    fn same_seed_same_initial_weights() {
        let config = NetworkConfig::tiny();
        let mut a = FusionNet::new(FusionScheme::Baseline, &config).expect("valid config");
        let mut b = FusionNet::new(FusionScheme::Baseline, &config).expect("valid config");
        let mut wa = Vec::new();
        a.visit_params(&mut |p| wa.push(p.value.clone()));
        let mut i = 0;
        b.visit_params(&mut |p| {
            assert_eq!(p.value, wa[i]);
            i += 1;
        });
    }
}
