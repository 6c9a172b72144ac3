//! The fusion network's topology, written down once.
//!
//! [`describe`] turns `(scheme, config, with_depth)` into an ordered list
//! of op-granular [`Node`]s. A node names its operands by value id, the
//! weights it runs by [`LayerRef`] (never the weights themselves), its
//! output `(c, h, w)` and the stable label calibration profiles, SFM1 v3
//! `act-scales` lines and the benchmark's op table are keyed by. Three
//! lowerings walk the list and nothing else knows the wiring:
//!
//! - the autograd **graph** interpreter behind
//!   [`FusionNet::forward`](crate::FusionNet::forward) and
//!   [`forward_camera_only`](crate::FusionNet::forward_camera_only);
//! - the **plan** compiler (`plan::compile`): one node, one plan op;
//! - the **cost** fold ([`Arch::cost`], Fig. 7's MACs and parameters).
//!
//! Camera-only is the projection `with_depth = false`; Layer-sharing is
//! two nodes naming the same [`LayerRef`]; every element-wise sum (Eq. 2
//! fusions, decoder skips, the AB reverse filter) is a [`Plus`] operand on
//! the node that produces the other summand, which is what lets the plan
//! fold the sum into that kernel's output pass.
//!
//! Node order is execution order in every lowering, and one rule
//! constrains it: a shared stage's BatchNorm is updated once per stream
//! per training step and the momentum update does not commute, so the RGB
//! conv of a stage always precedes the depth conv naming the same layer.

use sf_nn::Cost;

use crate::awn::AuxiliaryWeightNetwork;
use crate::config::{FusionScheme, NetworkConfig};
use crate::plan::{INPUT_DEPTH, INPUT_RGB};

/// A per-image feature-map shape.
pub(crate) type Chw = (usize, usize, usize);

/// A weight-carrying layer of a [`FusionNet`](crate::FusionNet), by
/// position. Two nodes naming the same layer share its filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LayerRef {
    RgbStage(usize),
    DepthStage(usize),
    /// Depth→RGB Fusion-filter of a stage (AU, AB).
    D2r(usize),
    /// RGB→depth Fusion-filter of a stage (AB).
    R2d(usize),
    Decoder(usize),
    Head,
}

/// A value: one of the two external inputs or the output of node `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Val {
    Rgb,
    Depth,
    Node(usize),
}

/// An element-wise sum folded onto the node producing one summand: the
/// node's value is `out + operand`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plus {
    /// A plain sum: a decoder skip connection or the AB reverse filter.
    Sum(Val),
    /// A fusion sum (Eq. 2) whose operand is the depth contribution; the
    /// node's own output is the RGB side.
    FuseDepth(Val),
    /// A fusion sum whose operand is the RGB features; the node's own
    /// output is the (filtered) depth contribution.
    FuseRgb(Val),
}

impl Plus {
    pub fn operand(self) -> Val {
        match self {
            Plus::Sum(v) | Plus::FuseDepth(v) | Plus::FuseRgb(v) => v,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `k×k` same-padded convolution through `layer`, then its BatchNorm
    /// and ReLU where flagged.
    Conv {
        input: Val,
        layer: LayerRef,
        k: usize,
        bias: bool,
        bn: bool,
        relu: bool,
        plus: Option<Plus>,
    },
    /// 2×2 stride-2 max pool.
    Pool { input: Val, plus: Option<Plus> },
    /// ×2 nearest-neighbour upsample.
    Upsample { input: Val },
    /// The AWN weight head: one scalar per image from `r − d`.
    Awn { r: Val, d: Val },
    /// The WS fusion sum `r + d · weight`.
    MulAdd { r: Val, d: Val, weight: Val },
    /// The probability head. Plans end here; the training graph stops at
    /// its input, the logits.
    Sigmoid { input: Val },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Node {
    /// Stable name of the op and of the value it writes.
    pub label: String,
    pub op: Op,
    pub out: Chw,
}

/// One architecture: the input shapes and the ordered nodes. The last
/// node is the network output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Arch {
    pub rgb: Chw,
    pub depth: Chw,
    pub nodes: Vec<Node>,
}

impl Arch {
    pub fn chw(&self, v: Val) -> Chw {
        match v {
            Val::Rgb => self.rgb,
            Val::Depth => self.depth,
            Val::Node(i) => self.nodes[i].out,
        }
    }

    /// The label of a value — the key its calibrated scale is filed under.
    pub fn label(&self, v: Val) -> &str {
        match v {
            Val::Rgb => INPUT_RGB,
            Val::Depth => INPUT_DEPTH,
            Val::Node(i) => &self.nodes[i].label,
        }
    }

    fn push(&mut self, label: String, op: Op, out: Chw) -> Val {
        self.nodes.push(Node { label, op, out });
        Val::Node(self.nodes.len() - 1)
    }

    /// A convolution through `layer`; the layer's kind fixes its flavour
    /// (stage convs are `3×3 → BN → ReLU`, Fusion-filters bare `1×1`, the
    /// head `1×1 + bias`).
    fn conv(
        &mut self,
        label: String,
        input: Val,
        layer: LayerRef,
        out_c: usize,
        plus: Option<Plus>,
    ) -> Val {
        let (k, bias, norm) = match layer {
            LayerRef::RgbStage(_) | LayerRef::DepthStage(_) | LayerRef::Decoder(_) => {
                (3, false, true)
            }
            LayerRef::D2r(_) | LayerRef::R2d(_) => (1, false, false),
            LayerRef::Head => (1, true, false),
        };
        let (_, h, w) = self.chw(input);
        let op = Op::Conv {
            input,
            layer,
            k,
            bias,
            bn: norm,
            relu: norm,
            plus,
        };
        self.push(label, op, (out_c, h, w))
    }

    fn pool(&mut self, label: String, input: Val, plus: Option<Plus>) -> Val {
        let (c, h, w) = self.chw(input);
        self.push(label, Op::Pool { input, plus }, (c, h / 2, w / 2))
    }

    /// Analytic per-image cost: MACs for every node from its shapes,
    /// parameters once per distinct [`LayerRef`] — so Layer-sharing halves
    /// a stage's parameters but not its MACs. `None` if a count overflows
    /// `u64`, which only a hostile configuration can reach.
    pub fn cost(&self) -> Option<Cost> {
        let product = |xs: &[usize]| xs.iter().try_fold(1u64, |p, &x| p.checked_mul(x as u64));
        let mut total = Cost::default();
        let mut counted: Vec<LayerRef> = Vec::new();
        for node in &self.nodes {
            let (c, h, w) = node.out;
            let (macs, params) = match node.op {
                Op::Conv {
                    input,
                    layer,
                    k,
                    bias,
                    bn,
                    ..
                } => {
                    let weights = product(&[c, self.chw(input).0, k, k])?;
                    let mut macs = weights.checked_mul(product(&[h, w])?)?;
                    let mut params = weights.checked_add(if bias { c as u64 } else { 0 })?;
                    if bn {
                        macs = macs.checked_add(product(&[2, c, h, w])?)?;
                        params = params.checked_add(product(&[2, c])?)?;
                    }
                    if counted.contains(&layer) {
                        params = 0;
                    } else {
                        counted.push(layer);
                    }
                    (macs, params)
                }
                Op::Awn { r, .. } => {
                    let channels = self.chw(r).0;
                    let hidden = AuxiliaryWeightNetwork::hidden_width(channels);
                    let fc = product(&[channels, hidden])?.checked_add(hidden as u64)?;
                    (fc, fc.checked_add(hidden as u64 + 1)?)
                }
                _ => (0, 0),
            };
            total.macs = total.macs.checked_add(macs)?;
            total.params = total.params.checked_add(params)?;
        }
        Some(total)
    }
}

/// Builds the architecture of `scheme` under `config` (which must have
/// passed [`NetworkConfig::validate`]): both branches and the scheme's
/// fusion mechanism, or with `with_depth = false` the RGB column alone.
/// This function is the only place the topology is decided.
pub(crate) fn describe(scheme: FusionScheme, config: &NetworkConfig, with_depth: bool) -> Arch {
    let chans = &config.stage_channels;
    let stages = chans.len();
    let (h, w) = (config.height, config.width);
    let shared_from = if scheme.shares_deep_stage() {
        stages - config.shared_stages
    } else {
        stages
    };
    let mut a = Arch {
        rgb: (3, h, w),
        depth: (config.depth_channels, h, w),
        nodes: Vec::new(),
    };
    // The (fused) encoder maps the decoder's skip connections add back in.
    let mut skips = Vec::with_capacity(stages);
    let (mut r, mut d) = (Val::Rgb, Val::Depth);
    for (i, &c) in chans.iter().enumerate() {
        let rgb_layer = LayerRef::RgbStage(i);
        // Under sharing the deepest stages run the depth stream through
        // the RGB stage's filters.
        let depth_layer = if i >= shared_from {
            rgb_layer
        } else {
            LayerRef::DepthStage(i)
        };
        let r_conv = a.conv(format!("enc{i}.rgb.conv"), r, rgb_layer, c, None);
        let rgb_pool = format!("enc{i}.rgb.pool");
        let depth_column = |a: &mut Arch, d: Val| {
            let d_conv = a.conv(format!("enc{i}.depth.conv"), d, depth_layer, c, None);
            a.pool(format!("enc{i}.depth.pool"), d_conv, None)
        };
        if !with_depth {
            r = a.pool(rgb_pool, r_conv, None);
        } else if scheme.has_fusion_filter() {
            let r_feat = a.pool(rgb_pool, r_conv, None);
            let d_feat = depth_column(&mut a, d);
            // The depth features enter the RGB branch through the 1×1
            // Fusion-filter (Eq. 2).
            let fuse = Some(Plus::FuseRgb(r_feat));
            r = a.conv(format!("fuse{i}.d2r"), d_feat, LayerRef::D2r(i), c, fuse);
            // AB: the depth branch also receives the RGB features — except
            // at the deepest stage, where the depth branch ends and a
            // reverse filter could never influence the output.
            d = if scheme == FusionScheme::AllFilterB && i < stages - 1 {
                let back = Some(Plus::Sum(d_feat));
                a.conv(format!("fuse{i}.r2d"), r_feat, LayerRef::R2d(i), c, back)
            } else {
                d_feat
            };
        } else if scheme == FusionScheme::WeightedSharing && i == stages - 1 {
            let r_feat = a.pool(rgb_pool, r_conv, None);
            d = depth_column(&mut a, d);
            // The AWN scales the depth features per input before the sum.
            let weight = a.push(format!("fuse{i}.awn"), Op::Awn { r: r_feat, d }, (1, 1, 1));
            let sum = Op::MulAdd {
                r: r_feat,
                d,
                weight,
            };
            r = a.push(format!("fuse{i}.sum"), sum, a.chw(r_feat));
        } else {
            // Direct element-wise sum, folded onto the RGB pool — which
            // therefore waits for the depth column.
            d = depth_column(&mut a, d);
            r = a.pool(rgb_pool, r_conv, Some(Plus::FuseDepth(d)));
        }
        skips.push(r);
    }
    // Decoder: stages−1 skip stages (deep → shallow), one full-resolution
    // stage, the 1×1 head and the probability sigmoid.
    for k in 0..stages {
        let (c, hh, ww) = a.chw(r);
        let up = a.push(
            format!("dec{k}.up"),
            Op::Upsample { input: r },
            (c, hh * 2, ww * 2),
        );
        let (out_c, skip) = match stages.checked_sub(k + 2) {
            Some(s) => (chans[s], Some(Plus::Sum(skips[s]))),
            None => (chans[0], None),
        };
        r = a.conv(
            format!("dec{k}.conv"),
            up,
            LayerRef::Decoder(k),
            out_c,
            skip,
        );
    }
    let logits = a.conv("head".into(), r, LayerRef::Head, 1, None);
    a.push("sigmoid".into(), Op::Sigmoid { input: logits }, (1, h, w));
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CalibrationProfile, CompiledPlan, PlanMode};
    use crate::FusionNet;
    use sf_autograd::Graph;
    use sf_nn::Mode;
    use sf_tensor::TensorRng;

    // The op order of every scheme on `NetworkConfig::tiny()`, pinned as
    // literals: every other check of the topology (plan-vs-graph parity,
    // cost-vs-parameter agreement) compares two lowerings of the same
    // description and so cannot see a bug in the description itself.
    // AU, AB and camera-only are `roadseg plan --dump --smoke` of the
    // commit before the description existed; the direct-sum schemes moved
    // each stage's RGB conv ahead of its depth column (the BatchNorm rule).
    const CAMERA_ONLY: &str = "enc0.rgb.conv enc0.rgb.pool enc1.rgb.conv enc1.rgb.pool \
        enc2.rgb.conv enc2.rgb.pool dec0.up dec0.conv dec1.up dec1.conv dec2.up dec2.conv \
        head sigmoid";
    const DIRECT_SUM: &str = "enc0.rgb.conv enc0.depth.conv enc0.depth.pool enc0.rgb.pool \
        enc1.rgb.conv enc1.depth.conv enc1.depth.pool enc1.rgb.pool \
        enc2.rgb.conv enc2.depth.conv enc2.depth.pool enc2.rgb.pool \
        dec0.up dec0.conv dec1.up dec1.conv dec2.up dec2.conv head sigmoid";
    const FUSED: [(FusionScheme, &str); 5] = [
        (FusionScheme::Baseline, DIRECT_SUM),
        (
            FusionScheme::AllFilterU,
            "enc0.rgb.conv enc0.rgb.pool enc0.depth.conv enc0.depth.pool fuse0.d2r \
             enc1.rgb.conv enc1.rgb.pool enc1.depth.conv enc1.depth.pool fuse1.d2r \
             enc2.rgb.conv enc2.rgb.pool enc2.depth.conv enc2.depth.pool fuse2.d2r \
             dec0.up dec0.conv dec1.up dec1.conv dec2.up dec2.conv head sigmoid",
        ),
        (
            FusionScheme::AllFilterB,
            "enc0.rgb.conv enc0.rgb.pool enc0.depth.conv enc0.depth.pool fuse0.d2r fuse0.r2d \
             enc1.rgb.conv enc1.rgb.pool enc1.depth.conv enc1.depth.pool fuse1.d2r fuse1.r2d \
             enc2.rgb.conv enc2.rgb.pool enc2.depth.conv enc2.depth.pool fuse2.d2r \
             dec0.up dec0.conv dec1.up dec1.conv dec2.up dec2.conv head sigmoid",
        ),
        (FusionScheme::BaseSharing, DIRECT_SUM),
        (
            FusionScheme::WeightedSharing,
            "enc0.rgb.conv enc0.depth.conv enc0.depth.pool enc0.rgb.pool \
             enc1.rgb.conv enc1.depth.conv enc1.depth.pool enc1.rgb.pool \
             enc2.rgb.conv enc2.rgb.pool enc2.depth.conv enc2.depth.pool fuse2.awn fuse2.sum \
             dec0.up dec0.conv dec1.up dec1.conv dec2.up dec2.conv head sigmoid",
        ),
    ];

    fn labels(plan: &CompiledPlan) -> String {
        let labels: Vec<&str> = plan.ops.iter().map(|op| op.label.as_str()).collect();
        labels.join(" ")
    }

    #[test]
    fn op_order_of_every_scheme_is_pinned() {
        let config = NetworkConfig::tiny();
        let mut rng = TensorRng::seed_from(5);
        let rgb = rng.uniform(&[1, 3, config.height, config.width], 0.0, 1.0);
        let depth = rng.uniform(&[1, 1, config.height, config.width], 0.0, 1.0);
        for (scheme, fused) in FUSED {
            let net = FusionNet::new(scheme, &config).expect("valid config");
            let mut profile = CalibrationProfile::new();
            for (mode, int8, want) in [
                (PlanMode::Fused, PlanMode::Int8, fused),
                (PlanMode::CameraOnly, PlanMode::Int8CameraOnly, CAMERA_ONLY),
            ] {
                let mut plan = CompiledPlan::compile(&net, mode);
                assert_eq!(labels(&plan), want, "{scheme} {mode}");
                plan.run_batch_observed(&rgb, mode.needs_depth().then_some(&depth), &mut |l, d| {
                    profile.observe(l, d)
                })
                .expect("calibration pass");
                let plan = CompiledPlan::compile_int8(&net, &profile, int8).expect("int8 plan");
                assert_eq!(labels(&plan), want, "{scheme} {int8}");
            }
        }
    }

    #[test]
    fn every_stage_fuses_once_with_the_rgb_side_first() {
        let config = NetworkConfig::tiny();
        let mut rng = TensorRng::seed_from(6);
        let rgb = rng.uniform(&[1, 3, config.height, config.width], 0.0, 1.0);
        for scheme in FusionScheme::ALL {
            let mut net = FusionNet::new(scheme, &config).expect("valid config");
            // In the description: one fusion per stage, an RGB-branch value
            // summed with a depth-branch one.
            let arch = net.arch(true).clone();
            let mut fusions = Vec::new();
            for (i, node) in arch.nodes.iter().enumerate() {
                match node.op {
                    Op::Conv {
                        plus: Some(Plus::FuseRgb(r)),
                        ..
                    } => fusions.push((r, Val::Node(i))),
                    Op::Pool {
                        plus: Some(Plus::FuseDepth(d)),
                        ..
                    } => fusions.push((Val::Node(i), d)),
                    Op::MulAdd { r, d, .. } => fusions.push((r, d)),
                    _ => {}
                }
            }
            assert_eq!(fusions.len(), config.stages(), "{scheme}");
            for (i, &(r, d)) in fusions.iter().enumerate() {
                assert_eq!(arch.label(r), format!("enc{i}.rgb.pool"), "{scheme}");
                assert!(!arch.label(d).contains(".rgb."), "{scheme} stage {i}");
            }
            // In the graph: the first pair's RGB side cannot see the depth
            // input, its depth side must.
            let mut sides = Vec::new();
            for depth_level in [0.2, 0.9] {
                let mut g = Graph::new();
                let r = g.leaf(rgb.clone());
                let d = g.leaf(sf_tensor::Tensor::full(
                    &[1, 1, config.height, config.width],
                    depth_level,
                ));
                let out = net.forward(&mut g, r, d, Mode::Eval);
                assert_eq!(out.fusion_pairs.len(), config.stages(), "{scheme}");
                let (r0, d0) = out.fusion_pairs[0];
                sides.push((g.value(r0).clone(), g.value(d0).clone()));
            }
            assert_eq!(sides[0].0, sides[1].0, "{scheme}: RGB side first");
            assert_ne!(sides[0].1, sides[1].1, "{scheme}: depth side second");
        }
    }
}
