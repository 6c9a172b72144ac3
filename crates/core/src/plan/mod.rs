//! Compiled inference plans and the unified [`Predictor`] entry point.
//!
//! The graph path ([`FusionNet::forward`]) re-derives shapes, walks module
//! dispatch and loans scratch buffers from a free list on every call. For
//! inference none of that work depends on the input — only on the frozen
//! network — so a [`CompiledPlan`] does it once, ahead of time: a flat op
//! list with pre-computed shapes, fused epilogues, folded fusion sums and
//! a static scratch schedule with an exact peak-memory reservation.
//!
//! [`Predictor`] pairs a fused plan with a camera-only plan (the depth
//! branch dead-branch-eliminated) and applies a [`DegradationPolicy`] per
//! input — the one entry point the CLI, the evaluator and the serving
//! layer all share.
//!
//! Plans freeze the network's weights at compile time; recompile after
//! training steps. Outputs are bit-identical to the graph path in
//! `Mode::Eval` — a property the test suite pins down per fusion scheme.
//!
//! # Examples
//!
//! ```
//! use sf_core::{FusionNet, FusionScheme, NetworkConfig, Predictor};
//! use sf_tensor::TensorRng;
//!
//! let config = NetworkConfig::tiny();
//! let net = FusionNet::new(FusionScheme::AllFilterU, &config)?;
//! let mut predictor = Predictor::compile(&net);
//! let mut rng = TensorRng::seed_from(0);
//! let rgb = rng.uniform(&[3, config.height, config.width], 0.0, 1.0);
//! let depth = rng.uniform(&[1, config.height, config.width], 0.0, 1.0);
//! let prediction = predictor.run(&rgb, &depth)?;
//! assert_eq!(prediction.prob.shape(), &[config.height, config.width]);
//! assert!(prediction.quarantined.is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod compile;
mod exec;
mod quant;

pub use compile::{CompiledPlan, PlanMode};
pub use quant::{CalibrationProfile, QuantError, INPUT_DEPTH, INPUT_RGB};

use sf_tensor::{Tensor, TensorError};

use crate::health::{DegradationPolicy, HealthIssue, HealthThresholds};
use crate::network::FusionNet;

/// One input's result from [`Predictor::run`] or one slot's from
/// [`Predictor::run_slots`].
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Per-pixel road probability map, `[H, W]`.
    pub prob: Tensor,
    /// Why the depth input was quarantined, if it was (in which case
    /// `prob` came from the camera-only plan).
    pub quarantined: Option<HealthIssue>,
}

/// The unified inference entry point: a fused and a camera-only
/// [`CompiledPlan`] plus the degradation policy that routes between them.
///
/// Compile once per trained network, then feed it single frames
/// ([`run`](Predictor::run)) or request batches
/// ([`run_slots`](Predictor::run_slots)); both plans keep their scratch
/// arenas warm across calls.
#[derive(Debug)]
pub struct Predictor {
    fused: CompiledPlan,
    camera_only: CompiledPlan,
    policy: DegradationPolicy,
    thresholds: HealthThresholds,
}

impl Predictor {
    /// Freezes `net` into both plans with the default
    /// ([`DegradationPolicy::Trust`]) policy.
    pub fn compile(net: &FusionNet) -> Predictor {
        Predictor {
            fused: CompiledPlan::compile(net, PlanMode::Fused),
            camera_only: CompiledPlan::compile(net, PlanMode::CameraOnly),
            policy: DegradationPolicy::default(),
            thresholds: HealthThresholds::default(),
        }
    }

    /// Freezes `net` into an int8 predictor: both plans are lowered to
    /// quantized convolutions using the activation scales in `profile`
    /// (see [`CalibrationProfile`]). Routing, health screening and the
    /// fusion arithmetic stay identical to the f32 predictor — only the
    /// convolutions run in int8.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::MissingScale`] if the profile lacks a scale
    /// for any activation either plan quantizes — calibrate through both
    /// the fused and the camera-only plan (or merge their profiles).
    pub fn compile_int8(
        net: &FusionNet,
        profile: &CalibrationProfile,
    ) -> Result<Predictor, QuantError> {
        Ok(Predictor {
            fused: CompiledPlan::compile_int8(net, profile, PlanMode::Int8)?,
            camera_only: CompiledPlan::compile_int8(net, profile, PlanMode::Int8CameraOnly)?,
            policy: DegradationPolicy::default(),
            thresholds: HealthThresholds::default(),
        })
    }

    /// Returns this predictor with a different degradation policy.
    pub fn with_policy(mut self, policy: DegradationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns this predictor with different health thresholds.
    pub fn with_thresholds(mut self, thresholds: HealthThresholds) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// The degradation policy screening depth inputs.
    pub fn policy(&self) -> DegradationPolicy {
        self.policy
    }

    /// The health thresholds used by the policy.
    pub fn thresholds(&self) -> &HealthThresholds {
        &self.thresholds
    }

    /// The underlying plan for `mode` (e.g. for dumping its schedule).
    /// Int8 modes map onto the same two slots: a predictor holds either
    /// two f32 plans or two int8 plans, never a mix.
    pub fn plan(&self, mode: PlanMode) -> &CompiledPlan {
        if mode.needs_depth() {
            &self.fused
        } else {
            &self.camera_only
        }
    }

    /// Runs one frame pair: screens `depth` under the policy, routes to
    /// the fused or camera-only plan, and returns the `[H, W]`
    /// probability map with the quarantine verdict.
    ///
    /// `rgb` is `[3, H, W]`, `depth` is `[C, H, W]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if either input's shape is
    /// not the compiled geometry — under every policy, including the ones
    /// that would not have read the depth frame — and
    /// [`TensorError::NonFinite`] if `rgb` holds a NaN or an infinity: a
    /// bad depth frame has the camera-only plan to fall back to, a bad
    /// camera frame has nothing, and would come out as a NaN mask.
    pub fn run(&mut self, rgb: &Tensor, depth: &Tensor) -> Result<Prediction, TensorError> {
        self.check_frame("Predictor::run", rgb, depth)?;
        check_rgb_finite("Predictor::run", rgb)?;
        let issue = self.policy.quarantine_depth(depth, &self.thresholds);
        let (c, h, w) = self.fused.rgb_shape();
        let rgb_b = rgb.reshape(&[1, c, h, w])?;
        let probs = if issue.is_some() {
            self.camera_only.run_batch(&rgb_b, None)?
        } else {
            let (dc, dh, dw) = self.fused.depth_shape();
            let depth_b = depth.reshape(&[1, dc, dh, dw])?;
            self.fused.run_batch(&rgb_b, Some(&depth_b))?
        };
        Ok(Prediction {
            prob: probs.reshape(&[h, w])?,
            quarantined: issue,
        })
    }

    /// Refuses a frame pair whose rank or extents are not the compiled
    /// `[C, H, W]` geometry, before anything indexes into its shape.
    fn check_frame(
        &self,
        op: &'static str,
        rgb: &Tensor,
        depth: &Tensor,
    ) -> Result<(), TensorError> {
        let frames = [
            ("rgb", rgb, self.fused.rgb_shape()),
            ("depth", depth, self.fused.depth_shape()),
        ];
        for (name, frame, (c, h, w)) in frames {
            if frame.shape() != [c, h, w] {
                return Err(TensorError::InvalidGeometry {
                    op,
                    reason: format!("{name} must be [{c}, {h}, {w}], got {:?}", frame.shape()),
                });
            }
        }
        Ok(())
    }

    /// Batched counterpart of [`run`](Predictor::run): screens every
    /// slot's depth input, then executes at most one fused and one
    /// camera-only plan pass. Each slot's `rgb` is `[3, H, W]` and
    /// `depth` is `[C, H, W]`.
    ///
    /// Per-slot results are bit-identical to [`run`](Predictor::run) on
    /// that slot alone — batching never changes probabilities, which is
    /// what lets the serving layer coalesce requests freely.
    ///
    /// # Errors
    ///
    /// Returns an error if the slice lengths differ, slot shapes disagree
    /// with the compiled geometry, or any slot's `rgb` holds a NaN or an
    /// infinity ([`TensorError::NonFinite`], as in [`run`](Predictor::run)).
    pub fn run_slots(
        &mut self,
        rgb: &[&Tensor],
        depth: &[&Tensor],
    ) -> Result<Vec<Prediction>, TensorError> {
        if rgb.len() != depth.len() {
            return Err(TensorError::InvalidGeometry {
                op: "Predictor::run_slots",
                reason: format!("{} rgb slots vs {} depth slots", rgb.len(), depth.len()),
            });
        }
        for frame in rgb {
            check_rgb_finite("Predictor::run_slots", frame)?;
        }
        let issues: Vec<Option<HealthIssue>> = depth
            .iter()
            .map(|d| self.policy.quarantine_depth(d, &self.thresholds))
            .collect();
        self.run_slots_prejudged(rgb, depth, &issues)
    }

    /// Like [`run_slots`](Predictor::run_slots), but with the quarantine
    /// verdicts already decided per slot (`Some(issue)` routes that slot
    /// through the camera-only plan). This is the entry point for callers
    /// that layer extra routing on top of the per-input policy — the
    /// serving circuit breaker decides some slots fleet-wide and hands
    /// the merged verdicts down here. The camera frames count as judged
    /// too: this entry point does not screen them for non-finite values
    /// (the server does that once, when a request is submitted).
    ///
    /// # Errors
    ///
    /// Returns an error if the slice lengths disagree or slot shapes
    /// disagree with the compiled geometry.
    pub fn run_slots_prejudged(
        &mut self,
        rgb: &[&Tensor],
        depth: &[&Tensor],
        issues: &[Option<HealthIssue>],
    ) -> Result<Vec<Prediction>, TensorError> {
        if rgb.len() != depth.len() || rgb.len() != issues.len() {
            return Err(TensorError::InvalidGeometry {
                op: "Predictor::run_slots_prejudged",
                reason: format!(
                    "{} rgb slots vs {} depth slots vs {} verdicts",
                    rgb.len(),
                    depth.len(),
                    issues.len()
                ),
            });
        }
        for (r, d) in rgb.iter().zip(depth) {
            self.check_frame("Predictor::run_slots", r, d)?;
        }
        let mut slots: Vec<Option<Prediction>> = vec![None; rgb.len()];
        // At most one fused and one camera-only pass, in that order.
        for quarantined in [false, true] {
            let group: Vec<usize> = (0..rgb.len())
                .filter(|&i| issues[i].is_some() == quarantined)
                .collect();
            if group.is_empty() {
                continue;
            }
            let stack = |frames: &[&Tensor]| {
                Tensor::stack_refs(&group.iter().map(|&i| frames[i]).collect::<Vec<_>>())
            };
            let probs = if quarantined {
                self.camera_only.run_batch(&stack(rgb)?, None)?
            } else {
                self.fused.run_batch(&stack(rgb)?, Some(&stack(depth)?))?
            };
            let (h, w) = (probs.shape()[2], probs.shape()[3]);
            for (k, &i) in group.iter().enumerate() {
                slots[i] = Some(Prediction {
                    prob: probs.index_axis0(k).reshape(&[h, w])?,
                    quarantined: issues[i],
                });
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every slot lands in exactly one group"))
            .collect())
    }
}

/// Refuses a camera frame that holds a NaN or an infinity.
fn check_rgb_finite(op: &'static str, rgb: &Tensor) -> Result<(), TensorError> {
    if rgb.has_non_finite() {
        return Err(TensorError::NonFinite { op, input: "rgb" });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FusionScheme, NetworkConfig};
    use crate::trainer::{train, TrainConfig};
    use sf_autograd::Graph;
    use sf_dataset::{DatasetConfig, RoadDataset};
    use sf_nn::Mode;
    use sf_tensor::TensorRng;

    const ALL_SCHEMES: [FusionScheme; 5] = [
        FusionScheme::Baseline,
        FusionScheme::AllFilterU,
        FusionScheme::AllFilterB,
        FusionScheme::BaseSharing,
        FusionScheme::WeightedSharing,
    ];

    /// The unfused reference: graph forward in Eval mode plus sigmoid.
    fn graph_probs(net: &mut FusionNet, rgb: &Tensor, depth: Option<&Tensor>) -> Tensor {
        let mut g = Graph::new();
        let r = g.leaf(rgb.clone());
        let out = match depth {
            Some(d) => {
                let d = g.leaf(d.clone());
                net.forward(&mut g, r, d, Mode::Eval)
            }
            None => net.forward_camera_only(&mut g, r, Mode::Eval),
        };
        let prob = g.sigmoid(out.logits);
        g.value(prob).clone()
    }

    /// Warm the BatchNorm running statistics so the folded constants are
    /// non-trivial, then return the net.
    fn warmed_net(scheme: FusionScheme, config: &NetworkConfig, seed: u64) -> FusionNet {
        let mut net = FusionNet::new(scheme, config).expect("valid config");
        let mut rng = TensorRng::seed_from(seed);
        let rgb = rng.uniform(&[2, 3, config.height, config.width], 0.0, 1.0);
        let depth = rng.uniform(
            &[2, config.depth_channels, config.height, config.width],
            0.0,
            1.0,
        );
        let mut g = Graph::new();
        let r = g.leaf(rgb);
        let d = g.leaf(depth);
        net.forward(&mut g, r, d, Mode::Train);
        net
    }

    #[test]
    fn plan_matches_graph_bit_for_bit_across_schemes() {
        let config = NetworkConfig::tiny();
        for (s, scheme) in ALL_SCHEMES.into_iter().enumerate() {
            let mut net = warmed_net(scheme, &config, 40 + s as u64);
            let mut rng = TensorRng::seed_from(90 + s as u64);
            let mut fused = CompiledPlan::compile(&net, PlanMode::Fused);
            let mut camera = CompiledPlan::compile(&net, PlanMode::CameraOnly);
            for n in [1usize, 3] {
                let rgb = rng.uniform(&[n, 3, config.height, config.width], 0.0, 1.0);
                let depth = rng.uniform(
                    &[n, config.depth_channels, config.height, config.width],
                    0.0,
                    1.0,
                );
                let reference = graph_probs(&mut net, &rgb, Some(&depth));
                let got = fused.run_batch(&rgb, Some(&depth)).expect("fused plan");
                assert_eq!(got.shape(), reference.shape(), "{scheme} fused n={n}");
                assert_eq!(got.data(), reference.data(), "{scheme} fused n={n}");

                let reference = graph_probs(&mut net, &rgb, None);
                let got = camera.run_batch(&rgb, None).expect("camera-only plan");
                assert_eq!(got.data(), reference.data(), "{scheme} camera-only n={n}");
            }
        }
    }

    #[test]
    fn plan_survives_training_recompile() {
        // Weights are frozen at compile time: after more training the old
        // plan keeps its old outputs, and a recompile matches the graph.
        let config = NetworkConfig::tiny();
        let data = RoadDataset::generate(&DatasetConfig::tiny());
        let mut net = FusionNet::new(FusionScheme::Baseline, &config).expect("valid config");
        let mut rng = TensorRng::seed_from(17);
        let rgb = rng.uniform(&[1, 3, config.height, config.width], 0.0, 1.0);
        let depth = rng.uniform(
            &[1, config.depth_channels, config.height, config.width],
            0.0,
            1.0,
        );
        let mut stale = CompiledPlan::compile(&net, PlanMode::Fused);
        let before = stale.run_batch(&rgb, Some(&depth)).expect("plan runs");
        train(&mut net, &data.train(None), &TrainConfig::tiny());
        let after_stale = stale.run_batch(&rgb, Some(&depth)).expect("plan runs");
        assert_eq!(before.data(), after_stale.data(), "plans are frozen");
        let mut fresh = CompiledPlan::compile(&net, PlanMode::Fused);
        let got = fresh.run_batch(&rgb, Some(&depth)).expect("plan runs");
        let reference = graph_probs(&mut net, &rgb, Some(&depth));
        assert_eq!(got.data(), reference.data(), "recompile tracks training");
    }

    #[test]
    fn predictor_routes_by_policy() {
        let config = NetworkConfig::tiny();
        let mut net = warmed_net(FusionScheme::AllFilterU, &config, 21);
        let mut rng = TensorRng::seed_from(22);
        let rgb = rng.uniform(&[3, config.height, config.width], 0.0, 1.0);
        let depth = rng.uniform(
            &[config.depth_channels, config.height, config.width],
            0.0,
            1.0,
        );
        let dead = Tensor::zeros(depth.shape());
        let (h, w) = (config.height, config.width);

        let mut p = Predictor::compile(&net).with_policy(DegradationPolicy::CameraFallback);
        let healthy = p.run(&rgb, &depth).expect("healthy frame");
        assert_eq!(healthy.quarantined, None);
        let rgb_b = rgb.reshape(&[1, 3, h, w]).unwrap();
        let depth_b = depth.reshape(&[1, config.depth_channels, h, w]).unwrap();
        let reference = graph_probs(&mut net, &rgb_b, Some(&depth_b));
        assert_eq!(healthy.prob.data(), reference.data());

        let degraded = p.run(&rgb, &dead).expect("dead depth frame");
        assert_eq!(degraded.quarantined, Some(HealthIssue::ZeroEnergy));
        let reference = graph_probs(&mut net, &rgb_b, None);
        assert_eq!(degraded.prob.data(), reference.data());

        // CameraOnly policy forces the degraded path even on healthy depth.
        let mut p = Predictor::compile(&net).with_policy(DegradationPolicy::CameraOnly);
        let forced = p.run(&rgb, &depth).expect("forced camera-only");
        assert_eq!(forced.quarantined, Some(HealthIssue::ForcedCameraOnly));
        assert_eq!(forced.prob.data(), reference.data());
    }

    #[test]
    fn predictor_slots_match_single_runs() {
        let config = NetworkConfig::tiny();
        let net = warmed_net(FusionScheme::BaseSharing, &config, 31);
        let mut rng = TensorRng::seed_from(32);
        let frames: Vec<(Tensor, Tensor)> = (0..4)
            .map(|i| {
                let rgb = rng.uniform(&[3, config.height, config.width], 0.0, 1.0);
                let depth = if i == 2 {
                    Tensor::zeros(&[config.depth_channels, config.height, config.width])
                } else {
                    rng.uniform(
                        &[config.depth_channels, config.height, config.width],
                        0.0,
                        1.0,
                    )
                };
                (rgb, depth)
            })
            .collect();
        let rgb: Vec<&Tensor> = frames.iter().map(|(r, _)| r).collect();
        let depth: Vec<&Tensor> = frames.iter().map(|(_, d)| d).collect();
        let mut p = Predictor::compile(&net).with_policy(DegradationPolicy::CameraFallback);
        let slots = p.run_slots(&rgb, &depth).expect("slots run");
        assert_eq!(slots.len(), 4);
        for (i, ((r, d), slot)) in frames.iter().zip(&slots).enumerate() {
            let single = p.run(r, d).expect("single run");
            assert_eq!(slot.quarantined, single.quarantined, "slot {i}");
            assert_eq!(slot.quarantined.is_some(), i == 2, "only slot 2 degrades");
            assert_eq!(slot.prob.data(), single.prob.data(), "slot {i} bits");
        }
    }

    /// Every degenerate input shape is a typed error from every entry
    /// point under every policy — never a panic, and never a misleading
    /// reshape error (a rank-0 depth used to index out of bounds, a
    /// `[H, W]` one to read its channel count from the height).
    #[test]
    fn degenerate_shapes_are_typed_errors() {
        let config = NetworkConfig::tiny();
        let (h, w, dc) = (config.height, config.width, config.depth_channels);
        let net = warmed_net(FusionScheme::AllFilterU, &config, 33);
        let good_rgb = Tensor::full(&[3, h, w], 0.5);
        let good_depth = Tensor::full(&[dc, h, w], 0.5);
        let bad_shapes: [&[usize]; 9] = [
            &[],
            &[h * w],
            &[h, w],
            &[1, 3, h, w],
            &[1, dc, h, w],
            &[3, h, w + 1],
            &[3, h / 2, w],
            &[dc + 5, h, w],
            &[0, h, w],
        ];
        for policy in [
            DegradationPolicy::Trust,
            DegradationPolicy::CameraFallback,
            DegradationPolicy::CameraOnly,
        ] {
            let mut p = Predictor::compile(&net).with_policy(policy);
            p.run(&good_rgb, &good_depth).expect("the good pair runs");
            for shape in bad_shapes {
                // All-zero and all-one frames: one triage quarantines, one not.
                for fill in [0.0, 1.0] {
                    let bad = Tensor::full(shape, fill);
                    for (rgb, depth) in [(&bad, &good_depth), (&good_rgb, &bad)] {
                        let what =
                            format!("{policy} rgb {:?} depth {:?}", rgb.shape(), depth.shape());
                        let geometry = |r: Result<(), TensorError>| {
                            assert!(
                                matches!(r, Err(TensorError::InvalidGeometry { .. })),
                                "{what}: {r:?}"
                            );
                        };
                        geometry(p.run(rgb, depth).map(drop));
                        // In a batch the bad slot fails the call, whichever slot it is.
                        for (rgbs, depths) in [
                            ([rgb, &good_rgb], [depth, &good_depth]),
                            ([&good_rgb, rgb], [&good_depth, depth]),
                        ] {
                            geometry(p.run_slots(&rgbs, &depths).map(drop));
                            let verdicts = [None, Some(HealthIssue::ZeroEnergy)];
                            geometry(p.run_slots_prejudged(&rgbs, &depths, &verdicts).map(drop));
                        }
                    }
                }
            }
        }
    }

    fn same_bits(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// One hostile frame in a batch of 8 — NaN, ±Inf, denormal or all-zero,
    /// on the RGB or the depth side — never panics, is judged and masked
    /// exactly as `Predictor::run` judges and masks it alone, and leaves
    /// the other seven masks bit-identical to their own single runs: f32
    /// and int8, every policy, the hostile slot first (the caller's first
    /// image), second (a worker's first), mid-batch and last. A non-finite
    /// *camera* frame has no plan to fall back to: alone or in any slot it
    /// is a typed refusal. And no mask that does come out holds a NaN or
    /// an infinity — except under `Trust`, which is the caller's word that
    /// the depth frame needs no screening.
    #[test]
    fn a_hostile_frame_stays_in_its_slot() {
        let config = NetworkConfig::tiny();
        let (h, w, dc) = (config.height, config.width, config.depth_channels);
        let net = warmed_net(FusionScheme::WeightedSharing, &config, 101);
        let profile = calibrated_profile(&net, &config, 102);
        let mut rng = TensorRng::seed_from(103);
        let frames: Vec<(Tensor, Tensor)> = (0..8)
            .map(|_| {
                (
                    rng.uniform(&[3, h, w], 0.0, 1.0),
                    rng.uniform(&[dc, h, w], 0.1, 1.0),
                )
            })
            .collect();
        let positions = [0usize, 1, 4, 7];
        let hostile = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-42, 0.0];
        for int8 in [false, true] {
            for policy in [
                DegradationPolicy::Trust,
                DegradationPolicy::CameraFallback,
                DegradationPolicy::CameraOnly,
            ] {
                let compile = || match int8 {
                    false => Predictor::compile(&net),
                    true => Predictor::compile_int8(&net, &profile).expect("int8 predictor"),
                };
                let mut batched = compile().with_policy(policy);
                let mut single = compile().with_policy(policy);
                let alone: Vec<Prediction> = frames
                    .iter()
                    .map(|(r, d)| single.run(r, d).expect("a healthy frame runs"))
                    .collect();
                for value in hostile {
                    for on_depth in [false, true] {
                        let bad = match on_depth {
                            false => (Tensor::full(&[3, h, w], value), frames[0].1.clone()),
                            true => (frames[0].0.clone(), Tensor::full(&[dc, h, w], value)),
                        };
                        let slots = |at: usize| -> (Vec<&Tensor>, Vec<&Tensor>) {
                            let slot = |i: usize| if i == at { &bad } else { &frames[i] };
                            (0..8).map(|i| (&slot(i).0, &slot(i).1)).unzip()
                        };
                        if !on_depth && !value.is_finite() {
                            let refused = |r: Result<(), TensorError>, what: &str| {
                                assert!(
                                    matches!(r, Err(TensorError::NonFinite { input: "rgb", .. })),
                                    "{what}: {r:?}"
                                );
                            };
                            let what = format!("int8={int8} {policy} rgb of {value}");
                            refused(single.run(&bad.0, &bad.1).map(drop), &what);
                            for at in positions {
                                let (rgb, depth) = slots(at);
                                refused(batched.run_slots(&rgb, &depth).map(drop), &what);
                            }
                            continue;
                        }
                        let bad_alone = single.run(&bad.0, &bad.1).expect("no panic, no error");
                        if on_depth && policy == DegradationPolicy::CameraFallback {
                            let want = match value {
                                v if !v.is_finite() => Some(HealthIssue::NonFinite),
                                v if v.abs() < 1e-30 => Some(HealthIssue::ZeroEnergy),
                                _ => None,
                            };
                            assert_eq!(bad_alone.quarantined, want, "depth of {value}");
                        }
                        let trusted = on_depth && policy == DegradationPolicy::Trust;
                        for at in positions {
                            let what = format!(
                                "int8={int8} {policy} {value} on {} at slot {at}",
                                if on_depth { "depth" } else { "rgb" }
                            );
                            let (rgb, depth) = slots(at);
                            let got = batched.run_slots(&rgb, &depth).expect(&what);
                            for (i, got) in got.iter().enumerate() {
                                let want = if i == at { &bad_alone } else { &alone[i] };
                                assert_eq!(got.quarantined, want.quarantined, "{what}: slot {i}");
                                assert!(same_bits(&got.prob, &want.prob), "{what}: slot {i}");
                                assert!(
                                    (trusted && i == at) || !got.prob.has_non_finite(),
                                    "{what}: slot {i} is served a non-finite mask"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Calibrates `net` on a couple of seeded frames through both f32
    /// plans, merged so one profile covers fused and camera-only.
    fn calibrated_profile(
        net: &FusionNet,
        config: &NetworkConfig,
        seed: u64,
    ) -> CalibrationProfile {
        let mut rng = TensorRng::seed_from(seed);
        let rgb = rng.uniform(&[2, 3, config.height, config.width], 0.0, 1.0);
        let depth = rng.uniform(
            &[2, config.depth_channels, config.height, config.width],
            0.0,
            1.0,
        );
        let mut profile = CalibrationProfile::new();
        let mut fused = CompiledPlan::compile(net, PlanMode::Fused);
        fused
            .run_batch_observed(&rgb, Some(&depth), &mut |label, data| {
                profile.observe(label, data);
            })
            .expect("calibration pass");
        let mut camera = CompiledPlan::compile(net, PlanMode::CameraOnly);
        let mut cam_profile = CalibrationProfile::new();
        camera
            .run_batch_observed(&rgb, None, &mut |label, data| {
                cam_profile.observe(label, data);
            })
            .expect("camera calibration pass");
        profile.merge_max(&cam_profile);
        profile
    }

    #[test]
    fn int8_plan_tracks_f32_and_reproduces_bit_for_bit() {
        let config = NetworkConfig::tiny();
        for (s, scheme) in ALL_SCHEMES.into_iter().enumerate() {
            let net = warmed_net(scheme, &config, 60 + s as u64);
            let profile = calibrated_profile(&net, &config, 160 + s as u64);
            let mut rng = TensorRng::seed_from(260 + s as u64);
            let rgb = rng.uniform(&[2, 3, config.height, config.width], 0.0, 1.0);
            let depth = rng.uniform(
                &[2, config.depth_channels, config.height, config.width],
                0.0,
                1.0,
            );

            let mut f32_plan = CompiledPlan::compile(&net, PlanMode::Fused);
            let want = f32_plan.run_batch(&rgb, Some(&depth)).expect("f32 plan");
            let mut q =
                CompiledPlan::compile_int8(&net, &profile, PlanMode::Int8).expect("int8 compile");
            let got = q.run_batch(&rgb, Some(&depth)).expect("int8 plan");
            assert_eq!(got.shape(), want.shape(), "{scheme}");

            // Probabilities agree to quantization noise: per-pixel road
            // classification at 0.5 matches on nearly every pixel.
            let total = want.data().len();
            let agree = got
                .data()
                .iter()
                .zip(want.data())
                .filter(|(g, w)| (**g >= 0.5) == (**w >= 0.5))
                .count();
            assert!(
                agree as f64 >= 0.95 * total as f64,
                "{scheme}: only {agree}/{total} pixels agree"
            );

            // i32 accumulation is exactly associative: reruns and
            // recompiles are bit-identical.
            let again = q.run_batch(&rgb, Some(&depth)).expect("int8 rerun");
            assert_eq!(got.data(), again.data(), "{scheme} rerun");
            let mut q2 =
                CompiledPlan::compile_int8(&net, &profile, PlanMode::Int8).expect("int8 recompile");
            let fresh = q2
                .run_batch(&rgb, Some(&depth))
                .expect("int8 recompile run");
            assert_eq!(got.data(), fresh.data(), "{scheme} recompile");
        }
    }

    #[test]
    fn int8_predictor_routes_like_f32() {
        let config = NetworkConfig::tiny();
        let net = warmed_net(FusionScheme::WeightedSharing, &config, 71);
        let profile = calibrated_profile(&net, &config, 72);
        let mut rng = TensorRng::seed_from(73);
        let rgb = rng.uniform(&[3, config.height, config.width], 0.0, 1.0);
        let depth = rng.uniform(
            &[config.depth_channels, config.height, config.width],
            0.0,
            1.0,
        );
        let mut p = Predictor::compile_int8(&net, &profile)
            .expect("int8 predictor")
            .with_policy(DegradationPolicy::CameraFallback);
        let healthy = p.run(&rgb, &depth).expect("healthy frame");
        assert_eq!(healthy.quarantined, None);
        let dead = Tensor::zeros(depth.shape());
        let degraded = p.run(&rgb, &dead).expect("dead depth frame");
        assert_eq!(degraded.quarantined, Some(HealthIssue::ZeroEnergy));
        assert_ne!(healthy.prob.data(), degraded.prob.data());
        // plan() maps int8 modes onto the same two slots.
        assert!(p.plan(PlanMode::Int8).to_string().contains("int8"));
        assert!(p
            .plan(PlanMode::Int8CameraOnly)
            .to_string()
            .contains("int8-camera-only"));
    }

    #[test]
    fn int8_weight_bytes_shrink_4x() {
        let config = NetworkConfig::tiny();
        let net = warmed_net(FusionScheme::Baseline, &config, 91);
        let profile = calibrated_profile(&net, &config, 92);
        let f32_plan = CompiledPlan::compile(&net, PlanMode::Fused);
        let q = CompiledPlan::compile_int8(&net, &profile, PlanMode::Int8).expect("int8 plan");
        let fb = f32_plan.weight_bytes();
        let qb = q.weight_bytes();
        assert!(
            qb * 3 < fb && qb * 5 > fb,
            "int8 weights {qb} bytes vs f32 {fb} — expected ≈4x shrink"
        );
    }

    #[test]
    fn int8_compile_requires_matching_mode_and_full_profile() {
        let config = NetworkConfig::tiny();
        let net = warmed_net(FusionScheme::AllFilterU, &config, 95);
        let profile = calibrated_profile(&net, &config, 96);
        // f32 mode through the int8 entry point is a typed error.
        let err = CompiledPlan::compile_int8(&net, &profile, PlanMode::Fused).unwrap_err();
        assert!(matches!(err, QuantError::NotAnInt8Mode(_)), "{err}");
        // An empty profile has no scale for the first conv's input.
        let err = CompiledPlan::compile_int8(&net, &CalibrationProfile::new(), PlanMode::Int8)
            .unwrap_err();
        assert!(matches!(err, QuantError::MissingScale(_)), "{err}");
        assert!(err.to_string().contains("input.rgb"), "{err}");
    }

    #[test]
    #[should_panic(expected = "calibration profile")]
    fn f32_compile_rejects_int8_modes() {
        let config = NetworkConfig::tiny();
        let net = warmed_net(FusionScheme::Baseline, &config, 97);
        let _ = CompiledPlan::compile(&net, PlanMode::Int8);
    }

    #[test]
    fn observed_run_matches_plain_run_and_covers_labels() {
        let config = NetworkConfig::tiny();
        let net = warmed_net(FusionScheme::WeightedSharing, &config, 98);
        let mut rng = TensorRng::seed_from(99);
        let rgb = rng.uniform(&[1, 3, config.height, config.width], 0.0, 1.0);
        let depth = rng.uniform(
            &[1, config.depth_channels, config.height, config.width],
            0.0,
            1.0,
        );
        let mut plan = CompiledPlan::compile(&net, PlanMode::Fused);
        let want = plan.run_batch(&rgb, Some(&depth)).expect("plain run");
        let mut labels = Vec::new();
        let got = plan
            .run_batch_observed(&rgb, Some(&depth), &mut |label, data| {
                assert!(!data.is_empty(), "{label} observed empty");
                labels.push(label.to_string());
            })
            .expect("observed run");
        assert_eq!(got.data(), want.data(), "observation is a pure tap");
        assert_eq!(labels[0], INPUT_RGB);
        assert_eq!(labels[1], INPUT_DEPTH);
        assert!(labels.iter().any(|l| l == "enc0.rgb.conv"), "{labels:?}");
        assert!(labels.iter().any(|l| l == "head"), "{labels:?}");
    }

    #[test]
    fn plan_rejects_bad_shapes() {
        let config = NetworkConfig::tiny();
        let net = warmed_net(FusionScheme::Baseline, &config, 41);
        let mut plan = CompiledPlan::compile(&net, PlanMode::Fused);
        let mut rng = TensorRng::seed_from(42);
        let rgb = rng.uniform(&[1, 3, config.height, config.width], 0.0, 1.0);
        let bad_depth = rng.uniform(&[1, config.depth_channels, 2, 2], 0.0, 1.0);
        assert!(plan.run_batch(&rgb, None).is_err(), "fused needs depth");
        assert!(plan.run_batch(&rgb, Some(&bad_depth)).is_err());
        let bad_rgb = rng.uniform(&[1, 1, config.height, config.width], 0.0, 1.0);
        assert!(plan.run_batch(&bad_rgb, None).is_err());
    }

    #[test]
    fn dump_lists_ops_and_schedule() {
        let config = NetworkConfig::tiny();
        let net = warmed_net(FusionScheme::WeightedSharing, &config, 51);
        let plan = CompiledPlan::compile(&net, PlanMode::Fused);
        let dump = plan.to_string();
        assert!(dump.contains("op list:"), "{dump}");
        assert!(dump.contains("scratch schedule"), "{dump}");
        assert!(dump.contains("fuse2.awn"), "{dump}");
        assert!(dump.contains("sigmoid"), "{dump}");
        // Camera-only plans eliminate the depth branch entirely.
        let camera = CompiledPlan::compile(&net, PlanMode::CameraOnly);
        assert!(camera.op_count() < plan.op_count());
        assert!(!camera.to_string().contains("depth"), "dead branch gone");
    }
}
