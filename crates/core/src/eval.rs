//! Model evaluation in the KITTI style: predict probability maps,
//! optionally warp to bird's-eye view, and compute the benchmark metrics.
//!
//! Evaluation routes every forward pass through a compiled
//! [`Predictor`]: the network is frozen once per evaluation and each
//! sample's depth input is screened by the [`DegradationPolicy`] in
//! [`EvalOptions`], with quarantined inputs running the camera-only plan
//! instead of fusing a broken sensor. [`evaluate_with_report`]
//! additionally reports which samples were quarantined and why.

use sf_dataset::{bev_warp, BevGrid, Sample, SegmentationEval};
use sf_scene::PinholeCamera;
use sf_tensor::Tensor;
use sf_vision::GrayImage;

use crate::health::{DegradationPolicy, HealthIssue, HealthThresholds};
use crate::network::FusionNet;
use crate::plan::Predictor;

/// Evaluation options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// Evaluate in bird's-eye view (as the KITTI server does) instead of
    /// image space.
    pub bev: bool,
    /// The BEV grid to use when `bev` is set.
    pub grid: BevGrid,
    /// What to do about unhealthy depth inputs. The default
    /// ([`DegradationPolicy::Trust`]) preserves the pre-fault-model
    /// behavior exactly.
    pub policy: DegradationPolicy,
    /// What counts as an unhealthy input under the policy.
    pub thresholds: HealthThresholds,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            bev: true,
            grid: BevGrid::default(),
            policy: DegradationPolicy::default(),
            thresholds: HealthThresholds::default(),
        }
    }
}

impl EvalOptions {
    /// Returns a copy with a different degradation policy.
    pub fn with_policy(mut self, policy: DegradationPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Which inputs an evaluation quarantined, per sample.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Number of samples evaluated.
    pub evaluated: usize,
    /// `(sample_index, reason)` for every quarantined depth input.
    pub quarantined: Vec<(usize, HealthIssue)>,
}

impl DegradationReport {
    /// Number of quarantined depth inputs.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }
}

/// Runs `net` on one sample and returns the per-pixel road probability
/// map (sigmoid of the logits). Inputs are trusted; compile a
/// [`Predictor`] with a policy to screen the depth sensor first (and to
/// amortise compilation across many frames).
pub fn predict_probability(net: &FusionNet, sample: &Sample) -> GrayImage {
    let mut predictor = Predictor::compile(net);
    let prediction = predictor
        .run(&sample.rgb, &sample.depth)
        .expect("sample matches the network's geometry");
    GrayImage::from_tensor(&prediction.prob)
}

/// Evaluates `net` over `samples`, pooling pixels across all of them
/// (exactly how the KITTI server pools a category's test frames).
pub fn evaluate(
    net: &FusionNet,
    samples: &[&Sample],
    camera: &PinholeCamera,
    options: &EvalOptions,
) -> SegmentationEval {
    evaluate_with_report(net, samples, camera, options).0
}

/// Like [`evaluate`], but also reports which samples' depth inputs were
/// quarantined by the degradation policy.
///
/// The network is compiled into a [`Predictor`] once and every sample
/// runs through its plans — shape derivation, module dispatch and scratch
/// placement are paid a single time per evaluation.
pub fn evaluate_with_report(
    net: &FusionNet,
    samples: &[&Sample],
    camera: &PinholeCamera,
    options: &EvalOptions,
) -> (SegmentationEval, DegradationReport) {
    let predictor = Predictor::compile(net)
        .with_policy(options.policy)
        .with_thresholds(options.thresholds);
    evaluate_with_predictor(predictor, samples, camera, options)
}

/// Evaluates an already-compiled [`Predictor`] over `samples` — the entry
/// point for callers that compile the predictor themselves, e.g. int8
/// plans via [`Predictor::compile_int8`]. The predictor's own policy and
/// thresholds route each sample; `options` only controls the metric space
/// (BEV vs image).
pub fn evaluate_with_predictor(
    mut predictor: Predictor,
    samples: &[&Sample],
    camera: &PinholeCamera,
    options: &EvalOptions,
) -> (SegmentationEval, DegradationReport) {
    let mut prob_maps = Vec::with_capacity(samples.len());
    let mut gt_maps = Vec::with_capacity(samples.len());
    let mut report = DegradationReport {
        evaluated: samples.len(),
        ..DegradationReport::default()
    };
    for (index, sample) in samples.iter().enumerate() {
        let prediction = predictor
            .run(&sample.rgb, &sample.depth)
            .expect("sample matches the network's geometry");
        let prob = GrayImage::from_tensor(&prediction.prob);
        if let Some(issue) = prediction.quarantined {
            report.quarantined.push((index, issue));
        }
        let gt = gray_from_chw(&sample.gt);
        if options.bev {
            prob_maps.push(bev_warp(&prob, camera, &options.grid));
            gt_maps.push(bev_warp(&gt, camera, &options.grid));
        } else {
            prob_maps.push(prob);
            gt_maps.push(gt);
        }
    }
    let pairs: Vec<(&GrayImage, &GrayImage)> = prob_maps.iter().zip(gt_maps.iter()).collect();
    (SegmentationEval::from_pairs(&pairs), report)
}

fn gray_from_chw(t: &Tensor) -> GrayImage {
    let (h, w) = (t.shape()[1], t.shape()[2]);
    GrayImage::from_tensor(&t.reshape(&[h, w]).expect("mask is [1,H,W]"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FusionScheme, NetworkConfig};
    use crate::trainer::{train, TrainConfig};
    use sf_dataset::{DatasetConfig, RoadDataset};

    fn net_config() -> NetworkConfig {
        NetworkConfig {
            width: 48,
            height: 16,
            stage_channels: vec![4, 6, 8],
            shared_stages: 1,
            depth_channels: 1,
            seed: 1,
        }
    }

    #[test]
    fn probability_maps_are_valid() {
        let data = RoadDataset::generate(&DatasetConfig::tiny());
        let net = FusionNet::new(FusionScheme::Baseline, &net_config()).expect("valid config");
        let sample = data.test(None)[0];
        let prob = predict_probability(&net, sample);
        assert_eq!(prob.width(), 48);
        assert_eq!(prob.height(), 16);
        assert!(prob.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn trained_model_beats_untrained() {
        let dataset_config = DatasetConfig {
            train_per_category: 8,
            test_per_category: 4,
            ..DatasetConfig::tiny()
        };
        let data = RoadDataset::generate(&dataset_config);
        let camera = dataset_config.camera();
        let options = EvalOptions::default();

        let untrained =
            FusionNet::new(FusionScheme::Baseline, &net_config()).expect("valid config");
        let test = data.test(None);
        let before = evaluate(&untrained, &test, &camera, &options);

        let mut trained =
            FusionNet::new(FusionScheme::Baseline, &net_config()).expect("valid config");
        let train_samples = data.train(None);
        let config = TrainConfig {
            epochs: 12,
            ..TrainConfig::tiny()
        };
        train(&mut trained, &train_samples, &config);
        let after = evaluate(&trained, &test, &camera, &options);
        assert!(
            after.f_score > before.f_score + 5.0,
            "training should help: before {:.2}, after {:.2}",
            before.f_score,
            after.f_score
        );
        assert!(after.f_score > 62.0, "trained F-score {:.2}", after.f_score);
    }

    #[test]
    fn image_space_eval_also_works() {
        let data = RoadDataset::generate(&DatasetConfig::tiny());
        let camera = data.config().camera();
        let net = FusionNet::new(FusionScheme::Baseline, &net_config()).expect("valid config");
        let test = data.test(None);
        let eval = evaluate(
            &net,
            &test[..2],
            &camera,
            &EvalOptions {
                bev: false,
                ..EvalOptions::default()
            },
        );
        // Untrained nets still produce *some* numbers in [0, 100].
        for v in eval.as_row() {
            assert!((0.0..=100.0).contains(&v), "metric {v}");
        }
    }

    #[test]
    fn fallback_on_dead_depth_matches_explicit_camera_only() {
        let data = RoadDataset::generate(&DatasetConfig::tiny());
        let camera = data.config().camera();
        let net = FusionNet::new(FusionScheme::AllFilterU, &net_config()).expect("valid config");
        let test = data.test(None);
        // Kill every depth input outright.
        let dead: Vec<Sample> = test
            .iter()
            .map(|s| Sample {
                depth: Tensor::zeros(s.depth.shape()),
                ..(*s).clone()
            })
            .collect();
        let dead_refs: Vec<&Sample> = dead.iter().collect();
        let fallback = EvalOptions::default().with_policy(DegradationPolicy::CameraFallback);
        let (with_fallback, report) = evaluate_with_report(&net, &dead_refs, &camera, &fallback);
        assert_eq!(report.evaluated, dead_refs.len());
        assert_eq!(report.quarantined_count(), dead_refs.len());
        assert!(report
            .quarantined
            .iter()
            .all(|&(_, issue)| issue == HealthIssue::ZeroEnergy));
        // The explicit camera-only reference on the same scenes.
        let camera_only = EvalOptions::default().with_policy(DegradationPolicy::CameraOnly);
        let reference = evaluate(&net, &test, &camera, &camera_only);
        assert!(
            (with_fallback.f_score - reference.f_score).abs() < 1e-6,
            "fallback {} vs camera-only {}",
            with_fallback.f_score,
            reference.f_score
        );
    }

    #[test]
    fn slot_predictions_match_single_sample_path_exactly() {
        let data = RoadDataset::generate(&DatasetConfig::tiny());
        let net = FusionNet::new(FusionScheme::AllFilterU, &net_config()).expect("valid config");
        let test = data.test(None);
        let mut samples: Vec<Sample> = test.iter().take(4).map(|s| (*s).clone()).collect();
        // Kill one depth input so the batch mixes fused and camera-only.
        samples[2].depth = Tensor::zeros(samples[2].depth.shape());
        let rgb: Vec<&Tensor> = samples.iter().map(|s| &s.rgb).collect();
        let depth: Vec<&Tensor> = samples.iter().map(|s| &s.depth).collect();
        let thresholds = HealthThresholds::default();
        let mut predictor = Predictor::compile(&net)
            .with_policy(DegradationPolicy::CameraFallback)
            .with_thresholds(thresholds);
        let slots = predictor.run_slots(&rgb, &depth).expect("consistent slots");
        assert_eq!(slots.len(), 4);
        for (i, (slot, sample)) in slots.iter().zip(&samples).enumerate() {
            let reference = predictor
                .run(&sample.rgb, &sample.depth)
                .expect("sample matches the network's geometry");
            assert_eq!(
                slot.quarantined, reference.quarantined,
                "slot {i} quarantine verdict"
            );
            assert_eq!(
                slot.quarantined.is_some(),
                i == 2,
                "only the dead slot quarantines"
            );
            // Eval-mode BatchNorm uses frozen stats, so batching must be
            // bit-identical to the one-sample path.
            assert_eq!(
                slot.prob.data(),
                reference.prob.data(),
                "slot {i} probabilities"
            );
        }
    }

    #[test]
    fn slot_prediction_rejects_mismatched_lengths() {
        let data = RoadDataset::generate(&DatasetConfig::tiny());
        let net = FusionNet::new(FusionScheme::Baseline, &net_config()).expect("valid config");
        let sample = data.test(None)[0];
        let mut predictor = Predictor::compile(&net);
        let err = predictor.run_slots(&[&sample.rgb], &[]);
        assert!(err.is_err());
    }

    #[test]
    fn trust_policy_never_quarantines() {
        let data = RoadDataset::generate(&DatasetConfig::tiny());
        let camera = data.config().camera();
        let net = FusionNet::new(FusionScheme::Baseline, &net_config()).expect("valid config");
        let test = data.test(None);
        let (_, report) = evaluate_with_report(&net, &test[..2], &camera, &EvalOptions::default());
        assert_eq!(report.evaluated, 2);
        assert_eq!(report.quarantined_count(), 0);
    }

    #[test]
    fn healthy_inputs_are_not_quarantined_by_fallback() {
        let data = RoadDataset::generate(&DatasetConfig::tiny());
        let camera = data.config().camera();
        let net = FusionNet::new(FusionScheme::Baseline, &net_config()).expect("valid config");
        let test = data.test(None);
        let fallback = EvalOptions::default().with_policy(DegradationPolicy::CameraFallback);
        let (with_policy, report) = evaluate_with_report(&net, &test, &camera, &fallback);
        assert_eq!(report.quarantined_count(), 0, "healthy depth must fuse");
        // With nothing quarantined the result is identical to trust.
        let trusted = evaluate(&net, &test, &camera, &EvalOptions::default());
        assert_eq!(with_policy, trusted);
    }
}
