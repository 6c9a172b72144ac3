//! One module per paper artefact, each with a structured `run` function
//! and a text `render` mirroring the paper's presentation.

pub mod chaos;
pub mod fault_matrix;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod quant;
pub mod robustness;
pub mod serving;
pub mod sne;
pub mod soak;
pub mod table1;

use sf_chaos::{Report, Scenario};
use sf_core::{evaluate, train, EvalOptions, FusionNet, FusionScheme, TrainReport};
use sf_dataset::{RoadDataset, SegmentationEval};
use sf_scene::RoadCategory;

use crate::ExperimentScale;

/// The cell-runner the chaos, fleet and soak sweeps share: runs `scenario`
/// twice through the one chaos engine and returns the first report plus
/// whether the second run replayed to the identical fingerprint.
///
/// # Panics
///
/// Panics, naming `cell`, if either run breaks an engine invariant (lost
/// request, non-conservation, reconciliation mismatch, scene contract,
/// arena growth, breaker off schedule) — those are correctness failures,
/// not measurements.
pub fn run_cell(cell: &str, scenario: &Scenario) -> (Report, bool) {
    let (report, diverged) = sf_chaos::run_twice(scenario)
        .unwrap_or_else(|e| panic!("{cell} violated a chaos-engine invariant: {e}"));
    (report, diverged.is_none())
}

/// Everything an experiment needs: dataset, camera and recipes.
#[derive(Debug)]
pub struct Bundle {
    /// The generated dataset at the experiment scale.
    pub data: RoadDataset,
    /// Scale the bundle was built for.
    pub scale: ExperimentScale,
}

impl Bundle {
    /// Generates the dataset for `scale`.
    pub fn new(scale: ExperimentScale) -> Bundle {
        Bundle {
            data: RoadDataset::generate(&scale.dataset_config()),
            scale,
        }
    }

    /// Trains a fresh model of `scheme` on the full training split with
    /// the Feature-Disparity loss weight `alpha`.
    pub fn train_scheme(&self, scheme: FusionScheme, alpha: f32) -> (FusionNet, TrainReport) {
        let mut net = FusionNet::new(scheme, &self.scale.network_config()).expect("valid config");
        let config = self.scale.train_config().with_alpha(alpha);
        let samples = self.data.train(None);
        let report = train(&mut net, &samples, &config);
        (net, report)
    }

    /// BEV evaluation on one category's test split.
    pub fn eval_category(&self, net: &mut FusionNet, category: RoadCategory) -> SegmentationEval {
        let samples = self.data.test(Some(category));
        let camera = self.data.config().camera();
        evaluate(net, &samples, &camera, &EvalOptions::default())
    }

    /// BEV evaluation pooled over all categories.
    pub fn eval_all(&self, net: &mut FusionNet) -> SegmentationEval {
        let samples = self.data.test(None);
        let camera = self.data.config().camera();
        evaluate(net, &samples, &camera, &EvalOptions::default())
    }
}
