//! The paper's contribution: DCNN camera/LiDAR middle-fusion
//! architectures for free-road segmentation, with the three proposed
//! techniques —
//!
//! 1. **Fusion-filter** (Eq. 2): a learned bias-free `1×1` convolution
//!    applied to the depth feature maps before the element-wise sum into
//!    the RGB branch, unidirectional ([`FusionScheme::AllFilterU`]) or
//!    bidirectional ([`FusionScheme::AllFilterB`]);
//! 2. **Layer-sharing**: the deepest encoder stage shares one filter set
//!    between both branches ([`FusionScheme::BaseSharing`]), optionally
//!    weighted per input by an Auxiliary Weight Network
//!    ([`FusionScheme::WeightedSharing`]);
//! 3. **Feature Disparity loss** (Eq. 3): a differentiable edge-based
//!    disparity term added to the segmentation loss with weight `α`.
//!
//! The element-wise-sum two-branch encoder–decoder
//! ([`FusionScheme::Baseline`]) mirrors RoadSeg, the paper's baseline.
//!
//! # Examples
//!
//! ```
//! use sf_core::{FusionNet, FusionScheme, NetworkConfig};
//! use sf_autograd::Graph;
//! use sf_nn::Mode;
//! use sf_tensor::TensorRng;
//!
//! let config = NetworkConfig::tiny();
//! let mut net = FusionNet::new(FusionScheme::AllFilterU, &config)?;
//! let mut rng = TensorRng::seed_from(0);
//! let mut g = Graph::new();
//! let rgb = g.leaf(rng.uniform(&[1, 3, config.height, config.width], 0.0, 1.0));
//! let depth = g.leaf(rng.uniform(&[1, 1, config.height, config.width], 0.0, 1.0));
//! let out = net.forward(&mut g, rgb, depth, Mode::Eval);
//! assert_eq!(g.value(out.logits).shape(), &[1, 1, config.height, config.width]);
//! assert_eq!(out.fusion_pairs.len(), config.stage_channels.len());
//! # Ok::<(), sf_core::ConfigError>(())
//! ```

// The crate's only `unsafe` sites (the per-image workspace regions of
// `plan::exec`) must each argue their soundness.
#![deny(clippy::undocumented_unsafe_blocks)]

mod arch;
mod awn;
mod checkpoint;
mod config;
mod eval;
mod fd_loss;
mod health;
mod network;
mod plan;
mod probe;
mod stage;
mod trainer;

pub use awn::AuxiliaryWeightNetwork;
pub use checkpoint::{
    load_checkpoint, load_checkpoint_full, manifest, parse_manifest, save_checkpoint,
    save_quantized_checkpoint, scheme_code, scheme_from_code, CheckpointError, LoadedCheckpoint,
};
pub use config::{ConfigError, FusionScheme, NetworkConfig, NetworkConfigBuilder};
pub use eval::{
    evaluate, evaluate_with_predictor, evaluate_with_report, predict_probability,
    DegradationReport, EvalOptions,
};
pub use fd_loss::{fd_loss, fd_loss_raw};
pub use health::{
    BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker, DegradationPolicy, DepthRoute,
    HealthIssue, HealthThresholds, InputHealth,
};
pub use network::{ForwardOutput, FusionNet};
pub use plan::{
    CalibrationProfile, CompiledPlan, PlanMode, Prediction, Predictor, QuantError, INPUT_DEPTH,
    INPUT_RGB,
};
pub use probe::{measure_disparity, measure_disparity_with_null};
pub use trainer::{train, LrSchedule, OptimizerKind, RecoveryEvent, TrainConfig, TrainReport};

// Canonical error/result types for the whole stack live in `sf_tensor`;
// re-exported here so downstream crates need only one import.
pub use sf_tensor::{Result, TensorError};
