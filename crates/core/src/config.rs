//! Architecture configuration and the model zoo enumeration.

/// Why a [`NetworkConfig`] failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `stage_channels` is empty.
    NoStages,
    /// Input resolution is not divisible by the total down-sampling
    /// factor `2^stages`.
    ResolutionNotDivisible {
        /// Configured input width.
        width: usize,
        /// Configured input height.
        height: usize,
        /// Number of encoder stages.
        stages: usize,
        /// The required divisor, `2^stages`.
        factor: usize,
    },
    /// The resolution collapses to zero before the deepest stage.
    ResolutionTooSmall {
        /// Configured input width.
        width: usize,
        /// Configured input height.
        height: usize,
        /// Number of encoder stages.
        stages: usize,
    },
    /// `shared_stages` is outside `1..stages`.
    SharedStagesOutOfRange {
        /// Configured number of shared deep stages.
        shared_stages: usize,
        /// Number of encoder stages.
        stages: usize,
    },
    /// `depth_channels` is zero.
    NoDepthChannels,
    /// A stage has zero output channels.
    ZeroStageWidth {
        /// Index of the first zero-width stage.
        stage: usize,
    },
    /// So many stages that the down-sampling factor `2^stages` does not
    /// fit in a `usize`.
    TooManyStages {
        /// Number of encoder stages.
        stages: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoStages => write!(f, "need at least one stage"),
            ConfigError::ResolutionNotDivisible {
                width,
                height,
                stages,
                factor,
            } => write!(
                f,
                "resolution {width}x{height} not divisible by 2^{stages} = {factor}"
            ),
            ConfigError::ResolutionTooSmall {
                width,
                height,
                stages,
            } => write!(
                f,
                "resolution {width}x{height} too small for {stages} stages"
            ),
            ConfigError::SharedStagesOutOfRange {
                shared_stages,
                stages,
            } => write!(
                f,
                "shared_stages {shared_stages} must be in 1..{stages} \
                 (stage 0 inputs differ between branches)"
            ),
            ConfigError::NoDepthChannels => {
                write!(f, "the depth branch needs at least one input channel")
            }
            ConfigError::ZeroStageWidth { stage } => {
                write!(f, "stage {stage} has zero output channels")
            }
            ConfigError::TooManyStages { stages } => write!(
                f,
                "{stages} stages: the down-sampling factor 2^{stages} overflows"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The five fusion architectures evaluated in the paper (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionScheme {
    /// RoadSeg-style element-wise-sum middle fusion (the baseline).
    Baseline,
    /// Unidirectional Fusion-filter at every stage: depth features pass a
    /// learned `1×1` conv before being summed into the RGB branch
    /// (Fig. 5(a), "AllFilter_U" / AU).
    AllFilterU,
    /// Bidirectional Fusion-filters at every stage (Fig. 5(b),
    /// "AllFilter_B" / AB).
    AllFilterB,
    /// The deepest encoder stage shares its filters between branches
    /// (Fig. 5(c), "BaseSharing" / BS).
    BaseSharing,
    /// BaseSharing plus the Auxiliary Weight Network producing a dynamic
    /// per-input weight for the depth features at the shared fusion
    /// (Fig. 5(d), "WeightedSharing" / WS).
    WeightedSharing,
}

impl FusionScheme {
    /// All schemes in the paper's presentation order.
    pub const ALL: [FusionScheme; 5] = [
        FusionScheme::Baseline,
        FusionScheme::AllFilterU,
        FusionScheme::AllFilterB,
        FusionScheme::BaseSharing,
        FusionScheme::WeightedSharing,
    ];

    /// The full architecture name used in the paper's prose.
    pub fn name(self) -> &'static str {
        match self {
            FusionScheme::Baseline => "Baseline",
            FusionScheme::AllFilterU => "AllFilter_U",
            FusionScheme::AllFilterB => "AllFilter_B",
            FusionScheme::BaseSharing => "BaseSharing",
            FusionScheme::WeightedSharing => "WeightedSharing",
        }
    }

    /// The abbreviation used in Fig. 6's tables.
    pub fn abbrev(self) -> &'static str {
        match self {
            FusionScheme::Baseline => "Baseline",
            FusionScheme::AllFilterU => "AU",
            FusionScheme::AllFilterB => "AB",
            FusionScheme::BaseSharing => "BS",
            FusionScheme::WeightedSharing => "WS",
        }
    }

    /// Whether any Fusion-filter (depth→RGB) is present.
    pub fn has_fusion_filter(self) -> bool {
        matches!(self, FusionScheme::AllFilterU | FusionScheme::AllFilterB)
    }

    /// Whether the deepest stage is shared between branches.
    pub fn shares_deep_stage(self) -> bool {
        matches!(
            self,
            FusionScheme::BaseSharing | FusionScheme::WeightedSharing
        )
    }
}

impl std::fmt::Display for FusionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Hyper-parameters shared by every architecture in the zoo.
///
/// The paper trains ResNet-backbone RoadSeg at KITTI resolution on an RTX
/// 8000; this reproduction uses the same topology scaled to CPU-trainable
/// widths. Architectural *comparisons* (who has more parameters, where
/// fusion happens) are invariant to this scaling.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NetworkConfig {
    /// Input image width (must be divisible by `2^stages`).
    pub width: usize,
    /// Input image height (must be divisible by `2^stages`).
    pub height: usize,
    /// Output channels of each encoder stage, shallow → deep. The length
    /// defines the number of fusion stages.
    pub stage_channels: Vec<usize>,
    /// How many of the *deepest* encoder stages the sharing schemes share
    /// between branches (the paper shares 1; the ablation benches sweep
    /// this). Ignored by non-sharing schemes.
    pub shared_stages: usize,
    /// Channels of the depth-branch input: 1 for inverse-depth images,
    /// 3 for SNE surface normals (the preprocessing of the paper's
    /// baseline lineage, SNE-RoadSeg).
    pub depth_channels: usize,
    /// Seed for weight initialisation.
    pub seed: u64,
}

impl NetworkConfig {
    /// The default experiment scale: 96×32 input, five fusion stages.
    pub fn standard() -> Self {
        NetworkConfig {
            width: 96,
            height: 32,
            stage_channels: vec![8, 12, 16, 24, 32],
            shared_stages: 1,
            depth_channels: 1,
            seed: 42,
        }
    }

    /// A minimal configuration for unit tests: 48×16 input, three fusion
    /// stages.
    pub fn tiny() -> Self {
        NetworkConfig {
            width: 48,
            height: 16,
            stage_channels: vec![4, 6, 8],
            shared_stages: 1,
            depth_channels: 1,
            seed: 42,
        }
    }

    /// Number of fusion stages.
    pub fn stages(&self) -> usize {
        self.stage_channels.len()
    }

    /// Validates the stage widths and count, divisibility of the input
    /// resolution by the total down-sampling factor, the shared-stage
    /// range and the depth-branch width.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the configuration violates.
    ///
    /// # Examples
    ///
    /// ```
    /// use sf_core::{ConfigError, NetworkConfig};
    ///
    /// assert!(NetworkConfig::standard().validate().is_ok());
    /// let mut bad = NetworkConfig::standard();
    /// bad.width = 100; // not divisible by 2^5
    /// assert!(matches!(
    ///     bad.validate(),
    ///     Err(ConfigError::ResolutionNotDivisible { .. })
    /// ));
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.stage_channels.is_empty() {
            return Err(ConfigError::NoStages);
        }
        let stages = self.stages();
        if let Some(stage) = self.stage_channels.iter().position(|&c| c == 0) {
            return Err(ConfigError::ZeroStageWidth { stage });
        }
        let factor = u32::try_from(stages)
            .ok()
            .and_then(|s| 1usize.checked_shl(s))
            .ok_or(ConfigError::TooManyStages { stages })?;
        if !self.width.is_multiple_of(factor) || !self.height.is_multiple_of(factor) {
            return Err(ConfigError::ResolutionNotDivisible {
                width: self.width,
                height: self.height,
                stages,
                factor,
            });
        }
        if self.height / factor < 1 || self.width / factor < 1 {
            return Err(ConfigError::ResolutionTooSmall {
                width: self.width,
                height: self.height,
                stages,
            });
        }
        if self.shared_stages < 1 || self.shared_stages >= stages {
            return Err(ConfigError::SharedStagesOutOfRange {
                shared_stages: self.shared_stages,
                stages,
            });
        }
        if self.depth_channels < 1 {
            return Err(ConfigError::NoDepthChannels);
        }
        Ok(())
    }

    /// Starts a builder seeded with the [`NetworkConfig::standard`]
    /// values; [`NetworkConfigBuilder::build`] validates the result.
    ///
    /// # Examples
    ///
    /// ```
    /// use sf_core::NetworkConfig;
    ///
    /// let config = NetworkConfig::builder()
    ///     .resolution(64, 32)
    ///     .stage_channels(vec![8, 16, 24])
    ///     .seed(7)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.stages(), 3);
    /// assert!(NetworkConfig::builder().width(100).build().is_err());
    /// ```
    pub fn builder() -> NetworkConfigBuilder {
        NetworkConfigBuilder {
            config: NetworkConfig::standard(),
        }
    }
}

/// Chainable builder for [`NetworkConfig`], created by
/// [`NetworkConfig::builder`]. Starts from the standard configuration and
/// validates on [`NetworkConfigBuilder::build`], so an invalid combination
/// is caught at construction instead of deep inside network assembly.
#[derive(Debug, Clone)]
pub struct NetworkConfigBuilder {
    config: NetworkConfig,
}

impl NetworkConfigBuilder {
    /// Sets the input width.
    pub fn width(mut self, width: usize) -> Self {
        self.config.width = width;
        self
    }

    /// Sets the input height.
    pub fn height(mut self, height: usize) -> Self {
        self.config.height = height;
        self
    }

    /// Sets width and height together.
    pub fn resolution(self, width: usize, height: usize) -> Self {
        self.width(width).height(height)
    }

    /// Sets the per-stage encoder output channels (shallow → deep).
    pub fn stage_channels(mut self, channels: Vec<usize>) -> Self {
        self.config.stage_channels = channels;
        self
    }

    /// Sets how many deepest stages the sharing schemes share.
    pub fn shared_stages(mut self, shared: usize) -> Self {
        self.config.shared_stages = shared;
        self
    }

    /// Sets the depth-branch input channel count.
    pub fn depth_channels(mut self, channels: usize) -> Self {
        self.config.depth_channels = channels;
        self
    }

    /// Sets the weight-initialisation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the configuration violates.
    pub fn build(self) -> Result<NetworkConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_and_flags() {
        assert_eq!(FusionScheme::ALL.len(), 5);
        assert_eq!(FusionScheme::AllFilterU.abbrev(), "AU");
        assert_eq!(FusionScheme::WeightedSharing.name(), "WeightedSharing");
        assert!(FusionScheme::AllFilterB.has_fusion_filter());
        assert!(!FusionScheme::Baseline.has_fusion_filter());
        assert!(FusionScheme::BaseSharing.shares_deep_stage());
        assert!(FusionScheme::WeightedSharing.shares_deep_stage());
        assert!(!FusionScheme::AllFilterU.shares_deep_stage());
        assert_eq!(FusionScheme::Baseline.to_string(), "Baseline");
    }

    #[test]
    fn standard_config_validates() {
        assert_eq!(NetworkConfig::standard().validate(), Ok(()));
        assert_eq!(NetworkConfig::tiny().validate(), Ok(()));
    }

    #[test]
    fn bad_resolution_is_rejected() {
        let mut c = NetworkConfig::standard();
        c.width = 100; // 100 % 32 != 0
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ResolutionNotDivisible { width: 100, .. })
        ));
    }

    #[test]
    fn empty_stages_are_rejected() {
        let mut c = NetworkConfig::standard();
        c.stage_channels.clear();
        assert_eq!(c.validate(), Err(ConfigError::NoStages));
    }

    #[test]
    fn degenerate_stage_lists_are_rejected() {
        let mut c = NetworkConfig::standard();
        c.stage_channels[1] = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroStageWidth { stage: 1 }));
        // 2^64 does not fit: a typed error, not a shift overflow.
        let mut c = NetworkConfig::standard();
        c.stage_channels = vec![4; usize::BITS as usize];
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyStages {
                stages: usize::BITS as usize
            })
        );
    }

    #[test]
    fn shared_stages_and_depth_channels_are_checked() {
        let mut c = NetworkConfig::standard();
        c.shared_stages = c.stages();
        assert!(matches!(
            c.validate(),
            Err(ConfigError::SharedStagesOutOfRange { .. })
        ));
        let mut c = NetworkConfig::standard();
        c.depth_channels = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoDepthChannels));
    }

    #[test]
    fn builder_round_trips_and_validates() {
        let built = NetworkConfig::builder().build().unwrap();
        assert_eq!(built, NetworkConfig::standard());
        let custom = NetworkConfig::builder()
            .resolution(48, 16)
            .stage_channels(vec![4, 6, 8])
            .shared_stages(1)
            .depth_channels(1)
            .seed(42)
            .build()
            .unwrap();
        assert_eq!(custom, NetworkConfig::tiny());
        let err = NetworkConfig::builder()
            .stage_channels(Vec::new())
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::NoStages);
        assert_eq!(err.to_string(), "need at least one stage");
    }
}
