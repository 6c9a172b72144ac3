//! Plan op labels → op kinds.
//!
//! `CompiledPlan::run_batch_observed` reports each op by its stable
//! label (`enc2.rgb.conv`, `fuse1.d2r`, `dec0.up`, …). Per-op time is
//! attributed by kind; a label this table does not know is an error so
//! that a new op can never silently vanish from the profile.

/// The kinds of op a compiled plan executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Conv3x3,
    Conv1x1,
    Pool,
    Upsample,
    Sigmoid,
    /// Auxiliary weight network (WeightedSharing only).
    Awn,
    /// Weighted fusion sum (WeightedSharing only).
    MulAdd,
}

impl OpKind {
    /// The kinds `AllFilterU` plans execute — the ones reported as
    /// `plan.op_ms.<kind>` metrics.
    pub const REPORTED: [OpKind; 5] = [
        OpKind::Conv3x3,
        OpKind::Conv1x1,
        OpKind::Pool,
        OpKind::Upsample,
        OpKind::Sigmoid,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Conv3x3 => "conv3x3",
            OpKind::Conv1x1 => "conv1x1",
            OpKind::Pool => "pool",
            OpKind::Upsample => "upsample",
            OpKind::Sigmoid => "sigmoid",
            OpKind::Awn => "awn",
            OpKind::MulAdd => "muladd",
        }
    }
}

/// What an observer callback label denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// `input.rgb` / `input.depth`: reported before any op runs.
    Input,
    Op(OpKind),
}

/// Classifies one observer label.
///
/// # Errors
///
/// Returns the label back if no rule covers it.
pub fn classify(label: &str) -> Result<Label, String> {
    let is_stage = |prefix: &str, rest: &str| {
        label
            .strip_prefix(prefix)
            .and_then(|tail| tail.strip_suffix(rest))
            .is_some_and(|index| !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()))
    };
    let kind = match label {
        "input.rgb" | "input.depth" => return Ok(Label::Input),
        "head" => OpKind::Conv1x1,
        "sigmoid" => OpKind::Sigmoid,
        _ if is_stage("enc", ".rgb.conv")
            || is_stage("enc", ".depth.conv")
            || is_stage("dec", ".conv") =>
        {
            OpKind::Conv3x3
        }
        _ if is_stage("enc", ".rgb.pool") || is_stage("enc", ".depth.pool") => OpKind::Pool,
        _ if is_stage("fuse", ".d2r") || is_stage("fuse", ".r2d") => OpKind::Conv1x1,
        _ if is_stage("fuse", ".awn") => OpKind::Awn,
        _ if is_stage("fuse", ".sum") => OpKind::MulAdd,
        _ if is_stage("dec", ".up") => OpKind::Upsample,
        _ => return Err(format!("unknown plan op label `{label}`")),
    };
    Ok(Label::Op(kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_core::{CompiledPlan, FusionNet, FusionScheme, NetworkConfig, PlanMode};
    use sf_tensor::Tensor;

    const ALL_SCHEMES: [FusionScheme; 5] = [
        FusionScheme::Baseline,
        FusionScheme::AllFilterU,
        FusionScheme::AllFilterB,
        FusionScheme::BaseSharing,
        FusionScheme::WeightedSharing,
    ];

    /// Every label any plan of any scheme reports must classify: fused
    /// and camera-only f32 plans plus their int8 lowerings.
    #[test]
    fn grouping_covers_every_label_of_every_scheme() {
        let config = NetworkConfig::tiny();
        let rgb = Tensor::full(&[1, 3, config.height, config.width], 0.5);
        let depth = Tensor::full(&[1, 1, config.height, config.width], 0.25);
        for scheme in ALL_SCHEMES {
            let net = FusionNet::new(scheme, &config).expect("tiny config is valid");
            let mut profile = sf_core::CalibrationProfile::new();
            let mut seen = Vec::new();
            for mode in [PlanMode::Fused, PlanMode::CameraOnly] {
                let mut plan = CompiledPlan::compile(&net, mode);
                plan.run_batch_observed(&rgb, Some(&depth), &mut |label, data| {
                    profile.observe(label, data);
                    seen.push(label.to_string());
                })
                .expect("plan runs");
            }
            for mode in [PlanMode::Int8, PlanMode::Int8CameraOnly] {
                let mut plan = CompiledPlan::compile_int8(&net, &profile, mode).expect("int8 plan");
                plan.run_batch_observed(&rgb, Some(&depth), &mut |label, _| {
                    seen.push(label.to_string());
                })
                .expect("int8 plan runs");
            }
            assert!(seen.len() > 20, "{scheme:?} reported {} labels", seen.len());
            for label in &seen {
                classify(label).unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            }
            let kinds: Vec<OpKind> = seen
                .iter()
                .filter_map(|l| match classify(l) {
                    Ok(Label::Op(kind)) => Some(kind),
                    _ => None,
                })
                .collect();
            for kind in OpKind::REPORTED {
                // Baseline has no fusion filters, but its head is 1×1.
                assert!(kinds.contains(&kind), "{scheme:?} never ran a {kind:?}");
            }
            let weighted = scheme == FusionScheme::WeightedSharing;
            assert_eq!(kinds.contains(&OpKind::Awn), weighted, "{scheme:?}");
            assert_eq!(kinds.contains(&OpKind::MulAdd), weighted, "{scheme:?}");
        }
    }

    #[test]
    fn unknown_labels_are_errors() {
        for bad in [
            "",
            "enc.rgb.conv",
            "encx.rgb.conv",
            "fuse1.xyz",
            "dec2",
            "softmax",
        ] {
            assert!(classify(bad).is_err(), "{bad:?} must not classify");
        }
        assert_eq!(classify("input.depth"), Ok(Label::Input));
        assert_eq!(classify("enc12.depth.pool"), Ok(Label::Op(OpKind::Pool)));
    }
}
