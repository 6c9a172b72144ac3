//! Self-describing checkpoint files: a one-line text manifest in front of
//! the `sf-nn` SFM1 weight payload.
//!
//! The weight codec stores raw tensors positionally; the manifest names
//! the architecture (`roadseg-v1 scheme=au width=96 ...`) so a `.sfm`
//! file can be loaded without the caller repeating every flag. This lives
//! in `sf-core` (not the CLI) because the serving fleet's hot model swap
//! ([`Fleet::deploy_from_path`]) loads candidate models off the hot path
//! — checkpoint loading is part of the model layer, not the tooling.
//!
//! Quantized checkpoints ([`save_quantized_checkpoint`]) add ` quant=int8`
//! to the manifest, an `act-scales` line pinning every calibrated
//! activation scale bit-exactly, and store rank-4 conv weights as int8
//! with per-channel scale blocks in the version-3 SFM1 payload. Loading
//! one through plain [`load_checkpoint`] transparently dequantizes into an
//! f32 model; [`load_checkpoint_full`] also recovers the calibration
//! profile so [`Predictor::compile_int8`](crate::Predictor::compile_int8)
//! rebuilds the identical int8 plan (integer weight grids survive a
//! dequantize→requantize round trip exactly).
//!
//! [`Fleet::deploy_from_path`]: ../../sf_serve/struct.Fleet.html#method.deploy_from_path

use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

use sf_nn::{Stateful, TaggedTensor, TensorPayload};
use sf_tensor::int8::quantize_per_row;

use crate::arch::describe;
use crate::config::{FusionScheme, NetworkConfig};
use crate::network::FusionNet;
use crate::plan::CalibrationProfile;

/// What can go wrong saving or loading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(String),
    /// The file is not a valid roadseg checkpoint (bad manifest, CRC
    /// mismatch, truncated payload, architecture/weight disagreement).
    Invalid(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint io error: {msg}"),
            CheckpointError::Invalid(msg) => write!(f, "invalid checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Renders the manifest line, e.g.
/// `roadseg-v1 scheme=au width=96 height=32 channels=8,12,16,24,32 shared=1 seed=42`.
pub fn manifest(net: &FusionNet) -> String {
    let c = net.config();
    let channels: Vec<String> = c.stage_channels.iter().map(usize::to_string).collect();
    format!(
        "roadseg-v1 scheme={} width={} height={} channels={} shared={} depth={} seed={}\n",
        scheme_code(net.scheme()),
        c.width,
        c.height,
        channels.join(","),
        c.shared_stages,
        c.depth_channels,
        c.seed
    )
}

/// The manifest's short code for a fusion scheme.
pub fn scheme_code(scheme: FusionScheme) -> &'static str {
    match scheme {
        FusionScheme::Baseline => "baseline",
        FusionScheme::AllFilterU => "au",
        FusionScheme::AllFilterB => "ab",
        FusionScheme::BaseSharing => "bs",
        FusionScheme::WeightedSharing => "ws",
    }
}

/// Inverse of [`scheme_code`]; `None` for an unknown code.
pub fn scheme_from_code(code: &str) -> Option<FusionScheme> {
    Some(match code {
        "baseline" => FusionScheme::Baseline,
        "au" => FusionScheme::AllFilterU,
        "ab" => FusionScheme::AllFilterB,
        "bs" => FusionScheme::BaseSharing,
        "ws" => FusionScheme::WeightedSharing,
        _ => return None,
    })
}

/// Saves a model (manifest + weights) to `path`, atomically: the full
/// file is staged in memory, written to a `<path>.tmp` sibling and
/// renamed over the destination, so a crash mid-save never corrupts an
/// existing checkpoint.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on any write failure.
pub fn save_checkpoint(net: &mut FusionNet, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let mut bytes = manifest(net).into_bytes();
    net.save_state(&mut bytes)?;
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &bytes)
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
    Ok(())
}

/// Saves a quantized model: the manifest gains ` quant=int8`, a second
/// `act-scales` text line pins every calibrated activation scale by its
/// exact f32 bit pattern, and the payload is a version-3 tagged SFM1
/// stream storing every rank-4 conv weight as int8 with per-output-channel
/// scales (≈4× smaller) and everything else (biases, BatchNorm state, AWN
/// weights) as f32. Written atomically like [`save_checkpoint`].
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on any write failure.
pub fn save_quantized_checkpoint(
    net: &mut FusionNet,
    profile: &CalibrationProfile,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let mut line = manifest(net);
    line.truncate(line.trim_end().len());
    line.push_str(" quant=int8\n");
    let mut bytes = line.into_bytes();
    bytes.extend_from_slice(b"act-scales");
    for (label, scale) in profile.act_scales() {
        bytes.extend_from_slice(format!(" {label}={:08x}", scale.to_bits()).as_bytes());
    }
    bytes.push(b'\n');
    let tagged: Vec<TaggedTensor> = net
        .state_tensors()
        .into_iter()
        .map(|t| {
            if t.rank() == 4 {
                let shape = t.shape().to_vec();
                let (data, scales) = quantize_per_row(t.data(), shape[0]);
                TaggedTensor {
                    shape,
                    payload: TensorPayload::I8 { data, scales },
                }
            } else {
                TaggedTensor::from_tensor(&t)
            }
        })
        .collect();
    sf_nn::write_tagged(&tagged, &mut bytes)?;
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &bytes)
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
    Ok(())
}

/// A loaded checkpoint: the (f32) model plus, for quantized checkpoints,
/// the calibration profile whose pinned activation scales rebuild the
/// identical int8 plan.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The restored model. Quantized weights arrive dequantized; passing
    /// them back through the quantizer reproduces the stored int8 grid.
    pub net: FusionNet,
    /// `Some` when the file carried an `act-scales` line, i.e. it was
    /// written by [`save_quantized_checkpoint`].
    pub profile: Option<CalibrationProfile>,
}

/// Loads a model from `path`, rebuilding the architecture from the
/// manifest and restoring all weights and buffers. Quantized checkpoints
/// load transparently as f32 models; use [`load_checkpoint_full`] to also
/// recover their calibration profile.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on read failures and
/// [`CheckpointError::Invalid`] on a malformed manifest or checkpoint
/// mismatch.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<FusionNet, CheckpointError> {
    load_checkpoint_full(path).map(|l| l.net)
}

/// Like [`load_checkpoint`], but also parses the `act-scales` line a
/// quantized checkpoint carries into a [`CalibrationProfile`] with every
/// scale pinned to its stored bit pattern.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on read failures and
/// [`CheckpointError::Invalid`] on a malformed manifest, malformed
/// act-scales line, or checkpoint mismatch.
pub fn load_checkpoint_full(path: impl AsRef<Path>) -> Result<LoadedCheckpoint, CheckpointError> {
    let file = std::fs::File::open(&path)
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.as_ref().display())))?;
    let mut reader = BufReader::new(file);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let (scheme, config) = parse_manifest(line.trim_end())?;
    let invalid_network =
        |e| CheckpointError::Invalid(format!("manifest names an invalid network: {e}"));
    config.validate().map_err(invalid_network)?;
    let profile = if reader.fill_buf()?.starts_with(b"act-scales") {
        let mut scales = String::new();
        reader.read_line(&mut scales)?;
        Some(parse_act_scales(scales.trim_end())?)
    } else {
        None
    };
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest)?;
    // The manifest is untrusted: before allocating a network of the size
    // it names, check that size against the bytes actually present. Every
    // parameter occupies at least one payload byte (int8 conv weights;
    // everything else is four).
    let params = describe(scheme, &config, true).cost().map(|c| c.params);
    if params.is_none_or(|p| p > rest.len() as u64) {
        return Err(CheckpointError::Invalid(format!(
            "manifest names a network of {} parameters but only {} payload bytes follow",
            params.map_or("more than 2^64".to_string(), |p| p.to_string()),
            rest.len()
        )));
    }
    let mut net = FusionNet::new(scheme, &config).map_err(invalid_network)?;
    net.load_state(&rest[..])
        .map_err(|e| CheckpointError::Invalid(format!("checkpoint rejected: {e}")))?;
    Ok(LoadedCheckpoint { net, profile })
}

/// Parses an `act-scales label=hexbits ...` line into a profile of
/// pinned scales.
fn parse_act_scales(line: &str) -> Result<CalibrationProfile, CheckpointError> {
    let mut profile = CalibrationProfile::new();
    let mut parts = line.split_whitespace();
    parts.next(); // the "act-scales" keyword, already matched
    for part in parts {
        let (label, bits) = part.split_once('=').ok_or_else(|| {
            CheckpointError::Invalid(format!("malformed act-scales field {part:?}"))
        })?;
        let bits = u32::from_str_radix(bits, 16).map_err(|_| {
            CheckpointError::Invalid(format!("act-scales {label}: bad f32 bit pattern"))
        })?;
        profile.set_scale(label, f32::from_bits(bits));
    }
    Ok(profile)
}

/// Parses the manifest line into (scheme, config).
///
/// # Errors
///
/// Returns [`CheckpointError::Invalid`] naming the malformed field.
pub fn parse_manifest(line: &str) -> Result<(FusionScheme, NetworkConfig), CheckpointError> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some("roadseg-v1") {
        return Err(CheckpointError::Invalid(
            "not a roadseg checkpoint (missing manifest header)".to_string(),
        ));
    }
    let mut scheme = None;
    let mut config = NetworkConfig::standard();
    for part in parts {
        let (key, value) = part.split_once('=').ok_or_else(|| {
            CheckpointError::Invalid(format!("malformed manifest field {part:?}"))
        })?;
        let bad = |what: &str| {
            CheckpointError::Invalid(format!("manifest {key}={value}: invalid {what}"))
        };
        match key {
            "scheme" => {
                scheme = Some(scheme_from_code(value).ok_or_else(|| bad("scheme"))?);
            }
            "width" => config.width = value.parse().map_err(|_| bad("integer"))?,
            "height" => config.height = value.parse().map_err(|_| bad("integer"))?,
            "channels" => {
                config.stage_channels = value
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("channel list"))?;
            }
            "shared" => config.shared_stages = value.parse().map_err(|_| bad("integer"))?,
            "depth" => config.depth_channels = value.parse().map_err(|_| bad("integer"))?,
            "seed" => config.seed = value.parse().map_err(|_| bad("integer"))?,
            _ => {} // forward compatibility: ignore unknown keys
        }
    }
    let scheme =
        scheme.ok_or_else(|| CheckpointError::Invalid("manifest lacks a scheme".to_string()))?;
    Ok((scheme, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_nn::{Parameterized, Stateful};

    fn tiny_config() -> NetworkConfig {
        NetworkConfig {
            width: 32,
            height: 16,
            stage_channels: vec![3, 4],
            shared_stages: 1,
            depth_channels: 1,
            seed: 9,
        }
    }

    #[test]
    fn round_trips_weights_and_architecture() {
        let path = std::env::temp_dir().join("sf_core_checkpoint.sfm");
        let mut original =
            FusionNet::new(FusionScheme::WeightedSharing, &tiny_config()).expect("valid config");
        save_checkpoint(&mut original, &path).unwrap();
        let mut loaded = load_checkpoint(&path).unwrap();
        assert_eq!(loaded.scheme(), FusionScheme::WeightedSharing);
        assert_eq!(loaded.config(), original.config());
        assert_eq!(loaded.state_tensors(), original.state_tensors());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_foreign_files() {
        let path = std::env::temp_dir().join("sf_core_not_a_model.sfm");
        std::fs::write(&path, "hello world\n").unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Invalid(_))
        ));
        std::fs::remove_file(path).unwrap();
        assert!(matches!(
            load_checkpoint("/definitely/not/here.sfm"),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn hostile_manifests_are_rejected_before_anything_is_allocated() {
        // Each first line used to panic or abort inside `FusionNet::new`
        // (zero-width conv, a 576 GB allocation, `1 << 64`, usize
        // overflow) before a single payload byte was looked at.
        let many = vec!["4"; 64].join(",");
        let max = u64::MAX;
        for (case, fields) in [
            ("zero stage width", "channels=4,0,8".to_string()),
            ("giant stage width", "channels=4,4000000000,8".to_string()),
            ("64 stages", format!("channels={many}")),
            ("u64::MAX stage width", format!("channels=4,{max},8")),
            ("u64::MAX width", format!("width={max} channels=4,8")),
            (
                "giant depth width",
                "channels=4,8 depth=4000000000".to_string(),
            ),
        ] {
            let path = std::env::temp_dir().join(format!(
                "sf_core_hostile_{}.sfm",
                case.replace([' ', ':'], "_")
            ));
            let manifest = format!(
                "roadseg-v1 scheme=baseline width=96 height=32 shared=1 depth=1 seed=1 {fields}\n"
            );
            std::fs::write(&path, [manifest.as_bytes(), &[0u8; 64]].concat()).unwrap();
            let loaded = load_checkpoint(&path);
            std::fs::remove_file(&path).unwrap();
            assert!(
                matches!(loaded, Err(CheckpointError::Invalid(_))),
                "{case}: {loaded:?}"
            );
        }
    }

    #[test]
    fn quantized_checkpoint_rebuilds_the_identical_int8_plan() {
        use crate::plan::{CompiledPlan, PlanMode};
        use sf_tensor::TensorRng;

        let config = tiny_config();
        let mut net = FusionNet::new(FusionScheme::WeightedSharing, &config).expect("valid config");
        // Calibrate on a seeded frame through both f32 plans.
        let mut rng = TensorRng::seed_from(101);
        let rgb = rng.uniform(&[1, 3, config.height, config.width], 0.0, 1.0);
        let depth = rng.uniform(
            &[1, config.depth_channels, config.height, config.width],
            0.0,
            1.0,
        );
        let mut profile = CalibrationProfile::new();
        CompiledPlan::compile(&net, PlanMode::Fused)
            .run_batch_observed(&rgb, Some(&depth), &mut |l, d| profile.observe(l, d))
            .unwrap();
        let mut cam = CalibrationProfile::new();
        CompiledPlan::compile(&net, PlanMode::CameraOnly)
            .run_batch_observed(&rgb, None, &mut |l, d| cam.observe(l, d))
            .unwrap();
        profile.merge_max(&cam);

        let mut q1 = CompiledPlan::compile_int8(&net, &profile, PlanMode::Int8).unwrap();
        let want = q1.run_batch(&rgb, Some(&depth)).unwrap();

        let path = std::env::temp_dir().join("sf_core_quant_checkpoint.sfm");
        save_quantized_checkpoint(&mut net, &profile, &path).unwrap();
        let loaded = load_checkpoint_full(&path).unwrap();
        let restored = loaded.profile.expect("quantized checkpoint carries scales");
        // Pinned scales reproduce the exact activation grid, and the
        // dequantized weights requantize to the same integers — the
        // reloaded int8 plan is bit-identical.
        let mut net2 = loaded.net;
        let mut q2 = CompiledPlan::compile_int8(&net2, &restored, PlanMode::Int8).unwrap();
        let got = q2.run_batch(&rgb, Some(&depth)).unwrap();
        assert_eq!(got.data(), want.data(), "reload is bit-exact");

        // The quantized file is meaningfully smaller than the f32 one.
        let fpath = std::env::temp_dir().join("sf_core_quant_checkpoint_f32.sfm");
        save_checkpoint(&mut net2, &fpath).unwrap();
        let qsize = std::fs::metadata(&path).unwrap().len();
        let fsize = std::fs::metadata(&fpath).unwrap().len();
        assert!(qsize < fsize, "quantized {qsize} vs f32 {fsize}");

        // Plain load_checkpoint sees the same f32 model.
        let mut plain = load_checkpoint(&path).unwrap();
        assert_eq!(plain.state_tensors(), net2.state_tensors());
        std::fs::remove_file(path).unwrap();
        std::fs::remove_file(fpath).unwrap();
    }

    #[test]
    fn act_scales_line_round_trips_bit_patterns() {
        let mut profile = CalibrationProfile::new();
        profile.set_scale("enc0.rgb.conv", 0.007_874_016);
        profile.set_scale("input.rgb", 1.0 / 127.0);
        let line = {
            let mut s = String::from("act-scales");
            for (label, scale) in profile.act_scales() {
                s.push_str(&format!(" {label}={:08x}", scale.to_bits()));
            }
            s
        };
        let parsed = parse_act_scales(&line).unwrap();
        assert_eq!(parsed.act_scales(), profile.act_scales());
        assert!(matches!(
            parse_act_scales("act-scales nope"),
            Err(CheckpointError::Invalid(_))
        ));
        assert!(matches!(
            parse_act_scales("act-scales a=zzzz"),
            Err(CheckpointError::Invalid(_))
        ));
    }

    #[test]
    fn manifest_ignores_unknown_keys() {
        let (scheme, config) = parse_manifest(
            "roadseg-v1 scheme=bs width=32 height=16 channels=3,4 shared=1 seed=5 future=stuff",
        )
        .unwrap();
        assert_eq!(scheme, FusionScheme::BaseSharing);
        assert_eq!(config.stage_channels, vec![3, 4]);
        assert_eq!(config.seed, 5);
    }

    #[test]
    fn cloned_network_is_an_independent_deep_copy() {
        // The fleet replicates one network across N replicas via Clone;
        // the copies must not alias (Tensor is Vec-backed, so a deep copy
        // is the only possible semantics — this pins it).
        let mut original =
            FusionNet::new(FusionScheme::AllFilterU, &tiny_config()).expect("valid config");
        let mut copy = original.clone();
        assert_eq!(original.state_tensors(), copy.state_tensors());
        let mut bytes = Vec::new();
        original.save_state(&mut bytes).unwrap();
        // Perturbing the copy must leave the original untouched.
        copy.visit_params(&mut |p| {
            let perturbed: Vec<f32> = p.value.data().iter().map(|v| v + 1.0).collect();
            let shape = p.value.shape().to_vec();
            p.value = sf_tensor::Tensor::from_vec(perturbed, &shape).unwrap();
        });
        let mut bytes_after = Vec::new();
        original.save_state(&mut bytes_after).unwrap();
        assert_eq!(bytes, bytes_after, "clone must not alias the original");
        assert_ne!(original.state_tensors(), copy.state_tensors());
    }
}
