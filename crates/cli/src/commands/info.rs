//! `roadseg info` — architecture, parameter and MAC summary.

use std::fmt::Write as _;

use sf_core::{FusionNet, FusionScheme};
use sf_nn::Parameterized;

use crate::commands::network_config;
use crate::{Args, CliError};

/// Prints the selected scheme's summary, plus a one-line comparison
/// against every other architecture in the zoo.
pub fn info(args: &Args) -> Result<String, CliError> {
    let scheme = args.scheme()?;
    let config = network_config(args)?;
    let mut net = FusionNet::new(scheme, &config)?;
    let cost = net.cost();
    let mut log = String::new();
    let _ = writeln!(log, "architecture : {}", scheme);
    let _ = writeln!(
        log,
        "input        : {}x{} (rgb 3ch + depth 1ch)",
        config.width, config.height
    );
    let _ = writeln!(
        log,
        "fusion stages: {} {:?}",
        config.stages(),
        config.stage_channels
    );
    if scheme.shares_deep_stage() {
        let _ = writeln!(
            log,
            "layer sharing: deepest {} stage(s)",
            config.shared_stages
        );
    }
    let _ = writeln!(log, "parameters   : {}", net.param_count());
    let _ = writeln!(log, "MACs / image : {}", cost.macs);
    let _ = writeln!(log, "kernel ISA   : {}", sf_tensor::kernel_isa());
    let _ = writeln!(log, "\nzoo comparison (same config):");
    for other in FusionScheme::ALL {
        let c = FusionNet::new(other, &config)?.cost();
        let marker = if other == scheme { " <-- selected" } else { "" };
        let _ = writeln!(
            log,
            "  {:<9} {:>9} params {:>12} MACs{marker}",
            other.abbrev(),
            c.params,
            c.macs
        );
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarises_the_zoo() {
        let raw: Vec<String> = ["info", "--scheme", "ws"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let log = info(&Args::parse(&raw).unwrap()).unwrap();
        assert!(log.contains("WeightedSharing"));
        assert!(log.contains("layer sharing"));
        assert!(log.contains("<-- selected"));
        assert!(log.contains("kernel ISA   : "));
        for abbrev in ["Baseline", "AU", "AB", "BS", "WS"] {
            assert!(log.contains(abbrev), "missing {abbrev}");
        }
    }

    #[test]
    fn bad_resolution_is_reported() {
        let raw: Vec<String> = ["info", "--width", "50"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(
            info(&Args::parse(&raw).unwrap()),
            Err(CliError::Invalid(_))
        ));
    }
}
