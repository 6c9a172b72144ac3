//! Subcommand implementations, each returning its human-readable output
//! so they are unit-testable without capturing stdout.

mod chaos;
mod eval;
mod fleet_bench;
mod generate;
mod infer;
mod info;
mod plan;
mod quantize;
mod soak;
mod train;

pub use chaos::chaos;
pub use eval::eval;
pub use fleet_bench::fleet_bench;
pub use generate::generate;
pub use infer::infer;
pub use info::info;
pub use plan::plan;
pub use quantize::quantize;
pub use soak::soak;
pub use train::train;

use sf_core::NetworkConfig;

use crate::{Args, CliError};

/// Builds the network configuration from the shared CLI flags.
pub(crate) fn network_config(args: &Args) -> Result<NetworkConfig, CliError> {
    let mut config = NetworkConfig::standard();
    config.width = args.get_parsed("width", config.width, "integer")?;
    config.height = args.get_parsed("height", config.height, "integer")?;
    config.seed = args.get_parsed("seed", config.seed, "integer")?;
    config.validate()?;
    Ok(config)
}
