//! `roadseg` — the command-line face of the sensor-fusion stack.
//!
//! ```text
//! roadseg generate --out data/ --count 12          # write sample frames
//! roadseg train    --out model.sfm --scheme au     # train + checkpoint
//! roadseg eval     --model model.sfm               # KITTI-style metrics
//! roadseg eval     --model model.sfm --int8        # same, int8 plans
//! roadseg quantize --model model.sfm --out q.sfm   # int8 checkpoint
//! roadseg infer    --model model.sfm --rgb f.ppm --depth f.pgm --out o.ppm
//! roadseg info     --scheme ws                     # architecture summary
//! roadseg fleet-bench --replicas 1 --max-batch 8   # batched-serving bench
//! roadseg fleet-bench --replicas 3 --kill --deploy # replica-fleet bench
//! roadseg chaos --smoke                            # deterministic chaos run
//! roadseg chaos --smoke --replicas 2               # same, with kill storms
//! roadseg soak --smoke                             # long-haul scenario soak
//! ```
//!
//! The library half exists so the subcommands are unit-testable; the
//! binary (`src/main.rs`) is a thin dispatcher.

pub mod args;
pub mod commands;
pub mod model_io;

pub use args::{Args, ParseArgsError};

/// Top-level CLI error: anything a subcommand can fail with.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ParseArgsError),
    /// Filesystem / image / checkpoint I/O failure.
    Io(String),
    /// Inputs were readable but semantically invalid.
    Invalid(String),
    /// Training diverged and exhausted its recovery budget; no checkpoint
    /// was written.
    Diverged(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(msg) => write!(f, "i/o error: {msg}"),
            CliError::Invalid(msg) => write!(f, "invalid input: {msg}"),
            CliError::Diverged(msg) => write!(f, "training diverged: {msg}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Args(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseArgsError> for CliError {
    fn from(e: ParseArgsError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e.to_string())
    }
}

impl From<sf_core::ConfigError> for CliError {
    fn from(e: sf_core::ConfigError) -> Self {
        CliError::Invalid(e.to_string())
    }
}

/// The usage text printed on `--help` or an argument error.
pub const USAGE: &str = "\
roadseg — DCNN camera/LiDAR fusion for free-road segmentation

USAGE:
  roadseg <command> [flags]

COMMANDS:
  generate   render synthetic sample frames (rgb.ppm, depth.pgm, gt.pgm)
  train      train a fusion model and save a checkpoint
  eval       evaluate a checkpoint with the KITTI-style BEV metrics
  quantize   lower an f32 checkpoint to a calibrated int8 checkpoint
  infer      run a checkpoint on a user-supplied rgb/depth frame pair
  info       print a model's architecture, parameter and MAC summary
  plan       dump a compiled inference plan or check it against the graph path
  fleet-bench  closed-loop load generator for one server (--replicas 1) or a
             replica fleet, optionally killing/reviving/hot-swapping mid-run
  chaos      run a seeded fault schedule through the chaos engine, twice
  soak       the same engine on the long-haul weather/occluder/multi-LiDAR stream

COMMON FLAGS:
  --scheme <baseline|au|ab|bs|ws>   fusion architecture   [default: au]
  --width <px> --height <px>        input resolution      [default: 96x32]
  --seed <u64>                      master seed           [default: 2022]

FLAGS BY COMMAND:
  generate: --out <dir> [--count <n>] [--category <um|umm|uu>]
  train:    --out <file.sfm> [--epochs <n>] [--alpha <f>] [--lr <f>]
            [--optimizer <sgd|adam>] [--data <dir>] [--train-per-category <n>]
            [--max-recoveries <n>] [--grad-clip <f>]
  eval:     --model <file.sfm> [--test-per-category <n>]
            [--fault <kind[:severity]>] [--fault-seed <u64>]
            [--policy <trust|fallback|camera-only>]
            [--int8] [--calib-samples <n>]
            (--int8: calibrate on seeded train frames, evaluate through
             the int8 compiled plans)
  quantize: --model <file.sfm> --out <file.sfm> [--calib-samples <n>]
            (calibrates activation scales on seeded synthetic frames and
             writes an SFM1 v3 int8 checkpoint; byte-reproducible)
  infer:    --model <file.sfm> --rgb <f.ppm> --depth <f.pgm> --out <overlay.ppm>
            [--policy <trust|fallback|camera-only>]
            [--int8] [--parity-min <f>]
            (--int8: also run the int8 plan, report f32/int8 classification
             agreement, fail below --parity-min, render the int8 overlay)
  info:     [--scheme ...]
  plan:     [--dump] [--check] [--scheme ...] [--smoke]
            (--dump: op list + scratch schedule, both modes; --check: fails
             on any bitwise plan-vs-graph delta; --smoke: tiny network)
  fleet-bench: [--replicas <n>] [--dispatch <hash|least>] [--clients <n>]
            [--requests <n per client>] [--max-batch <n>] [--max-wait-ms <n>]
            [--queue <n>] [--policy ...] [--deadline-ms <n>]
            [--breaker-threshold <f>] [--smoke] [--kill] [--deploy]
            [--deploy-model <file.sfm>]
            (--replicas 1 benches a single server; reports client-side
             p50/p95/max latency; --deadline-ms: an expiry is load shedding,
             not a client failure; --kill: kill + revive a replica mid-run;
             --deploy: hot-swap a retrained model mid-run; --deploy-model:
             hot-swap from a checkpoint file instead, staging one if absent;
             --smoke: tiny network, fails unless every request is served and
             the fleet ledger reconciles)
  chaos:    [--seed <u64>] [--replicas <n>] [--dispatch <hash|least>]
            [--scenes <kind:N,...>] [--deadline-ms <n, 0 = none>]
            [--breaker-threshold <f>] [--breaker-window <n>]
            [--breaker-cooldown <n>] [--no-breaker] [--queue <n>]
            [--max-batch <n>] [--smoke]
            (scene kinds: calm corrupt stale panic slow flood storm
             deploystorm revive shadow; flood:N sheds exactly N at a full
             queue, storm:N kills a replica under N queued frames and needs
             >= 2 alive; --replicas 1 is a single server and the default
             recipe leaves its kill storms out; runs the schedule twice, every
             scene boundary must conserve and reconcile; any fingerprint
             mismatch fails unless --deadline-ms is below 1000)
  soak:     [--seed <u64>] [--frames <n>] [--window <n>] [--replicas <n>]
            [--rig <single|dual|triple>] [--weather <clear|rain:S|fog:S|snow:S>]
            [--smoke]
            (the chaos engine on rig traffic: weather fronts + occluders +
             per-source fault bursts against a replica fleet; every window
             must conserve, the scratch peak must plateau, breakers must cycle
             on schedule, and two runs must produce identical fingerprints;
             --weather pins one weather for the whole run; --frames rescales
             the schedules)

FAULT KINDS (for eval --fault):
  depth-dropout:<p>  dead-rows:<p>  gaussian-noise:<sigma>
  salt-pepper:<p>    miscalibration:<dx>,<dy>  stale-frame
";
