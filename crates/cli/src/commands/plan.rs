//! `roadseg plan` — inspect and verify compiled inference plans.
//!
//! `--dump` prints the frozen op list and static scratch schedule for the
//! configured network, in both plan modes. `--check` recompiles the plan
//! for every fusion scheme and diffs its outputs against the unfused
//! graph path on seeded inputs at batch sizes 1, 3 and 9 (the caller alone,
//! an odd batch, more images than lanes) — any nonzero delta (the contract is
//! bit-identity, not tolerance) fails the command, as do arenas that hold
//! anything but one static reservation per lane. CI runs `plan --check`
//! on the tiny and the standard network under `SF_THREADS=1,2,4`.

use std::fmt::Write as _;

use sf_autograd::Graph;
use sf_core::{CompiledPlan, FusionNet, FusionScheme, NetworkConfig, PlanMode};
use sf_nn::Mode;
use sf_tensor::{Tensor, TensorRng};

use crate::commands::network_config;
use crate::{Args, CliError};

/// The batch sizes `--check` runs: one image on the caller, an odd batch,
/// and more images than any lane count CI uses.
const BATCH_SIZES: [usize; 3] = [1, 3, 9];

/// Runs the subcommand: `--dump`, `--check`, or both (neither flag means
/// `--dump`).
pub fn plan(args: &Args) -> Result<String, CliError> {
    let dump = args.get_bool("dump");
    let check = args.get_bool("check");
    let config = if args.get_bool("smoke") {
        let mut config = NetworkConfig::tiny();
        config.seed = args.get_parsed("seed", config.seed, "integer")?;
        config
    } else {
        network_config(args)?
    };
    let mut log = String::new();
    if dump || !check {
        let scheme = args.scheme()?;
        log.push_str(&dump_plans(scheme, &config)?);
    }
    if check {
        log.push_str(&check_parity(&config)?);
    }
    Ok(log)
}

/// Renders the op list and scratch schedule of both plan modes.
fn dump_plans(scheme: FusionScheme, config: &NetworkConfig) -> Result<String, CliError> {
    let net = FusionNet::new(scheme, config)?;
    let mut log = String::new();
    for mode in [PlanMode::Fused, PlanMode::CameraOnly] {
        let plan = CompiledPlan::compile(&net, mode);
        let _ = write!(log, "{plan}");
        let _ = writeln!(
            log,
            "reservation : {} elems/lane ({:.1} KiB; a lane holds one image in flight, \
             a pass runs on min(batch, threads) lanes), peak live {} elems/image",
            plan.reservation_per_image(),
            plan.reservation_per_image() as f64 * 4.0 / 1024.0,
            plan.peak_live_per_image(),
        );
        let _ = writeln!(log);
    }
    Ok(log)
}

/// The unfused reference: graph forward in eval mode plus sigmoid.
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

/// Diffs plan-vs-graph outputs for every scheme, both modes and three
/// batch sizes; any nonzero delta, or arenas off the static reservation,
/// is an error.
fn check_parity(config: &NetworkConfig) -> Result<String, CliError> {
    let (h, w, dc) = (config.height, config.width, config.depth_channels);
    let mut log = String::new();
    let (mut compared, mut lanes) = (0usize, 0usize);
    for scheme in FusionScheme::ALL {
        let mut net = FusionNet::new(scheme, config)?;
        let mut rng = TensorRng::seed_from(config.seed ^ 0x9ace);
        // Warm the BatchNorm running statistics so the plan's folded eval
        // constants are non-trivial.
        {
            let mut g = Graph::new();
            let r = g.leaf(rng.uniform(&[2, 3, h, w], 0.0, 1.0));
            let d = g.leaf(rng.uniform(&[2, dc, h, w], 0.1, 1.0));
            net.forward(&mut g, r, d, Mode::Train);
        }
        for mode in [PlanMode::Fused, PlanMode::CameraOnly] {
            let mut plan = CompiledPlan::compile(&net, mode);
            let mut widest = 0usize;
            for n in BATCH_SIZES {
                let rgb = rng.uniform(&[n, 3, h, w], 0.0, 1.0);
                let depth = rng.uniform(&[n, dc, h, w], 0.1, 1.0);
                let with_depth = (mode == PlanMode::Fused).then_some(&depth);
                let got = plan
                    .run_batch(&rgb, with_depth)
                    .map_err(|e| CliError::Invalid(e.to_string()))?;
                let reference = graph_probs(&mut net, &rgb, with_depth);
                let differing = got
                    .data()
                    .iter()
                    .zip(reference.data())
                    .filter(|(a, b)| a.to_bits() != b.to_bits())
                    .count();
                if differing > 0 {
                    return Err(CliError::Invalid(format!(
                        "plan check FAILED: {scheme} {mode} n={n}: \
                         {differing}/{} values differ from the graph path",
                        reference.numel()
                    )));
                }
                // Lanes are only ever added: the arenas hold exactly the
                // reservation of the widest batch so far.
                widest = widest.max(plan.reservation_elems(n));
                if plan.arena_elems() != widest {
                    return Err(CliError::Invalid(format!(
                        "plan check FAILED: {scheme} {mode} n={n}: arenas hold \
                         {} elems, the static reservation is {widest}",
                        plan.arena_elems()
                    )));
                }
                compared += reference.numel();
                lanes = lanes.max(widest / plan.reservation_per_image());
            }
        }
    }
    let _ = writeln!(
        log,
        "plan check   : OK — {compared} values bit-identical to the graph path \
         ({} schemes x 2 modes x batch sizes {BATCH_SIZES:?}, {w}x{h}, up to {lanes} lanes)",
        FusionScheme::ALL.len(),
    );
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(raw: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        plan(&Args::parse(&raw).unwrap())
    }

    #[test]
    fn dump_prints_op_list_and_schedule() {
        let log = run(&["plan", "--dump", "--smoke"]).unwrap();
        assert!(log.contains("plan(fused)"), "{log}");
        assert!(log.contains("plan(camera-only)"), "{log}");
        assert!(log.contains("op list:"), "{log}");
        assert!(log.contains("scratch schedule (per image):"), "{log}");
        assert!(log.contains("reservation"), "{log}");
    }

    #[test]
    fn default_is_dump() {
        let log = run(&["plan", "--smoke"]).unwrap();
        assert!(log.contains("op list:"), "{log}");
    }

    #[test]
    fn check_passes_on_tiny_net() {
        let log = run(&["plan", "--check", "--smoke"]).unwrap();
        assert!(log.contains("plan check   : OK"), "{log}");
        assert!(log.contains("bit-identical"), "{log}");
    }
}
