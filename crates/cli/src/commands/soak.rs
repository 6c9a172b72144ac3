//! `roadseg soak` — drive the long-haul scenario stream (weather fronts,
//! occluder traffic, multi-LiDAR rig, per-source fault bursts) through
//! the chaos engine and report the per-window verdicts.
//!
//! A soak is the engine's rig-traffic recipe: every window is a scene, so
//! every window boundary conserves, cross-checks and records the scratch
//! peak. Like `roadseg chaos` it runs **twice** and the two fingerprints
//! must match bit-for-bit. `--smoke` shrinks the stream to a CI-sized run
//! that still rolls a weather front, runs a dead-sensor burst and checks
//! every window.

use std::fmt::Write as _;

use sf_chaos::{Scenario, Traffic};

use crate::commands::chaos::run_and_render;
use crate::{Args, CliError};

/// Runs the soak scenario twice and renders the windowed report.
pub fn soak(args: &Args) -> Result<String, CliError> {
    let smoke = args.get_bool("smoke");
    let mut scenario = Scenario::soak(smoke);
    scenario.seed = args.get_parsed("seed", scenario.seed, "integer")?;
    scenario.replicas = args.get_parsed("replicas", scenario.replicas, "integer")?;
    let frames: u64 = args.get_parsed("frames", scenario.total_frames(), "integer")?;
    let window: u64 = args.get_parsed("window", scenario.scenes[0].count() as u64, "integer")?;
    // Bursts and fronts keep their relative positions in a resized run.
    scenario = scenario.with_windows(frames, window);
    let Traffic::Rig {
        rig,
        fronts,
        bursts,
    } = &mut scenario.traffic
    else {
        unreachable!("the soak recipe runs on rig traffic");
    };
    if args.get("rig").is_some() {
        // Keep the soak's trimmed ray budget on a user-chosen rig, and
        // drop bursts on mounts the new rig does not have.
        let (rings, azimuth) = if smoke { (12, 48) } else { (24, 72) };
        *rig = args.rig()?.with_resolution(rings, azimuth);
        bursts.retain(|b| rig.mounts().iter().any(|m| m.source == b.source));
    }
    if args.get("weather").is_some() {
        fronts.clear();
        fronts.push(sf_chaos::WeatherFront {
            frame: 0,
            weather: args.weather()?,
        });
    }

    let mut log = String::new();
    let _ = writeln!(
        log,
        "soak         : seed {:#x}, {frames} frames in {window}-frame windows, {} replicas, \
         {} rig mounts",
        scenario.seed,
        scenario.replicas,
        rig.len(),
    );
    let fronts: Vec<String> = fronts
        .iter()
        .map(|f| format!("{}@{}", f.weather, f.frame))
        .collect();
    let bursts: Vec<String> = bursts
        .iter()
        .map(|b| format!("src{}@{}+{}", b.source, b.frame, b.frames))
        .collect();
    let _ = writeln!(
        log,
        "schedule     : weather [{}], fault bursts [{}]",
        fronts.join(","),
        bursts.join(","),
    );
    run_and_render(&scenario, log, smoke, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(raw: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        soak(&Args::parse(&raw).unwrap())
    }

    #[test]
    fn smoke_soak_passes_every_invariant() {
        let log = run(&["soak", "--smoke"]).unwrap();
        assert!(log.contains("reproducible : yes"), "{log}");
        assert!(log.contains("invariants   : OK"), "{log}");
        assert!(log.contains("smoke        : OK"), "{log}");
        assert!(log.contains("source 1"), "{log}");
        // Six windows: the plateau was asserted, not skipped.
        assert!(log.contains("plateaued at checkpoint 1 of 6"), "{log}");
    }

    #[test]
    fn weather_and_rig_flags_reshape_the_scenario() {
        let log = run(&[
            "soak",
            "--smoke",
            "--weather",
            "snow:0.5",
            "--rig",
            "dual",
            "--frames",
            "120",
            "--window",
            "30",
        ])
        .unwrap();
        assert!(log.contains("snow:0.5@0"), "{log}");
        assert!(log.contains("2 rig mounts"), "{log}");
        assert!(log.contains("src1@12+12,src1@72+12"), "{log}");
        let bad = run(&["soak", "--smoke", "--weather", "plague:1.0"]);
        assert!(matches!(bad, Err(CliError::Args(_))), "{bad:?}");
    }

    #[test]
    fn undecidable_scenarios_are_rejected() {
        // The burst would end too close to the end of a 40-frame stream
        // for its breaker to recover.
        let bad = run(&["soak", "--smoke", "--frames", "40", "--window", "40"]);
        assert!(matches!(bad, Err(CliError::Invalid(_))), "{bad:?}");
    }
}
