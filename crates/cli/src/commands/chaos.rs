//! `roadseg chaos` — run a seeded fault schedule through the one chaos
//! engine and report the ledger, breaker log and invariant verdicts.
//!
//! `--replicas` picks the fleet size (a single server is a fleet of one;
//! the default recipe leaves its kill storms out there), `--scenes` takes
//! the unified grammar (`calm|corrupt|stale|panic|slow|flood|storm|
//! deploystorm|revive|shadow`). The scenario always runs **twice**: with
//! the default generous deadline the fingerprints must match bit-for-bit,
//! which turns reproducibility itself into a checked invariant. With a
//! user-tightened `--deadline-ms`, expiry becomes timing-dependent and a
//! mismatch is reported but tolerated — except under `--smoke`.

use std::fmt::Write as _;
use std::time::Duration;

use sf_chaos::{parse_scenes, Scenario};
use sf_serve::DispatchPolicy;

use crate::{Args, CliError};

/// Default deadline given to chaos requests, far above tiny-net batch
/// latency so expiry stays deterministic (only `stale` scenes expire).
const DEFAULT_DEADLINE_MS: u64 = 10_000;

/// Parses `--dispatch`, defaulting to consistent hashing.
pub(super) fn dispatch(args: &Args) -> Result<DispatchPolicy, CliError> {
    let spec = args.get("dispatch").unwrap_or("hash");
    DispatchPolicy::parse(spec).ok_or_else(|| {
        CliError::Invalid(format!(
            "unknown dispatch policy {spec:?} (expected hash|least)"
        ))
    })
}

/// Runs `scenario` twice and renders `header` plus the first report and
/// the verdict lines. A diverging replay is an error unless `may_vary`.
pub(super) fn run_and_render(
    scenario: &Scenario,
    mut log: String,
    smoke: bool,
    may_vary: bool,
) -> Result<String, CliError> {
    let (report, diverged) =
        sf_chaos::run_twice(scenario).map_err(|e| CliError::Invalid(e.to_string()))?;
    if let (Some(second), false) = (&diverged, may_vary) {
        return Err(CliError::Invalid(format!(
            "runs diverged under a deterministic scenario:\n  run 1: {}\n  run 2: {second}",
            report.fingerprint()
        )));
    }
    log.push_str(&report.render());
    let _ = writeln!(
        log,
        "reproducible : {}",
        if diverged.is_none() {
            "yes (identical ledger, checkpoints and breaker log across 2 runs)"
        } else {
            "no (expiry is timing-dependent under this deadline)"
        }
    );
    let _ = writeln!(
        log,
        "invariants   : OK (every scene boundary conserved + router/replica reconciled, scene \
         contracts held, scratch peak plateaued, breakers on schedule, pool alive)"
    );
    if smoke {
        let _ = writeln!(log, "smoke        : OK");
    }
    Ok(log)
}

/// Runs the chaos schedule twice and renders the report.
pub fn chaos(args: &Args) -> Result<String, CliError> {
    let smoke = args.get_bool("smoke");
    let replicas: usize = args.get_parsed("replicas", 1, "integer")?;
    let mut scenario = Scenario::chaos(replicas, smoke).with_dispatch(dispatch(args)?);
    scenario.seed = args.get_parsed("seed", scenario.seed, "integer")?;
    if let Some(spec) = args.get("scenes") {
        scenario.scenes = parse_scenes(spec).map_err(CliError::Invalid)?;
    }
    let deadline_ms: u64 = args.get_parsed("deadline-ms", DEFAULT_DEADLINE_MS, "integer")?;
    scenario.deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
    if args.get_bool("no-breaker") {
        scenario.breaker = None;
    } else if let Some(breaker) = &mut scenario.breaker {
        breaker.trip_threshold =
            args.get_parsed("breaker-threshold", breaker.trip_threshold, "float")?;
        breaker.window = args.get_parsed("breaker-window", breaker.window, "integer")?;
        breaker.cooldown = args.get_parsed("breaker-cooldown", breaker.cooldown, "integer")?;
        // A window shorter than min_samples would be unconditionally
        // invalid; shrinking the window implies the user wants trips to
        // be possible within it.
        breaker.min_samples = breaker.min_samples.min(breaker.window);
    }
    scenario.queue_capacity = args.get_parsed("queue", scenario.queue_capacity, "integer")?;
    scenario.max_batch = args.get_parsed("max-batch", scenario.max_batch, "integer")?;

    let scenes: Vec<String> = scenario.scenes.iter().map(|s| s.to_string()).collect();
    let mut log = String::new();
    let _ = writeln!(
        log,
        "chaos        : seed {:#x}, {} replica(s), {} dispatch, scenes [{}]",
        scenario.seed,
        scenario.replicas,
        scenario.dispatch.label(),
        scenes.join(",")
    );
    let _ = writeln!(
        log,
        "deadline     : {}",
        match scenario.deadline {
            Some(d) => format!("{} ms default", d.as_millis()),
            None => "none".to_string(),
        }
    );
    // A tightened deadline makes expiry timing-dependent on purpose; with
    // the deterministic default, a mismatch is a real bug.
    let may_vary = !smoke && (1..1_000).contains(&deadline_ms);
    run_and_render(&scenario, log, smoke, may_vary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(raw: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        chaos(&Args::parse(&raw).unwrap())
    }

    #[test]
    fn smoke_runs_pass_on_one_replica_and_on_a_fleet() {
        // args, substrings the log must contain
        let rows: [(&[&str], &[&str]); 2] = [
            (
                &["chaos", "--smoke"],
                &["1 replica(s)", "flood:2", "kills 0"],
            ),
            (
                &["chaos", "--smoke", "--replicas", "2"],
                &[
                    "2 replica(s)",
                    "deploystorm:2",
                    "kills 1",
                    "revives 1",
                    "promotions 2",
                ],
            ),
        ];
        for (args, expected) in rows {
            let log = run(args).unwrap();
            for needle in expected.iter().chain(&[
                "reproducible : yes",
                "invariants   : OK",
                "smoke        : OK",
            ]) {
                assert!(
                    log.contains(needle),
                    "{args:?}: missing {needle:?} in\n{log}"
                );
            }
        }
    }

    #[test]
    fn custom_scene_spec_and_no_breaker() {
        let log = run(&[
            "chaos",
            "--scenes",
            "calm:2,stale:2",
            "--no-breaker",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(log.contains("breaker disabled"), "{log}");
        assert!(log.contains("expired 2"), "{log}");
    }

    #[test]
    fn small_breaker_window_clamps_min_samples_and_trips() {
        // Regression: --breaker-window below min_samples used to be
        // rejected outright; now it clamps and the breaker can actually
        // trip within the shortened window.
        let log = run(&[
            "chaos",
            "--scenes",
            "corrupt:3,calm:24",
            "--breaker-threshold",
            "0.25",
            "--breaker-window",
            "2",
            "--breaker-cooldown",
            "2",
        ])
        .unwrap();
        assert!(log.contains("trips 1"), "{log}");
        assert!(log.contains("reproducible : yes"), "{log}");
    }

    #[test]
    fn bad_specs_lethal_schedules_and_bad_policies_are_rejected() {
        for args in [
            &["chaos", "--scenes", "riot:9"][..],
            &["chaos", "--replicas", "1", "--scenes", "storm:2"],
            &["chaos", "--replicas", "2", "--dispatch", "round-robin"],
        ] {
            assert!(matches!(run(args), Err(CliError::Invalid(_))), "{args:?}");
        }
    }
}
