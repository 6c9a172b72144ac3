//! `roadseg fleet-bench` — the closed-loop load generator, for one server
//! (`--replicas 1`) or a replica fleet.
//!
//! Spawns `--clients` synthetic client threads, each submitting
//! `--requests` tagged frame pairs to a [`Fleet`] of `--replicas`
//! servers and waiting for each prediction before sending the next
//! (closed loop), and reports client-side latency percentiles from
//! [`Prediction::latency`](sf_serve::Prediction). `--deadline-ms` gives
//! every request a deadline (an expiry is load shedding, not a client
//! failure) and `--breaker-threshold` arms the per-source depth breakers.
//! The main thread doubles as a fault controller: with
//! `--kill` it kills the highest-index replica a quarter of the way
//! through the run and revives it at the halfway mark; with `--deploy`
//! it hot-swaps a retrained model at the three-quarter mark,
//! and `--deploy-model <file.sfm>` swaps in a checkpoint *file* instead
//! (staging a retrained net there first if the file does not exist, so
//! CI runs are self-contained — quantized v3 checkpoints load
//! transparently through the same path). `--smoke`
//! fails unless every request was served, the fleet legs are conserved,
//! the router-vs-replica cross-check holds, and (with `--deploy`) the
//! swap promoted without a single failed leg.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sf_chaos::Ledger;
use sf_core::{BreakerConfig, FusionNet, NetworkConfig};
use sf_serve::{
    Backpressure, DeployOptions, Fleet, FleetConfig, FleetStats, Request, ServeConfig, ServeError,
    SourceId,
};
use sf_tensor::TensorRng;

use crate::commands::chaos::dispatch;
use crate::commands::network_config;
use crate::model_io::save_model;
use crate::{Args, CliError};

/// One client's outcome: the latency of every request it was served.
type ClientResult = Result<Vec<Duration>, ServeError>;

/// How long the fault controller waits for a completion milestone before
/// declaring the fleet stalled. Generous: milestones are fractions of a
/// run that itself completes in seconds.
const MILESTONE_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs the fleet benchmark and renders the final statistics table.
pub fn fleet_bench(args: &Args) -> Result<String, CliError> {
    let smoke = args.get_bool("smoke");
    let scheme = args.scheme()?;
    let policy = args.policy()?;
    let replicas: usize = args.get_parsed("replicas", 2, "integer")?;
    let dispatch = dispatch(args)?;
    let clients: usize = args.get_parsed("clients", 4, "integer")?;
    let requests: usize = args.get_parsed("requests", if smoke { 6 } else { 16 }, "integer")?;
    let max_batch: usize = args.get_parsed("max-batch", 4, "integer")?;
    let max_wait_ms: u64 = args.get_parsed("max-wait-ms", 2, "integer")?;
    let queue: usize = args.get_parsed("queue", 64, "integer")?;
    let fleet_seed: u64 = args.get_parsed("seed", 0xF1EE_BE9C, "integer")?;
    let deadline_ms: u64 = args.get_parsed("deadline-ms", 0, "integer")?;
    let kill = args.get_bool("kill");
    let deploy_model = args.get("deploy-model").map(str::to_string);
    let deploy = args.get_bool("deploy") || deploy_model.is_some();
    if clients == 0 || requests == 0 {
        return Err(CliError::Invalid(
            "fleet-bench needs at least one client and one request".to_string(),
        ));
    }
    if kill && replicas < 2 {
        return Err(CliError::Invalid(
            "--kill needs at least two replicas (someone must survive)".to_string(),
        ));
    }
    let config = if smoke {
        NetworkConfig::tiny()
    } else {
        network_config(args)?
    };
    let net = FusionNet::new(scheme, &config)?;
    let mut builder = ServeConfig::builder()
        .max_batch(max_batch)
        .max_wait(Duration::from_millis(max_wait_ms))
        .queue_capacity(queue)
        .backpressure(Backpressure::Block)
        .policy(policy);
    if deadline_ms > 0 {
        builder = builder.default_deadline(Duration::from_millis(deadline_ms));
    }
    if args.get("breaker-threshold").is_some() {
        let threshold = args.get_parsed("breaker-threshold", 0.5, "float")?;
        builder = builder.breaker(BreakerConfig::default().with_trip_threshold(threshold));
    }
    let serve = builder
        .build()
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    let fleet_config = FleetConfig {
        replicas,
        dispatch,
        seed: fleet_seed,
        serve,
        max_redirects: replicas.max(2),
        ..FleetConfig::default()
    };
    let fleet =
        Arc::new(Fleet::start(net, fleet_config).map_err(|e| CliError::Invalid(e.to_string()))?);

    // Pre-generate every client's inputs outside the timed window so the
    // req/s figure measures routing + serving, not the load generator's
    // random-tensor synthesis.
    let frames: Vec<Vec<_>> = (0..clients)
        .map(|client| {
            let mut rng = TensorRng::seed_from(0xF1EE ^ ((client as u64) << 8));
            (0..requests)
                .map(|_| sf_chaos::frame(&mut rng, &config))
                .collect()
        })
        .collect();
    let started = Instant::now();
    let workers: Vec<_> = frames
        .into_iter()
        .enumerate()
        .map(|(client, frames)| {
            let fleet = Arc::clone(&fleet);
            let source = SourceId(client as u64);
            std::thread::spawn(move || -> ClientResult {
                let mut served = Vec::with_capacity(frames.len());
                for (rgb, depth) in frames {
                    let request = Request::new(rgb, depth).with_source(source);
                    match fleet.submit(request)?.wait() {
                        // The source tag must round-trip through routing
                        // and the batcher to the prediction.
                        Ok(p) if p.source != Some(source) => {
                            return Err(ServeError::BadRequest {
                                reason: format!(
                                    "source tag lost in routing: sent {source:?}, got {:?}",
                                    p.source
                                ),
                            })
                        }
                        Ok(p) => served.push(p.latency),
                        // Under a --deadline-ms an expiry is expected load
                        // shedding, not a client failure; keep driving.
                        Err(ServeError::DeadlineExceeded { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
                Ok(served)
            })
        })
        .collect();

    // The fault controller runs on this thread while clients drive load:
    // each event waits for a fleet-wide completion milestone so events
    // land mid-run regardless of machine speed.
    let total = (clients * requests) as u64;
    let victim = replicas - 1;
    let mut events: Vec<String> = Vec::new();
    let wait_for = |target: u64| -> Result<(), CliError> {
        let deadline = Instant::now() + MILESTONE_TIMEOUT;
        // Terminal legs, not just completions: under --deadline-ms an
        // expired request still moves the run along.
        let settled = || {
            let s = fleet.stats();
            s.completed + s.expired
        };
        while settled() < target {
            if Instant::now() > deadline {
                return Err(CliError::Invalid(format!(
                    "fleet-bench stalled waiting for {target} settled requests (have {})",
                    settled()
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    };
    if kill {
        let kill_at = (total / 4).max(1);
        wait_for(kill_at)?;
        if fleet.kill(victim) {
            events.push(format!("kill r{victim} @ {kill_at}"));
        }
        let revive_at = (total / 2).max(2);
        wait_for(revive_at)?;
        if fleet.revive(victim) {
            events.push(format!("revive r{victim} @ {revive_at}"));
        }
    }
    if deploy {
        let deploy_at = (total * 3 / 4).max(1);
        wait_for(deploy_at)?;
        // A "retrained" model: same architecture, different init seed.
        // The swap happens at batch boundaries while clients keep
        // submitting — the point of the bench is that nobody notices.
        let mut retrained_config = config.clone();
        retrained_config.seed ^= 0xDEAD_BEEF;
        let mut retrained = FusionNet::new(scheme, &retrained_config)?;
        // File-based deploy: swap in whatever checkpoint sits at the path —
        // staging the retrained net there first when the file is absent
        // keeps smoke runs self-contained.
        let (version, origin) = match &deploy_model {
            Some(path) => {
                if !Path::new(path).exists() {
                    save_model(&mut retrained, path)?;
                }
                let options = DeployOptions::default();
                let version = fleet.deploy_from_path(Path::new(path), options);
                (version, format!(" (from {path})"))
            }
            None => (
                fleet.deploy(retrained, DeployOptions::default()),
                String::new(),
            ),
        };
        let version = version.map_err(|e| CliError::Invalid(format!("hot deploy failed: {e}")))?;
        events.push(format!("deploy v{version} @ {deploy_at}{origin}"));
    }

    let mut latencies = Vec::new();
    let mut first_error = None;
    for worker in workers {
        match worker.join() {
            Ok(Ok(served)) => latencies.extend(served),
            Ok(Err(e)) => first_error = first_error.or(Some(e)),
            Err(_) => {
                return Err(CliError::Invalid(
                    "a bench client thread panicked".to_string(),
                ))
            }
        }
    }
    let wall = started.elapsed();
    let served_total = latencies.len() as u64;
    let fleet = Arc::into_inner(fleet).expect("all client clones joined");
    let (_net, stats) = fleet.shutdown();

    if smoke {
        smoke_check(&stats, served_total, total, deploy, first_error.as_ref())?;
    }
    let mut log = String::new();
    let _ = writeln!(
        log,
        "fleet-bench  : {scheme} {}x{}, {replicas} replica(s) ({}), \
         {clients} client(s) x {requests} request(s)",
        config.width,
        config.height,
        dispatch.label()
    );
    let _ = writeln!(
        log,
        "per replica  : max_batch {max_batch}, max_wait {max_wait_ms} ms, queue {queue} (block)"
    );
    let _ = writeln!(
        log,
        "events       : {}",
        if events.is_empty() {
            "none".to_string()
        } else {
            events.join(", ")
        }
    );
    if let Some(e) = first_error {
        let _ = writeln!(log, "client error : {e}");
    }
    let _ = writeln!(log, "served       : {served_total}/{total}");
    let _ = writeln!(
        log,
        "wall time    : {:.1} ms  ({:.1} req/s)",
        wall.as_secs_f64() * 1e3,
        served_total as f64 / wall.as_secs_f64().max(1e-9)
    );
    latencies.sort();
    // Nearest-rank percentile of the client-observed latencies.
    let percentile_ms = |q: f64| {
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len().max(1));
        latencies
            .get(rank - 1)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    };
    let _ = writeln!(
        log,
        "latency (ms) : p50 {:.2}  p95 {:.2}  max {:.2}  (client side)",
        percentile_ms(0.50),
        percentile_ms(0.95),
        percentile_ms(1.0)
    );
    log.push_str(&render_fleet_stats(&stats));
    if smoke {
        let _ = writeln!(
            log,
            "smoke        : OK (all served, legs conserved, router/replica reconciled{})",
            if deploy { ", zero-downtime swap" } else { "" }
        );
    }
    Ok(log)
}

/// Fails the smoke run unless every request came back clean and the
/// fleet's books balance.
fn smoke_check(
    stats: &FleetStats,
    served: u64,
    expected: u64,
    deploy: bool,
    first_error: Option<&ServeError>,
) -> Result<(), CliError> {
    if let Some(e) = first_error {
        return Err(CliError::Invalid(format!("smoke: a client failed: {e}")));
    }
    if served != expected || stats.completed != expected || stats.rejected != 0 || stats.failed != 0
    {
        return Err(CliError::Invalid(format!(
            "smoke: expected {expected} clean completions, got served {served}, \
             completed {}, rejected {}, failed {}",
            stats.completed, stats.rejected, stats.failed
        )));
    }
    // Conservation is the cross-check's first identity.
    stats
        .cross_check()
        .map_err(|detail| CliError::Invalid(format!("smoke: cross-check failed: {detail}")))?;
    if deploy && (stats.promotions != 1 || stats.model_version != 1) {
        return Err(CliError::Invalid(format!(
            "smoke: hot deploy did not land cleanly (model v{}, {} promotions, {} aborts)",
            stats.model_version, stats.promotions, stats.deploy_aborts
        )));
    }
    Ok(())
}

/// Renders the fleet ledger plus one line per replica.
fn render_fleet_stats(stats: &FleetStats) -> String {
    let mut log = String::new();
    let _ = writeln!(log, "legs         : {}", Ledger::from(stats));
    let quarantined: u64 = stats.replicas.iter().map(|r| r.quarantined).sum();
    let batches: u64 = stats.replicas.iter().map(|r| r.batches).sum();
    let _ = writeln!(
        log,
        "batches      : {batches} (mean occupancy {:.2}, {quarantined} request(s) quarantined)",
        stats.completed as f64 / batches.max(1) as f64
    );
    let _ = writeln!(
        log,
        "model        : v{}  deploys {}  promotions {}  aborts {}",
        stats.model_version, stats.deploys, stats.promotions, stats.deploy_aborts
    );
    for r in &stats.replicas {
        let _ = writeln!(
            log,
            "replica {}    : {} inc {}  submitted {}  completed {}  batches {}  trips {}",
            r.index,
            if r.alive { "alive" } else { "dead " },
            r.incarnations,
            r.submitted,
            r.completed,
            r.batches,
            r.breaker_trips
        );
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(raw: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        fleet_bench(&Args::parse(&raw).unwrap())
    }

    #[test]
    fn smoke_serves_every_request_on_one_server_and_across_replicas() {
        // (replicas, clients, requests)
        for (replicas, clients, requests) in [("1", "4", "8"), ("2", "3", "4")] {
            let log = run(&[
                "fleet-bench",
                "--smoke",
                "--replicas",
                replicas,
                "--clients",
                clients,
                "--requests",
                requests,
            ])
            .unwrap();
            let total = clients.parse::<u64>().unwrap() * requests.parse::<u64>().unwrap();
            assert!(
                log.contains(&format!("served       : {total}/{total}")),
                "{log}"
            );
            assert!(log.contains(&format!("{replicas} replica(s)")), "{log}");
            assert!(log.contains("+ rejected 0 + expired 0 + failed 0"), "{log}");
            assert!(log.contains("latency (ms) : p50"), "{log}");
            assert!(log.contains("smoke        : OK"), "{log}");
        }
    }

    #[test]
    fn deadlines_and_breakers_ride_on_the_one_load_generator() {
        let log = run(&[
            "fleet-bench",
            "--smoke",
            "--replicas",
            "1",
            "--deadline-ms",
            "10000",
            "--breaker-threshold",
            "0.5",
        ])
        .unwrap();
        // A generous deadline sheds nothing; the breaker bank is armed
        // (and, on healthy frames, stays closed).
        assert!(log.contains("served       : 24/24"), "{log}");
        assert!(log.contains("trips 0"), "{log}");
    }

    #[test]
    fn kill_and_deploy_mid_run_stay_clean() {
        let log = run(&[
            "fleet-bench",
            "--smoke",
            "--kill",
            "--deploy",
            "--replicas",
            "3",
            "--clients",
            "4",
            "--requests",
            "6",
        ])
        .unwrap();
        assert!(log.contains("kill r2"), "{log}");
        assert!(log.contains("revive r2"), "{log}");
        assert!(log.contains("deploy v1"), "{log}");
        assert!(log.contains("served       : 24/24"), "{log}");
        assert!(log.contains("zero-downtime swap"), "{log}");
    }

    #[test]
    fn deploy_model_swaps_in_a_checkpoint_file() {
        let path = std::env::temp_dir().join("sf_cli_fleet_deploy_model.sfm");
        let _ = std::fs::remove_file(&path);
        let log = run(&[
            "fleet-bench",
            "--smoke",
            "--deploy-model",
            path.to_str().unwrap(),
            "--clients",
            "2",
            "--requests",
            "4",
        ])
        .unwrap();
        assert!(log.contains("deploy v1"), "{log}");
        assert!(log.contains("(from "), "{log}");
        assert!(log.contains("zero-downtime swap"), "{log}");
        // The staged checkpoint is a real loadable model file.
        assert!(crate::model_io::load_model(&path).is_ok());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn lethal_or_empty_configs_are_rejected() {
        assert!(matches!(
            run(&["fleet-bench", "--smoke", "--clients", "0"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            run(&["fleet-bench", "--smoke", "--kill", "--replicas", "1"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            run(&["fleet-bench", "--smoke", "--dispatch", "mystery"]),
            Err(CliError::Invalid(_))
        ));
    }
}
