//! Fleet behaviour end to end: per-slot breaker isolation, deterministic
//! routing with kill/redirect/revive, zero-downtime hot swaps with shadow
//! diffing, and shutdown ordering with a replica mid-panic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sf_core::{
    BreakerConfig, BreakerState, DegradationPolicy, FusionNet, FusionScheme, HealthIssue,
    NetworkConfig,
};
use sf_serve::{
    Backpressure, BatchProbe, DeployOptions, DispatchPolicy, Fleet, FleetConfig, Request,
    ServeConfig, ServeError, Server, ShadowConfig, SourceId,
};
use sf_tensor::{Tensor, TensorRng};

fn tiny_net() -> (FusionNet, NetworkConfig) {
    let config = NetworkConfig::tiny();
    let net = FusionNet::new(FusionScheme::AllFilterU, &config).expect("valid config");
    (net, config)
}

/// Same geometry, different weights: what a retrained checkpoint looks
/// like to the fleet.
fn retrained_net(config: &NetworkConfig) -> FusionNet {
    let mut reseeded = config.clone();
    reseeded.seed ^= 0xDEAD_BEEF;
    FusionNet::new(FusionScheme::AllFilterU, &reseeded).expect("valid config")
}

fn frame_pair(config: &NetworkConfig, seed: u64) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(seed);
    (
        rng.uniform(&[3, config.height, config.width], 0.0, 1.0),
        rng.uniform(&[1, config.height, config.width], 0.1, 1.0),
    )
}

fn request(config: &NetworkConfig, seed: u64, source: u64) -> Request {
    let (rgb, depth) = frame_pair(config, seed);
    Request::new(rgb, depth).with_source(SourceId(source))
}

/// A manually operated gate the executors park on (see
/// `tests/resilience.rs`); with a fleet, one gate stalls every replica.
struct Gate {
    state: Mutex<bool>,
    released: Condvar,
}

impl Gate {
    fn closed() -> Arc<Gate> {
        Arc::new(Gate {
            state: Mutex::new(false),
            released: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.state.lock().expect("gate poisoned") = true;
        self.released.notify_all();
    }

    fn probe(self: &Arc<Gate>) -> BatchProbe {
        let gate = Arc::clone(self);
        BatchProbe::new(move |_batch| {
            let mut open = gate.state.lock().expect("gate poisoned");
            while !*open {
                open = gate.released.wait(open).expect("gate poisoned");
            }
        })
    }
}

/// Satellite regression: one faulty source trips ONLY its own breaker —
/// healthy sources in the same stream keep fusing. Under the old
/// server-wide breaker, phase 2 forced camera-only on everyone.
#[test]
fn faulty_slot_trips_only_its_own_breaker() {
    let (net, config) = tiny_net();
    let breaker = BreakerConfig {
        window: 4,
        min_samples: 4,
        trip_threshold: 0.5,
        cooldown: 1000, // stay open for the whole test
        success_probes: 2,
        probe_chance: 1.0,
        seed: 41,
    };
    let server = Server::start(
        net,
        ServeConfig::builder()
            .max_batch(1)
            .max_wait(Duration::ZERO)
            .policy(DegradationPolicy::CameraFallback)
            .breaker(breaker)
            .build()
            .expect("valid serve config"),
    )
    .expect("valid serve config");
    let submit_and_wait = |seed: u64, source: u64, dead_depth: bool| {
        let (rgb, mut depth) = frame_pair(&config, seed);
        if dead_depth {
            depth = Tensor::zeros(depth.shape());
        }
        server
            .submit(Request::new(rgb, depth).with_source(SourceId(source)))
            .expect("queue has room")
            .wait()
            .expect("served")
    };
    // Phase 1 — source 1's depth sensor dies: four dead frames fill its
    // breaker window and trip it.
    for i in 0..4 {
        let p = submit_and_wait(100 + i, 1, true);
        assert_eq!(p.quarantined, Some(HealthIssue::ZeroEnergy));
    }
    // Phase 2 — source 2 stays healthy and MUST keep fusing.
    for i in 0..4 {
        let p = submit_and_wait(200 + i, 2, false);
        assert_eq!(
            p.quarantined, None,
            "healthy source pushed to camera-only by a neighbour's breaker"
        );
    }
    // Source 1, now with a healthy frame, is still forced camera-only by
    // its own open breaker.
    let p = submit_and_wait(300, 1, false);
    assert_eq!(p.quarantined, Some(HealthIssue::BreakerOpen));
    let (_, stats) = server.shutdown();
    assert_eq!(stats.breaker_state, Some(BreakerState::Open), "worst slot");
    assert_eq!(stats.breaker_trips, 1);
    let by_source: Vec<(Option<SourceId>, BreakerState)> = stats
        .breaker_slots
        .iter()
        .map(|s| (s.source, s.state))
        .collect();
    assert_eq!(
        by_source,
        vec![
            (Some(SourceId(1)), BreakerState::Open),
            (Some(SourceId(2)), BreakerState::Closed),
        ]
    );
    assert!(stats.is_conserved(), "{stats:?}");
}

#[test]
fn consistent_hash_pins_sources_and_kill_remaps_only_the_victim() {
    let (net, config) = tiny_net();
    let fleet = Fleet::start(
        net,
        FleetConfig {
            replicas: 3,
            dispatch: DispatchPolicy::ConsistentHash,
            seed: 7,
            ..FleetConfig::default()
        },
    )
    .expect("valid fleet config");
    // Each source lands on one replica, stably.
    let mut homes = Vec::new();
    for source in 0..6u64 {
        let first = fleet
            .submit(request(&config, source, source))
            .expect("routed");
        let home = first.replica();
        assert_eq!(fleet.route_preview(Some(SourceId(source))), Some(home));
        first.wait().expect("served");
        let again = fleet
            .submit(request(&config, 50 + source, source))
            .expect("routed");
        assert_eq!(again.replica(), home, "source {source} moved");
        again.wait().expect("served");
        homes.push(home);
    }
    assert!(
        homes.iter().any(|&h| h != homes[0]),
        "six sources all hashed to one replica: {homes:?}"
    );
    // Kill one replica: its sources remap, everyone else stays put.
    let victim = homes[0];
    assert!(fleet.kill(victim));
    for source in 0..6u64 {
        let completion = fleet
            .submit(request(&config, 100 + source, source))
            .expect("routed");
        if homes[source as usize] == victim {
            assert_ne!(completion.replica(), victim);
        } else {
            assert_eq!(
                completion.replica(),
                homes[source as usize],
                "survivor affinity must not move on a neighbour's death"
            );
        }
        completion.wait().expect("served");
    }
    // Revive: the victim's keys come straight back.
    assert!(fleet.revive(victim));
    for source in 0..6u64 {
        assert_eq!(
            fleet.route_preview(Some(SourceId(source))),
            Some(homes[source as usize])
        );
    }
    let (_, stats) = fleet.shutdown();
    assert_eq!(stats.completed, 18);
    assert_eq!(stats.failed + stats.redirected, 0);
    stats.cross_check().expect("router and replicas tally");
}

/// Kill a replica while its queue holds work: the queued requests fail
/// with `Aborted` inside the server and the fleet transparently redirects
/// them to the survivor — every waiter still gets a prediction.
#[test]
fn killing_a_replica_redirects_its_queued_work() {
    let (net, config) = tiny_net();
    let gate = Gate::closed();
    let fleet = Fleet::start(
        net,
        FleetConfig {
            replicas: 2,
            dispatch: DispatchPolicy::ConsistentHash,
            seed: 3,
            serve: ServeConfig::builder()
                .max_batch(1)
                .max_wait(Duration::ZERO)
                .queue_capacity(64)
                .batch_probe(gate.probe())
                .build()
                .expect("valid serve config"),
            ..FleetConfig::default()
        },
    )
    .expect("valid fleet config");
    // Find a source per replica and park both executors on a holder each.
    let source_for = |replica: usize| -> u64 {
        (0..64u64)
            .find(|&s| fleet.route_preview(Some(SourceId(s))) == Some(replica))
            .expect("some source hashes to each replica")
    };
    let (s0, s1) = (source_for(0), source_for(1));
    let holders: Vec<_> = [s0, s1]
        .iter()
        .map(|&s| fleet.submit(request(&config, 500 + s, s)).expect("routed"))
        .collect();
    // `batches` ticks just before the probe parks, so both executors hold
    // their claimed batch once each replica shows one.
    loop {
        let stats = fleet.stats();
        if stats.replicas.iter().all(|r| r.batches == 1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Queue work behind replica 0's parked executor, then kill it.
    let queued: Vec<_> = (0..4)
        .map(|i| {
            let completion = fleet.submit(request(&config, 600 + i, s0)).expect("routed");
            assert_eq!(completion.replica(), 0);
            completion
        })
        .collect();
    assert!(fleet.kill(0));
    gate.open();
    // The holder batches were already claimed: both must still finish
    // (mid-batch work survives a kill).
    for holder in holders {
        holder.wait().expect("claimed batches finish");
    }
    // The queued work was aborted by the kill and redirected to replica 1.
    for completion in queued {
        let prediction = completion.wait().expect("redirected and served");
        assert_eq!(prediction.source, Some(SourceId(s0)));
    }
    let (_, stats) = fleet.shutdown();
    assert_eq!(stats.redirected, 4, "{stats:?}");
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.failed, 0);
    stats.cross_check().expect("router and replicas tally");
}

#[test]
fn hot_swap_serves_through_the_deploy_with_zero_failures() {
    let (net, config) = tiny_net();
    let retrained = retrained_net(&config);
    let fleet = Fleet::start(
        net,
        FleetConfig {
            replicas: 2,
            dispatch: DispatchPolicy::ConsistentHash,
            seed: 11,
            serve: ServeConfig::builder()
                .max_batch(1)
                .max_wait(Duration::ZERO)
                .build()
                .expect("valid serve config"),
            ..FleetConfig::default()
        },
    )
    .expect("valid fleet config");
    let (probe_rgb, probe_depth) = frame_pair(&config, 9000);
    let probe = |fleet: &Fleet, source: u64| -> Tensor {
        fleet
            .submit(
                Request::new(probe_rgb.clone(), probe_depth.clone()).with_source(SourceId(source)),
            )
            .expect("routed")
            .wait()
            .expect("served")
            .prob
    };
    // Pre-deploy traffic on both replicas; remember the old model's answer.
    let sources: Vec<u64> = {
        let s0 = (0..64u64)
            .find(|&s| fleet.route_preview(Some(SourceId(s))) == Some(0))
            .expect("source for replica 0");
        let s1 = (0..64u64)
            .find(|&s| fleet.route_preview(Some(SourceId(s))) == Some(1))
            .expect("source for replica 1");
        vec![s0, s1]
    };
    let before = probe(&fleet, sources[0]);
    for i in 0..6 {
        let s = sources[i % 2];
        fleet
            .submit(request(&config, 700 + i as u64, s))
            .expect("routed")
            .wait()
            .expect("served");
    }
    // Deploy the retrained model mid-stream: no shadow, immediate promote.
    let version = fleet
        .deploy(retrained.clone(), DeployOptions::default())
        .expect("geometry matches");
    assert_eq!(version, 1);
    // Traffic continues; each replica claims the swap at its next batch.
    for i in 0..6 {
        let s = sources[i % 2];
        fleet
            .submit(request(&config, 800 + i as u64, s))
            .expect("routed")
            .wait()
            .expect("served through the swap");
    }
    let after = probe(&fleet, sources[0]);
    assert_ne!(
        before.data(),
        after.data(),
        "the retrained model must actually answer differently"
    );
    let (live_net, stats) = fleet.shutdown();
    assert_eq!(stats.failed, 0, "a hot swap must fail nothing: {stats:?}");
    assert_eq!(stats.redirected, 0);
    assert_eq!(stats.model_version, 1);
    assert_eq!(stats.promotions, 1);
    for replica in &stats.replicas {
        assert_eq!(replica.swaps, 1, "replica {} never swapped", replica.index);
        assert_eq!(replica.model_version, 1);
    }
    stats.cross_check().expect("router and replicas tally");
    // The fleet's live model is the retrained one (what a revive would
    // serve): same weights byte for byte.
    let mut live = live_net;
    let mut cand = retrained;
    let (mut live_bytes, mut cand_bytes) = (Vec::new(), Vec::new());
    sf_nn::Stateful::save_state(&mut live, &mut live_bytes).expect("serializable");
    sf_nn::Stateful::save_state(&mut cand, &mut cand_bytes).expect("serializable");
    assert_eq!(live_bytes, cand_bytes);
}

#[test]
fn deploy_from_path_loads_a_checkpoint_file_and_swaps() {
    let (net, config) = tiny_net();
    let mut retrained = retrained_net(&config);
    let path = std::env::temp_dir().join("sf_serve_deploy_from_path.sfm");
    sf_core::save_checkpoint(&mut retrained, &path).expect("checkpoint saved");
    let fleet = Fleet::start(
        net,
        FleetConfig {
            replicas: 1,
            serve: ServeConfig::builder()
                .max_batch(1)
                .max_wait(Duration::ZERO)
                .build()
                .expect("valid serve config"),
            ..FleetConfig::default()
        },
    )
    .expect("valid fleet config");
    // A missing file is a typed deploy failure, not a panic.
    let missing = fleet.deploy_from_path(
        std::path::Path::new("/definitely/not/here.sfm"),
        DeployOptions::default(),
    );
    assert!(matches!(missing, Err(ServeError::DeployFailed { .. })));
    // The real file deploys and serves.
    let version = fleet
        .deploy_from_path(&path, DeployOptions::default())
        .expect("checkpoint deploys");
    assert_eq!(version, 1);
    fleet
        .submit(request(&config, 1200, 0))
        .expect("routed")
        .wait()
        .expect("served by the deployed model");
    let (live, stats) = fleet.shutdown();
    assert_eq!(stats.model_version, 1);
    stats.cross_check().expect("tallies conserved");
    // The live model is byte-identical to the checkpointed one.
    let (mut live, mut cand) = (live, retrained);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    sf_nn::Stateful::save_state(&mut live, &mut a).expect("serializable");
    sf_nn::Stateful::save_state(&mut cand, &mut b).expect("serializable");
    assert_eq!(a, b);
    std::fs::remove_file(path).unwrap();
}

#[test]
fn shadow_deploy_of_identical_model_diffs_zero_and_promotes() {
    let (net, config) = tiny_net();
    let same_model = net.clone();
    let fleet = Fleet::start(
        net,
        FleetConfig {
            replicas: 1,
            serve: ServeConfig::builder()
                .max_batch(1)
                .max_wait(Duration::ZERO)
                .build()
                .expect("valid serve config"),
            ..FleetConfig::default()
        },
    )
    .expect("valid fleet config");
    let version = fleet
        .deploy(
            same_model,
            DeployOptions {
                shadow: Some(ShadowConfig {
                    fraction: 1.0,
                    required_samples: 4,
                    max_delta: 0.0, // identical weights must diff EXACTLY zero
                }),
            },
        )
        .expect("geometry matches");
    assert_eq!(version, 1);
    for i in 0..4 {
        fleet
            .submit(request(&config, 900 + i, i))
            .expect("routed")
            .wait()
            .expect("served");
    }
    let (_, stats) = fleet.shutdown();
    assert_eq!(stats.shadow_samples, 4);
    assert_eq!(stats.shadow_max_delta, 0.0, "bitwise-identical candidate");
    assert_eq!(stats.promotions, 1);
    assert_eq!(stats.deploy_aborts, 0);
    assert_eq!(stats.model_version, 1);
    stats.cross_check().expect("router and replicas tally");
}

#[test]
fn shadow_deploy_of_divergent_model_aborts_before_promotion() {
    let (net, config) = tiny_net();
    let divergent = retrained_net(&config);
    let fleet = Fleet::start(
        net,
        FleetConfig {
            replicas: 1,
            serve: ServeConfig::builder()
                .max_batch(1)
                .max_wait(Duration::ZERO)
                .build()
                .expect("valid serve config"),
            ..FleetConfig::default()
        },
    )
    .expect("valid fleet config");
    fleet
        .deploy(
            divergent,
            DeployOptions {
                shadow: Some(ShadowConfig {
                    fraction: 1.0,
                    required_samples: 4,
                    max_delta: 0.0,
                }),
            },
        )
        .expect("geometry matches");
    for i in 0..4 {
        fleet
            .submit(request(&config, 950 + i, i))
            .expect("routed")
            .wait()
            .expect("live serving is unaffected by the shadow abort");
    }
    let (_, stats) = fleet.shutdown();
    assert_eq!(stats.deploy_aborts, 1, "{stats:?}");
    assert_eq!(stats.promotions, 0);
    assert_eq!(
        stats.model_version, 0,
        "a diverging candidate must never go live"
    );
    assert!(stats.shadow_max_delta > 0.0);
    for replica in &stats.replicas {
        assert_eq!(replica.swaps, 0);
    }
    stats.cross_check().expect("router and replicas tally");
}

#[test]
fn seeded_probing_revives_a_dead_replica() {
    let (net, config) = tiny_net();
    let fleet = Fleet::start(
        net,
        FleetConfig {
            replicas: 2,
            dispatch: DispatchPolicy::ConsistentHash,
            seed: 13,
            revive_cooldown: 2,
            revive_probe_chance: 1.0, // every eligible probe revives
            serve: ServeConfig::builder()
                .max_batch(1)
                .max_wait(Duration::ZERO)
                .build()
                .expect("valid serve config"),
            ..FleetConfig::default()
        },
    )
    .expect("valid fleet config");
    let s0 = (0..64u64)
        .find(|&s| fleet.route_preview(Some(SourceId(s))) == Some(0))
        .expect("source for replica 0");
    assert!(fleet.kill(0));
    // During the cooldown, s0's traffic detours to the survivor.
    for i in 0..2 {
        let completion = fleet
            .submit(request(&config, 1000 + i, s0))
            .expect("routed");
        assert_eq!(completion.replica(), 1, "dead replica took traffic");
        completion.wait().expect("served");
    }
    // Past the cooldown the seeded probe fires and affinity returns.
    let revived = fleet.submit(request(&config, 1010, s0)).expect("routed");
    assert_eq!(revived.replica(), 0, "probe must revive and re-home s0");
    revived.wait().expect("served by the revived replica");
    let (_, stats) = fleet.shutdown();
    assert_eq!(stats.replicas[0].incarnations, 2);
    assert!(stats.replicas[0].alive);
    assert_eq!(stats.completed, 3);
    stats.cross_check().expect("router and replicas tally");
}

#[test]
fn all_dead_fleet_refuses_with_typed_error_and_counts_it() {
    let (net, config) = tiny_net();
    let fleet = Fleet::start(
        net,
        FleetConfig {
            replicas: 1,
            ..FleetConfig::default()
        },
    )
    .expect("valid fleet config");
    assert!(fleet.kill(0));
    match fleet.submit(request(&config, 1100, 0)) {
        Err(ServeError::NoHealthyReplica { replicas }) => assert_eq!(replicas, 1),
        other => panic!("expected NoHealthyReplica, got {:?}", other.map(|_| "Ok")),
    }
    let (_, stats) = fleet.shutdown();
    assert_eq!(stats.no_replica, 1);
    assert_eq!(stats.rejected, 1);
    stats.cross_check().expect("router and replicas tally");
}

/// Satellite regression, extending the PR-4 single-server shutdown test:
/// graceful fleet shutdown drains every replica, wakes submitters blocked
/// on full queues, and the final stats conserve even when a replica is
/// mid-panic while the shutdown runs.
/// A camera frame with a NaN or an infinity in it is refused where a bad
/// shape is — `Server::submit`, hence `Fleet::submit`, before admission —
/// under every policy: it reaches no batch, costs no ledger entry, and the
/// frames around it are served finite masks.
#[test]
fn a_non_finite_camera_frame_is_refused_before_admission_like_a_bad_shape() {
    for policy in [
        DegradationPolicy::Trust,
        DegradationPolicy::CameraFallback,
        DegradationPolicy::CameraOnly,
    ] {
        let (net, config) = tiny_net();
        let fleet = Fleet::start(
            net,
            FleetConfig {
                replicas: 2,
                seed: 5,
                serve: ServeConfig::builder()
                    .policy(policy)
                    .build()
                    .expect("valid serve config"),
                ..FleetConfig::default()
            },
        )
        .expect("valid fleet config");
        // The router's own counters (a replica's trail its last fulfil).
        let ledger = || {
            let s = fleet.stats();
            let ends = [s.completed, s.rejected, s.expired, s.failed];
            (s.submitted, ends, s.redirected, s.no_replica)
        };
        let refused = |request: Request, what: &str| {
            let before = ledger();
            match fleet.submit(request) {
                Err(ServeError::BadRequest { .. }) => {}
                other => panic!("{policy}: {what} must be refused, got {:?}", other.is_ok()),
            }
            assert_eq!(ledger(), before, "{policy}: {what} left a mark");
        };
        for (i, value) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let source = i as u64;
            let served = fleet
                .submit(request(&config, 40 + source, source))
                .expect("routed")
                .wait()
                .expect("served");
            assert!(!served.prob.has_non_finite(), "{policy}");
            let (mut rgb, depth) = frame_pair(&config, 50 + source);
            let last = rgb.numel() - 1;
            rgb.data_mut()[last] = value;
            refused(
                Request::new(rgb, depth.clone()).with_source(SourceId(source)),
                &format!("rgb with one {value}"),
            );
            let flat = Tensor::ones(&[1, config.height, config.width]);
            refused(Request::new(flat, depth), "a one-channel rgb");
        }
        let (_, stats) = fleet.shutdown();
        assert_eq!((stats.submitted, stats.completed), (3, 3), "{policy}");
        stats.cross_check().expect("router and replicas tally");
    }
}

#[test]
fn fleet_shutdown_wakes_blocked_submitters_and_conserves_mid_panic() {
    let (net, config) = tiny_net();
    let gate = Gate::closed();
    let panic_mode = Arc::new(AtomicBool::new(false));
    let probe = {
        let gate = Arc::clone(&gate);
        let panic_mode = Arc::clone(&panic_mode);
        BatchProbe::new(move |_batch| {
            let mut open = gate.state.lock().expect("gate poisoned");
            while !*open {
                open = gate.released.wait(open).expect("gate poisoned");
            }
            drop(open);
            if panic_mode.load(Ordering::SeqCst) {
                panic!("chaos: batch dies mid-shutdown");
            }
        })
    };
    let fleet = Arc::new(
        Fleet::start(
            net,
            FleetConfig {
                replicas: 2,
                dispatch: DispatchPolicy::ConsistentHash,
                seed: 3,
                serve: ServeConfig::builder()
                    .max_batch(1)
                    .max_wait(Duration::ZERO)
                    .queue_capacity(1)
                    .backpressure(Backpressure::Block)
                    .batch_probe(probe)
                    .build()
                    .expect("valid serve config"),
                ..FleetConfig::default()
            },
        )
        .expect("valid fleet config"),
    );
    let source_for = |replica: usize| -> u64 {
        (0..64u64)
            .find(|&s| fleet.route_preview(Some(SourceId(s))) == Some(replica))
            .expect("some source hashes to each replica")
    };
    let (s0, s1) = (source_for(0), source_for(1));
    // Park both executors on a holder, fill both capacity-1 queues, then
    // block a third submitter on replica 0's full queue.
    let mut pending = Vec::new();
    for &s in &[s0, s1] {
        pending.push(fleet.submit(request(&config, 1200 + s, s)).expect("holder"));
    }
    loop {
        let stats = fleet.stats();
        if stats.replicas.iter().all(|r| r.batches == 1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for &s in &[s0, s1] {
        pending.push(fleet.submit(request(&config, 1300 + s, s)).expect("queued"));
    }
    let blocked = {
        let fleet = Arc::clone(&fleet);
        let request = request(&config, 1400, s0);
        std::thread::spawn(move || fleet.submit(request))
    };
    std::thread::sleep(Duration::from_millis(100));
    // Close with every executor still parked: ONLY the shutdown wake-up
    // can release the blocked submitter.
    fleet.close();
    match blocked.join().expect("submitter thread panicked") {
        Err(ServeError::ShuttingDown) => {}
        other => panic!(
            "blocked submitter must see ShuttingDown, got {:?}",
            other.map(|_| "Ok")
        ),
    }
    // Flip every subsequent batch to panic, then release the executors:
    // the holders AND the queued drains all die mid-batch while the fleet
    // shuts down around them.
    panic_mode.store(true, Ordering::SeqCst);
    gate.open();
    let mut panicked = 0;
    for completion in pending {
        match completion.wait() {
            Err(ServeError::BatchPanicked { .. }) => panicked += 1,
            other => panic!("expected BatchPanicked, got {:?}", other.map(|_| "Ok")),
        }
    }
    assert_eq!(panicked, 4);
    let fleet = Arc::into_inner(fleet).expect("submitter released its handle");
    let (_, stats) = fleet.shutdown();
    assert_eq!(stats.failed, 4);
    assert_eq!(stats.completed, 0);
    assert!(stats.is_conserved(), "{stats:?}");
    stats.cross_check().expect("router and replicas tally");
}
