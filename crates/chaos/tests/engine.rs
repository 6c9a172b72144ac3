//! The engine's acceptance criteria, as tables: each row is a schedule and
//! the ledger / transition sequence it must produce. Every row runs twice
//! and must replay bit-identically; `run` itself already proved the
//! per-boundary conservation, cross-check and scene contracts, so a row
//! that returns at all has passed those.

use std::time::Duration;

use sf_chaos::WeatherFront;
use sf_chaos::{parse_scenes, run, run_twice, FaultBurst, Report, Scenario, Scene, Traffic};
use sf_core::{BreakerConfig, BreakerState};
use sf_scene::{Rig, Weather};
use sf_serve::DispatchPolicy;
use sf_tensor::testkit::check_cases;

fn scenes(spec: &str) -> Vec<Scene> {
    parse_scenes(spec).expect("row spec parses")
}

/// Runs a row twice, requires an identical replay, and re-asserts the
/// final ledger laws on the returned report.
fn replay(name: &str, scenario: &Scenario) -> Report {
    let (report, diverged) =
        run_twice(scenario).unwrap_or_else(|e| panic!("{name}: invariant broken: {e}"));
    assert_eq!(diverged, None, "{name}: replay of {}", report.fingerprint());
    assert!(
        report.ledger().is_conserved(),
        "{name}: {}",
        report.ledger()
    );
    report
        .stats
        .cross_check()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(report.checkpoints.len(), scenario.scenes.len(), "{name}");
    report
}

/// (completed, rejected, expired, failed) of the final ledger.
fn terminal(report: &Report) -> (u64, u64, u64, u64) {
    let l = report.ledger();
    (l.completed, l.rejected, l.expired, l.failed)
}

#[test]
fn schedules_produce_their_exact_ledgers() {
    let one = |spec: &str| {
        Scenario::chaos(1, false)
            .with_scenes(scenes(spec))
            .with_breaker(None)
    };
    let cap = Scenario::chaos(1, false).queue_capacity as u64;
    // name, scenario, (completed, rejected, expired, failed)
    let rows = [
        // With a generous deadline every terminal count is exact: calm +
        // corrupt + slow complete, panic fails typed, stale expires, and
        // the flood serves holder + one full queue and sheds its excess.
        (
            "every request-level kind",
            one("calm:3,corrupt:2,slow:2,panic:3,stale:4,flood:2").with_seed(3),
            (3 + 2 + 2 + 1 + cap, 2, 4, 3),
        ),
        (
            "stale then calm",
            one("stale:6,calm:2").with_seed(5),
            (2, 0, 6, 0),
        ),
        ("panics only", one("panic:4"), (0, 0, 0, 4)),
        ("calm only", one("calm:4"), (4, 0, 0, 0)),
        (
            "flood on two replicas, least-outstanding fills both queues",
            Scenario::chaos(2, false)
                .with_scenes(scenes("flood:3"))
                .with_dispatch(DispatchPolicy::LeastOutstanding),
            (2 + 2 * cap, 3, 0, 0),
        ),
        (
            "flood on two replicas, one hashed queue",
            Scenario::chaos(2, false).with_scenes(scenes("calm:2,flood:3")),
            (2 + 2 + cap, 3, 0, 0),
        ),
    ];
    let mut fingerprints = Vec::new();
    for (name, scenario, expected) in rows {
        let report = replay(name, &scenario);
        assert_eq!(terminal(&report), expected, "{name}");
        assert_eq!(report.ledger().redirected, 0, "{name}");
        fingerprints.push(report.fingerprint());
    }
    // The fingerprint encodes the schedule rather than being a constant.
    fingerprints.sort();
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), 6);
}

#[test]
fn stale_requests_never_occupy_forward_batches() {
    let scenario = Scenario::chaos(1, false)
        .with_seed(5)
        .with_scenes(scenes("stale:6,calm:2"))
        .with_breaker(None);
    let report = replay("stale", &scenario);
    let batches: u64 = report.stats.replicas.iter().map(|r| r.batches).sum();
    assert!(
        batches <= 2,
        "expired requests must not execute: {batches} batches"
    );
}

#[test]
fn breaker_trips_and_recovers_within_one_schedule() {
    // Small breaker so the cycle closes inside the schedule: 4 dead-depth
    // observations on source 0 trip it; source 0 comes round every 8th
    // calm frame, so 32 calm frames give it 2 open requests (reaching
    // half-open) and, with probe_chance 1.0, 2 healthy probes that close
    // it again.
    let breaker = BreakerConfig {
        window: 4,
        min_samples: 4,
        trip_threshold: 0.5,
        cooldown: 2,
        success_probes: 2,
        probe_chance: 1.0,
        seed: 17,
    };
    let scenario = Scenario::chaos(1, false)
        .with_seed(9)
        .with_scenes(scenes("corrupt:4,calm:32"))
        .with_breaker(Some(breaker));
    let report = replay("breaker cycle", &scenario);
    let states: Vec<_> = report.transitions().map(|t| (t.from, t.to)).collect();
    assert_eq!(
        states,
        vec![
            (BreakerState::Closed, BreakerState::Open),
            (BreakerState::Open, BreakerState::HalfOpen),
            (BreakerState::HalfOpen, BreakerState::Closed),
        ]
    );
    assert_eq!(report.source_trips[&0], 1);
    assert_eq!(
        report.stats.replicas[0].breaker_state,
        Some(BreakerState::Closed)
    );
    // The 4 corrupt requests were quarantined per input; the 2 open-state
    // calm requests were forced camera-only by the breaker.
    assert_eq!(report.quarantined(), 6);
    // Only the faulted source has a trip on record.
    assert!(report.source_trips.iter().all(|(&s, &t)| s == 0 || t == 0));
}

#[test]
fn tight_deadlines_under_slowdown_still_conserve() {
    // A 20 ms deadline against 60 ms batch slowdowns: requests expire at
    // dequeue or post-execution depending on timing — NOT reproducible,
    // and deliberately so. Every boundary must reconcile anyway.
    let scenario = Scenario::chaos(1, false)
        .with_seed(13)
        .with_scenes(vec![
            Scene::Slow {
                frames: 4,
                sleep_ms: 60,
            },
            Scene::Calm(2),
        ])
        .with_deadline(Some(Duration::from_millis(20)))
        .with_breaker(None);
    let report = run(&scenario).expect("invariants hold under expiry races");
    let ledger = report.ledger();
    assert!(ledger.is_conserved(), "{ledger}");
    assert_eq!(ledger.completed + ledger.expired, 6, "{ledger}");
}

#[test]
fn recipes_exercise_what_they_promise() {
    // The request-level recipe on one server trips the breaker.
    let single = replay("chaos recipe x1", &Scenario::chaos(1, false));
    assert!(
        single.source_trips[&0] >= 1,
        "corrupt scene must trip source 0"
    );
    assert!(single.transitions().count() >= 1);
    assert_eq!((single.kills, single.revives), (0, 0));
    // The same recipe on three replicas also kills, revives and deploys.
    let fleet = replay("chaos recipe x3", &Scenario::chaos(3, false));
    assert_eq!(fleet.kills, 2, "storm + deploystorm each kill one replica");
    assert_eq!(fleet.revives, 1);
    assert_eq!(fleet.ledger().failed, 3, "only the injected panics fail");
    assert_eq!(
        fleet.stats.promotions, 2,
        "deploystorm + shadow both promote"
    );
    assert_eq!(fleet.stats.deploy_aborts, 0);
    assert_eq!(fleet.stats.shadow_max_delta, 0.0);
    assert!(fleet.stats.shadow_samples >= 1);
    // CI-sized versions, on the fleet sizes ci.sh uses.
    for (replicas, seed) in [(1, 11), (2, 31)] {
        let smoke = replay("smoke", &Scenario::chaos(replicas, true).with_seed(seed));
        assert_eq!(smoke.stats.shadow_max_delta, 0.0);
        assert_eq!(smoke.kills, u64::from(replicas > 1));
    }
}

#[test]
fn both_dispatch_policies_redirect_a_killed_queue() {
    for dispatch in [
        DispatchPolicy::ConsistentHash,
        DispatchPolicy::LeastOutstanding,
    ] {
        let scenario = Scenario::chaos(3, false)
            .with_seed(17)
            .with_dispatch(dispatch)
            .with_scenes(scenes("calm:3,storm:4,revive:2,calm:2"));
        let report = replay(dispatch.label(), &scenario);
        assert_eq!(
            (report.kills, report.revives),
            (1, 1),
            "{}",
            dispatch.label()
        );
        assert!(
            report.ledger().redirected >= 1,
            "{}: the killed replica's queue must redirect",
            dispatch.label()
        );
        assert_eq!(report.ledger().failed, 0, "{}", dispatch.label());
        assert_eq!(report.stats.replicas[0].incarnations, 2);
    }
}

/// A test-sized rig scenario: 60 frames in 15-frame windows on a dual
/// rig, rain from frame 20, source 1 dead for frames 6..14.
fn small_soak() -> Scenario {
    Scenario {
        traffic: Traffic::Rig {
            rig: Rig::dual().with_resolution(8, 32),
            fronts: vec![WeatherFront {
                frame: 20,
                weather: Weather::rain(0.6),
            }],
            bursts: vec![FaultBurst {
                source: 1,
                frame: 6,
                frames: 8,
            }],
        },
        ..Scenario::soak(true).with_windows(60, 15)
    }
}

#[test]
fn soak_conserves_every_window_plateaus_and_cycles_the_burst_breaker() {
    let report = replay("small soak", &small_soak());
    assert_eq!(report.checkpoints.len(), 4);
    // Every frame fans out one leg per mount.
    assert_eq!(report.ledger().completed, 60 * 2);
    assert_eq!(report.checkpoints[1].ledger.completed, 30 * 2);
    // Four checkpoints: the plateau was asserted, in-process, next to
    // every other test in this binary.
    assert_eq!(report.plateau, 0, "{:?}", report.checkpoints);
    assert!(report.checkpoints[0].scratch_peak_bytes > 0);
    // The burst source tripped and (run asserts) re-closed; the clean
    // source never tripped.
    assert!(report.source_trips[&1] >= 1, "{:?}", report.source_trips);
    assert_eq!(report.source_trips[&0], 0, "{:?}", report.source_trips);
    let text = report.render();
    assert!(text.contains("source 1"), "{text}");
    assert!(text.contains("rain:0.6"), "{text}");
    // Conservation holds under any seed; the fingerprint need not match
    // across seeds (routing scores move).
    replay("small soak, other seed", &small_soak().with_seed(99));
}

#[test]
fn every_scene_kind_runs_on_rig_traffic_too() {
    // The scenes that queue more than one frame at once (flood, storm)
    // raise the arena's high-water mark by design, so on pooled rig
    // traffic they belong in the first quarter of the schedule.
    let scenario = small_soak().with_scenes(scenes(
        "flood:2,storm:2,revive:2,calm:20,corrupt:2,stale:2,panic:1,slow:1,shadow:2,calm:40",
    ));
    let report = replay("rig, all kinds", &scenario);
    assert_eq!(report.ledger().expired, 2 * 2);
    assert_eq!(report.ledger().failed, 2);
    assert_eq!(report.ledger().rejected, 2);
    assert_eq!((report.kills, report.revives), (1, 1));
}

/// Property: any valid scene list, on 1–3 replicas under either dispatch
/// policy, conserves at every boundary (or `run` errors) and replays to
/// the same fingerprint.
#[test]
fn random_valid_schedules_conserve_and_replay() {
    check_cases(24, |c| {
        let replicas = c.usize_in(1, 4);
        let dispatch = if c.rng().chance(0.5) {
            DispatchPolicy::ConsistentHash
        } else {
            DispatchPolicy::LeastOutstanding
        };
        let base = Scenario::chaos(replicas, true);
        let mut alive = replicas;
        let mut list = Vec::new();
        for _ in 0..c.usize_in(1, 7) {
            let n = c.usize_in(1, base.queue_capacity + 1);
            list.push(match c.usize_in(0, 9) {
                0 => Scene::Calm(n),
                1 => Scene::Corrupt(n),
                2 => Scene::Stale(n),
                3 => Scene::Panic(n),
                4 => Scene::Slow {
                    frames: n,
                    sleep_ms: 1,
                },
                5 => Scene::Flood(n),
                6 if alive > 1 => {
                    alive -= 1;
                    Scene::Storm {
                        frames: n,
                        deploy: c.rng().chance(0.5),
                    }
                }
                7 => {
                    alive = replicas;
                    Scene::Revive(n)
                }
                _ => Scene::Shadow(n),
            });
        }
        let scenario = base
            .with_seed(c.seed())
            .with_dispatch(dispatch)
            .with_scenes(list);
        let label = format!("case {} ({replicas} x {})", c.case, dispatch.label());
        let report = replay(&label, &scenario);
        for checkpoint in &report.checkpoints {
            assert!(checkpoint.ledger.is_conserved(), "{label}: {checkpoint:?}");
        }
    });
}
