//! Dynamic-batcher behaviour: deadline flush, max-batch flush, shutdown
//! drain, mixed-health batches, backpressure, and panic isolation.

use std::time::Duration;

use sf_core::{DegradationPolicy, FusionNet, FusionScheme, HealthIssue, NetworkConfig};
use sf_serve::{Backpressure, BatchProbe, Request, ServeConfig, ServeError, Server};
use sf_tensor::{Tensor, TensorRng};

fn tiny_net() -> (FusionNet, NetworkConfig) {
    let config = NetworkConfig::tiny();
    let net = FusionNet::new(FusionScheme::AllFilterU, &config).expect("valid config");
    (net, config)
}

fn frame_pair(config: &NetworkConfig, seed: u64) -> (Tensor, Tensor) {
    let mut rng = TensorRng::seed_from(seed);
    (
        rng.uniform(&[3, config.height, config.width], 0.0, 1.0),
        rng.uniform(&[1, config.height, config.width], 0.1, 1.0),
    )
}

#[test]
fn deadline_flush_serves_a_single_straggler() {
    let (net, config) = tiny_net();
    let server = Server::start(
        net,
        ServeConfig::builder()
            .max_batch(8)
            .max_wait(Duration::from_millis(20))
            .build()
            .expect("valid serve config"),
    )
    .expect("valid serve config");
    // One lone request can never fill max_batch; only the deadline can
    // flush it.
    let (rgb, depth) = frame_pair(&config, 1);
    let prediction = server
        .submit(Request::new(rgb, depth))
        .expect("queue has room")
        .wait()
        .expect("straggler must be served");
    assert_eq!(prediction.batch_size, 1, "nothing else arrived to batch");
    assert_eq!(prediction.prob.shape(), &[config.height, config.width]);
    assert!(
        prediction.latency >= Duration::from_millis(20),
        "the straggler waited out the deadline: {:?}",
        prediction.latency
    );
    let (_, stats) = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.batches, 1);
}

#[test]
fn burst_flushes_on_max_batch_before_the_deadline() {
    let (net, config) = tiny_net();
    let server = Server::start(
        net,
        ServeConfig::builder()
            .max_batch(4)
            .queue_capacity(64)
            // A deadline far beyond test patience: only max_batch can
            // flush these requests promptly.
            .max_wait(Duration::from_secs(30))
            .build()
            .expect("valid serve config"),
    )
    .expect("valid serve config");
    let completions: Vec<_> = (0..8)
        .map(|i| {
            let (rgb, depth) = frame_pair(&config, 100 + i);
            server
                .submit(Request::new(rgb, depth))
                .expect("queue has room")
        })
        .collect();
    for completion in completions {
        let prediction = completion.wait().expect("burst request served");
        assert_eq!(
            prediction.batch_size, 4,
            "burst must be served in full max_batch batches"
        );
        assert!(
            prediction.latency < Duration::from_secs(10),
            "flushing cannot have waited for the deadline"
        );
    }
    let (_, stats) = server.shutdown();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.batches, 2);
    assert!((stats.mean_batch_occupancy - 4.0).abs() < 1e-12);
}

#[test]
fn shutdown_drains_every_queued_request() {
    let (net, config) = tiny_net();
    let server = Server::start(
        net,
        ServeConfig::builder()
            .max_batch(4)
            .queue_capacity(64)
            .max_wait(Duration::from_secs(30))
            .build()
            .expect("valid serve config"),
    )
    .expect("valid serve config");
    // 6 requests: one full batch of 4 plus a partial batch of 2 that only
    // the shutdown drain can flush (the deadline is far away and nothing
    // else will arrive).
    let completions: Vec<_> = (0..6)
        .map(|i| {
            let (rgb, depth) = frame_pair(&config, 200 + i);
            server
                .submit(Request::new(rgb, depth))
                .expect("queue has room")
        })
        .collect();
    let (_, stats) = server.shutdown();
    assert_eq!(stats.completed, 6, "shutdown must drain the whole queue");
    assert_eq!(stats.failed, 0);
    for completion in completions {
        assert!(
            completion.wait().is_ok(),
            "every queued request must be fulfilled by the drain"
        );
    }
}

#[test]
fn shutdown_wakes_blocked_submitters_and_returns_a_reusable_net() {
    let (net, config) = tiny_net();
    let server = std::sync::Arc::new(
        Server::start(
            net,
            ServeConfig::builder()
                .max_batch(2)
                .queue_capacity(1)
                .backpressure(Backpressure::Block)
                .max_wait(Duration::from_secs(30))
                .build()
                .expect("valid serve config"),
        )
        .expect("valid serve config"),
    );
    // r1 goes straight into the forming batch (which then waits ~30s for
    // a partner); r2 fills the capacity-1 queue; r3 blocks.
    let submit_start = std::time::Instant::now();
    let (rgb, depth) = frame_pair(&config, 20);
    let c1 = server
        .submit(Request::new(rgb, depth))
        .expect("first is admitted");
    let (rgb, depth) = frame_pair(&config, 21);
    let c2 = server
        .submit(Request::new(rgb, depth))
        .expect("second fills the queue");
    // Liveness: the batcher must announce freed queue slots immediately,
    // not after its batching window — a blocked submit may not sleep
    // anywhere near the 30s max_wait.
    assert!(
        submit_start.elapsed() < Duration::from_secs(10),
        "submits must not wait out the batching window: {:?}",
        submit_start.elapsed()
    );
    let blocked = {
        let server = std::sync::Arc::clone(&server);
        let (rgb, depth) = frame_pair(&config, 22);
        std::thread::spawn(move || server.submit(Request::new(rgb, depth)).map(|c| c.wait()))
    };
    // Give the spawned submitter time to block on the full queue, then
    // initiate shutdown through the shared handle.
    std::thread::sleep(Duration::from_millis(100));
    server.close();
    // The blocked submitter must be woken with the typed shutdown error
    // (or, if a spurious wake freed a slot first, served by the drain).
    match blocked.join().expect("submitter thread panicked") {
        Err(ServeError::ShuttingDown) => {}
        Ok(Ok(_)) => {}
        other => panic!("blocked submitter saw {other:?}"),
    }
    let server = std::sync::Arc::into_inner(server).expect("submitter released its handle");
    let (net, stats) = server.shutdown();
    // The in-flight requests were drained.
    assert!(c1.wait().is_ok());
    assert!(c2.wait().is_ok());
    assert_eq!(stats.failed, 0);
    // The returned network is immediately reusable by a fresh server.
    let server = Server::start(net, ServeConfig::default()).expect("valid serve config");
    let (rgb, depth) = frame_pair(&config, 23);
    assert!(server
        .submit(Request::new(rgb, depth))
        .expect("accepts")
        .wait()
        .is_ok());
    server.shutdown();
}

#[test]
fn mixed_health_batch_degrades_only_the_quarantined_slot() {
    let (net, config) = tiny_net();
    let server = Server::start(
        net,
        ServeConfig::builder()
            .max_batch(4)
            .max_wait(Duration::from_secs(30))
            .policy(DegradationPolicy::CameraFallback)
            .build()
            .expect("valid serve config"),
    )
    .expect("valid serve config");
    let mut pairs: Vec<(Tensor, Tensor)> = (0..4).map(|i| frame_pair(&config, 300 + i)).collect();
    // Kill exactly slot 2's depth sensor.
    pairs[2].1 = Tensor::zeros(pairs[2].1.shape());
    let completions: Vec<_> = pairs
        .iter()
        .map(|(rgb, depth)| {
            server
                .submit(Request::new(rgb.clone(), depth.clone()))
                .expect("queue has room")
        })
        .collect();
    let predictions: Vec<_> = completions
        .into_iter()
        .map(|c| c.wait().expect("mixed batch served"))
        .collect();
    for (i, prediction) in predictions.iter().enumerate() {
        assert_eq!(prediction.batch_size, 4, "one batch serves all four");
        assert_eq!(
            prediction.quarantined,
            (i == 2).then_some(HealthIssue::ZeroEnergy),
            "slot {i} quarantine verdict"
        );
    }
    let (net, stats) = server.shutdown();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.completed, 4);
    // The quarantined slot must match the *explicit* camera-only score:
    // serve the same frame through a forced camera-only server and
    // compare within 1e-6 (they are in fact bit-identical).
    let reference_server = Server::start(
        net,
        ServeConfig::builder()
            .policy(DegradationPolicy::CameraOnly)
            .build()
            .expect("valid serve config"),
    )
    .expect("valid serve config");
    let reference = reference_server
        .submit(Request::new(pairs[2].0.clone(), pairs[2].1.clone()))
        .expect("queue has room")
        .wait()
        .expect("reference served");
    assert_eq!(reference.quarantined, Some(HealthIssue::ForcedCameraOnly));
    let served = predictions[2].prob.data();
    let explicit = reference.prob.data();
    assert_eq!(served.len(), explicit.len());
    for (k, (a, b)) in served.iter().zip(explicit).enumerate() {
        assert!(
            (a - b).abs() < 1e-6,
            "pixel {k}: served {a} vs explicit camera-only {b}"
        );
    }
    // Healthy slots must NOT match camera-only (the fusion path ran).
    let healthy_diff = predictions[0]
        .prob
        .data()
        .iter()
        .zip(explicit)
        .any(|(a, b)| (a - b).abs() > 1e-6);
    assert!(healthy_diff, "healthy slots must keep fusing depth");
    reference_server.shutdown();
}

#[test]
fn reject_backpressure_sheds_load_with_a_typed_error() {
    let (net, config) = tiny_net();
    let server = Server::start(
        net,
        ServeConfig::builder()
            .max_batch(1)
            .queue_capacity(1)
            .backpressure(Backpressure::Reject)
            .max_wait(Duration::ZERO)
            .build()
            .expect("valid serve config"),
    )
    .expect("valid serve config");
    // Flood a capacity-1 queue behind a batch-of-1 executor: submits are
    // microseconds, forwards are milliseconds, so some submit must find
    // the queue occupied.
    let mut accepted = Vec::new();
    let mut saw_queue_full = false;
    for i in 0..2000 {
        let (rgb, depth) = frame_pair(&config, 400 + i);
        match server.submit(Request::new(rgb, depth)) {
            Ok(completion) => accepted.push(completion),
            Err(ServeError::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                saw_queue_full = true;
                break;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(
        saw_queue_full,
        "2000 rapid submits against a capacity-1 queue must hit QueueFull"
    );
    let (_, stats) = server.shutdown();
    assert_eq!(stats.rejected, 1, "each rejection is counted");
    assert_eq!(stats.completed, accepted.len() as u64);
    for completion in accepted {
        assert!(completion.wait().is_ok(), "accepted requests still finish");
    }
}

#[test]
fn block_backpressure_serves_everything_without_rejections() {
    let (net, config) = tiny_net();
    let server = std::sync::Arc::new(
        Server::start(
            net,
            ServeConfig::builder()
                .max_batch(2)
                .queue_capacity(1)
                .backpressure(Backpressure::Block)
                .max_wait(Duration::from_millis(1))
                .build()
                .expect("valid serve config"),
        )
        .expect("valid serve config"),
    );
    // Two closed-loop clients push 8 requests each through a capacity-1
    // queue; Block must absorb the overload without dropping anything.
    let mut clients = Vec::new();
    for client in 0..2u64 {
        let server = std::sync::Arc::clone(&server);
        let config = config.clone();
        clients.push(std::thread::spawn(move || {
            let mut served = 0u64;
            for i in 0..8 {
                let (rgb, depth) = frame_pair(&config, 500 + 100 * client + i);
                let completion = server
                    .submit(Request::new(rgb, depth))
                    .expect("Block never rejects while running");
                completion.wait().expect("request served");
                served += 1;
            }
            served
        }));
    }
    let total: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("client thread panicked"))
        .sum();
    assert_eq!(total, 16);
    let server = std::sync::Arc::into_inner(server).expect("clients joined");
    let (_, stats) = server.shutdown();
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.rejected, 0, "Block must never reject");
    assert_eq!(stats.failed, 0);
}

#[test]
fn panic_in_one_batch_fails_only_that_batch() {
    let (net, config) = tiny_net();
    // The first batch panics via the injected probe; the compiled-plan
    // executor must fail exactly that batch's requests and keep serving.
    let server = Server::start(
        net,
        ServeConfig::builder()
            .max_batch(1)
            .max_wait(Duration::ZERO)
            .batch_probe(BatchProbe::new(|batch| {
                if batch == 0 {
                    panic!("injected batch panic");
                }
            }))
            .build()
            .expect("valid serve config"),
    )
    .expect("valid serve config");
    let (rgb, depth) = frame_pair(&config, 599);
    let poisoned = server
        .submit(Request::new(rgb, depth))
        .expect("queue has room");
    match poisoned.wait() {
        Err(ServeError::BatchPanicked { .. }) => {}
        other => panic!("poisoned batch must fail typed, got {other:?}"),
    }
    // A frame pair with *mismatched* rgb/depth resolutions slips past
    // validation via the unchecked door; the compiled plan rejects the
    // bad geometry with a typed error instead of panicking.
    let mut rng = TensorRng::seed_from(999);
    let bad = server
        .submit_unchecked(Request::new(
            rng.uniform(&[3, config.height, config.width], 0.0, 1.0),
            rng.uniform(&[1, config.height * 2, config.width * 2], 0.1, 1.0),
        ))
        .expect("queue has room");
    match bad.wait() {
        Err(ServeError::BadRequest { .. }) => {}
        other => panic!("bad geometry must fail typed, got {other:?}"),
    }
    // The very next healthy request must be served normally.
    let (rgb, depth) = frame_pair(&config, 600);
    let healthy = server
        .submit(Request::new(rgb, depth))
        .expect("server still accepts")
        .wait()
        .expect("server must survive a panicked batch");
    assert_eq!(healthy.prob.shape(), &[config.height, config.width]);
    let (_, stats) = server.shutdown();
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.batches, 3);
}

#[test]
fn invalid_config_and_bad_shapes_are_rejected_up_front() {
    let (net, config) = tiny_net();
    assert!(
        ServeConfig::builder().max_batch(0).build().is_err(),
        "builder must reject zero max_batch at build"
    );
    let bad = ServeConfig {
        max_batch: 0,
        ..ServeConfig::default()
    };
    match Server::start(net, bad) {
        Err(ServeError::InvalidConfig { .. }) => {}
        other => panic!("zero max_batch must fail, got {:?}", other.is_ok()),
    }
    let (net, _) = tiny_net();
    let server = Server::start(net, ServeConfig::default()).expect("valid serve config");
    let bad_rgb = Tensor::ones(&[1, config.height, config.width]);
    let depth = Tensor::ones(&[1, config.height, config.width]);
    match server.submit(Request::new(bad_rgb, depth)) {
        Err(ServeError::BadRequest { .. }) => {}
        other => panic!("wrong rgb shape must be rejected, got {:?}", other.is_ok()),
    }
    let rgb = Tensor::ones(&[3, config.height, config.width]);
    let bad_depth = Tensor::ones(&[2, config.height, config.width]);
    match server.submit(Request::new(rgb, bad_depth)) {
        Err(ServeError::BadRequest { .. }) => {}
        other => panic!(
            "wrong depth shape must be rejected, got {:?}",
            other.is_ok()
        ),
    }
    for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let (mut rgb, depth) = frame_pair(&config, 7);
        rgb.data_mut()[0] = value;
        match server.submit(Request::new(rgb, depth)) {
            Err(ServeError::BadRequest { .. }) => {}
            other => panic!(
                "rgb with a {value} must be rejected, got {:?}",
                other.is_ok()
            ),
        }
    }
    let (_, stats) = server.shutdown();
    assert_eq!(stats.submitted, 0, "refusals come before admission");
}

#[test]
fn batched_results_are_identical_to_batch_of_one_serving() {
    // The correctness half of the serving pitch: coalescing requests into
    // batches must not change any request's probabilities.
    let (net, config) = tiny_net();
    let pairs: Vec<(Tensor, Tensor)> = (0..6).map(|i| frame_pair(&config, 700 + i)).collect();
    let batched_server = Server::start(
        net,
        ServeConfig::builder()
            .max_batch(6)
            .max_wait(Duration::from_secs(30))
            .build()
            .expect("valid serve config"),
    )
    .expect("valid serve config");
    let completions: Vec<_> = pairs
        .iter()
        .map(|(rgb, depth)| {
            batched_server
                .submit(Request::new(rgb.clone(), depth.clone()))
                .expect("queue has room")
        })
        .collect();
    let batched: Vec<_> = completions
        .into_iter()
        .map(|c| c.wait().expect("served"))
        .collect();
    assert!(batched.iter().all(|p| p.batch_size == 6));
    let (net, _) = batched_server.shutdown();
    let single_server = Server::start(
        net,
        ServeConfig::builder()
            .max_batch(1)
            .max_wait(Duration::ZERO)
            .build()
            .expect("valid serve config"),
    )
    .expect("valid serve config");
    for (i, (rgb, depth)) in pairs.iter().enumerate() {
        let single = single_server
            .submit(Request::new(rgb.clone(), depth.clone()))
            .expect("queue has room")
            .wait()
            .expect("served");
        assert_eq!(single.batch_size, 1);
        assert_eq!(
            single.prob.data(),
            batched[i].prob.data(),
            "request {i}: batching changed the probabilities"
        );
    }
    single_server.shutdown();
}
