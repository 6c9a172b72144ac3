//! Property-based tests spanning crates: invariants that must hold for
//! arbitrary seeds and configurations, driven by the deterministic
//! `sf_tensor::testkit` harness.

use sf_autograd::Graph;
use sf_core::{
    fd_loss, CompiledPlan, DegradationPolicy, FusionNet, FusionScheme, NetworkConfig, PlanMode,
    Predictor,
};
use sf_dataset::{bev_warp, BevGrid, Sample};
use sf_nn::{Mode, Parameterized};
use sf_scene::{
    render_ground_truth, LidarSpec, Lighting, PinholeCamera, RoadCategory, SceneBuilder,
};
use sf_tensor::testkit::{check_cases, CaseCtx};
use sf_tensor::{Tensor, TensorRng};
use sf_vision::GrayImage;

const CASES: u64 = 12;

fn any_category(c: &mut CaseCtx) -> RoadCategory {
    [
        RoadCategory::UrbanMarked,
        RoadCategory::UrbanMultipleMarked,
        RoadCategory::UrbanUnmarked,
    ][c.usize_in(0, 3)]
}

#[test]
fn every_scene_has_drivable_road_ahead() {
    check_cases(CASES, |c| {
        let seed = c.usize_in(0, 5000) as u64;
        let category = any_category(c);
        let scene = SceneBuilder::new(category, seed).build();
        let camera = PinholeCamera::kitti_like(48, 16);
        let gt = render_ground_truth(&scene, &camera);
        let road_fraction = gt.data().iter().sum::<f32>() / gt.data().len() as f32;
        assert!(road_fraction > 0.03, "road fraction {road_fraction}");
        assert!(road_fraction < 0.9, "road fraction {road_fraction}");
    });
}

#[test]
fn lidar_depth_and_gt_are_lighting_invariant() {
    check_cases(CASES, |c| {
        let seed = c.usize_in(0, 5000) as u64;
        let category = any_category(c);
        let camera = PinholeCamera::kitti_like(48, 16);
        let day = Sample::render(category, seed, "day", Lighting::day(), &camera);
        let night = Sample::render(category, seed, "night", Lighting::night(), &camera);
        assert_eq!(&day.depth, &night.depth);
        assert_eq!(&day.gt, &night.gt);
    });
}

#[test]
fn lidar_returns_scale_with_dropout() {
    check_cases(CASES, |c| {
        let seed = c.usize_in(0, 5000) as u64;
        let scene = SceneBuilder::new(RoadCategory::UrbanMarked, seed).build();
        let clean = LidarSpec {
            dropout: 0.0,
            ..LidarSpec::default()
        };
        let lossy = LidarSpec {
            dropout: 0.3,
            ..LidarSpec::default()
        };
        let n_clean = clean.scan(&scene, &mut TensorRng::seed_from(seed)).len();
        let n_lossy = lossy.scan(&scene, &mut TensorRng::seed_from(seed)).len();
        assert!(n_lossy < n_clean);
        assert!(n_lossy > n_clean / 3);
    });
}

#[test]
fn bev_warp_preserves_mask_range() {
    check_cases(CASES, |c| {
        let seed = c.usize_in(0, 5000) as u64;
        let category = any_category(c);
        let scene = SceneBuilder::new(category, seed).build();
        let camera = PinholeCamera::kitti_like(48, 16);
        let gt = render_ground_truth(&scene, &camera);
        let bev = bev_warp(&gt, &camera, &BevGrid::default());
        assert!(bev.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    });
}

#[test]
fn forward_pass_is_deterministic_per_seed() {
    check_cases(CASES, |c| {
        let scheme = FusionScheme::ALL[c.usize_in(0, 5)];
        let seed = c.usize_in(0, 1000) as u64;
        let config = NetworkConfig {
            width: 32,
            height: 16,
            stage_channels: vec![3, 4],
            shared_stages: 1,
            depth_channels: 1,
            seed,
        };
        let run = || {
            let mut net = FusionNet::new(scheme, &config).expect("valid config");
            let mut rng = TensorRng::seed_from(seed ^ 1);
            let mut g = Graph::new();
            let rgb = g.leaf(rng.uniform(&[1, 3, 16, 32], 0.0, 1.0));
            let depth = g.leaf(rng.uniform(&[1, 1, 16, 32], 0.0, 1.0));
            let out = net.forward(&mut g, rgb, depth, Mode::Eval);
            g.value(out.logits).clone()
        };
        assert_eq!(run(), run());
    });
}

#[test]
fn fd_loss_zero_only_for_identical_pairs() {
    check_cases(CASES, |c| {
        let mut rng = TensorRng::seed_from(c.usize_in(0, 1000) as u64);
        let f = rng.uniform(&[1, 2, 8, 8], 0.0, 1.0);
        let other = rng.uniform(&[1, 2, 8, 8], 0.0, 1.0);
        let mut g = Graph::new();
        let a = g.leaf(f.clone());
        let b = g.leaf(f);
        let cc = g.leaf(other);
        let same = fd_loss(&mut g, a, b);
        let diff = fd_loss(&mut g, a, cc);
        assert!(g.value(same).at(&[]) < 1e-9);
        assert!(g.value(diff).at(&[]) >= 0.0);
    });
}

#[test]
fn param_counts_are_seed_independent() {
    check_cases(CASES, |c| {
        let scheme = FusionScheme::ALL[c.usize_in(0, 5)];
        let s1 = c.usize_in(0, 100) as u64;
        let s2 = c.usize_in(100, 200) as u64;
        let make = |seed| {
            let config = NetworkConfig {
                width: 32,
                height: 16,
                stage_channels: vec![3, 4],
                shared_stages: 1,
                depth_channels: 1,
                seed,
            };
            FusionNet::new(scheme, &config)
                .expect("valid config")
                .param_count()
        };
        assert_eq!(make(s1), make(s2));
    });
}

#[test]
fn depth_images_have_sensible_gradient_structure() {
    // Dense depth must be smooth along the road but keep a strong
    // vertical gradient (near→far), for any category.
    let camera = PinholeCamera::kitti_like(96, 32);
    for category in RoadCategory::ALL {
        let sample = Sample::render(category, 4242, "day", Lighting::day(), &camera);
        let depth = GrayImage::from_raw(96, 32, sample.depth.data().to_vec());
        let bottom_mean: f32 = (0..96).map(|x| depth.get(x, 31)).sum::<f32>() / 96.0;
        let mid_mean: f32 = (0..96).map(|x| depth.get(x, 12)).sum::<f32>() / 96.0;
        assert!(
            bottom_mean > mid_mean,
            "{category}: bottom {bottom_mean} should be nearer than mid {mid_mean}"
        );
    }
}

#[test]
fn compiled_plan_matches_graph_and_bounds_scratch_for_random_configs() {
    check_cases(CASES, |c| {
        // A random valid geometry: stages ∈ {2, 3}, resolution divisible
        // by 2^stages, random channel widths, sharing depth and seed.
        let stages = c.usize_in(2, 4);
        let factor = 1usize << stages;
        let config = NetworkConfig {
            width: factor * c.usize_in(1, 4),
            height: factor * c.usize_in(1, 3),
            stage_channels: (0..stages).map(|_| c.usize_in(2, 6)).collect(),
            shared_stages: c.usize_in(1, stages),
            depth_channels: c.usize_in(1, 3),
            seed: c.seed(),
        };
        let scheme = FusionScheme::ALL[c.usize_in(0, 5)];
        let mut net = FusionNet::new(scheme, &config).expect("random config is valid");
        let (h, w, dc) = (config.height, config.width, config.depth_channels);

        // Warm the BatchNorm running statistics with one train-mode pass
        // so the plan's folded eval constants are non-trivial.
        {
            let mut g = Graph::new();
            let r = g.leaf(c.rng().uniform(&[2, 3, h, w], 0.0, 1.0));
            let d = g.leaf(c.rng().uniform(&[2, dc, h, w], 0.1, 1.0));
            net.forward(&mut g, r, d, Mode::Train);
        }

        let n = c.usize_in(1, 4);
        let rgb = c.rng().uniform(&[n, 3, h, w], 0.0, 1.0);
        let depth = c.rng().uniform(&[n, dc, h, w], 0.1, 1.0);

        // The unfused reference: graph forward in eval mode plus sigmoid.
        let graph_probs = |net: &mut FusionNet, rgb: &Tensor, depth: Option<&Tensor>| {
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
        };

        // Both plan modes: bit-identical outputs, on arenas that hold
        // exactly one static reservation per lane.
        for mode in [PlanMode::Fused, PlanMode::CameraOnly] {
            let mut plan = CompiledPlan::compile(&net, mode);
            let with_depth = (mode == PlanMode::Fused).then_some(&depth);
            let got = plan.run_batch(&rgb, with_depth).expect("plan executes");
            let reference = graph_probs(&mut net, &rgb, with_depth);
            assert_eq!(
                got.data(),
                reference.data(),
                "case {}: {scheme} {mode} n={n} diverges from the graph path",
                c.case
            );
            assert_eq!(
                plan.arena_elems(),
                plan.reservation_elems(n),
                "case {}: {scheme} {mode} n={n}: arenas off the static reservation",
                c.case
            );
        }

        // Every degradation policy must route a frame through the
        // Predictor to exactly the graph path it selects.
        let rgb1 = c.rng().uniform(&[3, h, w], 0.0, 1.0);
        let healthy = c.rng().uniform(&[dc, h, w], 0.1, 1.0);
        let dead = Tensor::zeros(&[dc, h, w]);
        let rgb1_b = rgb1.reshape(&[1, 3, h, w]).expect("rgb is [3,H,W]");
        let fused_ref = |net: &mut FusionNet, d: &Tensor| {
            let d_b = d.reshape(&[1, dc, h, w]).expect("depth is [C,H,W]");
            graph_probs(net, &rgb1_b, Some(&d_b))
        };
        let camera_ref = graph_probs(&mut net, &rgb1_b, None);
        for policy in [
            DegradationPolicy::Trust,
            DegradationPolicy::CameraFallback,
            DegradationPolicy::CameraOnly,
        ] {
            let mut predictor = Predictor::compile(&net).with_policy(policy);
            for depth1 in [&healthy, &dead] {
                let prediction = predictor.run(&rgb1, depth1).expect("predictor runs");
                let quarantined = prediction.quarantined.is_some();
                let reference = if quarantined {
                    camera_ref.clone()
                } else {
                    fused_ref(&mut net, depth1)
                };
                assert_eq!(
                    prediction.prob.data(),
                    reference.data(),
                    "case {}: {scheme} {policy} quarantined={quarantined}",
                    c.case
                );
                match policy {
                    DegradationPolicy::Trust => assert!(!quarantined),
                    DegradationPolicy::CameraOnly => assert!(quarantined),
                    // Fallback must quarantine exactly the dead frame.
                    DegradationPolicy::CameraFallback => {
                        assert_eq!(quarantined, std::ptr::eq(depth1, &dead));
                    }
                }
            }
        }
    });
}
