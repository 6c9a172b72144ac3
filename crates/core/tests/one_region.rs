//! A compiled-plan pass is one parallel region, whatever the batch size.
//!
//! This lives in its own integration-test binary (one test, own process):
//! `sf_runtime::pool_stats()` counts the process-wide pool, so a sibling
//! test's kernels would land in the window.

use sf_core::{CompiledPlan, FusionNet, FusionScheme, NetworkConfig, PlanMode};
use sf_tensor::TensorRng;

#[test]
fn a_pass_submits_one_batch_to_the_pool() {
    // The benchmark's model; none of its GEMMs is large enough to split
    // its rows across the pool, so the only region is the plan's own.
    let config = NetworkConfig::standard();
    let (h, w) = (config.height, config.width);
    let mut rng = TensorRng::seed_from(15);
    for scheme in [FusionScheme::AllFilterU, FusionScheme::WeightedSharing] {
        let net = FusionNet::new(scheme, &config).expect("the standard config is valid");
        for mode in [PlanMode::Fused, PlanMode::CameraOnly] {
            let mut plan = CompiledPlan::compile(&net, mode);
            for n in [8usize, 1, 3, 2, 9] {
                let rgb = rng.uniform(&[n, 3, h, w], 0.0, 1.0);
                let depth = rng.uniform(&[n, config.depth_channels, h, w], 0.0, 1.0);
                let before = sf_runtime::pool_stats();
                plan.run_batch(&rgb, mode.needs_depth().then_some(&depth))
                    .expect("plan runs");
                let pass = sf_runtime::pool_stats() - before;
                assert_eq!(
                    (pass.batches, pass.tasks),
                    (1, n as u64),
                    "{scheme} {mode} n={n}: one region, one task per image"
                );
            }
        }
    }
}
