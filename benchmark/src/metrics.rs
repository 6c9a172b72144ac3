//! The benchmark's fixed vocabulary: workload names, the seven
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics. `BENCHMARK.json` at the repo root is generated from this
//! module (`sf-benchmark manifest`), and a unit test keeps the two equal.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// Names are fixed; later issues cite them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "drive_closed",
        why: "closed loop, scene render to last mask through a 2-replica fleet with a dead-sensor burst: \
              the only workload where rendering, triage, the camera-only plan and routing matter",
    },
    WorkloadSpec {
        name: "stream_open",
        why: "open loop at 40% of capacity: a batch is one tick's 3 legs, so flush wait and the small-batch \
              plan dominate; a flush-policy change shows here and must not on saturate_closed",
    },
    WorkloadSpec {
        name: "saturate_closed",
        why: "16 requests kept outstanding: batches are full, so the plan, f32 kernels and pool sharding \
              do the work and max_wait none; catches a batched gain that costs small-batch latency",
    },
    WorkloadSpec {
        name: "offline_int8",
        why: "batch-8 int8 plan passes with no serving layer: the only place the int8 kernels run, \
              which the int8-vs-f32 verdict needs; f32 kernels do nothing here",
    },
];

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.07,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.07,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "served_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "cpu_s_per_kreq",
        unit: "s/kreq",
        better: Better::Lower,
        bound: 0.07,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A per-layer metric: no bound, printed by the traced pass.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layers are the crate/module names. A metric whose layer does no work
/// on a workload reads 0 there (README, "Reading the per-layer table").
pub const PER_LAYER: [Layer; 80] = [
    // sf-scene — probes
    lower("scene.render_rgb_ms", "ms"),
    lower("scene.ground_truth_ms", "ms"),
    lower("scene.lidar_scan_ms", "ms"),
    lower("scene.depth_image_ms", "ms"),
    lower("scene.occluder_step_us", "us"),
    // sf-dataset — spans
    lower("dataset.rig_frame_ms", "ms"),
    lower("dataset.rig_frame_share", "share"),
    lower("dataset.pool_render_s", "s"),
    // sf-core::health — probe + ledger counts
    lower("health.assess_us", "us"),
    lower("health.quarantined_share", "share"),
    lower("health.breaker_trips", "count"),
    // sf-core::plan — probes
    lower("plan.compile_ms", "ms"),
    lower("plan.fused_b1_ms", "ms"),
    lower("plan.fused_b8_ms", "ms"),
    lower("plan.camera_b1_ms", "ms"),
    lower("plan.camera_b8_ms", "ms"),
    lower("plan.int8_b1_ms", "ms"),
    lower("plan.int8_b8_ms", "ms"),
    higher("plan.b8_speedup", "ratio"),
    lower("plan.op_ms.conv3x3", "ms"),
    lower("plan.op_ms.conv1x1", "ms"),
    lower("plan.op_ms.pool", "ms"),
    lower("plan.op_ms.upsample", "ms"),
    lower("plan.op_ms.sigmoid", "ms"),
    lower("plan.op_ms_b8.conv3x3", "ms"),
    lower("plan.op_ms_b8.conv1x1", "ms"),
    lower("plan.op_ms_b8.pool", "ms"),
    lower("plan.op_ms_b8.upsample", "ms"),
    lower("plan.op_ms_b8.sigmoid", "ms"),
    lower("plan.int8_op_ms.conv3x3", "ms"),
    lower("plan.int8_op_ms.conv1x1", "ms"),
    lower("plan.int8_op_ms.pool", "ms"),
    lower("plan.int8_op_ms.upsample", "ms"),
    lower("plan.int8_op_ms.sigmoid", "ms"),
    lower("plan.stack_us", "us"),
    lower("plan.observer_overhead_share", "share"),
    lower("plan.reservation_kib", "KiB"),
    // sf-tensor — probes
    higher("tensor.matmul_f32_gflops", "GFLOP/s"),
    higher("tensor.im2col_f32_gbps", "GB/s"),
    higher("tensor.matmul_i8_gops", "GOP/s"),
    higher("tensor.im2col_i8_gbps", "GB/s"),
    higher("tensor.quantize_i8_gbps", "GB/s"),
    lower("tensor.conv2d_fwd_us", "us"),
    lower("tensor.conv2d_bwd_us", "us"),
    lower("tensor.scratch_peak_kib", "KiB"),
    // sf-runtime
    higher("runtime.threads", "count"),
    lower("runtime.dispatch_us", "us"),
    lower("runtime.batches_per_forward", "count"),
    // sf-serve::server — spans + ledger
    lower("serve.submit_us", "us"),
    lower("serve.queue_wait_ms", "ms"),
    lower("serve.flush_wait_ms", "ms"),
    lower("serve.exec_ms", "ms"),
    lower("serve.exec_overhead_ms", "ms"),
    lower("serve.wake_us", "us"),
    higher("serve.batch_occupancy", "count"),
    lower("serve.batches", "count"),
    lower("serve.rejected", "count"),
    lower("serve.expired", "count"),
    lower("serve.stats_snapshot_us", "us"),
    // sf-serve::fleet
    lower("fleet.submit_overhead_us", "us"),
    lower("fleet.route_us", "us"),
    lower("fleet.replica_imbalance", "ratio"),
    lower("fleet.deploy_ms", "ms"),
    // sf-quant
    lower("quant.calibrate_ms", "ms"),
    lower("quant.weight_bytes_ratio", "ratio"),
    higher("quant.mask_agreement", "share"),
    higher("quant.int8_vs_f32_ratio", "ratio"),
    // sf-core::{trainer,checkpoint}, sf-autograd
    lower("train.epoch_ms", "ms"),
    lower("checkpoint.roundtrip_ms", "ms"),
    lower("autograd.graph_forward_b1_ms", "ms"),
    higher("quality.maxf_f32", "pct"),
    higher("quality.maxf_int8", "pct"),
    // client — the benchmark's own clocks
    lower("client.latency_p99_ms", "ms"),
    lower("client.latency_max_ms", "ms"),
    lower("client.generator_lag_p95_us", "us"),
    lower("client.ladder_p95_ms.r225", "ms"),
    lower("client.ladder_p95_ms.r450", "ms"),
    lower("client.ladder_p95_ms.r900", "ms"),
    higher("client.max_rate_rps", "1/s"),
    lower("trace.overhead_share", "share"),
];

/// Per-layer values that are counts or pure functions of the seed: two
/// runs of the same commit and seed must report them identically.
pub const INVARIANTS: [&str; 8] = [
    "health.quarantined_share",
    "health.breaker_trips",
    "plan.reservation_kib",
    "fleet.replica_imbalance",
    "quant.weight_bytes_ratio",
    "quant.mask_agreement",
    "quality.maxf_f32",
    "quality.maxf_int8",
];

/// How long one driver run measures (`run_seconds` in the manifest); the
/// workloads size their fixed work from `--seconds` relative to this.
pub const RUN_SECONDS: u64 = 7;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = metric(m.name, m.unit, m.better);
                        pairs.push(("bound", Json::Num(m.bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for name in INVARIANTS {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    }

    /// The committed manifest is exactly what this module generates.
    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, manifest());
        assert_eq!(text, manifest().render_pretty());
    }
}
