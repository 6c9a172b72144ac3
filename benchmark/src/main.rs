//! `sf-benchmark` — the repo's one benchmark.
//!
//! Four workloads over the public API of the `sf-*` crates, seven
//! end-to-end metrics, and a traced pass that breaks each workload down
//! layer by layer. `benchmark/run.sh` is the entry point; this binary is
//! what it builds and drives:
//!
//! - `run --workload W --seed N --seconds S --trace 0|1` — one process,
//!   one workload; the last stdout line is the result object.
//! - `report DIR` — aggregates the repetitions `run.sh` left in `DIR`.
//! - `compare A.json B.json` — verdict per (workload, end-to-end metric).
//! - `manifest` — prints `BENCHMARK.json`.

mod json;
mod measure;
mod metrics;
mod opkind;
mod probes;
mod report;
mod schedule;
mod setup;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use measure::Summary;
use setup::{FleetUnderTest, Setup};
use workloads::{Pass, Sizing, Workload};

/// Set-ups per untraced run; `setup_s` is their median, so one slow
/// set-up (cold page cache, a busy neighbour) does not move the metric.
const SETUP_REPETITIONS: usize = 3;
/// `client.max_rate_rps`: the latency limit and tolerated miss share.
const LADDER_P95_LIMIT_MS: f64 = 15.0;
const LADDER_MAX_FAILED_SHARE: f64 = 0.01;
/// Open-loop ladder rates in rig frames/s (× 3 mounts = 225/450/900 req/s).
const LADDER_FRAMES_PER_S: [(f64, &str); 3] = [
    (75.0, "client.ladder_p95_ms.r225"),
    (150.0, "client.ladder_p95_ms.r450"),
    (300.0, "client.ladder_p95_ms.r900"),
];
/// Above this p95 generator lag the open loop did not hold its schedule.
const MAX_GENERATOR_LAG_P95_US: f64 = 1000.0;

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sf-benchmark run --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      sf-benchmark report <dir>\n\
         \x20      sf-benchmark compare <a.json> <b.json>\n\
         \x20      sf-benchmark manifest",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: Workload::DriveClosed,
        seed: 2022,
        seconds: metrics::RUN_SECONDS,
        trace: false,
    };
    let mut workload = None;
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => run.seed = number()?,
            "--seconds" => run.seconds = number()?.clamp(1, 60),
            "--trace" => run.trace = number()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    Ok(run)
}

/// Where traces and scratch files go: inside the checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("SF_BENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// Runs one timed pass of `workload` against a fresh fleet.
fn timed_pass(
    setup: &Setup,
    under_test: Option<&FleetUnderTest>,
    workload: Workload,
    sizing: Sizing,
) -> Pass {
    match workload {
        Workload::DriveClosed => workloads::drive_closed(setup, under_test.expect("fleet"), sizing),
        Workload::StreamOpen => workloads::stream_open(
            setup,
            under_test.expect("fleet"),
            sizing,
            workloads::STREAM_FRAMES_PER_S,
            sizing.stream_ticks,
        ),
        Workload::SaturateClosed => {
            workloads::saturate_closed(setup, under_test.expect("fleet"), sizing)
        }
        Workload::OfflineInt8 => workloads::offline_int8(setup, sizing),
    }
}

fn start_fleet(setup: &Setup, workload: Workload, traced: bool) -> Option<FleetUnderTest> {
    let replicas = workload.replicas();
    (replicas > 0)
        .then(|| FleetUnderTest::start(setup, replicas, workload == Workload::DriveClosed, traced))
}

fn stop_fleet(under_test: Option<FleetUnderTest>) {
    if let Some(under_test) = under_test {
        drop(under_test.fleet.shutdown());
    }
}

fn metric_value(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Prints the `detail` line and the result object, returns the exit code.
fn emit(
    args: &RunArgs,
    summary: &Summary,
    problems: &[String],
    valid: bool,
    metrics: Vec<(String, Json)>,
) -> ExitCode {
    for problem in problems {
        eprintln!("INCORRECT: {problem}");
    }
    let detail = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("ledger", Json::str(&summary.ledger)),
        (
            "latency_samples",
            Json::Num(summary.latencies_ms.len() as f64),
        ),
        (
            "samples_beyond_p95",
            Json::Num(stats::samples_beyond(summary.latencies_ms.len(), 95.0) as f64),
        ),
        ("valid", Json::Bool(valid)),
        ("threads", Json::Num(sf_runtime::num_threads() as f64)),
        ("load_1m", Json::Num(sys::load_average_1m())),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
    ]);
    println!("detail {}", detail.render());
    let result = Json::obj([
        ("correct", Json::Bool(problems.is_empty())),
        ("attempted", Json::Num(summary.attempted as f64)),
        ("failed", Json::Num(summary.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Whether the pass is a fair measurement (not whether it is correct):
/// an open loop that could not hold its schedule measured the generator.
fn pass_is_valid(pass: &Pass) -> bool {
    let lag = pass.generator_lag_p95_us();
    if lag > MAX_GENERATOR_LAG_P95_US {
        eprintln!("INVALID: generator lag p95 {lag:.0} us exceeds {MAX_GENERATOR_LAG_P95_US} us");
    }
    lag <= MAX_GENERATOR_LAG_P95_US
}

/// One full set-up as a fresh process would do it: inputs, model, pool,
/// fleet start and warm-up.
fn set_up(args: &RunArgs) -> (Setup, Option<FleetUnderTest>) {
    let setup = Setup::build(args.workload, args.seed);
    let under_test = start_fleet(&setup, args.workload, false);
    (setup, under_test)
}

/// `--trace 0`: set up, one untraced pass, the seven end-to-end metrics.
fn run_untraced(args: &RunArgs, process_start: Instant) -> ExitCode {
    let sizing = Sizing::for_seconds(args.seconds);
    // The set-up the workload runs on is timed from process start.
    let (setup, under_test) = set_up(args);
    let mut setup_s = vec![process_start.elapsed().as_secs_f64()];

    let pass = timed_pass(&setup, under_test.as_ref(), args.workload, sizing);
    let summary = measure::summarize(&pass);
    let warmup_legs = under_test.as_ref().map_or(0, FleetUnderTest::warmup_legs);
    let problems = measure::verify(&setup, &pass, &summary, warmup_legs);
    let valid = pass_is_valid(&pass);
    stop_fleet(under_test);
    drop(setup);

    // The remaining set-ups only feed the `setup_s` median. They run after
    // the window so the pass sees the heap one set-up leaves, as a
    // deployment would, and the peak RSS it reports is not theirs.
    while setup_s.len() < SETUP_REPETITIONS {
        let started = Instant::now();
        let (setup, under_test) = set_up(args);
        setup_s.push(started.elapsed().as_secs_f64());
        stop_fleet(under_test);
        drop(setup);
    }

    let values = [
        stats::median(&setup_s),
        summary.throughput_rps,
        summary.p(50.0),
        summary.p(95.0),
        summary.served_share,
        summary.cpu_s_per_kreq,
        summary.peak_rss_mib,
    ];
    let metrics = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| (m.name.to_string(), metric_value(value, m.unit)))
        .collect();
    emit(args, &summary, &problems, valid, metrics)
}

/// The open-loop rate ladder on the `stream_open` configuration: p95 at
/// each rate and the highest rate that meets the latency limit.
fn ladder(setup: &Setup, sizing: Sizing, m: &mut BTreeMap<&'static str, f64>) {
    let mut max_rate = 0.0;
    for (frames_per_s, name) in LADDER_FRAMES_PER_S {
        let under_test = start_fleet(setup, Workload::StreamOpen, false);
        let ticks = (frames_per_s * sizing.ladder_step_s).ceil() as u64;
        let pass = workloads::stream_open(
            setup,
            under_test.as_ref().expect("fleet"),
            sizing,
            frames_per_s,
            ticks,
        );
        stop_fleet(under_test);
        let summary = measure::summarize(&pass);
        let p95 = summary.p(95.0);
        m.insert(name, p95);
        let failed_share = 1.0 - summary.served_share;
        if p95 <= LADDER_P95_LIMIT_MS
            && failed_share <= LADDER_MAX_FAILED_SHARE
            && !summary.latencies_ms.is_empty()
        {
            max_rate = frames_per_s * setup.world.rig.len() as f64;
        }
    }
    m.insert("client.max_rate_rps", max_rate);
}

/// `--trace 1`: one untraced and one traced pass in the same process
/// (their throughput ratio is the tracing overhead), the trace file, the
/// probes, and every per-layer metric. A layer that does no work on this
/// workload reads 0.
fn run_traced(args: &RunArgs) -> ExitCode {
    let sizing = Sizing::for_seconds(args.seconds);
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let setup = Setup::build(args.workload, args.seed);

    let under_test = start_fleet(&setup, args.workload, false);
    let untraced = measure::summarize(&timed_pass(
        &setup,
        under_test.as_ref(),
        args.workload,
        sizing,
    ));
    stop_fleet(under_test);

    let under_test = start_fleet(&setup, args.workload, true);
    let pass = timed_pass(&setup, under_test.as_ref(), args.workload, sizing);
    let summary = measure::summarize(&pass);
    let warmup_legs = under_test.as_ref().map_or(0, FleetUnderTest::warmup_legs);
    let mut problems = measure::verify(&setup, &pass, &summary, warmup_legs);
    if summary.ledger != untraced.ledger {
        problems.push(format!(
            "traced and untraced passes disagree:\n  {}\n  {}",
            untraced.ledger, summary.ledger
        ));
    }
    let valid = pass_is_valid(&pass);

    let batches = match &under_test {
        Some(under_test) => measure::reconstruct_batches(&pass, under_test).unwrap_or_else(|e| {
            problems.push(format!("batch reconstruction: {e}"));
            Vec::new()
        }),
        None => Vec::new(),
    };
    let mut m = probes::run_probes(&setup, measure::typical_occupancy(&batches), &out);
    stop_fleet(under_test);
    let trace_path = out.join(format!("trace_{}.json", args.workload.name()));
    if let Err(e) = trace::write_trace(&trace_path, &pass, &batches) {
        problems.push(format!("writing {}: {e}", trace_path.display()));
    }
    if args.workload == Workload::StreamOpen {
        let ratio = measure::span_sum_ratio(&pass, &batches);
        eprintln!("spans submit+queue+exec+wake sum to {ratio:.4} of the measured request latency");
        ladder(&setup, sizing, &mut m);
    }
    let plan_ms = m[probes::FUSED_AT_OCCUPANCY_MS];
    m.extend(measure::span_metrics(&pass, &summary, &batches, plan_ms));
    m.insert(
        "trace.overhead_share",
        1.0 - summary.throughput_rps / untraced.throughput_rps,
    );

    let metrics = metrics::PER_LAYER
        .iter()
        .map(|layer| {
            let value = m.get(layer.name).copied().unwrap_or(0.0);
            (layer.name.to_string(), metric_value(value, layer.unit))
        })
        .collect();
    emit(args, &summary, &problems, valid, metrics)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(run) if run.trace => run_traced(&run),
            Ok(run) => run_untraced(&run, process_start),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        Some("report") if args.len() == 2 => report::report(Path::new(&args[1])),
        Some("compare") if args.len() == 3 => {
            report::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("manifest") => {
            print!("{}", metrics::manifest().render_pretty());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let run = parse_run_args(&strings(&[
            "--workload",
            "stream_open",
            "--seed",
            "17",
            "--seconds",
            "7",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(run.workload, Workload::StreamOpen);
        assert_eq!((run.seed, run.seconds, run.trace), (17, 7, true));
        let defaults = parse_run_args(&strings(&["--workload", "offline_int8"])).unwrap();
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (2022, 7, false)
        );
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "stream_open", "--seed"],
            &["--workload", "stream_open", "--seed", "x"],
            &["--workload", "stream_open", "--frobnicate", "1"],
        ] {
            assert!(parse_run_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_objects_round_trip() {
        let metrics = vec![("latency_p50_ms".to_string(), metric_value(7.70312, "ms"))];
        let result = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(2400.0)),
            ("failed", Json::Num(0.0)),
            ("metrics", Json::Obj(metrics)),
        ]);
        let line = result.render();
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).unwrap();
        assert_eq!(parsed, result);
        let value = parsed.get("metrics").and_then(|m| m.get("latency_p50_ms"));
        assert_eq!(
            value.and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(7.70312)
        );
    }
}
