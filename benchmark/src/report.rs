//! `report`: aggregate the repetitions `run.sh` left behind into the
//! `name unit value n spread` table and `report.json`.
//! `compare`: hold two reports against the benchmark's own bounds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END, INVARIANTS, PER_LAYER};
use crate::stats::{iqr, median};
use crate::workloads::Workload;

/// One `run` process's stdout: the `detail` line and the result object.
struct RunOutput {
    detail: Json,
    result: Json,
}

fn parse_run_output(text: &str) -> Result<RunOutput, String> {
    let result_line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let detail_line = text
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("no `detail` line")?;
    Ok(RunOutput {
        detail: json::parse(detail_line)?,
        result: json::parse(result_line)?,
    })
}

fn metric_of(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Reads `rep_<workload>_<i>.txt` (untraced repetitions) and
/// `traced_<workload>.txt` from `dir`, prints every metric as
/// `name unit value n spread`, checks that everything that must repeat
/// exactly did, and writes `dir/report.json`.
pub fn report(dir: &Path) -> ExitCode {
    let mut failures: Vec<String> = Vec::new();
    let mut workloads_json = Vec::new();
    for workload in Workload::ALL {
        let name = workload.name();
        let mut repetitions = Vec::new();
        for index in 1.. {
            let path = dir.join(format!("rep_{name}_{index}.txt"));
            let Ok(text) = std::fs::read_to_string(&path) else {
                break;
            };
            match parse_run_output(&text) {
                Ok(run) => repetitions.push(run),
                Err(e) => failures.push(format!("{}: {e}", path.display())),
            }
        }
        let traced = std::fs::read_to_string(dir.join(format!("traced_{name}.txt")))
            .map_err(|e| e.to_string())
            .and_then(|text| parse_run_output(&text));
        if repetitions.is_empty() {
            failures.push(format!("{name}: no repetitions in {}", dir.display()));
            continue;
        }

        println!(
            "# {name}: {} repetition(s), value = median, spread = inter-quartile range",
            repetitions.len()
        );
        let mut end_to_end = Vec::new();
        for metric in &END_TO_END {
            let values: Vec<f64> = repetitions
                .iter()
                .filter_map(|r| metric_of(&r.result, metric.name))
                .collect();
            let (value, spread) = (median(&values), iqr(&values));
            println!(
                "{name}.{} {} {value} {} {spread}",
                metric.name,
                metric.unit,
                values.len()
            );
            end_to_end.push((
                metric.name,
                Json::obj([
                    ("unit", Json::str(metric.unit)),
                    ("value", Json::Num(value)),
                    ("n", Json::Num(values.len() as f64)),
                    ("iqr", Json::Num(spread)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        let count = |key: &str| {
            repetitions[0]
                .result
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        println!(
            "{name}.attempted count {} {} 0",
            count("attempted"),
            repetitions.len()
        );
        println!(
            "{name}.failed count {} {} 0",
            count("failed"),
            repetitions.len()
        );

        // Everything that must repeat exactly: the ledger (counts, mask
        // hash, per-replica completions, breaker trips) of every
        // repetition and of the traced pass.
        let ledger = |run: &RunOutput| {
            run.detail
                .get("ledger")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let reference = ledger(&repetitions[0]);
        let mut all = repetitions.iter().collect::<Vec<_>>();
        if let Ok(traced) = &traced {
            all.push(traced);
        }
        for (i, run) in all.iter().enumerate() {
            if ledger(run) != reference {
                failures.push(format!(
                    "{name}: run {} ledger differs:\n  {:?}\n  {:?}",
                    i + 1,
                    reference,
                    ledger(run)
                ));
            }
            if run.result.get("correct").and_then(Json::as_bool) != Some(true) {
                failures.push(format!(
                    "{name}: run {} failed its correctness checks",
                    i + 1
                ));
            }
            if run.detail.get("valid").and_then(Json::as_bool) != Some(true) {
                println!(
                    "{name}: run {} is INVALID (generator lag); see its stderr",
                    i + 1
                );
            }
        }

        let mut per_layer = Vec::new();
        match &traced {
            Ok(traced) => {
                for layer in &PER_LAYER {
                    let value = metric_of(&traced.result, layer.name).unwrap_or(0.0);
                    println!("{name}.{} {} {value} 1 0", layer.name, layer.unit);
                    per_layer.push((layer.name, Json::Num(value)));
                }
            }
            Err(e) => failures.push(format!("{name}: traced pass: {e}")),
        }
        workloads_json.push((
            name,
            Json::obj([
                ("ledger", reference.map_or(Json::Null, Json::Str)),
                ("attempted", Json::Num(count("attempted"))),
                ("failed", Json::Num(count("failed"))),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }

    let meta = std::fs::read_to_string(dir.join("meta.json"))
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .unwrap_or(Json::Null);
    let document = Json::obj([
        ("meta", meta),
        // This benchmark's own baseline claims no gain; a later PR that
        // does fills this in from its issue.
        ("claim", Json::Null),
        ("workloads", Json::obj(workloads_json)),
    ]);
    let path = dir.join("report.json");
    if let Err(e) = std::fs::write(&path, document.render_pretty()) {
        failures.push(format!("{}: {e}", path.display()));
    }
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    if failures.is_empty() {
        println!(
            "# all correctness checks passed; report written to {}",
            path.display()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The verdict on one (workload, end-to-end metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Either side's run-to-run spread exceeds the bound, so the data
    /// cannot show "no change".
    Unresolved,
}

/// How much worse `b` is than `a` as a share of `a` (negative: better),
/// and the verdict under `bound`.
pub fn judge(better: Better, bound: f64, a: (f64, f64), b: (f64, f64)) -> (f64, Verdict) {
    let ((a_median, a_iqr), (b_median, b_iqr)) = (a, b);
    let base = a_median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (b_median - a_median) / base,
        Better::Higher => (a_median - b_median) / base,
    };
    let noisy = a_iqr / base > bound || b_iqr / b_median.abs().max(f64::MIN_POSITIVE) > bound;
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn load_report(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn median_and_iqr(report: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let entry = report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some((entry.get("value")?.as_f64()?, entry.get("iqr")?.as_f64()?))
}

/// Prints, per (workload, end-to-end metric), both medians, how much
/// worse B is, the bound and the verdict; then whether the ledger and
/// the per-layer invariants are identical. Exits non-zero on any
/// regression.
pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load_report(a_path), load_report(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    println!("workload metric unit A B worse_by bound verdict");
    for workload in Workload::ALL {
        for metric in &END_TO_END {
            let sides = (
                median_and_iqr(&a, workload.name(), metric.name),
                median_and_iqr(&b, workload.name(), metric.name),
            );
            let (Some(side_a), Some(side_b)) = sides else {
                println!("{} {} missing", workload.name(), metric.name);
                *tally.entry("missing").or_default() += 1;
                continue;
            };
            let (worse_by, verdict) = judge(metric.better, metric.bound, side_a, side_b);
            let verdict = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            };
            *tally.entry(verdict).or_default() += 1;
            println!(
                "{} {} {} {} {} {:+.4} {} {verdict}",
                workload.name(),
                metric.name,
                metric.unit,
                side_a.0,
                side_b.0,
                worse_by,
                metric.bound
            );
        }
        let ledger = |r: &Json| {
            r.get("workloads")?
                .get(workload.name())?
                .get("ledger")
                .cloned()
        };
        let layer = |r: &Json, name: &str| {
            let layers = r.get("workloads")?.get(workload.name())?.get("per_layer")?;
            layers.get(name).cloned()
        };
        let mut differing: Vec<&str> = INVARIANTS
            .into_iter()
            .filter(|name| layer(&a, name) != layer(&b, name))
            .collect();
        if ledger(&a).is_none() || ledger(&a) != ledger(&b) {
            differing.insert(0, "ledger");
        }
        println!(
            "{} counts, fingerprints and quality: {}",
            workload.name(),
            if differing.is_empty() {
                "identical".to_string()
            } else {
                format!(
                    "DIFFER in {} (different seed, sizing or outputs)",
                    differing.join(", ")
                )
            }
        );
    }
    let summary: Vec<String> = tally.iter().map(|(k, v)| format!("{v} {k}")).collect();
    println!("# {}", summary.join(", "));
    if tally.contains_key("regressed") || tally.contains_key("missing") {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 7 %: +5 % is ok, +10 % regressed.
        assert_eq!(
            judge(Better::Lower, 0.07, (10.0, 0.1), (10.5, 0.1)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.07, (10.0, 0.1), (11.0, 0.1)).1,
            Verdict::Regressed
        );
        // An improvement is never a regression.
        let (worse_by, verdict) = judge(Better::Lower, 0.07, (10.0, 0.1), (5.0, 0.1));
        assert_eq!((worse_by, verdict), (-0.5, Verdict::Ok));
        // Higher is better: a drop counts as worse.
        assert_eq!(
            judge(Better::Higher, 0.05, (1000.0, 5.0), (900.0, 5.0)).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.05, (1000.0, 5.0), (1100.0, 5.0)).1,
            Verdict::Ok
        );
        // A spread wider than the bound on either side resolves nothing.
        assert_eq!(
            judge(Better::Lower, 0.07, (10.0, 1.0), (10.0, 0.1)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.07, (10.0, 0.1), (20.0, 2.0)).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn run_output_is_found_between_other_lines() {
        let text = "noise\ndetail {\"ledger\":\"x\",\"valid\":true}\n\
                    {\"correct\":true,\"attempted\":8,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n\n";
        let run = parse_run_output(text).unwrap();
        assert_eq!(run.detail.get("ledger").and_then(Json::as_str), Some("x"));
        assert_eq!(metric_of(&run.result, "setup_s"), Some(1.5));
        assert!(parse_run_output("").is_err());
        assert!(parse_run_output("{\"correct\":true}").is_err());
    }
}
