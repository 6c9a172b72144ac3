//! Chaos resilience sweep — fault rate × deadline × breaker threshold.
//!
//! The serving experiment measures how fast the batcher goes when
//! everything works; this one measures what the stack *guarantees* when
//! things break. Every grid cell runs one seeded [`sf_chaos`] schedule —
//! a healthy warm-up, a dead-depth burst sized by the swept fault rate, a
//! batch slowdown, a panic burst, a stale-request burst and a queue flood
//! — against a fleet of one and records where every request terminated,
//! how often the faulty source's circuit breaker tripped, and whether the
//! run is bit-reproducible (each cell executes twice and compares
//! fingerprints).
//!
//! The headline claims this table backs:
//! - **conservation** — in every cell, at every scene boundary,
//!   submitted = completed + rejected + expired + failed + redirected
//!   (the engine fails the run otherwise, so a rendered table is itself
//!   the proof);
//! - **determinism** — cells with a deterministic deadline (none, or far
//!   above the injected slowdown) replay to identical fingerprints;
//! - **breaker sensitivity** — the trip threshold separates fault rates:
//!   a strict breaker (0.25) trips on a window of mixed observations a
//!   lax one (0.75) rides through.

use std::time::Duration;

use sf_chaos::{Report, Scenario, Scene};
use sf_core::BreakerConfig;

use crate::experiments::run_cell;
use crate::{ExperimentScale, TextTable};

/// Healthy frames served before the fault burst: four per rotating
/// source, so the faulty source's breaker window already holds healthy
/// observations when the dead frames land — only a mixed window lets the
/// trip threshold matter.
const WARMUP: usize = 32;

/// Injected per-batch delay during the slowdown scene, milliseconds.
/// Deadlines below this expire the slowed requests; deadlines above it
/// (or no deadline) let them complete.
const SLOWDOWN_MS: u64 = 60;

/// One (fault rate, deadline, breaker threshold) measurement.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Fraction of the closed-loop traffic with a dead depth sensor.
    pub fault_rate: f64,
    /// Per-request deadline in milliseconds; 0 means no deadline.
    pub deadline_ms: u64,
    /// Breaker trip threshold (quarantine rate, strictly above trips).
    pub threshold: f32,
    /// The first run's full report (ledger, checkpoints, breaker log).
    pub report: Report,
    /// Whether a second run of the identical config produced the same
    /// fault-schedule fingerprint.
    pub reproducible: bool,
}

/// The full sweep grid and its per-cell reports.
#[derive(Debug, Clone)]
pub struct ChaosSweepResult {
    /// Fault rates swept.
    pub fault_rates: Vec<f64>,
    /// Deadlines swept, milliseconds (0 = none).
    pub deadlines_ms: Vec<u64>,
    /// Breaker trip thresholds swept.
    pub thresholds: Vec<f32>,
    /// One cell per grid point, in (rate, deadline, threshold) order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosSweepResult {
    /// The measured cell for a grid point.
    pub fn cell(&self, fault_rate: f64, deadline_ms: u64, threshold: f32) -> Option<&ChaosCell> {
        self.cells.iter().find(|c| {
            c.fault_rate == fault_rate && c.deadline_ms == deadline_ms && c.threshold == threshold
        })
    }

    /// How many cells replayed bit-identically.
    pub fn reproducible_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.reproducible).count()
    }
}

/// Sweep grid for a scale: (fault rates, deadlines ms, thresholds,
/// closed-loop requests split between corrupt and calm).
fn grid(scale: ExperimentScale) -> (Vec<f64>, Vec<u64>, Vec<f32>, usize) {
    match scale {
        // The 20 ms deadline sits below the 60 ms slowdown on purpose:
        // that column shows deadline-based shedding under degraded
        // batches (and is the one column allowed to be timing-dependent).
        ExperimentScale::Full => (
            vec![0.0, 0.25, 0.5],
            vec![0, 20, 10_000],
            vec![0.25, 0.75],
            16,
        ),
        ExperimentScale::Quick => (vec![0.0, 0.5], vec![10_000], vec![0.5], 6),
    }
}

/// The fault schedule for one cell: a healthy warm-up, a dead-depth
/// burst of `fault_rate` of the `requests`, calm recovery traffic for the
/// rest, then a slowdown, a panic burst, a stale burst and a queue flood
/// so every failure mode appears in every cell.
fn schedule(fault_rate: f64, requests: usize, scale: ExperimentScale) -> Vec<Scene> {
    let corrupt = ((requests as f64) * fault_rate).round() as usize;
    let calm = requests - corrupt;
    let each = match scale {
        ExperimentScale::Full => 2,
        ExperimentScale::Quick => 1,
    };
    let mut scenes = vec![Scene::Calm(WARMUP)];
    if corrupt > 0 {
        scenes.push(Scene::Corrupt(corrupt));
    }
    if calm > 0 {
        scenes.push(Scene::Calm(calm));
    }
    scenes.extend([
        Scene::Slow {
            frames: each,
            sleep_ms: SLOWDOWN_MS,
        },
        Scene::Panic(each),
        Scene::Stale(each),
        Scene::Flood(each),
    ]);
    scenes
}

/// A small breaker tuned so the sweep's short schedules can complete a
/// full trip→cooldown→probe→close cycle: threshold is the swept value,
/// window and cooldown shrink from the serving defaults.
fn breaker(threshold: f32) -> BreakerConfig {
    BreakerConfig::default()
        .with_trip_threshold(threshold)
        .with_window(8)
        .with_cooldown(4)
}

/// Runs the sweep. Panics if any cell violates an engine invariant (see
/// [`run_cell`]).
pub fn run(scale: ExperimentScale) -> ChaosSweepResult {
    let (fault_rates, deadlines_ms, thresholds, requests) = grid(scale);
    let mut cells = Vec::new();
    for &fault_rate in &fault_rates {
        for &deadline_ms in &deadlines_ms {
            for &threshold in &thresholds {
                let scenario = Scenario::chaos(1, false)
                    .with_seed(0xC4A05 ^ ((deadline_ms + 1) << 20) ^ ((threshold * 100.0) as u64))
                    .with_scenes(schedule(fault_rate, requests, scale))
                    .with_deadline((deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)))
                    .with_breaker(Some(breaker(threshold)));
                let label = format!(
                    "chaos cell (rate {fault_rate}, deadline {deadline_ms} ms, \
                     threshold {threshold})"
                );
                let (report, reproducible) = run_cell(&label, &scenario);
                cells.push(ChaosCell {
                    fault_rate,
                    deadline_ms,
                    threshold,
                    report,
                    reproducible,
                });
            }
        }
    }
    ChaosSweepResult {
        fault_rates,
        deadlines_ms,
        thresholds,
        cells,
    }
}

/// Renders the sweep as one row per cell plus the invariant summary.
pub fn render(result: &ChaosSweepResult) -> String {
    let mut table = TextTable::new(vec![
        "fault", "deadline", "thresh", "done", "expired", "failed", "shed", "quar", "trips",
        "final", "repro",
    ]);
    for cell in &result.cells {
        let t = cell.report.ledger();
        let breaker = &cell.report.stats.replicas[0];
        table.add_row(vec![
            format!("{:.0}%", cell.fault_rate * 100.0),
            if cell.deadline_ms == 0 {
                "none".to_string()
            } else {
                format!("{} ms", cell.deadline_ms)
            },
            format!("{:.2}", cell.threshold),
            t.completed.to_string(),
            t.expired.to_string(),
            t.failed.to_string(),
            t.rejected.to_string(),
            cell.report.quarantined().to_string(),
            breaker.breaker_trips.to_string(),
            breaker
                .breaker_state
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
            if cell.reproducible { "yes" } else { "VARIED" }.to_string(),
        ]);
    }
    let mut out = String::from("Chaos resilience — fault rate x deadline x breaker threshold\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "conservation : submitted = completed + shed + expired + failed + redirected held \
         at every scene boundary of all {} cells (the engine fails otherwise)\n",
        result.cells.len()
    ));
    out.push_str(&format!(
        "reproducible : {}/{} cells replayed to identical fingerprints \
         (sub-{SLOWDOWN_MS} ms deadline cells may legitimately vary)\n",
        result.reproducible_cells(),
        result.cells.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_partitions_traffic_by_fault_rate() {
        let scenes = schedule(0.25, 16, ExperimentScale::Full);
        assert_eq!(
            scenes[..3],
            [Scene::Calm(WARMUP), Scene::Corrupt(4), Scene::Calm(12)]
        );
        // Rate 0 drops the corrupt scene entirely instead of emitting a
        // zero-frame scene the scenario validator would reject.
        let clean = schedule(0.0, 16, ExperimentScale::Full);
        assert_eq!(clean[..2], [Scene::Calm(WARMUP), Scene::Calm(16)]);
        assert!(clean.iter().all(|s| !matches!(s, Scene::Corrupt(_))));
    }

    #[test]
    fn sweep_breakers_are_valid() {
        for t in [0.0, 0.25, 0.5, 0.75, 1.0] {
            breaker(t).validate().expect("sweep breaker config valid");
        }
    }
}
