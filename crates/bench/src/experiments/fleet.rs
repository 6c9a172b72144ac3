//! Fleet resilience sweep — replica count × dispatch policy × kill
//! schedule for the `sf-serve` replica fleet under the seeded
//! `sf-chaos` engine.
//!
//! Each grid cell drives a live [`Fleet`](sf_serve::Fleet) through one
//! deterministic scene schedule (twice, comparing fingerprints) and
//! records where every routing leg terminated. The schedules escalate:
//! `none` is healthy traffic plus a shadow deploy of a bit-identical
//! candidate; `kill` parks the executors, floods the queues, kills a
//! replica mid-storm and revives it; `kill+swap` additionally hot-swaps
//! a retrained model while the storm is still in flight.
//!
//! The headline claims this table backs:
//! - **fleet conservation** — in every cell, submitted legs = completed +
//!   rejected + expired + failed + redirected, and the router's counters
//!   reconcile with the per-replica servers, at every scene boundary (the
//!   engine fails the run otherwise);
//! - **zero deploy casualties** — no leg terminally fails in any cell,
//!   including the ones that hot-swap the model mid-storm;
//! - **determinism** — every cell replays to a bit-identical fleet
//!   ledger, for both dispatch policies and all replica counts;
//! - **shadow fidelity** — shadow deploys of a bit-identical candidate
//!   diff exactly 0.0 and promote.

use sf_chaos::{parse_scenes, Report, Scenario};
use sf_serve::DispatchPolicy;

use crate::experiments::run_cell;
use crate::{ExperimentScale, TextTable};

/// The fault schedule swept along the third grid axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillSchedule {
    /// Healthy traffic plus a shadow deploy; no replica dies.
    None,
    /// A mid-stream kill storm followed by an explicit revival.
    Kill,
    /// A kill storm with a retrained-model hot swap in flight, then a
    /// revival and a shadow deploy.
    KillDeploy,
}

impl KillSchedule {
    /// All schedules, sweep order.
    pub const ALL: [KillSchedule; 3] = [
        KillSchedule::None,
        KillSchedule::Kill,
        KillSchedule::KillDeploy,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            KillSchedule::None => "none",
            KillSchedule::Kill => "kill",
            KillSchedule::KillDeploy => "kill+swap",
        }
    }

    /// Whether the schedule kills a replica (needs a survivor, so these
    /// cells are skipped at `replicas = 1`).
    pub fn kills(self) -> bool {
        !matches!(self, KillSchedule::None)
    }

    /// The scene spec for this schedule at a scale.
    fn scenes(self, scale: ExperimentScale) -> &'static str {
        match (self, scale) {
            (KillSchedule::None, ExperimentScale::Full) => "calm:6,shadow:4,calm:2",
            (KillSchedule::None, ExperimentScale::Quick) => "calm:3,shadow:2",
            (KillSchedule::Kill, ExperimentScale::Full) => "calm:4,storm:4,revive:2,calm:2",
            (KillSchedule::Kill, ExperimentScale::Quick) => "calm:2,storm:2,revive:1,calm:1",
            (KillSchedule::KillDeploy, ExperimentScale::Full) => {
                "calm:4,deploystorm:4,revive:2,shadow:4,calm:2"
            }
            (KillSchedule::KillDeploy, ExperimentScale::Quick) => {
                "calm:2,deploystorm:2,revive:1,shadow:2"
            }
        }
    }
}

/// One (replicas, dispatch, schedule) measurement.
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// Fleet size for this cell.
    pub replicas: usize,
    /// Routing policy under test.
    pub dispatch: DispatchPolicy,
    /// Fault schedule driven through the fleet.
    pub schedule: KillSchedule,
    /// The first run's full report (fleet ledger, kills, revives).
    pub report: Report,
    /// Whether a second run of the identical config produced the same
    /// fleet-ledger fingerprint.
    pub reproducible: bool,
}

/// The full sweep grid and its per-cell reports.
#[derive(Debug, Clone)]
pub struct FleetSweepResult {
    /// Replica counts swept.
    pub replica_counts: Vec<usize>,
    /// Dispatch policies swept.
    pub dispatches: Vec<DispatchPolicy>,
    /// Kill schedules swept.
    pub schedules: Vec<KillSchedule>,
    /// One cell per *valid* grid point (kill schedules need ≥ 2
    /// replicas, so single-replica rows only carry `none`).
    pub cells: Vec<FleetCell>,
}

impl FleetSweepResult {
    /// The measured cell for a grid point.
    pub fn cell(
        &self,
        replicas: usize,
        dispatch: DispatchPolicy,
        schedule: KillSchedule,
    ) -> Option<&FleetCell> {
        self.cells
            .iter()
            .find(|c| c.replicas == replicas && c.dispatch == dispatch && c.schedule == schedule)
    }

    /// How many cells replayed bit-identically.
    pub fn reproducible_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.reproducible).count()
    }

    /// Cells whose schedule hot-swapped or shadow-deployed a model; the
    /// zero-casualty claim quantifies over these.
    pub fn deploy_cells(&self) -> impl Iterator<Item = &FleetCell> {
        self.cells.iter().filter(|c| c.report.stats.deploys > 0)
    }
}

/// Sweep grid for a scale: (replica counts, dispatch policies,
/// schedules).
fn grid(scale: ExperimentScale) -> (Vec<usize>, Vec<DispatchPolicy>, Vec<KillSchedule>) {
    let dispatches = vec![
        DispatchPolicy::ConsistentHash,
        DispatchPolicy::LeastOutstanding,
    ];
    match scale {
        ExperimentScale::Full => (vec![1, 2, 4], dispatches, KillSchedule::ALL.to_vec()),
        ExperimentScale::Quick => (
            vec![2],
            dispatches,
            vec![KillSchedule::None, KillSchedule::KillDeploy],
        ),
    }
}

/// One cell's scenario: the chaos recipe's fleet and replica shape with
/// the swept replica count, dispatch policy and kill schedule.
fn cell_scenario(
    replicas: usize,
    dispatch: DispatchPolicy,
    schedule: KillSchedule,
    scale: ExperimentScale,
) -> Scenario {
    let seed = 0xF1EE_0B5E
        ^ ((replicas as u64) << 16)
        ^ (u64::from(dispatch == DispatchPolicy::LeastOutstanding) << 8)
        ^ schedule.label().len() as u64;
    Scenario::chaos(replicas, false)
        .with_seed(seed)
        .with_dispatch(dispatch)
        .with_scenes(parse_scenes(schedule.scenes(scale)).expect("sweep scene spec parses"))
}

/// Runs the sweep. Panics if any cell violates an engine invariant (see
/// [`run_cell`]): a lost leg, a reconciliation mismatch, a deploy
/// casualty or a nonzero shadow diff.
pub fn run(scale: ExperimentScale) -> FleetSweepResult {
    let (replica_counts, dispatches, schedules) = grid(scale);
    let mut cells = Vec::new();
    for &replicas in &replica_counts {
        for &dispatch in &dispatches {
            for &schedule in &schedules {
                if schedule.kills() && replicas < 2 {
                    continue;
                }
                let label = format!(
                    "fleet cell ({replicas} replicas, {} dispatch, {} schedule)",
                    dispatch.label(),
                    schedule.label()
                );
                let scenario = cell_scenario(replicas, dispatch, schedule, scale);
                let (report, reproducible) = run_cell(&label, &scenario);
                cells.push(FleetCell {
                    replicas,
                    dispatch,
                    schedule,
                    report,
                    reproducible,
                });
            }
        }
    }
    FleetSweepResult {
        replica_counts,
        dispatches,
        schedules,
        cells,
    }
}

/// Renders the sweep as one row per cell plus the invariant summary.
pub fn render(result: &FleetSweepResult) -> String {
    let mut table = TextTable::new(vec![
        "replicas", "dispatch", "schedule", "legs", "done", "redir", "failed", "kills", "revives",
        "promos", "shadow", "repro",
    ]);
    for cell in &result.cells {
        let s = &cell.report.stats;
        table.add_row(vec![
            cell.replicas.to_string(),
            cell.dispatch.label().to_string(),
            cell.schedule.label().to_string(),
            s.submitted.to_string(),
            s.completed.to_string(),
            s.redirected.to_string(),
            s.failed.to_string(),
            cell.report.kills.to_string(),
            cell.report.revives.to_string(),
            s.promotions.to_string(),
            if s.shadow_samples > 0 {
                format!("{:.1}", s.shadow_max_delta)
            } else {
                "-".to_string()
            },
            if cell.reproducible { "yes" } else { "VARIED" }.to_string(),
        ]);
    }
    let mut out =
        String::from("Fleet resilience — replica count x dispatch policy x kill schedule\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "conservation : submitted legs = completed + rejected + expired + failed \
         + redirected held at every scene boundary of all {} cells, router/replica \
         reconciled (the engine fails otherwise)\n",
        result.cells.len()
    ));
    let deploy_cells = result.deploy_cells().count();
    let deploy_failed: u64 = result.deploy_cells().map(|c| c.report.stats.failed).sum();
    out.push_str(&format!(
        "hot swap     : {deploy_failed} failed legs across {deploy_cells} deploy cells \
         (zero-downtime: every mid-storm swap landed without a casualty)\n"
    ));
    out.push_str(&format!(
        "reproducible : {}/{} cells replayed to bit-identical fleet ledgers\n",
        result.reproducible_cells(),
        result.cells.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sweep_schedule_validates_against_its_fleet() {
        for scale in [ExperimentScale::Quick, ExperimentScale::Full] {
            let (replica_counts, dispatches, schedules) = grid(scale);
            for &replicas in &replica_counts {
                for &dispatch in &dispatches {
                    for &schedule in &schedules {
                        if schedule.kills() && replicas < 2 {
                            continue;
                        }
                        let scenario = cell_scenario(replicas, dispatch, schedule, scale);
                        scenario.validate().unwrap_or_else(|e| {
                            panic!(
                                "sweep cell ({replicas}, {}, {}) invalid: {e}",
                                dispatch.label(),
                                schedule.label()
                            )
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn schedule_labels_are_distinct() {
        let labels: Vec<_> = KillSchedule::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["none", "kill", "kill+swap"]);
        assert!(!KillSchedule::None.kills());
        assert!(KillSchedule::KillDeploy.kills());
    }
}
