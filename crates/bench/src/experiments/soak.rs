//! Long-haul soak sweep — weather kind × severity × rig size.
//!
//! The chaos experiment stresses the server with request-level fault
//! schedules; this one stresses the whole *scenario* pipeline: every
//! cell drives the [`sf_chaos`] engine on rig traffic (rendered weather,
//! occluder traffic, a multi-LiDAR rig, a mid-run dead-sensor burst)
//! against a replica fleet, twice, and records the ledger plus whether
//! the two runs fingerprint identically.
//!
//! The headline claims this table backs:
//! - **conservation under weather** — every window of every cell
//!   reconciles `submitted = completed + rejected + expired + failed +
//!   redirected` (the engine fails the cell otherwise);
//! - **bounded memory** — every cell's scratch arenas reach their final
//!   high-water mark in the first window;
//! - **breaker isolation** — the burst source trips and recovers in
//!   every cell while the clean sources never trip, independent of
//!   weather severity or rig size;
//! - **determinism** — every cell replays to an identical fingerprint.

use sf_chaos::{Report, Scenario, Traffic, WeatherFront};
use sf_scene::{Rig, Weather};

use crate::experiments::run_cell;
use crate::{ExperimentScale, TextTable};

/// One (weather, rig) soak measurement.
#[derive(Debug, Clone)]
pub struct SoakCell {
    /// The constant weather the cell ran under.
    pub weather: Weather,
    /// Number of rig mounts (independent LiDAR sources).
    pub rig_size: usize,
    /// The first run's full report.
    pub report: Report,
    /// Whether the second run produced the identical fingerprint.
    pub reproducible: bool,
}

/// The full sweep and its per-cell reports.
#[derive(Debug, Clone)]
pub struct SoakSweepResult {
    /// One cell per (weather, rig) grid point.
    pub cells: Vec<SoakCell>,
    /// Frames per cell (one run; each cell executes two runs).
    pub frames: u64,
}

impl SoakSweepResult {
    /// How many cells replayed bit-identically.
    pub fn reproducible_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.reproducible).count()
    }
}

/// Sweep grid for a scale: (weathers, rigs, frames, window).
fn grid(scale: ExperimentScale) -> (Vec<Weather>, Vec<Rig>, u64, u64) {
    let weathers = vec![
        Weather::clear(),
        Weather::rain(0.3),
        Weather::rain(0.7),
        Weather::fog(0.3),
        Weather::fog(0.7),
        Weather::snow(0.3),
        Weather::snow(0.7),
    ];
    match scale {
        ExperimentScale::Full => (weathers, vec![Rig::dual(), Rig::triple()], 240, 60),
        ExperimentScale::Quick => (
            vec![Weather::clear(), Weather::fog(0.7)],
            vec![Rig::dual()],
            120,
            30,
        ),
    }
}

/// Builds one cell's scenario: the smoke soak reshaped to the sweep's
/// frame budget, pinned to one weather and one rig. The dead-sensor
/// bursts on source 1 stay so every cell also exercises the breaker, and
/// four windows per cell means every cell asserts the scratch plateau.
fn cell_scenario(weather: Weather, rig: &Rig, frames: u64, window: u64) -> Scenario {
    let mut scenario = Scenario::soak(true)
        .with_seed(0x50A4 ^ (rig.len() as u64) << 16 ^ (weather.to_string().len() as u64))
        .with_windows(frames, window);
    if let Traffic::Rig {
        rig: mounts,
        fronts,
        ..
    } = &mut scenario.traffic
    {
        *mounts = rig.clone().with_resolution(12, 48);
        *fronts = vec![WeatherFront { frame: 0, weather }];
    }
    scenario
}

/// Runs the sweep. Panics if any cell violates an engine invariant (see
/// [`run_cell`]): a lost request, window non-conservation, arena growth
/// or a breaker off schedule.
pub fn run(scale: ExperimentScale) -> SoakSweepResult {
    let (weathers, rigs, frames, window) = grid(scale);
    let mut cells = Vec::new();
    for &weather in &weathers {
        for rig in &rigs {
            let label = format!("soak cell (weather {weather}, {} mounts)", rig.len());
            let scenario = cell_scenario(weather, rig, frames, window);
            let (report, reproducible) = run_cell(&label, &scenario);
            cells.push(SoakCell {
                weather,
                rig_size: rig.len(),
                report,
                reproducible,
            });
        }
    }
    SoakSweepResult { cells, frames }
}

/// Renders the sweep as one row per cell plus the invariant summary.
pub fn render(result: &SoakSweepResult) -> String {
    let mut table = TextTable::new(vec![
        "weather", "rig", "frames", "done", "rejected", "failed", "trips@1", "windows", "peak KiB",
        "plateau", "repro",
    ]);
    for cell in &result.cells {
        let s = &cell.report.stats;
        table.add_row(vec![
            cell.weather.to_string(),
            cell.rig_size.to_string(),
            result.frames.to_string(),
            s.completed.to_string(),
            s.rejected.to_string(),
            s.failed.to_string(),
            cell.report
                .source_trips
                .get(&1)
                .copied()
                .unwrap_or(0)
                .to_string(),
            cell.report.checkpoints.len().to_string(),
            (cell
                .report
                .checkpoints
                .last()
                .map_or(0, |c| c.scratch_peak_bytes)
                / 1024)
                .to_string(),
            format!("window {}", cell.report.plateau + 1),
            if cell.reproducible { "yes" } else { "VARIED" }.to_string(),
        ]);
    }
    let mut out = String::from("Soak scenarios — weather x severity x rig size\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "conservation : every window of all {} cells reconciled submitted = completed \
         + rejected + expired + failed + redirected (the engine fails otherwise)\n",
        result.cells.len()
    ));
    out.push_str(
        "breakers     : source 1's dead-sensor burst tripped and re-closed in every \
         cell; clean sources never tripped\n",
    );
    out.push_str(
        "memory       : every cell's scratch peak (replica executors + driver thread) \
         plateaued within its first window (asserted in-process, every cell)\n",
    );
    out.push_str(&format!(
        "reproducible : {}/{} cells replayed to identical fingerprints\n",
        result.reproducible_cells(),
        result.cells.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_configs_validate_at_both_scales() {
        for scale in [ExperimentScale::Full, ExperimentScale::Quick] {
            let (weathers, rigs, frames, window) = grid(scale);
            for &weather in &weathers {
                for rig in &rigs {
                    cell_scenario(weather, rig, frames, window)
                        .validate()
                        .expect("sweep cell scenario valid");
                }
            }
        }
    }

    #[test]
    fn quick_sweep_conserves_and_reproduces() {
        let result = run(ExperimentScale::Quick);
        assert_eq!(result.cells.len(), 2);
        assert_eq!(result.reproducible_cells(), 2);
        for cell in &result.cells {
            let s = &cell.report.stats;
            assert_eq!(s.completed, result.frames * cell.rig_size as u64);
            assert!(cell.report.source_trips[&1] > 0, "burst source must trip");
            assert_eq!(cell.report.plateau, 0, "plateau is asserted in every cell");
        }
        let text = render(&result);
        assert!(text.contains("fog:0.7"), "{text}");
        assert!(text.contains("2/2 cells"), "{text}");
    }
}
