//! (Ours) The background-workload scenario matrix.
//!
//! The paper runs every MFC against a server that is simultaneously
//! serving its regular users, observes that background load shifts
//! stopping sizes (Univ-3, §4), and recommends probing under diverse
//! background conditions — but its methodology assumes the background is
//! *stationary* during the run.  This experiment arms two targets with the
//! nonstationary workloads real sites actually serve (diurnal sessions,
//! MMPP burstiness, an organic flash-crowd surge) and asks, per cell:
//! where does the Large Object stage stop, and does the noise-robust
//! inference attribute the outcome honestly?
//!
//! The interesting diagonal:
//!
//! * `flash-crowd` against the thin-link box must read **background
//!   interference** — the surge saturates the 10 Mbit/s link during the
//!   evidence epochs, so the stopping crowd measures crowd + surge;
//! * `quiescent` against the thin-link box keeps its genuine **server
//!   constraint** verdict at a larger stopping crowd;
//! * the fortress shrugs the same surge off — 4 MB/s of downloads is noise
//!   to a gigabit link — which pins that the verdict tracks *interference
//!   with the measurement*, not the mere presence of background traffic.

use mfc_core::backend::sim::SimBackend;
use mfc_core::config::MfcConfig;
use mfc_core::coordinator::Coordinator;
use mfc_core::inference::DegradationCause;
use mfc_core::types::Stage;
use mfc_workload::{
    ArrivalProcess, ClientSpec, MixWeights, MmppState, RequestModel, SessionModel, SourceSpec,
    WorkloadSpec,
};
use serde::{Deserialize, Serialize};

use super::TargetRow;

/// The background-workload scenarios on the matrix's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadScenario {
    /// The paper's negotiated quiet hour: no background at all.
    Quiescent,
    /// Session-structured browsing on a day/night cycle.
    Diurnal,
    /// Markov-modulated burstiness: long quiet stretches, short dense
    /// bursts of downloads.
    Mmpp,
    /// An organic flash-crowd surge of downloads whose ramp lands on the
    /// MFC's evidence epochs.
    FlashCrowd,
}

impl WorkloadScenario {
    /// All scenarios in column order.
    pub const ALL: [WorkloadScenario; 4] = [
        WorkloadScenario::Quiescent,
        WorkloadScenario::Diurnal,
        WorkloadScenario::Mmpp,
        WorkloadScenario::FlashCrowd,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadScenario::Quiescent => "quiescent",
            WorkloadScenario::Diurnal => "diurnal",
            WorkloadScenario::Mmpp => "mmpp",
            WorkloadScenario::FlashCrowd => "flash-crowd",
        }
    }

    /// The workload spec the scenario arms the target with.
    pub fn workload(self) -> Option<WorkloadSpec> {
        match self {
            WorkloadScenario::Quiescent => None,
            WorkloadScenario::Diurnal => Some(WorkloadSpec::sessions(
                // ~1 browsing session/s on a compressed day/night cycle.
                ArrivalProcess::diurnal(1.0, 0.7, 600.0, 12),
                SessionModel::browsing(),
                ClientSpec::default(),
            )),
            WorkloadScenario::Mmpp => Some(WorkloadSpec::empty().with_source(SourceSpec {
                label: "bursty-downloads".to_string(),
                client: ClientSpec::default(),
                arrivals: ArrivalProcess::Mmpp {
                    states: vec![
                        MmppState {
                            rate_per_sec: 0.3,
                            mean_dwell_secs: 60.0,
                        },
                        MmppState {
                            rate_per_sec: 20.0,
                            mean_dwell_secs: 8.0,
                        },
                    ],
                },
                requests: RequestModel::Mix(MixWeights::downloads()),
            })),
            WorkloadScenario::FlashCrowd => Some(WorkloadSpec::empty().with_source(SourceSpec {
                label: "organic-surge".to_string(),
                client: ClientSpec::default(),
                arrivals: ArrivalProcess::FlashCrowd {
                    base_rate: 0.2,
                    peak_rate: 40.0,
                    // The base measurements plus the first
                    // (sub-inference-threshold) epoch take ~90 s; the
                    // surge then covers every evidence epoch, while
                    // epoch 1 anchors the quiet baseline.
                    onset_secs: 100.0,
                    ramp_secs: 15.0,
                    hold_secs: 600.0,
                    decay_secs: 60.0,
                },
                requests: RequestModel::Mix(MixWeights::downloads()),
            })),
        }
    }
}

/// One cell: one target under one background workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadCell {
    /// Target row label.
    pub target: String,
    /// Workload scenario label.
    pub workload: String,
    /// Large Object stopping crowd (`None` = NoStop).
    pub large_object: Option<usize>,
    /// Attributed cause of the Large Object outcome.
    pub cause: DegradationCause,
    /// Whether the verdict is background-surge confounded.
    pub confounded: bool,
    /// Background (non-MFC) requests the target served during the run.
    pub background_requests: u64,
    /// MFC requests issued during the run.
    pub mfc_requests: usize,
}

/// The full matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMatrixResult {
    /// Cells in (target-major, scenario-minor) order.
    pub cells: Vec<WorkloadCell>,
}

impl WorkloadMatrixResult {
    /// The cell for a target/scenario pair.
    pub fn cell(&self, target: TargetRow, scenario: WorkloadScenario) -> Option<&WorkloadCell> {
        self.cells
            .iter()
            .find(|c| c.target == target.label() && c.workload == scenario.label())
    }

    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out =
            String::from("Workload matrix — background conditions vs. what the MFC reports\n");
        out.push_str(&format!(
            "  {:<10} {:<12} {:>9} {:>24} {:>9} {:>8}\n",
            "Target", "Background", "LargeObj", "Cause", "BGreqs", "MFCreqs"
        ));
        for row in &self.cells {
            let crowd = match row.large_object {
                Some(c) => c.to_string(),
                None => "NoStop".to_string(),
            };
            out.push_str(&format!(
                "  {:<10} {:<12} {:>9} {:>24} {:>9} {:>8}\n",
                row.target,
                row.workload,
                crowd,
                format!("{:?}", row.cause),
                row.background_requests,
                row.mfc_requests,
            ));
        }
        out.push_str(
            "  flash-crowd against the thin link lands the surge on the evidence epochs: the\n\
             \x20 stage stops early, and the verdict must say BackgroundInterference instead of\n\
             \x20 fabricating a tighter bandwidth constraint.  The fortress absorbs the same\n\
             \x20 surge without a flag — the verdict tracks measurement interference, not the\n\
             \x20 mere presence of background traffic.\n",
        );
        out
    }
}

fn run_cell(
    target: TargetRow,
    scenario: WorkloadScenario,
    clients: usize,
    seed: u64,
) -> WorkloadCell {
    let mut spec = target.spec();
    if let Some(workload) = scenario.workload() {
        spec = spec.with_workload(workload);
    }
    let config = MfcConfig::standard()
        .with_stages(vec![Stage::LargeObject])
        .with_max_crowd(40)
        .with_increment(10);
    let mut backend = SimBackend::new(spec, clients, seed);
    let report = Coordinator::new(config)
        .with_seed(seed ^ 0x3A_17)
        .run(&mut backend)
        .expect("enough clients");
    WorkloadCell {
        target: target.label().to_string(),
        workload: scenario.label().to_string(),
        large_object: report.stopping_crowd(Stage::LargeObject),
        cause: report
            .inference
            .cause_of(Stage::LargeObject)
            .unwrap_or(DegradationCause::Indeterminate),
        confounded: report.inference.background_interference_suspected(),
        background_requests: backend.background_requests_served(),
        mfc_requests: report.total_requests,
    }
}

/// Runs the matrix: each (target, scenario) cell is an independent trial on
/// the shared [`TrialRunner`](mfc_core::runner::TrialRunner).
pub fn run(seed: u64) -> WorkloadMatrixResult {
    let clients = 75;
    let cells = super::grid(
        &TargetRow::ALL,
        &WorkloadScenario::ALL,
        seed,
        |target, scenario, cell_seed| run_cell(target, scenario, clients, cell_seed),
    );
    WorkloadMatrixResult { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_flags_the_surge_and_only_the_surge() {
        let result = run(104);
        assert_eq!(result.cells.len(), 8);

        // The thin link under a quiet background: a genuine constraint.
        let quiet = result
            .cell(TargetRow::ThinLink, WorkloadScenario::Quiescent)
            .unwrap();
        assert!(quiet.large_object.is_some(), "{quiet:?}");
        assert_eq!(
            quiet.cause,
            DegradationCause::ResourceConstraint,
            "{quiet:?}"
        );
        assert!(!quiet.confounded);
        assert_eq!(quiet.background_requests, 0);

        // The same target with the surge on the evidence epochs: the
        // verdict must call the confound.
        let surged = result
            .cell(TargetRow::ThinLink, WorkloadScenario::FlashCrowd)
            .unwrap();
        assert!(surged.large_object.is_some(), "{surged:?}");
        assert_eq!(
            surged.cause,
            DegradationCause::BackgroundInterference,
            "{surged:?}"
        );
        assert!(surged.confounded);
        assert!(surged.background_requests > 100);

        // The fortress shrugs the identical surge off, unflagged.
        let fortress = result
            .cell(TargetRow::Fortress, WorkloadScenario::FlashCrowd)
            .unwrap();
        assert!(!fortress.confounded, "{fortress:?}");
        assert!(fortress.background_requests > 100);

        assert!(result.render_text().contains("flash-crowd"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(WorkloadScenario::FlashCrowd.label(), "flash-crowd");
        assert_eq!(TargetRow::ThinLink.label(), "thin-link");
        assert_eq!(WorkloadScenario::ALL.len(), 4);
        assert!(WorkloadScenario::Quiescent.workload().is_none());
        for scenario in &WorkloadScenario::ALL[1..] {
            assert!(scenario.workload().unwrap().validate().is_ok());
        }
    }
}
