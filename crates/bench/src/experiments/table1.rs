//! Table 1: MFC runs against the QTNP (non-production commercial) server.
//!
//! The paper reports two standard MFC runs (September 11 and 12, 2007,
//! 100 ms threshold) and one MFC-mr run (September 21, 250 ms threshold):
//! Base degrades at 20–25 clients, Small Query at 45–55, and Large Object
//! never degrades; the MFC-mr run pushes the Base and Small Query stopping
//! sizes to 40 and 90 while Large Object still never stops even at 150
//! simultaneous requests.

use mfc_core::backend::sim::SimBackend;
use mfc_core::coordinator::Coordinator;
use mfc_core::report::MfcReport;
use mfc_core::runner::TrialRunner;
use mfc_core::types::Stage;
use mfc_sites::CoopSite;
use serde::{Deserialize, Serialize};

/// One row of Table 1 (one MFC run against QTNP).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Run label ("MFC 100ms #1", "MFC-mr 250ms", …).
    pub label: String,
    /// Threshold in milliseconds.
    pub threshold_ms: f64,
    /// Stopping crowd for the Base stage (`None` = NoStop).
    pub base: Option<usize>,
    /// Stopping crowd for the Small Query stage.
    pub small_query: Option<usize>,
    /// Stopping crowd for the Large Object stage.
    pub large_object: Option<usize>,
    /// Largest crowd tested in the Large Object stage.
    pub large_object_max_tested: usize,
    /// Total MFC requests issued during the run.
    pub total_requests: usize,
}

impl Table1Row {
    fn from_report(label: &str, report: &MfcReport) -> Table1Row {
        let max_tested = report
            .stage(Stage::LargeObject)
            .map(|s| match s.outcome {
                mfc_core::types::StageOutcome::NoStop { max_crowd_tested } => max_crowd_tested,
                mfc_core::types::StageOutcome::Stopped { crowd_size } => crowd_size,
                mfc_core::types::StageOutcome::Skipped => 0,
            })
            .unwrap_or(0);
        Table1Row {
            label: label.to_string(),
            threshold_ms: report.threshold_ms,
            base: report.stopping_crowd(Stage::Base),
            small_query: report.stopping_crowd(Stage::SmallQuery),
            large_object: report.stopping_crowd(Stage::LargeObject),
            large_object_max_tested: max_tested,
            total_requests: report.total_requests,
        }
    }

    fn cell(value: Option<usize>, max_tested: usize) -> String {
        match value {
            Some(crowd) => crowd.to_string(),
            None => format!("NoStop ({max_tested})"),
        }
    }
}

/// The full Table 1 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Result {
    /// One row per MFC run.
    pub rows: Vec<Table1Row>,
}

impl Table1Result {
    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Table 1 — QTNP non-production server\n");
        out.push_str(&format!(
            "  {:<18} {:>10} {:>12} {:>14} {:>10}\n",
            "Run", "Base", "Small Qry", "Large Obj", "#reqs"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<18} {:>10} {:>12} {:>14} {:>10}\n",
                row.label,
                Table1Row::cell(row.base, row.large_object_max_tested),
                Table1Row::cell(row.small_query, row.large_object_max_tested),
                Table1Row::cell(row.large_object, row.large_object_max_tested),
                row.total_requests
            ));
        }
        out.push_str(
            "  paper: Base 20-25 / 40(mr), Small Qry 45-55 / 90(mr), Large Obj NoStop in all runs\n",
        );
        out
    }
}

/// Runs the Table 1 reproduction: two standard MFC runs plus one MFC-mr run
/// against the QTNP configuration.  The three runs are independent trials
/// and execute on the shared [`TrialRunner`].
pub fn run(seed: u64) -> Table1Result {
    // (label, clients, seed, config) for each independent run.
    let trials = vec![
        ("MFC 100ms #1", 65, seed, CoopSite::Qtnp.mfc_config()),
        ("MFC 100ms #2", 65, seed + 1, CoopSite::Qtnp.mfc_config()),
        ("MFC-mr 250ms", 75, seed + 2, CoopSite::qtnp_mr_config()),
    ];
    let rows = TrialRunner::from_env().run(trials, |_, (label, clients, run_seed, config)| {
        let mut backend = SimBackend::new(CoopSite::Qtnp.target_spec(), clients, run_seed);
        let report = Coordinator::new(config)
            .with_seed(run_seed)
            .run(&mut backend)
            .expect("enough clients");
        Table1Row::from_report(label, &report)
    });

    Table1Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qtnp_shape_matches_paper() {
        let result = run(21);
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows[..2] {
            // Large Object must never stop on this well-connected server.
            assert_eq!(row.large_object, None, "row {row:?}");
            // Base must be the most constrained stage.
            if let (Some(base), Some(query)) = (row.base, row.small_query) {
                assert!(
                    base <= query,
                    "Base ({base}) should stop before Small Query ({query})"
                );
            }
            assert!(row.base.is_some(), "Base must show a constraint: {row:?}");
        }
        let text = result.render_text();
        assert!(text.contains("QTNP"));
        assert!(text.contains("NoStop"));
    }
}
