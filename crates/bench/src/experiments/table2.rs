//! Table 2: synchronization quality of MFC-mr requests arriving at the QTP
//! production data centre.
//!
//! The paper's October 3 experiment against QTP (16 load-balanced servers,
//! millions of background requests, each client firing five parallel
//! requests) reports, for every epoch of every stage: how many requests the
//! coordinator scheduled, how many showed up in the server logs, and the
//! time spread of the middle 90 % of the arrivals.  Base/Small Query
//! arrivals span fractions of a second; Large Object arrivals spread out to
//! a few seconds.  QTP's response times were unaffected throughout — the
//! cluster simply absorbs the crowd.

use mfc_core::backend::sim::SimBackend;
use mfc_core::coordinator::Coordinator;
use mfc_core::runner::TrialRunner;
use mfc_core::types::Stage;
use mfc_sites::CoopSite;
use serde::{Deserialize, Serialize};

/// One epoch row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Stage the epoch belongs to.
    pub stage: String,
    /// Requests the coordinator scheduled.
    pub scheduled: usize,
    /// Requests that arrived at the servers (appear in the logs).
    pub received: usize,
    /// Time spread of the middle 90 % of the arrivals, in seconds.
    pub spread_90_secs: Option<f64>,
    /// Median normalized response time for the epoch, in milliseconds
    /// (the paper reports that it never moved by even 10 ms).
    pub median_ms: f64,
}

/// The Table 2 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Result {
    /// Per-epoch rows, grouped by stage in execution order.
    pub rows: Vec<Table2Row>,
    /// Whether any stage showed a confirmed degradation (the paper: none).
    pub any_stage_stopped: bool,
    /// Background (non-MFC) requests the cluster served during the run.
    pub background_requests: u64,
}

impl Table2Result {
    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out =
            String::from("Table 2 — time spread of MFC-mr requests to QTP (16-server cluster)\n");
        out.push_str(&format!(
            "  {:<12} {:>10} {:>10} {:>16} {:>12}\n",
            "Stage", "scheduled", "received", "90% spread (s)", "median (ms)"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<12} {:>10} {:>10} {:>16} {:>12.1}\n",
                row.stage,
                row.scheduled,
                row.received,
                row.spread_90_secs
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "-".to_string()),
                row.median_ms
            ));
        }
        out.push_str(&format!(
            "  background requests during the run: {} — any stage stopped: {}\n",
            self.background_requests,
            if self.any_stage_stopped {
                "yes"
            } else {
                "no (matches paper)"
            }
        ));
        out
    }
}

/// Runs the Table 2 reproduction: a full MFC-mr(5) experiment against the
/// QTP cluster, reporting per-epoch synchronization quality.
pub fn run(seed: u64) -> Table2Result {
    let clients = 75;
    let config = CoopSite::Qtp.mfc_config();
    // A single full MFC-mr run: epochs within one run are inherently
    // sequential (each reacts to the previous), so this experiment is one
    // trial on the shared runner rather than a fan-out.
    let (report, background_requests) = TrialRunner::from_env()
        .run(vec![seed], |_, run_seed| {
            let mut backend = SimBackend::new(CoopSite::Qtp.target_spec(), clients, run_seed);
            let report = Coordinator::new(config.clone())
                .with_seed(run_seed)
                .run(&mut backend)
                .expect("enough clients");
            (report, backend.background_requests_served())
        })
        .into_iter()
        .next()
        .expect("exactly one trial");

    let mut rows = Vec::new();
    for stage_report in &report.stages {
        for epoch in &stage_report.epochs {
            if epoch.check_phase {
                continue;
            }
            rows.push(Table2Row {
                stage: stage_report.stage.name().to_string(),
                scheduled: epoch.requests_scheduled,
                received: epoch.requests_observed,
                spread_90_secs: epoch.arrival_spread_90.map(|d| d.as_secs_f64()),
                median_ms: epoch.median_ms,
            });
        }
    }
    let any_stage_stopped = report
        .stages
        .iter()
        .any(|s| s.outcome.stopping_crowd().is_some());
    let _ = Stage::ALL;

    Table2Result {
        rows,
        any_stage_stopped,
        background_requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qtp_absorbs_the_crowd_with_tight_sync() {
        for seed in [13, 1] {
            let result = run(seed);
            assert!(!result.rows.is_empty());
            // The production cluster never degrades.
            assert!(!result.any_stage_stopped, "seed {seed}");
            for row in &result.rows {
                // Received can be lower than scheduled (lost UDP commands) but
                // never higher.
                assert!(row.received <= row.scheduled, "{row:?}");
                // Some requests must actually arrive.
                assert!(row.received > 0, "{row:?}");
                if let Some(spread) = row.spread_90_secs {
                    assert!(spread < 10.0, "synchronization spread too wide: {row:?}");
                }
            }
            // Base/Small Query epochs should be tighter than Large Object ones,
            // as in the paper.
            let avg = |stage: &str| {
                let spreads: Vec<f64> = result
                    .rows
                    .iter()
                    .filter(|r| r.stage == stage)
                    .filter_map(|r| r.spread_90_secs)
                    .collect();
                spreads.iter().sum::<f64>() / spreads.len().max(1) as f64
            };
            assert!(avg("Base") <= avg("Large Object") + 1.0);
            assert!(result.render_text().contains("Table 2"));
        }
    }
}
