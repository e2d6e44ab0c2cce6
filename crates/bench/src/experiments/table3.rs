//! Table 3: MFC-mr runs against the two US university servers.
//!
//! Univ-2 (Table 3(a)): a 1 Gbps link and modern hardware, but a software
//! configuration untouched for years — every stage stops (or nearly stops)
//! around 110–150 simultaneous requests regardless of what resource it
//! targets, which the operators attributed to thread limits.
//!
//! Univ-3 (Table 3(b)): adequate base HTTP processing and well-provisioned
//! bandwidth, but the legacy application stack does not cache query
//! responses, so the Small Query stage collapses at ~30 clients in every
//! run.  The Base stage is sensitive to the amount of background traffic
//! (morning vs late-evening runs).

use mfc_core::backend::sim::SimBackend;
use mfc_core::coordinator::Coordinator;
use mfc_core::runner::TrialRunner;
use mfc_core::types::Stage;
use mfc_sites::CoopSite;
use mfc_webserver::BackgroundTraffic;
use serde::{Deserialize, Serialize};

/// One experiment row (one run against one university at one time of day).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Which university.
    pub site: String,
    /// Time-of-day label for the run ("morning", "afternoon", "late evening").
    pub when: String,
    /// Background traffic rate during the run, in requests/second.
    pub background_rate: f64,
    /// Stopping crowd for the Base stage (`None` = NoStop).
    pub base: Option<usize>,
    /// Stopping crowd for the Small Query stage.
    pub small_query: Option<usize>,
    /// Stopping crowd for the Large Object stage.
    pub large_object: Option<usize>,
    /// MFC requests issued during the run.
    pub mfc_requests: usize,
    /// Background requests the server handled during the run.
    pub background_requests: u64,
}

/// The Table 3 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Result {
    /// Rows for Univ-2 followed by Univ-3.
    pub rows: Vec<Table3Row>,
}

impl Table3Result {
    /// Rows belonging to one site.
    pub fn rows_for(&self, site: &str) -> Vec<&Table3Row> {
        self.rows.iter().filter(|r| r.site == site).collect()
    }

    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let cell = |v: Option<usize>| match v {
            Some(c) => c.to_string(),
            None => "NoStop".to_string(),
        };
        let mut out = String::from("Table 3 — Univ-2 and Univ-3 (MFC-mr, 250 ms threshold)\n");
        out.push_str(&format!(
            "  {:<8} {:<13} {:>8} {:>10} {:>12} {:>12} {:>10} {:>10}\n",
            "Site", "When", "bg r/s", "Base", "Small Qry", "Large Obj", "MFC reqs", "bg reqs"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<8} {:<13} {:>8.1} {:>10} {:>12} {:>12} {:>10} {:>10}\n",
                row.site,
                row.when,
                row.background_rate,
                cell(row.base),
                cell(row.small_query),
                cell(row.large_object),
                row.mfc_requests,
                row.background_requests
            ));
        }
        out.push_str("  paper: Univ-2 stops ~110-150 on every stage; Univ-3 Small Qry stops at ~30, Large Obj never\n");
        out
    }
}

fn run_site(
    site: CoopSite,
    when: &str,
    background_rate: f64,
    clients: usize,
    seed: u64,
) -> Table3Row {
    let spec = site
        .target_spec()
        .with_background(BackgroundTraffic::at_rate(background_rate));
    let mut backend = SimBackend::new(spec, clients, seed);
    let report = Coordinator::new(site.mfc_config())
        .with_seed(seed)
        .run(&mut backend)
        .expect("enough clients");
    Table3Row {
        site: site.label().to_string(),
        when: when.to_string(),
        background_rate,
        base: report.stopping_crowd(Stage::Base),
        small_query: report.stopping_crowd(Stage::SmallQuery),
        large_object: report.stopping_crowd(Stage::LargeObject),
        mfc_requests: report.total_requests,
        background_requests: backend.background_requests_served(),
    }
}

/// Runs the Table 3 reproduction: three runs per university with the
/// background-traffic levels the paper reports for each time of day.  Every
/// (site, time-of-day) run is an independent trial on the shared
/// [`TrialRunner`].
pub fn run(seed: u64) -> Table3Result {
    let clients = 75;
    let univ2_rates = [4.2, 2.9, 3.5];
    let univ3_rates = [20.3, 18.7, 12.5];
    let labels = ["morning", "afternoon", "late evening"];

    let mut trials = Vec::new();
    for i in 0..labels.len() {
        trials.push((CoopSite::Univ2, labels[i], univ2_rates[i], seed + i as u64));
    }
    for i in 0..labels.len() {
        trials.push((
            CoopSite::Univ3,
            labels[i],
            univ3_rates[i],
            seed + 10 + i as u64,
        ));
    }
    let rows = TrialRunner::from_env().run(trials, |_, (site, when, rate, run_seed)| {
        run_site(site, when, rate, clients, run_seed)
    });
    Table3Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn university_shapes_match_paper() {
        let result = run(37);
        let univ3 = result.rows_for("Univ-3");
        assert!(!univ3.is_empty());
        for row in &univ3 {
            // Univ-3's uncached query handling collapses at a small crowd in
            // every run, while its bandwidth never does.
            assert!(
                row.small_query.is_some(),
                "Univ-3 Small Query must stop: {row:?}"
            );
            assert_eq!(
                row.large_object, None,
                "Univ-3 bandwidth is plentiful: {row:?}"
            );
            if let (Some(sq), Some(base)) = (row.small_query, row.base) {
                assert!(sq <= base, "queries must be the weak point: {row:?}");
            }
            assert!(row.background_requests > 0);
        }
        let univ2 = result.rows_for("Univ-2");
        for row in &univ2 {
            // Univ-2 is well provisioned at small crowds: nothing stops
            // below ~50 clients even though larger crowds eventually queue
            // behind the thread limit.
            for stopped in [row.base, row.small_query].into_iter().flatten() {
                assert!(stopped >= 30, "Univ-2 must not collapse early: {row:?}");
            }
        }
        assert!(result.render_text().contains("Univ-3"));
    }
}
