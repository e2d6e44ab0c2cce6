//! Tables 4 and 5: startup companies and phishing servers.
//!
//! * **Table 4** — startup servers probed with the Base and Small Query
//!   stages: roughly a quarter cannot handle 20 simultaneous HEAD requests,
//!   a third cannot handle 20 simultaneous queries, and a bit over half
//!   never degrade at all (they sit on decent commercial hosting).
//! * **Table 5** — phishing servers probed with the Base stage: the
//!   distribution is similar to the lowest Quantcast rank class, i.e. a
//!   significant fraction (~28 %) cannot handle 30 simultaneous requests
//!   and about half never degrade.

use mfc_core::types::Stage;
use mfc_sites::{survey, SiteClass, StoppingBucket, SurveyResult};
use serde::{Deserialize, Serialize};

use crate::Scale;

/// The Table 4 reproduction (startups).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Result {
    /// Base-stage survey over startup servers.
    pub base: SurveyResult,
    /// Small-Query-stage survey over startup servers.
    pub small_query: SurveyResult,
}

impl Table4Result {
    /// Paper-style text rendering (percentage per bucket for each stage).
    pub fn render_text(&self) -> String {
        let mut out = String::from("Table 4 — stopping crowd sizes for startup servers\n");
        out.push_str(&format!(
            "  {:<12} {:>10} {:>12}\n",
            "Crowdsize", "Base", "Small Query"
        ));
        let base = self.base.bucket_fractions();
        let query = self.small_query.bucket_fractions();
        for (i, bucket) in StoppingBucket::ALL.iter().enumerate() {
            out.push_str(&format!(
                "  {:<12} {:>9.0}% {:>11.0}%\n",
                bucket.label(),
                base[i] * 100.0,
                query[i] * 100.0
            ));
        }
        out.push_str("  paper: Base 24% <=20 / 58% NoStop; Small Query 33% <=20 / 44% NoStop\n");
        out
    }
}

/// The Table 5 reproduction (phishing servers, Base stage).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table5Result {
    /// Base-stage survey over phishing servers.
    pub base: SurveyResult,
    /// The 100K–1M rank class surveyed the same way, for the comparison the
    /// paper draws ("similar to low-end Web sites").
    pub low_rank_reference: SurveyResult,
}

impl Table5Result {
    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out =
            String::from("Table 5 — stopping crowd sizes for phishing servers (Base stage)\n");
        out.push_str(&format!(
            "  {:<12} {:>10} {:>14}\n",
            "Crowdsize", "Phishing", "100K-1M ref"
        ));
        let phishing = self.base.bucket_fractions();
        let reference = self.low_rank_reference.bucket_fractions();
        for (i, bucket) in StoppingBucket::ALL.iter().enumerate() {
            out.push_str(&format!(
                "  {:<12} {:>9.0}% {:>13.0}%\n",
                bucket.label(),
                phishing[i] * 100.0,
                reference[i] * 100.0
            ));
        }
        out.push_str(
            "  paper: 28% of phishing sites stop <=30; ~50% NoStop — similar to low-rank sites\n",
        );
        out
    }
}

/// Runs the Table 4 reproduction.
pub fn run_table4(scale: Scale, seed: u64) -> Table4Result {
    let base = survey::run_survey(
        SiteClass::Startup,
        &super::survey_config(SiteClass::Startup, Stage::Base, scale, seed),
    );
    let small_query = survey::run_survey(
        SiteClass::Startup,
        &super::survey_config(SiteClass::Startup, Stage::SmallQuery, scale, seed),
    );
    Table4Result { base, small_query }
}

/// Runs the Table 5 reproduction.
pub fn run_table5(scale: Scale, seed: u64) -> Table5Result {
    let base = survey::run_survey(
        SiteClass::Phishing,
        &super::survey_config(SiteClass::Phishing, Stage::Base, scale, seed),
    );
    let low_rank_reference = survey::run_survey(
        SiteClass::Rank100KTo1M,
        &super::survey_config(SiteClass::Rank100KTo1M, Stage::Base, scale, seed),
    );
    Table5Result {
        base,
        low_rank_reference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startups_struggle_more_with_queries_than_heads() {
        let result = run_table4(Scale::Quick, 4);
        assert_eq!(result.base.sites, 8);
        assert!(
            result.small_query.constrained_fraction() >= result.base.constrained_fraction(),
            "queries must constrain at least as many startups as HEADs ({} vs {})",
            result.small_query.constrained_fraction(),
            result.base.constrained_fraction()
        );
        assert!(result.render_text().contains("Table 4"));
    }

    #[test]
    fn phishing_sites_resemble_low_rank_sites() {
        let result = run_table5(Scale::Quick, 5);
        let phishing = result.base.constrained_fraction();
        let reference = result.low_rank_reference.constrained_fraction();
        assert!(
            (phishing - reference).abs() <= 0.5,
            "phishing ({phishing}) and low-rank ({reference}) distributions should be in the same ballpark"
        );
        assert!(result.render_text().contains("Phishing"));
    }
}
