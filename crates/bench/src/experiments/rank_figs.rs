//! Figures 7, 8 and 9: stopping-crowd-size breakdowns across Quantcast rank
//! classes for the Base, Small Query and Large Object stages.
//!
//! The paper's headline findings:
//!
//! * **Figure 7 (Base)** — the fraction of servers that degrade grows
//!   steadily from the most popular class (~17 %) to the least popular
//!   (~45 %); over 15 % of the 100K–1M class cannot handle even 20
//!   simultaneous HEAD requests.
//! * **Figure 8 (Small Query)** — provisioning correlates strongly with
//!   popularity, and Small Query constrains a *larger* fraction of servers
//!   than Base in every class (~75 % of the 100K–1M class cannot handle 50
//!   simultaneous queries).
//! * **Figure 9 (Large Object)** — bandwidth provisioning is *less*
//!   correlated with popularity; apart from the top class, roughly half of
//!   each class degrades within 50 simultaneous downloads, and the
//!   lower-rank classes look better here than they do for Small Query.

use mfc_core::types::Stage;
use mfc_sites::{survey, SiteClass, SurveyResult};
use serde::{Deserialize, Serialize};

use crate::Scale;

/// The breakdown for one stage across the four rank classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankFigureResult {
    /// Which stage (decides whether this is Figure 7, 8 or 9).
    pub stage: Stage,
    /// One survey per rank class, most popular first.
    pub surveys: Vec<SurveyResult>,
}

impl RankFigureResult {
    /// The figure number in the paper.
    pub fn figure_number(&self) -> u8 {
        match self.stage {
            Stage::Base => 7,
            Stage::SmallQuery => 8,
            Stage::LargeObject => 9,
        }
    }

    /// Fraction of constrained servers per class, most popular first.
    pub fn constrained_fractions(&self) -> Vec<f64> {
        self.surveys
            .iter()
            .map(|s| s.constrained_fraction())
            .collect()
    }

    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "Figure {} — stopping crowd sizes for the {} stage by Quantcast rank\n",
            self.figure_number(),
            self.stage.name()
        );
        for survey in &self.surveys {
            out.push_str(&survey.render_text());
        }
        out.push_str("  constrained fraction by class: ");
        let fractions: Vec<String> = self
            .surveys
            .iter()
            .map(|s| {
                format!(
                    "{}={:.0}%",
                    s.class.label(),
                    100.0 * s.constrained_fraction()
                )
            })
            .collect();
        out.push_str(&fractions.join("  "));
        out.push('\n');
        out
    }
}

/// Runs one of Figures 7–9.
pub fn run(stage: Stage, scale: Scale, seed: u64) -> RankFigureResult {
    let surveys = SiteClass::RANKS
        .iter()
        .map(|&class| survey::run_survey(class, &super::survey_config(class, stage, scale, seed)))
        .collect();
    RankFigureResult { stage, surveys }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_stage_constrained_fraction_grows_with_rank() {
        let result = run(Stage::Base, Scale::Quick, 1);
        assert_eq!(result.figure_number(), 7);
        let fractions = result.constrained_fractions();
        assert_eq!(fractions.len(), 4);
        // The least popular class must be at least as constrained as the
        // most popular one (the paper's 17% → 45% trend).
        assert!(
            fractions[3] >= fractions[0],
            "100K-1M ({}) should be at least as constrained as 1-1K ({})",
            fractions[3],
            fractions[0]
        );
        assert!(result.render_text().contains("Figure 7"));
    }

    #[test]
    fn small_query_is_harsher_than_base_for_low_rank_sites() {
        let base = run(Stage::Base, Scale::Quick, 2);
        let query = run(Stage::SmallQuery, Scale::Quick, 2);
        let base_low = base.constrained_fractions()[3];
        let query_low = query.constrained_fractions()[3];
        assert!(
            query_low >= base_low,
            "Small Query ({query_low}) must constrain at least as many low-rank sites as Base ({base_low})"
        );
        assert_eq!(query.figure_number(), 8);
    }

    #[test]
    fn bandwidth_is_less_rank_correlated_than_queries() {
        let query = run(Stage::SmallQuery, Scale::Quick, 3);
        let bandwidth = run(Stage::LargeObject, Scale::Quick, 3);
        let spread = |fractions: &[f64]| {
            fractions.iter().cloned().fold(0.0_f64, f64::max)
                - fractions.iter().cloned().fold(1.0_f64, f64::min)
        };
        // The gap between best and worst class should be narrower for
        // bandwidth than for back-end provisioning.
        assert!(
            spread(&bandwidth.constrained_fractions())
                <= spread(&query.constrained_fractions()) + 0.25,
            "bandwidth {:?} vs query {:?}",
            bandwidth.constrained_fractions(),
            query.constrained_fractions()
        );
        assert_eq!(bandwidth.figure_number(), 9);
    }
}
