//! The §5 large-scale measurement harness.
//!
//! For each site class the paper runs a single MFC stage against every
//! server in the class and reports the distribution of stopping crowd sizes
//! in buckets (≤10, 10–20, 20–30, 30–40, 40–50, NoStop).  Figures 7–9 show
//! those breakdowns for the four rank classes; Tables 4 and 5 show them for
//! startup and phishing servers.  [`run_survey`] reproduces the procedure:
//! generate a population from [`SiteClass`], run the stage against every
//! site, and bucket the outcomes.

use mfc_core::backend::sim::SimBackend;
use mfc_core::config::MfcConfig;
use mfc_core::coordinator::Coordinator;
use mfc_core::runner::TrialRunner;
use mfc_core::types::{Stage, StageOutcome};
use mfc_dynamics::DefenseConfig;
use mfc_simcore::SimRng;
use mfc_topology::TopologySpec;
use serde::{Deserialize, Serialize};

use crate::population::SiteClass;

/// The stopping-crowd-size buckets used by the paper's §5 figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StoppingBucket {
    /// Stopped at 10 clients or fewer.
    UpTo10,
    /// Stopped at 11–20 clients.
    From10To20,
    /// Stopped at 21–30 clients.
    From20To30,
    /// Stopped at 31–40 clients.
    From30To40,
    /// Stopped at 41–50 clients.
    From40To50,
    /// No confirmed degradation up to the tested maximum.
    NoStop,
}

impl StoppingBucket {
    /// All buckets in display order.
    pub const ALL: [StoppingBucket; 6] = [
        StoppingBucket::UpTo10,
        StoppingBucket::From10To20,
        StoppingBucket::From20To30,
        StoppingBucket::From30To40,
        StoppingBucket::From40To50,
        StoppingBucket::NoStop,
    ];

    /// Label used in tables (matches the paper's row labels).
    pub fn label(self) -> &'static str {
        match self {
            StoppingBucket::UpTo10 => "<=10",
            StoppingBucket::From10To20 => "10-20",
            StoppingBucket::From20To30 => "20-30",
            StoppingBucket::From30To40 => "30-40",
            StoppingBucket::From40To50 => "40-50",
            StoppingBucket::NoStop => "No-Stop",
        }
    }

    /// Buckets a stage outcome.
    pub fn from_outcome(outcome: StageOutcome) -> StoppingBucket {
        match outcome {
            StageOutcome::Stopped { crowd_size } => match crowd_size {
                0..=10 => StoppingBucket::UpTo10,
                11..=20 => StoppingBucket::From10To20,
                21..=30 => StoppingBucket::From20To30,
                31..=40 => StoppingBucket::From30To40,
                41..=50 => StoppingBucket::From40To50,
                _ => StoppingBucket::NoStop,
            },
            StageOutcome::NoStop { .. } | StageOutcome::Skipped => StoppingBucket::NoStop,
        }
    }
}

/// Parameters of one survey run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurveyConfig {
    /// The stage to probe (the paper surveys one stage at a time).
    pub stage: Stage,
    /// Number of sites to generate and probe.
    pub sites: usize,
    /// Number of MFC clients available (the paper had 50–85 PlanetLab
    /// nodes).
    pub clients: usize,
    /// MFC configuration (threshold, increments, crowd ceiling).
    pub mfc: MfcConfig,
    /// Reactive defenses every surveyed site runs (static by default —
    /// the paper's assumption).  Each site gets its own defense stack.
    pub defenses: DefenseConfig,
    /// Shared wide-area bottlenecks in front of every surveyed site
    /// (direct by default — the paper's transparent-network assumption).
    pub topology: TopologySpec,
    /// How each site's regular users are modelled while the MFC probes it.
    pub background_model: BackgroundModel,
    /// Seed controlling both site generation and MFC randomness.
    pub seed: u64,
}

/// The background-traffic model a survey arms its sites with.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum BackgroundModel {
    /// The paper-era model: a flat Poisson process at the site's drawn
    /// background rate.
    #[default]
    FlatPoisson,
    /// Each site's drawn rate carried by session-structured diurnal
    /// traffic ([`SiteClass::generate_site_with_sessions`]).
    DiurnalSessions,
    /// One explicit workload spec applied to every site (flash-crowd and
    /// burstiness axes of the scenario matrix).
    Fixed(mfc_workload::WorkloadSpec),
}

impl SurveyConfig {
    /// The paper's §5 setup for a given class and stage: the standard MFC
    /// with a 100 ms threshold, crowd increments of 5 up to 50, run from 65
    /// clients against the class's paper sample size.
    pub fn paper_section5(class: SiteClass, stage: Stage) -> SurveyConfig {
        SurveyConfig {
            stage,
            sites: class.paper_sample_size(),
            clients: 65,
            mfc: MfcConfig::standard()
                .with_stages(vec![stage])
                .with_max_crowd(50)
                .with_increment(5),
            defenses: DefenseConfig::none(),
            topology: TopologySpec::direct(),
            background_model: BackgroundModel::default(),
            seed: 0x5ec5 + class.paper_sample_size() as u64,
        }
    }

    /// Models every surveyed site's regular users as session-structured
    /// diurnal traffic instead of the flat Poisson process.
    pub fn with_session_background(mut self) -> SurveyConfig {
        self.background_model = BackgroundModel::DiurnalSessions;
        self
    }

    /// Arms every surveyed site with one explicit background workload.
    pub fn with_workload(mut self, workload: mfc_workload::WorkloadSpec) -> SurveyConfig {
        self.background_model = BackgroundModel::Fixed(workload);
        self
    }

    /// Arms every surveyed site with the given defenses — the scenario
    /// matrix's "what does the §5 survey look like when the population
    /// fights back?" axis.
    pub fn with_defenses(mut self, defenses: DefenseConfig) -> SurveyConfig {
        self.defenses = defenses;
        self
    }

    /// Places the given shared-bottleneck WAN topology in front of every
    /// surveyed site — the "what does the survey look like when the
    /// network is not transparent?" axis.
    pub fn with_topology(mut self, topology: TopologySpec) -> SurveyConfig {
        self.topology = topology;
        self
    }

    /// A scaled-down version (fewer sites) for quick examples and tests.
    pub fn quick(class: SiteClass, stage: Stage, sites: usize) -> SurveyConfig {
        SurveyConfig {
            sites,
            mfc: MfcConfig::standard()
                .with_stages(vec![stage])
                .with_max_crowd(50)
                .with_increment(10),
            ..SurveyConfig::paper_section5(class, stage)
        }
    }
}

/// The outcome of probing one class of sites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurveyResult {
    /// The class that was surveyed.
    pub class: SiteClass,
    /// The stage that was probed.
    pub stage: Stage,
    /// Number of sites probed.
    pub sites: usize,
    /// Count of sites per stopping bucket, in [`StoppingBucket::ALL`] order.
    pub bucket_counts: Vec<usize>,
    /// Raw stopping crowd sizes (`None` = NoStop) per site, for further
    /// analysis.
    pub outcomes: Vec<Option<usize>>,
}

impl SurveyResult {
    /// Fraction of sites in each bucket, in [`StoppingBucket::ALL`] order.
    pub fn bucket_fractions(&self) -> Vec<f64> {
        let total = self.sites.max(1) as f64;
        self.bucket_counts
            .iter()
            .map(|&c| c as f64 / total)
            .collect()
    }

    /// Fraction of sites that showed a confirmed degradation at any crowd
    /// size (the "constrained fraction" the paper tracks across rank
    /// classes).
    pub fn constrained_fraction(&self) -> f64 {
        let constrained: usize = self
            .bucket_counts
            .iter()
            .take(StoppingBucket::ALL.len() - 1)
            .sum();
        constrained as f64 / self.sites.max(1) as f64
    }

    /// Renders the paper-style two-column breakdown.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{} / {} stage — {} servers\n",
            self.class.label(),
            self.stage.name(),
            self.sites
        );
        for (bucket, count) in StoppingBucket::ALL.iter().zip(&self.bucket_counts) {
            out.push_str(&format!(
                "  {:<8} {:>5.1}%  ({count})\n",
                bucket.label(),
                100.0 * *count as f64 / self.sites.max(1) as f64
            ));
        }
        out
    }
}

/// Runs one survey: probe `config.sites` freshly generated sites of `class`
/// with the configured MFC stage and bucket their stopping crowd sizes.
///
/// Sites are probed in parallel on [`TrialRunner::from_env`] (`MFC_THREADS`
/// workers); the result is bit-identical to a serial run.
pub fn run_survey(class: SiteClass, config: &SurveyConfig) -> SurveyResult {
    run_survey_with(class, config, &TrialRunner::from_env())
}

/// [`run_survey`] on an explicit [`TrialRunner`] — the determinism tests
/// compare a serial and a many-threaded runner on the same config.
pub fn run_survey_with(
    class: SiteClass,
    config: &SurveyConfig,
    runner: &TrialRunner,
) -> SurveyResult {
    // Site generation consumes a single shared RNG stream, so it stays a
    // serial loop; each generated spec is then an independent trial.
    let mut site_rng = SimRng::seed_from(config.seed).fork("sites");
    let specs: Vec<_> = (0..config.sites)
        .map(|site_index| match &config.background_model {
            BackgroundModel::FlatPoisson => class.generate_site(site_index as u64, &mut site_rng),
            BackgroundModel::DiurnalSessions => {
                class.generate_site_with_sessions(site_index as u64, &mut site_rng)
            }
            BackgroundModel::Fixed(workload) => class
                .generate_site(site_index as u64, &mut site_rng)
                .with_workload(workload.clone()),
        })
        .collect();

    let raw_outcomes = runner.run(specs, |site_index, spec| {
        let spec = spec
            .with_defenses(config.defenses.clone())
            .with_topology(config.topology.clone());
        let mut backend = SimBackend::new(spec, config.clients, config.seed ^ site_index as u64);
        let coordinator = Coordinator::new(config.mfc.clone())
            .with_seed(config.seed.wrapping_add(site_index as u64));
        match coordinator.run(&mut backend) {
            Ok(report) => report
                .stages
                .first()
                .map(|s| s.outcome)
                .unwrap_or(StageOutcome::Skipped),
            Err(_) => StageOutcome::Skipped,
        }
    });

    let mut bucket_counts = vec![0usize; StoppingBucket::ALL.len()];
    let mut outcomes = Vec::with_capacity(config.sites);
    for outcome in raw_outcomes {
        let bucket = StoppingBucket::from_outcome(outcome);
        let bucket_index = StoppingBucket::ALL
            .iter()
            .position(|b| *b == bucket)
            .expect("bucket is one of ALL");
        bucket_counts[bucket_index] += 1;
        outcomes.push(outcome.stopping_crowd());
    }

    SurveyResult {
        class,
        stage: config.stage,
        sites: config.sites,
        bucket_counts,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_all_outcomes() {
        assert_eq!(
            StoppingBucket::from_outcome(StageOutcome::Stopped { crowd_size: 5 }),
            StoppingBucket::UpTo10
        );
        assert_eq!(
            StoppingBucket::from_outcome(StageOutcome::Stopped { crowd_size: 20 }),
            StoppingBucket::From10To20
        );
        assert_eq!(
            StoppingBucket::from_outcome(StageOutcome::Stopped { crowd_size: 45 }),
            StoppingBucket::From40To50
        );
        assert_eq!(
            StoppingBucket::from_outcome(StageOutcome::Stopped { crowd_size: 80 }),
            StoppingBucket::NoStop
        );
        assert_eq!(
            StoppingBucket::from_outcome(StageOutcome::NoStop {
                max_crowd_tested: 50
            }),
            StoppingBucket::NoStop
        );
        assert_eq!(
            StoppingBucket::from_outcome(StageOutcome::Skipped),
            StoppingBucket::NoStop
        );
    }

    #[test]
    fn paper_config_uses_standard_mfc() {
        let config = SurveyConfig::paper_section5(SiteClass::Top1K, Stage::Base);
        assert_eq!(config.sites, 114);
        assert_eq!(config.clients, 65);
        assert_eq!(config.mfc.max_crowd, 50);
    }

    #[test]
    fn small_survey_accounts_for_every_site() {
        let config = SurveyConfig::quick(SiteClass::Rank100KTo1M, Stage::Base, 6);
        let result = run_survey(SiteClass::Rank100KTo1M, &config);
        assert_eq!(result.sites, 6);
        assert_eq!(result.outcomes.len(), 6);
        assert_eq!(result.bucket_counts.iter().sum::<usize>(), 6);
        let fractions = result.bucket_fractions();
        assert!((fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(result.constrained_fraction() <= 1.0);
        let text = result.render_text();
        assert!(text.contains("No-Stop"));
    }

    #[test]
    fn surveys_are_deterministic() {
        let config = SurveyConfig::quick(SiteClass::Startup, Stage::Base, 4);
        let a = run_survey(SiteClass::Startup, &config);
        let b = run_survey(SiteClass::Startup, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn session_background_surveys_run_and_stay_deterministic() {
        let config =
            SurveyConfig::quick(SiteClass::Startup, Stage::Base, 4).with_session_background();
        let a = run_survey(SiteClass::Startup, &config);
        let b = run_survey(SiteClass::Startup, &config);
        assert_eq!(a, b);
        assert_eq!(a.sites, 4);
        assert_eq!(a.bucket_counts.iter().sum::<usize>(), 4);
    }

    #[test]
    fn fixed_workload_surveys_apply_the_spec_to_every_site() {
        let workload = SiteClass::session_workload(3.0);
        let config =
            SurveyConfig::quick(SiteClass::Startup, Stage::Base, 3).with_workload(workload.clone());
        assert_eq!(config.background_model, BackgroundModel::Fixed(workload));
        let result = run_survey(SiteClass::Startup, &config);
        assert_eq!(result.sites, 3);
    }

    #[test]
    fn top_sites_are_less_constrained_than_bottom_sites() {
        // A small but discriminating version of Figure 7's headline trend.
        let top = run_survey(
            SiteClass::Top1K,
            &SurveyConfig::quick(SiteClass::Top1K, Stage::Base, 10),
        );
        let bottom = run_survey(
            SiteClass::Rank100KTo1M,
            &SurveyConfig::quick(SiteClass::Rank100KTo1M, Stage::Base, 10),
        );
        assert!(
            top.constrained_fraction() <= bottom.constrained_fraction(),
            "top-ranked sites must not be more constrained ({} vs {})",
            top.constrained_fraction(),
            bottom.constrained_fraction()
        );
    }
}
