//! The two benchmark workloads and the reference runs they are checked
//! against.
//!
//! A workload is a list of MFC profiles, each a target spec plus the
//! configuration and seeds to probe it with.  The specs are generated the
//! way the program's own survey harness (`run_survey_with`) generates them,
//! so that the benchmark's loop can be proven to drive the same program:
//! [`Plan::reference_mismatches`] runs that harness and compares.

use mfc_bench::Scale;
use mfc_core::backend::sim::SimTargetSpec;
use mfc_core::config::MfcConfig;
use mfc_core::report::MfcReport;
use mfc_core::runner::TrialRunner;
use mfc_core::types::Stage;
use mfc_dynamics::DefenseConfig;
use mfc_simcore::SimRng;
use mfc_simnet::mbps;
use mfc_sites::survey::run_survey_with;
use mfc_sites::{BackgroundModel, SiteClass, SurveyConfig};
use mfc_topology::TopologySpec;

/// Sites per survey at [`Scale::Quick`], the size the unit tests run.
const QUICK_SITES: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 7 and 8: the four rank classes at §5 sample sizes, Base and
    /// Small Query, direct network, static servers, flat-Poisson
    /// background.  The paper's main use; loads the engine's CPU, worker
    /// and database path, the coordinator and the runner.
    SurveyCpu,
    /// Figure 9's Large Object survey behind a shared-bottleneck WAN, every
    /// site shedding load and carrying diurnal-session background.  Loads
    /// the link-bound engine path, the network graph, the controlled sweep,
    /// session streams and every inference cause.
    WanTransfers,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::SurveyCpu, Workload::WanTransfers];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SurveyCpu => "survey_cpu",
            Workload::WanTransfers => "wan_transfers",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The star WAN of `wan_transfers`: group 0 sits behind a 20 Mbit/s transit
/// carrying six 150 kB/s cross-traffic flows, the others behind clean
/// 1 Gbit/s transits, and every group shares a 600 Mbit/s backbone.
fn wan_topology() -> TopologySpec {
    TopologySpec::star(&[mbps(20.0), mbps(1000.0), mbps(1000.0), mbps(1000.0)])
        .with_cross_traffic(0, 6, 150_000.0)
        .with_backbone(mbps(600.0))
}

/// One group of profiles sharing a configuration: a §5 survey of one site
/// class.
#[derive(Debug, Clone)]
struct Batch {
    class: SiteClass,
    config: SurveyConfig,
}

/// One MFC profile: a target and how to probe it.
pub struct Job<'p> {
    /// The simulated target.
    pub spec: SimTargetSpec,
    /// Simulated MFC clients.
    pub clients: usize,
    /// Seed of the backend's world.
    pub backend_seed: u64,
    /// Seed of the coordinator's client selection.
    pub coordinator_seed: u64,
    /// The MFC configuration.
    pub config: &'p MfcConfig,
}

/// A workload at a given scale and seed: the profiles every repetition
/// runs, in a fixed order.
#[derive(Debug, Clone)]
pub struct Plan {
    workload: Workload,
    batches: Vec<Batch>,
}

impl Plan {
    /// The plan of `workload` at `scale`; every input derives from `seed`.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Plan {
        let survey = |class: SiteClass, stage: Stage| {
            let mut config = match scale {
                Scale::Quick => SurveyConfig::quick(class, stage, QUICK_SITES),
                Scale::Paper => SurveyConfig::paper_section5(class, stage),
            };
            config.seed ^= seed;
            if workload == Workload::WanTransfers {
                config = config
                    .with_session_background()
                    .with_defenses(DefenseConfig::shedding(25))
                    .with_topology(wan_topology());
            }
            Batch { class, config }
        };
        let batches = match workload {
            Workload::SurveyCpu => [Stage::Base, Stage::SmallQuery]
                .into_iter()
                .flat_map(|stage| SiteClass::RANKS.map(|class| survey(class, stage)))
                .collect(),
            Workload::WanTransfers => SiteClass::RANKS
                .map(|class| survey(class, Stage::LargeObject))
                .into(),
        };
        Plan { workload, batches }
    }

    /// The workload this plan runs.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Number of batches, one per survey.  A repetition runs them in order,
    /// each as its own closed loop, as the program's harness does.
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// Generates the target specs of batch `index`, exactly as the
    /// program's own harness for the batch would.
    pub fn jobs(&self, index: usize) -> Vec<Job<'_>> {
        let Batch { class, config } = &self.batches[index];
        let mut site_rng = SimRng::seed_from(config.seed).fork("sites");
        (0..config.sites as u64)
            .map(|site| {
                let spec = match &config.background_model {
                    BackgroundModel::FlatPoisson => class.generate_site(site, &mut site_rng),
                    BackgroundModel::DiurnalSessions => {
                        class.generate_site_with_sessions(site, &mut site_rng)
                    }
                    BackgroundModel::Fixed(workload) => class
                        .generate_site(site, &mut site_rng)
                        .with_workload(workload.clone()),
                };
                Job {
                    spec: spec
                        .with_defenses(config.defenses.clone())
                        .with_topology(config.topology.clone()),
                    clients: config.clients,
                    backend_seed: config.seed ^ site,
                    coordinator_seed: config.seed.wrapping_add(site),
                    config: &config.mfc,
                }
            })
            .collect()
    }

    /// Runs the program's own harness for every batch and counts the
    /// profiles whose result differs from the benchmark loop's.  `views`
    /// holds one [`ReferenceView`] per job, batch by batch.
    pub fn reference_mismatches(&self, views: &[ReferenceView], threads: usize) -> usize {
        let runner = TrialRunner::with_threads(threads);
        let mut views = views.iter();
        let mut mismatches = 0;
        for Batch { class, config } in &self.batches {
            for stop in run_survey_with(*class, config, &runner).outcomes {
                if views.next() != Some(&stop) {
                    mismatches += 1;
                }
            }
        }
        mismatches + views.count()
    }
}

/// The part of a profile's result `run_survey_with` reports: the first
/// stage's stopping crowd, `None` for NoStop or an error.
pub type ReferenceView = Option<usize>;

/// The [`ReferenceView`] of a profile's report.
pub fn reference_view(report: Option<&MfcReport>) -> ReferenceView {
    report
        .and_then(|r| r.stages.first())
        .and_then(|s| s.outcome.stopping_crowd())
}
