//! One module per table/figure of the paper's evaluation.
//!
//! | Module | Paper artifact | What it reproduces |
//! |--------|----------------|--------------------|
//! | [`fig3`] | Figure 3 | request-arrival synchronization for a 45-client crowd |
//! | [`fig4`] | Figure 4(a,b) | tracking of synthetic linear/exponential response-time models |
//! | [`fig5`] | Figure 5 | Large Object lab workload: response time and network usage vs crowd |
//! | [`fig6`] | Figure 6 | Small Query (FastCGI) lab workload: response time, CPU and memory vs crowd |
//! | [`table1`] | Table 1 | QTNP stopping crowd sizes (standard MFC and MFC-mr) |
//! | [`table2`] | Table 2 | QTP per-epoch scheduled/received counts and arrival spread |
//! | [`table3`] | Table 3(a,b) | Univ-2 and Univ-3 runs under varying background traffic |
//! | [`rank_figs`] | Figures 7–9 | stopping-size breakdowns across Quantcast rank classes |
//! | [`special_tables`] | Tables 4–5 | startup and phishing server breakdowns |
//! | [`ablation`] | (ours) | value of delay-compensated scheduling and the 90th-percentile detector |
//! | [`dynamics_matrix`] | (ours) | Table 1–3 site configs vs. reactive defenses (autoscaling, shedding, rate limiting) |
//! | [`topology_matrix`] | (ours) | the §2.2.3 hazard made concrete: bandwidth bottlenecks moved around a shared WAN graph vs. the vantage-aware localization verdict |
//! | [`workload_matrix`] | (ours) | realistic background conditions (diurnal sessions, MMPP bursts, organic flash crowds) vs. the noise-robust inference |

pub mod ablation;
pub mod dynamics_matrix;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod rank_figs;
pub mod special_tables;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod topology_matrix;
pub mod workload_matrix;

use mfc_core::backend::sim::{SimBackend, SimTargetSpec};
use mfc_core::config::MfcConfig;
use mfc_core::coordinator::Coordinator;
use mfc_core::runner::TrialRunner;
use mfc_core::types::Stage;
use mfc_simnet::PopulationProfile;
use mfc_sites::{SiteClass, SurveyConfig};
use mfc_webserver::{ContentCatalog, ServerConfig, UtilizationReport};

use crate::Scale;

/// One experiment of the evaluation, as `repro` and the benches see it.
#[derive(Debug)]
pub struct Experiment {
    /// Name on `repro`'s command line, stem of its JSON artifact and id of
    /// its bench.
    pub name: &'static str,
    /// Runs the experiment at a scale and seed.
    pub run: fn(Scale, u64) -> Rendered,
}

/// What one experiment run produces.
#[derive(Debug)]
pub struct Rendered {
    /// Paper-style text rendering.
    pub text: String,
    /// The typed result as pretty-printed JSON.
    pub json: String,
}

/// An [`Experiment`] whose `run` renders the result of `$run(seed)`, or of
/// `$run($($stage,)? scale, seed)` for a §5 survey, the only experiments
/// that read the scale.
macro_rules! experiment {
    ($name:literal, survey $run:path $(, $stage:expr)?) => {
        experiment!(@render $name, |scale, seed| $run($($stage,)? scale, seed))
    };
    ($name:literal, $run:path) => {
        experiment!(@render $name, |_, seed| $run(seed))
    };
    (@render $name:literal, |$scale:pat_param, $seed:ident| $call:expr) => {
        Experiment {
            name: $name,
            run: |$scale, $seed| {
                let result = $call;
                Rendered {
                    text: result.render_text(),
                    json: serde_json::to_string_pretty(&result).expect("results serialize"),
                }
            },
        }
    };
}

/// Every experiment, in the order `repro all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    experiment!("fig3", fig3::run),
    experiment!("fig4", fig4::run),
    experiment!("fig5", fig5::run),
    experiment!("fig6", fig6::run),
    experiment!("table1", table1::run),
    experiment!("table2", table2::run),
    experiment!("table3", table3::run),
    experiment!("fig7", survey rank_figs::run, Stage::Base),
    experiment!("fig8", survey rank_figs::run, Stage::SmallQuery),
    experiment!("fig9", survey rank_figs::run, Stage::LargeObject),
    experiment!("table4", survey special_tables::run_table4),
    experiment!("table5", survey special_tables::run_table5),
    experiment!("ablation", ablation::run),
    experiment!("dynamics", dynamics_matrix::run),
    experiment!("topology", topology_matrix::run),
    experiment!("workload", workload_matrix::run),
];

/// The two targets on the rows of the [`topology_matrix`] and the
/// [`workload_matrix`].  Their cells record the row's label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetRow {
    /// A well-provisioned target: gigabit access link, ample workers.
    Fortress,
    /// The §3.2 lab box behind its 10 Mbit/s access link.
    ThinLink,
}

impl TargetRow {
    /// All rows in display order.
    pub const ALL: [TargetRow; 2] = [TargetRow::Fortress, TargetRow::ThinLink];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            TargetRow::Fortress => "fortress",
            TargetRow::ThinLink => "thin-link",
        }
    }

    fn spec(self) -> SimTargetSpec {
        let config = match self {
            TargetRow::Fortress => ServerConfig::validation_server(),
            TargetRow::ThinLink => ServerConfig::lab_apache(),
        };
        SimTargetSpec::single_server(config, ContentCatalog::lab_validation())
    }
}

/// The lab sweep of Figures 5 and 6: one [`Stage`] probe of each crowd size
/// against `config` serving the lab catalog to LAN clients over a lossless
/// control channel.  Each crowd size is its own measurement with a fresh
/// backend, so the sweep fans out as independent trials.  `point` turns a
/// crowd size, its upper-median raw response time in milliseconds and the
/// server's utilization into one sample.
fn lab_sweep<P: Send>(
    stage: Stage,
    config: ServerConfig,
    crowds: &[usize],
    seed: u64,
    point: impl Fn(usize, f64, &UtilizationReport) -> P + Sync,
) -> Vec<P> {
    let spec = SimTargetSpec::single_server(config, ContentCatalog::lab_validation())
        .with_population(PopulationProfile::lan())
        .with_control_loss(0.0);
    let coordinator = Coordinator::new(MfcConfig::standard().with_min_clients(5)).with_seed(seed);
    TrialRunner::from_env().run(crowds.to_vec(), |_, crowd| {
        let mut backend = SimBackend::new(spec.clone(), 50, seed ^ crowd as u64);
        let (summary, observation) = coordinator
            .probe_crowd(&mut backend, stage, crowd)
            .expect("enough clients");
        let mut times: Vec<f64> = observation
            .observations
            .iter()
            .map(|o| o.response_time.as_millis_f64())
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = times.get(times.len() / 2).copied().unwrap_or(0.0);
        let utilization = observation
            .server_utilization
            .as_ref()
            .expect("simulation always reports utilization");
        point(summary.crowd_size, median, utilization)
    })
}

/// The §5 survey of `class` on `stage` at `scale`, its seed mixed with
/// `seed`.  Quick probes the first 8 sites of the paper's sample.
fn survey_config(class: SiteClass, stage: Stage, scale: Scale, seed: u64) -> SurveyConfig {
    let mut config = match scale {
        Scale::Quick => SurveyConfig::quick(class, stage, 8),
        Scale::Paper => SurveyConfig::paper_section5(class, stage),
    };
    config.seed ^= seed;
    if scale == Scale::Paper && class == SiteClass::Startup && stage == Stage::SmallQuery {
        // The paper measured 82 startup servers for the Small Query stage.
        config.sites = 82;
    }
    config
}

/// Runs `cell(row, column, cell_seed)` for every cell of a matrix on the
/// shared [`TrialRunner`], in row-major order, seeding the cell at
/// `(row, column)` with `seed + row * 10 + column`.
fn grid<R: Copy + Send, C: Copy + Send, T: Send>(
    rows: &[R],
    columns: &[C],
    seed: u64,
    cell: impl Fn(R, C, u64) -> T + Sync,
) -> Vec<T> {
    let mut trials = Vec::with_capacity(rows.len() * columns.len());
    for (row_index, &row) in rows.iter().enumerate() {
        for (column_index, &column) in columns.iter().enumerate() {
            trials.push((row, column, seed + (row_index * 10 + column_index) as u64));
        }
    }
    TrialRunner::from_env().run(trials, |_, (row, column, cell_seed)| {
        cell(row, column, cell_seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_lists_every_experiment_once_in_repro_order() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "fig3", "fig4", "fig5", "fig6", "table1", "table2", "table3", "fig7", "fig8",
                "fig9", "table4", "table5", "ablation", "dynamics", "topology", "workload",
            ]
        );
    }

    #[test]
    fn every_experiment_renders_text_and_json_that_parses() {
        for experiment in EXPERIMENTS {
            let rendered = (experiment.run)(Scale::Quick, 1);
            assert!(!rendered.text.is_empty(), "{}", experiment.name);
            assert!(
                serde_json::from_str::<serde::Value>(&rendered.json).is_ok(),
                "{}: {}",
                experiment.name,
                rendered.json
            );
        }
    }
}
