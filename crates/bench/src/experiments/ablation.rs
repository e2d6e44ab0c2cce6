//! Ablations of the MFC design choices called out in `DESIGN.md`.
//!
//! Two design decisions do most of the methodological work in the paper:
//!
//! 1. **Delay-compensated scheduling** (`T − 0.5·T_coord − 1.5·T_target`)
//!    versus simply broadcasting the command to every client at once —
//!    without the compensation the arrival spread at the target inflates by
//!    roughly the spread of the clients' RTTs, and the "N simultaneous
//!    requests" premise of an epoch quietly stops being true.
//! 2. **The 90th-percentile detector for the Large Object stage** versus
//!    the median used elsewhere (paper §2.2.3) — the stricter detector
//!    requires most clients to see the degradation before the stage stops,
//!    which guards against mistaking a shared wide-area bottleneck for the
//!    server's access link (at the price of probing a little longer).

use mfc_core::backend::sim::{SimBackend, SimTargetSpec};
use mfc_core::backend::MfcBackend;
use mfc_core::config::MfcConfig;
use mfc_core::coordinator::Coordinator;
use mfc_core::runner::TrialRunner;
use mfc_core::sync::{ClientLatency, SyncScheduler};
use mfc_core::types::{EpochPlan, RequestCommand, Stage};
use mfc_simcore::{SimDuration, SimTime};
use mfc_webserver::request::central_spread;
use mfc_webserver::{ContentCatalog, ServerConfig};
use serde::{Deserialize, Serialize};

/// Result of the ablation experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationResult {
    /// Crowd size used for the scheduling ablation.
    pub crowd: usize,
    /// 90 % arrival spread with the delay-compensating scheduler, seconds.
    pub compensated_spread_s: f64,
    /// 90 % arrival spread with a naive simultaneous broadcast, seconds.
    pub naive_spread_s: f64,
    /// Large Object stopping crowd with the 90th-percentile detector.
    pub large_object_stop_p90: Option<usize>,
    /// Large Object stopping crowd when the median detector is used
    /// instead.
    pub large_object_stop_median: Option<usize>,
}

impl AblationResult {
    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let cell = |v: Option<usize>| v.map(|c| c.to_string()).unwrap_or_else(|| "NoStop".into());
        format!(
            "Ablations\n\
               synchronization ({} clients): 90% arrival spread {:.3}s compensated vs {:.3}s naive broadcast\n\
               Large Object detector: stops at {} with the 90th percentile vs {} with the median\n",
            self.crowd,
            self.compensated_spread_s,
            self.naive_spread_s,
            cell(self.large_object_stop_p90),
            cell(self.large_object_stop_median),
        )
    }

    /// Whether the compensation actually tightened synchronization.
    pub fn scheduling_helps(&self) -> bool {
        self.compensated_spread_s < self.naive_spread_s
    }
}

/// Measures the arrival spread of one epoch scheduled either with the
/// delay-compensating scheduler or with a naive broadcast.
fn arrival_spread(compensated: bool, crowd: usize, seed: u64) -> f64 {
    let spec = SimTargetSpec::single_server(
        ServerConfig::validation_server(),
        ContentCatalog::lab_validation(),
    );
    let mut backend = SimBackend::new(spec, crowd + 10, seed);
    let profile = backend.profile_target();
    let request = profile
        .request_for(Stage::Base, 0)
        .expect("base stage always has a request");

    // Latency measurement step, as the coordinator would run it.
    let mut latencies = Vec::new();
    for client in backend.registered_clients().into_iter().take(crowd) {
        let coordinator_rtt = backend.ping(client).expect("client responds");
        let measurement = backend.measure_base(client, &request);
        latencies.push(ClientLatency {
            client,
            coordinator_rtt,
            target_rtt: measurement.target_rtt,
        });
    }

    let scheduler = SyncScheduler::simultaneous(SimDuration::from_secs(15));
    let scheduled = if compensated {
        scheduler.schedule(&latencies)
    } else {
        scheduler.naive_broadcast(&latencies)
    };
    let commands: Vec<RequestCommand> = scheduled
        .iter()
        .map(|s| RequestCommand {
            client: s.client,
            request: request.clone(),
            send_offset: s.send_offset,
            intended_arrival: s.intended_arrival,
        })
        .collect();
    let plan = EpochPlan {
        stage: Stage::Base,
        index: 1,
        commands,
        timeout: SimDuration::from_secs(10),
    };
    let observation = backend.run_epoch(&plan);
    let arrivals: Vec<SimTime> = observation.target_arrivals;
    central_spread(&arrivals, 0.9)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Runs the Large Object stage with a configurable detector quantile and
/// returns the stopping crowd.
fn large_object_stop(quantile: f64, seed: u64) -> Option<usize> {
    let spec =
        SimTargetSpec::single_server(ServerConfig::lab_apache(), ContentCatalog::lab_validation());
    let mut backend = SimBackend::new(spec, 60, seed);
    let mut config = MfcConfig::standard()
        .with_stages(vec![Stage::LargeObject])
        .with_max_crowd(50)
        .with_increment(5);
    config.large_object_quantile = quantile;
    let report = Coordinator::new(config)
        .with_seed(seed)
        .run(&mut backend)
        .expect("enough clients");
    report.stopping_crowd(Stage::LargeObject)
}

/// One independent ablation trial (the four run in parallel on the shared
/// [`TrialRunner`]).
enum AblationTrial {
    Spread { compensated: bool },
    Stop { quantile: f64 },
}

enum AblationOutcome {
    Spread(f64),
    Stop(Option<usize>),
}

/// Runs both ablations.
pub fn run(seed: u64) -> AblationResult {
    let crowd = 65;
    let trials = vec![
        AblationTrial::Spread { compensated: true },
        AblationTrial::Spread { compensated: false },
        AblationTrial::Stop { quantile: 0.9 },
        AblationTrial::Stop { quantile: 0.5 },
    ];
    let mut outcomes = TrialRunner::from_env()
        .run(trials, |_, trial| match trial {
            AblationTrial::Spread { compensated } => {
                AblationOutcome::Spread(arrival_spread(compensated, crowd, seed))
            }
            AblationTrial::Stop { quantile } => {
                AblationOutcome::Stop(large_object_stop(quantile, seed))
            }
        })
        .into_iter();
    let mut next_spread = || match outcomes.next() {
        Some(AblationOutcome::Spread(s)) => s,
        _ => unreachable!("trial order is fixed"),
    };
    let compensated_spread_s = next_spread();
    let naive_spread_s = next_spread();
    let mut next_stop = || match outcomes.next() {
        Some(AblationOutcome::Stop(s)) => s,
        _ => unreachable!("trial order is fixed"),
    };
    AblationResult {
        crowd,
        compensated_spread_s,
        naive_spread_s,
        large_object_stop_p90: next_stop(),
        large_object_stop_median: next_stop(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compensation_tightens_arrival_spread() {
        for seed in [17, 1] {
            let result = run(seed);
            assert!(
                result.scheduling_helps(),
                "seed {seed}: compensated spread {:.3}s should beat naive {:.3}s",
                result.compensated_spread_s,
                result.naive_spread_s
            );
            assert!(result.render_text().contains("Ablations"));
        }
    }

    #[test]
    fn median_detector_stops_no_later_than_p90() {
        let result = run(18);
        // The median is a laxer detector: it cannot require a larger crowd
        // than the 90th percentile to trigger.
        match (
            result.large_object_stop_median,
            result.large_object_stop_p90,
        ) {
            (Some(median), Some(p90)) => assert!(median <= p90),
            (None, Some(_)) => panic!("median detector missed a constraint the p90 detector found"),
            _ => {}
        }
    }
}
