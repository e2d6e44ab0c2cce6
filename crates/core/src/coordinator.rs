//! The MFC coordinator: registration, delay computation, epochs, check
//! phases and termination (Figure 2(a) of the paper).
//!
//! For every stage the coordinator:
//!
//! 1. verifies that enough clients registered (50 in the paper),
//! 2. has every client measure its RTT to the target and the *base*
//!    response time of the object it would request, and keeps both,
//! 3. runs epochs with a growing crowd (increments of 5–10), scheduling the
//!    requests so they arrive simultaneously,
//! 4. normalizes every sample against its client's base time and watches
//!    the median (or, for Large Object, the 90th-percentile) *normalized*
//!    response time; when it exceeds the threshold θ at a
//!    crowd of at least 15 it runs a **check phase** — three more epochs
//!    with `N−1`, `N` and `N+1` clients — and terminates the stage with a
//!    *stopping crowd size* as soon as one of them also exceeds θ,
//! 5. otherwise progresses until the crowd cap is reached and declares the
//!    sub-system unconstrained ("NoStop").

use std::collections::HashMap;

use mfc_simcore::{stats, SimDuration, SimRng};

use crate::backend::MfcBackend;
use crate::config::MfcConfig;
use crate::inference::{surge_threshold, InferenceReport};
use crate::profile::TargetProfile;
use crate::report::{MfcReport, StageReport};
use crate::sync::{ClientLatency, SyncScheduler};
use crate::types::{
    ClientId, EpochObservation, EpochPlan, EpochSummary, RequestCommand, RequestSpec, Stage,
    StageOutcome,
};

/// Minimum crowd size before the check phase may terminate a stage (below
/// this the median is considered statistically meaningless and the
/// coordinator always progresses).
const MIN_CROWD_FOR_INFERENCE: usize = 15;

/// Gap between successive epochs.
const EPOCH_GAP: SimDuration = SimDuration::from_secs(10);

/// Client-side request timeout.
const CLIENT_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// Why an MFC experiment could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MfcError {
    /// Fewer clients than [`MfcConfig::min_registered_clients`] responded to
    /// the registration probe; the experiment is aborted (paper Figure 2(a),
    /// step 2: "If k < 50, abort").
    NotEnoughClients {
        /// Clients that did respond.
        available: usize,
        /// Clients required by the configuration.
        required: usize,
    },
    /// The configuration failed validation.
    InvalidConfig(String),
}

impl std::fmt::Display for MfcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MfcError::NotEnoughClients {
                available,
                required,
            } => write!(
                f,
                "only {available} clients registered but {required} are required"
            ),
            MfcError::InvalidConfig(reason) => write!(f, "invalid MFC configuration: {reason}"),
        }
    }
}

impl std::error::Error for MfcError {}

/// Per-client state the coordinator keeps during a stage.
#[derive(Debug, Clone)]
struct ClientState {
    latency: ClientLatency,
    /// What the client requests in every epoch of the stage.
    request: RequestSpec,
    /// The client's unloaded response time for `request`, measured when
    /// the stage was calibrated: every sample the client reports in the
    /// stage is normalized against it (paper §2.2.3).
    base_response_time: SimDuration,
}

/// CLIENTS REGISTER: the registered clients that answer the probe, with
/// their coordinator RTTs.  Aborts when fewer than `required` respond.
fn register(
    backend: &mut dyn MfcBackend,
    required: usize,
) -> Result<Vec<(ClientId, SimDuration)>, MfcError> {
    let responsive: Vec<(ClientId, SimDuration)> = backend
        .registered_clients()
        .into_iter()
        .filter_map(|client| backend.ping(client).map(|rtt| (client, rtt)))
        .collect();
    if responsive.len() < required {
        return Err(MfcError::NotEnoughClients {
            available: responsive.len(),
            required,
        });
    }
    Ok(responsive)
}

/// DELAY COMPUTATION: every responsive client with a request in `stage`
/// measures its RTT to the target and the base response time of the
/// object it would request.
fn calibrate(
    backend: &mut dyn MfcBackend,
    stage: Stage,
    profile: &TargetProfile,
    responsive: &[(ClientId, SimDuration)],
) -> Vec<ClientState> {
    responsive
        .iter()
        .enumerate()
        .filter_map(|(participant_index, &(client, coordinator_rtt))| {
            let request = profile.request_for(stage, participant_index)?;
            let measurement = backend.measure_base(client, &request);
            Some(ClientState {
                latency: ClientLatency {
                    client,
                    coordinator_rtt,
                    target_rtt: measurement.target_rtt,
                },
                request,
                base_response_time: measurement.base_response_time,
            })
        })
        .collect()
}

/// Accumulated state of one stage run: the epoch trace, the request
/// budget, and the background-rate baseline the quiescence policy
/// compares against.
#[derive(Debug, Default)]
struct StageRun {
    epochs: Vec<EpochSummary>,
    requests_issued: usize,
    max_crowd_tested: usize,
    /// Server-reported background rates of epochs that were *not*
    /// surge-flagged: what `surge_threshold` takes the stage's baseline
    /// from.
    clean_rates: Vec<f64>,
}

/// The coordinator.
#[derive(Debug, Clone)]
pub struct Coordinator {
    config: MfcConfig,
    seed: u64,
}

impl Coordinator {
    /// Creates a coordinator with the given configuration and a default
    /// seed for its random client selections.
    pub fn new(config: MfcConfig) -> Self {
        Coordinator { config, seed: 1 }
    }

    /// Sets the seed controlling random epoch membership.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &MfcConfig {
        &self.config
    }

    /// Runs the full MFC experiment against `backend`.
    pub fn run(&self, backend: &mut dyn MfcBackend) -> Result<MfcReport, MfcError> {
        self.config.validate().map_err(MfcError::InvalidConfig)?;
        let mut rng = SimRng::seed_from(self.seed);
        let responsive = register(backend, self.config.min_registered_clients)?;

        // Profiling step.
        let profile = backend.profile_target();

        let mut stage_reports = Vec::new();
        for stage in self.config.stages.stages() {
            let report = if profile.supports(stage) {
                self.run_stage(backend, stage, &profile, &responsive, &mut rng)
            } else {
                StageReport::skipped(stage)
            };
            stage_reports.push(report);
        }

        let inference = InferenceReport::from_stages(&stage_reports, &self.config);
        Ok(MfcReport {
            threshold_ms: self.config.threshold.as_millis_f64(),
            requests_per_client: self.config.requests_per_client,
            clients_registered: responsive.len(),
            total_requests: stage_reports.iter().map(|s| s.requests_issued).sum(),
            stages: stage_reports,
            inference,
        })
    }

    /// Measures the impact of exactly one crowd of `crowd` simultaneous
    /// requests of the given stage, without running the full escalating
    /// experiment.
    ///
    /// This is the building block behind the lab-validation figures (5 and
    /// 6), where the interesting output is the response time *and* the
    /// server-side resource usage at each crowd size rather than a stopping
    /// crowd; it is also useful to an operator who wants to ask "what does
    /// a burst of exactly N requests do to my site?".
    pub fn probe_crowd(
        &self,
        backend: &mut dyn MfcBackend,
        stage: Stage,
        crowd: usize,
    ) -> Result<(EpochSummary, EpochObservation), MfcError> {
        self.config.validate().map_err(MfcError::InvalidConfig)?;
        let mut rng = SimRng::seed_from(self.seed);
        let crowd = crowd.max(1);
        let responsive = register(backend, crowd)?;
        let profile = backend.profile_target();
        let clients = calibrate(backend, stage, &profile, &responsive[..crowd]);
        Ok(self.execute_epoch(backend, stage, &clients, crowd, 1, false, &mut rng))
    }

    /// Runs one stage to termination.
    fn run_stage(
        &self,
        backend: &mut dyn MfcBackend,
        stage: Stage,
        profile: &TargetProfile,
        responsive: &[(ClientId, SimDuration)],
        rng: &mut SimRng,
    ) -> StageReport {
        // Recalibrated per stage: each stage requests different objects.
        let clients = calibrate(backend, stage, profile, responsive);
        if clients.is_empty() {
            return StageReport::skipped(stage);
        }

        let threshold_ms = self.config.threshold.as_millis_f64();
        let mut state = StageRun::default();

        for (epoch_number, crowd) in self.config.crowd_schedule().into_iter().enumerate() {
            let crowd = crowd.min(clients.len());
            let summary = self.run_epoch_quiesced(
                backend,
                stage,
                &clients,
                crowd,
                epoch_number as u32 + 1,
                false,
                rng,
                &mut state,
            );
            let triggered = summary.detector_ms > threshold_ms;
            state.epochs.push(summary);
            backend.wait(EPOCH_GAP);

            if !triggered {
                continue;
            }
            // Below the minimum crowd the median is not trusted; progress.
            if crowd < MIN_CROWD_FOR_INFERENCE {
                continue;
            }

            // CHECK PHASE: N−1, a repeat of N, and N+1.
            let candidates = [crowd.saturating_sub(1).max(1), crowd, crowd + 1];
            let mut confirmed = false;
            for check_crowd in candidates {
                let check_crowd = check_crowd.min(clients.len());
                let summary = self.run_epoch_quiesced(
                    backend,
                    stage,
                    &clients,
                    check_crowd,
                    epoch_number as u32 + 1,
                    true,
                    rng,
                    &mut state,
                );
                let exceeded = summary.detector_ms > threshold_ms;
                state.epochs.push(summary);
                backend.wait(EPOCH_GAP);
                if exceeded {
                    confirmed = true;
                    break;
                }
            }
            if confirmed {
                return StageReport {
                    stage,
                    outcome: StageOutcome::Stopped { crowd_size: crowd },
                    epochs: state.epochs,
                    requests_issued: state.requests_issued,
                };
            }
            // Check failed: the degradation was stochastic; keep going.
        }

        StageReport {
            stage,
            outcome: StageOutcome::NoStop {
                max_crowd_tested: state.max_crowd_tested,
            },
            epochs: state.epochs,
            requests_issued: state.requests_issued,
        }
    }

    /// Executes one epoch under the quiescence policy: when the epoch's
    /// server-reported background rate exceeds the surge threshold over the
    /// stage's baseline, the epoch is flagged `surge_suspected`, kept in
    /// the report for audit, and re-run after the policy's backoff — up to
    /// `max_retries` times (paper §4's "quiet hours", automated).  Without
    /// a policy this is exactly one [`Coordinator::execute_epoch`] call.
    #[allow(clippy::too_many_arguments)]
    fn run_epoch_quiesced(
        &self,
        backend: &mut dyn MfcBackend,
        stage: Stage,
        clients: &[ClientState],
        crowd: usize,
        index: u32,
        check_phase: bool,
        rng: &mut SimRng,
        state: &mut StageRun,
    ) -> EpochSummary {
        let mut attempts = 0u32;
        loop {
            let (mut summary, _) =
                self.execute_epoch(backend, stage, clients, crowd, index, check_phase, rng);
            state.requests_issued += summary.requests_scheduled;
            state.max_crowd_tested = state.max_crowd_tested.max(summary.crowd_size);
            let surged = match (&self.config.quiescence, summary.background_rate) {
                (Some(_), Some(rate)) => {
                    // The baseline needs at least one clean epoch; the
                    // stage's first epoch seeds it.
                    surge_threshold(&state.clean_rates).is_some_and(|threshold| rate > threshold)
                }
                _ => false,
            };
            if surged {
                summary.surge_suspected = true;
                let policy = self
                    .config
                    .quiescence
                    .as_ref()
                    .expect("a surge implies a policy");
                if attempts < policy.max_retries {
                    attempts += 1;
                    state.epochs.push(summary);
                    backend.wait(policy.backoff);
                    continue;
                }
                // Retries exhausted: the surged result stands, flagged, and
                // the inference layer will see the confound.
                return summary;
            }
            if let Some(rate) = summary.background_rate {
                state.clean_rates.push(rate);
            }
            return summary;
        }
    }

    /// Schedules, executes and summarizes a single epoch.
    #[allow(clippy::too_many_arguments)]
    fn execute_epoch(
        &self,
        backend: &mut dyn MfcBackend,
        stage: Stage,
        clients: &[ClientState],
        crowd: usize,
        index: u32,
        check_phase: bool,
        rng: &mut SimRng,
    ) -> (EpochSummary, EpochObservation) {
        // Participants are chosen at random each epoch so that an observed
        // degradation reflects the crowd size, not the local conditions of
        // any fixed subset of clients (paper §2.3).
        let participants = rng.sample(clients, crowd.min(clients.len()).max(1));

        let scheduler = match self.config.stagger {
            Some(spacing) => SyncScheduler::staggered(self.config.schedule_lead, spacing),
            None => SyncScheduler::simultaneous(self.config.schedule_lead),
        };
        let latencies: Vec<ClientLatency> = participants.iter().map(|c| c.latency).collect();
        let scheduled = scheduler.schedule(&latencies);

        let mut commands = Vec::new();
        for (slot, state) in participants.iter().enumerate() {
            // MFC-mr: the same client opens several parallel connections.
            for _ in 0..self.config.requests_per_client {
                commands.push(RequestCommand {
                    client: state.latency.client,
                    request: state.request.clone(),
                    send_offset: scheduled[slot].send_offset,
                    intended_arrival: scheduled[slot].intended_arrival,
                });
            }
        }

        let plan = EpochPlan {
            stage,
            index,
            commands,
            timeout: CLIENT_TIMEOUT,
        };
        let observation = backend.run_epoch(&plan);

        // NORMALIZATION: each sample less the reporting client's base time
        // from this stage's calibration, floored at zero.  Every sample
        // comes from a participant; a stray one is taken as is.
        let base_of: HashMap<ClientId, SimDuration> = participants
            .iter()
            .map(|c| (c.latency.client, c.base_response_time))
            .collect();
        let samples: Vec<(u32, f64)> = observation
            .observations
            .iter()
            .filter(|o| o.status.produced_sample())
            .map(|o| {
                let base = base_of.get(&o.client).copied().unwrap_or(SimDuration::ZERO);
                (
                    o.group,
                    o.response_time.saturating_sub(base).as_millis_f64(),
                )
            })
            .collect();
        let normalized: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
        let quantile = match stage {
            Stage::LargeObject => self.config.large_object_quantile,
            _ => stage.detection_quantile(),
        };
        let detector_ms = stats::percentile(&normalized, quantile).unwrap_or(0.0);
        let median_ms = stats::median(&normalized).unwrap_or(0.0);
        let arrival_spread_90 =
            mfc_webserver::request::central_spread(&observation.target_arrivals, 0.9);

        // Vantage-aware localization input: the per-group medians of the
        // normalized response times.  A skewed profile (one group far above
        // θ, the rest flat) is the remote fingerprint of a shared *path*
        // bottleneck rather than a server constraint.
        let mut by_group: std::collections::BTreeMap<u32, Vec<f64>> =
            std::collections::BTreeMap::new();
        for &(group, ms) in &samples {
            by_group.entry(group).or_default().push(ms);
        }
        let group_median_ms: Vec<(u32, f64)> = if by_group.len() > 1 {
            by_group
                .iter()
                .filter_map(|(&g, samples)| stats::median(samples).map(|m| (g, m)))
                .collect()
        } else {
            Vec::new()
        };

        // Defense-fingerprint observables (used by the inference layer to
        // tell a fighting-back server from a genuinely constrained one).
        let errors = observation
            .observations
            .iter()
            // Server errors only: a 503 is what a shedding defense sends;
            // 4xx responses (missing paths, auth walls) are not evidence of
            // load shedding.
            .filter(
                |o| matches!(o.status, crate::types::ProbeStatus::HttpError(code) if code >= 500),
            )
            .count();
        let error_rate = if !samples.is_empty() {
            errors as f64 / samples.len() as f64
        } else {
            0.0
        };
        // Timed-out transfers still contribute: bytes/timeout is an
        // *optimistic* per-client goodput bound, which keeps the clamp
        // fingerprint visible even when a harsh limiter starves every
        // probe past the client timeout (under a genuinely saturated link
        // the same bound sums to roughly the link capacity, so it does not
        // create false defense flags).
        let goodputs: Vec<f64> = observation
            .observations
            .iter()
            .filter(|o| {
                matches!(
                    o.status,
                    crate::types::ProbeStatus::Ok | crate::types::ProbeStatus::TimedOut
                ) && o.bytes > 0
                    && o.response_time > SimDuration::ZERO
            })
            .map(|o| o.bytes as f64 / o.response_time.as_secs_f64())
            .collect();
        let (client_goodput_median, client_goodput_cov, aggregate_goodput) = if goodputs.is_empty()
        {
            (None, None, None)
        } else {
            let mut spread = stats::OnlineStats::new();
            for &goodput in &goodputs {
                spread.push(goodput);
            }
            let cov = if spread.mean() > 0.0 {
                spread.std_dev() / spread.mean()
            } else {
                0.0
            };
            (
                stats::median(&goodputs),
                Some(cov),
                Some(goodputs.iter().sum()),
            )
        };
        let link_capacity = observation
            .server_utilization
            .as_ref()
            .map(|u| u.link_capacity)
            .filter(|&c| c > 0.0);
        // The non-MFC request rate the target served while the epoch ran,
        // per second of the server's busy window.
        let background_rate = observation.server_utilization.as_ref().and_then(|u| {
            let secs = u.window.as_secs_f64();
            (secs > 0.0).then(|| observation.background_requests as f64 / secs)
        });

        let summary = EpochSummary {
            index,
            crowd_size: plan.crowd_size(),
            requests_scheduled: plan.request_count(),
            requests_observed: observation.observations.len(),
            detector_ms,
            median_ms,
            check_phase,
            commands_lost: observation.lost_commands,
            arrival_spread_90,
            group_median_ms,
            error_rate,
            client_goodput_median,
            client_goodput_cov,
            aggregate_goodput,
            link_capacity,
            background_rate,
            surge_suspected: false,
        };
        (summary, observation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::sim::{SimBackend, SimTargetSpec};
    use mfc_webserver::{ContentCatalog, ServerConfig};

    fn lab_backend(clients: usize, seed: u64) -> SimBackend {
        SimBackend::new(
            SimTargetSpec::single_server(
                ServerConfig::lab_apache(),
                ContentCatalog::lab_validation(),
            ),
            clients,
            seed,
        )
    }

    #[test]
    fn aborts_below_minimum_client_count() {
        let mut backend = lab_backend(20, 1);
        let err = Coordinator::new(MfcConfig::standard())
            .run(&mut backend)
            .unwrap_err();
        assert_eq!(
            err,
            MfcError::NotEnoughClients {
                available: 20,
                required: 50
            }
        );
    }

    #[test]
    fn rejects_invalid_config() {
        let mut backend = lab_backend(60, 1);
        let mut config = MfcConfig::standard();
        config.max_crowd = 0;
        let err = Coordinator::new(config).run(&mut backend).unwrap_err();
        assert!(matches!(err, MfcError::InvalidConfig(_)));
    }

    #[test]
    fn full_run_produces_three_stage_reports() {
        let mut backend = lab_backend(60, 2);
        let config = MfcConfig::standard().with_max_crowd(25).with_increment(10);
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        assert_eq!(report.stages.len(), 3);
        assert_eq!(report.clients_registered, 60);
        assert!(report.total_requests > 0);
        for stage_report in &report.stages {
            assert!(
                !stage_report.epochs.is_empty() || stage_report.outcome == StageOutcome::Skipped
            );
        }
    }

    #[test]
    fn thin_link_stops_the_large_object_stage() {
        // The lab server sits behind 10 Mbit/s: 30+ simultaneous 100 KB
        // transfers must push the 90th-percentile normalized response time
        // past 100 ms and stop the stage.
        let mut backend = lab_backend(60, 3);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::LargeObject])
            .with_max_crowd(50)
            .with_increment(10);
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        let stage = &report.stages[0];
        assert!(
            stage.outcome.stopping_crowd().is_some(),
            "expected a stopping crowd, got {:?}",
            stage.outcome
        );
    }

    #[test]
    fn well_provisioned_server_is_no_stop_for_base() {
        let spec = SimTargetSpec::single_server(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
        );
        let mut backend = SimBackend::new(spec, 60, 4);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::Base])
            .with_max_crowd(40)
            .with_increment(10);
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        assert!(
            report.stages[0].outcome.is_no_stop(),
            "a datacenter-class front end must shrug off 40 HEAD requests: {:?}",
            report.stages[0].outcome
        );
    }

    #[test]
    fn stage_without_content_is_skipped() {
        // A catalog with no large objects and no queries.
        let catalog = ContentCatalog::new(
            mfc_webserver::ObjectSpec::static_object(
                "/index.html",
                mfc_webserver::ObjectKind::Text,
                4096,
            ),
            vec![],
        );
        let spec = SimTargetSpec::single_server(ServerConfig::lab_apache(), catalog);
        let mut backend = SimBackend::new(spec, 55, 5);
        let config = MfcConfig::standard().with_max_crowd(20);
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        let by_stage = |s: Stage| {
            report
                .stages
                .iter()
                .find(|r| r.stage == s)
                .map(|r| r.outcome)
                .unwrap()
        };
        assert_eq!(by_stage(Stage::SmallQuery), StageOutcome::Skipped);
        assert_eq!(by_stage(Stage::LargeObject), StageOutcome::Skipped);
        assert_ne!(by_stage(Stage::Base), StageOutcome::Skipped);
    }

    #[test]
    fn check_phase_epochs_are_flagged() {
        let mut backend = lab_backend(60, 6);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::LargeObject])
            .with_max_crowd(50)
            .with_increment(10);
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        let stage = &report.stages[0];
        if stage.outcome.stopping_crowd().is_some() {
            assert!(
                stage.epochs.iter().any(|e| e.check_phase),
                "a stopped stage must have run at least one check epoch"
            );
        }
    }

    #[test]
    fn thin_link_stop_is_attributed_to_a_real_constraint() {
        let mut backend = lab_backend(60, 3);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::LargeObject])
            .with_max_crowd(50)
            .with_increment(10);
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        assert!(report.stages[0].outcome.stopping_crowd().is_some());
        assert_eq!(
            report.inference.cause_of(Stage::LargeObject),
            Some(crate::inference::DegradationCause::ResourceConstraint),
            "a genuinely saturated 10 Mbit/s link must not be flagged as a defense"
        );
        assert!(!report.inference.defense_suspected());
    }

    #[test]
    fn rate_limited_target_is_flagged_as_defense_not_constraint() {
        // A target whose link could absorb every tested crowd, but whose
        // per-client token buckets clamp repeat probers to 16 KB/s after a
        // single free request.  The MFC sees a textbook "bandwidth
        // constraint": large-object response times blow past θ at every
        // crowd.  The inference must not fall for it.
        let spec = SimTargetSpec::single_server(
            ServerConfig::validation_server(),
            ContentCatalog::lab_validation(),
        )
        .with_defenses(mfc_dynamics::DefenseConfig::rate_limited(
            1.0,
            0.002,
            16.0 * 1024.0,
        ));
        let mut backend = SimBackend::new(spec, 60, 21);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::LargeObject])
            .with_max_crowd(40)
            .with_increment(10);
        let report = Coordinator::new(config)
            .with_seed(4)
            .run(&mut backend)
            .unwrap();
        let stage = &report.stages[0];
        assert!(
            stage.outcome.stopping_crowd().is_some(),
            "the clamp must trip the detector: {:?}",
            stage.outcome
        );
        assert_eq!(
            report.inference.cause_of(Stage::LargeObject),
            Some(crate::inference::DegradationCause::RateLimitDefense),
            "clamped goodputs over an idle link are a defense, not a constraint"
        );
        assert!(report.inference.defense_suspected());
        assert!(report
            .inference
            .notes
            .iter()
            .any(|n| n.contains("rate-limit")));
        // The fingerprint itself: tight goodput dispersion, huge headroom.
        let tail = stage.epochs.last().unwrap();
        assert!(tail.client_goodput_cov.unwrap() < 0.3, "{tail:?}");
        assert!(
            tail.aggregate_goodput.unwrap() < 0.5 * tail.link_capacity.unwrap(),
            "{tail:?}"
        );
    }

    #[test]
    fn shedding_target_masks_the_nostop_verdict() {
        // An admission controller with a 15-requests-per-second surge
        // budget sheds most of every larger crowd with fast 503s.  The
        // response-time detector alone would read that as a healthy
        // NoStop; the inference must flag it as defense-masked.
        let spec = SimTargetSpec::single_server(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
        )
        .with_defenses(mfc_dynamics::DefenseConfig::shedding(15));
        let mut backend = SimBackend::new(spec, 60, 8);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::Base])
            .with_max_crowd(40)
            .with_increment(10);
        let report = Coordinator::new(config)
            .with_seed(2)
            .run(&mut backend)
            .unwrap();
        let stage = &report.stages[0];
        assert_eq!(
            report.inference.cause_of(Stage::Base),
            Some(crate::inference::DegradationCause::LoadSheddingDefense),
            "outcome {:?} with epochs {:?}",
            stage.outcome,
            stage.epochs.last()
        );
        assert!(report.inference.defense_suspected());
        // The shed fraction in the biggest epochs is substantial.
        assert!(stage.epochs.last().unwrap().error_rate >= 0.25);
    }

    #[test]
    fn listen_queue_refusals_are_not_mistaken_for_shedding() {
        // A genuinely under-provisioned static server: 4 workers and a
        // 4-slot listen queue refuse most of every larger crowd at TCP
        // level.  Refusals are connection failures, not 503s, so the
        // inference must not attribute the outcome to a shedding defense.
        let spec = SimTargetSpec::single_server(
            ServerConfig {
                workers: mfc_webserver::WorkerConfig {
                    max_workers: 4,
                    listen_queue: 4,
                    ..mfc_webserver::WorkerConfig::default()
                },
                ..ServerConfig::lab_apache()
            },
            ContentCatalog::lab_validation(),
        );
        let mut backend = SimBackend::new(spec, 60, 17);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::Base])
            .with_max_crowd(40)
            .with_increment(10);
        let report = Coordinator::new(config)
            .with_seed(3)
            .run(&mut backend)
            .unwrap();
        let stage = &report.stages[0];
        // Most of the big crowds were refused...
        let refused_heavy = stage.epochs.iter().any(|e| e.crowd_size >= 30);
        assert!(refused_heavy, "{:?}", stage.epochs);
        // ...yet no defense is claimed: refusals are not HTTP errors.
        assert_ne!(
            report.inference.cause_of(Stage::Base),
            Some(crate::inference::DegradationCause::LoadSheddingDefense),
            "TCP refusals misread as a shedding defense: {:?}",
            stage.epochs.last()
        );
        assert!(!report.inference.defense_suspected());
        assert!(stage.epochs.iter().all(|e| e.error_rate == 0.0));
    }

    #[test]
    fn undersized_transit_link_reads_as_path_congestion_not_server_constraint() {
        // A well-provisioned server (gigabit access link), but one of four
        // vantage groups sits behind a 1.6 Mbit/s shared transit link.
        // The Large Object stage trips the detector — the pinned group's
        // transfers crawl — yet the inference must localize the bottleneck
        // to the path, not report a server bandwidth constraint.
        let spec = SimTargetSpec::single_server(
            ServerConfig::validation_server(),
            ContentCatalog::lab_validation(),
        )
        .with_topology(mfc_topology::TopologySpec::star(&[
            mfc_simnet::mbps(1.6),
            mfc_simnet::mbps(1000.0),
            mfc_simnet::mbps(1000.0),
            mfc_simnet::mbps(1000.0),
        ]));
        let mut backend = SimBackend::new(spec, 60, 14);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::LargeObject])
            .with_max_crowd(40)
            .with_increment(10);
        let report = Coordinator::new(config)
            .with_seed(6)
            .run(&mut backend)
            .unwrap();
        let stage = &report.stages[0];
        assert!(
            stage.outcome.stopping_crowd().is_some(),
            "the pinned group must trip the 90th-percentile detector: {:?}",
            stage.outcome
        );
        assert_eq!(
            report.inference.cause_of(Stage::LargeObject),
            Some(crate::inference::DegradationCause::PathCongestion),
            "a shared transit bottleneck must not be read as a server \
             constraint; tail epoch: {:?}",
            stage.epochs.last()
        );
        assert!(report.inference.path_congestion_suspected());
        assert!(!report.inference.defense_suspected());
        // The per-group medians carry the evidence.
        let tail = stage.epochs.last().unwrap();
        assert!(tail.group_median_ms.len() >= 2, "{tail:?}");
    }

    #[test]
    fn mirrored_access_bottleneck_still_reads_as_server_constraint() {
        // The mirror image: generous transit links, but the *server's* own
        // access link is the thin one.  Every vantage group degrades
        // together, so the verdict stays a genuine resource constraint.
        let spec = SimTargetSpec::single_server(
            ServerConfig::lab_apache(), // 10 Mbit/s access link
            ContentCatalog::lab_validation(),
        )
        .with_topology(mfc_topology::TopologySpec::star(&[
            mfc_simnet::mbps(1000.0),
            mfc_simnet::mbps(1000.0),
            mfc_simnet::mbps(1000.0),
            mfc_simnet::mbps(1000.0),
        ]));
        let mut backend = SimBackend::new(spec, 60, 14);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::LargeObject])
            .with_max_crowd(50)
            .with_increment(10);
        let report = Coordinator::new(config)
            .with_seed(6)
            .run(&mut backend)
            .unwrap();
        let stage = &report.stages[0];
        assert!(
            stage.outcome.stopping_crowd().is_some(),
            "{:?}",
            stage.outcome
        );
        assert_eq!(
            report.inference.cause_of(Stage::LargeObject),
            Some(crate::inference::DegradationCause::ResourceConstraint),
            "a genuinely thin access link must keep its server verdict; \
             tail epoch: {:?}",
            stage.epochs.last()
        );
        assert!(!report.inference.path_congestion_suspected());
    }

    #[test]
    fn rate_limit_clamp_stays_distinguishable_from_path_clamp() {
        // PR 3's interaction case: a defended target whose per-client rate
        // limiter clamps every prober.  Both a path bottleneck and the
        // limiter leave the access link idle, but the limiter hits every
        // vantage group alike — the group medians stay symmetric, so the
        // verdict must remain RateLimitDefense even with a multi-group
        // topology in front.
        let spec = SimTargetSpec::single_server(
            ServerConfig::validation_server(),
            ContentCatalog::lab_validation(),
        )
        .with_topology(mfc_topology::TopologySpec::star(&[
            mfc_simnet::mbps(1000.0),
            mfc_simnet::mbps(1000.0),
            mfc_simnet::mbps(1000.0),
            mfc_simnet::mbps(1000.0),
        ]))
        .with_defenses(mfc_dynamics::DefenseConfig::rate_limited(
            1.0,
            0.002,
            16.0 * 1024.0,
        ));
        let mut backend = SimBackend::new(spec, 60, 21);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::LargeObject])
            .with_max_crowd(40)
            .with_increment(10);
        let report = Coordinator::new(config)
            .with_seed(4)
            .run(&mut backend)
            .unwrap();
        assert_eq!(
            report.inference.cause_of(Stage::LargeObject),
            Some(crate::inference::DegradationCause::RateLimitDefense),
            "a symmetric per-client clamp must not be mistaken for path \
             congestion: {:?}",
            report.stages[0].epochs.last()
        );
        assert!(report.inference.defense_suspected());
        assert!(!report.inference.path_congestion_suspected());
    }

    #[test]
    fn lossy_control_plane_is_auditable_from_the_report() {
        let spec = SimTargetSpec::single_server(
            ServerConfig::lab_apache(),
            ContentCatalog::lab_validation(),
        )
        .with_control_loss(0.3);
        let mut backend = SimBackend::new(spec, 60, 7);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::Base])
            .with_max_crowd(30)
            .with_increment(10);
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        // With 30% loss the gap must show up in the report itself, and it
        // must agree with the backend's own counter.
        assert!(report.total_commands_lost() > 0);
        assert_eq!(
            u64::from(report.total_commands_lost()),
            backend.control_messages_lost()
        );
        assert!(report.render_text().contains("lost in transit"));
    }

    #[test]
    fn defended_runs_are_deterministic() {
        let run = || {
            let spec = SimTargetSpec::single_server(
                ServerConfig::lab_apache(),
                ContentCatalog::lab_validation(),
            )
            .with_defenses(mfc_dynamics::DefenseConfig::fortress(1, 4));
            let mut backend = SimBackend::new(spec, 55, 13);
            Coordinator::new(MfcConfig::standard().with_max_crowd(25).with_increment(10))
                .with_seed(5)
                .run(&mut backend)
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn same_seed_gives_identical_reports() {
        let config = MfcConfig::standard().with_max_crowd(20).with_increment(10);
        let run = || {
            let mut backend = lab_backend(55, 9);
            Coordinator::new(config.clone())
                .with_seed(77)
                .run(&mut backend)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    /// A scripted backend whose regular traffic surges inside a fixed
    /// wall-clock window: epochs that land in the window see 50 req/s of
    /// background (reported through the utilization window) and inflated
    /// response times; outside it the server is quiet and fast, at the
    /// next of its scripted quiet rates (0.2 req/s once they run out).
    struct SurgeBackend {
        clock: SimDuration,
        surge_from: SimDuration,
        surge_until: SimDuration,
        quiet_rates: std::collections::VecDeque<f64>,
    }

    impl SurgeBackend {
        fn new(surge_from_secs: u64, surge_until_secs: u64) -> Self {
            SurgeBackend {
                clock: SimDuration::ZERO,
                surge_from: SimDuration::from_secs(surge_from_secs),
                surge_until: SimDuration::from_secs(surge_until_secs),
                quiet_rates: Default::default(),
            }
        }

        fn with_quiet_rates(mut self, rates: &[f64]) -> Self {
            self.quiet_rates = rates.iter().copied().collect();
            self
        }

        fn surging(&self) -> bool {
            self.clock >= self.surge_from && self.clock < self.surge_until
        }
    }

    impl crate::backend::MfcBackend for SurgeBackend {
        fn registered_clients(&mut self) -> Vec<ClientId> {
            (0..55).map(ClientId).collect()
        }

        fn ping(&mut self, _client: ClientId) -> Option<SimDuration> {
            Some(SimDuration::from_millis(20))
        }

        fn measure_base(
            &mut self,
            _client: ClientId,
            _request: &crate::types::RequestSpec,
        ) -> crate::backend::BaseMeasurement {
            self.clock += SimDuration::from_millis(200);
            crate::backend::BaseMeasurement {
                target_rtt: SimDuration::from_millis(20),
                base_response_time: SimDuration::from_millis(20),
                status: crate::types::ProbeStatus::Ok,
                bytes: 0,
            }
        }

        fn run_epoch(&mut self, plan: &EpochPlan) -> EpochObservation {
            let surging = self.surging();
            // During the surge every probe crawls; when quiet the server
            // absorbs any tested crowd.
            let normalized = if surging {
                SimDuration::from_millis(600)
            } else {
                SimDuration::from_millis(30)
            };
            let background_rate = if surging {
                50.0
            } else {
                self.quiet_rates.pop_front().unwrap_or(0.2)
            };
            let window = SimDuration::from_secs(10);
            let observations = plan
                .commands
                .iter()
                .map(|command| crate::types::ClientObservation {
                    client: command.client,
                    group: 0,
                    status: crate::types::ProbeStatus::Ok,
                    bytes: 0,
                    response_time: normalized + SimDuration::from_millis(20),
                })
                .collect();
            self.clock += SimDuration::from_secs(30);
            EpochObservation {
                observations,
                target_arrivals: Vec::new(),
                lost_commands: 0,
                background_requests: (background_rate * window.as_secs_f64()) as u64,
                server_utilization: Some(mfc_webserver::UtilizationReport {
                    window,
                    cpu_utilization: 0.2,
                    peak_memory_bytes: 0,
                    mean_memory_bytes: 0.0,
                    network_bytes_sent: 0,
                    disk_operations: 0,
                    mean_busy_workers: 1.0,
                    peak_busy_workers: 1,
                    refused_requests: 0,
                    completed_requests: plan.commands.len() as u64,
                    shed_requests: 0,
                    throttled_requests: 0,
                    link_capacity: 1_250_000.0,
                }),
            }
        }

        fn profile_target(&mut self) -> TargetProfile {
            TargetProfile::from_catalog(&mfc_webserver::ContentCatalog::lab_validation())
        }

        fn wait(&mut self, gap: SimDuration) {
            self.clock += gap;
        }
    }

    #[test]
    fn surge_coincident_epochs_yield_a_confounded_verdict() {
        // 55 base measurements take ~11 s, epoch 1 runs quiet, epoch 2
        // (and any checks) land inside the [45 s, 200 s) surge: without a
        // quiescence policy the stage stops inside the surge and the
        // inference must call the confound.
        let mut backend = SurgeBackend::new(45, 200);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::Base])
            .with_max_crowd(20)
            .with_increment(10);
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        let stage = &report.stages[0];
        assert_eq!(stage.outcome, StageOutcome::Stopped { crowd_size: 20 });
        assert_eq!(
            report.inference.cause_of(Stage::Base),
            Some(crate::inference::DegradationCause::BackgroundInterference),
            "epochs: {:?}",
            stage.epochs
        );
        assert!(report.inference.background_interference_suspected());
        // The observables carry the evidence: the tail epochs' background
        // rate sits two orders of magnitude above the baseline.
        let tail = stage.epochs.last().unwrap();
        assert!(tail.background_rate.unwrap() > 40.0);
        assert!(stage.epochs[0].background_rate.unwrap() < 1.0);
        // Without a policy nothing was rescheduled.
        assert!(stage.epochs.iter().all(|e| !e.surge_suspected));
    }

    #[test]
    fn quiescence_policy_reschedules_around_the_surge() {
        // Same surge, but the coordinator is allowed to wait it out: the
        // surged attempt is flagged and kept, the re-run lands in quiet
        // and the stage honestly reports NoStop.
        let mut backend = SurgeBackend::new(45, 100);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::Base])
            .with_max_crowd(20)
            .with_increment(10)
            .with_quiescence(crate::config::QuiescencePolicy::default());
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        let stage = &report.stages[0];
        assert_eq!(
            stage.outcome,
            StageOutcome::NoStop {
                max_crowd_tested: 20
            },
            "epochs: {:?}",
            stage.epochs
        );
        // The flagged attempt is auditable in the epoch trace.
        assert!(stage.epochs.iter().any(|e| e.surge_suspected));
        // And the verdict is clean: quiet-window evidence, no confound.
        assert_eq!(
            report.inference.cause_of(Stage::Base),
            Some(crate::inference::DegradationCause::NotDegraded)
        );
        assert!(!report.inference.background_interference_suspected());
    }

    #[test]
    fn the_surge_baseline_is_the_lower_quartile_of_the_clean_rates() {
        // Quiet epochs at 2, 5 and 5 req/s leave a lower-quartile baseline
        // of 2 (threshold 6), where their median of 5 would set 15: the
        // fourth epoch's 7 req/s is flagged and re-run, and nothing else.
        let mut backend =
            SurgeBackend::new(1_000_000, 1_000_000).with_quiet_rates(&[2.0, 5.0, 5.0, 7.0]);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::Base])
            .with_max_crowd(50)
            .with_increment(10)
            .with_quiescence(crate::config::QuiescencePolicy::default());
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        let flagged: Vec<(u32, Option<f64>)> = report.stages[0]
            .epochs
            .iter()
            .filter(|e| e.surge_suspected)
            .map(|e| (e.index, e.background_rate))
            .collect();
        assert_eq!(flagged, [(4, Some(7.0))]);
    }

    #[test]
    fn exhausted_retries_keep_the_surge_flag() {
        // A surge that never ends: retries run out, the flagged epoch's
        // result stands, and the inference sees the confound.
        let mut backend = SurgeBackend::new(45, 1_000_000);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::Base])
            .with_max_crowd(20)
            .with_increment(10)
            .with_quiescence(crate::config::QuiescencePolicy {
                max_retries: 1,
                ..crate::config::QuiescencePolicy::default()
            });
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        let stage = &report.stages[0];
        assert_eq!(stage.outcome, StageOutcome::Stopped { crowd_size: 20 });
        assert_eq!(
            report.inference.cause_of(Stage::Base),
            Some(crate::inference::DegradationCause::BackgroundInterference)
        );
    }

    #[test]
    fn mfc_mr_multiplies_requests_not_crowd() {
        let mut backend = lab_backend(60, 10);
        let config = MfcConfig::standard()
            .with_requests_per_client(2)
            .with_stages(vec![Stage::Base])
            .with_max_crowd(10)
            .with_increment(10);
        let report = Coordinator::new(config).run(&mut backend).unwrap();
        let epoch = &report.stages[0].epochs[0];
        assert_eq!(epoch.crowd_size, 10);
        assert_eq!(epoch.requests_scheduled, 20);
    }

    /// A scripted backend for the normalization rule.  Client `c` sits
    /// alone in vantage group `c`, so each epoch summary's per-group
    /// medians expose every client's normalized samples.  Its unloaded
    /// response time is `10·(c + 1)` ms plus `shift`; its `k`-th request of
    /// an epoch takes that base plus `100 + 10·c + 2·k` ms, except client 1,
    /// which answers 5 ms *faster* than its base (plus `2·k` ms), and
    /// client 2, whose second request fails after 9.999 s.
    struct NormalizationBackend {
        clients: u32,
        /// Added to every base and response time, so two calibrations of
        /// the same backend measure different bases.
        shift: SimDuration,
        /// A client that never answers the registration probe.
        silent: Option<ClientId>,
        /// Every client whose base time was measured, in call order.
        measured: Vec<ClientId>,
    }

    impl NormalizationBackend {
        fn new(clients: u32) -> Self {
            NormalizationBackend {
                clients,
                shift: SimDuration::ZERO,
                silent: None,
                measured: Vec::new(),
            }
        }

        fn base(&self, client: ClientId) -> SimDuration {
            SimDuration::from_millis(10 * (u64::from(client.0) + 1)) + self.shift
        }
    }

    impl crate::backend::MfcBackend for NormalizationBackend {
        fn registered_clients(&mut self) -> Vec<ClientId> {
            (0..self.clients).map(ClientId).collect()
        }

        fn ping(&mut self, client: ClientId) -> Option<SimDuration> {
            (self.silent != Some(client)).then(|| SimDuration::from_millis(20))
        }

        fn measure_base(
            &mut self,
            client: ClientId,
            _request: &crate::types::RequestSpec,
        ) -> crate::backend::BaseMeasurement {
            self.measured.push(client);
            crate::backend::BaseMeasurement {
                target_rtt: SimDuration::from_millis(20),
                base_response_time: self.base(client),
                status: crate::types::ProbeStatus::Ok,
                bytes: 0,
            }
        }

        fn run_epoch(&mut self, plan: &EpochPlan) -> EpochObservation {
            use crate::types::{ClientObservation, ProbeStatus};
            let mut sent = vec![0u64; self.clients as usize];
            let mut observations = Vec::new();
            for command in &plan.commands {
                let c = command.client;
                let k = sent[c.0 as usize];
                sent[c.0 as usize] += 1;
                let base = self.base(c) + SimDuration::from_millis(2 * k);
                let (status, response_time) = match (c.0, k) {
                    (1, _) => (ProbeStatus::Ok, base - SimDuration::from_millis(5)),
                    (2, 1) => (ProbeStatus::Failed, SimDuration::from_millis(9_999)),
                    _ => (
                        ProbeStatus::Ok,
                        base + SimDuration::from_millis(100 + 10 * u64::from(c.0)),
                    ),
                };
                observations.push(ClientObservation {
                    client: c,
                    group: c.0,
                    status,
                    bytes: 0,
                    response_time,
                });
            }
            EpochObservation {
                observations,
                ..EpochObservation::default()
            }
        }

        fn profile_target(&mut self) -> TargetProfile {
            TargetProfile::from_objects("/index.html", Vec::new())
        }
    }

    #[test]
    fn each_sample_is_normalized_by_its_own_clients_base_from_the_current_stage() {
        // One Base epoch of all six clients, two requests each (MFC-mr).
        let config = MfcConfig::standard()
            .with_requests_per_client(2)
            .with_stages(vec![Stage::Base])
            .with_min_clients(6)
            .with_max_crowd(6)
            .with_increment(6);
        let coordinator = Coordinator::new(config);
        let mut backend = NormalizationBackend::new(6);
        // The second run on the same backend recalibrates against bases
        // 50 ms higher; normalizing with the first run's bases would add
        // 50 ms to every sample.
        for shift_ms in [0, 50] {
            backend.shift = SimDuration::from_millis(shift_ms);
            backend.measured.clear();
            let report = coordinator.run(&mut backend).unwrap();
            assert_eq!(backend.measured, (0..6).map(ClientId).collect::<Vec<_>>());
            let epochs = &report.stages[0].epochs;
            assert_eq!(epochs.len(), 1, "shift {shift_ms} ms");
            let epoch = &epochs[0];
            assert_eq!(epoch.requests_scheduled, 12);
            assert_eq!(epoch.requests_observed, 12);
            // Client 0: 100 and 102 ms over its base.  Client 1: under its
            // base, floored at zero.  Client 2: its failed request is not a
            // sample.  Clients 3–5: 10 ms apart per client.
            assert_eq!(
                epoch.group_median_ms,
                vec![
                    (0, 101.0),
                    (1, 0.0),
                    (2, 120.0),
                    (3, 131.0),
                    (4, 141.0),
                    (5, 151.0)
                ],
                "shift {shift_ms} ms"
            );
            // Samples 0, 0, 100, 102, 120, 130, 132, 140, 142, 150, 152.
            assert_eq!(epoch.median_ms, 130.0, "shift {shift_ms} ms");
            assert_eq!(epoch.detector_ms, 130.0, "shift {shift_ms} ms");
        }
    }

    #[test]
    fn probe_crowd_aborts_below_its_crowd_size() {
        // Client 0 never answers, so five of six clients are responsive.
        let mut backend = NormalizationBackend::new(6);
        backend.silent = Some(ClientId(0));
        let coordinator = Coordinator::new(MfcConfig::standard());
        let err = coordinator
            .probe_crowd(&mut backend, Stage::Base, 6)
            .unwrap_err();
        assert_eq!(
            err,
            MfcError::NotEnoughClients {
                available: 5,
                required: 6
            }
        );
        assert!(backend.measured.is_empty());
        // A crowd that fits calibrates only the first `crowd` responsive
        // clients, although the configuration asks for 50 registrations.
        let (summary, _) = coordinator
            .probe_crowd(&mut backend, Stage::Base, 3)
            .unwrap();
        assert_eq!(backend.measured, [ClientId(1), ClientId(2), ClientId(3)]);
        assert_eq!(summary.crowd_size, 3);
    }
}
