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
//!
//! The module has three parts.  The *stage machine* (`StageMachine`) is the
//! rule of steps 3–5 together with the quiescence retries, and nothing
//! else: it takes each epoch's [`EpochSummary`] and answers with the gap to
//! wait and the next epoch to run, or the stage's outcome.  The
//! *summarizer* (`EpochSummary::from_observation`) turns what a backend
//! observed in one epoch into that summary; it calls no backend and draws
//! nothing.  The *driver*, [`Coordinator`], registers and calibrates the
//! clients, plans each epoch (random participants, synchronized send
//! times), runs it on an [`MfcBackend`], summarizes it, steps the machine
//! and waits.

use std::collections::{BTreeMap, HashMap};

use mfc_simcore::{stats, SimDuration, SimRng};

use crate::backend::MfcBackend;
use crate::config::{MfcConfig, QuiescencePolicy};
use crate::inference::{surge_threshold, InferenceReport};
use crate::profile::TargetProfile;
use crate::report::{MfcReport, StageReport};
use crate::sync::{ClientLatency, SyncScheduler};
use crate::types::{
    ClientId, EpochObservation, EpochPlan, EpochSummary, ProbeStatus, RequestCommand, RequestSpec,
    Stage, StageOutcome,
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

/// An epoch the stage machine asks the driver to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EpochRequest {
    /// Distinct clients in the crowd.
    pub(crate) crowd: usize,
    /// Epoch number within the stage; check epochs and re-runs keep the
    /// number of the epoch they follow.
    pub(crate) index: u32,
    /// Whether the epoch belongs to a check phase.
    pub(crate) check_phase: bool,
}

/// What the stage machine wants after an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NextAction {
    /// Run this epoch.
    Epoch(EpochRequest),
    /// The stage is over.
    Finish(StageOutcome),
}

/// The stopping rule of one stage (paper Figure 2(a)) with the quiescence
/// retries, as a pure state machine.  `epoch` names the epoch to run
/// first; the driver runs each epoch it is asked for, feeds its summary
/// to `step`, and waits the gap that `step` returns before the next
/// action.
///
/// Quiescence: when an epoch's server-reported background rate exceeds
/// the surge threshold over the stage's clean rates, the epoch is flagged
/// `surge_suspected`, kept in the report for audit, and re-run after the
/// policy's backoff — up to `max_retries` times (paper §4's "quiet
/// hours", automated).  Once the retries run out the flagged result
/// stands, and the inference layer sees the confound.
#[derive(Debug, Default)]
pub(crate) struct StageMachine {
    threshold_ms: f64,
    quiescence: Option<QuiescencePolicy>,
    /// The crowd schedule, each rung capped at the calibrated clients.
    ladder: Vec<usize>,
    /// The ladder's current rung.
    rung: usize,
    /// The current epoch's position in the rung's check phase, if one runs.
    check: Option<usize>,
    /// Calibrated clients: the cap of every check crowd too.
    clients: usize,
    /// Surge-flagged re-runs of the current epoch so far.
    retries: u32,
    /// Every epoch run so far, flagged re-runs included: the stage's
    /// request count and largest tested crowd are read from it.
    epochs: Vec<EpochSummary>,
    /// Server-reported background rates of epochs that were *not*
    /// surge-flagged: what `surge_threshold` takes the stage's baseline
    /// from.
    clean_rates: Vec<f64>,
}

impl StageMachine {
    /// The machine for a stage with `clients` calibrated clients.
    pub(crate) fn new(config: &MfcConfig, clients: usize) -> Self {
        StageMachine {
            threshold_ms: config.threshold.as_millis_f64(),
            quiescence: config.quiescence.clone(),
            ladder: config
                .crowd_schedule()
                .into_iter()
                .map(|crowd| crowd.min(clients))
                .collect(),
            clients,
            ..StageMachine::default()
        }
    }

    /// The epoch to run now: the current rung's crowd, or the `N−1`, `N`
    /// or `N+1` of its check phase.
    pub(crate) fn epoch(&self) -> EpochRequest {
        let crowd = self.ladder[self.rung];
        EpochRequest {
            crowd: self.check.map_or(crowd, |position| {
                [crowd.saturating_sub(1).max(1), crowd, crowd + 1][position].min(self.clients)
            }),
            index: self.rung as u32 + 1,
            check_phase: self.check.is_some(),
        }
    }

    /// Takes the summary of the epoch the machine asked for and returns the
    /// gap to wait (the policy's backoff before a re-run, `EPOCH_GAP`
    /// otherwise) and the next action.
    pub(crate) fn step(&mut self, mut summary: EpochSummary) -> (SimDuration, NextAction) {
        if let (Some(policy), Some(rate)) = (&self.quiescence, summary.background_rate) {
            // The baseline needs at least one clean epoch; the stage's first
            // epoch seeds it.
            if surge_threshold(&self.clean_rates).is_some_and(|threshold| rate > threshold) {
                summary.surge_suspected = true;
                if self.retries < policy.max_retries {
                    self.retries += 1;
                    self.epochs.push(summary);
                    return (policy.backoff, NextAction::Epoch(self.epoch()));
                }
            } else {
                self.clean_rates.push(rate);
            }
        }
        self.retries = 0;
        let exceeded = summary.detector_ms > self.threshold_ms;
        self.epochs.push(summary);
        let crowd = self.ladder[self.rung];
        match self.check {
            Some(_) if exceeded => {
                let outcome = StageOutcome::Stopped { crowd_size: crowd };
                return (EPOCH_GAP, NextAction::Finish(outcome));
            }
            Some(position) if position < 2 => self.check = Some(position + 1),
            // Below the minimum crowd the median is not trusted; progress.
            None if exceeded && crowd >= MIN_CROWD_FOR_INFERENCE => self.check = Some(0),
            // Nothing triggered, or the check failed (the degradation was
            // stochastic): keep going.
            _ => {
                self.check = None;
                self.rung += 1;
            }
        }
        let next = if self.rung < self.ladder.len() {
            NextAction::Epoch(self.epoch())
        } else {
            let max_crowd_tested = self.epochs.iter().map(|e| e.crowd_size).max();
            NextAction::Finish(StageOutcome::NoStop {
                max_crowd_tested: max_crowd_tested.unwrap_or(0),
            })
        };
        (EPOCH_GAP, next)
    }

    /// The stage's report, once the machine finished it with `outcome`.
    pub(crate) fn into_report(self, stage: Stage, outcome: StageOutcome) -> StageReport {
        let requests_issued = self.epochs.iter().map(|e| e.requests_scheduled).sum();
        StageReport {
            stage,
            outcome,
            epochs: self.epochs,
            requests_issued,
        }
    }
}

impl EpochSummary {
    /// Summarizes what a backend observed when it ran `plan`.  Every sample
    /// is normalized against its client's base time in `base_of`, and the
    /// detector is the `quantile` of the normalized samples.  Pure: it calls
    /// no backend and draws nothing.
    pub(crate) fn from_observation(
        plan: &EpochPlan,
        observation: &EpochObservation,
        base_of: &HashMap<ClientId, SimDuration>,
        quantile: f64,
        check_phase: bool,
    ) -> EpochSummary {
        // NORMALIZATION: each sample less the reporting client's base time
        // from this stage's calibration, floored at zero.  Every sample
        // comes from a participant; a stray one is taken as is.
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
        let detector_ms = stats::percentile(&normalized, quantile).unwrap_or(0.0);
        let median_ms = stats::median(&normalized).unwrap_or(0.0);
        let arrival_spread_90 =
            mfc_webserver::request::central_spread(&observation.target_arrivals, 0.9);

        // Vantage-aware localization input: the per-group medians of the
        // normalized response times.  A skewed profile (one group far above
        // θ, the rest flat) is the remote fingerprint of a shared *path*
        // bottleneck rather than a server constraint.
        let mut by_group: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
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
            .filter(|o| matches!(o.status, ProbeStatus::HttpError(code) if code >= 500))
            .count();
        // Every HTTP error is a sample, so no samples means no errors.
        let error_rate = errors as f64 / samples.len().max(1) as f64;
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
                matches!(o.status, ProbeStatus::Ok | ProbeStatus::TimedOut)
                    && o.bytes > 0
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
            // Every goodput is positive, and so is their mean.
            (
                stats::median(&goodputs),
                Some(spread.std_dev() / spread.mean()),
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

        EpochSummary {
            index: plan.index,
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
        }
    }
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
        let epoch = EpochRequest {
            crowd,
            index: 1,
            check_phase: false,
        };
        Ok(self.execute_epoch(backend, stage, &clients, epoch, &mut rng))
    }

    /// Runs one stage to termination: each epoch the stage machine asks
    /// for is run, summarized and fed back to it, and the gap it answers
    /// with is waited.
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
        let mut machine = StageMachine::new(&self.config, clients.len());
        let mut epoch = machine.epoch();
        loop {
            let (summary, _) = self.execute_epoch(backend, stage, &clients, epoch, rng);
            let (gap, next) = machine.step(summary);
            backend.wait(gap);
            match next {
                NextAction::Epoch(next) => epoch = next,
                NextAction::Finish(outcome) => return machine.into_report(stage, outcome),
            }
        }
    }

    /// Plans one epoch (random participants, synchronized send times), runs
    /// it on `backend` and summarizes what came back.
    fn execute_epoch(
        &self,
        backend: &mut dyn MfcBackend,
        stage: Stage,
        clients: &[ClientState],
        epoch: EpochRequest,
        rng: &mut SimRng,
    ) -> (EpochSummary, EpochObservation) {
        // Participants are chosen at random each epoch so that an observed
        // degradation reflects the crowd size, not the local conditions of
        // any fixed subset of clients (paper §2.3).
        let participants = rng.sample(clients, epoch.crowd.min(clients.len()).max(1));

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
            index: epoch.index,
            commands,
            timeout: CLIENT_TIMEOUT,
        };
        let observation = backend.run_epoch(&plan);
        let base_of: HashMap<ClientId, SimDuration> = participants
            .iter()
            .map(|c| (c.latency.client, c.base_response_time))
            .collect();
        let quantile = match stage {
            Stage::LargeObject => self.config.large_object_quantile,
            _ => stage.detection_quantile(),
        };
        let summary = EpochSummary::from_observation(
            &plan,
            &observation,
            &base_of,
            quantile,
            epoch.check_phase,
        );
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

    /// A scripted summary of `epoch` with the given detector and
    /// background rate.
    fn scripted(epoch: EpochRequest, detector_ms: f64, background_rate: f64) -> EpochSummary {
        EpochSummary {
            index: epoch.index,
            crowd_size: epoch.crowd,
            requests_scheduled: epoch.crowd,
            requests_observed: epoch.crowd,
            detector_ms,
            median_ms: detector_ms,
            check_phase: epoch.check_phase,
            commands_lost: 0,
            arrival_spread_90: None,
            group_median_ms: Vec::new(),
            error_rate: 0.0,
            client_goodput_median: None,
            client_goodput_cov: None,
            aggregate_goodput: None,
            link_capacity: None,
            background_rate: Some(background_rate),
            surge_suspected: false,
        }
    }

    type Trace = Vec<(EpochRequest, SimDuration)>;

    /// Runs the stage machine to its end: `summarize` answers every epoch
    /// it asks for, and each epoch lands in the trace with the gap the
    /// machine waits after it.
    fn drive(
        config: &MfcConfig,
        clients: usize,
        mut summarize: impl FnMut(EpochRequest) -> EpochSummary,
    ) -> (StageReport, Trace) {
        let mut machine = StageMachine::new(config, clients);
        let mut trace = Vec::new();
        let mut epoch = machine.epoch();
        loop {
            let (gap, next) = machine.step(summarize(epoch));
            trace.push((epoch, gap));
            match next {
                NextAction::Epoch(next) => epoch = next,
                NextAction::Finish(outcome) => {
                    return (machine.into_report(Stage::Base, outcome), trace)
                }
            }
        }
    }

    /// The stopping rule and the quiescence retries written out as plain
    /// nested loops, with the paper's constants spelled out: the reference
    /// the stage machine is checked against.
    struct Reference<'a, F> {
        config: &'a MfcConfig,
        summarize: F,
        epochs: Vec<EpochSummary>,
        clean_rates: Vec<f64>,
        trace: Trace,
    }

    impl<F: FnMut(EpochRequest) -> EpochSummary> Reference<'_, F> {
        fn run(config: &MfcConfig, clients: usize, summarize: F) -> (StageReport, Trace) {
            let mut reference = Reference {
                config,
                summarize,
                epochs: Vec::new(),
                clean_rates: Vec::new(),
                trace: Vec::new(),
            };
            let outcome = reference.stage(clients);
            let report = StageReport {
                stage: Stage::Base,
                outcome,
                requests_issued: reference.epochs.iter().map(|e| e.requests_scheduled).sum(),
                epochs: reference.epochs,
            };
            (report, reference.trace)
        }

        fn stage(&mut self, clients: usize) -> StageOutcome {
            let threshold_ms = self.config.threshold.as_millis_f64();
            let mut max_crowd_tested = 0;
            for (n, crowd) in self.config.crowd_schedule().into_iter().enumerate() {
                let index = n as u32 + 1;
                let crowd = crowd.min(clients);
                let first = EpochRequest {
                    crowd,
                    index,
                    check_phase: false,
                };
                max_crowd_tested = max_crowd_tested.max(crowd);
                if self.quiesced(first) <= threshold_ms || crowd < 15 {
                    continue;
                }
                for check in [crowd - 1, crowd, crowd + 1] {
                    let check = EpochRequest {
                        crowd: check.min(clients),
                        index,
                        check_phase: true,
                    };
                    max_crowd_tested = max_crowd_tested.max(check.crowd);
                    if self.quiesced(check) > threshold_ms {
                        return StageOutcome::Stopped { crowd_size: crowd };
                    }
                }
            }
            StageOutcome::NoStop { max_crowd_tested }
        }

        /// Runs `epoch` until it is not surge-flagged or its retries run
        /// out, and returns the detector of the result that stands.
        fn quiesced(&mut self, epoch: EpochRequest) -> f64 {
            let mut retries = 0;
            loop {
                let mut summary = (self.summarize)(epoch);
                let policy = self.config.quiescence.clone();
                let surged = match (&policy, summary.background_rate) {
                    (Some(_), Some(rate)) => {
                        surge_threshold(&self.clean_rates).is_some_and(|t| rate > t)
                    }
                    _ => false,
                };
                if surged {
                    summary.surge_suspected = true;
                    let policy = policy.unwrap();
                    if retries < policy.max_retries {
                        retries += 1;
                        self.epochs.push(summary);
                        self.trace.push((epoch, policy.backoff));
                        continue;
                    }
                } else if let (Some(_), Some(rate)) = (&policy, summary.background_rate) {
                    self.clean_rates.push(rate);
                }
                let detector_ms = summary.detector_ms;
                self.epochs.push(summary);
                self.trace.push((epoch, SimDuration::from_secs(10)));
                return detector_ms;
            }
        }
    }

    /// A script over the bits of `pattern`, `bits` (1 or 2) per epoch run,
    /// re-runs included: the `run`-th epoch reads above θ when bit
    /// `bits·run` is set and, with 2 bits, surged (50 req/s, else 2) when
    /// bit `bits·run + 1` is set.  Epochs past the pattern read below θ and
    /// quiet.  "Below θ" is θ itself, which does not exceed it.
    fn script(theta: f64, pattern: u32, bits: u32) -> impl FnMut(EpochRequest) -> EpochSummary {
        let mut run = 0;
        move |epoch| {
            let bit = |k: u32| (bits * run + k < 32) && pattern >> (bits * run + k) & 1 == 1;
            let detector_ms = if bit(0) { theta + 0.5 } else { theta };
            let rate = if bits > 1 && bit(1) { 50.0 } else { 2.0 };
            run += 1;
            scripted(epoch, detector_ms, rate)
        }
    }

    #[test]
    fn the_stage_machine_follows_the_stopping_rule_on_every_threshold_pattern() {
        let config = MfcConfig::standard().with_increment(5).with_max_crowd(25);
        assert_eq!(config.crowd_schedule(), [5, 10, 15, 20, 25]);
        let theta = config.threshold.as_millis_f64();
        // Five rungs and three check epochs for each of 15, 20 and 25: at
        // most 14 epochs.  23 clients also cap the top rung and its checks.
        for clients in [60, 23] {
            let mut stops = std::collections::BTreeSet::new();
            let mut longest = 0;
            for pattern in 0..1 << 14 {
                let machine = drive(&config, clients, script(theta, pattern, 1));
                let reference = Reference::run(&config, clients, script(theta, pattern, 1));
                assert_eq!(
                    machine, reference,
                    "pattern {pattern:#016b}, {clients} clients"
                );
                stops.insert(machine.0.outcome.stopping_crowd());
                longest = longest.max(machine.1.len());
            }
            let top = clients.min(25);
            assert_eq!(stops, [None, Some(15), Some(20), Some(top)].into());
            assert_eq!(longest, 14);
        }
    }

    #[test]
    fn the_stage_machine_retries_surged_epochs_like_the_rule() {
        // Each of the first seven epochs run is above θ or not, and surged
        // (50 req/s) or quiet (2 req/s); later ones are quiet and below θ.
        for max_retries in [1, 2] {
            let config = MfcConfig::standard()
                .with_increment(5)
                .with_max_crowd(20)
                .with_quiescence(QuiescencePolicy {
                    backoff: SimDuration::from_secs(60),
                    max_retries,
                });
            let theta = config.threshold.as_millis_f64();
            let mut flagged_stops = 0;
            for pattern in 0..1 << 14 {
                let machine = drive(&config, 60, script(theta, pattern, 2));
                let reference = Reference::run(&config, 60, script(theta, pattern, 2));
                assert_eq!(
                    machine, reference,
                    "pattern {pattern:#016b}, {max_retries} retries"
                );
                let (report, _) = &machine;
                if report.outcome.stopping_crowd().is_some()
                    && report.epochs.last().is_some_and(|e| e.surge_suspected)
                {
                    flagged_stops += 1;
                }
            }
            // Some stops stand on a surged epoch whose retries ran out.
            assert!(flagged_stops > 0, "{max_retries} retries");
        }
    }

    #[test]
    fn the_summary_normalizes_counts_and_rates_one_observation() {
        use crate::types::{ClientObservation, ProbeStatus::*};
        let ms = SimDuration::from_millis;
        let command = |client| RequestCommand {
            client: ClientId(client),
            request: RequestSpec {
                method: crate::types::ProbeMethod::Head,
                path: "/".to_string(),
                stage: Stage::Base,
                expected_bytes: 0,
            },
            send_offset: SimDuration::ZERO,
            intended_arrival: SimDuration::ZERO,
        };
        // Client 0 sends two requests (MFC-mr); client 5 is a stray.
        let plan = EpochPlan {
            stage: Stage::Base,
            index: 3,
            commands: [0, 0, 1, 2, 3, 4].map(command).to_vec(),
            timeout: CLIENT_TIMEOUT,
        };
        let base_of: HashMap<ClientId, SimDuration> = [(0, 50), (1, 50), (2, 10), (3, 10), (4, 10)]
            .map(|(client, base)| (ClientId(client), ms(base)))
            .into();
        let observe = |client, group, status, bytes, response_ms| ClientObservation {
            client: ClientId(client),
            group,
            status,
            bytes,
            response_time: ms(response_ms),
        };
        let mut observation = EpochObservation {
            observations: vec![
                observe(0, 0, Ok, 3_000, 250),           // 200 ms, 12 KB/s
                observe(0, 0, Failed, 0, 9_999),         // no sample
                observe(1, 1, Ok, 0, 30),                // 20 ms under its base: 0
                observe(2, 0, HttpError(503), 0, 60),    // 50 ms, a server error
                observe(3, 0, HttpError(404), 0, 70),    // 60 ms, not one
                observe(4, 0, ConnectionRefused, 0, 40), // 30 ms, not one
                observe(5, 2, TimedOut, 5_000, 10_000),  // stray: 10 s, 500 B/s
            ],
            target_arrivals: Vec::new(),
            lost_commands: 2,
            background_requests: 40,
            server_utilization: Some(mfc_webserver::UtilizationReport {
                window: SimDuration::ZERO,
                cpu_utilization: 0.0,
                peak_memory_bytes: 0,
                mean_memory_bytes: 0.0,
                network_bytes_sent: 0,
                disk_operations: 0,
                mean_busy_workers: 0.0,
                peak_busy_workers: 0,
                refused_requests: 0,
                completed_requests: 0,
                shed_requests: 0,
                throttled_requests: 0,
                link_capacity: 1e6,
            }),
        };
        let summary = EpochSummary::from_observation(&plan, &observation, &base_of, 0.9, true);
        // Samples 0, 30, 50, 60, 200, 10000.
        let cov = summary.client_goodput_cov.unwrap();
        assert!((cov - 5_750.0 / 6_250.0).abs() < 1e-12, "{cov}");
        assert_eq!(
            summary,
            EpochSummary {
                index: 3,
                crowd_size: 5,
                requests_scheduled: 6,
                requests_observed: 7,
                detector_ms: 5_100.0,
                median_ms: 55.0,
                check_phase: true,
                commands_lost: 2,
                arrival_spread_90: None,
                group_median_ms: vec![(0, 55.0), (1, 0.0), (2, 10_000.0)],
                error_rate: 1.0 / 6.0,
                client_goodput_median: Some(6_250.0),
                client_goodput_cov: Some(cov),
                aggregate_goodput: Some(12_500.0),
                link_capacity: Some(1e6),
                background_rate: None,
                surge_suspected: false,
            }
        );
        // One vantage group: no per-group medians, and nothing else moves.
        for o in &mut observation.observations {
            o.group = 7;
        }
        let single = EpochSummary::from_observation(&plan, &observation, &base_of, 0.9, true);
        assert_eq!(
            single,
            EpochSummary {
                group_median_ms: Vec::new(),
                ..summary
            }
        );
    }
}
