//! The simulation backend: MFC over the modelled wide-area network and
//! server substrate.
//!
//! This is the reproduction's stand-in for "65 PlanetLab hosts plus a
//! production web server on the other side of the Internet".  Client
//! network characteristics come from [`mfc_simnet::WideAreaModel`], control
//! messages travel over a lossy [`mfc_simnet::ControlChannel`], and the
//! target is a [`mfc_webserver::ServerCluster`] (a single server is a
//! cluster of one) run under its [`mfc_dynamics::DefenseStack`] (empty for
//! a static target), optionally serving background traffic while the MFC
//! runs.

use mfc_dynamics::{DefenseConfig, DefenseStack};
use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_simnet::{ControlChannel, PopulationProfile, WideAreaModel};
use mfc_topology::TopologySpec;
use mfc_webserver::{
    BackgroundTraffic, CatalogSampler, ContentCatalog, RequestClass, RequestOutcome, RequestStatus,
    ServerCluster, ServerConfig, ServerRequest, WorkloadStream,
};
use serde::{Deserialize, Serialize};

use crate::backend::{BaseMeasurement, MfcBackend};
use crate::profile::TargetProfile;
use crate::types::{
    ClientId, ClientObservation, EpochObservation, EpochPlan, ProbeMethod, ProbeStatus,
    RequestSpec, Stage,
};

/// Describes the simulated target a [`SimBackend`] probes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimTargetSpec {
    /// Server (replica) configuration.
    pub server: ServerConfig,
    /// Content hosted by the target.
    pub catalog: ContentCatalog,
    /// Number of load-balanced replicas behind the single IP address the
    /// MFC probes (1 = a single machine, 16 = the QTP data centre).
    pub replicas: usize,
    /// Regular user traffic competing with the MFC: the degenerate
    /// flat-Poisson model, used whenever `workload` is `None`.
    pub background: BackgroundTraffic,
    /// A full workload specification for the background traffic — session
    /// models and diurnal/MMPP/flash-crowd arrival processes.
    /// When set it *replaces* the flat `background` model (which is just
    /// its degenerate single-source case).
    pub workload: Option<mfc_workload::WorkloadSpec>,
    /// Probability that a coordinator→client UDP command is lost.
    pub control_loss: f64,
    /// Wide-area population the MFC clients are drawn from.
    pub population: PopulationProfile,
    /// Reactive defenses the target runs (autoscaling, admission control,
    /// rate limiting, capacity schedules).  Static by default — the
    /// paper's assumption.
    pub defenses: DefenseConfig,
    /// Shared wide-area bottlenecks between the vantage groups and the
    /// target: per-group transit links, an optional backbone, cross
    /// traffic.  Direct (access link only) by default — the pre-topology
    /// model, where every bandwidth bottleneck is at the server.
    pub topology: TopologySpec,
}

impl SimTargetSpec {
    /// A single server with no background traffic, probed from the default
    /// PlanetLab-like population.
    pub fn single_server(server: ServerConfig, catalog: ContentCatalog) -> Self {
        SimTargetSpec {
            server,
            catalog,
            replicas: 1,
            background: BackgroundTraffic::idle(),
            workload: None,
            control_loss: 0.01,
            population: PopulationProfile::planetlab(),
            defenses: DefenseConfig::none(),
            topology: TopologySpec::direct(),
        }
    }

    /// A load-balanced cluster of `replicas` identical servers.
    pub fn cluster(server: ServerConfig, catalog: ContentCatalog, replicas: usize) -> Self {
        SimTargetSpec {
            replicas: replicas.max(1),
            ..SimTargetSpec::single_server(server, catalog)
        }
    }

    /// Sets the background traffic level.
    pub fn with_background(mut self, background: BackgroundTraffic) -> Self {
        self.background = background;
        self
    }

    /// Replaces the flat background model with a full workload spec:
    /// session-structured, nonstationary — whatever the spec describes
    /// streams against the target during every epoch.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation.
    pub fn with_workload(mut self, workload: mfc_workload::WorkloadSpec) -> Self {
        workload.validate().expect("invalid workload spec");
        self.workload = Some(workload);
        self
    }

    /// Sets the UDP control-message loss probability.
    pub fn with_control_loss(mut self, loss: f64) -> Self {
        self.control_loss = loss.clamp(0.0, 1.0);
        self
    }

    /// Sets the client population profile (e.g. [`PopulationProfile::lan`]
    /// for the §3.2 lab experiments).
    pub fn with_population(mut self, population: PopulationProfile) -> Self {
        self.population = population;
        self
    }

    /// Arms the target with reactive defenses.  When an autoscaler is part
    /// of the stack, the serving cluster starts at its replica floor
    /// (overriding `replicas`); the defense state — bucket fill levels and
    /// provisioned replicas — persists across the epochs of an MFC run,
    /// exactly like a real deployment's.
    pub fn with_defenses(mut self, defenses: DefenseConfig) -> Self {
        self.defenses = defenses;
        self
    }

    /// Places shared wide-area bottlenecks between the clients and the
    /// target.  The population's vantage grouping is *derived* from the
    /// topology when the backend is built (one group per transit link,
    /// round-robin), so the WAN model and the topology always agree on who
    /// sits behind which bottleneck regardless of the order the spec's
    /// fields are assigned in.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        topology.validate().expect("invalid topology spec");
        self.topology = topology;
        self
    }
}

/// The simulated execution environment.
pub struct SimBackend {
    spec: SimTargetSpec,
    wan: WideAreaModel,
    control: ControlChannel,
    target: ServerCluster,
    /// The runtime defense stack, kept across epochs; empty (no tick,
    /// accepts everything) for static targets.
    defense: DefenseStack,
    clock: SimTime,
    rng: SimRng,
    next_request_id: u64,
    background_served: u64,
}

impl SimBackend {
    /// Creates a backend probing `spec` from `client_count` simulated
    /// wide-area clients, fully determined by `seed`.
    pub fn new(spec: SimTargetSpec, client_count: usize, seed: u64) -> Self {
        let rng = SimRng::seed_from(seed);
        // The vantage grouping is derived from the topology — a single
        // source of truth, immune to the order the spec's public fields
        // were assigned in.  A population the caller already clustered to
        // match the topology is respected as configured (including its
        // RTT skew); otherwise the grouping is derived with the default
        // geographic skew of [`PopulationProfile::grouped`].
        let population = if spec.topology.is_direct()
            || spec.population.vantage_groups == spec.topology.group_count()
        {
            spec.population.clone()
        } else {
            PopulationProfile {
                group_rtt_spread: 0.3,
                ..spec.population.clone()
            }
            .with_vantage_groups(spec.topology.group_count())
        };
        let wan = WideAreaModel::generate(&population, client_count, &rng);
        let control = ControlChannel::new(spec.control_loss, 0.05, rng.fork("control"));
        let replicas = spec.defenses.initial_replicas(spec.replicas);
        // Shared transit links are instantiated per serving replica, so a
        // fixed-size cluster divides the spec'd capacities to keep the
        // aggregate contention right; a replica count that *changes*
        // mid-run (an autoscaler) would silently dissolve the shared
        // bottleneck and is rejected.
        assert!(
            spec.topology.is_direct() || spec.defenses.autoscaler.is_none(),
            "autoscaling behind a shared-path topology is not modelled: transit links are \
             instantiated per replica, so scaling out would multiply the shared capacity"
        );
        let target = ServerCluster::new(spec.server.clone(), spec.catalog.clone(), replicas)
            .with_topology(spec.topology.share_across(replicas));
        let defense = spec.defenses.build();
        SimBackend {
            spec,
            wan,
            control,
            target,
            defense,
            clock: SimTime::ZERO,
            rng,
            next_request_id: 0,
            background_served: 0,
        }
    }

    /// The current virtual time of the backend.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total control messages lost so far (across all epochs).
    pub fn control_messages_lost(&self) -> u64 {
        self.control.lost()
    }

    /// Total background (non-MFC) requests the target served across every
    /// epoch run so far — the "Other Traffic" column of the paper's
    /// cooperating-site tables.
    pub fn background_requests_served(&self) -> u64 {
        self.background_served
    }

    fn class_for(stage: Stage, method: ProbeMethod) -> RequestClass {
        match (stage, method) {
            (Stage::Base, _) | (_, ProbeMethod::Head) => RequestClass::Head,
            (Stage::SmallQuery, _) => RequestClass::Dynamic,
            (Stage::LargeObject, _) => RequestClass::Static,
        }
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// Maps a server-side outcome status to the client-visible probe status.
    fn probe_status(status: RequestStatus) -> ProbeStatus {
        match status {
            RequestStatus::Ok => ProbeStatus::Ok,
            // A refused connection never gets an HTTP response: the client
            // sees a TCP-level failure, not a status code.
            RequestStatus::Refused => ProbeStatus::ConnectionRefused,
            RequestStatus::NotFound => ProbeStatus::HttpError(404),
            RequestStatus::Shed => ProbeStatus::HttpError(503),
        }
    }
}

/// Merges two time-ordered request streams into one, taking from `first`
/// on a tie.
fn merge_by_arrival(
    first: Vec<ServerRequest>,
    second: impl Iterator<Item = ServerRequest>,
) -> impl Iterator<Item = ServerRequest> {
    let mut first = first.into_iter().peekable();
    let mut second = second.peekable();
    std::iter::from_fn(move || match (first.peek(), second.peek()) {
        (Some(a), Some(b)) if b.arrival < a.arrival => second.next(),
        (Some(_), _) => first.next(),
        (None, _) => second.next(),
    })
}

impl MfcBackend for SimBackend {
    fn registered_clients(&mut self) -> Vec<ClientId> {
        (0..self.wan.clients().len())
            .map(|i| ClientId(i as u32))
            .collect()
    }

    fn ping(&mut self, client: ClientId) -> Option<SimDuration> {
        let index = client.0 as usize;
        if index >= self.wan.clients().len() {
            return None;
        }
        Some(self.wan.measure_coordinator_rtt(index))
    }

    fn measure_base(&mut self, client: ClientId, request: &RequestSpec) -> BaseMeasurement {
        let index = client.0 as usize;
        let profile = self.wan.client(index).clone();
        let rtt_sample = self.wan.measure_target_rtt(index);

        // The client issues the request alone: TCP handshake, then the
        // server model with only this request (plus whatever background
        // traffic happens to overlap, which we approximate as none for the
        // sequential measurement step — the paper performs these
        // measurements one client at a time precisely to avoid interference).
        let send_time = self.clock;
        let arrival = send_time + rtt_sample.mul_f64(1.5);
        let id = self.alloc_id();
        let server_request = ServerRequest {
            id,
            arrival,
            class: Self::class_for(request.stage, request.method),
            object: self.spec.catalog.resolve(&request.path),
            client_downlink: profile.downlink,
            client_rtt: profile.rtt_target,
            client_addr: client.0,
            background: false,
        };
        let result = self.target.run([server_request], &mut self.defense);
        let outcome = &result.outcomes[0];
        let response_time = outcome.completion.saturating_since(send_time);
        // Sequential measurements advance time a little.
        self.clock = self.clock.max(outcome.completion) + SimDuration::from_millis(200);
        BaseMeasurement {
            target_rtt: rtt_sample,
            base_response_time: response_time,
            status: Self::probe_status(outcome.status),
            bytes: outcome.body_bytes,
        }
    }

    fn run_epoch(&mut self, plan: &EpochPlan) -> EpochObservation {
        let origin = self.clock;
        let mut lost_commands = 0u32;
        let mut mfc_requests: Vec<ServerRequest> = Vec::new();
        // (client, client send time) of the probe with id `first_id + i`:
        // the probes' ids are consecutive.
        let first_id = self.next_request_id;
        let mut issued: Vec<(ClientId, SimTime)> = Vec::new();

        let mut last_arrival = origin;
        for command in &plan.commands {
            let index = command.client.0 as usize;
            let profile = self.wan.client(index).clone();
            // Coordinator → client UDP command.
            let delivery = self.control.send(profile.one_way_coordinator());
            let Some(command_delay) = delivery.delay() else {
                lost_commands += 1;
                continue;
            };
            let client_receives = origin + command.send_offset + command_delay;
            // The client fires immediately: handshake then request arrival.
            let handshake = self
                .wan
                .jittered_delay(profile.rtt_target.mul_f64(1.5), profile.jitter_frac);
            let arrival = client_receives + handshake;
            last_arrival = last_arrival.max(arrival);
            let id = self.alloc_id();
            mfc_requests.push(ServerRequest {
                id,
                arrival,
                class: Self::class_for(command.request.stage, command.request.method),
                object: self.spec.catalog.resolve(&command.request.path),
                client_downlink: profile.downlink,
                client_rtt: profile.rtt_target,
                client_addr: command.client.0,
                background: false,
            });
            debug_assert_eq!(id, first_id + issued.len() as u64);
            issued.push((command.client, client_receives));
        }

        // Background traffic competes over the whole epoch window.  A full
        // workload spec (sessions, diurnal/MMPP/flash-crowd arrivals)
        // streams with per-source RNGs forked from `bg_rng`; the
        // flat `background` model streams its one-source spec on `bg_rng`
        // itself, the draws `BackgroundTraffic::generate` makes.  Both are
        // time-ordered, so they merge with the sorted probes (probes first
        // on a tie) straight into the server's sweep.
        let window_end = last_arrival + plan.timeout;
        let bg_rng = self.rng.fork_indexed("background", origin.as_micros());
        let id_base = 1_000_000_000 + self.next_request_id;
        let sampler = CatalogSampler::background(&self.spec.catalog);
        let flat;
        let background = match &self.spec.workload {
            Some(workload) if !workload.is_empty() => {
                WorkloadStream::new(workload, origin, window_end, id_base, &bg_rng, sampler)
            }
            _ => {
                flat = self.spec.background.workload_spec();
                WorkloadStream::with_source_rngs(
                    &flat,
                    origin,
                    window_end,
                    id_base,
                    vec![bg_rng],
                    sampler,
                )
            }
        };
        mfc_requests.sort_by_key(|r| r.arrival);
        let result = self.target.run(
            merge_by_arrival(mfc_requests, background),
            &mut self.defense,
        );
        let background_requests = result.outcomes.iter().filter(|o| o.background).count() as u64;
        self.background_served += background_requests;

        // Index the probes' outcomes by `id - first_id`.
        let mut probe_outcomes: Vec<Option<&RequestOutcome>> = vec![None; issued.len()];
        for outcome in result.outcomes.iter().filter(|o| !o.background) {
            if let Some(slot) = outcome
                .id
                .checked_sub(first_id)
                .and_then(|i| probe_outcomes.get_mut(i as usize))
            {
                *slot = Some(outcome);
            }
        }

        let mut observations = Vec::with_capacity(issued.len());
        for ((client, send_time), outcome) in issued.iter().zip(probe_outcomes) {
            let Some(outcome) = outcome else {
                continue;
            };
            let raw_response = outcome.completion.saturating_since(*send_time);
            let (status, response_time) = if raw_response > plan.timeout {
                // The client kills the request at the timeout and records
                // exactly the timeout as its response time (Figure 2(b)).
                (ProbeStatus::TimedOut, plan.timeout)
            } else {
                (Self::probe_status(outcome.status), raw_response)
            };
            observations.push(ClientObservation {
                client: *client,
                group: self.wan.client(client.0 as usize).group as u32,
                status,
                bytes: outcome.body_bytes,
                response_time,
            });
        }

        // The outcomes are in arrival order: the probes' arrival times, as
        // the target's access log records them.
        let target_arrivals: Vec<SimTime> = result
            .outcomes
            .iter()
            .filter(|o| !o.background)
            .map(|o| o.arrival)
            .collect();

        // Advance the clock past the epoch.
        self.clock = window_end.max(origin + plan.timeout);

        EpochObservation {
            observations,
            target_arrivals,
            lost_commands,
            background_requests,
            server_utilization: Some(result.utilization),
        }
    }

    fn profile_target(&mut self) -> TargetProfile {
        TargetProfile::from_catalog(&self.spec.catalog)
    }

    fn wait(&mut self, gap: SimDuration) {
        self.clock += gap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RequestCommand;

    fn backend() -> SimBackend {
        SimBackend::new(
            SimTargetSpec::single_server(
                ServerConfig::lab_apache(),
                ContentCatalog::lab_validation(),
            ),
            60,
            11,
        )
    }

    fn base_spec() -> RequestSpec {
        RequestSpec {
            method: ProbeMethod::Head,
            path: "/index.html".to_string(),
            stage: Stage::Base,
            expected_bytes: 0,
        }
    }

    fn large_spec() -> RequestSpec {
        RequestSpec {
            method: ProbeMethod::Get,
            path: "/objects/large_100k.bin".to_string(),
            stage: Stage::LargeObject,
            expected_bytes: 100 * 1024,
        }
    }

    fn plan(spec: RequestSpec, clients: &[u32], lead_ms: u64) -> EpochPlan {
        EpochPlan {
            stage: spec.stage,
            index: 1,
            commands: clients
                .iter()
                .map(|&c| RequestCommand {
                    client: ClientId(c),
                    request: spec.clone(),
                    send_offset: SimDuration::ZERO,
                    intended_arrival: SimDuration::from_millis(lead_ms),
                })
                .collect(),
            timeout: SimDuration::from_secs(10),
        }
    }

    /// Base response times of clients `0..count` for `spec`, by client.
    fn measure_bases(backend: &mut SimBackend, spec: &RequestSpec, count: u32) -> Vec<SimDuration> {
        (0..count)
            .map(|c| backend.measure_base(ClientId(c), spec).base_response_time)
            .collect()
    }

    /// Median of an epoch's samples, each less its client's base time and
    /// floored at zero, in milliseconds.
    fn normalized_median(obs: &EpochObservation, bases: &[SimDuration]) -> f64 {
        let normalized: Vec<f64> = obs
            .observations
            .iter()
            .filter(|o| o.status.produced_sample())
            .map(|o| {
                o.response_time
                    .saturating_sub(bases[o.client.0 as usize])
                    .as_millis_f64()
            })
            .collect();
        mfc_simcore::stats::median(&normalized).unwrap_or(0.0)
    }

    #[test]
    fn registration_returns_all_clients() {
        let mut backend = backend();
        assert_eq!(backend.registered_clients().len(), 60);
        assert!(backend.ping(ClientId(5)).is_some());
        assert!(backend.ping(ClientId(1000)).is_none());
    }

    #[test]
    fn base_measurement_is_recorded_and_plausible() {
        let mut backend = backend();
        let m = backend.measure_base(ClientId(0), &base_spec());
        assert_eq!(m.status, ProbeStatus::Ok);
        assert!(m.base_response_time > SimDuration::ZERO);
        assert!(m.base_response_time < SimDuration::from_secs(2));
        assert!(m.target_rtt > SimDuration::ZERO);
    }

    #[test]
    fn epoch_produces_observations_for_most_clients() {
        let mut backend = backend();
        let spec = base_spec();
        for c in 0..20u32 {
            backend.measure_base(ClientId(c), &spec);
        }
        let clients: Vec<u32> = (0..20).collect();
        let obs = backend.run_epoch(&plan(spec, &clients, 15_000));
        assert!(obs.observations.len() + obs.lost_commands as usize == 20);
        assert!(
            obs.observations.len() >= 15,
            "only a few commands may be lost"
        );
        assert_eq!(obs.target_arrivals.len(), obs.observations.len());
        for o in &obs.observations {
            assert!(o.status.produced_sample());
            assert!(o.response_time > SimDuration::ZERO);
        }
    }

    #[test]
    fn large_object_epoch_shows_contention_on_thin_link() {
        let mut backend = backend();
        let spec = large_spec();
        let bases = measure_bases(&mut backend, &spec, 50);
        let few = backend.run_epoch(&plan(spec.clone(), &(0..5u32).collect::<Vec<_>>(), 15_000));
        let many = backend.run_epoch(&plan(spec, &(0..50u32).collect::<Vec<_>>(), 15_000));
        let median = |obs: &EpochObservation| normalized_median(obs, &bases);
        assert!(
            median(&many) > median(&few) + 50.0,
            "50 concurrent 100KB transfers over 10 Mbit/s must visibly contend: {} vs {}",
            median(&few),
            median(&many)
        );
    }

    #[test]
    fn background_traffic_is_generated_when_configured() {
        let spec = SimTargetSpec::single_server(
            ServerConfig::lab_apache(),
            ContentCatalog::typical_site(1),
        )
        .with_background(BackgroundTraffic::at_rate(20.0));
        let mut backend = SimBackend::new(spec, 60, 3);
        let probe = RequestSpec {
            method: ProbeMethod::Head,
            path: "/index.html".to_string(),
            stage: Stage::Base,
            expected_bytes: 0,
        };
        backend.measure_base(ClientId(0), &probe);
        let obs = backend.run_epoch(&plan(probe, &[0, 1, 2], 15_000));
        assert!(obs.background_requests > 0);
    }

    #[test]
    fn target_arrivals_are_the_probes_in_arrival_order() {
        let spec = SimTargetSpec::single_server(
            ServerConfig::lab_apache(),
            ContentCatalog::lab_validation(),
        )
        .with_background(BackgroundTraffic::at_rate(200.0));
        let mut backend = SimBackend::new(spec, 60, 4);
        for c in 0..30u32 {
            backend.measure_base(ClientId(c), &base_spec());
        }
        let obs = backend.run_epoch(&plan(base_spec(), &(0..30u32).collect::<Vec<_>>(), 15_000));
        assert!(
            obs.background_requests > obs.observations.len() as u64,
            "background arrivals must outnumber the probes: {}",
            obs.background_requests
        );
        assert_eq!(obs.target_arrivals.len(), obs.observations.len());
        assert!(
            obs.target_arrivals.windows(2).all(|w| w[0] <= w[1]),
            "{:?}",
            obs.target_arrivals
        );
    }

    #[test]
    fn workload_spec_replaces_the_flat_background() {
        // A session-structured workload streams against the target during
        // the epoch instead of the flat Poisson process.
        let workload = mfc_workload::WorkloadSpec::sessions(
            mfc_workload::ArrivalProcess::Poisson { rate_per_sec: 2.0 },
            mfc_workload::SessionModel::browsing(),
            mfc_workload::ClientSpec::default(),
        );
        let spec = SimTargetSpec::single_server(
            ServerConfig::lab_apache(),
            ContentCatalog::typical_site(1),
        )
        .with_workload(workload);
        let mut backend = SimBackend::new(spec, 60, 3);
        let probe = RequestSpec {
            method: ProbeMethod::Head,
            path: "/index.html".to_string(),
            stage: Stage::Base,
            expected_bytes: 0,
        };
        backend.measure_base(ClientId(0), &probe);
        let obs = backend.run_epoch(&plan(probe, &[0, 1, 2], 15_000));
        assert!(obs.background_requests > 0);
        assert!(backend.background_requests_served() > 0);
    }

    #[test]
    fn workload_backed_epochs_are_deterministic() {
        let run = || {
            let workload = mfc_workload::WorkloadSpec::sessions(
                mfc_workload::ArrivalProcess::diurnal(1.0, 0.8, 120.0, 8),
                mfc_workload::SessionModel::browsing(),
                mfc_workload::ClientSpec::default(),
            );
            let spec = SimTargetSpec::single_server(
                ServerConfig::lab_apache(),
                ContentCatalog::lab_validation(),
            )
            .with_workload(workload);
            let mut backend = SimBackend::new(spec, 60, 8);
            let spec = base_spec();
            for c in 0..10u32 {
                backend.measure_base(ClientId(c), &spec);
            }
            backend.run_epoch(&plan(spec, &(0..10u32).collect::<Vec<_>>(), 15_000))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn control_loss_drops_commands() {
        let spec = SimTargetSpec::single_server(
            ServerConfig::lab_apache(),
            ContentCatalog::lab_validation(),
        )
        .with_control_loss(1.0);
        let mut backend = SimBackend::new(spec, 60, 3);
        let obs = backend.run_epoch(&plan(base_spec(), &(0..10u32).collect::<Vec<_>>(), 15_000));
        assert_eq!(obs.lost_commands, 10);
        assert!(obs.observations.is_empty());
    }

    #[test]
    fn same_seed_is_deterministic() {
        let run = |seed| {
            let mut backend = SimBackend::new(
                SimTargetSpec::single_server(
                    ServerConfig::lab_apache(),
                    ContentCatalog::lab_validation(),
                ),
                60,
                seed,
            );
            let spec = base_spec();
            for c in 0..10u32 {
                backend.measure_base(ClientId(c), &spec);
            }
            backend.run_epoch(&plan(spec, &(0..10u32).collect::<Vec<_>>(), 15_000))
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn wait_advances_the_clock() {
        let mut backend = backend();
        let before = backend.now();
        backend.wait(SimDuration::from_secs(10));
        assert_eq!(backend.now(), before + SimDuration::from_secs(10));
    }

    #[test]
    fn cluster_target_spreads_load() {
        let single_spec = SimTargetSpec::single_server(
            ServerConfig::lab_apache(),
            ContentCatalog::lab_validation(),
        );
        let cluster_spec = SimTargetSpec::cluster(
            ServerConfig::lab_apache(),
            ContentCatalog::lab_validation(),
            16,
        );
        let probe = large_spec();
        let run = |spec: SimTargetSpec| {
            let mut backend = SimBackend::new(spec, 60, 5);
            let bases = measure_bases(&mut backend, &probe, 40);
            let obs = backend.run_epoch(&plan(
                probe.clone(),
                &(0..40u32).collect::<Vec<_>>(),
                15_000,
            ));
            normalized_median(&obs, &bases)
        };
        let single = run(single_spec);
        let cluster = run(cluster_spec);
        assert!(
            cluster < single,
            "a 16-replica cluster must absorb the crowd better ({cluster} vs {single})"
        );
    }
}
