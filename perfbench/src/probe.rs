//! The benchmark's measuring decorator around [`SimBackend`].
//!
//! [`Probe`] forwards every [`MfcBackend`] call to the simulator and times
//! it from outside; the program under test carries no instrumentation of
//! its own.  Counts come from what the calls already return: the server's
//! [`UtilizationReport`](mfc_webserver::UtilizationReport) and the epoch's
//! background and lost-command counts.
//!
//! A traced probe also *replays* each epoch's background window: it rebuilds
//! the generator the backend used (same spec, same forked RNG, same window)
//! and times it alone.  That splits `run_epoch` into workload generation and
//! server engine without touching the program, and the replayed count must
//! equal `EpochObservation::background_requests` or the run is wrong.

use std::hint::black_box;
use std::time::Instant;

use mfc_core::backend::sim::{SimBackend, SimTargetSpec};
use mfc_core::backend::{BaseMeasurement, MfcBackend};
use mfc_core::profile::TargetProfile;
use mfc_core::types::{ClientId, EpochObservation, EpochPlan, RequestSpec};
use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_webserver::{CatalogSampler, ServerRequest, WorkloadStream};

/// What one probe saw over one MFC profile.  Times are host nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct ProbeStats {
    /// Host time inside every backend call, replay included.
    pub backend_ns: u64,
    /// Host time inside the simulator's `run_epoch`.
    pub run_epoch_ns: u64,
    /// Host time of each `run_epoch` call, in call order.
    pub epoch_ns: Vec<u64>,
    /// Host time inside `measure_base`.
    pub measure_base_ns: u64,
    /// `measure_base` calls; each is one simulated server request.
    pub measure_base_calls: u64,
    /// Server-side request counts summed over every epoch.
    pub completed: u64,
    /// Requests refused on a full listen queue.
    pub refused: u64,
    /// Requests shed (503) by an admission-control defense.
    pub shed: u64,
    /// Requests whose transfer a rate limiter clamped.
    pub throttled: u64,
    /// Bytes the target sent on its access link.
    pub bytes_sent: u64,
    /// Background requests the backend reported serving.
    pub background_requests: u64,
    /// Coordinator→client commands the control channel lost.
    pub commands_lost: u64,
    /// Traced only: host time regenerating the background windows.
    pub gen_ns: u64,
    /// Traced only: sessions the replayed workload streams started.
    pub sessions_started: u64,
    /// Traced only: the largest concurrent-session count of any window.
    pub peak_active_sessions: u64,
    /// Traced only: windows whose replayed count differed from the
    /// backend's.
    pub replay_mismatches: u64,
}

impl ProbeStats {
    /// Server requests the simulator resolved in epochs.
    pub fn epoch_requests(&self) -> u64 {
        self.completed + self.refused + self.shed
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &ProbeStats) {
        self.backend_ns += other.backend_ns;
        self.run_epoch_ns += other.run_epoch_ns;
        self.epoch_ns.extend_from_slice(&other.epoch_ns);
        self.measure_base_ns += other.measure_base_ns;
        self.measure_base_calls += other.measure_base_calls;
        self.completed += other.completed;
        self.refused += other.refused;
        self.shed += other.shed;
        self.throttled += other.throttled;
        self.bytes_sent += other.bytes_sent;
        self.background_requests += other.background_requests;
        self.commands_lost += other.commands_lost;
        self.gen_ns += other.gen_ns;
        self.sessions_started += other.sessions_started;
        self.peak_active_sessions = self.peak_active_sessions.max(other.peak_active_sessions);
        self.replay_mismatches += other.replay_mismatches;
    }
}

/// The spec and seed a traced probe regenerates background windows from.
struct Replay {
    spec: SimTargetSpec,
    seed: u64,
}

/// Times and counts the calls an MFC run makes into a [`SimBackend`].
pub struct Probe {
    inner: SimBackend,
    replay: Option<Replay>,
    stats: ProbeStats,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Probe {
    /// An untraced probe.
    pub fn new(inner: SimBackend) -> Probe {
        Probe {
            inner,
            replay: None,
            stats: ProbeStats::default(),
        }
    }

    /// A probe that also replays every background window; `spec` and
    /// `seed` must be the ones `inner` was built from.
    pub fn traced(inner: SimBackend, spec: SimTargetSpec, seed: u64) -> Probe {
        Probe {
            replay: Some(Replay { spec, seed }),
            ..Probe::new(inner)
        }
    }

    /// The counts and times gathered so far.
    pub fn into_stats(self) -> ProbeStats {
        self.stats
    }

    /// Regenerates the background of the window `[start, end)` exactly as
    /// `SimBackend::run_epoch` did and checks its size against `expected`.
    fn replay_window(&mut self, start: SimTime, end: SimTime, expected: u64) {
        let Some(Replay { spec, seed }) = &self.replay else {
            return;
        };
        let began = Instant::now();
        let mut rng = SimRng::seed_from(*seed).fork_indexed("background", start.as_micros());
        let (count, sessions, peak) = match &spec.workload {
            Some(workload) if !workload.is_empty() => {
                let mut stream = WorkloadStream::new(
                    workload,
                    start,
                    end,
                    0,
                    &rng,
                    CatalogSampler::background(&spec.catalog),
                );
                let requests: Vec<ServerRequest> = stream.by_ref().collect();
                let count = black_box(requests).len() as u64;
                (
                    count,
                    stream.sessions_started(),
                    stream.peak_active_sessions() as u64,
                )
            }
            _ => {
                let requests = spec
                    .background
                    .generate(&spec.catalog, start, end, 0, &mut rng);
                (black_box(requests).len() as u64, 0, 0)
            }
        };
        self.stats.gen_ns += elapsed_ns(began);
        self.stats.sessions_started += sessions;
        self.stats.peak_active_sessions = self.stats.peak_active_sessions.max(peak);
        if count != expected {
            self.stats.replay_mismatches += 1;
        }
    }
}

impl MfcBackend for Probe {
    fn registered_clients(&mut self) -> Vec<ClientId> {
        let start = Instant::now();
        let clients = self.inner.registered_clients();
        self.stats.backend_ns += elapsed_ns(start);
        clients
    }

    fn ping(&mut self, client: ClientId) -> Option<SimDuration> {
        let start = Instant::now();
        let rtt = self.inner.ping(client);
        self.stats.backend_ns += elapsed_ns(start);
        rtt
    }

    fn measure_base(&mut self, client: ClientId, request: &RequestSpec) -> BaseMeasurement {
        let start = Instant::now();
        let measurement = self.inner.measure_base(client, request);
        let ns = elapsed_ns(start);
        self.stats.measure_base_ns += ns;
        self.stats.measure_base_calls += 1;
        self.stats.backend_ns += ns;
        measurement
    }

    fn run_epoch(&mut self, plan: &EpochPlan) -> EpochObservation {
        let start = Instant::now();
        let window_start = self.inner.now();
        let observation = self.inner.run_epoch(plan);
        let ns = elapsed_ns(start);
        self.stats.run_epoch_ns += ns;
        self.stats.epoch_ns.push(ns);
        if let Some(utilization) = &observation.server_utilization {
            self.stats.completed += utilization.completed_requests;
            self.stats.refused += utilization.refused_requests;
            self.stats.shed += utilization.shed_requests;
            self.stats.throttled += utilization.throttled_requests;
            self.stats.bytes_sent += utilization.network_bytes_sent;
        }
        self.stats.background_requests += observation.background_requests;
        self.stats.commands_lost += u64::from(observation.lost_commands);
        // The backend's clock ends the epoch at the end of its background
        // window, so [before, after] is exactly the generated window.
        let window_end = self.inner.now();
        self.replay_window(window_start, window_end, observation.background_requests);
        self.stats.backend_ns += elapsed_ns(start);
        observation
    }

    fn profile_target(&mut self) -> TargetProfile {
        let start = Instant::now();
        let profile = self.inner.profile_target();
        self.stats.backend_ns += elapsed_ns(start);
        profile
    }

    fn wait(&mut self, gap: SimDuration) {
        let start = Instant::now();
        self.inner.wait(gap);
        self.stats.backend_ns += elapsed_ns(start);
    }
}
