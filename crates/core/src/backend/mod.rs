//! Backends: how the coordinator, clients and target actually communicate.
//!
//! The MFC algorithm (registration, profiling, latency measurement, epoch
//! scheduling, check phases, inference) is identical whether the "world" is
//! the discrete-event simulation built from `mfc-simnet` + `mfc-webserver`
//! or a set of real HTTP clients hammering a real server.  [`MfcBackend`]
//! is the seam between the two:
//!
//! * [`sim::SimBackend`] — the default: deterministic, fast, and the only
//!   way to reproduce the paper's §4–§5 experiments without the authors'
//!   access to production sites;
//! * [`live::LiveBackend`] — drives real `mfc-http` clients from threads
//!   against any HTTP URL (typically an `mfc-httpd` instance on localhost),
//!   demonstrating that the same coordinator logic works over real sockets.

pub mod live;
pub mod sim;

use mfc_simcore::SimDuration;
use serde::{Deserialize, Serialize};

use crate::profile::TargetProfile;
use crate::types::{ClientId, EpochObservation, EpochPlan, ProbeStatus, RequestSpec};

/// What a client reports after its pre-epoch sequential measurement of an
/// object: its RTT to the target and the unloaded ("base") response time
/// for that object (paper §2.2.3 and Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaseMeasurement {
    /// Round-trip time between the client and the target.
    pub target_rtt: SimDuration,
    /// Response time for the object with no MFC load present.
    pub base_response_time: SimDuration,
    /// Status of the measurement request.
    pub status: ProbeStatus,
    /// Bytes received.
    pub bytes: u64,
}

/// The execution environment an MFC experiment runs in.
pub trait MfcBackend {
    /// Clients that answered the registration probe quickly enough to
    /// participate (the paper requires a 1-second response to a probe
    /// message).
    fn registered_clients(&mut self) -> Vec<ClientId>;

    /// Measures the coordinator↔client round-trip time used by the
    /// synchronization scheduler.  `None` means the client stopped
    /// responding and must be dropped.
    fn ping(&mut self, client: ClientId) -> Option<SimDuration>;

    /// Has `client` measure its RTT to the target and the base response
    /// time for `request`, sequentially and without any MFC load.  The
    /// backend only reports the measurement: the coordinator keeps it and
    /// normalizes the client's epoch samples with it.
    fn measure_base(&mut self, client: ClientId, request: &RequestSpec) -> BaseMeasurement;

    /// Executes one epoch: delivers the commands, lets the clients fire
    /// their requests, and collects their reports, with raw response
    /// times.
    fn run_epoch(&mut self, plan: &EpochPlan) -> EpochObservation;

    /// Profiles the target's content (the crawl step of §2.2.1).
    fn profile_target(&mut self) -> TargetProfile;

    /// Lets the backend account for idle time between epochs (the ~10 s
    /// gap); simulation backends advance their virtual clock, live backends
    /// may simply sleep or ignore it.
    fn wait(&mut self, gap: SimDuration) {
        let _ = gap;
    }
}
