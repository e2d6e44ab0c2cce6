//! The seam between a running server and a control loop.
//!
//! The paper profiles *static* targets: the server's capacity, replica
//! count and admission behaviour are fixed for the duration of an MFC run.
//! Real deployments react — clouds scale out under flash crowds, overloaded
//! front ends shed load, rate limiters clamp abusive clients.  This module
//! defines the seam those reactions act through: a [`ServerControl`]
//! observes fresh [`TickSample`] telemetry on a fixed virtual-time tick and
//! answers with the replica count to route over, and with per-arrival
//! [`AdmissionVerdict`]s (shed / throttle decisions).  Capacity itself is
//! fixed for a run: the server's link and CPU are never changed mid-run.
//!
//! The concrete defense policies (autoscaler, admission controller, token
//! bucket) live in the `mfc-dynamics` crate; this crate only knows how to
//! *host* a control loop inside [`crate::ServerCluster::run`], which runs
//! every server — static targets under a control that never ticks and
//! accepts everything.

use mfc_simcore::{SimDuration, SimTime};
use mfc_simnet::Bandwidth;

use crate::request::ServerRequest;

/// One per-tick snapshot of the running server, aggregated over all active
/// replicas — what a control loop's metrics pipeline would scrape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickSample {
    /// Virtual time of the tick.
    pub now: SimTime,
    /// Replicas currently routable (1 for a single server).
    pub active_replicas: usize,
    /// Requests admitted but not yet completed, summed over replicas.
    pub in_flight: u64,
    /// Busy worker slots, summed over replicas.
    pub busy_workers: u64,
    /// Connections waiting in listen queues, summed over replicas.
    pub queued: u64,
    /// Instantaneous CPU utilization in 0–1, averaged over replicas.
    pub cpu_utilization: f64,
    /// Instantaneous access-link utilization in 0–1, averaged over
    /// replicas.
    pub link_utilization: f64,
    /// Resident memory in bytes, summed over replicas.
    pub memory_used: u64,
    /// Requests completed successfully so far (cumulative).
    pub completed: u64,
    /// Requests refused by listen-queue overflow so far (cumulative).
    pub refused: u64,
    /// Requests shed by the control loop itself so far (cumulative).
    pub shed: u64,
    /// Requests that have arrived at the front door so far (cumulative,
    /// including shed ones).
    pub arrivals: u64,
}

impl TickSample {
    /// A zero sample (server idle, nothing observed yet).
    pub fn idle(now: SimTime, active_replicas: usize) -> TickSample {
        TickSample {
            now,
            active_replicas,
            in_flight: 0,
            busy_workers: 0,
            queued: 0,
            cpu_utilization: 0.0,
            link_utilization: 0.0,
            memory_used: 0,
            completed: 0,
            refused: 0,
            shed: 0,
            arrivals: 0,
        }
    }

    /// Mean in-flight requests per active replica.
    pub fn in_flight_per_replica(&self) -> f64 {
        self.in_flight as f64 / self.active_replicas.max(1) as f64
    }
}

/// What the control loop decides about one arriving request, before the
/// request consumes any server resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionVerdict {
    /// Serve normally.
    Accept,
    /// Reject with a 503 before worker admission (load shedding).
    Shed,
    /// Serve, but clamp the response transfer to at most this many
    /// bytes/second (per-client rate limiting).
    Throttle(Bandwidth),
}

/// A control loop hosted by a tick-driven server run.
///
/// The host calls [`ServerControl::on_arrival`] for every request in
/// arrival order and [`ServerControl::on_tick`] every
/// [`ServerControl::tick_interval`] of virtual time, interleaved
/// deterministically with the arrivals.  All state lives in the
/// implementation, so a control loop carried across epoch runs (token
/// bucket fill levels, autoscaler cooldowns) keeps its memory between
/// batches.
pub trait ServerControl {
    /// Spacing of telemetry ticks; `None` disables ticks entirely (the
    /// control loop then only sees arrivals).
    fn tick_interval(&self) -> Option<SimDuration>;

    /// Decides the fate of one arriving request.
    fn on_arrival(&mut self, now: SimTime, request: &ServerRequest) -> AdmissionVerdict;

    /// Observes one telemetry tick and returns the number of replicas to
    /// route over from now on, or `None` to leave it unchanged.  The count
    /// is clamped to at least 1.  New replicas start cold (empty caches)
    /// and only receive requests arriving after the tick.
    fn on_tick(&mut self, now: SimTime, sample: &TickSample) -> Option<usize>;
}

/// The do-nothing control loop for tests: accepts everything, never ticks,
/// so a run under it is a static server.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullControl;

impl ServerControl for NullControl {
    fn tick_interval(&self) -> Option<SimDuration> {
        None
    }

    fn on_arrival(&mut self, _now: SimTime, _request: &ServerRequest) -> AdmissionVerdict {
        AdmissionVerdict::Accept
    }

    fn on_tick(&mut self, _now: SimTime, _sample: &TickSample) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_sample_is_zeroed() {
        let s = TickSample::idle(SimTime::ZERO, 4);
        assert_eq!(s.active_replicas, 4);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.in_flight_per_replica(), 0.0);
    }

    #[test]
    fn per_replica_load_divides_by_active_count() {
        let s = TickSample {
            in_flight: 12,
            ..TickSample::idle(SimTime::ZERO, 3)
        };
        assert!((s.in_flight_per_replica() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn null_control_accepts_and_never_ticks() {
        let mut ctrl = NullControl;
        assert_eq!(ctrl.tick_interval(), None);
        let req = ServerRequest {
            id: 1,
            arrival: SimTime::ZERO,
            class: crate::request::RequestClass::Head,
            object: Some(crate::ObjectId::BASE_PAGE),
            client_downlink: 1e6,
            client_rtt: mfc_simcore::SimDuration::from_millis(10),
            client_addr: 1,
            background: false,
        };
        assert_eq!(
            ctrl.on_arrival(SimTime::ZERO, &req),
            AdmissionVerdict::Accept
        );
    }
}
