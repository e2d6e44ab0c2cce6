//! An [`MfcBackend`] over the synthetic response-time server.
//!
//! The §3.1 validation asks: when the server's response time is an *exact,
//! known* function of the number of simultaneous requests, does the median
//! normalized response time measured by the distributed MFC clients track
//! that function?  This backend wires the full MFC machinery (wide area
//! latencies, scheduling, the coordinator's base-time normalization) to
//! [`SyntheticServer`] so the question can be answered end to end
//! (Figure 4).

use mfc_core::backend::{BaseMeasurement, MfcBackend};
use mfc_core::profile::{ObjectInfo, TargetProfile};
use mfc_core::types::{
    ClientId, ClientObservation, EpochObservation, EpochPlan, ProbeStatus, RequestSpec,
};
use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_simnet::{PopulationProfile, WideAreaModel};
use mfc_webserver::{RequestClass, ServerRequest, SyntheticServer};

/// The synthetic validation backend.
pub struct SyntheticBackend {
    server: SyntheticServer,
    wan: WideAreaModel,
    clock: SimTime,
    next_id: u64,
}

impl SyntheticBackend {
    /// Creates a backend with `client_count` wide-area clients probing the
    /// given synthetic server.
    pub fn new(server: SyntheticServer, client_count: usize, seed: u64) -> Self {
        let rng = SimRng::seed_from(seed);
        SyntheticBackend {
            server,
            wan: WideAreaModel::generate(&PopulationProfile::planetlab(), client_count, &rng),
            clock: SimTime::ZERO,
            next_id: 0,
        }
    }

    fn request(&mut self, client: usize, path: &str, arrival: SimTime) -> ServerRequest {
        let profile = self.wan.client(client);
        let id = self.next_id;
        self.next_id += 1;
        ServerRequest {
            id,
            arrival,
            class: RequestClass::Head,
            path: path.to_string(),
            client_downlink: profile.downlink,
            client_rtt: profile.rtt_target,
            client_addr: client as u32,
            background: false,
        }
    }
}

impl MfcBackend for SyntheticBackend {
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
        let rtt = self.wan.measure_target_rtt(index);
        let send = self.clock;
        let arrival = send + rtt.mul_f64(1.5);
        let server_request = self.request(index, &request.path, arrival);
        let outcome = self.server.run(vec![server_request]);
        let response_time = outcome[0].completion.saturating_since(send);
        self.clock += SimDuration::from_millis(100);
        BaseMeasurement {
            target_rtt: rtt,
            base_response_time: response_time,
            status: ProbeStatus::Ok,
            bytes: 0,
        }
    }

    fn run_epoch(&mut self, plan: &EpochPlan) -> EpochObservation {
        let origin = self.clock;
        let mut requests = Vec::new();
        let mut sends = Vec::new();
        for command in &plan.commands {
            let index = command.client.0 as usize;
            let profile = self.wan.client(index).clone();
            let command_delay = self
                .wan
                .jittered_delay(profile.one_way_coordinator(), profile.jitter_frac);
            let client_receives = origin + command.send_offset + command_delay;
            let handshake = self
                .wan
                .jittered_delay(profile.rtt_target.mul_f64(1.5), profile.jitter_frac);
            let arrival = client_receives + handshake;
            requests.push(self.request(index, &command.request.path, arrival));
            sends.push((command.client, client_receives));
        }
        let outcomes = self.server.run(requests);
        let mut observations = Vec::new();
        let mut target_arrivals = Vec::new();
        for (outcome, (client, send)) in outcomes.iter().zip(&sends) {
            target_arrivals.push(outcome.arrival);
            let response = outcome.completion.saturating_since(*send);
            let (status, response_time) = if response > plan.timeout {
                (ProbeStatus::TimedOut, plan.timeout)
            } else {
                (ProbeStatus::Ok, response)
            };
            observations.push(ClientObservation {
                client: *client,
                group: 0,
                status,
                bytes: 0,
                response_time,
            });
        }
        self.clock = origin + plan.timeout;
        EpochObservation {
            observations,
            target_arrivals,
            lost_commands: 0,
            background_requests: 0,
            server_utilization: None,
        }
    }

    fn profile_target(&mut self) -> TargetProfile {
        TargetProfile::from_objects("/index.html", Vec::<ObjectInfo>::new())
    }

    fn wait(&mut self, gap: SimDuration) {
        self.clock += gap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_core::config::MfcConfig;
    use mfc_core::coordinator::Coordinator;
    use mfc_core::types::Stage;
    use mfc_webserver::ResponseModel;

    #[test]
    fn median_tracks_a_linear_model() {
        let server = SyntheticServer::new(
            SimDuration::from_millis(20),
            ResponseModel::Linear { slope_ms: 5.0 },
        );
        let mut backend = SyntheticBackend::new(server, 70, 3);
        let coordinator = Coordinator::new(MfcConfig::standard().with_min_clients(10));
        let (summary, _) = coordinator
            .probe_crowd(&mut backend, Stage::Base, 40)
            .unwrap();
        // Ideal added delay at 40 simultaneous requests is 200 ms; the
        // measured median must land in that neighbourhood despite RTT
        // jitter and imperfect synchronization.
        assert!(
            (summary.median_ms - 200.0).abs() < 60.0,
            "median {} should track the ideal 200 ms",
            summary.median_ms
        );
    }

    #[test]
    fn flat_model_measures_near_zero() {
        let server = SyntheticServer::new(SimDuration::from_millis(20), ResponseModel::Flat);
        let mut backend = SyntheticBackend::new(server, 60, 4);
        let coordinator = Coordinator::new(MfcConfig::standard().with_min_clients(10));
        let (summary, _) = coordinator
            .probe_crowd(&mut backend, Stage::Base, 30)
            .unwrap();
        assert!(summary.median_ms < 30.0, "median {}", summary.median_ms);
    }
}
