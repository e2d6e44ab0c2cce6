//! Synthetic response-time models for the §3.1 validation experiments.
//!
//! Before exercising real resources, the paper validates that the MFC
//! machinery can *track* a server's response-time curve at all: the authors
//! instrument a lightweight HTTP server with "synthetic response time
//! models" in which the average increase in response time per request is an
//! explicit function of the number of simultaneous requests, and check that
//! the median normalized response time measured by the clients follows the
//! model (Figure 4 shows the linear and exponential cases).
//!
//! [`SyntheticServer`] is that instrumented server: it applies no resource
//! model at all, just `response = base + f(pending_requests)`.

use mfc_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::request::{RequestOutcome, RequestStatus, ServerRequest};

/// The shape of the synthetic response-time function `f(n)`, where `n` is
/// the number of simultaneous requests being served.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ResponseModel {
    /// `f(n) = slope × n` milliseconds.
    Linear {
        /// Added milliseconds per concurrent request.
        slope_ms: f64,
    },
    /// `f(n) = scale × (growth^n − 1)` milliseconds.
    Exponential {
        /// Multiplier applied to the exponential term.
        scale_ms: f64,
        /// Per-request growth factor (> 1).
        growth: f64,
    },
    /// `f(n) = 0`: an ideally provisioned (unconstrained) server.
    Flat,
}

impl ResponseModel {
    /// Evaluates the model for `n` simultaneous requests, returning the
    /// added response time.
    pub fn added_delay(&self, n: usize) -> SimDuration {
        let ms = match *self {
            ResponseModel::Linear { slope_ms } => slope_ms * n as f64,
            ResponseModel::Exponential { scale_ms, growth } => {
                scale_ms * (growth.powi(n as i32) - 1.0)
            }
            ResponseModel::Flat => 0.0,
        };
        SimDuration::from_millis_f64(ms.max(0.0))
    }
}

/// A validation server that answers requests according to a
/// [`ResponseModel`] instead of a resource pipeline.
///
/// # Examples
///
/// ```
/// use mfc_simcore::{SimDuration, SimTime};
/// use mfc_webserver::{ObjectId, RequestClass, ResponseModel, ServerRequest, SyntheticServer};
///
/// let server = SyntheticServer::new(SimDuration::from_millis(20),
///                                   ResponseModel::Linear { slope_ms: 5.0 });
/// let reqs: Vec<ServerRequest> = (0..10).map(|i| ServerRequest {
///     id: i,
///     arrival: SimTime::ZERO,
///     class: RequestClass::Head,
///     object: Some(ObjectId::BASE_PAGE),
///     client_downlink: 1e7,
///     client_rtt: SimDuration::from_millis(10),
///     client_addr: i as u32,
///     background: false,
/// }).collect();
/// let outcomes = server.run(reqs);
/// // Ten simultaneous requests: every response is delayed by 10 * 5 ms on
/// // top of the 20 ms base service time.
/// assert!(outcomes.iter().all(|o| o.latency() >= SimDuration::from_millis(70)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticServer {
    /// Service time of a request arriving at an idle server.
    pub base_service: SimDuration,
    /// The response-time model applied on top of the base service time.
    pub model: ResponseModel,
}

impl SyntheticServer {
    /// Creates a synthetic server.
    pub fn new(base_service: SimDuration, model: ResponseModel) -> Self {
        SyntheticServer {
            base_service,
            model,
        }
    }

    /// Serves a batch of requests.
    ///
    /// The number of "simultaneous" requests seen by a given request is the
    /// number of requests whose service overlaps its own: requests arriving
    /// within one base service time of it (a synchronized MFC crowd all
    /// lands inside that window) plus any earlier request whose computed
    /// service still extends past its arrival.  This matches how the
    /// paper's instrumented server tracks its pending-request queue — every
    /// member of a tightly synchronized crowd of `N` observes `≈ N`
    /// simultaneous requests, which is why Figure 4's "Ideal" curve is
    /// `f(crowd size)`.  Outcomes are returned in submission order.
    pub fn run(&self, requests: Vec<ServerRequest>) -> Vec<RequestOutcome> {
        // Process arrivals in time order while remembering submission order.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| (requests[i].arrival, requests[i].id));

        let mut completions: Vec<(SimTime, SimTime)> = Vec::new();
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; requests.len()];
        for &idx in &order {
            let req = &requests[idx];
            // Members of the same synchronized crowd (arrivals within one
            // base service time) all count each other; earlier requests
            // additionally count if they are still being served.
            let window = self.base_service;
            let crowd_members = requests
                .iter()
                .filter(|other| {
                    let gap = if other.arrival >= req.arrival {
                        other.arrival - req.arrival
                    } else {
                        req.arrival - other.arrival
                    };
                    gap <= window
                })
                .count();
            let still_pending = completions
                .iter()
                .filter(|(arrival, completion)| {
                    req.arrival.saturating_since(*arrival) > window && *completion > req.arrival
                })
                .count();
            let n = crowd_members + still_pending;
            let latency =
                self.base_service + self.model.added_delay(n) + req.client_rtt.mul_f64(0.5);
            let completion = req.arrival + latency;
            completions.push((req.arrival, completion));
            outcomes[idx] = Some(RequestOutcome {
                id: req.id,
                arrival: req.arrival,
                status: RequestStatus::Ok,
                completion,
                body_bytes: 0,
                background: req.background,
            });
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every request produced an outcome"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestClass;

    fn req(id: u64, arrival_ms: u64) -> ServerRequest {
        ServerRequest {
            id,
            arrival: SimTime::ZERO + SimDuration::from_millis(arrival_ms),
            class: RequestClass::Head,
            object: Some(crate::ObjectId::BASE_PAGE),
            client_downlink: 1e7,
            client_rtt: SimDuration::ZERO,
            client_addr: id as u32,
            background: false,
        }
    }

    #[test]
    fn flat_model_gives_base_service_only() {
        let server = SyntheticServer::new(SimDuration::from_millis(25), ResponseModel::Flat);
        let outcomes = server.run((0..40).map(|i| req(i, 0)).collect());
        for o in outcomes {
            assert_eq!(o.latency(), SimDuration::from_millis(25));
        }
    }

    #[test]
    fn linear_model_scales_with_crowd_size() {
        let server = SyntheticServer::new(
            SimDuration::from_millis(10),
            ResponseModel::Linear { slope_ms: 4.0 },
        );
        for crowd in [1usize, 10, 30, 60] {
            let outcomes = server.run((0..crowd as u64).map(|i| req(i, 0)).collect());
            let max = outcomes.iter().map(|o| o.latency()).max().unwrap();
            let expected =
                SimDuration::from_millis(10) + SimDuration::from_millis_f64(4.0 * crowd as f64);
            assert_eq!(max, expected, "crowd {crowd}");
        }
    }

    #[test]
    fn exponential_model_grows_faster_than_linear() {
        let linear = SyntheticServer::new(
            SimDuration::from_millis(10),
            ResponseModel::Linear { slope_ms: 5.0 },
        );
        let exponential = SyntheticServer::new(
            SimDuration::from_millis(10),
            ResponseModel::Exponential {
                scale_ms: 1.0,
                growth: 1.12,
            },
        );
        let crowd: Vec<ServerRequest> = (0..60).map(|i| req(i, 0)).collect();
        let lin_max = linear
            .run(crowd.clone())
            .iter()
            .map(|o| o.latency())
            .max()
            .unwrap();
        let exp_max = exponential
            .run(crowd)
            .iter()
            .map(|o| o.latency())
            .max()
            .unwrap();
        assert!(exp_max > lin_max);
    }

    #[test]
    fn sequential_requests_do_not_interfere() {
        let server = SyntheticServer::new(
            SimDuration::from_millis(10),
            ResponseModel::Linear { slope_ms: 100.0 },
        );
        // Requests spaced far apart never overlap, so each sees n = 1.
        let outcomes = server.run(vec![req(1, 0), req(2, 10_000), req(3, 20_000)]);
        for o in outcomes {
            assert_eq!(o.latency(), SimDuration::from_millis(110));
        }
    }

    #[test]
    fn outcomes_preserve_submission_order() {
        let server = SyntheticServer::new(SimDuration::from_millis(1), ResponseModel::Flat);
        let outcomes = server.run(vec![req(5, 30), req(6, 10), req(7, 20)]);
        let ids: Vec<u64> = outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, vec![5, 6, 7]);
    }

    #[test]
    fn added_delay_never_negative() {
        let model = ResponseModel::Exponential {
            scale_ms: -5.0,
            growth: 1.5,
        };
        assert_eq!(model.added_delay(10), SimDuration::ZERO);
        assert_eq!(ResponseModel::Flat.added_delay(1_000), SimDuration::ZERO);
    }
}
