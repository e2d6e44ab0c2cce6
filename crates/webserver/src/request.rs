//! Requests entering the simulated server and their outcomes.
//!
//! `mfc-core` (or the background-traffic generator) decides *when* a request
//! arrives and *what* it asks for; this module defines the shapes of those
//! inputs and of what the server reports back — completion times and status.
//! A run's outcomes come back in arrival order, each carrying its request's
//! id, arrival time and background flag, so they double as the server's
//! access log: the stand-in for the cooperating operators' server logs
//! (used for Figure 3 and Table 2).

use mfc_simcore::{SimDuration, SimTime};
use mfc_simnet::Bandwidth;
use serde::{Deserialize, Serialize};

use crate::content::ObjectId;

/// What kind of HTTP request this is, which determines which server
/// sub-systems it exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestClass {
    /// `HEAD /` — the Base stage: exercises connection handling and basic
    /// HTTP processing only; the response carries headers only.
    Head,
    /// `GET` of a static object — the Large Object stage when the object is
    /// big: exercises the object cache / disk and, above all, the access
    /// link.
    Static,
    /// `GET` of a dynamically generated object — the Small Query stage:
    /// exercises the dynamic handler and the back-end database.
    Dynamic,
}

/// A single request arrival as seen by the server simulation.
///
/// The request names its object by the [`ObjectId`] the server's catalog
/// resolved for its path where the request was made
/// ([`crate::ContentCatalog::resolve`]), so it owns no heap data and the
/// server never looks at a path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerRequest {
    /// Caller-chosen identifier, echoed back in the outcome.
    pub id: u64,
    /// Time at which the first byte of the HTTP request reaches the server
    /// (i.e. after the TCP handshake).
    pub arrival: SimTime,
    /// Request class.
    pub class: RequestClass,
    /// The requested object, resolved against the server's catalog; `None`
    /// when the catalog does not host the path, which a static or dynamic
    /// request answers with [`RequestStatus::NotFound`].  HEAD requests are
    /// served against the base page whatever they name.
    pub object: Option<ObjectId>,
    /// Downstream bandwidth of the requesting client in bytes/s (caps the
    /// response transfer rate).
    pub client_downlink: Bandwidth,
    /// Round-trip time between the client and the server (used for TCP
    /// window/slow-start effects on the response).
    pub client_rtt: SimDuration,
    /// Stable identifier of the requesting client — the stand-in for the
    /// source IP address that per-client server defenses (rate limiters)
    /// key on.  Requests from the same client share one identifier across
    /// epochs; background traffic uses a disjoint identifier space.
    pub client_addr: u32,
    /// True for regular (non-MFC) background traffic; background requests
    /// are excluded from MFC statistics but compete for every resource.
    pub background: bool,
}

/// Terminal status of a request inside the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestStatus {
    /// The full response was sent.
    Ok,
    /// The connection was refused because the listen queue was full.
    Refused,
    /// The requested path does not exist in the catalog.
    NotFound,
    /// The request was deliberately shed by an admission-control or
    /// rate-limiting defense before consuming a worker (an HTTP 503).
    Shed,
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// The id supplied in [`ServerRequest::id`].
    pub id: u64,
    /// Arrival time echoed back.
    pub arrival: SimTime,
    /// Terminal status.
    pub status: RequestStatus,
    /// Time at which the last byte of the response left the server-side
    /// model (including the transfer over the access link and the client's
    /// downlink).  For refused requests this is the refusal time.
    pub completion: SimTime,
    /// Number of body bytes in the response (0 for HEAD and refused
    /// requests).
    pub body_bytes: u64,
    /// True if this was a background request.
    pub background: bool,
}

impl RequestOutcome {
    /// Server-side latency: completion minus arrival.
    pub fn latency(&self) -> SimDuration {
        self.completion.saturating_since(self.arrival)
    }

    /// Returns `true` if the request was served successfully.
    pub fn is_ok(&self) -> bool {
        self.status == RequestStatus::Ok
    }
}

/// Computes the time spread containing the middle `fraction` of the given
/// arrival times — the statistic Table 2 reports as "Spread for 90% of
/// reqs".
///
/// Returns `None` when fewer than two arrivals are provided.
///
/// # Examples
///
/// ```
/// use mfc_simcore::SimTime;
/// use mfc_webserver::request::central_spread;
///
/// let arrivals: Vec<SimTime> = (0..100).map(|i| SimTime::from_micros(i * 1_000)).collect();
/// // The middle 90% of 100 evenly spaced arrivals spans ~90 ms.
/// let spread = central_spread(&arrivals, 0.9).unwrap();
/// assert!((spread.as_millis_f64() - 89.0).abs() < 2.0);
/// ```
pub fn central_spread(arrivals: &[SimTime], fraction: f64) -> Option<SimDuration> {
    if arrivals.len() < 2 {
        return None;
    }
    let fraction = fraction.clamp(0.0, 1.0);
    let mut sorted: Vec<SimTime> = arrivals.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let keep = ((n as f64 * fraction).round() as usize).clamp(1, n);
    let drop_total = n - keep;
    let drop_low = drop_total / 2;
    let low = sorted[drop_low];
    let high = sorted[drop_low + keep - 1];
    Some(high - low)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn outcome_latency_and_ok() {
        let outcome = RequestOutcome {
            id: 1,
            arrival: t(100),
            status: RequestStatus::Ok,
            completion: t(350),
            body_bytes: 1024,
            background: false,
        };
        assert_eq!(outcome.latency(), SimDuration::from_millis(250));
        assert!(outcome.is_ok());
        let refused = RequestOutcome {
            status: RequestStatus::Refused,
            ..outcome
        };
        assert!(!refused.is_ok());
    }

    #[test]
    fn latency_never_negative() {
        let outcome = RequestOutcome {
            id: 1,
            arrival: t(100),
            status: RequestStatus::Ok,
            completion: t(50),
            body_bytes: 0,
            background: false,
        };
        assert_eq!(outcome.latency(), SimDuration::ZERO);
    }

    #[test]
    fn central_spread_full_range() {
        let arrivals = vec![t(0), t(10), t(20), t(30)];
        assert_eq!(
            central_spread(&arrivals, 1.0),
            Some(SimDuration::from_millis(30))
        );
    }

    #[test]
    fn central_spread_drops_outliers() {
        // 18 tightly packed arrivals plus two stragglers.
        let mut arrivals: Vec<SimTime> = (0..18).map(|i| t(100 + i)).collect();
        arrivals.push(t(0));
        arrivals.push(t(5_000));
        let spread90 = central_spread(&arrivals, 0.9).unwrap();
        assert!(
            spread90 <= SimDuration::from_millis(20),
            "spread {spread90}"
        );
        let spread100 = central_spread(&arrivals, 1.0).unwrap();
        assert_eq!(spread100, SimDuration::from_millis(5_000));
    }

    #[test]
    fn central_spread_small_inputs() {
        assert_eq!(central_spread(&[], 0.9), None);
        assert_eq!(central_spread(&[t(5)], 0.9), None);
        assert_eq!(
            central_spread(&[t(5), t(9)], 0.9),
            Some(SimDuration::from_millis(4))
        );
    }

    #[test]
    fn central_spread_unsorted_input() {
        let arrivals = vec![t(30), t(0), t(20), t(10)];
        assert_eq!(
            central_spread(&arrivals, 1.0),
            Some(SimDuration::from_millis(30))
        );
    }
}
