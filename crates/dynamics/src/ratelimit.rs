//! Per-client token-bucket rate limiting.

use std::collections::BTreeMap;

use mfc_simcore::SimTime;
use mfc_simnet::Bandwidth;
use mfc_webserver::{AdmissionVerdict, ServerRequest};
use serde::{Deserialize, Serialize};

/// Parameters of a [`TokenBucketRateLimiter`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TokenBucketConfig {
    /// Bucket size in requests: how many requests a quiet client may burst.
    pub burst: f64,
    /// Sustained refill rate in requests/second.
    pub refill_per_sec: f64,
    /// The transfer rate, in bytes/second, a client whose bucket is empty
    /// is clamped to.  The request is still served: this is the response
    /// whose degradation signature an MFC misreads as a bandwidth
    /// constraint, since every probe client's throughput clamps to the
    /// same ceiling while the server's aggregate link sits nearly idle.
    pub clamp: Bandwidth,
}

impl Default for TokenBucketConfig {
    fn default() -> Self {
        TokenBucketConfig {
            burst: 3.0,
            refill_per_sec: 0.05,
            clamp: 16.0 * 1024.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last_refill: SimTime,
}

/// A per-client-address token bucket.
///
/// Each source address gets `burst` request tokens refilled at
/// `refill_per_sec`.  MFC probe clients re-use the same addresses for the
/// base measurement and every epoch, so a limiter tuned against repeated
/// probing drains their buckets after a few epochs — from then on every
/// probe is clamped regardless of the crowd size, which is precisely the
/// defense-triggered degradation the inference layer has to tell apart
/// from a real constraint.
///
/// Background (regular-user) traffic is always exempt, as real limiters
/// allowlist logged-in users or CDN ranges; that isolates the limiter's
/// effect on the probing clients.
///
/// Buckets live in a [`BTreeMap`] so iteration and float accumulation stay
/// deterministic.
#[derive(Debug, Clone)]
pub struct TokenBucketRateLimiter {
    config: TokenBucketConfig,
    buckets: BTreeMap<u32, Bucket>,
    limited_total: u64,
}

impl TokenBucketRateLimiter {
    /// Creates a limiter with all buckets full.
    pub fn new(config: TokenBucketConfig) -> Self {
        TokenBucketRateLimiter {
            config,
            buckets: BTreeMap::new(),
            limited_total: 0,
        }
    }

    /// Requests clamped so far (across runs).
    pub fn limited_total(&self) -> u64 {
        self.limited_total
    }

    /// Distinct client addresses tracked so far.
    pub fn tracked_clients(&self) -> usize {
        self.buckets.len()
    }

    /// Charges the request's client one token, or clamps it when the
    /// client's bucket is empty; background requests pass free.
    pub fn on_arrival(&mut self, now: SimTime, request: &ServerRequest) -> AdmissionVerdict {
        if request.background {
            return AdmissionVerdict::Accept;
        }
        let bucket = self.buckets.entry(request.client_addr).or_insert(Bucket {
            tokens: self.config.burst,
            last_refill: now,
        });
        let elapsed = now.saturating_since(bucket.last_refill).as_secs_f64();
        bucket.tokens =
            (bucket.tokens + elapsed * self.config.refill_per_sec).min(self.config.burst);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            AdmissionVerdict::Accept
        } else {
            self.limited_total += 1;
            AdmissionVerdict::Throttle(self.config.clamp)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_simcore::SimDuration;
    use mfc_webserver::{ContentCatalog, RequestClass};

    fn req(client: u32, at: SimTime) -> ServerRequest {
        ServerRequest {
            id: u64::from(client),
            arrival: at,
            class: RequestClass::Static,
            object: ContentCatalog::lab_validation().resolve("/objects/large_100k.bin"),
            client_downlink: 1e8,
            client_rtt: SimDuration::from_millis(40),
            client_addr: client,
            background: false,
        }
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn burst_passes_then_clamp_engages() {
        let mut limiter = TokenBucketRateLimiter::new(TokenBucketConfig {
            burst: 2.0,
            refill_per_sec: 0.1,
            clamp: 10_000.0,
        });
        assert_eq!(
            limiter.on_arrival(t(0.0), &req(7, t(0.0))),
            AdmissionVerdict::Accept
        );
        assert_eq!(
            limiter.on_arrival(t(1.0), &req(7, t(1.0))),
            AdmissionVerdict::Accept
        );
        // Third probe from the same address within the burst window: clamp.
        assert_eq!(
            limiter.on_arrival(t(2.0), &req(7, t(2.0))),
            AdmissionVerdict::Throttle(10_000.0)
        );
        assert_eq!(limiter.limited_total(), 1);
        // A different address still has a full bucket.
        assert_eq!(
            limiter.on_arrival(t(2.0), &req(8, t(2.0))),
            AdmissionVerdict::Accept
        );
        // After enough refill time the first address recovers.
        assert_eq!(
            limiter.on_arrival(t(30.0), &req(7, t(30.0))),
            AdmissionVerdict::Accept
        );
    }

    #[test]
    fn background_traffic_is_exempt() {
        let mut limiter = TokenBucketRateLimiter::new(TokenBucketConfig {
            burst: 1.0,
            refill_per_sec: 0.0,
            clamp: 10_000.0,
        });
        let mut bg = req(9, t(0.0));
        bg.background = true;
        for _ in 0..5 {
            assert_eq!(limiter.on_arrival(t(0.0), &bg), AdmissionVerdict::Accept);
        }
        assert_eq!(limiter.tracked_clients(), 0);
    }
}
