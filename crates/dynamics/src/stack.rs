//! Composing policies into one control loop.

use mfc_simcore::{SimDuration, SimTime};
use mfc_webserver::{AdmissionVerdict, ServerControl, ServerRequest, TickSample};
use serde::{Deserialize, Serialize};

use crate::admission::{AdmissionController, AdmissionControllerConfig};
use crate::autoscaler::{AutoScaler, AutoScalerConfig};
use crate::ratelimit::{TokenBucketConfig, TokenBucketRateLimiter};

/// Serializable description of a target's reactive defenses — what a
/// scenario matrix entry or experiment artifact records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseConfig {
    /// Telemetry tick spacing for the control loop.
    pub tick: SimDuration,
    /// Horizontal autoscaling, if enabled.
    pub autoscaler: Option<AutoScalerConfig>,
    /// Overload-triggered load shedding, if enabled.
    pub admission: Option<AdmissionControllerConfig>,
    /// Per-client rate limiting, if enabled.
    pub rate_limiter: Option<TokenBucketConfig>,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig::none()
    }
}

impl DefenseConfig {
    /// A static target: no defenses, no ticks — the paper's assumption.
    pub fn none() -> DefenseConfig {
        DefenseConfig {
            tick: SimDuration::from_millis(100),
            autoscaler: None,
            admission: None,
            rate_limiter: None,
        }
    }

    /// True when no policy is enabled: the built stack never ticks and
    /// accepts every request.
    pub fn is_static(&self) -> bool {
        self.autoscaler.is_none() && self.admission.is_none() && self.rate_limiter.is_none()
    }

    /// Cloud-style autoscaling between `min` and `max` replicas.
    pub fn autoscaled(min: usize, max: usize) -> DefenseConfig {
        DefenseConfig {
            autoscaler: Some(AutoScalerConfig {
                min_replicas: min,
                max_replicas: max,
                ..AutoScalerConfig::default()
            }),
            ..DefenseConfig::none()
        }
    }

    /// Overload shedding with a per-second admission budget (surge
    /// protection) plus telemetry thresholds.
    pub fn shedding(window_budget: u64) -> DefenseConfig {
        DefenseConfig {
            admission: Some(AdmissionControllerConfig {
                window_budget,
                ..AdmissionControllerConfig::default()
            }),
            ..DefenseConfig::none()
        }
    }

    /// Per-client token buckets that clamp repeat clients' transfers to
    /// `clamp_bytes_per_sec` once their `burst`-request budget is spent.
    pub fn rate_limited(
        burst: f64,
        refill_per_sec: f64,
        clamp_bytes_per_sec: f64,
    ) -> DefenseConfig {
        DefenseConfig {
            rate_limiter: Some(TokenBucketConfig {
                burst,
                refill_per_sec,
                clamp: clamp_bytes_per_sec,
            }),
            ..DefenseConfig::none()
        }
    }

    /// Every defense at once: the hardened target the scaling smoke test
    /// drives a 10k-request crowd through.
    pub fn fortress(min_replicas: usize, max_replicas: usize) -> DefenseConfig {
        DefenseConfig {
            autoscaler: Some(AutoScalerConfig {
                min_replicas,
                max_replicas,
                ..AutoScalerConfig::default()
            }),
            admission: Some(AdmissionControllerConfig::default()),
            rate_limiter: Some(TokenBucketConfig::default()),
            ..DefenseConfig::none()
        }
    }

    /// Replicas the serving cluster should be constructed with: the
    /// autoscaler's floor, or `fallback` when no autoscaler is enabled.
    pub fn initial_replicas(&self, fallback: usize) -> usize {
        match &self.autoscaler {
            Some(scaler) => scaler.min_replicas.max(1),
            None => fallback.max(1),
        }
    }

    /// Builds the runtime stack.
    pub fn build(&self) -> DefenseStack {
        DefenseStack {
            tick: (!self.is_static()).then_some(self.tick),
            autoscaler: self.autoscaler.clone().map(AutoScaler::new),
            admission: self.admission.clone().map(AdmissionController::new),
            rate_limiter: self.rate_limiter.clone().map(TokenBucketRateLimiter::new),
            last_sample: TickSample::idle(SimTime::ZERO, 1),
        }
    }
}

/// The runtime composition of a target's defenses, hosted by
/// [`mfc_webserver::ServerCluster::run`].  The stack built from
/// [`DefenseConfig::none`] is empty: it never ticks and accepts every
/// request, which is how a static target runs.
///
/// A tick steps the autoscaler; an arrival asks the admission controller,
/// then the rate limiter.  A shed wins outright: a shed arrival never
/// reaches (and never charges) the rate limiter, the one policy that
/// throttles.  The stack is carried across runs so per-client buckets and
/// scaling state persist between MFC epochs.
pub struct DefenseStack {
    /// `None` when no policy is set: a static target never ticks.
    tick: Option<SimDuration>,
    autoscaler: Option<AutoScaler>,
    admission: Option<AdmissionController>,
    rate_limiter: Option<TokenBucketRateLimiter>,
    /// The most recent telemetry tick: a control plane never sees the
    /// instantaneous truth, only its last scrape.
    last_sample: TickSample,
}

impl ServerControl for DefenseStack {
    fn tick_interval(&self) -> Option<SimDuration> {
        self.tick
    }

    fn on_arrival(&mut self, now: SimTime, request: &ServerRequest) -> AdmissionVerdict {
        if let Some(admission) = &mut self.admission {
            if admission.on_arrival(now, &self.last_sample) == AdmissionVerdict::Shed {
                return AdmissionVerdict::Shed;
            }
        }
        match &mut self.rate_limiter {
            Some(limiter) => limiter.on_arrival(now, request),
            None => AdmissionVerdict::Accept,
        }
    }

    fn on_tick(&mut self, now: SimTime, sample: &TickSample) -> Option<usize> {
        self.last_sample = *sample;
        self.autoscaler.as_mut()?.on_tick(now, sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_webserver::{
        engine::RunResult, ContentCatalog, RequestClass, RequestStatus, ServerCluster, ServerConfig,
    };

    fn req(client: u32) -> ServerRequest {
        ServerRequest {
            id: u64::from(client),
            arrival: SimTime::ZERO,
            class: RequestClass::Static,
            object: ContentCatalog::lab_validation().resolve("/objects/large_100k.bin"),
            client_downlink: 1e8,
            client_rtt: SimDuration::from_millis(40),
            client_addr: client,
            background: false,
        }
    }

    /// Serves two simultaneous requests from `client` on the lab server
    /// under `stack`.
    fn serve_twice(stack: &mut DefenseStack, client: u32) -> RunResult {
        let mut cluster = ServerCluster::new(
            ServerConfig::lab_apache(),
            ContentCatalog::lab_validation(),
            1,
        );
        cluster.run([req(client), req(client)], stack)
    }

    #[test]
    fn static_config_disables_ticks() {
        let config = DefenseConfig::none();
        assert!(config.is_static());
        let stack = config.build();
        assert_eq!(stack.tick_interval(), None);
    }

    #[test]
    fn fortress_composes_all_three_policies() {
        let config = DefenseConfig::fortress(2, 8);
        assert!(!config.is_static());
        let stack = config.build();
        assert!(stack.autoscaler.is_some() && stack.admission.is_some());
        assert!(stack.rate_limiter.is_some());
        assert_eq!(stack.tick_interval(), Some(config.tick));
        assert_eq!(config.initial_replicas(1), 2);
        assert_eq!(DefenseConfig::none().initial_replicas(5), 5);
    }

    #[test]
    fn shed_wins_over_throttle() {
        // A one-request admission budget plus a one-token bucket: the
        // second request is both over budget and out of tokens, and the
        // shed wins over the clamp — it is never served.
        let config = DefenseConfig {
            admission: Some(AdmissionControllerConfig {
                window_budget: 1,
                ..AdmissionControllerConfig::default()
            }),
            rate_limiter: Some(TokenBucketConfig {
                burst: 1.0,
                refill_per_sec: 0.0,
                clamp: 10_000.0,
            }),
            ..DefenseConfig::none()
        };
        let mut stack = config.build();
        let result = serve_twice(&mut stack, 1);
        assert_eq!(result.outcomes[0].status, RequestStatus::Ok);
        assert_eq!(result.outcomes[1].status, RequestStatus::Shed);
        assert_eq!(result.utilization.shed_requests, 1);
        assert_eq!(result.utilization.throttled_requests, 0);
        // The shed arrival never reached the limiter's bucket.
        let limiter = stack.rate_limiter.as_ref().expect("limiter");
        assert_eq!(limiter.limited_total(), 0);
    }

    #[test]
    fn throttles_are_counted_and_clamped_to_the_minimum() {
        let config = DefenseConfig::rate_limited(1.0, 0.0, 20_000.0);
        let mut stack = config.build();
        assert_eq!(
            stack.on_arrival(SimTime::ZERO, &req(3)),
            AdmissionVerdict::Accept
        );
        assert_eq!(
            stack.on_arrival(SimTime::ZERO, &req(3)),
            AdmissionVerdict::Throttle(20_000.0)
        );
        let result = serve_twice(&mut config.build(), 3);
        assert_eq!(result.utilization.throttled_requests, 1);
        assert_eq!(result.utilization.shed_requests, 0);
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = DefenseConfig::fortress(2, 6);
        let json = serde_json::to_string(&config).expect("serializes");
        let back: DefenseConfig = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(config, back);
    }
}
