//! Composing policies into one control loop.

use mfc_simcore::{SimDuration, SimTime};
use mfc_webserver::{AdmissionVerdict, ControlAction, ServerControl, ServerRequest, TickSample};
use serde::{Deserialize, Serialize};

use crate::admission::{AdmissionController, AdmissionControllerConfig};
use crate::autoscaler::{AutoScaler, AutoScalerConfig};
use crate::policy::DynamicsPolicy;
use crate::ratelimit::{RateLimitMode, TokenBucketConfig, TokenBucketRateLimiter};
use crate::schedule::{CapacitySchedule, CapacityScheduleConfig, CapacityStep};

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
    /// Time-varying capacity, if enabled.
    pub capacity_schedule: Option<CapacityScheduleConfig>,
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
            capacity_schedule: None,
        }
    }

    /// True when no policy is enabled: the built stack never ticks and
    /// accepts every request.
    pub fn is_static(&self) -> bool {
        self.autoscaler.is_none()
            && self.admission.is_none()
            && self.rate_limiter.is_none()
            && self.capacity_schedule.is_none()
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
                mode: RateLimitMode::Throttle(clamp_bytes_per_sec),
                exempt_background: true,
            }),
            ..DefenseConfig::none()
        }
    }

    /// A one-step capacity drop after `after`: the link falls to
    /// `link_bytes_per_sec` and the CPU to `cpu_factor` of nominal.
    pub fn capacity_drop(
        after: SimDuration,
        link_bytes_per_sec: f64,
        cpu_factor: f64,
    ) -> DefenseConfig {
        DefenseConfig {
            capacity_schedule: Some(CapacityScheduleConfig {
                steps: vec![CapacityStep {
                    at: after,
                    access_link: Some(link_bytes_per_sec),
                    cpu_factor: Some(cpu_factor),
                }],
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
            capacity_schedule: Some(CapacityScheduleConfig {
                steps: vec![CapacityStep {
                    at: SimDuration::from_secs(30),
                    access_link: None,
                    cpu_factor: Some(0.8),
                }],
            }),
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
        let mut policies: Vec<Box<dyn DynamicsPolicy>> = Vec::new();
        if let Some(config) = &self.autoscaler {
            policies.push(Box::new(AutoScaler::new(config.clone())));
        }
        if let Some(config) = &self.admission {
            policies.push(Box::new(AdmissionController::new(config.clone())));
        }
        if let Some(config) = &self.rate_limiter {
            policies.push(Box::new(TokenBucketRateLimiter::new(config.clone())));
        }
        if let Some(config) = &self.capacity_schedule {
            policies.push(Box::new(CapacitySchedule::new(config.clone())));
        }
        DefenseStack {
            tick: self.tick,
            policies,
            last_sample: TickSample::idle(SimTime::ZERO, 1),
            sheds: 0,
            throttles: 0,
        }
    }

    /// Human-readable list of enabled policies ("static" when none).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.autoscaler.is_some() {
            parts.push("autoscaler");
        }
        if self.admission.is_some() {
            parts.push("admission");
        }
        if self.rate_limiter.is_some() {
            parts.push("rate-limiter");
        }
        if self.capacity_schedule.is_some() {
            parts.push("capacity-schedule");
        }
        if parts.is_empty() {
            "static".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// The runtime composition of a target's defenses, hosted by
/// [`mfc_webserver::ServerCluster::run`].  The stack built from
/// [`DefenseConfig::none`] is empty: it never ticks and accepts every
/// request, which is how a static target runs.
///
/// Verdicts compose conservatively: any policy's `Shed` wins outright, and
/// concurrent throttles clamp to the lowest rate.  The stack is carried
/// across runs so per-client buckets and scaling state persist between MFC
/// epochs.
pub struct DefenseStack {
    tick: SimDuration,
    policies: Vec<Box<dyn DynamicsPolicy>>,
    last_sample: TickSample,
    sheds: u64,
    throttles: u64,
}

impl DefenseStack {
    /// Requests the stack shed so far (across runs).
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Requests the stack throttled so far (across runs).
    pub fn throttles(&self) -> u64 {
        self.throttles
    }

    /// Names of the composed policies, in evaluation order.
    pub fn policy_names(&self) -> Vec<&'static str> {
        self.policies.iter().map(|p| p.name()).collect()
    }
}

impl ServerControl for DefenseStack {
    fn tick_interval(&self) -> Option<SimDuration> {
        if self.policies.is_empty() {
            None
        } else {
            Some(self.tick)
        }
    }

    fn on_arrival(&mut self, now: SimTime, request: &ServerRequest) -> AdmissionVerdict {
        let mut verdict = AdmissionVerdict::Accept;
        for policy in self.policies.iter_mut() {
            match policy.on_arrival(now, request, &self.last_sample) {
                AdmissionVerdict::Shed => {
                    self.sheds += 1;
                    return AdmissionVerdict::Shed;
                }
                AdmissionVerdict::Throttle(rate) => {
                    verdict = match verdict {
                        AdmissionVerdict::Throttle(existing) => {
                            AdmissionVerdict::Throttle(existing.min(rate))
                        }
                        _ => AdmissionVerdict::Throttle(rate),
                    };
                }
                AdmissionVerdict::Accept => {}
            }
        }
        if matches!(verdict, AdmissionVerdict::Throttle(_)) {
            self.throttles += 1;
        }
        verdict
    }

    fn on_tick(&mut self, now: SimTime, sample: &TickSample, actions: &mut Vec<ControlAction>) {
        self.last_sample = *sample;
        for policy in self.policies.iter_mut() {
            policy.on_tick(now, sample, actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_webserver::RequestClass;

    fn req(client: u32) -> ServerRequest {
        ServerRequest {
            id: u64::from(client),
            arrival: SimTime::ZERO,
            class: RequestClass::Static,
            path: "/objects/large_100k.bin".to_string(),
            client_downlink: 1e8,
            client_rtt: SimDuration::from_millis(40),
            client_addr: client,
            background: false,
        }
    }

    #[test]
    fn static_config_disables_ticks() {
        let config = DefenseConfig::none();
        assert!(config.is_static());
        assert_eq!(config.label(), "static");
        let stack = config.build();
        assert_eq!(stack.tick_interval(), None);
    }

    #[test]
    fn fortress_composes_all_four_policies() {
        let config = DefenseConfig::fortress(2, 8);
        assert!(!config.is_static());
        assert_eq!(
            config.label(),
            "autoscaler+admission+rate-limiter+capacity-schedule"
        );
        let stack = config.build();
        assert_eq!(
            stack.policy_names(),
            vec![
                "autoscaler",
                "admission",
                "rate-limiter",
                "capacity-schedule"
            ]
        );
        assert_eq!(config.initial_replicas(1), 2);
        assert_eq!(DefenseConfig::none().initial_replicas(5), 5);
    }

    #[test]
    fn shed_wins_over_throttle() {
        // A one-token reject bucket plus a throttle bucket: the second
        // request is shed by whichever policy fires first, never served.
        let config = DefenseConfig {
            admission: Some(AdmissionControllerConfig {
                window_budget: 1,
                ..AdmissionControllerConfig::default()
            }),
            rate_limiter: Some(TokenBucketConfig {
                burst: 1.0,
                refill_per_sec: 0.0,
                mode: RateLimitMode::Throttle(10_000.0),
                exempt_background: true,
            }),
            ..DefenseConfig::none()
        };
        let mut stack = config.build();
        assert_eq!(
            stack.on_arrival(SimTime::ZERO, &req(1)),
            AdmissionVerdict::Accept
        );
        assert_eq!(
            stack.on_arrival(SimTime::ZERO, &req(1)),
            AdmissionVerdict::Shed
        );
        assert_eq!(stack.sheds(), 1);
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
        assert_eq!(stack.throttles(), 1);
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = DefenseConfig::fortress(2, 6);
        let json = serde_json::to_string(&config).expect("serializes");
        let back: DefenseConfig = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(config, back);
    }
}
