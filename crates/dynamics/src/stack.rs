//! Composing policies into one control loop.

use mfc_simcore::{SimDuration, SimTime};
use mfc_webserver::{AdmissionVerdict, ControlAction, ServerControl, ServerRequest, TickSample};
use serde::{Deserialize, Serialize};

use crate::admission::{AdmissionController, AdmissionControllerConfig};
use crate::autoscaler::{AutoScaler, AutoScalerConfig};
use crate::ratelimit::{TokenBucketConfig, TokenBucketRateLimiter};
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
                clamp: clamp_bytes_per_sec,
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

    /// Checks that every capacity-schedule step names a positive, finite
    /// access-link capacity and CPU factor: the sharing core cannot run a
    /// link or a CPU at zero, negative or unbounded capacity.
    pub fn validate(&self) -> Result<(), String> {
        let steps = self.capacity_schedule.iter().flat_map(|s| &s.steps);
        for (index, step) in steps.enumerate() {
            for (field, value) in [
                ("access_link", step.access_link),
                ("cpu_factor", step.cpu_factor),
            ] {
                if let Some(value) = value.filter(|v| !(*v > 0.0 && v.is_finite())) {
                    return Err(format!(
                        "capacity step {index}: {field} must be positive and finite, got {value}"
                    ));
                }
            }
        }
        Ok(())
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
            capacity_schedule: self.capacity_schedule.clone().map(CapacitySchedule::new),
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
/// A tick steps the autoscaler, then the capacity schedule; an arrival
/// asks the admission controller, then the rate limiter.  A shed wins
/// outright: a shed arrival never reaches (and never charges) the rate
/// limiter, the one policy that throttles.  The stack is carried across
/// runs so per-client buckets and scaling state persist between MFC
/// epochs.
pub struct DefenseStack {
    /// `None` when no policy is set: a static target never ticks.
    tick: Option<SimDuration>,
    autoscaler: Option<AutoScaler>,
    admission: Option<AdmissionController>,
    rate_limiter: Option<TokenBucketRateLimiter>,
    capacity_schedule: Option<CapacitySchedule>,
    /// The most recent telemetry tick: a control plane never sees the
    /// instantaneous truth, only its last scrape.
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
}

impl ServerControl for DefenseStack {
    fn tick_interval(&self) -> Option<SimDuration> {
        self.tick
    }

    fn on_arrival(&mut self, now: SimTime, request: &ServerRequest) -> AdmissionVerdict {
        if let Some(admission) = &mut self.admission {
            if admission.on_arrival(now, &self.last_sample) == AdmissionVerdict::Shed {
                self.sheds += 1;
                return AdmissionVerdict::Shed;
            }
        }
        let verdict = match &mut self.rate_limiter {
            Some(limiter) => limiter.on_arrival(now, request),
            None => AdmissionVerdict::Accept,
        };
        if matches!(verdict, AdmissionVerdict::Throttle(_)) {
            self.throttles += 1;
        }
        verdict
    }

    fn on_tick(&mut self, now: SimTime, sample: &TickSample, actions: &mut Vec<ControlAction>) {
        self.last_sample = *sample;
        if let Some(scaler) = &mut self.autoscaler {
            scaler.on_tick(now, sample, actions);
        }
        if let Some(schedule) = &mut self.capacity_schedule {
            schedule.on_tick(now, actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_webserver::{ContentCatalog, RequestClass, ServerCluster, ServerConfig};

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
        assert!(stack.autoscaler.is_some() && stack.admission.is_some());
        assert!(stack.rate_limiter.is_some() && stack.capacity_schedule.is_some());
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
        assert_eq!(
            stack.on_arrival(SimTime::ZERO, &req(1)),
            AdmissionVerdict::Accept
        );
        assert_eq!(
            stack.on_arrival(SimTime::ZERO, &req(1)),
            AdmissionVerdict::Shed
        );
        assert_eq!(stack.sheds(), 1);
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
        assert_eq!(stack.throttles(), 1);
    }

    #[test]
    fn presets_validate() {
        for config in [
            DefenseConfig::none(),
            DefenseConfig::autoscaled(1, 4),
            DefenseConfig::shedding(50),
            DefenseConfig::rate_limited(5.0, 1.0, 20_000.0),
            DefenseConfig::capacity_drop(SimDuration::from_secs(1), 1e6, 0.5),
            DefenseConfig::fortress(2, 8),
        ] {
            assert_eq!(config.validate(), Ok(()), "{}", config.label());
        }
    }

    #[test]
    fn impossible_capacity_steps_are_rejected() {
        for bad in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let link = DefenseConfig::capacity_drop(SimDuration::from_secs(1), bad, 0.5);
            let error = link.validate().expect_err("bad access link");
            assert!(error.contains("access_link"), "{error}");
            let cpu = DefenseConfig::capacity_drop(SimDuration::from_secs(1), 1e6, bad);
            let error = cpu.validate().expect_err("bad cpu factor");
            assert!(error.contains("cpu_factor"), "{error}");
        }
    }

    #[test]
    fn cpu_capacity_drop_slows_later_small_queries() {
        // Small Queries spaced 100 ms apart on the one-core lab server, so
        // each runs alone on the CPU; 1 s in, the CPU drops to half speed.
        let config = ServerConfig::lab_apache();
        let query = ContentCatalog::lab_validation().resolve("/cgi/stats?table=t1");
        let requests: Vec<ServerRequest> = (0..20u64)
            .map(|i| ServerRequest {
                id: i,
                arrival: SimTime::ZERO + SimDuration::from_millis(100 * i),
                class: RequestClass::Dynamic,
                object: query,
                ..req(i as u32)
            })
            .collect();
        let defenses =
            DefenseConfig::capacity_drop(SimDuration::from_secs(1), config.access_link, 0.5);
        let mut cluster = ServerCluster::new(config, ContentCatalog::lab_validation(), 1);
        let result = cluster.run(requests, &mut defenses.build());
        let latency = |range: std::ops::Range<usize>| {
            let mut ms: Vec<f64> = result.outcomes[range]
                .iter()
                .inspect(|o| assert!(o.is_ok()))
                .map(|o| o.latency().as_millis_f64())
                .collect();
            ms.sort_by(f64::total_cmp);
            ms
        };
        // The first query misses the query cache; the rest hit it.
        let (before, after) = (latency(1..9), latency(12..20));
        assert!(
            after[0] > before[before.len() - 1],
            "after the drop {after:?} vs before {before:?}"
        );
    }

    #[test]
    fn a_fired_capacity_step_holds_in_later_runs() {
        // The same Small Query trickle as above, run twice on one cluster
        // under one defense stack: the drop fires 1 s into the first run and
        // must still hold when the second run starts 10 s later.
        let config = ServerConfig::lab_apache();
        let query = ContentCatalog::lab_validation().resolve("/cgi/stats?table=t1");
        let queries = |start_ms: u64| -> Vec<ServerRequest> {
            (0..20u64)
                .map(|i| ServerRequest {
                    id: i,
                    arrival: SimTime::ZERO + SimDuration::from_millis(start_ms + 100 * i),
                    class: RequestClass::Dynamic,
                    object: query,
                    ..req(i as u32)
                })
                .collect()
        };
        let mut defense =
            DefenseConfig::capacity_drop(SimDuration::from_secs(1), config.access_link, 0.5)
                .build();
        let mut cluster = ServerCluster::new(config, ContentCatalog::lab_validation(), 1);
        let first = cluster.run(queries(0), &mut defense);
        let second = cluster.run(queries(12_000), &mut defense);
        let slowest_before_drop = first.outcomes[1..9]
            .iter()
            .map(|o| o.latency())
            .max()
            .unwrap();
        for outcome in &second.outcomes {
            assert!(outcome.is_ok());
            assert!(
                outcome.latency() > slowest_before_drop,
                "the second run must still see the halved CPU: {} vs {slowest_before_drop}",
                outcome.latency()
            );
        }
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = DefenseConfig::fortress(2, 6);
        let json = serde_json::to_string(&config).expect("serializes");
        let back: DefenseConfig = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(config, back);
    }
}
