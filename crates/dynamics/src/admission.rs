//! Self-* overload control: shed load before it queues.

use mfc_simcore::{SimDuration, SimTime};
use mfc_webserver::{AdmissionVerdict, TickSample};
use serde::{Deserialize, Serialize};

/// Parameters of an [`AdmissionController`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionControllerConfig {
    /// Shed when the last telemetry tick showed more than this many queued
    /// connections per replica (listen-queue pressure).
    pub max_queued_per_replica: f64,
    /// Shed when the last telemetry tick showed more than this many
    /// in-flight requests per replica.
    pub max_in_flight_per_replica: f64,
    /// Surge budget: at most this many admissions per window, counted at
    /// the front door itself.  This is what catches a tightly synchronized
    /// burst that arrives entirely between two telemetry ticks.
    pub window_budget: u64,
    /// Length of the surge-budget window.
    pub window: SimDuration,
}

impl Default for AdmissionControllerConfig {
    fn default() -> Self {
        AdmissionControllerConfig {
            max_queued_per_replica: 32.0,
            max_in_flight_per_replica: 128.0,
            window_budget: 200,
            window: SimDuration::from_secs(1),
        }
    }
}

/// Sheds requests with a 503 when the server looks overloaded.
///
/// Two mechanisms compose: thresholds on the *last scraped* telemetry
/// (queue depth, outstanding requests — always one tick stale, like a real
/// control plane's metrics), and a per-window admission budget evaluated
/// at the front door (connection-rate surge protection).
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: AdmissionControllerConfig,
    window_start: Option<SimTime>,
    admitted_in_window: u64,
    shed_total: u64,
}

impl AdmissionController {
    /// Creates a controller.
    pub fn new(config: AdmissionControllerConfig) -> Self {
        AdmissionController {
            config,
            window_start: None,
            admitted_in_window: 0,
            shed_total: 0,
        }
    }

    /// Requests this controller has shed so far (across runs).
    pub fn shed_total(&self) -> u64 {
        self.shed_total
    }

    fn roll_window(&mut self, now: SimTime) {
        match self.window_start {
            Some(start) if now.saturating_since(start) < self.config.window => {}
            _ => {
                self.window_start = Some(now);
                self.admitted_in_window = 0;
            }
        }
    }

    /// Decides the fate of one arriving request.  `last_sample` is the most
    /// recent telemetry tick — a control plane never sees the instantaneous
    /// truth, only its last scrape, which is exactly the lag that lets a
    /// tightly synchronized burst slip past threshold-based shedding.
    pub fn on_arrival(&mut self, now: SimTime, last_sample: &TickSample) -> AdmissionVerdict {
        self.roll_window(now);
        let replicas = last_sample.active_replicas.max(1) as f64;
        let queued = last_sample.queued as f64 / replicas;
        let in_flight = last_sample.in_flight as f64 / replicas;
        let overloaded = queued > self.config.max_queued_per_replica
            || in_flight > self.config.max_in_flight_per_replica
            || self.admitted_in_window >= self.config.window_budget;
        if overloaded {
            self.shed_total += 1;
            AdmissionVerdict::Shed
        } else {
            self.admitted_in_window += 1;
            AdmissionVerdict::Accept
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surge_budget_sheds_the_tail_of_a_burst() {
        let mut ctrl = AdmissionController::new(AdmissionControllerConfig {
            window_budget: 5,
            ..AdmissionControllerConfig::default()
        });
        let now = SimTime::ZERO;
        let idle = TickSample::idle(now, 1);
        let verdicts: Vec<AdmissionVerdict> = (0..8).map(|_| ctrl.on_arrival(now, &idle)).collect();
        let shed = verdicts
            .iter()
            .filter(|v| matches!(v, AdmissionVerdict::Shed))
            .count();
        assert_eq!(shed, 3, "first 5 admitted, last 3 shed");
        assert_eq!(ctrl.shed_total(), 3);
        // A new window restores the budget.
        let later = now + SimDuration::from_secs(2);
        assert_eq!(ctrl.on_arrival(later, &idle), AdmissionVerdict::Accept);
    }

    #[test]
    fn queue_pressure_sheds_until_telemetry_recovers() {
        let mut ctrl = AdmissionController::new(AdmissionControllerConfig {
            max_queued_per_replica: 10.0,
            ..AdmissionControllerConfig::default()
        });
        let now = SimTime::ZERO;
        let pressured = TickSample {
            queued: 64,
            ..TickSample::idle(now, 2)
        };
        assert_eq!(ctrl.on_arrival(now, &pressured), AdmissionVerdict::Shed);
        let recovered = TickSample {
            queued: 4,
            ..TickSample::idle(now, 2)
        };
        assert_eq!(ctrl.on_arrival(now, &recovered), AdmissionVerdict::Accept);
    }
}
