//! Cloud-style horizontal autoscaling.

use mfc_simcore::{SimDuration, SimTime};
use mfc_webserver::TickSample;
use serde::{Deserialize, Serialize};

/// Parameters of an [`AutoScaler`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoScalerConfig {
    /// Replicas the service never shrinks below (also the initial count —
    /// construct the cluster with this many replicas).
    pub min_replicas: usize,
    /// Replicas the service never grows beyond.
    pub max_replicas: usize,
    /// Mean in-flight requests per replica above which a scale-up is
    /// requested.
    pub scale_up_load: f64,
    /// Mean in-flight requests per replica below which a scale-down is
    /// requested.
    pub scale_down_load: f64,
    /// Time between a scale-up decision and the new replica becoming
    /// routable (instance boot + registration — the "provisioning lag"
    /// that makes autoscaling useless against short synchronized bursts).
    pub provisioning_lag: SimDuration,
    /// Minimum spacing between scaling decisions.
    pub cooldown: SimDuration,
}

impl Default for AutoScalerConfig {
    fn default() -> Self {
        AutoScalerConfig {
            min_replicas: 1,
            max_replicas: 8,
            scale_up_load: 32.0,
            scale_down_load: 4.0,
            provisioning_lag: SimDuration::from_secs(3),
            cooldown: SimDuration::from_secs(2),
        }
    }
}

/// Adds and removes cluster replicas against an in-flight load target.
///
/// Scale-ups pass through a pending queue that matures after the
/// provisioning lag; scale-downs take effect at the next tick (the replica
/// finishes its in-flight work but receives no new traffic).  The scaler's
/// notion of the routable count persists across runs, like a real
/// deployment's.
#[derive(Debug, Clone)]
pub struct AutoScaler {
    config: AutoScalerConfig,
    /// Replicas currently routable (from this scaler's point of view).
    target: usize,
    /// Boot-completion times of replicas being provisioned, in decision
    /// order.
    pending: Vec<SimTime>,
    /// Last time a scaling decision was made.
    last_decision: Option<SimTime>,
}

impl AutoScaler {
    /// Creates a scaler starting at `config.min_replicas`.
    pub fn new(config: AutoScalerConfig) -> Self {
        let target = config.min_replicas.max(1);
        AutoScaler {
            config,
            target,
            pending: Vec::new(),
            last_decision: None,
        }
    }

    /// Replicas currently routable from the scaler's point of view
    /// (excludes pending boots).
    pub fn routable(&self) -> usize {
        self.target
    }

    /// Replicas booting but not yet routable.
    pub fn provisioning(&self) -> usize {
        self.pending.len()
    }

    fn cooled_down(&self, now: SimTime) -> bool {
        match self.last_decision {
            Some(at) => now.saturating_since(at) >= self.config.cooldown,
            None => true,
        }
    }

    /// Observes one telemetry tick and returns the new routable count if
    /// it changed.  A tick can change it twice (a boot matures, then the
    /// scaler scales down); the count returned is the final one.
    pub fn on_tick(&mut self, now: SimTime, sample: &TickSample) -> Option<usize> {
        let mut changed = false;
        // Mature any boots that completed.
        let matured = self.pending.iter().filter(|&&ready| ready <= now).count();
        if matured > 0 {
            self.pending.drain(..matured);
            self.target = (self.target + matured).min(self.config.max_replicas);
            changed = true;
        }

        let load = sample.in_flight_per_replica();
        if load > self.config.scale_up_load
            && self.target + self.pending.len() < self.config.max_replicas
            && self.cooled_down(now)
        {
            self.pending.push(now + self.config.provisioning_lag);
            self.last_decision = Some(now);
        } else if load < self.config.scale_down_load
            && self.pending.is_empty()
            && self.target > self.config.min_replicas.max(1)
            && self.cooled_down(now)
        {
            self.target -= 1;
            self.last_decision = Some(now);
            changed = true;
        }
        changed.then_some(self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn sample(now: SimTime, replicas: usize, in_flight: u64) -> TickSample {
        TickSample {
            in_flight,
            ..TickSample::idle(now, replicas)
        }
    }

    fn config() -> AutoScalerConfig {
        AutoScalerConfig {
            min_replicas: 2,
            max_replicas: 4,
            scale_up_load: 10.0,
            scale_down_load: 2.0,
            provisioning_lag: SimDuration::from_secs(3),
            cooldown: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn scale_up_waits_for_the_provisioning_lag() {
        let mut scaler = AutoScaler::new(config());
        assert_eq!(scaler.routable(), 2);
        // Overloaded: 2 replicas, 40 in flight.
        let first = scaler.on_tick(t(1.0), &sample(t(1.0), 2, 40));
        assert_eq!(first, None, "the boot has not completed yet");
        assert_eq!(scaler.provisioning(), 1);
        // Two seconds later: still booting.
        assert_eq!(scaler.on_tick(t(3.0), &sample(t(3.0), 2, 40)), None);
        // Lag elapsed: the replica becomes routable, and the continued
        // overload (cooldown long passed) starts another boot.
        assert_eq!(scaler.on_tick(t(4.5), &sample(t(4.5), 2, 40)), Some(3));
        assert_eq!(scaler.provisioning(), 1);
    }

    #[test]
    fn never_exceeds_max_replicas() {
        let mut scaler = AutoScaler::new(config());
        for step in 0..20 {
            let now = t(step as f64 * 2.0);
            scaler.on_tick(now, &sample(now, scaler.routable(), 500));
        }
        assert!(scaler.routable() + scaler.provisioning() <= 4);
    }

    #[test]
    fn scales_back_down_to_minimum_when_idle() {
        let mut scaler = AutoScaler::new(config());
        // Grow to 3, with a fourth replica booting from 4 s to 7 s.
        scaler.on_tick(t(0.0), &sample(t(0.0), 2, 40));
        scaler.on_tick(t(4.0), &sample(t(4.0), 2, 40));
        assert_eq!(scaler.routable(), 3);
        assert_eq!(scaler.provisioning(), 1);
        // Idle for a while: back to the floor, one step per cooldown.  The
        // first idle tick matures the boot (4) and scales down (3) at once,
        // and reports only the final count.
        let counts: Vec<usize> = (0..10)
            .filter_map(|step| {
                let now = t(10.0 + step as f64 * 2.0);
                scaler.on_tick(now, &sample(now, 3, 0))
            })
            .collect();
        assert_eq!(scaler.routable(), 2);
        assert_eq!(counts, [3, 2]);
    }
}
