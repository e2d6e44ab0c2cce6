//! Time-varying capacity: diurnal link schedules, CPU quota changes.

use mfc_simcore::{SimDuration, SimTime};
use mfc_simnet::Bandwidth;
use mfc_webserver::ControlAction;
use serde::{Deserialize, Serialize};

/// One step of a [`CapacitySchedule`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityStep {
    /// When the step fires, relative to the schedule's origin (the first
    /// telemetry tick the policy observes).
    pub at: SimDuration,
    /// New outbound access-link capacity in bytes/second, if it changes.
    pub access_link: Option<Bandwidth>,
    /// New CPU scale factor relative to configured hardware, if it changes.
    pub cpu_factor: Option<f64>,
}

/// Serializable description of a capacity schedule.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CapacityScheduleConfig {
    /// Steps in firing order (sorted by [`CapacityStep::at`] at build time).
    pub steps: Vec<CapacityStep>,
}

/// Applies a fixed sequence of link/CPU capacity changes through the
/// engine's mid-run `set_capacity` path.
///
/// The schedule anchors at the first tick it observes, so the same config
/// replays identically wherever in virtual time the experiment starts.
/// Fired steps stay fired — the schedule runs once, not cyclically.
#[derive(Debug, Clone)]
pub struct CapacitySchedule {
    steps: Vec<CapacityStep>,
    origin: Option<SimTime>,
    next: usize,
}

impl CapacitySchedule {
    /// Creates a schedule; steps are sorted by their offset.
    pub fn new(config: CapacityScheduleConfig) -> Self {
        let mut steps = config.steps;
        steps.sort_by_key(|s| s.at);
        CapacitySchedule {
            steps,
            origin: None,
            next: 0,
        }
    }

    /// Steps that have not fired yet.
    pub fn remaining(&self) -> usize {
        self.steps.len() - self.next
    }

    /// Appends the actions of every step due by `now`; the first call
    /// anchors the schedule.
    pub fn on_tick(&mut self, now: SimTime, actions: &mut Vec<ControlAction>) {
        let origin = *self.origin.get_or_insert(now);
        while let Some(step) = self.steps.get(self.next) {
            if origin + step.at > now {
                break;
            }
            if let Some(link) = step.access_link {
                actions.push(ControlAction::SetAccessLink(link));
            }
            if let Some(factor) = step.cpu_factor {
                actions.push(ControlAction::ScaleCpu(factor));
            }
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn steps_fire_once_in_offset_order() {
        let mut schedule = CapacitySchedule::new(CapacityScheduleConfig {
            steps: vec![
                CapacityStep {
                    at: SimDuration::from_secs(10),
                    access_link: Some(2e6),
                    cpu_factor: None,
                },
                CapacityStep {
                    at: SimDuration::from_secs(5),
                    access_link: Some(1e6),
                    cpu_factor: Some(0.5),
                },
            ],
        });
        assert_eq!(schedule.remaining(), 2);
        let mut actions = Vec::new();
        // Anchor at t=1; nothing due yet.
        schedule.on_tick(t(1.0), &mut actions);
        assert!(actions.is_empty());
        // t=7 (offset 6): the 5-second step fires, sorted first.
        schedule.on_tick(t(7.0), &mut actions);
        assert_eq!(
            actions,
            vec![
                ControlAction::SetAccessLink(1e6),
                ControlAction::ScaleCpu(0.5)
            ]
        );
        actions.clear();
        // t=12 (offset 11): the 10-second step fires; nothing remains.
        schedule.on_tick(t(12.0), &mut actions);
        assert_eq!(actions, vec![ControlAction::SetAccessLink(2e6)]);
        assert_eq!(schedule.remaining(), 0);
        actions.clear();
        schedule.on_tick(t(100.0), &mut actions);
        assert!(actions.is_empty(), "a schedule does not repeat");
    }
}
