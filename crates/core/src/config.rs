//! MFC experiment configuration.
//!
//! The defaults are the values the paper uses for its standard MFC runs:
//! a 100 ms threshold, crowd increments of 5–10 clients, at least 50
//! registered clients, a 15-client minimum before any inference is drawn,
//! ten-second epoch gaps and a ten-second client-side timeout.  Variants
//! used in the paper — the 250 ms threshold negotiated with the QTNP/Univ-2
//! operators, MFC-mr's multiple requests per client, the staggered
//! extension of §6 — are all expressed through this configuration.

use mfc_simcore::SimDuration;
use serde::{Deserialize, Serialize};

use crate::types::Stage;

/// Which stages an experiment runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageSelection {
    /// Base, Small Query and Large Object, in that order (the paper's full
    /// experiment).
    All,
    /// An explicit subset, run in the given order (the §5 large-scale study
    /// runs single stages against hundreds of servers).
    Only(Vec<Stage>),
}

impl StageSelection {
    /// The stages to run, in order.
    pub fn stages(&self) -> Vec<Stage> {
        match self {
            StageSelection::All => Stage::ALL.to_vec(),
            StageSelection::Only(list) => list.clone(),
        }
    }
}

/// Quiescence-aware scheduling: how the coordinator reacts when an epoch
/// lands in a background-load surge window.
///
/// The paper runs its cooperating-site MFCs at negotiated quiet hours and
/// notes that background load shifts stopping sizes (Univ-3, §4).  With a
/// policy set, the coordinator keeps the background rates of each stage's
/// epochs that were not themselves surged and, when an epoch's
/// server-reported background rate exceeds
/// [`surge_threshold`](crate::inference::surge_threshold) over them, flags
/// the epoch as surge-suspected, waits `backoff`, and re-runs it — up to
/// `max_retries` times.  Flagged attempts stay in the report for audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuiescencePolicy {
    /// How long to wait before re-running a surged epoch.
    pub backoff: SimDuration,
    /// Maximum re-runs per epoch; when exhausted the surged epoch's result
    /// stands (and the inference will see the surge flag).
    pub max_retries: u32,
}

impl Default for QuiescencePolicy {
    fn default() -> Self {
        QuiescencePolicy {
            backoff: SimDuration::from_secs(60),
            max_retries: 2,
        }
    }
}

/// Complete configuration of one MFC experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MfcConfig {
    /// Normalized response-time threshold θ that counts as a perceptible
    /// degradation.
    pub threshold: SimDuration,
    /// How many clients are added per epoch.
    pub crowd_increment: usize,
    /// Largest crowd size the coordinator will schedule.
    pub max_crowd: usize,
    /// Minimum number of registered clients required to start (the paper
    /// aborts below 50 so the crowd reflects genuine wide-area diversity).
    pub min_registered_clients: usize,
    /// Delay between the latency-measurement step and the intended arrival
    /// instant of the first epoch's requests.
    pub schedule_lead: SimDuration,
    /// Number of parallel requests each participating client issues
    /// (1 = standard MFC; 2 and 5 are the paper's MFC-mr variants).
    pub requests_per_client: usize,
    /// Optional staggering: when set, request arrivals at the target are
    /// spaced by this interval instead of being simultaneous (§6).
    pub stagger: Option<SimDuration>,
    /// Stages to run.
    pub stages: StageSelection,
    /// Quiescence-aware scheduling: when set, epochs that land in a
    /// detected background-load surge are flagged, delayed and re-run.
    /// `None` (the default, and the paper's behaviour) runs every epoch
    /// exactly once regardless of background conditions.
    pub quiescence: Option<QuiescencePolicy>,
    /// Fraction of clients that must see the degradation in the Large
    /// Object stage (the paper uses the 90th percentile instead of the
    /// median there); expressed as the detection quantile override.
    pub large_object_quantile: f64,
}

impl Default for MfcConfig {
    fn default() -> Self {
        MfcConfig::standard()
    }
}

impl MfcConfig {
    /// The standard MFC configuration: 100 ms threshold, increments of 5,
    /// a 50-client registration minimum and single requests per client.
    pub fn standard() -> Self {
        MfcConfig {
            threshold: SimDuration::from_millis(100),
            crowd_increment: 5,
            max_crowd: 55,
            min_registered_clients: 50,
            schedule_lead: SimDuration::from_secs(15),
            requests_per_client: 1,
            stagger: None,
            stages: StageSelection::All,
            quiescence: None,
            large_object_quantile: 0.9,
        }
    }

    /// The configuration used against QTNP and the university servers after
    /// consulting their operators: MFC-mr(2) with a 250 ms threshold and a
    /// larger crowd ceiling.
    pub fn cooperative_mr() -> Self {
        MfcConfig {
            threshold: SimDuration::from_millis(250),
            requests_per_client: 2,
            max_crowd: 75,
            crowd_increment: 5,
            ..MfcConfig::standard()
        }
    }

    /// Sets the degradation threshold.
    pub fn with_threshold(mut self, threshold: SimDuration) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the maximum crowd size.
    pub fn with_max_crowd(mut self, max_crowd: usize) -> Self {
        self.max_crowd = max_crowd;
        self
    }

    /// Sets the per-epoch crowd increment.
    pub fn with_increment(mut self, increment: usize) -> Self {
        self.crowd_increment = increment.max(1);
        self
    }

    /// Sets the minimum number of registered clients (use a small value for
    /// lab experiments with few client hosts).
    pub fn with_min_clients(mut self, min_clients: usize) -> Self {
        self.min_registered_clients = min_clients;
        self
    }

    /// Restricts the experiment to the given stages.
    pub fn with_stages(mut self, stages: Vec<Stage>) -> Self {
        self.stages = StageSelection::Only(stages);
        self
    }

    /// Sets the number of parallel requests per client (MFC-mr).
    pub fn with_requests_per_client(mut self, requests: usize) -> Self {
        self.requests_per_client = requests.max(1);
        self
    }

    /// Enables the staggered variant with the given inter-arrival spacing.
    pub fn with_stagger(mut self, spacing: SimDuration) -> Self {
        self.stagger = Some(spacing);
        self
    }

    /// Enables quiescence-aware scheduling with the given policy: epochs
    /// coinciding with a detected background-load surge are flagged,
    /// delayed by the policy's backoff and re-run.
    pub fn with_quiescence(mut self, policy: QuiescencePolicy) -> Self {
        self.quiescence = Some(policy);
        self
    }

    /// Sets the scheduling lead time — the gap between the start of an
    /// epoch and the intended arrival instant of its requests.  The paper
    /// uses 15 s over the wide area; live loopback experiments can use a
    /// few hundred milliseconds so the wall-clock run stays short.
    pub fn with_schedule_lead(mut self, lead: SimDuration) -> Self {
        self.schedule_lead = lead;
        self
    }

    /// The sequence of crowd sizes the coordinator will walk through.
    pub fn crowd_schedule(&self) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut size = self.crowd_increment.max(1);
        while size <= self.max_crowd {
            sizes.push(size);
            size += self.crowd_increment.max(1);
        }
        if sizes.last().copied() != Some(self.max_crowd) && self.max_crowd > 0 {
            sizes.push(self.max_crowd);
        }
        sizes
    }

    /// Checks the configuration for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.threshold.is_zero() {
            return Err("threshold must be positive".to_string());
        }
        if self.max_crowd == 0 {
            return Err("max_crowd must be at least 1".to_string());
        }
        if self.crowd_increment == 0 {
            return Err("crowd_increment must be at least 1".to_string());
        }
        if self.requests_per_client == 0 {
            return Err("requests_per_client must be at least 1".to_string());
        }
        if !(0.0..=1.0).contains(&self.large_object_quantile) {
            return Err("large_object_quantile must be within [0, 1]".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_matches_paper_defaults() {
        let cfg = MfcConfig::standard();
        assert_eq!(cfg.threshold, SimDuration::from_millis(100));
        assert_eq!(cfg.min_registered_clients, 50);
        assert_eq!(cfg.requests_per_client, 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn cooperative_mr_matches_section_4() {
        let cfg = MfcConfig::cooperative_mr();
        assert_eq!(cfg.threshold, SimDuration::from_millis(250));
        assert_eq!(cfg.requests_per_client, 2);
    }

    #[test]
    fn crowd_schedule_increments_and_caps() {
        let cfg = MfcConfig::standard().with_increment(10).with_max_crowd(45);
        assert_eq!(cfg.crowd_schedule(), vec![10, 20, 30, 40, 45]);
        let cfg = MfcConfig::standard().with_increment(5).with_max_crowd(20);
        assert_eq!(cfg.crowd_schedule(), vec![5, 10, 15, 20]);
    }

    #[test]
    fn builders_apply() {
        let cfg = MfcConfig::standard()
            .with_threshold(SimDuration::from_millis(250))
            .with_max_crowd(150)
            .with_min_clients(10)
            .with_requests_per_client(5)
            .with_stagger(SimDuration::from_millis(20))
            .with_stages(vec![Stage::Base]);
        assert_eq!(cfg.threshold, SimDuration::from_millis(250));
        assert_eq!(cfg.max_crowd, 150);
        assert_eq!(cfg.min_registered_clients, 10);
        assert_eq!(cfg.requests_per_client, 5);
        assert_eq!(cfg.stagger, Some(SimDuration::from_millis(20)));
        assert_eq!(cfg.stages.stages(), vec![Stage::Base]);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn stage_selection_all_is_ordered() {
        assert_eq!(
            StageSelection::All.stages(),
            vec![Stage::Base, Stage::SmallQuery, Stage::LargeObject]
        );
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut cfg = MfcConfig::standard();
        cfg.threshold = SimDuration::ZERO;
        assert!(cfg.validate().is_err());
        let mut cfg = MfcConfig::standard();
        cfg.max_crowd = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = MfcConfig::standard();
        cfg.large_object_quantile = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = MfcConfig::standard();
        cfg.requests_per_client = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_increment_is_normalised_by_builder() {
        let cfg = MfcConfig::standard().with_increment(0);
        assert_eq!(cfg.crowd_increment, 1);
    }
}
