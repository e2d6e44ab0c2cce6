//! Wide-area latency and client population model.
//!
//! The MFC clients in the paper are PlanetLab hosts: geographically diverse
//! machines whose round-trip times to a given target span roughly one order
//! of magnitude (tens to a couple of hundred milliseconds) and whose access
//! bandwidth varies from campus gigabit links to congested shared uplinks.
//! The coordinator compensates for the latency diversity when scheduling
//! requests; the residual *jitter* (the difference between the RTT measured
//! before the experiment and the RTT experienced when the scheduled command
//! and request actually travel) is what limits how tightly the crowd can be
//! synchronized — it is the source of the few-millisecond spread in Figure 3
//! and the sub-second spreads in Table 2.
//!
//! [`WideAreaModel`] generates a population of [`ClientNetProfile`]s from a
//! [`PopulationProfile`] and answers per-message delay queries with jitter.

use mfc_simcore::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

use crate::Bandwidth;

/// Network characteristics of one MFC client host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientNetProfile {
    /// Index of the client in the population (stable across runs).
    pub index: usize,
    /// Vantage group the client belongs to: clients of one group sit
    /// behind the same shared transit bottleneck and share a geographic
    /// neighbourhood (PlanetLab sites on one campus uplink).  Assigned
    /// round-robin (`index % vantage_groups`), matching
    /// `TopologySpec::group_of`.
    pub group: usize,
    /// Mean round-trip time between this client and the target server.
    pub rtt_target: SimDuration,
    /// Mean round-trip time between the coordinator and this client.
    pub rtt_coordinator: SimDuration,
    /// Downstream bandwidth of the client's access link in bytes/s.
    pub downlink: Bandwidth,
    /// Upstream bandwidth of the client's access link in bytes/s.
    pub uplink: Bandwidth,
    /// Standard deviation of per-message one-way latency jitter, as a
    /// fraction of the mean one-way delay.
    pub jitter_frac: f64,
}

impl ClientNetProfile {
    /// One-way delay to the target (half the RTT).
    pub fn one_way_target(&self) -> SimDuration {
        self.rtt_target.mul_f64(0.5)
    }

    /// One-way delay to the coordinator (half the RTT).
    pub fn one_way_coordinator(&self) -> SimDuration {
        self.rtt_coordinator.mul_f64(0.5)
    }
}

/// Distribution parameters for generating a client population.
///
/// The defaults approximate the PlanetLab population used in the paper:
/// RTTs to a US target mostly between 20 ms and 250 ms (log-normal-ish),
/// coordinator RTTs similar, university-grade access links of a few tens of
/// megabits per second, and a few percent of latency jitter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationProfile {
    /// Median client→target RTT.
    pub rtt_target_median: SimDuration,
    /// Sigma of the log-normal RTT distribution (in log-space).
    pub rtt_sigma: f64,
    /// Minimum RTT allowed after sampling.
    pub rtt_floor: SimDuration,
    /// Maximum RTT allowed after sampling.
    pub rtt_ceiling: SimDuration,
    /// Median client→coordinator RTT.
    pub rtt_coordinator_median: SimDuration,
    /// Median client downlink in bytes/s.
    pub downlink_median: Bandwidth,
    /// Sigma of the log-normal downlink distribution (log-space).
    pub downlink_sigma: f64,
    /// Uplink as a fraction of downlink.
    pub uplink_fraction: f64,
    /// Per-message jitter as a fraction of one-way delay.
    pub jitter_frac: f64,
    /// Number of vantage groups the clients cluster into (1 = the
    /// ungrouped population every pre-topology experiment uses).
    pub vantage_groups: usize,
    /// Multiplicative RTT skew across groups: group `g`'s RTTs are scaled
    /// by `1 + spread·(g − (G−1)/2)/G`, modelling geographic clustering
    /// (one group near the target, another far).  Zero keeps all groups
    /// statistically identical.
    pub group_rtt_spread: f64,
}

impl Default for PopulationProfile {
    fn default() -> Self {
        PopulationProfile {
            rtt_target_median: SimDuration::from_millis(80),
            rtt_sigma: 0.6,
            rtt_floor: SimDuration::from_millis(10),
            rtt_ceiling: SimDuration::from_millis(350),
            rtt_coordinator_median: SimDuration::from_millis(70),
            downlink_median: 4_000_000.0, // 32 Mbit/s
            downlink_sigma: 0.8,
            uplink_fraction: 0.5,
            jitter_frac: 0.04,
            vantage_groups: 1,
            group_rtt_spread: 0.0,
        }
    }
}

impl PopulationProfile {
    /// A population of clients close to the target (LAN-like), matching the
    /// controlled-lab validation setup of paper §3.2 where "clients \[are\]
    /// located on the same LAN as the server".
    pub fn lan() -> Self {
        PopulationProfile {
            rtt_target_median: SimDuration::from_millis(1),
            rtt_sigma: 0.2,
            rtt_floor: SimDuration::from_micros(200),
            rtt_ceiling: SimDuration::from_millis(3),
            rtt_coordinator_median: SimDuration::from_millis(1),
            downlink_median: 100_000_000.0, // gigabit-ish shared
            downlink_sigma: 0.1,
            uplink_fraction: 1.0,
            jitter_frac: 0.05,
            vantage_groups: 1,
            group_rtt_spread: 0.0,
        }
    }

    /// The PlanetLab-like wide-area population used for all remote
    /// experiments (the default).
    pub fn planetlab() -> Self {
        PopulationProfile::default()
    }

    /// The PlanetLab-like population clustered into `groups` vantage
    /// groups with a mild geographic RTT skew — the shape the simulation
    /// backend derives for a `TopologySpec` with one transit link per
    /// group (an explicitly grouped population matching the topology is
    /// respected as configured instead).
    pub fn grouped(groups: usize) -> Self {
        PopulationProfile {
            vantage_groups: groups.max(1),
            group_rtt_spread: 0.3,
            ..PopulationProfile::default()
        }
    }

    /// Clusters the population into `groups` vantage groups, keeping every
    /// other knob.
    pub fn with_vantage_groups(mut self, groups: usize) -> Self {
        self.vantage_groups = groups.max(1);
        self
    }
}

/// A generated wide-area client population plus jitter sampling.
#[derive(Debug, Clone)]
pub struct WideAreaModel {
    clients: Vec<ClientNetProfile>,
    rng: SimRng,
}

impl WideAreaModel {
    /// Generates `count` clients from `profile`, seeded by `rng`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mfc_simcore::SimRng;
    /// use mfc_simnet::{PopulationProfile, WideAreaModel};
    ///
    /// let rng = SimRng::seed_from(1);
    /// let wan = WideAreaModel::generate(&PopulationProfile::planetlab(), 65, &rng);
    /// assert_eq!(wan.clients().len(), 65);
    /// ```
    pub fn generate(profile: &PopulationProfile, count: usize, rng: &SimRng) -> Self {
        let mut gen_rng = rng.fork("wan-population");
        let mut clients = Vec::with_capacity(count);
        let mu_rtt = profile.rtt_target_median.as_secs_f64().max(1e-6).ln();
        let mu_coord = profile.rtt_coordinator_median.as_secs_f64().max(1e-6).ln();
        let mu_down = profile.downlink_median.max(1.0).ln();
        let groups = profile.vantage_groups.max(1);
        for index in 0..count {
            let group = index % groups;
            // Geographic clustering: each group's RTTs share a
            // deterministic multiplicative skew around the median.
            let centered = (group as f64 - (groups as f64 - 1.0) / 2.0) / groups as f64;
            let group_factor = (1.0 + profile.group_rtt_spread * centered).max(0.1);
            let rtt_target = SimDuration::from_secs_f64(
                (gen_rng.log_normal(mu_rtt, profile.rtt_sigma) * group_factor).clamp(
                    profile.rtt_floor.as_secs_f64(),
                    profile.rtt_ceiling.as_secs_f64(),
                ),
            );
            let rtt_coordinator =
                SimDuration::from_secs_f64(gen_rng.log_normal(mu_coord, profile.rtt_sigma).clamp(
                    profile.rtt_floor.as_secs_f64(),
                    profile.rtt_ceiling.as_secs_f64(),
                ));
            let downlink = gen_rng.log_normal(mu_down, profile.downlink_sigma);
            clients.push(ClientNetProfile {
                index,
                group,
                rtt_target,
                rtt_coordinator,
                downlink,
                uplink: downlink * profile.uplink_fraction,
                jitter_frac: profile.jitter_frac,
            });
        }
        WideAreaModel {
            clients,
            rng: rng.fork("wan-jitter"),
        }
    }

    /// The generated client profiles, indexed by client number.
    pub fn clients(&self) -> &[ClientNetProfile] {
        &self.clients
    }

    /// Profile of a single client.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn client(&self, index: usize) -> &ClientNetProfile {
        &self.clients[index]
    }

    /// Samples the actual one-way delay for a message whose mean one-way
    /// delay is `mean`, applying the population's jitter.
    ///
    /// Jitter is multiplicative and clamped at ±3σ, never letting the delay
    /// go below 20% of its mean (queueing can add delay but the speed of
    /// light puts a floor under it).
    pub fn jittered_delay(&mut self, mean: SimDuration, jitter_frac: f64) -> SimDuration {
        if mean.is_zero() || jitter_frac <= 0.0 {
            return mean;
        }
        let factor = self
            .rng
            .normal_clamped(
                1.0,
                jitter_frac,
                1.0 - 3.0 * jitter_frac,
                1.0 + 3.0 * jitter_frac,
            )
            .max(0.2);
        mean.mul_f64(factor)
    }

    /// Samples the one-way coordinator→client delay for `client`.
    pub fn coordinator_to_client(&mut self, client: usize) -> SimDuration {
        let profile = self.clients[client].clone();
        self.jittered_delay(profile.one_way_coordinator(), profile.jitter_frac)
    }

    /// Measured round-trip time from the coordinator to `client`, as the
    /// coordinator would observe it during registration (one jittered sample
    /// of the full RTT).
    pub fn measure_coordinator_rtt(&mut self, client: usize) -> SimDuration {
        let profile = self.clients[client].clone();
        self.jittered_delay(profile.rtt_coordinator, profile.jitter_frac)
    }

    /// Measured round-trip time from `client` to the target, as the client
    /// would observe it during the delay-computation step.
    pub fn measure_target_rtt(&mut self, client: usize) -> SimDuration {
        let profile = self.clients[client].clone();
        self.jittered_delay(profile.rtt_target, profile.jitter_frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(count: usize) -> WideAreaModel {
        WideAreaModel::generate(
            &PopulationProfile::planetlab(),
            count,
            &SimRng::seed_from(42),
        )
    }

    #[test]
    fn generates_requested_count_with_stable_indices() {
        let wan = model(65);
        assert_eq!(wan.clients().len(), 65);
        for (i, c) in wan.clients().iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn rtts_respect_floor_and_ceiling() {
        let profile = PopulationProfile::planetlab();
        let wan = model(200);
        for c in wan.clients() {
            assert!(c.rtt_target >= profile.rtt_floor);
            assert!(c.rtt_target <= profile.rtt_ceiling);
            assert!(c.rtt_coordinator >= profile.rtt_floor);
            assert!(c.rtt_coordinator <= profile.rtt_ceiling);
        }
    }

    #[test]
    fn population_is_heterogeneous() {
        let wan = model(100);
        let min = wan.clients().iter().map(|c| c.rtt_target).min().unwrap();
        let max = wan.clients().iter().map(|c| c.rtt_target).max().unwrap();
        // The wide-area population must span a meaningful RTT range — that
        // heterogeneity is exactly what the synchronization scheduler exists
        // to compensate for.
        assert!(max.as_millis_f64() > 2.0 * min.as_millis_f64());
    }

    #[test]
    fn same_seed_same_population() {
        let a = model(30);
        let b = model(30);
        assert_eq!(a.clients(), b.clients());
    }

    #[test]
    fn lan_population_is_fast_and_uniform() {
        let wan = WideAreaModel::generate(&PopulationProfile::lan(), 50, &SimRng::seed_from(7));
        for c in wan.clients() {
            assert!(c.rtt_target <= SimDuration::from_millis(3));
        }
    }

    #[test]
    fn vantage_groups_cluster_round_robin_with_rtt_skew() {
        let profile = PopulationProfile::grouped(4);
        let wan = WideAreaModel::generate(&profile, 80, &SimRng::seed_from(11));
        for client in wan.clients() {
            assert_eq!(client.group, client.index % 4);
        }
        // The far group's mean RTT must exceed the near group's: the
        // deterministic skew separates them beyond sampling noise.
        let mean_rtt = |group: usize| {
            let rtts: Vec<f64> = wan
                .clients()
                .iter()
                .filter(|c| c.group == group)
                .map(|c| c.rtt_target.as_millis_f64())
                .collect();
            rtts.iter().sum::<f64>() / rtts.len() as f64
        };
        assert!(
            mean_rtt(3) > mean_rtt(0),
            "group RTT skew missing: {} vs {}",
            mean_rtt(0),
            mean_rtt(3)
        );
        // Ungrouped populations stay in the single implicit group.
        let flat =
            WideAreaModel::generate(&PopulationProfile::planetlab(), 10, &SimRng::seed_from(1));
        assert!(flat.clients().iter().all(|c| c.group == 0));
    }

    #[test]
    fn jitter_stays_near_mean() {
        let mut wan = model(10);
        let mean = SimDuration::from_millis(100);
        for _ in 0..1_000 {
            let d = wan.jittered_delay(mean, 0.04);
            let ratio = d.as_millis_f64() / mean.as_millis_f64();
            assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn zero_jitter_returns_mean() {
        let mut wan = model(5);
        let mean = SimDuration::from_millis(42);
        assert_eq!(wan.jittered_delay(mean, 0.0), mean);
        assert_eq!(
            wan.jittered_delay(SimDuration::ZERO, 0.5),
            SimDuration::ZERO
        );
    }

    #[test]
    fn one_way_is_half_rtt() {
        let wan = model(3);
        let c = wan.client(0);
        // Halving rounds to the nearest microsecond, so allow 1µs of slack
        // when doubling back.
        let double_target = c.one_way_target() * 2;
        let diff = double_target
            .saturating_sub(c.rtt_target)
            .max(c.rtt_target.saturating_sub(double_target));
        assert!(diff <= SimDuration::from_micros(1));
        let double_coord = c.one_way_coordinator() * 2;
        let diff = double_coord
            .saturating_sub(c.rtt_coordinator)
            .max(c.rtt_coordinator.saturating_sub(double_coord));
        assert!(diff <= SimDuration::from_micros(1));
    }

    #[test]
    fn measured_rtts_are_positive_and_plausible() {
        let mut wan = model(20);
        for i in 0..20 {
            let coord = wan.measure_coordinator_rtt(i);
            let target = wan.measure_target_rtt(i);
            assert!(coord > SimDuration::ZERO);
            assert!(target > SimDuration::ZERO);
            // Within a factor of two of the underlying mean.
            let mean = wan.client(i).rtt_target.as_millis_f64();
            assert!((target.as_millis_f64() / mean) < 2.0);
        }
    }
}
