//! (Ours) The shared-bottleneck topology scenario matrix.
//!
//! The paper's central inference hazard (§2.2.3) is mistaking congestion
//! *somewhere on the path* for a constraint *at the server* — its answer is
//! the 90th-percentile detector, which dodges bottlenecks private to a few
//! clients but is helpless when a whole vantage group shares one.  This
//! experiment moves the bandwidth bottleneck around a multi-hop WAN graph
//! and asks, per cell: where does the Large Object stage stop, and does the
//! vantage-aware localization attribute the stop honestly?
//!
//! Two servers (a fortress with a gigabit access link, the 10 Mbit/s lab
//! box) × five network scenarios.  The interesting diagonal:
//!
//! * `transit-pinned` against the fortress must read **path congestion**,
//!   not a server bandwidth constraint — the false-positive the static
//!   methodology cannot avoid;
//! * `direct` against the lab box must keep its genuine **server**
//!   verdict — localization must not talk itself out of real constraints;
//! * `rate-limited` (a per-client clamp behind a clean multi-group WAN)
//!   must stay attributed to the **defense**: both a path clamp and a rate
//!   limit leave the access link idle, but only the path clamp is
//!   asymmetric across groups;
//! * `backbone-thin` documents the honest limit: a bottleneck *every*
//!   group shares is remotely indistinguishable from the server's access
//!   link, and the matrix records that it still reads as a constraint.

use mfc_core::backend::sim::{SimBackend, SimTargetSpec};
use mfc_core::config::MfcConfig;
use mfc_core::coordinator::Coordinator;
use mfc_core::inference::DegradationCause;
use mfc_core::types::Stage;
use mfc_dynamics::DefenseConfig;
use mfc_simnet::mbps;
use mfc_topology::TopologySpec;
use serde::{Deserialize, Serialize};

use super::TargetRow;

/// The network scenarios on the matrix's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetScenario {
    /// The paper's assumption: a transparent network, access link only.
    Direct,
    /// One of four vantage groups behind an undersized shared transit
    /// link; the other three reach the target cleanly.
    TransitPinned,
    /// A clean transit squeezed by persistent cross traffic instead of by
    /// the probe crowd itself.
    TransitCross,
    /// Every group funneled through one undersized backbone in front of
    /// the access link — a shared bottleneck with no unaffected group.
    BackboneThin,
    /// A clean multi-group WAN, but the target runs a per-client rate
    /// limiter (the PR 3 interaction: path clamp vs. defense clamp).
    RateLimited,
}

impl NetScenario {
    /// All scenarios in column order.
    pub const ALL: [NetScenario; 5] = [
        NetScenario::Direct,
        NetScenario::TransitPinned,
        NetScenario::TransitCross,
        NetScenario::BackboneThin,
        NetScenario::RateLimited,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            NetScenario::Direct => "direct",
            NetScenario::TransitPinned => "transit-pinned",
            NetScenario::TransitCross => "transit-cross",
            NetScenario::BackboneThin => "backbone-thin",
            NetScenario::RateLimited => "rate-limited",
        }
    }

    fn clean_star() -> TopologySpec {
        TopologySpec::star(&[mbps(1000.0), mbps(1000.0), mbps(1000.0), mbps(1000.0)])
    }

    /// The WAN topology and defenses the scenario arms the world with.
    fn apply(self, spec: SimTargetSpec) -> SimTargetSpec {
        match self {
            NetScenario::Direct => spec,
            NetScenario::TransitPinned => spec.with_topology(TopologySpec::star(&[
                mbps(1.6),
                mbps(1000.0),
                mbps(1000.0),
                mbps(1000.0),
            ])),
            NetScenario::TransitCross => spec.with_topology(
                TopologySpec::star(&[mbps(8.0), mbps(1000.0), mbps(1000.0), mbps(1000.0)])
                    // 6 × 150 kB/s of cross traffic leaves ~100 kB/s of the
                    // 1 MB/s transit for the whole pinned group.
                    .with_cross_traffic(0, 6, 150_000.0),
            ),
            NetScenario::BackboneThin => {
                spec.with_topology(Self::clean_star().with_backbone(mbps(16.0)))
            }
            NetScenario::RateLimited => spec
                .with_topology(Self::clean_star())
                .with_defenses(DefenseConfig::rate_limited(1.0, 0.002, 16.0 * 1024.0)),
        }
    }
}

/// One cell: one server behind one network scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyCell {
    /// Server row label.
    pub server: String,
    /// Network scenario label.
    pub scenario: String,
    /// Large Object stopping crowd (`None` = NoStop).
    pub large_object: Option<usize>,
    /// Attributed cause of the Large Object outcome.
    pub cause: DegradationCause,
    /// Whether the inference localized the degradation to the path.
    pub path_suspected: bool,
    /// Whether the inference flagged a reacting defense.
    pub defense_suspected: bool,
    /// MFC requests issued during the run.
    pub mfc_requests: usize,
}

/// The full matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyMatrixResult {
    /// Cells in (server-major, scenario-minor) order.
    pub cells: Vec<TopologyCell>,
}

impl TopologyMatrixResult {
    /// The cell for a server/scenario pair.
    pub fn cell(&self, server: TargetRow, scenario: NetScenario) -> Option<&TopologyCell> {
        self.cells
            .iter()
            .find(|c| c.server == server.label() && c.scenario == scenario.label())
    }

    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from(
            "Topology matrix — where the bandwidth bottleneck sits vs. what the MFC reports\n",
        );
        out.push_str(&format!(
            "  {:<10} {:<15} {:>9} {:>20} {:>8} {:>8}\n",
            "Server", "Network", "LargeObj", "Cause", "Path?", "Defense?"
        ));
        for row in &self.cells {
            let crowd = match row.large_object {
                Some(c) => c.to_string(),
                None => "NoStop".to_string(),
            };
            out.push_str(&format!(
                "  {:<10} {:<15} {:>9} {:>20} {:>8} {:>8}\n",
                row.server,
                row.scenario,
                crowd,
                format!("{:?}", row.cause),
                if row.path_suspected { "PATH" } else { "-" },
                if row.defense_suspected {
                    "DEFENSE"
                } else {
                    "-"
                },
            ));
        }
        out.push_str(
            "  transit-pinned against the fortress is the paper's §2.2.3 hazard made concrete:\n\
             \x20 the stage stops, but the verdict localizes to the shared path instead of\n\
             \x20 fabricating a server bandwidth constraint.  backbone-thin records the honest\n\
             \x20 limit — a bottleneck every vantage group shares cannot be told apart remotely.\n",
        );
        out
    }
}

fn run_cell(server: TargetRow, scenario: NetScenario, clients: usize, seed: u64) -> TopologyCell {
    let spec = scenario.apply(server.spec());
    let config = MfcConfig::standard()
        .with_stages(vec![Stage::LargeObject])
        .with_max_crowd(40)
        .with_increment(10);
    let mut backend = SimBackend::new(spec, clients, seed);
    let report = Coordinator::new(config)
        .with_seed(seed ^ 0x70_70)
        .run(&mut backend)
        .expect("enough clients");
    TopologyCell {
        server: server.label().to_string(),
        scenario: scenario.label().to_string(),
        large_object: report.stopping_crowd(Stage::LargeObject),
        cause: report
            .inference
            .cause_of(Stage::LargeObject)
            .unwrap_or(DegradationCause::Indeterminate),
        path_suspected: report.inference.path_congestion_suspected(),
        defense_suspected: report.inference.defense_suspected(),
        mfc_requests: report.total_requests,
    }
}

/// Runs the matrix: each (server, scenario) cell is an independent trial on
/// the shared [`TrialRunner`](mfc_core::runner::TrialRunner).
pub fn run(seed: u64) -> TopologyMatrixResult {
    let clients = 75;
    let cells = super::grid(
        &TargetRow::ALL,
        &NetScenario::ALL,
        seed,
        |server, scenario, cell_seed| run_cell(server, scenario, clients, cell_seed),
    );
    TopologyMatrixResult { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_localizes_the_moved_bottleneck() {
        let result = run(77);
        assert_eq!(result.cells.len(), 10);

        // The fortress shrugs off the crowd over a transparent network...
        let baseline = result
            .cell(TargetRow::Fortress, NetScenario::Direct)
            .unwrap();
        assert_eq!(baseline.large_object, None, "{baseline:?}");
        assert!(!baseline.path_suspected);

        // ...but the same crowd "stops" it once one group is pinned behind
        // a thin transit — and the verdict must say path, not server.
        let pinned = result
            .cell(TargetRow::Fortress, NetScenario::TransitPinned)
            .unwrap();
        assert!(pinned.large_object.is_some(), "{pinned:?}");
        assert_eq!(pinned.cause, DegradationCause::PathCongestion, "{pinned:?}");
        assert!(pinned.path_suspected);
        assert!(!pinned.defense_suspected);

        // The genuinely thin server keeps its honest constraint verdict.
        let thin = result
            .cell(TargetRow::ThinLink, NetScenario::Direct)
            .unwrap();
        assert!(thin.large_object.is_some(), "{thin:?}");
        assert_eq!(thin.cause, DegradationCause::ResourceConstraint, "{thin:?}");

        // A symmetric per-client clamp stays a defense, never a path.
        let limited = result
            .cell(TargetRow::Fortress, NetScenario::RateLimited)
            .unwrap();
        assert_eq!(
            limited.cause,
            DegradationCause::RateLimitDefense,
            "{limited:?}"
        );
        assert!(!limited.path_suspected);

        assert!(result.render_text().contains("transit-pinned"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(NetScenario::TransitPinned.label(), "transit-pinned");
        assert_eq!(TargetRow::Fortress.label(), "fortress");
        assert_eq!(NetScenario::ALL.len(), 5);
    }
}
