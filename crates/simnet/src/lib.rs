//! Flow-level wide-area network model for the MFC reproduction.
//!
//! The paper runs its Mini-Flash Crowds from ~50–85 PlanetLab hosts spread
//! across the Internet against remote production web servers.  What matters
//! to the MFC algorithm is not packet-level fidelity but four network
//! effects, all of which this crate models:
//!
//! 1. **Heterogeneous round-trip times** between coordinator ↔ client and
//!    client ↔ target, which the coordinator's synchronization scheduler
//!    compensates for ([`latency`]).
//! 2. **The target's access link** becoming the bottleneck when many large
//!    responses are in flight simultaneously — modelled as a max–min fair
//!    fluid link shared by all active flows ([`link`]).
//! 3. **TCP connection setup and slow start**, which determine when the
//!    first byte of the HTTP request reaches the server and how quickly a
//!    transfer can ramp up ([`tcp`]).
//! 4. **A lossy UDP control plane** between the coordinator and its clients,
//!    responsible for the "scheduled vs. received" gaps visible in Table 2
//!    of the paper ([`udp`]).
//!
//! The crate is deliberately independent of the web-server resource model
//! (`mfc-webserver`) and of the MFC logic (`mfc-core`); it only knows about
//! bytes, delays and flows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capset;
pub mod heap;
pub mod latency;
pub mod link;
pub mod tcp;
pub mod udp;

pub use capset::CapMultiset;
pub use latency::{ClientNetProfile, PopulationProfile, WideAreaModel};
pub use link::{FlowId, FluidLink, NaiveFluidLink};
pub use tcp::TcpModel;
pub use udp::ControlChannel;

/// Bytes-per-second bandwidth, stored as `f64` for fluid-model arithmetic.
pub type Bandwidth = f64;

/// Converts megabits per second into bytes per second.
///
/// # Examples
///
/// ```
/// assert_eq!(mfc_simnet::mbps(8.0), 1_000_000.0);
/// ```
pub fn mbps(megabits_per_second: f64) -> Bandwidth {
    megabits_per_second * 1_000_000.0 / 8.0
}

/// Converts kilobits per second into bytes per second.
///
/// # Examples
///
/// ```
/// assert_eq!(mfc_simnet::kbps(8.0), 1_000.0);
/// ```
pub fn kbps(kilobits_per_second: f64) -> Bandwidth {
    kilobits_per_second * 1_000.0 / 8.0
}
