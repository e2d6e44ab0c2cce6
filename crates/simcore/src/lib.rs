//! Discrete-event simulation core for the Mini-Flash Crowds (MFC) reproduction.
//!
//! The MFC paper evaluates its profiling technique against live web servers
//! reached over the wide-area Internet from PlanetLab client machines.  This
//! workspace reproduces those experiments on a laptop, so every layer below
//! the MFC algorithm itself is simulated.  `mfc-simcore` provides the
//! building blocks every other simulation crate relies on:
//!
//! * [`SimTime`] / [`SimDuration`] — a deterministic virtual clock with
//!   microsecond resolution,
//! * [`SimRng`] — a seedable random-number source with the handful of
//!   distributions the workload models need (exponential, log-normal,
//!   Pareto, truncated normal, …), and
//! * [`stats`] — the summary statistics the MFC coordinator and the
//!   experiment harness report (median, arbitrary percentiles, histograms,
//!   time-weighted utilization series).
//!
//! The simulations order their own events: the server engine, for one,
//! needs only three ordered completion sources and keeps no general event
//! queue.
//!
//! # Examples
//!
//! ```
//! use mfc_simcore::{SimDuration, SimRng, SimTime};
//!
//! let later = SimTime::ZERO + SimDuration::from_millis(5);
//! assert_eq!(later.as_millis_f64(), 5.0);
//! // The same seed always draws the same stream.
//! let (mut a, mut b) = (SimRng::seed_from(7), SimRng::seed_from(7));
//! assert_eq!(a.uniform_u64(0, 100), b.uniform_u64(0, 100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod stats;
pub mod time;

pub use rng::SimRng;
pub use stats::{Histogram, OnlineStats, Summary, TimeWeighted};
pub use time::{SimDuration, SimTime};
