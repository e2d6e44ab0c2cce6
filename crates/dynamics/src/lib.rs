//! Reactive server defenses for the MFC reproduction.
//!
//! The paper profiles *static* targets: whatever crowd size first saturates
//! a fixed resource is reported as that sub-system's constraint.  Real
//! deployments fight back — clouds scale out under flash crowds, overload
//! controllers shed requests with 503s, and per-client rate limiters clamp
//! exactly the kind of repeated probing an MFC performs.  This crate
//! packages those reactions as three policies driven on a deterministic
//! virtual-time tick:
//!
//! * [`AutoScaler`] — adds/removes cluster replicas against an in-flight
//!   load target, with a cloud-style provisioning lag and cooldown,
//! * [`AdmissionController`] — sheds load (503) on queue depth, outstanding
//!   requests, or a per-window admission budget (surge protection),
//! * [`TokenBucketRateLimiter`] — per-client-address token buckets that
//!   bandwidth-clamp clients who probe too often, which directly
//!   interferes with MFC probe clients across epochs.
//!
//! Each replica's link and CPU capacity stay as configured for the whole
//! run: the policies act only through the replica count and per-arrival
//! verdicts.
//!
//! A [`DefenseStack`] composes any subset of them behind
//! [`mfc_webserver::ServerControl`], so the stack hosts a
//! [`mfc_webserver::ServerCluster`] run (a single server is a cluster of
//! one) — and is carried across MFC epochs, so bucket fill levels and
//! provisioning decisions have memory, exactly like a real target.  The
//! [`DefenseConfig`] serializable description is what scenario matrices
//! and experiment artifacts record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod autoscaler;
pub mod ratelimit;
pub mod stack;

pub use admission::{AdmissionController, AdmissionControllerConfig};
pub use autoscaler::{AutoScaler, AutoScalerConfig};
pub use ratelimit::{TokenBucketConfig, TokenBucketRateLimiter};
pub use stack::{DefenseConfig, DefenseStack};
