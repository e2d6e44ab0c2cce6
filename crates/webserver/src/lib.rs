//! Web-server resource model for the MFC reproduction.
//!
//! The paper profiles real server deployments (an Apache lab server, a top-50
//! commercial site, university departmental servers, hundreds of ranked
//! sites).  This crate replaces all of them with an event-driven resource
//! model whose knobs correspond to the sub-systems the MFC technique is
//! designed to tell apart:
//!
//! * the **access link** (shared outbound bandwidth — the Large Object
//!   stage's target),
//! * **basic HTTP request processing** (worker pool + per-request CPU — the
//!   Base stage's target),
//! * the **back-end data processing sub-system** (database cost, query
//!   cache, dynamic-content handler — the Small Query stage's target),
//! * plus the cross-cutting resources the paper discusses qualitatively:
//!   memory (FastCGI fork-per-request blow-up, Figure 6), the disk, listen
//!   queues / thread limits (the Univ-2 artifact), server-side object
//!   caches, load-balanced clusters (the QTP data centre) and background
//!   traffic from regular users.
//!
//! The crate deliberately knows nothing about the MFC algorithm; it answers
//! one question: *given a set of timed request arrivals, when does each
//! response finish and what did the server's resources look like while it
//! was happening?*  (`mfc-core` turns those answers into bottleneck
//! inferences.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod background;
pub mod cache;
pub mod cluster;
pub mod config;
pub mod content;
pub mod control;
pub mod engine;
pub mod request;
pub mod resource;
pub mod synthetic;
pub mod telemetry;

pub use background::{BackgroundMix, BackgroundTraffic, CatalogSampler};
pub use cache::CacheState;
pub use cluster::ServerCluster;
pub use config::{
    DatabaseConfig, DynamicHandler, HardwareSpec, ObjectCacheConfig, ServerConfig, WorkerConfig,
};
pub use content::{ContentCatalog, ObjectId, ObjectKind, ObjectSpec};
pub use control::{AdmissionVerdict, NullControl, ServerControl, TickSample};
pub use engine::{EngineSession, ServerEngine};
pub use request::{RequestClass, RequestOutcome, RequestStatus, ServerRequest};
pub use synthetic::{ResponseModel, SyntheticServer};
pub use telemetry::UtilizationReport;

pub use mfc_topology::{TopologySpec, TransitSpec};
pub use mfc_workload::{WorkloadSpec, WorkloadStream};
