//! Deterministic streaming workload generation for the MFC reproduction.
//!
//! Every cooperating-site experiment in the paper runs against a server that
//! is simultaneously serving its regular users, and the paper explicitly
//! recommends running MFCs under *diverse* background conditions: Univ-3's
//! Base-stage stopping size visibly shifted with background load, and the
//! QTP production system served millions of non-MFC requests during the test
//! window (§4).  Real web traffic is nothing like the flat Poisson process
//! the early model used: it is session-structured, heavy-tailed and diurnal
//! (Aghili et al., arXiv:2409.12299), and organic flash-crowd surges mimic
//! exactly the degradation an MFC probes for (de Paula et al.,
//! arXiv:1410.2834).
//!
//! This crate provides that realism behind one serializable
//! [`WorkloadSpec`]:
//!
//! * **arrival processes** ([`ArrivalProcess`]) — constant Poisson,
//!   piecewise/diurnal rate schedules, Markov-modulated Poisson burstiness
//!   and organic flash-crowd ramp events;
//! * **session models** ([`SessionModel`]) — Markov page graphs with
//!   think times and embedded-object fetches, so load arrives as correlated
//!   request *trains* instead of independent requests;
//! * **a lazily evaluated merged stream** ([`WorkloadStream`]) — a heap of
//!   per-source next-arrivals, O(log S) per emitted request with S the
//!   number of sources plus *currently active* sessions, so million-session
//!   populations stream through a simulation without ever materializing the
//!   request list up front.
//!
//! The crate deliberately knows nothing about the web-server model: concrete
//! requests are produced by a caller-supplied [`RequestSampler`], which maps
//! each abstract [`RequestIntent`] (plus the shared per-source RNG, so the
//! draw order is part of the contract) onto whatever request type the
//! simulation consumes.  `mfc-webserver` provides the sampler over its
//! `ContentCatalog`; this crate provides the arithmetic.
//!
//! Everything is driven by [`mfc_simcore::SimRng`]: the same spec, window
//! and seed produce bit-identical streams on any platform and any
//! `MFC_THREADS` setting (the stream never reads environment or wall-clock
//! state).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod session;
pub mod spec;
pub mod stream;
pub mod tail;

pub use arrival::{ArrivalProcess, MmppState, RateSegment};
pub use session::{PageSpec, SessionModel, SESSION_REQUEST_CAP};
pub use spec::{ClientSpec, MixWeights, RequestModel, SourceSpec, WorkloadSpec};
pub use stream::{
    KindSampler, RequestContext, RequestIntent, RequestKind, RequestSampler, WorkloadStream,
};
pub use tail::TailDistribution;
