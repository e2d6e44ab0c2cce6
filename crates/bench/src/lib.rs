//! Experiment harness regenerating every table and figure of the MFC paper.
//!
//! Each submodule of [`experiments`] corresponds to one table or figure of
//! the paper's evaluation and produces a structured result plus a
//! paper-style text rendering.  [`experiments::EXPERIMENTS`] lists them once,
//! by name, and that table is driven three ways:
//!
//! * the `repro` binary (`cargo run -p mfc-bench --bin repro -- <experiment>`)
//!   prints the tables and writes JSON artifacts,
//! * the `experiments` bench prints each table once and times each
//!   experiment at [`Scale::Quick`], and
//! * `EXPERIMENTS.md` records the measured numbers next to the paper's.
//!
//! Every experiment runs the paper's MFC configuration, client counts and
//! crowd lists at both scales.  [`Scale`] sets only how many sites a §5
//! survey samples: [`Scale::Quick`] probes the first 8 of each sample, so
//! everything completes in well under a second; [`Scale::Paper`] probes the
//! paper's sample sizes (hundreds of servers per class).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod scale;
pub mod synthetic_backend;

pub use scale::Scale;
pub use synthetic_backend::SyntheticBackend;
