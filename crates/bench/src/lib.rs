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
//! [`Scale::Quick`] runs small populations/crowds so everything completes in
//! seconds; [`Scale::Paper`] uses the paper's sample sizes (hundreds of
//! servers, crowds up to the paper's ceilings).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod scale;
pub mod synthetic_backend;

pub use scale::Scale;
pub use synthetic_backend::SyntheticBackend;
