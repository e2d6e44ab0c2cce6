//! Experiment scale selection.

use serde::{Deserialize, Serialize};

/// How many sites a §5 survey (Figures 7–9, Tables 4 and 5) samples.
///
/// Scale never changes a trial's parameters: every experiment runs the
/// paper's MFC configuration, client counts, crowd lists and scenarios at
/// both scales, and the §4 and lab experiments run identically.  A quick
/// survey probes the first sites of the paper's sample, so each of its
/// outcome lists is a prefix of the paper-scale one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// The first 8 sites of each survey, so every experiment finishes in
    /// well under a second.  Used by the `experiments` bench and the unit
    /// tests.
    Quick,
    /// The paper's survey sample sizes (hundreds of servers per class).
    /// Used by `repro --full` to produce the numbers recorded in
    /// `EXPERIMENTS.md`.
    Paper,
}
