//! Experiment scale selection.

use serde::{Deserialize, Serialize};

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Small populations and crowds: every experiment finishes in seconds.
    /// Used by the `experiments` bench and the unit tests.
    Quick,
    /// The paper's sample sizes (hundreds of servers per class, crowds up
    /// to the paper's ceilings).  Used by `repro --full` to produce the
    /// numbers recorded in `EXPERIMENTS.md`.
    Paper,
}

impl Scale {
    /// Picks between the quick and paper values.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Quick.pick(1, 100), 1);
        assert_eq!(Scale::Paper.pick(1, 100), 100);
    }
}
