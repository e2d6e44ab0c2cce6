//! Figure 3: how tightly a 45-client crowd's requests arrive at the target.
//!
//! The paper logs request arrival times at its validation server for a
//! crowd of 45 PlanetLab clients and finds that "about 70% of the requests
//! arrive within 5 ms of each other … and 90% of the requests arrive within
//! 30 ms of each other".  We rerun the same probe against the simulated
//! validation server and report the same two numbers plus the full arrival
//! offset series.

use mfc_core::backend::sim::{SimBackend, SimTargetSpec};
use mfc_core::config::MfcConfig;
use mfc_core::coordinator::Coordinator;
use mfc_core::types::Stage;
use mfc_simcore::SimTime;
use mfc_webserver::{ContentCatalog, ServerConfig};
use serde::{Deserialize, Serialize};

/// Result of the synchronization experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Crowd size used.
    pub crowd: usize,
    /// Arrival offsets (milliseconds after the earliest arrival), sorted.
    pub arrival_offsets_ms: Vec<f64>,
    /// Fraction of requests arriving within 5 ms of each other (computed
    /// over the tightest window, as the paper reads its figure).
    pub fraction_within_5ms: f64,
    /// Fraction of requests arriving within 30 ms of each other.
    pub fraction_within_30ms: f64,
}

impl Fig3Result {
    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "Figure 3 — arrival times at the target for an MFC with {} clients\n",
            self.crowd
        );
        out.push_str(&format!(
            "  {:.0}% of requests arrive within 5 ms of each other (paper: ~70%)\n",
            self.fraction_within_5ms * 100.0
        ));
        out.push_str(&format!(
            "  {:.0}% of requests arrive within 30 ms of each other (paper: ~90%)\n",
            self.fraction_within_30ms * 100.0
        ));
        out.push_str("  arrival offsets (ms): ");
        let offsets: Vec<String> = self
            .arrival_offsets_ms
            .iter()
            .map(|o| format!("{o:.1}"))
            .collect();
        out.push_str(&offsets.join(" "));
        out.push('\n');
        out
    }
}

/// Largest fraction of the sorted arrival times that fits inside a window
/// of `window_ms` milliseconds.
///
/// Two-pointer sweep: `start` only ever moves forward as `end` does, so the
/// scan is O(n) over the sorted offsets (the previous per-start rescan was
/// O(n²), which showed up at paper-scale crowd sizes).
fn fraction_within(offsets_ms: &[f64], window_ms: f64) -> f64 {
    if offsets_ms.is_empty() {
        return 0.0;
    }
    debug_assert!(
        offsets_ms.windows(2).all(|w| w[0] <= w[1]),
        "fraction_within expects sorted offsets"
    );
    let mut best = 1usize;
    let mut start = 0usize;
    for end in 0..offsets_ms.len() {
        while offsets_ms[end] - offsets_ms[start] > window_ms {
            start += 1;
        }
        best = best.max(end - start + 1);
    }
    best as f64 / offsets_ms.len() as f64
}

/// Runs the Figure 3 experiment.
pub fn run(seed: u64) -> Fig3Result {
    let crowd = 45;
    let clients = 65;
    let spec = SimTargetSpec::single_server(
        ServerConfig::validation_server(),
        ContentCatalog::lab_validation(),
    );
    let mut backend = SimBackend::new(spec, clients, seed);
    let coordinator =
        Coordinator::new(MfcConfig::standard().with_min_clients(crowd)).with_seed(seed);
    let (_, observation) = coordinator
        .probe_crowd(&mut backend, Stage::Base, crowd)
        .expect("enough clients for the synchronization probe");

    let mut arrivals: Vec<SimTime> = observation.target_arrivals.clone();
    arrivals.sort_unstable();
    let first = arrivals.first().copied().unwrap_or(SimTime::ZERO);
    let offsets_ms: Vec<f64> = arrivals
        .iter()
        .map(|a| a.saturating_since(first).as_millis_f64())
        .collect();

    Fig3Result {
        crowd,
        fraction_within_5ms: fraction_within(&offsets_ms, 5.0),
        fraction_within_30ms: fraction_within(&offsets_ms, 30.0),
        arrival_offsets_ms: offsets_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_within_window_logic() {
        let offsets = [0.0, 1.0, 2.0, 3.0, 100.0];
        assert!((fraction_within(&offsets, 5.0) - 0.8).abs() < 1e-9);
        assert!((fraction_within(&offsets, 200.0) - 1.0).abs() < 1e-9);
        assert_eq!(fraction_within(&[], 5.0), 0.0);
        // The best window need not start at the first offset.
        let late_cluster = [0.0, 50.0, 51.0, 52.0, 53.0, 200.0];
        assert!((fraction_within(&late_cluster, 5.0) - 4.0 / 6.0).abs() < 1e-9);
        // Zero-width window still counts exact ties.
        let ties = [1.0, 1.0, 1.0, 9.0];
        assert!((fraction_within(&ties, 0.0) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn fraction_within_matches_quadratic_reference_on_random_inputs() {
        let reference = |offsets: &[f64], window: f64| -> f64 {
            if offsets.is_empty() {
                return 0.0;
            }
            let n = offsets.len();
            let mut best = 1usize;
            for start in 0..n {
                let mut end = start;
                while end + 1 < n && offsets[end + 1] - offsets[start] <= window {
                    end += 1;
                }
                best = best.max(end - start + 1);
            }
            best as f64 / n as f64
        };
        let mut rng = mfc_simcore::SimRng::seed_from(0xf13);
        for _ in 0..50 {
            let mut offsets: Vec<f64> = (0..rng.index(80) + 1)
                .map(|_| rng.uniform(0.0, 250.0))
                .collect();
            offsets.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let window = rng.uniform(0.0, 60.0);
            assert_eq!(
                fraction_within(&offsets, window),
                reference(&offsets, window),
                "offsets {offsets:?} window {window}"
            );
        }
    }

    #[test]
    fn synchronization_matches_paper_shape() {
        let result = run(7);
        assert_eq!(result.arrival_offsets_ms.len(), result.crowd);
        // The delay-compensating scheduler must land the bulk of the crowd
        // within tens of milliseconds, as in the paper.
        assert!(
            result.fraction_within_30ms >= 0.7,
            "only {:.0}% within 30 ms",
            result.fraction_within_30ms * 100.0
        );
        assert!(result.fraction_within_5ms <= result.fraction_within_30ms);
        assert!(result.render_text().contains("Figure 3"));
    }
}
