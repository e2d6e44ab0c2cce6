//! Figure 4: does the MFC's median normalized response time track a known
//! synthetic response-time function of the crowd size?
//!
//! The validation server applies `f(n)` milliseconds of extra delay when
//! `n` requests are simultaneous; the experiment sweeps the crowd size and
//! compares the MFC-measured median normalized response time against the
//! ideal `f(n)` for a linear and an exponential `f`.

use mfc_core::config::MfcConfig;
use mfc_core::coordinator::Coordinator;
use mfc_core::runner::TrialRunner;
use mfc_core::types::Stage;
use mfc_simcore::SimDuration;
use mfc_webserver::{ResponseModel, SyntheticServer};
use serde::{Deserialize, Serialize};

use crate::SyntheticBackend;

/// One point of the tracking curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackingPoint {
    /// Crowd size.
    pub crowd: usize,
    /// The model's ideal added delay at this crowd size, in ms.
    pub ideal_ms: f64,
    /// The MFC-measured median normalized response time, in ms.
    pub measured_ms: f64,
}

/// The tracking curve for one response model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackingCurve {
    /// Human-readable model name ("linear", "exponential").
    pub model: String,
    /// Measured points, in increasing crowd order.
    pub points: Vec<TrackingPoint>,
    /// Mean absolute tracking error in milliseconds.
    pub mean_abs_error_ms: f64,
}

/// Result of the Figure 4 experiment (both sub-figures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Figure 4(a): the linear model.
    pub linear: TrackingCurve,
    /// Figure 4(b): the exponential model.
    pub exponential: TrackingCurve,
}

impl Fig4Result {
    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Figure 4 — tracking synthetic response time functions\n");
        for curve in [&self.linear, &self.exponential] {
            out.push_str(&format!(
                "  {} model (mean |error| {:.1} ms)\n",
                curve.model, curve.mean_abs_error_ms
            ));
            out.push_str("    crowd   ideal(ms)   measured(ms)\n");
            for p in &curve.points {
                out.push_str(&format!(
                    "    {:>5} {:>10.1} {:>13.1}\n",
                    p.crowd, p.ideal_ms, p.measured_ms
                ));
            }
        }
        out
    }
}

fn track(
    model: ResponseModel,
    name: &str,
    crowds: &[usize],
    clients: usize,
    seed: u64,
) -> TrackingCurve {
    let server = SyntheticServer::new(SimDuration::from_millis(20), model);
    let coordinator = Coordinator::new(MfcConfig::standard().with_min_clients(5)).with_seed(seed);
    // Each crowd size is an independent trial with its own backend and seed.
    let points = TrialRunner::from_env().run(crowds.to_vec(), |_, crowd| {
        let mut backend = SyntheticBackend::new(server.clone(), clients, seed ^ crowd as u64);
        let (summary, _) = coordinator
            .probe_crowd(&mut backend, Stage::Base, crowd)
            .expect("enough clients");
        TrackingPoint {
            crowd,
            ideal_ms: model.added_delay(crowd).as_millis_f64(),
            measured_ms: summary.median_ms,
        }
    });
    let mean_abs_error_ms = points
        .iter()
        .map(|p| (p.measured_ms - p.ideal_ms).abs())
        .sum::<f64>()
        / points.len().max(1) as f64;
    TrackingCurve {
        model: name.to_string(),
        points,
        mean_abs_error_ms,
    }
}

/// Runs the Figure 4 experiment.
pub fn run(seed: u64) -> Fig4Result {
    let crowds: Vec<usize> = (1..=13).map(|i| i * 5).collect();
    let clients = 65;
    Fig4Result {
        linear: track(
            ResponseModel::Linear { slope_ms: 5.0 },
            "linear",
            &crowds,
            clients,
            seed,
        ),
        exponential: track(
            ResponseModel::Exponential {
                scale_ms: 1.0,
                growth: 1.12,
            },
            "exponential",
            &crowds,
            clients,
            seed,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_medians_track_both_models() {
        let result = run(3);
        for curve in [&result.linear, &result.exponential] {
            // The measured curve must be increasing in the crowd size…
            let increasing = curve
                .points
                .windows(2)
                .all(|w| w[1].measured_ms >= w[0].measured_ms * 0.8);
            assert!(
                increasing,
                "{} curve is not increasing: {:?}",
                curve.model, curve.points
            );
        }
        // …and the linear curve's largest point should be near its ideal.
        let last = result.linear.points.last().unwrap();
        assert!(
            (last.measured_ms - last.ideal_ms).abs() < last.ideal_ms * 0.4 + 30.0,
            "measured {} vs ideal {}",
            last.measured_ms,
            last.ideal_ms
        );
        assert!(result.render_text().contains("exponential"));
    }
}
