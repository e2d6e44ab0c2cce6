//! Figure 5: the Large Object lab workload.
//!
//! Fifty LAN clients repeatedly fetch the same 100 KB object from the lab
//! Apache box.  The paper plots the median response time and the server's
//! network usage against the crowd size, and observes that CPU, memory and
//! disk stay negligible — the access link alone explains the slowdown.

use mfc_core::types::Stage;
use mfc_webserver::ServerConfig;
use serde::{Deserialize, Serialize};

/// One crowd-size sample of the Figure 5 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig5Point {
    /// Crowd size.
    pub crowd: usize,
    /// Median client response time in milliseconds.
    pub median_response_ms: f64,
    /// Bytes sent on the access link during the epoch, in kilobytes.
    pub network_kb: f64,
    /// Mean CPU utilization (0–100 %).
    pub cpu_percent: f64,
    /// Peak resident memory in megabytes.
    pub peak_memory_mb: f64,
    /// Disk operations during the epoch.
    pub disk_ops: u64,
}

/// Result of the Figure 5 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Result {
    /// Samples in increasing crowd order.
    pub points: Vec<Fig5Point>,
}

impl Fig5Result {
    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out =
            String::from("Figure 5 — same 100KB large object (lab server, 10 Mbit/s link)\n");
        out.push_str("  crowd   resp(ms)   net(KB)   cpu(%)   mem(MB)   disk\n");
        for p in &self.points {
            out.push_str(&format!(
                "  {:>5} {:>10.1} {:>9.0} {:>8.1} {:>9.1} {:>6}\n",
                p.crowd,
                p.median_response_ms,
                p.network_kb,
                p.cpu_percent,
                p.peak_memory_mb,
                p.disk_ops
            ));
        }
        out
    }

    /// `true` if response time grows with crowd size while CPU and disk
    /// stay low — the paper's headline observation for this figure.
    pub fn network_is_the_bottleneck(&self) -> bool {
        let first = self.points.first();
        let last = self.points.last();
        match (first, last) {
            (Some(first), Some(last)) => {
                last.median_response_ms > 2.0 * first.median_response_ms
                    && last.cpu_percent < 50.0
                    && last.disk_ops <= self.points.len() as u64
            }
            _ => false,
        }
    }
}

/// Runs the Figure 5 sweep.
pub fn run(seed: u64) -> Fig5Result {
    let crowds: Vec<usize> = (1..=10).map(|i| i * 5).collect();
    let points = super::lab_sweep(
        Stage::LargeObject,
        ServerConfig::lab_apache(),
        &crowds,
        seed,
        |crowd, median_response_ms, utilization| Fig5Point {
            crowd,
            median_response_ms,
            network_kb: utilization.network_kb_sent(),
            cpu_percent: utilization.cpu_percent(),
            peak_memory_mb: utilization.peak_memory_mb(),
            disk_ops: utilization.disk_operations,
        },
    );
    Fig5Result { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_bound_shape_matches_paper() {
        for seed in [5, 1] {
            let result = run(seed);
            assert_eq!(result.points.len(), 10);
            // Response time grows with the crowd.
            assert!(
                result.points.last().unwrap().median_response_ms
                    > result.points.first().unwrap().median_response_ms
            );
            // Network bytes grow roughly linearly with the crowd (same
            // object, more copies).
            assert!(result.points.last().unwrap().network_kb > result.points[0].network_kb * 3.0);
            assert!(
                result.network_is_the_bottleneck(),
                "seed {seed}: CPU/disk must stay negligible: {:?}",
                result.points
            );
            assert!(result.render_text().contains("Figure 5"));
        }
    }
}
