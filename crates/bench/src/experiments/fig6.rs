//! Figure 6: the Small Query (FastCGI) lab workload — plus the Mongrel
//! contrast the paper describes in the same section.
//!
//! Every client issues the same database query.  Under the FastCGI
//! fork-per-request handler each in-flight query holds a full process image
//! in memory, so memory climbs with the crowd size until the box starts
//! thrashing and response times explode (the paper's Figure 6).  Under the
//! persistent Mongrel pool the same workload stays flat — the paper reports
//! response times "within 10 ms for crowd sizes up to 50".

use mfc_core::types::Stage;
use mfc_webserver::ServerConfig;
use serde::{Deserialize, Serialize};

/// One crowd-size sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig6Point {
    /// Crowd size.
    pub crowd: usize,
    /// Median client response time in milliseconds.
    pub median_response_ms: f64,
    /// Mean CPU utilization (0–100 %).
    pub cpu_percent: f64,
    /// Peak resident memory in megabytes.
    pub peak_memory_mb: f64,
}

/// Result of the Figure 6 sweep (FastCGI) plus the Mongrel contrast.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// FastCGI (fork-per-request) samples, increasing crowd order.
    pub fastcgi: Vec<Fig6Point>,
    /// Mongrel (persistent pool) samples at the same crowd sizes.
    pub mongrel: Vec<Fig6Point>,
}

impl Fig6Result {
    /// Paper-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Figure 6 — Small Query workload (same query, 1 GB RAM)\n");
        for (name, points) in [("FastCGI", &self.fastcgi), ("Mongrel", &self.mongrel)] {
            out.push_str(&format!("  {name}\n"));
            out.push_str("    crowd   resp(ms)   cpu(%)   mem(MB)\n");
            for p in points {
                out.push_str(&format!(
                    "    {:>5} {:>10.1} {:>8.1} {:>9.1}\n",
                    p.crowd, p.median_response_ms, p.cpu_percent, p.peak_memory_mb
                ));
            }
        }
        out
    }

    /// The paper's headline: FastCGI memory grows with the crowd and drags
    /// response times with it, while Mongrel stays flat.
    pub fn fastcgi_blows_up_and_mongrel_does_not(&self) -> bool {
        let (Some(fc_first), Some(fc_last)) = (self.fastcgi.first(), self.fastcgi.last()) else {
            return false;
        };
        let (Some(mg_first), Some(mg_last)) = (self.mongrel.first(), self.mongrel.last()) else {
            return false;
        };
        let fastcgi_memory_grows = fc_last.peak_memory_mb > fc_first.peak_memory_mb + 200.0;
        let fastcgi_slows = fc_last.median_response_ms > 3.0 * fc_first.median_response_ms;
        let mongrel_flat = mg_last.peak_memory_mb < mg_first.peak_memory_mb + 300.0
            && mg_last.median_response_ms < fc_last.median_response_ms;
        fastcgi_memory_grows && fastcgi_slows && mongrel_flat
    }
}

fn sweep(config: ServerConfig, crowds: &[usize], seed: u64) -> Vec<Fig6Point> {
    super::lab_sweep(
        Stage::SmallQuery,
        config,
        crowds,
        seed,
        |crowd, median_response_ms, utilization| Fig6Point {
            crowd,
            median_response_ms,
            cpu_percent: utilization.cpu_percent(),
            peak_memory_mb: utilization.peak_memory_mb(),
        },
    )
}

/// Runs the Figure 6 sweep.
pub fn run(seed: u64) -> Fig6Result {
    let crowds: Vec<usize> = (1..=10).map(|i| i * 5).collect();
    Fig6Result {
        fastcgi: sweep(ServerConfig::lab_apache(), &crowds, seed),
        mongrel: sweep(ServerConfig::lab_apache_mongrel(), &crowds, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastcgi_memory_blowup_matches_paper() {
        for seed in [9, 1] {
            let result = run(seed);
            assert!(
                result.fastcgi_blows_up_and_mongrel_does_not(),
                "seed {seed}: FastCGI: {:?}\nMongrel: {:?}",
                result.fastcgi,
                result.mongrel
            );
            assert!(result.render_text().contains("FastCGI"));
        }
    }
}
