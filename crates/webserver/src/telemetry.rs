//! Server-side resource telemetry.
//!
//! The lab validation in §3.2 of the paper pairs the client-observed
//! response times with `atop` measurements of "the CPU, resident memory,
//! disk access, and network usage" on the server.  Figures 5 and 6 plot
//! those series against the crowd size.  [`UtilizationReport`] is the
//! simulated equivalent: one snapshot of server resource usage over an
//! observation window (typically one MFC epoch).

use mfc_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Aggregated resource usage over one observation window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationReport {
    /// Length of the observation window.
    pub window: SimDuration,
    /// Mean CPU utilization over the window, in the range 0–1 (1 = all
    /// cores busy the whole window).
    pub cpu_utilization: f64,
    /// Peak resident memory over the window, in bytes.
    pub peak_memory_bytes: u64,
    /// Mean resident memory over the window, in bytes.
    pub mean_memory_bytes: f64,
    /// Bytes sent on the access link during the window.
    pub network_bytes_sent: u64,
    /// Number of disk operations issued during the window.
    pub disk_operations: u64,
    /// Mean number of busy worker slots.
    pub mean_busy_workers: f64,
    /// Peak number of busy worker slots.
    pub peak_busy_workers: u32,
    /// Requests that were refused because the listen queue overflowed.
    pub refused_requests: u64,
    /// Requests completed during the window.
    pub completed_requests: u64,
    /// Requests deliberately shed (503) by an admission-control or
    /// rate-limiting defense before reaching a worker.
    pub shed_requests: u64,
    /// Requests whose response transfer was bandwidth-clamped by a
    /// per-client rate-limiting defense.
    pub throttled_requests: u64,
    /// Aggregate outbound link capacity over the window in bytes/second:
    /// the configured access link times the active replicas.  Each
    /// replica's link is fixed for the run, so only a control loop's
    /// replica changes move it, and it is their time-weighted mean.  The
    /// instrumented analogue of the operator telling the MFC authors what
    /// their access link was provisioned at.
    pub link_capacity: f64,
}

impl UtilizationReport {
    /// Combines per-replica reports into one report for a cluster.
    ///
    /// The means (`cpu_utilization`, `mean_memory_bytes`,
    /// `mean_busy_workers`) are averaged over the reports given, so the
    /// divisor is the number of replicas that served the window, not the
    /// number configured.  `window` and the peaks are maxima.  The counters
    /// and `link_capacity` are summed.  No reports give the all-zero
    /// report.  Shed and throttled requests are decided at the front door,
    /// before any replica sees them; a cluster overwrites those two counts,
    /// and `link_capacity`, with its own.
    pub fn merge<'a>(
        reports: impl IntoIterator<Item = &'a UtilizationReport>,
    ) -> UtilizationReport {
        let mut merged = UtilizationReport {
            window: SimDuration::ZERO,
            cpu_utilization: 0.0,
            peak_memory_bytes: 0,
            mean_memory_bytes: 0.0,
            network_bytes_sent: 0,
            disk_operations: 0,
            mean_busy_workers: 0.0,
            peak_busy_workers: 0,
            refused_requests: 0,
            completed_requests: 0,
            shed_requests: 0,
            throttled_requests: 0,
            link_capacity: 0.0,
        };
        let mut count = 0usize;
        for r in reports {
            count += 1;
            merged.window = merged.window.max(r.window);
            merged.cpu_utilization += r.cpu_utilization;
            merged.peak_memory_bytes = merged.peak_memory_bytes.max(r.peak_memory_bytes);
            merged.mean_memory_bytes += r.mean_memory_bytes;
            merged.network_bytes_sent += r.network_bytes_sent;
            merged.disk_operations += r.disk_operations;
            merged.mean_busy_workers += r.mean_busy_workers;
            merged.peak_busy_workers = merged.peak_busy_workers.max(r.peak_busy_workers);
            merged.refused_requests += r.refused_requests;
            merged.completed_requests += r.completed_requests;
            merged.shed_requests += r.shed_requests;
            merged.throttled_requests += r.throttled_requests;
            merged.link_capacity += r.link_capacity;
        }
        if count > 0 {
            let n = count as f64;
            merged.cpu_utilization /= n;
            merged.mean_memory_bytes /= n;
            merged.mean_busy_workers /= n;
        }
        merged
    }

    /// Mean outbound network throughput over the window in bytes/second.
    pub fn network_throughput(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.network_bytes_sent as f64 / secs
        }
    }

    /// Peak memory in megabytes — the unit Figure 6 uses.
    pub fn peak_memory_mb(&self) -> f64 {
        self.peak_memory_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Network bytes sent in kilobytes — the unit Figure 5 uses.
    pub fn network_kb_sent(&self) -> f64 {
        self.network_bytes_sent as f64 / 1024.0
    }

    /// CPU utilization as a percentage (0–100), the unit Figure 6 uses.
    pub fn cpu_percent(&self) -> f64 {
        self.cpu_utilization * 100.0
    }

    /// Mean outbound link utilization over the window in the range 0–1,
    /// or `None` when the link capacity is unknown (zero).
    pub fn link_utilization(&self) -> Option<f64> {
        if self.link_capacity > 0.0 {
            Some((self.network_throughput() / self.link_capacity).clamp(0.0, 1.0))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> UtilizationReport {
        UtilizationReport {
            window: SimDuration::from_secs(10),
            cpu_utilization: 0.35,
            peak_memory_bytes: 512 * 1024 * 1024,
            mean_memory_bytes: 400.0 * 1024.0 * 1024.0,
            network_bytes_sent: 5 * 1024 * 1024,
            disk_operations: 12,
            mean_busy_workers: 7.5,
            peak_busy_workers: 20,
            refused_requests: 1,
            completed_requests: 55,
            shed_requests: 0,
            throttled_requests: 0,
            link_capacity: 1_048_576.0,
        }
    }

    fn replica(scale: u64) -> UtilizationReport {
        UtilizationReport {
            window: SimDuration::from_secs(scale),
            cpu_utilization: 0.1 * scale as f64,
            peak_memory_bytes: 100 * scale,
            mean_memory_bytes: 50.0 * scale as f64,
            network_bytes_sent: 1_000 * scale,
            disk_operations: scale,
            mean_busy_workers: 2.0 * scale as f64,
            peak_busy_workers: 4 * scale as u32,
            refused_requests: 3 * scale,
            completed_requests: 10 * scale,
            shed_requests: 0,
            throttled_requests: 0,
            link_capacity: 1_250_000.0,
        }
    }

    #[test]
    fn merge_averages_the_means_over_the_reports_given() {
        let merged = UtilizationReport::merge(&[replica(1), replica(3)]);
        assert!((merged.cpu_utilization - 0.2).abs() < 1e-12);
        assert_eq!(merged.mean_memory_bytes, 100.0);
        assert_eq!(merged.mean_busy_workers, 4.0);
    }

    #[test]
    fn merge_takes_the_maxima_of_the_peaks_and_the_window() {
        let merged = UtilizationReport::merge(&[replica(3), replica(1)]);
        assert_eq!(merged.window, SimDuration::from_secs(3));
        assert_eq!(merged.peak_memory_bytes, 300);
        assert_eq!(merged.peak_busy_workers, 12);
    }

    #[test]
    fn merge_sums_the_counters_and_the_capacity() {
        let shedding = UtilizationReport {
            shed_requests: 5,
            throttled_requests: 7,
            ..replica(2)
        };
        let merged = UtilizationReport::merge(&[replica(1), shedding]);
        assert_eq!(merged.network_bytes_sent, 3_000);
        assert_eq!(merged.disk_operations, 3);
        assert_eq!(merged.refused_requests, 9);
        assert_eq!(merged.completed_requests, 30);
        assert_eq!(merged.shed_requests, 5);
        assert_eq!(merged.throttled_requests, 7);
        assert_eq!(merged.link_capacity, 2_500_000.0);
    }

    #[test]
    fn merging_one_report_returns_it_unchanged() {
        assert_eq!(UtilizationReport::merge(&[report()]), report());
    }

    #[test]
    fn merging_no_reports_gives_the_zero_report() {
        let merged = UtilizationReport::merge(&[]);
        assert_eq!(merged.window, SimDuration::ZERO);
        assert_eq!(merged.cpu_utilization, 0.0);
        assert_eq!(merged.completed_requests, 0);
        assert_eq!(merged.link_capacity, 0.0);
    }

    #[test]
    fn derived_units() {
        let r = report();
        assert!((r.network_throughput() - 524_288.0).abs() < 1.0);
        assert!((r.peak_memory_mb() - 512.0).abs() < 1e-9);
        assert!((r.network_kb_sent() - 5_120.0).abs() < 1e-9);
        assert!((r.cpu_percent() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_throughput_is_zero() {
        let r = UtilizationReport {
            window: SimDuration::ZERO,
            ..report()
        };
        assert_eq!(r.network_throughput(), 0.0);
    }

    #[test]
    fn link_utilization_needs_a_known_capacity() {
        let r = report();
        // 524288 B/s over a 1 MiB/s link: 50%.
        assert!((r.link_utilization().unwrap() - 0.5).abs() < 1e-9);
        let unknown = UtilizationReport {
            link_capacity: 0.0,
            ..report()
        };
        assert_eq!(unknown.link_utilization(), None);
    }
}
