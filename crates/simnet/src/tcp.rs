//! Coarse TCP behaviour: connection setup and slow-start ramp-up.
//!
//! The MFC synchronization scheduler assumes the first byte of the HTTP
//! request reaches the target roughly when the three-way handshake
//! completes, i.e. `1.5 × RTT` after the client initiates the connection
//! (paper §2.2.4).  The Large Object stage additionally relies on responses
//! being big enough (> 100 KB) "to allow TCP to exit slow start and fully
//! utilize the available network bandwidth" (paper §2.2.2) — so short
//! transfers must be window-limited while long transfers approach the fluid
//! fair-share rate.  [`TcpModel`] captures the second effect; the 1.5 × RTT
//! arrival is applied where requests are scheduled.

use mfc_simcore::SimDuration;
use serde::{Deserialize, Serialize};

use crate::Bandwidth;

/// Parameters of the simplified TCP model.
///
/// # Examples
///
/// ```
/// use mfc_simcore::SimDuration;
/// use mfc_simnet::TcpModel;
///
/// let tcp = TcpModel::default();
/// let rtt = SimDuration::from_millis(100);
///
/// // A tiny response is dominated by round trips, not bandwidth.
/// let small = tcp.slow_start_delay(10_000, rtt);
/// let large = tcp.slow_start_delay(1_000_000, rtt);
/// assert!(small < large);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TcpModel {
    /// Maximum segment size in bytes.
    pub mss: u64,
    /// Initial congestion window in segments.
    pub initial_cwnd_segments: u64,
    /// Maximum window in bytes (receiver window / send buffer): caps the
    /// throughput of a single connection at `max_window / RTT`.
    pub max_window_bytes: u64,
}

impl Default for TcpModel {
    fn default() -> Self {
        // 1460-byte segments, IW = 3 segments (per RFC 3390, the common
        // setting in 2007-era stacks), 64 KB default socket buffers.
        TcpModel {
            mss: 1460,
            initial_cwnd_segments: 3,
            max_window_bytes: 64 * 1024,
        }
    }
}

impl TcpModel {
    /// A model tuned for modern well-configured servers (larger initial
    /// window and auto-tuned buffers); used for the "well provisioned"
    /// cooperating sites.
    pub fn well_tuned() -> Self {
        TcpModel {
            mss: 1460,
            initial_cwnd_segments: 10,
            max_window_bytes: 1024 * 1024,
        }
    }

    /// Extra latency incurred because the transfer starts with a small
    /// congestion window rather than immediately running at the bottleneck
    /// rate.
    ///
    /// The model counts the number of slow-start rounds needed to cover
    /// `bytes` when the window doubles each RTT starting from the initial
    /// window, capped at [`TcpModel::max_window_bytes`].  The returned value
    /// is the *additional* delay on top of `bytes / rate`, i.e. roughly
    /// `rounds × RTT − bytes/rate_unbounded`; we approximate it as the round
    /// count times RTT for the portion of the transfer sent before the
    /// window saturates.  For transfers much larger than the window this
    /// converges to a constant, matching the paper's observation that
    /// objects over 100 KB are bandwidth- rather than window-dominated.
    pub fn slow_start_delay(&self, bytes: u64, rtt: SimDuration) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let init = self.mss * self.initial_cwnd_segments;
        let max_window = self.max_window_bytes.max(init);
        let mut window = init;
        let mut sent = 0u64;
        let mut rounds = 0u32;
        while sent < bytes && window < max_window && rounds < 32 {
            sent += window;
            window = (window * 2).min(max_window);
            rounds += 1;
        }
        // Each slow-start round costs one RTT of serialization that a fully
        // open window would not pay.  Subtract one round because the first
        // window is sent immediately after the handshake.
        let penalised_rounds = rounds.saturating_sub(1);
        rtt.mul_f64(f64::from(penalised_rounds))
    }

    /// Maximum steady-state throughput of one connection given the window
    /// cap: `max_window / RTT`, in bytes per second.
    pub fn window_limited_rate(&self, rtt: SimDuration) -> Bandwidth {
        let rtt_s = rtt.as_secs_f64();
        if rtt_s <= 0.0 {
            return f64::INFINITY;
        }
        self.max_window_bytes as f64 / rtt_s
    }

    /// Total time to transfer `bytes` over an otherwise idle path with
    /// bottleneck rate `rate` (bytes/s): slow-start penalty plus the fluid
    /// transfer time at the window-limited rate.
    ///
    /// Used for the *base response time* measurements each MFC client makes
    /// sequentially before the epochs start — those transfers see no
    /// competing MFC traffic.
    pub fn transfer_time(&self, bytes: u64, rtt: SimDuration, rate: Bandwidth) -> SimDuration {
        let effective = rate.min(self.window_limited_rate(rtt));
        let fluid = if effective <= 0.0 || !effective.is_finite() {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(bytes as f64 / effective)
        };
        self.slow_start_delay(bytes, rtt) + fluid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn zero_bytes_costs_nothing() {
        let tcp = TcpModel::default();
        assert_eq!(tcp.slow_start_delay(0, ms(100)), SimDuration::ZERO);
        assert_eq!(tcp.transfer_time(0, ms(100), 1e6), SimDuration::ZERO);
    }

    #[test]
    fn slow_start_delay_grows_then_saturates() {
        let tcp = TcpModel::default();
        let rtt = ms(100);
        let d_small = tcp.slow_start_delay(5_000, rtt);
        let d_medium = tcp.slow_start_delay(50_000, rtt);
        let d_large = tcp.slow_start_delay(500_000, rtt);
        let d_huge = tcp.slow_start_delay(50_000_000, rtt);
        assert!(d_small <= d_medium);
        assert!(d_medium <= d_large);
        // Once the window is fully open the penalty stops growing.
        assert_eq!(d_large, d_huge);
    }

    #[test]
    fn fits_in_initial_window_has_no_penalty() {
        let tcp = TcpModel::default();
        // 3 * 1460 = 4380 bytes fit in the initial window: a single round.
        assert_eq!(tcp.slow_start_delay(4_000, ms(200)), SimDuration::ZERO);
    }

    #[test]
    fn window_limited_rate_scales_with_rtt() {
        let tcp = TcpModel::default();
        let fast = tcp.window_limited_rate(ms(10));
        let slow = tcp.window_limited_rate(ms(200));
        assert!(fast > slow);
        assert!((slow - 64.0 * 1024.0 / 0.2).abs() < 1e-6);
        assert!(tcp.window_limited_rate(SimDuration::ZERO).is_infinite());
    }

    #[test]
    fn transfer_time_respects_window_cap() {
        let tcp = TcpModel::default();
        let rtt = ms(200);
        // A very fat pipe does not help when the 64KB window over 200ms RTT
        // caps the connection at ~320 KB/s.
        let capped = tcp.transfer_time(1_000_000, rtt, 1e9);
        let window_rate = tcp.window_limited_rate(rtt);
        let floor = SimDuration::from_secs_f64(1_000_000.0 / window_rate);
        assert!(capped >= floor);
    }

    #[test]
    fn well_tuned_is_faster_than_default() {
        let def = TcpModel::default();
        let tuned = TcpModel::well_tuned();
        let rtt = ms(100);
        assert!(tuned.transfer_time(500_000, rtt, 1e8) < def.transfer_time(500_000, rtt, 1e8));
    }
}
