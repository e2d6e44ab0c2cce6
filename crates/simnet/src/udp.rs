//! Lossy UDP control channel between the coordinator and its clients.
//!
//! The paper's implementation uses UDP for all control messages and does
//! *not* retransmit lost ones (§2.3).  The consequence is visible in
//! Table 2: the coordinator scheduled 375 requests in the last Small Query
//! epoch but only 353 showed up in the server logs — commands (or their
//! payload deliveries) occasionally vanish.  [`ControlChannel`] reproduces
//! that behaviour: a message either arrives after a jittered one-way delay
//! or is silently dropped.

use mfc_simcore::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// Outcome of sending one control message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Delivery {
    /// The message arrives after the given one-way delay.
    Delivered(SimDuration),
    /// The message is lost; there is no retransmission.
    Lost,
}

impl Delivery {
    /// Returns the delay if the message was delivered.
    pub fn delay(self) -> Option<SimDuration> {
        match self {
            Delivery::Delivered(d) => Some(d),
            Delivery::Lost => None,
        }
    }
}

/// Parameters and state of the UDP control plane.
///
/// # Examples
///
/// ```
/// use mfc_simcore::{SimDuration, SimRng};
/// use mfc_simnet::ControlChannel;
///
/// // No loss, no jitter: the delay passes through unchanged.
/// let mut chan = ControlChannel::new(0.0, 0.0, SimRng::seed_from(3));
/// let d = chan.send(SimDuration::from_millis(40));
/// assert_eq!(d.delay(), Some(SimDuration::from_millis(40)));
/// ```
#[derive(Debug, Clone)]
pub struct ControlChannel {
    loss_probability: f64,
    jitter_frac: f64,
    rng: SimRng,
    sent: u64,
    lost: u64,
}

impl ControlChannel {
    /// Creates a channel with the given loss probability and multiplicative
    /// delay jitter (fraction of the mean one-way delay).
    pub fn new(loss_probability: f64, jitter_frac: f64, rng: SimRng) -> Self {
        ControlChannel {
            loss_probability: loss_probability.clamp(0.0, 1.0),
            jitter_frac: jitter_frac.max(0.0),
            rng,
            sent: 0,
            lost: 0,
        }
    }

    /// Sends one message whose mean one-way delay is `mean_delay`.
    pub fn send(&mut self, mean_delay: SimDuration) -> Delivery {
        self.sent += 1;
        if self.loss_probability > 0.0 && self.rng.chance(self.loss_probability) {
            self.lost += 1;
            return Delivery::Lost;
        }
        if self.jitter_frac <= 0.0 || mean_delay.is_zero() {
            return Delivery::Delivered(mean_delay);
        }
        let factor = self
            .rng
            .normal_clamped(
                1.0,
                self.jitter_frac,
                (1.0 - 3.0 * self.jitter_frac).max(0.1),
                1.0 + 3.0 * self.jitter_frac,
            )
            .max(0.1);
        Delivery::Delivered(mean_delay.mul_f64(factor))
    }

    /// Number of messages sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Number of messages lost so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_channel_never_drops() {
        let mut chan = ControlChannel::new(0.0, 0.1, SimRng::seed_from(1));
        for _ in 0..1_000 {
            assert!(chan.send(SimDuration::from_millis(10)).delay().is_some());
        }
        assert_eq!(chan.lost(), 0);
        assert_eq!(chan.sent(), 1_000);
    }

    #[test]
    fn loss_rate_is_approximately_configured() {
        let mut chan = ControlChannel::new(0.05, 0.0, SimRng::seed_from(2));
        for _ in 0..20_000 {
            chan.send(SimDuration::from_millis(10));
        }
        let observed = chan.lost() as f64 / chan.sent() as f64;
        assert!((observed - 0.05).abs() < 0.01, "observed {observed}");
    }

    #[test]
    fn zero_jitter_preserves_delay() {
        let mut chan = ControlChannel::new(0.0, 0.0, SimRng::seed_from(3));
        let d = chan.send(SimDuration::from_millis(77));
        assert_eq!(d.delay(), Some(SimDuration::from_millis(77)));
    }

    #[test]
    fn jitter_keeps_delay_positive_and_bounded() {
        let mut chan = ControlChannel::new(0.0, 0.2, SimRng::seed_from(4));
        for _ in 0..1_000 {
            let d = chan.send(SimDuration::from_millis(50)).delay().unwrap();
            assert!(d > SimDuration::ZERO);
            assert!(d < SimDuration::from_millis(50 * 2));
        }
    }

    #[test]
    fn probability_is_clamped() {
        let mut always = ControlChannel::new(5.0, 0.0, SimRng::seed_from(5));
        assert!(always.send(SimDuration::from_millis(1)).delay().is_none());
        let mut never = ControlChannel::new(-1.0, 0.0, SimRng::seed_from(6));
        assert!(never.send(SimDuration::from_millis(1)).delay().is_some());
    }

    #[test]
    fn delivery_helpers() {
        assert_eq!(Delivery::Lost.delay(), None);
        let d = Delivery::Delivered(SimDuration::from_millis(9));
        assert_eq!(d.delay(), Some(SimDuration::from_millis(9)));
    }
}
