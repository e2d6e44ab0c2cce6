//! Artificial delay injection for the live validation server.
//!
//! The §3.1 experiments instrument the lab server with "synthetic response
//! time models [that define] the average increase in response time … per
//! incoming request as a function of the number of simultaneous requests at
//! the server".  [`DelayModel`] is that function for the live server: the
//! handler thread evaluates it against the current in-flight request count
//! and sleeps for the result before answering.

use std::time::Duration;

/// A response-delay function of the number of simultaneous requests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DelayModel {
    /// No artificial delay (resource effects only).
    #[default]
    None,
    /// Delay grows linearly: `per_request × n`.
    Linear {
        /// Added delay per concurrent request.
        per_request: Duration,
    },
    /// Delay grows exponentially: `base × (growth^n − 1)`.
    Exponential {
        /// Scale of the exponential term.
        base: Duration,
        /// Per-request growth factor.
        growth: f64,
    },
}

impl DelayModel {
    /// Evaluates the model for `concurrent` simultaneous requests.
    pub fn delay_for(&self, concurrent: usize) -> Duration {
        match *self {
            DelayModel::None => Duration::ZERO,
            DelayModel::Linear { per_request } => per_request
                .checked_mul(concurrent as u32)
                .unwrap_or(Duration::from_secs(30)),
            DelayModel::Exponential { base, growth } => {
                let factor = growth.powi(concurrent as i32) - 1.0;
                if !factor.is_finite() || factor <= 0.0 {
                    Duration::ZERO
                } else {
                    base.mul_f64(factor.min(1.0e4))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_adds_no_delay() {
        assert_eq!(DelayModel::None.delay_for(100), Duration::ZERO);
    }

    #[test]
    fn linear_scales_with_concurrency() {
        let m = DelayModel::Linear {
            per_request: Duration::from_millis(5),
        };
        assert_eq!(m.delay_for(1), Duration::from_millis(5));
        assert_eq!(m.delay_for(10), Duration::from_millis(50));
        assert!(m.delay_for(2) < m.delay_for(3));
    }

    #[test]
    fn exponential_grows_and_stays_finite() {
        let m = DelayModel::Exponential {
            base: Duration::from_millis(1),
            growth: 1.2,
        };
        assert_eq!(m.delay_for(0), Duration::ZERO);
        assert!(m.delay_for(10) < m.delay_for(30));
        // Even absurd concurrency stays bounded rather than overflowing.
        assert!(m.delay_for(10_000) <= Duration::from_secs(10 * 60));
    }

    #[test]
    fn default_is_none() {
        assert_eq!(DelayModel::default(), DelayModel::None);
    }
}
