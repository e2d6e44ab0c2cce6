//! The serializable workload description.
//!
//! A [`WorkloadSpec`] is a list of independent traffic sources, each pairing
//! an arrival process with a request model and a client profile.  The spec
//! is plain data — `serde`-serializable, comparable, clonable — so a
//! scenario matrix can carry "diurnal sessions plus a flash crowd of
//! downloads" the same way it carries a server configuration.

use mfc_simcore::SimDuration;
use mfc_simnet::Bandwidth;
use serde::{Deserialize, Serialize};

use crate::arrival::ArrivalProcess;
use crate::session::SessionModel;

/// Mix of request classes, as weights (need not sum to one).
///
/// This is the request model of the original flat-Poisson background
/// generator, kept as the degenerate case: one independent request per
/// arrival, class drawn from these weights.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixWeights {
    /// Weight of HEAD/base-page requests.
    pub head: f64,
    /// Weight of small static objects (pages, images).
    pub static_small: f64,
    /// Weight of large static objects (downloads).
    pub static_large: f64,
    /// Weight of dynamic queries.
    pub dynamic: f64,
}

impl Default for MixWeights {
    fn default() -> Self {
        // A browsing-dominated mix: mostly pages and images, some queries,
        // occasional downloads.
        MixWeights {
            head: 0.05,
            static_small: 0.65,
            static_large: 0.05,
            dynamic: 0.25,
        }
    }
}

impl MixWeights {
    /// A download-heavy mix (the class of surge that saturates an access
    /// link — what a popular release day or a hotlinked file looks like).
    pub fn downloads() -> Self {
        MixWeights {
            head: 0.02,
            static_small: 0.18,
            static_large: 0.75,
            dynamic: 0.05,
        }
    }

    /// True when every weight is zero or negative (the degenerate mix the
    /// sampler maps to bare HEAD requests).
    pub fn is_degenerate(&self) -> bool {
        self.head <= 0.0
            && self.static_small <= 0.0
            && self.static_large <= 0.0
            && self.dynamic <= 0.0
    }
}

/// The network profile of the synthetic clients a source models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientSpec {
    /// Client downlink bandwidth in bytes per second.
    pub downlink: Bandwidth,
    /// Client round-trip time to the server.
    pub rtt: SimDuration,
}

impl Default for ClientSpec {
    fn default() -> Self {
        // The profile the pre-workload background generator assumed.
        ClientSpec {
            downlink: 2_000_000.0,
            rtt: SimDuration::from_millis(60),
        }
    }
}

/// What each arrival of an open source produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestModel {
    /// One independent request per arrival, class drawn from the mix.
    Mix(MixWeights),
    /// One *session* per arrival: a Markov page walk issuing a correlated
    /// train of requests.
    Sessions(SessionModel),
}

/// One traffic source: an open-loop stochastic arrival process feeding a
/// request model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceSpec {
    /// Human-readable label (also keeps multi-source specs auditable in
    /// serialized form).
    pub label: String,
    /// Client network profile for the requests this source emits.
    pub client: ClientSpec,
    /// When arrivals (requests or sessions) occur.
    pub arrivals: ArrivalProcess,
    /// What each arrival produces.
    pub requests: RequestModel,
}

/// A complete workload: zero or more sources merged into one time-ordered
/// request stream by [`crate::WorkloadStream`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The sources; order is part of the spec (it fixes the stream's
    /// tie-breaking and RNG forking).
    pub sources: Vec<SourceSpec>,
}

impl WorkloadSpec {
    /// A workload with no traffic at all.
    pub fn empty() -> Self {
        WorkloadSpec::default()
    }

    /// The degenerate spec equivalent to the original flat-Poisson
    /// background generator.
    pub fn poisson_mix(rate_per_sec: f64, mix: MixWeights, client: ClientSpec) -> Self {
        WorkloadSpec::empty().with_source(SourceSpec {
            label: "poisson".to_string(),
            client,
            arrivals: ArrivalProcess::Poisson { rate_per_sec },
            requests: RequestModel::Mix(mix),
        })
    }

    /// A session-structured workload: sessions arrive by `arrivals`, each
    /// walking `model`'s page graph.
    pub fn sessions(arrivals: ArrivalProcess, model: SessionModel, client: ClientSpec) -> Self {
        WorkloadSpec::empty().with_source(SourceSpec {
            label: "sessions".to_string(),
            client,
            arrivals,
            requests: RequestModel::Sessions(model),
        })
    }

    /// Appends a source.
    pub fn with_source(mut self, source: SourceSpec) -> Self {
        self.sources.push(source);
        self
    }

    /// True when the workload has no sources (no traffic will be
    /// generated; the backend then skips the stream entirely).
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The long-run mean *request* rate across every source, in requests
    /// per second: sessions count every page view and embedded object.
    pub fn mean_request_rate(&self) -> f64 {
        self.sources
            .iter()
            .map(|source| match &source.requests {
                RequestModel::Mix(_) => source.arrivals.mean_rate(),
                RequestModel::Sessions(model) => {
                    source.arrivals.mean_rate() * model.mean_requests_per_session()
                }
            })
            .sum()
    }

    /// Validates every source.
    pub fn validate(&self) -> Result<(), String> {
        for (index, source) in self.sources.iter().enumerate() {
            let check = source.arrivals.validate().and(match &source.requests {
                RequestModel::Mix(_) => Ok(()),
                RequestModel::Sessions(model) => model.validate(),
            });
            check.map_err(|e| format!("source {index} ({}): {e}", source.label))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_matches_the_browsing_profile() {
        let mix = MixWeights::default();
        assert_eq!(mix.head, 0.05);
        assert_eq!(mix.static_small, 0.65);
        assert!(!mix.is_degenerate());
        assert!(MixWeights {
            head: 0.0,
            static_small: 0.0,
            static_large: 0.0,
            dynamic: 0.0
        }
        .is_degenerate());
    }

    #[test]
    fn constructors_build_valid_specs() {
        let spec = WorkloadSpec::poisson_mix(3.0, MixWeights::default(), ClientSpec::default());
        assert_eq!(spec.sources.len(), 1);
        assert!(spec.validate().is_ok());
        assert!((spec.mean_request_rate() - 3.0).abs() < 1e-12);

        let sessions = WorkloadSpec::sessions(
            ArrivalProcess::diurnal(0.5, 0.6, 600.0, 12),
            SessionModel::browsing(),
            ClientSpec::default(),
        );
        assert!(sessions.validate().is_ok());
        // Each session issues several requests, so the request rate exceeds
        // the session rate.
        assert!(sessions.mean_request_rate() > 0.5);

        assert!(WorkloadSpec::empty().is_empty());
        assert_eq!(WorkloadSpec::empty().mean_request_rate(), 0.0);
    }

    #[test]
    fn validation_flags_the_offending_source() {
        let spec = WorkloadSpec::empty()
            .with_source(SourceSpec {
                label: "good".to_string(),
                client: ClientSpec::default(),
                arrivals: ArrivalProcess::Poisson { rate_per_sec: 1.0 },
                requests: RequestModel::Mix(MixWeights::default()),
            })
            .with_source(SourceSpec {
                label: "bad".to_string(),
                client: ClientSpec::default(),
                arrivals: ArrivalProcess::Poisson { rate_per_sec: -2.0 },
                requests: RequestModel::Mix(MixWeights::default()),
            });
        let err = spec.validate().unwrap_err();
        assert!(err.contains("source 1 (bad)"), "{err}");
    }

    #[test]
    fn specs_serialize_round_trip() {
        let spec = WorkloadSpec::sessions(
            ArrivalProcess::Mmpp {
                states: vec![
                    crate::MmppState {
                        rate_per_sec: 0.2,
                        mean_dwell_secs: 60.0,
                    },
                    crate::MmppState {
                        rate_per_sec: 10.0,
                        mean_dwell_secs: 5.0,
                    },
                ],
            },
            SessionModel::browsing(),
            ClientSpec::default(),
        );
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
