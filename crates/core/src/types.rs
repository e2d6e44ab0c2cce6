//! Core vocabulary types shared by the coordinator, backends and reports.

use mfc_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifies one participating MFC client (a PlanetLab host in the paper,
/// a simulated or thread-backed client here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClientId(pub u32);

/// The three probing stages of an MFC experiment (paper §2.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// HEAD requests for the base page: basic HTTP request processing.
    Base,
    /// GETs of small dynamically generated objects: the back-end data
    /// processing sub-system.
    SmallQuery,
    /// GETs of the same large static object: the outbound access link.
    LargeObject,
}

impl Stage {
    /// All stages in the order the paper runs them.
    pub const ALL: [Stage; 3] = [Stage::Base, Stage::SmallQuery, Stage::LargeObject];

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Base => "Base",
            Stage::SmallQuery => "Small Query",
            Stage::LargeObject => "Large Object",
        }
    }

    /// The server sub-system this stage is designed to exercise.
    pub fn target_subsystem(self) -> &'static str {
        match self {
            Stage::Base => "HTTP request processing",
            Stage::SmallQuery => "back-end data processing (database / dynamic handler)",
            Stage::LargeObject => "outbound access bandwidth",
        }
    }

    /// The detection quantile the coordinator applies to normalized response
    /// times in this stage: the median for Base and Small Query, the 90th
    /// percentile for Large Object (paper §2.2.3, to avoid mistaking shared
    /// wide-area bottlenecks for the server's own access link).
    pub fn detection_quantile(self) -> f64 {
        match self {
            Stage::Base | Stage::SmallQuery => 0.5,
            Stage::LargeObject => 0.9,
        }
    }
}

/// The HTTP method of an MFC request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProbeMethod {
    /// `GET` — used by the Small Query and Large Object stages.
    Get,
    /// `HEAD` — used by the Base stage.
    Head,
}

/// One concrete request an MFC client can be commanded to make.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RequestSpec {
    /// Method to use.
    pub method: ProbeMethod,
    /// Site-relative path (possibly with a query string).
    pub path: String,
    /// Stage this request belongs to (decides how the server model treats
    /// it and which detector the coordinator applies).
    pub stage: Stage,
    /// Expected response size in bytes, from the profiling step; used for
    /// sanity checks and reporting only.
    pub expected_bytes: u64,
}

/// A command for one client in one epoch: which request to fire and when.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestCommand {
    /// The client being commanded.
    pub client: ClientId,
    /// The request it should issue.
    pub request: RequestSpec,
    /// When the coordinator transmits the command, relative to the epoch
    /// origin (already compensated for coordinator→client and
    /// client→target delays by the scheduler).
    pub send_offset: SimDuration,
    /// The instant (relative to the epoch origin) at which the request's
    /// first byte is intended to arrive at the target.
    pub intended_arrival: SimDuration,
}

/// Everything a backend needs to execute one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochPlan {
    /// Stage the epoch belongs to.
    pub stage: Stage,
    /// Monotonically increasing epoch number within the stage (check-phase
    /// epochs reuse the number of the epoch that triggered them).
    pub index: u32,
    /// Per-client commands.
    pub commands: Vec<RequestCommand>,
    /// Client-side timeout: a request not fully answered within this time is
    /// killed and reported as an error with this response time.
    pub timeout: SimDuration,
}

impl EpochPlan {
    /// Number of participating clients (the crowd size), counting each
    /// client once even under MFC-mr (which issues several requests per
    /// client).
    pub fn crowd_size(&self) -> usize {
        let mut clients: Vec<ClientId> = self.commands.iter().map(|c| c.client).collect();
        clients.sort_unstable();
        clients.dedup();
        clients.len()
    }

    /// Total number of requests the epoch will fire at the target.
    pub fn request_count(&self) -> usize {
        self.commands.len()
    }
}

/// Completion status of one client's request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeStatus {
    /// A complete response with a success status was received.
    Ok,
    /// A complete response with an error status (4xx/5xx) was received.
    HttpError(u16),
    /// The TCP connection was refused or reset before any HTTP response —
    /// a listen-queue overflow at the target.  Remotely distinguishable
    /// from an HTTP error (no status line ever arrives), and kept distinct
    /// so that genuine connection-capacity exhaustion is not mistaken for
    /// a 503-shedding *defense* by the inference layer.
    ConnectionRefused,
    /// The request was killed by the client-side timeout.
    TimedOut,
    /// The command never reached the client (lost control message) or the
    /// connection failed outright.
    Failed,
}

impl ProbeStatus {
    /// Whether a usable response-time sample was produced.  Timed-out
    /// requests still contribute a (pessimistic) sample, as in the paper;
    /// lost commands do not.
    pub fn produced_sample(self) -> bool {
        !matches!(self, ProbeStatus::Failed)
    }
}

/// One client's report for one request in one epoch — the
/// `(client ID, HTTP code, numbytes, response time)` tuple of Figure 2.
///
/// The response time is raw.  The coordinator, which holds every client's
/// base measurement for the current stage, normalizes it (paper §2.2.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientObservation {
    /// Reporting client.
    pub client: ClientId,
    /// The client's vantage group (clients behind one shared transit
    /// bottleneck).  Zero when the backend has no topology information —
    /// live clients know their own group no better than the paper's
    /// PlanetLab hosts did, but the coordinator can cluster by RTT there.
    pub group: u32,
    /// Completion status.
    pub status: ProbeStatus,
    /// Body bytes received.
    pub bytes: u64,
    /// Observed response time for this request.
    pub response_time: SimDuration,
}

/// What a backend reports after executing an [`EpochPlan`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EpochObservation {
    /// One entry per issued request that produced any result.
    pub observations: Vec<ClientObservation>,
    /// Arrival times of the epoch's requests at the target, when the target
    /// (or its operator) makes logs available: always in simulation, and in
    /// live mode when the target is an instrumented `mfc-httpd`.
    pub target_arrivals: Vec<SimTime>,
    /// Number of commands whose control message was lost before reaching a
    /// client.
    pub lost_commands: u32,
    /// Number of non-MFC (background) requests the target served while the
    /// epoch ran, when known.
    pub background_requests: u64,
    /// Server-side resource usage during the epoch, when the target is
    /// instrumented (always available in simulation; the paper obtained the
    /// equivalent from `atop` on cooperating servers, §3.2).
    pub server_utilization: Option<mfc_webserver::UtilizationReport>,
}

/// Summary of one executed epoch kept in the final report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochSummary {
    /// Epoch number within the stage.
    pub index: u32,
    /// Crowd size (distinct clients).
    pub crowd_size: usize,
    /// Requests scheduled by the coordinator.
    pub requests_scheduled: usize,
    /// Requests that produced a response-time sample.
    pub requests_observed: usize,
    /// The detector statistic (median or 90th percentile of normalized
    /// response times) in milliseconds.
    pub detector_ms: f64,
    /// Median normalized response time in milliseconds (reported for every
    /// stage regardless of the detector used).
    pub median_ms: f64,
    /// Whether this epoch was part of a check phase.
    pub check_phase: bool,
    /// Commands whose control message never reached a client (the
    /// "scheduled vs. received" gap of Table 2) — `requests_scheduled −
    /// requests_observed` also counts client-side failures, so the lost
    /// control messages are recorded separately to keep lossy-control runs
    /// auditable from the report alone.
    pub commands_lost: u32,
    /// Spread of the middle 90% of target arrival times, when logs were
    /// available (Table 2's synchronization metric).
    pub arrival_spread_90: Option<SimDuration>,
    /// Median normalized response time per vantage group, as `(group,
    /// median ms)` pairs for every group that produced samples.  Empty
    /// when the population has a single (or unknown) group.  The
    /// inference layer reads a *skewed* profile — one group far above the
    /// threshold while the rest sit flat — as congestion on that group's
    /// shared path rather than a constraint at the server.
    pub group_median_ms: Vec<(u32, f64)>,
    /// Fraction of produced samples that were HTTP *server* errors (5xx —
    /// what a shedding defense sends; 4xx client errors and TCP refusals
    /// are excluded).  A spike here with a *low* detector statistic is the
    /// fingerprint of a load-shedding defense: 503s come back fast, so the
    /// response-time detector alone reads a shedding server as healthy.
    pub error_rate: f64,
    /// Median per-client goodput (body bytes / response time, bytes/s) over
    /// successful responses with a body; `None` when no such response.
    pub client_goodput_median: Option<f64>,
    /// Coefficient of variation of the per-client goodputs.  Near zero
    /// means every client's throughput clamped to one common ceiling.
    pub client_goodput_cov: Option<f64>,
    /// Sum of the per-client goodputs — for a synchronized burst this
    /// estimates the aggregate throughput the server actually delivered
    /// while the transfers overlapped.
    pub aggregate_goodput: Option<f64>,
    /// The target's aggregate outbound link capacity in bytes/s, when the
    /// target is instrumented (simulation, or a cooperating operator).
    pub link_capacity: Option<f64>,
    /// Background (non-MFC) requests per second the target served during
    /// the epoch window, when the target reports it (simulation, or a
    /// cooperating operator's access log — the "Other Traffic" column of
    /// the paper's §4 tables, per epoch).  The inference layer compares the
    /// evidence epochs' rate against the stage's baseline: a surge
    /// coinciding with the triggering epochs confounds the verdict.
    pub background_rate: Option<f64>,
    /// Set by the coordinator's quiescence policy when this epoch ran
    /// inside a detected background-load surge window.  Flagged epochs are
    /// kept in the report for audit; with retries enabled the coordinator
    /// re-runs the epoch after a backoff.
    pub surge_suspected: bool,
}

/// How a stage ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageOutcome {
    /// A confirmed, persistent degradation was observed at the given crowd
    /// size (the *stopping crowd size*).
    Stopped {
        /// Crowd size at which the check phase confirmed the degradation.
        crowd_size: usize,
    },
    /// The stage reached the maximum crowd size without a confirmed
    /// degradation — the paper's "NoStop": the sub-system is labelled
    /// unconstrained at the tested load.
    NoStop {
        /// Largest crowd size that was actually tested.
        max_crowd_tested: usize,
    },
    /// The stage could not be run (for example, the profiler found no
    /// object of the required class on the target).
    Skipped,
}

impl StageOutcome {
    /// The stopping crowd size, if the stage stopped.
    pub fn stopping_crowd(self) -> Option<usize> {
        match self {
            StageOutcome::Stopped { crowd_size } => Some(crowd_size),
            _ => None,
        }
    }

    /// True if the stage found no constraint.
    pub fn is_no_stop(self) -> bool {
        matches!(self, StageOutcome::NoStop { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_metadata() {
        assert_eq!(Stage::ALL.len(), 3);
        assert_eq!(Stage::Base.detection_quantile(), 0.5);
        assert_eq!(Stage::SmallQuery.detection_quantile(), 0.5);
        assert_eq!(Stage::LargeObject.detection_quantile(), 0.9);
        assert_eq!(Stage::Base.name(), "Base");
        assert!(Stage::LargeObject.target_subsystem().contains("bandwidth"));
    }

    #[test]
    fn epoch_plan_counts_distinct_clients() {
        let spec = RequestSpec {
            method: ProbeMethod::Get,
            path: "/x".into(),
            stage: Stage::LargeObject,
            expected_bytes: 100,
        };
        let command = |client: u32| RequestCommand {
            client: ClientId(client),
            request: spec.clone(),
            send_offset: SimDuration::ZERO,
            intended_arrival: SimDuration::from_secs(15),
        };
        // MFC-mr style: two requests per client.
        let plan = EpochPlan {
            stage: Stage::LargeObject,
            index: 3,
            commands: vec![command(1), command(1), command(2), command(2)],
            timeout: SimDuration::from_secs(10),
        };
        assert_eq!(plan.crowd_size(), 2);
        assert_eq!(plan.request_count(), 4);
    }

    #[test]
    fn probe_status_sampling_rules() {
        assert!(ProbeStatus::Ok.produced_sample());
        assert!(ProbeStatus::TimedOut.produced_sample());
        assert!(ProbeStatus::HttpError(503).produced_sample());
        assert!(ProbeStatus::ConnectionRefused.produced_sample());
        assert!(!ProbeStatus::Failed.produced_sample());
    }

    #[test]
    fn stage_outcome_helpers() {
        assert_eq!(
            StageOutcome::Stopped { crowd_size: 40 }.stopping_crowd(),
            Some(40)
        );
        assert_eq!(
            StageOutcome::NoStop {
                max_crowd_tested: 150
            }
            .stopping_crowd(),
            None
        );
        assert!(StageOutcome::NoStop {
            max_crowd_tested: 55
        }
        .is_no_stop());
        assert!(!StageOutcome::Skipped.is_no_stop());
    }
}
