//! Turning stage outcomes into resource-provisioning inferences.
//!
//! The MFC is a black-box technique: all it observes is the crowd size at
//! which each request class first causes a persistent response-time
//! degradation.  What the operators actually want is the interpretation the
//! paper layers on top of those numbers:
//!
//! * which *sub-system* (HTTP processing, back-end data processing, access
//!   bandwidth) is the first to be constrained and at what load,
//! * how the sub-systems compare (e.g. "bandwidth is provisioned better
//!   than request handling", the Univ-1/Univ-3 style findings), and
//! * how exposed the site is to low-volume application-level DDoS attacks
//!   (§6: a server whose Small Query stage stops at a small crowd while the
//!   Large Object stage never stops is "highly vulnerable to even the most
//!   simple application-level attacks on the back-end data processing
//!   subsystem").

use serde::{Deserialize, Serialize};

use crate::config::MfcConfig;
use crate::report::StageReport;
use crate::types::{EpochSummary, Stage, StageOutcome};

/// The one surge rule, shared by the coordinator's quiescence policy and
/// the inference: an epoch whose background rate exceeds the returned
/// threshold ran inside a background-load surge.
///
/// The baseline is the lower quartile of `rates` (`sorted[(n − 1) / 4]`),
/// so a surge that starts mid-run is caught while steady heavy background
/// (the Univ-3 normality) is not; the threshold is three times that
/// baseline, never below 1 request/s, so idle-site noise never reads as a
/// surge.  `None` when there are no rates to take a baseline from.
pub fn surge_threshold(rates: &[f64]) -> Option<f64> {
    let mut sorted = rates.to_vec();
    sorted.sort_by(f64::total_cmp);
    let baseline = sorted.get(rates.len().checked_sub(1)? / 4)?;
    Some((3.0 * baseline).max(1.0))
}

/// The coordinator's verdict for one sub-system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Provisioning {
    /// No confirmed degradation up to the tested crowd ceiling.
    Unconstrained {
        /// Largest crowd actually tested.
        tested_up_to: usize,
    },
    /// A confirmed degradation at the given crowd size.
    ConstrainedAt {
        /// The stopping crowd size.
        crowd: usize,
    },
    /// The stage could not be evaluated (no suitable content, not run).
    Unknown,
}

impl Provisioning {
    /// A coarse ranking used to compare sub-systems: higher is better
    /// provisioned.  Unconstrained sub-systems rank above any constrained
    /// one; among constrained ones a larger stopping crowd ranks higher.
    fn rank(self) -> Option<usize> {
        match self {
            Provisioning::Unconstrained { tested_up_to } => {
                Some(usize::MAX - 1_000 + tested_up_to.min(999))
            }
            Provisioning::ConstrainedAt { crowd } => Some(crowd),
            Provisioning::Unknown => None,
        }
    }
}

/// What a stage's outcome is attributed to once the defense and path
/// fingerprints are taken into account.
///
/// The paper's methodology assumes the target is *static* and the network
/// transparent: any persistent response-time degradation is read as a
/// resource constraint at the server.  Three mechanisms break that
/// assumption, and each leaves a distinct mark in the per-epoch
/// observables:
///
/// * a **per-client rate limiter** clamps every probe client's throughput
///   to one common ceiling, so response times blow past θ while the
///   server's aggregate link sits nearly idle — the MFC would report a
///   bandwidth constraint that is not there;
/// * a **load-shedding** defense answers the excess crowd with fast 503s,
///   which the response-time detector reads as a *healthy* server — the
///   MFC would report NoStop for a site that is refusing service;
/// * a **shared path bottleneck** (an undersized transit link in front of
///   one vantage group) inflates that group's response times no matter how
///   well the server is provisioned — the central §2.2.3 hazard the
///   per-group medians exist to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationCause {
    /// The degradation pattern matches a genuine resource constraint.
    ResourceConstraint,
    /// The degradation bears the per-client rate-limit signature: client
    /// goodputs clamp to a common ceiling (low dispersion) while the
    /// delivered aggregate stays far below the known link capacity.
    ///
    /// The signature is necessary but not sufficient: a non-link bottleneck
    /// that serializes large transfers while a fat link idles (a CPU- or
    /// disk-starved file server) produces the same remote observables.
    /// Treat this verdict as "not a bandwidth constraint; most plausibly a
    /// per-client limiter", and cross-check the server-side utilization
    /// report where one is available.
    RateLimitDefense,
    /// The outcome is dominated by deliberate 503 shedding; for a NoStop
    /// outcome this means the verdict is defense-masked, not healthy.
    LoadSheddingDefense,
    /// The degradation bears the shared-path signature: one (or a
    /// minority of) vantage group's normalized response times rise far
    /// past θ while at least one other group stays flat.  A constraint at
    /// the server — or a per-client rate limiter — hits every group
    /// alike, so a skewed per-group profile localizes the bottleneck to
    /// the affected groups' shared path, not the target.
    PathCongestion,
    /// The evidence epochs coincide with a detected background-load surge:
    /// the server-reported non-MFC request rate during the triggering and
    /// check epochs sits far above the stage's own baseline (or the
    /// coordinator's quiescence policy flagged them).  Whatever the stage
    /// observed — a stop, errors, or even a NoStop — it measured *crowd
    /// plus surge*, not the crowd, so the verdict is confounded and says
    /// nothing about the server's provisioning at normal load.  Re-run the
    /// stage in a quiet window (the quiescence policy automates exactly
    /// that).
    BackgroundInterference,
    /// No confirmed degradation and no defense fingerprints.
    NotDegraded,
    /// Not enough evidence (stage skipped, or no epoch produced samples).
    Indeterminate,
}

/// The verdict for one stage / sub-system pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// The stage that produced the verdict.
    pub stage: Stage,
    /// The sub-system the stage exercises.
    pub subsystem: String,
    /// The verdict.
    pub provisioning: Provisioning,
    /// What the outcome is attributed to — a real constraint, or a server
    /// defense reacting to the probe.
    pub cause: DegradationCause,
}

/// Exposure to low-rate application-level denial of service (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DdosExposure {
    /// The back end keels over at a crowd an order of magnitude below what
    /// the bandwidth sustains: a trivially small botnet suffices.
    HighBackendExposure,
    /// At least one sub-system is constrained at the tested loads.
    SomeExposure,
    /// Nothing was constrained up to the tested loads.
    LowExposure,
    /// Not enough information.
    Unknown,
}

/// The full interpretation attached to an MFC report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Per-stage verdicts, in the order the stages were run.
    pub constraints: Vec<Constraint>,
    /// Stages ordered from best to worst provisioned (ties broken by stage
    /// order); only stages that produced a verdict appear.
    pub best_to_worst: Vec<Stage>,
    /// DDoS exposure assessment.
    pub ddos_exposure: DdosExposure,
    /// Human-readable observations, one sentence each.
    pub notes: Vec<String>,
}

impl InferenceReport {
    /// Builds the interpretation from per-stage reports.
    pub fn from_stages(stages: &[StageReport], config: &MfcConfig) -> InferenceReport {
        let constraints: Vec<Constraint> = stages
            .iter()
            .map(|report| Constraint {
                stage: report.stage,
                subsystem: report.stage.target_subsystem().to_string(),
                provisioning: match report.outcome {
                    StageOutcome::Stopped { crowd_size } => {
                        Provisioning::ConstrainedAt { crowd: crowd_size }
                    }
                    StageOutcome::NoStop { max_crowd_tested } => Provisioning::Unconstrained {
                        tested_up_to: max_crowd_tested,
                    },
                    StageOutcome::Skipped => Provisioning::Unknown,
                },
                cause: Self::assess_cause(report, config.threshold.as_millis_f64()),
            })
            .collect();

        let mut ranked: Vec<(Stage, usize)> = constraints
            .iter()
            .filter_map(|c| c.provisioning.rank().map(|r| (c.stage, r)))
            .collect();
        ranked.sort_by_key(|&(_, rank)| std::cmp::Reverse(rank));
        let best_to_worst: Vec<Stage> = ranked.iter().map(|(s, _)| *s).collect();

        let ddos_exposure = Self::assess_ddos(&constraints);
        let notes = Self::notes(&constraints, config);

        InferenceReport {
            constraints,
            best_to_worst,
            ddos_exposure,
            notes,
        }
    }

    /// Finds the verdict for a stage, if that stage was evaluated.
    pub fn provisioning_of(&self, stage: Stage) -> Option<Provisioning> {
        provisioning_in(&self.constraints, stage)
    }

    /// Finds the attributed cause for a stage, if that stage was evaluated.
    pub fn cause_of(&self, stage: Stage) -> Option<DegradationCause> {
        self.constraints
            .iter()
            .find(|c| c.stage == stage)
            .map(|c| c.cause)
    }

    /// True when any stage's outcome is attributed to a server defense
    /// rather than a resource constraint.
    pub fn defense_suspected(&self) -> bool {
        self.constraints.iter().any(|c| {
            matches!(
                c.cause,
                DegradationCause::RateLimitDefense | DegradationCause::LoadSheddingDefense
            )
        })
    }

    /// True when any stage's degradation is localized to a shared path
    /// bottleneck in front of a subset of vantage groups — i.e. the
    /// stopping crowd says nothing about the target's own provisioning.
    pub fn path_congestion_suspected(&self) -> bool {
        self.constraints
            .iter()
            .any(|c| c.cause == DegradationCause::PathCongestion)
    }

    /// True when any stage's verdict is confounded by a background-load
    /// surge during its evidence epochs: the reported stopping crowd
    /// measures crowd *plus* surge and should be re-measured in a quiet
    /// window.
    pub fn background_interference_suspected(&self) -> bool {
        self.constraints
            .iter()
            .any(|c| c.cause == DegradationCause::BackgroundInterference)
    }

    /// Attributes a stage outcome: the first rule of [`CAUSE_RULES`] that
    /// matches the stage's evidence names the cause.
    fn assess_cause(report: &StageReport, threshold_ms: f64) -> DegradationCause {
        let Some(evidence) = Evidence::new(report, threshold_ms) else {
            return DegradationCause::Indeterminate;
        };
        CAUSE_RULES
            .iter()
            .find(|(_, rule)| rule(&evidence))
            .map_or(DegradationCause::ResourceConstraint, |&(cause, _)| cause)
    }

    fn assess_ddos(constraints: &[Constraint]) -> DdosExposure {
        if backend_keels_over(constraints).is_some() {
            DdosExposure::HighBackendExposure
        } else if constraints
            .iter()
            .any(|c| matches!(c.provisioning, Provisioning::ConstrainedAt { .. }))
        {
            DdosExposure::SomeExposure
        } else if constraints
            .iter()
            .any(|c| c.provisioning != Provisioning::Unknown)
        {
            DdosExposure::LowExposure
        } else {
            DdosExposure::Unknown
        }
    }

    fn notes(constraints: &[Constraint], config: &MfcConfig) -> Vec<String> {
        let threshold = config.threshold.as_millis_f64();
        let mut notes: Vec<String> = constraints
            .iter()
            .map(|c| {
                let (stage, subsystem) = (c.stage.name(), &c.subsystem);
                match c.provisioning {
                    Provisioning::ConstrainedAt { crowd } => format!(
                        "{stage} stage: {subsystem} shows a persistent >{threshold:.0} ms \
                         degradation at {crowd} simultaneous requests."
                    ),
                    Provisioning::Unconstrained { tested_up_to } => format!(
                        "{stage} stage: no confirmed degradation up to {tested_up_to} simultaneous \
                         requests; {subsystem} appears well provisioned at this load."
                    ),
                    Provisioning::Unknown => {
                        format!("{stage} stage: not evaluated (no suitable content discovered).")
                    }
                }
            })
            .collect();

        // Defense fingerprints: where the static-target assumption broke.
        for c in constraints {
            let (stage, subsystem) = (c.stage.name(), &c.subsystem);
            notes.push(match (c.cause, c.provisioning) {
                (DegradationCause::RateLimitDefense, _) => format!(
                    "{stage} stage: the confirmed degradation bears a per-client rate-limit \
                     signature — every client's throughput clamps to one common ceiling while \
                     the access link runs far below capacity.  This is a defense reacting to \
                     the probe, not a constraint of the {subsystem}."
                ),
                (DegradationCause::LoadSheddingDefense, Provisioning::Unconstrained { .. }) => {
                    format!(
                        "{stage} stage: the NoStop verdict is defense-masked — a large share of \
                         probes were answered with fast 503s, which the response-time detector \
                         reads as a healthy server.  The site is shedding load, not absorbing it."
                    )
                }
                (DegradationCause::LoadSheddingDefense, _) => format!(
                    "{stage} stage: the outcome is dominated by deliberate 503 load shedding; \
                     the stopping crowd reflects an admission-control policy, not the \
                     capacity of the {subsystem}."
                ),
                (DegradationCause::BackgroundInterference, _) => format!(
                    "{stage} stage: the evidence epochs coincide with a background-load surge — \
                     the server's non-MFC request rate sat far above the stage's baseline.  \
                     The outcome measures crowd plus surge, not the {subsystem} alone; re-run \
                     the stage in a quiet window."
                ),
                (DegradationCause::PathCongestion, _) => format!(
                    "{stage} stage: the confirmed degradation is localized to a subset of vantage \
                     groups — their normalized response times blow past the threshold while \
                     other groups stay flat.  A constraint of the {subsystem} would hit every \
                     vantage point alike; this is congestion on the affected groups' shared \
                     path, not a server bottleneck."
                ),
                (
                    DegradationCause::ResourceConstraint
                    | DegradationCause::NotDegraded
                    | DegradationCause::Indeterminate,
                    _,
                ) => continue,
            });
        }

        // Comparative observations mirroring the paper's discussions.
        if let (
            Some(Provisioning::ConstrainedAt { crowd: base }),
            Some(Provisioning::Unconstrained { .. }),
        ) = (
            provisioning_in(constraints, Stage::Base),
            provisioning_in(constraints, Stage::LargeObject),
        ) {
            notes.push(format!(
                "Basic request handling degrades at {base} requests while bandwidth does not: \
                 the problem is more likely request handling than bandwidth provisioning."
            ));
        }
        if let Some(query) = backend_keels_over(constraints) {
            notes.push(format!(
                "The back-end data processing subsystem keels over at only {query} simultaneous \
                 queries while the access link absorbs every tested load: the site is highly \
                 vulnerable to low-volume application-level attacks."
            ));
        }
        notes
    }
}

/// The verdict for `stage` among `constraints`, if that stage was evaluated.
fn provisioning_in(constraints: &[Constraint], stage: Stage) -> Option<Provisioning> {
    constraints
        .iter()
        .find(|c| c.stage == stage)
        .map(|c| c.provisioning)
}

/// §6's high back-end exposure: the Small Query stage stops at a crowd of
/// at most 50 while the Large Object stage never stops.  Returns that crowd.
fn backend_keels_over(constraints: &[Constraint]) -> Option<usize> {
    match (
        provisioning_in(constraints, Stage::SmallQuery),
        provisioning_in(constraints, Stage::LargeObject),
    ) {
        (Some(Provisioning::ConstrainedAt { crowd }), Some(Provisioning::Unconstrained { .. }))
            if crowd <= 50 =>
        {
            Some(crowd)
        }
        _ => None,
    }
}

/// What one stage's cause is read from, built once per stage.
struct Evidence<'a> {
    stage: Stage,
    stopped: bool,
    /// The degradation threshold θ in milliseconds.
    threshold_ms: f64,
    /// The epochs that produced samples, in run order; never empty.
    sampled: Vec<&'a EpochSummary>,
    /// The sampled epochs the coordinator did not flag as surged: flagged
    /// epochs are known-contaminated evidence.  Without a quiescence
    /// policy no epoch is flagged and this is every sampled epoch.
    clean: Vec<&'a EpochSummary>,
}

impl<'a> Evidence<'a> {
    /// `None` when no epoch produced samples.
    fn new(report: &'a StageReport, threshold_ms: f64) -> Option<Evidence<'a>> {
        let sampled: Vec<&EpochSummary> = report
            .epochs
            .iter()
            .filter(|e| e.requests_observed > 0)
            .collect();
        if sampled.is_empty() {
            return None;
        }
        let clean = sampled
            .iter()
            .copied()
            .filter(|e| !e.surge_suspected)
            .collect();
        Some(Evidence {
            stage: report.stage,
            stopped: matches!(report.outcome, StageOutcome::Stopped { .. }),
            threshold_ms,
            sampled,
            clean,
        })
    }
}

/// A cause's fingerprint: does the stage's evidence bear it?
type Rule = fn(&Evidence) -> bool;

/// The cause rules in precedence order; the first that matches names the
/// cause, and a stage no rule matches reads as
/// [`DegradationCause::ResourceConstraint`].  The order is the whole of the
/// precedence:
///
/// 1. A background surge comes before every defense fingerprint: a surge
///    that overruns the server fakes the shedding signature (overload
///    503s) and the rate-limit clamp (starved uniform goodputs over an
///    idle-looking link), so surged evidence must never support a defense.
/// 2. Shedding comes before the NoStop check: a NoStop whose tail is mostly
///    fast 503s is defense-masked, not healthy.
/// 3. Without a confirmed stop there is no degradation to localize or
///    attribute, whatever the group medians or goodputs look like.
/// 4. The path comes before the clamp: both leave the server's link idle,
///    but only a path bottleneck is asymmetric across vantage groups (a
///    per-client limiter clamps every group alike).
const CAUSE_RULES: [(DegradationCause, Rule); 5] = [
    (DegradationCause::BackgroundInterference, surge_confounds),
    (DegradationCause::LoadSheddingDefense, sheds_load),
    (DegradationCause::NotDegraded, no_stop),
    (DegradationCause::PathCongestion, groups_skewed),
    (DegradationCause::RateLimitDefense, clamped_by_limiter),
];

/// The last three of `epochs`: the triggering epoch plus its check phase
/// (or, for NoStop, the largest crowds) — what a verdict rests on.
fn tail<'e>(epochs: &'e [&'e EpochSummary]) -> &'e [&'e EpochSummary] {
    &epochs[epochs.len().saturating_sub(3)..]
}

/// Mean fraction of HTTP-error samples over `epochs`.
fn error_rate(epochs: &[&EpochSummary]) -> f64 {
    epochs.iter().map(|e| e.error_rate).sum::<f64>() / epochs.len() as f64
}

/// Minimum fraction of HTTP-error samples in the assessed tail epochs
/// above which an outcome is attributed to load shedding.
const SHED_RATE_THRESHOLD: f64 = 0.25;

/// A strict majority of the sampled tail epochs that carry surge evidence
/// ran inside a surge — flagged by the coordinator, or a background rate
/// above [`surge_threshold`] over the stage's rates once there are at
/// least two of them — and the stage stopped or its tail is error-ridden
/// (surge-born 503s would otherwise read as a defense, or mask a NoStop
/// as healthy).  A clean NoStop straight through a surge is the one honest
/// survivor: the server absorbed even more than the crowd.  A stage with
/// no unflagged epoch is confounded outright.
fn surge_confounds(evidence: &Evidence) -> bool {
    let tail = tail(&evidence.sampled);
    let rates: Vec<f64> = evidence
        .sampled
        .iter()
        .filter_map(|e| e.background_rate)
        .collect();
    // Without enough rate data only the coordinator's own flags count.
    let threshold = surge_threshold(&rates)
        .filter(|_| rates.len() >= 2)
        .unwrap_or(f64::INFINITY);
    let with_evidence = tail
        .iter()
        .filter(|e| e.surge_suspected || e.background_rate.is_some());
    let surged = with_evidence
        .clone()
        .filter(|e| e.surge_suspected || e.background_rate.is_some_and(|rate| rate > threshold));
    let surge = surged.count() * 2 > with_evidence.count();
    evidence.clean.is_empty()
        || (surge && (evidence.stopped || error_rate(tail) >= SHED_RATE_THRESHOLD))
}

/// The clean tail is mostly fast 503s.
fn sheds_load(evidence: &Evidence) -> bool {
    error_rate(tail(&evidence.clean)) >= SHED_RATE_THRESHOLD
}

/// The stage never confirmed a degradation.
fn no_stop(evidence: &Evidence) -> bool {
    !evidence.stopped
}

/// A vantage group counts as *flat* when its median normalized response
/// time stays below this fraction of θ while another group exceeds θ —
/// the asymmetry a server-side constraint cannot produce.
const PATH_FLAT_FRACTION: f64 = 0.25;

/// A strict majority of the clean tail epochs that carry group data show
/// one group's median past θ while another stays flat.
fn groups_skewed(evidence: &Evidence) -> bool {
    let theta = evidence.threshold_ms;
    let with_groups = tail(&evidence.clean)
        .iter()
        .filter(|e| e.group_median_ms.len() > 1);
    let skewed = with_groups.clone().filter(|e| {
        let medians = || e.group_median_ms.iter().map(|&(_, m)| m);
        medians().any(|m| m > theta) && medians().any(|m| m < PATH_FLAT_FRACTION * theta)
    });
    skewed.count() * 2 > with_groups.count()
}

/// Maximum goodput coefficient of variation for the "everyone clamps to
/// one ceiling" half of the rate-limit signature.
const CLAMP_COV_THRESHOLD: f64 = 0.3;
/// Maximum delivered-aggregate / link-capacity ratio for the "the link was
/// never the problem" half of the rate-limit signature.
const CLAMP_HEADROOM_THRESHOLD: f64 = 0.5;

/// Every client's goodput clamps to one common ceiling while the measured
/// link idles.
fn clamp_signature(e: &EpochSummary) -> bool {
    match (e.client_goodput_cov, e.aggregate_goodput, e.link_capacity) {
        (Some(cov), Some(aggregate), Some(capacity)) if capacity > 0.0 => {
            cov < CLAMP_COV_THRESHOLD && aggregate / capacity < CLAMP_HEADROOM_THRESHOLD
        }
        _ => false,
    }
}

/// A Large Object stage (the signature needs bandwidth-bound transfers)
/// with any clean tail epoch bearing the clamp signature — a stray client
/// whose bucket refilled mid-check-phase must not hide the clamp behind
/// one high-variance epoch; under a genuine constraint no epoch shows
/// clamped goodputs *and* link headroom.
///
/// The signature is also true of a shared upstream bottleneck every
/// vantage group traverses (a thin backbone).  The two are separable by
/// how the ceiling moves with the crowd: a token bucket grants each client
/// a fixed rate, while shared bandwidth divides, scaling the per-client
/// goodput like 1/crowd.  So the smallest- and largest-crowd clean epochs
/// bearing the signature are compared, and a goodput ratio beyond the
/// geometric midpoint of the crowd ratio is bandwidth division, not a
/// limiter.  Too narrow a crowd span to tell keeps the limiter.
fn clamped_by_limiter(evidence: &Evidence) -> bool {
    if evidence.stage != Stage::LargeObject
        || !tail(&evidence.clean).iter().any(|e| clamp_signature(e))
    {
        return false;
    }
    let clamped: Vec<(usize, f64)> = evidence
        .clean
        .iter()
        .filter(|e| clamp_signature(e))
        .filter_map(|e| e.client_goodput_median.map(|m| (e.crowd_size, m)))
        .collect();
    match (
        clamped.iter().min_by_key(|&&(c, _)| c),
        clamped.iter().max_by_key(|&&(c, _)| c),
    ) {
        (Some(&(c_small, m_small)), Some(&(c_large, m_large)))
            if c_large >= 2 * c_small && m_large > 0.0 =>
        {
            m_small / m_large <= (c_large as f64 / c_small as f64).sqrt()
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::StageReport;

    fn stage_report(stage: Stage, outcome: StageOutcome) -> StageReport {
        StageReport {
            stage,
            outcome,
            epochs: Vec::new(),
            requests_issued: 0,
        }
    }

    fn epoch(crowd: usize, error_rate: f64, goodputs: Option<(f64, f64, f64)>) -> EpochSummary {
        let (median, cov, aggregate) = match goodputs {
            Some((m, c, a)) => (Some(m), Some(c), Some(a)),
            None => (None, None, None),
        };
        EpochSummary {
            index: 1,
            crowd_size: crowd,
            requests_scheduled: crowd,
            requests_observed: crowd,
            detector_ms: 500.0,
            median_ms: 500.0,
            check_phase: false,
            commands_lost: 0,
            arrival_spread_90: None,
            group_median_ms: Vec::new(),
            error_rate,
            client_goodput_median: median,
            client_goodput_cov: cov,
            aggregate_goodput: aggregate,
            link_capacity: Some(1_250_000.0),
            background_rate: None,
            surge_suspected: false,
        }
    }

    fn config() -> MfcConfig {
        MfcConfig::standard()
    }

    #[test]
    fn verdicts_mirror_outcomes() {
        let stages = vec![
            stage_report(Stage::Base, StageOutcome::Stopped { crowd_size: 25 }),
            stage_report(Stage::SmallQuery, StageOutcome::Stopped { crowd_size: 55 }),
            stage_report(
                Stage::LargeObject,
                StageOutcome::NoStop {
                    max_crowd_tested: 55,
                },
            ),
        ];
        let inference = InferenceReport::from_stages(&stages, &config());
        assert_eq!(
            inference.provisioning_of(Stage::Base),
            Some(Provisioning::ConstrainedAt { crowd: 25 })
        );
        assert_eq!(
            inference.provisioning_of(Stage::LargeObject),
            Some(Provisioning::Unconstrained { tested_up_to: 55 })
        );
        // Bandwidth best, then the back end, then base processing.
        assert_eq!(
            inference.best_to_worst,
            vec![Stage::LargeObject, Stage::SmallQuery, Stage::Base]
        );
        assert!(!inference.notes.is_empty());
    }

    #[test]
    fn qtnp_pattern_flags_backend_ddos_exposure() {
        // The QTNP-like pattern: bandwidth NoStop, small query stops below
        // 50 — §6 calls this out as high application-level DDoS exposure.
        let stages = vec![
            stage_report(Stage::Base, StageOutcome::Stopped { crowd_size: 25 }),
            stage_report(Stage::SmallQuery, StageOutcome::Stopped { crowd_size: 45 }),
            stage_report(
                Stage::LargeObject,
                StageOutcome::NoStop {
                    max_crowd_tested: 150,
                },
            ),
        ];
        let inference = InferenceReport::from_stages(&stages, &config());
        assert_eq!(inference.ddos_exposure, DdosExposure::HighBackendExposure);
        assert!(inference
            .notes
            .iter()
            .any(|n| n.contains("application-level")));
    }

    #[test]
    fn fully_unconstrained_site_has_low_exposure() {
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                stage_report(
                    s,
                    StageOutcome::NoStop {
                        max_crowd_tested: 75,
                    },
                )
            })
            .collect::<Vec<_>>();
        let inference = InferenceReport::from_stages(&stages, &config());
        assert_eq!(inference.ddos_exposure, DdosExposure::LowExposure);
        assert_eq!(inference.best_to_worst.len(), 3);
    }

    #[test]
    fn skipped_stages_are_unknown() {
        let stages = vec![
            stage_report(
                Stage::Base,
                StageOutcome::NoStop {
                    max_crowd_tested: 55,
                },
            ),
            stage_report(Stage::SmallQuery, StageOutcome::Skipped),
        ];
        let inference = InferenceReport::from_stages(&stages, &config());
        assert_eq!(
            inference.provisioning_of(Stage::SmallQuery),
            Some(Provisioning::Unknown)
        );
        assert_eq!(inference.provisioning_of(Stage::LargeObject), None);
        assert!(!inference.best_to_worst.contains(&Stage::SmallQuery));
    }

    #[test]
    fn all_skipped_is_unknown_exposure() {
        let stages = vec![
            stage_report(Stage::SmallQuery, StageOutcome::Skipped),
            stage_report(Stage::LargeObject, StageOutcome::Skipped),
        ];
        let inference = InferenceReport::from_stages(&stages, &config());
        assert_eq!(inference.ddos_exposure, DdosExposure::Unknown);
    }

    fn epoch_with_groups(crowd: usize, medians: &[(u32, f64)]) -> EpochSummary {
        let mut e = epoch(crowd, 0.0, None);
        e.group_median_ms = medians.to_vec();
        e
    }

    #[test]
    fn skewed_group_medians_localize_to_the_path() {
        // Group 0 blows past the 100 ms threshold while groups 1–3 stay
        // flat: a server constraint cannot be that selective.
        let mut report = stage_report(Stage::LargeObject, StageOutcome::Stopped { crowd_size: 20 });
        report.epochs = vec![
            epoch_with_groups(15, &[(0, 900.0), (1, 8.0), (2, 12.0), (3, 6.0)]),
            epoch_with_groups(20, &[(0, 1_400.0), (1, 10.0), (2, 9.0), (3, 11.0)]),
            epoch_with_groups(20, &[(0, 1_500.0), (1, 12.0), (2, 14.0), (3, 8.0)]),
        ];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::LargeObject),
            Some(DegradationCause::PathCongestion)
        );
        assert!(inference.path_congestion_suspected());
        assert!(!inference.defense_suspected());
        assert!(inference.notes.iter().any(|n| n.contains("shared path")));
    }

    #[test]
    fn uniform_group_degradation_stays_a_server_constraint() {
        // Every vantage group degrades together: that is the server (or a
        // symmetric defense), not the path.
        let mut report = stage_report(Stage::LargeObject, StageOutcome::Stopped { crowd_size: 20 });
        report.epochs = vec![
            epoch_with_groups(20, &[(0, 700.0), (1, 650.0), (2, 800.0), (3, 720.0)]),
            epoch_with_groups(20, &[(0, 900.0), (1, 840.0), (2, 760.0), (3, 880.0)]),
        ];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::LargeObject),
            Some(DegradationCause::ResourceConstraint)
        );
        assert!(!inference.path_congestion_suspected());
    }

    #[test]
    fn path_skew_must_be_consistent_across_the_evidence_epochs() {
        // Only one of three evidence epochs shows the skew — not enough to
        // overturn the server attribution.
        let mut report = stage_report(Stage::LargeObject, StageOutcome::Stopped { crowd_size: 20 });
        report.epochs = vec![
            epoch_with_groups(20, &[(0, 600.0), (1, 500.0)]),
            epoch_with_groups(20, &[(0, 700.0), (1, 10.0)]),
            epoch_with_groups(20, &[(0, 650.0), (1, 620.0)]),
        ];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::LargeObject),
            Some(DegradationCause::ResourceConstraint)
        );
    }

    #[test]
    fn clamped_goodputs_over_an_idle_link_read_as_rate_limiting() {
        // 30 clients all at ~16 KB/s (cov 0.05) summing to 480 KB/s on a
        // 1.25 MB/s link: the clamp signature.
        let mut report = stage_report(Stage::LargeObject, StageOutcome::Stopped { crowd_size: 30 });
        report.epochs = vec![
            epoch(10, 0.0, Some((16_384.0, 0.05, 163_840.0))),
            epoch(30, 0.0, Some((16_384.0, 0.05, 491_520.0))),
        ];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::LargeObject),
            Some(DegradationCause::RateLimitDefense)
        );
        assert!(inference.defense_suspected());
    }

    #[test]
    fn shared_bandwidth_division_is_not_mistaken_for_a_rate_limiter() {
        // Every epoch bears the clamp signature (uniform goodputs, idle
        // measured link), but the per-client goodput divides like 1/crowd
        // across epochs: that is shared bandwidth upstream of the access
        // link, not a token bucket handing each client a fixed rate.
        let mut report = stage_report(Stage::LargeObject, StageOutcome::Stopped { crowd_size: 40 });
        report.epochs = vec![
            epoch(10, 0.0, Some((50_000.0, 0.05, 500_000.0))),
            epoch(20, 0.0, Some((25_000.0, 0.05, 500_000.0))),
            epoch(40, 0.0, Some((12_500.0, 0.05, 500_000.0))),
        ];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::LargeObject),
            Some(DegradationCause::ResourceConstraint),
            "1/crowd goodput division must defeat the clamp fingerprint"
        );
        assert!(!inference.defense_suspected());
    }

    #[test]
    fn saturated_link_reads_as_a_real_constraint() {
        // Fair sharing also yields uniform goodputs — but the aggregate
        // sits at the link capacity, so it is a genuine constraint.
        let mut report = stage_report(Stage::LargeObject, StageOutcome::Stopped { crowd_size: 30 });
        report.epochs = vec![epoch(30, 0.0, Some((40_000.0, 0.08, 1_200_000.0)))];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::LargeObject),
            Some(DegradationCause::ResourceConstraint)
        );
        assert!(!inference.defense_suspected());
    }

    fn epoch_with_background(crowd: usize, rate: f64) -> EpochSummary {
        let mut e = epoch(crowd, 0.0, None);
        e.background_rate = Some(rate);
        e
    }

    #[test]
    fn surge_threshold_is_three_lower_quartiles_with_a_floor() {
        assert_eq!(surge_threshold(&[]), None);
        assert_eq!(surge_threshold(&[10.0]), Some(30.0));
        // The absolute floor dominates near-idle baselines.
        assert_eq!(surge_threshold(&[0.1]), Some(1.0));
        // The baseline is `sorted[(n - 1) / 4]`, whatever the input order:
        // index 1 of five rates, index 2 of nine.
        assert_eq!(surge_threshold(&[50.0, 4.0, 2.0, 40.0, 30.0]), Some(12.0));
        let nine = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(surge_threshold(&nine), Some(9.0));
        assert_eq!(surge_threshold(&nine[..8]), Some(9.0));
        assert_eq!(surge_threshold(&nine[..4]), Some(18.0));
    }

    #[test]
    fn surge_coincident_stop_reads_as_background_interference() {
        // The stage's baseline background is 0.2 req/s; the triggering and
        // check epochs ran while it surged to 40 req/s.  The stopping
        // crowd measures crowd + surge: confounded.
        let mut report = stage_report(Stage::Base, StageOutcome::Stopped { crowd_size: 20 });
        report.epochs = vec![
            epoch_with_background(10, 0.2),
            epoch_with_background(20, 42.0),
            epoch_with_background(19, 38.0),
            epoch_with_background(20, 40.0),
        ];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::Base),
            Some(DegradationCause::BackgroundInterference)
        );
        assert!(inference.background_interference_suspected());
        assert!(!inference.defense_suspected());
        assert!(inference.notes.iter().any(|n| n.contains("quiet window")));
    }

    #[test]
    fn surge_overload_errors_are_not_mistaken_for_a_shedding_defense() {
        // The surge overruns the server, so the evidence epochs come back
        // full of fast 503s — the shedding signature, but born of the
        // background surge, not an operator defense.  The surge check must
        // win.
        let surged = |crowd: usize, rate: f64, errors: f64| {
            let mut e = epoch(crowd, errors, None);
            e.background_rate = Some(rate);
            e
        };
        let mut report = stage_report(Stage::Base, StageOutcome::Stopped { crowd_size: 20 });
        report.epochs = vec![
            surged(10, 0.2, 0.0),
            surged(20, 42.0, 0.6),
            surged(20, 40.0, 0.55),
        ];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::Base),
            Some(DegradationCause::BackgroundInterference)
        );
        assert!(!inference.defense_suspected());
        // A NoStop masked by surge-born 503s is equally confounded.
        let mut report = stage_report(
            Stage::Base,
            StageOutcome::NoStop {
                max_crowd_tested: 40,
            },
        );
        report.epochs = vec![
            surged(10, 0.2, 0.0),
            surged(20, 42.0, 0.6),
            surged(40, 40.0, 0.7),
        ];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::Base),
            Some(DegradationCause::BackgroundInterference)
        );
    }

    #[test]
    fn steady_heavy_background_is_not_a_surge() {
        // Univ-3-style: the server is always busy.  A constant 20 req/s
        // background is the site's normal operating point, not a surge —
        // the verdict stays a genuine constraint.
        let mut report = stage_report(Stage::Base, StageOutcome::Stopped { crowd_size: 20 });
        report.epochs = vec![
            epoch_with_background(10, 19.0),
            epoch_with_background(20, 21.0),
            epoch_with_background(20, 20.0),
        ];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::Base),
            Some(DegradationCause::ResourceConstraint)
        );
        assert!(!inference.background_interference_suspected());
    }

    #[test]
    fn idle_site_noise_stays_below_the_absolute_floor() {
        // Baseline 0.05 req/s, "surge" to 0.4 req/s: an 8x ratio but far
        // below one request per second — not a surge on any real server.
        let mut report = stage_report(Stage::Base, StageOutcome::Stopped { crowd_size: 20 });
        report.epochs = vec![
            epoch_with_background(10, 0.05),
            epoch_with_background(20, 0.4),
            epoch_with_background(20, 0.35),
        ];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::Base),
            Some(DegradationCause::ResourceConstraint)
        );
    }

    #[test]
    fn coordinator_surge_flags_confound_even_without_rate_data() {
        // A live backend with no server-side instrumentation: only the
        // coordinator's quiescence flags carry the evidence.
        let mut report = stage_report(Stage::Base, StageOutcome::Stopped { crowd_size: 20 });
        let flagged = |crowd: usize| {
            let mut e = epoch(crowd, 0.0, None);
            e.surge_suspected = true;
            e
        };
        report.epochs = vec![epoch(10, 0.0, None), flagged(20), flagged(20)];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::Base),
            Some(DegradationCause::BackgroundInterference)
        );
    }

    #[test]
    fn heavy_error_rates_read_as_load_shedding_even_on_nostop() {
        let mut report = stage_report(
            Stage::Base,
            StageOutcome::NoStop {
                max_crowd_tested: 40,
            },
        );
        report.epochs = vec![epoch(20, 0.1, None), epoch(40, 0.6, None)];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::Base),
            Some(DegradationCause::LoadSheddingDefense)
        );
        assert!(inference.notes.iter().any(|n| n.contains("defense-masked")));
    }

    #[test]
    fn clean_outcomes_keep_quiet_causes() {
        let mut stopped = stage_report(Stage::Base, StageOutcome::Stopped { crowd_size: 25 });
        stopped.epochs = vec![epoch(25, 0.0, None)];
        let mut nostop = stage_report(
            Stage::SmallQuery,
            StageOutcome::NoStop {
                max_crowd_tested: 40,
            },
        );
        nostop.epochs = vec![epoch(40, 0.0, None)];
        let skipped = stage_report(Stage::LargeObject, StageOutcome::Skipped);
        let inference = InferenceReport::from_stages(&[stopped, nostop, skipped], &config());
        assert_eq!(
            inference.cause_of(Stage::Base),
            Some(DegradationCause::ResourceConstraint)
        );
        assert_eq!(
            inference.cause_of(Stage::SmallQuery),
            Some(DegradationCause::NotDegraded)
        );
        assert_eq!(
            inference.cause_of(Stage::LargeObject),
            Some(DegradationCause::Indeterminate)
        );
        assert!(!inference.defense_suspected());
    }

    #[test]
    fn base_vs_bandwidth_note_matches_univ3_anecdote() {
        let stages = vec![
            stage_report(Stage::Base, StageOutcome::Stopped { crowd_size: 90 }),
            stage_report(
                Stage::LargeObject,
                StageOutcome::NoStop {
                    max_crowd_tested: 150,
                },
            ),
        ];
        let inference = InferenceReport::from_stages(&stages, &config());
        assert!(inference
            .notes
            .iter()
            .any(|n| n.contains("request handling")));
    }

    fn clamped(crowd: usize, groups: &[(u32, f64)]) -> EpochSummary {
        let mut e = epoch(crowd, 0.0, Some((16_384.0, 0.05, 16_384.0 * crowd as f64)));
        e.group_median_ms = groups.to_vec();
        e
    }

    #[test]
    fn path_skew_outranks_the_clamp_signature() {
        // Both fingerprints in one tail: group 0 far past θ while group 1
        // stays flat, and every client clamped to 16 KB/s over an idle
        // link.  A per-client limiter cannot be that selective.
        let skew = [(0, 1_200.0), (1, 10.0)];
        let mut report = stage_report(Stage::LargeObject, StageOutcome::Stopped { crowd_size: 30 });
        report.epochs = vec![clamped(10, &skew), clamped(20, &skew), clamped(30, &skew)];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::LargeObject),
            Some(DegradationCause::PathCongestion)
        );
    }

    #[test]
    fn a_nostop_stage_with_skewed_groups_is_not_degraded() {
        // Without a confirmed stop there is no degradation to localize.
        let mut report = stage_report(
            Stage::LargeObject,
            StageOutcome::NoStop {
                max_crowd_tested: 40,
            },
        );
        report.epochs = vec![
            epoch_with_groups(20, &[(0, 900.0), (1, 8.0)]),
            epoch_with_groups(30, &[(0, 1_400.0), (1, 10.0)]),
            epoch_with_groups(40, &[(0, 1_500.0), (1, 12.0)]),
        ];
        let inference = InferenceReport::from_stages(&[report], &config());
        assert_eq!(
            inference.cause_of(Stage::LargeObject),
            Some(DegradationCause::NotDegraded)
        );
    }

    #[test]
    fn the_clamp_signature_speaks_only_for_large_object() {
        // The same clamped epochs read as a limiter on the bandwidth stage
        // and as a genuine constraint on the back-end stage, whose
        // transfers are too small to be bandwidth-bound.
        let cause = |stage: Stage| {
            let mut report = stage_report(stage, StageOutcome::Stopped { crowd_size: 30 });
            report.epochs = vec![clamped(10, &[]), clamped(30, &[])];
            InferenceReport::from_stages(&[report], &config()).cause_of(stage)
        };
        assert_eq!(
            cause(Stage::LargeObject),
            Some(DegradationCause::RateLimitDefense)
        );
        assert_eq!(
            cause(Stage::SmallQuery),
            Some(DegradationCause::ResourceConstraint)
        );
    }

    #[test]
    fn every_note_reads_in_full() {
        let with = |stage: Stage, outcome: StageOutcome, epochs: Vec<EpochSummary>| {
            let mut report = stage_report(stage, outcome);
            report.epochs = epochs;
            report
        };
        let surged = |crowd: usize, rate: f64| epoch_with_background(crowd, rate);
        // A surge on Base, shedding on both other stages: every cause note
        // but the clamp and path ones, plus both comparative notes.
        let stages = vec![
            with(
                Stage::Base,
                StageOutcome::Stopped { crowd_size: 20 },
                vec![surged(10, 0.2), surged(20, 42.0), surged(20, 40.0)],
            ),
            with(
                Stage::SmallQuery,
                StageOutcome::Stopped { crowd_size: 45 },
                vec![epoch(40, 0.5, None), epoch(45, 0.6, None)],
            ),
            with(
                Stage::LargeObject,
                StageOutcome::NoStop {
                    max_crowd_tested: 150,
                },
                vec![epoch(100, 0.4, None), epoch(150, 0.7, None)],
            ),
        ];
        let notes = InferenceReport::from_stages(&stages, &config()).notes;
        let expected = [
            "Base stage: HTTP request processing shows a persistent >100 ms degradation at 20 \
             simultaneous requests.",
            "Small Query stage: back-end data processing (database / dynamic handler) shows a \
             persistent >100 ms degradation at 45 simultaneous requests.",
            "Large Object stage: no confirmed degradation up to 150 simultaneous requests; \
             outbound access bandwidth appears well provisioned at this load.",
            "Base stage: the evidence epochs coincide with a background-load surge — the \
             server's non-MFC request rate sat far above the stage's baseline.  The outcome \
             measures crowd plus surge, not the HTTP request processing alone; re-run the \
             stage in a quiet window.",
            "Small Query stage: the outcome is dominated by deliberate 503 load shedding; the \
             stopping crowd reflects an admission-control policy, not the capacity of the \
             back-end data processing (database / dynamic handler).",
            "Large Object stage: the NoStop verdict is defense-masked — a large share of probes \
             were answered with fast 503s, which the response-time detector reads as a healthy \
             server.  The site is shedding load, not absorbing it.",
            "Basic request handling degrades at 20 requests while bandwidth does not: the \
             problem is more likely request handling than bandwidth provisioning.",
            "The back-end data processing subsystem keels over at only 45 simultaneous queries \
             while the access link absorbs every tested load: the site is highly vulnerable \
             to low-volume application-level attacks.",
        ];
        assert_eq!(notes, expected);

        // The clamp and path notes, one Large Object stage each.
        let large_object = |epochs: Vec<EpochSummary>| {
            let stage = with(
                Stage::LargeObject,
                StageOutcome::Stopped { crowd_size: 30 },
                epochs,
            );
            InferenceReport::from_stages(&[stage], &config()).notes
        };
        let stop_note = "Large Object stage: outbound access bandwidth shows a persistent >100 ms \
                         degradation at 30 simultaneous requests.";
        assert_eq!(
            large_object(vec![clamped(10, &[]), clamped(30, &[])]),
            [
                stop_note,
                "Large Object stage: the confirmed degradation bears a per-client rate-limit \
                 signature — every client's throughput clamps to one common ceiling while the \
                 access link runs far below capacity.  This is a defense reacting to the probe, \
                 not a constraint of the outbound access bandwidth.",
            ]
        );
        let skew = [(0, 1_200.0), (1, 10.0)];
        assert_eq!(
            large_object(vec![
                epoch_with_groups(20, &skew),
                epoch_with_groups(30, &skew)
            ]),
            [
                stop_note,
                "Large Object stage: the confirmed degradation is localized to a subset of \
                 vantage groups — their normalized response times blow past the threshold \
                 while other groups stay flat.  A constraint of the outbound access bandwidth \
                 would hit every vantage point alike; this is congestion on the affected \
                 groups' shared path, not a server bottleneck.",
            ]
        );
    }
}
