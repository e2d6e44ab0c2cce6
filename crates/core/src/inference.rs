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

use crate::config::{MfcConfig, QuiescencePolicy};
use crate::report::StageReport;
use crate::types::{EpochSummary, Stage, StageOutcome};

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
    /// that).  Checked before every defense fingerprint: a surge fakes
    /// both the shedding signature (overload 503s) and the rate-limit
    /// clamp (starved uniform goodputs over an idle-looking link).
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
        self.constraints
            .iter()
            .find(|c| c.stage == stage)
            .map(|c| c.provisioning)
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

    /// Minimum fraction of HTTP-error samples in the assessed tail epochs
    /// above which an outcome is attributed to load shedding.
    const SHED_RATE_THRESHOLD: f64 = 0.25;
    /// Maximum goodput coefficient of variation for the "everyone clamps
    /// to one ceiling" half of the rate-limit signature.
    const CLAMP_COV_THRESHOLD: f64 = 0.3;
    /// Maximum delivered-aggregate / link-capacity ratio for the "the link
    /// was never the problem" half of the rate-limit signature.
    const CLAMP_HEADROOM_THRESHOLD: f64 = 0.5;
    /// A vantage group counts as *flat* when its median normalized
    /// response time stays below this fraction of θ while another group
    /// exceeds θ — the asymmetry a server-side constraint cannot produce.
    const PATH_FLAT_FRACTION: f64 = 0.25;

    /// Attributes a stage outcome by fingerprinting its final epochs.
    fn assess_cause(report: &StageReport, threshold_ms: f64) -> DegradationCause {
        let epochs: Vec<&EpochSummary> = report
            .epochs
            .iter()
            .filter(|e| e.requests_observed > 0)
            .collect();
        if epochs.is_empty() {
            return DegradationCause::Indeterminate;
        }
        // Background-surge confound comes first, before *any* defense
        // fingerprint: a surge that overruns the server produces fast 503s
        // (a fake shedding signature) and starved uniform goodputs over an
        // idle-looking link (a fake rate-limit clamp), so evidence epochs
        // that ran inside a surge must never support a defense
        // attribution — only the interference verdict.  The last three
        // epochs cover the triggering epoch plus its check phase (or, for
        // NoStop, the largest crowds) — the evidence the verdict rests on.
        // The baseline is the lower quartile of the stage's observed
        // background rates, so a surge that *starts mid-run* is caught
        // while steady heavy background (the Univ-3 normality) is not
        // flagged.
        let tail_all = &epochs[epochs.len().saturating_sub(3)..];
        let rates: Vec<f64> = epochs.iter().filter_map(|e| e.background_rate).collect();
        let surged_epochs = |threshold: f64| {
            tail_all
                .iter()
                .filter(|e| {
                    e.surge_suspected || e.background_rate.is_some_and(|rate| rate > threshold)
                })
                .count()
        };
        let evidence = tail_all
            .iter()
            .filter(|e| e.surge_suspected || e.background_rate.is_some())
            .count();
        let surge_detected = if rates.len() >= 2 && evidence > 0 {
            let mut sorted = rates.clone();
            sorted.sort_by(f64::total_cmp);
            let baseline = sorted[(sorted.len() - 1) / 4];
            // The coordinator's default surge rule: a multiple of the
            // baseline, with an absolute floor so idle-site noise never
            // reads as a surge.
            let threshold = QuiescencePolicy::default().threshold(baseline);
            surged_epochs(threshold) * 2 > evidence
        } else {
            // No rate data at all, but the coordinator's own quiescence
            // policy may have flagged the evidence epochs.
            evidence > 0 && surged_epochs(f64::INFINITY) * 2 > evidence
        };
        if surge_detected {
            // A surge confounds a *stop* (the stage measured crowd plus
            // surge) and an error-ridden tail (surge-born 503s would
            // otherwise read as an operator defense, or mask a NoStop as
            // healthy).  A clean NoStop straight through the surge is the
            // one honest survivor: the server absorbed even more than the
            // crowd.
            let stopped = matches!(report.outcome, StageOutcome::Stopped { .. });
            let tail_shed =
                tail_all.iter().map(|e| e.error_rate).sum::<f64>() / tail_all.len() as f64;
            if stopped || tail_shed >= Self::SHED_RATE_THRESHOLD {
                return DegradationCause::BackgroundInterference;
            }
        }
        // Everything downstream fingerprints the *clean* epochs only:
        // surge-flagged epochs are known-contaminated evidence.  Without a
        // quiescence policy no epoch is flagged and this is exactly the
        // pre-workload view.
        let clean: Vec<&EpochSummary> = epochs
            .iter()
            .filter(|e| !e.surge_suspected)
            .copied()
            .collect();
        if clean.is_empty() {
            return DegradationCause::BackgroundInterference;
        }
        let tail = &clean[clean.len().saturating_sub(3)..];
        let shed_rate = tail.iter().map(|e| e.error_rate).sum::<f64>() / tail.len() as f64;
        if shed_rate >= Self::SHED_RATE_THRESHOLD {
            return DegradationCause::LoadSheddingDefense;
        }
        let stopped = matches!(report.outcome, StageOutcome::Stopped { .. });
        if !stopped {
            return DegradationCause::NotDegraded;
        }
        // Path localization comes before the rate-limit fingerprint: both
        // leave the server's link idle, but only a path bottleneck is
        // asymmetric across vantage groups (a per-client limiter clamps
        // every group alike).  The verdict needs a strict majority of the
        // evidence epochs that carry group data to show the skew — one
        // group's median past θ while another stays flat.
        let with_groups: Vec<&&EpochSummary> = tail
            .iter()
            .filter(|e| e.group_median_ms.len() > 1)
            .collect();
        if !with_groups.is_empty() {
            let skewed = with_groups
                .iter()
                .filter(|e| {
                    let max = e
                        .group_median_ms
                        .iter()
                        .map(|&(_, m)| m)
                        .fold(f64::NEG_INFINITY, f64::max);
                    let min = e
                        .group_median_ms
                        .iter()
                        .map(|&(_, m)| m)
                        .fold(f64::INFINITY, f64::min);
                    max > threshold_ms && min < Self::PATH_FLAT_FRACTION * threshold_ms
                })
                .count();
            if skewed * 2 > with_groups.len() {
                return DegradationCause::PathCongestion;
            }
        }
        // The clamp signature needs bandwidth-bound transfers, so it is
        // only diagnostic for the Large Object stage.  Any tail epoch
        // bearing the signature suffices — a stray client whose bucket
        // refilled mid-check-phase must not hide the clamp behind one
        // high-variance epoch.  (Under a genuine constraint no epoch shows
        // clamped goodputs *and* link headroom, so this stays safe.)
        if report.stage == Stage::LargeObject {
            let signature = |e: &EpochSummary| match (
                e.client_goodput_cov,
                e.aggregate_goodput,
                e.link_capacity,
            ) {
                (Some(cov), Some(aggregate), Some(capacity)) if capacity > 0.0 => {
                    cov < Self::CLAMP_COV_THRESHOLD
                        && aggregate / capacity < Self::CLAMP_HEADROOM_THRESHOLD
                }
                _ => false,
            };
            if tail.iter().any(|e| signature(e)) {
                // The signature says "everyone clamps to a common ceiling
                // while the measured link idles" — true of a per-client
                // limiter *and* of a shared upstream bottleneck every
                // vantage group traverses (a thin backbone).  The two are
                // still separable by how the ceiling moves with the crowd:
                // a token bucket grants each client a fixed rate regardless
                // of crowd size, while shared bandwidth divides, scaling
                // the per-client goodput like 1/crowd.  Compare the
                // smallest- and largest-crowd epochs that bear the
                // signature; a goodput ratio beyond the geometric midpoint
                // of the crowd ratio is bandwidth division, not a limiter.
                let clamped_epochs: Vec<(usize, f64)> = clean
                    .iter()
                    .filter(|e| signature(e))
                    .filter_map(|e| e.client_goodput_median.map(|m| (e.crowd_size, m)))
                    .collect();
                let small = clamped_epochs.iter().min_by_key(|&&(c, _)| c);
                let large = clamped_epochs.iter().max_by_key(|&&(c, _)| c);
                let divides_like_bandwidth = match (small, large) {
                    (Some(&(c_small, m_small)), Some(&(c_large, m_large)))
                        if c_large >= 2 * c_small && m_large > 0.0 =>
                    {
                        let crowd_ratio = c_large as f64 / c_small as f64;
                        m_small / m_large > crowd_ratio.sqrt()
                    }
                    // Too narrow a crowd span to tell: keep the defense
                    // attribution (the pre-topology behaviour).
                    _ => false,
                };
                if !divides_like_bandwidth {
                    return DegradationCause::RateLimitDefense;
                }
            }
        }
        DegradationCause::ResourceConstraint
    }

    fn assess_ddos(constraints: &[Constraint]) -> DdosExposure {
        let find = |stage: Stage| {
            constraints
                .iter()
                .find(|c| c.stage == stage)
                .map(|c| c.provisioning)
        };
        let small_query = find(Stage::SmallQuery);
        let large_object = find(Stage::LargeObject);
        match (small_query, large_object) {
            (
                Some(Provisioning::ConstrainedAt { crowd }),
                Some(Provisioning::Unconstrained { .. }),
            ) if crowd <= 50 => DdosExposure::HighBackendExposure,
            _ => {
                let any_constrained = constraints
                    .iter()
                    .any(|c| matches!(c.provisioning, Provisioning::ConstrainedAt { .. }));
                let any_known = constraints
                    .iter()
                    .any(|c| c.provisioning != Provisioning::Unknown);
                if any_constrained {
                    DdosExposure::SomeExposure
                } else if any_known {
                    DdosExposure::LowExposure
                } else {
                    DdosExposure::Unknown
                }
            }
        }
    }

    fn notes(constraints: &[Constraint], config: &MfcConfig) -> Vec<String> {
        let mut notes = Vec::new();
        let threshold = config.threshold.as_millis_f64();
        for c in constraints {
            match c.provisioning {
                Provisioning::ConstrainedAt { crowd } => notes.push(format!(
                    "{} stage: {} shows a persistent >{:.0} ms degradation at {} simultaneous requests.",
                    c.stage.name(),
                    c.subsystem,
                    threshold,
                    crowd
                )),
                Provisioning::Unconstrained { tested_up_to } => notes.push(format!(
                    "{} stage: no confirmed degradation up to {} simultaneous requests; {} appears well provisioned at this load.",
                    c.stage.name(),
                    tested_up_to,
                    c.subsystem
                )),
                Provisioning::Unknown => notes.push(format!(
                    "{} stage: not evaluated (no suitable content discovered).",
                    c.stage.name()
                )),
            }
        }

        // Defense fingerprints: where the static-target assumption broke.
        for c in constraints {
            match c.cause {
                DegradationCause::RateLimitDefense => notes.push(format!(
                    "{} stage: the confirmed degradation bears a per-client rate-limit \
                     signature — every client's throughput clamps to one common ceiling while \
                     the access link runs far below capacity.  This is a defense reacting to \
                     the probe, not a {} constraint.",
                    c.stage.name(),
                    c.subsystem
                )),
                DegradationCause::LoadSheddingDefense => match c.provisioning {
                    Provisioning::Unconstrained { .. } => notes.push(format!(
                        "{} stage: the NoStop verdict is defense-masked — a large share of \
                         probes were answered with fast 503s, which the response-time detector \
                         reads as a healthy server.  The site is shedding load, not absorbing it.",
                        c.stage.name()
                    )),
                    _ => notes.push(format!(
                        "{} stage: the outcome is dominated by deliberate 503 load shedding; \
                         the stopping crowd reflects an admission-control policy, not the \
                         capacity of the {}.",
                        c.stage.name(),
                        c.subsystem
                    )),
                },
                DegradationCause::BackgroundInterference => notes.push(format!(
                    "{} stage: the evidence epochs coincide with a background-load surge — \
                     the server's non-MFC request rate sat far above the stage's baseline.  \
                     The outcome measures crowd plus surge, not the {} alone; re-run the \
                     stage in a quiet window.",
                    c.stage.name(),
                    c.subsystem
                )),
                DegradationCause::PathCongestion => notes.push(format!(
                    "{} stage: the confirmed degradation is localized to a subset of vantage \
                     groups — their normalized response times blow past the threshold while \
                     other groups stay flat.  A {} constraint would hit every vantage point \
                     alike; this is congestion on the affected groups' shared path, not a \
                     server bottleneck.",
                    c.stage.name(),
                    c.subsystem
                )),
                DegradationCause::ResourceConstraint
                | DegradationCause::NotDegraded
                | DegradationCause::Indeterminate => {}
            }
        }

        // Comparative observations mirroring the paper's discussions.
        let get = |stage: Stage| {
            constraints
                .iter()
                .find(|c| c.stage == stage)
                .map(|c| c.provisioning)
        };
        if let (Some(Provisioning::ConstrainedAt { crowd: base }), Some(lo)) =
            (get(Stage::Base), get(Stage::LargeObject))
        {
            if matches!(lo, Provisioning::Unconstrained { .. }) {
                notes.push(format!(
                    "Basic request handling degrades at {base} requests while bandwidth does not: \
                     the problem is more likely request handling than bandwidth provisioning."
                ));
            }
        }
        if let (
            Some(Provisioning::ConstrainedAt { crowd: query }),
            Some(Provisioning::Unconstrained { .. }),
        ) = (get(Stage::SmallQuery), get(Stage::LargeObject))
        {
            if query <= 50 {
                notes.push(format!(
                    "The back-end data processing subsystem keels over at only {query} simultaneous \
                     queries while the access link absorbs every tested load: the site is highly \
                     vulnerable to low-volume application-level attacks."
                ));
            }
        }
        notes
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
            baseline_drift_ms: None,
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
}
