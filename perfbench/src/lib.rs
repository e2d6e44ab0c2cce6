//! Host-time benchmark of the MFC reproduction.
//!
//! The benchmark drives the public API from outside: it generates each
//! workload's targets with `mfc-sites`, builds a `SimBackend` per target,
//! and runs `Coordinator::run` through [`probe::Probe`], a decorator it owns.
//! It times those calls and reads deterministic counts from what they
//! return.  See `README.md` in this directory for the workloads and for
//! which layer metric should move which end-to-end metric.
//!
//! [`run`] repeats a workload for a time budget and checks, besides timing,
//! that the program's output is right: every profile's verdict must be the
//! same in every repetition, traced or not, on 1 and 2 runner threads, and
//! equal to what the program's own harness (`run_survey_with`) reports for
//! the same configuration.

#![forbid(unsafe_code)]

pub mod probe;
pub mod workload;

use std::hint::black_box;
use std::time::{Duration, Instant};

use mfc_core::backend::sim::SimBackend;
use mfc_core::coordinator::{Coordinator, MfcError};
use mfc_core::inference::{DegradationCause, InferenceReport};
use mfc_core::runner::TrialRunner;
use mfc_core::types::{Stage, StageOutcome};
use mfc_simcore::stats;

use crate::probe::{Probe, ProbeStats};
use crate::workload::{reference_view, Job, Plan, ReferenceView};

/// Runner threads of the timed repetitions, one per core of the 2-core
/// machine the benchmark is sized for.  The correctness check reruns each
/// workload on one thread.
const THREADS: usize = 2;

/// Repetitions run even when the time budget is already spent.
const MIN_REPS: usize = 3;

/// The verdict of one profile: per stage, its outcome and inferred cause.
pub type Verdict = Result<Vec<(Stage, StageOutcome, Option<DegradationCause>)>, MfcError>;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end metrics for an untraced run, per-layer ones for a traced
    /// run.
    pub metrics: Vec<Metric>,
    /// Profiles run, every repetition and check included.
    pub attempted: u64,
    /// Profiles that returned an error or disagreed with the reference.
    pub failed: u64,
    /// Digest of every profile's verdict, in profile order.
    pub digest: u64,
    /// Human-readable facts about the run: input size, checks, causes.
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// What one profile produced.
struct JobResult {
    verdict: Verdict,
    view: ReferenceView,
    stats: ProbeStats,
    new_ns: u64,
    trial_ns: u64,
    coordinator_ns: u64,
    inference_ns: u64,
    inference_agrees: bool,
    check_epochs: u64,
    surge_epochs: u64,
}

/// One repetition of a workload.
struct Rep {
    threads: usize,
    /// Host time of each batch's spec generation.
    generate_ns: Vec<u64>,
    /// Targets of each batch; `jobs` holds them batch after batch.
    batch_len: Vec<usize>,
    runner_ns: u64,
    jobs: Vec<JobResult>,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn run_job(job: Job<'_>, traced: bool) -> JobResult {
    let started = Instant::now();
    let replay_spec = traced.then(|| job.spec.clone());
    let built = Instant::now();
    let backend = SimBackend::new(job.spec, job.clients, job.backend_seed);
    let new_ns = elapsed_ns(built);
    let mut probe = match replay_spec {
        Some(spec) => Probe::traced(backend, spec, job.backend_seed),
        None => Probe::new(backend),
    };
    let coordinating = Instant::now();
    let report = Coordinator::new(job.config.clone())
        .with_seed(job.coordinator_seed)
        .run(&mut probe);
    let coordinator_ns = elapsed_ns(coordinating);
    let stats = probe.into_stats();

    let (mut inference_ns, mut inference_agrees) = (0, true);
    if let (true, Ok(report)) = (traced, &report) {
        let inferring = Instant::now();
        let again = black_box(InferenceReport::from_stages(&report.stages, job.config));
        inference_ns = elapsed_ns(inferring);
        inference_agrees = again == report.inference;
    }
    let epochs = || {
        report
            .iter()
            .flat_map(|r| &r.stages)
            .flat_map(|s| &s.epochs)
    };
    let check_epochs = epochs().filter(|e| e.check_phase).count() as u64;
    let surge_epochs = epochs().filter(|e| e.surge_suspected).count() as u64;
    let view = reference_view(report.as_ref().ok());
    let verdict = report.map(|r| {
        r.stages
            .iter()
            .map(|s| (s.stage, s.outcome, r.inference.cause_of(s.stage)))
            .collect()
    });
    JobResult {
        verdict,
        view,
        stats,
        new_ns,
        trial_ns: elapsed_ns(started),
        coordinator_ns,
        inference_ns,
        inference_agrees,
        check_epochs,
        surge_epochs,
    }
}

/// Runs every profile of `plan` once, batch by batch, each batch a closed
/// loop over `threads` runner threads: a worker takes the next target when
/// its verdict is in.
fn run_rep(plan: &Plan, threads: usize, traced: bool) -> Rep {
    let runner = TrialRunner::with_threads(threads);
    let mut rep = Rep {
        threads,
        generate_ns: Vec::new(),
        batch_len: Vec::new(),
        runner_ns: 0,
        jobs: Vec::new(),
    };
    for batch in 0..plan.batch_count() {
        let started = Instant::now();
        let jobs = plan.jobs(batch);
        rep.generate_ns.push(elapsed_ns(started));
        rep.batch_len.push(jobs.len());
        let running = Instant::now();
        rep.jobs
            .extend(runner.run(jobs, |_, job| run_job(job, traced)));
        rep.runner_ns += elapsed_ns(running);
    }
    rep
}

impl Rep {
    fn stats(&self) -> ProbeStats {
        let mut total = ProbeStats::default();
        for job in &self.jobs {
            total.merge(&job.stats);
        }
        total
    }

    fn sum(&self, field: impl Fn(&JobResult) -> u64) -> u64 {
        self.jobs.iter().map(field).sum()
    }

    /// Simulated server requests: everything the engine resolved in epochs
    /// plus one request per base measurement.
    fn sim_requests(&self) -> u64 {
        let stats = self.stats();
        stats.epoch_requests() + stats.measure_base_calls
    }

    /// Host time of the whole repetition, as measured.
    fn wall_ns(&self) -> u64 {
        self.generate_ns.iter().sum::<u64>() + self.runner_ns
    }

    fn setup_s(&self) -> f64 {
        (self.generate_ns.iter().sum::<u64>() + self.sum(|j| j.new_ns)) as f64 / 1e9
    }

    /// The per-layer figures of a traced repetition.
    fn layers(&self) -> Vec<Metric> {
        let stats = self.stats();
        let ms = |ns: u64| ns as f64 / 1e6;
        let engine_ns = stats.run_epoch_ns.saturating_sub(stats.gen_ns);
        let metric = |name, value, unit| Metric { name, value, unit };
        let count = |name, value: u64| metric(name, value as f64, "count");
        vec![
            metric("sites.generate_ms", ms(self.generate_ns.iter().sum()), "ms"),
            metric("backend.new_ms", ms(self.sum(|j| j.new_ns)), "ms"),
            metric("backend.measure_base_ms", ms(stats.measure_base_ns), "ms"),
            count("backend.measure_base_calls", stats.measure_base_calls),
            metric("backend.run_epoch_ms", ms(stats.run_epoch_ns), "ms"),
            count("backend.epochs", stats.epoch_ns.len() as u64),
            metric("workload.gen_ms", ms(stats.gen_ns), "ms"),
            count("workload.requests", stats.background_requests),
            count("workload.sessions_started", stats.sessions_started),
            count("workload.peak_active_sessions", stats.peak_active_sessions),
            metric("server.engine_ms", ms(engine_ns), "ms"),
            metric(
                "server.ns_per_request",
                engine_ns as f64 / stats.epoch_requests().max(1) as f64,
                "ns",
            ),
            count("server.completed", stats.completed),
            count("server.refused", stats.refused),
            count("server.shed", stats.shed),
            count("server.throttled", stats.throttled),
            metric("server.bytes_sent", stats.bytes_sent as f64, "bytes"),
            metric(
                "coordinator.self_ms",
                ms(self
                    .sum(|j| j.coordinator_ns)
                    .saturating_sub(stats.backend_ns)),
                "ms",
            ),
            count("coordinator.check_epochs", self.sum(|j| j.check_epochs)),
            count("coordinator.surge_epochs", self.sum(|j| j.surge_epochs)),
            metric("inference.ms", ms(self.sum(|j| j.inference_ns)), "ms"),
            metric(
                "runner.busy_frac",
                self.sum(|j| j.trial_ns) as f64 / (self.threads as f64 * self.runner_ns as f64),
                "fraction",
            ),
            count("control.commands_lost", stats.commands_lost),
        ]
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.into_iter().collect();
    stats::median(&values).unwrap_or(0.0)
}

fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Makespan of a closed loop over `threads` workers that run targets of
/// the given durations in order, each worker taking the next target as soon
/// as it is free, as [`TrialRunner`] hands them out.
fn closed_loop(durations: impl IntoIterator<Item = f64>, threads: usize) -> f64 {
    let mut free_at = vec![0.0_f64; threads];
    for duration in durations {
        let worker = free_at
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one worker");
        *worker += duration;
    }
    free_at.into_iter().fold(0.0, f64::max)
}

/// Host time of a whole repetition, in s, composed from the fastest run of
/// each identical piece across `reps`: every batch's spec generation, and
/// every batch's closed loop replayed with each target at its fastest time.
fn wall_floor_s(reps: &[Rep]) -> f64 {
    let fastest_ns = |piece: &dyn Fn(&Rep) -> u64| fastest(reps.iter().map(|r| piece(r) as f64));
    let (first, mut start, mut ns) = (&reps[0], 0, 0.0);
    for (batch, &len) in first.batch_len.iter().enumerate() {
        ns += fastest_ns(&|r| r.generate_ns[batch]);
        let targets = (start..start + len).map(|j| fastest_ns(&|r| r.jobs[j].trial_ns));
        ns += closed_loop(targets, first.threads);
        start += len;
    }
    ns / 1e9
}

/// Host time of every epoch, in ms, as the fastest of its runs across
/// `reps`: the repetitions replay identical inputs, so epoch `k` of
/// profile `j` is the same simulated work in each.
fn epoch_floor_ms(reps: &[Rep]) -> Vec<f64> {
    let mut floor: Vec<Vec<u64>> = reps[0]
        .jobs
        .iter()
        .map(|j| j.stats.epoch_ns.clone())
        .collect();
    for rep in &reps[1..] {
        for (best, job) in floor.iter_mut().zip(&rep.jobs) {
            for (b, &ns) in best.iter_mut().zip(&job.stats.epoch_ns) {
                *b = (*b).min(ns);
            }
        }
    }
    floor
        .into_iter()
        .flatten()
        .map(|ns| ns as f64 / 1e6)
        .collect()
}

/// Peak resident memory of this process so far, in MiB (Linux `VmHWM`).
fn read_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over the verdicts' debug form: a stable fingerprint of what the
/// program concluded about every target.
fn digest(jobs: &[JobResult]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for job in jobs {
        for byte in format!("{:?};", job.verdict).bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Runs `plan` repeatedly until `budget` is spent (at least [`MIN_REPS`]
/// times), then checks the verdicts.  Untraced runs report end-to-end
/// metrics; traced runs alternate untraced and traced repetitions and
/// report per-layer metrics.
pub fn run(plan: &Plan, budget: Duration, traced: bool) -> Outcome {
    let started = Instant::now();
    let (mut timed, mut with_trace) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    while timed.len() < MIN_REPS || started.elapsed() < budget {
        timed.push(run_rep(plan, THREADS, false));
        if traced {
            with_trace.push(run_rep(plan, THREADS, true));
        }
        // Read once the workload has peaked, before the repetitions this
        // benchmark keeps for its checks grow with the run's length.
        if timed.len() == MIN_REPS {
            peak_rss_mb = read_peak_rss_mb();
        }
    }

    // Correctness: every repetition and a one-thread repetition against the
    // first repetition, then the first repetition against the program's
    // own harness.
    let other = run_rep(plan, 1, false);
    let reference = &timed[0];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut verdict_mismatches, mut replay_mismatches) = (0u64, 0u64);
    for rep in timed.iter().chain(&with_trace).chain([&other]) {
        for (job, first) in rep.jobs.iter().zip(&reference.jobs) {
            attempted += 1;
            let wrong_verdict = job.verdict.is_err() || job.verdict != first.verdict;
            verdict_mismatches += u64::from(wrong_verdict);
            replay_mismatches += job.stats.replay_mismatches;
            if wrong_verdict || job.stats.replay_mismatches > 0 || !job.inference_agrees {
                failed += 1;
            }
        }
    }
    let views: Vec<ReferenceView> = reference.jobs.iter().map(|j| j.view).collect();
    let reference_mismatches = plan.reference_mismatches(&views, THREADS) as u64;
    attempted += views.len() as u64;
    failed += reference_mismatches;

    // The host's speed swings by tens of percent for seconds at a time, so
    // times are composed from the fastest run of each identical piece of
    // work (a target, an epoch): noise only ever adds time.
    let wall = wall_floor_s(&timed);
    let metrics = if traced {
        // One repetition's figures, so that the layers add up.
        let mut metrics = with_trace
            .iter()
            .min_by_key(|r| r.wall_ns())
            .expect("at least one traced repetition")
            .layers();
        metrics.push(Metric {
            name: "trace.overhead_s",
            value: wall_floor_s(&with_trace) - wall,
            unit: "s",
        });
        metrics
    } else {
        let epochs = epoch_floor_ms(&timed);
        let epoch_ms = |q| stats::percentile(&epochs, q).unwrap_or(0.0);
        vec![
            Metric {
                name: "wall_s",
                value: wall,
                unit: "s",
            },
            Metric {
                name: "sim_requests_per_s",
                value: reference.sim_requests() as f64 / wall,
                unit: "1/s",
            },
            Metric {
                name: "epoch_ms_p50",
                value: epoch_ms(0.5),
                unit: "ms",
            },
            Metric {
                name: "epoch_ms_p90",
                value: epoch_ms(0.9),
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: median(timed.iter().map(Rep::setup_s)),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb,
                unit: "MiB",
            },
        ]
    };

    let stats = reference.stats();
    let mut causes = std::collections::BTreeMap::<String, usize>::new();
    for stage in reference
        .jobs
        .iter()
        .flat_map(|j| j.verdict.iter().flatten())
    {
        *causes.entry(format!("{:?}", stage.2)).or_default() += 1;
    }
    let notes = vec![
        format!(
            "input: {} profiles per repetition; {} simulated server requests ({} epochs, {} base measurements)",
            reference.jobs.len(),
            reference.sim_requests(),
            stats.epoch_ns.len(),
            stats.measure_base_calls,
        ),
        format!(
            "repetitions: {} untraced, {} traced, on {THREADS} runner threads; {} host core(s)",
            timed.len(),
            with_trace.len(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ),
        format!(
            "untraced repetition walls (s): {:.3?}",
            timed
                .iter()
                .map(|r| r.wall_ns() as f64 / 1e9)
                .collect::<Vec<_>>()
        ),
        format!("causes: {causes:?}"),
        format!(
            "checks: {verdict_mismatches} verdict mismatches across repetitions and \
             1 vs {THREADS} threads; {reference_mismatches} mismatches against \
             the program's own harness; {replay_mismatches} replayed windows off"
        ),
    ];
    Outcome {
        metrics,
        attempted,
        failed,
        digest: digest(&reference.jobs),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use mfc_bench::Scale;

    use super::*;
    use crate::workload::Workload;

    /// Metric names as `BENCHMARK.json` lists them.
    fn listed_metrics(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("quoted name")].to_string())
            .collect()
    }

    fn names(outcome: &Outcome) -> Vec<String> {
        outcome.metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn every_workload_emits_every_listed_metric_with_a_stable_digest() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, Scale::Quick, 7);
            let timed = run(&plan, Duration::ZERO, false);
            let traced = run(&plan, Duration::ZERO, true);
            for outcome in [&timed, &traced] {
                assert!(outcome.correct(), "{workload:?}: {:?}", outcome.notes);
                assert!(outcome.attempted > 0);
                assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            }
            assert_eq!(names(&timed), listed_metrics("end_to_end"));
            assert_eq!(names(&traced), listed_metrics("per_layer"));
            assert!(timed.metrics.iter().all(|m| m.value > 0.0), "{timed:?}");
            assert_eq!(timed.digest, traced.digest, "{workload:?}");
        }
    }

    #[test]
    fn the_digest_follows_the_seed() {
        let digest = |seed| {
            run(
                &Plan::new(Workload::SurveyCpu, Scale::Quick, seed),
                Duration::ZERO,
                false,
            )
            .digest
        };
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }
}
