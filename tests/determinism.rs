//! Serial-vs-parallel reproducibility: the tentpole guarantee of the trial
//! runner is that thread count is *unobservable* in experiment output — the
//! same seed must produce byte-identical artifacts on 1 or N workers.

use mfc_core::runner::TrialRunner;
use mfc_core::types::Stage;
use mfc_sites::{survey, SiteClass, SurveyConfig};

fn survey_json(class: SiteClass, config: &SurveyConfig, runner: &TrialRunner) -> String {
    let result = survey::run_survey_with(class, config, runner);
    serde_json::to_string_pretty(&result).expect("survey serializes")
}

#[test]
fn survey_json_is_byte_identical_across_thread_counts() {
    for (class, stage) in [
        (SiteClass::Top1K, Stage::Base),
        (SiteClass::Rank100KTo1M, Stage::SmallQuery),
        (SiteClass::Phishing, Stage::LargeObject),
    ] {
        let config = SurveyConfig::quick(class, stage, 12);
        let serial = survey_json(class, &config, &TrialRunner::serial());
        for threads in [2, 8] {
            let parallel = survey_json(class, &config, &TrialRunner::with_threads(threads));
            assert_eq!(
                serial, parallel,
                "{class:?}/{stage:?} output changed with {threads} threads"
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Two runs with the same many-threaded runner must also agree with each
    // other (catches nondeterminism that happens to differ from serial in
    // the same way twice — e.g. completion-order dependence).
    let config = SurveyConfig::quick(SiteClass::Startup, Stage::Base, 10);
    let runner = TrialRunner::with_threads(6);
    let first = survey_json(SiteClass::Startup, &config, &runner);
    let second = survey_json(SiteClass::Startup, &config, &runner);
    assert_eq!(first, second);
}

#[test]
fn dynamics_survey_is_byte_identical_across_thread_counts() {
    // The defended path adds a control loop (ticks, per-client buckets,
    // replica scaling) on top of the engine; the guarantee must not bend:
    // a dynamics-enabled survey is byte-identical on 1 or N workers, with
    // all three policy kinds active.
    let config = SurveyConfig::quick(SiteClass::Rank10KTo100K, Stage::LargeObject, 8)
        .with_defenses(mfc_dynamics::DefenseConfig::fortress(1, 4));
    let serial = survey_json(SiteClass::Rank10KTo100K, &config, &TrialRunner::serial());
    for threads in [2, 8] {
        let parallel = survey_json(
            SiteClass::Rank10KTo100K,
            &config,
            &TrialRunner::with_threads(threads),
        );
        assert_eq!(
            serial, parallel,
            "defended survey output changed with {threads} threads"
        );
    }
}

#[test]
fn repeated_dynamics_runs_are_stable() {
    let config = SurveyConfig::quick(SiteClass::Startup, Stage::SmallQuery, 6).with_defenses(
        mfc_dynamics::DefenseConfig::rate_limited(1.0, 0.002, 16.0 * 1024.0),
    );
    let runner = TrialRunner::with_threads(6);
    let first = survey_json(SiteClass::Startup, &config, &runner);
    let second = survey_json(SiteClass::Startup, &config, &runner);
    assert_eq!(first, second);
}

#[test]
fn topology_survey_is_byte_identical_across_thread_counts() {
    // The shared-bottleneck WAN graph sits under every trial of a
    // topology-enabled survey: per-group transit links, a backbone, cross
    // traffic, plus the vantage-aware inference on top.  The guarantee is
    // unchanged — thread count must be unobservable bit for bit.
    let topology = mfc_topology::TopologySpec::star(&[
        mfc_simnet::mbps(2.0),
        mfc_simnet::mbps(1000.0),
        mfc_simnet::mbps(1000.0),
        mfc_simnet::mbps(1000.0),
    ])
    .with_backbone(mfc_simnet::mbps(800.0))
    .with_cross_traffic(0, 2, 50_000.0);
    let config =
        SurveyConfig::quick(SiteClass::Rank1KTo10K, Stage::LargeObject, 8).with_topology(topology);
    let serial = survey_json(SiteClass::Rank1KTo10K, &config, &TrialRunner::serial());
    for threads in [2, 8] {
        let parallel = survey_json(
            SiteClass::Rank1KTo10K,
            &config,
            &TrialRunner::with_threads(threads),
        );
        assert_eq!(
            serial, parallel,
            "topology survey output changed with {threads} threads"
        );
    }
}

#[test]
fn repeated_topology_runs_are_stable() {
    let topology = mfc_topology::TopologySpec::star(&[
        mfc_simnet::mbps(1.6),
        mfc_simnet::mbps(1000.0),
        mfc_simnet::mbps(1000.0),
    ]);
    let config =
        SurveyConfig::quick(SiteClass::Startup, Stage::LargeObject, 6).with_topology(topology);
    let runner = TrialRunner::with_threads(6);
    let first = survey_json(SiteClass::Startup, &config, &runner);
    let second = survey_json(SiteClass::Startup, &config, &runner);
    assert_eq!(first, second);
}

#[test]
fn runner_defaults_respect_the_env_contract() {
    // `from_env` must produce at least one worker no matter what; the
    // explicit constructors pin the count exactly.
    assert!(TrialRunner::from_env().threads() >= 1);
    assert_eq!(TrialRunner::serial().threads(), 1);
    assert_eq!(TrialRunner::with_threads(5).threads(), 5);
}

#[test]
fn workload_survey_is_byte_identical_across_thread_counts() {
    // The workload subsystem sits under every trial: diurnal browsing
    // sessions per site, streamed through the merged heap.  The guarantee
    // is unchanged — thread count must be unobservable bit for bit.
    let config = SurveyConfig::quick(SiteClass::Rank10KTo100K, Stage::LargeObject, 8)
        .with_session_background();
    let serial = survey_json(SiteClass::Rank10KTo100K, &config, &TrialRunner::serial());
    for threads in [2, 8] {
        let parallel = survey_json(
            SiteClass::Rank10KTo100K,
            &config,
            &TrialRunner::with_threads(threads),
        );
        assert_eq!(
            serial, parallel,
            "workload survey output changed with {threads} threads"
        );
    }
}

#[test]
fn repeated_workload_runs_are_stable() {
    // A fixed flash-crowd workload (the scenario-matrix shape) applied to
    // every surveyed site, on a many-threaded runner, twice.
    let workload = SiteClass::session_workload(2.0);
    let config = SurveyConfig::quick(SiteClass::Startup, Stage::Base, 6).with_workload(workload);
    let runner = TrialRunner::with_threads(6);
    let first = survey_json(SiteClass::Startup, &config, &runner);
    let second = survey_json(SiteClass::Startup, &config, &runner);
    assert_eq!(first, second);
}
