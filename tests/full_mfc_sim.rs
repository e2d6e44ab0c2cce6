//! End-to-end integration tests: the full MFC pipeline over the simulated
//! wide area and server substrate.

use mfc_core::backend::sim::{SimBackend, SimTargetSpec};
use mfc_core::config::MfcConfig;
use mfc_core::coordinator::{Coordinator, MfcError};
use mfc_core::inference::Provisioning;
use mfc_core::types::{Stage, StageOutcome};
use mfc_simcore::SimDuration;
use mfc_webserver::{BackgroundTraffic, ContentCatalog, ServerConfig};

fn lab_target() -> SimTargetSpec {
    SimTargetSpec::single_server(ServerConfig::lab_apache(), ContentCatalog::lab_validation())
}

#[test]
fn full_three_stage_experiment_produces_coherent_report() {
    let mut backend = SimBackend::new(lab_target(), 60, 101);
    let config = MfcConfig::standard().with_max_crowd(40).with_increment(10);
    let report = Coordinator::new(config)
        .with_seed(1)
        .run(&mut backend)
        .unwrap();

    assert_eq!(report.stages.len(), 3);
    assert_eq!(report.clients_registered, 60);
    assert!(report.total_requests > 0);
    // Every stage report is internally consistent.
    for stage in &report.stages {
        let scheduled: usize = stage.epochs.iter().map(|e| e.requests_scheduled).sum();
        assert_eq!(stage.requests_issued, scheduled);
        for epoch in &stage.epochs {
            assert!(epoch.requests_observed <= epoch.requests_scheduled);
            assert!(epoch.crowd_size <= 60);
            assert!(epoch.detector_ms >= 0.0);
        }
        // A stopped stage must have a triggering epoch above the threshold.
        if let StageOutcome::Stopped { crowd_size } = stage.outcome {
            assert!(crowd_size >= 1);
            assert!(
                stage
                    .epochs
                    .iter()
                    .any(|e| e.detector_ms > report.threshold_ms),
                "a stopped stage must have at least one epoch above threshold"
            );
        }
    }
    // The inference covers every stage that was run.
    assert_eq!(report.inference.constraints.len(), 3);
}

#[test]
fn lab_server_bottleneck_ordering_is_bandwidth_then_backend() {
    // The lab target sits behind 10 Mbit/s with a fork-per-request dynamic
    // handler: the access link must be the tightest constraint, the back
    // end next, and plain HEAD handling the healthiest.
    let mut backend = SimBackend::new(lab_target(), 60, 7);
    let config = MfcConfig::standard().with_max_crowd(50).with_increment(5);
    let report = Coordinator::new(config)
        .with_seed(5)
        .run(&mut backend)
        .unwrap();

    let large = report.stopping_crowd(Stage::LargeObject);
    let base = report.stopping_crowd(Stage::Base);
    assert!(
        large.is_some(),
        "50 concurrent 100KB transfers over 10 Mbit/s must be detected"
    );
    if let (Some(large), Some(base)) = (large, base) {
        assert!(large <= base, "bandwidth must bind before HEAD processing");
    }
    // The inference ranks the access link at (or tied for) the bottom.
    let last = *report.inference.best_to_worst.last().unwrap();
    assert!(
        last == Stage::LargeObject || last == Stage::SmallQuery,
        "worst-provisioned sub-system should be the link or the back end, got {last:?}"
    );
}

#[test]
fn experiment_aborts_without_enough_clients() {
    let mut backend = SimBackend::new(lab_target(), 30, 3);
    let err = Coordinator::new(MfcConfig::standard())
        .run(&mut backend)
        .unwrap_err();
    assert!(matches!(
        err,
        MfcError::NotEnoughClients {
            available: 30,
            required: 50
        }
    ));
}

#[test]
fn reports_are_deterministic_for_a_fixed_seed() {
    let run = |seed| {
        let mut backend = SimBackend::new(lab_target(), 55, 77);
        Coordinator::new(MfcConfig::standard().with_max_crowd(25).with_increment(10))
            .with_seed(seed)
            .run(&mut backend)
            .unwrap()
    };
    assert_eq!(run(9), run(9));
    // Different coordinator seeds may legitimately differ (different random
    // crowds), but the overall shape — which stages stop — should be stable
    // for this clearly-constrained target.
    let a = run(9);
    let b = run(10);
    assert_eq!(
        a.stage(Stage::LargeObject).unwrap().outcome.is_no_stop(),
        b.stage(Stage::LargeObject).unwrap().outcome.is_no_stop()
    );
}

#[test]
fn well_provisioned_cluster_shows_no_constraints() {
    let spec = SimTargetSpec::cluster(
        ServerConfig::commercial_frontend(),
        ContentCatalog::typical_site(9),
        16,
    )
    .with_background(BackgroundTraffic::at_rate(50.0));
    let mut backend = SimBackend::new(spec, 60, 19);
    let config = MfcConfig::standard().with_max_crowd(40).with_increment(10);
    let report = Coordinator::new(config)
        .with_seed(2)
        .run(&mut backend)
        .unwrap();
    for stage in &report.stages {
        assert!(
            stage.outcome.is_no_stop(),
            "{} unexpectedly stopped: {:?}",
            stage.stage.name(),
            stage.outcome
        );
    }
    assert!(matches!(
        report.inference.provisioning_of(Stage::LargeObject),
        Some(Provisioning::Unconstrained { .. })
    ));
}

#[test]
fn higher_threshold_never_stops_earlier() {
    let run_with_threshold = |ms: u64| {
        let mut backend = SimBackend::new(lab_target(), 60, 23);
        let config = MfcConfig::standard()
            .with_threshold(SimDuration::from_millis(ms))
            .with_stages(vec![Stage::LargeObject])
            .with_max_crowd(50)
            .with_increment(5);
        Coordinator::new(config)
            .with_seed(4)
            .run(&mut backend)
            .unwrap()
            .stopping_crowd(Stage::LargeObject)
    };
    let strict = run_with_threshold(100);
    let lenient = run_with_threshold(2_000);
    match (strict, lenient) {
        (Some(strict), Some(lenient)) => assert!(lenient >= strict),
        (None, Some(_)) => panic!("a stricter threshold must not miss what a lenient one found"),
        _ => {}
    }
}

#[test]
fn mfc_mr_amplifies_load_without_more_clients() {
    // With the same number of client hosts, MFC-mr(3) should find the
    // bandwidth constraint at a smaller *crowd* than the standard MFC.
    let run_with_mr = |requests_per_client: usize| {
        let mut backend = SimBackend::new(lab_target(), 60, 31);
        let config = MfcConfig::standard()
            .with_requests_per_client(requests_per_client)
            .with_stages(vec![Stage::LargeObject])
            .with_max_crowd(50)
            .with_increment(5);
        Coordinator::new(config)
            .with_seed(6)
            .run(&mut backend)
            .unwrap()
            .stopping_crowd(Stage::LargeObject)
    };
    let standard = run_with_mr(1);
    let amplified = run_with_mr(3);
    if let (Some(standard), Some(amplified)) = (standard, amplified) {
        assert!(
            amplified <= standard,
            "tripling the per-client requests must not require a larger crowd ({amplified} vs {standard})"
        );
    } else {
        assert!(amplified.is_some(), "MFC-mr(3) must find the thin link");
    }
}

#[test]
fn background_traffic_makes_the_base_stage_stop_earlier_or_equal() {
    // The Univ-3 observation: more regular traffic leaves less headroom.
    let run_with_background = |rate: f64| {
        let spec = SimTargetSpec::single_server(
            ServerConfig {
                hardware: mfc_webserver::HardwareSpec {
                    cpu_speed: 0.4,
                    ..mfc_webserver::HardwareSpec::default()
                },
                ..ServerConfig::lab_apache()
            },
            ContentCatalog::typical_site(4),
        )
        .with_background(BackgroundTraffic::at_rate(rate));
        let mut backend = SimBackend::new(spec, 60, 47);
        let config = MfcConfig::standard()
            .with_stages(vec![Stage::Base])
            .with_max_crowd(50)
            .with_increment(5);
        Coordinator::new(config)
            .with_seed(8)
            .run(&mut backend)
            .unwrap()
            .stopping_crowd(Stage::Base)
            .unwrap_or(usize::MAX)
    };
    let quiet = run_with_background(0.0);
    let busy = run_with_background(40.0);
    assert!(
        busy <= quiet,
        "heavy background traffic must not raise the stopping crowd (quiet {quiet}, busy {busy})"
    );
}

#[test]
fn skipped_stage_when_content_class_is_missing() {
    let catalog = ContentCatalog::new(
        mfc_webserver::ObjectSpec::static_object(
            "/index.html",
            mfc_webserver::ObjectKind::Text,
            8 * 1024,
        ),
        vec![mfc_webserver::ObjectSpec::static_object(
            "/small.gif",
            mfc_webserver::ObjectKind::Image,
            2 * 1024,
        )],
    );
    let spec = SimTargetSpec::single_server(ServerConfig::lab_apache(), catalog);
    let mut backend = SimBackend::new(spec, 55, 53);
    let report = Coordinator::new(MfcConfig::standard().with_max_crowd(20))
        .run(&mut backend)
        .unwrap();
    assert_eq!(
        report.stage(Stage::LargeObject).unwrap().outcome,
        StageOutcome::Skipped
    );
    assert_eq!(
        report.stage(Stage::SmallQuery).unwrap().outcome,
        StageOutcome::Skipped
    );
}

#[test]
fn quiescence_flags_exactly_the_epochs_above_the_one_surge_threshold() {
    use mfc_bench::experiments::workload_matrix::WorkloadScenario;
    use mfc_core::config::QuiescencePolicy;
    use mfc_core::inference::surge_threshold;

    // A thin-link flash-crowd cell built as the workload matrix builds it
    // (here with 60 clients and seed 116), with the coordinator allowed to
    // wait the surge out.
    let seed = 116;
    let spec = lab_target().with_workload(WorkloadScenario::FlashCrowd.workload().unwrap());
    let config = MfcConfig::standard()
        .with_stages(vec![Stage::LargeObject])
        .with_max_crowd(40)
        .with_increment(10)
        .with_quiescence(QuiescencePolicy::default());
    let mut backend = SimBackend::new(spec, 60, seed);
    let report = Coordinator::new(config)
        .with_seed(seed ^ 0x3A_17)
        .run(&mut backend)
        .unwrap();
    let epochs = &report.stages[0].epochs;
    assert!(
        epochs.iter().any(|e| e.surge_suspected),
        "the surge must flag at least one epoch: {epochs:?}"
    );
    // Every flag is the one rule applied to the earlier unflagged epochs'
    // background rates, and nothing else.
    let mut clean_rates = Vec::new();
    for epoch in epochs {
        let expected = epoch.background_rate.is_some_and(|rate| {
            surge_threshold(&clean_rates).is_some_and(|threshold| rate > threshold)
        });
        assert_eq!(
            epoch.surge_suspected, expected,
            "epoch {} at rate {:?} over clean rates {clean_rates:?}",
            epoch.index, epoch.background_rate
        );
        if !epoch.surge_suspected {
            clean_rates.extend(epoch.background_rate);
        }
    }
}
