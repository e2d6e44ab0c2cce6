//! Integration tests: the live backend drives real HTTP clients against a
//! real `mfc-httpd` server on localhost.
//!
//! These are the wall-clock equivalent of the §3.1 validation: the same
//! coordinator code that runs the simulation issues genuine TCP
//! connections, crawls the real base page, and finds the artificial
//! bottleneck injected into the live server.

use std::sync::atomic::Ordering;
use std::time::Duration;

use mfc_core::backend::live::{LiveBackend, LiveBackendConfig};
use mfc_core::backend::MfcBackend;
use mfc_core::config::MfcConfig;
use mfc_core::coordinator::Coordinator;
use mfc_core::types::Stage;
use mfc_http::Url;
use mfc_httpd::{DelayModel, HttpServer, ServerOptions, SiteContent};
use mfc_simcore::SimDuration;

fn start_server(delay: DelayModel) -> mfc_httpd::ServerHandle {
    HttpServer::new(
        SiteContent::validation_site(),
        ServerOptions {
            workers: 16,
            queue_depth: 256,
            delay,
            io_timeout: Duration::from_secs(10),
        },
    )
    .start()
    .expect("bind a loopback port")
}

fn live_backend(handle: &mfc_httpd::ServerHandle, clients: usize) -> LiveBackend {
    LiveBackend::new(
        Url::parse(&handle.base_url()).unwrap(),
        LiveBackendConfig {
            clients,
            artificial_latency: (Duration::from_millis(0), Duration::from_millis(5)),
            ..LiveBackendConfig::default()
        },
        3,
    )
}

#[test]
fn live_crawler_discovers_large_objects_and_queries() {
    let handle = start_server(DelayModel::None);
    let mut backend = live_backend(&handle, 5);
    let profile = backend.profile_target();
    assert!(profile.supports(Stage::Base));
    assert!(
        profile.supports(Stage::LargeObject),
        "the crawler must find the 100KB/1MB objects"
    );
    assert!(
        profile.supports(Stage::SmallQuery),
        "the crawler must find the query endpoints"
    );
    handle.shutdown();
}

#[test]
fn live_probe_measures_real_requests() {
    let handle = start_server(DelayModel::None);
    let mut backend = live_backend(&handle, 12);
    let coordinator = Coordinator::new(
        MfcConfig::standard()
            .with_schedule_lead(mfc_simcore::SimDuration::from_millis(300))
            .with_min_clients(5)
            .with_threshold(SimDuration::from_millis(50)),
    );
    let (summary, observation) = coordinator
        .probe_crowd(&mut backend, Stage::Base, 10)
        .expect("enough live clients");
    assert_eq!(summary.crowd_size, 10);
    assert_eq!(observation.observations.len(), 10);
    assert!(observation
        .observations
        .iter()
        .all(|o| o.status.produced_sample()));
    // The server actually saw those requests (plus profiling traffic).
    assert!(handle.stats().requests.load(Ordering::SeqCst) >= 10);
    handle.shutdown();
}

#[test]
fn live_mfc_finds_an_injected_bottleneck() {
    // 12 ms per concurrent request: a crowd of ~10 pushes the normalized
    // response time past a 60 ms threshold, so the Base stage must stop.
    let handle = start_server(DelayModel::Linear {
        per_request: Duration::from_millis(12),
    });
    let mut backend = live_backend(&handle, 24);
    let config = MfcConfig::standard()
        .with_schedule_lead(mfc_simcore::SimDuration::from_millis(300))
        .with_min_clients(15)
        .with_threshold(SimDuration::from_millis(60))
        .with_max_crowd(20)
        .with_increment(5)
        .with_stages(vec![Stage::Base]);
    let report = Coordinator::new(config)
        .with_seed(1)
        .run(&mut backend)
        .expect("enough live clients");
    let stopped = report.stopping_crowd(Stage::Base);
    assert!(
        stopped.is_some(),
        "the injected linear delay must be detected: {:?}",
        report.stages[0]
    );
    handle.shutdown();
}

#[test]
fn live_mfc_reports_no_stop_on_an_unconstrained_server() {
    let handle = start_server(DelayModel::None);
    let mut backend = live_backend(&handle, 20);
    let config = MfcConfig::standard()
        .with_schedule_lead(mfc_simcore::SimDuration::from_millis(300))
        .with_min_clients(15)
        // Loopback responses are sub-millisecond; a generous threshold keeps
        // scheduler noise from producing false positives in CI.
        .with_threshold(SimDuration::from_millis(500))
        .with_max_crowd(15)
        .with_increment(5)
        .with_stages(vec![Stage::Base]);
    let report = Coordinator::new(config)
        .with_seed(2)
        .run(&mut backend)
        .expect("enough live clients");
    assert!(
        report.stages[0].outcome.is_no_stop(),
        "an idle loopback server must not be flagged: {:?}",
        report.stages[0].outcome
    );
    handle.shutdown();
}
