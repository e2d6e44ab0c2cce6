//! Live mode: run a real MFC, over real TCP connections, against a real
//! HTTP server on localhost.
//!
//! The simulation reproduces the paper's experiments; this example shows
//! that the same coordinator code also drives genuine HTTP clients.  It
//! starts an `mfc-httpd` instance configured with a linear load-dependent
//! delay (so there is actually something to find), lets the live crawler
//! profile it, runs a scaled-down MFC from 30 thread-backed clients, and
//! prints the report together with the server's own request counters.
//!
//! Run with:
//! ```text
//! cargo run --release --example live_localhost
//! ```

use std::time::Duration;

use mfc_core::backend::live::{LiveBackend, LiveBackendConfig};
use mfc_core::config::MfcConfig;
use mfc_core::coordinator::Coordinator;
use mfc_core::types::Stage;
use mfc_http::Url;
use mfc_httpd::{DelayModel, HttpServer, ServerOptions, SiteContent};

fn main() {
    // A validation-style site: one large object, many distinct small
    // queries, each query burning 2 ms of handler time, plus a linear
    // 4 ms-per-concurrent-request delay so the Base stage has a visible
    // knee within a 30-client crowd.
    let server = HttpServer::new(
        SiteContent::validation_site(),
        ServerOptions {
            workers: 8,
            queue_depth: 64,
            delay: DelayModel::Linear {
                per_request: Duration::from_millis(4),
            },
            io_timeout: Duration::from_secs(15),
        },
    );
    let handle = server.start().expect("bind to a loopback port");
    println!("live target: {}", handle.base_url());

    let target = Url::parse(&handle.base_url()).expect("valid URL");
    let mut backend = LiveBackend::new(
        target,
        LiveBackendConfig {
            clients: 30,
            artificial_latency: (Duration::from_millis(1), Duration::from_millis(25)),
            ..LiveBackendConfig::default()
        },
        5,
    );

    // A small, quick configuration: 50 ms threshold (loopback responses are
    // fast), crowds of 5..30, only the Base and Large Object stages to keep
    // the run short.
    let config = MfcConfig::standard()
        .with_schedule_lead(mfc_simcore::SimDuration::from_millis(300))
        .with_threshold(mfc_simcore::SimDuration::from_millis(50))
        .with_min_clients(20)
        .with_max_crowd(30)
        .with_increment(5)
        .with_stages(vec![Stage::Base, Stage::LargeObject]);

    let report = Coordinator::new(config)
        .with_seed(2)
        .run(&mut backend)
        .expect("enough live clients");

    println!("{}", report.render_text());
    println!(
        "server saw {} requests total, peak concurrency {}",
        handle
            .stats()
            .requests
            .load(std::sync::atomic::Ordering::SeqCst),
        handle
            .stats()
            .peak_in_flight
            .load(std::sync::atomic::Ordering::SeqCst)
    );
    let log = handle.arrival_log();
    println!("first few arrival-log entries (offset, target):");
    for (offset, target) in log.iter().take(5) {
        println!("  {:>8.1?}  {}", offset, target);
    }
    handle.shutdown();
}
