//! Quick-mode scaling smoke: the virtual-time fluid core must handle a
//! thousand-flow crowd in interactive time.
//!
//! These are coarse wall-clock ceilings, not benchmarks — the real numbers
//! live in `crates/bench/benches/throughput.rs` and the `BENCH_*.json`
//! trajectory.  The ceilings are set an order of magnitude above the
//! expected debug-mode cost so they only trip on a genuine complexity
//! regression (the old progressive-filling model blows the first ceiling by
//! minutes, not milliseconds).

use std::time::{Duration, Instant};

use mfc_core::runner::TrialRunner;
use mfc_dynamics::DefenseConfig;
use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_simnet::FlowId;
use mfc_topology::{NetworkGraph, RouteId};
use mfc_webserver::{
    BalancePolicy, ContentCatalog, NullControl, RequestClass, ServerCluster, ServerConfig,
    ServerRequest, WorkerConfig,
};

#[test]
fn thousand_flow_link_drains_within_wall_clock_budget() {
    let started = Instant::now();
    let mut rng = SimRng::seed_from(0x5CA1);
    let mut link = NetworkGraph::new();
    let access = link.add_link(1e8);
    let route = link.add_route(&[access]);
    let n = 1_000u64;
    let mut now = SimTime::ZERO;
    for id in 0..n {
        now += SimDuration::from_micros(rng.uniform_u64(0, 500));
        let cap = if rng.chance(0.5) {
            f64::INFINITY
        } else {
            rng.uniform(10_000.0, 1e6)
        };
        link.start_flow(FlowId(id), route, rng.uniform(50_000.0, 2e6), cap, now);
    }
    let mut completed = 0u64;
    while let Some((t, id)) = link.next_completion(now) {
        now = now.max(t);
        link.finish_flow(id, now);
        completed += 1;
    }
    assert_eq!(completed, n);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(20),
        "1k-flow drain took {elapsed:?}; the sharing core has regressed to super-logarithmic \
         per-event cost"
    );
}

#[test]
fn ten_k_flows_over_a_multi_hop_graph_drain_within_wall_clock_budget() {
    // The multi-hop analogue of the 1k-flow single-link smoke: 10k transfers
    // from four vantage groups over a three-hop graph (transit → backbone
    // → access, six links total) with heterogeneous caps and staggered
    // arrivals.  Per-event cost must stay near O(L²·log C) — a regression
    // to per-flow rescans blows this ceiling by orders of magnitude.
    let started = Instant::now();
    let mut rng = SimRng::seed_from(0x70F0);
    let mut net = NetworkGraph::new();
    let access = net.add_link(2e9);
    let backbone = net.add_link(1e9);
    let groups: Vec<RouteId> = (0..4)
        .map(|g| {
            let transit = net.add_link(5e7 * (g + 1) as f64);
            net.add_route(&[transit, backbone, access])
        })
        .collect();
    let n = 10_000u64;
    let mut now = SimTime::ZERO;
    for id in 0..n {
        now += SimDuration::from_micros(rng.uniform_u64(0, 300));
        let cap = if rng.chance(0.5) {
            f64::INFINITY
        } else {
            rng.uniform(10_000.0, 1e6)
        };
        net.start_flow(
            FlowId(id),
            groups[(id % 4) as usize],
            rng.uniform(50_000.0, 2e6),
            cap,
            now,
        );
    }
    let mut completed = 0u64;
    while let Some((t, id)) = net.next_completion(now) {
        now = now.max(t);
        net.finish_flow(id, now);
        completed += 1;
    }
    assert_eq!(completed, n);
    // Every byte of every flow crossed the access link (within sub-byte
    // fluid rounding per flow).
    assert!(net.link_bytes_transferred(access) > 0.0);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "10k-flow multi-hop drain took {elapsed:?}; the graph allocator has regressed \
         to super-logarithmic per-event cost"
    );
}

#[test]
fn thousand_request_large_object_crowd_completes_quickly() {
    let started = Instant::now();
    // Enough workers to hold the whole crowd on the access link at once —
    // this is the Large Object stage at DDoS scale, where the old model's
    // O(C²) reallocation dominated the run time.
    let config = ServerConfig {
        workers: WorkerConfig {
            max_workers: 4_096,
            listen_queue: 8_192,
            ..WorkerConfig::default()
        },
        ..ServerConfig::lab_apache()
    };
    let mut server = ServerCluster::new(config, ContentCatalog::lab_validation(), 1);
    // Warm the object cache so the disk stays out of the picture.
    let warm = ServerRequest {
        id: 0,
        arrival: SimTime::ZERO,
        class: RequestClass::Static,
        path: "/objects/large_100k.bin".to_string(),
        client_downlink: 1e8,
        client_rtt: SimDuration::from_millis(40),
        client_addr: 0,
        background: false,
    };
    server.run(vec![warm.clone()], &mut NullControl);
    let crowd: Vec<ServerRequest> = (0..1_000)
        .map(|i| ServerRequest {
            id: i + 1,
            arrival: SimTime::ZERO + SimDuration::from_micros(i * 50),
            ..warm.clone()
        })
        .collect();
    let result = server.run(crowd, &mut NullControl);
    assert_eq!(result.outcomes.len(), 1_000);
    assert!(
        result.outcomes.iter().all(|o| o.is_ok()),
        "every transfer in the crowd must complete"
    );
    // All bytes crossed the link (sub-byte fluid rounding allowed per flow).
    assert!(result.utilization.network_bytes_sent >= 1_000 * 100 * 1024 - 1_000);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "1k-request large-object crowd took {elapsed:?}"
    );
}

#[test]
fn ten_k_crowd_with_all_four_defenses_stays_under_wall_clock_budget() {
    // The dynamics layer adds a control loop on top of the engine: ticks,
    // per-client token buckets, admission windows, replica scaling and a
    // capacity schedule.  None of that may bend the scaling law — a
    // 10k-request ramp through all four policies at once must stay firmly
    // interactive.  The ceiling is an order of magnitude above the
    // expected debug-mode cost; CI additionally runs this file in release
    // where the run takes tens of milliseconds.
    let started = Instant::now();
    let config = ServerConfig {
        workers: WorkerConfig {
            max_workers: 65_536,
            listen_queue: 65_536,
            ..WorkerConfig::default()
        },
        ..ServerConfig::lab_apache()
    };
    let crowd: Vec<ServerRequest> = (0..10_000u64)
        .map(|i| ServerRequest {
            id: i,
            // A 100-second ramp, like a flash-crowd onset.
            arrival: SimTime::ZERO
                + SimDuration::from_micros((1e8 * (i as f64 / 10_000.0).sqrt()) as u64),
            class: RequestClass::Static,
            path: "/objects/large_100k.bin".to_string(),
            client_downlink: 1e8,
            client_rtt: SimDuration::from_millis(40),
            client_addr: (i % 509) as u32,
            background: false,
        })
        .collect();
    let mut stack = DefenseConfig::fortress(1, 8).build();
    let mut cluster = ServerCluster::new(config, ContentCatalog::lab_validation(), 1)
        .with_policy(BalancePolicy::LeastOutstanding);
    let result = cluster.run(crowd, &mut stack);
    assert_eq!(result.outcomes.len(), 10_000);
    // Every request was answered one way or another: served, refused or
    // deliberately shed — nobody is silently dropped.
    let answered = result.utilization.completed_requests
        + result.utilization.refused_requests
        + result.utilization.shed_requests;
    assert_eq!(answered, 10_000);
    // The defenses actually engaged.
    assert!(
        cluster.active_replicas() > 1,
        "the autoscaler must have scaled out"
    );
    assert!(
        result.utilization.shed_requests > 0 || result.utilization.throttled_requests > 0,
        "rate limiting / admission control must have touched the crowd"
    );
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "10k-crowd dynamic scenario took {elapsed:?}; the control loop has broken the \
         engine's scaling law"
    );
}

/// One million browsing sessions as a lazily evaluated stream: the
/// workload generator must produce them in O(log S) per request with
/// memory bounded by session *concurrency*, the result must be
/// bit-identical no matter how many trial-runner threads surround the
/// generation (the `MFC_THREADS` contract), and the stream must drive the
/// server through `ServerCluster::run` without ever materializing the
/// request list — all inside a release-mode wall-clock ceiling.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: the 1M-session stream needs optimized code (CI runs it via \
              `cargo test --release --test scaling`)"
)]
fn million_session_workload_streams_through_the_engine() {
    use mfc_simcore::SimRng;
    use mfc_webserver::CatalogSampler;
    use mfc_workload::{
        ArrivalProcess, ClientSpec, PageSpec, RequestKind, SessionModel, TailDistribution,
        WorkloadSpec, WorkloadStream,
    };

    let started = Instant::now();
    // ~1.1 requests per session keeps the engine cost proportional to the
    // session count; a 30 s think time keeps thousands of sessions live
    // concurrently so the slab reuse actually gets exercised.
    let model = SessionModel {
        pages: vec![PageSpec::bare(RequestKind::BasePage)],
        entry_weights: vec![1.0],
        transitions: vec![vec![0.1]],
        exit_weights: vec![0.9],
        think_time: TailDistribution::Constant { value: 30.0 },
    };
    // 500 sessions/s on a diurnal cycle over 2000 s → one million sessions.
    let spec = WorkloadSpec::sessions(
        ArrivalProcess::diurnal(500.0, 0.5, 500.0, 10),
        model,
        ClientSpec::default(),
    );
    let window_end = SimTime::ZERO + SimDuration::from_secs(2_000);
    let catalog = ContentCatalog::lab_validation();

    // 1) Bit-stability across trial-runner thread counts (the
    //    MFC_THREADS=1 vs MFC_THREADS=8 contract): generate the stream
    //    inside a serial and an 8-thread pool and compare a running hash.
    let digest = |runner: &TrialRunner| -> Vec<(u64, u64, u64)> {
        runner.run(vec![(); 2], |trial, ()| {
            let mut hash = 0x9e37_79b9_7f4a_7c15u64 ^ trial as u64;
            let mut count = 0u64;
            let mut stream = WorkloadStream::new(
                &spec,
                SimTime::ZERO,
                window_end,
                0,
                &SimRng::seed_from(0x1_000_000),
                CatalogSampler::background(&catalog),
            );
            for request in stream.by_ref() {
                hash = hash
                    .rotate_left(7)
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(request.id ^ request.arrival.as_micros())
                    .wrapping_add(u64::from(request.client_addr));
                count += 1;
            }
            (hash, count, stream.sessions_started())
        })
    };
    let serial = digest(&TrialRunner::serial());
    let threaded = digest(&TrialRunner::with_threads(8));
    assert_eq!(serial, threaded, "thread count observable in the stream");
    let (_, requests, sessions) = serial[0];
    assert!(
        sessions > 900_000,
        "expected ~1M sessions, generated {sessions}"
    );
    assert!(requests >= sessions, "sessions issue at least one request");

    // 2) The same stream drives the server to completion without a
    //    materialized request list.  The gigabit validation server absorbs
    //    the load; what is under test is the engine's event loop at 1M+
    //    streamed arrivals.
    let config = ServerConfig {
        workers: WorkerConfig {
            max_workers: 65_536,
            listen_queue: 65_536,
            ..WorkerConfig::default()
        },
        ..ServerConfig::validation_server()
    };
    let mut server = ServerCluster::new(config, catalog.clone(), 1);
    let mut stream = WorkloadStream::new(
        &spec,
        SimTime::ZERO,
        window_end,
        0,
        &SimRng::seed_from(0x1_000_000),
        CatalogSampler::background(&catalog),
    );
    let result = server.run(stream.by_ref(), &mut NullControl);
    assert_eq!(result.outcomes.len() as u64, requests);
    let ok = result.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
    assert!(
        ok * 10 >= requests * 9,
        "the gigabit server must absorb the stream: {ok}/{requests} ok"
    );
    // Memory scaled with concurrency, not total sessions: the session slab
    // peaked around rate × session-duration, three orders of magnitude
    // below the million sessions that passed through it.
    assert!(
        stream.peak_active_sessions() < 50_000,
        "session slab grew to {} — concurrency bound broken",
        stream.peak_active_sessions()
    );
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(120),
        "1M-session streamed workload took {elapsed:?}; generation or the engine event \
         loop has regressed"
    );
}
