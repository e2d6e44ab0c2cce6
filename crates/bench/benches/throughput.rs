//! Core hot-path throughput: the sharing cores' per-event cost, the server
//! engine's per-run cost and the wall-clock of one representative survey
//! experiment.
//!
//! These are the numbers the `BENCH_*.json` trajectory tracks across PRs
//! (see `EXPERIMENTS.md`); the per-experiment wall-clock table comes from
//! `repro all --timing`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mfc_bench::experiments::rank_figs;
use mfc_bench::Scale;
use mfc_core::types::Stage;
use mfc_dynamics::DefenseConfig;
use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_simnet::{mbps, FlowId};
use mfc_topology::{NaiveNetwork, NetworkGraph, RouteId, TopologySpec};
use mfc_webserver::{
    ContentCatalog, NullControl, RequestClass, ServerCluster, ServerConfig, ServerRequest,
    WorkerConfig,
};

/// Flow parameters for the link-scaling benches: deterministic, with a mix
/// of unlimited and heterogeneous finite caps so the water level actually
/// moves and flows flip between the capped and sharing regimes.
fn crowd_flows(n: u64) -> Vec<(u64, f64, f64, u64)> {
    let mut rng = SimRng::seed_from(0xF10);
    (0..n)
        .map(|id| {
            let cap = if rng.chance(0.5) {
                f64::INFINITY
            } else {
                rng.uniform(10_000.0, 1e6)
            };
            (id, rng.uniform(50_000.0, 2e6), cap, rng.uniform_u64(0, 500))
        })
        .collect()
}

/// One shared link: a one-link, one-route graph.
fn one_link(capacity: f64) -> (NetworkGraph, RouteId) {
    let mut net = NetworkGraph::new();
    let link = net.add_link(capacity);
    let route = net.add_route(&[link]);
    (net, route)
}

/// Starts `n` staggered flows on the virtual-time link and drains it.
fn link_drain(flows: &[(u64, f64, f64, u64)]) -> u64 {
    let (mut link, route) = one_link(1e8);
    let mut now = SimTime::ZERO;
    for &(id, bytes, cap, stagger_us) in flows {
        now += SimDuration::from_micros(stagger_us);
        link.start_flow(FlowId(id), route, bytes, cap, now);
    }
    let mut checksum = 0u64;
    while let Some((t, id)) = link.next_completion(now) {
        now = now.max(t);
        link.finish_flow(id, now);
        checksum = checksum.wrapping_add(t.as_micros()).wrapping_add(id.0);
    }
    checksum
}

/// The same drain over a one-link naive progressive-filling reference, so
/// the speedup is measured in-tree.
fn naive_link_drain(flows: &[(u64, f64, f64, u64)]) -> u64 {
    let mut link = NaiveNetwork::new();
    let links = [link.add_link(1e8)];
    let mut now = SimTime::ZERO;
    for &(id, bytes, cap, stagger_us) in flows {
        now += SimDuration::from_micros(stagger_us);
        link.start_flow(FlowId(id), &links, bytes, cap, now);
    }
    let mut checksum = 0u64;
    while let Some((t, id)) = link.next_completion(now) {
        now = now.max(t);
        link.finish_flow(id, now);
        checksum = checksum.wrapping_add(t.as_micros()).wrapping_add(id.0);
    }
    checksum
}

/// Flow size and cap of the next churn flow.
type FlowDraw = fn(&mut SimRng) -> (f64, f64);

/// A CPU task as `PsResource` runs it: equal 1.0 caps on a 2-core
/// capacity, 1–50 ms of work.
fn cpu_task(rng: &mut SimRng) -> (f64, f64) {
    (rng.uniform(0.001, 0.05), 1.0)
}

/// A response transfer with a mixed cap: uncapped, a slow client, or a
/// TCP-window-sized cap, so flows flip regimes as the level moves.
fn mixed_transfer(rng: &mut SimRng) -> (f64, f64) {
    let cap = match rng.index(3) {
        0 => f64::INFINITY,
        1 => rng.uniform(10_000.0, 60_000.0),
        _ => rng.uniform(100_000.0, 1e6),
    };
    (rng.uniform(5_000.0, 500_000.0), cap)
}

/// Completion-driven churn on one link with `n` flows active: each
/// completion is finished and replaced by a new flow at that instant.
/// This is the shape the surveys run — a handful of concurrent tasks
/// turning over — rather than one large crowd draining.
fn link_churn(n: u64, steps: u64, capacity: f64, draw: FlowDraw) -> u64 {
    let mut rng = SimRng::seed_from(0xC4);
    let (mut link, route) = one_link(capacity);
    let mut now = SimTime::ZERO;
    for id in 0..n {
        let (size, cap) = draw(&mut rng);
        link.start_flow(FlowId(id), route, size, cap, now);
    }
    let mut checksum = 0u64;
    for id in n..n + steps {
        let (t, done) = link.peek_completion().expect("n flows stay active");
        now = now.max(t);
        link.finish_flow(done, now);
        checksum = checksum.wrapping_add(t.as_micros()).wrapping_add(done.0);
        let (size, cap) = draw(&mut rng);
        link.start_flow(FlowId(id), route, size, cap, now);
    }
    checksum
}

/// The same churn on a 4-group star with a backbone and six persistent
/// cross flows on group 0's transit; new transfers take the group routes
/// and the background route in turn.
fn star_churn(n: u64, steps: u64) -> u64 {
    let spec = TopologySpec::star(&[mbps(20.0), mbps(100.0), mbps(100.0), mbps(100.0)])
        .with_backbone(mbps(150.0))
        .with_cross_traffic(0, 6, 150_000.0);
    let built = spec.build(mbps(100.0));
    let mut net: NetworkGraph = built.graph;
    for (k, &(route, count, rate)) in built.cross.iter().enumerate() {
        for j in 0..u64::from(count) {
            let id = FlowId((1 << 62) + 100 * k as u64 + j);
            net.start_flow(id, route, f64::INFINITY, rate, SimTime::ZERO);
        }
    }
    let mut routes: Vec<RouteId> = built.group_routes.clone();
    routes.push(built.background_route);
    let mut rng = SimRng::seed_from(0x57A);
    let mut now = SimTime::ZERO;
    for id in 0..n {
        let (size, cap) = mixed_transfer(&mut rng);
        net.start_flow(
            FlowId(id),
            routes[id as usize % routes.len()],
            size,
            cap,
            now,
        );
    }
    let mut checksum = 0u64;
    for id in n..n + steps {
        let (t, done) = net.peek_completion().expect("n flows stay active");
        now = now.max(t);
        net.finish_flow(done, now);
        checksum = checksum.wrapping_add(t.as_micros()).wrapping_add(done.0);
        let (size, cap) = mixed_transfer(&mut rng);
        net.start_flow(
            FlowId(id),
            routes[id as usize % routes.len()],
            size,
            cap,
            now,
        );
    }
    checksum
}

/// One server run of a large-object crowd: `n` concurrent 100KB transfers
/// through the full server pipeline (workers, CPU, cache, access link).
fn engine_large_object_crowd(n: u64) -> u64 {
    let config = ServerConfig {
        workers: WorkerConfig {
            max_workers: 16_384,
            listen_queue: 32_768,
            ..WorkerConfig::default()
        },
        ..ServerConfig::lab_apache()
    };
    let mut server = ServerCluster::new(config, ContentCatalog::lab_validation(), 1);
    let requests: Vec<ServerRequest> = (0..n)
        .map(|i| ServerRequest {
            id: i,
            arrival: SimTime::ZERO + SimDuration::from_micros(i * 50),
            class: RequestClass::Static,
            path: "/objects/large_100k.bin".to_string(),
            client_downlink: 1e8,
            client_rtt: SimDuration::from_millis(40),
            client_addr: i as u32,
            background: false,
        })
        .collect();
    let result = server.run(requests, &mut DefenseConfig::none().build());
    result.utilization.completed_requests
}

/// The lab server behind `topology`, after one run that warms its object
/// cache and leaves its session buffers for the next run.
fn warm_cluster(topology: TopologySpec) -> ServerCluster {
    let config = ServerConfig {
        access_link: mbps(100.0),
        ..ServerConfig::lab_apache()
    };
    let mut cluster =
        ServerCluster::new(config, ContentCatalog::lab_validation(), 1).with_topology(topology);
    one_request_runs(&mut cluster, RequestClass::Static, 1);
    cluster
}

/// `runs` runs of one request each, a HEAD of the base page or a GET of
/// the 100 KiB object, the way a client measures its base response time.
fn one_request_runs(cluster: &mut ServerCluster, class: RequestClass, runs: u64) -> u64 {
    let path = match class {
        RequestClass::Static => "/objects/large_100k.bin",
        _ => "/index.html",
    };
    let mut checksum = 0u64;
    for i in 0..runs {
        let request = ServerRequest {
            id: i,
            arrival: SimTime::ZERO + SimDuration::from_millis(500 * i),
            class,
            path: path.to_string(),
            client_downlink: 1e7,
            client_rtt: SimDuration::from_millis(40),
            client_addr: i as u32,
            background: false,
        };
        let result = cluster.run([request], &mut NullControl);
        checksum = checksum.wrapping_add(result.outcomes[0].completion.as_micros());
    }
    checksum
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    group.bench_function("rank_survey_base_quick", |b| {
        b.iter(|| rank_figs::run(Stage::Base, Scale::Quick, black_box(1)))
    });
    group.finish();

    // The fluid-link scaling curve the BENCH_*.json trajectory tracks: the
    // naive 1k point is the pre-PR baseline, the 1k→10k pair shows the
    // near-O(E log C) growth of the virtual-time core.
    let mut group = c.benchmark_group("link_scaling");
    group.sample_size(10);
    let flows_1k = crowd_flows(1_000);
    let flows_10k = crowd_flows(10_000);
    group.bench_function("naive_1k", |b| {
        b.iter(|| naive_link_drain(black_box(&flows_1k)))
    });
    group.bench_function("virtual_time_1k", |b| {
        b.iter(|| link_drain(black_box(&flows_1k)))
    });
    group.bench_function("virtual_time_10k", |b| {
        b.iter(|| link_drain(black_box(&flows_10k)))
    });
    group.bench_function("engine_large_object_crowd_2k", |b| {
        b.iter(|| engine_large_object_crowd(black_box(2_000)))
    });
    // Small-n churn, 20k completions each: the per-event cost the surveys
    // pay on their CPUs and links.
    const CHURN_STEPS: u64 = 20_000;
    for n in [1, 4, 32] {
        group.bench_function(&format!("cpu_churn_n{n}"), |b| {
            b.iter(|| link_churn(black_box(n), CHURN_STEPS, 2.0, cpu_task))
        });
    }
    group.bench_function("mixed_cap_churn_n32", |b| {
        b.iter(|| link_churn(black_box(32), CHURN_STEPS, 1e6, mixed_transfer))
    });
    group.bench_function("star_churn_n32", |b| {
        b.iter(|| star_churn(black_box(32), CHURN_STEPS))
    });
    // The fixed cost of one server run, as every base measurement pays it:
    // 1k one-request runs each on a warm cluster.
    const ONE_REQUEST_RUNS: u64 = 1_000;
    let mut direct = warm_cluster(TopologySpec::direct());
    group.bench_function("one_request_run_direct", |b| {
        b.iter(|| one_request_runs(&mut direct, RequestClass::Head, black_box(ONE_REQUEST_RUNS)))
    });
    let mut star = warm_cluster(
        TopologySpec::star(&[mbps(20.0), mbps(100.0), mbps(100.0), mbps(100.0)])
            .with_backbone(mbps(150.0))
            .with_cross_traffic(0, 6, 150_000.0),
    );
    group.bench_function("one_request_run_star", |b| {
        b.iter(|| one_request_runs(&mut star, RequestClass::Static, black_box(ONE_REQUEST_RUNS)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
