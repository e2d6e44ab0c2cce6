//! Core hot-path throughput: event-queue operations per second and the
//! wall-clock of one representative survey experiment.
//!
//! These are the numbers the `BENCH_*.json` trajectory tracks across PRs
//! (see `EXPERIMENTS.md`); the per-experiment wall-clock table comes from
//! `repro all --timing`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mfc_bench::experiments::rank_figs;
use mfc_bench::Scale;
use mfc_core::types::Stage;
use mfc_dynamics::DefenseConfig;
use mfc_simcore::{EventQueue, SimDuration, SimRng, SimTime};
use mfc_simnet::{mbps, FlowId, FluidLink, NaiveFluidLink};
use mfc_topology::{NetworkGraph, RouteId, TopologySpec};
use mfc_webserver::{
    ContentCatalog, RequestClass, ServerCluster, ServerConfig, ServerRequest, WorkerConfig,
};

/// Schedule/pop churn with a live population of pending events, the access
/// pattern the simulation engines produce.
fn queue_churn(events: usize) -> u64 {
    let mut rng = SimRng::seed_from(7);
    let mut queue = EventQueue::new();
    for i in 0..1_000u64 {
        queue.schedule(SimTime::from_micros(rng.uniform_u64(0, 1 << 30)), i);
    }
    let mut checksum = 0u64;
    for i in 0..events as u64 {
        let (t, payload) = queue.pop().expect("queue stays populated");
        checksum = checksum.wrapping_add(t.as_micros()).wrapping_add(payload);
        queue.schedule(
            t + mfc_simcore::SimDuration::from_micros(rng.uniform_u64(1, 1 << 20)),
            i,
        );
    }
    checksum
}

/// Schedule-then-cancel churn: the timeout-heavy pattern.
fn queue_cancel_churn(events: usize) -> u64 {
    let mut rng = SimRng::seed_from(11);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut cancelled = 0u64;
    let mut handles = Vec::new();
    for i in 0..events as u64 {
        let h = queue.schedule(SimTime::from_micros(rng.uniform_u64(0, 1 << 30)), i);
        handles.push(h);
        if i % 4 == 0 {
            let target = handles[rng.index(handles.len())];
            if queue.cancel(target) {
                cancelled += 1;
            }
        }
        if i % 8 == 0 {
            let _ = queue.pop();
        }
    }
    cancelled
}

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

/// Starts `n` staggered flows on the virtual-time link and drains it.
fn link_drain(flows: &[(u64, f64, f64, u64)]) -> u64 {
    let mut link = FluidLink::new(1e8);
    let mut now = SimTime::ZERO;
    for &(id, bytes, cap, stagger_us) in flows {
        now += SimDuration::from_micros(stagger_us);
        link.start_flow(FlowId(id), bytes, cap, now);
    }
    let mut checksum = 0u64;
    while let Some((t, id)) = link.next_completion(now) {
        now = now.max(t);
        link.finish_flow(id, now);
        checksum = checksum.wrapping_add(t.as_micros()).wrapping_add(id.0);
    }
    checksum
}

/// The same drain over the retained naive progressive-filling reference —
/// the pre-PR `FluidLink` — so the speedup is measured in-tree.
fn naive_link_drain(flows: &[(u64, f64, f64, u64)]) -> u64 {
    let mut link = NaiveFluidLink::new(1e8);
    let mut now = SimTime::ZERO;
    for &(id, bytes, cap, stagger_us) in flows {
        now += SimDuration::from_micros(stagger_us);
        link.start_flow(FlowId(id), bytes, cap, now);
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
    let mut link = FluidLink::new(capacity);
    let mut now = SimTime::ZERO;
    for id in 0..n {
        let (size, cap) = draw(&mut rng);
        link.start_flow(FlowId(id), size, cap, now);
    }
    let mut checksum = 0u64;
    for id in n..n + steps {
        let (t, done) = link.peek_completion().expect("n flows stay active");
        now = now.max(t);
        link.finish_flow(done, now);
        checksum = checksum.wrapping_add(t.as_micros()).wrapping_add(done.0);
        let (size, cap) = draw(&mut rng);
        link.start_flow(FlowId(id), size, cap, now);
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

fn bench(c: &mut Criterion) {
    const CHURN_EVENTS: usize = 200_000;
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    group.bench_function("event_queue_churn_200k", |b| {
        b.iter(|| queue_churn(black_box(CHURN_EVENTS)))
    });
    group.bench_function("event_queue_cancel_churn_200k", |b| {
        b.iter(|| queue_cancel_churn(black_box(CHURN_EVENTS)))
    });
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
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
