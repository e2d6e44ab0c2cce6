//! Heap-allocation budgets for the simulation hot path.
//!
//! A counting global allocator records every allocation made by the
//! current thread, so the tests in this binary can run in parallel without
//! seeing each other's allocations.  The counts are deterministic: the
//! same code path on the same inputs makes the same calls to the
//! allocator.  Each test pins a budget well below what the path allocated
//! before its scratch buffers and caches existed, so an accidental
//! `collect`/`clone`/`to_string` on a per-event path fails here instead of
//! showing up later as a slower benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mfc_simcore::{SimDuration, SimTime};
use mfc_simnet::{mbps, FlowId};
use mfc_topology::{NetworkGraph, TopologySpec};
use mfc_webserver::resource::PsResource;
use mfc_webserver::{CacheState, ContentCatalog, ServerConfig, ServerEngine};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` because the allocator also runs while thread-locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocations it made on this thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

fn ms(millis: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(millis)
}

/// Per-flow caps that put some flows under the water level and leave
/// others sharing, so every churn step flips flows between the regimes.
fn cap_of(i: u64) -> f64 {
    match i % 3 {
        0 => f64::INFINITY,
        1 => 30_000.0,
        _ => 400_000.0 + 50_000.0 * (i % 5) as f64,
    }
}

/// Starts flow `i` and retires flow `i - 6`, keeping at most six transfers
/// (plus any cross traffic) in flight: few enough that every ordered index
/// stays within one tree node, so the churn itself needs no new nodes.
fn churn_graph(net: &mut mfc_topology::NetworkGraph, routes: &[mfc_topology::RouteId], i: u64) {
    let now = ms(10 * i);
    if i >= 6 {
        net.finish_flow(FlowId(i - 6), now);
    }
    let route = routes[i as usize % routes.len()];
    net.start_flow(FlowId(i), route, 1e9, cap_of(i), now);
}

#[test]
fn graph_churn_allocates_nothing_after_warm_up() {
    let spec = TopologySpec::star(&[mbps(8.0), mbps(40.0), mbps(40.0), mbps(40.0)])
        .with_backbone(mbps(60.0))
        .with_cross_traffic(0, 3, 150_000.0);
    let built = spec.build(mbps(100.0));
    let mut net = built.graph;
    for (k, &(route, count, rate)) in built.cross.iter().enumerate() {
        for j in 0..u64::from(count) {
            let id = FlowId((1 << 62) + 100 * k as u64 + j);
            net.start_flow(id, route, f64::INFINITY, rate, SimTime::ZERO);
        }
    }
    let mut routes = built.group_routes.clone();
    routes.push(built.background_route);
    for i in 0..100 {
        churn_graph(&mut net, &routes, i);
    }
    let (allocations, ()) = allocations_during(|| {
        for i in 100..1_100 {
            churn_graph(&mut net, &routes, i);
        }
    });
    assert_eq!(
        allocations, 0,
        "1k start/finish pairs on a warm 6-link graph must reuse its scratch"
    );
    // The churn really did exercise capped and sharing flows.
    assert_eq!(net.current_rate(FlowId(1_096)), Some(cap_of(1_096)));
    assert!(net
        .current_rate(FlowId(1_098))
        .is_some_and(|r| r > 30_000.0));
}

#[test]
fn link_and_cpu_churn_allocate_nothing_after_warm_up() {
    let mut link = NetworkGraph::new();
    let access = link.add_link(1_000_000.0);
    let route = link.add_route(&[access]);
    let mut cpu = PsResource::new(2.0, 1.0);
    let mut churn = |i: u64| {
        let now = ms(10 * i);
        if i >= 6 {
            link.finish_flow(FlowId(i - 6), now);
            cpu.remove_task(i - 6, now);
        }
        link.start_flow(FlowId(i), route, 1e9, cap_of(i), now);
        cpu.add_task(i, 0.05 * (1 + i % 4) as f64, now);
    };
    for i in 0..100 {
        churn(i);
    }
    let (allocations, ()) = allocations_during(|| {
        for i in 100..1_100 {
            churn(i);
        }
    });
    assert_eq!(
        allocations, 0,
        "1k start/finish pairs on a warm link and CPU must not allocate"
    );
}

/// Allocations of a second `ServerEngine::session()` on a 4-group star
/// with a backbone and cross traffic: the session clones the engine's
/// cached graph (its link, route and index containers) and sets up its
/// own empty queues and pools.  Building the graph and starting the cross
/// traffic again, as every session did before the graph was cached, took
/// 83 allocations.
const SECOND_SESSION_BUDGET: u64 = 20;

#[test]
fn a_second_session_clones_the_cached_network() {
    let topology = TopologySpec::star(&[mbps(8.0), mbps(40.0), mbps(40.0), mbps(40.0)])
        .with_backbone(mbps(60.0))
        .with_cross_traffic(0, 6, 150_000.0);
    let engine = ServerEngine::new(ServerConfig::lab_apache(), ContentCatalog::lab_validation())
        .with_topology(topology);
    let (first, session) = allocations_during(|| engine.session(CacheState::new()));
    drop(session);
    let (second, session) = allocations_during(|| engine.session(CacheState::new()));
    drop(session);
    assert!(
        second <= SECOND_SESSION_BUDGET,
        "second session allocated {second} times (budget {SECOND_SESSION_BUDGET})"
    );
    assert!(
        second < first,
        "the first session builds the graph ({first}); later ones only clone it ({second})"
    );
}
