//! Cross-crate randomized property tests.
//!
//! These exercise the invariants the MFC inferences lean on: order
//! statistics, fluid fair sharing, the synchronization arithmetic, HTTP
//! message round-trips and the monotonicity of the server model under load.
//! Each property runs over inputs generated from a seeded [`SimRng`], so the
//! cases are random-looking but fully reproducible (the offline build has no
//! `proptest`; a failing case can be replayed from its loop index alone).

use std::io::BufReader;

use mfc_core::sync::{send_offset, ClientLatency, SyncScheduler};
use mfc_core::types::ClientId;
use mfc_http::{Method, Request, Response, StatusCode, Url};
use mfc_simcore::stats::{median, percentile};
use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_simnet::{FlowId, PopulationProfile, TcpModel, WideAreaModel};
use mfc_topology::{LinkId, NaiveNetwork, NetworkGraph, RouteId, TopologySpec};
use mfc_webserver::{
    ContentCatalog, NullControl, ObjectId, RequestClass, ServerCluster, ServerConfig, ServerRequest,
};

const CASES: usize = 64;

fn values_vec(rng: &mut SimRng, max_len: usize, high: f64) -> Vec<f64> {
    let len = rng.index(max_len) + 1;
    (0..len).map(|_| rng.uniform(0.0, high)).collect()
}

// -------------------------------------------------------------------
// Order statistics (the MFC detector).
// -------------------------------------------------------------------

#[test]
fn percentile_is_bounded_by_min_and_max() {
    let mut rng = SimRng::seed_from(0x0501);
    for _ in 0..CASES {
        let values = values_vec(&mut rng, 200, 1e6);
        let q = rng.uniform(0.0, 1.0);
        let p = percentile(&values, q).unwrap();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            p >= min - 1e-9 && p <= max + 1e-9,
            "p={p} not in [{min}, {max}]"
        );
    }
}

#[test]
fn percentile_is_monotone_in_the_quantile() {
    let mut rng = SimRng::seed_from(0x0502);
    for _ in 0..CASES {
        let values = values_vec(&mut rng, 200, 1e6);
        let q1 = rng.uniform(0.0, 1.0);
        let q2 = rng.uniform(0.0, 1.0);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        assert!(percentile(&values, lo).unwrap() <= percentile(&values, hi).unwrap() + 1e-9);
    }
}

#[test]
fn median_is_invariant_under_permutation() {
    let mut rng = SimRng::seed_from(0x0503);
    for _ in 0..CASES {
        let mut values = values_vec(&mut rng, 100, 1e6);
        let original = median(&values).unwrap();
        values.reverse();
        assert_eq!(original, median(&values).unwrap());
        rng.shuffle(&mut values);
        assert_eq!(original, median(&values).unwrap());
    }
}

// -------------------------------------------------------------------
// Fluid link fair sharing: one shared link is a one-link, one-route graph.
// -------------------------------------------------------------------

/// The single link every access link and CPU runs on: `LinkId(0)` carrying
/// `RouteId(0)`.
fn one_link(capacity: f64) -> (NetworkGraph, RouteId) {
    let mut net = NetworkGraph::new();
    let link = net.add_link(capacity);
    let route = net.add_route(&[link]);
    (net, route)
}

#[test]
fn fluid_link_never_exceeds_capacity_and_conserves_bytes() {
    let mut rng = SimRng::seed_from(0x0507);
    for _ in 0..CASES {
        let capacity = rng.uniform(1_000.0, 1e8);
        let sizes = values_vec(&mut rng, 40, 1e6)
            .into_iter()
            .map(|s| s.max(1.0))
            .collect::<Vec<f64>>();
        let (mut link, route) = one_link(capacity);
        for (i, &bytes) in sizes.iter().enumerate() {
            link.start_flow(FlowId(i as u64), route, bytes, f64::INFINITY, SimTime::ZERO);
        }
        assert!(link.link_utilization_bytes_per_sec(LinkId(0)) <= capacity * (1.0 + 1e-9));
        let mut remaining = sizes.len();
        let mut guard = 0;
        while remaining > 0 && guard < 10_000 {
            guard += 1;
            let now = link
                .next_completion(SimTime::ZERO)
                .map(|(t, _)| t)
                .unwrap_or(SimTime::ZERO);
            if let Some((_, flow)) = link.next_completion(now) {
                link.finish_flow(flow, now);
                remaining -= 1;
            }
        }
        assert_eq!(remaining, 0, "all flows must eventually finish");
        let total: f64 = sizes.iter().sum();
        assert!((link.link_bytes_transferred(LinkId(0)) - total).abs() < total * 1e-6 + 1.0);
    }
}

// -------------------------------------------------------------------
// Fluid link: the virtual-time / water-level core must match the retained
// naive progressive-filling model (the executable specification) on rates,
// completion times and completion order, across arbitrary interleavings of
// flow arrivals, departures and partial advances.
// -------------------------------------------------------------------

/// Draws a rate cap: sometimes unlimited, sometimes a broad range, and
/// sometimes from a small palette so duplicate caps are exercised.
fn random_cap(rng: &mut SimRng) -> f64 {
    match rng.index(4) {
        0 => f64::INFINITY,
        1 => rng.uniform(5_000.0, 2e6),
        2 => rng.uniform(100.0, 50_000.0),
        _ => [50_000.0, 100_000.0, 250_000.0][rng.index(3)],
    }
}

/// Relative-tolerance float comparison for rates and byte counts.
fn assert_close(a: f64, b: f64, what: &str, ctx: &str) {
    let tol = 1e-6 * a.abs().max(b.abs()) + 1e-6;
    assert!((a - b).abs() <= tol, "{what} diverged: {a} vs {b} ({ctx})");
}

/// Completion times are ceil-rounded to microseconds by both models; allow
/// the rounding step plus float noise proportional to the magnitude.
fn times_close(a: SimTime, b: SimTime) -> bool {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let tol = 2 + hi.as_micros() / 1_000_000_000;
    (hi - lo).as_micros() <= tol
}

/// The naive model's own prediction of when `id` would finish if nothing
/// changes, computed from its reported remaining bytes and rate after it
/// has been advanced to `now`.  Used to verify that when the two models
/// disagree about *which* flow completes next, it is a genuine tie: the
/// naive model itself expects the fast model's pick to finish at the same
/// clock tick.  `None` when the flow is stalled (zero rate, bytes left).
fn naive_predicted_completion(naive: &NaiveNetwork, id: FlowId, now: SimTime) -> Option<SimTime> {
    let remaining = naive.remaining_bytes(id)?;
    if remaining <= 0.0 {
        return Some(now);
    }
    let rate = naive.current_rate(id)?;
    if rate <= 0.0 {
        return None;
    }
    let micros = (remaining / rate * 1_000_000.0).ceil().max(0.0) as u64;
    Some(now + SimDuration::from_micros(micros))
}

/// Compares every active flow's rate and remaining bytes between the graph
/// and the reference.  Flows within a byte of completion are exempt from
/// the rate check: at that boundary the models may legitimately disagree
/// about whether the flow has already finished (one sees exactly zero, the
/// other a sub-byte sliver), and a sub-byte flow's rate has no observable
/// effect.
fn assert_flows_match(fast: &NetworkGraph, naive: &NaiveNetwork, active: &[u64], ctx: &str) {
    for &id in active {
        let flow = FlowId(id);
        let naive_left = naive.remaining_bytes(flow).expect("active in naive");
        let fast_left = fast.remaining_bytes(flow).expect("active in fast");
        assert!(
            (naive_left - fast_left).abs() <= 1e-6 * naive_left.max(fast_left) + 1.0,
            "remaining bytes diverged for flow {id}: {naive_left} vs {fast_left} ({ctx})"
        );
        if naive_left < 1.0 || fast_left < 1.0 {
            continue;
        }
        let naive_rate = naive.current_rate(flow).expect("active in naive");
        let fast_rate = fast.current_rate(flow).expect("active in fast");
        assert_close(naive_rate, fast_rate, &format!("rate of flow {id}"), ctx);
    }
}

#[test]
fn fluid_link_matches_naive_reference_under_random_ops() {
    let mut rng = SimRng::seed_from(0x0601);
    for case in 0..CASES {
        let capacity = rng.uniform(1e5, 1e7);
        let (mut fast, route) = one_link(capacity);
        let mut naive = NaiveNetwork::new();
        let link = naive.add_link(capacity);
        let mut active: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        let mut now = SimTime::ZERO;
        let ops = rng.index(100) + 40;
        for op in 0..ops {
            let ctx = format!("case {case} op {op}");
            match rng.index(9) {
                // Arrival.
                0..=3 => {
                    let bytes = if rng.chance(0.05) {
                        0.0
                    } else {
                        rng.uniform(1_000.0, 5e6)
                    };
                    let cap = random_cap(&mut rng);
                    let id = next_id;
                    next_id += 1;
                    fast.start_flow(FlowId(id), route, bytes, cap, now);
                    naive.start_flow(FlowId(id), &[link], bytes, cap, now);
                    active.push(id);
                }
                // Timeout-style removal of a random flow.
                4 => {
                    if !active.is_empty() {
                        let id = active.swap_remove(rng.index(active.len()));
                        let a = naive.finish_flow(FlowId(id), now).expect("active");
                        let b = fast.finish_flow(FlowId(id), now).expect("active");
                        assert!(
                            (a - b).abs() <= 1e-6 * a.max(b) + 1.0,
                            "returned remaining diverged: {a} vs {b} ({ctx})"
                        );
                    }
                }
                // Run to the next completion and retire that flow.
                5..=6 => {
                    let naive_next = naive.next_completion(now);
                    let fast_next = fast.next_completion(now);
                    match (naive_next, fast_next) {
                        (None, None) => {}
                        (Some((tn, idn)), Some((tf, idf))) => {
                            assert!(
                                times_close(tn, tf),
                                "completion times diverged: {tn:?} vs {tf:?} ({ctx})"
                            );
                            // The same flow must be next, unless two flows
                            // complete within clock resolution of each
                            // other (then the pick order may differ): the
                            // naive model must agree that the fast model's
                            // pick also finishes at this same instant.
                            if idn != idf {
                                let predicted = naive_predicted_completion(&naive, idf, now)
                                    .unwrap_or_else(|| panic!("{idf:?} stalled in naive ({ctx})"));
                                assert!(
                                    times_close(tn, predicted),
                                    "different ids without a genuine tie: naive picked {idn:?} \
                                     at {tn:?} but expects {idf:?} at {predicted:?} ({ctx})"
                                );
                            }
                            now = now.max(tn).max(tf);
                            let a = naive.finish_flow(idn, now).expect("active");
                            let b = fast.finish_flow(idn, now).expect("active");
                            assert!(
                                a.abs() < 1.0 && b.abs() < 1.0,
                                "completed flow had bytes left: {a} vs {b} ({ctx})"
                            );
                            active.retain(|&x| x != idn.0);
                        }
                        (a, b) => panic!("one model has a completion: {a:?} vs {b:?} ({ctx})"),
                    }
                }
                // Advance part-way towards the next completion.
                _ => {
                    if let Some((t, _)) = naive.next_completion(now) {
                        let span = (t - now).as_micros();
                        now += SimDuration::from_micros(rng.uniform_u64(0, span.max(1)));
                        naive.advance(now);
                        fast.advance(now);
                    }
                }
            }
            assert_flows_match(&fast, &naive, &active, &ctx);
            assert_close(
                naive.link_utilization_bytes_per_sec(link),
                fast.link_utilization_bytes_per_sec(LinkId(0)),
                "utilization",
                &ctx,
            );
        }
        // Drain everything, checking completion order as we go.
        let mut guard = 0;
        while !active.is_empty() {
            guard += 1;
            assert!(guard < 10_000, "case {case}: drain did not terminate");
            let (tn, idn) = naive
                .next_completion(now)
                .expect("active flows must complete");
            let (tf, idf) = fast.next_completion(now).expect("fast agrees");
            assert!(
                times_close(tn, tf),
                "case {case}: drain completion times diverged: {tn:?} vs {tf:?}"
            );
            if idn != idf {
                // Only simultaneous completions may be ordered differently:
                // the naive model itself must expect the fast pick to finish
                // at this same clock tick.
                let predicted = naive_predicted_completion(&naive, idf, now)
                    .unwrap_or_else(|| panic!("case {case}: {idf:?} stalled in naive"));
                assert!(
                    times_close(tn, predicted),
                    "case {case}: order broke a non-tie: naive picked {idn:?} at {tn:?} but \
                     expects {idf:?} at {predicted:?}"
                );
            }
            now = now.max(tn).max(tf);
            naive.finish_flow(idn, now);
            fast.finish_flow(idn, now);
            active.retain(|&x| x != idn.0);
        }
        assert_close(
            naive.link_bytes_transferred(link),
            fast.link_bytes_transferred(LinkId(0)),
            "total bytes transferred",
            &format!("case {case}"),
        );
    }
}

#[test]
fn fluid_link_ten_thousand_flows_are_deterministic_and_fast() {
    // A DDoS-scale crowd: 10k concurrent transfers with heterogeneous caps
    // and staggered arrivals.  Two independent runs must produce the exact
    // same completion sequence bit for bit (the heaps and the treap never
    // iterate in address or hash order).
    let run = || {
        let mut rng = SimRng::seed_from(0x0602);
        let (mut link, route) = one_link(1e9);
        let n = 10_000u64;
        let mut now = SimTime::ZERO;
        for id in 0..n {
            now += SimDuration::from_micros(rng.uniform_u64(0, 200));
            link.start_flow(
                FlowId(id),
                route,
                rng.uniform(10_000.0, 1e6),
                random_cap(&mut rng),
                now,
            );
        }
        let mut completions: Vec<(u64, u64)> = Vec::with_capacity(n as usize);
        while let Some((t, id)) = link.next_completion(now) {
            now = now.max(t);
            link.finish_flow(id, now);
            completions.push((t.as_micros(), id.0));
        }
        (
            completions,
            link.link_bytes_transferred(LinkId(0)).to_bits(),
        )
    };
    let (completions_a, bytes_a) = run();
    let (completions_b, bytes_b) = run();
    assert_eq!(completions_a.len(), 10_000);
    assert_eq!(
        completions_a, completions_b,
        "completion sequence must be bit-stable"
    );
    assert_eq!(bytes_a, bytes_b, "byte accounting must be bit-stable");
    // Completions come out in nondecreasing time order.
    assert!(completions_a.windows(2).all(|w| w[0].0 <= w[1].0));
}

// -------------------------------------------------------------------
// Multi-hop network graph: the incremental water-filling core must match
// the textbook progressive-filling specification on arbitrary topologies.
// -------------------------------------------------------------------

#[test]
fn network_graph_matches_naive_progressive_filling_on_random_topologies() {
    let mut rng = SimRng::seed_from(0x0701);
    for case in 0..32 {
        // A random topology: 2–5 links, 2–5 routes over random non-empty
        // link subsets (stars, chains, diamonds, shared backbones — the
        // allocator must not care).
        let link_count = rng.index(4) + 2;
        let capacities: Vec<f64> = (0..link_count).map(|_| rng.uniform(2e5, 5e6)).collect();
        let mut fast = NetworkGraph::new();
        let mut naive = NaiveNetwork::new();
        let links: Vec<LinkId> = capacities.iter().map(|&c| fast.add_link(c)).collect();
        for &c in &capacities {
            naive.add_link(c);
        }
        let route_count = rng.index(4) + 2;
        let mut routes: Vec<(RouteId, Vec<LinkId>)> = Vec::new();
        for _ in 0..route_count {
            let mut members: Vec<LinkId> =
                links.iter().copied().filter(|_| rng.chance(0.5)).collect();
            if members.is_empty() {
                members.push(links[rng.index(links.len())]);
            }
            let id = fast.add_route(&members);
            routes.push((id, members));
        }

        let mut active: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        let mut now = SimTime::ZERO;
        let ops = rng.index(80) + 40;
        for op in 0..ops {
            let ctx = format!("case {case} op {op}");
            match rng.index(8) {
                // Arrival on a random route.
                0..=3 => {
                    let bytes = if rng.chance(0.05) {
                        0.0
                    } else {
                        rng.uniform(1_000.0, 5e6)
                    };
                    let cap = random_cap(&mut rng);
                    let (route, members) = &routes[rng.index(routes.len())];
                    let id = next_id;
                    next_id += 1;
                    fast.start_flow(FlowId(id), *route, bytes, cap, now);
                    naive.start_flow(FlowId(id), members, bytes, cap, now);
                    active.push(id);
                }
                // Timeout-style removal.
                4 => {
                    if !active.is_empty() {
                        let id = active.swap_remove(rng.index(active.len()));
                        let a = naive.finish_flow(FlowId(id), now).expect("active");
                        let b = fast.finish_flow(FlowId(id), now).expect("active");
                        assert!(
                            (a - b).abs() <= 1e-6 * a.max(b) + 1.0,
                            "returned remaining diverged: {a} vs {b} ({ctx})"
                        );
                    }
                }
                // Run to the next completion and retire that flow.
                5..=6 => {
                    let naive_next = naive.next_completion(now);
                    let fast_next = fast.next_completion(now);
                    match (naive_next, fast_next) {
                        (None, None) => {}
                        (Some((tn, idn)), Some((tf, idf))) => {
                            assert!(
                                times_close(tn, tf),
                                "completion times diverged: {tn:?} vs {tf:?} ({ctx})"
                            );
                            if idn != idf {
                                let predicted = naive_predicted_completion(&naive, idf, now)
                                    .unwrap_or_else(|| panic!("{idf:?} stalled in naive ({ctx})"));
                                assert!(
                                    times_close(tn, predicted),
                                    "different ids without a genuine tie: naive picked {idn:?} \
                                     at {tn:?} but expects {idf:?} at {predicted:?} ({ctx})"
                                );
                            }
                            now = now.max(tn).max(tf);
                            let a = naive.finish_flow(idn, now).expect("active");
                            let b = fast.finish_flow(idn, now).expect("active");
                            assert!(
                                a.abs() < 1.0 && b.abs() < 1.0,
                                "completed flow had bytes left: {a} vs {b} ({ctx})"
                            );
                            active.retain(|&x| x != idn.0);
                        }
                        (a, b) => panic!("one model has a completion: {a:?} vs {b:?} ({ctx})"),
                    }
                }
                // Advance part-way towards the next completion.
                _ => {
                    if let Some((t, _)) = naive.next_completion(now) {
                        let span = (t - now).as_micros();
                        now += SimDuration::from_micros(rng.uniform_u64(0, span.max(1)));
                        naive.advance(now);
                        fast.advance(now);
                    }
                }
            }
            assert_flows_match(&fast, &naive, &active, &ctx);
            for &link in &links {
                assert_close(
                    naive.link_utilization_bytes_per_sec(link),
                    fast.link_utilization_bytes_per_sec(link),
                    &format!("utilization of {link:?}"),
                    &ctx,
                );
            }
        }
        // Drain everything, checking completion order as we go.
        let mut guard = 0;
        while !active.is_empty() {
            guard += 1;
            assert!(guard < 10_000, "case {case}: drain did not terminate");
            let (tn, idn) = naive
                .next_completion(now)
                .expect("active flows must complete");
            let (tf, idf) = fast.next_completion(now).expect("fast agrees");
            assert!(
                times_close(tn, tf),
                "case {case}: drain completion times diverged: {tn:?} vs {tf:?}"
            );
            if idn != idf {
                let predicted = naive_predicted_completion(&naive, idf, now)
                    .unwrap_or_else(|| panic!("case {case}: {idf:?} stalled in naive"));
                assert!(
                    times_close(tn, predicted),
                    "case {case}: order broke a non-tie: naive picked {idn:?} at {tn:?} but \
                     expects {idf:?} at {predicted:?}"
                );
            }
            now = now.max(tn).max(tf);
            naive.finish_flow(idn, now);
            fast.finish_flow(idn, now);
            active.retain(|&x| x != idn.0);
        }
        for &link in &links {
            assert_close(
                naive.link_bytes_transferred(link),
                fast.link_bytes_transferred(link),
                &format!("bytes through {link:?}"),
                &format!("case {case}"),
            );
        }
    }
}

#[test]
fn network_graph_ten_thousand_flows_are_deterministic() {
    // The DDoS-scale determinism guarantee extended to the multi-hop
    // graph: 10k transfers from four vantage groups over a 6-link graph
    // (4 transits + backbone + access, with cross traffic) must produce a
    // bit-identical completion sequence on every run — the property that
    // keeps `MFC_THREADS` unobservable in any artifact built on top.
    let run = || {
        let mut rng = SimRng::seed_from(0x0703);
        let mut net = NetworkGraph::new();
        let access = net.add_link(1e9);
        let backbone = net.add_link(6e8);
        let groups: Vec<RouteId> = (0..4)
            .map(|g| {
                let transit = net.add_link(2e7 * (g + 1) as f64);
                net.add_route(&[transit, backbone, access])
            })
            .collect();
        // Persistent cross traffic on the first group's transit.
        let cross = net.add_route(&[LinkId(2)]);
        for k in 0..8u64 {
            net.start_flow(
                FlowId(1 << 62 | k),
                cross,
                f64::INFINITY,
                250_000.0,
                SimTime::ZERO,
            );
        }
        let n = 10_000u64;
        let mut now = SimTime::ZERO;
        for id in 0..n {
            now += SimDuration::from_micros(rng.uniform_u64(0, 200));
            net.start_flow(
                FlowId(id),
                groups[(id % 4) as usize],
                rng.uniform(10_000.0, 1e6),
                random_cap(&mut rng),
                now,
            );
        }
        let mut completions: Vec<(u64, u64)> = Vec::with_capacity(n as usize);
        while let Some((t, id)) = net.next_completion(now) {
            now = now.max(t);
            net.finish_flow(id, now);
            completions.push((t.as_micros(), id.0));
        }
        (completions, net.link_bytes_transferred(access).to_bits())
    };
    let (completions_a, bytes_a) = run();
    let (completions_b, bytes_b) = run();
    assert_eq!(completions_a.len(), 10_000, "cross traffic never completes");
    assert_eq!(
        completions_a, completions_b,
        "completion sequence must be bit-stable"
    );
    assert_eq!(bytes_a, bytes_b, "byte accounting must be bit-stable");
    assert!(completions_a.windows(2).all(|w| w[0].0 <= w[1].0));
}

/// A 4-group star with a backbone and persistent cross traffic on group
/// 0's transit, as the WAN surveys run it, with the routes new flows take
/// in turn.  Cross-traffic ids are shifted by `offset`.
fn star_with_cross_traffic(offset: u64) -> (NetworkGraph, Vec<RouteId>) {
    let spec = mfc_topology::TopologySpec::star(&[8e5, 5e6, 5e6, 5e6])
        .with_backbone(1.2e7)
        .with_cross_traffic(0, 3, 150_000.0);
    let built = spec.build(1.5e7);
    let mut net = built.graph;
    for (k, &(route, count, rate)) in built.cross.iter().enumerate() {
        for j in 0..u64::from(count) {
            let id = FlowId(offset + (1 << 40) + 100 * k as u64 + j);
            net.start_flow(id, route, f64::INFINITY, rate, SimTime::ZERO);
        }
    }
    let mut routes = built.group_routes;
    routes.push(built.background_route);
    (net, routes)
}

/// Drives one seeded flow sequence through `net`, new flows taking
/// `routes` in turn, with every flow id shifted by `offset`, and records
/// what the graph reports with the shift taken back out: completions
/// (time, id, leftover bits), early finishes, rates, and every link's byte
/// count.
fn run_shifted(
    (mut net, routes): (NetworkGraph, Vec<RouteId>),
    offset: u64,
    seed: u64,
) -> Vec<(u64, u64, u64)> {
    let mut rng = SimRng::seed_from(seed);
    let mut log = Vec::new();
    let mut active: Vec<u64> = Vec::new();
    let mut now = SimTime::ZERO;
    for op in 0..400u64 {
        match rng.index(9) {
            0..=3 => {
                let bytes = if rng.chance(0.05) {
                    0.0
                } else {
                    rng.uniform(1_000.0, 2e6)
                };
                let (group, cap) = (rng.index(5), random_cap(&mut rng));
                let route = routes[group % routes.len()];
                net.start_flow(FlowId(offset + op), route, bytes, cap, now);
                active.push(op);
            }
            4 if !active.is_empty() => {
                let id = active.swap_remove(rng.index(active.len()));
                let left = net.finish_flow(FlowId(offset + id), now).expect("active");
                log.push((now.as_micros(), id, left.to_bits()));
            }
            _ => {
                let until = now + SimDuration::from_micros(rng.uniform_u64(0, 300_000));
                while let Some((t, id)) = net.next_completion(now).filter(|&(t, _)| t <= until) {
                    now = now.max(t);
                    let left = net.finish_flow(id, now).expect("completing flow is active");
                    let id = id.0 - offset;
                    active.retain(|&a| a != id);
                    log.push((t.as_micros(), id, left.to_bits()));
                }
                now = until;
            }
        }
        for &id in &active {
            let rate = net.current_rate(FlowId(offset + id)).expect("active");
            log.push((u64::MAX, id, rate.to_bits()));
        }
    }
    for link in 0..net.link_count() as u32 {
        let bits = net.link_bytes_transferred(LinkId(link)).to_bits();
        log.push((u64::MAX, u64::from(link), bits));
    }
    log
}

#[test]
fn sharing_cores_ignore_flow_id_values() {
    // Flows are found through an id hash map, and heap ties break on the
    // id; neither may let the ids' values reach a result.  The engine's
    // cross-traffic ids start at 1 << 62, so the same sequence runs with
    // small ids and with every id shifted there: completion times, order,
    // leftovers, rates and byte counts must agree bit for bit.
    const SHIFT: u64 = 1 << 62;
    for seed in 0..16u64 {
        let capacity = 1e6 + 2e5 * seed as f64;
        let one = || {
            let (net, route) = one_link(capacity);
            (net, vec![route])
        };
        let small = run_shifted(one(), 0, seed);
        let shifted = run_shifted(one(), SHIFT, seed);
        assert!(small.iter().any(|&(t, ..)| t != u64::MAX), "seed {seed}");
        assert_eq!(small, shifted, "one link, seed {seed}");

        let small = run_shifted(star_with_cross_traffic(0), 0, seed);
        let shifted = run_shifted(star_with_cross_traffic(SHIFT), SHIFT, seed);
        assert!(small.iter().any(|&(t, ..)| t != u64::MAX), "seed {seed}");
        assert_eq!(small, shifted, "star, seed {seed}");
    }
}

// -------------------------------------------------------------------
// TCP model.
// -------------------------------------------------------------------

#[test]
fn tcp_transfer_time_is_monotone_in_bytes() {
    let mut rng = SimRng::seed_from(0x0508);
    for _ in 0..CASES {
        let bytes_a = rng.uniform_u64(0, 50_000_000);
        let bytes_b = rng.uniform_u64(0, 50_000_000);
        let rtt = SimDuration::from_millis(rng.uniform_u64(1, 499));
        let rate = rng.uniform(1_000.0, 1e9);
        let tcp = TcpModel::default();
        let (small, large) = if bytes_a <= bytes_b {
            (bytes_a, bytes_b)
        } else {
            (bytes_b, bytes_a)
        };
        assert!(tcp.transfer_time(small, rtt, rate) <= tcp.transfer_time(large, rtt, rate));
    }
}

// -------------------------------------------------------------------
// Synchronization scheduling arithmetic.
// -------------------------------------------------------------------

#[test]
fn compensated_commands_arrive_exactly_at_the_lead_when_latencies_hold() {
    let mut rng = SimRng::seed_from(0x0509);
    for _ in 0..CASES {
        let n = rng.index(60) + 1;
        let latencies: Vec<ClientLatency> = (0..n)
            .map(|i| ClientLatency {
                client: ClientId(i as u32),
                coordinator_rtt: SimDuration::from_millis(rng.uniform_u64(1, 399)),
                target_rtt: SimDuration::from_millis(rng.uniform_u64(1, 399)),
            })
            .collect();
        let lead = SimDuration::from_secs(rng.uniform_u64(2, 59));
        let scheduler = SyncScheduler::simultaneous(lead);
        for command in scheduler.schedule(&latencies) {
            let latency = latencies
                .iter()
                .find(|l| l.client == command.client)
                .unwrap();
            let compensation =
                latency.coordinator_rtt.mul_f64(0.5) + latency.target_rtt.mul_f64(1.5);
            // With a lead of at least 2 s and RTTs under 400 ms the offset
            // never saturates, so send + compensation == lead exactly (up to
            // the microsecond rounding of the half-RTT terms).
            let arrival = command.send_offset + compensation;
            let diff = arrival
                .saturating_sub(lead)
                .max(lead.saturating_sub(arrival));
            assert!(diff <= SimDuration::from_micros(2), "diff {diff}");
        }
    }
}

#[test]
fn schedule_lands_the_planetlab_crowd_within_tolerance() {
    // End-to-end synchronization property: measure each client's RTTs the
    // way the coordinator does (one jittered sample each), schedule with
    // the paper's 15 s lead, then simulate the actual jittered delivery.
    // The planetlab population jitters each leg by ±3σ = ±12%, and the
    // measurement itself carries the same error, so the worst-case arrival
    // error is 0.5·RTTc·0.24 + 1.5·RTTt·0.24 ≈ 170 ms at the 350 ms RTT
    // ceiling.  Every request must land within that tolerance of the
    // intended instant — the property the whole epoch design rests on.
    let tolerance = SimDuration::from_millis(200);
    let lead = SimDuration::from_secs(15);
    let mut rng = SimRng::seed_from(0x0704);
    for case in 0..CASES {
        let mut wan = WideAreaModel::generate(
            &PopulationProfile::planetlab(),
            40,
            &SimRng::seed_from(0x0900 + case as u64),
        );
        let crowd = rng.index(35) + 5;
        let latencies: Vec<ClientLatency> = (0..crowd)
            .map(|i| ClientLatency {
                client: ClientId(i as u32),
                coordinator_rtt: wan.measure_coordinator_rtt(i),
                target_rtt: wan.measure_target_rtt(i),
            })
            .collect();
        let scheduler = SyncScheduler::simultaneous(lead);
        for command in scheduler.schedule(&latencies) {
            let index = command.client.0 as usize;
            let profile = wan.client(index).clone();
            // Command transit plus the 1.5·RTT handshake-to-first-byte, each
            // jittered independently of the measurement samples.
            let command_delay =
                wan.jittered_delay(profile.one_way_coordinator(), profile.jitter_frac);
            let handshake =
                wan.jittered_delay(profile.rtt_target.mul_f64(1.5), profile.jitter_frac);
            let actual = command.send_offset + command_delay + handshake;
            let miss = actual
                .saturating_sub(command.intended_arrival)
                .max(command.intended_arrival.saturating_sub(actual));
            assert!(
                miss <= tolerance,
                "case {case}: client {index} missed the arrival instant by {miss}"
            );
        }
    }
}

#[test]
fn staggered_schedule_preserves_spacing_and_order_under_random_latencies() {
    // The §6 staggered MFC: whatever the per-client latencies, the ladder
    // of intended arrivals must ascend in exact `spacing` steps, and when
    // the network behaves as measured the *actual* arrivals reproduce the
    // ladder — same order, same spacing (up to microsecond rounding).
    let mut rng = SimRng::seed_from(0x0705);
    for case in 0..CASES {
        let n = rng.index(40) + 2;
        let spacing = SimDuration::from_millis(rng.uniform_u64(1, 499));
        let lead = SimDuration::from_secs(15);
        let latencies: Vec<ClientLatency> = (0..n)
            .map(|i| ClientLatency {
                client: ClientId(i as u32),
                coordinator_rtt: SimDuration::from_millis(rng.uniform_u64(1, 399)),
                target_rtt: SimDuration::from_millis(rng.uniform_u64(1, 399)),
            })
            .collect();
        let commands = SyncScheduler::staggered(lead, spacing).schedule(&latencies);
        let arrivals: Vec<SimDuration> = commands
            .iter()
            .map(|command| {
                let latency = latencies
                    .iter()
                    .find(|l| l.client == command.client)
                    .unwrap();
                assert_eq!(
                    command.intended_arrival,
                    lead + spacing * (command.client.0 as u64),
                    "case {case}: ladder rung misplaced"
                );
                command.send_offset
                    + latency.coordinator_rtt.mul_f64(0.5)
                    + latency.target_rtt.mul_f64(1.5)
            })
            .collect();
        for (i, pair) in arrivals.windows(2).enumerate() {
            let gap = pair[1].saturating_sub(pair[0]);
            let error = gap.max(spacing).saturating_sub(gap.min(spacing));
            assert!(
                pair[1] > pair[0],
                "case {case}: rung {i} arrivals out of order"
            );
            assert!(
                error <= SimDuration::from_micros(2),
                "case {case}: rung {i} spacing drifted by {error}"
            );
        }
    }
}

#[test]
fn send_offset_never_exceeds_the_intended_arrival() {
    let mut rng = SimRng::seed_from(0x050a);
    for _ in 0..CASES {
        let latency = ClientLatency {
            client: ClientId(0),
            coordinator_rtt: SimDuration::from_millis(rng.uniform_u64(0, 2_000)),
            target_rtt: SimDuration::from_millis(rng.uniform_u64(0, 2_000)),
        };
        let lead = SimDuration::from_millis(rng.uniform_u64(0, 20_000));
        assert!(send_offset(&latency, lead) <= lead);
    }
}

// -------------------------------------------------------------------
// HTTP wire format round trips.
// -------------------------------------------------------------------

fn random_token(rng: &mut SimRng, alphabet: &[u8], max_len: usize) -> String {
    let len = rng.index(max_len + 1);
    (0..len)
        .map(|_| alphabet[rng.index(alphabet.len())] as char)
        .collect()
}

#[test]
fn http_request_head_round_trips() {
    let mut rng = SimRng::seed_from(0x050b);
    let path_chars = b"abcdefghijklmnopqrstuvwxyz0123456789/._-";
    let query_chars = b"abcdefghijklmnopqrstuvwxyz0123456789=&";
    for _ in 0..CASES {
        let path = format!("/{}", random_token(&mut rng, path_chars, 40));
        let target = if rng.chance(0.5) {
            let q = random_token(&mut rng, query_chars, 29);
            if q.is_empty() {
                path.clone()
            } else {
                format!("{path}?{q}")
            }
        } else {
            path.clone()
        };
        let header_value: String = (0..rng.index(61))
            .map(|_| (rng.uniform_u64(0x20, 0x7e) as u8) as char)
            .collect();
        let request = Request::new(Method::Get, target.clone(), "example.org")
            .with_header("x-prop", header_value.trim());
        let parsed = Request::read_from(&mut BufReader::new(&request.to_bytes()[..])).unwrap();
        assert_eq!(parsed.target, target);
        assert_eq!(parsed.method, Method::Get);
    }
}

#[test]
fn http_response_body_round_trips() {
    let mut rng = SimRng::seed_from(0x050c);
    for _ in 0..CASES {
        let body: Vec<u8> = (0..rng.index(4096))
            .map(|_| rng.uniform_u64(0, 255) as u8)
            .collect();
        let response = Response::new(StatusCode::OK, body.clone());
        let parsed = Response::read_from(
            &mut BufReader::new(&response.to_bytes(false)[..]),
            true,
            1 << 20,
        )
        .unwrap();
        assert_eq!(parsed.body, body);
        assert_eq!(parsed.status, StatusCode::OK);
    }
}

#[test]
fn url_parse_display_round_trips() {
    let mut rng = SimRng::seed_from(0x050d);
    let host_chars = b"abcdefghijklmnopqrstuvwxyz0123456789.-";
    let path_chars = b"abcdefghijklmnopqrstuvwxyz0123456789/._-";
    for _ in 0..CASES {
        let host = format!(
            "{}{}",
            (b'a' + rng.index(26) as u8) as char,
            random_token(&mut rng, host_chars, 20)
        );
        let port = rng.uniform_u64(1, u16::MAX as u64) as u16;
        let path = format!("/{}", random_token(&mut rng, path_chars, 30));
        let raw = format!("http://{host}:{port}{path}");
        let url = Url::parse(&raw).unwrap();
        let reparsed = Url::parse(&url.to_string()).unwrap();
        assert_eq!(url, reparsed);
    }
}

// -------------------------------------------------------------------
// Server engine sanity under arbitrary crowd sizes.
// -------------------------------------------------------------------

#[test]
fn engine_accounts_for_every_request() {
    let mut rng = SimRng::seed_from(0x050e);
    for _ in 0..CASES {
        let crowd = rng.index(59) + 1;
        let stagger_us = rng.uniform_u64(0, 49_999);
        let mut server = ServerCluster::new(
            ServerConfig::lab_apache(),
            ContentCatalog::lab_validation(),
            1,
        );
        let requests: Vec<ServerRequest> = (0..crowd)
            .map(|i| ServerRequest {
                id: i as u64,
                arrival: SimTime::from_micros(i as u64 * stagger_us),
                class: RequestClass::Head,
                object: Some(ObjectId::BASE_PAGE),
                client_downlink: 1e7,
                client_rtt: SimDuration::from_millis(40),
                client_addr: i as u32,
                background: false,
            })
            .collect();
        let result = server.run(requests, &mut NullControl);
        assert_eq!(result.outcomes.len(), crowd);
        for outcome in &result.outcomes {
            assert!(outcome.completion >= outcome.arrival);
        }
    }
}

// -------------------------------------------------------------------
// Workload generation: arrival streams hit their configured rates,
// heavy-tailed size specs are honoured, and stepping the cluster sweep's
// replica sessions never shows in a result.
// -------------------------------------------------------------------

#[test]
fn workload_arrival_streams_hit_their_configured_mean_rates() {
    use mfc_workload::{
        ArrivalProcess, ClientSpec, KindSampler, MixWeights, MmppState, WorkloadSpec,
        WorkloadStream,
    };
    let processes: Vec<ArrivalProcess> = vec![
        ArrivalProcess::Poisson { rate_per_sec: 6.0 },
        ArrivalProcess::diurnal(4.0, 0.8, 300.0, 12),
        ArrivalProcess::Mmpp {
            states: vec![
                MmppState {
                    rate_per_sec: 0.5,
                    mean_dwell_secs: 12.0,
                },
                MmppState {
                    rate_per_sec: 25.0,
                    mean_dwell_secs: 2.5,
                },
            ],
        },
        ArrivalProcess::FlashCrowd {
            base_rate: 1.0,
            peak_rate: 30.0,
            onset_secs: 200.0,
            ramp_secs: 40.0,
            hold_secs: 120.0,
            decay_secs: 40.0,
        },
    ];
    let start = SimTime::ZERO;
    let end = SimTime::ZERO + SimDuration::from_secs(6_000);
    for (index, process) in processes.into_iter().enumerate() {
        let expected = process.expected_count(start, end);
        let mut spec = WorkloadSpec::poisson_mix(0.0, MixWeights::default(), ClientSpec::default());
        // Swap the arrival process in (poisson_mix built the shell).
        spec.sources[0].arrivals = process;
        let master = SimRng::seed_from(0x0601 + index as u64);
        let count = WorkloadStream::new(&spec, start, end, 0, &master, KindSampler).count() as f64;
        assert!(
            (count - expected).abs() < 0.12 * expected.max(50.0),
            "process {index}: generated {count} arrivals, expected {expected}"
        );
    }
}

#[test]
fn tail_distribution_samples_match_the_spec_quantiles() {
    use mfc_workload::TailDistribution;
    let specs = [
        TailDistribution::Pareto {
            x_min: 20_000.0,
            alpha: 1.3,
        },
        TailDistribution::LogNormal {
            median: 30_000.0,
            sigma: 1.4,
        },
    ];
    for (index, sizes) in specs.iter().enumerate() {
        let mut rng = SimRng::seed_from(0x0611 + index as u64);
        let mut drawn: Vec<f64> = (0..4_000).map(|_| sizes.sample(&mut rng)).collect();
        drawn.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.25, 0.5, 0.75, 0.9] {
            let empirical = drawn[((drawn.len() - 1) as f64 * q) as usize];
            let analytic = sizes.quantile(q);
            assert!(
                (empirical - analytic).abs() < 0.12 * analytic,
                "spec {index} q{q}: empirical {empirical} vs analytic {analytic}"
            );
        }
        // The tail is genuinely heavy: the max dwarfs the median.
        assert!(drawn[drawn.len() - 1] > 10.0 * sizes.quantile(0.5));
    }
}

#[test]
fn streamed_engine_run_matches_the_batch_run() {
    use mfc_webserver::{CacheState, ServerEngine};

    // Arrivals spaced so no two events ever coincide: a session fed one
    // push at a time, stepped up to each arrival, must reproduce the
    // session given every push up front, outcome for outcome, and so must
    // a cluster of one replica swept over the same batch.
    let mut rng = SimRng::seed_from(0x0621);
    for _ in 0..16 {
        let crowd = rng.index(40) + 2;
        let engine =
            ServerEngine::new(ServerConfig::lab_apache(), ContentCatalog::lab_validation());
        let mut requests: Vec<ServerRequest> = (0..crowd)
            .map(|i| ServerRequest {
                id: i as u64,
                arrival: SimTime::from_micros(i as u64 * 10_000 + rng.uniform_u64(0, 7_919)),
                class: RequestClass::Head,
                object: Some(ObjectId::BASE_PAGE),
                client_downlink: 1e7,
                client_rtt: SimDuration::from_millis(40),
                client_addr: i as u32,
                background: false,
            })
            .collect();
        requests.sort_by_key(|r| r.arrival);

        let mut batch_session = engine.session(CacheState::new());
        for request in &requests {
            batch_session.push_request(*request);
        }
        let (batch, _) = batch_session.finish();

        let mut stream_session = engine.session(CacheState::new());
        for request in &requests {
            stream_session.run_until(request.arrival);
            stream_session.push_request(*request);
        }
        let (streamed, _) = stream_session.finish();
        assert_eq!(batch.outcomes, streamed.outcomes);

        let swept = ServerCluster::new(
            ServerConfig::lab_apache(),
            ContentCatalog::lab_validation(),
            1,
        )
        .run(requests, &mut NullControl);
        assert_eq!(batch.outcomes, swept.outcomes);
    }
}

#[test]
fn streamed_cluster_run_matches_the_batch_controlled_run() {
    let mut rng = SimRng::seed_from(0x0622);
    for _ in 0..8 {
        let crowd = rng.index(30) + 2;
        let mut requests: Vec<ServerRequest> = (0..crowd)
            .map(|i| ServerRequest {
                id: i as u64,
                arrival: SimTime::from_micros(i as u64 * 15_000 + rng.uniform_u64(0, 9_973)),
                class: RequestClass::Head,
                object: Some(ObjectId::BASE_PAGE),
                client_downlink: 1e7,
                client_rtt: SimDuration::from_millis(40),
                client_addr: i as u32,
                background: false,
            })
            .collect();
        requests.sort_by_key(|r| r.arrival);
        let make = || {
            ServerCluster::new(
                ServerConfig::commercial_frontend(),
                ContentCatalog::typical_site(1),
                3,
            )
        };
        // The batch is a collected vector swept without a control; the
        // stream is produced lazily, one request at a time with no size
        // hint, and swept under a control that ticks every millisecond.
        let batch = make().run(requests.clone(), &mut NullControl);
        let mut pending = requests.into_iter();
        let stream = std::iter::from_fn(move || pending.next());
        let mut watcher = Watcher { ticks: 0 };
        let streamed = make().run(stream, &mut watcher);
        assert!(watcher.ticks > 0, "the watcher must have stepped the sweep");
        assert_eq!(batch.outcomes, streamed.outcomes);
        assert_eq!(batch.utilization, streamed.utilization);
    }
}

/// Ticks every millisecond and never acts: under it the sweep steps every
/// replica session once per millisecond of the run.
struct Watcher {
    ticks: u64,
}

impl mfc_webserver::ServerControl for Watcher {
    fn tick_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_millis(1))
    }

    fn on_arrival(
        &mut self,
        _now: SimTime,
        _request: &ServerRequest,
    ) -> mfc_webserver::AdmissionVerdict {
        mfc_webserver::AdmissionVerdict::Accept
    }

    fn on_tick(&mut self, _now: SimTime, _sample: &mfc_webserver::TickSample) -> Option<usize> {
        self.ticks += 1;
        None
    }
}

#[test]
fn cluster_sweep_matches_per_replica_sessions_under_coincident_events() {
    use std::collections::HashMap;

    use mfc_webserver::{CacheState, ServerEngine, UtilizationReport};

    // Bursts of identical requests on a 1 ms grid: arrivals coincide with
    // each other and with the watcher's ticks, and identical requests
    // routed to one replica finish their CPU work and transfers together.
    // The sweep must match (a) each replica's share pushed into its own
    // session and finished, and (b) itself stepped every millisecond.
    let config = ServerConfig::lab_apache();
    let catalog = ContentCatalog::lab_validation();
    let shapes = [
        (RequestClass::Head, "/index.html"),
        (RequestClass::Static, "/objects/large_100k.bin"),
        (RequestClass::Dynamic, "/cgi/stats?table=t1"),
    ];
    let mut rng = SimRng::seed_from(0x0623);
    let mut coincident_completions = 0usize;
    for _ in 0..24 {
        let replicas = rng.index(4) + 1;
        let mut requests: Vec<ServerRequest> = Vec::new();
        let mut at_ms = 0u64;
        while requests.len() < replicas * 6 {
            let (class, path) = shapes[rng.index(shapes.len())];
            let background = rng.index(4) == 0;
            for _ in 0..rng.index(2 * replicas) + 1 {
                requests.push(ServerRequest {
                    id: requests.len() as u64,
                    arrival: SimTime::ZERO + SimDuration::from_millis(at_ms),
                    class,
                    object: catalog.resolve(path),
                    client_downlink: 1e7,
                    client_rtt: SimDuration::from_millis(40),
                    client_addr: 7,
                    background,
                });
            }
            at_ms += rng.uniform_u64(0, 3);
        }

        let sweep = |control: &mut dyn mfc_webserver::ServerControl| {
            ServerCluster::new(config.clone(), catalog.clone(), replicas)
                .run(requests.clone(), control)
        };
        let quiet = sweep(&mut NullControl);
        let mut watcher = Watcher { ticks: 0 };
        let stepped = sweep(&mut watcher);
        assert!(watcher.ticks > 0, "the watcher must have stepped the sweep");

        let engine = ServerEngine::new(config.clone(), catalog.clone());
        let mut sessions: Vec<_> = (0..replicas)
            .map(|_| engine.session(CacheState::new()))
            .collect();
        // Ids follow arrival order from 0, so the cluster's rotation puts
        // request `id` on replica `id % replicas`.
        for request in &requests {
            sessions[request.id as usize % replicas].push_request(*request);
        }
        let parts: Vec<_> = sessions.into_iter().map(|s| s.finish().0).collect();
        let by_id: HashMap<u64, _> = parts
            .iter()
            .flat_map(|part| &part.outcomes)
            .map(|o| (o.id, o.clone()))
            .collect();
        let outcomes: Vec<_> = requests.iter().map(|r| by_id[&r.id].clone()).collect();
        let utilization = UtilizationReport::merge(parts.iter().map(|part| &part.utilization));

        for run in [&quiet, &stepped] {
            assert_eq!(run.outcomes, outcomes);
            assert_eq!(run.utilization, utilization);
        }
        let mut completions: Vec<_> = outcomes.iter().map(|o| o.completion).collect();
        let total = completions.len();
        completions.sort();
        completions.dedup();
        coincident_completions += total - completions.len();
    }
    assert!(
        coincident_completions > 0,
        "the cases must include coincident completions"
    );
}

/// Sheds and throttles at random, from its own seeded stream, so a clone
/// replays the same decisions.  Its ticks step the sweep and change
/// nothing.
#[derive(Clone)]
struct Meddler {
    rng: SimRng,
}

impl mfc_webserver::ServerControl for Meddler {
    fn tick_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_millis(7))
    }

    fn on_arrival(
        &mut self,
        _now: SimTime,
        _request: &ServerRequest,
    ) -> mfc_webserver::AdmissionVerdict {
        use mfc_webserver::AdmissionVerdict;
        match self.rng.index(10) {
            0 => AdmissionVerdict::Shed,
            1 => AdmissionVerdict::Throttle(self.rng.uniform(20_000.0, 400_000.0)),
            _ => AdmissionVerdict::Accept,
        }
    }

    fn on_tick(&mut self, _now: SimTime, _sample: &mfc_webserver::TickSample) -> Option<usize> {
        None
    }
}

/// Scales the cluster to a fixed replica count at its first tick.
struct ScaleTo(usize);

impl mfc_webserver::ServerControl for ScaleTo {
    fn tick_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_millis(10))
    }

    fn on_arrival(
        &mut self,
        _now: SimTime,
        _request: &ServerRequest,
    ) -> mfc_webserver::AdmissionVerdict {
        mfc_webserver::AdmissionVerdict::Accept
    }

    fn on_tick(&mut self, _now: SimTime, _sample: &mfc_webserver::TickSample) -> Option<usize> {
        Some(self.0)
    }
}

#[test]
fn scaled_up_replicas_receive_later_arrivals() {
    // A one-replica cluster scales to four at its first tick (10 ms); the
    // static GETs arriving after it must rotate onto every new replica, so
    // each replica's object cache sees at least one lookup.
    let catalog = ContentCatalog::lab_validation();
    let requests: Vec<ServerRequest> = (0..40u64)
        .map(|i| ServerRequest {
            id: i,
            arrival: SimTime::ZERO + SimDuration::from_millis(5 * i),
            class: RequestClass::Static,
            object: catalog.resolve("/index.html"),
            client_downlink: 1e7,
            client_rtt: SimDuration::from_millis(40),
            client_addr: i as u32,
            background: false,
        })
        .collect();
    let mut cluster = ServerCluster::new(ServerConfig::lab_apache(), catalog, 1);
    let result = cluster.run(requests, &mut ScaleTo(4));
    assert!(result.outcomes.iter().all(|o| o.is_ok()));
    assert_eq!(cluster.active_replicas(), 4);
    let lookups: Vec<u64> = cluster
        .caches()
        .iter()
        .map(|cache| {
            let (hits, misses) = cache.object_stats();
            hits + misses
        })
        .collect();
    assert_eq!(lookups.len(), 4);
    assert!(
        lookups.iter().all(|&n| n > 0),
        "lookups per replica: {lookups:?}"
    );
    assert_eq!(lookups.iter().sum::<u64>(), 40);
}

#[test]
fn a_reused_session_matches_a_newly_built_one() {
    use mfc_simnet::mbps;

    // A cluster keeps its finished sessions' buffers and reuses them in
    // the next run.  Before every run, a clone of the cluster is given the
    // same topology again, which drops the kept buffers, so its sessions
    // are built new from the same caches and replica count.  Both must
    // report the same run.
    let topologies = [
        TopologySpec::direct(),
        TopologySpec::star(&[mbps(4.0), mbps(20.0), mbps(20.0)])
            .with_backbone(mbps(30.0))
            .with_cross_traffic(0, 3, 100_000.0),
    ];
    let catalog = ContentCatalog::typical_site(5);
    let paths: Vec<String> = std::iter::once(catalog.base_page())
        .chain(catalog.objects())
        .map(|o| o.path.clone())
        .chain(["/no/such/page".to_string()])
        .collect();
    let mut rng = SimRng::seed_from(0x0B0F);
    let (mut shed, mut throttled, mut served) = (0, 0, 0);
    for case in 0..32 {
        let replicas = [1, 3][case % 2];
        let topology = topologies[case / 2 % 2].clone();
        let config = ServerConfig {
            access_link: mbps(8.0),
            ..ServerConfig::lab_apache()
        };
        let mut cluster =
            ServerCluster::new(config, catalog.clone(), replicas).with_topology(topology.clone());
        let mut control = Meddler {
            rng: SimRng::seed_from(case as u64),
        };
        let mut start_ms = 0u64;
        for run in 0..6 {
            let mut requests = Vec::new();
            let mut at_us = start_ms * 1_000;
            for id in 0..rng.index(40) {
                let path = &paths[rng.index(paths.len())];
                let class = match rng.index(3) {
                    0 => RequestClass::Head,
                    _ if path.contains('?') => RequestClass::Dynamic,
                    _ => RequestClass::Static,
                };
                requests.push(ServerRequest {
                    id: id as u64,
                    arrival: SimTime::from_micros(at_us),
                    class,
                    object: catalog.resolve(path),
                    client_downlink: rng.uniform(100_000.0, 5e6),
                    client_rtt: SimDuration::from_millis(rng.uniform_u64(5, 120)),
                    client_addr: rng.index(16) as u32,
                    background: rng.chance(0.3),
                });
                at_us += rng.uniform_u64(0, 20_000);
            }
            start_ms += rng.uniform_u64(0, 5_000);

            let mut fresh = cluster.clone().with_topology(topology.clone());
            let expected = fresh.run(requests.clone(), &mut control.clone());
            let result = cluster.run(requests, &mut control);
            let ctx = format!("case {case} run {run}");
            assert_eq!(result.outcomes, expected.outcomes, "{ctx}");
            assert_eq!(result.utilization, expected.utilization, "{ctx}");
            shed += result.utilization.shed_requests;
            throttled += result.utilization.throttled_requests;
            served += result.utilization.completed_requests;
        }
    }
    assert!(shed > 0 && throttled > 0 && served > 0);
}

#[test]
fn workload_stream_is_identical_across_trial_runner_thread_counts() {
    use mfc_core::runner::TrialRunner;
    use mfc_webserver::CatalogSampler;
    use mfc_workload::{ArrivalProcess, ClientSpec, SessionModel, WorkloadSpec, WorkloadStream};

    // The stream never observes thread context: generating the same spec
    // inside differently-sized trial-runner pools must be bit-identical.
    let generate = |threads: usize| -> Vec<String> {
        let runner = if threads == 1 {
            TrialRunner::serial()
        } else {
            TrialRunner::with_threads(threads)
        };
        runner.run(vec![0u8; 4], |trial, _| {
            let spec = WorkloadSpec::sessions(
                ArrivalProcess::diurnal(2.0, 0.7, 240.0, 8),
                SessionModel::browsing(),
                ClientSpec::default(),
            );
            let catalog = ContentCatalog::typical_site(3);
            let requests: Vec<ServerRequest> = WorkloadStream::new(
                &spec,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_secs(600),
                1_000,
                &SimRng::seed_from(trial as u64),
                CatalogSampler::background(&catalog),
            )
            .collect();
            format!("{requests:?}")
        })
    };
    assert_eq!(generate(1), generate(8));
}
