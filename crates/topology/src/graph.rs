//! Incremental max–min fair allocation over a multi-hop link graph.
//!
//! [`NetworkGraph`] is the simulator's one sharing core.  It shares a
//! *graph* of links: every flow traverses an ordered set of links (its
//! **route**) and additionally carries a private rate cap (its client
//! access link / TCP window).  A single access link is a graph of one link
//! and one route, and so is a CPU under processor sharing (capacity in
//! work units per second, every task capped at one core's speed).  The
//! allocation is the classic network max–min fairness computed by
//! progressive filling: all flow rates rise together; a flow freezes when
//! it hits its own cap or when any link on its route saturates; a
//! saturated link freezes every flow through it at the link's *water
//! level*.
//!
//! The per-event cost stays near O(L² · log C) for L links and C flows —
//! independent of the crowd size except through logarithms — by two ideas
//! applied at the route granularity:
//!
//! - **Water levels from cap multisets.**  Flows sharing a route are
//!   interchangeable up to their caps, so each route keeps its active
//!   flows' caps in a [`CapMultiset`].  A link's saturation level solves
//!   `Σ_routes demand_r(w) + frozen = C` where `demand_r(w)` is an
//!   O(log C) prefix query; the threshold cap is found by a monotone
//!   partition walk, never by touching flows individually.
//! - **Per-route virtual time.**  All unfrozen flows of one route run at
//!   the same rate (the water level of the route's bottleneck link), so
//!   one fair-share integral `V_r(t)` advances for the whole route and
//!   each flow finishes when `V_r` crosses its admission tag.  When the
//!   bottleneck *moves* to a different link the integral simply continues
//!   at the new rate — no per-flow state is rewritten.  Only flows that
//!   flip between the sharing and capped regimes (found at the tops of the
//!   route's two cap-ordered heaps, O(log C) each) are touched
//!   individually.
//!
//! [`super::NaiveNetwork`] retains the textbook progressive-filling
//! algorithm as the executable specification (one link included);
//! randomized property tests in `tests/properties.rs` assert the graph produces the same rates,
//! completion times and completion order under arbitrary
//! add/remove/cap-change/capacity-change/advance interleavings.
//!
//! Flows live in one `mfc_simnet::heap::FlowSlab` and each route orders
//! its flows in `IndexedHeap`s.  Repro artifacts stay
//! byte-identical across runs and thread counts because nothing depends on
//! a container's layout:
//!
//! - every heap top is the minimum under the `(key, FlowId)` total order,
//!   so completions are swept — and their bytes summed — in that order;
//! - a regime flip touches only the flipping flow, so the order in which
//!   flips are taken cannot change a result;
//! - the id→slot map is only probed, never iterated;
//! - routes and links are walked in id order, and the cap multisets are
//!   set-shaped treaps.

use std::sync::Arc;

use mfc_simcore::{SimDuration, SimTime};
use mfc_simnet::heap::{CapHeap, FinishHeap, FlowSlab};
use mfc_simnet::{Bandwidth, CapMultiset, FlowId};

/// Identifies one shared link in a [`NetworkGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Identifies one route (an ordered set of links flows traverse together).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouteId(pub u32);

/// Which sharing regime a flow is currently in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Regime {
    /// Rate = the route's water level; finishes when the route's
    /// fair-share integral reaches `v_finish`.
    Sharing { v_finish: f64 },
    /// Rate = own cap; `r_ref` bytes remained at `t_ref_secs`, fixing the
    /// absolute finish time while the flow stays capped.
    Capped {
        r_ref: f64,
        t_ref_secs: f64,
        finish_secs: f64,
    },
    /// No bytes left; waits for [`NetworkGraph::finish_flow`].
    Drained,
}

#[derive(Debug, Clone, Copy)]
struct Flow {
    route: RouteId,
    rate_cap: Bandwidth,
    regime: Regime,
}

#[derive(Debug, Clone)]
struct Link {
    /// The capacity the link was added with, restored by a reset.
    built_capacity: Bandwidth,
    capacity: Bandwidth,
    /// Routes traversing this link, in route-id order.
    routes: Vec<RouteId>,
    /// Current aggregate throughput across the link.
    agg_rate: f64,
    bytes_transferred: f64,
}

#[derive(Debug, Clone, Default)]
struct Route {
    /// The links the route traverses; fixed once added, so every clone of
    /// the graph shares them.
    links: Arc<[LinkId]>,
    /// Finite caps of this route's active (non-drained) flows.
    caps: CapMultiset,
    /// Active flows with an infinite cap.
    inf_count: u64,
    /// Fair-share integral for the route's sharing flows.
    vtime: f64,
    /// Water level of the route's bottleneck link; `f64::INFINITY` when no
    /// link on the route is saturated (every flow runs at its own cap).
    level: f64,
    /// The saturated link that sets `level`, for diagnostics.
    bottleneck: Option<LinkId>,
    /// Aggregate throughput of the route's active flows.
    agg_rate: f64,
    /// Sharing flows by virtual finish tag.
    sharing: FinishHeap,
    /// Finite-cap sharing flows, smallest cap first, for freezes.
    sharing_by_cap: CapHeap,
    /// Capped flows by absolute finish time.
    capped: FinishHeap,
    /// Capped flows, largest cap first (`!cap` bits), for unfreezes.
    capped_by_cap: CapHeap,
}

impl Route {
    fn active(&self) -> u64 {
        self.caps.len() + self.inf_count
    }

    /// `Σ min(capᵢ, level)` over the route's active flows — the bandwidth
    /// the route demands when its flows are filled to `level`.
    fn demand_at(&self, level: f64) -> f64 {
        debug_assert!(level >= 0.0 && level.is_finite());
        let (count, sum) = self.caps.prefix(level.to_bits());
        sum + level * (self.active() - count) as f64
    }
}

/// A multi-hop network of shared links with global max–min fair sharing.
///
/// # Examples
///
/// ```
/// use mfc_simcore::SimTime;
/// use mfc_simnet::{mbps, FlowId};
/// use mfc_topology::NetworkGraph;
///
/// // One thin transit link in front of a fat target access link.
/// let mut net = NetworkGraph::new();
/// let transit = net.add_link(mbps(8.0));
/// let access = net.add_link(mbps(80.0));
/// let behind = net.add_route(&[transit, access]);
/// let direct = net.add_route(&[access]);
///
/// let t0 = SimTime::ZERO;
/// net.start_flow(FlowId(1), behind, 1_000_000.0, f64::INFINITY, t0);
/// net.start_flow(FlowId(2), direct, 1_000_000.0, f64::INFINITY, t0);
/// // Flow 1 is pinned to the 1 MB/s transit link; flow 2 takes the rest
/// // of the access link.
/// assert_eq!(net.current_rate(FlowId(1)), Some(1_000_000.0));
/// assert_eq!(net.current_rate(FlowId(2)), Some(9_000_000.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetworkGraph {
    links: Vec<Link>,
    routes: Vec<Route>,
    flows: FlowSlab<Flow>,
    /// Flows with zero bytes remaining, completing "now"; keyed `0`, so
    /// they come out in id order.
    drained: FinishHeap,
    last_event: SimTime,
    scratch: Scratch,
}

/// Working buffers of [`NetworkGraph::reallocate`], kept between calls so a
/// flow event allocates nothing once they have grown to the graph's size.
/// Their contents mean nothing outside a reallocation.
#[derive(Debug, Default)]
struct Scratch {
    /// Fixed demand contributed to each link by routes frozen at lower
    /// levels.
    fixed: Vec<f64>,
    saturated: Vec<bool>,
    frozen: Vec<bool>,
    new_level: Vec<f64>,
    new_bottleneck: Vec<Option<LinkId>>,
    /// Indexes of the unfrozen routes through the link being examined.
    live: Vec<usize>,
}

impl Scratch {
    /// Resets every per-link and per-route buffer to its starting value.
    fn reset(&mut self, link_count: usize, route_count: usize) {
        fn fill<T: Clone>(buffer: &mut Vec<T>, len: usize, value: T) {
            buffer.clear();
            buffer.resize(len, value);
        }
        fill(&mut self.fixed, link_count, 0.0);
        fill(&mut self.saturated, link_count, false);
        fill(&mut self.frozen, route_count, false);
        fill(&mut self.new_level, route_count, f64::INFINITY);
        fill(&mut self.new_bottleneck, route_count, None);
    }
}

impl Clone for Scratch {
    /// A clone starts with empty buffers: copying them would only allocate.
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl NetworkGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        NetworkGraph::default()
    }

    /// Adds a shared link of the given capacity (bytes/s).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive and finite.
    pub fn add_link(&mut self, capacity: Bandwidth) -> LinkId {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "link capacity must be positive and finite, got {capacity}"
        );
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(Link {
            built_capacity: capacity,
            capacity,
            routes: Vec::new(),
            agg_rate: 0.0,
            bytes_transferred: 0.0,
        });
        id
    }

    /// Adds a route over the given links.  An empty route is allowed (the
    /// flow is limited only by its own cap) but such flows must carry a
    /// finite cap.
    ///
    /// # Panics
    ///
    /// Panics if any link id is unknown or appears twice.
    pub fn add_route(&mut self, links: &[LinkId]) -> RouteId {
        let id = RouteId(u32::try_from(self.routes.len()).expect("too many routes"));
        for (index, &link) in links.iter().enumerate() {
            assert!(
                (link.0 as usize) < self.links.len(),
                "route references unknown link {link:?}"
            );
            assert!(
                !links[..index].contains(&link),
                "route traverses {link:?} twice"
            );
            self.links[link.0 as usize].routes.push(id);
        }
        self.routes.push(Route {
            links: links.into(),
            level: f64::INFINITY,
            ..Route::default()
        });
        id
    }

    /// Returns the graph to the state [`Self::add_link`] and
    /// [`Self::add_route`] left it in: every link at the capacity it was
    /// added with, no flows, nothing transferred, the clock at zero.  The
    /// storage is kept, and no result depends on a container's layout (see
    /// the module docs), so a reset graph behaves exactly like a new one.
    pub fn reset(&mut self) {
        for link in &mut self.links {
            link.capacity = link.built_capacity;
            link.agg_rate = 0.0;
            link.bytes_transferred = 0.0;
        }
        for route in &mut self.routes {
            route.caps.clear();
            route.inf_count = 0;
            route.vtime = 0.0;
            route.level = f64::INFINITY;
            route.bottleneck = None;
            route.agg_rate = 0.0;
            route.sharing.clear();
            route.sharing_by_cap.clear();
            route.capped.clear();
            route.capped_by_cap.clear();
        }
        self.flows.clear();
        self.drained.clear();
        self.last_event = SimTime::ZERO;
    }

    /// Number of links in the graph.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of routes in the graph.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// The configured capacity of a link in bytes/s.
    pub fn link_capacity(&self, link: LinkId) -> Bandwidth {
        self.links[link.0 as usize].capacity
    }

    /// Current aggregate throughput across a link in bytes/s.
    pub fn link_utilization_bytes_per_sec(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].agg_rate
    }

    /// Total bytes drained through a link since construction.
    pub fn link_bytes_transferred(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].bytes_transferred
    }

    /// The saturated link currently limiting a route's sharing flows, or
    /// `None` when no link on the route is saturated.
    pub fn route_bottleneck(&self, route: RouteId) -> Option<LinkId> {
        self.routes[route.0 as usize].bottleneck
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Changes a link's capacity mid-run; in-flight flows keep their
    /// remaining bytes and the global allocation is recomputed.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive and finite.
    pub fn set_link_capacity(&mut self, link: LinkId, capacity: Bandwidth, now: SimTime) {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "link capacity must be positive and finite, got {capacity}"
        );
        self.advance(now);
        self.sweep_completed();
        self.links[link.0 as usize].capacity = capacity;
        self.reallocate();
    }

    /// Starts a transfer of `bytes` bytes over `route` at `now`, privately
    /// capped at `rate_cap` bytes/s.  `bytes` may be `f64::INFINITY` for a
    /// persistent (cross-traffic) flow that never completes.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is active, `bytes` is negative, or the route
    /// is empty and the cap is not finite.
    pub fn start_flow(
        &mut self,
        id: FlowId,
        route: RouteId,
        bytes: f64,
        rate_cap: Bandwidth,
        now: SimTime,
    ) {
        assert!(bytes >= 0.0, "flow size must be non-negative");
        self.advance(now);
        self.sweep_completed();
        let rate_cap = rate_cap.max(0.0);
        let r = &mut self.routes[route.0 as usize];
        assert!(
            !r.links.is_empty() || rate_cap.is_finite(),
            "a flow on an empty route must carry a finite cap"
        );
        if bytes <= 0.0 {
            let slot = self.flows.insert(
                id,
                Flow {
                    route,
                    rate_cap,
                    regime: Regime::Drained,
                },
            );
            self.drained.push(0, slot, &mut self.flows);
        } else {
            let v_finish = r.vtime + bytes;
            let slot = self.flows.insert(
                id,
                Flow {
                    route,
                    rate_cap,
                    regime: Regime::Sharing { v_finish },
                },
            );
            r.sharing.push(v_finish.to_bits(), slot, &mut self.flows);
            if rate_cap.is_finite() {
                r.caps.insert(rate_cap);
                r.sharing_by_cap
                    .push(rate_cap.to_bits(), slot, &mut self.flows);
            } else {
                r.inf_count += 1;
            }
        }
        self.reallocate();
    }

    /// Removes a flow, returning the bytes it had not yet transferred.
    pub fn finish_flow(&mut self, id: FlowId, now: SimTime) -> Option<f64> {
        self.advance(now);
        let slot = self.flows.slot_of(id)?;
        let flow = *self.flows.get(slot);
        let now_secs = self.last_event.as_secs_f64();
        let route = &mut self.routes[flow.route.0 as usize];
        let remaining = match flow.regime {
            Regime::Drained => {
                self.drained.remove(slot, &mut self.flows);
                0.0
            }
            Regime::Sharing { v_finish } => {
                route.sharing.remove(slot, &mut self.flows);
                if flow.rate_cap.is_finite() {
                    route.caps.remove(flow.rate_cap);
                    route.sharing_by_cap.remove(slot, &mut self.flows);
                } else {
                    route.inf_count -= 1;
                }
                let r = v_finish - route.vtime;
                if r < 0.0 {
                    // The caller advanced (at most a clock tick) past the
                    // exact finish; refund the over-charged bytes.
                    for &link in route.links.iter() {
                        self.links[link.0 as usize].bytes_transferred += r;
                    }
                }
                r.max(0.0)
            }
            Regime::Capped {
                r_ref, t_ref_secs, ..
            } => {
                route.capped.remove(slot, &mut self.flows);
                route.capped_by_cap.remove(slot, &mut self.flows);
                route.caps.remove(flow.rate_cap);
                let r = r_ref - flow.rate_cap * (now_secs - t_ref_secs);
                if r < 0.0 && r.is_finite() {
                    for &link in route.links.iter() {
                        self.links[link.0 as usize].bytes_transferred += r;
                    }
                }
                r.max(0.0)
            }
        };
        self.flows.remove(slot);
        self.sweep_completed();
        self.reallocate();
        Some(remaining)
    }

    /// Changes the private rate cap of an active flow.
    pub fn set_rate_cap(&mut self, id: FlowId, rate_cap: Bandwidth, now: SimTime) {
        self.advance(now);
        let Some(slot) = self.flows.slot_of(id) else {
            return;
        };
        self.sweep_completed();
        let flow = *self.flows.get(slot);
        let rate_cap = rate_cap.max(0.0);
        let route = &mut self.routes[flow.route.0 as usize];
        assert!(
            !route.links.is_empty() || rate_cap.is_finite(),
            "a flow on an empty route must carry a finite cap"
        );
        if flow.rate_cap.to_bits() == rate_cap.to_bits() {
            self.reallocate();
            return;
        }
        let now_secs = self.last_event.as_secs_f64();
        match flow.regime {
            Regime::Drained => {}
            Regime::Sharing { .. } => {
                if flow.rate_cap.is_finite() {
                    route.caps.remove(flow.rate_cap);
                    route.sharing_by_cap.remove(slot, &mut self.flows);
                } else {
                    route.inf_count -= 1;
                }
                if rate_cap.is_finite() {
                    route.caps.insert(rate_cap);
                    route
                        .sharing_by_cap
                        .push(rate_cap.to_bits(), slot, &mut self.flows);
                } else {
                    route.inf_count += 1;
                }
            }
            Regime::Capped {
                r_ref, t_ref_secs, ..
            } => {
                // Materialize the remaining bytes and re-enter as sharing;
                // the reallocation below re-freezes the flow if its new cap
                // is still under the route's water level.
                route.caps.remove(flow.rate_cap);
                route.capped.remove(slot, &mut self.flows);
                route.capped_by_cap.remove(slot, &mut self.flows);
                let r = r_ref - flow.rate_cap * (now_secs - t_ref_secs);
                let v_finish = route.vtime + r.max(0.0);
                route
                    .sharing
                    .push(v_finish.to_bits(), slot, &mut self.flows);
                if rate_cap.is_finite() {
                    route.caps.insert(rate_cap);
                    route
                        .sharing_by_cap
                        .push(rate_cap.to_bits(), slot, &mut self.flows);
                } else {
                    route.inf_count += 1;
                }
                self.flows.get_mut(slot).regime = Regime::Sharing { v_finish };
            }
        }
        self.flows.get_mut(slot).rate_cap = rate_cap;
        self.reallocate();
    }

    /// Advances the fluid model to `now`: per-link bytes drain in aggregate
    /// and each route's fair-share integral moves forward.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_event {
            return;
        }
        let elapsed = (now - self.last_event).as_secs_f64();
        for link in &mut self.links {
            link.bytes_transferred += link.agg_rate * elapsed;
        }
        for route in &mut self.routes {
            if !route.sharing.is_empty() && route.level.is_finite() {
                route.vtime += route.level * elapsed;
            }
        }
        self.last_event = now;
    }

    /// The earliest completion if nothing else changes, or `None` when no
    /// active flow has both bytes remaining and a positive rate.
    ///
    /// Pure: does not advance the model.  Completion times are absolute, so
    /// the answer is stable between mutations regardless of how far the
    /// caller's clock has moved.
    pub fn peek_completion(&self) -> Option<(SimTime, FlowId)> {
        let mut best: Option<(SimTime, FlowId)> = None;
        let mut consider = |candidate: (SimTime, FlowId)| {
            best = Some(match best {
                Some(b) if b <= candidate => b,
                _ => candidate,
            });
        };
        if let Some(top) = self.drained.peek() {
            consider((self.last_event, top.id));
        }
        for route in &self.routes {
            if let Some(top) = route.sharing.peek() {
                let v_finish = f64::from_bits(top.key);
                if v_finish <= route.vtime {
                    consider((self.last_event, top.id));
                } else {
                    let secs = (v_finish - route.vtime) / route.level;
                    if secs.is_finite() {
                        consider((self.last_event + ceil_micros(secs), top.id));
                    }
                }
            }
            if let Some(top) = route.capped.peek() {
                let finish_secs = f64::from_bits(top.key);
                if finish_secs.is_finite() {
                    let t = SimTime::from_micros((finish_secs * 1_000_000.0).ceil() as u64)
                        .max(self.last_event);
                    consider((t, top.id));
                }
            }
        }
        best
    }

    /// [`Self::peek_completion`] after advancing the model to `now`.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, FlowId)> {
        self.advance(now);
        self.peek_completion()
    }

    /// Remaining bytes for a flow, if it is active.
    pub fn remaining_bytes(&self, id: FlowId) -> Option<f64> {
        let flow = self.flows.get(self.flows.slot_of(id)?);
        let route = &self.routes[flow.route.0 as usize];
        Some(match flow.regime {
            Regime::Drained => 0.0,
            Regime::Sharing { v_finish } => (v_finish - route.vtime).max(0.0),
            Regime::Capped {
                r_ref, t_ref_secs, ..
            } => (r_ref - flow.rate_cap * (self.last_event.as_secs_f64() - t_ref_secs)).max(0.0),
        })
    }

    /// The rate currently allocated to a flow in bytes/s, if it is active.
    pub fn current_rate(&self, id: FlowId) -> Option<Bandwidth> {
        let flow = self.flows.get(self.flows.slot_of(id)?);
        Some(match flow.regime {
            Regime::Drained => 0.0,
            Regime::Sharing { .. } => self.routes[flow.route.0 as usize].level,
            Regime::Capped { .. } => flow.rate_cap,
        })
    }

    /// Moves flows that already finished into the drained state, releasing
    /// their share (the lazy analogue of progressive filling's
    /// `remaining > 0` filter).
    fn sweep_completed(&mut self) {
        let now_secs = self.last_event.as_secs_f64();
        for route in &mut self.routes {
            while let Some(top) = route.sharing.peek() {
                let v_finish = f64::from_bits(top.key);
                if v_finish > route.vtime {
                    break;
                }
                route.sharing.pop(&mut self.flows);
                let flow = *self.flows.get(top.slot);
                if flow.rate_cap.is_finite() {
                    route.caps.remove(flow.rate_cap);
                    route.sharing_by_cap.remove(top.slot, &mut self.flows);
                } else {
                    route.inf_count -= 1;
                }
                let over = v_finish - route.vtime;
                if over < 0.0 {
                    for &link in route.links.iter() {
                        self.links[link.0 as usize].bytes_transferred += over;
                    }
                }
                self.flows.get_mut(top.slot).regime = Regime::Drained;
                self.drained.push(0, top.slot, &mut self.flows);
            }
            while let Some(top) = route.capped.peek() {
                let finish_secs = f64::from_bits(top.key);
                if finish_secs > now_secs {
                    break;
                }
                route.capped.pop(&mut self.flows);
                let flow = *self.flows.get(top.slot);
                route.caps.remove(flow.rate_cap);
                route.capped_by_cap.remove(top.slot, &mut self.flows);
                if let Regime::Capped {
                    r_ref, t_ref_secs, ..
                } = flow.regime
                {
                    let over = r_ref - flow.rate_cap * (now_secs - t_ref_secs);
                    if over < 0.0 {
                        for &link in route.links.iter() {
                            self.links[link.0 as usize].bytes_transferred += over;
                        }
                    }
                }
                self.flows.get_mut(top.slot).regime = Regime::Drained;
                self.drained.push(0, top.slot, &mut self.flows);
            }
        }
    }

    /// Recomputes the global max–min allocation after a structural change
    /// and flips flows whose regime changed.
    ///
    /// Water-filling over links in saturation order: each round finds the
    /// unsaturated link with the lowest saturation level (an O(log C)
    /// partition walk per route on the link), saturates it, and freezes the
    /// routes through it; frozen routes contribute a fixed demand to their
    /// other links.  At most `L` rounds, so the whole pass costs
    /// O(L² · R_ℓ · log² C) plus O(log C) per flow that actually flips.
    fn reallocate(&mut self) {
        // Degenerate graph (one link, one route): the allocation is a single
        // water-level query — skip the round machinery.  Every CPU and every
        // direct `TopologySpec` access link runs this shape on each flow
        // event, so it must stay O(log C).
        if self.links.len() == 1 && self.routes.len() == 1 {
            let route = &self.routes[0];
            // An infinite level means spare capacity: every flow saturates
            // its own cap and the link is no bottleneck.
            let level = if route.active() == 0 {
                f64::INFINITY
            } else {
                route
                    .caps
                    .water_level(self.links[0].capacity, route.active())
            };
            self.apply_levels(&[level], &[level.is_finite().then_some(LinkId(0))]);
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.reset(self.links.len(), self.routes.len());
        let Scratch {
            fixed,
            saturated,
            frozen,
            new_level,
            new_bottleneck,
            live,
        } = &mut scratch;
        // Routes with no active flows are permanently frozen at ∞ so they
        // never contribute demand.
        for (index, route) in self.routes.iter().enumerate() {
            if route.active() == 0 {
                frozen[index] = true;
            }
        }

        loop {
            let mut best: Option<(f64, usize)> = None;
            for (link_index, link) in self.links.iter().enumerate() {
                if saturated[link_index] {
                    continue;
                }
                live.clear();
                live.extend(
                    link.routes
                        .iter()
                        .map(|r| r.0 as usize)
                        .filter(|&r| !frozen[r]),
                );
                if live.is_empty() {
                    continue;
                }
                let routes = &self.routes;
                let live_routes = || live.iter().map(|&r| &routes[r]);
                // A link whose total demand never reaches its capacity
                // cannot saturate.
                let inf_any = live_routes().any(|r| r.inf_count > 0);
                if !inf_any {
                    let total: f64 = live_routes().map(|r| r.caps.sum()).sum();
                    if fixed[link_index] + total <= link.capacity {
                        continue;
                    }
                }
                // Largest cap that stays saturated at the link's level: the
                // predicate "Σ demand(c) ≤ C" is monotone in c, so walk each
                // route's cap treap and keep the global maximum.
                let capacity = link.capacity;
                let fixed_in = fixed[link_index];
                let pred = |c: f64| {
                    let demand: f64 = live_routes().map(|r| r.demand_at(c)).sum();
                    fixed_in + demand <= capacity
                };
                let mut threshold: Option<u64> = None;
                for route in live_routes() {
                    if let Some(bits) = route.caps.partition_max(pred) {
                        threshold = Some(match threshold {
                            Some(t) => t.max(bits),
                            None => bits,
                        });
                    }
                }
                let (sat_count, sat_sum) = match threshold {
                    Some(bits) => live_routes().fold((0u64, 0.0f64), |(c, s), r| {
                        let (rc, rs) = r.caps.prefix(bits);
                        (c + rc, s + rs)
                    }),
                    None => (0, 0.0),
                };
                let total_active: u64 = live_routes().map(|r| r.active()).sum();
                let unsat = total_active - sat_count;
                if unsat == 0 {
                    // Every flow through the link is frozen at its cap below
                    // the capacity; the link has headroom and never binds.
                    continue;
                }
                let level = ((capacity - fixed_in - sat_sum) / unsat as f64).max(0.0);
                match best {
                    Some((b, _)) if b <= level => {}
                    _ => best = Some((level, link_index)),
                }
            }
            let Some((level, link_index)) = best else {
                break;
            };
            saturated[link_index] = true;
            for &route_id in &self.links[link_index].routes {
                let index = route_id.0 as usize;
                if frozen[index] {
                    continue;
                }
                frozen[index] = true;
                new_level[index] = level;
                new_bottleneck[index] = Some(LinkId(link_index as u32));
                let demand = self.routes[index].demand_at(level);
                for &other in self.routes[index].links.iter() {
                    if other.0 as usize != link_index {
                        fixed[other.0 as usize] += demand;
                    }
                }
            }
        }

        self.apply_levels(&scratch.new_level, &scratch.new_bottleneck);
        self.scratch = scratch;
    }

    /// Applies freshly computed per-route water levels: flips flows
    /// crossing their route's level and refreshes the aggregate rates.
    fn apply_levels(&mut self, new_level: &[f64], new_bottleneck: &[Option<LinkId>]) {
        let now_secs = self.last_event.as_secs_f64();
        for (index, route) in self.routes.iter_mut().enumerate() {
            route.level = new_level[index];
            route.bottleneck = new_bottleneck[index];
            let level_bits = new_level[index].to_bits();

            // Capped flows whose cap rose above the (lowered) level go back
            // to sharing, largest cap first.  A flip touches only its own
            // flow, so the order is immaterial.
            while let Some(top) = route.capped_by_cap.peek() {
                let cap_bits = !top.key;
                if cap_bits <= level_bits {
                    break;
                }
                route.capped_by_cap.pop(&mut self.flows);
                let flow = self.flows.get_mut(top.slot);
                let Regime::Capped {
                    r_ref, t_ref_secs, ..
                } = flow.regime
                else {
                    unreachable!("capped index points at a non-capped flow");
                };
                let remaining = r_ref - flow.rate_cap * (now_secs - t_ref_secs);
                let v_finish = route.vtime + remaining;
                flow.regime = Regime::Sharing { v_finish };
                route.capped.remove(top.slot, &mut self.flows);
                route
                    .sharing
                    .push(v_finish.to_bits(), top.slot, &mut self.flows);
                route
                    .sharing_by_cap
                    .push(cap_bits, top.slot, &mut self.flows);
            }

            // Sharing flows whose cap sank to or below the level freeze at
            // their cap, smallest cap first (an infinite level freezes every
            // finite-cap flow).
            while let Some(top) = route.sharing_by_cap.peek() {
                if top.key > level_bits {
                    break;
                }
                route.sharing_by_cap.pop(&mut self.flows);
                let flow = self.flows.get_mut(top.slot);
                let Regime::Sharing { v_finish } = flow.regime else {
                    unreachable!("sharing index points at a non-sharing flow");
                };
                let r_ref = v_finish - route.vtime;
                let finish_secs = now_secs + r_ref / flow.rate_cap;
                flow.regime = Regime::Capped {
                    r_ref,
                    t_ref_secs: now_secs,
                    finish_secs,
                };
                route.sharing.remove(top.slot, &mut self.flows);
                route
                    .capped
                    .push(finish_secs.to_bits(), top.slot, &mut self.flows);
                route
                    .capped_by_cap
                    .push(!top.key, top.slot, &mut self.flows);
            }

            debug_assert!(
                route.level.is_finite() || route.inf_count == 0,
                "an uncapped flow on an unsaturated route has unbounded rate"
            );
            route.agg_rate = if route.active() == 0 {
                0.0
            } else if route.level.is_finite() {
                route.demand_at(route.level)
            } else {
                route.caps.sum()
            };
        }
        for link in &mut self.links {
            link.agg_rate = link
                .routes
                .iter()
                .map(|r| self.routes[r.0 as usize].agg_rate)
                .sum();
        }
    }
}

/// Rounds a span of seconds *up* to the clock's microsecond resolution so
/// that advancing to the reported completion time always drains the flow
/// completely.
fn ceil_micros(secs: f64) -> SimDuration {
    SimDuration::from_micros((secs * 1_000_000.0).ceil().max(0.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveNetwork;
    use mfc_simnet::mbps;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    /// A star: per-group transit links feeding one target access link.
    fn star(transits: &[f64], access: f64) -> (NetworkGraph, Vec<RouteId>, LinkId) {
        let mut net = NetworkGraph::new();
        let access_id = net.add_link(access);
        let routes = transits
            .iter()
            .map(|&c| {
                let transit = net.add_link(c);
                net.add_route(&[transit, access_id])
            })
            .collect();
        (net, routes, access_id)
    }

    /// One link carrying one route, the shape of every CPU and direct
    /// access link.
    fn one_link(capacity: f64) -> (NetworkGraph, RouteId, LinkId) {
        let mut net = NetworkGraph::new();
        let link = net.add_link(capacity);
        let route = net.add_route(&[link]);
        (net, route, link)
    }

    /// Starts, resizes and finishes a mix of capped and uncapped flows on
    /// `routes`, and returns every completion with the links' byte counts.
    fn replay(net: &mut NetworkGraph, routes: &[RouteId]) -> Vec<(SimTime, FlowId, u64)> {
        for id in 0..24u64 {
            let cap = [f64::INFINITY, 40_000.0, 300_000.0][id as usize % 3];
            let route = routes[id as usize % routes.len()];
            net.start_flow(
                FlowId(id),
                route,
                20_000.0 * (1 + id % 5) as f64,
                cap,
                t(0.01 * id as f64),
            );
        }
        net.set_link_capacity(LinkId(0), 400_000.0, t(0.3));
        let mut log = Vec::new();
        let mut now = t(0.3);
        while let Some((time, id)) = net.next_completion(now) {
            now = now.max(time);
            net.finish_flow(id, now);
            log.push((time, id, net.link_bytes_transferred(LinkId(0)).to_bits()));
        }
        log
    }

    #[test]
    fn a_reset_graph_replays_like_a_new_one() {
        let (mut used, routes, _) = star(&[200_000.0, 900_000.0], 1_000_000.0);
        let first = replay(&mut used, &routes);
        // Leave flows in flight and the access link resized, then reset.
        used.start_flow(FlowId(99), routes[0], 1e9, 50_000.0, t(5.0));
        used.set_link_capacity(LinkId(0), 10_000.0, t(5.5));
        used.reset();
        assert_eq!(used.active_flows(), 0);
        assert_eq!(used.link_capacity(LinkId(0)), 1_000_000.0);
        assert_eq!(used.link_bytes_transferred(LinkId(0)), 0.0);
        assert_eq!(replay(&mut used, &routes), first);
    }

    #[test]
    fn single_link_behaves_like_a_fluid_link() {
        let (mut net, route, link) = one_link(1_000_000.0);
        net.start_flow(FlowId(1), route, 500_000.0, f64::INFINITY, t(0.0));
        net.start_flow(FlowId(2), route, 500_000.0, f64::INFINITY, t(0.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(500_000.0));
        let (done, id) = net.peek_completion().unwrap();
        assert_eq!(id, FlowId(1));
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((net.link_utilization_bytes_per_sec(link) - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn one_link_flips_follow_arrivals_and_departures() {
        let (mut net, route, _) = one_link(1_000_000.0);
        // A 300 KB/s-capped flow alone runs at its cap.
        net.start_flow(FlowId(1), route, 1e7, 300_000.0, t(0.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(300_000.0));
        // Three uncapped flows drop the level to 250 KB/s: flow 1 shares.
        for i in 2..=4 {
            net.start_flow(FlowId(i), route, 1e7, f64::INFINITY, t(0.0));
        }
        assert!((net.current_rate(FlowId(1)).unwrap() - 250_000.0).abs() < 1e-6);
        // Without them flow 1 goes back to its cap.
        for i in 2..=4 {
            net.finish_flow(FlowId(i), t(0.0));
        }
        assert_eq!(net.current_rate(FlowId(1)), Some(300_000.0));
    }

    #[test]
    fn redundant_cap_change_still_releases_a_drained_flows_share() {
        let (mut net, route, link) = one_link(1_000_000.0);
        net.start_flow(FlowId(1), route, 1e6, f64::INFINITY, t(0.0));
        net.start_flow(FlowId(2), route, 1e7, 500_000.0, t(0.0));
        // Both run at 500 kB/s; flow 1 finishes at t=2 but stays until the
        // caller harvests it.
        net.advance(t(3.0));
        // A no-op cap change must still drop the drained flow from the
        // allocation; a stale aggregate would accrue phantom bytes.
        net.set_rate_cap(FlowId(2), 500_000.0, t(3.0));
        assert!((net.link_utilization_bytes_per_sec(link) - 500_000.0).abs() < 1e-6);
        net.advance(t(4.0));
        net.finish_flow(FlowId(1), t(4.0));
        let leftover = net.finish_flow(FlowId(2), t(4.0)).unwrap();
        // Flow 2 moved 500 kB/s × 4 s = 2 MB; flow 1 its full 1 MB.
        assert!((leftover - 8e6).abs() < 1.0);
        assert!((net.link_bytes_transferred(link) - 3e6).abs() < 1.0);
    }

    #[test]
    fn one_link_capacity_changes_match_the_naive_link() {
        let (mut net, route, link) = one_link(1_000_000.0);
        let mut naive = NaiveNetwork::new();
        let naive_link = naive.add_link(1_000_000.0);
        for i in 0..8u64 {
            let cap = if i % 2 == 0 {
                f64::INFINITY
            } else {
                150_000.0 + 40_000.0 * i as f64
            };
            let bytes = 500_000.0 + 100_000.0 * i as f64;
            net.start_flow(FlowId(i), route, bytes, cap, t(0.1 * i as f64));
            naive.start_flow(FlowId(i), &[naive_link], bytes, cap, t(0.1 * i as f64));
        }
        for (step, capacity) in [(1.0, 400_000.0), (2.0, 2_000_000.0), (3.0, 700_000.0)] {
            net.set_link_capacity(link, capacity, t(step));
            naive.set_link_capacity(naive_link, capacity, t(step));
            for i in 0..8u64 {
                let (a, b) = (
                    net.remaining_bytes(FlowId(i)).unwrap(),
                    naive.remaining_bytes(FlowId(i)).unwrap(),
                );
                assert!((a - b).abs() < 1.0, "flow {i}: {a} vs {b}");
            }
        }
        // Drain both and compare the completion order.
        let mut now = t(3.0);
        while let Some((tf, idf)) = net.next_completion(now) {
            let (tn, idn) = naive.next_completion(now).expect("naive still active");
            assert_eq!(idf, idn);
            assert!(
                (tf.as_secs_f64() - tn.as_secs_f64()).abs() < 1e-3,
                "{tf} vs {tn}"
            );
            now = now.max(tf);
            net.finish_flow(idf, now);
            naive.finish_flow(idn, now);
        }
        assert!(naive.next_completion(now).is_none());
    }

    #[test]
    fn thin_transit_pins_one_group_without_touching_the_other() {
        let (mut net, routes, access) = star(&[mbps(8.0), mbps(80.0)], mbps(80.0));
        for i in 0..4u64 {
            net.start_flow(FlowId(i), routes[0], 1e6, f64::INFINITY, t(0.0));
            net.start_flow(FlowId(100 + i), routes[1], 1e6, f64::INFINITY, t(0.0));
        }
        // Group 0's four flows split the 1 MB/s transit; group 1's flows
        // split what remains of the 10 MB/s access link.
        assert!((net.current_rate(FlowId(0)).unwrap() - 250_000.0).abs() < 1e-6);
        assert!((net.current_rate(FlowId(100)).unwrap() - 2_250_000.0).abs() < 1e-6);
        assert_eq!(net.route_bottleneck(routes[0]), Some(LinkId(1)));
        assert_eq!(net.route_bottleneck(routes[1]), Some(access));
        // The access link carries everything; it is not saturated.
        assert!((net.link_utilization_bytes_per_sec(access) - 10e6).abs() < 1e-6);
    }

    #[test]
    fn saturated_access_link_constrains_every_group() {
        let (mut net, routes, access) = star(&[mbps(80.0), mbps(80.0)], mbps(8.0));
        for i in 0..5u64 {
            net.start_flow(FlowId(i), routes[0], 1e6, f64::INFINITY, t(0.0));
            net.start_flow(FlowId(100 + i), routes[1], 1e6, f64::INFINITY, t(0.0));
        }
        // All ten flows share the 1 MB/s access link equally.
        for i in 0..5u64 {
            assert!((net.current_rate(FlowId(i)).unwrap() - 100_000.0).abs() < 1e-6);
            assert!((net.current_rate(FlowId(100 + i)).unwrap() - 100_000.0).abs() < 1e-6);
        }
        assert_eq!(net.route_bottleneck(routes[0]), Some(access));
        assert_eq!(net.route_bottleneck(routes[1]), Some(access));
    }

    #[test]
    fn private_caps_freeze_flows_below_the_water_level() {
        let (mut net, routes, _) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(1), routes[0], 1e6, 100_000.0, t(0.0));
        net.start_flow(FlowId(2), routes[0], 1e6, f64::INFINITY, t(0.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(100_000.0));
        assert!((net.current_rate(FlowId(2)).unwrap() - 900_000.0).abs() < 1e-6);
    }

    #[test]
    fn departure_rebalances_across_links() {
        let (mut net, routes, _) = star(&[mbps(8.0), mbps(8.0)], mbps(12.0));
        net.start_flow(FlowId(1), routes[0], 1e6, f64::INFINITY, t(0.0));
        net.start_flow(FlowId(2), routes[1], 3e6, f64::INFINITY, t(0.0));
        // Access (1.5 MB/s) binds first: 750 kB/s each.
        assert!((net.current_rate(FlowId(1)).unwrap() - 750_000.0).abs() < 1e-6);
        let (done, id) = net.next_completion(t(0.0)).unwrap();
        assert_eq!(id, FlowId(1));
        net.finish_flow(id, done);
        // Flow 2 now gets its full transit-link share (1 MB/s < 1.5 MB/s).
        assert!((net.current_rate(FlowId(2)).unwrap() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn persistent_cross_traffic_squeezes_the_crowd() {
        let (mut net, routes, _) = star(&[mbps(8.0)], mbps(80.0));
        let cross = net.add_route(&[LinkId(1)]);
        // Two persistent 200 kB/s cross flows on the 1 MB/s transit link.
        net.start_flow(FlowId(900), cross, f64::INFINITY, 200_000.0, t(0.0));
        net.start_flow(FlowId(901), cross, f64::INFINITY, 200_000.0, t(0.0));
        net.start_flow(FlowId(1), routes[0], 600_000.0, f64::INFINITY, t(0.0));
        // The probe gets 1 MB/s − 2×200 kB/s = 600 kB/s.
        assert!((net.current_rate(FlowId(1)).unwrap() - 600_000.0).abs() < 1e-6);
        let (done, id) = net.peek_completion().unwrap();
        assert_eq!(id, FlowId(1), "cross traffic never completes");
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
        net.finish_flow(id, done);
        // The cross flows keep running and never show up as completions.
        assert!(net.peek_completion().is_none());
        assert_eq!(net.active_flows(), 2);
    }

    #[test]
    fn capacity_change_moves_the_bottleneck() {
        let (mut net, routes, access) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(1), routes[0], 10e6, f64::INFINITY, t(0.0));
        assert_eq!(net.route_bottleneck(routes[0]), Some(LinkId(1)));
        // Shrinking the access link below the transit moves the bottleneck.
        net.set_link_capacity(access, mbps(4.0), t(1.0));
        assert_eq!(net.route_bottleneck(routes[0]), Some(access));
        assert!((net.current_rate(FlowId(1)).unwrap() - 500_000.0).abs() < 1e-6);
        // One second at 1 MB/s drained 1 MB.
        assert!((net.remaining_bytes(FlowId(1)).unwrap() - 9e6).abs() < 1.0);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let (mut net, routes, _) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(7), routes[0], 0.0, f64::INFINITY, t(1.0));
        let (done, id) = net.next_completion(t(1.0)).unwrap();
        assert_eq!(id, FlowId(7));
        assert_eq!(done, t(1.0));
    }

    #[test]
    fn empty_route_flow_runs_at_its_cap() {
        let mut net = NetworkGraph::new();
        let lonely = net.add_route(&[]);
        net.start_flow(FlowId(1), lonely, 100_000.0, 50_000.0, t(0.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(50_000.0));
        let (done, _) = net.peek_completion().unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite cap")]
    fn uncapped_empty_route_flow_is_rejected() {
        let mut net = NetworkGraph::new();
        let lonely = net.add_route(&[]);
        net.start_flow(FlowId(1), lonely, 100.0, f64::INFINITY, t(0.0));
    }

    #[test]
    #[should_panic(expected = "traverses LinkId(0) twice")]
    fn route_through_a_link_twice_is_rejected() {
        let mut net = NetworkGraph::new();
        let a = net.add_link(mbps(8.0));
        let b = net.add_link(mbps(8.0));
        net.add_route(&[a, b, a]);
    }

    #[test]
    fn backbone_chains_three_hops() {
        let mut net = NetworkGraph::new();
        let access = net.add_link(mbps(80.0));
        let backbone = net.add_link(mbps(16.0));
        let transit_a = net.add_link(mbps(6.4));
        let transit_b = net.add_link(mbps(80.0));
        let route_a = net.add_route(&[transit_a, backbone, access]);
        let route_b = net.add_route(&[transit_b, backbone, access]);
        for i in 0..2u64 {
            net.start_flow(FlowId(i), route_a, 1e6, f64::INFINITY, t(0.0));
            net.start_flow(FlowId(100 + i), route_b, 1e6, f64::INFINITY, t(0.0));
        }
        // Group A pinned by its 0.8 MB/s transit (400 kB/s each); group B
        // gets the backbone's remaining 1.2 MB/s (600 kB/s each) — the
        // backbone is the second bottleneck.
        assert!((net.current_rate(FlowId(0)).unwrap() - 400_000.0).abs() < 1e-6);
        assert!((net.current_rate(FlowId(100)).unwrap() - 600_000.0).abs() < 1e-6);
        assert_eq!(net.route_bottleneck(route_a), Some(transit_a));
        assert_eq!(net.route_bottleneck(route_b), Some(backbone));
    }

    #[test]
    fn advance_is_monotonic_and_bytes_accumulate() {
        let (mut net, routes, access) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(1), routes[0], 250_000.0, f64::INFINITY, t(0.0));
        net.advance(t(10.0));
        net.advance(t(5.0)); // no-op
        net.finish_flow(FlowId(1), t(10.0));
        assert!((net.link_bytes_transferred(access) - 250_000.0).abs() < 1e-6);
        assert!((net.link_bytes_transferred(LinkId(1)) - 250_000.0).abs() < 1e-6);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn duplicate_flow_id_panics() {
        let (mut net, routes, _) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(1), routes[0], 10.0, f64::INFINITY, t(0.0));
        net.start_flow(FlowId(1), routes[0], 10.0, f64::INFINITY, t(0.0));
    }

    #[test]
    fn raising_a_cap_speeds_up_the_flow() {
        let (mut net, routes, _) = star(&[mbps(8.0)], mbps(80.0));
        net.start_flow(FlowId(1), routes[0], 400_000.0, 100_000.0, t(0.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(100_000.0));
        net.set_rate_cap(FlowId(1), f64::INFINITY, t(1.0));
        assert_eq!(net.current_rate(FlowId(1)), Some(1_000_000.0));
        let (done, _) = net.peek_completion().unwrap();
        assert!((done.as_secs_f64() - 1.3).abs() < 1e-9);
    }
}
