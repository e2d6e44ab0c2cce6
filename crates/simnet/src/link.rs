//! Max–min fair fluid model of a shared bottleneck link.
//!
//! The Large Object stage of an MFC exists to answer one question: at what
//! number of concurrent large transfers does the *server's outbound access
//! link* start inflating response times (paper §2.2.2)?  To reproduce that
//! we need a model of many simultaneous response transfers sharing one link,
//! where each flow may additionally be capped below its fair share by the
//! client's own downlink or by TCP window limits.
//!
//! [`FluidLink`] implements max–min fairness with a **virtual-time,
//! water-level core** instead of the classic per-event progressive-filling
//! pass:
//!
//! - The fair allocation is a water level `w` with `Σ min(cᵢ, w) = C`,
//!   computed in O(log n) over a [`CapMultiset`] (a balanced tree of caps
//!   with subtree prefix sums) rather than by repeatedly redistributing
//!   excess capacity over every flow.
//! - Flows *above* the water level all progress at the common rate `w`, so
//!   their remaining bytes never need to be touched individually: one
//!   cumulative fair-share integral `V(t) = ∫ w dt` advances for all of
//!   them, and each flow finishes when `V` reaches its *virtual finish
//!   tag* (the value of `V` at admission plus its size).  They live in a
//!   heap keyed by that tag, so the next completion is a peek.
//! - Flows *below* the water level run at their own constant cap, so their
//!   absolute finish time is fixed while they stay capped; they live in a
//!   second heap keyed by wall-clock finish time.
//! - An arrival or departure moves the water level and may flip flows
//!   between the two regimes; flips are found at the tops of two
//!   cap-ordered heaps (sharing flows smallest cap first, capped flows
//!   largest cap first), so each flip costs O(log n) instead of a full
//!   rescan.
//!
//! The result is O(log n) amortized per flow arrival/departure and an
//! O(log n) `peek_completion`, versus O(n²) per event for progressive
//! filling — the
//! difference between simulating tens and tens of thousands of concurrent
//! transfers.  The old implementation is retained verbatim as
//! [`NaiveFluidLink`], the executable specification the property tests and
//! scaling benches compare against.
//!
//! Flows live in a [`FlowSlab`] and the indexes are
//! [`IndexedHeap`](crate::heap::IndexedHeap)s (see [`crate::heap`]).
//! Results are reproducible across runs and thread counts because nothing
//! depends on a container's layout:
//!
//! - every heap top is the minimum under the `(key, FlowId)` total order,
//!   so completions are swept — and their bytes summed — in that order;
//! - a regime flip touches only the flipping flow, so the order in which
//!   flips are taken cannot change a result;
//! - the id→slot map is only probed, never iterated;
//! - the cap multiset is a set-shaped treap.

use std::collections::BTreeMap;

use mfc_simcore::{SimDuration, SimTime};

use crate::capset::CapMultiset;
use crate::heap::{CapHeap, FinishHeap, FlowSlab};
use crate::Bandwidth;

/// Identifies one flow (one HTTP response transfer) on a [`FluidLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Which sharing regime a flow is currently in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Regime {
    /// Rate = water level; finishes when the fair-share integral `V`
    /// reaches `v_finish`.
    Sharing { v_finish: f64 },
    /// Rate = own cap (constant while capped); `r_ref` bytes remained at
    /// wall-clock `t_ref_secs`, giving the fixed finish time `finish_secs`.
    Capped {
        r_ref: f64,
        t_ref_secs: f64,
        finish_secs: f64,
    },
    /// No bytes left; rate zero, waiting for [`FluidLink::finish_flow`].
    Drained,
}

#[derive(Debug, Clone, Copy)]
struct Flow {
    /// Per-flow rate ceiling in bytes/s (client downlink, TCP window, …).
    rate_cap: Bandwidth,
    regime: Regime,
}

/// A shared bottleneck link with max–min fair bandwidth allocation.
///
/// # Examples
///
/// ```
/// use mfc_simcore::SimTime;
/// use mfc_simnet::{FluidLink, FlowId, mbps};
///
/// // A 8 Mbit/s access link (1 MB/s) shared by two transfers.
/// let mut link = FluidLink::new(mbps(8.0));
/// let t0 = SimTime::ZERO;
/// link.start_flow(FlowId(1), 500_000.0, f64::INFINITY, t0);
/// link.start_flow(FlowId(2), 500_000.0, f64::INFINITY, t0);
///
/// // Each flow gets 0.5 MB/s, so both finish after one second.
/// let (t, id) = link.peek_completion().unwrap();
/// assert_eq!((t - t0).as_secs_f64(), 1.0);
/// assert_eq!(id, FlowId(1));
/// ```
#[derive(Debug, Clone)]
pub struct FluidLink {
    capacity: Bandwidth,
    flows: FlowSlab<Flow>,
    /// Fair-share integral `V(t)`: advances at the water-level rate while
    /// any sharing flow exists.
    vtime: f64,
    /// Water level (rate of every sharing flow); `f64::INFINITY` when no
    /// flow is sharing.
    water: f64,
    /// Aggregate throughput of all active flows.
    agg_rate: f64,
    last_event: SimTime,
    bytes_transferred: f64,
    /// Finite caps of all active (non-drained) flows.
    caps: CapMultiset,
    /// Active flows with an infinite cap (always sharing).
    inf_count: u64,
    /// Sharing flows by virtual finish tag (`v_finish` bits).
    sharing: FinishHeap,
    /// Capped flows by absolute finish time (`finish_secs` bits).
    capped: FinishHeap,
    /// Flows discovered to have zero bytes remaining (they complete "now"),
    /// keyed `0` so they come out in id order.
    drained: FinishHeap,
    /// Capped flows, largest cap first (`!cap` bits), for water-level-drop
    /// flips.
    capped_by_cap: CapHeap,
    /// Finite-cap sharing flows, smallest cap first, for water-level-rise
    /// flips.
    sharing_by_cap: CapHeap,
}

impl FluidLink {
    /// Creates a link with the given capacity in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn new(capacity: Bandwidth) -> Self {
        assert!(capacity > 0.0, "link capacity must be positive");
        FluidLink {
            capacity,
            flows: FlowSlab::new(),
            vtime: 0.0,
            water: f64::INFINITY,
            agg_rate: 0.0,
            last_event: SimTime::ZERO,
            bytes_transferred: 0.0,
            caps: CapMultiset::new(),
            inf_count: 0,
            sharing: FinishHeap::new(),
            capped: FinishHeap::new(),
            drained: FinishHeap::new(),
            capped_by_cap: CapHeap::new(),
            sharing_by_cap: CapHeap::new(),
        }
    }

    /// The configured capacity in bytes per second.
    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }

    /// Changes the link's capacity mid-run (a capacity schedule, an upstream
    /// throttle, an autoscaler resizing a shared uplink).  In-flight flows
    /// keep their remaining bytes; the water level is recomputed and flows
    /// flip between the sharing and capped regimes exactly as they do on an
    /// arrival or departure.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn set_capacity(&mut self, capacity: Bandwidth, now: SimTime) {
        assert!(capacity > 0.0, "link capacity must be positive");
        self.advance(now);
        self.sweep_completed();
        self.capacity = capacity;
        self.rebalance();
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes drained through the link since construction.
    pub fn bytes_transferred(&self) -> f64 {
        self.bytes_transferred
    }

    /// Current aggregate throughput in bytes per second.
    pub fn utilization_bytes_per_sec(&self) -> f64 {
        self.agg_rate
    }

    /// Starts a new transfer of `bytes` bytes at time `now`, individually
    /// capped at `rate_cap` bytes/s.
    ///
    /// The caller must have advanced the link to `now` (this method does it
    /// defensively).  Adding a flow triggers a re-allocation of rates.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is already active or `bytes` is negative.
    pub fn start_flow(&mut self, id: FlowId, bytes: f64, rate_cap: Bandwidth, now: SimTime) {
        assert!(bytes >= 0.0, "flow size must be non-negative");
        self.advance(now);
        self.sweep_completed();
        let rate_cap = rate_cap.max(0.0);
        if bytes <= 0.0 {
            let slot = self.flows.insert(
                id,
                Flow {
                    rate_cap,
                    regime: Regime::Drained,
                },
            );
            self.drained.push(0, slot, &mut self.flows);
        } else {
            let v_finish = self.vtime + bytes;
            let slot = self.flows.insert(
                id,
                Flow {
                    rate_cap,
                    regime: Regime::Sharing { v_finish },
                },
            );
            self.sharing.push(v_finish.to_bits(), slot, &mut self.flows);
            if rate_cap.is_finite() {
                self.caps.insert(rate_cap);
                self.sharing_by_cap
                    .push(rate_cap.to_bits(), slot, &mut self.flows);
            } else {
                self.inf_count += 1;
            }
        }
        self.rebalance();
    }

    /// Removes a flow (typically after a completion reported by
    /// [`Self::peek_completion`], or because the request timed out).
    /// Returns the number of bytes that had not yet been transferred.
    pub fn finish_flow(&mut self, id: FlowId, now: SimTime) -> Option<f64> {
        self.advance(now);
        let slot = self.flows.slot_of(id)?;
        let flow = *self.flows.get(slot);
        let remaining = match flow.regime {
            Regime::Drained => {
                self.drained.remove(slot, &mut self.flows);
                0.0
            }
            Regime::Sharing { v_finish } => {
                self.sharing.remove(slot, &mut self.flows);
                self.detach_cap(slot, flow, /*was_sharing=*/ true);
                let r = v_finish - self.vtime;
                if r < 0.0 {
                    // The caller advanced (at most a clock tick) past the
                    // exact finish; refund the over-charged bytes.
                    self.bytes_transferred += r;
                }
                r.max(0.0)
            }
            Regime::Capped {
                r_ref, t_ref_secs, ..
            } => {
                self.capped.remove(slot, &mut self.flows);
                self.detach_cap(slot, flow, /*was_sharing=*/ false);
                let r = r_ref - flow.rate_cap * (self.last_event.as_secs_f64() - t_ref_secs);
                if r < 0.0 {
                    self.bytes_transferred += r;
                }
                r.max(0.0)
            }
        };
        self.flows.remove(slot);
        self.sweep_completed();
        self.rebalance();
        Some(remaining)
    }

    /// Changes the rate cap of an active flow (e.g. a TCP window opening up
    /// as the transfer leaves slow start).  Triggers a re-allocation.
    pub fn set_rate_cap(&mut self, id: FlowId, rate_cap: Bandwidth, now: SimTime) {
        self.advance(now);
        let Some(slot) = self.flows.slot_of(id) else {
            // Like the naive model: an unknown id advances the clock only.
            return;
        };
        // From here on this behaves like the reference model's unconditional
        // reallocate: once the sweep has detached newly-drained flows, a
        // rebalance MUST follow on every path, or `water`/`agg_rate` keep
        // counting the share of flows the sweep just released.
        self.sweep_completed();
        let flow = *self.flows.get(slot);
        let old_cap = flow.rate_cap;
        let rate_cap = rate_cap.max(0.0);
        if old_cap.to_bits() == rate_cap.to_bits() {
            self.rebalance();
            return;
        }
        match flow.regime {
            Regime::Drained => {
                self.flows.get_mut(slot).rate_cap = rate_cap;
                self.rebalance();
                return;
            }
            Regime::Sharing { .. } => {
                if old_cap.is_finite() {
                    self.caps.remove(old_cap);
                    self.sharing_by_cap.remove(slot, &mut self.flows);
                } else {
                    self.inf_count -= 1;
                }
            }
            Regime::Capped {
                r_ref, t_ref_secs, ..
            } => {
                // Materialize the remaining bytes and re-enter as sharing;
                // the rebalance below re-freezes the flow if its new cap is
                // still under water.
                self.caps.remove(old_cap);
                self.capped.remove(slot, &mut self.flows);
                self.capped_by_cap.remove(slot, &mut self.flows);
                let r = r_ref - old_cap * (self.last_event.as_secs_f64() - t_ref_secs);
                let v_finish = self.vtime + r.max(0.0);
                self.flows.get_mut(slot).regime = Regime::Sharing { v_finish };
                self.sharing.push(v_finish.to_bits(), slot, &mut self.flows);
            }
        }
        self.flows.get_mut(slot).rate_cap = rate_cap;
        if rate_cap.is_finite() {
            self.caps.insert(rate_cap);
            self.sharing_by_cap
                .push(rate_cap.to_bits(), slot, &mut self.flows);
        } else {
            self.inf_count += 1;
        }
        self.rebalance();
    }

    /// Advances the fluid model to `now`, draining bytes in aggregate and
    /// moving the fair-share integral forward.
    ///
    /// Flows whose remaining bytes reach zero stay in the link (at zero
    /// remaining) until [`Self::finish_flow`] removes them, so completion
    /// bookkeeping stays with the caller's event loop.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_event {
            return;
        }
        let elapsed = (now - self.last_event).as_secs_f64();
        self.bytes_transferred += self.agg_rate * elapsed;
        if !self.sharing.is_empty() {
            self.vtime += self.water * elapsed;
        }
        self.last_event = now;
    }

    /// Returns the time and id of the flow that will complete first if no
    /// flows are added or removed, or `None` when no active flow has both
    /// bytes remaining and a positive rate.
    ///
    /// Pure: does not advance the model.  Completion times are absolute, so
    /// the answer is stable between mutations regardless of how far the
    /// caller's clock has moved — ideal for event-loop rescheduling.
    pub fn peek_completion(&self) -> Option<(SimTime, FlowId)> {
        let mut best: Option<(SimTime, FlowId)> = None;
        let consider = |candidate: (SimTime, FlowId), best: &mut Option<(SimTime, FlowId)>| {
            *best = Some(match *best {
                Some(b) if b <= candidate => b,
                _ => candidate,
            });
        };
        if let Some(top) = self.drained.peek() {
            consider((self.last_event, top.id), &mut best);
        }
        if let Some(top) = self.sharing.peek() {
            let v_finish = f64::from_bits(top.key);
            if v_finish <= self.vtime {
                consider((self.last_event, top.id), &mut best);
            } else {
                let secs = (v_finish - self.vtime) / self.water;
                if secs.is_finite() {
                    consider((self.last_event + ceil_micros(secs), top.id), &mut best);
                }
            }
        }
        if let Some(top) = self.capped.peek() {
            let finish_secs = f64::from_bits(top.key);
            if finish_secs.is_finite() {
                let t = SimTime::from_micros((finish_secs * 1_000_000.0).ceil() as u64)
                    .max(self.last_event);
                consider((t, top.id), &mut best);
            }
        }
        best
    }

    /// [`Self::peek_completion`] after advancing the model to `now`.
    ///
    /// Retained for callers that drive the link directly; the engine's
    /// reschedulers use the pure peek instead.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, FlowId)> {
        self.advance(now);
        self.peek_completion()
    }

    /// Remaining bytes for a flow, if it is active.
    pub fn remaining_bytes(&self, id: FlowId) -> Option<f64> {
        let flow = self.flows.get(self.flows.slot_of(id)?);
        Some(match flow.regime {
            Regime::Drained => 0.0,
            Regime::Sharing { v_finish } => (v_finish - self.vtime).max(0.0),
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
            Regime::Sharing { .. } => self.water,
            Regime::Capped { .. } => flow.rate_cap,
        })
    }

    /// Removes the cap-index bookkeeping for a departing flow.
    fn detach_cap(&mut self, slot: u32, flow: Flow, was_sharing: bool) {
        if flow.rate_cap.is_finite() {
            self.caps.remove(flow.rate_cap);
            if was_sharing {
                self.sharing_by_cap.remove(slot, &mut self.flows);
            } else {
                self.capped_by_cap.remove(slot, &mut self.flows);
            }
        } else {
            self.inf_count -= 1;
        }
    }

    /// Moves flows that already finished (as of the current `vtime` /
    /// `last_event`) into the drained state, releasing their share.  This is
    /// the lazy analogue of progressive filling's `remaining > 0` filter and
    /// runs at the same points (flow add/remove), so rates match the naive
    /// model between events.
    fn sweep_completed(&mut self) {
        let now_secs = self.last_event.as_secs_f64();
        while let Some(top) = self.sharing.peek() {
            let v_finish = f64::from_bits(top.key);
            if v_finish > self.vtime {
                break;
            }
            self.sharing.pop(&mut self.flows);
            let flow = *self.flows.get(top.slot);
            self.detach_cap(top.slot, flow, /*was_sharing=*/ true);
            let over = v_finish - self.vtime;
            if over < 0.0 {
                self.bytes_transferred += over;
            }
            self.flows.get_mut(top.slot).regime = Regime::Drained;
            self.drained.push(0, top.slot, &mut self.flows);
        }
        while let Some(top) = self.capped.peek() {
            let finish_secs = f64::from_bits(top.key);
            if finish_secs > now_secs {
                break;
            }
            self.capped.pop(&mut self.flows);
            let flow = *self.flows.get(top.slot);
            self.detach_cap(top.slot, flow, /*was_sharing=*/ false);
            if let Regime::Capped {
                r_ref, t_ref_secs, ..
            } = flow.regime
            {
                let over = r_ref - flow.rate_cap * (now_secs - t_ref_secs);
                if over < 0.0 {
                    self.bytes_transferred += over;
                }
            }
            self.flows.get_mut(top.slot).regime = Regime::Drained;
            self.drained.push(0, top.slot, &mut self.flows);
        }
    }

    /// Recomputes the water level after a structural change and flips flows
    /// whose regime changed.  O(log n) plus O(log n) per flipped flow.
    fn rebalance(&mut self) {
        let active = self.caps.len() + self.inf_count;
        if active == 0 {
            self.water = f64::INFINITY;
            self.agg_rate = 0.0;
            return;
        }
        let wl = self.caps.water_level(self.capacity, active);
        self.water = wl.level;
        self.agg_rate = if wl.saturated_count >= active {
            wl.saturated_sum
        } else {
            wl.saturated_sum + wl.level * (active - wl.saturated_count) as f64
        };
        let now_secs = self.last_event.as_secs_f64();

        // Capped flows whose cap rose above the (lowered) water level go
        // back to sharing, largest cap first; with no saturated cap every
        // capped flow does.  A flip touches only its own flow, so the order
        // is immaterial.
        while let Some(top) = self.capped_by_cap.peek() {
            let cap_bits = !top.key;
            if wl.threshold_bits.is_some_and(|bits| cap_bits <= bits) {
                break;
            }
            self.capped_by_cap.pop(&mut self.flows);
            let flow = self.flows.get_mut(top.slot);
            let Regime::Capped {
                r_ref, t_ref_secs, ..
            } = flow.regime
            else {
                unreachable!("capped index points at a non-capped flow");
            };
            let remaining = r_ref - flow.rate_cap * (now_secs - t_ref_secs);
            let v_finish = self.vtime + remaining;
            flow.regime = Regime::Sharing { v_finish };
            self.capped.remove(top.slot, &mut self.flows);
            self.sharing
                .push(v_finish.to_bits(), top.slot, &mut self.flows);
            self.sharing_by_cap
                .push(cap_bits, top.slot, &mut self.flows);
        }

        // Sharing flows whose cap sank to or below the (raised) water level
        // are frozen at their cap, smallest cap first.
        if let Some(bits) = wl.threshold_bits {
            while let Some(top) = self.sharing_by_cap.peek() {
                if top.key > bits {
                    break;
                }
                self.sharing_by_cap.pop(&mut self.flows);
                let flow = self.flows.get_mut(top.slot);
                let Regime::Sharing { v_finish } = flow.regime else {
                    unreachable!("sharing index points at a non-sharing flow");
                };
                let r_ref = v_finish - self.vtime;
                let finish_secs = now_secs + r_ref / flow.rate_cap;
                flow.regime = Regime::Capped {
                    r_ref,
                    t_ref_secs: now_secs,
                    finish_secs,
                };
                self.sharing.remove(top.slot, &mut self.flows);
                self.capped
                    .push(finish_secs.to_bits(), top.slot, &mut self.flows);
                self.capped_by_cap.push(!top.key, top.slot, &mut self.flows);
            }
        }
    }
}

/// Rounds a span of seconds *up* to the clock's microsecond resolution so
/// that advancing to the reported completion time always drains the flow
/// completely; rounding to nearest could leave a sliver of bytes behind on
/// very fast links.
fn ceil_micros(secs: f64) -> SimDuration {
    SimDuration::from_micros((secs * 1_000_000.0).ceil().max(0.0) as u64)
}

// ---------------------------------------------------------------------
// The retained naive reference model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct NaiveFlow {
    remaining_bytes: f64,
    rate_cap: Bandwidth,
    current_rate: Bandwidth,
}

/// The pre-optimization progressive-filling fluid link, retained verbatim
/// as the executable specification of max–min fairness.
///
/// Every operation is an O(n)–O(n²) scan whose correctness is self-evident;
/// the randomized property tests assert that [`FluidLink`]'s virtual-time
/// core produces the same rates, completion times and completion order, and
/// the scaling benches in `crates/bench` measure the speedup against it.
/// Do not use it outside tests and benches.
#[derive(Debug, Clone)]
pub struct NaiveFluidLink {
    capacity: Bandwidth,
    flows: BTreeMap<FlowId, NaiveFlow>,
    last_advance: SimTime,
    bytes_transferred: f64,
}

impl NaiveFluidLink {
    /// Creates a link with the given capacity in bytes per second.
    pub fn new(capacity: Bandwidth) -> Self {
        assert!(capacity > 0.0, "link capacity must be positive");
        NaiveFluidLink {
            capacity,
            flows: BTreeMap::new(),
            last_advance: SimTime::ZERO,
            bytes_transferred: 0.0,
        }
    }

    /// Total bytes drained through the link since construction.
    pub fn bytes_transferred(&self) -> f64 {
        self.bytes_transferred
    }

    /// Current aggregate throughput in bytes per second.
    pub fn utilization_bytes_per_sec(&self) -> f64 {
        self.flows.values().map(|f| f.current_rate).sum()
    }

    /// Changes the link's capacity; see [`FluidLink::set_capacity`].
    pub fn set_capacity(&mut self, capacity: Bandwidth, now: SimTime) {
        assert!(capacity > 0.0, "link capacity must be positive");
        self.advance(now);
        self.capacity = capacity;
        self.reallocate();
    }

    /// Starts a new transfer; see [`FluidLink::start_flow`].
    pub fn start_flow(&mut self, id: FlowId, bytes: f64, rate_cap: Bandwidth, now: SimTime) {
        assert!(bytes >= 0.0, "flow size must be non-negative");
        self.advance(now);
        let previous = self.flows.insert(
            id,
            NaiveFlow {
                remaining_bytes: bytes,
                rate_cap: rate_cap.max(0.0),
                current_rate: 0.0,
            },
        );
        assert!(previous.is_none(), "flow {id:?} is already active");
        self.reallocate();
    }

    /// Removes a flow; see [`FluidLink::finish_flow`].
    pub fn finish_flow(&mut self, id: FlowId, now: SimTime) -> Option<f64> {
        self.advance(now);
        let flow = self.flows.remove(&id)?;
        self.reallocate();
        Some(flow.remaining_bytes)
    }

    /// Changes the rate cap of an active flow; see [`FluidLink::set_rate_cap`].
    pub fn set_rate_cap(&mut self, id: FlowId, rate_cap: Bandwidth, now: SimTime) {
        self.advance(now);
        if let Some(flow) = self.flows.get_mut(&id) {
            flow.rate_cap = rate_cap.max(0.0);
            self.reallocate();
        }
    }

    /// Advances the fluid model to `now`, draining every flow individually.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_advance {
            return;
        }
        let elapsed = (now - self.last_advance).as_secs_f64();
        for flow in self.flows.values_mut() {
            let drained = (flow.current_rate * elapsed).min(flow.remaining_bytes);
            flow.remaining_bytes -= drained;
            self.bytes_transferred += drained;
        }
        self.last_advance = now;
    }

    /// Returns the next completion by scanning every flow.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, FlowId)> {
        self.advance(now);
        let mut best: Option<(SimDuration, FlowId)> = None;
        for (&id, flow) in &self.flows {
            if flow.remaining_bytes <= 0.0 {
                let candidate = (SimDuration::ZERO, id);
                best = Some(match best {
                    Some(b) if b <= candidate => b,
                    _ => candidate,
                });
                continue;
            }
            if flow.current_rate <= 0.0 {
                continue;
            }
            let secs = flow.remaining_bytes / flow.current_rate;
            let micros = (secs * 1_000_000.0).ceil().max(0.0) as u64;
            let candidate = (SimDuration::from_micros(micros), id);
            best = Some(match best {
                Some(b) if b <= candidate => b,
                _ => candidate,
            });
        }
        best.map(|(d, id)| (self.last_advance + d, id))
    }

    /// Remaining bytes for a flow, if it is active.
    pub fn remaining_bytes(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| f.remaining_bytes)
    }

    /// The rate currently allocated to a flow in bytes/s, if it is active.
    pub fn current_rate(&self, id: FlowId) -> Option<Bandwidth> {
        self.flows.get(&id).map(|f| f.current_rate)
    }

    /// Recomputes the max–min fair allocation (progressive filling).
    fn reallocate(&mut self) {
        let mut unassigned: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining_bytes > 0.0)
            .map(|(&id, _)| id)
            .collect();
        unassigned.sort_unstable();

        for flow in self.flows.values_mut() {
            flow.current_rate = 0.0;
        }

        let mut capacity_left = self.capacity;
        while !unassigned.is_empty() && capacity_left > f64::EPSILON {
            let share = capacity_left / unassigned.len() as f64;
            let mut frozen = Vec::new();
            for &id in &unassigned {
                let cap = self.flows[&id].rate_cap;
                if cap <= share {
                    frozen.push(id);
                }
            }
            if frozen.is_empty() {
                for id in &unassigned {
                    self.flows.get_mut(id).expect("flow exists").current_rate = share;
                }
                capacity_left = 0.0;
                unassigned.clear();
            } else {
                for id in &frozen {
                    let cap = self.flows[id].rate_cap;
                    self.flows.get_mut(id).expect("flow exists").current_rate = cap;
                    capacity_left -= cap;
                }
                unassigned.retain(|id| !frozen.contains(id));
                capacity_left = capacity_left.max(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_simcore::SimDuration;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn single_flow_uses_full_capacity() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 2_000_000.0, f64::INFINITY, t(0.0));
        let (done, id) = link.next_completion(t(0.0)).unwrap();
        assert_eq!(id, FlowId(1));
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_split_capacity_equally() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, f64::INFINITY, t(0.0));
        link.start_flow(FlowId(2), 1_000_000.0, f64::INFINITY, t(0.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(500_000.0));
        assert_eq!(link.current_rate(FlowId(2)), Some(500_000.0));
        let (done, _) = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn capped_flow_leaves_capacity_to_others() {
        let mut link = FluidLink::new(1_000_000.0);
        // A slow client capped at 100 KB/s and a fast one uncapped.
        link.start_flow(FlowId(1), 100_000.0, 100_000.0, t(0.0));
        link.start_flow(FlowId(2), 900_000.0, f64::INFINITY, t(0.0));
        assert!((link.current_rate(FlowId(1)).unwrap() - 100_000.0).abs() < 1e-6);
        assert!((link.current_rate(FlowId(2)).unwrap() - 900_000.0).abs() < 1e-6);
        // Both finish at t = 1s.
        let (done, _) = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_is_work_conserving() {
        let mut link = FluidLink::new(1_000_000.0);
        for i in 0..10 {
            link.start_flow(FlowId(i), 1_000_000.0, 500_000.0, t(0.0));
        }
        let total: f64 = (0..10).map(|i| link.current_rate(FlowId(i)).unwrap()).sum();
        // 10 flows capped at 0.5 MB/s could use 5 MB/s but the link only has
        // 1 MB/s: the allocation must fill the link exactly.
        assert!((total - 1_000_000.0).abs() < 1e-6);
        assert!((link.utilization_bytes_per_sec() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn departure_speeds_up_remaining_flows() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 500_000.0, f64::INFINITY, t(0.0));
        link.start_flow(FlowId(2), 2_000_000.0, f64::INFINITY, t(0.0));
        // Flow 1 completes at t=1s (500KB at 500KB/s).
        let (done1, id1) = link.next_completion(t(0.0)).unwrap();
        assert_eq!(id1, FlowId(1));
        assert!((done1.as_secs_f64() - 1.0).abs() < 1e-9);
        let leftover = link.finish_flow(FlowId(1), done1).unwrap();
        assert!(leftover.abs() < 1e-6);
        // Flow 2 transferred 500KB so far, 1.5MB left now at full rate.
        assert!((link.remaining_bytes(FlowId(2)).unwrap() - 1_500_000.0).abs() < 1.0);
        let (done2, id2) = link.next_completion(done1).unwrap();
        assert_eq!(id2, FlowId(2));
        assert!((done2.as_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_slows_existing_flow() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, f64::INFINITY, t(0.0));
        // Half way through, a second flow arrives.
        link.start_flow(FlowId(2), 1_000_000.0, f64::INFINITY, t(0.5));
        assert!((link.remaining_bytes(FlowId(1)).unwrap() - 500_000.0).abs() < 1.0);
        let (done1, id1) = link.next_completion(t(0.5)).unwrap();
        assert_eq!(id1, FlowId(1));
        // 500KB left at 500KB/s -> finishes at t = 1.5s.
        assert!((done1.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut link = FluidLink::new(1_000.0);
        link.start_flow(FlowId(7), 0.0, f64::INFINITY, t(1.0));
        let (done, id) = link.next_completion(t(1.0)).unwrap();
        assert_eq!(id, FlowId(7));
        assert_eq!(done, t(1.0));
    }

    #[test]
    fn bytes_transferred_accumulates() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 250_000.0, f64::INFINITY, t(0.0));
        link.advance(t(10.0));
        link.finish_flow(FlowId(1), t(10.0));
        assert!((link.bytes_transferred() - 250_000.0).abs() < 1e-6);
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn next_completion_none_when_empty() {
        let mut link = FluidLink::new(1_000.0);
        assert!(link.next_completion(t(0.0)).is_none());
        assert!(link.peek_completion().is_none());
    }

    #[test]
    fn advance_is_monotonic() {
        let mut link = FluidLink::new(1_000.0);
        link.start_flow(FlowId(1), 10_000.0, f64::INFINITY, t(5.0));
        // Going "backwards" in time is a no-op, not a panic.
        link.advance(t(1.0));
        assert!((link.remaining_bytes(FlowId(1)).unwrap() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn duplicate_flow_id_panics() {
        let mut link = FluidLink::new(1_000.0);
        link.start_flow(FlowId(1), 10.0, f64::INFINITY, t(0.0));
        link.start_flow(FlowId(1), 10.0, f64::INFINITY, t(0.0));
    }

    #[test]
    fn utilization_reports_aggregate_rate() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, 200_000.0, t(0.0));
        assert!((link.utilization_bytes_per_sec() - 200_000.0).abs() < 1e-6);
        link.start_flow(FlowId(2), 1_000_000.0, f64::INFINITY, t(0.0));
        assert!((link.utilization_bytes_per_sec() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn completion_survives_many_flows() {
        let mut link = FluidLink::new(10_000_000.0);
        let n = 200;
        for i in 0..n {
            link.start_flow(FlowId(i), 100_000.0, f64::INFINITY, t(0.0));
        }
        // All flows equal: each gets capacity/n, finishing together.
        let expect = 100_000.0 / (10_000_000.0 / n as f64);
        let (done, _) = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - expect).abs() < 1e-9);
        let _ = SimDuration::ZERO;
    }

    #[test]
    fn peek_is_pure_and_stable() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, f64::INFINITY, t(0.0));
        let first = link.peek_completion();
        // Peeking again (even "later" in caller time) gives the same answer
        // because nothing mutated the link.
        let second = link.peek_completion();
        assert_eq!(first, second);
        assert_eq!(first.unwrap().0, t(1.0));
    }

    #[test]
    fn raising_a_cap_speeds_up_the_flow() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 400_000.0, 100_000.0, t(0.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(100_000.0));
        // After one second (100KB done) the window opens fully.
        link.set_rate_cap(FlowId(1), f64::INFINITY, t(1.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(1_000_000.0));
        let (done, _) = link.peek_completion().unwrap();
        // 300KB left at 1MB/s.
        assert!((done.as_secs_f64() - 1.3).abs() < 1e-9);
    }

    #[test]
    fn lowering_a_cap_slows_the_flow() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 500_000.0, f64::INFINITY, t(0.0));
        link.set_rate_cap(FlowId(1), 50_000.0, t(0.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(50_000.0));
        let (done, _) = link.peek_completion().unwrap();
        assert!((done.as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_cap_change_still_releases_a_drained_flows_share() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, f64::INFINITY, t(0.0));
        link.start_flow(FlowId(2), 10_000_000.0, 500_000.0, t(0.0));
        // Both run at 500 kB/s; flow 1 truly finishes at t=2 but is left in
        // the link (the caller hasn't harvested the completion yet).
        link.advance(t(3.0));
        // A no-op cap change must still exclude the drained flow from the
        // allocation, exactly like the naive model's unconditional
        // reallocate — a stale aggregate here would accrue phantom bytes.
        link.set_rate_cap(FlowId(2), 500_000.0, t(3.0));
        assert!((link.utilization_bytes_per_sec() - 500_000.0).abs() < 1e-6);
        link.advance(t(4.0));
        link.finish_flow(FlowId(1), t(4.0));
        let leftover = link.finish_flow(FlowId(2), t(4.0)).unwrap();
        // Flow 2 moved 500 kB/s × 4 s = 2 MB; flow 1 moved its full 1 MB.
        assert!((leftover - 8_000_000.0).abs() < 1.0);
        assert!((link.bytes_transferred() - 3_000_000.0).abs() < 1.0);
    }

    #[test]
    fn water_level_flips_follow_arrivals_and_departures() {
        let mut link = FluidLink::new(1_000_000.0);
        // A 300 KB/s-capped flow alone: capped (level would be 1 MB/s).
        link.start_flow(FlowId(1), 10_000_000.0, 300_000.0, t(0.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(300_000.0));
        // Three more uncapped flows: level drops to ~233 KB/s, so flow 1 is
        // no longer capped and shares equally.
        for i in 2..=4 {
            link.start_flow(FlowId(i), 10_000_000.0, f64::INFINITY, t(0.0));
        }
        assert!((link.current_rate(FlowId(1)).unwrap() - 250_000.0).abs() < 1e-6);
        // Remove them again: flow 1 goes back to its cap.
        for i in 2..=4 {
            link.finish_flow(FlowId(i), t(0.0));
        }
        assert_eq!(link.current_rate(FlowId(1)), Some(300_000.0));
    }

    #[test]
    fn shrinking_capacity_slows_sharing_flows() {
        let mut link = FluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 1_000_000.0, f64::INFINITY, t(0.0));
        link.start_flow(FlowId(2), 1_000_000.0, f64::INFINITY, t(0.0));
        // Half a second in, the link halves: 750 KB left per flow at
        // 250 KB/s each.
        link.set_capacity(500_000.0, t(0.5));
        assert_eq!(link.current_rate(FlowId(1)), Some(250_000.0));
        let (done, _) = link.peek_completion().unwrap();
        assert!((done.as_secs_f64() - 3.5).abs() < 1e-9, "{done}");
    }

    #[test]
    fn growing_capacity_freezes_capped_flows() {
        let mut link = FluidLink::new(400_000.0);
        // Both flows share 200 KB/s each, below their 300 KB/s caps.
        link.start_flow(FlowId(1), 600_000.0, 300_000.0, t(0.0));
        link.start_flow(FlowId(2), 600_000.0, 300_000.0, t(0.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(200_000.0));
        // Doubling the capacity lifts the water level above the caps: both
        // flows flip into the capped regime at 300 KB/s.
        link.set_capacity(800_000.0, t(1.0));
        assert_eq!(link.current_rate(FlowId(1)), Some(300_000.0));
        // 400 KB left each at 300 KB/s.
        let (done, _) = link.peek_completion().unwrap();
        assert!(
            (done.as_secs_f64() - (1.0 + 400.0 / 300.0)).abs() < 1e-5,
            "{done}"
        );
    }

    #[test]
    fn capacity_change_matches_naive_model() {
        let mut fast = FluidLink::new(1_000_000.0);
        let mut naive = NaiveFluidLink::new(1_000_000.0);
        for i in 0..8u64 {
            let cap = if i % 2 == 0 {
                f64::INFINITY
            } else {
                150_000.0 + 40_000.0 * i as f64
            };
            fast.start_flow(
                FlowId(i),
                500_000.0 + 100_000.0 * i as f64,
                cap,
                t(0.1 * i as f64),
            );
            naive.start_flow(
                FlowId(i),
                500_000.0 + 100_000.0 * i as f64,
                cap,
                t(0.1 * i as f64),
            );
        }
        for (step, capacity) in [(1.0, 400_000.0), (2.0, 2_000_000.0), (3.0, 700_000.0)] {
            fast.set_capacity(capacity, t(step));
            naive.set_capacity(capacity, t(step));
            for i in 0..8u64 {
                let (a, b) = (
                    fast.remaining_bytes(FlowId(i)),
                    naive.remaining_bytes(FlowId(i)),
                );
                match (a, b) {
                    (Some(a), Some(b)) => assert!((a - b).abs() < 1.0, "flow {i}: {a} vs {b}"),
                    (a, b) => assert_eq!(a.map(|_| ()), b.map(|_| ())),
                }
            }
        }
        // Drain both and compare the completion order.
        let mut now = t(3.0);
        while let Some((tf, idf)) = fast.next_completion(now) {
            let (tn, idn) = naive.next_completion(now).expect("naive still active");
            assert_eq!(idf, idn);
            assert!(
                (tf.as_secs_f64() - tn.as_secs_f64()).abs() < 1e-3,
                "{tf} vs {tn}"
            );
            now = now.max(tf);
            fast.finish_flow(idf, now);
            naive.finish_flow(idn, now);
        }
        assert!(naive.next_completion(now).is_none());
    }

    #[test]
    fn naive_link_still_behaves() {
        let mut link = NaiveFluidLink::new(1_000_000.0);
        link.start_flow(FlowId(1), 500_000.0, f64::INFINITY, t(0.0));
        link.start_flow(FlowId(2), 500_000.0, f64::INFINITY, t(0.0));
        let (done, id) = link.next_completion(t(0.0)).unwrap();
        assert_eq!(id, FlowId(1));
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-9);
    }
}
