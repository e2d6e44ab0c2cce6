//! Flow identity and the reference model of one shared link.
//!
//! The Large Object stage of an MFC exists to answer one question: at what
//! number of concurrent large transfers does the *server's outbound access
//! link* start inflating response times (paper §2.2.2)?  Answering it takes
//! a model of many simultaneous response transfers sharing one link, where
//! each flow may additionally be capped below its fair share by the
//! client's own downlink or by TCP window limits: max–min fairness with
//! per-flow rate caps.
//!
//! The simulator runs that model — and the CPU's processor sharing, which
//! is the same allocation over work units instead of bytes — on the
//! topology crate's `NetworkGraph`, whose one-link, one-route case is a
//! single water-level query over a [`CapMultiset`](crate::CapMultiset).
//! This module keeps what that core and its tests share: the [`FlowId`]
//! every flow is known by, and [`NaiveFluidLink`], the O(n²)
//! progressive-filling specification the property tests and scaling
//! benches compare the graph against.

use std::collections::BTreeMap;

use mfc_simcore::{SimDuration, SimTime};

use crate::Bandwidth;

/// Identifies one flow: an HTTP response transfer on a link, or a task on
/// a processor-sharing resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

#[derive(Debug, Clone)]
struct NaiveFlow {
    remaining_bytes: f64,
    rate_cap: Bandwidth,
    current_rate: Bandwidth,
}

/// The textbook progressive-filling fluid link: the executable
/// specification of max–min fairness on one shared link.
///
/// Every operation is an O(n)–O(n²) scan whose correctness is self-evident;
/// the randomized property tests assert that a one-link
/// `mfc_topology::NetworkGraph` produces the same rates, completion times
/// and completion order, and the scaling benches in `crates/bench` measure
/// the speedup against it.  Do not use it outside tests and benches.
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

    /// Changes the link's capacity mid-run; in-flight flows keep their
    /// remaining bytes.
    pub fn set_capacity(&mut self, capacity: Bandwidth, now: SimTime) {
        assert!(capacity > 0.0, "link capacity must be positive");
        self.advance(now);
        self.capacity = capacity;
        self.reallocate();
    }

    /// Starts a transfer of `bytes` bytes at `now`, privately capped at
    /// `rate_cap` bytes/s.
    ///
    /// # Panics
    ///
    /// Panics if the flow id is already active or `bytes` is negative.
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

    /// Removes a flow, returning the bytes it had not yet transferred.
    pub fn finish_flow(&mut self, id: FlowId, now: SimTime) -> Option<f64> {
        self.advance(now);
        let flow = self.flows.remove(&id)?;
        self.reallocate();
        Some(flow.remaining_bytes)
    }

    /// Changes the rate cap of an active flow; an unknown id only advances
    /// the clock.
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

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
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
