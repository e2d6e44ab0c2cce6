//! The textbook progressive-filling reference model.
//!
//! [`NaiveNetwork`] computes the network max–min fair allocation the way
//! the definition reads: all unfrozen flow rates rise together; the next
//! event is either a flow reaching its private cap or a link reaching its
//! capacity; a saturated link freezes every flow through it.  Every
//! operation is an O(F·L) scan whose correctness is self-evident, which is
//! the point — the randomized property tests assert that
//! [`super::NetworkGraph`]'s incremental water-filling core produces the
//! same rates, remaining bytes, completion times and completion order.
//! Do not use it outside tests and benches.

use std::collections::BTreeMap;

use mfc_simcore::{SimDuration, SimTime};
use mfc_simnet::{Bandwidth, FlowId};

use crate::graph::LinkId;

#[derive(Debug, Clone)]
struct NaiveFlow {
    links: Vec<LinkId>,
    remaining_bytes: f64,
    rate_cap: Bandwidth,
    current_rate: Bandwidth,
}

/// Progressive-filling max–min fairness over a link graph, the executable
/// specification for [`super::NetworkGraph`].
#[derive(Debug, Clone, Default)]
pub struct NaiveNetwork {
    capacities: Vec<Bandwidth>,
    bytes_transferred: Vec<f64>,
    flows: BTreeMap<FlowId, NaiveFlow>,
    last_advance: SimTime,
}

impl NaiveNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        NaiveNetwork::default()
    }

    /// Adds a link of the given capacity (bytes/s).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive and finite.
    pub fn add_link(&mut self, capacity: Bandwidth) -> LinkId {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "link capacity must be positive and finite"
        );
        let id = LinkId(u32::try_from(self.capacities.len()).expect("too many links"));
        self.capacities.push(capacity);
        self.bytes_transferred.push(0.0);
        id
    }

    /// Total bytes drained through a link since construction.
    pub fn link_bytes_transferred(&self, link: LinkId) -> f64 {
        self.bytes_transferred[link.0 as usize]
    }

    /// Current aggregate throughput across a link.
    pub fn link_utilization_bytes_per_sec(&self, link: LinkId) -> f64 {
        self.flows
            .values()
            .filter(|f| f.links.contains(&link))
            .map(|f| f.current_rate)
            .sum()
    }

    /// Starts a transfer over the given links; see
    /// [`super::NetworkGraph::start_flow`].
    pub fn start_flow(
        &mut self,
        id: FlowId,
        links: &[LinkId],
        bytes: f64,
        rate_cap: Bandwidth,
        now: SimTime,
    ) {
        assert!(bytes >= 0.0, "flow size must be non-negative");
        assert!(
            !links.is_empty() || rate_cap.max(0.0).is_finite(),
            "a flow on an empty route must carry a finite cap"
        );
        self.advance(now);
        let previous = self.flows.insert(
            id,
            NaiveFlow {
                links: links.to_vec(),
                remaining_bytes: bytes,
                rate_cap: rate_cap.max(0.0),
                current_rate: 0.0,
            },
        );
        assert!(previous.is_none(), "flow {id:?} is already active");
        self.reallocate();
    }

    /// Removes a flow, returning its untransferred bytes.
    pub fn finish_flow(&mut self, id: FlowId, now: SimTime) -> Option<f64> {
        self.advance(now);
        let flow = self.flows.remove(&id)?;
        self.reallocate();
        Some(flow.remaining_bytes)
    }

    /// Advances the fluid model, draining every flow individually.
    pub fn advance(&mut self, now: SimTime) {
        if now <= self.last_advance {
            return;
        }
        let elapsed = (now - self.last_advance).as_secs_f64();
        for flow in self.flows.values_mut() {
            let drained = (flow.current_rate * elapsed).min(flow.remaining_bytes);
            if drained > 0.0 {
                flow.remaining_bytes -= drained;
                for &link in &flow.links {
                    self.bytes_transferred[link.0 as usize] += drained;
                }
            }
        }
        self.last_advance = now;
    }

    /// Returns the next completion by scanning every flow.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, FlowId)> {
        self.advance(now);
        let mut best: Option<(SimDuration, FlowId)> = None;
        for (&id, flow) in &self.flows {
            let candidate = if flow.remaining_bytes <= 0.0 {
                (SimDuration::ZERO, id)
            } else if flow.current_rate > 0.0 && flow.remaining_bytes.is_finite() {
                let secs = flow.remaining_bytes / flow.current_rate;
                (
                    SimDuration::from_micros((secs * 1_000_000.0).ceil().max(0.0) as u64),
                    id,
                )
            } else {
                continue;
            };
            best = Some(match best {
                Some(b) if b <= candidate => b,
                _ => candidate,
            });
        }
        best.map(|(d, id)| (self.last_advance + d, id))
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Remaining bytes for a flow, if active.
    pub fn remaining_bytes(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| f.remaining_bytes)
    }

    /// The rate currently allocated to a flow, if active.
    pub fn current_rate(&self, id: FlowId) -> Option<Bandwidth> {
        self.flows.get(&id).map(|f| f.current_rate)
    }

    /// Progressive filling: raise all unfrozen rates together; freeze flows
    /// at their cap and flows through links that saturate; repeat.
    fn reallocate(&mut self) {
        for flow in self.flows.values_mut() {
            flow.current_rate = 0.0;
        }
        let mut unfrozen: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining_bytes > 0.0)
            .map(|(&id, _)| id)
            .collect();
        unfrozen.sort_unstable();

        while !unfrozen.is_empty() {
            // Headroom before the next flow hits its private cap.
            let mut delta = f64::INFINITY;
            for id in &unfrozen {
                let flow = &self.flows[id];
                delta = delta.min(flow.rate_cap - flow.current_rate);
            }
            // Headroom before the next link saturates.
            let mut link_delta: Vec<f64> = vec![f64::INFINITY; self.capacities.len()];
            for (link_index, &capacity) in self.capacities.iter().enumerate() {
                let link = LinkId(link_index as u32);
                let used: f64 = self
                    .flows
                    .values()
                    .filter(|f| f.remaining_bytes > 0.0 && f.links.contains(&link))
                    .map(|f| f.current_rate)
                    .sum();
                let count = unfrozen
                    .iter()
                    .filter(|id| self.flows[id].links.contains(&link))
                    .count();
                if count > 0 {
                    link_delta[link_index] = ((capacity - used) / count as f64).max(0.0);
                    delta = delta.min(link_delta[link_index]);
                }
            }
            if !delta.is_finite() {
                // No cap and no link bounds the remaining flows; the graph
                // constructors reject this (an empty route needs a finite
                // cap), so it is unreachable with valid inputs.
                unreachable!("unbounded flow in progressive filling");
            }
            for id in &unfrozen {
                self.flows.get_mut(id).expect("flow exists").current_rate += delta;
            }
            // Freeze flows at their cap and flows on saturated links.
            let saturated: Vec<LinkId> = link_delta
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d.is_finite() && d <= delta)
                .map(|(i, _)| LinkId(i as u32))
                .collect();
            unfrozen.retain(|id| {
                let flow = &self.flows[id];
                // The cap test carries a relative tolerance: `rate + (cap −
                // rate)` can land one ulp under `cap`, and a strict
                // comparison would then spin on vanishing deltas.  Uncapped
                // flows can never freeze on their (infinite) cap.
                (!flow.rate_cap.is_finite()
                    || flow.rate_cap - flow.current_rate > 1e-9 * flow.rate_cap.max(1.0))
                    && !flow.links.iter().any(|l| saturated.contains(l))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_simnet::mbps;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn single_link_is_plain_max_min() {
        let mut net = NaiveNetwork::new();
        let link = net.add_link(1_000_000.0);
        net.start_flow(FlowId(1), &[link], 1e6, f64::INFINITY, t(0.0));
        net.start_flow(FlowId(2), &[link], 1e6, 200_000.0, t(0.0));
        assert!((net.current_rate(FlowId(1)).unwrap() - 800_000.0).abs() < 1e-6);
        assert!((net.current_rate(FlowId(2)).unwrap() - 200_000.0).abs() < 1e-6);
    }

    #[test]
    fn two_hop_bottleneck_binds_the_narrow_link() {
        let mut net = NaiveNetwork::new();
        let transit = net.add_link(mbps(8.0));
        let access = net.add_link(mbps(80.0));
        net.start_flow(FlowId(1), &[transit, access], 10e6, f64::INFINITY, t(0.0));
        net.start_flow(FlowId(2), &[access], 10e6, f64::INFINITY, t(0.0));
        assert!((net.current_rate(FlowId(1)).unwrap() - 1e6).abs() < 1e-6);
        assert!((net.current_rate(FlowId(2)).unwrap() - 9e6).abs() < 1e-6);
        assert!((net.link_utilization_bytes_per_sec(access) - 10e6).abs() < 1e-6);
    }

    #[test]
    fn completions_drain_in_order() {
        let mut net = NaiveNetwork::new();
        let link = net.add_link(1_000_000.0);
        net.start_flow(FlowId(1), &[link], 500_000.0, f64::INFINITY, t(0.0));
        net.start_flow(FlowId(2), &[link], 2_000_000.0, f64::INFINITY, t(0.0));
        let (done1, id1) = net.next_completion(t(0.0)).unwrap();
        assert_eq!(id1, FlowId(1));
        assert!((done1.as_secs_f64() - 1.0).abs() < 1e-5);
        net.finish_flow(id1, done1);
        let (done2, id2) = net.next_completion(done1).unwrap();
        assert_eq!(id2, FlowId(2));
        assert!((done2.as_secs_f64() - 2.5).abs() < 1e-5);
    }
}
