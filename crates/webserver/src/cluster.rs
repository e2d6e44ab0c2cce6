//! Load-balanced server clusters — the one way to run the server model.
//!
//! The production QTP system the authors tested routes all requests for one
//! IP address to "a specific data center which houses 16 multiprocessor
//! servers in a load-balanced configuration" (§4.1).  The MFC saw no
//! response-time impact even with 375 simultaneous requests because the
//! load spread across those replicas.  [`ServerCluster`] reproduces that
//! arrangement: a front-end dispatcher offers each arrival to a
//! [`ServerControl`] (admission control, rate limiting), rotates it onto one
//! of `n` identical [`ServerEngine`] replicas, each with its own caches,
//! and merges the results.  A single server is a cluster of one.

use mfc_simcore::{SimTime, TimeWeighted};

use crate::cache::CacheState;
use crate::config::ServerConfig;
use crate::content::ContentCatalog;
use crate::control::{AdmissionVerdict, ServerControl, TickSample};
use crate::engine::{EngineSession, RunResult, ServerEngine, SessionBuffers};
use crate::request::{RequestOutcome, RequestStatus, ServerRequest};
use crate::telemetry::UtilizationReport;

/// A load-balanced group of identical servers.
///
/// # Examples
///
/// ```
/// use mfc_webserver::{ContentCatalog, ServerCluster, ServerConfig};
///
/// let cluster = ServerCluster::new(
///     ServerConfig::commercial_frontend(),
///     ContentCatalog::typical_site(3),
///     16,
/// );
/// assert_eq!(cluster.replicas(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct ServerCluster {
    engine: ServerEngine,
    replicas: usize,
    carry: Carry,
}

/// What one run of a cluster leaves to the next.
#[derive(Debug, Clone)]
struct Carry {
    /// Replicas currently routable, so an autoscaler's provisioning
    /// decisions outlive one epoch.
    active: usize,
    /// The per-replica cache states.
    caches: Vec<CacheState>,
    /// The buffers of finished sessions, cleared, for the next run's
    /// sessions.
    spare: Vec<SessionBuffers>,
}

impl ServerCluster {
    /// Creates a cluster of `replicas` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(config: ServerConfig, catalog: ContentCatalog, replicas: usize) -> Self {
        assert!(replicas > 0, "a cluster needs at least one replica");
        ServerCluster {
            engine: ServerEngine::new(config, catalog),
            replicas,
            carry: Carry {
                active: replicas,
                caches: vec![CacheState::new(); replicas],
                spare: Vec::new(),
            },
        }
    }

    /// Places a shared-bottleneck WAN topology in front of every serving
    /// replica; see [`ServerEngine::with_topology`].  Transit links are
    /// instantiated per serving replica, so for a fixed-size cluster the
    /// caller should pass an aggregate-preserving per-replica share
    /// (`TopologySpec::share_across(replicas)`, as `SimBackend` does); a
    /// replica count that changes mid-run would silently multiply the
    /// shared capacity and is rejected upstream.
    pub fn with_topology(mut self, topology: mfc_topology::TopologySpec) -> Self {
        self.engine.set_topology(topology);
        self.carry.spare.clear();
        self
    }

    /// Number of replicas the cluster was configured with: the routable
    /// count [`ServerCluster::run`] starts from until a control loop's
    /// tick changes it.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Replicas currently routable (changed by [`ServerControl::on_tick`];
    /// starts at the configured count).
    pub fn active_replicas(&self) -> usize {
        self.carry.active
    }

    /// The content every replica hosts: what its requests' object ids
    /// are resolved against.
    pub fn catalog(&self) -> &ContentCatalog {
        self.engine.catalog()
    }

    /// The per-replica cache states (useful for inspecting warmth).
    pub fn caches(&self) -> &[CacheState] {
        &self.carry.caches
    }

    /// Serves a time-ordered stream of requests under a [`ServerControl`]
    /// loop and returns the outcomes in arrival order.
    ///
    /// This is the one way to run the server.  A single server is a cluster
    /// of one, a static target runs under a control with no tick that
    /// accepts everything, and a batch is a sorted stream.  The stream is
    /// consumed lazily, so a workload of millions of sessions never has to
    /// be materialized.
    ///
    /// One sweep interleaves the control's telemetry ticks with the
    /// arrivals; a tick at time *t* sees the server just before anything
    /// else happens at *t*.  Each arrival is offered to the control, which
    /// may shed it with a 503 or clamp its transfer rate; the admitted
    /// arrivals rotate over the currently *active* replicas in arrival
    /// order.  Replica sessions are stepped only when a tick reads them, so
    /// a static run costs nothing per replica and arrival.
    /// A replica count returned by a tick takes effect for subsequent
    /// arrivals: scale-up replicas start cold, scale-down replicas finish
    /// their in-flight work but stop receiving traffic.  Each replica's link
    /// and CPU keep their configured capacity throughout.  The active count
    /// persists to the next run, and so do the sessions' buffers, which the
    /// next run's sessions reuse.
    ///
    /// The report merges the replicas that served the run
    /// ([`UtilizationReport::merge`]); shed and throttled requests are
    /// counted at the front door, and `link_capacity` is the active replica
    /// count times the configured access link, time-weighted over the run.
    ///
    /// # Panics
    ///
    /// Panics if the requests are not in non-decreasing arrival order.
    pub fn run(
        &mut self,
        requests: impl IntoIterator<Item = ServerRequest>,
        control: &mut dyn ServerControl,
    ) -> RunResult {
        let mut requests = requests.into_iter().peekable();
        let t0 = requests.peek().map_or(SimTime::ZERO, |r| r.arrival);
        let mut sweep = Sweep::new(&self.engine, &mut self.carry, t0);
        let tick = control.tick_interval();
        let mut next_tick = tick.map(|d| t0 + d);
        // Each arrival's replica, in arrival order; `None` when shed.
        let mut placement: Vec<Option<usize>> = Vec::with_capacity(requests.size_hint().0);
        let mut rotation = 0usize;
        let mut last_arrival = t0;
        for mut req in requests {
            let arrival = req.arrival;
            assert!(
                arrival >= last_arrival,
                "request {} arrives at {arrival}, before {last_arrival}: requests must be \
                 time-ordered",
                req.id
            );
            last_arrival = arrival;
            while let (Some(d), Some(at)) = (tick, next_tick) {
                if at > arrival {
                    break;
                }
                sweep.tick(at, control);
                next_tick = Some(at + d);
            }
            sweep.arrivals += 1;
            match control.on_arrival(arrival, &req) {
                AdmissionVerdict::Shed => {
                    sweep.shed.push(RequestOutcome {
                        id: req.id,
                        arrival,
                        status: RequestStatus::Shed,
                        completion: arrival,
                        body_bytes: 0,
                        background: req.background,
                    });
                    placement.push(None);
                    continue;
                }
                AdmissionVerdict::Throttle(rate) => {
                    req.client_downlink = req.client_downlink.min(rate.max(1.0));
                    sweep.throttled += 1;
                }
                AdmissionVerdict::Accept => {}
            }
            let replica = rotation % sweep.carry.active;
            rotation += 1;
            sweep.session(replica).push_request(req);
            placement.push(Some(replica));
        }

        // Drain, keeping ticks firing while work remains.
        if let (Some(d), Some(mut at)) = (tick, next_tick) {
            loop {
                sweep.step_all(at);
                if !sweep.has_pending_work() {
                    break;
                }
                sweep.tick(at, control);
                at += d;
            }
        }
        sweep.finish(placement)
    }
}

/// Mutable state of one sweep: the per-replica sessions, what the cluster
/// carries between runs, and the front-door counters.
struct Sweep<'e, 'c> {
    engine: &'e ServerEngine,
    carry: &'c mut Carry,
    /// One slot per replica index; a session opens when the replica is
    /// first routed to.
    sessions: Vec<Option<EngineSession<'e>>>,
    arrivals: u64,
    /// Outcomes of the requests shed at the front door, in arrival order.
    shed: Vec<RequestOutcome>,
    throttled: u64,
    /// Aggregate outbound capacity (active replicas × per-replica link)
    /// over time, so the reported `link_capacity` reflects mid-run
    /// scale-ups instead of only the end-of-run state.
    capacity_series: TimeWeighted,
    /// Latest virtual time the sweep stepped its sessions to.
    last_time: SimTime,
}

/// Aggregate outbound capacity: active replicas × per-replica link.
fn aggregate_capacity(engine: &ServerEngine, carry: &Carry) -> f64 {
    carry.active as f64 * engine.config().access_link
}

impl<'e, 'c> Sweep<'e, 'c> {
    fn new(engine: &'e ServerEngine, carry: &'c mut Carry, t0: SimTime) -> Self {
        carry.active = carry.active.max(1);
        let capacity = aggregate_capacity(engine, carry);
        Sweep {
            engine,
            carry,
            sessions: Vec::new(),
            arrivals: 0,
            shed: Vec::new(),
            throttled: 0,
            capacity_series: TimeWeighted::new(t0, capacity),
            last_time: t0,
        }
    }

    /// The session of `replica`, opened on first use with the replica's
    /// cache state borrowed from the pool (which grows as needed) and a
    /// spare set of buffers if there is one.
    fn session(&mut self, replica: usize) -> &mut EngineSession<'e> {
        if self.sessions.len() <= replica {
            self.sessions.resize_with(replica + 1, || None);
        }
        let carry = &mut *self.carry;
        if carry.caches.len() <= replica {
            carry.caches.resize_with(replica + 1, CacheState::new);
        }
        let engine = self.engine;
        self.sessions[replica].get_or_insert_with(|| {
            let cache = std::mem::take(&mut carry.caches[replica]);
            engine.session_on(carry.spare.pop(), cache)
        })
    }

    fn step_all(&mut self, now: SimTime) {
        for session in self.sessions.iter_mut().flatten() {
            session.run_until(now);
        }
        self.last_time = self.last_time.max(now);
    }

    fn has_pending_work(&self) -> bool {
        self.sessions
            .iter()
            .flatten()
            .any(|session| session.next_event_time().is_some())
    }

    fn sample(&self, now: SimTime) -> TickSample {
        let active = self.carry.active;
        let mut sample = TickSample::idle(now, active);
        sample.arrivals = self.arrivals;
        sample.shed = self.shed.len() as u64;
        // Load counters aggregate every session, including replicas retired
        // by a scale-down that are still draining in-flight work; the
        // utilization means, however, describe the *routable* fleet — a
        // still-booting replica counts as idle (it exists but has no
        // session yet) and a retired one no longer dilutes the average.
        for (replica, slot) in self.sessions.iter().enumerate() {
            let Some(session) = slot else { continue };
            sample.in_flight += session.in_flight();
            sample.busy_workers += u64::from(session.busy_workers());
            sample.queued += session.queued() as u64;
            sample.memory_used += session.memory_used();
            sample.completed += session.completed();
            sample.refused += session.refused();
            if replica < active {
                sample.cpu_utilization += session.cpu_utilization();
                sample.link_utilization += session.link_utilization();
            }
        }
        sample.cpu_utilization /= active as f64;
        sample.link_utilization /= active as f64;
        sample
    }

    /// Steps to `now`, hands the control loop a fresh telemetry sample and
    /// routes over the replica count it returns, if any.
    fn tick(&mut self, now: SimTime, control: &mut dyn ServerControl) {
        self.step_all(now);
        let sample = self.sample(now);
        if let Some(replicas) = control.on_tick(now, &sample) {
            self.carry.active = replicas.max(1);
            self.capacity_series
                .set(now, aggregate_capacity(self.engine, self.carry));
        }
    }

    /// Finishes every session, hands the warmed caches and the sessions'
    /// buffers back, and assembles the cluster's result with outcomes in
    /// arrival order.
    fn finish(self, placement: Vec<Option<usize>>) -> RunResult {
        let Sweep {
            carry,
            sessions,
            shed,
            throttled,
            capacity_series,
            last_time,
            ..
        } = self;
        let mut run_end = last_time;
        let mut parts: Vec<Option<RunResult>> = Vec::with_capacity(sessions.len());
        for (replica, slot) in sessions.into_iter().enumerate() {
            parts.push(slot.map(|session| {
                let start = session.start();
                let (result, cache, buffers) = session.finish_reusable();
                carry.caches[replica] = cache;
                carry.spare.push(buffers.cleared());
                run_end = run_end.max(start + result.utilization.window);
                result
            }));
        }

        let mut utilization =
            UtilizationReport::merge(parts.iter().flatten().map(|part| &part.utilization));
        utilization.shed_requests = shed.len() as u64;
        utilization.throttled_requests = throttled;
        utilization.link_capacity = capacity_series.average_until(run_end);

        // Each replica's outcomes are in its push order, so walking the
        // placements in arrival order takes them in turn.
        let mut per_replica: Vec<_> = parts
            .into_iter()
            .map(|part| part.map(|p| p.outcomes).unwrap_or_default().into_iter())
            .collect();
        let mut shed = shed.into_iter();
        let outcomes = placement
            .into_iter()
            .map(|slot| match slot {
                Some(replica) => per_replica[replica].next(),
                None => shed.next(),
            })
            .map(|outcome| outcome.expect("every arrival has exactly one outcome"))
            .collect();
        RunResult {
            outcomes,
            utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::NullControl;
    use crate::request::RequestClass;
    use mfc_simcore::SimDuration;

    /// The id `path` resolves to in the lab-validation catalog (whose base
    /// page, `/index.html`, is also the typical site's).
    fn lab_object(path: &str) -> Option<crate::ObjectId> {
        ContentCatalog::lab_validation().resolve(path)
    }

    fn head(id: u64) -> ServerRequest {
        ServerRequest {
            id,
            arrival: SimTime::ZERO,
            class: RequestClass::Head,
            object: lab_object("/index.html"),
            client_downlink: 1e7,
            client_rtt: SimDuration::from_millis(40),
            client_addr: id as u32,
            background: false,
        }
    }

    fn query(id: u64, path: &str) -> ServerRequest {
        ServerRequest {
            id,
            arrival: SimTime::ZERO,
            class: RequestClass::Dynamic,
            object: lab_object(path),
            client_downlink: 1e7,
            client_rtt: SimDuration::from_millis(40),
            client_addr: id as u32,
            background: false,
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = ServerCluster::new(
            ServerConfig::lab_apache(),
            ContentCatalog::lab_validation(),
            0,
        );
    }

    #[test]
    fn outcomes_keep_arrival_order() {
        let mut cluster = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            4,
        );
        let requests: Vec<ServerRequest> = (0..20).map(head).collect();
        let result = cluster.run(requests, &mut NullControl);
        let ids: Vec<u64> = result.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
        assert!(result
            .outcomes
            .iter()
            .all(|o| o.status == RequestStatus::Ok));
    }

    #[test]
    fn cluster_absorbs_load_better_than_single_server() {
        let config = ServerConfig::lab_apache();
        let catalog = ContentCatalog::lab_validation();
        let requests: Vec<ServerRequest> =
            (0..64).map(|i| query(i, "/cgi/stats?table=t1")).collect();

        let mut single = ServerCluster::new(config.clone(), catalog.clone(), 1);
        let single_result = single.run(requests.clone(), &mut NullControl);
        let mut cluster = ServerCluster::new(config, catalog, 16);
        let cluster_result = cluster.run(requests, &mut NullControl);

        let worst_single = single_result
            .outcomes
            .iter()
            .map(|o| o.latency())
            .max()
            .unwrap();
        let worst_cluster = cluster_result
            .outcomes
            .iter()
            .map(|o| o.latency())
            .max()
            .unwrap();
        assert!(
            worst_cluster < worst_single,
            "16 replicas must beat 1: {worst_cluster} vs {worst_single}"
        );
    }

    #[test]
    fn outcomes_cover_all_requests() {
        let mut cluster = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            3,
        );
        let result = cluster.run((0..9).map(head), &mut NullControl);
        assert_eq!(result.outcomes.len(), 9);
    }

    #[test]
    fn a_replica_count_from_a_tick_persists_across_runs() {
        use crate::control::{AdmissionVerdict, ServerControl, TickSample};

        /// Scales to a fixed target at the first tick.
        struct ScaleTo(usize);
        impl ServerControl for ScaleTo {
            fn tick_interval(&self) -> Option<SimDuration> {
                Some(SimDuration::from_millis(10))
            }
            fn on_arrival(&mut self, _: SimTime, _: &ServerRequest) -> AdmissionVerdict {
                AdmissionVerdict::Accept
            }
            fn on_tick(&mut self, _: SimTime, _: &TickSample) -> Option<usize> {
                Some(self.0)
            }
        }

        let mut cluster = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            2,
        );
        assert_eq!(cluster.active_replicas(), 2);
        let mut requests: Vec<ServerRequest> = (0..40).map(head).collect();
        // Spread arrivals so ticks interleave.
        for (i, r) in requests.iter_mut().enumerate() {
            r.arrival = SimTime::ZERO + SimDuration::from_millis(i as u64 * 5);
        }
        let result = cluster.run(requests, &mut ScaleTo(5));
        assert!(result.outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(cluster.active_replicas(), 5);
        // The caches grew to cover the provisioned replicas.
        assert!(cluster.caches().len() >= 5);
    }

    #[test]
    fn utilization_counters_are_aggregated() {
        let mut cluster = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            2,
        );
        let result = cluster.run((0..10).map(head), &mut NullControl);
        assert_eq!(result.utilization.completed_requests, 10);
        assert_eq!(result.utilization.refused_requests, 0);
    }

    #[test]
    fn round_robin_rotates_in_arrival_order() {
        let mut cluster = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            2,
        );
        // Arrival order 0, 1, 2, 3 alternates replicas 0, 1, 0, 1, so each
        // replica's first request is the one that warms its object cache.
        let requests: Vec<ServerRequest> = (0..4u64)
            .map(|i| {
                let mut r = query(i, "/index.html");
                r.class = RequestClass::Static;
                r.arrival = SimTime::ZERO + SimDuration::from_millis(100 * i);
                r
            })
            .collect();
        cluster.run(requests, &mut NullControl);
        assert!(cluster.caches().iter().all(|c| c.object_stats() == (1, 1)));
    }

    #[test]
    #[should_panic(expected = "requests must be time-ordered")]
    fn out_of_order_requests_are_rejected() {
        let mut cluster = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            2,
        );
        let mut late = head(0);
        late.arrival = SimTime::ZERO + SimDuration::from_millis(5);
        cluster.run(vec![late, head(1)], &mut NullControl);
    }

    #[test]
    fn a_cluster_of_one_reports_its_session_field_for_field() {
        // 3.3 MB/s × window / window rounds away from 3.3 MB/s for some
        // windows; the sweep of spacings below hits several of them.
        let config = ServerConfig {
            access_link: 3.3e6,
            ..ServerConfig::lab_apache()
        };
        let catalog = ContentCatalog::lab_validation();
        let engine = ServerEngine::new(config.clone(), catalog.clone());
        for spacing_us in (0..32u64).map(|k| 7_919 + 613 * k) {
            let requests: Vec<ServerRequest> = (0..24u64)
                .map(|i| {
                    let mut r = match i % 3 {
                        0 => head(i),
                        1 => query(i, "/cgi/stats?table=t1"),
                        _ => {
                            let mut r = query(i, "/objects/large_100k.bin");
                            r.class = RequestClass::Static;
                            r
                        }
                    };
                    r.arrival = SimTime::ZERO + SimDuration::from_micros(spacing_us * i);
                    r
                })
                .collect();
            let mut session = engine.session(CacheState::new());
            for request in &requests {
                session.push_request(*request);
            }
            let (alone, _) = session.finish();
            let result = ServerCluster::new(config.clone(), catalog.clone(), 1)
                .run(requests, &mut NullControl);
            assert_eq!(result.outcomes, alone.outcomes);
            assert_eq!(result.utilization, alone.utilization);
            assert_eq!(result.utilization.link_capacity, config.access_link);
        }
    }

    /// Sheds every other arrival and throttles the rest.
    struct ShedOdd;

    impl ServerControl for ShedOdd {
        fn tick_interval(&self) -> Option<SimDuration> {
            None
        }
        fn on_arrival(&mut self, _: SimTime, request: &ServerRequest) -> AdmissionVerdict {
            if request.id % 2 == 1 {
                AdmissionVerdict::Shed
            } else {
                AdmissionVerdict::Throttle(1e6)
            }
        }
        fn on_tick(&mut self, _: SimTime, _: &TickSample) -> Option<usize> {
            None
        }
    }

    #[test]
    fn shed_and_throttled_requests_are_counted_at_the_front_door() {
        let mut cluster = ServerCluster::new(
            ServerConfig::commercial_frontend(),
            ContentCatalog::typical_site(1),
            3,
        );
        let result = cluster.run((0..10).map(head), &mut ShedOdd);
        assert_eq!(result.utilization.shed_requests, 5);
        assert_eq!(result.utilization.throttled_requests, 5);
        assert_eq!(result.utilization.completed_requests, 5);
        assert_eq!(result.outcomes.len(), 10);
        let shed: Vec<u64> = result
            .outcomes
            .iter()
            .filter(|o| o.status == RequestStatus::Shed)
            .map(|o| o.id)
            .collect();
        assert_eq!(shed, vec![1, 3, 5, 7, 9]);
    }
}
