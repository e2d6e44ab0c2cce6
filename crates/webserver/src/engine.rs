//! The event-driven server simulation.
//!
//! An [`EngineSession`] pushes timed request arrivals (MFC requests plus
//! any background traffic) through one server's sub-systems — worker
//! admission, request parsing on the CPU, static content from cache or
//! disk, dynamic content through the configured handler and the database,
//! and finally the response transfer over the shared access link — and
//! reports when every response reached its client together with a
//! resource-utilization snapshot.  [`crate::ServerCluster::run`] is the
//! way to run a server: it opens one session per replica it routes to (a
//! single server is a cluster of one).
//!
//! The per-request pipeline is:
//!
//! ```text
//!   arrival ──► worker admission ──► parse (CPU) ──┬─► HEAD: respond
//!        (listen queue / refuse)                   ├─► static: cache? ──► disk ──► transfer
//!                                                  └─► dynamic: handler ──► DB ──► transfer
//!   transfer: shared access link (max–min fair) + client downlink + TCP window
//! ```
//!
//! Everything that can make a response slower under load — processor
//! sharing on the CPU, serialization at the disk, handler and connection
//! pools, memory overcommit, link sharing — emerges from this pipeline; the
//! MFC layer above only ever sees the resulting response times.

use std::collections::VecDeque;
use std::sync::OnceLock;

use mfc_simcore::{SimDuration, SimTime, TimeWeighted};
use mfc_simnet::FlowId;
use mfc_topology::{BuiltTopology, TopologySpec};

use crate::cache::CacheState;
use crate::config::{DynamicHandler, ServerConfig};
use crate::content::{ContentCatalog, ObjectId, ObjectSpec};
use crate::request::{RequestClass, RequestOutcome, RequestStatus, ServerRequest};
use crate::resource::{FifoResource, MemoryTracker, PsResource, SlotPool};
use crate::telemetry::UtilizationReport;

/// Result of one server run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-request outcomes, in arrival (push) order.
    pub outcomes: Vec<RequestOutcome>,
    /// Server resource usage over the run window.
    pub utilization: UtilizationReport,
}

/// A configured simulated server: its configuration, hosted content and
/// WAN topology.  [`ServerEngine::session`] opens a run against it;
/// [`crate::ServerCluster`] does that for each of its replicas.
///
/// # Examples
///
/// ```
/// use mfc_simcore::{SimDuration, SimTime};
/// use mfc_webserver::{ContentCatalog, NullControl, RequestClass, ServerCluster, ServerConfig,
///                     ServerRequest};
///
/// // A single server is a cluster of one.
/// let catalog = ContentCatalog::lab_validation();
/// let req = ServerRequest {
///     id: 1,
///     arrival: SimTime::ZERO,
///     class: RequestClass::Head,
///     object: catalog.resolve("/index.html"),
///     client_downlink: 1e7,
///     client_rtt: SimDuration::from_millis(40),
///     client_addr: 1,
///     background: false,
/// };
/// let mut server = ServerCluster::new(ServerConfig::lab_apache(), catalog, 1);
/// let result = server.run(vec![req], &mut NullControl);
/// assert!(result.outcomes[0].is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ServerEngine {
    config: ServerConfig,
    catalog: ContentCatalog,
    topology: TopologySpec,
    /// The WAN graph every session starts from: `topology` built around the
    /// access link, with its persistent cross traffic already running.
    /// Built on the first [`ServerEngine::session`] and cloned by every
    /// session after it.
    network: OnceLock<BuiltTopology>,
}

impl ServerEngine {
    /// Creates an engine for a server with the given configuration and
    /// hosted content, reached directly over its access link (no shared
    /// wide-area bottlenecks).
    pub fn new(config: ServerConfig, catalog: ContentCatalog) -> Self {
        ServerEngine {
            config,
            catalog,
            topology: TopologySpec::direct(),
            network: OnceLock::new(),
        }
    }

    /// Places the given shared-bottleneck WAN topology between the clients
    /// and this server's access link: response transfers are routed over
    /// each client's vantage-group transit link (plus optional backbone and
    /// cross traffic) and the access link, all sharing max–min fairly.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.set_topology(topology);
        self
    }

    /// In-place form of [`ServerEngine::with_topology`].
    pub fn set_topology(&mut self, topology: TopologySpec) {
        topology.validate().expect("invalid topology spec");
        self.topology = topology;
        self.network = OnceLock::new();
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The hosted content.
    pub fn catalog(&self) -> &ContentCatalog {
        &self.catalog
    }

    /// The WAN topology in front of the server.
    pub fn topology(&self) -> &TopologySpec {
        &self.topology
    }

    /// Opens a tick-driven session against this server.  The session owns
    /// the cache state for its duration; [`EngineSession::finish`] hands it
    /// back warmed.
    pub fn session(&self, cache: CacheState) -> EngineSession<'_> {
        self.session_on(None, cache)
    }

    /// Opens a session on buffers an earlier session of this engine left
    /// behind ([`EngineSession::finish_reusable`]), cleared, or on new ones.
    pub(crate) fn session_on(
        &self,
        buffers: Option<SessionBuffers>,
        cache: CacheState,
    ) -> EngineSession<'_> {
        let buffers = buffers.unwrap_or_else(|| self.new_buffers());
        EngineSession::new(&self.config, &self.catalog, &self.topology, buffers, cache)
    }

    fn new_buffers(&self) -> SessionBuffers {
        let hardware = &self.config.hardware;
        SessionBuffers {
            requests: Vec::new(),
            workers: SlotPool::new(self.config.workers.max_workers),
            disk_done: VecDeque::new(),
            cpu: PsResource::new(
                f64::from(hardware.cpu_cores) * hardware.cpu_speed,
                hardware.cpu_speed.max(f64::EPSILON),
            ),
            net: self.network.get_or_init(|| self.build_network()).clone(),
        }
    }

    /// Instantiates the topology around the access link and starts its
    /// persistent cross traffic.
    fn build_network(&self) -> BuiltTopology {
        let mut net = self.topology.build(self.config.access_link);
        start_cross_traffic(&mut net);
        net
    }
}

/// Starts a built topology's persistent cross traffic, which occupies the
/// transit links from the start of time; the flows never complete and
/// never surface as request completions.
fn start_cross_traffic(net: &mut BuiltTopology) {
    let mut cross_seq = CROSS_FLOW_BASE;
    for &(route, count, rate) in &net.cross {
        for _ in 0..count {
            net.graph
                .start_flow(FlowId(cross_seq), route, f64::INFINITY, rate, SimTime::ZERO);
            cross_seq += 1;
        }
    }
}

/// The allocations a session fills, kept by [`crate::ServerCluster`] so
/// its next run's sessions reuse them: the request and disk-completion
/// buffers, the worker pool with its listen queue, the CPU and the WAN
/// graph.
#[derive(Debug, Clone)]
pub(crate) struct SessionBuffers {
    requests: Vec<InFlight>,
    workers: SlotPool,
    disk_done: VecDeque<(SimTime, usize)>,
    cpu: PsResource,
    net: BuiltTopology,
}

impl SessionBuffers {
    /// Empties the buffers and resets the CPU and the graph, with the cross
    /// traffic restarted at time zero: afterwards they equal new ones.
    pub(crate) fn cleared(mut self) -> Self {
        self.requests.clear();
        self.workers.reset();
        self.disk_done.clear();
        self.cpu.reset();
        self.net.graph.reset();
        start_cross_traffic(&mut self.net);
        self
    }
}

/// Phase a request is currently in; used to route resource-completion
/// events back to the right next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting in the listen queue for a worker.
    AwaitWorker,
    /// Parsing / basic HTTP processing on the CPU.
    Parse,
    /// Fork-per-request handler start-up on the CPU.
    Fork,
    /// Waiting for a persistent-pool handler slot.
    AwaitHandler,
    /// Waiting for a database connection slot.
    AwaitDb,
    /// Executing the database query on the CPU.
    Db,
    /// Response bytes in flight on the access link.
    Transfer,
    /// Finished (outcome recorded).
    Done,
}

#[derive(Debug, Clone)]
struct InFlight {
    req: ServerRequest,
    phase: Phase,
    body_bytes: u64,
    /// Memory charged for a fork-per-request handler, released at the end.
    fork_memory: u64,
    /// Whether this request occupies a persistent-pool handler slot.
    holds_handler: bool,
    /// Whether this request occupies a database connection slot.
    holds_db: bool,
    /// Database CPU work (seconds) computed when the query was classified,
    /// consumed when a connection slot is obtained.
    pending_db_work: f64,
    /// Extra latency added to the response completion for TCP slow start.
    slow_start: SimDuration,
    outcome: Option<RequestOutcome>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    CpuCheck,
    NetCheck,
    DiskDone(usize),
}

/// A tick-driven, incrementally-fed run of one server — the per-replica
/// building block of [`crate::ServerCluster::run`].
///
/// A session accepts request arrivals in time order while it is running
/// ([`EngineSession::push_request`]), advances virtual time in bounded
/// steps ([`EngineSession::run_until`]) and exposes instantaneous telemetry
/// between steps, which is what a control loop's ticks read.  Its link and
/// CPU keep their configured capacity for the whole session.
///
/// The next engine event is the earliest of three sources: the FIFO of
/// disk completions, the time the CPU next completes a task and the time
/// the network next completes a transfer.  The two checks are re-armed
/// after every event.  Completions at one instant run in a fixed order:
/// disk, then CPU, then network.  Pushed arrivals wait in a FIFO of their
/// own, and an arrival at time *t* runs before any engine event at *t*.
/// Stepping therefore never changes a result: a session stepped after
/// every push ends exactly like one that is only
/// [finished](EngineSession::finish).
///
/// # Examples
///
/// ```
/// use mfc_simcore::{SimDuration, SimTime};
/// use mfc_webserver::{CacheState, ContentCatalog, RequestClass, ServerConfig, ServerEngine,
///                     ServerRequest};
///
/// let engine = ServerEngine::new(ServerConfig::lab_apache(), ContentCatalog::lab_validation());
/// let object = engine.catalog().resolve("/index.html");
/// let mut session = engine.session(CacheState::new());
/// session.push_request(ServerRequest {
///     id: 1,
///     arrival: SimTime::ZERO,
///     class: RequestClass::Head,
///     object,
///     client_downlink: 1e7,
///     client_rtt: SimDuration::from_millis(40),
///     client_addr: 1,
///     background: false,
/// });
/// // At t=0 the request has been admitted and is parsing on the CPU.
/// session.run_until(SimTime::ZERO);
/// assert_eq!(session.in_flight(), 1);
/// assert_eq!(session.busy_workers(), 1);
/// let (result, _cache) = session.finish();
/// assert!(result.outcomes[0].is_ok());
/// ```
pub struct EngineSession<'a> {
    config: &'a ServerConfig,
    catalog: &'a ContentCatalog,
    cache: CacheState,
    requests: Vec<InFlight>,
    /// The arrival FIFO: `requests[next_arrival..]` have been pushed but
    /// not yet admitted.
    next_arrival: usize,
    /// The worker slots; its wait queue is the listen queue.
    workers: SlotPool,
    handler_pool: SlotPool,
    db_pool: SlotPool,
    cpu: PsResource,
    disk: FifoResource,
    /// Disk completions `(time, request)` in enqueue order.  The disk
    /// serves one read at a time, so the times never decrease.
    disk_done: VecDeque<(SimTime, usize)>,
    memory: MemoryTracker,
    /// The WAN graph responses cross: the access link at the root, plus
    /// any shared transit/backbone links (and persistent cross traffic)
    /// from the engine's topology.
    net: BuiltTopology,
    topology: &'a TopologySpec,
    /// When the CPU and the network next complete work, as last armed.
    cpu_check: Option<SimTime>,
    net_check: Option<SimTime>,
    now: SimTime,
    start: SimTime,
    end: SimTime,
    busy_workers: TimeWeighted,
    memory_series: TimeWeighted,
    refused: u64,
    completed: u64,
    /// Requests whose outcome has been recorded (any status).
    settled: u64,
}

/// Flow ids at or above this value belong to persistent cross-traffic
/// flows injected from the topology spec; they never complete, so they can
/// never collide with a request's local (push-order) index.
const CROSS_FLOW_BASE: u64 = 1 << 62;

impl<'a> EngineSession<'a> {
    fn new(
        config: &'a ServerConfig,
        catalog: &'a ContentCatalog,
        topology: &'a TopologySpec,
        buffers: SessionBuffers,
        cache: CacheState,
    ) -> Self {
        let handler_capacity = match config.dynamic_handler {
            DynamicHandler::ForkPerRequest { .. } => u32::MAX,
            DynamicHandler::PersistentPool { pool_size, .. } => pool_size,
        };
        let mut memory = MemoryTracker::new(config.hardware.ram_bytes, config.swap_penalty);
        memory.allocate(config.baseline_memory);
        if let DynamicHandler::PersistentPool { pool_memory, .. } = config.dynamic_handler {
            memory.allocate(pool_memory);
        }
        EngineSession {
            config,
            catalog,
            cache,
            requests: buffers.requests,
            next_arrival: 0,
            workers: buffers.workers,
            handler_pool: SlotPool::new(handler_capacity),
            db_pool: SlotPool::new(config.database.max_concurrent_queries),
            cpu: buffers.cpu,
            disk: FifoResource::new(),
            disk_done: buffers.disk_done,
            memory,
            net: buffers.net,
            topology,
            cpu_check: None,
            net_check: None,
            now: SimTime::ZERO,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            busy_workers: TimeWeighted::new(SimTime::ZERO, 0.0),
            memory_series: TimeWeighted::new(SimTime::ZERO, 0.0),
            refused: 0,
            completed: 0,
            settled: 0,
        }
    }

    /// Submits a request to the session.  Outcomes are reported in push
    /// order by [`EngineSession::finish`].  The first push anchors the
    /// session's window at its arrival.
    ///
    /// # Panics
    ///
    /// Panics if the arrival precedes an earlier push or the time the
    /// session has already been stepped to.
    pub fn push_request(&mut self, request: ServerRequest) {
        let floor = self
            .requests
            .last()
            .map_or(self.now, |last| last.req.arrival.max(self.now));
        assert!(
            request.arrival >= floor,
            "request {} arrives at {}, before {floor}: pushes must be time-ordered",
            request.id,
            request.arrival
        );
        if self.requests.is_empty() {
            self.start = request.arrival;
            self.now = request.arrival;
            self.end = request.arrival;
            self.busy_workers = TimeWeighted::new(self.start, 0.0);
            self.memory_series = TimeWeighted::new(self.start, self.memory.used() as f64);
        }
        self.requests.push(InFlight {
            req: request,
            phase: Phase::AwaitWorker,
            body_bytes: 0,
            fork_memory: 0,
            holds_handler: false,
            holds_db: false,
            pending_db_work: 0.0,
            slow_start: SimDuration::ZERO,
            outcome: None,
        });
    }

    /// Admits every pushed arrival at or before `limit`, processes every
    /// engine event strictly before it, and advances the session clock to
    /// `limit`, so telemetry reads are instantaneous at that time.  Events
    /// at `limit` itself wait, because an arrival pushed at `limit` later
    /// must still run before them.
    pub fn run_until(&mut self, limit: SimTime) {
        self.process(Some(limit));
        self.now = self.now.max(limit);
    }

    /// The time of the next pending arrival or event, if any work remains.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let event = self.next_event().map(|(time, _)| time);
        match self.requests.get(self.next_arrival) {
            Some(pending) => {
                Some(event.map_or(pending.req.arrival, |t| t.min(pending.req.arrival)))
            }
            None => event,
        }
    }

    /// The session's window start: the arrival of its first push.
    pub(crate) fn start(&self) -> SimTime {
        self.start
    }

    /// Requests admitted to the session whose outcome is not yet recorded.
    pub fn in_flight(&self) -> u64 {
        self.requests.len() as u64 - self.settled
    }

    /// Busy worker slots right now.
    pub fn busy_workers(&self) -> u32 {
        self.workers.busy()
    }

    /// Connections waiting in the listen queue right now.
    pub fn queued(&self) -> usize {
        self.workers.queued()
    }

    /// Instantaneous CPU utilization in 0–1.
    pub fn cpu_utilization(&self) -> f64 {
        self.cpu.utilization()
    }

    /// Instantaneous access-link utilization in 0–1.
    pub fn link_utilization(&self) -> f64 {
        let access = self.net.access;
        (self.net.graph.link_utilization_bytes_per_sec(access)
            / self.net.graph.link_capacity(access))
        .clamp(0.0, 1.0)
    }

    /// Resident memory in bytes right now.
    pub fn memory_used(&self) -> u64 {
        self.memory.used()
    }

    /// Requests completed successfully so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests refused by listen-queue overflow so far.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Runs the session to completion and returns the merged result plus
    /// the warmed cache state.
    pub fn finish(self) -> (RunResult, CacheState) {
        let (result, cache, _) = self.finish_reusable();
        (result, cache)
    }

    /// [`Self::finish`], also handing back the session's buffers for the
    /// next session to reuse.
    pub(crate) fn finish_reusable(mut self) -> (RunResult, CacheState, SessionBuffers) {
        self.process(None);
        self.into_result()
    }

    /// The next engine event and its time: on a tie, a disk completion
    /// first, then the CPU check, then the network check.
    fn next_event(&self) -> Option<(SimTime, Event)> {
        let cpu = self.cpu_check.map(|time| (time, Event::CpuCheck));
        let net = self.net_check.map(|time| (time, Event::NetCheck));
        let mut next = self
            .disk_done
            .front()
            .map(|&(time, idx)| (time, Event::DiskDone(idx)));
        // Only a strictly earlier time displaces an earlier source.
        for candidate in [cpu, net].into_iter().flatten() {
            if next.is_none_or(|(time, _)| candidate.0 < time) {
                next = Some(candidate);
            }
        }
        next
    }

    /// Runs arrivals and events in time order, an arrival first on a tie,
    /// up to `limit` (see [`EngineSession::run_until`]) or, given `None`,
    /// until no work remains.
    fn process(&mut self, limit: Option<SimTime>) {
        loop {
            let event = self.next_event();
            let arrival = self
                .requests
                .get(self.next_arrival)
                .map(|pending| pending.req.arrival)
                .filter(|&t| limit.is_none_or(|limit| t <= limit))
                .filter(|&t| event.is_none_or(|(e, _)| t <= e));
            let time = if let Some(time) = arrival {
                self.now = self.now.max(time);
                self.next_arrival += 1;
                self.on_arrival(self.next_arrival - 1);
                time
            } else {
                match event {
                    Some((time, event)) if limit.is_none_or(|limit| time < limit) => {
                        self.now = self.now.max(time);
                        match event {
                            Event::CpuCheck => self.on_cpu_check(),
                            Event::NetCheck => self.on_net_check(),
                            Event::DiskDone(idx) => {
                                self.disk_done.pop_front();
                                self.on_disk_done(idx);
                            }
                        }
                        time
                    }
                    _ => return,
                }
            };
            self.end = self.end.max(time);
            self.arm_checks();
        }
    }

    fn on_arrival(&mut self, idx: usize) {
        let req = &self.requests[idx].req;
        // Unknown paths are rejected before consuming a worker; HEAD
        // requests are always served against the base page.
        if req.class != RequestClass::Head && req.object.is_none() {
            self.complete(idx, RequestStatus::NotFound, self.now, 0);
            return;
        }
        if self.workers.try_acquire() {
            self.admit(idx);
        } else if self.workers.queued() < self.config.workers.listen_queue as usize {
            self.workers.enqueue(idx as u64);
        } else {
            self.refused += 1;
            self.complete(idx, RequestStatus::Refused, self.now, 0);
        }
    }

    /// A worker slot has been assigned to request `idx`: charge its memory
    /// and start parsing.
    fn admit(&mut self, idx: usize) {
        self.memory.allocate(self.config.workers.memory_per_worker);
        self.sample_gauges();
        self.requests[idx].phase = Phase::Parse;
        // HEAD requests (and GETs of the base page) still require the
        // server to render the base page, so they carry its generation
        // cost in addition to the per-request protocol overhead.
        let base_page_cost = if self.requests[idx].req.class == RequestClass::Head
            || self.requests[idx].req.object == Some(ObjectId::BASE_PAGE)
        {
            self.config.workers.base_page_cpu
        } else {
            0.0
        };
        let work = (self.config.workers.per_request_cpu + base_page_cost) * self.memory.slowdown();
        self.cpu.add_task(idx as u64, work, self.now);
    }

    fn on_cpu_check(&mut self) {
        while let Some((time, id)) = self.cpu.peek_completion() {
            if time > self.now {
                break;
            }
            self.cpu.remove_task(id, self.now);
            let idx = id as usize;
            match self.requests[idx].phase {
                Phase::Parse => self.after_parse(idx),
                Phase::Fork => self.enter_db_stage(idx),
                Phase::Db => self.after_db(idx),
                other => unreachable!("unexpected CPU completion in phase {other:?}"),
            }
        }
    }

    fn after_parse(&mut self, idx: usize) {
        let class = self.requests[idx].req.class;
        match class {
            RequestClass::Head => {
                // Headers only: the response fits in one segment; treat the
                // send as instantaneous at server side and account only for
                // the propagation back to the client.
                let rtt = self.requests[idx].req.client_rtt;
                let completion = self.now + rtt.mul_f64(0.5);
                self.release_worker(idx);
                self.complete(idx, RequestStatus::Ok, completion, 0);
            }
            RequestClass::Static => {
                let (id, object) = self.object_of(idx);
                let size = object.size_bytes;
                self.requests[idx].body_bytes = size;
                if self.cache.object_lookup(id, &self.config.object_cache) {
                    self.start_transfer(idx);
                } else {
                    let service_secs = self.config.hardware.disk_seek.as_secs_f64()
                        + size as f64 / self.config.hardware.disk_bandwidth;
                    let service = SimDuration::from_secs_f64(service_secs * self.memory.slowdown());
                    let done = self.now + self.disk.enqueue(self.now, service);
                    debug_assert!(self.disk_done.back().is_none_or(|&(last, _)| last <= done));
                    self.disk_done.push_back((done, idx));
                }
            }
            RequestClass::Dynamic => {
                let (id, object) = self.object_of(idx);
                let (rows, cacheable) = (object.db_rows, object.cacheable);
                self.requests[idx].body_bytes = object.size_bytes;
                // Pre-compute the database work so the query-cache decision
                // is made at classification time (the hit/miss counters then
                // reflect what the back end actually did).
                let db = &self.config.database;
                let work = if self.cache.query_lookup(id, cacheable, db) {
                    db.cache_hit_cpu
                } else {
                    self.cache.query_insert(id, cacheable, db);
                    db.base_query_cpu + rows as f64 / 1_000.0 * db.cpu_per_1k_rows
                };
                self.requests[idx].pending_db_work = work;
                match self.config.dynamic_handler {
                    DynamicHandler::ForkPerRequest {
                        memory_per_process,
                        fork_cpu,
                    } => {
                        self.requests[idx].fork_memory = memory_per_process;
                        self.memory.allocate(memory_per_process);
                        self.sample_gauges();
                        self.requests[idx].phase = Phase::Fork;
                        let work = fork_cpu * self.memory.slowdown();
                        self.cpu.add_task(idx as u64, work, self.now);
                    }
                    DynamicHandler::PersistentPool { .. } => {
                        if self.handler_pool.try_acquire() {
                            self.requests[idx].holds_handler = true;
                            self.enter_db_stage(idx);
                        } else {
                            self.requests[idx].phase = Phase::AwaitHandler;
                            self.handler_pool.enqueue(idx as u64);
                        }
                    }
                }
            }
        }
    }

    /// The catalog object a static or dynamic request `idx` names, which
    /// [`Self::on_arrival`] checked it has.
    fn object_of(&self, idx: usize) -> (ObjectId, &'a ObjectSpec) {
        let id = self.requests[idx].req.object.expect("checked at arrival");
        (id, self.catalog.object(id))
    }

    /// The request has a handler (forked or pooled) and now needs a
    /// database connection.
    fn enter_db_stage(&mut self, idx: usize) {
        if self.db_pool.try_acquire() {
            self.requests[idx].holds_db = true;
            self.start_db_work(idx);
        } else {
            self.requests[idx].phase = Phase::AwaitDb;
            self.db_pool.enqueue(idx as u64);
        }
    }

    fn start_db_work(&mut self, idx: usize) {
        self.requests[idx].phase = Phase::Db;
        let work = self.requests[idx].pending_db_work * self.memory.slowdown();
        self.cpu.add_task(idx as u64, work, self.now);
    }

    fn after_db(&mut self, idx: usize) {
        // Release the database connection and hand it to the next waiter.
        if self.requests[idx].holds_db {
            self.requests[idx].holds_db = false;
            if let Some(next) = self.db_pool.release_and_next() {
                let next_idx = next as usize;
                self.requests[next_idx].holds_db = true;
                self.start_db_work(next_idx);
            }
        }
        // A pooled handler is done once the content is generated; a forked
        // handler keeps its memory until the response is fully sent.
        if self.requests[idx].holds_handler {
            self.requests[idx].holds_handler = false;
            if let Some(next) = self.handler_pool.release_and_next() {
                let next_idx = next as usize;
                self.requests[next_idx].holds_handler = true;
                self.enter_db_stage(next_idx);
            }
        }
        self.start_transfer(idx);
    }

    fn on_disk_done(&mut self, idx: usize) {
        let (id, _) = self.object_of(idx);
        let bytes = self.requests[idx].body_bytes;
        self.cache
            .object_insert(id, bytes, &self.config.object_cache);
        self.start_transfer(idx);
    }

    fn start_transfer(&mut self, idx: usize) {
        let bytes = self.requests[idx].body_bytes;
        let rtt = self.requests[idx].req.client_rtt;
        if bytes == 0 {
            let completion = self.now + rtt.mul_f64(0.5);
            self.release_worker(idx);
            self.complete(idx, RequestStatus::Ok, completion, 0);
            return;
        }
        self.requests[idx].phase = Phase::Transfer;
        self.requests[idx].slow_start = self.config.tcp.slow_start_delay(bytes, rtt);
        let cap = self.requests[idx]
            .req
            .client_downlink
            .min(self.config.tcp.window_limited_rate(rtt));
        // The response crosses the client's vantage group's route: its
        // shared transit link(s) plus the access link.  The client's own
        // downlink and TCP window stay a private per-flow cap.  Background
        // requests come from unrelated clients all over the Internet, not
        // from behind the probe groups' transit links, so they take the
        // backbone + access route only.
        let route = if self.requests[idx].req.background {
            self.net.background_route
        } else {
            let group = self.topology.group_of(self.requests[idx].req.client_addr);
            self.net.group_routes[group]
        };
        self.net
            .graph
            .start_flow(FlowId(idx as u64), route, bytes as f64, cap, self.now);
    }

    fn on_net_check(&mut self) {
        while let Some((time, flow)) = self.net.graph.peek_completion() {
            if time > self.now {
                break;
            }
            self.net.graph.finish_flow(flow, self.now);
            debug_assert!(
                flow.0 < CROSS_FLOW_BASE,
                "a persistent cross-traffic flow can never complete"
            );
            let idx = flow.0 as usize;
            let inflight = &self.requests[idx];
            let completion = self.now + inflight.slow_start + inflight.req.client_rtt.mul_f64(0.5);
            let bytes = inflight.body_bytes;
            self.release_worker(idx);
            self.complete(idx, RequestStatus::Ok, completion, bytes);
        }
    }

    /// Frees the worker slot held by `idx` (and any fork-per-request
    /// memory), then admits the next queued connection if there is one.
    fn release_worker(&mut self, idx: usize) {
        self.memory.release(self.config.workers.memory_per_worker);
        let fork_memory = self.requests[idx].fork_memory;
        if fork_memory > 0 {
            self.memory.release(fork_memory);
            self.requests[idx].fork_memory = 0;
        }
        self.sample_gauges();
        // The released slot passes to the head of the listen queue.
        if let Some(next) = self.workers.release_and_next() {
            self.admit(next as usize);
        }
    }

    fn complete(&mut self, idx: usize, status: RequestStatus, completion: SimTime, bytes: u64) {
        let inflight = &mut self.requests[idx];
        debug_assert!(inflight.outcome.is_none(), "request completed twice");
        inflight.phase = Phase::Done;
        inflight.outcome = Some(RequestOutcome {
            id: inflight.req.id,
            arrival: inflight.req.arrival,
            status,
            completion,
            body_bytes: bytes,
            background: inflight.req.background,
        });
        if status == RequestStatus::Ok {
            self.completed += 1;
        }
        self.settled += 1;
        self.end = self.end.max(completion).max(self.now);
    }

    fn sample_gauges(&mut self) {
        self.busy_workers
            .set(self.now, f64::from(self.workers.busy()));
        self.memory_series.set(self.now, self.memory.used() as f64);
    }

    // The checks are armed from the pure peeks: completion times are
    // absolute and stable between resource mutations, so there is no need
    // to advance the fluid models on every event just to read the next
    // deadline.

    fn arm_checks(&mut self) {
        self.cpu_check = self
            .cpu
            .peek_completion()
            .map(|(time, _)| time.max(self.now));
        self.net_check = self
            .net
            .graph
            .peek_completion()
            .map(|(time, _)| time.max(self.now));
    }

    fn into_result(mut self) -> (RunResult, CacheState, SessionBuffers) {
        let window = self.end.saturating_since(self.start);
        let cpu_capacity =
            f64::from(self.config.hardware.cpu_cores) * self.config.hardware.cpu_speed;
        let cpu_utilization = if window.as_secs_f64() > 0.0 {
            (self.cpu.work_done() / (cpu_capacity * window.as_secs_f64())).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let utilization = UtilizationReport {
            window,
            cpu_utilization,
            peak_memory_bytes: self.memory.peak(),
            mean_memory_bytes: self.memory_series.average_until(self.end),
            network_bytes_sent: self.net.graph.link_bytes_transferred(self.net.access) as u64,
            disk_operations: self.disk.operations(),
            mean_busy_workers: self.busy_workers.average_until(self.end),
            peak_busy_workers: self.workers.peak_busy(),
            refused_requests: self.refused,
            completed_requests: self.completed,
            shed_requests: 0,
            throttled_requests: 0,
            link_capacity: self.net.graph.link_capacity(self.net.access),
        };
        let mut outcomes = Vec::with_capacity(self.requests.len());
        for inflight in &mut self.requests {
            let outcome = inflight.outcome.take().unwrap_or(RequestOutcome {
                id: inflight.req.id,
                arrival: inflight.req.arrival,
                status: RequestStatus::Refused,
                completion: inflight.req.arrival,
                body_bytes: 0,
                background: inflight.req.background,
            });
            outcomes.push(outcome);
        }
        let buffers = SessionBuffers {
            requests: self.requests,
            workers: self.workers,
            disk_done: self.disk_done,
            cpu: self.cpu,
            net: self.net,
        };
        (
            RunResult {
                outcomes,
                utilization,
            },
            self.cache,
            buffers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ServerCluster;
    use crate::config::{DatabaseConfig, HardwareSpec, ObjectCacheConfig, WorkerConfig};
    use crate::control::NullControl;
    use mfc_simnet::mbps;

    /// The id `path` resolves to in the lab-validation catalog every test
    /// server here hosts.
    fn lab_object(path: &str) -> Option<ObjectId> {
        ContentCatalog::lab_validation().resolve(path)
    }

    fn head_request(id: u64, at_ms: u64) -> ServerRequest {
        ServerRequest {
            id,
            arrival: SimTime::ZERO + SimDuration::from_millis(at_ms),
            class: RequestClass::Head,
            object: lab_object("/index.html"),
            client_downlink: 1e7,
            client_rtt: SimDuration::from_millis(40),
            client_addr: id as u32,
            background: false,
        }
    }

    fn static_request(id: u64, at_ms: u64, path: &str) -> ServerRequest {
        ServerRequest {
            id,
            arrival: SimTime::ZERO + SimDuration::from_millis(at_ms),
            class: RequestClass::Static,
            object: lab_object(path),
            client_downlink: 1e8,
            client_rtt: SimDuration::from_millis(40),
            client_addr: id as u32,
            background: false,
        }
    }

    fn query_request(id: u64, at_ms: u64, path: &str) -> ServerRequest {
        ServerRequest {
            id,
            arrival: SimTime::ZERO + SimDuration::from_millis(at_ms),
            class: RequestClass::Dynamic,
            object: lab_object(path),
            client_downlink: 1e8,
            client_rtt: SimDuration::from_millis(40),
            client_addr: id as u32,
            background: false,
        }
    }

    /// A single server: a cluster of one, keeping its cache across runs.
    fn server(config: ServerConfig) -> ServerCluster {
        ServerCluster::new(config, ContentCatalog::lab_validation(), 1)
    }

    fn lab_server() -> ServerCluster {
        server(ServerConfig::lab_apache())
    }

    /// Runs `requests` (already time-ordered) on `server` as a static target.
    fn run(server: &mut ServerCluster, requests: Vec<ServerRequest>) -> RunResult {
        server.run(requests, &mut NullControl)
    }

    /// Runs `requests` through one fresh session of `engine`.
    fn run_session(engine: &ServerEngine, requests: Vec<ServerRequest>) -> RunResult {
        let mut session = engine.session(CacheState::new());
        for request in requests {
            session.push_request(request);
        }
        session.finish().0
    }

    #[test]
    fn head_request_completes_quickly() {
        let result = run(&mut lab_server(), vec![head_request(1, 0)]);
        let outcome = &result.outcomes[0];
        assert!(outcome.is_ok());
        assert_eq!(outcome.body_bytes, 0);
        // Parse cost + half an RTT: well under 50 ms.
        assert!(outcome.latency() < SimDuration::from_millis(50));
    }

    #[test]
    fn unknown_path_is_not_found() {
        let result = run(
            &mut lab_server(),
            vec![static_request(1, 0, "/no/such/file")],
        );
        assert_eq!(result.outcomes[0].status, RequestStatus::NotFound);
    }

    #[test]
    fn static_request_cold_then_warm_cache() {
        let mut server = lab_server();
        let cold = run(
            &mut server,
            vec![static_request(1, 0, "/objects/large_100k.bin")],
        );
        let warm = run(
            &mut server,
            vec![static_request(2, 0, "/objects/large_100k.bin")],
        );
        assert!(cold.outcomes[0].is_ok());
        assert!(warm.outcomes[0].is_ok());
        // The warm run skips the disk.
        assert_eq!(cold.utilization.disk_operations, 1);
        assert_eq!(warm.utilization.disk_operations, 0);
        assert!(warm.outcomes[0].latency() <= cold.outcomes[0].latency());
    }

    #[test]
    fn concurrent_large_transfers_share_the_access_link() {
        let mut server = lab_server();
        // Warm the cache so the disk is out of the picture.
        run(
            &mut server,
            vec![static_request(0, 0, "/objects/large_100k.bin")],
        );
        let single = run(
            &mut server,
            vec![static_request(1, 0, "/objects/large_100k.bin")],
        );
        let crowd: Vec<ServerRequest> = (0..30)
            .map(|i| static_request(100 + i, 0, "/objects/large_100k.bin"))
            .collect();
        let crowded = run(&mut server, crowd);
        let single_latency = single.outcomes[0].latency();
        let median_crowded = {
            let mut latencies: Vec<f64> = crowded
                .outcomes
                .iter()
                .map(|o| o.latency().as_millis_f64())
                .collect();
            latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
            latencies[latencies.len() / 2]
        };
        assert!(
            median_crowded > 3.0 * single_latency.as_millis_f64(),
            "30 concurrent 100KB transfers over 10 Mbit/s must contend: single={}ms crowd={}ms",
            single_latency.as_millis_f64(),
            median_crowded
        );
        // All bytes were accounted for on the link (allowing sub-byte fluid
        // rounding per flow).
        assert!(crowded.utilization.network_bytes_sent >= 30 * 100 * 1024 - 30);
    }

    #[test]
    fn query_cache_makes_repeated_queries_cheap() {
        let mut server = lab_server();
        let first = run(
            &mut server,
            vec![query_request(1, 0, "/cgi/stats?table=t1")],
        );
        let second = run(
            &mut server,
            vec![query_request(2, 0, "/cgi/stats?table=t1")],
        );
        assert!(first.outcomes[0].is_ok());
        assert!(second.outcomes[0].is_ok());
        assert!(second.outcomes[0].latency() < first.outcomes[0].latency());
        assert_eq!(server.caches()[0].query_stats().0, 1);
    }

    #[test]
    fn fork_per_request_grows_memory_with_crowd() {
        let mut server = server(ServerConfig {
            database: DatabaseConfig {
                query_cache: false,
                ..DatabaseConfig::default()
            },
            ..ServerConfig::lab_apache()
        });
        let small: Vec<ServerRequest> = (0..5)
            .map(|i| query_request(i, 0, "/cgi/stats?table=t1"))
            .collect();
        let small_run = run(&mut server, small);
        let big: Vec<ServerRequest> = (0..50)
            .map(|i| query_request(i, 0, "/cgi/stats?table=t1"))
            .collect();
        let big_run = run(&mut server, big);
        assert!(
            big_run.utilization.peak_memory_bytes > small_run.utilization.peak_memory_bytes,
            "memory must grow with the number of concurrent forked handlers"
        );
    }

    #[test]
    fn mongrel_keeps_memory_flat() {
        let mut server = server(ServerConfig::lab_apache_mongrel());
        let small_run = run(
            &mut server,
            (0..5)
                .map(|i| query_request(i, 0, "/cgi/stats?table=t1"))
                .collect(),
        );
        let big_run = run(
            &mut server,
            (0..50)
                .map(|i| query_request(i, 0, "/cgi/stats?table=t1"))
                .collect(),
        );
        // Peak memory only differs by the worker slots, not by 45 handler
        // processes.
        let delta = big_run.utilization.peak_memory_bytes as i64
            - small_run.utilization.peak_memory_bytes as i64;
        assert!(
            delta < 50 * 8 * 1024 * 1024,
            "persistent pool must not fork per request (delta {delta})"
        );
    }

    #[test]
    fn listen_queue_overflow_refuses_connections() {
        let mut server = server(ServerConfig {
            workers: WorkerConfig {
                max_workers: 1,
                listen_queue: 2,
                ..WorkerConfig::default()
            },
            hardware: HardwareSpec {
                cpu_speed: 0.01,
                ..HardwareSpec::default()
            },
            ..ServerConfig::lab_apache()
        });
        let requests: Vec<ServerRequest> = (0..10).map(|i| head_request(i, 0)).collect();
        let result = run(&mut server, requests);
        let refused = result
            .outcomes
            .iter()
            .filter(|o| o.status == RequestStatus::Refused)
            .count();
        assert_eq!(refused, 7, "1 worker + 2 queue slots leaves 7 refused");
        assert_eq!(result.utilization.refused_requests, 7);
    }

    #[test]
    fn the_listen_queue_admits_waiting_connections_in_order() {
        let config = ServerConfig {
            workers: WorkerConfig {
                max_workers: 1,
                listen_queue: 2,
                ..WorkerConfig::default()
            },
            ..ServerConfig::lab_apache()
        };
        let burst = || (0..4).map(|id| head_request(id, 0)).collect::<Vec<_>>();
        let engine = ServerEngine::new(config.clone(), ContentCatalog::lab_validation());
        let mut session = engine.session(CacheState::new());
        for request in burst() {
            session.push_request(request);
        }
        session.run_until(SimTime::ZERO);
        assert_eq!((session.busy_workers(), session.queued()), (1, 2));
        let (result, _) = session.finish();
        let statuses: Vec<_> = result.outcomes.iter().map(|o| o.status).collect();
        assert_eq!(
            statuses,
            [
                RequestStatus::Ok,
                RequestStatus::Ok,
                RequestStatus::Ok,
                RequestStatus::Refused
            ]
        );
        let served = &result.outcomes[..3];
        assert!(
            served.windows(2).all(|w| w[0].completion < w[1].completion),
            "queued connections are served first come, first served: {served:?}"
        );
        assert_eq!(result.utilization.peak_busy_workers, 1);

        // The warm cluster's next run reuses the worker pool; its peak is
        // its own, and a request rejected before admission holds no worker.
        let mut cluster = server(config);
        assert_eq!(run(&mut cluster, burst()).outcomes, result.outcomes);
        let again = run(&mut cluster, vec![static_request(9, 0, "/no/such/file")]);
        assert_eq!(again.outcomes[0].status, RequestStatus::NotFound);
        assert_eq!(again.utilization.peak_busy_workers, 0);
    }

    #[test]
    fn worker_limit_serializes_excess_requests() {
        let mut server = server(ServerConfig {
            workers: WorkerConfig {
                max_workers: 2,
                listen_queue: 100,
                per_request_cpu: 0.01,
                ..WorkerConfig::default()
            },
            access_link: mbps(1000.0),
            ..ServerConfig::lab_apache()
        });
        let result = run(&mut server, (0..20).map(|i| head_request(i, 0)).collect());
        let mut latencies: Vec<f64> = result
            .outcomes
            .iter()
            .map(|o| o.latency().as_millis_f64())
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // With only two workers the last requests wait for many service
        // times; the spread between fastest and slowest must be large.
        assert!(latencies.last().unwrap() > &(latencies[0] * 5.0));
        assert_eq!(result.utilization.peak_busy_workers, 2);
    }

    #[test]
    fn outcomes_come_back_in_arrival_order() {
        let result = run(
            &mut lab_server(),
            vec![
                head_request(30, 1),
                head_request(10, 3),
                head_request(20, 5),
            ],
        );
        let ids: Vec<u64> = result.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, vec![30, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "pushes must be time-ordered")]
    fn a_push_into_the_past_is_rejected() {
        let engine =
            ServerEngine::new(ServerConfig::lab_apache(), ContentCatalog::lab_validation());
        let mut session = engine.session(CacheState::new());
        session.push_request(head_request(1, 0));
        session.run_until(SimTime::ZERO + SimDuration::from_millis(10));
        session.push_request(head_request(2, 5));
    }

    #[test]
    fn an_arrival_runs_before_an_event_at_the_same_instant() {
        // One worker, no listen queue: a HEAD parses in exactly 1 ms plus
        // the base page.  A second arrival at the instant the first one's
        // parse completes finds the worker still busy and is refused —
        // whether or not the session was stepped to that instant first.
        let config = ServerConfig {
            workers: WorkerConfig {
                max_workers: 1,
                listen_queue: 0,
                per_request_cpu: 0.001,
                base_page_cpu: 0.0,
                ..WorkerConfig::default()
            },
            ..ServerConfig::lab_apache()
        };
        let engine = ServerEngine::new(config, ContentCatalog::lab_validation());
        let at = SimTime::ZERO + SimDuration::from_millis(1);
        let outcomes = |step: bool| {
            let mut session = engine.session(CacheState::new());
            session.push_request(head_request(1, 0));
            if step {
                session.run_until(at);
            }
            session.push_request(head_request(2, 1));
            session.finish().0.outcomes
        };
        let stepped = outcomes(true);
        assert_eq!(stepped, outcomes(false));
        assert_eq!(stepped[1].status, RequestStatus::Refused);
    }

    #[test]
    fn simultaneous_cpu_and_transfer_completions_keep_their_order() {
        // RAM is overcommitted from the start, so each busy worker slows
        // the CPU and the disk by another 1 + 8 × (8 MiB / 64 MiB).
        let config = ServerConfig {
            hardware: HardwareSpec {
                ram_bytes: 64 << 20,
                ..HardwareSpec::default()
            },
            workers: WorkerConfig {
                memory_per_worker: 8 << 20,
                ..WorkerConfig::default()
            },
            baseline_memory: 64 << 20,
            ..ServerConfig::lab_apache()
        };
        // Request 1 sends the warm 100 KiB object at 1 MB/s until
        // t = 103.2 ms.  Request 2 asks for the cold base page at 100.2 ms
        // and finishes parsing at the same microsecond.  Its disk read costs
        // less if request 1 has already released its worker's memory, so
        // request 2's completion shows which check ran first.
        let mut server = server(config);
        run(
            &mut server,
            vec![static_request(0, 0, "/objects/large_100k.bin")],
        );
        let mut requests = vec![
            static_request(1, 0, "/objects/large_100k.bin"),
            static_request(2, 0, "/index.html"),
        ];
        requests[1].arrival = SimTime::from_micros(100_200);
        for request in &mut requests {
            request.client_downlink = 1e6;
        }
        let completions: Vec<_> = run(&mut server, requests)
            .outcomes
            .iter()
            .map(|o| o.completion.as_micros())
            .collect();
        // The CPU check runs before the network check at one instant:
        // request 2 reads the disk while request 1 still holds memory.  Had
        // the transfer's completion run first, request 2 would finish at
        // 143_427 µs.
        assert_eq!(completions, [243_200, 151_491]);
    }

    #[test]
    fn empty_run_is_harmless() {
        let result = run(&mut lab_server(), Vec::new());
        assert!(result.outcomes.is_empty());
        assert_eq!(result.utilization.completed_requests, 0);
    }

    #[test]
    fn background_flag_is_propagated() {
        let mut req = head_request(9, 0);
        req.background = true;
        let result = run(&mut lab_server(), vec![req]);
        assert!(result.outcomes[0].background);
    }

    #[test]
    fn thin_transit_link_slows_only_its_vantage_group() {
        use mfc_simnet::kbps;
        // A fat 100 Mbit/s access link, two vantage groups: group 0 behind
        // a 800 kbit/s shared transit link, group 1 behind a clean one.
        let mut server = server(ServerConfig {
            access_link: mbps(100.0),
            ..ServerConfig::lab_apache()
        })
        .with_topology(TopologySpec::star(&[kbps(800.0), mbps(100.0)]));
        // Warm the object cache, then race five transfers per group.
        run(
            &mut server,
            vec![static_request(0, 0, "/objects/large_100k.bin")],
        );
        let crowd: Vec<ServerRequest> = (0..10)
            .map(|i| {
                let mut r = static_request(100 + i, 0, "/objects/large_100k.bin");
                r.client_addr = i as u32; // even → group 0, odd → group 1
                r
            })
            .collect();
        let result = run(&mut server, crowd);
        let latency_of = |addr_parity: u32| -> f64 {
            let mut values: Vec<f64> = result
                .outcomes
                .iter()
                .filter(|o| o.id >= 100 && (o.id - 100) % 2 == addr_parity as u64)
                .map(|o| o.latency().as_millis_f64())
                .collect();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            values[values.len() / 2]
        };
        let pinned = latency_of(0);
        let clean = latency_of(1);
        assert!(
            pinned > 5.0 * clean,
            "the group behind the 100 kB/s transit must crawl while the \
             other group flies: pinned {pinned}ms vs clean {clean}ms"
        );
    }

    #[test]
    fn cross_traffic_consumes_transit_bandwidth() {
        // A 1 MB/s transit carrying 600 kB/s of cross traffic leaves only
        // 400 kB/s for the probe transfers.
        let config = ServerConfig {
            access_link: mbps(100.0),
            ..ServerConfig::lab_apache()
        };
        // The first run warms the object cache; every later one opens a
        // session from the engine's cached graph and must still carry the
        // cross traffic.
        let latencies = |topology: TopologySpec| {
            let mut server = server(config.clone()).with_topology(topology);
            (0..5)
                .map(|id| {
                    let request = static_request(id, 0, "/objects/large_100k.bin");
                    run(&mut server, vec![request]).outcomes[0].latency()
                })
                .skip(1)
                .collect::<Vec<_>>()
        };
        let clean_latencies = latencies(TopologySpec::star(&[mbps(8.0)]));
        let congested_latencies =
            latencies(TopologySpec::star(&[mbps(8.0)]).with_cross_traffic(0, 3, 200_000.0));
        for (clean_latency, congested_latency) in
            clean_latencies.into_iter().zip(congested_latencies)
        {
            // 100 KB at 1 MB/s vs at the 400 kB/s the cross traffic leaves:
            // the transfer alone slows by ~150 ms.
            assert!(
                congested_latency > clean_latency + SimDuration::from_millis(100),
                "cross traffic must visibly squeeze the transfer: \
                 {clean_latency} vs {congested_latency}"
            );
        }
    }

    /// A 4-group star behind a backbone, with cross traffic on group 0's
    /// transit: every kind of link the cached graph carries.
    fn wan_engine() -> ServerEngine {
        let config = ServerConfig {
            access_link: mbps(100.0),
            ..ServerConfig::lab_apache()
        };
        let topology = TopologySpec::star(&[mbps(8.0), mbps(50.0), mbps(50.0), mbps(50.0)])
            .with_backbone(mbps(60.0))
            .with_cross_traffic(0, 3, 200_000.0);
        ServerEngine::new(config, ContentCatalog::lab_validation()).with_topology(topology)
    }

    /// A mixed batch over every vantage group plus background clients.
    fn wan_batch() -> Vec<ServerRequest> {
        (0..24u64)
            .map(|i| {
                let mut r = match i % 4 {
                    0 => head_request(i, i * 3),
                    1 => query_request(i, i * 3, "/cgi/stats?table=t1"),
                    _ => static_request(i, i * 3, "/objects/large_100k.bin"),
                };
                r.background = i % 5 == 0;
                r
            })
            .collect()
    }

    #[test]
    fn cached_network_matches_a_fresh_build() {
        let seasoned = wan_engine();
        // Serve many sessions first; none of their flows may leak into the
        // graph later sessions start from.
        for _ in 0..12 {
            run_session(&seasoned, wan_batch());
        }
        let again = run_session(&seasoned, wan_batch());
        let fresh = run_session(&wan_engine(), wan_batch());
        assert_eq!(again.outcomes, fresh.outcomes);
        assert_eq!(again.utilization, fresh.utilization);
    }

    #[test]
    fn set_topology_replaces_the_cached_network() {
        let clean_spec = TopologySpec::star(&[mbps(8.0)]);
        let mut server = server(ServerConfig {
            access_link: mbps(100.0),
            ..ServerConfig::lab_apache()
        })
        .with_topology(clean_spec.clone());
        let latency = |server: &mut ServerCluster, id: u64| {
            run(
                server,
                vec![static_request(id, 0, "/objects/large_100k.bin")],
            )
            .outcomes[0]
                .latency()
        };
        latency(&mut server, 0); // warms the object cache
        let clean = latency(&mut server, 1);
        let mut server =
            server.with_topology(clean_spec.clone().with_cross_traffic(0, 3, 200_000.0));
        let congested = latency(&mut server, 2);
        assert!(
            congested > clean + SimDuration::from_millis(100),
            "the new topology's cross traffic must apply: {clean} vs {congested}"
        );
        let mut server = server.with_topology(clean_spec);
        assert_eq!(latency(&mut server, 3), clean, "back on the clean graph");
    }

    #[test]
    fn object_cache_disabled_hits_disk_every_time() {
        let mut server = server(ServerConfig {
            object_cache: ObjectCacheConfig {
                enabled: false,
                capacity_bytes: 0,
            },
            ..ServerConfig::lab_apache()
        });
        for i in 0..3 {
            run(
                &mut server,
                vec![static_request(i, 0, "/objects/large_100k.bin")],
            );
        }
        assert_eq!(server.caches()[0].object_stats(), (0, 3));
    }
}
