//! Individual server resources: processor-sharing CPU, FIFO disk, memory.
//!
//! The MFC paper distinguishes two ways an extra request can slow a server
//! down (§3.3): it can consume a *proportional share* of a resource (CPU
//! cycles, link bandwidth) or it can *wait in line* behind earlier requests
//! for a serialized resource (a single disk, a connection pool).  The types
//! here model both kinds so the engine can exhibit either behaviour
//! depending on the workload class.

use mfc_simcore::{SimDuration, SimTime};
use mfc_simnet::FlowId;
use mfc_topology::{LinkId, NetworkGraph, RouteId};

/// A processor-sharing resource (CPU, database executor): a one-link,
/// one-route [`NetworkGraph`], the same max–min fluid core that shares the
/// network links.
///
/// Capacity is expressed in *work units per second*; each task has a total
/// amount of work and a per-task rate cap (a single task cannot use more
/// than one core).  Task ids map one-to-one onto [`FlowId`]s, so there is
/// no side table to search on the completion hot path.
///
/// # Examples
///
/// ```
/// use mfc_simcore::SimTime;
/// use mfc_webserver::resource::PsResource;
///
/// // One core: two 100ms tasks started together finish after 200ms.
/// let mut cpu = PsResource::new(1.0, 1.0);
/// cpu.add_task(1, 0.1, SimTime::ZERO);
/// cpu.add_task(2, 0.1, SimTime::ZERO);
/// let (t, id) = cpu.next_completion(SimTime::ZERO).unwrap();
/// assert_eq!(id, 1);
/// assert!((t.as_secs_f64() - 0.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PsResource {
    graph: NetworkGraph,
    link: LinkId,
    route: RouteId,
    per_task_cap: f64,
}

impl PsResource {
    /// Creates a resource with `capacity` work-units/second and a per-task
    /// rate ceiling of `per_task_cap` work-units/second.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is infinite.
    pub fn new(capacity: f64, per_task_cap: f64) -> Self {
        let mut graph = NetworkGraph::new();
        let link = graph.add_link(capacity.max(f64::EPSILON));
        let route = graph.add_route(&[link]);
        PsResource {
            graph,
            link,
            route,
            per_task_cap: per_task_cap.max(f64::EPSILON),
        }
    }

    /// Returns the resource to the state [`Self::new`] left it in: no
    /// tasks and no work done.
    pub fn reset(&mut self) {
        self.graph.reset();
    }

    /// Adds a task identified by `id` requiring `work` work units.
    ///
    /// # Panics
    ///
    /// Panics if a task with the same id is already active.
    pub fn add_task(&mut self, id: u64, work: f64, now: SimTime) {
        self.graph.start_flow(
            FlowId(id),
            self.route,
            work.max(0.0),
            self.per_task_cap,
            now,
        );
    }

    /// Returns the time and task id of the next task to finish, if any task
    /// is active.  Pure: does not advance the internal clock.
    pub fn peek_completion(&self) -> Option<(SimTime, u64)> {
        self.graph
            .peek_completion()
            .map(|(time, flow)| (time, flow.0))
    }

    /// [`Self::peek_completion`] after advancing the clock to `now`.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        self.graph
            .next_completion(now)
            .map(|(time, flow)| (time, flow.0))
    }

    /// Removes a task (after completion or abandonment); returns the work
    /// it had left.
    pub fn remove_task(&mut self, id: u64, now: SimTime) -> Option<f64> {
        self.graph.finish_flow(FlowId(id), now)
    }

    /// Advances the resource's internal clock.
    pub fn advance(&mut self, now: SimTime) {
        self.graph.advance(now);
    }

    /// The configured capacity in work-units/second.
    pub fn capacity(&self) -> f64 {
        self.graph.link_capacity(self.link)
    }

    /// Number of active tasks.
    pub fn active(&self) -> usize {
        self.graph.active_flows()
    }

    /// Current aggregate service rate divided by capacity (0–1 utilization).
    pub fn utilization(&self) -> f64 {
        (self.graph.link_utilization_bytes_per_sec(self.link) / self.capacity()).clamp(0.0, 1.0)
    }

    /// Total work completed since construction.
    pub fn work_done(&self) -> f64 {
        self.graph.link_bytes_transferred(self.link)
    }
}

/// A strictly serialized FIFO resource — the disk.
///
/// Each operation has a fixed service time computed when it is enqueued; the
/// disk serves exactly one operation at a time in arrival order.
///
/// # Examples
///
/// ```
/// use mfc_simcore::{SimTime, SimDuration};
/// use mfc_webserver::resource::FifoResource;
///
/// let mut disk = FifoResource::new();
/// let d1 = disk.enqueue(SimTime::ZERO, SimDuration::from_millis(10));
/// let d2 = disk.enqueue(SimTime::ZERO, SimDuration::from_millis(10));
/// assert_eq!(d1.as_millis_f64(), 10.0);
/// assert_eq!(d2.as_millis_f64(), 20.0, "the second op waits for the first");
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    /// Time at which the device becomes idle.
    busy_until: SimTime,
    ops: u64,
    busy_time: SimDuration,
}

impl FifoResource {
    /// Creates an idle device.
    pub fn new() -> Self {
        FifoResource::default()
    }

    /// Enqueues an operation arriving at `now` with the given service time
    /// and returns the *total* delay (queueing + service) until it
    /// completes.
    pub fn enqueue(&mut self, now: SimTime, service: SimDuration) -> SimDuration {
        let start = self.busy_until.max(now);
        let finish = start + service;
        self.busy_until = finish;
        self.ops += 1;
        self.busy_time += service;
        finish - now
    }

    /// Number of operations served.
    pub fn operations(&self) -> u64 {
        self.ops
    }

    /// Total device busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Time at which the device next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

/// Tracks resident memory and converts overcommit into a slowdown factor.
///
/// The paper's FastCGI experiment (Figure 6) shows memory climbing with the
/// crowd size until the machine starts thrashing and response times explode.
/// We reproduce the effect by charging every forked handler its resident
/// size and multiplying subsequent CPU/disk work by [`MemoryTracker::slowdown`]
/// once demand exceeds physical RAM.
///
/// # Examples
///
/// ```
/// use mfc_webserver::resource::MemoryTracker;
///
/// let mut mem = MemoryTracker::new(1_000, 8.0);
/// mem.allocate(500);
/// assert_eq!(mem.slowdown(), 1.0, "within RAM there is no penalty");
/// mem.allocate(1_000);
/// assert!(mem.slowdown() > 1.0, "overcommit triggers thrashing");
/// mem.release(1_000);
/// assert_eq!(mem.slowdown(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    ram: u64,
    used: u64,
    peak: u64,
    penalty: f64,
}

impl MemoryTracker {
    /// Creates a tracker for a machine with `ram` bytes of physical memory
    /// and the given swap penalty (extra slowdown per 100% overcommit).
    pub fn new(ram: u64, penalty: f64) -> Self {
        MemoryTracker {
            ram: ram.max(1),
            used: 0,
            peak: 0,
            penalty: penalty.max(0.0),
        }
    }

    /// Charges `bytes` of resident memory.
    pub fn allocate(&mut self, bytes: u64) {
        self.used += bytes;
        self.peak = self.peak.max(self.used);
    }

    /// Releases `bytes` of resident memory (saturating at zero).
    pub fn release(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
    }

    /// Currently resident bytes.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Peak resident bytes seen so far.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Physical RAM size.
    pub fn ram(&self) -> u64 {
        self.ram
    }

    /// Multiplier for CPU/disk work while memory demand exceeds RAM:
    /// `1 + penalty × overcommit_fraction`, where the overcommit fraction is
    /// `(used − ram) / ram` clamped at zero.
    pub fn slowdown(&self) -> f64 {
        if self.used <= self.ram {
            1.0
        } else {
            let over = (self.used - self.ram) as f64 / self.ram as f64;
            1.0 + self.penalty * over
        }
    }
}

/// A bounded pool of identical slots (worker threads, handler processes,
/// database connections) with a FIFO wait queue of request ids.  The
/// server's worker pool queues its waiting connections here: that queue is
/// the listen queue.
///
/// # Examples
///
/// ```
/// use mfc_webserver::resource::SlotPool;
///
/// let mut pool = SlotPool::new(2);
/// assert!(pool.try_acquire());
/// assert!(pool.try_acquire());
/// assert!(!pool.try_acquire(), "third request must wait");
/// pool.enqueue(12);
/// assert_eq!(pool.release_and_next(), Some(12));
/// assert_eq!(pool.release_and_next(), None);
/// ```
#[derive(Debug, Clone)]
pub struct SlotPool {
    capacity: u32,
    busy: u32,
    waiting: std::collections::VecDeque<u64>,
    peak_busy: u32,
}

impl SlotPool {
    /// Creates a pool with `capacity` slots.
    pub fn new(capacity: u32) -> Self {
        SlotPool {
            capacity,
            busy: 0,
            waiting: std::collections::VecDeque::new(),
            peak_busy: 0,
        }
    }

    /// Tries to occupy a slot; returns `false` if the pool is full (the
    /// caller should then [`SlotPool::enqueue`] the request's id).
    pub fn try_acquire(&mut self) -> bool {
        if self.busy < self.capacity {
            self.busy += 1;
            self.peak_busy = self.peak_busy.max(self.busy);
            true
        } else {
            false
        }
    }

    /// Adds `id` to the wait queue.
    pub fn enqueue(&mut self, id: u64) {
        self.waiting.push_back(id);
    }

    /// Releases one slot.  If a request is waiting, the slot is immediately
    /// handed to it and its id is returned; otherwise the slot becomes free.
    pub fn release_and_next(&mut self) -> Option<u64> {
        if let Some(next) = self.waiting.pop_front() {
            // The slot passes directly to the next waiter; `busy` stays.
            self.peak_busy = self.peak_busy.max(self.busy);
            Some(next)
        } else {
            self.busy = self.busy.saturating_sub(1);
            None
        }
    }

    /// Frees every slot, empties the wait queue (keeping its allocation)
    /// and zeroes the peak: afterwards the pool equals a new one of the
    /// same capacity.
    pub fn reset(&mut self) {
        self.busy = 0;
        self.waiting.clear();
        self.peak_busy = 0;
    }

    /// Number of occupied slots.
    pub fn busy(&self) -> u32 {
        self.busy
    }

    /// Number of requests waiting for a slot.
    pub fn queued(&self) -> usize {
        self.waiting.len()
    }

    /// Largest number of simultaneously occupied slots seen.
    pub fn peak_busy(&self) -> u32 {
        self.peak_busy
    }

    /// Total capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn ps_resource_single_task_runs_at_core_speed() {
        let mut cpu = PsResource::new(2.0, 1.0);
        cpu.add_task(1, 0.5, t(0.0));
        // Only one task: limited by the per-task cap (one core), not by the
        // two-core capacity.
        let (done, id) = cpu.next_completion(t(0.0)).unwrap();
        assert_eq!(id, 1);
        assert!((done.as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ps_resource_shares_among_tasks() {
        let mut cpu = PsResource::new(1.0, 1.0);
        for id in 0..4 {
            cpu.add_task(id, 0.1, t(0.0));
        }
        let (done, _) = cpu.next_completion(t(0.0)).unwrap();
        // Four tasks on one core: everything takes 4x as long.
        assert!((done.as_secs_f64() - 0.4).abs() < 1e-9);
        assert_eq!(cpu.active(), 4);
        assert!((cpu.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ps_resource_remove_returns_remaining_work() {
        let mut cpu = PsResource::new(1.0, 1.0);
        cpu.add_task(1, 1.0, t(0.0));
        cpu.advance(t(0.25));
        let left = cpu.remove_task(1, t(0.25)).unwrap();
        assert!((left - 0.75).abs() < 1e-9);
        assert_eq!(cpu.active(), 0);
        assert!(cpu.next_completion(t(0.3)).is_none());
        assert!(cpu.remove_task(1, t(0.3)).is_none());
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn ps_resource_duplicate_task_panics() {
        let mut cpu = PsResource::new(1.0, 1.0);
        cpu.add_task(1, 0.1, t(0.0));
        cpu.add_task(1, 0.1, t(0.0));
    }

    #[test]
    fn fifo_serializes_operations() {
        let mut disk = FifoResource::new();
        let d1 = disk.enqueue(t(0.0), SimDuration::from_millis(20));
        let d2 = disk.enqueue(t(0.0), SimDuration::from_millis(30));
        let d3 = disk.enqueue(t(0.1), SimDuration::from_millis(10));
        assert_eq!(d1, SimDuration::from_millis(20));
        assert_eq!(d2, SimDuration::from_millis(50));
        // The third op arrives at 100ms, the disk frees at 50ms, so no wait.
        assert_eq!(d3, SimDuration::from_millis(10));
        assert_eq!(disk.operations(), 3);
        assert_eq!(disk.busy_time(), SimDuration::from_millis(60));
    }

    #[test]
    fn fifo_idle_gap_does_not_accumulate() {
        let mut disk = FifoResource::new();
        disk.enqueue(t(0.0), SimDuration::from_millis(10));
        let d = disk.enqueue(t(10.0), SimDuration::from_millis(10));
        assert_eq!(d, SimDuration::from_millis(10));
    }

    #[test]
    fn memory_tracker_peak_and_release() {
        let mut mem = MemoryTracker::new(1_000, 4.0);
        mem.allocate(600);
        mem.allocate(600);
        assert_eq!(mem.used(), 1_200);
        assert_eq!(mem.peak(), 1_200);
        assert!((mem.slowdown() - 1.8).abs() < 1e-9);
        mem.release(600);
        assert_eq!(mem.used(), 600);
        assert_eq!(mem.peak(), 1_200, "peak is sticky");
        assert_eq!(mem.slowdown(), 1.0);
        mem.release(10_000);
        assert_eq!(mem.used(), 0, "release saturates at zero");
    }

    #[test]
    fn slot_pool_fifo_handoff() {
        let mut pool = SlotPool::new(1);
        assert!(pool.try_acquire());
        assert!(!pool.try_acquire());
        assert!(!pool.try_acquire());
        pool.enqueue(2);
        pool.enqueue(3);
        assert_eq!(pool.queued(), 2);
        assert_eq!(pool.release_and_next(), Some(2));
        assert_eq!(pool.release_and_next(), Some(3));
        assert_eq!(pool.release_and_next(), None);
        assert_eq!(pool.busy(), 0);
        assert_eq!(pool.peak_busy(), 1);
        assert_eq!(pool.capacity(), 1);
    }

    #[test]
    fn a_reset_pool_starts_over() {
        let mut pool = SlotPool::new(1);
        assert!(pool.try_acquire());
        pool.enqueue(7);
        pool.reset();
        assert_eq!((pool.busy(), pool.queued(), pool.peak_busy()), (0, 0, 0));
        assert!(pool.try_acquire());
        assert_eq!(pool.release_and_next(), None, "the old waiter is gone");
        assert_eq!(pool.capacity(), 1);
    }

    #[test]
    fn slot_pool_zero_capacity_never_admits() {
        let mut pool = SlotPool::new(0);
        assert!(!pool.try_acquire());
    }
}
