//! The lazily evaluated merged request stream.
//!
//! [`WorkloadStream`] turns a [`WorkloadSpec`] into a single time-ordered
//! sequence of concrete requests without ever materializing it: a binary
//! heap holds one pending instant per *source* plus one per *currently
//! active session*, so producing the next request costs O(log S) with S
//! the number of sources plus in-flight sessions — a million-session
//! population streams through a simulation in bounded memory.
//!
//! The stream is generic over a [`RequestSampler`], which turns each
//! abstract [`RequestIntent`] into the caller's request type using the
//! per-source RNG *at the emission point*.  That contract (the sampler's
//! draws interleave with the arrival draws on one stream) is what lets the
//! webserver's `BackgroundTraffic` adapter reproduce the pre-workload
//! generator bit for bit.
//!
//! Determinism: the heap is ordered by `(time, insertion sequence)`, every
//! source owns a forked RNG, and every session owns an RNG seeded from its
//! source's stream at session start — the output is a pure function of
//! `(spec, window, id_base, seed)` and never observes thread count,
//! environment or iteration batching.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_simnet::Bandwidth;
use serde::{Deserialize, Serialize};

use crate::session::SessionState;
use crate::spec::{MixWeights, RequestModel, WorkloadSpec};

/// Abstract request classes a workload can ask for; the sampler maps them
/// onto the target's actual content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestKind {
    /// A view of the site's base page.
    BasePage,
    /// A small static object (page, image).
    StaticSmall,
    /// A large static object (download).
    StaticLarge,
    /// A dynamic query.
    Dynamic,
}

/// What the stream wants the sampler to produce.
#[derive(Debug, Clone, Copy)]
pub enum RequestIntent<'a> {
    /// Draw the request class from the mix (and then a concrete object of
    /// that class) — the degenerate per-arrival model.
    Mix(&'a MixWeights),
    /// A request of this specific class (session page views and embedded
    /// objects).
    Kind(RequestKind),
}

/// Everything the sampler needs to build one concrete request.
#[derive(Debug, Clone, Copy)]
pub struct RequestContext<'a> {
    /// Arrival time of the request at the target.
    pub time: SimTime,
    /// The stream-assigned request id (`id_base` plus emission index).
    pub id: u64,
    /// A stable synthetic user: one id per mix arrival, one per *session*
    /// for session sources (so a session's requests share a
    /// client address).
    pub user: u64,
    /// What to produce.
    pub intent: RequestIntent<'a>,
    /// The source's client downlink, bytes per second.
    pub downlink: Bandwidth,
    /// The source's client RTT.
    pub rtt: SimDuration,
}

/// Maps abstract request intents onto concrete requests.
///
/// The sampler receives the stream's per-source RNG and may draw from it;
/// its draws are part of the deterministic stream.  Samplers must not
/// consult any other source of randomness.
pub trait RequestSampler {
    /// The concrete request type produced.
    type Request;

    /// Builds the request for one emission.
    fn sample(&mut self, ctx: RequestContext<'_>, rng: &mut SimRng) -> Self::Request;
}

/// A sampler for tests and rate studies: emits `(time, kind)` tuples,
/// resolving mixes by weight like the real catalog sampler (one
/// `weighted_choice` draw, no object-index draw).
pub struct KindSampler;

impl RequestSampler for KindSampler {
    type Request = (SimTime, RequestKind);

    fn sample(&mut self, ctx: RequestContext<'_>, rng: &mut SimRng) -> Self::Request {
        let kind = match ctx.intent {
            RequestIntent::Kind(kind) => kind,
            RequestIntent::Mix(mix) => {
                if mix.is_degenerate() {
                    RequestKind::BasePage
                } else {
                    *rng.weighted_choice(&[
                        (RequestKind::BasePage, mix.head),
                        (RequestKind::StaticSmall, mix.static_small),
                        (RequestKind::StaticLarge, mix.static_large),
                        (RequestKind::Dynamic, mix.dynamic),
                    ])
                }
            }
        };
        (ctx.time, kind)
    }
}

/// Who owns a pending heap instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Actor {
    /// A source's next arrival.
    Source(u32),
    /// An active session's next step (index into the session slab).
    Session(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    time: SimTime,
    /// Insertion sequence: the deterministic tie-breaker for equal times.
    seq: u64,
    actor: Actor,
}

/// Live state of one source.
struct SourceRuntime {
    rng: SimRng,
    arrivals: crate::arrival::ArrivalState,
}

/// The merged, lazily evaluated request stream.  See the module docs.
pub struct WorkloadStream<'a, S: RequestSampler> {
    spec: &'a WorkloadSpec,
    sampler: S,
    end: SimTime,
    heap: BinaryHeap<Reverse<Pending>>,
    sources: Vec<SourceRuntime>,
    /// Slab of active sessions; freed slots are reused so the slab size
    /// tracks peak concurrency, not total session count.
    sessions: Vec<Option<SessionState>>,
    free_sessions: Vec<u32>,
    id_base: u64,
    next_id: u64,
    next_user: u64,
    next_seq: u64,
    /// Peak number of simultaneously active sessions (observability for
    /// the scaling tests: memory is O(peak), not O(total)).
    peak_active_sessions: usize,
}

impl<'a, S: RequestSampler> WorkloadStream<'a, S> {
    /// Opens the stream over `[start, end)` with per-source RNGs forked
    /// from `master` (by source index), request ids starting at `id_base`.
    pub fn new(
        spec: &'a WorkloadSpec,
        start: SimTime,
        end: SimTime,
        id_base: u64,
        master: &SimRng,
        sampler: S,
    ) -> Self {
        let rngs = (0..spec.sources.len())
            .map(|index| master.fork_indexed("workload-source", index as u64))
            .collect();
        WorkloadStream::with_source_rngs(spec, start, end, id_base, rngs, sampler)
    }

    /// Opens the stream with explicit per-source RNGs (one per source, in
    /// order).  The `BackgroundTraffic` adapter uses this to drive its
    /// single source from the caller's RNG, preserving the pre-workload
    /// draw sequence bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the RNG count does not match the source count.
    pub fn with_source_rngs(
        spec: &'a WorkloadSpec,
        start: SimTime,
        end: SimTime,
        id_base: u64,
        rngs: Vec<SimRng>,
        sampler: S,
    ) -> Self {
        assert_eq!(
            rngs.len(),
            spec.sources.len(),
            "one RNG per workload source"
        );
        let mut stream = WorkloadStream {
            spec,
            sampler,
            end,
            heap: BinaryHeap::new(),
            sources: Vec::with_capacity(spec.sources.len()),
            sessions: Vec::new(),
            free_sessions: Vec::new(),
            id_base,
            next_id: id_base,
            next_user: 0,
            next_seq: 0,
            peak_active_sessions: 0,
        };
        for (index, (source, mut rng)) in spec.sources.iter().zip(rngs).enumerate() {
            let mut arrivals = crate::arrival::ArrivalState::new(&source.arrivals, start, &mut rng);
            let first_time = arrivals.next(end, &mut rng);
            stream.sources.push(SourceRuntime { rng, arrivals });
            if let Some(time) = first_time {
                stream.push(time, Actor::Source(index as u32));
            }
        }
        stream
    }

    /// Hands the per-source RNGs back (advanced by every draw the stream
    /// made), in source order.  Consumes the stream.
    pub fn into_source_rngs(self) -> Vec<SimRng> {
        self.sources.into_iter().map(|s| s.rng).collect()
    }

    /// Requests emitted so far.
    pub fn emitted(&self) -> u64 {
        self.next_id - self.id_base
    }

    /// Sessions started so far.
    pub fn sessions_started(&self) -> u64 {
        self.next_user
    }

    /// The largest number of simultaneously active sessions observed — the
    /// quantity the stream's memory footprint scales with.
    pub fn peak_active_sessions(&self) -> usize {
        self.peak_active_sessions
    }

    fn push(&mut self, time: SimTime, actor: Actor) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Pending { time, seq, actor }));
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn store_session(&mut self, state: SessionState) -> u32 {
        let slot = match self.free_sessions.pop() {
            Some(slot) => {
                self.sessions[slot as usize] = Some(state);
                slot
            }
            None => {
                self.sessions.push(Some(state));
                (self.sessions.len() - 1) as u32
            }
        };
        let active = self.sessions.len() - self.free_sessions.len();
        self.peak_active_sessions = self.peak_active_sessions.max(active);
        slot
    }

    /// Emits the request for a source arrival and schedules the follow-ups.
    fn emit_source(&mut self, index: u32, time: SimTime) -> S::Request {
        let source_spec = &self.spec.sources[index as usize];
        match &source_spec.requests {
            RequestModel::Mix(mix) => {
                let id = self.alloc_id();
                let runtime = &mut self.sources[index as usize];
                let request = self.sampler.sample(
                    RequestContext {
                        time,
                        id,
                        user: id,
                        intent: RequestIntent::Mix(mix),
                        downlink: source_spec.client.downlink,
                        rtt: source_spec.client.rtt,
                    },
                    &mut runtime.rng,
                );
                if let Some(t) = runtime.arrivals.next(self.end, &mut runtime.rng) {
                    self.push(t, Actor::Source(index));
                }
                request
            }
            RequestModel::Sessions(model) => {
                // Schedule the source's next session arrival first, so the
                // source RNG only ever produces arrival draws and session
                // seeds, in arrival order.
                let runtime = &mut self.sources[index as usize];
                let next_arrival = runtime.arrivals.next(self.end, &mut runtime.rng);
                let session_seed = runtime.rng.next_u64();
                if let Some(t) = next_arrival {
                    self.push(t, Actor::Source(index));
                }
                let user = self.next_user;
                self.next_user += 1;
                let mut session =
                    SessionState::start(model, user, index, SimRng::seed_from(session_seed));
                let (kind, next_step) = session.step(model, time);
                let id = self.alloc_id();
                let request = self.sampler.sample(
                    RequestContext {
                        time,
                        id,
                        user,
                        intent: RequestIntent::Kind(kind),
                        downlink: source_spec.client.downlink,
                        rtt: source_spec.client.rtt,
                    },
                    &mut session.rng,
                );
                if let Some(t) = next_step.filter(|t| *t < self.end) {
                    let slot = self.store_session(session);
                    self.push(t, Actor::Session(slot));
                }
                request
            }
        }
    }

    /// Advances an active session: emits its due request, reschedules or
    /// retires it.
    fn emit_session(&mut self, slot: u32, time: SimTime) -> S::Request {
        let mut session = self.sessions[slot as usize]
            .take()
            .expect("scheduled session is live");
        let source_spec = &self.spec.sources[session.source as usize];
        let RequestModel::Sessions(model) = &source_spec.requests else {
            unreachable!("sessions only spawn from session sources");
        };
        let (kind, next_step) = session.step(model, time);
        let id = self.alloc_id();
        let request = self.sampler.sample(
            RequestContext {
                time,
                id,
                user: session.user,
                intent: RequestIntent::Kind(kind),
                downlink: source_spec.client.downlink,
                rtt: source_spec.client.rtt,
            },
            &mut session.rng,
        );
        match next_step.filter(|t| *t < self.end) {
            Some(t) => {
                self.sessions[slot as usize] = Some(session);
                self.push(t, Actor::Session(slot));
            }
            None => self.free_sessions.push(slot),
        }
        request
    }
}

impl<'a, S: RequestSampler> Iterator for WorkloadStream<'a, S> {
    type Item = S::Request;

    fn next(&mut self) -> Option<Self::Item> {
        let Reverse(pending) = self.heap.pop()?;
        debug_assert!(pending.time < self.end, "stream scheduled past its window");
        Some(match pending.actor {
            Actor::Source(index) => self.emit_source(index, pending.time),
            Actor::Session(slot) => self.emit_session(slot, pending.time),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::session::SessionModel;
    use crate::spec::{ClientSpec, SourceSpec};

    fn window(secs: u64) -> (SimTime, SimTime) {
        (SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(secs))
    }

    fn collect(spec: &WorkloadSpec, secs: u64, seed: u64) -> Vec<(SimTime, RequestKind)> {
        let (start, end) = window(secs);
        let master = SimRng::seed_from(seed);
        WorkloadStream::new(spec, start, end, 0, &master, KindSampler).collect()
    }

    #[test]
    fn merged_stream_is_time_ordered_and_windowed() {
        let spec = WorkloadSpec::poisson_mix(4.0, MixWeights::default(), ClientSpec::default())
            .with_source(SourceSpec {
                label: "surge".to_string(),
                client: ClientSpec::default(),
                arrivals: ArrivalProcess::FlashCrowd {
                    base_rate: 0.0,
                    peak_rate: 30.0,
                    onset_secs: 20.0,
                    ramp_secs: 5.0,
                    hold_secs: 20.0,
                    decay_secs: 5.0,
                },
                requests: RequestModel::Mix(MixWeights::downloads()),
            });
        let (start, end) = window(60);
        let requests = collect(&spec, 60, 1);
        assert!(!requests.is_empty());
        for pair in requests.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "stream must be time-ordered");
        }
        assert!(requests.iter().all(|(t, _)| *t >= start && *t < end));
        // The surge is visible: more arrivals in [20, 50) than [0, 20).
        let mid = |a: u64, b: u64| {
            requests
                .iter()
                .filter(|(t, _)| {
                    *t >= SimTime::ZERO + SimDuration::from_secs(a)
                        && *t < SimTime::ZERO + SimDuration::from_secs(b)
                })
                .count()
        };
        assert!(mid(20, 50) > mid(0, 20));
    }

    #[test]
    fn ids_are_sequential_in_emission_order() {
        let spec = WorkloadSpec::poisson_mix(5.0, MixWeights::default(), ClientSpec::default());
        struct IdSampler;
        impl RequestSampler for IdSampler {
            type Request = u64;
            fn sample(&mut self, ctx: RequestContext<'_>, _rng: &mut SimRng) -> u64 {
                ctx.id
            }
        }
        let (start, end) = window(30);
        let master = SimRng::seed_from(2);
        let mut stream = WorkloadStream::new(&spec, start, end, 700, &master, IdSampler);
        let ids: Vec<u64> = stream.by_ref().collect();
        assert!(!ids.is_empty());
        for (offset, id) in ids.iter().enumerate() {
            assert_eq!(*id, 700 + offset as u64);
        }
        // `emitted` is a count, not an id: the base is subtracted.
        assert_eq!(stream.emitted() as usize, ids.len());
    }

    #[test]
    fn sessions_emit_correlated_trains() {
        let spec = WorkloadSpec::sessions(
            ArrivalProcess::Poisson { rate_per_sec: 0.5 },
            SessionModel::browsing(),
            ClientSpec::default(),
        );
        struct UserSampler;
        impl RequestSampler for UserSampler {
            type Request = (u64, RequestKind);
            fn sample(&mut self, ctx: RequestContext<'_>, _rng: &mut SimRng) -> Self::Request {
                let RequestIntent::Kind(kind) = ctx.intent else {
                    panic!("session sources emit kinds");
                };
                (ctx.user, kind)
            }
        }
        let (start, end) = window(600);
        let master = SimRng::seed_from(3);
        let mut stream = WorkloadStream::new(&spec, start, end, 0, &master, UserSampler);
        let requests: Vec<(u64, RequestKind)> = stream.by_ref().collect();
        let sessions = stream.sessions_started();
        assert!(sessions > 100, "expected ~300 sessions, got {sessions}");
        // Correlated trains: far more requests than sessions.
        assert!(
            requests.len() as u64 > 2 * sessions,
            "{} requests from {sessions} sessions",
            requests.len()
        );
        // The slab stayed bounded by concurrency, not total sessions.
        assert!(
            stream.peak_active_sessions() < sessions as usize / 2,
            "peak {} vs {} sessions",
            stream.peak_active_sessions(),
            sessions
        );
        // Multiple requests share each user id.
        let mut users: Vec<u64> = requests.iter().map(|(u, _)| *u).collect();
        users.sort_unstable();
        users.dedup();
        assert_eq!(users.len() as u64, sessions);
    }

    #[test]
    fn session_request_rate_tracks_the_analytic_mean() {
        let model = SessionModel::browsing();
        let per_session = model.mean_requests_per_session();
        let spec = WorkloadSpec::sessions(
            ArrivalProcess::Poisson { rate_per_sec: 1.0 },
            model,
            ClientSpec::default(),
        );
        let requests = collect(&spec, 2_000, 4);
        // Sessions that straddle the window end are truncated, so allow a
        // generous tolerance around rate × per_session × window.
        let expected = 1.0 * per_session * 2_000.0;
        let n = requests.len() as f64;
        assert!(
            (n - expected).abs() < 0.2 * expected,
            "{n} requests vs expected {expected}"
        );
    }

    #[test]
    fn same_seed_same_stream_and_rngs_round_trip() {
        let spec = WorkloadSpec::sessions(
            ArrivalProcess::diurnal(1.0, 0.7, 120.0, 8),
            SessionModel::browsing(),
            ClientSpec::default(),
        );
        let a = collect(&spec, 300, 9);
        let b = collect(&spec, 300, 9);
        assert_eq!(a, b);
        // into_source_rngs hands back one RNG per source.
        let (start, end) = window(10);
        let master = SimRng::seed_from(9);
        let mut stream = WorkloadStream::new(&spec, start, end, 0, &master, KindSampler);
        while stream.next().is_some() {}
        assert_eq!(stream.into_source_rngs().len(), 1);
    }

    #[test]
    fn empty_spec_streams_nothing() {
        let spec = WorkloadSpec::empty();
        assert!(collect(&spec, 100, 1).is_empty());
    }
}
