//! Background (non-MFC) traffic generation.
//!
//! Every cooperating-site experiment in the paper runs against a server
//! that is simultaneously serving its regular users: Univ-1 saw ~0.15
//! requests/s, Univ-2 2.9–4.2 requests/s, Univ-3 12.5–20.3 requests/s, and
//! the QTP production system handled millions of non-MFC requests during
//! the test window (§4).  The paper observes that background load shifts
//! the Base-stage stopping size at Univ-3 and recommends running MFCs under
//! diverse background conditions.
//!
//! The heavy lifting now lives in `mfc-workload`: [`BackgroundTraffic`] is
//! a thin adapter that expresses the original flat-Poisson background as
//! the degenerate [`WorkloadSpec`] (one constant-rate source with a
//! class-mix request model) and streams it through the same
//! [`WorkloadStream`] every richer workload uses.  The adapter is
//! *bit-compatible* with the pre-workload generator — same draws from the
//! same RNG in the same order — which the pin tests at the bottom of this
//! file hold it to.
//!
//! [`CatalogSampler`] is the bridge for every workload, not just this one:
//! it maps the abstract request intents a [`WorkloadStream`] emits (mix
//! draws and session page views) onto concrete [`ServerRequest`]s against
//! a server's [`ContentCatalog`].

use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_simnet::Bandwidth;
use mfc_workload::{
    ClientSpec, MixWeights, RequestContext, RequestIntent, RequestKind, RequestSampler,
    WorkloadSpec, WorkloadStream,
};
use serde::{Deserialize, Serialize};

use crate::content::{ContentCatalog, ObjectId, ObjectSpec};
use crate::request::{RequestClass, ServerRequest};

/// Mix of request classes in the background workload, as weights.
///
/// This is [`mfc_workload::MixWeights`] under its historical name; the
/// serialized form (field names and defaults) is unchanged.
pub type BackgroundMix = MixWeights;

/// A Poisson background-traffic source for one server: the degenerate
/// workload (constant rate, independent requests) kept for the paper's
/// scenarios and as the compatibility surface of `SimTargetSpec`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackgroundTraffic {
    /// Mean request rate in requests per second.
    pub rate_per_sec: f64,
    /// Request-class mix.
    pub mix: BackgroundMix,
    /// Downlink bandwidth assumed for background clients (bytes/s).
    pub client_downlink: Bandwidth,
    /// RTT assumed for background clients.
    pub client_rtt: SimDuration,
}

impl BackgroundTraffic {
    /// No background traffic at all (the "raw infrastructure" mode the
    /// paper offers cooperating operators).
    pub fn idle() -> Self {
        BackgroundTraffic {
            rate_per_sec: 0.0,
            mix: BackgroundMix::default(),
            client_downlink: 2_000_000.0,
            client_rtt: SimDuration::from_millis(60),
        }
    }

    /// Background traffic at the given request rate with the default mix.
    pub fn at_rate(rate_per_sec: f64) -> Self {
        BackgroundTraffic {
            rate_per_sec,
            ..BackgroundTraffic::idle()
        }
    }

    /// The equivalent [`WorkloadSpec`]: one constant-rate Poisson source
    /// with this mix and client profile.
    pub fn workload_spec(&self) -> WorkloadSpec {
        WorkloadSpec::poisson_mix(
            self.rate_per_sec,
            self.mix,
            ClientSpec {
                downlink: self.client_downlink,
                rtt: self.client_rtt,
            },
        )
    }

    /// Generates the background arrivals falling inside `[start, end)`.
    ///
    /// Request ids start at `id_base` so callers can keep them disjoint
    /// from MFC request ids.
    ///
    /// # Examples
    ///
    /// ```
    /// use mfc_simcore::{SimDuration, SimRng, SimTime};
    /// use mfc_webserver::{BackgroundTraffic, ContentCatalog};
    ///
    /// let catalog = ContentCatalog::typical_site(1);
    /// let bg = BackgroundTraffic::at_rate(5.0);
    /// let mut rng = SimRng::seed_from(9);
    /// let arrivals = bg.generate(
    ///     &catalog,
    ///     SimTime::ZERO,
    ///     SimTime::ZERO + SimDuration::from_secs(60),
    ///     1_000_000,
    ///     &mut rng,
    /// );
    /// // ~300 requests expected over a minute at 5 req/s.
    /// assert!(arrivals.len() > 200 && arrivals.len() < 400);
    /// assert!(arrivals.iter().all(|r| r.background));
    /// ```
    pub fn generate(
        &self,
        catalog: &ContentCatalog,
        start: SimTime,
        end: SimTime,
        id_base: u64,
        rng: &mut SimRng,
    ) -> Vec<ServerRequest> {
        if self.rate_per_sec <= 0.0 || end <= start {
            return Vec::new();
        }
        let spec = self.workload_spec();
        let sampler = CatalogSampler::background(catalog);
        let mut stream = WorkloadStream::with_source_rngs(
            &spec,
            start,
            end,
            id_base,
            vec![rng.clone()],
            sampler,
        );
        let requests: Vec<ServerRequest> = stream.by_ref().collect();
        // Hand the advanced RNG back so the caller's stream position is
        // exactly where the pre-workload generator would have left it.
        *rng = stream
            .into_source_rngs()
            .pop()
            .expect("the degenerate spec has one source");
        requests
    }
}

/// Maps workload request intents onto concrete *background* requests (the
/// non-MFC traffic the server serves alongside the probes) against a
/// server's [`ContentCatalog`].
///
/// The sampler resolves every object it may pick once, at construction,
/// and keeps only their [`ObjectId`]s: sampling a mix draw or a session
/// page view indexes a bucket and touches no path, and the sampler does
/// not borrow the catalog.
///
/// The mix path reproduces the pre-workload `BackgroundTraffic` sampling
/// logic draw for draw (one weighted-choice draw, then one index draw for
/// the chosen class), which is what keeps the adapter bit-compatible.
/// Session page views use the same catalog buckets with a base-page
/// fallback when the site lacks the requested class.
#[derive(Debug)]
pub struct CatalogSampler {
    /// Static objects below the Large Object bound, in catalog order.
    small_static: Vec<ObjectId>,
    /// The catalog's Large Objects, in catalog order.
    large: Vec<ObjectId>,
    /// The catalog's Small Queries, in catalog order.
    queries: Vec<ObjectId>,
}

impl CatalogSampler {
    /// A sampler over `catalog`, which it buckets once, so sampling a
    /// request filters nothing.  Each object is stored as the id its path
    /// resolves to, so a path the catalog lists twice names its first
    /// copy, as a request for that path always has.
    pub fn background(catalog: &ContentCatalog) -> Self {
        let ids = |objects: Vec<&ObjectSpec>| -> Vec<ObjectId> {
            objects
                .into_iter()
                .filter_map(|o| catalog.resolve(&o.path))
                .collect()
        };
        CatalogSampler {
            small_static: ids(catalog
                .objects()
                .iter()
                .filter(|o| !o.kind.is_dynamic() && !o.is_large_object())
                .collect()),
            large: ids(catalog.large_objects()),
            queries: ids(catalog.small_queries()),
        }
    }

    /// Picks a concrete `(class, object)` from one catalog bucket: one
    /// index draw when the bucket is non-empty, otherwise the base page
    /// with the caller's `fallback` class (`Head` on the mix path, a plain
    /// `Static` GET for session page views).  `BasePage` itself is the
    /// fallback object and draws nothing.
    fn pick_bucket(
        &self,
        kind: RequestKind,
        fallback: RequestClass,
        rng: &mut SimRng,
    ) -> (RequestClass, ObjectId) {
        let (class, bucket) = match kind {
            RequestKind::BasePage => (fallback, &[][..]),
            RequestKind::StaticSmall => (RequestClass::Static, &self.small_static[..]),
            RequestKind::StaticLarge => (RequestClass::Static, &self.large[..]),
            RequestKind::Dynamic => (RequestClass::Dynamic, &self.queries[..]),
        };
        if bucket.is_empty() {
            (fallback, ObjectId::BASE_PAGE)
        } else {
            (class, bucket[rng.index(bucket.len())])
        }
    }

    /// A session page view or embedded object: missing buckets fall back
    /// to a plain GET of the base page.
    fn pick_kind(&self, kind: RequestKind, rng: &mut SimRng) -> (RequestClass, ObjectId) {
        self.pick_bucket(kind, RequestClass::Static, rng)
    }

    /// The mix path of the pre-workload generator, preserved draw for
    /// draw: one weighted-choice draw for the class (skipped for an
    /// all-zero mix), then the bucket's index draw, with HEAD fallbacks.
    fn pick_mix(&self, mix: &MixWeights, rng: &mut SimRng) -> (RequestClass, ObjectId) {
        const SLOTS: [RequestKind; 4] = [
            RequestKind::BasePage,
            RequestKind::StaticSmall,
            RequestKind::StaticLarge,
            RequestKind::Dynamic,
        ];
        let weights: [(usize, f64); 4] = [
            (0, mix.head),
            (1, mix.static_small),
            (2, mix.static_large),
            (3, mix.dynamic),
        ];
        let slot = if weights.iter().all(|(_, w)| *w <= 0.0) {
            0
        } else {
            *rng.weighted_choice(&weights)
        };
        self.pick_bucket(SLOTS[slot], RequestClass::Head, rng)
    }
}

impl RequestSampler for CatalogSampler {
    type Request = ServerRequest;

    fn sample(&mut self, ctx: RequestContext<'_>, rng: &mut SimRng) -> ServerRequest {
        let (class, object) = match ctx.intent {
            RequestIntent::Mix(mix) => self.pick_mix(mix, rng),
            RequestIntent::Kind(kind) => self.pick_kind(kind, rng),
        };
        ServerRequest {
            id: ctx.id,
            arrival: ctx.time,
            class,
            object: Some(object),
            client_downlink: ctx.downlink,
            client_rtt: ctx.rtt,
            // Background users come from a large, churned population:
            // derive a source address from the synthetic user in a space
            // disjoint from MFC clients (which use small ClientId values).
            // A session's requests share one user, hence one address.
            client_addr: 0x8000_0000 | (ctx.user % 4093) as u32,
            background: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_workload::{ArrivalProcess, RequestModel, SessionModel, SourceSpec};

    fn window() -> (SimTime, SimTime) {
        (SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(120))
    }

    #[test]
    fn idle_generates_nothing() {
        let catalog = ContentCatalog::typical_site(1);
        let (start, end) = window();
        let mut rng = SimRng::seed_from(1);
        let arrivals = BackgroundTraffic::idle().generate(&catalog, start, end, 0, &mut rng);
        assert!(arrivals.is_empty());
    }

    #[test]
    fn rate_is_approximately_respected() {
        let catalog = ContentCatalog::typical_site(1);
        let (start, end) = window();
        let mut rng = SimRng::seed_from(2);
        let arrivals = BackgroundTraffic::at_rate(10.0).generate(&catalog, start, end, 0, &mut rng);
        let expected = 10.0 * 120.0;
        let n = arrivals.len() as f64;
        assert!((n - expected).abs() < expected * 0.2, "got {n} arrivals");
    }

    #[test]
    fn arrivals_are_ordered_and_inside_window() {
        let catalog = ContentCatalog::typical_site(1);
        let (start, end) = window();
        let mut rng = SimRng::seed_from(3);
        let arrivals = BackgroundTraffic::at_rate(4.2).generate(&catalog, start, end, 0, &mut rng);
        for pair in arrivals.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        assert!(arrivals
            .iter()
            .all(|r| r.arrival >= start && r.arrival < end));
    }

    #[test]
    fn ids_start_at_base_and_are_unique() {
        let catalog = ContentCatalog::typical_site(1);
        let (start, end) = window();
        let mut rng = SimRng::seed_from(4);
        let arrivals =
            BackgroundTraffic::at_rate(5.0).generate(&catalog, start, end, 7_000, &mut rng);
        assert!(arrivals.iter().all(|r| r.id >= 7_000));
        let mut ids: Vec<u64> = arrivals.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), arrivals.len());
    }

    #[test]
    fn paths_exist_in_catalog() {
        let catalog = ContentCatalog::typical_site(1);
        let (start, end) = window();
        let mut rng = SimRng::seed_from(5);
        let arrivals = BackgroundTraffic::at_rate(8.0).generate(&catalog, start, end, 0, &mut rng);
        for r in &arrivals {
            assert!(
                r.object.is_some(),
                "background request {} for an unknown path",
                r.id
            );
        }
    }

    #[test]
    fn mix_produces_multiple_classes() {
        let catalog = ContentCatalog::typical_site(1);
        let (start, end) = window();
        let mut rng = SimRng::seed_from(6);
        let arrivals = BackgroundTraffic::at_rate(20.0).generate(&catalog, start, end, 0, &mut rng);
        let dynamic = arrivals
            .iter()
            .filter(|r| r.class == RequestClass::Dynamic)
            .count();
        let static_reqs = arrivals
            .iter()
            .filter(|r| r.class == RequestClass::Static)
            .count();
        assert!(dynamic > 0);
        assert!(static_reqs > 0);
    }

    #[test]
    fn same_seed_same_trace() {
        let catalog = ContentCatalog::typical_site(1);
        let (start, end) = window();
        let mut rng_a = SimRng::seed_from(7);
        let mut rng_b = SimRng::seed_from(7);
        let a = BackgroundTraffic::at_rate(3.0).generate(&catalog, start, end, 0, &mut rng_a);
        let b = BackgroundTraffic::at_rate(3.0).generate(&catalog, start, end, 0, &mut rng_b);
        assert_eq!(a, b);
    }

    // ---------------------------------------------------------------
    // The compatibility pin: the adapter must reproduce the
    // pre-workload generator bit for bit — same requests *and* the same
    // final RNG state.  `reference_generate` below is a verbatim copy of
    // the generator this adapter replaced.
    // ---------------------------------------------------------------

    fn reference_sample_request(
        bg: &BackgroundTraffic,
        catalog: &ContentCatalog,
        arrival: SimTime,
        id: u64,
        rng: &mut SimRng,
    ) -> ServerRequest {
        let weights: [(usize, f64); 4] = [
            (0, bg.mix.head),
            (1, bg.mix.static_small),
            (2, bg.mix.static_large),
            (3, bg.mix.dynamic),
        ];
        let slot = if weights.iter().all(|(_, w)| *w <= 0.0) {
            0
        } else {
            *rng.weighted_choice(&weights)
        };
        let (class, path) = match slot {
            0 => (RequestClass::Head, catalog.base_page().path.clone()),
            1 => {
                let small: Vec<&crate::content::ObjectSpec> = catalog
                    .objects()
                    .iter()
                    .filter(|o| !o.kind.is_dynamic() && !o.is_large_object())
                    .collect();
                if small.is_empty() {
                    (RequestClass::Head, catalog.base_page().path.clone())
                } else {
                    let idx = rng.index(small.len());
                    (RequestClass::Static, small[idx].path.clone())
                }
            }
            2 => {
                let large = catalog.large_objects();
                if large.is_empty() {
                    (RequestClass::Head, catalog.base_page().path.clone())
                } else {
                    let idx = rng.index(large.len());
                    (RequestClass::Static, large[idx].path.clone())
                }
            }
            _ => {
                let queries = catalog.small_queries();
                if queries.is_empty() {
                    (RequestClass::Head, catalog.base_page().path.clone())
                } else {
                    let idx = rng.index(queries.len());
                    (RequestClass::Dynamic, queries[idx].path.clone())
                }
            }
        };
        ServerRequest {
            id,
            arrival,
            class,
            object: catalog.resolve(&path),
            client_downlink: bg.client_downlink,
            client_rtt: bg.client_rtt,
            client_addr: 0x8000_0000 | (id % 4093) as u32,
            background: true,
        }
    }

    fn reference_generate(
        bg: &BackgroundTraffic,
        catalog: &ContentCatalog,
        start: SimTime,
        end: SimTime,
        id_base: u64,
        rng: &mut SimRng,
    ) -> Vec<ServerRequest> {
        let mut requests = Vec::new();
        if bg.rate_per_sec <= 0.0 || end <= start {
            return requests;
        }
        let mean_gap = 1.0 / bg.rate_per_sec;
        let mut t = start;
        let mut id = id_base;
        loop {
            let gap = SimDuration::from_secs_f64(rng.exponential(mean_gap));
            let gap = gap.max(SimDuration::from_micros(1));
            t += gap;
            if t >= end {
                break;
            }
            requests.push(reference_sample_request(bg, catalog, t, id, rng));
            id += 1;
        }
        requests
    }

    #[test]
    fn adapter_is_bit_identical_to_the_reference_generator() {
        let catalogs = [
            ContentCatalog::typical_site(1),
            ContentCatalog::lab_validation(),
            // A site with no small statics, no large objects and no
            // queries: exercises every HEAD fallback.
            ContentCatalog::new(
                crate::content::ObjectSpec::static_object(
                    "/only.html",
                    crate::content::ObjectKind::Text,
                    2048,
                ),
                vec![],
            ),
        ];
        let mixes = [
            BackgroundMix::default(),
            MixWeights::downloads(),
            // Degenerate all-zero mix: the HEAD-only path, no
            // weighted-choice draw.
            MixWeights {
                head: 0.0,
                static_small: 0.0,
                static_large: 0.0,
                dynamic: 0.0,
            },
        ];
        for (catalog_index, catalog) in catalogs.iter().enumerate() {
            for (mix_index, mix) in mixes.iter().enumerate() {
                for (seed, rate, window_secs, id_base) in [
                    (11u64, 0.15, 200u64, 0u64),
                    (12, 4.2, 120, 1_000_000_000),
                    (13, 20.3, 60, 77),
                    (14, 120.0, 30, 5),
                ] {
                    let bg = BackgroundTraffic {
                        rate_per_sec: rate,
                        mix: *mix,
                        ..BackgroundTraffic::idle()
                    };
                    let start = SimTime::ZERO + SimDuration::from_secs(seed);
                    let end = start + SimDuration::from_secs(window_secs);
                    let mut rng_new = SimRng::seed_from(seed * 1000 + rate as u64);
                    let mut rng_ref = rng_new.clone();
                    let new = bg.generate(catalog, start, end, id_base, &mut rng_new);
                    let reference =
                        reference_generate(&bg, catalog, start, end, id_base, &mut rng_ref);
                    assert_eq!(
                        new, reference,
                        "adapter diverged (catalog {catalog_index}, mix {mix_index}, \
                         seed {seed}, rate {rate})"
                    );
                    // The caller's RNG must also end in the same state.
                    assert_eq!(
                        rng_new.next_u64(),
                        rng_ref.next_u64(),
                        "RNG state diverged (catalog {catalog_index}, mix {mix_index}, \
                         seed {seed}, rate {rate})"
                    );
                }
            }
        }
    }

    #[test]
    fn workload_spec_round_trips_the_background_parameters() {
        let bg = BackgroundTraffic::at_rate(6.5);
        let spec = bg.workload_spec();
        assert_eq!(spec.sources.len(), 1);
        assert!((spec.mean_request_rate() - 6.5).abs() < 1e-12);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn session_workloads_share_addresses_within_a_session() {
        let catalog = ContentCatalog::typical_site(2);
        let spec = WorkloadSpec::sessions(
            ArrivalProcess::Poisson { rate_per_sec: 0.3 },
            SessionModel::browsing(),
            ClientSpec::default(),
        );
        let master = SimRng::seed_from(21);
        let requests: Vec<ServerRequest> = WorkloadStream::new(
            &spec,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(600),
            0,
            &master,
            CatalogSampler::background(&catalog),
        )
        .collect();
        assert!(requests.len() > 100, "got {}", requests.len());
        // Fewer distinct addresses than requests: sessions reuse theirs.
        let mut addrs: Vec<u32> = requests.iter().map(|r| r.client_addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert!(addrs.len() * 2 < requests.len());
        // Every request names a hosted object (the catalog has all classes).
        assert!(requests.iter().all(|r| r.object.is_some()));
        assert!(requests.iter().all(|r| r.background));
    }

    #[test]
    fn kind_fallbacks_survive_a_minimal_catalog() {
        // A base-page-only site: every session kind falls back to the base
        // page instead of panicking.
        let catalog = ContentCatalog::new(
            crate::content::ObjectSpec::static_object(
                "/home.html",
                crate::content::ObjectKind::Text,
                1024,
            ),
            vec![],
        );
        let spec = WorkloadSpec::empty().with_source(SourceSpec {
            label: "sessions".to_string(),
            client: ClientSpec::default(),
            arrivals: ArrivalProcess::Poisson { rate_per_sec: 1.0 },
            requests: RequestModel::Sessions(SessionModel::browsing()),
        });
        let master = SimRng::seed_from(31);
        let requests: Vec<ServerRequest> = WorkloadStream::new(
            &spec,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(120),
            0,
            &master,
            CatalogSampler::background(&catalog),
        )
        .collect();
        assert!(!requests.is_empty());
        assert!(requests
            .iter()
            .all(|r| r.object == catalog.resolve("/home.html")));
    }
}
