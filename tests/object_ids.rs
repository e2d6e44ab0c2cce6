//! Requests name catalog objects by id, resolved once where the request is
//! made.  These tests build requests from `ContentCatalog::resolve` or
//! `CatalogSampler`, serve them through `ServerCluster::run` and check that
//! ids behave exactly as paths did: a path the catalog does not host still
//! comes back 404, a path listed twice is one object with one cache entry,
//! and each distinct query has a query cache entry of its own.

use mfc_simcore::{SimDuration, SimRng, SimTime};
use mfc_webserver::{
    CatalogSampler, ContentCatalog, NullControl, ObjectKind, ObjectSpec, RequestClass,
    RequestStatus, ServerCluster, ServerConfig, ServerRequest, WorkloadSpec, WorkloadStream,
};
use mfc_workload::{ClientSpec, MixWeights};

/// The requests `spec` streams over its first `secs` seconds against
/// `catalog`, sampled by `CatalogSampler`.
fn sample(spec: &WorkloadSpec, catalog: &ContentCatalog, secs: u64) -> Vec<ServerRequest> {
    WorkloadStream::new(
        spec,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_secs(secs),
        0,
        &SimRng::seed_from(0x1d5),
        CatalogSampler::background(catalog),
    )
    .collect()
}

/// One GET a second for each of `paths`, naming the object the path
/// resolves to in `catalog` (`None` when the catalog does not host it).
/// A hosted query, or an unhosted path with a query string, is a dynamic
/// request.
fn gets(catalog: &ContentCatalog, paths: &[&str]) -> Vec<ServerRequest> {
    let client = ClientSpec::default();
    paths
        .iter()
        .enumerate()
        .map(|(i, path)| {
            let object = catalog.resolve(path);
            let dynamic = object.map_or(path.contains('?'), |id| {
                catalog.object(id).kind.is_dynamic()
            });
            ServerRequest {
                id: i as u64,
                arrival: SimTime::ZERO + SimDuration::from_secs(i as u64),
                class: if dynamic {
                    RequestClass::Dynamic
                } else {
                    RequestClass::Static
                },
                object,
                client_downlink: client.downlink,
                client_rtt: client.rtt,
                client_addr: i as u32,
                background: false,
            }
        })
        .collect()
}

#[test]
fn a_path_the_catalog_does_not_host_completes_not_found() {
    let catalog = ContentCatalog::lab_validation();
    let requests = gets(
        &catalog,
        &[
            "/no/such/file.bin",
            "/objects/large_100k.bin",
            "/cgi/missing?table=t9",
        ],
    );
    let objects: Vec<_> = requests.iter().map(|r| r.object).collect();
    assert_eq!(
        objects,
        [None, catalog.resolve("/objects/large_100k.bin"), None]
    );
    let mut cluster = ServerCluster::new(ServerConfig::lab_apache(), catalog.clone(), 1);
    let result = cluster.run(requests, &mut NullControl);
    let statuses: Vec<_> = result.outcomes.iter().map(|o| o.status).collect();
    assert_eq!(
        statuses,
        [
            RequestStatus::NotFound,
            RequestStatus::Ok,
            RequestStatus::NotFound
        ]
    );
    assert_eq!(result.outcomes[0].body_bytes, 0);
    assert_eq!(result.outcomes[1].body_bytes, 100 * 1024);
}

#[test]
fn both_copies_of_a_path_listed_twice_are_its_first_object() {
    let catalog = ContentCatalog::new(
        ObjectSpec::static_object("/index.html", ObjectKind::Text, 4 * 1024),
        vec![
            ObjectSpec::static_object("/dup.html", ObjectKind::Text, 2 * 1024),
            ObjectSpec::static_object("/dup.html", ObjectKind::Text, 9 * 1024),
        ],
    );
    let first = catalog.resolve("/dup.html").expect("hosted");
    assert_eq!(catalog.object(first).size_bytes, 2 * 1024);
    // Small statics only: every draw picks one of the two copies from the
    // sampler's bucket, and both name the first.
    let mix = MixWeights {
        head: 0.0,
        static_small: 1.0,
        static_large: 0.0,
        dynamic: 0.0,
    };
    let spec = WorkloadSpec::poisson_mix(0.5, mix, ClientSpec::default());
    let requests = sample(&spec, &catalog, 120);
    assert!(requests.len() > 20, "got {}", requests.len());
    assert!(requests.iter().all(|r| r.object == Some(first)));

    let mut cluster = ServerCluster::new(ServerConfig::lab_apache(), catalog.clone(), 1);
    let result = cluster.run(requests, &mut NullControl);
    assert!(result
        .outcomes
        .iter()
        .all(|o| o.is_ok() && o.body_bytes == 2 * 1024));
    // One cache entry: the first request read the disk, the rest hit.
    let cache = &cluster.caches()[0];
    assert_eq!(cache.object_cache_bytes(), 2 * 1024);
    assert_eq!(cache.object_stats(), (result.outcomes.len() as u64 - 1, 1));
}

#[test]
fn distinct_queries_miss_the_query_cache_separately_and_a_repeat_hits() {
    let mut catalog = ContentCatalog::lab_validation();
    catalog.push(ObjectSpec::query("/cgi/stats?table=t2", 100, 50_000));
    let requests = gets(
        &catalog,
        &[
            "/cgi/stats?table=t1",
            "/cgi/stats?table=t2",
            "/cgi/stats?table=t1",
        ],
    );
    assert_ne!(requests[0].object, requests[1].object);
    assert_eq!(requests[0].object, requests[2].object);

    let mut cluster = ServerCluster::new(ServerConfig::lab_apache(), catalog.clone(), 1);
    let result = cluster.run(requests, &mut NullControl);
    assert!(result.outcomes.iter().all(|o| o.is_ok()));
    let cache = &cluster.caches()[0];
    assert_eq!(cache.query_stats(), (1, 2));
    assert_eq!(cache.query_cache_entries(), 2);
    // The repeat skipped the 50k-row scan.
    assert!(result.outcomes[2].latency() < result.outcomes[0].latency());
}
