//! The cooperating sites of §4, rebuilt as simulated targets.
//!
//! The paper's §4 experiments ran against five real systems whose operators
//! shared logs and ground truth.  Each preset below encodes what the paper
//! (and the operators' feedback) tells us about that system's provisioning,
//! so that running the standard MFC against the preset reproduces the
//! qualitative row of Table 1 / Table 3:
//!
//! | Site   | What the paper found                                                            |
//! |--------|---------------------------------------------------------------------------------|
//! | QTNP   | Base degrades at ~20–25 clients, Small Query at ~45–55, Large Object never      |
//! | QTP    | 16 load-balanced multiprocessor servers: nothing degrades even at 375 requests   |
//! | Univ-1 | Tiny research-group server: everything degrades at a handful of clients, bandwidth last |
//! | Univ-2 | 1 Gbps link but an old software configuration: all stages stop around 110–150 (thread-limit artifact) |
//! | Univ-3 | Adequate base processing and bandwidth, but uncached queries collapse at ~30; Base is background-sensitive |

use mfc_core::backend::sim::SimTargetSpec;
use mfc_core::config::MfcConfig;
use mfc_simcore::SimDuration;
use mfc_simnet::{mbps, TcpModel};
use mfc_webserver::{
    BackgroundTraffic, ContentCatalog, DatabaseConfig, DynamicHandler, HardwareSpec,
    ObjectCacheConfig, ObjectKind, ObjectSpec, ServerConfig, WorkerConfig,
};
use serde::{Deserialize, Serialize};

/// The named cooperating sites of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoopSite {
    /// The top-50 commercial site's non-production twin.
    Qtnp,
    /// The top-50 commercial site's production data centre (16 replicas).
    Qtp,
    /// The European research-group web server.
    Univ1,
    /// The first US computer-science departmental server (1 Gbps link,
    /// years-old software configuration).
    Univ2,
    /// The second US departmental server (Sun V240, heavy background
    /// traffic, poor query caching).
    Univ3,
}

impl CoopSite {
    /// All cooperating sites.
    pub const ALL: [CoopSite; 5] = [
        CoopSite::Qtnp,
        CoopSite::Qtp,
        CoopSite::Univ1,
        CoopSite::Univ2,
        CoopSite::Univ3,
    ];

    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            CoopSite::Qtnp => "QTNP",
            CoopSite::Qtp => "QTP",
            CoopSite::Univ1 => "Univ-1",
            CoopSite::Univ2 => "Univ-2",
            CoopSite::Univ3 => "Univ-3",
        }
    }

    /// The content a crawl of the site would discover.
    fn catalog(self) -> ContentCatalog {
        match self {
            CoopSite::Qtnp | CoopSite::Qtp => {
                // A large database-backed commercial site: a dynamically
                // generated portal page, many distinct small queries and a
                // few large downloadable assets.
                let base = ObjectSpec::static_object("/index.html", ObjectKind::Text, 60 * 1024);
                let mut objects = Vec::new();
                for i in 0..128 {
                    objects.push(ObjectSpec::query(
                        format!("/lookup?record={i}"),
                        6 * 1024,
                        40_000,
                    ));
                }
                for i in 0..4 {
                    objects.push(ObjectSpec::static_object(
                        format!("/assets/catalog_{i}.pdf"),
                        ObjectKind::Binary,
                        (400 + 200 * i) * 1024,
                    ));
                }
                ContentCatalog::new(base, objects)
            }
            CoopSite::Univ1 => {
                // A research group's pages: a handful of publications and a
                // small CGI publication-search script.
                let base = ObjectSpec::static_object("/index.html", ObjectKind::Text, 12 * 1024);
                let mut objects = vec![ObjectSpec::static_object(
                    "/papers/thesis.pdf",
                    ObjectKind::Binary,
                    900 * 1024,
                )];
                for i in 0..8 {
                    objects.push(ObjectSpec::query(
                        format!("/cgi-bin/pubs?author={i}"),
                        3 * 1024,
                        20_000,
                    ));
                }
                ContentCatalog::new(base, objects)
            }
            CoopSite::Univ2 | CoopSite::Univ3 => {
                // A departmental site: course pages, large lecture videos
                // and a directory-search CGI.
                let base = ObjectSpec::static_object("/index.html", ObjectKind::Text, 25 * 1024);
                let mut objects = Vec::new();
                for i in 0..6 {
                    objects.push(ObjectSpec::static_object(
                        format!("/courses/lecture_{i}.mp4"),
                        ObjectKind::Binary,
                        (800 + 300 * i) * 1024,
                    ));
                }
                for i in 0..64 {
                    objects.push(ObjectSpec::query(
                        format!("/cgi-bin/directory?person={i}"),
                        4 * 1024,
                        30_000,
                    ));
                }
                ContentCatalog::new(base, objects)
            }
        }
    }

    /// The simulated target for this site.
    pub fn target_spec(self) -> SimTargetSpec {
        match self {
            CoopSite::Qtnp => {
                // A single non-production machine with the production
                // content: plenty of bandwidth, but the dynamically
                // assembled front page is expensive, and the small query
                // passes through a back-end stage with limited concurrency
                // (the operators' "known contention point").
                let server = ServerConfig {
                    hardware: HardwareSpec {
                        cpu_cores: 4,
                        cpu_speed: 1.2,
                        ram_bytes: 8 * 1024 * 1024 * 1024,
                        ..HardwareSpec::default()
                    },
                    access_link: mbps(1000.0),
                    workers: WorkerConfig {
                        max_workers: 512,
                        listen_queue: 1024,
                        per_request_cpu: 0.000_5,
                        base_page_cpu: 0.024,
                        ..WorkerConfig::default()
                    },
                    dynamic_handler: DynamicHandler::PersistentPool {
                        pool_size: 64,
                        pool_memory: 512 * 1024 * 1024,
                    },
                    database: DatabaseConfig {
                        query_cache: false,
                        base_query_cpu: 0.018,
                        cpu_per_1k_rows: 0.000_15,
                        max_concurrent_queries: 12,
                        cache_hit_cpu: 0.000_5,
                    },
                    object_cache: ObjectCacheConfig::default(),
                    tcp: TcpModel::default(),
                    baseline_memory: 1024 * 1024 * 1024,
                    swap_penalty: 8.0,
                };
                SimTargetSpec::single_server(server, self.catalog())
                    .with_background(BackgroundTraffic::at_rate(0.5))
            }
            CoopSite::Qtp => {
                // The production data centre: sixteen multiprocessor
                // servers behind one IP, heavy regular traffic.
                let server = ServerConfig {
                    hardware: HardwareSpec::datacenter_class(),
                    access_link: mbps(4000.0),
                    workers: WorkerConfig {
                        max_workers: 1024,
                        listen_queue: 4096,
                        per_request_cpu: 0.000_3,
                        base_page_cpu: 0.002,
                        ..WorkerConfig::default()
                    },
                    dynamic_handler: DynamicHandler::PersistentPool {
                        pool_size: 256,
                        pool_memory: 2 * 1024 * 1024 * 1024,
                    },
                    database: DatabaseConfig {
                        query_cache: true,
                        base_query_cpu: 0.003,
                        cpu_per_1k_rows: 0.000_05,
                        max_concurrent_queries: 256,
                        cache_hit_cpu: 0.000_4,
                    },
                    object_cache: ObjectCacheConfig {
                        enabled: true,
                        capacity_bytes: 8 * 1024 * 1024 * 1024,
                    },
                    tcp: TcpModel::well_tuned(),
                    baseline_memory: 2 * 1024 * 1024 * 1024,
                    swap_penalty: 8.0,
                };
                SimTargetSpec::cluster(server, self.catalog(), 16)
                    // ~3 million background requests over the experiment in
                    // the paper; per epoch window this is on the order of a
                    // few hundred requests per second into the data centre.
                    .with_background(BackgroundTraffic::at_rate(300.0))
                    .with_control_loss(0.04)
            }
            CoopSite::Univ1 => {
                // A small, old research-group machine on a modest link.
                let server = ServerConfig {
                    hardware: HardwareSpec {
                        cpu_cores: 1,
                        cpu_speed: 0.35,
                        ram_bytes: 512 * 1024 * 1024,
                        ..HardwareSpec::low_end()
                    },
                    access_link: mbps(40.0),
                    workers: WorkerConfig {
                        max_workers: 64,
                        listen_queue: 128,
                        per_request_cpu: 0.004,
                        base_page_cpu: 0.012,
                        ..WorkerConfig::default()
                    },
                    dynamic_handler: DynamicHandler::ForkPerRequest {
                        memory_per_process: 16 * 1024 * 1024,
                        fork_cpu: 0.006,
                    },
                    database: DatabaseConfig {
                        query_cache: false,
                        base_query_cpu: 0.015,
                        cpu_per_1k_rows: 0.000_4,
                        max_concurrent_queries: 16,
                        cache_hit_cpu: 0.001,
                    },
                    object_cache: ObjectCacheConfig::default(),
                    tcp: TcpModel::default(),
                    baseline_memory: 180 * 1024 * 1024,
                    swap_penalty: 8.0,
                };
                SimTargetSpec::single_server(server, self.catalog())
                    .with_background(BackgroundTraffic::at_rate(0.15))
            }
            CoopSite::Univ2 => {
                // Modern hardware and a 1 Gbps link, but a software
                // configuration that has not changed in years: a modest
                // thread limit makes every stage queue at roughly the same
                // number of simultaneous requests.
                let server = ServerConfig {
                    hardware: HardwareSpec {
                        cpu_cores: 2,
                        cpu_speed: 1.0,
                        ram_bytes: 2 * 1024 * 1024 * 1024,
                        ..HardwareSpec::default()
                    },
                    access_link: mbps(1000.0),
                    workers: WorkerConfig {
                        max_workers: 256,
                        listen_queue: 1024,
                        per_request_cpu: 0.002,
                        base_page_cpu: 0.002,
                        ..WorkerConfig::default()
                    },
                    dynamic_handler: DynamicHandler::PersistentPool {
                        pool_size: 128,
                        pool_memory: 384 * 1024 * 1024,
                    },
                    database: DatabaseConfig {
                        query_cache: true,
                        base_query_cpu: 0.004,
                        cpu_per_1k_rows: 0.000_1,
                        max_concurrent_queries: 64,
                        cache_hit_cpu: 0.000_5,
                    },
                    object_cache: ObjectCacheConfig::default(),
                    tcp: TcpModel::default(),
                    baseline_memory: 400 * 1024 * 1024,
                    swap_penalty: 8.0,
                };
                SimTargetSpec::single_server(server, self.catalog())
                    .with_background(BackgroundTraffic::at_rate(4.2))
            }
            CoopSite::Univ3 => {
                // A 1.5 GHz Sun V240: adequate HTTP processing, generous
                // bandwidth, but a legacy application stack that does not
                // cache query responses and serializes them aggressively.
                // It runs Solaris, whose TCP send buffer defaults to 48 KB
                // (`tcp_xmit_hiwat` = 49152), so each response stream is
                // held to 48 KB per round trip.
                let server = ServerConfig {
                    hardware: HardwareSpec {
                        cpu_cores: 2,
                        cpu_speed: 0.6,
                        ram_bytes: 2 * 1024 * 1024 * 1024,
                        ..HardwareSpec::default()
                    },
                    access_link: mbps(1000.0),
                    workers: WorkerConfig {
                        max_workers: 512,
                        listen_queue: 1024,
                        per_request_cpu: 0.001,
                        base_page_cpu: 0.004,
                        ..WorkerConfig::default()
                    },
                    dynamic_handler: DynamicHandler::PersistentPool {
                        pool_size: 16,
                        pool_memory: 256 * 1024 * 1024,
                    },
                    database: DatabaseConfig {
                        query_cache: false,
                        base_query_cpu: 0.030,
                        cpu_per_1k_rows: 0.000_3,
                        max_concurrent_queries: 8,
                        cache_hit_cpu: 0.001,
                    },
                    object_cache: ObjectCacheConfig::default(),
                    tcp: TcpModel {
                        max_window_bytes: 48 * 1024,
                        ..TcpModel::default()
                    },
                    baseline_memory: 500 * 1024 * 1024,
                    swap_penalty: 8.0,
                };
                SimTargetSpec::single_server(server, self.catalog())
                    .with_background(BackgroundTraffic::at_rate(20.3))
            }
        }
    }

    /// The MFC configuration the paper used against this site.
    pub fn mfc_config(self) -> MfcConfig {
        match self {
            CoopSite::Qtnp => MfcConfig::standard().with_max_crowd(55),
            CoopSite::Qtp => MfcConfig::cooperative_mr()
                .with_requests_per_client(5)
                .with_max_crowd(75),
            CoopSite::Univ1 => MfcConfig::standard().with_max_crowd(55),
            CoopSite::Univ2 | CoopSite::Univ3 => MfcConfig::cooperative_mr().with_max_crowd(75),
        }
    }

    /// The MFC-mr variant run against QTNP on September 21 (two parallel
    /// requests per client, 250 ms threshold, larger crowd ceiling).
    pub fn qtnp_mr_config() -> MfcConfig {
        MfcConfig::cooperative_mr()
            .with_max_crowd(75)
            .with_threshold(SimDuration::from_millis(250))
    }

    /// Background request rate the paper reports during its experiments
    /// against this site (requests per second), for reporting alongside
    /// reproduced tables.
    pub fn paper_background_rate(self) -> f64 {
        match self {
            CoopSite::Qtnp => 0.5,
            CoopSite::Qtp => 300.0,
            CoopSite::Univ1 => 0.15,
            CoopSite::Univ2 => 4.2,
            CoopSite::Univ3 => 20.3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_site_has_probeable_content() {
        for site in CoopSite::ALL {
            let spec = site.target_spec();
            assert!(
                !spec.catalog.small_queries().is_empty(),
                "{} needs small queries",
                site.label()
            );
            assert!(
                !spec.catalog.large_objects().is_empty(),
                "{} needs large objects",
                site.label()
            );
        }
    }

    #[test]
    fn qtp_is_a_sixteen_replica_cluster() {
        assert_eq!(CoopSite::Qtp.target_spec().replicas, 16);
        assert_eq!(CoopSite::Qtnp.target_spec().replicas, 1);
    }

    #[test]
    fn provisioning_ordering_matches_the_paper() {
        let qtnp = CoopSite::Qtnp.target_spec();
        let qtp = CoopSite::Qtp.target_spec();
        let univ1 = CoopSite::Univ1.target_spec();
        // The production cluster is better provisioned than its
        // non-production twin, which in turn dwarfs the research-group box.
        assert!(qtp.server.access_link >= qtnp.server.access_link);
        assert!(qtnp.server.access_link > univ1.server.access_link);
        assert!(univ1.server.hardware.cpu_speed < qtnp.server.hardware.cpu_speed);
    }

    #[test]
    fn univ3_has_heavier_background_than_univ2() {
        assert!(
            CoopSite::Univ3.target_spec().background.rate_per_sec
                > CoopSite::Univ2.target_spec().background.rate_per_sec
        );
        assert!(CoopSite::Univ3.paper_background_rate() > CoopSite::Univ2.paper_background_rate());
    }

    #[test]
    fn univ3_does_not_cache_queries() {
        assert!(!CoopSite::Univ3.target_spec().server.database.query_cache);
        assert!(CoopSite::Univ2.target_spec().server.database.query_cache);
    }

    #[test]
    fn mfc_configs_match_section_4() {
        assert_eq!(
            CoopSite::Qtnp.mfc_config().threshold,
            SimDuration::from_millis(100)
        );
        assert_eq!(CoopSite::Qtp.mfc_config().requests_per_client, 5);
        assert_eq!(
            CoopSite::Univ2.mfc_config().threshold,
            SimDuration::from_millis(250)
        );
        assert_eq!(CoopSite::qtnp_mr_config().requests_per_client, 2);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            CoopSite::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), CoopSite::ALL.len());
    }
}
