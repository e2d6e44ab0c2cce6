//! Target content profiling and classification.
//!
//! Before probing a non-cooperating server, the MFC coordinator crawls the
//! target site and classifies the objects it discovers by content type
//! (text, binaries, images, queries — using file-name extensions and the
//! presence of a `?`) and by size into two groups (paper §2.2.1):
//!
//! * **Large Objects** — static files of at least 100 KB, big enough for
//!   TCP to exit slow start and saturate the path, used by the Large Object
//!   stage;
//! * **Small Queries** — dynamically generated URLs whose responses are
//!   under 15 KB, cheap to transfer but expensive to produce, used by the
//!   Small Query stage.
//!
//! The Base stage needs no profiling: it issues HEAD requests for the base
//! page.
//!
//! Two sources feed the classifier: the simulated server's
//! [`ContentCatalog`] (the stand-in for a crawl of a modelled site), and a
//! [`LiveCrawler`] that fetches a real base page over HTTP, follows its
//! links and sizes each object with HEAD/GET requests.

use mfc_http::{Client, Method, Url};
use mfc_webserver::content::{LARGE_OBJECT_MIN_BYTES, SMALL_QUERY_MAX_BYTES};
use mfc_webserver::{ContentCatalog, ObjectKind};
use serde::{Deserialize, Serialize};

use crate::types::{ProbeMethod, RequestSpec, Stage};

/// Content classes used by the profiler's heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContentClass {
    /// Regular text content (`.html`, `.txt`, `.php` without a query, …).
    Text,
    /// Binary downloads (`.pdf`, `.exe`, `.tar.gz`, `.zip`, `.iso`, media).
    Binary,
    /// Images (`.gif`, `.jpg`, `.jpeg`, `.png`).
    Image,
    /// Dynamically generated content (URL contains a `?`).
    Query,
    /// Anything else.
    Other,
}

/// Classifies a URL path with the paper's file-extension + `?` heuristics.
///
/// # Examples
///
/// ```
/// use mfc_core::profile::{classify_path, ContentClass};
///
/// assert_eq!(classify_path("/docs/report.pdf"), ContentClass::Binary);
/// assert_eq!(classify_path("/index.html"), ContentClass::Text);
/// assert_eq!(classify_path("/banner.jpg"), ContentClass::Image);
/// assert_eq!(classify_path("/search?q=x"), ContentClass::Query);
/// assert_eq!(classify_path("/weird.xyz"), ContentClass::Other);
/// ```
pub fn classify_path(path: &str) -> ContentClass {
    if path.contains('?') {
        return ContentClass::Query;
    }
    let lower = path.to_ascii_lowercase();
    let extension = lower.rsplit('/').next().and_then(|name| {
        // `.tar.gz`-style double extensions: match on the longest suffix we
        // know about first.
        if name.ends_with(".tar.gz") || name.ends_with(".tar.bz2") {
            Some("tar.gz")
        } else {
            name.rsplit_once('.').map(|(_, ext)| ext)
        }
    });
    match extension {
        Some("html") | Some("htm") | Some("txt") | Some("css") | Some("js") | Some("xml")
        | Some("php") | Some("asp") | Some("jsp") => ContentClass::Text,
        Some("pdf") | Some("exe") | Some("zip") | Some("gz") | Some("tar.gz") | Some("bz2")
        | Some("iso") | Some("dmg") | Some("bin") | Some("msi") | Some("rpm") | Some("deb")
        | Some("mp3") | Some("mp4") | Some("avi") | Some("mov") | Some("wmv") => {
            ContentClass::Binary
        }
        Some("gif") | Some("jpg") | Some("jpeg") | Some("png") | Some("bmp") | Some("ico") => {
            ContentClass::Image
        }
        _ => ContentClass::Other,
    }
}

/// One discovered object: its path, classification and reported size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectInfo {
    /// Site-relative path, including any query string.
    pub path: String,
    /// Classification from [`classify_path`].
    pub class: ContentClass,
    /// Response size in bytes, from a HEAD request (files) or a GET
    /// (queries), as the paper's profiler does.
    pub size_bytes: u64,
}

impl ObjectInfo {
    /// Whether this object belongs in the Large Objects group.
    pub fn is_large_object(&self) -> bool {
        self.class != ContentClass::Query && self.size_bytes >= LARGE_OBJECT_MIN_BYTES
    }

    /// Whether this object belongs in the Small Queries group.
    pub fn is_small_query(&self) -> bool {
        self.class == ContentClass::Query && self.size_bytes <= SMALL_QUERY_MAX_BYTES
    }
}

/// The result of profiling a target: everything the coordinator needs to
/// build per-stage request assignments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetProfile {
    /// Path of the base page (HEAD target for the Base stage).
    pub base_page: String,
    /// Large Objects, largest first.
    pub large_objects: Vec<ObjectInfo>,
    /// Small Queries, in discovery order.
    pub small_queries: Vec<ObjectInfo>,
    /// Everything discovered, for reporting.
    pub all_objects: Vec<ObjectInfo>,
}

impl TargetProfile {
    /// Builds a profile from a list of discovered objects.
    pub fn from_objects(base_page: impl Into<String>, objects: Vec<ObjectInfo>) -> Self {
        let mut large_objects: Vec<ObjectInfo> = objects
            .iter()
            .filter(|o| o.is_large_object())
            .cloned()
            .collect();
        // Prefer the largest object: the paper wants transfers long enough
        // to exit slow start and hold the link busy.
        large_objects.sort_by_key(|o| std::cmp::Reverse(o.size_bytes));
        let small_queries: Vec<ObjectInfo> = objects
            .iter()
            .filter(|o| o.is_small_query())
            .cloned()
            .collect();
        TargetProfile {
            base_page: base_page.into(),
            large_objects,
            small_queries,
            all_objects: objects,
        }
    }

    /// Profiles a simulated server's content catalog — the equivalent of
    /// crawling a modelled site (also the path cooperating operators take
    /// when they hand the coordinator a content listing directly).
    pub fn from_catalog(catalog: &ContentCatalog) -> Self {
        let objects: Vec<ObjectInfo> = catalog
            .objects()
            .iter()
            .map(|o| ObjectInfo {
                path: o.path.clone(),
                class: match o.kind {
                    ObjectKind::Text => ContentClass::Text,
                    ObjectKind::Binary => ContentClass::Binary,
                    ObjectKind::Image => ContentClass::Image,
                    ObjectKind::Query => ContentClass::Query,
                },
                size_bytes: o.size_bytes,
            })
            .collect();
        TargetProfile::from_objects(catalog.base_page().path.clone(), objects)
    }

    /// Whether the given stage can be run against this target at all.
    pub fn supports(&self, stage: Stage) -> bool {
        match stage {
            Stage::Base => true,
            Stage::SmallQuery => !self.small_queries.is_empty(),
            Stage::LargeObject => !self.large_objects.is_empty(),
        }
    }

    /// The request the `k`-th participant of an epoch should issue for the
    /// given stage (paper §2.2.2):
    ///
    /// * Base — everyone HEADs the base page;
    /// * Small Query — each client gets a *unique* query when enough
    ///   distinct queries were discovered, otherwise everyone issues the
    ///   same one;
    /// * Large Object — everyone GETs the *same* (largest) object, so the
    ///   response is served from cache and only the link is exercised.
    pub fn request_for(&self, stage: Stage, participant_index: usize) -> Option<RequestSpec> {
        match stage {
            Stage::Base => Some(RequestSpec {
                method: ProbeMethod::Head,
                path: self.base_page.clone(),
                stage,
                expected_bytes: 0,
            }),
            Stage::SmallQuery => {
                if self.small_queries.is_empty() {
                    return None;
                }
                let object = &self.small_queries[participant_index % self.small_queries.len()];
                Some(RequestSpec {
                    method: ProbeMethod::Get,
                    path: object.path.clone(),
                    stage,
                    expected_bytes: object.size_bytes,
                })
            }
            Stage::LargeObject => {
                let object = self.large_objects.first()?;
                Some(RequestSpec {
                    method: ProbeMethod::Get,
                    path: object.path.clone(),
                    stage,
                    expected_bytes: object.size_bytes,
                })
            }
        }
    }
}

/// A crawler that profiles a *live* HTTP target.
///
/// It fetches the base page, extracts `href="…"` references, keeps
/// same-site ones, and sizes each discovered object with a HEAD request
/// (static content) or a GET (queries), mirroring the paper's profiler.
#[derive(Debug, Clone)]
pub struct LiveCrawler {
    client: Client,
    /// Upper bound on the number of links that will be sized.
    pub max_objects: usize,
}

impl Default for LiveCrawler {
    fn default() -> Self {
        LiveCrawler {
            client: Client::default(),
            max_objects: 256,
        }
    }
}

impl LiveCrawler {
    /// Creates a crawler using the given HTTP client.
    pub fn new(client: Client, max_objects: usize) -> Self {
        LiveCrawler {
            client,
            max_objects,
        }
    }

    /// Crawls the target rooted at `base_url` and builds its profile.
    pub fn crawl(&self, base_url: &Url) -> Result<TargetProfile, mfc_http::HttpError> {
        let base_response = self.client.get(base_url)?;
        let body = String::from_utf8_lossy(&base_response.body);
        let mut objects = Vec::new();
        for reference in extract_hrefs(&body).into_iter().take(self.max_objects) {
            // Only same-site, site-relative references are considered; the
            // MFC must not be aimed at third-party hosts.
            if !reference.starts_with('/') {
                continue;
            }
            let url = base_url.join(&reference);
            let class = classify_path(&reference);
            let size = if class == ContentClass::Query {
                self.client
                    .get(&url)
                    .map(|r| r.body.len() as u64)
                    .unwrap_or(0)
            } else {
                self.client
                    .head(&url)
                    .ok()
                    .and_then(|r| r.content_length())
                    .map(|n| n as u64)
                    .unwrap_or(0)
            };
            objects.push(ObjectInfo {
                path: reference,
                class,
                size_bytes: size,
            });
        }
        Ok(TargetProfile::from_objects(
            base_url.path_and_query(),
            objects,
        ))
    }

    /// The underlying client (exposed so callers can reuse its timeouts).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Issues a single timed fetch — a convenience passthrough used by the
    /// live backend.
    pub fn fetch(&self, method: Method, url: &Url) -> mfc_http::FetchResult {
        self.client.fetch_timed(method, url)
    }
}

/// Extracts the values of `href="…"` attributes from an HTML document.
///
/// A full HTML parser is unnecessary: the profiler only needs anchor
/// targets, and both the real sites of 2007 and our `mfc-httpd` emit plain
/// double-quoted attributes.
pub fn extract_hrefs(html: &str) -> Vec<String> {
    let mut refs = Vec::new();
    let mut rest = html;
    while let Some(pos) = rest.find("href=\"") {
        rest = &rest[pos + 6..];
        if let Some(end) = rest.find('"') {
            let target = &rest[..end];
            if !target.is_empty() {
                refs.push(target.to_string());
            }
            rest = &rest[end..];
        } else {
            break;
        }
    }
    refs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paper_heuristics() {
        assert_eq!(classify_path("/a/b/index.html"), ContentClass::Text);
        assert_eq!(classify_path("/a/readme.txt"), ContentClass::Text);
        assert_eq!(classify_path("/dl/setup.exe"), ContentClass::Binary);
        assert_eq!(classify_path("/dl/data.tar.gz"), ContentClass::Binary);
        assert_eq!(classify_path("/img/logo.PNG"), ContentClass::Image);
        assert_eq!(classify_path("/cgi-bin/search?q=1"), ContentClass::Query);
        assert_eq!(classify_path("/noextension"), ContentClass::Other);
    }

    #[test]
    fn query_beats_extension() {
        // A URL with a query string is dynamic even if it ends in .html.
        assert_eq!(classify_path("/page.html?id=3"), ContentClass::Query);
    }

    #[test]
    fn size_thresholds() {
        let big = ObjectInfo {
            path: "/a.bin".into(),
            class: ContentClass::Binary,
            size_bytes: LARGE_OBJECT_MIN_BYTES,
        };
        assert!(big.is_large_object());
        let small_query = ObjectInfo {
            path: "/q?x=1".into(),
            class: ContentClass::Query,
            size_bytes: SMALL_QUERY_MAX_BYTES,
        };
        assert!(small_query.is_small_query());
        let big_query = ObjectInfo {
            path: "/q?x=2".into(),
            class: ContentClass::Query,
            size_bytes: SMALL_QUERY_MAX_BYTES + 1,
        };
        assert!(!big_query.is_small_query());
        assert!(
            !big_query.is_large_object(),
            "queries are never Large Objects"
        );
    }

    #[test]
    fn profile_from_catalog_finds_both_groups() {
        let catalog = ContentCatalog::typical_site(5);
        let profile = TargetProfile::from_catalog(&catalog);
        assert!(profile.supports(Stage::Base));
        assert!(profile.supports(Stage::SmallQuery));
        assert!(profile.supports(Stage::LargeObject));
        // Large objects are sorted largest-first.
        for pair in profile.large_objects.windows(2) {
            assert!(pair[0].size_bytes >= pair[1].size_bytes);
        }
    }

    #[test]
    fn request_assignment_rules() {
        let catalog = ContentCatalog::typical_site(6);
        let profile = TargetProfile::from_catalog(&catalog);

        // Base: HEAD of the base page for everyone.
        let base0 = profile.request_for(Stage::Base, 0).unwrap();
        let base9 = profile.request_for(Stage::Base, 9).unwrap();
        assert_eq!(base0, base9);
        assert_eq!(base0.method, ProbeMethod::Head);

        // Large Object: the same (largest) object for everyone.
        let lo0 = profile.request_for(Stage::LargeObject, 0).unwrap();
        let lo7 = profile.request_for(Stage::LargeObject, 7).unwrap();
        assert_eq!(lo0.path, lo7.path);
        assert_eq!(lo0.expected_bytes, profile.large_objects[0].size_bytes);

        // Small Query: distinct queries for distinct participants while
        // enough are available.
        let q0 = profile.request_for(Stage::SmallQuery, 0).unwrap();
        let q1 = profile.request_for(Stage::SmallQuery, 1).unwrap();
        assert_ne!(q0.path, q1.path);
        // Wraps around when the crowd exceeds the number of queries.
        let wrap = profile.request_for(Stage::SmallQuery, profile.small_queries.len());
        assert_eq!(wrap.unwrap().path, q0.path);
    }

    #[test]
    fn unsupported_stages_return_none() {
        let profile = TargetProfile::from_objects(
            "/index.html",
            vec![ObjectInfo {
                path: "/only.html".into(),
                class: ContentClass::Text,
                size_bytes: 2_000,
            }],
        );
        assert!(!profile.supports(Stage::LargeObject));
        assert!(!profile.supports(Stage::SmallQuery));
        assert!(profile.request_for(Stage::LargeObject, 0).is_none());
        assert!(profile.request_for(Stage::SmallQuery, 0).is_none());
        assert!(profile.request_for(Stage::Base, 0).is_some());
    }

    #[test]
    fn href_extraction() {
        let html = r#"
            <html><body>
            <a href="/a.html">a</a>
            <a href="/big.tar.gz">big</a>
            <a href="http://elsewhere.example/x">external</a>
            <a href="">empty</a>
            <a href="/q?x=1">query</a>
            </body></html>
        "#;
        let refs = extract_hrefs(html);
        assert_eq!(
            refs,
            vec![
                "/a.html",
                "/big.tar.gz",
                "http://elsewhere.example/x",
                "/q?x=1"
            ]
        );
    }

    #[test]
    fn href_extraction_handles_unterminated_attribute() {
        let html = r#"<a href="/ok"><a href="/broken"#;
        assert_eq!(extract_hrefs(html), vec!["/ok"]);
    }
}
