//! The content hosted by a simulated server.
//!
//! The MFC profiling step crawls a target site and buckets what it finds
//! into *Large Objects* (static files over 100 KB — used to exercise the
//! access link) and *Small Queries* (dynamic URLs with responses under
//! 15 KB — used to exercise the back-end), plus the base page used for the
//! Base stage's HEAD requests (paper §2.2.1).  [`ContentCatalog`] is the
//! simulated equivalent of "what a crawl of this site would discover".

use serde::{Deserialize, Serialize};

/// Broad content categories, mirroring the classification heuristics of the
/// paper's profiler (file-name extensions plus a `?` marking CGI queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectKind {
    /// Regular text content: `.html`, `.txt`, plain pages.
    Text,
    /// Binary downloads: `.pdf`, `.exe`, `.tar.gz`, media files.
    Binary,
    /// Images: `.gif`, `.jpg`, `.png`.
    Image,
    /// Dynamically generated responses (URLs containing `?`).
    Query,
}

impl ObjectKind {
    /// Returns `true` for content that is generated per request rather than
    /// read from storage.
    pub fn is_dynamic(self) -> bool {
        matches!(self, ObjectKind::Query)
    }
}

/// One URL the simulated server can serve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectSpec {
    /// Site-relative path, e.g. `/pub/dataset.tar.gz` or `/search?q=42`.
    pub path: String,
    /// Content category.
    pub kind: ObjectKind,
    /// Size of the response body in bytes.
    pub size_bytes: u64,
    /// For dynamic objects: how many database rows the query touches.  Zero
    /// for static content.
    pub db_rows: u64,
    /// For dynamic objects: whether the back-end result is cacheable (the
    /// same query repeated may be served from the query cache).
    pub cacheable: bool,
}

impl ObjectSpec {
    /// A static object of the given kind and size.
    pub fn static_object(path: impl Into<String>, kind: ObjectKind, size_bytes: u64) -> Self {
        ObjectSpec {
            path: path.into(),
            kind,
            size_bytes,
            db_rows: 0,
            cacheable: true,
        }
    }

    /// A dynamic query touching `db_rows` rows and returning `size_bytes`.
    pub fn query(path: impl Into<String>, size_bytes: u64, db_rows: u64) -> Self {
        ObjectSpec {
            path: path.into(),
            kind: ObjectKind::Query,
            size_bytes,
            db_rows,
            cacheable: true,
        }
    }

    /// Returns `true` if this object qualifies as a *Large Object* per the
    /// paper's 100 KB lower bound.
    pub fn is_large_object(&self) -> bool {
        !self.kind.is_dynamic() && self.size_bytes >= LARGE_OBJECT_MIN_BYTES
    }

    /// Returns `true` if this object qualifies as a *Small Query* per the
    /// paper's rules: a dynamic URL whose response is under 15 KB.
    pub fn is_small_query(&self) -> bool {
        self.kind.is_dynamic() && self.size_bytes <= SMALL_QUERY_MAX_BYTES
    }
}

/// Lower size bound for the Large Objects class (paper §2.2.1: > 100 KB).
pub const LARGE_OBJECT_MIN_BYTES: u64 = 100 * 1024;

/// Upper size bound for the Small Queries class (paper §2.2.1: < 15 KB).
pub const SMALL_QUERY_MAX_BYTES: u64 = 15 * 1024;

/// Names one object of a [`ContentCatalog`]: its position in the catalog,
/// with the base page first and `objects()[i]` at `i + 1`.
///
/// A request carries the id [`ContentCatalog::resolve`] returned for its
/// path, so the server never compares, clones or hashes a path per
/// request.  An id means something only for the catalog that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectId(pub(crate) u32);

impl ObjectId {
    /// The base page's id in every catalog.
    pub const BASE_PAGE: ObjectId = ObjectId(0);

    /// The id as a dense table index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Everything a crawl of the simulated site would discover.
///
/// # Examples
///
/// ```
/// use mfc_webserver::{ContentCatalog, ObjectKind};
///
/// let catalog = ContentCatalog::typical_site(12345);
/// assert!(catalog.base_page().size_bytes > 0);
/// assert!(!catalog.large_objects().is_empty());
/// assert!(!catalog.small_queries().is_empty());
/// assert!(catalog.lookup(&catalog.base_page().path).is_some());
/// let query = catalog.resolve(&catalog.small_queries()[0].path).unwrap();
/// assert!(catalog.object(query).kind.is_dynamic());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentCatalog {
    base_page: ObjectSpec,
    objects: Vec<ObjectSpec>,
}

impl ContentCatalog {
    /// Creates a catalog from an explicit base page and object list.
    pub fn new(base_page: ObjectSpec, objects: Vec<ObjectSpec>) -> Self {
        ContentCatalog { base_page, objects }
    }

    /// The page served at `/` — the object the Base stage issues HEAD
    /// requests for.
    pub fn base_page(&self) -> &ObjectSpec {
        &self.base_page
    }

    /// All objects other than the base page.
    pub fn objects(&self) -> &[ObjectSpec] {
        &self.objects
    }

    /// Finds an object by path (including the base page).
    pub fn lookup(&self, path: &str) -> Option<&ObjectSpec> {
        self.resolve(path).map(|id| self.object(id))
    }

    /// The id of the first object at `path` ([`ObjectId::BASE_PAGE`] for
    /// the base page), or `None` when the catalog does not host it.  A
    /// path listed twice always resolves to its first copy.
    pub fn resolve(&self, path: &str) -> Option<ObjectId> {
        if self.base_page.path == path {
            return Some(ObjectId::BASE_PAGE);
        }
        self.objects
            .iter()
            .position(|o| o.path == path)
            .map(|i| ObjectId(i as u32 + 1))
    }

    /// The object an id from [`Self::resolve`] names.
    ///
    /// # Panics
    ///
    /// Panics if the id was issued by a larger catalog.
    pub fn object(&self, id: ObjectId) -> &ObjectSpec {
        id.index()
            .checked_sub(1)
            .map_or(&self.base_page, |i| &self.objects[i])
    }

    /// Objects that qualify for the Large Object stage.
    pub fn large_objects(&self) -> Vec<&ObjectSpec> {
        self.objects
            .iter()
            .filter(|o| o.is_large_object())
            .collect()
    }

    /// Objects that qualify for the Small Query stage.
    pub fn small_queries(&self) -> Vec<&ObjectSpec> {
        self.objects.iter().filter(|o| o.is_small_query()).collect()
    }

    /// Adds an object to the catalog.
    pub fn push(&mut self, object: ObjectSpec) {
        self.objects.push(object);
    }

    /// A catalog resembling a small-to-medium production web site: an HTML
    /// base page, a handful of images and text pages, several large binary
    /// downloads and a set of distinct small queries.
    ///
    /// `seed_tag` only varies the URL names so that multi-site experiments
    /// do not accidentally share query-cache keys.
    pub fn typical_site(seed_tag: u64) -> Self {
        let base_page = ObjectSpec::static_object("/index.html", ObjectKind::Text, 18 * 1024);
        let mut objects = Vec::new();
        for i in 0..8 {
            objects.push(ObjectSpec::static_object(
                format!("/pages/article_{seed_tag}_{i}.html"),
                ObjectKind::Text,
                6 * 1024 + i * 1024,
            ));
        }
        for i in 0..6 {
            objects.push(ObjectSpec::static_object(
                format!("/img/photo_{seed_tag}_{i}.jpg"),
                ObjectKind::Image,
                40 * 1024 + i * 10 * 1024,
            ));
        }
        for i in 0..4 {
            objects.push(ObjectSpec::static_object(
                format!("/pub/release_{seed_tag}_{i}.tar.gz"),
                ObjectKind::Binary,
                (300 + 150 * i) * 1024,
            ));
        }
        for i in 0..32 {
            objects.push(ObjectSpec::query(
                format!("/search?site={seed_tag}&q=item{i}"),
                4 * 1024,
                50_000,
            ));
        }
        ContentCatalog::new(base_page, objects)
    }

    /// The minimal catalog used by the §3 lab validation experiments: one
    /// 100 KB object for the Large Object workload and one query that scans
    /// 50 000 rows and returns a sub-100-byte response, mirroring the
    /// MySQL-backed setup of §3.2.
    pub fn lab_validation() -> Self {
        let base_page = ObjectSpec::static_object("/index.html", ObjectKind::Text, 4 * 1024);
        let objects = vec![
            ObjectSpec::static_object("/objects/large_100k.bin", ObjectKind::Binary, 100 * 1024),
            ObjectSpec::query("/cgi/stats?table=t1", 100, 50_000),
        ];
        ContentCatalog::new(base_page, objects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_thresholds_match_paper() {
        let just_large =
            ObjectSpec::static_object("/a.bin", ObjectKind::Binary, LARGE_OBJECT_MIN_BYTES);
        assert!(just_large.is_large_object());
        let too_small =
            ObjectSpec::static_object("/b.bin", ObjectKind::Binary, LARGE_OBJECT_MIN_BYTES - 1);
        assert!(!too_small.is_large_object());

        let small_query = ObjectSpec::query("/q?x=1", SMALL_QUERY_MAX_BYTES, 1000);
        assert!(small_query.is_small_query());
        let big_query = ObjectSpec::query("/q?x=2", SMALL_QUERY_MAX_BYTES + 1, 1000);
        assert!(!big_query.is_small_query());
    }

    #[test]
    fn dynamic_objects_are_never_large_objects() {
        let huge_query = ObjectSpec::query("/q?x=3", 10_000_000, 10);
        assert!(!huge_query.is_large_object());
        assert!(ObjectKind::Query.is_dynamic());
        assert!(!ObjectKind::Binary.is_dynamic());
    }

    #[test]
    fn typical_site_has_all_classes() {
        let catalog = ContentCatalog::typical_site(7);
        assert!(!catalog.large_objects().is_empty());
        assert!(!catalog.small_queries().is_empty());
        assert!(catalog.objects().len() > 20);
        // Large objects and small queries are disjoint.
        for o in catalog.large_objects() {
            assert!(!o.is_small_query());
        }
    }

    #[test]
    fn lookup_finds_base_and_objects() {
        let catalog = ContentCatalog::lab_validation();
        assert!(catalog.lookup("/index.html").is_some());
        assert!(catalog.lookup("/objects/large_100k.bin").is_some());
        assert!(catalog.lookup("/missing").is_none());
    }

    #[test]
    fn push_extends_catalog() {
        let mut catalog = ContentCatalog::lab_validation();
        let before = catalog.objects().len();
        catalog.push(ObjectSpec::query("/new?x=1", 100, 10));
        assert_eq!(catalog.objects().len(), before + 1);
        assert!(catalog.lookup("/new?x=1").is_some());
    }

    #[test]
    fn distinct_seed_tags_produce_distinct_query_paths() {
        let a = ContentCatalog::typical_site(1);
        let b = ContentCatalog::typical_site(2);
        let a_queries: Vec<_> = a.small_queries().iter().map(|o| o.path.clone()).collect();
        for q in b.small_queries() {
            assert!(!a_queries.contains(&q.path));
        }
    }
}
