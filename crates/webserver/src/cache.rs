//! Server-side caches: the static-object cache and the database query cache.
//!
//! Caching is central to two of the paper's observations.  In the Large
//! Object stage all clients fetch the *same* object precisely so that "the
//! likely caching of the object reduces the chance that the server's storage
//! sub-system is exercised" (§2.2.2).  In the Small Query stage, whether
//! repeated identical queries hit a query cache decides how hard the
//! back-end is exercised — Univ-3's operators traced their poor Small Query
//! results to a legacy stack that "was not caching responses appropriately"
//! (§4.2).
//!
//! [`CacheState`] lives *outside* the per-window engine so that cache warmth
//! carries across MFC epochs, exactly as it would on a real server.

use serde::{Deserialize, Serialize};

use crate::config::{DatabaseConfig, ObjectCacheConfig};
use crate::content::ObjectId;

/// Persistent cache contents of one server instance.
///
/// Both caches are keyed by [`ObjectId`]: dense per-object tables that grow
/// on insert, so a lookup indexes a table and hashes nothing.  Because an
/// id means something only for the catalog that issued it, a `CacheState`
/// belongs to the catalog it warmed; serve it only with that catalog.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CacheState {
    /// `objects[id]`: whether static object `id` is held in the in-memory
    /// object cache.
    objects: Vec<bool>,
    /// Bytes used by the object cache.
    object_bytes: u64,
    /// `queries[id]`: whether query `id`'s result is in the database query
    /// cache.
    queries: Vec<bool>,
    /// Number of `true` entries in `queries`.
    query_entries: usize,
    object_hits: u64,
    object_misses: u64,
    query_hits: u64,
    query_misses: u64,
}

/// Whether `table` marks `id`.
fn holds(table: &[bool], id: ObjectId) -> bool {
    table.get(id.index()).copied().unwrap_or(false)
}

/// Marks `id` in `table`, growing it as needed; returns whether `id` was
/// not marked before.
fn mark(table: &mut Vec<bool>, id: ObjectId) -> bool {
    if table.len() <= id.index() {
        table.resize(id.index() + 1, false);
    }
    !std::mem::replace(&mut table[id.index()], true)
}

impl CacheState {
    /// Creates empty (cold) caches.
    pub fn new() -> Self {
        CacheState::default()
    }

    /// Looks up a static object; records a hit or miss.
    pub fn object_lookup(&mut self, object: ObjectId, config: &ObjectCacheConfig) -> bool {
        let hit = config.enabled && holds(&self.objects, object);
        if hit {
            self.object_hits += 1;
        } else {
            self.object_misses += 1;
        }
        hit
    }

    /// Inserts a static object after it has been read from disk, if it fits
    /// in the remaining cache capacity.  (No eviction: the MFC workloads
    /// touch a handful of distinct objects, far below any realistic cache
    /// size, so an eviction policy would never be exercised.)
    pub fn object_insert(&mut self, object: ObjectId, size: u64, config: &ObjectCacheConfig) {
        if !config.enabled || holds(&self.objects, object) {
            return;
        }
        if self.object_bytes + size <= config.capacity_bytes {
            mark(&mut self.objects, object);
            self.object_bytes += size;
        }
    }

    /// Looks up a dynamic query in the query cache; records a hit or miss.
    ///
    /// `cacheable` is false for queries the application marks uncacheable;
    /// those always miss and are not inserted.
    pub fn query_lookup(
        &mut self,
        query: ObjectId,
        cacheable: bool,
        config: &DatabaseConfig,
    ) -> bool {
        let hit = config.query_cache && cacheable && holds(&self.queries, query);
        if hit {
            self.query_hits += 1;
        } else {
            self.query_misses += 1;
        }
        hit
    }

    /// Records that a query's result is now cached.
    pub fn query_insert(&mut self, query: ObjectId, cacheable: bool, config: &DatabaseConfig) {
        if config.query_cache && cacheable && mark(&mut self.queries, query) {
            self.query_entries += 1;
        }
    }

    /// Bytes currently held by the object cache.
    pub fn object_cache_bytes(&self) -> u64 {
        self.object_bytes
    }

    /// Number of distinct cached queries.
    pub fn query_cache_entries(&self) -> usize {
        self.query_entries
    }

    /// (hits, misses) for the object cache.
    pub fn object_stats(&self) -> (u64, u64) {
        (self.object_hits, self.object_misses)
    }

    /// (hits, misses) for the query cache.
    pub fn query_stats(&self) -> (u64, u64) {
        (self.query_hits, self.query_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ObjectId = ObjectId(1);
    const BIG: ObjectId = ObjectId(2);
    const TOO_BIG: ObjectId = ObjectId(3);
    const Q1: ObjectId = ObjectId(4);
    const Q2: ObjectId = ObjectId(5);
    const Q3: ObjectId = ObjectId(6);

    fn obj_cfg(enabled: bool, capacity: u64) -> ObjectCacheConfig {
        ObjectCacheConfig {
            enabled,
            capacity_bytes: capacity,
        }
    }

    fn db_cfg(query_cache: bool) -> DatabaseConfig {
        DatabaseConfig {
            query_cache,
            ..DatabaseConfig::default()
        }
    }

    #[test]
    fn object_cache_miss_then_hit() {
        let mut cache = CacheState::new();
        let cfg = obj_cfg(true, 1_000_000);
        assert!(!cache.object_lookup(A, &cfg));
        cache.object_insert(A, 500, &cfg);
        assert!(cache.object_lookup(A, &cfg));
        assert_eq!(cache.object_stats(), (1, 1));
        assert_eq!(cache.object_cache_bytes(), 500);
    }

    #[test]
    fn object_cache_respects_capacity() {
        let mut cache = CacheState::new();
        let cfg = obj_cfg(true, 1_000);
        cache.object_insert(BIG, 900, &cfg);
        cache.object_insert(TOO_BIG, 200, &cfg);
        assert!(cache.object_lookup(BIG, &cfg));
        assert!(!cache.object_lookup(TOO_BIG, &cfg));
        assert_eq!(cache.object_cache_bytes(), 900);
    }

    #[test]
    fn disabled_object_cache_never_hits() {
        let mut cache = CacheState::new();
        let cfg = obj_cfg(false, 1_000_000);
        cache.object_insert(A, 10, &cfg);
        assert!(!cache.object_lookup(A, &cfg));
    }

    #[test]
    fn duplicate_insert_does_not_double_count() {
        let mut cache = CacheState::new();
        let cfg = obj_cfg(true, 1_000);
        cache.object_insert(A, 400, &cfg);
        cache.object_insert(A, 400, &cfg);
        assert_eq!(cache.object_cache_bytes(), 400);
    }

    #[test]
    fn query_cache_behaviour() {
        let mut cache = CacheState::new();
        let cfg = db_cfg(true);
        assert!(!cache.query_lookup(Q1, true, &cfg));
        cache.query_insert(Q1, true, &cfg);
        assert!(cache.query_lookup(Q1, true, &cfg));
        assert_eq!(cache.query_cache_entries(), 1);
        assert_eq!(cache.query_stats(), (1, 1));
    }

    #[test]
    fn uncacheable_queries_always_miss() {
        let mut cache = CacheState::new();
        let cfg = db_cfg(true);
        cache.query_insert(Q2, false, &cfg);
        assert!(!cache.query_lookup(Q2, false, &cfg));
        assert_eq!(cache.query_cache_entries(), 0);
    }

    #[test]
    fn disabled_query_cache_always_misses() {
        let mut cache = CacheState::new();
        let cfg = db_cfg(false);
        cache.query_insert(Q3, true, &cfg);
        assert!(!cache.query_lookup(Q3, true, &cfg));
    }
}
