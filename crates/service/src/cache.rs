//! The daemon's shared in-memory result cache and service counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use llhsc::{CacheClass, CacheEntry, PipelineCache};

use crate::check::CheckOutcome;

/// A cached whole-tree `check` outcome: the rendered report plus the
/// cost counters of the original fresh run. Replayed on every hit, so a
/// daemon-served report (including `--report-json`) is byte-identical
/// whether the verdict was computed or replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedTreeCheck {
    /// The fresh run's outcome.
    pub outcome: CheckOutcome,
    /// Span tree of the fresh run (recorded against a zeroed clock),
    /// replayed into the report document on cache hits.
    pub spans: Vec<llhsc_obs::SpanRecord>,
}

/// Hit/miss counters for one cache class.
#[derive(Debug, Default)]
pub struct ClassCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ClassCounters {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// `(hits, misses)` so far.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The content-addressed store shared by every worker: pipeline stage
/// results (behind [`PipelineCache`]) plus whole-tree `check` verdicts,
/// with per-class hit/miss counters surfaced by the `stats` op.
///
/// Entries are never evicted — the daemon serves configuration
/// checking, where the working set is the project being edited, not an
/// unbounded stream. Restart the daemon to drop the cache.
#[derive(Debug, Default)]
pub struct ServiceCache {
    entries: Mutex<HashMap<(CacheClass, u64), CacheEntry>>,
    trees: Mutex<HashMap<u64, CachedTreeCheck>>,
    analytics: Mutex<HashMap<u64, crate::analytics::AnalyticsOutcome>>,
    allocation: ClassCounters,
    product_check: ClassCounters,
    coverage: ClassCounters,
    tree_check: ClassCounters,
    analytics_counters: ClassCounters,
    family: ClassCounters,
}

impl ServiceCache {
    /// An empty cache with zeroed counters.
    pub fn new() -> ServiceCache {
        ServiceCache::default()
    }

    fn counters_for(&self, class: CacheClass) -> &ClassCounters {
        match class {
            CacheClass::Allocation => &self.allocation,
            CacheClass::ProductCheck => &self.product_check,
            CacheClass::Coverage => &self.coverage,
            CacheClass::Family => &self.family,
        }
    }

    /// A cached whole-tree `check` result.
    pub fn get_tree(&self, key: u64) -> Option<CachedTreeCheck> {
        let hit = self.trees.lock().expect("cache lock").get(&key).cloned();
        match &hit {
            Some(_) => self.tree_check.hit(),
            None => self.tree_check.miss(),
        }
        hit
    }

    /// Stores a whole-tree `check` result.
    pub fn put_tree(&self, key: u64, check: CachedTreeCheck) {
        self.trees.lock().expect("cache lock").insert(key, check);
    }

    /// A cached analytics (`count`/`sample`) answer. Replayed answers
    /// are byte-identical to the fresh run and cost zero solver calls.
    pub fn get_analytics(&self, key: u64) -> Option<crate::analytics::AnalyticsOutcome> {
        let hit = self
            .analytics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
            .cloned();
        match &hit {
            Some(_) => self.analytics_counters.hit(),
            None => self.analytics_counters.miss(),
        }
        hit
    }

    /// Stores an analytics answer.
    pub fn put_analytics(&self, key: u64, outcome: crate::analytics::AnalyticsOutcome) {
        self.analytics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, outcome);
    }

    /// `(class name, hits, misses)` for every class, in a stable order
    /// (new classes are appended, so positional consumers stay valid).
    pub fn counters(&self) -> [(&'static str, u64, u64); 6] {
        let snap = |name, c: &ClassCounters| {
            let (h, m) = c.snapshot();
            (name, h, m)
        };
        [
            snap("allocation", &self.allocation),
            snap("product_check", &self.product_check),
            snap("coverage", &self.coverage),
            snap("tree_check", &self.tree_check),
            snap("analytics", &self.analytics_counters),
            snap("family", &self.family),
        ]
    }
}

impl PipelineCache for ServiceCache {
    fn get(&self, class: CacheClass, key: u64) -> Option<CacheEntry> {
        let hit = self
            .entries
            .lock()
            .expect("cache lock")
            .get(&(class, key))
            .cloned();
        match &hit {
            Some(_) => self.counters_for(class).hit(),
            None => self.counters_for(class).miss(),
        }
        hit
    }

    fn put(&self, class: CacheClass, key: u64, entry: CacheEntry) {
        self.entries
            .lock()
            .expect("cache lock")
            .insert((class, key), entry);
    }
}

/// Request-level counters, surfaced by the `stats` op.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests handled (including failed ones).
    pub requests: AtomicU64,
    /// Requests answered with an error frame.
    pub errors: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections currently being served by a worker.
    pub in_flight: AtomicU64,
    /// Total time connections sat in the accept queue, in µs.
    pub queue_wait_us_total: AtomicU64,
    /// Longest single accept-queue wait, in µs.
    pub queue_wait_us_max: AtomicU64,
}

impl ServiceStats {
    /// Records one accept-queue wait.
    pub fn record_queue_wait(&self, micros: u64) {
        self.queue_wait_us_total
            .fetch_add(micros, Ordering::Relaxed);
        self.queue_wait_us_max.fetch_max(micros, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhsc::CachedCheck;

    #[test]
    fn counters_track_hits_and_misses() {
        let cache = ServiceCache::new();
        assert!(cache.get(CacheClass::Allocation, 1).is_none());
        cache.put(
            CacheClass::Allocation,
            1,
            CacheEntry::Allocation(Err("nope".into())),
        );
        assert!(cache.get(CacheClass::Allocation, 1).is_some());
        let [(name, hits, misses), ..] = cache.counters();
        assert_eq!((name, hits, misses), ("allocation", 1, 1));
    }

    #[test]
    fn classes_do_not_alias() {
        let cache = ServiceCache::new();
        cache.put(
            CacheClass::ProductCheck,
            7,
            CacheEntry::Check(CachedCheck {
                diagnostics: Vec::new(),
                stats: Default::default(),
            }),
        );
        assert!(cache.get(CacheClass::Coverage, 7).is_none());
        assert!(cache.get(CacheClass::ProductCheck, 7).is_some());
    }

    #[test]
    fn analytics_answers_roundtrip() {
        let cache = ServiceCache::new();
        assert!(cache.get_analytics(3).is_none());
        let outcome = crate::analytics::AnalyticsOutcome {
            doc: crate::json::Json::Null,
            text: "count: 60 (exact)\n".into(),
            solves: 61,
            xor_constraints: 0,
        };
        cache.put_analytics(3, outcome.clone());
        assert_eq!(cache.get_analytics(3), Some(outcome));
        let (name, hits, misses) = cache.counters()[4];
        assert_eq!((name, hits, misses), ("analytics", 1, 1));
    }

    #[test]
    fn family_verdicts_roundtrip() {
        let cache = ServiceCache::new();
        assert!(cache.get(CacheClass::Family, 5).is_none());
        let report = llhsc::family::FamilyReport {
            mode: llhsc::family::CheckMode::Family,
            lifted: true,
            fallback: None,
            products: 60,
            products_exact: true,
            findings: Vec::new(),
            stats: Default::default(),
        };
        cache.put(
            CacheClass::Family,
            5,
            CacheEntry::Family(Ok(report.clone())),
        );
        assert_eq!(
            cache.get(CacheClass::Family, 5),
            Some(CacheEntry::Family(Ok(report)))
        );
        let (name, hits, misses) = cache.counters()[5];
        assert_eq!((name, hits, misses), ("family", 1, 1));
    }

    #[test]
    fn tree_reports_roundtrip() {
        let cache = ServiceCache::new();
        assert!(cache.get_tree(9).is_none());
        let check = CachedTreeCheck {
            outcome: CheckOutcome {
                report: crate::check::CheckReport {
                    stdout: "checked: ok\n".into(),
                    stderr: String::new(),
                    clean: true,
                    input_error: false,
                },
                stats: Default::default(),
                solver: Default::default(),
                session: Default::default(),
                elapsed: Default::default(),
                cert: None,
            },
            spans: Vec::new(),
        };
        cache.put_tree(9, check.clone());
        assert_eq!(cache.get_tree(9), Some(check));
        let (_, hits, misses) = cache.counters()[3];
        assert_eq!((hits, misses), (1, 1));
    }
}
