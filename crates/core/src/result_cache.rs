//! Leader-side result cache.
//!
//! Cloud warehouse traffic is dominated by repeat-query skew (dashboards
//! re-issuing the same statements against slowly-changing data — see
//! Redbench, PAPERS.md), which the real service converts into
//! near-zero-latency answers with a leader-node result cache. This module
//! is that cache: a bounded LRU map from
//! `(normalized query text, user group, catalog version)` to the
//! finished result of a previous execution, kept as the executor's dense
//! columns — a few bytes a value — and boxed into rows only for a reply.
//!
//! Keying on the **catalog version** is the whole invalidation story:
//! every *committed* write statement (COPY/INSERT/CREATE/DROP/VACUUM/
//! ANALYZE) publishes a new catalog, whose version is the transaction
//! that published it, so entries stored under an older version simply
//! stop matching and age out of the LRU. A rolled-back write publishes
//! nothing — a draft is published only after its commit mark (DESIGN.md
//! §11) — which is what makes "a failed COPY never invalidates the cache"
//! a testable contract.
//!
//! The user group participates in the key because WLM routing (and, in a
//! real system, row-level visibility) is per-group; two groups never
//! share an entry. Hits are served *before* WLM admission, parsing, plan
//! compilation, or execution — the probe is a hash lookup on the raw
//! statement text.

use redsim_common::{ColumnData, FxHashMap};
use redsim_sql::plan::OutCol;
use redsim_testkit::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Cache key. The SQL text is normalized (see [`normalize_sql`]) so
/// immaterial whitespace/case differences share an entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    sql: String,
    user_group: Option<String>,
    catalog_version: u64,
}

/// The cached outcome of one SELECT: everything needed to answer the
/// same statement again without touching the compute nodes.
#[derive(Debug)]
pub struct CachedResult {
    pub columns: Vec<OutCol>,
    /// The rows as one dense batch, a column per `columns` entry.
    pub batch: Vec<ColumnData>,
    /// EXPLAIN text of the execution that populated the entry.
    pub plan: String,
}

impl CachedResult {
    pub fn row_count(&self) -> usize {
        self.batch.first().map_or(0, |c| c.len())
    }
}

#[derive(Default)]
struct Inner {
    entries: FxHashMap<CacheKey, Arc<CachedResult>>,
    /// LRU order, oldest first. Hits refresh; inserts push back.
    order: VecDeque<CacheKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Bounded LRU result cache. One per cluster, shared by every session.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    /// Results larger than this many rows are not cached (bounds the
    /// memory a single dashboard query can pin).
    max_rows: usize,
}

impl ResultCache {
    pub fn new(capacity: usize, max_rows: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            max_rows,
        }
    }

    /// Probe for `sql` under `(user_group, catalog_version)`. A hit
    /// refreshes the entry's LRU position.
    pub fn get(
        &self,
        sql: &str,
        user_group: Option<&str>,
        catalog_version: u64,
    ) -> Option<Arc<CachedResult>> {
        let key = CacheKey {
            sql: normalize_sql(sql),
            user_group: user_group.map(str::to_string),
            catalog_version,
        };
        let mut inner = self.inner.lock();
        if let Some(v) = inner.entries.get(&key).cloned() {
            inner.hits += 1;
            inner.order.retain(|k| *k != key);
            inner.order.push_back(key);
            Some(v)
        } else {
            inner.misses += 1;
            None
        }
    }

    /// Store a finished execution. Oversized results are dropped (the
    /// caller need not check). Returns whether the entry was stored.
    pub fn put(
        &self,
        sql: &str,
        user_group: Option<&str>,
        catalog_version: u64,
        result: CachedResult,
    ) -> bool {
        if result.row_count() > self.max_rows {
            return false;
        }
        let key = CacheKey {
            sql: normalize_sql(sql),
            user_group: user_group.map(str::to_string),
            catalog_version,
        };
        let mut inner = self.inner.lock();
        if inner.entries.insert(key.clone(), Arc::new(result)).is_none() {
            inner.order.push_back(key);
        }
        while inner.entries.len() > self.capacity {
            if let Some(evict) = inner.order.pop_front() {
                inner.entries.remove(&evict);
                inner.evictions += 1;
            } else {
                break;
            }
        }
        true
    }

    /// `(hits, misses)` since launch.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Entries evicted by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    /// Live entry count (all versions).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Normalize SQL text for cache keying: outside single-quoted strings,
/// runs of whitespace collapse to one space and letters lowercase;
/// quoted literals pass through byte-for-byte (`'A'` and `'a'` are
/// different queries). A trailing semicolon is immaterial.
pub fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut in_str = false;
    let mut pending_space = false;
    for ch in sql.chars() {
        if in_str {
            out.push(ch);
            if ch == '\'' {
                // Either the closing quote or the first half of an ''
                // escape; the escape's second quote re-enters string
                // state immediately, preserving the literal exactly.
                in_str = false;
            }
            continue;
        }
        if ch.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space {
            if !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
        }
        if ch == '\'' {
            in_str = true;
            out.push(ch);
        } else {
            out.push(ch.to_ascii_lowercase());
        }
    }
    while out.ends_with(';') {
        out.pop();
        while out.ends_with(' ') {
            out.pop();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::{DataType, Value};

    fn result(n: usize) -> CachedResult {
        let mut a = ColumnData::new(DataType::Int8);
        (0..n).for_each(|i| a.push_value(&Value::Int8(i as i64)).unwrap());
        CachedResult {
            columns: vec![OutCol { name: "a".into(), ty: DataType::Int8 }],
            batch: vec![a],
            plan: "Seq Scan".into(),
        }
    }

    #[test]
    fn normalization_collapses_whitespace_and_case_outside_strings() {
        assert_eq!(
            normalize_sql("SELECT  *\n FROM   T  WHERE s = 'Ab  C';"),
            "select * from t where s = 'Ab  C'"
        );
        // Literals differing only in case stay distinct keys.
        assert_ne!(normalize_sql("SELECT 'A'"), normalize_sql("SELECT 'a'"));
        // Doubled-quote escape keeps the literal intact.
        assert_eq!(normalize_sql("SELECT 'it''s  A'"), "select 'it''s  A'");
    }

    #[test]
    fn hit_requires_same_group_and_version() {
        let c = ResultCache::new(8, 100);
        assert!(c.put("SELECT 1", None, 7, result(1)));
        assert!(c.get("select  1;", None, 7).is_some(), "normalized text matches");
        assert!(c.get("SELECT 1", Some("etl"), 7).is_none(), "group partitions");
        assert!(c.get("SELECT 1", None, 8).is_none(), "version bump invalidates");
        let (hits, misses) = c.stats();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn lru_evicts_oldest_and_oversized_results_are_not_cached() {
        let c = ResultCache::new(2, 3);
        assert!(!c.put("SELECT big", None, 1, result(4)), "oversized dropped");
        assert!(c.put("q1", None, 1, result(1)));
        assert!(c.put("q2", None, 1, result(1)));
        assert!(c.get("q1", None, 1).is_some()); // refresh q1
        assert!(c.put("q3", None, 1, result(1))); // evicts q2
        assert!(c.get("q2", None, 1).is_none());
        assert!(c.get("q1", None, 1).is_some());
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 2);
    }
}
