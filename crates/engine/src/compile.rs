//! Query "compilation" and the plan cache.
//!
//! §2.1: "Query processing … begins with query plan generation and
//! compilation to C++ and machine code at the leader node. The use of
//! query compilation adds a fixed overhead per query that we feel is
//! generally amortized by the tighter execution at compute nodes."
//!
//! Rust has no in-process C++ toolchain to invoke, so the *mechanism* is
//! substituted (see DESIGN.md): "compilation" here specializes the plan
//! into the vectorized executor's form and pays a deterministic,
//! plan-size-proportional fixed cost standing in for codegen+compile
//! time. What the experiments measure — the fixed-overhead vs
//! faster-execution trade-off and its amortization by the plan cache —
//! is the paper's actual claim, and both sides of that trade-off are
//! real here: the compiled path runs the batch-at-a-time engine, the
//! uncompiled path runs the row-at-a-time interpreter.

use redsim_testkit::sync::Mutex;
use redsim_common::hash::mix64;
use redsim_sql::plan::LogicalPlan;
use std::collections::VecDeque;
use std::sync::Arc;

/// Work units (splitmix64 rounds) per plan node; calibrated so a typical
/// 5-node plan costs a few milliseconds, the same order as Redshift's
/// compiled-fragment cache hit path relative to scan times at our scale.
pub const DEFAULT_WORK_PER_NODE: u64 = 3_000_000;

/// A compiled (specialized) query ready for the vectorized executor.
#[derive(Debug)]
pub struct CompiledQuery {
    pub plan: LogicalPlan,
    /// Cache key: structural signature of the plan (includes literals).
    pub signature: String,
    /// Checksum emitted by the specialization pass (forces the work to
    /// actually happen — the optimizer cannot elide it).
    pub checksum: u64,
}

/// Structural signature of a plan.
pub fn plan_signature(plan: &LogicalPlan) -> String {
    format!("{plan:?}")
}

fn plan_nodes(plan: &LogicalPlan) -> u64 {
    match plan {
        LogicalPlan::Scan { .. } => 1,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => 1 + plan_nodes(input),
        LogicalPlan::Join { left, right, .. } => 1 + plan_nodes(left) + plan_nodes(right),
    }
}

/// Compile a plan, paying the fixed specialization cost.
pub fn compile(plan: LogicalPlan, work_per_node: u64) -> CompiledQuery {
    let signature = plan_signature(&plan);
    let nodes = plan_nodes(&plan);
    // Deterministic busy work proportional to plan complexity.
    let mut acc = redsim_common::fx_hash64(&signature);
    for _ in 0..nodes.saturating_mul(work_per_node) {
        acc = mix64(acc);
    }
    CompiledQuery { plan, signature, checksum: acc }
}

/// Bounded cache of compiled queries, keyed by plan signature.
///
/// "At the compute nodes, the executable is run with the plan
/// parameters" — repeated query shapes skip compilation entirely.
/// Eviction is LRU: a hit refreshes the entry's position.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    work_per_node: u64,
}

struct CacheInner {
    entries: Vec<(String, Arc<CompiledQuery>)>,
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    pub fn with_work(capacity: usize, work_per_node: u64) -> Self {
        PlanCache {
            inner: Mutex::new(CacheInner {
                entries: Vec::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
            }),
            capacity: capacity.max(1),
            work_per_node,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fetch a compiled form, compiling (and caching) on miss; the flag
    /// says whether *this* call hit.
    pub fn get_or_compile(&self, plan: LogicalPlan) -> (Arc<CompiledQuery>, bool) {
        let signature = plan_signature(&plan);
        {
            let mut inner = self.inner.lock();
            if let Some((_, c)) = inner.entries.iter().find(|(s, _)| *s == signature) {
                let c = Arc::clone(c);
                inner.hits += 1;
                inner.order.retain(|s| *s != signature);
                inner.order.push_back(signature);
                return (c, true);
            }
            inner.misses += 1;
        }
        // Compile outside the lock (concurrent sessions may race; the
        // duplicate work mirrors reality and the last write wins).
        let compiled = Arc::new(compile(plan, self.work_per_node));
        let mut inner = self.inner.lock();
        inner.entries.push((signature.clone(), Arc::clone(&compiled)));
        inner.order.push_back(signature);
        while inner.entries.len() > self.capacity {
            if let Some(evict) = inner.order.pop_front() {
                inner.entries.retain(|(s, _)| *s != evict);
            }
        }
        (compiled, false)
    }

    /// Drop every cached plan. Called by the leader after a
    /// schema-changing statement (CREATE/DROP/redistribution): a plan
    /// compiled against the old catalog must never execute against the
    /// new one, even when the Debug signature happens to collide.
    /// Hit/miss counters are preserved.
    pub fn invalidate_all(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.order.clear();
    }

    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_sql::plan::OutCol;
    use redsim_common::DataType;
    use redsim_storage::table::ScanPredicate;

    fn scan(table: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            projection: vec![0],
            output: vec![OutCol { name: "a".into(), ty: DataType::Int8 }],
            filter: None,
            pruning: ScanPredicate::default(),
        }
    }

    #[test]
    fn cache_hits_skip_compilation() {
        let cache = PlanCache::with_work(4, 10_000);
        let (a1, hit1) = cache.get_or_compile(scan("t"));
        let (a2, hit2) = cache.get_or_compile(scan("t"));
        assert_eq!(a1.checksum, a2.checksum);
        assert_eq!((hit1, hit2), (false, true), "the flag is this call's outcome");
        assert_eq!(cache.stats(), (1, 1));
    }

    /// The flag is this call's outcome, so summed over racing sessions it
    /// is the hit counter — which a before/after read of `stats()` around
    /// the call is not.
    #[test]
    fn hit_flags_add_up_to_the_hit_counter_under_concurrency() {
        let cache = PlanCache::with_work(4, 1_000);
        let hits: u64 = std::thread::scope(|s| {
            let sessions: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        (0..50).filter(|i| cache.get_or_compile(scan(["a", "b"][i % 2])).1).count()
                    })
                })
                .collect();
            sessions.into_iter().map(|h| h.join().unwrap() as u64).sum()
        });
        let (counted, misses) = cache.stats();
        assert_eq!(hits, counted);
        assert_eq!(hits + misses, 8 * 50);
    }

    #[test]
    fn different_plans_different_entries() {
        let cache = PlanCache::with_work(4, 1_000);
        cache.get_or_compile(scan("t1"));
        cache.get_or_compile(scan("t2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = PlanCache::with_work(2, 1_000);
        cache.get_or_compile(scan("a"));
        cache.get_or_compile(scan("b"));
        cache.get_or_compile(scan("a")); // refresh a
        cache.get_or_compile(scan("c")); // evicts b
        assert_eq!(cache.len(), 2);
        cache.get_or_compile(scan("b"));
        assert_eq!(cache.stats().0, 1, "only the refreshed `a` hit");
    }

    #[test]
    fn invalidate_all_forces_recompilation() {
        let cache = PlanCache::with_work(4, 1_000);
        cache.get_or_compile(scan("t"));
        cache.invalidate_all();
        assert!(cache.is_empty());
        cache.get_or_compile(scan("t"));
        assert_eq!(cache.stats(), (0, 2), "post-invalidation access is a miss");
    }

    #[test]
    fn compile_cost_scales_with_plan_size() {
        let small = scan("t");
        let big = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan("t")),
                keys: vec![],
            }),
            n: 1,
        };
        // The minimum of interleaved timings: one preemption inflates one
        // sample, not the fastest of five.
        let time = |plan: &LogicalPlan| {
            let plan = plan.clone();
            let t = std::time::Instant::now();
            compile(plan, 400_000);
            t.elapsed()
        };
        let (mut small_t, mut big_t) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..5 {
            small_t = small_t.min(time(&small));
            big_t = big_t.min(time(&big));
        }
        assert!(big_t > small_t, "3-node plan must cost more than 1-node");
    }
}
