//! The leader part: the published catalog and the services around it
//! that never touch a block — plan cache, result cache, WLM admission,
//! sessions, the trace sink and query ids (§2.1's leader
//! node, minus the transaction protocol, which stays on
//! [`Cluster`](super::Cluster)). Nothing here survives a crash.

use super::QueryResult;
use crate::catalog::Catalog;
use crate::config::ClusterConfig;
use crate::result_cache::{CachedResult, ResultCache};
use crate::session::{SessionCtx, SessionManager};
use crate::systables::SystemTables;
use crate::wlm::WlmController;
use redsim_common::Result;
use redsim_engine::compile::CompiledQuery;
use redsim_engine::exec::{rows_of, ExecMetrics, Executor};
use redsim_engine::PlanCache;
use redsim_faultkit::FaultRegistry;
use redsim_obs::{Span, TraceSink};
use redsim_sql::plan::LogicalPlan;
use redsim_sql::{ast, optimizer, Binder};
use redsim_testkit::sync::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The WLM admission books, snapshotted from the cluster's counters by
/// [`Cluster::wlm_accounting`](super::Cluster::wlm_accounting).
/// Read-only; the workload replay driver and the property suites use it
/// for exactly-once accounting checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WlmAccounting {
    pub admitted: u64,
    pub completed: u64,
    pub aborted: u64,
    pub evicted: u64,
    pub rejected: u64,
    pub hops: u64,
    pub sqa_admits: u64,
    pub queued_admits: u64,
    pub rule_actions: u64,
}

impl WlmAccounting {
    /// Point-in-time snapshot of the books, read from the `wlm.*`
    /// counters of `trace`.
    pub(crate) fn of(trace: &TraceSink) -> WlmAccounting {
        let c = |name| trace.counter_value(name);
        WlmAccounting {
            admitted: c("wlm.admitted"),
            completed: c("wlm.completed"),
            aborted: c("wlm.aborted"),
            evicted: c("wlm.evicted"),
            rejected: c("wlm.rejected"),
            hops: c("wlm.hops"),
            sqa_admits: c("wlm.sqa_admits"),
            queued_admits: c("wlm.queued_admits"),
            rule_actions: c("wlm.rule_actions"),
        }
    }

    /// `admitted == completed + aborted`, the invariant every quiesced
    /// cluster upholds and the workload replay harness asserts: each
    /// admission reaches exactly one terminal state. Evictions and
    /// rejections are failed admissions — they were never admitted.
    pub fn balanced(&self) -> bool {
        self.admitted == self.completed + self.aborted
    }
}

/// The `stl_query` columns every logged query carries, hit or miss.
pub(super) fn stamp_query(qspan: &mut Span, qid: u64, sql: &str, rows: usize, ctx: &SessionCtx) {
    qspan.attr("query", qid);
    qspan.attr("querytxt", sql);
    qspan.attr("rows", rows);
    qspan.attr("userid", ctx.userid);
    qspan.attr("session", ctx.session_id);
}

pub(super) struct Leader {
    /// The published catalog, replaced whole by [`Leader::publish`]. A
    /// leaf lock, held for one `Arc` clone or swap.
    catalog: RwLock<Arc<Catalog>>,
    /// The publication lock: a commit holds it across its writability
    /// check, its log write and its publish, and resize holds it to flip
    /// the cluster read-only and take its one catalog snapshot — so every
    /// commit is either in that snapshot or refused. After every table's
    /// `writer`, before `Wal` internals.
    pub publication: Mutex<()>,
    pub plan_cache: PlanCache,
    /// Leader result cache, keyed on (normalized SQL, user group,
    /// `Catalog::version`). See `crate::result_cache`.
    pub result_cache: ResultCache,
    /// WLM admission controller (§2.1): every SELECT holds a
    /// service-class concurrency slot for its whole execution.
    pub wlm: Arc<WlmController>,
    /// Live sessions + connection log (`stv_sessions`,
    /// `stl_connection_log`); the sessionless API registers implicit
    /// sessions here too.
    pub sessions: SessionManager,
    /// Per-cluster telemetry sink; `stl_*` / `svl_*` system tables are
    /// materialized from it.
    pub trace: Arc<TraceSink>,
    /// Monotonic query ids for `stl_query` (1-based, SELECTs only).
    query_seq: AtomicU64,
}

/// Compiled-plan cache capacity (entries).
const PLAN_CACHE_CAPACITY: usize = 64;
/// Results with more rows than this are never cached.
const RESULT_CACHE_MAX_ROWS: usize = 10_000;

impl Leader {
    pub fn new(config: &ClusterConfig, catalog: Catalog, trace: Arc<TraceSink>) -> Leader {
        Leader {
            catalog: RwLock::new(Arc::new(catalog)),
            publication: Mutex::new(()),
            plan_cache: PlanCache::with_work(PLAN_CACHE_CAPACITY, config.compile_work_per_node),
            result_cache: ResultCache::new(config.result_cache_capacity, RESULT_CACHE_MAX_ROWS),
            wlm: Arc::new(WlmController::new(&config.wlm, Arc::clone(&trace))),
            sessions: SessionManager::new(Arc::clone(&trace)),
            trace,
            query_seq: AtomicU64::new(0),
        }
    }

    /// The published catalog: one `Arc` clone.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog.read())
    }

    /// Make `next` the published catalog; returns the one it replaces.
    /// Caller holds `publication`, after logging `next`.
    pub fn publish(&self, next: Arc<Catalog>) -> Arc<Catalog> {
        std::mem::replace(&mut *self.catalog.write(), next)
    }

    pub fn next_query_id(&self) -> u64 {
        self.query_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Estimated cost for WLM routing: total logical rows across the
    /// referenced tables of `catalog`, scaled by the table count (joins
    /// are superlinear). Deliberately cheap — no planning, no wait on any
    /// writer.
    pub fn estimate_cost(catalog: &Catalog, refs: &[&str]) -> u64 {
        let tables = refs.iter().filter_map(|t| catalog.get(t));
        let total: u64 = tables.map(|(t, v)| v.logical_rows(&t.dist_style)).sum();
        total.saturating_mul(refs.len().max(1) as u64)
    }

    /// Compile through the plan cache under a `query.compile` child of
    /// `qspan`. Returns (cache hit?, compiled plan, nanoseconds).
    pub fn compile(&self, plan: LogicalPlan, qspan: &Span) -> (bool, Arc<CompiledQuery>, u64) {
        let mut cspan = qspan.child("query.compile");
        let t0 = std::time::Instant::now();
        let (compiled, cache_hit) = self.plan_cache.get_or_compile(plan);
        let compile_ns = t0.elapsed().as_nanos() as u64;
        self.trace.counter(if cache_hit { "plan_cache.hits" } else { "plan_cache.misses" }).incr();
        cspan.attr("cache", if cache_hit { "hit" } else { "miss" });
        cspan.finish();
        (cache_hit, compiled, compile_ns)
    }

    /// The result-cache hit path: no WLM admission, no planning, no
    /// compile, no execution — just the cached columns, boxed into rows
    /// for the reply, plus an `stl_query` row so dashboards still see
    /// their queries. The absence of `query.compile` / `query.exec` child
    /// spans under this `query` span is how tests verify the skip.
    pub fn serve_cached(&self, sql: &str, ctx: &SessionCtx, hit: &CachedResult) -> QueryResult {
        self.trace.counter("result_cache.hits").incr();
        let mut qspan = self.trace.span("query");
        stamp_query(&mut qspan, self.next_query_id(), sql, hit.row_count(), ctx);
        qspan.attr("result_cache", "hit");
        qspan.attr("plan", hit.plan.clone());
        qspan.finish();
        let mut served = QueryResult::new(
            hit.columns.clone(),
            rows_of(&hit.batch),
            ExecMetrics::default(),
            hit.plan.clone(),
        );
        served.result_cache_hit = true;
        served
    }

    /// Leader-local execution over the virtual system tables: one slice,
    /// no plan cache, no self-recording in `stl_query`.
    pub fn run_system_select(
        &self,
        sel: &ast::Select,
        refs: &[&str],
        explain_only: bool,
        faults: &Arc<FaultRegistry>,
    ) -> Result<QueryResult> {
        let sys = SystemTables::capture(
            &self.trace,
            Some(&self.wlm),
            Some(faults),
            Some(&self.sessions),
            Some(&self.catalog()),
            refs,
        );
        let bound = Binder::new(&sys).bind_select(sel)?;
        let plan = optimizer::optimize(bound, &sys);
        let plan_text = plan.explain();
        if explain_only {
            return Ok(QueryResult::plan_rows(plan_text, |_, l| l.to_string()));
        }
        let out = Executor::new(&sys).run(&plan)?;
        let rows = out.rows();
        Ok(QueryResult::new(out.columns, rows, out.metrics, plan_text))
    }
}
