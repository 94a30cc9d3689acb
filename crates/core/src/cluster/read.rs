//! The read path: SELECT / EXPLAIN / EXPLAIN ANALYZE from parse to
//! rows, and the row-interpreter comparator.

use super::compute::SnapshotReader;
use super::leader::{self, Leader};
use super::{Cluster, QueryResult};
use crate::catalog::Catalog;
use crate::result_cache::CachedResult;
use crate::session::SessionCtx;
use crate::systables;
use crate::wlm::QmrStats;
use redsim_common::{Result, Row, RsError};
use redsim_engine::baseline;
use redsim_engine::exec::Executor;
use redsim_obs::{AttrValue, Span};
use redsim_sql::ast::{self, Statement};
use redsim_sql::plan::LogicalPlan;
use redsim_sql::{optimizer, Binder};
use std::sync::Arc;

/// How a SELECT is being run: for real, plan-only (`EXPLAIN`), or for
/// real with the annotated plan as the result (`EXPLAIN ANALYZE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SelectMode {
    Execute,
    ExplainOnly,
    ExplainAnalyze,
}

/// Does any join in the plan carry a non-equi residual predicate? That
/// is this repo's analogue of QMR's `nested_loop_join` condition: the
/// residual is evaluated row-by-row after the hash match.
fn plan_has_residual_join(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => false,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => plan_has_residual_join(input),
        LogicalPlan::Join { left, right, residual, .. } => {
            residual.is_some() || plan_has_residual_join(left) || plan_has_residual_join(right)
        }
    }
}

impl Cluster {
    pub(crate) fn query_with_ctx(&self, sql: &str, ctx: &SessionCtx) -> Result<QueryResult> {
        self.check_readable()?;
        let t_parse = std::time::Instant::now();
        let stmt = redsim_sql::parse(sql)?;
        let parse_ns = t_parse.elapsed().as_nanos() as u64;
        let (mode, stmt) = match stmt {
            Statement::Explain(inner) => (SelectMode::ExplainOnly, *inner),
            Statement::ExplainAnalyze(inner) => (SelectMode::ExplainAnalyze, *inner),
            other => (SelectMode::Execute, other),
        };
        match (stmt, mode) {
            (Statement::Select(sel), _) => self.run_select(sql, &sel, mode, parse_ns, ctx),
            (_, SelectMode::Execute) => Err(RsError::Analysis("not a query; use execute()".into())),
            (_, SelectMode::ExplainOnly) => {
                Err(RsError::Unsupported("EXPLAIN supports SELECT only".into()))
            }
            (_, SelectMode::ExplainAnalyze) => {
                Err(RsError::Unsupported("EXPLAIN ANALYZE supports SELECT only".into()))
            }
        }
    }

    /// A SELECT's reader over `catalog`, its MVCC read point, and its plan,
    /// bound and optimized against that same catalog: the one prologue of
    /// the production path and the row-interpreter reference path, so the
    /// two cannot plan against different catalogs. No lock: writers
    /// commit concurrently, and the catalog the reader holds keeps every
    /// block it names until the scan is done (DESIGN.md §11). Plans under
    /// a `query.plan` child of `qspan`.
    fn plan_select(
        &self,
        catalog: Arc<Catalog>,
        sel: &ast::Select,
        qspan: &Span,
    ) -> Result<(SnapshotReader<'_>, LogicalPlan)> {
        let reader = self.compute.reader(catalog);
        let pspan = qspan.child("query.plan");
        let plan = optimizer::optimize(Binder::new(&reader).bind_select(sel)?, &reader);
        pspan.finish();
        Ok((reader, plan))
    }

    fn run_select(
        &self,
        sql: &str,
        sel: &ast::Select,
        mode: SelectMode,
        parse_ns: u64,
        ctx: &SessionCtx,
    ) -> Result<QueryResult> {
        // Queries over `stl_*` / `svl_*` virtual tables run leader-local
        // against the telemetry sink (and are not themselves recorded).
        let refs = sel.referenced_tables();
        if refs.iter().any(|t| systables::is_system_table(t)) {
            if !refs.iter().all(|t| systables::is_system_table(t)) {
                return Err(RsError::Unsupported(
                    "joining system tables with user tables is not supported".into(),
                ));
            }
            let explain_only = mode == SelectMode::ExplainOnly;
            return self.leader.run_system_select(sel, &refs, explain_only, self.faults());
        }
        // One catalog read serves the whole statement: the result-cache
        // probe, the WLM estimate, planning, the scan and the cache-fill
        // key. Held across the queue wait, it pins blocks, not a lock.
        // The cache is probed before WLM admission or planning — a hit
        // costs one hash lookup. EXPLAIN (both flavors) and system-table
        // reads never participate; a session can opt out (and the
        // sessionless compat path always does).
        let catalog = self.leader.catalog();
        let cacheable = mode == SelectMode::Execute && ctx.use_result_cache;
        if cacheable {
            let group = ctx.user_group.as_deref();
            if let Some(hit) = self.leader.result_cache.get(sql, group, catalog.version) {
                return Ok(self.leader.serve_cached(sql, ctx, &hit));
            }
            self.trace().counter("result_cache.misses").incr();
        }
        // WLM admission (§2.1): hold a service-class concurrency slot
        // before planning or scanning, so a queued query starves neither
        // writers nor the queries already running. EXPLAIN and EXPLAIN
        // ANALYZE are diagnostics and bypass admission (so monitoring
        // rules — including abort — can never fire on them); system-table
        // reads above bypass it too, so queue state stays observable when
        // every slot is busy.
        let mut wlm_guard = if mode == SelectMode::Execute {
            let cost = Leader::estimate_cost(&catalog, &refs);
            Some(self.leader.wlm.admit(cost, ctx.user_group.as_deref())?)
        } else {
            None
        };
        let queue_wait_ns = wlm_guard.as_ref().map_or(0, |g| g.queue_wait_ns());
        // Root span for stl_query. EXPLAIN / EXPLAIN ANALYZE are
        // diagnostics and are not logged (as in the real STL_QUERY, which
        // records executed queries).
        let logged = mode == SelectMode::Execute;
        let mut qspan = if logged {
            self.trace().span("query")
        } else {
            redsim_obs::Span::disabled()
        };
        qspan.child_completed("query.parse", parse_ns, &[]);
        if queue_wait_ns > 0 {
            qspan.child_completed("wlm.wait", queue_wait_ns, &[]);
        }
        let (reader, plan) = self.plan_select(catalog, sel, &qspan)?;
        let plan_text = plan.explain();
        if mode == SelectMode::ExplainOnly {
            return Ok(QueryResult::plan_rows(plan_text, |_, l| l.to_string()));
        }
        // Leader: compile (cache) then dispatch to slices.
        let (cache_hit, compiled, compile_ns) = self.leader.compile(plan, &qspan);
        let mut espan = qspan.child("query.exec");
        // Every executed SELECT is profiled: the per-step rows feed
        // `svl_query_report` and EXPLAIN ANALYZE's annotations.
        let t_exec = std::time::Instant::now();
        let mut out = {
            let executor = Executor::new(&reader)
                .with_trace(&espan)
                .with_profiling(true)
                .with_faults(Arc::clone(self.faults()));
            executor.run(&compiled.plan)?
        };
        let exec_ns = t_exec.elapsed().as_nanos() as u64;
        out.metrics.queue_wait_ns = queue_wait_ns;
        out.metrics.exec_ns = exec_ns;
        out.metrics.compile_ns = compile_ns;
        // Batches the binder handed to the row interpreter. Zero is the
        // expected value; anything else says which statement fell off
        // the fast path (EXPLAIN ANALYZE prints it per statement).
        self.trace().counter("exec.interp_fallback").add(out.metrics.interp_fallback);
        espan.attr("slices", self.compute.topology.total_slices());
        espan.attr("rows_out", out.row_count());
        espan.finish();
        // Query id is allocated only for logged (executed) queries, and
        // shared between the `stl_query` row and its `svl_query_report`
        // step rows.
        let qid = if logged { self.leader.next_query_id() } else { 0 };
        // Query-monitoring rules, merge point: evaluated on the leader
        // while the service-class slot is still held, against the final
        // execution metrics. A hop re-homes the slot; an abort releases
        // it and fails the query (results are discarded leader-side —
        // compute work is already sunk, as in the real QMR).
        if let Some(g) = wlm_guard.as_mut() {
            let stats = QmrStats {
                exec_ns,
                queue_ns: queue_wait_ns,
                rows_scanned: out.metrics.rows_scanned,
                bytes_scanned: out.metrics.bytes_read,
                nested_loop_join: plan_has_residual_join(&compiled.plan),
            };
            if let Err(e) = g.evaluate_rules(&stats) {
                leader::stamp_query(&mut qspan, qid, sql, 0, ctx);
                qspan.attr("aborted", true);
                qspan.finish();
                return Err(e);
            }
        }
        // Per-step report rows ride the trace as standalone spans so the
        // existing retention machinery bounds them like everything else.
        if logged {
            for s in &out.profile {
                self.trace().span_completed(
                    "profile.step",
                    s.elapsed_ns,
                    &[
                        ("query", AttrValue::I64(qid as i64)),
                        ("step", AttrValue::U64(s.step as u64)),
                        ("slice", AttrValue::U64(s.slice as u64)),
                        ("label", AttrValue::Str(s.label.clone())),
                        ("rows", AttrValue::U64(s.rows)),
                        ("bytes", AttrValue::U64(s.bytes)),
                    ],
                );
            }
        }
        if mode == SelectMode::ExplainAnalyze {
            // Fold the per-slice profile per step: rows sum across
            // slices; elapsed is inclusive wall time, so take the max.
            let n = compiled.plan.num_steps();
            let mut step_rows = vec![0u64; n + 1];
            let mut step_ns = vec![0u64; n + 1];
            for s in &out.profile {
                if s.step <= n {
                    step_rows[s.step] += s.rows;
                    step_ns[s.step] = step_ns[s.step].max(s.elapsed_ns);
                }
            }
            // The root line also carries the statement's count of batches
            // that fell back to the row interpreter.
            let fallback = format!(" interp_fallback={}", out.metrics.interp_fallback);
            let annotated = QueryResult::plan_rows(plan_text, |i, l| {
                let step = i + 1;
                format!(
                    "{} (actual rows={} time={:.3}ms{})",
                    l,
                    step_rows.get(step).copied().unwrap_or(0),
                    *step_ns.get(step).unwrap_or(&0) as f64 / 1e6,
                    if i == 0 { fallback.as_str() } else { "" },
                )
            });
            return Ok(QueryResult { metrics: out.metrics, cache_hit, ..annotated });
        }
        let m = &out.metrics;
        leader::stamp_query(&mut qspan, qid, sql, out.row_count(), ctx);
        qspan.attr("compile_cache", if cache_hit { "hit" } else { "miss" });
        qspan.attr("compile_ns", compile_ns);
        qspan.attr("exec_ns", exec_ns);
        qspan.attr("rows_scanned", m.rows_scanned);
        qspan.attr("blocks_read", m.blocks_read);
        qspan.attr("bytes_read", m.bytes_read);
        qspan.attr("bytes_broadcast", m.bytes_broadcast);
        qspan.attr("bytes_redistributed", m.bytes_redistributed);
        qspan.attr("groups_total", m.groups_total);
        qspan.attr("groups_skipped", m.groups_skipped);
        qspan.attr("queue_wait_us", queue_wait_ns / 1_000);
        if let Some(g) = &wlm_guard {
            qspan.attr("service_class", g.service_class().to_string());
        }
        qspan.attr("result_cache", if cacheable { "miss" } else { "off" });
        qspan.attr("plan", plan_text.clone());
        qspan.finish();
        let rows = out.rows();
        if cacheable {
            // Fill keyed on the version of the catalog the rows came from.
            // A writer may have published since; the entry is then at
            // worst unreachable, never stale for its key. The entry keeps
            // the result's columns, moved, not the boxed reply.
            self.leader.result_cache.put(
                sql,
                ctx.user_group.as_deref(),
                reader.catalog.version,
                CachedResult { columns: out.columns.clone(), batch: out.batch, plan: plan_text.clone() },
            );
        }
        let result = QueryResult::new(out.columns, rows, out.metrics, plan_text);
        Ok(QueryResult { cache_hit, ..result })
    }

    /// Run a SELECT through the row-at-a-time interpreter (the
    /// non-compiled path; experiment E7's comparator).
    pub fn query_interpreted(&self, sql: &str) -> Result<Vec<Row>> {
        self.check_readable()?;
        let sel = match redsim_sql::parse(sql)? {
            Statement::Select(s) => s,
            _ => return Err(RsError::Analysis("not a SELECT".into())),
        };
        let (reader, plan) = self.plan_select(self.leader.catalog(), &sel, &Span::disabled())?;
        baseline::run_plan(&plan, &reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use redsim_replication::SnapshotKind;

    fn small() -> Arc<Cluster> {
        Cluster::launch(ClusterConfig::new("obs").nodes(2).slices_per_node(2)).unwrap()
    }

    #[test]
    fn stl_query_distinguishes_cache_hit_from_miss() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        c.query("SELECT COUNT(*) FROM t").unwrap(); // cold: compile
        c.query("SELECT COUNT(*) FROM t").unwrap(); // warm: cache hit
        let r = c
            .query("SELECT query, querytxt, compile_cache, rows FROM stl_query ORDER BY query")
            .unwrap();
        assert_eq!(r.rows.len(), 2, "two executed queries logged");
        assert_eq!(r.rows[0].get(2).as_str(), Some("miss"));
        assert_eq!(r.rows[1].get(2).as_str(), Some("hit"));
        assert_eq!(r.rows[0].get(1).as_str(), Some("SELECT COUNT(*) FROM t"));
        assert_eq!(r.rows[0].get(3).as_i64(), Some(1));
        // Counters agree with the system table.
        assert_eq!(c.trace().counter_value("plan_cache.hits"), 1);
        assert_eq!(c.trace().counter_value("plan_cache.misses"), 1);
        // System-table queries are not themselves recorded.
        let again = c.query("SELECT COUNT(*) FROM stl_query").unwrap();
        assert_eq!(again.rows[0].get(0).as_i64(), Some(2));
    }

    #[test]
    fn stl_explain_and_svl_query_metrics() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b BIGINT)").unwrap();
        for i in 0..40 {
            c.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 2)).unwrap();
        }
        c.query("SELECT SUM(b) FROM t WHERE a > 4").unwrap();
        let ex = c
            .query("SELECT query, step, plannode FROM stl_explain WHERE query = 1 ORDER BY step")
            .unwrap();
        assert!(ex.rows.len() >= 2, "plan has multiple nodes: {:?}", ex.rows);
        let joined: String =
            ex.rows.iter().map(|r| r.get(2).to_string()).collect::<Vec<_>>().join("\n");
        assert!(joined.contains("Seq Scan"), "{joined}");
        let m = c
            .query("SELECT rows_scanned, blocks_read FROM svl_query_metrics WHERE query = 1")
            .unwrap();
        assert_eq!(m.rows.len(), 1);
        // Post-pruning scan count: positive, bounded by the table size.
        let scanned = m.rows[0].get(0).as_i64().unwrap();
        assert!((1..=40).contains(&scanned), "{scanned}");
    }

    #[test]
    fn system_tables_join_and_aggregate() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        for _ in 0..3 {
            c.query("SELECT a FROM t").unwrap();
        }
        // System tables join with each other (leader-local).
        let r = c
            .query(
                "SELECT q.query, m.rows_scanned FROM stl_query q \
                 JOIN svl_query_metrics m ON q.query = m.query ORDER BY q.query",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        // But not with user tables.
        let err = c.query("SELECT * FROM stl_query q JOIN t ON q.query = t.a");
        assert!(err.is_err(), "mixed system/user join must be rejected");
    }

    #[test]
    fn query_spans_all_close_and_nest() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (7)").unwrap();
        c.query("SELECT a FROM t").unwrap();
        let sink = c.trace();
        assert_eq!(sink.open_spans(), 0, "no dangling spans");
        let roots = sink.records_named("query");
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        // Phase children parent to the root and fit inside it.
        for name in ["query.plan", "query.compile", "query.exec"] {
            let phases = sink.records_named(name);
            assert_eq!(phases.len(), 1, "{name}");
            assert_eq!(phases[0].parent, root.id, "{name} parents to query");
            assert!(phases[0].dur_ns <= root.dur_ns, "{name} fits in parent");
        }
        // Every span is recorded: one `exec.slice` per slice's scan.
        let exec = &sink.records_named("query.exec")[0];
        let slices = sink.records_named("exec.slice");
        assert_eq!(slices.len(), c.compute.topology.total_slices() as usize);
        assert!(slices.iter().all(|s| s.parent == exec.id && s.attr_str("table") == Some("t")));
    }

    #[test]
    fn copy_spans_record_ingest_phases() {
        let c = small();
        c.execute("CREATE TABLE logs (id BIGINT, msg VARCHAR)").unwrap();
        let mut csv = String::new();
        for i in 0..100 {
            csv.push_str(&format!("{i},m{i}\n"));
        }
        c.put_s3_object("in/part-0", csv.into_bytes());
        c.execute("COPY logs FROM 's3://in/'").unwrap();
        let sink = c.trace();
        let copies = sink.records_named("copy");
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].attr_u64("rows"), Some(100));
        assert_eq!(copies[0].attr_u64("objects"), Some(1));
        assert!(!sink.records_named("copy.append").is_empty());
        assert!(!sink.records_named("copy.seal").is_empty());
        assert!(!sink.records_named("copy.encoding_sample").is_empty());
        let objects = sink.records_named("copy.object");
        assert_eq!(objects.len(), 1);
        assert_eq!(objects[0].attr_u64("rows"), Some(100));
        let seals = sink.records_named("copy.slice_seal");
        assert_eq!(seals.len(), c.compute.topology.total_slices() as usize);
        assert_eq!(sink.counter_value("copy.rows_loaded"), 100);
        assert_eq!(sink.open_spans(), 0);
    }

    #[test]
    fn restore_trace_records_page_faults_and_hydration() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        for i in 0..200 {
            c.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        c.create_snapshot("obs-snap", SnapshotKind::User).unwrap();
        let restored = Cluster::restore_from_snapshot(
            ClusterConfig::new("obs2").nodes(2).slices_per_node(2),
            Arc::clone(c.s3()),
            "us-east-1",
            "obs",
            "obs-snap",
            None,
        )
        .unwrap();
        let sink = Arc::clone(restored.trace());
        assert!(!sink.records_named("restore.open").is_empty());
        // Query before hydration: demand reads must page-fault.
        restored.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(
            sink.counter_value("restore.page_faults") > 0,
            "streaming restore serves early queries by faulting blocks"
        );
        assert!(!sink.records_named("restore.page_fault").is_empty());
        // Background hydration records steps and a blocks counter.
        while restored.hydrate_step(16).unwrap() > 0 {}
        assert!(!sink.records_named("restore.hydrate_step").is_empty());
        let faulted = sink.counter_value("restore.page_faults");
        let hydrated = sink.counter_value("restore.blocks_hydrated");
        assert!(faulted + hydrated > 0);
        assert_eq!(sink.open_spans(), 0);
        // The source cluster's mirror telemetry saw the backup drain.
        assert!(c.trace().counter_value("mirror.blocks_backed_up") > 0);
        assert_eq!(c.trace().gauge_value("mirror.backup_backlog"), 0);
    }

    #[test]
    fn explain_and_interpreted_queries_not_logged() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        c.query("EXPLAIN SELECT a FROM t").unwrap();
        c.query_interpreted("SELECT a FROM t").unwrap();
        let r = c.query("SELECT COUNT(*) FROM stl_query").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(0));
    }
}
