//! The cluster: leader + compute nodes + managed-service operations.
//!
//! [`Cluster`] is three parts (DESIGN.md "Cluster anatomy"), each built
//! in one place and owning the methods that use only its fields:
//! `durable` (S3, block stores, keys, redo log — what survives a crash),
//! `compute` (topology + per-node stores — every per-slice fan-out) and
//! `leader` (catalog, caches, WLM, sessions, telemetry). What stays on
//! `Cluster` ties them together: statement entry points (`read`,
//! `write`), the `state` / `write_txn` protocol (`write`; readers take no
//! lock), `maintenance`, and `lifecycle` orchestration.

mod compute;
mod durable;
mod leader;
mod lifecycle;
mod maintenance;
mod read;
mod write;

pub use durable::CrashImage;
pub use leader::WlmAccounting;

use crate::autonomics::UsageStats;
use crate::catalog::{Catalog, Epoch, TableVersion};
use crate::config::ClusterConfig;
use crate::session::{Session, SessionCtx, SessionManager, SessionOpts};
use crate::wlm::WlmController;
use compute::Compute;
use durable::Durable;
use leader::Leader;
use redsim_common::{DataType, Result, Row, RsError, Value};
use redsim_crypto::HsmSim;
use redsim_distribution::ClusterTopology;
use redsim_engine::exec::ExecMetrics;
use redsim_obs::TraceSink;
use redsim_replication::{ReplicatedStore, S3Sim};
use redsim_sql::ast::Statement;
use redsim_sql::plan::OutCol;
use redsim_testkit::sync::RwLock;
use std::sync::Arc;

/// Cluster availability state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterState {
    Available,
    /// Source side of an in-flight resize: reads only (§3.1).
    ReadOnly,
    /// Replaced by a resize target; rejects everything.
    Decommissioned,
}

/// Result of a SELECT (or EXPLAIN).
#[derive(Debug)]
pub struct QueryResult {
    pub columns: Vec<OutCol>,
    pub rows: Vec<Row>,
    pub metrics: ExecMetrics,
    /// EXPLAIN-style plan text.
    pub plan: String,
    /// Did the compiled-plan cache hit?
    pub cache_hit: bool,
    /// Was the whole result served from the leader result cache (no
    /// WLM admission, compile, or execution)?
    pub result_cache_hit: bool,
}

impl QueryResult {
    /// A result no cache served.
    fn new(columns: Vec<OutCol>, rows: Vec<Row>, metrics: ExecMetrics, plan: String) -> Self {
        QueryResult { columns, rows, metrics, plan, cache_hit: false, result_cache_hit: false }
    }

    /// A plan as a one-column `QUERY PLAN` result — what every EXPLAIN
    /// flavor returns — with `annotate(line index, line)` as each row.
    fn plan_rows(plan: String, annotate: impl Fn(usize, &str) -> String) -> QueryResult {
        let rows = plan
            .lines()
            .enumerate()
            .map(|(i, l)| Row::new(vec![Value::Str(annotate(i, l))]))
            .collect();
        let columns = vec![OutCol { name: "QUERY PLAN".into(), ty: DataType::Varchar }];
        QueryResult::new(columns, rows, ExecMetrics::default(), plan)
    }
}

/// Result of a non-SELECT statement.
#[derive(Debug, Clone)]
pub struct ExecSummary {
    pub rows_affected: u64,
    pub message: String,
}

/// A running cluster.
pub struct Cluster {
    config: ClusterConfig,
    /// Shared with the [`CrashImage`] a crash leaves behind.
    durable: Arc<Durable>,
    compute: Compute,
    leader: Leader,
    state: RwLock<ClusterState>,
    /// The writers' lock; readers never take it — the catalog a SELECT
    /// holds keeps every block it names. Table writers (COPY / INSERT)
    /// hold it shared, taken before they look their table up, and
    /// serialize per table on its `writer` mutex, so they run
    /// concurrently across tables and DROP cannot remove a writer's
    /// table. Catalog-shaped statements (DDL, VACUUM, ANALYZE,
    /// redistribute, snapshot, key rotation) hold it exclusively, so no
    /// table writer commits between their draft's clone and its
    /// whole-catalog checkpoint. All exclusive acquisition goes through
    /// [`Cluster::begin_write_txn`].
    write_txn: RwLock<()>,
}

impl Cluster {
    /// The one place a cluster is put together: the compute part from
    /// the durable part's block stores, then the leader part around the
    /// catalog `load` produces (empty, decoded from a snapshot, or
    /// replayed from the redo log).
    fn assemble(
        config: ClusterConfig,
        durable: Durable,
        load: impl FnOnce(&Durable, &Compute) -> Result<Catalog>,
    ) -> Result<Arc<Cluster>> {
        let topology = ClusterTopology::new(config.nodes, config.slices_per_node)?;
        let compute = Compute { topology, node_stores: durable.node_stores(&config) };
        let mut catalog = load(&durable, &compute)?;
        let durable = Arc::new(durable);
        catalog.epoch = Some(Epoch::open(compute.free_blocks(&durable)));
        Ok(Arc::new(Cluster {
            leader: Leader::new(&config, catalog, Arc::clone(&durable.trace)),
            durable,
            compute,
            config,
            state: RwLock::new(ClusterState::Available),
            write_txn: RwLock::new(()),
        }))
    }

    /// The cluster's telemetry sink (spans, counters, gauges; exportable
    /// as text/JSON). System tables are views over this.
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.leader.trace
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn topology(&self) -> &ClusterTopology {
        &self.compute.topology
    }

    pub fn s3(&self) -> &Arc<S3Sim> {
        &self.durable.s3
    }

    /// The failpoint registry shared by everything riding on this
    /// cluster's S3 (mirroring, backup, restore, the COPY loader); arm
    /// it with `configure`.
    pub fn faults(&self) -> &Arc<redsim_faultkit::FaultRegistry> {
        self.durable.s3.faults()
    }

    /// `table`'s published version (`None` for an unknown table): what
    /// the accessors below read, so an in-flight writer's progress is
    /// visible in none of them and none of them waits on it.
    fn committed(&self, table: &str) -> Option<Arc<TableVersion>> {
        self.leader.catalog().get(table).map(|(_, v)| Arc::clone(v))
    }

    /// The catalog's cheap running row count for `table` (`None` for an
    /// unknown table). Maintained by COPY/INSERT, rewritten by ANALYZE,
    /// and untouched by a write statement that aborts — exactness tests
    /// key on it.
    pub fn rows_estimate(&self, table: &str) -> Option<u64> {
        self.committed(table).map(|v| v.state.rows_estimate)
    }

    /// Rows loaded into `table` since its last ANALYZE (drives the
    /// auto-analyze maintenance trigger; `0` for unknown tables).
    pub fn loads_since_analyze(&self, table: &str) -> u64 {
        self.committed(table).map_or(0, |v| v.state.loads_since_analyze)
    }

    /// `table`'s optimizer statistics (`None` when unknown or never
    /// analyzed/loaded): `ANALYZE`'s output, kept current by every
    /// STATUPDATE COPY and INSERT.
    pub fn table_stats(&self, table: &str) -> Option<redsim_storage::stats::TableStats> {
        self.committed(table).and_then(|v| v.state.stats.clone())
    }

    pub fn state(&self) -> ClusterState {
        *self.state.read()
    }

    /// The cluster's block store — always `Some`: launched, restored and
    /// recovered clusters all mirror their blocks in one.
    pub fn replicated_store(&self) -> Option<&Arc<ReplicatedStore>> {
        Some(&self.durable.blocks)
    }

    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.leader.plan_cache.stats()
    }

    pub fn hsm(&self) -> Option<&Arc<HsmSim>> {
        self.durable.keys.as_ref().map(|k| &k.hsm)
    }

    /// Stage an object into this cluster's S3 (test/demo data for COPY).
    pub fn put_s3_object(&self, key: &str, bytes: Vec<u8>) {
        self.durable.s3.put(&self.config.region, key, bytes);
    }

    fn check_readable(&self) -> Result<()> {
        if self.state() == ClusterState::Decommissioned {
            return Err(RsError::InvalidState("cluster has been decommissioned".into()));
        }
        Ok(())
    }

    fn check_writable(&self) -> Result<()> {
        self.check_readable()?;
        if self.state() == ClusterState::ReadOnly {
            let why = "cluster is read-only while a resize is in flight";
            return Err(RsError::InvalidState(why.into()));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // SQL endpoint
    // ------------------------------------------------------------------

    /// Open a session: the front door's unit of connection. The session
    /// carries the authenticated user, the user group WLM routes by, and
    /// per-session settings; it disconnects on drop. Statements on one
    /// session are serialized; open more sessions for concurrency.
    pub fn connect(self: &Arc<Self>, opts: SessionOpts) -> Result<Session> {
        self.check_readable()?;
        Ok(Session::open(Arc::clone(self), opts))
    }

    /// The live-session registry (`stv_sessions` / `stl_connection_log`
    /// materialize from it).
    pub fn session_manager(&self) -> &SessionManager {
        &self.leader.sessions
    }

    /// The published catalog's version: the transaction that published
    /// it, so it changes with every *committed* mutating statement and
    /// never with a rollback. The result cache keys on it.
    pub fn catalog_version(&self) -> u64 {
        self.leader.catalog().version
    }

    /// `(hits, misses)` of the leader result cache since launch.
    pub fn result_cache_stats(&self) -> (u64, u64) {
        self.leader.result_cache.stats()
    }

    /// The WLM admission controller (drain control, live queue state).
    pub fn wlm(&self) -> &Arc<WlmController> {
        &self.leader.wlm
    }

    /// See [`WlmAccounting`].
    pub fn wlm_accounting(&self) -> WlmAccounting {
        WlmAccounting::of(&self.leader.trace)
    }

    /// Usage telemetry collected by the leader (§5 future work).
    pub fn usage_stats(&self) -> &UsageStats {
        &self.leader.usage
    }

    /// Execute any statement; returns a row-count summary. A SELECT or
    /// EXPLAIN runs as [`Cluster::query`] does.
    pub fn execute(&self, sql: &str) -> Result<ExecSummary> {
        self.execute_with_ctx(sql, None)
    }

    /// `ctx` is the issuing session's; `None` is the sessionless API.
    pub(crate) fn execute_with_ctx(
        &self,
        sql: &str,
        ctx: Option<&SessionCtx>,
    ) -> Result<ExecSummary> {
        self.execute_inner(sql, ctx).inspect_err(|e| self.leader.usage.record_error(e.code()))
    }

    fn execute_inner(&self, sql: &str, ctx: Option<&SessionCtx>) -> Result<ExecSummary> {
        let (feature, result) = match redsim_sql::parse(sql)? {
            Statement::Select(_) | Statement::Explain(_) | Statement::ExplainAnalyze(_) => {
                let out = match ctx {
                    Some(ctx) => self.query_with_ctx(sql, ctx),
                    None => self.query(sql),
                };
                let n = out?.rows.len() as u64;
                return Ok(ExecSummary { rows_affected: n, message: format!("SELECT {n}") });
            }
            Statement::CreateTable(ct) => ("CREATE TABLE", self.run_create_table(ct)),
            Statement::DropTable { name, if_exists } => {
                ("DROP TABLE", self.run_drop_table(&name, if_exists))
            }
            Statement::Insert(ins) => ("INSERT", self.run_insert(ins)),
            Statement::Copy(c) => {
                ("COPY", self.run_copy(c, ctx.unwrap_or(&SessionCtx::unregistered())))
            }
            Statement::Vacuum { table } => ("VACUUM", self.run_vacuum(table.as_deref())),
            Statement::Analyze { table } => ("ANALYZE", self.run_analyze(table.as_deref())),
        };
        self.leader.usage.record_feature(feature);
        result
    }

    /// Run a SELECT (or EXPLAIN) and return rows. The sessionless path:
    /// registers an implicit single-statement session (so `stv_sessions`,
    /// the `sessions.active` gauge and `stl_query`'s session columns
    /// behave exactly as for a real session), runs the statement with the
    /// result cache off (callers assert on cold-execution telemetry), and
    /// disconnects. [`Cluster::connect`] a [`Session`] to pick a user
    /// group or use the result cache.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let shared = self.leader.sessions.register("default", None, true);
        let ctx = SessionCtx {
            session_id: shared.id(),
            userid: shared.userid(),
            ..SessionCtx::unregistered()
        };
        let r = self.query_with_ctx(sql, &ctx);
        self.leader.sessions.unregister(&shared);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_distribution::NodeId;

    fn small() -> Arc<Cluster> {
        Cluster::launch(ClusterConfig::new("t").nodes(2).slices_per_node(2)).unwrap()
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR) DISTKEY(a)").unwrap();
        c.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)").unwrap();
        let r = c.query("SELECT a, b FROM t ORDER BY a").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0].get(0).as_i64(), Some(1));
        assert_eq!(r.rows[1].get(1).as_str(), Some("y"));
        assert!(r.rows[2].get(1).is_null());
    }

    #[test]
    fn aggregates_and_joins_across_slices() {
        let c = small();
        c.execute("CREATE TABLE orders (id BIGINT, cust BIGINT, total FLOAT8) DISTKEY(cust)")
            .unwrap();
        c.execute("CREATE TABLE custs (id BIGINT, region VARCHAR) DISTKEY(id)").unwrap();
        for i in 0..50 {
            c.execute(&format!(
                "INSERT INTO orders VALUES ({i}, {}, {})",
                i % 5,
                (i as f64) * 1.5
            ))
            .unwrap();
        }
        for i in 0..5 {
            c.execute(&format!("INSERT INTO custs VALUES ({i}, 'r{}')", i % 2)).unwrap();
        }
        let r = c
            .query(
                "SELECT c.region, COUNT(*) AS n, SUM(o.total) AS s
                 FROM orders o JOIN custs c ON o.cust = c.id
                 GROUP BY c.region ORDER BY c.region",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let n0 = r.rows[0].get(1).as_i64().unwrap();
        let n1 = r.rows[1].get(1).as_i64().unwrap();
        assert_eq!(n0 + n1, 50);
    }

    #[test]
    fn colocated_join_moves_no_bytes() {
        let c = small();
        c.execute("CREATE TABLE a (k BIGINT, v BIGINT) DISTKEY(k)").unwrap();
        c.execute("CREATE TABLE b (k BIGINT, w BIGINT) DISTKEY(k)").unwrap();
        for i in 0..40 {
            c.execute(&format!("INSERT INTO a VALUES ({i}, {i})")).unwrap();
            c.execute(&format!("INSERT INTO b VALUES ({i}, {})", i * 2)).unwrap();
        }
        c.execute("ANALYZE").unwrap();
        let r = c.query("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(40));
        assert_eq!(r.metrics.exchange_bytes(), 0);
        assert!(r.plan.contains("DS_DIST_NONE"), "{}", r.plan);
    }

    #[test]
    fn non_colocated_join_moves_bytes() {
        let c = small();
        c.execute("CREATE TABLE a (k BIGINT, j BIGINT)").unwrap(); // EVEN
        c.execute("CREATE TABLE b (k BIGINT)").unwrap(); // EVEN
        for i in 0..60 {
            c.execute(&format!("INSERT INTO a VALUES ({i}, {})", i % 10)).unwrap();
        }
        for i in 0..60 {
            c.execute(&format!("INSERT INTO b VALUES ({})", i % 10)).unwrap();
        }
        c.execute("ANALYZE").unwrap();
        let r = c.query("SELECT COUNT(*) FROM a JOIN b ON a.j = b.k").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(360));
        assert!(r.metrics.exchange_bytes() > 0, "{:?}", r.metrics);
    }

    #[test]
    fn copy_csv_from_s3() {
        let c = small();
        c.execute("CREATE TABLE logs (id BIGINT, url VARCHAR, d DATE) COMPOUND SORTKEY(id)")
            .unwrap();
        let mut csv1 = String::new();
        let mut csv2 = String::new();
        for i in 0..500 {
            let line = format!("{i},http://site/{},2015-05-{:02}\n", i % 7, (i % 28) + 1);
            if i % 2 == 0 {
                csv1.push_str(&line);
            } else {
                csv2.push_str(&line);
            }
        }
        c.put_s3_object("load/part-0001", csv1.into_bytes());
        c.put_s3_object("load/part-0002", csv2.into_bytes());
        let s = c.execute("COPY logs FROM 's3://load/'").unwrap();
        assert_eq!(s.rows_affected, 500);
        let r = c.query("SELECT COUNT(*), MIN(id), MAX(id) FROM logs").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(500));
        assert_eq!(r.rows[0].get(1).as_i64(), Some(0));
        assert_eq!(r.rows[0].get(2).as_i64(), Some(499));
        // STATUPDATE ran: stats exist.
        assert!(c.table_stats("logs").is_some());
    }

    #[test]
    fn copy_json_from_s3() {
        let c = small();
        c.execute("CREATE TABLE ev (user_id BIGINT, action VARCHAR, ok BOOLEAN)").unwrap();
        let json = r#"{"user_id": 1, "action": "click", "ok": true}
{"user_id": 2, "action": "view"}
{"user_id": 3, "ok": false}"#;
        c.put_s3_object("j/events", json.as_bytes().to_vec());
        let s = c.execute("COPY ev FROM 's3://j/' FORMAT JSON").unwrap();
        assert_eq!(s.rows_affected, 3);
        let r = c.query("SELECT COUNT(*) FROM ev WHERE action IS NULL").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(1));
    }

    #[test]
    fn vacuum_enables_pruning() {
        let c = Cluster::launch(
            ClusterConfig::new("v").nodes(1).slices_per_node(1).rows_per_group(128),
        )
        .unwrap();
        c.execute("CREATE TABLE t (k BIGINT, v BIGINT) COMPOUND SORTKEY(k)").unwrap();
        let mut csv = String::new();
        // Load in hash-scattered order so unsorted zone maps are useless;
        // only VACUUM's sort makes pruning effective.
        for j in 0..2048u64 {
            let i = (j * 2_654_435_761) % 2048;
            csv.push_str(&format!("{i},{}\n", i * 2));
        }
        c.put_s3_object("d/x", csv.into_bytes());
        c.execute("COPY t FROM 's3://d/'").unwrap();
        let before = c.query("SELECT v FROM t WHERE k BETWEEN 100 AND 110").unwrap();
        c.execute("VACUUM t").unwrap();
        let after = c.query("SELECT v FROM t WHERE k BETWEEN 100 AND 110").unwrap();
        assert_eq!(before.rows.len(), after.rows.len());
        assert!(after.metrics.groups_skipped > before.metrics.groups_skipped);
    }

    #[test]
    fn explain_output() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        let r = c.query("EXPLAIN SELECT COUNT(*) FROM t WHERE a > 5").unwrap();
        let text: Vec<String> = r.rows.iter().map(|row| row.get(0).to_string()).collect();
        let joined = text.join("\n");
        assert!(joined.contains("Seq Scan"), "{joined}");
        assert!(joined.contains("HashAggregate"), "{joined}");
    }

    #[test]
    fn plan_cache_hits_on_repeat() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        let r1 = c.query("SELECT a FROM t").unwrap();
        assert!(!r1.cache_hit);
        let r2 = c.query("SELECT a FROM t").unwrap();
        assert!(r2.cache_hit);
        // Different literal → different plan signature → miss.
        let r3 = c.query("SELECT a FROM t WHERE a > 1").unwrap();
        assert!(!r3.cache_hit);
    }

    #[test]
    fn interpreted_matches_compiled() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR)").unwrap();
        for i in 0..30 {
            c.execute(&format!("INSERT INTO t VALUES ({i}, 'v{}')", i % 3)).unwrap();
        }
        let sql = "SELECT b, COUNT(*) AS n FROM t WHERE a >= 10 GROUP BY b ORDER BY b";
        let compiled = c.query(sql).unwrap();
        let interp = c.query_interpreted(sql).unwrap();
        assert_eq!(compiled.rows, interp);
    }

    #[test]
    fn diststyle_all_replicates_and_scans_once() {
        let c = small();
        c.execute("CREATE TABLE dim (id BIGINT, name VARCHAR) DISTSTYLE ALL").unwrap();
        c.execute("INSERT INTO dim VALUES (1, 'a'), (2, 'b')").unwrap();
        let r = c.query("SELECT COUNT(*) FROM dim").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(2), "no duplicate rows from copies");
        c.execute("CREATE TABLE f (id BIGINT, d BIGINT)").unwrap();
        for i in 0..20 {
            c.execute(&format!("INSERT INTO f VALUES ({i}, {})", (i % 2) + 1)).unwrap();
        }
        c.execute("ANALYZE").unwrap();
        let r = c
            .query("SELECT d.name, COUNT(*) FROM f JOIN dim d ON f.d = d.id GROUP BY d.name ORDER BY d.name")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].get(1).as_i64(), Some(10));
    }

    #[test]
    fn node_failure_is_transparent_to_queries() {
        let c = Cluster::launch(ClusterConfig::new("ha").nodes(4).slices_per_node(1)).unwrap();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        for i in 0..100 {
            c.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        // Kill a node; reads fall through to secondaries.
        let store = c.replicated_store().unwrap();
        store.kill_node(NodeId(1));
        let r = c.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(100));
        let (sec_reads, _) = store.fallthrough_stats();
        assert!(sec_reads > 0, "secondary replicas served reads");
        // Re-replication restores redundancy.
        let (blocks, _) = store.re_replicate(NodeId(1)).unwrap();
        assert!(blocks > 0);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let c = small();
        assert!(c.execute("CREATE TABLE t (a BIGINT, a VARCHAR)").is_err());
        assert!(c.query("SELECT * FROM missing").is_err());
        c.execute("CREATE TABLE t (a BIGINT NOT NULL)").unwrap();
        assert!(c.execute("INSERT INTO t VALUES (NULL)").is_err());
        assert!(c.execute("COPY t FROM 's3://nothing/'").is_err());
        assert!(c.execute("SELECT nope FROM t").is_err());
        // The cluster is still healthy after all those failures.
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        assert_eq!(c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64(), Some(1));
    }

    #[test]
    fn drop_table_frees_storage() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        for i in 0..50 {
            c.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let before = c.replicated_store().unwrap().local_bytes();
        assert!(before > 0);
        c.execute("DROP TABLE t").unwrap();
        assert_eq!(c.replicated_store().unwrap().local_bytes(), 0);
        assert!(c.execute("DROP TABLE if exists t").is_ok());
    }
}

#[cfg(test)]
mod session_tests {
    use super::*;
    use redsim_faultkit::{fp, ErrClass, FaultSpec};

    fn small() -> Arc<Cluster> {
        Cluster::launch(ClusterConfig::new("sess").nodes(2).slices_per_node(2)).unwrap()
    }

    fn seed(c: &Arc<Cluster>) {
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR)").unwrap();
        c.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')").unwrap();
    }

    #[test]
    fn result_cache_hit_skips_wlm_compile_and_exec() {
        let c = small();
        seed(&c);
        let s = c.connect(SessionOpts::new("ada")).unwrap();
        let admitted = c.trace().counter_value("wlm.admitted");
        let compiles = c.trace().records_named("query.compile").len();
        let execs = c.trace().records_named("query.exec").len();
        let cold = s.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(!cold.result_cache_hit);
        // Whitespace/case differences and a trailing ';' still hit.
        let warm = s.query("select   COUNT(*)  from T ;").unwrap();
        assert!(warm.result_cache_hit);
        assert!(!warm.cache_hit, "plan-cache flag stays false on a result-cache hit");
        assert_eq!(cold.rows, warm.rows);
        assert_eq!(cold.columns, warm.columns);
        // Only the cold run went through admission, compile and exec.
        assert_eq!(c.trace().counter_value("wlm.admitted"), admitted + 1);
        assert_eq!(c.trace().records_named("query.compile").len(), compiles + 1);
        assert_eq!(c.trace().records_named("query.exec").len(), execs + 1);
        assert_eq!(c.result_cache_stats(), (1, 1));
        assert_eq!(s.result_cache_hits(), 1);
        // stl_query distinguishes the two, and attributes both to the session.
        let stl = c
            .query("SELECT result_cache, session, userid FROM stl_query ORDER BY query")
            .unwrap();
        assert_eq!(stl.rows.len(), 2);
        assert_eq!(stl.rows[0].get(0).as_str(), Some("miss"));
        assert_eq!(stl.rows[1].get(0).as_str(), Some("hit"));
        assert_eq!(stl.rows[1].get(1).as_i64(), Some(s.id() as i64));
        assert_eq!(stl.rows[1].get(2).as_i64(), Some(s.userid() as i64));
    }

    #[test]
    fn commits_invalidate_but_rolled_back_copy_does_not() {
        let c = small();
        seed(&c);
        let s = c.connect(SessionOpts::new("ada")).unwrap();
        let v0 = c.catalog_version();
        s.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(s.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        // A COPY that dies mid-load rolls back; the cache must survive.
        c.put_s3_object("in/rows.csv", b"9,q\n".to_vec());
        c.faults()
            .configure(fp::COPY_FETCH_OBJECT, FaultSpec::err(ErrClass::NotFound).once());
        assert!(s.execute("COPY t FROM 's3://in/'").is_err());
        assert_eq!(c.catalog_version(), v0, "rolled-back write must not bump");
        assert!(s.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        // A COPY against a missing prefix fails before the txn even opens.
        assert!(s.execute("COPY t FROM 's3://nowhere/'").is_err());
        assert!(s.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        // The same COPY, committed, invalidates: the re-run sees new rows.
        s.execute("COPY t FROM 's3://in/'").unwrap();
        assert!(c.catalog_version() > v0);
        let fresh = s.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(!fresh.result_cache_hit);
        assert_eq!(fresh.rows[0].get(0).as_i64(), Some(4));
    }

    #[test]
    fn cache_partitions_by_user_group_and_respects_opt_out() {
        let c = small();
        seed(&c);
        let s = c.connect(SessionOpts::new("ada").result_cache(false)).unwrap();
        s.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(!s.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        assert_eq!(c.result_cache_stats(), (0, 0), "opted-out sessions never probe");
        // SET enable_result_cache_for_session on → fills, then hits.
        s.set("enable_result_cache_for_session", "on").unwrap();
        s.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(s.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        // A session in a WLM group has a different cache key.
        let g = c.connect(SessionOpts::new("bob").user_group("etl_users")).unwrap();
        assert!(!g.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        assert!(g.query("SELECT COUNT(*) FROM t").unwrap().result_cache_hit);
        assert!(s.set("nonsense_setting", "on").is_err());
        assert!(s.set("compupdate", "sideways").is_err());
    }

    #[test]
    fn compupdate_session_default_applies_when_copy_omits_it() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR)").unwrap();
        c.put_s3_object("in/rows.csv", b"1,x\n2,y\n".to_vec());
        let s = c.connect(SessionOpts::new("etl").comp_update_default(false)).unwrap();
        s.execute("COPY t FROM 's3://in/'").unwrap();
        // COMPUPDATE off → no encoding-sample event was emitted.
        assert!(c.trace().records_named("copy.encoding_sample").is_empty());
        s.set("compupdate", "on").unwrap();
        s.execute("COPY t FROM 's3://in/'").unwrap();
        assert_eq!(c.trace().records_named("copy.encoding_sample").len(), 1);
        // An explicit COMPUPDATE OFF overrides the (now-on) default.
        s.execute("COPY t FROM 's3://in/' COMPUPDATE OFF").unwrap();
        assert_eq!(c.trace().records_named("copy.encoding_sample").len(), 1);
    }

    #[test]
    fn sessions_surface_in_system_tables_and_clean_up_on_drop() {
        let c = small();
        let s1 = c.connect(SessionOpts::new("ada").user_group("analyst")).unwrap();
        let s2 = c.connect(SessionOpts::new("bob")).unwrap();
        assert_eq!(c.trace().gauge_value("sessions.active"), 2);
        assert_eq!(s1.userid(), 100);
        assert_eq!(s2.userid(), 101);
        // The observing query itself runs on an implicit session, which is
        // live while stv_sessions materializes — filter it out by name.
        let stv = c
            .query("SELECT user_name, user_group, state FROM stv_sessions WHERE user_name <> 'default' ORDER BY session")
            .unwrap();
        assert_eq!(stv.rows.len(), 2);
        assert_eq!(stv.rows[0].get(0).as_str(), Some("ada"));
        assert_eq!(stv.rows[0].get(1).as_str(), Some("analyst"));
        assert_eq!(stv.rows[0].get(2).as_str(), Some("idle"));
        drop(s1);
        assert_eq!(c.trace().gauge_value("sessions.active"), 1);
        drop(s2);
        assert_eq!(c.trace().gauge_value("sessions.active"), 0);
        assert_eq!(c.session_manager().active_count(), 0);
        // Two connects + two disconnects; implicit sessions never log.
        let log = c
            .query("SELECT event, user_name FROM stl_connection_log ORDER BY at_us")
            .unwrap();
        assert_eq!(log.rows.len(), 4);
        assert_eq!(log.rows[0].get(0).as_str(), Some("initiating session"));
        assert_eq!(log.rows[3].get(0).as_str(), Some("disconnecting session"));
        // Userids are stable across reconnects of the same user.
        let s3 = c.connect(SessionOpts::new("ada")).unwrap();
        assert_eq!(s3.userid(), 100);
    }

    #[test]
    fn sessionless_query_routes_through_implicit_session() {
        let c = small();
        seed(&c);
        let r = c.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(!r.result_cache_hit, "implicit sessions never use the result cache");
        assert_eq!(c.session_manager().active_count(), 0, "implicit session unregistered");
        // A real session that opts out of the result cache leaves the
        // identical telemetry shape: a session id, the userid, and 'off'.
        let opts = SessionOpts::new("default").user_group("etl_users").result_cache(false);
        c.connect(opts).unwrap().query("SELECT COUNT(*) FROM t").unwrap();
        let stl = c
            .query("SELECT session, userid, result_cache FROM stl_query ORDER BY query")
            .unwrap();
        assert_eq!(stl.rows.len(), 2);
        for row in &stl.rows {
            assert!(row.get(0).as_i64().unwrap() > 0);
            assert_eq!(row.get(1).as_i64(), Some(100));
            assert_eq!(row.get(2).as_str(), Some("off"));
        }
    }

    #[test]
    fn sessionless_execute_select_is_logged_as_the_default_user() {
        let c = small();
        seed(&c);
        // alice connects first, so she holds the first userid.
        let alice = c.connect(SessionOpts::new("alice")).unwrap();
        c.execute("SELECT COUNT(*) FROM t").unwrap();
        c.query("SELECT COUNT(*) FROM t").unwrap();
        let stl = c.query("SELECT userid, session FROM stl_query ORDER BY query").unwrap();
        assert_eq!(stl.rows.len(), 2);
        let (execute, query) = (&stl.rows[0], &stl.rows[1]);
        assert_eq!(execute.get(0), query.get(0), "execute and query log one user");
        assert_ne!(execute.get(0).as_i64(), Some(alice.userid() as i64), "not alice's");
        assert!(execute.get(1).as_i64().unwrap() > 0, "an implicit session, not session 0");
    }

    #[test]
    fn plan_cache_does_not_survive_schema_change() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR)").unwrap();
        c.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
        let r1 = c.query("SELECT a FROM t").unwrap();
        assert_eq!(r1.rows[0].get(0).as_i64(), Some(1));
        // Same text, recompiled fresh each time the schema changes: drop
        // and re-create t with the column types swapped.
        c.execute("DROP TABLE t").unwrap();
        c.execute("CREATE TABLE t (a VARCHAR, b BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES ('y', 2)").unwrap();
        let (_, misses_before) = c.plan_cache_stats();
        let r2 = c.query("SELECT a FROM t").unwrap();
        assert!(!r2.cache_hit, "stale plan must not be reused across DDL");
        let (_, misses_after) = c.plan_cache_stats();
        assert_eq!(misses_after, misses_before + 1);
        assert_eq!(r2.rows[0].get(0).as_str(), Some("y"));
    }

    // ------------------------------------------------------------------
    // Multi-writer transactions + crash recovery
    // ------------------------------------------------------------------
}
