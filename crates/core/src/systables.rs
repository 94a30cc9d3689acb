//! Leader-side virtual system tables over the cluster's trace sink.
//!
//! Real Redshift surfaces operational telemetry as `STL_*` / `SVL_*`
//! system tables queryable with plain SQL ("Amazon Redshift logs
//! information about … queries in system tables"). This module does the
//! same over [`redsim_obs`]: the rows are materialized on demand from the
//! sink's completed `query` spans, then executed leader-locally through
//! the normal binder/optimizer/executor (one slice, no plan cache, no
//! self-recording).
//!
//! | table               | real analogue       | source                 |
//! |---------------------|---------------------|------------------------|
//! | `stl_query`         | `STL_QUERY`         | `query` span core attrs|
//! | `stl_explain`       | `STL_EXPLAIN`       | `plan` attr, one row/line |
//! | `svl_query_metrics` | `SVL_QUERY_METRICS` | `ExecMetrics` attrs    |
//! | `stl_wlm_query`     | `STL_WLM_QUERY`     | `wlm` span core attrs  |
//! | `stv_wlm_service_class_state` | `STV_WLM_SERVICE_CLASS_STATE` | live [`WlmController`] state, per-class books with `aborted` |
//! | `stl_fault_event`   | (simulator-only)    | [`FaultRegistry`] event ring |
//! | `stv_sessions`      | `STV_SESSIONS`      | live [`SessionManager`] state |
//! | `stl_connection_log`| `STL_CONNECTION_LOG`| [`SessionManager`] event ring |
//! | `svl_query_report`  | `SVL_QUERY_REPORT`  | `profile.step` spans (one row per query × slice × step) |
//! | `stl_wlm_rule_action` | `STL_WLM_RULE_ACTION` | `wlm_rule_action` spans (QMR firings) |
//! | `stl_tr_conflict`   | `STL_TR_CONFLICT`   | `tr_conflict` spans (serializable-isolation aborts) |
//! | `svv_table_info`    | `SVV_TABLE_INFO`    | published [`Catalog`] table state (row estimate vs statistics) |

use crate::catalog::Catalog;
use crate::session::SessionManager;
use crate::wlm::WlmController;
use redsim_common::{ColumnData, ColumnDef, DataType, FxHashMap, Result, RsError, Schema, Value};
use redsim_faultkit::FaultRegistry;
use redsim_distribution::DistStyle;
use redsim_engine::exec::{ScanSink, TableProvider};
use redsim_obs::{SpanRecord, TraceSink};
use redsim_storage::table::{ScanOutput, ScanPredicate, SortKeySpec};

/// The virtual tables the leader recognizes.
pub const SYSTEM_TABLES: [&str; 12] = [
    "stl_query",
    "stl_explain",
    "svl_query_metrics",
    "stl_wlm_query",
    "stv_wlm_service_class_state",
    "stl_fault_event",
    "stv_sessions",
    "stl_connection_log",
    "svl_query_report",
    "stl_wlm_rule_action",
    "stl_tr_conflict",
    "svv_table_info",
];

/// Is `name` a leader-side system table?
pub fn is_system_table(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    SYSTEM_TABLES.contains(&lower.as_str())
}

fn schema_of(table: &str) -> Schema {
    let cols = match table {
        "stl_query" => vec![
            ColumnDef::new("query", DataType::Int8),
            ColumnDef::new("querytxt", DataType::Varchar),
            ColumnDef::new("starttime_us", DataType::Int8),
            ColumnDef::new("duration_us", DataType::Int8),
            ColumnDef::new("rows", DataType::Int8),
            ColumnDef::new("compile_cache", DataType::Varchar),
            ColumnDef::new("userid", DataType::Int4),
            ColumnDef::new("session", DataType::Int8),
            ColumnDef::new("result_cache", DataType::Varchar),
        ],
        "stl_explain" => vec![
            ColumnDef::new("query", DataType::Int8),
            ColumnDef::new("step", DataType::Int8),
            ColumnDef::new("plannode", DataType::Varchar),
        ],
        "svl_query_metrics" => vec![
            ColumnDef::new("query", DataType::Int8),
            ColumnDef::new("rows_scanned", DataType::Int8),
            ColumnDef::new("blocks_read", DataType::Int8),
            ColumnDef::new("bytes_read", DataType::Int8),
            ColumnDef::new("bytes_broadcast", DataType::Int8),
            ColumnDef::new("bytes_redistributed", DataType::Int8),
            ColumnDef::new("groups_total", DataType::Int8),
            ColumnDef::new("groups_skipped", DataType::Int8),
            ColumnDef::new("compile_us", DataType::Int8),
            ColumnDef::new("exec_us", DataType::Int8),
            ColumnDef::new("queue_wait_us", DataType::Int8),
        ],
        "stl_wlm_query" => vec![
            ColumnDef::new("query", DataType::Int8),
            ColumnDef::new("service_class", DataType::Varchar),
            ColumnDef::new("state", DataType::Varchar),
            ColumnDef::new("queue_wait_us", DataType::Int8),
            ColumnDef::new("exec_us", DataType::Int8),
            ColumnDef::new("sqa", DataType::Bool),
            ColumnDef::new("hops", DataType::Int8),
        ],
        "stv_wlm_service_class_state" => vec![
            ColumnDef::new("service_class", DataType::Varchar),
            ColumnDef::new("slots", DataType::Int8),
            ColumnDef::new("in_flight", DataType::Int8),
            ColumnDef::new("queued", DataType::Int8),
            ColumnDef::new("executed", DataType::Int8),
            ColumnDef::new("evicted", DataType::Int8),
            ColumnDef::new("rejected", DataType::Int8),
            ColumnDef::new("hopped", DataType::Int8),
            ColumnDef::new("aborted", DataType::Int8),
            ColumnDef::new("avg_queue_wait_us", DataType::Int8),
        ],
        "stl_fault_event" => vec![
            ColumnDef::new("seq", DataType::Int8),
            ColumnDef::new("at_us", DataType::Int8),
            ColumnDef::new("failpoint", DataType::Varchar),
            ColumnDef::new("action", DataType::Varchar),
            ColumnDef::new("class", DataType::Varchar),
        ],
        "stv_sessions" => vec![
            ColumnDef::new("session", DataType::Int8),
            ColumnDef::new("userid", DataType::Int4),
            ColumnDef::new("user_name", DataType::Varchar),
            ColumnDef::new("user_group", DataType::Varchar),
            ColumnDef::new("state", DataType::Varchar),
            ColumnDef::new("statements", DataType::Int8),
            ColumnDef::new("cache_hits", DataType::Int8),
            ColumnDef::new("connected_at_us", DataType::Int8),
        ],
        "stl_connection_log" => vec![
            ColumnDef::new("event", DataType::Varchar),
            ColumnDef::new("session", DataType::Int8),
            ColumnDef::new("userid", DataType::Int4),
            ColumnDef::new("user_name", DataType::Varchar),
            ColumnDef::new("at_us", DataType::Int8),
            ColumnDef::new("duration_us", DataType::Int8),
        ],
        "svl_query_report" => vec![
            ColumnDef::new("query", DataType::Int8),
            ColumnDef::new("slice", DataType::Int8),
            ColumnDef::new("step", DataType::Int8),
            ColumnDef::new("label", DataType::Varchar),
            ColumnDef::new("rows", DataType::Int8),
            ColumnDef::new("bytes", DataType::Int8),
            ColumnDef::new("elapsed_us", DataType::Int8),
        ],
        "stl_wlm_rule_action" => vec![
            ColumnDef::new("query", DataType::Int8),
            ColumnDef::new("service_class", DataType::Varchar),
            ColumnDef::new("rule", DataType::Varchar),
            ColumnDef::new("metric", DataType::Varchar),
            ColumnDef::new("value", DataType::Int8),
            ColumnDef::new("threshold", DataType::Int8),
            ColumnDef::new("action", DataType::Varchar),
        ],
        "stl_tr_conflict" => vec![
            ColumnDef::new("xact_id", DataType::Int8),
            ColumnDef::new("table_name", DataType::Varchar),
            ColumnDef::new("abort_time_us", DataType::Int8),
        ],
        "svv_table_info" => vec![
            ColumnDef::new("table", DataType::Varchar),
            ColumnDef::new("diststyle", DataType::Varchar),
            ColumnDef::new("tbl_rows", DataType::Int8),
            ColumnDef::new("stats_off", DataType::Float8),
            ColumnDef::new("unsorted", DataType::Float8),
            ColumnDef::new("loads_since_analyze", DataType::Int8),
        ],
        _ => unreachable!("not a system table: {table}"),
    };
    Schema::new(cols).expect("system table schemas are well-formed")
}

fn u64_attr(r: &SpanRecord, key: &str) -> i64 {
    r.attr_u64(key).unwrap_or(0) as i64
}

/// Completed `query` spans, oldest first (by assigned query id).
fn query_spans(sink: &TraceSink) -> Vec<SpanRecord> {
    let mut spans = sink.records_named("query");
    spans.sort_by_key(|r| r.attr_u64("query").unwrap_or(0));
    spans
}

fn materialize(
    sink: &TraceSink,
    wlm: Option<&WlmController>,
    faults: Option<&FaultRegistry>,
    sessions: Option<&SessionManager>,
    catalog: Option<&Catalog>,
    table: &str,
) -> Vec<ColumnData> {
    let schema = schema_of(table);
    let mut cols: Vec<ColumnData> =
        schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
    let mut push = |vals: Vec<Value>| {
        for (c, v) in cols.iter_mut().zip(&vals) {
            c.push_value(v).expect("system rows match their schema");
        }
    };
    // WLM tables draw on different sources than the per-query spans: the
    // admission log (`wlm` spans, one per admission outcome) and the live
    // controller state respectively.
    match table {
        "stl_wlm_query" => {
            let mut spans = sink.records_named("wlm");
            spans.sort_by_key(|r| r.attr_u64("query").unwrap_or(0));
            for r in spans {
                push(vec![
                    Value::Int8(u64_attr(&r, "query")),
                    Value::Str(r.attr_str("service_class").unwrap_or("").to_string()),
                    Value::Str(r.attr_str("state").unwrap_or("").to_string()),
                    Value::Int8(u64_attr(&r, "queue_wait_us")),
                    Value::Int8(u64_attr(&r, "exec_us")),
                    Value::Bool(r.attr_bool("sqa").unwrap_or(false)),
                    Value::Int8(u64_attr(&r, "hops")),
                ]);
            }
            return cols;
        }
        "stv_wlm_service_class_state" => {
            for sc in wlm.map(|w| w.service_class_states()).unwrap_or_default() {
                push(vec![
                    Value::Str(sc.name),
                    Value::Int8(sc.slots as i64),
                    Value::Int8(sc.in_flight as i64),
                    Value::Int8(sc.queued as i64),
                    Value::Int8(sc.executed as i64),
                    Value::Int8(sc.evicted as i64),
                    Value::Int8(sc.rejected as i64),
                    Value::Int8(sc.hopped as i64),
                    Value::Int8(sc.aborted as i64),
                    Value::Int8(sc.avg_queue_wait_us as i64),
                ]);
            }
            return cols;
        }
        "stl_fault_event" => {
            // The registry's bounded event ring: one row per injected
            // fault (err/delay/drop), in injection order. Makes a chaos
            // run auditable with plain SQL.
            for ev in faults.map(FaultRegistry::events).unwrap_or_default() {
                push(vec![
                    Value::Int8(ev.seq as i64),
                    Value::Int8((ev.at_ns / 1_000) as i64),
                    Value::Str(ev.failpoint),
                    Value::Str(ev.action.to_string()),
                    Value::Str(ev.class.to_string()),
                ]);
            }
            return cols;
        }
        "stv_sessions" => {
            // Live state, not history: one row per open session,
            // implicit (sessionless-API) sessions included.
            for s in sessions.map(SessionManager::live).unwrap_or_default() {
                let state = match s.in_flight() {
                    Some(_) => "active",
                    None => "idle",
                };
                push(vec![
                    Value::Int8(s.id() as i64),
                    Value::Int4(s.userid() as i32),
                    Value::Str(s.user().to_string()),
                    s.user_group().map_or(Value::Null, |g| Value::Str(g.to_string())),
                    Value::Str(state.to_string()),
                    Value::Int8(s.statements() as i64),
                    Value::Int8(s.result_cache_hits() as i64),
                    Value::Int8(s.connected_at_us() as i64),
                ]);
            }
            return cols;
        }
        "stl_connection_log" => {
            for ev in sessions.map(SessionManager::conn_events).unwrap_or_default() {
                push(vec![
                    Value::Str(ev.event.to_string()),
                    Value::Int8(ev.session as i64),
                    Value::Int4(ev.userid as i32),
                    Value::Str(ev.user),
                    Value::Int8(ev.at_us as i64),
                    Value::Int8(ev.duration_us as i64),
                ]);
            }
            return cols;
        }
        "svl_query_report" => {
            // One row per query × slice × step, from the standalone
            // `profile.step` spans the leader emits after execution.
            let mut spans = sink.records_named("profile.step");
            spans.sort_by_key(|r| {
                (
                    r.attr_u64("query").unwrap_or(0),
                    r.attr_u64("slice").unwrap_or(0),
                    r.attr_u64("step").unwrap_or(0),
                )
            });
            for r in spans {
                push(vec![
                    Value::Int8(u64_attr(&r, "query")),
                    Value::Int8(u64_attr(&r, "slice")),
                    Value::Int8(u64_attr(&r, "step")),
                    Value::Str(r.attr_str("label").unwrap_or("").to_string()),
                    Value::Int8(u64_attr(&r, "rows")),
                    Value::Int8(u64_attr(&r, "bytes")),
                    Value::Int8((r.dur_ns / 1_000) as i64),
                ]);
            }
            return cols;
        }
        "stl_wlm_rule_action" => {
            let mut spans = sink.records_named("wlm_rule_action");
            spans.sort_by_key(|r| r.attr_u64("query").unwrap_or(0));
            for r in spans {
                push(vec![
                    Value::Int8(u64_attr(&r, "query")),
                    Value::Str(r.attr_str("service_class").unwrap_or("").to_string()),
                    Value::Str(r.attr_str("rule").unwrap_or("").to_string()),
                    Value::Str(r.attr_str("metric").unwrap_or("").to_string()),
                    Value::Int8(u64_attr(&r, "value")),
                    Value::Int8(u64_attr(&r, "threshold")),
                    Value::Str(r.attr_str("action").unwrap_or("").to_string()),
                ]);
            }
            return cols;
        }
        "stl_tr_conflict" => {
            // One row per first-committer-wins abort: the losing
            // transaction's id, the table it contended on, and when the
            // leader aborted it.
            let mut spans = sink.records_named("tr_conflict");
            spans.sort_by_key(|r| r.attr_u64("xact_id").unwrap_or(0));
            for r in spans {
                push(vec![
                    Value::Int8(u64_attr(&r, "xact_id")),
                    Value::Str(r.attr_str("table").unwrap_or("").to_string()),
                    Value::Int8((r.start_ns / 1_000) as i64),
                ]);
            }
            return cols;
        }
        "svv_table_info" => {
            // Is a table's statistics record current? `stats_off` is how
            // far its row count sits from the running estimate (every
            // load adds to the estimate; only STATUPDATE loads, INSERT
            // and ANALYZE reach the statistics), NULL if it has none.
            let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
            for (t, version) in catalog.into_iter().flat_map(Catalog::tables) {
                let rows = version.state.rows_estimate;
                let stats_rows = version.state.stats.as_ref().map(|s| s.rows);
                let (stored, unsorted) = version.stored_rows();
                let diststyle = match &t.dist_style {
                    DistStyle::Even => "EVEN".to_string(),
                    DistStyle::All => "ALL".to_string(),
                    DistStyle::Key(c) => format!("KEY({})", t.schema.column(*c).name),
                };
                push(vec![
                    Value::Str(t.name.clone()),
                    Value::Str(diststyle),
                    Value::Int8(rows as i64),
                    stats_rows.map_or(Value::Null, |s| Value::Float8(pct(rows.abs_diff(s), rows))),
                    match t.sort_key {
                        SortKeySpec::None => Value::Null, // nothing to be sorted by
                        _ => Value::Float8(pct(unsorted, stored)),
                    },
                    Value::Int8(version.state.loads_since_analyze as i64),
                ]);
            }
            return cols;
        }
        _ => {}
    }
    for r in query_spans(sink) {
        let qid = u64_attr(&r, "query");
        match table {
            "stl_query" => push(vec![
                Value::Int8(qid),
                Value::Str(r.attr_str("querytxt").unwrap_or("").to_string()),
                Value::Int8((r.start_ns / 1_000) as i64),
                Value::Int8((r.dur_ns / 1_000) as i64),
                Value::Int8(u64_attr(&r, "rows")),
                Value::Str(r.attr_str("compile_cache").unwrap_or("miss").to_string()),
                Value::Int4(u64_attr(&r, "userid") as i32),
                Value::Int8(u64_attr(&r, "session")),
                // "hit": served from the leader result cache (no
                // compile/exec spans); "miss": executed + cached;
                // "off": session opted out (or sessionless API).
                Value::Str(r.attr_str("result_cache").unwrap_or("off").to_string()),
            ]),
            "stl_explain" => {
                for (step, line) in r.attr_str("plan").unwrap_or("").lines().enumerate() {
                    push(vec![
                        Value::Int8(qid),
                        Value::Int8(step as i64 + 1),
                        Value::Str(line.to_string()),
                    ]);
                }
            }
            "svl_query_metrics" => push(vec![
                Value::Int8(qid),
                Value::Int8(u64_attr(&r, "rows_scanned")),
                Value::Int8(u64_attr(&r, "blocks_read")),
                Value::Int8(u64_attr(&r, "bytes_read")),
                Value::Int8(u64_attr(&r, "bytes_broadcast")),
                Value::Int8(u64_attr(&r, "bytes_redistributed")),
                Value::Int8(u64_attr(&r, "groups_total")),
                Value::Int8(u64_attr(&r, "groups_skipped")),
                Value::Int8(u64_attr(&r, "compile_ns") / 1_000),
                Value::Int8(u64_attr(&r, "exec_ns") / 1_000),
                Value::Int8(u64_attr(&r, "queue_wait_us")),
            ]),
            _ => unreachable!(),
        }
    }
    cols
}

/// A point-in-time materialization of the referenced system tables,
/// usable both as the planner's catalog and as the executor's storage
/// (single leader slice).
pub struct SystemTables {
    tables: FxHashMap<String, (Schema, Vec<ColumnData>)>,
}

impl SystemTables {
    /// Snapshot the sink's telemetry (and, when present, the live WLM
    /// controller and session-manager state) for the given table
    /// references. Unknown names are skipped (binding reports them as
    /// missing).
    pub fn capture(
        sink: &TraceSink,
        wlm: Option<&WlmController>,
        faults: Option<&FaultRegistry>,
        sessions: Option<&SessionManager>,
        catalog: Option<&Catalog>,
        referenced: &[&str],
    ) -> SystemTables {
        let mut tables = FxHashMap::default();
        for name in referenced {
            let lower = name.to_ascii_lowercase();
            if is_system_table(&lower) && !tables.contains_key(&lower) {
                let schema = schema_of(&lower);
                let cols = materialize(sink, wlm, faults, sessions, catalog, &lower);
                tables.insert(lower, (schema, cols));
            }
        }
        SystemTables { tables }
    }
}

impl redsim_sql::CatalogView for SystemTables {
    fn table(&self, name: &str) -> Option<redsim_sql::TableMeta> {
        let lower = name.to_ascii_lowercase();
        self.tables.get(&lower).map(|(schema, cols)| redsim_sql::TableMeta {
            name: lower.clone(),
            schema: schema.clone(),
            dist_style: DistStyle::Even,
            sort_key: SortKeySpec::None,
            rows: cols.first().map_or(0, |c| c.len()) as u64,
        })
    }

    fn total_slices(&self) -> u32 {
        1 // leader-local: never dispatched to compute slices
    }
}

impl TableProvider for SystemTables {
    fn num_slices(&self) -> usize {
        1
    }

    fn scan_slice(
        &self,
        table: &str,
        _slice: usize,
        projection: &[usize],
        _pred: &ScanPredicate,
        sink: &mut ScanSink,
    ) -> Result<ScanOutput> {
        let (_, cols) = self
            .tables
            .get(&table.to_ascii_lowercase())
            .ok_or_else(|| RsError::NotFound(format!("system table {table:?}")))?;
        let n = cols.first().map_or(0, |c| c.len());
        if n == 0 {
            return Ok(ScanOutput::default());
        }
        sink(projection.iter().map(|&i| cols[i].clone()).collect())?;
        // Virtual: no blocks behind these rows.
        Ok(ScanOutput { groups_total: 1, ..ScanOutput::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Every batch a system table's scan hands on.
    fn scan(sys: &SystemTables, table: &str, projection: &[usize]) -> Result<Vec<Vec<ColumnData>>> {
        let mut batches = Vec::new();
        sys.scan_slice(table, 0, projection, &ScanPredicate::default(), &mut |b| {
            batches.push(b);
            Ok(())
        })?;
        Ok(batches)
    }

    fn sink_with_queries(n: u64) -> Arc<TraceSink> {
        let sink = Arc::new(TraceSink::new());
        for i in 1..=n {
            let mut s = sink.span("query");
            s.attr("query", i);
            s.attr("querytxt", format!("SELECT {i}"));
            s.attr("rows", 3u64);
            s.attr("compile_cache", if i == 1 { "miss" } else { "hit" });
            s.attr("plan", "Limit\n  Seq Scan");
            s.attr("rows_scanned", 10u64 * i);
            s.finish();
        }
        sink
    }

    #[test]
    fn system_table_names() {
        assert!(is_system_table("stl_query"));
        assert!(is_system_table("STL_EXPLAIN"));
        assert!(is_system_table("svl_query_metrics"));
        assert!(is_system_table("stl_wlm_query"));
        assert!(is_system_table("STV_WLM_SERVICE_CLASS_STATE"));
        assert!(is_system_table("stl_fault_event"));
        assert!(is_system_table("stv_sessions"));
        assert!(is_system_table("STL_CONNECTION_LOG"));
        assert!(is_system_table("svl_query_report"));
        assert!(is_system_table("STL_WLM_RULE_ACTION"));
        assert!(is_system_table("stl_tr_conflict"));
        assert!(is_system_table("SVV_TABLE_INFO"));
        assert!(!is_system_table("users"));
    }

    #[test]
    fn stl_fault_event_materializes_the_registry_ring() {
        use redsim_faultkit::{fp, ErrClass, FaultRegistry, FaultSpec, Outcome};
        let sink = Arc::new(TraceSink::new());
        let reg = FaultRegistry::new(3);
        reg.configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle).times(2));
        for _ in 0..3 {
            let _ = reg.fire(fp::S3_GET);
        }
        assert!(matches!(reg.fire(fp::S3_GET), Outcome::Proceed));
        let sys = SystemTables::capture(&sink, None, Some(&reg), None, None, &["stl_fault_event"]);
        let out = scan(&sys, "stl_fault_event", &[0, 2, 3, 4]).unwrap();
        let b = &out[0];
        assert_eq!(b[0].len(), 2, "one row per injected fault");
        assert_eq!(b[1].get(0).as_str(), Some("s3.get"));
        assert_eq!(b[2].get(0).as_str(), Some("err"));
        assert_eq!(b[3].get(0).as_str(), Some("throttle"));
        // Without a registry the table is empty but bindable.
        let sys2 = SystemTables::capture(&sink, None, None, None, None, &["stl_fault_event"]);
        let empty = scan(&sys2, "stl_fault_event", &[0]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn wlm_tables_materialize_from_controller_and_spans() {
        use crate::wlm::{WlmConfig, WlmQueueDef};
        let sink = Arc::new(TraceSink::new());
        let cfg = WlmConfig::with_queues(vec![WlmQueueDef::new("q1", 2)]).sqa(10, 1);
        let ctl = Arc::new(WlmController::new(&cfg, Arc::clone(&sink)));
        let g_short = ctl.admit(5, None).unwrap(); // SQA lane
        let g_long = ctl.admit(1_000, None).unwrap(); // q1
        drop(g_short);
        drop(g_long);
        let sys = SystemTables::capture(
            &sink,
            Some(&ctl),
            None,
            None,
            None,
            &["stl_wlm_query", "stv_wlm_service_class_state"],
        );
        let wq = scan(&sys, "stl_wlm_query", &[0, 1, 2, 5]).unwrap();
        assert_eq!(wq[0][0].len(), 2, "one row per admission");
        let classes: Vec<_> =
            (0..2).filter_map(|i| wq[0][1].get(i).as_str().map(str::to_string)).collect();
        assert!(classes.contains(&"sqa".to_string()) && classes.contains(&"q1".to_string()));
        let sc = scan(&sys, "stv_wlm_service_class_state", &[0, 4]).unwrap();
        assert_eq!(sc[0][0].len(), 2, "q1 + sqa lane rows");
        // Without a controller the STV table is empty but bindable.
        let sys2 = SystemTables::capture(&sink, None, None, None, None, &["stv_wlm_service_class_state"]);
        let empty = scan(&sys2, "stv_wlm_service_class_state", &[0]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn an_aborted_query_counts_in_its_class_through_sql() {
        use crate::wlm::{QmrAction, QmrMetric, WlmConfig, WlmQueueDef};
        use crate::{Cluster, ClusterConfig};
        let wlm = WlmConfig::with_queues(vec![
            WlmQueueDef::new("watched", 2).rule("kill_big", QmrMetric::RowsScanned, 100, QmrAction::Abort)
        ]);
        let c = Cluster::launch(ClusterConfig::new("aborted").nodes(1).slices_per_node(2).wlm(wlm)).unwrap();
        c.execute("CREATE TABLE big (k BIGINT)").unwrap();
        let values = (0..300).map(|i| format!("({i})")).collect::<Vec<_>>().join(", ");
        c.execute(&format!("INSERT INTO big VALUES {values}")).unwrap();
        let err = c.query("SELECT COUNT(*) FROM big").unwrap_err();
        assert!(err.to_string().contains("aborted by monitoring rule 'kill_big'"), "{err}");
        let r = c
            .query("SELECT aborted FROM stv_wlm_service_class_state WHERE service_class = 'watched'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0).as_i64(), Some(1), "the aborted query is in its class's books");
    }

    #[test]
    fn session_tables_materialize_from_manager() {
        let sink = Arc::new(TraceSink::new());
        let mgr = crate::session::SessionManager::new(Arc::clone(&sink));
        let a = mgr.register("ada", Some("analyst"), false);
        let implicit = mgr.register("default", None, true);
        mgr.unregister(&implicit);
        let sys = SystemTables::capture(
            &sink,
            None,
            None,
            Some(&mgr),
            None,
            &["stv_sessions", "stl_connection_log"],
        );
        let s = scan(&sys, "stv_sessions", &[0, 2, 3, 4]).unwrap();
        assert_eq!(s[0][0].len(), 1, "only the live session");
        assert_eq!(s[0][1].get(0).as_str(), Some("ada"));
        assert_eq!(s[0][2].get(0).as_str(), Some("analyst"));
        assert_eq!(s[0][3].get(0).as_str(), Some("idle"));
        let l = scan(&sys, "stl_connection_log", &[0, 3]).unwrap();
        assert_eq!(l[0][0].len(), 1, "implicit sessions skip the log");
        assert_eq!(l[0][0].get(0).as_str(), Some("initiating session"));
        mgr.unregister(&a);
        assert_eq!(sink.gauge_value("sessions.active"), 0);
    }

    #[test]
    fn stl_query_materializes_one_row_per_span() {
        let sink = sink_with_queries(3);
        let sys = SystemTables::capture(&sink, None, None, None, None, &["stl_query"]);
        let out = scan(&sys, "stl_query", &[0, 5]).unwrap();
        assert_eq!(out.len(), 1);
        let ids = &out[0][0];
        assert_eq!(ids.len(), 3);
        assert_eq!(ids.get(0).as_i64(), Some(1));
        assert_eq!(out[0][1].get(0).as_str(), Some("miss"));
        assert_eq!(out[0][1].get(2).as_str(), Some("hit"));
    }

    #[test]
    fn stl_explain_splits_plan_lines() {
        let sink = sink_with_queries(1);
        let sys = SystemTables::capture(&sink, None, None, None, None, &["stl_explain"]);
        let out = scan(&sys, "stl_explain", &[0, 1, 2]).unwrap();
        let steps = &out[0][1];
        assert_eq!(steps.len(), 2, "two plan lines → two rows");
        assert_eq!(out[0][2].get(1).as_str(), Some("  Seq Scan"));
    }

    #[test]
    fn svl_query_report_materializes_profile_steps() {
        use redsim_obs::AttrValue;
        let sink = Arc::new(TraceSink::new());
        // Backdated spans are clipped to the sink's epoch; make sure the
        // sink is old enough to hold a 5µs span.
        while sink.now_ns() < 5_000 {
            std::hint::spin_loop();
        }
        for slice in 0..2u64 {
            for step in 1..=2u64 {
                sink.span_completed(
                    "profile.step",
                    5_000,
                    &[
                        ("query", AttrValue::I64(1)),
                        ("step", AttrValue::U64(step)),
                        ("slice", AttrValue::U64(slice)),
                        ("label", AttrValue::Str("Seq Scan on t".into())),
                        ("rows", AttrValue::U64(10 * step)),
                        ("bytes", AttrValue::U64(80)),
                    ],
                );
            }
        }
        let sys = SystemTables::capture(&sink, None, None, None, None, &["svl_query_report"]);
        let out = scan(&sys, "svl_query_report", &[0, 1, 2, 3, 6]).unwrap();
        let b = &out[0];
        assert_eq!(b[0].len(), 4, "one row per query × slice × step");
        assert_eq!(b[1].get(0).as_i64(), Some(0), "sorted by (query, slice, step)");
        assert_eq!(b[2].get(1).as_i64(), Some(2));
        assert_eq!(b[3].get(0).as_str(), Some("Seq Scan on t"));
        assert_eq!(b[4].get(0).as_i64(), Some(5), "dur_ns → elapsed_us");
    }

    #[test]
    fn empty_sink_yields_empty_tables() {
        let sink = Arc::new(TraceSink::new());
        let sys = SystemTables::capture(&sink, None, None, None, None, &["svl_query_metrics"]);
        let out = scan(&sys, "svl_query_metrics", &[0]).unwrap();
        assert!(out.is_empty());
    }
}
