//! The per-layer ledger of the traced run, timed from outside: spans
//! around calls into each crate's public functions, counts read from
//! accessors that already exist, and a replay of every eighth SELECT
//! through the layered entry points. No span or counter is added inside
//! the program.

use crate::data::{
    etl_body, stage_ddl, Fact, ADHOC_FAMILIES, CUSTOMER_DDL, ETL_BODY_ROWS, EVENTS_DDL, FACT_DDL,
    PART_DDL, STAR_FAMILIES, SUPPLIER_DDL,
};
use crate::runner::CONNECTIONS;
use crate::trace::{fold_by_name, Span, Tracer};
use crate::util::{mean, median, percentile, sorted};
use crate::workloads::{Inputs, Op, Workload};
use redshift_sim::common::{ColumnData, ColumnDef, DataType, Schema, Value};
use redshift_sim::core::{Cluster, Session, SessionOpts};
use redshift_sim::distribution::{ClusterTopology, DistStyle, NodeId, RowRouter};
use redshift_sim::engine::{compile, expr};
use redshift_sim::faultkit::FaultRegistry;
use redshift_sim::frontdoor::{wire, FrontDoor, Response, WireClient, WireRows};
use redshift_sim::replication::{ReplicatedStore, S3Sim};
use redshift_sim::sql::ast::{DistStyleSpec, SortKeyAst};
use redshift_sim::sql::catalog::StaticCatalog;
use redshift_sim::sql::{self, optimizer, Binder, BoundExpr, LogicalPlan, Statement, TableMeta};
use redshift_sim::storage::{
    analyze_compression, decode_column, encode_column, BlockStore, EncodedBlock, SortKeySpec, Wal,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Window deltas of counters the program already keeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub rc_hits: u64,
    pub rc_misses: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub wlm_admitted: u64,
    pub wlm_sqa: u64,
    pub txn_conflicts: u64,
}

impl Counters {
    pub fn read(c: &Cluster) -> Counters {
        let (rc_hits, rc_misses) = c.result_cache_stats();
        let (plan_hits, plan_misses) = c.plan_cache_stats();
        let wlm = c.wlm_accounting();
        Counters {
            rc_hits,
            rc_misses,
            plan_hits,
            plan_misses,
            wlm_admitted: wlm.admitted,
            wlm_sqa: wlm.sqa_admits,
            txn_conflicts: c.trace().counter_value("txn.conflicts"),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            rc_hits: self.rc_hits - earlier.rc_hits,
            rc_misses: self.rc_misses - earlier.rc_misses,
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
            wlm_admitted: self.wlm_admitted - earlier.wlm_admitted,
            wlm_sqa: self.wlm_sqa - earlier.wlm_sqa,
            txn_conflicts: self.txn_conflicts - earlier.txn_conflicts,
        }
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A `TableMeta` from the same DDL text the cluster was given, mapped
/// the way `CREATE TABLE` maps it.
fn table_meta(ddl: &str, rows: u64) -> Result<TableMeta, String> {
    let Statement::CreateTable(ct) = sql::parse(ddl).map_err(|e| e.to_string())? else {
        return Err(format!("not a CREATE TABLE: {ddl}"));
    };
    let schema = Schema::new(
        ct.columns
            .iter()
            .map(|c| ColumnDef::new(c.name.clone(), c.data_type))
            .collect(),
    )
    .map_err(|e| e.to_string())?;
    let col = |name: &String| {
        schema
            .index_of(name)
            .ok_or_else(|| format!("unknown column {name}"))
    };
    let cols = |names: &[String]| {
        names
            .iter()
            .map(col)
            .collect::<Result<Vec<usize>, String>>()
    };
    Ok(TableMeta {
        name: ct.name.clone(),
        dist_style: match &ct.dist_style {
            DistStyleSpec::Auto | DistStyleSpec::Even => DistStyle::Even,
            DistStyleSpec::All => DistStyle::All,
            DistStyleSpec::Key(c) => DistStyle::Key(col(c)?),
        },
        sort_key: match &ct.sort_key {
            SortKeyAst::None => SortKeySpec::None,
            SortKeyAst::Compound(c) => SortKeySpec::Compound(cols(c)?),
            SortKeyAst::Interleaved(c) => SortKeySpec::Interleaved(cols(c)?),
        },
        schema,
        rows,
    })
}

/// A `StaticCatalog` mirroring the workload's schema, so `sql::parse`,
/// bind and optimize can be timed without the cluster's locks.
pub fn mirror_catalog(cluster: &Cluster, inputs: &Inputs) -> Result<StaticCatalog, String> {
    let ddl: Vec<String> = match inputs {
        Inputs::Dash { .. } => vec![EVENTS_DDL.into()],
        Inputs::Adhoc { .. } => vec![FACT_DDL.into()],
        Inputs::Star { .. } => [FACT_DDL, CUSTOMER_DDL, PART_DDL, SUPPLIER_DDL]
            .map(String::from)
            .into(),
        Inputs::Etl { .. } => (0..CONNECTIONS)
            .map(|c| stage_ddl(&format!("stage_c{c}")))
            .collect(),
    };
    let tables = ddl
        .iter()
        .map(|d| {
            let mut t = table_meta(d, 0)?;
            t.rows = cluster.rows_estimate(&t.name).unwrap_or(0);
            Ok(t)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(StaticCatalog {
        tables,
        slices: cluster.config().total_slices(),
    })
}

/// One SELECT run twice: over the wire (the real statement) and then
/// in-process through the layered entry points.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub family: &'static str,
    pub wire_ns: u64,
    pub session_ns: u64,
    pub parse_ns: u64,
    pub plan_ns: u64,
    pub queue_ns: u64,
    pub compile_ns: u64,
    pub exec_ns: u64,
    pub rows_scanned: u64,
    pub rows_returned: u64,
    pub blocks_read: u64,
    pub bytes_read: u64,
    pub groups_total: u64,
    pub groups_skipped: u64,
    pub exchange_bytes: u64,
    pub rc_hit: bool,
    pub plan_hit: bool,
    /// The in-process run met the caches in the state the wire run did;
    /// only then do the two belong in one ledger row.
    pub matched: bool,
}

pub struct ReplayCtx<'a> {
    catalog: &'a StaticCatalog,
    /// Sessions in the workload's user group (the result cache is
    /// partitioned by it), with the result cache on and off.
    cache_on: Session,
    cache_off: Session,
}

impl<'a> ReplayCtx<'a> {
    pub fn new(cluster: &Arc<Cluster>, catalog: &'a StaticCatalog, w: Workload) -> ReplayCtx<'a> {
        let session = |cache: bool| {
            let mut opts = SessionOpts::new("replay").result_cache(cache);
            if let Some(g) = w.user_group() {
                opts = opts.user_group(g);
            }
            cluster
                .connect(opts)
                .expect("a launched cluster accepts sessions")
        };
        ReplayCtx {
            catalog,
            cache_on: session(true),
            cache_off: session(false),
        }
    }

    /// The wire run came first and reported which caches it hit. The
    /// in-process run is steered into the same state: the cache-on
    /// session after a result-cache hit, the cache-off one after a miss;
    /// the twin text (same work, different literal) where the original
    /// text would now hit a plan it had to compile the first time.
    pub fn replay(
        &self,
        t: &mut Tracer,
        parent: Option<u32>,
        stmt_id: u64,
        op: &Op,
        wire_rows: &WireRows,
        wire_ns: u64,
    ) -> Replay {
        let text = op.twin.as_deref().unwrap_or(&op.sql);
        let replay = t.open("replay", parent, stmt_id);
        let root = Some(replay);
        // The session goes first, meeting the text as cold as the wire
        // run met it. The layer calls that follow see it warm, so what
        // they report is a floor and the ledger's remainder row,
        // `core.leader_other_us`, is not pushed below zero by them.
        let session = if wire_rows.result_cache_hit {
            &self.cache_on
        } else {
            &self.cache_off
        };
        let (result, session_ns) =
            t.time("core.session_query", root, stmt_id, || session.query(text));
        let (stmt, parse_ns) = t.time("sql.parse", root, stmt_id, || sql::parse(text));
        let mut plan_ns = 0;
        if let Ok(Statement::Select(sel)) = &stmt {
            let (plan, ns) = t.time("sql.plan", root, stmt_id, || {
                Binder::new(self.catalog)
                    .bind_select(sel)
                    .map(|b| optimizer::optimize(b, self.catalog))
            });
            plan_ns = ns;
            if let Ok(plan) = plan {
                t.time("engine.compile", root, stmt_id, || {
                    black_box(compile::compile(plan, 0))
                });
            }
        }
        t.close(replay);
        let mut r = Replay {
            family: op.family,
            wire_ns,
            session_ns,
            parse_ns,
            plan_ns,
            rc_hit: wire_rows.result_cache_hit,
            plan_hit: wire_rows.cache_hit,
            ..Replay::default()
        };
        if let Ok(q) = result {
            let m = &q.metrics;
            r.queue_ns = m.queue_wait_ns;
            r.compile_ns = m.compile_ns;
            r.exec_ns = m.exec_ns;
            r.rows_scanned = m.rows_scanned;
            r.rows_returned = q.rows.len() as u64;
            r.blocks_read = m.blocks_read as u64;
            r.bytes_read = m.bytes_read;
            r.groups_total = m.groups_total as u64;
            r.groups_skipped = m.groups_skipped as u64;
            r.exchange_bytes = m.exchange_bytes();
            r.matched = q.result_cache_hit == r.rc_hit && q.cache_hit == r.plan_hit;
            // The session parsed and planned within `session_ns`, beside
            // what it reports itself. An outside timing that does not fit
            // there was preempted (two cores, busy slice threads): it is
            // cut to fit, so the remainder row cannot go below zero.
            let inside = if q.result_cache_hit {
                0
            } else {
                r.queue_ns + r.compile_ns + r.exec_ns
            };
            let room = session_ns.saturating_sub(inside);
            r.parse_ns = r.parse_ns.min(room);
            r.plan_ns = r.plan_ns.min(room - r.parse_ns);
        }
        r
    }
}

/// Stand-alone timings of single layers, the same on every workload.
#[derive(Debug, Default)]
pub struct Probes {
    values: Vec<(&'static str, f64, usize)>,
    /// The COPY probe's body, which the harness put into the cluster's S3.
    pub staged_bytes: u64,
}

/// Median µs (or ns, with `scale`) of `reps` timed calls, each a span.
fn timed(t: &mut Tracer, name: &'static str, reps: usize, scale: f64, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| t.time(name, None, 0, &mut f).1 as f64 * scale)
        .collect();
    median(&sorted(xs)).unwrap_or(0.0)
}

const US: f64 = 1e-3;

fn fact_batch(f: &Fact) -> Vec<ColumnData> {
    let types = [
        DataType::Int8,
        DataType::Int8,
        DataType::Int8,
        DataType::Int8,
        DataType::Int8,
        DataType::Float8,
        DataType::Varchar,
    ];
    let mut cols: Vec<ColumnData> = types.iter().map(|t| ColumnData::new(*t)).collect();
    for r in 0..f.len() {
        let row = [
            Value::Int8(f.d[r] as i64),
            Value::Int8(f.cust[r] as i64),
            Value::Int8(f.pid[r] as i64),
            Value::Int8(f.sid[r] as i64),
            Value::Int8(f.qty[r] as i64),
            Value::Float8(f.price(r)),
            Value::Str(f.note(r)),
        ];
        for (c, v) in cols.iter_mut().zip(&row) {
            c.push_value(v).expect("value matches the column's type");
        }
    }
    cols
}

/// The scan's residual filter and the table columns it reads.
fn scan_filter(plan: &LogicalPlan) -> Option<(&BoundExpr, &[usize])> {
    match plan {
        LogicalPlan::Scan {
            filter, projection, ..
        } => filter.as_ref().map(|f| (f, projection.as_slice())),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => scan_filter(input),
        LogicalPlan::Join { left, .. } => scan_filter(left),
    }
}

fn filter_ns_per_row(
    t: &mut Tracer,
    name: &'static str,
    cat: &StaticCatalog,
    batch: &[ColumnData],
    predicate: &str,
    interp: bool,
) -> Result<f64, String> {
    let plan = sql::plan_query(&format!("SELECT COUNT(*) FROM fact WHERE {predicate}"), cat)
        .map_err(|e| e.to_string())?;
    let (filter, projection) =
        scan_filter(&plan).ok_or("the predicate was not pushed into the scan")?;
    let cols: Vec<ColumnData> = projection.iter().map(|&c| batch[c].clone()).collect();
    let rows = cols[0].len();
    let ns = timed(t, name, 9, 1.0, || {
        let sel = if interp {
            expr::eval_predicate_interp(filter, &cols, rows)
        } else {
            expr::eval_predicate(filter, &cols, rows)
        };
        black_box(sel.expect("the workload's predicate evaluates"));
    });
    Ok(ns / rows as f64)
}

#[allow(clippy::too_many_arguments)]
pub fn probes(
    cluster: &Arc<Cluster>,
    door: &FrontDoor,
    catalog: &StaticCatalog,
    inputs: &Inputs,
    seed: u64,
    biggest: Option<WireRows>,
    t: &mut Tracer,
) -> Result<Probes, String> {
    let e = |e: redshift_sim::common::RsError| e.to_string();
    let mut p = Probes::default();
    let mut put = |name: &'static str, v: f64, n: usize| p.values.push((name, v, n));

    // frontdoor: connect + Hello, ping, and the Rows frame codec on the
    // largest reply the window saw.
    let mut clients = Vec::new();
    let connect = timed(t, "frontdoor.connect", 3, US, || {
        clients.push(WireClient::connect(door.addr(), "probe", None).expect("the door is open"));
    });
    put("frontdoor.connect_us", connect, 3);
    let mut w = clients.pop().expect("three connected");
    put(
        "frontdoor.ping_rtt_us",
        timed(t, "frontdoor.ping", 11, US, || w.ping().expect("pong")),
        11,
    );
    for c in clients.drain(..).chain([w]) {
        c.bye().map_err(e)?;
    }
    if let Some(rows) = biggest.filter(|r| !r.rows.is_empty()) {
        let krows = rows.rows.len() as f64 / 1e3;
        let frame = Response::Rows(rows);
        let mut bytes = Vec::new();
        let enc = timed(t, "frontdoor.encode_rows", 9, US, || {
            bytes = wire::encode_response(&frame)
        });
        let dec = timed(t, "frontdoor.decode_rows", 9, US, || {
            black_box(wire::decode_response(&bytes).expect("our own frame decodes"));
        });
        put("frontdoor.encode_rows_us_per_krow", enc / krows, 9);
        put("frontdoor.decode_rows_us_per_krow", dec / krows, 9);
    }

    // core: a hot result-cache key, an uncontended WLM admission, COPY
    // and DDL in-process.
    let hot = match inputs {
        Inputs::Dash { .. } => "SELECT COUNT(*) FROM events",
        Inputs::Adhoc { .. } | Inputs::Star { .. } => "SELECT COUNT(*) FROM fact WHERE d < 0",
        Inputs::Etl { .. } => "SELECT COUNT(*) FROM probe_copy",
    };
    let body = etl_body(seed, 0);
    let body_bytes = body.csv.len() as u64;
    cluster.put_s3_object("probe/b0/x", body.csv);
    let ddl = timed(t, "core.ddl", 3, US, || {
        cluster
            .execute(&stage_ddl("probe_ddl"))
            .expect("CREATE TABLE");
        cluster.execute("DROP TABLE probe_ddl").expect("DROP TABLE");
    });
    put("core.ddl_us", ddl / 2.0, 3);
    cluster.execute(&stage_ddl("probe_copy")).map_err(e)?;
    let copy = timed(t, "core.copy", 3, US, || {
        cluster
            .execute("COPY probe_copy FROM 's3://probe/b0/'")
            .expect("COPY");
    });
    put(
        "core.copy_us_per_krow",
        copy / (ETL_BODY_ROWS as f64 / 1e3),
        3,
    );
    let session = cluster.connect(SessionOpts::new("probe")).map_err(e)?;
    session.query(hot).map_err(e)?;
    let hit = timed(t, "core.result_cache_hit", 1_001, US, || {
        black_box(session.query(hot).expect("hot key"));
    });
    put("core.result_cache_hit_us", hit, 1_001);
    let admit = timed(t, "core.wlm_admit", 1_001, US, || {
        drop(black_box(
            cluster
                .wlm()
                .admit(1, None)
                .expect("an idle cluster admits"),
        ));
    });
    put("core.wlm_admit_us", admit, 1_001);
    drop(session);
    cluster.execute("DROP TABLE probe_copy").map_err(e)?;

    // engine and storage over a batch of generated `fact` rows, with the
    // workload's own predicates and the encodings the analyzer picks.
    let fact = Fact::generate(seed, 65_536);
    let batch = fact_batch(&fact);
    let fact_cat = StaticCatalog {
        tables: vec![table_meta(FACT_DDL, fact.len() as u64)?],
        slices: catalog.slices,
    };
    let kernel = filter_ns_per_row(
        t,
        "engine.kernel_filter",
        &fact_cat,
        &batch,
        "qty < 50 AND price < 500.0000001",
        false,
    )?;
    let interp = filter_ns_per_row(
        t,
        "engine.interp_filter",
        &fact_cat,
        &batch,
        "qty + 0 < 50 AND price < 500.0000001",
        true,
    )?;
    put("engine.kernel_filter_ns_per_row", kernel, 9);
    put("engine.interp_filter_ns_per_row", interp, 9);
    let values = (batch.len() * fact.len()) as f64;
    let mut encoded = Vec::new();
    let enc = timed(t, "storage.encode", 5, 1.0, || {
        encoded = batch
            .iter()
            .map(|c| {
                encode_column(c, analyze_compression(c, c.len()))
                    .expect("the chosen encoding applies")
            })
            .collect();
    });
    let dec = timed(t, "storage.decode", 5, 1.0, || {
        for (bytes, c) in encoded.iter().zip(&batch) {
            black_box(decode_column(bytes, Some(c.data_type())).expect("our own block decodes"));
        }
    });
    put("storage.encode_ns_per_value", enc / values, 5);
    put("storage.decode_ns_per_value", dec / values, 5);

    // storage::wal: append + sync + commit of a COPY-sized redo record.
    let wal = Wal::new(Arc::new(FaultRegistry::default()));
    let payload = vec![0xA5u8; 4 << 10];
    let mut txn = 0;
    let commit = timed(t, "storage.wal_commit", 201, US, || {
        txn += 1;
        wal.append_delta(txn, &payload)
            .and_then(|()| wal.sync())
            .and_then(|()| wal.commit(txn))
            .expect("no faults armed");
    });
    put("storage.wal_commit_us", commit, 201);

    // replication: dual-write through a node store; S3 put and get.
    let s3 = Arc::new(S3Sim::new());
    let store = ReplicatedStore::new(2, 2, Arc::clone(&s3), "us-east-1", "probe").map_err(e)?;
    let node = store.node_store(NodeId(0));
    let block = vec![0x5Au8; 64 << 10];
    let mirror = timed(t, "replication.mirror_put", 101, US, || {
        node.put(EncodedBlock::new(1_000, block.clone()))
            .expect("both replicas are up");
    });
    put("replication.mirror_put_us", mirror, 101);
    let mut n = 0;
    let s3_put = timed(t, "replication.s3_put", 101, US, || {
        n += 1;
        s3.put_checked("us-east-1", &format!("probe/{n}"), block.clone())
            .expect("no faults armed");
    });
    let s3_get = timed(t, "replication.s3_get", 101, US, || {
        black_box(s3.get("us-east-1", "probe/1").expect("just put"));
    });
    put("replication.s3_put_us", s3_put, 101);
    put("replication.s3_get_us", s3_get, 101);

    // distribution: route a 10k-row batch under each style.
    let topology = ClusterTopology::new(2, 2).map_err(e)?;
    let rows = 10_000;
    let slice: Vec<ColumnData> = batch.iter().map(|c| c.slice(0, rows)).collect();
    let route: Vec<f64> = [DistStyle::Key(1), DistStyle::Even, DistStyle::All]
        .into_iter()
        .map(|style| {
            let mut router = RowRouter::new(style, &topology);
            timed(t, "distribution.route", 9, 1.0, || {
                black_box(router.route(&slice).expect("the key column exists"));
            }) / rows as f64
        })
        .collect();
    put("distribution.route_ns_per_row", mean(&route), 9);

    p.staged_bytes = body_bytes;
    Ok(p)
}

/// Fold the replays, the window's counters and the probes into named
/// per-layer values, and print the ledger table.
pub fn fold(
    replays: &[Replay],
    counters: &Counters,
    probes: &Probes,
    m: &mut BTreeMap<String, (f64, usize)>,
    notes: &mut Vec<String>,
    w: Workload,
) {
    for &(name, v, n) in &probes.values {
        m.insert(name.to_string(), (v, n));
    }
    let us = |ns: f64| ns / 1e3;
    let misses: Vec<&Replay> = replays.iter().filter(|r| !r.rc_hit).collect();
    let col = |rs: &[&Replay], f: fn(&Replay) -> u64| -> Vec<f64> {
        rs.iter().map(|r| f(r) as f64).collect()
    };
    let total = |rs: &[&Replay], f: fn(&Replay) -> u64| -> f64 {
        rs.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    let all: Vec<&Replay> = replays.iter().collect();

    m.insert(
        "sql.parse_us".into(),
        (us(mean(&col(&all, |r| r.parse_ns))), all.len()),
    );
    m.insert(
        "sql.plan_us".into(),
        (us(mean(&col(&misses, |r| r.plan_ns))), misses.len()),
    );
    let compiled: Vec<&Replay> = misses.iter().copied().filter(|r| !r.plan_hit).collect();
    m.insert(
        "engine.compile_us".into(),
        (us(mean(&col(&compiled, |r| r.compile_ns))), compiled.len()),
    );
    for family in ADHOC_FAMILIES.iter().chain(STAR_FAMILIES.iter()) {
        let xs: Vec<&Replay> = misses
            .iter()
            .copied()
            .filter(|r| r.family == *family)
            .collect();
        let p50 = median(&sorted(col(&xs, |r| r.exec_ns))).unwrap_or(0.0);
        m.insert(format!("engine.exec_ms.{family}"), (p50 / 1e6, xs.len()));
    }
    let exec_s = total(&misses, |r| r.exec_ns) / 1e9;
    let scanned = total(&misses, |r| r.rows_scanned);
    let n = misses.len();
    let per_stmt = |x: f64| if n == 0 { 0.0 } else { x / n as f64 };
    m.insert(
        "engine.rows_scanned_per_s".into(),
        (if exec_s > 0.0 { scanned / exec_s } else { 0.0 }, n),
    );
    let returned = total(&misses, |r| r.rows_returned);
    m.insert(
        "engine.rows_examined_per_row_returned".into(),
        (
            if returned > 0.0 {
                scanned / returned
            } else {
                0.0
            },
            n,
        ),
    );
    m.insert(
        "engine.exchange_bytes_per_stmt".into(),
        (per_stmt(total(&misses, |r| r.exchange_bytes)), n),
    );
    let groups = total(&misses, |r| r.groups_total);
    m.insert(
        "storage.zonemap_skip_share".into(),
        (
            if groups > 0.0 {
                total(&misses, |r| r.groups_skipped) / groups
            } else {
                0.0
            },
            n,
        ),
    );
    m.insert(
        "storage.blocks_read_per_stmt".into(),
        (per_stmt(total(&misses, |r| r.blocks_read)), n),
    );
    m.insert(
        "storage.bytes_read_per_stmt".into(),
        (per_stmt(total(&misses, |r| r.bytes_read)), n),
    );
    let waits = sorted(col(&misses, |r| r.queue_ns));
    let wait_p95 = percentile(&waits, 0.95)
        .or(waits.last().copied())
        .unwrap_or(0.0);
    m.insert("core.wlm_queue_wait_p95_ms".into(), (wait_p95 / 1e6, n));
    m.insert(
        "core.result_cache_hit_rate".into(),
        (
            share(counters.rc_hits, counters.rc_hits + counters.rc_misses),
            0,
        ),
    );
    m.insert(
        "core.plan_cache_hit_rate".into(),
        (
            share(
                counters.plan_hits,
                counters.plan_hits + counters.plan_misses,
            ),
            0,
        ),
    );
    m.insert(
        "core.wlm_sqa_share".into(),
        (share(counters.wlm_sqa, counters.wlm_admitted), 0),
    );

    // The ledger proper: matched pairs only. Every row is a mean over
    // the same statements and the rows sum to their wire latency by
    // construction; what the layers cannot name falls to
    // `core.leader_other_us` (locks, snapshots, spans, materialisation).
    let matched: Vec<&Replay> = replays.iter().filter(|r| r.matched).collect();
    let k = matched.len();
    notes.push(format!(
        "{} ledger: {} SELECTs replayed, {} matched the wire run's cache state",
        w.name(),
        replays.len(),
        k
    ));
    if k == 0 {
        m.insert("frontdoor.wire_overhead_us".into(), (0.0, 0));
        m.insert("core.leader_other_us".into(), (0.0, 0));
        return;
    }
    let avg = |f: fn(&Replay) -> u64| total(&matched, f) / k as f64;
    let on_miss = |f: fn(&Replay) -> u64| {
        matched
            .iter()
            .filter(|r| !r.rc_hit)
            .map(|r| f(r))
            .sum::<u64>() as f64
            / k as f64
    };
    let wire_ns = avg(|r| r.wire_ns);
    let session_ns = avg(|r| r.session_ns);
    let rows = [
        ("frontdoor.wire_overhead_us", wire_ns - session_ns),
        ("sql.parse_us", avg(|r| r.parse_ns)),
        ("sql.plan_us", on_miss(|r| r.plan_ns)),
        ("engine.compile_us", on_miss(|r| r.compile_ns)),
        ("core.wlm_queue_wait_us", on_miss(|r| r.queue_ns)),
        ("engine.exec_us", on_miss(|r| r.exec_ns)),
    ];
    let named: f64 = rows.iter().map(|(_, ns)| ns).sum();
    let other = wire_ns - named;
    m.insert(
        "frontdoor.wire_overhead_us".into(),
        (us(wire_ns - session_ns), k),
    );
    m.insert("core.leader_other_us".into(), (us(other), k));
    notes.push(format!(
        "  {:<28} {:>12} {:>7}",
        "layer", "mean us", "share"
    ));
    for (name, ns) in rows
        .iter()
        .copied()
        .chain([("core.leader_other_us", other)])
    {
        notes.push(format!(
            "  {:<28} {:>12.1} {:>6.1}%",
            name,
            us(ns),
            100.0 * ns / wire_ns
        ));
    }
    notes.push(format!(
        "  {:<28} {:>12.1} {:>6.1}%",
        "= wire latency",
        us(wire_ns),
        100.0
    ));
}

/// Span totals by name with self time: where the harness's own clock
/// went, harness overhead (`client.stmt`, `replay` self time) included.
pub fn span_table(spans: &[Span]) -> Vec<String> {
    let mut out = vec![format!(
        "  {:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    )];
    for (name, f) in fold_by_name(spans) {
        out.push(format!(
            "  {:<28} {:>8} {:>12.2} {:>12.2}",
            name,
            f.count,
            f.total_ns as f64 / 1e6,
            f.self_ns as f64 / 1e6
        ));
    }
    out
}
