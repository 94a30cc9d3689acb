//! One model for every write, crash, resize and restore, and for a
//! statement run beside another.
//!
//! A deliberately naive model — a `Vec<Row>` per table, queried through
//! `engine::baseline::run_plan` with the SQL bound against a
//! `sql::catalog::StaticCatalog` of the same tables — steps in lockstep
//! with a `Cluster` under one generated, shrinking schedule: CREATE /
//! DROP, COPY (several objects, sometimes `STATUPDATE OFF`, sometimes a
//! malformed object), INSERT, VACUUM, ANALYZE, `redistribute_all`,
//! SELECTs from a panel, crash + recover (sometimes with a statement torn
//! at a WAL seam), resize, snapshot + restore at a random hydration, node
//! kill / revive, backup drain (copied to a DR region) and failpoints,
//! transient or permanent.
//!
//! One step is not sequential. A parked step parks a statement A — a
//! SELECT, COPY, INSERT or resize — at a seam it must cross, behind a
//! delay hook that blocks until the harness releases it, and runs the
//! next drawn step B beside it on a thread of its own. The lock rules
//! (DESIGN.md §15 "Who waits for whom") predict whether B returns while
//! A is parked or waits for it, and what each one sees; both outcomes
//! then go through the same checks, in the predicted order. No park
//! sleeps and no check bounds an elapsed time: the one time limit is a
//! hang guard.
//!
//! After every step the cluster must agree with the model: per table
//! `rows_estimate`, `loads_since_analyze`, `table_stats` (the statistics
//! of exactly the rows the record covers, computed by the model) and the
//! `svv_table_info` row; every SELECT returns the model's rows. A commit
//! raises `catalog_version()`; a refused statement moves nothing — not
//! the version, not `copy.rows_loaded`, not the bytes on the nodes — and
//! is retryable unless the model says it is permanent. At quiesce the
//! placed blocks are the published catalog's, nothing leaked, every
//! injected fault is in `stl_fault_event`, and one more crash + recover
//! is a fixpoint. Over the run every seam the schedule arms must fire, at
//! least one refusal must be a retry exhaustion, every kind of A must
//! park, and some B must wait, some return beside A and some be refused
//! as a same-table conflict — VACUUM or ANALYZE among them, of another
//! table and of A's; on success the run prints what it reached.
//!
//! A failure shrinks to a minimal schedule and prints it as replayable
//! SQL, S3 objects and lifecycle calls. `RSIM_PROP_CASES` sets the case
//! count, `RSIM_SEED` replays one.

use redshift_sim::common::row::rows_to_columns;
use redshift_sim::common::{ColumnDef, DataType, RetryPolicy, Row, RsError, Schema, Value};
use redshift_sim::core::{Cluster, ClusterConfig};
use redshift_sim::distribution::{DistStyle, NodeId};
use redshift_sim::engine::baseline::{run_plan, RowStore};
use redshift_sim::faultkit::{fp, ErrClass, FaultSpec};
use redshift_sim::replication::{BackupManager, SnapshotKind};
use redshift_sim::sql::catalog::{StaticCatalog, TableMeta};
use redshift_sim::sql::plan_query;
use redshift_sim::storage::stats::TableStats;
use redshift_sim::storage::BlockId;
use redshift_sim::storage::table::SortKeySpec;
use redshift_sim::testkit::prop::{self, Config};
use redshift_sim::testkit::rng::{Pcg32, Rng};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Cases per run, unless `RSIM_PROP_CASES` says otherwise.
const CASES: u32 = 128;
/// Refused statements the harness healed and reran, over every case.
static HEALED: AtomicU64 = AtomicU64::new(0);
/// Retryable refusals, and those that exhausted a retry loop.
static REFUSED: AtomicU64 = AtomicU64::new(0);
static EXHAUSTED: AtomicU64 = AtomicU64::new(0);
/// Injections per seam of `SEAMS`, read from `faults().events()` at
/// quiesce.
static INJECTED: [AtomicU64; SEAMS.len()] = [const { AtomicU64::new(0) }; SEAMS.len()];
/// Parked steps per kind of A in `PARK`; B's that waited for A and B's
/// that returned while it was parked; same-table `Serializable` refusals.
static PARKED: [AtomicU64; PARK.len()] = [const { AtomicU64::new(0) }; PARK.len()];
static WAITED: AtomicU64 = AtomicU64::new(0);
static RETURNED: AtomicU64 = AtomicU64::new(0);
static CONFLICTS: AtomicU64 = AtomicU64::new(0);
/// VACUUM or ANALYZE beside a parked table writer: of another table
/// (returned), and of the same table (refused as a conflict).
static MAINTAINED: [AtomicU64; 2] = [const { AtomicU64::new(0) }; 2];

/// The wide schema carries one column of every `DataType`; a narrow
/// table is its `k, i4, v` (the columns the query panel reads).
const COLUMNS: [(&str, &str, DataType); 9] = [
    ("b", "BOOLEAN", DataType::Bool),
    ("i2", "SMALLINT", DataType::Int2),
    ("i4", "INTEGER", DataType::Int4),
    ("k", "BIGINT", DataType::Int8),
    ("f", "FLOAT8", DataType::Float8),
    ("v", "VARCHAR(16)", DataType::Varchar),
    ("d", "DATE", DataType::Date),
    ("ts", "TIMESTAMP", DataType::Timestamp),
    ("m", "DECIMAL(12,2)", DataType::Decimal(12, 2)),
];
const NARROW: [usize; 3] = [3, 2, 5];
const WIDE: [usize; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 8];

/// The S3, COPY, mirror and restore seams, then the three WAL seams.
const SEAMS: [&str; 12] = [
    fp::S3_GET,
    fp::COPY_FETCH_OBJECT,
    fp::MIRROR_BACKUP_DRAIN,
    fp::S3_COPY_OBJECT,
    fp::MIRROR_RE_REPLICATE,
    fp::RESTORE_PAGE_FAULT,
    fp::MIRROR_WRITE_PRIMARY,
    fp::MIRROR_WRITE_SECONDARY,
    fp::S3_PUT,
    fp::WAL_APPEND,
    fp::WAL_SYNC,
    fp::WAL_COMMIT,
];

/// What a parked step parks, and the seam it parks at: a SELECT in its
/// slice scan, a COPY in its first object fetch, an INSERT in its first
/// block write, a resize in its first block write after the source turned
/// read-only (the first on the target).
const PARK: [(Op, &str); 4] = [
    (Op::Select, fp::EXEC_SCAN_SLICE),
    (Op::Copy, fp::COPY_FETCH_OBJECT),
    (Op::Insert, fp::MIRROR_WRITE_PRIMARY),
    (Op::Resize, fp::MIRROR_WRITE_PRIMARY),
];
/// A parked step's hang guard: a statement that must return and has not
/// within it fails the case, naming the pair. It is not a timing bound.
const HANG: Duration = Duration::from_secs(60);
/// `resize` targets: (nodes, slices per node).
const SHAPES: [(u32, u32); 5] = [(1, 2), (3, 1), (2, 2), (2, 1), (4, 1)];

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Ddl,
    Copy,
    Insert,
    Select,
    Vacuum,
    Analyze,
    Redistribute,
    Crash,
    Resize,
    Restore,
    Node,
    Drain,
    Fault,
    /// Park A and run the next step beside it.
    Park,
}

/// A drawn step: the op and its two draws.
type Step = (Op, u32, u64);

/// Steps draw from this list, so repeats weight an op; shrinking moves a
/// step toward the front. Faults, kill / revive and drains weigh enough
/// that a default run reaches every seam (`mirror.re_replicate` needs a
/// revive, `s3.copy_object` a drain, after the fault is armed), and parks,
/// VACUUM and ANALYZE enough that maintenance meets a parked table writer,
/// of its own table and of another.
const OPS: [Op; 34] = [
    Op::Ddl,
    Op::Copy,
    Op::Insert,
    Op::Select,
    Op::Copy,
    Op::Select,
    Op::Insert,
    Op::Copy,
    Op::Select,
    Op::Vacuum,
    Op::Analyze,
    Op::Ddl,
    Op::Redistribute,
    Op::Crash,
    Op::Resize,
    Op::Restore,
    Op::Node,
    Op::Drain,
    Op::Fault,
    Op::Fault,
    Op::Node,
    Op::Node,
    Op::Drain,
    Op::Fault,
    Op::Fault,
    Op::Fault,
    Op::Park,
    Op::Park,
    Op::Vacuum,
    Op::Analyze,
    Op::Park,
    Op::Vacuum,
    Op::Analyze,
    Op::Park,
];

/// A table as the model sees it.
#[derive(Clone)]
struct Table {
    cols: &'static [usize],
    dist: DistStyle,
    sort: SortKeySpec,
    rows: Vec<Row>,
    /// The rows the statistics record covers: `None` before the first
    /// ANALYZE or statistics-updating load.
    covered: Option<Vec<Row>>,
    /// Rows loaded since their last VACUUM or re-layout.
    unsorted: u64,
    loads_since_analyze: u64,
}

impl Table {
    fn schema(&self) -> Schema {
        Schema::new(self.cols.iter().map(|&c| ColumnDef::new(COLUMNS[c].0, COLUMNS[c].2)).collect())
            .unwrap()
    }

    fn col(&self, name: &str) -> usize {
        self.cols.iter().position(|&c| COLUMNS[c].0 == name).unwrap()
    }

    fn stats(&self) -> Option<TableStats> {
        let covered = self.covered.as_ref()?;
        Some(TableStats::of(&rows_to_columns(&self.schema(), covered).unwrap()))
    }

    /// `"table", tbl_rows, stats_off, unsorted, loads_since_analyze`.
    fn info(&self, name: &str) -> Row {
        let pct = |part: u64, whole: u64| Value::Float8(100.0 * part as f64 / whole.max(1) as f64);
        let n = self.rows.len() as u64;
        Row::new(vec![
            Value::Str(name.into()),
            Value::Int8(n as i64),
            self.covered.as_ref().map_or(Value::Null, |c| pct(n.abs_diff(c.len() as u64), n)),
            match self.sort {
                SortKeySpec::None => Value::Null,
                _ => pct(self.unsorted, n),
            },
            Value::Int8(self.loads_since_analyze as i64),
        ])
    }

    fn load(&mut self, rows: &[Row], statupdate: bool) {
        self.rows.extend_from_slice(rows);
        self.unsorted += rows.len() as u64;
        if statupdate {
            self.covered.get_or_insert_with(Vec::new).extend_from_slice(rows);
        } else {
            self.loads_since_analyze += rows.len() as u64;
        }
    }
}

/// One generated row of `cols`: small domains so values repeat, NULLs
/// in every column.
fn gen_row(rng: &mut Pcg32, cols: &[usize]) -> Row {
    let span: i64 = if rng.gen_bool(0.5) { 100_000 } else { 12 };
    let strs = ["a", "ab", "redshift", "naïve", "日本", "x y", "-"];
    let floats = [-0.0, 0.0, 1.5, -2.25, 1e300];
    Row::new(
        cols.iter()
            .map(|&c| {
                let v = match c {
                    0 => Value::Bool(rng.gen_bool(0.5)),
                    1 => Value::Int2(rng.gen_range(-300i64..300) as i16),
                    2 => Value::Int4(rng.gen_range(-span..span) as i32),
                    3 => Value::Int8(rng.gen_range(0..span.min(50) * 8)),
                    4 => Value::Float8(floats[rng.gen_index(5)]),
                    5 if span > 12 => Value::Str(rng.alphanumeric(6)),
                    5 => Value::Str(strs[rng.gen_index(strs.len())].into()),
                    6 => Value::Date(rng.gen_range(0i64..20_000) as i32),
                    7 => Value::Timestamp(rng.gen_range(0i64..2_000_000_000) * 1_000_000),
                    _ => Value::Decimal {
                        units: rng.gen_range(-span * 100..span * 100) as i128,
                        scale: 2,
                    },
                };
                if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    v
                }
            })
            .collect(),
    )
}

/// A value as COPY reads it (`|`-delimited; empty is NULL).
fn csv_field(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Float8(x) => format!("{x:?}"),
        v => v.to_string(),
    }
}

/// A value as an INSERT literal.
fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
        Value::Float8(x) => format!("{x:?}"),
        Value::Str(s) => format!("'{s}'"),
        Value::Date(_) => format!("DATE '{v}'"),
        Value::Timestamp(_) => format!("TIMESTAMP '{v}'"),
        v => v.to_string(),
    }
}

/// Sort for a multiset comparison.
fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        a.values()
            .iter()
            .zip(b.values())
            .map(|(x, y)| x.cmp_sql(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows
}

/// The harness: the cluster, the model, and the replay log.
struct Run {
    c: Arc<Cluster>,
    tables: BTreeMap<String, Table>,
    /// The published catalog version the model last saw commit.
    version: u64,
    dead: Option<NodeId>,
    /// Failpoints armed by the schedule.
    armed: Vec<(&'static str, FaultSpec)>,
    log: Vec<String>,
    step: usize,
}

fn retry() -> RetryPolicy {
    RetryPolicy::default()
        .with_delays(Duration::from_micros(50), Duration::from_millis(1))
        .with_deadline(Duration::from_secs(2))
}

fn config(name: String, nodes: u32, slices: u32) -> ClusterConfig {
    ClusterConfig::new(name)
        .nodes(nodes)
        .slices_per_node(slices)
        .rows_per_group(32)
        .dr_region("eu-west-1")
        .retry(retry())
}

fn assert_retryable(ctx: &str, e: &RsError) {
    assert!(e.is_retryable(), "{ctx}: a refusal under injected faults must be retryable: {e}");
    REFUSED.fetch_add(1, Relaxed);
    if e.to_string().contains("exhausted after") {
        EXHAUSTED.fetch_add(1, Relaxed);
    }
}

/// A write's outcome, as the model predicts it.
#[derive(Clone)]
enum Expect {
    /// Commits a new catalog version.
    Commit,
    /// Commits, loading this many rows.
    Load(u64),
    /// Succeeds without publishing anything (`redistribute_all` of an
    /// ALL table).
    NoOp,
    /// Fails for good on the malformed COPY object `key`; blank it and
    /// the COPY loads `rows`.
    Malformed { key: String, rows: u64 },
}

/// What a write does to the model's tables when it commits.
#[derive(Clone)]
enum Effect {
    Create(String, Table),
    Drop(String),
    /// COPY, INSERT. With VACUUM and ANALYZE, a table writer: it holds
    /// `write_txn` shared and its table's writer; every other write holds
    /// `write_txn` exclusive.
    Load { t: String, rows: Vec<Row>, statupdate: bool },
    Vacuum(String),
    Analyze(String),
    Redistribute(String),
}

impl Effect {
    fn on(&self, tables: &mut BTreeMap<String, Table>) {
        match self {
            Effect::Create(name, table) => {
                tables.insert(name.clone(), table.clone());
            }
            Effect::Drop(name) => {
                tables.remove(name);
            }
            Effect::Load { t, rows, statupdate } => tables.get_mut(t).unwrap().load(rows, *statupdate),
            Effect::Vacuum(t) => tables.get_mut(t).unwrap().unsorted = 0,
            Effect::Analyze(t) => {
                let table = tables.get_mut(t).unwrap();
                table.covered = Some(table.rows.clone());
                table.loads_since_analyze = 0;
            }
            Effect::Redistribute(t) => {
                let table = tables.get_mut(t).unwrap();
                (table.dist, table.unsorted) = (DistStyle::All, 0);
            }
        }
    }

    /// Whether it can commit over `tables`: its table exists, or for a
    /// CREATE does not.
    fn applies(&self, tables: &BTreeMap<String, Table>) -> bool {
        match self {
            Effect::Create(t, _) => !tables.contains_key(t),
            Effect::Drop(t)
            | Effect::Load { t, .. }
            | Effect::Vacuum(t)
            | Effect::Analyze(t)
            | Effect::Redistribute(t) => tables.contains_key(t),
        }
    }

    /// The table a table writer writes.
    fn writes(&self) -> Option<&str> {
        match self {
            Effect::Load { t, .. } | Effect::Vacuum(t) | Effect::Analyze(t) => Some(t),
            _ => None,
        }
    }
}

/// A write as the model plans it: SQL, or for `Effect::Redistribute` a
/// `redistribute_all` call.
#[derive(Clone)]
struct Stmt {
    sql: String,
    expect: Expect,
    effect: Effect,
}

impl Stmt {
    fn run(&self, c: &Cluster) -> Result<u64, RsError> {
        match &self.effect {
            Effect::Redistribute(t) => c.redistribute_all(t).map(|()| 0),
            _ => c.execute(&self.sql).map(|s| s.rows_affected),
        }
    }

    /// The replay line.
    fn line(&self) -> String {
        match &self.effect {
            Effect::Redistribute(t) => format!("c.redistribute_all({t:?})"),
            _ => format!("{};", self.sql),
        }
    }
}

/// A step that can run on a thread of its own.
#[derive(Clone)]
enum Job {
    /// A SELECT, and the model's rows when it starts.
    Read(String, Vec<Row>),
    Write(Stmt),
    /// `resize` to (nodes, slices per node).
    Resize(u32, u32),
    /// Snapshot as `id`, restore it as cluster `to`, then hydrate
    /// `hydrate` blocks.
    Restore { id: String, to: ClusterConfig, hydrate: usize },
}

/// A job's outcome. A lifecycle job gives the new cluster and a refused
/// hydration step, or the stage that refused.
enum Got {
    Rows(Result<Vec<Row>, RsError>),
    Affected(Result<u64, RsError>),
    Cluster(Result<(Arc<Cluster>, Option<RsError>), (&'static str, RsError)>),
}

impl Job {
    fn run(&self, c: &Cluster) -> Got {
        match self {
            Job::Read(sql, _) => Got::Rows(c.query(sql).map(|q| q.rows)),
            Job::Write(s) => Got::Affected(s.run(c)),
            Job::Resize(nodes, slices) => {
                Got::Cluster(c.resize(*nodes, *slices).map(|t| (t, None)).map_err(|e| ("resize", e)))
            }
            Job::Restore { id, to, hydrate } => Got::Cluster((|| {
                c.create_snapshot(id, SnapshotKind::User).map_err(|e| ("snapshot", e))?;
                let (from, s3) = (c.config(), Arc::clone(c.s3()));
                let r = Cluster::restore_from_snapshot(to.clone(), s3, &from.region, &from.name, id, None)
                    .map_err(|e| ("restore", e))?;
                let refused = r.hydrate_step(*hydrate).err();
                Ok((r, refused))
            })()),
        }
    }

    /// The table a table writer writes.
    fn writes(&self) -> Option<&str> {
        match self {
            Job::Write(s) => s.effect.writes(),
            _ => None,
        }
    }

    /// The replay line.
    fn line(&self) -> String {
        match self {
            Job::Read(sql, _) => format!("{sql};"),
            Job::Write(s) => s.line(),
            Job::Resize(nodes, slices) => format!("c = c.resize({nodes}, {slices})"),
            Job::Restore { id, hydrate, .. } => {
                format!("c.create_snapshot({id:?}); c = restore({id:?}); c.hydrate_step({hydrate})")
            }
        }
    }
}

/// What a refused write must leave as it was, read before it ran alone:
/// `copy.rows_loaded`, and the nodes' bytes.
type Before = (u64, Option<u64>);

/// The blocks placed on `c`'s nodes.
fn placed_ids(c: &Cluster) -> BTreeSet<BlockId> {
    c.replicated_store().unwrap().placed_block_ids().into_iter().collect()
}

/// Run `job` on a thread of its own; it sends its outcome on `tx`. A
/// parked statement's delay hook sends `None` there first.
fn spawn(job: &Job, c: &Arc<Cluster>, tx: mpsc::Sender<Option<Got>>) {
    let (job, c) = (job.clone(), Arc::clone(c));
    std::thread::spawn(move || {
        let _ = tx.send(Some(job.run(&c)));
    });
}

/// The next message on `rx`; past the hang guard, a failure naming `what`.
fn next(rx: &mpsc::Receiver<Option<Got>>, what: &str) -> Option<Got> {
    rx.recv_timeout(HANG).unwrap_or_else(|e| panic!("{what}: no outcome within the hang guard: {e}"))
}

fn done(rx: &mpsc::Receiver<Option<Got>>, what: &str) -> Got {
    next(rx, what).unwrap_or_else(|| panic!("{what}: a statement parked twice"))
}

/// Whether B waits for the parked A (DESIGN.md §15 "Who waits for
/// whom"): a resize's WLM drain waits for a parked SELECT's slot, and an
/// exclusive statement (DDL, `redistribute_all`, snapshot) for a parked
/// table writer's shared `write_txn`. Every other B returns while A is
/// parked: a table writer (COPY, INSERT, VACUUM, ANALYZE) of another table
/// commits, and of A's table is refused as a conflict.
fn waits(a: Op, b: &Job) -> bool {
    match (a, b) {
        (Op::Select, Job::Resize(..)) => true,
        (Op::Copy | Op::Insert, Job::Write(s)) => s.effect.writes().is_none(),
        (Op::Copy | Op::Insert, Job::Restore { .. }) => true,
        _ => false,
    }
}

/// `txn.conflicts` and the rows of `stl_tr_conflict`.
fn conflicts(c: &Cluster) -> (u64, Option<i64>) {
    let rows = c.query("SELECT COUNT(*) FROM stl_tr_conflict").unwrap().rows;
    (c.trace().counter_value("txn.conflicts"), rows[0].get(0).as_i64())
}

impl Run {
    fn launch(seed: u64) -> Run {
        let c = Cluster::launch(config("model".into(), 2, 2).seed(seed)).unwrap();
        c.faults().reseed(seed);
        let version = c.catalog_version();
        Run {
            c,
            tables: BTreeMap::new(),
            version,
            dead: None,
            armed: Vec::new(),
            log: Vec::new(),
            step: 0,
        }
    }

    fn catalog(&self) -> StaticCatalog {
        let meta = |(name, t): (&String, &Table)| TableMeta {
            name: name.clone(),
            schema: t.schema(),
            dist_style: t.dist.clone(),
            sort_key: t.sort.clone(),
            rows: t.rows.len() as u64,
        };
        StaticCatalog {
            tables: self.tables.iter().map(meta).collect(),
            slices: self.c.topology().total_slices(),
        }
    }

    fn model_query(&self, sql: &str) -> Vec<Row> {
        let mut store = RowStore::new();
        for (name, t) in &self.tables {
            store.insert_table(name.clone(), t.rows.clone());
        }
        run_plan(&plan_query(sql, &self.catalog()).unwrap(), &store).unwrap()
    }

    fn before(&self) -> Before {
        let c = &self.c;
        // A refused statement leaves the nodes' bytes as they were, unless
        // a node is down or its reads hydrated a restore's blocks.
        let bytes = (self.dead.is_none() && c.hydration_progress() >= 1.0)
            .then(|| c.replicated_store().unwrap().local_bytes());
        (c.trace().counter_value("copy.rows_loaded"), bytes)
    }

    /// Run a job alone and take its outcome; heal a refused write.
    fn run(&mut self, job: Job) {
        let before = self.before();
        self.log.push(job.line());
        let got = job.run(&self.c);
        if let Some(s) = self.settle(job, got, Some(before)) {
            self.heal(s);
        }
    }

    /// Take a job's outcome: `before` when it ran alone. Returns a
    /// refused write the harness must heal.
    fn settle(&mut self, job: Job, got: Got, before: Option<Before>) -> Option<Stmt> {
        match (job, got) {
            (Job::Read(sql, expect), Got::Rows(got)) => match got {
                Ok(got) if sql.contains("ORDER BY") => assert_eq!(got, expect, "{sql}"),
                Ok(got) => assert_eq!(sorted(got), sorted(expect), "{sql}"),
                Err(e) => assert_retryable(&sql, &e),
            },
            (Job::Write(s), Got::Affected(got)) => return self.write(s, got, before),
            (Job::Resize(nodes, slices), Got::Cluster(Ok((target, _)))) => {
                self.resized(nodes * slices, target)
            }
            (Job::Restore { .. }, Got::Cluster(Ok((r, refused)))) => {
                if let Some(e) = refused {
                    assert_retryable("hydrate_step", &e);
                }
                self.c = r;
                self.lifecycle();
            }
            (_, Got::Cluster(Err((stage, e)))) => assert_retryable(stage, &e),
            _ => unreachable!("a job's outcome is of its kind"),
        }
        None
    }

    /// A write's outcome. On success the model takes its effect. A
    /// refusal moves nothing the model can see, and with every node up
    /// comes back to be healed.
    fn write(&mut self, s: Stmt, got: Result<u64, RsError>, before: Option<Before>) -> Option<Stmt> {
        let (c, call) = (Arc::clone(&self.c), s.line());
        let e = match got {
            Ok(affected) => {
                self.committed(&s, affected, before.is_some());
                return None;
            }
            Err(e) => e,
        };
        self.log.push(format!("-- refused: {e}"));
        let seams: Vec<&str> = self.armed.iter().map(|(seam, _)| *seam).collect();
        if let Expect::Malformed { .. } = s.expect {
            if seams.is_empty() && self.dead.is_none() {
                assert_eq!(e.code(), "ANALYSIS", "{call} {e}");
            }
        } else {
            assert_retryable(&call, &e);
            // With every node up the error names the seam that refused.
            if self.dead.is_none() {
                assert!(
                    seams.iter().any(|s| e.to_string().contains(s)),
                    "{call} names none of {seams:?}: {e}"
                );
            }
        }
        if let Some((loaded, bytes)) = before {
            assert_eq!(c.catalog_version(), self.version, "{call} refused, and moved catalog_version");
            let counted = c.trace().counter_value("copy.rows_loaded");
            assert_eq!(counted, loaded, "{call} refused, and counted its rows");
            if let Some(bytes) = bytes {
                let after = c.replicated_store().unwrap().local_bytes();
                assert_eq!(after, bytes, "{call} refused, and left blocks on the nodes");
            }
        }
        self.dead.is_none().then_some(s)
    }

    /// A write refused as the lock rules predict: with every node up it
    /// reruns once the pair has settled.
    fn refused(&mut self, s: Stmt, e: &RsError) -> Option<Stmt> {
        self.log.push(format!("-- refused: {e}"));
        self.dead.is_none().then_some(s)
    }

    /// Heal a refused write's cause — clear the failpoints, or blank the
    /// malformed object — and rerun it, which must commit, before the
    /// failpoints are re-armed.
    fn heal(&mut self, s: Stmt) {
        if !s.effect.applies(&self.tables) {
            // Beside it, a DDL statement took its table away (or made it).
            return self.log.push(format!("-- not rerun, its table changed: {}", s.line()));
        }
        self.log.push("c.faults().clear_all()".into());
        self.c.faults().clear_all();
        let expect = match s.expect {
            Expect::Malformed { key, rows } => {
                self.put(&key, String::new());
                Expect::Load(rows)
            }
            expect => expect,
        };
        let s = Stmt { expect, ..s };
        self.log.push(s.line());
        let affected = s.run(&self.c).unwrap_or_else(|e| panic!("{} refused after healing: {e}", s.line()));
        self.committed(&s, affected, true);
        HEALED.fetch_add(1, Relaxed);
        self.rearm();
    }

    fn rearm(&mut self) {
        self.log.push("-- re-arm every fault configured above".into());
        for (seam, spec) in &self.armed {
            self.c.faults().configure(seam, *spec);
        }
    }

    /// A commit alone raises the catalog version. The version is the
    /// committing transaction's id, so of two writers that overlap, the
    /// one that began first may publish the lower version last: beside
    /// another statement a commit only takes the version it finds.
    fn committed(&mut self, s: &Stmt, affected: u64, alone: bool) {
        let (version, call) = (self.c.catalog_version(), s.line());
        match s.expect {
            Expect::Malformed { .. } => panic!("{call} committed what the model refuses"),
            Expect::NoOp if alone => {
                return assert_eq!(version, self.version, "{call} is a no-op, and published")
            }
            Expect::NoOp => return,
            Expect::Load(rows) => assert_eq!(affected, rows, "{call}: rows_affected"),
            Expect::Commit => {}
        }
        assert!(!alone || version > self.version, "{call} committed, and left catalog_version at {version}");
        self.version = version;
        s.effect.on(&mut self.tables);
    }

    /// A resize's outcome: the model moves to the target, where every
    /// table is re-laid out sorted; the source answers `STATE`, and its
    /// drained WLM holds no query.
    fn resized(&mut self, slices: u32, target: Arc<Cluster>) {
        let source = std::mem::replace(&mut self.c, target);
        let e = source.query("SELECT COUNT(*) FROM stl_query").expect_err("a resized source answered");
        assert_eq!(e.code(), "STATE", "a resized source: {e}");
        assert!(source.wlm().is_draining(), "a resized source admits queries");
        for sc in source.wlm().service_class_states() {
            assert_eq!((sc.in_flight, sc.queued), (0, 0), "{}: the drain left a query", sc.name);
        }
        assert_eq!(self.c.topology().total_slices(), slices);
        self.tables.values_mut().for_each(|t| t.unsorted = 0);
        self.lifecycle();
    }

    /// The table a step works on, or `None` (the step creates one).
    fn pick(&self, a: u32) -> Option<String> {
        let names: Vec<&String> = self.tables.keys().collect();
        (!names.is_empty()).then(|| names[a as usize % names.len()].clone())
    }

    fn put(&mut self, key: &str, body: String) {
        self.log.push(format!("-- put s3://{key}: {body:?}"));
        self.c.put_s3_object(key, body.into_bytes());
    }

    fn create(&mut self, a: u32) -> Stmt {
        let name = format!("t{}", a % 3);
        let wide = a / 3 % 2 == 1;
        let cols: &'static [usize] = if wide { &WIDE } else { &NARROW };
        let k = cols.iter().position(|&c| c == 3).unwrap();
        let i4 = cols.iter().position(|&c| c == 2).unwrap();
        let (dist, dist_sql) = match a / 6 % 3 {
            0 => (DistStyle::Key(k), "DISTKEY(k)"),
            1 => (DistStyle::Even, "DISTSTYLE EVEN"),
            _ => (DistStyle::All, "DISTSTYLE ALL"),
        };
        let (sort, sort_sql) = match a / 18 % 3 {
            0 => (SortKeySpec::None, ""),
            1 => (SortKeySpec::Compound(vec![k]), " COMPOUND SORTKEY(k)"),
            _ => (SortKeySpec::Interleaved(vec![k, i4]), " INTERLEAVED SORTKEY(k, i4)"),
        };
        let ddl: Vec<String> =
            cols.iter().map(|&c| format!("{} {}", COLUMNS[c].0, COLUMNS[c].1)).collect();
        let sql = format!("CREATE TABLE {name} ({}) {dist_sql}{sort_sql}", ddl.join(", "));
        let table = Table {
            cols,
            dist,
            sort,
            rows: vec![],
            covered: None,
            unsorted: 0,
            loads_since_analyze: 0,
        };
        Stmt { sql, expect: Expect::Commit, effect: Effect::Create(name, table) }
    }

    fn step(&mut self, op: Op, a: u32, b: u64) {
        self.step += 1;
        match self.plan(op, a, b) {
            Some(job) => self.run(job),
            None => self.inline(op, a, b),
        }
    }

    /// What step `op` runs, planned against the model as it stands, or
    /// `None` for the steps that run on the harness's own thread.
    fn plan(&mut self, op: Op, a: u32, b: u64) -> Option<Job> {
        let mut rng = Pcg32::seed_from_u64(b);
        let picked = self.pick(a);
        let writes = matches!(op, Op::Copy | Op::Insert | Op::Select | Op::Vacuum | Op::Analyze);
        if picked.is_none() && (writes || matches!(op, Op::Redistribute)) {
            return Some(Job::Write(self.create(a)));
        }
        let t = picked.unwrap_or_default();
        let (sql, expect, effect) = match op {
            Op::Ddl if self.tables.contains_key(&format!("t{}", a % 3)) => {
                let name = format!("t{}", a % 3);
                (format!("DROP TABLE {name}"), Expect::Commit, Effect::Drop(name))
            }
            Op::Ddl => return Some(Job::Write(self.create(a))),
            Op::Copy => {
                let (statupdate, malformed) = (!rng.gen_bool(0.25), rng.gen_bool(0.15));
                let prefix = format!("m/{}/{}/", self.c.config().name, self.step);
                let cols = self.tables[&t].cols;
                let mut rows = Vec::new();
                for o in 0..rng.gen_range(1usize..4) {
                    let batch: Vec<Row> =
                        (0..rng.gen_range(0usize..60)).map(|_| gen_row(&mut rng, cols)).collect();
                    let lines: Vec<String> = batch
                        .iter()
                        .map(|r| {
                            r.values().iter().map(csv_field).collect::<Vec<_>>().join("|") + "\n"
                        })
                        .collect();
                    self.put(&format!("{prefix}{o}"), lines.concat());
                    rows.extend(batch);
                }
                let mut expect = Expect::Load(rows.len() as u64);
                if malformed {
                    let key = format!("{prefix}z");
                    self.put(&key, "not-a-row|x\n".into());
                    expect = Expect::Malformed { key, rows: rows.len() as u64 };
                }
                let off = if statupdate { "" } else { " STATUPDATE OFF" };
                let sql = format!("COPY {t} FROM 's3://{prefix}' DELIMITER '|'{off}");
                (sql, expect, Effect::Load { t, rows, statupdate })
            }
            Op::Insert => {
                let cols = self.tables[&t].cols;
                let rows: Vec<Row> =
                    (0..rng.gen_range(1usize..5)).map(|_| gen_row(&mut rng, cols)).collect();
                let tuples: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        format!(
                            "({})",
                            r.values().iter().map(literal).collect::<Vec<_>>().join(", ")
                        )
                    })
                    .collect();
                let sql = format!("INSERT INTO {t} VALUES {}", tuples.join(", "));
                let expect = Expect::Load(rows.len() as u64);
                (sql, expect, Effect::Load { t, rows, statupdate: true })
            }
            Op::Select => {
                let sql = self.select(&t, a, &mut rng);
                return Some(Job::Read(sql.clone(), self.model_query(&sql)));
            }
            Op::Vacuum => (format!("VACUUM {t}"), Expect::Commit, Effect::Vacuum(t)),
            Op::Analyze => (format!("ANALYZE {t}"), Expect::Commit, Effect::Analyze(t)),
            Op::Redistribute => {
                let expect = match self.tables[&t].dist {
                    DistStyle::All => Expect::NoOp,
                    _ => Expect::Commit,
                };
                (String::new(), expect, Effect::Redistribute(t))
            }
            Op::Resize => {
                let (nodes, slices) = SHAPES[a as usize % SHAPES.len()];
                return Some(Job::Resize(nodes, slices));
            }
            Op::Restore => {
                let (id, from) = (format!("s{}", self.step), self.c.config());
                let to = config(format!("r{}", self.step), from.nodes, from.slices_per_node).seed(b);
                return Some(Job::Restore { id, to, hydrate: a as usize % 48 });
            }
            Op::Crash | Op::Node | Op::Drain | Op::Fault | Op::Park => return None,
        };
        Some(Job::Write(Stmt { sql, expect, effect }))
    }

    /// The steps that run on the harness's own thread: crash + recover,
    /// node kill / revive, backup drain, arming a failpoint.
    fn inline(&mut self, op: Op, a: u32, b: u64) {
        match op {
            Op::Crash => self.crash(a % 4),
            Op::Node => {
                let store = Arc::clone(self.c.replicated_store().unwrap());
                match self.dead.take() {
                    Some(n) => {
                        self.log
                            .push(format!("store.revive_node({n:?}); store.re_replicate({n:?})"));
                        assert!(store.revive_node(n), "revive of a dead node must report true");
                        // The revived node is blank: until re-replication
                        // lands, a second kill would lose single copies.
                        if let Err(e) = store.re_replicate(n) {
                            assert_retryable("re_replicate", &e);
                            self.log
                                .push(format!("c.faults().clear_all(); store.re_replicate({n:?})"));
                            self.c.faults().clear_all();
                            store.re_replicate(n).expect("re_replicate refused after healing");
                            self.rearm();
                        }
                    }
                    None if self.c.config().nodes >= 2 => {
                        let n = NodeId(a % self.c.config().nodes);
                        self.log.push(format!("store.kill_node({n:?})"));
                        assert!(store.kill_node(n), "kill of a live node must report true");
                        self.dead = Some(n);
                    }
                    None => {}
                }
            }
            Op::Drain => {
                self.log.push("store.drain_backup_queue()".into());
                if let Err(e) = self.c.replicated_store().unwrap().drain_backup_queue() {
                    assert_retryable("backup drain", &e);
                }
            }
            Op::Fault => {
                let seam = SEAMS[a as usize % SEAMS.len()];
                let class =
                    [ErrClass::Throttle, ErrClass::Repl, ErrClass::Fault][a as usize / 12 % 3];
                // A permanent fault outlasts every retry loop it meets.
                let spec = match b % 4 {
                    3 => FaultSpec::err(class),
                    i => FaultSpec::err(class).prob([0.05, 0.15, 0.25][i as usize]),
                };
                self.log.push(format!("c.faults().configure({seam:?}, {spec:?})"));
                self.c.faults().configure(seam, spec);
                self.armed.push((seam, spec));
            }
            _ => unreachable!("a job, not an inline step"),
        }
    }

    /// Park A at its seam and run the next step B beside it (module docs;
    /// DESIGN.md §15 "Who waits for whom"). A B that returns is settled
    /// while A is still parked; one that waits, after A. A B that cannot
    /// run beside A (DESIGN.md §7) is handed back, to run next.
    fn park(&mut self, a: u32, b: u64, beside: Option<Step>) -> Option<Step> {
        if let (Some((Op::Vacuum | Op::Analyze, ba, _)), 1) = (beside, self.tables.len()) {
            // VACUUM or ANALYZE beside a parked write gets a second table
            // first, so that it meets A's table or another one.
            let free = (ba..ba + 3).find(|n| !self.tables.contains_key(&format!("t{}", n % 3)));
            let create = self.create(free.expect("three names, one table"));
            self.step += 1;
            self.run(Job::Write(create));
        }
        self.step += 1;
        let (kind, seam) = PARK[a as usize % PARK.len()];
        let job = self.plan(kind, a / PARK.len() as u32, b).expect("every kind of A is a job");
        let (c, before, a_line) = (Arc::clone(&self.c), self.before(), job.line());
        let (tx, events) = mpsc::channel();
        let (release, held) = mpsc::channel::<()>();
        let (parked, held) = (tx.clone(), Mutex::new(held));
        c.faults().install_delay_hook(move |_| {
            let _ = parked.send(None);
            // Until the harness drops `release`.
            let _ = held.lock().unwrap().recv();
        });
        self.log.push(format!("c.faults().configure({seam:?}, park once); on a thread:"));
        self.log.push(a_line.clone());
        c.faults().configure(seam, FaultSpec::delay_ms(0).once());
        spawn(&job, &c, tx);
        if let Some(got) = next(&events, &a_line) {
            // A was refused before its seam, or crosses none (a CREATE, a
            // resize of empty tables): the two steps run in turn.
            self.log.push("-- returned before its seam".into());
            c.faults().clear_delay_hook();
            c.faults().clear(seam);
            self.rearm();
            if let Some(s) = self.settle(job, got, Some(before)) {
                self.heal(s);
            }
            return beside;
        }
        PARKED[a as usize % PARK.len()].fetch_add(1, Relaxed);
        // Another park, a crash, a node kill / revive, and a restore beside
        // a resize run once A has returned.
        let (beside, after) = match beside {
            Some((op, ..)) if matches!(op, Op::Park | Op::Crash | Op::Node) => (None, beside),
            Some((Op::Restore, ..)) if kind == Op::Resize => (None, beside),
            beside => (beside, None),
        };
        let (mut heal, mut waiting, alone) = (Vec::new(), None, beside.is_none());
        let mut left = None;
        if let Some((op, ba, bb)) = beside {
            self.step += 1;
            match self.plan(op, ba, bb) {
                // A backup drain and a failpoint take no lock.
                None => {
                    RETURNED.fetch_add(1, Relaxed);
                    self.inline(op, ba, bb);
                }
                Some(b_job) => waiting = self.beside(kind, &job, &c, b_job, &mut heal, &mut left),
            }
        }
        if matches!(kind, Op::Copy | Op::Insert) {
            // Readers neither wait on nor see the parked write.
            self.check();
        }
        drop(release);
        let got = done(&events, &a_line);
        if let Some((pair, placed, now)) = left {
            // ... and what B freed that A's catalog does not name was gone
            // when B returned: nothing B frees waits for A. Here A has
            // returned, so every block it kept placed and the published
            // catalog does not name is gone too.
            let kept = placed_ids(&c);
            let late: Vec<_> = now.difference(&kept).filter(|b| !placed.contains(b)).collect();
            assert!(late.is_empty(), "{pair}: blocks A's catalog never named waited for A: {late:?}");
        }
        match (job, got) {
            // B resized the cluster under the parked write: its commit is
            // refused (or a fault or a node down on the source refused it
            // first), and it reruns on the target.
            (Job::Write(s), got) if !Arc::ptr_eq(&self.c, &c) && s.effect.writes().is_some() => {
                let Got::Affected(Err(e)) = got else { panic!("{a_line} committed on a resized source") };
                let malformed = matches!(s.expect, Expect::Malformed { .. }) && e.code() == "ANALYSIS";
                if e.code() != "STATE" && !malformed {
                    assert_retryable(&a_line, &e);
                }
                heal.extend(self.refused(s, &e));
            }
            (job, got) => heal.extend(self.settle(job, got, alone.then_some(before))),
        }
        if let Some((b_job, rx, pair)) = waiting {
            let got = done(&rx, &pair);
            heal.extend(self.settle(b_job, got, None));
        }
        c.faults().clear_delay_hook();
        self.rearm();
        heal.into_iter().for_each(|s| self.heal(s));
        after
    }

    /// Start B on a thread of its own beside the parked A (`a` on `c`).
    /// A B that returns is waited for and settled here, its refused write
    /// pushed to `heal`; a B that waits is handed back, still running.
    /// Beside a parked SELECT on a hydrated cluster, a B that returns
    /// leaves in `left` the pair, the blocks placed when B began (the
    /// ones A's catalog names) and those placed when B returned.
    fn beside(
        &mut self,
        kind: Op,
        a: &Job,
        c: &Arc<Cluster>,
        b_job: Job,
        heal: &mut Vec<Stmt>,
        left: &mut Option<(String, BTreeSet<BlockId>, BTreeSet<BlockId>)>,
    ) -> Option<(Job, mpsc::Receiver<Option<Got>>, String)> {
        let pair = format!("B `{}` beside parked A `{}`", b_job.line(), a.line());
        let waits = waits(kind, &b_job);
        let conflict = a.writes().is_some() && a.writes() == b_job.writes();
        let maintains = |s: &Stmt| matches!(s.effect, Effect::Vacuum(_) | Effect::Analyze(_));
        if matches!(&b_job, Job::Write(s) if maintains(s) && a.writes().is_some()) {
            MAINTAINED[conflict as usize].fetch_add(1, Relaxed);
        }
        let read_only = kind == Op::Resize && matches!(b_job, Job::Write(_) | Job::Resize(..));
        // A parked reader holds its catalog's blocks: nothing beside it
        // frees one, so `local_bytes()` cannot fall either. On a hydrated
        // cluster the blocks placed are exactly the ones its catalog names.
        let placed = (kind == Op::Select).then(|| placed_ids(c));
        let hydrated = c.hydration_progress() == 1.0;
        let counted = conflict.then(|| conflicts(c));
        self.log.push(format!("-- beside it, on a thread ({}):", if waits { "waits" } else { "returns" }));
        self.log.push(b_job.line());
        let (tx, rx) = mpsc::channel();
        spawn(&b_job, &self.c, tx);
        if waits {
            WAITED.fetch_add(1, Relaxed);
            if let Job::Resize(..) = b_job {
                // Its WLM drain has begun, and waits for A's slot.
                let t0 = std::time::Instant::now();
                while !c.wlm().is_draining() {
                    assert!(t0.elapsed() < HANG, "{pair}: the resize never began its drain");
                    std::thread::yield_now();
                }
            }
            assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)), "{pair}: B returned before A");
            return Some((b_job, rx, pair));
        }
        RETURNED.fetch_add(1, Relaxed);
        let got = done(&rx, &pair);
        match (b_job, got) {
            (Job::Write(s), Got::Affected(got)) if conflict => {
                let e = got.err().unwrap_or_else(|| panic!("{pair}: two writers committed to one table"));
                assert!(matches!(e, RsError::Serializable(_)), "{pair}: {e}");
                assert_retryable(&pair, &e);
                let (ticks, rows) = counted.unwrap();
                assert_eq!(conflicts(c), (ticks + 1, rows.map(|n| n + 1)), "{pair}: conflict books");
                CONFLICTS.fetch_add(1, Relaxed);
                heal.extend(self.refused(s, &e));
            }
            (b_job, got) if read_only => {
                let (Got::Affected(Err(e)) | Got::Cluster(Err((_, e)))) = got else {
                    panic!("{pair}: a write went through on a resizing source")
                };
                assert_eq!(e.code(), "STATE", "{pair}: {e}");
                match b_job {
                    Job::Write(s) => heal.extend(self.refused(s, &e)),
                    _ => self.log.push(format!("-- refused: {e}")),
                }
            }
            // A resize drains WLM before it turns the source read-only.
            (Job::Read(..), Got::Rows(Err(e))) if kind == Op::Resize && e.code() == "STATE" => {
                self.log.push(format!("-- refused: {e}"));
            }
            (b_job, got) => heal.extend(self.settle(b_job, got, None)),
        }
        if let Some(placed) = placed {
            let now = placed_ids(c);
            let freed: Vec<_> = placed.difference(&now).collect();
            assert!(freed.is_empty(), "{pair}: freed blocks under a parked reader: {freed:?}");
            if hydrated {
                *left = Some((pair, placed, now));
            }
        }
        None
    }

    /// A new cluster took over: it has its own version history and every
    /// node up. A restored one page-faults its blocks from S3, which the
    /// armed faults refuse at random, so they are lifted while it must
    /// show every row and re-armed after.
    fn lifecycle(&mut self) {
        self.version = self.c.catalog_version();
        self.dead = None;
        self.log.push("c.faults().clear_all()".into());
        self.c.faults().clear_all();
        self.contents();
        self.rearm();
    }

    /// A SELECT from the panel over `t`.
    fn select(&self, t: &str, a: u32, rng: &mut Pcg32) -> String {
        let table = &self.tables[t];
        let u = self.pick(rng.gen_range(0u32..3)).unwrap();
        let keys: Vec<i64> =
            table.rows.iter().filter_map(|r| r.get(table.col("k")).as_i64()).collect();
        let key =
            |rng: &mut Pcg32| keys.get(rng.gen_index(keys.len().max(1))).copied().unwrap_or(0);
        let (x, y) = (key(rng), key(rng));
        match a % 16 {
            0 => format!("SELECT * FROM {t}"),
            1 => format!("SELECT COUNT(*), COUNT(v), SUM(k), MIN(v), MAX(i4) FROM {t}"),
            2 => format!(
                "SELECT COUNT(*), SUM(i4) FROM {t} WHERE k BETWEEN {} AND {}",
                x.min(y),
                x.max(y)
            ),
            3 => format!("SELECT v, COUNT(*), MIN(k), MAX(i4) FROM {t} GROUP BY v"),
            4 => format!("SELECT COUNT(*), SUM(a.i4), MAX(b.v) FROM {t} a JOIN {u} b ON a.k = b.k"),
            5 => format!("SELECT k, i4, v FROM {t} ORDER BY k DESC, i4, v LIMIT {}", 1 + a % 20),
            // Group by the build side's VARCHAR (it leaves the join as
            // codes): inner, LEFT with NULL-padded rows, and two keys
            // across the join; NULL and duplicate keys come from the rows.
            6 => format!("SELECT b.v, COUNT(*), SUM(a.i4) FROM {t} a JOIN {u} b ON a.k = b.k GROUP BY b.v"),
            7 => format!(
                "SELECT b.v, COUNT(*), MIN(a.k) FROM {t} a LEFT JOIN {u} b ON a.k = b.k GROUP BY b.v"
            ),
            8 => format!(
                "SELECT a.v, b.v, COUNT(*), MAX(b.i4) FROM {t} a LEFT JOIN {u} b ON a.k = b.k \
                 GROUP BY a.v, b.v"
            ),
            // Positional ORDER BY, over a join and over one table.
            9 => format!(
                "SELECT b.v, a.k FROM {t} a LEFT JOIN {u} b ON a.k = b.k ORDER BY 1 DESC, 2 LIMIT {}",
                1 + a % 20
            ),
            10 => format!("SELECT v, k, i4 FROM {t} ORDER BY 2 DESC, 3, 1 LIMIT {}", 1 + a % 20),
            // Join on `i4`: negative keys, NULLs, a range of ±100,000 that
            // hashes on any build of a few rows, and INT4 against BIGINT.
            11 => format!("SELECT COUNT(*), SUM(a.k), MAX(b.v) FROM {t} a JOIN {u} b ON a.i4 = b.i4"),
            12 => format!(
                "SELECT a.i4, b.k, COUNT(*) FROM {t} a LEFT JOIN {u} b ON a.i4 = b.i4 GROUP BY a.i4, b.k"
            ),
            13 => format!("SELECT a.i4, COUNT(*), MIN(b.v) FROM {t} a JOIN {u} b ON a.i4 = b.k GROUP BY a.i4"),
            _ if table.cols.len() == WIDE.len() => {
                format!(
                    "SELECT MIN(f), MAX(f), MIN(d), MAX(ts), SUM(m), COUNT(b), MIN(i2) FROM {t}"
                )
            }
            _ => format!("SELECT k, COUNT(*) FROM {t} WHERE k < {x} GROUP BY k"),
        }
    }

    /// Crash + recover; with `torn` a statement first dies at that WAL
    /// seam under `arm_hard_crash`, leaving its blocks for the scrub.
    fn crash(&mut self, torn: u32) {
        let torn = self.pick(0).filter(|_| torn > 0 && self.dead.is_none()).map(|t| {
            let seam = [fp::WAL_APPEND, fp::WAL_SYNC, fp::WAL_COMMIT][torn as usize - 1];
            let row = gen_row(&mut Pcg32::seed_from_u64(torn as u64), self.tables[&t].cols);
            let values: Vec<String> = row.values().iter().map(literal).collect();
            let sql = format!("INSERT INTO {t} VALUES ({})", values.join(", "));
            self.log
                .push(format!("c.arm_hard_crash(); c.faults().configure({seam:?}, once); {sql};"));
            self.c.faults().clear_all();
            self.armed.clear();
            self.c.arm_hard_crash();
            self.c.faults().configure(seam, FaultSpec::err(ErrClass::Fault).once());
            let e = self.c.execute(&sql).expect_err("the torn statement committed");
            assert_retryable("torn statement", &e);
        });
        self.log.push("c = Cluster::recover(c.crash())".into());
        self.c = Cluster::recover(self.c.crash().unwrap()).unwrap();
        self.version = self.c.catalog_version();
        if torn.is_some() {
            let scrubbed = self.c.trace().counter_value("recovery.orphan_blocks_scrubbed");
            assert!(scrubbed > 0, "the torn statement's blocks must be scrubbed at recovery");
        }
        self.contents();
    }

    /// Every table holds the model's rows.
    fn contents(&self) {
        for t in self.tables.keys() {
            let sql = format!("SELECT * FROM {t}");
            assert_eq!(
                sorted(self.c.query(&sql).unwrap().rows),
                sorted(self.model_query(&sql)),
                "{sql}"
            );
        }
    }

    /// Everything the cluster says about each table equals the model.
    fn check(&self) {
        for (name, t) in &self.tables {
            assert_eq!(
                self.c.rows_estimate(name),
                Some(t.rows.len() as u64),
                "{name}: rows_estimate"
            );
            assert_eq!(
                self.c.loads_since_analyze(name),
                t.loads_since_analyze,
                "{name}: loads_since_analyze"
            );
            assert_eq!(
                self.c.table_stats(name),
                t.stats(),
                "{name}: statistics differ from the rows they cover"
            );
        }
        let info = "SELECT \"table\", tbl_rows, stats_off, unsorted, loads_since_analyze FROM svv_table_info";
        let got = self.c.query(info).unwrap().rows;
        let expect = self.tables.iter().map(|(name, t)| t.info(name)).collect();
        assert_eq!(sorted(got), sorted(expect), "svv_table_info");
    }

    /// Heal, then the quiesced invariants, then one more crash + recover
    /// is a fixpoint.
    fn quiesce(&mut self) {
        self.log.push("-- quiesce".into());
        self.c.faults().clear_all();
        self.armed.clear();
        let store = Arc::clone(self.c.replicated_store().unwrap());
        if let Some(n) = self.dead.take() {
            assert!(store.revive_node(n));
            store.re_replicate(n).unwrap();
        }
        while store.backup_backlog() > 0 {
            store.drain_backup_queue().unwrap();
        }
        while self.c.hydrate_step(64).unwrap() > 0 {}
        self.contents();
        // The orphan equation: placed blocks are the published catalog's.
        let (c, id) = (&self.c, format!("q{}", self.step));
        c.create_snapshot(&id, SnapshotKind::User).unwrap();
        let region = c.config().region.as_str();
        let mgr = BackupManager::new(Arc::clone(c.s3()), region, &c.config().name, None, 4);
        let mut published: Vec<u64> =
            mgr.load_manifest(region, &id).unwrap().2.iter().map(|b| b.0).collect();
        let mut placed: Vec<u64> = store.placed_block_ids().iter().map(|b| b.0).collect();
        (published.sort_unstable(), placed.sort_unstable());
        assert_eq!(placed, published, "placed blocks are not the published catalog's");
        assert_eq!(c.trace().open_spans(), 0, "span leak");
        assert_eq!(c.session_manager().active_count(), 0, "session leak");
        assert!(c.wlm_accounting().balanced(), "{:?}", c.wlm_accounting());
        let events =
            c.query("SELECT COUNT(*) FROM stl_fault_event").unwrap().rows[0].get(0).as_i64();
        assert_eq!(events, Some(c.faults().events().len() as i64), "stl_fault_event");
        // A park is a delay, not a fault the schedule armed.
        for e in c.faults().events().iter().filter(|e| e.action != "delay") {
            if let Some(i) = SEAMS.iter().position(|s| *s == e.failpoint) {
                INJECTED[i].fetch_add(1, Relaxed);
            }
        }
        self.crash(0);
        self.check();
    }
}

#[test]
fn one_model_checks_every_write_crash_resize_and_restore() {
    let step =
        prop::triple(prop::range(0usize..OPS.len()), prop::range(0u32..54), prop::any_int::<u64>());
    let gen = prop::pair(prop::any_int::<u64>(), prop::vec_of(step, 1..40));
    prop::check("one_model", &Config::with_cases(CASES), &gen, |(seed, schedule)| {
        let (mut run, t0) = (Run::launch(*seed), std::time::Instant::now());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (mut steps, mut after) = (schedule.iter().map(|&(op, a, b)| (OPS[op], a, b)), None);
            while let Some((op, a, b)) = after.take().or_else(|| steps.next()) {
                match op {
                    Op::Park => after = run.park(a, b, steps.next()),
                    op => run.step(op, a, b),
                }
                run.check();
            }
            run.quiesce();
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "the schedule hung: {:?}",
                t0.elapsed()
            );
        }));
        if let Err(panic) = outcome {
            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            let msg = panic.downcast_ref::<&str>().map_or(msg, |s| s.to_string());
            panic!(
                "{msg}\n-- replay ({} steps, seed {seed}):\n{}",
                schedule.len(),
                run.log.join("\n")
            );
        }
    });
    let reach: Vec<String> =
        SEAMS.iter().zip(&INJECTED).map(|(s, n)| format!("{s}={}", n.load(Relaxed))).collect();
    let parked: Vec<String> = ["select", "copy", "insert", "resize"]
        .iter()
        .zip(&PARKED)
        .map(|(kind, n)| format!("{kind}={}", n.load(Relaxed)))
        .collect();
    let (healed, refused, exhausted) =
        (HEALED.load(Relaxed), REFUSED.load(Relaxed), EXHAUSTED.load(Relaxed));
    let (waited, returned, conflicts) =
        (WAITED.load(Relaxed), RETURNED.load(Relaxed), CONFLICTS.load(Relaxed));
    let maintained = MAINTAINED.each_ref().map(|n| n.load(Relaxed));
    let [m_returned, m_refused] = maintained;
    println!(
        "one_model reach: healed={healed} refused={refused} exhausted={exhausted} parked: {} \
         waited={waited} returned={returned} conflicts={conflicts} maintenance beside a writer: \
         returned={m_returned} refused={m_refused} injected: {}",
        parked.join(" "),
        reach.join(" ")
    );
    // Not vacuous: at full depth, every seam fired, a refusal outlasted its
    // retry loop, refused statements healed, every kind of A parked, a B
    // waited, a B returned beside A and a B was refused as a conflict, and
    // maintenance beside a parked table writer both returned and was
    // refused.
    let cases: u32 =
        std::env::var("RSIM_PROP_CASES").ok().and_then(|n| n.parse().ok()).unwrap_or(CASES);
    if cases >= 16 {
        assert!(INJECTED.iter().all(|n| n.load(Relaxed) > 0), "a seam never fired: {reach:?}");
        assert!(exhausted > 0, "no refusal exhausted a retry loop");
        assert!(healed > 0, "no statement was refused, healed and rerun");
        assert!(PARKED.iter().all(|n| n.load(Relaxed) > 0), "a kind of A never parked: {parked:?}");
        assert!(waited > 0 && returned > 0, "no B waited, or none returned beside A");
        assert!(conflicts > 0, "no B was refused as a same-table conflict");
        let never = "VACUUM or ANALYZE beside a parked writer never returned, or was never refused";
        assert!(maintained.iter().all(|&n| n > 0), "{never}: {maintained:?}");
    }
}
