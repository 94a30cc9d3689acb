//! One model for every write, crash, resize and restore.
//!
//! A deliberately naive model — a `Vec<Row>` per table, queried through
//! `engine::baseline::run_plan` with the SQL bound against a
//! `sql::catalog::StaticCatalog` of the same tables — steps in lockstep
//! with a `Cluster` under one generated, shrinking schedule: CREATE /
//! DROP, COPY (several objects, sometimes `STATUPDATE OFF`, sometimes a
//! malformed object), INSERT, VACUUM, ANALYZE, `redistribute_all`,
//! SELECTs from a panel, crash + recover (sometimes with a statement torn
//! at a WAL seam), resize, snapshot + restore at a random hydration, node
//! kill / revive, backup drain and transient failpoints.
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
//! is a fixpoint.
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
use redshift_sim::storage::table::SortKeySpec;
use redshift_sim::testkit::prop::{self, Config};
use redshift_sim::testkit::rng::{Pcg32, Rng};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Cases per run, unless `RSIM_PROP_CASES` says otherwise.
const CASES: u32 = 48;
/// Refused statements the harness healed and reran, over every case.
static HEALED: AtomicU64 = AtomicU64::new(0);

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

/// Chaos's nine seams, then the three WAL seams.
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

#[derive(Clone, Copy)]
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
}

/// Steps draw from this list, so repeats weight an op; shrinking moves a
/// step toward the front.
const OPS: [Op; 20] = [
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
    ClusterConfig::new(name).nodes(nodes).slices_per_node(slices).rows_per_group(32).retry(retry())
}

fn assert_retryable(ctx: &str, e: &RsError) {
    assert!(e.is_retryable(), "{ctx}: a refusal under transient faults must be retryable: {e}");
}

/// A write's outcome, as the model predicts it.
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

    fn write(&mut self, sql: &str, expect: Expect, next: BTreeMap<String, Table>) {
        self.apply(&format!("{sql};"), expect, next, |c| c.execute(sql).map(|s| s.rows_affected));
    }

    /// Run a write, which returns the rows it affected. On success the
    /// model takes `next`. A refusal moves nothing the model can see;
    /// with every node up the harness then heals its cause — clears the
    /// failpoints, or blanks the malformed object — and reruns the call,
    /// which must commit, before it re-arms the failpoints.
    fn apply(
        &mut self,
        call: &str,
        expect: Expect,
        next: BTreeMap<String, Table>,
        run: impl Fn(&Cluster) -> Result<u64, RsError>,
    ) {
        self.log.push(call.to_string());
        let c = Arc::clone(&self.c);
        let loaded = c.trace().counter_value("copy.rows_loaded");
        // A refused statement leaves the nodes' bytes as they were, unless
        // a node is down or its reads hydrated a restore's blocks.
        let bytes = (self.dead.is_none() && c.hydration_progress() >= 1.0)
            .then(|| c.replicated_store().unwrap().local_bytes());
        let e = match run(&c) {
            Ok(affected) => return self.committed(call, expect, next, affected),
            Err(e) => e,
        };
        self.log.push(format!("-- refused: {e}"));
        let seams: Vec<&str> = self.armed.iter().map(|(seam, _)| *seam).collect();
        if let Expect::Malformed { .. } = expect {
            if seams.is_empty() && self.dead.is_none() {
                assert_eq!(e.code(), "ANALYSIS", "{call} {e}");
            }
        } else {
            assert_retryable(call, &e);
            // With every node up the error names the seam that refused.
            if self.dead.is_none() {
                assert!(
                    seams.iter().any(|s| e.to_string().contains(s)),
                    "{call} names none of {seams:?}: {e}"
                );
            }
        }
        assert_eq!(c.catalog_version(), self.version, "{call} refused, and moved catalog_version");
        assert_eq!(
            c.trace().counter_value("copy.rows_loaded"),
            loaded,
            "{call} refused, and counted its rows"
        );
        if let Some(bytes) = bytes {
            let after = c.replicated_store().unwrap().local_bytes();
            assert_eq!(after, bytes, "{call} refused, and left blocks on the nodes");
        }
        if self.dead.is_some() {
            return;
        }
        self.log.push("c.faults().clear_all()".into());
        c.faults().clear_all();
        let expect = match expect {
            Expect::Malformed { key, rows } => {
                self.put(&key, String::new());
                Expect::Load(rows)
            }
            expect => expect,
        };
        self.log.push(call.to_string());
        let affected = run(&c).unwrap_or_else(|e| panic!("{call} refused after healing: {e}"));
        self.committed(call, expect, next, affected);
        HEALED.fetch_add(1, Relaxed);
        for (seam, spec) in &self.armed {
            c.faults().configure(seam, *spec);
        }
    }

    fn committed(
        &mut self,
        call: &str,
        expect: Expect,
        next: BTreeMap<String, Table>,
        affected: u64,
    ) {
        let version = self.c.catalog_version();
        match expect {
            Expect::Malformed { .. } => panic!("{call} committed what the model refuses"),
            Expect::NoOp => {
                return assert_eq!(version, self.version, "{call} is a no-op, and published")
            }
            Expect::Load(rows) => assert_eq!(affected, rows, "{call}: rows_affected"),
            Expect::Commit => {}
        }
        assert!(version > self.version, "{call} committed, and left catalog_version at {version}");
        (self.version, self.tables) = (version, next);
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

    fn create(&mut self, a: u32) {
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
        let mut next = self.tables.clone();
        let table = Table {
            cols,
            dist,
            sort,
            rows: vec![],
            covered: None,
            unsorted: 0,
            loads_since_analyze: 0,
        };
        next.insert(name, table);
        self.write(&sql, Expect::Commit, next);
    }

    fn step(&mut self, op: Op, a: u32, b: u64) {
        self.step += 1;
        let mut rng = Pcg32::seed_from_u64(b);
        let picked = self.pick(a);
        let writes = matches!(op, Op::Copy | Op::Insert | Op::Select | Op::Vacuum | Op::Analyze);
        if picked.is_none() && (writes || matches!(op, Op::Redistribute)) {
            return self.create(a);
        }
        let t = picked.unwrap_or_default();
        let mut next = self.tables.clone();
        match op {
            Op::Ddl if self.tables.contains_key(&format!("t{}", a % 3)) => {
                let name = format!("t{}", a % 3);
                next.remove(&name);
                self.write(&format!("DROP TABLE {name}"), Expect::Commit, next);
            }
            Op::Ddl => self.create(a),
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
                next.get_mut(&t).unwrap().load(&rows, statupdate);
                let mut expect = Expect::Load(rows.len() as u64);
                if malformed {
                    let key = format!("{prefix}z");
                    self.put(&key, "not-a-row|x\n".into());
                    expect = Expect::Malformed { key, rows: rows.len() as u64 };
                }
                let off = if statupdate { "" } else { " STATUPDATE OFF" };
                self.write(
                    &format!("COPY {t} FROM 's3://{prefix}' DELIMITER '|'{off}"),
                    expect,
                    next,
                );
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
                next.get_mut(&t).unwrap().load(&rows, true);
                let expect = Expect::Load(rows.len() as u64);
                self.write(&format!("INSERT INTO {t} VALUES {}", tuples.join(", ")), expect, next);
            }
            Op::Select => self.select(&t, a, &mut rng),
            Op::Vacuum => {
                next.get_mut(&t).unwrap().unsorted = 0;
                self.write(&format!("VACUUM {t}"), Expect::Commit, next);
            }
            Op::Analyze => {
                let table = next.get_mut(&t).unwrap();
                table.covered = Some(table.rows.clone());
                table.loads_since_analyze = 0;
                self.write(&format!("ANALYZE {t}"), Expect::Commit, next);
            }
            Op::Redistribute => {
                let expect = match self.tables[&t].dist {
                    DistStyle::All => Expect::NoOp,
                    _ => Expect::Commit,
                };
                let table = next.get_mut(&t).unwrap();
                (table.dist, table.unsorted) = (DistStyle::All, 0);
                self.apply(&format!("c.redistribute_all({t:?})"), expect, next, |c| {
                    c.redistribute_all(&t).map(|()| 0)
                });
            }
            Op::Crash => self.crash(a % 4),
            Op::Resize => {
                let (nodes, slices) = [(1, 2), (3, 1), (2, 2), (2, 1)][a as usize % 4];
                self.log.push(format!("c = c.resize({nodes}, {slices})"));
                match self.c.resize(nodes, slices) {
                    Ok(target) => {
                        self.c = target;
                        // A re-laid-out table is sorted.
                        self.tables.values_mut().for_each(|t| t.unsorted = 0);
                        self.lifecycle();
                    }
                    Err(e) => assert_retryable("resize", &e),
                }
            }
            Op::Restore => {
                let (id, from) = (format!("s{}", self.step), self.c.config().clone());
                let hydrate = a as usize % 48;
                self.log.push(format!(
                    "c.create_snapshot({id:?}); c = restore({id:?}); c.hydrate_step({hydrate})"
                ));
                if let Err(e) = self.c.create_snapshot(&id, SnapshotKind::User) {
                    return assert_retryable("snapshot", &e);
                }
                let to =
                    config(format!("r{}", self.step), from.nodes, from.slices_per_node).seed(b);
                let s3 = Arc::clone(self.c.s3());
                match Cluster::restore_from_snapshot(to, s3, &from.region, &from.name, &id, None) {
                    Ok(r) => {
                        if let Err(e) = r.hydrate_step(hydrate) {
                            assert_retryable("hydrate_step", &e);
                        }
                        self.c = r;
                        self.lifecycle();
                    }
                    Err(e) => assert_retryable("restore", &e),
                }
            }
            Op::Node => {
                let store = Arc::clone(self.c.replicated_store().unwrap());
                match self.dead.take() {
                    Some(n) => {
                        self.log
                            .push(format!("store.revive_node({n:?}); store.re_replicate({n:?})"));
                        assert!(store.revive_node(n), "revive of a dead node must report true");
                        if let Err(e) = store.re_replicate(n) {
                            assert_retryable("re_replicate", &e);
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
                let p = [0.05, 0.15, 0.25][(b % 3) as usize];
                self.log.push(format!(
                    "c.faults().configure({seam:?}, FaultSpec::err({class:?}).prob({p}))"
                ));
                let spec = FaultSpec::err(class).prob(p);
                self.c.faults().configure(seam, spec);
                self.armed.push((seam, spec));
            }
        }
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
        self.log.push("-- re-arm every fault configured above".into());
        for (seam, spec) in &self.armed {
            self.c.faults().configure(seam, *spec);
        }
    }

    fn select(&mut self, t: &str, a: u32, rng: &mut Pcg32) {
        let table = &self.tables[t];
        let u = self.pick(rng.gen_range(0u32..3)).unwrap();
        let keys: Vec<i64> =
            table.rows.iter().filter_map(|r| r.get(table.col("k")).as_i64()).collect();
        let key =
            |rng: &mut Pcg32| keys.get(rng.gen_index(keys.len().max(1))).copied().unwrap_or(0);
        let (x, y) = (key(rng), key(rng));
        let sql = match a % 16 {
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
        };
        self.log.push(format!("{sql};"));
        match self.c.query(&sql) {
            Ok(got) if sql.contains("ORDER BY") => {
                assert_eq!(got.rows, self.model_query(&sql), "{sql}")
            }
            Ok(got) => assert_eq!(sorted(got.rows), sorted(self.model_query(&sql)), "{sql}"),
            Err(e) => assert_retryable(&sql, &e),
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
            for &(op, a, b) in schedule {
                run.step(OPS[op], a, b);
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
    // Not vacuous: at full depth, faults fired and refused statements healed.
    let cases: u32 =
        std::env::var("RSIM_PROP_CASES").ok().and_then(|n| n.parse().ok()).unwrap_or(CASES);
    assert!(cases < 16 || HEALED.load(Relaxed) > 0, "no statement was refused, healed and rerun");
}
