//! Live heap, counted by a `#[global_allocator]`. A scan streams one
//! batch per slice through filter, probe and partial aggregate, so the
//! peak `Executor::run` holds does not grow with the table; and a cached
//! result holds its dense columns and nothing more; a telemetry counter
//! or gauge that exists allocates nothing to look up. The counters are
//! process-wide, so the tests take turns.

use redshift_sim::common::{ColumnData, ColumnDef, DataType, Result, Schema, Value};
use redshift_sim::core::{Cluster, ClusterConfig, SessionOpts};
use redshift_sim::distribution::JoinDistStrategy;
use redshift_sim::engine::exec::{Executor, QueryOutput, ScanSink, TableProvider};
use redshift_sim::sql::ast::{BinaryOp, JoinType};
use redshift_sim::sql::plan::{AggExpr, AggFunc, BoundExpr, LogicalPlan, OutCol};
use redshift_sim::storage::table::ScanOutput;
use redshift_sim::storage::{MemBlockStore, ScanPredicate, SliceTable, TableConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Bytes allocated and not yet freed, and their high-water mark. Both
/// are statistics only; `Relaxed` publishes nothing else.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the ones callers get; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => _ = LIVE.fetch_sub(layout.size() - new_size, Relaxed),
            }
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Held by each test for its whole run: the counters see one test.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `fact (k BIGINT, v BIGINT, f FLOAT8)` in `groups` row groups and a
/// 64-row `dim (k BIGINT, g BIGINT)`, on one slice — one lane, so the
/// peak does not depend on how slices interleave.
struct Tables {
    store: MemBlockStore,
    fact: SliceTable,
    dim: SliceTable,
}

const ROWS_PER_GROUP: usize = 4_096;

impl Tables {
    fn new(groups: usize) -> Tables {
        let store = MemBlockStore::new();
        let table =
            |cols: &[(&str, DataType)], rows: usize, value: &dyn Fn(usize, usize) -> Value| {
                let defs = cols.iter().map(|&(n, ty)| ColumnDef::new(n, ty)).collect();
                let config = TableConfig {
                    rows_per_group: ROWS_PER_GROUP,
                    ..TableConfig::default()
                };
                let mut t = SliceTable::new(Schema::new(defs).unwrap(), config).unwrap();
                let mut batch: Vec<ColumnData> =
                    cols.iter().map(|&(_, ty)| ColumnData::new(ty)).collect();
                for row in 0..rows {
                    for (c, col) in batch.iter_mut().enumerate() {
                        col.push_value(&value(row, c)).unwrap();
                    }
                }
                t.append(&batch, &store).unwrap();
                t.flush(&store).unwrap();
                t
            };
        let fact = table(
            &[
                ("k", DataType::Int8),
                ("v", DataType::Int8),
                ("f", DataType::Float8),
            ],
            groups * ROWS_PER_GROUP,
            &|row, c| match c {
                0 => Value::Int8((row % 64) as i64),
                1 => Value::Int8(row as i64),
                _ => Value::Float8((row * 7 % 1000) as f64),
            },
        );
        let dim = table(
            &[("k", DataType::Int8), ("g", DataType::Int8)],
            64,
            &|row, c| Value::Int8(if c == 0 { row as i64 } else { (row % 8) as i64 }),
        );
        Tables { store, fact, dim }
    }
}

impl TableProvider for Tables {
    fn num_slices(&self) -> usize {
        1
    }

    fn scan_slice(
        &self,
        table: &str,
        _slice: usize,
        projection: &[usize],
        pred: &ScanPredicate,
        sink: &mut ScanSink,
    ) -> Result<ScanOutput> {
        let t = if table == "fact" {
            &self.fact
        } else {
            &self.dim
        };
        t.scan(&self.store, projection, Some(pred), sink)
    }
}

fn col(index: usize) -> BoundExpr {
    BoundExpr::Column {
        index,
        ty: DataType::Int8,
    }
}

fn out(name: &str, ty: DataType) -> OutCol {
    OutCol {
        name: name.into(),
        ty,
    }
}

fn scan(table: &str, names: &[&str], types: &[DataType]) -> LogicalPlan {
    LogicalPlan::Scan {
        table: table.into(),
        projection: (0..names.len()).collect(),
        output: names.iter().zip(types).map(|(n, &ty)| out(n, ty)).collect(),
        filter: None,
        pruning: ScanPredicate::default(),
    }
}

/// `SELECT <key>, COUNT(*), SUM(v) FROM <input> GROUP BY <key>`, `v`
/// being input column `v`.
fn count_and_sum(input: LogicalPlan, key: usize, v: usize) -> LogicalPlan {
    let agg = |func, arg, name: &str| AggExpr {
        func,
        arg,
        distinct: false,
        output_name: name.into(),
    };
    LogicalPlan::Aggregate {
        input: Box::new(input),
        group_by: vec![col(key)],
        aggs: vec![
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Sum, Some(col(v)), "s"),
        ],
        output: vec![
            out("key", DataType::Int8),
            out("n", DataType::Int8),
            out("s", DataType::Int8),
        ],
    }
}

/// Scan → filter → partial aggregate:
/// `SELECT k, COUNT(*), SUM(v) FROM fact WHERE f < 900.0 GROUP BY k`.
fn filter_aggregate() -> LogicalPlan {
    let fact = scan(
        "fact",
        &["k", "v", "f"],
        &[DataType::Int8, DataType::Int8, DataType::Float8],
    );
    let predicate = BoundExpr::Binary {
        left: Box::new(BoundExpr::Column {
            index: 2,
            ty: DataType::Float8,
        }),
        op: BinaryOp::Lt,
        right: Box::new(BoundExpr::Literal(Value::Float8(900.0))),
    };
    count_and_sum(
        LogicalPlan::Filter {
            input: Box::new(fact),
            predicate,
        },
        0,
        1,
    )
}

/// Scan → probe → aggregate against a 64-row build side:
/// `SELECT g, COUNT(*), SUM(v) FROM fact JOIN dim ON fact.k = dim.k GROUP BY g`.
fn probe_aggregate() -> LogicalPlan {
    let join = LogicalPlan::Join {
        left: Box::new(scan("fact", &["k", "v"], &[DataType::Int8; 2])),
        right: Box::new(scan("dim", &["k", "g"], &[DataType::Int8; 2])),
        join_type: JoinType::Inner,
        left_key: 0,
        right_key: 0,
        residual: None,
        strategy: JoinDistStrategy::DistNone,
        emit: vec![1, 3],
    };
    count_and_sum(join, 1, 0)
}

/// The most heap live at once during `plan`'s run, above what was live
/// when it began.
fn peak_of_run(tables: &Tables, plan: &LogicalPlan) -> (QueryOutput, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let out = Executor::new(tables).run(plan).unwrap();
    (out, PEAK.load(Relaxed) - start)
}

#[test]
fn peak_heap_is_flat_as_the_table_grows() {
    let _turn = one_at_a_time();
    const N: usize = 4;
    for (name, plan) in [
        ("scan→filter→aggregate", filter_aggregate()),
        ("scan→probe→aggregate", probe_aggregate()),
    ] {
        let peaks: Vec<usize> = [N, 8 * N]
            .into_iter()
            .map(|groups| {
                let tables = Tables::new(groups);
                Executor::new(&tables).run(&plan).unwrap(); // warm the worker pool
                let (out, peak) = peak_of_run(&tables, &plan);
                let rows = out.rows();
                let counted: i64 = rows.iter().map(|r| r.get(1).as_i64().unwrap()).sum();
                assert!(
                    counted > 0 && counted <= (groups * ROWS_PER_GROUP) as i64,
                    "{name}"
                );
                peak
            })
            .collect();
        let (small, large) = (peaks[0], peaks[1]);
        assert!(
            large * 4 < small * 5,
            "{name}: peak heap grew {small} -> {large} bytes from {N} to {} row groups",
            8 * N
        );
    }
}

/// The most heap live at once during one COPY of `objects` staged CSV
/// objects of `rows` rows each, above the heap live after it: what the
/// load held and let go of — the table it wrote stays live after.
fn copy_transient(objects: usize, rows: usize) -> usize {
    let c = Cluster::launch(ClusterConfig::new("copy-heap").nodes(2).slices_per_node(2)).unwrap();
    for t in ["warm", "t"] {
        c.execute(&format!(
            "CREATE TABLE {t} (k BIGINT, v BIGINT, f FLOAT8, s VARCHAR(16))"
        ))
        .unwrap();
    }
    let csv = |o: usize| -> Vec<u8> {
        (o * rows..(o + 1) * rows)
            .map(|i| format!("{i},{},{}.25,s-{}\n", i % 1_000, i % 97, i % 251))
            .collect::<String>()
            .into_bytes()
    };
    c.put_s3_object("warm/0", csv(0));
    c.execute("COPY warm FROM 's3://warm/'").unwrap(); // warm the pool, the WAL, the trace
    for o in 0..objects {
        c.put_s3_object(&format!("t/{o:04}"), csv(o));
    }
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let loaded = c.execute("COPY t FROM 's3://t/'").unwrap().rows_affected;
    assert_eq!(loaded as usize, objects * rows);
    PEAK.load(Relaxed) - LIVE.load(Relaxed)
}

/// COPY streams line-aligned units through parse, route and append, so
/// what a load holds in flight does not grow with it: from a load of N to
/// one of 8N, the transient heap grows by less than a quarter. N scales
/// with the worker count, so the small load already keeps every worker
/// busy. Each load's transient is the most of three runs: the peak comes
/// when one batch's parse overlaps the previous batch's append, by a
/// margin scheduling decides, and a small load has only one or two such
/// overlaps to reach it. On 2 workers, one run of a 32k-row object held
/// 1.86-2.31 MB, of a 256k-row one 2.38-2.44 MB, of a 512k-row one
/// 2.32-2.34 MB: the load is flat, a single small run is not its peak.
fn assert_copy_heap_flat(name: &str, transient_at: impl Fn(usize) -> usize) {
    let n = redshift_sim::testkit::par::available_workers().div_ceil(8);
    let most = |size| (0..3).map(|_| transient_at(size)).max().expect("three runs");
    let (small, large) = (most(n), most(8 * n));
    assert!(
        large * 4 < small * 5,
        "{name}: COPY's transient heap grew {small} -> {large} bytes from N to 8N"
    );
}

#[test]
fn copy_heap_is_flat_as_objects_multiply() {
    let _turn = one_at_a_time();
    assert_copy_heap_flat("8 vs 64 objects of 4,096 rows", |n| {
        copy_transient(8 * n, 4_096)
    });
}

#[test]
fn copy_heap_is_flat_as_an_object_grows() {
    let _turn = one_at_a_time();
    assert_copy_heap_flat("one object of 32k vs 256k rows", |n| {
        copy_transient(1, 32_768 * n)
    });
}

#[test]
fn a_cached_result_holds_its_columns_and_nothing_more() {
    let _turn = one_at_a_time();
    const ROWS: usize = 10_000;
    // Small row groups: the result arrives in many chunks, so a batch
    // built by appending them has spare capacity unless it is trimmed.
    let c = Cluster::launch(
        ClusterConfig::new("cache-bytes")
            .nodes(1)
            .slices_per_node(2)
            .rows_per_group(1_000),
    )
    .unwrap();
    c.execute("CREATE TABLE t (k BIGINT, f FLOAT8, d DATE, b BOOLEAN)")
        .unwrap();
    let csv: String = (0..ROWS)
        .map(|i| match i % 10 {
            0 => format!("{i},,,\n"),
            _ => format!(
                "{i},{}.5,2015-01-{:02},{}\n",
                i % 97,
                1 + i % 28,
                i % 2 == 0
            ),
        })
        .collect();
    c.put_s3_object("t/0", csv.into_bytes());
    c.execute("COPY t FROM 's3://t/'").unwrap();
    let cached = c.connect(SessionOpts::new("dash")).unwrap();
    let uncached = c
        .connect(SessionOpts::new("dash").result_cache(false))
        .unwrap();
    // What a session's query leaves behind once its reply is dropped.
    let left_behind = |s: &redshift_sim::core::Session, sql: &str| {
        let before = LIVE.load(Relaxed) as i64;
        let rows = s.query(sql).unwrap().rows.len();
        assert_eq!(rows, ROWS);
        LIVE.load(Relaxed) as i64 - before
    };
    // Each sample is a cached run's leftovers less an uncached run's
    // (trace records, statistics): the entry. The median shrugs off a
    // sample that caught a trace buffer growing.
    let mut entries: Vec<i64> = (0..5)
        .map(|i| {
            let sql = format!("SELECT k AS k{i}, f, d, b FROM t");
            left_behind(&uncached, &sql); // compiles the plan both runs reuse
            let other = left_behind(&uncached, &sql);
            left_behind(&cached, &sql) - other
        })
        .collect();
    entries.sort_unstable();
    let entry = entries[2];
    let columns: i64 = [
        DataType::Int8,
        DataType::Float8,
        DataType::Date,
        DataType::Bool,
    ]
    .into_iter()
    .map(|ty| {
        let mut c = ColumnData::new(ty);
        (0..ROWS).for_each(|_| c.push_null());
        c.byte_size() as i64
    })
    .sum();
    // Beyond the columns: the key, the plan text, four column names and
    // the LRU's bookkeeping.
    const ALLOWANCE: i64 = 2_048;
    assert!(
        entry <= columns + ALLOWANCE,
        "a cached {ROWS}-row entry holds {entry} bytes; its columns' byte_size is {columns} (samples {entries:?})"
    );
    assert!(
        entry * 10 >= columns * 9,
        "the entry was not measured: {entry} of {columns} bytes ({entries:?})"
    );
}

#[test]
fn a_counter_or_gauge_hit_allocates_nothing() {
    let _turn = one_at_a_time();
    let sink = redshift_sim::obs::TraceSink::new();
    sink.counter("copy.rows_loaded").incr();
    sink.gauge("wlm.queued").set(1);
    let usage = redshift_sim::core::UsageStats::default();
    usage.record_feature("SELECT");
    usage.record_error("FAULT");
    // Several counters run on every statement's path: after first use a
    // lookup must not build the name's `String`. The least of three
    // windows, as the test harness's own thread may allocate in one.
    let grown = (0..3).map(|_| {
        let live = LIVE.load(Relaxed);
        PEAK.store(live, Relaxed);
        for _ in 0..100 {
            sink.counter("copy.rows_loaded").incr();
            sink.gauge("wlm.queued").add(1);
            usage.record_feature("SELECT");
            usage.record_error("FAULT");
        }
        PEAK.load(Relaxed) - live
    });
    assert_eq!(grown.min(), Some(0), "a hit allocated");
}
