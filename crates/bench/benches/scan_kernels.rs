//! Scan-pipeline kernels bench — the tentpole measurements for the
//! vectorized predicate kernels and the bounded worker pool.
//!
//! Three groups, one CSV (`results/scan_kernels.csv`, gated by
//! `benchdiff` p50 *and* p99 against the committed baseline) and one
//! JSON point (`BENCH_scan_kernels.json`):
//!
//! * `scan_pipeline` — the same scan→filter→aggregate loop twice: once
//!   through the typed kernels (`engine::kernels`, what
//!   `eval_predicate` runs), once through the row interpreter
//!   (`interp::eval_row`: the reference, and production's fallback),
//!   for five predicate shapes: the original two-lane comparison
//!   (`kernel` / `interp`), an arithmetic operand (`arith`),
//!   `LIKE` with a prefix pattern (`like_prefix`) and with one that
//!   needs backtracking (`like_general`). Each pair must return
//!   identical selections (asserted per batch before timing).
//!   `agg_minmax` times a whole filter + MIN/MAX aggregate plan through
//!   the executor (typed accumulators over `(batch, selection)`)
//!   against the row-at-a-time `baseline` engine on the same plan and
//!   rows, results asserted equal first.
//! * `spawn_vs_pool` — `testkit::par::map_indexed` (persistent
//!   work-stealing pool) vs a fresh `thread::scope` spawn per item, at
//!   fan-out sizes bracketing the old thread-per-item design's sweet
//!   spot. See EXPERIMENTS.md for the crossover recipe.
//! * `encode` — one-pass bytedict build on the E9 low-cardinality text
//!   shape (the `slot_hash`/`slot_eq` dictionary, no per-row `Writer`).
//!
//! Regenerate after an intentional perf change with
//!   cargo bench --offline -p redsim-bench --bench scan_kernels
//! and copy results/scan_kernels.csv over results/scan_kernels_baseline.csv.

use redsim_common::{ColumnData, DataType, FxHashMap, Result, Row, Value};
use redsim_engine::baseline::{self, RowStore};
use redsim_engine::exec::{Executor, TableProvider};
use redsim_engine::expr::{eval_predicate, eval_predicate_interp};
use redsim_engine::Selection;
use redsim_sql::ast::BinaryOp;
use redsim_sql::plan::{AggExpr, AggFunc, BoundExpr, LogicalPlan, OutCol};
use redsim_storage::encoding::{encode_column, Encoding};
use redsim_storage::table::{ScanOutput, ScanPredicate};
use redsim_testkit::bench::{Bench, BenchmarkId};
use redsim_testkit::par;

const BATCHES: usize = 32;
const ROWS: usize = 4_096;

/// Batches of (k Int8, v Float8, s Varchar) with ~1/16 NULLs and a
/// predicate selectivity around 5%.
fn make_batches() -> Vec<Vec<ColumnData>> {
    (0..BATCHES)
        .map(|b| {
            let mut k = ColumnData::new(DataType::Int8);
            let mut v = ColumnData::new(DataType::Float8);
            let mut s = ColumnData::new(DataType::Varchar);
            for i in 0..ROWS {
                let x = (b * ROWS + i) as i64;
                if x % 16 == 5 {
                    k.push_null();
                } else {
                    k.push_value(&Value::Int8(x % 64)).unwrap();
                }
                v.push_value(&Value::Float8((x.wrapping_mul(2_654_435_761) % 1000) as f64))
                    .unwrap();
                s.push_value(&Value::Str(format!("tag-{}", x % 100))).unwrap();
            }
            vec![k, v, s]
        })
        .collect()
}

fn col(index: usize) -> Box<BoundExpr> {
    let ty = [DataType::Int8, DataType::Float8, DataType::Varchar][index];
    Box::new(BoundExpr::Column { index, ty })
}

fn bin(left: Box<BoundExpr>, op: BinaryOp, right: Box<BoundExpr>) -> Box<BoundExpr> {
    Box::new(BoundExpr::Binary { left, op, right })
}

fn lit(v: Value) -> Box<BoundExpr> {
    Box::new(BoundExpr::Literal(v))
}

fn like(pattern: &str) -> Box<BoundExpr> {
    Box::new(BoundExpr::Like { expr: col(2), pattern: pattern.into(), negated: false })
}

/// `v > 950.0`, the ~5% conjunct every shape ends in.
fn v_high() -> Box<BoundExpr> {
    bin(col(1), BinaryOp::Gt, lit(Value::Float8(950.0)))
}

/// The timed predicate shapes: (row label, predicate).
fn predicates() -> Vec<(&'static str, BoundExpr)> {
    let shape = |first: Box<BoundExpr>| *bin(first, BinaryOp::And, v_high());
    vec![
        // `k < 32 AND v > 950.0` — the PR 10 shape, rows `kernel`/`interp`.
        ("", shape(bin(col(0), BinaryOp::Lt, lit(Value::Int8(32))))),
        // `k + 0 < 32 AND …` — an arithmetic operand.
        (
            "arith",
            shape(bin(bin(col(0), BinaryOp::Add, lit(Value::Int8(0))), BinaryOp::Lt, lit(Value::Int8(32)))),
        ),
        // `s LIKE 'tag-1%' AND …` — prefix shape, no backtracking.
        ("like_prefix", shape(like("tag-1%"))),
        // `s LIKE 't%g-_1' AND …` — `%` inside and `_`: the general matcher.
        ("like_general", shape(like("t%g-_1"))),
    ]
}

/// Shared tail of the pipeline: group the selected rows by k, sum v.
fn aggregate_selected(batch: &[ColumnData], sel: &Selection, acc: &mut FxHashMap<i64, f64>) {
    sel.for_each(|_, i| {
        if let (Some(k), Some(v)) = (batch[0].get_i64(i), batch[1].get_f64(i)) {
            *acc.entry(k).or_insert(0.0) += v;
        }
    });
}

/// The bench's batches as a one-slice table, for the executor …
struct OneSlice<'a>(&'a [Vec<ColumnData>]);

impl TableProvider for OneSlice<'_> {
    fn num_slices(&self) -> usize {
        1
    }

    fn scan_slice(
        &self,
        _table: &str,
        _slice: usize,
        projection: &[usize],
        _pred: &ScanPredicate,
    ) -> Result<ScanOutput> {
        let batches: Vec<Vec<ColumnData>> =
            self.0.iter().map(|b| projection.iter().map(|&c| b[c].clone()).collect()).collect();
        Ok(ScanOutput { groups_total: batches.len(), batches, ..ScanOutput::default() })
    }
}

/// … and as a heap of rows, for the row-at-a-time baseline.
fn row_store(batches: &[Vec<ColumnData>]) -> RowStore {
    let mut rows = Vec::with_capacity(BATCHES * ROWS);
    for b in batches {
        for i in 0..ROWS {
            rows.push(Row::new(b.iter().map(|c| c.get(i)).collect()));
        }
    }
    let mut store = RowStore::new();
    store.insert_table("t", rows);
    store
}

/// `SELECT MIN(v), MAX(v), MIN(k), MAX(k) FROM t WHERE k <> 7 AND v < 900.0`
/// — the `adhoc_scan` minmax shape: most rows survive the filter.
fn minmax_plan() -> LogicalPlan {
    let out = |name: &str, ty| OutCol { name: name.into(), ty };
    let agg = |func, c: usize, name: &str| AggExpr {
        func,
        arg: Some(*col(c)),
        distinct: false,
        output_name: name.into(),
    };
    let filter = bin(
        bin(col(0), BinaryOp::NotEq, lit(Value::Int8(7))),
        BinaryOp::And,
        bin(col(1), BinaryOp::Lt, lit(Value::Float8(900.0))),
    );
    LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Scan {
            table: "t".into(),
            projection: vec![0, 1],
            output: vec![out("k", DataType::Int8), out("v", DataType::Float8)],
            filter: Some(*filter),
            pruning: ScanPredicate::default(),
        }),
        group_by: Vec::new(),
        aggs: vec![
            agg(AggFunc::Min, 1, "min_v"),
            agg(AggFunc::Max, 1, "max_v"),
            agg(AggFunc::Min, 0, "min_k"),
            agg(AggFunc::Max, 0, "max_k"),
        ],
        output: vec![
            out("min_v", DataType::Float8),
            out("max_v", DataType::Float8),
            out("min_k", DataType::Int8),
            out("max_k", DataType::Int8),
        ],
    }
}

fn bench_scan_pipeline(b: &mut Bench, batches: &[Vec<ColumnData>]) {
    let preds = predicates();
    // The two paths must agree before we time anything.
    for (shape, pred) in &preds {
        for batch in batches {
            let kernel = eval_predicate(pred, batch, ROWS).unwrap();
            let interp = eval_predicate_interp(pred, batch, ROWS).unwrap();
            assert_eq!(kernel, interp, "kernel/interp disagreement on {shape:?}");
        }
    }
    let plan = minmax_plan();
    let provider = OneSlice(batches);
    let store = row_store(batches);
    let typed = Executor::new(&provider).run(&plan).unwrap();
    assert_eq!(typed.metrics.interp_fallback, 0, "minmax filter left the kernels");
    assert_eq!(typed.rows, baseline::run_plan(&plan, &store).unwrap(), "typed/row aggregate disagreement");

    let mut g = b.group("scan_pipeline");
    g.sample_size(10);
    g.throughput_elems((BATCHES * ROWS) as u64);
    for (shape, pred) in &preds {
        g.bench_with_input(BenchmarkId::new("kernel", shape), pred, |bch, pred| {
            bch.iter(|| {
                let mut acc = FxHashMap::default();
                for batch in batches {
                    let sel = eval_predicate(pred, batch, ROWS).unwrap();
                    aggregate_selected(batch, &sel, &mut acc);
                }
                acc.len()
            });
        });
        g.bench_with_input(BenchmarkId::new("interp", shape), pred, |bch, pred| {
            bch.iter(|| {
                let mut acc = FxHashMap::default();
                for batch in batches {
                    let sel = eval_predicate_interp(pred, batch, ROWS).unwrap();
                    aggregate_selected(batch, &sel, &mut acc);
                }
                acc.len()
            });
        });
    }
    g.bench_with_input(BenchmarkId::new("kernel", "agg_minmax"), &plan, |bch, plan| {
        bch.iter(|| Executor::new(&provider).run(plan).unwrap().rows.len());
    });
    g.bench_with_input(BenchmarkId::new("interp", "agg_minmax"), &plan, |bch, plan| {
        bch.iter(|| baseline::run_plan(plan, &store).unwrap().len());
    });
    g.finish();
}

fn bench_spawn_vs_pool(b: &mut Bench) {
    // Per-item work small enough that thread spawn overhead dominates at
    // high fan-out: ~2us of integer mixing.
    fn work(i: usize) -> u64 {
        let mut h = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
        for _ in 0..600 {
            h = h.wrapping_mul(0x517c_c1b7_2722_0a95).rotate_left(17);
        }
        h
    }

    let mut g = b.group("spawn_vs_pool");
    g.sample_size(10);
    for n in [64usize, 512, 4096] {
        g.bench_with_input(BenchmarkId::new("pool", n), &n, |bch, &n| {
            bch.iter(|| par::map_indexed(n, work).iter().copied().sum::<u64>());
        });
        g.bench_with_input(BenchmarkId::new("spawn", n), &n, |bch, &n| {
            bch.iter(|| {
                let mut out = vec![0u64; n];
                std::thread::scope(|s| {
                    for (i, slot) in out.iter_mut().enumerate() {
                        s.spawn(move || *slot = work(i));
                    }
                });
                out.iter().copied().sum::<u64>()
            });
        });
    }
    g.finish();
}

/// The pre-change dictionary build, kept here as the speedup reference:
/// serialize every row into a fresh `Writer`, key a `HashMap` on the
/// owned bytes (cloned on every lookup), check overflow after insert.
/// Same output ordering as the one-pass build, so the ratio measured in
/// one bench run is apples-to-apples and immune to machine drift.
fn dict_codes_two_pass_ref(col: &ColumnData) -> (Vec<u8>, Vec<u32>) {
    use redsim_common::codec::Writer;
    let mut index_of: std::collections::HashMap<Vec<u8>, u32> = std::collections::HashMap::new();
    let mut dict_w = Writer::new();
    let mut codes: Vec<u32> = Vec::with_capacity(col.len());
    let mut dict_len = 0u32;
    for i in 0..col.len() {
        let mut one = Writer::new();
        write_one_ref(col, i, &mut one);
        let key = one.into_bytes();
        let code = *index_of.entry(key.clone()).or_insert_with(|| {
            dict_w.put_raw(&key);
            let c = dict_len;
            dict_len += 1;
            c
        });
        assert!(dict_len <= 65_536);
        codes.push(code);
    }
    (dict_w.into_bytes(), codes)
}

/// Row serializer matching `storage::encoding::write_one` for the two
/// column types this bench exercises.
fn write_one_ref(col: &ColumnData, i: usize, w: &mut redsim_common::codec::Writer) {
    match col {
        ColumnData::Int8 { data, .. } => w.put_i64(data[i]),
        ColumnData::Str { data, .. } => w.put_str(data.get(i)),
        _ => unreachable!("bench covers Int8 and Str shapes"),
    }
}

fn bench_encode(b: &mut Bench) {
    // The E9 low-cardinality text shape (bytedict's home turf) plus an
    // integer shape that stresses the hash table with 50k lookups.
    let regions = ["us-east", "us-west", "eu-central", "ap-south"];
    let mut lowcard = ColumnData::new(DataType::Varchar);
    let mut smallint = ColumnData::new(DataType::Int8);
    for i in 0..50_000usize {
        lowcard.push_value(&Value::Str(regions[i % 4].into())).unwrap();
        smallint.push_value(&Value::Int8((i as i64 * 37) % 100)).unwrap();
    }

    let mut g = b.group("encode");
    g.sample_size(10);
    g.throughput_elems(50_000);
    g.bench_function("bytedict_text_lowcard", |bch| {
        bch.iter(|| encode_column(&lowcard, Encoding::Dict).unwrap().len());
    });
    g.bench_function("bytedict_int_small", |bch| {
        bch.iter(|| encode_column(&smallint, Encoding::Dict).unwrap().len());
    });
    g.bench_function("bytedict_ref_text_lowcard", |bch| {
        bch.iter(|| dict_codes_two_pass_ref(&lowcard).1.len());
    });
    g.bench_function("bytedict_ref_int_small", |bch| {
        bch.iter(|| dict_codes_two_pass_ref(&smallint).1.len());
    });
    g.finish();
}

fn main() {
    let mut b = Bench::new("scan_kernels");
    b.json_summary_to("BENCH_scan_kernels.json");
    let batches = make_batches();
    bench_scan_pipeline(&mut b, &batches);
    bench_spawn_vs_pool(&mut b);
    bench_encode(&mut b);
    let records = b.finish();

    // Print the headline ratios so a bench run documents itself.
    let p50 = |bench: &str, input: &str| {
        records
            .iter()
            .find(|r| r.bench == bench && r.input == input)
            .map(|r| r.p50_ns)
            .unwrap_or(f64::NAN)
    };
    println!();
    for shape in ["", "arith", "like_prefix", "like_general", "agg_minmax"] {
        println!(
            "scan_pipeline {shape:<12}: interp/kernel p50 ratio = {:.1}x",
            p50("interp", shape) / p50("kernel", shape)
        );
    }
    for n in ["64", "512", "4096"] {
        println!(
            "spawn_vs_pool n={n}: spawn/pool p50 ratio = {:.1}x",
            p50("spawn", n) / p50("pool", n)
        );
    }
    for shape in ["text_lowcard", "int_small"] {
        println!(
            "encode {shape}: two-pass-ref/one-pass p50 ratio = {:.1}x",
            p50(&format!("bytedict_ref_{shape}"), "")
                / p50(&format!("bytedict_{shape}"), "")
        );
    }
}
