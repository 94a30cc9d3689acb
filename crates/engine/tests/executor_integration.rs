//! Executor integration tests against an in-memory TableProvider: every
//! join strategy produces identical results, exchange byte accounting is
//! consistent, and per-slice parallel execution matches a serial oracle.

use redsim_common::{ColumnData, DataType, Result, Value};
use redsim_distribution::style::dist_hash;
use redsim_distribution::JoinDistStrategy;
use redsim_engine::exec::{Executor, ScanSink, TableProvider};
use redsim_sql::ast::JoinType;
use redsim_sql::plan::{BoundExpr, LogicalPlan, OutCol};
use redsim_storage::table::{ScanOutput, ScanPredicate};
use std::collections::HashMap;

/// A fixture provider: table → per-slice column batches.
struct Fixture {
    slices: usize,
    tables: HashMap<String, Vec<Vec<ColumnData>>>,
}

impl Fixture {
    fn new(slices: usize) -> Self {
        Fixture { slices, tables: HashMap::new() }
    }

    /// Distribute (key, payload) rows by hash of the key column.
    fn add_keyed(&mut self, name: &str, rows: &[(i64, i64)]) {
        let mut per_slice: Vec<(ColumnData, ColumnData)> = (0..self.slices)
            .map(|_| (ColumnData::new(DataType::Int8), ColumnData::new(DataType::Int8)))
            .collect();
        for &(k, v) in rows {
            let s = (dist_hash(&Value::Int8(k)) % self.slices as u64) as usize;
            per_slice[s].0.push_value(&Value::Int8(k)).unwrap();
            per_slice[s].1.push_value(&Value::Int8(v)).unwrap();
        }
        self.tables.insert(
            name.to_string(),
            per_slice.into_iter().map(|(a, b)| vec![a, b]).collect(),
        );
    }

    /// Round-robin rows (EVEN distribution; joins must redistribute).
    fn add_even(&mut self, name: &str, rows: &[(i64, i64)]) {
        let mut per_slice: Vec<(ColumnData, ColumnData)> = (0..self.slices)
            .map(|_| (ColumnData::new(DataType::Int8), ColumnData::new(DataType::Int8)))
            .collect();
        for (i, &(k, v)) in rows.iter().enumerate() {
            let s = i % self.slices;
            per_slice[s].0.push_value(&Value::Int8(k)).unwrap();
            per_slice[s].1.push_value(&Value::Int8(v)).unwrap();
        }
        self.tables.insert(
            name.to_string(),
            per_slice.into_iter().map(|(a, b)| vec![a, b]).collect(),
        );
    }
}

impl TableProvider for Fixture {
    fn num_slices(&self) -> usize {
        self.slices
    }

    fn scan_slice(
        &self,
        table: &str,
        slice: usize,
        projection: &[usize],
        _pred: &ScanPredicate,
        sink: &mut ScanSink,
    ) -> Result<ScanOutput> {
        let slices = self.tables.get(table).expect("fixture table");
        let batch = &slices[slice];
        let projected: Vec<ColumnData> = projection.iter().map(|&i| batch[i].clone()).collect();
        if projected.first().is_some_and(|c| !c.is_empty()) {
            sink(projected)?;
        }
        Ok(ScanOutput { groups_total: 1, groups_skipped: 0, blocks_read: projection.len(), bytes_read: 0 })
    }
}

fn scan(table: &str) -> LogicalPlan {
    LogicalPlan::Scan {
        table: table.into(),
        projection: vec![0, 1],
        output: vec![
            OutCol { name: "k".into(), ty: DataType::Int8 },
            OutCol { name: "v".into(), ty: DataType::Int8 },
        ],
        filter: None,
        pruning: ScanPredicate::default(),
    }
}

fn join_plan(strategy: JoinDistStrategy, join_type: JoinType) -> LogicalPlan {
    LogicalPlan::Join {
        left: Box::new(scan("l")),
        right: Box::new(scan("r")),
        join_type,
        left_key: 0,
        right_key: 0,
        residual: None,
        strategy,
        emit: vec![0, 1, 2, 3],
    }
}

/// Reference join computed serially over all rows.
fn oracle_join(l: &[(i64, i64)], r: &[(i64, i64)], left: bool) -> Vec<Vec<Option<i64>>> {
    let mut out = Vec::new();
    for &(lk, lv) in l {
        let matches: Vec<&(i64, i64)> = r.iter().filter(|(rk, _)| *rk == lk).collect();
        if matches.is_empty() {
            if left {
                out.push(vec![Some(lk), Some(lv), None, None]);
            }
        } else {
            for &&(rk, rv) in &matches {
                out.push(vec![Some(lk), Some(lv), Some(rk), Some(rv)]);
            }
        }
    }
    out.sort();
    out
}

fn run_join(
    fixture: &Fixture,
    strategy: JoinDistStrategy,
    join_type: JoinType,
) -> (Vec<Vec<Option<i64>>>, redsim_engine::ExecMetrics) {
    let exec = Executor::new(fixture);
    let out = exec.run(&join_plan(strategy, join_type)).unwrap();
    let mut rows: Vec<Vec<Option<i64>>> = out
        .rows()
        .iter()
        .map(|r| r.values().iter().map(|v| v.as_i64()).collect())
        .collect();
    rows.sort();
    (rows, out.metrics)
}

fn test_rows() -> (Vec<(i64, i64)>, Vec<(i64, i64)>) {
    let l: Vec<(i64, i64)> = (0..200).map(|i| (i % 40, i)).collect();
    let r: Vec<(i64, i64)> = (0..60).map(|i| (i % 50, i * 10)).collect();
    (l, r)
}

#[test]
fn all_strategies_agree_inner() {
    let (l, r) = test_rows();
    let want = oracle_join(&l, &r, false);
    // Co-located layout for DistNone; EVEN layout for the moving ones.
    let mut keyed = Fixture::new(4);
    keyed.add_keyed("l", &l);
    keyed.add_keyed("r", &r);
    let mut even = Fixture::new(4);
    even.add_even("l", &l);
    even.add_even("r", &r);

    let (got, m) = run_join(&keyed, JoinDistStrategy::DistNone, JoinType::Inner);
    assert_eq!(got, want, "DistNone");
    assert_eq!(m.bytes_broadcast + m.bytes_redistributed, 0);

    let (got, m) = run_join(&even, JoinDistStrategy::BcastInner, JoinType::Inner);
    assert_eq!(got, want, "BcastInner");
    assert!(m.bytes_broadcast > 0);

    let (got, m) = run_join(&even, JoinDistStrategy::DistBoth, JoinType::Inner);
    assert_eq!(got, want, "DistBoth");
    assert!(m.bytes_redistributed > 0);
}

#[test]
fn all_strategies_agree_left() {
    // Left keys 40..50 have no matches; left join must keep them.
    let l: Vec<(i64, i64)> = (0..100).map(|i| (i % 50, i)).collect();
    let r: Vec<(i64, i64)> = (0..40).map(|i| (i, i * 10)).collect();
    let want = oracle_join(&l, &r, true);

    let mut keyed = Fixture::new(4);
    keyed.add_keyed("l", &l);
    keyed.add_keyed("r", &r);
    let mut even = Fixture::new(4);
    even.add_even("l", &l);
    even.add_even("r", &r);

    for (fixture, strategy, label) in [
        (&keyed, JoinDistStrategy::DistNone, "DistNone"),
        (&even, JoinDistStrategy::BcastInner, "BcastInner"),
        (&even, JoinDistStrategy::DistBoth, "DistBoth"),
    ] {
        let (got, _) = run_join(fixture, strategy, JoinType::Left);
        assert_eq!(got, want, "{label}");
    }
}

#[test]
fn dist_none_on_wrongly_distributed_data_is_wrong_by_design() {
    // Negative control: the strategy matters. Forcing DistNone on EVEN
    // data silently drops cross-slice matches — which is exactly why the
    // optimizer must pick strategies from distribution styles.
    let (l, r) = test_rows();
    let want = oracle_join(&l, &r, false);
    let mut even = Fixture::new(4);
    even.add_even("l", &l);
    even.add_even("r", &r);
    let (got, _) = run_join(&even, JoinDistStrategy::DistNone, JoinType::Inner);
    assert!(got.len() < want.len(), "forced co-location must lose matches");
}

#[test]
fn aggregate_matches_oracle_across_slices() {
    let (l, _) = test_rows();
    let mut fixture = Fixture::new(8);
    fixture.add_even("l", &l);
    let plan = LogicalPlan::Aggregate {
        input: Box::new(scan("l")),
        group_by: vec![BoundExpr::Column { index: 0, ty: DataType::Int8 }],
        aggs: vec![redsim_sql::plan::AggExpr {
            func: redsim_sql::plan::AggFunc::Sum,
            arg: Some(BoundExpr::Column { index: 1, ty: DataType::Int8 }),
            distinct: false,
            output_name: "s".into(),
        }],
        output: vec![
            OutCol { name: "k".into(), ty: DataType::Int8 },
            OutCol { name: "s".into(), ty: DataType::Int8 },
        ],
    };
    let exec = Executor::new(&fixture);
    let out = exec.run(&plan).unwrap();
    let mut got: Vec<(i64, i64)> = out
        .rows()
        .iter()
        .map(|r| (r.get(0).as_i64().unwrap(), r.get(1).as_i64().unwrap()))
        .collect();
    got.sort();
    let mut oracle: HashMap<i64, i64> = HashMap::new();
    for &(k, v) in &l {
        *oracle.entry(k).or_default() += v;
    }
    let mut want: Vec<(i64, i64)> = oracle.into_iter().collect();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn limit_and_sort_at_leader() {
    let rows: Vec<(i64, i64)> = (0..64).map(|i| (i, 1000 - i)).collect();
    let mut fixture = Fixture::new(4);
    fixture.add_even("l", &rows);
    let plan = LogicalPlan::Limit {
        input: Box::new(LogicalPlan::Sort {
            input: Box::new(scan("l")),
            keys: vec![(BoundExpr::Column { index: 1, ty: DataType::Int8 }, false)],
        }),
        n: 5,
    };
    let exec = Executor::new(&fixture);
    let out = exec.run(&plan).unwrap();
    assert_eq!(out.row_count(), 5);
    // Smallest five v values = 1000-63 .. 1000-59, ascending.
    let vs: Vec<i64> = out.rows().iter().map(|r| r.get(1).as_i64().unwrap()).collect();
    assert_eq!(vs, vec![937, 938, 939, 940, 941]);
}

#[test]
fn broadcast_bytes_scale_with_slices() {
    // E11's cost intuition measured directly: the same inner broadcast to
    // 2 vs 8 slices moves ~4x the bytes.
    let rows_l: Vec<(i64, i64)> = (0..400).map(|i| (i % 50, i)).collect();
    let rows_r: Vec<(i64, i64)> = (0..50).map(|i| (i, i)).collect();
    let mut small = Fixture::new(2);
    small.add_even("l", &rows_l);
    small.add_even("r", &rows_r);
    let mut big = Fixture::new(8);
    big.add_even("l", &rows_l);
    big.add_even("r", &rows_r);
    let (_, m2) = run_join(&small, JoinDistStrategy::BcastInner, JoinType::Inner);
    let (_, m8) = run_join(&big, JoinDistStrategy::BcastInner, JoinType::Inner);
    assert!(m2.bytes_broadcast > 0);
    let ratio = m8.bytes_broadcast as f64 / m2.bytes_broadcast as f64;
    assert!(
        (4.0..=12.0).contains(&ratio),
        "2→8 slices should ~4-7x broadcast bytes (n-1 factor): {ratio:.1} ({} vs {})",
        m2.bytes_broadcast,
        m8.bytes_broadcast
    );
}

#[test]
fn failed_scan_slice_leaves_metrics_untouched() {
    use redsim_faultkit::{fp, ErrClass, FaultRegistry, FaultSpec};
    use std::sync::Arc;

    let (l, _) = test_rows();
    let mut fixture = Fixture::new(4);
    fixture.add_even("l", &l);

    // Arm the per-slice scan seam once: exactly one of the four slice
    // fragments errors, the other three scan successfully.
    let faults = Arc::new(FaultRegistry::new(7));
    faults.configure(fp::EXEC_SCAN_SLICE, FaultSpec::err(ErrClass::Fault).once());
    let exec = Executor::new(&fixture).with_faults(Arc::clone(&faults));
    let err = exec.run(&scan("l")).unwrap_err();
    assert!(
        matches!(err, redsim_common::RsError::FaultInjected(_)),
        "expected injected fault, got {err:?}"
    );
    // The three healthy slices returned rows and block counts — none of
    // that partial work may be absorbed into the shared counters once
    // any slice fails (it would pollute svl_query_metrics / stl_query).
    assert_eq!(
        exec.metrics_snapshot(),
        redsim_engine::ExecMetrics::default(),
        "failed scan must leave executor metrics untouched"
    );

    // Control: the seam is now disarmed (`once`), so the same executor
    // reruns cleanly and counts exactly this run's rows — nothing held
    // over from the failed attempt.
    let out = exec.run(&scan("l")).unwrap();
    assert_eq!(out.metrics.rows_scanned, l.len() as u64);
    assert!(out.metrics.blocks_read > 0);
}

#[test]
fn redistribution_only_counts_moved_rows() {
    // Rows already on their hash-destination slice are not charged.
    let rows: Vec<(i64, i64)> = (0..200).map(|i| (i, i)).collect();
    let mut keyed = Fixture::new(4);
    keyed.add_keyed("l", &rows); // already hash-placed on the key
    keyed.add_keyed("r", &rows);
    let (_, m) = run_join(&keyed, JoinDistStrategy::DistBoth, JoinType::Inner);
    assert_eq!(
        m.bytes_redistributed, 0,
        "hash-placed data redistributes to itself: {m:?}"
    );
}
