//! Row-oriented, single-threaded baseline engine.
//!
//! Plays two roles in the reproduction:
//!
//! 1. **The legacy comparator for experiment E1** — the intro's "existing
//!    scale-out commercial data warehouse" that took over a week on the
//!    2-trillion-row join the MPP columnar engine finished in 14 minutes.
//!    This engine stores rows on a heap, reads every column of every row,
//!    uses no compression, no zone maps, and a single thread.
//! 2. **The uncompiled executor for experiment E7** — the same logical
//!    plans run here through the per-row interpreter, standing in for
//!    "execution in a general-purpose set of executor functions".

use crate::agg::AggState;
use crate::hashkey::HKey;
use crate::interp::{eval_row, row_passes};
use redsim_common::{FxHashMap, Result, Row, RsError, Value};
use redsim_sql::ast::JoinType;
use redsim_sql::plan::LogicalPlan;

/// Supplies rows for a scan: (table, projection) → projected rows.
pub trait RowSource {
    fn scan_rows(&self, table: &str, projection: &[usize]) -> Result<Vec<Row>>;
}

/// A heap-of-rows table store.
#[derive(Debug, Default)]
pub struct RowStore {
    tables: std::collections::HashMap<String, Vec<Row>>,
}

impl RowStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert_table(&mut self, name: impl Into<String>, rows: Vec<Row>) {
        self.tables.insert(name.into(), rows);
    }

    pub fn table_rows(&self, name: &str) -> Option<&[Row]> {
        self.tables.get(name).map(|v| v.as_slice())
    }
}

impl RowSource for RowStore {
    fn scan_rows(&self, table: &str, projection: &[usize]) -> Result<Vec<Row>> {
        let rows = self
            .tables
            .get(table)
            .ok_or_else(|| RsError::NotFound(format!("table {table:?}")))?;
        // A row store reads whole rows regardless of projection — that is
        // the point of the comparison — but the output must still carry
        // only the projected columns so plans bind identically.
        Ok(rows
            .iter()
            .map(|r| Row::new(projection.iter().map(|&i| r.get(i).clone()).collect()))
            .collect())
    }
}

/// Execute a logical plan row-at-a-time against a [`RowSource`].
pub fn run_plan(plan: &LogicalPlan, source: &dyn RowSource) -> Result<Vec<Row>> {
    Ok(match plan {
        LogicalPlan::Scan { table, projection, filter, .. } => {
            let mut rows = source.scan_rows(table, projection)?;
            if let Some(f) = filter {
                let mut kept = Vec::new();
                for r in rows.drain(..) {
                    if row_passes(f, r.values())? {
                        kept.push(r);
                    }
                }
                kept
            } else {
                rows
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let rows = run_plan(input, source)?;
            let mut kept = Vec::new();
            for r in rows {
                if row_passes(predicate, r.values())? {
                    kept.push(r);
                }
            }
            kept
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let rows = run_plan(input, source)?;
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let vals: Result<Vec<Value>> =
                    exprs.iter().map(|e| eval_row(e, r.values())).collect();
                out.push(Row::new(vals?));
            }
            out
        }
        LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, emit, .. } => {
            let left_rows = run_plan(left, source)?;
            let right_rows = run_plan(right, source)?;
            let rw = right.output().len();
            let mut table: FxHashMap<HKey, Vec<usize>> = FxHashMap::default();
            for (i, r) in right_rows.iter().enumerate() {
                let k = HKey::from_value(r.get(*right_key));
                if !k.is_null() {
                    table.entry(k).or_default().push(i);
                }
            }
            // The join matches over all of both rows and emits `emit`.
            let emitted = |vals: &[Value]| Row::new(emit.iter().map(|&i| vals[i].clone()).collect());
            let mut out = Vec::new();
            for l in &left_rows {
                let k = HKey::from_value(l.get(*left_key));
                let mut matched = false;
                if !k.is_null() {
                    if let Some(list) = table.get(&k) {
                        for &j in list {
                            let mut vals = l.values().to_vec();
                            vals.extend(right_rows[j].values().iter().cloned());
                            if let Some(res) = residual {
                                if !row_passes(res, &vals)? {
                                    continue;
                                }
                            }
                            matched = true;
                            out.push(emitted(&vals));
                        }
                    }
                }
                if !matched && *join_type == JoinType::Left {
                    let mut vals = l.values().to_vec();
                    vals.extend(std::iter::repeat_n(Value::Null, rw));
                    out.push(emitted(&vals));
                }
            }
            out
        }
        LogicalPlan::Aggregate { input, group_by, aggs, output } => {
            let rows = run_plan(input, source)?;
            let mut groups: FxHashMap<Vec<HKey>, (Vec<Value>, Vec<AggState>)> =
                FxHashMap::default();
            for r in rows {
                let key_vals: Result<Vec<Value>> =
                    group_by.iter().map(|g| eval_row(g, r.values())).collect();
                let key_vals = key_vals?;
                let key: Vec<HKey> = key_vals.iter().map(HKey::from_value).collect();
                let entry = groups.entry(key).or_insert_with(|| {
                    (key_vals.clone(), aggs.iter().map(AggState::init).collect())
                });
                for (st, a) in entry.1.iter_mut().zip(aggs) {
                    let v = match &a.arg {
                        Some(e) => Some(eval_row(e, r.values())?),
                        None => None,
                    };
                    st.update(a, v.as_ref())?;
                }
            }
            if group_by.is_empty() && groups.is_empty() {
                groups.insert(
                    Vec::new(),
                    (Vec::new(), aggs.iter().map(AggState::init).collect()),
                );
            }
            let mut out = Vec::with_capacity(groups.len());
            for (_, (key_vals, states)) in groups {
                let mut vals = key_vals;
                for (st, oc) in states.into_iter().zip(&output[group_by.len()..]) {
                    vals.push(st.finish().coerce_to(oc.ty)?);
                }
                out.push(Row::new(vals));
            }
            out
        }
        LogicalPlan::Sort { input, keys } => {
            let rows = run_plan(input, source)?;
            // Precompute sort keys per row.
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
            for r in rows {
                let kv: Result<Vec<Value>> =
                    keys.iter().map(|(k, _)| eval_row(k, r.values())).collect();
                keyed.push((kv?, r));
            }
            keyed.sort_by(|(ka, _), (kb, _)| {
                for ((_, desc), (a, b)) in keys.iter().zip(ka.iter().zip(kb)) {
                    let o = a.cmp_sql(b);
                    let o = if *desc { o.reverse() } else { o };
                    if o != std::cmp::Ordering::Equal {
                        return o;
                    }
                }
                std::cmp::Ordering::Equal
            });
            keyed.into_iter().map(|(_, r)| r).collect()
        }
        LogicalPlan::Limit { input, n } => {
            let mut rows = run_plan(input, source)?;
            rows.truncate(*n as usize);
            rows
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_sql::catalog::{StaticCatalog, TableMeta};
    use redsim_sql::{parse, Binder, Statement};
    use redsim_common::{ColumnDef, DataType, Schema};
    use redsim_distribution::DistStyle;
    use redsim_storage::table::SortKeySpec;

    fn setup() -> (StaticCatalog, RowStore) {
        let catalog = StaticCatalog {
            tables: vec![TableMeta {
                name: "t".into(),
                schema: Schema::new(vec![
                    ColumnDef::new("k", DataType::Int8),
                    ColumnDef::new("v", DataType::Varchar),
                ])
                .unwrap(),
                dist_style: DistStyle::Even,
                sort_key: SortKeySpec::None,
                rows: 6,
            }],
            slices: 1,
        };
        let mut store = RowStore::new();
        store.insert_table(
            "t",
            (0..6i64)
                .map(|i| Row::new(vec![Value::Int8(i % 3), Value::Str(format!("v{i}"))]))
                .collect(),
        );
        (catalog, store)
    }

    fn run(sql: &str, catalog: &StaticCatalog, store: &RowStore) -> Vec<Row> {
        let stmt = parse(sql).unwrap();
        let plan = match stmt {
            Statement::Select(s) => Binder::new(catalog).bind_select(&s).unwrap(),
            _ => panic!(),
        };
        run_plan(&plan, store).unwrap()
    }

    #[test]
    fn filter_project() {
        let (cat, store) = setup();
        let rows = run("SELECT v FROM t WHERE k = 1", &cat, &store);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn group_and_order() {
        let (cat, store) = setup();
        let rows = run(
            "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k",
            &cat,
            &store,
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(0).as_i64(), Some(0));
        assert_eq!(rows[0].get(1).as_i64(), Some(2));
    }

    #[test]
    fn empty_aggregate_yields_zero_count() {
        let (cat, store) = setup();
        let rows = run("SELECT COUNT(*) FROM t WHERE k = 99", &cat, &store);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).as_i64(), Some(0));
    }

    #[test]
    fn self_join() {
        let (cat, store) = setup();
        let rows = run(
            "SELECT a.v FROM t a JOIN t b ON a.k = b.k WHERE b.v = 'v0'",
            &cat,
            &store,
        );
        assert_eq!(rows.len(), 2); // k=0 appears twice on the left
    }
}
