//! Logical-plan optimization.
//!
//! Passes, in order:
//! 1. **Filter pushdown** — WHERE conjuncts migrate through joins into
//!    the owning scan, so slices filter while scanning.
//! 2. **Range extraction** — `col <op> literal` conjuncts on scans become
//!    `ScanPredicate` ranges, feeding zone-map and z-curve block
//!    skipping (the paper's replacement for indexes).
//! 3. **Join strategy** — each join is classified `DS_DIST_NONE` /
//!    `DS_BCAST_INNER` / `DS_DIST_BOTH` from distribution styles and
//!    ANALYZE row counts (§2.1's co-located joins).
//! 4. **Column pruning** — scans read only the columns the query touches;
//!    the whole point of a columnar layout.

use crate::ast::{BinaryOp, UnaryOp};
use crate::catalog::CatalogView;
use crate::plan::{BoundExpr, LogicalPlan};
use redsim_common::Value;
use redsim_distribution::{classify_join, JoinDistStrategy};
use redsim_storage::table::ColumnRange;
use std::collections::BTreeSet;

/// Run all passes.
pub fn optimize(plan: LogicalPlan, catalog: &dyn CatalogView) -> LogicalPlan {
    let plan = push_down_filters(plan);
    let plan = extract_scan_ranges(plan);
    let plan = choose_join_strategies(plan, catalog);
    prune_columns(plan)
}

// ---------------------------------------------------------------------
// Pass 1: filter pushdown
// ---------------------------------------------------------------------

fn split_conjuncts_bound(e: BoundExpr) -> Vec<BoundExpr> {
    match e {
        BoundExpr::Binary { left, op: BinaryOp::And, right } => {
            let mut out = split_conjuncts_bound(*left);
            out.extend(split_conjuncts_bound(*right));
            out
        }
        other => vec![other],
    }
}

fn and_all(mut parts: Vec<BoundExpr>) -> Option<BoundExpr> {
    let first = parts.pop()?;
    Some(parts.into_iter().fold(first, |acc, p| BoundExpr::Binary {
        left: Box::new(acc),
        op: BinaryOp::And,
        right: Box::new(p),
    }))
}

fn max_col(e: &BoundExpr) -> Option<usize> {
    let mut m = None;
    e.for_each_column(&mut |i| m = Some(m.map_or(i, |x: usize| x.max(i))));
    m
}

fn min_col(e: &BoundExpr) -> Option<usize> {
    let mut m = None;
    e.for_each_column(&mut |i| m = Some(m.map_or(i, |x: usize| x.min(i))));
    m
}

fn push_down_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => push_pred_into(*input, predicate),
        LogicalPlan::Project { input, exprs, output } => LogicalPlan::Project {
            input: Box::new(push_down_filters(*input)),
            exprs,
            output,
        },
        LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, strategy, emit } => {
            LogicalPlan::Join {
                left: Box::new(push_down_filters(*left)),
                right: Box::new(push_down_filters(*right)),
                join_type,
                left_key,
                right_key,
                residual,
                strategy,
                emit,
            }
        }
        LogicalPlan::Aggregate { input, group_by, aggs, output } => LogicalPlan::Aggregate {
            input: Box::new(push_down_filters(*input)),
            group_by,
            aggs,
            output,
        },
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(push_down_filters(*input)), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(push_down_filters(*input)), n }
        }
        leaf @ LogicalPlan::Scan { .. } => leaf,
    }
}

/// Push `pred` as far down into `input` as possible.
fn push_pred_into(input: LogicalPlan, pred: BoundExpr) -> LogicalPlan {
    match input {
        LogicalPlan::Scan { table, projection, output, filter, pruning } => {
            let combined = match filter {
                Some(f) => and_all(vec![f, pred]).expect("non-empty"),
                None => pred,
            };
            LogicalPlan::Scan { table, projection, output, filter: Some(combined), pruning }
        }
        LogicalPlan::Filter { input, predicate } => {
            let combined = and_all(vec![predicate, pred]).expect("non-empty");
            push_pred_into(*input, combined)
        }
        LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, strategy, emit } => {
            use crate::ast::JoinType;
            let lw = left.output().len();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut stay = Vec::new();
            for c in split_conjuncts_bound(pred) {
                // The conjunct over the children's columns (left ++ right).
                let below = c.remap_columns(&|i| emit.get(i).copied()).expect("emitted column");
                match (min_col(&below), max_col(&below)) {
                    (Some(_), Some(h)) if h < lw => to_left.push(below),
                    // For LEFT joins, predicates on the right side can't
                    // be pushed below the join (they'd drop NULL-extended
                    // rows differently). Keep them above.
                    (Some(l), Some(_)) if l >= lw && join_type != JoinType::Left => to_right
                        .push(below.remap_columns(&|i| Some(i - lw)).expect("cols ≥ lw")),
                    // Constant predicates and those spanning both sides.
                    _ => stay.push(c),
                }
            }
            let new_left = if let Some(p) = and_all(to_left) {
                push_pred_into(*left, p)
            } else {
                push_down_filters(*left)
            };
            let new_right = if let Some(p) = and_all(to_right) {
                push_pred_into(*right, p)
            } else {
                push_down_filters(*right)
            };
            let join = LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                join_type,
                left_key,
                right_key,
                residual,
                strategy,
                emit,
            };
            match and_all(stay) {
                Some(p) => LogicalPlan::Filter { input: Box::new(join), predicate: p },
                None => join,
            }
        }
        other => {
            // Aggregate / Project / Sort / Limit: don't push through
            // (HAVING-style filters stay put).
            LogicalPlan::Filter { input: Box::new(push_down_filters(other)), predicate: pred }
        }
    }
}

// ---------------------------------------------------------------------
// Pass 2: scan-range extraction
// ---------------------------------------------------------------------

fn extract_scan_ranges(plan: LogicalPlan) -> LogicalPlan {
    map_plan(plan, &|node| {
        if let LogicalPlan::Scan { table, projection, output, filter, mut pruning } = node {
            if let Some(f) = &filter {
                for c in split_conjuncts_bound(f.clone()) {
                    if let Some((out_idx, op, v)) = as_col_cmp_literal(&c) {
                        let table_col = projection[out_idx];
                        let (lo, hi) = match op {
                            BinaryOp::Eq => (Some(v.clone()), Some(v)),
                            BinaryOp::Lt | BinaryOp::LtEq => (None, Some(v)),
                            BinaryOp::Gt | BinaryOp::GtEq => (Some(v), None),
                            _ => continue,
                        };
                        pruning.ranges.push(ColumnRange { col: table_col, lo, hi });
                    }
                }
            }
            LogicalPlan::Scan { table, projection, output, filter, pruning }
        } else {
            node
        }
    })
}

/// Match `col <cmp> literal` (either orientation).
fn as_col_cmp_literal(e: &BoundExpr) -> Option<(usize, BinaryOp, Value)> {
    if let BoundExpr::Binary { left, op, right } = e {
        if !op.is_comparison() || *op == BinaryOp::NotEq {
            return None;
        }
        match (left.as_ref(), right.as_ref()) {
            (BoundExpr::Column { index, .. }, BoundExpr::Literal(v)) if !v.is_null() => {
                Some((*index, *op, v.clone()))
            }
            (BoundExpr::Literal(v), BoundExpr::Column { index, .. }) if !v.is_null() => {
                let flipped = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    other => *other,
                };
                Some((*index, flipped, v.clone()))
            }
            _ => None,
        }
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// Pass 3: join strategy
// ---------------------------------------------------------------------

fn choose_join_strategies(plan: LogicalPlan, catalog: &dyn CatalogView) -> LogicalPlan {
    map_plan(plan, &|node| {
        let LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, emit, .. } =
            node
        else {
            return node;
        };
        let sides = side_info(&left, left_key, catalog).zip(side_info(&right, right_key, catalog));
        let strategy = match sides {
            Some((l, r)) => classify_join(
                &l.style,
                &r.style,
                l.key_col,
                r.key_col,
                l.rows,
                r.rows,
                catalog.total_slices(),
            ),
            None => JoinDistStrategy::DistBoth,
        };
        // A replicated outer side cannot be NULL-extended slice by slice:
        // each slice would pad the rows only another slice matches.
        let replicated_outer = strategy == JoinDistStrategy::AllNone { all_side_left: true };
        let strategy = match join_type {
            crate::ast::JoinType::Left if replicated_outer => JoinDistStrategy::DistBoth,
            _ => strategy,
        };
        LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, strategy, emit }
    })
}

/// Where one join input's rows sit, and how many there are.
struct SideInfo {
    style: redsim_distribution::DistStyle,
    /// The join key in the coordinates `style`'s `Key(_)` uses — a table
    /// column index under a scan — or `usize::MAX` when the key is not a
    /// plain column of the side the rows are placed by (never matches a
    /// distkey).
    key_col: usize,
    rows: u64,
}

/// `key` is a position in `plan`'s output (`usize::MAX`: no such column).
fn side_info(plan: &LogicalPlan, key: usize, catalog: &dyn CatalogView) -> Option<SideInfo> {
    match plan {
        LogicalPlan::Scan { table, projection, filter, .. } => {
            let meta = catalog.table(table)?;
            let selectivity = if filter.is_some() { 0.33 } else { 1.0 };
            Some(SideInfo {
                style: meta.dist_style,
                key_col: projection.get(key).copied().unwrap_or(usize::MAX),
                rows: ((meta.rows as f64) * selectivity) as u64,
            })
        }
        LogicalPlan::Filter { input, .. } => {
            let mut info = side_info(input, key, catalog)?;
            info.rows = (info.rows as f64 * 0.33) as u64;
            Some(info)
        }
        // A join's output sits where the side that did not move sat: the
        // outer side, unless that was the replicated one. Re-hashed, it
        // sits by the join key.
        LogicalPlan::Join { left, right, join_type, left_key, right_key, strategy, emit, .. } => {
            let lw = left.output().len();
            let col = emit.get(key).copied().unwrap_or(usize::MAX);
            // An inner equi-join's two key columns hold the same values.
            let inner = *join_type == crate::ast::JoinType::Inner;
            let col = if inner && col == lw + right_key { *left_key } else { col };
            match strategy {
                JoinDistStrategy::DistBoth => Some(SideInfo {
                    style: redsim_distribution::DistStyle::Key(*left_key),
                    key_col: if col == *left_key { col } else { usize::MAX },
                    rows: side_info(left, *left_key, catalog)?.rows,
                }),
                JoinDistStrategy::AllNone { all_side_left: true } => {
                    side_info(right, if col >= lw { col - lw } else { usize::MAX }, catalog)
                }
                _ => side_info(left, if col < lw { col } else { usize::MAX }, catalog),
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Pass 4: column pruning
// ---------------------------------------------------------------------

fn prune_columns(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Project { input, exprs, output } => {
            let mut needed = BTreeSet::new();
            for e in &exprs {
                e.for_each_column(&mut |i| {
                    needed.insert(i);
                });
            }
            let (new_input, mapping) = prune_node(*input, &needed);
            let exprs = exprs
                .into_iter()
                .map(|e| {
                    e.remap_columns(&|i| mapping.iter().position(|&m| m == i))
                        .expect("pruned column still referenced")
                })
                .collect();
            LogicalPlan::Project { input: Box::new(new_input), exprs, output }
        }
        LogicalPlan::Sort { input, keys } => {
            let inner = prune_columns(*input);
            LogicalPlan::Sort { input: Box::new(inner), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(prune_columns(*input)), n }
        }
        other => {
            // No projection on top (bare aggregate/scan root): prune with
            // everything needed.
            let width = other.output().len();
            let all: BTreeSet<usize> = (0..width).collect();
            prune_node(other, &all).0
        }
    }
}

/// Prune `plan` so its output covers at least `needed` (old indexes).
/// Returns the new plan plus the old output indexes now present, in order.
fn prune_node(plan: LogicalPlan, needed: &BTreeSet<usize>) -> (LogicalPlan, Vec<usize>) {
    match plan {
        LogicalPlan::Scan { table, projection, output, filter, pruning } => {
            let mut keep: BTreeSet<usize> = needed.clone();
            if let Some(f) = &filter {
                f.for_each_column(&mut |i| {
                    keep.insert(i);
                });
            }
            let mut keep: Vec<usize> = keep.into_iter().filter(|&i| i < projection.len()).collect();
            // `COUNT(*)`-style plans need no columns at all, but a scan
            // must still carry row counts; keep the narrowest column.
            if keep.is_empty() && !projection.is_empty() {
                let cheapest = output
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| c.ty.fixed_width().unwrap_or(64))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                keep.push(cheapest);
            }
            let new_projection: Vec<usize> = keep.iter().map(|&i| projection[i]).collect();
            let new_output = keep.iter().map(|&i| output[i].clone()).collect();
            let new_filter = filter.map(|f| {
                f.remap_columns(&|i| keep.iter().position(|&k| k == i))
                    .expect("filter column retained")
            });
            (
                LogicalPlan::Scan {
                    table,
                    projection: new_projection,
                    output: new_output,
                    filter: new_filter,
                    pruning,
                },
                keep,
            )
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut need = needed.clone();
            predicate.for_each_column(&mut |i| {
                need.insert(i);
            });
            let (new_input, mapping) = prune_node(*input, &need);
            let predicate = predicate
                .remap_columns(&|i| mapping.iter().position(|&m| m == i))
                .expect("predicate column retained");
            (LogicalPlan::Filter { input: Box::new(new_input), predicate }, mapping)
        }
        LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, strategy, emit } => {
            let lw = left.output().len();
            // What the parent reads, as old output positions; the join
            // will emit exactly these.
            let kept: Vec<usize> = needed.iter().copied().filter(|&i| i < emit.len()).collect();
            let mut need_left: BTreeSet<usize> = BTreeSet::from([left_key]);
            let mut need_right: BTreeSet<usize> = BTreeSet::from([right_key]);
            let mut need = |i: usize| {
                if i < lw {
                    need_left.insert(i);
                } else {
                    need_right.insert(i - lw);
                }
            };
            kept.iter().for_each(|&i| need(emit[i]));
            if let Some(r) = &residual {
                r.for_each_column(&mut need);
            }
            let (new_left, lmap) = prune_node(*left, &need_left);
            let (new_right, rmap) = prune_node(*right, &need_right);
            let new_lw = lmap.len();
            // Old position among the children's columns -> new one.
            let below = |i: usize| {
                if i < lw {
                    lmap.iter().position(|&m| m == i)
                } else {
                    rmap.iter().position(|&m| m == i - lw).map(|p| p + new_lw)
                }
            };
            let join = LogicalPlan::Join {
                join_type,
                left_key: below(left_key).expect("key kept"),
                right_key: below(lw + right_key).expect("key kept") - new_lw,
                residual: residual
                    .map(|r| r.remap_columns(&below).expect("residual columns retained")),
                strategy,
                emit: kept.iter().map(|&i| below(emit[i]).expect("emitted column kept")).collect(),
                left: Box::new(new_left),
                right: Box::new(new_right),
            };
            (join, kept)
        }
        LogicalPlan::Aggregate { input, group_by, aggs, output } => {
            // The aggregate's own output shape is fixed; its input needs
            // exactly the columns the group/agg expressions touch.
            let mut need_in = BTreeSet::new();
            for g in &group_by {
                g.for_each_column(&mut |i| {
                    need_in.insert(i);
                });
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    arg.for_each_column(&mut |i| {
                        need_in.insert(i);
                    });
                }
            }
            let (new_input, mapping) = prune_node(*input, &need_in);
            let remap = |e: &BoundExpr| {
                e.remap_columns(&|i| mapping.iter().position(|&m| m == i))
                    .expect("agg input column retained")
            };
            let group_by = group_by.iter().map(remap).collect();
            let aggs = aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a.arg.as_ref().map(remap);
                    a
                })
                .collect();
            let width = output.len();
            (
                LogicalPlan::Aggregate { input: Box::new(new_input), group_by, aggs, output },
                (0..width).collect(),
            )
        }
        LogicalPlan::Project { input, exprs, output } => {
            // Nested projection: keep as-is (prune below it).
            let mut need_in = BTreeSet::new();
            for e in &exprs {
                e.for_each_column(&mut |i| {
                    need_in.insert(i);
                });
            }
            let (new_input, mapping) = prune_node(*input, &need_in);
            let exprs: Vec<BoundExpr> = exprs
                .into_iter()
                .map(|e| {
                    e.remap_columns(&|i| mapping.iter().position(|&m| m == i))
                        .expect("project input column retained")
                })
                .collect();
            let width = output.len();
            (
                LogicalPlan::Project { input: Box::new(new_input), exprs, output },
                (0..width).collect(),
            )
        }
        LogicalPlan::Sort { input, keys } => {
            let mut need = needed.clone();
            for (k, _) in &keys {
                k.for_each_column(&mut |i| {
                    need.insert(i);
                });
            }
            let (new_input, mapping) = prune_node(*input, &need);
            let keys = keys
                .into_iter()
                .map(|(k, d)| {
                    (
                        k.remap_columns(&|i| mapping.iter().position(|&m| m == i))
                            .expect("sort key retained"),
                        d,
                    )
                })
                .collect();
            (LogicalPlan::Sort { input: Box::new(new_input), keys }, mapping)
        }
        LogicalPlan::Limit { input, n } => {
            let (new_input, mapping) = prune_node(*input, needed);
            (LogicalPlan::Limit { input: Box::new(new_input), n }, mapping)
        }
    }
}

// ---------------------------------------------------------------------
// Utility: bottom-up map
// ---------------------------------------------------------------------

fn map_plan(plan: LogicalPlan, f: &dyn Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    let rebuilt = match plan {
        LogicalPlan::Scan { .. } => plan,
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(map_plan(*input, f)), predicate }
        }
        LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, strategy, emit } => {
            LogicalPlan::Join {
                left: Box::new(map_plan(*left, f)),
                right: Box::new(map_plan(*right, f)),
                join_type,
                left_key,
                right_key,
                residual,
                strategy,
                emit,
            }
        }
        LogicalPlan::Aggregate { input, group_by, aggs, output } => LogicalPlan::Aggregate {
            input: Box::new(map_plan(*input, f)),
            group_by,
            aggs,
            output,
        },
        LogicalPlan::Project { input, exprs, output } => {
            LogicalPlan::Project { input: Box::new(map_plan(*input, f)), exprs, output }
        }
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(map_plan(*input, f)), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(map_plan(*input, f)), n }
        }
    };
    f(rebuilt)
}

/// Suppress an unused-import warning kept for symmetry with binder tests.
#[allow(unused)]
fn _unused(_: UnaryOp) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{StaticCatalog, TableMeta};
    use crate::parser::Parser;
    use crate::{Binder, Statement};
    use redsim_common::{ColumnDef, DataType, Schema};
    use redsim_distribution::DistStyle;
    use redsim_storage::table::SortKeySpec;

    fn catalog() -> StaticCatalog {
        StaticCatalog {
            tables: vec![
                TableMeta {
                    name: "clicks".into(),
                    schema: Schema::new(vec![
                        ColumnDef::new("user_id", DataType::Int8),
                        ColumnDef::new("url", DataType::Varchar),
                        ColumnDef::new("ts", DataType::Timestamp),
                        ColumnDef::new("bytes", DataType::Int8),
                    ])
                    .unwrap(),
                    dist_style: DistStyle::Key(0),
                    sort_key: SortKeySpec::Compound(vec![2]),
                    rows: 2_000_000_000,
                },
                TableMeta {
                    name: "products".into(),
                    schema: Schema::new(vec![
                        ColumnDef::new("id", DataType::Int8),
                        ColumnDef::new("name", DataType::Varchar),
                    ])
                    .unwrap(),
                    dist_style: DistStyle::Key(0),
                    sort_key: SortKeySpec::None,
                    rows: 6_000_000,
                },
                TableMeta {
                    name: "dims_all".into(),
                    schema: Schema::new(vec![
                        ColumnDef::new("id", DataType::Int8),
                        ColumnDef::new("label", DataType::Varchar),
                    ])
                    .unwrap(),
                    dist_style: DistStyle::All,
                    sort_key: SortKeySpec::None,
                    rows: 2_000,
                },
                TableMeta {
                    name: "tiny_dims".into(),
                    schema: Schema::new(vec![
                        ColumnDef::new("id", DataType::Int8),
                        ColumnDef::new("label", DataType::Varchar),
                    ])
                    .unwrap(),
                    dist_style: DistStyle::Even,
                    sort_key: SortKeySpec::None,
                    rows: 50,
                },
            ],
            slices: 16,
        }
    }

    fn optimized(sql: &str) -> LogicalPlan {
        let stmt = Parser::new(sql).unwrap().parse_statement().unwrap();
        let cat = catalog();
        match stmt {
            Statement::Select(s) => {
                let bound = Binder::new(&cat).bind_select(&s).unwrap();
                optimize(bound, &cat)
            }
            _ => panic!(),
        }
    }

    fn find_scan<'p>(plan: &'p LogicalPlan, table: &str) -> Option<&'p LogicalPlan> {
        match plan {
            LogicalPlan::Scan { table: t, .. } if t == table => Some(plan),
            LogicalPlan::Scan { .. } => None,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => find_scan(input, table),
            LogicalPlan::Join { left, right, .. } => {
                find_scan(left, table).or_else(|| find_scan(right, table))
            }
        }
    }

    fn find_join(plan: &LogicalPlan) -> Option<&LogicalPlan> {
        match plan {
            LogicalPlan::Join { .. } => Some(plan),
            LogicalPlan::Scan { .. } => None,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => find_join(input),
        }
    }

    #[test]
    fn filter_pushed_into_scan() {
        let plan = optimized(
            "SELECT c.url FROM clicks c JOIN products p ON c.user_id = p.id
             WHERE c.bytes > 100 AND p.name = 'book'",
        );
        let clicks = find_scan(&plan, "clicks").unwrap();
        let products = find_scan(&plan, "products").unwrap();
        if let LogicalPlan::Scan { filter, .. } = clicks {
            assert!(filter.is_some(), "clicks filter pushed down");
        }
        if let LogicalPlan::Scan { filter, .. } = products {
            assert!(filter.is_some(), "products filter pushed down");
        }
    }

    #[test]
    fn ranges_extracted_for_zone_maps() {
        let plan = optimized("SELECT url FROM clicks WHERE ts >= 1000 AND ts <= 2000 AND bytes = 5");
        let scan = find_scan(&plan, "clicks").unwrap();
        if let LogicalPlan::Scan { pruning, projection, .. } = scan {
            assert_eq!(pruning.ranges.len(), 3);
            // Ranges refer to *table* columns regardless of pruning.
            assert!(pruning.ranges.iter().any(|r| r.col == 2)); // ts
            assert!(pruning.ranges.iter().any(|r| r.col == 3)); // bytes
            // Column pruning kept only url/ts/bytes.
            assert!(projection.len() <= 3, "{projection:?}");
        } else {
            panic!();
        }
    }

    #[test]
    fn colocated_join_detected() {
        let plan = optimized(
            "SELECT c.url FROM clicks c JOIN products p ON c.user_id = p.id",
        );
        if let Some(LogicalPlan::Join { strategy, .. }) = find_join(&plan) {
            assert_eq!(*strategy, JoinDistStrategy::DistNone, "both distkeyed on join cols");
        } else {
            panic!();
        }
    }

    #[test]
    fn tiny_inner_broadcasts() {
        let plan = optimized(
            "SELECT c.url FROM clicks c JOIN tiny_dims d ON c.bytes = d.id",
        );
        if let Some(LogicalPlan::Join { strategy, .. }) = find_join(&plan) {
            assert_eq!(*strategy, JoinDistStrategy::BcastInner);
        } else {
            panic!();
        }
    }

    #[test]
    fn join_on_non_distkey_redistributes() {
        // Self-join on a non-distkey column: both sides huge, so neither
        // co-location nor broadcast applies.
        let plan = optimized(
            "SELECT a.url FROM clicks a JOIN clicks b ON a.bytes = b.bytes",
        );
        if let Some(LogicalPlan::Join { strategy, .. }) = find_join(&plan) {
            assert_eq!(*strategy, JoinDistStrategy::DistBoth);
        } else {
            panic!();
        }
    }

    /// Strategies of the top join and of the join that is its outer side.
    fn nested_strategies(sql: &str) -> (JoinDistStrategy, JoinDistStrategy) {
        let plan = optimized(sql);
        let Some(LogicalPlan::Join { strategy: top, left, .. }) = find_join(&plan) else {
            panic!("no join: {plan:?}");
        };
        let Some(LogicalPlan::Join { strategy: below, .. }) = find_join(left) else {
            panic!("outer side is not a join: {plan:?}");
        };
        (*top, *below)
    }

    #[test]
    fn join_of_join_with_all_inner_is_all_none() {
        // The outer side is a join's output: an ALL inner still never moves.
        let (top, below) = nested_strategies(
            "SELECT c.url FROM clicks c JOIN products p ON c.user_id = p.id
             JOIN dims_all d ON c.bytes = d.id",
        );
        assert_eq!(below, JoinDistStrategy::DistNone);
        assert_eq!(top, JoinDistStrategy::AllNone { all_side_left: false });
    }

    #[test]
    fn join_output_keeps_the_distribution_of_the_side_that_stayed() {
        // ALL outer: the output sits where `clicks` sat, on its distkey,
        // so the next join on that key is co-located.
        let (top, below) = nested_strategies(
            "SELECT c.url FROM dims_all d JOIN clicks c ON d.id = c.bytes
             JOIN products p ON c.user_id = p.id",
        );
        assert_eq!(below, JoinDistStrategy::AllNone { all_side_left: true });
        assert_eq!(top, JoinDistStrategy::DistNone);
        // Re-hashed on `bytes`, the output meets a table keyed on the
        // same values; joined on any other column it does not.
        let rehashed = "SELECT a.url FROM clicks a JOIN clicks b ON a.bytes = b.bytes";
        let (top, below) =
            nested_strategies(&format!("{rehashed} JOIN products p ON a.bytes = p.id"));
        assert_eq!((top, below), (JoinDistStrategy::DistNone, JoinDistStrategy::DistBoth));
        let (top, _) = nested_strategies(&format!("{rehashed} JOIN clicks p ON a.ts = p.bytes"));
        assert_eq!(top, JoinDistStrategy::DistBoth);
    }

    #[test]
    fn left_join_never_pads_a_replicated_outer_side_locally() {
        let plan = optimized("SELECT d.label FROM dims_all d LEFT JOIN clicks c ON d.id = c.bytes");
        let Some(LogicalPlan::Join { strategy, .. }) = find_join(&plan) else { panic!() };
        assert_eq!(*strategy, JoinDistStrategy::DistBoth);
        // The replicated side as the inner one is fine.
        let plan = optimized("SELECT d.label FROM clicks c LEFT JOIN dims_all d ON d.id = c.bytes");
        let Some(LogicalPlan::Join { strategy, .. }) = find_join(&plan) else { panic!() };
        assert_eq!(*strategy, JoinDistStrategy::AllNone { all_side_left: false });
    }

    #[test]
    fn pruning_narrows_what_a_join_emits() {
        let plan = optimized(
            "SELECT p.name FROM clicks c JOIN products p ON c.user_id = p.id WHERE c.bytes > 7",
        );
        let Some(LogicalPlan::Join { left, emit, .. }) = find_join(&plan) else { panic!() };
        // Of (user_id, bytes) ++ (id, name), the parent reads `name` only.
        assert_eq!(left.output().len(), 2);
        assert_eq!(emit, &vec![3]);
        assert_eq!(find_join(&plan).unwrap().output().len(), 1);
    }

    #[test]
    fn moderately_small_inner_still_broadcasts_when_cheaper() {
        // 6M inner × 16 slices = 96M rows moved, vs re-hashing ~2B rows:
        // broadcast wins even though the inner isn't tiny.
        let plan = optimized(
            "SELECT c.url FROM clicks c JOIN products p ON c.bytes = p.id",
        );
        if let Some(LogicalPlan::Join { strategy, .. }) = find_join(&plan) {
            assert_eq!(*strategy, JoinDistStrategy::BcastInner);
        } else {
            panic!();
        }
    }

    #[test]
    fn column_pruning_narrows_scans() {
        let plan = optimized("SELECT url FROM clicks");
        if let LogicalPlan::Project { input, .. } = &plan {
            if let LogicalPlan::Scan { projection, .. } = input.as_ref() {
                assert_eq!(projection, &vec![1], "only url read");
                return;
            }
        }
        panic!("unexpected shape: {plan:?}");
    }

    #[test]
    fn pruning_keeps_join_keys() {
        let plan = optimized(
            "SELECT p.name FROM clicks c JOIN products p ON c.user_id = p.id",
        );
        if let Some(LogicalPlan::Join { left, right, left_key, right_key, .. }) = find_join(&plan)
        {
            // Keys must be valid positions in the pruned children.
            assert!(*left_key < left.output().len());
            assert!(*right_key < right.output().len());
        } else {
            panic!();
        }
    }

    #[test]
    fn aggregate_query_end_to_end_shape() {
        let plan = optimized(
            "SELECT date_part('day', ts) AS d, COUNT(*) AS n FROM clicks
             WHERE bytes > 0 GROUP BY date_part('day', ts) ORDER BY n DESC LIMIT 5",
        );
        let text = plan.explain();
        assert!(text.contains("Limit"), "{text}");
        assert!(text.contains("Sort"), "{text}");
        assert!(text.contains("HashAggregate"), "{text}");
        assert!(text.contains("range-restricted"), "{text}");
    }
}
