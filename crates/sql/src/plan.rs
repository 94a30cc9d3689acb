//! Bound expressions and the logical plan.

use crate::ast::{BinaryOp, JoinType, UnaryOp};
use redsim_common::{DataType, Result, RsError, Value};
use redsim_distribution::JoinDistStrategy;
use redsim_storage::table::{ColumnRange, ScanPredicate};

/// Scalar functions available in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    Lower,
    Upper,
    Length,
    Abs,
    /// `date_part('year'|'month'|'day', date_or_ts)` — field baked in.
    DatePartYear,
    DatePartMonth,
    DatePartDay,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
    /// KMV-sketch approximate distinct count.
    ApproxCountDistinct,
}

/// A type-resolved expression over a child plan's output columns.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Reference into the input batch by position.
    Column { index: usize, ty: DataType },
    Literal(Value),
    Unary { op: UnaryOp, expr: Box<BoundExpr> },
    Binary { left: Box<BoundExpr>, op: BinaryOp, right: Box<BoundExpr> },
    IsNull { expr: Box<BoundExpr>, negated: bool },
    InList { expr: Box<BoundExpr>, list: Vec<Value>, negated: bool },
    Like { expr: Box<BoundExpr>, pattern: String, negated: bool },
    Cast { expr: Box<BoundExpr>, to: DataType },
    Case { branches: Vec<(BoundExpr, BoundExpr)>, else_expr: Option<Box<BoundExpr>>, ty: DataType },
    Func { func: ScalarFunc, args: Vec<BoundExpr> },
}

impl BoundExpr {
    /// The expression's result type.
    pub fn ty(&self) -> DataType {
        match self {
            BoundExpr::Column { ty, .. } => *ty,
            BoundExpr::Literal(v) => v.data_type().unwrap_or(DataType::Bool),
            BoundExpr::Unary { op: UnaryOp::Not, .. } => DataType::Bool,
            BoundExpr::Unary { op: UnaryOp::Neg, expr } => expr.ty(),
            BoundExpr::Binary { left, op, right } => {
                if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                    DataType::Bool
                } else if *op == BinaryOp::Concat {
                    DataType::Varchar
                } else {
                    numeric_result_type(left.ty(), right.ty())
                }
            }
            BoundExpr::IsNull { .. } | BoundExpr::InList { .. } | BoundExpr::Like { .. } => {
                DataType::Bool
            }
            BoundExpr::Cast { to, .. } => *to,
            BoundExpr::Case { ty, .. } => *ty,
            BoundExpr::Func { func, args } => match func {
                ScalarFunc::Lower | ScalarFunc::Upper => DataType::Varchar,
                ScalarFunc::Length
                | ScalarFunc::DatePartYear
                | ScalarFunc::DatePartMonth
                | ScalarFunc::DatePartDay => DataType::Int4,
                ScalarFunc::Abs => args.first().map(|a| a.ty()).unwrap_or(DataType::Float8),
            },
        }
    }

    /// Visit every column reference.
    pub fn for_each_column(&self, f: &mut impl FnMut(usize)) {
        match self {
            BoundExpr::Column { index, .. } => f(*index),
            BoundExpr::Literal(_) => {}
            BoundExpr::Unary { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::Like { expr, .. } => expr.for_each_column(f),
            BoundExpr::Binary { left, right, .. } => {
                left.for_each_column(f);
                right.for_each_column(f);
            }
            BoundExpr::InList { expr, .. } => expr.for_each_column(f),
            BoundExpr::Case { branches, else_expr, .. } => {
                for (c, v) in branches {
                    c.for_each_column(f);
                    v.for_each_column(f);
                }
                if let Some(e) = else_expr {
                    e.for_each_column(f);
                }
            }
            BoundExpr::Func { args, .. } => {
                for a in args {
                    a.for_each_column(f);
                }
            }
        }
    }

    /// Rewrite column indexes through `map` (old index → new index).
    /// Fails if a referenced column is not in the map.
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> Option<usize>) -> Result<BoundExpr> {
        Ok(match self {
            BoundExpr::Column { index, ty } => BoundExpr::Column {
                index: map(*index).ok_or_else(|| {
                    RsError::Plan(format!("column {index} lost during remap"))
                })?,
                ty: *ty,
            },
            BoundExpr::Literal(v) => BoundExpr::Literal(v.clone()),
            BoundExpr::Unary { op, expr } => {
                BoundExpr::Unary { op: *op, expr: Box::new(expr.remap_columns(map)?) }
            }
            BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(left.remap_columns(map)?),
                op: *op,
                right: Box::new(right.remap_columns(map)?),
            },
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(expr.remap_columns(map)?),
                negated: *negated,
            },
            BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
                expr: Box::new(expr.remap_columns(map)?),
                list: list.clone(),
                negated: *negated,
            },
            BoundExpr::Like { expr, pattern, negated } => BoundExpr::Like {
                expr: Box::new(expr.remap_columns(map)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            BoundExpr::Cast { expr, to } => {
                BoundExpr::Cast { expr: Box::new(expr.remap_columns(map)?), to: *to }
            }
            BoundExpr::Case { branches, else_expr, ty } => BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((c.remap_columns(map)?, v.remap_columns(map)?)))
                    .collect::<Result<_>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(e.remap_columns(map)?)),
                    None => None,
                },
                ty: *ty,
            },
            BoundExpr::Func { func, args } => BoundExpr::Func {
                func: *func,
                args: args.iter().map(|a| a.remap_columns(map)).collect::<Result<_>>()?,
            },
        })
    }
}

/// Promote numeric operands (int < decimal < float).
pub fn numeric_result_type(a: DataType, b: DataType) -> DataType {
    use DataType::*;
    match (a, b) {
        (Float8, _) | (_, Float8) => Float8,
        (Decimal(p1, s1), Decimal(p2, s2)) => Decimal(p1.max(p2), s1.max(s2)),
        (Decimal(p, s), _) | (_, Decimal(p, s)) => Decimal(p, s),
        (Int8, _) | (_, Int8) => Int8,
        (Int4, _) | (_, Int4) => Int4,
        (Int2, Int2) => Int2,
        // Dates/timestamps in arithmetic degrade to Int8 (epoch units).
        _ => Int8,
    }
}

/// One aggregate computation.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    pub arg: Option<BoundExpr>,
    pub distinct: bool,
    pub output_name: String,
}

impl AggExpr {
    /// Result type of the aggregate.
    pub fn ty(&self) -> DataType {
        match self.func {
            AggFunc::Count | AggFunc::CountStar | AggFunc::ApproxCountDistinct => DataType::Int8,
            AggFunc::Avg => DataType::Float8,
            AggFunc::Sum => match self.arg.as_ref().map(|a| a.ty()) {
                Some(DataType::Float8) => DataType::Float8,
                Some(DataType::Decimal(p, s)) => DataType::Decimal(p, s),
                _ => DataType::Int8,
            },
            AggFunc::Min | AggFunc::Max => {
                self.arg.as_ref().map(|a| a.ty()).unwrap_or(DataType::Int8)
            }
        }
    }
}

/// Output column description.
#[derive(Debug, Clone, PartialEq)]
pub struct OutCol {
    pub name: String,
    pub ty: DataType,
}

/// The logical plan. Left-deep joins; every expression is bound to its
/// child's output positions.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Leaf scan of a stored table.
    Scan {
        table: String,
        /// Columns of the table read, in output order.
        projection: Vec<usize>,
        /// Output column descriptions (parallel to `projection`).
        output: Vec<OutCol>,
        /// Residual filter over the scan *output* columns.
        filter: Option<BoundExpr>,
        /// Zone-map ranges over *table* column indexes (set by the
        /// optimizer from the pushed-down filter).
        pruning: ScanPredicate,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: BoundExpr,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        join_type: JoinType,
        /// Equi-join key positions in each child's output.
        left_key: usize,
        right_key: usize,
        /// Extra non-equi conjuncts evaluated after the match
        /// (over the concatenated output).
        residual: Option<BoundExpr>,
        /// Data-movement strategy chosen by the optimizer.
        strategy: JoinDistStrategy,
        /// The columns this join emits, as positions in the concatenated
        /// (left ++ right) child outputs, in output order. The binder
        /// emits everything; column pruning narrows it to what the parent
        /// reads, so keys and filter-only columns are never materialised.
        emit: Vec<usize>,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        output: Vec<OutCol>,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<BoundExpr>,
        output: Vec<OutCol>,
    },
    Sort {
        input: Box<LogicalPlan>,
        /// (key expression over input output, descending?).
        keys: Vec<(BoundExpr, bool)>,
    },
    Limit {
        input: Box<LogicalPlan>,
        n: u64,
    },
}

impl LogicalPlan {
    /// Output column descriptions of this node.
    pub fn output(&self) -> Vec<OutCol> {
        match self {
            LogicalPlan::Scan { output, .. } => output.clone(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.output(),
            LogicalPlan::Join { left, right, emit, .. } => {
                let mut all = left.output();
                all.extend(right.output());
                emit.iter().map(|&i| all[i].clone()).collect()
            }
            LogicalPlan::Aggregate { output, .. } | LogicalPlan::Project { output, .. } => {
                output.clone()
            }
        }
    }

    /// Pretty-print (EXPLAIN).
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(0, &mut s);
        s
    }

    /// Nodes in this subtree. Step ids in profiler output are pre-order
    /// indexes over the plan (node first, then children, joins
    /// left-then-right) — the same order [`LogicalPlan::explain`] prints
    /// lines in, so `svl_query_report.step` N annotates EXPLAIN line N.
    pub fn num_steps(&self) -> usize {
        1 + match self {
            LogicalPlan::Scan { .. } => 0,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.num_steps(),
            LogicalPlan::Join { left, right, .. } => left.num_steps() + right.num_steps(),
        }
    }

    /// Short operator label for profiler rows (`svl_query_report`),
    /// matching the head of the corresponding [`LogicalPlan::explain`]
    /// line.
    pub fn node_label(&self) -> String {
        match self {
            LogicalPlan::Scan { table, .. } => format!("Seq Scan on {table}"),
            LogicalPlan::Filter { .. } => "Filter".to_string(),
            LogicalPlan::Join { strategy, join_type, .. } => {
                format!("Hash Join {join_type:?} ({strategy})")
            }
            LogicalPlan::Aggregate { .. } => "HashAggregate".to_string(),
            LogicalPlan::Project { .. } => "Project".to_string(),
            LogicalPlan::Sort { .. } => "Sort".to_string(),
            LogicalPlan::Limit { n, .. } => format!("Limit {n}"),
        }
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan { table, projection, filter, pruning, .. } => {
                out.push_str(&format!(
                    "{pad}XN Seq Scan on {table} (cols {projection:?}{}{})\n",
                    if filter.is_some() { ", filter" } else { "" },
                    if pruning.ranges.is_empty() { "" } else { ", range-restricted" },
                ));
            }
            LogicalPlan::Filter { input, .. } => {
                out.push_str(&format!("{pad}XN Filter\n"));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Join { left, right, strategy, join_type, .. } => {
                out.push_str(&format!("{pad}XN Hash Join {join_type:?} ({strategy})\n"));
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            LogicalPlan::Aggregate { input, group_by, aggs, .. } => {
                out.push_str(&format!(
                    "{pad}XN HashAggregate (groups={}, aggs={})\n",
                    group_by.len(),
                    aggs.len()
                ));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                out.push_str(&format!("{pad}XN Project ({} cols)\n", exprs.len()));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Sort { input, keys } => {
                out.push_str(&format!("{pad}XN Sort ({} keys)\n", keys.len()));
                input.explain_into(depth + 1, out);
            }
            LogicalPlan::Limit { input, n } => {
                out.push_str(&format!("{pad}XN Limit {n}\n"));
                input.explain_into(depth + 1, out);
            }
        }
    }
}

/// Helper to construct a [`ColumnRange`] (re-exported storage type).
pub fn column_range(col: usize, lo: Option<Value>, hi: Option<Value>) -> ColumnRange {
    ColumnRange { col, lo, hi }
}
