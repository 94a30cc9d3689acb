//! Vectorized expression evaluation.
//!
//! Expressions are evaluated batch-at-a-time: one pass over the
//! expression tree per 4k-row batch, with typed inner loops on the hot
//! arithmetic/comparison paths and a scalar fallback elsewhere. This is
//! the "tight execution" half of the paper's compilation argument; the
//! per-row comparator lives in [`crate::interp`].

use crate::like::LikeMatcher;
use crate::selection::Selection;
use redsim_common::{ColumnData, DataType, Result, RsError, Value};
use redsim_sql::ast::{BinaryOp, UnaryOp};
use redsim_sql::plan::{BoundExpr, ScalarFunc};

/// Evaluate an expression over a batch, producing one output column.
pub fn eval(expr: &BoundExpr, batch: &[ColumnData], rows: usize) -> Result<ColumnData> {
    match expr {
        BoundExpr::Column { index, .. } => {
            let col = batch
                .get(*index)
                .ok_or_else(|| RsError::Execution(format!("column {index} missing")))?;
            Ok(col.clone())
        }
        BoundExpr::Literal(v) => {
            let ty = v.data_type().unwrap_or(DataType::Bool);
            let mut out = ColumnData::new(ty);
            for _ in 0..rows {
                out.push_value(v)?;
            }
            Ok(out)
        }
        BoundExpr::Unary { op, expr } => {
            let inner = eval(expr, batch, rows)?;
            match op {
                UnaryOp::Not => {
                    let mut out = ColumnData::new(DataType::Bool);
                    for i in 0..inner.len() {
                        match inner.get(i) {
                            Value::Null => out.push_null(),
                            Value::Bool(b) => out.push_value(&Value::Bool(!b))?,
                            other => {
                                return Err(RsError::Execution(format!("NOT on {other:?}")))
                            }
                        }
                    }
                    Ok(out)
                }
                UnaryOp::Neg => {
                    let mut out = ColumnData::new(inner.data_type());
                    for i in 0..inner.len() {
                        match inner.get(i) {
                            Value::Null => out.push_null(),
                            v => out.push_value(&negate(v)?)?,
                        }
                    }
                    Ok(out)
                }
            }
        }
        BoundExpr::Binary { left, op, right } => {
            let l = eval(left, batch, rows)?;
            let r = eval(right, batch, rows)?;
            eval_binary(&l, *op, &r, expr.ty())
        }
        BoundExpr::IsNull { expr, negated } => {
            let inner = eval(expr, batch, rows)?;
            let mut out = ColumnData::new(DataType::Bool);
            for i in 0..inner.len() {
                let b = inner.is_null(i) != *negated;
                out.push_value(&Value::Bool(b))?;
            }
            Ok(out)
        }
        BoundExpr::InList { expr, list, negated } => {
            let inner = eval(expr, batch, rows)?;
            let mut out = ColumnData::new(DataType::Bool);
            for i in 0..inner.len() {
                let v = inner.get(i);
                if v.is_null() {
                    out.push_null();
                    continue;
                }
                let found = list.iter().any(|item| v.eq_sql(item));
                out.push_value(&Value::Bool(found != *negated))?;
            }
            Ok(out)
        }
        BoundExpr::Like { expr, pattern, negated } => {
            let inner = eval(expr, batch, rows)?;
            let matcher = LikeMatcher::new(pattern);
            let mut out = ColumnData::new(DataType::Bool);
            for i in 0..inner.len() {
                match inner.get_str(i) {
                    None => out.push_null(),
                    Some(s) => out.push_value(&Value::Bool(matcher.matches(s) != *negated))?,
                }
            }
            Ok(out)
        }
        BoundExpr::Cast { expr, to } => {
            let inner = eval(expr, batch, rows)?;
            let mut out = ColumnData::new(*to);
            for i in 0..inner.len() {
                let v = inner.get(i);
                if v.is_null() {
                    out.push_null();
                } else if *to == DataType::Date {
                    // String → date parses; numerics pass through as days.
                    match &v {
                        Value::Str(s) => out.push_value(&Value::Date(
                            redsim_common::types::parse_date(s)?,
                        ))?,
                        _ => out.push_value(&v.coerce_to(*to)?)?,
                    }
                } else if *to == DataType::Timestamp {
                    match &v {
                        Value::Str(s) => out.push_value(&Value::Timestamp(
                            redsim_common::types::parse_timestamp(s)?,
                        ))?,
                        _ => out.push_value(&v.coerce_to(*to)?)?,
                    }
                } else if matches!(to, DataType::Decimal(_, _)) {
                    match &v {
                        Value::Str(s) => {
                            let scale = match to {
                                DataType::Decimal(_, s2) => *s2,
                                _ => unreachable!(),
                            };
                            out.push_value(&Value::Decimal {
                                units: redsim_common::types::parse_decimal(s, scale)?,
                                scale,
                            })?
                        }
                        _ => out.push_value(&v.coerce_to(*to)?)?,
                    }
                } else if *to == DataType::Int8 && matches!(v, Value::Str(_)) {
                    let s = v.as_str().unwrap().trim();
                    let n: i64 = s
                        .parse()
                        .map_err(|_| RsError::Execution(format!("cannot cast {s:?} to BIGINT")))?;
                    out.push_value(&Value::Int8(n))?;
                } else {
                    out.push_value(&v.coerce_to(*to)?)?;
                }
            }
            Ok(out)
        }
        BoundExpr::Case { branches, else_expr, ty } => {
            let conds: Vec<Selection> = branches
                .iter()
                .map(|(c, _)| eval_predicate(c, batch, rows))
                .collect::<Result<_>>()?;
            let vals: Vec<ColumnData> = branches
                .iter()
                .map(|(_, v)| eval(v, batch, rows))
                .collect::<Result<_>>()?;
            let else_col = match else_expr {
                Some(e) => Some(eval(e, batch, rows)?),
                None => None,
            };
            // Which branch each row takes: the first whose condition
            // holds, so conditions are applied last to first.
            const ELSE: usize = usize::MAX;
            let mut branch_of = vec![ELSE; rows];
            for (b, cond) in conds.iter().enumerate().rev() {
                cond.for_each(|_, i| branch_of[i] = b);
            }
            let mut out = ColumnData::new(*ty);
            for (i, &b) in branch_of.iter().enumerate() {
                match (vals.get(b), &else_col) {
                    (Some(v), _) => out.push_value(&v.get(i).coerce_to(*ty)?)?,
                    (None, Some(e)) => out.push_value(&e.get(i).coerce_to(*ty)?)?,
                    (None, None) => out.push_null(),
                }
            }
            Ok(out)
        }
        BoundExpr::Func { func, args } => {
            let arg = eval(&args[0], batch, rows)?;
            let mut out = ColumnData::new(expr.ty());
            for i in 0..arg.len() {
                if arg.is_null(i) {
                    out.push_null();
                    continue;
                }
                let v = match func {
                    ScalarFunc::Lower => Value::Str(arg.get_str(i).unwrap_or("").to_lowercase()),
                    ScalarFunc::Upper => Value::Str(arg.get_str(i).unwrap_or("").to_uppercase()),
                    ScalarFunc::Length => {
                        Value::Int4(arg.get_str(i).map_or(0, |s| s.chars().count() as i32))
                    }
                    ScalarFunc::Abs => match arg.get(i) {
                        Value::Float8(f) => Value::Float8(f.abs()),
                        Value::Decimal { units, scale } => {
                            Value::Decimal { units: units.abs(), scale }
                        }
                        v => Value::Int8(v.as_i64().unwrap_or(0).abs()),
                    },
                    ScalarFunc::DatePartYear
                    | ScalarFunc::DatePartMonth
                    | ScalarFunc::DatePartDay => {
                        let days = match arg.get(i) {
                            Value::Date(d) => d,
                            Value::Timestamp(us) => us.div_euclid(86_400_000_000) as i32,
                            other => {
                                return Err(RsError::Execution(format!(
                                    "date_part on {other:?}"
                                )))
                            }
                        };
                        let (y, m, d) = redsim_common::types::date_from_epoch_days(days);
                        Value::Int4(match func {
                            ScalarFunc::DatePartYear => y,
                            ScalarFunc::DatePartMonth => m as i32,
                            _ => d as i32,
                        })
                    }
                };
                out.push_value(&v)?;
            }
            Ok(out)
        }
    }
}

/// Evaluate a boolean predicate over every row: the rows on which it is
/// TRUE (SQL WHERE semantics: NULL does not pass). Dispatches to the
/// columnar kernels ([`crate::kernels`]) when the expression is covered;
/// otherwise falls back to the `Value`-boxed interpreter below. The
/// `vector_*` property suite pins both paths to identical selections.
pub fn eval_predicate(expr: &BoundExpr, batch: &[ColumnData], rows: usize) -> Result<Selection> {
    Ok(narrow_predicate(expr, batch, &Selection::all(rows))?.0)
}

/// Narrow `cand` to the rows on which `expr` is TRUE, and say whether
/// the interpreter had to run (the executor counts those batches). The
/// interpreter only ever sees a dense copy of the candidates, so it
/// raises exactly the errors it would over a filtered copy of the batch.
pub(crate) fn narrow_predicate(
    expr: &BoundExpr,
    batch: &[ColumnData],
    cand: &Selection,
) -> Result<(Selection, bool)> {
    if let Some(sel) = crate::kernels::narrow(expr, batch, cand) {
        return Ok((sel, false));
    }
    let sel = if cand.is_all() {
        eval_predicate_interp(expr, batch, cand.rows())?
    } else {
        cand.compose(&eval_predicate_interp(expr, &cand.gather(batch), cand.len())?)
    };
    Ok((sel, true))
}

/// The interpreter path of [`eval_predicate`]: materialize the ternary
/// boolean column, then keep the rows that are TRUE. Public so kernel
/// coverage can be differentially fuzzed against it.
pub fn eval_predicate_interp(
    expr: &BoundExpr,
    batch: &[ColumnData],
    rows: usize,
) -> Result<Selection> {
    let col = eval(expr, batch, rows)?;
    Ok(Selection::all(col.len()).select(|i| matches!(col.get(i), Value::Bool(true))))
}

pub(crate) fn negate(v: Value) -> Result<Value> {
    Ok(match v {
        Value::Int2(x) => Value::Int2(-x),
        Value::Int4(x) => Value::Int4(-x),
        Value::Int8(x) => Value::Int8(-x),
        Value::Float8(x) => Value::Float8(-x),
        Value::Decimal { units, scale } => Value::Decimal { units: -units, scale },
        other => return Err(RsError::Execution(format!("cannot negate {other:?}"))),
    })
}

fn eval_binary(l: &ColumnData, op: BinaryOp, r: &ColumnData, out_ty: DataType) -> Result<ColumnData> {
    use BinaryOp::*;
    let rows = l.len().max(r.len());
    debug_assert!(l.len() == r.len());
    match op {
        And | Or => {
            let mut out = ColumnData::new(DataType::Bool);
            for i in 0..rows {
                // SQL ternary logic.
                let a = l.get(i).as_bool();
                let b = r.get(i).as_bool();
                let v = match op {
                    And => match (a, b) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    },
                    Or => match (a, b) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    },
                    _ => unreachable!(),
                };
                match v {
                    Some(b) => out.push_value(&Value::Bool(b))?,
                    None => out.push_null(),
                }
            }
            Ok(out)
        }
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let mut out = ColumnData::new(DataType::Bool);
            // Fast path: both integer-family columns.
            if int_family(l.data_type()) && int_family(r.data_type()) {
                for i in 0..rows {
                    match (l.get_i64(i), r.get_i64(i)) {
                        (Some(a), Some(b)) => {
                            out.push_value(&Value::Bool(cmp_holds(a.cmp(&b), op)))?
                        }
                        _ => out.push_null(),
                    }
                }
                return Ok(out);
            }
            for i in 0..rows {
                let (a, b) = (l.get(i), r.get(i));
                if a.is_null() || b.is_null() {
                    out.push_null();
                    continue;
                }
                out.push_value(&Value::Bool(cmp_holds(a.cmp_sql(&b), op)))?;
            }
            Ok(out)
        }
        Concat => {
            let mut out = ColumnData::new(DataType::Varchar);
            for i in 0..rows {
                let (a, b) = (l.get(i), r.get(i));
                if a.is_null() || b.is_null() {
                    out.push_null();
                } else {
                    out.push_value(&Value::Str(format!("{a}{b}")))?;
                }
            }
            Ok(out)
        }
        Add | Sub | Mul | Div | Mod => {
            let mut out = ColumnData::new(out_ty);
            // Fast paths keep the hot loops typed.
            match (&out_ty, l, r) {
                (DataType::Int8, _, _) if int_family(l.data_type()) && int_family(r.data_type()) => {
                    for i in 0..rows {
                        match (l.get_i64(i), r.get_i64(i)) {
                            (Some(a), Some(b)) => {
                                out.push_value(&Value::Int8(int_arith(a, op, b)?))?
                            }
                            _ => out.push_null(),
                        }
                    }
                }
                (DataType::Float8, _, _) => {
                    for i in 0..rows {
                        match (l.get_f64(i), r.get_f64(i)) {
                            (Some(a), Some(b)) => {
                                out.push_value(&Value::Float8(float_arith(a, op, b)))?
                            }
                            _ => out.push_null(),
                        }
                    }
                }
                _ => {
                    for i in 0..rows {
                        let (a, b) = (l.get(i), r.get(i));
                        if a.is_null() || b.is_null() {
                            out.push_null();
                        } else {
                            out.push_value(&scalar_arith(&a, op, &b)?.coerce_to(out_ty)?)?;
                        }
                    }
                }
            }
            Ok(out)
        }
    }
}

fn int_family(t: DataType) -> bool {
    t.is_integer() || matches!(t, DataType::Date | DataType::Timestamp | DataType::Bool)
}

pub(crate) fn cmp_holds(ord: std::cmp::Ordering, op: BinaryOp) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinaryOp::Eq => ord == Equal,
        BinaryOp::NotEq => ord != Equal,
        BinaryOp::Lt => ord == Less,
        BinaryOp::LtEq => ord != Greater,
        BinaryOp::Gt => ord == Greater,
        BinaryOp::GtEq => ord != Less,
        _ => unreachable!(),
    }
}

fn int_arith(a: i64, op: BinaryOp, b: i64) -> Result<i64> {
    let overflow = || RsError::Execution("integer overflow".into());
    Ok(match op {
        BinaryOp::Add => a.checked_add(b).ok_or_else(overflow)?,
        BinaryOp::Sub => a.checked_sub(b).ok_or_else(overflow)?,
        BinaryOp::Mul => a.checked_mul(b).ok_or_else(overflow)?,
        BinaryOp::Div => {
            if b == 0 {
                return Err(RsError::Execution("division by zero".into()));
            }
            a.checked_div(b).ok_or_else(overflow)?
        }
        BinaryOp::Mod => {
            if b == 0 {
                return Err(RsError::Execution("division by zero".into()));
            }
            a.checked_rem(b).ok_or_else(overflow)?
        }
        _ => unreachable!(),
    })
}

pub(crate) fn float_arith(a: f64, op: BinaryOp, b: f64) -> f64 {
    match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => a / b,
        BinaryOp::Mod => a % b,
        _ => unreachable!(),
    }
}

/// Scalar arithmetic used by the generic path and the interpreter.
pub fn scalar_arith(a: &Value, op: BinaryOp, b: &Value) -> Result<Value> {
    // Decimal-exact when both are decimals and the op is +,-,*.
    if let (Value::Decimal { units: ua, scale: sa }, Value::Decimal { units: ub, scale: sb }) =
        (a, b)
    {
        use redsim_common::types::rescale;
        match op {
            BinaryOp::Add | BinaryOp::Sub => {
                let s = (*sa).max(*sb);
                let x = rescale(*ua, *sa, s)?;
                let y = rescale(*ub, *sb, s)?;
                let units = if op == BinaryOp::Add { x + y } else { x - y };
                return Ok(Value::Decimal { units, scale: s });
            }
            BinaryOp::Mul => {
                let s = (*sa + *sb).min(38);
                let units = ua
                    .checked_mul(*ub)
                    .ok_or_else(|| RsError::Execution("decimal overflow".into()))?;
                // Product scale is sa+sb naturally.
                return Ok(Value::Decimal {
                    units: redsim_common::types::rescale(units, sa + sb, s)?,
                    scale: s,
                });
            }
            _ => {}
        }
    }
    // Integer-family exact.
    if let (Some(x), Some(y)) = (a.as_i64(), b.as_i64()) {
        if !matches!(a, Value::Float8(_) | Value::Decimal { .. })
            && !matches!(b, Value::Float8(_) | Value::Decimal { .. })
        {
            return Ok(Value::Int8(int_arith(x, op, y)?));
        }
    }
    // Fallback: f64.
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => {
            if matches!(op, BinaryOp::Div | BinaryOp::Mod) && y == 0.0 {
                return Err(RsError::Execution("division by zero".into()));
            }
            Ok(Value::Float8(float_arith(x, op, y)))
        }
        _ => Err(RsError::Execution(format!("cannot apply {op:?} to {a:?} and {b:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int8_col(vals: &[Option<i64>]) -> ColumnData {
        let mut c = ColumnData::new(DataType::Int8);
        for v in vals {
            match v {
                Some(x) => c.push_value(&Value::Int8(*x)).unwrap(),
                None => c.push_null(),
            }
        }
        c
    }

    fn col_expr(i: usize, ty: DataType) -> BoundExpr {
        BoundExpr::Column { index: i, ty }
    }

    #[test]
    fn arithmetic_and_comparison() {
        let batch = vec![int8_col(&[Some(1), Some(2), None]), int8_col(&[Some(10), Some(20), Some(30)])];
        let sum = BoundExpr::Binary {
            left: Box::new(col_expr(0, DataType::Int8)),
            op: BinaryOp::Add,
            right: Box::new(col_expr(1, DataType::Int8)),
        };
        let out = eval(&sum, &batch, 3).unwrap();
        assert_eq!(out.get_i64(0), Some(11));
        assert_eq!(out.get_i64(1), Some(22));
        assert!(out.is_null(2));

        let cmp = BoundExpr::Binary {
            left: Box::new(col_expr(0, DataType::Int8)),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::Literal(Value::Int8(2))),
        };
        let sel = eval_predicate(&cmp, &batch, 3).unwrap();
        assert_eq!(sel, Selection::from_ids(3, vec![0])); // NULL → false
    }

    #[test]
    fn ternary_logic_and_or() {
        let t = BoundExpr::Literal(Value::Bool(true));
        let n = BoundExpr::Literal(Value::Null);
        let or = BoundExpr::Binary { left: Box::new(n.clone()), op: BinaryOp::Or, right: Box::new(t.clone()) };
        let out = eval(&or, &[], 1).unwrap();
        assert_eq!(out.get(0), Value::Bool(true), "NULL OR TRUE = TRUE");
        let and = BoundExpr::Binary { left: Box::new(n), op: BinaryOp::And, right: Box::new(t) };
        let out = eval(&and, &[], 1).unwrap();
        assert!(out.is_null(0), "NULL AND TRUE = NULL");
    }

    #[test]
    fn division_by_zero_errors() {
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int8(1))),
            op: BinaryOp::Div,
            right: Box::new(BoundExpr::Literal(Value::Int8(0))),
        };
        assert!(eval(&e, &[], 1).is_err());
    }

    #[test]
    fn decimal_exact_arithmetic() {
        let a = Value::Decimal { units: 150, scale: 2 }; // 1.50
        let b = Value::Decimal { units: 25, scale: 1 }; // 2.5
        let sum = scalar_arith(&a, BinaryOp::Add, &b).unwrap();
        assert_eq!(sum.to_string(), "4.00");
        let prod = scalar_arith(&a, BinaryOp::Mul, &b).unwrap();
        assert_eq!(prod.to_string(), "3.750");
    }

    #[test]
    fn case_expression_eval() {
        let batch = vec![int8_col(&[Some(-5), Some(5), None])];
        let case = BoundExpr::Case {
            branches: vec![(
                BoundExpr::Binary {
                    left: Box::new(col_expr(0, DataType::Int8)),
                    op: BinaryOp::Lt,
                    right: Box::new(BoundExpr::Literal(Value::Int8(0))),
                },
                BoundExpr::Literal(Value::Str("neg".into())),
            )],
            else_expr: Some(Box::new(BoundExpr::Literal(Value::Str("pos".into())))),
            ty: DataType::Varchar,
        };
        let out = eval(&case, &batch, 3).unwrap();
        assert_eq!(out.get_str(0), Some("neg"));
        assert_eq!(out.get_str(1), Some("pos"));
        assert_eq!(out.get_str(2), Some("pos")); // NULL cond → ELSE
    }

    #[test]
    fn scalar_functions() {
        let mut s = ColumnData::new(DataType::Varchar);
        s.push_value(&Value::Str("HeLLo".into())).unwrap();
        let batch = vec![s];
        let lower = BoundExpr::Func {
            func: ScalarFunc::Lower,
            args: vec![col_expr(0, DataType::Varchar)],
        };
        assert_eq!(eval(&lower, &batch, 1).unwrap().get_str(0), Some("hello"));
        let len = BoundExpr::Func {
            func: ScalarFunc::Length,
            args: vec![col_expr(0, DataType::Varchar)],
        };
        assert_eq!(eval(&len, &batch, 1).unwrap().get_i64(0), Some(5));
    }

    #[test]
    fn date_part_eval() {
        let mut d = ColumnData::new(DataType::Date);
        d.push_value(&Value::Date(redsim_common::types::epoch_days_from_date(2015, 5, 31)))
            .unwrap();
        let batch = vec![d];
        for (f, want) in [
            (ScalarFunc::DatePartYear, 2015),
            (ScalarFunc::DatePartMonth, 5),
            (ScalarFunc::DatePartDay, 31),
        ] {
            let e = BoundExpr::Func { func: f, args: vec![col_expr(0, DataType::Date)] };
            assert_eq!(eval(&e, &batch, 1).unwrap().get_i64(0), Some(want));
        }
    }

    #[test]
    fn in_list_and_is_null() {
        let batch = vec![int8_col(&[Some(1), Some(5), None])];
        let inl = BoundExpr::InList {
            expr: Box::new(col_expr(0, DataType::Int8)),
            list: vec![Value::Int8(1), Value::Int8(2)],
            negated: false,
        };
        let sel = eval_predicate(&inl, &batch, 3).unwrap();
        assert_eq!(sel, Selection::from_ids(3, vec![0]));
        let isn = BoundExpr::IsNull { expr: Box::new(col_expr(0, DataType::Int8)), negated: false };
        let sel = eval_predicate(&isn, &batch, 3).unwrap();
        assert_eq!(sel, Selection::from_ids(3, vec![2]));
    }
}
