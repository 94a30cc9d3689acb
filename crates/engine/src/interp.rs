//! Row-at-a-time interpreted expression evaluation.
//!
//! The non-compiled comparator (experiment E7): every row walks the whole
//! expression tree, boxing intermediate `Value`s — the "overhead of
//! execution in a general-purpose set of executor functions" the paper
//! says compilation avoids. Also the evaluator of the row-store baseline
//! engine.

use crate::expr::scalar_arith;
use crate::like::LikeMatcher;
use redsim_common::{Result, RsError, Value};
use redsim_sql::ast::{BinaryOp, UnaryOp};
use redsim_sql::plan::{BoundExpr, ScalarFunc};

/// Evaluate an expression against one row.
pub fn eval_row(expr: &BoundExpr, row: &[Value]) -> Result<Value> {
    Ok(match expr {
        BoundExpr::Column { index, .. } => row
            .get(*index)
            .cloned()
            .ok_or_else(|| RsError::Execution(format!("column {index} missing")))?,
        BoundExpr::Literal(v) => v.clone(),
        BoundExpr::Unary { op, expr } => {
            let v = eval_row(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            match op {
                UnaryOp::Not => Value::Bool(!v.as_bool().ok_or_else(|| {
                    RsError::Execution("NOT on non-boolean".into())
                })?),
                UnaryOp::Neg => crate::expr::negate(v)?,
            }
        }
        BoundExpr::Binary { left, op, right } => {
            let a = eval_row(left, row)?;
            match op {
                BinaryOp::And => {
                    // Short-circuit with ternary logic.
                    match a.as_bool() {
                        Some(false) => Value::Bool(false),
                        _ => {
                            let b = eval_row(right, row)?;
                            match (a.as_bool(), b.as_bool()) {
                                (_, Some(false)) => Value::Bool(false),
                                (Some(true), Some(true)) => Value::Bool(true),
                                _ => Value::Null,
                            }
                        }
                    }
                }
                BinaryOp::Or => match a.as_bool() {
                    Some(true) => Value::Bool(true),
                    _ => {
                        let b = eval_row(right, row)?;
                        match (a.as_bool(), b.as_bool()) {
                            (_, Some(true)) => Value::Bool(true),
                            (Some(false), Some(false)) => Value::Bool(false),
                            _ => Value::Null,
                        }
                    }
                },
                op if op.is_comparison() => {
                    let b = eval_row(right, row)?;
                    if a.is_null() || b.is_null() {
                        Value::Null
                    } else {
                        use std::cmp::Ordering::*;
                        let ord = a.cmp_sql(&b);
                        Value::Bool(match op {
                            BinaryOp::Eq => ord == Equal,
                            BinaryOp::NotEq => ord != Equal,
                            BinaryOp::Lt => ord == Less,
                            BinaryOp::LtEq => ord != Greater,
                            BinaryOp::Gt => ord == Greater,
                            BinaryOp::GtEq => ord != Less,
                            _ => unreachable!(),
                        })
                    }
                }
                BinaryOp::Concat => {
                    let b = eval_row(right, row)?;
                    if a.is_null() || b.is_null() {
                        Value::Null
                    } else {
                        Value::Str(format!("{a}{b}"))
                    }
                }
                op => {
                    let b = eval_row(right, row)?;
                    if a.is_null() || b.is_null() {
                        Value::Null
                    } else {
                        scalar_arith(&a, *op, &b)?
                    }
                }
            }
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval_row(expr, row)?;
            Value::Bool(v.is_null() != *negated)
        }
        BoundExpr::InList { expr, list, negated } => {
            let v = eval_row(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            Value::Bool(list.iter().any(|x| v.eq_sql(x)) != *negated)
        }
        BoundExpr::Like { expr, pattern, negated } => {
            let v = eval_row(expr, row)?;
            match v.as_str() {
                None => Value::Null,
                // A fresh matcher per row: this path is *meant* to model
                // naive interpretation.
                Some(s) => Value::Bool(LikeMatcher::new(pattern).matches(s) != *negated),
            }
        }
        BoundExpr::Cast { expr, to } => {
            let v = eval_row(expr, row)?;
            if v.is_null() {
                Value::Null
            } else {
                v.coerce_to(*to)?
            }
        }
        BoundExpr::Case { branches, else_expr, ty } => {
            for (c, val) in branches {
                if matches!(eval_row(c, row)?, Value::Bool(true)) {
                    return eval_row(val, row)?.coerce_to(*ty);
                }
            }
            match else_expr {
                Some(e) => eval_row(e, row)?.coerce_to(*ty)?,
                None => Value::Null,
            }
        }
        BoundExpr::Func { func, args } => {
            let v = eval_row(&args[0], row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            match func {
                ScalarFunc::Lower => Value::Str(v.to_string().to_lowercase()),
                ScalarFunc::Upper => Value::Str(v.to_string().to_uppercase()),
                ScalarFunc::Length => Value::Int4(v.to_string().chars().count() as i32),
                ScalarFunc::Abs => match v {
                    Value::Float8(f) => Value::Float8(f.abs()),
                    Value::Decimal { units, scale } => Value::Decimal { units: units.abs(), scale },
                    other => Value::Int8(other.as_i64().unwrap_or(0).abs()),
                },
                ScalarFunc::DatePartYear | ScalarFunc::DatePartMonth | ScalarFunc::DatePartDay => {
                    let days = match v {
                        Value::Date(d) => d,
                        Value::Timestamp(us) => us.div_euclid(86_400_000_000) as i32,
                        other => {
                            return Err(RsError::Execution(format!("date_part on {other:?}")))
                        }
                    };
                    let (y, m, d) = redsim_common::types::date_from_epoch_days(days);
                    Value::Int4(match func {
                        ScalarFunc::DatePartYear => y,
                        ScalarFunc::DatePartMonth => m as i32,
                        _ => d as i32,
                    })
                }
            }
        }
    })
}

/// Predicate semantics: only TRUE passes.
pub fn row_passes(expr: &BoundExpr, row: &[Value]) -> Result<bool> {
    Ok(matches!(eval_row(expr, row)?, Value::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::DataType;

    #[test]
    fn matches_vectorized_semantics() {
        let row = vec![Value::Int8(5), Value::Null, Value::Str("abc".into())];
        let col = |i: usize, ty: DataType| BoundExpr::Column { index: i, ty };
        // 5 + NULL = NULL.
        let e = BoundExpr::Binary {
            left: Box::new(col(0, DataType::Int8)),
            op: BinaryOp::Add,
            right: Box::new(col(1, DataType::Int8)),
        };
        assert!(eval_row(&e, &row).unwrap().is_null());
        // LIKE.
        let e = BoundExpr::Like {
            expr: Box::new(col(2, DataType::Varchar)),
            pattern: "a%".into(),
            negated: false,
        };
        assert_eq!(eval_row(&e, &row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_avoids_rhs_error() {
        // FALSE AND (1/0 = 1) must not error.
        let div0 = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int8(1))),
            op: BinaryOp::Div,
            right: Box::new(BoundExpr::Literal(Value::Int8(0))),
        };
        let cmp = BoundExpr::Binary {
            left: Box::new(div0),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::Literal(Value::Int8(1))),
        };
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Bool(false))),
            op: BinaryOp::And,
            right: Box::new(cmp),
        };
        assert_eq!(eval_row(&e, &[]).unwrap(), Value::Bool(false));
    }
}
