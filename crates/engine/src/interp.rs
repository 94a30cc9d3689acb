//! The row interpreter: what an expression means over `Value`s.
//!
//! The engine has two evaluators. The typed kernels ([`crate::kernels`])
//! are the fast path; [`eval_row`] is the *reference* they must agree
//! with, the fallback the binder ([`crate::expr`]) runs for whatever the
//! kernels decline, INSERT's VALUES evaluator, and the evaluator of the
//! row-store [`crate::baseline`] (E1's legacy engine, E7's non-compiled
//! comparator). Every row walks the whole tree and boxes each
//! intermediate `Value` — the "overhead of execution in a
//! general-purpose set of executor functions" the paper says compilation
//! avoids — which is what makes it obviously correct, and slow.
//!
//! ## The specification
//!
//! * **(a) Typed nodes.** A node's value is NULL or has the node's
//!   static type ([`BoundExpr::ty`]). Arithmetic is computed exactly
//!   (checked `i64`, exact DECIMAL for `+ - *`, `f64` otherwise) and
//!   then coerced into the result type, range-checked: `INT + INT` past
//!   2³¹ is out of range, `DECIMAL(10,2) / 2` is a `DECIMAL(10,2)`.
//! * **(b) Guards guard.** `AND` / `OR` are Kleene and short-circuit
//!   left to right; `CASE` evaluates only the branch it takes. An error
//!   in an operand a guard excludes is never raised.
//! * **(c) `x / 0` and `x % 0` raise** in every lane, FLOAT8 included.
//! * **(d) CAST parses strings.** A VARCHAR cast to DATE, TIMESTAMP,
//!   DECIMAL or BIGINT is parsed; every other cast is
//!   [`Value::coerce_to`].

use crate::like::LikeMatcher;
use redsim_common::types::{parse_date, parse_decimal, parse_timestamp, rescale};
use redsim_common::{DataType, Result, RsError, Value};
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
        BoundExpr::Unary { op, expr } => match (op, eval_row(expr, row)?) {
            (_, Value::Null) => Value::Null,
            (UnaryOp::Not, Value::Bool(b)) => Value::Bool(!b),
            (UnaryOp::Not, other) => return Err(RsError::Execution(format!("NOT on {other:?}"))),
            (UnaryOp::Neg, v) => negate(v)?,
        },
        BoundExpr::Binary { left, op, right } => {
            let a = eval_row(left, row)?;
            if let BinaryOp::And | BinaryOp::Or = op {
                // Kleene, short-circuit: FALSE decides an AND, TRUE an OR.
                let decides = *op == BinaryOp::Or;
                if a.as_bool() == Some(decides) {
                    return Ok(a);
                }
                return Ok(match (a.as_bool(), eval_row(right, row)?.as_bool()) {
                    (_, Some(b)) if b == decides => Value::Bool(decides),
                    (Some(_), Some(_)) => Value::Bool(!decides),
                    _ => Value::Null,
                });
            }
            let b = eval_row(right, row)?;
            if a.is_null() || b.is_null() {
                Value::Null
            } else if op.is_comparison() {
                Value::Bool(cmp_holds(a.cmp_sql(&b), *op))
            } else if *op == BinaryOp::Concat {
                Value::Str(format!("{a}{b}"))
            } else {
                scalar_arith(&a, *op, &b)?.coerce_to(expr.ty())?
            }
        }
        BoundExpr::IsNull { expr, negated } => {
            Value::Bool(eval_row(expr, row)?.is_null() != *negated)
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => match eval_row(expr, row)? {
            Value::Null => Value::Null,
            v => Value::Bool(list.iter().any(|x| v.eq_sql(x)) != *negated),
        },
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => match eval_row(expr, row)?.as_str() {
            None => Value::Null,
            // A fresh matcher per row: this path is *meant* to model
            // naive interpretation (a LIKE over a column never reaches
            // it in production — the kernel takes it).
            Some(s) => Value::Bool(LikeMatcher::new(pattern).matches(s) != *negated),
        },
        BoundExpr::Cast { expr, to } => match (eval_row(expr, row)?, *to) {
            (Value::Str(s), DataType::Date) => Value::Date(parse_date(&s)?),
            (Value::Str(s), DataType::Timestamp) => Value::Timestamp(parse_timestamp(&s)?),
            (Value::Str(s), DataType::Decimal(_, scale)) => Value::Decimal {
                units: parse_decimal(&s, scale)?,
                scale,
            },
            (Value::Str(s), DataType::Int8) => Value::Int8(
                s.trim()
                    .parse()
                    .map_err(|_| RsError::Execution(format!("cannot cast {s:?} to BIGINT")))?,
            ),
            (v, to) => v.coerce_to(to)?,
        },
        BoundExpr::Case {
            branches,
            else_expr,
            ty,
        } => {
            let mut taken = else_expr.as_deref();
            for (cond, val) in branches {
                if row_passes(cond, row)? {
                    taken = Some(val);
                    break;
                }
            }
            match taken {
                Some(e) => eval_row(e, row)?.coerce_to(*ty)?,
                None => Value::Null,
            }
        }
        BoundExpr::Func { func, args } => match (func, eval_row(&args[0], row)?) {
            (_, Value::Null) => Value::Null,
            (ScalarFunc::Lower, v) => Value::Str(v.to_string().to_lowercase()),
            (ScalarFunc::Upper, v) => Value::Str(v.to_string().to_uppercase()),
            (ScalarFunc::Length, v) => Value::Int4(v.to_string().chars().count() as i32),
            (ScalarFunc::Abs, Value::Float8(f)) => Value::Float8(f.abs()),
            (ScalarFunc::Abs, Value::Decimal { units, scale }) => Value::Decimal {
                units: units.abs(),
                scale,
            },
            (ScalarFunc::Abs, v) => {
                Value::Int8(v.as_i64().unwrap_or(0).abs()).coerce_to(expr.ty())?
            }
            (part, Value::Date(days)) => date_part(*part, days),
            (part, Value::Timestamp(us)) => date_part(*part, us.div_euclid(86_400_000_000) as i32),
            (_, other) => return Err(RsError::Execution(format!("date_part on {other:?}"))),
        },
    })
}

/// Predicate semantics: only TRUE passes.
pub fn row_passes(expr: &BoundExpr, row: &[Value]) -> Result<bool> {
    Ok(matches!(eval_row(expr, row)?, Value::Bool(true)))
}

fn date_part(func: ScalarFunc, days: i32) -> Value {
    let (y, m, d) = redsim_common::types::date_from_epoch_days(days);
    Value::Int4(match func {
        ScalarFunc::DatePartYear => y,
        ScalarFunc::DatePartMonth => m as i32,
        _ => d as i32,
    })
}

fn negate(v: Value) -> Result<Value> {
    Ok(match v {
        Value::Int2(x) => Value::Int2(-x),
        Value::Int4(x) => Value::Int4(-x),
        Value::Int8(x) => Value::Int8(-x),
        Value::Float8(x) => Value::Float8(-x),
        Value::Decimal { units, scale } => Value::Decimal {
            units: -units,
            scale,
        },
        other => return Err(RsError::Execution(format!("cannot negate {other:?}"))),
    })
}

/// The comparison-operator table, shared with the kernels' typed lanes.
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
    if b == 0 && matches!(op, BinaryOp::Div | BinaryOp::Mod) {
        return Err(RsError::Execution("division by zero".into()));
    }
    match op {
        BinaryOp::Add => a.checked_add(b),
        BinaryOp::Sub => a.checked_sub(b),
        BinaryOp::Mul => a.checked_mul(b),
        BinaryOp::Div => a.checked_div(b),
        BinaryOp::Mod => a.checked_rem(b),
        _ => unreachable!(),
    }
    .ok_or_else(|| RsError::Execution("integer overflow".into()))
}

/// IEEE arithmetic, shared with the kernels' f64 lane. Callers rule out
/// a zero divisor first (rule (c)).
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

/// `a ∘ b` for `∘` in `+ - * / %` over non-NULL values, before the
/// coercion into the node's result type.
fn scalar_arith(a: &Value, op: BinaryOp, b: &Value) -> Result<Value> {
    // Decimal-exact when both are decimals and the op is +,-,*.
    if let (
        Value::Decimal {
            units: ua,
            scale: sa,
        },
        Value::Decimal {
            units: ub,
            scale: sb,
        },
    ) = (a, b)
    {
        match op {
            BinaryOp::Add | BinaryOp::Sub => {
                let s = (*sa).max(*sb);
                let x = rescale(*ua, *sa, s)?;
                let y = rescale(*ub, *sb, s)?;
                let units = if op == BinaryOp::Add { x + y } else { x - y };
                return Ok(Value::Decimal { units, scale: s });
            }
            BinaryOp::Mul => {
                // The product's natural scale is sa + sb.
                let s = (*sa + *sb).min(38);
                let units = ua
                    .checked_mul(*ub)
                    .ok_or_else(|| RsError::Execution("decimal overflow".into()))?;
                return Ok(Value::Decimal {
                    units: rescale(units, sa + sb, s)?,
                    scale: s,
                });
            }
            _ => {}
        }
    }
    // Integer-family exact.
    if let (Some(x), Some(y)) = (a.as_i64(), b.as_i64()) {
        return Ok(Value::Int8(int_arith(x, op, y)?));
    }
    // Fallback: f64.
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => {
            if matches!(op, BinaryOp::Div | BinaryOp::Mod) && y == 0.0 {
                return Err(RsError::Execution("division by zero".into()));
            }
            Ok(Value::Float8(float_arith(x, op, y)))
        }
        _ => Err(RsError::Execution(format!(
            "cannot apply {op:?} to {a:?} and {b:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(index: usize, ty: DataType) -> Box<BoundExpr> {
        Box::new(BoundExpr::Column { index, ty })
    }

    fn lit(v: Value) -> Box<BoundExpr> {
        Box::new(BoundExpr::Literal(v))
    }

    fn bin(left: Box<BoundExpr>, op: BinaryOp, right: Box<BoundExpr>) -> BoundExpr {
        BoundExpr::Binary { left, op, right }
    }

    #[test]
    fn nulls_propagate_and_like_matches() {
        let row = vec![Value::Int8(5), Value::Null, Value::Str("abc".into())];
        // 5 + NULL = NULL.
        let e = bin(
            col(0, DataType::Int8),
            BinaryOp::Add,
            col(1, DataType::Int8),
        );
        assert!(eval_row(&e, &row).unwrap().is_null());
        let e = BoundExpr::Like {
            expr: col(2, DataType::Varchar),
            pattern: "a%".into(),
            negated: false,
        };
        assert_eq!(eval_row(&e, &row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_avoids_rhs_error() {
        // FALSE AND (1/0 = 1) must not error; nor TRUE OR …; the
        // unguarded forms do.
        let div0 = bin(lit(Value::Int8(1)), BinaryOp::Div, lit(Value::Int8(0)));
        let cmp = bin(Box::new(div0), BinaryOp::Eq, lit(Value::Int8(1)));
        for (guard, op) in [(false, BinaryOp::And), (true, BinaryOp::Or)] {
            let e = bin(lit(Value::Bool(guard)), op, Box::new(cmp.clone()));
            assert_eq!(eval_row(&e, &[]).unwrap(), Value::Bool(guard));
            let e = bin(lit(Value::Bool(!guard)), op, Box::new(cmp.clone()));
            assert!(eval_row(&e, &[]).is_err());
            let e = bin(Box::new(cmp.clone()), op, lit(Value::Bool(guard)));
            assert!(eval_row(&e, &[]).is_err(), "left to right");
        }
    }

    #[test]
    fn arithmetic_and_comparison() {
        let rows = [
            [Value::Int8(1), Value::Int8(10)],
            [Value::Int8(2), Value::Int8(20)],
            [Value::Null, Value::Int8(30)],
        ];
        let sum = bin(
            col(0, DataType::Int8),
            BinaryOp::Add,
            col(1, DataType::Int8),
        );
        assert_eq!(eval_row(&sum, &rows[0]).unwrap(), Value::Int8(11));
        assert_eq!(eval_row(&sum, &rows[1]).unwrap(), Value::Int8(22));
        assert!(eval_row(&sum, &rows[2]).unwrap().is_null());
        let cmp = bin(col(0, DataType::Int8), BinaryOp::Lt, lit(Value::Int8(2)));
        let passing: Vec<bool> = rows.iter().map(|r| row_passes(&cmp, r).unwrap()).collect();
        assert_eq!(passing, [true, false, false]); // NULL → does not pass
    }

    #[test]
    fn arithmetic_results_have_the_static_type() {
        // Rule (a): INT + INT is an INT, range-checked …
        let sum = bin(
            col(0, DataType::Int4),
            BinaryOp::Add,
            col(0, DataType::Int4),
        );
        assert_eq!(eval_row(&sum, &[Value::Int4(7)]).unwrap(), Value::Int4(14));
        let err = eval_row(&sum, &[Value::Int4(2_000_000_000)]).unwrap_err();
        assert!(
            err.to_string().contains("out of range for INTEGER"),
            "{err}"
        );
        // … and DECIMAL(10,2) / 2 is a DECIMAL(10,2), not a float.
        let half = bin(
            col(0, DataType::Decimal(10, 2)),
            BinaryOp::Div,
            lit(Value::Int8(2)),
        );
        let m = Value::Decimal {
            units: 225,
            scale: 2,
        };
        assert_eq!(eval_row(&half, &[m]).unwrap().to_string(), "1.13");
    }

    #[test]
    fn ternary_logic_and_or() {
        let (t, n) = (lit(Value::Bool(true)), lit(Value::Null));
        let or = bin(n.clone(), BinaryOp::Or, t.clone());
        assert_eq!(
            eval_row(&or, &[]).unwrap(),
            Value::Bool(true),
            "NULL OR TRUE = TRUE"
        );
        let and = bin(n, BinaryOp::And, t);
        assert!(
            eval_row(&and, &[]).unwrap().is_null(),
            "NULL AND TRUE = NULL"
        );
    }

    #[test]
    fn division_by_zero_errors() {
        for (one, zero) in [
            (Value::Int8(1), Value::Int8(0)),
            (Value::Float8(1.0), Value::Float8(0.0)),
            (Value::Float8(1.0), Value::Float8(-0.0)),
            (Value::Int8(1), Value::Decimal { units: 0, scale: 2 }),
        ] {
            for op in [BinaryOp::Div, BinaryOp::Mod] {
                let e = bin(lit(one.clone()), op, lit(zero.clone()));
                let err = eval_row(&e, &[]).unwrap_err();
                assert!(err.to_string().contains("division by zero"), "{e:?}");
            }
        }
    }

    #[test]
    fn decimal_exact_arithmetic() {
        let a = Value::Decimal {
            units: 150,
            scale: 2,
        }; // 1.50
        let b = Value::Decimal {
            units: 25,
            scale: 1,
        }; // 2.5
        let sum = scalar_arith(&a, BinaryOp::Add, &b).unwrap();
        assert_eq!(sum.to_string(), "4.00");
        let prod = scalar_arith(&a, BinaryOp::Mul, &b).unwrap();
        assert_eq!(prod.to_string(), "3.750");
    }

    #[test]
    fn case_expression_eval() {
        let div = bin(lit(Value::Int8(10)), BinaryOp::Div, col(0, DataType::Int8));
        let case = BoundExpr::Case {
            branches: vec![
                (
                    bin(col(0, DataType::Int8), BinaryOp::Lt, lit(Value::Int8(0))),
                    BoundExpr::Literal(Value::Str("neg".into())),
                ),
                (
                    bin(Box::new(div), BinaryOp::Gt, lit(Value::Int8(4))),
                    BoundExpr::Literal(Value::Str("small".into())),
                ),
            ],
            else_expr: Some(lit(Value::Str("pos".into()))),
            ty: DataType::Varchar,
        };
        let at = |v: Value| eval_row(&case, &[v]);
        assert_eq!(at(Value::Int8(-5)).unwrap(), Value::Str("neg".into()));
        assert_eq!(at(Value::Int8(2)).unwrap(), Value::Str("small".into()));
        assert_eq!(at(Value::Int8(5)).unwrap(), Value::Str("pos".into()));
        // A NULL condition is not TRUE: on to the next branch, then ELSE.
        assert_eq!(at(Value::Null).unwrap(), Value::Str("pos".into()));
        // Only a branch that is reached is evaluated.
        assert!(at(Value::Int8(0)).is_err());
    }

    #[test]
    fn scalar_functions() {
        let row = [Value::Str("HeLLo".into()), Value::Int4(-7)];
        let call = |func, index, ty| BoundExpr::Func {
            func,
            args: vec![*col(index, ty)],
        };
        let lower = call(ScalarFunc::Lower, 0, DataType::Varchar);
        assert_eq!(eval_row(&lower, &row).unwrap(), Value::Str("hello".into()));
        let upper = call(ScalarFunc::Upper, 0, DataType::Varchar);
        assert_eq!(eval_row(&upper, &row).unwrap(), Value::Str("HELLO".into()));
        let len = call(ScalarFunc::Length, 0, DataType::Varchar);
        assert_eq!(eval_row(&len, &row).unwrap(), Value::Int4(5));
        // ABS keeps its argument's type (rule (a)).
        let abs = call(ScalarFunc::Abs, 1, DataType::Int4);
        assert_eq!(eval_row(&abs, &row).unwrap(), Value::Int4(7));
    }

    #[test]
    fn date_part_eval() {
        let d = redsim_common::types::epoch_days_from_date(2015, 5, 31);
        for row in [
            [Value::Date(d)],
            [Value::Timestamp(d as i64 * 86_400_000_000 + 1)],
        ] {
            for (func, want) in [
                (ScalarFunc::DatePartYear, 2015),
                (ScalarFunc::DatePartMonth, 5),
                (ScalarFunc::DatePartDay, 31),
            ] {
                let e = BoundExpr::Func {
                    func,
                    args: vec![*col(0, DataType::Date)],
                };
                assert_eq!(eval_row(&e, &row).unwrap(), Value::Int4(want));
            }
        }
    }

    #[test]
    fn in_list_and_is_null() {
        let inl = BoundExpr::InList {
            expr: col(0, DataType::Int8),
            list: vec![Value::Int8(1), Value::Int8(2)],
            negated: false,
        };
        let isn = BoundExpr::IsNull {
            expr: col(0, DataType::Int8),
            negated: false,
        };
        for (v, in_list, is_null) in [
            (Value::Int8(1), Value::Bool(true), false),
            (Value::Int8(5), Value::Bool(false), false),
            (Value::Null, Value::Null, true),
        ] {
            assert_eq!(eval_row(&inl, std::slice::from_ref(&v)).unwrap(), in_list);
            assert_eq!(eval_row(&isn, &[v]).unwrap(), Value::Bool(is_null));
        }
    }

    #[test]
    fn cast_parses_strings() {
        let cast = |s: &str, to| {
            eval_row(
                &BoundExpr::Cast {
                    expr: lit(Value::Str(s.into())),
                    to,
                },
                &[],
            )
        };
        let d = redsim_common::types::epoch_days_from_date(2015, 1, 2);
        assert_eq!(cast("2015-01-02", DataType::Date).unwrap(), Value::Date(d));
        assert_eq!(
            cast("2015-01-02 00:00:01", DataType::Timestamp).unwrap(),
            Value::Timestamp(d as i64 * 86_400_000_000 + 1_000_000)
        );
        assert_eq!(
            cast("-1.5", DataType::Decimal(10, 2)).unwrap().to_string(),
            "-1.50"
        );
        assert_eq!(cast(" 42 ", DataType::Int8).unwrap(), Value::Int8(42));
        // A malformed string is a typed error naming the value.
        for (s, to) in [
            ("2015-13-02", DataType::Date),
            ("x", DataType::Int8),
            ("1.2.3", DataType::Decimal(10, 2)),
        ] {
            let err = cast(s, to).unwrap_err();
            assert!(err.to_string().contains(s), "{err}");
        }
        // Every other cast is `coerce_to`, NULL included.
        let e = BoundExpr::Cast {
            expr: lit(Value::Int8(3)),
            to: DataType::Float8,
        };
        assert_eq!(eval_row(&e, &[]).unwrap(), Value::Float8(3.0));
        let e = BoundExpr::Cast {
            expr: lit(Value::Null),
            to: DataType::Date,
        };
        assert!(eval_row(&e, &[]).unwrap().is_null());
    }
}
