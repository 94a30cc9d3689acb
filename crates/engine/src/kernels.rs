//! Columnar kernels: predicates into selections, arithmetic into typed
//! columns.
//!
//! [`narrow`] evaluates a WHERE/filter tree directly over typed
//! `ColumnData` slices and returns the surviving rows as a
//! [`Selection`], without materializing a `Value` — or an intermediate
//! boolean column — per row. Expressions the kernels don't cover return
//! `None` and the binder ([`crate::expr`]) falls back to the interpreter
//! — [`crate::interp::eval_row`], here and below — whose rules are the
//! specification: a kernel answers exactly what the interpreter answers,
//! or declines. The `vector_*` property suite fuzzes both for identical
//! results.
//!
//! ## Dispatch rules
//!
//! An operand of a comparison, `IN` or `LIKE` leaf is a column
//! reference, a literal, or `+ - * / %` over operands ([`arith`]). Its
//! type puts it in a lane, mirroring `Value::cmp_sql`'s arms exactly:
//!
//! | lane | operand types | comparison |
//! |---|---|---|
//! | i64 | INT2/4/8, DATE, TIMESTAMP, BOOL | widened `i64`s, `cmp_sql`'s integer arm |
//! | f64 | FLOAT8 or DECIMAL on at least one side, the other numeric/bool | [`cmp_f64`] (NaN equals itself and sorts greatest) — `cmp_sql`'s mixed-numeric arm, including its deliberate use of `f64` for DECIMAL-vs-DECIMAL |
//! | str | VARCHAR on both sides | byte-wise over the `StrVec` arena, no per-row allocation |
//!
//! Arithmetic has two lanes of its own, chosen by the expression's
//! static result type, the type the interpreter coerces into:
//!
//! | result | operands | kernel |
//! |---|---|---|
//! | INT8 / INT4 / INT2 | both in the i64 lane | checked `i64` arithmetic, range-checked into the result width |
//! | FLOAT8 | both numeric | IEEE `f64` arithmetic; declines on a zero divisor (the interpreter raises) |
//! | DECIMAL | — | declined: the interpreter's exact decimal path |
//!
//! An arithmetic operand is computed **densely, over every row of the
//! batch**, whatever the candidate set: on overflow, division by zero
//! or a result outside the result width on any non-NULL row the kernel
//! declines the whole predicate and the interpreter answers it: it
//! raises its own error if a row it evaluates fails, and answers if a
//! guard (`a <> 0 AND 10 / a > 1`) keeps it off the failing rows.
//!
//! Everything else (CASE, casts, functions, unary minus, mixed
//! string/number comparisons) is declined.
//!
//! ## Narrowing
//!
//! `AND` narrows the candidate selection conjunct by conjunct: the
//! chain is flattened, conjuncts over the int/float lanes run before
//! the ones that touch strings, and each runs only over the survivors
//! of those before it. `OR` is the dual: each disjunct sees only the
//! candidates no earlier disjunct accepted, and the accepted sets are
//! merged. A selection is a set of row ids, so evaluation order cannot
//! change the result.
//!
//! ## NULL handling: the negation flag
//!
//! SQL WHERE keeps a row iff the predicate's *ternary* value is TRUE.
//! Kernels never build the ternary column; instead every node is
//! evaluated against a target via a negation flag:
//! `K(e, neg) = (ternary(e) == if neg { FALSE } else { TRUE })`.
//! `NOT e` recurses with the flag flipped; under Kleene logic
//! `AND` is FALSE iff either side is FALSE, so
//! `K(a AND b, true) = K(a, true) OR K(b, true)` (and dually for OR) —
//! plain set combination stays exact. At a comparison leaf a flipped
//! flag inverts the operator (`<` ↔ `>=` …), because a non-NULL
//! comparison is FALSE exactly when the inverse operator holds, and a
//! NULL comparison matches neither target.

use crate::interp::{cmp_holds, float_arith};
use crate::like::LikeMatcher;
use crate::selection::Selection;
use redsim_common::types::cmp_f64;
use redsim_common::{Bitmap, ColumnData, DataType, Value};
use redsim_sql::ast::{BinaryOp, UnaryOp};
use redsim_sql::plan::BoundExpr;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Run `$body` with `$d` bound to the payload slice of an
/// integer-family column (every element widens with `as i64`), `$else`
/// for the other variants.
macro_rules! with_ints {
    ($col:expr, $d:ident => $body:expr, _ => $else:expr) => {
        match $col {
            ColumnData::Bool { data: $d, .. } => $body,
            ColumnData::Int2 { data: $d, .. } => $body,
            ColumnData::Int4 { data: $d, .. } | ColumnData::Date { data: $d, .. } => $body,
            // The shared body's `as i64` is a no-op in this arm only.
            #[allow(clippy::unnecessary_cast)]
            ColumnData::Int8 { data: $d, .. } | ColumnData::Timestamp { data: $d, .. } => $body,
            _ => $else,
        }
    };
}
pub(crate) use with_ints;

/// Run `$body` with `$holds` bound to `$op`'s test of an `Ordering`,
/// chosen outside the row loop so the hot col-vs-constant loops compile
/// to one comparison per row instead of a `match` on the operator.
macro_rules! with_op {
    ($op:expr, $holds:ident => $body:expr) => {
        match $op {
            BinaryOp::Eq => {
                let $holds = |o: Ordering| o == Ordering::Equal;
                $body
            }
            BinaryOp::NotEq => {
                let $holds = |o: Ordering| o != Ordering::Equal;
                $body
            }
            BinaryOp::Lt => {
                let $holds = |o: Ordering| o == Ordering::Less;
                $body
            }
            BinaryOp::LtEq => {
                let $holds = |o: Ordering| o != Ordering::Greater;
                $body
            }
            BinaryOp::Gt => {
                let $holds = |o: Ordering| o == Ordering::Greater;
                $body
            }
            BinaryOp::GtEq => {
                let $holds = |o: Ordering| o != Ordering::Less;
                $body
            }
            _ => unreachable!("comparison operator"),
        }
    };
}

/// `cmp_f64(a, b) == Less`: IEEE `<`, plus a non-NaN `a` below a NaN `b`.
#[inline]
fn f64_lt(a: f64, b: f64) -> bool {
    (a < b) | (!a.is_nan() & b.is_nan())
}

/// `cmp_f64(a, b) != Greater`: IEEE `<=`, plus anything below a NaN `b`.
#[inline]
fn f64_le(a: f64, b: f64) -> bool {
    (a <= b) | b.is_nan()
}

/// `cmp_f64(a, b) == Equal`: IEEE `==`, plus two NaNs.
#[inline]
fn f64_eq(a: f64, b: f64) -> bool {
    (a == b) | (a.is_nan() & b.is_nan())
}

/// Run `$body` with `$holds: Fn(f64, f64) -> bool` bound to
/// `cmp_holds(cmp_f64(a, b), $op)`, written as one boolean over IEEE
/// compares and NaN flags: the float lane's loops carry no branch on the
/// data, and a NaN operand takes the same loop as any other.
macro_rules! with_f64_op {
    ($op:expr, $holds:ident => $body:expr) => {
        match $op {
            BinaryOp::Lt => {
                let $holds = f64_lt;
                $body
            }
            BinaryOp::GtEq => {
                let $holds = |a, b| !f64_lt(a, b);
                $body
            }
            BinaryOp::LtEq => {
                let $holds = f64_le;
                $body
            }
            BinaryOp::Gt => {
                let $holds = |a, b| !f64_le(a, b);
                $body
            }
            BinaryOp::Eq => {
                let $holds = f64_eq;
                $body
            }
            BinaryOp::NotEq => {
                let $holds = |a, b| !f64_eq(a, b);
                $body
            }
            _ => unreachable!("comparison operator"),
        }
    };
}

/// Evaluate a predicate over every row, or `None` when the expression
/// (or its operand types) isn't covered by a kernel.
pub fn try_eval_predicate(
    expr: &BoundExpr,
    batch: &[ColumnData],
    rows: usize,
) -> Option<Selection> {
    narrow(expr, batch, &Selection::all(rows))
}

/// The rows of `cand` on which `expr` is TRUE, or `None` when a kernel
/// doesn't cover it.
pub fn narrow(expr: &BoundExpr, batch: &[ColumnData], cand: &Selection) -> Option<Selection> {
    eval_pred(expr, batch, cand, false)
}

fn eval_pred(
    expr: &BoundExpr,
    batch: &[ColumnData],
    cand: &Selection,
    neg: bool,
) -> Option<Selection> {
    let rows = cand.rows();
    match expr {
        // A bare boolean column used as a predicate (`WHERE active`).
        BoundExpr::Column { .. } => {
            let Operand::Col(c) = operand(expr, batch, rows)? else {
                return None;
            };
            let ColumnData::Bool { data, nulls } = &*c else {
                return None;
            };
            Some(cand.select_valid(Some(nulls), None, |i| data[i] != neg))
        }
        BoundExpr::Literal(v) => match v {
            // ternary(b) == target ⇔ b != neg; NULL matches no target.
            Value::Bool(b) if *b != neg => Some(cand.clone()),
            Value::Bool(_) | Value::Null => Some(Selection::none(rows)),
            _ => None,
        },
        BoundExpr::Unary {
            op: UnaryOp::Not,
            expr,
        } => eval_pred(expr, batch, cand, !neg),
        BoundExpr::Binary {
            op: op @ (BinaryOp::And | BinaryOp::Or),
            ..
        } => {
            let mut parts = Vec::new();
            flatten(expr, *op, &mut parts);
            // Stable: conjuncts of one kind keep their source order.
            parts.sort_by_key(|p| touches_strings(p));
            // Every part is evaluated even once nothing is left to
            // decide, so what the kernels decline does not depend on
            // the data.
            if (*op == BinaryOp::Or) != neg {
                let mut accepted = Selection::none(rows);
                let mut open: Option<Selection> = None;
                for p in parts {
                    let open_now = open.as_ref().unwrap_or(cand);
                    let hit = eval_pred(p, batch, open_now, neg)?;
                    open = Some(open_now.difference(&hit));
                    accepted = accepted.union(&hit);
                }
                Some(accepted)
            } else {
                let mut alive: Option<Selection> = None;
                for p in parts {
                    alive = Some(eval_pred(p, batch, alive.as_ref().unwrap_or(cand), neg)?);
                }
                alive
            }
        }
        BoundExpr::Binary { left, op, right } if op.is_comparison() => {
            cmp_kernel(left, *op, right, batch, cand, neg)
        }
        BoundExpr::IsNull { expr, negated } => Some(match operand(expr, batch, rows)? {
            Operand::Col(c) => {
                let nulls = c.nulls();
                if nulls.all_set() {
                    // No NULLs: IS NULL is FALSE everywhere.
                    if *negated != neg {
                        cand.clone()
                    } else {
                        Selection::none(rows)
                    }
                } else {
                    cand.select(|i| (nulls.get(i) == *negated) != neg)
                }
            }
            Operand::Lit(v) if (v.is_null() != *negated) != neg => cand.clone(),
            Operand::Lit(_) => Selection::none(rows),
        }),
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => in_list_kernel(expr, list, *negated, batch, cand, neg),
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let Operand::Col(c) = operand(expr, batch, rows)? else {
                return None;
            };
            let ColumnData::Str { data, nulls } = &*c else {
                return None;
            };
            // The row must match (want) or must not: NOT LIKE and the
            // negation flag each flip it once.
            Some(LikeMatcher::new(pattern).select(data, nulls, cand, *negated == neg))
        }
        _ => None,
    }
}

/// Collect the operands of a chain of `op` (`a AND (b AND c)` → a, b, c).
fn flatten<'a>(e: &'a BoundExpr, op: BinaryOp, out: &mut Vec<&'a BoundExpr>) {
    match e {
        BoundExpr::Binary { left, op: o, right } if *o == op => {
            flatten(left, op, out);
            flatten(right, op, out);
        }
        other => out.push(other),
    }
}

/// Ordering key for conjuncts: does evaluating `e` read string payload?
/// (`IS NULL` on a VARCHAR only reads the validity bitmap.)
fn touches_strings(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Like { .. } => true,
        BoundExpr::InList { expr, .. } => expr.ty() == DataType::Varchar,
        BoundExpr::Unary { expr, .. } => touches_strings(expr),
        BoundExpr::Binary {
            left,
            op: BinaryOp::And | BinaryOp::Or,
            right,
        } => touches_strings(left) || touches_strings(right),
        BoundExpr::Binary { left, right, .. } => {
            left.ty() == DataType::Varchar || right.ty() == DataType::Varchar
        }
        _ => false,
    }
}

/// `!cmp_holds(ord, op) == cmp_holds(ord, invert(op))` for non-NULL
/// comparisons, so a negated leaf just runs the inverse operator.
fn invert(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Eq => BinaryOp::NotEq,
        BinaryOp::NotEq => BinaryOp::Eq,
        BinaryOp::Lt => BinaryOp::GtEq,
        BinaryOp::GtEq => BinaryOp::Lt,
        BinaryOp::Gt => BinaryOp::LtEq,
        BinaryOp::LtEq => BinaryOp::Gt,
        other => other,
    }
}

/// `a op b == b mirror(op) a`: lets `lit op col` run as `col op' lit`.
fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// A leaf operand: a column of the batch (borrowed), the dense result
/// of an arithmetic kernel (owned), or a literal.
enum Operand<'a> {
    Col(Cow<'a, ColumnData>),
    Lit(&'a Value),
}

fn operand<'a>(e: &'a BoundExpr, batch: &'a [ColumnData], rows: usize) -> Option<Operand<'a>> {
    match e {
        BoundExpr::Column { index, .. } => {
            let c = batch.get(*index)?;
            // A ragged batch means something upstream is wrong; let the
            // interpreter produce its error instead of miscomputing.
            (c.len() == rows).then_some(Operand::Col(Cow::Borrowed(c)))
        }
        BoundExpr::Literal(v) => Some(Operand::Lit(v)),
        BoundExpr::Binary { .. } => arith(e, batch, rows).map(|c| Operand::Col(Cow::Owned(c))),
        _ => None,
    }
}

/// Type lane of an operand, `None` when it has no kernel lane.
#[derive(Clone, Copy, PartialEq)]
enum Lane {
    Int,
    Float,
    Dec,
    Str,
}

fn lane(o: &Operand) -> Option<Lane> {
    let ty = match o {
        Operand::Col(c) => c.data_type(),
        Operand::Lit(v) => v.data_type()?,
    };
    Some(match ty {
        DataType::Bool
        | DataType::Int2
        | DataType::Int4
        | DataType::Int8
        | DataType::Date
        | DataType::Timestamp => Lane::Int,
        DataType::Float8 => Lane::Float,
        DataType::Decimal(_, _) => Lane::Dec,
        DataType::Varchar => Lane::Str,
    })
}

fn cmp_kernel(
    l: &BoundExpr,
    op: BinaryOp,
    r: &BoundExpr,
    batch: &[ColumnData],
    cand: &Selection,
    neg: bool,
) -> Option<Selection> {
    let rows = cand.rows();
    let lo = operand(l, batch, rows)?;
    let ro = operand(r, batch, rows)?;
    // A NULL literal on either side makes every row's comparison NULL,
    // which matches neither the TRUE nor the FALSE target.
    if matches!(lo, Operand::Lit(Value::Null)) || matches!(ro, Operand::Lit(Value::Null)) {
        return Some(Selection::none(rows));
    }
    let op = if neg { invert(op) } else { op };
    // Literal on the left: mirror, so the loops below only know
    // `col op lit`, `col op col` and the constant case.
    let (lo, ro, op) = match (lo, ro) {
        (l @ Operand::Lit(_), r @ Operand::Col(_)) => (r, l, mirror(op)),
        (l, r) => (l, r, op),
    };
    match (lane(&lo)?, lane(&ro)?) {
        (Lane::Int, Lane::Int) => Some(cmp_i64(&lo, &ro, op, cand)),
        (Lane::Str, Lane::Str) => cmp_str(&lo, &ro, op, cand),
        // Any float/decimal side drags the comparison onto cmp_sql's
        // mixed-numeric f64 arm (decimal-vs-decimal included).
        (a, b) if a != Lane::Str && b != Lane::Str => Some(cmp_f64_lane(&lo, &ro, op, cand)),
        _ => None,
    }
}

/// `cand` or nothing: a comparison whose outcome no row can change.
fn constant(cand: &Selection, holds: bool) -> Selection {
    if holds {
        cand.clone()
    } else {
        Selection::none(cand.rows())
    }
}

/// An integer-family column widened to `i64`s (NULL slots hold 0).
fn ints(c: &ColumnData) -> Cow<'_, [i64]> {
    match c {
        ColumnData::Int8 { data, .. } | ColumnData::Timestamp { data, .. } => Cow::Borrowed(data),
        other => with_ints!(other,
            d => Cow::Owned(d.iter().map(|&x| x as i64).collect()),
            _ => unreachable!("i64 lane holds integer-family columns")),
    }
}

/// A numeric column as `f64`s, exactly `ColumnData::get_f64` per slot.
fn floats(c: &ColumnData) -> Cow<'_, [f64]> {
    match c {
        ColumnData::Float8 { data, .. } => Cow::Borrowed(data),
        ColumnData::Decimal { data, scale, .. } => {
            let unit = 10f64.powi(*scale as i32);
            Cow::Owned(data.iter().map(|&u| u as f64 / unit).collect())
        }
        other => with_ints!(other,
            d => Cow::Owned(d.iter().map(|&x| x as i64 as f64).collect()),
            _ => unreachable!("f64 lane holds numeric columns")),
    }
}

fn cmp_i64(lo: &Operand, ro: &Operand, op: BinaryOp, cand: &Selection) -> Selection {
    match (lo, ro) {
        (Operand::Col(lc), Operand::Lit(v)) => {
            let b = v.as_i64().expect("i64 lane literal");
            // The hottest shape (col ⋈ constant) reads the payload in
            // its stored width and touches only the candidates.
            with_ints!(&**lc,
                d => with_op!(op, holds => {
                    cand.select_valid(Some(lc.nulls()), None, |i| holds((d[i] as i64).cmp(&b)))
                }),
                _ => unreachable!("i64 lane holds integer-family columns"))
        }
        (Operand::Col(lc), Operand::Col(rc)) => {
            let (a, b) = (ints(lc), ints(rc));
            cand.select_valid(Some(lc.nulls()), Some(rc.nulls()), |i| {
                cmp_holds(a[i].cmp(&b[i]), op)
            })
        }
        (Operand::Lit(a), Operand::Lit(b)) => {
            let (a, b) = (
                a.as_i64().expect("i64 lane literal"),
                b.as_i64().expect("i64 lane literal"),
            );
            constant(cand, cmp_holds(a.cmp(&b), op))
        }
        (Operand::Lit(_), Operand::Col(_)) => unreachable!("mirrored by cmp_kernel"),
    }
}

fn cmp_f64_lane(lo: &Operand, ro: &Operand, op: BinaryOp, cand: &Selection) -> Selection {
    match (lo, ro) {
        (Operand::Col(lc), Operand::Lit(v)) => {
            let b = v.as_f64().expect("f64 lane literal");
            let nulls = Some(lc.nulls());
            with_f64_op!(op, holds => match &**lc {
                ColumnData::Float8 { data, .. } => {
                    cand.select_valid(nulls, None, |i| holds(data[i], b))
                }
                ColumnData::Decimal { data, scale, .. } => {
                    let unit = 10f64.powi(*scale as i32);
                    cand.select_valid(nulls, None, |i| holds(data[i] as f64 / unit, b))
                }
                other => with_ints!(other,
                    d => cand.select_valid(nulls, None, |i| holds(d[i] as i64 as f64, b)),
                    _ => unreachable!("f64 lane holds numeric columns")),
            })
        }
        (Operand::Col(lc), Operand::Col(rc)) => {
            let (a, b) = (floats(lc), floats(rc));
            with_f64_op!(op, holds => {
                cand.select_valid(Some(lc.nulls()), Some(rc.nulls()), |i| holds(a[i], b[i]))
            })
        }
        (Operand::Lit(a), Operand::Lit(b)) => {
            let (a, b) = (
                a.as_f64().expect("f64 lane literal"),
                b.as_f64().expect("f64 lane literal"),
            );
            constant(cand, cmp_holds(cmp_f64(a, b), op))
        }
        (Operand::Lit(_), Operand::Col(_)) => unreachable!("mirrored by cmp_kernel"),
    }
}

fn cmp_str(lo: &Operand, ro: &Operand, op: BinaryOp, cand: &Selection) -> Option<Selection> {
    // `str` orders byte-wise, so the arena bytes compare directly.
    Some(match (lo, ro) {
        (Operand::Col(lc), Operand::Lit(Value::Str(s))) => {
            let ColumnData::Str { data, nulls } = &**lc else {
                return None;
            };
            let s = s.as_bytes();
            cand.select_valid(Some(nulls), None, |i| {
                cmp_holds(data.bytes_at(i).cmp(s), op)
            })
        }
        (Operand::Col(lc), Operand::Col(rc)) => {
            let ColumnData::Str {
                data: ld,
                nulls: ln,
            } = &**lc
            else {
                return None;
            };
            let ColumnData::Str {
                data: rd,
                nulls: rn,
            } = &**rc
            else {
                return None;
            };
            cand.select_valid(Some(ln), Some(rn), |i| {
                cmp_holds(ld.bytes_at(i).cmp(rd.bytes_at(i)), op)
            })
        }
        (Operand::Lit(Value::Str(a)), Operand::Lit(Value::Str(b))) => {
            constant(cand, cmp_holds(a.cmp(b), op))
        }
        _ => return None,
    })
}

fn in_list_kernel(
    expr: &BoundExpr,
    list: &[Value],
    negated: bool,
    batch: &[ColumnData],
    cand: &Selection,
    neg: bool,
) -> Option<Selection> {
    let Operand::Col(c) = operand(expr, batch, cand.rows())? else {
        return None;
    };
    let nulls = Some(c.nulls());
    // Non-NULL rows always produce a definite bool; found != negated,
    // then compared against the negation target.
    let keep = |found: bool| (found != negated) != neg;
    match lane(&Operand::Col(Cow::Borrowed(&*c)))? {
        Lane::Int => {
            // eq_sql(int, int) is i64 equality; any non-integer item
            // (float/decimal/str) drops to cmp_sql's mixed arms, so bail.
            let mut items: Vec<i64> = Vec::with_capacity(list.len());
            for v in list {
                if v.is_null() {
                    continue; // NULL items never equal anything
                }
                if matches!(v, Value::Float8(_) | Value::Decimal { .. } | Value::Str(_)) {
                    return None;
                }
                items.push(v.as_i64().expect("integer family"));
            }
            Some(with_ints!(&*c,
                d => cand.select_valid(nulls, None, |i| keep(items.contains(&(d[i] as i64)))),
                _ => unreachable!("i64 lane holds integer-family columns")))
        }
        Lane::Float | Lane::Dec => {
            // eq_sql drops to the mixed-numeric arm: cmp_f64 equality
            // (NaN IN (NaN) is true, matching HKey::Float semantics).
            let mut items: Vec<f64> = Vec::with_capacity(list.len());
            for v in list {
                if v.is_null() {
                    continue;
                }
                items.push(v.as_f64()?); // non-numeric item: bail
            }
            let vals = floats(&c);
            Some(cand.select_valid(nulls, None, |i| {
                keep(
                    items
                        .iter()
                        .any(|&b| cmp_f64(vals[i], b) == Ordering::Equal),
                )
            }))
        }
        Lane::Str => {
            let ColumnData::Str { data, .. } = &*c else {
                return None;
            };
            let mut items: Vec<&[u8]> = Vec::with_capacity(list.len());
            for v in list {
                if v.is_null() {
                    continue;
                }
                let Value::Str(s) = v else { return None };
                items.push(s.as_bytes());
            }
            Some(cand.select_valid(nulls, None, |i| keep(items.contains(&data.bytes_at(i)))))
        }
    }
}

/// One side of an arithmetic kernel: a widened payload or a constant.
enum Nums<'a, T: Copy> {
    Slice(Cow<'a, [T]>),
    Const(T),
}

impl<T: Copy> Nums<'_, T> {
    #[inline]
    fn at(&self, i: usize) -> T {
        match self {
            Nums::Slice(s) => s[i],
            Nums::Const(k) => *k,
        }
    }
}

fn int_side<'a>(o: &'a Operand) -> Nums<'a, i64> {
    match o {
        Operand::Col(c) => Nums::Slice(ints(c)),
        Operand::Lit(v) => Nums::Const(v.as_i64().expect("i64 lane literal")),
    }
}

fn float_side<'a>(o: &'a Operand) -> Nums<'a, f64> {
    match o {
        Operand::Col(c) => Nums::Slice(floats(c)),
        Operand::Lit(v) => Nums::Const(v.as_f64().expect("f64 lane literal")),
    }
}

/// `left ∘ right` for `∘` in `+ - * / %`, computed over every row of
/// the batch into a typed column (NULL where either side is), or `None`
/// when the shape has no lane **or any non-NULL row fails** (integer
/// overflow, division by zero in either lane, result outside the result
/// width): the interpreter then runs over the rows that matter.
pub(crate) fn arith(e: &BoundExpr, batch: &[ColumnData], rows: usize) -> Option<ColumnData> {
    use BinaryOp::*;
    let BoundExpr::Binary { left, op, right } = e else {
        return None;
    };
    if !matches!(op, Add | Sub | Mul | Div | Mod) {
        return None;
    }
    let lo = operand(left, batch, rows)?;
    let ro = operand(right, batch, rows)?;
    let (ll, rl) = (lane(&lo)?, lane(&ro)?);
    let nulls = match (&lo, &ro) {
        (Operand::Col(a), Operand::Col(b)) => a.nulls().and(b.nulls()),
        (Operand::Col(c), Operand::Lit(_)) | (Operand::Lit(_), Operand::Col(c)) => {
            c.nulls().clone()
        }
        (Operand::Lit(_), Operand::Lit(_)) => Bitmap::all_valid(rows),
    };
    match e.ty() {
        ty @ (DataType::Int8 | DataType::Int4 | DataType::Int2)
            if ll == Lane::Int && rl == Lane::Int =>
        {
            let (a, b) = (int_side(&lo), int_side(&ro));
            let data = match op {
                Add => int_lane(i64::checked_add, &a, &b, &nulls)?,
                Sub => int_lane(i64::checked_sub, &a, &b, &nulls)?,
                Mul => int_lane(i64::checked_mul, &a, &b, &nulls)?,
                Div => int_lane(i64::checked_div, &a, &b, &nulls)?,
                _ => int_lane(i64::checked_rem, &a, &b, &nulls)?,
            };
            // The interpreter coerces an INT4/INT2 result back into its
            // width and errors when it does not fit.
            Some(match ty {
                DataType::Int8 => ColumnData::Int8 { data, nulls },
                DataType::Int4 => ColumnData::Int4 {
                    data: data
                        .iter()
                        .map(|&v| i32::try_from(v).ok())
                        .collect::<Option<_>>()?,
                    nulls,
                },
                _ => ColumnData::Int2 {
                    data: data
                        .iter()
                        .map(|&v| i16::try_from(v).ok())
                        .collect::<Option<_>>()?,
                    nulls,
                },
            })
        }
        DataType::Float8 if ll != Lane::Str && rl != Lane::Str => {
            let (a, b) = (float_side(&lo), float_side(&ro));
            let op = *op;
            if matches!(op, Div | Mod) && (0..rows).any(|i| nulls.get(i) && b.at(i) == 0.0) {
                return None;
            }
            let mut data = vec![0f64; rows];
            if nulls.all_set() {
                for (i, out) in data.iter_mut().enumerate() {
                    *out = float_arith(a.at(i), op, b.at(i));
                }
            } else {
                for (i, out) in data.iter_mut().enumerate() {
                    if nulls.get(i) {
                        *out = float_arith(a.at(i), op, b.at(i));
                    }
                }
            }
            Some(ColumnData::Float8 { data, nulls })
        }
        // DECIMAL results keep the interpreter's exact path.
        _ => None,
    }
}

/// Checked integer arithmetic over the rows valid in `nulls`; `None`
/// as soon as one of them fails.
#[inline]
fn int_lane(
    f: impl Fn(i64, i64) -> Option<i64>,
    a: &Nums<i64>,
    b: &Nums<i64>,
    nulls: &Bitmap,
) -> Option<Vec<i64>> {
    let mut data = vec![0i64; nulls.len()];
    if nulls.all_set() {
        for (i, out) in data.iter_mut().enumerate() {
            *out = f(a.at(i), b.at(i))?;
        }
    } else {
        for (i, out) in data.iter_mut().enumerate() {
            if nulls.get(i) {
                *out = f(a.at(i), b.at(i))?;
            }
        }
    }
    Some(data)
}

/// Compare column slot `i` (non-NULL) against a non-NULL scalar with
/// `cmp_sql` semantics, without materializing the slot as a `Value`.
/// Used by the boxed MIN/MAX path: the slot is only boxed when it
/// actually improves the running best.
pub(crate) fn cmp_slot_value(c: &ColumnData, i: usize, v: &Value) -> Ordering {
    debug_assert!(!c.is_null(i) && !v.is_null());
    match (c, v) {
        (ColumnData::Str { data, .. }, Value::Str(s)) => data.get(i).cmp(s),
        (ColumnData::Float8 { data, .. }, Value::Float8(b)) => cmp_f64(data[i], *b),
        _ => {
            // Integer-family fast path when both sides widen to i64 and
            // neither is float/decimal (cmp_sql's final arm).
            let col_int = c.get_i64(i);
            let val_int = v.as_i64();
            let col_is_num = matches!(c, ColumnData::Float8 { .. } | ColumnData::Decimal { .. });
            let val_is_num = matches!(v, Value::Float8(_) | Value::Decimal { .. });
            match (col_int, val_int) {
                (Some(a), Some(b)) if !col_is_num && !val_is_num => a.cmp(&b),
                _ => c.get(i).cmp_sql(v),
            }
        }
    }
}

/// `c.get(a).cmp_sql(&c.get(b))` without boxing either slot: NULLs
/// last, floats by [`cmp_f64`], DECIMAL through `f64` like `cmp_sql`.
pub(crate) fn cmp_slots(c: &ColumnData, a: usize, b: usize) -> Ordering {
    match (c.is_null(a), c.is_null(b)) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Greater,
        (false, true) => return Ordering::Less,
        (false, false) => {}
    }
    match c {
        ColumnData::Str { data, .. } => data.bytes_at(a).cmp(data.bytes_at(b)),
        ColumnData::Float8 { data, .. } => cmp_f64(data[a], data[b]),
        ColumnData::Decimal { data, scale, .. } => {
            let unit = 10f64.powi(*scale as i32);
            cmp_f64(data[a] as f64 / unit, data[b] as f64 / unit)
        }
        other => with_ints!(other,
            d => d[a].cmp(&d[b]),
            _ => unreachable!("every other variant is matched above")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::eval_predicate_interp;

    fn int8(vals: &[Option<i64>]) -> ColumnData {
        let mut c = ColumnData::new(DataType::Int8);
        for v in vals {
            match v {
                Some(x) => c.push_value(&Value::Int8(*x)).unwrap(),
                None => c.push_null(),
            }
        }
        c
    }

    fn f64col(vals: &[Option<f64>]) -> ColumnData {
        let mut c = ColumnData::new(DataType::Float8);
        for v in vals {
            match v {
                Some(x) => c.push_value(&Value::Float8(*x)).unwrap(),
                None => c.push_null(),
            }
        }
        c
    }

    fn strcol(vals: &[Option<&str>]) -> ColumnData {
        let mut c = ColumnData::new(DataType::Varchar);
        for v in vals {
            match v {
                Some(s) => c.push_value(&Value::Str(s.to_string())).unwrap(),
                None => c.push_null(),
            }
        }
        c
    }

    fn col(i: usize, ty: DataType) -> Box<BoundExpr> {
        Box::new(BoundExpr::Column { index: i, ty })
    }

    fn lit(v: Value) -> Box<BoundExpr> {
        Box::new(BoundExpr::Literal(v))
    }

    fn bin(l: Box<BoundExpr>, op: BinaryOp, r: Box<BoundExpr>) -> BoundExpr {
        BoundExpr::Binary {
            left: l,
            op,
            right: r,
        }
    }

    /// Kernel and interpreter agree; returns the selected row ids.
    fn agree(expr: &BoundExpr, batch: &[ColumnData], rows: usize) -> Vec<usize> {
        let kernel = try_eval_predicate(expr, batch, rows).expect("kernel covers");
        let interp = eval_predicate_interp(expr, batch, rows).expect("interp evals");
        assert_eq!(kernel, interp, "kernel vs interpreter mismatch: {expr:?}");
        kernel.iter().collect()
    }

    #[test]
    fn int_compare_with_nulls() {
        let batch = vec![int8(&[Some(1), Some(5), None, Some(-3)])];
        let e = bin(col(0, DataType::Int8), BinaryOp::Lt, lit(Value::Int8(2)));
        assert_eq!(agree(&e, &batch, 4), vec![0, 3]);
        // Literal on the left mirrors the operator.
        let e = bin(lit(Value::Int8(2)), BinaryOp::Lt, col(0, DataType::Int8));
        assert_eq!(agree(&e, &batch, 4), vec![1]);
        let e = BoundExpr::Unary {
            op: UnaryOp::Not,
            expr: col(0, DataType::Int8),
        };
        // NOT over a non-bool is an interpreter error, kernel must bail too.
        assert!(try_eval_predicate(&e, &batch, 4).is_none());
    }

    #[test]
    fn not_flips_without_resurrecting_nulls() {
        let batch = vec![int8(&[Some(1), Some(5), None])];
        let cmp = bin(col(0, DataType::Int8), BinaryOp::Lt, lit(Value::Int8(3)));
        let e = BoundExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(cmp),
        };
        // NOT(NULL < 3) is NULL → excluded, same as the positive form.
        assert_eq!(agree(&e, &batch, 3), vec![1]);
    }

    #[test]
    fn and_or_de_morgan_under_not() {
        let batch = vec![int8(&[Some(1), Some(5), None, Some(9)])];
        let a = bin(col(0, DataType::Int8), BinaryOp::Gt, lit(Value::Int8(2)));
        let b = bin(col(0, DataType::Int8), BinaryOp::Lt, lit(Value::Int8(7)));
        let and = bin(Box::new(a.clone()), BinaryOp::And, Box::new(b.clone()));
        let or = bin(Box::new(a), BinaryOp::Or, Box::new(b));
        for e in [and, or] {
            agree(&e, &batch, 4);
            agree(
                &BoundExpr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(e),
                },
                &batch,
                4,
            );
        }
    }

    #[test]
    fn narrowing_equals_evaluating_every_conjunct_over_all_rows() {
        let batch = vec![
            int8(&[Some(1), Some(5), None, Some(9), Some(4), Some(6)]),
            strcol(&[
                Some("ab"),
                Some("b"),
                Some("ab"),
                None,
                Some("abc"),
                Some("xab"),
            ]),
        ];
        let parts = [
            BoundExpr::Like {
                expr: col(1, DataType::Varchar),
                pattern: "ab%".into(),
                negated: false,
            },
            bin(col(0, DataType::Int8), BinaryOp::Gt, lit(Value::Int8(2))),
            bin(col(0, DataType::Int8), BinaryOp::Lt, lit(Value::Int8(9))),
        ];
        let all = Selection::all(6);
        let each: Vec<Selection> = parts
            .iter()
            .map(|p| narrow(p, &batch, &all).unwrap())
            .collect();
        let want: Vec<usize> = (0..6)
            .filter(|i| each.iter().all(|s| s.iter().any(|j| j == *i)))
            .collect();
        let chain = bin(
            Box::new(parts[0].clone()),
            BinaryOp::And,
            Box::new(bin(
                Box::new(parts[1].clone()),
                BinaryOp::And,
                Box::new(parts[2].clone()),
            )),
        );
        assert_eq!(agree(&chain, &batch, 6), want);
        assert_eq!(want, vec![4]);
        // Narrowing from a partial candidate set stays inside it.
        let cand = Selection::from_ids(6, vec![0, 1, 5]);
        assert!(narrow(&chain, &batch, &cand).unwrap().is_empty());
    }

    #[test]
    fn float_nan_compares_like_interpreter() {
        let batch = vec![f64col(&[Some(1.5), Some(f64::NAN), None, Some(-0.0)])];
        for op in [BinaryOp::Eq, BinaryOp::Lt, BinaryOp::GtEq, BinaryOp::NotEq] {
            for rhs in [f64::NAN, 0.0] {
                agree(
                    &bin(col(0, DataType::Float8), op, lit(Value::Float8(rhs))),
                    &batch,
                    4,
                );
                agree(
                    &bin(lit(Value::Float8(rhs)), op, col(0, DataType::Float8)),
                    &batch,
                    4,
                );
            }
        }
    }

    #[test]
    fn str_compare_and_like() {
        let batch = vec![strcol(&[Some("apple"), Some("pear"), None, Some("")])];
        let e = bin(
            col(0, DataType::Varchar),
            BinaryOp::GtEq,
            lit(Value::Str("b".into())),
        );
        assert_eq!(agree(&e, &batch, 4), vec![1]);
        for negated in [false, true] {
            let e = BoundExpr::Like {
                expr: col(0, DataType::Varchar),
                pattern: "%p%".into(),
                negated,
            };
            agree(&e, &batch, 4);
            agree(
                &BoundExpr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(e),
                },
                &batch,
                4,
            );
        }
    }

    #[test]
    fn in_list_lanes() {
        let ints = vec![int8(&[Some(1), Some(5), None])];
        let e = BoundExpr::InList {
            expr: col(0, DataType::Int8),
            list: vec![Value::Int8(1), Value::Null, Value::Int8(9)],
            negated: false,
        };
        assert_eq!(agree(&e, &ints, 3), vec![0]);
        let e = BoundExpr::InList {
            expr: col(0, DataType::Int8),
            list: vec![Value::Int8(1)],
            negated: true,
        };
        assert_eq!(agree(&e, &ints, 3), vec![1]);
        let strs = vec![strcol(&[Some("eu"), Some("ap"), None])];
        let e = BoundExpr::InList {
            expr: col(0, DataType::Varchar),
            list: vec![Value::Str("eu".into()), Value::Str("us".into())],
            negated: false,
        };
        assert_eq!(agree(&e, &strs, 3), vec![0]);
        // Mixed-type list bails to the interpreter.
        let e = BoundExpr::InList {
            expr: col(0, DataType::Int8),
            list: vec![Value::Str("1".into())],
            negated: false,
        };
        assert!(try_eval_predicate(&e, &ints, 3).is_none());
    }

    #[test]
    fn is_null_against_target() {
        let batch = vec![int8(&[Some(1), None])];
        let e = BoundExpr::IsNull {
            expr: col(0, DataType::Int8),
            negated: false,
        };
        assert_eq!(agree(&e, &batch, 2), vec![1]);
        let e = BoundExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(BoundExpr::IsNull {
                expr: col(0, DataType::Int8),
                negated: true,
            }),
        };
        assert_eq!(agree(&e, &batch, 2), vec![1]);
        // A column without NULLs never reads its bitmap per row.
        let full = vec![int8(&[Some(1), Some(2)])];
        for negated in [false, true] {
            let e = BoundExpr::IsNull {
                expr: col(0, DataType::Int8),
                negated,
            };
            assert_eq!(agree(&e, &full, 2).len(), if negated { 2 } else { 0 });
        }
    }

    #[test]
    fn arithmetic_operands_are_kernelized() {
        let batch = vec![
            int8(&[Some(1), Some(5), None, Some(-3)]),
            f64col(&[Some(0.5), None, Some(2.0), Some(0.0)]),
        ];
        let k = || col(0, DataType::Int8);
        let v = || col(1, DataType::Float8);
        // col ∘ lit, lit ∘ col, col ∘ col, nested, on both lanes.
        let sum = bin(k(), BinaryOp::Add, lit(Value::Int8(1)));
        assert_eq!(
            agree(
                &bin(Box::new(sum), BinaryOp::Lt, lit(Value::Int8(5))),
                &batch,
                4
            ),
            vec![0, 3]
        );
        let diff = bin(lit(Value::Int8(10)), BinaryOp::Sub, k());
        agree(&bin(Box::new(diff), BinaryOp::GtEq, k()), &batch, 4);
        let prod = bin(k(), BinaryOp::Mul, v());
        agree(
            &bin(Box::new(prod), BinaryOp::Gt, lit(Value::Float8(0.0))),
            &batch,
            4,
        );
        let nested = bin(
            Box::new(bin(k(), BinaryOp::Mod, lit(Value::Int8(2)))),
            BinaryOp::Mul,
            k(),
        );
        agree(
            &bin(Box::new(nested), BinaryOp::NotEq, lit(Value::Int8(0))),
            &batch,
            4,
        );
        // Float division by zero (row 3): declines, the reference raises;
        // over the rows with a non-zero divisor both answer.
        let quot = bin(k(), BinaryOp::Div, v());
        let e = bin(Box::new(quot), BinaryOp::Gt, lit(Value::Float8(1.0)));
        assert!(try_eval_predicate(&e, &batch, 4).is_none());
        assert!(eval_predicate_interp(&e, &batch, 4).is_err());
        let nonzero: Vec<ColumnData> = batch.iter().map(|c| c.slice(0, 3)).collect();
        assert_eq!(agree(&e, &nonzero, 3), vec![0]);
        // Arithmetic inside IN.
        let e = BoundExpr::InList {
            expr: Box::new(bin(k(), BinaryOp::Add, k())),
            list: vec![Value::Int8(2), Value::Int8(-6)],
            negated: false,
        };
        assert_eq!(agree(&e, &batch, 4), vec![0, 3]);
    }

    #[test]
    fn failing_arithmetic_declines_even_on_rows_no_candidate_needs() {
        let batch = vec![int8(&[Some(1), Some(0), None, Some(i64::MAX)])];
        let k = || col(0, DataType::Int8);
        let cases = [
            bin(lit(Value::Int8(10)), BinaryOp::Div, k()),
            bin(lit(Value::Int8(10)), BinaryOp::Mod, k()),
            bin(k(), BinaryOp::Add, lit(Value::Int8(1))),
            bin(k(), BinaryOp::Mul, lit(Value::Int8(2))),
        ];
        for (arith, want) in cases.into_iter().zip([vec![0], vec![], vec![0], vec![0]]) {
            let cmp = bin(Box::new(arith), BinaryOp::Gt, lit(Value::Int8(0)));
            assert!(eval_predicate_interp(&cmp, &batch, 4).is_err(), "{cmp:?}");
            // Row 0 alone evaluates fine; the kernel still looks at
            // every row and declines, and the reference — which the
            // guard keeps off the failing rows — answers.
            let guarded = bin(
                Box::new(bin(k(), BinaryOp::Eq, lit(Value::Int8(1)))),
                BinaryOp::And,
                Box::new(cmp),
            );
            assert!(
                try_eval_predicate(&guarded, &batch, 4).is_none(),
                "{guarded:?}"
            );
            let fallback = eval_predicate_interp(&guarded, &batch, 4).unwrap();
            assert_eq!(fallback.iter().collect::<Vec<_>>(), want, "{guarded:?}");
        }
        // The NULL slot's payload (0) is never divided by.
        let ok = vec![int8(&[Some(2), None])];
        let e = bin(
            Box::new(bin(lit(Value::Int8(10)), BinaryOp::Div, k())),
            BinaryOp::Eq,
            lit(Value::Int8(5)),
        );
        assert_eq!(agree(&e, &ok, 2), vec![0]);
    }

    #[test]
    fn narrow_results_are_range_checked_like_the_interpreter() {
        let mut c = ColumnData::new(DataType::Int4);
        for x in [1, i32::MAX] {
            c.push_value(&Value::Int4(x)).unwrap();
        }
        let sum = bin(
            col(0, DataType::Int4),
            BinaryOp::Add,
            col(0, DataType::Int4),
        );
        let e = bin(Box::new(sum), BinaryOp::Gt, lit(Value::Int8(0)));
        assert!(try_eval_predicate(&e, std::slice::from_ref(&c), 2).is_none());
        assert!(eval_predicate_interp(&e, std::slice::from_ref(&c), 2).is_err());
        let small = c.slice(0, 1);
        assert_eq!(agree(&e, &[small], 1), vec![0]);
    }

    #[test]
    fn uncovered_expressions_bail() {
        let batch = vec![int8(&[Some(1)])];
        // CASE and casts have no kernel.
        let cast = BoundExpr::Cast {
            expr: col(0, DataType::Int8),
            to: DataType::Float8,
        };
        let e = bin(Box::new(cast), BinaryOp::Lt, lit(Value::Float8(5.0)));
        assert!(try_eval_predicate(&e, &batch, 1).is_none());
        // DECIMAL arithmetic keeps the interpreter's exact path.
        let dec = bin(
            col(0, DataType::Int8),
            BinaryOp::Add,
            lit(Value::Decimal {
                units: 15,
                scale: 1,
            }),
        );
        let e = bin(Box::new(dec), BinaryOp::Lt, lit(Value::Int8(5)));
        assert!(try_eval_predicate(&e, &batch, 1).is_none());
        // Missing column index → fallback (interpreter reports the error).
        let e = bin(col(7, DataType::Int8), BinaryOp::Lt, lit(Value::Int8(5)));
        assert!(try_eval_predicate(&e, &batch, 1).is_none());
    }

    #[test]
    fn decimal_compares_via_f64_like_cmp_sql() {
        let mut d = ColumnData::new(DataType::Decimal(10, 2));
        for units in [Some(150i128), Some(-25), None] {
            match units {
                Some(u) => d
                    .push_value(&Value::Decimal { units: u, scale: 2 })
                    .unwrap(),
                None => d.push_null(),
            }
        }
        let batch = vec![d];
        let e = bin(
            col(0, DataType::Decimal(10, 2)),
            BinaryOp::Gt,
            lit(Value::Decimal { units: 0, scale: 2 }),
        );
        assert_eq!(agree(&e, &batch, 3), vec![0]);
        agree(
            &bin(
                col(0, DataType::Decimal(10, 2)),
                BinaryOp::Lt,
                lit(Value::Int8(1)),
            ),
            &batch,
            3,
        );
    }

    #[test]
    fn null_literal_comparison_selects_nothing() {
        let batch = vec![int8(&[Some(1), None])];
        for negated in [false, true] {
            let mut e = bin(col(0, DataType::Int8), BinaryOp::Eq, lit(Value::Null));
            if negated {
                e = BoundExpr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(e),
                };
            }
            assert!(agree(&e, &batch, 2).is_empty());
        }
    }

    #[test]
    fn slot_comparisons_match_cmp_sql() {
        let mut dec = ColumnData::new(DataType::Decimal(10, 2));
        dec.push_value(&Value::Decimal {
            units: 150,
            scale: 2,
        })
        .unwrap();
        dec.push_null();
        dec.push_value(&Value::Decimal {
            units: -25,
            scale: 2,
        })
        .unwrap();
        let cols = [
            int8(&[Some(5), Some(-1), None]),
            f64col(&[Some(f64::NAN), Some(2.5), Some(-0.0)]),
            strcol(&[Some("abc"), Some(""), None]),
            dec,
        ];
        let probes = [
            Value::Int8(3),
            Value::Float8(f64::NAN),
            Value::Float8(1.0),
            Value::Str("abc".into()),
        ];
        for c in &cols {
            for i in 0..c.len() {
                for j in 0..c.len() {
                    assert_eq!(
                        cmp_slots(c, i, j),
                        c.get(i).cmp_sql(&c.get(j)),
                        "col {:?} slots {i},{j}",
                        c.data_type()
                    );
                }
                if c.is_null(i) {
                    continue;
                }
                for v in &probes {
                    assert_eq!(
                        cmp_slot_value(c, i, v),
                        c.get(i).cmp_sql(v),
                        "col {:?} slot {i} vs {v:?}",
                        c.data_type()
                    );
                }
            }
        }
    }
}
