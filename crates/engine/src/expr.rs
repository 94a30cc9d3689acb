//! The binder: one expression over one batch, by the fastest evaluator
//! that covers it.
//!
//! Every operator that needs an expression's value per row — filter,
//! projection, group key, aggregate argument, sort key — asks here, and
//! gets the same ladder: a plain column is borrowed, `+ - * / %` runs in
//! [`crate::kernels::arith`], a predicate narrows in
//! [`crate::kernels::narrow`], a literal is filled typed, and anything
//! else is [`crate::interp::eval_row`] over the selected rows. The
//! kernels answer exactly what the row interpreter answers or decline,
//! so which rung ran is a cost, never a result; the executor counts the
//! batches that reached the last rung (`ExecMetrics::interp_fallback`).

use crate::interp::eval_row;
use crate::kernels::{arith, narrow};
use crate::selection::Selection;
use redsim_common::{ColumnData, Result, RsError, Value};
use redsim_sql::plan::BoundExpr;
use std::borrow::Cow;

/// `expr` over the rows of `batch` in `sel`, as a column aligned with
/// the batch's physical rows (nothing is gathered first; what rows
/// outside `sel` hold is unspecified), and whether the row interpreter
/// had to run.
pub(crate) fn bind<'a>(
    expr: &BoundExpr,
    batch: &'a [ColumnData],
    sel: &Selection,
) -> Result<(Cow<'a, ColumnData>, bool)> {
    let rows = sel.rows();
    let covered = match expr {
        BoundExpr::Column { index, .. } => batch
            .get(*index)
            .filter(|c| c.len() == rows)
            .map(Cow::Borrowed),
        BoundExpr::Binary { .. } => arith(expr, batch, rows).map(Cow::Owned),
        BoundExpr::Literal(v) => {
            let mut out = ColumnData::new(expr.ty());
            for _ in 0..rows {
                out.push_value(v)?;
            }
            Some(Cow::Owned(out))
        }
        _ => None,
    };
    if let Some(col) = covered {
        return Ok((col, false));
    }
    let mut out = ColumnData::new(expr.ty());
    for_each_row(expr, batch, sel, |i, v| {
        while out.len() < i {
            out.push_null();
        }
        out.push_value(&v)
    })?;
    while out.len() < rows {
        out.push_null();
    }
    Ok((Cow::Owned(out), true))
}

/// Evaluate a boolean predicate over every row: the rows on which it is
/// TRUE (SQL WHERE semantics: NULL does not pass).
pub fn eval_predicate(expr: &BoundExpr, batch: &[ColumnData], rows: usize) -> Result<Selection> {
    Ok(narrow_predicate(expr, batch, &Selection::all(rows))?.0)
}

/// Narrow `cand` to the rows on which `expr` is TRUE, and say whether
/// the row interpreter had to run. Either way only candidate rows can
/// raise: a kernel that would fail on any row declines.
pub(crate) fn narrow_predicate(
    expr: &BoundExpr,
    batch: &[ColumnData],
    cand: &Selection,
) -> Result<(Selection, bool)> {
    match narrow(expr, batch, cand) {
        Some(sel) => Ok((sel, false)),
        None => Ok((true_rows(expr, batch, cand)?, true)),
    }
}

/// The reference for [`eval_predicate`]: the rows on which
/// [`eval_row`] is TRUE, never a kernel. Public so kernel coverage can
/// be differentially fuzzed, and timed, against it.
pub fn eval_predicate_interp(
    expr: &BoundExpr,
    batch: &[ColumnData],
    rows: usize,
) -> Result<Selection> {
    true_rows(expr, batch, &Selection::all(rows))
}

fn true_rows(expr: &BoundExpr, batch: &[ColumnData], cand: &Selection) -> Result<Selection> {
    let mut ids = Vec::new();
    for_each_row(expr, batch, cand, |i, v| {
        if v == Value::Bool(true) {
            ids.push(i as u32);
        }
        Ok(())
    })?;
    Ok(Selection::from_ids(cand.rows(), ids))
}

/// Call `f(row, value)` with [`eval_row`]'s value of `expr` on each row
/// of `sel`, in order. Only the columns `expr` names are boxed
/// (`ColumnData::get` on a VARCHAR allocates); the rest of the row
/// stays NULL.
fn for_each_row(
    expr: &BoundExpr,
    batch: &[ColumnData],
    sel: &Selection,
    mut f: impl FnMut(usize, Value) -> Result<()>,
) -> Result<()> {
    let mut used: Vec<usize> = Vec::new();
    expr.for_each_column(&mut |c| {
        if c < batch.len() && !used.contains(&c) {
            used.push(c);
        }
    });
    if let Some(c) = used.iter().find(|&&c| batch[c].len() != sel.rows()) {
        return Err(RsError::Execution(format!(
            "column {c} has {} rows in a batch of {}",
            batch[*c].len(),
            sel.rows()
        )));
    }
    // A column index past the batch stays out of the row: `eval_row`
    // reports it missing if a row reaches it.
    let mut row = vec![Value::Null; batch.len()];
    for i in sel.iter() {
        for &c in &used {
            row[c] = batch[c].get(i);
        }
        f(i, eval_row(expr, &row)?)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::DataType;
    use redsim_sql::ast::BinaryOp;
    use redsim_sql::plan::ScalarFunc;

    fn column(ty: DataType, vals: &[Value]) -> ColumnData {
        let mut c = ColumnData::new(ty);
        for v in vals {
            c.push_value(v).unwrap();
        }
        c
    }

    fn col(index: usize, ty: DataType) -> Box<BoundExpr> {
        Box::new(BoundExpr::Column { index, ty })
    }

    fn int(v: i64) -> Box<BoundExpr> {
        Box::new(BoundExpr::Literal(Value::Int8(v)))
    }

    fn bin(left: Box<BoundExpr>, op: BinaryOp, right: Box<BoundExpr>) -> BoundExpr {
        BoundExpr::Binary { left, op, right }
    }

    fn batch() -> Vec<ColumnData> {
        use Value::*;
        vec![
            column(DataType::Int8, &[Int8(0), Int8(5), Null, Int8(2)]),
            column(
                DataType::Varchar,
                &[Str("Ab".into()), Null, Str("cD".into()), Str("e".into())],
            ),
        ]
    }

    #[test]
    fn each_rung_of_the_ladder() {
        let batch = batch();
        let all = Selection::all(4);
        // A plain column is borrowed.
        let (c, fell_back) = bind(&col(0, DataType::Int8), &batch, &all).unwrap();
        assert!(matches!(c, Cow::Borrowed(_)) && !fell_back);
        // Arithmetic runs in its kernel.
        let sum = bin(col(0, DataType::Int8), BinaryOp::Add, int(1));
        let (c, fell_back) = bind(&sum, &batch, &all).unwrap();
        assert_eq!(
            (c.get(1), c.get(2), fell_back),
            (Value::Int8(6), Value::Null, false)
        );
        // A literal is filled typed; NULL too.
        let (c, fell_back) = bind(&int(7), &batch, &all).unwrap();
        assert_eq!((c.len(), c.get(3), fell_back), (4, Value::Int8(7), false));
        let null = BoundExpr::Literal(Value::Null);
        assert_eq!(bind(&null, &batch, &all).unwrap().0.null_count(), 4);
        // Anything else is the row interpreter, and says so.
        let lower = BoundExpr::Func {
            func: ScalarFunc::Lower,
            args: vec![*col(1, DataType::Varchar)],
        };
        let (c, fell_back) = bind(&lower, &batch, &all).unwrap();
        assert_eq!(
            (c.get(0), c.get(1), fell_back),
            (Value::Str("ab".into()), Value::Null, true)
        );
    }

    #[test]
    fn the_fallback_sees_only_selected_rows_and_stays_aligned() {
        let batch = batch();
        // 10 / a fails on row 0: the kernel declines whatever the
        // selection, the interpreter raises only if row 0 is selected.
        let div = bin(int(10), BinaryOp::Div, col(0, DataType::Int8));
        assert!(bind(&div, &batch, &Selection::all(4)).is_err());
        let sel = Selection::from_ids(4, vec![1, 3]);
        let (c, fell_back) = bind(&div, &batch, &sel).unwrap();
        assert!(fell_back);
        assert_eq!(c.len(), 4, "aligned with the batch's physical rows");
        assert_eq!((c.get(1), c.get(3)), (Value::Int8(2), Value::Int8(5)));
        // The same guard as a predicate: narrowed, not raised.
        let guarded = bin(
            Box::new(bin(col(0, DataType::Int8), BinaryOp::NotEq, int(0))),
            BinaryOp::And,
            Box::new(bin(Box::new(div), BinaryOp::Gt, int(2))),
        );
        let (sel, fell_back) = narrow_predicate(&guarded, &batch, &Selection::all(4)).unwrap();
        assert_eq!((sel, fell_back), (Selection::from_ids(4, vec![3]), true));
        assert_eq!(eval_predicate(&guarded, &batch, 4).unwrap().len(), 1);
    }

    #[test]
    fn malformed_batches_are_errors_not_panics() {
        let mut ragged = batch();
        ragged[1] = ragged[1].slice(0, 2);
        let lower = BoundExpr::Func {
            func: ScalarFunc::Lower,
            args: vec![*col(1, DataType::Varchar)],
        };
        assert!(bind(&lower, &ragged, &Selection::all(4)).is_err());
        assert!(bind(&col(1, DataType::Varchar), &ragged, &Selection::all(4)).is_err());
        let missing = bin(col(7, DataType::Int8), BinaryOp::Lt, int(5));
        let err = eval_predicate(&missing, &batch(), 4).unwrap_err();
        assert!(err.to_string().contains("column 7 missing"), "{err}");
    }
}
