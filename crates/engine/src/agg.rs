//! GROUP BY: one table of groups, from the slice to the leader.
//!
//! A slice fragment folds its `(batch, selection)` pairs into a
//! [`Groups`], one column at a time. Each key column is coded to dense
//! ids on its type's lane ([`crate::keys`]); the first key's id, then
//! `(group so far, id)` packed into one `i64` per further key, is the
//! row's group, numbered in first-seen order. A group's key values are
//! copied once, from the row that opened it.
//!
//! COUNT, SUM and AVG over the i64 and f64 lanes and MIN/MAX over
//! integer-family and FLOAT8 arguments are struct-of-arrays accumulators
//! ([`Acc`]) updated in typed loops straight off the argument column's
//! payload; DISTINCT, the sketch, DECIMAL sums and MIN/MAX over VARCHAR,
//! DECIMAL or BOOL keep one boxed [`AggState`] per group. Arguments and
//! keys come from the binder ([`crate::expr::bind`]): borrowed, computed
//! by a kernel, or — counted — evaluated by the row interpreter over the
//! selected rows.
//!
//! The leader's final merge is the same fold ([`Groups::merge`]): each
//! fragment's key columns, in slice order, map its groups to the
//! leader's, and [`Acc::merge`] adds its accumulators in. An unsorted
//! GROUP BY result therefore comes out in first-seen order — slice
//! order, then row order — and `f64` sums add up in one fixed order.

use crate::expr::bind;
use crate::hashkey::HKey;
use crate::kernels::with_ints;
use crate::keys::{is_int_key, Dict, KeyLane};
use crate::selection::Selection;
use redsim_common::types::cmp_f64;
use redsim_common::{Bitmap, ColumnData, DataType, FxHashSet, Result, RsError, Value};
use redsim_sql::plan::{AggExpr, AggFunc, BoundExpr, OutCol};
use redsim_storage::stats::KmvSketch;
use std::borrow::Cow;
use std::cmp::Ordering;

/// One fragment's groups, or at the leader every fragment's, merged.
pub(crate) struct Groups<'a> {
    group_by: &'a [BoundExpr],
    aggs: &'a [AggExpr],
    /// One dictionary per key.
    lanes: Vec<KeyLane>,
    /// Per key after the first: `(group so far << 32) | its id` → group.
    pairs: Vec<Dict<i64>>,
    /// Each group's key values, from the row that opened it.
    keys: Vec<ColumnData>,
    groups: usize,
    accs: Vec<Acc>,
}

impl<'a> Groups<'a> {
    pub(crate) fn new(group_by: &'a [BoundExpr], aggs: &'a [AggExpr]) -> Self {
        let mut accs: Vec<Acc> = aggs.iter().map(Acc::new).collect();
        // Without keys there is one group, rows or no rows.
        if group_by.is_empty() {
            accs.iter_mut().zip(aggs).for_each(|(acc, spec)| acc.push_group(spec));
        }
        Groups {
            group_by,
            aggs,
            lanes: group_by.iter().map(|k| KeyLane::for_type(k.ty())).collect(),
            pairs: group_by.iter().skip(1).map(|_| Dict::default()).collect(),
            keys: group_by.iter().map(|k| ColumnData::new(k.ty())).collect(),
            groups: group_by.is_empty() as usize,
            accs,
        }
    }

    /// Fold the selected rows of one batch in; returns how many keys
    /// and arguments the row interpreter had to evaluate.
    pub(crate) fn update(&mut self, cols: &[ColumnData], sel: &Selection) -> Result<u64> {
        if sel.is_empty() {
            return Ok(0);
        }
        // Keys first, then one entry per aggregate (`None` = COUNT(*)).
        let exprs =
            (self.group_by.iter().map(Some)).chain(self.aggs.iter().map(|a| a.arg.as_ref()));
        let mut fallbacks = 0;
        let mut bound: Vec<Option<Cow<ColumnData>>> = Vec::new();
        for e in exprs {
            bound.push(match e {
                None => None,
                Some(e) => {
                    let (col, fell_back) = bind(e, cols, sel)?;
                    fallbacks += fell_back as u64;
                    Some(col)
                }
            });
        }
        let (keys, args) = bound.split_at(self.group_by.len());
        let keys: Vec<&ColumnData> = keys
            .iter()
            .map(|k| &**k.as_ref().expect("group keys are expressions"))
            .collect();
        let gids = self.open(&keys, sel)?;
        for ((acc, spec), arg) in self.accs.iter_mut().zip(self.aggs).zip(args) {
            if keys.is_empty() {
                acc.update_one(spec, arg.as_deref(), sel)?;
            } else {
                acc.update(spec, arg.as_deref(), sel, |j| gids[j] as usize)?;
            }
        }
        Ok(fallbacks)
    }

    /// Fold another fragment's groups in: its key rows map its groups to
    /// these, opening the ones new here, and its accumulators add in.
    pub(crate) fn merge(&mut self, other: Groups) -> Result<()> {
        let keys: Vec<&ColumnData> = other.keys.iter().collect();
        let gids = self.open(&keys, &Selection::all(other.groups))?;
        for (acc, theirs) in self.accs.iter_mut().zip(other.accs) {
            acc.merge(theirs, |j| gids.get(j).map_or(0, |&g| g as usize));
        }
        Ok(())
    }

    /// Every group as one output batch (`output` = group keys, then
    /// aggregates).
    pub(crate) fn finish(self, output: &[OutCol]) -> Result<Vec<ColumnData>> {
        let mut cols = self.keys;
        for (acc, out) in self.accs.into_iter().zip(&output[self.group_by.len()..]) {
            cols.push(acc.finish(out.ty)?);
        }
        Ok(cols)
    }

    /// The group of each selected row of `keys` (none without keys: all
    /// are group 0), opening groups on first sight — a key row copied
    /// from the row that opened it, a slot in every accumulator.
    fn open(&mut self, keys: &[&ColumnData], sel: &Selection) -> Result<Vec<u32>> {
        let mut gids = Vec::new();
        let Some((first, rest)) = self.lanes.split_first_mut() else {
            return Ok(gids);
        };
        gids.reserve(sel.len());
        first.ids_of(keys[0], sel, &mut gids)?;
        let mut ids = Vec::with_capacity(sel.len());
        for ((lane, pairs), key) in rest.iter_mut().zip(&mut self.pairs).zip(&keys[1..]) {
            ids.clear();
            lane.ids_of(key, sel, &mut ids)?;
            for (g, &id) in gids.iter_mut().zip(&ids) {
                *g = pairs.id_of(&(((*g as i64) << 32) | id as i64));
            }
        }
        let opened = self.groups;
        sel.for_each(|j, i| {
            if gids[j] as usize == self.groups {
                self.keys.iter_mut().zip(keys).for_each(|(out, key)| out.push_from(key, i));
                self.groups += 1;
            }
        });
        for (acc, spec) in self.accs.iter_mut().zip(self.aggs) {
            (opened..self.groups).for_each(|_| acc.push_group(spec));
        }
        Ok(gids)
    }
}

/// Call `f(position, row)` for the selected rows valid in `nulls`.
#[inline]
fn for_valid(sel: &Selection, nulls: &Bitmap, mut f: impl FnMut(usize, usize)) {
    if nulls.all_set() {
        sel.for_each(f)
    } else {
        sel.for_each(|j, i| {
            if nulls.get(i) {
                f(j, i)
            }
        })
    }
}

/// Call `f(row, valid)` for every selected row, without a branch on the
/// validity bit.
#[inline]
fn for_each_valid(sel: &Selection, nulls: &Bitmap, mut f: impl FnMut(usize, bool)) {
    if nulls.all_set() {
        sel.for_each(|_, i| f(i, true))
    } else {
        sel.for_each(|_, i| f(i, nulls.get(i)))
    }
}

/// The `pick` extreme of the valid selected rows, and how many were
/// valid. Rows fold into four interleaved lanes, so a row's
/// compare-and-select does not wait on the row before it; a NULL slot
/// folds in as `id`, `pick`'s identity.
#[inline]
fn extreme<T: Copy>(sel: &Selection, nulls: &Bitmap, id: T, x: impl Fn(usize) -> T, pick: impl Fn(T, T) -> T) -> (T, i64) {
    let mut acc = [(id, 0i64); 4];
    let mut step = |l: usize, i: usize| {
        let (v, valid) = (x(i), nulls.get(i));
        acc[l] = (pick(acc[l].0, if valid { v } else { id }), acc[l].1 + valid as i64);
    };
    match sel.ids() {
        None => {
            let rows = sel.rows();
            for k in 0..rows / 4 {
                (0..4).for_each(|l| step(l, 4 * k + l));
            }
            (rows / 4 * 4..rows).for_each(|i| step(0, i));
        }
        Some(ids) => {
            let quads = ids.chunks_exact(4);
            let rest = quads.remainder();
            for q in quads {
                (0..4).for_each(|l| step(l, q[l] as usize));
            }
            rest.iter().for_each(|&i| step(0, i as usize));
        }
    }
    acc.iter().fold((id, 0), |(b, m), &(v, k)| (pick(b, v), m + k))
}

/// Fold `seen` values whose best is `x` into group `g`'s MIN/MAX: `x` is
/// taken when `g` has none yet or `better(x, best)` — strictly, so of
/// equal values (-0.0 and 0.0, two NaNs) the first seen stays, as in
/// [`AggState`].
#[inline]
fn fold_best<T: Copy>(best: &mut [T], n: &mut [i64], g: usize, (x, seen): (T, i64), better: impl Fn(T, T) -> bool) {
    if seen > 0 && (n[g] == 0 || better(x, best[g])) {
        best[g] = x;
    }
    n[g] += seen;
}

/// One aggregate's accumulators, one slot per group. `n` counts the
/// non-NULL inputs a group has seen (SQL: SUM/MIN/MAX of none is NULL).
enum Acc {
    /// COUNT(*) (`star`) or COUNT(x).
    Count { n: Vec<i64>, star: bool },
    /// SUM over the i64 lane.
    SumInt { sum: Vec<i128>, n: Vec<i64> },
    /// SUM(FLOAT8), or AVG over either lane: an `f64` running sum.
    SumFloat {
        sum: Vec<f64>,
        n: Vec<i64>,
        avg: bool,
    },
    /// MIN (`want` = `Less`) or MAX over the integer family.
    MinMaxInt {
        best: Vec<i64>,
        n: Vec<i64>,
        want: Ordering,
    },
    MinMaxFloat {
        best: Vec<f64>,
        n: Vec<i64>,
        want: Ordering,
    },
    /// Shapes without a typed lane keep the boxed state.
    Boxed(Vec<AggState>),
}

impl Acc {
    /// The accumulator for `a`, typed where [`AggState::init`]'s choice
    /// has a lane.
    fn new(a: &AggExpr) -> Acc {
        let ty = a.arg.as_ref().map(|e| e.ty());
        let float = ty == Some(DataType::Float8);
        let int = ty.is_some_and(is_int_key);
        let want = if a.func == AggFunc::Min { Ordering::Less } else { Ordering::Greater };
        match a.func {
            AggFunc::CountStar => Acc::Count {
                n: Vec::new(),
                star: true,
            },
            AggFunc::Count if !a.distinct => Acc::Count {
                n: Vec::new(),
                star: false,
            },
            AggFunc::Sum if int => Acc::SumInt {
                sum: Vec::new(),
                n: Vec::new(),
            },
            AggFunc::Sum if float => Acc::SumFloat {
                sum: Vec::new(),
                n: Vec::new(),
                avg: false,
            },
            AggFunc::Avg if float || int => Acc::SumFloat {
                sum: Vec::new(),
                n: Vec::new(),
                avg: true,
            },
            AggFunc::Min | AggFunc::Max if float => Acc::MinMaxFloat {
                best: Vec::new(),
                n: Vec::new(),
                want,
            },
            AggFunc::Min | AggFunc::Max if int && ty != Some(DataType::Bool) => Acc::MinMaxInt {
                best: Vec::new(),
                n: Vec::new(),
                want,
            },
            _ => Acc::Boxed(Vec::new()),
        }
    }

    fn push_group(&mut self, spec: &AggExpr) {
        match self {
            Acc::Count { n, .. } => n.push(0),
            Acc::SumInt { sum, n } => {
                sum.push(0);
                n.push(0);
            }
            Acc::SumFloat { sum, n, .. } => {
                sum.push(0.0);
                n.push(0);
            }
            Acc::MinMaxInt { best, n, .. } => {
                best.push(0);
                n.push(0);
            }
            Acc::MinMaxFloat { best, n, .. } => {
                best.push(0.0);
                n.push(0);
            }
            Acc::Boxed(states) => states.push(AggState::init(spec)),
        }
    }

    /// Fold the selected rows of `col` in; `gid(position)` is the group
    /// of the row at that position of the selection.
    fn update(
        &mut self,
        spec: &AggExpr,
        col: Option<&ColumnData>,
        sel: &Selection,
        gid: impl Fn(usize) -> usize,
    ) -> Result<()> {
        let mismatch = |c: &ColumnData| {
            RsError::Execution(format!(
                "aggregate {} planned over {:?} got a {} column",
                spec.output_name,
                spec.arg.as_ref().map(|e| e.ty()),
                c.data_type()
            ))
        };
        match (self, col) {
            (Acc::Count { n, star: true }, _) => sel.for_each(|j, _| n[gid(j)] += 1),
            (Acc::Count { n, .. }, Some(c)) => for_valid(sel, c.nulls(), |j, _| n[gid(j)] += 1),
            (Acc::SumInt { sum, n }, Some(c)) => with_ints!(c,
                d => for_valid(sel, c.nulls(), |j, i| {
                    let g = gid(j);
                    sum[g] += d[i] as i128;
                    n[g] += 1;
                }),
                _ => return Err(mismatch(c))),
            (Acc::SumFloat { sum, n, .. }, Some(c)) => {
                // Row order is the selection's order, so a group's sum adds
                // up in the order the value path adds in: bit-identical.
                let mut add = |j: usize, x: f64| {
                    let g = gid(j);
                    sum[g] += x;
                    n[g] += 1;
                };
                match c {
                    ColumnData::Float8 { data, nulls } => {
                        for_valid(sel, nulls, |j, i| add(j, data[i]))
                    }
                    other => with_ints!(other,
                        d => for_valid(sel, other.nulls(), |j, i| add(j, d[i] as i64 as f64)),
                        _ => return Err(mismatch(c))),
                }
            }
            (Acc::MinMaxInt { best, n, want }, Some(c)) => with_ints!(c,
                d => for_valid(sel, c.nulls(), |j, i| {
                    fold_best(best, n, gid(j), (d[i] as i64, 1), |x, b| x.cmp(&b) == *want)
                }),
                _ => return Err(mismatch(c))),
            (Acc::MinMaxFloat { best, n, want }, Some(c)) => {
                let ColumnData::Float8 { data, nulls } = c else {
                    return Err(mismatch(c));
                };
                for_valid(sel, nulls, |j, i| {
                    fold_best(best, n, gid(j), (data[i], 1), |x, b| cmp_f64(x, b) == *want)
                })
            }
            (Acc::Boxed(states), col) => {
                for (j, i) in sel.iter().enumerate() {
                    states[gid(j)].update_from_column(spec, col, i)?;
                }
            }
            (_, None) => {
                return Err(RsError::Execution(format!(
                    "aggregate {} has no argument",
                    spec.output_name
                )))
            }
        }
        Ok(())
    }

    /// [`Acc::update`] for a plan without GROUP BY keys: the selection
    /// folds into locals that are stored once per batch, with no group
    /// id per row and no read-modify-write of `n[0]` through memory.
    fn update_one(&mut self, spec: &AggExpr, col: Option<&ColumnData>, sel: &Selection) -> Result<()> {
        match (&mut *self, col) {
            (Acc::Count { n, star: true }, _) => n[0] += sel.len() as i64,
            (Acc::Count { n, .. }, Some(c)) => {
                let mut m = 0;
                for_each_valid(sel, c.nulls(), |_, valid| m += valid as i64);
                n[0] += m;
            }
            (Acc::SumInt { sum, n }, Some(c)) if is_int_key(c.data_type()) => with_ints!(c,
                d => {
                    let (mut s, mut m) = (sum[0], n[0]);
                    for_each_valid(sel, c.nulls(), |i, valid| {
                        s += if valid { d[i] as i128 } else { 0 };
                        m += valid as i64;
                    });
                    (sum[0], n[0]) = (s, m);
                },
                _ => unreachable!("an integer-family column")),
            (Acc::SumFloat { sum, n, .. }, Some(c)) if c.data_type() == DataType::Float8 || is_int_key(c.data_type()) => {
                // Added in selection order, as the value path adds; a NULL
                // adds -0.0, which leaves every sum's bits as they are.
                let (mut s, mut m) = (sum[0], n[0]);
                let mut add = |x: f64, valid: bool| {
                    s += if valid { x } else { -0.0 };
                    m += valid as i64;
                };
                match c {
                    ColumnData::Float8 { data, nulls } => for_each_valid(sel, nulls, |i, v| add(data[i], v)),
                    other => with_ints!(other,
                        d => for_each_valid(sel, other.nulls(), |i, v| add(d[i] as i64 as f64, v)),
                        _ => unreachable!("a numeric column")),
                }
                (sum[0], n[0]) = (s, m);
            }
            (Acc::MinMaxInt { best, n, want }, Some(c)) if is_int_key(c.data_type()) => with_ints!(c,
                d => {
                    // Equal integers are indistinguishable: the extreme decides.
                    let x = |i: usize| d[i] as i64;
                    let v = match want {
                        Ordering::Less => extreme(sel, c.nulls(), i64::MAX, x, i64::min),
                        _ => extreme(sel, c.nulls(), i64::MIN, x, i64::max),
                    };
                    fold_best(best, n, 0, v, |x, b| x.cmp(&b) == *want);
                },
                _ => unreachable!("an integer-family column")),
            (Acc::MinMaxFloat { best, n, want }, Some(ColumnData::Float8 { data, nulls })) => {
                // NaN is greatest: `f64::min` passes a NaN over, so MIN is
                // NaN only when every valid value is; MAX is NaN when any is.
                let x = |i: usize| data[i];
                let (mut v, seen) = match want {
                    Ordering::Less => extreme(sel, nulls, f64::NAN, x, f64::min),
                    _ => extreme(sel, nulls, f64::NEG_INFINITY, x, |b, x| {
                        if b.is_nan() | x.is_nan() { f64::NAN } else { b.max(x) }
                    }),
                };
                // Of equal values the first wins, and ±0.0 or two NaNs can
                // differ: take the extreme's first occurrence.
                if seen > 0 && (v == 0.0 || v.is_nan()) {
                    let first = sel.iter().find(|&i| nulls.get(i) && cmp_f64(data[i], v) == Ordering::Equal);
                    v = data[first.expect("a valid row holds the extreme")];
                }
                fold_best(best, n, 0, (v, seen), |x, b| cmp_f64(x, b) == *want);
            }
            // Boxed states, and a column of the wrong type (an error).
            _ => return self.update(spec, col, sel, |_| 0),
        }
        Ok(())
    }

    /// Fold another table's accumulators for the same aggregate in: its
    /// group `j` is this one's `gid(j)`.
    fn merge(&mut self, other: Acc, gid: impl Fn(usize) -> usize) {
        match (self, other) {
            (Acc::Count { n, .. }, Acc::Count { n: theirs, .. }) => {
                theirs.into_iter().enumerate().for_each(|(j, m)| n[gid(j)] += m)
            }
            (Acc::SumInt { sum, n }, Acc::SumInt { sum: s, n: m }) => {
                for (j, (s, m)) in s.into_iter().zip(m).enumerate() {
                    let g = gid(j);
                    sum[g] += s;
                    n[g] += m;
                }
            }
            (Acc::SumFloat { sum, n, .. }, Acc::SumFloat { sum: s, n: m, .. }) => {
                for (j, (s, m)) in s.into_iter().zip(m).enumerate() {
                    let g = gid(j);
                    sum[g] += s;
                    n[g] += m;
                }
            }
            (Acc::MinMaxInt { best, n, want }, Acc::MinMaxInt { best: b, n: m, .. }) => {
                for (j, x) in b.into_iter().zip(m).enumerate() {
                    fold_best(best, n, gid(j), x, |x, b| x.cmp(&b) == *want)
                }
            }
            (Acc::MinMaxFloat { best, n, want }, Acc::MinMaxFloat { best: b, n: m, .. }) => {
                for (j, x) in b.into_iter().zip(m).enumerate() {
                    fold_best(best, n, gid(j), x, |x, b| cmp_f64(x, b) == *want)
                }
            }
            (Acc::Boxed(states), Acc::Boxed(theirs)) => {
                theirs.into_iter().enumerate().for_each(|(j, s)| states[gid(j)].merge(s))
            }
            _ => unreachable!("mismatched accumulators"),
        }
    }

    /// Every group's value, as a column of the aggregate's output type.
    fn finish(self, ty: DataType) -> Result<ColumnData> {
        let some = |n: &i64, v: Value| if *n > 0 { v } else { Value::Null };
        let values: Vec<Value> = match self {
            Acc::Count { n, .. } => n.into_iter().map(Value::Int8).collect(),
            Acc::SumInt { sum, n } => {
                sum.iter().zip(&n).map(|(&s, n)| some(n, Value::Int8(s as i64))).collect()
            }
            Acc::SumFloat { sum, n, avg } => (sum.iter().zip(&n))
                .map(|(&s, n)| some(n, Value::Float8(if avg { s / *n as f64 } else { s })))
                .collect(),
            Acc::MinMaxInt { best, n, .. } => {
                best.iter().zip(&n).map(|(&b, n)| some(n, Value::Int8(b))).collect()
            }
            Acc::MinMaxFloat { best, n, .. } => {
                best.iter().zip(&n).map(|(&b, n)| some(n, Value::Float8(b))).collect()
            }
            Acc::Boxed(states) => states.into_iter().map(AggState::finish).collect(),
        };
        // `push_value` coerces: an INT4 MIN comes back INT4, a DATE a DATE.
        let mut col = ColumnData::new(ty);
        for v in &values {
            col.push_value(v)?;
        }
        Ok(col)
    }
}

/// One aggregate's running state.
pub(crate) enum AggState {
    Count(i64),
    SumInt { sum: i128, seen: bool },
    SumFloat { sum: f64, seen: bool },
    SumDec { sum: i128, scale: u8, seen: bool },
    Avg { sum: f64, n: i64 },
    MinMax { best: Option<Value>, is_min: bool },
    Distinct(FxHashSet<HKey>),
    Approx(KmvSketch),
}

impl AggState {
    pub(crate) fn init(a: &AggExpr) -> AggState {
        match a.func {
            AggFunc::CountStar => AggState::Count(0),
            AggFunc::Count => {
                if a.distinct {
                    AggState::Distinct(FxHashSet::default())
                } else {
                    AggState::Count(0)
                }
            }
            AggFunc::Sum => match a.arg.as_ref().map(|e| e.ty()) {
                Some(DataType::Float8) => AggState::SumFloat {
                    sum: 0.0,
                    seen: false,
                },
                Some(DataType::Decimal(_, s)) => AggState::SumDec {
                    sum: 0,
                    scale: s,
                    seen: false,
                },
                _ => AggState::SumInt {
                    sum: 0,
                    seen: false,
                },
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                is_min: false,
            },
            AggFunc::ApproxCountDistinct => AggState::Approx(KmvSketch::new(256)),
        }
    }

    /// One row into a boxed state: the path of the aggregates without
    /// an accumulator lane (`Acc::Boxed`). AVG, DISTINCT and MIN/MAX
    /// read the argument straight from the column, without a `Value`
    /// per row.
    pub(crate) fn update_from_column(
        &mut self,
        spec: &AggExpr,
        col: Option<&ColumnData>,
        i: usize,
    ) -> Result<()> {
        match (&mut *self, col) {
            (AggState::Avg { sum, n }, Some(c)) => {
                if let Some(x) = c.get_f64(i) {
                    *sum += x;
                    *n += 1;
                }
                Ok(())
            }
            (AggState::Distinct(set), Some(c)) => {
                if !c.is_null(i) {
                    set.insert(HKey::from_column(c, i));
                }
                Ok(())
            }
            (AggState::MinMax { best, is_min }, Some(c)) => {
                // Compare the slot against the running best in place;
                // materialize a `Value` only when it improves (strings
                // stop allocating once the extremum stabilizes).
                if !c.is_null(i) {
                    let better = match best {
                        None => true,
                        Some(b) => {
                            let o = crate::kernels::cmp_slot_value(c, i, b);
                            if *is_min {
                                o == std::cmp::Ordering::Less
                            } else {
                                o == std::cmp::Ordering::Greater
                            }
                        }
                    };
                    if better {
                        *best = Some(c.get(i));
                    }
                }
                Ok(())
            }
            // Decimal sums and sketches take the general path.
            (_, col) => {
                let v = col.map(|c| c.get(i));
                self.update(spec, v.as_ref())
            }
        }
    }

    pub(crate) fn update(&mut self, spec: &AggExpr, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                if spec.func == AggFunc::CountStar || v.is_some_and(|x| !x.is_null()) {
                    *n += 1;
                }
            }
            AggState::SumInt { sum, seen } => {
                if let Some(v) = v {
                    if let Some(x) = v.as_i64() {
                        *sum += x as i128;
                        *seen = true;
                    }
                }
            }
            AggState::SumFloat { sum, seen } => {
                if let Some(v) = v {
                    if let Some(x) = v.as_f64() {
                        *sum += x;
                        *seen = true;
                    }
                }
            }
            AggState::SumDec { sum, scale, seen } => {
                if let Some(Value::Decimal { units, scale: s }) = v {
                    *sum += redsim_common::types::rescale(*units, *s, *scale)?;
                    *seen = true;
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(v) = v {
                    if let Some(x) = v.as_f64() {
                        *sum += x;
                        *n += 1;
                    }
                }
            }
            AggState::MinMax { best, is_min } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let better = match best {
                            None => true,
                            Some(b) => {
                                let o = v.cmp_sql(b);
                                if *is_min {
                                    o == std::cmp::Ordering::Less
                                } else {
                                    o == std::cmp::Ordering::Greater
                                }
                            }
                        };
                        if better {
                            *best = Some(v.clone());
                        }
                    }
                }
            }
            AggState::Distinct(set) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        set.insert(HKey::from_value(v));
                    }
                }
            }
            AggState::Approx(sketch) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        sketch.insert_value(v);
                    }
                }
            }
        }
        Ok(())
    }

    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::SumInt { sum: a, seen: sa }, AggState::SumInt { sum: b, seen: sb }) => {
                *a += b;
                *sa |= sb;
            }
            (AggState::SumFloat { sum: a, seen: sa }, AggState::SumFloat { sum: b, seen: sb }) => {
                *a += b;
                *sa |= sb;
            }
            (
                AggState::SumDec {
                    sum: a, seen: sa, ..
                },
                AggState::SumDec {
                    sum: b, seen: sb, ..
                },
            ) => {
                *a += b;
                *sa |= sb;
            }
            (AggState::Avg { sum: a, n: na }, AggState::Avg { sum: b, n: nb }) => {
                *a += b;
                *na += nb;
            }
            (AggState::MinMax { best: a, is_min }, AggState::MinMax { best: b, .. }) => {
                if let Some(bv) = b {
                    let better = match a {
                        None => true,
                        Some(av) => {
                            let o = bv.cmp_sql(av);
                            if *is_min {
                                o == std::cmp::Ordering::Less
                            } else {
                                o == std::cmp::Ordering::Greater
                            }
                        }
                    };
                    if better {
                        *a = Some(bv);
                    }
                }
            }
            (AggState::Distinct(a), AggState::Distinct(b)) => a.extend(b),
            (AggState::Approx(a), AggState::Approx(b)) => a.merge(&b),
            _ => unreachable!("mismatched aggregate states"),
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int8(n),
            AggState::SumInt { sum, seen } => {
                if seen {
                    Value::Int8(sum as i64)
                } else {
                    Value::Null
                }
            }
            AggState::SumFloat { sum, seen } => {
                if seen {
                    Value::Float8(sum)
                } else {
                    Value::Null
                }
            }
            AggState::SumDec { sum, scale, seen } => {
                if seen {
                    Value::Decimal { units: sum, scale }
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, n } => {
                if n > 0 {
                    Value::Float8(sum / n as f64)
                } else {
                    Value::Null
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::Distinct(set) => Value::Int8(set.len() as i64),
            AggState::Approx(sketch) => Value::Int8(sketch.estimate().round() as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::FxHashMap;
    use redsim_sql::ast::BinaryOp;

    fn column(ty: DataType, vals: &[Value]) -> ColumnData {
        let mut c = ColumnData::new(ty);
        for v in vals {
            c.push_value(v).unwrap();
        }
        c
    }

    fn agg(func: AggFunc, arg: Option<BoundExpr>) -> AggExpr {
        AggExpr {
            func,
            arg,
            distinct: false,
            output_name: format!("{func:?}"),
        }
    }

    fn col(index: usize, ty: DataType) -> BoundExpr {
        BoundExpr::Column { index, ty }
    }

    fn output(group_by: &[BoundExpr], aggs: &[AggExpr]) -> Vec<OutCol> {
        (group_by.iter().map(|k| OutCol { name: "k".into(), ty: k.ty() }))
            .chain(aggs.iter().map(|a| OutCol { name: a.output_name.clone(), ty: a.ty() }))
            .collect()
    }

    /// A finished table's rows, in its order.
    fn rows(g: Groups, out: &[OutCol]) -> Vec<String> {
        let cols = g.finish(out).unwrap();
        (0..cols[0].len())
            .map(|i| format!("{:?}", cols.iter().map(|c| c.get(i)).collect::<Vec<_>>()))
            .collect()
    }

    /// The value path: a boxed `AggState` per aggregate per key tuple, fed
    /// one selected row at a time, groups in first-seen order.
    fn reference(cols: &[ColumnData], sel: &Selection, group_by: &[BoundExpr], aggs: &[AggExpr]) -> Vec<String> {
        let mut order: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
        let mut index: FxHashMap<Vec<HKey>, usize> = FxHashMap::default();
        if group_by.is_empty() {
            order.push((Vec::new(), aggs.iter().map(AggState::init).collect()));
            index.insert(Vec::new(), 0);
        }
        let dense = sel.gather(cols);
        let all = Selection::all(sel.len());
        let bound = |e: &BoundExpr| bind(e, &dense, &all).unwrap().0.into_owned();
        let keys: Vec<ColumnData> = group_by.iter().map(bound).collect();
        let args: Vec<Option<ColumnData>> = aggs.iter().map(|a| a.arg.as_ref().map(bound)).collect();
        for i in 0..sel.len() {
            let key: Vec<HKey> = keys.iter().map(|k| HKey::from_column(k, i)).collect();
            let g = *index.entry(key).or_insert_with(|| {
                order.push((keys.iter().map(|k| k.get(i)).collect(), aggs.iter().map(AggState::init).collect()));
                order.len() - 1
            });
            for ((st, a), arg) in order[g].1.iter_mut().zip(aggs).zip(&args) {
                st.update_from_column(a, arg.as_ref(), i).unwrap();
            }
        }
        let out = output(group_by, aggs);
        (order.into_iter())
            .map(|(mut vals, states)| {
                let finished = states.into_iter().zip(&out[group_by.len()..]);
                vals.extend(finished.map(|(st, o)| st.finish().coerce_to(o.ty).unwrap()));
                format!("{vals:?}")
            })
            .collect()
    }

    #[test]
    fn typed_accumulators_match_the_value_path() {
        use Value::*;
        let cols = vec![
            column(
                DataType::Int8,
                &[Int8(1), Int8(2), Null, Int8(1), Int8(2), Int8(1)],
            ),
            column(
                DataType::Float8,
                &[
                    Float8(0.0),
                    Float8(f64::NAN),
                    Float8(-0.0),
                    Null,
                    Float8(1.5),
                    Float8(-2.0),
                ],
            ),
            column(
                DataType::Int4,
                &[Int4(7), Null, Int4(-3), Int4(9), Int4(9), Int4(0)],
            ),
        ];
        let aggs = vec![
            agg(AggFunc::CountStar, None),
            agg(AggFunc::Count, Some(col(2, DataType::Int4))),
            agg(AggFunc::Sum, Some(col(2, DataType::Int4))),
            agg(AggFunc::Sum, Some(col(1, DataType::Float8))),
            agg(AggFunc::Avg, Some(col(2, DataType::Int4))),
            agg(AggFunc::Min, Some(col(1, DataType::Float8))),
            agg(AggFunc::Max, Some(col(1, DataType::Float8))),
            agg(AggFunc::Min, Some(col(2, DataType::Int4))),
            agg(AggFunc::Max, Some(col(2, DataType::Int4))),
            agg(
                AggFunc::Sum,
                Some(BoundExpr::Binary {
                    left: Box::new(col(2, DataType::Int4)),
                    op: BinaryOp::Mul,
                    right: Box::new(BoundExpr::Literal(Int8(2))),
                }),
            ),
        ];
        let keys = [col(0, DataType::Int8), col(1, DataType::Float8), col(2, DataType::Int4)];
        for sel in [
            Selection::all(6),
            Selection::from_ids(6, vec![0, 2, 3, 5]),
            Selection::none(6),
        ] {
            for group_by in [&keys[..1], &[], &keys[1..2], &keys[..]] {
                let out = output(group_by, &aggs);
                let mut g = Groups::new(group_by, &aggs);
                g.update(&cols, &sel).unwrap();
                let want = reference(&cols, &sel, group_by, &aggs);
                assert_eq!(rows(g, &out), want, "sel {sel:?} keys {}", group_by.len());
            }
        }
    }

    #[test]
    fn unsorted_group_order_is_first_seen_across_batches_and_fragments() {
        // Groups open in first-seen order — row order within a batch,
        // batch order within a fragment, fragment (slice) order at the
        // leader — for every lane, NULL keys and 3-4 keys included.
        let n = 500;
        let ints: Vec<Value> = (0..n)
            .map(|i| if i % 41 == 7 { Value::Null } else { Value::Int8((i * 7919) % 97) })
            .collect();
        let strs: Vec<Value> = (0..n)
            .map(|i| if i % 53 == 9 { Value::Null } else { Value::Str(format!("k{}", (i * 31) % 19)) })
            .collect();
        let floats: Vec<Value> = (0..n).map(|i| Value::Float8([0.0, -0.0, f64::NAN, 2.5][i as usize % 4])).collect();
        let decs: Vec<Value> = (0..n).map(|i| Value::Decimal { units: (i % 3) as i128, scale: 2 }).collect();
        let bools: Vec<Value> = (0..n).map(|i| Value::Bool(i % 5 == 0)).collect();
        let cols = vec![
            column(DataType::Int8, &ints),
            column(DataType::Varchar, &strs),
            column(DataType::Float8, &floats),
            column(DataType::Decimal(10, 2), &decs),
            column(DataType::Bool, &bools),
        ];
        let aggs = vec![agg(AggFunc::CountStar, None), agg(AggFunc::Sum, Some(col(2, DataType::Float8)))];
        let k = |i: usize| col(i, cols[i].data_type());
        for key in [
            vec![k(0)],
            vec![k(1)],
            vec![k(2)],
            vec![k(3)],
            vec![k(4)],
            vec![k(1), k(1)],
            vec![k(0), k(1)],
            vec![k(4), k(2), k(3)],
            vec![k(1), k(4), k(0), k(2)],
        ] {
            let out = output(&key, &aggs);
            // Two fragments of two batches each: ids and groups carry over
            // from batch to batch, and from fragment to fragment.
            let halves = [(0..250u32).collect::<Vec<_>>(), (250..500).collect()];
            let mut leader = Groups::new(&key, &aggs);
            let mut whole = Vec::new();
            for half in &halves {
                let mut fragment = Groups::new(&key, &aggs);
                for ids in [&half[..100], &half[100..]] {
                    fragment.update(&cols, &Selection::from_ids(n as usize, ids.to_vec())).unwrap();
                }
                leader.merge(fragment).unwrap();
                whole.extend_from_slice(half);
            }
            let want = reference(&cols, &Selection::from_ids(n as usize, whole), &key, &aggs);
            assert_eq!(rows(leader, &out), want, "{} keys", key.len());
        }
    }

    #[test]
    fn boxed_evaluator_sees_only_survivors() {
        // 10 / k errors on the k = 0 row; filtered out, it must not.
        let cols = vec![column(DataType::Int8, &[Value::Int8(0), Value::Int8(5)])];
        let div = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int8(10))),
            op: BinaryOp::Div,
            right: Box::new(col(0, DataType::Int8)),
        };
        let aggs = vec![agg(AggFunc::Sum, Some(div))];
        let mut g = Groups::new(&[], &aggs);
        g.update(&cols, &Selection::from_ids(2, vec![1])).unwrap();
        assert_eq!(rows(g, &output(&[], &aggs)), ["[Int8(2)]"]);
        let mut g = Groups::new(&[], &aggs);
        assert!(g.update(&cols, &Selection::all(2)).is_err());
    }
}
