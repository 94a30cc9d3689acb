//! Aggregation state: typed accumulators for the common shapes, the
//! boxed [`AggState`] / [`HKey`] table for the rest.
//!
//! A slice fragment folds its `(batch, selection)` pairs into a
//! [`Groups`], one column at a time:
//!
//! | GROUP BY | table | per-row work |
//! |---|---|---|
//! | none | [`TypedGroups`], one group | none beyond the accumulators |
//! | one INT2/4/8, DATE or TIMESTAMP key | [`TypedGroups`], `i64 → group id` | one integer hash lookup |
//! | one VARCHAR key | [`TypedGroups`], bytes `→ group id` | one string hash lookup, no allocation |
//! | two keys, each of the above | [`TypedGroups`], a lookup per key, then `(id, id)` packed into an `i64 → group id` | three hash lookups |
//! | anything else (a FLOAT8, DECIMAL or BOOL key, three or more keys) | [`GroupTable`] — counted (`ExecMetrics::key_fallback`) | an `HKey` per key column, a `GroupKey` per row |
//!
//! Inside a `TypedGroups`, COUNT, SUM and AVG over the i64 and f64
//! lanes and MIN/MAX over integer-family and FLOAT8 arguments are
//! struct-of-arrays accumulators ([`Acc`]) updated in typed loops
//! straight off the argument column's payload; DISTINCT, the sketch,
//! DECIMAL sums and MIN/MAX over VARCHAR, DECIMAL or BOOL keep one
//! boxed [`AggState`] per group. Arguments and keys come from the
//! binder ([`crate::expr::bind`]): borrowed, computed by a kernel, or —
//! counted — evaluated by the row interpreter over the selected rows.
//!
//! Either table ends as a [`GroupTable`], filled in first-seen order —
//! the order the boxed path has always inserted in — so the leader's
//! merge, and with it the order of an unsorted GROUP BY result, does not
//! depend on which path a fragment took. Row order inside a slice is
//! preserved throughout, so `f64` sums add up in the same order.

use crate::expr::bind;
use crate::hashkey::HKey;
use crate::kernels::with_ints;
use crate::selection::Selection;
use redsim_common::types::cmp_f64;
use redsim_common::{Bitmap, ColumnData, DataType, FxHashMap, FxHashSet, Result, RsError, Value};
use redsim_sql::plan::{AggExpr, AggFunc, BoundExpr, OutCol};
use redsim_storage::stats::KmvSketch;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;

/// Composite group key without a heap allocation for the common 0/1/2
/// column cases.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    Empty,
    One(HKey),
    Two(HKey, HKey),
    Many(Vec<HKey>),
}

impl GroupKey {
    fn values(&self) -> Vec<&HKey> {
        match self {
            GroupKey::Empty => Vec::new(),
            GroupKey::One(a) => vec![a],
            GroupKey::Two(a, b) => vec![a, b],
            GroupKey::Many(v) => v.iter().collect(),
        }
    }
}

/// group key -> agg states: what a fragment hands the leader, and the
/// boxed path's working table.
#[derive(Default)]
pub(crate) struct GroupTable(FxHashMap<GroupKey, Vec<AggState>>);

impl GroupTable {
    /// Fold another fragment's partial states into this one.
    pub(crate) fn merge(&mut self, other: GroupTable) {
        for (k, states) in other.0 {
            match self.0.entry(k) {
                Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(states) {
                        a.merge(b);
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(states);
                }
            }
        }
    }

    /// Finish every group into one output batch (`output` = group keys,
    /// then aggregates).
    pub(crate) fn into_batch(
        mut self,
        group_by: &[BoundExpr],
        aggs: &[AggExpr],
        output: &[OutCol],
    ) -> Result<Vec<ColumnData>> {
        // Global aggregate over zero rows still yields one group.
        if group_by.is_empty() && self.0.is_empty() {
            self.0
                .insert(GroupKey::Empty, aggs.iter().map(AggState::init).collect());
        }
        let mut cols: Vec<ColumnData> = output.iter().map(|c| ColumnData::new(c.ty)).collect();
        for (key, states) in self.0 {
            for (i, hk) in key.values().into_iter().enumerate() {
                cols[i].push_value(&hkey_to_value(hk, output[i].ty))?;
            }
            for (j, st) in states.into_iter().enumerate() {
                let slot = group_by.len() + j;
                cols[slot].push_value(&st.finish().coerce_to(output[slot].ty)?)?;
            }
        }
        Ok(cols)
    }
}

/// One fragment's partial aggregation.
pub(crate) struct Groups<'a> {
    group_by: &'a [BoundExpr],
    aggs: &'a [AggExpr],
    table: Table,
}

enum Table {
    Typed(TypedGroups),
    Hashed(GroupTable),
}

pub(crate) fn is_int_key(ty: DataType) -> bool {
    // BOOL hashes as `HKey::Bool`, not `HKey::Int`: it stays boxed.
    matches!(
        ty,
        DataType::Int2 | DataType::Int4 | DataType::Int8 | DataType::Date | DataType::Timestamp
    )
}

impl<'a> Groups<'a> {
    pub(crate) fn new(group_by: &'a [BoundExpr], aggs: &'a [AggExpr]) -> Self {
        let lanes: Option<Vec<KeyLane>> = (group_by.len() <= 2)
            .then(|| group_by.iter().map(|k| KeyLane::for_type(k.ty())).collect())
            .flatten();
        let table = match lanes {
            Some(lanes) => Table::Typed(TypedGroups::new(aggs, lanes)),
            None => Table::Hashed(GroupTable::default()),
        };
        Groups {
            group_by,
            aggs,
            table,
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
        let args: Vec<Option<&ColumnData>> = args.iter().map(|a| a.as_deref()).collect();
        match &mut self.table {
            Table::Typed(t) => t.update(&keys, &args, self.aggs, sel)?,
            Table::Hashed(t) => update_hashed(t, &keys, &args, self.aggs, sel)?,
        }
        Ok(fallbacks)
    }

    /// True when group keys go through [`HKey`]: the counted lane.
    pub(crate) fn boxes_keys(&self) -> bool {
        matches!(self.table, Table::Hashed(_))
    }

    pub(crate) fn into_table(self) -> GroupTable {
        match self.table {
            Table::Typed(t) => t.into_table(),
            Table::Hashed(t) => t,
        }
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
    /// MIN/MAX over the i64 lane; `ty` rebuilds the `Value`.
    MinMaxInt {
        best: Vec<i64>,
        n: Vec<i64>,
        is_min: bool,
        ty: DataType,
    },
    MinMaxFloat {
        best: Vec<f64>,
        n: Vec<i64>,
        is_min: bool,
    },
    /// Shapes without a typed lane keep the boxed state.
    Boxed(Vec<AggState>),
}

fn int_lane(ty: Option<DataType>) -> bool {
    ty.is_some_and(|t| is_int_key(t) || t == DataType::Bool)
}

impl Acc {
    /// The accumulator for `a`, typed where [`AggState::init`]'s choice
    /// has a lane.
    fn new(a: &AggExpr) -> Acc {
        let ty = a.arg.as_ref().map(|e| e.ty());
        let float = ty == Some(DataType::Float8);
        match a.func {
            AggFunc::CountStar => Acc::Count {
                n: Vec::new(),
                star: true,
            },
            AggFunc::Count if !a.distinct => Acc::Count {
                n: Vec::new(),
                star: false,
            },
            AggFunc::Sum if int_lane(ty) => Acc::SumInt {
                sum: Vec::new(),
                n: Vec::new(),
            },
            AggFunc::Sum if float => Acc::SumFloat {
                sum: Vec::new(),
                n: Vec::new(),
                avg: false,
            },
            AggFunc::Avg if float || int_lane(ty) => Acc::SumFloat {
                sum: Vec::new(),
                n: Vec::new(),
                avg: true,
            },
            AggFunc::Min | AggFunc::Max if float => Acc::MinMaxFloat {
                best: Vec::new(),
                n: Vec::new(),
                is_min: a.func == AggFunc::Min,
            },
            AggFunc::Min | AggFunc::Max if ty.is_some_and(is_int_key) => Acc::MinMaxInt {
                best: Vec::new(),
                n: Vec::new(),
                is_min: a.func == AggFunc::Min,
                ty: ty.expect("checked"),
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
                // Row order is the selection's order: the same order the
                // boxed path adds in, so the sum is bit-identical.
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
            (
                Acc::MinMaxInt {
                    best, n, is_min, ..
                },
                Some(c),
            ) => {
                let want = if *is_min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                with_ints!(c,
                    d => for_valid(sel, c.nulls(), |j, i| {
                        let (g, x) = (gid(j), d[i] as i64);
                        if n[g] == 0 || x.cmp(&best[g]) == want {
                            best[g] = x;
                        }
                        n[g] += 1;
                    }),
                    _ => return Err(mismatch(c)))
            }
            (Acc::MinMaxFloat { best, n, is_min }, Some(c)) => {
                let want = if *is_min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                let ColumnData::Float8 { data, nulls } = c else {
                    return Err(mismatch(c));
                };
                // Strictly better only, by `cmp_f64`: of -0.0 and 0.0 (or
                // two NaNs) the first seen stays, as in `AggState`.
                for_valid(sel, nulls, |j, i| {
                    let (g, x) = (gid(j), data[i]);
                    if n[g] == 0 || cmp_f64(x, best[g]) == want {
                        best[g] = x;
                    }
                    n[g] += 1;
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

    /// Every group's state in the boxed form the leader merges.
    fn into_states(self) -> Vec<AggState> {
        let seen = |n: i64| n > 0;
        match self {
            Acc::Count { n, .. } => n.into_iter().map(AggState::Count).collect(),
            Acc::SumInt { sum, n } => sum
                .into_iter()
                .zip(n)
                .map(|(sum, n)| AggState::SumInt { sum, seen: seen(n) })
                .collect(),
            Acc::SumFloat { sum, n, avg } => sum
                .into_iter()
                .zip(n)
                .map(|(sum, n)| match avg {
                    true => AggState::Avg { sum, n },
                    false => AggState::SumFloat { sum, seen: seen(n) },
                })
                .collect(),
            Acc::MinMaxInt {
                best,
                n,
                is_min,
                ty,
            } => best
                .into_iter()
                .zip(n)
                .map(|(b, n)| AggState::MinMax {
                    best: seen(n).then(|| hkey_to_value(&HKey::Int(b), ty)),
                    is_min,
                })
                .collect(),
            Acc::MinMaxFloat { best, n, is_min } => best
                .into_iter()
                .zip(n)
                .map(|(b, n)| AggState::MinMax {
                    best: seen(n).then_some(Value::Float8(b)),
                    is_min,
                })
                .collect(),
            Acc::Boxed(states) => states,
        }
    }
}

/// A dictionary: each distinct key (NULL too) gets a dense id, counted
/// from 0 in first-seen order.
#[derive(Default)]
struct Dict<K> {
    ids: FxHashMap<K, u32>,
    null_id: Option<u32>,
    len: u32,
}

impl<K: std::hash::Hash + Eq> Dict<K> {
    fn fresh(len: &mut u32) -> u32 {
        *len += 1;
        *len - 1
    }

    #[inline]
    fn null(&mut self) -> u32 {
        *self.null_id.get_or_insert_with(|| Self::fresh(&mut self.len))
    }

    /// The key of each id (`None` = NULL).
    fn into_keys(self) -> Vec<Option<K>> {
        let mut keys: Vec<Option<K>> = (0..self.len).map(|_| None).collect();
        for (k, id) in self.ids {
            keys[id as usize] = Some(k);
        }
        keys
    }
}

impl Dict<i64> {
    #[inline]
    fn id_of(&mut self, key: i64) -> u32 {
        *self.ids.entry(key).or_insert_with(|| Self::fresh(&mut self.len))
    }
}

impl Dict<Box<[u8]>> {
    /// One hash of the bytes; a key is copied once, when first seen.
    #[inline]
    fn id_of(&mut self, key: &[u8]) -> u32 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = Self::fresh(&mut self.len);
        self.ids.insert(key.into(), id);
        id
    }
}

/// One group key column's dictionary, on the lane its type has.
enum KeyLane {
    /// The integer family, widened to i64.
    Int(Dict<i64>),
    /// VARCHAR, by its UTF-8 bytes.
    Str(Dict<Box<[u8]>>),
}

impl KeyLane {
    fn for_type(ty: DataType) -> Option<KeyLane> {
        match ty {
            DataType::Varchar => Some(KeyLane::Str(Dict::default())),
            ty if is_int_key(ty) => Some(KeyLane::Int(Dict::default())),
            _ => None,
        }
    }

    /// Append the id of each selected row's key to `out`; how many ids
    /// the dictionary now holds.
    fn ids_of(&mut self, col: &ColumnData, sel: &Selection, out: &mut Vec<u32>) -> Result<u32> {
        let nulls = col.nulls();
        let mismatch = || {
            RsError::Execution(format!("typed group key got a {} column", col.data_type()))
        };
        match (self, col) {
            (KeyLane::Str(dict), ColumnData::Str { data, .. }) => {
                sel.for_each(|_, i| {
                    out.push(if nulls.get(i) { dict.id_of(data.bytes_at(i)) } else { dict.null() })
                });
                Ok(dict.len)
            }
            // BOOL has an integer payload but hashes as `HKey::Bool`.
            (KeyLane::Int(_), ColumnData::Bool { .. }) | (KeyLane::Str(_), _) => Err(mismatch()),
            (KeyLane::Int(dict), other) => {
                with_ints!(other,
                    d => sel.for_each(|_, i| {
                        out.push(if nulls.get(i) { dict.id_of(d[i] as i64) } else { dict.null() })
                    }),
                    _ => return Err(mismatch()));
                Ok(dict.len)
            }
        }
    }

    /// The `HKey` of each id.
    fn into_hkeys(self) -> Vec<HKey> {
        let text = |bytes: Box<[u8]>| {
            HKey::Str(std::str::from_utf8(&bytes).expect("StrVec holds valid UTF-8").into())
        };
        match self {
            KeyLane::Int(d) => d.into_keys().into_iter().map(|k| k.map_or(HKey::Null, HKey::Int)).collect(),
            KeyLane::Str(d) => d.into_keys().into_iter().map(|k| k.map_or(HKey::Null, text)).collect(),
        }
    }
}

/// Groups of the shapes with typed key lanes — no key, or one or two
/// keys that are each integer-family or VARCHAR: group ids in
/// first-seen order, one [`Acc`] column per aggregate.
struct TypedGroups {
    /// One dictionary per key. A single key's id is the group id.
    lanes: Vec<KeyLane>,
    /// Two keys: their ids packed `(first << 32) | second` → group id.
    pairs: Dict<i64>,
    groups: usize,
    accs: Vec<Acc>,
}

impl TypedGroups {
    fn new(aggs: &[AggExpr], lanes: Vec<KeyLane>) -> Self {
        TypedGroups { lanes, pairs: Dict::default(), groups: 0, accs: aggs.iter().map(Acc::new).collect() }
    }

    fn update(
        &mut self,
        keys: &[&ColumnData],
        args: &[Option<&ColumnData>],
        aggs: &[AggExpr],
        sel: &Selection,
    ) -> Result<()> {
        // Group id of each selected row, opening groups on first sight.
        let mut gids: Vec<u32> = Vec::with_capacity(sel.len() * self.lanes.len().min(1));
        let groups = match self.lanes.as_mut_slice() {
            [] => 1,
            [lane] => lane.ids_of(keys[0], sel, &mut gids)?,
            [first, second] => {
                first.ids_of(keys[0], sel, &mut gids)?;
                let mut seconds = Vec::with_capacity(sel.len());
                second.ids_of(keys[1], sel, &mut seconds)?;
                for (g, s) in gids.iter_mut().zip(seconds) {
                    *g = self.pairs.id_of(((*g as i64) << 32) | s as i64);
                }
                self.pairs.len
            }
            _ => unreachable!("at most two typed key lanes"),
        } as usize;
        for _ in self.groups..groups {
            for (acc, spec) in self.accs.iter_mut().zip(aggs) {
                acc.push_group(spec);
            }
        }
        self.groups = groups;
        for ((acc, spec), arg) in self.accs.iter_mut().zip(aggs).zip(args) {
            if self.lanes.is_empty() {
                acc.update(spec, *arg, sel, |_| 0)?;
            } else {
                acc.update(spec, *arg, sel, |j| gids[j] as usize)?;
            }
        }
        Ok(())
    }

    /// Into the boxed table, inserting groups in first-seen order.
    fn into_table(self) -> GroupTable {
        let mut hkeys: Vec<Vec<HKey>> = self.lanes.into_iter().map(KeyLane::into_hkeys).collect();
        let keys: Vec<GroupKey> = match hkeys.len() {
            0 => vec![GroupKey::Empty; self.groups],
            1 => hkeys.remove(0).into_iter().map(GroupKey::One).collect(),
            _ => (self.pairs.into_keys().into_iter())
                .map(|pair| {
                    let pair = pair.expect("a packed pair is never NULL");
                    let (a, b) = ((pair >> 32) as usize, pair as u32 as usize);
                    GroupKey::Two(hkeys[0][a].clone(), hkeys[1][b].clone())
                })
                .collect(),
        };
        let mut per_agg: Vec<_> = self
            .accs
            .into_iter()
            .map(|a| a.into_states().into_iter())
            .collect();
        let mut table = GroupTable::default();
        for key in keys {
            let states = per_agg
                .iter_mut()
                .map(|s| s.next().expect("one state per group"))
                .collect();
            table.0.insert(key, states);
        }
        table
    }
}

/// The boxed path: an `HKey` per key column, a `GroupKey` per row.
fn update_hashed(
    table: &mut GroupTable,
    keys: &[&ColumnData],
    args: &[Option<&ColumnData>],
    aggs: &[AggExpr],
    sel: &Selection,
) -> Result<()> {
    let key_hkeys: Vec<Vec<HKey>> = (keys.iter())
        .map(|c| sel.iter().map(|i| HKey::from_column(c, i)).collect())
        .collect();
    for (j, i) in sel.iter().enumerate() {
        let key = match key_hkeys.len() {
            0 => GroupKey::Empty,
            1 => GroupKey::One(key_hkeys[0][j].clone()),
            2 => GroupKey::Two(key_hkeys[0][j].clone(), key_hkeys[1][j].clone()),
            _ => GroupKey::Many(key_hkeys.iter().map(|col| col[j].clone()).collect()),
        };
        let states = table
            .0
            .entry(key)
            .or_insert_with(|| aggs.iter().map(AggState::init).collect());
        for ((st, a), arg_col) in states.iter_mut().zip(aggs).zip(args) {
            st.update_from_column(a, *arg_col, i)?;
        }
    }
    Ok(())
}

fn hkey_to_value(k: &HKey, ty: DataType) -> Value {
    match k {
        HKey::Null => Value::Null,
        HKey::Bool(b) => Value::Bool(*b),
        HKey::Int(i) => match ty {
            DataType::Date => Value::Date(*i as i32),
            DataType::Timestamp => Value::Timestamp(*i),
            DataType::Int2 => Value::Int2(*i as i16),
            DataType::Int4 => Value::Int4(*i as i32),
            _ => Value::Int8(*i),
        },
        HKey::Float(bits) => Value::Float8(f64::from_bits(*bits)),
        HKey::Str(s) => Value::Str(s.to_string()),
        HKey::Decimal(u, s) => Value::Decimal {
            units: *u,
            scale: *s,
        },
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

    /// One row into a boxed state — the hashed table's path, and the
    /// typed table's for the shapes without an accumulator lane. Reads
    /// the argument straight from the column, so the numeric aggregates
    /// still avoid a `Value` per row.
    pub(crate) fn update_from_column(
        &mut self,
        spec: &AggExpr,
        col: Option<&ColumnData>,
        i: usize,
    ) -> Result<()> {
        match (&mut *self, col) {
            (AggState::Count(n), col) => {
                if spec.func == AggFunc::CountStar || col.is_some_and(|c| !c.is_null(i)) {
                    *n += 1;
                }
                Ok(())
            }
            (AggState::SumInt { sum, seen }, Some(c)) => {
                if let Some(x) = c.get_i64(i) {
                    *sum += x as i128;
                    *seen = true;
                }
                Ok(())
            }
            (AggState::SumFloat { sum, seen }, Some(c)) => {
                if let Some(x) = c.get_f64(i) {
                    *sum += x;
                    *seen = true;
                }
                Ok(())
            }
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
            // Decimal sums and sketches keep the general path.
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

    /// The typed table and the boxed per-row path, fed the same
    /// selected rows, finish to the same values per key.
    fn finish(g: Groups) -> Vec<(Vec<HKey>, Vec<Value>)> {
        let mut out: Vec<_> = g
            .into_table()
            .0
            .into_iter()
            .map(|(k, states)| {
                let key = k.values().into_iter().cloned().collect::<Vec<_>>();
                (
                    key,
                    states.into_iter().map(AggState::finish).collect::<Vec<_>>(),
                )
            })
            .collect();
        out.sort_by_key(|(k, _)| format!("{k:?}"));
        out
    }

    #[test]
    fn typed_shapes_match_the_boxed_table() {
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
        let key = [col(0, DataType::Int8)];
        for sel in [
            Selection::all(6),
            Selection::from_ids(6, vec![0, 2, 3, 5]),
            Selection::none(6),
        ] {
            for group_by in [&key[..], &[]] {
                let mut typed = Groups::new(group_by, &aggs);
                assert!(matches!(typed.table, Table::Typed(_)));
                typed.update(&cols, &sel).unwrap();
                // Reference: the boxed table over a dense copy.
                let mut boxed = Groups {
                    group_by,
                    aggs: &aggs,
                    table: Table::Hashed(GroupTable::default()),
                };
                let dense = sel.gather(&cols);
                boxed.update(&dense, &Selection::all(sel.len())).unwrap();
                let (t, b) = (finish(typed), finish(boxed));
                assert_eq!(
                    format!("{t:?}"),
                    format!("{b:?}"),
                    "sel {sel:?} keys {}",
                    group_by.len()
                );
            }
        }
    }

    #[test]
    fn unsorted_group_order_is_the_boxed_paths() {
        // Same first-seen insertion order ⇒ same hash-table layout ⇒
        // same iteration order at the leader — for every typed key
        // shape, NULL keys included.
        let ints: Vec<Value> = (0..500)
            .map(|i| if i % 41 == 7 { Value::Null } else { Value::Int8((i * 7919) % 97) })
            .collect();
        let strs: Vec<Value> = (0..500)
            .map(|i| if i % 53 == 9 { Value::Null } else { Value::Str(format!("k{}", (i * 31) % 19)) })
            .collect();
        let cols = vec![column(DataType::Int8, &ints), column(DataType::Varchar, &strs)];
        let aggs = vec![agg(AggFunc::CountStar, None)];
        let (k0, k1) = (col(0, DataType::Int8), col(1, DataType::Varchar));
        for key in [vec![k0.clone()], vec![k1.clone()], vec![k1.clone(), k1.clone()], vec![k0, k1]] {
            let mut typed = Groups::new(&key, &aggs);
            assert!(!typed.boxes_keys());
            let mut boxed = Groups {
                group_by: &key,
                aggs: &aggs,
                table: Table::Hashed(GroupTable::default()),
            };
            // Two batches: ids and groups carry over from one to the next.
            for sel in [Selection::from_ids(500, (0..250).collect()), Selection::all(500)] {
                typed.update(&cols, &sel).unwrap();
                boxed.update(&cols, &sel).unwrap();
            }
            let order = |g: Groups| g.into_table().0.into_keys().collect::<Vec<_>>();
            assert_eq!(order(typed), order(boxed), "{} keys", key.len());
        }
        // What the code lanes decline is boxed, and says so.
        let float = [col(0, DataType::Float8)];
        assert!(Groups::new(&float, &aggs).boxes_keys());
        let three = [col(0, DataType::Int8), col(0, DataType::Int8), col(0, DataType::Int8)];
        assert!(Groups::new(&three, &aggs).boxes_keys());
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
        assert_eq!(finish(g)[0].1, vec![Value::Int8(2)]);
        let mut g = Groups::new(&[], &aggs);
        assert!(g.update(&cols, &Selection::all(2)).is_err());
    }
}
