//! The one key encoding: every join and GROUP BY key is coded to a dense
//! id on a typed lane, never boxed per row.
//!
//! A key's lane is chosen from its type — for a join, from both types:
//!
//! | key type(s) | lane | key |
//! |---|---|---|
//! | INT2/4/8, DATE, TIMESTAMP, BOOL | `Int` | the value widened to `i64` |
//! | FLOAT8 | `Float` | [`canon_f64`] bits (`-0.0` is `0.0`, one NaN) |
//! | DECIMAL | `Dec` | `i128` units (a join: both sides of one scale) |
//! | VARCHAR | `Str` | UTF-8 bytes, copied once per distinct key; a coded column's entry, hashed once per dictionary |
//! | a join's mixed numeric pair: DECIMAL scales differ, an integer with a DECIMAL, anything with FLOAT8 | `Float` | both sides' `f64` (`get_f64`), as `=` compares them |
//!
//! A [`Dict`] gives each distinct key, NULL included, a dense id in
//! first-seen order. GROUP BY folds those ids into group ids (`agg`);
//! a join indexes its build side by them, or — two integer-family keys —
//! by the `i64` itself (`join`), and looks probe keys up with
//! [`KeyLane::find`], which never inserts.
//!
//! A coded VARCHAR (a join's dimension column, [`StrVec::coded`]) reaches
//! the `Str` lane as codes: a [`Remap`] caches each dictionary entry's id
//! the first time a row holds it, so a string is hashed once per entry,
//! not once per row, and ids stay in first-seen row order.

use crate::kernels::with_ints;
use crate::selection::Selection;
use redsim_common::types::canon_f64;
use redsim_common::{Bitmap, ColumnData, DataType, FxHashMap, Result, RsError, StrVec};
use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::Arc;

/// The id [`KeyLane::find`] gives a NULL or unseen key.
const MISS: u32 = u32::MAX;

/// Integer family and BOOL: the types keyed on the `i64` lane.
pub(crate) fn is_int_key(ty: DataType) -> bool {
    matches!(
        ty,
        DataType::Bool
            | DataType::Int2
            | DataType::Int4
            | DataType::Int8
            | DataType::Date
            | DataType::Timestamp
    )
}

/// Do join keys of types `l` and `r` meet on the `f64` lane — a numeric
/// pair that neither shares a type nor is all integer-family?
pub(crate) fn joins_as_f64(l: DataType, r: DataType) -> bool {
    !(l.storage_compatible(r) || (is_int_key(l) && is_int_key(r)))
}

/// A dictionary: each distinct key (NULL too) gets a dense id, counted
/// from 0 in first-seen order.
#[derive(Default)]
pub(crate) struct Dict<K> {
    ids: FxHashMap<K, u32>,
    null_id: Option<u32>,
    len: u32,
}

impl<K: Hash + Eq> Dict<K> {
    fn fresh(len: &mut u32) -> u32 {
        *len += 1;
        *len - 1
    }

    /// The id of `key`, opening one on first sight; a key is copied once,
    /// then.
    #[inline]
    pub(crate) fn id_of<Q>(&mut self, key: &Q) -> u32
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = Self::fresh(&mut self.len);
        self.ids.insert(key.to_owned(), id);
        id
    }

    /// Code the selected rows of a column whose valid row `i` reads
    /// `key(i)` on this lane.
    #[inline]
    fn ids<Q, B>(&mut self, sel: &Selection, nulls: &Bitmap, out: &mut Vec<u32>, key: impl Fn(usize) -> B)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
        B: Borrow<Q>,
    {
        sel.for_each(|_, i| {
            out.push(match nulls.get(i) {
                true => self.id_of(key(i).borrow()),
                false => *self.null_id.get_or_insert_with(|| Self::fresh(&mut self.len)),
            })
        })
    }

    /// [`Dict::ids`] without inserting: NULL and unseen keys are [`MISS`].
    #[inline]
    fn find<Q, B>(&self, sel: &Selection, nulls: &Bitmap, out: &mut Vec<u32>, key: impl Fn(usize) -> B)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        B: Borrow<Q>,
    {
        sel.for_each(|_, i| {
            let id = nulls.get(i).then(|| self.ids.get(key(i).borrow())).flatten();
            out.push(id.copied().unwrap_or(MISS))
        })
    }
}

impl Dict<Vec<u8>> {
    /// [`Dict::ids`] over a coded column: `remap[code]` is its entry's
    /// id once a row has held it.
    fn ids_coded(
        &mut self,
        remap: &mut [u32],
        (codes, dict): (&[u32], &StrVec),
        sel: &Selection,
        nulls: &Bitmap,
        out: &mut Vec<u32>,
    ) {
        sel.for_each(|_, i| {
            out.push(match nulls.get(i) {
                true => {
                    let c = codes[i] as usize;
                    match remap[c] {
                        MISS => {
                            remap[c] = self.id_of(dict.bytes_at(c));
                            remap[c]
                        }
                        id => id,
                    }
                }
                false => *self.null_id.get_or_insert_with(|| Self::fresh(&mut self.len)),
            })
        })
    }
}

/// The last dictionary a `Str` lane saw coded, and each of its entries'
/// id ([`MISS`]: no row has held it yet).
#[derive(Default)]
pub(crate) struct Remap(Option<(Arc<StrVec>, Vec<u32>)>);

impl Remap {
    /// The remap of `dict`, fresh when it is not the last one seen.
    fn of(&mut self, dict: &Arc<StrVec>) -> &mut [u32] {
        if !self.0.as_ref().is_some_and(|(seen, _)| Arc::ptr_eq(seen, dict)) {
            self.0 = Some((Arc::clone(dict), vec![MISS; dict.len()]));
        }
        &mut self.0.as_mut().expect("set above").1
    }
}

/// One key column's dictionary, on its lane.
pub(crate) enum KeyLane {
    Int(Dict<i64>),
    Float(Dict<u64>),
    Dec(Dict<i128>),
    Str(Dict<Vec<u8>>, Remap),
}

/// Row `i` of a numeric column on the `Float` lane.
#[inline]
fn float_key(c: &ColumnData, i: usize) -> u64 {
    canon_f64(c.get_f64(i).unwrap_or(0.0)).to_bits()
}

/// A key column whose type its lane cannot read.
pub(crate) fn mismatch(c: &ColumnData) -> RsError {
    RsError::Execution(format!("key lane got a {} column", c.data_type()))
}

/// `Dict::$code` over the lane's dictionary and the reader of a valid
/// row of `$col` on it; a column the lane cannot read is an error.
macro_rules! on_lane {
    ($lane:expr, $col:expr, $sel:expr, $out:expr, $code:ident) => {{
        let (col, sel, out): (&ColumnData, &Selection, &mut Vec<u32>) = ($col, $sel, $out);
        let nulls = col.nulls();
        match ($lane, col) {
            (KeyLane::Str(d, _), ColumnData::Str { data, .. }) => {
                d.$code::<[u8], _>(sel, nulls, out, |i| data.bytes_at(i))
            }
            (KeyLane::Dec(d), ColumnData::Decimal { data, .. }) => d.$code::<i128, _>(sel, nulls, out, |i| data[i]),
            (KeyLane::Float(d), c) if c.data_type().is_numeric() => {
                d.$code::<u64, _>(sel, nulls, out, |i| float_key(c, i))
            }
            (KeyLane::Int(d), c) => with_ints!(c,
                x => d.$code::<i64, _>(sel, nulls, out, |i| x[i] as i64),
                _ => return Err(mismatch(c))),
            (_, c) => return Err(mismatch(c)),
        }
        Ok(())
    }};
}

impl KeyLane {
    /// The lane of a GROUP BY key of type `ty`.
    pub(crate) fn for_type(ty: DataType) -> KeyLane {
        match ty {
            DataType::Float8 => KeyLane::Float(Dict::default()),
            DataType::Decimal(..) => KeyLane::Dec(Dict::default()),
            DataType::Varchar => KeyLane::Str(Dict::default(), Remap::default()),
            _ => KeyLane::Int(Dict::default()),
        }
    }

    /// The lane a join of key types `l` and `r` codes both sides on;
    /// `None` for two integer-family keys, which the join indexes as they
    /// are.
    pub(crate) fn for_join(l: DataType, r: DataType) -> Option<KeyLane> {
        if joins_as_f64(l, r) {
            Some(KeyLane::Float(Dict::default()))
        } else {
            (!is_int_key(l)).then(|| KeyLane::for_type(l))
        }
    }

    /// Append the id of each selected row's key to `out`, opening ids for
    /// keys first seen here.
    pub(crate) fn ids_of(&mut self, col: &ColumnData, sel: &Selection, out: &mut Vec<u32>) -> Result<()> {
        if let (KeyLane::Str(d, remap), ColumnData::Str { data, nulls }) = (&mut *self, col) {
            if let Some((codes, dict)) = data.as_coded() {
                d.ids_coded(remap.of(dict), (codes, dict), sel, nulls, out);
                return Ok(());
            }
        }
        on_lane!(self, col, sel, out, ids)
    }

    /// Append the id of each selected row's key to `out`: [`MISS`] for a
    /// NULL key or one never seen.
    pub(crate) fn find(&self, col: &ColumnData, sel: &Selection, out: &mut Vec<u32>) -> Result<()> {
        on_lane!(self, col, sel, out, find)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::Value;

    fn column(ty: DataType, vals: &[Value]) -> ColumnData {
        let mut c = ColumnData::new(ty);
        for v in vals {
            c.push_value(v).unwrap();
        }
        c
    }

    #[test]
    fn ids_are_dense_first_seen_and_find_never_inserts() {
        use Value::*;
        let floats = column(
            DataType::Float8,
            &[Float8(1.5), Float8(-0.0), Null, Float8(0.0), Float8(f64::NAN), Float8(-f64::NAN), Float8(1.5)],
        );
        let mut lane = KeyLane::for_type(DataType::Float8);
        let mut ids = Vec::new();
        lane.ids_of(&floats, &Selection::all(7), &mut ids).unwrap();
        // -0.0 is 0.0 and NaN is NaN, as `=` compares them; NULL has an id.
        assert_eq!(ids, [0, 1, 2, 1, 3, 3, 0]);
        // A probe: an INT column on a mixed pair's f64 lane.
        let ints = column(DataType::Int4, &[Int4(0), Null, Int4(7)]);
        let mut found = Vec::new();
        lane.find(&ints, &Selection::all(3), &mut found).unwrap();
        assert_eq!(found, [1, MISS, MISS]);
        let KeyLane::Float(d) = &lane else { unreachable!() };
        assert_eq!(d.len, 4, "find inserted");
        // A lane refuses a column it cannot read.
        let strs = column(DataType::Varchar, &[Str("a".into())]);
        assert!(lane.ids_of(&strs, &Selection::all(1), &mut ids).is_err());
    }

    /// A coded VARCHAR gets, row for row, the ids its bytes get: over
    /// batches of one dictionary, then of another, with NULLs and a
    /// sparse selection; each entry's id is looked up once.
    #[test]
    fn coded_strings_get_the_ids_their_bytes_get() {
        use Value::*;
        let strs = |v: &[&str]| {
            let vals: Vec<Value> =
                v.iter().map(|s| if *s == "-" { Null } else { Str(s.to_string()) }).collect();
            let arena = column(DataType::Varchar, &vals);
            let ColumnData::Str { data, nulls } = &arena else { unreachable!() };
            let coded = ColumnData::Str { data: data.coded(), nulls: nulls.clone() };
            (arena, coded)
        };
        let first = strs(&["eu", "-", "na", "eu", "", "apac"]);
        let second = strs(&["apac", "latam", "-", "eu", "latam", "na"]);
        let mut plain = KeyLane::for_type(DataType::Varchar);
        let mut coded = KeyLane::for_type(DataType::Varchar);
        for ((arena, code), sel) in [
            (&first, Selection::all(6)),
            (&first, Selection::from_ids(6, vec![1, 3, 5])),
            (&second, Selection::from_ids(6, vec![0, 1, 2, 4])),
            (&second, Selection::all(6)),
            (&first, Selection::all(6)),
        ] {
            let (mut want, mut got) = (Vec::new(), Vec::new());
            plain.ids_of(arena, &sel, &mut want).unwrap();
            coded.ids_of(code, &sel, &mut got).unwrap();
            assert_eq!(got, want);
        }
        let KeyLane::Str(d, Remap(Some((dict, remap)))) = &coded else { unreachable!() };
        assert_eq!(d.len, 6, "eu, NULL, na, \"\", apac, latam");
        // The last dictionary seen was the first batch's again, and a
        // valid row holds each of its entries: all are mapped.
        assert_eq!(remap.len(), dict.len());
        assert!(remap.iter().all(|&id| id != MISS));
    }

    #[test]
    fn join_lanes_come_from_both_types() {
        use DataType::*;
        let lane = |l, r| match KeyLane::for_join(l, r) {
            None => "direct",
            Some(KeyLane::Int(_)) => "int",
            Some(KeyLane::Float(_)) => "f64",
            Some(KeyLane::Dec(_)) => "dec",
            Some(KeyLane::Str(..)) => "str",
        };
        assert_eq!(lane(Int2, Int8), "direct");
        assert_eq!(lane(Date, Date), "direct");
        assert_eq!(lane(Bool, Bool), "direct");
        assert_eq!(lane(Varchar, Varchar), "str");
        assert_eq!(lane(Decimal(10, 2), Decimal(18, 2)), "dec");
        assert_eq!(lane(Decimal(10, 2), Decimal(10, 3)), "f64");
        assert_eq!(lane(Int4, Decimal(10, 3)), "f64");
        assert_eq!(lane(Int8, Float8), "f64");
        assert_eq!(lane(Float8, Float8), "f64");
        assert_eq!(lane(Decimal(10, 2), Float8), "f64");
    }
}
