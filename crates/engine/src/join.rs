//! The per-slice hash join: build on the inner side, probe with the
//! outer side's `(batch, selection)` pairs, emit index pairs.
//!
//! Keys are coded once, on the lane both key types choose
//! ([`KeyLane::for_join`]): two integer-family keys index an [`IntTable`]
//! — flat open addressing over the `i64` lane, one multiply-shift hash
//! and a linear probe per row — as they are; any other pair (VARCHAR,
//! FLOAT8, DECIMAL, a mixed numeric pair on `f64`) indexes it by the
//! build side's dictionary id, and a probe key is looked up without
//! inserting: a miss matches nothing. So keys match exactly when `=`
//! holds, and no key is boxed.
//!
//! The table maps a key to the first build row holding it; `next[]`
//! chains that key's other rows in build order, so duplicates cost no
//! allocation and matches come out as (probe row, build row) ascending —
//! the order an unsorted result, and an `f64` sum above the join,
//! observe. The rest is written once over the `(l_idx, r_idx)` pairs: the
//! residual sees only the columns it reads, a LEFT join's rows without a
//! surviving match are NULL-extended after their batch's matches, and
//! only the plan's `emit` columns are gathered — keys and filter-only
//! columns are never copied. An inner VARCHAR is coded once, at build
//! time ([`StrVec::coded`](redsim_common::StrVec::coded)), so emitting
//! it gathers `u32` codes and shares one dictionary. A [`Build`] is immutable: when the inner
//! side is the same on every slice (`DS_DIST_ALL_NONE`,
//! `DS_BCAST_INNER`) one is made and all probe it.

use crate::exec::Chunk;
use crate::expr::narrow_predicate;
use crate::kernels::with_ints;
use crate::keys::{mismatch, KeyLane};
use crate::selection::Selection;
use redsim_common::{Bitmap, ColumnData, DataType, Result};
use redsim_sql::ast::JoinType;
use redsim_sql::plan::{BoundExpr, OutCol};

/// What one join node does, the same for every slice and batch.
pub(crate) struct JoinShape<'a> {
    left_join: bool,
    pub(crate) left_key: usize,
    pub(crate) right_key: usize,
    /// Width of the outer side; `emit` and the residual count the inner
    /// side's columns from here.
    lw: usize,
    right_types: Vec<DataType>,
    emit: &'a [usize],
    /// The residual rebound over just the columns it reads, and those
    /// columns (positions in left ++ right).
    residual: Option<(BoundExpr, Vec<usize>)>,
    /// The outer and inner key types, which choose the key lane.
    key_types: (DataType, DataType),
}

impl<'a> JoinShape<'a> {
    pub(crate) fn new(
        left: &[OutCol],
        right: &[OutCol],
        join_type: JoinType,
        (left_key, right_key): (usize, usize),
        residual: Option<&BoundExpr>,
        emit: &'a [usize],
    ) -> Result<Self> {
        let residual = match residual {
            None => None,
            Some(r) => {
                let mut cols = Vec::new();
                r.for_each_column(&mut |c| cols.push(c));
                cols.sort_unstable();
                cols.dedup();
                Some((r.remap_columns(&|c| cols.binary_search(&c).ok())?, cols))
            }
        };
        Ok(JoinShape {
            left_join: join_type == JoinType::Left,
            left_key,
            right_key,
            lw: left.len(),
            right_types: right.iter().map(|c| c.ty).collect(),
            emit,
            residual,
            key_types: (left[left_key].ty, right[right_key].ty),
        })
    }

    /// Does anything after the lookup read inner column `c`?
    fn reads_right(&self, c: usize) -> bool {
        let at = self.lw + c;
        self.emit.contains(&at) || self.residual.as_ref().is_some_and(|(_, cols)| cols.contains(&at))
    }
}

/// Map from an i64 key to the head of its chain (a build row + 1; 0
/// means none). Sized once for the build side.
enum IntTable {
    /// Keys packed closely enough that one slot per value in
    /// `min..=max` takes at most twice the room hashing them would (the
    /// surrogate keys of a dimension table): `heads[key - min]`, no
    /// hash and no collision to branch on.
    Direct { min: i64, heads: Vec<u32> },
    /// Flat open addressing, `(key, head)` per slot, at a load factor of
    /// at most one half, so a probe always ends at an empty slot.
    Hashed { slots: Vec<(i64, u32)>, shift: u32 },
}

impl IntTable {
    /// An empty table for `rows` keys within `range` (`None`: no keys).
    fn new(rows: usize, range: Option<(i64, i64)>) -> Self {
        let cap = (rows * 2).next_power_of_two().max(8);
        match range {
            // A u32 per value against 16 bytes per slot.
            Some((min, max)) if max.abs_diff(min) < 8 * cap as u64 => {
                IntTable::Direct { min, heads: vec![0; max.abs_diff(min) as usize + 1] }
            }
            _ => IntTable::Hashed { slots: vec![(0, 0); cap], shift: 64 - cap.trailing_zeros() },
        }
    }

    #[inline]
    fn slot_of(key: i64, shift: u32) -> usize {
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// Make `head` the head of `key`'s chain; the head it replaces.
    /// `key` must lie in the range the table was made for.
    fn replace_head(&mut self, key: i64, head: u32) -> u32 {
        match self {
            IntTable::Direct { min, heads } => {
                std::mem::replace(&mut heads[key.abs_diff(*min) as usize], head)
            }
            IntTable::Hashed { slots, shift } => {
                let mask = slots.len() - 1;
                let mut s = Self::slot_of(key, *shift);
                loop {
                    let (k, old) = slots[s];
                    if old == 0 || k == key {
                        slots[s] = (key, head);
                        return old;
                    }
                    s = (s + 1) & mask;
                }
            }
        }
    }

    #[inline]
    fn head(&self, key: i64) -> u32 {
        match self {
            IntTable::Direct { min, heads } => Self::direct_head(heads, *min, key),
            IntTable::Hashed { slots, shift } => Self::hashed_head(slots, *shift, key),
        }
    }

    #[inline(always)]
    fn direct_head(heads: &[u32], min: i64, key: i64) -> u32 {
        // Below `min` wraps past any length.
        heads.get(key.wrapping_sub(min) as u64 as usize).copied().unwrap_or(0)
    }

    #[inline(always)]
    fn hashed_head(slots: &[(i64, u32)], shift: u32, key: i64) -> u32 {
        let mask = slots.len() - 1;
        let mut s = Self::slot_of(key, shift);
        loop {
            let (k, head) = slots[s];
            if (head == 0) | (k == key) {
                return head;
            }
            s = (s + 1) & mask;
        }
    }
}

/// The inner side of one join, hashed: the selected rows of its chunks,
/// numbered in order.
pub(crate) struct Build {
    /// `None`: integer-family keys index `table` as they are. Otherwise
    /// the lane whose build-side ids do.
    lane: Option<KeyLane>,
    table: IntTable,
    /// Chains, in the table's own terms (a build row + 1; 0 ends one):
    /// `next[head]` follows `head`.
    next: Vec<u32>,
    /// Does any build key repeat (any chain longer than its head)?
    duplicates: bool,
    /// The inner columns read after the lookup, dense, by inner position.
    cols: Vec<Option<ColumnData>>,
}

impl Build {
    pub(crate) fn new(shape: &JoinShape, chunks: &[Chunk]) -> Result<Build> {
        let rows: usize = chunks.iter().map(|c| c.sel.len()).sum();
        let mut lane = KeyLane::for_join(shape.key_types.0, shape.key_types.1);
        let (mut keys, mut ids): (Vec<Option<i64>>, Vec<u32>) = (Vec::with_capacity(rows), Vec::new());
        for c in chunks {
            let key = &c.cols[shape.right_key];
            let nulls = key.nulls();
            match &mut lane {
                None => with_ints!(key,
                    d => c.sel.for_each(|_, i| keys.push(nulls.get(i).then(|| d[i] as i64))),
                    _ => return Err(mismatch(key))),
                Some(lane) => {
                    ids.clear();
                    lane.ids_of(key, &c.sel, &mut ids)?;
                    keys.extend(c.sel.iter().zip(&ids).map(|(i, &id)| nulls.get(i).then_some(id as i64)));
                }
            }
        }
        // Rows go in back to front, each becoming its key's head, so a
        // chain reads in build order. NULL keys join nothing.
        let present = || keys.iter().flatten().copied();
        let mut table = IntTable::new(rows, present().min().zip(present().max()));
        let mut next = vec![0u32; rows + 1];
        for (row, key) in keys.into_iter().enumerate().rev() {
            if let Some(k) = key {
                next[row + 1] = table.replace_head(k, row as u32 + 1);
            }
        }
        let cols = (shape.right_types.iter().enumerate())
            .map(|(c, &ty)| shape.reads_right(c).then(|| coded(concat_selected(chunks, c, ty))))
            .collect();
        Ok(Build { lane, table, duplicates: next.iter().any(|&x| x != 0), next, cols })
    }

    fn col(&self, c: usize) -> &ColumnData {
        self.cols[c].as_ref().expect("an inner column the join reads")
    }

    /// Every (probe row, build row) with equal keys, ascending; with
    /// `keep_unmatched`, also the probe rows that found none.
    fn probe(&self, key: &ColumnData, sel: &Selection, keep_unmatched: bool) -> Result<Pairs> {
        let (l, r, unmatched) = match &self.lane {
            None => {
                let nulls = Some(key.nulls()).filter(|n| !n.all_set());
                with_ints!(key,
                    d => int_first_matches(&self.table, |i| d[i] as i64, nulls, sel, keep_unmatched),
                    _ => return Err(mismatch(key)))
            }
            // `MISS` lies past every id the table holds: no head.
            Some(lane) => {
                let mut ids = Vec::with_capacity(sel.len());
                lane.find(key, sel, &mut ids)?;
                first_matches(sel, keep_unmatched, |j, _| self.table.head(ids[j] as i64))
            }
        };
        if !self.duplicates {
            return Ok(Pairs { l, r, unmatched });
        }
        // Some build key repeats: follow each first match down its chain.
        let (mut all_l, mut all_r) = (Vec::with_capacity(l.len()), Vec::with_capacity(l.len()));
        for (&i, &first) in l.iter().zip(&r) {
            let mut head = first + 1;
            while head != 0 {
                all_l.push(i);
                all_r.push(head - 1);
                head = self.next[head as usize];
            }
        }
        Ok(Pairs { l: all_l, r: all_r, unmatched })
    }
}

/// [`first_matches`] for an integer key read by `key_at` (row -> key),
/// with the table's kind and whether any key is NULL settled once, so
/// each gets its own loop. A NULL key's slot holds a plain default value:
/// it is looked up, and its head masked to a miss.
#[inline]
fn int_first_matches(
    table: &IntTable,
    key_at: impl Fn(usize) -> i64,
    nulls: Option<&Bitmap>,
    sel: &Selection,
    keep_unmatched: bool,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    #[inline(always)]
    fn valid_only(
        head: impl Fn(usize) -> u32,
        nulls: Option<&Bitmap>,
        sel: &Selection,
        keep_unmatched: bool,
    ) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        match nulls {
            None => first_matches(sel, keep_unmatched, |_, i| head(i)),
            Some(n) => first_matches(sel, keep_unmatched, |_, i| head(i) & 0u32.wrapping_sub(n.get(i) as u32)),
        }
    }
    match table {
        IntTable::Direct { min, heads } => {
            valid_only(|i| IntTable::direct_head(heads, *min, key_at(i)), nulls, sel, keep_unmatched)
        }
        IntTable::Hashed { slots, shift } => {
            valid_only(|i| IntTable::hashed_head(slots, *shift, key_at(i)), nulls, sel, keep_unmatched)
        }
    }
}

/// One pass over `sel`: `head(position, row)` is the row's chain head (0:
/// no match). Each row's first match goes to `(l, r)` and, with
/// `keep_unmatched`, each miss to `unmatched` — every candidate is
/// written, and only the cursor it belongs to advances.
#[inline(always)]
fn first_matches(
    sel: &Selection,
    keep_unmatched: bool,
    head: impl Fn(usize, usize) -> u32,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let (mut l, mut r) = (vec![0u32; sel.len() + 1], vec![0u32; sel.len() + 1]);
    let mut n = 0;
    let mut unmatched = Vec::new();
    if keep_unmatched {
        unmatched = vec![0u32; sel.len() + 1];
        let mut m = 0;
        sel.for_each(|j, i| {
            let h = head(j, i);
            (l[n], r[n], unmatched[m]) = (i as u32, h.wrapping_sub(1), i as u32);
            n += (h != 0) as usize;
            m += (h == 0) as usize;
        });
        unmatched.truncate(m);
    } else {
        sel.for_each(|j, i| {
            let h = head(j, i);
            (l[n], r[n]) = (i as u32, h.wrapping_sub(1));
            n += (h != 0) as usize;
        });
    }
    l.truncate(n);
    r.truncate(n);
    (l, r, unmatched)
}

/// Column `c` of the selected rows of `chunks`, as one dense column.
fn concat_selected(chunks: &[Chunk], c: usize, ty: DataType) -> ColumnData {
    let mut parts = chunks.iter().filter(|ch| !ch.sel.is_empty());
    let Some(first) = parts.next() else {
        return ColumnData::new(ty);
    };
    let mut out = match first.sel.ids() {
        None => first.cols[c].clone(),
        Some(ids) => first.cols[c].gather(ids),
    };
    for ch in parts {
        ch.sel.for_each(|_, i| out.push_from(&ch.cols[c], i));
    }
    out
}

/// A VARCHAR as codes into one dictionary of its distinct strings, made
/// once per build: the join then gathers a `u32` per output row, and
/// GROUP BY remaps codes instead of hashing strings. Other types as they
/// are.
fn coded(col: ColumnData) -> ColumnData {
    match col {
        ColumnData::Str { data, nulls } => ColumnData::Str { data: data.coded(), nulls },
        other => other,
    }
}

/// Batch row `l[p]` joins build row `r[p]`; `unmatched`: LEFT-join rows to pad.
struct Pairs {
    l: Vec<u32>,
    r: Vec<u32>,
    unmatched: Vec<u32>,
}

/// Join one outer batch against `build`: the emitted rows (`None` when
/// there are none), and whether the residual ran on the row interpreter.
pub(crate) fn join_chunk(
    shape: &JoinShape,
    build: &Build,
    chunk: &Chunk,
) -> Result<(Option<Chunk>, bool)> {
    let Pairs { mut l, mut r, mut unmatched } =
        build.probe(&chunk.cols[shape.left_key], &chunk.sel, shape.left_join)?;
    let mut fell_back = false;
    if let Some((residual, reads)) = &shape.residual {
        let batch: Vec<ColumnData> = reads
            .iter()
            .map(|&c| match c.checked_sub(shape.lw) {
                None => chunk.cols[c].gather(&l),
                Some(rc) => build.col(rc).gather(&r),
            })
            .collect();
        let (kept, interp) = narrow_predicate(residual, &batch, &Selection::all(l.len()))?;
        fell_back = interp;
        if let Some(kept) = kept.ids() {
            if shape.left_join {
                // A probe row none of whose candidates survived reverts
                // to unmatched. `l` ascends, so its candidates are a run.
                let mut survived = vec![false; chunk.sel.rows()];
                kept.iter().for_each(|&p| survived[l[p as usize] as usize] = true);
                let mut reverted: Vec<u32> =
                    l.iter().copied().filter(|&row| !survived[row as usize]).collect();
                reverted.dedup();
                unmatched.extend(reverted);
                unmatched.sort_unstable();
            }
            l = kept.iter().map(|&p| l[p as usize]).collect();
            r = kept.iter().map(|&p| r[p as usize]).collect();
        }
    }
    // Matches first, then the NULL-extended rest.
    l.extend_from_slice(&unmatched);
    if l.is_empty() {
        return Ok((None, fell_back));
    }
    let cols = (shape.emit.iter())
        .map(|&e| match e.checked_sub(shape.lw) {
            None => chunk.cols[e].gather(&l),
            Some(rc) => {
                let mut col = build.col(rc).gather(&r);
                (0..unmatched.len()).for_each(|_| col.push_null());
                col
            }
        })
        .collect();
    Ok((Some(Chunk { cols, sel: Selection::all(l.len()) }), fell_back))
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::{FxHashMap, Value};

    /// Chains of `keys` (row -> key) through an `IntTable`, per key.
    fn chains(keys: &[i64]) -> (bool, FxHashMap<i64, Vec<u32>>) {
        let range = keys.iter().copied().min().zip(keys.iter().copied().max());
        let mut table = IntTable::new(keys.len(), range);
        let mut next = vec![0u32; keys.len() + 1];
        for (row, &k) in keys.iter().enumerate().rev() {
            next[row + 1] = table.replace_head(k, row as u32 + 1);
        }
        if let IntTable::Hashed { slots, .. } = &table {
            assert!(slots.iter().filter(|s| s.1 != 0).count() * 2 <= slots.len());
        }
        let mut out: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
        for &k in keys {
            let mut head = table.head(k);
            let rows = out.entry(k).or_default();
            rows.clear();
            while head != 0 {
                rows.push(head - 1);
                head = next[head as usize];
            }
        }
        for absent in [i64::MIN + 1, -7, 1 << 40, i64::MAX - 1] {
            assert!(keys.contains(&absent) || table.head(absent) == 0, "absent key {absent}");
        }
        (matches!(table, IntTable::Direct { .. }), out)
    }

    /// The probe as it was before it became one pass, kept as the
    /// oracle: every head first, then the first matches, then a walk for
    /// the misses, then the chains.
    fn reference_probe(b: &Build, key: &ColumnData, sel: &Selection, keep_unmatched: bool) -> Pairs {
        let mut heads = Vec::with_capacity(sel.len());
        match &b.lane {
            None => {
                let nulls = key.nulls();
                with_ints!(key,
                    d => sel.for_each(|_, i| heads.push(if nulls.get(i) { b.table.head(d[i] as i64) } else { 0 })),
                    _ => unreachable!("an integer key"))
            }
            Some(lane) => {
                lane.find(key, sel, &mut heads).unwrap();
                heads.iter_mut().for_each(|h| *h = b.table.head(*h as i64));
            }
        }
        let (mut l, mut r) = (vec![0u32; sel.len() + 1], vec![0u32; sel.len() + 1]);
        let mut n = 0;
        sel.for_each(|j, i| {
            (l[n], r[n]) = (i as u32, heads[j].wrapping_sub(1));
            n += (heads[j] != 0) as usize;
        });
        l.truncate(n);
        r.truncate(n);
        let misses = sel.iter().zip(&heads).filter(|&(_, &head)| keep_unmatched && head == 0);
        let unmatched = misses.map(|(i, _)| i as u32).collect();
        if !b.duplicates {
            return Pairs { l, r, unmatched };
        }
        let (mut all_l, mut all_r) = (Vec::new(), Vec::new());
        for (&i, &first) in l.iter().zip(&r) {
            let mut head = first + 1;
            while head != 0 {
                all_l.push(i);
                all_r.push(head - 1);
                head = b.next[head as usize];
            }
        }
        Pairs { l: all_l, r: all_r, unmatched }
    }

    /// A column of `ty` holding `vals` (`None`: NULL).
    fn column(ty: DataType, vals: &[Option<i64>]) -> ColumnData {
        let mut col = ColumnData::new(ty);
        for v in vals {
            let v = match (v, ty) {
                (None, _) => Value::Null,
                (Some(v), DataType::Int2) => Value::Int2(*v as i16),
                (Some(v), DataType::Int4) => Value::Int4(*v as i32),
                (Some(v), DataType::Int8) => Value::Int8(*v),
                (Some(v), DataType::Float8) => Value::Float8(*v as f64),
                (Some(v), _) => Value::Str(v.to_string()),
            };
            col.push_value(&v).unwrap();
        }
        col
    }

    #[test]
    fn the_one_pass_probe_equals_the_reference() {
        let (mut direct, mut hashed) = (0, 0);
        // Close-packed build keys (a direct table) and sparse ones (a
        // hashed table), each with duplicates and a NULL.
        let packed: Vec<Option<i64>> =
            [-3, 0, 7, 7, 2, -3, 11, 5, 7].into_iter().map(Some).chain([None]).collect();
        let sparse: Vec<Option<i64>> = [i64::MIN, 9, i64::MAX, 1 << 40, 9, -(1 << 33), 0, i64::MIN]
            .into_iter()
            .map(Some)
            .chain([None])
            .collect();
        let unique: Vec<Option<i64>> = (0..40).map(|k| Some(k * 3 - 20)).collect();
        // Below and above every build range, at both ends of i64, each
        // build key, NULLs, and repeats.
        let mut probe: Vec<Option<i64>> = vec![Some(i64::MIN), Some(i64::MAX), Some(i64::MIN + 1), Some(i64::MAX - 1)];
        probe.extend([-4, -21, 12, 100, 1 << 40, -(1 << 33), 9, 0, 2, 7, -3, 5, 11, 3, 40].into_iter().map(Some));
        probe.extend([None, Some(7), None, Some(-20), Some(97), Some(98), Some(-3)]);
        let n = probe.len();
        let sels = [
            Selection::all(n),
            Selection::from_ids(n, (0..n as u32).filter(|i| i % 3 != 1).collect()),
            Selection::from_ids(n, vec![0, 5, 17, n as u32 - 1]),
            Selection::none(n),
        ];
        let types = [
            (DataType::Int8, DataType::Int8),
            (DataType::Int4, DataType::Int8),
            (DataType::Int2, DataType::Int4),
            (DataType::Varchar, DataType::Varchar),
            (DataType::Float8, DataType::Int8),
        ];
        for build_keys in [&packed, &sparse, &unique] {
            for (lty, rty) in types {
                // A narrow type holds only the keys that fit it.
                let fits = |ty: DataType, v: &Option<i64>| match (ty, v) {
                    (DataType::Int2, Some(v)) => i16::try_from(*v).is_ok(),
                    (DataType::Int4, Some(v)) => i32::try_from(*v).is_ok(),
                    _ => true,
                };
                let narrow = |ty, vals: &[Option<i64>]| -> Vec<Option<i64>> {
                    vals.iter().map(|v| v.filter(|_| fits(ty, v))).collect()
                };
                let probe_col = column(lty, &narrow(lty, &probe));
                let build_col = column(rty, &narrow(rty, build_keys));
                let cols = |ty| vec![OutCol { name: "k".into(), ty }];
                for join_type in [JoinType::Inner, JoinType::Left] {
                    let shape = JoinShape::new(&cols(lty), &cols(rty), join_type, (0, 0), None, &[]).unwrap();
                    let chunk = Chunk { sel: Selection::all(build_col.len()), cols: vec![build_col.clone()] };
                    let build = Build::new(&shape, &[chunk]).unwrap();
                    if build.lane.is_none() {
                        match build.table {
                            IntTable::Direct { .. } => direct += 1,
                            IntTable::Hashed { .. } => hashed += 1,
                        }
                    }
                    for sel in &sels {
                        let keep = join_type == JoinType::Left;
                        let got = build.probe(&probe_col, sel, keep).unwrap();
                        let want = reference_probe(&build, &probe_col, sel, keep);
                        assert_eq!(
                            (got.l, got.r, got.unmatched),
                            (want.l, want.r, want.unmatched),
                            "{lty} = {rty}, {join_type:?}, {build_keys:?}, {sel:?}"
                        );
                    }
                }
            }
        }
        assert!(direct > 0 && hashed > 0, "{direct} direct and {hashed} hashed builds");
    }

    #[test]
    fn int_table_chains_are_in_build_order_at_every_size() {
        // Sizes straddling each power of two (the capacity steps). Sparse
        // keys hash: the extreme values, and keys that differ only above
        // bit 32. Close-packed keys, negative ones too, address directly.
        let sparse = |i: i64| match i % 5 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => 0,
            3 => (i / 5) << 32,
            _ => i / 2,
        };
        let packed = |i: i64| (i * 7) % 23 - 11;
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            for (direct, key) in [(false, &sparse as &dyn Fn(i64) -> i64), (true, &packed)] {
                let keys: Vec<i64> = (0..n as i64).map(key).collect();
                let (was_direct, got) = chains(&keys);
                assert_eq!(was_direct, n > 0 && (direct || n == 1), "n = {n}");
                let mut want: FxHashMap<i64, Vec<u32>> = FxHashMap::default();
                for (row, &k) in keys.iter().enumerate() {
                    want.entry(k).or_default().push(row as u32);
                }
                assert_eq!(got, want, "n = {n}");
            }
        }
    }
}
