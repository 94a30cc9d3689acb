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
use redsim_common::{ColumnData, DataType, Result};
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
            IntTable::Direct { min, heads } => {
                // Below `min` wraps past any length.
                heads.get(key.wrapping_sub(*min) as u64 as usize).copied().unwrap_or(0)
            }
            IntTable::Hashed { slots, shift } => {
                let mask = slots.len() - 1;
                let mut s = Self::slot_of(key, *shift);
                loop {
                    let (k, head) = slots[s];
                    if (head == 0) | (k == key) {
                        return head;
                    }
                    s = (s + 1) & mask;
                }
            }
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

    /// The head of each selected probe row's chain (0: no match).
    fn heads(&self, key: &ColumnData, sel: &Selection) -> Result<Vec<u32>> {
        let mut heads = Vec::with_capacity(sel.len());
        let t = &self.table;
        match &self.lane {
            None => {
                let nulls = key.nulls();
                with_ints!(key,
                    d => sel.for_each(|_, i| heads.push(if nulls.get(i) { t.head(d[i] as i64) } else { 0 })),
                    _ => return Err(mismatch(key)))
            }
            // `MISS` lies past every id the table holds: no head.
            Some(lane) => {
                lane.find(key, sel, &mut heads)?;
                heads.iter_mut().for_each(|h| *h = t.head(*h as i64));
            }
        }
        Ok(heads)
    }

    /// Every (probe row, build row) with equal keys, ascending; with
    /// `keep_unmatched`, also the probe rows that found none.
    fn probe(&self, key: &ColumnData, sel: &Selection, keep_unmatched: bool) -> Result<Pairs> {
        let heads = self.heads(key, sel)?;
        // First matches, written without a branch on whether there was
        // one: a miss is overwritten by the next row.
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
        if !self.duplicates {
            return Ok(Pairs { l, r, unmatched });
        }
        // Some build key repeats: follow each first match down its chain.
        let (mut all_l, mut all_r) = (Vec::with_capacity(n), Vec::with_capacity(n));
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
    use redsim_common::FxHashMap;

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
