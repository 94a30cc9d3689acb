//! Optimizer statistics: one mergeable record per table.
//!
//! A [`TableStats`] holds, per column, the null count, min/max, summed
//! value width and a KMV (k-minimum-values) distinct-value sketch. Every
//! field is additive or a set union, so the record for rows A ∪ B is
//! `stats(A).merge(stats(B))` whatever the batching — which is what lets
//! the paper's "optimizer statistics are updated with load" default
//! (§2.1) cost O(rows loaded): COPY and INSERT fold the batch they parsed
//! into the table's record, and only `ANALYZE` scans the table. Both go
//! through the same typed lanes (no `Value`, no `String` per row), and a
//! load's partial keeps only the hashes under the record's limits
//! ([`TableStats::of_limited`]), so most values cost one hash and one
//! compare.

use crate::zonemap::{decode_value_opt, encode_value_opt};
use redsim_common::codec::{Reader, Writer};
use redsim_common::types::canon_f64;
use redsim_common::{fx_hash64, fx_hash64_short, mix64, Bitmap, ColumnData, Result, RsError, Value};
use std::cmp::Ordering;

/// Sketch size of every statistics column: 256 hashes = 2 KiB.
const STATS_K: usize = 256;

/// Most slots of a fold's duplicate filter ([`Fold::seen`]): 8 KiB.
const SEEN_SLOTS: usize = 1024;

/// KMV distinct-value sketch: keep the k smallest 64-bit hashes seen;
/// NDV ≈ (k-1) / max_kept (normalized). Mergeable (the sketch of a union
/// is the k smallest of the two sketches), tiny, and accurate enough for
/// join ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct KmvSketch {
    k: usize,
    /// Sorted ascending, at most k entries, no duplicates.
    mins: Vec<u64>,
}

impl KmvSketch {
    pub fn new(k: usize) -> Self {
        assert!(k >= 8);
        KmvSketch { k, mins: Vec::new() }
    }

    /// One hash (the scalar path below): a full sketch rejects almost
    /// every hash before any search.
    #[inline]
    pub fn insert_hash(&mut self, h: u64) {
        let full = self.mins.len() == self.k;
        if full && h >= self.mins[self.k - 1] {
            return;
        }
        if let Err(pos) = self.mins.binary_search(&h) {
            if full {
                self.mins.pop();
            }
            self.mins.insert(pos, h);
        }
    }

    /// Scalar entry point (the engine's boxed `APPROXIMATE COUNT(DISTINCT)`
    /// path); same keys and mixer as the typed lanes ([`fold_lane`]).
    pub fn insert_value(&mut self, v: &Value) {
        self.insert_hash(mix64(match v {
            Value::Null => return,
            Value::Float8(x) => canon_f64(*x).to_bits(),
            Value::Str(s) => fx_hash64(s.as_bytes()),
            Value::Decimal { units, .. } => fx_hash64(units),
            _ => v.as_i64().expect("integer family") as u64,
        }));
    }

    /// Estimated number of distinct values.
    pub fn estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            // Saw fewer than k distinct hashes: exact.
            self.mins.len() as f64
        } else {
            let kth = *self.mins.last().unwrap() as f64;
            ((self.k - 1) as f64) / (kth / u64::MAX as f64)
        }
    }

    /// The largest hash this sketch can still keep: any until it holds k,
    /// then one below its k-th smallest. A hash above it is either that
    /// k-th smallest or larger than k hashes held, so no union with this
    /// sketch keeps it.
    pub fn limit(&self) -> u64 {
        match self.mins.len() == self.k {
            // k distinct hashes: the k-th smallest is at least k - 1.
            true => self.mins[self.k - 1] - 1,
            false => u64::MAX,
        }
    }

    pub fn merge(&mut self, other: &KmvSketch) {
        self.merge_sorted(&other.mins);
    }

    /// Keep the k smallest distinct hashes of this sketch and `sorted`, an
    /// ascending run that may repeat a hash: one linear merge.
    fn merge_sorted(&mut self, sorted: &[u64]) {
        let (held, k) = (&self.mins, self.k);
        let mut out = Vec::with_capacity(k.min(held.len() + sorted.len()));
        let (mut i, mut j) = (0, 0);
        while out.len() < k {
            let h = match (held.get(i), sorted.get(j)) {
                (Some(&a), Some(&b)) if a <= b => (i += 1, a).1,
                (_, Some(&b)) => (j += 1, b).1,
                (Some(&a), None) => (i += 1, a).1,
                (None, None) => break,
            };
            if out.last() != Some(&h) {
                out.push(h);
            }
        }
        self.mins = out;
    }

    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.mins.len() as u32);
        self.mins.iter().for_each(|&h| w.put_u64(h));
    }

    /// Inverse of `encode` for a sketch of size `k`; anything but a
    /// strictly ascending run of at most `k` hashes is corruption.
    fn decode(r: &mut Reader, k: usize) -> Result<Self> {
        let n = r.get_u32()? as usize;
        if n > k {
            return Err(RsError::Codec(format!("sketch holds {n} hashes, limit {k}")));
        }
        let mins = (0..n).map(|_| r.get_u64()).collect::<Result<Vec<u64>>>()?;
        if mins.windows(2).any(|w| w[0] >= w[1]) {
            return Err(RsError::Codec("sketch hashes not strictly ascending".into()));
        }
        Ok(KmvSketch { k, mins })
    }
}

/// One batch's hashes on their way into a sketch. A hash above `cut` —
/// the caller's limit or the sketch's own, whichever is lower — can never
/// be kept, and one `seen` holds is a duplicate: either costs a compare
/// and a load, no branch taken. Only a new hash at or below `cut` waits
/// in `buf`, which goes in as one sorted merge, after which `cut` falls
/// to the fuller sketch's limit.
struct Fold<'a> {
    sketch: &'a mut KmvSketch,
    cut: u64,
    /// Direct-mapped on a hash's low bits, a power of two of slots sized
    /// to the batch. A slot holds a hash the sketch or `buf` holds or once
    /// held (then above `cut`), or, unwritten, a value that maps to
    /// another slot: a match is always a duplicate. A miss may be one too;
    /// the merge drops it.
    seen: Vec<u64>,
    buf: Vec<u64>,
}

impl<'a> Fold<'a> {
    fn new(sketch: &'a mut KmvSketch, limit: u64, rows: usize) -> Self {
        let cut = limit.min(sketch.limit());
        let slots = (2 * rows).clamp(2, SEEN_SLOTS).next_power_of_two();
        let mut seen: Vec<u64> = (0..slots as u64).map(|i| i ^ 1).collect();
        sketch.mins.iter().for_each(|&m| seen[m as usize & (slots - 1)] = m);
        Fold { sketch, cut, seen, buf: Vec::new() }
    }

    #[inline]
    fn offer(&mut self, h: u64) {
        let slot = h as usize & (self.seen.len() - 1);
        // A hash above the cut probes as the slot's own value, so the one
        // branch is taken only for a new candidate: how many hashes fall
        // under the cut (43 % of a seeded `tag`) is never predicted.
        let held = self.seen[slot];
        if std::hint::select_unpredictable(h <= self.cut, h, held) != held {
            self.push(slot, h);
        }
    }

    fn push(&mut self, slot: usize, h: u64) {
        self.seen[slot] = h;
        self.buf.push(h);
        if self.buf.len() == self.sketch.k {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.buf.sort_unstable();
        self.sketch.merge_sorted(&self.buf);
        self.buf.clear();
        self.cut = self.cut.min(self.sketch.limit());
    }

    fn finish(&mut self) {
        if !self.buf.is_empty() {
            self.flush();
        }
    }
}

/// Fold the non-NULL values of one typed lane into `fold` and return the
/// lane's (min, max) under `lt`. `key` maps a value to 64 bits (an
/// integer widened to i64, a float's canonical bits, an Fx hash of
/// anything wider); `mix64`, a full-avalanche finalizer, then spreads
/// sequential and strided keys over the whole u64 range. A batch without
/// NULLs, the common one, is a plain loop over the lane.
fn fold_lane<T: Copy>(
    fold: &mut Fold,
    lane: impl Iterator<Item = T>,
    nulls: &Bitmap,
    key: impl Fn(T) -> u64,
    lt: impl Fn(&T, &T) -> bool,
) -> Option<(T, T)> {
    match nulls.all_set() {
        true => fold_values(fold, lane, key, lt),
        false => {
            let valid = lane.zip(nulls.iter()).filter_map(|(x, valid)| valid.then_some(x));
            fold_values(fold, valid, key, lt)
        }
    }
}

/// [`fold_lane`] over the lane's non-NULL values: one loop carrying the
/// (min, max) pair in registers.
#[inline]
fn fold_values<T: Copy>(
    fold: &mut Fold,
    values: impl Iterator<Item = T>,
    key: impl Fn(T) -> u64,
    lt: impl Fn(&T, &T) -> bool,
) -> Option<(T, T)> {
    values.fold(None, |bounds, x| {
        fold.offer(mix64(key(x)));
        let (lo, hi) = bounds.unwrap_or((x, x));
        Some((if lt(&x, &lo) { x } else { lo }, if lt(&hi, &x) { x } else { hi }))
    })
}

/// The VARCHAR lane, read straight from an arena: each row's Fx hash,
/// and (min, max) kept as (sort prefix, row) — a row whose prefix is
/// strictly past a bound's cannot replace it, so the slices are compared
/// only where two prefixes tie. One plain loop, few live registers.
fn fold_strs<'s>(
    fold: &mut Fold,
    offsets: &[u32],
    bytes: &'s [u8],
    nulls: &Bitmap,
) -> Option<(&'s [u8], &'s [u8])> {
    const NONE: usize = usize::MAX;
    let row = |i: usize| &bytes[offsets[i] as usize..offsets[i + 1] as usize];
    let all = nulls.all_set();
    let (mut lo, mut hi) = ((u64::MAX, NONE), (0, NONE));
    for (i, w) in offsets.windows(2).enumerate() {
        if !all && !nulls.get(i) {
            continue;
        }
        let start = w[0] as usize;
        let (prefix, hash) = prefix_and_hash(&bytes[start..], w[1] as usize - start);
        fold.offer(mix64(hash));
        if prefix <= lo.0 && (lo.1 == NONE || prefix < lo.0 || row(i) < row(lo.1)) {
            lo = (prefix, i);
        }
        if prefix >= hi.0 && (hi.1 == NONE || prefix > hi.0 || row(i) > row(hi.1)) {
            hi = (prefix, i);
        }
    }
    (lo.1 != NONE).then(|| (row(lo.1), row(hi.1)))
}

/// A row's sort prefix — its first 8 bytes as a big-endian number,
/// zero-padded, so a strictly smaller prefix is a strictly smaller
/// string — and its Fx hash; `tail` is the arena from the row's start. A
/// row of at most 8 bytes (etl_load's `tag`) is one word for both, one
/// load wherever 8 bytes are left in the arena.
#[inline]
fn prefix_and_hash(tail: &[u8], len: usize) -> (u64, u64) {
    if len > 8 {
        return long_prefix_and_hash(&tail[..len]);
    }
    let word = match tail.first_chunk::<8>() {
        Some(w) => u64::from_le_bytes(*w) & u64::MAX.checked_shr(64 - 8 * len as u32).unwrap_or(0),
        None => tail[..len].iter().rev().fold(0, |w, &b| (w << 8) | b as u64),
    };
    (word.swap_bytes(), fx_hash64_short(len, word))
}

/// [`prefix_and_hash`] of a row over 8 bytes: out of line, so the short
/// rows' loop stays small enough to inline.
#[inline(never)]
fn long_prefix_and_hash(row: &[u8]) -> (u64, u64) {
    (u64::from_be_bytes(row[..8].try_into().unwrap()), fx_hash64(row))
}

/// A canonical float's bits (`canon_f64`) as a number whose unsigned
/// order is `cmp_f64`'s: negatives flipped below the positives, NaN
/// above infinity.
#[inline]
fn float_order(bits: u64) -> u64 {
    match bits >> 63 {
        1 => !bits,
        _ => bits | 1 << 63,
    }
}

/// Exact order within one column's type. [`Value::cmp_sql`] compares
/// decimals through f64, which would make min/max depend on batch order.
fn cmp_bound(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Decimal { units: x, .. }, Value::Decimal { units: y, .. }) => x.cmp(y),
        _ => a.cmp_sql(b),
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub nulls: u64,
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Distinct values seen; read through [`ColumnStats::ndv`].
    sketch: KmvSketch,
    /// Summed value widths; read through [`TableStats::avg_width`].
    bytes: u64,
}

impl ColumnStats {
    /// Estimated number of distinct non-NULL values.
    pub fn ndv(&self) -> f64 {
        self.sketch.estimate()
    }

    fn widen(&mut self, lo: &Value, hi: &Value) {
        if self.min.as_ref().is_none_or(|m| cmp_bound(lo, m) == Ordering::Less) {
            self.min = Some(lo.clone());
        }
        if self.max.as_ref().is_none_or(|m| cmp_bound(hi, m) == Ordering::Greater) {
            self.max = Some(hi.clone());
        }
    }

    /// Fold one batch of this column, its sketch keeping only hashes at
    /// or below `limit`: one pass over the typed lane, one boxed
    /// (min, max) pair per batch.
    fn update(&mut self, col: &ColumnData, limit: u64) {
        fn ints<T: Copy + Ord + Into<i64>>(
            fold: &mut Fold,
            data: &[T],
            nulls: &Bitmap,
            to_value: impl Fn(T) -> Value,
        ) -> Option<(Value, Value)> {
            fold_lane(fold, data.iter().copied(), nulls, |x| x.into() as u64, T::lt)
                .map(|(lo, hi)| (to_value(lo), to_value(hi)))
        }
        let fold = &mut Fold::new(&mut self.sketch, limit, col.len());
        // Width per value is a constant of the type (strings: offset +
        // payload), so the sum is independent of batching.
        let (width, bounds) = match col {
            ColumnData::Bool { data, nulls } => (1, ints(fold, data, nulls, Value::Bool)),
            ColumnData::Int2 { data, nulls } => (2, ints(fold, data, nulls, Value::Int2)),
            ColumnData::Int4 { data, nulls } => (4, ints(fold, data, nulls, Value::Int4)),
            ColumnData::Int8 { data, nulls } => (8, ints(fold, data, nulls, Value::Int8)),
            ColumnData::Date { data, nulls } => (4, ints(fold, data, nulls, Value::Date)),
            ColumnData::Timestamp { data, nulls } => (8, ints(fold, data, nulls, Value::Timestamp)),
            ColumnData::Float8 { data, nulls } => {
                // (order, canonical bits): min/max by integer compares.
                let lane = data.iter().map(|&x| {
                    let bits = canon_f64(x).to_bits();
                    (float_order(bits), bits)
                });
                let b = fold_lane(fold, lane, nulls, |(_, bits)| bits, |a, b| a.0 < b.0);
                let v = |(_, bits)| Value::Float8(f64::from_bits(bits));
                (8, b.map(|(lo, hi)| (v(lo), v(hi))))
            }
            ColumnData::Decimal { data, scale, nulls } => {
                let b = fold_lane(fold, data.iter().copied(), nulls, |x| fx_hash64(&x), i128::lt);
                let v = |units| Value::Decimal { units, scale: *scale };
                (16, b.map(|(lo, hi)| (v(lo), v(hi))))
            }
            ColumnData::Str { data, nulls } => {
                // The rows' payloads, NULL slots' empty ones included: a
                // coded vector's rows materialised, not its dictionary.
                let arena = data.arena();
                let (offsets, bytes) = arena.raw_parts();
                self.bytes += bytes.len() as u64;
                let b = fold_strs(fold, offsets, bytes, nulls);
                let v = |s: &[u8]| Value::Str(String::from_utf8_lossy(s).into_owned());
                (4, b.map(|(lo, hi)| (v(lo), v(hi))))
            }
        };
        fold.finish();
        self.nulls += col.null_count() as u64;
        self.bytes += width * col.len() as u64;
        if let Some((lo, hi)) = bounds {
            self.widen(&lo, &hi);
        }
    }

    fn merge(&mut self, other: &ColumnStats) {
        self.nulls += other.nulls;
        self.bytes += other.bytes;
        self.sketch.merge(&other.sketch);
        if let (Some(lo), Some(hi)) = (&other.min, &other.max) {
            self.widen(lo, hi);
        }
    }
}

/// Statistics for one table (column order matches the schema): what
/// `ANALYZE` computes, what a load folds its batch into, and — sketches
/// included — what the redo log, snapshots and resize carry, so a load
/// after recovery merges into exactly what a fresh `ANALYZE` would build.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub rows: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// The statistics of an empty table with `n_columns` columns.
    pub fn new(n_columns: usize) -> Self {
        let sketch = KmvSketch::new(STATS_K);
        let empty = ColumnStats { nulls: 0, min: None, max: None, sketch, bytes: 0 };
        TableStats { rows: 0, columns: vec![empty; n_columns] }
    }

    /// The statistics of one batch of columns.
    pub fn of(cols: &[ColumnData]) -> Self {
        let mut stats = TableStats::new(cols.len());
        stats.update(cols);
        stats
    }

    /// Each column's [`KmvSketch::limit`]. A batch's partial built under
    /// them ([`TableStats::of_limited`]) merges into this record — or any
    /// record this one grows into, whose limits are no higher — exactly
    /// as the batch's full statistics would.
    pub fn limits(&self) -> Vec<u64> {
        self.columns.iter().map(|c| c.sketch.limit()).collect()
    }

    /// The statistics of one batch of columns, each sketch keeping only
    /// the hashes at or below its column's limit (a COPY unit's partial,
    /// DESIGN.md §17). The sketches are not the batch's: only a merge
    /// into the record the limits came from may read them.
    pub fn of_limited(cols: &[ColumnData], limits: &[u64]) -> Self {
        assert_eq!(cols.len(), limits.len());
        let mut stats = TableStats::new(cols.len());
        stats.fold(cols, limits.iter().copied());
        stats
    }

    /// Fold one batch of columns (must match arity).
    pub fn update(&mut self, cols: &[ColumnData]) {
        self.fold(cols, std::iter::repeat(u64::MAX));
    }

    fn fold(&mut self, cols: &[ColumnData], limits: impl Iterator<Item = u64>) {
        assert_eq!(cols.len(), self.columns.len());
        self.rows += cols.first().map_or(0, |c| c.len()) as u64;
        let columns = self.columns.iter_mut().zip(cols).zip(limits);
        columns.for_each(|((acc, col), limit)| acc.update(col, limit));
    }

    /// Absorb the statistics of a disjoint set of rows (another slice,
    /// another COPY object).
    pub fn merge(&mut self, other: &TableStats) {
        assert_eq!(self.columns.len(), other.columns.len());
        self.rows += other.rows;
        self.columns.iter_mut().zip(&other.columns).for_each(|(a, b)| a.merge(b));
    }

    /// Mean value width of column `col` in bytes (row-size estimation).
    pub fn avg_width(&self, col: usize) -> f64 {
        self.columns[col].bytes as f64 / self.rows.max(1) as f64
    }

    /// Serialize the whole record, sketches included (at most 2 KiB of
    /// hashes per column): the table image in redo deltas, checkpoints
    /// and snapshot manifests embeds these bytes.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u64(self.rows);
        w.put_u32(self.columns.len() as u32);
        for c in &self.columns {
            w.put_u64(c.nulls);
            encode_value_opt(w, &c.min);
            encode_value_opt(w, &c.max);
            w.put_u64(c.bytes);
            c.sketch.encode(w);
        }
    }

    /// Inverse of [`TableStats::encode`].
    pub fn decode(r: &mut Reader) -> Result<Self> {
        let rows = r.get_u64()?;
        let mut columns = Vec::new();
        for _ in 0..r.get_u32()? {
            columns.push(ColumnStats {
                nulls: r.get_u64()?,
                min: decode_value_opt(r)?,
                max: decode_value_opt(r)?,
                bytes: r.get_u64()?,
                sketch: KmvSketch::decode(r, STATS_K)?,
            });
        }
        Ok(TableStats { rows, columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::{DataType, StrVec};
    use redsim_testkit::prop::{self, Config};
    use redsim_testkit::rng::{Pcg32, Rng, RngCore};

    /// The reference fold: a boxed `Value` per non-NULL row, its hash
    /// inserted one at a time (`KmvSketch::insert_value`), an `Option`
    /// pair of bounds rebuilt per value, a string column's width summed
    /// row by row. Every record the lanes build must be its, byte for
    /// byte.
    fn fold_reference(stats: &mut TableStats, cols: &[ColumnData]) {
        stats.rows += cols.first().map_or(0, |c| c.len()) as u64;
        for (acc, col) in stats.columns.iter_mut().zip(cols) {
            let mut bounds: Option<(Value, Value)> = None;
            for i in (0..col.len()).filter(|&i| !col.is_null(i)) {
                let v = match col.get(i) {
                    Value::Float8(x) => Value::Float8(canon_f64(x)),
                    v => v,
                };
                acc.sketch.insert_value(&v);
                let (lo, hi) = bounds.unwrap_or((v.clone(), v.clone()));
                bounds = Some((
                    if cmp_bound(&v, &lo) == Ordering::Less { v.clone() } else { lo },
                    if cmp_bound(&v, &hi) == Ordering::Greater { v } else { hi },
                ));
            }
            let (width, payload) = match col {
                ColumnData::Bool { .. } => (1, 0),
                ColumnData::Int2 { .. } => (2, 0),
                ColumnData::Int4 { .. } | ColumnData::Date { .. } => (4, 0),
                ColumnData::Int8 { .. } | ColumnData::Timestamp { .. } => (8, 0),
                ColumnData::Float8 { .. } => (8, 0),
                ColumnData::Decimal { .. } => (16, 0),
                ColumnData::Str { data, .. } => {
                    (4, (0..data.len()).map(|i| data.bytes_at(i).len() as u64).sum())
                }
            };
            acc.nulls += col.null_count() as u64;
            acc.bytes += width * col.len() as u64 + payload;
            if let Some((lo, hi)) = bounds {
                acc.widen(&lo, &hi);
            }
        }
    }

    #[test]
    fn kmv_exact_below_k() {
        let mut s = KmvSketch::new(64);
        for i in 0..40 {
            s.insert_value(&Value::Int8(i));
        }
        assert_eq!(s.estimate(), 40.0);
        // Duplicates don't inflate.
        for i in 0..40 {
            s.insert_value(&Value::Int8(i));
        }
        assert_eq!(s.estimate(), 40.0);
    }

    /// Sequential, strided, negative and float keys — the shapes a weak
    /// finishing mix maps onto a lattice — all estimate within 15 %.
    #[test]
    fn kmv_estimates_large_cardinalities() {
        let true_ndv = 50_000i64;
        type Shape = (&'static str, fn(i64) -> Value);
        let shapes: [Shape; 5] = [
            ("sequential", Value::Int8),
            ("strided x1024", |i| Value::Int8(i * 1024)),
            ("negative", |i| Value::Int8(-i - 1)),
            ("int4 dates", |i| Value::Date(i as i32)),
            ("floats", |i| Value::Float8(i as f64 * 0.25)),
        ];
        for (shape, make) in shapes {
            let mut s = KmvSketch::new(256);
            for i in 0..true_ndv {
                s.insert_value(&make(i));
            }
            let est = s.estimate();
            let err = (est - true_ndv as f64).abs() / true_ndv as f64;
            assert!(err < 0.15, "{shape}: estimate {est} vs {true_ndv} (err {err:.3})");
        }
    }

    #[test]
    fn kmv_merge_matches_union() {
        let mut a = KmvSketch::new(256);
        let mut b = KmvSketch::new(256);
        let mut union = KmvSketch::new(256);
        for i in 0..10_000 {
            a.insert_value(&Value::Int8(i));
            union.insert_value(&Value::Int8(i));
        }
        for i in 5_000..15_000 {
            b.insert_value(&Value::Int8(i));
            union.insert_value(&Value::Int8(i));
        }
        a.merge(&b);
        assert_eq!(a, union, "merge is the sketch of the union, hash for hash");
        let est = a.estimate();
        assert!((est - 15_000.0).abs() / 15_000.0 < 0.15, "est {est}");
    }

    #[test]
    fn kmv_floats_hash_by_sql_equality() {
        let mut s = KmvSketch::new(64);
        for x in [0.0, -0.0, f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_0000_0000_0001)] {
            s.insert_value(&Value::Float8(x));
        }
        assert_eq!(s.estimate(), 2.0, "one zero, one NaN");
    }

    fn int_and_str_columns(rows: std::ops::Range<i64>) -> Vec<ColumnData> {
        let mut ints = ColumnData::new(DataType::Int8);
        let mut strs = ColumnData::new(DataType::Varchar);
        for i in rows {
            ints.push_value(&Value::Int8(i % 10)).unwrap();
            if i % 4 == 0 {
                strs.push_null();
            } else {
                strs.push_value(&Value::Str(format!("u{}", i % 100))).unwrap();
            }
        }
        vec![ints, strs]
    }

    #[test]
    fn update_end_to_end() {
        let mut stats = TableStats::new(2);
        stats.update(&int_and_str_columns(0..1_000));
        assert_eq!(stats.rows, 1_000);
        assert_eq!(stats.columns[0].nulls, 0);
        assert_eq!(stats.columns[1].nulls, 250);
        assert_eq!(stats.columns[0].min, Some(Value::Int8(0)));
        assert_eq!(stats.columns[0].max, Some(Value::Int8(9)));
        assert_eq!(stats.columns[1].min, Some(Value::Str("u1".into())));
        assert_eq!(stats.columns[1].max, Some(Value::Str("u99".into())));
        assert_eq!(stats.columns[0].ndv(), 10.0);
        assert_eq!(stats.columns[1].ndv(), 75.0);
        assert_eq!(stats.avg_width(0), 8.0);
        assert!(stats.avg_width(1) > 4.0);
    }

    /// The property the load path rests on: any batching of the same rows
    /// — one update, many updates, partials merged in any order — builds
    /// the identical record, `avg_width` included.
    #[test]
    fn batching_and_merge_order_do_not_matter() {
        let mut whole = TableStats::new(2);
        whole.update(&int_and_str_columns(0..3_000));
        let mut batched = TableStats::new(2);
        let mut parts = Vec::new();
        for start in (0..3_000).step_by(7 * 61) {
            let cols = int_and_str_columns(start..(start + 7 * 61).min(3_000));
            batched.update(&cols);
            let mut p = TableStats::new(2);
            p.update(&cols);
            parts.push(p);
        }
        assert_eq!(batched, whole);
        let mut merged = TableStats::new(2);
        for p in parts.iter().rev() {
            merged.merge(p);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.avg_width(1).to_bits(), whole.avg_width(1).to_bits());
    }

    #[test]
    fn float_and_decimal_bounds_are_exact_and_canonical() {
        let mut f = ColumnData::new(DataType::Float8);
        for x in [-0.0, 0.0, -1.5] {
            f.push_value(&Value::Float8(x)).unwrap();
        }
        let mut d = ColumnData::new(DataType::Decimal(38, 2));
        // Distinct units that collapse to one f64.
        let big = 10i128.pow(30);
        for units in [big + 1, big, big + 2] {
            d.push_value(&Value::Decimal { units, scale: 2 }).unwrap();
        }
        let mut stats = TableStats::new(2);
        stats.update(&[f, d]);
        let max = format!("{:?}", stats.columns[0].max);
        assert_eq!(max, "Some(Float8(0.0))", "-0.0 stored as 0.0");
        assert_eq!(stats.columns[0].ndv(), 2.0);
        assert_eq!(stats.columns[1].min, Some(Value::Decimal { units: big, scale: 2 }));
        assert_eq!(stats.columns[1].max, Some(Value::Decimal { units: big + 2, scale: 2 }));
    }

    #[test]
    fn table_stats_roundtrip_carries_the_sketches() {
        let mut stats = TableStats::new(2);
        stats.update(&int_and_str_columns(0..500));
        let mut w = Writer::new();
        stats.encode(&mut w);
        let bytes = w.into_bytes();
        let mut back = TableStats::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, stats);
        // Decoded sketches keep absorbing: same record as never encoded.
        let more = int_and_str_columns(500..900);
        back.update(&more);
        stats.update(&more);
        assert_eq!(back, stats);
        // A full sketch is 2 KiB of hashes per column, no more.
        let mut wide = TableStats::new(1);
        let mut col = ColumnData::new(DataType::Int8);
        for i in 0..10_000 {
            col.push_value(&Value::Int8(i)).unwrap();
        }
        wide.update(&[col]);
        let mut w = Writer::new();
        wide.encode(&mut w);
        assert!(w.into_bytes().len() <= 2048 + 64);
    }

    #[test]
    fn corrupt_sketches_are_codec_errors() {
        let mut stats = TableStats::new(1);
        stats.update(&int_and_str_columns(0..50)[..1]);
        let mut w = Writer::new();
        stats.encode(&mut w);
        let bytes = w.into_bytes();
        // Swap the first two hashes (they trail the record): order breaks.
        let mut swapped = bytes.clone();
        let n = swapped.len();
        let (a, b) = swapped[n - 16..].split_at_mut(8);
        a.swap_with_slice(b);
        for bad in [&swapped[..], &bytes[..n - 1]] {
            let err = TableStats::decode(&mut Reader::new(bad)).unwrap_err();
            assert!(matches!(err, RsError::Codec(_)), "{err}");
        }
    }
    /// The record's encoding, which carries every field and hash: two
    /// records are the same exactly when these bytes are (a NaN bound
    /// included, which `==` on a `Value` would call unequal to itself).
    fn bytes_of(stats: &TableStats) -> Vec<u8> {
        let mut w = Writer::new();
        stats.encode(&mut w);
        w.into_bytes()
    }

    fn assert_same(got: &TableStats, want: &TableStats, what: &str) {
        assert!(bytes_of(got) == bytes_of(want), "{what}:\n got  {got:?}\n want {want:?}");
    }

    /// One random column: a lane, a value domain (below the sketch size,
    /// or far above it), a NULL rate (none, some, all) and a length.
    fn arb_column(rng: &mut Pcg32, lane: usize, rows: usize) -> ColumnData {
        let domain = [3, 200, 100_000, u64::MAX][rng.gen_index(4)];
        let null_rate = [0.0, 0.0, 0.2, 1.0][rng.gen_index(4)];
        let next = |rng: &mut Pcg32| match domain {
            u64::MAX => rng.next_u64(),
            d => rng.next_u64() % d,
        };
        let float = |rng: &mut Pcg32, x: u64| match rng.gen_index(4) {
            0 => [0.0, -0.0, f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_0000_0000_0001)][rng.gen_index(5)],
            1 => [f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, -1.5][rng.gen_index(4)],
            _ => x as f64 * 0.25 - 1e4,
        };
        let text = |rng: &mut Pcg32, x: u64| match lane {
            // Duplicate-heavy (etl_load's `tag`), distinct-heavy, empty,
            // multi-byte, and rows sharing an 8-byte prefix.
            8 => format!("{}-{}", ["new", "paid", "held"][x as usize % 3], x % 100),
            9 => {
                let len = rng.gen_index(20);
                rng.alphanumeric(len) + &x.to_string()
            }
            10 => String::new(),
            11 => (0..rng.gen_index(6)).map(|_| ['é', '日', 'a', 'ß', '\0'][rng.gen_index(5)]).collect(),
            _ => format!("prefix{:x}{}", x % 16, "z".repeat(x as usize % 3)),
        };
        let ty = match lane {
            0 => DataType::Bool,
            1 => DataType::Int2,
            2 => DataType::Int4,
            3 => DataType::Int8,
            4 => DataType::Date,
            5 => DataType::Timestamp,
            6 => DataType::Float8,
            7 => DataType::Decimal(38, 2),
            _ => DataType::Varchar,
        };
        let mut col = ColumnData::new(ty);
        for _ in 0..rows {
            if rng.gen_bool(null_rate) {
                col.push_null();
                continue;
            }
            let x = next(rng);
            let v = match ty {
                DataType::Bool => Value::Bool(x % 2 == 1),
                DataType::Int2 => Value::Int2(x as i16),
                DataType::Int4 => Value::Int4(x as i32),
                DataType::Int8 => Value::Int8(x as i64),
                DataType::Date => Value::Date(x as i32),
                DataType::Timestamp => Value::Timestamp(x as i64),
                DataType::Float8 => Value::Float8(float(rng, x)),
                DataType::Decimal(..) => Value::Decimal { units: x as i128 * 10i128.pow(18) - 7, scale: 2 },
                _ => Value::Str(text(rng, x)),
            };
            col.push_value(&v).unwrap();
        }
        match col {
            // A VARCHAR column folds the same coded or not.
            ColumnData::Str { data, nulls } if rng.gen_bool(0.25) => {
                ColumnData::Str { data: data.coded(), nulls }
            }
            col => col,
        }
    }

    /// Every lane, every batching: a COPY's units folded under the running
    /// partial's limits (seeded from a prior record, dispatched in rounds
    /// whose limits go stale within the round), `update` per unit as
    /// ANALYZE does, and per-unit records merged in reverse all build the
    /// reference's record of the whole batch, byte for byte.
    #[test]
    fn every_fold_equals_the_reference() {
        let gen = prop::any_int::<u64>();
        prop::check("every_fold_equals_the_reference", &Config::with_cases(256), &gen, |&seed| {
            let mut rng = Pcg32::new(seed, 0x57a7);
            let lanes: Vec<usize> = (0..2).map(|_| rng.gen_index(13)).collect();
            let columns = |rng: &mut Pcg32| {
                let rows = [0, 1, 40, 700, 3_000][rng.gen_index(5)];
                lanes.iter().map(|&lane| arb_column(rng, lane, rows)).collect::<Vec<_>>()
            };
            let cols = columns(&mut rng);
            let mut prior = TableStats::new(lanes.len());
            if rng.gen_bool(0.5) {
                fold_reference(&mut prior, &columns(&mut rng));
            }
            let n = cols[0].len();
            let mut cuts: Vec<usize> = (0..rng.gen_index(6)).map(|_| rng.gen_index(n + 1)).collect();
            cuts.extend([0, n]);
            cuts.sort_unstable();
            let units: Vec<Vec<ColumnData>> =
                cuts.windows(2).map(|w| cols.iter().map(|c| c.slice(w[0], w[1])).collect()).collect();

            let mut want = prior.clone();
            fold_reference(&mut want, &cols);
            let mut copied = prior.clone();
            for round in units.chunks(1 + rng.gen_index(3)) {
                let limits = copied.limits();
                round.iter().for_each(|unit| copied.merge(&TableStats::of_limited(unit, &limits)));
            }
            assert_same(&copied, &want, "units folded under the running limits");
            let mut analyzed = prior.clone();
            units.iter().for_each(|unit| analyzed.update(unit));
            assert_same(&analyzed, &want, "update per unit");
            let mut merged = prior.clone();
            units.iter().rev().for_each(|unit| merged.merge(&TableStats::of(unit)));
            assert_same(&merged, &want, "per-unit records merged in reverse");
        });
    }

    /// The limit is one below the record's k-th smallest hash: a unit
    /// value hashing between the record's two largest is kept, and the
    /// largest goes. (Random data lands there too rarely to pin it.)
    #[test]
    fn a_hash_just_under_the_kth_smallest_is_kept() {
        let mut by_hash: Vec<i64> = (0..10_000).collect();
        by_hash.sort_unstable_by_key(|&v| mix64(v as u64));
        let ints = |vals: &[i64]| ColumnData::Int8 { data: vals.to_vec(), nulls: Bitmap::all_valid(vals.len()) };
        let mut held = by_hash[..STATS_K + 1].to_vec();
        let late = held.remove(STATS_K - 1);
        let mut record = TableStats::of(&[ints(&held)]);
        let limits = record.limits();
        record.merge(&TableStats::of_limited(&[ints(&[late])], &limits));
        assert_same(&record, &TableStats::of(&[ints(&by_hash[..=STATS_K])]), "the late value");
    }

    /// A coded VARCHAR folds its rows' bytes, not its dictionary's: the
    /// same record as the arena it codes (its width used to read 4.09
    /// here, the dictionary's 9 bytes over 100 rows, against 7).
    #[test]
    fn a_coded_column_folds_its_rows_bytes() {
        let mut arena = StrVec::new();
        (0..100).for_each(|i| arena.push(&format!("t-{}", i % 3)));
        let nulls = Bitmap::all_valid(100);
        let plain = TableStats::of(&[ColumnData::Str { data: arena.clone(), nulls: nulls.clone() }]);
        let coded = TableStats::of(&[ColumnData::Str { data: arena.coded(), nulls }]);
        assert_eq!(plain.avg_width(0), 7.0);
        assert_eq!(coded, plain);
    }
}
