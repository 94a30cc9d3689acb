//! Optimizer statistics: one mergeable record per table.
//!
//! A [`TableStats`] holds, per column, the null count, min/max, summed
//! value width and a KMV (k-minimum-values) distinct-value sketch. Every
//! field is additive or a set union, so the record for rows A ∪ B is
//! `stats(A).merge(stats(B))` whatever the batching — which is what lets
//! the paper's "optimizer statistics are updated with load" default
//! (§2.1) cost O(rows loaded): COPY and INSERT fold the batch they parsed
//! into the table's record, and only `ANALYZE` scans the table. Both go
//! through the same [`TableStats::update`], which reads the typed column
//! lanes directly (no `Value`, no `String` per row).

use crate::zonemap::{decode_value_opt, encode_value_opt};
use redsim_common::codec::{Reader, Writer};
use redsim_common::types::cmp_f64;
use redsim_common::{fx_hash64, mix64, Bitmap, ColumnData, Result, RsError, Value};
use std::cmp::Ordering;

/// Sketch size of every statistics column: 256 hashes = 2 KiB.
const STATS_K: usize = 256;

/// One representative per SQL-equal float: `-0.0` → `0.0`, any NaN → the
/// canonical NaN.
fn canon_f64(x: f64) -> f64 {
    if x.is_nan() { f64::NAN } else { x + 0.0 }
}

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

    #[inline]
    pub fn insert_hash(&mut self, h: u64) {
        let full = self.mins.len() == self.k;
        // A full sketch rejects almost every hash here, before any search.
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

    pub fn merge(&mut self, other: &KmvSketch) {
        other.mins.iter().for_each(|&h| self.insert_hash(h));
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

/// Fold the non-NULL values of one typed lane into `sketch` and return
/// the lane's (min, max) under `cmp`. `key` maps a value to 64 bits (an
/// integer widened to i64, a float's canonical bits, an Fx hash of
/// anything wider); `mix64`, a full-avalanche finalizer, then spreads
/// sequential and strided keys over the whole u64 range.
fn fold_lane<T: Copy>(
    sketch: &mut KmvSketch,
    lane: impl Iterator<Item = T>,
    nulls: &Bitmap,
    key: impl Fn(T) -> u64,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Option<(T, T)> {
    let mut bounds: Option<(T, T)> = None;
    for (x, _) in lane.zip(nulls.iter()).filter(|(_, valid)| *valid) {
        sketch.insert_hash(mix64(key(x)));
        let (lo, hi) = bounds.unwrap_or((x, x));
        bounds = Some((
            if cmp(&x, &lo) == Ordering::Less { x } else { lo },
            if cmp(&x, &hi) == Ordering::Greater { x } else { hi },
        ));
    }
    bounds
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

    /// Fold one batch of this column: one pass over the typed lane, one
    /// boxed (min, max) pair per batch.
    fn update(&mut self, col: &ColumnData) {
        fn ints<T: Copy + Ord + Into<i64>>(
            sk: &mut KmvSketch,
            data: &[T],
            nulls: &Bitmap,
            to_value: impl Fn(T) -> Value,
        ) -> Option<(Value, Value)> {
            fold_lane(sk, data.iter().copied(), nulls, |x| x.into() as u64, T::cmp)
                .map(|(lo, hi)| (to_value(lo), to_value(hi)))
        }
        let sk = &mut self.sketch;
        // Width per value is a constant of the type (strings: offset +
        // payload), so the sum is independent of batching.
        let (width, bounds) = match col {
            ColumnData::Bool { data, nulls } => (1, ints(sk, data, nulls, Value::Bool)),
            ColumnData::Int2 { data, nulls } => (2, ints(sk, data, nulls, Value::Int2)),
            ColumnData::Int4 { data, nulls } => (4, ints(sk, data, nulls, Value::Int4)),
            ColumnData::Int8 { data, nulls } => (8, ints(sk, data, nulls, Value::Int8)),
            ColumnData::Date { data, nulls } => (4, ints(sk, data, nulls, Value::Date)),
            ColumnData::Timestamp { data, nulls } => (8, ints(sk, data, nulls, Value::Timestamp)),
            ColumnData::Float8 { data, nulls } => {
                let lane = data.iter().map(|&x| canon_f64(x));
                let b = fold_lane(sk, lane, nulls, f64::to_bits, |a, b| cmp_f64(*a, *b));
                (8, b.map(|(lo, hi)| (Value::Float8(lo), Value::Float8(hi))))
            }
            ColumnData::Decimal { data, scale, nulls } => {
                let b = fold_lane(sk, data.iter().copied(), nulls, |x| fx_hash64(&x), i128::cmp);
                let v = |units| Value::Decimal { units, scale: *scale };
                (16, b.map(|(lo, hi)| (v(lo), v(hi))))
            }
            ColumnData::Str { data, nulls } => {
                self.bytes += data.byte_len() as u64;
                let lane = (0..data.len()).map(|i| data.bytes_at(i));
                let b = fold_lane(sk, lane, nulls, |s| fx_hash64(s), |a, b| a.cmp(b));
                let v = |s: &[u8]| Value::Str(String::from_utf8_lossy(s).into_owned());
                (4, b.map(|(lo, hi)| (v(lo), v(hi))))
            }
        };
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

    /// Fold one batch of columns (must match arity).
    pub fn update(&mut self, cols: &[ColumnData]) {
        assert_eq!(cols.len(), self.columns.len());
        self.rows += cols.first().map_or(0, |c| c.len()) as u64;
        self.columns.iter_mut().zip(cols).for_each(|(acc, col)| acc.update(col));
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
    use redsim_common::DataType;

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
}
