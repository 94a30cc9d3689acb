//! Distribution styles and the row router.

use crate::topology::ClusterTopology;
use redsim_common::types::canon_f64;
use redsim_common::{fx_hash64, ColumnData, Result, RsError, Value};

/// Table distribution style (`DISTSTYLE`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistStyle {
    /// Round-robin across slices.
    Even,
    /// Hash of the named column; co-locates equal keys on one slice.
    Key(usize),
    /// Full copy on every slice (small dimension tables).
    All,
}

impl DistStyle {
    pub fn key_column(&self) -> Option<usize> {
        match self {
            DistStyle::Key(c) => Some(*c),
            _ => None,
        }
    }
}

/// Hash a distribution-key value. Stable across the process so that two
/// tables distributed on compatible keys land matching rows on the same
/// slice — the property co-located joins rely on.
pub fn dist_hash(v: &Value) -> u64 {
    match v {
        // The integer family hashes by widened numeric value so that
        // INT2/INT4/INT8 keys with equal values collide (joins may widen).
        Value::Int2(_) | Value::Int4(_) | Value::Int8(_) | Value::Date(_) | Value::Timestamp(_)
        | Value::Bool(_) => fx_hash64(&v.as_i64().expect("integer family")),
        Value::Str(s) => fx_hash64(s.as_str()),
        // FLOAT8 and DECIMAL hash by the f64 `=` compares them by, a whole
        // one as that integer: keys `=` equates land on one slice whatever
        // their numeric types (0.0 and -0.0, 2.00 and 2.000, 2 and 2.0).
        Value::Float8(_) | Value::Decimal { .. } => float_hash(v.as_f64().expect("numeric")),
        Value::Null => 0, // all NULL keys co-locate (matches Redshift)
    }
}

fn float_hash(f: f64) -> u64 {
    let f = canon_f64(f);
    if f.fract() == 0.0 && f.abs() < 9.2e18 {
        fx_hash64(&(f as i64))
    } else {
        fx_hash64(&f.to_bits())
    }
}

/// The slice (of `slices`) each of `rows` (`None`: every row) routes to:
/// [`dist_hash`] of its key, hashed straight from the typed lane, one
/// match per lane and no `Value` per row. A COPY into a KEY table and a
/// join re-hashing one side both route here, so they meet.
pub fn key_slices(key: &ColumnData, rows: Option<&[u32]>, slices: u64) -> Vec<u32> {
    match rows {
        None => lane_slices(key, 0..key.len(), slices),
        Some(ids) => lane_slices(key, ids.iter().map(|&i| i as usize), slices),
    }
}

fn lane_slices(key: &ColumnData, rows: impl Iterator<Item = usize>, n: u64) -> Vec<u32> {
    let nulls = key.nulls();
    // NULL keys route like `dist_hash(&Value::Null)`: to slice 0.
    let slot = |i: usize, hash: u64| if nulls.get(i) { (hash % n) as u32 } else { 0 };
    macro_rules! ints {
        ($d:expr) => {
            rows.map(|i| slot(i, fx_hash64(&(i64::from($d[i]))))).collect()
        };
    }
    match key {
        ColumnData::Bool { data, .. } => ints!(data),
        ColumnData::Int2 { data, .. } => ints!(data),
        ColumnData::Int4 { data, .. } | ColumnData::Date { data, .. } => ints!(data),
        ColumnData::Int8 { data, .. } | ColumnData::Timestamp { data, .. } => ints!(data),
        ColumnData::Str { data, .. } => rows.map(|i| slot(i, fx_hash64(data.get(i)))).collect(),
        ColumnData::Float8 { data, .. } => rows.map(|i| slot(i, float_hash(data[i]))).collect(),
        ColumnData::Decimal { data, scale, .. } => {
            // `Value::as_f64`'s conversion.
            let unit = 10f64.powi(*scale as i32);
            rows.map(|i| slot(i, float_hash(data[i] as f64 / unit))).collect()
        }
    }
}

/// Routes rows of one table to slices.
#[derive(Debug, Clone)]
pub struct RowRouter {
    style: DistStyle,
    total_slices: u32,
    /// Round-robin cursor for EVEN distribution.
    cursor: u32,
}

impl RowRouter {
    pub fn new(style: DistStyle, topology: &ClusterTopology) -> Self {
        RowRouter { style, total_slices: topology.total_slices(), cursor: 0 }
    }

    pub fn style(&self) -> &DistStyle {
        &self.style
    }

    /// Split a batch of columns into per-slice batches.
    ///
    /// For `ALL`, every slice receives the full batch.
    pub fn route(&mut self, cols: &[ColumnData]) -> Result<Vec<Vec<ColumnData>>> {
        let n = cols.first().map_or(0, |c| c.len());
        let slices = self.total_slices as usize;
        match &self.style {
            DistStyle::All => Ok((0..slices).map(|_| cols.to_vec()).collect()),
            DistStyle::Even => {
                // Row `i` goes to slice `(cursor + i) % slices`: each slice
                // takes every `slices`-th row from its first one.
                let cursor = self.cursor as usize;
                let sel: Vec<Vec<u32>> = (0..slices)
                    .map(|s| ((s + slices - cursor) % slices..n).step_by(slices).map(|i| i as u32).collect())
                    .collect();
                self.cursor = ((cursor + n) % slices) as u32;
                Ok(gather_per_slice(cols, &sel))
            }
            DistStyle::Key(kc) => {
                let kc = *kc;
                if kc >= cols.len() {
                    return Err(RsError::Analysis(format!("distkey column {kc} out of range")));
                }
                let mut sel: Vec<Vec<u32>> = vec![Vec::new(); slices];
                let dest = key_slices(&cols[kc], None, slices as u64);
                dest.iter().enumerate().for_each(|(i, &d)| sel[d as usize].push(i as u32));
                Ok(gather_per_slice(cols, &sel))
            }
        }
    }

    /// Round-robin cursor position (EVEN distribution). The redo log
    /// persists this so recovery resumes the rotation exactly where the
    /// last committed batch left it — otherwise replayed and live
    /// clusters would route the *next* load differently.
    pub fn cursor(&self) -> u32 {
        self.cursor
    }

    /// Restore a cursor persisted by [`RowRouter::cursor`].
    pub fn set_cursor(&mut self, cursor: u32) {
        self.cursor = if self.total_slices == 0 { 0 } else { cursor % self.total_slices };
    }
}

fn gather_per_slice(cols: &[ColumnData], sel: &[Vec<u32>]) -> Vec<Vec<ColumnData>> {
    sel.iter()
        .map(|idx| cols.iter().map(|c| c.gather(idx)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::DataType;

    fn topo(nodes: u32, spn: u32) -> ClusterTopology {
        ClusterTopology::new(nodes, spn).unwrap()
    }

    fn key_col(n: i64) -> Vec<ColumnData> {
        let mut c = ColumnData::new(DataType::Int8);
        for i in 0..n {
            c.push_value(&Value::Int8(i)).unwrap();
        }
        vec![c]
    }

    #[test]
    fn even_round_robins_evenly() {
        let mut r = RowRouter::new(DistStyle::Even, &topo(2, 2));
        let parts = r.route(&key_col(100)).unwrap();
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert_eq!(p[0].len(), 25);
        }
        // The cursor persists across batches.
        let parts2 = r.route(&key_col(2)).unwrap();
        let counts: Vec<usize> = parts2.iter().map(|p| p[0].len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 2);
        // Row i goes to slice (cursor + i) % 4, as a rotation one row at
        // a time puts it, and the cursor moves on by the batch.
        for (cursor, n) in [(0, 0), (3, 1), (1, 7), (2, 101)] {
            r.set_cursor(cursor);
            for (slice, part) in r.route(&key_col(n)).unwrap().iter().enumerate() {
                let want: Vec<i64> = (0..n).filter(|i| (cursor as i64 + i) % 4 == slice as i64).collect();
                assert_eq!((0..part[0].len()).map(|i| part[0].get_i64(i).unwrap()).collect::<Vec<_>>(), want);
            }
            assert_eq!(r.cursor() as i64, (cursor as i64 + n) % 4);
        }
    }

    #[test]
    fn key_distribution_is_deterministic_and_balanced() {
        let mut r1 = RowRouter::new(DistStyle::Key(0), &topo(4, 2));
        let mut r2 = RowRouter::new(DistStyle::Key(0), &topo(4, 2));
        let a = r1.route(&key_col(8000)).unwrap();
        let b = r2.route(&key_col(8000)).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x[0].len(), y[0].len());
        }
        let counts: Vec<usize> = a.iter().map(|p| p[0].len()).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!((*max as f64) / (*min as f64) < 1.3, "counts {counts:?}");
    }

    #[test]
    fn same_key_same_slice_across_tables() {
        // Two tables with the same distkey values co-locate rows, and
        // widened integer types collide.
        let slices = topo(4, 2).total_slices() as u64;
        let mut r = RowRouter::new(DistStyle::Key(0), &topo(4, 2));
        let mut narrow = ColumnData::new(DataType::Int4);
        (0..1000).for_each(|k| narrow.push_value(&Value::Int4(k)).unwrap());
        let wide = key_col(1000);
        assert_eq!(key_slices(&narrow, None, slices), key_slices(&wide[0], None, slices));
        let routed = r.route(&wide).unwrap();
        for (slice, part) in routed.iter().enumerate() {
            let mut keys = (0..part[0].len()).map(|i| Value::Int8(part[0].get_i64(i).unwrap()));
            assert!(keys.all(|k| dist_hash(&k) % slices == slice as u64), "slice {slice}");
        }
    }

    #[test]
    fn keys_equal_by_sql_equality_hash_alike() {
        // Whatever their numeric types: a join re-hashing both sides, or
        // two tables distributed on them, must meet these rows.
        let dec = |units: i128, scale: u8| Value::Decimal { units, scale };
        for (a, b) in [
            (Value::Int4(2), dec(200, 2)),
            (dec(200, 2), dec(2000, 3)),
            (Value::Int8(2), Value::Float8(2.0)),
            (dec(-150, 2), Value::Float8(-1.5)),
            (Value::Float8(0.0), Value::Float8(-0.0)),
            (Value::Float8(f64::NAN), Value::Float8(-f64::NAN)),
        ] {
            assert!(a.eq_sql(&b), "{a:?} = {b:?}");
            assert_eq!(dist_hash(&a), dist_hash(&b), "{a:?} vs {b:?}");
        }
        assert_ne!(dist_hash(&dec(150, 2)), dist_hash(&Value::Int8(1)));
    }

    /// The typed router sends every row where `dist_hash` of its boxed
    /// value does: every distkey type, NULLs, whole and fractional floats
    /// and decimals, ±0.0 and NaN, all rows or a selection.
    #[test]
    fn key_slices_equal_dist_hash_of_each_value() {
        let values: Vec<Vec<Value>> = vec![
            (0..40).map(|i| Value::Bool(i % 3 == 0)).collect(),
            (0..40).map(|i| Value::Int2(i * 811 - 16_000)).collect(),
            (0..40).map(|i| Value::Int4(i * 99_991 - 7)).collect(),
            (0..40).map(|i| Value::Int8(i64::MIN + i * 0x0123_4567_89AB)).collect(),
            (0..40).map(|i| Value::Float8([0.0, -0.0, 2.0, 2.5, -1e300, f64::NAN, 9.3e18][i % 7] * i as f64)).collect(),
            (0..40).map(|i| Value::Str(["", "eu", "naïve", "日本"][i % 4].repeat(i % 3))).collect(),
            (0..40).map(|i| Value::Date(i * 37 - 700)).collect(),
            (0..40).map(|i| Value::Timestamp(i * 86_400_000_003)).collect(),
            (0..40).map(|i| Value::Decimal { units: (i as i128 - 20) * 125, scale: 2 }).collect(),
        ];
        for vals in values {
            let mut col = ColumnData::new(vals[0].data_type().unwrap());
            for (i, v) in vals.iter().enumerate() {
                col.push_value(if i % 5 == 4 { &Value::Null } else { v }).unwrap();
            }
            let ids: Vec<u32> = (0..col.len() as u32).filter(|i| i % 3 != 1).collect();
            for n in [1u64, 3, 4, 7] {
                let want = |i: usize| (dist_hash(&col.get(i)) % n) as u32;
                let all: Vec<u32> = (0..col.len()).map(want).collect();
                assert_eq!(key_slices(&col, None, n), all, "{:?} over {n}", col.data_type());
                let some: Vec<u32> = ids.iter().map(|&i| want(i as usize)).collect();
                assert_eq!(key_slices(&col, Some(&ids), n), some, "{:?} over {n}", col.data_type());
            }
        }
    }

    #[test]
    fn all_duplicates_everywhere() {
        let mut r = RowRouter::new(DistStyle::All, &topo(2, 2));
        let parts = r.route(&key_col(10)).unwrap();
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert_eq!(p[0].len(), 10);
        }
    }

    #[test]
    fn bad_key_column_rejected() {
        let mut r = RowRouter::new(DistStyle::Key(3), &topo(1, 1));
        assert!(r.route(&key_col(1)).is_err());
    }
}
