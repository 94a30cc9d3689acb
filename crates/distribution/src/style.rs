//! Distribution styles and the row router.

use crate::topology::{ClusterTopology, SliceId};
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
        Value::Float8(_) | Value::Decimal { .. } => {
            let f = canon_f64(v.as_f64().expect("numeric"));
            if f.fract() == 0.0 && f.abs() < 9.2e18 {
                fx_hash64(&(f as i64))
            } else {
                fx_hash64(&f.to_bits())
            }
        }
        Value::Null => 0, // all NULL keys co-locate (matches Redshift)
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
                let mut sel: Vec<Vec<u32>> = vec![Vec::new(); slices];
                for i in 0..n {
                    sel[self.cursor as usize].push(i as u32);
                    self.cursor = (self.cursor + 1) % self.total_slices;
                }
                Ok(gather_per_slice(cols, &sel))
            }
            DistStyle::Key(kc) => {
                let kc = *kc;
                if kc >= cols.len() {
                    return Err(RsError::Analysis(format!("distkey column {kc} out of range")));
                }
                let mut sel: Vec<Vec<u32>> = vec![Vec::new(); slices];
                for i in 0..n {
                    let h = dist_hash(&cols[kc].get(i));
                    sel[(h % self.total_slices as u64) as usize].push(i as u32);
                }
                Ok(gather_per_slice(cols, &sel))
            }
        }
    }

    /// Which slice does a single key value belong to? (Join-time
    /// redistribution uses this.)
    pub fn slice_for_key(&self, v: &Value) -> SliceId {
        SliceId((dist_hash(v) % self.total_slices as u64) as u32)
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
        // Two tables with the same distkey values co-locate rows.
        let t = topo(4, 2);
        let r1 = RowRouter::new(DistStyle::Key(0), &t);
        let r2 = RowRouter::new(DistStyle::Key(0), &t);
        for k in 0..1000i64 {
            assert_eq!(
                r1.slice_for_key(&Value::Int8(k)),
                r2.slice_for_key(&Value::Int8(k))
            );
        }
        // Widened integer types collide.
        assert_eq!(
            r1.slice_for_key(&Value::Int4(42)),
            r1.slice_for_key(&Value::Int8(42))
        );
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
