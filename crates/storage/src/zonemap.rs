//! Zone maps: per-block value-range metadata for block skipping.
//!
//! The paper (§6): Redshift "foregoes traditional indexes … and instead
//! focuses on sequential scan speed through compiled code execution and
//! column-block skipping based on value-ranges stored in memory", the
//! technique of Moerkotte's small materialized aggregates.

use redsim_common::codec::{Reader, Writer};
use redsim_common::{ColumnData, Result, RsError, Value};
use std::cmp::Ordering;

/// Min/max/null-count summary of one column within one block.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Smallest non-NULL value, `None` when the block is all NULL.
    pub min: Option<Value>,
    /// Largest non-NULL value.
    pub max: Option<Value>,
    pub null_count: u32,
    pub rows: u32,
}

impl ZoneMap {
    /// Build from a column segment.
    pub fn build(col: &ColumnData) -> ZoneMap {
        let mm = col.min_max();
        ZoneMap {
            min: mm.as_ref().map(|(a, _)| a.clone()),
            max: mm.map(|(_, b)| b),
            null_count: col.null_count() as u32,
            rows: col.len() as u32,
        }
    }

    /// Could any row in this block satisfy `value >= lo` (if `Some`) and
    /// `value <= hi` (if `Some`)? NULL rows never satisfy range predicates,
    /// so an all-NULL block is always prunable.
    pub fn may_overlap(&self, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        let (min, max) = match (&self.min, &self.max) {
            (Some(a), Some(b)) => (a, b),
            _ => return false, // all NULL
        };
        if let Some(lo) = lo {
            if max.cmp_sql(lo) == Ordering::Less {
                return false;
            }
        }
        if let Some(hi) = hi {
            if min.cmp_sql(hi) == Ordering::Greater {
                return false;
            }
        }
        true
    }

    /// Could this block contain `v` exactly?
    pub fn may_contain(&self, v: &Value) -> bool {
        self.may_overlap(Some(v), Some(v))
    }

    /// Merge with another zone map (VACUUM combines blocks; table-level
    /// stats fold per-block maps).
    pub fn merge(&self, other: &ZoneMap) -> ZoneMap {
        let pick = |a: &Option<Value>, b: &Option<Value>, want_less: bool| match (a, b) {
            (Some(x), Some(y)) => Some(
                if (x.cmp_sql(y) == Ordering::Less) == want_less { x.clone() } else { y.clone() },
            ),
            (Some(x), None) => Some(x.clone()),
            (None, Some(y)) => Some(y.clone()),
            (None, None) => None,
        };
        ZoneMap {
            min: pick(&self.min, &other.min, true),
            max: pick(&self.max, &other.max, false),
            null_count: self.null_count + other.null_count,
            rows: self.rows + other.rows,
        }
    }

    pub fn encode(&self, w: &mut Writer) {
        encode_value_opt(w, &self.min);
        encode_value_opt(w, &self.max);
        w.put_u32(self.null_count);
        w.put_u32(self.rows);
    }

    pub fn decode(r: &mut Reader) -> Result<ZoneMap> {
        Ok(ZoneMap {
            min: decode_value_opt(r)?,
            max: decode_value_opt(r)?,
            null_count: r.get_u32()?,
            rows: r.get_u32()?,
        })
    }
}

/// Serialize a scalar `Value` (used by zone maps, stats and the catalog).
pub fn encode_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Bool(b) => {
            w.put_u8(1);
            w.put_bool(*b);
        }
        Value::Int2(x) => {
            w.put_u8(2);
            w.put_i32(*x as i32);
        }
        Value::Int4(x) => {
            w.put_u8(3);
            w.put_i32(*x);
        }
        Value::Int8(x) => {
            w.put_u8(4);
            w.put_i64(*x);
        }
        Value::Float8(x) => {
            w.put_u8(5);
            w.put_f64(*x);
        }
        Value::Str(s) => {
            w.put_u8(6);
            w.put_str(s);
        }
        Value::Date(d) => {
            w.put_u8(7);
            w.put_i32(*d);
        }
        Value::Timestamp(t) => {
            w.put_u8(8);
            w.put_i64(*t);
        }
        Value::Decimal { units, scale } => {
            w.put_u8(9);
            w.put_i128(*units);
            w.put_u8(*scale);
        }
    }
}

/// Inverse of [`encode_value`].
pub fn decode_value(r: &mut Reader) -> Result<Value> {
    Ok(match r.get_u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.get_bool()?),
        2 => Value::Int2(r.get_i32()? as i16),
        3 => Value::Int4(r.get_i32()?),
        4 => Value::Int8(r.get_i64()?),
        5 => Value::Float8(r.get_f64()?),
        6 => Value::Str(r.get_str()?),
        7 => Value::Date(r.get_i32()?),
        8 => Value::Timestamp(r.get_i64()?),
        9 => Value::Decimal { units: r.get_i128()?, scale: r.get_u8()? },
        t => return Err(RsError::Codec(format!("unknown value tag {t}"))),
    })
}

pub(crate) fn encode_value_opt(w: &mut Writer, v: &Option<Value>) {
    match v {
        Some(v) => {
            w.put_bool(true);
            encode_value(w, v);
        }
        None => w.put_bool(false),
    }
}

pub(crate) fn decode_value_opt(r: &mut Reader) -> Result<Option<Value>> {
    if r.get_bool()? {
        Ok(Some(decode_value(r)?))
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::DataType;

    fn col(vals: &[Option<i64>]) -> ColumnData {
        let mut c = ColumnData::new(DataType::Int8);
        for v in vals {
            match v {
                Some(x) => c.push_value(&Value::Int8(*x)).unwrap(),
                None => c.push_null(),
            }
        }
        c
    }

    #[test]
    fn build_and_overlap() {
        let zm = ZoneMap::build(&col(&[Some(10), Some(20), None, Some(15)]));
        assert_eq!(zm.min.as_ref().unwrap().as_i64(), Some(10));
        assert_eq!(zm.max.as_ref().unwrap().as_i64(), Some(20));
        assert_eq!(zm.null_count, 1);
        assert!(zm.may_contain(&Value::Int8(15)));
        assert!(zm.may_contain(&Value::Int8(10)));
        assert!(!zm.may_contain(&Value::Int8(9)));
        assert!(!zm.may_contain(&Value::Int8(21)));
        assert!(zm.may_overlap(Some(&Value::Int8(18)), None));
        assert!(!zm.may_overlap(Some(&Value::Int8(21)), None));
        assert!(zm.may_overlap(None, Some(&Value::Int8(10))));
        assert!(!zm.may_overlap(None, Some(&Value::Int8(9))));
    }

    #[test]
    fn all_null_block_always_prunes() {
        let zm = ZoneMap::build(&col(&[None, None]));
        assert!(!zm.may_overlap(None, None) || zm.min.is_none());
        assert!(!zm.may_contain(&Value::Int8(0)));
    }

    #[test]
    fn merge_widens() {
        let a = ZoneMap::build(&col(&[Some(5), Some(10)]));
        let b = ZoneMap::build(&col(&[Some(-3), None]));
        let m = a.merge(&b);
        assert_eq!(m.min.unwrap().as_i64(), Some(-3));
        assert_eq!(m.max.unwrap().as_i64(), Some(10));
        assert_eq!(m.rows, 4);
        assert_eq!(m.null_count, 1);
    }

    #[test]
    fn value_codec_roundtrip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int2(-2),
            Value::Int4(7),
            Value::Int8(1 << 60),
            Value::Float8(2.5),
            Value::Str("zm".into()),
            Value::Date(16000),
            Value::Timestamp(123456789),
            Value::Decimal { units: -42, scale: 3 },
        ];
        let mut w = Writer::new();
        for v in &vals {
            encode_value(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in &vals {
            assert_eq!(&decode_value(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn zonemap_codec_roundtrip() {
        let zm = ZoneMap::build(&col(&[Some(1), None, Some(9)]));
        let mut w = Writer::new();
        zm.encode(&mut w);
        let bytes = w.into_bytes();
        let rt = ZoneMap::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(zm, rt);
    }

    fn fcol(vals: &[Option<f64>]) -> ColumnData {
        let mut c = ColumnData::new(DataType::Float8);
        for v in vals {
            match v {
                Some(x) => c.push_value(&Value::Float8(*x)).unwrap(),
                None => c.push_null(),
            }
        }
        c
    }

    #[test]
    fn float_nan_zone_map_build_and_overlap() {
        // cmp_sql orders NaN greater than every finite float, so a block
        // containing NaN has max = NaN and never prunes an upper-open
        // range probe.
        let zm = ZoneMap::build(&fcol(&[Some(1.0), Some(f64::NAN), Some(-2.0), None]));
        assert_eq!(zm.min.as_ref().unwrap().as_f64(), Some(-2.0));
        assert!(matches!(zm.max, Some(Value::Float8(x)) if x.is_nan()));
        assert_eq!(zm.null_count, 1);
        assert!(zm.may_contain(&Value::Float8(f64::NAN)), "NaN probe hits NaN max");
        assert!(zm.may_overlap(Some(&Value::Float8(1e300)), None), "NaN max blocks hi-open pruning");
        assert!(!zm.may_overlap(None, Some(&Value::Float8(-3.0))), "min still prunes below");

        // A NaN-free block prunes a NaN equality probe: max < NaN.
        let finite = ZoneMap::build(&fcol(&[Some(1.0), Some(2.0)]));
        assert!(!finite.may_contain(&Value::Float8(f64::NAN)));
    }

    #[test]
    fn float_nan_zone_map_merge_and_codec() {
        let a = ZoneMap::build(&fcol(&[Some(1.0), Some(2.0)]));
        let b = ZoneMap::build(&fcol(&[Some(f64::NAN)]));
        let m = a.merge(&b);
        assert_eq!(m.min.as_ref().unwrap().as_f64(), Some(1.0));
        assert!(matches!(m.max, Some(Value::Float8(x)) if x.is_nan()));
        assert_eq!((m.rows, m.null_count), (3, 0));

        // Encode/decode keeps the exact NaN bit pattern.
        let mut w = Writer::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        let rt = ZoneMap::decode(&mut Reader::new(&bytes)).unwrap();
        let (orig, back) = match (&m.max, &rt.max) {
            (Some(Value::Float8(x)), Some(Value::Float8(y))) => (*x, *y),
            other => panic!("expected Float8 maxes, got {other:?}"),
        };
        assert_eq!(orig.to_bits(), back.to_bits());
        assert_eq!(rt.min, m.min);
        assert_eq!((rt.rows, rt.null_count), (m.rows, m.null_count));
    }

    #[test]
    fn string_zone_maps() {
        let mut c = ColumnData::new(DataType::Varchar);
        for s in ["delta", "alpha", "omega"] {
            c.push_value(&Value::Str(s.into())).unwrap();
        }
        let zm = ZoneMap::build(&c);
        assert!(zm.may_contain(&Value::Str("beta".into())));
        assert!(!zm.may_contain(&Value::Str("zz".into())));
    }
}
