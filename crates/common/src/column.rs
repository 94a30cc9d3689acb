//! Typed column vectors — the unit of vectorized execution.
//!
//! A [`ColumnData`] holds one column's values for a batch (or a whole
//! block). Fixed-width types use plain `Vec`s; strings use [`StrVec`], an
//! offsets-into-arena layout that avoids per-value heap allocations on the
//! scan path.

use crate::bitmap::Bitmap;
use crate::error::{Result, RsError};
use crate::types::{cmp_f64, DataType, Value};
use std::cmp::Ordering;

/// Arena-backed string vector: `offsets[i]..offsets[i+1]` indexes `bytes`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StrVec {
    offsets: Vec<u32>,
    bytes: Vec<u8>,
}

impl StrVec {
    pub fn new() -> Self {
        StrVec { offsets: vec![0], bytes: Vec::new() }
    }

    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StrVec { offsets, bytes: Vec::with_capacity(bytes) }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of string payload.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len() as u32);
    }

    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let (a, b) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        // SAFETY-free: only `&str` payloads are ever pushed.
        std::str::from_utf8(&self.bytes[a..b]).expect("StrVec holds valid UTF-8")
    }

    /// Row `i` as raw bytes: what [`StrVec::get`] returns, minus the
    /// per-call UTF-8 check. Byte-wise kernels (LIKE, string compares)
    /// read this.
    #[inline]
    pub fn bytes_at(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    pub fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.bytes.shrink_to_fit();
    }

    /// Access the raw arena (offsets, bytes) for codecs.
    pub fn raw_parts(&self) -> (&[u32], &[u8]) {
        (&self.offsets, &self.bytes)
    }

    /// Rebuild from raw parts, validating monotonicity and UTF-8.
    pub fn from_raw_parts(offsets: Vec<u32>, bytes: Vec<u8>) -> Result<Self> {
        if offsets.first() != Some(&0)
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last().copied().unwrap_or(0) as usize != bytes.len()
        {
            return Err(RsError::Codec("corrupt StrVec offsets".into()));
        }
        std::str::from_utf8(&bytes).map_err(|_| RsError::Codec("StrVec not UTF-8".into()))?;
        Ok(StrVec { offsets, bytes })
    }
}

impl<'a> FromIterator<&'a str> for StrVec {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> Self {
        let mut v = StrVec::new();
        for s in iter {
            v.push(s);
        }
        v
    }
}

/// A typed vector of values for one column, with a validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Bool { data: Vec<bool>, nulls: Bitmap },
    Int2 { data: Vec<i16>, nulls: Bitmap },
    Int4 { data: Vec<i32>, nulls: Bitmap },
    Int8 { data: Vec<i64>, nulls: Bitmap },
    Float8 { data: Vec<f64>, nulls: Bitmap },
    Str { data: StrVec, nulls: Bitmap },
    Date { data: Vec<i32>, nulls: Bitmap },
    Timestamp { data: Vec<i64>, nulls: Bitmap },
    Decimal { data: Vec<i128>, scale: u8, nulls: Bitmap },
}

macro_rules! for_each_variant {
    ($self:expr, $data:ident, $nulls:ident => $body:expr) => {
        match $self {
            ColumnData::Bool { data: $data, nulls: $nulls } => $body,
            ColumnData::Int2 { data: $data, nulls: $nulls } => $body,
            ColumnData::Int4 { data: $data, nulls: $nulls } => $body,
            ColumnData::Int8 { data: $data, nulls: $nulls } => $body,
            ColumnData::Float8 { data: $data, nulls: $nulls } => $body,
            ColumnData::Str { data: $data, nulls: $nulls } => $body,
            ColumnData::Date { data: $data, nulls: $nulls } => $body,
            ColumnData::Timestamp { data: $data, nulls: $nulls } => $body,
            ColumnData::Decimal { data: $data, nulls: $nulls, .. } => $body,
        }
    };
}

impl ColumnData {
    /// An empty column of the given type.
    pub fn new(ty: DataType) -> Self {
        match ty {
            DataType::Bool => ColumnData::Bool { data: Vec::new(), nulls: Bitmap::new() },
            DataType::Int2 => ColumnData::Int2 { data: Vec::new(), nulls: Bitmap::new() },
            DataType::Int4 => ColumnData::Int4 { data: Vec::new(), nulls: Bitmap::new() },
            DataType::Int8 => ColumnData::Int8 { data: Vec::new(), nulls: Bitmap::new() },
            DataType::Float8 => ColumnData::Float8 { data: Vec::new(), nulls: Bitmap::new() },
            DataType::Varchar => ColumnData::Str { data: StrVec::new(), nulls: Bitmap::new() },
            DataType::Date => ColumnData::Date { data: Vec::new(), nulls: Bitmap::new() },
            DataType::Timestamp => {
                ColumnData::Timestamp { data: Vec::new(), nulls: Bitmap::new() }
            }
            DataType::Decimal(_, scale) => {
                ColumnData::Decimal { data: Vec::new(), scale, nulls: Bitmap::new() }
            }
        }
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Bool { .. } => DataType::Bool,
            ColumnData::Int2 { .. } => DataType::Int2,
            ColumnData::Int4 { .. } => DataType::Int4,
            ColumnData::Int8 { .. } => DataType::Int8,
            ColumnData::Float8 { .. } => DataType::Float8,
            ColumnData::Str { .. } => DataType::Varchar,
            ColumnData::Date { .. } => DataType::Date,
            ColumnData::Timestamp { .. } => DataType::Timestamp,
            ColumnData::Decimal { scale, .. } => DataType::Decimal(38, *scale),
        }
    }

    pub fn len(&self) -> usize {
        for_each_variant!(self, d, _n => d.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn null_count(&self) -> usize {
        for_each_variant!(self, _d, n => n.null_count())
    }

    pub fn nulls(&self) -> &Bitmap {
        for_each_variant!(self, _d, n => n)
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        !self.nulls().get(i)
    }

    /// Append a scalar, coercing to this column's type.
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            self.push_null();
            return Ok(());
        }
        let coerced = v.coerce_to(self.data_type())?;
        match (self, coerced) {
            (ColumnData::Bool { data, nulls }, Value::Bool(x)) => {
                data.push(x);
                nulls.push(true);
            }
            (ColumnData::Int2 { data, nulls }, Value::Int2(x)) => {
                data.push(x);
                nulls.push(true);
            }
            (ColumnData::Int4 { data, nulls }, Value::Int4(x)) => {
                data.push(x);
                nulls.push(true);
            }
            (ColumnData::Int8 { data, nulls }, Value::Int8(x)) => {
                data.push(x);
                nulls.push(true);
            }
            (ColumnData::Float8 { data, nulls }, Value::Float8(x)) => {
                data.push(x);
                nulls.push(true);
            }
            (ColumnData::Str { data, nulls }, Value::Str(x)) => {
                data.push(&x);
                nulls.push(true);
            }
            (ColumnData::Date { data, nulls }, Value::Date(x)) => {
                data.push(x);
                nulls.push(true);
            }
            (ColumnData::Timestamp { data, nulls }, Value::Timestamp(x)) => {
                data.push(x);
                nulls.push(true);
            }
            (ColumnData::Decimal { data, nulls, .. }, Value::Decimal { units, .. }) => {
                data.push(units);
                nulls.push(true);
            }
            _ => return Err(RsError::Execution("type mismatch after coercion".into())),
        }
        Ok(())
    }

    /// Append a NULL (pushes a default payload slot to keep vectors dense).
    pub fn push_null(&mut self) {
        match self {
            ColumnData::Bool { data, nulls } => {
                data.push(false);
                nulls.push(false);
            }
            ColumnData::Int2 { data, nulls } => {
                data.push(0);
                nulls.push(false);
            }
            ColumnData::Int4 { data, nulls } => {
                data.push(0);
                nulls.push(false);
            }
            ColumnData::Int8 { data, nulls } => {
                data.push(0);
                nulls.push(false);
            }
            ColumnData::Float8 { data, nulls } => {
                data.push(0.0);
                nulls.push(false);
            }
            ColumnData::Str { data, nulls } => {
                data.push("");
                nulls.push(false);
            }
            ColumnData::Date { data, nulls } => {
                data.push(0);
                nulls.push(false);
            }
            ColumnData::Timestamp { data, nulls } => {
                data.push(0);
                nulls.push(false);
            }
            ColumnData::Decimal { data, nulls, .. } => {
                data.push(0);
                nulls.push(false);
            }
        }
    }

    /// Materialize row `i` as a scalar `Value`.
    pub fn get(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            ColumnData::Bool { data, .. } => Value::Bool(data[i]),
            ColumnData::Int2 { data, .. } => Value::Int2(data[i]),
            ColumnData::Int4 { data, .. } => Value::Int4(data[i]),
            ColumnData::Int8 { data, .. } => Value::Int8(data[i]),
            ColumnData::Float8 { data, .. } => Value::Float8(data[i]),
            ColumnData::Str { data, .. } => Value::Str(data.get(i).to_string()),
            ColumnData::Date { data, .. } => Value::Date(data[i]),
            ColumnData::Timestamp { data, .. } => Value::Timestamp(data[i]),
            ColumnData::Decimal { data, scale, .. } => {
                Value::Decimal { units: data[i], scale: *scale }
            }
        }
    }

    /// Widen row `i` to i64 for hashing/joining on integer-family keys.
    /// Returns `None` for NULL or non-integer types.
    #[inline]
    pub fn get_i64(&self, i: usize) -> Option<i64> {
        if self.is_null(i) {
            return None;
        }
        match self {
            ColumnData::Int2 { data, .. } => Some(data[i] as i64),
            ColumnData::Int4 { data, .. } => Some(data[i] as i64),
            ColumnData::Int8 { data, .. } => Some(data[i]),
            ColumnData::Date { data, .. } => Some(data[i] as i64),
            ColumnData::Timestamp { data, .. } => Some(data[i]),
            ColumnData::Bool { data, .. } => Some(data[i] as i64),
            _ => None,
        }
    }

    /// Widen row `i` to f64 for numeric expressions. `None` when NULL or
    /// non-numeric.
    #[inline]
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        if self.is_null(i) {
            return None;
        }
        match self {
            ColumnData::Float8 { data, .. } => Some(data[i]),
            ColumnData::Decimal { data, scale, .. } => {
                Some(data[i] as f64 / 10f64.powi(*scale as i32))
            }
            _ => self.get_i64(i).map(|v| v as f64),
        }
    }

    /// String view of row `i` (Varchar only, non-NULL).
    #[inline]
    pub fn get_str(&self, i: usize) -> Option<&str> {
        if self.is_null(i) {
            return None;
        }
        match self {
            ColumnData::Str { data, .. } => Some(data.get(i)),
            _ => None,
        }
    }

    /// Gather rows by index (join materialization, densifying a
    /// selection). Typed per-variant loops (one match, then a straight
    /// copy) rather than per-row [`ColumnData::push_from`]; NULL payload
    /// slots are re-normalized to the default payload, exactly like
    /// `push_null`. Indices out of range panic.
    pub fn gather(&self, idx: &[u32]) -> ColumnData {
        macro_rules! fixed {
            ($variant:ident, $data:expr, $nulls:expr $(, $f:ident : $fv:expr)?) => {{
                if $nulls.all_set() {
                    // No NULLs to carry over: a plain indexed copy.
                    let data = idx.iter().map(|&i| $data[i as usize]).collect();
                    let nulls = Bitmap::all_valid(idx.len());
                    return ColumnData::$variant { data, nulls $(, $f: $fv)? };
                }
                let mut data = Vec::with_capacity(idx.len());
                let mut nulls = Bitmap::new();
                for &i in idx {
                    let i = i as usize;
                    let ok = $nulls.get(i);
                    data.push(if ok { $data[i] } else { Default::default() });
                    nulls.push(ok);
                }
                ColumnData::$variant { data, nulls $(, $f: $fv)? }
            }};
        }
        match self {
            ColumnData::Bool { data, nulls } => fixed!(Bool, data, nulls),
            ColumnData::Int2 { data, nulls } => fixed!(Int2, data, nulls),
            ColumnData::Int4 { data, nulls } => fixed!(Int4, data, nulls),
            ColumnData::Int8 { data, nulls } => fixed!(Int8, data, nulls),
            ColumnData::Float8 { data, nulls } => fixed!(Float8, data, nulls),
            ColumnData::Date { data, nulls } => fixed!(Date, data, nulls),
            ColumnData::Timestamp { data, nulls } => fixed!(Timestamp, data, nulls),
            ColumnData::Decimal { data, nulls, scale } => {
                fixed!(Decimal, data, nulls, scale: *scale)
            }
            ColumnData::Str { data, nulls } => {
                let mut out = StrVec::with_capacity(idx.len(), 0);
                if nulls.all_set() {
                    // No NULLs to carry over: arena copies only.
                    for &i in idx {
                        out.bytes.extend_from_slice(data.bytes_at(i as usize));
                        out.offsets.push(out.bytes.len() as u32);
                    }
                    return ColumnData::Str { data: out, nulls: Bitmap::all_valid(idx.len()) };
                }
                let mut out_nulls = Bitmap::new();
                for &i in idx {
                    let i = i as usize;
                    let ok = nulls.get(i);
                    if ok {
                        // Raw arena copy: no per-row UTF-8 revalidation.
                        out.bytes.extend_from_slice(data.bytes_at(i));
                    }
                    out.offsets.push(out.bytes.len() as u32);
                    out_nulls.push(ok);
                }
                ColumnData::Str { data: out, nulls: out_nulls }
            }
        }
    }

    /// Append row `i` of `src` (same type) without a Value round-trip.
    pub fn push_from(&mut self, src: &ColumnData, i: usize) {
        if src.is_null(i) {
            self.push_null();
            return;
        }
        match (self, src) {
            (ColumnData::Bool { data, nulls }, ColumnData::Bool { data: s, .. }) => {
                data.push(s[i]);
                nulls.push(true);
            }
            (ColumnData::Int2 { data, nulls }, ColumnData::Int2 { data: s, .. }) => {
                data.push(s[i]);
                nulls.push(true);
            }
            (ColumnData::Int4 { data, nulls }, ColumnData::Int4 { data: s, .. }) => {
                data.push(s[i]);
                nulls.push(true);
            }
            (ColumnData::Int8 { data, nulls }, ColumnData::Int8 { data: s, .. }) => {
                data.push(s[i]);
                nulls.push(true);
            }
            (ColumnData::Float8 { data, nulls }, ColumnData::Float8 { data: s, .. }) => {
                data.push(s[i]);
                nulls.push(true);
            }
            (ColumnData::Str { data, nulls }, ColumnData::Str { data: s, .. }) => {
                data.push(s.get(i));
                nulls.push(true);
            }
            (ColumnData::Date { data, nulls }, ColumnData::Date { data: s, .. }) => {
                data.push(s[i]);
                nulls.push(true);
            }
            (ColumnData::Timestamp { data, nulls }, ColumnData::Timestamp { data: s, .. }) => {
                data.push(s[i]);
                nulls.push(true);
            }
            (ColumnData::Decimal { data, nulls, .. }, ColumnData::Decimal { data: s, .. }) => {
                data.push(s[i]);
                nulls.push(true);
            }
            (me, src) => panic!(
                "push_from type mismatch: {:?} <- {:?}",
                me.data_type(),
                src.data_type()
            ),
        }
    }

    /// Append all rows of `other` (same type).
    pub fn append(&mut self, other: &ColumnData) {
        for i in 0..other.len() {
            self.push_from(other, i);
        }
    }

    /// Slice out rows `[from, to)` as a new column.
    pub fn slice(&self, from: usize, to: usize) -> ColumnData {
        let mut out = ColumnData::new(self.data_type());
        for i in from..to {
            out.push_from(self, i);
        }
        out
    }

    /// Non-NULL min/max as `Value`s (zone-map construction): the *first*
    /// minimum and the *first* maximum among the valid rows under
    /// [`Value::cmp_sql`], `None` when every row is NULL. One typed fold
    /// per variant, in the order `cmp_sql` gives that type — native for
    /// integers, DATE and TIMESTAMP, `false < true`, byte order for
    /// VARCHAR, [`cmp_f64`] for FLOAT8 (so of -0.0 / 0.0, or of two NaN
    /// payloads, the first one's bits win) and for DECIMAL through `f64`,
    /// as `cmp_sql` compares two decimals; only the two winners become
    /// `Value`s.
    pub fn min_max(&self) -> Option<(Value, Value)> {
        macro_rules! native {
            ($variant:ident, $data:expr, $nulls:expr) => {{
                let (a, b) = first_extremes($data.iter().copied(), $nulls, |a, b| a < b)?;
                (Value::$variant(a), Value::$variant(b))
            }};
        }
        let less_f64 = |a: f64, b: f64| cmp_f64(a, b) == Ordering::Less;
        Some(match self {
            ColumnData::Bool { data, nulls } => native!(Bool, data, nulls),
            ColumnData::Int2 { data, nulls } => native!(Int2, data, nulls),
            ColumnData::Int4 { data, nulls } => native!(Int4, data, nulls),
            ColumnData::Int8 { data, nulls } => native!(Int8, data, nulls),
            ColumnData::Date { data, nulls } => native!(Date, data, nulls),
            ColumnData::Timestamp { data, nulls } => native!(Timestamp, data, nulls),
            ColumnData::Float8 { data, nulls } => {
                let (a, b) = first_extremes(data.iter().copied(), nulls, less_f64)?;
                (Value::Float8(a), Value::Float8(b))
            }
            ColumnData::Str { data, nulls } => {
                let rows = (0..data.len()).map(|i| data.bytes_at(i));
                let (a, b) = first_extremes(rows, nulls, |a, b| a < b)?;
                let text = |s| std::str::from_utf8(s).expect("StrVec holds valid UTF-8").to_string();
                (Value::Str(text(a)), Value::Str(text(b)))
            }
            ColumnData::Decimal { data, scale, nulls } => {
                // `Value::as_f64`'s conversion, carrying the exact units.
                let unit = 10f64.powi(*scale as i32);
                let rows = data.iter().map(|&u| (u as f64 / unit, u));
                let (a, b) = first_extremes(rows, nulls, |a, b| less_f64(a.0, b.0))?;
                let scale = *scale;
                (Value::Decimal { units: a.1, scale }, Value::Decimal { units: b.1, scale })
            }
        })
    }

    /// Release spare capacity, for a column kept long after it was built
    /// (a cached result).
    pub fn shrink_to_fit(&mut self) {
        for_each_variant!(self, data, nulls => {
            data.shrink_to_fit();
            nulls.shrink_to_fit();
        })
    }

    /// Approximate heap bytes held (uncompressed footprint accounting).
    pub fn byte_size(&self) -> usize {
        let payload = match self {
            ColumnData::Bool { data, .. } => data.len(),
            ColumnData::Int2 { data, .. } => data.len() * 2,
            ColumnData::Int4 { data, .. } | ColumnData::Date { data, .. } => data.len() * 4,
            ColumnData::Int8 { data, .. } | ColumnData::Timestamp { data, .. } => data.len() * 8,
            ColumnData::Float8 { data, .. } => data.len() * 8,
            ColumnData::Str { data, .. } => data.byte_len() + 4 * data.len(),
            ColumnData::Decimal { data, .. } => data.len() * 16,
        };
        payload + self.len().div_ceil(8)
    }
}

/// The first minimum and the first maximum of the valid rows of `vals`
/// under the strict order `less`: a later value replaces a winner only
/// when strictly beyond it. `None` when no row is valid.
fn first_extremes<T: Copy>(
    vals: impl Iterator<Item = T>,
    nulls: &Bitmap,
    less: impl Fn(T, T) -> bool,
) -> Option<(T, T)> {
    fn fold<T: Copy>(mut vals: impl Iterator<Item = T>, less: impl Fn(T, T) -> bool) -> Option<(T, T)> {
        let first = vals.next()?;
        Some(vals.fold((first, first), |(mn, mx), v| {
            (if less(v, mn) { v } else { mn }, if less(mx, v) { v } else { mx })
        }))
    }
    if nulls.all_set() {
        fold(vals, less)
    } else {
        fold(vals.enumerate().filter(|&(i, _)| nulls.get(i)).map(|(_, v)| v), less)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strvec_roundtrip() {
        let mut v = StrVec::new();
        v.push("hello");
        v.push("");
        v.push("wörld");
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(0), "hello");
        assert_eq!(v.get(1), "");
        assert_eq!(v.get(2), "wörld");
        let (off, bytes) = v.raw_parts();
        let rt = StrVec::from_raw_parts(off.to_vec(), bytes.to_vec()).unwrap();
        assert_eq!(v, rt);
    }

    #[test]
    fn strvec_rejects_corrupt_offsets() {
        assert!(StrVec::from_raw_parts(vec![0, 5, 3], vec![0; 3]).is_err());
        assert!(StrVec::from_raw_parts(vec![1, 2], vec![0; 2]).is_err());
    }

    #[test]
    fn push_and_get_values() {
        let mut c = ColumnData::new(DataType::Int4);
        c.push_value(&Value::Int4(1)).unwrap();
        c.push_value(&Value::Null).unwrap();
        c.push_value(&Value::Int8(3)).unwrap(); // coerces down
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0).as_i64(), Some(1));
        assert!(c.get(1).is_null());
        assert_eq!(c.get_i64(2), Some(3));
    }

    #[test]
    fn gather_by_index() {
        let mut c = ColumnData::new(DataType::Varchar);
        for s in ["a", "b", "c", "d"] {
            c.push_value(&Value::Str(s.into())).unwrap();
        }
        let g = c.gather(&[3, 0, 0]);
        assert_eq!(g.get_str(0), Some("d"));
        assert_eq!(g.get_str(2), Some("a"));
    }

    #[test]
    fn min_max_skips_nulls() {
        let mut c = ColumnData::new(DataType::Int8);
        c.push_null();
        c.push_value(&Value::Int8(5)).unwrap();
        c.push_value(&Value::Int8(-2)).unwrap();
        let (mn, mx) = c.min_max().unwrap();
        assert_eq!(mn.as_i64(), Some(-2));
        assert_eq!(mx.as_i64(), Some(5));
        let empty = ColumnData::new(DataType::Int8);
        assert!(empty.min_max().is_none());
    }

    /// The definition `min_max` must equal: every valid row boxed as a
    /// `Value` and folded through `cmp_sql`, a winner replaced only by a
    /// strictly smaller (larger) row.
    fn boxed_min_max(c: &ColumnData) -> Option<(Value, Value)> {
        let mut mn: Option<Value> = None;
        let mut mx: Option<Value> = None;
        for i in (0..c.len()).filter(|&i| !c.is_null(i)) {
            let v = c.get(i);
            match &mn {
                None => {
                    mn = Some(v.clone());
                    mx = Some(v);
                }
                Some(curmin) => {
                    if v.cmp_sql(curmin) == Ordering::Less {
                        mn = Some(v.clone());
                    }
                    if v.cmp_sql(mx.as_ref().unwrap()) == Ordering::Greater {
                        mx = Some(v);
                    }
                }
            }
        }
        mn.zip(mx)
    }

    /// A value's exact identity: floats by their bits (NaN payload, sign
    /// of zero), everything else by its debug form.
    fn exact(v: &Value) -> String {
        match v {
            Value::Float8(f) => format!("Float8({:#018x})", f.to_bits()),
            v => format!("{v:?}"),
        }
    }

    /// The typed fold equals the boxed one, bit for bit, over random
    /// columns of every variant: no NULLs, some NULLs (with extreme
    /// payloads under them), all NULL and empty; values drawn from small
    /// pools so extremes repeat; NaN payloads of both signs, -0.0 / 0.0 in
    /// both orders and infinities; DECIMAL units beyond 2^53, where
    /// distinct units share an `f64`.
    #[test]
    fn typed_min_max_equals_the_boxed_fold() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let floats = [
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_0002),
            f64::from_bits(0x7FF0_0000_0000_0003),
            f64::MIN_POSITIVE,
        ];
        let strs = ["", "a", "ab", "abc", "b", "B", "é", "ée", "zz", "a\u{0}"];
        let big = 1i128 << 60;
        let units = [0, 1, -1, 150, -150, big, big + 1, big + 2, -big, -big - 1, i64::MAX as i128 * 4];
        let mut checked = 0;
        for case in 0..4_000u64 {
            let len = (next() % 48) as usize;
            let density = match case % 4 {
                0 => 0,  // no NULLs
                1 => 64, // all NULL
                _ => next() % 64,
            };
            let valid: Vec<bool> = (0..len).map(|_| next() % 64 >= density).collect();
            let nulls = Bitmap::from_iter(valid.iter().copied());
            let mut pick = |n: usize| (next() % n as u64) as usize;
            let col = match case % 9 {
                0 => ColumnData::Bool { data: (0..len).map(|_| pick(2) == 1).collect(), nulls },
                1 => ColumnData::Int2 { data: (0..len).map(|_| pick(7) as i16 - 3).collect(), nulls },
                2 => ColumnData::Int4 {
                    data: (0..len).map(|_| [i32::MIN, -5, 0, 5, i32::MAX][pick(5)]).collect(),
                    nulls,
                },
                3 => ColumnData::Int8 {
                    data: (0..len).map(|_| [i64::MIN, -9, 0, 9, i64::MAX][pick(5)]).collect(),
                    nulls,
                },
                4 => ColumnData::Float8 { data: (0..len).map(|_| floats[pick(floats.len())]).collect(), nulls },
                5 => ColumnData::Str { data: (0..len).map(|_| strs[pick(strs.len())]).collect(), nulls },
                6 => ColumnData::Date { data: (0..len).map(|_| pick(9) as i32 - 4).collect(), nulls },
                7 => ColumnData::Timestamp { data: (0..len).map(|_| pick(9) as i64 * 1_000_003).collect(), nulls },
                _ => ColumnData::Decimal {
                    data: (0..len).map(|_| units[pick(units.len())]).collect(),
                    scale: pick(5) as u8,
                    nulls,
                },
            };
            let key = |mm: Option<(Value, Value)>| mm.map(|(a, b)| (exact(&a), exact(&b)));
            assert_eq!(key(col.min_max()), key(boxed_min_max(&col)), "case {case}: {col:?}");
            checked += usize::from(col.min_max().is_some());
        }
        assert!(checked > 2_000, "too few columns had a valid row: {checked}");
    }

    #[test]
    fn decimal_column_scale_preserved() {
        let mut c = ColumnData::new(DataType::Decimal(10, 2));
        c.push_value(&Value::Decimal { units: 150, scale: 2 }).unwrap();
        c.push_value(&Value::Int4(2)).unwrap();
        assert_eq!(c.get(0).to_string(), "1.50");
        assert_eq!(c.get(1).to_string(), "2.00");
        assert_eq!(c.get_f64(0), Some(1.5));
    }

    #[test]
    fn append_and_slice() {
        let mut a = ColumnData::new(DataType::Int4);
        let mut b = ColumnData::new(DataType::Int4);
        for i in 0..5 {
            a.push_value(&Value::Int4(i)).unwrap();
            b.push_value(&Value::Int4(10 + i)).unwrap();
        }
        a.append(&b);
        assert_eq!(a.len(), 10);
        let s = a.slice(4, 6);
        assert_eq!(s.get_i64(0), Some(4));
        assert_eq!(s.get_i64(1), Some(10));
    }
}
