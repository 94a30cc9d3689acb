//! Typed column vectors — the unit of vectorized execution.
//!
//! A [`ColumnData`] holds one column's values for a batch (or a whole
//! block). Fixed-width types use plain `Vec`s; strings use [`StrVec`], an
//! offsets-into-arena layout that avoids per-value heap allocations on the
//! scan path, or — a join's dimension column — codes into a shared
//! dictionary.

use crate::bitmap::Bitmap;
use crate::error::{Result, RsError};
use crate::hash::FxHashMap;
use crate::types::{cmp_f64, DataType, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// A string vector in one of two forms, equal wherever both hold the
/// same strings:
///
/// - an **arena**: `offsets[i]..offsets[i+1]` indexes `bytes`. Storage,
///   codecs and the loader only ever write this form.
/// - **coded**: row `i` is entry `codes[i]` of `dict`, an arena shared
///   by every vector cut from the same one ([`StrVec::coded`]). A join
///   codes a build-side VARCHAR once, so gathering a row copies a `u32`
///   and GROUP BY reads the code. The dictionary always holds `""`, the
///   payload of a NULL slot.
///
/// Every reader (`get`, `bytes_at`, `gather`, compare, `Value`s) reads
/// through the dictionary; a write that cannot stay coded (a string
/// pushed, a row from another dictionary) turns the vector into an
/// arena first. Only [`StrVec::raw_parts`] needs the arena form: its
/// callers take [`StrVec::arena`] first.
#[derive(Debug, Clone)]
pub struct StrVec(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Arena { offsets: Vec<u32>, bytes: Vec<u8> },
    Coded { codes: Vec<u32>, dict: Arc<StrVec>, empty: u32 },
}

impl Default for StrVec {
    fn default() -> Self {
        StrVec::new()
    }
}

/// Equal strings, whatever the form.
impl PartialEq for StrVec {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.bytes_at(i) == other.bytes_at(i))
    }
}

impl Eq for StrVec {}

impl StrVec {
    pub fn new() -> Self {
        StrVec::with_capacity(0, 0)
    }

    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StrVec(Repr::Arena { offsets, bytes: Vec::with_capacity(bytes) })
    }

    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Arena { offsets, .. } => offsets.len() - 1,
            Repr::Coded { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of string payload held: the arena's, or a coded vector's
    /// dictionary's.
    pub fn byte_len(&self) -> usize {
        match &self.0 {
            Repr::Arena { bytes, .. } => bytes.len(),
            Repr::Coded { dict, .. } => dict.byte_len(),
        }
    }

    /// Heap bytes the vector reads: payload plus one `u32` per row — an
    /// arena's offset, a coded vector's code — and, coded, one per
    /// dictionary entry. A coded vector counts its whole dictionary,
    /// though every vector cut from it shares one.
    pub fn byte_size(&self) -> usize {
        match &self.0 {
            Repr::Arena { bytes, .. } => bytes.len() + 4 * self.len(),
            Repr::Coded { codes, dict, .. } => 4 * codes.len() + dict.byte_size(),
        }
    }

    pub fn push(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// Append text known to be UTF-8 (another `StrVec`'s row).
    fn push_bytes(&mut self, s: &[u8]) {
        let (offsets, bytes) = self.arena_mut();
        bytes.extend_from_slice(s);
        offsets.push(bytes.len() as u32);
    }

    /// Append the payload of a NULL slot: `""`, coded or not.
    pub fn push_null(&mut self) {
        match &mut self.0 {
            Repr::Coded { codes, empty, .. } => codes.push(*empty),
            Repr::Arena { .. } => self.push_bytes(b""),
        }
    }

    /// Append row `i` of `src`: its code when both share a dictionary,
    /// else its bytes (turning a coded `self` into an arena).
    pub fn push_from(&mut self, src: &StrVec, i: usize) {
        match (&mut self.0, &src.0) {
            (Repr::Coded { codes, dict, .. }, Repr::Coded { codes: s, dict: d, .. })
                if Arc::ptr_eq(dict, d) =>
            {
                codes.push(s[i])
            }
            _ => self.push_bytes(src.bytes_at(i)),
        }
    }

    #[inline]
    pub fn get(&self, i: usize) -> &str {
        // SAFETY-free: only `&str` payloads are ever pushed.
        std::str::from_utf8(self.bytes_at(i)).expect("StrVec holds valid UTF-8")
    }

    /// Row `i` as raw bytes: what [`StrVec::get`] returns, minus the
    /// per-call UTF-8 check. Byte-wise kernels (LIKE, string compares)
    /// read this.
    #[inline]
    pub fn bytes_at(&self, i: usize) -> &[u8] {
        match &self.0 {
            Repr::Arena { offsets, bytes } => slot(offsets, bytes, i),
            Repr::Coded { codes, dict, .. } => dict.entry(codes[i] as usize),
        }
    }

    /// Entry `i` of a dictionary, which is always an arena.
    #[inline]
    fn entry(&self, i: usize) -> &[u8] {
        match &self.0 {
            Repr::Arena { offsets, bytes } => slot(offsets, bytes, i),
            Repr::Coded { .. } => unreachable!("a dictionary is an arena"),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Rows `idx`, in that form; the rows `nulls` marks NULL get the NULL
    /// payload. Indices out of range panic.
    pub fn gather(&self, idx: &[u32], nulls: &Bitmap) -> StrVec {
        let all = nulls.all_set();
        match &self.0 {
            Repr::Coded { codes, dict, empty } => {
                let codes = match all {
                    true => idx.iter().map(|&i| codes[i as usize]).collect(),
                    false => (idx.iter())
                        .map(|&i| if nulls.get(i as usize) { codes[i as usize] } else { *empty })
                        .collect(),
                };
                StrVec(Repr::Coded { codes, dict: Arc::clone(dict), empty: *empty })
            }
            Repr::Arena { offsets, bytes } => {
                let mut out_offsets = Vec::with_capacity(idx.len() + 1);
                let mut out = Vec::new();
                out_offsets.push(0);
                for &i in idx {
                    let i = i as usize;
                    if all || nulls.get(i) {
                        // Raw arena copy: no per-row UTF-8 revalidation.
                        out.extend_from_slice(slot(offsets, bytes, i));
                    }
                    out_offsets.push(out.len() as u32);
                }
                StrVec(Repr::Arena { offsets: out_offsets, bytes: out })
            }
        }
    }

    /// An empty vector of the same form: coded ones share the dictionary.
    fn empty_like(&self) -> StrVec {
        match &self.0 {
            Repr::Arena { .. } => StrVec::new(),
            Repr::Coded { dict, empty, .. } => {
                StrVec(Repr::Coded { codes: Vec::new(), dict: Arc::clone(dict), empty: *empty })
            }
        }
    }

    /// Append rows `from..to` of `src`, those `nulls` marks NULL as the
    /// NULL payload: what [`StrVec::push_from`] and [`StrVec::push_null`]
    /// row by row leave, one bulk copy where the rows allow it. A coded
    /// vector stays coded for rows of its dictionary and for NULLs.
    fn extend_range(&mut self, src: &StrVec, nulls: &Bitmap, from: usize, to: usize) {
        let all = nulls.null_count() == 0 || (from..to).all(|i| nulls.get(i));
        match (&mut self.0, &src.0) {
            (Repr::Coded { codes, dict, empty }, Repr::Coded { codes: s, dict: d, .. })
                if Arc::ptr_eq(dict, d) =>
            {
                let start = codes.len();
                codes.extend_from_slice(&s[from..to]);
                if !all {
                    (from..to).filter(|&i| !nulls.get(i)).for_each(|i| codes[start + i - from] = *empty);
                }
            }
            (Repr::Coded { codes, empty, .. }, _) if (from..to).all(|i| !nulls.get(i)) => {
                codes.resize(codes.len() + to - from, *empty)
            }
            (_, Repr::Arena { offsets: so, bytes: sb }) if all => {
                let (offsets, bytes) = self.arena_mut();
                let (lo, base) = (so[from], bytes.len() as u32);
                bytes.extend_from_slice(&sb[lo as usize..so[to] as usize]);
                offsets.extend(so[from + 1..=to].iter().map(|&o| o - lo + base));
            }
            _ => (from..to).for_each(|i| match nulls.get(i) {
                true => self.push_bytes(src.bytes_at(i)),
                false => self.push_null(),
            }),
        }
    }

    /// The coded form: one dictionary of the distinct strings, first-seen
    /// order, then `""` if no row holds it.
    pub fn coded(&self) -> StrVec {
        if let Repr::Coded { .. } = self.0 {
            return self.clone();
        }
        let mut dict = StrVec::new();
        let mut seen: FxHashMap<&[u8], u32> = FxHashMap::default();
        let rows = (0..self.len()).map(|i| self.bytes_at(i));
        let mut codes: Vec<u32> = (rows.chain([&b""[..]]))
            .map(|s| {
                *seen.entry(s).or_insert_with(|| {
                    dict.push_bytes(s);
                    dict.len() as u32 - 1
                })
            })
            .collect();
        let empty = codes.pop().expect("the code of \"\"");
        dict.shrink_to_fit();
        StrVec(Repr::Coded { codes, dict: Arc::new(dict), empty })
    }

    /// A coded vector's codes and dictionary; `None` for an arena.
    pub fn as_coded(&self) -> Option<(&[u32], &Arc<StrVec>)> {
        match &self.0 {
            Repr::Coded { codes, dict, .. } => Some((codes, dict)),
            Repr::Arena { .. } => None,
        }
    }

    /// The arena form: borrowed when it is one, else materialised.
    pub fn arena(&self) -> Cow<'_, StrVec> {
        match &self.0 {
            Repr::Arena { .. } => Cow::Borrowed(self),
            Repr::Coded { .. } => {
                let mut out = StrVec::with_capacity(self.len(), 0);
                (0..self.len()).for_each(|i| out.push_bytes(self.bytes_at(i)));
                Cow::Owned(out)
            }
        }
    }

    /// The arena's offsets and bytes, turning a coded vector into an
    /// arena first.
    fn arena_mut(&mut self) -> (&mut Vec<u32>, &mut Vec<u8>) {
        if let Repr::Coded { .. } = self.0 {
            *self = self.arena().into_owned();
        }
        match &mut self.0 {
            Repr::Arena { offsets, bytes } => (offsets, bytes),
            Repr::Coded { .. } => unreachable!("made an arena above"),
        }
    }

    pub fn shrink_to_fit(&mut self) {
        match &mut self.0 {
            Repr::Arena { offsets, bytes } => {
                offsets.shrink_to_fit();
                bytes.shrink_to_fit();
            }
            Repr::Coded { codes, .. } => codes.shrink_to_fit(),
        }
    }

    /// Access the raw arena (offsets, bytes) for codecs. Only an arena
    /// has them: a caller that may hold a coded vector reads
    /// `v.arena().raw_parts()`.
    pub fn raw_parts(&self) -> (&[u32], &[u8]) {
        match &self.0 {
            Repr::Arena { offsets, bytes } => (offsets, bytes),
            Repr::Coded { .. } => panic!("raw_parts of a coded StrVec: read arena() first"),
        }
    }

    /// Rebuild from raw parts, validating monotonicity and UTF-8: the
    /// bytes as a whole, and every row starting on a character boundary
    /// (so each row is UTF-8 on its own, as [`StrVec::get`] expects).
    pub fn from_raw_parts(offsets: Vec<u32>, bytes: Vec<u8>) -> Result<Self> {
        if offsets.first() != Some(&0)
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last().copied().unwrap_or(0) as usize != bytes.len()
        {
            return Err(RsError::Codec("corrupt StrVec offsets".into()));
        }
        let not_utf8 = || RsError::Codec("StrVec not UTF-8".into());
        std::str::from_utf8(&bytes).map_err(|_| not_utf8())?;
        // A continuation byte (0b10xx_xxxx) never starts a character.
        if offsets.iter().any(|&o| bytes.get(o as usize).is_some_and(|&b| b & 0xC0 == 0x80)) {
            return Err(not_utf8());
        }
        Ok(StrVec(Repr::Arena { offsets, bytes }))
    }
}

/// Row `i` of an arena.
#[inline]
fn slot<'a>(offsets: &[u32], bytes: &'a [u8], i: usize) -> &'a [u8] {
    &bytes[offsets[i] as usize..offsets[i + 1] as usize]
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
                data.push_null();
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
                let out_nulls = match nulls.all_set() {
                    true => Bitmap::all_valid(idx.len()),
                    false => Bitmap::from_iter(idx.iter().map(|&i| nulls.get(i as usize))),
                };
                ColumnData::Str { data: data.gather(idx, nulls), nulls: out_nulls }
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
                data.push_from(s, i);
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
        self.extend_range(other, 0, other.len());
    }

    /// Slice out rows `[from, to)` as a new column, in this form.
    pub fn slice(&self, from: usize, to: usize) -> ColumnData {
        let mut out = match self {
            ColumnData::Str { data, .. } => ColumnData::Str { data: data.empty_like(), nulls: Bitmap::new() },
            other => ColumnData::new(other.data_type()),
        };
        out.extend_range(self, from, to);
        out
    }

    /// Append rows `from..to` of `src` (same type): one typed bulk copy of
    /// the payload and one word-level extend of the validity bits. A NULL
    /// slot holds the default payload, as [`ColumnData::push_from`] row by
    /// row leaves it.
    pub fn extend_range(&mut self, src: &ColumnData, from: usize, to: usize) {
        let nulls = src.nulls();
        macro_rules! fixed {
            ($data:expr, $s:expr) => {{
                let start = $data.len();
                $data.extend_from_slice(&$s[from..to]);
                if nulls.null_count() > 0 {
                    let slots = &mut $data[start..];
                    (from..to).filter(|&i| !nulls.get(i)).for_each(|i| slots[i - from] = Default::default());
                }
            }};
        }
        match (&mut *self, src) {
            (ColumnData::Bool { data, .. }, ColumnData::Bool { data: s, .. }) => fixed!(data, s),
            (ColumnData::Int2 { data, .. }, ColumnData::Int2 { data: s, .. }) => fixed!(data, s),
            (ColumnData::Int4 { data, .. }, ColumnData::Int4 { data: s, .. }) => fixed!(data, s),
            (ColumnData::Int8 { data, .. }, ColumnData::Int8 { data: s, .. }) => fixed!(data, s),
            (ColumnData::Float8 { data, .. }, ColumnData::Float8 { data: s, .. }) => fixed!(data, s),
            (ColumnData::Date { data, .. }, ColumnData::Date { data: s, .. }) => fixed!(data, s),
            (ColumnData::Timestamp { data, .. }, ColumnData::Timestamp { data: s, .. }) => fixed!(data, s),
            (ColumnData::Decimal { data, .. }, ColumnData::Decimal { data: s, .. }) => fixed!(data, s),
            (ColumnData::Str { data, .. }, ColumnData::Str { data: s, .. }) => {
                data.extend_range(s, nulls, from, to)
            }
            (me, src) => panic!(
                "extend_range type mismatch: {:?} <- {:?}",
                me.data_type(),
                src.data_type()
            ),
        }
        for_each_variant!(self, _d, n => n.extend_range(nulls, from, to));
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
            ColumnData::Str { data, .. } => data.byte_size(),
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

    type StrSet<'a> = std::collections::HashSet<&'a str>;

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
        // Valid UTF-8 as a whole, but "é" is cut between two rows.
        let e = "é".as_bytes().to_vec();
        assert!(StrVec::from_raw_parts(vec![0, 2], e.clone()).is_ok());
        assert!(matches!(StrVec::from_raw_parts(vec![0, 1, 2], e), Err(RsError::Codec(_))));
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

    /// A VARCHAR column of `vals` (`None`: NULL) and its coded twin.
    fn arena_and_coded(vals: &[Option<&str>]) -> (ColumnData, ColumnData) {
        let mut c = ColumnData::new(DataType::Varchar);
        for v in vals {
            c.push_value(&v.map_or(Value::Null, |s| Value::Str(s.into()))).unwrap();
        }
        let ColumnData::Str { data, nulls } = &c else { unreachable!() };
        let coded = ColumnData::Str { data: data.coded(), nulls: nulls.clone() };
        (c, coded)
    }

    fn is_coded(c: &ColumnData) -> bool {
        matches!(c, ColumnData::Str { data, .. } if data.as_coded().is_some())
    }

    /// Every row read three ways, and the raw bytes.
    fn rows(c: &ColumnData) -> Vec<(Value, Option<String>, Vec<u8>)> {
        let ColumnData::Str { data, .. } = c else { unreachable!() };
        (0..c.len())
            .map(|i| (c.get(i), c.get_str(i).map(str::to_string), data.bytes_at(i).to_vec()))
            .collect()
    }

    /// Every `StrVec` / `ColumnData` operation on a coded vector equals the
    /// same operation on its arena, with and without NULLs, and the reads
    /// that can stay coded do.
    #[test]
    fn coded_equals_arena() {
        let cases: [&[Option<&str>]; 5] = [
            &[],
            &[Some("eu"), Some("na"), Some("eu"), Some("apac"), Some("na")],
            &[Some("eu"), None, Some(""), Some("wörld"), None, Some("eu")],
            &[None, None],
            &[Some("b"), Some("a"), Some("é"), Some("a\u{0}"), Some(""), Some("b")],
        ];
        for vals in cases {
            let (arena, coded) = arena_and_coded(vals);
            let ColumnData::Str { data: ad, .. } = &arena else { unreachable!() };
            let ColumnData::Str { data: cd, .. } = &coded else { unreachable!() };
            assert!(is_coded(&coded) && !is_coded(&arena));
            // Reads, Values, PartialEq both ways, iteration.
            assert_eq!(rows(&coded), rows(&arena), "{vals:?}");
            assert_eq!(coded, arena);
            assert_eq!(arena, coded);
            assert_eq!(cd.iter().collect::<Vec<_>>(), ad.iter().collect::<Vec<_>>());
            assert_eq!(coded.null_count(), arena.null_count());
            // The dictionary holds each distinct string once, and "".
            let (codes, dict) = cd.as_coded().unwrap();
            assert_eq!(codes.len(), vals.len());
            let distinct: StrSet = dict.iter().collect();
            assert_eq!(distinct.len(), dict.len());
            assert!(distinct.contains(""));
            // gather (repeats, reversed, empty) and slice stay coded.
            let n = vals.len() as u32;
            let reversed: Vec<u32> = (0..n).rev().collect();
            for idx in [reversed, (0..n).flat_map(|i| [i, i]).collect(), vec![]] {
                let (a, c) = (arena.gather(&idx), coded.gather(&idx));
                assert!(is_coded(&c));
                assert_eq!(rows(&c), rows(&a));
                assert_eq!(c.nulls(), a.nulls());
            }
            for (from, to) in [(0, vals.len()), (vals.len() / 2, vals.len()), (0, 0)] {
                let (a, c) = (arena.slice(from, to), coded.slice(from, to));
                assert!(is_coded(&c));
                assert_eq!(rows(&c), rows(&a));
            }
            // push_null stays coded; push_from a vector of the same
            // dictionary stays coded, from any other turns into an arena.
            let (mut a, mut c) = (arena.clone(), coded.clone());
            a.push_null();
            c.push_null();
            assert!(is_coded(&c));
            assert_eq!(rows(&c), rows(&a));
            for i in 0..vals.len() {
                a.push_from(&arena, i);
                c.push_from(&coded, i);
            }
            assert!(is_coded(&c));
            assert_eq!(rows(&c), rows(&a));
            a.append(&coded);
            c.append(&coded);
            assert!(is_coded(&c));
            assert_eq!(rows(&c), rows(&a));
            let mut into_arena = ColumnData::new(DataType::Varchar);
            into_arena.append(&coded);
            assert!(!is_coded(&into_arena));
            assert_eq!(rows(&into_arena), rows(&arena));
            let (_, other_dict) = arena_and_coded(vals);
            for (src, what) in [(&arena, "an arena"), (&other_dict, "another dictionary")] {
                let mut c = coded.clone();
                c.append(src);
                // Only a NULL row (its payload is coded) keeps it coded.
                assert_eq!(is_coded(&c), src.null_count() == src.len(), "appending {what}");
                let mut a = arena.clone();
                a.append(src);
                assert_eq!(rows(&c), rows(&a), "appending {what}");
            }
            let mut pushed = cd.clone();
            pushed.push("new");
            assert!(pushed.as_coded().is_none());
            assert_eq!(pushed.get(vals.len()), "new");
            // Compare and sort: the same order row by row.
            let order = |c: &ColumnData| {
                let mut idx: Vec<usize> = (0..c.len()).collect();
                idx.sort_by(|&x, &y| c.get(x).cmp_sql(&c.get(y)).then(x.cmp(&y)));
                idx
            };
            assert_eq!(order(&coded), order(&arena));
            let key = |mm: Option<(Value, Value)>| mm.map(|(a, b)| (exact(&a), exact(&b)));
            assert_eq!(key(coded.min_max()), key(arena.min_max()));
            // The arena form is the original's bytes exactly.
            assert_eq!(cd.arena().raw_parts(), ad.raw_parts());
            assert!(matches!(ad.arena(), Cow::Borrowed(_)));
            // byte_size: the codes, plus the whole dictionary (payload and
            // an offset per entry), plus the validity bits.
            let dict_bytes = dict.byte_len() + 4 * dict.len();
            assert_eq!(coded.byte_size(), 4 * vals.len() + dict_bytes + vals.len().div_ceil(8));
            assert_eq!(arena.byte_size(), ad.byte_len() + 4 * vals.len() + vals.len().div_ceil(8));
        }
    }

    /// Bulk `append` / `slice` / `extend_range` leave exactly what the
    /// per-row definitions they replaced leave — `push_from` row by row,
    /// and a gather of `from..to` — down to the form (arena or coded, which
    /// dictionary), the NULL payloads and the validity words: every
    /// variant, payload garbage under NULLs, every alignment of the bits,
    /// and coded vectors that do and do not share a dictionary.
    #[test]
    fn bulk_moves_equal_the_per_row_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let strs = ["", "a", "bc", "é", "日本", "zz"];
        let mut checked = 0;
        for case in 0..3_000u64 {
            let len = next(150) as usize;
            let density = [0, 64, next(64)][case as usize % 3];
            let nulls = Bitmap::from_iter((0..len).map(|_| next(64) >= density));
            let words: StrVec = (0..len).map(|_| strs[next(6) as usize]).collect();
            let mut ints = || (0..len).map(|_| next(9) as i64 - 4).collect::<Vec<i64>>();
            let col = match case % 11 {
                0 => ColumnData::Bool { data: ints().iter().map(|&v| v > 0).collect(), nulls },
                1 => ColumnData::Int2 { data: ints().iter().map(|&v| v as i16).collect(), nulls },
                2 => ColumnData::Int4 { data: ints().iter().map(|&v| v as i32).collect(), nulls },
                3 => ColumnData::Int8 { data: ints(), nulls },
                4 => ColumnData::Float8 { data: ints().iter().map(|&v| v as f64 / 3.0).collect(), nulls },
                5 => ColumnData::Date { data: ints().iter().map(|&v| v as i32).collect(), nulls },
                6 => ColumnData::Timestamp { data: ints(), nulls },
                7 => ColumnData::Decimal { data: ints().iter().map(|&v| v as i128).collect(), scale: 2, nulls },
                8 => ColumnData::Str { data: words, nulls },
                _ => ColumnData::Str { data: words.coded(), nulls },
            };
            let (a, b) = (next(len as u64 + 1) as usize, next(len as u64 + 1) as usize);
            let (from, to) = (a.min(b), a.max(b));
            let rows: Vec<u32> = (from..to).map(|i| i as u32).collect();
            let gathered = col.gather(&rows);
            assert_eq!(format!("{:?}", col.slice(from, to)), format!("{gathered:?}"), "case {case}");
            // Destinations: empty; a head of the source's rows (of its
            // dictionary, when coded); for strings, a coded head of another.
            let head = col.slice(0, next(len as u64 + 1) as usize);
            let mut dsts = vec![ColumnData::new(col.data_type()), head.clone()];
            if let ColumnData::Str { data, nulls } = &head {
                // A head cut from a coded source shares its dictionary;
                // this one never does.
                dsts.push(ColumnData::Str { data: data.arena().coded(), nulls: nulls.clone() });
            }
            for dst in dsts {
                let (mut bulk, mut by_row) = (dst.clone(), dst);
                bulk.extend_range(&col, from, to);
                (from..to).for_each(|i| by_row.push_from(&col, i));
                assert_eq!(format!("{bulk:?}"), format!("{by_row:?}"), "case {case}, {from}..{to}");
                checked += 1;
            }
            let mut appended = head.clone();
            appended.append(&col);
            let mut by_row = head;
            (0..col.len()).for_each(|i| by_row.push_from(&col, i));
            assert_eq!(format!("{appended:?}"), format!("{by_row:?}"), "case {case}");
        }
        assert!(checked > 6_000, "{checked}");
    }

    #[test]
    #[should_panic(expected = "raw_parts of a coded StrVec")]
    fn raw_parts_refuses_a_coded_vector() {
        let v: StrVec = ["a", "b"].into_iter().collect();
        let _ = v.coded().raw_parts();
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
