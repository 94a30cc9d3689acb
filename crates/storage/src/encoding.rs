//! Per-column compression codecs.
//!
//! Mirrors Redshift's encoding family (§2.1, §6): raw, run-length,
//! delta, byte-dictionary, mostly-8/16/32, and LZ (here LZSS) for text.
//! Every encoded segment is self-describing — decoding needs only the
//! bytes — so blocks can be shipped to S3, another node, or a restored
//! cluster without side metadata.
//!
//! Wire format (all little-endian, via `redsim_common::codec`):
//!
//! ```text
//! u8   encoding tag
//! u8   data-type tag, u8 precision, u8 scale
//! u32  row count
//! u32  null-bitmap word count, then raw u64 words
//! u32  payload byte length, then payload (per-encoding)
//! ```

use crate::lzss;
use crate::varint::{read_ivarint, write_ivarint};
use redsim_common::codec::{Reader, Writer};
use redsim_common::{Bitmap, ColumnData, DataType, Result, RsError, StrVec};

/// Available column encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// No compression.
    Raw,
    /// Run-length: (count, value) pairs.
    Rle,
    /// First value + zigzag-varint deltas (integer family + decimals).
    Delta,
    /// Byte dictionary: ≤ 65,536 distinct values per block.
    Dict,
    /// 8-bit values with an exception list.
    Mostly8,
    /// 16-bit values with an exception list.
    Mostly16,
    /// 32-bit values with an exception list.
    Mostly32,
    /// LZSS over the raw text payload (VARCHAR only).
    Lzss,
}

impl Encoding {
    pub const ALL: [Encoding; 8] = [
        Encoding::Raw,
        Encoding::Rle,
        Encoding::Delta,
        Encoding::Dict,
        Encoding::Mostly8,
        Encoding::Mostly16,
        Encoding::Mostly32,
        Encoding::Lzss,
    ];

    pub fn tag(self) -> u8 {
        match self {
            Encoding::Raw => 0,
            Encoding::Rle => 1,
            Encoding::Delta => 2,
            Encoding::Dict => 3,
            Encoding::Mostly8 => 4,
            Encoding::Mostly16 => 5,
            Encoding::Mostly32 => 6,
            Encoding::Lzss => 7,
        }
    }

    pub fn from_tag(t: u8) -> Result<Self> {
        Self::ALL
            .into_iter()
            .find(|e| e.tag() == t)
            .ok_or_else(|| RsError::Codec(format!("unknown encoding tag {t}")))
    }

    /// Can this encoding represent a column of type `ty` at all?
    /// (The analyzer additionally checks data-dependent limits like
    /// dictionary cardinality.)
    pub fn applicable_to(self, ty: DataType) -> bool {
        match self {
            Encoding::Raw | Encoding::Rle | Encoding::Dict => true,
            Encoding::Delta => {
                ty.is_integer()
                    || matches!(ty, DataType::Date | DataType::Timestamp | DataType::Decimal(_, _))
            }
            Encoding::Mostly8 | Encoding::Mostly16 | Encoding::Mostly32 => {
                // Narrowing below the natural width must be possible.
                let natural = match ty {
                    DataType::Int2 => 2,
                    DataType::Int4 | DataType::Date => 4,
                    DataType::Int8 | DataType::Timestamp => 8,
                    DataType::Decimal(_, _) => 16,
                    _ => return false,
                };
                let narrow = match self {
                    Encoding::Mostly8 => 1,
                    Encoding::Mostly16 => 2,
                    _ => 4,
                };
                narrow < natural
            }
            Encoding::Lzss => ty == DataType::Varchar,
        }
    }
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Encoding::Raw => "raw",
            Encoding::Rle => "runlength",
            Encoding::Delta => "delta",
            Encoding::Dict => "bytedict",
            Encoding::Mostly8 => "mostly8",
            Encoding::Mostly16 => "mostly16",
            Encoding::Mostly32 => "mostly32",
            Encoding::Lzss => "lzo", // Redshift's text encoding slot
        };
        f.write_str(s)
    }
}

// ---------------------------------------------------------------------
// Widened views: every non-varchar column maps onto i128 (bools 0/1,
// floats via to_bits) so the integer codecs share one implementation.
// ---------------------------------------------------------------------

fn widen(col: &ColumnData) -> Option<Vec<i128>> {
    Some(match col {
        ColumnData::Bool { data, .. } => data.iter().map(|&b| b as i128).collect(),
        ColumnData::Int2 { data, .. } => data.iter().map(|&v| v as i128).collect(),
        ColumnData::Int4 { data, .. } | ColumnData::Date { data, .. } => {
            data.iter().map(|&v| v as i128).collect()
        }
        ColumnData::Int8 { data, .. } | ColumnData::Timestamp { data, .. } => {
            data.iter().map(|&v| v as i128).collect()
        }
        ColumnData::Decimal { data, .. } => data.clone(),
        ColumnData::Float8 { .. } | ColumnData::Str { .. } => return None,
    })
}

/// A payload slot of an integer-family column, for the codecs whose
/// wire values are widened to `i128`: decoding converts each value
/// straight into the column's own width.
trait IntSlot: Copy {
    fn from_wide(v: i128) -> Option<Self>;
}

impl IntSlot for bool {
    fn from_wide(v: i128) -> Option<Self> {
        Some(v != 0)
    }
}

macro_rules! int_slot {
    ($($t:ty),*) => {$(
        impl IntSlot for $t {
            #[inline]
            fn from_wide(v: i128) -> Option<Self> {
                <$t>::try_from(v).ok()
            }
        }
    )*};
}
int_slot!(i16, i32, i64, i128);

fn out_of_range(v: i128, ty: DataType) -> RsError {
    RsError::Codec(format!("decoded value {v} out of range for {ty}"))
}

/// Build the `ty` column whose payload `$decode::<slot type>($args)`
/// produces — the inverse of [`widen`].
macro_rules! int_column {
    ($ty:expr, $nulls:expr, $decode:ident($($arg:expr),*)) => {
        match $ty {
            DataType::Bool => ColumnData::Bool { data: $decode($($arg),*)?, nulls: $nulls },
            DataType::Int2 => ColumnData::Int2 { data: $decode($($arg),*)?, nulls: $nulls },
            DataType::Int4 => ColumnData::Int4 { data: $decode($($arg),*)?, nulls: $nulls },
            DataType::Date => ColumnData::Date { data: $decode($($arg),*)?, nulls: $nulls },
            DataType::Int8 => ColumnData::Int8 { data: $decode($($arg),*)?, nulls: $nulls },
            DataType::Timestamp => {
                ColumnData::Timestamp { data: $decode($($arg),*)?, nulls: $nulls }
            }
            DataType::Decimal(_, s) => {
                ColumnData::Decimal { data: $decode($($arg),*)?, scale: s, nulls: $nulls }
            }
            DataType::Float8 | DataType::Varchar => {
                return Err(RsError::Codec(format!("{} is not an integer-family type", $ty)))
            }
        }
    };
}

/// Delta stream: `rows` zigzag varints, each the step from the previous
/// value.
fn decode_delta<T: IntSlot>(buf: &[u8], rows: usize, ty: DataType) -> Result<Vec<T>> {
    // Every varint takes at least a byte: bound the allocation by the
    // bytes actually present, not by the header's row count.
    if rows > buf.len() {
        return Err(RsError::Codec("delta stream shorter than its row count".into()));
    }
    let mut out = Vec::with_capacity(rows);
    let mut pos = 0usize;
    let mut prev = 0i128;
    for _ in 0..rows {
        prev += read_ivarint(buf, &mut pos)?;
        out.push(T::from_wide(prev).ok_or_else(|| out_of_range(prev, ty))?);
    }
    Ok(out)
}

/// Mostly-N: `width`-byte little-endian slots, then the exception list
/// (`n_exc` × (u32 row, zigzag varint value)) patched over them.
fn decode_mostly<T: IntSlot>(
    narrow: &[u8],
    width: usize,
    exceptions: &[u8],
    n_exc: usize,
    ty: DataType,
) -> Result<Vec<T>> {
    let slot = |v: i128| T::from_wide(v).ok_or_else(|| out_of_range(v, ty));
    let mut out: Vec<T> = match width {
        1 => narrow.iter().map(|&b| slot(b as i8 as i128)).collect::<Result<_>>()?,
        2 => narrow
            .chunks_exact(2)
            .map(|c| slot(i16::from_le_bytes([c[0], c[1]]) as i128))
            .collect::<Result<_>>()?,
        _ => narrow
            .chunks_exact(4)
            .map(|c| slot(i32::from_le_bytes([c[0], c[1], c[2], c[3]]) as i128))
            .collect::<Result<_>>()?,
    };
    let mut pos = 0usize;
    for _ in 0..n_exc {
        if pos + 4 > exceptions.len() {
            return Err(RsError::Codec("mostly-N exception list truncated".into()));
        }
        let idx = u32::from_le_bytes(exceptions[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        let v = read_ivarint(exceptions, &mut pos)?;
        *out.get_mut(idx).ok_or_else(|| {
            RsError::Codec("mostly-N exception index out of range".into())
        })? = slot(v)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Raw payloads (also the base representation for Dict entries and LZSS).
// ---------------------------------------------------------------------

fn write_raw_payload(col: &ColumnData, w: &mut Writer) {
    match col {
        ColumnData::Bool { data, .. } => {
            for &b in data {
                w.put_u8(b as u8);
            }
        }
        ColumnData::Int2 { data, .. } => {
            for &v in data {
                w.put_raw(&v.to_le_bytes());
            }
        }
        ColumnData::Int4 { data, .. } | ColumnData::Date { data, .. } => {
            for &v in data {
                w.put_i32(v);
            }
        }
        ColumnData::Int8 { data, .. } | ColumnData::Timestamp { data, .. } => {
            for &v in data {
                w.put_i64(v);
            }
        }
        ColumnData::Float8 { data, .. } => {
            for &v in data {
                w.put_f64(v);
            }
        }
        ColumnData::Decimal { data, .. } => {
            for &v in data {
                w.put_i128(v);
            }
        }
        ColumnData::Str { data, .. } => {
            let (offsets, bytes) = data.raw_parts();
            w.put_u32(offsets.len() as u32);
            for &o in offsets {
                w.put_u32(o);
            }
            w.put_bytes(bytes);
        }
    }
}

fn read_raw_payload(ty: DataType, rows: usize, nulls: Bitmap, r: &mut Reader) -> Result<ColumnData> {
    // Fixed-width payloads: one bounds check for the whole column, then
    // a straight little-endian conversion per slot.
    macro_rules! fixed {
        ($t:ty) => {
            r.get_raw(rows * std::mem::size_of::<$t>())?
                .chunks_exact(std::mem::size_of::<$t>())
                .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunk is one slot wide")))
                .collect()
        };
    }
    Ok(match ty {
        DataType::Bool => {
            ColumnData::Bool { data: r.get_raw(rows)?.iter().map(|&b| b != 0).collect(), nulls }
        }
        DataType::Int2 => ColumnData::Int2 { data: fixed!(i16), nulls },
        DataType::Int4 => ColumnData::Int4 { data: fixed!(i32), nulls },
        DataType::Date => ColumnData::Date { data: fixed!(i32), nulls },
        DataType::Int8 => ColumnData::Int8 { data: fixed!(i64), nulls },
        DataType::Timestamp => ColumnData::Timestamp { data: fixed!(i64), nulls },
        DataType::Float8 => ColumnData::Float8 { data: fixed!(f64), nulls },
        DataType::Decimal(_, s) => ColumnData::Decimal { data: fixed!(i128), scale: s, nulls },
        DataType::Varchar => {
            let n_off = r.get_u32()? as usize;
            if n_off != rows + 1 {
                return Err(RsError::Codec("StrVec offset count mismatch".into()));
            }
            let offsets = r
                .get_raw(n_off * 4)?
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            let bytes = r.get_bytes()?.to_vec();
            ColumnData::Str { data: StrVec::from_raw_parts(offsets, bytes)?, nulls }
        }
    })
}

// Single-value writers used by Dict entries and RLE run values. Strings
// are length-prefixed; fixed types use their natural width.
fn write_one(col: &ColumnData, i: usize, w: &mut Writer) {
    match col {
        ColumnData::Bool { data, .. } => w.put_u8(data[i] as u8),
        ColumnData::Int2 { data, .. } => w.put_raw(&data[i].to_le_bytes()),
        ColumnData::Int4 { data, .. } | ColumnData::Date { data, .. } => w.put_i32(data[i]),
        ColumnData::Int8 { data, .. } | ColumnData::Timestamp { data, .. } => w.put_i64(data[i]),
        ColumnData::Float8 { data, .. } => w.put_f64(data[i]),
        ColumnData::Decimal { data, .. } => w.put_i128(data[i]),
        ColumnData::Str { data, .. } => w.put_str(data.get(i)),
    }
}

fn read_one_into(out: &mut ColumnData, r: &mut Reader) -> Result<()> {
    match out {
        ColumnData::Bool { data, nulls } => {
            data.push(r.get_u8()? != 0);
            nulls.push(true);
        }
        ColumnData::Int2 { data, nulls } => {
            data.push(i16::from_le_bytes(r.get_raw(2)?.try_into().unwrap()));
            nulls.push(true);
        }
        ColumnData::Int4 { data, nulls } | ColumnData::Date { data, nulls } => {
            data.push(r.get_i32()?);
            nulls.push(true);
        }
        ColumnData::Int8 { data, nulls } | ColumnData::Timestamp { data, nulls } => {
            data.push(r.get_i64()?);
            nulls.push(true);
        }
        ColumnData::Float8 { data, nulls } => {
            data.push(r.get_f64()?);
            nulls.push(true);
        }
        ColumnData::Decimal { data, nulls, .. } => {
            data.push(r.get_i128()?);
            nulls.push(true);
        }
        ColumnData::Str { data, nulls } => {
            data.push(&r.get_str()?);
            nulls.push(true);
        }
    }
    Ok(())
}

/// Physical equality of two slots (NULL payload slots compare by their
/// default payload, which is what run-length wants).
fn slot_eq(col: &ColumnData, a: usize, b: usize) -> bool {
    match col {
        ColumnData::Bool { data, .. } => data[a] == data[b],
        ColumnData::Int2 { data, .. } => data[a] == data[b],
        ColumnData::Int4 { data, .. } | ColumnData::Date { data, .. } => data[a] == data[b],
        ColumnData::Int8 { data, .. } | ColumnData::Timestamp { data, .. } => data[a] == data[b],
        ColumnData::Float8 { data, .. } => data[a].to_bits() == data[b].to_bits(),
        ColumnData::Decimal { data, .. } => data[a] == data[b],
        ColumnData::Str { data, .. } => {
            // Strict raw-byte comparison: indexes the offset table
            // directly so an out-of-range index panics like every other
            // arm (instead of any lenient "absent == absent" outcome
            // silently fusing RLE runs), and skips per-slot UTF-8
            // revalidation on this hot loop.
            let (off, bytes) = data.raw_parts();
            let ra = off[a] as usize..off[a + 1] as usize;
            let rb = off[b] as usize..off[b + 1] as usize;
            bytes[ra] == bytes[rb]
        }
    }
}

/// FxHasher's word mix, inlined over a byte slice (no trait dispatch,
/// no length-prefix round); length folded in last so zero-padding can't
/// alias two strings of different lengths.
#[inline]
fn hash_bytes(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    // Single-word fast path for short strings (the common dictionary
    // case): one load, two mixes, no chunk iterator.
    if bytes.len() <= 8 {
        let mut buf = [0u8; 8];
        buf[..bytes.len()].copy_from_slice(bytes);
        let h = u64::from_le_bytes(buf).wrapping_mul(SEED);
        return (h.rotate_left(5) ^ bytes.len() as u64).wrapping_mul(SEED);
    }
    let mut h = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h.rotate_left(5) ^ u64::from_le_bytes(c.try_into().unwrap())).wrapping_mul(SEED);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(buf)).wrapping_mul(SEED);
    }
    (h.rotate_left(5) ^ bytes.len() as u64).wrapping_mul(SEED)
}

/// Open-addressing (linear probe) map from slot content to dictionary
/// code, keyed by per-variant typed hashes (`mix64` on the raw payload
/// word, `hash_bytes` on string arena bytes — consistent with
/// [`slot_eq`]: slot-equal implies hash-equal, floats by bit pattern)
/// and verified against the first-occurrence row — no owned key bytes,
/// no per-row allocation.
struct SlotDict {
    /// `(hash, first_row, code)`; `first_row == u32::MAX` marks a free
    /// slot (row indices are block-relative, far below that).
    slots: Vec<(u64, u32, u32)>,
    len: usize,
}

const DICT_FREE: u32 = u32::MAX;

impl SlotDict {
    /// Pre-size from the row count, capped at 2048 slots (32 KiB) so a
    /// low-cardinality column never pays for zeroing a table it won't
    /// fill; high-cardinality builds reach the 131072-slot ceiling (the
    /// dictionary caps at 65536 entries, and 65536 * 10 / 7 < 131072)
    /// in two 8x grows instead of a cascade of doublings.
    fn with_capacity(rows: usize) -> Self {
        let want = rows.min(65_536) * 10 / 7 + 1;
        let slots = want.next_power_of_two().clamp(1024, 2_048);
        SlotDict { slots: vec![(0, DICT_FREE, 0); slots], len: 0 }
    }

    /// Find the probe slot for `h`: `(index, Some(code))` on a verified
    /// hit, `(index, None)` at the free slot where an insert belongs.
    fn probe(&self, h: u64, eq: impl Fn(u32) -> bool) -> (usize, Option<u32>) {
        let mask = self.slots.len() - 1;
        let mut idx = (h as usize) & mask;
        loop {
            let (sh, row, code) = self.slots[idx];
            if row == DICT_FREE {
                return (idx, None);
            }
            if sh == h && eq(row) {
                return (idx, Some(code));
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Insert at the probe slot returned by [`Self::probe`], growing
    /// the table 8x when load passes ~70%.
    fn insert(&mut self, idx: usize, h: u64, row: u32, code: u32) {
        self.slots[idx] = (h, row, code);
        self.len += 1;
        if self.len * 10 >= self.slots.len() * 7 {
            let grown = vec![(0, DICT_FREE, 0); (self.slots.len() * 8).min(131_072)];
            let old = std::mem::replace(&mut self.slots, grown);
            let mask = self.slots.len() - 1;
            for entry in old {
                if entry.1 == DICT_FREE {
                    continue;
                }
                let mut j = (entry.0 as usize) & mask;
                while self.slots[j].1 != DICT_FREE {
                    j = (j + 1) & mask;
                }
                self.slots[j] = entry;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Encode / decode entry points
// ---------------------------------------------------------------------

/// Encode a column segment with the chosen encoding.
///
/// Returns `Err(Unsupported)` if the encoding cannot represent this data
/// (wrong type family, dictionary overflow) — the analyzer relies on that
/// to filter candidates.
pub fn encode_column(col: &ColumnData, enc: Encoding) -> Result<Vec<u8>> {
    let ty = col.data_type();
    if !enc.applicable_to(ty) {
        return Err(RsError::Unsupported(format!("{enc} not applicable to {ty}")));
    }
    let mut w = Writer::with_capacity(col.byte_size() / 2 + 64);
    w.put_u8(enc.tag());
    w.put_u8(ty.tag());
    let (p, s) = match ty {
        DataType::Decimal(p, s) => (p, s),
        _ => (0, 0),
    };
    w.put_u8(p);
    w.put_u8(s);
    w.put_u32(col.len() as u32);
    let nulls = col.nulls();
    w.put_u32(nulls.words().len() as u32);
    for &word in nulls.words() {
        w.put_u64(word);
    }

    let mut payload = Writer::new();
    match enc {
        Encoding::Raw => write_raw_payload(col, &mut payload),
        Encoding::Lzss => {
            let mut raw = Writer::new();
            write_raw_payload(col, &mut raw);
            payload.put_raw(&lzss::compress(&raw.into_bytes()));
        }
        Encoding::Rle => {
            // Runs of physically-equal adjacent slots.
            let n = col.len();
            let mut runs: Vec<(u32, usize)> = Vec::new(); // (len, first index)
            let mut i = 0;
            while i < n {
                let start = i;
                i += 1;
                while i < n && slot_eq(col, start, i) {
                    i += 1;
                }
                runs.push(((i - start) as u32, start));
            }
            payload.put_u32(runs.len() as u32);
            for (len, first) in runs {
                payload.put_u32(len);
                write_one(col, first, &mut payload);
            }
        }
        Encoding::Dict => {
            let n = col.len();
            // One-pass dictionary build in first-seen order: slots hash
            // and compare in place over the raw column payload, so the
            // loop never serializes a row that was already seen and
            // never owns key bytes. The dictionary payload is written
            // once, at each code's first occurrence — byte-identical to
            // the old serialize-every-row build.
            let mut dict = SlotDict::with_capacity(n);
            let mut dict_w = Writer::new();
            let mut codes: Vec<u32> = Vec::with_capacity(n);
            let mut dict_len = 0u32;
            // One `match` on the variant, then a fully typed loop: the
            // per-row hash / equality / dictionary-entry emission all
            // see concrete slices (no per-row enum dispatch).
            macro_rules! build {
                ($hash:expr, $eq:expr, $emit:expr) => {
                    for i in 0..n {
                        let h = $hash(i);
                        let (idx, hit) = dict.probe(h, |row| $eq(row as usize, i));
                        let code = match hit {
                            Some(c) => c,
                            None => {
                                // Early exit *before* admitting the
                                // 65,537th distinct value, not after a
                                // wasted insert.
                                if dict_len == 65_536 {
                                    return Err(RsError::Unsupported(
                                        "dictionary overflow (> 65536 distinct values)".into(),
                                    ));
                                }
                                let c = dict_len;
                                $emit(i, &mut dict_w);
                                dict.insert(idx, h, i as u32, c);
                                dict_len += 1;
                                c
                            }
                        };
                        codes.push(code);
                    }
                };
            }
            use redsim_common::mix64;
            match col {
                ColumnData::Bool { data, .. } => build!(
                    |i: usize| mix64(data[i] as u64),
                    |a: usize, b: usize| data[a] == data[b],
                    |i: usize, w: &mut Writer| w.put_u8(data[i] as u8)
                ),
                ColumnData::Int2 { data, .. } => build!(
                    |i: usize| mix64(data[i] as u64),
                    |a: usize, b: usize| data[a] == data[b],
                    |i: usize, w: &mut Writer| w.put_raw(&data[i].to_le_bytes())
                ),
                ColumnData::Int4 { data, .. } | ColumnData::Date { data, .. } => build!(
                    |i: usize| mix64(data[i] as u64),
                    |a: usize, b: usize| data[a] == data[b],
                    |i: usize, w: &mut Writer| w.put_i32(data[i])
                ),
                ColumnData::Int8 { data, .. } | ColumnData::Timestamp { data, .. } => build!(
                    |i: usize| mix64(data[i] as u64),
                    |a: usize, b: usize| data[a] == data[b],
                    |i: usize, w: &mut Writer| w.put_i64(data[i])
                ),
                ColumnData::Float8 { data, .. } => build!(
                    |i: usize| mix64(data[i].to_bits()),
                    |a: usize, b: usize| data[a].to_bits() == data[b].to_bits(),
                    |i: usize, w: &mut Writer| w.put_f64(data[i])
                ),
                ColumnData::Decimal { data, .. } => build!(
                    |i: usize| mix64(data[i] as u128 as u64 ^ mix64((data[i] >> 64) as u64)),
                    |a: usize, b: usize| data[a] == data[b],
                    |i: usize, w: &mut Writer| w.put_i128(data[i])
                ),
                ColumnData::Str { data, .. } => {
                    let (off, bytes) = data.raw_parts();
                    let at = |i: usize| &bytes[off[i] as usize..off[i + 1] as usize];
                    build!(
                        |i: usize| hash_bytes(at(i)),
                        |a: usize, b: usize| at(a) == at(b),
                        // Matches `write_one`'s `put_str`: u32 length
                        // prefix + raw bytes (already valid UTF-8).
                        |i: usize, w: &mut Writer| {
                            let s = at(i);
                            w.put_u32(s.len() as u32);
                            w.put_raw(s);
                        }
                    )
                }
            }
            payload.put_u32(dict_len);
            payload.put_bytes(&dict_w.into_bytes());
            let wide = dict_len > 256;
            payload.put_bool(wide);
            // Bulk-narrow the code stream (same bytes as per-code
            // `put_u8`/`put_u16` LE, but one extend instead of n calls;
            // the u32 -> u8 narrowing loop auto-vectorizes).
            if wide {
                let mut buf = Vec::with_capacity(codes.len() * 2);
                for c in &codes {
                    buf.extend_from_slice(&(*c as u16).to_le_bytes());
                }
                payload.put_raw(&buf);
            } else {
                let buf: Vec<u8> = codes.iter().map(|&c| c as u8).collect();
                payload.put_raw(&buf);
            }
        }
        Encoding::Delta => {
            let vals = widen(col).ok_or_else(|| {
                RsError::Unsupported(format!("delta not applicable to {ty}"))
            })?;
            let mut buf = Vec::with_capacity(vals.len() * 2);
            let mut prev = 0i128;
            for v in vals {
                write_ivarint(&mut buf, v - prev);
                prev = v;
            }
            payload.put_raw(&buf);
        }
        Encoding::Mostly8 | Encoding::Mostly16 | Encoding::Mostly32 => {
            let vals = widen(col).ok_or_else(|| {
                RsError::Unsupported(format!("{enc} not applicable to {ty}"))
            })?;
            let (lo, hi, width) = match enc {
                Encoding::Mostly8 => (i8::MIN as i128 + 1, i8::MAX as i128, 1usize),
                Encoding::Mostly16 => (i16::MIN as i128 + 1, i16::MAX as i128, 2),
                _ => (i32::MIN as i128 + 1, i32::MAX as i128, 4),
            };
            // Sentinel (narrow MIN) marks an exception slot.
            let mut exceptions: Vec<u8> = Vec::new();
            let mut n_exc = 0u32;
            let mut narrow_bytes = Vec::with_capacity(vals.len() * width);
            for (i, &v) in vals.iter().enumerate() {
                if v >= lo && v <= hi {
                    match enc {
                        Encoding::Mostly8 => narrow_bytes.push(v as i8 as u8),
                        Encoding::Mostly16 => {
                            narrow_bytes.extend_from_slice(&(v as i16).to_le_bytes())
                        }
                        _ => narrow_bytes.extend_from_slice(&(v as i32).to_le_bytes()),
                    }
                } else {
                    match enc {
                        Encoding::Mostly8 => narrow_bytes.push(i8::MIN as u8),
                        Encoding::Mostly16 => {
                            narrow_bytes.extend_from_slice(&i16::MIN.to_le_bytes())
                        }
                        _ => narrow_bytes.extend_from_slice(&i32::MIN.to_le_bytes()),
                    }
                    exceptions.extend_from_slice(&(i as u32).to_le_bytes());
                    write_ivarint(&mut exceptions, v);
                    n_exc += 1;
                }
            }
            payload.put_u32(n_exc);
            payload.put_bytes(&exceptions);
            payload.put_raw(&narrow_bytes);
        }
    }
    let payload = payload.into_bytes();
    w.put_u32(payload.len() as u32);
    w.put_raw(&payload);
    Ok(w.into_bytes())
}

/// Decode a segment produced by [`encode_column`]. `expected` guards
/// against catalog/blob mismatches.
pub fn decode_column(bytes: &[u8], expected: Option<DataType>) -> Result<ColumnData> {
    let mut r = Reader::new(bytes);
    let enc = Encoding::from_tag(r.get_u8()?)?;
    let ty_tag = r.get_u8()?;
    let p = r.get_u8()?;
    let s = r.get_u8()?;
    let ty = DataType::from_tag(ty_tag, p, s)?;
    if let Some(e) = expected {
        if !e.storage_compatible(ty) {
            return Err(RsError::Codec(format!("block holds {ty}, expected {e}")));
        }
    }
    let rows = r.get_u32()? as usize;
    let n_words = r.get_u32()? as usize;
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(r.get_u64()?);
    }
    if n_words != rows.div_ceil(64) {
        return Err(RsError::Codec("null bitmap size mismatch".into()));
    }
    let nulls = Bitmap::from_raw(words, rows);
    let payload_len = r.get_u32()? as usize;
    let payload = r.get_raw(payload_len)?;
    let mut pr = Reader::new(payload);

    let col = match enc {
        Encoding::Raw => read_raw_payload(ty, rows, nulls, &mut pr)?,
        Encoding::Lzss => {
            let raw = lzss::decompress(payload)?;
            read_raw_payload(ty, rows, nulls, &mut Reader::new(&raw))?
        }
        Encoding::Rle => {
            let n_runs = pr.get_u32()? as usize;
            let mut out = ColumnData::new(ty);
            let mut total = 0usize;
            for _ in 0..n_runs {
                let len = pr.get_u32()? as usize;
                let mut tmp = ColumnData::new(ty);
                read_one_into(&mut tmp, &mut pr)?;
                for _ in 0..len {
                    out.push_from(&tmp, 0);
                }
                total += len;
            }
            if total != rows {
                return Err(RsError::Codec("RLE run total mismatch".into()));
            }
            restore_nulls(out, nulls)
        }
        Encoding::Dict => {
            let dict_len = pr.get_u32()? as usize;
            let dict_bytes = pr.get_bytes()?;
            let mut dict = ColumnData::new(ty);
            let mut dr = Reader::new(dict_bytes);
            for _ in 0..dict_len {
                read_one_into(&mut dict, &mut dr)?;
            }
            let wide = pr.get_bool()?;
            // The code stream in one read, then one gather through the
            // dictionary.
            let codes: Vec<u32> = if wide {
                pr.get_raw(rows * 2)?
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes([c[0], c[1]]) as u32)
                    .collect()
            } else {
                pr.get_raw(rows)?.iter().map(|&c| c as u32).collect()
            };
            if codes.iter().any(|&c| c as usize >= dict_len) {
                return Err(RsError::Codec("dictionary code out of range".into()));
            }
            restore_nulls(dict.gather(&codes), nulls)
        }
        // The delta stream is the entire payload.
        Encoding::Delta => int_column!(ty, nulls, decode_delta(payload, rows, ty)),
        Encoding::Mostly8 | Encoding::Mostly16 | Encoding::Mostly32 => {
            let n_exc = pr.get_u32()? as usize;
            let exc_bytes = pr.get_bytes()?;
            let width = match enc {
                Encoding::Mostly8 => 1usize,
                Encoding::Mostly16 => 2,
                _ => 4,
            };
            let narrow_bytes = pr.get_raw(rows * width)?;
            int_column!(ty, nulls, decode_mostly(narrow_bytes, width, exc_bytes, n_exc, ty))
        }
    };
    if col.len() != rows {
        return Err(RsError::Codec("decoded row count mismatch".into()));
    }
    Ok(col)
}

/// Replace the decoded column's nulls with the stored bitmap (codecs above
/// reconstruct payload slots as non-null).
fn restore_nulls(col: ColumnData, nulls: Bitmap) -> ColumnData {
    match col {
        ColumnData::Bool { data, .. } => ColumnData::Bool { data, nulls },
        ColumnData::Int2 { data, .. } => ColumnData::Int2 { data, nulls },
        ColumnData::Int4 { data, .. } => ColumnData::Int4 { data, nulls },
        ColumnData::Int8 { data, .. } => ColumnData::Int8 { data, nulls },
        ColumnData::Float8 { data, .. } => ColumnData::Float8 { data, nulls },
        ColumnData::Str { data, .. } => ColumnData::Str { data, nulls },
        ColumnData::Date { data, .. } => ColumnData::Date { data, nulls },
        ColumnData::Timestamp { data, .. } => ColumnData::Timestamp { data, nulls },
        ColumnData::Decimal { data, scale, .. } => ColumnData::Decimal { data, scale, nulls },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::Value;

    fn int_col(vals: &[Option<i64>], ty: DataType) -> ColumnData {
        let mut c = ColumnData::new(ty);
        for v in vals {
            match v {
                Some(x) => c.push_value(&Value::Int8(*x)).unwrap(),
                None => c.push_null(),
            }
        }
        c
    }

    fn str_col(vals: &[Option<&str>]) -> ColumnData {
        let mut c = ColumnData::new(DataType::Varchar);
        for v in vals {
            match v {
                Some(s) => c.push_value(&Value::Str(s.to_string())).unwrap(),
                None => c.push_null(),
            }
        }
        c
    }

    fn roundtrip(col: &ColumnData, enc: Encoding) {
        let bytes = encode_column(col, enc).unwrap();
        let back = decode_column(&bytes, Some(col.data_type())).unwrap();
        assert_eq!(col.len(), back.len());
        for i in 0..col.len() {
            assert_eq!(col.get(i), back.get(i), "row {i} enc {enc}");
        }
    }

    #[test]
    fn raw_roundtrip_all_types() {
        roundtrip(&int_col(&[Some(1), None, Some(-7)], DataType::Int4), Encoding::Raw);
        roundtrip(&int_col(&[Some(1), Some(2)], DataType::Int2), Encoding::Raw);
        roundtrip(&int_col(&[Some(1 << 40), None], DataType::Int8), Encoding::Raw);
        roundtrip(&str_col(&[Some("a"), None, Some("hello")]), Encoding::Raw);
        let mut f = ColumnData::new(DataType::Float8);
        f.push_value(&Value::Float8(1.5)).unwrap();
        f.push_null();
        roundtrip(&f, Encoding::Raw);
        let mut d = ColumnData::new(DataType::Decimal(10, 2));
        d.push_value(&Value::Decimal { units: -12345, scale: 2 }).unwrap();
        roundtrip(&d, Encoding::Raw);
        let mut b = ColumnData::new(DataType::Bool);
        b.push_value(&Value::Bool(true)).unwrap();
        b.push_value(&Value::Bool(false)).unwrap();
        roundtrip(&b, Encoding::Rle);
    }

    #[test]
    fn rle_compresses_runs() {
        let vals: Vec<Option<i64>> = (0..1000).map(|i| Some(i / 250)).collect();
        let col = int_col(&vals, DataType::Int4);
        roundtrip(&col, Encoding::Rle);
        let rle = encode_column(&col, Encoding::Rle).unwrap();
        let raw = encode_column(&col, Encoding::Raw).unwrap();
        assert!(rle.len() * 10 < raw.len(), "rle {} raw {}", rle.len(), raw.len());
    }

    #[test]
    fn delta_compresses_sequences() {
        let vals: Vec<Option<i64>> = (0..1000).map(|i| Some(1_000_000_000 + i)).collect();
        let col = int_col(&vals, DataType::Int8);
        roundtrip(&col, Encoding::Delta);
        let delta = encode_column(&col, Encoding::Delta).unwrap();
        let raw = encode_column(&col, Encoding::Raw).unwrap();
        assert!(delta.len() * 3 < raw.len(), "delta {} raw {}", delta.len(), raw.len());
    }

    #[test]
    fn delta_handles_negatives_and_nulls() {
        let col = int_col(&[Some(-5), None, Some(100), Some(-200), None], DataType::Int8);
        roundtrip(&col, Encoding::Delta);
    }

    #[test]
    fn dict_roundtrip_strings_and_overflow() {
        let vals: Vec<Option<&str>> =
            (0..500).map(|i| Some(["us", "eu", "ap"][i % 3])).collect();
        let col = str_col(&vals);
        roundtrip(&col, Encoding::Dict);
        let dict = encode_column(&col, Encoding::Dict).unwrap();
        let raw = encode_column(&col, Encoding::Raw).unwrap();
        assert!(dict.len() < raw.len());
        // Overflow: > 65536 distinct values.
        let many: Vec<String> = (0..70_000).map(|i| format!("v{i}")).collect();
        let col = str_col(&many.iter().map(|s| Some(s.as_str())).collect::<Vec<_>>());
        assert!(encode_column(&col, Encoding::Dict).is_err());
    }

    #[test]
    fn dict_wide_indexes() {
        // Between 257 and 65536 distinct -> u16 codes.
        let many: Vec<String> = (0..300).map(|i| format!("v{}", i % 300)).collect();
        let col = str_col(&many.iter().map(|s| Some(s.as_str())).collect::<Vec<_>>());
        roundtrip(&col, Encoding::Dict);
    }

    #[test]
    #[should_panic]
    fn slot_eq_str_panics_out_of_range() {
        // Regression: the Str arm must index the offset table strictly,
        // like every fixed-width arm, so a bad row index can never
        // compare "equal" and silently fuse an RLE run or dict code.
        let col = str_col(&[Some("a"), Some("b")]);
        slot_eq(&col, 0, 2);
    }

    #[test]
    fn slot_eq_str_compares_bytes() {
        let col = str_col(&[Some("abc"), Some("abc"), Some("abd"), None, None]);
        assert!(slot_eq(&col, 0, 1));
        assert!(!slot_eq(&col, 1, 2));
        // NULL slots hold the default (empty) payload and compare equal.
        assert!(slot_eq(&col, 3, 4));
    }

    #[test]
    fn dict_one_pass_first_seen_order_and_float_bits() {
        // Codes are assigned in first-seen order, and floats are
        // dictionary-keyed by bit pattern: NaN deduplicates against an
        // identical NaN, and -0.0 stays distinct from 0.0.
        let mut c = ColumnData::new(DataType::Float8);
        for v in [f64::NAN, 0.0, -0.0, f64::NAN, 0.0, f64::NAN] {
            c.push_value(&Value::Float8(v)).unwrap();
        }
        let bytes = encode_column(&c, Encoding::Dict).unwrap();
        let back = decode_column(&bytes, Some(DataType::Float8)).unwrap();
        for i in 0..c.len() {
            let (a, b) = match (&c, &back) {
                (
                    ColumnData::Float8 { data: x, .. },
                    ColumnData::Float8 { data: y, .. },
                ) => (x[i], y[i]),
                _ => unreachable!(),
            };
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
        // 3 distinct bit patterns (NaN, 0.0, -0.0), narrow u8 codes.
        let dict = encode_column(&c, Encoding::Dict).unwrap();
        let raw = encode_column(&c, Encoding::Raw).unwrap();
        assert!(dict.len() < raw.len());
    }

    #[test]
    fn rle_float_nan_runs_by_bit_pattern() {
        // slot_eq compares floats by bit pattern, so identical NaNs fuse
        // into one run and the decode restores the exact bits.
        let mut c = ColumnData::new(DataType::Float8);
        for v in [f64::NAN, f64::NAN, f64::NAN, 0.0, -0.0, -0.0] {
            c.push_value(&Value::Float8(v)).unwrap();
        }
        let bytes = encode_column(&c, Encoding::Rle).unwrap();
        let back = decode_column(&bytes, Some(DataType::Float8)).unwrap();
        for i in 0..c.len() {
            let (a, b) = match (&c, &back) {
                (
                    ColumnData::Float8 { data: x, .. },
                    ColumnData::Float8 { data: y, .. },
                ) => (x[i], y[i]),
                _ => unreachable!(),
            };
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
    }

    #[test]
    fn dict_overflow_exits_before_admitting_extra_entry() {
        // Exactly 65,536 distinct values fits; 65,537 must fail.
        let ok: Vec<Option<i64>> = (0..65_536).map(Some).collect();
        assert!(encode_column(&int_col(&ok, DataType::Int8), Encoding::Dict).is_ok());
        let over: Vec<Option<i64>> = (0..65_537).map(Some).collect();
        assert!(encode_column(&int_col(&over, DataType::Int8), Encoding::Dict).is_err());
    }

    #[test]
    fn mostly8_with_exceptions() {
        let mut vals: Vec<Option<i64>> = (0..1000).map(|i| Some(i % 100)).collect();
        vals[17] = Some(1 << 50);
        vals[900] = Some(-(1 << 50));
        vals[3] = Some(i8::MIN as i64); // collides with sentinel -> exception
        vals[5] = None;
        let col = int_col(&vals, DataType::Int8);
        roundtrip(&col, Encoding::Mostly8);
        let m8 = encode_column(&col, Encoding::Mostly8).unwrap();
        let raw = encode_column(&col, Encoding::Raw).unwrap();
        assert!(m8.len() * 4 < raw.len(), "m8 {} raw {}", m8.len(), raw.len());
    }

    #[test]
    fn mostly16_and_32_roundtrip() {
        let vals: Vec<Option<i64>> =
            (0..500).map(|i| Some(if i % 50 == 0 { 1 << 45 } else { i * 3 })).collect();
        roundtrip(&int_col(&vals, DataType::Int8), Encoding::Mostly16);
        roundtrip(&int_col(&vals, DataType::Int8), Encoding::Mostly32);
    }

    #[test]
    fn mostly_rejected_for_narrow_types() {
        let col = int_col(&[Some(1)], DataType::Int2);
        assert!(encode_column(&col, Encoding::Mostly16).is_err());
        assert!(encode_column(&col, Encoding::Mostly32).is_err());
    }

    #[test]
    fn lzss_for_text() {
        let vals: Vec<String> = (0..400)
            .map(|i| format!("https://www.amazon.com/product/{}/ref=sr_{}", i % 20, i))
            .collect();
        let col = str_col(&vals.iter().map(|s| Some(s.as_str())).collect::<Vec<_>>());
        roundtrip(&col, Encoding::Lzss);
        let lz = encode_column(&col, Encoding::Lzss).unwrap();
        let raw = encode_column(&col, Encoding::Raw).unwrap();
        assert!(lz.len() * 2 < raw.len(), "lz {} raw {}", lz.len(), raw.len());
        // Not applicable to ints.
        assert!(encode_column(&int_col(&[Some(1)], DataType::Int4), Encoding::Lzss).is_err());
    }

    #[test]
    fn type_mismatch_detected() {
        let col = int_col(&[Some(1)], DataType::Int4);
        let bytes = encode_column(&col, Encoding::Raw).unwrap();
        assert!(decode_column(&bytes, Some(DataType::Int8)).is_err());
    }

    #[test]
    fn empty_column_roundtrips() {
        for enc in [Encoding::Raw, Encoding::Rle, Encoding::Dict, Encoding::Delta] {
            let col = int_col(&[], DataType::Int8);
            roundtrip(&col, enc);
        }
    }

    #[test]
    fn date_and_timestamp_delta() {
        let mut c = ColumnData::new(DataType::Date);
        for d in [16000, 16001, 16002, 16005] {
            c.push_value(&Value::Date(d)).unwrap();
        }
        roundtrip(&c, Encoding::Delta);
        let mut t = ColumnData::new(DataType::Timestamp);
        for us in [0i64, 1_000_000, 2_000_000] {
            t.push_value(&Value::Timestamp(us)).unwrap();
        }
        roundtrip(&t, Encoding::Delta);
    }

    #[test]
    fn decimal_delta_roundtrip() {
        let mut d = ColumnData::new(DataType::Decimal(12, 2));
        for units in [100i128, 200, 150, -75] {
            d.push_value(&Value::Decimal { units, scale: 2 }).unwrap();
        }
        roundtrip(&d, Encoding::Delta);
    }
}
