//! Zigzag + LEB128 varints, and the delta encoding's bit-packed
//! miniblocks of steps.

use redsim_common::{DataType, Result, RsError};

/// Zigzag-encode a signed 128-bit integer (covers i64 and decimal units).
#[inline]
pub fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

/// Invert [`zigzag`].
#[inline]
pub fn unzigzag(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

/// Append a LEB128 varint.
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag varint.
pub fn write_ivarint(out: &mut Vec<u8>, v: i128) {
    write_uvarint(out, zigzag(v));
}

/// Read a LEB128 varint, advancing `pos`.
pub fn read_uvarint(buf: &[u8], pos: &mut usize) -> Result<u128> {
    // Up to nine bytes fit a `u64`; only wider values (decimal units)
    // pay for 128-bit shifts.
    let mut small: u64 = 0;
    for shift in (0..63).step_by(7) {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| RsError::Codec("varint truncated".into()))?;
        *pos += 1;
        small |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(small as u128);
        }
    }
    let mut v: u128 = small as u128;
    let mut shift = 63u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| RsError::Codec("varint truncated".into()))?;
        *pos += 1;
        if shift >= 128 {
            return Err(RsError::Codec("varint overflow".into()));
        }
        v |= ((byte & 0x7F) as u128) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// The offsets of a row arena whose `rows` lengths are the LEB128 varints
/// filling `buf`: `0`, then each running sum, the last equal to `total`.
/// A length takes at most five bytes and fits a `u32`; a count, a sum or a
/// varint that disagrees is a codec error.
pub(crate) fn offsets_of_lengths(buf: &[u8], rows: usize, total: usize) -> Result<Vec<u32>> {
    let bad = |what: &str| RsError::Codec(format!("text lengths {what}"));
    // Every length takes at least a byte: bound the allocation by the
    // bytes present, not by the row count.
    if rows > buf.len() {
        return Err(bad("fewer than the rows"));
    }
    let mut offsets = Vec::with_capacity(rows + 1);
    offsets.push(0u32);
    let (mut pos, mut end) = (0usize, 0u64);
    while offsets.len() <= rows {
        let Some(&first) = buf.get(pos) else {
            return Err(bad("fewer than the rows"));
        };
        // A short row's length is one byte.
        let len = if first < 0x80 {
            pos += 1;
            first as u64
        } else {
            let at = pos;
            let len = read_uvarint(buf, &mut pos)?;
            if pos - at > 5 {
                return Err(bad("hold a varint of more than five bytes"));
            }
            u32::try_from(len).map_err(|_| bad("hold a length past u32"))? as u64
        };
        end += len;
        if end > total as u64 {
            return Err(bad("add up past the text bytes"));
        }
        offsets.push(end as u32);
    }
    if pos != buf.len() {
        return Err(bad("outnumber the rows"));
    }
    if end != total as u64 {
        return Err(bad("add up short of the text bytes"));
    }
    Ok(offsets)
}

/// Read a zigzag varint.
pub fn read_ivarint(buf: &[u8], pos: &mut usize) -> Result<i128> {
    Ok(unzigzag(read_uvarint(buf, pos)?))
}

/// Steps in one miniblock of a delta stream.
const MINIBLOCK: usize = 128;

/// Bits appended LSB-first through one 64-bit word.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    word: u64,
    len: u32,
}

impl BitWriter<'_> {
    /// Append `v`'s low `w ≤ 64` bits (none above them is set).
    #[inline]
    fn put(&mut self, v: u64, w: u32) {
        self.word |= v << self.len;
        let end = self.len + w;
        if end >= 64 {
            self.out.extend_from_slice(&self.word.to_le_bytes());
            self.word = v.checked_shr(64 - self.len).unwrap_or(0);
            self.len = end - 64;
        } else {
            self.len = end;
        }
    }

    /// The last word's bytes that hold bits.
    fn finish(self) {
        self.out.extend_from_slice(&self.word.to_le_bytes()[..self.len.div_ceil(8) as usize]);
    }
}

/// Append the delta stream of `vals`: each value's step from the one
/// before, in miniblocks. The first value is a miniblock of its own (its
/// step from 0 would widen the steps after it); the rest go [`MINIBLOCK`]
/// to one, the last perhaps fewer. A miniblock is its least step as a
/// zigzag varint, one width byte, then each step less the least in
/// `width` bits, LSB-first, the last byte zero-padded. Values of at most
/// 64 bits step in `i64`; a miniblock with a step past `i64`, and every
/// DECIMAL one, steps in `i128`. Only a DECIMAL step past `i128` cannot
/// be stored.
pub(crate) fn pack_steps<V: Copy + Into<i128>>(vals: &[V], out: &mut Vec<u8>) -> Result<()> {
    let (first, rest) = vals.split_at(vals.len().min(1));
    let mut prev = 0i128;
    for chunk in std::iter::once(first).chain(rest.chunks(MINIBLOCK)).filter(|c| !c.is_empty()) {
        if size_of::<V>() <= 8 {
            let mut steps = [0u64; MINIBLOCK];
            let (mut lo, mut hi, mut over, mut last) = (i64::MAX, i64::MIN, false, prev as i64);
            for (s, &v) in steps.iter_mut().zip(chunk) {
                let v = v.into() as i64;
                let (d, o) = v.overflowing_sub(last);
                (over, last, *s) = (over | o, v, d as u64);
                (lo, hi) = (lo.min(d), hi.max(d));
            }
            if !over {
                let width = 64 - (hi as u64).wrapping_sub(lo as u64).leading_zeros();
                out.reserve(20 + (chunk.len() * width as usize).div_ceil(8));
                write_ivarint(out, lo.into());
                out.push(width as u8);
                if width > 0 {
                    let mut bits = BitWriter { out: &mut *out, word: 0, len: 0 };
                    steps[..chunk.len()].iter().for_each(|&s| bits.put(s.wrapping_sub(lo as u64), width));
                    bits.finish();
                }
                prev = last.into();
                continue;
            }
        }
        let mut steps = [0i128; MINIBLOCK];
        let (mut lo, mut hi) = (i128::MAX, i128::MIN);
        for (s, &v) in steps.iter_mut().zip(chunk) {
            let v = v.into();
            *s = v.checked_sub(prev).ok_or_else(|| RsError::Unsupported("a delta step leaves i128".into()))?;
            (lo, hi, prev) = (lo.min(*s), hi.max(*s), v);
        }
        let width = 128 - (hi.wrapping_sub(lo) as u128).leading_zeros();
        out.reserve(20 + (chunk.len() * width as usize).div_ceil(8));
        write_ivarint(out, lo);
        out.push(width as u8);
        let mut bits = BitWriter { out: &mut *out, word: 0, len: 0 };
        for &s in &steps[..chunk.len()] {
            let d = s.wrapping_sub(lo) as u128;
            bits.put(d as u64, width.min(64));
            if width > 64 {
                bits.put((d >> 64) as u64, width - 64);
            }
        }
        bits.finish();
    }
    Ok(())
}

/// `width ≤ 128` bits of `run` from bit `bit` on; bytes past its end read
/// as zeros.
fn read_bits(run: &[u8], bit: usize, width: u32) -> u128 {
    let (at, shift) = (bit / 8, bit % 8);
    let mut bytes = [0u8; 17];
    let take = run.len().saturating_sub(at).min(17);
    bytes[..take].copy_from_slice(&run[at..at + take]);
    let low = u128::from_le_bytes(bytes[..16].try_into().expect("sixteen bytes")) >> shift;
    let v = low | (bytes[16] as u128).checked_shl(128 - shift as u32).unwrap_or(0);
    v & u128::MAX.checked_shr(128 - width).unwrap_or(0)
}

/// A decoded value that does not fit its column's type.
pub(crate) fn out_of_range(v: i128, ty: DataType) -> RsError {
    RsError::Codec(format!("decoded value {v} out of range for {ty}"))
}

/// Call `$f::<_, W>` with `W` the constant equal to `$width`.
macro_rules! by_width {
    ($width:expr, $f:ident $args:tt; $($w:literal)*) => {
        match $width {
            $($w => $f::<_, $w> $args,)*
            _ => unreachable!("the i64 path takes widths up to 56"),
        }
    };
}

/// The `ty` column's `rows` values: the running sums of the
/// [`pack_steps`] stream that fills `buf`. Where the slot has at most 64
/// bits, a miniblock whose `n` sums cannot leave `i64` — width ≤ 56 and
/// `|sum before| + n·(|least| + 2^width) < 2^63` — and whose reach of
/// sums fits `slot` adds in `i64` unchecked, one unaligned word read a
/// value, and `wrap`s each sum into its slot. Every other miniblock adds
/// in checked `i128` and converts each sum with `slot`. A truncated
/// stream, a width past 128, a sum past `i128` or the slot, and bytes
/// after the last miniblock are codec errors.
pub(crate) fn unpack_sums<T: Copy>(
    buf: &[u8],
    rows: usize,
    ty: DataType,
    wrap: impl Fn(i64) -> T + Copy,
    slot: impl Fn(i128) -> Option<T>,
) -> Result<Vec<T>> {
    let bad = |what: String| RsError::Codec(format!("delta stream {what}"));
    // Every miniblock takes at least two bytes: bound the allocation by
    // the bytes present, not by the header's row count.
    if (rows.min(1) + rows.saturating_sub(1).div_ceil(MINIBLOCK)) * 2 > buf.len() {
        return Err(bad("shorter than its row count".into()));
    }
    let checked = |v: i128| slot(v).ok_or_else(|| out_of_range(v, ty));
    let mut out = Vec::with_capacity(rows);
    let (mut pos, mut acc) = (0usize, 0i128);
    while out.len() < rows {
        let n = if out.is_empty() { 1 } else { (rows - out.len()).min(MINIBLOCK) };
        let least = read_ivarint(buf, &mut pos)?;
        let width = *buf.get(pos).ok_or_else(|| bad("truncated in a miniblock header".into()))? as u32;
        if width > 128 {
            return Err(bad(format!("width {width} past 128")));
        }
        let start = pos + 1;
        let packed = (n * width as usize).div_ceil(8);
        let run = buf.get(start..start + packed).ok_or_else(|| bad("truncated in a packed run".into()))?;
        pos = start + packed;
        let fast = (size_of::<T>() <= 8 && width <= 56)
            .then(|| i64::try_from(least).ok())
            .flatten()
            .filter(|&l| {
                let reach = n as i128 * (l.unsigned_abs() as i128 + (1 << width));
                acc.unsigned_abs() + (reach as u128) < 1 << 63
                    && slot(acc - reach).is_some()
                    && slot(acc + reach).is_some()
            });
        let Some(least) = fast else {
            for k in 0..n {
                let d = read_bits(run, k * width as usize, width);
                acc = (least.checked_add_unsigned(d).and_then(|step| acc.checked_add(step)))
                    .ok_or_else(|| bad("sum leaves i128".into()))?;
                out.push(checked(acc)?);
            }
            continue;
        };
        // Eight readable bytes from each value's first: the stream's
        // own, or zeros past its end (a run holds at most 128 values of
        // 56 bits, 7 bytes each).
        let padded;
        let run = match buf.get(start..start + packed + 8) {
            Some(run) => run,
            None => {
                padded = {
                    let mut p = [0u8; MINIBLOCK * 7 + 8];
                    p[..packed].copy_from_slice(run);
                    p
                };
                &padded[..]
            }
        };
        let mut sum = acc as i64;
        by_width!(width, add_groups(run, n, least, &mut sum, &mut out, wrap);
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28
            29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56);
        acc = sum.into();
    }
    if pos != buf.len() {
        return Err(bad("has bytes after its last miniblock".into()));
    }
    Ok(out)
}

/// Push the running sums of `run`'s first `n` `W`-bit steps (each plus
/// `least`) onto `*sum`, wrapped into their slots, without checks. A
/// group of eight values starts on a byte (`8·W` bits), so each value is
/// a load at a fixed offset from the group's first byte, a fixed shift
/// and a mask (about 2× faster than with the width in a register). The
/// last `n % 8` are read one by one.
#[inline(always)]
fn add_groups<T: Copy, const W: usize>(
    run: &[u8],
    n: usize,
    least: i64,
    sum: &mut i64,
    out: &mut Vec<T>,
    wrap: impl Fn(i64) -> T,
) {
    let mask = (1u64 << W) - 1;
    let start = out.len();
    out.resize(start + n / 8 * 8, wrap(0));
    for (g, group_out) in out[start..].chunks_exact_mut(8).enumerate() {
        let group = &run[g * W..g * W + W + 8];
        let group_out: &mut [T; 8] = group_out.try_into().expect("eight slots");
        for (j, slot) in group_out.iter_mut().enumerate() {
            let at = j * W / 8;
            let word = u64::from_le_bytes(group[at..at + 8].try_into().expect("eight bytes"));
            *sum += least + ((word >> (j * W % 8)) & mask) as i64;
            *slot = wrap(*sum);
        }
    }
    for k in n / 8 * 8..n {
        let bit = k * W;
        let word = u64::from_le_bytes(run[bit / 8..bit / 8 + 8].try_into().expect("eight bytes"));
        *sum += least + ((word >> (bit % 8)) & mask) as i64;
        out.push(wrap(*sum));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i128, 1, -1, 63, -64, i64::MAX as i128, i64::MIN as i128, i128::MAX, i128::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "v={v}");
        }
    }

    #[test]
    fn varint_roundtrip() {
        let values = [0i128, 1, -1, 127, -128, 300, -300, 1 << 40, -(1 << 40), i128::MAX, i128::MIN];
        let mut buf = Vec::new();
        for &v in &values {
            write_ivarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_ivarint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    /// Values put at every width from 0 to 128 through the word writer
    /// read back from every bit offset, the last byte zero-padded.
    #[test]
    fn packed_bits_read_back_at_every_width() {
        let mut seed = 38u64;
        for width in 0..=128u32 {
            let vals: Vec<u128> = (0..19)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let r = (seed as u128) << 64 | seed.rotate_left(29) as u128;
                    r & u128::MAX.checked_shr(128 - width).unwrap_or(0)
                })
                .chain([0, u128::MAX.checked_shr(128 - width).unwrap_or(0)])
                .collect();
            let mut out = Vec::new();
            let mut bits = BitWriter { out: &mut out, word: 0, len: 0 };
            for &v in &vals {
                bits.put(v as u64, width.min(64));
                if width > 64 {
                    bits.put((v >> 64) as u64, width - 64);
                }
            }
            bits.finish();
            assert_eq!(out.len(), (vals.len() * width as usize).div_ceil(8), "width {width}");
            for (k, &v) in vals.iter().enumerate() {
                assert_eq!(read_bits(&out, k * width as usize, width), v, "width {width}, value {k}");
            }
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        write_ivarint(&mut buf, 3);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, u128::MAX);
        let mut pos = 0;
        assert!(read_uvarint(&buf[..buf.len() - 1], &mut pos).is_err());
    }
}
