//! Zigzag + LEB128 varints, used by the delta encoding.

use redsim_common::{Result, RsError};

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

/// Add up to `n` zigzag varints from `buf` at `*pos` onto `*acc`, handing
/// each running sum to `emit`. Stops early, with `*pos` on it, at a varint
/// that is truncated, overlong, or whose value or sum leaves `i64`: those
/// are [`read_ivarint`]'s to read or report. Eight one-byte or four
/// two-byte varints in a row — a sorted column's steps, a small key's —
/// come from one 64-bit load; so does any mix of one- and two-byte
/// varints starting in its first seven bytes (a random key's steps).
pub fn sum_ivarints64(
    buf: &[u8],
    pos: &mut usize,
    acc: &mut i64,
    n: usize,
    mut emit: impl FnMut(i64) -> Result<()>,
) -> Result<()> {
    let unzig = |z: u64| ((z >> 1) as i64) ^ -((z & 1) as i64);
    let mut left = n;
    while left > 0 {
        // Eight steps of at most two bytes cannot carry a sum this far
        // from the limits out of `i64`. A word that opens with a varint of
        // three or more bytes (a wide column's step) has nothing for the
        // word paths and goes straight to `read_uvarint`.
        let word = (buf.get(*pos..*pos + 8))
            .filter(|_| acc.unsigned_abs() < 1 << 62)
            .map(|w| u64::from_le_bytes(w.try_into().expect("eight bytes")))
            .filter(|w| w & 0x8080 != 0x8080);
        if let Some(w) = word {
            let continues = w & 0x8080_8080_8080_8080;
            if continues == 0 && left >= 8 {
                for k in 0..8 {
                    *acc += unzig((w >> (8 * k)) & 0x7F);
                    emit(*acc)?;
                }
                (*pos, left) = (*pos + 8, left - 8);
                continue;
            }
            if continues == 0x0080_0080_0080_0080 && left >= 4 {
                for k in 0..4 {
                    let lane = w >> (16 * k);
                    *acc += unzig((lane & 0x7F) | ((lane >> 1) & 0x3F80));
                    emit(*acc)?;
                }
                (*pos, left) = (*pos + 8, left - 4);
                continue;
            }
            // Mixed widths: a varint's own continuation bit says whether
            // its second byte belongs to it. One of three or more bytes
            // ends the word; the first is at most two.
            let (mut at, mut took) = (0, 0);
            while at < 7 && took < left {
                let lane = w >> (8 * at);
                let two = (lane >> 7) & 1;
                if two & (lane >> 15) != 0 {
                    break;
                }
                *acc += unzig((lane & 0x7F) | (((lane >> 1) & 0x3F80) * two));
                emit(*acc)?;
                (at, took) = (at + 1 + two as usize, took + 1);
            }
            (*pos, left) = (*pos + at, left - took);
            continue;
        }
        let mut next = *pos;
        let Ok(z) = read_uvarint(buf, &mut next) else { break };
        let Some(sum) = i64::try_from(unzigzag(z)).ok().and_then(|step| acc.checked_add(step)) else { break };
        (*pos, *acc, left) = (next, sum, left - 1);
        emit(sum)?;
    }
    Ok(())
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

    /// `sum_ivarints64`, resumed by `read_ivarint` wherever it stops (as the
    /// delta decoder does), adds up exactly what `read_ivarint` alone does.
    #[test]
    fn sums_agree_with_the_wide_reader() {
        let mut steps: Vec<i128> = (0..64).map(|k| k % 3 - 1).collect(); // one-byte runs
        steps.extend((0..64).map(|k| (k * 997) % 8_000 - 4_000)); // mostly two-byte runs
        for k in 0..64 {
            steps.extend([1i128 << k, -(1i128 << k), (1i128 << k) - 1, 1, -1, 100]);
        }
        // Up to i64::MAX, one past it and back, and far past it (ten bytes).
        steps.extend([i64::MAX as i128, 1, -1, -(i64::MAX as i128), 1 << 64, -(1 << 64), 0]);
        let mut buf = Vec::new();
        steps.iter().for_each(|&v| write_ivarint(&mut buf, v));
        // Non-canonical (overlong) encodings of 0 and of -64 (zigzag 127).
        buf.extend_from_slice(&[0x80, 0x00, 0xFF, 0x80, 0x00]);
        steps.extend([0, -64]);
        let (mut pos, mut wide, mut sums, mut fast) = (0usize, 0i128, Vec::new(), 0);
        while sums.len() < steps.len() {
            if let Ok(mut acc) = i64::try_from(wide) {
                let before = sums.len();
                sum_ivarints64(&buf, &mut pos, &mut acc, steps.len() - sums.len(), |v| {
                    sums.push(v as i128);
                    Ok(())
                })
                .unwrap();
                (wide, fast) = (acc.into(), fast + sums.len() - before);
            }
            if sums.len() < steps.len() {
                wide += read_ivarint(&buf, &mut pos).unwrap();
                sums.push(wide);
            }
        }
        let mut total = 0i128;
        let want: Vec<i128> = steps.iter().map(|s| { total += s; total }).collect();
        assert_eq!((sums, pos), (want, buf.len()));
        assert!(fast > steps.len() * 9 / 10, "{fast} of {} on the i64 path", steps.len());
        // Truncated: it stops on the varint, which the wide reader reports.
        for cut in [&[0x80u8][..], &[0x02, 0xFF, 0xFF], &[]] {
            let (mut pos, mut acc) = (0, 0);
            sum_ivarints64(cut, &mut pos, &mut acc, 2, |_| Ok(())).unwrap();
            assert!(read_ivarint(cut, &mut pos).is_err(), "{cut:?}");
        }
        // Mixed one- and two-byte steps from every start offset within a
        // word, and each kind of stop at every byte position of one.
        let mut seed = 36u64;
        for lead in [0, 8] {
            for at in 0..8 {
                let mut buf = mixed(&mut seed, lead + at);
                buf.extend(mixed(&mut seed, 64));
                stops_where_the_reader_does(&buf, lead + at);
                for stop in [vec![0x80, 0x80, 0x01], vec![0x80; 8 - at], vec![0xFF; 9].into_iter().chain([0x03]).collect()] {
                    let mut buf = mixed(&mut seed, lead + at);
                    buf.extend(&stop);
                    if stop.len() + at != 8 {
                        buf.extend(mixed(&mut seed, 16));
                    }
                    stops_where_the_reader_does(&buf, 0);
                }
            }
        }
    }

    /// One- and two-byte zigzag varints, picked at random, `bytes` in all.
    fn mixed(seed: &mut u64, bytes: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        while buf.len() < bytes {
            *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (*seed >> 33) as i128;
            let two = bytes - buf.len() >= 2 && r & 1 == 1;
            write_ivarint(&mut buf, if two { (64 + r % 8_000) * (1 - 2 * ((r >> 20) & 1)) } else { r % 128 - 64 });
        }
        buf
    }

    /// For every `n`, `sum_ivarints64` from `start` emits what reading
    /// `read_ivarint` after `read_ivarint` sums, and stops with `(pos,
    /// acc)` exactly where that reader stands: after `n` values, or on the
    /// first varint it must leave to that reader (too wide for `i64`, or
    /// truncated).
    fn stops_where_the_reader_does(buf: &[u8], start: usize) {
        let mut reader = vec![(start, 0i64)];
        loop {
            let (mut pos, acc) = *reader.last().unwrap();
            match read_ivarint(buf, &mut pos).map(|v| i64::try_from(v + acc as i128)) {
                Ok(Ok(sum)) => reader.push((pos, sum)),
                _ => break,
            }
        }
        for n in 0..reader.len() + 2 {
            let (mut pos, mut acc, mut sums) = (start, 0i64, Vec::new());
            sum_ivarints64(buf, &mut pos, &mut acc, n, |v| {
                sums.push(v);
                Ok(())
            })
            .unwrap();
            let t = n.min(reader.len() - 1);
            let want: Vec<i64> = reader[1..=t].iter().map(|&(_, s)| s).collect();
            assert_eq!((sums, (pos, acc)), (want, reader[t]), "n = {n} from {start} of {buf:02x?}");
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
