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

/// Read a zigzag varint.
pub fn read_ivarint(buf: &[u8], pos: &mut usize) -> Result<i128> {
    Ok(unzigzag(read_uvarint(buf, pos)?))
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
