//! LZSS — sliding-window Lempel–Ziv with literal/copy flags.
//!
//! Used for text-heavy columns where dictionary and run-length codecs do
//! not apply (URLs, user agents, free text — exactly the web-log payloads
//! of the paper's flagship workload). Format:
//!
//! ```text
//! [u32 uncompressed_len] then a stream of groups:
//!   flag byte: bit i set => token i is a (offset,len) copy, else literal
//!   literal: 1 raw byte
//!   copy:    2 bytes: offset (11 bits, 1-based back-distance) | len-3 (5 bits)
//! ```
//!
//! Window 2048 bytes, match lengths 3..=34. A simple 3-byte-prefix hash
//! chain keeps compression O(n) with bounded probing.

const WINDOW: usize = 2048;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 34;
const HASH_SIZE: usize = 1 << 12;
const MAX_PROBES: usize = 32;

#[inline]
fn hash3(b: &[u8]) -> usize {
    let h = (b[0] as u32).wrapping_mul(2654435761)
        ^ (b[1] as u32).wrapping_mul(40503)
        ^ (b[2] as u32).wrapping_mul(2246822519);
    (h as usize) & (HASH_SIZE - 1)
}

/// Compress `input`. Always succeeds; worst case expands by ~1/8 + 5 bytes.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    // head[h] = most recent position with hash h; prev[i % WINDOW] = chain.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; WINDOW];
    let mut i = 0usize;
    let mut flag_pos = usize::MAX;
    let mut flag_bit = 8u8;
    let push_token = |out: &mut Vec<u8>, flag_pos: &mut usize, flag_bit: &mut u8, is_copy: bool, bytes: &[u8]| {
        if *flag_bit == 8 {
            *flag_pos = out.len();
            out.push(0);
            *flag_bit = 0;
        }
        if is_copy {
            let fp = *flag_pos;
            out[fp] |= 1 << *flag_bit;
        }
        *flag_bit += 1;
        out.extend_from_slice(bytes);
    };
    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash3(&input[i..]);
            let mut cand = head[h];
            let mut probes = 0;
            while cand != usize::MAX && probes < MAX_PROBES {
                if i - cand > WINDOW {
                    break;
                }
                // Extend match.
                let max = MAX_MATCH.min(input.len() - i);
                let mut l = 0;
                while l < max && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - cand;
                    if l == MAX_MATCH {
                        break;
                    }
                }
                cand = prev[cand % WINDOW];
                probes += 1;
            }
        }
        if best_len >= MIN_MATCH {
            let token = ((best_off as u16 - 1) << 5) | (best_len as u16 - MIN_MATCH as u16);
            push_token(&mut out, &mut flag_pos, &mut flag_bit, true, &token.to_le_bytes());
            // Insert hash entries for every covered position.
            let end = i + best_len;
            while i < end && i + MIN_MATCH <= input.len() {
                let h = hash3(&input[i..]);
                prev[i % WINDOW] = head[h];
                head[h] = i;
                i += 1;
            }
            i = end;
        } else {
            if i + MIN_MATCH <= input.len() {
                let h = hash3(&input[i..]);
                prev[i % WINDOW] = head[h];
                head[h] = i;
            }
            push_token(&mut out, &mut flag_pos, &mut flag_bit, false, &input[i..=i]);
            i += 1;
        }
    }
    out
}

/// Decompress a buffer produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, redsim_common::RsError> {
    use redsim_common::RsError;
    let err = || RsError::Codec("corrupt LZSS stream".into());
    if data.len() < 4 {
        return Err(err());
    }
    let expect = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
    // A 2-byte copy token yields at most MAX_MATCH bytes: a header
    // claiming more than the stream can hold is corrupt (and must not
    // size the allocation).
    if expect > data.len().saturating_mul(MAX_MATCH / 2) {
        return Err(err());
    }
    // Decode into a buffer of the final size. While a whole flag group
    // (8 tokens: at most 16 input bytes, 8 × MAX_MATCH output bytes) is
    // sure to fit, tokens are copied without per-byte bounds questions,
    // matches in 8-byte chunks; the tail of the stream takes the careful
    // path. Both paths reject a copy that reaches before the output.
    const GROUP_OUT: usize = 8 * MAX_MATCH + 8; // + one chunk of overshoot
    let mut out = vec![0u8; expect];
    let mut n = 0usize;
    let mut pos = 4usize;
    while n < expect {
        let flags = *data.get(pos).ok_or_else(err)?;
        pos += 1;
        if pos + 16 <= data.len() && n + GROUP_OUT <= expect {
            if flags == 0 {
                out[n..n + 8].copy_from_slice(&data[pos..pos + 8]);
                n += 8;
                pos += 8;
                continue;
            }
            for bit in 0..8 {
                if flags & (1 << bit) == 0 {
                    out[n] = data[pos];
                    n += 1;
                    pos += 1;
                    continue;
                }
                let token = u16::from_le_bytes([data[pos], data[pos + 1]]);
                pos += 2;
                let off = ((token >> 5) + 1) as usize;
                let len = (token & 0x1F) as usize + MIN_MATCH;
                if off > n {
                    return Err(err());
                }
                let start = n - off;
                if off >= 8 {
                    // Source chunks end at or before the write cursor,
                    // so chunked copying equals the byte-by-byte
                    // definition; the overshoot past `len` is overwritten
                    // by the next token (GROUP_OUT reserves room for it).
                    let mut k = 0;
                    while k < len {
                        out.copy_within(start + k..start + k + 8, n + k);
                        k += 8;
                    }
                } else {
                    for k in 0..len {
                        out[n + k] = out[start + k];
                    }
                }
                n += len;
            }
            continue;
        }
        for bit in 0..8 {
            if n >= expect {
                break;
            }
            if flags & (1 << bit) != 0 {
                let (Some(&lo), Some(&hi)) = (data.get(pos), data.get(pos + 1)) else {
                    return Err(err());
                };
                pos += 2;
                let token = u16::from_le_bytes([lo, hi]);
                let off = ((token >> 5) + 1) as usize;
                let len = (token & 0x1F) as usize + MIN_MATCH;
                if off > n || n + len > expect {
                    return Err(err());
                }
                let start = n - off;
                // Overlapping copies are defined byte-by-byte.
                for k in 0..len {
                    out[n + k] = out[start + k];
                }
                n += len;
            } else {
                out[n] = *data.get(pos).ok_or_else(err)?;
                n += 1;
                pos += 1;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_compresses_well() {
        let data = b"http://example.com/page ".repeat(200);
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_matches() {
        // "aaaa..." forces overlapping copy semantics.
        let data = vec![b'a'; 1000];
        roundtrip(&data);
    }

    #[test]
    fn incompressible_roundtrips() {
        // Pseudo-random bytes shouldn't compress but must round-trip.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn long_input_exceeding_window() {
        let mut data = Vec::new();
        for i in 0..3000u32 {
            data.extend_from_slice(format!("row-{}-{}", i % 10, i).as_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn copy_reaching_before_the_output_is_rejected_on_both_paths() {
        // Flag byte 0x01: first token is a copy with back-distance 1 at
        // output position 0. Short stream → careful path; padded with
        // literals so a whole group fits → fast path.
        let mut short = 4u32.to_le_bytes().to_vec();
        short.extend_from_slice(&[0x01, 0x00, 0x00]);
        assert!(decompress(&short).is_err());
        let mut long = 600u32.to_le_bytes().to_vec();
        long.extend_from_slice(&[0x01, 0x00, 0x00]);
        long.extend(std::iter::repeat_n(0u8, 700));
        assert!(decompress(&long).is_err());
    }

    #[test]
    fn every_length_and_distance_roundtrips() {
        // Periods 1..40 exercise overlapping (distance < 8) and chunked
        // copies, at every match length, through both decode paths.
        for period in 1..40usize {
            let data: Vec<u8> = (0..3000).map(|i| (i % period) as u8 ^ (i / 997) as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn corrupt_stream_rejected() {
        let c = compress(b"hello hello hello hello");
        assert!(decompress(&c[..c.len() - 1]).is_err());
        assert!(decompress(&[1, 0]).is_err());
    }
}
