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
//! chain keeps compression O(n) with bounded probing. An lzo column
//! block compresses only its text bytes (`compress_text`).

use crate::varint::{offsets_of_lengths, write_uvarint};
use redsim_common::codec::Reader;
use redsim_common::RsError;

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

/// How many bytes from `a` equal those from `b` (`a < b`), up to `max`:
/// eight at a time while a whole word fits, then byte by byte.
#[inline]
fn match_len(input: &[u8], a: usize, b: usize, max: usize) -> usize {
    let word = |at: usize| u64::from_le_bytes(input[at..at + 8].try_into().expect("eight bytes"));
    let mut l = 0;
    while l + 8 <= max {
        let diff = word(a + l) ^ word(b + l);
        if diff != 0 {
            return l + diff.trailing_zeros() as usize / 8;
        }
        l += 8;
    }
    while l < max && input[a + l] == input[b + l] {
        l += 1;
    }
    l
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
            // No candidate can beat a match of every byte left.
            let max = MAX_MATCH.min(input.len() - i);
            while cand != usize::MAX && probes < MAX_PROBES && best_len < max {
                if i - cand > WINDOW {
                    break;
                }
                // Only a candidate that also matches the byte at
                // `best_len` can be longer than the best so far.
                if input[cand + best_len] == input[i + best_len] {
                    let l = match_len(input, cand, i, max);
                    if l > best_len {
                        best_len = l;
                        best_off = i - cand;
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

/// Decompress a buffer produced by [`compress`]. The stream must end
/// exactly at the token that completes the header's length.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, RsError> {
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
    // (8 tokens: at most 16 input bytes, 8 × MAX_MATCH output bytes) plus
    // one chunk's overread and overshoot is sure to fit, the group
    // branches once per copy token: the literals before it move as one
    // 8-byte chunk (counted by the flag byte's trailing zeros), a short
    // copy as one 16-byte chunk. Bytes a chunk writes past its token are
    // overwritten by the next one. The tail of the stream takes the
    // careful path. Both paths reject a copy that reaches before the
    // output.
    const GROUP_IN: usize = 16 + 8; // + one literal chunk of overread
    const GROUP_OUT: usize = 8 * MAX_MATCH + 16; // + one copy chunk of overshoot
    let mut out = vec![0u8; expect];
    let mut n = 0usize;
    let mut pos = 4usize;
    while n < expect {
        let flags = *data.get(pos).ok_or_else(err)?;
        pos += 1;
        if pos + GROUP_IN <= data.len() && n + GROUP_OUT <= expect {
            // Bit 8 stands for the end of the group.
            let mut f = flags as u32 | 0x100;
            loop {
                let lits = f.trailing_zeros() as usize;
                out[n..n + 8].copy_from_slice(&data[pos..pos + 8]);
                (n, pos, f) = (n + lits, pos + lits, f >> lits);
                if f == 1 {
                    break;
                }
                f >>= 1;
                let token = u16::from_le_bytes([data[pos], data[pos + 1]]);
                pos += 2;
                let off = ((token >> 5) + 1) as usize;
                let len = (token & 0x1F) as usize + MIN_MATCH;
                if off > n {
                    return Err(err());
                }
                let start = n - off;
                if len <= 16 && off >= len {
                    // The first `len` bytes of the chunk are before the
                    // write cursor, so they are final.
                    out.copy_within(start..start + 16, n);
                } else if off >= 8 {
                    // Source chunks end at or before the write cursor,
                    // so chunked copying equals the byte-by-byte
                    // definition.
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
    // `compress` ends the stream at its last token: bytes after it mean a
    // lowered header (a truncated prefix would decode) or appended junk.
    if pos != data.len() {
        return Err(err());
    }
    Ok(out)
}

/// An lzo text payload of the rows `offsets` marks in `bytes` (a
/// `StrVec` arena), with no offsets array in it:
///
/// ```text
/// u32  byte count of the lengths, then one LEB128 varint per row
///      (its byte length; a NULL row holds the empty payload, so 0)
/// ...  compress(bytes), to the end of the payload
/// ```
pub(crate) fn compress_text(offsets: &[u32], bytes: &[u8]) -> Vec<u8> {
    let mut lengths = Vec::with_capacity(offsets.len());
    for w in offsets.windows(2) {
        write_uvarint(&mut lengths, (w[1] - w[0]) as u128);
    }
    let mut out = (lengths.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&lengths);
    out.extend_from_slice(&compress(bytes));
    out
}

/// The arena offsets and bytes of a [`compress_text`] payload of `rows`
/// rows: the decompressed buffer is the arena itself, and the offsets
/// are the lengths' prefix sum. Parts that disagree are a codec error.
pub(crate) fn decompress_text(payload: &[u8], rows: usize) -> Result<(Vec<u32>, Vec<u8>), RsError> {
    let mut r = Reader::new(payload);
    let lengths = r.get_bytes()?;
    let bytes = decompress(r.get_raw(r.remaining())?)?;
    Ok((offsets_of_lengths(lengths, rows, bytes.len())?, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_testkit::rng::{Pcg32, Rng, RngCore};

    /// The reference compressor: every chain candidate extended byte by
    /// byte. `compress` must emit exactly its tokens.
    fn compress_reference(input: &[u8]) -> Vec<u8> {
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

    /// The reference decoder: a branch per token, matches in 8-byte
    /// chunks. [`decompress`] must return its bytes or, where it errs,
    /// an error.
    fn decompress_reference(data: &[u8]) -> Result<Vec<u8>, RsError> {
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
        // `compress` ends the stream at its last token: bytes after it mean a
        // lowered header (a truncated prefix would decode) or appended junk.
        if pos != data.len() {
            return Err(err());
        }
        Ok(out)
    }

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let n = data.len();
        assert!(c == compress_reference(data), "tokens differ from the reference on {n} bytes");
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    /// A 4,096-row block of the `color-NNN` text a note column holds,
    /// as its arena bytes.
    fn color_block(seed: u64) -> Vec<u8> {
        const COLORS: [&str; 8] =
            ["red", "blue", "green", "amber", "black", "white", "cyan", "pink"];
        let mut x = seed;
        let mut out = Vec::new();
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (color, num) = (COLORS[(x >> 20) as usize % 8], (x >> 24) % 1000);
            out.extend_from_slice(format!("{color}-{num:03}").as_bytes());
        }
        out
    }

    #[test]
    fn compress_emits_the_reference_tokens() {
        for seed in [1, 0x9E37_79B9_7F4A_7C15, 42] {
            roundtrip(&color_block(seed));
        }
        // Matches that end exactly at, one short of and one past a word,
        // and inputs ending inside a would-be match.
        for n in 0..80 {
            let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789";
            let data: Vec<u8> = alphabet.iter().cycle().take(n).copied().collect();
            roundtrip(&[&data[..], &data[..], &data[..n / 2]].concat());
        }
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

    /// A stream that goes on past the token completing its header's
    /// length is corrupt: a lowered header must not decode to a prefix,
    /// and bytes appended after the last token must not be ignored.
    #[test]
    fn a_stream_must_end_at_its_last_token() {
        let text: String = (0..200).map(|i| format!("{i},{}\n", i * 7919 % 1000)).collect();
        let c = compress(text.as_bytes());
        assert_eq!(decompress(&c).unwrap(), text.as_bytes());
        // Lower the header to end inside line 101, "100,900": at "100,9".
        let cut = text.split_inclusive('\n').take(100).map(str::len).sum::<usize>() + 5;
        let mut lowered = c.clone();
        lowered[..4].copy_from_slice(&(cut as u32).to_le_bytes());
        assert!(decompress(&lowered).is_err(), "a lowered header decoded a prefix");
        let mut appended = c.clone();
        appended.extend_from_slice(&[0x5A; 12]);
        assert!(decompress(&appended).is_err(), "appended bytes were ignored");
        // Every shorter header, and one junk byte after any stream.
        for len in 0..text.len() {
            lowered[..4].copy_from_slice(&(len as u32).to_le_bytes());
            assert!(decompress(&lowered).is_err(), "header lowered to {len}");
        }
        for data in [&b""[..], b"a", b"abcabcabc", text.as_bytes()] {
            let mut c = compress(data);
            c.push(0);
            assert!(decompress(&c).is_err(), "{} bytes + 1", data.len());
        }
        assert_eq!(compress(b""), 0u32.to_le_bytes(), "the empty stream is its header");
    }

    /// A stream of `tokens` random tokens that decodes: literals, and
    /// copies of every length at any distance the output so far allows
    /// (half of them within 20 bytes, so overlapping copies are common).
    fn random_stream(rng: &mut Pcg32, tokens: usize) -> Vec<u8> {
        let (mut body, mut n, mut flags_at) = (Vec::new(), 0usize, 0usize);
        for t in 0..tokens {
            if t % 8 == 0 {
                flags_at = body.len();
                body.push(0);
            }
            let reach = n.min(WINDOW);
            if reach > 0 && rng.gen_index(3) == 0 {
                let near = rng.gen_bool(0.5);
                let off = 1 + rng.gen_index(if near { reach.min(20) } else { reach });
                let len = MIN_MATCH + rng.gen_index(MAX_MATCH - MIN_MATCH + 1);
                body[flags_at] |= 1 << (t % 8);
                let token = (((off - 1) << 5) | (len - MIN_MATCH)) as u16;
                body.extend_from_slice(&token.to_le_bytes());
                n += len;
            } else {
                body.push(b'a' + rng.gen_index(4) as u8);
                n += 1;
            }
        }
        [&(n as u32).to_le_bytes()[..], &body].concat()
    }

    /// The group path decodes what the reference decoder does: random
    /// token streams, compressed text, every truncation and single-byte
    /// flips of both, and random bytes — the same bytes, or both an error.
    #[test]
    fn decompress_agrees_with_the_reference() {
        let agree = |data: &[u8]| match (decompress(data), decompress_reference(data)) {
            (Ok(a), Ok(b)) => assert!(a == b, "{} stream bytes decode differently", data.len()),
            (Err(_), Err(_)) => {}
            (a, b) => {
                let (a, b) = (a.map(|v| v.len()), b.map(|v| v.len()));
                panic!("{} stream bytes: {a:?} vs the reference's {b:?}", data.len())
            }
        };
        let mut rng = Pcg32::new(0x1255, 37);
        let mut streams: Vec<Vec<u8>> = (0..40).map(|k| random_stream(&mut rng, 1 + k * 13)).collect();
        streams.push(compress(&color_block(5)[..6_000]));
        streams.push(compress(&b"http://example.com/page ".repeat(40)));
        for stream in &streams {
            assert_eq!(decompress(stream).unwrap(), decompress_reference(stream).unwrap());
            for cut in 0..stream.len() {
                agree(&stream[..cut]);
            }
            let mut flipped = stream.clone();
            for at in 0..stream.len() {
                let bit = 1 << rng.gen_index(8);
                flipped[at] ^= bit;
                agree(&flipped);
                flipped[at] ^= bit;
            }
        }
        for _ in 0..2_000 {
            let mut junk = vec![0u8; 4 + rng.gen_index(200)];
            rng.fill_bytes(&mut junk);
            let claim = rng.gen_index(junk.len() * MAX_MATCH / 2 + 1) as u32;
            junk[..4].copy_from_slice(&claim.to_le_bytes());
            agree(&junk);
        }
    }

    #[test]
    fn corrupt_stream_rejected() {
        let c = compress(b"hello hello hello hello");
        assert!(decompress(&c[..c.len() - 1]).is_err());
        assert!(decompress(&[1, 0]).is_err());
    }
}
