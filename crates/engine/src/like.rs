//! SQL `LIKE`: `%` matches any run of characters, `_` any single one.
//!
//! The one matcher every evaluator shares. [`LikeMatcher::new`] compiles
//! the pattern into a shape once per call site (the kernels and `expr`
//! do it once per batch, never per row); matching then runs over the
//! text's bytes with no allocation. Runs of `%` collapse, and a pattern
//! without `_` whose only wildcards sit at its ends needs no
//! backtracking at all:
//!
//! | pattern | shape | test |
//! |---|---|---|
//! | `abc` | exact | equality |
//! | `abc%` | prefix | `starts_with` |
//! | `%abc` | suffix | `ends_with` |
//! | `%abc%` | contains | substring search |
//! | anything else | general | two-pointer with backtracking on the last `%` |
//!
//! Over a column, a prefix literal of at most 8 bytes tests a row without
//! a slice compare: a length check and-ed with one masked little-endian
//! word read straight from the `StrVec` arena.
//!
//! Literal bytes compare directly: UTF-8 is self-synchronising, so a
//! pattern character can only match at a character boundary of the
//! text. Only `_` and the backtracking step need to know how wide a
//! character is.

use crate::selection::Selection;
use redsim_common::{Bitmap, StrVec};

enum Shape {
    Exact(Vec<u8>),
    Prefix(Vec<u8>),
    Suffix(Vec<u8>),
    Contains(Vec<u8>),
    General(Vec<Tok>),
}

#[derive(Clone, Copy, PartialEq)]
enum Tok {
    Byte(u8),
    /// `_`
    AnyChar,
    /// `%` (runs collapsed)
    AnyRun,
}

/// Run `$body` with `$test: Fn(&[u8]) -> bool` bound to the matcher's
/// shape — one definition of each shape's test for the per-row and the
/// per-column entry points.
macro_rules! by_shape {
    ($m:expr, $test:ident => $body:expr) => {
        match &$m.shape {
            Shape::Exact(lit) => {
                let $test = |t: &[u8]| t == lit.as_slice();
                $body
            }
            Shape::Prefix(lit) => {
                let $test = |t: &[u8]| t.starts_with(lit);
                $body
            }
            // An empty suffix runs no compare: `ends_with` of an empty
            // `Vec` (`'%'`) cost ~115 ns a row, ~4 ns once skipped.
            Shape::Suffix(lit) => {
                let $test = |t: &[u8]| lit.is_empty() || t.ends_with(lit);
                $body
            }
            Shape::Contains(lit) => {
                let $test =
                    |t: &[u8]| lit.is_empty() || t.windows(lit.len()).any(|w| w == lit.as_slice());
                $body
            }
            Shape::General(toks) => {
                let $test = |t: &[u8]| general(toks, t);
                $body
            }
        }
    };
}

/// A compiled `LIKE` pattern.
pub struct LikeMatcher {
    shape: Shape,
}

impl LikeMatcher {
    pub fn new(pattern: &str) -> Self {
        let mut toks: Vec<Tok> = Vec::with_capacity(pattern.len());
        for &b in pattern.as_bytes() {
            let t = match b {
                b'%' => Tok::AnyRun,
                b'_' => Tok::AnyChar,
                b => Tok::Byte(b),
            };
            if t != Tok::AnyRun || toks.last() != Some(&Tok::AnyRun) {
                toks.push(t);
            }
        }
        let lead = toks.first() == Some(&Tok::AnyRun);
        let trail = toks.len() > 1 && toks.last() == Some(&Tok::AnyRun);
        let inner = &toks[lead as usize..toks.len() - trail as usize];
        let literal: Option<Vec<u8>> = inner
            .iter()
            .map(|t| if let Tok::Byte(b) = t { Some(*b) } else { None })
            .collect();
        let shape = match (literal, lead, trail) {
            (Some(lit), false, false) => Shape::Exact(lit),
            (Some(lit), false, true) => Shape::Prefix(lit),
            (Some(lit), true, false) => Shape::Suffix(lit),
            (Some(lit), true, true) => Shape::Contains(lit),
            (None, ..) => Shape::General(toks),
        };
        LikeMatcher { shape }
    }

    pub fn matches(&self, s: &str) -> bool {
        self.matches_bytes(s.as_bytes())
    }

    /// Match UTF-8 text given as bytes (what `StrVec::bytes_at` hands
    /// out, skipping the per-row validity check of `&str` access).
    pub fn matches_bytes(&self, text: &[u8]) -> bool {
        by_shape!(self, test => test(text))
    }

    /// The candidates whose string is non-NULL and matches (`want`) or
    /// does not (`!want`): the LIKE kernel. The shape is picked once,
    /// outside the row loop; a coded column is matched once per
    /// dictionary entry.
    pub(crate) fn select(
        &self,
        data: &StrVec,
        nulls: &Bitmap,
        cand: &Selection,
        want: bool,
    ) -> Selection {
        if let Some((codes, dict)) = data.as_coded() {
            // Once per dictionary entry, then a lookup per row.
            let hits: Vec<bool> =
                (0..dict.len()).map(|e| self.matches_bytes(dict.bytes_at(e)) == want).collect();
            return cand.select_valid(Some(nulls), None, |i| hits[codes[i] as usize]);
        }
        match &self.shape {
            // A prefix of ≤ 8 bytes tests a row with a length check and one
            // masked arena word, falling back to the slice compare only
            // within 8 bytes of the arena's end.
            Shape::Prefix(lit) if lit.len() <= 8 => {
                let (off, bytes) = data.raw_parts();
                let k = lit.len();
                let (mask, pat) = prefix_word(lit);
                cand.select_valid(Some(nulls), None, |i| {
                    let (s, e) = (off[i] as usize, off[i + 1] as usize);
                    let word = bytes
                        .get(s..s + 8)
                        .map_or_else(|| bytes[s..e].starts_with(lit), |w| le_word(w) & mask == pat);
                    ((e - s >= k) & word) == want
                })
            }
            _ => by_shape!(self, test => {
                cand.select_valid(Some(nulls), None, |i| test(data.bytes_at(i)) == want)
            }),
        }
    }
}

/// Eight arena bytes as a little-endian word.
#[inline]
fn le_word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an eight-byte window"))
}

/// `(mask, pattern)` for a literal of ≤ 8 bytes at the low end of a
/// little-endian word.
fn prefix_word(lit: &[u8]) -> (u64, u64) {
    let mut b = [0u8; 8];
    let mut m = [0u8; 8];
    b[..lit.len()].copy_from_slice(lit);
    m[..lit.len()].fill(0xFF);
    (u64::from_le_bytes(m), u64::from_le_bytes(b))
}

/// Byte index of the character after the one starting at `i`.
#[inline]
fn next_char(text: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < text.len() && text[j] & 0xC0 == 0x80 {
        j += 1;
    }
    j
}

/// Iterative two-pointer match with backtracking on the last `%`; `ti`
/// and the backtrack point always sit on character boundaries.
fn general(toks: &[Tok], text: &[u8]) -> bool {
    let (mut ti, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern index, text index)
    while ti < text.len() {
        match toks.get(pi) {
            Some(Tok::Byte(b)) if *b == text[ti] => {
                ti += 1;
                pi += 1;
            }
            Some(Tok::AnyChar) => {
                ti = next_char(text, ti);
                pi += 1;
            }
            Some(Tok::AnyRun) => {
                star = Some((pi, ti));
                pi += 1;
            }
            _ => match star {
                // Let the last `%` swallow one more character.
                Some((sp, st)) => {
                    let st = next_char(text, st);
                    star = Some((sp, st));
                    pi = sp + 1;
                    ti = st;
                }
                None => return false,
            },
        }
    }
    toks[pi..].iter().all(|t| *t == Tok::AnyRun)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_testkit::prop::{self, Config};

    #[test]
    fn like_matching() {
        let m = LikeMatcher::new("http://%amazon%");
        assert!(m.matches("http://www.amazon.com"));
        assert!(!m.matches("https://www.amazon.com"));
        assert!(LikeMatcher::new("a_c").matches("abc"));
        assert!(!LikeMatcher::new("a_c").matches("abbc"));
        assert!(LikeMatcher::new("%").matches(""));
        assert!(LikeMatcher::new("%%x").matches("zzzx"));
        assert!(!LikeMatcher::new("x%").matches("yx"));
    }

    #[test]
    fn shapes_are_recognised() {
        let shape = |p: &str| match LikeMatcher::new(p).shape {
            Shape::Exact(_) => "exact",
            Shape::Prefix(_) => "prefix",
            Shape::Suffix(_) => "suffix",
            Shape::Contains(_) => "contains",
            Shape::General(_) => "general",
        };
        assert_eq!(shape(""), "exact");
        assert_eq!(shape("abc"), "exact");
        assert_eq!(shape("abc%"), "prefix");
        assert_eq!(shape("abc%%"), "prefix");
        assert_eq!(shape("%"), "suffix");
        assert_eq!(shape("%%"), "suffix");
        assert_eq!(shape("%%abc"), "suffix");
        assert_eq!(shape("%abc%"), "contains");
        assert_eq!(shape("a%c"), "general");
        assert_eq!(shape("a_c%"), "general");
    }

    #[test]
    fn underscore_is_one_character_not_one_byte() {
        assert!(LikeMatcher::new("_").matches("é"));
        assert!(!LikeMatcher::new("__").matches("é"));
        assert!(LikeMatcher::new("a_c").matches("a日c"));
        assert!(LikeMatcher::new("%_c").matches("日日c"));
        assert!(!LikeMatcher::new("_").matches(""));
        assert!(LikeMatcher::new("%é%").matches("caféine"));
        assert!(LikeMatcher::new("日%").matches("日本"));
        assert!(!LikeMatcher::new("%日").matches("日本"));
    }

    #[test]
    fn column_kernel_agrees_with_row_matcher() {
        use redsim_common::{ColumnData, DataType, Value};
        // Every shape through the per-column entry point, one NULL row,
        // on the arena and on its coded twin (matched per dictionary
        // entry).
        let texts = [
            "red-031",
            "red-03",
            "red-0",
            "",
            "blue-123456789",
            "réd-031",
            "red-039",
            "r",
        ];
        let mut col = ColumnData::new(DataType::Varchar);
        for t in texts {
            col.push_value(&Value::Str(t.into())).unwrap();
        }
        col.push_null();
        let ColumnData::Str { data, nulls } = &col else {
            unreachable!()
        };
        let coded = data.coded();
        assert!(coded.as_coded().is_some());
        let all = Selection::all(col.len());
        for pattern in [
            "r%",
            "red-03%",
            "red-031%",
            "blue-1234%",
            "ré%",
            "%",
            "red-03",
            "%3_",
            "r_d%",
            // The widest word-wide prefix, beside the 9-byte slice compare
            // of `blue-1234%`; the last rows sit within 8 bytes of the
            // arena's end.
            "blue-123%",
            // Empty literals, over the empty row and the NULL row.
            "",
            "%%",
        ] {
            let m = LikeMatcher::new(pattern);
            let chars = |s: &str| s.chars().collect::<Vec<_>>();
            for t in texts {
                assert_eq!(m.matches(t), oracle(&chars(pattern), &chars(t)), "{pattern} on {t:?}");
            }
            for want in [true, false] {
                let expect = all.select(|i| nulls.get(i) && m.matches(data.get(i)) == want);
                assert_eq!(
                    m.select(data, nulls, &all, want),
                    expect,
                    "{pattern} want={want}"
                );
                let got = m.select(&coded, nulls, &all, want);
                assert_eq!(got, expect, "coded {pattern} want={want}");
            }
        }
    }

    /// Exponential-but-correct reference implementation.
    fn oracle(pattern: &[char], text: &[char]) -> bool {
        match pattern.split_first() {
            None => text.is_empty(),
            Some(('%', rest)) => (0..=text.len()).any(|k| oracle(rest, &text[k..])),
            Some(('_', rest)) => !text.is_empty() && oracle(rest, &text[1..]),
            Some((c, rest)) => text.first() == Some(c) && oracle(rest, &text[1..]),
        }
    }

    #[test]
    fn matcher_agrees_with_oracle() {
        // `é` and `日` are two and three bytes: `_` and the backtracking
        // step must move by characters.
        let gen = prop::pair(
            prop::pattern("[abé%_]{0,10}"),
            prop::pattern("[abé日]{0,12}"),
        );
        prop::check(
            "matcher_agrees_with_oracle",
            &Config::with_cases(2048),
            &gen,
            |(pattern, text)| {
                let fast = LikeMatcher::new(pattern).matches(text);
                let slow = oracle(
                    &pattern.chars().collect::<Vec<_>>(),
                    &text.chars().collect::<Vec<_>>(),
                );
                assert_eq!(fast, slow, "pattern={:?} text={:?}", pattern, text);
            },
        );
    }
}
