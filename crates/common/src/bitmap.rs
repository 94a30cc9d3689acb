//! Compact validity bitmaps.
//!
//! One bit per row: `1` = valid (non-NULL), `0` = NULL. The all-valid case
//! is common enough that [`Bitmap::all_valid`] stores no bytes at all.

/// A growable validity bitmap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
    /// Number of zero (NULL) bits; kept incrementally so `null_count` is O(1).
    zeros: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` rows, all valid.
    pub fn all_valid(len: usize) -> Self {
        let mut bits = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = bits.last_mut() {
            let used = len % 64;
            if used != 0 {
                *last = (1u64 << used) - 1;
            }
        }
        Bitmap { bits, len, zeros: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL (zero) bits.
    pub fn null_count(&self) -> usize {
        self.zeros
    }

    /// True if every row is valid.
    pub fn all_set(&self) -> bool {
        self.zeros == 0
    }

    pub fn shrink_to_fit(&mut self) {
        self.bits.shrink_to_fit();
    }

    /// Append one bit.
    pub fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if valid {
            self.bits[word] |= 1u64 << (self.len % 64);
        } else {
            self.zeros += 1;
        }
        self.len += 1;
    }

    /// Is row `i` valid? Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of bounds (len {})", self.len);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set row `i`'s validity.
    pub fn set(&mut self, i: usize, valid: bool) {
        let old = self.get(i);
        if old == valid {
            return;
        }
        if valid {
            self.bits[i / 64] |= 1u64 << (i % 64);
            self.zeros -= 1;
        } else {
            self.bits[i / 64] &= !(1u64 << (i % 64));
            self.zeros += 1;
        }
    }

    /// Row-wise AND with `other` (same length): valid where both are.
    /// Word-at-a-time, for kernels that combine operand validity.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let bits: Vec<u64> = self.bits.iter().zip(&other.bits).map(|(a, b)| a & b).collect();
        let ones: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
        Bitmap { bits, len: self.len, zeros: self.len - ones }
    }

    /// Append rows `from..to` of `src`, 64 at a time.
    pub fn extend_range(&mut self, src: &Bitmap, from: usize, to: usize) {
        assert!(from <= to && to <= src.len, "bitmap range {from}..{to} out of bounds (len {})", src.len);
        self.bits.reserve((self.len + to - from).div_ceil(64).saturating_sub(self.bits.len()));
        for at in (from..to).step_by(64) {
            let n = (to - at).min(64);
            self.push_word(src.word_at(at) & (u64::MAX >> (64 - n)), n);
        }
    }

    /// The 64 bits from row `i` on; bits past the end read 0.
    fn word_at(&self, i: usize) -> u64 {
        let (w, s) = (i / 64, i % 64);
        match s {
            0 => self.bits[w],
            _ => self.bits[w] >> s | self.bits.get(w + 1).map_or(0, |&hi| hi << (64 - s)),
        }
    }

    /// Append the low `n` (1..=64) bits of `word`, whose other bits are 0.
    fn push_word(&mut self, word: u64, n: usize) {
        match self.len % 64 {
            0 => self.bits.push(word),
            s => {
                *self.bits.last_mut().expect("a partly used word") |= word << s;
                if s + n > 64 {
                    self.bits.push(word >> (64 - s));
                }
            }
        }
        self.len += n;
        self.zeros += n - word.count_ones() as usize;
    }

    /// Iterate validity bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Build from an iterator of validity flags. (An inherent method, not
    /// the `FromIterator` trait, so callers never need the trait import.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bm = Bitmap::new();
        for b in iter {
            bm.push(b);
        }
        bm
    }

    /// Raw words (for the codec).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuild from raw parts; recomputes the zero count (a popcount per
    /// word — this runs once per decoded block).
    pub fn from_raw(mut words: Vec<u64>, len: usize) -> Self {
        assert!(words.len() == len.div_ceil(64));
        // Bits past `len` in the last word are not rows: clear them, so
        // every bitmap keeps a clean tail whatever the bytes said.
        if let (Some(last), used @ 1..) = (words.last_mut(), len % 64) {
            *last &= (1u64 << used) - 1;
        }
        let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        Bitmap { bits: words, len, zeros: len - ones }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set() {
        let mut bm = Bitmap::new();
        bm.push(true);
        bm.push(false);
        bm.push(true);
        assert_eq!(bm.len(), 3);
        assert_eq!(bm.null_count(), 1);
        assert!(bm.get(0) && !bm.get(1) && bm.get(2));
        bm.set(1, true);
        assert_eq!(bm.null_count(), 0);
        bm.set(0, false);
        assert_eq!(bm.null_count(), 1);
    }

    #[test]
    fn all_valid_exact_boundaries() {
        for len in [0, 1, 63, 64, 65, 128, 200] {
            let bm = Bitmap::all_valid(len);
            assert_eq!(bm.len(), len);
            assert_eq!(bm.null_count(), 0);
            assert!(bm.iter().all(|b| b));
        }
    }

    #[test]
    fn and_combines_validity() {
        let a = Bitmap::from_iter((0..130).map(|i| i % 2 == 0));
        let b = Bitmap::from_iter((0..130).map(|i| i % 3 == 0));
        let c = a.and(&b);
        assert_eq!(c.len(), 130);
        assert!((0..130).all(|i| c.get(i) == (i % 6 == 0)));
        assert_eq!(c.null_count(), 130 - 22);
        assert_eq!(a.and(&Bitmap::all_valid(130)), a);
    }

    #[test]
    fn raw_roundtrip() {
        let bm = Bitmap::from_iter([true, false, true, true, false].into_iter());
        let rt = Bitmap::from_raw(bm.words().to_vec(), bm.len());
        assert_eq!(bm, rt);
        assert_eq!(rt.null_count(), 2);
        // Stray bits past `len` are dropped, not counted.
        assert_eq!(Bitmap::from_raw(vec![u64::MAX, u64::MAX], 70), Bitmap::all_valid(70));
    }

    /// The word-level extend equals pushing the same bits one by one:
    /// every alignment of source and destination, across word ends.
    #[test]
    fn extend_range_equals_pushing_each_bit() {
        let src = Bitmap::from_iter((0..300).map(|i| i % 7 != 3 && i % 64 != 63));
        for head in [0, 1, 63, 64, 65, 130] {
            let dst = Bitmap::from_iter((0..head).map(|i| i % 5 != 0));
            for (from, to) in [(0, 0), (0, 300), (1, 64), (63, 129), (64, 128), (5, 6), (200, 300)] {
                let mut bulk = dst.clone();
                bulk.extend_range(&src, from, to);
                let mut pushed = dst.clone();
                (from..to).for_each(|i| pushed.push(src.get(i)));
                assert_eq!(bulk, pushed, "head {head}, {from}..{to}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::all_valid(3).get(3);
    }
}
