//! FxHash — the rustc hash — re-implemented locally.
//!
//! The distribution layer hashes billions of keys when routing rows to
//! slices, and the execution engine builds large integer-keyed hash tables
//! for joins and aggregation. SipHash's DoS resistance buys nothing there,
//! so we use the Fx algorithm (multiply-xor per word), matching the
//! Performance Book's guidance for integer-heavy workloads.
//!
//! The implementation is deliberately identical in structure to
//! `rustc-hash` so its distribution properties carry over, but it lives
//! here to keep the dependency set to the approved list.

use std::hash::{BuildHasherDefault, Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // The zero-padded little-endian word, assembled in a register:
            // a variable-length copy into a buffer is a `memcpy` call per
            // short string.
            let word = rem.iter().rev().fold(0u64, |w, &b| (w << 8) | b as u64);
            self.add_to_hash(word);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the Fx hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hash any `Hash` value to a `u64` with Fx. This is the routing hash used
/// by KEY distribution; its stability across the process is what makes
/// co-located joins line up slice-for-slice.
#[inline]
pub fn fx_hash64<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Mix a 64-bit value (splitmix64 finalizer) — used where we need a second
/// independent hash from the same key (e.g. KMV sketches).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(fx_hash64(&42u64), fx_hash64(&42u64));
        assert_eq!(fx_hash64("distkey"), fx_hash64("distkey"));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        let mut set = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            set.insert(fx_hash64(&i));
        }
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn short_tail_is_the_zero_padded_little_endian_word() {
        // Routing and sketches hash strings through `write`: the value
        // of a tail shorter than a word is part of the stored layout.
        for len in 1..8usize {
            let bytes: Vec<u8> = (1..=len as u8).collect();
            let mut padded = [0u8; 8];
            padded[..len].copy_from_slice(&bytes);
            let (mut a, mut b) = (FxHasher::default(), FxHasher::default());
            a.write(&bytes);
            b.write_u64(u64::from_le_bytes(padded));
            assert_eq!(a.finish(), b.finish(), "len {len}");
        }
    }

    #[test]
    fn byte_writes_match_any_chunking() {
        // write() must produce the same hash regardless of how callers
        // split the byte stream only when splits align to the 8-byte
        // boundary; verify the aligned property we rely on.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        b.write(&[9]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn balance_over_buckets() {
        // Routing hash should spread sequential keys evenly over slices.
        let slices = 16u64;
        let mut counts = vec![0usize; slices as usize];
        for i in 0..160_000u64 {
            counts[(fx_hash64(&i) % slices) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        // Within 10% of perfect balance.
        assert!((*max as f64) / (*min as f64) < 1.1, "counts {counts:?}");
    }

    #[test]
    fn mix64_changes_bits() {
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
    }
}
