//! Dependency-free FxHash-style hashing.
//!
//! The workspace uses no external crates, so this module reimplements the
//! rotate-xor-multiply mixer popularised by Firefox and rustc's `FxHashMap`
//! (`hash' = (hash <<< 5 ^ word) * K`): not cryptographic, but extremely
//! cheap and well-distributed for the small structured words the schedule
//! cache feeds it. Two artifacts are exposed:
//!
//! * [`FxHasher`] / [`FxBuildHasher`] — a [`std::hash::Hasher`] for the
//!   cache's shard `HashMap`s (replacing SipHash, which would dominate the
//!   cost of an O(1) hit),
//! * [`KeyHasher`] — a 128-bit accumulator building the content-addressed
//!   [`CacheKey`] itself, wide enough that distinct (loop, machine,
//!   scheduler, options) tuples never collide in practice.

use std::hash::{BuildHasher, Hasher};

/// The 64-bit FxHash multiplier (`2^64 / φ`, rounded to odd).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Mixes one word into a running FxHash state.
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(K)
}

/// An FxHash-style [`Hasher`]: fast multiply-xor mixing for the cache's
/// shard maps (and anything else in the workspace that wants a cheap
/// deterministic hash).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A hasher starting from `seed` instead of zero.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self { hash: seed }
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.hash = mix(self.hash, word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Mix the remainder length too, so "ab" and "ab\0" differ.
            self.hash = mix(
                self.hash,
                u64::from_le_bytes(word) ^ (rest.len() as u64) << 56,
            );
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.hash = mix(self.hash, u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.hash = mix(self.hash, u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.hash = mix(self.hash, i);
    }

    fn write_usize(&mut self, i: usize) {
        self.hash = mix(self.hash, i as u64);
    }
}

/// [`BuildHasher`] for [`FxHasher`], usable as the `S` parameter of
/// [`std::collections::HashMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A 128-bit content-addressed cache key (see the [crate docs](crate) for
/// what gets fed into it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Low half of the key.
    pub lo: u64,
    /// High half of the key.
    pub hi: u64,
}

/// Accumulates a [`CacheKey`]: two FxHash lanes with different seeds and
/// decorrelated inputs, fed field-by-field by the canonicalizer and the
/// pipeline.
///
/// All inputs are reduced to `u64` words explicitly (no layout- or
/// platform-dependent hashing), so keys are stable across runs, platforms
/// and thread counts — a requirement for the byte-identical-replay
/// guarantees of the service runtime.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    lo: u64,
    hi: u64,
}

impl KeyHasher {
    /// Golden-ratio odd constant decorrelating the high lane.
    const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

    /// A fresh key accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            lo: 0,
            hi: Self::PHI,
        }
    }

    /// Feeds one raw word into both lanes.
    pub fn u64(&mut self, v: u64) {
        self.lo = mix(self.lo, v);
        self.hi = mix(self.hi, v.wrapping_mul(Self::PHI).rotate_left(32));
    }

    /// Feeds a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    /// Feeds a `usize`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Feeds an `i64` (bit pattern).
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Feeds a `bool`.
    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    /// Feeds an `f64` by bit pattern (exact, including the sign of zero).
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds a string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        let mut chunks = s.as_bytes().chunks_exact(8);
        for chunk in &mut chunks {
            self.u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.u64(u64::from_le_bytes(word));
        }
    }

    /// The accumulated 128-bit key.
    #[must_use]
    pub fn finish(&self) -> CacheKey {
        CacheKey {
            lo: self.lo,
            hi: self.hi,
        }
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hasher_is_deterministic_and_sensitive() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"modulo"), hash(b"modulo"));
        assert_ne!(hash(b"modulo"), hash(b"module"));
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b""), hash(b"\0"));
    }

    #[test]
    fn fx_build_hasher_works_in_a_hashmap() {
        let mut map: std::collections::HashMap<u64, u64, FxBuildHasher> =
            std::collections::HashMap::with_hasher(FxBuildHasher);
        for i in 0..1000 {
            map.insert(i, i * 2);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&437), Some(&874));
    }

    #[test]
    fn key_hasher_orders_and_values_matter() {
        let key = |values: &[u64]| {
            let mut k = KeyHasher::new();
            for &v in values {
                k.u64(v);
            }
            k.finish()
        };
        assert_eq!(key(&[1, 2, 3]), key(&[1, 2, 3]));
        assert_ne!(key(&[1, 2, 3]), key(&[3, 2, 1]));
        assert_ne!(key(&[0]), key(&[0, 0]));
        let k = key(&[42]);
        assert_ne!(k.lo, k.hi, "lanes are decorrelated");
    }

    #[test]
    fn key_hasher_field_helpers_are_distinct() {
        let mut a = KeyHasher::new();
        a.str("ab");
        let mut b = KeyHasher::new();
        b.str("a");
        b.str("b");
        assert_ne!(a.finish(), b.finish(), "length prefix separates strings");
    }
}
