//! Deterministic 64-bit hashing of sketch items.
//!
//! The linear-probing table (§2.3.3) needs a hash with good avalanche so
//! probe sequences stay short at a 3/4 load factor. We use the SplitMix64
//! finalizer for integer keys and an FNV-1a core with a SplitMix64 finalizer
//! for byte strings.
//!
//! Hashes are **deterministic and stable**: two sketches always agree on the
//! placement of the same item, and serialized sketches rehash identically
//! after deserialization on any platform. This is the property that makes
//! the merge-clustering caveat of §3.2 real (both summaries use the same
//! hash function), which the merge procedure counters by iterating the
//! source summary in randomized order; see [`crate::sketch::FreqSketch::merge`].

use core::hash::{Hash, Hasher};

use crate::rng::split_mix64_mix;

/// Items that can be hashed to a stable 64-bit value.
///
/// Implemented for the primitive integer types, `&str`, `String`, byte
/// slices, and — through a blanket-compatible helper [`hash64_of`] — any
/// `T: Hash` via the deterministic [`StableHasher`].
pub trait Hash64 {
    /// Returns the stable 64-bit hash of `self`.
    fn hash64(&self) -> u64;
}

macro_rules! impl_hash64_int {
    ($($t:ty),*) => {
        $(impl Hash64 for $t {
            #[inline]
            fn hash64(&self) -> u64 {
                split_mix64_mix(*self as u64)
            }
        })*
    };
}

impl_hash64_int!(u8, u16, u32, usize, i8, i16, i32, i64, isize);

impl Hash64 for u64 {
    #[inline]
    fn hash64(&self) -> u64 {
        split_mix64_mix(*self)
    }
}

impl Hash64 for u128 {
    #[inline]
    fn hash64(&self) -> u64 {
        split_mix64_mix((*self as u64) ^ split_mix64_mix((*self >> 64) as u64))
    }
}

impl Hash64 for [u8] {
    #[inline]
    fn hash64(&self) -> u64 {
        fnv1a_mix(self)
    }
}

impl Hash64 for &str {
    #[inline]
    fn hash64(&self) -> u64 {
        fnv1a_mix(self.as_bytes())
    }
}

impl Hash64 for String {
    #[inline]
    fn hash64(&self) -> u64 {
        fnv1a_mix(self.as_bytes())
    }
}

impl Hash64 for Vec<u8> {
    #[inline]
    fn hash64(&self) -> u64 {
        fnv1a_mix(self)
    }
}

impl<A: Hash64, B: Hash64> Hash64 for (A, B) {
    #[inline]
    fn hash64(&self) -> u64 {
        split_mix64_mix(
            self.0
                .hash64()
                .wrapping_add(self.1.hash64().rotate_left(32)),
        )
    }
}

/// FNV-1a over the bytes, then a SplitMix64 finalizer to repair FNV's weak
/// high bits (the table uses the *low* bits for indexing, but merge striding
/// and tests benefit from full-width avalanche).
#[inline]
pub fn fnv1a_mix(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    split_mix64_mix(h)
}

/// A deterministic `std::hash::Hasher` (FNV-1a core + SplitMix64 finalizer).
///
/// Unlike `std::collections::hash_map::DefaultHasher`, the output does not
/// depend on process-local random state, so sketches over arbitrary
/// `T: Hash` item types serialize and merge consistently across processes.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self {
            state: 0xCBF2_9CE4_8422_2325,
        }
    }
}

impl Hasher for StableHasher {
    #[inline]
    fn finish(&self) -> u64 {
        split_mix64_mix(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(PRIME);
        }
    }
}

/// Hashes any `T: Hash` deterministically with [`StableHasher`].
#[inline]
pub fn hash64_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = StableHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn integer_hashes_are_stable() {
        assert_eq!(42u64.hash64(), 42u64.hash64());
        assert_eq!(
            42u32.hash64(),
            42u64.hash64(),
            "same value, same width-extension"
        );
    }

    #[test]
    fn integer_hashes_spread_low_bits() {
        // Sequential keys must not collide in their low bits (the table
        // index bits) more than expected by chance.
        let mask = 1023u64;
        let mut buckets = vec![0u32; 1024];
        for i in 0..4096u64 {
            buckets[(i.hash64() & mask) as usize] += 1;
        }
        let max = buckets.iter().max().copied().unwrap();
        assert!(max <= 16, "low-bit clustering: max bucket {max}");
    }

    #[test]
    fn string_hash_matches_bytes_hash() {
        assert_eq!("hello".hash64(), b"hello"[..].hash64());
        assert_eq!(String::from("hello").hash64(), "hello".hash64());
    }

    #[test]
    fn distinct_strings_rarely_collide() {
        let mut seen = HashSet::new();
        for i in 0..50_000 {
            seen.insert(format!("item-{i}").hash64());
        }
        assert_eq!(seen.len(), 50_000);
    }

    #[test]
    fn stable_hasher_is_deterministic() {
        let a = hash64_of(&("composite", 17u64, vec![1u8, 2, 3]));
        let b = hash64_of(&("composite", 17u64, vec![1u8, 2, 3]));
        assert_eq!(a, b);
        let c = hash64_of(&("composite", 18u64, vec![1u8, 2, 3]));
        assert_ne!(a, c);
    }

    #[test]
    fn tuple_hash64_differs_by_order() {
        assert_ne!((1u64, 2u64).hash64(), (2u64, 1u64).hash64());
    }

    #[test]
    fn u128_hash_uses_both_halves() {
        let low_only = 0x1234_5678_9ABC_DEF0u128;
        let with_high = low_only | (1u128 << 100);
        assert_ne!(low_only.hash64(), with_high.hash64());
    }
}
