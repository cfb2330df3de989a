//! A minimal Fx-style hasher for hot-path index maps.
//!
//! The standard library's default `SipHash13` is DoS-resistant but costs
//! tens of cycles per key; index maps on the θ-subsumption hot path hash
//! small fixed-size keys (`(RelId, arity)` signatures, 16-byte `Term`s)
//! millions of times per covering loop and are built from trusted,
//! process-internal data, so a multiply-rotate hash is the right trade-off.
//! This is the same algorithm rustc uses internally (`FxHasher`),
//! re-implemented here because the build environment is offline.
//!
//! Fx gives up the default hasher's protection against chosen keys: keys
//! that agree in their low bits (integers that are multiples of a large
//! power of two, say) all land in one probe sequence. So where it is used on
//! the serving path decides whether that matters:
//!
//! * **Fine:** maps that live for one grounding or one request and are
//!   bounded by its configured limits, keyed by interned ids and integers.
//!   A bottom-clause walk's state, a ground clause's candidate index and a
//!   delta's change set are such maps; colliding keys cost that one bounded
//!   computation at most.
//! * **Not fine:** database-wide indexes keyed by committed data, such as
//!   `Relation`'s per-attribute value indexes. Whoever can commit values
//!   chooses their keys, and a collision run there slows every probe for as
//!   long as the data stays. Those keep the default hasher, as does any map
//!   keyed by a string's bytes.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher (the rustc `FxHasher` algorithm).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equally() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"movies"), hash(b"movies"));
        assert_ne!(hash(b"movies"), hash(b"movies2"));
        // Chunk boundary (exactly 8 and 8+1 bytes).
        assert_eq!(hash(b"12345678"), hash(b"12345678"));
        assert_ne!(hash(b"12345678"), hash(b"123456789"));
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FxHashMap<(u64, usize), Vec<usize>> = FxHashMap::default();
        m.entry((1, 2)).or_default().push(7);
        m.entry((1, 2)).or_default().push(8);
        m.entry((3, 4)).or_default().push(9);
        assert_eq!(m[&(1, 2)], vec![7, 8]);
        assert_eq!(m.len(), 2);
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(5));
        assert!(!s.insert(5));
    }
}
