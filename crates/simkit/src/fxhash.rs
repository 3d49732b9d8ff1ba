//! A fast, deterministic hasher for membership-only maps.
//!
//! The per-request hot paths (qpair contexts, staged commands, pending
//! writes) key maps by small integers; SipHash dominates their cost. This
//! is the multiply–rotate–xor scheme rustc uses (`FxHasher`): a few ALU
//! ops per word, deterministic across runs and platforms — which the
//! simulator requires anyway — and entirely dependency-free.
//!
//! Only use these aliases for maps that are **never iterated**: iteration
//! order depends on the hasher, and hash-order iteration is exactly what
//! the workspace's `hashmap-iter` clippy rule (DESIGN.md §10) keeps off
//! the event paths.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc `FxHasher`: fold each word into the state with a rotate,
/// xor and multiply.
#[derive(Default)]
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
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hash = |v: u16| {
            let mut h = FxHasher::default();
            h.write_u16(v);
            h.finish()
        };
        let hashes: std::collections::BTreeSet<u64> = (0..1024).map(hash).collect();
        assert_eq!(hashes.len(), 1024, "no collisions on small CIDs");
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u8, u16), u64> = FxHashMap::default();
        for owner in 0..4u8 {
            for cid in 0..256u16 {
                m.insert((owner, cid), u64::from(owner) * 1000 + u64::from(cid));
            }
        }
        assert_eq!(m.len(), 1024);
        assert_eq!(m.get(&(3, 255)), Some(&3255));
        assert_eq!(m.remove(&(0, 0)), Some(0));
    }

    #[test]
    fn byte_slices_hash_by_content() {
        let hash = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_eq!(hash(b"abcdefghij"), hash(b"abcdefghij"));
        assert_ne!(hash(b"abcdefghij"), hash(b"abcdefghik"));
    }
}
