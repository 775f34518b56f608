//! The hash maps and sets of the compiler crates.
//!
//! Every map and set in `lslp-ir`, `lslp-analysis`, `lslp`,
//! `lslp-frontend` and `lslp-interp` is one of these aliases. Their keys
//! are dense value handles, bundles, CSE keys and constants, hashed on
//! every pass, so std's SipHash was a measurable share of compile time.
//! [`FoldHasher`] mixes each word with one 64×64→128-bit multiply whose
//! halves are XORed together.
//!
//! The hasher starts from a seed drawn once per process from
//! [`RandomState`]. `lslpd` compiles kernels sent over the network, and
//! an unseeded multiplicative hash sends integer keys that share their
//! low bits (constants `k·2³²`, say) to one bucket. Seeding keeps a
//! kernel from choosing its own collisions. As under `RandomState`,
//! iteration order differs between processes, so no output may depend
//! on it.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A hash map under [`FoldState`]. Build one with `HashMap::default()`.
pub type HashMap<K, V> = std::collections::HashMap<K, V, FoldState>;
/// A hash set under [`FoldState`]. Build one with `HashSet::default()`.
pub type HashSet<K> = std::collections::HashSet<K, FoldState>;
pub use std::collections::hash_map::Entry;

/// An odd 64-bit multiplier, picked by a search over random odd
/// constants: for 1024 keys `i << k` the low 10 hash bits take at least
/// ~600 distinct values at every shift `k` from 0 to 54, and at least 900
/// at shifts 12, 21 and 32 (a uniformly random hash averages 647). The
/// golden-ratio constant drops to ~300 at some shifts.
const MUL: u64 = 0x3561_827e_c4b9_62a5;

/// The product's low and high halves XORed: every input bit reaches the
/// low output bits through the high half.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The seed of every [`FoldState`] in this process.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().build_hasher().finish())
}

/// Builds [`FoldHasher`]s from the process seed, so every map in one
/// process hashes equal keys equally.
#[derive(Clone, Copy, Debug)]
pub struct FoldState {
    seed: u64,
}

impl Default for FoldState {
    fn default() -> FoldState {
        FoldState { seed: process_seed() }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { acc: self.seed }
    }
}

/// A folded-multiply hasher: each word is XORed into the state, which is
/// then folded-multiplied by a constant.
#[derive(Clone, Debug)]
pub struct FoldHasher {
    acc: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.acc = folded_multiply(self.acc ^ x, MUL);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Bytes go in as little-endian words, the last one zero-padded; the
    /// length goes first, so trailing zero bytes change the hash.
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueId;
    use std::hash::Hash;

    /// Seeds to test besides the process seed: zero, all ones and two
    /// arbitrary ones.
    const SEEDS: [u64; 4] = [0, u64::MAX, 0x0123_4567_89ab_cdef, 0xdead_beef_0000_0001];

    fn states() -> Vec<FoldState> {
        let mut states = vec![FoldState::default()];
        states.extend(SEEDS.iter().map(|&seed| FoldState { seed }));
        states
    }

    /// How many distinct values the low 10 bits of the keys' hashes take.
    fn low_bit_buckets<K: Hash>(state: &FoldState, keys: impl Iterator<Item = K>) -> usize {
        let buckets: std::collections::BTreeSet<u64> =
            keys.map(|k| state.hash_one(k) & 1023).collect();
        buckets.len()
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_the_low_bits() {
        // An unseeded `x·K` hash maps each family to one low-bit value.
        for state in states() {
            let wide = low_bit_buckets(&state, (0..1024u64).map(|i| i << 32));
            assert!(wide >= 900, "u64 keys i<<32 hit only {wide} of 1024 low-bit values");
            for shift in [12, 21] {
                let ids =
                    low_bit_buckets(&state, (0..1024u32).map(|i| ValueId::from_raw(i << shift)));
                assert!(
                    ids >= 900,
                    "ValueId keys i<<{shift} hit only {ids} of 1024 low-bit values"
                );
            }
        }
    }

    #[test]
    fn every_stride_spreads_about_as_well_as_a_random_hash() {
        // A random hash puts 1024 keys on ~647 of 1024 values; a multiplier
        // tuned only to the strides above can fall far below that here.
        for state in states() {
            for shift in 0..=54 {
                let n = low_bit_buckets(&state, (0..1024u64).map(|i| i << shift));
                assert!(n >= 550, "u64 keys i<<{shift} hit only {n} of 1024 low-bit values");
            }
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_hash() {
        for state in states() {
            let hash = |bytes: &[u8]| {
                let mut h = state.build_hasher();
                h.write(bytes);
                h.finish()
            };
            let mut bytes = b"gep".to_vec();
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..16 {
                assert!(seen.insert(hash(&bytes)), "{bytes:?} collides with a shorter string");
                bytes.push(0);
            }
        }
    }

    #[test]
    fn builders_in_one_process_agree() {
        let (a, b) = (FoldState::default(), FoldState::default());
        for k in [0u64, 1, 1 << 40, u64::MAX] {
            assert_eq!(a.hash_one(k), b.hash_one(k));
        }
        assert_eq!(a.hash_one("constant pool"), b.hash_one("constant pool"));
        assert_eq!(a.hash_one(ValueId::from_raw(7)), b.hash_one(ValueId::from_raw(7)));
    }
}
