//! A fixed, seedless hasher for line-address keys.
//!
//! The simulator's line-state tables below L2 (the fully associative
//! SNC's key index and the controller's written-line set) are
//! point-queried on every miss and never iterated, so they need neither
//! key order nor collision resistance: their keys are simulated
//! addresses the program generates itself, never external input. A
//! SplitMix64 finalizer spreads the keys (line addresses with seven or
//! more zero low bits, or the written-line set's consecutive 64-line
//! chunk indices) across both the bucket-index and the tag bits of
//! std's tables, and having no random seed keeps table layout and
//! `Debug` output the same from run to run.

use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64's finalizer: a bijective 64-bit mixer.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A [`Hasher`] for `u64` line-address keys whose [`finish`] is the
/// SplitMix64 finalizer of the written key.
///
/// Built for one `u64` per key; further writes fold into the state
/// through the same mixer, and byte slices a byte at a time.
///
/// [`finish`]: Hasher::finish
///
/// # Examples
///
/// ```
/// use padlock_cache::BuildLineHasher;
/// use std::hash::BuildHasher;
///
/// // No seed: a key hashes alike in every table and every run.
/// let (a, b) = (BuildLineHasher::default(), BuildLineHasher::default());
/// assert_eq!(a.hash_one(0x7000_0080u64), b.hash_one(0x7000_0080u64));
/// assert_ne!(a.hash_one(0x7000_0080u64), a.hash_one(0x7000_0100u64));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // `mix(0) == 0`, so a single-key hash is `mix(key)`.
        self.0 = mix(self.0) ^ n;
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix(self.0)
    }
}

/// Builds [`LineHasher`]s for std's hash tables.
pub type BuildLineHasher = BuildHasherDefault<LineHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildLineHasher::default().hash_one(key)
    }

    #[test]
    fn a_key_hashes_to_its_finalizer_output() {
        // SplitMix64's published first output from seed 0 is the
        // finalizer of its first state, the golden gamma.
        assert_eq!(hash(0x9E37_79B9_7F4A_7C15), 0xE220_A839_7B1D_CDAF);
        assert_eq!(hash(0), 0);
        for key in [1u64, 0x80, 0x7000_0000, (3 << 40) + 128, u64::MAX] {
            assert_eq!(hash(key), mix(key), "key {key:#x}");
        }
    }

    #[test]
    fn line_aligned_keys_spread_over_low_and_high_bits() {
        // Consecutive 128-byte lines differ only above bit 6; the hash
        // must vary in the low bits (bucket index) and the top seven
        // (std's tag byte) alike.
        let hashes: Vec<u64> = (0..256u64).map(|k| hash(0x7000_0000 + k * 128)).collect();
        let mut low = [false; 256];
        let mut top = [false; 128];
        for h in &hashes {
            low[(h & 0xFF) as usize] = true;
            top[(h >> 57) as usize] = true;
        }
        assert!(low.iter().filter(|&&b| b).count() > 128);
        assert!(top.iter().filter(|&&b| b).count() > 64);
    }
}
