//! The controller's written-line set: one `u64` occupancy word per
//! aligned run of 64 lines, hashed by chunk index.
//!
//! Every OTP data miss and writeback point-queries it and nothing
//! iterates it, so the layout that the fixed, seedless
//! [`BuildLineHasher`] gives it never reaches a result. A densely
//! written region costs one table entry per 64 lines rather than one
//! per line, so the hundreds of thousands of lines that pre-aging marks
//! stay small enough to remain cache-resident.
//!
//! The chunk that inserts are filling is held beside the table, its
//! word updated in place, and its table entry written back only when an
//! insert moves to another chunk. So a run of consecutive lines, which
//! is what pre-aging marks, touches the table twice per 64 lines: once
//! to store the finished word and once to load the next.

use padlock_cache::BuildLineHasher;
use padlock_mem::LINE_BYTES;
use std::collections::HashMap; // lint: sorted the chunk map below is point-queried, never iterated

/// Lines per occupancy word.
const CHUNK_LINES: u64 = 64;

/// A set of [`LINE_BYTES`]-aligned addresses: a map from 64-line chunk
/// index to that chunk's occupancy word, plus the chunk being filled.
///
/// Keys must be line-aligned; two addresses inside one line would
/// otherwise share a bit (checked in debug builds).
///
/// # Examples
///
/// ```
/// use padlock_core::LineSet;
///
/// let mut written = LineSet::default();
/// assert!(written.insert(0x7000_0080));
/// assert!(!written.insert(0x7000_0080));
/// assert!(written.contains(0x7000_0080));
/// assert!(!written.contains(0x7000_0100));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LineSet {
    // lint: sorted a membership set: point-queried, never iterated
    chunks: HashMap<u64, u64, BuildLineHasher>,
    /// The chunk the last insert touched and its word, which is current;
    /// that chunk's entry in `chunks`, if any, may lag behind it.
    open: (u64, u64),
}

impl LineSet {
    /// `addr`'s chunk index and its bit in that chunk's word.
    #[inline]
    fn locate(addr: u64) -> (u64, u64) {
        let line_bytes = u64::from(LINE_BYTES);
        debug_assert_eq!(addr % line_bytes, 0, "{addr:#x} is not line-aligned");
        let line = addr / line_bytes;
        (line / CHUNK_LINES, 1 << (line % CHUNK_LINES))
    }

    /// Adds `addr`, returning whether it was absent.
    #[inline]
    pub fn insert(&mut self, addr: u64) -> bool {
        let (chunk, bit) = Self::locate(addr);
        if chunk != self.open.0 {
            self.open_chunk(chunk);
        }
        let word = &mut self.open.1;
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    /// Writes the open chunk's word back and opens `chunk`.
    fn open_chunk(&mut self, chunk: u64) {
        let (done, word) = self.open;
        if word != 0 {
            self.chunks.insert(done, word);
        }
        self.open = (chunk, *self.chunks.entry(chunk).or_insert(0));
    }

    /// Whether `addr` is in the set.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let (chunk, bit) = Self::locate(addr);
        let word = if chunk == self.open.0 {
            self.open.1
        } else {
            self.chunks.get(&chunk).copied().unwrap_or(0)
        };
        word & bit != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> u64 {
        0x7000_0000 + i * u64::from(LINE_BYTES)
    }

    #[test]
    fn a_dense_region_costs_one_word_per_64_lines() {
        let mut set = LineSet::default();
        for i in 0..640 {
            assert!(set.insert(line(i)));
        }
        assert_eq!(set.chunks.len(), 10);
        assert!(set.contains(line(639)));
        assert!(!set.contains(line(640)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not line-aligned")]
    fn an_unaligned_key_is_caught() {
        LineSet::default().insert(line(1) + 64);
    }
}
