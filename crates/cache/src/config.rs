//! Cache geometry configuration.

/// Geometry of one LRU cache.
///
/// Line size and set count are powers of two, so the configuration
/// computes once the shift and mask that map an address to its set:
/// [`CacheConfig::set_index`] is `(addr >> log2(line_bytes)) &
/// (num_sets - 1)`, with no division. [`SetAssocCache`] stores its
/// lines set-major, so a set's ways start at `set_index(addr) * ways`.
///
/// [`SetAssocCache`]: crate::SetAssocCache
///
/// # Examples
///
/// ```
/// use padlock_cache::CacheConfig;
///
/// // The paper's L2: 256KB, 4-way, 128-byte lines.
/// let l2 = CacheConfig::new("L2", 256 * 1024, 128, 4);
/// assert_eq!(l2.num_sets(), 512);
/// assert_eq!(l2.num_lines(), 2048);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    name: String,
    size_bytes: usize,
    line_bytes: usize,
    ways: usize,
    /// `log2(line_bytes)`: an address shifted right by it is its line
    /// number.
    line_shift: u32,
    /// `num_sets() - 1`: a line number masked with it is its set.
    set_mask: u64,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two, `size_bytes` is a
    /// multiple of `line_bytes * ways`, the resulting set count is a power
    /// of two, and `ways >= 1`.
    pub fn new(name: impl Into<String>, size_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(ways >= 1, "cache must have at least one way");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            size_bytes.is_multiple_of(line_bytes * ways),
            "size must divide evenly into sets"
        );
        let sets = size_bytes / (line_bytes * ways);
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two (got {sets})"
        );
        Self {
            name: name.into(),
            size_bytes,
            line_bytes,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
        }
    }

    /// The cache's name (used in stats output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }

    /// The line-aligned base address containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }

    /// The set index for `addr`: its line number modulo the set count,
    /// taken as a shift and a mask.
    pub fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l2_geometry() {
        let l2 = CacheConfig::new("L2", 256 * 1024, 128, 4);
        assert_eq!(l2.num_sets(), 512);
        assert_eq!(l2.num_lines(), 2048);
        assert_eq!(l2.ways(), 4);
    }

    #[test]
    fn paper_l1_geometry() {
        let l1 = CacheConfig::new("L1D", 32 * 1024, 32, 4);
        assert_eq!(l1.num_sets(), 256);
    }

    #[test]
    fn line_addr_masks_offset_bits() {
        let c = CacheConfig::new("c", 1024, 64, 2);
        assert_eq!(c.line_addr(0x1234), 0x1200);
        assert_eq!(c.line_addr(0x1240), 0x1240);
    }

    #[test]
    fn set_index_wraps_modulo_sets() {
        let c = CacheConfig::new("c", 1024, 64, 2); // 8 sets
        assert_eq!(c.set_index(0), 0);
        assert_eq!(c.set_index(64), 1);
        assert_eq!(c.set_index(64 * 8), 0);
        // The shift and mask agree with `addr / line % sets` everywhere.
        for c in [
            c,
            CacheConfig::new("L2", 384 * 1024, 128, 6),
            CacheConfig::new("snc", 4096 * 128, 128, 32),
            CacheConfig::new("one", 64, 64, 1),
        ] {
            let (line, sets) = (c.line_bytes() as u64, c.num_sets() as u64);
            for addr in (0..5_000u64).map(|i| i * 97).chain([u64::MAX, 1 << 63]) {
                assert_eq!(
                    c.set_index(addr) as u64,
                    addr / line % sets,
                    "{c:?} {addr:#x}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        let _ = CacheConfig::new("bad", 1024, 48, 2);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = CacheConfig::new("bad", 1024, 64, 0);
    }
}
