//! Address-range → attribute maps.
//!
//! The paper exempts shared-library code and program inputs from
//! encryption (§4.3: "those library codes should be provided in plaintext
//! ... memory spaces taken by them do not need sequence numbers in SNC").
//! The secure memory controller consults a `RegionMap` to decide how each
//! line is protected.

use std::fmt;

/// One named, half-open address range carrying an attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Region<T> {
    name: String,
    start: u64,
    end: u64, // exclusive
    attr: T,
}

/// An ordered map from half-open address ranges to attributes.
///
/// Lookups fall back to a default attribute outside all regions. Regions
/// may not overlap.
///
/// # Examples
///
/// ```
/// use padlock_mem::RegionMap;
///
/// #[derive(Clone, Copy, PartialEq, Debug)]
/// enum Prot { Plain, Encrypted }
///
/// let mut map = RegionMap::new(Prot::Encrypted);
/// map.insert("libc", 0x7000_0000, 0x7100_0000, Prot::Plain).unwrap();
/// assert_eq!(*map.attr_at(0x7000_1234), Prot::Plain);
/// assert_eq!(*map.attr_at(0x1000), Prot::Encrypted);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap<T> {
    default: T,
    /// Sorted by `start`, non-overlapping.
    regions: Vec<Region<T>>,
}

/// Error returned when inserting an invalid or overlapping region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionOverlap {
    /// Name of the offending insertion.
    pub name: String,
    /// Name of the existing region it collides with, if any
    /// (`None` means the range itself was empty/inverted).
    pub conflicts_with: Option<String>,
}

impl fmt::Display for RegionOverlap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.conflicts_with {
            Some(other) => write!(f, "region {} overlaps existing region {}", self.name, other),
            None => write!(f, "region {} has an empty or inverted range", self.name),
        }
    }
}

impl std::error::Error for RegionOverlap {}

impl<T> RegionMap<T> {
    /// Creates a map whose lookups return `default` outside all regions.
    pub fn new(default: T) -> Self {
        Self {
            default,
            regions: Vec::new(),
        }
    }

    /// Inserts a non-overlapping region `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`RegionOverlap`] when `start >= end` or the range
    /// intersects an existing region.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        start: u64,
        end: u64,
        attr: T,
    ) -> Result<(), RegionOverlap> {
        let name = name.into();
        if start >= end {
            return Err(RegionOverlap {
                name,
                conflicts_with: None,
            });
        }
        for r in &self.regions {
            if start < r.end && r.start < end {
                return Err(RegionOverlap {
                    name,
                    conflicts_with: Some(r.name.clone()),
                });
            }
        }
        let pos = self
            .regions
            .partition_point(|r| r.start < start);
        self.regions.insert(
            pos,
            Region {
                name,
                start,
                end,
                attr,
            },
        );
        Ok(())
    }

    fn find(&self, addr: u64) -> Option<&Region<T>> {
        let idx = self.regions.partition_point(|r| r.start <= addr);
        if idx == 0 {
            return None;
        }
        let r = &self.regions[idx - 1];
        (addr < r.end).then_some(r)
    }

    /// The attribute governing `addr` (a region's, or the default).
    pub fn attr_at(&self, addr: u64) -> &T {
        self.find(addr).map_or(&self.default, |r| &r.attr)
    }

    /// The name of the region containing `addr`, if any.
    pub fn region_name_at(&self, addr: u64) -> Option<&str> {
        self.find(addr).map(|r| r.name.as_str())
    }

    /// Number of explicit regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no explicit regions exist.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Iterates `(name, start, end, attr)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64, u64, &T)> {
        self.regions
            .iter()
            .map(|r| (r.name.as_str(), r.start, r.end, &r.attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_outside_all_regions() {
        let map: RegionMap<u8> = RegionMap::new(9);
        assert_eq!(*map.attr_at(0), 9);
        assert!(map.is_empty());
    }

    #[test]
    fn lookup_respects_half_open_bounds() {
        let mut map = RegionMap::new(0u8);
        map.insert("r", 0x100, 0x200, 1).unwrap();
        assert_eq!(*map.attr_at(0xFF), 0);
        assert_eq!(*map.attr_at(0x100), 1);
        assert_eq!(*map.attr_at(0x1FF), 1);
        assert_eq!(*map.attr_at(0x200), 0);
    }

    #[test]
    fn overlap_is_rejected_with_names() {
        let mut map = RegionMap::new(0u8);
        map.insert("code", 0x100, 0x200, 1).unwrap();
        let err = map.insert("data", 0x1FF, 0x300, 2).unwrap_err();
        assert_eq!(err.conflicts_with.as_deref(), Some("code"));
        assert!(err.to_string().contains("overlaps"));
        // Adjacent is fine.
        map.insert("data", 0x200, 0x300, 2).unwrap();
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn inverted_range_is_rejected() {
        let mut map = RegionMap::new(0u8);
        let err = map.insert("bad", 5, 5, 1).unwrap_err();
        assert!(err.conflicts_with.is_none());
        assert!(err.to_string().contains("empty or inverted"));
    }

    #[test]
    fn regions_keep_address_order_regardless_of_insertion_order() {
        let mut map = RegionMap::new(0u8);
        map.insert("high", 0x1000, 0x2000, 2).unwrap();
        map.insert("low", 0x0, 0x100, 1).unwrap();
        let names: Vec<&str> = map.iter().map(|(n, _, _, _)| n).collect();
        assert_eq!(names, vec!["low", "high"]);
        assert_eq!(map.region_name_at(0x1800), Some("high"));
        assert_eq!(map.region_name_at(0x800), None);
    }

    #[test]
    fn binary_search_handles_many_regions() {
        let mut map = RegionMap::new(u32::MAX);
        for i in 0..1000u64 {
            map.insert(format!("r{i}"), i * 0x1000, i * 0x1000 + 0x800, i as u32)
                .unwrap();
        }
        assert_eq!(*map.attr_at(500 * 0x1000 + 0x7FF), 500);
        assert_eq!(*map.attr_at(500 * 0x1000 + 0x800), u32::MAX);
    }
}
