//! Named event counters.

use std::collections::BTreeMap;
use std::fmt;

/// A collection of counters addressed by name.
///
/// Models that own many counters (a cache, the memory bus) keep a
/// `CounterSet` so the harness can dump everything uniformly.
///
/// # Examples
///
/// ```
/// use padlock_stats::CounterSet;
///
/// let mut set = CounterSet::new("l2");
/// set.add("hits", 10);
/// set.incr("misses");
/// assert_eq!(set.get("hits"), 10);
/// assert_eq!(set.get("misses"), 1);
/// assert_eq!(set.get("absent"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    prefix: String,
    counters: BTreeMap<String, u64>,
}

impl CounterSet {
    /// Creates an empty set whose counters are reported under `prefix.`.
    pub fn new(prefix: impl Into<String>) -> Self {
        Self {
            prefix: prefix.into(),
            counters: BTreeMap::new(),
        }
    }

    /// The reporting prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Increments the named counter by one, creating it at zero first if
    /// absent.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the named counter, creating it at zero first if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        // Hot path: the counter almost always exists after its first
        // event, and `get_mut` borrows the `&str` key directly —
        // allocating the owned `String` only on first touch.
        if let Some(v) = self.counters.get_mut(name) {
            *v += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Reads the named counter; absent counters read as zero.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Resets every counter in the set to zero, keeping the names.
    pub fn reset(&mut self) {
        for v in self.counters.values_mut() {
            *v = 0;
        }
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the set holds no counters.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Merges another set into this one, summing counters with equal names.
    ///
    /// The other set's prefix is ignored; callers merge sets that describe
    /// the same component (e.g. per-phase cache stats).
    pub fn merge(&mut self, other: &CounterSet) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.iter() {
            writeln!(f, "{}.{} = {}", self.prefix, name, value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_creates_counters_on_demand() {
        let mut s = CounterSet::new("bus");
        assert_eq!(s.get("reads"), 0);
        s.incr("reads");
        s.add("reads", 2);
        assert_eq!(s.get("reads"), 3);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_reset_keeps_names_with_zero_values() {
        let mut s = CounterSet::new("l1");
        s.add("hits", 5);
        s.reset();
        assert_eq!(s.get("hits"), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn set_merge_sums_matching_names() {
        let mut a = CounterSet::new("a");
        a.add("x", 1);
        a.add("y", 2);
        let mut b = CounterSet::new("b");
        b.add("y", 10);
        b.add("z", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 12);
        assert_eq!(a.get("z"), 3);
    }

    #[test]
    fn set_iterates_in_name_order() {
        let mut s = CounterSet::new("p");
        s.add("zeta", 1);
        s.add("alpha", 2);
        let names: Vec<&str> = s.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn set_display_prefixes_each_line() {
        let mut s = CounterSet::new("snc");
        s.add("hits", 1);
        assert_eq!(s.to_string(), "snc.hits = 1\n");
    }
}
