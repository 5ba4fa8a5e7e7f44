//! The flat set-major `SetAssocCache` against a reference model: the
//! earlier per-set-`Vec` implementation, kept here verbatim in
//! behaviour. Random `access`, `insert`, `probe_mut`, `flush` and
//! `set_occupancy` calls on three geometries — the paper's L2, the
//! 6-way L2 of Fig. 8 and the 32-way SNC of Fig. 7 with `u16`
//! sequence-number payloads — must produce the same hits, victims
//! (address, dirty bit, payload), flush order, occupancies and stats.

use padlock_cache::{AccessKind, AccessOutcome, CacheConfig, Evicted, SetAssocCache};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::fmt::Debug;

/// One resident line of the model.
#[derive(Debug, Clone)]
struct Line<T> {
    addr: u64,
    dirty: bool,
    stamp: u64,
    payload: T,
}

/// The reference: one `Vec` of lines per set, filled by `push`, the
/// victim the first line with the smallest stamp, the set index taken
/// by division.
struct Model<T> {
    config: CacheConfig,
    sets: Vec<Vec<Line<T>>>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
}

impl<T: Default> Model<T> {
    fn new(config: CacheConfig) -> Self {
        let sets = (0..config.num_sets()).map(|_| Vec::new()).collect();
        Self {
            config,
            sets,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            writebacks: 0,
        }
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.config.line_bytes() as u64) % self.config.num_sets() as u64) as usize
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome<T> {
        let line_addr = self.config.line_addr(addr);
        let set_idx = self.set_index(addr);
        let stamp = self.tick();
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.addr == line_addr) {
            line.stamp = stamp;
            if kind == AccessKind::Write {
                line.dirty = true;
            }
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                victim: None,
            };
        }
        self.misses += 1;
        let new_line = Line {
            addr: line_addr,
            dirty: kind == AccessKind::Write,
            stamp,
            payload: T::default(),
        };
        let victim = self.install(set_idx, new_line);
        AccessOutcome { hit: false, victim }
    }

    fn install(&mut self, set_idx: usize, line: Line<T>) -> Option<Evicted<T>> {
        if self.sets[set_idx].len() < self.config.ways() {
            self.sets[set_idx].push(line);
            return None;
        }
        let victim_idx = self.sets[set_idx]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.stamp)
            .map(|(i, _)| i)
            .expect("set is full");
        let old = std::mem::replace(&mut self.sets[set_idx][victim_idx], line);
        self.evictions += 1;
        if old.dirty {
            self.writebacks += 1;
        }
        Some(Evicted {
            addr: old.addr,
            dirty: old.dirty,
            payload: old.payload,
        })
    }

    fn probe(&self, addr: u64) -> Option<&T> {
        let line_addr = self.config.line_addr(addr);
        self.sets[self.set_index(addr)]
            .iter()
            .find(|l| l.addr == line_addr)
            .map(|l| &l.payload)
    }

    fn probe_mut(&mut self, addr: u64) -> Option<&mut T> {
        let line_addr = self.config.line_addr(addr);
        let set_idx = self.set_index(addr);
        let stamp = self.tick();
        self.sets[set_idx]
            .iter_mut()
            .find(|l| l.addr == line_addr)
            .map(|l| {
                l.stamp = stamp;
                &mut l.payload
            })
    }

    fn insert(&mut self, addr: u64, payload: T, dirty: bool) -> Option<Evicted<T>> {
        let line_addr = self.config.line_addr(addr);
        let set_idx = self.set_index(addr);
        let stamp = self.tick();
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.addr == line_addr) {
            line.payload = payload;
            line.dirty |= dirty;
            line.stamp = stamp;
            return None;
        }
        let line = Line {
            addr: line_addr,
            dirty,
            stamp,
            payload,
        };
        self.install(set_idx, line)
    }

    fn flush(&mut self) -> Vec<Evicted<T>> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for line in set.drain(..) {
                if line.dirty {
                    self.writebacks += 1;
                }
                self.evictions += 1;
                out.push(Evicted {
                    addr: line.addr,
                    dirty: line.dirty,
                    payload: line.payload,
                });
            }
        }
        out
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    fn set_occupancy(&self, addr: u64) -> usize {
        self.sets[self.set_index(addr)].len()
    }
}

/// One call on the cache under test.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64, bool),
    Insert(u64, u16, bool),
    /// Refresh the line and, if resident, overwrite its payload.
    ProbeMut(u64, u16),
    Probe(u64),
    SetOccupancy(u64),
    Flush,
}

/// Addresses that crowd a few sets — line 0 among them, whose line
/// address equals the tag a never-used way holds — plus stray ones
/// anywhere in the address space, each at a random byte offset.
fn address(line: u64, sets: u64, ways: u64) -> impl Strategy<Value = u64> {
    prop_oneof![
        (0..4u64, 0..ways * 2, 0..line).prop_map(move |(s, k, off)| (k * sets + s) * line + off),
        (0..sets, 0..ways * 2, 0..line).prop_map(move |(s, k, off)| (k * sets + s) * line + off),
        Just(0u64),
        any::<u64>(),
    ]
}

fn ops(config: &CacheConfig) -> impl Strategy<Value = Vec<Op>> {
    let (line, sets, ways) = (
        config.line_bytes() as u64,
        config.num_sets() as u64,
        config.ways() as u64,
    );
    let addr = move || address(line, sets, ways);
    let op = prop_oneof![
        (addr(), any::<bool>()).prop_map(|(a, w)| Op::Access(a, w)),
        (addr(), any::<bool>()).prop_map(|(a, w)| Op::Access(a, w)),
        (addr(), any::<bool>()).prop_map(|(a, w)| Op::Access(a, w)),
        (addr(), any::<u16>(), any::<bool>()).prop_map(|(a, p, d)| Op::Insert(a, p, d)),
        (addr(), any::<u16>(), any::<bool>()).prop_map(|(a, p, d)| Op::Insert(a, p, d)),
        (addr(), any::<u16>()).prop_map(|(a, p)| Op::ProbeMut(a, p)),
        addr().prop_map(Op::Probe),
        addr().prop_map(Op::SetOccupancy),
        (0..40u8, addr()).prop_map(|(k, a)| if k == 0 { Op::Flush } else { Op::Probe(a) }),
    ];
    proptest::collection::vec(op, 1..1_500)
}

/// Drives the cache and the model through `ops`, comparing after every
/// call; `payload` turns a generated `u16` into the payload type.
fn check<T>(
    config: CacheConfig,
    ops: &[Op],
    payload: impl Fn(u16) -> T,
) -> Result<(), TestCaseError>
where
    T: Default + Clone + PartialEq + Debug,
{
    let mut cache = SetAssocCache::<T>::new(config.clone());
    let mut model = Model::<T>::new(config);
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Access(a, w) => {
                let kind = if w {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                prop_assert_eq!(
                    cache.access(a, kind),
                    model.access(a, kind),
                    "op {}: {:?}",
                    i,
                    op
                );
            }
            Op::Insert(a, p, d) => {
                prop_assert_eq!(
                    cache.insert(a, payload(p), d),
                    model.insert(a, payload(p), d),
                    "op {}: {:?}",
                    i,
                    op
                );
            }
            Op::ProbeMut(a, p) => {
                prop_assert_eq!(
                    cache.probe_mut(a).map(|v| std::mem::replace(v, payload(p))),
                    model.probe_mut(a).map(|v| std::mem::replace(v, payload(p))),
                    "op {}: {:?}",
                    i,
                    op
                );
            }
            Op::Probe(a) => {
                prop_assert_eq!(cache.probe(a), model.probe(a), "op {}: {:?}", i, op);
                prop_assert_eq!(
                    cache.contains(a),
                    model.probe(a).is_some(),
                    "op {}: {:?}",
                    i,
                    op
                );
            }
            Op::SetOccupancy(a) => {
                prop_assert_eq!(
                    cache.set_occupancy(a),
                    model.set_occupancy(a),
                    "op {}: {:?}",
                    i,
                    op
                );
                prop_assert_eq!(cache.occupancy(), model.occupancy(), "op {}: {:?}", i, op);
            }
            Op::Flush => {
                prop_assert_eq!(cache.flush(), model.flush(), "op {}: {:?}", i, op);
            }
        }
    }
    prop_assert_eq!(cache.occupancy(), model.occupancy());
    let stats = cache.stats();
    prop_assert_eq!(stats.get("hits"), model.hits);
    prop_assert_eq!(stats.get("misses"), model.misses);
    prop_assert_eq!(stats.get("evictions"), model.evictions);
    prop_assert_eq!(stats.get("writebacks"), model.writebacks);
    // The end state: everything still resident, in the same order.
    prop_assert_eq!(cache.flush(), model.flush());
    Ok(())
}

fn paper_l2() -> CacheConfig {
    CacheConfig::new("L2", 256 * 1024, 128, 4)
}

fn fig8_l2() -> CacheConfig {
    CacheConfig::new("L2", 384 * 1024, 128, 6)
}

/// The Fig. 7 SNC: 64KB of 2-byte entries, 32-way, one entry per
/// 128-byte L2 line.
fn fig7_snc() -> CacheConfig {
    CacheConfig::new("snc", 32 * 1024 * 128, 128, 32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paper_l2_matches_the_per_set_vec_reference_model(ops in ops(&paper_l2())) {
        check::<()>(paper_l2(), &ops, |_| ())?;
    }

    #[test]
    fn six_way_l2_matches_the_per_set_vec_reference_model(ops in ops(&fig8_l2())) {
        check::<()>(fig8_l2(), &ops, |_| ())?;
    }

    #[test]
    fn snc_32_way_matches_the_per_set_vec_reference_model(ops in ops(&fig7_snc())) {
        check::<u16>(fig7_snc(), &ops, |p| p)?;
    }
}
