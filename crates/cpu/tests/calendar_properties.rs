//! Property-based tests on the MSHR file and the run loop's event
//! calendar over the flat insecure backend: for *arbitrary* load and
//! store streams every parked load resolves exactly once, in issue
//! order across every drain, and no store does; and for arbitrary op
//! streams the event-driven core never has to fall back to a forced
//! step. `padlock_core`'s `fabric_calendar_properties` drives the same
//! two properties over multi-channel and FR-FCFS banked fabrics.

use padlock_cpu::{
    Core, Hierarchy, HierarchyConfig, InsecureBackend, MemoryBackend, MicroOp, OpClass,
    PipelineConfig, Workload,
};
use proptest::prelude::*;

const LINE: u64 = 128;

/// A hierarchy that accumulates misses in its MSHR file and drains
/// them in batches over the flat insecure backend.
fn batched_hierarchy(mshrs: usize) -> Hierarchy<InsecureBackend> {
    Hierarchy::new(
        HierarchyConfig::paper_default().with_l2_mshrs(mshrs),
        InsecureBackend::new(100, 8),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A stream of loads and stores through the MSHR file, with
    /// same-line re-accesses that merge into an in-flight fill and
    /// drains forced at random points: the allocation that fills the
    /// file drains it and comes back ready, every load that returns
    /// `None` parks, and the resolutions, accumulated across every
    /// drain, name exactly the parked loads — each once, in issue
    /// order, never before its access — and never a store. Every
    /// allocated MSHR reaches memory once.
    #[test]
    fn resolutions_arrive_in_issue_order_across_drains(
        accesses in proptest::collection::vec(
            (0u64..220, prop_oneof![Just(0u64), 1u64..40, 1u64..40], 0u64..16, 0u8..4, 0u8..8),
            1..120,
        ),
        mshrs in 2usize..9,
    ) {
        let mut batched = batched_hierarchy(mshrs);

        let mut now = 0u64;
        // A stride of 0 (a third of accesses) re-accesses the previous
        // line, at any of its 8-byte words: it merges while the line is
        // in flight and hits once it has filled.
        let mut idx = 0u64;
        let mut parked: Vec<(u64, u64)> = Vec::new(); // (seq, access cycle)
        let mut resolved: Vec<(u64, u64)> = Vec::new();
        for (seq, &(dt, stride, word, kind, drain)) in (0u64..).zip(&accesses) {
            now += dt;
            idx += stride;
            if drain == 0 {
                batched.drain_pending();
                prop_assert_eq!(batched.pending_misses(), 0);
            }
            let addr = 0x10_0000 + idx * LINE + word * 8;
            if kind == 0 {
                // A store: `seq` stays unused, so a resolution naming
                // it would be a store's.
                if let Some(done) = batched.store(now, addr) {
                    prop_assert!(done >= now, "store ready before its access");
                }
            } else {
                match batched.load(now, addr, seq) {
                    Some(done) => prop_assert!(done >= now, "load ready before its access"),
                    None => parked.push((seq, now)),
                }
            }
        }
        batched.drain_pending();
        prop_assert_eq!(batched.pending_misses(), 0);
        let earliest = batched.next_completion();
        batched.take_resolutions(&mut resolved);
        prop_assert_eq!(earliest, resolved.iter().map(|&(_, done)| done).min());
        let seqs: Vec<u64> = resolved.iter().map(|&(seq, _)| seq).collect();
        let want: Vec<u64> = parked.iter().map(|&(seq, _)| seq).collect();
        prop_assert_eq!(seqs, want, "resolutions are not exactly the parked loads in issue order");
        for (&(seq, at), &(_, done)) in parked.iter().zip(&resolved) {
            prop_assert!(done >= at, "load {} resolved at {} before its access at {}", seq, done, at);
        }
        prop_assert_eq!(batched.next_completion(), None);
        prop_assert_eq!(
            batched.backend().traffic().get("line_reads"),
            batched.mshr_stats().get("allocations")
        );
    }
}

/// A workload replaying an arbitrary generated op vector in a loop.
#[derive(Debug, Clone)]
struct Arbitrary {
    ops: Vec<MicroOp>,
    i: usize,
}

impl Workload for Arbitrary {
    fn next_op(&mut self) -> MicroOp {
        let op = self.ops[self.i % self.ops.len()];
        self.i += 1;
        op
    }
    fn name(&self) -> &str {
        "arbitrary"
    }
}

fn op_strategy() -> impl Strategy<Value = MicroOp> {
    let class = prop_oneof![
        Just(OpClass::IntAlu),
        Just(OpClass::FpMul),
        (0u64..1 << 26).prop_map(|a| OpClass::Load(a * 8)),
        (0u64..1 << 26).prop_map(|a| OpClass::Store(a * 8)),
        any::<bool>().prop_map(|taken| OpClass::Branch { taken }),
    ];
    (class, 0u64..1 << 20, 0u16..32, 0u16..32).prop_map(|(class, pc, d1, d2)| {
        MicroOp::new(0x1000 + pc * 4, class).with_deps(d1, d2)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The pipeline's event calendar is complete for arbitrary op
    /// streams: the run loop never has to fall back to a forced +1
    /// step while the MSHR file drains into a flat FIFO channel.
    #[test]
    fn run_loop_never_forces_a_step(
        ops in proptest::collection::vec(op_strategy(), 1..64),
        mshrs in 1usize..9,
    ) {
        let mut core = Core::with_hierarchy(PipelineConfig::paper_default(), batched_hierarchy(mshrs));
        let stats = core.run(&mut Arbitrary { ops, i: 0 }, 3_000);
        prop_assert_eq!(stats.instructions, 3_000);
        prop_assert_eq!(stats.forced_steps, 0, "the calendar ran dry mid-stream");
    }
}
