//! Property-based tests on the out-of-order engine: for *arbitrary*
//! op streams the pipeline must terminate, commit exactly what was
//! asked, be deterministic, and respect basic cost bounds.

use padlock_cpu::{Core, InsecureBackend, MicroOp, OpClass, PipelineConfig, Workload};
use proptest::prelude::*;

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
        Just(OpClass::IntMul),
        Just(OpClass::FpAlu),
        Just(OpClass::FpMul),
        (0u64..1 << 26).prop_map(|a| OpClass::Load(a * 8)),
        (0u64..1 << 26).prop_map(|a| OpClass::Store(a * 8)),
        any::<bool>().prop_map(|taken| OpClass::Branch { taken }),
    ];
    (class, 0u64..1 << 20, 0u16..32, 0u16..32).prop_map(|(class, pc, d1, d2)| {
        MicroOp::new(0x1000 + pc * 4, class).with_deps(d1, d2)
    })
}

fn core() -> Core<InsecureBackend> {
    Core::new(PipelineConfig::paper_default(), InsecureBackend::new(100, 8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine always terminates and commits exactly `n` ops.
    #[test]
    fn commits_exactly_what_was_requested(
        ops in proptest::collection::vec(op_strategy(), 1..64),
        n in 1u64..5_000,
    ) {
        let mut c = core();
        let stats = c.run(&mut Arbitrary { ops, i: 0 }, n);
        prop_assert_eq!(stats.instructions, n);
        prop_assert!(stats.cycles >= 1);
    }

    /// Same stream, same machine: identical cycle counts.
    #[test]
    fn simulation_is_deterministic(
        ops in proptest::collection::vec(op_strategy(), 1..64),
    ) {
        let w = Arbitrary { ops, i: 0 };
        let mut a = core();
        let mut b = core();
        let sa = a.run(&mut w.clone(), 3_000);
        let sb = b.run(&mut w.clone(), 3_000);
        prop_assert_eq!(sa, sb);
    }

    /// Cost bounds: a 4-wide machine needs at least n/4 cycles, and no
    /// op can take longer than a worst-case memory round trip amortised.
    #[test]
    fn cycle_count_is_bounded(
        ops in proptest::collection::vec(op_strategy(), 1..64),
    ) {
        let n = 2_000u64;
        let mut c = core();
        let stats = c.run(&mut Arbitrary { ops, i: 0 }, n);
        prop_assert!(stats.cycles >= n / 4, "4-wide lower bound");
        // Upper bound: every op a serialised L2 miss plus redirect slack.
        prop_assert!(
            stats.cycles < n * 400,
            "cycles {} for {} ops is beyond any plausible worst case",
            stats.cycles,
            n
        );
    }

    /// Branch accounting: mispredicts never exceed branches.
    #[test]
    fn mispredicts_are_a_subset_of_branches(
        ops in proptest::collection::vec(op_strategy(), 1..64),
    ) {
        let mut c = core();
        let stats = c.run(&mut Arbitrary { ops, i: 0 }, 4_000);
        prop_assert!(stats.mispredicts <= stats.branches);
        prop_assert_eq!(
            stats.loads + stats.stores + stats.branches
                <= stats.instructions,
            true
        );
    }

    /// Any ROB size, on or off the power-of-two grid, and any memory
    /// port count terminates with exactly `n` ops committed and never
    /// forces a time step.
    #[test]
    fn any_rob_size_commits_exactly_without_forced_steps(
        ops in proptest::collection::vec(op_strategy(), 1..64),
        rob_size in 1usize..=300,
        mem_ports in 1u32..=3,
    ) {
        let config = PipelineConfig { rob_size, mem_ports };
        let mut c = Core::new(config, InsecureBackend::new(100, 8));
        let n = 3_000u64;
        let stats = c.run(&mut Arbitrary { ops, i: 0 }, n);
        prop_assert_eq!(stats.instructions, n);
        prop_assert_eq!(stats.forced_steps, 0);
    }

    /// A 5000-entry ROB sits on a ring of 8192 positions, 128 words, so
    /// each calendar bucket's summary spans two words; a run long
    /// enough to wrap the ring twice still commits exactly `n` ops and
    /// never forces a time step.
    #[test]
    fn a_rob_past_4096_positions_commits_exactly_without_forced_steps(
        ops in proptest::collection::vec(op_strategy(), 1..64),
        mem_ports in 1u32..=3,
    ) {
        let config = PipelineConfig { rob_size: 5000, mem_ports };
        let mut c = Core::new(config, InsecureBackend::new(100, 8));
        let n = 20_000u64;
        let stats = c.run(&mut Arbitrary { ops, i: 0 }, n);
        prop_assert_eq!(stats.instructions, n);
        prop_assert_eq!(stats.forced_steps, 0);
    }
}
