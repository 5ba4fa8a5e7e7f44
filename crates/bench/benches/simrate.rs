//! Simulator-throughput benches: wall-time per simulated point on
//! memory-bound recorded traces, seed run loop vs the event-calendar
//! fast-forward core.
//!
//! Each bench simulates one end-to-end point (machine construction,
//! `pre_age`, warm-up, and a measured window — everything
//! `run_e2e_point` pays) at the paper-default 4-wide pipeline over the
//! acceptance fabric (8 MSHRs × 4 channels × 2 banks, 32 in-flight)
//! with a deep 2048-entry window, the "ROB full of parked loads" regime
//! the event calendar was built for. `seed/*` drives the line-for-line
//! port of the pre-rewrite run loop ([`padlock_bench::seed_core`]);
//! `fastforward/*` drives today's core. Both sit on the same
//! hierarchy/backend — the `fastforward_vs_seed` differential proves
//! them bit-exact, so the gap between the ids in `baseline.json` is
//! purely run-loop mechanics: the O(|ROB|) issue/advance rescans the
//! calendar + incremental ready bitmaps replace. The seed loop already
//! event-skips (its `forced_steps` stays 0), so the matched-backend gap
//! is structural but bounded; the
//! end-to-end win of this PR additionally includes the fixed-slot
//! counter and drain-window work visible against the *previous*
//! `baseline.json` capture of `channel_sweep/e2e/*` and `mlp_sweep/*`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use padlock_bench::seed_core::SeedMachine;
use padlock_bench::{e2e_machine_config, E2eParams, E2eTrace};
use padlock_core::{Machine, MachineConfig};

/// Warm-up ops per simulated point.
const WARMUP: u64 = 20_000;
/// Measured ops per simulated point.
const MEASURE: u64 = 120_000;

/// The benched machine: the e2e acceptance fabric (8 MSHRs, 4 channels,
/// 2 banks/channel, 32 in-flight) at the paper-default 4-wide pipeline,
/// deepened to a 2048-entry ROB so in-flight misses park a full window
/// of loads.
fn simrate_config() -> MachineConfig {
    let mut cfg = e2e_machine_config(E2eParams::new(8, 4, 2, 32));
    cfg.pipeline.rob_size = 2048;
    cfg
}

/// A pre-aged seed machine, built outside the timed region.
fn seed_machine(trace: &E2eTrace) -> SeedMachine {
    let mut m = SeedMachine::new(simrate_config());
    m.core_mut().hierarchy_mut().backend_mut().pre_age(
        trace.ancient_lines().iter().copied(),
        trace.active_lines().iter().copied(),
    );
    m
}

/// A pre-aged fast-forward machine over the identical configuration.
fn fastforward_machine(trace: &E2eTrace) -> Machine {
    let mut m = Machine::new(simrate_config());
    m.core_mut().hierarchy_mut().backend_mut().pre_age(
        trace.ancient_lines().iter().copied(),
        trace.active_lines().iter().copied(),
    );
    m
}

fn simrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("simrate");
    g.sample_size(10);
    for name in ["bfs", "rstride"] {
        let trace = E2eTrace::record(name, WARMUP, MEASURE);
        // Sanity: the two cores must agree cycle-for-cycle before their
        // wall-clocks are worth comparing (the full grid lives in the
        // `fastforward_vs_seed` differential).
        {
            let mut seed = seed_machine(&trace);
            let mut ff = fastforward_machine(&trace);
            let mut p1 = trace.clone_player();
            let mut p2 = trace.clone_player();
            let seed_cycles = seed.run(&mut p1, WARMUP, MEASURE).stats.cycles;
            assert_eq!(seed_cycles, ff.run(&mut p2, WARMUP, MEASURE).stats.cycles);
        }
        // Construction and pre-aging happen in the setup half of each
        // batch; only the warm-up + measured simulation is timed.
        g.bench_with_input(BenchmarkId::new("seed", name), &trace, |b, t| {
            b.iter_batched(
                || (seed_machine(t), t.clone_player()),
                |(mut m, mut p)| m.run(&mut p, WARMUP, MEASURE).stats.cycles,
                BatchSize::PerIteration,
            )
        });
        g.bench_with_input(BenchmarkId::new("fastforward", name), &trace, |b, t| {
            b.iter_batched(
                || (fastforward_machine(t), t.clone_player()),
                |(mut m, mut p)| m.run(&mut p, WARMUP, MEASURE).stats.cycles,
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, simrate);
criterion_main!(benches);
