//! The fast-forward differential: the event-calendar core must be
//! **bit-exact** against the seed cycle-stepping loop (ported verbatim
//! into [`padlock_bench::seed_core`]) — same cycles, same instructions,
//! and the same value for every cache, traffic, controller, MSHR, and
//! SNC counter — over the full structural grid (security mode ×
//! channels × banks × MSHRs × in-flight bound) on recorded bfs/rstride
//! traces plus the figure workloads, and over ROB sizes on and off the
//! power-of-two grid. The two cores share one hierarchy
//! implementation, so any divergence is a calendar bug: an event
//! skipped, a readiness edge missed, or a drain trigger firing on a
//! different cycle. CI runs this on every push.

use padlock_bench::mlp::{e2e_machine_config, inflight_for, E2eParams, E2eTrace};
use padlock_bench::seed_core::SeedMachine;
use padlock_core::{Machine, MachineConfig, Measurement, SecurityMode, SncConfig};
use padlock_mem::{DrainOrder, PagePolicy};
use padlock_workloads::{benchmark_profile, SpecWorkload};

/// Tiny end-to-end windows: bit-exactness does not need a
/// representative measurement, just real simulations on both sides.
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 6_000;

fn assert_bit_exact(ctx: &str, seed: &Measurement, ff: &Measurement) {
    assert_eq!(seed.stats, ff.stats, "{ctx}: core stats diverged");
    assert_eq!(seed.stats.forced_steps, 0, "{ctx}: seed forced a time step");
    assert_eq!(
        ff.stats.forced_steps, 0,
        "{ctx}: fast-forward core forced a time step"
    );
    assert_eq!(seed.l2, ff.l2, "{ctx}: L2 counters diverged");
    assert_eq!(seed.traffic, ff.traffic, "{ctx}: traffic counters diverged");
    assert_eq!(
        seed.controller, ff.controller,
        "{ctx}: controller counters diverged"
    );
    assert_eq!(seed.mshr, ff.mshr, "{ctx}: MSHR counters diverged");
    assert_eq!(seed.snc, ff.snc, "{ctx}: SNC counters diverged");
    assert_eq!(seed.label, ff.label, "{ctx}: backend label diverged");
}

/// Runs one recorded-trace cell through both cores and returns
/// `(seed, fast_forward)` measurements.
fn run_both(trace: &E2eTrace, config: MachineConfig) -> (Measurement, Measurement) {
    let mut seed = SeedMachine::new(config.clone());
    seed.core_mut()
        .hierarchy_mut()
        .backend_mut()
        .pre_age(
            trace.ancient_lines().iter().copied(),
            trace.active_lines().iter().copied(),
        );
    let mut player = trace.clone_player();
    let seed_m = seed.run(&mut player, trace.warmup_ops(), trace.measure_ops());

    let mut ff = Machine::new(config);
    ff.core_mut().hierarchy_mut().backend_mut().pre_age(
        trace.ancient_lines().iter().copied(),
        trace.active_lines().iter().copied(),
    );
    let mut player = trace.clone_player();
    let ff_m = ff.run(&mut player, trace.warmup_ops(), trace.measure_ops());
    (seed_m, ff_m)
}

/// Runs one benchmark profile through both cores and returns
/// `(seed, fast_forward)` measurements.
fn run_both_profile(bench: &str, config: &MachineConfig) -> (Measurement, Measurement) {
    let mut seed_workload = SpecWorkload::new(benchmark_profile(bench));
    let ancient: Vec<u64> = seed_workload.ancient_line_addrs().collect();
    let active: Vec<u64> = seed_workload.active_line_addrs().collect();

    let mut seed = SeedMachine::new(config.clone());
    seed.core_mut()
        .hierarchy_mut()
        .backend_mut()
        .pre_age(ancient.iter().copied(), active.iter().copied());
    let seed_m = seed.run(&mut seed_workload, WARMUP, MEASURE);

    let mut ff_workload = SpecWorkload::new(benchmark_profile(bench));
    let mut ff = Machine::new(config.clone());
    ff.core_mut()
        .hierarchy_mut()
        .backend_mut()
        .pre_age(ancient.iter().copied(), active.iter().copied());
    let ff_m = ff.run(&mut ff_workload, WARMUP, MEASURE);
    (seed_m, ff_m)
}

#[test]
fn recorded_traces_match_over_the_structural_grid() {
    for bench in ["bfs", "rstride"] {
        let trace = E2eTrace::record(bench, WARMUP, MEASURE);
        for channels in [1usize, 2] {
            for banks in [1usize, 2] {
                for mshrs in [1usize, 4] {
                    for inflight in [1usize, inflight_for(mshrs)] {
                        let params = E2eParams::new(mshrs, channels, banks, inflight);
                        let (seed, ff) = run_both(&trace, e2e_machine_config(params));
                        let ctx = format!(
                            "{bench} ch={channels} banks={banks} \
                             mshrs={mshrs} inflight={inflight}"
                        );
                        assert_bit_exact(&ctx, &seed, &ff);
                    }
                }
            }
        }
    }
}

#[test]
fn scheduling_knobs_match_at_the_deep_point() {
    // The structural grid above runs paper-default scheduling; this
    // re-runs the deepest cell under every scheduler variant the sweep
    // exposes (FR-FCFS, closed page), plus the benchmark's `mlp-traces`
    // machine (8 MSHRs, 4 channels, 2 banks, 32 in flight, 2048-entry
    // ROB) under both drain orders.
    let trace = E2eTrace::record("bfs", WARMUP, MEASURE);
    let deep = E2eParams::new(4, 2, 2, inflight_for(4));
    let variants: [(&str, E2eParams); 2] = [
        ("row-first", deep.with_order(DrainOrder::RowFirst)),
        ("closed-page", deep.with_page(PagePolicy::Closed)),
    ];
    for (name, params) in variants {
        let (seed, ff) = run_both(&trace, e2e_machine_config(params));
        assert_bit_exact(name, &seed, &ff);
    }
    for (name, order) in [
        ("simrate fifo", DrainOrder::Fifo),
        ("simrate row-first", DrainOrder::RowFirst),
    ] {
        let mut config = e2e_machine_config(E2eParams::new(8, 4, 2, 32).with_order(order));
        config.pipeline.rob_size = 2048;
        let (seed, ff) = run_both(&trace, config);
        assert_bit_exact(name, &seed, &ff);
    }
}

#[test]
fn repro_smoke_rstride_cells_match_under_both_drain_orders() {
    // The end-to-end cells `repro --mlp --smoke --trace rstride --mshrs
    // 1,8 --channels 1,4` builds, at its smoke window, under the
    // arrival-order and FR-FCFS row-first drains.
    let trace = E2eTrace::record("rstride", 20_000, 50_000);
    for order in [DrainOrder::Fifo, DrainOrder::RowFirst] {
        for (mshrs, channels, inflight) in [(1, 1, 1), (1, 4, 4), (8, 1, 32), (8, 4, 32)] {
            let params = E2eParams::new(mshrs, channels, 1, inflight).with_order(order);
            let (seed, ff) = run_both(&trace, e2e_machine_config(params));
            let ctx = format!("rstride {order} mshrs={mshrs} ch={channels} inflight={inflight}");
            assert_bit_exact(&ctx, &seed, &ff);
        }
    }
}

#[test]
fn figure_workloads_match_across_security_modes() {
    // One machine per security mode (the figure suite's base, XOM, and
    // OTP columns) over a spread of benchmark profiles.
    let machines: [(&str, MachineConfig); 3] = [
        ("base", MachineConfig::paper(SecurityMode::Insecure)),
        ("xom", MachineConfig::paper(SecurityMode::Xom)),
        (
            "otp-lru64",
            MachineConfig::paper(SecurityMode::Otp {
                snc: SncConfig::paper_default(),
            }),
        ),
    ];
    for bench in ["gzip", "mcf", "equake"] {
        for (name, config) in &machines {
            let (seed, ff) = run_both_profile(bench, config);
            assert_bit_exact(&format!("{bench}/{name}"), &seed, &ff);
        }
    }
}

#[test]
fn rob_sizes_off_the_power_of_two_grid_match() {
    // Every other cell runs a ROB of 16, 128 or 2048 entries, all
    // powers of two. The fast-forward core keeps its ROB in a ring of
    // the next power of two, so these sizes leave ring positions the
    // ROB never fills (1 and 64 fill it exactly).
    let trace = E2eTrace::record("bfs", WARMUP, MEASURE);
    let deep = e2e_machine_config(E2eParams::new(4, 2, 2, inflight_for(4)));
    let xom = MachineConfig::paper(SecurityMode::Xom);
    for rob_size in [1usize, 3, 24, 63, 64, 65, 100, 200] {
        let mut config = deep.clone();
        config.pipeline.rob_size = rob_size;
        let (seed, ff) = run_both(&trace, config);
        assert_bit_exact(&format!("bfs rob={rob_size}"), &seed, &ff);
        for bench in ["gzip", "mcf"] {
            let mut config = xom.clone();
            config.pipeline.rob_size = rob_size;
            let (seed, ff) = run_both_profile(bench, &config);
            assert_bit_exact(&format!("{bench}/xom rob={rob_size}"), &seed, &ff);
        }
    }
}
