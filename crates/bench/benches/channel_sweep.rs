//! Criterion bench over the multi-channel DRAM fabric: wall time of
//! simulating the engine's miss-heavy batch and the end-to-end recorded
//! trace across the `mem_channels` and `mem_banks` axes (the
//! simulated-cycle speedup tables themselves are printed by
//! `repro --mlp` / `repro --mlp --banks` and regression-tested in
//! `padlock_bench::mlp`), plus the `sweep` group timing a whole grid
//! through the sweep pool serially vs at `PADLOCK_JOBS` workers — the
//! pair whose ratio is the executor's speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use padlock_bench::{run_e2e_point, run_mlp_point, E2eParams, E2eTrace};
use padlock_exec::SweepPool;
use padlock_mem::{DrainOrder, PagePolicy};

fn channel_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("channel_sweep");
    g.sample_size(10);
    let lines = 1_024;
    for channels in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("batch", format!("{channels}ch")),
            &channels,
            |b, &channels| {
                b.iter(|| {
                    run_mlp_point(16, 4, channels, 1, DrainOrder::Fifo, PagePolicy::Open, lines)
                })
            },
        );
    }
    // The bank dimension: the same miss-heavy batch with row-buffer
    // timing enabled beneath each channel.
    for banks in [4usize, 8] {
        g.bench_with_input(
            BenchmarkId::new("batch", format!("4ch{banks}bk")),
            &banks,
            |b, &banks| {
                b.iter(|| run_mlp_point(16, 4, 4, banks, DrainOrder::Fifo, PagePolicy::Open, lines))
            },
        );
    }
    // The drain-order dimension: the banked batch drained FR-FCFS
    // row-first instead of in arrival order.
    g.bench_with_input(
        BenchmarkId::new("batch", "4ch8bk_rowfirst"),
        &8usize,
        |b, &banks| {
            b.iter(|| {
                run_mlp_point(16, 4, 4, banks, DrainOrder::RowFirst, PagePolicy::Open, lines)
            })
        },
    );
    let trace = E2eTrace::record("bfs", 4_000, 12_000);
    for channels in [1usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("e2e", format!("{channels}ch")),
            &channels,
            |b, &channels| {
                b.iter(|| run_e2e_point(&trace, E2eParams::new(8, channels, 1, 32)))
            },
        );
    }
    for banks in [4usize, 8] {
        g.bench_with_input(
            BenchmarkId::new("e2e", format!("4ch{banks}bk")),
            &banks,
            |b, &banks| {
                b.iter(|| run_e2e_point(&trace, E2eParams::new(8, 4, banks, 32)))
            },
        );
    }
    g.bench_with_input(
        BenchmarkId::new("e2e", "4ch8bk_rowfirst"),
        &8usize,
        |b, &banks| {
            b.iter(|| {
                run_e2e_point(
                    &trace,
                    E2eParams::new(8, 4, banks, 32).with_order(DrainOrder::RowFirst),
                )
            })
        },
    );
    let rstride = E2eTrace::record("rstride", 4_000, 12_000);
    g.bench_with_input(
        BenchmarkId::new("e2e_rstride", "4ch4bk"),
        &4usize,
        |b, &banks| {
            b.iter(|| run_e2e_point(&rstride, E2eParams::new(8, 4, banks, 32)))
        },
    );
    // Closed-page auto-precharge on the conflict-bound walk: the page
    // policy the rstride row motivates.
    g.bench_with_input(
        BenchmarkId::new("e2e_rstride", "4ch4bk_closed"),
        &4usize,
        |b, &banks| {
            b.iter(|| {
                run_e2e_point(
                    &rstride,
                    E2eParams::new(8, 4, banks, 32).with_page(PagePolicy::Closed),
                )
            })
        },
    );
    g.finish();
}

/// The executor's headline pair: the same 12-cell engine grid swept
/// serially and through `PADLOCK_JOBS` self-scheduling workers, each
/// taking the next cell from one shared cursor. Both produce identical
/// results (the determinism suite asserts it); the wall-time ratio in
/// the captured baseline is the pool's speedup on the capture host, so
/// record that host's CPU count with it: on one or two CPUs the pair
/// reads within noise of each other.
fn sweep_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    let lines = 1_024;
    let cells: Vec<(usize, usize)> = [4usize, 8, 16, 32]
        .iter()
        .flat_map(|&inflight| [1usize, 2, 4].map(move |channels| (inflight, channels)))
        .collect();
    let grid = |pool: &SweepPool| {
        pool.sweep(&cells, |&(inflight, channels)| {
            run_mlp_point(
                inflight,
                channels,
                channels,
                1,
                DrainOrder::Fifo,
                PagePolicy::Open,
                lines,
            )
        })
    };
    let serial = SweepPool::serial();
    g.bench_function("mlp_grid_serial", |b| b.iter(|| grid(&serial)));
    let pooled = SweepPool::from_env();
    g.bench_function("mlp_grid_jobs", |b| b.iter(|| grid(&pooled)));
    g.finish();
}

criterion_group!(benches, channel_sweep, sweep_pool);
criterion_main!(benches);
