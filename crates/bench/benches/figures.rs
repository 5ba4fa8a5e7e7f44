//! Figure benches: simulation wall time of every distinct machine the
//! paper's figures compare ([`FIGURES`]), of three design ablations
//! (clean-line SNC bypass, write-buffer depth, context-switch SNC
//! flush), and of pre-aging on its own.
//!
//! Each sample builds and pre-ages its point in `iter_batched`'s setup
//! through [`figure_point`], as [`padlock_bench::Lab`] does, so the
//! `figures/*` and `ablation_*` ids time `Machine::run` (or the SNC
//! flush) only. `setup/pre_age/*` times what those setups pay, one id
//! per aging path.

use criterion::{criterion_group, criterion_main, BatchSize, Bencher, BenchmarkId, Criterion};
use padlock_bench::{figure_point, MachineKind, FIGURES};
use padlock_core::{Machine, MachineConfig, SecureBackend, SecureBackendConfig, SecurityMode};
use padlock_workloads::{benchmark_profile, SpecWorkload};

/// Warm-up ops per simulated point.
const WARMUP: u64 = 40_000;
/// Measured ops per simulated point.
const MEASURE: u64 = 120_000;

/// Times `Machine::run` on `bench`'s profile over `config`; the setup
/// builds and pre-ages the point.
fn run_point(b: &mut Bencher, bench: &str, config: &MachineConfig) {
    b.iter_batched(
        || figure_point(benchmark_profile(bench), config.clone()),
        |(mut machine, mut workload)| machine.run(&mut workload, WARMUP, MEASURE).stats.cycles,
        BatchSize::PerIteration,
    )
}

fn figures(c: &mut Criterion) {
    let mut machines: Vec<MachineKind> = Vec::new();
    for machine in FIGURES.iter().flat_map(|f| f.machines()) {
        if !machines.contains(&machine) {
            machines.push(machine);
        }
    }
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    // One memory-bound and one cache-resident profile: the two ends of
    // every figure's benchmark axis.
    for bench in ["mcf", "gzip"] {
        for &machine in &machines {
            let id = BenchmarkId::new(machine.key(), bench);
            g.bench_with_input(id, &machine.config(), |b, config| run_point(b, bench, config));
        }
    }
    g.finish();
}

fn pre_age(c: &mut Criterion) {
    // One machine per aging path: no-replacement, survivors-only fully
    // associative LRU, and set-associative LRU, each over mcf's large
    // ancient heap.
    let mut g = c.benchmark_group("setup");
    g.sample_size(10);
    for machine in [MachineKind::Norepl64, MachineKind::LruFull(64), MachineKind::Lru64Way32] {
        g.bench_with_input(BenchmarkId::new("pre_age", machine.key()), &machine, |b, kind| {
            b.iter_batched(
                || (Machine::new(kind.config()), SpecWorkload::new(benchmark_profile("mcf"))),
                |(mut machine, workload)| {
                    machine
                        .core_mut()
                        .hierarchy_mut()
                        .backend_mut()
                        .pre_age(workload.ancient_line_addrs(), workload.active_line_addrs())
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

fn clean_line_bypass(c: &mut Criterion) {
    // The paper never spells out how reads of never-written lines avoid
    // the SNC; this ablation quantifies why the bypass matters (art is
    // all clean streaming reads).
    let mut g = c.benchmark_group("ablation_clean_bypass");
    g.sample_size(10);
    for bypass in [true, false] {
        let mut config = MachineConfig::paper(SecurityMode::otp_lru_64k());
        config.security.clean_lines_bypass = bypass;
        g.bench_with_input(BenchmarkId::from_parameter(bypass), &config, |b, config| {
            run_point(b, "art", config)
        });
    }
    g.finish();
}

fn write_buffer_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_write_buffer");
    g.sample_size(10);
    for entries in [2usize, 8, 32] {
        let mut config = MachineConfig::paper(SecurityMode::otp_lru_64k());
        config.security.write_buffer_entries = entries;
        g.bench_with_input(BenchmarkId::from_parameter(entries), &config, |b, config| {
            run_point(b, "gcc", config)
        });
    }
    g.finish();
}

fn context_switch_flush(c: &mut Criterion) {
    // §4.3: flushing the SNC with encryption on a context switch.
    let mut g = c.benchmark_group("ablation_context_flush");
    g.sample_size(20);
    for entries in [1024u64, 32 * 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(entries), &entries, |b, &n| {
            b.iter_batched(
                || {
                    let config = SecureBackendConfig::paper(SecurityMode::otp_lru_64k());
                    let mut backend = SecureBackend::new(config);
                    backend.pre_age((0..n).map(|i| 0x4000_0000 + i * 128), std::iter::empty());
                    backend
                },
                |mut backend| backend.context_switch_flush(0),
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    figures,
    pre_age,
    clean_line_bypass,
    write_buffer_depth,
    context_switch_flush
);
criterion_main!(benches);
