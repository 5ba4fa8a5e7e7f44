//! The secure-server contention sweep: N compartments time-sharing one
//! secure memory fabric, measured as a cores × channels ×
//! switch-quantum grid.
//!
//! Each cell builds a [`SecureServer`] whose compartments run workload
//! generators offset into their own address stripes
//! ([`compartment_base`]) over a *shared* backend — one transaction
//! engine, one SNC, one DRAM channel set. The fabric is the end-to-end
//! acceptance machine of the MLP sweep ([`e2e_machine_config`]: a
//! deliberately small 64-entry LRU SNC under 8 MSHRs and 32 in-flight
//! transactions), so adding compartments contends three shared
//! resources at once: DRAM channel occupancy, crypto-pipeline slots,
//! and — the paper-specific one — SNC capacity, where one compartment's
//! sequence-number installs evict another's entries
//! ([`ServerPoint::cross_evictions`] counts exactly those). A non-zero
//! switch quantum additionally fires the §4.3 context-switch flush
//! every `quantum` cycles, so the table shows both steady-state
//! cross-compartment pressure and the flush-storm cost of time-slicing.
//!
//! Every grid cell is an independent pure function of its parameters,
//! so [`server_table`] fans cells across a [`SweepPool`]; results
//! reassemble in submission order and the rendered table is
//! byte-identical for any job count.

use crate::mlp::{e2e_machine_config, E2eParams};
use padlock_core::server::compartment_base;
use padlock_core::{MachineConfig, SecureServer, ServerConfig};
use padlock_cpu::OffsetWorkload;
use padlock_exec::SweepPool;
use padlock_stats::Table;
use padlock_workloads::compartment_assignment;
use std::collections::BTreeMap;

/// One cell of the server contention sweep.
#[derive(Debug, Clone, Copy)]
pub struct ServerPoint {
    /// Compartment (core) count sharing the fabric.
    pub cores: usize,
    /// DRAM channel (and paired SNC shard) count.
    pub mem_channels: usize,
    /// Context-switch quantum in cycles (0 = no switching).
    pub switch_interval: u64,
    /// Cycles summed over all compartments' measured windows.
    pub cycles: u64,
    /// Ops committed, summed over all compartments.
    pub instructions: u64,
    /// SNC entries evicted by a *different* compartment's install or
    /// flush, summed over all victim compartments.
    pub cross_evictions: u64,
    /// Context switches fired inside the measured window.
    pub context_switches: u64,
}

impl ServerPoint {
    /// Mean cycles per instruction across the compartments.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions.max(1) as f64
    }
}

/// The per-compartment machine the contention sweep shares: the MLP
/// sweep's end-to-end acceptance fabric (OTP + 64-entry LRU SNC,
/// 128-entry ROB, 8 MSHRs, 32 in-flight, shards paired with channels).
/// The SNC is kept small on purpose — it is the shared resource whose
/// cross-compartment evictions the sweep is about.
pub fn server_machine_config(mem_channels: usize) -> MachineConfig {
    e2e_machine_config(E2eParams::new(8, mem_channels, 1, 32))
}

/// Runs one contention cell: `cores` compartments (each running the
/// pinned benchmark, or the suite round-robin when `benchmark` is
/// `"mix"`) time-sharing one fabric for a `measure`-op window per
/// compartment. Every compartment's written regions are pre-aged into
/// its own stripe, so reads take Algorithm 1's sequence-fetch path and
/// keep pressure on the shared SNC.
pub fn run_server_point(
    benchmark: &str,
    cores: usize,
    mem_channels: usize,
    switch_interval: u64,
    warmup: u64,
    measure: u64,
) -> ServerPoint {
    let mut config = ServerConfig::from_machine(server_machine_config(mem_channels), cores);
    if switch_interval > 0 {
        config = config.with_switch_interval(switch_interval);
    }
    let mut server = SecureServer::new(config);
    let pinned = (benchmark != "mix").then_some(benchmark);
    let mut loads = Vec::with_capacity(cores);
    for (c, feed) in compartment_assignment(cores, pinned).into_iter().enumerate() {
        let base = compartment_base(c);
        server.pre_age(
            feed.ancient_line_addrs().map(|a| a + base),
            feed.active_line_addrs().map(|a| a + base),
        );
        loads.push(OffsetWorkload::new(feed, base));
    }
    let m = server.run(&mut loads, warmup, measure);
    let cycles: u64 = m.compartments.iter().map(|r| r.stats.cycles).sum();
    let instructions: u64 = m.compartments.iter().map(|r| r.stats.instructions).sum();
    let cross_evictions: u64 = m
        .compartments
        .iter()
        .map(|r| r.snc_evictions_by_others)
        .sum();
    crate::meter::record_simulated_cycles(cycles);
    ServerPoint {
        cores,
        mem_channels,
        switch_interval,
        cycles,
        instructions,
        cross_evictions,
        context_switches: m.context_switches,
    }
}

/// The contention sweep as a rendered table: one row per compartment
/// count, one column per (channels × switch-quantum) pair, each cell
/// `mean CPI (slowdown vs the first row's compartment count in the same
/// column) + cross-compartment SNC evictions`. All cells fan across
/// `pool`.
pub fn server_table(
    pool: &SweepPool,
    benchmark: &str,
    core_counts: &[usize],
    channel_counts: &[usize],
    switch_intervals: &[u64],
    warmup: u64,
    measure: u64,
) -> Table {
    assert!(!core_counts.is_empty(), "core axis cannot be empty");
    let mut cells: Vec<(usize, usize, u64)> = Vec::new();
    for &cores in core_counts {
        for &channels in channel_counts {
            for &switch in switch_intervals {
                cells.push((cores, channels, switch));
            }
        }
    }
    let points = pool.sweep(&cells, |&(cores, channels, switch)| {
        run_server_point(benchmark, cores, channels, switch, warmup, measure)
    });
    let by_cell: BTreeMap<(usize, usize, u64), ServerPoint> =
        cells.into_iter().zip(points).collect();

    let quantum = |q: u64| {
        if q == 0 {
            "no switch".to_string()
        } else {
            format!("q={q}")
        }
    };
    let mut header = vec!["cores".to_string()];
    for &channels in channel_counts {
        for &switch in switch_intervals {
            header.push(format!("{channels}ch {}", quantum(switch)));
        }
    }
    let mut table = Table::new(header);
    for &cores in core_counts {
        let mut row = vec![cores.to_string()];
        for &channels in channel_counts {
            for &switch in switch_intervals {
                let p = by_cell[&(cores, channels, switch)];
                let base = by_cell[&(core_counts[0], channels, switch)];
                row.push(format!(
                    "{:5.2} CPI ({:4.2}x, {} xevict)",
                    p.cpi(),
                    p.cpi() / base.cpi(),
                    p.cross_evictions
                ));
            }
        }
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_degrades_cpi_with_compartment_count() {
        // The acceptance claim: at fixed SNC capacity, packing more
        // compartments onto the shared fabric costs mean CPI, and the
        // shared SNC shows cross-compartment evictions.
        let one = run_server_point("bfs", 1, 2, 0, 2_000, 10_000);
        let four = run_server_point("bfs", 4, 2, 0, 2_000, 10_000);
        assert_eq!(one.instructions * 4, four.instructions);
        assert!(
            four.cpi() > one.cpi() * 1.02,
            "4 compartments {:.3} CPI vs 1 compartment {:.3}",
            four.cpi(),
            one.cpi()
        );
        assert_eq!(one.cross_evictions, 0, "a lone compartment has no rivals");
        assert!(
            four.cross_evictions > 0,
            "shared SNC showed no cross-compartment evictions"
        );
    }

    #[test]
    fn switch_quantum_fires_and_charges_flush_evictions() {
        let free = run_server_point("bfs", 2, 2, 0, 2_000, 10_000);
        let sliced = run_server_point("bfs", 2, 2, 20_000, 2_000, 10_000);
        assert_eq!(free.context_switches, 0);
        assert!(sliced.context_switches > 0, "quantum never fired");
        assert!(
            sliced.cross_evictions > 0,
            "context-switch flushes produced no cross-compartment evictions"
        );
        // The flush cost (refetching every flushed sequence number) is
        // offset by the flush's packed spills, so CPI only has to stay
        // in the same regime — direction is second-order at this scale.
        let ratio = sliced.cpi() / free.cpi();
        assert!(
            (0.9..1.5).contains(&ratio),
            "time-slicing moved CPI out of regime: {:.3} vs {:.3}",
            sliced.cpi(),
            free.cpi()
        );
    }

    #[test]
    fn table_covers_every_axis_and_is_jobs_invariant() {
        let render = |jobs| {
            server_table(
                &SweepPool::new(jobs),
                "bfs",
                &[1, 2],
                &[1, 2],
                &[0, 20_000],
                500,
                2_000,
            )
            .render_text()
        };
        let serial = render(1);
        assert!(serial.contains("2ch q=20000"), "{serial}");
        assert!(serial.contains("no switch"), "{serial}");
        assert!(serial.contains("xevict"), "{serial}");
        assert_eq!(serial, render(4), "table must not depend on job count");
    }

    #[test]
    fn mixed_assignment_runs_the_suite_round_robin() {
        let p = run_server_point("mix", 2, 1, 0, 500, 2_000);
        assert_eq!(p.instructions, 4_000);
    }
}
