//! The memory-level-parallelism sweeps: engine read throughput as
//! `max_inflight` × `snc_shards` × `mem_channels` grow, and the
//! end-to-end machine speedup on a recorded real-workload trace as the
//! hierarchy's MSHR file and the DRAM channel fabric deepen.
//!
//! The paper's latency model charges each L2 miss in isolation, which
//! leaves all MLP on the table. Two layers recover it:
//!
//! * the **transaction engine** overlaps outstanding misses on the DRAM
//!   fabric, batches their pad generations through the crypto pipeline,
//!   and spreads their SNC probes over shard ports
//!   ([`run_mlp_point`] drives its batch surface directly);
//! * the **hierarchy's L2 MSHR file** is what feeds the engine from a
//!   *real* instruction stream: misses stay in flight while the
//!   out-of-order core runs ahead, then drain in one arrival-preserving
//!   batch ([`run_e2e_point`] measures whole machines on a trace
//!   recorded from a benchmark workload).
//!
//! Every grid cell is an independent pure function of its parameters,
//! so each table builder takes a [`SweepPool`] and fans its cells
//! across worker threads; results come back in submission order, so
//! the rendered tables and JSON lines are byte-identical regardless of
//! the pool's job count.
//!
//! The batch sweep runs with a deliberately CAM-limited SNC port
//! (16 cycles per probe) so the lookup-contention regime that sharding
//! addresses is visible; the default configuration keeps probes cheap.

use padlock_core::{
    Machine, MachineConfig, SecureBackend, SecureBackendConfig, SecurityMode, SncConfig,
};
use padlock_cpu::{LineKind, MemoryBackend, Workload};
use padlock_exec::SweepPool;
use padlock_mem::{DrainOrder, PagePolicy};
use padlock_stats::Table;
use padlock_workloads::{benchmark_profile, SpecWorkload, TracePlayer, TraceRecorder, CHASE_BASE};
use std::collections::BTreeMap;

/// SNC port occupancy used by the batch sweep: a large fully
/// associative CAM whose probe occupies the port longer than one DRAM
/// burst slot.
pub const SWEEP_SNC_PORT_CYCLES: u64 = 16;

/// One cell of the engine-level MLP sweep.
#[derive(Debug, Clone, Copy)]
pub struct MlpPoint {
    /// In-flight transaction bound for this run.
    pub max_inflight: usize,
    /// SNC shard count for this run.
    pub snc_shards: usize,
    /// DRAM channel count for this run.
    pub mem_channels: usize,
    /// DRAM banks per channel for this run (1 = flat).
    pub mem_banks: usize,
    /// Reads retired.
    pub reads: usize,
    /// Cycle the last read retired (batch issued at cycle 0).
    pub total_cycles: u64,
}

impl MlpPoint {
    /// Average simulated cycles per retired read.
    pub fn cycles_per_read(&self) -> f64 {
        self.total_cycles as f64 / self.reads.max(1) as f64
    }
}

/// Builds the miss-heavy controller the batch sweep measures: a
/// 64-entry LRU SNC against `lines` previously written lines, so reads
/// beyond the small resident tail all pay the sequence-fetch path.
pub fn miss_heavy_backend(
    max_inflight: usize,
    snc_shards: usize,
    mem_channels: usize,
    mem_banks: usize,
    order: DrainOrder,
    page: PagePolicy,
    lines: u64,
) -> SecureBackend {
    let snc = SncConfig::paper_default().with_capacity(128);
    let cfg = SecureBackendConfig::paper(SecurityMode::Otp { snc })
        .with_max_inflight(max_inflight)
        .with_snc_shards(snc_shards)
        .with_mem_channels(mem_channels)
        .with_mem_banks(mem_banks)
        .with_drain_order(order)
        .with_page_policy(page)
        .with_snc_port_cycles(SWEEP_SNC_PORT_CYCLES);
    let mut backend = SecureBackend::new(cfg);
    backend.pre_age((0..lines).map(line_addr), std::iter::empty());
    backend
}

/// Covered line `i`'s address; consecutive lines rotate shards and
/// channels, so the trace is balanced for every shard/channel count.
fn line_addr(i: u64) -> u64 {
    0x10_0000 + i * 128
}

/// Runs one batch-sweep cell: `lines` independent reads issued at
/// cycle 0 through the engine's batch surface.
pub fn run_mlp_point(
    max_inflight: usize,
    snc_shards: usize,
    mem_channels: usize,
    mem_banks: usize,
    order: DrainOrder,
    page: PagePolicy,
    lines: u64,
) -> MlpPoint {
    let mut backend = miss_heavy_backend(
        max_inflight,
        snc_shards,
        mem_channels,
        mem_banks,
        order,
        page,
        lines,
    );
    let reqs: Vec<(u64, LineKind)> =
        (0..lines).map(|i| (line_addr(i), LineKind::Data)).collect();
    let dones = backend.line_read_batch(0, &reqs);
    let total_cycles = dones.into_iter().max().unwrap_or(0);
    crate::meter::record_simulated_cycles(total_cycles);
    MlpPoint {
        max_inflight,
        snc_shards,
        mem_channels,
        mem_banks,
        reads: reqs.len(),
        total_cycles,
    }
}

/// The batch sweep as a rendered table: one row per `max_inflight`,
/// one column per (shards × channels) pair, each cell `cycles/read
/// (speedup vs the blocking single-channel 1×1 controller)`. All cells
/// fan across `pool`.
pub fn mlp_table(
    pool: &SweepPool,
    inflights: &[usize],
    shard_counts: &[usize],
    channel_counts: &[usize],
    lines: u64,
) -> Table {
    let mut cells: Vec<(usize, usize, usize)> = vec![(1, 1, 1)];
    for &inflight in inflights {
        for &shards in shard_counts {
            for &channels in channel_counts {
                if (inflight, shards, channels) != (1, 1, 1) {
                    cells.push((inflight, shards, channels));
                }
            }
        }
    }
    let points = pool.sweep(&cells, |&(inflight, shards, channels)| {
        run_mlp_point(
            inflight,
            shards,
            channels,
            1,
            DrainOrder::Fifo,
            PagePolicy::Open,
            lines,
        )
    });
    let by_cell: BTreeMap<(usize, usize, usize), MlpPoint> =
        cells.into_iter().zip(points).collect();
    let base_point = by_cell[&(1, 1, 1)];
    let base = base_point.cycles_per_read();

    let mut header = vec!["inflight".to_string()];
    for &s in shard_counts {
        for &c in channel_counts {
            header.push(format!("{s}sh x {c}ch"));
        }
    }
    let mut table = Table::new(header);
    for &inflight in inflights {
        let mut row = vec![inflight.to_string()];
        for &shards in shard_counts {
            for &channels in channel_counts {
                let p = by_cell[&(inflight, shards, channels)];
                row.push(format!(
                    "{:7.1} cyc/read ({:4.2}x)",
                    p.cycles_per_read(),
                    base / p.cycles_per_read()
                ));
            }
        }
        table.push_row(row);
    }
    table
}

// ---- End-to-end machine sweep over a recorded trace ----

/// A benchmark trace captured once and replayed into every machine
/// configuration, plus the pre-age feeds the workload declares — so
/// every cell of the end-to-end sweep sees the identical dynamic
/// instruction stream (trace-driven SimpleScalar style).
#[derive(Debug, Clone)]
pub struct E2eTrace {
    player: TracePlayer,
    ancient: Vec<u64>,
    active: Vec<u64>,
    warmup: u64,
    measure: u64,
}

impl E2eTrace {
    /// Records `warmup + measure` ops (capped at 1M; the player loops)
    /// from the named benchmark's generator.
    ///
    /// The pre-age feeds treat the pointer-chase region as previously
    /// written back (the structure — graph, netlist, tree — was built
    /// in place by earlier program phases), so its reads take
    /// Algorithm 1's sequence-fetch path rather than the clean-line
    /// bypass: the miss-heavy regime the sweep is about.
    pub fn record(benchmark: &str, warmup: u64, measure: u64) -> Self {
        let profile = benchmark_profile(benchmark);
        let chase_lines = profile.chase_bytes / 128;
        let feeds = SpecWorkload::new(profile.clone());
        let mut ancient: Vec<u64> =
            (0..chase_lines).map(|i| CHASE_BASE + i * 128).collect();
        ancient.extend(feeds.ancient_line_addrs());
        let active: Vec<u64> = feeds.active_line_addrs().collect();
        let mut rec = TraceRecorder::new(SpecWorkload::new(profile));
        let ops = (warmup + measure).min(1_000_000);
        for _ in 0..ops {
            rec.next_op();
        }
        Self {
            player: TracePlayer::new(benchmark.to_string(), rec.into_trace()),
            ancient,
            active,
            warmup,
            measure,
        }
    }

    /// The trace's benchmark name.
    pub fn name(&self) -> &str {
        self.player.name()
    }

    /// A fresh replay cursor over the recorded ops (loops at the end).
    pub fn clone_player(&self) -> TracePlayer {
        self.player.clone()
    }

    /// Pre-aged "written long ago" line addresses for
    /// [`SecureBackend::pre_age`].
    pub fn ancient_lines(&self) -> &[u64] {
        &self.ancient
    }

    /// Recently written line addresses for [`SecureBackend::pre_age`].
    pub fn active_lines(&self) -> &[u64] {
        &self.active
    }

    /// The recorded warm-up window length in ops.
    pub fn warmup_ops(&self) -> u64 {
        self.warmup
    }

    /// The recorded measurement window length in ops.
    pub fn measure_ops(&self) -> u64 {
        self.measure
    }
}

/// One end-to-end grid cell's machine parameters: the structural axes
/// (MSHRs × channels × banks × in-flight bound) plus the scheduling
/// knobs, which default to the paper configuration (arrival-order
/// drains, open-page banks).
#[derive(Debug, Clone, Copy)]
pub struct E2eParams {
    /// Hierarchy MSHR depth.
    pub l2_mshrs: usize,
    /// DRAM channel (and paired SNC shard) count.
    pub mem_channels: usize,
    /// DRAM banks per channel (1 = flat).
    pub mem_banks: usize,
    /// Engine in-flight bound.
    pub max_inflight: usize,
    /// Drain order (FIFO vs FR-FCFS row-first).
    pub order: DrainOrder,
    /// Bank page policy (open vs closed).
    pub page: PagePolicy,
}

impl E2eParams {
    /// Structural axes with paper-default scheduling knobs.
    pub fn new(
        l2_mshrs: usize,
        mem_channels: usize,
        mem_banks: usize,
        max_inflight: usize,
    ) -> Self {
        Self {
            l2_mshrs,
            mem_channels,
            mem_banks,
            max_inflight,
            order: DrainOrder::Fifo,
            page: PagePolicy::Open,
        }
    }

    /// Sets the drain order.
    pub fn with_order(mut self, order: DrainOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the page policy.
    pub fn with_page(mut self, page: PagePolicy) -> Self {
        self.page = page;
        self
    }
}

/// One cell of the end-to-end sweep.
#[derive(Debug, Clone, Copy)]
pub struct E2ePoint {
    /// Hierarchy MSHR depth for this run.
    pub l2_mshrs: usize,
    /// DRAM channel (and paired SNC shard) count for this run.
    pub mem_channels: usize,
    /// DRAM banks per channel for this run (1 = flat).
    pub mem_banks: usize,
    /// Engine in-flight bound for this run.
    pub max_inflight: usize,
    /// Cycles of the measured window.
    pub cycles: u64,
    /// Ops committed in the measured window.
    pub instructions: u64,
    /// Row-buffer hits observed in the measured window (banked runs).
    pub row_hits: u64,
    /// Row-buffer conflicts observed in the measured window.
    pub row_conflicts: u64,
}

impl E2ePoint {
    /// Cycles per instruction of the measured window.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions.max(1) as f64
    }

    /// The cell as one JSON line tagged with its trace name. Every
    /// field is a simulated quantity, so the line is identical for any
    /// `--jobs` count.
    pub fn jsonl(&self, trace: &str) -> String {
        format!(
            "{{\"kind\":\"e2e\",\"trace\":\"{}\",\"mshrs\":{},\"channels\":{},\
             \"banks\":{},\"inflight\":{},\"cycles\":{},\"instructions\":{},\
             \"row_hits\":{},\"row_conflicts\":{}}}",
            trace,
            self.l2_mshrs,
            self.mem_channels,
            self.mem_banks,
            self.max_inflight,
            self.cycles,
            self.instructions,
            self.row_hits,
            self.row_conflicts
        )
    }
}

/// The machine the end-to-end sweep measures: the paper's OTP machine
/// with a deliberately small (64-entry) LRU SNC so a miss-heavy trace
/// keeps taking Algorithm 1's sequence-fetch path, on a deeper
/// (128-entry ROB) out-of-order window so the trace's own MLP is
/// visible to the MSHR file. The SNC shard count is paired with the
/// channel count — each (shard, channel) pair is one independent
/// memory controller.
pub fn e2e_machine_config(params: E2eParams) -> MachineConfig {
    let snc = SncConfig::paper_default().with_capacity(128);
    let mut cfg = MachineConfig::paper(SecurityMode::Otp { snc });
    cfg.pipeline.rob_size = 128;
    cfg.hierarchy.l2_mshrs = params.l2_mshrs;
    cfg.security = cfg
        .security
        .with_max_inflight(params.max_inflight)
        .with_snc_shards(params.mem_channels)
        .with_mem_channels(params.mem_channels)
        .with_mem_banks(params.mem_banks)
        .with_drain_order(params.order)
        .with_page_policy(params.page);
    cfg
}

/// Runs one end-to-end cell: the recorded trace through a full machine
/// (core + hierarchy + engine) at the given parameters.
pub fn run_e2e_point(trace: &E2eTrace, params: E2eParams) -> E2ePoint {
    let mut machine = Machine::new(e2e_machine_config(params));
    machine
        .core_mut()
        .hierarchy_mut()
        .backend_mut()
        .pre_age(trace.ancient.iter().copied(), trace.active.iter().copied());
    let mut player = trace.player.clone();
    let m = machine.run(&mut player, trace.warmup, trace.measure);
    crate::meter::record_simulated_cycles(m.stats.cycles);
    E2ePoint {
        l2_mshrs: params.l2_mshrs,
        mem_channels: params.mem_channels,
        mem_banks: params.mem_banks,
        max_inflight: params.max_inflight,
        cycles: m.stats.cycles,
        instructions: m.stats.instructions,
        row_hits: m.traffic.get("row_hits"),
        row_conflicts: m.traffic.get("row_conflicts"),
    }
}

/// The engine depth each MSHR level runs with: four transactions per
/// MSHR, capped at 32 — so the acceptance configuration
/// (`l2_mshrs = 8`) runs `max_inflight = 32`. With one MSHR the
/// hierarchy hands the engine one miss at a time, so that row is the
/// blocking paper machine regardless of the engine bound.
pub fn inflight_for(l2_mshrs: usize) -> usize {
    (4 * l2_mshrs).min(32)
}

/// The full end-to-end sweep as a rendered table: one row per MSHR
/// depth, one column per channel count, each cell
/// `CPI (speedup vs the 1-MSHR 1-channel paper machine)`. The drain
/// order and page policy apply to every cell (on this flat
/// `mem_banks = 1` grid the bank knobs are inert — the knob is
/// exercised, the numbers match Fifo/Open exactly). All cells fan
/// across `pool`.
pub fn e2e_table(
    pool: &SweepPool,
    trace: &E2eTrace,
    mshr_counts: &[usize],
    channel_counts: &[usize],
    order: DrainOrder,
    page: PagePolicy,
) -> Table {
    let knobs = |p: E2eParams| p.with_order(order).with_page(page);
    let mut cells = vec![knobs(E2eParams::new(1, 1, 1, 1))];
    for &mshrs in mshr_counts {
        for &channels in channel_counts {
            if (mshrs, channels) != (1, 1) {
                cells.push(knobs(E2eParams::new(mshrs, channels, 1, inflight_for(mshrs))));
            }
        }
    }
    // Label-collision guard: every cell must report under a distinct
    // machine label, or downstream tables and JSON consumers silently
    // merge rows. `MachineConfig::label` threads the MSHR depth (and,
    // one layer up, `ServerConfig::label` threads core count and switch
    // quantum), so a collision here means a new sweep axis was added
    // without a label suffix.
    let labels: std::collections::BTreeSet<String> =
        cells.iter().map(|p| e2e_machine_config(*p).label()).collect();
    assert_eq!(
        labels.len(),
        cells.len(),
        "e2e sweep cells collide on report labels: {labels:?}"
    );
    let points = pool.sweep(&cells, |p| run_e2e_point(trace, *p));
    let by_cell: BTreeMap<(usize, usize), E2ePoint> = cells
        .iter()
        .map(|p| (p.l2_mshrs, p.mem_channels))
        .zip(points)
        .collect();
    let base = by_cell[&(1, 1)];

    let mut header = vec!["mshrs".to_string()];
    for &c in channel_counts {
        header.push(format!("{c} channel{}", if c == 1 { "" } else { "s" }));
    }
    let mut table = Table::new(header);
    for &mshrs in mshr_counts {
        let mut row = vec![mshrs.to_string()];
        for &channels in channel_counts {
            let p = by_cell[&(mshrs, channels)];
            row.push(format!(
                "{:5.2} CPI ({:4.2}x)",
                p.cpi(),
                base.cycles as f64 / p.cycles as f64
            ));
        }
        table.push_row(row);
    }
    table
}

/// Simulates the deep banked machine (8 MSHRs, 32 in-flight,
/// `channels` channels paired with shards) over the bank axis for
/// every trace: `grid[bank_index][trace_index]`, every cell fanned
/// across `pool`. Both bank-sweep tables render from one of these, so
/// a caller printing several tables of the same machines simulates
/// each cell exactly once.
pub fn banked_grid(
    pool: &SweepPool,
    traces: &[&E2eTrace],
    bank_counts: &[usize],
    channels: usize,
    order: DrainOrder,
    page: PagePolicy,
) -> Vec<Vec<E2ePoint>> {
    assert!(!bank_counts.is_empty(), "bank axis cannot be empty");
    let cells: Vec<(usize, usize)> = bank_counts
        .iter()
        .enumerate()
        .flat_map(|(bank_index, _)| (0..traces.len()).map(move |t| (bank_index, t)))
        .collect();
    let flat = pool.sweep(&cells, |&(bank_index, trace_index)| {
        let params = E2eParams::new(8, channels, bank_counts[bank_index], 32)
            .with_order(order)
            .with_page(page);
        run_e2e_point(traces[trace_index], params)
    });
    let mut rows = flat.into_iter();
    bank_counts
        .iter()
        .map(|_| rows.by_ref().take(traces.len()).collect())
        .collect()
}

/// Serialises a [`banked_grid`] as JSON lines in grid (submission)
/// order, one line per cell tagged with its trace name.
pub fn grid_jsonl(traces: &[&E2eTrace], grid: &[Vec<E2ePoint>]) -> String {
    let mut out = String::new();
    for row in grid {
        for (trace_index, p) in row.iter().enumerate() {
            out.push_str(&p.jsonl(traces[trace_index].name()));
            out.push('\n');
        }
    }
    out
}

/// The bank sweep: one row per bank count, one column per recorded
/// trace — so bank-parallel traffic (`bfs`: independent in-flight
/// reads) and row-conflict-bound traffic (`rstride`: a serial random
/// walk) can be compared end to end. Cells are CPI, the speedup over
/// the same trace at the first bank count on the axis, and the
/// window's row-buffer hit rate. Renders a [`banked_grid`].
pub fn bank_table_from(
    traces: &[&E2eTrace],
    bank_counts: &[usize],
    grid: &[Vec<E2ePoint>],
) -> Table {
    let mut header = vec!["banks".to_string()];
    for t in traces {
        header.push(t.name().to_string());
    }
    let mut table = Table::new(header);
    for (bank_index, &banks) in bank_counts.iter().enumerate() {
        let mut row = vec![banks.to_string()];
        for (trace_index, p) in grid[bank_index].iter().enumerate() {
            row.push(format!(
                "{:5.2} CPI ({:4.2}x, {:3.0}% row hits)",
                p.cpi(),
                grid[0][trace_index].cycles as f64 / p.cycles as f64,
                hit_pct(p)
            ));
        }
        table.push_row(row);
    }
    table
}

/// The window's row-buffer hit rate as a percentage.
fn hit_pct(p: &E2ePoint) -> f64 {
    let rows_touched = p.row_hits + p.row_conflicts;
    if rows_touched == 0 {
        0.0
    } else {
        p.row_hits as f64 / rows_touched as f64 * 100.0
    }
}

/// The row-hit-delta table: the same machines drained in arrival order
/// vs FR-FCFS row-first order, one row per bank count, one column per
/// trace. Each cell reports both orders' row-hit rates, the row hits
/// the reorder converted out of conflicts, and the CPI movement — the
/// direct measurement of what bank-aware drain ordering buys, since
/// reordering leaves every traffic counter and the hit + conflict
/// total untouched by construction. `fifo` and `rowf` are
/// [`banked_grid`]s of the two orders over the same traces and axis.
pub fn order_delta_table_from(
    traces: &[&E2eTrace],
    bank_counts: &[usize],
    fifo: &[Vec<E2ePoint>],
    rowf: &[Vec<E2ePoint>],
) -> Table {
    let mut header = vec!["banks".to_string()];
    for t in traces {
        header.push(format!("{} (fifo -> row-first)", t.name()));
    }
    let mut table = Table::new(header);
    for (bank_index, &banks) in bank_counts.iter().enumerate() {
        let mut row = vec![banks.to_string()];
        for trace_index in 0..traces.len() {
            let (f, r) = (&fifo[bank_index][trace_index], &rowf[bank_index][trace_index]);
            row.push(format!(
                "{:3.0}% -> {:3.0}% hits (+{} rows), {:5.2} -> {:5.2} CPI ({:4.2}x)",
                hit_pct(f),
                hit_pct(r),
                r.row_hits.saturating_sub(f.row_hits),
                f.cpi(),
                r.cpi(),
                f.cycles as f64 / r.cycles as f64,
            ));
        }
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper-default scheduling knobs every pre-existing sweep ran
    /// with: arrival-order drains over open-page banks.
    fn mlp_point(
        inflight: usize,
        shards: usize,
        channels: usize,
        banks: usize,
        lines: u64,
    ) -> MlpPoint {
        run_mlp_point(
            inflight,
            shards,
            channels,
            banks,
            DrainOrder::Fifo,
            PagePolicy::Open,
            lines,
        )
    }

    fn e2e_point(
        trace: &E2eTrace,
        mshrs: usize,
        channels: usize,
        banks: usize,
        inflight: usize,
    ) -> E2ePoint {
        run_e2e_point(trace, E2eParams::new(mshrs, channels, banks, inflight))
    }

    #[test]
    fn read_throughput_improves_monotonically_with_inflight() {
        let lines = 512;
        let mut last = u64::MAX;
        for inflight in [1usize, 2, 4, 8, 16] {
            let p = mlp_point(inflight, 1, 1, 1, lines);
            assert!(
                p.total_cycles <= last,
                "inflight {inflight}: {} after {last}",
                p.total_cycles
            );
            last = p.total_cycles;
        }
        // And the gain is substantial, not marginal.
        let serial = mlp_point(1, 1, 1, 1, lines);
        let deep = mlp_point(16, 1, 1, 1, lines);
        assert!(
            serial.total_cycles as f64 / deep.total_cycles as f64 > 2.0,
            "serial {} vs deep {}",
            serial.total_cycles,
            deep.total_cycles
        );
    }

    #[test]
    fn sharding_relieves_port_contention_under_deep_inflight() {
        let lines = 512;
        let one = mlp_point(16, 1, 1, 1, lines);
        let four = mlp_point(16, 4, 1, 1, lines);
        assert!(
            four.total_cycles <= one.total_cycles,
            "4 shards {} vs 1 shard {}",
            four.total_cycles,
            one.total_cycles
        );
    }

    #[test]
    fn channels_relieve_dram_contention_under_deep_inflight() {
        let lines = 512;
        let one = mlp_point(32, 4, 1, 1, lines);
        let four = mlp_point(32, 4, 4, 1, lines);
        assert!(
            four.total_cycles < one.total_cycles,
            "4 channels {} vs 1 channel {}",
            four.total_cycles,
            one.total_cycles
        );
    }

    #[test]
    fn table_has_a_row_per_inflight_level_and_channel_columns() {
        let t = mlp_table(&SweepPool::new(2), &[1, 4], &[1], &[1, 2], 128);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.col_count(), 3);
        let text = t.render_text();
        assert!(text.contains("cyc/read"), "{text}");
        assert!(text.contains("2ch"), "channel axis must print: {text}");
    }

    #[test]
    fn e2e_acceptance_deep_machine_doubles_throughput_on_real_trace() {
        // The acceptance configuration of the non-blocking refactor:
        // l2_mshrs = 8, mem_channels = 4, max_inflight = 32 must be at
        // least 2x faster end-to-end than the paper-default blocking
        // machine on a miss-heavy recorded benchmark trace.
        let trace = E2eTrace::record("bfs", 40_000, 120_000);
        let base = e2e_point(&trace, 1, 1, 1, 1);
        let deep = e2e_point(&trace, 8, 4, 1, 32);
        assert_eq!(base.instructions, deep.instructions);
        let speedup = base.cycles as f64 / deep.cycles as f64;
        assert!(
            speedup >= 2.0,
            "expected >= 2x, got {speedup:.2}x (base {} vs deep {})",
            base.cycles,
            deep.cycles
        );
    }

    #[test]
    fn e2e_speedup_is_monotonic_in_mshr_depth() {
        let trace = E2eTrace::record("bfs", 20_000, 60_000);
        let mut last: Option<u64> = None;
        for mshrs in [1usize, 2, 8] {
            let p = e2e_point(&trace, mshrs, 2, 1, inflight_for(mshrs));
            if let Some(best) = last {
                // Deeper files must not lose more than 2% to drain
                // batching (late dependent discovery).
                assert!(
                    p.cycles <= best + best / 50,
                    "mshrs {mshrs}: {} after {best}",
                    p.cycles
                );
            }
            last = Some(last.map_or(p.cycles, |best| best.min(p.cycles)));
        }
    }

    #[test]
    fn e2e_table_prints_channel_axis() {
        let trace = E2eTrace::record("bfs", 5_000, 20_000);
        let t = e2e_table(
            &SweepPool::new(2),
            &trace,
            &[1, 8],
            &[1, 4],
            DrainOrder::Fifo,
            PagePolicy::Open,
        );
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.col_count(), 3);
        let text = t.render_text();
        assert!(text.contains("4 channels"), "{text}");
        assert!(text.contains("CPI"), "{text}");
    }

    #[test]
    fn inflight_pairing_caps_at_32() {
        assert_eq!(inflight_for(1), 4);
        assert_eq!(inflight_for(8), 32);
        assert_eq!(inflight_for(16), 32);
    }

    #[test]
    fn bfs_gains_measurably_from_bank_parallelism() {
        // The deep machine keeps independent misses in flight, so more
        // banks per channel overlap more precharge/activate phases:
        // banks >= 4 must beat the 2-bank fabric by a clear margin on
        // the bank-parallel bfs trace, and 8 banks must not regress.
        let trace = E2eTrace::record("bfs", 20_000, 60_000);
        let two = e2e_point(&trace, 8, 4, 2, 32);
        let four = e2e_point(&trace, 8, 4, 4, 32);
        let eight = e2e_point(&trace, 8, 4, 8, 32);
        assert_eq!(two.instructions, four.instructions);
        assert!(
            four.cycles * 100 <= two.cycles * 95,
            "expected >= 5% gain at 4 banks: {} vs {}",
            four.cycles,
            two.cycles
        );
        assert!(
            eight.cycles <= four.cycles,
            "8 banks regressed: {} vs {}",
            eight.cycles,
            four.cycles
        );
        // Banked runs actually exercise the row buffer.
        assert!(four.row_hits > 0 && four.row_conflicts > 0);
    }

    #[test]
    fn rstride_is_row_conflict_bound() {
        // The serial random-stride walk has no MLP for banks to
        // overlap and row-hops on every chase load: growing the bank
        // count buys almost nothing, and conflicts stay a large share
        // of all row outcomes.
        let trace = E2eTrace::record("rstride", 20_000, 60_000);
        let two = e2e_point(&trace, 8, 4, 2, 32);
        let eight = e2e_point(&trace, 8, 4, 8, 32);
        let gain = two.cycles as f64 / eight.cycles as f64;
        assert!(
            gain < 1.05,
            "a serial conflict-bound walk should not scale with banks, got {gain:.2}x"
        );
        let rows_touched = eight.row_hits + eight.row_conflicts;
        assert!(
            eight.row_conflicts * 10 >= rows_touched * 4,
            "expected >= 40% conflicts, got {} of {rows_touched}",
            eight.row_conflicts
        );
        // And the flat (banks = 1) idealisation is not slower than the
        // banked fabric on this trace: there is no locality to win
        // back the precharge/activate cost.
        let flat = e2e_point(&trace, 8, 4, 1, 32);
        assert!(
            flat.cycles <= eight.cycles + eight.cycles / 20,
            "flat {} vs banked {}",
            flat.cycles,
            eight.cycles
        );
    }

    #[test]
    fn bank_table_prints_both_traces() {
        let bfs = E2eTrace::record("bfs", 5_000, 20_000);
        let rstride = E2eTrace::record("rstride", 5_000, 20_000);
        let traces = [&bfs, &rstride];
        let grid = banked_grid(
            &SweepPool::new(2),
            &traces,
            &[1, 4],
            4,
            DrainOrder::Fifo,
            PagePolicy::Open,
        );
        let t = bank_table_from(&traces, &[1, 4], &grid);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.col_count(), 3);
        let text = t.render_text();
        assert!(text.contains("rstride"), "{text}");
        assert!(text.contains("row hits"), "{text}");
    }

    #[test]
    fn row_first_drain_strictly_increases_bfs_row_hits_and_cpi() {
        // The tentpole acceptance: on the recorded bfs trace through
        // the deep banked machine, FR-FCFS drain ordering must convert
        // conflicts into row hits (strictly more hits, identical
        // hit + conflict total — reordering never changes what is
        // accessed) and the CPI must improve, not just move.
        let trace = E2eTrace::record("bfs", 20_000, 60_000);
        for banks in [4usize, 8] {
            let fifo = run_e2e_point(&trace, E2eParams::new(8, 4, banks, 32));
            let rowf = run_e2e_point(
                &trace,
                E2eParams::new(8, 4, banks, 32).with_order(DrainOrder::RowFirst),
            );
            assert_eq!(fifo.instructions, rowf.instructions);
            assert!(
                rowf.row_hits > fifo.row_hits,
                "{banks} banks: row-first hits {} vs fifo {}",
                rowf.row_hits,
                fifo.row_hits
            );
            assert_eq!(
                rowf.row_hits + rowf.row_conflicts,
                fifo.row_hits + fifo.row_conflicts,
                "{banks} banks: reordering changed the row-outcome total"
            );
            assert!(
                rowf.cycles < fifo.cycles,
                "{banks} banks: row-first CPI {:.3} did not beat fifo {:.3}",
                rowf.cpi(),
                fifo.cpi()
            );
        }
    }

    #[test]
    fn closed_page_never_hits_and_helps_the_conflict_bound_walk() {
        // The page-policy acceptance. Auto-precharge abolishes row hits
        // everywhere by construction; on the rstride walk the only
        // open-page hits were each miss's paired sequence-fetch +
        // line-fetch reopening its own row, so trading them for
        // uniformly cheaper activates must not lose end to end — and
        // does in fact win, because the dearer conflict path sat on the
        // serial chain's critical path.
        let rstride = E2eTrace::record("rstride", 20_000, 60_000);
        let open = run_e2e_point(&rstride, E2eParams::new(8, 4, 8, 32));
        let closed = run_e2e_point(
            &rstride,
            E2eParams::new(8, 4, 8, 32).with_page(PagePolicy::Closed),
        );
        assert_eq!(closed.row_hits, 0, "closed-page run reported a row hit");
        assert!(closed.row_conflicts > 0);
        assert_eq!(
            closed.row_conflicts,
            open.row_hits + open.row_conflicts,
            "page policy changed what was accessed, not just how"
        );
        assert!(
            closed.cycles < open.cycles,
            "closed-page should help rstride: {} vs {}",
            closed.cycles,
            open.cycles
        );
        // The invariant holds on a hit-rich trace too.
        let bfs = E2eTrace::record("bfs", 20_000, 60_000);
        let bfs_closed = run_e2e_point(
            &bfs,
            E2eParams::new(8, 4, 8, 32).with_page(PagePolicy::Closed),
        );
        assert_eq!(bfs_closed.row_hits, 0);
    }

    #[test]
    fn order_delta_table_reports_both_orders() {
        let bfs = E2eTrace::record("bfs", 5_000, 20_000);
        let traces = [&bfs];
        let grid = |order| {
            let pool = SweepPool::serial();
            banked_grid(&pool, &traces, &[4], 4, order, PagePolicy::Open)
        };
        let (fifo, rowf) = (grid(DrainOrder::Fifo), grid(DrainOrder::RowFirst));
        let t = order_delta_table_from(&traces, &[4], &fifo, &rowf);
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.col_count(), 2);
        let text = t.render_text();
        assert!(text.contains("row-first"), "{text}");
        assert!(text.contains("CPI"), "{text}");
        assert!(text.contains("hits"), "{text}");
    }

    #[test]
    fn jsonl_lines_are_deterministic_json_records() {
        let trace = E2eTrace::record("bfs", 2_000, 8_000);
        let e = e2e_point(&trace, 2, 1, 1, 8);
        let eline = e.jsonl(trace.name());
        assert!(eline.contains("\"trace\":\"bfs\""), "{eline}");
        let tail = format!("\"row_conflicts\":{}}}", e.row_conflicts);
        assert!(eline.ends_with(&tail), "{eline}");
        assert_eq!(eline, e2e_point(&trace, 2, 1, 1, 8).jsonl(trace.name()));
    }
}
