//! Regenerates every table/figure of the paper.
//!
//! ```text
//! repro                  # all figures at full scale
//! repro --quick          # smaller measurement windows
//! repro --figure 5       # one figure
//! repro --csv target/repro   # also write CSV files
//! repro --mlp            # engine + end-to-end MLP speedup tables
//! repro --mlp --channels 1,2,4 --mshrs 1,4,8   # custom sweep axes
//! repro --mlp --banks 1,2,4,8   # add the DRAM-bank / row-buffer sweep
//! repro --jobs 8         # fan every sweep across 8 workers
//! ```
//!
//! Every sweep fans across a self-scheduling [`SweepPool`]; results are
//! sorted back into submission order, so all tables and JSON lines on
//! stdout are byte-identical for any `--jobs` value (timing
//! diagnostics go to stderr).

use padlock_bench::{E2eParams, E2eTrace, Lab, MachineKind, RunScale};
use padlock_core::SecurityMode;
use padlock_exec::SweepPool;
use padlock_mem::{DrainOrder, PagePolicy, ROW_LINES};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Streams a simulated-throughput line to stderr after each sweep:
/// cycles simulated since the previous lap, wall-time, and the
/// resulting simulated-Mcycles/s rate. Stderr only — stdout tables
/// stay byte-identical with or without the diagnostics.
struct SweepRate {
    cycles: u64,
    started: Instant,
}

impl SweepRate {
    fn start() -> Self {
        Self {
            cycles: padlock_bench::simulated_cycles(),
            started: Instant::now(),
        }
    }

    fn lap(&mut self, label: &str) {
        let cycles = padlock_bench::simulated_cycles();
        let seconds = self.started.elapsed().as_secs_f64();
        let mcycles = (cycles - self.cycles) as f64 / 1e6;
        eprintln!(
            "({label}: {mcycles:.1} simulated Mcycles in {seconds:.2}s — {:.1} Mcyc/s)",
            mcycles / seconds.max(1e-9)
        );
        self.cycles = cycles;
        self.started = Instant::now();
    }
}

/// The paper's evaluation figures in paper order: what a bare `repro`
/// renders, and the only values `--figure` accepts.
const FIGURES: [u32; 7] = [3, 5, 6, 7, 8, 9, 10];

struct Args {
    figure: Option<u32>,
    scale: RunScale,
    csv_dir: Option<PathBuf>,
    calibrate: bool,
    snc: bool,
    mlp: bool,
    server: bool,
    cores: Option<Vec<usize>>,
    switches: Option<Vec<u64>>,
    channels: Vec<usize>,
    mshrs: Vec<usize>,
    banks: Option<Vec<usize>>,
    order: DrainOrder,
    page: PagePolicy,
    trace: String,
    jobs: Option<usize>,
    jsonl: Option<PathBuf>,
    seed_core: bool,
}

impl Args {
    /// The sweep pool every table builder fans across: `--jobs N` if
    /// given, else `PADLOCK_JOBS`, else the host's available cores.
    fn pool(&self) -> SweepPool {
        self.jobs.map_or_else(SweepPool::from_env, SweepPool::new)
    }
}

fn parse_axis(flag: &str, value: &str) -> Vec<usize> {
    let axis: Vec<usize> = value
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("{flag} expects numbers, got {v:?}")))
        })
        .collect();
    if axis.is_empty() || axis.contains(&0) {
        usage_error(&format!("{flag} needs positive counts"));
    }
    axis
}

/// The context-switch axis admits a value the generic parser rejects:
/// `0` means "no switching" (the column every quantum is compared
/// against), so only garbage is an error.
fn parse_switch_axis(value: &str) -> Vec<u64> {
    let axis: Vec<u64> = value
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("--switch expects cycle counts, got {v:?}")))
        })
        .collect();
    if axis.is_empty() {
        usage_error("--switch needs at least one quantum (0 = no switching)");
    }
    axis
}

/// The bank axis carries an extra constraint the generic axis parser
/// cannot see: rows are [`ROW_LINES`] lines and rotate over banks, so a
/// bank count that does not divide the row would leave the row-hit
/// tables silently comparing unequal bank populations. Reject it
/// loudly instead of mis-mapping.
fn parse_banks_axis(value: &str) -> Vec<usize> {
    let axis = parse_axis("--banks", value);
    for &banks in &axis {
        if !ROW_LINES.is_multiple_of(banks as u64) {
            usage_error(&format!(
                "--banks values must divide the {ROW_LINES}-line row \
                 (1,2,4,8,16), got {banks}"
            ));
        }
    }
    axis
}

/// The channel axis feeds the `--mlp` end-to-end and `--server` sweeps,
/// whose machines pair one SNC shard with each channel — and shards
/// must split the SNC's entries evenly. Reject a channel count that
/// does not divide them instead of panicking mid-sweep.
fn parse_channels_axis(value: &str) -> Vec<usize> {
    let axis = parse_axis("--channels", value);
    let swept = padlock_bench::e2e_machine_config(E2eParams::new(1, 1, 1, 1));
    if let SecurityMode::Otp { snc } = swept.security.mode {
        let entries = snc.entries();
        for &channels in &axis {
            if entries % channels != 0 {
                usage_error(&format!(
                    "--channels values must divide the {entries} SNC entries \
                     the swept machines split into one shard per channel, got {channels}"
                ));
            }
        }
    }
    axis
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message} (try --help)");
    std::process::exit(2);
}

/// Reports an output path that cannot be written and exits with the
/// usage-error code.
fn cannot_write(path: &Path, err: &std::io::Error) -> ! {
    eprintln!("cannot write {}: {err}", path.display());
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        figure: None,
        scale: RunScale::Full,
        csv_dir: None,
        calibrate: false,
        snc: false,
        mlp: false,
        server: false,
        cores: None,
        switches: None,
        channels: vec![1, 2, 4],
        mshrs: vec![1, 2, 4, 8],
        banks: None,
        order: DrainOrder::Fifo,
        page: PagePolicy::Open,
        trace: "bfs".to_string(),
        jobs: None,
        jsonl: None,
        seed_core: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--figure" | "-f" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--figure needs a number"));
                let n = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--figure expects a number, got {v:?}"))
                });
                if !FIGURES.contains(&n) {
                    usage_error(&format!(
                        "no figure {n} in the paper's evaluation ({FIGURES:?})"
                    ));
                }
                args.figure = Some(n);
            }
            "--quick" => args.scale = RunScale::Quick,
            "--smoke" => args.scale = RunScale::Smoke,
            "--csv" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--csv needs a directory"));
                args.csv_dir = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--figure N] [--quick|--smoke] [--csv DIR] [--jobs N]\n\
                     \x20      [--calibrate [--snc]]\n\
                     \x20      [--mlp [--channels A,B,..] [--mshrs A,B,..] [--banks A,B,..]\n\
                     \x20       [--order fifo|row-first] [--page open|closed]\n\
                     \x20       [--trace BENCH] [--jsonl FILE] [--seed-core]]\n\
                     \x20      [--server [--cores A,B,..] [--switch A,B,..]\n\
                     \x20       [--channels A,B,..] [--trace BENCH|mix]]\n\
                     Regenerates the figures of 'Fast Secure Processor for\n\
                     Inhibiting Software Piracy and Tampering' (MICRO-36, 2003).\n\
                     --jobs fans every sweep across N worker threads (default:\n\
                     PADLOCK_JOBS or all cores; results are byte-identical to\n\
                     --jobs 1 — points run in any order but reassemble in\n\
                     submission order).\n\
                     --calibrate prints per-benchmark CPI/miss diagnostics instead;\n\
                     add --snc for SNC hit/miss/spill rates.\n\
                     --mlp sweeps the transaction engine's inflight x shards x channels\n\
                     grid on a miss-heavy batch (cycles/read), then sweeps whole\n\
                     machines — L2 MSHRs x DRAM channels — end to end on a recorded\n\
                     benchmark trace (CPI), each with the speedup over the paper's\n\
                     blocking single-channel machine.\n\
                     --channels / --mshrs set the sweep axes (comma-separated;\n\
                     channel counts must divide the swept SNC's entry count);\n\
                     --banks additionally sweeps DRAM banks per channel with\n\
                     row-buffer timing (values must divide the 16-line row),\n\
                     comparing the chosen trace against the row-conflict-bound\n\
                     rstride walk and printing the fifo vs row-first\n\
                     row-hit-delta table;\n\
                     --order picks the drain scheduler's issue order (fifo =\n\
                     arrival order, row-first = FR-FCFS grouping of same-row\n\
                     misses); --page picks the bank page policy (open rows vs\n\
                     closed-page auto-precharge);\n\
                     --server sweeps the N-compartment secure server instead:\n\
                     cores x channels x context-switch quanta over one shared\n\
                     fabric (small LRU SNC), printing mean CPI, the slowdown vs\n\
                     the smallest core count, and cross-compartment SNC\n\
                     evictions per cell; --cores sets the compartment axis,\n\
                     --switch the context-switch quanta in cycles (0 = never),\n\
                     and --trace pins every compartment's benchmark (mix =\n\
                     round-robin suite assignment);\n\
                     --trace picks the recorded benchmark (default bfs, the\n\
                     miss-heavy graph-traversal workload); --jsonl streams the\n\
                     bank-sweep grid points as JSON lines to FILE (requires\n\
                     --banks); --seed-core routes the end-to-end sweep through\n\
                     the pre-calendar seed run loop — byte-identical output,\n\
                     which CI diffs against the fast-forward core."
                );
                std::process::exit(0);
            }
            "--calibrate" => args.calibrate = true,
            "--snc" => args.snc = true,
            "--mlp" => args.mlp = true,
            "--server" => args.server = true,
            "--cores" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--cores needs counts"));
                args.cores = Some(parse_axis("--cores", &v));
            }
            "--switch" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--switch needs quanta"));
                args.switches = Some(parse_switch_axis(&v));
            }
            "--channels" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--channels needs counts"));
                args.channels = parse_channels_axis(&v);
            }
            "--mshrs" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--mshrs needs counts"));
                args.mshrs = parse_axis("--mshrs", &v);
            }
            "--banks" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--banks needs counts"));
                args.banks = Some(parse_banks_axis(&v));
            }
            "--jobs" | "-j" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--jobs needs a worker count"));
                let jobs: usize = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("--jobs expects a number, got {v:?}")));
                if jobs == 0 {
                    usage_error("--jobs needs a positive worker count (use 1 for serial)");
                }
                args.jobs = Some(jobs);
            }
            "--seed-core" => args.seed_core = true,
            "--jsonl" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--jsonl needs a file path"));
                args.jsonl = Some(PathBuf::from(v));
            }
            "--order" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--order needs a policy"));
                args.order = match v.as_str() {
                    "fifo" => DrainOrder::Fifo,
                    "row-first" => DrainOrder::RowFirst,
                    other => usage_error(&format!(
                        "--order expects fifo or row-first, got {other:?}"
                    )),
                };
            }
            "--page" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--page needs a policy"));
                args.page = match v.as_str() {
                    "open" => PagePolicy::Open,
                    "closed" => PagePolicy::Closed,
                    other => usage_error(&format!(
                        "--page expects open or closed, got {other:?}"
                    )),
                };
            }
            "--trace" => {
                let v = iter.next().unwrap_or_else(|| usage_error("--trace needs a benchmark"));
                let known = padlock_workloads::BENCHMARK_NAMES
                    .iter()
                    .chain(padlock_workloads::STRESS_NAMES.iter())
                    .chain(std::iter::once(&"mix"));
                if !known.clone().any(|&k| k == v) {
                    usage_error(&format!(
                        "--trace expects one of {:?}, got {v:?}",
                        known.collect::<Vec<_>>()
                    ));
                }
                args.trace = v;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if args.snc && !args.calibrate {
        usage_error("--snc requires --calibrate");
    }
    if args.server && args.mlp {
        usage_error("--server and --mlp are separate sweeps; pick one");
    }
    if (args.cores.is_some() || args.switches.is_some()) && !args.server {
        usage_error("--cores / --switch apply to the --server sweep");
    }
    if args.trace == "mix" && !args.server {
        usage_error("--trace mix (round-robin suite assignment) applies to --server");
    }
    if args.jsonl.is_some() && args.banks.is_none() {
        usage_error("--jsonl streams the bank-sweep grid and requires --banks");
    }
    if args.seed_core && (!args.mlp || args.banks.is_some()) {
        usage_error("--seed-core applies to the --mlp end-to-end sweep (without --banks)");
    }
    if (args.figure.is_some() || args.csv_dir.is_some())
        && (args.server || args.mlp || args.calibrate)
    {
        usage_error(
            "--figure / --csv apply to the figure suite, not --server, --mlp or --calibrate",
        );
    }
    args
}

fn calibrate(lab: &mut Lab) {
    println!("bench     cpi    l2miss/ki  wb/ki   mispred%");
    for b in padlock_bench::ORDER {
        let m = lab.measure(b, MachineKind::Baseline);
        let ki = m.stats.instructions as f64 / 1000.0;
        println!(
            "{:8} {:5.2}  {:9.2}  {:5.2}  {:7.2}",
            b,
            m.stats.cpi(),
            m.l2.get("misses") as f64 / ki,
            m.traffic.get("line_writes") as f64 / ki,
            m.stats.mispredicts as f64 / m.stats.branches.max(1) as f64 * 100.0,
        );
    }
}

fn snc_diag(lab: &mut Lab, kind: MachineKind) {
    println!("\nSNC diagnostics for {kind}:");
    println!("bench     qhit/ki  qmiss/ki  uhit/ki  umiss/ki  inst/ki  spill/ki");
    for b in padlock_bench::ORDER {
        let m = lab.measure(b, kind);
        let ki = m.stats.instructions as f64 / 1000.0;
        let g = |k: &str| m.snc.get(k) as f64 / ki;
        println!(
            "{:8} {:8.2} {:9.2} {:8.2} {:9.2} {:8.2} {:9.2}",
            b,
            g("query_hits"),
            g("query_misses"),
            g("update_hits"),
            g("update_misses"),
            g("installs"),
            g("spills"),
        );
    }
}

/// Runs the `--mlp` sweeps; `jsonl` is the already-opened `--jsonl`
/// output, written once the bank grid is simulated.
fn mlp(args: &Args, pool: &SweepPool, jsonl: Option<(&Path, File)>) {
    let mut rate = SweepRate::start();
    let lines = match args.scale {
        RunScale::Smoke => 1_024,
        RunScale::Quick => 4_096,
        RunScale::Full => 16_384,
    };
    println!(
        "== MLP — transaction-engine read throughput, {lines}-line miss-heavy batch =="
    );
    println!(
        "(64-entry LRU SNC, all lines previously written, CAM-limited {}-cycle SNC port;\n\
         cells are simulated cycles/read and speedup vs the blocking 1-inflight controller)\n",
        padlock_bench::mlp::SWEEP_SNC_PORT_CYCLES
    );
    let table =
        padlock_bench::mlp_table(pool, &[1, 2, 4, 8, 16, 32], &[1, 2, 4], &args.channels, lines);
    println!("{}", table.render_text());
    rate.lap("engine sweep");

    let (warmup, measure) = args.scale.window();
    // The end-to-end sweep runs a full machine per cell; a fraction of
    // the figure window keeps the grid affordable at every scale.
    let (warmup, measure) = (warmup / 4, measure / 4);
    println!(
        "\n== MLP end-to-end — recorded {} trace through the whole machine ==",
        args.trace
    );
    println!(
        "(OTP + 64-entry LRU SNC, 128-entry ROB, shards paired with channels,\n\
         max_inflight = min(4 x mshrs, 32), {} drain order, {}-page banks;\n\
         cells are CPI of a {measure}-op window and speedup vs the blocking\n\
         1-MSHR single-channel paper machine)\n",
        args.order, args.page
    );
    let trace = E2eTrace::record(&args.trace, warmup, measure);
    let table = padlock_bench::e2e_table(
        pool,
        &trace,
        &args.mshrs,
        &args.channels,
        args.order,
        args.page,
        args.seed_core,
    );
    println!("{}", table.render_text());
    rate.lap(if args.seed_core { "e2e sweep (seed core)" } else { "e2e sweep" });

    if let Some(bank_axis) = &args.banks {
        let channels = args.channels.iter().copied().max().unwrap_or(4);
        println!(
            "\n== MLP x banks — row-buffer locality end to end ({channels} channels, 8 MSHRs, 32 in-flight, {} drain, {}-page) ==",
            args.order, args.page
        );
        println!(
            "(each channel gets N banks with open-row registers: hits cost {} cycles,\n\
             precharge+activate conflicts {}, closed-page accesses {};\n\
             banks=1 is the paper's flat 100-cycle DRAM. Traces with independent\n\
             in-flight misses (bfs) let banks overlap their activates; the rstride\n\
             walk is serial and row-hops every access — conflict-bound at any\n\
             width under open-page rows, but cheaper under closed-page)\n",
            padlock_mem::DEFAULT_ROW_HIT_CYCLES,
            padlock_mem::DEFAULT_ROW_CONFLICT_CYCLES,
            padlock_mem::DEFAULT_ROW_CLOSED_CYCLES,
        );
        // The chosen trace is contrasted against the rstride walk —
        // unless it *is* rstride, which then stands alone.
        let traces: Vec<&E2eTrace>;
        let rstride;
        if args.trace == "rstride" {
            traces = vec![&trace];
        } else {
            rstride = E2eTrace::record("rstride", warmup, measure);
            traces = vec![&trace, &rstride];
        }
        // Each (banks, trace, order) machine is simulated exactly once:
        // the grid of the selected order feeds the bank table and one
        // side of the delta table; only the other drain order runs
        // fresh.
        let selected =
            padlock_bench::banked_grid(pool, &traces, bank_axis, channels, args.order, args.page);
        let table = padlock_bench::bank_table_from(&traces, bank_axis, &selected);
        println!("{}", table.render_text());
        rate.lap("bank sweep");

        if let Some((path, mut file)) = jsonl {
            file.write_all(padlock_bench::grid_jsonl(&traces, &selected).as_bytes())
                .unwrap_or_else(|e| cannot_write(path, &e));
            println!("(jsonl written to {})", path.display());
        }

        println!(
            "\n== FR-FCFS row-hit delta — fifo vs row-first drains on the same machines =="
        );
        println!(
            "(same deep banked machine per cell; the reorder groups same-row misses\n\
             back-to-back, so hits rise and CPI falls while every traffic counter\n\
             and the hit+conflict total stay exact — conversions, not new work)\n"
        );
        let other_order = match args.order {
            DrainOrder::Fifo => DrainOrder::RowFirst,
            DrainOrder::RowFirst => DrainOrder::Fifo,
        };
        let other =
            padlock_bench::banked_grid(pool, &traces, bank_axis, channels, other_order, args.page);
        let (fifo, rowf) = match args.order {
            DrainOrder::Fifo => (&selected, &other),
            DrainOrder::RowFirst => (&other, &selected),
        };
        let table = padlock_bench::order_delta_table_from(&traces, bank_axis, fifo, rowf);
        println!("{}", table.render_text());
        rate.lap("row-order delta sweep");
    }
}

fn server(args: &Args, pool: &SweepPool) {
    let mut rate = SweepRate::start();
    let cores = args.cores.clone().unwrap_or_else(|| vec![1, 2, 4]);
    let switches = args.switches.clone().unwrap_or_else(|| vec![0, 20_000]);
    let (warmup, measure) = args.scale.window();
    // Every cell simulates up to max(cores) full windows; the same
    // fraction the end-to-end MLP sweep uses keeps the grid affordable.
    let (warmup, measure) = (warmup / 4, measure / 4);
    println!(
        "== Secure server — {} compartments time-sharing one fabric ==",
        args.trace
    );
    println!(
        "(shared OTP backend with a small 64-entry LRU SNC, 8 MSHRs, 32 in-flight,\n\
         SNC shards paired with channels; each compartment runs {} in its own\n\
         address stripe over a {measure}-op window; cells are mean CPI, the\n\
         slowdown vs the {}-core row, and SNC entries evicted by *other*\n\
         compartments' installs and context-switch flushes)\n",
        if args.trace == "mix" {
            "the suite round-robin".to_string()
        } else {
            format!("recorded {}", args.trace)
        },
        cores[0],
    );
    let table = padlock_bench::server_table(
        pool,
        &args.trace,
        &cores,
        &args.channels,
        &switches,
        warmup,
        measure,
    );
    println!("{}", table.render_text());
    rate.lap("server sweep");
}

fn main() {
    let args = parse_args();
    // Open the JSON-lines output before anything simulates, so a bad
    // path fails fast instead of after the sweep it was meant to record.
    let jsonl = args.jsonl.as_deref().map(|path| {
        let file = File::create(path).unwrap_or_else(|e| cannot_write(path, &e));
        (path, file)
    });
    let pool = args.pool();
    let started = Instant::now();
    if args.server {
        server(&args, &pool);
        eprintln!(
            "(server sweep wall-clock: {:.2}s at {} jobs)",
            started.elapsed().as_secs_f64(),
            pool.jobs()
        );
        return;
    }
    if args.mlp {
        mlp(&args, &pool, jsonl);
        eprintln!(
            "(mlp sweep wall-clock: {:.2}s at {} jobs)",
            started.elapsed().as_secs_f64(),
            pool.jobs()
        );
        return;
    }
    let mut lab = Lab::new(args.scale);
    let mut rate = SweepRate::start();
    if args.calibrate {
        lab.prewarm(&pool, &padlock_bench::ORDER, &[MachineKind::Baseline]);
        calibrate(&mut lab);
        rate.lap("calibration sweep");
        if args.snc {
            lab.prewarm(
                &pool,
                &padlock_bench::ORDER,
                &[MachineKind::LruFull(32), MachineKind::LruFull(64)],
            );
            snc_diag(&mut lab, MachineKind::LruFull(32));
            snc_diag(&mut lab, MachineKind::LruFull(64));
            rate.lap("snc diagnostics sweep");
        }
        eprintln!(
            "(calibration wall-clock: {:.2}s at {} jobs)",
            started.elapsed().as_secs_f64(),
            pool.jobs()
        );
        return;
    }
    let wanted: Vec<u32> = match args.figure {
        Some(n) => vec![n],
        None => FIGURES.to_vec(),
    };
    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| cannot_write(dir, &e));
    }
    // Fan every (benchmark, machine) simulation the wanted figures need
    // across the pool up front; rendering below is pure cache recall,
    // so the output is byte-identical to the serial path.
    let mut machines: Vec<MachineKind> = Vec::new();
    for &n in &wanted {
        for m in padlock_bench::figure_machines(n) {
            if !machines.contains(&m) {
                machines.push(m);
            }
        }
    }
    lab.prewarm(&pool, &padlock_bench::ORDER, &machines);
    rate.lap("figure sweep");
    for n in wanted {
        let fig = match n {
            3 => lab.figure3(),
            5 => lab.figure5(),
            6 => lab.figure6(),
            7 => lab.figure7(),
            8 => lab.figure8(),
            9 => lab.figure9(),
            10 => lab.figure10(),
            other => unreachable!("--figure {other} is checked against FIGURES"),
        };
        println!("== {} — {} [{}] ==", fig.id, fig.title, fig.unit);
        println!("{}", fig.table().render_text());
        if let Some(dir) = &args.csv_dir {
            let path = dir.join(format!("figure{n}.csv"));
            std::fs::write(&path, fig.table().render_csv())
                .unwrap_or_else(|e| cannot_write(&path, &e));
            println!("(csv written to {})", path.display());
        }
    }
    eprintln!(
        "(figure suite wall-clock: {:.2}s at {} jobs)",
        started.elapsed().as_secs_f64(),
        pool.jobs()
    );
}
