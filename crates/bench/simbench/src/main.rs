//! `simbench` — the padlock simulator's benchmark, end to end and per
//! layer.
//!
//! ```text
//! simbench --workload <paper-figures|mlp-traces|server-contention>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats passes over the workload's points, one simulation in
//! flight on the calling thread (a closed loop with one client), until
//! `--seconds` have elapsed and at least three passes are done. Every
//! point builds a fresh machine: set-up (trace recording, construction,
//! `pre_age`) is timed apart from simulation (warm-up plus measured
//! window). Host time is what the simulator takes to run; simulated time
//! is what the modelled hardware would take.
//!
//! With `--trace 0` the result line carries the end-to-end metrics,
//! measured with tracing off. With `--trace 1` untraced and traced passes
//! alternate: the traced passes run behind the timing wrappers of
//! [`probe`] and give the per-layer metrics, and the pairs give the
//! tracing overhead. Spans are written to `out/` beside this package.
//!
//! Every point is checked: committed ops equal the window,
//! `forced_steps == 0`, server compartments partition the fabric
//! totals, every pass (traced or not) reproduces the first pass's
//! simulated counters bit for bit, and traced `mlp-traces` points replay
//! their backend call stream into a fresh backend with identical
//! results. A failing or panicking point counts in `failed`.

mod points;
mod probe;
mod report;
mod spans;

use points::{run_point, Mode, PointKind, PointRun, PointSpec, WorkloadName, FIG5_MACHINES};
use report::{
    geomean, median, percentile, percentile_label, result_line, tail_permille, Better, MetricDef,
    END_TO_END, PER_LAYER,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: simbench --workload <paper-figures|mlp-traces|server-contention> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Passes a run makes at least, so set-up is timed several times.
const MIN_PASSES: usize = 3;

#[derive(Debug)]
struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadName::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One point of a pass: its run, or the message it panicked with.
type Outcome = Result<PointRun, String>;

struct Pass {
    mode: Mode,
    points: Vec<Outcome>,
}

impl Pass {
    fn ok(&self) -> impl Iterator<Item = &PointRun> {
        self.points.iter().filter_map(|o| o.as_ref().ok())
    }

    fn sum(&self, f: impl Fn(&PointRun) -> u64) -> u64 {
        self.ok().map(f).sum()
    }
}

fn run_pass(specs: &[PointSpec], mode: Mode, epoch: Instant, first: &mut [Option<String>]) -> Pass {
    let points = specs
        .iter()
        .zip(first)
        .map(|(spec, first)| {
            let mut outcome = catch_unwind(AssertUnwindSafe(|| run_point(spec, mode, epoch)))
                .map_err(|panic| {
                    panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "panicked".to_string())
                });
            if let Ok(run) = &mut outcome {
                check_against_first(run, first);
            }
            outcome
        })
        .collect();
    Pass { mode, points }
}

/// Every run of a point must reproduce the first run's simulated
/// counters bit for bit, and a traced run's boundary time must fit inside
/// its simulation span. Only the first run keeps its counters, so memory
/// does not grow with the number of passes.
fn check_against_first(run: &mut PointRun, first: &mut Option<String>) {
    let fingerprint = std::mem::take(&mut run.fingerprint);
    match first {
        None => *first = Some(fingerprint),
        Some(f) => {
            if *f != fingerprint {
                run.problems
                    .push("simulated counters differ from the first run".to_string());
            }
            run.counts = BTreeMap::new();
        }
    }
    if let Some(b) = run.boundary {
        if b.workload_ns + b.backend_ns > run.sim_ns() {
            run.problems
                .push("boundary time exceeds the simulation span".to_string());
        }
    }
}

fn failed(o: &Outcome) -> bool {
    o.as_ref().map_or(true, |r| !r.problems.is_empty())
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `host`, CPU model and available parallelism, for the capture header.
fn host_line() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("host={host} cpu=\"{cpu}\" nproc={nproc}")
}

/// Mean absolute difference, in percentage points, between the simulated
/// Fig. 5 slowdowns and the paper's published `fig5.*` series. `None`
/// unless every Fig. 5 point of `runs` is present.
fn paper_error_pp(specs: &[PointSpec], runs: &[Option<&PointRun>]) -> Option<f64> {
    let mut cycles: BTreeMap<(&str, String), u64> = BTreeMap::new();
    for (spec, run) in specs.iter().zip(runs) {
        if let (PointKind::Figure { bench, machine }, Some(run)) = (spec.kind, run) {
            cycles.insert((bench, machine.key()), run.cycles);
        }
    }
    let [base, xom, norepl, lru] = FIG5_MACHINES.map(|m| m.key());
    let mut diffs = Vec::new();
    for (i, bench) in padlock_bench::ORDER.iter().enumerate() {
        let base = *cycles.get(&(*bench, base.clone()))? as f64;
        for (machine, series) in [
            (&xom, "fig5.xom"),
            (&norepl, "fig5.norepl"),
            (&lru, "fig5.lru"),
        ] {
            let ours = (*cycles.get(&(*bench, machine.clone()))? as f64 / base - 1.0) * 100.0;
            diffs.push((ours - padlock_bench::paper_series(series)[i]).abs());
        }
    }
    Some(diffs.iter().sum::<f64>() / diffs.len() as f64)
}

/// A per-pass total in ms, median over `passes`.
fn median_ms<'a>(passes: impl Iterator<Item = &'a Pass>, f: impl Fn(&PointRun) -> u64) -> f64 {
    let totals: Vec<f64> = passes.map(|p| p.sum(&f) as f64 / 1e6).collect();
    median(&totals)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self time of the simulation outside the boundaries, in ns.
fn sim_self_ns(run: &PointRun) -> u64 {
    let b = run.boundary.unwrap_or_default();
    run.sim_ns().saturating_sub(b.workload_ns + b.backend_ns)
}

struct Summary {
    end_to_end: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<&'static str, f64>,
    tail: (u64, usize),
}

fn summarize(
    specs: &[PointSpec],
    passes: &[Pass],
    attempted: usize,
    failed: usize,
    rss_mb: f64,
) -> Summary {
    let plain: Vec<&Pass> = passes.iter().filter(|p| p.mode == Mode::Plain).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.mode == Mode::Traced).collect();
    let plain_runs: Vec<&PointRun> = plain.iter().flat_map(|p| p.ok()).collect();
    // The deterministic quantities come from the first run of each point.
    let reference: Vec<Option<&PointRun>> = (0..specs.len())
        .map(|i| passes.iter().find_map(|p| p.points[i].as_ref().ok()))
        .collect();
    let refs: Vec<&PointRun> = reference.iter().flatten().copied().collect();

    // The rates and the p50 take each point's fastest run over the passes.
    // The host's cores are shared: while another tenant is busy, a point
    // runs up to 1.5x slower, for seconds to minutes at a time. A median
    // over passes follows how much of the run such spells covered; the
    // fastest run follows the program. The tail keeps every sample.
    let best: Vec<&PointRun> = (0..specs.len())
        .filter_map(|i| {
            plain
                .iter()
                .filter_map(|p| p.points[i].as_ref().ok())
                .min_by_key(|r| r.sim_ns())
        })
        .collect();
    let best_s = best.iter().map(|r| r.sim_ns()).sum::<u64>() as f64 / 1e9;
    let rate = |f: &dyn Fn(&PointRun) -> u64| -> f64 {
        ratio(best.iter().map(|r| f(r)).sum::<u64>() as f64, best_s)
    };
    let point_ms: Vec<f64> = plain_runs.iter().map(|r| r.sim_ns() as f64 / 1e6).collect();
    let tail = tail_permille(point_ms.len());
    let setup_s: Vec<f64> = plain
        .iter()
        .map(|p| p.sum(PointRun::setup_ns) as f64 / 1e9)
        .collect();
    let cpis: Vec<f64> = refs.iter().map(|r| r.cpi).collect();
    let paper_error = paper_error_pp(specs, &reference);

    let mut e = BTreeMap::new();
    e.insert("sim_kops_per_s", rate(&|r| r.ops) / 1e3);
    e.insert("sim_mcycles_per_s", rate(&|r| r.cycles) / 1e6);
    let best_ms: Vec<f64> = best.iter().map(|r| r.sim_ns() as f64 / 1e6).collect();
    e.insert("point_ms.p50", median(&best_ms));
    e.insert("point_ms.tail", percentile(&point_ms, tail));
    e.insert("setup_s", median(&setup_s));
    e.insert("peak_rss_mb", rss_mb);
    e.insert("sim_cpi", geomean(&cpis));
    e.insert("paper_error_pp", paper_error.unwrap_or(0.0));
    e.insert(
        "failed_points_pct",
        ratio(failed as f64 * 100.0, attempted as f64),
    );

    let mut l = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for run in &refs {
        for (k, v) in &run.counts {
            *counts.entry(*k).or_default() += v;
        }
    }
    let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    for def in PER_LAYER {
        if counts.contains_key(def.name) {
            l.insert(def.name, count(def.name));
        }
    }
    let machine = |r: &PointRun| !r.server;
    let server = |r: &PointRun| r.server;
    let traced_ms = |f: &dyn Fn(&PointRun) -> u64| median_ms(traced.iter().copied(), f);
    let phase_ns = |at: Option<points::Interval>| at.map_or(0, |(s, e)| e - s);
    l.insert(
        "setup.trace_record_ms",
        traced_ms(&|r| phase_ns(r.phases.record)),
    );
    l.insert(
        "setup.construct_ms",
        traced_ms(&|r| phase_ns(Some(r.phases.construct))),
    );
    l.insert(
        "setup.pre_age_ms",
        traced_ms(&|r| phase_ns(Some(r.phases.pre_age))),
    );
    l.insert(
        "setup.pre_age_lines",
        refs.iter().map(|r| r.pre_age_lines).sum::<u64>() as f64,
    );
    let boundary = |f: &dyn Fn(&points::Boundary) -> u64| -> u64 {
        traced
            .first()
            .map_or(0, |p| p.sum(|r| r.boundary.as_ref().map_or(0, f)))
    };
    let ops_of = |keep: &dyn Fn(&PointRun) -> bool| -> f64 {
        refs.iter().filter(|r| keep(r)).map(|r| r.ops).sum::<u64>() as f64
    };
    let wl_ms = traced_ms(&|r| r.boundary.map_or(0, |b| b.workload_ns));
    let wl_calls = boundary(&|b| b.workload_calls) as f64;
    l.insert("workloads.ops", wl_calls);
    l.insert("workloads.self_ms", wl_ms);
    l.insert("workloads.ns_per_op", ratio(wl_ms * 1e6, wl_calls));
    let cpu_ms = traced_ms(&|r| if machine(r) { sim_self_ns(r) } else { 0 });
    l.insert("cpu.self_ms", cpu_ms);
    l.insert("cpu.ns_per_op", ratio(cpu_ms * 1e6, ops_of(&machine)));
    let backend_ms = traced_ms(&|r| r.boundary.map_or(0, |b| b.backend_ns));
    let reads = boundary(&|b| b.reads) as f64;
    let read_calls = boundary(&|b| b.read_calls) as f64;
    l.insert("backend.self_ms", backend_ms);
    l.insert("backend.ns_per_read", ratio(backend_ms * 1e6, reads));
    l.insert("backend.read_calls", read_calls);
    l.insert("backend.reads", reads);
    l.insert("backend.reads_per_call", ratio(reads, read_calls));
    l.insert(
        "backend.writeback_calls",
        boundary(&|b| b.writeback_calls) as f64,
    );
    l.insert(
        "backend.replay_ms",
        traced_ms(&|r| r.boundary.map_or(0, |b| b.replay_ns)),
    );
    l.insert(
        "snc.hit_ratio",
        ratio(
            count("snc.query_hits"),
            count("snc.query_hits") + count("snc.query_misses"),
        ),
    );
    l.insert(
        "mem.row_hit_ratio",
        ratio(
            count("mem.row_hits"),
            count("mem.row_hits") + count("mem.row_conflicts"),
        ),
    );
    l.insert(
        "mem.seq_traffic_pct",
        ratio(
            (count("mem.seq_reads") + count("mem.seq_writes")) * 100.0,
            count("mem.line_reads") + count("mem.line_writes"),
        ),
    );
    let server_ms = traced_ms(&|r| if server(r) { sim_self_ns(r) } else { 0 });
    l.insert("server.self_ms", server_ms);
    l.insert("server.ns_per_op", ratio(server_ms * 1e6, ops_of(&server)));
    let spreads: Vec<f64> = refs.iter().filter_map(|r| r.cpi_spread).collect();
    l.insert(
        "server.cpi_spread",
        ratio(spreads.iter().sum(), spreads.len() as f64),
    );
    let overheads: Vec<f64> = passes
        .windows(2)
        .filter(|w| w[0].mode == Mode::Plain && w[1].mode == Mode::Traced)
        .map(|w| {
            let sim = |p: &Pass| p.sum(PointRun::sim_ns) as f64;
            (ratio(sim(&w[1]), sim(&w[0])) - 1.0) * 100.0
        })
        .collect();
    l.insert("trace_overhead_pct", median(&overheads));
    l.insert("paper_error_pp", e["paper_error_pp"]);
    l.insert("failed_points_pct", e["failed_points_pct"]);
    Summary {
        end_to_end: e,
        per_layer: l,
        tail: (tail, point_ms.len()),
    }
}

fn print_table(title: &str, defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) {
    println!("{title}");
    for def in defs {
        let better = match def.better {
            Better::Higher => "higher is better",
            Better::Lower => "lower is better",
        };
        let value = values.get(def.name).unwrap_or(&0.0);
        println!(
            "  {:<28} {value:>16.4} {:<10} ({better})",
            def.name, def.unit
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let specs = args.workload.points(args.seed);
    let epoch = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first = vec![None; specs.len()];
    let mut rss_mb = 0.0;
    loop {
        let mode = if args.trace && !passes.len().is_multiple_of(2) {
            Mode::Traced
        } else {
            Mode::Plain
        };
        passes.push(run_pass(&specs, mode, epoch, &mut first));
        if passes.len() == 1 {
            // One pass runs every point once: its peak is what running
            // the workload costs. Later passes only add allocator
            // fragmentation, which varies from run to run.
            rss_mb = peak_rss_mb();
        }
        let paired = !args.trace || passes.len().is_multiple_of(2);
        if passes.len() >= MIN_PASSES && paired && epoch.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    for (p, pass) in passes.iter().enumerate() {
        for (spec, outcome) in specs.iter().zip(&pass.points) {
            match outcome {
                Err(panic) => eprintln!("simbench: pass {p} {}: panicked: {panic}", spec.label()),
                Ok(run) => {
                    for problem in &run.problems {
                        eprintln!("simbench: pass {p} {}: {problem}", spec.label());
                    }
                }
            }
        }
    }
    let attempted = passes.len() * specs.len();
    let failed = passes
        .iter()
        .flat_map(|p| &p.points)
        .filter(|o| failed(o))
        .count();
    let summary = summarize(&specs, &passes, attempted, failed, rss_mb);

    println!(
        "simbench workload={} seed={} trace={} passes={} points/pass={} {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        passes.len(),
        specs.len(),
        host_line()
    );
    print_table(
        "end to end (host time, tracing off; sim_cpi is simulated):",
        &END_TO_END,
        &summary.end_to_end,
    );
    let (tail, samples) = summary.tail;
    println!(
        "  point_ms.tail is the {} of {samples} point samples",
        percentile_label(tail)
    );
    println!(
        "  the rates and point_ms.p50 take each point's fastest of its {} untraced runs",
        passes.iter().filter(|p| p.mode == Mode::Plain).count()
    );
    println!(
        "  failed_points_pct            {:>16.4} %",
        summary.end_to_end["failed_points_pct"]
    );
    if args.workload == WorkloadName::PaperFigures {
        println!(
            "  paper_error_pp               {:>16.4} pp  (vs fig5.xom/norepl/lru; the profiles \
             were calibrated against these series, so this is a fit, not a held-out error)",
            summary.end_to_end["paper_error_pp"]
        );
    } else {
        println!("  paper_error_pp                            n/a pp  (no published series for this workload)");
    }
    let metrics: Vec<(MetricDef, f64)> = if args.trace {
        print_table("per layer (traced passes):", &PER_LAYER, &summary.per_layer);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        let mut tracer = spans::Tracer::default();
        let mut seq = 0;
        for pass in passes.iter().filter(|p| p.mode == Mode::Traced) {
            for (spec, outcome) in specs.iter().zip(&pass.points) {
                if let Ok(run) = outcome {
                    tracer.record(seq, &spec.label(), run);
                }
                seq += 1;
            }
        }
        match tracer.write(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("simbench: writing {}: {e}", path.display()),
        }
        PER_LAYER
            .iter()
            .map(|d| (*d, summary.per_layer.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|d| (*d, summary.end_to_end[d.name]))
            .collect()
    };
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
