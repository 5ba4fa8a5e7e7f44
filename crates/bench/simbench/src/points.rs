//! The benchmark's workloads, their seeded inputs, and one point's run.
//!
//! A *point* is one machine simulated on one op stream: construct it,
//! pre-age it, warm it up, then measure. Every input is derived from the
//! run seed, so the same seed gives the same points bit for bit.

use crate::probe::{ns_since, replay, TimedWorkload, TracedBackend};
use padlock_bench::{e2e_machine_config, server_machine_config, E2eParams, MachineKind};
use padlock_core::server::compartment_base;
use padlock_core::{
    Machine, MachineConfig, Measurement, SecureBackend, SecureServer, ServerConfig,
    ServerMeasurement,
};
use padlock_cpu::{Core, Hierarchy, MemoryBackend, OffsetWorkload, Workload};
use padlock_stats::CounterSet;
use padlock_workloads::{
    benchmark_profile, SpecProfile, SpecWorkload, TracePlayer, TraceRecorder, BENCHMARK_NAMES,
    CHASE_BASE,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The Fig. 5 machines, all on the paper-default core (4-wide, 1 MSHR,
/// 1 channel).
pub const FIG5_MACHINES: [MachineKind; 4] = [
    MachineKind::Baseline,
    MachineKind::Xom,
    MachineKind::Norepl64,
    MachineKind::LruFull(64),
];

/// `(warm-up, measured)` ops per `paper-figures` point: `repro --smoke`'s
/// window.
pub const FIGURE_WINDOW: (u64, u64) = (80_000, 200_000);
/// `(warm-up, measured)` ops per `mlp-traces` point: the `simrate`
/// criterion group's window.
pub const TRACE_WINDOW: (u64, u64) = (20_000, 120_000);
/// `(warm-up, measured)` ops per compartment of a `server-contention`
/// point.
pub const SERVER_WINDOW: (u64, u64) = (10_000, 50_000);
/// Compartments sharing the `server-contention` fabric.
pub const SERVER_CORES: usize = 4;
/// The `server-contention` context-switch quantum in cycles.
pub const SERVER_QUANTUM: u64 = 20_000;
/// The recorded traces of `mlp-traces`.
pub const TRACE_BENCHMARKS: [&str; 2] = ["bfs", "rstride"];

/// A benchmark workload: a fixed list of points run back to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// The Fig. 5 machines × the 11 calibrated profiles.
    PaperFigures,
    /// The `simrate` machine on recorded miss-heavy traces.
    MlpTraces,
    /// Four compartments time-sharing one secure fabric.
    ServerContention,
}

impl WorkloadName {
    /// Every workload, in report order.
    pub const ALL: [Self; 3] = [Self::PaperFigures, Self::MlpTraces, Self::ServerContention];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::PaperFigures => "paper-figures",
            Self::MlpTraces => "mlp-traces",
            Self::ServerContention => "server-contention",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The points of one pass, seeded from `seed`.
    pub fn points(self, seed: u64) -> Vec<PointSpec> {
        match self {
            Self::PaperFigures => BENCHMARK_NAMES
                .iter()
                .flat_map(|&bench| {
                    FIG5_MACHINES.map(|machine| PointSpec {
                        kind: PointKind::Figure { bench, machine },
                        seed,
                        window: FIGURE_WINDOW,
                    })
                })
                .collect(),
            Self::MlpTraces => TRACE_BENCHMARKS
                .iter()
                .map(|&bench| PointSpec {
                    kind: PointKind::Trace { bench },
                    seed,
                    window: TRACE_WINDOW,
                })
                .collect(),
            Self::ServerContention => vec![PointSpec {
                kind: PointKind::Server,
                seed,
                window: SERVER_WINDOW,
            }],
        }
    }
}

/// What one point simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKind {
    /// A calibrated profile's generator on one Fig. 5 machine.
    Figure {
        /// Profile name.
        bench: &'static str,
        /// Machine.
        machine: MachineKind,
    },
    /// A trace recorded from a stress profile, on the `simrate` machine.
    Trace {
        /// Profile name.
        bench: &'static str,
    },
    /// The contended secure server.
    Server,
}

/// One point of a pass.
#[derive(Debug, Clone, Copy)]
pub struct PointSpec {
    /// What it simulates.
    pub kind: PointKind,
    /// The run seed its inputs derive from.
    pub seed: u64,
    /// `(warm-up, measured)` ops (per compartment on the server).
    pub window: (u64, u64),
}

impl PointSpec {
    /// A stable label, e.g. `mcf/xom`.
    pub fn label(&self) -> String {
        match self.kind {
            PointKind::Figure { bench, machine } => format!("{bench}/{}", machine.key()),
            PointKind::Trace { bench } => format!("{bench}/simrate"),
            PointKind::Server => "mix4/server".to_string(),
        }
    }
}

/// SplitMix64's output function: a bijective 64-bit mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE5_E4B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `name`'s calibrated profile with its generator seed derived from the
/// run seed (and the profile's own seed, so profiles stay distinct).
pub fn seeded_profile(name: &str, run_seed: u64) -> SpecProfile {
    let mut profile = benchmark_profile(name);
    profile.seed = splitmix64(run_seed ^ splitmix64(profile.seed));
    profile
}

/// The `simrate` machine: the acceptance fabric (8 MSHRs, 4 channels,
/// 2 banks per channel, 32 in flight, 64-entry LRU SNC, parked drains)
/// with a 2048-entry ROB.
pub fn simrate_config() -> MachineConfig {
    let mut cfg = e2e_machine_config(E2eParams::new(8, 4, 2, 32));
    cfg.pipeline.rob_size = 2048;
    cfg
}

/// The `server-contention` server: four compartments over one channel
/// of `server_machine_config`, switching every 20 000 cycles.
pub fn server_config() -> ServerConfig {
    ServerConfig::from_machine(server_machine_config(1), SERVER_CORES)
        .with_switch_interval(SERVER_QUANTUM)
}

/// The two pre-age feeds `SecureBackend::pre_age` takes.
#[derive(Debug, Clone, Default)]
pub struct Feeds {
    /// Lines written long ago.
    pub ancient: Vec<u64>,
    /// Lines the program still rewrites in place.
    pub active: Vec<u64>,
}

impl Feeds {
    /// The profile's feeds offset by `base`; with `chase`, the
    /// pointer-chase region counts as written long ago, as
    /// `E2eTrace::record` ages it.
    pub fn of(profile: &SpecProfile, chase: bool, base: u64) -> Self {
        let generator = SpecWorkload::new(profile.clone());
        let chase_lines = if chase { profile.chase_bytes / 128 } else { 0 };
        let ancient = (0..chase_lines)
            .map(|i| CHASE_BASE + i * 128)
            .chain(generator.ancient_line_addrs())
            .map(|a| a + base)
            .collect();
        let active = generator.active_line_addrs().map(|a| a + base).collect();
        Self { ancient, active }
    }

    /// Lines pre-aged.
    pub fn lines(&self) -> u64 {
        (self.ancient.len() + self.active.len()) as u64
    }

    fn age(&self, backend: &mut SecureBackend) {
        backend.pre_age(self.ancient.iter().copied(), self.active.iter().copied());
    }
}

/// A phase's `(start, end)` in nanoseconds since the run's epoch.
pub type Interval = (u64, u64);

/// When each phase of a point ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// The whole point.
    pub point: Interval,
    /// Trace recording (`mlp-traces` only).
    pub record: Option<Interval>,
    /// Machine (or server) and generator construction.
    pub construct: Interval,
    /// Feed building and `pre_age`.
    pub pre_age: Interval,
    /// Warm-up plus measured window.
    pub simulate: Interval,
    /// Backend-alone replay, with the fresh backend's construction and
    /// `pre_age` (traced `mlp-traces` points only).
    pub replay: Option<Interval>,
}

/// Host time and counts accumulated at the layer boundaries of a traced
/// point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Boundary {
    /// `next_op` calls.
    pub workload_calls: u64,
    /// Host ns inside the generator or trace player.
    pub workload_ns: u64,
    /// Host ns inside `SecureBackend` (0 on the server, whose backend is
    /// not reachable from outside).
    pub backend_ns: u64,
    /// Backend read-surface calls.
    pub read_calls: u64,
    /// Reads those calls carried.
    pub reads: u64,
    /// Backend writeback calls.
    pub writeback_calls: u64,
    /// Host ns the backend-alone replay of the recorded call stream took.
    pub replay_ns: u64,
}

/// Everything one point's run produced.
#[derive(Debug, Clone, Default)]
pub struct PointRun {
    /// When each phase ran.
    pub phases: Phases,
    /// Lines pre-aged.
    pub pre_age_lines: u64,
    /// Committed ops, warm-up plus measured, over every compartment.
    pub ops: u64,
    /// Simulated cycles of the measured window, summed over compartments.
    pub cycles: u64,
    /// Simulated CPI of the measured window (mean over compartments).
    pub cpi: f64,
    /// Whether the point ran on `SecureServer`.
    pub server: bool,
    /// Max over min compartment CPI (server only).
    pub cpi_spread: Option<f64>,
    /// Deterministic per-layer counters of the measured window.
    pub counts: BTreeMap<&'static str, u64>,
    /// Every simulated quantity the run reported, rendered; equal
    /// fingerprints mean bit-identical measurements.
    pub fingerprint: String,
    /// Boundary accumulators, when traced.
    pub boundary: Option<Boundary>,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

impl PointRun {
    /// Host ns of `phases.simulate`.
    pub fn sim_ns(&self) -> u64 {
        self.phases.simulate.1 - self.phases.simulate.0
    }

    /// Host ns of set-up: recording, construction and pre-aging.
    pub fn setup_ns(&self) -> u64 {
        let start = self.phases.record.map_or(self.phases.construct.0, |r| r.0);
        self.phases.pre_age.1 - start
    }
}

/// How a point is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Machine` and `SecureServer` as users run them.
    Plain,
    /// Behind the timing wrappers.
    Traced,
}

/// A clock reading in ns since `epoch`.
struct Clock(Instant);

impl Clock {
    fn now(&self) -> u64 {
        ns_since(self.0)
    }
}

/// Runs one point and checks its outputs.
pub fn run_point(spec: &PointSpec, mode: Mode, epoch: Instant) -> PointRun {
    let clock = Clock(epoch);
    let start = clock.now();
    let mut run = match spec.kind {
        PointKind::Figure { bench, machine } => {
            let construct_start = clock.now();
            let profile = seeded_profile(bench, spec.seed);
            let generator = SpecWorkload::new(profile.clone());
            let setup = MachineSetup {
                config: machine.config(),
                profile,
                chase: false,
                window: spec.window,
                replay: false,
            };
            run_machine(&setup, generator, None, construct_start, mode, &clock)
        }
        PointKind::Trace { bench } => {
            let record_start = clock.now();
            let profile = seeded_profile(bench, spec.seed);
            let (warmup, measure) = spec.window;
            let mut recorder = TraceRecorder::new(SpecWorkload::new(profile.clone()));
            for _ in 0..(warmup + measure).min(1_000_000) {
                recorder.next_op();
            }
            let player = TracePlayer::new(bench, recorder.into_trace());
            let record = (record_start, clock.now());
            let setup = MachineSetup {
                config: simrate_config(),
                profile,
                chase: true,
                window: spec.window,
                replay: true,
            };
            run_machine(&setup, player, Some(record), record.1, mode, &clock)
        }
        PointKind::Server => run_server(spec, mode, &clock),
    };
    run.phases.point = (start, clock.now());
    run
}

/// A single-machine point's configuration.
struct MachineSetup {
    config: MachineConfig,
    profile: SpecProfile,
    chase: bool,
    window: (u64, u64),
    /// Replay the backend call stream when traced.
    replay: bool,
}

fn run_machine<W: Workload>(
    setup: &MachineSetup,
    workload: W,
    record: Option<Interval>,
    construct_start: u64,
    mode: Mode,
    clock: &Clock,
) -> PointRun {
    let (warmup, measure) = setup.window;
    let mut run = PointRun::default();
    run.phases.record = record;
    let measurement = match mode {
        Mode::Plain => {
            let mut workload = workload;
            let mut machine = Machine::new(setup.config.clone());
            run.phases.construct = (construct_start, clock.now());
            let feeds = Feeds::of(&setup.profile, setup.chase, 0);
            feeds.age(machine.core_mut().hierarchy_mut().backend_mut());
            run.pre_age_lines = feeds.lines();
            let sim_start = clock.now();
            run.phases.pre_age = (run.phases.construct.1, sim_start);
            let m = machine.run(&mut workload, warmup, measure);
            run.phases.simulate = (sim_start, clock.now());
            m
        }
        Mode::Traced => {
            let mut workload = TimedWorkload::new(workload);
            let config = &setup.config;
            let backend =
                TracedBackend::new(SecureBackend::new(config.security.clone()), setup.replay);
            let hierarchy = Hierarchy::new(config.hierarchy.clone(), backend);
            let mut core = Core::with_hierarchy(config.pipeline.clone(), hierarchy);
            run.phases.construct = (construct_start, clock.now());
            let feeds = Feeds::of(&setup.profile, setup.chase, 0);
            feeds.age(&mut core.hierarchy_mut().backend_mut().inner);
            run.pre_age_lines = feeds.lines();
            let sim_start = clock.now();
            run.phases.pre_age = (run.phases.construct.1, sim_start);
            let m = machine_protocol(&mut core, &mut workload, warmup, measure, config.label());
            run.phases.simulate = (sim_start, clock.now());
            let backend = core.hierarchy_mut().backend_mut();
            let mut boundary = Boundary {
                workload_calls: workload.calls,
                workload_ns: workload.ns,
                backend_ns: backend.ns,
                read_calls: backend.read_calls,
                reads: backend.reads,
                writeback_calls: backend.writeback_calls,
                replay_ns: 0,
            };
            if let Some(calls) = backend.calls.take() {
                let replay_start = clock.now();
                let mut fresh = SecureBackend::new(config.security.clone());
                feeds.age(&mut fresh);
                match replay(&mut fresh, &calls) {
                    Ok(ns) => {
                        boundary.replay_ns = ns;
                        if let Some(diff) = backend_diff(&backend.inner, &fresh) {
                            run.problems.push(format!("backend replay: {diff}"));
                        }
                    }
                    Err(e) => run.problems.push(format!("backend replay: {e}")),
                }
                run.phases.replay = Some((replay_start, clock.now()));
            }
            run.boundary = Some(boundary);
            m
        }
    };
    run.ops = warmup + measure;
    run.cycles = measurement.stats.cycles;
    run.cpi = measurement.stats.cpi();
    check_window(&mut run.problems, "", &measurement.stats, measure);
    run.counts = machine_counts(&measurement);
    run.fingerprint = format!("{measurement:?}");
    run
}

/// `Machine::run`'s protocol on a core with any backend: warm up, reset
/// statistics, measure, then drain deferred backend work so traffic
/// counters are exact.
fn machine_protocol<W: Workload>(
    core: &mut Core<TracedBackend>,
    workload: &mut W,
    warmup: u64,
    measure: u64,
    label: String,
) -> Measurement {
    if warmup > 0 {
        core.run(workload, warmup);
    }
    core.reset_stats();
    let stats = core.run(workload, measure);
    let now = core.now();
    core.hierarchy_mut().backend_mut().drain(now);
    let h = core.hierarchy();
    Measurement {
        stats,
        l2: h.l2_stats(),
        traffic: h.backend().traffic(),
        controller: h.backend().inner.controller_stats(),
        mshr: h.mshr_stats().clone(),
        snc: snc_stats(&h.backend().inner),
        label,
    }
}

fn snc_stats(backend: &SecureBackend) -> CounterSet {
    backend
        .snc()
        .map(|s| s.stats())
        .unwrap_or_else(|| CounterSet::new("snc"))
}

/// Where a replayed backend's counters differ from the in-run one's.
fn backend_diff(in_run: &SecureBackend, replayed: &SecureBackend) -> Option<String> {
    if in_run.traffic() != replayed.traffic() {
        return Some(format!(
            "traffic {} vs {}",
            in_run.traffic(),
            replayed.traffic()
        ));
    }
    if in_run.controller_stats() != replayed.controller_stats() {
        return Some(format!(
            "controller {} vs {}",
            in_run.controller_stats(),
            replayed.controller_stats()
        ));
    }
    if snc_stats(in_run) != snc_stats(replayed) {
        return Some(format!(
            "snc {} vs {}",
            snc_stats(in_run),
            snc_stats(replayed)
        ));
    }
    None
}

fn check_window(
    problems: &mut Vec<String>,
    who: &str,
    stats: &padlock_cpu::RunStats,
    measure: u64,
) {
    if stats.instructions != measure {
        problems.push(format!(
            "{who}committed {} ops, asked for {measure}",
            stats.instructions
        ));
    }
    if stats.forced_steps != 0 {
        problems.push(format!("{who}forced_steps = {}", stats.forced_steps));
    }
}

/// Adds the shared-fabric counters (controller, SNC, channels) to `out`.
fn add_fabric_counts(
    out: &mut BTreeMap<&'static str, u64>,
    controller: &CounterSet,
    snc: &CounterSet,
    traffic: &CounterSet,
) {
    for (name, key) in [
        ("ctrl.otp_fast_reads", "otp_fast_reads"),
        ("ctrl.snc_fetch_reads", "snc_fetch_reads"),
        ("ctrl.xom_reads", "xom_reads"),
        ("ctrl.clean_bypass_reads", "clean_bypass_reads"),
        ("ctrl.wb_forwarded_reads", "wb_forwarded_reads"),
        ("ctrl.first_writebacks", "first_writebacks"),
        ("ctrl.context_flush_entries", "context_flush_entries"),
    ] {
        *out.entry(name).or_default() += controller.get(key);
    }
    for (name, key) in [
        ("snc.query_hits", "query_hits"),
        ("snc.query_misses", "query_misses"),
        ("snc.installs", "installs"),
        ("snc.spills", "spills"),
        ("snc.overflows", "overflows"),
    ] {
        *out.entry(name).or_default() += snc.get(key);
    }
    for (name, key) in [
        ("mem.line_reads", "line_reads"),
        ("mem.line_writes", "line_writes"),
        ("mem.seq_reads", "seq_reads"),
        ("mem.seq_writes", "seq_writes"),
        ("mem.row_hits", "row_hits"),
        ("mem.row_conflicts", "row_conflicts"),
    ] {
        *out.entry(name).or_default() += traffic.get(key);
    }
}

/// Adds one core's pipeline, L2 and MSHR counters to `out`.
fn add_core_counts(
    out: &mut BTreeMap<&'static str, u64>,
    stats: &padlock_cpu::RunStats,
    l2: &CounterSet,
    mshr: &CounterSet,
) {
    for (name, value) in [
        ("cpu.l2_accesses", l2.get("hits") + l2.get("misses")),
        ("cpu.l2_misses", l2.get("misses")),
        ("cpu.l2_writebacks", l2.get("writebacks")),
        ("cpu.mshr.allocations", mshr.get("allocations")),
        ("cpu.mshr.merges", mshr.get("merges")),
        ("cpu.mshr.full_drains", mshr.get("full_drains")),
        ("cpu.mshr.forced_drains", mshr.get("forced_drains")),
        ("cpu.forced_steps", stats.forced_steps),
        ("cpu.mispredicts", stats.mispredicts),
    ] {
        *out.entry(name).or_default() += value;
    }
}

fn machine_counts(m: &Measurement) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    add_core_counts(&mut out, &m.stats, &m.l2, &m.mshr);
    add_fabric_counts(&mut out, &m.controller, &m.snc, &m.traffic);
    out
}

fn server_counts(m: &ServerMeasurement) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for c in &m.compartments {
        add_core_counts(&mut out, &c.stats, &c.l2, &c.mshr);
        *out.entry("server.cross_evictions").or_default() += c.snc_evictions_by_others;
    }
    add_fabric_counts(&mut out, &m.controller, &m.snc, &m.traffic);
    out.insert("server.context_switches", m.context_switches);
    out
}

fn run_server(spec: &PointSpec, mode: Mode, clock: &Clock) -> PointRun {
    let (warmup, measure) = spec.window;
    let mut run = PointRun {
        server: true,
        ..PointRun::default()
    };
    let construct_start = clock.now();
    let mut server = SecureServer::new(server_config());
    // Round-robin over the figure-order suite, as
    // `compartment_assignment` assigns compartments.
    let profiles: Vec<SpecProfile> = (0..SERVER_CORES)
        .map(|c| seeded_profile(BENCHMARK_NAMES[c % BENCHMARK_NAMES.len()], spec.seed))
        .collect();
    let loads: Vec<_> = profiles
        .iter()
        .enumerate()
        .map(|(c, p)| OffsetWorkload::new(SpecWorkload::new(p.clone()), compartment_base(c)))
        .collect();
    let pre_age_start = clock.now();
    run.phases.construct = (construct_start, pre_age_start);
    for (c, profile) in profiles.iter().enumerate() {
        let feeds = Feeds::of(profile, false, compartment_base(c));
        server.pre_age(feeds.ancient.iter().copied(), feeds.active.iter().copied());
        run.pre_age_lines += feeds.lines();
    }
    let sim_start = clock.now();
    run.phases.pre_age = (pre_age_start, sim_start);
    let m = match mode {
        Mode::Plain => {
            let mut loads = loads;
            let m = server.run(&mut loads, warmup, measure);
            run.phases.simulate = (sim_start, clock.now());
            m
        }
        Mode::Traced => {
            let mut loads: Vec<_> = loads.into_iter().map(TimedWorkload::new).collect();
            let m = server.run(&mut loads, warmup, measure);
            run.phases.simulate = (sim_start, clock.now());
            run.boundary = Some(Boundary {
                workload_calls: loads.iter().map(|l| l.calls).sum(),
                workload_ns: loads.iter().map(|l| l.ns).sum(),
                ..Boundary::default()
            });
            m
        }
    };
    let cores = m.compartments.len() as u64;
    run.ops = (warmup + measure) * cores;
    run.cycles = m.compartments.iter().map(|c| c.stats.cycles).sum();
    let cpis: Vec<f64> = m.compartments.iter().map(|c| c.cpi()).collect();
    run.cpi = cpis.iter().sum::<f64>() / cpis.len().max(1) as f64;
    let (lo, hi) = cpis
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    run.cpi_spread = Some(hi / lo);
    for (c, report) in m.compartments.iter().enumerate() {
        check_window(
            &mut run.problems,
            &format!("compartment {c}: "),
            &report.stats,
            measure,
        );
    }
    let split = m
        .compartments
        .iter()
        .map(|c| c.traffic)
        .reduce(|a, b| a.plus(b));
    if split != Some(m.totals) {
        run.problems
            .push("per-compartment traffic does not sum to the fabric totals".to_string());
    }
    run.counts = server_counts(&m);
    run.fingerprint = format!("{m:?}");
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::self_times;

    /// Each workload's points on a short window (a few per workload, so
    /// the test stays quick in debug builds).
    fn short_points() -> Vec<PointSpec> {
        let mut points = Vec::new();
        for workload in WorkloadName::ALL {
            let all = workload.points(7);
            let step = (all.len() / 6).max(1);
            points.extend(all.into_iter().step_by(step).map(|mut p| {
                p.window = (1_000, 4_000);
                p
            }));
        }
        points
    }

    #[test]
    fn wrapped_and_unwrapped_machines_measure_bit_identically() {
        let epoch = Instant::now();
        for spec in short_points() {
            let plain = run_point(&spec, Mode::Plain, epoch);
            let traced = run_point(&spec, Mode::Traced, epoch);
            assert!(
                plain.problems.is_empty(),
                "{}: {:?}",
                spec.label(),
                plain.problems
            );
            assert!(
                traced.problems.is_empty(),
                "{}: {:?}",
                spec.label(),
                traced.problems
            );
            assert_eq!(plain.fingerprint, traced.fingerprint, "{}", spec.label());
            assert_eq!(plain.counts, traced.counts, "{}", spec.label());
        }
    }

    #[test]
    fn layer_self_times_sum_to_the_point_span() {
        let epoch = Instant::now();
        for spec in short_points() {
            let run = run_point(&spec, Mode::Traced, epoch);
            let parts = self_times(&run);
            for (layer, ns) in &parts {
                assert!(*ns >= 0, "{}: {layer} self time {ns}", spec.label());
            }
            let total: i64 = parts.iter().map(|(_, ns)| ns).sum();
            let (start, end) = run.phases.point;
            assert_eq!(total, end as i64 - start as i64, "{}", spec.label());
            let boundary = run.boundary.expect("traced runs carry boundary sums");
            assert!(boundary.workload_calls >= spec.window.0 + spec.window.1);
        }
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = seeded_profile("mcf", 1);
        assert_eq!(a.seed, seeded_profile("mcf", 1).seed);
        assert_ne!(a.seed, seeded_profile("mcf", 2).seed);
        assert_ne!(a.seed, seeded_profile("gcc", 1).seed);
        let epoch = Instant::now();
        let spec = |seed| PointSpec {
            kind: PointKind::Figure {
                bench: "mcf",
                machine: MachineKind::Xom,
            },
            seed,
            window: (1_000, 4_000),
        };
        let run = |seed| run_point(&spec(seed), Mode::Plain, epoch).fingerprint;
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
