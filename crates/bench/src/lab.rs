//! Machine configurations and the memoised simulation driver.

use padlock_core::{
    Machine, MachineConfig, Measurement, SecurityMode, SncConfig, SncOrganization,
};
use padlock_exec::SweepPool;
use padlock_workloads::{benchmark_profile, SpecProfile, SpecWorkload};
use std::collections::HashMap;
use std::fmt;

/// The distinct machines the paper's figures compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// Insecure baseline, 256KB L2.
    Baseline,
    /// XOM, 50-cycle crypto.
    Xom,
    /// XOM with the 384KB 6-way L2 (Fig. 8).
    Xom384,
    /// XOM, 102-cycle crypto (Fig. 10).
    XomSlow,
    /// OTP, no-replacement 64KB fully associative SNC.
    Norepl64,
    /// OTP, no-replacement SNC, 102-cycle crypto (Fig. 10).
    Norepl64Slow,
    /// OTP, LRU fully associative SNC of the given capacity in KB
    /// (Figs. 5–6: 32, 64, 128).
    LruFull(u32),
    /// OTP, LRU 64KB 32-way SNC (Figs. 7–8).
    Lru64Way32,
    /// OTP, LRU 64KB fully associative, 102-cycle crypto (Fig. 10).
    Lru64Slow,
}

impl MachineKind {
    /// Builds the machine configuration for this kind.
    pub fn config(self) -> MachineConfig {
        let lru = |kb: u32| SecurityMode::Otp {
            snc: SncConfig::paper_default().with_capacity(kb as usize * 1024),
        };
        match self {
            MachineKind::Baseline => MachineConfig::paper(SecurityMode::Insecure),
            MachineKind::Xom => MachineConfig::paper(SecurityMode::Xom),
            MachineKind::Xom384 => MachineConfig::paper_xom_big_l2(),
            MachineKind::XomSlow => {
                let mut c = MachineConfig::paper(SecurityMode::Xom);
                c.security = c.security.with_slow_crypto();
                c
            }
            MachineKind::Norepl64 => MachineConfig::paper(SecurityMode::otp_norepl_64k()),
            MachineKind::Norepl64Slow => {
                let mut c = MachineConfig::paper(SecurityMode::otp_norepl_64k());
                c.security = c.security.with_slow_crypto();
                c
            }
            MachineKind::LruFull(kb) => MachineConfig::paper(lru(kb)),
            MachineKind::Lru64Way32 => {
                let snc = SncConfig::paper_default()
                    .with_organization(SncOrganization::SetAssociative(32));
                MachineConfig::paper(SecurityMode::Otp { snc })
            }
            MachineKind::Lru64Slow => {
                let mut c = MachineConfig::paper(lru(64));
                c.security = c.security.with_slow_crypto();
                c
            }
        }
    }

    /// A stable key for memoisation and CSV column names.
    pub fn key(self) -> String {
        match self {
            MachineKind::Baseline => "base".into(),
            MachineKind::Xom => "xom".into(),
            MachineKind::Xom384 => "xom384".into(),
            MachineKind::XomSlow => "xom102".into(),
            MachineKind::Norepl64 => "norepl64".into(),
            MachineKind::Norepl64Slow => "norepl64s".into(),
            MachineKind::LruFull(kb) => format!("lru{kb}"),
            MachineKind::Lru64Way32 => "lru64w32".into(),
            MachineKind::Lru64Slow => "lru64s".into(),
        }
    }
}

impl fmt::Display for MachineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

/// One figure point before it runs: a machine built from `config` and
/// pre-aged with `profile`'s feeds, plus the workload that drives it.
/// [`Lab`] and the figure benches build every point through this.
pub fn figure_point(profile: SpecProfile, config: MachineConfig) -> (Machine, SpecWorkload) {
    let workload = SpecWorkload::new(profile);
    let mut machine = Machine::new(config);
    // Model the paper's 10-billion-instruction fast-forward: an
    // ancient heap written long ago, plus (for rewrite-style
    // benchmarks) the live region the program updates in place.
    machine
        .core_mut()
        .hierarchy_mut()
        .backend_mut()
        .pre_age(workload.ancient_line_addrs(), workload.active_line_addrs());
    (machine, workload)
}

/// How large a window each simulation runs (all figures share it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Tiny windows for unit tests and Criterion benches.
    Smoke,
    /// Small windows for quick iteration (`repro --quick`).
    Quick,
    /// The default reproduction scale.
    Full,
}

impl RunScale {
    /// `(warmup_ops, measure_ops)` per simulation: fixed per scale, so
    /// a figure's windows are set by the scale alone.
    pub fn window(self) -> (u64, u64) {
        match self {
            RunScale::Smoke => (80_000, 200_000),
            RunScale::Quick => (500_000, 1_500_000),
            RunScale::Full => (2_000_000, 6_000_000),
        }
    }
}

/// The memoising simulation driver shared by all figures.
#[derive(Debug)]
pub struct Lab {
    scale: RunScale,
    cache: HashMap<(String, String), Measurement>,
}

impl Lab {
    /// Creates a lab at the given run scale.
    pub fn new(scale: RunScale) -> Self {
        Self {
            scale,
            cache: HashMap::new(),
        }
    }

    /// The lab's run scale.
    pub fn scale(&self) -> RunScale {
        self.scale
    }

    /// Runs (or recalls) `benchmark` on `machine`.
    pub fn measure(&mut self, benchmark: &str, machine: MachineKind) -> Measurement {
        let key = (benchmark.to_string(), machine.key());
        if let Some(m) = self.cache.get(&key) {
            return m.clone();
        }
        let result = Self::simulate(self.scale, benchmark, machine);
        self.cache.insert(key, result.clone());
        result
    }

    /// One uncached simulation — a pure function of (scale, benchmark,
    /// machine), which is what lets [`Lab::prewarm`] fan these across
    /// threads.
    fn simulate(scale: RunScale, benchmark: &str, machine: MachineKind) -> Measurement {
        let (warmup, measure) = scale.window();
        let (mut m, mut workload) = figure_point(benchmark_profile(benchmark), machine.config());
        let measurement = m.run(&mut workload, warmup, measure);
        crate::meter::record_simulated_cycles(measurement.stats.cycles);
        measurement
    }

    /// Fills the memoisation cache for every `benchmark × machine`
    /// pair by fanning the uncached simulations across `pool`. Figure
    /// rendering afterwards is pure cache recall, so prewarming
    /// parallelises the figure suite without touching its output:
    /// every cell is the same pure function of (scale, benchmark,
    /// machine) whichever thread ran it.
    pub fn prewarm(&mut self, pool: &SweepPool, benchmarks: &[&str], machines: &[MachineKind]) {
        let mut todo: Vec<(String, MachineKind)> = Vec::new();
        let mut queued: std::collections::HashSet<(String, String)> = std::collections::HashSet::new();
        for &b in benchmarks {
            for &machine in machines {
                let key = (b.to_string(), machine.key());
                if !self.cache.contains_key(&key) && queued.insert(key) {
                    todo.push((b.to_string(), machine));
                }
            }
        }
        let scale = self.scale;
        let results = pool.sweep(&todo, |(b, machine)| Self::simulate(scale, b, *machine));
        for ((benchmark, machine), m) in todo.into_iter().zip(results) {
            self.cache.insert((benchmark, machine.key()), m);
        }
    }

    /// Slowdown [%] of `machine` relative to the 256KB baseline.
    pub fn slowdown(&mut self, benchmark: &str, machine: MachineKind) -> f64 {
        (self.normalized_time(benchmark, machine) - 1.0) * 100.0
    }

    /// Normalised execution time of `machine` relative to the 256KB
    /// baseline (Fig. 8's metric).
    pub fn normalized_time(&mut self, benchmark: &str, machine: MachineKind) -> f64 {
        let base = self.measure(benchmark, MachineKind::Baseline).stats.cycles;
        let secure = self.measure(benchmark, machine).stats.cycles;
        secure as f64 / base as f64
    }

    /// Number of memoised simulations (for tests).
    pub fn cached_runs(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_keys_are_unique() {
        let kinds = [
            MachineKind::Baseline,
            MachineKind::Xom,
            MachineKind::Xom384,
            MachineKind::XomSlow,
            MachineKind::Norepl64,
            MachineKind::Norepl64Slow,
            MachineKind::LruFull(32),
            MachineKind::LruFull(64),
            MachineKind::LruFull(128),
            MachineKind::Lru64Way32,
            MachineKind::Lru64Slow,
        ];
        let keys: std::collections::HashSet<String> = kinds.iter().map(|k| k.key()).collect();
        assert_eq!(keys.len(), kinds.len());
    }

    #[test]
    fn configs_differ_where_they_should() {
        let xom = MachineKind::Xom.config();
        let slow = MachineKind::XomSlow.config();
        assert_eq!(xom.security.crypto.pipeline_latency(), 50);
        assert_eq!(slow.security.crypto.pipeline_latency(), 102);
        let big = MachineKind::Xom384.config();
        assert_eq!(big.hierarchy.l2.size_bytes(), 384 * 1024);
        assert_eq!(big.hierarchy.l2.ways(), 6);
    }

    #[test]
    fn measurements_are_memoised() {
        let mut lab = Lab::new(RunScale::Smoke);
        let a = lab.measure("gzip", MachineKind::Baseline);
        let b = lab.measure("gzip", MachineKind::Baseline);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(lab.cached_runs(), 1);
    }

    #[test]
    fn prewarm_matches_serial_measurements_and_fills_the_cache() {
        let mut serial = Lab::new(RunScale::Smoke);
        let a = serial.measure("gzip", MachineKind::Xom);
        let mut pre = Lab::new(RunScale::Smoke);
        pre.prewarm(
            &SweepPool::new(4),
            &["gzip"],
            &[MachineKind::Baseline, MachineKind::Xom, MachineKind::Xom],
        );
        assert_eq!(pre.cached_runs(), 2, "duplicate machine must be queued once");
        let b = pre.measure("gzip", MachineKind::Xom);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.instructions, b.stats.instructions);
        assert_eq!(pre.cached_runs(), 2, "measure after prewarm must be pure recall");
    }

    #[test]
    fn slowdown_is_zero_against_itself() {
        let mut lab = Lab::new(RunScale::Smoke);
        assert_eq!(lab.slowdown("gzip", MachineKind::Baseline), 0.0);
    }
}
