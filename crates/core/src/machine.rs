//! A fully configured machine: core + hierarchy + secure backend,
//! with the warm-up-then-measure protocol the paper uses.

use crate::config::{SecureBackendConfig, SecurityMode};
use crate::controller::SecureBackend;
use padlock_cpu::{Core, Hierarchy, HierarchyConfig, MemoryBackend, PipelineConfig, RunStats, Workload};
use padlock_stats::CounterSet;

/// Configuration of a whole simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Pipeline widths and structures.
    pub pipeline: PipelineConfig,
    /// Cache geometry.
    pub hierarchy: HierarchyConfig,
    /// Security mode and memory parameters.
    pub security: SecureBackendConfig,
}

impl MachineConfig {
    /// The paper's machine in the given security mode.
    pub fn paper(mode: SecurityMode) -> Self {
        Self {
            pipeline: PipelineConfig::paper_default(),
            hierarchy: HierarchyConfig::paper_default(),
            security: SecureBackendConfig::paper(mode),
        }
    }

    /// The Fig. 8 variant: XOM with the equal-area 384KB 6-way L2.
    pub fn paper_xom_big_l2() -> Self {
        Self {
            pipeline: PipelineConfig::paper_default(),
            hierarchy: HierarchyConfig::paper_big_l2(),
            security: SecureBackendConfig::paper(SecurityMode::Xom),
        }
    }

    /// The machine's report label: the backend's security/fabric label
    /// ([`SecureBackendConfig::label`]) plus an ` x{n}mshr` suffix when
    /// the L2 MSHR file holds more than the paper's single entry — so
    /// two machines differing only in MSHR depth never collide in a
    /// report table.
    pub fn label(&self) -> String {
        let mut label = self.security.label();
        if self.hierarchy.l2_mshrs > 1 {
            label.push_str(&format!(" x{}mshr", self.hierarchy.l2_mshrs));
        }
        label
    }
}

/// Everything measured over one window.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Core statistics (cycles, instructions, IPC, branches...).
    pub stats: RunStats,
    /// L2 statistics snapshot.
    pub l2: CounterSet,
    /// Memory traffic snapshot (per [`padlock_mem::TrafficClass`]).
    pub traffic: CounterSet,
    /// Controller event snapshot.
    pub controller: CounterSet,
    /// L2 MSHR file snapshot (`allocations`, `merges`, `full_drains`).
    pub mshr: CounterSet,
    /// SNC event snapshot (empty counters in non-OTP modes).
    pub snc: CounterSet,
    /// Machine label (e.g. `"XOM"`).
    pub label: String,
}

impl Measurement {
    /// The paper's Fig. 9 metric: SNC-induced transactions as a
    /// percentage of demand line transactions.
    pub fn snc_traffic_percent(&self) -> f64 {
        let line = self.traffic.get("line_reads") + self.traffic.get("line_writes");
        let seq = self.traffic.get("seq_reads") + self.traffic.get("seq_writes");
        if line == 0 {
            0.0
        } else {
            seq as f64 / line as f64 * 100.0
        }
    }
}

/// A ready-to-run machine.
///
/// # Examples
///
/// ```
/// use padlock_core::{Machine, MachineConfig, SecurityMode};
/// use padlock_cpu::StrideWorkload;
///
/// let mut m = Machine::new(MachineConfig::paper(SecurityMode::Insecure));
/// let meas = m.run(&mut StrideWorkload::new(1 << 20, 128, 0.2), 1_000, 4_000);
/// assert_eq!(meas.stats.instructions, 4_000);
/// ```
#[derive(Debug)]
pub struct Machine {
    core: Core<SecureBackend>,
    label: String,
}

impl Machine {
    /// Builds the machine.
    pub fn new(config: MachineConfig) -> Self {
        let label = config.label();
        let backend = SecureBackend::new(config.security);
        let hierarchy = Hierarchy::new(config.hierarchy, backend);
        let core = Core::with_hierarchy(config.pipeline, hierarchy);
        Self { core, label }
    }

    /// Direct access to the core (advanced use).
    pub fn core_mut(&mut self) -> &mut Core<SecureBackend> {
        &mut self.core
    }

    /// Warm up for `warmup_ops` committed ops, reset statistics, then
    /// measure a window of `measure_ops`; returns the measurement.
    pub fn run<W: Workload + ?Sized>(
        &mut self,
        workload: &mut W,
        warmup_ops: u64,
        measure_ops: u64,
    ) -> Measurement {
        if warmup_ops > 0 {
            self.core.run(workload, warmup_ops);
        }
        self.core.reset_stats();
        let stats = self.core.run(workload, measure_ops);
        // Measurement wrap-up: flush the residual (< one pack) spill
        // buffer and the buffered writebacks so SeqWrite/LineWrite
        // traffic is not undercounted at window end.
        let now = self.core.now();
        self.core.hierarchy_mut().backend_mut().drain(now);
        let h = self.core.hierarchy();
        Measurement {
            stats,
            l2: h.l2_stats().clone(),
            traffic: h.backend().traffic(),
            controller: h.backend().controller_stats().clone(),
            mshr: h.mshr_stats().clone(),
            snc: h
                .backend()
                .snc()
                .map(|s| s.stats())
                .unwrap_or_else(|| CounterSet::new("snc")),
            label: self.label.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padlock_cpu::StrideWorkload;

    fn measure(mode: SecurityMode, ws: u64) -> Measurement {
        let mut m = Machine::new(MachineConfig::paper(mode));
        m.run(&mut StrideWorkload::new(ws, 128, 0.3), 3_000, 12_000)
    }

    #[test]
    fn xom_is_slower_than_baseline_on_memory_bound_work() {
        let base = measure(SecurityMode::Insecure, 32 << 20);
        let xom = measure(SecurityMode::Xom, 32 << 20);
        assert!(
            xom.stats.cycles as f64 > base.stats.cycles as f64 * 1.05,
            "xom {} vs base {}",
            xom.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn otp_recovers_most_of_the_xom_loss() {
        let base = measure(SecurityMode::Insecure, 32 << 20);
        let xom = measure(SecurityMode::Xom, 32 << 20);
        let otp = measure(SecurityMode::otp_lru_64k(), 32 << 20);
        assert!(otp.stats.cycles < xom.stats.cycles);
        let otp_over = otp.stats.cycles as f64 / base.stats.cycles as f64;
        assert!(otp_over < 1.10, "otp overhead ratio {otp_over}");
    }

    #[test]
    fn cache_resident_work_sees_no_security_cost() {
        let base = measure(SecurityMode::Insecure, 8 << 10);
        let xom = measure(SecurityMode::Xom, 8 << 10);
        let ratio = xom.stats.cycles as f64 / base.stats.cycles as f64;
        assert!(ratio < 1.02, "ratio {ratio}");
    }

    #[test]
    fn measurement_exposes_traffic_and_snc_counters() {
        let otp = measure(SecurityMode::otp_lru_64k(), 32 << 20);
        assert!(otp.traffic.get("line_reads") > 0);
        assert!(otp.label.contains("SNC"));
        // The streaming store workload writes back lines; the SNC sees
        // updates.
        assert!(
            otp.snc.get("update_hits") + otp.controller.get("first_writebacks") > 0,
            "snc: {} controller: {}",
            otp.snc,
            otp.controller
        );
    }

    #[test]
    fn snc_traffic_percent_is_small_for_covered_working_sets() {
        // 2MB written working set fits under the 4MB SNC coverage.
        let otp = measure(SecurityMode::otp_lru_64k(), 2 << 20);
        assert!(otp.snc_traffic_percent() < 5.0, "{}", otp.snc_traffic_percent());
    }

    #[test]
    fn measurement_wrapup_flushes_residual_spills() {
        use crate::config::{SncConfig, SncOrganization, SncPolicy};
        // A tiny SNC under a large written working set leaves a partial
        // spill pack at window end; wrap-up must drain it into SeqWrite
        // traffic instead of losing it.
        let snc = SncConfig {
            capacity_bytes: 32, // 16 entries
            organization: SncOrganization::FullyAssociative,
            policy: SncPolicy::Lru,
        };
        let mut m = Machine::new(MachineConfig::paper(SecurityMode::Otp { snc }));
        let meas = m.run(&mut StrideWorkload::new(8 << 20, 128, 0.5), 2_000, 12_000);
        assert_eq!(m.core_mut().hierarchy().backend().pending_spills(), 0);
        assert!(
            meas.traffic.get("seq_writes") >= 1,
            "traffic: {}",
            meas.traffic
        );
    }

    #[test]
    fn big_l2_machine_builds_and_runs() {
        let mut m = Machine::new(MachineConfig::paper_xom_big_l2());
        let meas = m.run(&mut StrideWorkload::new(1 << 20, 128, 0.2), 500, 2_000);
        assert_eq!(meas.stats.instructions, 2_000);
        assert_eq!(meas.label, "XOM");
    }
}
