//! The secure *server*: `N` core pipelines — each with its private
//! L1/L2 hierarchy and MSHR file — time-multiplexed over **one** shared
//! [`SecureBackend`] (crypto unit, SNC, DRAM channel fabric).
//!
//! The paper evaluates a single protected core, but the cost of its
//! §4.3 context-switch SNC flush (policy 1) only becomes measurable when
//! several compartments actually contend for the one SNC and the one
//! channel fabric. This module provides that timing harness:
//!
//! * each core is a **compartment**: its address stream lives in a
//!   private stripe selected by the top address bits
//!   ([`COMPARTMENT_ADDR_BITS`]), and it is the backend's active
//!   requestor while it steps ([`SecureBackend::set_active_requestor`],
//!   so SNC entries it evicts from other compartments are charged to
//!   it);
//! * the scheduler steps the unfinished core with the smallest local
//!   clock (ties to the lowest index), so per-core drain windows
//!   interleave through the shared controller in deterministic global-
//!   time order and FR-FCFS arbitration across compartments is
//!   observable;
//! * an optional round-robin context-switch quantum
//!   ([`ServerConfig::switch_interval`]) fires
//!   [`SecureBackend::context_switch_flush`] at every global
//!   `t = k * interval`, charging the flush to the round-robin's
//!   incoming compartment. Register-file encryption at the switch is
//!   not modelled here, since it would cost no cycles in this timing
//!   model; the functional [`crate::compartment`] module demonstrates
//!   it;
//! * per-compartment fairness counters fall out of delta snapshots of
//!   the shared fabric's [`padlock_mem::TrafficTotals`], taken exactly
//!   when ownership changes — so the per-compartment splits reassemble
//!   to the shared totals *by construction* (the `server_properties`
//!   proptests pin this).
//!
//! With `cores = 1` and no switch interval the scheduler degenerates to
//! the single-core [`crate::Machine`] protocol step for step; the
//! `server_vs_seed` differential test holds the two bit-identical.

use crate::controller::SecureBackend;
use crate::machine::MachineConfig;
use padlock_cpu::{Core, Hierarchy, LineKind, MemoryBackend, RunSession, RunStats, Workload};
use padlock_mem::TrafficTotals;
use padlock_stats::CounterSet;

/// Bits below the compartment index in a physical line address: a
/// compartment's stripe is `index << COMPARTMENT_ADDR_BITS`, leaving
/// every single-program address space (all well under 2^40) in
/// compartment 0's stripe.
pub const COMPARTMENT_ADDR_BITS: u32 = 40;

/// The compartment that owns `line_addr` — the stripe index encoded in
/// the address bits above [`COMPARTMENT_ADDR_BITS`].
pub fn compartment_of(line_addr: u64) -> usize {
    (line_addr >> COMPARTMENT_ADDR_BITS) as usize
}

/// The base address of compartment `index`'s stripe.
pub fn compartment_base(index: usize) -> u64 {
    (index as u64) << COMPARTMENT_ADDR_BITS
}

/// Configuration of a secure server: one machine template shared by
/// every core, the core count, and the context-switch quantum.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The per-core pipeline/hierarchy and the *shared* backend
    /// parameters. Every core gets a private copy of the pipeline and
    /// hierarchy; the security config builds the one shared backend.
    pub machine: MachineConfig,
    /// Number of core pipelines (compartments) sharing the backend.
    pub cores: usize,
    /// Global cycles between round-robin context switches; `None`
    /// disables switching (no SNC flushes).
    pub switch_interval: Option<u64>,
}

impl ServerConfig {
    /// The paper's machine replicated over `cores` compartments, with
    /// context switching off.
    pub fn paper(mode: crate::SecurityMode, cores: usize) -> Self {
        Self {
            machine: MachineConfig::paper(mode),
            cores,
            switch_interval: None,
        }
    }

    /// Builder: wrap an arbitrary machine template.
    pub fn from_machine(machine: MachineConfig, cores: usize) -> Self {
        Self {
            machine,
            cores,
            switch_interval: None,
        }
    }

    /// Builder: set the context-switch quantum in global cycles.
    pub fn with_switch_interval(mut self, interval: u64) -> Self {
        self.switch_interval = Some(interval);
        self
    }

    /// The server's report label: the machine label plus ` x{N}core`
    /// when more than one core shares the fabric and ` sw{K}` when a
    /// context-switch quantum is active.
    pub fn label(&self) -> String {
        let mut label = self.machine.label();
        if self.cores > 1 {
            label.push_str(&format!(" x{}core", self.cores));
        }
        if let Some(interval) = self.switch_interval {
            label.push_str(&format!(" sw{interval}"));
        }
        label
    }
}

/// The per-core seat for the shared backend: holds the one
/// [`SecureBackend`] only while its core is the scheduled owner, and
/// delegates the whole [`MemoryBackend`] surface to it. The backend is
/// boxed, so moving it between seats moves a pointer, not the
/// controller.
///
/// A core is only ever stepped with the backend installed in its slot,
/// so the `expect`s below encode the scheduler invariant, not a
/// recoverable condition.
#[derive(Debug, Default)]
pub(crate) struct ServerSlot(Option<Box<SecureBackend>>);

impl ServerSlot {
    /// An empty seat (the scheduler has not installed the backend).
    pub fn empty() -> Self {
        Self(None)
    }

    /// Installs the shared backend into this seat.
    ///
    /// # Panics
    ///
    /// Panics if the seat is already occupied — the backend would be
    /// duplicated.
    pub fn put(&mut self, backend: Box<SecureBackend>) {
        assert!(self.0.is_none(), "the shared backend is already seated");
        self.0 = Some(backend);
    }

    /// Removes the shared backend from this seat.
    ///
    /// # Panics
    ///
    /// Panics if the seat is empty.
    pub fn take(&mut self) -> Box<SecureBackend> {
        self.0.take().expect("the shared backend is seated here")
    }

    /// The seated backend.
    ///
    /// # Panics
    ///
    /// Panics if the seat is empty.
    pub fn get(&self) -> &SecureBackend {
        self.0
            .as_deref()
            .expect("the scheduler seats the backend before this core runs")
    }

    /// The seated backend, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the seat is empty.
    pub fn get_mut(&mut self) -> &mut SecureBackend {
        self.0
            .as_deref_mut()
            .expect("the scheduler seats the backend before this core runs")
    }
}

impl MemoryBackend for ServerSlot {
    fn line_read_batch_at(&mut self, reqs: &[(u64, u64, LineKind)]) -> Vec<u64> {
        self.get_mut().line_read_batch_at(reqs)
    }

    fn line_writeback(&mut self, now: u64, line_addr: u64) {
        self.get_mut().line_writeback(now, line_addr);
    }

    fn drain(&mut self, now: u64) {
        self.get_mut().drain(now);
    }

    fn traffic(&self) -> CounterSet {
        self.get().traffic()
    }

    fn reset_stats(&mut self) {
        self.get_mut().reset_stats();
    }

    fn label(&self) -> String {
        self.get().label()
    }
}

/// One compartment's share of a server measurement window.
#[derive(Debug, Clone)]
pub struct CompartmentReport {
    /// The compartment's core statistics (cycles, instructions, ...).
    pub stats: RunStats,
    /// Its private L2's counters.
    pub l2: CounterSet,
    /// Its private MSHR file's counters.
    pub mshr: CounterSet,
    /// The shared fabric's traffic generated *while this compartment
    /// owned the backend* — demand and sequence-number transactions
    /// and row hit/conflict counts. The per-compartment values
    /// sum exactly to the shared fabric's totals.
    pub traffic: TrafficTotals,
    /// SNC entries this compartment owned that were evicted (installed
    /// over, or context-switch flushed) while *another* compartment was
    /// the active requestor — the fairness cost the shared SNC imposes
    /// on it.
    pub snc_evictions_by_others: u64,
}

impl CompartmentReport {
    /// Cycles per committed instruction over the window.
    pub fn cpi(&self) -> f64 {
        if self.stats.instructions == 0 {
            0.0
        } else {
            self.stats.cycles as f64 / self.stats.instructions as f64
        }
    }
}

/// Everything measured over one server window: per-compartment reports
/// plus the shared fabric's aggregate counters.
#[derive(Debug, Clone)]
pub struct ServerMeasurement {
    /// Server label (e.g. `"SNC-LRU 64KB fully-assoc x4core sw20000"`).
    pub label: String,
    /// One report per compartment, in core order.
    pub compartments: Vec<CompartmentReport>,
    /// Aggregate memory traffic of the shared fabric (per
    /// [`padlock_mem::TrafficClass`]).
    pub traffic: CounterSet,
    /// Aggregate controller event counters.
    pub controller: CounterSet,
    /// Aggregate SNC event counters (empty in non-OTP modes).
    pub snc: CounterSet,
    /// Aggregate channel totals (the quantity the per-compartment
    /// [`CompartmentReport::traffic`] splits partition).
    pub totals: TrafficTotals,
    /// Context switches fired inside the measurement window.
    pub context_switches: u64,
}

/// `N` cores time-multiplexed over one shared [`SecureBackend`].
///
/// # Examples
///
/// ```
/// use padlock_core::{SecureServer, ServerConfig, SecurityMode};
/// use padlock_core::server::compartment_base;
/// use padlock_cpu::{OffsetWorkload, StrideWorkload};
///
/// let mut server = SecureServer::new(ServerConfig::paper(SecurityMode::otp_lru_64k(), 2));
/// let mut loads: Vec<_> = (0..2)
///     .map(|c| OffsetWorkload::new(StrideWorkload::new(1 << 20, 128, 0.2), compartment_base(c)))
///     .collect();
/// let meas = server.run(&mut loads, 500, 2_000);
/// assert_eq!(meas.compartments.len(), 2);
/// ```
#[derive(Debug)]
pub struct SecureServer {
    config: ServerConfig,
    cores: Vec<Core<ServerSlot>>,
    /// The shared backend when no core holds it (before the first step).
    parked: Option<Box<SecureBackend>>,
    /// Which core's slot currently seats the backend.
    holder: Option<usize>,
    /// The compartment the *next* traffic delta is attributed to.
    attr_owner: Option<usize>,
    /// Per-compartment shares of the fabric totals.
    per_comp: Vec<TrafficTotals>,
    /// Fabric totals at the last attribution snapshot.
    last_totals: TrafficTotals,
    /// Global cycle of the next scheduled context switch.
    next_switch: u64,
    /// Lifetime switch count (drives the round-robin; never reset).
    switch_seq: u64,
    /// Switches fired inside the current measurement window.
    context_switches: u64,
}

impl SecureServer {
    /// Builds the server: `cores` private pipelines and hierarchies
    /// over one shared backend.
    ///
    /// # Panics
    ///
    /// Panics when `cores == 0`.
    pub fn new(config: ServerConfig) -> Self {
        assert!(config.cores >= 1, "a server needs at least one core");
        let cores: Vec<_> = (0..config.cores)
            .map(|_| {
                let hierarchy =
                    Hierarchy::new(config.machine.hierarchy.clone(), ServerSlot::empty());
                Core::with_hierarchy(config.machine.pipeline.clone(), hierarchy)
            })
            .collect();
        let next_switch = config.switch_interval.unwrap_or(u64::MAX);
        let per_comp = vec![TrafficTotals::default(); config.cores];
        let parked = Some(Box::new(SecureBackend::new(
            config.machine.security.clone(),
        )));
        Self {
            config,
            cores,
            parked,
            holder: None,
            attr_owner: None,
            per_comp,
            last_totals: TrafficTotals::default(),
            next_switch,
            switch_seq: 0,
            context_switches: 0,
        }
    }

    /// The shared backend, wherever it is currently seated.
    fn backend(&self) -> &SecureBackend {
        match self.holder {
            Some(c) => self.cores[c].hierarchy().backend().get(),
            None => self
                .parked
                .as_deref()
                .expect("the shared backend is parked when no core holds it"),
        }
    }

    fn backend_mut(&mut self) -> &mut SecureBackend {
        match self.holder {
            Some(c) => self.cores[c].hierarchy_mut().backend_mut().get_mut(),
            None => self
                .parked
                .as_deref_mut()
                .expect("the shared backend is parked when no core holds it"),
        }
    }

    /// Pre-ages the shared backend's written-line sets (see
    /// [`SecureBackend::pre_age`]). Addresses must already carry their
    /// compartment's stripe offset ([`compartment_base`]); feeds for
    /// several compartments can be chained into one call.
    pub fn pre_age(
        &mut self,
        ancient: impl IntoIterator<Item = u64>,
        active: impl IntoIterator<Item = u64>,
    ) {
        self.backend_mut().pre_age(ancient, active);
    }

    /// Attributes the fabric traffic since the last snapshot to the
    /// current attribution owner and re-snapshots.
    fn capture_owner_delta(&mut self) {
        let totals = self.backend().channels().totals();
        if let Some(owner) = self.attr_owner {
            self.per_comp[owner] = self.per_comp[owner].plus(totals.minus(self.last_totals));
        }
        self.last_totals = totals;
    }

    /// Makes core `c` the owner: captures the previous owner's traffic
    /// delta, moves the backend into `c`'s slot, and makes `c` the
    /// backend's active requestor.
    fn install(&mut self, c: usize) {
        if self.attr_owner != Some(c) {
            self.capture_owner_delta();
            self.attr_owner = Some(c);
        }
        if self.holder != Some(c) {
            let backend = match self.holder {
                Some(prev) => self.cores[prev].hierarchy_mut().backend_mut().take(),
                None => self
                    .parked
                    .take()
                    .expect("the shared backend is parked when no core holds it"),
            };
            self.cores[c].hierarchy_mut().backend_mut().put(backend);
            self.holder = Some(c);
        }
        self.backend_mut().set_active_requestor(c as u16);
    }

    /// Fires the context switch scheduled at global cycle `at`: flushes
    /// the SNC with the incoming compartment as the active requestor
    /// (so every other compartment's flushed entries count as evictions
    /// by others) and attributes the flush traffic to the incoming
    /// compartment.
    fn fire_switch(&mut self, at: u64) {
        self.capture_owner_delta();
        let incoming = ((self.switch_seq + 1) as usize) % self.config.cores;
        {
            let backend = self.backend_mut();
            backend.set_active_requestor(incoming as u16);
            backend.context_switch_flush(at);
        }
        self.attr_owner = Some(incoming);
        self.capture_owner_delta();
        self.switch_seq += 1;
        self.context_switches += 1;
    }

    /// Runs every core for `n_ops` committed ops under the min-clock
    /// lockstep: the unfinished core with the smallest local `now`
    /// steps next (ties to the lowest index), with due context switches
    /// fired first. Returns per-core run statistics.
    fn run_phase<W: Workload>(&mut self, workloads: &mut [W], n_ops: u64) -> Vec<RunStats> {
        let n = self.config.cores;
        let mut sessions: Vec<RunSession> =
            self.cores.iter_mut().map(|c| c.begin_run(n_ops)).collect();
        let mut running = vec![true; n];
        let mut left = n;
        while left > 0 {
            let c = (0..n)
                .filter(|&i| running[i])
                .min_by_key(|&i| self.cores[i].now())
                .expect("left > 0 implies an unfinished core");
            if let Some(interval) = self.config.switch_interval {
                while self.cores[c].now() >= self.next_switch {
                    let at = self.next_switch;
                    self.fire_switch(at);
                    self.next_switch += interval;
                }
            }
            self.install(c);
            if !self.cores[c].step_run(&mut sessions[c], &mut workloads[c]) {
                running[c] = false;
                left -= 1;
            }
        }
        // Finishing a session drains the core's still-parked misses, so
        // the shared backend must be seated (and the traffic attributed)
        // under each finishing compartment in turn.
        let mut stats = Vec::with_capacity(n);
        for (c, session) in sessions.into_iter().enumerate() {
            self.install(c);
            stats.push(self.cores[c].finish_run(session));
        }
        stats
    }

    /// Warm every compartment up for `warmup_ops` committed ops, reset
    /// all statistics, measure a window of `measure_ops` per
    /// compartment, and report. `workloads[c]` drives core `c` and
    /// should confine its addresses to compartment `c`'s stripe
    /// (offset them by [`compartment_base`]).
    ///
    /// # Panics
    ///
    /// Panics when `workloads.len() != cores`.
    pub fn run<W: Workload>(
        &mut self,
        workloads: &mut [W],
        warmup_ops: u64,
        measure_ops: u64,
    ) -> ServerMeasurement {
        assert_eq!(
            workloads.len(),
            self.config.cores,
            "one workload per core"
        );
        if warmup_ops > 0 {
            self.run_phase(workloads, warmup_ops);
        }
        for c in 0..self.config.cores {
            self.install(c);
            self.cores[c].reset_stats();
            // The backend's channel statistics just went back to zero;
            // re-anchor the attribution snapshot so the next delta is
            // computed against the reset state, not the warmup totals.
            self.last_totals = TrafficTotals::default();
        }
        self.per_comp = vec![TrafficTotals::default(); self.config.cores];
        self.context_switches = 0;
        let stats = self.run_phase(workloads, measure_ops);
        // Measurement wrap-up, as in `Machine::run`: flush residual
        // spill/write buffers so traffic counters are exact; the tail
        // is attributed to the last owner.
        let end = self.cores.iter().map(Core::now).max().unwrap_or(0);
        self.backend_mut().drain(end);
        self.capture_owner_delta();
        let mut compartments = Vec::with_capacity(self.config.cores);
        for (c, stats) in stats.into_iter().enumerate() {
            let h = self.cores[c].hierarchy();
            compartments.push(CompartmentReport {
                stats,
                l2: h.l2_stats().clone(),
                mshr: h.mshr_stats().clone(),
                traffic: self.per_comp[c],
                snc_evictions_by_others: self
                    .backend()
                    .snc_evicted_by_others()
                    .get(c)
                    .copied()
                    .unwrap_or(0),
            });
        }
        let backend = self.backend();
        ServerMeasurement {
            label: self.config.label(),
            compartments,
            traffic: backend.traffic(),
            controller: backend.controller_stats(),
            snc: backend
                .snc()
                .map(|s| s.stats())
                .unwrap_or_else(|| CounterSet::new("snc")),
            totals: backend.channels().totals(),
            context_switches: self.context_switches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SecurityMode;
    use padlock_cpu::{OffsetWorkload, StrideWorkload};

    fn striped_loads(cores: usize, span: u64) -> Vec<OffsetWorkload<StrideWorkload>> {
        (0..cores)
            .map(|c| OffsetWorkload::new(StrideWorkload::new(span, 128, 0.3), compartment_base(c)))
            .collect()
    }

    #[test]
    fn compartment_stripe_round_trips() {
        assert_eq!(compartment_of(compartment_base(3) + 0x7000_0000), 3);
        assert_eq!(compartment_of(0x7000_0000), 0);
    }

    #[test]
    fn server_runs_every_compartment_to_completion() {
        let mut server =
            SecureServer::new(ServerConfig::paper(SecurityMode::otp_lru_64k(), 3));
        let mut loads = striped_loads(3, 4 << 20);
        let meas = server.run(&mut loads, 1_000, 4_000);
        assert_eq!(meas.compartments.len(), 3);
        for report in &meas.compartments {
            assert_eq!(report.stats.instructions, 4_000);
            assert!(report.stats.cycles > 0);
        }
        assert_eq!(meas.context_switches, 0);
    }

    #[test]
    fn compartment_traffic_partitions_the_fabric_totals() {
        let mut server =
            SecureServer::new(ServerConfig::paper(SecurityMode::otp_lru_64k(), 2));
        let mut loads = striped_loads(2, 8 << 20);
        let meas = server.run(&mut loads, 1_000, 6_000);
        let sum = meas
            .compartments
            .iter()
            .fold(TrafficTotals::default(), |acc, r| acc.plus(r.traffic));
        assert_eq!(sum, meas.totals);
        assert!(meas.totals.transactions() > 0);
    }

    #[test]
    fn switch_quantum_fires_flushes_and_counts_switches() {
        let config = ServerConfig::paper(SecurityMode::otp_lru_64k(), 2)
            .with_switch_interval(10_000);
        let mut server = SecureServer::new(config);
        let mut loads = striped_loads(2, 8 << 20);
        let meas = server.run(&mut loads, 2_000, 8_000);
        assert!(meas.context_switches > 0, "quantum never fired");
        assert!(
            meas.controller.get("context_flush_entries") > 0,
            "switches must flush the SNC: {}",
            meas.controller
        );
        assert!(meas.label.ends_with("x2core sw10000"), "{}", meas.label);
    }

    #[test]
    fn cross_compartment_snc_evictions_are_attributed() {
        // Two compartments with very different install rates through a
        // tiny shared SNC: the store-heavy one's installs sweep the
        // quiet one's entries out (symmetric streams would evict only
        // their own, since LRU degenerates to FIFO under perfect
        // alternation).
        let snc = crate::SncConfig::paper_default().with_capacity(64);
        let config = ServerConfig::paper(SecurityMode::Otp { snc }, 2);
        let mut server = SecureServer::new(config);
        let mut loads: Vec<_> = [0.9, 0.1]
            .into_iter()
            .enumerate()
            .map(|(c, frac)| {
                OffsetWorkload::new(StrideWorkload::new(8 << 20, 128, frac), compartment_base(c))
            })
            .collect();
        let meas = server.run(&mut loads, 2_000, 24_000);
        let crossed: u64 = meas
            .compartments
            .iter()
            .map(|r| r.snc_evictions_by_others)
            .sum();
        assert!(
            crossed > 0,
            "no cross-compartment evictions observed; snc: {} controller: {} traffic: {}",
            meas.snc,
            meas.controller,
            meas.traffic
        );
    }
}
