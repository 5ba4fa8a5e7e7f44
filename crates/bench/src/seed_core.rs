//! A line-for-line port of the pre-fast-forward pipeline run loop (the
//! PR 7 `Core::run`), kept as the reference half of the
//! `fastforward_vs_seed` differential and the baseline half of the
//! `simrate` criterion benches.
//!
//! This is the repo's signature methodology (PRs 2–5, 7): when a
//! component is rewritten for speed, the old implementation is ported
//! verbatim into the bench crate and driven against the new one over
//! the full parameter grid, asserting bit-exact cycles and counters.
//! The port below preserves the seed loop's observable behaviour
//! exactly:
//!
//! * per-cycle stage order (resolutions → stall-on-use → commit →
//!   oldest-first issue scan → fetch/dispatch → advance);
//! * the O(|ROB|) issue rescan and the O(|ROB|) next-event rescan that
//!   the fast-forward core replaces with incremental readiness tracking
//!   and an event calendar;
//! * every hierarchy call site and drain trigger (stall-on-use,
//!   no-progress, wrap-up), so the backend sees the identical sequence
//!   of `line_read_batch_at` windows and `line_writeback`s.
//!
//! The only deliberate deviation: the seed loop's silent release-mode
//! `now + 1` fallback is reported through the same `forced_steps`
//! counter the new core exposes (it stays 0 in both, and the
//! differential asserts so). The hierarchy calls use the current
//! [`Hierarchy`] API, in which a load that waits parks under its ROB
//! sequence number; they make the same accesses and drains.

use padlock_core::{MachineConfig, Measurement, SecureBackend};
use padlock_cpu::{
    BimodalPredictor, Hierarchy, MemoryBackend, MicroOp, OpClass, PipelineConfig, RunStats,
    Workload, BPRED_ENTRIES, L1_LATENCY, L1_LINE_BYTES, MISPREDICT_PENALTY, PIPELINE_WIDTH,
};
use padlock_stats::CounterSet;
use std::collections::VecDeque;

const NO_DEP: u64 = u64::MAX;
const NOT_ISSUED: u64 = u64::MAX;
/// Completion sentinel for a load waiting on an in-flight L2 miss; the
/// real cycle arrives when the hierarchy drains its MSHR file.
const PENDING: u64 = u64::MAX - 1;

#[derive(Debug, Clone, Copy)]
enum SlotKind {
    Fixed(u64),
    Load(u64),
    Store(u64),
    /// A mispredicted branch; resolving it un-blocks the front end.
    BranchRedirect,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: SlotKind,
    /// Absolute sequence numbers of producers (NO_DEP when independent or
    /// already retired at dispatch).
    dep1: u64,
    dep2: u64,
    issued: bool,
    complete_at: u64,
}

/// The seed out-of-order core: the cycle-stepping engine as it stood
/// before the event-calendar rewrite, over the same [`Hierarchy`].
#[derive(Debug)]
pub struct SeedCore<B> {
    config: PipelineConfig,
    hierarchy: Hierarchy<B>,
    bpred: BimodalPredictor,
    now: u64,
}

impl<B: MemoryBackend> SeedCore<B> {
    /// Creates a seed core over an explicit hierarchy.
    pub fn with_hierarchy(config: PipelineConfig, hierarchy: Hierarchy<B>) -> Self {
        let bpred = BimodalPredictor::new(BPRED_ENTRIES);
        Self {
            config,
            hierarchy,
            bpred,
            now: 0,
        }
    }

    /// The cache hierarchy (stats access).
    pub fn hierarchy(&self) -> &Hierarchy<B> {
        &self.hierarchy
    }

    /// Mutable hierarchy access (backend control).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy<B> {
        &mut self.hierarchy
    }

    /// Current simulated cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Resets hierarchy/backend statistics between warm-up and
    /// measurement.
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
    }

    /// Runs until `n_ops` ops have committed; returns window statistics.
    ///
    /// Verbatim port of the seed `Core::run` loop (see the module docs
    /// for the exact provenance).
    pub fn run<W: Workload + ?Sized>(&mut self, workload: &mut W, n_ops: u64) -> RunStats {
        let mut stats = RunStats::default();
        let start_cycle = self.now;

        let rob_size = self.config.rob_size;
        let mut rob: VecDeque<Slot> = VecDeque::with_capacity(rob_size);
        let mut base: u64 = 0; // sequence number of rob.front()
        let mut dispatched: u64 = 0;
        let mut committed: u64 = 0;

        // Resolved loads waiting on in-flight L2 misses: absolute ROB
        // sequence number of the load's slot and its completion cycle.
        let mut resolved_buf: Vec<(u64, u64)> = Vec::new();

        // Front-end state.
        let mut fetch_ready_at: u64 = 0; // I-miss stall
        let mut redirect_pending = false; // mispredict: blocked until resolve
        let mut fetch_resume_at: u64 = 0;
        let mut pending_op: Option<MicroOp> = None;
        let mut last_fetch_line: u64 = u64::MAX;
        let l1i_line = L1_LINE_BYTES;

        while committed < n_ops {
            let now = self.now;
            let mut progress = false;

            // ---- Collect resolved fills ----
            self.hierarchy.take_resolutions(&mut resolved_buf);
            for (seq, done) in resolved_buf.drain(..) {
                if seq >= base {
                    let idx = (seq - base) as usize;
                    rob[idx].complete_at = done;
                }
            }

            // ---- Stall on use ----
            if self.hierarchy.pending_misses() > 0
                && rob
                    .front()
                    .is_some_and(|s| s.issued && s.complete_at == PENDING)
            {
                self.hierarchy.drain_pending();
                continue;
            }

            // ---- Commit ----
            let mut commits = 0;
            while commits < PIPELINE_WIDTH {
                match rob.front() {
                    Some(slot) if slot.issued && slot.complete_at <= now => {
                        rob.pop_front();
                        base += 1;
                        committed += 1;
                        commits += 1;
                        progress = true;
                        if committed >= n_ops {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            if committed >= n_ops {
                break;
            }

            // ---- Issue (oldest first) ----
            let mut issues = 0;
            let mut mem_issues = 0;
            for i in 0..rob.len() {
                if issues >= PIPELINE_WIDTH {
                    break;
                }
                let slot = rob[i];
                if slot.issued {
                    continue;
                }
                let dep_done = |dep: u64, rob: &VecDeque<Slot>| -> bool {
                    if dep == NO_DEP || dep < base {
                        return true;
                    }
                    let idx = (dep - base) as usize;
                    let d = &rob[idx];
                    d.issued && d.complete_at <= now
                };
                if !dep_done(slot.dep1, &rob) || !dep_done(slot.dep2, &rob) {
                    continue;
                }
                let is_mem = matches!(slot.kind, SlotKind::Load(_) | SlotKind::Store(_));
                if is_mem && mem_issues >= self.config.mem_ports {
                    continue;
                }
                let complete_at = match slot.kind {
                    SlotKind::Fixed(lat) => now + lat,
                    SlotKind::Load(addr) => self
                        .hierarchy
                        .load(now, addr, base + i as u64)
                        .unwrap_or(PENDING),
                    SlotKind::Store(addr) => {
                        let _ = self.hierarchy.store(now, addr);
                        now + 1
                    }
                    SlotKind::BranchRedirect => {
                        let done = now + 1;
                        redirect_pending = false;
                        fetch_resume_at = done + MISPREDICT_PENALTY;
                        done
                    }
                };
                let s = &mut rob[i];
                s.issued = true;
                s.complete_at = complete_at;
                issues += 1;
                if is_mem {
                    mem_issues += 1;
                }
                progress = true;
            }

            // ---- Fetch / dispatch ----
            let mut fetched = 0;
            while fetched < PIPELINE_WIDTH
                && rob.len() < rob_size
                && !redirect_pending
                && now >= fetch_resume_at
                && now >= fetch_ready_at
                && dispatched < n_ops + rob_size as u64
            {
                let op = match pending_op.take() {
                    Some(op) => op,
                    None => workload.next_op(),
                };
                // I-cache: a new line triggers a fetch access.
                let line = op.pc / l1i_line;
                if line != last_fetch_line {
                    let avail = self.hierarchy.inst_fetch(now, op.pc);
                    last_fetch_line = line;
                    if avail > now + L1_LATENCY {
                        // I-miss: hold the op until the line arrives.
                        fetch_ready_at = avail;
                        pending_op = Some(op);
                        break;
                    }
                }

                let seq = dispatched;
                let to_abs = |dist: u16| -> u64 {
                    if dist == 0 || u64::from(dist) > seq {
                        NO_DEP
                    } else {
                        seq - u64::from(dist)
                    }
                };
                let kind = match op.class {
                    OpClass::Load(a) => SlotKind::Load(a),
                    OpClass::Store(a) => SlotKind::Store(a),
                    OpClass::Branch { taken } => {
                        stats.branches += 1;
                        let predicted = self.bpred.predict(op.pc);
                        self.bpred.update(op.pc, taken);
                        if predicted != taken {
                            stats.mispredicts += 1;
                            SlotKind::BranchRedirect
                        } else {
                            SlotKind::Fixed(1)
                        }
                    }
                    other => SlotKind::Fixed(other.fixed_latency().expect("non-mem fixed")),
                };
                match op.class {
                    OpClass::Load(_) => stats.loads += 1,
                    OpClass::Store(_) => stats.stores += 1,
                    _ => {}
                }
                let is_redirect = matches!(kind, SlotKind::BranchRedirect);
                if is_redirect {
                    redirect_pending = true;
                    // Fetch stops after this branch until it resolves.
                }
                rob.push_back(Slot {
                    kind,
                    dep1: to_abs(op.dep1),
                    dep2: to_abs(op.dep2),
                    issued: false,
                    complete_at: NOT_ISSUED,
                });
                dispatched += 1;
                fetched += 1;
                progress = true;
                if is_redirect {
                    break;
                }
            }

            // ---- Advance time ----
            if progress {
                self.now += 1;
            } else {
                // Nothing happened: skip to the next event via the seed
                // model's O(|ROB|) rescan.
                let mut next = u64::MAX;
                for s in &rob {
                    if s.issued && s.complete_at != PENDING && s.complete_at > now {
                        next = next.min(s.complete_at);
                    }
                }
                if fetch_ready_at > now {
                    next = next.min(fetch_ready_at);
                }
                if fetch_resume_at > now && !redirect_pending {
                    next = next.min(fetch_resume_at);
                }
                if next == u64::MAX && self.hierarchy.pending_misses() > 0 {
                    self.hierarchy.drain_pending();
                    continue;
                }
                debug_assert!(
                    next != u64::MAX,
                    "stalled with no future event: rob={rob:?}"
                );
                if next == u64::MAX {
                    stats.forced_steps += 1;
                }
                self.now = if next == u64::MAX { now + 1 } else { next };
            }
        }

        // Window wrap-up: issue fills still sitting in the MSHR file.
        self.hierarchy.drain_pending();
        self.hierarchy.take_resolutions(&mut resolved_buf);
        resolved_buf.clear();

        stats.instructions = committed;
        stats.cycles = self.now - start_cycle;
        stats
    }
}

/// A whole seed machine (seed core + hierarchy + secure backend): the
/// reference half of the end-to-end differential, mirroring
/// [`Machine::run`]'s warm-up / reset / measure / wrap-up protocol.
#[derive(Debug)]
pub struct SeedMachine {
    core: SeedCore<SecureBackend>,
    label: String,
}

impl SeedMachine {
    /// Builds the seed machine from the same configuration
    /// [`Machine::new`] takes.
    pub fn new(config: MachineConfig) -> Self {
        let label = config.label();
        let backend = SecureBackend::new(config.security);
        let hierarchy = Hierarchy::new(config.hierarchy, backend);
        let core = SeedCore::with_hierarchy(config.pipeline, hierarchy);
        Self { core, label }
    }

    /// Direct access to the seed core.
    pub fn core_mut(&mut self) -> &mut SeedCore<SecureBackend> {
        &mut self.core
    }

    /// Warm up, reset statistics, measure: the same protocol as
    /// [`Machine::run`], returning the same [`Measurement`].
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
