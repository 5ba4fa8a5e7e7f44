//! The out-of-order execution engine: fetch/dispatch, issue, complete,
//! commit over a reorder buffer, with event-driven fast-forwarding.
//!
//! # Fast-forward core
//!
//! The run loop is event-driven rather than cycle-scanned. Two
//! structures replace the seed core's per-cycle O(|ROB|) rescans (the
//! seed loop is preserved verbatim in `padlock-bench`'s `seed_core`
//! module and the `fastforward_vs_seed` differential proves the two
//! produce bit-exact cycles and counters):
//!
//! * **Completion calendar** — a 64-cycle timing wheel (see the
//!   `wheel` module). Every issue and every miss resolution enters the
//!   op's completion cycle; when no fetch/dispatch/issue/commit can
//!   occur, `now` jumps straight to the earliest future event (folding
//!   in the fetch gates and [`Hierarchy::next_completion`]) instead of
//!   scanning the ROB. A completion within 63 cycles is one bit of a
//!   mask, so the earliest one is a rotate and a `trailing_zeros`; one
//!   further out (an L2 miss) waits in a small heap until the clock
//!   nears it. Every completion stays a wake-up, not only the ROB
//!   head's: MSHR resolutions that an instruction-fetch drain queued
//!   already due are collected by the next step, and that step's cycle
//!   decides when the load's consumers issue.
//!
//! * **Incremental issue readiness** — instead of re-testing every
//!   un-issued slot's dependences each cycle, each producer slot keeps
//!   the list of its in-ROB consumers. When a producer's completion
//!   cycle becomes known (at issue, or when an L2 miss resolves), its
//!   consumers' outstanding-dependence counts are decremented and each
//!   newly unblocked consumer is filed either into the *ready set* or
//!   into the wheel's bitmap for the cycle its last producer completes;
//!   each step first advances the wheel to `now`, ORing the positions
//!   whose cycle has come into the ready set. Issue is then one pass
//!   over the ready set from the head, oldest first, reproducing the
//!   seed scan's order exactly: the issue-width cap ends the pass, and
//!   once the memory ports are used up a second bitmap, the memory
//!   ops' positions written at dispatch, is masked out of the words
//!   still to walk, so younger non-memory ops still issue. One pass is
//!   exact because an issue never makes another op ready in the same
//!   cycle: every completion it schedules is at least `now + 1`, so its
//!   consumers wait on the wheel, and a drain that a load triggers is
//!   collected by the next step.
//!
//! The ROB is a ring of `rob_size.next_power_of_two()` slots, and the
//! op with sequence number `seq` sits at position `seq & mask` from
//! dispatch to commit. At most `rob_size` ops are in flight, so live
//! positions never collide and walking the ring from the head slot
//! (the oldest op's) visits ops in program order. Every scheduler set
//! is keyed on these positions: the ready set, the memory mask and the
//! wheel's buckets hold one bit per position, so readiness is a bit
//! operation from dispatch to issue. The issue pass takes the ready
//! set's bits a 64-bit word at a time with `trailing_zeros`, and the
//! set counts its members so an empty set answers without a scan. A
//! producer's consumer list is linked through its consumers' slots,
//! one link per source operand, so dispatch never allocates.
//!
//! The per-event helpers (`take_issue`, `RunSession::{complete,
//! file_ready}` and the wheel's pushes and `advance`) are
//! `#[inline(always)]`: [`Core::step_run`] is generic, so the crates
//! that drive a core compile it, and with plain `#[inline]` the
//! compiler kept the helpers out of line there, which measured slower.
//!
//! Readiness cycles never need their own wake-ups: a consumer's
//! `ready_at` equals some producer's completion cycle, which is already
//! in the completion calendar (a producer whose completion is still in
//! the future cannot have committed).
//!
//! Loads that miss past the L2 park with a [`PENDING`] completion until
//! the MSHR file drains them (see
//! [`Hierarchy`](crate::hierarchy::Hierarchy) for the drain triggers).
//! A load parks in the file under its sequence number, and the drain
//! hands back `(seq, cycle)`, so the collect phase completes the slot
//! at `seq`'s ring position directly. A parked load at the ROB head
//! forces a drain exactly as the seed loop did, so the backend observes
//! the identical window composition.

use crate::bpred::BimodalPredictor;
use crate::hierarchy::{Hierarchy, MemoryBackend, L1_LATENCY, L1_LINE_BYTES};
use crate::op::{OpClass, Workload};
use crate::wheel::TimingWheel;

/// Ops fetched (dispatched), issued and committed per cycle:
/// SimpleScalar `sim-outorder`'s 4-wide default, which the paper kept.
pub const PIPELINE_WIDTH: u32 = 4;

/// Extra front-end cycles after a mispredicted branch resolves.
pub const MISPREDICT_PENALTY: u64 = 3;

/// Entries in the bimodal branch predictor (SimpleScalar's 2K default).
pub const BPRED_ENTRIES: usize = 2048;

/// The core parameters an experiment varies: the ROB size and the
/// memory ports.
///
/// Defaults follow SimpleScalar `sim-outorder`'s defaults, which the
/// paper states it used apart from the cache/memory parameters: a
/// 16-entry register update unit (our ROB) and two memory ports. The
/// rest of the core is fixed at those defaults: [`PIPELINE_WIDTH`],
/// [`MISPREDICT_PENALTY`] and [`BPRED_ENTRIES`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Reorder-buffer entries (SimpleScalar's RUU).
    pub rob_size: usize,
    /// Memory operations issued per cycle (load/store ports).
    pub mem_ports: u32,
}

impl PipelineConfig {
    /// The paper's processor: 4-issue out-of-order with SimpleScalar
    /// defaults.
    pub fn paper_default() -> Self {
        Self {
            rob_size: 16,
            mem_ports: 2,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Results of one simulated window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Ops committed in the window.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Times the clock was forced forward by one cycle because the
    /// event calendar held no future event while nothing could run.
    ///
    /// This is the release-mode escape hatch for what `debug_assert`s
    /// flag in debug builds; a correct model keeps it at 0, and the
    /// test suite asserts so.
    pub forced_steps: u64,
}

impl RunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

const NO_DEP: u64 = u64::MAX;
const NOT_ISSUED: u64 = u64::MAX;
/// The end of a consumer list.
const NO_LINK: usize = usize::MAX;
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

#[derive(Debug)]
struct Slot {
    kind: SlotKind,
    issued: bool,
    complete_at: u64,
    /// Earliest cycle this slot's known producers allow it to issue
    /// (running max over producer completion cycles).
    ready_at: u64,
    /// Producers whose completion cycle is still unknown (un-issued, or
    /// parked on an in-flight miss).
    unresolved: u8,
    /// Head of the list of in-ROB consumers to notify when this slot's
    /// completion cycle becomes known, [`NO_LINK`] when empty (always,
    /// once the ring position is free). A link names one source operand
    /// of a consumer, `2 * position + operand`, and the list runs on
    /// through the consumers' own `next` links.
    consumers: usize,
    /// Per source operand waiting on a producer: the next link in that
    /// producer's consumer list.
    next: [usize; 2],
}

impl Slot {
    fn vacant() -> Self {
        Self {
            kind: SlotKind::Fixed(0),
            issued: false,
            complete_at: NOT_ISSUED,
            ready_at: 0,
            unresolved: 0,
            consumers: NO_LINK,
            next: [NO_LINK; 2],
        }
    }
}

/// A set of ROB ring positions, one bit each, with a count of its
/// members so an empty set answers without a scan.
#[derive(Debug)]
struct ReadyBits {
    words: Vec<u64>,
    count: usize,
}

/// The ring positions one cycle's issue pass takes, oldest first.
#[derive(Debug, Default)]
struct Picks {
    pos: [usize; PIPELINE_WIDTH as usize],
    len: usize,
}

impl Picks {
    #[inline]
    fn as_slice(&self) -> &[usize] {
        &self.pos[..self.len]
    }
}

impl ReadyBits {
    fn new(ring: usize) -> Self {
        Self {
            words: vec![0; ring.div_ceil(64)],
            count: 0,
        }
    }

    fn insert(&mut self, pos: usize) {
        debug_assert_eq!(
            self.words[pos / 64] >> (pos % 64) & 1,
            0,
            "slot filed twice"
        );
        self.words[pos / 64] |= 1 << (pos % 64);
        self.count += 1;
    }

    /// One cycle's issue pass: removes and returns, oldest first, the
    /// members a [`PIPELINE_WIDTH`]-wide core with `mem_ports` memory
    /// ports issues. It walks a ring of `ring` positions (a power of
    /// two) once, from `start` for at most `span` positions, wrapping
    /// past the end, and takes set bits a word at a time with
    /// `trailing_zeros`. `mem` marks the memory ops' positions: once
    /// `mem_ports` of them are taken it is masked out of the words
    /// still to walk, so younger non-memory ops still issue.
    #[inline(always)]
    fn take_issue(
        &mut self,
        mem: &[u64],
        ring: usize,
        start: usize,
        span: usize,
        mem_ports: u32,
    ) -> Picks {
        let mut picks = Picks::default();
        let mut mem_left = mem_ports;
        let (mut pos, mut left) = (start, span);
        while left > 0 && self.count > 0 {
            let (w, bit) = (pos / 64, pos % 64);
            let take = left.min(64 - bit).min(ring - pos);
            let mems = mem[w] >> bit;
            let mut word = self.words[w] >> bit;
            if take < 64 {
                word &= (1 << take) - 1;
            }
            if mem_left == 0 {
                word &= !mems;
            }
            while word != 0 {
                let at = word.trailing_zeros() as usize;
                word &= word - 1;
                self.words[w] &= !(1 << (bit + at));
                self.count -= 1;
                picks.pos[picks.len] = pos + at;
                picks.len += 1;
                if picks.len == picks.pos.len() {
                    return picks;
                }
                if mems >> at & 1 != 0 {
                    mem_left -= 1;
                    if mem_left == 0 {
                        word &= !mems;
                    }
                }
            }
            left -= take;
            pos = (pos + take) & (ring - 1);
        }
        picks
    }
}

/// The out-of-order core: a [`Hierarchy`] plus the execution engine.
///
/// # Examples
///
/// ```
/// use padlock_cpu::{Core, InsecureBackend, PipelineConfig, StrideWorkload};
///
/// let mut core = Core::new(PipelineConfig::paper_default(),
///                          InsecureBackend::new(100, 8));
/// let stats = core.run(&mut StrideWorkload::new(4096, 64, 0.1), 5_000);
/// assert!(stats.ipc() > 0.5);
/// ```
#[derive(Debug)]
pub struct Core<B> {
    config: PipelineConfig,
    hierarchy: Hierarchy<B>,
    bpred: BimodalPredictor,
    now: u64,
}

impl<B: MemoryBackend> Core<B> {
    /// Creates a core with the paper's cache hierarchy over `backend`.
    ///
    /// # Panics
    ///
    /// As [`Core::with_hierarchy`].
    pub fn new(config: PipelineConfig, backend: B) -> Self {
        Self::with_hierarchy(
            config,
            Hierarchy::new(crate::hierarchy::HierarchyConfig::paper_default(), backend),
        )
    }

    /// Creates a core over an explicit hierarchy (custom cache geometry).
    ///
    /// # Panics
    ///
    /// Panics if `rob_size` or `mem_ports` is zero: such a core could
    /// never dispatch or issue a memory op, and its run would not
    /// terminate.
    pub fn with_hierarchy(config: PipelineConfig, hierarchy: Hierarchy<B>) -> Self {
        assert!(config.rob_size > 0, "rob_size must be positive");
        assert!(config.mem_ports > 0, "mem_ports must be positive");
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

    /// Resets hierarchy/backend statistics; used between the warm-up and
    /// measured windows (the paper fast-forwards 10B instructions before
    /// measuring).
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
    }

    /// Runs until `n_ops` ops have committed; returns window statistics.
    ///
    /// Successive calls continue from the current microarchitectural
    /// state (warm caches, trained predictor), so the idiomatic pattern
    /// is one warm-up call followed by `reset_stats` and a measured call.
    ///
    /// Equivalent to [`Core::begin_run`] / [`Core::step_run`] /
    /// [`Core::finish_run`] driven to completion — the multi-core
    /// server interleaves several cores' sessions through that split
    /// surface, so a single-core run and a one-core server run execute
    /// the identical sequence of hierarchy calls by construction.
    pub fn run<W: Workload + ?Sized>(&mut self, workload: &mut W, n_ops: u64) -> RunStats {
        let mut session = self.begin_run(n_ops);
        while self.step_run(&mut session, workload) {}
        self.finish_run(session)
    }

    /// Opens a run session targeting `n_ops` committed ops.
    ///
    /// The session owns all per-window execution state (ROB, ready
    /// sets, calendars, front-end latches); the core keeps only its
    /// persistent microarchitecture (caches, predictor, clock). Drive
    /// it with [`Core::step_run`] and close it with
    /// [`Core::finish_run`].
    pub fn begin_run(&mut self, n_ops: u64) -> RunSession {
        let ring = self.config.rob_size.next_power_of_two();
        RunSession {
            stats: RunStats::default(),
            start_cycle: self.now,
            n_ops,
            rob: (0..ring).map(|_| Slot::vacant()).collect(),
            base: 0,
            dispatched: 0,
            committed: 0,
            resolved_buf: Vec::new(),
            calendar: TimingWheel::new(self.now, ring),
            ready: ReadyBits::new(ring),
            mem: vec![0; ring.div_ceil(64)],
            fetch_ready_at: 0,
            redirect_pending: false,
            fetch_resume_at: 0,
            pending_op: None,
            last_fetch_line: u64::MAX,
        }
    }

    /// Executes one scheduling step of the session: one pass of the
    /// collect/commit/issue/fetch loop ending in a clock advance (or an
    /// MSHR drain re-run). Returns `false` once the session's commit
    /// target is reached — call [`Core::finish_run`] then.
    pub fn step_run<W: Workload + ?Sized>(&mut self, s: &mut RunSession, workload: &mut W) -> bool {
        if s.committed >= s.n_ops {
            return false;
        }
        let now = self.now;
        let mut progress = false;

        // ---- Advance the calendar ----
        // Completions at or before `now` are past; slots whose
        // readiness cycle has arrived join the ready set.
        s.ready.count += s.calendar.advance(now, &mut s.ready.words);

        // ---- Collect resolved fills ----
        // A hierarchy drain (MSHR-file exhaustion inside an access, a
        // blocking instruction fetch, or the forced stall-on-use drain
        // below) resolves parked loads, named by their sequence
        // numbers, to their real completion cycles.
        self.hierarchy.take_resolutions(&mut s.resolved_buf);
        for i in 0..s.resolved_buf.len() {
            let (seq, done) = s.resolved_buf[i];
            debug_assert!(
                (s.base..s.dispatched).contains(&seq) && s.slot(seq).complete_at == PENDING,
                "resolution for op {seq}, which is not a parked load"
            );
            let pos = s.pos(seq);
            s.complete(now, pos, done);
        }
        s.resolved_buf.clear();

        // ---- Stall on use ----
        // The oldest op is a load still waiting on an in-flight
        // miss: commit is blocked on it, so the MSHR file drains
        // now — issuing every accumulated miss as one batch (each
        // charged from its own arrival) — and this cycle re-runs
        // with the resolved completion cycles.
        if self.hierarchy.pending_misses() > 0
            && s.base < s.dispatched
            && s.slot(s.base).issued
            && s.slot(s.base).complete_at == PENDING
        {
            self.hierarchy.drain_pending();
            return true;
        }

        // ---- Commit ----
        let mut commits = 0;
        while commits < PIPELINE_WIDTH && s.base < s.dispatched {
            let head = s.slot(s.base);
            if !(head.issued && head.complete_at <= now) {
                break;
            }
            debug_assert!(
                head.consumers == NO_LINK,
                "committed slot with unnotified consumers"
            );
            s.base += 1;
            s.committed += 1;
            commits += 1;
            progress = true;
            if s.committed >= s.n_ops {
                return false;
            }
        }

        // ---- Issue: one pass over the ready set, oldest first ----
        // Taking every pick before issuing any is exact because an
        // issue never makes another op ready this cycle (module doc).
        let ring = s.rob.len();
        let head = s.pos(s.base);
        let occupied = (s.dispatched - s.base) as usize;
        let picks = s
            .ready
            .take_issue(&s.mem, ring, head, occupied, self.config.mem_ports);
        for &pos in picks.as_slice() {
            let complete_at = match s.rob[pos].kind {
                SlotKind::Fixed(lat) => now + lat,
                SlotKind::Load(addr) => {
                    // A load that waits on the MSHR file parks under
                    // its sequence number; the slot completes when a
                    // drain resolves it.
                    let seq = s.base + (pos.wrapping_sub(head) & (ring - 1)) as u64;
                    self.hierarchy.load(now, addr, seq).unwrap_or(PENDING)
                }
                SlotKind::Store(addr) => {
                    // The store retires via the store buffer; the line
                    // fill proceeds in the background (a pending fill
                    // stays in the MSHR file until a later drain).
                    let _ = self.hierarchy.store(now, addr);
                    now + 1
                }
                SlotKind::BranchRedirect => {
                    let done = now + 1;
                    s.redirect_pending = false;
                    s.fetch_resume_at = done + MISPREDICT_PENALTY;
                    done
                }
            };
            s.rob[pos].issued = true;
            if complete_at == PENDING {
                s.rob[pos].complete_at = PENDING;
            } else {
                debug_assert!(complete_at > now, "an issue completed within its own cycle");
                s.complete(now, pos, complete_at);
            }
            progress = true;
        }

        // ---- Fetch / dispatch ----
        let rob_size = self.config.rob_size as u64;
        let mut fetched = 0;
        while fetched < PIPELINE_WIDTH
            && s.dispatched - s.base < rob_size
            && !s.redirect_pending
            && now >= s.fetch_resume_at
            && now >= s.fetch_ready_at
            && s.dispatched < s.n_ops + rob_size
        {
            let op = match s.pending_op.take() {
                Some(op) => op,
                None => workload.next_op(),
            };
            // I-cache: a new line triggers a fetch access.
            let line = op.pc / L1_LINE_BYTES;
            if line != s.last_fetch_line {
                let avail = self.hierarchy.inst_fetch(now, op.pc);
                s.last_fetch_line = line;
                if avail > now + L1_LATENCY {
                    // I-miss: hold the op until the line arrives.
                    s.fetch_ready_at = avail;
                    s.pending_op = Some(op);
                    break;
                }
            }

            let seq = s.dispatched;
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
                    s.stats.branches += 1;
                    let predicted = self.bpred.predict(op.pc);
                    self.bpred.update(op.pc, taken);
                    if predicted != taken {
                        s.stats.mispredicts += 1;
                        SlotKind::BranchRedirect
                    } else {
                        SlotKind::Fixed(1)
                    }
                }
                other => SlotKind::Fixed(other.fixed_latency().expect("non-mem fixed")),
            };
            match op.class {
                OpClass::Load(_) => s.stats.loads += 1,
                OpClass::Store(_) => s.stats.stores += 1,
                _ => {}
            }
            let is_redirect = matches!(kind, SlotKind::BranchRedirect);
            if is_redirect {
                s.redirect_pending = true;
                // Fetch stops after this branch until it resolves.
            }
            // Dependence registration: known-complete producers fold
            // into ready_at; unknown ones get this slot as a
            // consumer to notify later.
            let is_mem = matches!(kind, SlotKind::Load(_) | SlotKind::Store(_));
            let pos = s.pos(seq);
            let mut unresolved = 0u8;
            let mut ready_at = 0u64;
            for (operand, dep) in [to_abs(op.dep1), to_abs(op.dep2)].into_iter().enumerate() {
                if dep == NO_DEP || dep < s.base {
                    continue;
                }
                let p = s.slot_mut(dep);
                if p.issued && p.complete_at != PENDING {
                    ready_at = ready_at.max(p.complete_at);
                } else {
                    let next = std::mem::replace(&mut p.consumers, 2 * pos + operand);
                    s.rob[pos].next[operand] = next;
                    unresolved += 1;
                }
            }
            let slot = &mut s.rob[pos];
            debug_assert!(slot.consumers == NO_LINK, "ring slot reused while live");
            slot.kind = kind;
            slot.issued = false;
            slot.complete_at = NOT_ISSUED;
            slot.ready_at = ready_at;
            slot.unresolved = unresolved;
            let (w, bit) = (pos / 64, pos % 64);
            s.mem[w] = s.mem[w] & !(1 << bit) | u64::from(is_mem) << bit;
            if unresolved == 0 {
                s.file_ready(now, pos);
            }
            s.dispatched += 1;
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
            // Nothing happened: jump to the earliest future event.
            // Parked loads have no completion cycle yet; they are
            // excluded here and force a drain when nothing else can
            // run.
            let mut next = s.calendar.next_done().unwrap_or(u64::MAX);
            if s.fetch_ready_at > now {
                next = next.min(s.fetch_ready_at);
            }
            if s.fetch_resume_at > now && !s.redirect_pending {
                next = next.min(s.fetch_resume_at);
            }
            if let Some(c) = self.hierarchy.next_completion() {
                // Resolutions queued since the collect phase (e.g. by
                // a blocking instruction fetch's drain) are events too.
                if c > now {
                    next = next.min(c);
                }
            }
            if next == u64::MAX && self.hierarchy.pending_misses() > 0 {
                // Stall on use: every runnable op waits on an
                // in-flight miss, so the MSHR file drains. Each
                // miss is charged from its own arrival cycle, so
                // batching them here costs no simulated time.
                self.hierarchy.drain_pending();
                return true;
            }
            debug_assert!(
                next != u64::MAX,
                "stalled with no future event: rob={:?}",
                (s.base..s.dispatched)
                    .map(|q| s.slot(q))
                    .collect::<Vec<_>>()
            );
            if next == u64::MAX {
                s.stats.forced_steps += 1;
                self.now = now + 1;
            } else {
                self.now = next;
            }
        }
        true
    }

    /// Closes a run session: issues fills still sitting in the MSHR
    /// file (fire-and-forget store misses, loads past the commit
    /// target) so their memory traffic lands in this window's counters,
    /// and returns the window statistics.
    pub fn finish_run(&mut self, mut s: RunSession) -> RunStats {
        self.hierarchy.drain_pending();
        self.hierarchy.take_resolutions(&mut s.resolved_buf);
        s.resolved_buf.clear();
        s.stats.instructions = s.committed;
        s.stats.cycles = self.now - s.start_cycle;
        s.stats
    }
}

/// The per-window execution state of one [`Core::run`] window, split
/// out so a caller can interleave several cores' windows (the
/// multi-core secure server steps N sessions against one shared
/// backend). Create with [`Core::begin_run`], drive with
/// [`Core::step_run`], close with [`Core::finish_run`].
#[derive(Debug)]
pub struct RunSession {
    stats: RunStats,
    start_cycle: u64,
    n_ops: u64,
    // The ROB: a ring whose length is a power of two, at least the
    // ROB size. The op with sequence number `seq` sits at
    // `rob[seq & (len - 1)]` while `base <= seq < dispatched`.
    rob: Vec<Slot>,
    base: u64, // sequence number of the oldest op in the ROB
    dispatched: u64,
    committed: u64,
    // Resolutions collected from the hierarchy each step: the sequence
    // number of a parked load and its completion cycle. Kept across
    // steps so collecting does not allocate.
    resolved_buf: Vec<(u64, u64)>,
    // Event calendar, kept at the clock: future completion cycles of
    // issued ops and resolved misses (the earliest drives the
    // no-progress time jump), and slots unblocked but not ready until a
    // future cycle.
    calendar: TimingWheel,
    // Ring positions of the slots that may issue now: dispatched, not
    // issued, every producer known-complete by this cycle.
    ready: ReadyBits,
    // Ring positions holding memory ops (loads and stores), one bit
    // each, written at dispatch: the memory-port cap's mask.
    mem: Vec<u64>,
    // Front-end state.
    fetch_ready_at: u64, // I-miss stall
    redirect_pending: bool, // mispredict: blocked until resolve
    fetch_resume_at: u64,
    pending_op: Option<crate::op::MicroOp>,
    last_fetch_line: u64,
}

impl RunSession {
    /// Ops committed so far in this window.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Ring position of the op with sequence number `seq`.
    fn pos(&self, seq: u64) -> usize {
        (seq & (self.rob.len() as u64 - 1)) as usize
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.rob[self.pos(seq)]
    }

    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        let pos = self.pos(seq);
        &mut self.rob[pos]
    }

    /// Files the slot at ring position `pos`, whose producers are all
    /// known-complete: into the ready set if its `ready_at` has arrived,
    /// else into the calendar.
    #[inline(always)]
    fn file_ready(&mut self, now: u64, pos: usize) {
        let ready_at = self.rob[pos].ready_at;
        if ready_at <= now {
            self.ready.insert(pos);
        } else {
            self.calendar.push_ready(ready_at, pos);
        }
    }

    /// Records that the slot at ring position `pos` completes at `done`:
    /// enters the cycle in the completion calendar, then notifies the
    /// slot's registered consumers, decrementing their
    /// outstanding-dependence counts and filing each newly unblocked one.
    #[inline(always)]
    fn complete(&mut self, now: u64, pos: usize, done: u64) {
        self.rob[pos].complete_at = done;
        if done > now {
            self.calendar.push_done(done);
        }
        let mut link = std::mem::replace(&mut self.rob[pos].consumers, NO_LINK);
        while link != NO_LINK {
            // Consumers are strictly younger than their producer and
            // cannot commit before it, so they are still in the ROB.
            let c = link / 2;
            let s = &mut self.rob[c];
            link = s.next[link % 2];
            s.ready_at = s.ready_at.max(done);
            s.unresolved -= 1;
            if s.unresolved == 0 {
                self.file_ready(now, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::InsecureBackend;
    use crate::op::{MicroOp, StrideWorkload};

    /// A scripted workload for microbenchmark-style pipeline tests.
    struct Script {
        ops: Vec<MicroOp>,
        idx: usize,
    }

    impl Script {
        fn repeat(op: MicroOp) -> Self {
            Self {
                ops: vec![op],
                idx: 0,
            }
        }

        fn cycle(ops: Vec<MicroOp>) -> Self {
            Self { ops, idx: 0 }
        }
    }

    impl Workload for Script {
        fn next_op(&mut self) -> MicroOp {
            let op = self.ops[self.idx % self.ops.len()];
            self.idx += 1;
            op
        }
        fn name(&self) -> &str {
            "script"
        }
    }

    fn core() -> Core<InsecureBackend> {
        Core::new(PipelineConfig::paper_default(), InsecureBackend::new(100, 0))
    }

    #[test]
    fn independent_alu_ops_reach_full_width() {
        let mut c = core();
        let stats = c.run(
            &mut Script::repeat(MicroOp::new(0x1000, OpClass::IntAlu)),
            40_000,
        );
        // 4-wide with 16-entry ROB: IPC close to 4.
        assert!(stats.ipc() > 3.0, "ipc {}", stats.ipc());
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn serial_dependence_chain_limits_ipc_to_one() {
        let mut c = core();
        let op = MicroOp::new(0x1000, OpClass::IntAlu).with_deps(1, 0);
        let stats = c.run(&mut Script::repeat(op), 20_000);
        assert!(stats.ipc() <= 1.05, "ipc {}", stats.ipc());
        assert!(stats.ipc() > 0.9, "ipc {}", stats.ipc());
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn imul_chain_runs_at_one_third_ipc() {
        let mut c = core();
        let op = MicroOp::new(0x1000, OpClass::IntMul).with_deps(1, 0);
        let stats = c.run(&mut Script::repeat(op), 9_000);
        let cpi = stats.cpi();
        assert!((2.8..3.3).contains(&cpi), "cpi {cpi}");
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn l1_resident_loads_are_fast() {
        let mut c = core();
        // 16 addresses in one 4KB page: fits L1D easily.
        let ops: Vec<MicroOp> = (0..16)
            .map(|i| MicroOp::new(0x1000, OpClass::Load(0x8000 + i * 32)))
            .collect();
        let mut w = Script::cycle(ops);
        c.run(&mut w, 1_000); // warm
        let stats = c.run(&mut w, 10_000);
        assert!(stats.ipc() > 1.8, "ipc {}", stats.ipc());
    }

    #[test]
    fn memory_bound_pointer_chase_exposes_dram_latency() {
        let mut c = core();
        // Serial dependent loads over a huge working set: every load is
        // an L2 miss costing ~107 cycles, fully serialised.
        let mut w = StrideWorkload::new(64 << 20, 128, 1.0);
        // Make it serial: StrideWorkload already sets dep1 = 1.
        c.run(&mut w, 2_000);
        c.reset_stats();
        let stats = c.run(&mut w, 4_000);
        let cpi = stats.cpi();
        assert!(cpi > 80.0, "cpi {cpi} should be memory dominated");
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn rob_caps_memory_level_parallelism() {
        // Independent loads: with ROB 16 some misses overlap, so CPI is
        // well under the serial 107 but far above 1.
        let mut c = core();
        struct WideLoads {
            i: u64,
        }
        impl Workload for WideLoads {
            fn next_op(&mut self) -> MicroOp {
                self.i += 1;
                MicroOp::new(0x1000, OpClass::Load(self.i * 128 % (256 << 20)))
            }
            fn name(&self) -> &str {
                "wide"
            }
        }
        let stats = c.run(&mut WideLoads { i: 0 }, 4_000);
        let cpi = stats.cpi();
        // Theoretical MLP limit: ~107-cycle misses / 16-entry ROB ≈ 6.7.
        assert!(cpi < 20.0, "cpi {cpi}: ROB-wide MLP expected");
        assert!(cpi > 4.0, "cpi {cpi}: misses must still dominate");
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn mispredicted_branches_cost_redirect_cycles() {
        let mut well_predicted = core();
        let mut poorly_predicted = core();
        // Alternating taken/not-taken at one PC defeats bimodal.
        struct Alt {
            i: u64,
            every: u64,
        }
        impl Workload for Alt {
            fn next_op(&mut self) -> MicroOp {
                self.i += 1;
                if self.i.is_multiple_of(4) {
                    MicroOp::new(0x2000, OpClass::Branch {
                        taken: (self.i / 4).is_multiple_of(self.every),
                    })
                } else {
                    MicroOp::new(0x1000 + (self.i % 4) * 4, OpClass::IntAlu)
                }
            }
            fn name(&self) -> &str {
                "alt"
            }
        }
        let good = well_predicted.run(&mut Alt { i: 0, every: u64::MAX }, 20_000);
        let bad = poorly_predicted.run(&mut Alt { i: 0, every: 2 }, 20_000);
        assert!(bad.mispredicts > good.mispredicts + 1000);
        assert!(bad.cycles > good.cycles, "mispredicts must cost cycles");
        assert_eq!(bad.forced_steps, 0);
    }

    #[test]
    fn stats_count_op_classes() {
        let mut c = core();
        let stats = c.run(&mut StrideWorkload::new(4096, 64, 0.25), 10_000);
        assert_eq!(stats.instructions, 10_000);
        assert!(stats.loads > 0);
        assert!(stats.stores > 0);
        assert!(stats.branches > 0);
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn run_resumes_from_previous_state() {
        let mut c = core();
        let mut w = StrideWorkload::new(4096, 64, 0.25);
        c.run(&mut w, 1_000);
        let t0 = c.now();
        c.run(&mut w, 1_000);
        assert!(c.now() > t0);
    }

    #[test]
    fn mixed_latency_producers_file_consumers_through_ready_calendar() {
        // A multiply (latency 3) feeding an ALU op (latency 1) exercises
        // the future-readiness path: the consumer's ready cycle is known
        // at the producer's issue but lies ahead of `now`, so it must
        // wait on the calendar without being lost or issued early.
        let mut c = core();
        let ops = vec![
            MicroOp::new(0x1000, OpClass::IntMul).with_deps(3, 0),
            MicroOp::new(0x1004, OpClass::IntAlu).with_deps(1, 0),
            MicroOp::new(0x1008, OpClass::IntAlu).with_deps(1, 0),
        ];
        let stats = c.run(&mut Script::cycle(ops), 9_000);
        // The serial multiply chain gates each 3-op group at 3 cycles.
        let cpi = stats.cpi();
        assert!((0.95..1.15).contains(&cpi), "cpi {cpi}");
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn issue_pass_matches_a_naive_oldest_first_scan() {
        let width = PIPELINE_WIDTH as usize;
        for ring in [1usize, 2, 16, 64, 128, 2048, 8192] {
            let mask = ring - 1;
            // Members at both ends of the ring (either side of the wrap
            // point), either side of every 64-bit word boundary, a
            // scatter, and every position.
            let patterns: [Vec<usize>; 7] = [
                vec![],
                vec![0],
                vec![mask],
                vec![0, mask],
                (64..ring).step_by(64).flat_map(|b| [b - 1, b]).collect(),
                (0..ring).filter(|p| (p * 37 + 11) % 7 == 0).collect(),
                (0..ring).collect(),
            ];
            // Every start; on the largest ring, the starts around each
            // word boundary, the wrap point among them.
            let starts: Vec<usize> = if ring <= 2048 {
                (0..ring).collect()
            } else {
                (0..ring)
                    .step_by(64)
                    .flat_map(|b| [(b + mask) & mask, b, b + 1])
                    .collect()
            };
            for mut members in patterns {
                members.dedup();
                // Split the members between memory and non-memory ops:
                // alternating, and three memory ops to one other, so
                // the port cap binds before the width cap.
                for mem_share in [2usize, 4] {
                    let mut words = vec![0u64; ring.div_ceil(64)];
                    let mut mem = vec![0u64; ring.div_ceil(64)];
                    let mut is_mem = vec![false; ring];
                    let mut member = vec![false; ring];
                    for (i, &p) in members.iter().enumerate() {
                        words[p / 64] |= 1 << (p % 64);
                        member[p] = true;
                        if i % mem_share != 0 {
                            mem[p / 64] |= 1 << (p % 64);
                            is_mem[p] = true;
                        }
                    }
                    let mut ready = ReadyBits {
                        words: words.clone(),
                        count: members.len(),
                    };
                    for &start in &starts {
                        for span in [ring, ring / 2 + 1, 1, 0] {
                            for mem_ports in [1u32, 2, 4] {
                                let mut want = Vec::new();
                                let mut mems = 0;
                                let mut d = 0;
                                while d < span && want.len() < width {
                                    let p = (start + d) & mask;
                                    d += 1;
                                    if !member[p] || (is_mem[p] && mems == mem_ports) {
                                        continue;
                                    }
                                    mems += u32::from(is_mem[p]);
                                    want.push(p);
                                }
                                let picks = ready.take_issue(&mem, ring, start, span, mem_ports);
                                let case = (ring, start, span, mem_ports, mem_share, &members);
                                assert_eq!(picks.as_slice(), want, "{case:?}");
                                // The picks, and only they, left the set.
                                assert_eq!(ready.count, members.len() - want.len(), "{case:?}");
                                for &p in &want {
                                    ready.insert(p);
                                }
                                assert_eq!(ready.words, words, "{case:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    fn core_with(edit: impl FnOnce(&mut PipelineConfig)) -> Core<InsecureBackend> {
        let mut config = PipelineConfig::paper_default();
        edit(&mut config);
        Core::new(config, InsecureBackend::new(100, 0))
    }

    #[test]
    #[should_panic(expected = "rob_size must be positive")]
    fn zero_rob_size_rejected() {
        core_with(|c| c.rob_size = 0);
    }

    #[test]
    #[should_panic(expected = "mem_ports must be positive")]
    fn zero_mem_ports_rejected() {
        core_with(|c| c.mem_ports = 0);
    }

    #[test]
    fn ipc_and_cpi_are_reciprocal() {
        let stats = RunStats {
            instructions: 100,
            cycles: 200,
            ..Default::default()
        };
        assert_eq!(stats.ipc(), 0.5);
        assert_eq!(stats.cpi(), 2.0);
    }
}
