//! The workload generator and the 11-benchmark SPEC2000-like suite.

use crate::profile::SpecProfile;
use padlock_cpu::{MicroOp, OpClass, Workload};

/// Base virtual address of the code segment.
pub const CODE_BASE: u64 = 0x0001_0000;
/// Base virtual address of the hot (cache-friendly) data region.
pub const HOT_BASE: u64 = 0x0100_0000;
/// Base virtual address of the streaming region.
pub const STREAM_BASE: u64 = 0x1000_0000;
/// Base virtual address of the pointer-chase region.
pub const CHASE_BASE: u64 = 0x2000_0000;
/// Base virtual address of the drifting-allocation region.
pub const DRIFT_BASE: u64 = 0x4000_0000;
/// Base virtual address of the *ancient heap*: memory the process wrote
/// long before the measured window (the paper fast-forwards 10 billion
/// instructions). Cold reads of long-dead allocations land here.
pub const ANCIENT_BASE: u64 = 0x7000_0000;
const LINE: u64 = 128;

/// Fast deterministic generator (xorshift64*).
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// A deterministic synthetic benchmark built from a [`SpecProfile`].
///
/// # Examples
///
/// ```
/// use padlock_workloads::{SpecProfile, SpecWorkload};
/// use padlock_cpu::Workload;
///
/// let mut w = SpecWorkload::new(SpecProfile::base("toy", 42));
/// assert_eq!(w.name(), "toy");
/// let _first = w.next_op();
/// ```
#[derive(Debug, Clone)]
pub struct SpecWorkload {
    profile: SpecProfile,
    rng: Rng,
    read_cdf: [f64; 4],
    write_cdf: [f64; 4],
    // program counter state
    pc: u64,
    code_window: u64,
    // stream state
    stream_cursor: u64,
    // drift state
    drift_window_base: u64, // frontier, in line units within the region
    drift_write_off: u64,   // byte offset of the bump pointer in its line
    drift_writes: u32,
    // chase-run state: per-stream (base line, lines consumed) of the
    // neighbour-list run currently being walked
    chase_runs: Vec<(u64, u64)>,
    chase_cursor: usize,
    // dependence state
    ops_since_chase_load: u16,
    op_index: u64,
}

impl SpecWorkload {
    /// Builds the workload, validating the profile.
    pub fn new(profile: SpecProfile) -> Self {
        profile.validate();
        let norm = |mix: &[f64; 4]| -> [f64; 4] {
            let total: f64 = mix.iter().sum();
            let mut acc = 0.0;
            let mut out = [0.0; 4];
            for i in 0..4 {
                acc += mix[i] / total;
                out[i] = acc;
            }
            out
        };
        let read_cdf = norm(&profile.read_mix);
        let write_cdf = norm(&profile.write_mix);
        let rng = Rng::new(profile.seed);
        let stride = profile.drift_line_stride.max(1);
        let initial_frontier = (profile.drift_window_bytes / LINE).max(1)
            % (profile.drift_region_bytes / LINE / stride).max(1);
        Self {
            profile,
            rng,
            read_cdf,
            write_cdf,
            pc: CODE_BASE,
            code_window: 0,
            stream_cursor: 0,
            drift_window_base: initial_frontier,
            drift_write_off: 0,
            drift_writes: 0,
            chase_runs: Vec::new(),
            chase_cursor: 0,
            ops_since_chase_load: 0,
            op_index: 0,
        }
    }

    /// The profile driving this workload.
    pub fn profile(&self) -> &SpecProfile {
        &self.profile
    }

    fn pick(cdf: &[f64; 4], u: f64) -> usize {
        cdf.iter().position(|&c| u < c).unwrap_or(3)
    }

    /// Hot accesses are tiered like real scalar/stack traffic: most go
    /// to an L1-resident core, some to an L2-resident middle, and a
    /// trickle ranges over the whole declared region.
    fn hot_addr(&mut self) -> u64 {
        let bytes = self.profile.hot_bytes;
        let u = self.rng.below(100);
        let span = if u < 80 {
            (bytes / 16).max(8)
        } else if u < 98 {
            (bytes / 2).max(8)
        } else {
            bytes
        };
        HOT_BASE + self.rng.below(span / 8) * 8
    }

    fn stream_addr(&mut self) -> u64 {
        self.stream_cursor = (self.stream_cursor + 8) % self.profile.stream_bytes.max(8);
        STREAM_BASE + self.stream_cursor
    }

    /// The chase region: uniform random lines when `chase_run_lines`
    /// is 1 (the classic pointer chase), otherwise `chase_streams`
    /// concurrently-walked neighbour-list runs — each stream walks
    /// `chase_run_lines` consecutive lines from a random base before
    /// popping the next (random) vertex, and successive chase loads
    /// rotate round-robin over the streams, interleaving the runs the
    /// way a BFS inner loop interleaves the frontier's edge lists.
    fn chase_addr(&mut self) -> u64 {
        let lines = (self.profile.chase_bytes / LINE).max(1);
        let run = self.profile.chase_run_lines.max(1);
        let streams = self.profile.chase_streams.max(1);
        if run == 1 && streams == 1 {
            return CHASE_BASE + self.rng.below(lines) * LINE + self.rng.below(16) * 8;
        }
        while self.chase_runs.len() < streams {
            let base = self.rng.below(lines);
            self.chase_runs.push((base, 0));
        }
        self.chase_cursor = (self.chase_cursor + 1) % streams;
        let (base, consumed) = &mut self.chase_runs[self.chase_cursor];
        if *consumed >= run {
            *base = self.rng.below(lines);
            *consumed = 0;
        }
        let line = (*base + *consumed) % lines;
        *consumed += 1;
        CHASE_BASE + line * LINE + self.rng.below(16) * 8
    }

    /// The drift region models an allocation front: writes fill memory
    /// sequentially at the frontier (8 bytes per `drift_advance_every`
    /// stores, i.e. each line absorbs `16 * drift_advance_every` stores
    /// before the frontier moves on, like a real allocator's bump
    /// pointer), and reads revisit the *trailing window* of recently
    /// written lines, plus an optional cold fraction over the whole
    /// region.
    fn drift_addr(&mut self, is_write: bool) -> u64 {
        let stride = self.profile.drift_line_stride.max(1);
        let region_slots = (self.profile.drift_region_bytes / LINE / stride).max(1);
        let window_slots = (self.profile.drift_window_bytes / LINE).max(1);
        let to_addr = |slot: u64, off: u64| DRIFT_BASE + slot * stride * LINE + off;
        if is_write {
            self.drift_writes += 1;
            let addr = to_addr(self.drift_window_base % region_slots, self.drift_write_off);
            if self.drift_writes >= self.profile.drift_advance_every {
                self.drift_writes = 0;
                self.drift_write_off += 8;
                if self.drift_write_off >= LINE {
                    self.drift_write_off = 0;
                    self.drift_window_base = (self.drift_window_base + 1) % region_slots;
                }
            }
            return addr;
        }
        if !is_write && self.rng.unit() < self.profile.drift_cold_read_frac {
            // A read of a long-dead allocation in the ancient heap.
            let lines = self.profile.ancient_lines.max(1);
            return ANCIENT_BASE + self.rng.below(lines) * LINE + self.rng.below(16) * 8;
        }
        let slot = {
            // Trailing window: the last `window_slots` written.
            let back = 1 + self.rng.below(window_slots);
            (self.drift_window_base + region_slots - back) % region_slots
        };
        to_addr(slot, self.rng.below(16) * 8)
    }

    /// Whether the drift region is *rewrite-style* (the window spans the
    /// whole region, as in `equake`'s in-place array updates) rather
    /// than *allocation-style* (a frontier over fresh memory).
    fn rewrite_style(&self) -> bool {
        self.profile.drift_region_bytes > 0
            && self.profile.drift_window_bytes == self.profile.drift_region_bytes
    }

    /// Lines of the ancient heap, oldest-allocated first.
    pub fn ancient_line_addrs(&self) -> impl Iterator<Item = u64> {
        (0..self.profile.ancient_lines).map(|l| ANCIENT_BASE + l * LINE)
    }

    /// Lines the process actively rewrites in place (empty for
    /// allocation-style benchmarks, whose frontier touches only fresh
    /// memory).
    pub fn active_line_addrs(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        if self.rewrite_style() {
            let stride = self.profile.drift_line_stride.max(1);
            let region_slots = self.profile.drift_region_bytes / LINE / stride;
            Box::new((0..region_slots).map(move |slot| DRIFT_BASE + slot * stride * LINE))
        } else {
            Box::new(std::iter::empty())
        }
    }

    fn mem_addr(&mut self, is_write: bool) -> (u64, bool) {
        let cdf = if is_write {
            self.write_cdf
        } else {
            self.read_cdf
        };
        let u = self.rng.unit();
        match Self::pick(&cdf, u) {
            0 => (self.hot_addr(), false),
            1 => (self.stream_addr(), false),
            2 => (self.chase_addr(), true),
            _ => (self.drift_addr(is_write), false),
        }
    }

    fn advance_pc(&mut self, taken_jump: bool) -> u64 {
        let code = self.profile.code_bytes.max(64);
        if taken_jump {
            // Function-level locality: jumps stay inside a 4KB window,
            // occasionally (2%) moving to a new window.
            if self.rng.below(50) == 0 || self.code_window == 0 {
                self.code_window = self.rng.below(code.div_ceil(4096).max(1)) * 4096;
            }
            self.pc = CODE_BASE + self.code_window + self.rng.below(1024) * 4;
        } else {
            self.pc += 4;
            if self.pc >= CODE_BASE + code {
                self.pc = CODE_BASE;
            }
        }
        self.pc
    }

    /// Deterministic per-site hash in [0, 1).
    fn site_hash(pc: u64) -> f64 {
        let mut x = pc.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^= x >> 33;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Workload for SpecWorkload {
    fn next_op(&mut self) -> MicroOp {
        self.op_index += 1;
        self.ops_since_chase_load = self.ops_since_chase_load.saturating_add(1);
        let u = self.rng.unit();
        let (load_frac, store_frac, branch_frac, fp_frac, serial, flip_frac) = (
            self.profile.load_frac,
            self.profile.store_frac,
            self.profile.branch_frac,
            self.profile.fp_frac,
            self.profile.serial_chase,
            self.profile.branch_flip_frac,
        );
        let pc = self.advance_pc(false);

        if u < load_frac {
            let (addr, is_chase) = self.mem_addr(false);
            let dep = if is_chase && serial {
                let d = self.ops_since_chase_load;
                self.ops_since_chase_load = 0;
                d
            } else if is_chase && self.profile.independent_chase {
                // Frontier/index-array traversal: the address came from
                // a queue filled long ago — no nearby producer.
                self.ops_since_chase_load = 0;
                0
            } else {
                if is_chase {
                    self.ops_since_chase_load = 0;
                }
                1 + (self.rng.below(3) as u16)
            };
            MicroOp::new(pc, OpClass::Load(addr)).with_deps(dep, 0)
        } else if u < load_frac + store_frac {
            let (addr, _) = self.mem_addr(true);
            MicroOp::new(pc, OpClass::Store(addr)).with_deps(1, 0)
        } else if u < load_frac + store_frac + branch_frac {
            // Branch site: a handful of sites per code window.
            let site = pc & !0xFF;
            let flip = Self::site_hash(site) < flip_frac;
            let taken = if flip {
                self.rng.below(2) == 0
            } else {
                // Heavily biased (predictable) branch.
                self.rng.unit() < 0.92
            };
            if taken {
                self.advance_pc(true);
            }
            MicroOp::new(pc, OpClass::Branch { taken }).with_deps(1, 0)
        } else {
            let fp = self.rng.unit() < fp_frac;
            let class = if fp {
                if self.rng.below(3) == 0 {
                    OpClass::FpMul
                } else {
                    OpClass::FpAlu
                }
            } else if self.rng.below(24) == 0 {
                OpClass::IntMul
            } else {
                OpClass::IntAlu
            };
            let dep1 = 1 + (self.rng.below(4) as u16);
            let dep2 = if self.rng.below(2) == 0 {
                2 + (self.rng.below(6) as u16)
            } else {
                0
            };
            MicroOp::new(pc, class).with_deps(dep1, dep2)
        }
    }

    fn name(&self) -> &str {
        self.profile.name
    }
}

/// The 11 benchmarks of the paper's figures, in figure order.
pub const BENCHMARK_NAMES: [&str; 11] = [
    "ammp", "art", "bzip2", "equake", "gcc", "gzip", "mcf", "mesa", "parser", "vortex", "vpr",
];

/// Profiles [`benchmark_profile`] knows beyond the 11 figure
/// benchmarks: stress workloads for the MLP and bank sweeps — `bfs`
/// (independent random reads, deep MLP for banks to overlap) and
/// `rstride` (a serial random-stride walk that row-conflicts on every
/// access).
pub const STRESS_NAMES: [&str; 2] = ["bfs", "rstride"];

/// Builds the full 11-benchmark suite in the paper's figure order.
///
/// The behavioural parameters are calibrated so the *baseline* miss
/// profile of each generator lands in the regime the paper's numbers
/// imply (memory-boundness ordering, written-working-set sizes relative
/// to SNC coverage, code footprints). See `DESIGN.md` §3.
pub fn spec2000_suite() -> Vec<SpecWorkload> {
    BENCHMARK_NAMES
        .iter()
        .map(|n| SpecWorkload::new(benchmark_profile(n)))
        .collect()
}

/// Assigns a workload generator to each compartment of an `cores`-core
/// secure server: round-robin over the figure-order benchmark suite
/// (compartment `c` runs the `c mod 11`-th profile), or — when `pinned`
/// names a benchmark — that one generator for every compartment, so a
/// contention sweep can isolate fabric effects from workload mix.
/// Generators are fresh (independent RNG state per compartment);
/// callers offset their addresses into the compartment's stripe.
pub fn compartment_assignment(cores: usize, pinned: Option<&str>) -> Vec<SpecWorkload> {
    (0..cores)
        .map(|c| {
            let name = pinned.unwrap_or(BENCHMARK_NAMES[c % BENCHMARK_NAMES.len()]);
            SpecWorkload::new(benchmark_profile(name))
        })
        .collect()
}

/// The calibrated profile for one named benchmark.
///
/// # Panics
///
/// Panics for names outside [`BENCHMARK_NAMES`].
pub fn benchmark_profile(name: &str) -> SpecProfile {
    let p = match name {
        // FP molecular dynamics: pointer-ish reads plus a written region just
        // above SNC coverage (associativity-sensitive, Fig. 7).
        "ammp" => SpecProfile {
            name: "ammp",
            load_frac: 0.26,
            store_frac: 0.09,
            branch_frac: 0.12,
            fp_frac: 0.3,
            hot_bytes: 80 << 10,
            stream_bytes: 0,
            chase_bytes: 4 << 20,
            drift_region_bytes: 32 << 20,
            drift_window_bytes: 1280 << 10,
            drift_advance_every: 2,
            drift_line_stride: 4,
            read_mix: [0.9705, 0.0, 0.023, 0.0065],
            write_mix: [0.55, 0.0, 0.0, 0.45],
            ancient_lines: 96 * 1024,
            drift_cold_read_frac: 0.25,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: false,
            independent_chase: false,
            code_bytes: 32 << 10,
            branch_flip_frac: 0.06,
            seed: 0xa301,
        },
        // FP image recognition: pure streaming over big read-only arrays,
        // tiny write set.
        "art" => SpecProfile {
            name: "art",
            load_frac: 0.32,
            store_frac: 0.06,
            branch_frac: 0.1,
            fp_frac: 0.35,
            hot_bytes: 64 << 10,
            stream_bytes: 8 << 20,
            chase_bytes: 0,
            drift_region_bytes: 0,
            drift_window_bytes: 0,
            drift_advance_every: 8,
            drift_line_stride: 1,
            read_mix: [0.02, 0.98, 0.0, 0.0],
            write_mix: [1.0, 0.0, 0.0, 0.0],
            ancient_lines: 2 * 1024,
            drift_cold_read_frac: 0.0,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: false,
            independent_chase: false,
            code_bytes: 16 << 10,
            branch_flip_frac: 0.03,
            seed: 0xa302,
        },
        // Compression: moderate streaming, written set well inside SNC
        // coverage.
        "bzip2" => SpecProfile {
            name: "bzip2",
            load_frac: 0.26,
            store_frac: 0.11,
            branch_frac: 0.13,
            fp_frac: 0.0,
            hot_bytes: 128 << 10,
            stream_bytes: 4 << 20,
            chase_bytes: 0,
            drift_region_bytes: 1792 << 10,
            drift_window_bytes: 1792 << 10,
            drift_advance_every: 1,
            drift_line_stride: 1,
            read_mix: [0.928, 0.06, 0.0, 0.012],
            write_mix: [0.5, 0.0, 0.0, 0.5],
            ancient_lines: 4 * 1024,
            drift_cold_read_frac: 0.1,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: false,
            independent_chase: false,
            code_bytes: 32 << 10,
            branch_flip_frac: 0.1,
            seed: 0xa303,
        },
        // FP earthquake simulation: streaming reads; ~3MB written set that a
        // 64KB SNC covers but a 32KB one thrashes (Fig. 6).
        "equake" => SpecProfile {
            name: "equake",
            load_frac: 0.28,
            store_frac: 0.1,
            branch_frac: 0.12,
            fp_frac: 0.35,
            hot_bytes: 64 << 10,
            stream_bytes: 8 << 20,
            chase_bytes: 0,
            drift_region_bytes: 2560 << 10,
            drift_window_bytes: 2560 << 10,
            drift_advance_every: 1,
            drift_line_stride: 1,
            read_mix: [0.9085, 0.085, 0.0, 0.0065],
            write_mix: [0.3, 0.0, 0.0, 0.7],
            ancient_lines: 4 * 1024,
            drift_cold_read_frac: 0.0,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: false,
            independent_chase: false,
            code_bytes: 32 << 10,
            branch_flip_frac: 0.04,
            seed: 0xa304,
        },
        // Compiler: a drifting allocation front over a huge footprint - early
        // lines hog a no-replacement SNC (the paper's gcc observation)
        // while LRU tracks the fresh window.
        "gcc" => SpecProfile {
            name: "gcc",
            load_frac: 0.25,
            store_frac: 0.13,
            branch_frac: 0.16,
            fp_frac: 0.0,
            hot_bytes: 160 << 10,
            stream_bytes: 0,
            chase_bytes: 0,
            drift_region_bytes: 24 << 20,
            drift_window_bytes: 512 << 10,
            drift_advance_every: 1,
            drift_line_stride: 1,
            read_mix: [0.973, 0.0, 0.0, 0.027],
            write_mix: [0.15, 0.0, 0.0, 0.85],
            ancient_lines: 96 * 1024,
            drift_cold_read_frac: 0.025,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: false,
            independent_chase: false,
            code_bytes: 64 << 10,
            branch_flip_frac: 0.12,
            seed: 0xa305,
        },
        // Compression with a small dictionary: nearly cache-resident.
        "gzip" => SpecProfile {
            name: "gzip",
            load_frac: 0.22,
            store_frac: 0.1,
            branch_frac: 0.14,
            fp_frac: 0.0,
            hot_bytes: 96 << 10,
            stream_bytes: 512 << 10,
            chase_bytes: 0,
            drift_region_bytes: 8 << 20,
            drift_window_bytes: 512 << 10,
            drift_advance_every: 4,
            drift_line_stride: 1,
            read_mix: [0.9915, 0.008, 0.0, 0.0005],
            write_mix: [0.65, 0.0, 0.0, 0.35],
            ancient_lines: 96 * 1024,
            drift_cold_read_frac: 0.15,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: false,
            independent_chase: false,
            code_bytes: 16 << 10,
            branch_flip_frac: 0.08,
            seed: 0xa306,
        },
        // Network-flow solver: serial pointer chasing over a huge read-mostly
        // graph plus writes far beyond SNC coverage.
        "mcf" => SpecProfile {
            name: "mcf",
            load_frac: 0.32,
            store_frac: 0.08,
            branch_frac: 0.15,
            fp_frac: 0.0,
            hot_bytes: 64 << 10,
            stream_bytes: 0,
            chase_bytes: 20 << 20,
            drift_region_bytes: 16 << 20,
            drift_window_bytes: 2 << 20,
            drift_advance_every: 2,
            drift_line_stride: 1,
            read_mix: [0.926, 0.0, 0.041, 0.033],
            write_mix: [0.2, 0.0, 0.0, 0.8],
            ancient_lines: 96 * 1024,
            drift_cold_read_frac: 0.1,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: true,
            independent_chase: false,
            code_bytes: 16 << 10,
            branch_flip_frac: 0.15,
            seed: 0xa307,
        },
        // FP graphics: compute-bound, cache-resident.
        "mesa" => SpecProfile {
            name: "mesa",
            load_frac: 0.2,
            store_frac: 0.09,
            branch_frac: 0.12,
            fp_frac: 0.4,
            hot_bytes: 200 << 10,
            stream_bytes: 0,
            chase_bytes: 0,
            drift_region_bytes: 0,
            drift_window_bytes: 0,
            drift_advance_every: 8,
            drift_line_stride: 1,
            read_mix: [1.0, 0.0, 0.0, 0.0],
            write_mix: [1.0, 0.0, 0.0, 0.0],
            ancient_lines: 2 * 1024,
            drift_cold_read_frac: 0.0,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: false,
            independent_chase: false,
            code_bytes: 32 << 10,
            branch_flip_frac: 0.04,
            seed: 0xa308,
        },
        // NLP parser: pointer chasing plus a drifting allocation front far
        // beyond SNC coverage.
        "parser" => SpecProfile {
            name: "parser",
            load_frac: 0.27,
            store_frac: 0.11,
            branch_frac: 0.16,
            fp_frac: 0.0,
            hot_bytes: 128 << 10,
            stream_bytes: 0,
            chase_bytes: 4 << 20,
            drift_region_bytes: 16 << 20,
            drift_window_bytes: 768 << 10,
            drift_advance_every: 1,
            drift_line_stride: 1,
            read_mix: [0.99, 0.0, 0.003, 0.007],
            write_mix: [0.3, 0.0, 0.0, 0.7],
            ancient_lines: 96 * 1024,
            drift_cold_read_frac: 0.02,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: false,
            independent_chase: false,
            code_bytes: 64 << 10,
            branch_flip_frac: 0.12,
            seed: 0xa309,
        },
        // OO database: big hot set (gains from the Fig. 8 larger L2), steady
        // writes over a drifting region, large code.
        "vortex" => SpecProfile {
            name: "vortex",
            load_frac: 0.26,
            store_frac: 0.13,
            branch_frac: 0.14,
            fp_frac: 0.0,
            hot_bytes: 144 << 10,
            stream_bytes: 0,
            chase_bytes: 0,
            drift_region_bytes: 16 << 20,
            drift_window_bytes: 320 << 10,
            drift_advance_every: 1,
            drift_line_stride: 1,
            read_mix: [0.994, 0.0, 0.0, 0.006],
            write_mix: [0.5, 0.0, 0.0, 0.5],
            ancient_lines: 96 * 1024,
            drift_cold_read_frac: 0.05,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: false,
            independent_chase: false,
            code_bytes: 64 << 10,
            branch_flip_frac: 0.08,
            seed: 0xa30a,
        },
        // FPGA place & route: random reads over a large netlist, tiny write
        // set.
        "vpr" => SpecProfile {
            name: "vpr",
            load_frac: 0.28,
            store_frac: 0.09,
            branch_frac: 0.14,
            fp_frac: 0.15,
            hot_bytes: 96 << 10,
            stream_bytes: 0,
            chase_bytes: 8 << 20,
            drift_region_bytes: 0,
            drift_window_bytes: 0,
            drift_advance_every: 8,
            drift_line_stride: 1,
            read_mix: [0.979, 0.0, 0.021, 0.0],
            write_mix: [1.0, 0.0, 0.0, 0.0],
            ancient_lines: 2 * 1024,
            drift_cold_read_frac: 0.0,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: false,
            independent_chase: false,
            code_bytes: 32 << 10,
            branch_flip_frac: 0.1,
            seed: 0xa30b,
        },
        // Graph traversal (breadth-first over a large out-of-core
        // adjacency structure): dense *independent* reads — frontier
        // vertices were queued long before their neighbour lists are
        // fetched — plus a store front writing visit marks. Each
        // frontier pop lands at a random vertex whose *edge list* is a
        // sequential run of lines, and several lists are walked
        // concurrently (interleaved streams): the access shape that
        // keeps reopening DRAM rows under an arrival-order drain and
        // that FR-FCFS row grouping converts back into open-row hits.
        // Not one of the paper's 11 figure benchmarks; this is the
        // memory-level-parallelism stress workload the `repro --mlp`
        // end-to-end sweep records its trace from.
        "bfs" => SpecProfile {
            name: "bfs",
            load_frac: 0.44,
            store_frac: 0.12,
            branch_frac: 0.12,
            fp_frac: 0.0,
            hot_bytes: 48 << 10,
            stream_bytes: 0,
            chase_bytes: 32 << 20,
            drift_region_bytes: 16 << 20,
            drift_window_bytes: 1 << 20,
            drift_advance_every: 1,
            drift_line_stride: 1,
            read_mix: [0.17, 0.0, 0.73, 0.1],
            write_mix: [0.2, 0.0, 0.0, 0.8],
            ancient_lines: 96 * 1024,
            drift_cold_read_frac: 0.3,
            chase_run_lines: 16,
            chase_streams: 2,
            serial_chase: false,
            independent_chase: true,
            code_bytes: 16 << 10,
            branch_flip_frac: 0.08,
            seed: 0xa30c,
        },
        // Random-stride pointer walk: every chase load's target comes
        // out of the previous load (serial dependence chain), and
        // consecutive targets land in uniformly random lines of a
        // 32MB region — the adversarial traffic for a row-buffer
        // memory. There is no memory-level parallelism for banks to
        // overlap and essentially no open-row reuse, so on a banked
        // fabric every DRAM access pays the precharge + activate
        // conflict path: the row-conflict-bound counterpart to `bfs`'s
        // bank-parallel independent chase.
        "rstride" => SpecProfile {
            name: "rstride",
            load_frac: 0.40,
            store_frac: 0.06,
            branch_frac: 0.10,
            fp_frac: 0.0,
            hot_bytes: 32 << 10,
            stream_bytes: 0,
            chase_bytes: 32 << 20,
            drift_region_bytes: 0,
            drift_window_bytes: 0,
            drift_advance_every: 8,
            drift_line_stride: 1,
            read_mix: [0.15, 0.0, 0.85, 0.0],
            write_mix: [1.0, 0.0, 0.0, 0.0],
            ancient_lines: 96 * 1024,
            drift_cold_read_frac: 0.0,
            chase_run_lines: 1,
            chase_streams: 1,
            serial_chase: true,
            independent_chase: false,
            code_bytes: 8 << 10,
            branch_flip_frac: 0.05,
            seed: 0x57f1,
        },
        other => panic!("unknown benchmark {other:?}"),
    };
    p.validate();
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_papers_eleven_benchmarks() {
        let suite = spec2000_suite();
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(names, BENCHMARK_NAMES.to_vec());
    }

    #[test]
    fn compartment_assignment_round_robins_and_pins() {
        let mixed = compartment_assignment(13, None);
        let names: Vec<&str> = mixed.iter().map(|w| w.name()).collect();
        assert_eq!(names[0], "ammp");
        assert_eq!(names[10], "vpr");
        assert_eq!(names[11], "ammp", "the 12th compartment wraps around");
        let pinned = compartment_assignment(3, Some("bfs"));
        assert!(pinned.iter().all(|w| w.name() == "bfs"));
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = SpecWorkload::new(benchmark_profile("mcf"));
        let mut b = SpecWorkload::new(benchmark_profile("mcf"));
        for _ in 0..10_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SpecWorkload::new(benchmark_profile("gcc"));
        let mut b = SpecWorkload::new(benchmark_profile("vpr"));
        let same = (0..1000).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 100);
    }

    #[test]
    fn instruction_mix_matches_profile() {
        let profile = benchmark_profile("bzip2");
        let (lf, sf, bf) = (profile.load_frac, profile.store_frac, profile.branch_frac);
        let mut w = SpecWorkload::new(profile);
        let n = 200_000;
        let mut loads = 0.0;
        let mut stores = 0.0;
        let mut branches = 0.0;
        for _ in 0..n {
            match w.next_op().class {
                OpClass::Load(_) => loads += 1.0,
                OpClass::Store(_) => stores += 1.0,
                OpClass::Branch { .. } => branches += 1.0,
                _ => {}
            }
        }
        let n = n as f64;
        assert!((loads / n - lf).abs() < 0.01, "loads {}", loads / n);
        assert!((stores / n - sf).abs() < 0.01, "stores {}", stores / n);
        assert!(
            (branches / n - bf).abs() < 0.01,
            "branches {}",
            branches / n
        );
    }

    #[test]
    fn chase_runs_walk_consecutive_lines_per_stream() {
        // bfs walks neighbour lists: per stream, chase lines advance by
        // exactly one line `chase_run_lines` times before jumping to a
        // fresh random base, and successive chase loads alternate over
        // `chase_streams` interleaved lists.
        let profile = benchmark_profile("bfs");
        let (run, streams) = (profile.chase_run_lines, profile.chase_streams);
        assert!(run > 1 && streams > 1, "bfs should walk interleaved runs");
        let mut w = SpecWorkload::new(profile);
        let mut chase_lines = Vec::new();
        for _ in 0..200_000u64 {
            if let OpClass::Load(addr) = w.next_op().class {
                if (CHASE_BASE..DRIFT_BASE).contains(&addr) {
                    chase_lines.push((addr - CHASE_BASE) / 128);
                }
            }
        }
        assert!(chase_lines.len() > 10_000);
        // De-interleave by stream and count single-line advances.
        let mut sequential = 0usize;
        let mut total = 0usize;
        for s in 0..streams {
            let stream: Vec<u64> = chase_lines
                .iter()
                .skip(s)
                .step_by(streams)
                .copied()
                .collect();
            for pair in stream.windows(2) {
                total += 1;
                if pair[1] == pair[0] + 1 {
                    sequential += 1;
                }
            }
        }
        // Each run contributes run-1 sequential steps and one jump.
        let expect = (run - 1) as f64 / run as f64;
        let got = sequential as f64 / total as f64;
        assert!(
            (got - expect).abs() < 0.03,
            "sequential fraction {got:.3}, expected ~{expect:.3}"
        );
        // The de-interleaving above only lines up if chase loads really
        // rotate streams round-robin; a shuffled assignment would make
        // almost no pair sequential.
        assert!(got > 0.5);
    }

    #[test]
    fn single_stream_profiles_keep_the_uniform_random_chase() {
        // rstride (and every figure benchmark) declares run = stream =
        // 1 and must keep the classic uniform-random chase: almost no
        // consecutive-line pairs.
        let mut w = SpecWorkload::new(benchmark_profile("rstride"));
        let mut chase_lines = Vec::new();
        for _ in 0..100_000u64 {
            if let OpClass::Load(addr) = w.next_op().class {
                if (CHASE_BASE..DRIFT_BASE).contains(&addr) {
                    chase_lines.push((addr - CHASE_BASE) / 128);
                }
            }
        }
        let sequential = chase_lines
            .windows(2)
            .filter(|p| p[1] == p[0] + 1)
            .count();
        assert!(
            (sequential as f64) < chase_lines.len() as f64 * 0.01,
            "{sequential} of {} pairs sequential",
            chase_lines.len()
        );
    }

    #[test]
    fn serial_chase_builds_dependence_chains() {
        let mut w = SpecWorkload::new(benchmark_profile("mcf"));
        let mut chase_deps = Vec::new();
        let mut last_chase_at: Option<u64> = None;
        for i in 0..50_000u64 {
            let op = w.next_op();
            if let OpClass::Load(addr) = op.class {
                if (CHASE_BASE..DRIFT_BASE).contains(&addr) {
                    if let Some(prev) = last_chase_at {
                        // The dependence distance should point at (or
                        // before) the previous chase load.
                        chase_deps.push((i - prev, u64::from(op.dep1)));
                    }
                    last_chase_at = Some(i);
                }
            }
        }
        assert!(!chase_deps.is_empty());
        let matching = chase_deps.iter().filter(|(gap, dep)| dep == gap).count();
        assert!(
            matching as f64 / chase_deps.len() as f64 > 0.9,
            "{matching}/{}",
            chase_deps.len()
        );
    }

    #[test]
    fn streams_sweep_sequentially() {
        let mut w = SpecWorkload::new(benchmark_profile("art"));
        let mut prev: Option<u64> = None;
        let mut deltas = Vec::new();
        for _ in 0..20_000 {
            if let OpClass::Load(addr) = w.next_op().class {
                if (STREAM_BASE..CHASE_BASE).contains(&addr) {
                    if let Some(p) = prev {
                        deltas.push(addr.wrapping_sub(p));
                    }
                    prev = Some(addr);
                }
            }
        }
        let sequential = deltas.iter().filter(|&&d| d == 8).count();
        assert!(
            sequential as f64 / deltas.len() as f64 > 0.95,
            "{sequential}/{}",
            deltas.len()
        );
    }

    #[test]
    fn drift_writes_advance_through_the_region() {
        let mut w = SpecWorkload::new(benchmark_profile("gcc"));
        let mut first_lines = std::collections::HashSet::new();
        let mut later_lines = std::collections::HashSet::new();
        for i in 0..600_000u64 {
            if let OpClass::Store(addr) = w.next_op().class {
                if addr >= DRIFT_BASE {
                    let line = (addr - DRIFT_BASE) / LINE;
                    if i < 200_000 {
                        first_lines.insert(line);
                    } else if i >= 400_000 {
                        later_lines.insert(line);
                    }
                }
            }
        }
        // The window slides: later writes touch lines the early phase
        // never wrote.
        let fresh = later_lines.difference(&first_lines).count();
        assert!(
            fresh as f64 / later_lines.len() as f64 > 0.2,
            "fresh {fresh}/{}",
            later_lines.len()
        );
    }

    #[test]
    fn code_footprint_bounds_program_counters() {
        let profile = benchmark_profile("gcc");
        let code = profile.code_bytes;
        let mut w = SpecWorkload::new(profile);
        for _ in 0..100_000 {
            let op = w.next_op();
            assert!(op.pc >= CODE_BASE && op.pc < CODE_BASE + code + 4096);
        }
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_name_panics() {
        let _ = benchmark_profile("quake3");
    }
}
