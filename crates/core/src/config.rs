//! Configuration types for the secure memory controller.

use padlock_crypto::CryptoUnitModel;
use padlock_mem::LINE_BYTES;
use std::fmt;

/// Bytes per sequence number: the SNC stores each as a `u16`, the
/// paper's 2-byte sequence numbers.
pub(crate) const SEQ_BYTES: usize = std::mem::size_of::<u16>();

/// How the SNC is organised on chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SncOrganization {
    /// Fully associative (the paper's default; §4 argues conflict misses
    /// should be minimised).
    FullyAssociative,
    /// Set-associative with the given number of ways (Fig. 7 uses 32).
    SetAssociative(u32),
}

impl fmt::Display for SncOrganization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SncOrganization::FullyAssociative => write!(f, "fully-assoc"),
            SncOrganization::SetAssociative(w) => write!(f, "{w}-way"),
        }
    }
}

/// How the SNC handles capacity pressure (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SncPolicy {
    /// Once full, later lines are encrypted directly (XOM-style) and never
    /// gain sequence numbers.
    NoReplacement,
    /// LRU replacement; evicted sequence numbers are encrypted and spilled
    /// to memory, and query misses fetch them back (Algorithm 1).
    Lru,
}

impl fmt::Display for SncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SncPolicy::NoReplacement => write!(f, "no-repl"),
            SncPolicy::Lru => write!(f, "LRU"),
        }
    }
}

/// Sequence Number Cache configuration. Each entry is one 2-byte
/// sequence number covering one [`LINE_BYTES`]-byte L2 line.
///
/// # Examples
///
/// ```
/// use padlock_core::SncConfig;
///
/// let snc = SncConfig::paper_default();
/// assert_eq!(snc.entries(), 32 * 1024); // 64KB / 2B, covering 4MB
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SncConfig {
    /// Total SNC capacity in bytes (paper sweeps 32/64/128KB).
    pub capacity_bytes: usize,
    /// Organisation (fully associative or N-way).
    pub organization: SncOrganization,
    /// Management policy.
    pub policy: SncPolicy,
}

impl SncConfig {
    /// The paper's default: 64KB, 2-byte entries, fully associative, LRU.
    pub fn paper_default() -> Self {
        Self {
            capacity_bytes: 64 * 1024,
            organization: SncOrganization::FullyAssociative,
            policy: SncPolicy::Lru,
        }
    }

    /// Number of sequence-number entries.
    pub fn entries(&self) -> usize {
        self.capacity_bytes / SEQ_BYTES
    }

    /// Bytes of memory covered by a full SNC.
    pub fn coverage_bytes(&self) -> usize {
        self.entries() * LINE_BYTES as usize
    }

    /// Builder: set capacity.
    pub fn with_capacity(mut self, bytes: usize) -> Self {
        self.capacity_bytes = bytes;
        self
    }

    /// Builder: set organisation.
    pub fn with_organization(mut self, org: SncOrganization) -> Self {
        self.organization = org;
        self
    }

    /// Builder: set policy.
    pub fn with_policy(mut self, policy: SncPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl Default for SncConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// How seeds are derived from (virtual address, sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SeedScheme {
    /// The paper's arithmetic: `seed = VA + seq` (§3.4.2, equations 4–7).
    /// Neighbouring lines can collide with high sequence numbers; kept as
    /// the default for fidelity.
    #[default]
    PaperAdditive,
    /// `seed = VA | (seq << 48)`: address and sequence number occupy
    /// disjoint bit fields, removing cross-line pad collisions.
    Structured,
}

impl SeedScheme {
    /// Computes the 64-bit base seed for a line.
    ///
    /// `seq` is the line's full write count: its low 16 bits are the
    /// on-chip sequence number and the bits above count 16-bit
    /// wraparounds (epochs). Vendor packages are encrypted at `seq = 0`.
    pub fn seed(self, line_va: u64, seq: u64) -> u64 {
        match self {
            SeedScheme::PaperAdditive => line_va.wrapping_add(seq),
            SeedScheme::Structured => {
                let base = (line_va & 0x0000_FFFF_FFFF_FFFF) | ((seq & 0xFFFF) << 48);
                // Epochs beyond 16 bits mix into the low half.
                base ^ (seq >> 16).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }
        }
    }
}

/// Which machine the backend models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityMode {
    /// No cryptography: the baseline processor.
    Insecure,
    /// XOM: encryption/decryption in series with every off-chip transfer.
    Xom,
    /// One-time-pad encryption with a Sequence Number Cache.
    Otp {
        /// SNC configuration.
        snc: SncConfig,
    },
}

impl SecurityMode {
    /// Convenience: OTP with the paper's default 64KB fully associative
    /// LRU SNC.
    pub fn otp_lru_64k() -> Self {
        SecurityMode::Otp {
            snc: SncConfig::paper_default(),
        }
    }

    /// Convenience: OTP with a no-replacement SNC of the default size.
    pub fn otp_norepl_64k() -> Self {
        SecurityMode::Otp {
            snc: SncConfig::paper_default().with_policy(SncPolicy::NoReplacement),
        }
    }
}

impl fmt::Display for SecurityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityMode::Insecure => write!(f, "baseline"),
            SecurityMode::Xom => write!(f, "XOM"),
            SecurityMode::Otp { snc } => write!(
                f,
                "SNC-{} {}KB {}",
                snc.policy,
                snc.capacity_bytes / 1024,
                snc.organization
            ),
        }
    }
}

/// Full configuration of the [`crate::SecureBackend`].
#[derive(Debug, Clone)]
pub struct SecureBackendConfig {
    /// Which machine to model.
    pub mode: SecurityMode,
    /// The crypto unit latency model (50-cycle default; Fig. 10 uses 102).
    pub crypto: CryptoUnitModel,
    /// DRAM access latency (paper: 100).
    pub mem_latency: u64,
    /// Channel occupancy per transaction.
    pub mem_occupancy: u64,
    /// Independent line-address-interleaved DRAM channels. Line `i`
    /// lives on channel `i % mem_channels` — the same interleaving the
    /// SNC shards use, so an `N`-channel, `N`-shard machine pairs each
    /// shard with its own memory controller. `1` is the paper's single
    /// shared channel.
    pub mem_channels: usize,
    /// DRAM banks per channel. `1` (the paper default) is the flat
    /// uniform-latency model; with more banks each access is charged
    /// row-buffer timing ([`padlock_mem::DEFAULT_ROW_HIT_CYCLES`] on an
    /// open-row hit, [`padlock_mem::DEFAULT_ROW_CONFLICT_CYCLES`] on a
    /// precharge + activate) against its bank's busy timeline, so
    /// locality inside a channel matters and concurrent misses to
    /// different banks overlap their activates.
    pub mem_banks: usize,
    /// Whether banks leave rows open behind accesses (`Open`, the
    /// default — row hits possible, conflicts pay a precharge) or
    /// auto-precharge after every access (`Closed` — no hits, but
    /// every access costs the cheaper
    /// [`padlock_mem::DEFAULT_ROW_CLOSED_CYCLES`]). Ignored at
    /// `mem_banks = 1`.
    pub page_policy: padlock_mem::PagePolicy,
    /// The order the drain scheduler issues a window's phase-one
    /// memory accesses in. `Fifo` (the default) is the paper's strict
    /// arrival order; `RowFirst` reorders FR-FCFS style so
    /// same-`(channel, bank, row)` misses issue back-to-back and
    /// row-mates become open-row hits. Classification, SNC probes, and
    /// retirement stay in arrival order either way, so traffic and
    /// event counters are order-invariant — only completion cycles
    /// move.
    pub drain_order: padlock_mem::DrainOrder,
    /// Write-buffer entries (per channel).
    pub write_buffer_entries: usize,
    /// Whether reads of lines never written back bypass the SNC
    /// (sequence number is known to be zero). See DESIGN.md §3.
    pub clean_lines_bypass: bool,
    /// Maximum in-flight miss transactions (MSHR entries) the
    /// controller's transaction engine overlaps within one drain
    /// window. `1` models the paper's blocking controller exactly.
    pub max_inflight: usize,
    /// Number of address-interleaved SNC shards (each with its own
    /// recency state and port). `1` is the paper's single SNC.
    pub snc_shards: usize,
    /// Cycles an SNC probe occupies its shard's lookup port. Models
    /// contention between concurrent in-flight misses only: an
    /// uncontended probe adds no latency, matching the paper's
    /// assumption that the SNC is searched in parallel with L2.
    pub snc_port_cycles: u64,
}

impl SecureBackendConfig {
    /// The paper's machine parameters for the given mode.
    pub fn paper(mode: SecurityMode) -> Self {
        Self {
            mode,
            crypto: CryptoUnitModel::paper_default(),
            mem_latency: 100,
            mem_occupancy: 8,
            mem_channels: 1,
            mem_banks: 1,
            page_policy: padlock_mem::PagePolicy::Open,
            drain_order: padlock_mem::DrainOrder::Fifo,
            write_buffer_entries: 8,
            clean_lines_bypass: true,
            max_inflight: 1,
            snc_shards: 1,
            snc_port_cycles: 2,
        }
    }

    /// Builder: use the 102-cycle crypto unit of Fig. 10.
    pub fn with_slow_crypto(mut self) -> Self {
        self.crypto = CryptoUnitModel::paper_slow();
        self
    }

    /// Builder: set the number of in-flight miss transactions the
    /// engine overlaps.
    pub fn with_max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n;
        self
    }

    /// Builder: set the number of address-interleaved SNC shards.
    pub fn with_snc_shards(mut self, n: usize) -> Self {
        self.snc_shards = n;
        self
    }

    /// Builder: set the number of line-interleaved DRAM channels.
    pub fn with_mem_channels(mut self, n: usize) -> Self {
        self.mem_channels = n;
        self
    }

    /// Builder: set the number of DRAM banks per channel (`1` = the
    /// paper's flat model).
    pub fn with_mem_banks(mut self, n: usize) -> Self {
        self.mem_banks = n;
        self
    }

    /// Builder: set the bank page policy used when `mem_banks > 1`.
    pub fn with_page_policy(mut self, policy: padlock_mem::PagePolicy) -> Self {
        self.page_policy = policy;
        self
    }

    /// Builder: set the drain scheduler's issue order.
    pub fn with_drain_order(mut self, order: padlock_mem::DrainOrder) -> Self {
        self.drain_order = order;
        self
    }

    /// The per-channel bank configuration this machine implies: the
    /// default row timings over [`padlock_mem::ROW_BYTES`]-byte rows.
    pub fn bank_config(&self) -> padlock_mem::BankConfig {
        padlock_mem::BankConfig::banked(self.mem_banks).with_page_policy(self.page_policy)
    }

    /// Builder: set the SNC port occupancy per probe.
    pub fn with_snc_port_cycles(mut self, cycles: u64) -> Self {
        self.snc_port_cycles = cycles;
        self
    }

    /// A human-readable security/fabric label for this configuration:
    /// the mode's display name plus shard/channel/bank/order/MLP
    /// suffixes for every knob moved off its paper default. This is the
    /// string [`crate::SecureBackend`] reports through
    /// `MemoryBackend::label`, and machine- and server-level labels
    /// build on it.
    pub fn label(&self) -> String {
        let mut label = self.mode.to_string();
        if self.snc_shards > 1 {
            label.push_str(&format!(" x{} shards", self.snc_shards));
        }
        if self.mem_channels > 1 {
            label.push_str(&format!(" x{}ch", self.mem_channels));
        }
        if self.mem_banks > 1 {
            label.push_str(&format!(" x{}bk", self.mem_banks));
            if self.page_policy == padlock_mem::PagePolicy::Closed {
                label.push_str("-cp");
            }
        }
        if self.drain_order == padlock_mem::DrainOrder::RowFirst {
            label.push_str(" frfcfs");
        }
        if self.max_inflight > 1 {
            label.push_str(&format!(" mlp{}", self.max_inflight));
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_snc_covers_4mb() {
        let snc = SncConfig::paper_default();
        assert_eq!(snc.entries(), 32768);
        assert_eq!(snc.coverage_bytes(), 4 << 20);
    }

    #[test]
    fn snc_builders_compose() {
        let snc = SncConfig::paper_default()
            .with_capacity(32 * 1024)
            .with_organization(SncOrganization::SetAssociative(32))
            .with_policy(SncPolicy::NoReplacement);
        assert_eq!(snc.entries(), 16384);
        assert_eq!(snc.organization, SncOrganization::SetAssociative(32));
        assert_eq!(snc.policy, SncPolicy::NoReplacement);
    }

    #[test]
    fn additive_seed_matches_paper_equations() {
        // seed = VA + seq (equation 5/7 semantics).
        assert_eq!(SeedScheme::PaperAdditive.seed(0x4000, 3), 0x4003);
    }

    #[test]
    fn additive_seed_collision_exists_structured_avoids_it() {
        // Line A at VA 0x1000 with seq 0x80 collides with line B at
        // VA 0x1080 with seq 0 under the paper scheme...
        let a = SeedScheme::PaperAdditive.seed(0x1000, 0x80);
        let b = SeedScheme::PaperAdditive.seed(0x1080, 0);
        assert_eq!(a, b);
        // ...but not under the structured scheme.
        let a = SeedScheme::Structured.seed(0x1000, 0x80);
        let b = SeedScheme::Structured.seed(0x1080, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn mode_display_labels() {
        assert_eq!(SecurityMode::Insecure.to_string(), "baseline");
        assert_eq!(SecurityMode::Xom.to_string(), "XOM");
        assert_eq!(
            SecurityMode::otp_lru_64k().to_string(),
            "SNC-LRU 64KB fully-assoc"
        );
        assert_eq!(
            SecurityMode::otp_norepl_64k().to_string(),
            "SNC-no-repl 64KB fully-assoc"
        );
    }

    #[test]
    fn backend_config_builders() {
        let cfg = SecureBackendConfig::paper(SecurityMode::Xom).with_slow_crypto();
        assert_eq!(cfg.crypto.pipeline_latency(), 102);
        assert_eq!(cfg.mem_latency, 100);
        assert!(cfg.clean_lines_bypass);
        // Paper defaults model the blocking single-controller machine
        // over flat (bankless) DRAM.
        assert_eq!(cfg.max_inflight, 1);
        assert_eq!(cfg.snc_shards, 1);
        assert_eq!(cfg.mem_channels, 1);
        assert_eq!(cfg.mem_banks, 1);
        assert!(cfg.bank_config().is_flat());
    }

    #[test]
    fn engine_builders_compose() {
        let cfg = SecureBackendConfig::paper(SecurityMode::otp_lru_64k())
            .with_max_inflight(8)
            .with_snc_shards(4)
            .with_mem_channels(4)
            .with_snc_port_cycles(12)
            .with_mem_banks(8);
        assert_eq!(cfg.max_inflight, 8);
        assert_eq!(cfg.snc_shards, 4);
        assert_eq!(cfg.mem_channels, 4);
        assert_eq!(cfg.snc_port_cycles, 12);
        assert_eq!(cfg.mem_banks, 8);
        let banks = cfg.bank_config();
        assert!(!banks.is_flat());
        assert_eq!(banks.row_hit_cycles, padlock_mem::DEFAULT_ROW_HIT_CYCLES);
        assert_eq!(
            banks.row_conflict_cycles,
            padlock_mem::DEFAULT_ROW_CONFLICT_CYCLES
        );
        // 16 x 128B lines per row.
        assert_eq!(padlock_mem::ROW_BYTES, 2048);
    }

    #[test]
    fn scheduler_knobs_default_to_the_paper_machine() {
        use padlock_mem::{DrainOrder, PagePolicy};
        let cfg = SecureBackendConfig::paper(SecurityMode::otp_lru_64k());
        assert_eq!(cfg.drain_order, DrainOrder::Fifo);
        assert_eq!(cfg.page_policy, PagePolicy::Open);
        assert_eq!(
            cfg.bank_config().row_closed_cycles,
            padlock_mem::DEFAULT_ROW_CLOSED_CYCLES
        );
        let cfg = cfg
            .with_drain_order(DrainOrder::RowFirst)
            .with_page_policy(PagePolicy::Closed)
            .with_mem_banks(4);
        assert_eq!(cfg.drain_order, DrainOrder::RowFirst);
        assert_eq!(cfg.bank_config().page_policy, PagePolicy::Closed);
    }
}
