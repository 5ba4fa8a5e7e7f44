//! The functional secure memory: real ciphertext, real pads, real MACs.
//!
//! The timing layer ([`crate::SecureBackend`]) models *when* bytes move;
//! this module models *what* they are. It backs the tiny-ISA VM, the
//! examples, and the attack tests: memory outside the security boundary
//! holds only ciphertext, and the attack entry points mutate that
//! ciphertext exactly the way the paper's adversary would (spoofing,
//! splicing, replay — §2.2).

use crate::config::SeedScheme;
use padlock_crypto::{BlockCipher, CbcMac, CipherKind, OneTimePad, Sha256};
use padlock_mem::{RegionMap, SparseMemory, LINE_BYTES};
use std::collections::BTreeMap;
use std::fmt;

/// The functional model's line: the timing model's [`LINE_BYTES`], a
/// whole number of blocks for every cipher (8-byte DES/3DES, 16-byte
/// AES). Packages ship and load in these lines too.
pub(crate) const LINE: usize = LINE_BYTES as usize;

/// How a region of memory is protected (decided at load time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LineProtection {
    /// Cleartext: shared libraries, program inputs (§4.3).
    Plaintext,
    /// OTP with address-only seeds: code and read-only data — written
    /// once by the vendor/loader, never written back (§3.4.1).
    OtpStatic,
    /// OTP with address + sequence-number seeds: writable data (§3.4.2).
    #[default]
    OtpDynamic,
}

/// Integrity verification level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntegrityMode {
    /// No verification (the paper's timing runs).
    #[default]
    None,
    /// Per-line MACs bound to the address: detects spoofing and splicing,
    /// not replay (the MAC table itself lives in untrusted memory).
    Mac,
    /// MACs plus an on-chip root hash over the MAC table (a flattened
    /// stand-in for the Gassend et al. hash tree the paper cites):
    /// also detects replay.
    MacTree,
}

/// Errors surfaced by secure reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecureMemoryError {
    /// The per-line MAC did not match the line's ciphertext.
    MacMismatch {
        /// Offending line address.
        addr: u64,
    },
    /// The MAC table no longer matches the on-chip root (replay).
    RootMismatch {
        /// Line address whose read triggered verification.
        addr: u64,
    },
    /// The address is not line-aligned.
    Misaligned {
        /// Offending address.
        addr: u64,
    },
}

impl fmt::Display for SecureMemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecureMemoryError::MacMismatch { addr } => {
                write!(f, "MAC mismatch at line {addr:#x} (spoofing or splicing)")
            }
            SecureMemoryError::RootMismatch { addr } => {
                write!(f, "integrity root mismatch at line {addr:#x} (replay)")
            }
            SecureMemoryError::Misaligned { addr } => {
                write!(f, "address {addr:#x} is not line-aligned")
            }
        }
    }
}

impl std::error::Error for SecureMemoryError {}

/// An adversary's capture of one line: everything observable outside the
/// security boundary at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineSnapshot {
    /// The captured line's address.
    pub addr: u64,
    /// Raw ciphertext bytes.
    pub ciphertext: Vec<u8>,
    /// The line's MAC entry, if integrity is enabled.
    pub mac: Option<[u8; 8]>,
    /// The spilled (conceptually encrypted) sequence number.
    pub seq: Option<u64>,
}

/// Outcome of probing a line after an attack (see
/// [`SecureMemory::probe_attack`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackOutcome {
    /// Integrity verification rejected the line.
    Detected,
    /// Verification passed but the read returned the wrong plaintext.
    /// Random ciphertext bytes decrypt to noise, but a one-time pad is a
    /// stream cipher: a targeted bit flip on a one-time-pad line flips
    /// the same plaintext bits, so without integrity the attacker
    /// chooses what the program reads.
    GarbagePlaintext,
    /// The read returned the expected plaintext: the attack succeeded.
    Undetected,
}

/// Functional encrypted memory with per-line protection and integrity.
///
/// # Examples
///
/// ```
/// use padlock_core::{IntegrityMode, LineProtection, SecureMemory, SeedScheme};
/// use padlock_crypto::CipherKind;
///
/// let mut sm = SecureMemory::new(
///     CipherKind::Des, &[7u8; 16], SeedScheme::PaperAdditive, IntegrityMode::Mac);
/// sm.add_region("heap", 0x1_0000, 0x2_0000, LineProtection::OtpDynamic).unwrap();
/// sm.write_line(0x1_0000, &[0xAB; 128]).unwrap();
/// assert_eq!(sm.read_line(0x1_0000).unwrap(), vec![0xAB; 128]);
/// // The ciphertext actually stored off-chip differs from the data:
/// assert_ne!(sm.raw_ciphertext(0x1_0000, 128), vec![0xAB; 128]);
/// ```
pub struct SecureMemory {
    otp: OneTimePad<Box<dyn BlockCipher>>,
    mac: Option<CbcMac<Box<dyn BlockCipher>>>,
    seed_scheme: SeedScheme,
    integrity: IntegrityMode,
    mem: SparseMemory,
    regions: RegionMap<LineProtection>,
    /// Per-line sequence numbers (the union of SNC + spilled table; the
    /// functional layer does not model residency).
    seqs: BTreeMap<u64, u64>,
    /// Per-line MACs — conceptually stored in untrusted memory.
    macs: BTreeMap<u64, [u8; 8]>,
    /// On-chip root over the MAC table (MacTree mode).
    root: [u8; 32],
}

impl fmt::Debug for SecureMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecureMemory")
            .field("integrity", &self.integrity)
            .field("lines_written", &self.seqs.len())
            .finish_non_exhaustive()
    }
}

impl SecureMemory {
    /// Creates an empty secure memory keyed with `key` (the unwrapped
    /// symmetric key `Ks`).
    ///
    /// # Panics
    ///
    /// Panics if `key` is shorter than the cipher requires.
    pub fn new(
        cipher: CipherKind,
        key: &[u8],
        seed_scheme: SeedScheme,
        integrity: IntegrityMode,
    ) -> Self {
        // Derive a distinct MAC key so pad and MAC streams never share
        // cipher inputs.
        let mut mac_key = key.to_vec();
        for b in &mut mac_key {
            *b ^= 0xA5;
        }
        Self {
            otp: OneTimePad::new(cipher.instantiate(key)),
            mac: Some(CbcMac::new(cipher.instantiate(&mac_key))),
            seed_scheme,
            integrity,
            mem: SparseMemory::new(),
            regions: RegionMap::new(LineProtection::OtpDynamic),
            seqs: BTreeMap::new(),
            macs: BTreeMap::new(),
            root: [0u8; 32],
        }
    }

    /// The integrity mode.
    pub fn integrity(&self) -> IntegrityMode {
        self.integrity
    }
}

/// Region-mapping error (wraps the region map's overlap diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapRegionError(String);

impl fmt::Display for MapRegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for MapRegionError {}

impl SecureMemory {
    fn check_aligned(&self, addr: u64) -> Result<(), SecureMemoryError> {
        if !addr.is_multiple_of(u64::from(LINE_BYTES)) {
            Err(SecureMemoryError::Misaligned { addr })
        } else {
            Ok(())
        }
    }

    fn recompute_root(&mut self) {
        // BTreeMap iteration is already address-sorted, which is
        // exactly the canonical order the root hash is defined over.
        let mut h = Sha256::new();
        for (addr, tag) in &self.macs {
            h.update(&addr.to_be_bytes());
            h.update(tag);
        }
        self.root = h.finalize();
    }

    fn verify_root(&self, addr: u64) -> Result<(), SecureMemoryError> {
        let mut h = Sha256::new();
        for (a, tag) in &self.macs {
            h.update(&a.to_be_bytes());
            h.update(tag);
        }
        if h.finalize() != self.root {
            Err(SecureMemoryError::RootMismatch { addr })
        } else {
            Ok(())
        }
    }

    fn stamp_integrity(&mut self, addr: u64) {
        if self.integrity == IntegrityMode::None {
            return;
        }
        let ct = self.mem.read_vec(addr, LINE);
        let tag = self.mac.as_ref().expect("mac engine").tag(addr, &ct);
        self.macs.insert(addr, tag);
        if self.integrity == IntegrityMode::MacTree {
            self.recompute_root();
        }
    }

    fn verify_integrity(&self, addr: u64) -> Result<(), SecureMemoryError> {
        match self.integrity {
            IntegrityMode::None => Ok(()),
            IntegrityMode::Mac | IntegrityMode::MacTree => {
                if self.integrity == IntegrityMode::MacTree {
                    self.verify_root(addr)?;
                }
                // A line with no MAC entry has never crossed the security
                // boundary: nothing to authenticate yet. (An adversary
                // deleting an entry gains only destruction — the read
                // then decrypts to pad garbage, never chosen plaintext —
                // and under MacTree the deletion itself breaks the root.)
                let Some(tag) = self.macs.get(&addr).copied() else {
                    return Ok(());
                };
                let ct = self.mem.read_vec(addr, LINE);
                let ok = self
                    .mac
                    .as_ref()
                    .expect("mac engine")
                    .verify(addr, &ct, &tag);
                if ok {
                    Ok(())
                } else {
                    Err(SecureMemoryError::MacMismatch { addr })
                }
            }
        }
    }

    /// Declares a protection region (load-time operation).
    ///
    /// # Errors
    ///
    /// Returns [`MapRegionError`] on overlapping or inverted ranges.
    pub fn add_region(
        &mut self,
        name: &str,
        start: u64,
        end: u64,
        protection: LineProtection,
    ) -> Result<(), MapRegionError> {
        self.regions
            .insert(name, start, end, protection)
            .map_err(|e| MapRegionError(e.to_string()))
    }

    /// The protection governing `addr`.
    pub fn protection_at(&self, addr: u64) -> LineProtection {
        *self.regions.attr_at(addr)
    }

    /// Installs already-encrypted bytes plus their MAC (the loader path:
    /// the package ships ciphertext; nothing is re-encrypted on chip).
    ///
    /// # Errors
    ///
    /// Returns [`SecureMemoryError::Misaligned`] for unaligned bases.
    pub fn install_ciphertext_line(
        &mut self,
        addr: u64,
        ciphertext: &[u8],
    ) -> Result<(), SecureMemoryError> {
        self.check_aligned(addr)?;
        assert_eq!(ciphertext.len(), LINE, "whole lines only");
        self.mem.write_bytes(addr, ciphertext);
        self.stamp_integrity(addr);
        Ok(())
    }

    /// Writes one plaintext line through the security boundary
    /// (the processor's writeback path: encrypt, stamp, store).
    ///
    /// # Errors
    ///
    /// Returns [`SecureMemoryError::Misaligned`] for unaligned addresses.
    pub fn write_line(&mut self, addr: u64, plaintext: &[u8]) -> Result<(), SecureMemoryError> {
        self.check_aligned(addr)?;
        assert_eq!(plaintext.len(), LINE, "whole lines only");
        let ct = match self.protection_at(addr) {
            LineProtection::Plaintext => plaintext.to_vec(),
            LineProtection::OtpStatic => {
                let seed = self.seed_scheme.seed(addr, 0);
                self.otp.encrypt(seed, plaintext)
            }
            LineProtection::OtpDynamic => {
                let seq = {
                    let e = self.seqs.entry(addr).or_insert(0);
                    *e += 1;
                    *e
                };
                let seed = self.seed_scheme.seed(addr, seq);
                self.otp.encrypt(seed, plaintext)
            }
        };
        self.mem.write_bytes(addr, &ct);
        self.stamp_integrity(addr);
        Ok(())
    }

    /// Reads and decrypts one line, verifying integrity first.
    ///
    /// # Errors
    ///
    /// Returns [`SecureMemoryError::MacMismatch`] /
    /// [`SecureMemoryError::RootMismatch`] when verification fails, or
    /// [`SecureMemoryError::Misaligned`].
    pub fn read_line(&self, addr: u64) -> Result<Vec<u8>, SecureMemoryError> {
        self.check_aligned(addr)?;
        self.verify_integrity(addr)?;
        let ct = self.mem.read_vec(addr, LINE);
        Ok(match self.protection_at(addr) {
            LineProtection::Plaintext => ct,
            LineProtection::OtpStatic => {
                let seed = self.seed_scheme.seed(addr, 0);
                self.otp.decrypt(seed, &ct)
            }
            LineProtection::OtpDynamic => {
                let seq = self.seqs.get(&addr).copied().unwrap_or(0);
                let seed = self.seed_scheme.seed(addr, seq);
                self.otp.decrypt(seed, &ct)
            }
        })
    }

    /// Byte-granular read spanning lines (the VM's load path).
    ///
    /// # Errors
    ///
    /// Propagates line-read failures.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, SecureMemoryError> {
        let lb = u64::from(LINE_BYTES);
        let mut out = Vec::with_capacity(len);
        let mut cursor = addr;
        let end = addr + len as u64;
        while cursor < end {
            let line = cursor / lb * lb;
            let data = self.read_line(line)?;
            let start = (cursor - line) as usize;
            let take = ((end - cursor) as usize).min(LINE - start);
            out.extend_from_slice(&data[start..start + take]);
            cursor += take as u64;
        }
        Ok(out)
    }

    /// Byte-granular read-modify-write spanning lines (the VM's store
    /// path).
    ///
    /// # Errors
    ///
    /// Propagates line read/write failures.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), SecureMemoryError> {
        let lb = u64::from(LINE_BYTES);
        let mut cursor = addr;
        let end = addr + data.len() as u64;
        while cursor < end {
            let line = cursor / lb * lb;
            let mut buf = self.read_line(line)?;
            let start = (cursor - line) as usize;
            let take = ((end - cursor) as usize).min(LINE - start);
            let off = (cursor - addr) as usize;
            buf[start..start + take].copy_from_slice(&data[off..off + take]);
            self.write_line(line, &buf)?;
            cursor += take as u64;
        }
        Ok(())
    }

    /// The raw ciphertext stored off-chip (what a bus probe would see).
    pub fn raw_ciphertext(&self, addr: u64, len: usize) -> Vec<u8> {
        self.mem.read_vec(addr, len)
    }

    /// The current sequence number of a line (0 = never written).
    pub fn sequence_number(&self, addr: u64) -> u64 {
        self.seqs.get(&addr).copied().unwrap_or(0)
    }

    // ---- Attack surface (the adversary owns everything off-chip) ----

    /// Spoofing: overwrite raw memory bytes, leaving MACs untouched.
    pub fn attack_spoof(&mut self, addr: u64, bytes: &[u8]) {
        self.mem.write_bytes(addr, bytes);
    }

    /// Splicing: copy the raw ciphertext *and MAC entry* of `src` over
    /// `dst` (a valid line moved to the wrong address).
    pub fn attack_splice(&mut self, src: u64, dst: u64) {
        let ct = self.mem.read_vec(src, LINE);
        self.mem.write_bytes(dst, &ct);
        if let Some(tag) = self.macs.get(&src).copied() {
            self.macs.insert(dst, tag);
        }
    }

    /// Replay, step 1: snapshot everything the adversary can capture for
    /// a line — its ciphertext, its MAC, and the *encrypted sequence
    /// number* spilled to memory (the paper encrypts spilled numbers but
    /// does not version them, §4.1, so they replay together).
    pub fn attack_snapshot(&self, addr: u64) -> LineSnapshot {
        LineSnapshot {
            addr,
            ciphertext: self.mem.read_vec(addr, LINE),
            mac: self.macs.get(&addr).copied(),
            seq: self.seqs.get(&addr).copied(),
        }
    }

    /// Replay, step 2: restore a stale snapshot (ciphertext + MAC +
    /// spilled sequence number).
    pub fn attack_replay(&mut self, snapshot: &LineSnapshot) {
        self.mem.write_bytes(snapshot.addr, &snapshot.ciphertext);
        match snapshot.mac {
            Some(tag) => {
                self.macs.insert(snapshot.addr, tag);
            }
            None => {
                self.macs.remove(&snapshot.addr);
            }
        }
        match snapshot.seq {
            Some(seq) => {
                self.seqs.insert(snapshot.addr, seq);
            }
            None => {
                self.seqs.remove(&snapshot.addr);
            }
        }
    }

    /// A weaker replay that restores only the ciphertext and MAC — the
    /// sequence number inside the security boundary has moved on, so
    /// decryption uses the wrong pad and yields garbage.
    pub fn attack_replay_data_only(&mut self, snapshot: &LineSnapshot) {
        self.mem.write_bytes(snapshot.addr, &snapshot.ciphertext);
        match snapshot.mac {
            Some(tag) => {
                self.macs.insert(snapshot.addr, tag);
            }
            None => {
                self.macs.remove(&snapshot.addr);
            }
        }
    }

    /// Reads a line post-attack and classifies the result against the
    /// plaintext the program expects there.
    pub fn probe_attack(&self, addr: u64, expected: &[u8]) -> AttackOutcome {
        match self.read_line(addr) {
            Err(_) => AttackOutcome::Detected,
            Ok(plain) if plain == expected => AttackOutcome::Undetected,
            Ok(_) => AttackOutcome::GarbagePlaintext,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm(integrity: IntegrityMode) -> SecureMemory {
        let mut m = SecureMemory::new(
            CipherKind::Des,
            &[0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1],
            SeedScheme::PaperAdditive,
            integrity,
        );
        m.add_region("code", 0x0, 0x1_0000, LineProtection::OtpStatic)
            .unwrap();
        m.add_region("input", 0x2_0000, 0x3_0000, LineProtection::Plaintext)
            .unwrap();
        m
    }

    #[test]
    fn dynamic_write_read_roundtrip() {
        let mut m = sm(IntegrityMode::None);
        let line = vec![0x42u8; 128];
        m.write_line(0x4_0000, &line).unwrap();
        assert_eq!(m.read_line(0x4_0000).unwrap(), line);
    }

    #[test]
    fn ciphertext_differs_from_plaintext_and_rotates_per_write() {
        let mut m = sm(IntegrityMode::None);
        let line = vec![0u8; 128];
        m.write_line(0x4_0000, &line).unwrap();
        let ct1 = m.raw_ciphertext(0x4_0000, 128);
        m.write_line(0x4_0000, &line).unwrap();
        let ct2 = m.raw_ciphertext(0x4_0000, 128);
        assert_ne!(ct1, line, "data must be encrypted");
        assert_ne!(ct1, ct2, "same data re-written must produce fresh ciphertext");
        assert_eq!(m.sequence_number(0x4_0000), 2);
        assert_eq!(m.read_line(0x4_0000).unwrap(), line);
    }

    #[test]
    fn static_region_uses_constant_seed() {
        let mut m = sm(IntegrityMode::None);
        let line = vec![7u8; 128];
        m.write_line(0x100 * 128, &line).unwrap(); // inside "code"
        let ct1 = m.raw_ciphertext(0x100 * 128, 128);
        m.write_line(0x100 * 128, &line).unwrap();
        let ct2 = m.raw_ciphertext(0x100 * 128, 128);
        assert_eq!(ct1, ct2, "static seeds are constant per address");
        assert_eq!(m.sequence_number(0x100 * 128), 0);
    }

    #[test]
    fn same_plaintext_different_addresses_different_ciphertext() {
        // The paper's repetition-hiding property (§3.4 Advantage).
        let mut m = sm(IntegrityMode::None);
        let line = vec![0xEEu8; 128];
        m.write_line(0x4_0000, &line).unwrap();
        m.write_line(0x4_0080, &line).unwrap();
        assert_ne!(
            m.raw_ciphertext(0x4_0000, 128),
            m.raw_ciphertext(0x4_0080, 128)
        );
    }

    #[test]
    fn plaintext_region_is_stored_raw() {
        let mut m = sm(IntegrityMode::None);
        let line = vec![0x11u8; 128];
        m.write_line(0x2_0000, &line).unwrap();
        assert_eq!(m.raw_ciphertext(0x2_0000, 128), line);
    }

    #[test]
    fn byte_granular_access_spans_lines() {
        let mut m = sm(IntegrityMode::None);
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        m.write_bytes(0x4_0060, &data).unwrap(); // straddles 0x40000/0x40080/0x40100
        assert_eq!(m.read_bytes(0x4_0060, 200).unwrap(), data);
    }

    #[test]
    fn misaligned_line_ops_error() {
        let mut m = sm(IntegrityMode::None);
        assert_eq!(
            m.write_line(0x4_0001, &[0u8; 128]).unwrap_err(),
            SecureMemoryError::Misaligned { addr: 0x4_0001 }
        );
        assert!(matches!(
            m.read_line(0x4_0001).unwrap_err(),
            SecureMemoryError::Misaligned { .. }
        ));
    }

    #[test]
    fn spoofing_is_detected_by_mac() {
        let mut m = sm(IntegrityMode::Mac);
        let line = vec![0x55u8; 128];
        m.write_line(0x4_0000, &line).unwrap();
        m.attack_spoof(0x4_0000, &[0xFF; 16]);
        assert_eq!(m.probe_attack(0x4_0000, &line), AttackOutcome::Detected);
    }

    #[test]
    fn spoofing_without_integrity_yields_garbage_not_plaintext() {
        let mut m = sm(IntegrityMode::None);
        let line = vec![0x55u8; 128];
        m.write_line(0x4_0000, &line).unwrap();
        m.attack_spoof(0x4_0000, &[0xFF; 128]);
        assert_eq!(
            m.probe_attack(0x4_0000, &line),
            AttackOutcome::GarbagePlaintext
        );
    }

    #[test]
    fn splicing_is_detected_by_address_bound_mac() {
        let mut m = sm(IntegrityMode::Mac);
        let a = vec![0xAAu8; 128];
        let b = vec![0xBBu8; 128];
        m.write_line(0x4_0000, &a).unwrap();
        m.write_line(0x4_0080, &b).unwrap();
        m.attack_splice(0x4_0000, 0x4_0080);
        assert_eq!(m.probe_attack(0x4_0080, &b), AttackOutcome::Detected);
    }

    #[test]
    fn replay_defeats_plain_mac_but_not_the_root() {
        let old = vec![0x01u8; 128];
        let new = vec![0x02u8; 128];
        // Plain MAC mode: a full replay (ciphertext + MAC + spilled
        // sequence number) succeeds, matching the paper's deferral of
        // replay defence to hash trees.
        let mut m = sm(IntegrityMode::Mac);
        m.write_line(0x4_0000, &old).unwrap();
        let snap = m.attack_snapshot(0x4_0000);
        m.write_line(0x4_0000, &new).unwrap();
        m.attack_replay(&snap);
        assert_eq!(m.probe_attack(0x4_0000, &old), AttackOutcome::Undetected);

        // MacTree mode: the on-chip root catches it.
        let mut m = sm(IntegrityMode::MacTree);
        m.write_line(0x4_0000, &old).unwrap();
        let snap = m.attack_snapshot(0x4_0000);
        m.write_line(0x4_0000, &new).unwrap();
        m.attack_replay(&snap);
        assert_eq!(m.probe_attack(0x4_0000, &old), AttackOutcome::Detected);
    }

    #[test]
    fn data_only_replay_yields_garbage_thanks_to_onchip_sequence() {
        // If the adversary cannot also roll back the sequence number
        // (it stayed inside the security boundary), the stale ciphertext
        // decrypts under the wrong pad.
        let old = vec![0x01u8; 128];
        let new = vec![0x02u8; 128];
        let mut m = sm(IntegrityMode::Mac);
        m.write_line(0x4_0000, &old).unwrap();
        let snap = m.attack_snapshot(0x4_0000);
        m.write_line(0x4_0000, &new).unwrap();
        m.attack_replay_data_only(&snap);
        assert_eq!(
            m.probe_attack(0x4_0000, &old),
            AttackOutcome::GarbagePlaintext
        );
    }

    #[test]
    fn honest_reads_pass_under_all_integrity_modes() {
        for mode in [IntegrityMode::None, IntegrityMode::Mac, IntegrityMode::MacTree] {
            let mut m = sm(mode);
            let line = vec![0x5Au8; 128];
            m.write_line(0x4_0000, &line).unwrap();
            m.write_line(0x4_0080, &line).unwrap();
            m.write_line(0x4_0000, &line).unwrap();
            assert_eq!(m.read_line(0x4_0000).unwrap(), line, "mode {mode:?}");
        }
    }

    #[test]
    fn structured_seed_scheme_roundtrips_too() {
        let mut m = SecureMemory::new(
            CipherKind::Aes128,
            &[9u8; 16],
            SeedScheme::Structured,
            IntegrityMode::Mac,
        );
        let line = vec![0xC3u8; 128];
        m.write_line(0x8000, &line).unwrap();
        m.write_line(0x8000, &line).unwrap();
        assert_eq!(m.read_line(0x8000).unwrap(), line);
    }

    #[test]
    fn install_ciphertext_then_read_via_static_protection() {
        // Simulate the loader: vendor encrypts with the same key/scheme.
        let key = [0x13u8, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1];
        let mut m = sm(IntegrityMode::None);
        let plain = vec![0x77u8; 128];
        let vendor_otp = OneTimePad::new(CipherKind::Des.instantiate(&key));
        let addr = 0x80u64 * 128; // inside the "code" static region
        let ct = vendor_otp.encrypt(addr, &plain); // PaperAdditive, seq 0
        m.install_ciphertext_line(addr, &ct).unwrap();
        assert_eq!(m.read_line(addr).unwrap(), plain);
    }
}
