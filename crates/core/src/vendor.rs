//! Software packaging and the secure loader (paper §2.1).
//!
//! The vendor encrypts the program under a fresh symmetric key `Ks`,
//! wraps `Ks` with the target processor's public key, and ships
//! `{ciphertext, wrapped key, per-line MACs}`. The processor unwraps
//! `Ks` once (slow, asymmetric) and thereafter decrypts lines with the
//! fast symmetric path. Software packaged for processor A cannot run on
//! processor B: B's private key unwraps garbage, which the MACs reject —
//! the piracy protection the paper's title promises.

use crate::config::SeedScheme;
use crate::secure_mem::{IntegrityMode, LineProtection, SecureMemory, LINE};
use padlock_crypto::rsa::{KeyPair, PublicKey, RsaError};
use padlock_crypto::{CbcMac, CipherKind, OneTimePad};
use padlock_mem::LINE_BYTES;
use std::fmt;

/// A processor's burned-in identity: the asymmetric pair whose private
/// half never leaves the die.
///
/// # Examples
///
/// ```
/// use padlock_core::vendor::ProcessorIdentity;
///
/// let mut rng = rand::thread_rng();
/// let cpu = ProcessorIdentity::generate(0xC0FFEE, &mut rng);
/// assert_eq!(cpu.serial(), 0xC0FFEE);
/// ```
#[derive(Debug, Clone)]
pub struct ProcessorIdentity {
    serial: u64,
    keypair: KeyPair,
}

impl ProcessorIdentity {
    /// Manufactures a processor with a fresh key pair.
    ///
    /// Key size is kept small (toy RSA) so tests are fast; see
    /// `padlock-crypto::rsa` caveats.
    pub fn generate(serial: u64, rng: &mut impl rand::Rng) -> Self {
        Self {
            serial,
            keypair: KeyPair::generate(256, rng),
        }
    }

    /// The processor serial number.
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// The public key a vendor targets.
    pub fn public_key(&self) -> &PublicKey {
        self.keypair.public()
    }

    fn unwrap_key(&self, wrapped: &[u8]) -> Result<Vec<u8>, RsaError> {
        self.keypair.private().decrypt(wrapped)
    }
}

/// What a segment holds, deciding its protection at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Instructions: OTP with address seeds, never written back.
    Code,
    /// Read-only data: same protection as code.
    RoData,
    /// Initialised writable data: OTP-dynamic after load.
    Data,
    /// Shipped in cleartext (shared library stubs, sample inputs).
    Plain,
}

impl SegmentKind {
    fn protection(self) -> LineProtection {
        match self {
            SegmentKind::Code | SegmentKind::RoData => LineProtection::OtpStatic,
            SegmentKind::Data => LineProtection::OtpDynamic,
            SegmentKind::Plain => LineProtection::Plaintext,
        }
    }
}

/// One contiguous, line-aligned program segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Load base (line-aligned virtual address).
    pub base: u64,
    /// Segment kind.
    pub kind: SegmentKind,
    /// The shipped bytes: ciphertext for protected kinds, cleartext for
    /// [`SegmentKind::Plain`]. Padded to whole [`LINE_BYTES`] lines.
    pub bytes: Vec<u8>,
}

/// A shippable software package.
#[derive(Debug, Clone)]
pub struct SoftwarePackage {
    /// Product name.
    pub name: String,
    /// `Ks` wrapped with the target processor's public key.
    pub wrapped_key: Vec<u8>,
    /// The symmetric cipher the payload uses.
    pub cipher: CipherKind,
    /// The seed derivation scheme.
    pub seed_scheme: SeedScheme,
    /// Program segments.
    pub segments: Vec<Segment>,
    /// Per-line MACs over the shipped ciphertext, `(line_addr, tag)`.
    pub macs: Vec<(u64, [u8; 8])>,
    /// Program entry point.
    pub entry: u64,
}

/// Errors raised while building a package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackageError {
    /// A segment base was not line-aligned.
    UnalignedSegment {
        /// The offending base address.
        base: u64,
    },
    /// Key wrapping failed (key too large for the toy RSA modulus).
    KeyWrap(RsaError),
}

impl fmt::Display for PackageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackageError::UnalignedSegment { base } => {
                write!(f, "segment base {base:#x} is not line-aligned")
            }
            PackageError::KeyWrap(e) => write!(f, "key wrapping failed: {e}"),
        }
    }
}

impl std::error::Error for PackageError {}

/// Errors raised by the secure loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The wrapped key would not decrypt — software targeted at a
    /// different processor (the piracy case).
    WrongProcessor,
    /// The unwrapped key had an unexpected length.
    BadKeyLength {
        /// Bytes expected.
        expected: usize,
        /// Bytes recovered.
        found: usize,
    },
    /// A shipped MAC failed verification after install (tampered
    /// package, or key mismatch that slipped past the sentinel).
    PackageTampered {
        /// The offending line.
        addr: u64,
    },
    /// Region conflicts while mapping segments.
    RegionConflict(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::WrongProcessor => {
                write!(f, "package is keyed to a different processor")
            }
            LoadError::BadKeyLength { expected, found } => {
                write!(f, "unwrapped key was {found} bytes, expected {expected}")
            }
            LoadError::PackageTampered { addr } => {
                write!(f, "package integrity check failed at {addr:#x}")
            }
            LoadError::RegionConflict(msg) => write!(f, "region conflict: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// The software vendor: packages programs for a target processor.
#[derive(Debug, Clone)]
pub struct Vendor {
    cipher: CipherKind,
    seed_scheme: SeedScheme,
}

impl Vendor {
    /// A vendor shipping DES-encrypted, paper-seeded packages (the
    /// paper's running configuration).
    pub fn paper_default() -> Self {
        Self::new(CipherKind::Des, SeedScheme::PaperAdditive)
    }

    /// A vendor using a custom cipher/scheme.
    pub fn new(cipher: CipherKind, seed_scheme: SeedScheme) -> Self {
        Self {
            cipher,
            seed_scheme,
        }
    }

    /// Packages `segments` (plaintext) for the processor owning
    /// `target`; returns the shippable package.
    ///
    /// # Errors
    ///
    /// Returns [`PackageError`] on unaligned segments or key-wrapping
    /// failure.
    pub fn package(
        &self,
        name: &str,
        segments: &[(u64, SegmentKind, Vec<u8>)],
        entry: u64,
        target: &PublicKey,
        rng: &mut impl rand::Rng,
    ) -> Result<SoftwarePackage, PackageError> {
        // Toy RSA: keep Ks short enough to fit under small moduli.
        let mut ks = vec![0u8; 16];
        rng.fill_bytes(&mut ks);
        ks.truncate(self.cipher.key_size().min(16));
        if ks.len() < self.cipher.key_size() {
            ks.resize(self.cipher.key_size(), 0x5A);
        }
        let wrapped_key = target
            .encrypt(&ks, rng)
            .map_err(PackageError::KeyWrap)?;

        let otp = OneTimePad::new(self.cipher.instantiate(&ks));
        let mut mac_key = ks.clone();
        for b in &mut mac_key {
            *b ^= 0xA5;
        }
        let mac = CbcMac::new(self.cipher.instantiate(&mac_key));

        let mut out_segments = Vec::new();
        let mut macs = Vec::new();
        for (base, kind, plain) in segments {
            if base % u64::from(LINE_BYTES) != 0 {
                return Err(PackageError::UnalignedSegment { base: *base });
            }
            let mut padded = plain.clone();
            padded.resize(padded.len().div_ceil(LINE) * LINE, 0);
            let mut shipped = Vec::with_capacity(padded.len());
            for (i, line) in padded.chunks(LINE).enumerate() {
                let addr = base + (i * LINE) as u64;
                let bytes = match kind {
                    SegmentKind::Plain => line.to_vec(),
                    _ => otp.encrypt(self.seed_scheme.seed(addr, 0), line),
                };
                macs.push((addr, mac.tag(addr, &bytes)));
                shipped.extend_from_slice(&bytes);
            }
            out_segments.push(Segment {
                base: *base,
                kind: *kind,
                bytes: shipped,
            });
        }

        Ok(SoftwarePackage {
            name: name.to_string(),
            wrapped_key,
            cipher: self.cipher,
            seed_scheme: self.seed_scheme,
            segments: out_segments,
            macs,
            entry,
        })
    }
}

/// A loaded, runnable program: decrypting memory plus the entry point.
#[derive(Debug)]
pub struct LoadedProgram {
    /// The functional secure memory holding the program.
    pub memory: SecureMemory,
    /// Entry point.
    pub entry: u64,
}

/// The processor-side secure loader.
#[derive(Debug, Clone, Copy, Default)]
pub struct SecureLoader {
    /// Integrity mode to run the program under.
    pub integrity: IntegrityMode,
}

impl SecureLoader {
    /// Creates a loader that configures the given integrity mode.
    pub fn new(integrity: IntegrityMode) -> Self {
        Self { integrity }
    }

    /// Loads `package` on `processor`: unwraps `Ks`, installs ciphertext,
    /// verifies the shipped MACs, and maps protection regions.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::WrongProcessor`] when the wrapped key does
    /// not unwrap (the piracy case), or
    /// [`LoadError::PackageTampered`] when shipped lines fail their MACs.
    pub fn load(
        &self,
        package: &SoftwarePackage,
        processor: &ProcessorIdentity,
    ) -> Result<LoadedProgram, LoadError> {
        let ks = processor
            .unwrap_key(&package.wrapped_key)
            .map_err(|_| LoadError::WrongProcessor)?;
        if ks.len() != package.cipher.key_size() {
            return Err(LoadError::BadKeyLength {
                expected: package.cipher.key_size(),
                found: ks.len(),
            });
        }

        // Verify the shipped MACs with the unwrapped key before any
        // installation is trusted.
        let mut mac_key = ks.clone();
        for b in &mut mac_key {
            *b ^= 0xA5;
        }
        let mac = CbcMac::new(package.cipher.instantiate(&mac_key));
        let mut shipped_macs = package.macs.iter();
        for seg in &package.segments {
            for (i, line) in seg.bytes.chunks(LINE).enumerate() {
                let addr = seg.base + (i * LINE) as u64;
                let (mac_addr, tag) = shipped_macs
                    .next()
                    .ok_or(LoadError::PackageTampered { addr })?;
                if *mac_addr != addr || !mac.verify(addr, line, tag) {
                    return Err(LoadError::PackageTampered { addr });
                }
            }
        }

        let mut memory =
            SecureMemory::new(package.cipher, &ks, package.seed_scheme, self.integrity);
        for seg in &package.segments {
            let end = seg.base + seg.bytes.len() as u64;
            memory
                .add_region(&package.name, seg.base, end, seg.kind.protection())
                .map_err(|e| LoadError::RegionConflict(e.to_string()))?;
        }
        for seg in &package.segments {
            for (i, line) in seg.bytes.chunks(LINE).enumerate() {
                let addr = seg.base + (i * LINE) as u64;
                // Shipped bytes install as they are: ciphertext, or
                // cleartext for plain segments.
                memory
                    .install_ciphertext_line(addr, line)
                    .expect("aligned line");
            }
        }
        Ok(LoadedProgram {
            memory,
            entry: package.entry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED)
    }

    fn simple_package(
        vendor: &Vendor,
        target: &PublicKey,
        rng: &mut StdRng,
    ) -> (SoftwarePackage, Vec<u8>) {
        let code: Vec<u8> = (0..256u32).map(|i| (i * 7) as u8).collect();
        let pkg = vendor
            .package(
                "demo",
                &[
                    (0x1000, SegmentKind::Code, code.clone()),
                    (0x8000, SegmentKind::Data, vec![0x11; 64]),
                ],
                0x1000,
                target,
                rng,
            )
            .unwrap();
        (pkg, code)
    }

    #[test]
    fn package_ships_ciphertext_not_plaintext() {
        let mut rng = rng();
        let cpu = ProcessorIdentity::generate(1, &mut rng);
        let vendor = Vendor::paper_default();
        let (pkg, code) = simple_package(&vendor, cpu.public_key(), &mut rng);
        assert_ne!(&pkg.segments[0].bytes[..code.len()], &code[..]);
        assert_eq!(pkg.entry, 0x1000);
        assert_eq!(pkg.macs.len(), 2 + 1); // 256B code = 2 lines, 64B data = 1
    }

    #[test]
    fn load_on_target_recovers_the_program() {
        let mut rng = rng();
        let cpu = ProcessorIdentity::generate(1, &mut rng);
        let vendor = Vendor::paper_default();
        let (pkg, code) = simple_package(&vendor, cpu.public_key(), &mut rng);
        let loaded = SecureLoader::new(IntegrityMode::Mac)
            .load(&pkg, &cpu)
            .unwrap();
        let recovered = loaded.memory.read_bytes(0x1000, code.len()).unwrap();
        assert_eq!(recovered, code);
    }

    #[test]
    fn load_on_other_processor_fails() {
        let mut rng = rng();
        let cpu_a = ProcessorIdentity::generate(1, &mut rng);
        let cpu_b = ProcessorIdentity::generate(2, &mut rng);
        let vendor = Vendor::paper_default();
        let (pkg, _) = simple_package(&vendor, cpu_a.public_key(), &mut rng);
        let err = SecureLoader::default().load(&pkg, &cpu_b).unwrap_err();
        assert!(
            matches!(
                err,
                LoadError::WrongProcessor
                    | LoadError::BadKeyLength { .. }
                    | LoadError::PackageTampered { .. }
            ),
            "unexpected: {err}"
        );
    }

    #[test]
    fn tampered_package_is_rejected_at_load() {
        let mut rng = rng();
        let cpu = ProcessorIdentity::generate(1, &mut rng);
        let vendor = Vendor::paper_default();
        let (mut pkg, _) = simple_package(&vendor, cpu.public_key(), &mut rng);
        pkg.segments[0].bytes[5] ^= 0x01;
        let err = SecureLoader::default().load(&pkg, &cpu).unwrap_err();
        assert!(matches!(err, LoadError::PackageTampered { addr: 0x1000 }));
    }

    #[test]
    fn plain_segments_ship_and_load_in_cleartext() {
        let mut rng = rng();
        let cpu = ProcessorIdentity::generate(1, &mut rng);
        let vendor = Vendor::paper_default();
        let input = vec![0x42u8; 128];
        let pkg = vendor
            .package(
                "demo",
                &[(0x2000, SegmentKind::Plain, input.clone())],
                0x2000,
                cpu.public_key(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(pkg.segments[0].bytes, input);
        let loaded = SecureLoader::default().load(&pkg, &cpu).unwrap();
        assert_eq!(loaded.memory.read_bytes(0x2000, 128).unwrap(), input);
        assert_eq!(loaded.memory.raw_ciphertext(0x2000, 128), input);
    }

    #[test]
    fn data_segments_become_dynamic_after_load() {
        let mut rng = rng();
        let cpu = ProcessorIdentity::generate(1, &mut rng);
        let vendor = Vendor::paper_default();
        let (pkg, _) = simple_package(&vendor, cpu.public_key(), &mut rng);
        let mut loaded = SecureLoader::default().load(&pkg, &cpu).unwrap();
        // Writing the data segment bumps its sequence number.
        loaded.memory.write_bytes(0x8000, &[0x99; 8]).unwrap();
        assert_eq!(loaded.memory.sequence_number(0x8000), 1);
        assert_eq!(
            loaded.memory.read_bytes(0x8000, 8).unwrap(),
            vec![0x99; 8]
        );
    }

    #[test]
    fn unaligned_segment_is_rejected() {
        let mut rng = rng();
        let cpu = ProcessorIdentity::generate(1, &mut rng);
        let vendor = Vendor::paper_default();
        let err = vendor
            .package(
                "bad",
                &[(0x1001, SegmentKind::Code, vec![0; 4])],
                0x1001,
                cpu.public_key(),
                &mut rng,
            )
            .unwrap_err();
        assert_eq!(err, PackageError::UnalignedSegment { base: 0x1001 });
    }

    #[test]
    fn aes_vendor_works_end_to_end() {
        let mut rng = rng();
        let cpu = ProcessorIdentity::generate(1, &mut rng);
        let vendor = Vendor::new(CipherKind::Aes128, SeedScheme::Structured);
        let code = vec![0xF0u8; 200];
        let pkg = vendor
            .package(
                "aes-demo",
                &[(0x4000, SegmentKind::Code, code.clone())],
                0x4000,
                cpu.public_key(),
                &mut rng,
            )
            .unwrap();
        let loaded = SecureLoader::new(IntegrityMode::MacTree)
            .load(&pkg, &cpu)
            .unwrap();
        assert_eq!(loaded.memory.read_bytes(0x4000, 200).unwrap(), code);
    }
}
