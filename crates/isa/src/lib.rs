//! A tiny 32-bit RISC ISA, assembler, and VM that executes *through* the
//! padlock functional secure memory.
//!
//! This is the workspace's end-to-end demonstration vehicle for the
//! paper's piracy/tampering story: a vendor assembles and encrypts a
//! program ([`assemble`] + `padlock_core::vendor`), the secure loader
//! unwraps it on one specific processor, and the [`Vm`] fetches every
//! instruction and datum through [`padlock_core::SecureMemory`] — so
//! tampering with off-chip bytes produces garbage instructions or MAC
//! traps exactly as the XOM model prescribes ("it would raise exceptions
//! and then halt", paper §1).
//!
//! # Examples
//!
//! ```
//! use padlock_isa::{assemble, Vm};
//! use padlock_core::{IntegrityMode, LineProtection, SecureMemory, SeedScheme};
//! use padlock_crypto::CipherKind;
//!
//! let program = assemble(r#"
//!     addi r1, r0, 7
//!     addi r2, r0, 35
//!     add  r3, r1, r2
//!     out  r3
//!     halt
//! "#).unwrap();
//!
//! let mut mem = SecureMemory::new(CipherKind::Des, &[9u8; 16],
//!     SeedScheme::PaperAdditive, IntegrityMode::Mac);
//! mem.add_region("code", 0x0, 0x1_0000, LineProtection::OtpDynamic).unwrap();
//! mem.write_bytes(0x1000, &program.encode()).unwrap();
//!
//! let mut vm = Vm::new(mem, 0x1000);
//! vm.run(1_000).unwrap();
//! assert_eq!(vm.output(), &[42]);
//! ```

#![warn(missing_docs)]

mod asm;
mod inst;
mod vm;

pub use asm::{assemble, AsmError, Program};
pub use inst::{decode, encode, Instruction, Opcode, Reg};
pub use vm::{Vm, VmError};
