//! The VM: executes the tiny ISA through a [`SecureMemory`].
//!
//! Every fetch, load, and store crosses the security boundary, so memory
//! tampering is either caught by the MAC (a [`VmError::MemoryFault`]) or
//! surfaces as garbage instructions ([`VmError::IllegalInstruction`]) —
//! the two failure modes the XOM model promises for manipulated
//! software.

use crate::inst::{decode, Opcode};
use padlock_core::{SecureMemory, SecureMemoryError};
use std::fmt;

/// Number of architectural registers.
pub const NUM_REGS: usize = 16;

/// Execution faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The secure memory rejected an access (MAC/root mismatch).
    MemoryFault(SecureMemoryError),
    /// A fetched word did not decode — tampered or mis-keyed code.
    IllegalInstruction {
        /// Faulting pc.
        pc: u64,
        /// The offending word.
        word: u32,
    },
    /// The step budget ran out before `halt`.
    StepLimit {
        /// Steps executed.
        steps: u64,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::MemoryFault(e) => write!(f, "memory fault: {e}"),
            VmError::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at {pc:#x}")
            }
            VmError::StepLimit { steps } => write!(f, "step limit reached after {steps} steps"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<SecureMemoryError> for VmError {
    fn from(e: SecureMemoryError) -> Self {
        VmError::MemoryFault(e)
    }
}

/// The virtual machine.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Vm {
    memory: SecureMemory,
    regs: [u32; NUM_REGS],
    pc: u64,
    halted: bool,
    steps: u64,
    output: Vec<u32>,
}

impl Vm {
    /// Creates a VM over a loaded secure memory, starting at `entry`.
    pub fn new(memory: SecureMemory, entry: u64) -> Self {
        Self {
            memory,
            regs: [0; NUM_REGS],
            pc: entry,
            halted: false,
            steps: 0,
            output: Vec::new(),
        }
    }

    /// The current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Values emitted by `out`.
    pub fn output(&self) -> &[u32] {
        &self.output
    }

    /// Reads a register (r0 reads as zero).
    pub fn reg(&self, idx: usize) -> u32 {
        if idx == 0 {
            0
        } else {
            self.regs[idx]
        }
    }

    fn set_reg(&mut self, idx: usize, value: u32) {
        if idx != 0 {
            self.regs[idx] = value;
        }
    }

    /// The underlying secure memory (attack surface for tests/examples).
    pub fn memory_mut(&mut self) -> &mut SecureMemory {
        &mut self.memory
    }

    /// Borrow of the underlying secure memory.
    pub fn memory(&self) -> &SecureMemory {
        &self.memory
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::MemoryFault`] or
    /// [`VmError::IllegalInstruction`]; `Ok(false)` after a `halt`.
    pub fn step(&mut self) -> Result<bool, VmError> {
        if self.halted {
            return Ok(false);
        }
        let bytes = self.memory.read_bytes(self.pc, 4)?;
        let word = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
        let inst = decode(word).ok_or(VmError::IllegalInstruction {
            pc: self.pc,
            word,
        })?;
        self.steps += 1;
        let mut next_pc = self.pc + 4;
        let rd = inst.rd.0 as usize;
        let rs1 = self.reg(inst.rs1.0 as usize);
        match inst.op {
            Opcode::Add => self.set_reg(rd, rs1.wrapping_add(self.reg(inst.rs2().0 as usize))),
            Opcode::Sub => self.set_reg(rd, rs1.wrapping_sub(self.reg(inst.rs2().0 as usize))),
            Opcode::And => self.set_reg(rd, rs1 & self.reg(inst.rs2().0 as usize)),
            Opcode::Or => self.set_reg(rd, rs1 | self.reg(inst.rs2().0 as usize)),
            Opcode::Xor => self.set_reg(rd, rs1 ^ self.reg(inst.rs2().0 as usize)),
            Opcode::Slt => {
                let lt = (rs1 as i32) < (self.reg(inst.rs2().0 as usize) as i32);
                self.set_reg(rd, u32::from(lt));
            }
            Opcode::Mul => self.set_reg(rd, rs1.wrapping_mul(self.reg(inst.rs2().0 as usize))),
            Opcode::Addi => self.set_reg(rd, rs1.wrapping_add(inst.simm() as u32)),
            Opcode::Lui => self.set_reg(rd, u32::from(inst.imm) << 16),
            Opcode::Lw => {
                let addr = (rs1 as i64 + i64::from(inst.simm())) as u64;
                let bytes = self.memory.read_bytes(addr, 4)?;
                self.set_reg(rd, u32::from_le_bytes(bytes.try_into().expect("4 bytes")));
            }
            Opcode::Sw => {
                let addr = (rs1 as i64 + i64::from(inst.simm())) as u64;
                let value = self.reg(rd);
                self.memory.write_bytes(addr, &value.to_le_bytes())?;
            }
            Opcode::Beq => {
                if self.reg(rd) == rs1 {
                    next_pc = (self.pc as i64 + 4 + i64::from(inst.simm()) * 4) as u64;
                }
            }
            Opcode::Bne => {
                if self.reg(rd) != rs1 {
                    next_pc = (self.pc as i64 + 4 + i64::from(inst.simm()) * 4) as u64;
                }
            }
            Opcode::Jal => {
                self.set_reg(rd, (self.pc + 4) as u32);
                next_pc = (self.pc as i64 + 4 + i64::from(inst.simm()) * 4) as u64;
            }
            Opcode::Jr => {
                next_pc = u64::from(rs1);
            }
            Opcode::Out => {
                self.output.push(rs1);
            }
            Opcode::Halt => {
                self.halted = true;
                return Ok(false);
            }
        }
        self.pc = next_pc;
        Ok(true)
    }

    /// Runs until `halt` or `max_steps`.
    ///
    /// # Errors
    ///
    /// Propagates step faults; returns [`VmError::StepLimit`] when the
    /// budget is exhausted.
    pub fn run(&mut self, max_steps: u64) -> Result<(), VmError> {
        for _ in 0..max_steps {
            if !self.step()? {
                return Ok(());
            }
        }
        if self.halted {
            Ok(())
        } else {
            Err(VmError::StepLimit { steps: self.steps })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use padlock_core::{IntegrityMode, LineProtection, SecureMemory, SeedScheme};
    use padlock_crypto::CipherKind;

    fn vm_with(source: &str) -> Vm {
        let program = assemble(source).expect("assembles");
        let mut mem = SecureMemory::new(
            CipherKind::Des,
            &[0x42u8; 16],
            SeedScheme::PaperAdditive,
            IntegrityMode::Mac,
        );
        mem.add_region("code", 0x0, 0x10_000, LineProtection::OtpDynamic)
            .unwrap();
        mem.add_region("data", 0x10_000, 0x20_000, LineProtection::OtpDynamic)
            .unwrap();
        mem.write_bytes(0x1000, &program.encode()).unwrap();
        Vm::new(mem, 0x1000)
    }

    #[test]
    fn arithmetic_and_output() {
        let mut vm = vm_with(
            "addi r1, r0, 6\n\
             addi r2, r0, 7\n\
             mul r3, r1, r2\n\
             out r3\n\
             halt",
        );
        vm.run(100).unwrap();
        assert_eq!(vm.output(), &[42]);
        assert!(vm.is_halted());
        assert_eq!(vm.steps(), 5);
    }

    #[test]
    fn loop_sums_one_to_ten() {
        let mut vm = vm_with(
            "addi r1, r0, 0      ; sum\n\
             addi r2, r0, 1      ; i\n\
             addi r3, r0, 11     ; bound\n\
             loop: add r1, r1, r2\n\
             addi r2, r2, 1\n\
             bne r2, r3, loop\n\
             out r1\n\
             halt",
        );
        vm.run(1000).unwrap();
        assert_eq!(vm.output(), &[55]);
    }

    #[test]
    fn loads_and_stores_roundtrip_through_secure_memory() {
        let mut vm = vm_with(
            "lui r4, 1           ; r4 = 0x10000 (data base)\n\
             addi r1, r0, 1234\n\
             sw r1, 8(r4)\n\
             lw r2, 8(r4)\n\
             out r2\n\
             halt",
        );
        vm.run(100).unwrap();
        assert_eq!(vm.output(), &[1234]);
        // The stored word is encrypted off-chip.
        let raw = vm.memory().raw_ciphertext(0x10_000, 16);
        assert_ne!(&raw[8..12], &1234u32.to_le_bytes());
    }

    #[test]
    fn fibonacci_with_memory_table() {
        let mut vm = vm_with(
            "lui r4, 1\n\
             addi r1, r0, 0\n\
             addi r2, r0, 1\n\
             addi r5, r0, 10     ; count\n\
             loop: add r3, r1, r2\n\
             sw r3, (r4)\n\
             addi r4, r4, 4\n\
             add r1, r2, r0\n\
             add r2, r3, r0\n\
             addi r5, r5, -1\n\
             bne r5, r0, loop\n\
             out r3\n\
             halt",
        );
        vm.run(1000).unwrap();
        assert_eq!(vm.output(), &[89]); // tenth iteration of the pair

    }

    #[test]
    fn jal_and_jr_implement_calls() {
        let mut vm = vm_with(
            "addi r1, r0, 5\n\
             jal double          ; r15 = return address\n\
             out r1\n\
             halt\n\
             double: add r1, r1, r1\n\
             jr r15",
        );
        vm.run(100).unwrap();
        assert_eq!(vm.output(), &[10]);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut vm = vm_with(
            "addi r0, r0, 99\n\
             out r0\n\
             halt",
        );
        vm.run(10).unwrap();
        assert_eq!(vm.output(), &[0]);
    }

    #[test]
    fn tampered_code_faults() {
        let mut vm = vm_with("addi r1, r0, 1\nhalt");
        // Flip ciphertext bits in the code line.
        vm.memory_mut().attack_spoof(0x1000, &[0xFF; 8]);
        let err = vm.run(10).unwrap_err();
        assert!(
            matches!(
                err,
                VmError::MemoryFault(_) | VmError::IllegalInstruction { .. }
            ),
            "unexpected: {err}"
        );
    }

    #[test]
    fn step_limit_reported() {
        let mut vm = vm_with("loop: beq r0, r0, loop"); // infinite loop
        let err = vm.run(50).unwrap_err();
        assert_eq!(err, VmError::StepLimit { steps: 50 });
    }

    #[test]
    fn halted_vm_stays_halted() {
        let mut vm = vm_with("halt");
        vm.run(10).unwrap();
        assert!(!vm.step().unwrap());
    }
}
