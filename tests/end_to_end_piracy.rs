//! End-to-end integration: vendor → secure loader → VM, across
//! processors and under attack — the paper's threat model exercised
//! through the full public API.

use padlock::core::vendor::{LoadError, ProcessorIdentity, SecureLoader, SegmentKind, Vendor};
use padlock::core::{IntegrityMode, SeedScheme};
use padlock::crypto::CipherKind;
use padlock::isa::{assemble, Vm, VmError};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GCD_SOURCE: &str = r#"
    addi r1, r0, 1071
    addi r2, r0, 462
gcd:
    beq  r2, r0, done
    ; r3 = r1 mod r2 by repeated subtraction
    add  r3, r1, r0
rem:
    slt  r5, r3, r2
    bne  r5, r0, swap
    sub  r3, r3, r2
    beq  r0, r0, rem
swap:
    add  r1, r2, r0
    add  r2, r3, r0
    beq  r0, r0, gcd
done:
    out  r1
    halt
"#;

fn build(rng: &mut StdRng) -> (ProcessorIdentity, padlock::core::vendor::SoftwarePackage) {
    let cpu = ProcessorIdentity::generate(1, rng);
    let program = assemble(GCD_SOURCE).expect("assembles");
    let package = Vendor::paper_default()
        .package(
            "gcd",
            &[
                (0x1000, SegmentKind::Code, program.encode()),
                (0x2_0000, SegmentKind::Data, vec![0u8; 256]),
            ],
            0x1000,
            cpu.public_key(),
            rng,
        )
        .expect("packages");
    (cpu, package)
}

#[test]
fn program_runs_on_its_target_processor() {
    let mut rng = StdRng::seed_from_u64(1);
    let (cpu, package) = build(&mut rng);
    let loaded = SecureLoader::new(IntegrityMode::Mac)
        .load(&package, &cpu)
        .expect("loads");
    let mut vm = Vm::new(loaded.memory, loaded.entry);
    vm.run(200_000).expect("runs to completion");
    assert_eq!(vm.output(), &[21], "gcd(1071, 462) = 21");
}

#[test]
fn program_refuses_to_run_on_another_processor() {
    let mut rng = StdRng::seed_from_u64(2);
    let (_, package) = build(&mut rng);
    let pirate = ProcessorIdentity::generate(99, &mut rng);
    let err = SecureLoader::new(IntegrityMode::Mac)
        .load(&package, &pirate)
        .expect_err("piracy must fail");
    assert!(
        matches!(
            err,
            LoadError::WrongProcessor
                | LoadError::BadKeyLength { .. }
                | LoadError::PackageTampered { .. }
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn shipped_ciphertext_never_contains_the_plaintext() {
    let mut rng = StdRng::seed_from_u64(3);
    let (_, package) = build(&mut rng);
    let plain = assemble(GCD_SOURCE).unwrap().encode();
    let shipped = &package.segments[0].bytes;
    // No 8-byte window of the shipped code equals the plaintext's.
    for (i, window) in plain.windows(8).enumerate() {
        assert_ne!(&shipped[i..i + 8], window, "plaintext leaked at {i}");
    }
}

#[test]
fn tampering_with_running_memory_traps_the_vm() {
    let mut rng = StdRng::seed_from_u64(4);
    let (cpu, package) = build(&mut rng);
    let loaded = SecureLoader::new(IntegrityMode::Mac)
        .load(&package, &cpu)
        .expect("loads");
    let mut vm = Vm::new(loaded.memory, loaded.entry);
    // Run a little, then flip ciphertext bits under the program's feet.
    for _ in 0..10 {
        vm.step().expect("healthy prefix");
    }
    vm.memory_mut().attack_spoof(0x1000, &[0xAA; 32]);
    let err = vm.run(100_000).expect_err("tampering must trap");
    assert!(
        matches!(
            err,
            VmError::MemoryFault(_) | VmError::IllegalInstruction { .. }
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn every_cipher_choice_supports_the_full_pipeline() {
    for (cipher, scheme) in [
        (CipherKind::Des, SeedScheme::PaperAdditive),
        (CipherKind::TripleDes, SeedScheme::PaperAdditive),
        (CipherKind::Aes128, SeedScheme::Structured),
    ] {
        let mut rng = StdRng::seed_from_u64(5);
        let cpu = ProcessorIdentity::generate(7, &mut rng);
        let program = assemble("addi r1, r0, 9\nout r1\nhalt").unwrap();
        let package = Vendor::new(cipher, scheme)
            .package(
                "nine",
                &[(0x1000, SegmentKind::Code, program.encode())],
                0x1000,
                cpu.public_key(),
                &mut rng,
            )
            .expect("packages");
        let loaded = SecureLoader::new(IntegrityMode::MacTree)
            .load(&package, &cpu)
            .expect("loads");
        let mut vm = Vm::new(loaded.memory, loaded.entry);
        vm.run(100).expect("runs");
        assert_eq!(vm.output(), &[9], "cipher {cipher}");
    }
}
