//! Cross-crate timing invariants: properties the paper's latency
//! arithmetic implies, checked over a grid of configurations and with
//! property-based workloads.

use padlock::core::{
    Machine, MachineConfig, SecureBackend, SecureBackendConfig, SecurityMode, SncConfig,
    SncOrganization, SncPolicy,
};
use padlock::cpu::{LineKind, MemoryBackend, StrideWorkload};
use padlock::crypto::CryptoUnitModel;
use proptest::prelude::*;

fn controller(mode: SecurityMode, crypto: u64) -> SecureBackend {
    let mut cfg = SecureBackendConfig::paper(mode);
    cfg.crypto = CryptoUnitModel::new(crypto);
    cfg.mem_occupancy = 0;
    SecureBackend::new(cfg)
}

#[test]
fn otp_fast_path_is_max_plus_one_over_the_grid() {
    for mem_latency in [60u64, 100, 200] {
        for crypto in [25u64, 50, 102, 250] {
            let mut cfg = SecureBackendConfig::paper(SecurityMode::otp_lru_64k());
            cfg.crypto = CryptoUnitModel::new(crypto);
            cfg.mem_latency = mem_latency;
            cfg.mem_occupancy = 0;
            let mut b = SecureBackend::new(cfg);
            let done = b.line_read(0, 0x4000, LineKind::Instruction);
            assert_eq!(
                done,
                mem_latency.max(crypto) + 1,
                "mem {mem_latency}, crypto {crypto}"
            );
        }
    }
}

#[test]
fn xom_path_is_serial_sum_over_the_grid() {
    for crypto in [25u64, 50, 102, 250] {
        let mut b = controller(SecurityMode::Xom, crypto);
        assert_eq!(b.line_read(0, 0x4000, LineKind::Data), 100 + crypto);
    }
}

#[test]
fn lru_query_miss_costs_sequence_fetch_then_overlapped_line_fetch() {
    // Algorithm 1: mem (seq) + crypto (decrypt) + max(mem, crypto) + 1.
    let mut b = controller(
        SecurityMode::Otp {
            snc: SncConfig {
                capacity_bytes: 2,
                organization: SncOrganization::FullyAssociative,
                policy: SncPolicy::Lru,
            },
        },
        50,
    );
    b.line_writeback(0, 0x8000);
    b.line_writeback(0, 0x9000); // evicts 0x8000's sequence number
    let done = b.line_read(10_000, 0x8000, LineKind::Data);
    assert_eq!(done - 10_000, 100 + 50 + 100 + 1);
}

/// Machine-level orderings on a common workload.
fn cycles(mode: SecurityMode, ws: u64) -> u64 {
    let mut machine = Machine::new(MachineConfig::paper(mode));
    let mut w = StrideWorkload::new(ws, 128, 0.3);
    machine.run(&mut w, 5_000, 20_000).stats.cycles
}

#[test]
fn security_never_speeds_up_and_otp_never_beats_baseline_by_design() {
    for ws in [64 << 10, 4 << 20, 32 << 20] {
        let base = cycles(SecurityMode::Insecure, ws);
        let otp = cycles(SecurityMode::otp_lru_64k(), ws);
        let xom = cycles(SecurityMode::Xom, ws);
        assert!(base <= otp, "ws {ws}: baseline {base} vs otp {otp}");
        assert!(otp <= xom, "ws {ws}: otp {otp} vs xom {xom}");
    }
}

#[test]
fn slow_crypto_hurts_xom_much_more_than_otp() {
    let ws = 32 << 20;
    let base = cycles(SecurityMode::Insecure, ws) as f64;
    let xom50 = cycles(SecurityMode::Xom, ws) as f64;
    let mut cfg = MachineConfig::paper(SecurityMode::Xom);
    cfg.security = cfg.security.with_slow_crypto();
    let xom102 = {
        let mut m = Machine::new(cfg);
        let mut w = StrideWorkload::new(ws, 128, 0.3);
        m.run(&mut w, 5_000, 20_000).stats.cycles as f64
    };
    let mut cfg = MachineConfig::paper(SecurityMode::otp_lru_64k());
    cfg.security = cfg.security.with_slow_crypto();
    let otp102 = {
        let mut m = Machine::new(cfg);
        let mut w = StrideWorkload::new(ws, 128, 0.3);
        m.run(&mut w, 5_000, 20_000).stats.cycles as f64
    };
    let xom_delta = (xom102 - xom50) / base;
    let otp102_over = (otp102 - base) / base;
    assert!(
        xom_delta > 0.05,
        "doubling crypto latency must visibly hurt XOM (delta {xom_delta})"
    );
    assert!(
        otp102_over < 0.10,
        "OTP must stay nearly insensitive (overhead {otp102_over})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random small workload shapes: the backend orderings hold for all.
    #[test]
    fn orderings_hold_for_random_workloads(
        ws_pow in 14u32..24,
        stride in prop::sample::select(vec![32u64, 64, 128, 256]),
        memfrac in 0.05f64..0.5,
    ) {
        let ws = 1u64 << ws_pow;
        let run = |mode: SecurityMode| {
            let mut machine = Machine::new(MachineConfig::paper(mode));
            let mut w = StrideWorkload::new(ws, stride, memfrac);
            machine.run(&mut w, 2_000, 8_000).stats.cycles
        };
        let base = run(SecurityMode::Insecure);
        let otp = run(SecurityMode::otp_lru_64k());
        let xom = run(SecurityMode::Xom);
        prop_assert!(base <= otp);
        prop_assert!(otp <= xom);
    }
}
