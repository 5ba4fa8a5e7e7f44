//! The paper's three memory attacks — spoofing, splicing, replay —
//! executed against the functional secure memory under each integrity
//! mode, printed as a detection matrix.
//!
//! ```text
//! cargo run --release --example attack_gallery
//! ```

use padlock_core::{
    AttackOutcome, IntegrityMode, LineProtection, SecureMemory, SeedScheme,
};
use padlock_crypto::CipherKind;

fn fresh_as(integrity: IntegrityMode, key: &[u8; 16]) -> SecureMemory {
    let mut m = SecureMemory::new(
        CipherKind::Aes128,
        key,
        SeedScheme::PaperAdditive,
        integrity,
    );
    m.add_region("data", 0x1_0000, 0x2_0000, LineProtection::OtpDynamic)
        .unwrap();
    m
}

fn fresh(integrity: IntegrityMode) -> SecureMemory {
    fresh_as(integrity, &[0x5Au8; 16])
}

fn label(outcome: AttackOutcome) -> &'static str {
    match outcome {
        AttackOutcome::Detected => "DETECTED",
        AttackOutcome::GarbagePlaintext => "wrong plaintext",
        AttackOutcome::Undetected => "UNDETECTED !!",
    }
}

fn main() {
    const A: u64 = 0x1_0000;
    const B: u64 = 0x1_0080;
    let secret = vec![0x11u8; 128];
    let other = vec![0x22u8; 128];
    let updated = vec![0x33u8; 128];

    println!("attack            none                      mac                       mac+root");
    println!("{}", "-".repeat(104));

    let run = |name: &str, attack: &dyn Fn(&mut SecureMemory) -> AttackOutcome| {
        let mut row = format!("{name:16}");
        for integrity in [IntegrityMode::None, IntegrityMode::Mac, IntegrityMode::MacTree] {
            let mut m = fresh(integrity);
            m.write_line(A, &secret).unwrap();
            m.write_line(B, &other).unwrap();
            let outcome = attack(&mut m);
            row.push_str(&format!("  {:24}", label(outcome)));
        }
        println!("{row}");
    };

    run("spoofing", &|m| {
        // Overwrite raw ciphertext with attacker-chosen bytes.
        m.attack_spoof(A, &[0xFF; 128]);
        m.probe_attack(A, &secret)
    });

    run("splicing", &|m| {
        // Move B's valid ciphertext (and MAC) over A.
        m.attack_splice(B, A);
        m.probe_attack(A, &secret)
    });

    run("replay", &|m| {
        // Capture everything, let the program update the line, restore.
        let snapshot = m.attack_snapshot(A);
        m.write_line(A, &updated).unwrap();
        m.attack_replay(&snapshot);
        m.probe_attack(A, &secret)
    });

    run("replay (data)", &|m| {
        // Replay without the spilled sequence number: the on-chip
        // counter has moved on, so the stale pad no longer matches.
        let snapshot = m.attack_snapshot(A);
        m.write_line(A, &updated).unwrap();
        m.attack_replay_data_only(&snapshot);
        m.probe_attack(A, &secret)
    });

    // The secure-server scenario: compartment A's line is captured
    // (ciphertext, MAC, and spilled sequence number — the full replay
    // that is UNDETECTED above without a hash root), the scheduler
    // context-switches to compartment B, and the attacker rolls the
    // physical region back while B owns it. B's XOM key derives B's
    // one-time-pad stream, so A's stale ciphertext decrypts to garbage
    // — per-compartment key isolation holds before any integrity mode
    // weighs in.
    let mut row = format!("{:16}", "xcomp rollback");
    for integrity in [IntegrityMode::None, IntegrityMode::Mac, IntegrityMode::MacTree] {
        let mut comp_a = fresh_as(integrity, &[0x5Au8; 16]);
        comp_a.write_line(A, &secret).unwrap();
        let stale = comp_a.attack_snapshot(A);
        // After the switch the same physical region is mapped under
        // compartment B's key; B has since written its own data there.
        let mut comp_b = fresh_as(integrity, &[0xC3u8; 16]);
        comp_b.write_line(A, &updated).unwrap();
        comp_b.attack_replay(&stale);
        row.push_str(&format!("  {:24}", label(comp_b.probe_attack(A, &secret))));
    }
    println!("{row}");

    println!(
        "\nReading the matrix: plain MACs stop spoofing and splicing (the\n\
         tag binds ciphertext to its address) but full replay — data,\n\
         MAC, and spilled sequence number together — needs the on-chip\n\
         root hash, matching the paper's deferral of replay defence to\n\
         Gassend et al.'s hash trees. The cross-compartment rollback\n\
         row is the exception that needs no tree: replaying compartment\n\
         A's stale line after a context switch to compartment B fails\n\
         even without integrity, because each compartment's pads are\n\
         derived from its own vendor key (§2.3) — A's ciphertext under\n\
         B's key stream is noise.\n\n\
         \"wrong plaintext\" means the read passed and returned bytes the\n\
         program never wrote. Random ciphertext decrypts to noise, but a\n\
         one-time pad is a stream cipher: flipping chosen ciphertext bits\n\
         of a one-time-pad line flips the same plaintext bits, so without\n\
         integrity a targeted flip makes the plaintext attacker-chosen."
    );
}
