//! Fixture-based rule tests: every `bad_*` fixture must fire exactly
//! its rule, every `good_*` fixture must lint clean. The fixtures are
//! real `.rs` sources checked in under `crates/lint/fixtures/` (a
//! directory the workspace walk skips, so they never poison the CI
//! gate).

use padlock_lint::rules::{lint_source, Rules};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} must exist: {e}", path.display()))
}

/// Lints a fixture as if it lived at `rel_path` inside the workspace.
fn lint_as(name: &str, rel_path: &str) -> padlock_lint::FileReport {
    lint_source(&Rules::default(), rel_path, &fixture(name))
}

fn fired_rules(report: &padlock_lint::FileReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn bad_d1_fires_on_every_hash_collection_mention() {
    let report = lint_as("bad_d1_hashmap.rs", "crates/mem/src/fixture.rs");
    assert_eq!(fired_rules(&report), vec!["D1", "D1", "D1"]);
    assert!(report.findings[0].message.contains("BTreeMap"));
}

#[test]
fn bad_d1_is_scoped_to_simulation_crates() {
    let report = lint_as("bad_d1_hashmap.rs", "crates/workloads/src/fixture.rs");
    assert!(report.findings.is_empty(), "D1 only guards sim crates");
}

#[test]
fn good_d1_btreemap_and_sorted_annotation_pass() {
    let report = lint_as("good_d1_btreemap.rs", "crates/mem/src/fixture.rs");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn bad_d2_fires_on_wallclock_and_entropy() {
    // Three sites: the `use ...Instant`, `Instant::now`, `thread_rng`.
    let report = lint_as("bad_d2_wallclock.rs", "crates/cpu/src/fixture.rs");
    assert_eq!(fired_rules(&report), vec!["D2", "D2", "D2"]);
    // ...in any non-allowed crate, not just sim crates.
    let report = lint_as("bad_d2_wallclock.rs", "crates/stats/src/fixture.rs");
    assert_eq!(fired_rules(&report), vec!["D2", "D2", "D2"]);
}

#[test]
fn bad_d2_is_allowed_in_bench() {
    let report = lint_as("bad_d2_wallclock.rs", "crates/bench/src/fixture.rs");
    assert!(report.findings.is_empty(), "bench times real host execution");
}

#[test]
fn good_d2_seeded_rng_and_test_entropy_pass() {
    let report = lint_as("good_d2_seeded.rs", "crates/cpu/src/fixture.rs");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn bad_t1_fires_on_unsafe_static_mut_and_refcell() {
    let report = lint_as("bad_t1_unsafe.rs", "crates/core/src/fixture.rs");
    // Four sites: the `use ...RefCell`, the static mut, the RefCell
    // field, and the unsafe block.
    assert_eq!(fired_rules(&report), vec!["T1", "T1", "T1", "T1"]);
    let whats: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(whats.iter().any(|m| m.contains("static mut")));
    assert!(whats.iter().any(|m| m.contains("RefCell")));
    assert!(whats.iter().any(|m| m.contains("`unsafe`")));
    assert!(report.audit.is_empty(), "unjustified sites are findings, not audit rows");
}

#[test]
fn good_t1_justified_sites_feed_the_audit_table() {
    let report = lint_as("good_t1_justified.rs", "crates/core/src/fixture.rs");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let whats: Vec<&str> = report.audit.iter().map(|a| a.what.as_str()).collect();
    assert_eq!(whats, vec!["RefCell", "static mut", "RefCell", "unsafe"]);
    assert!(report
        .audit
        .iter()
        .all(|a| !a.justification.is_empty()), "every audit row carries its why");
}

#[test]
fn bad_t1_pool_fires_on_every_unsafe_sync_site() {
    // An unsafe sweep executor's result-slot idiom: an `UnsafeCell` buffer
    // (use + field), the `unsafe impl Sync`, the `unsafe fn`
    // declaration, and the raw write — five unjustified sites.
    let report = lint_as("bad_t1_pool_unsafe.rs", "crates/exec/src/fixture.rs");
    assert_eq!(fired_rules(&report), vec!["T1", "T1", "T1", "T1", "T1"]);
    let whats: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(whats.iter().any(|m| m.contains("UnsafeCell")));
    assert!(whats.iter().any(|m| m.contains("`unsafe`")));
    assert!(report.audit.is_empty());
}

#[test]
fn good_t1_pool_justified_sites_feed_the_audit_table() {
    let report = lint_as("good_t1_pool_justified.rs", "crates/exec/src/fixture.rs");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let whats: Vec<&str> = report.audit.iter().map(|a| a.what.as_str()).collect();
    assert_eq!(whats, vec!["UnsafeCell", "UnsafeCell", "unsafe", "unsafe", "unsafe"]);
    assert!(
        report.audit.iter().all(|a| !a.justification.is_empty()),
        "every audit row carries its why"
    );
}

#[test]
fn bad_c1_fires_on_cycle_narrowing() {
    let report = lint_as("bad_c1_narrowing.rs", "crates/mem/src/fixture.rs");
    assert_eq!(fired_rules(&report), vec!["C1", "C1"]);
    assert!(report.findings[0].message.contains("total_cycles"));
    assert!(report.findings[1].message.contains("busy_until"));
}

#[test]
fn good_c1_checked_widening_bounded_pass() {
    let report = lint_as("good_c1_checked.rs", "crates/mem/src/fixture.rs");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn bad_u1_fires_under_src_only() {
    let report = lint_as("bad_u1_unwrap.rs", "crates/mem/src/fixture.rs");
    assert_eq!(fired_rules(&report), vec!["U1"]);
    // The same code in a tests/ or examples/ tree is exempt.
    assert!(lint_as("bad_u1_unwrap.rs", "crates/mem/tests/fixture.rs").findings.is_empty());
    assert!(lint_as("bad_u1_unwrap.rs", "examples/fixture.rs").findings.is_empty());
}

#[test]
fn good_u1_expect_and_friends_pass() {
    let report = lint_as("good_u1_expect.rs", "crates/mem/src/fixture.rs");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn every_fixture_has_a_verdict() {
    // Guard against a fixture being added without a test: each bad_*
    // file must produce findings when linted as a sim-crate source, and
    // each good_* file must not.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut saw = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        if !name.ends_with(".rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        let report = lint_source(&Rules::default(), "crates/mem/src/fixture.rs", &src);
        if name.starts_with("bad_") {
            assert!(!report.findings.is_empty(), "{name} must fire");
        } else if name.starts_with("good_") {
            assert!(report.findings.is_empty(), "{name} must pass: {:?}", report.findings);
        } else {
            panic!("fixture {name} must be named bad_* or good_*");
        }
        saw += 1;
    }
    assert!(saw >= 10, "expected the full fixture set, found {saw}");
}
