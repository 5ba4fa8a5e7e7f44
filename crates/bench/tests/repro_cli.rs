//! CLI-level tests of the `repro` binary's argument validation: bad
//! axes and policies must fail fast with a usage error (exit code 2)
//! before any simulation starts, and `--help` must advertise the
//! scheduling flags.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn banks_must_divide_the_row() {
    // ROW_LINES = 16: a 3-bank fabric would silently compare unequal
    // bank populations in the row-hit tables; the CLI rejects it.
    for bad in ["3", "5", "1,4,6", "32"] {
        let out = repro(&["--mlp", "--smoke", "--banks", bad]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--banks {bad} should be a usage error"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("divide"),
            "--banks {bad}: unexpected message {stderr:?}"
        );
        // Fails before any table is simulated or printed.
        assert!(out.stdout.is_empty(), "--banks {bad} printed output");
    }
}

#[test]
fn channels_must_divide_the_swept_snc() {
    // The --mlp end-to-end and --server machines pair one shard of a
    // 64-entry SNC with each channel; a channel count that does not
    // divide the entries cannot be built, so the CLI rejects it before
    // printing any table.
    for args in [
        &["--mlp", "--smoke", "--channels", "3"][..],
        &["--mlp", "--smoke", "--channels", "1,128"][..],
        &["--server", "--smoke", "--channels", "6"][..],
        &["--server", "--smoke", "--cores", "1", "--channels", "2,5"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("divide the 64 SNC entries"),
            "{args:?}: unexpected message {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
}

#[test]
fn zero_and_garbage_axes_are_rejected() {
    for (flag, value) in [("--banks", "0"), ("--banks", "x"), ("--channels", "0")] {
        let out = repro(&["--mlp", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
    }
}

#[test]
fn order_and_page_accept_only_known_policies() {
    for (flag, bad) in [("--order", "lifo"), ("--page", "ajar")] {
        let out = repro(&["--mlp", flag, bad]);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("expects"), "{flag} {bad}: {stderr:?}");
    }
}

#[test]
fn jobs_must_be_a_positive_worker_count() {
    for bad in ["0", "x", "-1", "1.5"] {
        let out = repro(&["--mlp", "--smoke", "--jobs", bad]);
        assert_eq!(out.status.code(), Some(2), "--jobs {bad} should be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--jobs"),
            "--jobs {bad}: unexpected message {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "--jobs {bad} printed output");
    }
    // The flag needs a value at all.
    let out = repro(&["--mlp", "--jobs"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn server_axes_require_the_server_sweep() {
    // --cores / --switch configure the contention grid; outside
    // --server they would be silently ignored, so the CLI rejects them.
    for args in [
        &["--mlp", "--cores", "1,2"][..],
        &["--mlp", "--switch", "20000"][..],
        &["--cores", "1,2"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--server"), "{args:?}: {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
    // The two sweeps are exclusive, and `mix` only means round-robin
    // compartment assignment on the server.
    let out = repro(&["--server", "--mlp"]);
    assert_eq!(out.status.code(), Some(2));
    let out = repro(&["--mlp", "--smoke", "--trace", "mix"]);
    assert_eq!(out.status.code(), Some(2));
    // Garbage and empty server axes fail fast.
    for (flag, bad) in [("--cores", "x"), ("--cores", "0"), ("--switch", "q")] {
        let out = repro(&["--server", "--smoke", flag, bad]);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}");
    }
    // Quantum 0 (no switching) is a legal axis value, parsed fine:
    // validation stops at parse, long before any simulation.
    let out = repro(&["--server", "--switch", "0", "--cores", "x"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn jsonl_requires_the_bank_sweep() {
    let out = repro(&["--mlp", "--smoke", "--jsonl", "/tmp/never-written.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--banks"), "unexpected message {stderr:?}");
}

/// Asserts `args` fail with an I/O usage error naming the bad path,
/// before printing any table.
fn assert_unwritable(args: &[&str], path: &str) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("cannot write {path}")),
        "{args:?}: unexpected message {stderr:?}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed output");
}

#[test]
fn unwritable_jsonl_path_fails_before_the_sweep() {
    let bank_sweep = "--mlp --smoke --mshrs 1 --channels 1 --banks 1 --trace rstride --jobs 1";
    let mut args: Vec<&str> = bank_sweep.split(' ').collect();
    args.extend(["--jsonl", "/proc/nope/x.jsonl"]);
    assert_unwritable(&args, "/proc/nope/x.jsonl");
}

#[test]
fn unwritable_csv_dir_fails_before_the_figures() {
    let args = ["--figure", "3", "--smoke", "--csv", "/proc/nope"];
    assert_unwritable(&args, "/proc/nope");
}

#[test]
fn figures_outside_the_paper_are_rejected_while_parsing() {
    // The paper evaluates figures 3 and 5-10; any other number fails
    // before the CSV directory is created or a sweep starts.
    let dir = std::env::temp_dir().join(format!("repro-no-figure-4-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    for bad in ["4", "0", "11"] {
        let out = repro(&["--figure", bad, "--smoke", "--csv", dir_arg]);
        assert_eq!(out.status.code(), Some(2), "--figure {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("no figure {bad}")) && stderr.contains("(try --help)"),
            "--figure {bad}: unexpected message {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "--figure {bad} printed output");
        assert!(!dir.exists(), "--figure {bad} created the CSV directory");
    }
}

/// Asserts that `--csv DIR` and `--figure 5` are each rejected on the
/// run `run` selects, which renders no paper figure: a usage error
/// naming the figure suite, nothing on stdout, and no directory made.
fn assert_figure_flags_rejected(run: &[&str]) {
    let name = format!("repro-no-csv{}-{}", run[0], std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    for flags in [&["--csv", dir_arg][..], &["--figure", "5"][..]] {
        let args = [run, flags].concat();
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("figure suite") && stderr.contains("(try --help)"),
            "{args:?}: unexpected message {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        assert!(!dir.exists(), "{args:?} created the CSV directory");
    }
}

#[test]
fn figure_flags_are_rejected_on_the_server_sweep() {
    let server = "--server --smoke --cores 1 --channels 1 --switch 0";
    assert_figure_flags_rejected(&server.split(' ').collect::<Vec<_>>());
}

#[test]
fn figure_flags_are_rejected_on_the_mlp_sweep() {
    assert_figure_flags_rejected(&["--mlp", "--smoke", "--mshrs", "1", "--channels", "1"]);
}

#[test]
fn figure_flags_are_rejected_on_calibration() {
    assert_figure_flags_rejected(&["--calibrate", "--smoke"]);
}

#[test]
fn idle_drain_is_an_unknown_argument() {
    // The idle-keyed MSHR drain trigger and the seed run-loop switch
    // are gone; each flag is rejected like any other unknown argument.
    for flag in ["--idle-drain", "--seed-core"] {
        let out = repro(&["--mlp", "--smoke", "--banks", "1,4", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument {flag:?}")),
            "{flag}: unexpected message {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "{flag} printed output");
    }
}

#[test]
fn help_documents_the_scheduling_flags() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--order",
        "row-first",
        "--page",
        "closed",
        "--banks",
        "--jobs",
        "byte-identical",
        "--jsonl",
        "--server",
        "--cores",
        "--switch",
    ] {
        assert!(stdout.contains(needle), "help lacks {needle}: {stdout}");
    }
}
