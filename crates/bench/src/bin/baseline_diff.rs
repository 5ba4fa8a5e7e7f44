//! Compares a freshly captured Criterion baseline against the
//! checked-in reference and fails on regressions beyond a noise
//! threshold.
//!
//! ```text
//! baseline_diff REFERENCE CURRENT [--threshold 0.5]
//! ```
//!
//! Both files are the JSON-lines format the vendored criterion shim
//! emits under `CRITERION_BASELINE`: one
//! `{"id": ..., "median_ns": ..., "samples": ...}` record per bench.
//! A bench regresses when its current median exceeds the reference
//! median by more than `threshold` (a ratio: 0.5 = +50%). Benches
//! missing from the current capture fail the run (a deleted or broken
//! bench is a regression too); benches missing from the reference are
//! reported as new and pass (the reference wants re-capturing).
//!
//! The threshold defaults to 0.5. Shared-runner CI timing is noisy —
//! the threshold guards against step-function regressions (an
//! accidentally quadratic drain, a lost memoisation), not
//! single-digit-percent drift.
//!
//! `__walltime__/…` records (one per bench binary, appended by the
//! shim's `criterion_main!`) are not benchmarks: they are excluded from
//! the verdicts and instead summed and printed as each capture's total
//! wall-clock, so the baseline files double as a record of how long a
//! capture takes on their host.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One `{"id": ..., "median_ns": ..., "samples": ...}` record.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    id: String,
    median_ns: f64,
}

/// Pulls a JSON string field out of a single-line record.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            other => out.push(other),
        }
    }
    None
}

/// Pulls a JSON numeric field out of a single-line record.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn load(path: &Path) -> Result<BTreeMap<String, Record>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let id = json_str_field(line, "id")
            .ok_or_else(|| format!("{}:{}: no \"id\" field", path.display(), lineno + 1))?;
        let median_ns = json_num_field(line, "median_ns")
            .ok_or_else(|| format!("{}:{}: no \"median_ns\" field", path.display(), lineno + 1))?;
        // Re-runs append; the last record for an id wins.
        out.insert(id.clone(), Record { id, median_ns });
    }
    Ok(out)
}

/// Ids under this prefix carry per-binary capture wall-clock, not
/// benchmark medians.
const WALLTIME_PREFIX: &str = "__walltime__/";

/// Removes the `__walltime__/…` records from a capture and returns
/// their summed wall-clock in seconds — `None` when the capture
/// predates walltime recording.
fn take_walltime(map: &mut BTreeMap<String, Record>) -> Option<f64> {
    let ids: Vec<String> = map
        .keys()
        .filter(|id| id.starts_with(WALLTIME_PREFIX))
        .cloned()
        .collect();
    if ids.is_empty() {
        return None;
    }
    let mut total_ns = 0.0;
    for id in ids {
        if let Some(rec) = map.remove(&id) {
            total_ns += rec.median_ns;
        }
    }
    Some(total_ns / 1e9)
}

/// How one bench fared against the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Present in both, within the noise threshold.
    Ok,
    /// Current median exceeds reference by more than the threshold.
    Regressed,
    /// In the reference but not captured now (deleted/broken bench).
    Missing,
    /// Captured now but absent from the reference (wants re-capture).
    New,
}

/// The comparison summary `main` renders and turns into an exit code.
#[derive(Debug, Default)]
struct Comparison {
    /// One `(id, verdict, delta-percent)` row per bench, reference rows
    /// first (sorted by id), then new benches. The delta is 0 for
    /// missing/new rows.
    rows: Vec<(String, Verdict, f64)>,
    regressions: usize,
    missing: usize,
    new: usize,
}

impl Comparison {
    /// Whether the comparison should fail the CI gate: regressions and
    /// missing benches fail, new benches only inform.
    fn failed(&self) -> bool {
        self.regressions > 0 || self.missing > 0
    }
}

/// Compares a current capture against the reference with the given
/// noise threshold (a ratio: 0.5 = +50% over reference regresses).
fn compare(
    reference: &BTreeMap<String, Record>,
    current: &BTreeMap<String, Record>,
    threshold: f64,
) -> Comparison {
    let mut out = Comparison::default();
    for (id, reference_rec) in reference {
        match current.get(id) {
            None => {
                out.rows.push((id.clone(), Verdict::Missing, 0.0));
                out.missing += 1;
            }
            Some(current_rec) => {
                let ratio = current_rec.median_ns / reference_rec.median_ns.max(1e-9);
                let delta = (ratio - 1.0) * 100.0;
                if ratio > 1.0 + threshold {
                    out.rows.push((id.clone(), Verdict::Regressed, delta));
                    out.regressions += 1;
                } else {
                    out.rows.push((id.clone(), Verdict::Ok, delta));
                }
            }
        }
    }
    for id in current.keys() {
        if !reference.contains_key(id) {
            out.rows.push((id.clone(), Verdict::New, 0.0));
            out.new += 1;
        }
    }
    out
}

fn usage() -> ! {
    eprintln!("usage: baseline_diff REFERENCE CURRENT [--threshold RATIO]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = args.next().unwrap_or_else(|| usage());
                threshold = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--help" | "-h" => usage(),
            other => paths.push(other.to_string()),
        }
    }
    let [reference, current] = paths.as_slice() else {
        usage();
    };
    let threshold = threshold.unwrap_or(0.5);

    let mut reference_map = match load(Path::new(reference)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("baseline_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let mut current_map = match load(Path::new(current)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("baseline_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let reference_walltime = take_walltime(&mut reference_map);
    let current_walltime = take_walltime(&mut current_map);

    let result = compare(&reference_map, &current_map, threshold);
    for (id, verdict, delta) in &result.rows {
        match verdict {
            Verdict::Missing => println!("MISSING    {id} (in reference, not captured now)"),
            Verdict::New => println!("NEW        {id} (not in reference; re-capture baseline.json)"),
            Verdict::Regressed => {
                let reference_rec = &reference_map[id];
                let current_rec = &current_map[id];
                println!(
                    "REGRESSED  {id}: {:.2}ms -> {:.2}ms ({delta:+.1}%)",
                    reference_rec.median_ns / 1e6,
                    current_rec.median_ns / 1e6
                );
            }
            Verdict::Ok => println!("ok         {id} ({delta:+.1}%)"),
        }
    }

    println!(
        "\n{} benches compared, {} regressed (>{:.0}% over reference), {} missing, {} new",
        reference_map.len(),
        result.regressions,
        threshold * 100.0,
        result.missing,
        result.new,
    );
    let walltime = |w: Option<f64>| match w {
        Some(secs) => format!("{secs:.2}s"),
        None => "not recorded".to_string(),
    };
    println!(
        "capture wall-clock: reference {}, current {}",
        walltime(reference_walltime),
        walltime(current_walltime),
    );
    if result.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, median_ns: f64) -> (String, Record) {
        (
            id.to_string(),
            Record {
                id: id.to_string(),
                median_ns,
            },
        )
    }

    fn map(records: &[(String, Record)]) -> BTreeMap<String, Record> {
        records.iter().cloned().collect()
    }

    #[test]
    fn within_noise_passes() {
        let reference = map(&[rec("a", 100.0), rec("b", 200.0)]);
        // +40% and -20%: both inside a 0.5 threshold.
        let current = map(&[rec("a", 140.0), rec("b", 160.0)]);
        let c = compare(&reference, &current, 0.5);
        assert_eq!(c.regressions, 0);
        assert_eq!(c.missing, 0);
        assert_eq!(c.new, 0);
        assert!(!c.failed());
        assert!(c.rows.iter().all(|(_, v, _)| *v == Verdict::Ok));
    }

    #[test]
    fn step_function_regression_fails() {
        let reference = map(&[rec("a", 100.0), rec("b", 200.0)]);
        // a: +60% over a 0.5 threshold -> regressed; b: improvement.
        let current = map(&[rec("a", 160.0), rec("b", 20.0)]);
        let c = compare(&reference, &current, 0.5);
        assert_eq!(c.regressions, 1);
        assert!(c.failed());
        let (id, verdict, delta) = &c.rows[0];
        assert_eq!((id.as_str(), *verdict), ("a", Verdict::Regressed));
        assert!((delta - 60.0).abs() < 1e-9);
        // Exactly at the threshold is still ok (strictly-greater gate).
        let at = map(&[rec("a", 150.0), rec("b", 200.0)]);
        assert_eq!(compare(&reference, &at, 0.5).regressions, 0);
    }

    #[test]
    fn missing_bench_fails_new_bench_passes() {
        let reference = map(&[rec("a", 100.0), rec("gone", 50.0)]);
        let current = map(&[rec("a", 100.0), rec("fresh", 70.0)]);
        let c = compare(&reference, &current, 0.5);
        assert_eq!(c.missing, 1);
        assert_eq!(c.new, 1);
        assert_eq!(c.regressions, 0);
        // A deleted/broken bench is a regression; a new bench is not.
        assert!(c.failed());
        assert!(c
            .rows
            .iter()
            .any(|(id, v, _)| id == "gone" && *v == Verdict::Missing));
        assert!(c
            .rows
            .iter()
            .any(|(id, v, _)| id == "fresh" && *v == Verdict::New));
        let only_new = compare(&map(&[rec("a", 100.0)]), &current, 0.5);
        assert!(!only_new.failed());
    }

    #[test]
    fn walltime_records_are_summed_and_never_compared() {
        let mut capture = map(&[
            rec("a", 100.0),
            rec("__walltime__/channel_sweep", 2.0e9),
            rec("__walltime__/mlp_sweep", 5.0e8),
        ]);
        let secs = take_walltime(&mut capture).expect("walltime present");
        assert!((secs - 2.5).abs() < 1e-9);
        assert_eq!(capture.len(), 1, "only real benches remain");
        // A pre-walltime capture: nothing to strip, nothing to report.
        let mut old = map(&[rec("a", 100.0)]);
        assert_eq!(take_walltime(&mut old), None);
        assert_eq!(old.len(), 1);
        // Stripped maps compare cleanly even when only one side had
        // walltime records — they can never show up MISSING or NEW.
        let c = compare(&old, &capture, 0.5);
        assert!(!c.failed());
        assert_eq!(c.new, 0);
    }

    #[test]
    fn json_fields_parse_escapes_and_numbers() {
        let line = r#"{"id":"mlp_sweep/inflight16\"x\"4shard","median_ns":1234.5,"samples":10}"#;
        assert_eq!(
            json_str_field(line, "id").as_deref(),
            Some("mlp_sweep/inflight16\"x\"4shard")
        );
        assert_eq!(json_num_field(line, "median_ns"), Some(1234.5));
        assert_eq!(json_num_field(line, "samples"), Some(10.0));
        assert_eq!(json_num_field(line, "absent"), None);
        assert_eq!(json_str_field(line, "median_ns"), None);
        assert_eq!(json_num_field(r#"{"median_ns":2.5e3}"#, "median_ns"), Some(2500.0));
    }

    #[test]
    fn load_takes_the_last_record_per_id_and_skips_blanks() {
        let dir = std::env::temp_dir().join("padlock_baseline_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(
            &path,
            "{\"id\":\"a\",\"median_ns\":100.0,\"samples\":10}\n\
             \n\
             {\"id\":\"b\",\"median_ns\":50.0,\"samples\":10}\n\
             {\"id\":\"a\",\"median_ns\":300.0,\"samples\":10}\n",
        )
        .unwrap();
        let m = load(&path).unwrap();
        assert_eq!(m.len(), 2);
        // Re-runs append; the last record for an id wins.
        assert_eq!(m["a"].median_ns, 300.0);
        assert_eq!(m["b"].median_ns, 50.0);
        // A record without the fields is an error, not a skip.
        std::fs::write(&path, "{\"median_ns\":1.0}\n").unwrap();
        assert!(load(&path).unwrap_err().contains("no \"id\" field"));
        std::fs::write(&path, "{\"id\":\"a\"}\n").unwrap();
        assert!(load(&path).unwrap_err().contains("no \"median_ns\" field"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
