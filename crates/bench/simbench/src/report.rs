//! Metric names, summary statistics, and the result line.

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// A metric's name, unit and direction, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The end-to-end metrics the result line carries with `--trace 0`
/// (measured with tracing off). `paper_error_pp` and
/// `failed_points_pct` are printed in the table only: the first exists on
/// `paper-figures` alone, and the second is 0 on a correct build, while
/// every gated metric must be non-zero on every workload. Failures reach
/// the result line as `failed`.
pub const END_TO_END: [MetricDef; 7] = [
    def("sim_kops_per_s", "kops/s", Higher),
    def("sim_mcycles_per_s", "Mcycles/s", Higher),
    def("point_ms.p50", "ms", Lower),
    def("point_ms.tail", "ms", Lower),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("sim_cpi", "cycles/op", Lower),
];

/// The per-layer metrics the result line carries with `--trace 1`.
/// Layers a workload does not exercise read 0.
pub const PER_LAYER: [MetricDef; 54] = [
    def("setup.trace_record_ms", "ms", Lower),
    def("setup.construct_ms", "ms", Lower),
    def("setup.pre_age_ms", "ms", Lower),
    def("setup.pre_age_lines", "count", Lower),
    def("workloads.ops", "count", Lower),
    def("workloads.ns_per_op", "ns", Lower),
    def("workloads.self_ms", "ms", Lower),
    def("cpu.self_ms", "ms", Lower),
    def("cpu.ns_per_op", "ns", Lower),
    def("cpu.l2_accesses", "count", Lower),
    def("cpu.l2_misses", "count", Lower),
    def("cpu.l2_writebacks", "count", Lower),
    def("cpu.mshr.allocations", "count", Lower),
    def("cpu.mshr.merges", "count", Higher),
    def("cpu.mshr.full_drains", "count", Lower),
    def("cpu.mshr.forced_drains", "count", Lower),
    def("cpu.forced_steps", "count", Lower),
    def("cpu.mispredicts", "count", Lower),
    def("backend.self_ms", "ms", Lower),
    def("backend.ns_per_read", "ns", Lower),
    def("backend.read_calls", "count", Lower),
    def("backend.reads", "count", Lower),
    def("backend.reads_per_call", "ratio", Higher),
    def("backend.writeback_calls", "count", Lower),
    def("backend.replay_ms", "ms", Lower),
    def("ctrl.otp_fast_reads", "count", Higher),
    def("ctrl.snc_fetch_reads", "count", Lower),
    def("ctrl.xom_reads", "count", Lower),
    def("ctrl.clean_bypass_reads", "count", Higher),
    def("ctrl.wb_forwarded_reads", "count", Higher),
    def("ctrl.first_writebacks", "count", Lower),
    def("ctrl.context_flush_entries", "count", Lower),
    def("snc.query_hits", "count", Higher),
    def("snc.query_misses", "count", Lower),
    def("snc.hit_ratio", "ratio", Higher),
    def("snc.installs", "count", Lower),
    def("snc.spills", "count", Lower),
    def("snc.overflows", "count", Lower),
    def("mem.line_reads", "count", Lower),
    def("mem.line_writes", "count", Lower),
    def("mem.seq_reads", "count", Lower),
    def("mem.seq_writes", "count", Lower),
    def("mem.row_hits", "count", Higher),
    def("mem.row_conflicts", "count", Lower),
    def("mem.row_hit_ratio", "ratio", Higher),
    def("mem.seq_traffic_pct", "%", Lower),
    def("server.self_ms", "ms", Lower),
    def("server.ns_per_op", "ns", Lower),
    def("server.context_switches", "count", Lower),
    def("server.cross_evictions", "count", Lower),
    def("server.cpi_spread", "ratio", Lower),
    def("trace_overhead_pct", "%", Lower),
    def("paper_error_pp", "pp", Lower),
    def("failed_points_pct", "%", Lower),
];

#[cfg(test)]
/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The geometric mean of positive `values` (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Percentiles the tail may be reported at, in per-mille, highest first:
/// the usual p50/p90/p99/p99.9 set. Finer steps would put the tail of a
/// few hundred samples at p95, right where this host's occasional
/// scheduling stalls begin, and make it jump from run to run.
const TAIL_LADDER: [u64; 4] = [999, 990, 900, 500];

/// The 1-based nearest rank of the `permille` percentile among `n`
/// samples: `ceil(n * permille / 1000)`, at least 1.
pub fn nearest_rank(n: usize, permille: u64) -> usize {
    ((n as u64 * permille).div_ceil(1000) as usize).max(1)
}

/// The highest ladder percentile (per-mille) with at least 10 samples
/// beyond it among `n`, or the median when there are too few samples for
/// any.
pub fn tail_permille(n: usize) -> u64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n - nearest_rank(n, p).min(n) >= 10)
        .unwrap_or(500)
}

/// The nearest-rank `permille` percentile of `samples` (0 when empty).
pub fn percentile(samples: &[f64], permille: u64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[nearest_rank(v.len(), permille).min(v.len()) - 1]
}

/// `p95`, `p99.9`, ... for a per-mille percentile.
pub fn percentile_label(permille: u64) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// The result line: `correct`, `attempted`, `failed`, and each metric's
/// value with its unit.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = include_str!("../../../../BENCHMARK.json");
        let word = |b: Better| {
            if b == Better::Higher {
                "higher"
            } else {
                "lower"
            }
        };
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
                m.name,
                m.unit,
                word(m.better)
            );
            assert!(json.contains(&entry), "{entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                word(m.better)
            );
            assert!(json.contains(&entry), "{entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Fewer than 20 samples leave fewer than 10 beyond any rank
        // above the median: the tail falls back to the median.
        assert_eq!(tail_permille(0), 500);
        assert_eq!(tail_permille(1), 500);
        assert_eq!(tail_permille(19), 500);
        // 20 samples: the median (rank 10) has exactly 10 beyond.
        assert_eq!(tail_permille(20), 500);
        // 99: p90 is rank 90, only 9 beyond.
        assert_eq!(tail_permille(99), 500);
        // 100: p90 is rank 90, 10 beyond.
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(999), 900);
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(tail_permille(9_999), 990);
        assert_eq!(tail_permille(10_000), 999);
        for n in 0..3000 {
            let p = tail_permille(n);
            if p != 500 {
                assert!(n - nearest_rank(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 500), 10.0);
        assert_eq!(percentile(&samples, 950), 19.0);
        assert_eq!(percentile(&samples, 999), 20.0);
        assert_eq!(percentile_label(950), "p95");
        assert_eq!(percentile_label(999), "p99.9");
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &[(END_TO_END[4], 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
