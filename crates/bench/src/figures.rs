//! The paper's §5 figures as data: one [`FIGURES`] entry per figure,
//! and [`Lab::figure`], which measures any entry.

use crate::lab::{Lab, MachineKind};
use crate::paper_data::{paper_series, ORDER};
use padlock_stats::{arith_mean, Align, Table};

/// What a figure plots for each `(benchmark, machine)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Slowdown [%] relative to the insecure 256KB-L2 baseline.
    Slowdown,
    /// Execution time normalised to the insecure baseline.
    NormalizedTime,
    /// SNC-induced memory traffic as % of L2↔memory traffic.
    SncTraffic,
}

/// One figure of the paper's evaluation.
#[derive(Debug)]
pub struct Figure {
    /// The figure's number in the paper.
    pub number: u32,
    /// What the figure shows.
    pub title: &'static str,
    /// Unit suffix for rendering (e.g. `"%"`).
    pub unit: &'static str,
    /// What each cell plots.
    pub metric: Metric,
    /// `(legend label, machine, paper series key)` per series.
    pub series: &'static [(&'static str, MachineKind, &'static str)],
}

/// The paper's evaluation figures in paper order: what a bare `repro`
/// renders, and the only numbers `--figure` accepts.
pub static FIGURES: [Figure; 7] = [
    Figure {
        number: 3,
        title: "Performance loss due to serial encryption/decryption (XOM)",
        unit: "%",
        metric: Metric::Slowdown,
        series: &[("XOM", MachineKind::Xom, "fig3.xom")],
    },
    Figure {
        number: 5,
        title: "XOM vs one-time-pad with 64KB SNC (no-replacement and LRU)",
        unit: "%",
        metric: Metric::Slowdown,
        series: &[
            ("XOM", MachineKind::Xom, "fig5.xom"),
            ("SNC-NoRepl", MachineKind::Norepl64, "fig5.norepl"),
            ("SNC-LRU", MachineKind::LruFull(64), "fig5.lru"),
        ],
    },
    Figure {
        number: 6,
        title: "Slowdown for different SNC sizes (LRU)",
        unit: "%",
        metric: Metric::Slowdown,
        series: &[
            ("32KB", MachineKind::LruFull(32), "fig6.32k"),
            ("64KB", MachineKind::LruFull(64), "fig6.64k"),
            ("128KB", MachineKind::LruFull(128), "fig6.128k"),
        ],
    },
    Figure {
        number: 7,
        title: "SNC associativity: fully associative vs 32-way (64KB, LRU)",
        unit: "%",
        metric: Metric::Slowdown,
        series: &[
            ("fully-assoc", MachineKind::LruFull(64), "fig7.full"),
            ("32-way", MachineKind::Lru64Way32, "fig7.32way"),
        ],
    },
    Figure {
        number: 8,
        title: "Equal-area comparison: larger L2 vs L2 + SNC (normalised time)",
        unit: "x",
        metric: Metric::NormalizedTime,
        series: &[
            ("XOM-256KL2", MachineKind::Xom, "fig8.xom256"),
            ("XOM-384KL2", MachineKind::Xom384, "fig8.xom384"),
            ("SNC-32way-LRU", MachineKind::Lru64Way32, "fig8.snc"),
        ],
    },
    Figure {
        number: 9,
        title: "SNC-induced additional memory traffic (64KB LRU SNC)",
        unit: "%",
        metric: Metric::SncTraffic,
        series: &[("SNC traffic", MachineKind::LruFull(64), "fig9.traffic")],
    },
    Figure {
        number: 10,
        title: "Slowdown with a 102-cycle encryption/decryption unit",
        unit: "%",
        metric: Metric::Slowdown,
        series: &[
            ("XOM", MachineKind::XomSlow, "fig10.xom"),
            ("SNC-NoRepl", MachineKind::Norepl64Slow, "fig10.norepl"),
            ("SNC-LRU", MachineKind::Lru64Slow, "fig10.lru"),
        ],
    },
];

impl Figure {
    /// The figure numbered `number`, if the paper's evaluation has one.
    pub fn numbered(number: u32) -> Option<&'static Figure> {
        FIGURES.iter().find(|f| f.number == number)
    }

    /// The machines this figure measures: the insecure baseline its
    /// metric divides by (none for SNC traffic), then each series'
    /// machine. Prewarming them over [`ORDER`] makes [`Lab::figure`]
    /// pure cache recall.
    pub fn machines(&self) -> Vec<MachineKind> {
        let baseline = (self.metric != Metric::SncTraffic).then_some(MachineKind::Baseline);
        let series = self.series.iter().map(|&(_, machine, _)| machine);
        baseline.into_iter().chain(series).collect()
    }
}

/// One measured-vs-paper series of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label (the figure's legend entry).
    pub label: String,
    /// Our measured values, one per benchmark in figure order.
    pub measured: Vec<f64>,
    /// The paper's published values.
    pub paper: Vec<f64>,
}

impl Series {
    /// Arithmetic mean of the measured values.
    pub fn measured_avg(&self) -> f64 {
        arith_mean(&self.measured).unwrap_or(0.0)
    }

    /// Arithmetic mean of the paper's values.
    pub fn paper_avg(&self) -> f64 {
        arith_mean(&self.paper).unwrap_or(0.0)
    }
}

/// A figure's measured and published series, one value per benchmark in [`ORDER`].
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// The measured/paper series.
    pub series: Vec<Series>,
}

impl FigureResult {
    /// Renders the figure as a side-by-side `measured | paper` table
    /// with the average row the paper prints on each figure.
    pub fn table(&self) -> Table {
        let mut header = vec!["bench".to_string()];
        for s in &self.series {
            header.push(format!("{} (ours)", s.label));
            header.push(format!("{} (paper)", s.label));
        }
        let mut table = Table::new(header);
        for c in 1..table.col_count() {
            table.set_align(c, Align::Right);
        }
        let row = |label: &str, values: &dyn Fn(&Series) -> [f64; 2]| {
            let mut cells = vec![label.to_string()];
            for s in &self.series {
                cells.extend(values(s).map(|v| format!("{v:.2}")));
            }
            cells
        };
        for (i, bench) in ORDER.iter().enumerate() {
            table.push_row(row(bench, &|s| [s.measured[i], s.paper[i]]));
        }
        table.push_row(row("avg", &|s| [s.measured_avg(), s.paper_avg()]));
        table
    }
}

impl Lab {
    /// Measures `figure`'s series over [`ORDER`], next to the paper's values.
    pub fn figure(&mut self, figure: &Figure) -> FigureResult {
        let mut cell = |benchmark: &str, machine| match figure.metric {
            Metric::Slowdown => self.slowdown(benchmark, machine),
            Metric::NormalizedTime => self.normalized_time(benchmark, machine),
            Metric::SncTraffic => self.measure(benchmark, machine).snc_traffic_percent(),
        };
        let series = figure.series.iter().map(|&(label, machine, key)| Series {
            label: label.to_string(),
            measured: ORDER.iter().map(|b| cell(b, machine)).collect(),
            paper: paper_series(key).to_vec(),
        });
        FigureResult {
            series: series.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::RunScale;

    fn numbered(number: u32) -> &'static Figure {
        Figure::numbered(number).expect("a paper figure")
    }

    #[test]
    fn machines_put_the_baseline_first_unless_the_figure_plots_traffic() {
        assert_eq!(
            numbered(8).machines(),
            [
                MachineKind::Baseline,
                MachineKind::Xom,
                MachineKind::Xom384,
                MachineKind::Lru64Way32
            ]
        );
        assert_eq!(numbered(9).machines(), [MachineKind::LruFull(64)]);
        assert!(Figure::numbered(4).is_none());
    }

    #[test]
    fn figure3_has_eleven_rows_and_average() {
        let mut lab = Lab::new(RunScale::Smoke);
        let t = lab.figure(numbered(3)).table();
        assert_eq!(t.row_count(), 12); // 11 benchmarks + avg
        assert!(t.render_text().contains("avg"));
    }

    #[test]
    fn figure5_reuses_memoised_runs() {
        let mut lab = Lab::new(RunScale::Smoke);
        lab.figure(numbered(3));
        let runs_after_fig3 = lab.cached_runs();
        lab.figure(numbered(5));
        // Fig. 5 adds only the two SNC machines (11 benchmarks each).
        assert_eq!(lab.cached_runs(), runs_after_fig3 + 22);
    }

    #[test]
    fn prewarming_figure_machines_makes_figures_pure_recall() {
        use padlock_exec::SweepPool;
        let mut lab = Lab::new(RunScale::Smoke);
        lab.prewarm(&SweepPool::new(2), &ORDER, &numbered(3).machines());
        let runs = lab.cached_runs();
        assert_eq!(runs, 22); // 11 benchmarks x {baseline, xom}
        lab.figure(numbered(3));
        assert_eq!(lab.cached_runs(), runs, "figure3 had to simulate after prewarm");
    }

    #[test]
    fn series_averages_are_consistent() {
        let s = Series {
            label: "x".into(),
            measured: vec![1.0, 3.0],
            paper: vec![2.0, 4.0],
        };
        assert_eq!(s.measured_avg(), 2.0);
        assert_eq!(s.paper_avg(), 3.0);
    }
}
