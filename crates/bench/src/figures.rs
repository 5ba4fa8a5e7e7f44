//! One function per figure of the paper's §5.

use crate::lab::{Lab, MachineKind};
use crate::paper_data::{paper_series, ORDER};
use padlock_stats::{arith_mean, Align, Table};

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

/// A fully evaluated figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure identifier (e.g. `"Figure 5"`).
    pub id: String,
    /// What the figure shows.
    pub title: String,
    /// Benchmark row labels, in figure order.
    pub rows: Vec<String>,
    /// The measured/paper series.
    pub series: Vec<Series>,
    /// Unit suffix for rendering (e.g. `"%"`).
    pub unit: String,
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
        for (i, row) in self.rows.iter().enumerate() {
            let mut cells = vec![row.clone()];
            for s in &self.series {
                cells.push(format!("{:.2}", s.measured[i]));
                cells.push(format!("{:.2}", s.paper[i]));
            }
            table.push_row(cells);
        }
        let mut avg = vec!["avg".to_string()];
        for s in &self.series {
            avg.push(format!("{:.2}", s.measured_avg()));
            avg.push(format!("{:.2}", s.paper_avg()));
        }
        table.push_row(avg);
        table
    }
}

fn figure(
    id: &str,
    title: &str,
    unit: &str,
    series: Vec<Series>,
) -> FigureResult {
    FigureResult {
        id: id.to_string(),
        title: title.to_string(),
        rows: ORDER.iter().map(|s| s.to_string()).collect(),
        series,
        unit: unit.to_string(),
    }
}

impl Lab {
    fn slowdown_series(&mut self, label: &str, machine: MachineKind, paper_key: &str) -> Series {
        let measured = ORDER
            .iter()
            .map(|b| self.slowdown(b, machine))
            .collect();
        Series {
            label: label.to_string(),
            measured,
            paper: paper_series(paper_key).to_vec(),
        }
    }

    /// Fig. 3: performance loss of XOM over the insecure baseline.
    pub fn figure3(&mut self) -> FigureResult {
        let s = self.slowdown_series("XOM", MachineKind::Xom, "fig3.xom");
        figure(
            "Figure 3",
            "Performance loss due to serial encryption/decryption (XOM)",
            "%",
            vec![s],
        )
    }

    /// Fig. 5: XOM vs no-replacement SNC vs LRU SNC (64KB).
    pub fn figure5(&mut self) -> FigureResult {
        let series = vec![
            self.slowdown_series("XOM", MachineKind::Xom, "fig5.xom"),
            self.slowdown_series("SNC-NoRepl", MachineKind::Norepl64, "fig5.norepl"),
            self.slowdown_series("SNC-LRU", MachineKind::LruFull(64), "fig5.lru"),
        ];
        figure(
            "Figure 5",
            "XOM vs one-time-pad with 64KB SNC (no-replacement and LRU)",
            "%",
            series,
        )
    }

    /// Fig. 6: SNC capacity sweep (32/64/128KB, LRU).
    pub fn figure6(&mut self) -> FigureResult {
        let series = vec![
            self.slowdown_series("32KB", MachineKind::LruFull(32), "fig6.32k"),
            self.slowdown_series("64KB", MachineKind::LruFull(64), "fig6.64k"),
            self.slowdown_series("128KB", MachineKind::LruFull(128), "fig6.128k"),
        ];
        figure("Figure 6", "Slowdown for different SNC sizes (LRU)", "%", series)
    }

    /// Fig. 7: fully associative vs 32-way set associative 64KB SNC.
    pub fn figure7(&mut self) -> FigureResult {
        let series = vec![
            self.slowdown_series("fully-assoc", MachineKind::LruFull(64), "fig7.full"),
            self.slowdown_series("32-way", MachineKind::Lru64Way32, "fig7.32way"),
        ];
        figure(
            "Figure 7",
            "SNC associativity: fully associative vs 32-way (64KB, LRU)",
            "%",
            series,
        )
    }

    /// Fig. 8: equal-area comparison — XOM-256K, XOM-384K(6-way),
    /// SNC-32way+256K — as normalised execution time.
    pub fn figure8(&mut self) -> FigureResult {
        let norm = |lab: &mut Lab, label: &str, machine: MachineKind, key: &str| Series {
            label: label.to_string(),
            measured: ORDER.iter().map(|b| lab.normalized_time(b, machine)).collect(),
            paper: paper_series(key).to_vec(),
        };
        let series = vec![
            norm(self, "XOM-256KL2", MachineKind::Xom, "fig8.xom256"),
            norm(self, "XOM-384KL2", MachineKind::Xom384, "fig8.xom384"),
            norm(self, "SNC-32way-LRU", MachineKind::Lru64Way32, "fig8.snc"),
        ];
        figure(
            "Figure 8",
            "Equal-area comparison: larger L2 vs L2 + SNC (normalised time)",
            "x",
            series,
        )
    }

    /// Fig. 9: SNC-induced memory traffic as % of L2↔memory traffic.
    pub fn figure9(&mut self) -> FigureResult {
        let measured = ORDER
            .iter()
            .map(|b| self.measure(b, MachineKind::LruFull(64)).snc_traffic_percent())
            .collect();
        let series = vec![Series {
            label: "SNC traffic".to_string(),
            measured,
            paper: paper_series("fig9.traffic").to_vec(),
        }];
        figure(
            "Figure 9",
            "SNC-induced additional memory traffic (64KB LRU SNC)",
            "%",
            series,
        )
    }

    /// Fig. 10: sensitivity to a 102-cycle crypto unit.
    pub fn figure10(&mut self) -> FigureResult {
        let series = vec![
            self.slowdown_series("XOM", MachineKind::XomSlow, "fig10.xom"),
            self.slowdown_series("SNC-NoRepl", MachineKind::Norepl64Slow, "fig10.norepl"),
            self.slowdown_series("SNC-LRU", MachineKind::Lru64Slow, "fig10.lru"),
        ];
        figure(
            "Figure 10",
            "Slowdown with a 102-cycle encryption/decryption unit",
            "%",
            series,
        )
    }
}

/// The machines figure `n` measures — including the insecure baseline
/// every slowdown/normalisation divides by. This is [`Lab::prewarm`]'s
/// worklist: prewarming `figure_machines(n) × ORDER` makes the figure
/// render from pure cache recall.
pub fn figure_machines(figure: u32) -> Vec<MachineKind> {
    match figure {
        3 => vec![MachineKind::Baseline, MachineKind::Xom],
        5 => vec![
            MachineKind::Baseline,
            MachineKind::Xom,
            MachineKind::Norepl64,
            MachineKind::LruFull(64),
        ],
        6 => vec![
            MachineKind::Baseline,
            MachineKind::LruFull(32),
            MachineKind::LruFull(64),
            MachineKind::LruFull(128),
        ],
        7 => vec![
            MachineKind::Baseline,
            MachineKind::LruFull(64),
            MachineKind::Lru64Way32,
        ],
        8 => vec![
            MachineKind::Baseline,
            MachineKind::Xom,
            MachineKind::Xom384,
            MachineKind::Lru64Way32,
        ],
        9 => vec![MachineKind::LruFull(64)],
        10 => vec![
            MachineKind::Baseline,
            MachineKind::XomSlow,
            MachineKind::Norepl64Slow,
            MachineKind::Lru64Slow,
        ],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::RunScale;

    #[test]
    fn figure3_has_eleven_rows_and_average() {
        let mut lab = Lab::new(RunScale::Smoke);
        let fig = lab.figure3();
        assert_eq!(fig.rows.len(), 11);
        let t = fig.table();
        assert_eq!(t.row_count(), 12); // 11 benchmarks + avg
        assert!(t.render_text().contains("avg"));
    }

    #[test]
    fn figure5_reuses_memoised_runs() {
        let mut lab = Lab::new(RunScale::Smoke);
        lab.figure3();
        let runs_after_fig3 = lab.cached_runs();
        lab.figure5();
        // Fig. 5 adds only the two SNC machines (11 benchmarks each).
        assert_eq!(lab.cached_runs(), runs_after_fig3 + 22);
    }

    #[test]
    fn prewarming_figure_machines_makes_figures_pure_recall() {
        use padlock_exec::SweepPool;
        let mut lab = Lab::new(RunScale::Smoke);
        lab.prewarm(&SweepPool::new(2), &crate::paper_data::ORDER, &figure_machines(3));
        let runs = lab.cached_runs();
        assert_eq!(runs, 22); // 11 benchmarks x {baseline, xom}
        lab.figure3();
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
