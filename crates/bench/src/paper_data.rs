//! The paper's published per-benchmark numbers, transcribed from the
//! figures of §5. They feed the side-by-side comparison columns and
//! simbench's `paper_error_pp` metric, never the simulation.

/// Benchmark order shared by every figure (the paper's row order).
pub const ORDER: [&str; 11] = [
    "ammp", "art", "bzip2", "equake", "gcc", "gzip", "mcf", "mesa", "parser", "vortex", "vpr",
];

/// Returns the paper's series for a figure/series key, in [`ORDER`],
/// without the average.
///
/// Keys: `fig3.xom`, `fig5.norepl`, `fig5.lru`, `fig6.32k`, `fig6.64k`,
/// `fig6.128k`, `fig7.full`, `fig7.32way`, `fig8.xom256`, `fig8.xom384`,
/// `fig8.snc`, `fig9.traffic`, `fig10.xom`, `fig10.norepl`, `fig10.lru`.
///
/// # Panics
///
/// Panics on an unknown key.
pub fn paper_series(key: &str) -> [f64; 11] {
    match key {
        // Fig. 3 / Fig. 5 XOM slowdown [%], 50-cycle crypto.
        "fig3.xom" | "fig5.xom" => [
            23.02, 34.91, 15.82, 14.27, 18.30, 1.08, 34.76, 0.63, 13.39, 7.05, 21.16,
        ],
        // Fig. 5: SNC without replacement [%].
        "fig5.norepl" => [
            4.57, 0.23, 1.04, 0.06, 18.07, 0.51, 13.51, 0.24, 6.94, 5.02, 0.24,
        ],
        // Fig. 5 / Fig. 6 64KB / Fig. 7 fully associative: SNC LRU [%].
        "fig5.lru" | "fig6.64k" | "fig7.full" => [
            2.76, 0.23, 0.56, 0.06, 1.40, 0.31, 6.44, 0.07, 0.95, 1.03, 0.24,
        ],
        // Fig. 6: 32KB LRU SNC [%].
        "fig6.32k" => [
            4.36, 0.23, 1.61, 7.58, 1.44, 0.33, 15.23, 0.14, 2.70, 1.86, 0.24,
        ],
        // Fig. 6: 128KB LRU SNC [%].
        "fig6.128k" => [
            0.41, 0.23, 0.34, 0.06, 1.29, 0.30, 1.45, 0.01, 0.57, 0.70, 0.24,
        ],
        // Fig. 7: 32-way 64KB LRU SNC [%].
        "fig7.32way" => [
            9.62, 0.23, 0.55, 0.18, 1.38, 0.31, 6.34, 0.07, 0.94, 1.03, 0.24,
        ],
        // Fig. 8: normalised execution time vs the 256KB-L2 baseline.
        "fig8.xom256" => [
            1.23, 1.35, 1.16, 1.14, 1.18, 1.01, 1.35, 1.01, 1.13, 1.07, 1.21,
        ],
        "fig8.xom384" => [
            1.20, 1.35, 1.03, 1.14, 0.96, 1.00, 1.32, 0.99, 1.02, 0.93, 1.04,
        ],
        "fig8.snc" => [
            1.10, 1.00, 1.01, 1.00, 1.01, 1.00, 1.06, 1.00, 1.01, 1.01, 1.00,
        ],
        // Fig. 9: SNC-induced traffic as % of L2↔memory traffic.
        "fig9.traffic" => [
            0.32, 0.00, 0.09, 0.00, 0.05, 1.03, 0.47, 0.90, 0.18, 0.39, 0.00,
        ],
        // Fig. 10: 102-cycle crypto unit [%].
        "fig10.xom" => [
            46.95, 71.21, 32.27, 29.10, 37.36, 2.21, 70.91, 1.28, 27.32, 14.42, 43.16,
        ],
        "fig10.norepl" => [
            8.95, 0.23, 1.82, 0.06, 36.89, 1.04, 27.30, 0.48, 14.02, 10.23, 0.24,
        ],
        "fig10.lru" => [
            2.72, 0.23, 0.56, 0.06, 1.38, 0.30, 6.32, 0.07, 0.94, 1.01, 0.24,
        ],
        other => panic!("unknown paper series {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padlock_stats::arith_mean;

    #[test]
    fn averages_match_the_papers_reported_averages() {
        // The paper prints these averages on the figures.
        let cases = [
            ("fig3.xom", 16.76),
            ("fig5.norepl", 4.59),
            ("fig5.lru", 1.28),
            ("fig6.32k", 3.25),
            ("fig6.128k", 0.51),
            ("fig7.32way", 1.90),
            ("fig9.traffic", 0.31),
            ("fig10.xom", 34.20),
            ("fig10.norepl", 9.21),
            ("fig10.lru", 1.26),
        ];
        for (key, avg) in cases {
            let got = arith_mean(&paper_series(key)).unwrap();
            assert!(
                (got - avg).abs() < 0.06,
                "{key}: transcribed avg {got:.3} vs paper {avg}"
            );
        }
    }

    #[test]
    fn fig8_averages() {
        for (key, avg) in [("fig8.xom256", 1.17), ("fig8.xom384", 1.09), ("fig8.snc", 1.02)] {
            let got = arith_mean(&paper_series(key)).unwrap();
            assert!((got - avg).abs() < 0.01, "{key}: {got:.3}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown paper series")]
    fn unknown_key_panics() {
        let _ = paper_series("fig99.z");
    }
}
