//! Smoke-scale regression tests on the *shape* of every figure: who
//! wins, by roughly what factor, and where the crossovers fall. These
//! run the real experiment harness at its smallest scale, so they guard
//! the whole reproduction pipeline without taking minutes.

use padlock_bench::{Figure, FigureResult, Lab, RunScale, ORDER};

fn lab() -> Lab {
    Lab::new(RunScale::Smoke)
}

/// Measures paper figure `number` in `lab`.
fn figure(lab: &mut Lab, number: u32) -> FigureResult {
    lab.figure(Figure::numbered(number).expect("a paper figure"))
}

#[test]
fn figure3_xom_hurts_memory_bound_benchmarks_most() {
    let mut lab = lab();
    let fig = figure(&mut lab, 3);
    let xom = &fig.series[0];
    let by_name = |n: &str| {
        let i = ORDER.iter().position(|&r| r == n).unwrap();
        xom.measured[i]
    };
    // Memory-bound benchmarks lose far more than cache-resident ones.
    // (Smoke windows are short, so assertions are relative: mesa and
    // gzip must sit well below the memory-bound group.)
    assert!(by_name("mcf") > 10.0, "mcf {}", by_name("mcf"));
    assert!(by_name("art") > 10.0, "art {}", by_name("art"));
    assert!(by_name("mesa") < by_name("mcf") / 2.0, "mesa {}", by_name("mesa"));
    assert!(by_name("gzip") < by_name("art") / 2.0, "gzip {}", by_name("gzip"));
    assert!(xom.measured_avg() > 5.0);
}

#[test]
fn figure5_ordering_xom_worse_than_norepl_worse_than_lru() {
    let mut lab = lab();
    let fig = figure(&mut lab, 5);
    let avg: Vec<f64> = fig.series.iter().map(|s| s.measured_avg()).collect();
    let (xom, norepl, lru) = (avg[0], avg[1], avg[2]);
    assert!(xom > norepl, "XOM {xom} must exceed no-repl {norepl}");
    // At smoke scale the no-replacement SNC has not yet filled, so the
    // no-repl/LRU gap only needs to be non-inverted here: the averages
    // read 3.91 vs 1.21 % at quick scale and 5.34 vs 1.27 % at full,
    // but both read 1.25 % at smoke.
    assert!(
        norepl > lru - 0.5,
        "no-repl {norepl} must not beat LRU {lru} meaningfully"
    );
    // The headline: LRU recovers the large majority of XOM's loss.
    assert!(lru < xom / 3.0, "LRU {lru} vs XOM {xom}");
}

#[test]
fn figure6_larger_sncs_help_monotonically_on_average() {
    let mut lab = lab();
    let fig = figure(&mut lab, 6);
    let avg: Vec<f64> = fig.series.iter().map(|s| s.measured_avg()).collect();
    assert!(avg[0] >= avg[1], "32KB {} vs 64KB {}", avg[0], avg[1]);
    assert!(avg[1] >= avg[2], "64KB {} vs 128KB {}", avg[1], avg[2]);
}

#[test]
fn figure7_thirty_two_ways_suffice_except_for_ammp() {
    let mut lab = lab();
    let fig = figure(&mut lab, 7);
    let full = &fig.series[0];
    let way32 = &fig.series[1];
    let ammp = ORDER.iter().position(|&r| r == "ammp").unwrap();
    for (i, bench) in ORDER.iter().enumerate() {
        if i == ammp {
            continue;
        }
        let delta = (way32.measured[i] - full.measured[i]).abs();
        assert!(
            delta < 2.0,
            "{bench}: 32-way {} vs full {}",
            way32.measured[i],
            full.measured[i]
        );
    }
    // ammp's 32-way degradation (paper: 2.76% -> 9.62%) is not
    // reproduced at any scale: at full scale ammp reads 3.27 % fully
    // associative and 3.70 % 32-way. Here we only require that ammp is
    // not *better* under 32 ways by more than noise.
    assert!(
        way32.measured[ammp] > full.measured[ammp] - 1.0,
        "ammp 32-way {} vs fully associative {}",
        way32.measured[ammp],
        full.measured[ammp]
    );
}

#[test]
fn figure8_snc_beats_equal_area_bigger_l2() {
    let mut lab = lab();
    let fig = figure(&mut lab, 8);
    let avg: Vec<f64> = fig.series.iter().map(|s| s.measured_avg()).collect();
    let (xom256, xom384, snc) = (avg[0], avg[1], avg[2]);
    assert!(xom384 < xom256, "a bigger L2 helps XOM a little");
    assert!(
        snc < xom384 - 0.02,
        "spending the area on an SNC ({snc}) must beat a bigger L2 ({xom384})"
    );
    // The area model itself agrees the comparison is fair.
    let (combo, mid, big) = padlock::area::paper_fig8_areas();
    assert!(mid < combo && combo < big);
}

#[test]
fn figure9_snc_traffic_is_a_small_fraction() {
    let mut lab = lab();
    let fig = figure(&mut lab, 9);
    let avg = fig.series[0].measured_avg();
    assert!(avg < 5.0, "SNC-induced traffic {avg}% must stay small");
}

#[test]
fn figure10_lru_is_insensitive_to_crypto_latency() {
    let mut lab = lab();
    let f5 = figure(&mut lab, 5);
    let f10 = figure(&mut lab, 10);
    let xom_50 = f5.series[0].measured_avg();
    let xom_102 = f10.series[0].measured_avg();
    let lru_50 = f5.series[2].measured_avg();
    let lru_102 = f10.series[2].measured_avg();
    assert!(
        xom_102 > xom_50 * 1.5,
        "XOM degrades with crypto latency: {xom_50} -> {xom_102}"
    );
    assert!(
        lru_102 < lru_50 + 3.0,
        "LRU stays nearly flat: {lru_50} -> {lru_102}"
    );
}
