//! The parallel-determinism gate: every table builder and JSON-lines
//! serialisation must be **byte-identical** when fanned across a
//! self-scheduling pool vs run serially. Each grid cell is a pure
//! function of its configuration, and [`padlock_exec::SweepPool`]
//! reassembles results in submission order, so any byte of difference
//! means a cell stopped being pure (shared state leaked between
//! simulations) or the pool mis-slotted a result — both bugs this
//! suite exists to catch. CI runs it on every push.

use padlock_bench::{
    bank_table_from, banked_grid, e2e_table, grid_jsonl, mlp_table, order_delta_table_from,
    E2eTrace, Figure, Lab, RunScale, ORDER,
};
use padlock_exec::SweepPool;
use padlock_mem::{DrainOrder, PagePolicy};

/// Tiny end-to-end windows: determinism does not need a representative
/// measurement, just real simulations on both sides of the comparison.
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 6_000;

#[test]
fn mlp_table_is_byte_identical_across_jobs() {
    let serial =
        mlp_table(&SweepPool::serial(), &[1, 4], &[1, 2], &[1, 2], 256).render_text();
    let pooled = mlp_table(&SweepPool::new(4), &[1, 4], &[1, 2], &[1, 2], 256).render_text();
    assert_eq!(serial, pooled);
}

#[test]
fn e2e_table_is_byte_identical_across_jobs() {
    let trace = E2eTrace::record("bfs", WARMUP, MEASURE);
    for order in [DrainOrder::Fifo, DrainOrder::RowFirst] {
        let serial = e2e_table(
            &SweepPool::serial(),
            &trace,
            &[1, 2],
            &[1, 2],
            order,
            PagePolicy::Open,
        )
        .render_text();
        let pooled = e2e_table(
            &SweepPool::new(4),
            &trace,
            &[1, 2],
            &[1, 2],
            order,
            PagePolicy::Open,
        )
        .render_text();
        assert_eq!(serial, pooled, "e2e table diverged ({order} drain order)");
    }
}

#[test]
fn bank_and_delta_tables_and_jsonl_are_byte_identical_across_jobs() {
    let bfs = E2eTrace::record("bfs", WARMUP, MEASURE);
    let rstride = E2eTrace::record("rstride", WARMUP, MEASURE);
    let traces: Vec<&E2eTrace> = vec![&bfs, &rstride];
    let banks = [1usize, 2];
    let serial = SweepPool::serial();
    let pooled = SweepPool::new(4);
    let grid = |pool, order| banked_grid(pool, &traces, &banks, 2, order, PagePolicy::Open);
    let (grid_serial, grid_pooled) = (
        grid(&serial, DrainOrder::Fifo),
        grid(&pooled, DrainOrder::Fifo),
    );
    let (rowf_serial, rowf_pooled) = (
        grid(&serial, DrainOrder::RowFirst),
        grid(&pooled, DrainOrder::RowFirst),
    );

    assert_eq!(
        bank_table_from(&traces, &banks, &grid_serial).render_text(),
        bank_table_from(&traces, &banks, &grid_pooled).render_text(),
    );
    assert_eq!(
        order_delta_table_from(&traces, &banks, &grid_serial, &rowf_serial).render_text(),
        order_delta_table_from(&traces, &banks, &grid_pooled, &rowf_pooled).render_text(),
    );

    // The row-buffer counts in the JSON lines must be as deterministic
    // across jobs as the cycles.
    assert_eq!(
        grid_jsonl(&traces, &grid_serial),
        grid_jsonl(&traces, &grid_pooled),
        "JSON-lines stream diverged across jobs"
    );
}

#[test]
fn figure_tables_are_byte_identical_after_parallel_prewarm() {
    // Figure 3 at the real Smoke windows: 22 simulations on each side.
    let fig3 = Figure::numbered(3).expect("Fig. 3 is in the paper");
    let mut serial = Lab::new(RunScale::Smoke);
    let serial_text = serial.figure(fig3).table().render_text();
    let mut prewarmed = Lab::new(RunScale::Smoke);
    prewarmed.prewarm(&SweepPool::new(4), &ORDER, &fig3.machines());
    let pooled_text = prewarmed.figure(fig3).table().render_text();
    assert_eq!(serial_text, pooled_text);
}
