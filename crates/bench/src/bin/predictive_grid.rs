//! E12 — predictive vs reactive autoscaling on diurnal traces.
//!
//! Runs the period × peak-rate grid twice — serially and fanned out over
//! the replica runner (`--threads N`) — asserts the two reports are
//! byte-identical, prints the table, and records the grid in
//! `BENCH_e12.json` at the repo root. The JSON contains only
//! seed-deterministic quantities (never wall times), so it too is
//! byte-identical at any thread count.
//!
//! `--quick` trims the grid to the E9e-trace cell (the CI smoke shape);
//! the determinism assertion and the domination check still run, but
//! `BENCH_e12.json` is left as committed.

use cumulus_bench::experiments::predictive;

fn main() {
    cumulus_bench::check_args(&["--quick"], None);
    let seed = cumulus_bench::seed_from_args(cumulus_bench::REPORT_SEED);
    let threads = cumulus_bench::threads_from_args(0);
    let quick = std::env::args().any(|a| a == "--quick");

    let serial = predictive::run_grid(seed, 1, quick);
    let parallel = predictive::run_grid(seed, threads, quick);
    let table = predictive::render(&parallel);
    assert_eq!(
        predictive::render(&serial),
        table,
        "parallel predictive grid diverged from the serial render"
    );
    let doc = predictive::json_doc(seed, &parallel);
    assert_eq!(
        predictive::json_doc(seed, &serial).render(),
        doc.render(),
        "parallel predictive grid JSON diverged from the serial one"
    );

    print!("{table}");

    cumulus_bench::write_results("BENCH_e12.json", &doc, quick);
}
