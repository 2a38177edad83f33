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

fn main() {
    cumulus_bench::grid::main(&cumulus_bench::experiments::predictive::PredictiveGrid);
}
