//! E10 — spot-fleet economics under preemption.
//!
//! Runs the spot-fraction × preemption-rate grid twice — serially and
//! fanned out over the replica runner (`--threads N`) — asserts the two
//! reports are byte-identical, prints the table, and records the grid in
//! `BENCH_e10.json` at the repo root. The JSON contains only
//! seed-deterministic quantities (never wall times), so it too is
//! byte-identical at any thread count.
//!
//! `--quick` trims the grid to the CI smoke shape (baseline + all-spot
//! column); the determinism assertion and the domination check still run,
//! but `BENCH_e10.json` is left as committed.

fn main() {
    cumulus_bench::grid::main(&cumulus_bench::experiments::spot::SpotGrid);
}
