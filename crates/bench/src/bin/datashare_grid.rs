//! E13 — data-sharing options for the Galaxy pool.
//!
//! Runs the sharing-backend × reuse-factor grid twice — serially and
//! fanned out over the replica runner (`--threads N`) — asserts the two
//! reports are byte-identical, prints the table, and records the grid in
//! `BENCH_e13.json` at the repo root. The JSON contains only
//! seed-deterministic quantities (never wall times), so it too is
//! byte-identical at any thread count.
//!
//! `--quick` trims the grid to the CI smoke shape (the two cells the
//! ≥ 2× staging-reduction claim compares); the determinism assertion and
//! the claim check still run, but `BENCH_e13.json` is left as committed.
//!
//! `--report` appends the telemetry episode report: every job's walltime
//! decomposed into queue/repair/staging/compute from its assembled
//! lifecycle span, digest-gated to be identical at any `--threads`. Both
//! grid passes then record telemetry, and the table, JSON and report all
//! come from those rows.

fn main() {
    cumulus_bench::grid::main(&cumulus_bench::experiments::datashare::DatashareGrid);
}
