//! E14 — workflow recovery policies on a spot-heavy pool.
//!
//! Runs the disruption-rate × recovery-policy grid twice — serially and
//! fanned out over the replica runner (`--threads N`) — asserts the two
//! reports are byte-identical, prints the table, and records the grid in
//! `BENCH_e14.json` at the repo root. The JSON contains only
//! seed-deterministic quantities (never wall times), so it too is
//! byte-identical at any thread count.
//!
//! `--quick` trims the grid to the CI smoke shape (the three cells at the
//! claim rate); the determinism assertion and the claim checks still run:
//! no-recovery fails where retry+resume completes, and blind retry
//! re-stages at least the claimed multiple of resume's repeat bytes.
//! `BENCH_e14.json` is left as committed.

fn main() {
    cumulus_bench::grid::main(&cumulus_bench::experiments::recovery::RecoveryGrid);
}
