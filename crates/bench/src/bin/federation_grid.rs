//! E15 — federated site selection over a WAN.
//!
//! Runs the placement-policy × WAN-bandwidth × site-count × data-scenario
//! grid twice — serially and fanned out over the replica runner
//! (`--threads N`) — asserts the two reports are byte-identical, prints
//! the table, and records the grid in `BENCH_e15.json` at the repo root.
//! The JSON contains only seed-deterministic quantities (never wall
//! times), so it too is byte-identical at any thread count.
//!
//! `--quick` trims the grid to the CI smoke shape (the claim cells:
//! 3 sites, 50 Mbit/s WAN, cost-greedy vs data-gravity under both data
//! scenarios); the determinism assertion and the claim checks still run,
//! but `BENCH_e15.json` is left as committed.
//!
//! `--report` appends the WAN decomposition: per cell, staged bytes
//! split into intra-site rungs vs cross-site WAN pulls.

fn main() {
    cumulus_bench::grid::main(&cumulus_bench::experiments::federation::FederationGrid);
}
