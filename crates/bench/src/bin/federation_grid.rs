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

use cumulus_bench::experiments::federation;

fn main() {
    cumulus_bench::check_args(&["--quick", "--report"], None);
    let seed = cumulus_bench::seed_from_args(cumulus_bench::REPORT_SEED);
    let threads = cumulus_bench::threads_from_args(0);
    let quick = std::env::args().any(|a| a == "--quick");
    let report = cumulus_bench::report_from_args();

    let serial = federation::run_grid(seed, 1, quick);
    let parallel = federation::run_grid(seed, threads, quick);
    let table = federation::render(&parallel);
    assert_eq!(
        federation::render(&serial),
        table,
        "parallel federation grid diverged from the serial render"
    );
    let doc = federation::json_doc(seed, &parallel);
    assert_eq!(
        federation::json_doc(seed, &serial).render(),
        doc.render(),
        "parallel federation grid JSON diverged from the serial one"
    );
    federation::assert_claims(&parallel);

    print!("{table}");

    if report {
        println!("\nE15 staging decomposition — intra-site vs cross-site bytes");
        for r in &parallel {
            println!(
                "{} / {} sites / {:.0} Mbit/s / {}: intra {:.0} MB, cross {:.0} MB \
                 ({} crossings, ${:.4} egress)",
                r.spec.scenario.label(),
                r.spec.sites,
                r.spec.wan_mbps,
                r.spec.policy.label(),
                r.report.bytes_intra as f64 / 1e6,
                r.report.bytes_cross as f64 / 1e6,
                r.report.crossings,
                r.report.egress_usd,
            );
        }
    }

    cumulus_bench::write_results("BENCH_e15.json", &doc, quick);
}
