//! The whole paper report, pinned byte for byte.
//!
//! `all_experiments` prints E1 (§V.A use case), Figures 10 and 11, the
//! reconfiguration and CloudMan ablations, the E9 sweeps and the AMI
//! ablation. EXPERIMENTS.md reformats those tables, so this file checks
//! the report itself against `tests/expected/all_experiments.txt`: the
//! stdout of `all_experiments` at its defaults (seed 20120512, 16 fault
//! replicas). Any change to the simulation engine or a model that moves
//! one figure of the report fails here.

#[test]
fn full_report_matches_the_recorded_output() {
    let want = include_str!("expected/all_experiments.txt");
    let got = cumulus_bench::full_report(16);
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or_else(
                || "a trailing line".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!(
            "all_experiments output differs from tests/expected/all_experiments.txt at {line}\n\
             --- got ---\n{got}"
        );
    }
}
