//! `cumulus-bench` — the benchmark harness that regenerates every table
//! and figure of the paper's evaluation, plus ablations.
//!
//! | id | artifact | binary |
//! |----|----------|--------|
//! | E1 | §V.A use case | `usecase` |
//! | E2–E4 | Figure 10 (exec / deploy / cost) | `fig10` |
//! | E5, E7 | Figure 11 + order-of-magnitude claim | `fig11` |
//! | E6 | §III.C reconfiguration latency | `reconfig` |
//! | E8 | §VI CloudMan comparison | `ablation_cloudman` |
//! | E9 | extensions (streams, faults, autoscaling, policy sweep) | `extensions` |
//! | E10 | spot-fleet preemption grid | `spot_grid` |
//! | E11 | AMI-baking deployment ablation | `ami_ablation` (its printed table keeps the historical "E10" label) |
//! | E12 | predictive vs reactive scaling grid | `predictive_grid` |
//! | E13 | data-sharing options grid | `datashare_grid` |
//! | E14 | workflow-recovery policy grid | `recovery_grid` |
//! | E15 | federated placement grid | `federation_grid` |
//!
//! `cargo run --release -p cumulus-bench --bin all_experiments` prints the
//! full report recorded in EXPERIMENTS.md; every binary accepts
//! `--seed N` to vary the synthetic data and `--threads N` to size the
//! parallel sweep pool (`0` = one per CPU, the default; `1` = serial —
//! the report is byte-identical either way). Benches (`cargo bench`)
//! measure the simulator's own performance.

pub mod experiments {
    //! Experiment implementations, one module per paper artifact.
    pub mod ami;
    pub mod cloudman;
    pub mod datashare;
    pub(crate) mod episode;
    pub mod extensions;
    pub mod federation;
    pub mod fig10;
    pub mod fig11;
    pub mod predictive;
    pub mod reconfig;
    pub mod recovery;
    pub mod spot;
    pub mod usecase;
}

pub mod kernel;
pub mod table;

/// Default seed used by the report binaries (any seed reproduces the same
/// calibrated timings; the seed only varies synthetic data).
pub const REPORT_SEED: u64 = 20120512;

/// Parse `--seed N` (or `--seed=N`) from the process arguments, falling
/// back to `default`. Every report binary accepts this flag so a sweep
/// over seeds is a shell loop away. Panics with a usage message on a
/// malformed value rather than silently benchmarking the wrong thing.
pub fn seed_from_args(default: u64) -> u64 {
    flag_value("--seed").unwrap_or(default)
}

/// Parse `--threads N` (or `--threads=N`) from the process arguments,
/// falling back to `default`. `0` means one worker per CPU; `1` forces a
/// serial sweep. Thread count never changes the report — parallel sweeps
/// merge in replica order — only how fast it is produced.
pub fn threads_from_args(default: usize) -> usize {
    flag_value("--threads").unwrap_or(default)
}

/// The unsigned value of the first `name N` / `name=N` process argument.
fn flag_value<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let prefix = format!("{name}=");
    let value = args.iter().enumerate().skip(1).find_map(|(i, arg)| {
        if arg == name {
            let value = args.get(i + 1).map(String::as_str);
            Some(value.unwrap_or_else(|| panic!("{name} requires a value, e.g. {name} 4")))
        } else {
            arg.strip_prefix(&prefix)
        }
    })?;
    let parsed = value.parse();
    Some(parsed.unwrap_or_else(|_| panic!("{name} expects an unsigned integer, got {value:?}")))
}

/// Whether `--report` was passed: experiment binaries then append their
/// telemetry episode report (per-job walltime decomposition assembled
/// from lifecycle spans) after the regular table. Off by default so the
/// standard outputs stay byte-identical to the pre-telemetry tree.
pub fn report_from_args() -> bool {
    std::env::args().any(|a| a == "--report")
}

/// First positional argument (ignoring `--seed`/`--threads` flags and
/// their values), parsed, or `default`. The replica-count argument of the
/// Monte-Carlo binaries.
pub fn positional_from_args(default: usize) -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match unparsed(&args).first() {
        Some(arg) => arg
            .parse()
            .unwrap_or_else(|_| panic!("expected a replica count, got {arg:?}")),
        None => default,
    }
}

/// `args` minus `--seed`/`--threads` and their values.
fn unparsed(args: &[String]) -> Vec<&str> {
    let mut rest = Vec::new();
    let mut iter = args.iter().map(String::as_str);
    while let Some(arg) = iter.next() {
        if arg == "--seed" || arg == "--threads" {
            iter.next();
        } else if !arg.starts_with("--seed=") && !arg.starts_with("--threads=") {
            rest.push(arg);
        }
    }
    rest
}

/// Exit with a usage error unless every process argument is one the
/// binary understands: `--seed N` and `--threads N` (or their `=` forms),
/// the binary's own `flags`, and — when `positional` names it — one bare
/// argument. A typo such as `--quik` must not silently run the full grid
/// and rewrite its committed results.
pub fn check_args(flags: &[&str], positional: Option<&str>) {
    let args: Vec<String> = std::env::args().collect();
    if let Err(msg) = validate_args(&args[1..], flags, positional.is_some()) {
        let mut usage = format!("usage: {} [--seed N] [--threads N]", args[0]);
        for flag in flags {
            usage.push_str(&format!(" [{flag}]"));
        }
        if let Some(name) = positional {
            usage.push_str(&format!(" [<{name}>]"));
        }
        eprintln!("error: {msg}\n{usage}");
        std::process::exit(2);
    }
}

/// The check behind [`check_args`] over an explicit argument list
/// (program name excluded); `positional` allows one bare argument.
fn validate_args(args: &[String], flags: &[&str], mut positional: bool) -> Result<(), String> {
    for arg in unparsed(args) {
        if flags.contains(&arg) {
            continue;
        }
        if positional && !arg.starts_with('-') {
            positional = false;
            continue;
        }
        return Err(format!("unexpected argument {arg:?}"));
    }
    Ok(())
}

/// Record a binary's results as `file` at the repo root — the committed
/// full-shape results — unless `quick`: a CI-shape run writes nothing, so
/// it can never overwrite them.
pub fn write_results(file: &str, doc: &cumulus_provision::json::Json, quick: bool) {
    match results_path(file, quick) {
        Some(path) => {
            std::fs::write(&path, doc.render() + "\n")
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            eprintln!("wrote {}", path.display());
        }
        None => eprintln!("quick mode: {file} left as committed"),
    }
}

/// Where [`write_results`] writes `file`: nowhere in quick mode.
fn results_path(file: &str, quick: bool) -> Option<std::path::PathBuf> {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    (!quick).then(|| root.join(file))
}

/// Assemble the full experiment report (what EXPERIMENTS.md records).
pub fn full_report(fault_replicas: usize) -> String {
    full_report_seeded(REPORT_SEED, fault_replicas)
}

/// [`full_report`] with an explicit seed (the `--seed` flag of
/// `all_experiments`).
pub fn full_report_seeded(seed: u64, fault_replicas: usize) -> String {
    let mut out = String::new();
    out.push_str("# cumulus experiment report\n\n");
    out.push_str(&experiments::usecase::run(seed));
    out.push('\n');
    out.push_str(&experiments::fig10::run(seed));
    out.push('\n');
    out.push_str(&experiments::fig11::run());
    out.push('\n');
    out.push_str(&experiments::reconfig::run(seed));
    out.push('\n');
    out.push_str(&experiments::cloudman::run(seed));
    out.push('\n');
    out.push_str(&experiments::extensions::run_stream_sweep());
    out.push('\n');
    out.push_str(&experiments::extensions::run_fault_sensitivity(
        fault_replicas,
    ));
    out.push('\n');
    out.push_str(&experiments::extensions::run_autoscale(seed));
    out.push('\n');
    out.push_str(&experiments::extensions::run_policy_sweep(seed));
    out.push('\n');
    out.push_str(&experiments::extensions::run_nfs_contention());
    out.push('\n');
    out.push_str(&experiments::ami::run(seed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn known_arguments_pass() {
        let grid = ["--quick", "--report"];
        for ok in [
            &[][..],
            &["--quick"],
            &["--seed", "7", "--threads", "1", "--report"],
            &["--seed=7", "--threads=0", "--quick", "--report"],
        ] {
            assert_eq!(validate_args(&args(ok), &grid, false), Ok(()), "{ok:?}");
        }
        assert_eq!(
            validate_args(&args(&["8", "--threads", "2"]), &[], true),
            Ok(())
        );
    }

    #[test]
    fn unknown_arguments_are_usage_errors() {
        let grid = ["--quick", "--report"];
        for bad in [
            &["--quik"][..],
            &["--quick", "--reprot"],
            &["quick"],
            &["-q"],
            &["--seed", "7", "--full"],
        ] {
            let err = validate_args(&args(bad), &grid, false).unwrap_err();
            assert!(err.contains("unexpected argument"), "{bad:?}: {err}");
        }
        // At most one bare argument, and only where one is expected.
        assert!(validate_args(&args(&["8", "9"]), &[], true).is_err());
        assert!(validate_args(&args(&["--quick"]), &[], true).is_err());
    }

    #[test]
    fn quick_mode_never_writes_results() {
        assert_eq!(results_path("BENCH_e13.json", true), None);
        let full = results_path("BENCH_e13.json", false).expect("full runs write");
        let committed =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_e13.json");
        assert_eq!(
            full.canonicalize().unwrap(),
            committed.canonicalize().unwrap()
        );
    }
}
