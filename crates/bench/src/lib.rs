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
//!
//! The five parameter grids (E10, E12–E15) run on one driver,
//! [`grid::main`]: each experiment module implements [`grid::Grid`] (its
//! cells, one cell's episode, table, JSON, claim check and optional
//! `--report`), and the driver runs every cell serially and then at
//! `--threads`, asserts both passes render the same bytes, and rewrites
//! the grid's committed `BENCH_e*.json` unless `--quick`.

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

pub mod grid;
pub mod kernel;
pub mod table;

/// Default seed used by the report binaries (any seed reproduces the same
/// calibrated timings; the seed only varies synthetic data).
pub const REPORT_SEED: u64 = 20120512;

/// Parse `--seed N` (or `--seed=N`) from the process arguments, falling
/// back to `default`. Every report binary accepts this flag so a sweep
/// over seeds is a shell loop away. Exits with a usage error (status 2)
/// on a malformed value rather than silently benchmarking the wrong thing.
pub fn seed_from_args(default: u64) -> u64 {
    or_usage(flag_value(&cli_args(), "--seed")).unwrap_or(default)
}

/// Parse `--threads N` (or `--threads=N`) from the process arguments,
/// falling back to `default`. `0` means one worker per CPU; `1` forces a
/// serial sweep. Thread count never changes the report — parallel sweeps
/// merge in replica order — only how fast it is produced.
pub fn threads_from_args(default: usize) -> usize {
    or_usage(flag_value(&cli_args(), "--threads")).unwrap_or(default)
}

/// The process arguments, program name excluded.
fn cli_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// The unsigned value of the first `name N` / `name=N` argument, if any;
/// a missing or non-numeric value is an error.
fn flag_value<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let prefix = format!("{name}=");
    let found = args.iter().enumerate().find_map(|(i, arg)| {
        if arg == name {
            Some(args.get(i + 1).map(String::as_str))
        } else {
            arg.strip_prefix(&prefix).map(Some)
        }
    });
    let Some(value) = found else {
        return Ok(None);
    };
    let value = value.ok_or_else(|| format!("{name} requires a value, e.g. {name} 4"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{name} expects an unsigned integer, got {value:?}"))
}

/// First positional argument (ignoring `--seed`/`--threads` flags and
/// their values), parsed, or `default`. The replica-count argument of the
/// Monte-Carlo binaries; anything but an unsigned integer is a usage
/// error.
pub fn positional_from_args(default: usize) -> usize {
    or_usage(positional_value(&cli_args())).unwrap_or(default)
}

/// The first positional argument of `args` (the first not starting with
/// `--`) as a replica count, if any.
fn positional_value(args: &[String]) -> Result<Option<usize>, String> {
    unparsed(args)
        .into_iter()
        .find(|arg| !arg.starts_with("--"))
        .map(|arg| {
            arg.parse()
                .map_err(|_| format!("expected a replica count, got {arg:?}"))
        })
        .transpose()
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
/// binary understands: `--seed N` and `--threads N` (or their `=` forms)
/// with unsigned values, the binary's own `flags`, and — when
/// `positional` names it — one bare unsigned count. A typo such as `--quik`
/// must not silently run the full grid and rewrite its committed results.
pub fn check_args(flags: &[&str], positional: Option<&str>) {
    if let Err(msg) = validate_args(&cli_args(), flags, positional.is_some()) {
        usage_error(&msg, flags, positional);
    }
}

/// The parsed value, or a usage error naming only the shared flags.
fn or_usage<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| usage_error(&msg, &[], None))
}

/// Print `error: msg` and the usage line to stderr, then exit with
/// status 2.
fn usage_error(msg: &str, flags: &[&str], positional: Option<&str>) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    let mut usage = format!("usage: {program} [--seed N] [--threads N]");
    for flag in flags {
        usage.push_str(&format!(" [{flag}]"));
    }
    if let Some(name) = positional {
        usage.push_str(&format!(" [<{name}>]"));
    }
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2);
}

/// The check behind [`check_args`] over an explicit argument list
/// (program name excluded); `positional` allows one bare argument.
fn validate_args(args: &[String], flags: &[&str], mut positional: bool) -> Result<(), String> {
    flag_value::<u64>(args, "--seed")?;
    flag_value::<usize>(args, "--threads")?;
    if positional {
        positional_value(args)?;
    }
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
    fn malformed_flag_values_are_errors() {
        for flag in ["--seed", "--threads"] {
            let eq = format!("{flag}=");
            let eq_abc = format!("{flag}=abc");
            for bad in [
                &[flag, "abc"][..],
                &[eq.as_str()],
                &[eq_abc.as_str()],
                &[flag],
                &["--quick", flag],
                &[flag, "-1"],
            ] {
                let err = flag_value::<u64>(&args(bad), flag).unwrap_err();
                assert!(err.contains(flag), "{bad:?}: {err}");
                assert!(validate_args(&args(bad), &["--quick"], false).is_err());
            }
        }
        assert_eq!(
            flag_value::<u64>(&args(&["--seed", "7"]), "--seed"),
            Ok(Some(7))
        );
        assert_eq!(
            flag_value::<u64>(&args(&["--seed=7"]), "--seed"),
            Ok(Some(7))
        );
        assert_eq!(flag_value::<u64>(&args(&["--quick"]), "--seed"), Ok(None));
    }

    #[test]
    fn malformed_replica_counts_are_errors() {
        for bad in [&["abc"][..], &["-3"], &["1.5"], &["--seed", "7", "x"]] {
            let err = positional_value(&args(bad)).unwrap_err();
            assert!(err.contains("replica count"), "{bad:?}: {err}");
        }
        assert_eq!(
            positional_value(&args(&["8", "--threads", "2"])),
            Ok(Some(8))
        );
        assert_eq!(positional_value(&args(&["--seed=3"])), Ok(None));
        assert_eq!(positional_value(&args(&["--quick", "4"])), Ok(Some(4)));
        assert_eq!(
            validate_args(&args(&["--quick", "4"]), &["--quick"], true),
            Ok(())
        );
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
