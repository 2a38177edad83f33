//! Extension experiments (E9): stream sweep, fault sensitivity,
//! autoscaling, scaling-policy sweep.
//!
//! The E9e policy sweep runs twice — serially and fanned out over the
//! replica runner (`--threads N`, default one per CPU) — asserts the two
//! reports are byte-identical, and records the wall-time comparison in
//! `BENCH_e9.json` at the repo root.

use std::time::Instant;

use cumulus_bench::experiments::extensions;
use cumulus_provision::json::Json;

fn main() {
    cumulus_bench::check_args(&[], Some("fault replicas"));
    let seed = cumulus_bench::seed_from_args(cumulus_bench::REPORT_SEED);
    let replicas = cumulus_bench::positional_from_args(16);
    let threads = cumulus_bench::threads_from_args(0);

    print!("{}", extensions::run_stream_sweep());
    println!();
    print!("{}", extensions::run_fault_sensitivity(replicas));
    println!();
    print!("{}", extensions::run_autoscale(seed));
    println!();

    // E9e, timed: serial reference first, then the parallel sweep. The
    // renders must match byte for byte (determinism survives parallelism);
    // the timing delta is the point of the exercise.
    let t0 = Instant::now();
    let serial = extensions::run_policy_sweep_threads(seed, 1);
    let serial_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let parallel = extensions::run_policy_sweep_threads(seed, threads);
    let parallel_secs = t1.elapsed().as_secs_f64();
    assert_eq!(
        serial, parallel,
        "parallel policy sweep diverged from the serial render"
    );
    print!("{parallel}");
    println!();
    print!("{}", extensions::run_nfs_contention());

    // 2 traces x 3 policies per sweep.
    let episodes = 2 * extensions::SWEEP_POLICIES;
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let doc = Json::obj([
        ("bench", Json::str("e9_policy_sweep")),
        ("episodes", Json::Num(episodes as f64)),
        ("threads_requested", Json::Num(threads as f64)),
        ("machine_cpus", Json::Num(cpus as f64)),
        ("serial_secs", Json::Num((serial_secs * 1e4).round() / 1e4)),
        (
            "parallel_secs",
            Json::Num((parallel_secs * 1e4).round() / 1e4),
        ),
        (
            "wall_time_per_episode_secs",
            Json::Num((parallel_secs / episodes as f64 * 1e4).round() / 1e4),
        ),
        (
            "speedup_vs_serial",
            Json::Num((serial_secs / parallel_secs * 100.0).round() / 100.0),
        ),
    ]);
    cumulus_bench::write_results("BENCH_e9.json", &doc, false);
}
