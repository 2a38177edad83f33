//! Microbenchmarks of the DES kernel: the event throughput every
//! higher-level experiment rides on. Plain `Instant`-based harness
//! (`harness = false`; the build environment ships no criterion).
//!
//! Beyond timing, the harness asserts each workload's fire count: equal
//! on repeated runs, and equal to its closed-form count wherever one
//! exists (every workload but the cancel churn, whose cancels may land on
//! events that already fired). Those assertions panic on failure, which
//! is what the CI `bench-smoke` job checks (timing numbers are reported,
//! never gated). Fire order against a reference model is checked by
//! `tests/queue_differential.rs`, not here.
//!
//! Results land in `BENCH_simkit.json` at the repo root (events/sec per
//! workload; not in `--quick` mode, which leaves the committed full-size
//! results alone). A full run rewrites the file, so `git diff` compares
//! it with the previous row.
//!
//! Usage: `cargo bench -p cumulus-bench --bench des_kernel [-- --quick]`

use cumulus_bench::kernel::{measure, time_workload, workloads_json, WorkloadResult};
use cumulus_provision::json::Json;
use cumulus_simkit::prelude::*;

/// Deterministic 64-bit mixer for workload-internal choices (no wall clock,
/// no OS entropy — same sequence on every run).
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

// ---------------------------------------------------------------------------
// Workloads. Each returns the number of events that fired.
// ---------------------------------------------------------------------------

/// Schedule-and-drain N independent events scattered over a 1s window.
fn drain(n: u64) -> u64 {
    let mut sim = Sim::new(0u64);
    for i in 0..n {
        sim.schedule_at(
            SimTime::from_micros(i * 7 % 1_000_000),
            |sim: &mut Sim<u64>| {
                sim.world += 1;
            },
        );
    }
    sim.run_to_completion();
    sim.world
}

/// A self-rescheduling event chain (per-event overhead, empty queue).
fn chain(n: u64) -> u64 {
    fn tick(sim: &mut Sim<(u64, u64)>) {
        sim.world.0 += 1;
        if sim.world.0 < sim.world.1 {
            sim.schedule_in(SimDuration::from_micros(1), tick);
        }
    }
    let mut sim = Sim::new((0u64, n));
    sim.schedule_now(tick);
    sim.run_to_completion();
    sim.world.0
}

/// Churn: a driver tick that keeps ~2k events live, scheduling bursts of
/// events up to 500 µs ahead and cancelling a third of the backlog as it
/// goes. A stress shape for cancellation: no experiment driver schedules
/// this densely (the autoscale controller ticks every 60 s of simulated
/// time, and a `galaxy-elastic` episode puts 2 of ~9,545 inserts under
/// 1 ms ahead, both at delta 0).
fn churn(n: u64) -> u64 {
    const BURST: u64 = 8;
    const CANCEL_PER_TICK: usize = 3;
    struct W {
        fired: u64,
        budget: u64,
        pending: Vec<EventId>,
        x: u64,
    }
    fn tick(sim: &mut Sim<W>) {
        for _ in 0..BURST {
            if sim.world.budget == 0 {
                return;
            }
            sim.world.budget -= 1;
            sim.world.x = lcg(sim.world.x);
            let d = 1 + (sim.world.x >> 33) % 500;
            let id = sim.schedule_in(SimDuration::from_micros(d), |sim: &mut Sim<W>| {
                sim.world.fired += 1;
            });
            sim.world.pending.push(id);
        }
        for _ in 0..CANCEL_PER_TICK {
            if sim.world.pending.is_empty() {
                break;
            }
            sim.world.x = lcg(sim.world.x);
            let k = (sim.world.x >> 33) as usize % sim.world.pending.len();
            let id = sim.world.pending.swap_remove(k);
            sim.cancel(id);
        }
        sim.schedule_in(SimDuration::from_micros(2), tick);
    }
    let mut sim = Sim::new(W {
        fired: 0,
        budget: n,
        pending: Vec::new(),
        x: 0x9E3779B97F4A7C15,
    });
    sim.schedule_now(tick);
    sim.run_to_completion();
    sim.world.fired
}

/// Recurring ticks: `streams` concurrent `schedule_every` loops with
/// co-prime-ish sub-millisecond intervals, each firing `ticks` times. A
/// stress shape for recurrence: the experiment drivers' recurring loops
/// are the Condor negotiator (every 20 s) and the autoscale controller
/// (every 60 s), one of each per episode.
fn recurring(streams: u64, ticks: u64) -> u64 {
    let mut sim = Sim::new(0u64);
    for s in 0..streams {
        let interval = SimDuration::from_micros(1 + (s * 37) % 499);
        let mut left = ticks;
        sim.schedule_every(SimTime::from_micros(s % 97), interval, move |sim| {
            sim.world += 1;
            left -= 1;
            left > 0
        });
    }
    sim.run_to_completion();
    sim.world
}

/// Far-horizon: every delay is 2 ms to ~1 s, so each pop sifts entries
/// spread over a wide time range — the closest of the five workloads to
/// the experiment drivers, whose deltas run from seconds to minutes.
fn far(n: u64) -> u64 {
    struct W {
        fired: u64,
        budget: u64,
        x: u64,
    }
    fn tick(sim: &mut Sim<W>) {
        sim.world.fired += 1;
        if sim.world.budget == 0 {
            return;
        }
        sim.world.budget -= 1;
        sim.world.x = lcg(sim.world.x);
        let d = 2_000 + (sim.world.x >> 33) % 1_000_000; // 2 ms to ~1 s
        sim.schedule_in(SimDuration::from_micros(d), tick);
        if sim.world.budget > 0 {
            sim.world.budget -= 1;
            sim.world.x = lcg(sim.world.x);
            let d = 2_000 + (sim.world.x >> 33) % 1_000_000;
            sim.schedule_in(SimDuration::from_micros(d), tick);
        }
    }
    let mut sim = Sim::new(W {
        fired: 0,
        budget: n,
        x: 7,
    });
    sim.schedule_now(tick);
    sim.run_to_completion();
    sim.world.fired
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Time one workload of `events` operations and assert its fire count
/// against `fires` where that is known in closed form.
fn time(
    name: &'static str,
    samples: u32,
    events: u64,
    fires: Option<u64>,
    f: impl FnMut() -> u64,
) -> WorkloadResult {
    let (r, fired) = time_workload(name, samples, f, |_| events);
    if let Some(want) = fires {
        assert_eq!(fired, want, "{name}: fire count");
    }
    r
}

fn write_json(results: &[WorkloadResult], quick: bool) {
    let doc = Json::obj([
        ("bench", Json::str("des_kernel")),
        ("mode", Json::str(if quick { "quick" } else { "full" })),
        ("workloads", workloads_json(results)),
    ]);
    cumulus_bench::write_results("BENCH_simkit.json", &doc, quick);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples: u32 = if quick { 2 } else { 7 };
    let scale: u64 = if quick { 10 } else { 1 };

    println!("== des_kernel (slab + index-heap engine) ==");

    let drain_n = 100_000 / scale;
    let chain_n = 100_000 / scale;
    let churn_n = 200_000 / scale;
    let (streams, ticks) = if quick { (200, 50) } else { (1_000, 150) };
    let far_n = 100_000 / scale;

    let results = vec![
        time("drain_scatter", samples, drain_n, Some(drain_n), || {
            drain(drain_n)
        }),
        time("event_chain", samples, chain_n, Some(chain_n), || {
            chain(chain_n)
        }),
        // Cancels may hit already-fired events, so the fire count has no
        // closed form; `measure` still checks it across repeated runs.
        time("churn_schedule_cancel", samples, churn_n, None, || {
            churn(churn_n)
        }),
        time(
            "recurring_ticks",
            samples,
            streams * ticks,
            Some(streams * ticks),
            || recurring(streams, ticks),
        ),
        // The seed tick plus one per budget unit.
        time("far_horizon", samples, far_n, Some(far_n + 1), || {
            far(far_n)
        }),
    ];

    write_json(&results, quick);

    println!("== rng_streams ==");
    let (t, _) = measure(if quick { 3 } else { 50 }, || {
        let mut rng = RngStream::derive(42, "bench");
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc = acc.wrapping_add(rng.uniform_int(0, 1 << 30));
        }
        acc
    });
    println!("derive_and_draw_1k          {:>12.1} us/iter", t * 1e6);
}
