//! Telemetry kernel bench: hot-path observability throughput of the
//! `cumulus-simkit` plane — the [`Key`]-indexed atomic counter bank, and
//! interned-[`Key`] typed [`Event`](cumulus_simkit::telemetry::Event)
//! records.
//!
//! Beyond timing, the harness asserts that each workload's (checksum,
//! event-count) repeats across runs, and a determinism gate checks that
//! recording telemetry does not perturb the instrumented computation
//! (enabled-vs-disabled output equality) and that event digests are
//! stable. Those assertions panic on failure, which is what the CI
//! `bench-smoke` job gates on (timing is reported, never gated).
//!
//! Results land in `BENCH_telemetry.json` at the repo root (not in
//! `--quick` mode, which leaves the committed full-size results alone).
//! A full run rewrites the file, so `git diff` compares it with the
//! previous row.
//!
//! Usage: `cargo run --release -p cumulus-bench --bin telemetry [-- --quick]`

use cumulus_bench::kernel::{measure, time_workload, workloads_json, WorkloadResult};
use cumulus_provision::json::Json;
use cumulus_simkit::hash::Fnv;
use cumulus_simkit::metrics::Metrics;
use cumulus_simkit::telemetry::{span::keys, Key, Payload, SpanKind, Telemetry};
use cumulus_simkit::time::{SimDuration, SimTime};

// ---------------------------------------------------------------------------
// Deterministic workload descriptions
// ---------------------------------------------------------------------------

/// The realistic key set: counters of the kind the simulator's hot paths
/// write.
const COUNTER_KEYS: [&str; 8] = [
    "transfer/tasks",
    "transfer/bytes_delivered",
    "store/cache_hits",
    "store/cache_misses",
    "nfs/bytes_staged",
    "nfs/stage_ops",
    "autoscale/ticks",
    "autoscale/scale_out",
];

/// Scale knobs per workload; `--quick` shrinks everything.
struct Scale {
    samples: u32,
    metric_rounds: usize,
    typed_events: usize,
}

impl Scale {
    fn new(quick: bool) -> Self {
        if quick {
            Scale {
                samples: 2,
                metric_rounds: 20_000,
                typed_events: 50_000,
            }
        } else {
            Scale {
                samples: 5,
                metric_rounds: 400_000,
                typed_events: 1_000_000,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workloads. Each returns (checksum, events).
// ---------------------------------------------------------------------------

/// metrics_hot: the counter write path as the simulator drives it — per
/// round one increment per hot key. The checksum is [`Fnv`] over the
/// counters read back in [`COUNTER_KEYS`] order.
fn metrics_hot(s: &Scale) -> (u64, u64) {
    let m = Metrics::new();
    let counters: Vec<Key> = COUNTER_KEYS.iter().map(|k| Key::intern(k)).collect();
    for round in 0..s.metric_rounds {
        for (i, &key) in counters.iter().enumerate() {
            m.incr(key, 1 + ((round + i) % 7) as u64);
        }
    }
    let mut sum = Fnv::new();
    for name in COUNTER_KEYS {
        sum.write_u64(m.counter(name));
    }
    let events = s.metric_rounds * COUNTER_KEYS.len();
    (sum.finish(), events as u64)
}

/// typed_events: the event-bus hot path — a typed payload under an
/// interned key per observation, no formatting at all. The checksum covers
/// the observation stream itself plus the resulting log length, so the
/// same loop on a disabled handle measures what rejecting an event costs.
fn typed_events(tel: &Telemetry, s: &Scale) -> (u64, u64) {
    let started = Key::intern("transfer.started");
    let done = Key::intern("transfer.done");
    let mut sum = Fnv::new();
    for i in 0..s.typed_events / 2 {
        let bytes = (i % 1000) as u64 * 4096;
        let at = SimTime::ZERO + SimDuration::from_micros(i as u64 * 1000);
        tel.record(at, "transfer", started, Payload::Bytes(bytes));
        tel.record(
            at + SimDuration::from_secs(2),
            "transfer",
            done,
            Payload::Pair(i as u64, bytes),
        );
        sum.write_u64(i as u64);
        sum.write_u64(bytes);
    }
    sum.write_u64(tel.len() as u64);
    (sum.finish(), s.typed_events as u64)
}

// ---------------------------------------------------------------------------
// Determinism gates (asserted, never timed)
// ---------------------------------------------------------------------------

/// A small instrumented computation: a span per "job" with a phase and a
/// typed byte count. Returns a checksum over the *computed* values only —
/// recording must not perturb it.
fn instrumented_computation(tel: &Telemetry) -> u64 {
    let mut sum = Fnv::new();
    for j in 0..500u64 {
        let submit = SimTime::ZERO + SimDuration::from_secs(j);
        let start = submit + SimDuration::from_secs(7 + j % 13);
        let finish = start + SimDuration::from_secs(90 + j % 41);
        tel.span_open(submit, "htc", keys::JOB_SUBMITTED, SpanKind::Job, j);
        tel.span_phase(
            start,
            "htc",
            keys::JOB_MATCHED,
            SpanKind::Job,
            j,
            SimDuration::ZERO,
        );
        tel.span_close(finish, "htc", keys::JOB_COMPLETED, SpanKind::Job, j);
        sum.write_u64(finish.since(submit).as_micros());
    }
    sum.finish()
}

/// The CI determinism gate: enabled-vs-disabled output equality and
/// digest stability across repeated runs.
fn determinism_gate() {
    let on = Telemetry::enabled();
    let off = Telemetry::disabled();
    assert_eq!(
        instrumented_computation(&on),
        instrumented_computation(&off),
        "recording telemetry must not change the instrumented computation"
    );
    assert_eq!(off.len(), 0);
    assert_eq!(on.len(), 1500, "3 events per job span");

    let again = Telemetry::enabled();
    instrumented_computation(&again);
    assert_eq!(
        on.digest(),
        again.digest(),
        "telemetry digest must be stable across identical runs"
    );
    assert_eq!(on.render(), again.render());
    println!("determinism gate: enabled==disabled output, digest stable");
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn write_json(results: &[WorkloadResult], disabled_ns_per_op: f64, quick: bool) {
    let doc = Json::obj([
        ("bench", Json::str("telemetry")),
        ("mode", Json::str(if quick { "quick" } else { "full" })),
        ("workloads", workloads_json(results)),
        (
            "disabled_handle_ns_per_event",
            Json::Num((disabled_ns_per_op * 100.0).round() / 100.0),
        ),
    ]);
    cumulus_bench::write_results("BENCH_telemetry.json", &doc, quick);
}

fn main() {
    cumulus_bench::check_args(&["--quick"], None);
    let quick = std::env::args().any(|a| a == "--quick");
    let s = Scale::new(quick);

    println!("== telemetry (counters + typed events) ==");

    determinism_gate();

    let time = |name, f: &dyn Fn() -> (u64, u64)| time_workload(name, s.samples, f, |out| out.1).0;
    let results = vec![
        time("metrics_hot", &|| metrics_hot(&s)),
        time("typed_events", &|| typed_events(&Telemetry::enabled(), &s)),
    ];

    // The disabled-handle cost: same loop, recording off.
    let off = Telemetry::disabled();
    let (disabled_secs, _) = measure(s.samples, || typed_events(&off, &s));
    assert!(off.is_empty(), "disabled handle must record nothing");
    let disabled_ns = disabled_secs / s.typed_events as f64 * 1e9;
    println!(
        "{:<24} events {:>9}  disabled handle {:>6.2} ns/event",
        "disabled_overhead", s.typed_events, disabled_ns
    );

    write_json(&results, disabled_ns, quick);
}
