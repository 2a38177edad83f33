//! Telemetry kernel bench: hot-path observability throughput, new vs old.
//!
//! Every workload runs on **two** observability stacks:
//!
//! * the current `cumulus-simkit` plane: pre-registered [`MetricId`]
//!   handles indexing dense vectors, and interned-[`Key`] typed
//!   [`Event`](cumulus_simkit::telemetry::Event) records;
//! * [`baseline`], a faithful copy of the pre-telemetry code compiled
//!   into this binary: the string-keyed `Metrics` registry that allocates
//!   a `String` per `incr`/`set_gauge`/`record`, and the `TraceLog` that
//!   stores one pre-formatted `String` per record.
//!
//! Beyond timing, the harness asserts semantic preservation: each
//! workload must produce the same (checksum, event-count) on both stacks
//! — metric reports byte-identical — and the same result on repeated
//! runs. A final determinism gate checks that recording telemetry does
//! not perturb the instrumented computation (enabled-vs-disabled output
//! equality) and that event digests are stable. Those assertions panic
//! on failure, which is what the CI `bench-smoke` job gates on (timing is
//! reported, never gated).
//!
//! Results land in `BENCH_telemetry.json` at the repo root (not in
//! `--quick` mode, which leaves the committed full-size results alone).
//!
//! Usage: `cargo run --release -p cumulus-bench --bin telemetry [-- --quick]`

use cumulus_bench::kernel::{measure, workloads_json, Fnv, WorkloadResult};
use cumulus_provision::json::Json;
use cumulus_simkit::metrics::{MetricId, Metrics};
use cumulus_simkit::telemetry::{Key, Payload, SpanKind, Telemetry};
use cumulus_simkit::time::{SimDuration, SimTime};

/// The pre-telemetry observability code, kept verbatim as the measured
/// baseline.
mod baseline {
    use std::collections::BTreeMap;
    use std::fmt;
    use std::sync::{Arc, Mutex};

    use cumulus_simkit::stats::Samples;
    use cumulus_simkit::time::{SimDuration, SimTime};

    #[derive(Debug, Default)]
    struct Inner {
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, f64>,
        samples: BTreeMap<String, Samples>,
    }

    /// The old string-keyed registry: `key.to_string()` on every write.
    #[derive(Debug, Clone, Default)]
    pub struct Metrics {
        inner: Arc<Mutex<Inner>>,
    }

    impl Metrics {
        pub fn new() -> Self {
            Metrics::default()
        }

        pub fn incr(&self, key: &str, n: u64) {
            let mut g = self.inner.lock().expect("metrics lock poisoned");
            *g.counters.entry(key.to_string()).or_insert(0) += n;
        }

        pub fn set_gauge(&self, key: &str, value: f64) {
            self.inner
                .lock()
                .expect("metrics lock poisoned")
                .gauges
                .insert(key.to_string(), value);
        }

        pub fn record(&self, key: &str, value: f64) {
            let mut g = self.inner.lock().expect("metrics lock poisoned");
            g.samples.entry(key.to_string()).or_default().record(value);
        }

        pub fn record_duration(&self, key: &str, d: SimDuration) {
            self.record(key, d.as_secs_f64());
        }

        pub fn report(&self) -> String {
            let g = self.inner.lock().expect("metrics lock poisoned");
            let mut out = String::new();
            for (k, v) in &g.counters {
                out.push_str(&format!("counter {k} = {v}\n"));
            }
            for (k, v) in &g.gauges {
                out.push_str(&format!("gauge   {k} = {v}\n"));
            }
            for (k, s) in &g.samples {
                out.push_str(&format!("sample  {k}: {}\n", s.summary()));
            }
            out
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TraceRecord {
        pub at: SimTime,
        pub category: String,
        pub message: String,
    }

    impl fmt::Display for TraceRecord {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "[{}] {:<10} {}", self.at, self.category, self.message)
        }
    }

    /// The old vector-backed trace log.
    #[derive(Debug, Clone, Default)]
    pub struct TraceLog {
        records: Vec<TraceRecord>,
        enabled: bool,
    }

    impl TraceLog {
        pub fn enabled() -> Self {
            TraceLog {
                records: Vec::new(),
                enabled: true,
            }
        }

        pub fn emit(&mut self, at: SimTime, category: &str, message: impl Into<String>) {
            if self.enabled {
                self.records.push(TraceRecord {
                    at,
                    category: category.to_string(),
                    message: message.into(),
                });
            }
        }

        pub fn render(&self) -> String {
            let mut out = String::new();
            for r in &self.records {
                out.push_str(&r.to_string());
                out.push('\n');
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic workload descriptions, shared by both stacks
// ---------------------------------------------------------------------------

/// The realistic key set: every counter/gauge/sample key the simulator's
/// hot paths actually write.
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
const GAUGE_KEYS: [&str; 2] = ["autoscale/workers", "store/fleet_bytes"];
const SAMPLE_KEYS: [&str; 2] = ["staging/secs", "transfer/secs"];

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
// Workloads. Each exists in a `new_*` and an `old_*` variant with identical
// logic and returns (checksum, events). The duplication is deliberate: the
// point of the baseline is to stay byte-for-byte the old code.
// ---------------------------------------------------------------------------

/// metrics_hot: the registry write path as the simulator drives it — per
/// round one counter incr per hot key, a gauge update, and a duration
/// sample. The ≥2× record-throughput gate lives here. The checksum is
/// FNV over the final `report()` text, so the refactored registry must
/// render byte-identically to the old one.
mod metrics_hot {
    use super::*;

    pub fn events(s: &Scale) -> u64 {
        (s.metric_rounds * (COUNTER_KEYS.len() + GAUGE_KEYS.len() + SAMPLE_KEYS.len())) as u64
    }

    pub fn new_stack(s: &Scale) -> (u64, u64) {
        let m = Metrics::new();
        let counters: Vec<MetricId> = COUNTER_KEYS.iter().map(|k| MetricId::register(k)).collect();
        let gauges: Vec<MetricId> = GAUGE_KEYS.iter().map(|k| MetricId::register(k)).collect();
        let samples: Vec<MetricId> = SAMPLE_KEYS.iter().map(|k| MetricId::register(k)).collect();
        for round in 0..s.metric_rounds {
            for (i, &id) in counters.iter().enumerate() {
                m.incr_id(id, 1 + ((round + i) % 7) as u64);
            }
            for (i, &id) in gauges.iter().enumerate() {
                m.set_gauge_id(id, ((round * 3 + i) % 100) as f64);
            }
            for (i, &id) in samples.iter().enumerate() {
                m.record_duration_id(id, SimDuration::from_micros(((round + i) % 9000) as u64));
            }
        }
        let mut sum = Fnv::new();
        sum.push_bytes(m.report().as_bytes());
        (sum.0, events(s))
    }

    pub fn old_stack(s: &Scale) -> (u64, u64) {
        let m = baseline::Metrics::new();
        for round in 0..s.metric_rounds {
            for (i, key) in COUNTER_KEYS.iter().enumerate() {
                m.incr(key, 1 + ((round + i) % 7) as u64);
            }
            for (i, key) in GAUGE_KEYS.iter().enumerate() {
                m.set_gauge(key, ((round * 3 + i) % 100) as f64);
            }
            for (i, key) in SAMPLE_KEYS.iter().enumerate() {
                m.record_duration(key, SimDuration::from_micros(((round + i) % 9000) as u64));
            }
        }
        let mut sum = Fnv::new();
        sum.push_bytes(m.report().as_bytes());
        (sum.0, events(s))
    }
}

/// typed_events: the event-bus hot path. The old stack pre-formats a
/// `String` message per observation (the only structured record it has);
/// the new stack records a typed payload under an interned key with no
/// formatting at all. Checksums derive from the observation stream itself
/// plus the resulting log length — identical by construction, so the
/// harness equality gate still applies.
mod typed_events {
    use super::*;

    pub fn new_stack(s: &Scale) -> (u64, u64) {
        let tel = Telemetry::enabled();
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
            sum.push_u64(i as u64);
            sum.push_u64(bytes);
        }
        sum.push_u64(tel.len() as u64);
        (sum.0, s.typed_events as u64)
    }

    pub fn old_stack(s: &Scale) -> (u64, u64) {
        let mut log = baseline::TraceLog::enabled();
        let mut sum = Fnv::new();
        for i in 0..s.typed_events / 2 {
            let bytes = (i % 1000) as u64 * 4096;
            let at = SimTime::ZERO + SimDuration::from_micros(i as u64 * 1000);
            log.emit(
                at,
                "transfer",
                format!("task t-{i:06} started bytes={bytes}"),
            );
            log.emit(
                at + SimDuration::from_secs(2),
                "transfer",
                format!("task t-{i:06} done bytes={bytes}"),
            );
            sum.push_u64(i as u64);
            sum.push_u64(bytes);
        }
        sum.push_u64(log.render().lines().count() as u64);
        (sum.0, s.typed_events as u64)
    }
}

/// The disabled-handle cost: the same emission loop as `typed_events`
/// against a disabled handle. Returns (checksum over the *computation*,
/// events attempted); the log must stay empty.
fn disabled_emission(s: &Scale) -> (u64, u64) {
    let tel = Telemetry::disabled();
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
        sum.push_u64(i as u64);
        sum.push_u64(bytes);
    }
    assert!(tel.is_empty(), "disabled handle must record nothing");
    sum.push_u64(0);
    (sum.0, s.typed_events as u64)
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
        tel.span_open(submit, "htc", "job.submitted", SpanKind::Job, j);
        tel.span_phase(
            start,
            "htc",
            "job.matched",
            SpanKind::Job,
            j,
            SimDuration::ZERO,
        );
        tel.span_close(finish, "htc", "job.completed", SpanKind::Job, j);
        sum.push_u64(finish.since(submit).as_micros());
    }
    sum.0
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

/// Run one workload on both stacks, assert identical (checksum, events),
/// report.
fn compare(
    name: &'static str,
    samples: u32,
    mut old_f: impl FnMut() -> (u64, u64),
    mut new_f: impl FnMut() -> (u64, u64),
    checksums_match: bool,
) -> WorkloadResult {
    let (old_secs, old_out) = measure(samples, &mut old_f);
    let (new_secs, new_out) = measure(samples, &mut new_f);
    if checksums_match {
        assert_eq!(
            old_out, new_out,
            "{name}: telemetry plane diverged from the string-keyed baseline"
        );
    } else {
        assert_eq!(old_out.1, new_out.1, "{name}: event counts diverged");
    }
    let r = WorkloadResult {
        name,
        events: new_out.1,
        old_secs,
        new_secs,
    };
    println!(
        "{:<22} events {:>8}  old {:>9.0} ev/s  new {:>9.0} ev/s  speedup {:>6.2}x",
        r.name,
        r.events,
        r.old_eps(),
        r.new_eps(),
        r.speedup()
    );
    r
}

fn write_json(results: &[WorkloadResult], disabled_ns_per_op: f64, quick: bool) {
    let workloads = workloads_json(results, "speedup_vs_baseline");
    let doc = Json::obj([
        ("bench", Json::str("telemetry")),
        (
            "baseline",
            Json::str(
                "pre-telemetry string-keyed Metrics + String-message TraceLog (in-bench copy)",
            ),
        ),
        ("mode", Json::str(if quick { "quick" } else { "full" })),
        ("workloads", workloads),
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

    println!("== telemetry (old = string-keyed baseline, new = handles + typed events) ==");

    determinism_gate();

    let results = vec![
        compare(
            "metrics_hot",
            s.samples,
            || metrics_hot::old_stack(&s),
            || metrics_hot::new_stack(&s),
            true,
        ),
        compare(
            "typed_events",
            s.samples,
            || typed_events::old_stack(&s),
            || typed_events::new_stack(&s),
            true,
        ),
    ];

    // The disabled-handle cost: same loop, recording off.
    let (disabled_secs, _) = measure(s.samples, || disabled_emission(&s));
    let disabled_ns = disabled_secs / s.typed_events as f64 * 1e9;
    println!(
        "{:<22} events {:>8}  disabled handle {:>6.2} ns/event",
        "disabled_overhead", s.typed_events, disabled_ns
    );

    // The tentpole's measurable claims, defined on the full-size run
    // (quick mode shrinks the workloads below steady state). Reported,
    // never asserted — CI gates on the determinism panics above, not on
    // timing.
    if !quick {
        for r in &results {
            let target = match r.name {
                "metrics_hot" | "typed_events" => 2.0,
                _ => continue,
            };
            if r.speedup() < target {
                println!(
                    "WARNING: {} speedup {:.2}x below the {target}x target",
                    r.name,
                    r.speedup()
                );
            }
        }
    }

    write_json(&results, disabled_ns, quick);
}
