//! The timing harness the kernel benches (`des_kernel`, `matchmaker`,
//! `telemetry`) share: a determinism-gated median timer and the
//! per-workload rates each one records.

use std::time::Instant;

use cumulus_provision::json::Json;

/// Median wall-time (seconds) of `samples` timed runs of `f`, after one
/// warm-up call that is also the determinism reference: panics if any
/// repeated run disagrees with it. Returns the median and that result.
pub fn measure<T: PartialEq + std::fmt::Debug>(samples: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let reference = f();
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        times.push(start.elapsed().as_secs_f64());
        assert_eq!(
            out, reference,
            "nondeterministic workload result across repeated runs"
        );
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], reference)
}

/// Time workload `name` with [`measure`] and print its rate. `events`
/// reads the operation count off the workload's (repeatable) result,
/// which is returned for any further checks.
pub fn time_workload<T: PartialEq + std::fmt::Debug>(
    name: &'static str,
    samples: u32,
    f: impl FnMut() -> T,
    events: impl FnOnce(&T) -> u64,
) -> (WorkloadResult, T) {
    let (secs, out) = measure(samples, f);
    let r = WorkloadResult {
        name,
        events: events(&out),
        secs,
    };
    println!(
        "{:<24} events {:>9}  {:>11.0} ev/s",
        r.name,
        r.events,
        r.eps()
    );
    (r, out)
}

/// One timed workload.
pub struct WorkloadResult {
    /// Workload name (the JSON key).
    pub name: &'static str,
    /// Operations one run performs.
    pub events: u64,
    /// Median seconds per run.
    pub secs: f64,
}

impl WorkloadResult {
    /// Operations per second.
    pub fn eps(&self) -> f64 {
        self.events as f64 / self.secs
    }
}

/// The per-workload rates as a JSON object keyed by workload name.
pub fn workloads_json(results: &[WorkloadResult]) -> Json {
    Json::Obj(
        results
            .iter()
            .map(|r| {
                (
                    r.name.to_string(),
                    Json::obj([
                        ("events", Json::Num(r.events as f64)),
                        ("events_per_sec", Json::Num(r.eps().round())),
                    ]),
                )
            })
            .collect(),
    )
}
