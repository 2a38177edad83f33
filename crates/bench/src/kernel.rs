//! The old-vs-new timing harness the kernel benches (`des_kernel`,
//! `matchmaker`, `telemetry`) share: a determinism-gated median timer, the
//! checksum old and new code must agree on, and the per-workload rates
//! each one records.

use std::time::Instant;

use cumulus_provision::json::Json;
use cumulus_simkit::time::SimTime;

/// FNV-1a over a workload's event stream: the determinism checksum the
/// old and new code must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    /// Fold in raw bytes.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Fold in a little-endian `u64`.
    pub fn push_u64(&mut self, x: u64) {
        self.push_bytes(&x.to_le_bytes());
    }

    /// Fold in one matchmaking decision.
    pub fn push_match(&mut self, job: u64, machine: &str, finish: SimTime) {
        self.push_u64(job);
        self.push_bytes(machine.as_bytes());
        self.push_u64(finish.as_micros());
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

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

/// One workload timed on the old (in-bench baseline) and new code.
pub struct WorkloadResult {
    /// Workload name (the JSON key).
    pub name: &'static str,
    /// Operations one run performs.
    pub events: u64,
    /// Median seconds per run, baseline.
    pub old_secs: f64,
    /// Median seconds per run, current code.
    pub new_secs: f64,
}

impl WorkloadResult {
    /// Baseline operations per second.
    pub fn old_eps(&self) -> f64 {
        self.events as f64 / self.old_secs
    }

    /// Current operations per second.
    pub fn new_eps(&self) -> f64 {
        self.events as f64 / self.new_secs
    }

    /// Baseline time over current time.
    pub fn speedup(&self) -> f64 {
        self.old_secs / self.new_secs
    }
}

/// The per-workload rates as a JSON object keyed by workload name, the
/// speedup recorded under `speedup_key`.
pub fn workloads_json(results: &[WorkloadResult], speedup_key: &'static str) -> Json {
    Json::Obj(
        results
            .iter()
            .map(|r| {
                (
                    r.name.to_string(),
                    Json::obj([
                        ("events", Json::Num(r.events as f64)),
                        ("old_events_per_sec", Json::Num(r.old_eps().round())),
                        ("new_events_per_sec", Json::Num(r.new_eps().round())),
                        (
                            speedup_key,
                            Json::Num((r.speedup() * 100.0).round() / 100.0),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}
