//! What every episode shares: the input generator, the outcome digest,
//! the invariant checks, the match step and tallies of the data-plane
//! loops, and the record an episode hands the runner.

use std::collections::BTreeMap;
use std::fmt::Display;

use cumulus::autoscale::signal::percentile;
use cumulus::htc::{CondorPool, Match, Value, MACHINE_CACHE_CIDS_ATTR};
use cumulus::simkit::time::SimDuration;
use cumulus::store::fleet::keys as cache_keys;
use cumulus::store::staging::keys;
use cumulus::store::{CacheFleet, DataSize, StagingPlan, StagingSource};

use crate::trace::{self, Layer};

/// The benchmark's own input generator (SplitMix64). Inputs are derived
/// here, never from library RNG streams, so a library change cannot alter
/// what a seed means.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator for the input stream `name` of workload seed `seed`.
    pub fn new(seed: u64, name: &str) -> Gen {
        let mut h = Fnv::default();
        h.write(name.as_bytes());
        Gen(seed ^ h.0.rotate_left(17))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The simulated outcomes of one episode, as named lines. Only
/// seed-determined quantities go in (never host times), so every run of a
/// seed must produce the same digest; a performance change must leave it
/// unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    lines: Vec<String>,
}

impl Digest {
    /// Record one outcome. Floats use `{:?}`, which round-trips exactly.
    pub fn add(&mut self, name: &str, value: impl Display) {
        self.lines.push(format!("{name}={value}"));
    }

    /// Record a float outcome exactly.
    pub fn add_f64(&mut self, name: &str, value: f64) {
        self.lines.push(format!("{name}={value:?}"));
    }

    /// The FNV-1a hash of every line.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for line in &self.lines {
            h.write(line.as_bytes());
            h.write(b"\n");
        }
        h.0
    }

    /// One line: the hash followed by every outcome.
    pub fn render(&self) -> String {
        format!("digest {:#018x} {}", self.hash(), self.lines.join(" "))
    }
}

/// Invariant checks of one episode. Each failed check counts as one
/// failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record `what` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Check `a` and `b` agree to a relative `1e-9` (sums of dollars
    /// accumulated in different orders).
    pub fn close(&mut self, name: &str, a: f64, b: f64) {
        let ok = (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        self.check(ok, || format!("{name}: {a} != {b}"));
    }
}

/// Per-job completion bookkeeping: every submitted job must complete
/// exactly once.
#[derive(Debug, Default)]
pub struct Completions {
    /// Completions seen, indexed by submission order.
    seen: Vec<u8>,
}

impl Completions {
    /// Register a submission; returns its index.
    pub fn submitted(&mut self) -> usize {
        self.seen.push(0);
        self.seen.len() - 1
    }

    /// Record a completion of submission `idx`.
    pub fn completed(&mut self, idx: usize) {
        self.seen[idx] = self.seen[idx].saturating_add(1);
    }

    /// Submissions that did not complete exactly once.
    pub fn not_exactly_once(&self) -> u64 {
        self.seen.iter().filter(|&&n| n != 1).count() as u64
    }
}

/// Per-layer work counts and ratios an episode measured, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Every count an episode may report, with its unit. A workload reports
/// 0 for a count it has no layer for.
pub const COUNTS: [(&str, &str); 17] = [
    ("simkit.events", "count"),
    ("htc.negotiate.calls", "count"),
    ("htc.matches", "count"),
    ("htc.idle_depth.mean", "jobs"),
    ("htc.idle_depth.max", "jobs"),
    ("htc.wait_p95_min", "min"),
    ("store.cache.hit_ratio", "ratio"),
    (cache_keys::EVICTIONS, "count"),
    (keys::BYTES_LOCAL, "bytes"),
    (keys::BYTES_PEER, "bytes"),
    (keys::BYTES_OBJECT, "bytes"),
    (keys::BYTES_INGEST, "bytes"),
    ("federation.crossings", "count"),
    ("federation.egress_bytes", "bytes"),
    ("autoscale.actuations", "count"),
    ("autoscale.hold_ratio", "ratio"),
    ("telemetry.events", "count"),
];

/// The staging ladder's byte counters, in ladder order. The per-layer
/// split reports four of them: remote bytes are the WAN egress, and the
/// cached ladder never reads NFS.
const RUNGS: [&str; 6] = [
    keys::BYTES_LOCAL,
    keys::BYTES_PEER,
    keys::BYTES_OBJECT,
    keys::BYTES_REMOTE,
    keys::BYTES_NFS,
    keys::BYTES_INGEST,
];

/// What the negotiation loop of an episode tallies.
#[derive(Debug, Default)]
pub struct Tally {
    /// Negotiation cycles run (one per pool per cycle).
    pub negotiations: u64,
    /// Matches made.
    pub matches: u64,
    /// Idle jobs, sampled once per cycle.
    pub idle_depth: Sampled,
    /// Simulated staging time of every served match.
    pub staging: SimDuration,
    /// Input bytes of every served match.
    pub input_bytes: u64,
    /// Bytes of the served matches' `RemoteSite` staging steps.
    pub remote_bytes: u64,
}

impl Tally {
    /// Record one negotiation cycle that made `matches` matches.
    pub fn cycle(&mut self, matches: usize) {
        self.negotiations += 1;
        self.matches += matches as u64;
    }

    /// Serve match `m`, whose input of `size` was staged by `plan`: charge
    /// the staging time to the job, then re-advertise the worker's cache
    /// so the next cycle's matchmaking sees what it now holds.
    pub fn serve(
        &mut self,
        pool: &mut CondorPool,
        fleet: &CacheFleet,
        m: &Match,
        size: DataSize,
        plan: &StagingPlan,
    ) {
        self.staging += plan.total;
        self.input_bytes += size.as_bytes();
        for step in &plan.steps {
            if matches!(step.source, StagingSource::RemoteSite(_)) {
                self.remote_bytes += step.size.as_bytes();
            }
        }
        let worker = m.machine.0.as_str();
        trace::time(Layer::HtcExtendJob, || pool.extend_job(m.job, plan.total))
            .expect("freshly matched job is running");
        let ad = trace::time(Layer::StoreAttrString, || fleet.attr_string(worker));
        trace::time(Layer::HtcAdvertise, || {
            pool.machine_mut(worker)
                .expect("matched machine is in the pool")
                .ad
                .set(MACHINE_CACHE_CIDS_ATTR, Value::Str(ad));
        });
    }

    /// Report the negotiation counts.
    pub fn htc_counts(&self, counts: &mut Counts) {
        counts.insert("htc.negotiate.calls", self.negotiations as f64);
        counts.insert("htc.matches", self.matches as f64);
        counts.insert("htc.idle_depth.mean", self.idle_depth.mean());
        counts.insert("htc.idle_depth.max", self.idle_depth.max());
    }

    /// The data plane's outcomes, read through `counter` (a counter summed
    /// over every site): check that the rungs carried exactly the served
    /// inputs, digest the bytes per rung, and report the store counts.
    /// Cache counts come from the fleet counters, not per-cache stats,
    /// which scale-in drops with the worker. Returns the cache counts as
    /// `hits/misses/evictions` for the caller's digest.
    pub fn store_outcomes(
        &self,
        counter: impl Fn(&str) -> u64,
        checks: &mut Checks,
        digest: &mut Digest,
        counts: &mut Counts,
    ) -> String {
        let rung_bytes = RUNGS.map(&counter);
        let rung_total: u64 = rung_bytes.iter().sum();
        checks.check(rung_total == self.input_bytes, || {
            format!(
                "store.bytes.* sum to {rung_total}, matches carried {}",
                self.input_bytes
            )
        });
        for (key, bytes) in RUNGS.iter().zip(rung_bytes) {
            digest.add(key, bytes);
        }
        for key in [
            keys::BYTES_LOCAL,
            keys::BYTES_PEER,
            keys::BYTES_OBJECT,
            keys::BYTES_INGEST,
        ] {
            counts.insert(key, counter(key) as f64);
        }
        let (hits, misses, evictions) = (
            counter(cache_keys::HITS),
            counter(cache_keys::MISSES),
            counter(cache_keys::EVICTIONS),
        );
        counts.insert(
            "store.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        counts.insert(cache_keys::EVICTIONS, evictions as f64);
        format!("{hits}/{misses}/{evictions}")
    }
}

/// The 95th percentile of simulated queue waits, in minutes.
pub fn wait_p95_min(waits: impl IntoIterator<Item = SimDuration>) -> f64 {
    let mins: Vec<f64> = waits.into_iter().map(|d| d.as_mins_f64()).collect();
    percentile(&mins, 0.95)
}

/// What one episode hands the runner.
#[derive(Debug)]
pub struct Episode {
    /// Host seconds from the start of the episode to its first arrival.
    pub setup_s: f64,
    /// Host seconds of the episode loop, including any episode report.
    pub loop_s: f64,
    /// Operations submitted (jobs, or analyst sessions).
    pub ops: u64,
    /// Operations that never completed exactly once, plus failed
    /// invariants.
    pub failed: u64,
    /// Messages describing each failure.
    pub failures: Vec<String>,
    /// Simulated outcomes.
    pub digest: Digest,
    /// Per-layer work counts and ratios measured from the episode.
    pub counts: Counts,
}

impl Episode {
    /// Assemble the record; `lost` counts operations that did not
    /// complete exactly once.
    pub fn new(
        setup_s: f64,
        loop_s: f64,
        ops: u64,
        lost: u64,
        checks: Checks,
        digest: Digest,
        counts: Counts,
    ) -> Episode {
        let failed = lost + checks.failures.len() as u64;
        let mut failures = checks.failures;
        if lost > 0 {
            failures.push(format!(
                "{lost} of {ops} operations did not complete exactly once"
            ));
        }
        Episode {
            setup_s,
            loop_s,
            ops,
            failed,
            failures,
            digest,
            counts,
        }
    }
}

/// Running mean and maximum of a sampled quantity.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampled {
    sum: f64,
    n: u64,
    max: f64,
}

impl Sampled {
    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
        self.max = self.max.max(v);
    }

    /// Mean of the samples (zero when none).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Largest sample (zero when none).
    pub fn max(&self) -> f64 {
        self.max
    }
}
