//! E13 — data-sharing options for the Galaxy pool.
//!
//! The paper shares every dataset over one NFS export (§III.A). Juve et
//! al.'s companion EC2 study showed the sharing choice dominates workflow
//! cost, so this experiment sweeps it: **sharing backend** (NFS, object
//! store, object store + per-worker caches at two capacities) × **reuse
//! factor** (every job a distinct dataset vs many jobs per dataset), all
//! over one fixed job stream so cells are directly comparable.
//!
//! Every cell is one fixed-tick Condor episode (the shared `episode`
//! loop, on a 1-site federation) over the same four-worker pool: jobs
//! arrive on a seeded clock, negotiation runs on the standard 20 s cycle,
//! and each match charges its staging plan (priced by
//! [`cumulus::store::DataPlane`]'s source ladder) before the job starts.
//! Under the cached backend, jobs advertise input [`ContentId`]s and
//! machines advertise cache contents, so the matchmaker's cache-affinity
//! bonus steers repeat consumers back to warm workers. Cells fan out over
//! the parallel replica runner and the report is byte-identical at any
//! thread count.
//!
//! Expected shape, after Juve et al.: the shared filesystem wins at low
//! reuse (no per-request latency, no redundant copies), while caches over
//! an object store win at high reuse — the claim line asserts a ≥ 2×
//! staging-time reduction for the warm-cache cell.

use cumulus::cloud::InstanceType;
use cumulus::federation::{Federation, SiteConfig, WanTopology};
use cumulus::htc::WorkSpec;
use cumulus::provision::json::Json;
use cumulus::simkit::rng::RngStream;
use cumulus::simkit::runner::{run_replicas, ReplicaPlan};
use cumulus::simkit::telemetry::{assemble, JobBreakdown, SpanKind, Telemetry};
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::store::staging::keys as staging_keys;
use cumulus::store::{ContentId, DataSize, InputSpec, SharingBackend};

use crate::experiments::episode::{self, Arrival};
use crate::table::{mins, Table};

/// Workers in the pool (the paper's four-node §V deployment).
const WORKERS: usize = 4;
/// Jobs per episode.
const JOBS: usize = 24;
/// Every dataset in the sweep is this big (the four-CEL batch scale).
const DATASET_MB: u64 = 200;
/// NFS export bandwidth, Mbit/s (the E9 contention model's default).
const NFS_BANDWIDTH_MBPS: f64 = 400.0;
/// The warm-cache claim: staging time must drop at least this much vs
/// the NFS baseline on the high-reuse column.
pub const MIN_STAGING_REDUCTION: f64 = 2.0;

/// The sharing configuration of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    /// Everything over the shared NFS export (the paper's deployment).
    Nfs,
    /// Every input fetched from the object store, no caches.
    Object,
    /// Object store plus per-worker caches of the given capacity.
    Cached(u64),
}

impl BackendSpec {
    /// The data-plane backend this spec selects.
    pub fn backend(self) -> SharingBackend {
        match self {
            BackendSpec::Nfs => SharingBackend::Nfs,
            BackendSpec::Object => SharingBackend::ObjectStore,
            BackendSpec::Cached(_) => SharingBackend::CachedObjectStore,
        }
    }

    /// Per-worker cache capacity (zero disables caching).
    pub fn cache_capacity(self) -> DataSize {
        match self {
            BackendSpec::Cached(mb) => DataSize::from_mb(mb),
            _ => DataSize::ZERO,
        }
    }

    /// Render the backend column.
    pub fn label(self) -> String {
        match self {
            BackendSpec::Nfs => "nfs".to_string(),
            BackendSpec::Object => "s3".to_string(),
            BackendSpec::Cached(mb) => format!("s3+cache {mb}MB"),
        }
    }
}

/// How many jobs consume each dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// Every job reads a distinct dataset (reuse factor 1).
    Low,
    /// Eight jobs share each dataset (reuse factor 8).
    High,
}

impl Reuse {
    /// Distinct datasets in the episode.
    pub fn dataset_count(self) -> usize {
        match self {
            Reuse::Low => JOBS,
            Reuse::High => JOBS / 8,
        }
    }

    /// Render the reuse column.
    pub fn label(self) -> &'static str {
        match self {
            Reuse::Low => "low (x1)",
            Reuse::High => "high (x8)",
        }
    }
}

/// The measured episode of one grid cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Jobs completed (always the full stream).
    pub jobs: usize,
    /// Submission of the first job to completion of the last, minutes.
    pub makespan_mins: f64,
    /// Total staging time charged across all jobs, seconds.
    pub staging_secs: f64,
    /// Bytes served by each rung of the source ladder.
    pub bytes_local: u64,
    /// Bytes copied from peer workers.
    pub bytes_peer: u64,
    /// Bytes fetched from the object store.
    pub bytes_object: u64,
    /// Bytes staged through the NFS export.
    pub bytes_nfs: u64,
    /// Bytes ingested over GridFTP.
    pub bytes_ingest: u64,
    /// Object-store request charges, dollars.
    pub object_cost_usd: f64,
    /// Cache lookups that hit.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
}

impl CellReport {
    /// Bytes that crossed the network (everything but local cache hits).
    pub fn network_bytes(&self) -> u64 {
        self.bytes_peer + self.bytes_object + self.bytes_nfs + self.bytes_ingest
    }

    /// Cache hit rate over all lookups; zero when caching is off.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One cell of the grid: its configuration plus the measured episode.
#[derive(Debug, Clone)]
pub struct DatashareRow {
    /// The sharing backend the cell ran.
    pub spec: BackendSpec,
    /// The reuse factor it ran under.
    pub reuse: Reuse,
    /// The measured episode.
    pub report: CellReport,
}

/// The grid's combos in report order: every backend under every reuse
/// level, NFS first so the baseline leads the table. `quick` trims to the
/// CI smoke shape — the two cells the ≥ 2× claim compares.
pub fn grid_combos(quick: bool) -> Vec<(BackendSpec, Reuse)> {
    let backends: &[BackendSpec] = if quick {
        &[BackendSpec::Nfs, BackendSpec::Cached(2048)]
    } else {
        &[
            BackendSpec::Nfs,
            BackendSpec::Object,
            BackendSpec::Cached(250),
            BackendSpec::Cached(2048),
        ]
    };
    let reuses: &[Reuse] = if quick {
        &[Reuse::High]
    } else {
        &[Reuse::Low, Reuse::High]
    };
    let mut combos = Vec::new();
    for &b in backends {
        for &r in reuses {
            combos.push((b, r));
        }
    }
    combos
}

/// The content id of dataset `idx` — a stable name, so every cell of the
/// sweep sees the same contents.
fn dataset_cid(idx: usize) -> ContentId {
    ContentId::of_str(&format!("e13-dataset-{idx}"))
}

/// The job stream every cell replays: arrivals on a seeded clock
/// (10–50 s gaps), 90–150 s of serial work, datasets assigned round-robin
/// so reuse is spread across the episode. Derived from the master seed
/// directly — **not** the per-replica seed — so all cells compare the
/// same workload.
fn job_stream(seed: u64, reuse: Reuse) -> Vec<Arrival> {
    let mut arrivals = RngStream::derive(seed, "e13-arrivals");
    let mut work = RngStream::derive(seed, "e13-work");
    let datasets = reuse.dataset_count();
    let mut at = SimTime::ZERO;
    (0..JOBS)
        .map(|j| {
            at += SimDuration::from_secs_f64(arrivals.uniform_range(10.0, 50.0));
            Arrival {
                at,
                user: "galaxy".to_string(),
                work: WorkSpec::serial(90.0 + work.uniform_range(0.0, 60.0)),
                input: InputSpec {
                    cid: dataset_cid(j % datasets),
                    size: DataSize::from_mb(DATASET_MB),
                },
            }
        })
        .collect()
}

/// Run one grid cell: a fixed-tick Condor episode over the fixed job
/// stream with staging charged through the cell's data plane.
pub fn run_cell(seed: u64, spec: BackendSpec, reuse: Reuse) -> CellReport {
    run_cell_on(seed, spec, reuse, Telemetry::disabled())
}

/// [`run_cell`] with a caller-supplied telemetry handle; the pool's job
/// lifecycle spans land on it (nothing is recorded through a disabled
/// handle, so `run_cell` itself stays allocation-free).
///
/// The cell is a 1-site federation with the cell's backend: the
/// cross-site rung never resolves, so staging is the bare data plane's.
pub fn run_cell_on(seed: u64, spec: BackendSpec, reuse: Reuse, telemetry: Telemetry) -> CellReport {
    let mut config = SiteConfig::new("e13", WORKERS, InstanceType::M1Small)
        .with_backend(spec.backend())
        .with_cache_capacity(spec.cache_capacity());
    config.nfs_bandwidth_mbps = NFS_BANDWIDTH_MBPS;
    let mut fed = Federation::provision(vec![config], WanTopology::new(), SimTime::ZERO);
    fed.set_telemetry(telemetry);
    for idx in 0..reuse.dataset_count() {
        fed.seed_dataset(0, dataset_cid(idx), DataSize::from_mb(DATASET_MB));
    }

    struct Solo;
    impl episode::Hooks for Solo {}
    let stream = job_stream(seed, reuse);
    let staging = episode::run(&mut fed, &stream, &mut Solo)
        .unwrap_or_else(|stuck| panic!("E13 cell {}: {stuck}", spec.label()));

    let makespan = fed
        .last_completion_at()
        .expect("episode completed jobs")
        .since(SimTime::ZERO);
    let site = fed.site(0);
    let metrics = &site.metrics;
    let (cache_hits, cache_misses, _evictions) = site.plane.fleet.totals();
    CellReport {
        jobs: stream.len(),
        makespan_mins: makespan.as_mins_f64(),
        staging_secs: staging.as_secs_f64(),
        bytes_local: metrics.counter(staging_keys::BYTES_LOCAL),
        bytes_peer: metrics.counter(staging_keys::BYTES_PEER),
        bytes_object: metrics.counter(staging_keys::BYTES_OBJECT),
        bytes_nfs: metrics.counter(staging_keys::BYTES_NFS),
        bytes_ingest: metrics.counter(staging_keys::BYTES_INGEST),
        object_cost_usd: site.plane.object.cost_usd(),
        cache_hits,
        cache_misses,
    }
}

/// Run the grid, fanned out over the replica runner (`threads` as
/// everywhere: `0` = one per CPU, `1` = serial). Rows come back in combo
/// order at any thread count.
pub fn run_grid(seed: u64, threads: usize, quick: bool) -> Vec<DatashareRow> {
    let combos = grid_combos(quick);
    let reports = run_replicas(
        ReplicaPlan::new(seed, combos.len()).with_threads(threads),
        |i, _seeds| {
            let (spec, reuse) = combos[i];
            run_cell(seed, spec, reuse)
        },
    );
    combos
        .into_iter()
        .zip(reports)
        .map(|((spec, reuse), report)| DatashareRow {
            spec,
            reuse,
            report,
        })
        .collect()
}

/// [`run_grid`] with job-lifecycle telemetry enabled per cell: each row
/// comes back with the cell's event stream, ready for span assembly. Used
/// by the `--report` path of the E13 binary; the plain grid never records.
pub fn run_grid_instrumented(
    seed: u64,
    threads: usize,
    quick: bool,
) -> Vec<(DatashareRow, Telemetry)> {
    let combos = grid_combos(quick);
    let cells = run_replicas(
        ReplicaPlan::new(seed, combos.len()).with_threads(threads),
        |i, _seeds| {
            let (spec, reuse) = combos[i];
            let telemetry = Telemetry::enabled();
            let report = run_cell_on(seed, spec, reuse, telemetry.clone());
            (report, telemetry)
        },
    );
    combos
        .into_iter()
        .zip(cells)
        .map(|((spec, reuse), (report, telemetry))| {
            (
                DatashareRow {
                    spec,
                    reuse,
                    report,
                },
                telemetry,
            )
        })
        .collect()
}

/// The E13 episode report: per cell, every job's walltime decomposed into
/// queue-wait, disruption-repair, staging, and compute from its assembled
/// lifecycle span. The decomposition identity (components sum to the
/// job's walltime) and the makespan cross-check (latest span close equals
/// the cell table's makespan) are asserted, not just printed, and the
/// trailing digest line makes thread-invariance checkable by string
/// comparison alone.
pub fn episode_report(rows: &[(DatashareRow, Telemetry)]) -> String {
    let mut out = String::new();
    out.push_str(
        "E13 episode report — per-job walltime decomposition
",
    );
    let mut combined: u64 = 0;
    for (row, telemetry) in rows {
        let spans = assemble(&telemetry.events()).expect("E13 episode spans are well-formed");
        let mut jobs: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Job).collect();
        jobs.sort_by_key(|s| s.id);
        out.push_str(&format!(
            "
cell: {} / {}
{:>4}  {:>9}  {:>9}  {:>10}  {:>10}  {:>11}
",
            row.spec.label(),
            row.reuse.label(),
            "job",
            "queue(s)",
            "repair(s)",
            "staging(s)",
            "compute(s)",
            "walltime(s)",
        ));
        let mut latest_close = SimTime::ZERO;
        for span in &jobs {
            let bd = JobBreakdown::of(span).expect("every E13 job runs");
            assert_eq!(
                bd.total(),
                span.duration(),
                "job {} breakdown must sum to its walltime",
                span.id
            );
            latest_close = latest_close.max(span.closed_at);
            out.push_str(&format!(
                "{:>4}  {:>9.1}  {:>9.1}  {:>10.1}  {:>10.1}  {:>11.1}
",
                span.id,
                bd.queue.as_secs_f64(),
                bd.repair.as_secs_f64(),
                bd.staging.as_secs_f64(),
                bd.compute.as_secs_f64(),
                span.duration().as_secs_f64(),
            ));
        }
        let span_makespan = latest_close.since(SimTime::ZERO).as_mins_f64();
        assert_eq!(
            mins(span_makespan),
            mins(row.report.makespan_mins),
            "span-derived makespan must match the grid table"
        );
        out.push_str(&format!(
            "{} jobs; every breakdown sums to its walltime; span makespan {} min matches the table\n",
            jobs.len(),
            mins(span_makespan),
        ));
        combined = combined.rotate_left(1).wrapping_add(telemetry.digest());
    }
    out.push_str(&format!(
        "
telemetry digest {combined:#018x}
"
    ));
    out
}

/// The grid cell matching `spec` × `reuse`.
fn cell(rows: &[DatashareRow], spec: BackendSpec, reuse: Reuse) -> &DatashareRow {
    rows.iter()
        .find(|r| r.spec == spec && r.reuse == reuse)
        .expect("the grid contains the claim cells")
}

/// The experiment's claim: how much the biggest warm cache cuts total
/// staging time vs the NFS baseline on the high-reuse column. Must be at
/// least [`MIN_STAGING_REDUCTION`].
pub fn staging_reduction(rows: &[DatashareRow]) -> f64 {
    let nfs = cell(rows, BackendSpec::Nfs, Reuse::High);
    let cached = cell(rows, BackendSpec::Cached(2048), Reuse::High);
    nfs.report.staging_secs / cached.report.staging_secs
}

/// Render the E13 table plus the claim line.
pub fn render(rows: &[DatashareRow]) -> String {
    let mut t = Table::new(
        "E13 — data-sharing options (4 workers, 24 jobs, 200 MB datasets)",
        &[
            "backend",
            "reuse",
            "makespan (min)",
            "staging (s)",
            "net (MB)",
            "hit rate",
            "S3 cost ($)",
        ],
    );
    for r in rows {
        t.row(&[
            r.spec.label(),
            r.reuse.label().to_string(),
            mins(r.report.makespan_mins),
            format!("{:.1}", r.report.staging_secs),
            format!("{:.0}", r.report.network_bytes() as f64 / 1e6),
            format!("{:.0}%", r.report.hit_rate() * 100.0),
            format!("{:.6}", r.report.object_cost_usd),
        ]);
    }
    let nfs = cell(rows, BackendSpec::Nfs, Reuse::High);
    let cached = cell(rows, BackendSpec::Cached(2048), Reuse::High);
    format!(
        "{}\nhigh reuse: worker caches over the object store cut staging {:.1} s -> \
         {:.1} s ({:.1}x) vs the shared filesystem — repeat consumers hit warm \
         nodes (the matchmaker's cache-affinity bonus) or take a fast peer copy. \
         At low reuse every byte is cold, so the per-request object-store \
         latency loses to plain NFS, matching Juve et al.'s EC2 study.\n",
        t.render(),
        nfs.report.staging_secs,
        cached.report.staging_secs,
        staging_reduction(rows),
    )
}

/// The machine-readable grid for `BENCH_e13.json`. Contains only
/// seed-deterministic quantities (never wall times), so the file is
/// byte-identical at any thread count — the property the CI smoke run
/// asserts.
pub fn json_doc(seed: u64, rows: &[DatashareRow]) -> Json {
    let cells: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("backend", Json::str(&r.spec.label())),
                (
                    "cache_mb",
                    match r.spec {
                        BackendSpec::Cached(mb) => Json::Num(mb as f64),
                        _ => Json::Null,
                    },
                ),
                ("reuse", Json::str(r.reuse.label())),
                ("jobs", Json::Num(r.report.jobs as f64)),
                ("makespan_mins", Json::Num(round4(r.report.makespan_mins))),
                ("staging_secs", Json::Num(round4(r.report.staging_secs))),
                ("bytes_local", Json::Num(r.report.bytes_local as f64)),
                ("bytes_peer", Json::Num(r.report.bytes_peer as f64)),
                ("bytes_object", Json::Num(r.report.bytes_object as f64)),
                ("bytes_nfs", Json::Num(r.report.bytes_nfs as f64)),
                ("bytes_ingest", Json::Num(r.report.bytes_ingest as f64)),
                (
                    "object_cost_usd",
                    Json::Num(round4(r.report.object_cost_usd * 1e4) / 1e4),
                ),
                ("cache_hit_rate", Json::Num(round4(r.report.hit_rate()))),
            ])
        })
        .collect();
    Json::obj([
        ("bench", Json::str("e13_datashare_grid")),
        ("seed", Json::Num(seed as f64)),
        ("workers", Json::Num(WORKERS as f64)),
        ("jobs", Json::Num(JOBS as f64)),
        ("dataset_mb", Json::Num(DATASET_MB as f64)),
        ("rows", Json::Arr(cells)),
        (
            "staging_reduction_factor",
            Json::Num(round4(staging_reduction(rows))),
        ),
    ])
}

fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        let full = grid_combos(false);
        assert_eq!(full.len(), 8);
        assert_eq!(full[0], (BackendSpec::Nfs, Reuse::Low));
        let quick = grid_combos(true);
        assert_eq!(quick.len(), 2);
        assert!(quick.contains(&(BackendSpec::Nfs, Reuse::High)));
        assert!(quick.contains(&(BackendSpec::Cached(2048), Reuse::High)));
    }

    #[test]
    fn quick_grid_is_thread_count_invariant_and_meets_the_claim() {
        let seed = crate::REPORT_SEED;
        let serial = run_grid(seed, 1, true);
        let parallel = run_grid(seed, 3, true);
        assert_eq!(render(&serial), render(&parallel));
        assert_eq!(
            json_doc(seed, &serial).render(),
            json_doc(seed, &parallel).render()
        );
        assert!(
            staging_reduction(&serial) >= MIN_STAGING_REDUCTION,
            "warm caches must cut staging at least {MIN_STAGING_REDUCTION}x, got {:.2}",
            staging_reduction(&serial)
        );
    }

    #[test]
    fn every_cell_completes_the_whole_stream() {
        let rows = run_grid(4242, 0, false);
        assert!(rows.iter().all(|r| r.report.jobs == JOBS));
        // The NFS backend never touches the object store; the object
        // backends never touch the export.
        for r in &rows {
            match r.spec {
                BackendSpec::Nfs => {
                    assert_eq!(r.report.bytes_object, 0);
                    assert!(r.report.bytes_nfs > 0);
                    assert_eq!(r.report.object_cost_usd, 0.0);
                }
                _ => {
                    assert_eq!(r.report.bytes_nfs, 0);
                    assert!(r.report.object_cost_usd > 0.0);
                }
            }
        }
    }

    #[test]
    fn reuse_shape_matches_juve() {
        let rows = run_grid(crate::REPORT_SEED, 0, false);
        // Low reuse: NFS stages faster than the plain object store (every
        // byte cold, so per-request latency + thinner pipe loses).
        let nfs_low = cell(&rows, BackendSpec::Nfs, Reuse::Low);
        let s3_low = cell(&rows, BackendSpec::Object, Reuse::Low);
        assert!(nfs_low.report.staging_secs < s3_low.report.staging_secs);
        // High reuse: the big warm cache beats both, and caching strictly
        // helps over the uncached object store.
        let cached_high = cell(&rows, BackendSpec::Cached(2048), Reuse::High);
        let small_high = cell(&rows, BackendSpec::Cached(250), Reuse::High);
        let s3_high = cell(&rows, BackendSpec::Object, Reuse::High);
        assert!(cached_high.report.staging_secs < s3_high.report.staging_secs);
        assert!(cached_high.report.hit_rate() > 0.0);
        // Warm cells move fewer bytes over the network.
        assert!(cached_high.report.network_bytes() < s3_high.report.network_bytes());
        // Capacity matters: a cache that can't hold the working set
        // evicts and re-fetches, landing between uncached and roomy.
        assert!(small_high.report.staging_secs < s3_high.report.staging_secs);
        assert!(cached_high.report.staging_secs < small_high.report.staging_secs);
        assert!(cached_high.report.hit_rate() > small_high.report.hit_rate());
    }

    #[test]
    fn episode_report_is_thread_count_invariant_and_decomposes_every_job() {
        let seed = crate::REPORT_SEED;
        let serial = run_grid_instrumented(seed, 1, true);
        let parallel = run_grid_instrumented(seed, 3, true);
        // episode_report asserts the decomposition identity and the
        // makespan cross-check internally; equality (digest line
        // included) is the thread-invariance gate.
        let report = episode_report(&serial);
        assert_eq!(report, episode_report(&parallel));
        assert!(report.contains("telemetry digest 0x"));
        for (row, _) in &serial {
            assert!(report.contains(&format!(
                "cell: {} / {}",
                row.spec.label(),
                row.reuse.label()
            )));
        }
    }

    #[test]
    fn report_renders_with_the_claim_line() {
        let rows = run_grid(7513, 0, true);
        let out = render(&rows);
        assert!(out.contains("E13"));
        assert!(out.contains("high reuse"));
    }
}
