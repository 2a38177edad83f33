//! `datashare`: the E13 data-sharing shape, scaled up.
//!
//! One site, a fixed pool of identical workers and no autoscaler. Inputs
//! live in a cached object store whose per-worker LRU caches hold a
//! handful of the seeded datasets; most jobs read from a hot set, the
//! rest from the whole catalog, so local hits, peer copies, object GETs
//! and evictions all occur. Arrivals run just under the pool's service
//! rate. Jobs advertise their input content id, each matched machine
//! re-advertises its cache, job telemetry is on, and the episode ends with
//! the E13 episode report (spans assembled, one `JobBreakdown` per job).
//! Matchmaking and read-side staging do most of the work; there is no
//! WAN, scaler, DES engine or Galaxy server.

use std::time::Instant;

use cumulus::htc::{
    CondorPool, Job, Machine, Value, WorkSpec, JOB_INPUT_CIDS_ATTR, NEGOTIATION_INTERVAL,
};
use cumulus::simkit::metrics::Metrics;
use cumulus::simkit::telemetry::{assemble, JobBreakdown, SpanKind, Telemetry};
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::store::{
    ContentId, DataPlane, DataSize, EvictionPolicy, InputSpec, ObjectStoreConfig, SharingBackend,
};

use crate::common::{wait_p95_min, Checks, Completions, Counts, Digest, Episode, Gen, Tally};
use crate::trace::{self, Layer};

/// Every dataset is this big (the E13 scale).
const DATASET_MB: u64 = 200;
/// NFS export bandwidth, Mbit/s (unused by the cached ladder, but every
/// deployment has the export).
const NFS_BANDWIDTH_MBPS: f64 = 400.0;
/// Serial work per job, seconds: uniform in this range.
const WORK_SECS: (f64, f64) = (90.0, 150.0);
/// Host-independent estimate of how long a job holds a slot: mean work,
/// staging, and half a negotiation cycle before the slot is re-matched.
const SLOT_SECS: f64 = 135.0;
/// Share of jobs that read from the hot set.
const HOT_SHARE: f64 = 0.8;
/// Arrival rate as a share of the pool's service rate.
const LOAD: f64 = 0.95;

/// The size of one episode.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workers in the fixed pool.
    pub workers: usize,
    /// Datasets seeded in the object store.
    pub datasets: usize,
    /// Datasets in the hot set (a prefix of the catalog).
    pub hot: usize,
    /// Datasets one worker cache holds.
    pub cache_datasets: u64,
    /// Jobs in the episode.
    pub jobs: usize,
}

impl Shape {
    /// The measured shape.
    pub const FULL: Shape = Shape {
        workers: 128,
        datasets: 1000,
        hot: 40,
        cache_datasets: 10,
        jobs: 300_000,
    };

    /// The smoke-test shape.
    pub const TINY: Shape = Shape {
        workers: 8,
        datasets: 40,
        hot: 6,
        cache_datasets: 3,
        jobs: 400,
    };
}

/// One job of the generated stream.
struct StreamJob {
    submit_at: SimTime,
    work_secs: f64,
    dataset: usize,
}

/// The open-loop job stream of `seed`: arrivals on a seeded clock that
/// ignores progress, uniform gaps averaging just under the pool's service
/// rate, hot-set or catalog-wide dataset picks.
fn job_stream(seed: u64, shape: &Shape) -> Vec<StreamJob> {
    let mut arrivals = Gen::new(seed, "datashare/arrivals");
    let mut work = Gen::new(seed, "datashare/work");
    let mut picks = Gen::new(seed, "datashare/datasets");
    let mean_gap = SLOT_SECS / (shape.workers as f64 * LOAD);
    let mut at = SimTime::ZERO;
    (0..shape.jobs)
        .map(|_| {
            at += SimDuration::from_secs_f64(arrivals.uniform(0.0, 2.0 * mean_gap));
            let dataset = if picks.unit() < HOT_SHARE {
                picks.below(shape.hot)
            } else {
                picks.below(shape.datasets)
            };
            StreamJob {
                submit_at: at,
                work_secs: work.uniform(WORK_SECS.0, WORK_SECS.1),
                dataset,
            }
        })
        .collect()
}

/// Run one episode of `shape` on the inputs of `seed`.
pub fn run(seed: u64, shape: &Shape) -> Episode {
    let started = Instant::now();
    let stream = job_stream(seed, shape);
    let cids: Vec<ContentId> = (0..shape.datasets)
        .map(|i| ContentId::of_str(&format!("datashare-{i}")))
        .collect();
    let cid_ads: Vec<String> = cids.iter().map(ContentId::hex).collect();
    let size = DataSize::from_mb(DATASET_MB);
    let telemetry = Telemetry::enabled();
    let metrics = Metrics::new();
    let (mut plane, mut pool) = trace::time(Layer::ProvisionDeploy, || {
        let mut plane = DataPlane::new(
            SharingBackend::CachedObjectStore,
            NFS_BANDWIDTH_MBPS,
            ObjectStoreConfig::default(),
            DataSize::from_mb(DATASET_MB * shape.cache_datasets),
            EvictionPolicy::Lru,
        );
        plane.set_metrics(metrics.clone());
        for &cid in &cids {
            plane.seed_dataset(cid, size);
        }
        let mut pool = CondorPool::new();
        pool.set_telemetry(telemetry.clone());
        for w in 0..shape.workers {
            pool.add_machine(Machine::new(&format!("worker-{w}"), 5.0, 1700, 1))
                .expect("worker names are distinct");
        }
        (plane, pool)
    });
    let setup_s = started.elapsed().as_secs_f64();

    let loop_started = Instant::now();
    let mut checks = Checks::default();
    let mut done = Completions::default();
    let mut tally = Tally::default();
    let mut now = SimTime::ZERO;
    let mut submitted = 0;
    let mut completed = 0;
    // Open loop: the stream ends by the last arrival, so a pool that is
    // still busy a week of simulated time later has stalled.
    let deadline =
        stream.last().map_or(SimTime::ZERO, |j| j.submit_at) + SimDuration::from_hours(24 * 7);
    while completed < stream.len() && now <= deadline {
        for id in trace::time(Layer::HtcSettle, || pool.settle(now)) {
            done.completed(id.0 as usize - 1);
            completed += 1;
        }

        while submitted < stream.len() && stream[submitted].submit_at <= now {
            let job = &stream[submitted];
            let builder = Job::new("galaxy", WorkSpec::serial(job.work_secs)).attr(
                JOB_INPUT_CIDS_ATTR,
                Value::Str(cid_ads[job.dataset].clone()),
            );
            let id = trace::time(Layer::HtcSubmit, || pool.submit(builder, now));
            // Pool ids count up from 1, so a job's id names its stream slot.
            let idx = done.submitted();
            checks.check(id.0 as usize == idx + 1, || {
                format!("job id {} for stream slot {idx}", id.0)
            });
            submitted += 1;
        }

        let matches = trace::time(Layer::HtcNegotiate, || pool.negotiate(now));
        tally.cycle(matches.len());
        let concurrent = matches.len() as u32;
        for m in &matches {
            let input = InputSpec {
                cid: cids[stream[m.job.0 as usize - 1].dataset],
                size,
            };
            let plan = trace::time(Layer::StoreStageJob, || {
                plane.stage_job(&m.machine.0, &[input], concurrent)
            });
            tally.serve(&mut pool, &plane.fleet, m, size, &plan);
        }
        tally.idle_depth.push(pool.idle_count() as f64);

        now += NEGOTIATION_INTERVAL;
    }

    // The E13 episode report: every job's walltime decomposed into queue,
    // repair, staging and compute from its assembled lifecycle span. It is
    // part of the episode, so the loop's host time includes it.
    let mut parts = [0u64; 4];
    let mut latest_close = SimTime::ZERO;
    let mut job_spans = 0u64;
    trace::time(Layer::TelemetryReport, || {
        match assemble(&telemetry.events()) {
            Ok(spans) => {
                for span in spans.iter().filter(|s| s.kind == SpanKind::Job) {
                    job_spans += 1;
                    latest_close = latest_close.max(span.closed_at);
                    let Some(bd) = JobBreakdown::of(span) else {
                        checks.check(false, || format!("job span {} never ran", span.id));
                        continue;
                    };
                    checks.check(bd.total() == span.duration(), || {
                        format!("job {} breakdown does not sum to its walltime", span.id)
                    });
                    for (sum, d) in parts
                        .iter_mut()
                        .zip([bd.queue, bd.repair, bd.staging, bd.compute])
                    {
                        *sum += d.as_micros();
                    }
                }
            }
            Err(e) => checks.check(false, || format!("span assembly failed: {e:?}")),
        }
    });
    let telemetry_digest = trace::time(Layer::TelemetryDigest, || telemetry.digest());
    let loop_s = loop_started.elapsed().as_secs_f64();

    let makespan = pool.last_completion_at().unwrap_or(SimTime::ZERO);
    checks.check(job_spans == stream.len() as u64, || {
        format!("{job_spans} job spans for {} jobs", stream.len())
    });
    checks.check(latest_close == makespan, || {
        format!("span makespan {latest_close} != pool makespan {makespan}")
    });

    let mut digest = Digest::default();
    let mut counts = Counts::new();
    digest.add("jobs", completed);
    digest.add("makespan_us", makespan.as_micros());
    digest.add("staging_us", tally.staging.as_micros());
    let cache = tally.store_outcomes(
        |key| metrics.counter(key),
        &mut checks,
        &mut digest,
        &mut counts,
    );
    digest.add_f64("object_usd", plane.object.cost_usd());
    digest.add("cache", cache);
    digest.add("breakdown_us", format!("{parts:?}"));
    digest.add("events", telemetry.len());
    digest.add("telemetry", format!("{telemetry_digest:#018x}"));

    tally.htc_counts(&mut counts);
    if trace::enabled() {
        counts.insert("htc.wait_p95_min", wait_p95_min(pool.completed_waits()));
    }
    counts.insert("telemetry.events", telemetry.len() as f64);

    let lost = done.not_exactly_once() + (stream.len() - submitted) as u64;
    Episode::new(
        setup_s,
        loop_s,
        stream.len() as u64,
        lost,
        checks,
        digest,
        counts,
    )
}
