//! `federation-backlog`: the E15 federation shape, scaled up.
//!
//! Three catalog sites on a 50 Mbit/s WAN with queue-depth placement.
//! Each user moves to a fresh dataset every few invocations, and fresh
//! datasets are seeded at a random home site, so cross-site pulls,
//! replication PUTs and cache admissions (store writes) continue all
//! episode. Every site runs a capped, scale-to-zero `QueueStep` scaler
//! over per-worker billing segments. Arrivals alternate between peaks
//! above the federation's total worker cap and troughs that drain it, so
//! queues reach thousands of jobs. This is the only WAN load, and the only
//! place the autoscale signal runs over deep queues.

use std::time::Instant;

use cumulus::autoscale::policy::QueueStep;
use cumulus::cloud::{BillingMode, InstanceType};
use cumulus::federation::{
    Federation, PlacementPolicy, Placer, SiteConfig, SiteScaler, WanLink, WanTopology,
};
use cumulus::galaxy::routing::InvocationRequest;
use cumulus::htc::{Job, Value, WorkSpec, JOB_INPUT_CIDS_ATTR, NEGOTIATION_INTERVAL};
use cumulus::simkit::telemetry::wan as wan_keys;
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::store::{ContentId, DataSize, InputSpec};

use crate::common::{wait_p95_min, Checks, Completions, Counts, Digest, Episode, Gen, Tally};
use crate::trace::{self, Layer};

/// The site catalog of E15, cheapest first.
const CATALOG: [(&str, InstanceType); 3] = [
    ("us-east", InstanceType::M1Small),
    ("us-west", InstanceType::C1Medium),
    ("eu-west", InstanceType::M1Large),
];
/// Every dataset is this big.
const DATASET_MB: u64 = 200;
/// One-way WAN latency between any site pair, milliseconds.
const WAN_LATENCY_MS: f64 = 40.0;
/// WAN bandwidth between any site pair, Mbit/s (E15's thin link).
const WAN_MBPS: f64 = 50.0;
/// Serial work per invocation, seconds: uniform in this range.
const WORK_SECS: (f64, f64) = (90.0, 150.0);
/// Estimate of how long an invocation holds a worker (see `datashare`).
const SLOT_SECS: f64 = 135.0;
/// Queued jobs each worker is sized for by the site scalers.
const JOBS_PER_WORKER: usize = 2;
/// Signal-window length of the site scalers, in ticks.
const SCALER_WINDOW: usize = 3;
/// Arrival rate in a peak, as a share of the federation's capacity.
const PEAK_LOAD: f64 = 2.5;
/// Arrival rate in a trough, as a share of the federation's capacity.
const TROUGH_LOAD: f64 = 0.1;

/// The size of one episode.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Users submitting invocations (round-robin).
    pub users: usize,
    /// Invocations in the episode.
    pub invocations: usize,
    /// Invocations a user runs on one dataset before moving to a fresh one.
    pub switch_every: usize,
    /// Workers each site provisions at the start.
    pub site_workers: usize,
    /// Worker cap of each site's scaler.
    pub max_workers: usize,
    /// Length of a peak, simulated seconds.
    pub peak_secs: f64,
    /// Length of a trough, simulated seconds.
    pub trough_secs: f64,
}

impl Shape {
    /// The measured shape.
    pub const FULL: Shape = Shape {
        users: 24,
        invocations: 100_000,
        switch_every: 4,
        site_workers: 4,
        max_workers: 16,
        peak_secs: 5400.0,
        trough_secs: 10_800.0,
    };

    /// The smoke-test shape.
    pub const TINY: Shape = Shape {
        users: 4,
        invocations: 300,
        switch_every: 3,
        site_workers: 1,
        max_workers: 3,
        peak_secs: 1800.0,
        trough_secs: 3600.0,
    };
}

/// One invocation of the generated stream.
struct Invocation {
    submit_at: SimTime,
    user: usize,
    work_secs: f64,
    dataset: usize,
}

/// The generated inputs: the invocation stream and each dataset's home
/// site.
struct Inputs {
    stream: Vec<Invocation>,
    homes: Vec<usize>,
}

/// The open-loop stream of `seed`: exponential gaps at the current
/// phase's rate, users round-robin, each user on a fresh dataset every
/// `switch_every` invocations.
fn inputs(seed: u64, shape: &Shape) -> Inputs {
    let mut arrivals = Gen::new(seed, "federation/arrivals");
    let mut work = Gen::new(seed, "federation/work");
    let mut placement = Gen::new(seed, "federation/homes");
    let capacity = (CATALOG.len() * shape.max_workers) as f64 / SLOT_SECS;
    let period = shape.peak_secs + shape.trough_secs;
    let mut current = vec![(0usize, shape.switch_every); shape.users];
    let mut homes = Vec::new();
    let mut at = 0.0;
    let stream = (0..shape.invocations)
        .map(|j| {
            let load = if at % period < shape.peak_secs {
                PEAK_LOAD
            } else {
                TROUGH_LOAD
            };
            at += arrivals.exp(1.0 / (capacity * load));
            let user = j % shape.users;
            let (dataset, uses) = &mut current[user];
            if *uses == shape.switch_every {
                *dataset = homes.len();
                *uses = 0;
                homes.push(placement.below(CATALOG.len()));
            }
            *uses += 1;
            Invocation {
                submit_at: SimTime::ZERO + SimDuration::from_secs_f64(at),
                user,
                work_secs: work.uniform(WORK_SECS.0, WORK_SECS.1),
                dataset: *dataset,
            }
        })
        .collect();
    Inputs { stream, homes }
}

/// Run one episode of `shape` on the inputs of `seed`.
pub fn run(seed: u64, shape: &Shape) -> Episode {
    let started = Instant::now();
    let Inputs { stream, homes } = inputs(seed, shape);
    let size = DataSize::from_mb(DATASET_MB);
    let cids: Vec<ContentId> = (0..homes.len())
        .map(|i| ContentId::of_str(&format!("federation-{i}")))
        .collect();
    let cid_ads: Vec<String> = cids.iter().map(ContentId::hex).collect();
    let users: Vec<String> = (0..shape.users).map(|u| format!("user-{u}")).collect();
    let sites = CATALOG.len();
    let mut fed = trace::time(Layer::ProvisionDeploy, || {
        let configs = CATALOG
            .iter()
            .map(|&(name, itype)| SiteConfig::new(name, shape.site_workers, itype))
            .collect();
        let wan = WanTopology::full_mesh(WanLink::new(WAN_LATENCY_MS, WAN_MBPS));
        let mut fed = Federation::provision(configs, wan, SimTime::ZERO);
        for (&cid, &home) in cids.iter().zip(&homes) {
            fed.seed_dataset(home, cid, size);
        }
        fed
    });
    let mut placer = Placer::new(PlacementPolicy::QueueDepth);
    let mut scalers: Vec<SiteScaler> = (0..sites)
        .map(|_| {
            SiteScaler::new(
                Box::new(QueueStep::new(JOBS_PER_WORKER)),
                SCALER_WINDOW,
                0,
                shape.max_workers,
            )
        })
        .collect();
    let setup_s = started.elapsed().as_secs_f64();

    let loop_started = Instant::now();
    let mut checks = Checks::default();
    let mut done = Completions::default();
    let mut tally = Tally::default();
    // Per site, the stream slot of each pool job id (ids count up from 1).
    let mut slot_of: Vec<Vec<usize>> = vec![Vec::new(); sites];
    let mut placements = vec![0u64; sites];
    let mut now = SimTime::ZERO;
    let mut submitted = 0;
    let mut completed = 0;
    let mut ticks = 0u64;
    let mut actuations = 0u64;
    let mut holds = 0u64;
    let mut peak_workers = 0usize;
    let deadline =
        stream.last().map_or(SimTime::ZERO, |j| j.submit_at) + SimDuration::from_hours(24 * 7);
    while completed < stream.len() && now <= deadline {
        for (s, slots) in slot_of.iter().enumerate() {
            for id in trace::time(Layer::HtcSettle, || fed.site_mut(s).pool.settle(now)) {
                done.completed(slots[id.0 as usize - 1]);
                completed += 1;
            }
        }

        while submitted < stream.len() && stream[submitted].submit_at <= now {
            let inv = &stream[submitted];
            let request = InvocationRequest {
                id: submitted as u64,
                user: users[inv.user].clone(),
                workflow: "rna-seq".to_string(),
                inputs: vec![InputSpec {
                    cid: cids[inv.dataset],
                    size,
                }],
            };
            let site = trace::time(Layer::FederationRoute, || fed.route(&mut placer, &request));
            let builder = Job::new(&request.user, WorkSpec::serial(inv.work_secs)).attr(
                JOB_INPUT_CIDS_ATTR,
                Value::Str(cid_ads[inv.dataset].clone()),
            );
            let id = trace::time(Layer::HtcSubmit, || {
                fed.site_mut(site).pool.submit(builder, now)
            });
            slot_of[site].push(done.submitted());
            checks.check(id.0 as usize == slot_of[site].len(), || {
                format!("site {site} job id {} out of sequence", id.0)
            });
            placements[site] += 1;
            submitted += 1;
        }

        for (s, slots) in slot_of.iter().enumerate() {
            let matches = trace::time(Layer::HtcNegotiate, || fed.site_mut(s).pool.negotiate(now));
            tally.cycle(matches.len());
            let concurrent = matches.len() as u32;
            for m in &matches {
                let input = InputSpec {
                    cid: cids[stream[slots[m.job.0 as usize - 1]].dataset],
                    size,
                };
                let plan = trace::time(Layer::FederationStageJob, || {
                    fed.stage_job(s, &m.machine.0, &[input], concurrent, now)
                });
                let site = fed.site_mut(s);
                tally.serve(&mut site.pool, &site.plane.fleet, m, size, &plan);
            }
        }

        let mut idle = 0;
        for (s, scaler) in scalers.iter_mut().enumerate() {
            let site = fed.site_mut(s);
            let workers = site.worker_count();
            let desired = trace::time(Layer::AutoscaleDesired, || {
                scaler.desired(now, &site.pool, workers)
            });
            trace::time(Layer::FederationResize, || {
                while site.worker_count() < desired {
                    site.add_worker(now);
                }
                while site.worker_count() > desired {
                    if !site.remove_idle_worker(now) {
                        break;
                    }
                }
            });
            let after = site.worker_count();
            ticks += 1;
            actuations += u64::from(after != workers);
            holds += u64::from(after != desired);
            peak_workers = peak_workers.max(after);
            idle += site.pool.idle_count();
        }
        tally.idle_depth.push(idle as f64);

        now += NEGOTIATION_INTERVAL;
    }
    let loop_s = loop_started.elapsed().as_secs_f64();

    let end = fed.last_completion_at().unwrap_or(SimTime::ZERO);
    let (compute_usd, egress_usd, ledger_usd) = trace::time(Layer::CloudBilling, || {
        fed.close_billing(end);
        let ledger_usd: f64 = fed
            .sites()
            .iter()
            .map(|site| {
                site.ledger
                    .segments()
                    .iter()
                    .map(|seg| seg.cost(BillingMode::PerSecond, end))
                    .sum::<f64>()
                    + site.plane.object.cost_usd()
            })
            .sum::<f64>()
            + fed
                .egress_ledger()
                .egress_charges()
                .iter()
                .map(|c| c.cost())
                .sum::<f64>();
        (
            fed.compute_cost_usd(end),
            fed.egress_cost_usd(end),
            ledger_usd,
        )
    });
    checks.close(
        "compute + egress dollars vs the ledgers",
        compute_usd + egress_usd,
        ledger_usd,
    );

    let wan = fed.wan_metrics();
    let egress_bytes = wan.counter(wan_keys::BYTES_EGRESS);
    let ingress_bytes = wan.counter(wan_keys::BYTES_INGRESS);
    let remote_bytes = tally.remote_bytes;
    checks.check(egress_bytes == remote_bytes && ingress_bytes == remote_bytes, || {
        format!("WAN egress {egress_bytes} / ingress {ingress_bytes} vs {remote_bytes} bytes of remote steps")
    });
    let crossings = wan.counter(wan_keys::CROSSINGS);

    let mut digest = Digest::default();
    let mut counts = Counts::new();
    digest.add("jobs", completed);
    digest.add("makespan_us", end.as_micros());
    digest.add("staging_us", tally.staging.as_micros());
    let cache = tally.store_outcomes(
        |key| fed.sites().iter().map(|s| s.metrics.counter(key)).sum(),
        &mut checks,
        &mut digest,
        &mut counts,
    );
    digest.add("crossings", crossings);
    digest.add("egress_bytes", egress_bytes);
    digest.add_f64("compute_usd", compute_usd);
    digest.add_f64("egress_usd", egress_usd);
    digest.add("placements", format!("{placements:?}"));
    digest.add("cache", cache);
    digest.add("actuations", actuations);
    digest.add("peak_workers", peak_workers);

    tally.htc_counts(&mut counts);
    if trace::enabled() {
        let waits = fed.sites().iter().flat_map(|s| s.pool.completed_waits());
        counts.insert("htc.wait_p95_min", wait_p95_min(waits));
    }
    counts.insert("federation.crossings", crossings as f64);
    counts.insert("federation.egress_bytes", egress_bytes as f64);
    counts.insert("autoscale.actuations", actuations as f64);
    counts.insert("autoscale.hold_ratio", holds as f64 / ticks.max(1) as f64);

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
