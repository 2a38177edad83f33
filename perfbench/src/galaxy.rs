//! `galaxy-elastic`: the paper's §V use case under §III.C elasticity, on
//! the DES engine.
//!
//! Set-up is `UseCaseScenario::deploy`. Analyst sessions arrive as a
//! Poisson stream; each pulls a four-CEL bundle into Galaxy with "Get Data
//! via Globus Online", then runs `crdata_affyDifferentialExpression` on it
//! through Condor. A negotiation cycle settles finished Condor jobs into
//! `on_condor_completion` (which runs the CRData tool's real statistics)
//! and matches queued ones; a `Hysteresis<QueueStep>` autoscaler ticks
//! every minute, with freshly launched workers joining the pool only when
//! their provisioning completes. GO credentials expire after
//! `CERT_LIFETIME`, so a session renews the user's before its transfer.
//! Cost comes from the EC2 ledger's window. This exercises CRData,
//! Galaxy, transfer, provision and the DES engine, with no data plane.

use std::collections::BTreeMap;
use std::time::Instant;

use cumulus::autoscale::controller::{Action, AutoScaler, ControllerConfig, HoldReason};
use cumulus::autoscale::policy::{Hysteresis, HysteresisConfig, QueueStep};
use cumulus::crdata::datagen::{generate_cel_bundle, CelBundleSpec};
use cumulus::galaxy::{Content, GalaxyJobId, GalaxyJobState};
use cumulus::htc::{Machine, NEGOTIATION_INTERVAL};
use cumulus::provision::deploy::CERT_LIFETIME;
use cumulus::scenario::UseCaseScenario;
use cumulus::simkit::engine::Sim;
use cumulus::simkit::rng::RngStream;
use cumulus::simkit::time::{SimDuration, SimTime};

use crate::common::{wait_p95_min, Checks, Completions, Counts, Digest, Episode, Gen, Tally};
use crate::trace::{self, Layer};

/// The CRData tool every session runs.
const TOOL: &str = "crdata_affyDifferentialExpression";
/// Queued jobs each worker is sized for.
const JOBS_PER_WORKER: usize = 1;
/// Mean gap between session arrivals, simulated seconds.
const MEAN_GAP_SECS: f64 = 60.0;

/// The size of one episode.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Analyst sessions in the episode.
    pub sessions: usize,
    /// Distinct four-CEL bundles the sessions draw from.
    pub bundles: usize,
    /// Worker cap of the autoscaler.
    pub max_workers: usize,
}

impl Shape {
    /// The measured shape.
    pub const FULL: Shape = Shape {
        sessions: 1500,
        bundles: 16,
        max_workers: 8,
    };

    /// The smoke-test shape.
    pub const TINY: Shape = Shape {
        sessions: 12,
        bundles: 3,
        max_workers: 3,
    };
}

/// The world the DES runs over.
struct World {
    scenario: UseCaseScenario,
    scaler: AutoScaler,
    bundles: Vec<Content>,
    /// Galaxy job of each session once its tool run is submitted.
    job_of: Vec<Option<GalaxyJobId>>,
    /// Session of each Galaxy job.
    session_of: BTreeMap<GalaxyJobId, usize>,
    done: Completions,
    /// Sessions whose tool run has completed.
    completed: usize,
    checks: Checks,
    renewals: u64,
    /// Negotiation cycles, matches and idle depth.
    tally: Tally,
    end_at: Option<SimTime>,
}

/// Schedule `handler` at `at`. A handler body is the benchmark's own
/// code, so it runs in a driver span and `Sim::run`'s self time is the
/// engine's dispatch alone.
fn schedule(sim: &mut Sim<World>, at: SimTime, handler: impl FnOnce(&mut Sim<World>) + 'static) {
    sim.schedule_at(at, move |sim| trace::time(Layer::Driver, || handler(sim)));
}

/// [`schedule`] for a recurring handler.
fn schedule_every(
    sim: &mut Sim<World>,
    start: SimTime,
    interval: SimDuration,
    mut handler: impl FnMut(&mut Sim<World>) -> bool + 'static,
) {
    sim.schedule_every(start, interval, move |sim| {
        trace::time(Layer::Driver, || handler(sim))
    });
}

/// Renew the user's GO credential if it has lapsed at `now`.
fn ensure_credential(w: &mut World, now: SimTime) {
    let user = w.scenario.user.clone();
    let cloud = &mut w.scenario.world;
    if cloud.transfer.credentials.verify(&user, now).is_ok() {
        return;
    }
    let cred = cloud
        .instance_mut(&w.scenario.instance)
        .expect("the deployed instance exists")
        .ca
        .issue(&user, now, CERT_LIFETIME);
    cloud.transfer.credentials.register(cred);
    w.renewals += 1;
}

/// A session arrives: pull its bundle into Galaxy over Globus Online and
/// run the differential-expression tool once the data lands.
fn arrive(sim: &mut Sim<World>, session: usize, bundle: usize) {
    let now = sim.now();
    trace::time(Layer::TransferCredentials, || {
        ensure_credential(&mut sim.world, now)
    });
    let w = &mut sim.world;
    // Galaxy keeps the content it is handed as the session's dataset, so
    // every session needs its own copy of the bundle.
    let content = w.bundles[bundle].clone();
    let spec = CelBundleSpec::four_cel_samples();
    let s = &mut w.scenario;
    let fetched = trace::time(Layer::GalaxyGetData, || {
        s.galaxy.get_data_via_globus(
            now,
            &s.user,
            s.history,
            &mut s.world.transfer,
            &s.world.network,
            (
                &s.remote_endpoint,
                &format!("/home/boliu/fourCelFileSamples-{bundle}.zip"),
            ),
            spec.archive_size,
            content,
            None,
        )
    });
    let (dataset, _task, landed) = match fetched {
        Ok(r) => r,
        Err(e) => {
            w.checks
                .check(false, || format!("session {session}: get data failed: {e}"));
            return;
        }
    };
    schedule(sim, landed.max(now), move |sim| {
        let now = sim.now();
        let w = &mut sim.world;
        let s = &mut w.scenario;
        let mut params = BTreeMap::new();
        params.insert("input".to_string(), dataset.0.to_string());
        let pool = &mut s
            .world
            .instance_mut(&s.instance)
            .expect("the deployed instance exists")
            .pool;
        let submitted = trace::time(Layer::GalaxyRunTool, || {
            s.galaxy
                .run_tool(now, &s.user, s.history, TOOL, &params, pool)
        });
        match submitted {
            Ok(job) => {
                w.job_of[session] = Some(job);
                w.session_of.insert(job, session);
            }
            Err(e) => w
                .checks
                .check(false, || format!("session {session}: run_tool failed: {e}")),
        }
    });
}

/// Settle the pool at `now`, handing every finished Condor job to Galaxy.
fn settle_into_galaxy(w: &mut World, now: SimTime) {
    let s = &mut w.scenario;
    let pool = &mut s
        .world
        .instance_mut(&s.instance)
        .expect("the deployed instance exists")
        .pool;
    for condor in trace::time(Layer::HtcSettle, || pool.settle(now)) {
        let job = trace::time(Layer::GalaxyCompletion, || {
            s.galaxy.on_condor_completion(now, condor)
        });
        match job.and_then(|j| w.session_of.get(&j)) {
            Some(&session) => {
                w.done.completed(session);
                w.completed += 1;
            }
            None => w
                .checks
                .check(false, || format!("condor job {condor:?} has no session")),
        }
    }
}

/// One Condor negotiation cycle: settle finished jobs into Galaxy, then
/// match queued ones. Returns `false` (ending the recurrence) once every
/// session has completed.
fn negotiation_cycle(sim: &mut Sim<World>) -> bool {
    let now = sim.now();
    let w = &mut sim.world;
    settle_into_galaxy(w, now);
    let s = &mut w.scenario;
    let pool = &mut s
        .world
        .instance_mut(&s.instance)
        .expect("the deployed instance exists")
        .pool;
    let matches = trace::time(Layer::HtcNegotiate, || pool.negotiate(now));
    w.tally.cycle(matches.len());
    w.tally.idle_depth.push(pool.idle_count() as f64);
    let finished = w.completed >= w.job_of.len();
    if finished {
        w.end_at = Some(now);
    }
    !finished
}

/// One autoscaler tick; scale-outs hold the new workers out of the pool
/// until their provisioning completes.
fn control_tick(sim: &mut Sim<World>) -> bool {
    if sim.world.end_at.is_some() {
        return false;
    }
    let now = sim.now();
    let w = &mut sim.world;
    // Scale-in settles the pool itself, so hand finished jobs to Galaxy
    // first: a completion the provision layer settles is never reported.
    settle_into_galaxy(w, now);
    let id = w.scenario.instance.clone();
    let decision = trace::time(Layer::AutoscaleTick, || {
        w.scaler.tick(now, &mut w.scenario.world, &id)
    })
    .expect("controller tick against a running instance");
    if let (Action::ScaleOut { from, to }, Some(done)) = (decision.action, decision.done_at) {
        for idx in from..to {
            defer_worker_join(sim, idx, done);
        }
    }
    true
}

/// Hold `worker-{idx}` out of the pool and join it at `done`, re-reading
/// its instance type from the topology at join time (the slot may have
/// been scaled away or re-launched meanwhile).
fn defer_worker_join(sim: &mut Sim<World>, idx: usize, done: SimTime) {
    let s = &mut sim.world.scenario;
    let name = format!("{}.worker-{idx}", s.instance);
    if let Ok(inst) = s.world.instance_mut(&s.instance) {
        let _ = inst.pool.drain_machine(&name);
    }
    schedule(sim, done, move |sim| {
        let now = sim.now();
        let s = &mut sim.world.scenario;
        let Ok(inst) = s.world.instance_mut(&s.instance) else {
            return;
        };
        let Some(wtype) = inst.topology.workers.get(idx).copied() else {
            return;
        };
        let machine = Machine::new(
            &name,
            wtype.compute_units(),
            (wtype.memory_gb() * 1024.0) as i64,
            1,
        );
        let _ = inst.pool.add_machine(machine);
        trace::time(Layer::HtcNegotiate, || inst.pool.negotiate(now));
    });
}

/// Run one episode of `shape` on the inputs of `seed`.
pub fn run(seed: u64, shape: &Shape) -> Episode {
    let started = Instant::now();
    let (scenario, report) = trace::time(Layer::ProvisionDeploy, || {
        UseCaseScenario::deploy(seed, SimTime::ZERO)
    })
    .expect("the use-case deployment succeeds");
    let ready = report.ready_at;
    let spec = CelBundleSpec::four_cel_samples();
    let bundles: Vec<Content> = (0..shape.bundles)
        .map(|b| {
            let mut rng = RngStream::derive(seed, &format!("perfbench/bundle-{b}"));
            cumulus::crdata::matrix_to_content(generate_cel_bundle(&spec, &mut rng).matrix)
        })
        .collect();
    let mut arrivals = Gen::new(seed, "galaxy/arrivals");
    let mut picks = Gen::new(seed, "galaxy/bundles");
    let mut at = 0.0;
    let stream: Vec<(SimTime, usize)> = (0..shape.sessions)
        .map(|_| {
            at += arrivals.exp(MEAN_GAP_SECS);
            (
                ready + SimDuration::from_secs_f64(at),
                picks.below(shape.bundles),
            )
        })
        .collect();
    let policy = Hysteresis::new(
        QueueStep::new(JOBS_PER_WORKER),
        HysteresisConfig {
            min_workers: 0,
            max_workers: shape.max_workers,
            ..HysteresisConfig::default()
        },
    );
    let mut done = Completions::default();
    for _ in 0..shape.sessions {
        done.submitted();
    }
    let mut sim = Sim::new(World {
        scenario,
        scaler: AutoScaler::new(Box::new(policy), ControllerConfig::default()),
        bundles,
        job_of: vec![None; shape.sessions],
        session_of: BTreeMap::new(),
        done,
        completed: 0,
        checks: Checks::default(),
        renewals: 0,
        tally: Tally::default(),
        end_at: None,
    });
    sim.fast_forward(ready);
    for (session, &(at, bundle)) in stream.iter().enumerate() {
        schedule(&mut sim, at, move |sim| arrive(sim, session, bundle));
    }
    schedule_every(&mut sim, ready, NEGOTIATION_INTERVAL, negotiation_cycle);
    let tick = sim.world.scaler.config.tick;
    schedule_every(&mut sim, ready, tick, control_tick);
    let setup_s = started.elapsed().as_secs_f64();

    // Open loop: a session still unfinished a week of simulated time
    // after the last arrival has stalled.
    let horizon = stream.last().map_or(ready, |&(at, _)| at) + SimDuration::from_hours(24 * 7);
    let loop_started = Instant::now();
    trace::time(Layer::SimkitRun, || sim.run(horizon, u64::MAX));
    let loop_s = loop_started.elapsed().as_secs_f64();

    let events = sim.steps_executed();
    let mut w = sim.world;
    let end = w.end_at.unwrap_or(ready);
    let cost_usd = trace::time(Layer::CloudBilling, || {
        w.scenario.world.ec2.ledger.window_cost(ready, end)
    });
    let mut top_rows = 0usize;
    for (session, job) in w.job_of.iter().enumerate() {
        let Some(job) = job else { continue };
        let job = w
            .scenario
            .galaxy
            .job(*job)
            .expect("submitted jobs are recorded");
        let table = job
            .outputs
            .first()
            .and_then(|&out| w.scenario.galaxy.dataset(out).ok())
            .and_then(|ds| ds.content.as_table().map(|(_, rows)| rows.len()));
        w.checks
            .check(job.state == GalaxyJobState::Ok && table.is_some(), || {
                format!(
                    "session {session}: CRData run ended {:?} without a top table",
                    job.state
                )
            });
        top_rows += table.unwrap_or(0);
    }
    let pool = &w
        .scenario
        .world
        .instance(&w.scenario.instance)
        .expect("the deployed instance exists")
        .pool;
    let wait_p95 = wait_p95_min(pool.completed_waits());
    let log = &w.scaler.log;
    let holds = log
        .entries
        .iter()
        .filter(|d| matches!(d.action, Action::Hold(r) if r != HoldReason::NoChange))
        .count();
    let peak_workers = log
        .entries
        .iter()
        .map(|d| d.sample.workers)
        .max()
        .unwrap_or(0);

    let mut digest = Digest::default();
    digest.add(
        "sessions",
        shape.sessions - w.done.not_exactly_once() as usize,
    );
    digest.add("makespan_us", end.since(ready).as_micros());
    digest.add_f64("cost_usd", cost_usd);
    digest.add("scale", format!("{}/{}", log.scale_outs(), log.scale_ins()));
    digest.add("peak_workers", peak_workers);
    digest.add("renewals", w.renewals);
    digest.add("top_rows", top_rows);
    digest.add_f64("wait_p95_min", wait_p95);
    digest.add("events", events);

    let mut counts = Counts::new();
    counts.insert("simkit.events", events as f64);
    w.tally.htc_counts(&mut counts);
    counts.insert("htc.wait_p95_min", wait_p95);
    counts.insert(
        "autoscale.actuations",
        (log.scale_outs() + log.scale_ins()) as f64,
    );
    counts.insert(
        "autoscale.hold_ratio",
        holds as f64 / log.len().max(1) as f64,
    );

    let lost = w.done.not_exactly_once();
    Episode::new(
        setup_s,
        loop_s,
        shape.sessions as u64,
        lost,
        w.checks,
        digest,
        counts,
    )
}
