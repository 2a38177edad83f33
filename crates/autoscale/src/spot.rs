//! Spot-aware elasticity: a fleet-mix policy and a preemption-aware
//! episode driver.
//!
//! The plain controller treats every worker as on-demand capacity. This
//! module adds the economics: a [`SpotMix`] wrapper partitions the worker
//! index space into an on-demand core and a spot tail (the provision
//! layer's spot floor), and [`run_spot_episode`] drives a workload through
//! the closed loop while a [`SpotMarket`] reclaims spot workers along a
//! seeded preemption timeline. Each reclaim plays out end to end inside
//! the DES:
//!
//! 1. the market strikes a running spot instance — a two-minute
//!    interruption notice is served ([`Ec2Sim::preempt_instance`] via the
//!    market's [`Disruptable`] seam);
//! 2. at the deadline the instance settles to `Preempted`, billing stops,
//!    and [`GpCloud::repair_instance`] purges the lost host — **requeueing
//!    its in-flight jobs** — and relaunches the slot (as spot again, per
//!    the floor);
//! 3. the replacement joins the pool only when its provisioning
//!    completes (the same deferred-join rule scale-outs obey), and the
//!    requeued jobs renegotiate onto whatever capacity survives.
//!
//! The episode is byte-deterministic for a seed: the market timeline and
//! victim choices come from named [`RngStream`]s, so a calm market with a
//! zero spot fraction reproduces [`run_episode`] exactly.
//!
//! [`Ec2Sim::preempt_instance`]: cumulus_cloud::Ec2Sim::preempt_instance
//! [`GpCloud::repair_instance`]: cumulus_provision::deploy::GpCloud
//! [`Disruptable`]: cumulus_simkit::disrupt::Disruptable
//! [`run_episode`]: crate::controller::run_episode

use cumulus_cloud::{InstanceType, SpotMarket};
use cumulus_provision::deploy::GpCloud;
use cumulus_provision::Topology;
use cumulus_simkit::engine::Sim;
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::runner::{run_replicas, ReplicaPlan};
use cumulus_simkit::time::{SimDuration, SimTime};

use crate::controller::{
    defer_worker_join, defer_worker_joins, Action, AutoScaler, CloudHost, ControllerConfig,
    EpisodeReport,
};
use crate::policy::ScalingPolicy;
use crate::signal::percentile;
use crate::workload::Workload;

/// Fleet-mix parameters for [`SpotMix`].
#[derive(Debug, Clone)]
pub struct SpotMixConfig {
    /// Fraction of the fleet cap eligible to run on spot, in `[0, 1]`.
    /// `0.0` is an all-on-demand fleet; `1.0` puts every worker on spot.
    pub spot_fraction: f64,
    /// The fleet cap the fraction is measured against (typically the
    /// wrapped policy's `max_workers` bound).
    pub max_workers: usize,
}

/// Wraps a sizing policy with a spot/on-demand fleet mix.
///
/// Sizing passes straight through to the inner policy (typically a
/// [`Hysteresis`]-wrapped one) — the mix never changes *how many* workers
/// run, only *what they cost*: workers at index `>=`
/// [`on_demand_floor`][SpotMix::on_demand_floor] launch as spot capacity.
/// Keeping the split positional means the on-demand core occupies the low
/// indexes the controller releases last, so scale-ins shed the reclaimable
/// spot tail first.
///
/// [`Hysteresis`]: crate::policy::Hysteresis
#[derive(Debug, Clone)]
pub struct SpotMix<P> {
    inner: P,
    /// The active mix.
    pub config: SpotMixConfig,
}

impl<P: ScalingPolicy> SpotMix<P> {
    /// Wrap `inner` with a fleet mix (`spot_fraction` clamped to `[0, 1]`).
    pub fn new(inner: P, config: SpotMixConfig) -> SpotMix<P> {
        SpotMix {
            inner,
            config: SpotMixConfig {
                spot_fraction: config.spot_fraction.clamp(0.0, 1.0),
                ..config
            },
        }
    }

    /// The worker index at and above which workers launch as spot —
    /// the value to hand to
    /// [`GpCloud::set_spot_worker_floor`](cumulus_provision::deploy::GpCloud::set_spot_worker_floor).
    /// `None` for a zero spot fraction (pure on-demand fleet).
    pub fn on_demand_floor(&self) -> Option<usize> {
        if self.config.spot_fraction <= 0.0 {
            return None;
        }
        let spot = (self.config.max_workers as f64 * self.config.spot_fraction).round() as usize;
        Some(self.config.max_workers.saturating_sub(spot))
    }
}

impl<P: ScalingPolicy> ScalingPolicy for SpotMix<P> {
    fn name(&self) -> String {
        format!(
            "{}+spot/{:.0}%",
            self.inner.name(),
            self.config.spot_fraction * 100.0
        )
    }

    fn desired_workers(&mut self, window: &crate::signal::SignalWindow) -> usize {
        self.inner.desired_workers(window)
    }

    fn observe_actuation(&mut self, feedback: &crate::policy::ActuationFeedback) {
        self.inner.observe_actuation(feedback);
    }
}

/// Parameters for a spot episode beyond the plain controller config.
#[derive(Debug, Clone)]
pub struct SpotEpisodeConfig {
    /// The controller parameters (tick, window, worker type).
    pub controller: ControllerConfig,
    /// Mean interval between market strikes (Poisson); `None` is a calm
    /// market that never reclaims anything.
    pub mean_preemption_interval: Option<SimDuration>,
    /// Extra time past the last arrival the market timeline covers (the
    /// drain tail is still exposed to reclaims).
    pub horizon_slack: SimDuration,
}

impl Default for SpotEpisodeConfig {
    fn default() -> Self {
        SpotEpisodeConfig {
            controller: ControllerConfig::default(),
            mean_preemption_interval: None,
            horizon_slack: SimDuration::from_hours(24),
        }
    }
}

/// Everything measured over one spot episode: the plain episode report
/// plus the disruption ledger.
#[derive(Debug, Clone)]
pub struct SpotEpisodeReport {
    /// The metrics every episode reports (cost, waits, makespan, log).
    pub base: EpisodeReport,
    /// Market strikes that actually reclaimed a spot worker.
    pub preemptions: usize,
    /// In-flight jobs requeued by reclaims (a job preempted twice counts
    /// twice).
    pub requeued_jobs: usize,
    /// Pool-wide eviction count at episode end (includes any non-market
    /// evictions, of which the episode driver produces none).
    pub total_evictions: u64,
    /// Completed-or-queued jobs that were evicted at least once.
    pub retried_jobs: usize,
}

struct SpotEpisodeWorld {
    cloud: GpCloud,
    scaler: AutoScaler,
    market: SpotMarket,
    total_jobs: usize,
    submitted: usize,
    end_at: Option<SimTime>,
    preemptions: usize,
    requeued_jobs: usize,
}

impl CloudHost for SpotEpisodeWorld {
    fn cloud_mut(&mut self) -> &mut GpCloud {
        &mut self.cloud
    }
}

/// Deploy a single-node Galaxy instance and run `workload` through it
/// under a spot/on-demand fleet mix while a seeded spot market reclaims
/// spot workers. See the module docs for the reclaim lifecycle; apart
/// from the market this is [`run_episode`][crate::controller::run_episode]
/// — both run on the same DES episode loop — so a calm market with a zero
/// spot fraction reproduces it number for number.
///
/// # Panics
/// Panics if the deployment fails or the episode exceeds its step budget
/// (both indicate a model bug, not a data-dependent condition).
pub fn run_spot_episode<P: ScalingPolicy + 'static>(
    seed: u64,
    policy: SpotMix<P>,
    config: SpotEpisodeConfig,
    workload: &Workload,
) -> SpotEpisodeReport {
    let floor = policy.on_demand_floor();
    drive_episode(seed, Box::new(policy), floor, config, workload)
}

/// The elastic DES episode every autoscale driver runs on: deploy, wire
/// the arrivals, the market and the control tick as events, run to the
/// drain, and assemble the report. Workers at index `>= floor` launch as
/// spot capacity (`None` is an all-on-demand fleet).
pub(crate) fn drive_episode(
    seed: u64,
    policy: Box<dyn ScalingPolicy>,
    floor: Option<usize>,
    config: SpotEpisodeConfig,
    workload: &Workload,
) -> SpotEpisodeReport {
    let mut cloud = GpCloud::deterministic(seed);
    cloud.set_spot_worker_floor(floor);
    let id = cloud.create_instance(Topology::single_node(InstanceType::M1Small));
    let ready = cloud
        .start_instance(SimTime::ZERO, &id)
        .expect("single-node deployment succeeds")
        .ready_at;
    let scaler = AutoScaler::new(policy, config.controller.clone());
    let policy_name = scaler.policy_name();

    // The market timeline covers deployment + trace + the drain tail.
    let market = match config.mean_preemption_interval {
        Some(mean) => {
            let mut events = RngStream::derive(seed, "spot/market-events");
            let horizon = ready.since(SimTime::ZERO) + workload.duration() + config.horizon_slack;
            SpotMarket::poisson(
                &mut events,
                RngStream::derive(seed, "spot/market-victims"),
                horizon,
                mean,
            )
        }
        None => SpotMarket::calm(RngStream::derive(seed, "spot/market-victims")),
    };
    let plan = market.plan().clone();

    let mut sim = Sim::new(SpotEpisodeWorld {
        cloud,
        scaler,
        market,
        total_jobs: workload.len(),
        submitted: 0,
        end_at: None,
        preemptions: 0,
        requeued_jobs: 0,
    });
    sim.fast_forward(ready);

    // Arrivals: submit and negotiate immediately (job starts are not
    // quantized to the control tick; completions settle each tick).
    for a in &workload.arrivals {
        let aid = id.clone();
        let owner = a.owner.clone();
        let work = a.work;
        sim.schedule_at(ready + a.at, move |sim| {
            let now = sim.now();
            let w = &mut sim.world;
            if let Ok(inst) = w.cloud.instance_mut(&aid) {
                inst.pool.submit(cumulus_htc::Job::new(&owner, work), now);
                inst.pool.settle(now);
                inst.pool.negotiate(now);
            }
            w.submitted += 1;
        });
    }

    // The market: each plan point is one strike. A strike that lands
    // serves a notice; the follow-through at the deadline settles the
    // reclaim, repairs the slot, and defers the replacement's pool join
    // to its provisioning-complete time.
    let mid = id.clone();
    plan.schedule_points_into(&mut sim, move |sim, _d| {
        let now = sim.now();
        let reclaim = {
            let w = &mut sim.world;
            if w.end_at.is_some() {
                return;
            }
            let Some(r) = w.market.strike(now, &mut w.cloud.ec2) else {
                return;
            };
            w.preemptions += 1;
            r
        };
        let rid = mid.clone();
        sim.schedule_at(reclaim.deadline, move |sim| {
            let now = sim.now();
            let joins: Vec<(usize, SimTime)> = {
                let w = &mut sim.world;
                if w.end_at.is_some() {
                    return;
                }
                w.cloud.ec2.settle(now);
                let Ok(report) = w.cloud.repair_instance(now, &rid) else {
                    return;
                };
                w.requeued_jobs += report.requeued().len();
                let mut joins = Vec::new();
                if let Some(ready_at) = report.repaired_at {
                    for lost in &report.lost {
                        if let Some(idx) = lost.worker_index {
                            joins.push((idx, ready_at));
                        }
                    }
                }
                // Requeued jobs rematch onto whatever capacity survives.
                if let Ok(inst) = w.cloud.instance_mut(&rid) {
                    inst.pool.negotiate(now);
                }
                joins
            };
            // repair added each replacement's pool machine eagerly; hold
            // it out until its provisioning lands.
            for (idx, ready_at) in joins {
                defer_worker_join(sim, &rid, idx, ready_at);
            }
        });
    });

    // The control loop.
    let tid = id.clone();
    let tick = config.controller.tick;
    sim.schedule_every(ready, tick, move |sim| {
        let now = sim.now();
        let decision = {
            let w = &mut sim.world;
            if let Ok(inst) = w.cloud.instance_mut(&tid) {
                inst.pool.settle(now);
            }
            w.scaler
                .tick(now, &mut w.cloud, &tid)
                .expect("controller tick against a running instance")
        };

        // Deferred join: freshly-launched workers leave the pool until
        // their provisioning completes, then an event re-adds them. This
        // must happen before the queue is renegotiated below — otherwise
        // jobs match onto machines that are still provisioning.
        if let (Action::ScaleOut { from, to }, Some(done)) = (&decision.action, decision.done_at) {
            defer_worker_joins(sim, &tid, *from, *to, done);
        }

        // Match queued jobs onto whatever capacity is actually online.
        let w = &mut sim.world;
        if let Ok(inst) = w.cloud.instance_mut(&tid) {
            inst.pool.negotiate(now);
        }

        // Episode end: everything submitted and drained → tear down.
        let inst = w.cloud.instance(&tid).expect("instance exists");
        let drained = w.submitted == w.total_jobs
            && inst.pool.idle_count() == 0
            && inst.pool.running_count() == 0;
        if drained {
            let wtype = w.scaler.config.worker_type;
            let _ = w.cloud.scale_workers(now, &tid, 0, wtype);
            w.end_at = Some(now);
            false
        } else {
            true
        }
    });

    let _ = sim.run(SimTime::MAX, 50_000_000);
    let end_at = sim.world.end_at.expect("episode drains within budget");

    let world = sim.world;
    let pool = &world.cloud.instance(&id).expect("instance exists").pool;
    let waits_mins: Vec<f64> = pool
        .completed_waits()
        .iter()
        .map(|d| d.as_mins_f64())
        .collect();
    let makespan_mins = pool
        .last_completion_at()
        .map(|t| t.since(ready).as_mins_f64())
        .unwrap_or(0.0);
    let total_evictions = pool.total_evictions();
    let retried_jobs = pool.retried_jobs();
    let log = world.scaler.log;
    let base = EpisodeReport {
        policy: policy_name,
        workload: workload.name.clone(),
        ready_at: ready,
        end_at,
        makespan_mins,
        cost_usd: world.cloud.ec2.ledger.window_cost(ready, end_at),
        wait_p50_mins: percentile(&waits_mins, 0.50),
        wait_p95_mins: percentile(&waits_mins, 0.95),
        jobs: waits_mins.len(),
        peak_workers: log
            .entries
            .iter()
            .map(|d| d.sample.workers)
            .max()
            .unwrap_or(0),
        log,
    };
    SpotEpisodeReport {
        base,
        preemptions: world.preemptions,
        requeued_jobs: world.requeued_jobs,
        total_evictions,
        retried_jobs,
    }
}

/// Run `combos` independent spot episodes against the same workload and
/// seed, fanned out over the parallel replica runner, and return the
/// reports **in combo order** — the spot analogue of
/// [`run_sweep`][crate::controller::run_sweep], with the same
/// serial-equals-parallel byte-identity guarantee.
pub fn run_spot_sweep<P, F>(
    seed: u64,
    combos: usize,
    make: F,
    workload: &Workload,
    threads: usize,
) -> Vec<SpotEpisodeReport>
where
    P: ScalingPolicy + 'static,
    F: Fn(usize) -> (SpotMix<P>, SpotEpisodeConfig) + Sync,
{
    let plan = ReplicaPlan::new(seed, combos).with_threads(threads);
    run_replicas(plan, |i, _seeds| {
        let (policy, config) = make(i);
        run_spot_episode(seed, policy, config, workload)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::run_episode;
    use crate::policy::{Hysteresis, HysteresisConfig, QueueStep};
    use cumulus_htc::WorkSpec;

    fn mix(fraction: f64, max: usize) -> SpotMix<Hysteresis<QueueStep>> {
        SpotMix::new(
            Hysteresis::new(
                QueueStep::new(2),
                HysteresisConfig {
                    min_workers: 0,
                    max_workers: max,
                    scale_out_cooldown: SimDuration::from_mins(2),
                    scale_in_cooldown: SimDuration::from_mins(5),
                },
            ),
            SpotMixConfig {
                spot_fraction: fraction,
                max_workers: max,
            },
        )
    }

    fn burst(n: usize) -> Workload {
        let work = WorkSpec {
            serial_secs: 112.0,
            cu_work: 418.0,
        };
        Workload::burst("burst", n, SimDuration::ZERO, work)
    }

    #[test]
    fn spot_mix_places_the_floor() {
        assert_eq!(mix(0.0, 8).on_demand_floor(), None);
        assert_eq!(mix(1.0, 8).on_demand_floor(), Some(0));
        assert_eq!(mix(0.5, 8).on_demand_floor(), Some(4));
        assert_eq!(mix(0.25, 8).on_demand_floor(), Some(6));
        assert_eq!(
            mix(0.5, 8).name(),
            "queue-step/2+hysteresis+spot/50%",
            "stable log name"
        );
    }

    #[test]
    fn calm_all_on_demand_episode_reproduces_run_episode() {
        let workload = burst(8);
        let spot = run_spot_episode(7, mix(0.0, 8), SpotEpisodeConfig::default(), &workload);
        let plain = run_episode(
            7,
            Box::new(Hysteresis::new(
                QueueStep::new(2),
                HysteresisConfig {
                    min_workers: 0,
                    max_workers: 8,
                    scale_out_cooldown: SimDuration::from_mins(2),
                    scale_in_cooldown: SimDuration::from_mins(5),
                },
            )),
            ControllerConfig::default(),
            &workload,
        );
        assert_eq!(spot.preemptions, 0);
        assert_eq!(spot.total_evictions, 0);
        assert_eq!(spot.base.jobs, plain.jobs);
        assert_eq!(spot.base.cost_usd, plain.cost_usd);
        assert_eq!(spot.base.wait_p95_mins, plain.wait_p95_mins);
        assert_eq!(spot.base.end_at, plain.end_at);
        assert_eq!(spot.base.log.render(), plain.log.render());
    }

    #[test]
    fn calm_spot_fleet_is_cheaper_at_identical_service() {
        let workload = burst(8);
        let od = run_spot_episode(7, mix(0.0, 8), SpotEpisodeConfig::default(), &workload);
        let spot = run_spot_episode(7, mix(1.0, 8), SpotEpisodeConfig::default(), &workload);
        // A calm market never reclaims, so the schedule is identical and
        // the only difference is the price of the worker fleet.
        assert_eq!(spot.base.wait_p95_mins, od.base.wait_p95_mins);
        assert_eq!(spot.base.makespan_mins, od.base.makespan_mins);
        assert!(
            spot.base.cost_usd < od.base.cost_usd,
            "spot {} !< on-demand {}",
            spot.base.cost_usd,
            od.base.cost_usd
        );
    }

    #[test]
    fn preemptions_requeue_work_and_the_episode_still_drains() {
        let workload = burst(12);
        let config = SpotEpisodeConfig {
            mean_preemption_interval: Some(SimDuration::from_mins(20)),
            ..SpotEpisodeConfig::default()
        };
        let report = run_spot_episode(11, mix(1.0, 8), config, &workload);
        assert_eq!(report.base.jobs, 12, "every job completes despite reclaims");
        assert!(report.preemptions >= 1, "market struck at least once");
        assert_eq!(
            report.requeued_jobs as u64, report.total_evictions,
            "every requeue is accounted as an eviction"
        );
        assert!(report.retried_jobs <= report.requeued_jobs);
        // Reclaims can only hurt service relative to a calm market.
        let calm = run_spot_episode(11, mix(1.0, 8), SpotEpisodeConfig::default(), &workload);
        assert!(report.base.end_at >= calm.base.end_at);
    }

    #[test]
    fn spot_episode_is_seed_deterministic() {
        let workload = burst(10);
        let config = SpotEpisodeConfig {
            mean_preemption_interval: Some(SimDuration::from_mins(30)),
            ..SpotEpisodeConfig::default()
        };
        let a = run_spot_episode(5, mix(0.5, 8), config.clone(), &workload);
        let b = run_spot_episode(5, mix(0.5, 8), config, &workload);
        assert_eq!(a.base.cost_usd, b.base.cost_usd);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.requeued_jobs, b.requeued_jobs);
        assert_eq!(a.base.log.render(), b.base.log.render());
    }
}
