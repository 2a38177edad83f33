//! The closed-loop controller and the episode driver that runs it
//! inside the DES.
//!
//! Each control tick the [`AutoScaler`] samples the pool into its signal
//! window, asks its policy for a desired worker count, and actuates the
//! difference through the provision layer's delta-based scaling API. Two
//! safety rules are enforced here, not in policies:
//!
//! * **no double-scaling** — while a reconfiguration is in flight the
//!   controller holds, whatever the policy wants;
//! * **drain-before-remove** — scale-in only releases trailing workers
//!   that are not executing a job; a busy tail blocks (and the provision
//!   layer drains regardless, so a running job can never be lost).
//!
//! Every tick produces a [`Decision`] appended to an [`ActivityLog`]
//! whose rendering is byte-for-byte deterministic for a given seed — the
//! audit trail the determinism suite fingerprints.

use cumulus_cloud::InstanceType;
use cumulus_provision::deploy::{GpCloud, GpError, GpInstanceId};
use cumulus_simkit::engine::Sim;
use cumulus_simkit::metrics::Metrics;
use cumulus_simkit::runner::{run_replicas, ReplicaPlan};
use cumulus_simkit::telemetry::{span::keys as span_keys, Key, Payload, Telemetry};
use cumulus_simkit::time::{SimDuration, SimTime};
use cumulus_store::CacheFleet;

use crate::policy::{ActuationFeedback, ScalingPolicy};
use crate::signal::{SignalSample, SignalWindow};
use crate::spot::{drive_episode, SpotEpisodeConfig};
use crate::workload::Workload;

/// Metrics keys the controller records (see [`cumulus_simkit::metrics`]).
pub mod keys {
    /// Counter: control ticks evaluated.
    pub const TICKS: &str = "autoscale/ticks";
    /// Counter: scale-out actions issued.
    pub const SCALE_OUT: &str = "autoscale/scale_out";
    /// Counter: scale-in actions issued.
    pub const SCALE_IN: &str = "autoscale/scale_in";
    /// Counter: ticks held because a reconfiguration was in flight.
    pub const HOLD_IN_FLIGHT: &str = "autoscale/hold_in_flight";
    /// Counter: scale-ins blocked because the tail worker was busy.
    pub const HOLD_DRAIN: &str = "autoscale/hold_drain_blocked";
    /// Counter: scale-ins deferred because the removable tail was cache-warm
    /// while a colder worker would be retained.
    pub const HOLD_CACHE: &str = "autoscale/hold_cache_warm";
}

/// Interned [`Key`]s for every [`keys`] entry, so the control loop's hot
/// path never hashes a key string.
#[derive(Debug, Clone, Copy)]
struct ScalerKeys {
    ticks: Key,
    scale_out: Key,
    scale_in: Key,
    hold_in_flight: Key,
    hold_drain: Key,
    hold_cache: Key,
}

impl ScalerKeys {
    fn intern() -> ScalerKeys {
        ScalerKeys {
            ticks: Key::intern(keys::TICKS),
            scale_out: Key::intern(keys::SCALE_OUT),
            scale_in: Key::intern(keys::SCALE_IN),
            hold_in_flight: Key::intern(keys::HOLD_IN_FLIGHT),
            hold_drain: Key::intern(keys::HOLD_DRAIN),
            hold_cache: Key::intern(keys::HOLD_CACHE),
        }
    }
}

/// Why a tick did not change the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldReason {
    /// A previous reconfiguration has not completed yet.
    InFlight,
    /// The policy is satisfied with the current size.
    NoChange,
    /// Scale-in wanted, but every removable (tail) worker is busy.
    DrainBlocked,
    /// Scale-in deferred: the removable tail holds cached data while a
    /// colder worker would survive (bounded by
    /// [`ControllerConfig::max_cache_holds`]).
    CacheWarm,
}

/// What a control tick did.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Nothing actuated.
    Hold(HoldReason),
    /// Workers added: `from` → `to`.
    ScaleOut {
        /// Workers before.
        from: usize,
        /// Workers after.
        to: usize,
    },
    /// Workers released: `from` → `to`.
    ScaleIn {
        /// Workers before.
        from: usize,
        /// Workers after.
        to: usize,
    },
}

/// One audited control decision.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Tick time.
    pub at: SimTime,
    /// The signals the decision was made on.
    pub sample: SignalSample,
    /// What the policy asked for (current size on an in-flight hold,
    /// where the policy is not consulted).
    pub desired: usize,
    /// What was done.
    pub action: Action,
    /// When the actuated reconfiguration completes, for scale actions.
    pub done_at: Option<SimTime>,
}

impl Decision {
    fn render(&self) -> String {
        let s = &self.sample;
        let action = match &self.action {
            Action::Hold(HoldReason::InFlight) => "hold (reconfig in flight)".to_string(),
            Action::Hold(HoldReason::NoChange) => "hold".to_string(),
            Action::Hold(HoldReason::DrainBlocked) => "hold (drain blocked)".to_string(),
            Action::Hold(HoldReason::CacheWarm) => "hold (cache warm)".to_string(),
            Action::ScaleOut { from, to } => format!("scale-out {from}->{to}"),
            Action::ScaleIn { from, to } => format!("scale-in {from}->{to}"),
        };
        let done = match self.done_at {
            Some(d) => format!(" (done {d})"),
            None => String::new(),
        };
        format!(
            "[{at}] q={q} r={r} w={w} util={u:.2} p95w={p:.1}s desired={d} | {action}{done}",
            at = self.at,
            q = s.queue_depth,
            r = s.running,
            w = s.workers,
            u = s.utilization,
            p = s.wait_p95_secs,
            d = self.desired,
        )
    }
}

/// The append-only scaling-activity log: every decision of a run, in tick
/// order, renderable to a deterministic text audit trail.
#[derive(Debug, Clone, Default)]
pub struct ActivityLog {
    /// Decisions in tick order.
    pub entries: Vec<Decision>,
}

impl ActivityLog {
    /// Number of decisions recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no decision was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Scale-out actions recorded.
    pub fn scale_outs(&self) -> usize {
        self.entries
            .iter()
            .filter(|d| matches!(d.action, Action::ScaleOut { .. }))
            .count()
    }

    /// Scale-in actions recorded.
    pub fn scale_ins(&self) -> usize {
        self.entries
            .iter()
            .filter(|d| matches!(d.action, Action::ScaleIn { .. }))
            .count()
    }

    /// Render the audit trail, one line per decision. For a fixed seed the
    /// output is byte-identical run to run (the determinism suite relies
    /// on this).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.entries {
            out.push_str(&d.render());
            out.push('\n');
        }
        out
    }
}

/// Controller parameters.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Control-loop period.
    pub tick: SimDuration,
    /// Signal-window capacity, in samples.
    pub window: usize,
    /// Instance type for workers the controller launches.
    pub worker_type: InstanceType,
    /// The data plane's cache fleet, when the deployment runs worker
    /// caches. `None` (the default) disables cache-aware scale-in
    /// entirely, leaving decisions byte-identical to a store-less build.
    pub cache_fleet: Option<CacheFleet>,
    /// Consecutive cache-warm holds tolerated before a scale-in proceeds
    /// anyway (removal is positional, so the tail cannot cool off
    /// forever; this bounds the cost deferral).
    pub max_cache_holds: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            tick: SimDuration::from_secs(60),
            window: 5,
            worker_type: InstanceType::C1Medium,
            cache_fleet: None,
            max_cache_holds: 3,
        }
    }
}

/// The closed-loop elasticity controller.
pub struct AutoScaler {
    policy: Box<dyn ScalingPolicy>,
    /// Active configuration.
    pub config: ControllerConfig,
    window: SignalWindow,
    in_flight_until: Option<SimTime>,
    /// Consecutive cache-warm holds since the last actuation.
    cache_holds: u32,
    /// Audit trail of every decision taken.
    pub log: ActivityLog,
    /// Counters (see [`keys`]).
    pub metrics: Metrics,
    ids: ScalerKeys,
    telemetry: Telemetry,
}

impl AutoScaler {
    /// A controller driving `policy` under `config`.
    pub fn new(policy: Box<dyn ScalingPolicy>, config: ControllerConfig) -> AutoScaler {
        let window = SignalWindow::new(config.window);
        AutoScaler {
            policy,
            config,
            window,
            in_flight_until: None,
            cache_holds: 0,
            log: ActivityLog::default(),
            metrics: Metrics::new(),
            ids: ScalerKeys::intern(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; each decision is then mirrored as a
    /// typed event ([`ActivityLog`] stays the renderable view).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The policy's log name.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// Whether a reconfiguration issued earlier is still in flight at `now`.
    pub fn in_flight(&self, now: SimTime) -> bool {
        self.in_flight_until.is_some_and(|until| now < until)
    }

    /// Run one control tick against the instance: sample, decide, actuate.
    /// Returns the recorded decision (also appended to [`log`][Self::log]).
    pub fn tick(
        &mut self,
        now: SimTime,
        cloud: &mut GpCloud,
        id: &GpInstanceId,
    ) -> Result<Decision, GpError> {
        self.metrics.incr(self.ids.ticks, 1);
        let inst = cloud.instance(id)?;
        let workers = inst.topology.workers.len();
        let sample = SignalSample::observe(now, &inst.pool, workers);
        self.window.push(sample.clone());

        // Rule 1: never stack reconfigurations. The policy is not even
        // consulted, so stateful policies (one-shot latches, cooldown
        // clocks) see only actionable ticks.
        if let Some(until) = self.in_flight_until {
            if now < until {
                self.metrics.incr(self.ids.hold_in_flight, 1);
                return Ok(self.record(Decision {
                    at: now,
                    sample,
                    desired: workers,
                    action: Action::Hold(HoldReason::InFlight),
                    done_at: None,
                }));
            }
            self.in_flight_until = None;
        }

        let desired = self.policy.desired_workers(&self.window);
        let decision = if desired > workers {
            let report = cloud.scale_workers(now, id, desired, self.config.worker_type)?;
            let done = report.done_at(now);
            self.in_flight_until = Some(done);
            self.metrics.incr(self.ids.scale_out, 1);
            self.policy.observe_actuation(&ActuationFeedback {
                at: now,
                from: workers,
                to: desired,
                done_at: done,
            });
            Decision {
                at: now,
                sample,
                desired,
                action: Action::ScaleOut {
                    from: workers,
                    to: desired,
                },
                done_at: Some(done),
            }
        } else if desired < workers {
            // Rule 2: only release trailing workers that are idle. Removal
            // is positional from the tail, so stop at the first busy one.
            let mut to = workers;
            while to > desired && !cloud.worker_busy(id, to - 1)? {
                to -= 1;
            }
            if to == workers {
                self.metrics.incr(self.ids.hold_drain, 1);
                Decision {
                    at: now,
                    sample,
                    desired,
                    action: Action::Hold(HoldReason::DrainBlocked),
                    done_at: None,
                }
            } else if self.cache_warm_hold(id, to, workers) {
                // Rule 3 (data plane only): removal is positional, so a
                // cache-warm tail would be evicted while a colder worker
                // survives. Hold a bounded number of ticks to let the
                // warmth drain (jobs rank toward warm workers, so the
                // tail going un-matched usually means it is cooling off).
                self.cache_holds += 1;
                self.metrics.incr(self.ids.hold_cache, 1);
                Decision {
                    at: now,
                    sample,
                    desired,
                    action: Action::Hold(HoldReason::CacheWarm),
                    done_at: None,
                }
            } else {
                let report = cloud.scale_workers(now, id, to, self.config.worker_type)?;
                let done = report.done_at(now);
                self.in_flight_until = Some(done);
                self.metrics.incr(self.ids.scale_in, 1);
                self.cache_holds = 0;
                if let Some(fleet) = &self.config.cache_fleet {
                    // The released workers' instance storage is gone with
                    // them — their caches must not satisfy later lookups.
                    for idx in to..workers {
                        fleet.drop_worker(&format!("{id}.worker-{idx}"));
                    }
                }
                self.policy.observe_actuation(&ActuationFeedback {
                    at: now,
                    from: workers,
                    to,
                    done_at: done,
                });
                Decision {
                    at: now,
                    sample,
                    desired,
                    action: Action::ScaleIn { from: workers, to },
                    done_at: Some(done),
                }
            }
        } else {
            Decision {
                at: now,
                sample,
                desired,
                action: Action::Hold(HoldReason::NoChange),
                done_at: None,
            }
        };
        Ok(self.record(decision))
    }

    /// Whether releasing workers `to..workers` should be deferred for
    /// cache warmth: some removed worker holds cached bytes while a
    /// strictly colder one would be retained, and the consecutive-hold
    /// budget is not exhausted. Without a fleet this is always `false`.
    fn cache_warm_hold(&self, id: &GpInstanceId, to: usize, workers: usize) -> bool {
        let Some(fleet) = &self.config.cache_fleet else {
            return false;
        };
        if self.cache_holds >= self.config.max_cache_holds {
            return false;
        }
        let bytes = |idx: usize| fleet.cached_bytes(&format!("{id}.worker-{idx}"));
        let Some(min_removed) = (to..workers).map(bytes).min() else {
            return false;
        };
        if min_removed.is_zero() {
            // At least one removed worker is stone cold; the positional
            // truncation is not obviously wrong, so let it proceed.
            return false;
        }
        (0..to).any(|idx| bytes(idx) < min_removed)
    }

    fn record(&mut self, decision: Decision) -> Decision {
        if self.telemetry.is_enabled() {
            let (key, payload) = match decision.action {
                Action::ScaleOut { from, to } => {
                    (span_keys::SCALE_OUT, Payload::Pair(from as u64, to as u64))
                }
                Action::ScaleIn { from, to } => {
                    (span_keys::SCALE_IN, Payload::Pair(from as u64, to as u64))
                }
                Action::Hold(reason) => {
                    let code = match reason {
                        HoldReason::InFlight => 0,
                        HoldReason::NoChange => 1,
                        HoldReason::DrainBlocked => 2,
                        HoldReason::CacheWarm => 3,
                    };
                    (span_keys::SCALE_HOLD, Payload::Count(code))
                }
            };
            self.telemetry
                .record(decision.at, "autoscale", key, payload);
        }
        self.log.entries.push(decision.clone());
        decision
    }
}

// ---------------------------------------------------------------------
// Episode driver
// ---------------------------------------------------------------------

/// Simulation worlds that own a [`GpCloud`] — the seam the episode
/// drivers share so deferred-join scheduling lives in exactly one place.
pub(crate) trait CloudHost {
    /// The cloud the episode runs against.
    fn cloud_mut(&mut self) -> &mut GpCloud;
}

/// Hold the freshly-launched `worker-{idx}` machines out of the pool and
/// schedule their joins at `done` (provisioning-complete time).
///
/// The worker's instance type is re-read from the topology **at join
/// time**, not captured at scale-out time: the slot may be scaled away
/// and re-launched as a different type while the join event is in
/// flight, and a machine built from the stale type would disagree with
/// `topology.workers[idx]` on compute units and memory.
pub(crate) fn defer_worker_joins<W: CloudHost + 'static>(
    sim: &mut Sim<W>,
    id: &GpInstanceId,
    from: usize,
    to: usize,
    done: SimTime,
) {
    for idx in from..to {
        defer_worker_join(sim, id, idx, done);
    }
}

/// Hold `worker-{idx}`'s machine out of the pool and schedule its join at
/// `done` — one slot of [`defer_worker_joins`], also used by the spot
/// repair path where replacement slots are not a contiguous range.
pub(crate) fn defer_worker_join<W: CloudHost + 'static>(
    sim: &mut Sim<W>,
    id: &GpInstanceId,
    idx: usize,
    done: SimTime,
) {
    let machine_name = format!("{id}.worker-{idx}");
    if let Ok(inst) = sim.world.cloud_mut().instance_mut(id) {
        let _ = inst.pool.drain_machine(&machine_name);
    }
    let jid = id.clone();
    sim.schedule_at(done, move |sim| {
        let now = sim.now();
        let Ok(inst) = sim.world.cloud_mut().instance_mut(&jid) else {
            return;
        };
        // The worker may have been scaled away again meanwhile; if it
        // was re-launched, its current type is authoritative.
        let Some(wtype) = inst.topology.workers.get(idx).copied() else {
            return;
        };
        let machine = cumulus_htc::Machine::new(
            &format!("{jid}.worker-{idx}"),
            wtype.compute_units(),
            (wtype.memory_gb() * 1024.0) as i64,
            1,
        );
        let _ = inst.pool.add_machine(machine);
        if let Ok(inst) = sim.world.cloud_mut().instance_mut(&jid) {
            inst.pool.negotiate(now);
        }
    });
}

/// Everything measured over one workload episode.
#[derive(Debug, Clone)]
pub struct EpisodeReport {
    /// Policy log name.
    pub policy: String,
    /// Workload trace name.
    pub workload: String,
    /// When the deployment was ready (episode start).
    pub ready_at: SimTime,
    /// When the queue drained and the cluster was torn down.
    pub end_at: SimTime,
    /// Ready → last job completion, minutes.
    pub makespan_mins: f64,
    /// EC2 spend over `[ready_at, end_at]`, dollars.
    pub cost_usd: f64,
    /// Median job wait (submission → start), minutes.
    pub wait_p50_mins: f64,
    /// 95th-percentile job wait, minutes.
    pub wait_p95_mins: f64,
    /// Jobs completed.
    pub jobs: usize,
    /// Largest worker count the controller reached.
    pub peak_workers: usize,
    /// The full audit trail.
    pub log: ActivityLog,
}

/// Deploy a single-node Galaxy instance, run `workload` through it under
/// `policy`, and tear the cluster down when the queue drains.
///
/// The whole episode runs inside the DES: arrivals are events, the
/// controller is a recurring tick, and worker *joins are deferred* — a
/// scaled-out worker only starts accepting jobs once its provisioning
/// (boot + converge) completes, so reaction lag is paid honestly by every
/// policy. This is the spot episode driver with a calm market and an
/// all-on-demand fleet: one DES loop owns the elastic clock.
///
/// # Panics
/// Panics if the deployment fails or the episode exceeds its step budget
/// (both indicate a model bug, not a data-dependent condition).
pub fn run_episode(
    seed: u64,
    policy: Box<dyn ScalingPolicy>,
    config: ControllerConfig,
    workload: &Workload,
) -> EpisodeReport {
    let config = SpotEpisodeConfig {
        controller: config,
        ..SpotEpisodeConfig::default()
    };
    drive_episode(seed, policy, None, config, workload).base
}

/// Run `combos` independent policy episodes against the same workload and
/// seed, fanned out over the parallel replica runner, and return the
/// reports **in combo order**.
///
/// Each combo `i` runs `run_episode(seed, make_policy(i), …)` — the same
/// call a serial loop would make, with the same seed, so a parallel sweep
/// is byte-identical to a serial one (episodes are fully deterministic
/// given their seed, and the runner merges results by combo index, not by
/// completion order). `threads == 0` sizes the pool to the machine; pass
/// `1` to force a serial sweep.
pub fn run_sweep<F>(
    seed: u64,
    combos: usize,
    make_policy: F,
    config: &ControllerConfig,
    workload: &Workload,
    threads: usize,
) -> Vec<EpisodeReport>
where
    F: Fn(usize) -> Box<dyn ScalingPolicy> + Sync,
{
    let plan = ReplicaPlan::new(seed, combos).with_threads(threads);
    run_replicas(plan, |i, _seeds| {
        run_episode(seed, make_policy(i), config.clone(), workload)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Fixed, Hysteresis, HysteresisConfig, QueueStep};
    use cumulus_htc::{Job, JobState, WorkSpec};
    use cumulus_provision::Topology;

    fn running_single(seed: u64) -> (GpCloud, GpInstanceId, SimTime) {
        let mut cloud = GpCloud::deterministic(seed);
        let id = cloud.create_instance(Topology::single_node(InstanceType::M1Small));
        let ready = cloud.start_instance(SimTime::ZERO, &id).unwrap().ready_at;
        (cloud, id, ready)
    }

    fn queue_jobs(cloud: &mut GpCloud, id: &GpInstanceId, n: usize, at: SimTime) {
        let inst = cloud.instance_mut(id).unwrap();
        for _ in 0..n {
            inst.pool.submit(
                Job::new("u", WorkSpec::serial(3600.0)).requirements("ComputeUnits >= 2"),
                at,
            );
        }
    }

    #[test]
    fn no_decision_issued_while_reconfig_in_flight() {
        let (mut cloud, id, ready) = running_single(101);
        let mut scaler = AutoScaler::new(Box::new(QueueStep::new(1)), ControllerConfig::default());
        queue_jobs(&mut cloud, &id, 4, ready);
        let d1 = scaler.tick(ready, &mut cloud, &id).unwrap();
        assert!(matches!(d1.action, Action::ScaleOut { from: 0, to: 4 }));
        let done = d1.done_at.unwrap();
        assert!(done > ready, "provisioning takes time");
        assert!(scaler.in_flight(ready + SimDuration::from_secs(1)));

        // More work shows up mid-flight: the controller must hold.
        queue_jobs(&mut cloud, &id, 6, ready + SimDuration::from_secs(60));
        let d2 = scaler
            .tick(ready + SimDuration::from_secs(60), &mut cloud, &id)
            .unwrap();
        assert_eq!(d2.action, Action::Hold(HoldReason::InFlight));
        assert_eq!(cloud.worker_count(&id).unwrap(), 4, "no double-scaling");
        assert_eq!(scaler.metrics.counter(keys::HOLD_IN_FLIGHT), 1);

        // Once the reconfiguration lands the controller acts again.
        let after = done + SimDuration::from_secs(1);
        assert!(!scaler.in_flight(after));
        let d3 = scaler.tick(after, &mut cloud, &id).unwrap();
        assert!(
            matches!(d3.action, Action::ScaleOut { from: 4, .. }),
            "got {:?}",
            d3.action
        );
        assert!(scaler.in_flight(after), "the new reconfig is in flight");
    }

    #[test]
    fn scale_in_never_terminates_a_machine_with_a_running_job() {
        let (mut cloud, id, ready) = running_single(102);
        cloud
            .scale_workers(ready, &id, 2, InstanceType::C1Medium)
            .unwrap();
        let start = ready + SimDuration::from_mins(20);
        // Pin a long job to the TAIL worker.
        let jid = {
            let inst = cloud.instance_mut(&id).unwrap();
            let machine = format!("{id}.worker-1");
            let jid = inst.pool.submit(
                Job::new("u", WorkSpec::serial(7200.0))
                    .try_requirements(&format!("Machine == \"{machine}\""))
                    .expect("machine pin expression"),
                start,
            );
            inst.pool.negotiate(start);
            jid
        };
        let mut scaler = AutoScaler::new(Box::new(Fixed(0)), ControllerConfig::default());
        let d = scaler.tick(start, &mut cloud, &id).unwrap();
        // The busy tail blocks the whole scale-in.
        assert_eq!(d.action, Action::Hold(HoldReason::DrainBlocked));
        assert_eq!(cloud.worker_count(&id).unwrap(), 2);
        let job = cloud.instance(&id).unwrap().pool.job(jid).unwrap();
        assert_eq!(job.state, JobState::Running);
        assert_eq!(job.evictions, 0);
        assert_eq!(scaler.metrics.counter(keys::HOLD_DRAIN), 1);
    }

    #[test]
    fn drain_blocked_scale_in_retries_next_tick_not_after_cooldown() {
        // Regression: Hysteresis used to stamp `last_scale_in` the moment
        // it *surfaced* a lower target, but the controller may then hold
        // with DrainBlocked (busy tail worker). The phantom cooldown
        // deferred the retry for the full scale_in_cooldown (10 min
        // default) even after the tail went idle. With cooldowns stamped
        // from actuation feedback, the retry lands on the very next tick.
        let (mut cloud, id, ready) = running_single(105);
        cloud
            .scale_workers(ready, &id, 2, InstanceType::C1Medium)
            .unwrap();
        let t0 = ready + SimDuration::from_mins(20);
        // Pin a SHORT job to the tail worker: busy at t0, done before the
        // next tick.
        {
            let inst = cloud.instance_mut(&id).unwrap();
            let machine = format!("{id}.worker-1");
            inst.pool.submit(
                Job::new("u", WorkSpec::serial(30.0))
                    .try_requirements(&format!("Machine == \"{machine}\""))
                    .expect("machine pin expression"),
                t0,
            );
            inst.pool.negotiate(t0);
        }
        // Default config: 10 min scale-in cooldown, 60 s tick.
        let policy = Hysteresis::new(Fixed(0), HysteresisConfig::default());
        let mut scaler = AutoScaler::new(Box::new(policy), ControllerConfig::default());

        let d0 = scaler.tick(t0, &mut cloud, &id).unwrap();
        assert_eq!(d0.action, Action::Hold(HoldReason::DrainBlocked));
        assert_eq!(cloud.worker_count(&id).unwrap(), 2);

        // One tick later the pinned job has finished and the tail is idle.
        let t1 = t0 + ControllerConfig::default().tick;
        cloud.instance_mut(&id).unwrap().pool.settle(t1);
        let d1 = scaler.tick(t1, &mut cloud, &id).unwrap();
        assert_eq!(
            d1.action,
            Action::ScaleIn { from: 2, to: 0 },
            "blocked scale-in must retry on the next tick, not after the \
             10-minute phantom cooldown"
        );
        assert_eq!(cloud.worker_count(&id).unwrap(), 0);
    }

    #[test]
    fn cache_warm_tail_defers_scale_in_then_proceeds() {
        use cumulus_store::{ContentId, DataSize};

        let (mut cloud, id, ready) = running_single(107);
        cloud
            .scale_workers(ready, &id, 2, InstanceType::C1Medium)
            .unwrap();
        // worker-1 (the removable tail) is warm; worker-0 is cold.
        let fleet = CacheFleet::default();
        fleet.insert(
            &format!("{id}.worker-1"),
            ContentId(7),
            DataSize::from_mb(200),
        );
        let config = ControllerConfig {
            cache_fleet: Some(fleet.clone()),
            max_cache_holds: 2,
            ..ControllerConfig::default()
        };
        let mut scaler = AutoScaler::new(Box::new(Fixed(1)), config);

        let mut at = ready + SimDuration::from_mins(20);
        for _ in 0..2 {
            let d = scaler.tick(at, &mut cloud, &id).unwrap();
            assert_eq!(d.action, Action::Hold(HoldReason::CacheWarm));
            assert_eq!(cloud.worker_count(&id).unwrap(), 2);
            at += SimDuration::from_secs(60);
        }
        assert_eq!(scaler.metrics.counter(keys::HOLD_CACHE), 2);

        // Hold budget exhausted: the scale-in proceeds and the released
        // worker's cache is invalidated with it.
        let d = scaler.tick(at, &mut cloud, &id).unwrap();
        assert_eq!(d.action, Action::ScaleIn { from: 2, to: 1 });
        assert_eq!(cloud.worker_count(&id).unwrap(), 1);
        assert_eq!(
            fleet.cached_bytes(&format!("{id}.worker-1")),
            DataSize::ZERO,
            "released worker's cache must be dropped"
        );
    }

    #[test]
    fn cache_cold_tail_scales_in_immediately() {
        use cumulus_store::{ContentId, DataSize};

        let (mut cloud, id, ready) = running_single(108);
        cloud
            .scale_workers(ready, &id, 2, InstanceType::C1Medium)
            .unwrap();
        // The RETAINED worker is the warm one — truncating the cold tail
        // is exactly right and must not be deferred.
        let fleet = CacheFleet::default();
        fleet.insert(
            &format!("{id}.worker-0"),
            ContentId(7),
            DataSize::from_mb(200),
        );
        let config = ControllerConfig {
            cache_fleet: Some(fleet.clone()),
            ..ControllerConfig::default()
        };
        let mut scaler = AutoScaler::new(Box::new(Fixed(1)), config);
        let d = scaler
            .tick(ready + SimDuration::from_mins(20), &mut cloud, &id)
            .unwrap();
        assert_eq!(d.action, Action::ScaleIn { from: 2, to: 1 });
        assert_eq!(scaler.metrics.counter(keys::HOLD_CACHE), 0);
        assert!(
            !fleet.cached_bytes(&format!("{id}.worker-0")).is_zero(),
            "survivor keeps its cache"
        );
    }

    #[test]
    fn scale_in_releases_only_the_idle_tail() {
        let (mut cloud, id, ready) = running_single(103);
        cloud
            .scale_workers(ready, &id, 3, InstanceType::C1Medium)
            .unwrap();
        let start = ready + SimDuration::from_mins(20);
        // Busy worker-0, idle workers 1 and 2.
        let jid = {
            let inst = cloud.instance_mut(&id).unwrap();
            let machine = format!("{id}.worker-0");
            let jid = inst.pool.submit(
                Job::new("u", WorkSpec::serial(7200.0))
                    .try_requirements(&format!("Machine == \"{machine}\""))
                    .expect("machine pin expression"),
                start,
            );
            inst.pool.negotiate(start);
            jid
        };
        let mut scaler = AutoScaler::new(Box::new(Fixed(0)), ControllerConfig::default());
        let d = scaler.tick(start, &mut cloud, &id).unwrap();
        assert_eq!(d.action, Action::ScaleIn { from: 3, to: 1 });
        assert_eq!(cloud.worker_count(&id).unwrap(), 1);
        let job = cloud.instance(&id).unwrap().pool.job(jid).unwrap();
        assert_eq!(job.state, JobState::Running, "running job untouched");
        assert_eq!(job.evictions, 0);
    }

    #[test]
    fn deferred_join_reads_worker_type_at_join_time() {
        // Regression: the join event used to rebuild the machine from the
        // worker type captured at scale-out time. If the slot is scaled
        // away and re-launched as a *different* type before the join
        // fires, the joining machine's resources must match the current
        // topology, not the stale capture.
        struct World {
            cloud: GpCloud,
        }
        impl CloudHost for World {
            fn cloud_mut(&mut self) -> &mut GpCloud {
                &mut self.cloud
            }
        }
        let mut cloud = GpCloud::deterministic(106);
        let id = cloud.create_instance(Topology::single_node(InstanceType::M1Small));
        let ready = cloud.start_instance(SimTime::ZERO, &id).unwrap().ready_at;
        let mut sim = Sim::new(World { cloud });
        sim.fast_forward(ready);

        // Scale out to one c1.medium; hold its join until provisioning
        // lands, exactly as the episode driver does.
        let report = sim
            .world
            .cloud
            .scale_workers(ready, &id, 1, InstanceType::C1Medium)
            .unwrap();
        let join_at = report.done_at(ready);
        assert!(join_at > ready);
        defer_worker_joins(&mut sim, &id, 0, 1, join_at);

        // Before the join fires: shrink the slot away, then regrow it as
        // an m1.small.
        let churn_at = ready + SimDuration::from_secs(30);
        assert!(churn_at < join_at, "churn must land mid-provisioning");
        let cid = id.clone();
        sim.schedule_at(churn_at, move |sim| {
            let now = sim.now();
            sim.world
                .cloud
                .scale_workers(now, &cid, 0, InstanceType::C1Medium)
                .unwrap();
            let report = sim
                .world
                .cloud
                .scale_workers(now, &cid, 1, InstanceType::M1Small)
                .unwrap();
            let done = report.done_at(now);
            defer_worker_joins(sim, &cid, 0, 1, done);
        });

        sim.run_to_completion();

        let inst = sim.world.cloud.instance(&id).unwrap();
        assert_eq!(inst.topology.workers, vec![InstanceType::M1Small]);
        let machine = inst
            .pool
            .machine(&format!("{id}.worker-0"))
            .expect("the worker joined the pool");
        assert_eq!(
            machine.compute_units_per_slot(),
            InstanceType::M1Small.compute_units(),
            "joined machine must carry the re-launched type's resources, \
             not the scaled-away type's"
        );
    }

    #[test]
    fn steady_state_holds_and_logs() {
        let (mut cloud, id, ready) = running_single(104);
        let mut scaler = AutoScaler::new(Box::new(Fixed(0)), ControllerConfig::default());
        for k in 0..3u64 {
            let d = scaler
                .tick(ready + SimDuration::from_secs(60 * k), &mut cloud, &id)
                .unwrap();
            assert_eq!(d.action, Action::Hold(HoldReason::NoChange));
        }
        assert_eq!(scaler.log.len(), 3);
        assert_eq!(scaler.log.scale_outs(), 0);
        assert_eq!(scaler.metrics.counter(keys::TICKS), 3);
        let rendered = scaler.log.render();
        assert_eq!(rendered.lines().count(), 3);
        assert!(rendered.contains("| hold"), "log:\n{rendered}");
    }

    #[test]
    fn episode_runs_a_burst_through_the_closed_loop() {
        let work = WorkSpec {
            serial_secs: 112.0,
            cu_work: 418.0,
        };
        let workload = Workload::burst("burst-8", 8, SimDuration::ZERO, work);
        let policy = Hysteresis::new(
            QueueStep::new(2),
            HysteresisConfig {
                min_workers: 0,
                max_workers: 8,
                scale_out_cooldown: SimDuration::from_mins(2),
                scale_in_cooldown: SimDuration::from_mins(5),
            },
        );
        let report = run_episode(7, Box::new(policy), ControllerConfig::default(), &workload);
        assert_eq!(report.jobs, 8);
        assert!(report.peak_workers >= 2, "peak={}", report.peak_workers);
        assert!(report.log.scale_outs() >= 1);
        assert!(report.log.scale_ins() >= 1, "cluster torn back down");
        assert!(report.cost_usd > 0.0);
        assert!(report.makespan_mins > 5.0, "provisioning lag is real");
        assert!(report.makespan_mins < 60.0, "but the burst still drains");
        // The teardown left nothing behind.
        assert_eq!(report.log.entries.last().unwrap().sample.queue_depth, 0);
    }

    #[test]
    fn episode_with_no_workload_ends_immediately() {
        let workload = Workload::burst("empty", 0, SimDuration::ZERO, WorkSpec::serial(1.0));
        let report = run_episode(
            8,
            Box::new(Fixed(0)),
            ControllerConfig::default(),
            &workload,
        );
        assert_eq!(report.jobs, 0);
        assert_eq!(report.makespan_mins, 0.0);
        assert_eq!(report.end_at, report.ready_at);
    }
}
