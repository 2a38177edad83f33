//! Observation and repair of lost nodes.
//!
//! Globus Provision's job is to keep a deployment *correct while the
//! substrate changes under it*. The reconfiguration module handles
//! deliberate change (`gp-instance-update`); this module handles the
//! involuntary kind: an EC2 host that is suddenly `Terminated` (hardware
//! failure) or `Preempted` (spot reclaim) while the GP instance still
//! believes it owns it.
//!
//! The flow is observe → purge → repair:
//!
//! 1. [`GpCloud::observe_lost_nodes`] scans a running instance for hosts
//!    whose backing EC2 instance has reached a terminal state, removes
//!    each from the Condor pool (**requeueing** its in-flight jobs — the
//!    evicted ids are reported, never dropped), unmounts its NFS export,
//!    and drops the host record. The desired topology is left untouched:
//!    topology is the goal state, host records are the actual state.
//! 2. [`GpCloud::repair_instance`] does the same scan, then relaunches
//!    every lost *worker* in place — same hostname, same index, same
//!    instance type — closing the gap between actual and desired. The
//!    replacement honors the instance's spot floor, so a reclaimed spot
//!    worker comes back as spot capacity (and may be reclaimed again).
//!
//! [`GpCloud::preempt_worker`] is the injection side: it serves a spot
//! interruption notice to one worker's EC2 instance, for drivers that
//! model a spot market.

use cumulus_chef::Role;
use cumulus_cloud::InstanceState;
use cumulus_htc::JobId;
use cumulus_simkit::telemetry::{span::keys as span_keys, Payload};
use cumulus_simkit::time::SimTime;

use crate::deploy::{GpCloud, GpError, GpInstanceId, GpState};

/// One host observed lost during a scan.
#[derive(Debug, Clone)]
pub struct LostNode {
    /// The host's name within the instance (e.g. `worker-2`).
    pub hostname: String,
    /// Its worker position, for worker hosts.
    pub worker_index: Option<usize>,
    /// The terminal EC2 state it was found in (`Terminated` or
    /// `Preempted`).
    pub ec2_state: InstanceState,
    /// In-flight jobs evicted from its pool machine — already requeued
    /// as Idle, reported so the caller can renegotiate.
    pub requeued: Vec<JobId>,
}

/// Outcome of an observe/repair pass.
#[derive(Debug, Clone, Default)]
pub struct RepairReport {
    /// Every host found lost, in host-record order.
    pub lost: Vec<LostNode>,
    /// When the last relaunched replacement becomes ready; `None` when
    /// nothing was (or needed to be) relaunched.
    pub repaired_at: Option<SimTime>,
}

impl RepairReport {
    /// All requeued jobs across every lost node.
    pub fn requeued(&self) -> Vec<JobId> {
        self.lost.iter().flat_map(|l| l.requeued.clone()).collect()
    }
}

impl GpCloud {
    /// Scan `id` for hosts whose EC2 instance has reached a terminal
    /// state and purge them: pool machine removed (in-flight jobs
    /// requeued), NFS unmounted, host record dropped. The topology keeps
    /// the slot so a later repair (or scale decision) can fill it.
    ///
    /// Call [`Ec2Sim::settle`](cumulus_cloud::Ec2Sim::settle) first so
    /// preemption deadlines that have passed are reflected in EC2 state.
    pub fn observe_lost_nodes(
        &mut self,
        now: SimTime,
        id: &GpInstanceId,
    ) -> Result<RepairReport, GpError> {
        let inst = self.instance(id)?;
        if inst.state != GpState::Running {
            return Err(GpError::InvalidState {
                id: id.0.clone(),
                state: inst.state,
                op: "observe-lost-nodes",
            });
        }
        let lost_hosts: Vec<(String, Option<usize>, InstanceState)> = inst
            .hosts
            .iter()
            .filter_map(|h| {
                let state = self.ec2.describe_instance(h.ec2_id).ok()?.state;
                state
                    .is_terminated()
                    .then(|| (h.hostname.clone(), h.worker_index, state))
            })
            .collect();

        let mut report = RepairReport::default();
        for (hostname, worker_index, ec2_state) in lost_hosts {
            let machine_name = format!("{id}.{hostname}");
            let inst = self.instance_mut(id)?;
            let requeued = inst
                .pool
                .remove_machine(&machine_name, now)
                .unwrap_or_default();
            inst.nfs.unmount(&hostname);
            inst.hosts.retain(|h| h.hostname != hostname);
            inst.log.push(format!(
                "Lost {hostname} ({ec2_state}) at {now}; requeued {} job(s)",
                requeued.len()
            ));
            self.telemetry.record(
                now,
                "repair",
                span_keys::REPAIR_OBSERVED,
                Payload::Count(requeued.len() as u64),
            );
            report.lost.push(LostNode {
                hostname,
                worker_index,
                ec2_state,
                requeued,
            });
        }
        Ok(report)
    }

    /// Observe lost nodes, then relaunch every lost **worker** in place:
    /// same hostname and index, the type the topology prescribes for that
    /// slot, spot or on-demand per the instance's spot floor. Lost
    /// non-worker hosts (head, dedicated NFS) are reported but not
    /// relaunched — head repair is a redeployment decision, not a patch.
    pub fn repair_instance(
        &mut self,
        now: SimTime,
        id: &GpInstanceId,
    ) -> Result<RepairReport, GpError> {
        let mut report = self.observe_lost_nodes(now, id)?;
        let (workers, with_crdata) = {
            let topo = &self.instance(id)?.topology;
            (topo.workers.clone(), topo.crdata)
        };
        let mut repaired_at: Option<SimTime> = None;
        for lost in &report.lost {
            let Some(idx) = lost.worker_index else {
                continue;
            };
            let Some(wtype) = workers.get(idx).copied() else {
                continue; // slot no longer desired; leave it gone
            };
            let ready = self.add_worker(now, id, idx, wtype, with_crdata)?;
            self.telemetry.record(
                now,
                "repair",
                span_keys::REPAIR_RELAUNCHED,
                Payload::Count(idx as u64),
            );
            repaired_at = Some(repaired_at.map_or(ready, |r| r.max(ready)));
            self.instance_mut(id)?
                .log
                .push(format!("Repaired worker-{idx}; ready at {ready}"));
        }
        report.repaired_at = repaired_at;
        Ok(report)
    }

    /// Serve a spot interruption notice to `worker-{idx}`'s EC2 instance.
    /// Returns the reclaim deadline — the instance keeps computing until
    /// then, after which an `Ec2Sim::settle` moves it to `Preempted` and
    /// [`observe_lost_nodes`](GpCloud::observe_lost_nodes) will find it.
    pub fn preempt_worker(
        &mut self,
        now: SimTime,
        id: &GpInstanceId,
        idx: usize,
    ) -> Result<SimTime, GpError> {
        let ec2_id = {
            let inst = self.instance(id)?;
            inst.hosts
                .iter()
                .find(|h| h.role == Role::CondorWorker && h.worker_index == Some(idx))
                .ok_or_else(|| GpError::UnknownInstance(format!("{id} worker-{idx}")))?
                .ec2_id
        };
        let deadline = self.ec2.preempt_instance(now, ec2_id)?;
        self.instance_mut(id)?.log.push(format!(
            "Spot interruption notice for worker-{idx} at {now}; reclaim at {deadline}"
        ));
        Ok(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use cumulus_cloud::{BillingMode, InstanceType, Pricing};
    use cumulus_htc::{Job, JobState, WorkSpec};
    use cumulus_simkit::time::SimDuration;

    fn running_single(seed: u64) -> (GpCloud, GpInstanceId, SimTime) {
        let mut world = GpCloud::deterministic(seed);
        let id = world.create_instance(Topology::single_node(InstanceType::M1Small));
        let ready = world.start_instance(SimTime::ZERO, &id).unwrap().ready_at;
        (world, id, ready)
    }

    #[test]
    fn spot_floor_provisions_spot_workers() {
        let (mut world, id, ready) = running_single(71);
        world.set_spot_worker_floor(Some(1));
        world
            .scale_workers(ready, &id, 3, InstanceType::C1Medium)
            .unwrap();
        let inst = world.instance(&id).unwrap();
        let pricings: Vec<Pricing> = inst
            .workers()
            .iter()
            .map(|h| world.ec2.describe_instance(h.ec2_id).unwrap().pricing)
            .collect();
        assert_eq!(
            pricings,
            vec![Pricing::OnDemand, Pricing::Spot, Pricing::Spot],
            "floor=1: worker-0 on-demand, the rest spot"
        );
    }

    #[test]
    fn preempted_worker_is_observed_requeued_and_repaired() {
        let (mut world, id, ready) = running_single(72);
        world.set_spot_worker_floor(Some(0));
        world
            .scale_workers(ready, &id, 2, InstanceType::C1Medium)
            .unwrap();
        let start = ready + SimDuration::from_mins(20);

        // Pin a long job to worker-1, then preempt that worker.
        let jid = {
            let inst = world.instance_mut(&id).unwrap();
            let machine = format!("{id}.worker-1");
            let jid = inst.pool.submit(
                Job::new("u", WorkSpec::serial(3000.0))
                    .try_requirements(&format!("Machine == \"{machine}\""))
                    .expect("machine pin expression"),
                start,
            );
            inst.pool.negotiate(start);
            jid
        };
        assert!(world.worker_busy(&id, 1).unwrap());

        let deadline = world.preempt_worker(start, &id, 1).unwrap();
        assert_eq!(deadline, start + SimDuration::from_secs(120));
        // Before the deadline, nothing is lost yet.
        world.ec2.settle(start + SimDuration::from_secs(60));
        let r = world
            .observe_lost_nodes(start + SimDuration::from_secs(60), &id)
            .unwrap();
        assert!(r.lost.is_empty(), "notice window: still running");

        // Past the deadline the worker is gone; repair requeues + relaunches.
        world.ec2.settle(deadline);
        let report = world.repair_instance(deadline, &id).unwrap();
        assert_eq!(report.lost.len(), 1);
        assert_eq!(report.lost[0].hostname, "worker-1");
        assert_eq!(report.lost[0].ec2_state, InstanceState::Preempted);
        assert_eq!(report.requeued(), vec![jid]);
        let repaired_at = report.repaired_at.expect("worker relaunched");
        assert!(repaired_at > deadline);

        let inst = world.instance(&id).unwrap();
        assert_eq!(inst.pool.job(jid).unwrap().state, JobState::Idle);
        assert_eq!(inst.pool.total_evictions(), 1);
        assert_eq!(inst.workers().len(), 2, "topology repaired");
        // The replacement came back as spot (floor still 0).
        let w1 = inst
            .workers()
            .into_iter()
            .find(|h| h.worker_index == Some(1))
            .unwrap();
        assert_eq!(
            world.ec2.describe_instance(w1.ec2_id).unwrap().pricing,
            Pricing::Spot
        );

        // And the requeued job eventually completes on the replacement.
        let inst = world.instance_mut(&id).unwrap();
        inst.pool.negotiate(repaired_at);
        let done = repaired_at + SimDuration::from_secs(4000);
        inst.pool.settle(done);
        assert_eq!(inst.pool.job(jid).unwrap().state, JobState::Completed);
        assert_eq!(inst.pool.job(jid).unwrap().evictions, 1);
    }

    #[test]
    fn hardware_failure_is_observed_without_repair_keeping_slot_empty() {
        let (mut world, id, ready) = running_single(73);
        world
            .scale_workers(ready, &id, 1, InstanceType::C1Medium)
            .unwrap();
        let start = ready + SimDuration::from_mins(5);
        let ec2_id = world.instance(&id).unwrap().workers()[0].ec2_id;
        world.ec2.fail_instance(start, ec2_id).unwrap();

        let report = world.observe_lost_nodes(start, &id).unwrap();
        assert_eq!(report.lost.len(), 1);
        assert_eq!(report.lost[0].ec2_state, InstanceState::Terminated);
        assert!(report.repaired_at.is_none());
        let inst = world.instance(&id).unwrap();
        assert!(inst.workers().is_empty(), "host record gone");
        assert_eq!(
            inst.topology.workers.len(),
            1,
            "desired topology keeps the slot"
        );
        // A second scan finds nothing new (idempotent).
        let again = world.observe_lost_nodes(start, &id).unwrap();
        assert!(again.lost.is_empty());
    }

    #[test]
    fn preemption_stops_spot_billing_at_the_deadline() {
        let (mut world, id, ready) = running_single(74);
        world.set_spot_worker_floor(Some(0));
        world
            .scale_workers(ready, &id, 1, InstanceType::C1Medium)
            .unwrap();
        let start = ready + SimDuration::from_mins(10);
        let deadline = world.preempt_worker(start, &id, 0).unwrap();
        world.ec2.settle(deadline);
        let ec2_id = {
            // Host record is still present (not yet observed); use it.
            world.instance(&id).unwrap().workers()[0].ec2_id
        };
        let at_deadline = world
            .ec2
            .ledger
            .instance_cost(ec2_id, BillingMode::PerSecond, deadline);
        let later = world.ec2.ledger.instance_cost(
            ec2_id,
            BillingMode::PerSecond,
            deadline + SimDuration::from_hours(5),
        );
        assert!(at_deadline > 0.0);
        assert_eq!(at_deadline, later, "billing stopped at reclaim");
    }
}
