//! The Globus Provision orchestrator.
//!
//! [`GpCloud`] owns every substrate (EC2, network, the transfer service,
//! the cookbooks) and manages GP instances through their lifecycle:
//!
//! ```text
//! gp-instance-create → New
//! gp-instance-start  → Starting → Running     (boot + converge all hosts)
//! gp-instance-update → Running   (apply a TopologyDelta at runtime)
//! gp-instance-stop   → Stopped   (EC2 hosts stopped, billing paused)
//! gp-instance-start  → Running   (resume: quick idempotent re-converge)
//! gp-instance-terminate → Terminated
//! ```
//!
//! All methods take an explicit `now` and return completion timestamps, in
//! the same passive style as the substrate crates.

use std::collections::BTreeMap;

use cumulus_chef::{converge, gp_cookbooks, ConvergeConfig, CookbookStore, NodeState, Role};
use cumulus_cloud::{Ec2Config, Ec2Error, Ec2Sim, InstanceId, InstanceType};
use cumulus_htc::{CondorPool, Machine};
use cumulus_net::{Network, NodeId};
use cumulus_nfs::SharedFs;
use cumulus_simkit::prelude::*;
use cumulus_transfer::{CertificateAuthority, EndpointKind, TransferService};

use crate::topology::{Topology, TopologyError};

/// A GP instance id, e.g. `gpi-02156188`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpInstanceId(pub String);

impl std::fmt::Display for GpInstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// GP instance lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpState {
    /// Created but never started.
    New,
    /// Hosts up, services converged.
    Running,
    /// Suspended (EC2 hosts stopped; resumable).
    Stopped,
    /// Gone; cannot be resumed.
    Terminated,
}

/// One host of a GP instance.
#[derive(Debug)]
pub struct HostRecord {
    /// Hostname within the instance, e.g. `galaxy`, `worker-0`.
    pub hostname: String,
    /// Its role (determines the Chef run-list).
    pub role: Role,
    /// Worker position, for worker hosts.
    pub worker_index: Option<usize>,
    /// The backing EC2 instance.
    pub ec2_id: InstanceId,
    /// Its network node.
    pub node: NodeId,
    /// Chef state (what has been applied).
    pub chef: NodeState,
    /// When the host finished its last converge.
    pub ready_at: SimTime,
}

/// A deployed (or deployable) GP instance.
pub struct GpInstance {
    /// Its id.
    pub id: GpInstanceId,
    /// The topology it currently realizes.
    pub topology: Topology,
    /// Lifecycle state.
    pub state: GpState,
    /// Hosts, head first.
    pub hosts: Vec<HostRecord>,
    /// The instance's Condor pool.
    pub pool: CondorPool,
    /// The instance's shared filesystem.
    pub nfs: SharedFs,
    /// The instance's certificate authority.
    pub ca: CertificateAuthority,
    /// The GO endpoint created for this cluster, if any.
    pub endpoint: Option<String>,
    /// When the instance most recently became Running.
    pub ready_at: Option<SimTime>,
    /// Human-readable deployment log.
    pub log: Vec<String>,
}

impl GpInstance {
    /// The head host record.
    pub fn head(&self) -> &HostRecord {
        self.hosts
            .iter()
            .find(|h| h.role == Role::GalaxyHead)
            .expect("every instance has a head host")
    }

    /// Worker host records in position order.
    pub fn workers(&self) -> Vec<&HostRecord> {
        let mut ws: Vec<&HostRecord> = self
            .hosts
            .iter()
            .filter(|h| h.role == Role::CondorWorker)
            .collect();
        ws.sort_by_key(|h| h.worker_index);
        ws
    }

    /// `gp-instance-describe`-style text.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "{}  state={:?}  hosts={}  endpoint={}\n",
            self.id,
            self.state,
            self.hosts.len(),
            self.endpoint.as_deref().unwrap_or("-"),
        );
        for h in &self.hosts {
            out.push_str(&format!(
                "  {:<24} {:<22} ready {}\n",
                h.hostname,
                h.role.host_template(),
                h.ready_at
            ));
        }
        out
    }
}

/// Deployment report from `gp-instance-start`.
#[derive(Debug, Clone)]
pub struct DeployReport {
    /// When the whole instance became usable.
    pub ready_at: SimTime,
    /// Per-host `(hostname, boot_done, converge_done)`.
    pub host_times: Vec<(String, SimTime, SimTime)>,
}

impl DeployReport {
    /// Total deployment wall time from a given start.
    pub fn duration_from(&self, start: SimTime) -> SimDuration {
        self.ready_at.since(start)
    }
}

/// Errors from GP operations.
#[derive(Debug)]
pub enum GpError {
    /// Unknown instance id.
    UnknownInstance(String),
    /// The operation is invalid in the current state.
    InvalidState {
        /// The instance.
        id: String,
        /// Its state.
        state: GpState,
        /// The attempted operation.
        op: &'static str,
    },
    /// EC2 rejected a call.
    Ec2(Ec2Error),
    /// Topology parsing/validation failed.
    Topology(TopologyError),
    /// The chef run-list failed to expand.
    Chef(cumulus_chef::RunListError),
    /// Endpoint registration failed.
    Endpoint(cumulus_transfer::EndpointError),
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::UnknownInstance(id) => write!(f, "unknown GP instance {id}"),
            GpError::InvalidState { id, state, op } => {
                write!(f, "cannot {op} instance {id} in state {state:?}")
            }
            GpError::Ec2(e) => write!(f, "EC2: {e}"),
            GpError::Topology(e) => write!(f, "{e}"),
            GpError::Chef(e) => write!(f, "chef: {e}"),
            GpError::Endpoint(e) => write!(f, "endpoint: {e}"),
        }
    }
}

impl std::error::Error for GpError {}

impl From<Ec2Error> for GpError {
    fn from(e: Ec2Error) -> Self {
        GpError::Ec2(e)
    }
}
impl From<TopologyError> for GpError {
    fn from(e: TopologyError) -> Self {
        GpError::Topology(e)
    }
}
impl From<cumulus_chef::RunListError> for GpError {
    fn from(e: cumulus_chef::RunListError) -> Self {
        GpError::Chef(e)
    }
}
impl From<cumulus_transfer::EndpointError> for GpError {
    fn from(e: cumulus_transfer::EndpointError) -> Self {
        GpError::Endpoint(e)
    }
}

/// Time GP spends finalizing a deployment after the last host converges
/// (endpoint creation, NIS map push, sanity checks).
pub const FINALIZE_TIME: SimDuration = SimDuration::from_secs(20);

/// User certificate lifetime.
pub const CERT_LIFETIME: SimDuration = SimDuration::from_hours(12);

/// The world every GP experiment runs in.
pub struct GpCloud {
    /// The EC2 region.
    pub ec2: Ec2Sim,
    /// The network graph (instance hosts get nodes with fast mutual links).
    pub network: Network,
    /// The hosted transfer service (shared across instances, like the real
    /// Globus Online).
    pub transfer: TransferService,
    /// The GP cookbooks.
    pub cookbooks: CookbookStore,
    converge_config: ConvergeConfig,
    seeds: SeedFactory,
    instances: BTreeMap<GpInstanceId, GpInstance>,
    next_instance: u64,
    /// Worker indices at or above this floor launch on the spot market
    /// (cheap, preemptible); below it — and for all non-worker hosts —
    /// capacity is on-demand. `None` (the default) means all on-demand.
    spot_floor: Option<usize>,
    pub(crate) telemetry: cumulus_simkit::telemetry::Telemetry,
}

impl GpCloud {
    /// Build a world from a master seed with default (slightly jittered)
    /// configurations.
    pub fn new(master_seed: u64) -> Self {
        let seeds = SeedFactory::new(master_seed);
        GpCloud {
            ec2: Ec2Sim::new(Ec2Config::default(), seeds.stream("ec2")),
            network: Network::new(),
            transfer: TransferService::new(),
            cookbooks: gp_cookbooks(),
            converge_config: ConvergeConfig::default(),
            seeds,
            instances: BTreeMap::new(),
            next_instance: 0x0215_6188, // the paper's instance id
            spot_floor: None,
            telemetry: cumulus_simkit::telemetry::Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle. Repair-loop events (`repair.observed`,
    /// `repair.relaunched`) land on it, and the handle is propagated to
    /// the EC2 substrate for instance lifecycle spans.
    pub fn set_telemetry(&mut self, telemetry: cumulus_simkit::telemetry::Telemetry) {
        self.ec2.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Set the spot floor: worker indices `>= floor` are provisioned as
    /// spot instances from now on (existing workers are not retyped).
    /// `None` reverts to all-on-demand provisioning.
    pub fn set_spot_worker_floor(&mut self, floor: Option<usize>) {
        self.spot_floor = floor;
    }

    /// A world with all stochastic jitter disabled — used for calibration
    /// runs and determinism tests.
    pub fn deterministic(master_seed: u64) -> Self {
        let mut world = GpCloud::new(master_seed);
        world.ec2 = Ec2Sim::new(Ec2Config::deterministic(), world.seeds.stream("ec2"));
        world.converge_config = ConvergeConfig::deterministic();
        world
    }

    /// Access the seed factory (for deriving experiment streams).
    pub fn seeds(&self) -> SeedFactory {
        self.seeds
    }

    /// `gp-instance-create -c galaxy.conf`.
    pub fn create_instance(&mut self, topology: Topology) -> GpInstanceId {
        let id = GpInstanceId(format!("gpi-{:08x}", self.next_instance));
        self.next_instance += 1;
        let ca = CertificateAuthority::new(&format!("/O=Globus Provision/CN={id} CA"));
        self.instances.insert(
            id.clone(),
            GpInstance {
                id: id.clone(),
                topology,
                state: GpState::New,
                hosts: Vec::new(),
                pool: CondorPool::new(),
                nfs: SharedFs::new(400.0),
                ca,
                endpoint: None,
                ready_at: None,
                log: vec![format!("Created new instance: {id}")],
            },
        );
        id
    }

    /// Immutable instance lookup.
    pub fn instance(&self, id: &GpInstanceId) -> Result<&GpInstance, GpError> {
        self.instances
            .get(id)
            .ok_or_else(|| GpError::UnknownInstance(id.0.clone()))
    }

    /// Mutable instance lookup.
    pub fn instance_mut(&mut self, id: &GpInstanceId) -> Result<&mut GpInstance, GpError> {
        self.instances
            .get_mut(id)
            .ok_or_else(|| GpError::UnknownInstance(id.0.clone()))
    }

    /// A copy of the converge configuration (used by reconfiguration).
    pub(crate) fn converge_config_copy(&self) -> ConvergeConfig {
        self.converge_config
    }

    /// Provision one host: launch the EC2 instance, wait for boot, converge
    /// its run-list. Returns the host record plus (boot_done, ready).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn provision_host_public(
        &mut self,
        now: SimTime,
        instance_id: &GpInstanceId,
        hostname: &str,
        role: Role,
        worker_index: Option<usize>,
        itype: InstanceType,
        ami: &str,
        with_crdata: bool,
        not_before: SimTime,
    ) -> Result<(HostRecord, SimTime, SimTime), GpError> {
        let spot = role == Role::CondorWorker
            && matches!((worker_index, self.spot_floor), (Some(i), Some(f)) if i >= f);
        let (ids, boot_done) = if spot {
            self.ec2.run_spot_instances(now, ami, itype, 1)?
        } else {
            self.ec2.run_instances(now, ami, itype, 1)?
        };
        let ec2_id = ids[0];

        let preinstalled: Vec<String> = self
            .ec2
            .amis
            .get(ami)
            .map(|a| a.preinstalled.iter().cloned().collect())
            .unwrap_or_default();
        let fq_host = format!("{instance_id}.{hostname}");
        let mut chef = NodeState::from_image(&fq_host, preinstalled.iter());

        let mut rng = self.seeds.stream(&format!("chef/{instance_id}/{hostname}"));
        let report = converge(
            &self.cookbooks,
            &mut chef,
            &role.run_list(with_crdata),
            itype.provision_speed(),
            &self.converge_config,
            &mut rng,
        )?;
        let converge_start = boot_done.max(not_before);
        let ready = converge_start + report.duration;

        // Register the host on the network with fast links to the other
        // hosts of this instance.
        let node = self.network.add_node(&fq_host);
        let peer_nodes: Vec<NodeId> = self
            .instances
            .get(instance_id)
            .map(|inst| inst.hosts.iter().map(|h| h.node).collect())
            .unwrap_or_default();
        for peer in peer_nodes {
            self.network
                .connect(node, peer, cumulus_transfer::intra_cloud_link());
        }

        Ok((
            HostRecord {
                hostname: hostname.to_string(),
                role,
                worker_index,
                ec2_id,
                node,
                chef,
                ready_at: ready,
            },
            boot_done,
            ready,
        ))
    }

    /// `gp-instance-start <id>`: deploy every host of the topology.
    pub fn start_instance(
        &mut self,
        now: SimTime,
        id: &GpInstanceId,
    ) -> Result<DeployReport, GpError> {
        let inst = self.instance(id)?;
        match inst.state {
            GpState::New => {}
            GpState::Stopped => return self.resume_instance(now, id),
            state => {
                return Err(GpError::InvalidState {
                    id: id.0.clone(),
                    state,
                    op: "start",
                })
            }
        }
        let topology = inst.topology.clone();
        let ami = topology.ami.clone();
        let mut host_times = Vec::new();

        // Optional dedicated NFS/NIS server first (clients block on it).
        let mut nfs_ready = now;
        let mut new_hosts = Vec::new();
        if topology.nfs_node {
            let (host, boot, ready) = self.provision_host_public(
                now,
                id,
                "nfs",
                Role::NfsServer,
                None,
                topology.head_type,
                &ami,
                topology.crdata,
                now,
            )?;
            nfs_ready = ready;
            host_times.push(("nfs".to_string(), boot, ready));
            new_hosts.push(host);
        }

        // The Galaxy head (which exports NFS itself when no dedicated node).
        let (head, head_boot, head_ready) = self.provision_host_public(
            now,
            id,
            "galaxy",
            Role::GalaxyHead,
            None,
            topology.head_type,
            &ami,
            topology.crdata,
            nfs_ready
                .min(now)
                .max(if topology.nfs_node { nfs_ready } else { now }),
        )?;
        host_times.push(("galaxy".to_string(), head_boot, head_ready));
        let head_node_ready = head_ready;
        new_hosts.push(head);

        // Workers converge in parallel but mount NFS, which the head (or
        // the dedicated server) must be exporting first.
        let mount_gate = if topology.nfs_node {
            nfs_ready
        } else {
            head_node_ready
        };
        for (i, wtype) in topology.workers.iter().enumerate() {
            let hostname = format!("worker-{i}");
            let (host, boot, ready) = self.provision_host_public(
                now,
                id,
                &hostname,
                Role::CondorWorker,
                Some(i),
                *wtype,
                &ami,
                topology.crdata,
                mount_gate,
            )?;
            host_times.push((hostname, boot, ready));
            new_hosts.push(host);
        }

        let last_host_ready = host_times
            .iter()
            .map(|(_, _, r)| *r)
            .max()
            .expect("at least the head host");
        let ready_at = last_host_ready + FINALIZE_TIME;
        self.ec2.settle(ready_at);

        // Users: accounts + certificates + GO credentials.
        let inst = self.instances.get_mut(id).expect("checked above");
        for host in new_hosts {
            inst.hosts.push(host);
        }
        for user in &topology.users {
            let cred = inst.ca.issue(user, now, CERT_LIFETIME);
            self.transfer.credentials.register(cred);
        }

        // Condor pool: the head is also an execute machine; workers join
        // with their own capacity.
        if topology.condor {
            let head_host = inst.hosts.iter().find(|h| h.role == Role::GalaxyHead);
            if let Some(h) = head_host {
                let m = Machine::new(
                    &format!("{id}.{}", h.hostname),
                    topology.head_type.compute_units(),
                    (topology.head_type.memory_gb() * 1024.0) as i64,
                    1,
                );
                inst.pool.add_machine(m).expect("fresh pool");
            }
            let worker_hosts: Vec<(String, usize)> = inst
                .hosts
                .iter()
                .filter(|h| h.role == Role::CondorWorker)
                .map(|h| (h.hostname.clone(), h.worker_index.unwrap_or(0)))
                .collect();
            for (hostname, idx) in worker_hosts {
                let wtype = topology.workers[idx];
                let m = Machine::new(
                    &format!("{id}.{hostname}"),
                    wtype.compute_units(),
                    (wtype.memory_gb() * 1024.0) as i64,
                    1,
                );
                inst.pool.add_machine(m).expect("unique hostnames");
            }
        }

        // NFS mounts.
        let mounts: Vec<String> = inst.hosts.iter().map(|h| h.hostname.clone()).collect();
        for m in mounts {
            inst.nfs.mount(&m);
        }

        // The GO endpoint for the cluster.
        if let Some(ep_name) = topology.go_endpoint.clone() {
            let head_node = inst.head().node;
            // Re-registering after stop/terminate cycles is allowed; a
            // duplicate on first start is a real error.
            match self
                .transfer
                .endpoints
                .register(&ep_name, head_node, EndpointKind::GridFtpServer)
            {
                Ok(_) => {}
                Err(cumulus_transfer::EndpointError::Duplicate(_)) => {
                    self.transfer.endpoints.unregister(&ep_name)?;
                    self.transfer.endpoints.register(
                        &ep_name,
                        head_node,
                        EndpointKind::GridFtpServer,
                    )?;
                }
                Err(e) => return Err(e.into()),
            }
            let inst = self.instances.get_mut(id).expect("exists");
            inst.endpoint = Some(ep_name);
        }

        let inst = self.instances.get_mut(id).expect("exists");
        inst.state = GpState::Running;
        inst.ready_at = Some(ready_at);
        inst.log.push(format!(
            "Starting instance {id}... done! (ready at {ready_at})"
        ));

        Ok(DeployReport {
            ready_at,
            host_times,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn create_assigns_gpi_ids() {
        let mut world = GpCloud::deterministic(1);
        let a = world.create_instance(Topology::single_node(InstanceType::M1Small));
        let b = world.create_instance(Topology::single_node(InstanceType::M1Small));
        assert_eq!(a.0, "gpi-02156188", "the paper's id comes first");
        assert_ne!(a, b);
        assert_eq!(world.instance(&a).unwrap().state, GpState::New);
    }

    #[test]
    fn single_node_deployment_matches_figure10_small() {
        // Figure 10: deploying Galaxy + Globus Transfer + bioinformatics
        // tools on an m1.small takes 8.8 minutes.
        let mut world = GpCloud::deterministic(7);
        let id = world.create_instance(Topology::single_node(InstanceType::M1Small));
        let report = world.start_instance(t0(), &id).unwrap();
        let mins = report.duration_from(t0()).as_mins_f64();
        assert!(
            (mins - 8.8).abs() < 0.45,
            "small deploy took {mins} min, paper says 8.8"
        );
        let inst = world.instance(&id).unwrap();
        assert_eq!(inst.state, GpState::Running);
        assert_eq!(inst.hosts.len(), 1);
        assert_eq!(inst.pool.machines().count(), 1, "head is an execute node");
        assert_eq!(inst.endpoint.as_deref(), Some("cvrg#galaxy"));
    }

    #[test]
    fn xlarge_deploys_faster_like_figure10() {
        let mut world = GpCloud::deterministic(7);
        let small = world.create_instance(Topology::single_node(InstanceType::M1Small));
        let xlarge = world.create_instance(Topology::single_node(InstanceType::M1Xlarge));
        let rs = world.start_instance(t0(), &small).unwrap();
        let rx = world.start_instance(t0(), &xlarge).unwrap();
        let small_mins = rs.duration_from(t0()).as_mins_f64();
        let xl_mins = rx.duration_from(t0()).as_mins_f64();
        assert!(xl_mins < small_mins);
        assert!(
            (xl_mins - 4.9).abs() < 0.5,
            "xlarge deploy {xl_mins} min, paper 4.9"
        );
    }

    #[test]
    fn figure3_topology_brings_up_cluster() {
        let mut world = GpCloud::deterministic(3);
        let id = world.create_instance(Topology::figure3());
        let report = world.start_instance(t0(), &id).unwrap();
        let inst = world.instance(&id).unwrap();
        assert_eq!(inst.hosts.len(), 3, "head + 2 workers");
        assert_eq!(inst.pool.machines().count(), 3);
        assert_eq!(inst.workers().len(), 2);
        assert_eq!(inst.nfs.mount_count(), 3);
        // Users got credentials usable with the transfer service.
        assert!(world
            .transfer
            .credentials
            .verify("user1", report.ready_at)
            .is_ok());
        assert!(world
            .transfer
            .credentials
            .verify("user2", report.ready_at)
            .is_ok());
        // Workers wait for the head's NFS export.
        let head_ready = inst.head().ready_at;
        for w in inst.workers() {
            assert!(w.ready_at >= head_ready.min(w.ready_at));
        }
    }

    #[test]
    fn start_twice_is_invalid() {
        let mut world = GpCloud::deterministic(5);
        let id = world.create_instance(Topology::single_node(InstanceType::T1Micro));
        world.start_instance(t0(), &id).unwrap();
        assert!(matches!(
            world.start_instance(t0() + SimDuration::from_hours(1), &id),
            Err(GpError::InvalidState { op: "start", .. })
        ));
    }

    #[test]
    fn unknown_instance_errors() {
        let mut world = GpCloud::deterministic(5);
        let ghost = GpInstanceId("gpi-ffffffff".to_string());
        assert!(matches!(
            world.start_instance(t0(), &ghost),
            Err(GpError::UnknownInstance(_))
        ));
        assert!(world.instance(&ghost).is_err());
    }

    #[test]
    fn describe_lists_hosts() {
        let mut world = GpCloud::deterministic(5);
        let id = world.create_instance(Topology::figure3());
        world.start_instance(t0(), &id).unwrap();
        let desc = world.instance(&id).unwrap().describe();
        assert!(desc.contains("galaxy"));
        assert!(desc.contains("worker-0"));
        assert!(desc.contains("simple-galaxy-condor"));
    }

    #[test]
    fn deployment_cost_accrues_on_billing_ledger() {
        let mut world = GpCloud::deterministic(5);
        let id = world.create_instance(Topology::single_node(InstanceType::M1Small));
        let report = world.start_instance(t0(), &id).unwrap();
        let cost = world
            .ec2
            .total_cost(cumulus_cloud::BillingMode::PerSecond, report.ready_at);
        assert!(cost > 0.0);
        // ≈ 8.8 min of m1.small.
        assert!((cost - 0.04 * 8.8 / 60.0).abs() < 0.002, "cost={cost}");
    }
}
