//! The paper's §V use case, packaged as a reusable harness.
//!
//! A [`UseCaseScenario`] wires every subsystem together the way the paper
//! does: a GP instance deployed on the simulated EC2, a Galaxy server on
//! the instance's head node with the CRData toolset registered, the user's
//! laptop and the remote `galaxy#CVRG-Galaxy` data endpoint on the network,
//! and Globus Online credentials for the user. Examples, integration tests
//! and the benchmark binaries all drive their experiments through it.

use std::collections::BTreeMap;

use cumulus_cloud::InstanceType;
use cumulus_crdata::datagen::{generate_cel_bundle, CelBundleSpec};
use cumulus_galaxy::{DatasetId, GalaxyError, GalaxyJobId, GalaxyServer, HistoryId};
use cumulus_net::DataSize;
use cumulus_provision::{DeployReport, GpCloud, GpError, GpInstanceId, Topology};
use cumulus_simkit::time::SimTime;
use cumulus_transfer::EndpointKind;

/// Everything the use case needs, assembled.
pub struct UseCaseScenario {
    /// The cloud world (EC2, network, transfer service, GP instances).
    pub world: GpCloud,
    /// The deployed GP instance.
    pub instance: GpInstanceId,
    /// The Galaxy application on the instance's head node.
    pub galaxy: GalaxyServer,
    /// The experimenter (matching Galaxy and Globus Online usernames).
    pub user: String,
    /// The working history.
    pub history: HistoryId,
    /// The remote data endpoint holding the CVRG datasets.
    pub remote_endpoint: String,
    /// The user's laptop endpoint (Globus Connect).
    pub laptop_endpoint: String,
    /// Master seed (used to derive dataset-generation streams).
    pub seed: u64,
}

/// Errors from scenario assembly or steps.
#[derive(Debug)]
pub enum ScenarioError {
    /// Provisioning failed.
    Gp(GpError),
    /// A Galaxy operation failed.
    Galaxy(GalaxyError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Gp(e) => write!(f, "{e}"),
            ScenarioError::Galaxy(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<GpError> for ScenarioError {
    fn from(e: GpError) -> Self {
        ScenarioError::Gp(e)
    }
}
impl From<GalaxyError> for ScenarioError {
    fn from(e: GalaxyError) -> Self {
        ScenarioError::Galaxy(e)
    }
}

impl UseCaseScenario {
    /// Deploy the default use-case cluster: an m1.small Galaxy head with
    /// Condor, GridFTP, Globus Transfer tools, and the CRData toolset.
    pub fn deploy(seed: u64, now: SimTime) -> Result<(Self, DeployReport), ScenarioError> {
        Self::deploy_with(seed, now, Topology::single_node(InstanceType::M1Small))
    }

    /// Deploy with an explicit topology.
    pub fn deploy_with(
        seed: u64,
        now: SimTime,
        topology: Topology,
    ) -> Result<(Self, DeployReport), ScenarioError> {
        let mut world = GpCloud::deterministic(seed);
        let user = "boliu".to_string();
        let mut topology = topology;
        if !topology.users.contains(&user) {
            topology.users.push(user.clone());
        }
        let instance = world.create_instance(topology);
        let report = world.start_instance(now, &instance)?;

        // The Galaxy application on the head node.
        let (head_node, endpoint) = {
            let inst = world.instance(&instance)?;
            (inst.head().node, inst.endpoint.clone())
        };
        let mut galaxy = GalaxyServer::new(head_node, endpoint.as_deref());
        cumulus_galaxy::register_globus_tools(&mut galaxy.registry)
            .expect("fresh registry accepts the Globus toolset");
        cumulus_crdata::register_all(&mut galaxy.registry)
            .expect("fresh registry accepts the CRData catalog");
        galaxy.register_user(&user);
        let history = galaxy.create_history(report.ready_at, &user, "cardiovascular analysis")?;

        // Endpoints not explicitly wired below reach each other over the
        // public internet.
        world
            .network
            .set_default_path(cumulus_net::Link::new(50.0, 100.0));

        // The remote CVRG data endpoint and the user's laptop.
        let remote_node = world.network.add_node("cvrg-data-server");
        world
            .network
            .connect(remote_node, head_node, cumulus_transfer::inter_site_link());
        let remote_endpoint = "galaxy#CVRG-Galaxy".to_string();
        let _ = world.transfer.endpoints.register(
            &remote_endpoint,
            remote_node,
            EndpointKind::GridFtpServer,
        );

        let laptop_node = world.network.add_node("boliu-laptop");
        world.network.connect(
            laptop_node,
            head_node,
            cumulus_transfer::calibrated_wan_link(),
        );
        let laptop_endpoint = "boliu#laptop".to_string();
        let _ = world.transfer.endpoints.register(
            &laptop_endpoint,
            laptop_node,
            EndpointKind::GlobusConnect,
        );

        Ok((
            UseCaseScenario {
                world,
                instance,
                galaxy,
                user,
                history,
                remote_endpoint,
                laptop_endpoint,
                seed,
            },
            report,
        ))
    }

    /// Step 1–2 of the use case: "Get Data via Globus Online" pulls
    /// `fourCelFileSamples.zip` (10.7 MB) from the CVRG endpoint into
    /// Galaxy. Returns the dataset and when it becomes available.
    pub fn transfer_four_cel_samples(
        &mut self,
        now: SimTime,
    ) -> Result<(DatasetId, SimTime), ScenarioError> {
        self.transfer_bundle(
            now,
            &CelBundleSpec::four_cel_samples(),
            "fourCelFileSamples.zip",
        )
    }

    /// Step 4's larger dataset: `affyCelFileSamples.zip` (190.3 MB).
    pub fn transfer_affy_cel_samples(
        &mut self,
        now: SimTime,
    ) -> Result<(DatasetId, SimTime), ScenarioError> {
        self.transfer_bundle(
            now,
            &CelBundleSpec::affy_cel_samples(),
            "affyCelFileSamples.zip",
        )
    }

    /// Transfer a generated CEL bundle from the remote endpoint.
    pub fn transfer_bundle(
        &mut self,
        now: SimTime,
        spec: &CelBundleSpec,
        file_name: &str,
    ) -> Result<(DatasetId, SimTime), ScenarioError> {
        let mut rng = self.world.seeds().stream(&format!("bundle/{file_name}"));
        let bundle = generate_cel_bundle(spec, &mut rng);
        let content = cumulus_crdata::matrix_to_content(bundle.matrix);
        let GpCloud {
            ref mut transfer,
            ref network,
            ..
        } = self.world;
        let (dataset, _task, when) = self.galaxy.get_data_via_globus(
            now,
            &self.user,
            self.history,
            transfer,
            network,
            (&self.remote_endpoint, &format!("/home/boliu/{file_name}")),
            spec.archive_size,
            content,
            None,
        )?;
        Ok((dataset, when))
    }

    /// Step 3: run `affyDifferentialExpression.R` on a dataset and drive
    /// the Condor pool until the job finishes. Returns the Galaxy job and
    /// its completion time.
    pub fn run_differential_expression(
        &mut self,
        now: SimTime,
        dataset: DatasetId,
    ) -> Result<(GalaxyJobId, SimTime), ScenarioError> {
        let mut params = BTreeMap::new();
        params.insert("input".to_string(), dataset.0.to_string());
        let pool = &mut self.world.instance_mut(&self.instance)?.pool;
        let job = self.galaxy.run_tool(
            now,
            &self.user,
            self.history,
            "crdata_affyDifferentialExpression",
            &params,
            pool,
        )?;
        let done = self
            .galaxy
            .drive_jobs(now, pool)
            .ok_or(ScenarioError::Galaxy(GalaxyError::UnknownJob(job)))?;
        Ok((job, done))
    }

    /// The paper's `gp-instance-update`: grow the cluster by one
    /// c1.medium worker. Returns when the new node has joined the pool.
    pub fn add_medium_worker(&mut self, now: SimTime) -> Result<SimTime, ScenarioError> {
        let target = self
            .world
            .instance(&self.instance)?
            .topology
            .with_json_update(&format!(
                r#"{{"domains":{{"simple":{{"cluster-nodes":{},"worker-instance-type":"c1.medium"}}}}}}"#,
                self.world.instance(&self.instance)?.topology.workers.len() + 1
            ))
            .map_err(GpError::from)?;
        let report = self.world.update_instance(now, &self.instance, target)?;
        Ok(report.done_at(now))
    }

    /// Total EC2 spend attributable to the window `[from, to)`.
    pub fn window_cost(&self, from: SimTime, to: SimTime) -> f64 {
        self.world.ec2.ledger.window_cost(from, to)
    }
}

/// The two dataset sizes of the use case, for reference in reports.
pub fn paper_dataset_sizes() -> (DataSize, DataSize) {
    (DataSize::from_mb_f64(10.7), DataSize::from_mb_f64(190.3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_deploys_and_runs_step3() {
        let (mut s, report) = UseCaseScenario::deploy(1, SimTime::ZERO).unwrap();
        assert!(report.ready_at > SimTime::ZERO);
        let (dataset, arrived) = s.transfer_four_cel_samples(report.ready_at).unwrap();
        assert!(arrived > report.ready_at);
        let (job, done) = s.run_differential_expression(arrived, dataset).unwrap();
        assert!(done > arrived);
        let j = s.galaxy.job(job).unwrap();
        assert_eq!(j.state, cumulus_galaxy::GalaxyJobState::Ok);
        // The top table is a real artifact.
        let table = s.galaxy.dataset(j.outputs[0]).unwrap();
        assert!(table.content.as_table().is_some());
    }

    #[test]
    fn combined_steps_match_figure10_small_timing() {
        let (mut s, report) = UseCaseScenario::deploy(2, SimTime::ZERO).unwrap();
        let t0 = report.ready_at;
        let (ds_small, t1) = s.transfer_four_cel_samples(t0).unwrap();
        let (_, t2) = s.run_differential_expression(t1, ds_small).unwrap();
        let (ds_large, t3) = s.transfer_affy_cel_samples(t2).unwrap();
        let (_, t4) = s.run_differential_expression(t3, ds_large).unwrap();
        let exec_mins = (t2.since(t1) + t4.since(t3)).as_mins_f64();
        assert!(
            (exec_mins - 10.7).abs() < 0.2,
            "steps 3+4 on m1.small took {exec_mins} min; paper says 10.7"
        );
    }

    #[test]
    fn adding_medium_worker_speeds_up_to_6_9_minutes() {
        let (mut s, report) = UseCaseScenario::deploy(3, SimTime::ZERO).unwrap();
        let joined = s.add_medium_worker(report.ready_at).unwrap();
        let (ds_small, t1) = s.transfer_four_cel_samples(joined).unwrap();
        let (_, t2) = s.run_differential_expression(t1, ds_small).unwrap();
        let (ds_large, t3) = s.transfer_affy_cel_samples(t2).unwrap();
        let (_, t4) = s.run_differential_expression(t3, ds_large).unwrap();
        let exec_mins = (t2.since(t1) + t4.since(t3)).as_mins_f64();
        assert!(
            (exec_mins - 6.9).abs() < 0.2,
            "steps 3+4 with a c1.medium worker took {exec_mins} min; paper says 6.9"
        );
    }
}
