//! # cumulus
//!
//! A from-scratch Rust reproduction of *"Deploying Bioinformatics
//! Workflows on Clouds with Galaxy and Globus Provision"* (Liu, Madduri,
//! Chard, Sotomayor, Foster — SC 2012).
//!
//! The paper deploys the Galaxy workflow platform on Amazon EC2 with
//! Globus Provision, integrates Globus Transfer for fast data movement,
//! and adds the CRData statistical toolset for cardiovascular research.
//! None of those systems can run here (they need an AWS account, the
//! hosted Globus Online service, and 2012 hardware), so **every layer is
//! re-implemented** on a deterministic discrete-event simulation:
//!
//! | crate | reproduces |
//! |---|---|
//! | [`simkit`] | the DES kernel (virtual time, seeded RNG streams, metrics, fault plans) |
//! | [`net`] | links, a TCP throughput model |
//! | [`cloud`] | EC2: instance types, lifecycle, billing |
//! | [`chef`] | Chef: resources, recipes, cookbooks, converge |
//! | [`nfs`] | the shared NFS/NIS filesystem |
//! | [`store`] | the content-addressed data plane: object store, worker caches, staging |
//! | [`htc`] | Condor: ClassAds, matchmaking, dynamic pools, DAGs |
//! | [`transfer`] | GridFTP/FTP/HTTP + the Globus Online transfer service |
//! | [`provision`] | Globus Provision: topologies, deploy, elastic update |
//! | [`autoscale`] | closed-loop elasticity: policies, controller, workloads |
//! | [`galaxy`] | Galaxy: tools, histories, workflows, provenance, sharing |
//! | [`crdata`] | the 35 CRData statistical tools + bioinformatics substrate |
//! | [`federation`] | multi-site deployments: WAN model, cross-site staging, placement |
//!
//! The [`scenario`] module assembles them into the paper's §V use case; the
//! `cumulus-bench` crate regenerates every figure (see EXPERIMENTS.md).
//!
//! ## Quickstart
//!
//! ```
//! use cumulus::scenario::UseCaseScenario;
//! use cumulus::simkit::time::SimTime;
//!
//! let (mut scenario, report) = UseCaseScenario::deploy(42, SimTime::ZERO).unwrap();
//! println!("cluster ready after {}", report.duration_from(SimTime::ZERO));
//! let (dataset, arrived) = scenario.transfer_four_cel_samples(report.ready_at).unwrap();
//! let (_job, done) = scenario.run_differential_expression(arrived, dataset).unwrap();
//! assert!(done > arrived);
//! ```

pub use cumulus_autoscale as autoscale;
pub use cumulus_chef as chef;
pub use cumulus_cloud as cloud;
pub use cumulus_crdata as crdata;
pub use cumulus_federation as federation;
pub use cumulus_galaxy as galaxy;
pub use cumulus_htc as htc;
pub use cumulus_net as net;
pub use cumulus_nfs as nfs;
pub use cumulus_provision as provision;
pub use cumulus_simkit as simkit;
pub use cumulus_store as store;
pub use cumulus_transfer as transfer;

pub mod scenario;
