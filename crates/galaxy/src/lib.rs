//! `cumulus-galaxy` — a Galaxy-like scientific workflow platform.
//!
//! Reproduces the Galaxy features the paper relies on (§II, §IV):
//!
//! * [`dataset`] — datasets with **real content** (tables, matrices, SVG
//!   plots, archives), so tool outputs are verifiable artifacts;
//! * [`tool`] — declarative tool definitions: typed parameters (from which
//!   the web form model is generated), outputs, a calibrated cost model,
//!   and the real Rust behavior behind each tool;
//! * [`registry`] — the tool panel;
//! * [`history`] / [`user`] — per-user workspaces with quotas;
//! * [`job`] + [`server`] — the application server: tool dispatch to a
//!   Condor pool, pending-output lifecycle, real execution on completion
//!   (each distinct invocation once, through a private tool-run memo),
//!   and the three Globus Transfer tools plus FTP/HTTP uploads;
//! * [`workflow`] — DAG workflows scheduled through the pool;
//! * [`checkpoint`] — restartable run snapshots plus resume through the
//!   data plane's recovery ladder (local cache → peer → object store);
//! * [`routing`] — the invocation-routing seam: which site's pool runs
//!   a submission (single-region deployments use [`SingleSite`]; the
//!   federation crate plugs in its placement policies);
//! * [`provenance`] — complete input/parameter/order capture per output;
//! * [`sharing`] — histories/datasets/workflows shared via links, and
//!   Pages embedding analysis artifacts.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod dataset;
pub mod globus_tools;
pub mod history;
pub mod job;
mod memo;
pub mod provenance;
pub mod registry;
pub mod routing;
pub mod server;
pub mod sharing;
pub mod tool;
pub mod user;
pub mod workflow;

pub use checkpoint::{
    resume_workflow, OutputRef, RecoveryDecision, RecoveryPlan, ResumeReport, StepCheckpoint,
    WorkflowCheckpoint,
};
pub use dataset::{Content, Dataset, DatasetId, DatasetState};
pub use globus_tools::{get_data_tool, go_transfer_tool, register_globus_tools, send_data_tool};
pub use history::{History, HistoryId};
pub use job::{GalaxyJob, GalaxyJobId, GalaxyJobState};
pub use provenance::{CyclicProvenance, ProvenanceRecord, ProvenanceStore};
pub use registry::{RegistryError, ToolRegistry};
pub use routing::{InvocationRequest, InvocationRouter, SingleSite, SiteSnapshot};
pub use server::{GalaxyError, GalaxyServer};
pub use sharing::{Page, ShareItem, SharingModel, Visibility};
pub use tool::{
    CostModel, OutputMismatch, OutputSpec, ParamKind, ParamSpec, ToolBehavior, ToolDefinition,
    ToolError, ToolInvocation, ToolOutput,
};
pub use user::GalaxyUser;
pub use workflow::{run_workflow, Binding, Workflow, WorkflowRunResult, WorkflowStep};
