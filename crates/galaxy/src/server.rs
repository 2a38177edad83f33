//! The Galaxy application server.
//!
//! Owns users, histories, datasets, the tool panel, jobs, and sharing;
//! dispatches tool executions to a Condor pool; and moves data in
//! and out through the transfer substrate (Globus Transfer, FTP, HTTP).
//!
//! Execution model: `run_tool` resolves and validates parameters, creates
//! *pending* output datasets in the history (exactly like Galaxy's grey
//! boxes), and submits a Condor job sized by the tool's cost model. When
//! the pool reports the job finished, `on_condor_completion` runs the
//! tool's **real** behavior on the real input contents, fills in the
//! outputs, and marks the job Ok. The finished job record is the outputs'
//! provenance (see the `provenance` module). Each distinct invocation runs
//! once: later identical completions share its outputs through the
//! server's tool-run memo (see the `memo` module).

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use cumulus_htc::{
    CondorPool, Job as CondorJob, JobId as CondorJobId, Value as AdValue, JOB_INPUT_CIDS_ATTR,
};
use cumulus_net::{DataSize, Network, NodeId};
use cumulus_simkit::time::SimTime;
use cumulus_store::{cid_list, ContentId};
use cumulus_transfer::{
    Protocol, TaskId, TaskStatus, TransferError, TransferRequest, TransferService,
};

use crate::dataset::{Content, ContentBody, Dataset, DatasetId, DatasetState};
use crate::history::{History, HistoryId};
use crate::job::{GalaxyJob, GalaxyJobId, GalaxyJobState};
use crate::memo::ToolMemo;
use crate::registry::{RegistryError, ToolRegistry};
use crate::sharing::{ShareItem, SharingModel};
use crate::tool::{OutputMismatch, ParamKind, ToolInvocation, ToolOutput};
use crate::user::GalaxyUser;

/// Errors from server operations.
#[derive(Debug)]
pub enum GalaxyError {
    /// No such user.
    UnknownUser(String),
    /// No such history.
    UnknownHistory(HistoryId),
    /// No such dataset.
    UnknownDataset(DatasetId),
    /// No such job.
    UnknownJob(GalaxyJobId),
    /// Tool lookup failed.
    Registry(RegistryError),
    /// Parameter validation or execution failure.
    Tool(crate::tool::ToolError),
    /// The user's quota would be exceeded.
    QuotaExceeded {
        /// Who.
        user: String,
        /// The offending size.
        size: DataSize,
    },
    /// A transfer failed to submit.
    Transfer(TransferError),
    /// A dataset is not in the `Ok` state.
    DatasetNotReady(DatasetId),
    /// HTTP uploads over 2 GB are refused by Galaxy.
    UploadTooLarge(DataSize),
    /// A Globus operation needs this server to have a registered endpoint.
    NoEndpoint,
    /// The transfer service has no record of a task it just accepted.
    TransferTaskMissing(TaskId),
}

impl std::fmt::Display for GalaxyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GalaxyError::UnknownUser(u) => write!(f, "unknown user {u:?}"),
            GalaxyError::UnknownHistory(h) => write!(f, "unknown {h}"),
            GalaxyError::UnknownDataset(d) => write!(f, "unknown {d}"),
            GalaxyError::UnknownJob(j) => write!(f, "unknown {j}"),
            GalaxyError::Registry(e) => write!(f, "{e}"),
            GalaxyError::Tool(e) => write!(f, "{e}"),
            GalaxyError::QuotaExceeded { user, size } => {
                write!(f, "{user} would exceed quota adding {size}")
            }
            GalaxyError::Transfer(e) => write!(f, "{e}"),
            GalaxyError::DatasetNotReady(d) => write!(f, "{d} is not ready"),
            GalaxyError::UploadTooLarge(s) => {
                write!(f, "files larger than 2GB cannot be uploaded directly ({s})")
            }
            GalaxyError::NoEndpoint => write!(f, "galaxy server has no Globus endpoint"),
            GalaxyError::TransferTaskMissing(t) => {
                write!(f, "transfer service lost track of {t}")
            }
        }
    }
}

impl std::error::Error for GalaxyError {}

impl From<RegistryError> for GalaxyError {
    fn from(e: RegistryError) -> Self {
        GalaxyError::Registry(e)
    }
}
impl From<crate::tool::ToolError> for GalaxyError {
    fn from(e: crate::tool::ToolError) -> Self {
        GalaxyError::Tool(e)
    }
}
impl From<TransferError> for GalaxyError {
    fn from(e: TransferError) -> Self {
        GalaxyError::Transfer(e)
    }
}

/// A submitted Galaxy job waiting on its Condor job.
struct InFlight {
    job: GalaxyJobId,
    /// Each dataset input's content id at submission, by parameter name.
    input_cids: BTreeMap<String, ContentId>,
    /// The declared output names, paired with `GalaxyJob::outputs`.
    output_names: Vec<String>,
}

/// The server.
pub struct GalaxyServer {
    /// Registered users.
    users: BTreeMap<String, GalaxyUser>,
    histories: BTreeMap<HistoryId, History>,
    datasets: BTreeMap<DatasetId, Dataset>,
    /// The tool panel.
    pub registry: ToolRegistry,
    jobs: BTreeMap<GalaxyJobId, GalaxyJob>,
    /// Sharing model.
    pub sharing: SharingModel,
    condor_to_galaxy: BTreeMap<CondorJobId, InFlight>,
    memo: ToolMemo,
    next_history: u64,
    next_dataset: u64,
    next_job: u64,
    next_api_key: u64,
    next_workflow: u64,
    /// The server's network node (where its GridFTP endpoint lives).
    pub node: NodeId,
    /// The server's Globus endpoint name, if one is registered.
    pub endpoint: Option<String>,
}

impl GalaxyServer {
    /// A server hosted at `node`, optionally with a Globus endpoint name.
    pub fn new(node: NodeId, endpoint: Option<&str>) -> Self {
        GalaxyServer {
            users: BTreeMap::new(),
            histories: BTreeMap::new(),
            datasets: BTreeMap::new(),
            registry: ToolRegistry::new(),
            jobs: BTreeMap::new(),
            sharing: SharingModel::new(),
            condor_to_galaxy: BTreeMap::new(),
            memo: ToolMemo::default(),
            next_history: 1,
            next_dataset: 1,
            next_job: 1,
            next_api_key: 1,
            next_workflow: 1,
            node,
            endpoint: endpoint.map(str::to_string),
        }
    }

    /// The next workflow-run serial, used as the telemetry span id for
    /// [`run_workflow`](crate::workflow::run_workflow) invocations.
    pub(crate) fn next_workflow_id(&mut self) -> u64 {
        let id = self.next_workflow;
        self.next_workflow += 1;
        id
    }

    // ----- users & histories -------------------------------------------

    /// Register a user (username must match the Globus Online account for
    /// transfers to work, per §IV.A).
    pub fn register_user(&mut self, username: &str) -> &GalaxyUser {
        let key = self.next_api_key;
        self.next_api_key += 1;
        self.users
            .entry(username.to_string())
            .or_insert_with(|| GalaxyUser::new(username, key))
    }

    /// Look up a user.
    pub fn user(&self, username: &str) -> Result<&GalaxyUser, GalaxyError> {
        self.users
            .get(username)
            .ok_or_else(|| GalaxyError::UnknownUser(username.to_string()))
    }

    /// Create a history for a user.
    pub fn create_history(
        &mut self,
        now: SimTime,
        username: &str,
        name: &str,
    ) -> Result<HistoryId, GalaxyError> {
        self.user(username)?;
        let id = HistoryId(self.next_history);
        self.next_history += 1;
        self.histories
            .insert(id, History::new(id, name, username, now));
        self.sharing.own(ShareItem::History(id), username);
        Ok(id)
    }

    /// Look up a history.
    pub fn history(&self, id: HistoryId) -> Result<&History, GalaxyError> {
        self.histories
            .get(&id)
            .ok_or(GalaxyError::UnknownHistory(id))
    }

    /// Look up a dataset.
    pub fn dataset(&self, id: DatasetId) -> Result<&Dataset, GalaxyError> {
        self.datasets
            .get(&id)
            .ok_or(GalaxyError::UnknownDataset(id))
    }

    /// Mutable access to a dataset, for in-place edits. A job already
    /// submitted on it runs on the content it holds at completion.
    pub fn dataset_mut(&mut self, id: DatasetId) -> Result<&mut Dataset, GalaxyError> {
        self.datasets
            .get_mut(&id)
            .ok_or(GalaxyError::UnknownDataset(id))
    }

    /// Look up a job.
    pub fn job(&self, id: GalaxyJobId) -> Result<&GalaxyJob, GalaxyError> {
        self.jobs.get(&id).ok_or(GalaxyError::UnknownJob(id))
    }

    /// Find the most recent successful run of `tool_id` with exactly these
    /// resolved parameters whose outputs all still exist, are Ok, and name
    /// the job as their producer. This is how a workflow
    /// checkpoint re-identifies a step's invocation after the fact, without
    /// threading workflow ids through the job table.
    pub fn find_completed_invocation(
        &self,
        tool_id: &str,
        params: &BTreeMap<String, String>,
    ) -> Option<&GalaxyJob> {
        self.jobs.values().rev().find(|j| {
            j.tool_id == tool_id
                && j.state == GalaxyJobState::Ok
                && j.params == *params
                && !j.outputs.is_empty()
                && j.outputs.iter().all(|o| {
                    self.datasets
                        .get(o)
                        .is_some_and(|d| d.state == DatasetState::Ok && d.produced_by == Some(j.id))
                })
        })
    }

    /// Render a history panel.
    pub fn history_panel(&self, id: HistoryId) -> Result<String, GalaxyError> {
        let h = self.history(id)?;
        let mut out = format!("History: {} ({})\n", h.name, h.owner);
        for ds_id in &h.items {
            if let Some(ds) = self.datasets.get(ds_id) {
                out.push_str(&format!("  {}\n", ds.history_line()));
            }
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_dataset(
        &mut self,
        now: SimTime,
        history: HistoryId,
        name: &str,
        dtype: &str,
        size: DataSize,
        content: Content,
        state: DatasetState,
        produced_by: Option<GalaxyJobId>,
    ) -> Result<DatasetId, GalaxyError> {
        let owner = self.history(history)?.owner.clone();
        {
            let user = self
                .users
                .get_mut(&owner)
                .ok_or(GalaxyError::UnknownUser(owner.clone()))?;
            if user.over_quota_with(size) {
                return Err(GalaxyError::QuotaExceeded { user: owner, size });
            }
            user.charge(size);
        }
        let id = DatasetId(self.next_dataset);
        self.next_dataset += 1;
        let hid = self.histories.get_mut(&history).expect("checked").push(id);
        self.datasets.insert(
            id,
            Dataset {
                id,
                hid,
                name: name.to_string(),
                dtype: dtype.to_string(),
                size,
                state,
                content,
                created_at: now,
                produced_by,
            },
        );
        self.sharing.own(ShareItem::Dataset(id), &owner);
        Ok(id)
    }

    /// Directly add a ready dataset (used by generators and tests).
    pub fn add_dataset(
        &mut self,
        now: SimTime,
        history: HistoryId,
        name: &str,
        dtype: &str,
        size: DataSize,
        content: Content,
    ) -> Result<DatasetId, GalaxyError> {
        self.insert_dataset(
            now,
            history,
            name,
            dtype,
            size,
            content,
            DatasetState::Ok,
            None,
        )
    }

    // ----- uploads -------------------------------------------------------

    /// Upload via the Galaxy web form (HTTP). Refuses > 2 GB. Returns the
    /// dataset and the time it becomes available.
    #[allow(clippy::too_many_arguments)]
    pub fn upload_http(
        &mut self,
        now: SimTime,
        history: HistoryId,
        name: &str,
        dtype: &str,
        size: DataSize,
        content: Content,
        network: &Network,
        from: NodeId,
    ) -> Result<(DatasetId, SimTime), GalaxyError> {
        let link = network
            .path(from, self.node)
            .unwrap_or(cumulus_transfer::calibrated_wan_link());
        let duration = Protocol::Http
            .transfer_duration(size, &link)
            .ok_or(GalaxyError::UploadTooLarge(size))?;
        let done = now + duration;
        let id = self.insert_dataset(
            done,
            history,
            name,
            dtype,
            size,
            content,
            DatasetState::Ok,
            None,
        )?;
        Ok((id, done))
    }

    /// Upload via Galaxy's FTP import directory.
    #[allow(clippy::too_many_arguments)]
    pub fn upload_ftp(
        &mut self,
        now: SimTime,
        history: HistoryId,
        name: &str,
        dtype: &str,
        size: DataSize,
        content: Content,
        network: &Network,
        from: NodeId,
    ) -> Result<(DatasetId, SimTime), GalaxyError> {
        let link = network
            .path(from, self.node)
            .unwrap_or(cumulus_transfer::calibrated_wan_link());
        let duration = Protocol::Ftp
            .transfer_duration(size, &link)
            .ok_or(GalaxyError::UploadTooLarge(size))?;
        let done = now + duration;
        let id = self.insert_dataset(
            done,
            history,
            name,
            dtype,
            size,
            content,
            DatasetState::Ok,
            None,
        )?;
        Ok((id, done))
    }

    /// "Get Data via Globus Online": transfer from a remote endpoint into
    /// this Galaxy server; the file "is manifested as a Galaxy dataset in
    /// the history panel". Returns the dataset, the transfer task, and the
    /// availability time.
    #[allow(clippy::too_many_arguments)]
    pub fn get_data_via_globus(
        &mut self,
        now: SimTime,
        username: &str,
        history: HistoryId,
        service: &mut TransferService,
        network: &Network,
        source: (&str, &str),
        size: DataSize,
        content: Content,
        deadline: Option<SimTime>,
    ) -> Result<(DatasetId, TaskId, SimTime), GalaxyError> {
        self.user(username)?;
        let endpoint = self.endpoint.clone().ok_or(GalaxyError::NoEndpoint)?;
        let file_name = source.1.rsplit('/').next().unwrap_or(source.1).to_string();
        let mut request = TransferRequest::globus(
            username,
            source,
            (&endpoint, &format!("/nfs/home/{username}/{file_name}")),
            size,
        );
        if let Some(d) = deadline {
            request = request.with_deadline(d);
        }
        let task_id = service.submit(now, network, request)?;
        let task = service
            .task(task_id)
            .ok_or(GalaxyError::TransferTaskMissing(task_id))?;
        let (state, when) = match task.status {
            TaskStatus::Succeeded => (DatasetState::Ok, task.finished_at),
            _ => (DatasetState::Error, task.finished_at),
        };
        let dtype = file_name.rsplit('.').next().unwrap_or("data").to_string();
        let id = self.insert_dataset(
            when, history, &file_name, &dtype, size, content, state, None,
        )?;
        Ok((id, task_id, when))
    }

    /// "Send Data via Globus Online": transfer a dataset from this server
    /// to a remote endpoint.
    pub fn send_data_via_globus(
        &mut self,
        now: SimTime,
        username: &str,
        dataset: DatasetId,
        service: &mut TransferService,
        network: &Network,
        destination: (&str, &str),
    ) -> Result<(TaskId, SimTime), GalaxyError> {
        self.user(username)?;
        let endpoint = self.endpoint.clone().ok_or(GalaxyError::NoEndpoint)?;
        let ds = self.dataset(dataset)?;
        if ds.state != DatasetState::Ok {
            return Err(GalaxyError::DatasetNotReady(dataset));
        }
        let request = TransferRequest::globus(
            username,
            (&endpoint, &format!("/nfs/datasets/{}", ds.name)),
            destination,
            ds.size,
        );
        let task_id = service.submit(now, network, request)?;
        let finished = service
            .task(task_id)
            .ok_or(GalaxyError::TransferTaskMissing(task_id))?
            .finished_at;
        Ok((task_id, finished))
    }

    /// "GO Transfer": third-party transfer between two remote endpoints,
    /// tracked in the history as a dataset stub.
    #[allow(clippy::too_many_arguments)]
    pub fn go_transfer(
        &mut self,
        now: SimTime,
        username: &str,
        history: HistoryId,
        service: &mut TransferService,
        network: &Network,
        source: (&str, &str),
        destination: (&str, &str),
        size: DataSize,
        deadline: Option<SimTime>,
    ) -> Result<(DatasetId, TaskId, SimTime), GalaxyError> {
        self.user(username)?;
        let mut request = TransferRequest::globus(username, source, destination, size);
        if let Some(d) = deadline {
            request = request.with_deadline(d);
        }
        let task_id = service.submit(now, network, request)?;
        let task = service
            .task(task_id)
            .ok_or(GalaxyError::TransferTaskMissing(task_id))?;
        let (state, when) = match task.status {
            TaskStatus::Succeeded => (DatasetState::Ok, task.finished_at),
            _ => (DatasetState::Error, task.finished_at),
        };
        let name = format!("GO transfer: {} -> {}", source.0, destination.0);
        let id = self.insert_dataset(
            when,
            history,
            &name,
            "txt",
            DataSize::ZERO,
            Content::new(ContentBody::Text(format!("{:?}", task.status))),
            state,
            None,
        )?;
        Ok((id, task_id, when))
    }

    // ----- tool execution -------------------------------------------------

    /// Parse a dataset reference parameter value (`dataset-7` or `7`).
    fn parse_dataset_ref(value: &str) -> Option<DatasetId> {
        let raw = value.strip_prefix("dataset-").unwrap_or(value);
        raw.parse().ok().map(DatasetId)
    }

    /// Submit a tool execution. Outputs appear immediately as pending
    /// datasets; the Condor job carries the calibrated work spec.
    pub fn run_tool(
        &mut self,
        now: SimTime,
        username: &str,
        history: HistoryId,
        tool_id: &str,
        params: &BTreeMap<String, String>,
        pool: &mut CondorPool,
    ) -> Result<GalaxyJobId, GalaxyError> {
        self.user(username)?;
        self.history(history)?;
        let tool = Arc::clone(self.registry.shared(tool_id)?);
        let resolved = tool.resolve_params(params)?;

        // Gather dataset inputs and their content ids, which key the
        // tool-run memo and drive data-aware matchmaking.
        let mut inputs: BTreeMap<String, DatasetId> = BTreeMap::new();
        let mut input_cids: BTreeMap<String, ContentId> = BTreeMap::new();
        let mut input_size = DataSize::ZERO;
        for spec in &tool.params {
            if spec.kind == ParamKind::DatasetInput {
                if let Some(value) = resolved.get(&spec.name) {
                    let ds_id = Self::parse_dataset_ref(value).ok_or_else(|| {
                        GalaxyError::Tool(crate::tool::ToolError(format!(
                            "{}: {value:?} is not a dataset reference",
                            spec.name
                        )))
                    })?;
                    let ds = self.dataset(ds_id)?;
                    if ds.state != DatasetState::Ok {
                        return Err(GalaxyError::DatasetNotReady(ds_id));
                    }
                    input_size += ds.size;
                    input_cids.insert(spec.name.clone(), ds.content_id());
                    inputs.insert(spec.name.clone(), ds_id);
                }
            }
        }

        let job_id = GalaxyJobId(self.next_job);
        self.next_job += 1;

        // Pre-create pending outputs.
        let mut outputs = Vec::new();
        for out in &tool.outputs {
            let id = self.insert_dataset(
                now,
                history,
                &format!("{} on {}", out.name, tool.name),
                &out.dtype,
                DataSize::ZERO,
                Content::new(ContentBody::Opaque),
                DatasetState::Pending,
                Some(job_id),
            )?;
            outputs.push(id);
        }

        // Dispatch to Condor. The job ad advertises its input content ids
        // (sorted and deduplicated so the ad is deterministic) so
        // cache-warm workers outrank cold ones; pools without cache
        // advertisements score the attribute as zero and match as before.
        let work = tool.cost.work(input_size);
        let mut condor_job = CondorJob::new(username, work);
        if !input_cids.is_empty() {
            let mut ad_cids: Vec<ContentId> = input_cids.values().copied().collect();
            ad_cids.sort_unstable();
            ad_cids.dedup();
            condor_job = condor_job.attr(JOB_INPUT_CIDS_ATTR, AdValue::Str(cid_list(ad_cids)));
        }
        let condor_id = pool.submit(condor_job, now);
        self.condor_to_galaxy.insert(
            condor_id,
            InFlight {
                job: job_id,
                input_cids,
                output_names: tool.outputs.iter().map(|o| o.name.clone()).collect(),
            },
        );

        self.jobs.insert(
            job_id,
            GalaxyJob {
                id: job_id,
                tool_id: tool.id.clone(),
                tool_version: tool.version.clone(),
                user: username.to_string(),
                history,
                params: resolved,
                inputs,
                outputs,
                condor_job: Some(condor_id),
                state: GalaxyJobState::Queued,
                submitted_at: now,
                finished_at: None,
                error: None,
            },
        );
        Ok(job_id)
    }

    /// Notify the server that a Condor job completed; runs the tool's real
    /// behavior (or shares the outputs of an identical earlier run) and
    /// fills in outputs. A tool no longer in the registry fails the job
    /// and its outputs with [`RegistryError::NotFound`]'s message. Returns
    /// the Galaxy job id if the Condor job belonged to this server.
    pub fn on_condor_completion(
        &mut self,
        now: SimTime,
        condor_id: CondorJobId,
    ) -> Option<GalaxyJobId> {
        let InFlight {
            job: job_id,
            input_cids,
            output_names,
        } = self.condor_to_galaxy.remove(&condor_id)?;
        // The job record is read in place: the registry, datasets, memo
        // and users it works with are other fields of the server.
        let job = self.jobs.get_mut(&job_id)?;
        let result = match self.registry.shared(&job.tool_id) {
            Ok(tool) => {
                // Build the invocation from the value parameters and the
                // real input contents, lent by the datasets that hold them.
                let mut inputs = BTreeMap::new();
                let mut input_size = DataSize::ZERO;
                for (name, ds_id) in &job.inputs {
                    if let Some(ds) = self.datasets.get(ds_id) {
                        inputs.insert(name.clone(), &ds.content);
                        input_size += ds.size;
                    }
                }
                let invocation = ToolInvocation {
                    params: job
                        .params
                        .iter()
                        .filter(|(name, _)| !job.inputs.contains_key(*name))
                        .map(|(name, value)| (name.clone(), value.clone()))
                        .collect(),
                    inputs,
                    input_size,
                };
                self.memo
                    .run(input_cids, tool, &invocation)
                    .map_err(|e| e.0)
                    .and_then(|outputs| {
                        pair_outputs(&output_names, &job.outputs, outputs)
                            .map_err(|m| m.to_string())
                    })
                    .map(|paired| (tool, paired))
            }
            Err(e) => Err(e.to_string()),
        };

        job.finished_at = Some(now);
        match result {
            Ok((tool, paired)) => {
                job.state = GalaxyJobState::Ok;
                // The record is the outputs' provenance, so it names the
                // version that ran, which a registry swap after submission
                // may have changed.
                job.tool_version.clone_from(&tool.version);
                // Outputs were inserted into the job's history, and a
                // dataset enters exactly one history, so its owner pays.
                let owner = self.histories.get(&job.history).map(|h| h.owner.as_str());
                for (ds_id, out) in paired {
                    let size = out.size.unwrap_or_else(|| out.content.natural_size());
                    if let Some(ds) = self.datasets.get_mut(&ds_id) {
                        ds.name = out.dataset_name;
                        ds.content = out.content;
                        ds.size = size;
                        ds.state = DatasetState::Ok;
                    }
                    if let Some(user) = owner.and_then(|o| self.users.get_mut(o)) {
                        user.charge(size);
                    }
                }
            }
            Err(message) => {
                for ds_id in &job.outputs {
                    if let Some(ds) = self.datasets.get_mut(ds_id) {
                        ds.state = DatasetState::Error;
                    }
                }
                job.state = GalaxyJobState::Error;
                job.error = Some(message);
            }
        }
        Some(job_id)
    }

    /// Drive the pool until every queued Galaxy job finishes; returns the
    /// time the last one completed (or `None` if jobs are starved with no
    /// capacity). Runs on the pool's [`drain`](CondorPool::drain) loop,
    /// completing each Galaxy job as its Condor job settles.
    pub fn drive_jobs(&mut self, start: SimTime, pool: &mut CondorPool) -> Option<SimTime> {
        pool.drain(start, |_, now, done| {
            for condor_id in done {
                self.on_condor_completion(now, condor_id);
            }
            ControlFlow::Continue(())
        })
        .ok()
    }
}

/// Pair each returned output with the dataset pre-created for its
/// declared name (`names[i]` belongs to `datasets[i]`), in declared order.
fn pair_outputs(
    names: &[String],
    datasets: &[DatasetId],
    outputs: Vec<ToolOutput>,
) -> Result<Vec<(DatasetId, ToolOutput)>, OutputMismatch> {
    let mut slots: Vec<Option<ToolOutput>> = names.iter().map(|_| None).collect();
    for out in outputs {
        let Some(i) = names.iter().position(|n| *n == out.name) else {
            return Err(OutputMismatch::Undeclared(out.name));
        };
        if slots[i].is_some() {
            return Err(OutputMismatch::Duplicate(out.name));
        }
        slots[i] = Some(out);
    }
    names
        .iter()
        .zip(datasets)
        .zip(slots)
        .map(|((name, ds_id), out)| {
            out.map(|o| (*ds_id, o))
                .ok_or_else(|| OutputMismatch::Missing(name.clone()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::{CostModel, OutputSpec, ParamSpec, ToolDefinition, ToolOutput};
    use cumulus_htc::Machine;
    use cumulus_simkit::time::SimDuration;
    use std::sync::Arc;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn word_count_tool() -> ToolDefinition {
        ToolDefinition {
            id: "wordcount".to_string(),
            name: "Word count".to_string(),
            version: "1.0".to_string(),
            description: "counts words in a text dataset".to_string(),
            params: vec![ParamSpec::dataset("input", "Input")],
            outputs: vec![OutputSpec {
                name: "counts".to_string(),
                dtype: "tabular".to_string(),
            }],
            cost: CostModel::LIGHT,
            behavior: Arc::new(|inv: &ToolInvocation| {
                let text = match inv.input("input").map(Content::body) {
                    Some(ContentBody::Text(s)) => s.clone(),
                    _ => return Err(crate::tool::ToolError("need text input".to_string())),
                };
                let n = text.split_whitespace().count();
                Ok(vec![ToolOutput {
                    name: "counts".to_string(),
                    dataset_name: "word counts".to_string(),
                    content: Content::new(ContentBody::Table {
                        columns: vec!["words".to_string()],
                        rows: vec![vec![n.to_string()]],
                    }),
                    size: None,
                }])
            }),
        }
    }

    fn failing_tool() -> ToolDefinition {
        ToolDefinition {
            id: "fail".to_string(),
            name: "Always fails".to_string(),
            version: "1.0".to_string(),
            description: "fails".to_string(),
            params: vec![ParamSpec::dataset("input", "Input")],
            outputs: vec![OutputSpec {
                name: "out".to_string(),
                dtype: "txt".to_string(),
            }],
            cost: CostModel::LIGHT,
            behavior: Arc::new(|_: &ToolInvocation| {
                Err(crate::tool::ToolError("R script crashed".to_string()))
            }),
        }
    }

    struct Fixture {
        server: GalaxyServer,
        pool: CondorPool,
        history: HistoryId,
        input: DatasetId,
    }

    fn fixture() -> Fixture {
        let mut server = GalaxyServer::new(NodeId(0), Some("cvrg#galaxy"));
        server.registry.register("Text", word_count_tool()).unwrap();
        server.registry.register("Text", failing_tool()).unwrap();
        server.register_user("boliu");
        let history = server.create_history(t(0), "boliu", "analysis").unwrap();
        let input = server
            .add_dataset(
                t(0),
                history,
                "notes.txt",
                "txt",
                DataSize::from_kb(1),
                Content::new(ContentBody::Text("one two three four".to_string())),
            )
            .unwrap();
        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("galaxy", 1.0, 1700, 1))
            .unwrap();
        Fixture {
            server,
            pool,
            history,
            input,
        }
    }

    fn params(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn tool_run_produces_real_output() {
        let mut f = fixture();
        let input_ref = format!("{}", f.input.0);
        let job = f
            .server
            .run_tool(
                t(10),
                "boliu",
                f.history,
                "wordcount",
                &params(&[("input", &input_ref)]),
                &mut f.pool,
            )
            .unwrap();
        // Output exists immediately, pending.
        let out_id = f.server.job(job).unwrap().outputs[0];
        assert_eq!(
            f.server.dataset(out_id).unwrap().state,
            DatasetState::Pending
        );
        let done = f.server.drive_jobs(t(10), &mut f.pool).unwrap();
        assert!(done > t(10));
        let out = f.server.dataset(out_id).unwrap();
        assert_eq!(out.state, DatasetState::Ok);
        let (_, rows) = out.content.as_table().unwrap();
        assert_eq!(rows[0][0], "4", "real word count computed");
        assert_eq!(f.server.job(job).unwrap().state, GalaxyJobState::Ok);
    }

    #[test]
    fn provenance_recorded_on_completion() {
        let mut f = fixture();
        let input_ref = format!("dataset-{}", f.input.0);
        let job = f
            .server
            .run_tool(
                t(0),
                "boliu",
                f.history,
                "wordcount",
                &params(&[("input", &input_ref)]),
                &mut f.pool,
            )
            .unwrap();
        f.server.drive_jobs(t(0), &mut f.pool).unwrap();
        let out_id = f.server.job(job).unwrap().outputs[0];
        let rec = f.server.provenance(out_id).expect("provenance exists");
        assert_eq!(rec.id, job);
        assert_eq!(rec.tool_id, "wordcount");
        assert_eq!(rec.inputs.get("input"), Some(&f.input));
        assert_eq!(f.server.lineage(out_id).unwrap(), vec![f.input]);
    }

    #[test]
    fn outputs_are_charged_to_the_job_history_owner_once() {
        let mut f = fixture();
        // A second history of the same user, created after the first, and
        // another user's history: only the job's history owner pays.
        let second = f.server.create_history(t(0), "boliu", "second").unwrap();
        f.server.register_user("other");
        f.server.create_history(t(0), "other", "theirs").unwrap();
        let input = f
            .server
            .add_dataset(
                t(0),
                second,
                "more.txt",
                "txt",
                DataSize::from_kb(2),
                Content::new(ContentBody::Text("five six".to_string())),
            )
            .unwrap();
        let before = f.server.user("boliu").unwrap().usage;
        let input_ref = format!("{}", input.0);
        let job = f
            .server
            .run_tool(
                t(0),
                "boliu",
                second,
                "wordcount",
                &params(&[("input", &input_ref)]),
                &mut f.pool,
            )
            .unwrap();
        f.server.drive_jobs(t(0), &mut f.pool).unwrap();
        let out = f
            .server
            .dataset(f.server.job(job).unwrap().outputs[0])
            .unwrap();
        assert_eq!(out.state, DatasetState::Ok);
        let natural = out.content.natural_size();
        assert!(natural > DataSize::ZERO);
        assert_eq!(out.size, natural);
        assert_eq!(f.server.user("boliu").unwrap().usage, before + natural);
        assert_eq!(f.server.user("other").unwrap().usage, DataSize::ZERO);
    }

    #[test]
    fn failing_tool_marks_error() {
        let mut f = fixture();
        let input_ref = format!("{}", f.input.0);
        let job = f
            .server
            .run_tool(
                t(0),
                "boliu",
                f.history,
                "fail",
                &params(&[("input", &input_ref)]),
                &mut f.pool,
            )
            .unwrap();
        f.server.drive_jobs(t(0), &mut f.pool).unwrap();
        let j = f.server.job(job).unwrap();
        assert_eq!(j.state, GalaxyJobState::Error);
        assert_eq!(j.error.as_deref(), Some("R script crashed"));
        let out = f.server.dataset(j.outputs[0]).unwrap();
        assert_eq!(out.state, DatasetState::Error);
    }

    #[test]
    fn a_tool_unregistered_before_completion_fails_the_job() {
        let mut f = fixture();
        let input_ref = format!("{}", f.input.0);
        let job = f
            .server
            .run_tool(
                t(0),
                "boliu",
                f.history,
                "wordcount",
                &params(&[("input", &input_ref)]),
                &mut f.pool,
            )
            .unwrap();
        f.server.registry = ToolRegistry::new();
        let done = f.server.drive_jobs(t(0), &mut f.pool).unwrap();
        let j = f.server.job(job).unwrap();
        assert_eq!(j.state, GalaxyJobState::Error);
        assert_eq!(j.finished_at, Some(done));
        let want = RegistryError::NotFound("wordcount".to_string()).to_string();
        assert_eq!(j.error, Some(want));
        let out = f.server.dataset(j.outputs[0]).unwrap();
        assert_eq!(out.state, DatasetState::Error);
        assert!(f.server.provenance(j.outputs[0]).is_none());
    }

    /// A tool declaring outputs `a` and `b` that returns `returned`, each
    /// output's text naming it.
    fn two_output_tool(id: &str, returned: &'static [&'static str]) -> ToolDefinition {
        let spec = |name: &str| OutputSpec {
            name: name.to_string(),
            dtype: "txt".to_string(),
        };
        ToolDefinition {
            id: id.to_string(),
            name: id.to_string(),
            version: "1.0".to_string(),
            description: "returns a fixed output list".to_string(),
            params: vec![ParamSpec::dataset("input", "Input")],
            outputs: vec![spec("a"), spec("b")],
            cost: CostModel::LIGHT,
            behavior: Arc::new(move |_: &ToolInvocation| {
                Ok(returned
                    .iter()
                    .map(|name| ToolOutput {
                        name: name.to_string(),
                        dataset_name: format!("output {name}"),
                        content: Content::new(ContentBody::Text(name.to_string())),
                        size: None,
                    })
                    .collect())
            }),
        }
    }

    /// Run `tool` once on the fixture's input and return its job.
    fn run_once(tool: ToolDefinition) -> GalaxyJob {
        let mut f = fixture();
        let id = tool.id.clone();
        f.server.registry.register("Test", tool).unwrap();
        let input_ref = format!("{}", f.input.0);
        let job = f
            .server
            .run_tool(
                t(0),
                "boliu",
                f.history,
                &id,
                &params(&[("input", &input_ref)]),
                &mut f.pool,
            )
            .unwrap();
        f.server.drive_jobs(t(0), &mut f.pool).unwrap();
        let job = f.server.job(job).unwrap().clone();
        for ds in &job.outputs {
            let state = f.server.dataset(*ds).unwrap().state;
            match job.state {
                GalaxyJobState::Ok => assert_eq!(state, DatasetState::Ok),
                _ => assert_eq!(state, DatasetState::Error),
            }
        }
        if job.state == GalaxyJobState::Ok {
            for (ds, name) in job.outputs.iter().zip(["a", "b"]) {
                let content = &f.server.dataset(*ds).unwrap().content;
                assert_eq!(*content, Content::new(ContentBody::Text(name.to_string())));
            }
        }
        job
    }

    #[test]
    fn reordered_outputs_are_filed_by_name() {
        let job = run_once(two_output_tool("reorder", &["b", "a"]));
        assert_eq!(job.state, GalaxyJobState::Ok);
    }

    #[test]
    fn a_missing_output_fails_the_job() {
        let job = run_once(two_output_tool("short", &["a"]));
        assert_eq!(job.state, GalaxyJobState::Error);
        let want = OutputMismatch::Missing("b".to_string()).to_string();
        assert_eq!(job.error, Some(want));
    }

    #[test]
    fn an_undeclared_output_fails_the_job() {
        let job = run_once(two_output_tool("extra", &["a", "b", "c"]));
        assert_eq!(job.state, GalaxyJobState::Error);
        let want = OutputMismatch::Undeclared("c".to_string()).to_string();
        assert_eq!(job.error, Some(want));
    }

    #[test]
    fn a_repeated_output_fails_the_job() {
        let job = run_once(two_output_tool("twice", &["a", "a", "b"]));
        assert_eq!(job.state, GalaxyJobState::Error);
        let want = OutputMismatch::Duplicate("a".to_string()).to_string();
        assert_eq!(job.error, Some(want));
    }

    #[test]
    fn unknown_tool_and_bad_refs_error() {
        let mut f = fixture();
        assert!(matches!(
            f.server
                .run_tool(t(0), "boliu", f.history, "ghost", &params(&[]), &mut f.pool),
            Err(GalaxyError::Registry(_))
        ));
        assert!(matches!(
            f.server.run_tool(
                t(0),
                "boliu",
                f.history,
                "wordcount",
                &params(&[("input", "not-a-ref")]),
                &mut f.pool
            ),
            Err(GalaxyError::Tool(_))
        ));
        assert!(matches!(
            f.server.run_tool(
                t(0),
                "boliu",
                f.history,
                "wordcount",
                &params(&[("input", "999")]),
                &mut f.pool
            ),
            Err(GalaxyError::UnknownDataset(_))
        ));
    }

    #[test]
    fn pending_inputs_are_rejected() {
        let mut f = fixture();
        let input_ref = format!("{}", f.input.0);
        // First job's pending output used as input to a second job.
        let job = f
            .server
            .run_tool(
                t(0),
                "boliu",
                f.history,
                "wordcount",
                &params(&[("input", &input_ref)]),
                &mut f.pool,
            )
            .unwrap();
        let pending = f.server.job(job).unwrap().outputs[0];
        let pending_ref = format!("{}", pending.0);
        assert!(matches!(
            f.server.run_tool(
                t(1),
                "boliu",
                f.history,
                "wordcount",
                &params(&[("input", &pending_ref)]),
                &mut f.pool
            ),
            Err(GalaxyError::DatasetNotReady(_))
        ));
    }

    #[test]
    fn history_panel_shows_lifecycle() {
        let mut f = fixture();
        let input_ref = format!("{}", f.input.0);
        f.server
            .run_tool(
                t(0),
                "boliu",
                f.history,
                "wordcount",
                &params(&[("input", &input_ref)]),
                &mut f.pool,
            )
            .unwrap();
        let panel = f.server.history_panel(f.history).unwrap();
        assert!(panel.contains("notes.txt"));
        assert!(panel.contains("[…]"), "pending output visible: {panel}");
        f.server.drive_jobs(t(0), &mut f.pool).unwrap();
        let panel = f.server.history_panel(f.history).unwrap();
        assert!(panel.contains("word counts"));
        assert!(panel.contains("[ok]"));
    }

    #[test]
    fn quota_blocks_oversized_datasets() {
        let mut f = fixture();
        let big = DataSize::from_gb(300);
        assert!(matches!(
            f.server.add_dataset(
                t(0),
                f.history,
                "huge",
                "bam",
                big,
                Content::new(ContentBody::Opaque)
            ),
            Err(GalaxyError::QuotaExceeded { .. })
        ));
    }

    #[test]
    fn http_upload_rejects_over_2gb() {
        let mut f = fixture();
        let network = Network::new();
        let err = f
            .server
            .upload_http(
                t(0),
                f.history,
                "big.bam",
                "bam",
                DataSize::from_gb(3),
                Content::new(ContentBody::Opaque),
                &network,
                NodeId(0),
            )
            .unwrap_err();
        assert!(matches!(err, GalaxyError::UploadTooLarge(_)));
    }

    #[test]
    fn ftp_upload_accepts_over_2gb() {
        let mut f = fixture();
        let network = Network::new();
        let (id, done) = f
            .server
            .upload_ftp(
                t(0),
                f.history,
                "big.bam",
                "bam",
                DataSize::from_gb(3),
                Content::new(ContentBody::Opaque),
                &network,
                NodeId(0),
            )
            .expect("FTP imports have no size cap");
        assert!(done > t(0));
        assert_eq!(f.server.dataset(id).unwrap().state, DatasetState::Ok);
    }

    #[test]
    fn globus_tools_without_endpoint_fail_with_typed_error() {
        let mut server = GalaxyServer::new(NodeId(0), None);
        server.register_user("boliu");
        let history = server.create_history(t(0), "boliu", "h").unwrap();
        let input = server
            .add_dataset(
                t(0),
                history,
                "x.bam",
                "bam",
                DataSize::from_mb(10),
                Content::new(ContentBody::Opaque),
            )
            .unwrap();
        let mut service = TransferService::new();
        let network = Network::new();
        let err = server
            .get_data_via_globus(
                t(0),
                "boliu",
                history,
                &mut service,
                &network,
                ("ci#lab", "/data/x.bam"),
                DataSize::from_mb(10),
                Content::new(ContentBody::Opaque),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, GalaxyError::NoEndpoint), "{err}");
        let err = server
            .send_data_via_globus(
                t(0),
                "boliu",
                input,
                &mut service,
                &network,
                ("ci#lab", "/x"),
            )
            .unwrap_err();
        assert!(matches!(err, GalaxyError::NoEndpoint), "{err}");
    }

    #[test]
    fn drive_jobs_reports_starvation() {
        let mut f = fixture();
        let mut empty_pool = CondorPool::new();
        let input_ref = format!("{}", f.input.0);
        f.server
            .run_tool(
                t(0),
                "boliu",
                f.history,
                "wordcount",
                &params(&[("input", &input_ref)]),
                &mut empty_pool,
            )
            .unwrap();
        assert_eq!(f.server.drive_jobs(t(0), &mut empty_pool), None);
    }
}
