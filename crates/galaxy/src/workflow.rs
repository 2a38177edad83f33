//! Workflows: reusable DAGs of tool steps.
//!
//! "With Galaxy's workflow editor, various tools can be configured and
//! composed to complete an analysis" (§II.1). A workflow declares named
//! inputs and a list of steps; each step binds its dataset parameters
//! either to a workflow input or to another step's output. Running a
//! workflow schedules steps through the Condor pool as their dependencies
//! complete, reusing `cumulus-htc`'s DAG bookkeeping.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use cumulus_htc::{CondorPool, DagRun};
use cumulus_simkit::telemetry::{span::keys as span_keys, SpanKind};
use cumulus_simkit::time::{SimDuration, SimTime};

use crate::checkpoint::WorkflowCheckpoint;
use crate::dataset::DatasetId;
use crate::history::HistoryId;
use crate::job::{GalaxyJobId, GalaxyJobState};
use crate::server::{GalaxyError, GalaxyServer};

/// Where a step's dataset parameter comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// A named workflow input.
    Input(String),
    /// Another step's output: (step id, output index).
    StepOutput(String, usize),
}

/// One step of a workflow.
#[derive(Debug, Clone)]
pub struct WorkflowStep {
    /// Step id, unique within the workflow.
    pub id: String,
    /// The tool to run.
    pub tool_id: String,
    /// Non-dataset parameters.
    pub params: BTreeMap<String, String>,
    /// Dataset parameter bindings.
    pub bindings: BTreeMap<String, Binding>,
}

impl WorkflowStep {
    /// Create a step.
    pub fn new(id: &str, tool_id: &str) -> Self {
        WorkflowStep {
            id: id.to_string(),
            tool_id: tool_id.to_string(),
            params: BTreeMap::new(),
            bindings: BTreeMap::new(),
        }
    }

    /// Set a scalar parameter (builder style).
    pub fn param(mut self, name: &str, value: &str) -> Self {
        self.params.insert(name.to_string(), value.to_string());
        self
    }

    /// Bind a dataset parameter to a workflow input (builder style).
    pub fn input(mut self, param: &str, workflow_input: &str) -> Self {
        self.bindings.insert(
            param.to_string(),
            Binding::Input(workflow_input.to_string()),
        );
        self
    }

    /// Bind a dataset parameter to another step's output (builder style).
    pub fn from_step(mut self, param: &str, step: &str, output: usize) -> Self {
        self.bindings.insert(
            param.to_string(),
            Binding::StepOutput(step.to_string(), output),
        );
        self
    }
}

/// A saved workflow.
#[derive(Debug, Clone)]
pub struct Workflow {
    /// Name shown in the UI.
    pub name: String,
    /// Declared input names.
    pub inputs: Vec<String>,
    /// Steps, in definition order.
    pub steps: Vec<WorkflowStep>,
}

impl Workflow {
    /// Create an empty workflow.
    pub fn new(name: &str, inputs: &[&str]) -> Self {
        Workflow {
            name: name.to_string(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            steps: Vec::new(),
        }
    }

    /// Append a step (builder style).
    pub fn step(mut self, step: WorkflowStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Validate structure: bindings reference declared inputs / earlier
    /// steps, ids are unique.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = Vec::new();
        for step in &self.steps {
            if seen.contains(&step.id.as_str()) {
                return Err(format!("duplicate step id {:?}", step.id));
            }
            for binding in step.bindings.values() {
                match binding {
                    Binding::Input(name) => {
                        if !self.inputs.iter().any(|i| i == name) {
                            return Err(format!(
                                "step {:?} references unknown input {name:?}",
                                step.id
                            ));
                        }
                    }
                    Binding::StepOutput(src, _) => {
                        if !seen.contains(&src.as_str()) {
                            return Err(format!(
                                "step {:?} references step {src:?} which is not defined before it",
                                step.id
                            ));
                        }
                    }
                }
            }
            seen.push(step.id.as_str());
        }
        Ok(())
    }
}

/// Result of a workflow run.
#[derive(Debug, Clone)]
pub struct WorkflowRunResult {
    /// When the last step finished.
    pub finished_at: SimTime,
    /// Galaxy job per step id.
    pub step_jobs: BTreeMap<String, GalaxyJobId>,
    /// Output datasets per step id.
    pub step_outputs: BTreeMap<String, Vec<DatasetId>>,
    /// A restartable snapshot of the completed run, assembled from the
    /// provenance store and the output datasets' content ids. Feed it to
    /// [`resume_workflow`](crate::checkpoint::resume_workflow) to rerun
    /// the workflow without repeating recoverable steps.
    pub checkpoint: WorkflowCheckpoint,
}

/// A step a resumed run skips: its recovered outputs plus the staging
/// time already charged to re-materialize them.
#[derive(Debug, Clone)]
pub(crate) struct ResumedStep {
    /// The step's output datasets, recovered from the checkpoint.
    pub outputs: Vec<DatasetId>,
    /// Time spent re-staging those outputs through the data plane.
    pub restage: SimDuration,
}

/// Execute a workflow to completion, driving the pool.
///
/// Steps are submitted as soon as their dependencies complete — exactly
/// like DAGMan over Condor — so independent branches run concurrently when
/// the pool has capacity.
pub fn run_workflow(
    server: &mut GalaxyServer,
    pool: &mut CondorPool,
    now: SimTime,
    username: &str,
    history: HistoryId,
    workflow: &Workflow,
    inputs: &BTreeMap<String, DatasetId>,
) -> Result<WorkflowRunResult, GalaxyError> {
    drive_workflow(
        server,
        pool,
        now,
        username,
        history,
        workflow,
        inputs,
        &BTreeMap::new(),
    )
}

/// The shared driver behind [`run_workflow`] and
/// [`resume_workflow`](crate::checkpoint::resume_workflow): steps in
/// `resumed` are marked done up front (their outputs already exist), the
/// rest run through the pool as dependencies complete. On a resumed run
/// every step gets a recovery-decision telemetry phase.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_workflow(
    server: &mut GalaxyServer,
    pool: &mut CondorPool,
    now: SimTime,
    username: &str,
    history: HistoryId,
    workflow: &Workflow,
    inputs: &BTreeMap<String, DatasetId>,
    resumed: &BTreeMap<String, ResumedStep>,
) -> Result<WorkflowRunResult, GalaxyError> {
    workflow
        .validate()
        .map_err(|m| GalaxyError::Tool(crate::tool::ToolError(m)))?;
    for name in &workflow.inputs {
        if !inputs.contains_key(name) {
            return Err(GalaxyError::Tool(crate::tool::ToolError(format!(
                "workflow input {name:?} not supplied"
            ))));
        }
    }

    // Build the dependency DAG.
    let mut dag = DagRun::new();
    for step in &workflow.steps {
        dag.add_node(&step.id)
            .map_err(|e| GalaxyError::Tool(crate::tool::ToolError(e.to_string())))?;
    }
    for step in &workflow.steps {
        for binding in step.bindings.values() {
            if let Binding::StepOutput(src, _) = binding {
                dag.add_edge(src, &step.id)
                    .map_err(|e| GalaxyError::Tool(crate::tool::ToolError(e.to_string())))?;
            }
        }
    }

    let step_by_id: BTreeMap<&str, &WorkflowStep> =
        workflow.steps.iter().map(|s| (s.id.as_str(), s)).collect();

    // A workflow run is one telemetry span: opened at submission, one
    // phase per completed step, closed when the DAG drains. The id is a
    // per-server serial so concurrent runs never collide.
    let telemetry = pool.telemetry().clone();
    let wf_id = server.next_workflow_id();
    telemetry.span_open(
        now,
        "workflow",
        span_keys::WORKFLOW_STARTED,
        SpanKind::Workflow,
        wf_id,
    );

    let mut step_jobs: BTreeMap<String, GalaxyJobId> = BTreeMap::new();
    let mut step_outputs: BTreeMap<String, Vec<DatasetId>> = BTreeMap::new();
    let mut condor_to_step: BTreeMap<cumulus_htc::JobId, String> = BTreeMap::new();
    let mut clock = now;

    // On a resumed run, every step records its recovery decision as a
    // telemetry phase, and skipped steps complete immediately with their
    // recovered outputs. A fresh run (empty map) emits nothing here.
    if !resumed.is_empty() {
        for step in &workflow.steps {
            match resumed.get(&step.id) {
                Some(r) => {
                    telemetry.span_phase(
                        clock,
                        "workflow",
                        span_keys::WORKFLOW_STEP_RESUMED,
                        SpanKind::Workflow,
                        wf_id,
                        r.restage,
                    );
                    dag.mark_done(&step.id)
                        .map_err(|e| GalaxyError::Tool(crate::tool::ToolError(e.to_string())))?;
                    step_outputs.insert(step.id.clone(), r.outputs.clone());
                }
                None => {
                    telemetry.span_phase(
                        clock,
                        "workflow",
                        span_keys::WORKFLOW_STEP_RERUN,
                        SpanKind::Workflow,
                        wf_id,
                        SimDuration::ZERO,
                    );
                }
            }
        }
    }

    // One step of the run: complete the steps whose Condor jobs just
    // settled, then submit every step they unblocked. Returns whether the
    // whole DAG is done.
    let mut advance = |pool: &mut CondorPool,
                       at: SimTime,
                       settled: Vec<cumulus_htc::JobId>|
     -> Result<bool, GalaxyError> {
        for condor_id in settled {
            server.on_condor_completion(at, condor_id);
            let Some(step_id) = condor_to_step.remove(&condor_id) else {
                continue;
            };
            let job = server.job(step_jobs[&step_id])?;
            if job.state == GalaxyJobState::Error {
                return Err(GalaxyError::Tool(crate::tool::ToolError(format!(
                    "workflow step {step_id:?} failed: {}",
                    job.error.clone().unwrap_or_default()
                ))));
            }
            step_outputs.insert(step_id, job.outputs.clone());
            telemetry.span_phase(
                at,
                "workflow",
                span_keys::WORKFLOW_STEP,
                SpanKind::Workflow,
                wf_id,
                SimDuration::ZERO,
            );
            dag.on_job_completed(condor_id);
        }
        for node in dag.ready_nodes() {
            let step = step_by_id[node.as_str()];
            let mut params = step.params.clone();
            for (pname, binding) in &step.bindings {
                let ds = match binding {
                    Binding::Input(name) => inputs[name],
                    Binding::StepOutput(src, idx) => {
                        let outs = step_outputs.get(src).ok_or_else(|| {
                            GalaxyError::Tool(crate::tool::ToolError(format!(
                                "step {src:?} has no outputs yet"
                            )))
                        })?;
                        *outs.get(*idx).ok_or_else(|| {
                            GalaxyError::Tool(crate::tool::ToolError(format!(
                                "step {src:?} has no output #{idx}"
                            )))
                        })?
                    }
                };
                params.insert(pname.clone(), ds.0.to_string());
            }
            let job_id = server.run_tool(at, username, history, &step.tool_id, &params, pool)?;
            let condor_id = server
                .job(job_id)
                .expect("just created")
                .condor_job
                .expect("dispatched");
            dag.mark_submitted(&node, condor_id)
                .map_err(|e| GalaxyError::Tool(crate::tool::ToolError(e.to_string())))?;
            condor_to_step.insert(condor_id, node.clone());
            step_jobs.insert(node.clone(), job_id);
        }
        Ok(dag.is_complete())
    };

    // Submit the ready steps, then drive the rest on the pool's drain
    // loop until the DAG is done or a step fails.
    if !advance(pool, clock, Vec::new())? {
        let mut outcome = Ok(false);
        let drained = pool.drain(clock, |pool, at, settled| {
            outcome = advance(pool, at, settled);
            match outcome {
                Ok(false) => ControlFlow::Continue(()),
                _ => ControlFlow::Break(()),
            }
        });
        match (drained, outcome) {
            (_, Err(e)) => return Err(e),
            (Ok(at), Ok(true)) => clock = at,
            _ => {
                return Err(GalaxyError::Tool(crate::tool::ToolError(
                    "workflow starved: no machines can run the remaining steps".to_string(),
                )))
            }
        }
    }

    telemetry.span_close(
        clock,
        "workflow",
        span_keys::WORKFLOW_COMPLETED,
        SpanKind::Workflow,
        wf_id,
    );

    let checkpoint = WorkflowCheckpoint::capture(clock, server, workflow, inputs)?;
    Ok(WorkflowRunResult {
        finished_at: clock,
        step_jobs,
        step_outputs,
        checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Content;
    use crate::tool::{
        CostModel, OutputSpec, ParamSpec, ToolDefinition, ToolInvocation, ToolOutput,
    };
    use cumulus_htc::Machine;
    use cumulus_net::{DataSize, NodeId};
    use std::sync::Arc;

    fn text_tool(id: &str, f: impl Fn(&str) -> String + Send + Sync + 'static) -> ToolDefinition {
        ToolDefinition {
            id: id.to_string(),
            name: id.to_string(),
            version: "1.0".to_string(),
            description: format!("{id} tool"),
            params: vec![ParamSpec::dataset("input", "Input")],
            outputs: vec![OutputSpec {
                name: "out".to_string(),
                dtype: "txt".to_string(),
            }],
            cost: CostModel::LIGHT,
            behavior: Arc::new(move |inv: &ToolInvocation| {
                let text = match inv.input("input") {
                    Some(Content::Text(s)) => s.clone(),
                    _ => return Err(crate::tool::ToolError("need text".to_string())),
                };
                Ok(vec![ToolOutput {
                    name: "out".to_string(),
                    dataset_name: format!("{} output", inv.param("label").unwrap_or("step")),
                    content: Content::Text(f(&text)),
                    size: None,
                }])
            }),
        }
    }

    fn join_tool() -> ToolDefinition {
        ToolDefinition {
            id: "join".to_string(),
            name: "join".to_string(),
            version: "1.0".to_string(),
            description: "joins two texts".to_string(),
            params: vec![ParamSpec::dataset("a", "A"), ParamSpec::dataset("b", "B")],
            outputs: vec![OutputSpec {
                name: "out".to_string(),
                dtype: "txt".to_string(),
            }],
            cost: CostModel::LIGHT,
            behavior: Arc::new(|inv: &ToolInvocation| {
                let get = |n: &str| match inv.input(n) {
                    Some(Content::Text(s)) => Ok(s.clone()),
                    _ => Err(crate::tool::ToolError(format!("need text {n}"))),
                };
                Ok(vec![ToolOutput {
                    name: "out".to_string(),
                    dataset_name: "joined".to_string(),
                    content: Content::Text(format!("{}|{}", get("a")?, get("b")?)),
                    size: None,
                }])
            }),
        }
    }

    struct Fix {
        server: GalaxyServer,
        pool: CondorPool,
        history: HistoryId,
        input: DatasetId,
    }

    fn fix() -> Fix {
        let mut server = GalaxyServer::new(NodeId(0), None);
        server
            .registry
            .register("Text", text_tool("upper", |s| s.to_uppercase()))
            .unwrap();
        server
            .registry
            .register("Text", text_tool("rev", |s| s.chars().rev().collect()))
            .unwrap();
        server.registry.register("Text", join_tool()).unwrap();
        server.register_user("boliu");
        let history = server.create_history(SimTime::ZERO, "boliu", "wf").unwrap();
        let input = server
            .add_dataset(
                SimTime::ZERO,
                history,
                "in.txt",
                "txt",
                DataSize::from_kb(1),
                Content::Text("abc".to_string()),
            )
            .unwrap();
        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("w1", 1.0, 1700, 1)).unwrap();
        pool.add_machine(Machine::new("w2", 1.0, 1700, 1)).unwrap();
        Fix {
            server,
            pool,
            history,
            input,
        }
    }

    fn diamond() -> Workflow {
        Workflow::new("diamond", &["data"])
            .step(WorkflowStep::new("up", "upper").input("input", "data"))
            .step(WorkflowStep::new("rv", "rev").input("input", "data"))
            .step(
                WorkflowStep::new("jn", "join")
                    .from_step("a", "up", 0)
                    .from_step("b", "rv", 0),
            )
    }

    #[test]
    fn diamond_workflow_computes_correctly() {
        let mut f = fix();
        let mut inputs = BTreeMap::new();
        inputs.insert("data".to_string(), f.input);
        let result = run_workflow(
            &mut f.server,
            &mut f.pool,
            SimTime::ZERO,
            "boliu",
            f.history,
            &diamond(),
            &inputs,
        )
        .unwrap();
        assert_eq!(result.step_jobs.len(), 3);
        let final_out = result.step_outputs["jn"][0];
        let ds = f.server.dataset(final_out).unwrap();
        assert_eq!(ds.content, Content::Text("ABC|cba".to_string()));
        // Provenance spans the whole workflow.
        let lineage = f.server.provenance.lineage(final_out).unwrap();
        assert!(lineage.contains(&f.input));
        assert_eq!(lineage.len(), 3, "two intermediates + the input");
    }

    #[test]
    fn independent_branches_run_concurrently() {
        let mut f = fix();
        let mut inputs = BTreeMap::new();
        inputs.insert("data".to_string(), f.input);
        let result = run_workflow(
            &mut f.server,
            &mut f.pool,
            SimTime::ZERO,
            "boliu",
            f.history,
            &diamond(),
            &inputs,
        )
        .unwrap();
        // Each LIGHT step on 1 KB ≈ 2 s serial. Two machines run up/rev in
        // parallel, then join: ≈ 4 s, not 6.
        let secs = result.finished_at.as_secs_f64();
        assert!(secs < 5.0, "took {secs}, branches must overlap");
    }

    #[test]
    fn validation_catches_bad_references() {
        let w = Workflow::new("bad", &["data"])
            .step(WorkflowStep::new("s1", "upper").input("input", "ghost"));
        assert!(w.validate().is_err());

        let w = Workflow::new("bad2", &[])
            .step(WorkflowStep::new("s1", "upper").from_step("input", "later", 0))
            .step(WorkflowStep::new("later", "rev"));
        assert!(w.validate().is_err(), "forward reference");

        let w = Workflow::new("bad3", &[])
            .step(WorkflowStep::new("dup", "upper"))
            .step(WorkflowStep::new("dup", "rev"));
        assert!(w.validate().is_err(), "duplicate id");
    }

    #[test]
    fn missing_inputs_are_rejected() {
        let mut f = fix();
        let err = run_workflow(
            &mut f.server,
            &mut f.pool,
            SimTime::ZERO,
            "boliu",
            f.history,
            &diamond(),
            &BTreeMap::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("not supplied"));
    }

    #[test]
    fn starved_workflow_errors() {
        let mut f = fix();
        let mut empty = CondorPool::new();
        let mut inputs = BTreeMap::new();
        inputs.insert("data".to_string(), f.input);
        let err = run_workflow(
            &mut f.server,
            &mut empty,
            SimTime::ZERO,
            "boliu",
            f.history,
            &diamond(),
            &inputs,
        )
        .unwrap_err();
        assert!(err.to_string().contains("starved"));
    }
}
