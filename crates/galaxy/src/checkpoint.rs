//! Workflow checkpoint/resume: the recovery half of the retry plane.
//!
//! A [`WorkflowCheckpoint`] is a restartable snapshot of a (possibly
//! partial) workflow run, assembled from the job table (each completed
//! step's job record and the outputs naming it as their producer) plus
//! the output datasets' content ids. After a disruption, [`resume_workflow`]
//! consults the data plane to decide, step by step, whether the
//! checkpointed outputs are still reachable — local cache, then a peer
//! cache, then the object store — and re-executes only the lost suffix.
//! Recovered outputs are re-staged through the normal staging ladder, so
//! a warm cache resumes for free while a cold one pays the object-store
//! fetch, never the recompute.

use std::collections::BTreeMap;

use cumulus_htc::CondorPool;
use cumulus_net::DataSize;
use cumulus_simkit::time::{SimDuration, SimTime};
use cumulus_store::{ContentId, DataPlane, InputSpec};

use crate::dataset::DatasetId;
use crate::history::HistoryId;
use crate::job::GalaxyJobId;
use crate::server::{GalaxyError, GalaxyServer};
use crate::workflow::{drive_workflow, Binding, ResumedStep, Workflow, WorkflowRunResult};

/// One recovered output: the dataset plus its content address and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputRef {
    /// The dataset as known to the Galaxy server.
    pub dataset: DatasetId,
    /// Its content id in the data plane.
    pub content: ContentId,
    /// Its size (what re-staging costs when the content is remote).
    pub size: DataSize,
}

/// A completed step inside a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepCheckpoint {
    /// The Galaxy job that produced the outputs.
    pub job: GalaxyJobId,
    /// The step's outputs, content-addressed.
    pub outputs: Vec<OutputRef>,
}

/// A restartable snapshot of a workflow run.
///
/// Only steps whose invocation can be re-identified from the job table
/// — same tool, same resolved parameters, all outputs Ok and produced by
/// that job — are recorded; anything else is treated as lost and
/// re-executed on resume.
#[derive(Debug, Clone, Default)]
pub struct WorkflowCheckpoint {
    /// The workflow this snapshot belongs to.
    pub workflow: String,
    /// When the snapshot was assembled.
    pub taken_at: SimTime,
    /// Checkpointed steps by step id.
    pub steps: BTreeMap<String, StepCheckpoint>,
}

/// How a resumed run treats one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryDecision {
    /// The step was skipped: its outputs were recovered through the data
    /// plane at this network cost (zero when the local cache held them).
    Resumed {
        /// Bytes that crossed the network to re-materialize the outputs.
        network_bytes: DataSize,
    },
    /// The step re-executed through the pool.
    Rerun,
}

/// The skip/rerun split for one resume, derived from a checkpoint and the
/// current contents of the data plane.
#[derive(Debug, Clone, Default)]
pub struct RecoveryPlan {
    /// Steps whose checkpointed outputs are reachable, with those outputs.
    pub skip: BTreeMap<String, Vec<OutputRef>>,
    /// Steps that must re-execute, in workflow definition order.
    pub rerun: Vec<String>,
}

/// What [`resume_workflow`] did and what it cost.
#[derive(Debug)]
pub struct ResumeReport {
    /// The completed run (including a fresh checkpoint of it).
    pub result: WorkflowRunResult,
    /// The recovery decision per step id.
    pub decisions: BTreeMap<String, RecoveryDecision>,
    /// Total bytes re-staged over the network for recovered outputs.
    pub restaged_bytes: DataSize,
    /// Wall time spent re-staging before execution resumed.
    pub restage_time: SimDuration,
}

impl WorkflowCheckpoint {
    /// Assemble a checkpoint of `workflow` as run with `inputs`, walking
    /// the steps in definition order and re-identifying each invocation
    /// through [`GalaxyServer::find_completed_invocation`]. Steps whose
    /// dependencies are not checkpointed (or which never completed) are
    /// simply absent — the lost suffix.
    pub fn capture(
        now: SimTime,
        server: &GalaxyServer,
        workflow: &Workflow,
        inputs: &BTreeMap<String, DatasetId>,
    ) -> Result<Self, GalaxyError> {
        let mut steps: BTreeMap<String, StepCheckpoint> = BTreeMap::new();
        let mut outputs_of: BTreeMap<String, Vec<DatasetId>> = BTreeMap::new();
        for step in &workflow.steps {
            // Resolve the step's parameters exactly as submission would:
            // dataset bindings become bare dataset-id strings.
            let mut raw = step.params.clone();
            let mut resolvable = true;
            for (pname, binding) in &step.bindings {
                let ds = match binding {
                    Binding::Input(name) => inputs.get(name).copied(),
                    Binding::StepOutput(src, idx) => {
                        outputs_of.get(src).and_then(|outs| outs.get(*idx).copied())
                    }
                };
                match ds {
                    Some(d) => {
                        raw.insert(pname.clone(), d.0.to_string());
                    }
                    None => {
                        resolvable = false;
                        break;
                    }
                }
            }
            if !resolvable {
                continue;
            }
            let Ok(tool) = server.registry.tool(&step.tool_id) else {
                continue;
            };
            let Ok(resolved) = tool.resolve_params(&raw) else {
                continue;
            };
            let Some(job) = server.find_completed_invocation(&step.tool_id, &resolved) else {
                continue;
            };
            let mut refs = Vec::new();
            for &out in &job.outputs {
                let d = server.dataset(out)?;
                refs.push(OutputRef {
                    dataset: out,
                    content: d.content_id(),
                    size: d.size,
                });
            }
            outputs_of.insert(step.id.clone(), job.outputs.clone());
            steps.insert(
                step.id.clone(),
                StepCheckpoint {
                    job: job.id,
                    outputs: refs,
                },
            );
        }
        Ok(WorkflowCheckpoint {
            workflow: workflow.name.clone(),
            taken_at: now,
            steps,
        })
    }

    /// Split `workflow` into skippable and rerun steps against the current
    /// data plane: a step is skippable iff it is checkpointed and every
    /// output is reachable through the resume ladder (some worker cache
    /// holds it, or the object store does).
    pub fn recovery_plan(&self, workflow: &Workflow, plane: &DataPlane) -> RecoveryPlan {
        let mut plan = RecoveryPlan::default();
        for step in &workflow.steps {
            let reachable = self.steps.get(&step.id).is_some_and(|cp| {
                cp.outputs.iter().all(|o| {
                    plane.fleet.peer_with(o.content, "").is_some()
                        || plane.object.contains(o.content)
                })
            });
            if reachable {
                plan.skip
                    .insert(step.id.clone(), self.steps[&step.id].outputs.clone());
            } else {
                plan.rerun.push(step.id.clone());
            }
        }
        plan
    }

    /// Publish every checkpointed output into the data plane as held by
    /// `worker` — what a completing step does with its artifacts so that a
    /// later resume can find them.
    pub fn publish(&self, plane: &mut DataPlane, worker: &str) {
        plane.fleet.ensure_worker(worker);
        for cp in self.steps.values() {
            for o in &cp.outputs {
                plane.fleet.insert(worker, o.content, o.size);
                plane.object.put(o.content, o.size);
            }
        }
    }
}

/// Resume a workflow from `checkpoint` after a disruption.
///
/// Each skippable step's outputs are re-staged onto `worker` through the
/// data plane's normal ladder (local cache → peer cache → object store),
/// which both charges the honest recovery cost and warms the cache; the
/// remaining steps re-execute through the pool starting at `now` plus the
/// total re-staging time.
#[allow(clippy::too_many_arguments)]
pub fn resume_workflow(
    server: &mut GalaxyServer,
    pool: &mut CondorPool,
    plane: &mut DataPlane,
    worker: &str,
    now: SimTime,
    username: &str,
    history: HistoryId,
    workflow: &Workflow,
    inputs: &BTreeMap<String, DatasetId>,
    checkpoint: &WorkflowCheckpoint,
) -> Result<ResumeReport, GalaxyError> {
    let plan = checkpoint.recovery_plan(workflow, plane);
    let mut decisions = BTreeMap::new();
    let mut resumed: BTreeMap<String, ResumedStep> = BTreeMap::new();
    let mut restaged_bytes = DataSize::ZERO;
    let mut restage_time = SimDuration::ZERO;
    for (step_id, outputs) in &plan.skip {
        let specs: Vec<InputSpec> = outputs
            .iter()
            .map(|o| InputSpec {
                cid: o.content,
                size: o.size,
            })
            .collect();
        let staged = plane.stage_job(worker, &specs, 1);
        restaged_bytes += staged.network_bytes();
        restage_time += staged.total;
        decisions.insert(
            step_id.clone(),
            RecoveryDecision::Resumed {
                network_bytes: staged.network_bytes(),
            },
        );
        resumed.insert(
            step_id.clone(),
            ResumedStep {
                outputs: outputs.iter().map(|o| o.dataset).collect(),
                restage: staged.total,
            },
        );
    }
    for step_id in &plan.rerun {
        decisions.insert(step_id.clone(), RecoveryDecision::Rerun);
    }
    let result = drive_workflow(
        server,
        pool,
        now + restage_time,
        username,
        history,
        workflow,
        inputs,
        &resumed,
    )?;
    Ok(ResumeReport {
        result,
        decisions,
        restaged_bytes,
        restage_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Content, ContentBody};
    use crate::tool::{
        CostModel, OutputSpec, ParamSpec, ToolDefinition, ToolInvocation, ToolOutput,
    };
    use crate::workflow::{run_workflow, WorkflowStep};
    use cumulus_htc::Machine;
    use cumulus_net::NodeId;
    use cumulus_store::{EvictionPolicy, ObjectStoreConfig, SharingBackend};
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
                let text = match inv.input("input").map(Content::body) {
                    Some(ContentBody::Text(s)) => s.clone(),
                    _ => return Err(crate::tool::ToolError("need text".to_string())),
                };
                Ok(vec![ToolOutput {
                    name: "out".to_string(),
                    dataset_name: "step output".to_string(),
                    content: Content::new(ContentBody::Text(f(&text))),
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
        server
            .registry
            .register("Text", text_tool("bang", |s| format!("{s}!")))
            .unwrap();
        server.register_user("boliu");
        let history = server.create_history(SimTime::ZERO, "boliu", "ck").unwrap();
        let input = server
            .add_dataset(
                SimTime::ZERO,
                history,
                "in.txt",
                "txt",
                DataSize::from_kb(1),
                Content::new(ContentBody::Text("abc".to_string())),
            )
            .unwrap();
        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("w1", 1.0, 1700, 1)).unwrap();
        Fix {
            server,
            pool,
            history,
            input,
        }
    }

    /// upper → rev → bang, a pure chain.
    fn chain() -> Workflow {
        Workflow::new("chain", &["data"])
            .step(WorkflowStep::new("up", "upper").input("input", "data"))
            .step(WorkflowStep::new("rv", "rev").from_step("input", "up", 0))
            .step(WorkflowStep::new("bg", "bang").from_step("input", "rv", 0))
    }

    fn plane() -> DataPlane {
        DataPlane::new(
            SharingBackend::CachedObjectStore,
            400.0,
            ObjectStoreConfig::default(),
            DataSize::from_gb(1),
            EvictionPolicy::Lru,
        )
    }

    fn inputs(f: &Fix) -> BTreeMap<String, DatasetId> {
        let mut m = BTreeMap::new();
        m.insert("data".to_string(), f.input);
        m
    }

    #[test]
    fn a_completed_run_checkpoints_every_step() {
        let mut f = fix();
        let ins = inputs(&f);
        let result = run_workflow(
            &mut f.server,
            &mut f.pool,
            SimTime::ZERO,
            "boliu",
            f.history,
            &chain(),
            &ins,
        )
        .unwrap();
        let ck = &result.checkpoint;
        assert_eq!(ck.workflow, "chain");
        assert_eq!(ck.steps.len(), 3);
        for (step, jobs) in &result.step_jobs {
            assert_eq!(ck.steps[step].job, *jobs);
        }
        // Output refs carry the real dataset content ids.
        let up_out = result.step_outputs["up"][0];
        let expected = f.server.dataset(up_out).unwrap().content_id();
        assert_eq!(ck.steps["up"].outputs[0].content, expected);
    }

    #[test]
    fn an_unpublished_checkpoint_reruns_everything() {
        let mut f = fix();
        let ins = inputs(&f);
        let result = run_workflow(
            &mut f.server,
            &mut f.pool,
            SimTime::ZERO,
            "boliu",
            f.history,
            &chain(),
            &ins,
        )
        .unwrap();
        // Nothing was published into the plane: no output is reachable.
        let plan = result.checkpoint.recovery_plan(&chain(), &plane());
        assert!(plan.skip.is_empty());
        assert_eq!(plan.rerun, vec!["up", "rv", "bg"]);
    }

    #[test]
    fn a_warm_cache_resumes_with_zero_network_bytes() {
        let mut f = fix();
        let ins = inputs(&f);
        let wf = chain();
        let result = run_workflow(
            &mut f.server,
            &mut f.pool,
            SimTime::ZERO,
            "boliu",
            f.history,
            &wf,
            &ins,
        )
        .unwrap();
        let mut pl = plane();
        result.checkpoint.publish(&mut pl, "w1");

        // Resume onto the same worker: every step skips, and the re-stage
        // hits the local cache — zero bytes cross the network.
        let report = resume_workflow(
            &mut f.server,
            &mut f.pool,
            &mut pl,
            "w1",
            result.finished_at,
            "boliu",
            f.history,
            &wf,
            &ins,
            &result.checkpoint,
        )
        .unwrap();
        assert_eq!(report.restaged_bytes, DataSize::ZERO);
        assert!(report.result.step_jobs.is_empty(), "no step re-executed");
        assert_eq!(report.result.step_outputs.len(), 3);
        assert!(report.decisions.values().all(
            |d| matches!(d, RecoveryDecision::Resumed { network_bytes } if network_bytes.is_zero())
        ));
    }

    #[test]
    fn a_lost_suffix_reruns_and_reproduces_the_result() {
        let mut f = fix();
        let ins = inputs(&f);
        let wf = chain();
        let result = run_workflow(
            &mut f.server,
            &mut f.pool,
            SimTime::ZERO,
            "boliu",
            f.history,
            &wf,
            &ins,
        )
        .unwrap();
        let final_before = result.step_outputs["bg"][0];
        let content_before = f.server.dataset(final_before).unwrap().content.clone();

        // Only the prefix survived the disruption: drop "bg" from the
        // checkpoint, publish the rest to a peer worker.
        let mut partial = result.checkpoint.clone();
        partial.steps.remove("bg");
        let mut pl = plane();
        partial.publish(&mut pl, "w-old");

        let report = resume_workflow(
            &mut f.server,
            &mut f.pool,
            &mut pl,
            "w-new",
            result.finished_at,
            "boliu",
            f.history,
            &wf,
            &ins,
            &partial,
        )
        .unwrap();
        assert_eq!(report.decisions["bg"], RecoveryDecision::Rerun);
        assert!(matches!(
            report.decisions["rv"],
            RecoveryDecision::Resumed { .. }
        ));
        // Only the suffix ran, on a fresh job.
        assert_eq!(report.result.step_jobs.len(), 1);
        assert!(report.result.step_jobs.contains_key("bg"));
        // The recovered prefix came from the peer/object ladder: bytes > 0.
        assert!(!report.restaged_bytes.is_zero());
        // And the rerun reproduces the same content.
        let rerun_out = report.result.step_outputs["bg"][0];
        assert_eq!(f.server.dataset(rerun_out).unwrap().content, content_before);
    }
}
