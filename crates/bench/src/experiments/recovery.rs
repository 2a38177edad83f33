//! E14 — workflow recovery policies on a spot-heavy pool.
//!
//! The paper's use-case workflow (§V.A) runs for tens of minutes; on a
//! spot-market pool a node can vanish mid-step. This experiment sweeps
//! **disruption rate** (preemptions per hour) × **recovery policy**
//! (none / workflow retry / retry + checkpoint-resume) over the same
//! four-step CRData chain and the same seeded preemption schedule, so
//! cells within a rate are directly comparable.
//!
//! Every cell is one fixed-tick episode: steps are submitted through a
//! real [`cumulus::galaxy::GalaxyServer`] (provenance and all), staging is
//! charged through the content-addressed data plane, completed outputs
//! are published to the worker's cache plus the object store, and a
//! preemption kills the worker running the current step. Policy `none`
//! gives up at the first mid-step preemption; `retry` restarts the whole
//! workflow after a [`cumulus::simkit::retry`] backoff; `retry+resume`
//! consults the [`cumulus::galaxy::WorkflowCheckpoint`] recovery plan and
//! re-stages recovered outputs instead of recomputing them.
//!
//! The tick keeps its own body rather than the shared `episode` loop:
//! preemptions settle mid-tick, and only the chain's one in-flight step
//! is staged. It stops by the same rule, though (`episode::starved`).
//!
//! Expected shape: no recovery fails once disruptions are frequent enough
//! to land mid-step; both retry policies complete; and resume re-stages
//! at least [`MIN_RESTAGE_REDUCTION`]× fewer repeat bytes than blind
//! retry, because the completed prefix comes back through the data plane
//! instead of being recomputed step by step.

use std::collections::{BTreeMap, BTreeSet};

use cumulus::galaxy::{
    Content, CostModel, DatasetId, GalaxyJobState, GalaxyServer, OutputSpec, ParamSpec,
    ToolDefinition, ToolInvocation, ToolOutput, Workflow, WorkflowCheckpoint, WorkflowStep,
};
use cumulus::htc::{
    CondorPool, JobId, Machine, Value, MACHINE_CACHE_CIDS_ATTR, NEGOTIATION_INTERVAL,
};
use cumulus::net::NodeId;
use cumulus::provision::json::Json;
use cumulus::simkit::retry::{RetryDecision, RetryPolicy};
use cumulus::simkit::rng::RngStream;
use cumulus::simkit::runner::{run_replicas, ReplicaPlan};
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::store::{
    ContentId, DataPlane, DataSize, EvictionPolicy, InputSpec, ObjectStoreConfig, SharingBackend,
    StagingSource,
};

use crate::experiments::episode;
use crate::table::{mins, Table};

/// Spot workers in the pool at any moment (replacements keep it level).
const WORKERS: usize = 3;
/// The §V.A archive driving the chain (the 190.3 MB CEL batch, rounded).
const ARCHIVE_MB: u64 = 190;
/// Declared output sizes along the chain, MB.
const OUTPUT_MB: [u64; 4] = [120, 12, 2, 1];
/// A replacement spot instance joins this long after a preemption.
const REPLACEMENT_DELAY: SimDuration = SimDuration::from_secs(120);
/// Preemption schedule horizon — long past any surviving episode.
const HORIZON_HOURS: f64 = 12.0;
/// NFS export bandwidth, Mbit/s (unused rungs still need a number).
const NFS_BANDWIDTH_MBPS: f64 = 400.0;
/// The claim: blind retry must re-stage at least this many times the
/// bytes checkpoint-resume re-stages, at the claim rate.
pub const MIN_RESTAGE_REDUCTION: f64 = 2.0;
/// The disruption rate the claims are asserted at (per hour).
pub const CLAIM_RATE: u32 = 6;

/// The workflow-level recovery policy of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No recovery: the first mid-step preemption kills the run.
    None,
    /// Workflow-level retry with exponential backoff; every step reruns.
    RetryOnly,
    /// Retry plus checkpoint/resume: completed steps are recovered
    /// through the data plane, only the lost suffix reruns.
    RetryResume,
}

impl Policy {
    /// Render the policy column.
    pub fn label(self) -> &'static str {
        match self {
            Policy::None => "none",
            Policy::RetryOnly => "retry",
            Policy::RetryResume => "retry+resume",
        }
    }
}

/// The measured episode of one grid cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Did the workflow finish all four steps?
    pub completed: bool,
    /// Start of the episode to the last step's completion (or to the
    /// moment the run was abandoned), minutes.
    pub makespan_mins: f64,
    /// Preemptions applied during the episode.
    pub disruptions: u32,
    /// Workflow-level attempts (1 = never disrupted mid-step).
    pub attempts: u32,
    /// Step executions charged to the pool (4 = no rework).
    pub steps_executed: u32,
    /// Bytes that crossed the network for staging, total.
    pub network_bytes: u64,
    /// Network bytes spent re-staging content that had already been
    /// staged once — the pure recovery overhead.
    pub restaged_bytes: u64,
}

/// One cell of the grid: its configuration plus the measured episode.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Preemptions per hour.
    pub rate_per_hour: u32,
    /// The recovery policy the cell ran.
    pub policy: Policy,
    /// The measured episode.
    pub report: CellReport,
}

/// The grid's combos in report order: every policy under every disruption
/// rate. `quick` trims to the claim rate — the three cells the claims
/// compare.
pub fn grid_combos(quick: bool) -> Vec<(u32, Policy)> {
    let rates: &[u32] = if quick { &[CLAIM_RATE] } else { &[3, 6, 12] };
    let policies = [Policy::None, Policy::RetryOnly, Policy::RetryResume];
    let mut combos = Vec::new();
    for &r in rates {
        for p in policies {
            combos.push((r, p));
        }
    }
    combos
}

/// The seeded preemption schedule for one disruption rate. Derived from
/// the master seed — **not** the per-replica seed — so every policy at a
/// given rate faces exactly the same arrivals.
fn disruption_schedule(seed: u64, rate_per_hour: u32) -> Vec<SimTime> {
    let mut rng = RngStream::derive(seed, &format!("e14-disruptions-{rate_per_hour}"));
    let mean = 3600.0 / rate_per_hour as f64;
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += rng.exponential(mean);
        if at >= HORIZON_HOURS * 3600.0 {
            return out;
        }
        out.push(SimTime::ZERO + SimDuration::from_secs_f64(at));
    }
}

/// One CRData-shaped chain tool: ignores its input's bytes (the sim
/// carries contents symbolically) and produces a distinct artifact with
/// the declared size, so content ids are stable across reruns.
fn chain_tool(id: &str, output_mb: u64) -> ToolDefinition {
    let artifact = format!("e14 {id} artifact");
    ToolDefinition {
        id: id.to_string(),
        name: id.to_string(),
        version: "1.0".to_string(),
        description: format!("{id} stage of the E14 chain"),
        params: vec![ParamSpec::dataset("input", "Input")],
        outputs: vec![OutputSpec {
            name: "out".to_string(),
            dtype: "data".to_string(),
        }],
        cost: CostModel::CRDATA_R,
        behavior: std::sync::Arc::new(move |_inv: &ToolInvocation| {
            Ok(vec![ToolOutput {
                name: "out".to_string(),
                dataset_name: artifact.clone(),
                content: Content::Text(artifact.clone()),
                size: Some(DataSize::from_mb(output_mb)),
            }])
        }),
    }
}

/// The §V.A chain as a workflow: normalize → differential expression →
/// multiple-testing correction → plot.
fn use_case_workflow() -> Workflow {
    Workflow::new("e14-usecase", &["cel_data"])
        .step(WorkflowStep::new("normalize", "e14_normalize").input("input", "cel_data"))
        .step(WorkflowStep::new("de", "e14_de").from_step("input", "normalize", 0))
        .step(WorkflowStep::new("correct", "e14_correct").from_step("input", "de", 0))
        .step(WorkflowStep::new("plot", "e14_plot").from_step("input", "correct", 0))
}

/// Tool ids along the chain, in step order.
const TOOLS: [&str; 4] = ["e14_normalize", "e14_de", "e14_correct", "e14_plot"];
/// Step ids along the chain, in step order.
const STEPS: [&str; 4] = ["normalize", "de", "correct", "plot"];

/// Run one grid cell: a fixed-tick episode of the chain under the
/// rate's preemption schedule with the cell's recovery policy.
pub fn run_cell(seed: u64, rate_per_hour: u32, policy: Policy) -> CellReport {
    let schedule = disruption_schedule(seed, rate_per_hour);

    let workflow = use_case_workflow();
    let mut server = GalaxyServer::new(NodeId(0), None);
    for (i, tool) in TOOLS.iter().enumerate() {
        server
            .registry
            .register("E14", chain_tool(tool, OUTPUT_MB[i]))
            .expect("chain tools are distinct");
    }
    server.register_user("boliu");
    let history = server
        .create_history(SimTime::ZERO, "boliu", "e14")
        .expect("fresh user");
    let archive = server
        .add_dataset(
            SimTime::ZERO,
            history,
            "affyCelFileSamples.zip",
            "zip",
            DataSize::from_mb(ARCHIVE_MB),
            Content::Opaque,
        )
        .expect("within quota");
    let mut inputs = BTreeMap::new();
    inputs.insert("cel_data".to_string(), archive);

    let mut plane = DataPlane::new(
        SharingBackend::CachedObjectStore,
        NFS_BANDWIDTH_MBPS,
        ObjectStoreConfig::default(),
        DataSize::from_gb(2),
        EvictionPolicy::Lru,
    );
    let archive_cid = server.dataset(archive).expect("just added").content_id();
    plane.seed_dataset(archive_cid, DataSize::from_mb(ARCHIVE_MB));

    let mut pool = CondorPool::new();
    for w in 0..WORKERS {
        pool.add_machine(Machine::new(&format!("spot-{w}"), 1.0, 1700, 1))
            .expect("worker names are distinct");
    }
    let mut next_worker = WORKERS;
    let mut pending_joins: Vec<(SimTime, String)> = Vec::new();

    let mut retry = RetryPolicy::new(6)
        .with_backoff(SimDuration::from_secs(60), 2.0)
        .state();

    let mut report = CellReport {
        completed: false,
        makespan_mins: 0.0,
        disruptions: 0,
        attempts: 1,
        steps_executed: 0,
        network_bytes: 0,
        restaged_bytes: 0,
    };

    // Which chain outputs have been staged once already — re-staging any
    // of them is recovery overhead.
    let mut seen: BTreeSet<ContentId> = BTreeSet::new();
    // Completed-step outputs, by step id (resume seeds this from the
    // checkpoint's recovered datasets).
    let mut step_outputs: BTreeMap<String, Vec<DatasetId>> = BTreeMap::new();
    // The next chain index to run.
    let mut step_idx = 0usize;
    // The in-flight step: (chain index, condor job, machine once matched).
    let mut inflight: Option<(usize, cumulus::galaxy::GalaxyJobId, JobId, Option<String>)> = None;
    // Backoff gate: no submissions before this instant.
    let mut resume_at = SimTime::ZERO;
    // Extra staging charged to the next match (checkpoint re-staging).
    let mut pending_restage = SimDuration::ZERO;
    let mut failed = false;
    let mut finished_at = SimTime::ZERO;
    let mut sched_idx = 0usize;

    let mut now = SimTime::ZERO;

    // Charge one staging plan and split its bytes into fresh vs re-staged.
    let charge = |plane: &mut DataPlane,
                  seen: &mut BTreeSet<ContentId>,
                  report: &mut CellReport,
                  worker: &str,
                  specs: &[InputSpec]|
     -> SimDuration {
        let plan = plane.stage_job(worker, specs, 1);
        for s in &plan.steps {
            if s.source == StagingSource::LocalCache {
                continue;
            }
            report.network_bytes += s.size.as_bytes();
            if seen.contains(&s.cid) {
                report.restaged_bytes += s.size.as_bytes();
            }
        }
        for s in &plan.steps {
            seen.insert(s.cid);
        }
        plan.total
    };

    while step_idx < STEPS.len() && !failed {
        // Replacement instances that have spun up by now.
        pending_joins.retain(|(at, name)| {
            if *at <= now {
                pool.add_machine(Machine::new(name, 1.0, 1700, 1))
                    .expect("replacement names are fresh");
                false
            } else {
                true
            }
        });

        // Preemptions up to now, with completions settled first so a step
        // that finished before the kill stays finished.
        while sched_idx < schedule.len() && schedule[sched_idx] <= now {
            let d = schedule[sched_idx];
            sched_idx += 1;
            for done in pool.settle(d) {
                handle_completion(
                    &mut server,
                    &mut plane,
                    &mut inflight,
                    &mut step_outputs,
                    &mut step_idx,
                    &mut report,
                    &mut finished_at,
                    done,
                    d,
                );
            }
            if step_idx >= STEPS.len() {
                break;
            }
            report.disruptions += 1;
            // Kill the worker running the current step, else the first
            // machine standing — spot reclamation doesn't aim.
            let victim = inflight
                .as_ref()
                .and_then(|(_, _, _, m)| m.clone())
                .or_else(|| pool.machines().map(|m| m.name.0.clone()).next());
            let Some(victim) = victim else { continue };
            let evicted = pool.remove_machine(&victim, d).expect("victim is pooled");
            plane.fleet.drop_worker(&victim);
            let name = format!("spot-{next_worker}");
            next_worker += 1;
            pending_joins.push((d + REPLACEMENT_DELAY, name));

            let lost_current = matches!(&inflight, Some((_, _, c, _)) if evicted.contains(c));
            if !lost_current {
                continue;
            }
            let (_, _, condor, _) = inflight.take().expect("checked");
            pool.remove_job(condor).expect("evicted job is queued");
            match policy {
                Policy::None => {
                    failed = true;
                    finished_at = d;
                }
                Policy::RetryOnly | Policy::RetryResume => match retry.on_failure(d) {
                    RetryDecision::DeadLetter(_) => {
                        failed = true;
                        finished_at = d;
                    }
                    RetryDecision::Retry { after, .. } => {
                        report.attempts += 1;
                        resume_at = d + after;
                        if policy == Policy::RetryOnly {
                            // Blind restart: forget everything.
                            step_outputs.clear();
                            step_idx = 0;
                        } else {
                            // Consult the checkpoint: completed steps whose
                            // outputs are reachable in the data plane are
                            // skipped; their outputs re-stage at the next
                            // match. The chain resumes at the first loss.
                            let ck = WorkflowCheckpoint::capture(d, &server, &workflow, &inputs)
                                .expect("checkpoint capture of a healthy server");
                            let plan = ck.recovery_plan(&workflow, &plane);
                            step_outputs.clear();
                            step_idx = 0;
                            for (i, step) in STEPS.iter().enumerate() {
                                let Some(outs) = plan.skip.get(*step) else {
                                    break;
                                };
                                step_outputs.insert(
                                    step.to_string(),
                                    outs.iter().map(|o| o.dataset).collect(),
                                );
                                step_idx = i + 1;
                                let specs: Vec<InputSpec> = outs
                                    .iter()
                                    .map(|o| InputSpec {
                                        cid: o.content,
                                        size: o.size,
                                    })
                                    .collect();
                                // Re-stage onto the first surviving worker;
                                // the matchmaker's cache-affinity bonus will
                                // steer the suffix there.
                                if let Some(w) = pool.machines().map(|m| m.name.0.clone()).next() {
                                    pending_restage +=
                                        charge(&mut plane, &mut seen, &mut report, &w, &specs);
                                }
                            }
                        }
                    }
                },
            }
        }
        if failed || step_idx >= STEPS.len() {
            break;
        }

        for done in pool.settle(now) {
            handle_completion(
                &mut server,
                &mut plane,
                &mut inflight,
                &mut step_outputs,
                &mut step_idx,
                &mut report,
                &mut finished_at,
                done,
                now,
            );
        }
        if step_idx >= STEPS.len() {
            break;
        }

        // Submit the next step once any backoff has drained.
        if inflight.is_none() && now >= resume_at {
            let step = &workflow.steps[step_idx];
            let input_ds = match &step.bindings["input"] {
                cumulus::galaxy::Binding::Input(name) => inputs[name],
                cumulus::galaxy::Binding::StepOutput(src, idx) => step_outputs[src][*idx],
            };
            let mut params = BTreeMap::new();
            params.insert("input".to_string(), input_ds.0.to_string());
            let gjob = server
                .run_tool(now, "boliu", history, &step.tool_id, &params, &mut pool)
                .expect("chain tools resolve");
            let condor = server
                .job(gjob)
                .expect("just created")
                .condor_job
                .expect("dispatched");
            inflight = Some((step_idx, gjob, condor, None));
        }

        // Negotiate; charge staging for our match and advertise the cache.
        let matches = pool.negotiate(now);
        for m in &matches {
            let Some((_, gjob, condor, machine)) = inflight.as_mut() else {
                continue;
            };
            if m.job != *condor {
                continue;
            }
            *machine = Some(m.machine.0.clone());
            let job = server.job(*gjob).expect("inflight job exists");
            let specs: Vec<InputSpec> = job
                .inputs
                .values()
                .map(|&d| {
                    let ds = server.dataset(d).expect("input dataset exists");
                    InputSpec {
                        cid: ds.content_id(),
                        size: ds.size,
                    }
                })
                .collect();
            let mut staging = charge(&mut plane, &mut seen, &mut report, &m.machine.0, &specs);
            staging += pending_restage;
            pending_restage = SimDuration::ZERO;
            pool.extend_job(m.job, staging)
                .expect("freshly matched job is running");
            let ad = plane.fleet.attr_string(&m.machine.0);
            let mach = pool.machine_mut(&m.machine.0).expect("matched machine");
            mach.ad.set(MACHINE_CACHE_CIDS_ATTR, Value::Str(ad));
        }

        // The shared stopping rule: an idle step with nothing running and
        // no replacement on its way can never run.
        let step_due = inflight.is_none();
        if let Some(stuck) = episode::starved(now, [&pool], step_due, !pending_joins.is_empty()) {
            panic!("E14 cell {rate_per_hour}/h {}: {stuck}", policy.label());
        }

        now += NEGOTIATION_INTERVAL;
    }

    report.completed = step_idx >= STEPS.len();
    report.makespan_mins = finished_at.since(SimTime::ZERO).as_mins_f64();
    report
}

/// One settled Condor completion: run the tool's behavior through the
/// server, publish the outputs into the data plane, advance the chain.
#[allow(clippy::too_many_arguments)]
fn handle_completion(
    server: &mut GalaxyServer,
    plane: &mut DataPlane,
    inflight: &mut Option<(usize, cumulus::galaxy::GalaxyJobId, JobId, Option<String>)>,
    step_outputs: &mut BTreeMap<String, Vec<DatasetId>>,
    step_idx: &mut usize,
    report: &mut CellReport,
    finished_at: &mut SimTime,
    condor: JobId,
    at: SimTime,
) {
    server.on_condor_completion(at, condor);
    let Some((idx, gjob, c, machine)) = inflight.clone() else {
        return;
    };
    if c != condor {
        return;
    }
    *inflight = None;
    let job = server.job(gjob).expect("completed job exists");
    assert_eq!(job.state, GalaxyJobState::Ok, "E14 chain tools never fail");
    let outputs = job.outputs.clone();
    let worker = machine.expect("a completed job was matched");
    plane.fleet.ensure_worker(&worker);
    for &out in &outputs {
        let ds = server.dataset(out).expect("output dataset exists");
        plane.fleet.insert(&worker, ds.content_id(), ds.size);
        plane.object.put(ds.content_id(), ds.size);
    }
    step_outputs.insert(STEPS[idx].to_string(), outputs);
    report.steps_executed += 1;
    *step_idx = idx + 1;
    *finished_at = at;
}

/// Run the grid, fanned out over the replica runner (`threads` as
/// everywhere: `0` = one per CPU, `1` = serial). Rows come back in combo
/// order at any thread count.
pub fn run_grid(seed: u64, threads: usize, quick: bool) -> Vec<RecoveryRow> {
    let combos = grid_combos(quick);
    let reports = run_replicas(
        ReplicaPlan::new(seed, combos.len()).with_threads(threads),
        |i, _seeds| {
            let (rate, policy) = combos[i];
            run_cell(seed, rate, policy)
        },
    );
    combos
        .into_iter()
        .zip(reports)
        .map(|((rate_per_hour, policy), report)| RecoveryRow {
            rate_per_hour,
            policy,
            report,
        })
        .collect()
}

/// The grid cell matching `rate` × `policy`.
fn cell(rows: &[RecoveryRow], rate: u32, policy: Policy) -> &RecoveryRow {
    rows.iter()
        .find(|r| r.rate_per_hour == rate && r.policy == policy)
        .expect("the grid contains the claim cells")
}

/// The experiment's claim ratio at the claim rate: repeat bytes staged by
/// blind retry over repeat bytes staged by checkpoint-resume. Must be at
/// least [`MIN_RESTAGE_REDUCTION`].
pub fn restage_reduction(rows: &[RecoveryRow]) -> f64 {
    let retry = cell(rows, CLAIM_RATE, Policy::RetryOnly);
    let resume = cell(rows, CLAIM_RATE, Policy::RetryResume);
    retry.report.restaged_bytes as f64 / resume.report.restaged_bytes.max(1) as f64
}

/// Render the E14 table plus the claim line.
pub fn render(rows: &[RecoveryRow]) -> String {
    let mut t = Table::new(
        "E14 — workflow recovery on a spot pool (4-step CRData chain, 190 MB archive)",
        &[
            "rate (/h)",
            "policy",
            "done",
            "makespan (min)",
            "preempts",
            "attempts",
            "steps run",
            "net (MB)",
            "restaged (MB)",
        ],
    );
    for r in rows {
        t.row(&[
            r.rate_per_hour.to_string(),
            r.policy.label().to_string(),
            if r.report.completed { "yes" } else { "FAIL" }.to_string(),
            mins(r.report.makespan_mins),
            r.report.disruptions.to_string(),
            r.report.attempts.to_string(),
            r.report.steps_executed.to_string(),
            format!("{:.0}", r.report.network_bytes as f64 / 1e6),
            format!("{:.0}", r.report.restaged_bytes as f64 / 1e6),
        ]);
    }
    let none = cell(rows, CLAIM_RATE, Policy::None);
    let retry = cell(rows, CLAIM_RATE, Policy::RetryOnly);
    let resume = cell(rows, CLAIM_RATE, Policy::RetryResume);
    format!(
        "{}\nat {CLAIM_RATE} preemptions/h the unprotected run {} while both retry \
         policies finish; blind retry re-stages {:.0} MB of already-staged data \
         against {:.0} MB for checkpoint-resume ({:.1}x less rework) — the resumed \
         run recovers the completed prefix through the data plane instead of \
         recomputing it.\n",
        t.render(),
        if none.report.completed {
            "survives"
        } else {
            "fails"
        },
        retry.report.restaged_bytes as f64 / 1e6,
        resume.report.restaged_bytes as f64 / 1e6,
        restage_reduction(rows),
    )
}

/// The machine-readable grid for `BENCH_e14.json`. Contains only
/// seed-deterministic quantities (never wall times), so the file is
/// byte-identical at any thread count — the property the CI smoke run
/// asserts.
pub fn json_doc(seed: u64, rows: &[RecoveryRow]) -> Json {
    let cells: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("rate_per_hour", Json::Num(r.rate_per_hour as f64)),
                ("policy", Json::str(r.policy.label())),
                ("completed", Json::Bool(r.report.completed)),
                ("makespan_mins", Json::Num(round4(r.report.makespan_mins))),
                ("disruptions", Json::Num(r.report.disruptions as f64)),
                ("attempts", Json::Num(r.report.attempts as f64)),
                ("steps_executed", Json::Num(r.report.steps_executed as f64)),
                ("network_bytes", Json::Num(r.report.network_bytes as f64)),
                ("restaged_bytes", Json::Num(r.report.restaged_bytes as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("bench", Json::str("e14_recovery_grid")),
        ("seed", Json::Num(seed as f64)),
        ("workers", Json::Num(WORKERS as f64)),
        ("archive_mb", Json::Num(ARCHIVE_MB as f64)),
        ("claim_rate_per_hour", Json::Num(CLAIM_RATE as f64)),
        ("rows", Json::Arr(cells)),
        (
            "restage_reduction_factor",
            Json::Num(round4(restage_reduction(rows))),
        ),
    ])
}

fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        let full = grid_combos(false);
        assert_eq!(full.len(), 9);
        assert_eq!(full[0], (3, Policy::None));
        let quick = grid_combos(true);
        assert_eq!(quick.len(), 3);
        assert!(quick.iter().all(|&(r, _)| r == CLAIM_RATE));
    }

    #[test]
    fn quick_grid_is_thread_count_invariant_and_meets_the_claim() {
        let seed = crate::REPORT_SEED;
        let serial = run_grid(seed, 1, true);
        let parallel = run_grid(seed, 3, true);
        assert_eq!(render(&serial), render(&parallel));
        assert_eq!(
            json_doc(seed, &serial).render(),
            json_doc(seed, &parallel).render()
        );
        let none = cell(&serial, CLAIM_RATE, Policy::None);
        let resume = cell(&serial, CLAIM_RATE, Policy::RetryResume);
        assert!(
            !none.report.completed,
            "no-recovery must fail at {CLAIM_RATE}/h"
        );
        assert!(
            resume.report.completed,
            "retry+resume must complete at {CLAIM_RATE}/h"
        );
        assert!(
            restage_reduction(&serial) >= MIN_RESTAGE_REDUCTION,
            "resume must re-stage at least {MIN_RESTAGE_REDUCTION}x fewer bytes, got {:.2}",
            restage_reduction(&serial)
        );
    }

    #[test]
    fn recovery_policies_complete_and_resume_skips_rework() {
        let rows = run_grid(crate::REPORT_SEED, 0, false);
        for r in &rows {
            // A completed run executed at least the four chain steps.
            if r.report.completed {
                assert!(r.report.steps_executed >= 4);
            }
        }
        for &rate in &[3u32, 6, 12] {
            let retry = cell(&rows, rate, Policy::RetryOnly);
            let resume = cell(&rows, rate, Policy::RetryResume);
            // Resume completes wherever blind retry does (a preemption
            // storm that starves every step kills both alike), and it
            // never reruns more steps or re-stages more bytes.
            if retry.report.completed {
                assert!(
                    resume.report.completed,
                    "retry completed at {rate}/h but retry+resume did not"
                );
                assert!(resume.report.steps_executed <= retry.report.steps_executed);
                assert!(resume.report.restaged_bytes <= retry.report.restaged_bytes);
            }
        }
        // At the claim rate, resume specifically must survive.
        assert!(
            cell(&rows, CLAIM_RATE, Policy::RetryResume)
                .report
                .completed
        );
    }

    #[test]
    fn an_undisrupted_chain_runs_each_step_once() {
        // seed 1 at 1/h: the first preemption lands past the episode.
        let mut makespans = Vec::new();
        for policy in [Policy::None, Policy::RetryOnly, Policy::RetryResume] {
            let r = run_cell(1, 1, policy);
            assert!(r.completed);
            assert_eq!(r.disruptions, 0, "seed 1 must stay calm at 1/h");
            assert_eq!(r.steps_executed, 4);
            assert_eq!(r.attempts, 1);
            assert_eq!(r.restaged_bytes, 0);
            makespans.push(r.makespan_mins);
        }
        // Absent disruptions, the policy is irrelevant.
        assert_eq!(makespans[0], makespans[1]);
        assert_eq!(makespans[1], makespans[2]);
    }

    #[test]
    fn report_renders_with_the_claim_line() {
        let rows = run_grid(7513, 0, true);
        let out = render(&rows);
        assert!(out.contains("E14"));
        assert!(out.contains("preemptions/h"));
    }
}
