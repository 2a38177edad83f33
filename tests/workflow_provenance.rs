//! Workflows, provenance completeness, and sharing across the full stack:
//! a multi-step CRData workflow runs on a deployed cluster, every output is
//! traceable to its inputs and parameters, and the results can be shared
//! as a Galaxy Page.

use std::collections::BTreeMap;

use cumulus::cloud::InstanceType;
use cumulus::galaxy::{run_workflow, ContentBody, ShareItem, Visibility, Workflow, WorkflowStep};
use cumulus::provision::Topology;
use cumulus::scenario::UseCaseScenario;
use cumulus::simkit::time::SimTime;

/// A realistic analysis workflow: normalize → (differential expression,
/// QC) in parallel → the DE table feeds a multiple-testing correction.
fn analysis_workflow() -> Workflow {
    Workflow::new("cvrg-analysis", &["cel_data"])
        .step(WorkflowStep::new("normalize", "crdata_affyNormalize").input("input", "cel_data"))
        .step(
            WorkflowStep::new("de", "crdata_affyDifferentialExpression")
                .from_step("input", "normalize", 0)
                .param("normalize", "no")
                .param("top", "100"),
        )
        .step(WorkflowStep::new("qc", "crdata_affyQC").from_step("input", "normalize", 0))
        .step(
            WorkflowStep::new("correct", "crdata_multipleTestingCorrection")
                .from_step("input", "de", 0)
                .param("column", "P.Value")
                .param("method", "holm"),
        )
}

#[test]
fn crdata_workflow_runs_end_to_end_with_full_provenance() {
    let mut topology = Topology::single_node(InstanceType::M1Small);
    topology.workers = vec![InstanceType::C1Medium; 2];
    let (mut s, report) = UseCaseScenario::deploy_with(301, SimTime::ZERO, topology).unwrap();
    let (cel, t1) = s.transfer_four_cel_samples(report.ready_at).unwrap();

    let mut inputs = BTreeMap::new();
    inputs.insert("cel_data".to_string(), cel);
    let result = {
        let instance = s.instance.clone();
        let pool = &mut s.world.instance_mut(&instance).unwrap().pool;
        run_workflow(
            &mut s.galaxy,
            pool,
            t1,
            "boliu",
            s.history,
            &analysis_workflow(),
            &inputs,
        )
        .unwrap()
    };
    assert_eq!(result.step_jobs.len(), 4);
    assert!(result.finished_at > t1);

    // Every step output exists and is Ok.
    for (step, outputs) in &result.step_outputs {
        for ds in outputs {
            let d = s.galaxy.dataset(*ds).unwrap();
            assert_eq!(
                d.state,
                cumulus::galaxy::DatasetState::Ok,
                "step {step} output {ds} not ok"
            );
        }
    }

    // The corrected table really carries the extra column.
    let corrected = result.step_outputs["correct"][0];
    let (cols, rows) = s
        .galaxy
        .dataset(corrected)
        .unwrap()
        .content
        .as_table()
        .expect("corrected table");
    assert_eq!(cols.last().map(String::as_str), Some("adj.P.Val"));
    assert_eq!(rows.len(), 100);

    // Provenance: the corrected table's lineage reaches the uploaded CEL
    // bundle through the normalized matrix and the DE table.
    let lineage = s.galaxy.lineage(corrected).unwrap();
    assert!(
        lineage.contains(&cel),
        "lineage misses the upload: {lineage:?}"
    );
    assert!(lineage.len() >= 3, "lineage too shallow: {lineage:?}");
    // Replay plan is in execution order and starts at the normalizer.
    let plan = s.galaxy.replay_plan(corrected).unwrap();
    assert_eq!(plan.first().unwrap().tool_id, "crdata_affyNormalize");
    assert_eq!(
        plan.last().unwrap().tool_id,
        "crdata_multipleTestingCorrection"
    );
    // Every recorded step retains its exact parameters.
    let de_record = plan
        .iter()
        .find(|j| j.tool_id == "crdata_affyDifferentialExpression")
        .unwrap();
    assert_eq!(de_record.params.get("top").map(String::as_str), Some("100"));
    assert_eq!(
        de_record.params.get("adjust").map(String::as_str),
        Some("BH"),
        "defaulted parameters are captured too"
    );
}

#[test]
fn parallel_workflow_branches_use_multiple_workers() {
    let mut topology = Topology::single_node(InstanceType::M1Small);
    topology.workers = vec![InstanceType::C1Medium; 2];
    let (mut s, report) = UseCaseScenario::deploy_with(302, SimTime::ZERO, topology).unwrap();
    let (cel, t1) = s.transfer_four_cel_samples(report.ready_at).unwrap();
    let mut inputs = BTreeMap::new();
    inputs.insert("cel_data".to_string(), cel);

    // Workflow: one normalize, then 3 independent analyses.
    let wf = Workflow::new("fan-out", &["cel_data"])
        .step(WorkflowStep::new("norm", "crdata_affyNormalize").input("input", "cel_data"))
        .step(
            WorkflowStep::new("de", "crdata_affyDifferentialExpression")
                .from_step("input", "norm", 0),
        )
        .step(WorkflowStep::new("qc", "crdata_affyQC").from_step("input", "norm", 0))
        .step(WorkflowStep::new("pca", "crdata_affyPCA").from_step("input", "norm", 0));

    let result = {
        let instance = s.instance.clone();
        let pool = &mut s.world.instance_mut(&instance).unwrap().pool;
        run_workflow(&mut s.galaxy, pool, t1, "boliu", s.history, &wf, &inputs).unwrap()
    };
    // The three dependent steps ran concurrently: total < serialized time.
    // Each CRData run is ≥ 112 s serial; serialized would be ≥ 4×.
    let elapsed = result.finished_at.since(t1).as_secs_f64();
    assert!(
        elapsed < 3.0 * 112.0 + 300.0,
        "no parallelism visible: {elapsed}s"
    );
    // Jobs landed on distinct machines at some point.
    let machines: std::collections::BTreeSet<String> = {
        let pool = &s.world.instance(&s.instance).unwrap().pool;
        result
            .step_jobs
            .values()
            .filter_map(|j| s.galaxy.job(*j).ok())
            .filter_map(|j| j.condor_job)
            .filter_map(|cj| pool.job(cj).ok().and_then(|j| pool.running_on(j).cloned()))
            .map(|m| m.0)
            .collect()
    };
    assert!(
        machines.len() >= 2,
        "all jobs ran on one machine: {machines:?}"
    );
}

#[test]
fn results_can_be_published_as_a_page() {
    let (mut s, report) = UseCaseScenario::deploy(303, SimTime::ZERO).unwrap();
    let (cel, t1) = s.transfer_four_cel_samples(report.ready_at).unwrap();
    let (job, _) = s.run_differential_expression(t1, cel).unwrap();
    let table = s.galaxy.job(job).unwrap().outputs[0];

    // Private by default: another user cannot see it.
    assert!(!s
        .galaxy
        .sharing
        .can_view(ShareItem::Dataset(table), "reviewer", true));

    // Publishing a public page with a private embed is refused.
    let page = cumulus::galaxy::Page {
        slug: "cvrg-de".to_string(),
        title: "Differential expression in CVRG samples".to_string(),
        owner: "boliu".to_string(),
        body: "Methods and the resulting top table.".to_string(),
        embeds: vec![ShareItem::Dataset(table), ShareItem::History(s.history)],
        visibility: Visibility::Public,
    };
    assert!(s.galaxy.sharing.publish_page(page.clone()).is_err());

    // Make the embeds public, then publish.
    s.galaxy
        .sharing
        .set_visibility(ShareItem::Dataset(table), "boliu", Visibility::Public)
        .unwrap();
    s.galaxy
        .sharing
        .set_visibility(ShareItem::History(s.history), "boliu", Visibility::Public)
        .unwrap();
    let link = s.galaxy.sharing.publish_page(page).unwrap();
    assert_eq!(link, "/u/boliu/p/cvrg-de");
    let viewed = s
        .galaxy
        .sharing
        .view_page("cvrg-de", "reviewer", false)
        .unwrap();
    assert_eq!(viewed.embeds.len(), 2);
}

#[test]
fn workflow_rerun_reproduces_identical_results() {
    // "Galaxy supports reproducibility by capturing sufficient information
    // … so that the analysis can be repeated in the future."
    let run = |seed: u64| {
        let (mut s, report) = UseCaseScenario::deploy(seed, SimTime::ZERO).unwrap();
        let (cel, t1) = s.transfer_four_cel_samples(report.ready_at).unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert("cel_data".to_string(), cel);
        let result = {
            let instance = s.instance.clone();
            let pool = &mut s.world.instance_mut(&instance).unwrap().pool;
            run_workflow(
                &mut s.galaxy,
                pool,
                t1,
                "boliu",
                s.history,
                &analysis_workflow(),
                &inputs,
            )
            .unwrap()
        };
        let corrected = result.step_outputs["correct"][0];
        match s.galaxy.dataset(corrected).unwrap().content.body() {
            ContentBody::Table { rows, .. } => rows.clone(),
            _ => panic!("expected table"),
        }
    };
    assert_eq!(run(304), run(304), "same inputs, same results");
}
