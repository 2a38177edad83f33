//! Malformed datasets reaching a CRData tool through Galaxy: the tool
//! runs inside `on_condor_completion`, so a bad dataset must end as a
//! failed job with a readable reason, never as a panic that takes the
//! episode down.

use std::collections::BTreeMap;

use cumulus::crdata::register_all;
use cumulus::galaxy::{Content, ContentBody, GalaxyJobState, GalaxyServer};
use cumulus::htc::{CondorPool, Machine};
use cumulus::net::{DataSize, NodeId};
use cumulus::simkit::time::SimTime;

/// Run `tool` on one dataset (bound to its `input` parameter) with the
/// given extra parameters and drive it to completion; the job's final
/// state and error message.
fn run_tool(
    tool: &str,
    dtype: &str,
    data: Content,
    extra: &[(&str, &str)],
) -> (GalaxyJobState, Option<String>) {
    let mut server = GalaxyServer::new(NodeId(0), None);
    register_all(&mut server.registry).unwrap();
    server.register_user("boliu");
    let history = server
        .create_history(SimTime::ZERO, "boliu", "analysis")
        .unwrap();
    let input = server
        .add_dataset(
            SimTime::ZERO,
            history,
            "data",
            dtype,
            DataSize::from_kb(1),
            data,
        )
        .unwrap();
    let mut pool = CondorPool::new();
    pool.add_machine(Machine::new("galaxy", 1.0, 1700, 1))
        .unwrap();
    let params: BTreeMap<String, String> = [("input", input.0.to_string())]
        .into_iter()
        .chain(extra.iter().map(|&(k, v)| (k, v.to_string())))
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let job = server
        .run_tool(SimTime::ZERO, "boliu", history, tool, &params, &mut pool)
        .unwrap();
    server.drive_jobs(SimTime::ZERO, &mut pool).unwrap();
    let job = server.job(job).unwrap();
    (job.state, job.error.clone())
}

/// Run `crdata_affyDifferentialExpression` with `normalize=yes` on one
/// matrix dataset.
fn run_differential_expression(matrix: Content) -> (GalaxyJobState, Option<String>) {
    run_tool(
        "crdata_affyDifferentialExpression",
        "matrix",
        matrix,
        &[("normalize", "yes"), ("adjust", "BH"), ("top", "10")],
    )
}

/// A table with the given columns and rows.
fn table(columns: &[&str], rows: &[&[&str]]) -> Content {
    Content::new(ContentBody::Table {
        columns: columns.iter().map(|s| s.to_string()).collect(),
        rows: rows
            .iter()
            .map(|r| r.iter().map(|s| s.to_string()).collect())
            .collect(),
    })
}

/// Two probes over two samples per group.
fn matrix(values: Vec<f64>) -> Content {
    Content::new(ContentBody::Matrix {
        row_names: vec!["probe_1".to_string(), "probe_2".to_string()],
        col_names: ["ctrl_1", "ctrl_2", "treat_1", "treat_2"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        values,
    })
}

#[test]
fn value_count_disagreeing_with_labels_fails_the_job() {
    let values = vec![100.0, 110.0, 400.0, 420.0, 50.0, 55.0, 52.0];
    let (state, error) = run_differential_expression(matrix(values));
    assert_eq!(state, GalaxyJobState::Error);
    assert_eq!(error.as_deref(), Some("input: 7 values for a 2 x 4 matrix"));
}

#[test]
fn non_finite_cell_fails_the_job() {
    let values = vec![100.0, 110.0, 400.0, 420.0, 50.0, f64::NAN, 52.0, 51.0];
    let (state, error) = run_differential_expression(matrix(values));
    assert_eq!(state, GalaxyJobState::Error);
    assert_eq!(
        error.as_deref(),
        Some("input: non-finite value NaN at row \"probe_2\", column \"ctrl_2\"")
    );
}

#[test]
fn nan_cell_fails_a_two_group_t_test() {
    let data = table(
        &["group1", "group2"],
        &[&["30.1", "29.8"], &["NaN", "29.9"], &["30.0", "29.7"]],
    );
    let (state, error) = run_tool("crdata_twoGroupTTest", "tabular", data, &[]);
    assert_eq!(state, GalaxyJobState::Error);
    assert_eq!(
        error.as_deref(),
        Some("group1: non-finite value NaN at row 2")
    );
}

#[test]
fn nan_cell_fails_descriptive_statistics() {
    let data = table(
        &["label", "value"],
        &[&["a", "1.5"], &["b", "2.5"], &["c", "NaN"], &["d", "4.0"]],
    );
    let (state, error) = run_tool("crdata_descriptiveStatistics", "tabular", data, &[]);
    assert_eq!(state, GalaxyJobState::Error);
    assert_eq!(
        error.as_deref(),
        Some("value: non-finite value NaN at row 3")
    );
}

#[test]
fn nan_cell_fails_a_kaplan_meier_curve() {
    let data = table(
        &["time", "event"],
        &[&["5", "1"], &["8", "0"], &["NaN", "1"], &["12", "1"]],
    );
    let (state, error) = run_tool("crdata_survivalKaplanMeier", "tabular", data, &[]);
    assert_eq!(state, GalaxyJobState::Error);
    assert_eq!(
        error.as_deref(),
        Some("time: non-finite value NaN at row 3")
    );
}
