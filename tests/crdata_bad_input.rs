//! Malformed expression matrices reaching a CRData tool through Galaxy:
//! the tool runs inside `on_condor_completion`, so a bad dataset must end
//! as a failed job with a readable reason, never as a panic that takes
//! the episode down.

use std::collections::BTreeMap;

use cumulus::crdata::register_all;
use cumulus::galaxy::{Content, GalaxyJobState, GalaxyServer};
use cumulus::htc::{CondorPool, Machine};
use cumulus::net::{DataSize, NodeId};
use cumulus::simkit::time::SimTime;

/// Run `crdata_affyDifferentialExpression` with `normalize=yes` on one
/// matrix dataset and drive it to completion; the job's final state and
/// error message.
fn run_differential_expression(matrix: Content) -> (GalaxyJobState, Option<String>) {
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
            "cel.matrix",
            "matrix",
            DataSize::from_kb(1),
            matrix,
        )
        .unwrap();
    let mut pool = CondorPool::new();
    pool.add_machine(Machine::new("galaxy", 1.0, 1700, 1))
        .unwrap();
    let params: BTreeMap<String, String> = [
        ("input", input.0.to_string()),
        ("normalize", "yes".to_string()),
        ("adjust", "BH".to_string()),
        ("top", "10".to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let job = server
        .run_tool(
            SimTime::ZERO,
            "boliu",
            history,
            "crdata_affyDifferentialExpression",
            &params,
            &mut pool,
        )
        .unwrap();
    server.drive_jobs(SimTime::ZERO, &mut pool).unwrap();
    let job = server.job(job).unwrap();
    (job.state, job.error.clone())
}

/// Two probes over two samples per group.
fn matrix(values: Vec<f64>) -> Content {
    Content::Matrix {
        row_names: vec!["probe_1".to_string(), "probe_2".to_string()],
        col_names: ["ctrl_1", "ctrl_2", "treat_1", "treat_2"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        values,
    }
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
