//! End-to-end integration of the paper's §V.A use case (experiment E1).
//!
//! Deploy → transfer → analyze → scale → re-analyze, asserting both the
//! calibrated performance numbers and the integrity of the computed
//! artifacts.

use cumulus::cloud::{BillingMode, InstanceType};
use cumulus::galaxy::{DatasetState, GalaxyJobState};
use cumulus::provision::{GpState, Topology};
use cumulus::scenario::UseCaseScenario;
use cumulus::simkit::time::SimTime;

#[test]
fn full_use_case_reproduces_paper_numbers() {
    let t0 = SimTime::ZERO;
    let (mut s, report) = UseCaseScenario::deploy(101, t0).unwrap();

    // Deployment: Figure 10 says 8.8 minutes on m1.small.
    let deploy_mins = report.duration_from(t0).as_mins_f64();
    assert!(
        (deploy_mins - 8.8).abs() < 0.45,
        "deployment {deploy_mins} min"
    );

    // Steps 1-3 on the small dataset.
    let (ds_small, t1) = s.transfer_four_cel_samples(report.ready_at).unwrap();
    let (job1, t2) = s.run_differential_expression(t1, ds_small).unwrap();
    assert_eq!(s.galaxy.job(job1).unwrap().state, GalaxyJobState::Ok);

    // Step 4 variant A: larger dataset on the small node.
    let (ds_large, t3) = s.transfer_affy_cel_samples(t2).unwrap();
    let (job2, t4) = s.run_differential_expression(t3, ds_large).unwrap();
    let small_exec = (t2.since(t1) + t4.since(t3)).as_mins_f64();
    assert!(
        (small_exec - 10.7).abs() < 0.2,
        "steps 3+4 on m1.small: {small_exec} min (paper 10.7)"
    );

    // Cost: the paper reports ≈ $0.007 for the small-instance execution.
    let exec_cost = s.window_cost(t1, t2) + s.window_cost(t3, t4);
    assert!(
        (exec_cost - 0.007).abs() < 0.002,
        "execution cost ${exec_cost:.4} (paper $0.007)"
    );

    // Scale up: the medium node join must land "within minutes".
    let joined = s.add_medium_worker(t4).unwrap();
    let join_mins = joined.since(t4).as_mins_f64();
    assert!(
        join_mins < 8.0 && join_mins > 1.0,
        "join took {join_mins} min"
    );

    // Rerun both datasets: now ≈ 6.9 minutes.
    let (ds_small2, u1) = s.transfer_four_cel_samples(joined).unwrap();
    let (_, u2) = s.run_differential_expression(u1, ds_small2).unwrap();
    let (ds_large2, u3) = s.transfer_affy_cel_samples(u2).unwrap();
    let (_, u4) = s.run_differential_expression(u3, ds_large2).unwrap();
    let medium_exec = (u2.since(u1) + u4.since(u3)).as_mins_f64();
    assert!(
        (medium_exec - 6.9).abs() < 0.2,
        "steps 3+4 with c1.medium: {medium_exec} min (paper 6.9)"
    );

    // Artifact integrity: both top tables are real, ranked tables.
    for job in [job1, job2] {
        let outputs = &s.galaxy.job(job).unwrap().outputs;
        let table = s.galaxy.dataset(outputs[0]).unwrap();
        assert_eq!(table.state, DatasetState::Ok);
        let (cols, rows) = table.content.as_table().expect("top table is tabular");
        assert_eq!(cols[0], "ID");
        assert!(!rows.is_empty());
        // adj.P.Val column is sorted ascending.
        let ps: Vec<f64> = rows.iter().map(|r| r[4].parse().unwrap()).collect();
        for pair in ps.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12, "top table not ranked");
        }
        // Figure is a well-formed SVG.
        let figure = s.galaxy.dataset(outputs[1]).unwrap();
        match figure.content.body() {
            cumulus::galaxy::ContentBody::Svg(svg) => {
                assert!(svg.starts_with("<svg"));
                assert!(svg.ends_with("</svg>"));
            }
            other => panic!("figure should be SVG, got {other:?}"),
        }
    }
}

#[test]
fn transfers_into_galaxy_via_globus_are_fast_and_recorded() {
    let (mut s, report) = UseCaseScenario::deploy(102, SimTime::ZERO).unwrap();
    let (ds, when) = s.transfer_four_cel_samples(report.ready_at).unwrap();
    // inter-site GridFTP path moves 10.7 MB in seconds, not minutes.
    let secs = when.since(report.ready_at).as_secs_f64();
    assert!(secs < 60.0, "transfer took {secs} s");
    // The dataset landed in the history with the declared size.
    let d = s.galaxy.dataset(ds).unwrap();
    assert_eq!(d.name, "fourCelFileSamples.zip");
    assert_eq!(d.size.as_mb_f64(), 10.7);
    assert_eq!(d.state, DatasetState::Ok);
    // The transfer service has the task on file for this user.
    assert_eq!(s.world.transfer.tasks_for("boliu").len(), 1);
}

#[test]
fn concurrent_users_share_the_cluster_fairly() {
    // "the same approach can be applied for concurrent execution when
    // multiple users submit tasks … at the same time."
    let mut topology = Topology::single_node(InstanceType::M1Small);
    topology.workers = vec![InstanceType::C1Medium; 2];
    let (mut s, report) = UseCaseScenario::deploy_with(103, SimTime::ZERO, topology).unwrap();
    s.galaxy.register_user("user2");
    let h2 = s
        .galaxy
        .create_history(report.ready_at, "user2", "second analysis")
        .unwrap();

    let (ds, t1) = s.transfer_four_cel_samples(report.ready_at).unwrap();
    // Both users fire three analyses each.
    let mut params = std::collections::BTreeMap::new();
    params.insert("input".to_string(), ds.0.to_string());
    let mut jobs = Vec::new();
    {
        let pool = &mut s.world.instance_mut(&s.instance).unwrap().pool;
        for i in 0..6 {
            let (user, history) = if i % 2 == 0 {
                ("boliu", s.history)
            } else {
                ("user2", h2)
            };
            jobs.push(
                s.galaxy
                    .run_tool(
                        t1,
                        user,
                        history,
                        "crdata_affyDifferentialExpression",
                        &params,
                        pool,
                    )
                    .unwrap(),
            );
        }
        let done = s.galaxy.drive_jobs(t1, pool).unwrap();
        assert!(done > t1);
        // Fair share: both users consumed CPU.
        assert!(pool.user_usage("boliu") > 0.0);
        assert!(pool.user_usage("user2") > 0.0);
    }
    for job in jobs {
        assert_eq!(s.galaxy.job(job).unwrap().state, GalaxyJobState::Ok);
    }
}

#[test]
fn stop_resume_preserves_the_instance_and_pauses_billing() {
    let (mut s, report) = UseCaseScenario::deploy(104, SimTime::ZERO).unwrap();
    let stopped = s.world.stop_instance(report.ready_at, &s.instance).unwrap();
    assert_eq!(
        s.world.instance(&s.instance).unwrap().state,
        GpState::Stopped
    );
    let cost_at_stop = s.world.ec2.total_cost(BillingMode::PerSecond, stopped);

    let weekend = stopped + cumulus::simkit::time::SimDuration::from_hours(48);
    assert_eq!(
        s.world.ec2.total_cost(BillingMode::PerSecond, weekend),
        cost_at_stop,
        "stopped instances cost nothing"
    );

    let resumed = s.world.resume_instance(weekend, &s.instance).unwrap();
    assert_eq!(
        s.world.instance(&s.instance).unwrap().state,
        GpState::Running
    );

    // The cluster still works after resume: run the analysis again.
    let (ds, t1) = s.transfer_four_cel_samples(resumed.ready_at).unwrap();
    let (job, _) = s.run_differential_expression(t1, ds).unwrap();
    assert_eq!(s.galaxy.job(job).unwrap().state, GalaxyJobState::Ok);
}

#[test]
fn hourly_billing_mode_is_more_expensive() {
    let (s, report) = UseCaseScenario::deploy(105, SimTime::ZERO).unwrap();
    let at = report.ready_at;
    let per_second = s.world.ec2.total_cost(BillingMode::PerSecond, at);
    let hourly = s.world.ec2.total_cost(BillingMode::HourlyRoundUp, at);
    assert!(hourly >= per_second);
    // 8.8 minutes rounds up to a full hour of m1.small.
    assert!((hourly - 0.04).abs() < 1e-9, "hourly={hourly}");
}
