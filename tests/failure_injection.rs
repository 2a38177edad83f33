//! Failure injection across the stack: instance loss mid-workload,
//! network faults mid-transfer, deadlines, and quota pressure.

use std::collections::BTreeMap;

use cumulus::cloud::InstanceType;
use cumulus::galaxy::GalaxyJobState;
use cumulus::htc::JobState;
use cumulus::net::{DataSize, FaultPlan, Outage};
use cumulus::provision::Topology;
use cumulus::scenario::UseCaseScenario;
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::transfer::{Protocol, TaskStatus, TransferRequest};

#[test]
fn worker_loss_evicts_and_reruns_the_job() {
    let mut topology = Topology::single_node(InstanceType::M1Small);
    topology.workers = vec![InstanceType::C1Medium];
    let (mut s, report) = UseCaseScenario::deploy_with(201, SimTime::ZERO, topology).unwrap();
    let (ds, t1) = s.transfer_four_cel_samples(report.ready_at).unwrap();

    // Submit the analysis; it matches the faster c1.medium worker.
    let mut params = BTreeMap::new();
    params.insert("input".to_string(), ds.0.to_string());
    let job = {
        let pool = &mut s.world.instance_mut(&s.instance).unwrap().pool;
        let job = s
            .galaxy
            .run_tool(
                t1,
                "boliu",
                s.history,
                "crdata_affyDifferentialExpression",
                &params,
                pool,
            )
            .unwrap();
        let matches = pool.negotiate(t1);
        assert_eq!(matches.len(), 1);
        assert!(
            matches[0].machine.0.contains("worker-0"),
            "ranked to the medium node"
        );
        job
    };

    // The worker's EC2 instance dies mid-run.
    let crash_at = t1 + SimDuration::from_secs(60);
    let (worker_ec2, worker_host) = {
        let inst = s.world.instance(&s.instance).unwrap();
        let w = inst.workers()[0];
        (w.ec2_id, format!("{}.{}", s.instance, w.hostname))
    };
    s.world.ec2.fail_instance(crash_at, worker_ec2).unwrap();
    {
        let pool = &mut s.world.instance_mut(&s.instance).unwrap().pool;
        let evicted = pool.remove_machine(&worker_host, crash_at).unwrap();
        assert_eq!(evicted.len(), 1, "the running job was evicted");
        let condor_job = s.galaxy.job(job).unwrap().condor_job.unwrap();
        assert_eq!(pool.job(condor_job).unwrap().state, JobState::Idle);
        assert_eq!(pool.job(condor_job).unwrap().evictions, 1);
    }

    // The head node picks the job up and finishes it.
    let pool = &mut s.world.instance_mut(&s.instance).unwrap().pool;
    let done = s
        .galaxy
        .drive_jobs(crash_at, pool)
        .expect("job reruns on the head");
    assert!(done > crash_at);
    assert_eq!(s.galaxy.job(job).unwrap().state, GalaxyJobState::Ok);
}

#[test]
fn transfer_faults_retry_to_success_with_restart_markers() {
    let (mut s, report) = UseCaseScenario::deploy(202, SimTime::ZERO).unwrap();
    // Put a rough fault plan on the laptop path.
    let start = report.ready_at;
    let windows: Vec<Outage> = (0..3)
        .map(|i| {
            Outage::new(
                start + SimDuration::from_secs(20 + i * 120),
                start + SimDuration::from_secs(50 + i * 120),
            )
            .unwrap()
        })
        .collect();
    s.world.transfer.set_fault_plan(
        &s.laptop_endpoint,
        "cvrg#galaxy",
        FaultPlan::from_windows(windows),
    );
    let request = TransferRequest::globus(
        "boliu",
        (&s.laptop_endpoint, "/data/local-reads.bam"),
        ("cvrg#galaxy", "/nfs/home/boliu/local-reads.bam"),
        DataSize::from_gb(1),
    );
    let id = {
        let cumulus::provision::GpCloud {
            ref mut transfer,
            ref network,
            ..
        } = s.world;
        transfer.submit(start, network, request).unwrap()
    };
    let task = s.world.transfer.task(id).unwrap();
    assert_eq!(task.status, TaskStatus::Succeeded);
    assert!(task.faults >= 1, "the plan must have bitten");
    assert_eq!(task.bytes_transferred, DataSize::from_gb(1));
    assert_eq!(task.bytes_retransmitted, DataSize::ZERO, "GridFTP resumes");
}

#[test]
fn deadline_failures_surface_in_the_history_panel() {
    // "If a Deadline … is specified, the job will be terminated if it is
    // not completed within the specified time period and Galaxy will
    // indicate an error in its history panel."
    let (mut s, report) = UseCaseScenario::deploy(203, SimTime::ZERO).unwrap();
    let start = report.ready_at;
    let deadline = start + SimDuration::from_secs(2); // far too tight
    let spec = cumulus::crdata::CelBundleSpec::affy_cel_samples();
    let bundle =
        cumulus::crdata::generate_cel_bundle(&spec, &mut s.world.seeds().stream("deadline-bundle"));
    let content = cumulus::crdata::matrix_to_content(bundle.matrix);
    let (ds, _task, when) = {
        let transfer = &mut s.world.transfer;
        let network = &s.world.network;
        s.galaxy
            .get_data_via_globus(
                start,
                "boliu",
                s.history,
                transfer,
                network,
                ("galaxy#CVRG-Galaxy", "/home/boliu/affyCelFileSamples.zip"),
                spec.archive_size,
                content,
                Some(deadline),
            )
            .unwrap()
    };
    assert_eq!(when, deadline, "aborted exactly at the deadline");
    assert_eq!(
        s.galaxy.dataset(ds).unwrap().state,
        cumulus::galaxy::DatasetState::Error
    );
    let panel = s.galaxy.history_panel(s.history).unwrap();
    assert!(
        panel.contains("[error]"),
        "history shows the error: {panel}"
    );
}

#[test]
fn chronic_faults_fail_the_task_after_retries() {
    let (mut s, report) = UseCaseScenario::deploy(204, SimTime::ZERO).unwrap();
    let start = report.ready_at;
    // Outages that always return faster than the transfer can finish.
    let windows: Vec<Outage> = (0..5000)
        .map(|i| {
            Outage::new(
                start + SimDuration::from_secs(5 + i * 40),
                start + SimDuration::from_secs(35 + i * 40),
            )
            .unwrap()
        })
        .collect();
    s.world.transfer.set_fault_plan(
        &s.laptop_endpoint,
        "cvrg#galaxy",
        FaultPlan::from_windows(windows),
    );
    let request = TransferRequest::globus(
        "boliu",
        (&s.laptop_endpoint, "/data/huge.bam"),
        ("cvrg#galaxy", "/nfs/home/boliu/huge.bam"),
        DataSize::from_gb(8),
    )
    .with_protocol(Protocol::Ftp); // no restart markers: chronic faults kill it
    let id = s
        .world
        .transfer
        .submit(start, &s.world.network, request)
        .unwrap();
    let task = s.world.transfer.task(id).unwrap();
    assert_eq!(task.status, TaskStatus::Failed);
    assert!(task.faults > 10);
    assert!(task
        .events
        .iter()
        .any(|e| e.description.contains("retry limit exhausted")));
}

#[test]
fn instance_limit_rejects_oversized_topologies() {
    let mut world = cumulus::provision::GpCloud::deterministic(205);
    let mut topology = Topology::single_node(InstanceType::T1Micro);
    topology.workers = vec![InstanceType::T1Micro; 25]; // EC2 limit is 20
    let id = world.create_instance(topology);
    let err = world.start_instance(SimTime::ZERO, &id).unwrap_err();
    assert!(
        err.to_string().contains("limit"),
        "expected a limit error, got: {err}"
    );
}

#[test]
fn expired_credentials_block_transfers_until_renewed() {
    let (mut s, report) = UseCaseScenario::deploy(206, SimTime::ZERO).unwrap();
    // 13 hours later the 12-hour GP certificate has lapsed.
    let much_later = report.ready_at + SimDuration::from_hours(13);
    let request = TransferRequest::globus(
        "boliu",
        ("galaxy#CVRG-Galaxy", "/home/boliu/x.zip"),
        (&s.laptop_endpoint, "/downloads/x.zip"),
        DataSize::from_mb(10),
    );
    let err = s
        .world
        .transfer
        .submit(much_later, &s.world.network, request.clone())
        .unwrap_err();
    assert!(err.to_string().contains("expired"), "{err}");

    // Re-issuing the certificate (what resume does) unblocks the user.
    let cred = {
        let inst = s.world.instance_mut(&s.instance).unwrap();
        inst.ca
            .issue("boliu", much_later, cumulus::provision::CERT_LIFETIME)
    };
    s.world.transfer.credentials.register(cred);
    assert!(s
        .world
        .transfer
        .submit(much_later, &s.world.network, request)
        .is_ok());
}
