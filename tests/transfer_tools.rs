//! The three Globus Transfer tools (§IV.A) exercised end to end, plus the
//! legacy FTP/HTTP upload paths they replace.

use cumulus::galaxy::{Content, DatasetState};
use cumulus::net::DataSize;
use cumulus::scenario::UseCaseScenario;
use cumulus::simkit::time::SimTime;

#[test]
fn globus_toolset_appears_in_the_tool_panel() {
    let (s, _) = UseCaseScenario::deploy(401, SimTime::ZERO).unwrap();
    // The three transfer tools plus the 35 CRData tools.
    assert_eq!(s.galaxy.registry.len(), 3 + cumulus::crdata::TOOL_COUNT);
    let sections = s.galaxy.registry.sections();
    assert!(sections.contains(&"Globus Online"));
    assert_eq!(
        s.galaxy.registry.tools_in("Globus Online"),
        vec!["globus_go_transfer", "globus_get_data", "globus_send_data"]
    );
    // Figure 4: the GO Transfer form exposes source/destination/deadline.
    let form = s
        .galaxy
        .registry
        .tool("globus_go_transfer")
        .unwrap()
        .form_model();
    assert!(form.contains("Source endpoint"));
    assert!(form.contains("Deadline"));
}

#[test]
fn send_data_via_globus_downloads_a_result() {
    // "using the 'Send data via Globus Online' tool, the 'Source endpoint'
    // is the Galaxy server."
    let (mut s, report) = UseCaseScenario::deploy(402, SimTime::ZERO).unwrap();
    let (cel, t1) = s.transfer_four_cel_samples(report.ready_at).unwrap();
    let (job, t2) = s.run_differential_expression(t1, cel).unwrap();
    let top_table = s.galaxy.job(job).unwrap().outputs[0];

    let laptop = s.laptop_endpoint.clone();
    let (task, finished) = {
        let cumulus::provision::GpCloud {
            ref mut transfer,
            ref network,
            ..
        } = s.world;
        s.galaxy
            .send_data_via_globus(
                t2,
                "boliu",
                top_table,
                transfer,
                network,
                (&laptop, "/downloads/toptable.tsv"),
            )
            .unwrap()
    };
    assert!(finished > t2);
    let record = s.world.transfer.task(task).unwrap();
    assert_eq!(record.status, cumulus::transfer::TaskStatus::Succeeded);
    assert_eq!(record.request.source_endpoint, "cvrg#galaxy");
    assert_eq!(record.request.dest_endpoint, laptop);
}

#[test]
fn sending_a_pending_dataset_is_refused() {
    let (mut s, report) = UseCaseScenario::deploy(403, SimTime::ZERO).unwrap();
    let (cel, t1) = s.transfer_four_cel_samples(report.ready_at).unwrap();
    // Submit the job but do NOT drive it to completion — outputs stay
    // pending.
    let mut params = std::collections::BTreeMap::new();
    params.insert("input".to_string(), cel.0.to_string());
    let pending = {
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
        s.galaxy.job(job).unwrap().outputs[0]
    };
    let laptop = s.laptop_endpoint.clone();
    let err = {
        let cumulus::provision::GpCloud {
            ref mut transfer,
            ref network,
            ..
        } = s.world;
        s.galaxy
            .send_data_via_globus(t1, "boliu", pending, transfer, network, (&laptop, "/x"))
            .unwrap_err()
    };
    assert!(err.to_string().contains("not ready"), "{err}");
}

#[test]
fn third_party_go_transfer_between_remote_endpoints() {
    let (mut s, report) = UseCaseScenario::deploy(404, SimTime::ZERO).unwrap();
    let laptop = s.laptop_endpoint.clone();
    let remote = s.remote_endpoint.clone();
    let (ds, task, when) = {
        let cumulus::provision::GpCloud {
            ref mut transfer,
            ref network,
            ..
        } = s.world;
        s.galaxy
            .go_transfer(
                report.ready_at,
                "boliu",
                s.history,
                transfer,
                network,
                (&remote, "/archive/reads.bam"),
                (&laptop, "/data/reads.bam"),
                DataSize::from_mb(500),
                None,
            )
            .unwrap()
    };
    assert!(when > report.ready_at);
    // The history records the transfer as a stub entry.
    let d = s.galaxy.dataset(ds).unwrap();
    assert_eq!(d.state, DatasetState::Ok);
    assert!(d.name.contains(&remote));
    // Neither endpoint is the Galaxy server: true third-party.
    let record = s.world.transfer.task(task).unwrap();
    assert_ne!(record.request.source_endpoint, "cvrg#galaxy");
    assert_ne!(record.request.dest_endpoint, "cvrg#galaxy");
}

#[test]
fn ftp_upload_is_slower_than_globus_for_the_same_file() {
    let (mut s, report) = UseCaseScenario::deploy(405, SimTime::ZERO).unwrap();
    let t0 = report.ready_at;
    let size = DataSize::from_mb(100);

    // Globus from the laptop.
    let laptop = s.laptop_endpoint.clone();
    let go_done = {
        let cumulus::provision::GpCloud {
            ref mut transfer,
            ref network,
            ..
        } = s.world;
        let request = cumulus::transfer::TransferRequest::globus(
            "boliu",
            (&laptop, "/data/reads.fastq"),
            ("cvrg#galaxy", "/nfs/home/boliu/reads.fastq"),
            size,
        );
        let id = transfer.submit(t0, network, request).unwrap();
        transfer.task(id).unwrap().finished_at
    };

    // FTP from the same laptop node.
    let laptop_node = s.world.network.node("boliu-laptop").unwrap();
    let (ftp_ds, ftp_done) = s
        .galaxy
        .upload_ftp(
            t0,
            s.history,
            "reads.fastq",
            "fastq",
            size,
            Content::Opaque,
            &s.world.network,
            laptop_node,
        )
        .unwrap();
    assert_eq!(s.galaxy.dataset(ftp_ds).unwrap().state, DatasetState::Ok);

    let go_secs = go_done.since(t0).as_secs_f64();
    let ftp_secs = ftp_done.since(t0).as_secs_f64();
    assert!(
        ftp_secs > 4.0 * go_secs,
        "FTP {ftp_secs}s should be much slower than GO {go_secs}s"
    );
}

#[test]
fn receipt_tools_run_through_the_pool_like_any_tool() {
    let (mut s, report) = UseCaseScenario::deploy(406, SimTime::ZERO).unwrap();
    let mut params = std::collections::BTreeMap::new();
    params.insert("source_endpoint".to_string(), s.remote_endpoint.clone());
    params.insert("path".to_string(), "/home/boliu/x.zip".to_string());
    let job = {
        let pool = &mut s.world.instance_mut(&s.instance).unwrap().pool;
        let job = s
            .galaxy
            .run_tool(
                report.ready_at,
                "boliu",
                s.history,
                "globus_get_data",
                &params,
                pool,
            )
            .unwrap();
        s.galaxy.drive_jobs(report.ready_at, pool).unwrap();
        job
    };
    let out = s.galaxy.job(job).unwrap().outputs[0];
    match &s.galaxy.dataset(out).unwrap().content {
        Content::Text(text) => {
            assert!(text.contains("galaxy#CVRG-Galaxy"));
            assert!(text.contains("submitted to Globus Online"));
        }
        other => panic!("expected receipt text, got {other:?}"),
    }
}
