//! Figure 11 interactively: Globus Transfer vs FTP vs HTTP by file size,
//! plus the fault-recovery behaviour that motivates Globus Online.
//!
//! Run with: `cargo run --release --example transfer_comparison`

use cumulus::net::{DataSize, Network};
use cumulus::simkit::disrupt::{DisruptionPlan, Window};
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::transfer::{
    calibrated_wan_link, CertificateAuthority, EndpointKind, Protocol, TransferRequest,
    TransferService,
};

fn main() {
    let link = calibrated_wan_link();
    println!("laptop -> Galaxy server path: 90 ms RTT, 37.5 Mbit/s usable\n");

    println!("== Figure 11: achieved transfer rate (Mbit/s) by method and file size ==");
    println!(
        "{:>10} {:>16} {:>10} {:>10}",
        "size", "globus-transfer", "ftp", "http"
    );
    let sizes = [
        DataSize::from_mb(1),
        DataSize::from_mb(10),
        DataSize::from_mb(100),
        DataSize::from_gb(1),
        DataSize::from_gb(2),
        DataSize::from_gb(4),
        DataSize::from_gb(8),
    ];
    for size in sizes {
        let fmt_rate = |p: Protocol| match p.achieved_rate(size, &link) {
            Some(r) => format!("{:.2}", r.as_mbps()),
            None => "refused".to_string(),
        };
        println!(
            "{:>10} {:>16} {:>10} {:>10}",
            size.to_string(),
            fmt_rate(Protocol::GLOBUS_DEFAULT),
            fmt_rate(Protocol::Ftp),
            fmt_rate(Protocol::Http),
        );
    }
    println!("(paper: GO 1.8–37, FTP 0.2–5.9, HTTP < 0.03 with a 2 GB cap)\n");

    // Fault recovery: what the hosted service adds beyond raw speed.
    println!("== Fault recovery: a 1 GB transfer through a 60 s outage ==");
    let mut network = Network::new();
    let laptop = network.add_node("laptop");
    let server = network.add_node("galaxy");
    network.connect(laptop, server, link);

    let mut service = TransferService::new();
    service
        .endpoints
        .register("boliu#laptop", laptop, EndpointKind::GlobusConnect)
        .unwrap();
    service
        .endpoints
        .register("cvrg#galaxy", server, EndpointKind::GridFtpServer)
        .unwrap();
    let mut ca = CertificateAuthority::new("/CN=demo CA");
    service
        .credentials
        .register(ca.issue("boliu", SimTime::ZERO, SimDuration::from_hours(12)));
    let outage = Window::new(
        SimTime::ZERO + SimDuration::from_secs(60),
        SimTime::ZERO + SimDuration::from_secs(120),
    )
    .expect("well-formed outage window");
    service.set_fault_plan(
        "boliu#laptop",
        "cvrg#galaxy",
        DisruptionPlan::from_windows(vec![outage]),
    );

    for protocol in [Protocol::GLOBUS_DEFAULT, Protocol::Ftp] {
        let request = TransferRequest::globus(
            "boliu",
            ("boliu#laptop", "/data/reads.bam"),
            ("cvrg#galaxy", "/nfs/home/boliu/reads.bam"),
            DataSize::from_gb(1),
        )
        .with_protocol(protocol);
        let id = service
            .submit(SimTime::ZERO, &network, request)
            .expect("submits");
        let task = service.task(id).unwrap();
        println!(
            "\n{}: finished at {} with {} fault(s), {} retransmitted",
            protocol.name(),
            task.finished_at,
            task.faults,
            task.bytes_retransmitted,
        );
        for event in &task.events {
            println!("  [{}] {}", event.at, event.description);
        }
    }
    println!(
        "\nGridFTP restart markers preserve progress across the fault; \
         FTP starts over — exactly why the paper integrates Globus Transfer."
    );
}
