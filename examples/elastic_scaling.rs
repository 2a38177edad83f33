//! Elastic reconfiguration: the §III.C capabilities on a live cluster —
//! grow the Condor pool under a job burst, shrink it when idle, resize the
//! head node, and compare cost against a peak-provisioned alternative.
//!
//! Run with: `cargo run --release --example elastic_scaling`

use cumulus::autoscale::{
    run_episode, ControllerConfig, Hysteresis, HysteresisConfig, QueueStep, Workload,
};
use cumulus::cloud::{BillingMode, InstanceType};
use cumulus::htc::{Job, WorkSpec};
use cumulus::provision::{GpCloud, Topology};
use cumulus::simkit::time::{SimDuration, SimTime};

fn main() {
    let t0 = SimTime::ZERO;
    let mut world = GpCloud::deterministic(7);

    // Start small: one m1.small head, no workers.
    let id = world.create_instance(Topology::single_node(InstanceType::M1Small));
    let report = world.start_instance(t0, &id).expect("deploys");
    println!(
        "deployed single-node cluster in {}",
        report.duration_from(t0)
    );
    let mut now = report.ready_at;

    // A burst of 12 analysis jobs arrives (multiple users submitting
    // concurrently — the paper's "concurrent execution" remark).
    println!("\n== burst: 12 CRData jobs land on 1 execute node ==");
    for i in 0..12 {
        let user = if i % 2 == 0 { "user1" } else { "user2" };
        world.instance_mut(&id).unwrap().pool.submit(
            Job::new(
                user,
                WorkSpec {
                    serial_secs: 112.0,
                    cu_work: 418.0,
                },
            ),
            now,
        );
    }
    {
        let pool = &mut world.instance_mut(&id).unwrap().pool;
        pool.negotiate(now);
        println!("idle jobs waiting: {}", pool.idle_count());
    }

    // Scale out: add three c1.medium workers at runtime.
    println!("\n== gp-instance-update: add 3 x c1.medium workers ==");
    let target = world
        .instance(&id)
        .unwrap()
        .topology
        .with_json_update(
            r#"{"domains":{"simple":{"cluster-nodes":3,"worker-instance-type":"c1.medium"}}}"#,
        )
        .unwrap();
    let reconfig = world.update_instance(now, &id, target).unwrap();
    for action in &reconfig.actions {
        println!("  {} (done at {})", action.description, action.done_at);
    }
    now = reconfig.done_at(now);

    // Drain the queue. The typed error names what is still stuck if the
    // pool ever stalls, instead of a bare "didn't drain" panic.
    let drained = {
        let pool = &mut world.instance_mut(&id).unwrap().pool;
        pool.try_run_until_drained(now)
            .unwrap_or_else(|e| panic!("burst must drain: {e}"))
    };
    println!(
        "queue drained at {} ({} after the workers joined)",
        drained,
        drained.since(now)
    );
    now = drained;

    // Scale back in.
    println!("\n== idle again: shrink to zero workers ==");
    let target = world
        .instance(&id)
        .unwrap()
        .topology
        .with_json_update(r#"{"domains":{"simple":{"cluster-nodes":0}}}"#)
        .unwrap();
    let reconfig = world.update_instance(now, &id, target).unwrap();
    println!("removed {} worker(s)", reconfig.actions.len());
    now = reconfig.done_at(now);

    // Resize the head for a memory-hungry workflow ("the running instances
    // can be upgraded to large or extra-large instances").
    println!("\n== resize head m1.small -> m1.large (CloudMan cannot do this) ==");
    let target = world
        .instance(&id)
        .unwrap()
        .topology
        .with_json_update(r#"{"ec2":{"instance-type":"m1.large"}}"#)
        .unwrap();
    let reconfig = world.update_instance(now, &id, target).unwrap();
    let resized = reconfig.done_at(now);
    println!("resize completed in {}", resized.since(now));
    now = resized;

    let elastic_cost = world.ec2.total_cost(BillingMode::PerSecond, now);
    println!("\nelastic cluster cost so far: ${elastic_cost:.4}");

    // Counterfactual: provisioned for the peak the whole time.
    let mut peak_world = GpCloud::deterministic(7);
    let mut peak_topology = Topology::single_node(InstanceType::M1Large);
    peak_topology.workers = vec![InstanceType::C1Medium; 3];
    let peak_id = peak_world.create_instance(peak_topology);
    peak_world.start_instance(t0, &peak_id).expect("deploys");
    let peak_cost = peak_world.ec2.total_cost(BillingMode::PerSecond, now);
    println!("peak-provisioned-from-the-start cost: ${peak_cost:.4}");
    println!(
        "elastic saving: {:.0}% — \"users pay only for the resources they use\"",
        (1.0 - elastic_cost / peak_cost) * 100.0
    );

    // And overnight it can stop entirely.
    let stopped = world.stop_instance(now, &id).unwrap();
    let morning = stopped + SimDuration::from_hours(10);
    assert_eq!(
        world.ec2.total_cost(BillingMode::PerSecond, morning),
        world.ec2.total_cost(BillingMode::PerSecond, stopped),
    );
    println!("\nstopped overnight: 10 idle hours cost $0.0000");

    // Everything above was an operator issuing gp-instance-update by hand.
    // cumulus-autoscale closes the loop: a controller inside the DES
    // watches the queue and issues the same reconfigurations itself.
    println!("\n== closed loop: the same burst, no operator ==");
    let trace = Workload::burst(
        "burst-12",
        12,
        SimDuration::ZERO,
        WorkSpec {
            serial_secs: 112.0,
            cu_work: 418.0,
        },
    );
    let policy = Hysteresis::new(
        QueueStep::new(2),
        HysteresisConfig {
            max_workers: 8,
            ..HysteresisConfig::default()
        },
    );
    let report = run_episode(7, Box::new(policy), ControllerConfig::default(), &trace);
    println!(
        "policy {} drained {} jobs in {:.1} min for ${:.4} (peak {} workers)",
        report.policy, report.jobs, report.makespan_mins, report.cost_usd, report.peak_workers
    );
    println!("scaling decisions (holds elided):");
    for line in report.log.render().lines().filter(|l| l.contains("scale-")) {
        println!("  {line}");
    }
}
