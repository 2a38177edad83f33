//! Experiment E8: the §VI GP-vs-CloudMan comparison, made quantitative.
//!
//! The paper's three reasons for choosing GP are ablated on the same
//! workload: a memory/serial-bound analysis arrives that wants a *bigger*
//! node. GP resizes the head in place; CloudMan — which "can only add or
//! reduce the number of nodes" — can merely add more same-size nodes,
//! which does not help a serial job.

use cumulus::cloud::InstanceType;
use cumulus::htc::{Job, WorkSpec};
use cumulus::provision::{capability_matrix, CloudManSim, GpCloud, Topology};
use cumulus::simkit::time::SimTime;

use crate::table::{dollars, mins, Table};

/// Outcome of running the "needs a bigger node" workload under one
/// manager.
#[derive(Debug, Clone, Copy)]
pub struct AblationOutcome {
    /// Minutes from the reconfiguration request to job completion.
    pub completion_mins: f64,
    /// Dollars spent from the request to completion.
    pub cost: f64,
    /// Nodes running at the end.
    pub final_nodes: usize,
}

/// The serial-heavy job both managers face: 20 minutes of serial work on
/// an m1.small, dropping to 7 minutes on an m1.xlarge.
fn big_serial_job() -> WorkSpec {
    WorkSpec {
        serial_secs: 120.0,
        cu_work: 1080.0,
    }
}

/// GP path: resize the head m1.small → m1.xlarge, then run.
pub fn measure_gp(seed: u64) -> AblationOutcome {
    let mut world = GpCloud::deterministic(seed);
    let id = world.create_instance(Topology::single_node(InstanceType::M1Small));
    let report = world.start_instance(SimTime::ZERO, &id).expect("deploys");
    let start = report.ready_at;

    let target = world
        .instance(&id)
        .unwrap()
        .topology
        .with_json_update(r#"{"ec2":{"instance-type":"m1.xlarge"}}"#)
        .unwrap();
    let reconfig = world.update_instance(start, &id, target).unwrap();
    let resized = reconfig.done_at(start);

    let inst = world.instance_mut(&id).unwrap();
    inst.pool
        .submit(Job::new("user1", big_serial_job()), resized);
    let done = inst
        .pool
        .try_run_until_drained(resized)
        .unwrap_or_else(|e| panic!("E8 GP workload must drain: {e}"));

    AblationOutcome {
        completion_mins: done.since(start).as_mins_f64(),
        cost: world.ec2.ledger.window_cost(start, done),
        final_nodes: world.instance(&id).unwrap().hosts.len(),
    }
}

/// CloudMan path: the only lever is more m1.small nodes; the serial job
/// still runs at 1 CU.
pub fn measure_cloudman(seed: u64, extra_nodes: usize) -> AblationOutcome {
    let world = GpCloud::deterministic(seed);
    let (mut cm, ready) =
        CloudManSim::launch(world, SimTime::ZERO, InstanceType::M1Small, 0).expect("launches");
    let start = ready;
    let scaled = cm
        .scale_to(start, extra_nodes)
        .expect("scaling is supported");

    let inst = cm.world.instance_mut(&cm.instance).unwrap();
    inst.pool
        .submit(Job::new("user1", big_serial_job()), scaled);
    let done = inst
        .pool
        .try_run_until_drained(scaled)
        .unwrap_or_else(|e| panic!("E8 CloudMan workload must drain: {e}"));

    AblationOutcome {
        completion_mins: done.since(start).as_mins_f64(),
        cost: cm.world.ec2.ledger.window_cost(start, done),
        final_nodes: cm.world.instance(&cm.instance).unwrap().hosts.len(),
    }
}

/// Render the report: capability matrix + the quantitative ablation.
pub fn run(seed: u64) -> String {
    let gp = measure_gp(seed);
    let cm0 = measure_cloudman(seed, 0);
    let cm4 = measure_cloudman(seed, 4);

    let mut t = Table::new(
        "E8 — serial-bound analysis needing a bigger node",
        &["manager", "action", "completion (min)", "cost ($)", "nodes"],
    );
    t.row(&[
        "globus-provision".to_string(),
        "resize head -> m1.xlarge".to_string(),
        mins(gp.completion_mins),
        dollars(gp.cost),
        gp.final_nodes.to_string(),
    ]);
    t.row(&[
        "cloudman".to_string(),
        "no action possible".to_string(),
        mins(cm0.completion_mins),
        dollars(cm0.cost),
        cm0.final_nodes.to_string(),
    ]);
    t.row(&[
        "cloudman".to_string(),
        "add 4 m1.small nodes".to_string(),
        mins(cm4.completion_mins),
        dollars(cm4.cost),
        cm4.final_nodes.to_string(),
    ]);

    format!(
        "{}\n{}\nGP's type change finishes the serial job {:.1}x faster than CloudMan's \
         only available response (adding same-size nodes), which burns money without \
         helping a single serial job.\n",
        capability_matrix(),
        t.render(),
        cm4.completion_mins / gp.completion_mins,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulus::cloud::BillingMode;

    #[test]
    fn gp_resize_beats_cloudman_scaling_for_serial_work() {
        let gp = measure_gp(7400);
        let cm = measure_cloudman(7400, 4);
        assert!(
            gp.completion_mins < cm.completion_mins,
            "GP {} vs CloudMan {}",
            gp.completion_mins,
            cm.completion_mins
        );
        // CloudMan's extra nodes did nothing for the serial job but it
        // still pays for them.
        let cm_idle = measure_cloudman(7400, 0);
        assert!(
            (cm.completion_mins - cm_idle.completion_mins).abs() < 3.0,
            "extra nodes should barely change a serial job"
        );
        assert!(cm.cost > cm_idle.cost, "but they cost money");
    }

    #[test]
    fn cloudman_cannot_resize() {
        let world = GpCloud::deterministic(7401);
        let (mut cm, ready) =
            CloudManSim::launch(world, SimTime::ZERO, InstanceType::M1Small, 1).unwrap();
        assert!(cm
            .change_instance_type(ready, InstanceType::M1Xlarge)
            .is_err());
    }

    #[test]
    fn report_renders_matrix_and_ablation() {
        let r = run(7402);
        assert!(r.contains("capability"));
        assert!(r.contains("cloudman"));
        assert!(r.contains("resize head"));
    }

    #[test]
    fn billing_modes_agree_on_ordering() {
        // Sanity: under hourly billing CloudMan's extra nodes are even
        // more expensive.
        let world = GpCloud::deterministic(7403);
        let (mut cm, ready) =
            CloudManSim::launch(world, SimTime::ZERO, InstanceType::M1Small, 0).unwrap();
        let scaled = cm.scale_to(ready, 4).unwrap();
        let hourly = cm.world.ec2.total_cost(BillingMode::HourlyRoundUp, scaled);
        let prop = cm.world.ec2.total_cost(BillingMode::PerSecond, scaled);
        assert!(hourly >= prop);
    }
}
