//! Seeded suite for the pool's retired-job table.
//!
//! Completed jobs leave the live job map for a dense table indexed by job
//! id. This suite drives episodes where jobs of mixed lengths on machines
//! of mixed speeds complete out of id order, running jobs are extended,
//! machines vanish mid-run (evicting their jobs), and retired jobs are
//! removed again, and after every step checks the pool's answers against
//! a `BTreeMap<JobId, Job>` of the jobs it has seen complete:
//! `job`, `jobs_in_state`, `completed_waits` and `last_completion_at`.

use std::collections::BTreeMap;

use cumulus_htc::job::{Job, JobId, JobState, WorkSpec};
use cumulus_htc::machine::Machine;
use cumulus_htc::pool::{CondorPool, PoolError};
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::time::{SimDuration, SimTime};

/// Everything a caller can read off a job record.
fn view(pool: &CondorPool, j: &Job) -> impl PartialEq + std::fmt::Debug {
    (
        j.id,
        j.submitted_at,
        j.work.serial_secs.to_bits(),
        j.state,
        pool.running_on(j).cloned(),
        j.finish_at,
        j.started_at,
        j.evictions,
        j.owner().to_string(),
    )
}

/// The reference: every job the pool reported complete and has not
/// removed since, as it read just before its completion.
#[derive(Default)]
struct Model {
    retired: BTreeMap<JobId, Job>,
    issued: u64,
}

impl Model {
    fn check(&self, pool: &CondorPool, step: usize) {
        let ids: Vec<JobId> = self.retired.keys().copied().collect();
        assert_eq!(pool.jobs_in_state(JobState::Completed), ids, "step {step}");
        let waits: Vec<SimDuration> = self
            .retired
            .values()
            .filter_map(|j| j.started_at.map(|s| s.since(j.submitted_at)))
            .collect();
        assert_eq!(pool.completed_waits(), waits, "step {step}");
        assert_eq!(
            pool.last_completion_at(),
            self.retired.values().filter_map(|j| j.finish_at).max(),
            "step {step}"
        );
        let probes = (0..=self.issued + 2).chain([u64::MAX - 1, u64::MAX]);
        for id in probes.map(JobId) {
            match (self.retired.get(&id), pool.job(id)) {
                (Some(want), Ok(got)) => {
                    assert_eq!(view(pool, got), view(pool, want), "step {step}: {id}")
                }
                (None, Ok(got)) => {
                    assert!((1..=self.issued).contains(&id.0), "step {step}: {id}");
                    assert_ne!(got.state, JobState::Completed, "step {step}: {id}");
                }
                (None, Err(e)) => {
                    assert!(!(1..=self.issued).contains(&id.0), "step {step}: {id}");
                    assert_eq!(e, PoolError::UnknownJob(id), "step {step}");
                }
                (Some(_), Err(e)) => panic!("step {step}: retired {id} lost: {e}"),
            }
        }
    }
}

fn run_episode(seed: u64, steps: usize) {
    let mut rng = RngStream::derive(seed, "htc.retired_jobs");
    let mut pool = CondorPool::new();
    let speeds = [1.0, 2.5, 4.0];
    let machine =
        |i: usize| Machine::new(&format!("w{i}"), speeds[i % 3], 1700, 1 + (i % 2) as u32);
    for i in 0..4 {
        pool.add_machine(machine(i)).unwrap();
    }
    let mut model = Model::default();
    let mut now = SimTime::ZERO;
    let (mut extended, mut unretired, mut evicted) = (0, 0, 0);
    for step in 0..steps {
        match rng.uniform_int(0, 9) {
            0..=2 => {
                let owner = *rng.choose(&["alice", "bob"]);
                let secs = rng.uniform_range(5.0, 400.0);
                pool.submit(Job::new(owner, WorkSpec::serial(secs)), now);
                model.issued += 1;
            }
            3 => {
                pool.negotiate(now);
            }
            4 => {
                let running = pool.jobs_in_state(JobState::Running);
                if !running.is_empty() {
                    let id = *rng.choose(&running);
                    let extra = SimDuration::from_secs(rng.uniform_int(1, 300));
                    pool.extend_job(id, extra).unwrap();
                    extended += 1;
                }
            }
            5 => {
                // Un-complete a retired job: it goes back to the live map
                // as Removed.
                let retired: Vec<JobId> = model.retired.keys().copied().collect();
                if !retired.is_empty() {
                    let id = *rng.choose(&retired);
                    pool.remove_job(id).unwrap();
                    model.retired.remove(&id);
                    let job = pool.job(id).unwrap();
                    assert_eq!(job.state, JobState::Removed, "step {step}");
                    assert_eq!(job.finish_at, None, "step {step}");
                    unretired += 1;
                }
            }
            6 => {
                // A machine vanishes mid-run and comes back.
                let i = rng.uniform_int(0, 3) as usize;
                evicted += pool.remove_machine(&format!("w{i}"), now).unwrap().len();
                pool.add_machine(machine(i)).unwrap();
            }
            _ => {
                now += SimDuration::from_secs(rng.uniform_int(1, 120));
                let before: BTreeMap<JobId, Job> = pool
                    .jobs_in_state(JobState::Running)
                    .into_iter()
                    .map(|id| (id, pool.job(id).unwrap().clone()))
                    .collect();
                for id in pool.settle(now) {
                    let mut job = before[&id].clone();
                    job.state = JobState::Completed;
                    model.retired.insert(id, job);
                }
                pool.negotiate(now);
            }
        }
        model.check(&pool, step);
    }
    let ids = pool.jobs_in_state(JobState::Completed);
    assert!(
        ids.windows(2).any(|w| {
            let f = |id| pool.job(id).unwrap().finish_at;
            f(w[0]) > f(w[1])
        }),
        "seed {seed}: some job must finish before an older one"
    );
    assert!(
        extended > 0 && unretired > 0 && evicted > 0,
        "seed {seed}: {extended} extensions, {unretired} retired removals, {evicted} evictions"
    );
}

#[test]
fn retired_jobs_match_a_btreemap_model() {
    for seed in 0..24 {
        run_episode(seed, 600);
    }
}

/// Long enough to issue well over a thousand ids, so retired jobs span
/// several of the table's pages.
#[test]
fn retired_jobs_across_pages_match_a_btreemap_model() {
    run_episode(99, 5000);
}

/// A retired job names the machine it ran on for the pool's whole life:
/// after that machine leaves, after another machine takes its slab slot,
/// and after a machine of the same name joins again. A job the removal
/// evicts names no machine.
#[test]
fn a_retired_job_keeps_its_machine_name_after_the_machine_leaves() {
    let at = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    let name = |pool: &CondorPool, id| {
        let job = pool.job(id).unwrap();
        pool.running_on(job).map(|m| m.0.clone())
    };
    let mut pool = CondorPool::new();
    pool.add_machine(Machine::new("fast", 4.0, 1700, 1))
        .unwrap();
    pool.add_machine(Machine::new("slow", 1.0, 1700, 1))
        .unwrap();
    let short = pool.submit(Job::new("alice", WorkSpec::serial(10.0)), at(0));
    let long = pool.submit(Job::new("alice", WorkSpec::serial(1000.0)), at(0));
    let placed: Vec<(JobId, String)> = pool
        .negotiate(at(0))
        .into_iter()
        .map(|m| (m.job, m.machine.0))
        .collect();
    assert_eq!(
        placed,
        [(short, "fast".to_string()), (long, "slow".to_string())]
    );
    assert_eq!(pool.settle(at(10)), [short]);
    assert_eq!(name(&pool, short).as_deref(), Some("fast"));

    // The next job runs on the retired job's machine, which then fails.
    let evicted = pool.submit(Job::new("bob", WorkSpec::serial(1000.0)), at(10));
    let placed = pool.negotiate(at(10));
    assert_eq!(
        (placed[0].job, placed[0].machine.0.as_str()),
        (evicted, "fast")
    );
    assert_eq!(pool.remove_machine("fast", at(20)).unwrap(), [evicted]);
    assert_eq!(pool.job(evicted).unwrap().state, JobState::Idle);
    assert_eq!(name(&pool, evicted), None);
    assert_eq!(name(&pool, short).as_deref(), Some("fast"));
    assert_eq!(pool.machine_busy_until("fast"), None);

    // A new machine reuses the freed slab slot; the retired job does not
    // follow it.
    pool.add_machine(Machine::new("other", 2.0, 1700, 1))
        .unwrap();
    assert_eq!(name(&pool, short).as_deref(), Some("fast"));
    assert_eq!(name(&pool, long).as_deref(), Some("slow"));

    // A machine of the old name joins again and takes the evicted job.
    pool.add_machine(Machine::new("fast", 4.0, 1700, 1))
        .unwrap();
    assert_eq!(name(&pool, short).as_deref(), Some("fast"));
    let placed = pool.negotiate(at(30));
    assert_eq!(
        (placed[0].job, placed[0].machine.0.as_str()),
        (evicted, "fast")
    );
    assert_eq!(name(&pool, evicted).as_deref(), Some("fast"));
    assert_eq!(pool.machine_busy_until("fast"), Some(at(1030)));

    // Both complete; every job names the machine it finished on.
    assert_eq!(pool.settle(at(1000)), [long]);
    assert_eq!(pool.settle(at(1030)), [evicted]);
    assert_eq!(name(&pool, short).as_deref(), Some("fast"));
    assert_eq!(name(&pool, long).as_deref(), Some("slow"));
    assert_eq!(name(&pool, evicted).as_deref(), Some("fast"));
    assert_eq!(
        pool.jobs_in_state(JobState::Completed),
        [short, long, evicted]
    );
}
