//! Property-style tests of the Condor pool's matchmaking invariants.
//! Cases are generated from deterministic seeded streams (the offline
//! build ships no proptest).

use cumulus_htc::{CondorPool, Job, JobState, Machine, WorkSpec};
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::time::{SimDuration, SimTime};

const CASES: u64 = 48;

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

#[derive(Debug, Clone)]
struct MachineSpec {
    cu: f64,
    memory: i64,
    slots: u32,
}

fn gen_machine(rng: &mut RngStream) -> MachineSpec {
    MachineSpec {
        cu: rng.uniform_int(1, 8) as f64,
        memory: rng.uniform_int(512, 15_999) as i64,
        slots: rng.uniform_int(1, 4) as u32,
    }
}

#[test]
fn negotiation_never_oversubscribes_slots() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "htc-prop/oversub");
        let machines: Vec<MachineSpec> = (0..rng.uniform_int(1, 5))
            .map(|_| gen_machine(&mut rng))
            .collect();
        let jobs: Vec<(f64, i64)> = (0..rng.uniform_int(0, 24))
            .map(|_| {
                (
                    rng.uniform_int(1, 599) as f64,
                    rng.uniform_int(256, 19_999) as i64,
                )
            })
            .collect();

        let mut pool = CondorPool::new();
        let mut total_slots = 0u32;
        for (i, m) in machines.iter().enumerate() {
            pool.add_machine(Machine::new(&format!("m{i}"), m.cu, m.memory, m.slots))
                .unwrap();
            total_slots += m.slots;
        }
        for (serial, mem_req) in &jobs {
            pool.submit(
                Job::new("u", WorkSpec::serial(*serial))
                    .try_requirements(&format!("Memory >= {mem_req}"))
                    .expect("memory requirement expression"),
                t(0),
            );
        }
        let matches = pool.negotiate(t(0));
        // Never more running jobs than slots.
        assert!(matches.len() <= total_slots as usize, "case {case}");
        assert_eq!(
            pool.jobs_in_state(JobState::Running).len(),
            matches.len(),
            "case {case}"
        );
        // Every machine's free slots stayed within bounds.
        for m in pool.machines() {
            assert!(m.slots_free <= m.slots_total, "case {case}");
        }
        // Placement respected the job's requirements.
        for mat in &matches {
            let job = pool.job(mat.job).unwrap();
            let machine = pool
                .machines()
                .find(|m| m.name == mat.machine)
                .expect("matched machine is in the pool");
            assert!(
                job.requirements().eval_bool(&machine.ad, job.ad()),
                "case {case}"
            );
        }
    }
}

#[test]
fn drained_queue_completes_every_satisfiable_job() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "htc-prop/drain");
        let machines: Vec<MachineSpec> = (0..rng.uniform_int(1, 3))
            .map(|_| gen_machine(&mut rng))
            .collect();
        let jobs: Vec<u32> = (0..rng.uniform_int(1, 19))
            .map(|_| rng.uniform_int(1, 299) as u32)
            .collect();

        let mut pool = CondorPool::new();
        for (i, m) in machines.iter().enumerate() {
            pool.add_machine(Machine::new(&format!("m{i}"), m.cu, m.memory, m.slots))
                .unwrap();
        }
        let ids: Vec<_> = jobs
            .iter()
            .map(|serial| pool.submit(Job::new("u", WorkSpec::serial(*serial as f64)), t(0)))
            .collect();
        let done = pool.run_until_drained(t(0));
        assert!(
            done.is_some(),
            "case {case}: unconstrained jobs must all finish"
        );
        for id in ids {
            assert_eq!(
                pool.job(id).unwrap().state,
                JobState::Completed,
                "case {case}"
            );
        }
        // All slots returned.
        for m in pool.machines() {
            assert_eq!(m.slots_free, m.slots_total, "case {case}");
        }
    }
}

#[test]
fn completion_time_is_at_least_the_critical_path() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "htc-prop/critpath");
        let serials: Vec<u32> = (0..rng.uniform_int(1, 11))
            .map(|_| rng.uniform_int(10, 499) as u32)
            .collect();
        let slots = rng.uniform_int(1, 3) as u32;

        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("m", 1.0, 4096, slots))
            .unwrap();
        for s in &serials {
            pool.submit(Job::new("u", WorkSpec::serial(*s as f64)), t(0));
        }
        let done = pool.run_until_drained(t(0)).unwrap();
        let total: f64 = serials.iter().map(|s| *s as f64).sum();
        let longest = serials.iter().copied().max().unwrap() as f64;
        let elapsed = done.as_secs_f64();
        // Lower bounds: the longest job, and total work / slot count.
        assert!(elapsed + 1e-6 >= longest, "case {case}");
        assert!(elapsed + 1e-6 >= total / slots as f64, "case {case}");
        // Upper bound: fully serialized.
        assert!(elapsed <= total + 1e-6, "case {case}");
    }
}

#[test]
fn eviction_preserves_job_count() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "htc-prop/evict");
        let n_jobs = rng.uniform_int(1, 9) as usize;
        let crash_after = rng.uniform_int(1, 49);

        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("victim", 1.0, 4096, 2))
            .unwrap();
        pool.add_machine(Machine::new("survivor", 1.0, 4096, 2))
            .unwrap();
        let ids: Vec<_> = (0..n_jobs)
            .map(|_| pool.submit(Job::new("u", WorkSpec::serial(100.0)), t(0)))
            .collect();
        pool.negotiate(t(0));
        pool.remove_machine("victim", t(crash_after)).unwrap();
        // No job vanished: every id is still Idle, Running, or Completed.
        for id in &ids {
            let state = pool.job(*id).unwrap().state;
            assert!(
                matches!(
                    state,
                    JobState::Idle | JobState::Running | JobState::Completed
                ),
                "case {case}: job in unexpected state {state:?}"
            );
        }
        // The queue still drains on the survivor.
        let done = pool.run_until_drained(t(crash_after));
        assert!(done.is_some(), "case {case}");
        for id in ids {
            assert_eq!(
                pool.job(id).unwrap().state,
                JobState::Completed,
                "case {case}"
            );
        }
    }
}

#[test]
fn fair_share_never_starves_a_user() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "htc-prop/fairshare");
        let user_a_jobs = rng.uniform_int(1, 7) as usize;
        let user_b_jobs = rng.uniform_int(1, 7) as usize;

        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("m", 2.0, 4096, 1)).unwrap();
        for _ in 0..user_a_jobs {
            pool.submit(Job::new("alice", WorkSpec::serial(50.0)), t(0));
        }
        for _ in 0..user_b_jobs {
            pool.submit(Job::new("bob", WorkSpec::serial(50.0)), t(0));
        }
        let done = pool.run_until_drained(t(0)).unwrap();
        assert!(done.as_secs_f64() > 0.0, "case {case}");
        assert_eq!(pool.idle_count(), 0, "case {case}");
        assert!(pool.user_usage("alice") > 0.0, "case {case}");
        assert!(pool.user_usage("bob") > 0.0, "case {case}");
    }
}
