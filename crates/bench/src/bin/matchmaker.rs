//! Matchmaker kernel bench: negotiation + settle throughput for the
//! `cumulus-htc` pool (interned symbols, compiled postfix expressions,
//! per-owner idle queues, accepting-machines list, generation-counted
//! finish heap).
//!
//! Each workload folds its matches, evictions and completions into a
//! checksum; the harness asserts that repeated runs reproduce the same
//! (checksum, event-count), which is what the CI `bench-smoke` job gates
//! on (timing is reported, never gated). Agreement with a reference model
//! of the pool is checked by `crates/htc/tests/matchmaker_differential.rs`,
//! not here.
//!
//! Results land in `BENCH_htc.json` at the repo root (not in `--quick`
//! mode, which leaves the committed full-size results alone). A full run
//! rewrites the file, so `git diff` compares it with the previous row.
//!
//! Usage: `cargo run --release -p cumulus-bench --bin matchmaker [-- --quick]`

use cumulus_bench::kernel::{time_workload, workloads_json, WorkloadResult};
use cumulus_htc::{
    CondorPool, Job, Machine, Match, Value, WorkSpec, JOB_INPUT_CIDS_ATTR, MACHINE_CACHE_CIDS_ATTR,
};
use cumulus_provision::json::Json;
use cumulus_simkit::hash::Fnv;
use cumulus_simkit::time::{SimDuration, SimTime};

/// Fold one matchmaking decision into a run's checksum.
fn push_match(sum: &mut Fnv, m: &Match) {
    sum.write_u64(m.job.0);
    sum.write(m.machine.0.as_bytes());
    sum.write_u64(m.finish_at.as_micros());
}

// ---------------------------------------------------------------------------
// Deterministic workload description
// ---------------------------------------------------------------------------

const CU_MENU: [f64; 4] = [1.0, 2.2, 4.0, 8.0];
const MEM_MENU: [i64; 4] = [613, 1700, 4000, 7500];
const CID_MENU: [&str; 5] = [
    "00000000000000aa",
    "00000000000000bb",
    "00000000000000cc",
    "00000000000000dd",
    "00000000000000ee",
];

fn machine_spec(i: usize) -> (String, f64, i64, u32) {
    (
        format!("w{i:04}"),
        CU_MENU[i % 4],
        MEM_MENU[(i / 4) % 4],
        1 + (i % 2) as u32,
    )
}

fn job_spec(i: usize, owners: usize) -> (String, f64, f64) {
    (
        format!("user{:02}", i % owners),
        30.0 + (i * 7 % 90) as f64,
        (i * 13 % 200) as f64,
    )
}

/// Comma-joined input/cache cid list for index `i` (empty every third).
#[allow(clippy::manual_is_multiple_of)] // is_multiple_of needs rustc 1.87; MSRV is 1.75
fn cid_list(i: usize) -> String {
    if i % 3 == 0 {
        return String::new();
    }
    let n = 1 + i % 3;
    (0..n)
        .map(|k| CID_MENU[(i + k * 2) % CID_MENU.len()])
        .collect::<Vec<_>>()
        .join(",")
}

const REQ_MEM: &str = "Memory >= 1024 && Arch == \"X86_64\" && OpSys == \"LINUX\"";
const REQ_BIG: &str = "Memory >= 4000 && Arch == \"X86_64\" && OpSys == \"LINUX\"";

/// Alternate job requirements between the small- and large-memory tiers.
#[allow(clippy::manual_is_multiple_of)] // is_multiple_of needs rustc 1.87; MSRV is 1.75
fn req_spec(i: usize) -> &'static str {
    if i % 2 == 0 {
        REQ_MEM
    } else {
        REQ_BIG
    }
}

/// Extra standard attributes a real Condor machine ad carries, so each
/// attribute reference searches a realistically sized ad.
const EXTRA_ATTRS: usize = 6;

fn extra_attr(k: usize, cu: f64, mem: i64, slots: u32) -> (&'static str, Value) {
    match k {
        0 => ("Disk", Value::Int(mem * 10)),
        1 => ("KFlops", Value::Int((cu * 1.0e6) as i64)),
        2 => ("Mips", Value::Int((cu * 1000.0) as i64)),
        3 => ("TotalCpus", Value::Int(slots as i64)),
        4 => ("FileSystemDomain", Value::Str("cumulus".to_string())),
        _ => ("UidDomain", Value::Str("cumulus".to_string())),
    }
}

/// Scale knobs per workload; `--quick` shrinks everything.
struct Scale {
    samples: u32,
    churn_machines: usize,
    churn_rounds: usize,
    churn_batch: usize,
    users_jobs: usize,
    users_machines: usize,
    episode_jobs: usize,
    episode_machines: usize,
    evict_machines: usize,
    evict_rounds: usize,
    evict_batch: usize,
}

impl Scale {
    fn new(quick: bool) -> Self {
        if quick {
            Scale {
                samples: 2,
                churn_machines: 120,
                churn_rounds: 4,
                churn_batch: 100,
                users_jobs: 400,
                users_machines: 30,
                episode_jobs: 800,
                episode_machines: 24,
                evict_machines: 30,
                evict_rounds: 6,
                evict_batch: 20,
            }
        } else {
            Scale {
                samples: 5,
                churn_machines: 400,
                churn_rounds: 14,
                churn_batch: 200,
                users_jobs: 1600,
                users_machines: 60,
                episode_jobs: 6000,
                episode_machines: 24,
                evict_machines: 100,
                evict_rounds: 20,
                evict_batch: 60,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workloads. Each returns (checksum, events).
// ---------------------------------------------------------------------------

/// A machine whose ad carries the extra standard attributes.
fn full_machine(name: &str, cu: f64, mem: i64, slots: u32) -> Machine {
    let mut m = Machine::new(name, cu, mem, slots);
    for k in 0..EXTRA_ATTRS {
        let (key, v) = extra_attr(k, cu, mem, slots);
        m.ad.set(key, v);
    }
    m
}

/// many_machines_churn: a wide pool where every negotiation cycle scans
/// hundreds of candidate machines per job under a two-term requirements
/// expression.
fn many_machines_churn(s: &Scale) -> (u64, u64) {
    let mut pool = CondorPool::new();
    for i in 0..s.churn_machines {
        let (name, cu, mem, slots) = machine_spec(i);
        pool.add_machine(full_machine(&name, cu, mem, slots))
            .unwrap();
    }
    let mut sum = Fnv::new();
    let mut events = 0u64;
    let mut now = SimTime::ZERO;
    for round in 0..s.churn_rounds {
        for i in 0..s.churn_batch {
            let idx = round * s.churn_batch + i;
            let (owner, serial, cu_work) = job_spec(idx, 6);
            let job = Job::new(
                &owner,
                WorkSpec {
                    serial_secs: serial,
                    cu_work,
                },
            )
            .try_requirements(req_spec(idx))
            .expect("static expression");
            pool.submit(job, now);
        }
        for m in pool.negotiate(now) {
            push_match(&mut sum, &m);
            events += 1;
        }
        let victim = machine_spec(round * 17 % s.churn_machines).0;
        if let Ok(evicted) = pool.remove_machine(&victim, now) {
            for id in evicted {
                sum.write_u64(id.0);
            }
        }
        pool.add_machine(full_machine(&format!("x{round:03}"), 4.0, 4000, 2))
            .unwrap();
        now += SimDuration::from_secs(45);
        for id in pool.settle(now) {
            sum.write_u64(id.0);
            events += 1;
        }
    }
    sum.write_u64(pool.idle_count() as u64);
    sum.write_u64(pool.running_count() as u64);
    (sum.finish(), events)
}

/// A drain-the-queue episode shared by the many_users and long_episode
/// workloads: submit everything up front, then alternate negotiate /
/// advance-to-next-completion / settle until the queue empties, over
/// thousands of cycles.
fn episode(jobs: usize, owners: usize, machines: usize, req: &str) -> (u64, u64) {
    let mut pool = CondorPool::new();
    for i in 0..machines {
        let (name, cu, mem, slots) = machine_spec(i);
        pool.add_machine(Machine::new(&name, cu, mem, slots))
            .unwrap();
    }
    let now0 = SimTime::ZERO;
    for i in 0..jobs {
        let (owner, serial, cu_work) = job_spec(i, owners);
        let job = Job::new(
            &owner,
            WorkSpec {
                serial_secs: serial,
                cu_work,
            },
        )
        .try_requirements(req)
        .expect("static expression");
        pool.submit(job, now0);
    }
    let mut sum = Fnv::new();
    let mut events = 0u64;
    let mut now = now0;
    loop {
        for m in pool.negotiate(now) {
            push_match(&mut sum, &m);
        }
        let Some(next) = pool.next_completion_at() else {
            break;
        };
        now = next;
        for id in pool.settle(now) {
            sum.write_u64(id.0);
            events += 1;
        }
    }
    sum.write_u64(pool.idle_count() as u64);
    sum.write_u64(now.as_micros());
    (sum.finish(), events)
}

/// churn_evictions: continuous machine membership churn — removals that
/// evict and requeue running jobs, drains, cache-affinity scoring from
/// advertised `CacheCids` — the autoscale controller's steady state.
fn churn_evictions(s: &Scale) -> (u64, u64) {
    let mut pool = CondorPool::new();
    for i in 0..s.evict_machines {
        let (name, cu, mem, slots) = machine_spec(i);
        let mut m = Machine::new(&name, cu, mem, slots);
        m.ad.set(MACHINE_CACHE_CIDS_ATTR, Value::Str(cid_list(i)));
        pool.add_machine(m).unwrap();
    }
    let mut sum = Fnv::new();
    let mut events = 0u64;
    let mut now = SimTime::ZERO;
    let mut added = 0usize;
    for round in 0..s.evict_rounds {
        for i in 0..s.evict_batch {
            let idx = round * s.evict_batch + i;
            let (owner, serial, cu_work) = job_spec(idx, 8);
            let job = Job::new(
                &owner,
                WorkSpec {
                    serial_secs: serial,
                    cu_work,
                },
            )
            .attr(JOB_INPUT_CIDS_ATTR, Value::Str(cid_list(idx + 1)))
            .try_requirements("Memory >= 613")
            .expect("static expression");
            pool.submit(job, now);
        }
        for m in pool.negotiate(now) {
            push_match(&mut sum, &m);
            events += 1;
        }
        for k in 0..2usize {
            let victim = machine_spec((round * 31 + k * 7) % s.evict_machines).0;
            if let Ok(evicted) = pool.remove_machine(&victim, now) {
                for id in evicted {
                    sum.write_u64(id.0);
                    events += 1;
                }
            }
        }
        for _ in 0..2 {
            let i = s.evict_machines + added;
            added += 1;
            let (_, cu, mem, slots) = machine_spec(i);
            let mut m = Machine::new(&format!("y{i:04}"), cu, mem, slots);
            m.ad.set(MACHINE_CACHE_CIDS_ATTR, Value::Str(cid_list(i)));
            pool.add_machine(m).unwrap();
        }
        let drain = format!("y{:04}", s.evict_machines + round % added.max(1));
        let _ = pool.drain_machine(&drain);
        now += SimDuration::from_secs(30);
        for id in pool.settle(now) {
            sum.write_u64(id.0);
            events += 1;
        }
    }
    sum.write_u64(pool.idle_count() as u64);
    sum.write_u64(pool.running_count() as u64);
    sum.write_u64(pool.total_evictions());
    (sum.finish(), events)
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn write_json(results: &[WorkloadResult], quick: bool) {
    let doc = Json::obj([
        ("bench", Json::str("matchmaker")),
        ("mode", Json::str(if quick { "quick" } else { "full" })),
        ("workloads", workloads_json(results)),
    ]);
    cumulus_bench::write_results("BENCH_htc.json", &doc, quick);
}

fn main() {
    cumulus_bench::check_args(&["--quick"], None);
    let quick = std::env::args().any(|a| a == "--quick");
    let s = Scale::new(quick);

    println!("== matchmaker (compiled/indexed pool) ==");

    let time = |name, f: &dyn Fn() -> (u64, u64)| time_workload(name, s.samples, f, |out| out.1).0;
    let results = vec![
        time("many_machines_churn", &|| many_machines_churn(&s)),
        time("many_users", &|| {
            episode(s.users_jobs, 40, s.users_machines, REQ_MEM)
        }),
        time("long_episode", &|| {
            episode(s.episode_jobs, 3, s.episode_machines, "true")
        }),
        time("churn_evictions", &|| churn_evictions(&s)),
    ];

    write_json(&results, quick);
}
