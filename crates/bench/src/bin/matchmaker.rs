//! Matchmaker kernel bench: negotiation + settle throughput for the
//! `cumulus-htc` pool, new vs old.
//!
//! Every workload runs on **two** matchmakers:
//!
//! * the current `cumulus_htc::CondorPool` (interned symbols, compiled
//!   postfix expressions, per-owner idle queues, accepting-machines list,
//!   generation-counted finish heap);
//! * [`baseline::Pool`], a faithful copy of the pre-rewrite pool compiled
//!   into this binary: `BTreeMap<String, Value>` ClassAds with per-lookup
//!   key lowercasing, tree-walking `Expr` evaluation, full job-table
//!   scans per user in `negotiate`, and a `settle` that re-scans every
//!   job ever submitted (including the completed set).
//!
//! Beyond timing, the harness asserts determinism: each workload must
//! produce the same (checksum, event-count) on both matchmakers and on
//! repeated runs. Those assertions panic on failure, which is what the
//! CI `bench-smoke` job gates on (timing is reported, never gated).
//!
//! Results land in `BENCH_htc.json` at the repo root (not in `--quick`
//! mode, which leaves the committed full-size results alone).
//!
//! Usage: `cargo run --release -p cumulus-bench --bin matchmaker [-- --quick]`

use cumulus_bench::kernel::{measure, workloads_json, Fnv, WorkloadResult};
use cumulus_htc::{CondorPool, Job, Machine, WorkSpec};
use cumulus_provision::json::Json;
use cumulus_simkit::time::{SimDuration, SimTime};

/// The pre-rewrite matchmaker, kept verbatim as the measured baseline.
mod baseline {
    use std::collections::{BTreeMap, BTreeSet};

    use cumulus_htc::classad::{BinOp, Expr, UnaryOp, Value};
    use cumulus_htc::{CACHE_AFFINITY_BONUS, JOB_INPUT_CIDS_ATTR, MACHINE_CACHE_CIDS_ATTR};
    use cumulus_simkit::time::{SimDuration, SimTime};

    /// The old ClassAd: a string-keyed map, lowercasing the key on every
    /// single lookup (one heap allocation per `get`).
    #[derive(Debug, Clone, Default)]
    pub struct Ad {
        attrs: BTreeMap<String, Value>,
    }

    impl Ad {
        pub fn new() -> Self {
            Ad::default()
        }

        pub fn set(&mut self, key: &str, value: Value) -> &mut Self {
            self.attrs.insert(key.to_ascii_lowercase(), value);
            self
        }

        pub fn with(mut self, key: &str, value: Value) -> Self {
            self.set(key, value);
            self
        }

        pub fn get(&self, key: &str) -> Value {
            self.attrs
                .get(&key.to_ascii_lowercase())
                .cloned()
                .unwrap_or(Value::Undefined)
        }
    }

    // The old `Value` helpers (private on the real type) and the old
    // tree-walking evaluator, ported verbatim to run against `Ad`.

    fn as_f64(v: &Value) -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    fn truthy(v: &Value) -> bool {
        match v {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Undefined => false,
        }
    }

    fn value_eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Str(x), Value::Str(y)) => x.eq_ignore_ascii_case(y),
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Undefined, _) | (_, Value::Undefined) => false,
            _ => match (as_f64(a), as_f64(b)) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }

    pub fn eval(e: &Expr, target: &Ad, own: &Ad) -> Value {
        match e {
            Expr::Lit(v) => v.clone(),
            Expr::Attr(name) => {
                let (scope, bare) = match name.split_once('.') {
                    Some((s, b)) => (Some(s.to_ascii_lowercase()), b),
                    None => (None, name.as_str()),
                };
                match scope.as_deref() {
                    Some("my") => own.get(bare),
                    Some("target") => target.get(bare),
                    _ => match target.get(name) {
                        Value::Undefined => own.get(name),
                        v => v,
                    },
                }
            }
            Expr::Unary(op, inner) => {
                let v = eval(inner, target, own);
                match op {
                    UnaryOp::Not => Value::Bool(!truthy(&v)),
                    UnaryOp::Neg => match as_f64(&v) {
                        Some(f) => Value::Float(-f),
                        None => Value::Undefined,
                    },
                }
            }
            Expr::Binary(op, l, r) => {
                match op {
                    BinOp::And => {
                        let lv = eval(l, target, own);
                        if !truthy(&lv) {
                            return Value::Bool(false);
                        }
                        return Value::Bool(truthy(&eval(r, target, own)));
                    }
                    BinOp::Or => {
                        let lv = eval(l, target, own);
                        if truthy(&lv) {
                            return Value::Bool(true);
                        }
                        return Value::Bool(truthy(&eval(r, target, own)));
                    }
                    _ => {}
                }
                let lv = eval(l, target, own);
                let rv = eval(r, target, own);
                match op {
                    BinOp::Eq => Value::Bool(value_eq(&lv, &rv)),
                    BinOp::Ne => match (&lv, &rv) {
                        (Value::Undefined, _) | (_, Value::Undefined) => Value::Bool(false),
                        _ => Value::Bool(!value_eq(&lv, &rv)),
                    },
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        match (as_f64(&lv), as_f64(&rv)) {
                            (Some(a), Some(b)) => Value::Bool(match op {
                                BinOp::Lt => a < b,
                                BinOp::Le => a <= b,
                                BinOp::Gt => a > b,
                                BinOp::Ge => a >= b,
                                _ => unreachable!(),
                            }),
                            _ => Value::Bool(false),
                        }
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        match (as_f64(&lv), as_f64(&rv)) {
                            (Some(a), Some(b)) => {
                                let x = match op {
                                    BinOp::Add => a + b,
                                    BinOp::Sub => a - b,
                                    BinOp::Mul => a * b,
                                    BinOp::Div => {
                                        if b == 0.0 {
                                            return Value::Undefined;
                                        }
                                        a / b
                                    }
                                    _ => unreachable!(),
                                };
                                Value::Float(x)
                            }
                            _ => Value::Undefined,
                        }
                    }
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
        }
    }

    pub fn eval_bool(e: &Expr, target: &Ad, own: &Ad) -> bool {
        truthy(&eval(e, target, own))
    }

    pub fn eval_rank(e: &Expr, target: &Ad, own: &Ad) -> f64 {
        match eval(e, target, own) {
            Value::Bool(b) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
            v => as_f64(&v).unwrap_or(0.0),
        }
    }

    fn cache_affinity(machine_ad: &Ad, job_ad: &Ad) -> f64 {
        let Value::Str(inputs) = job_ad.get(JOB_INPUT_CIDS_ATTR) else {
            return 0.0;
        };
        let Value::Str(cached) = machine_ad.get(MACHINE_CACHE_CIDS_ATTR) else {
            return 0.0;
        };
        if inputs.is_empty() || cached.is_empty() {
            return 0.0;
        }
        let cached: BTreeSet<&str> = cached.split(',').collect();
        let overlap = inputs.split(',').filter(|c| cached.contains(c)).count();
        CACHE_AFFINITY_BONUS * overlap as f64
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum JobState {
        Idle,
        Running,
        Completed,
    }

    #[derive(Debug)]
    pub struct BJob {
        pub id: u64,
        pub owner: String,
        pub requirements: Expr,
        pub rank: Expr,
        pub ad: Ad,
        pub serial_secs: f64,
        pub cu_work: f64,
        pub state: JobState,
        pub running_on: Option<String>,
        pub finish_at: Option<SimTime>,
        pub started_at: Option<SimTime>,
    }

    #[derive(Debug)]
    pub struct BMachine {
        pub name: String,
        pub ad: Ad,
        pub slots_total: u32,
        pub slots_free: u32,
        pub draining: bool,
    }

    impl BMachine {
        pub fn busy_slots(&self) -> u32 {
            self.slots_total - self.slots_free
        }
        pub fn accepting(&self) -> bool {
            !self.draining && self.slots_free > 0
        }
    }

    /// The old machine ad, mirroring `Machine::new`.
    pub fn machine_ad(name: &str, compute_units: f64, memory_mb: i64, slots: u32) -> Ad {
        Ad::new()
            .with("Machine", Value::Str(name.to_string()))
            .with("ComputeUnits", Value::Float(compute_units))
            .with("Memory", Value::Int(memory_mb))
            .with("Cpus", Value::Int(slots as i64))
            .with("Arch", Value::Str("X86_64".to_string()))
            .with("OpSys", Value::Str("LINUX".to_string()))
    }

    /// The pre-rewrite pool: scan-everything negotiate and settle.
    #[derive(Debug, Default)]
    pub struct Pool {
        pub jobs: BTreeMap<u64, BJob>,
        pub machines: BTreeMap<String, BMachine>,
        next_job_id: u64,
        usage: BTreeMap<String, f64>,
    }

    impl Pool {
        pub fn new() -> Self {
            Pool {
                next_job_id: 1,
                ..Pool::default()
            }
        }

        pub fn add_machine(&mut self, name: &str, cu: f64, mem: i64, slots: u32) {
            assert!(
                self.machines
                    .insert(
                        name.to_string(),
                        BMachine {
                            name: name.to_string(),
                            ad: machine_ad(name, cu, mem, slots),
                            slots_total: slots,
                            slots_free: slots,
                            draining: false,
                        },
                    )
                    .is_none(),
                "duplicate machine"
            );
        }

        pub fn submit(
            &mut self,
            owner: &str,
            serial_secs: f64,
            cu_work: f64,
            requirements: Expr,
            rank: Expr,
            mut ad: Ad,
        ) -> u64 {
            let id = self.next_job_id;
            self.next_job_id += 1;
            ad.set("Owner", Value::Str(owner.to_string()));
            self.jobs.insert(
                id,
                BJob {
                    id,
                    owner: owner.to_string(),
                    requirements,
                    rank,
                    ad,
                    serial_secs,
                    cu_work,
                    state: JobState::Idle,
                    running_on: None,
                    finish_at: None,
                    started_at: None,
                },
            );
            id
        }

        pub fn remove_machine(&mut self, name: &str, now: SimTime) -> Vec<u64> {
            if self.machines.remove(name).is_none() {
                return Vec::new();
            }
            let mut evicted = Vec::new();
            for job in self.jobs.values_mut() {
                if job.state == JobState::Running && job.running_on.as_deref() == Some(name) {
                    job.state = JobState::Idle;
                    job.running_on = None;
                    job.finish_at = None;
                    if let Some(started) = job.started_at.take() {
                        *self.usage.entry(job.owner.clone()).or_insert(0.0) +=
                            now.since(started).as_secs_f64();
                    }
                    evicted.push(job.id);
                }
            }
            evicted
        }

        pub fn drain_machine(&mut self, name: &str) {
            if let Some(m) = self.machines.get_mut(name) {
                m.draining = true;
                if m.busy_slots() == 0 {
                    self.machines.remove(name);
                }
            }
        }

        pub fn negotiate(&mut self, now: SimTime) -> Vec<(u64, String, SimTime)> {
            let mut matches = Vec::new();
            let mut users: Vec<String> = self
                .jobs
                .values()
                .filter(|j| j.state == JobState::Idle)
                .map(|j| j.owner.clone())
                .collect();
            users.sort();
            users.dedup();
            users.sort_by(|a, b| {
                let ua = self.usage.get(a).copied().unwrap_or(0.0);
                let ub = self.usage.get(b).copied().unwrap_or(0.0);
                ua.partial_cmp(&ub).unwrap().then_with(|| a.cmp(b))
            });
            for user in users {
                let job_ids: Vec<u64> = self
                    .jobs
                    .values()
                    .filter(|j| j.state == JobState::Idle && j.owner == user)
                    .map(|j| j.id)
                    .collect();
                for id in job_ids {
                    let job = &self.jobs[&id];
                    let mut best: Option<(f64, String)> = None;
                    for m in self.machines.values().filter(|m| m.accepting()) {
                        if !eval_bool(&job.requirements, &m.ad, &job.ad) {
                            continue;
                        }
                        let score =
                            eval_rank(&job.rank, &m.ad, &job.ad) + cache_affinity(&m.ad, &job.ad);
                        let better = match &best {
                            None => true,
                            Some((s, name)) => score > *s || (score == *s && m.name < *name),
                        };
                        if better {
                            best = Some((score, m.name.clone()));
                        }
                    }
                    let Some((_, name)) = best else { continue };
                    let machine = self.machines.get_mut(&name).expect("chosen above");
                    machine.slots_free -= 1;
                    let capacity = match machine.ad.get("ComputeUnits") {
                        Value::Float(f) => f,
                        Value::Int(i) => i as f64,
                        _ => 1.0,
                    };
                    let job = self.jobs.get_mut(&id).expect("exists");
                    let duration =
                        SimDuration::from_secs_f64(job.serial_secs + job.cu_work / capacity);
                    job.state = JobState::Running;
                    job.running_on = Some(name.clone());
                    job.started_at = Some(now);
                    job.finish_at = Some(now + duration);
                    matches.push((id, name, now + duration));
                }
            }
            matches
        }

        pub fn settle(&mut self, now: SimTime) -> Vec<u64> {
            let mut completed = Vec::new();
            for job in self.jobs.values_mut() {
                if job.state != JobState::Running {
                    continue;
                }
                let Some(finish) = job.finish_at else {
                    continue;
                };
                if finish > now {
                    continue;
                }
                job.state = JobState::Completed;
                completed.push(job.id);
                if let Some(started) = job.started_at {
                    *self.usage.entry(job.owner.clone()).or_insert(0.0) +=
                        finish.since(started).as_secs_f64();
                }
                if let Some(name) = job.running_on.clone() {
                    if let Some(m) = self.machines.get_mut(&name) {
                        m.slots_free += 1;
                    }
                }
            }
            let drained: Vec<String> = self
                .machines
                .values()
                .filter(|m| m.draining && m.busy_slots() == 0)
                .map(|m| m.name.clone())
                .collect();
            for name in drained {
                self.machines.remove(&name);
            }
            completed
        }

        pub fn next_completion_at(&self) -> Option<SimTime> {
            self.jobs
                .values()
                .filter(|j| j.state == JobState::Running)
                .filter_map(|j| j.finish_at)
                .min()
        }

        pub fn running_count(&self) -> usize {
            self.jobs
                .values()
                .filter(|j| j.state == JobState::Running)
                .count()
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic workload description, shared by both matchmakers
// ---------------------------------------------------------------------------

const CU_MENU: [f64; 4] = [1.0, 2.2, 4.0, 8.0];
const MEM_MENU: [i64; 4] = [613, 1700, 4000, 7500];
const CID_MENU: [&str; 5] = ["cid-aa", "cid-bb", "cid-cc", "cid-dd", "cid-ee"];

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

/// Extra standard attributes a real Condor machine ad carries (both
/// matchmakers get the identical ad; the old one pays a string-keyed
/// `BTreeMap` lookup per reference, the new one a symbol binary-search).
const EXTRA_ATTRS: usize = 6;

fn extra_attr(k: usize, cu: f64, mem: i64, slots: u32) -> (&'static str, cumulus_htc::Value) {
    use cumulus_htc::Value;
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
// Workloads. Each exists in a `new_*` and an `old_*` variant with identical
// logic and returns (checksum, events). The duplication is deliberate: the
// point of the baseline is to stay byte-for-byte the old code.
// ---------------------------------------------------------------------------

/// many_machines_churn: a wide pool where every negotiation cycle scans
/// hundreds of candidate machines per job under a two-term requirements
/// expression. The ≥5× negotiation-throughput gate lives here.
mod many_machines_churn {
    use super::*;

    fn full_machine(name: &str, cu: f64, mem: i64, slots: u32) -> Machine {
        let mut m = Machine::new(name, cu, mem, slots);
        for k in 0..EXTRA_ATTRS {
            let (key, v) = extra_attr(k, cu, mem, slots);
            m.ad.set(key, v);
        }
        m
    }

    pub fn new_pool(s: &Scale) -> (u64, u64) {
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
                sum.push_match(m.job.0, &m.machine.0, m.finish_at);
                events += 1;
            }
            let victim = machine_spec(round * 17 % s.churn_machines).0;
            if let Ok(evicted) = pool.remove_machine(&victim, now) {
                for id in evicted {
                    sum.push_u64(id.0);
                }
            }
            pool.add_machine(full_machine(&format!("x{round:03}"), 4.0, 4000, 2))
                .unwrap();
            now += SimDuration::from_secs(45);
            for id in pool.settle(now) {
                sum.push_u64(id.0);
                events += 1;
            }
        }
        sum.push_u64(pool.idle_count() as u64);
        sum.push_u64(pool.running_count() as u64);
        (sum.0, events)
    }

    fn old_full_machine(pool: &mut baseline::Pool, name: &str, cu: f64, mem: i64, slots: u32) {
        pool.add_machine(name, cu, mem, slots);
        let ad = &mut pool.machines.get_mut(name).unwrap().ad;
        for k in 0..EXTRA_ATTRS {
            let (key, v) = extra_attr(k, cu, mem, slots);
            ad.set(key, v);
        }
    }

    pub fn old_pool(s: &Scale) -> (u64, u64) {
        use cumulus_htc::Expr;
        let mut pool = baseline::Pool::new();
        for i in 0..s.churn_machines {
            let (name, cu, mem, slots) = machine_spec(i);
            old_full_machine(&mut pool, &name, cu, mem, slots);
        }
        let mut sum = Fnv::new();
        let mut events = 0u64;
        let mut now = SimTime::ZERO;
        for round in 0..s.churn_rounds {
            for i in 0..s.churn_batch {
                let idx = round * s.churn_batch + i;
                let (owner, serial, cu_work) = job_spec(idx, 6);
                pool.submit(
                    &owner,
                    serial,
                    cu_work,
                    Expr::parse(req_spec(idx)).expect("static expression"),
                    Expr::parse("ComputeUnits").expect("static expression"),
                    baseline::Ad::new(),
                );
            }
            for (job, machine, finish) in pool.negotiate(now) {
                sum.push_match(job, &machine, finish);
                events += 1;
            }
            let victim = machine_spec(round * 17 % s.churn_machines).0;
            for id in pool.remove_machine(&victim, now) {
                sum.push_u64(id);
            }
            old_full_machine(&mut pool, &format!("x{round:03}"), 4.0, 4000, 2);
            now += SimDuration::from_secs(45);
            for id in pool.settle(now) {
                sum.push_u64(id);
                events += 1;
            }
        }
        let idle = pool
            .jobs
            .values()
            .filter(|j| j.state == baseline::JobState::Idle)
            .count();
        sum.push_u64(idle as u64);
        sum.push_u64(pool.running_count() as u64);
        (sum.0, events)
    }
}

/// A drain-the-queue episode shared by the many_users and long_episode
/// workloads: submit everything up front, then alternate negotiate /
/// advance-to-next-completion / settle until the queue empties. The old
/// pool pays a full job-table scan (completed jobs included) on every one
/// of the thousands of cycles.
mod episode {
    use super::*;

    pub fn new_pool(jobs: usize, owners: usize, machines: usize, req: &str) -> (u64, u64) {
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
                sum.push_match(m.job.0, &m.machine.0, m.finish_at);
            }
            let Some(next) = pool.next_completion_at() else {
                break;
            };
            now = next;
            for id in pool.settle(now) {
                sum.push_u64(id.0);
                events += 1;
            }
        }
        sum.push_u64(pool.idle_count() as u64);
        sum.push_u64(now.as_micros());
        (sum.0, events)
    }

    pub fn old_pool(jobs: usize, owners: usize, machines: usize, req: &str) -> (u64, u64) {
        use cumulus_htc::Expr;
        let mut pool = baseline::Pool::new();
        for i in 0..machines {
            let (name, cu, mem, slots) = machine_spec(i);
            pool.add_machine(&name, cu, mem, slots);
        }
        let now0 = SimTime::ZERO;
        for i in 0..jobs {
            let (owner, serial, cu_work) = job_spec(i, owners);
            pool.submit(
                &owner,
                serial,
                cu_work,
                Expr::parse(req).expect("static expression"),
                Expr::parse("ComputeUnits").expect("static expression"),
                baseline::Ad::new(),
            );
        }
        let mut sum = Fnv::new();
        let mut events = 0u64;
        let mut now = now0;
        loop {
            for (job, machine, finish) in pool.negotiate(now) {
                sum.push_match(job, &machine, finish);
            }
            let Some(next) = pool.next_completion_at() else {
                break;
            };
            now = next;
            for id in pool.settle(now) {
                sum.push_u64(id);
                events += 1;
            }
        }
        let idle = pool
            .jobs
            .values()
            .filter(|j| j.state == baseline::JobState::Idle)
            .count();
        sum.push_u64(idle as u64);
        sum.push_u64(now.as_micros());
        (sum.0, events)
    }
}

/// churn_evictions: continuous machine membership churn — removals that
/// evict and requeue running jobs, drains, cache-affinity scoring from
/// advertised `CacheCids` — the autoscale controller's steady state.
mod churn_evictions {
    use super::*;
    use cumulus_htc::{JOB_INPUT_CIDS_ATTR, MACHINE_CACHE_CIDS_ATTR};

    pub fn new_pool(s: &Scale) -> (u64, u64) {
        use cumulus_htc::Value;
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
                sum.push_match(m.job.0, &m.machine.0, m.finish_at);
                events += 1;
            }
            for k in 0..2usize {
                let victim = machine_spec((round * 31 + k * 7) % s.evict_machines).0;
                if let Ok(evicted) = pool.remove_machine(&victim, now) {
                    for id in evicted {
                        sum.push_u64(id.0);
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
                sum.push_u64(id.0);
                events += 1;
            }
        }
        sum.push_u64(pool.idle_count() as u64);
        sum.push_u64(pool.running_count() as u64);
        sum.push_u64(pool.total_evictions());
        (sum.0, events)
    }

    pub fn old_pool(s: &Scale) -> (u64, u64) {
        use cumulus_htc::classad::Value;
        use cumulus_htc::Expr;
        let mut pool = baseline::Pool::new();
        for i in 0..s.evict_machines {
            let (name, cu, mem, slots) = machine_spec(i);
            pool.add_machine(&name, cu, mem, slots);
            pool.machines
                .get_mut(&name)
                .unwrap()
                .ad
                .set(MACHINE_CACHE_CIDS_ATTR, Value::Str(cid_list(i)));
        }
        let mut sum = Fnv::new();
        let mut events = 0u64;
        let mut now = SimTime::ZERO;
        let mut added = 0usize;
        let mut evictions = 0u64;
        for round in 0..s.evict_rounds {
            for i in 0..s.evict_batch {
                let idx = round * s.evict_batch + i;
                let (owner, serial, cu_work) = job_spec(idx, 8);
                let mut ad = baseline::Ad::new();
                ad.set(JOB_INPUT_CIDS_ATTR, Value::Str(cid_list(idx + 1)));
                pool.submit(
                    &owner,
                    serial,
                    cu_work,
                    Expr::parse("Memory >= 613").expect("static expression"),
                    Expr::parse("ComputeUnits").expect("static expression"),
                    ad,
                );
            }
            for (job, machine, finish) in pool.negotiate(now) {
                sum.push_match(job, &machine, finish);
                events += 1;
            }
            for k in 0..2usize {
                let victim = machine_spec((round * 31 + k * 7) % s.evict_machines).0;
                for id in pool.remove_machine(&victim, now) {
                    sum.push_u64(id);
                    events += 1;
                    evictions += 1;
                }
            }
            for _ in 0..2 {
                let i = s.evict_machines + added;
                added += 1;
                let (_, cu, mem, slots) = machine_spec(i);
                let name = format!("y{i:04}");
                pool.add_machine(&name, cu, mem, slots);
                pool.machines
                    .get_mut(&name)
                    .unwrap()
                    .ad
                    .set(MACHINE_CACHE_CIDS_ATTR, Value::Str(cid_list(i)));
            }
            let drain = format!("y{:04}", s.evict_machines + round % added.max(1));
            pool.drain_machine(&drain);
            now += SimDuration::from_secs(30);
            for id in pool.settle(now) {
                sum.push_u64(id);
                events += 1;
            }
        }
        let idle = pool
            .jobs
            .values()
            .filter(|j| j.state == baseline::JobState::Idle)
            .count();
        sum.push_u64(idle as u64);
        sum.push_u64(pool.running_count() as u64);
        sum.push_u64(evictions);
        (sum.0, events)
    }
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Run one workload on both matchmakers, assert identical (checksum,
/// events), report.
fn compare(
    name: &'static str,
    samples: u32,
    mut old_f: impl FnMut() -> (u64, u64),
    mut new_f: impl FnMut() -> (u64, u64),
) -> WorkloadResult {
    let (old_secs, old_out) = measure(samples, &mut old_f);
    let (new_secs, new_out) = measure(samples, &mut new_f);
    assert_eq!(
        old_out, new_out,
        "{name}: compiled matchmaker diverged from the scan-everything baseline"
    );
    let r = WorkloadResult {
        name,
        events: new_out.1,
        old_secs,
        new_secs,
    };
    println!(
        "{:<22} events {:>8}  old {:>9.0} ev/s  new {:>9.0} ev/s  speedup {:>6.2}x",
        r.name,
        r.events,
        r.old_eps(),
        r.new_eps(),
        r.speedup()
    );
    r
}

fn write_json(results: &[WorkloadResult], quick: bool) {
    let workloads = workloads_json(results, "speedup_vs_baseline");
    let doc = Json::obj([
        ("bench", Json::str("matchmaker")),
        (
            "baseline",
            Json::str("pre-rewrite scan-everything pool + tree-walking ClassAds (in-bench copy)"),
        ),
        ("mode", Json::str(if quick { "quick" } else { "full" })),
        ("workloads", workloads),
    ]);
    cumulus_bench::write_results("BENCH_htc.json", &doc, quick);
}

fn main() {
    cumulus_bench::check_args(&["--quick"], None);
    let quick = std::env::args().any(|a| a == "--quick");
    let s = Scale::new(quick);

    println!("== matchmaker (old = scan-everything baseline, new = compiled/indexed) ==");

    let results = vec![
        compare(
            "many_machines_churn",
            s.samples,
            || many_machines_churn::old_pool(&s),
            || many_machines_churn::new_pool(&s),
        ),
        compare(
            "many_users",
            s.samples,
            || episode::old_pool(s.users_jobs, 40, s.users_machines, REQ_MEM),
            || episode::new_pool(s.users_jobs, 40, s.users_machines, REQ_MEM),
        ),
        compare(
            "long_episode",
            s.samples,
            || episode::old_pool(s.episode_jobs, 3, s.episode_machines, "true"),
            || episode::new_pool(s.episode_jobs, 3, s.episode_machines, "true"),
        ),
        compare(
            "churn_evictions",
            s.samples,
            || churn_evictions::old_pool(&s),
            || churn_evictions::new_pool(&s),
        ),
    ];

    // The tentpole's measurable claims, defined on the full-size run
    // (quick mode shrinks the workloads below where the indexes pay off).
    // Reported, never asserted — CI gates on the determinism panics
    // above, not on timing.
    if !quick {
        for r in &results {
            let target = match r.name {
                "many_machines_churn" => 5.0,
                "long_episode" => 10.0,
                _ => continue,
            };
            if r.speedup() < target {
                println!(
                    "WARNING: {} speedup {:.2}x below the {target}x target",
                    r.name,
                    r.speedup()
                );
            }
        }
    }

    write_json(&results, quick);
}
