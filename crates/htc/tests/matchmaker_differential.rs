//! Differential property suite for the compiled, indexed matchmaker.
//!
//! The pool rewrite (symbol-interned compiled ClassAds, per-owner idle
//! queues, an accepting-machines list, and a generation-counted finish
//! heap) is required to be *bit-for-bit* equivalent to the original
//! scan-everything implementation. This suite drives seeded random
//! interleavings of every pool operation against a reference model that
//! is a faithful port of the old code — full job-table scans, tree-walking
//! `Expr` evaluation, the double user sort — and asserts that matches,
//! completions, errors, and every observable agree exactly (f64 usage is
//! compared bitwise, so even accumulation *order* must match).
//!
//! A second family of tests checks the compiled-expression VM against the
//! tree-walking reference evaluator on randomized expressions and ads.

use std::collections::{BTreeMap, BTreeSet};

use cumulus_htc::classad::{BinOp, ClassAd, Expr, UnaryOp, Value};
use cumulus_htc::job::{Job, JobId, JobState, WorkSpec};
use cumulus_htc::machine::Machine;
use cumulus_htc::pool::{
    CondorPool, Match, PoolError, CACHE_AFFINITY_BONUS, JOB_INPUT_CIDS_ATTR,
    MACHINE_CACHE_CIDS_ATTR,
};
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::time::{SimDuration, SimTime};

// ---------------------------------------------------------------------------
// Reference model: the pre-rewrite pool, ported verbatim
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RefJob {
    id: JobId,
    owner: String,
    submitted_at: SimTime,
    requirements: Expr,
    rank: Expr,
    ad: ClassAd,
    work: WorkSpec,
    state: JobState,
    running_on: Option<String>,
    finish_at: Option<SimTime>,
    started_at: Option<SimTime>,
    evictions: u32,
}

#[derive(Debug, Clone)]
struct RefMachine {
    name: String,
    ad: ClassAd,
    slots_total: u32,
    slots_free: u32,
    draining: bool,
}

impl RefMachine {
    fn busy_slots(&self) -> u32 {
        self.slots_total - self.slots_free
    }
    fn accepting(&self) -> bool {
        !self.draining && self.slots_free > 0
    }
}

/// The old `cache_affinity`, with one change: only tokens of exactly 16
/// lowercase hex digits (the form `ContentId::hex` writes) can overlap.
/// Before the pool parsed ids to `u64`, any token matched by raw string
/// equality; the rule is checked here by its own predicate, and matching
/// is still by string, so the lockstep stays independent of the pool.
fn ref_cache_affinity(machine_ad: &ClassAd, job_ad: &ClassAd) -> f64 {
    fn well_formed(token: &str) -> bool {
        token.len() == 16
            && token
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    }
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
    let overlap = inputs
        .split(',')
        .filter(|c| well_formed(c) && cached.contains(c))
        .count();
    CACHE_AFFINITY_BONUS * overlap as f64
}

/// Faithful port of the original scan-everything `CondorPool`.
#[derive(Debug, Default)]
struct RefPool {
    jobs: BTreeMap<JobId, RefJob>,
    machines: BTreeMap<String, RefMachine>,
    next_job_id: u64,
    usage: BTreeMap<String, f64>,
    evictions: u64,
}

impl RefPool {
    fn new() -> Self {
        RefPool {
            next_job_id: 1,
            ..RefPool::default()
        }
    }

    fn add_machine(&mut self, m: &Machine) -> Result<(), PoolError> {
        if self.machines.contains_key(&m.name.0) {
            return Err(PoolError::DuplicateMachine(m.name.0.clone()));
        }
        self.machines.insert(
            m.name.0.clone(),
            RefMachine {
                name: m.name.0.clone(),
                ad: m.ad.clone(),
                slots_total: m.slots_total,
                slots_free: m.slots_free,
                draining: m.draining,
            },
        );
        Ok(())
    }

    fn drain_machine(&mut self, name: &str) -> Result<bool, PoolError> {
        let m = self
            .machines
            .get_mut(name)
            .ok_or_else(|| PoolError::UnknownMachine(name.to_string()))?;
        m.draining = true;
        if m.busy_slots() == 0 {
            self.machines.remove(name);
            return Ok(true);
        }
        Ok(false)
    }

    fn remove_machine(&mut self, name: &str, now: SimTime) -> Result<Vec<JobId>, PoolError> {
        if self.machines.remove(name).is_none() {
            return Err(PoolError::UnknownMachine(name.to_string()));
        }
        let mut evicted = Vec::new();
        for job in self.jobs.values_mut() {
            if job.state == JobState::Running && job.running_on.as_deref() == Some(name) {
                job.state = JobState::Idle;
                job.running_on = None;
                job.finish_at = None;
                job.evictions += 1;
                self.evictions += 1;
                if let Some(started) = job.started_at.take() {
                    *self.usage.entry(job.owner.clone()).or_insert(0.0) +=
                        now.since(started).as_secs_f64();
                }
                evicted.push(job.id);
            }
        }
        Ok(evicted)
    }

    fn submit(
        &mut self,
        owner: &str,
        work: WorkSpec,
        requirements: Expr,
        rank: Expr,
        mut ad: ClassAd,
        now: SimTime,
    ) -> JobId {
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;
        ad.set("Owner", Value::Str(owner.to_string()));
        self.jobs.insert(
            id,
            RefJob {
                id,
                owner: owner.to_string(),
                submitted_at: now,
                requirements,
                rank,
                ad,
                work,
                state: JobState::Idle,
                running_on: None,
                finish_at: None,
                started_at: None,
                evictions: 0,
            },
        );
        id
    }

    fn hold(&mut self, id: JobId) -> Result<(), PoolError> {
        let job = self.jobs.get_mut(&id).ok_or(PoolError::UnknownJob(id))?;
        if job.state == JobState::Idle {
            job.state = JobState::Held;
        }
        Ok(())
    }

    fn release(&mut self, id: JobId) -> Result<(), PoolError> {
        let job = self.jobs.get_mut(&id).ok_or(PoolError::UnknownJob(id))?;
        if job.state == JobState::Held {
            job.state = JobState::Idle;
        }
        Ok(())
    }

    fn remove_job(&mut self, id: JobId) -> Result<(), PoolError> {
        let job = self.jobs.get_mut(&id).ok_or(PoolError::UnknownJob(id))?;
        if job.state == JobState::Running {
            if let Some(name) = job.running_on.clone() {
                if let Some(m) = self.machines.get_mut(&name) {
                    m.slots_free += 1;
                }
            }
        }
        job.state = JobState::Removed;
        job.running_on = None;
        job.finish_at = None;
        Ok(())
    }

    fn extend_job(&mut self, id: JobId, extra: SimDuration) -> Result<SimTime, PoolError> {
        let job = self.jobs.get_mut(&id).ok_or(PoolError::UnknownJob(id))?;
        if job.state != JobState::Running {
            return Err(PoolError::NotRunning(id));
        }
        let finish = job.finish_at.expect("running job has a finish time") + extra;
        job.finish_at = Some(finish);
        Ok(finish)
    }

    fn negotiate(&mut self, now: SimTime) -> Vec<(JobId, String, SimTime)> {
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
            let job_ids: Vec<JobId> = self
                .jobs
                .values()
                .filter(|j| j.state == JobState::Idle && j.owner == user)
                .map(|j| j.id)
                .collect();
            for id in job_ids {
                let job = &self.jobs[&id];
                let mut best: Option<(f64, String)> = None;
                for m in self.machines.values().filter(|m| m.accepting()) {
                    if !job.requirements.eval_bool(&m.ad, &job.ad) {
                        continue;
                    }
                    let score =
                        job.rank.eval_rank(&m.ad, &job.ad) + ref_cache_affinity(&m.ad, &job.ad);
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
                let duration = job.work.duration_on(capacity);
                job.state = JobState::Running;
                job.running_on = Some(name.clone());
                job.started_at = Some(now);
                job.finish_at = Some(now + duration);
                matches.push((id, name, now + duration));
            }
        }
        matches
    }

    fn settle(&mut self, now: SimTime) -> Vec<JobId> {
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

    // ----- observables, as the old pool computed them -----------------

    fn free_slots(&self) -> u32 {
        self.machines
            .values()
            .filter(|m| m.accepting())
            .map(|m| m.slots_free)
            .sum()
    }

    fn total_slots(&self) -> u32 {
        self.machines.values().map(|m| m.slots_total).sum()
    }

    fn busy_slots(&self) -> u32 {
        self.machines.values().map(|m| m.busy_slots()).sum()
    }

    fn idle_count(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Idle)
            .count()
    }

    fn running_count(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .count()
    }

    fn retried_jobs(&self) -> usize {
        self.jobs.values().filter(|j| j.evictions > 0).count()
    }

    fn max_evictions(&self) -> u32 {
        self.jobs.values().map(|j| j.evictions).max().unwrap_or(0)
    }

    fn last_completion_at(&self) -> Option<SimTime> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Completed)
            .filter_map(|j| j.finish_at)
            .max()
    }

    fn next_completion_at(&self) -> Option<SimTime> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .filter_map(|j| j.finish_at)
            .min()
    }

    fn idle_waits(&self, now: SimTime) -> Vec<SimDuration> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Idle)
            .map(|j| now.since(j.submitted_at))
            .collect()
    }

    fn completed_waits(&self) -> Vec<SimDuration> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Completed)
            .filter_map(|j| j.started_at.map(|s| s.since(j.submitted_at)))
            .collect()
    }

    fn jobs_in_state(&self, state: JobState) -> Vec<JobId> {
        self.jobs
            .values()
            .filter(|j| j.state == state)
            .map(|j| j.id)
            .collect()
    }

    fn machine_busy_until(&self, name: &str) -> Option<SimTime> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .filter(|j| j.running_on.as_deref() == Some(name))
            .filter_map(|j| j.finish_at)
            .max()
    }
}

// ---------------------------------------------------------------------------
// The random driver
// ---------------------------------------------------------------------------

const OWNERS: &[&str] = &["alice", "bob", "carol", "dave", "erin"];
const REQS: &[&str] = &[
    "true",
    "Memory >= 1024",
    "Memory >= 4000",
    "Memory >= 1024 && Arch == \"X86_64\" && OpSys == \"LINUX\"",
    "Memory >= 4000 && Arch == \"X86_64\" && OpSys == \"LINUX\"",
    "Arch == \"X86_64\" && Memory >= 613",
    "ComputeUnits >= 2",
    "Memory >= 1024 || ComputeUnits >= 4",
    "Machine == \"m3\"",
    "MY.RequestMemory <= Memory",
];
const RANKS: &[&str] = &[
    "ComputeUnits",
    "Memory / 100",
    "0",
    "Memory - ComputeUnits * 10",
    "ComputeUnits * 2 + 1",
];
/// Well-formed ids plus tokens that must never overlap: uppercase hex,
/// 15 and 17 digits, a non-hex name, and the empty token (`a,,b`).
const CIDS: &[&str] = &[
    "00000000000000aa",
    "00000000000000bb",
    "00000000000000cc",
    "00000000000000dd",
    "00000000000000AA",
    "0000000000000bb",
    "00000000000000cc0",
    "cid-dd",
    "",
];

/// A machine whose ad also carries the standard attributes a real Condor
/// machine advertises, so every reference searches a realistically sized
/// ad.
fn standard_machine(name: &str, cu: f64, mem: i64, slots: u32) -> Machine {
    let mut m = Machine::new(name, cu, mem, slots);
    m.ad.set("Disk", Value::Int(mem * 10));
    m.ad.set("KFlops", Value::Int((cu * 1.0e6) as i64));
    m.ad.set("Mips", Value::Int((cu * 1000.0) as i64));
    m.ad.set("TotalCpus", Value::Int(slots as i64));
    m.ad.set("FileSystemDomain", Value::Str("cumulus".to_string()));
    m.ad.set("UidDomain", Value::Str("cumulus".to_string()));
    m
}

fn random_cid_list(rng: &mut RngStream) -> String {
    let n = rng.uniform_int(1, CIDS.len() as u64) as usize;
    let mut picks: Vec<&str> = Vec::new();
    for _ in 0..n {
        picks.push(*rng.choose(CIDS));
    }
    picks.join(",")
}

fn compare_matches(real: &[Match], reference: &[(JobId, String, SimTime)], step: usize) {
    assert_eq!(real.len(), reference.len(), "match count at step {step}");
    for (r, m) in real.iter().zip(reference) {
        assert_eq!(r.job, m.0, "matched job at step {step}");
        assert_eq!(r.machine.0, m.1, "matched machine at step {step}");
        assert_eq!(r.finish_at, m.2, "finish time at step {step}");
    }
}

fn compare_observables(
    pool: &CondorPool,
    model: &RefPool,
    owners: &[&str],
    now: SimTime,
    step: usize,
) {
    assert_eq!(pool.idle_count(), model.idle_count(), "idle @{step}");
    assert_eq!(
        pool.running_count(),
        model.running_count(),
        "running @{step}"
    );
    assert_eq!(pool.free_slots(), model.free_slots(), "free slots @{step}");
    assert_eq!(
        pool.total_slots(),
        model.total_slots(),
        "total slots @{step}"
    );
    assert_eq!(pool.busy_slots(), model.busy_slots(), "busy slots @{step}");
    assert_eq!(pool.retried_jobs(), model.retried_jobs(), "retried @{step}");
    assert_eq!(
        pool.max_evictions(),
        model.max_evictions(),
        "max evict @{step}"
    );
    assert_eq!(pool.total_evictions(), model.evictions, "evictions @{step}");
    assert_eq!(
        pool.last_completion_at(),
        model.last_completion_at(),
        "last completion @{step}"
    );
    assert_eq!(
        pool.next_completion_at(),
        model.next_completion_at(),
        "next completion @{step}"
    );
    assert_eq!(
        pool.idle_waits(now).collect::<Vec<_>>(),
        model.idle_waits(now),
        "idle waits @{step}"
    );
    assert_eq!(
        pool.completed_waits(),
        model.completed_waits(),
        "completed waits @{step}"
    );
    for state in [
        JobState::Idle,
        JobState::Running,
        JobState::Completed,
        JobState::Held,
        JobState::Removed,
    ] {
        assert_eq!(
            pool.jobs_in_state(state),
            model.jobs_in_state(state),
            "jobs in {state:?} @{step}"
        );
    }
    // Bitwise usage equality: accumulation order must have matched.
    for &owner in owners {
        assert_eq!(
            pool.user_usage(owner).to_bits(),
            model.usage.get(owner).copied().unwrap_or(0.0).to_bits(),
            "usage for {owner} @{step}"
        );
    }
    // Membership, in name order.
    let real_names: Vec<String> = pool.machines().map(|m| m.name.0.clone()).collect();
    let model_names: Vec<String> = model.machines.keys().cloned().collect();
    assert_eq!(real_names, model_names, "machine membership @{step}");
    for name in &model_names {
        assert_eq!(
            pool.machine_busy_until(name),
            model.machine_busy_until(name),
            "busy_until({name}) @{step}"
        );
        let rm = pool.machine(name).expect("listed machine");
        let mm = &model.machines[name];
        assert_eq!(rm.slots_free, mm.slots_free, "slots_free({name}) @{step}");
        assert_eq!(rm.draining, mm.draining, "draining({name}) @{step}");
    }
    assert_eq!(pool.machine_busy_until("no-such-machine"), None);
    // Per-job state agreement, including retired (completed) jobs.
    for (&id, mj) in &model.jobs {
        let rj = pool.job(id).expect("job exists in both");
        assert_eq!(rj.state, mj.state, "state of {id} @{step}");
        assert_eq!(rj.evictions, mj.evictions, "evictions of {id} @{step}");
        assert_eq!(rj.finish_at, mj.finish_at, "finish of {id} @{step}");
        assert_eq!(rj.started_at, mj.started_at, "started of {id} @{step}");
        assert_eq!(
            rj.running_on.as_ref().map(|m| m.0.clone()),
            mj.running_on.clone(),
            "running_on of {id} @{step}"
        );
    }
}

/// Submit one job with random owner / work / expressions / cids to both
/// sides. A `tag` becomes a job-ad attribute, so tagged jobs each get an
/// autocluster of their own.
fn submit_random(
    rng: &mut RngStream,
    pool: &mut CondorPool,
    model: &mut RefPool,
    owners: &[&str],
    now: SimTime,
    tag: Option<i64>,
    step: usize,
) {
    let owner = *rng.choose(owners);
    let work = WorkSpec {
        serial_secs: rng.uniform_int(1, 300) as f64,
        cu_work: rng.uniform_int(0, 400) as f64,
    };
    let req_src = *rng.choose(REQS);
    let rank_src = if rng.chance(0.4) {
        None
    } else {
        Some(*rng.choose(RANKS))
    };
    let request_memory = Value::Int(rng.uniform_int(512, 4096) as i64);
    let input_cids = rng.chance(0.3).then(|| random_cid_list(rng));
    let mut ad = ClassAd::new();
    ad.set("RequestMemory", request_memory.clone());
    let mut builder = Job::new(owner, work)
        .try_requirements(req_src)
        .expect("template parses")
        .attr("RequestMemory", request_memory);
    if let Some(r) = rank_src {
        builder = builder.try_rank(r).expect("template parses");
    }
    if let Some(cids) = input_cids {
        ad.set(JOB_INPUT_CIDS_ATTR, Value::Str(cids.clone()));
        builder = builder.attr(JOB_INPUT_CIDS_ATTR, Value::Str(cids));
    }
    if let Some(tag) = tag {
        ad.set("Tag", Value::Int(tag));
        builder = builder.attr("Tag", Value::Int(tag));
    }
    let real_id = pool.submit(builder, now);
    let req = Expr::parse(req_src).unwrap();
    let rank = Expr::parse(rank_src.unwrap_or("ComputeUnits")).unwrap();
    let model_id = model.submit(owner, work, req, rank, ad, now);
    assert_eq!(real_id, model_id, "job id at step {step}");
}

/// The population an episode runs over.
struct Shape<'a> {
    /// Who submits.
    owners: &'a [&'a str],
    /// Jobs per submit step.
    batch: usize,
    /// Machines the pool starts with, cycling through every
    /// compute/memory tier.
    machines: usize,
}

/// Five owners submitting one job at a time to a pool that starts empty.
const SMALL: Shape = Shape {
    owners: OWNERS,
    batch: 1,
    machines: 0,
};

/// One seeded episode of random pool operations over `shape`.
fn run_differential_episode(seed: u64, steps: usize, shape: &Shape) {
    let owners = shape.owners;
    let mut rng = RngStream::derive(seed, "matchmaker-differential");
    let mut pool = CondorPool::new();
    let mut model = RefPool::new();
    let mut now = SimTime::ZERO;
    let mut machine_counter: u64 = 0;
    let mut live_names: Vec<String> = Vec::new();
    for i in 0..shape.machines {
        let name = format!("w{i:03}");
        let cu = [1.0, 2.2, 4.0, 8.0][i % 4];
        let mem = [613i64, 1700, 4000, 7500][(i / 4) % 4];
        let m = standard_machine(&name, cu, mem, 1 + (i % 2) as u32);
        assert_eq!(pool.add_machine(m.clone()), model.add_machine(&m));
        live_names.push(name);
    }

    for step in 0..steps {
        match rng.uniform_int(0, 99) {
            // Submit jobs with random owner / work / expressions / cids.
            0..=27 => {
                for _ in 0..shape.batch {
                    submit_random(&mut rng, &mut pool, &mut model, owners, now, None, step);
                }
            }
            // Add a machine (sometimes a duplicate, to compare errors).
            28..=38 => {
                let dup = rng.chance(0.1) && !live_names.is_empty();
                let name = if dup {
                    rng.choose(&live_names).clone()
                } else {
                    machine_counter += 1;
                    format!("m{machine_counter}")
                };
                let cu = *rng.choose(&[1.0, 2.2, 4.0, 8.0]);
                let mem = *rng.choose(&[613i64, 1700, 4000, 7500]);
                let slots = rng.uniform_int(1, 3) as u32;
                let mut m = standard_machine(&name, cu, mem, slots);
                if rng.chance(0.3) {
                    m.ad.set(
                        MACHINE_CACHE_CIDS_ATTR,
                        Value::Str(random_cid_list(&mut rng)),
                    );
                }
                let model_res = model.add_machine(&m);
                let real_res = pool.add_machine(m);
                assert_eq!(real_res, model_res, "add_machine at step {step}");
                if real_res.is_ok() {
                    live_names.push(name);
                }
            }
            // Remove a machine abruptly (sometimes a missing name).
            39..=44 => {
                let name = if rng.chance(0.15) || live_names.is_empty() {
                    "ghost".to_string()
                } else {
                    rng.choose(&live_names).clone()
                };
                let real = pool.remove_machine(&name, now);
                let reference = model.remove_machine(&name, now);
                assert_eq!(real, reference, "remove_machine at step {step}");
                live_names.retain(|n| *n != name);
            }
            // Drain a machine.
            45..=49 => {
                let name = if rng.chance(0.15) || live_names.is_empty() {
                    "ghost".to_string()
                } else {
                    rng.choose(&live_names).clone()
                };
                let real = pool.drain_machine(&name);
                let reference = model.drain_machine(&name);
                assert_eq!(real, reference, "drain_machine at step {step}");
                if real == Ok(true) {
                    live_names.retain(|n| *n != name);
                }
            }
            // Negotiate and compare the matches exactly.
            50..=64 => {
                let real = pool.negotiate(now);
                let reference = model.negotiate(now);
                compare_matches(&real, &reference, step);
            }
            // Advance to (or past) the next completion and settle.
            65..=78 => {
                if rng.chance(0.7) {
                    if let Some(next) = model.next_completion_at() {
                        if next > now {
                            now = next;
                        }
                    }
                } else {
                    now += SimDuration::from_secs(rng.uniform_int(1, 900));
                }
                let real = pool.settle(now);
                let reference = model.settle(now);
                assert_eq!(real, reference, "settle at step {step}");
                // Draining machines removed by settle disappear from both.
                let still: BTreeSet<&String> = model.machines.keys().collect();
                live_names.retain(|n| still.contains(n));
            }
            // Hold / release a random (possibly unknown) job.
            79..=84 => {
                let id = JobId(rng.uniform_int(1, model.next_job_id + 1));
                if rng.chance(0.5) {
                    assert_eq!(pool.hold(id), model.hold(id), "hold at step {step}");
                } else {
                    assert_eq!(
                        pool.release(id),
                        model.release(id),
                        "release at step {step}"
                    );
                }
            }
            // Remove a random job — including already-completed ones,
            // which exercises the history-retirement path.
            85..=88 => {
                let id = JobId(rng.uniform_int(1, model.next_job_id + 1));
                assert_eq!(
                    pool.remove_job(id),
                    model.remove_job(id),
                    "remove_job at step {step}"
                );
            }
            // Extend a random job's deadline.
            89..=91 => {
                let id = JobId(rng.uniform_int(1, model.next_job_id + 1));
                let extra = SimDuration::from_secs(rng.uniform_int(1, 120));
                assert_eq!(
                    pool.extend_job(id, extra),
                    model.extend_job(id, extra),
                    "extend_job at step {step}"
                );
            }
            // Refresh a machine's cache advertisement mid-flight.
            92..=95 => {
                if let Some(name) =
                    (!live_names.is_empty()).then(|| rng.choose(&live_names).clone())
                {
                    let cids = Value::Str(random_cid_list(&mut rng));
                    if let Some(m) = pool.machine_mut(&name) {
                        m.ad.set(MACHINE_CACHE_CIDS_ATTR, cids.clone());
                    }
                    if let Some(m) = model.machines.get_mut(&name) {
                        m.ad.set(MACHINE_CACHE_CIDS_ATTR, cids);
                    }
                }
            }
            // Let time pass.
            _ => {
                now += SimDuration::from_secs(rng.uniform_int(1, 600));
            }
        }
        if step % 7 == 0 {
            compare_observables(&pool, &model, owners, now, step);
        }
    }
    compare_observables(&pool, &model, owners, now, steps);
}

#[test]
fn random_interleavings_match_the_reference_model() {
    for seed in 0..12 {
        run_differential_episode(0xC0FFEE + seed, 400, &SMALL);
    }
}

#[test]
fn long_episode_matches_the_reference_model() {
    run_differential_episode(0xBEEF, 2500, &SMALL);
}

/// Forty owners submitting in batches to a pool that starts 128 machines
/// wide, so the queue runs deep and removals evict.
#[test]
fn wide_pool_episode_matches_the_reference_model() {
    let names: Vec<String> = (0..40).map(|i| format!("user{i:02}")).collect();
    let owners: Vec<&str> = names.iter().map(String::as_str).collect();
    let shape = Shape {
        owners: &owners,
        batch: 30,
        machines: 128,
    };
    run_differential_episode(0x31DE, 400, &shape);
}

/// Every job an autocluster of its own, cycle after cycle, against a pool
/// kept nearly full: the negotiator's memo hands rows to a stream of
/// fresh clusters while machine ads change between cycles, and no verdict
/// may survive into a later cycle.
fn run_churn_episode(seed: u64, cycles: usize) {
    let mut rng = RngStream::derive(seed, "matchmaker-differential/churn");
    let mut pool = CondorPool::new();
    let mut model = RefPool::new();
    let mut now = SimTime::ZERO;
    let names: Vec<String> = (1..=6).map(|i| format!("m{i}")).collect();
    for name in &names {
        let cu = *rng.choose(&[1.0, 2.2, 4.0, 8.0]);
        let mem = *rng.choose(&[613i64, 1700, 4000, 7500]);
        let slots = rng.uniform_int(1, 2) as u32;
        let m = Machine::new(name, cu, mem, slots);
        assert_eq!(pool.add_machine(m.clone()), model.add_machine(&m));
    }
    let mut tag = 0;
    for cycle in 0..cycles {
        for _ in 0..rng.uniform_int(1, 3) {
            tag += 1;
            submit_random(
                &mut rng,
                &mut pool,
                &mut model,
                OWNERS,
                now,
                Some(tag),
                cycle,
            );
        }
        // Re-advertise a machine: its cache (moves scores) or its memory
        // (moves requirement verdicts).
        if rng.chance(0.3) {
            let name = rng.choose(&names).clone();
            let (key, value) = if rng.chance(0.5) {
                (
                    MACHINE_CACHE_CIDS_ATTR,
                    Value::Str(random_cid_list(&mut rng)),
                )
            } else {
                (
                    "Memory",
                    Value::Int(*rng.choose(&[613i64, 1700, 4000, 7500])),
                )
            };
            if let Some(m) = pool.machine_mut(&name) {
                m.ad.set(key, value.clone());
            }
            if let Some(m) = model.machines.get_mut(&name) {
                m.ad.set(key, value);
            }
        }
        compare_matches(&pool.negotiate(now), &model.negotiate(now), cycle);
        now += SimDuration::from_secs(20);
        assert_eq!(
            pool.settle(now),
            model.settle(now),
            "settle at cycle {cycle}"
        );
        if cycle % 25 == 0 {
            compare_observables(&pool, &model, OWNERS, now, cycle);
        }
    }
    assert!(pool.running_count() > 0, "the pool stayed busy");
    compare_observables(&pool, &model, OWNERS, now, cycles);
}

#[test]
fn fresh_cluster_churn_matches_the_reference_model() {
    for seed in 0..4 {
        run_churn_episode(0xC1u64 + seed, 400);
    }
}

// ---------------------------------------------------------------------------
// Compiled vs tree-walking expression equivalence
// ---------------------------------------------------------------------------

const ATTRS: &[&str] = &[
    "A",
    "B",
    "C",
    "Memory",
    "ComputeUnits",
    "Missing",
    "my.A",
    "target.B",
    "MY.Memory",
    "TARGET.C",
    "weird.scope",
];

fn random_value(rng: &mut RngStream) -> Value {
    match rng.uniform_int(0, 4) {
        0 => Value::Int(rng.uniform_int(0, 40) as i64 - 20),
        1 => Value::Float((rng.uniform_int(0, 400) as f64 - 200.0) / 8.0),
        2 => Value::Bool(rng.chance(0.5)),
        3 => Value::Str(rng.choose(&["x86_64", "LINUX", "", "x"]).to_string()),
        _ => Value::Undefined,
    }
}

fn random_expr(rng: &mut RngStream, depth: u32) -> Expr {
    if depth == 0 || rng.chance(0.3) {
        return if rng.chance(0.5) {
            Expr::Lit(random_value(rng))
        } else {
            Expr::Attr(rng.choose(ATTRS).to_string())
        };
    }
    match rng.uniform_int(0, 13) {
        0 => Expr::Unary(UnaryOp::Not, Box::new(random_expr(rng, depth - 1))),
        1 => Expr::Unary(UnaryOp::Neg, Box::new(random_expr(rng, depth - 1))),
        n => {
            let op = [
                BinOp::Or,
                BinOp::And,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
            ][(n - 2) as usize];
            Expr::Binary(
                op,
                Box::new(random_expr(rng, depth - 1)),
                Box::new(random_expr(rng, depth - 1)),
            )
        }
    }
}

fn random_ad(rng: &mut RngStream) -> ClassAd {
    let mut ad = ClassAd::new();
    let n = rng.uniform_int(0, 5);
    for _ in 0..n {
        let key = *rng.choose(&["A", "B", "C", "Memory", "ComputeUnits"]);
        let value = random_value(rng);
        ad.set(key, value);
    }
    ad
}

/// Bitwise value equality (floats compared by representation, so a NaN
/// from one evaluator must be the same NaN from the other).
fn value_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

#[test]
fn compiled_expressions_match_tree_walking_on_random_inputs() {
    let mut rng = RngStream::derive(0xFACADE, "compiled-vs-tree");
    for case in 0..4000 {
        let expr = random_expr(&mut rng, 4);
        let compiled = expr.compile();
        let target = random_ad(&mut rng);
        let own = random_ad(&mut rng);
        let tree = expr.eval(&target, &own);
        let vm = compiled.eval(&target, &own);
        assert!(
            value_identical(&tree, &vm),
            "case {case}: {expr:?} → tree {tree:?} vs compiled {vm:?}\n target={target:?}\n own={own:?}"
        );
        let mut stack = Vec::new();
        assert_eq!(
            expr.eval_bool(&target, &own),
            compiled.eval_bool(&target, &own, &mut stack),
            "case {case}: eval_bool diverged on {expr:?}"
        );
        assert_eq!(
            expr.eval_rank(&target, &own).to_bits(),
            compiled.eval_rank(&target, &own, &mut stack).to_bits(),
            "case {case}: eval_rank diverged on {expr:?}"
        );
    }
}

#[test]
fn compiled_parsed_expressions_match_on_random_ads() {
    // The templates the rest of the system actually uses, over random ads.
    let mut rng = RngStream::derive(0xDECADE, "compiled-vs-tree-parsed");
    let exprs: Vec<(Expr, _)> = REQS
        .iter()
        .chain(RANKS.iter())
        .map(|src| {
            let e = Expr::parse(src).unwrap();
            let c = e.compile();
            (e, c)
        })
        .collect();
    for _ in 0..1500 {
        let target = random_ad(&mut rng);
        let own = random_ad(&mut rng);
        let mut stack = Vec::new();
        for (e, c) in &exprs {
            assert!(
                value_identical(
                    &e.eval(&target, &own),
                    &c.eval_with(&target, &own, &mut stack)
                ),
                "parsed expression diverged: {e:?}"
            );
        }
    }
}
