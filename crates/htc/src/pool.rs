//! The Condor pool: queue, matchmaker, and dynamic membership.
//!
//! The pool is a passive state machine like the rest of the substrates:
//! the orchestrator submits jobs, calls [`negotiate`](CondorPool::negotiate)
//! to run a matchmaking cycle, and calls [`settle`](CondorPool::settle) when
//! simulated time reaches a completion. Machines can join at any time
//! (the paper's `gp-instance-update` adding a c1.medium node) and leave via
//! draining, which is what makes the Galaxy cluster elastic.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::ops::ControlFlow;
use std::sync::OnceLock;

use cumulus_simkit::disrupt::{Disruptable, DisruptionKind};
use cumulus_simkit::telemetry::{span::keys as span_keys, SpanKind, Telemetry};
use cumulus_simkit::time::{SimDuration, SimTime};

use crate::classad::{ClassAd, Symbol, Value};
use crate::job::{Job, JobBuilder, JobId, JobState};
use crate::machine::{Machine, MachineName};

/// Job-ad attribute listing the job's input content ids as comma-joined
/// 16-hex-digit strings (data-aware scheduling; unset = no affinity).
pub const JOB_INPUT_CIDS_ATTR: &str = "InputCids";

/// Machine-ad attribute listing the contents of the worker's data cache
/// in the same format. Refreshed by the data plane after staging.
pub const MACHINE_CACHE_CIDS_ATTR: &str = "CacheCids";

/// Rank bonus per cached input. Large enough to dominate the default
/// `ComputeUnits` rank (single digits), so a cache-warm slow node beats a
/// cache-cold fast one; explicit user rank expressions can still swamp it.
pub const CACHE_AFFINITY_BONUS: f64 = 1000.0;

/// The data-affinity term added to a job's rank for a machine: the bonus
/// times the number of the job's inputs already in the machine's cache.
/// Zero whenever either side leaves its attribute unset, so pools that
/// never advertise content ids negotiate exactly as before.
///
/// This is the reference definition; the negotiator itself counts overlap
/// against pre-parsed cid lists (a `debug_assert` keeps them in lockstep).
fn cache_affinity(machine_ad: &ClassAd, job_ad: &ClassAd) -> f64 {
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

/// Errors from pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// Unknown job id.
    UnknownJob(JobId),
    /// Unknown machine name.
    UnknownMachine(String),
    /// A machine with this name already exists.
    DuplicateMachine(String),
    /// The job exists but is not currently running.
    NotRunning(JobId),
    /// The queue failed to drain: idle jobs remain that no machine can
    /// match, and nothing is running that could free a slot.
    NotDrained {
        /// Idle jobs left in the queue.
        idle: usize,
        /// Jobs still executing.
        running: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnknownJob(j) => write!(f, "unknown job {j}"),
            PoolError::UnknownMachine(m) => write!(f, "unknown machine {m:?}"),
            PoolError::DuplicateMachine(m) => write!(f, "machine {m:?} already in pool"),
            PoolError::NotRunning(j) => write!(f, "job {j} is not running"),
            PoolError::NotDrained { idle, running } => write!(
                f,
                "queue failed to drain: {idle} idle / {running} running job(s) remain"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

/// One match made during a negotiation cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// The matched job.
    pub job: JobId,
    /// The machine it went to.
    pub machine: MachineName,
    /// When the job will finish.
    pub finish_at: SimTime,
}

/// Interned symbol for the machine capacity attribute (hot path).
fn sym_compute_units() -> Symbol {
    static S: OnceLock<Symbol> = OnceLock::new();
    *S.get_or_init(|| Symbol::intern("ComputeUnits"))
}

/// Interned symbol for [`MACHINE_CACHE_CIDS_ATTR`].
fn sym_cache_cids() -> Symbol {
    static S: OnceLock<Symbol> = OnceLock::new();
    *S.get_or_init(|| Symbol::intern(MACHINE_CACHE_CIDS_ATTR))
}

/// A machine plus the negotiator's per-machine caches, stored in a slab
/// slot. The caches are derived from the machine ad and recomputed lazily
/// when [`CondorPool::machine_mut`] (or `add_machine`) marks them dirty.
#[derive(Debug)]
struct MachineSlot {
    machine: Machine,
    /// `ComputeUnits` from the ad (Float/Int, else 1.0), read once per
    /// dirty cycle instead of once per accepted match.
    capacity: f64,
    /// Sorted, deduplicated `CacheCids` entries for binary-search overlap
    /// counting. Empty when the attribute is unset / not a string / "".
    cache_cids: Vec<Box<str>>,
    /// Set when the ad may have changed; cleared by `recompute`.
    dirty: bool,
}

impl MachineSlot {
    fn new(machine: Machine) -> Self {
        let mut slot = MachineSlot {
            machine,
            capacity: 1.0,
            cache_cids: Vec::new(),
            dirty: true,
        };
        slot.recompute();
        slot
    }

    fn recompute(&mut self) {
        self.capacity = match self.machine.ad.get_sym(sym_compute_units()) {
            Value::Float(f) => f,
            Value::Int(i) => i as f64,
            _ => 1.0,
        };
        self.cache_cids = match self.machine.ad.get_sym(sym_cache_cids()) {
            Value::Str(s) if !s.is_empty() => {
                let mut cids: Vec<Box<str>> = s.split(',').map(Box::from).collect();
                cids.sort_unstable();
                cids.dedup();
                cids
            }
            _ => Vec::new(),
        };
        self.dirty = false;
    }
}

/// An entry in the finish-time min-heap: `(finish, job, run_gen)`.
/// Generation counting (mirroring the simkit slab queue) makes eviction,
/// removal, and deadline extension O(1): the job's `run_gen` is bumped and
/// the orphaned entry is skipped when popped.
type FinishEntry = Reverse<(SimTime, JobId, u64)>;

/// The central manager's state.
///
/// Internally the pool is fully indexed so a negotiation cycle never
/// rescans the job table: idle jobs are queued per owner in submission
/// order (`idle_by_owner`), accepting machines live in a name-sorted list
/// updated on every slot/draining transition (`accepting`), running jobs
/// sit in a generation-counted finish-time min-heap (`finish_heap`), and
/// completed jobs retire out of the hot map into an append-only
/// `history`. All user-visible orderings (match order, settle order,
/// usage-charge order) are identical to the original scan-everything
/// implementation — the differential suite in
/// `tests/matchmaker_differential.rs` holds the two to the same answers.
#[derive(Debug, Default)]
pub struct CondorPool {
    /// Live jobs: idle, running, held, and removed. Completed jobs move
    /// to `history`.
    jobs: BTreeMap<JobId, Job>,
    /// Completed jobs, append-only, retired out of the hot map.
    history: BTreeMap<JobId, Job>,
    /// Machine slab; `None` slots are free for reuse.
    machines: Vec<Option<MachineSlot>>,
    /// Name → slab index (name-ordered iteration).
    by_name: BTreeMap<MachineName, usize>,
    /// Reusable slab indices.
    free_list: Vec<usize>,
    /// Slab indices of machines with a free slot and not draining,
    /// sorted by machine name (the negotiator's scan order).
    accepting: Vec<usize>,
    /// Idle job ids per owner, ascending (= submission order).
    idle_by_owner: BTreeMap<String, BTreeSet<JobId>>,
    /// Finish-time min-heap over running jobs (may hold stale entries).
    finish_heap: BinaryHeap<FinishEntry>,
    next_job_id: u64,
    /// Accumulated per-user usage seconds (drives fair-share ordering).
    usage: BTreeMap<String, f64>,
    /// Running total of evictions across the pool's lifetime (covers
    /// jobs that have since completed or left the queue).
    evictions: u64,
    /// Jobs ever evicted at least once (monotone: evictions never reset
    /// and jobs never leave the pool's universe).
    retried: usize,
    /// Worst per-job eviction count ever seen (monotone, same argument).
    max_evictions_seen: u32,
    /// Latest completion time (completions only ever accumulate).
    last_completion: Option<SimTime>,
    /// Cached counts maintained on every state transition.
    idle: usize,
    running: usize,
    /// Machines currently draining (guards the settle sweep).
    draining_count: usize,
    /// Autocluster interning table: fingerprint of a job's (requirements,
    /// rank, ad) → cluster id. Append-only; bounded by the number of
    /// distinct job shapes ever submitted, which real workloads keep
    /// small (Condor's autoclusters exploit the same redundancy).
    clusters: HashMap<Vec<u8>, u32>,
    /// Job-lifecycle telemetry (submit → match → stage → complete spans).
    /// Disabled by default; attach a shared handle with
    /// [`set_telemetry`](CondorPool::set_telemetry).
    telemetry: Telemetry,
}

impl CondorPool {
    /// An empty pool.
    pub fn new() -> Self {
        CondorPool {
            next_job_id: 1,
            ..CondorPool::default()
        }
    }

    /// Attach a telemetry handle. Job lifecycle events (`job.submitted`,
    /// `job.matched`, `job.staged`, `job.evicted`, `job.completed`) are
    /// emitted as span events on it, from which per-job walltime
    /// breakdowns are assembled after the episode.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The pool's telemetry handle (disabled unless one was attached);
    /// workflow drivers clone it so their spans share the event stream.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    // ----- index maintenance -----------------------------------------

    /// Position of `name` in the name-sorted accepting list.
    fn accepting_pos(&self, name: &MachineName) -> Result<usize, usize> {
        self.accepting
            .binary_search_by(|&i| self.slot(i).machine.name.cmp(name))
    }

    fn slot(&self, i: usize) -> &MachineSlot {
        self.machines[i].as_ref().expect("live slab index")
    }

    fn slot_mut(&mut self, i: usize) -> &mut MachineSlot {
        self.machines[i].as_mut().expect("live slab index")
    }

    /// Insert `i` into the accepting list (no-op if already present).
    fn accepting_insert(&mut self, i: usize) {
        let name = self.slot(i).machine.name.clone();
        if let Err(pos) = self.accepting_pos(&name) {
            self.accepting.insert(pos, i);
        }
    }

    /// Remove the machine named `name` from the accepting list, if present.
    fn accepting_remove(&mut self, name: &MachineName) {
        if let Ok(pos) = self.accepting_pos(name) {
            self.accepting.remove(pos);
        }
    }

    /// Queue an idle job in its owner's submission-order index.
    fn idle_index_insert(&mut self, owner: &str, id: JobId) {
        self.idle_by_owner
            .entry(owner.to_string())
            .or_default()
            .insert(id);
        self.idle += 1;
    }

    /// Drop an idle job from its owner's index.
    fn idle_index_remove(&mut self, owner: &str, id: JobId) {
        if let Some(set) = self.idle_by_owner.get_mut(owner) {
            set.remove(&id);
            if set.is_empty() {
                self.idle_by_owner.remove(owner);
            }
        }
        self.idle -= 1;
    }

    /// Free a slab slot and every index that referenced it.
    fn remove_slot(&mut self, i: usize) -> MachineSlot {
        let name = self.slot(i).machine.name.clone();
        self.accepting_remove(&name);
        self.by_name.remove(&name);
        let slot = self.machines[i].take().expect("live slab index");
        if slot.machine.draining {
            self.draining_count -= 1;
        }
        self.free_list.push(i);
        slot
    }

    /// Record an eviction on `job` (counters + heap invalidation).
    fn note_eviction(job: &mut Job, evictions: &mut u64, retried: &mut usize, max_seen: &mut u32) {
        job.evictions += 1;
        job.run_gen += 1;
        *evictions += 1;
        if job.evictions == 1 {
            *retried += 1;
        }
        *max_seen = (*max_seen).max(job.evictions);
    }

    // ----- membership ------------------------------------------------

    /// Add a machine to the pool.
    pub fn add_machine(&mut self, m: Machine) -> Result<(), PoolError> {
        if self.by_name.contains_key(&m.name) {
            return Err(PoolError::DuplicateMachine(m.name.0.clone()));
        }
        let name = m.name.clone();
        let accepting = m.accepting();
        let draining = m.draining;
        let slot = MachineSlot::new(m);
        let i = match self.free_list.pop() {
            Some(i) => {
                self.machines[i] = Some(slot);
                i
            }
            None => {
                self.machines.push(Some(slot));
                self.machines.len() - 1
            }
        };
        self.by_name.insert(name, i);
        if accepting {
            self.accepting_insert(i);
        }
        if draining {
            self.draining_count += 1;
        }
        Ok(())
    }

    /// Begin draining a machine: running jobs finish, no new matches, and
    /// the machine is removed once idle. Returns `true` if it was removed
    /// immediately (nothing running).
    pub fn drain_machine(&mut self, name: &str) -> Result<bool, PoolError> {
        let key = MachineName(name.to_string());
        let &i = self
            .by_name
            .get(&key)
            .ok_or_else(|| PoolError::UnknownMachine(name.to_string()))?;
        let m = &mut self.slot_mut(i).machine;
        let was_draining = m.draining;
        m.draining = true;
        let idle_now = m.busy_slots() == 0;
        self.accepting_remove(&key);
        if !was_draining {
            self.draining_count += 1;
        }
        if idle_now {
            self.remove_slot(i);
            return Ok(true);
        }
        Ok(false)
    }

    /// Abruptly remove a machine (host failure / terminated instance).
    /// Its running jobs are evicted back to Idle for rematching.
    pub fn remove_machine(&mut self, name: &str, now: SimTime) -> Result<Vec<JobId>, PoolError> {
        let key = MachineName(name.to_string());
        let Some(&i) = self.by_name.get(&key) else {
            return Err(PoolError::UnknownMachine(name.to_string()));
        };
        self.remove_slot(i);
        let mut evicted = Vec::new();
        let mut requeue = Vec::new();
        for job in self.jobs.values_mut() {
            if job.state == JobState::Running && job.running_on.as_ref() == Some(&key) {
                job.state = JobState::Idle;
                job.running_on = None;
                job.finish_at = None;
                Self::note_eviction(
                    job,
                    &mut self.evictions,
                    &mut self.retried,
                    &mut self.max_evictions_seen,
                );
                // Charge the user for the wasted time.
                if let Some(started) = job.started_at.take() {
                    *self.usage.entry(job.owner.clone()).or_insert(0.0) +=
                        now.since(started).as_secs_f64();
                }
                requeue.push((job.owner.clone(), job.id));
                evicted.push(job.id);
            }
        }
        for (owner, id) in requeue {
            self.idle_index_insert(&owner, id);
            self.running -= 1;
            self.telemetry.span_phase(
                now,
                "htc",
                span_keys::JOB_EVICTED,
                SpanKind::Job,
                id.0,
                SimDuration::ZERO,
            );
        }
        Ok(evicted)
    }

    /// Machines currently in the pool.
    pub fn machines(&self) -> impl Iterator<Item = &Machine> {
        self.by_name.values().map(|&i| &self.slot(i).machine)
    }

    /// Total free slots across accepting machines.
    pub fn free_slots(&self) -> u32 {
        self.accepting
            .iter()
            .map(|&i| self.slot(i).machine.slots_free)
            .sum()
    }

    /// Look up a machine by name.
    pub fn machine(&self, name: &str) -> Option<&Machine> {
        self.by_name
            .get(&MachineName(name.to_string()))
            .map(|&i| &self.slot(i).machine)
    }

    /// Mutable lookup — lets the data plane refresh a machine's
    /// advertisement (e.g. its cache-contents attribute) between cycles.
    /// Slot counts and draining state must go through the pool's own
    /// methods; only the ad may be touched here.
    pub fn machine_mut(&mut self, name: &str) -> Option<&mut Machine> {
        let &i = self.by_name.get(&MachineName(name.to_string()))?;
        let slot = self.slot_mut(i);
        slot.dirty = true;
        Some(&mut slot.machine)
    }

    /// Whether the named machine has a job executing right now. Unknown
    /// machines report `false` (nothing can be running there).
    pub fn machine_busy(&self, name: &str) -> bool {
        self.machine(name)
            .map(|m| m.busy_slots() > 0)
            .unwrap_or(false)
    }

    // ----- observables (autoscaling signals) --------------------------

    /// Total execution slots across all machines, draining or not.
    pub fn total_slots(&self) -> u32 {
        self.machines
            .iter()
            .flatten()
            .map(|s| s.machine.slots_total)
            .sum()
    }

    /// Slots currently executing a job.
    pub fn busy_slots(&self) -> u32 {
        self.machines
            .iter()
            .flatten()
            .map(|s| s.machine.busy_slots())
            .sum()
    }

    /// Fraction of slots busy, in `[0, 1]`. An empty pool reports 0.
    pub fn utilization(&self) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            self.busy_slots() as f64 / total as f64
        }
    }

    /// Number of running jobs.
    pub fn running_count(&self) -> usize {
        self.running
    }

    /// How long each idle job has been waiting as of `now`, in submission
    /// order. The distribution an autoscaler turns into wait-time
    /// percentiles.
    pub fn idle_waits(&self, now: SimTime) -> Vec<SimDuration> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Idle)
            .map(|j| now.since(j.submitted_at))
            .collect()
    }

    /// Queue latency (submission to most recent start) of every completed
    /// job, in submission order.
    pub fn completed_waits(&self) -> Vec<SimDuration> {
        self.history
            .values()
            .filter_map(|j| j.started_at.map(|s| s.since(j.submitted_at)))
            .collect()
    }

    /// Total evictions ever suffered by this pool's jobs — the retry
    /// volume a preemption-heavy substrate inflicts. Monotone; survives
    /// job completion.
    pub fn total_evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of jobs currently in the queue that have been evicted at
    /// least once (i.e. are on a retry).
    pub fn retried_jobs(&self) -> usize {
        self.retried
    }

    /// The worst per-job retry count in the queue — how badly the
    /// unluckiest job has been churned.
    pub fn max_evictions(&self) -> u32 {
        self.max_evictions_seen
    }

    /// Latest completion time over all completed jobs, if any.
    pub fn last_completion_at(&self) -> Option<SimTime> {
        self.last_completion
    }

    // ----- queue ------------------------------------------------------

    /// Submit a job.
    pub fn submit(&mut self, builder: JobBuilder, now: SimTime) -> JobId {
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;
        let mut job = builder.build(id, now);
        // Intern the job into its autocluster. Equal fingerprints mean
        // bitwise-identical (requirements, rank, ad) — evaluation is a
        // pure function of those plus the machine ad, so cluster-mates
        // are interchangeable to the matchmaker.
        let mut key = Vec::with_capacity(96);
        job.compiled_req.fingerprint_into(&mut key);
        job.compiled_rank.fingerprint_into(&mut key);
        job.ad.fingerprint_into(&mut key);
        let next = self.clusters.len() as u32;
        job.cluster = *self.clusters.entry(key).or_insert(next);
        self.idle_index_insert(&job.owner, id);
        self.jobs.insert(id, job);
        self.telemetry
            .span_open(now, "htc", span_keys::JOB_SUBMITTED, SpanKind::Job, id.0);
        id
    }

    /// Look up a job (live or retired).
    pub fn job(&self, id: JobId) -> Result<&Job, PoolError> {
        self.jobs
            .get(&id)
            .or_else(|| self.history.get(&id))
            .ok_or(PoolError::UnknownJob(id))
    }

    /// All jobs in a given state.
    pub fn jobs_in_state(&self, state: JobState) -> Vec<JobId> {
        // Completed jobs all live in the history map; every other state
        // lives in the hot map. Both iterate in submission (id) order.
        if state == JobState::Completed {
            return self.history.keys().copied().collect();
        }
        self.jobs
            .values()
            .filter(|j| j.state == state)
            .map(|j| j.id)
            .collect()
    }

    /// Number of idle jobs.
    pub fn idle_count(&self) -> usize {
        self.idle
    }

    /// Hold a job (no matching until released).
    pub fn hold(&mut self, id: JobId) -> Result<(), PoolError> {
        if !self.jobs.contains_key(&id) {
            // Retired jobs exist but are not Idle: a no-op, not an error.
            return self.job(id).map(|_| ());
        }
        let job = self.jobs.get_mut(&id).expect("checked above");
        if job.state == JobState::Idle {
            job.state = JobState::Held;
            let owner = job.owner.clone();
            self.idle_index_remove(&owner, id);
        }
        Ok(())
    }

    /// Hold a job with a stated reason (e.g. `retry backoff: attempt 2`).
    /// Behaves exactly like [`CondorPool::hold`]; the reason is readable
    /// via [`CondorPool::held_reason`] until the job is released.
    pub fn hold_with_reason(&mut self, id: JobId, reason: &str) -> Result<(), PoolError> {
        self.hold(id)?;
        if let Some(job) = self.jobs.get_mut(&id) {
            if job.state == JobState::Held {
                job.held_reason = Some(reason.to_string());
            }
        }
        Ok(())
    }

    /// Why a job is held, if it is held and a reason was recorded.
    pub fn held_reason(&self, id: JobId) -> Option<&str> {
        self.jobs.get(&id).and_then(|j| j.held_reason.as_deref())
    }

    /// Release a held job.
    pub fn release(&mut self, id: JobId) -> Result<(), PoolError> {
        if !self.jobs.contains_key(&id) {
            return self.job(id).map(|_| ());
        }
        let job = self.jobs.get_mut(&id).expect("checked above");
        if job.state == JobState::Held {
            job.state = JobState::Idle;
            job.held_reason = None;
            let owner = job.owner.clone();
            self.idle_index_insert(&owner, id);
        }
        Ok(())
    }

    /// Remove a job from the queue (frees its slot if running).
    pub fn remove_job(&mut self, id: JobId) -> Result<(), PoolError> {
        if !self.jobs.contains_key(&id) {
            // Removing a retired job un-completes it: pull it back into
            // the hot map as Removed, exactly like the pre-history
            // behaviour where Completed → Removed happened in place.
            let mut job = self.history.remove(&id).ok_or(PoolError::UnknownJob(id))?;
            job.state = JobState::Removed;
            job.running_on = None;
            job.finish_at = None;
            self.jobs.insert(id, job);
            self.last_completion = self.history.values().filter_map(|j| j.finish_at).max();
            return Ok(());
        }
        let job = self.jobs.get_mut(&id).expect("checked above");
        let prev_state = job.state;
        let owner = job.owner.clone();
        let was_on = job.running_on.take();
        if prev_state == JobState::Running {
            job.run_gen += 1;
        }
        job.state = JobState::Removed;
        job.finish_at = None;
        match prev_state {
            JobState::Running => {
                self.running -= 1;
                if let Some(name) = was_on {
                    if let Some(&i) = self.by_name.get(&name) {
                        let m = &mut self.slot_mut(i).machine;
                        m.slots_free += 1;
                        let newly_accepting = !m.draining && m.slots_free == 1;
                        if newly_accepting {
                            self.accepting_insert(i);
                        }
                    }
                }
            }
            JobState::Idle => self.idle_index_remove(&owner, id),
            _ => {}
        }
        Ok(())
    }

    /// Push a running job's completion out by `extra` — how stage-in time
    /// is charged: the match is made first (so the cycle's matches are
    /// known), then each matched job is extended by its staging plan.
    /// Returns the new finish time.
    pub fn extend_job(&mut self, id: JobId, extra: SimDuration) -> Result<SimTime, PoolError> {
        let Some(job) = self.jobs.get_mut(&id) else {
            // Retired jobs exist but are no longer running.
            return match self.history.contains_key(&id) {
                true => Err(PoolError::NotRunning(id)),
                false => Err(PoolError::UnknownJob(id)),
            };
        };
        if job.state != JobState::Running {
            return Err(PoolError::NotRunning(id));
        }
        let finish = job.finish_at.expect("running job has a finish time") + extra;
        job.finish_at = Some(finish);
        job.run_gen += 1;
        // Stage-in charged to the current run attempt: the phase lands at
        // the attempt's start time (same instant as its `job.matched`).
        let started = job.started_at.expect("running job has a start time");
        self.finish_heap.push(Reverse((finish, id, job.run_gen)));
        self.telemetry.span_phase(
            started,
            "htc",
            span_keys::JOB_STAGED,
            SpanKind::Job,
            id.0,
            extra,
        );
        Ok(finish)
    }

    // ----- matchmaking --------------------------------------------------

    /// Run one negotiation cycle at `now`; returns the matches made.
    ///
    /// Users are considered in fair-share order (least accumulated usage
    /// first); within a user, jobs go in submission order. Each idle job is
    /// offered the accepting machine that satisfies its requirements and
    /// maximizes its rank (ties broken by machine name for determinism).
    ///
    /// Execution-time model: a job runs at the machine's **full**
    /// `ComputeUnits` regardless of slot count — slots bound concurrency,
    /// not per-job speed. This matches the paper's single-job-per-node
    /// workloads (GP deploys one slot per worker); for multi-slot ablations
    /// it is an optimistic simplification.
    pub fn negotiate(&mut self, now: SimTime) -> Vec<Match> {
        let mut matches = Vec::new();

        // With no accepting machine nothing can match; skip the cycle.
        // (The old implementation still walked every idle job here.)
        if self.accepting.is_empty() {
            return matches;
        }

        // Refresh per-machine caches invalidated since the last cycle.
        for pos in 0..self.accepting.len() {
            let i = self.accepting[pos];
            let slot = self.slot_mut(i);
            if slot.dirty {
                slot.recompute();
            }
        }

        // Fair-share user ordering. The per-owner index keys are already
        // name-sorted and unique, so one stable sort by usage suffices
        // (the old path sorted, deduped, then sorted again).
        let mut users: Vec<String> = self.idle_by_owner.keys().cloned().collect();
        users.sort_by(|a, b| {
            let ua = self.usage.get(a).copied().unwrap_or(0.0);
            let ub = self.usage.get(b).copied().unwrap_or(0.0);
            ua.partial_cmp(&ub).unwrap().then_with(|| a.cmp(b))
        });

        let mut stack: Vec<Value> = Vec::with_capacity(8);

        // Per-cycle autocluster memo, indexed `[cluster][slab index]`:
        // a job's verdict and score against a machine depend only on its
        // cluster (bitwise-identical requirements/rank/ad) and the
        // machine's ad, and neither changes mid-cycle — so each
        // (cluster, machine) pair is evaluated at most once per cycle no
        // matter how many cluster-mates are queued. Inner vecs allocate
        // lazily, only for clusters that actually negotiate this cycle.
        const UNSEEN: u8 = 0;
        const NO_MATCH: u8 = 1;
        const SCORED: u8 = 2;
        let mut memo: Vec<Vec<(u8, f64)>> = vec![Vec::new(); self.clusters.len()];

        for user in users {
            // The pool can fill mid-cycle; the remaining idle jobs would
            // all scan an empty accepting list, so stop early.
            if self.accepting.is_empty() {
                return matches;
            }
            // Snapshot the owner's queue: ascending JobId = submission
            // order, matching the old full-table scan.
            let job_ids: Vec<JobId> = match self.idle_by_owner.get(&user) {
                Some(set) => set.iter().copied().collect(),
                None => continue,
            };
            for id in job_ids {
                if self.accepting.is_empty() {
                    return matches;
                }
                let job = &self.jobs[&id];
                let cluster_memo = &mut memo[job.cluster as usize];
                if cluster_memo.is_empty() {
                    cluster_memo.resize(self.machines.len(), (UNSEEN, 0.0));
                }
                // Pick the best accepting machine. The accepting list is
                // name-sorted, so keeping the first strict maximum
                // reproduces the old name-order tie-break exactly.
                let mut best: Option<(f64, usize)> = None;
                for pos in 0..self.accepting.len() {
                    let i = self.accepting[pos];
                    let score = match cluster_memo[i] {
                        (NO_MATCH, _) => continue,
                        (SCORED, s) => s,
                        _ => {
                            let slot = self.slot(i);
                            let m = &slot.machine;
                            if !job.compiled_req.eval_bool(&m.ad, &job.ad, &mut stack) {
                                cluster_memo[i] = (NO_MATCH, 0.0);
                                continue;
                            }
                            let mut score = job.compiled_rank.eval_rank(&m.ad, &job.ad, &mut stack);
                            if !job.input_cids.is_empty() && !slot.cache_cids.is_empty() {
                                let overlap = job
                                    .input_cids
                                    .iter()
                                    .filter(|c| slot.cache_cids.binary_search(c).is_ok())
                                    .count();
                                score += CACHE_AFFINITY_BONUS * overlap as f64;
                            }
                            debug_assert_eq!(
                                score,
                                job.rank.eval_rank(&m.ad, &job.ad) + cache_affinity(&m.ad, &job.ad),
                                "compiled negotiation diverged from the reference path"
                            );
                            cluster_memo[i] = (SCORED, score);
                            score
                        }
                    };
                    let better = match best {
                        None => true,
                        Some((s, _)) => score > s,
                    };
                    if better {
                        best = Some((score, pos));
                    }
                }
                let Some((_, pos)) = best else { continue };
                let i = self.accepting[pos];
                let slot = self.slot_mut(i);
                slot.machine.slots_free -= 1;
                let name = slot.machine.name.clone();
                let capacity = slot.capacity;
                if slot.machine.slots_free == 0 {
                    self.accepting.remove(pos);
                }
                let job = self.jobs.get_mut(&id).expect("exists");
                let duration = job.work.duration_on(capacity);
                job.state = JobState::Running;
                job.running_on = Some(name.clone());
                job.started_at = Some(now);
                job.finish_at = Some(now + duration);
                job.run_gen += 1;
                self.finish_heap
                    .push(Reverse((now + duration, id, job.run_gen)));
                self.idle_index_remove(&user, id);
                self.running += 1;
                self.telemetry.span_phase(
                    now,
                    "htc",
                    span_keys::JOB_MATCHED,
                    SpanKind::Job,
                    id.0,
                    SimDuration::ZERO,
                );
                matches.push(Match {
                    job: id,
                    machine: name,
                    finish_at: now + duration,
                });
            }
        }
        matches
    }

    /// True when a heap entry still describes a live execution: the job
    /// is in the hot map, still running, and on the generation the entry
    /// was pushed for (evictions / extensions / removals bump it).
    fn heap_entry_live(&self, id: JobId, gen: u64) -> bool {
        self.jobs
            .get(&id)
            .is_some_and(|j| j.state == JobState::Running && j.run_gen == gen)
    }

    /// Complete every running job whose finish time is at or before `now`;
    /// free slots, charge usage, and drop fully-drained machines. Returns
    /// the completed job ids.
    ///
    /// Cost is O(completions · log running): due entries are popped from
    /// the finish heap (stale generations discarded on the way), then
    /// processed in JobId order — the same order as the old full-table
    /// scan, which matters because per-user usage is accumulated in f64.
    pub fn settle(&mut self, now: SimTime) -> Vec<JobId> {
        let mut due: Vec<JobId> = Vec::new();
        while let Some(&Reverse((finish, id, gen))) = self.finish_heap.peek() {
            if finish > now {
                break;
            }
            self.finish_heap.pop();
            if self.heap_entry_live(id, gen) {
                due.push(id);
            }
        }
        due.sort_unstable();
        let mut completed = Vec::with_capacity(due.len());
        for id in due {
            let mut job = self.jobs.remove(&id).expect("due job is live");
            let finish = job.finish_at.expect("running job has a finish time");
            debug_assert!(finish <= now);
            job.state = JobState::Completed;
            completed.push(id);
            if let Some(started) = job.started_at {
                *self.usage.entry(job.owner.clone()).or_insert(0.0) +=
                    finish.since(started).as_secs_f64();
            }
            if let Some(name) = job.running_on.clone() {
                if let Some(&i) = self.by_name.get(&name) {
                    let m = &mut self.slot_mut(i).machine;
                    m.slots_free += 1;
                    let newly_accepting = !m.draining && m.slots_free == 1;
                    if newly_accepting {
                        self.accepting_insert(i);
                    }
                }
            }
            self.running -= 1;
            self.last_completion = Some(match self.last_completion {
                Some(prev) if prev > finish => prev,
                _ => finish,
            });
            self.telemetry
                .span_close(finish, "htc", span_keys::JOB_COMPLETED, SpanKind::Job, id.0);
            self.history.insert(id, job);
        }
        // Remove drained machines that are now idle (the draining counter
        // lets completion-only settles skip the sweep entirely).
        if self.draining_count > 0 {
            let drained: Vec<usize> = self
                .by_name
                .values()
                .copied()
                .filter(|&i| {
                    let m = &self.slot(i).machine;
                    m.draining && m.busy_slots() == 0
                })
                .collect();
            for i in drained {
                self.remove_slot(i);
            }
        }
        completed
    }

    /// When the named machine finishes its last running job, if any is
    /// running there (used when draining a specific host).
    pub fn machine_busy_until(&self, name: &str) -> Option<SimTime> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .filter(|j| j.running_on.as_ref().map(|m| m.0.as_str()) == Some(name))
            .filter_map(|j| j.finish_at)
            .max()
    }

    /// The earliest running-job completion, if any (for event scheduling).
    /// Scans the heap's backing store (skipping stale generations) so it
    /// stays `&self`; O(running + stale) like the old job-table scan.
    pub fn next_completion_at(&self) -> Option<SimTime> {
        self.finish_heap
            .iter()
            .filter(|&&Reverse((_, id, gen))| self.heap_entry_live(id, gen))
            .map(|&Reverse((finish, _, _))| finish)
            .min()
    }

    /// A user's accumulated usage in seconds.
    pub fn user_usage(&self, user: &str) -> f64 {
        self.usage.get(user).copied().unwrap_or(0.0)
    }

    /// The synchronous drain: negotiate, jump to the next completion,
    /// settle — from `start` until the queue drains. `on_settle` sees each
    /// settle's completed ids at their settle time; it may submit
    /// follow-on jobs into the pool, and returning `ControlFlow::Break`
    /// stops the drain there. Returns the time the drain stopped, or a
    /// typed [`PoolError::NotDrained`] when idle jobs remain with nothing
    /// running (no machine can match them).
    ///
    /// Termination needs no cycle budget: every iteration settles at least
    /// one job and `settle` never requeues, so the loop runs at most once
    /// per job submitted (the callback's follow-on jobs included).
    pub fn drain(
        &mut self,
        start: SimTime,
        mut on_settle: impl FnMut(&mut CondorPool, SimTime, Vec<JobId>) -> ControlFlow<()>,
    ) -> Result<SimTime, PoolError> {
        let mut now = start;
        loop {
            self.negotiate(now);
            let Some(next) = self.next_completion_at() else {
                return if self.idle_count() == 0 {
                    Ok(now)
                } else {
                    Err(PoolError::NotDrained {
                        idle: self.idle_count(),
                        running: self.running_count(),
                    })
                };
            };
            now = next;
            let done = self.settle(now);
            if on_settle(self, now, done).is_break() {
                return Ok(now);
            }
        }
    }

    /// [`drain`](CondorPool::drain) with nothing to do per settle: the
    /// time the queue drains, or `None` when idle jobs are unmatchable.
    pub fn run_until_drained(&mut self, start: SimTime) -> Option<SimTime> {
        self.try_run_until_drained(start).ok()
    }

    /// Like [`run_until_drained`](CondorPool::run_until_drained), but a
    /// failure to drain is a typed [`PoolError::NotDrained`] carrying the
    /// leftover queue state instead of a bare `None` the caller has to
    /// `.expect()` on.
    pub fn try_run_until_drained(&mut self, start: SimTime) -> Result<SimTime, PoolError> {
        self.drain(start, |_, _, _| ControlFlow::Continue(()))
    }
}

/// The pool's hookup to the disruption plane. A preemption or hardware
/// failure striking a machine removes it abruptly — its running jobs are
/// requeued (never dropped) with their retry counts bumped, and the
/// evicted ids are the effect so callers can renegotiate. A network
/// outage does not kill an execute node: the machine stops accepting new
/// matches for the window (modeled as draining) but keeps its jobs.
impl Disruptable for CondorPool {
    type Target = String;
    type Effect = Result<Vec<JobId>, PoolError>;

    fn disrupt(&mut self, now: SimTime, target: &String, kind: DisruptionKind) -> Self::Effect {
        match kind {
            DisruptionKind::Preemption | DisruptionKind::HardwareFailure => {
                self.remove_machine(target, now)
            }
            DisruptionKind::Outage => {
                self.drain_machine(target)?;
                Ok(Vec::new())
            }
        }
    }
}

/// Convenience duration: time between two negotiation cycles in a real
/// Condor deployment (the negotiator interval).
pub const NEGOTIATION_INTERVAL: SimDuration = SimDuration::from_secs(20);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::WorkSpec;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn small_machine(name: &str) -> Machine {
        Machine::new(name, 1.0, 1700, 1)
    }

    #[test]
    fn job_runs_and_completes() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w1")).unwrap();
        let id = pool.submit(Job::new("user1", WorkSpec::serial(60.0)), t(0));
        let matches = pool.negotiate(t(0));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].finish_at, t(60));
        assert_eq!(pool.job(id).unwrap().state, JobState::Running);
        assert_eq!(pool.settle(t(59)), Vec::<JobId>::new());
        assert_eq!(pool.settle(t(60)), vec![id]);
        assert_eq!(pool.job(id).unwrap().state, JobState::Completed);
        assert_eq!(pool.free_slots(), 1);
    }

    #[test]
    fn rank_prefers_fastest_machine() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("slow")).unwrap();
        pool.add_machine(Machine::new("fast", 2.2, 1700, 1))
            .unwrap();
        let work = WorkSpec {
            serial_secs: 224.0,
            cu_work: 418.0,
        };
        pool.submit(Job::new("user1", work), t(0));
        let m = pool.negotiate(t(0));
        assert_eq!(m[0].machine.0, "fast");
        // ≈ 6.9 minutes — the paper's scaled-up use case.
        let mins = m[0].finish_at.as_mins_f64();
        assert!((mins - 6.9).abs() < 0.05, "mins={mins}");
    }

    #[test]
    fn requirements_filter_machines() {
        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("tiny", 0.4, 613, 1)).unwrap();
        let id = pool.submit(
            Job::new("u", WorkSpec::serial(10.0)).requirements("Memory >= 1024"),
            t(0),
        );
        assert!(pool.negotiate(t(0)).is_empty());
        assert_eq!(pool.job(id).unwrap().state, JobState::Idle);
        pool.add_machine(Machine::new("big", 4.0, 7500, 1)).unwrap();
        let m = pool.negotiate(t(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].machine.0, "big");
    }

    #[test]
    fn slots_limit_concurrency() {
        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("w", 2.0, 4000, 2)).unwrap();
        for _ in 0..3 {
            pool.submit(Job::new("u", WorkSpec::serial(100.0)), t(0));
        }
        let matches = pool.negotiate(t(0));
        assert_eq!(matches.len(), 2, "two slots, two matches");
        assert_eq!(pool.idle_count(), 1);
        pool.settle(t(100));
        let matches = pool.negotiate(t(100));
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn fair_share_orders_users_by_usage() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w")).unwrap();
        // user1 consumes an hour first.
        let j1 = pool.submit(Job::new("user1", WorkSpec::serial(3600.0)), t(0));
        pool.negotiate(t(0));
        pool.settle(t(3600));
        assert_eq!(pool.job(j1).unwrap().state, JobState::Completed);
        // Both users queue a job; user2 (no usage) should win the slot.
        pool.submit(Job::new("user1", WorkSpec::serial(10.0)), t(3600));
        let j3 = pool.submit(Job::new("user2", WorkSpec::serial(10.0)), t(3600));
        let matches = pool.negotiate(t(3600));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].job, j3);
    }

    #[test]
    fn drain_defers_until_jobs_finish() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w")).unwrap();
        pool.submit(Job::new("u", WorkSpec::serial(50.0)), t(0));
        pool.negotiate(t(0));
        let removed_now = pool.drain_machine("w").unwrap();
        assert!(!removed_now, "busy machine keeps running");
        // No new matches while draining.
        pool.submit(Job::new("u", WorkSpec::serial(5.0)), t(1));
        assert!(pool.negotiate(t(1)).is_empty());
        pool.settle(t(50));
        assert_eq!(pool.machines().count(), 0, "machine left after drain");
    }

    #[test]
    fn preempted_machine_requeues_jobs_which_complete_elsewhere() {
        // The end-to-end requeue guarantee at the pool level: a disruption
        // strikes the machine, the in-flight job is requeued (not
        // dropped), retry counters are visible, and the job eventually
        // completes on a surviving machine.
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("spot-w")).unwrap();
        pool.add_machine(small_machine("od-w")).unwrap();
        let a = pool.submit(Job::new("u", WorkSpec::serial(100.0)), t(0));
        let b = pool.submit(Job::new("u", WorkSpec::serial(100.0)), t(0));
        pool.negotiate(t(0));
        assert_eq!(pool.running_count(), 2);

        let evicted = pool
            .disrupt(t(40), &"spot-w".to_string(), DisruptionKind::Preemption)
            .unwrap();
        assert_eq!(evicted.len(), 1, "one in-flight job requeued");
        assert_eq!(pool.total_evictions(), 1);
        assert_eq!(pool.retried_jobs(), 1);
        assert_eq!(pool.max_evictions(), 1);

        // The survivor finishes, the evicted job rematches and completes.
        pool.settle(t(100));
        pool.negotiate(t(100));
        pool.settle(t(200));
        assert_eq!(pool.job(a).unwrap().state, JobState::Completed);
        assert_eq!(pool.job(b).unwrap().state, JobState::Completed);
        // Lifetime counter survives completion; per-job counts persist.
        assert_eq!(pool.total_evictions(), 1);
        let churned = [a, b]
            .iter()
            .map(|id| pool.job(*id).unwrap().evictions)
            .sum::<u32>();
        assert_eq!(churned, 1);
    }

    #[test]
    fn outage_disruption_drains_instead_of_evicting() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w")).unwrap();
        let id = pool.submit(Job::new("u", WorkSpec::serial(50.0)), t(0));
        pool.negotiate(t(0));
        let evicted = pool
            .disrupt(t(10), &"w".to_string(), DisruptionKind::Outage)
            .unwrap();
        assert!(evicted.is_empty(), "outage keeps the running job");
        assert_eq!(pool.job(id).unwrap().state, JobState::Running);
        assert_eq!(pool.total_evictions(), 0);
        pool.settle(t(50));
        assert_eq!(pool.job(id).unwrap().state, JobState::Completed);
    }

    #[test]
    fn abrupt_removal_evicts_and_rematches() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w1")).unwrap();
        let id = pool.submit(Job::new("u", WorkSpec::serial(100.0)), t(0));
        pool.negotiate(t(0));
        let evicted = pool.remove_machine("w1", t(40)).unwrap();
        assert_eq!(evicted, vec![id]);
        let job = pool.job(id).unwrap();
        assert_eq!(job.state, JobState::Idle);
        assert_eq!(job.evictions, 1);
        // New machine picks it up; it restarts from scratch.
        pool.add_machine(small_machine("w2")).unwrap();
        let m = pool.negotiate(t(50));
        assert_eq!(m[0].finish_at, t(150));
    }

    #[test]
    fn hold_and_release() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w")).unwrap();
        let id = pool.submit(Job::new("u", WorkSpec::serial(5.0)), t(0));
        pool.hold(id).unwrap();
        assert!(pool.negotiate(t(0)).is_empty());
        pool.release(id).unwrap();
        assert_eq!(pool.negotiate(t(1)).len(), 1);
    }

    #[test]
    fn remove_job_frees_slot() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w")).unwrap();
        let id = pool.submit(Job::new("u", WorkSpec::serial(500.0)), t(0));
        pool.negotiate(t(0));
        assert_eq!(pool.free_slots(), 0);
        pool.remove_job(id).unwrap();
        assert_eq!(pool.free_slots(), 1);
        assert_eq!(pool.job(id).unwrap().state, JobState::Removed);
    }

    #[test]
    fn run_until_drained_processes_queue() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w")).unwrap();
        for _ in 0..5 {
            pool.submit(Job::new("u", WorkSpec::serial(10.0)), t(0));
        }
        let done = pool.run_until_drained(t(0)).expect("drains");
        assert_eq!(done, t(50), "serialized on one slot");
    }

    #[test]
    fn run_until_drained_reports_starvation() {
        let mut pool = CondorPool::new();
        pool.submit(Job::new("u", WorkSpec::serial(10.0)), t(0));
        assert_eq!(pool.run_until_drained(t(0)), None, "no machines");
    }

    #[test]
    fn duplicate_machine_rejected() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w")).unwrap();
        assert!(matches!(
            pool.add_machine(small_machine("w")),
            Err(PoolError::DuplicateMachine(_))
        ));
    }

    #[test]
    fn observables_track_pool_state() {
        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("a", 1.0, 1700, 2)).unwrap();
        pool.add_machine(small_machine("b")).unwrap();
        assert_eq!(pool.total_slots(), 3);
        assert_eq!(pool.busy_slots(), 0);
        assert_eq!(pool.utilization(), 0.0);
        for _ in 0..4 {
            pool.submit(Job::new("u", WorkSpec::serial(30.0)), t(0));
        }
        pool.negotiate(t(0));
        assert_eq!(pool.busy_slots(), 3);
        assert_eq!(pool.running_count(), 3);
        assert!((pool.utilization() - 1.0).abs() < 1e-12);
        assert!(pool.machine_busy("a"));
        assert!(!pool.machine_busy("nonexistent"));
        // One job still idle, waiting since t(0).
        let waits = pool.idle_waits(t(10));
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0], SimDuration::from_secs(10));
        pool.settle(t(30));
        assert_eq!(pool.completed_waits().len(), 3);
        assert_eq!(pool.last_completion_at(), Some(t(30)));
        assert_eq!(pool.utilization(), 0.0);
    }

    #[test]
    fn empty_pool_utilization_is_zero() {
        let pool = CondorPool::new();
        assert_eq!(pool.utilization(), 0.0);
        assert_eq!(pool.total_slots(), 0);
    }

    #[test]
    fn try_run_until_drained_reports_typed_error() {
        let mut pool = CondorPool::new();
        pool.submit(Job::new("u", WorkSpec::serial(10.0)), t(0));
        pool.submit(Job::new("u", WorkSpec::serial(10.0)), t(0));
        let err = pool.try_run_until_drained(t(0)).unwrap_err();
        assert_eq!(
            err,
            PoolError::NotDrained {
                idle: 2,
                running: 0
            }
        );
        // With a machine it succeeds like the untyped variant.
        pool.add_machine(small_machine("w")).unwrap();
        assert_eq!(pool.try_run_until_drained(t(0)), Ok(t(20)));
    }

    #[test]
    fn cache_affinity_prefers_warm_machine_only_when_advertised() {
        let mut pool = CondorPool::new();
        // "fast" would win on the default ComputeUnits rank.
        pool.add_machine(Machine::new("fast", 2.2, 1700, 1))
            .unwrap();
        let mut warm = Machine::new("warm", 1.0, 1700, 1);
        warm.ad.set(
            MACHINE_CACHE_CIDS_ATTR,
            Value::Str("00000000000000aa,00000000000000bb".into()),
        );
        pool.add_machine(warm).unwrap();

        // Without InputCids the job still lands on the fast machine.
        pool.submit(Job::new("u", WorkSpec::serial(10.0)), t(0));
        let m = pool.negotiate(t(0));
        assert_eq!(m[0].machine.0, "fast");
        pool.settle(t(10));

        // With a matching input cid the warm machine wins despite being
        // slower; a non-overlapping cid changes nothing.
        pool.submit(
            Job::new("u", WorkSpec::serial(10.0))
                .attr(JOB_INPUT_CIDS_ATTR, Value::Str("00000000000000bb".into())),
            t(10),
        );
        pool.submit(
            Job::new("u", WorkSpec::serial(10.0))
                .attr(JOB_INPUT_CIDS_ATTR, Value::Str("00000000000000cc".into())),
            t(10),
        );
        let m = pool.negotiate(t(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].machine.0, "warm", "overlap pulls the job over");
        assert_eq!(m[1].machine.0, "fast", "no overlap, default rank rules");
    }

    #[test]
    fn extend_job_pushes_finish_time() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w")).unwrap();
        let id = pool.submit(Job::new("u", WorkSpec::serial(60.0)), t(0));
        assert_eq!(
            pool.extend_job(id, SimDuration::from_secs(5)),
            Err(PoolError::NotRunning(id)),
            "idle jobs cannot be extended"
        );
        pool.negotiate(t(0));
        let finish = pool.extend_job(id, SimDuration::from_secs(15)).unwrap();
        assert_eq!(finish, t(75));
        assert!(pool.settle(t(60)).is_empty(), "not done at the old time");
        assert_eq!(pool.settle(t(75)), vec![id]);
        assert_eq!(
            pool.extend_job(JobId(99), SimDuration::ZERO),
            Err(PoolError::UnknownJob(JobId(99)))
        );
    }

    #[test]
    fn telemetry_spans_cover_the_job_lifecycle() {
        use cumulus_simkit::telemetry::{assemble, JobBreakdown};

        let tel = Telemetry::enabled();
        let mut pool = CondorPool::new();
        pool.set_telemetry(tel.clone());
        pool.add_machine(small_machine("w1")).unwrap();
        let id = pool.submit(Job::new("u", WorkSpec::serial(100.0)), t(0));
        pool.negotiate(t(20));
        pool.extend_job(id, SimDuration::from_secs(30)).unwrap();
        // Eviction requeues; the retry completes on a second machine.
        pool.remove_machine("w1", t(50)).unwrap();
        pool.add_machine(small_machine("w2")).unwrap();
        pool.negotiate(t(60));
        pool.settle(t(160));

        let spans = assemble(&tel.events()).expect("well-formed span events");
        assert_eq!(spans.len(), 1);
        let b = JobBreakdown::of(&spans[0]).unwrap();
        assert_eq!(b.queue, SimDuration::from_secs(20));
        assert_eq!(b.repair, SimDuration::from_secs(40), "lost run + requeue");
        assert_eq!(b.staging, SimDuration::ZERO, "staging died with attempt 1");
        assert_eq!(b.compute, SimDuration::from_secs(100));
        assert_eq!(b.total(), spans[0].duration());
    }

    #[test]
    fn next_completion_tracks_earliest() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("a")).unwrap();
        pool.add_machine(small_machine("b")).unwrap();
        pool.submit(Job::new("u", WorkSpec::serial(30.0)), t(0));
        pool.submit(Job::new("u", WorkSpec::serial(10.0)), t(0));
        pool.negotiate(t(0));
        assert_eq!(pool.next_completion_at(), Some(t(10)));
    }
}
