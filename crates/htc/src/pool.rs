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
use crate::idle::IdleOrder;
use crate::job::{Job, JobBuilder, JobId, JobState};
use crate::machine::{Machine, MachineId, MachineName};
use crate::signature::Autoclusters;

/// Job-ad attribute listing the job's input content ids, comma-joined
/// (data-aware scheduling; unset = no affinity). Each id is exactly 16
/// lowercase hex digits, the form `ContentId::hex` writes; any other
/// token (empty, uppercase, shorter, longer) never counts as an overlap.
pub const JOB_INPUT_CIDS_ATTR: &str = "InputCids";

/// Machine-ad attribute listing the contents of the worker's data cache
/// in the same format and under the same 16-lowercase-hex token rule.
/// Refreshed by the data plane after staging.
pub const MACHINE_CACHE_CIDS_ATTR: &str = "CacheCids";

/// Rank bonus per cached input. Large enough to dominate the default
/// `ComputeUnits` rank (single digits), so a cache-warm slow node beats a
/// cache-cold fast one; explicit user rank expressions can still swamp it.
pub const CACHE_AFFINITY_BONUS: f64 = 1000.0;

/// Parse one content-id token of [`JOB_INPUT_CIDS_ATTR`] or
/// [`MACHINE_CACHE_CIDS_ATTR`]: exactly 16 lowercase hex digits, else
/// `None`. Zero-padded lowercase hex orders like the `u64` it encodes,
/// so ascending id lists stay ascending either way.
pub fn parse_cid(token: &str) -> Option<u64> {
    parse_digits(token.as_bytes().try_into().ok()?)
}

/// Marks a byte that is not a lowercase hex digit in [`NIBBLE`].
const NOT_HEX: u8 = 0x10;

/// Each byte's value as a lowercase hex digit, or [`NOT_HEX`].
const NIBBLE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut d = 0;
    while d < 16 {
        let digit = if d < 10 { b'0' + d } else { b'a' + d - 10 };
        table[digit as usize] = d;
        d += 1;
    }
    table
};

/// The id 16 digits spell, if all are lowercase hex. Every digit goes
/// through [`NIBBLE`] and ORs its error bit, with no exit on the way.
fn parse_digits(digits: &[u8; 16]) -> Option<u64> {
    let mut id = 0u64;
    let mut seen = 0u8;
    for &b in digits {
        let nibble = NIBBLE[b as usize];
        seen |= nibble;
        id = id << 4 | u64::from(nibble & 0xf);
    }
    (seen & NOT_HEX == 0).then_some(id)
}

/// Replace `ids` with the well-formed ids of a comma-joined token list,
/// sorted and deduplicated: what `text.split(',').filter_map(parse_cid)`
/// yields, as a set. Text in the canonical form the data plane writes
/// (16 digits, then a comma, and so on) is read at a fixed stride, and
/// ids that come out strictly ascending need no sort; any other text
/// goes token by token.
pub fn parse_cid_set(text: &str, ids: &mut Vec<u64>) {
    ids.clear();
    let bytes = text.as_bytes();
    let mut ascending = true;
    let mut canonical = (bytes.len() + 1).is_multiple_of(17);
    if canonical {
        for token in bytes.chunks(17) {
            let (digits, comma) = token.split_at(16);
            canonical &= comma.first().is_none_or(|&c| c == b',');
            match parse_digits(digits.try_into().expect("a 16-byte head")) {
                Some(id) => {
                    ascending &= ids.last().is_none_or(|&last| last < id);
                    ids.push(id);
                }
                None => canonical = false,
            }
        }
    }
    if !canonical {
        ids.clear();
        ids.extend(text.split(',').filter_map(parse_cid));
        ascending = false;
    }
    if !ascending {
        ids.sort_unstable();
        ids.dedup();
    }
}

/// The data-affinity term added to a job's rank for a machine: the bonus
/// times the number of the job's input tokens (duplicates included) that
/// are well-formed ids ([`parse_cid`]) and appear in the machine's cache.
/// Zero whenever either side leaves its attribute unset, so pools that
/// never advertise content ids negotiate exactly as before.
///
/// This is the reference definition; the negotiator itself counts overlap
/// against ids parsed to `u64` once per ad change (a `debug_assert` keeps
/// them in lockstep).
fn cache_affinity(machine_ad: &ClassAd, job_ad: &ClassAd) -> f64 {
    let Value::Str(inputs) = job_ad.get(JOB_INPUT_CIDS_ATTR) else {
        return 0.0;
    };
    let Value::Str(cached) = machine_ad.get(MACHINE_CACHE_CIDS_ATTR) else {
        return 0.0;
    };
    let cached: BTreeSet<&str> = cached.split(',').collect();
    let overlap = inputs
        .split(',')
        .filter(|c| parse_cid(c).is_some() && cached.contains(c))
        .count();
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

/// Interned symbol for [`JOB_INPUT_CIDS_ATTR`].
pub(crate) fn sym_input_cids() -> Symbol {
    static S: OnceLock<Symbol> = OnceLock::new();
    *S.get_or_init(|| Symbol::intern(JOB_INPUT_CIDS_ATTR))
}

/// Interned symbol for the job ad's `Owner` attribute.
pub(crate) fn sym_owner() -> Symbol {
    static S: OnceLock<Symbol> = OnceLock::new();
    *S.get_or_init(|| Symbol::intern("Owner"))
}

/// A machine plus the negotiator's per-machine caches, stored in a slab
/// slot. The caches are derived from the machine ad and recomputed lazily
/// when [`CondorPool::machine_mut`] (or `add_machine`) marks them dirty.
#[derive(Debug)]
struct MachineSlot {
    machine: Machine,
    /// The machine's name in the pool's name table.
    id: MachineId,
    /// `ComputeUnits` from the ad (Float/Int, else 1.0), read once per
    /// dirty cycle instead of once per accepted match.
    capacity: f64,
    /// Sorted, deduplicated well-formed `CacheCids` ids for binary-search
    /// overlap counting. Empty when the attribute is unset / not a string
    /// / holds no well-formed id.
    cache_cids: Vec<u64>,
    /// The `CacheCids` text `cache_cids` was parsed from (empty when the
    /// attribute is unset or not a string, which parses to no ids too).
    /// A re-advertisement after a local cache hit carries the same text,
    /// so `recompute` compares before it re-parses.
    cache_text: String,
    /// Set when the ad may have changed; cleared by `recompute`.
    dirty: bool,
}

impl MachineSlot {
    fn new(machine: Machine, id: MachineId) -> Self {
        let mut slot = MachineSlot {
            machine,
            id,
            capacity: 1.0,
            cache_cids: Vec::new(),
            cache_text: String::new(),
            dirty: true,
        };
        slot.recompute();
        slot
    }

    fn recompute(&mut self) {
        self.capacity = match self.machine.ad.lookup(sym_compute_units()) {
            Some(&Value::Float(f)) => f,
            Some(&Value::Int(i)) => i as f64,
            _ => 1.0,
        };
        let text = match self.machine.ad.lookup(sym_cache_cids()) {
            Some(Value::Str(s)) => s.as_str(),
            _ => "",
        };
        if text != self.cache_text {
            self.cache_text.clear();
            self.cache_text.push_str(text);
            parse_cid_set(text, &mut self.cache_cids);
        }
        self.dirty = false;
    }
}

/// Every machine name the pool has held, append-only. A name keeps the
/// [`MachineId`] it got when it first joined, so a job records its
/// machine in four bytes, and a retired job still names its machine
/// after the machine has left and its slab slot has been reused.
#[derive(Debug, Default)]
struct MachineNames {
    /// Per id: the name, and the slab index of the live machine that
    /// bears it (`None` while no machine of that name is in the pool).
    entries: Vec<(MachineName, Option<usize>)>,
    ids: HashMap<MachineName, MachineId>,
}

impl MachineNames {
    /// The id of `name`, issuing the next one on first sight.
    fn intern(&mut self, name: &MachineName) -> MachineId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = MachineId::from_index(self.entries.len());
        self.entries.push((name.clone(), None));
        self.ids.insert(name.clone(), id);
        id
    }

    fn id(&self, name: &str) -> Option<MachineId> {
        self.ids.get(name).copied()
    }

    fn name(&self, id: MachineId) -> &MachineName {
        &self.entries[id.index()].0
    }

    /// The slab index of the live machine named by `id`, if any.
    fn slab(&self, id: MachineId) -> Option<usize> {
        self.entries[id.index()].1
    }

    fn set_slab(&mut self, id: MachineId, slab: Option<usize>) {
        self.entries[id.index()].1 = slab;
    }
}

/// A job owner, interned to a dense index at first submission: the
/// fair-share state and idle queue the negotiator reads every cycle.
#[derive(Debug)]
struct Owner {
    name: String,
    /// Accumulated usage seconds (drives fair-share ordering).
    usage: f64,
    /// Idle job ids, ascending (= submission order).
    idle: BTreeSet<JobId>,
}

/// An entry in the finish-time min-heap: `(finish, job, run_gen)`.
/// Generation counting (mirroring the simkit slab queue) makes eviction,
/// removal, and deadline extension O(1): the job's `run_gen` is bumped and
/// the orphaned entry is skipped when popped.
type FinishEntry = Reverse<(SimTime, JobId, u32)>;

/// A (cluster, machine) verdict not yet evaluated this cycle.
const UNSEEN: u8 = 0;
/// The machine fails the cluster's requirements.
const NO_MATCH: u8 = 1;
/// The machine satisfies them; the score is the rank plus cache bonus.
const SCORED: u8 = 2;

/// The negotiator's autocluster memo, indexed `[row][slab index]`: a
/// job's verdict and score against a machine depend only on its cluster
/// (one shared signature) and the machine's ad, and
/// neither changes mid-cycle — so each (cluster, machine) pair is
/// evaluated at most once per cycle however many cluster-mates queue.
///
/// Rows are handed out per cycle, only to clusters a job of the cycle is
/// examined for: `stamp[cluster]` is `(cycle, row)`, and a stamp from an
/// earlier cycle is as good as none, so no verdict outlives its cycle.
/// A cycle therefore costs O(jobs examined), not O(autoclusters ever
/// interned) — which grow with every fresh input set a job advertises.
#[derive(Debug, Default)]
struct NegotiationMemo {
    /// Cycles begun so far (the current cycle's stamp; 0 = never).
    cycle: u64,
    /// Per autocluster: the cycle it last got a row in, and that row.
    stamp: Vec<(u64, u32)>,
    /// Row storage, reused across cycles; the first `used` are live.
    rows: Vec<Vec<(u8, f64)>>,
    /// Rows handed out this cycle.
    used: usize,
}

impl NegotiationMemo {
    /// Start a cycle over `clusters` interned autoclusters.
    fn begin_cycle(&mut self, clusters: usize) {
        self.cycle += 1;
        self.used = 0;
        self.stamp.resize(clusters, (0, 0));
    }

    /// The cluster's row for this cycle, every verdict [`UNSEEN`] on first
    /// use, sized for a slab of `machines` slots.
    fn row(&mut self, cluster: u32, machines: usize) -> &mut [(u8, f64)] {
        let (cycle, row) = &mut self.stamp[cluster as usize];
        if *cycle != self.cycle {
            *cycle = self.cycle;
            *row = self.used as u32;
            if self.used == self.rows.len() {
                self.rows.push(Vec::new());
            }
            let fresh = &mut self.rows[self.used];
            fresh.clear();
            fresh.resize(machines, (UNSEEN, 0.0));
            self.used += 1;
        }
        &mut self.rows[*row as usize]
    }
}

/// Completed jobs by id: slot `id − 1` holds job `id` once it completes
/// (`None` while it is live, or after a retired job is removed).
///
/// Ids are dense from 1, so a table indexed by id wastes no slots, and a
/// slot costs one `Job` (the signature `Arc` gives `Option` a niche); a
/// B-tree filled in id order leaves its leaves half full, twice the bytes
/// per job. The table grows in fixed pages rather than one doubling
/// vector: pages of one size are reused whole from one episode to the
/// next, where a vector's ever larger reallocations leave the heap
/// fragmented and raise the peak of long runs.
#[derive(Debug, Default)]
struct RetiredJobs {
    pages: Vec<Box<[Option<Job>]>>,
}

const _: () = assert!(std::mem::size_of::<Option<Job>>() == std::mem::size_of::<Job>());

impl RetiredJobs {
    /// Jobs per page (48 KB of 96-byte records).
    const PAGE: usize = 512;

    /// The page and slot of `id`. Id 0 is never issued and has none.
    fn slot(id: JobId) -> Option<(usize, usize)> {
        let i = usize::try_from(id.0.checked_sub(1)?).ok()?;
        Some((i / Self::PAGE, i % Self::PAGE))
    }

    fn get(&self, id: JobId) -> Option<&Job> {
        let (page, slot) = Self::slot(id)?;
        self.pages.get(page)?[slot].as_ref()
    }

    fn take(&mut self, id: JobId) -> Option<Job> {
        let (page, slot) = Self::slot(id)?;
        self.pages.get_mut(page)?[slot].take()
    }

    fn insert(&mut self, job: Job) {
        let (page, slot) = Self::slot(job.id).expect("issued job ids start at 1");
        while self.pages.len() <= page {
            self.pages.push((0..Self::PAGE).map(|_| None).collect());
        }
        self.pages[page][slot] = Some(job);
    }

    /// Retired jobs in id order.
    fn iter(&self) -> impl Iterator<Item = &Job> {
        self.pages.iter().flat_map(|page| page.iter().flatten())
    }
}

/// The central manager's state.
///
/// Internally the pool is fully indexed so a negotiation cycle never
/// rescans the job table: idle jobs are queued per owner in submission
/// order (`owners`) and all together by submission time (`idle_order`,
/// for wait percentiles), accepting machines live in a name-sorted list
/// updated on every slot/draining transition (`accepting`), running jobs
/// sit in a generation-counted finish-time min-heap (`finish_heap`), and
/// completed jobs retire out of the hot map into `history`, a paged
/// table indexed by job id. All user-visible orderings (match order,
/// settle order, usage-charge order) are identical to the original
/// scan-everything implementation — the differential suite in
/// `tests/matchmaker_differential.rs` holds the two to the same answers.
#[derive(Debug, Default)]
pub struct CondorPool {
    /// Live jobs: idle, running, held, and removed. Completed jobs move
    /// to `history`.
    jobs: BTreeMap<JobId, Job>,
    /// Completed jobs, retired out of the hot map.
    history: RetiredJobs,
    /// Why a live job was held, for jobs held with a reason: set by
    /// `hold_with_reason`, cleared on release, kept through removal.
    held_reasons: BTreeMap<JobId, String>,
    /// Machine slab; `None` slots are free for reuse.
    machines: Vec<Option<MachineSlot>>,
    /// Name → slab index (name-ordered iteration).
    by_name: BTreeMap<MachineName, usize>,
    /// Every name ever added, by id; jobs record their machine by id.
    names: MachineNames,
    /// Reusable slab indices.
    free_list: Vec<usize>,
    /// Slab indices of machines with a free slot and not draining,
    /// sorted by machine name (the negotiator's scan order).
    accepting: Vec<usize>,
    /// Every owner ever seen, by dense index.
    owners: Vec<Owner>,
    /// Owner name → index into `owners`.
    owner_ix: HashMap<String, u32>,
    /// Owners with at least one idle job, unordered.
    idle_owners: Vec<u32>,
    /// Fair-share order of `idle_owners`, rebuilt each cycle in place.
    owner_order: Vec<u32>,
    /// Every idle job by (submission time, id); its length is the idle
    /// count.
    idle_order: IdleOrder,
    /// Finish-time min-heap over running jobs (may hold stale entries).
    finish_heap: BinaryHeap<FinishEntry>,
    next_job_id: u64,
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
    /// Running jobs, maintained on every state transition.
    running: usize,
    /// Machines currently draining (guards the settle sweep).
    draining_count: usize,
    /// Autocluster interning table: one shared signature per distinct
    /// job shape ever submitted (Condor's autoclusters exploit the same
    /// redundancy). It grows with every fresh input set, so no per-cycle
    /// cost may scale with it.
    clusters: Autoclusters,
    /// Per-cycle (cluster, machine) verdicts, stamped so none outlives
    /// the cycle that computed it.
    memo: NegotiationMemo,
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
    fn accepting_pos(&self, name: &str) -> Result<usize, usize> {
        self.accepting
            .binary_search_by(|&i| self.slot(i).machine.name.0.as_str().cmp(name))
    }

    fn slot(&self, i: usize) -> &MachineSlot {
        self.machines[i].as_ref().expect("live slab index")
    }

    fn slot_mut(&mut self, i: usize) -> &mut MachineSlot {
        self.machines[i].as_mut().expect("live slab index")
    }

    /// Insert `i` into the accepting list (no-op if already present).
    fn accepting_insert(&mut self, i: usize) {
        if let Err(pos) = self.accepting_pos(&self.slot(i).machine.name.0) {
            self.accepting.insert(pos, i);
        }
    }

    /// Remove the machine named `name` from the accepting list, if present.
    fn accepting_remove(&mut self, name: &str) {
        if let Ok(pos) = self.accepting_pos(name) {
            self.accepting.remove(pos);
        }
    }

    /// The dense index of the owner named `name`, interning it on first
    /// sight.
    fn intern_owner(&mut self, name: &str) -> u32 {
        if let Some(&o) = self.owner_ix.get(name) {
            return o;
        }
        let o = self.owners.len() as u32;
        self.owners.push(Owner {
            name: name.to_string(),
            usage: 0.0,
            idle: BTreeSet::new(),
        });
        self.owner_ix.insert(name.to_string(), o);
        o
    }

    /// Queue an idle job in its owner's queue and the idle order index.
    /// Every transition into the idle set goes through here.
    fn idle_index_insert(&mut self, owner: u32, submitted_at: SimTime, id: JobId) {
        let queue = &mut self.owners[owner as usize].idle;
        if queue.is_empty() {
            self.idle_owners.push(owner);
        }
        queue.insert(id);
        self.idle_order.insert((submitted_at, id));
    }

    /// Drop an idle job from both indexes. Every transition out of the
    /// idle set goes through here.
    fn idle_index_remove(&mut self, owner: u32, submitted_at: SimTime, id: JobId) {
        let queue = &mut self.owners[owner as usize].idle;
        queue.remove(&id);
        if queue.is_empty() {
            let pos = self
                .idle_owners
                .iter()
                .position(|&o| o == owner)
                .expect("an owner with idle jobs is listed");
            self.idle_owners.swap_remove(pos);
        }
        self.idle_order.remove((submitted_at, id));
    }

    /// Free a slab slot and every index that referenced it.
    fn remove_slot(&mut self, i: usize) -> MachineSlot {
        let name = self.slot(i).machine.name.clone();
        self.accepting_remove(&name.0);
        self.by_name.remove(&name);
        let slot = self.machines[i].take().expect("live slab index");
        self.names.set_slab(slot.id, None);
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
        let id = self.names.intern(&name);
        let accepting = m.accepting();
        let draining = m.draining;
        let slot = MachineSlot::new(m, id);
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
        self.names.set_slab(id, Some(i));
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
        let &i = self
            .by_name
            .get(name)
            .ok_or_else(|| PoolError::UnknownMachine(name.to_string()))?;
        let m = &mut self.slot_mut(i).machine;
        let was_draining = m.draining;
        m.draining = true;
        let idle_now = m.busy_slots() == 0;
        self.accepting_remove(name);
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
        let Some(&i) = self.by_name.get(name) else {
            return Err(PoolError::UnknownMachine(name.to_string()));
        };
        // A job runs on a machine only while it holds one of its slots, so
        // a machine with none busy has nothing to evict.
        let busy = self.slot(i).machine.busy_slots() > 0;
        let id = self.remove_slot(i).id;
        if !busy {
            return Ok(Vec::new());
        }
        let mut evicted = Vec::new();
        let mut requeue = Vec::new();
        for job in self.jobs.values_mut() {
            if job.state == JobState::Running && job.machine == Some(id) {
                job.state = JobState::Idle;
                job.machine = None;
                job.finish_at = None;
                Self::note_eviction(
                    job,
                    &mut self.evictions,
                    &mut self.retried,
                    &mut self.max_evictions_seen,
                );
                // Charge the user for the wasted time.
                if let Some(started) = job.started_at.take() {
                    self.owners[job.owner_ix as usize].usage += now.since(started).as_secs_f64();
                }
                requeue.push((job.owner_ix, job.submitted_at, job.id));
                evicted.push(job.id);
            }
        }
        for (owner, submitted_at, id) in requeue {
            self.idle_index_insert(owner, submitted_at, id);
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
        self.by_name.get(name).map(|&i| &self.slot(i).machine)
    }

    /// Mutable lookup — lets the data plane refresh a machine's
    /// advertisement (e.g. its cache-contents attribute) between cycles.
    /// Slot counts and draining state must go through the pool's own
    /// methods; only the ad may be touched here.
    pub fn machine_mut(&mut self, name: &str) -> Option<&mut Machine> {
        let &i = self.by_name.get(name)?;
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
    /// percentiles; it walks the job table, so per-tick readers use
    /// [`idle_submitted_at_rank`](CondorPool::idle_submitted_at_rank).
    pub fn idle_waits(&self, now: SimTime) -> impl Iterator<Item = SimDuration> + '_ {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Idle)
            .map(move |j| now.since(j.submitted_at))
    }

    /// The submission time at ascending rank `k` among idle jobs (0 = the
    /// earliest submitted, longest waiting), or `None` when `k` is not
    /// below [`idle_count`](CondorPool::idle_count). Equal times count
    /// once each. Waits fall as submission times rise, so the k-th
    /// shortest wait at `now` is `now.since(t)` for `t` at rank
    /// `idle_count() - 1 - k`. Cost: a walk over the index's blocks of
    /// a few hundred jobs each, not over the queue.
    pub fn idle_submitted_at_rank(&self, k: usize) -> Option<SimTime> {
        self.idle_order.submitted_at_rank(k)
    }

    /// Queue latency (submission to most recent start) of every completed
    /// job, in submission order.
    pub fn completed_waits(&self) -> Vec<SimDuration> {
        self.history
            .iter()
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
        // Intern the job into its autocluster: bitwise-equal (requirements,
        // rank, ad) share one signature. Evaluation is a pure function of
        // those plus the machine ad, so cluster-mates are interchangeable
        // to the matchmaker.
        let (work, requirements, rank, ad) = builder.into_parts();
        let (cluster, sig) = self.clusters.intern(requirements, rank, ad);
        let owner_ix = self.intern_owner(sig.owner());
        self.idle_index_insert(owner_ix, now, id);
        let job = Job::submitted(id, now, work, cluster, owner_ix, sig);
        self.jobs.insert(id, job);
        self.telemetry
            .span_open(now, "htc", span_keys::JOB_SUBMITTED, SpanKind::Job, id.0);
        id
    }

    /// Look up a job (live or retired).
    pub fn job(&self, id: JobId) -> Result<&Job, PoolError> {
        self.jobs
            .get(&id)
            .or_else(|| self.history.get(id))
            .ok_or(PoolError::UnknownJob(id))
    }

    /// The machine `job` is running on, or ran to completion on; `None`
    /// while it is idle, held or removed, and after an eviction. A
    /// retired job still names its machine after that machine has left
    /// the pool. `job` must be one of this pool's jobs.
    pub fn running_on(&self, job: &Job) -> Option<&MachineName> {
        job.machine.map(|id| self.names.name(id))
    }

    /// All jobs in a given state.
    pub fn jobs_in_state(&self, state: JobState) -> Vec<JobId> {
        // Completed jobs all live in the history table; every other state
        // lives in the hot map. Both iterate in submission (id) order.
        if state == JobState::Completed {
            return self.history.iter().map(|j| j.id).collect();
        }
        self.jobs
            .values()
            .filter(|j| j.state == state)
            .map(|j| j.id)
            .collect()
    }

    /// Number of idle jobs.
    pub fn idle_count(&self) -> usize {
        self.idle_order.len()
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
            let (owner, submitted_at) = (job.owner_ix, job.submitted_at);
            self.idle_index_remove(owner, submitted_at, id);
        }
        Ok(())
    }

    /// Hold a job with a stated reason (e.g. `retry backoff: attempt 2`).
    /// Behaves exactly like [`CondorPool::hold`]; the reason is readable
    /// via [`CondorPool::held_reason`] until the job is released.
    pub fn hold_with_reason(&mut self, id: JobId, reason: &str) -> Result<(), PoolError> {
        self.hold(id)?;
        if self
            .jobs
            .get(&id)
            .is_some_and(|j| j.state == JobState::Held)
        {
            self.held_reasons.insert(id, reason.to_string());
        }
        Ok(())
    }

    /// Why a job is held, if it is held and a reason was recorded.
    pub fn held_reason(&self, id: JobId) -> Option<&str> {
        self.held_reasons.get(&id).map(String::as_str)
    }

    /// Release a held job.
    pub fn release(&mut self, id: JobId) -> Result<(), PoolError> {
        if !self.jobs.contains_key(&id) {
            return self.job(id).map(|_| ());
        }
        let job = self.jobs.get_mut(&id).expect("checked above");
        if job.state == JobState::Held {
            job.state = JobState::Idle;
            let (owner, submitted_at) = (job.owner_ix, job.submitted_at);
            self.held_reasons.remove(&id);
            self.idle_index_insert(owner, submitted_at, id);
        }
        Ok(())
    }

    /// Remove a job from the queue (frees its slot if running).
    pub fn remove_job(&mut self, id: JobId) -> Result<(), PoolError> {
        if !self.jobs.contains_key(&id) {
            // Removing a retired job un-completes it: pull it back into
            // the hot map as Removed, exactly like the pre-history
            // behaviour where Completed → Removed happened in place.
            let mut job = self.history.take(id).ok_or(PoolError::UnknownJob(id))?;
            job.state = JobState::Removed;
            job.machine = None;
            let finished = job.finish_at.take();
            self.jobs.insert(id, job);
            // Only the latest finisher's removal can lower the maximum.
            if finished == self.last_completion {
                self.last_completion = self.history.iter().filter_map(|j| j.finish_at).max();
            }
            return Ok(());
        }
        let job = self.jobs.get_mut(&id).expect("checked above");
        let prev_state = job.state;
        let (owner, submitted_at) = (job.owner_ix, job.submitted_at);
        let was_on = job.machine.take();
        if prev_state == JobState::Running {
            job.run_gen += 1;
        }
        job.state = JobState::Removed;
        job.finish_at = None;
        match prev_state {
            JobState::Running => {
                self.running -= 1;
                if let Some(machine) = was_on {
                    if let Some(i) = self.names.slab(machine) {
                        let m = &mut self.slot_mut(i).machine;
                        m.slots_free += 1;
                        let newly_accepting = !m.draining && m.slots_free == 1;
                        if newly_accepting {
                            self.accepting_insert(i);
                        }
                    }
                }
            }
            JobState::Idle => self.idle_index_remove(owner, submitted_at, id),
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
            return match self.history.get(id).is_some() {
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

        // Fair-share user ordering: least usage first, ties by name. Names
        // are unique, so the order is total and neither the sort's
        // stability nor the unordered `idle_owners` can show through.
        let mut users = std::mem::take(&mut self.owner_order);
        users.clear();
        users.extend_from_slice(&self.idle_owners);
        let owners = &self.owners;
        users.sort_unstable_by(|&a, &b| {
            let (a, b) = (&owners[a as usize], &owners[b as usize]);
            a.usage
                .partial_cmp(&b.usage)
                .expect("usage is a sum of durations, never NaN")
                .then_with(|| a.name.cmp(&b.name))
        });

        let mut stack: Vec<Value> = Vec::with_capacity(8);
        // Taken out of the pool for the cycle so slab reads can borrow it.
        let mut memo = std::mem::take(&mut self.memo);
        memo.begin_cycle(self.clusters.len());

        'users: for &user in &users {
            // The pool can fill mid-cycle; the remaining idle jobs would
            // all scan an empty accepting list, so stop early.
            if self.accepting.is_empty() {
                break;
            }
            // Snapshot the owner's queue: ascending JobId = submission
            // order, matching the old full-table scan.
            let job_ids: Vec<JobId> = self.owners[user as usize].idle.iter().copied().collect();
            for id in job_ids {
                if self.accepting.is_empty() {
                    break 'users;
                }
                let job = &self.jobs[&id];
                let sig = &*job.sig;
                let program = &*sig.program;
                let cluster_memo = memo.row(job.cluster, self.machines.len());
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
                            if !program.compiled_req.eval_bool(&m.ad, &sig.ad, &mut stack) {
                                cluster_memo[i] = (NO_MATCH, 0.0);
                                continue;
                            }
                            let mut score =
                                program.compiled_rank.eval_rank(&m.ad, &sig.ad, &mut stack);
                            if !sig.input_cids.is_empty() && !slot.cache_cids.is_empty() {
                                let overlap = sig
                                    .input_cids
                                    .iter()
                                    .filter(|&c| slot.cache_cids.binary_search(c).is_ok())
                                    .count();
                                score += CACHE_AFFINITY_BONUS * overlap as f64;
                            }
                            debug_assert_eq!(
                                score,
                                program.rank.eval_rank(&m.ad, &sig.ad)
                                    + cache_affinity(&m.ad, &sig.ad),
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
                let machine = slot.id;
                let capacity = slot.capacity;
                if slot.machine.slots_free == 0 {
                    self.accepting.remove(pos);
                }
                let job = self.jobs.get_mut(&id).expect("exists");
                let duration = job.work.duration_on(capacity);
                job.state = JobState::Running;
                job.machine = Some(machine);
                job.started_at = Some(now);
                job.finish_at = Some(now + duration);
                job.run_gen += 1;
                let submitted_at = job.submitted_at;
                self.finish_heap
                    .push(Reverse((now + duration, id, job.run_gen)));
                self.idle_index_remove(user, submitted_at, id);
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
                    machine: self.names.name(machine).clone(),
                    finish_at: now + duration,
                });
            }
        }
        self.memo = memo;
        self.owner_order = users;
        matches
    }

    /// True when a heap entry still describes a live execution: the job
    /// is in the hot map, still running, and on the generation the entry
    /// was pushed for (evictions / extensions / removals bump it).
    fn heap_entry_live(&self, id: JobId, gen: u32) -> bool {
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
                self.owners[job.owner_ix as usize].usage += finish.since(started).as_secs_f64();
            }
            if let Some(machine) = job.machine {
                if let Some(i) = self.names.slab(machine) {
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
            self.history.insert(job);
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
        let machine = self.names.id(name)?;
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running && j.machine == Some(machine))
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
        self.owner_ix
            .get(user)
            .map_or(0.0, |&o| self.owners[o as usize].usage)
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

    /// A pool that has issued ids 1–4: three retired, one live (idle).
    fn pool_with_retired_and_live_jobs() -> CondorPool {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w")).unwrap();
        for _ in 0..3 {
            pool.submit(Job::new("u", WorkSpec::serial(5.0)), t(0));
        }
        pool.run_until_drained(t(0)).expect("drains");
        pool.remove_machine("w", t(100)).unwrap();
        pool.submit(Job::new("u", WorkSpec::serial(5.0)), t(100));
        assert_eq!(pool.jobs_in_state(JobState::Completed).len(), 3);
        pool
    }

    /// Ids the pool never issued: zero, the ones right past the last
    /// issued, and the far end of the range (`id − 1` must not underflow
    /// or index past the retired-job table).
    const UNISSUED: [JobId; 5] = [
        JobId(0),
        JobId(5),
        JobId(6),
        JobId(u64::MAX - 1),
        JobId(u64::MAX),
    ];

    #[test]
    fn job_rejects_unissued_ids() {
        let pool = pool_with_retired_and_live_jobs();
        for id in UNISSUED {
            assert_eq!(pool.job(id).err(), Some(PoolError::UnknownJob(id)));
        }
    }

    #[test]
    fn hold_rejects_unissued_ids() {
        let mut pool = pool_with_retired_and_live_jobs();
        for id in UNISSUED {
            assert_eq!(pool.hold(id), Err(PoolError::UnknownJob(id)));
        }
    }

    #[test]
    fn release_rejects_unissued_ids() {
        let mut pool = pool_with_retired_and_live_jobs();
        for id in UNISSUED {
            assert_eq!(pool.release(id), Err(PoolError::UnknownJob(id)));
        }
    }

    #[test]
    fn remove_job_rejects_unissued_ids() {
        let mut pool = pool_with_retired_and_live_jobs();
        for id in UNISSUED {
            assert_eq!(pool.remove_job(id), Err(PoolError::UnknownJob(id)));
        }
        assert_eq!(pool.jobs_in_state(JobState::Completed).len(), 3);
    }

    #[test]
    fn extend_job_rejects_unissued_ids() {
        let mut pool = pool_with_retired_and_live_jobs();
        for id in UNISSUED {
            assert_eq!(
                pool.extend_job(id, SimDuration::from_secs(1)),
                Err(PoolError::UnknownJob(id))
            );
        }
        // Issued ids keep their own answers: retired and idle jobs are
        // known but not running.
        for id in [JobId(1), JobId(4)] {
            assert_eq!(
                pool.extend_job(id, SimDuration::from_secs(1)),
                Err(PoolError::NotRunning(id))
            );
        }
    }

    #[test]
    fn retired_jobs_are_found_across_page_boundaries() {
        let mut pool = CondorPool::new();
        for _ in 0..2 * RetiredJobs::PAGE + 2 {
            pool.submit(Job::new("u", WorkSpec::serial(5.0)), t(0));
        }
        let page = RetiredJobs::PAGE as u64;
        let ids = [1, page, page + 1, 2 * page + 2].map(JobId);
        let mut table = RetiredJobs::default();
        for id in ids.into_iter().rev() {
            table.insert(pool.job(id).unwrap().clone());
        }
        let order: Vec<JobId> = table.iter().map(|j| j.id).collect();
        assert_eq!(order, ids);
        for id in ids {
            assert_eq!(table.get(id).map(|j| j.id), Some(id));
        }
        for id in [0, 2, 2 * page, 2 * page + 3, 3 * page + 1, u64::MAX].map(JobId) {
            assert!(table.get(id).is_none(), "{id}");
        }
        assert_eq!(
            table.take(JobId(page + 1)).map(|j| j.id),
            Some(JobId(page + 1))
        );
        assert!(table.get(JobId(page + 1)).is_none());
        assert_eq!(table.iter().count(), 3);
    }

    #[test]
    fn removing_retired_jobs_lowers_last_completion_only_for_the_latest() {
        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("w", 1.0, 1700, 3)).unwrap();
        let ids: Vec<JobId> = [10.0, 30.0, 20.0]
            .into_iter()
            .map(|secs| pool.submit(Job::new("u", WorkSpec::serial(secs)), t(0)))
            .collect();
        pool.run_until_drained(t(0)).expect("drains");
        assert_eq!(pool.last_completion_at(), Some(t(30)));
        // The latest finisher leaves: the next latest takes over.
        pool.remove_job(ids[1]).unwrap();
        assert_eq!(pool.last_completion_at(), Some(t(20)));
        // A non-latest one leaves: the maximum stands.
        pool.remove_job(ids[0]).unwrap();
        assert_eq!(pool.last_completion_at(), Some(t(20)));
        pool.remove_job(ids[2]).unwrap();
        assert_eq!(pool.last_completion_at(), None);
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
        let waits: Vec<SimDuration> = pool.idle_waits(t(10)).collect();
        assert_eq!(waits, vec![SimDuration::from_secs(10)]);
        pool.settle(t(30));
        assert_eq!(pool.completed_waits().len(), 3);
        assert_eq!(pool.last_completion_at(), Some(t(30)));
        assert_eq!(pool.utilization(), 0.0);
    }

    #[test]
    fn idle_rank_query_agrees_with_sorted_idle_waits() {
        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("a", 1.0, 1700, 2)).unwrap();
        pool.add_machine(small_machine("b")).unwrap();
        // Submission times out of order and tied, two owners.
        let times = [50, 10, 10, 70, 30, 10, 90, 0, 70, 20];
        let ids: Vec<JobId> = times
            .iter()
            .enumerate()
            .map(|(n, &at)| {
                let owner = if n % 2 == 0 { "u" } else { "v" };
                pool.submit(Job::new(owner, WorkSpec::serial(40.0)), t(at))
            })
            .collect();
        let check = |pool: &CondorPool, now: SimTime| {
            let mut waits: Vec<SimDuration> = pool.idle_waits(now).collect();
            waits.sort_unstable();
            let n = pool.idle_count();
            assert_eq!(waits.len(), n);
            for (k, &wait) in waits.iter().enumerate() {
                let at = pool
                    .idle_submitted_at_rank(n - 1 - k)
                    .expect("rank below idle_count");
                assert_eq!(now.since(at), wait, "rank {k} of {n}");
            }
            assert_eq!(pool.idle_submitted_at_rank(n), None);
        };
        check(&pool, t(100));
        pool.negotiate(t(100));
        check(&pool, t(100));
        pool.hold(ids[4]).unwrap();
        pool.remove_job(ids[9]).unwrap();
        check(&pool, t(110));
        pool.remove_machine("a", t(120)).unwrap();
        check(&pool, t(120));
        pool.release(ids[4]).unwrap();
        // A `now` before some submissions: their waits saturate at zero.
        check(&pool, t(40));
        pool.add_machine(Machine::new("c", 1.0, 1700, 8)).unwrap();
        pool.negotiate(t(130));
        check(&pool, t(130));
        pool.run_until_drained(t(130)).expect("drains");
        assert_eq!(pool.idle_count(), 0);
        check(&pool, t(500));
    }

    #[test]
    fn removing_a_machine_with_nothing_running_evicts_nothing() {
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("busy")).unwrap();
        pool.add_machine(small_machine("idle")).unwrap();
        let id = pool.submit(Job::new("u", WorkSpec::serial(60.0)).rank("0"), t(0));
        let m = pool.negotiate(t(0));
        assert_eq!(m[0].machine.0, "busy");
        assert_eq!(pool.remove_machine("idle", t(10)), Ok(Vec::new()));
        assert_eq!(pool.job(id).unwrap().state, JobState::Running);
        assert_eq!(pool.total_evictions(), 0);
        assert_eq!(pool.settle(t(60)), vec![id]);
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
    fn parse_cid_accepts_exactly_sixteen_lowercase_hex_digits() {
        assert_eq!(parse_cid("00000000000000aa"), Some(0xaa));
        assert_eq!(parse_cid("0123456789abcdef"), Some(0x0123_4567_89ab_cdef));
        assert_eq!(parse_cid("ffffffffffffffff"), Some(u64::MAX));
        assert_eq!(parse_cid("00000000000000AA"), None, "uppercase");
        assert_eq!(parse_cid("0000000000000aa"), None, "15 digits");
        assert_eq!(parse_cid("00000000000000aa0"), None, "17 digits");
        assert_eq!(parse_cid(""), None, "empty");
        assert_eq!(parse_cid("00000000000000ag"), None, "non-hex");
        assert_eq!(parse_cid("+0000000000000aa"), None, "sign");
        assert_eq!(parse_cid("cid-00000000000a"), None, "prefix");
    }

    #[test]
    fn digits_parse_only_when_every_byte_is_lowercase_hex() {
        for at in 0..16 {
            for b in 0..=255u8 {
                let mut digits = *b"0123456789abcdef";
                digits[at] = b;
                let want = digits.iter().try_fold(0u64, |id, &d| {
                    let nibble = (d as char)
                        .to_digit(16)
                        .filter(|_| !d.is_ascii_uppercase())?;
                    Some(id << 4 | u64::from(nibble))
                });
                assert_eq!(parse_digits(&digits), want, "byte {b:#04x} at {at}");
            }
        }
    }

    #[test]
    fn duplicate_input_ids_each_count_toward_the_bonus() {
        let mut pool = CondorPool::new();
        let mut a = Machine::new("a", 1.0, 1700, 1);
        a.ad.set(
            MACHINE_CACHE_CIDS_ATTR,
            Value::Str("00000000000000aa".into()),
        );
        pool.add_machine(a).unwrap();
        let mut b = Machine::new("b", 2.2, 1700, 1);
        b.ad.set(
            MACHINE_CACHE_CIDS_ATTR,
            Value::Str("00000000000000bb,00000000000000cc".into()),
        );
        pool.add_machine(b).unwrap();
        // Counted once, "aa" would tie "bb" at one overlap each and the
        // faster "b" would win on rank; counted twice it pulls to "a".
        let inputs = "00000000000000aa,00000000000000aa,00000000000000bb";
        let job = Job::new("u", WorkSpec::serial(10.0))
            .attr(JOB_INPUT_CIDS_ATTR, Value::Str(inputs.into()));
        pool.submit(job, t(0));
        let m = pool.negotiate(t(0));
        assert_eq!(m[0].machine.0, "a");
        let job_ad = ClassAd::new().with(JOB_INPUT_CIDS_ATTR, Value::Str(inputs.into()));
        let a_ad = &pool.machine("a").unwrap().ad;
        assert_eq!(cache_affinity(a_ad, &job_ad), 2.0 * CACHE_AFFINITY_BONUS);
    }

    #[test]
    fn malformed_tokens_never_overlap_even_when_identical() {
        for token in [
            "00000000000000AA",
            "0000000000000aa",
            "00000000000000aa0",
            "cid-aa",
            "",
        ] {
            let mut pool = CondorPool::new();
            pool.add_machine(Machine::new("fast", 2.2, 1700, 1))
                .unwrap();
            let mut warm = Machine::new("warm", 1.0, 1700, 1);
            let cached = format!("{token},00000000000000ff");
            warm.ad
                .set(MACHINE_CACHE_CIDS_ATTR, Value::Str(cached.clone()));
            pool.add_machine(warm).unwrap();
            let inputs = format!("{token},00000000000000ee");
            pool.submit(
                Job::new("u", WorkSpec::serial(10.0))
                    .attr(JOB_INPUT_CIDS_ATTR, Value::Str(inputs.clone())),
                t(0),
            );
            let m = pool.negotiate(t(0));
            assert_eq!(m[0].machine.0, "fast", "token {token:?} scored an overlap");
            let job_ad = ClassAd::new().with(JOB_INPUT_CIDS_ATTR, Value::Str(inputs));
            let machine_ad = ClassAd::new().with(MACHINE_CACHE_CIDS_ATTR, Value::Str(cached));
            assert_eq!(cache_affinity(&machine_ad, &job_ad), 0.0);
        }
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

    #[test]
    fn memo_verdicts_do_not_outlive_their_cycle() {
        let big = || {
            Job::new("u", WorkSpec::serial(60.0))
                .requirements("Memory >= 4000")
                .rank("ComputeUnits")
        };
        let mut pool = CondorPool::new();
        pool.add_machine(small_machine("w1")).unwrap();
        pool.add_machine(Machine::new("w2", 2.0, 1700, 1)).unwrap();
        // Cycle k: the big job's cluster is examined and fits nowhere.
        let a = pool.submit(big(), t(0));
        assert!(pool.negotiate(t(0)).is_empty());
        // Cycle k+1: the cluster is absent (held); another cluster takes
        // the cycle's first memo row and runs to completion.
        pool.hold(a).unwrap();
        let b = pool.submit(Job::new("v", WorkSpec::serial(10.0)), t(20));
        assert_eq!(pool.negotiate(t(20)).len(), 1);
        assert_eq!(pool.settle(t(40)), vec![b]);
        // Before cycle k+2 the slow machine's ad grows enough memory.
        pool.machine_mut("w1")
            .unwrap()
            .ad
            .set("Memory", Value::Int(8000));
        pool.release(a).unwrap();
        let matched = pool.negotiate(t(60));

        // A fresh pool that starts from the changed ads agrees.
        let mut fresh = CondorPool::new();
        let mut w1 = small_machine("w1");
        w1.ad.set("Memory", Value::Int(8000));
        fresh.add_machine(w1).unwrap();
        fresh.add_machine(Machine::new("w2", 2.0, 1700, 1)).unwrap();
        fresh.submit(big(), t(0));
        assert_eq!(matched, fresh.negotiate(t(60)));
        assert_eq!(matched.len(), 1, "the changed ad was re-evaluated");
        assert_eq!(matched[0].machine.0, "w1");
    }
}
