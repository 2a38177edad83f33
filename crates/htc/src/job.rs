//! Jobs and their lifecycle.

use std::fmt;
use std::sync::{Arc, OnceLock};

use cumulus_simkit::time::{SimDuration, SimTime};

use crate::classad::{ClassAd, Expr, ParseError, Value};
use crate::machine::MachineId;
use crate::pool::sym_owner;
use crate::signature::Signature;

/// Identifier for a submitted job (cluster id, in Condor terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// How much compute a job represents.
///
/// Execution time on a machine with compute capacity `cu` is
/// `serial + cu_work / cu` — the Amdahl decomposition calibrated for the
/// paper's Figure 10 (DESIGN.md §3). The serial part models fixed R/tool
/// startup; the scalable part grows with the input data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkSpec {
    /// Seconds of fixed, non-scalable work.
    pub serial_secs: f64,
    /// Compute-unit-seconds of scalable work.
    pub cu_work: f64,
}

impl WorkSpec {
    /// A pure-serial job.
    pub fn serial(secs: f64) -> Self {
        WorkSpec {
            serial_secs: secs,
            cu_work: 0.0,
        }
    }

    /// Execution duration on a machine of capacity `compute_units`.
    pub fn duration_on(&self, compute_units: f64) -> SimDuration {
        assert!(compute_units > 0.0, "machine must have positive capacity");
        SimDuration::from_secs_f64(self.serial_secs + self.cu_work / compute_units)
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting to be matched.
    Idle,
    /// Executing on a machine.
    Running,
    /// Finished successfully.
    Completed,
    /// Aborted because its machine vanished; will be rematched.
    Evicted,
    /// Administratively held.
    Held,
    /// Removed from the queue.
    Removed,
}

/// A submitted job: its own ids, times and state, plus a handle to the
/// matchmaking signature it shares with its autocluster.
///
/// A completed job is kept for the pool's life, so the record owns no
/// heap memory of its own: the machine is an id into the pool's name
/// table (read it with [`CondorPool::running_on`](crate::CondorPool::running_on))
/// and the signature is shared.
#[derive(Debug, Clone)]
pub struct Job {
    /// Id assigned at submission.
    pub id: JobId,
    /// When it entered the queue.
    pub submitted_at: SimTime,
    /// The work it performs.
    pub work: WorkSpec,
    /// Current state.
    pub state: JobState,
    /// Where it is running, or ran to completion: `None` while idle,
    /// held or removed, and after an eviction.
    pub(crate) machine: Option<MachineId>,
    /// When the current execution finishes.
    pub finish_at: Option<SimTime>,
    /// When it started executing (most recent match).
    pub started_at: Option<SimTime>,
    /// Times this job has been evicted and requeued.
    pub evictions: u32,
    /// Bumped every time the job is (re)scheduled; lets the settle heap
    /// detect stale entries after evictions or deadline extensions.
    pub(crate) run_gen: u32,
    /// Autocluster id assigned at submission: jobs whose builders set
    /// bitwise-equal (requirements, rank, ad, owner) share a cluster, so
    /// the negotiator can reuse one job's verdict and score per machine
    /// for the whole cluster within a cycle.
    pub(crate) cluster: u32,
    /// The pool's dense index for the owner, assigned at submission.
    pub(crate) owner_ix: u32,
    /// The autocluster's signature, one allocation for all its jobs.
    pub(crate) sig: Arc<Signature>,
}

const _: () = assert!(std::mem::size_of::<Job>() <= 96);

impl Job {
    /// Build a job ready for submission. Requirements default to `true`,
    /// rank to the machine's compute capacity (prefer fast machines — the
    /// behaviour the paper's use case relies on when the c1.medium node
    /// joins the pool). Deliberately returns a builder rather than `Self`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(owner: &str, work: WorkSpec) -> JobBuilder {
        static DEFAULT_RANK: OnceLock<Expr> = OnceLock::new();
        let rank = DEFAULT_RANK
            .get_or_init(|| Expr::parse("ComputeUnits").expect("static expression"))
            .clone();
        JobBuilder {
            owner: owner.to_string(),
            work,
            requirements: Expr::always(),
            rank,
            ad: ClassAd::new(),
        }
    }

    /// A freshly submitted, idle job of autocluster `cluster`.
    pub(crate) fn submitted(
        id: JobId,
        submitted_at: SimTime,
        work: WorkSpec,
        cluster: u32,
        owner_ix: u32,
        sig: Arc<Signature>,
    ) -> Job {
        Job {
            id,
            submitted_at,
            work,
            state: JobState::Idle,
            machine: None,
            finish_at: None,
            started_at: None,
            evictions: 0,
            run_gen: 0,
            cluster,
            owner_ix,
            sig,
        }
    }

    /// Submitting user.
    pub fn owner(&self) -> &str {
        self.sig.owner()
    }

    /// Matchmaking requirements (evaluated against machine ads).
    pub fn requirements(&self) -> &Expr {
        &self.sig.program.requirements
    }

    /// Preference among matching machines (higher is better).
    pub fn rank(&self) -> &Expr {
        &self.sig.program.rank
    }

    /// The job's own ad (request attributes, `Owner`, etc.).
    pub fn ad(&self) -> &ClassAd {
        &self.sig.ad
    }

    /// Total queue latency: submission to completion, if completed.
    pub fn turnaround(&self) -> Option<SimDuration> {
        match (self.state, self.finish_at) {
            (JobState::Completed, Some(f)) => Some(f.since(self.submitted_at)),
            _ => None,
        }
    }
}

/// Builder for [`Job`].
#[derive(Debug, Clone)]
pub struct JobBuilder {
    owner: String,
    work: WorkSpec,
    requirements: Expr,
    rank: Expr,
    ad: ClassAd,
}

impl JobBuilder {
    /// Set the requirements expression, panicking on a parse error.
    pub fn requirements(self, src: &str) -> Self {
        self.try_requirements(src)
            .expect("invalid requirements expression")
    }

    /// Set the rank expression, panicking on a parse error.
    pub fn rank(self, src: &str) -> Self {
        self.try_rank(src).expect("invalid rank expression")
    }

    /// Set the requirements expression, reporting parse errors.
    pub fn try_requirements(mut self, src: &str) -> Result<Self, ParseError> {
        self.requirements = Expr::parse(src)?;
        Ok(self)
    }

    /// Set the rank expression, reporting parse errors.
    pub fn try_rank(mut self, src: &str) -> Result<Self, ParseError> {
        self.rank = Expr::parse(src)?;
        Ok(self)
    }

    /// Set a job-ad attribute.
    pub fn attr(mut self, key: &str, value: Value) -> Self {
        self.ad.set(key, value);
        self
    }

    /// Split into the work and the signature's requirements, rank and ad,
    /// with the owner written to the ad's `Owner` attribute (over any
    /// `attr` of that name).
    pub(crate) fn into_parts(self) -> (WorkSpec, Expr, Expr, ClassAd) {
        let mut ad = self.ad;
        ad.set_sym(sym_owner(), Value::Str(self.owner));
        (self.work, self.requirements, self.rank, ad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Autoclusters;

    /// A job as submission would make it, interned into a fresh table.
    fn build(builder: JobBuilder) -> Job {
        let (work, requirements, rank, ad) = builder.into_parts();
        let (cluster, sig) = Autoclusters::default().intern(requirements, rank, ad);
        Job::submitted(JobId(1), SimTime::ZERO, work, cluster, 0, sig)
    }

    #[test]
    fn workspec_amdahl_arithmetic() {
        // Calibration sanity: the use-case payload (both datasets) on the
        // paper's instance menu. serial = 2×112 s, cu_work = 418 s.
        let w = WorkSpec {
            serial_secs: 224.0,
            cu_work: 418.0,
        };
        let small = w.duration_on(1.0).as_mins_f64();
        let large = w.duration_on(4.0).as_mins_f64();
        let xlarge = w.duration_on(8.0).as_mins_f64();
        assert!((small - 10.7).abs() < 0.05, "small={small}");
        assert!((large - 5.47).abs() < 0.1, "large={large}");
        assert!((xlarge - 4.6).abs() < 0.1, "xlarge={xlarge}");
    }

    #[test]
    fn serial_work_ignores_capacity() {
        let w = WorkSpec::serial(60.0);
        assert_eq!(w.duration_on(1.0), w.duration_on(8.0));
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_panics() {
        WorkSpec::serial(1.0).duration_on(0.0);
    }

    #[test]
    fn builder_populates_ad() {
        let j = build(
            Job::new("user1", WorkSpec::serial(5.0))
                .requirements("Memory >= 1024")
                .attr("RequestMemory", Value::Int(1024)),
        );
        assert_eq!(j.ad().get("owner"), Value::Str("user1".to_string()));
        assert_eq!(j.ad().get("RequestMemory"), Value::Int(1024));
        assert_eq!(j.state, JobState::Idle);
    }

    #[test]
    fn turnaround_only_when_completed() {
        let mut j = build(Job::new("u", WorkSpec::serial(1.0)));
        assert_eq!(j.turnaround(), None);
        j.state = JobState::Completed;
        j.finish_at = Some(SimTime::ZERO + SimDuration::from_secs(30));
        assert_eq!(j.turnaround(), Some(SimDuration::from_secs(30)));
    }
}
