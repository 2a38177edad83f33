//! `cumulus-htc` — a Condor-like high-throughput-computing scheduler.
//!
//! Galaxy "jobs are transparently assigned to Condor worker nodes for
//! parallel execution" (§III.B). This crate reproduces the Condor features
//! that behaviour depends on:
//!
//! * [`classad`] — ClassAd-lite attribute lists and the
//!   requirements/rank expression language used for matchmaking, with a
//!   symbol-interned, compiled-expression fast path next to the
//!   tree-walking reference evaluator;
//! * [`job`] — jobs with an Amdahl work model (`serial + cu_work / CU`)
//!   calibrated to the paper's Figure 10 execution times;
//! * [`machine`] — execute nodes with slots and standard ads;
//! * [`pool`] — the central manager: queue, fair-share negotiation cycles,
//!   dynamic machine membership with draining (the mechanism behind
//!   elastic scale-up/down), eviction on abrupt host loss, and the
//!   synchronous drain loop ([`CondorPool::drain`]) every batch caller
//!   runs on;
//! * [`retry`] — job-level retry over the pool: a `Held(reason)`-aware
//!   resubmit loop with per-job attempt counters and dead-lettering,
//!   consuming the shared `cumulus_simkit::retry` plane;
//! * [`dag`] — DAGMan-lite dependency bookkeeping for workflow DAGs.

#![warn(missing_docs)]

pub mod classad;
pub mod dag;
pub mod job;
pub mod machine;
pub mod pool;
pub mod retry;

pub use classad::{ClassAd, CompiledExpr, Expr, ParseError, Symbol, Value};
pub use dag::{DagError, DagRun, NodeStatus};
pub use job::{Job, JobBuilder, JobId, JobState, WorkSpec};
pub use machine::{Machine, MachineName};
pub use pool::{
    CondorPool, Match, PoolError, CACHE_AFFINITY_BONUS, JOB_INPUT_CIDS_ATTR,
    MACHINE_CACHE_CIDS_ATTR, NEGOTIATION_INTERVAL,
};
pub use retry::{JobRetryTracker, RetryReport};
