//! The fixed-tick episode loop the data-plane grids run on.
//!
//! A Condor negotiator cycles every [`NEGOTIATION_INTERVAL`]; E13 and E15
//! model exactly that clock. Each tick of [`run`]:
//!
//! 1. settles every site's pool at `now`;
//! 2. submits the arrivals due by `now`, each to the site its
//!    [`Hooks::route`] picks;
//! 3. negotiates every site;
//! 4. stages each match through [`Federation::stage_job`], delays the job
//!    by the plan, and re-advertises the worker's cache contents;
//! 5. runs the per-tick hook ([`Hooks::tick`], e.g. site scalers);
//! 6. advances `now` by one negotiation interval.
//!
//! E13 runs on a 1-site federation, where the cross-site rung never
//! resolves and staging is exactly the bare data plane's.
//!
//! Arrivals are quantised to the tick, so a plain loop is the whole
//! driver; it moves onto the DES engine when staging needs per-transfer
//! completion events. The loop stops when every arrival has completed,
//! or on proof that no progress is possible: see [`starved`].

use std::collections::BTreeMap;

use cumulus::federation::Federation;
use cumulus::htc::{
    CondorPool, Job, JobId, JobState, Value, WorkSpec, JOB_INPUT_CIDS_ATTR,
    MACHINE_CACHE_CIDS_ATTR, NEGOTIATION_INTERVAL,
};
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::store::{InputSpec, SharingBackend};

/// One job of an episode's arrival stream.
pub(crate) struct Arrival {
    /// Submission time (submitted at the first tick at or after it).
    pub(crate) at: SimTime,
    /// The submitting user (the pool's fair-share owner).
    pub(crate) user: String,
    /// The job's work.
    pub(crate) work: WorkSpec,
    /// The one input the job stages.
    pub(crate) input: InputSpec,
}

/// The experiment-specific parts of an episode. The defaults are a
/// single site with no per-tick work.
pub(crate) trait Hooks {
    /// The site arrival `n` is submitted to.
    fn route(&mut self, _fed: &Federation, _n: usize, _arrival: &Arrival) -> usize {
        0
    }

    /// End-of-tick work at `now`, after staging. Returns whether the
    /// federation may still change without a new arrival or completion
    /// (e.g. a scaler just resized a site); `false` lets a stuck queue
    /// stop the episode as [`Starved`].
    fn tick(&mut self, _fed: &mut Federation, _now: SimTime) -> bool {
        false
    }
}

/// An episode that can never finish: at `at`, jobs were queued, nothing
/// was running, no arrival was left and nothing was pending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Starved {
    /// The tick that proved it.
    pub(crate) at: SimTime,
    /// The jobs stuck in the queue, as (site index, job id).
    pub(crate) blocked: Vec<(usize, JobId)>,
}

impl std::fmt::Display for Starved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "episode starved at {}: {} job(s) no machine will ever match",
            self.at,
            self.blocked.len()
        )
    }
}

/// The stopping rule every fixed-tick episode shares. A tick that finds
/// idle jobs, nothing running, no arrival left and nothing `pending`
/// leaves the next tick in the same state, so the episode can never
/// finish; this returns the proof. `None` while progress is possible.
pub(crate) fn starved<'a>(
    at: SimTime,
    pools: impl IntoIterator<Item = &'a CondorPool>,
    arrivals_left: bool,
    pending: bool,
) -> Option<Starved> {
    if arrivals_left || pending {
        return None;
    }
    let mut blocked = Vec::new();
    for (site, pool) in pools.into_iter().enumerate() {
        if pool.running_count() > 0 {
            return None;
        }
        blocked.extend(
            pool.jobs_in_state(JobState::Idle)
                .into_iter()
                .map(|id| (site, id)),
        );
    }
    (!blocked.is_empty()).then_some(Starved { at, blocked })
}

/// Run `arrivals` through `fed` from time zero until every one has
/// completed, or until the queue is provably [`Starved`]. Returns the
/// staging time charged across every match.
pub(crate) fn run(
    fed: &mut Federation,
    arrivals: &[Arrival],
    hooks: &mut impl Hooks,
) -> Result<SimDuration, Starved> {
    let sites = fed.site_count();
    let mut inputs_of: Vec<BTreeMap<JobId, InputSpec>> = vec![BTreeMap::new(); sites];
    let mut now = SimTime::ZERO;
    let mut submitted = 0;
    let mut completed = 0;
    let mut staging = SimDuration::ZERO;
    while completed < arrivals.len() {
        for s in 0..sites {
            completed += fed.site_mut(s).pool.settle(now).len();
        }

        while submitted < arrivals.len() && arrivals[submitted].at <= now {
            let arrival = &arrivals[submitted];
            let site = hooks.route(fed, submitted, arrival);
            let job = Job::new(&arrival.user, arrival.work)
                .attr(JOB_INPUT_CIDS_ATTR, Value::Str(arrival.input.cid.hex()));
            let id = fed.site_mut(site).pool.submit(job, now);
            inputs_of[site].insert(id, arrival.input);
            submitted += 1;
        }

        for (s, inputs) in inputs_of.iter().enumerate() {
            let matches = fed.site_mut(s).pool.negotiate(now);
            let concurrent = matches.len() as u32;
            for m in &matches {
                let plan = fed.stage_job(s, &m.machine.0, &[inputs[&m.job]], concurrent, now);
                staging += plan.total;
                let site = fed.site_mut(s);
                site.pool
                    .extend_job(m.job, plan.total)
                    .expect("freshly matched job is running");
                if site.config.backend == SharingBackend::CachedObjectStore {
                    let cache_ad = site.plane.fleet.attr_string(&m.machine.0);
                    let machine = site
                        .pool
                        .machine_mut(&m.machine.0)
                        .expect("matched machine");
                    machine
                        .ad
                        .set(MACHINE_CACHE_CIDS_ATTR, Value::Str(cache_ad));
                }
            }
        }

        let pending = hooks.tick(fed, now);
        let pools = fed.sites().iter().map(|s| &s.pool);
        if let Some(stuck) = starved(now, pools, submitted < arrivals.len(), pending) {
            return Err(stuck);
        }

        now += NEGOTIATION_INTERVAL;
    }
    Ok(staging)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulus::cloud::InstanceType;
    use cumulus::federation::{SiteConfig, WanTopology};
    use cumulus::store::{ContentId, DataSize};

    struct Solo;
    impl Hooks for Solo {}

    fn solo_site() -> Federation {
        let config = SiteConfig::new("solo", 2, InstanceType::M1Small);
        let mut fed = Federation::provision(vec![config], WanTopology::new(), SimTime::ZERO);
        fed.seed_dataset(0, ContentId(1), DataSize::from_mb(10));
        fed
    }

    fn arrival(secs: u64, serial: f64) -> Arrival {
        Arrival {
            at: SimTime::ZERO + SimDuration::from_secs(secs),
            user: "u".to_string(),
            work: WorkSpec::serial(serial),
            input: InputSpec {
                cid: ContentId(1),
                size: DataSize::from_mb(10),
            },
        }
    }

    #[test]
    fn an_unmatchable_job_starves_with_its_id() {
        let mut fed = solo_site();
        // Stand in for "no machine can match": the only site has no
        // workers left, and nothing will ever add one.
        for _ in 0..2 {
            assert!(fed.site_mut(0).remove_idle_worker(SimTime::ZERO));
        }
        let err = run(&mut fed, &[arrival(30, 10.0)], &mut Solo)
            .expect_err("a queue no machine can serve never drains");
        let id = fed.site(0).pool.jobs_in_state(JobState::Idle)[0];
        assert_eq!(err.blocked, vec![(0, id)]);
        // Proved on the tick that submitted it (the first at or after 30 s).
        assert_eq!(err.at, SimTime::ZERO + SimDuration::from_secs(40));
    }

    #[test]
    fn a_pending_hook_defers_starvation() {
        // A hook that adds the missing worker two ticks late: while it
        // reports pending, the empty site is not starved.
        struct LateJoin(u32);
        impl Hooks for LateJoin {
            fn tick(&mut self, fed: &mut Federation, now: SimTime) -> bool {
                self.0 += 1;
                if self.0 == 3 {
                    fed.site_mut(0).add_worker(now);
                }
                self.0 <= 3
            }
        }
        let mut fed = solo_site();
        for _ in 0..2 {
            assert!(fed.site_mut(0).remove_idle_worker(SimTime::ZERO));
        }
        run(&mut fed, &[arrival(0, 10.0)], &mut LateJoin(0)).expect("drains");
        assert_eq!(fed.site(0).pool.completed_waits().len(), 1);
    }
}
