//! Galaxy jobs: the bridge between a tool invocation and the Condor pool.

use std::collections::BTreeMap;

use cumulus_htc::JobId as CondorJobId;
use cumulus_simkit::time::SimTime;

use crate::dataset::DatasetId;

/// Identifier for a Galaxy job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GalaxyJobId(pub u64);

impl std::fmt::Display for GalaxyJobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gxjob-{}", self.0)
    }
}

/// Job state as shown in the history panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GalaxyJobState {
    /// Submitted to the Condor pool, waiting for a slot.
    Queued,
    /// Executing.
    Running,
    /// Finished; outputs ok.
    Ok,
    /// Finished with an error.
    Error,
}

/// A tool invocation tracked by the server.
#[derive(Debug, Clone)]
pub struct GalaxyJob {
    /// Its id.
    pub id: GalaxyJobId,
    /// The tool that ran.
    pub tool_id: String,
    /// Tool version: the registry's at submission, replaced on an Ok
    /// completion by the version that actually ran (the registry may
    /// have swapped the tool in between), so a finished job's record is
    /// its outputs' provenance.
    pub tool_version: String,
    /// The submitting user.
    pub user: String,
    /// The history receiving outputs.
    pub history: crate::history::HistoryId,
    /// Resolved parameters.
    pub params: BTreeMap<String, String>,
    /// Input datasets, by parameter name.
    pub inputs: BTreeMap<String, DatasetId>,
    /// Output datasets (pre-allocated at submission, filled on completion).
    pub outputs: Vec<DatasetId>,
    /// The Condor job backing the execution, if dispatched to the pool.
    pub condor_job: Option<CondorJobId>,
    /// State.
    pub state: GalaxyJobState,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Completion time, when finished.
    pub finished_at: Option<SimTime>,
    /// Error text when failed.
    pub error: Option<String>,
}

impl GalaxyJob {
    /// Wall-clock runtime (submission → completion), when finished.
    pub fn runtime(&self) -> Option<cumulus_simkit::time::SimDuration> {
        self.finished_at.map(|f| f.since(self.submitted_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulus_simkit::time::SimDuration;

    #[test]
    fn runtime_requires_completion() {
        let mut j = GalaxyJob {
            id: GalaxyJobId(1),
            tool_id: "t".to_string(),
            tool_version: "1".to_string(),
            user: "u".to_string(),
            history: crate::history::HistoryId(1),
            params: BTreeMap::new(),
            inputs: BTreeMap::new(),
            outputs: vec![],
            condor_job: None,
            state: GalaxyJobState::Queued,
            submitted_at: SimTime::ZERO,
            finished_at: None,
            error: None,
        };
        assert_eq!(j.runtime(), None);
        j.finished_at = Some(SimTime::ZERO + SimDuration::from_mins(5));
        assert_eq!(j.runtime(), Some(SimDuration::from_mins(5)));
    }
}
