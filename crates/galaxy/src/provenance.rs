//! Provenance, read from the job table.
//!
//! "Galaxy automatically records history and provenance information for
//! each tool executed" and "tracks … all input, intermediate, and final
//! datasets, as well as the parameters and the execution order of each
//! step" (§II.2). The server already keeps every one of those facts once:
//! a dataset's `produced_by` names its job, and the [`GalaxyJob`] record
//! holds the tool id, the version that ran, the resolved parameters, the
//! inputs by parameter name, and the submit and finish times. So a
//! dataset has provenance exactly when its producing job finished Ok, and
//! lineage queries walk job inputs backwards.

use std::collections::BTreeSet;

use crate::dataset::DatasetId;
use crate::job::{GalaxyJob, GalaxyJobState};
use crate::server::GalaxyServer;

/// The provenance graph reachable from a dataset contains a cycle — some
/// dataset is its own ancestor — so lineage and replay are ill-defined.
/// A job only consumes datasets that are already Ok, so tool-produced
/// provenance is a DAG; a cycle means some dataset's `produced_by` was
/// rewritten (through [`GalaxyServer::dataset_mut`]) to name a job
/// downstream of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyclicProvenance {
    /// A dataset on the cycle.
    pub dataset: DatasetId,
}

impl std::fmt::Display for CyclicProvenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "provenance cycle through {}", self.dataset)
    }
}

impl std::error::Error for CyclicProvenance {}

impl GalaxyServer {
    /// How `dataset` came to exist: the job named by its `produced_by`,
    /// when that job finished Ok. Uploads, and outputs of pending or
    /// failed jobs, have none.
    pub fn provenance(&self, dataset: DatasetId) -> Option<&GalaxyJob> {
        let job = self.job(self.dataset(dataset).ok()?.produced_by?).ok()?;
        (job.state == GalaxyJobState::Ok).then_some(job)
    }

    /// The input datasets of `dataset`'s producing job, in parameter-name
    /// order; none when it has no provenance.
    fn parents(&self, dataset: DatasetId) -> impl Iterator<Item = DatasetId> + '_ {
        self.provenance(dataset)
            .into_iter()
            .flat_map(|job| job.inputs.values().copied())
    }

    /// Verify the provenance reachable from `dataset` forms a DAG.
    /// Depth-first with an on-path set: an input edge back onto the
    /// current path is a back edge, i.e. a cycle.
    fn check_acyclic(&self, dataset: DatasetId) -> Result<(), CyclicProvenance> {
        let mut done: BTreeSet<DatasetId> = BTreeSet::new();
        let mut on_path: BTreeSet<DatasetId> = BTreeSet::new();
        let mut stack = vec![(dataset, self.parents(dataset))];
        on_path.insert(dataset);
        while let Some((node, parents)) = stack.last_mut() {
            match parents.next() {
                Some(next) if on_path.contains(&next) => {
                    return Err(CyclicProvenance { dataset: next });
                }
                Some(next) if done.contains(&next) => {}
                Some(next) => {
                    on_path.insert(next);
                    stack.push((next, self.parents(next)));
                }
                None => {
                    let node = *node;
                    on_path.remove(&node);
                    done.insert(node);
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Full lineage of a dataset: every ancestor dataset id, following
    /// input edges transitively (nearest first, deduplicated). Errors if
    /// the reachable provenance contains a cycle.
    pub fn lineage(&self, dataset: DatasetId) -> Result<Vec<DatasetId>, CyclicProvenance> {
        self.check_acyclic(dataset)?;
        let mut out = Vec::new();
        let mut queue = vec![dataset];
        while let Some(d) = queue.pop() {
            for input in self.parents(d) {
                if !out.contains(&input) {
                    out.push(input);
                    queue.push(input);
                }
            }
        }
        Ok(out)
    }

    /// Rebuild the command history needed to reproduce `dataset`: each
    /// producing job once, in submission order (oldest first). Errors if
    /// the reachable provenance contains a cycle.
    pub fn replay_plan(&self, dataset: DatasetId) -> Result<Vec<&GalaxyJob>, CyclicProvenance> {
        self.check_acyclic(dataset)?;
        let mut steps: Vec<&GalaxyJob> = Vec::new();
        let mut queue = vec![dataset];
        while let Some(d) = queue.pop() {
            if let Some(job) = self.provenance(d) {
                if !steps.iter().any(|s| s.id == job.id) {
                    steps.push(job);
                    queue.extend(job.inputs.values().copied());
                }
            }
        }
        steps.sort_by_key(|job| job.submitted_at);
        Ok(steps)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use cumulus_htc::{CondorPool, Machine};
    use cumulus_net::{DataSize, NodeId};
    use cumulus_simkit::time::{SimDuration, SimTime};

    use super::*;
    use crate::dataset::{Content, ContentBody};
    use crate::history::HistoryId;
    use crate::job::GalaxyJobId;
    use crate::tool::{
        CostModel, OutputSpec, ParamSpec, ToolDefinition, ToolInvocation, ToolOutput,
    };

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// A tool taking the named dataset inputs and writing one text output.
    fn tool(id: &str, inputs: &[&str]) -> ToolDefinition {
        ToolDefinition {
            id: id.to_string(),
            name: id.to_string(),
            version: "1.0".to_string(),
            description: "joins its inputs' names".to_string(),
            params: inputs.iter().map(|i| ParamSpec::dataset(i, i)).collect(),
            outputs: vec![OutputSpec {
                name: "out".to_string(),
                dtype: "txt".to_string(),
            }],
            cost: CostModel::LIGHT,
            behavior: Arc::new(|inv: &ToolInvocation| {
                Ok(vec![ToolOutput {
                    name: "out".to_string(),
                    dataset_name: "out".to_string(),
                    content: Content::new(ContentBody::Text(inv.inputs.keys().cloned().collect())),
                    size: None,
                }])
            }),
        }
    }

    struct World {
        server: GalaxyServer,
        pool: CondorPool,
        history: HistoryId,
    }

    impl World {
        fn new() -> World {
            let mut server = GalaxyServer::new(NodeId(0), None);
            server
                .registry
                .register("Test", tool("step", &["i"]))
                .unwrap();
            server
                .registry
                .register("Test", tool("join", &["a", "b"]))
                .unwrap();
            server.register_user("boliu");
            let history = server.create_history(t(0), "boliu", "h").unwrap();
            let mut pool = CondorPool::new();
            pool.add_machine(Machine::new("w", 1.0, 1700, 1)).unwrap();
            World {
                server,
                pool,
                history,
            }
        }

        fn upload(&mut self) -> DatasetId {
            let text = Content::new(ContentBody::Text("x".to_string()));
            self.server
                .add_dataset(t(0), self.history, "up", "txt", DataSize::from_kb(1), text)
                .unwrap()
        }

        /// Run `tool` at `at` on the bound inputs to completion; returns
        /// the job and its one output.
        fn run(
            &mut self,
            at: u64,
            tool: &str,
            bind: &[(&str, DatasetId)],
        ) -> (GalaxyJobId, DatasetId) {
            let params: BTreeMap<String, String> = bind
                .iter()
                .map(|(k, d)| (k.to_string(), d.0.to_string()))
                .collect();
            let job = self
                .server
                .run_tool(t(at), "boliu", self.history, tool, &params, &mut self.pool)
                .unwrap();
            self.server.drive_jobs(t(at), &mut self.pool).unwrap();
            (job, self.server.job(job).unwrap().outputs[0])
        }

        /// Rewrite `dataset`'s producer to `job`.
        fn forge(&mut self, dataset: DatasetId, job: GalaxyJobId) {
            self.server.dataset_mut(dataset).unwrap().produced_by = Some(job);
        }
    }

    #[test]
    fn uploads_have_no_provenance() {
        let mut w = World::new();
        let up = w.upload();
        assert!(w.server.provenance(up).is_none());
        assert!(w.server.lineage(up).unwrap().is_empty());
        assert!(w.server.replay_plan(up).unwrap().is_empty());
    }

    #[test]
    fn lineage_walks_transitively() {
        // upload → step → step; a second step also reads the middle one.
        let mut w = World::new();
        let up = w.upload();
        let (_, mid) = w.run(10, "step", &[("i", up)]);
        let (_, last) = w.run(100, "step", &[("i", mid)]);
        w.run(120, "step", &[("i", mid)]);
        assert_eq!(w.server.lineage(last).unwrap(), vec![mid, up]);
        assert_eq!(w.server.lineage(mid).unwrap(), vec![up]);
    }

    #[test]
    fn replay_plan_is_in_execution_order() {
        let mut w = World::new();
        let up = w.upload();
        let (first, mid) = w.run(10, "step", &[("i", up)]);
        let (second, last) = w.run(100, "join", &[("a", mid), ("b", up)]);
        let plan: Vec<GalaxyJobId> = w
            .server
            .replay_plan(last)
            .unwrap()
            .iter()
            .map(|j| j.id)
            .collect();
        assert_eq!(plan, vec![first, second]);
    }

    #[test]
    fn diamond_lineage_deduplicates() {
        let mut w = World::new();
        let up = w.upload();
        let (_, left) = w.run(10, "step", &[("i", up)]);
        let (_, right) = w.run(20, "step", &[("i", up)]);
        let (_, last) = w.run(30, "join", &[("a", left), ("b", right)]);
        let lin = w.server.lineage(last).unwrap();
        assert_eq!(lin.len(), 3, "the upload appears once: {lin:?}");
    }

    #[test]
    fn self_loop_is_a_typed_cycle_error() {
        // The upload claims to come from the job that read it.
        let mut w = World::new();
        let up = w.upload();
        let (job, _) = w.run(10, "step", &[("i", up)]);
        w.forge(up, job);
        assert_eq!(w.server.lineage(up), Err(CyclicProvenance { dataset: up }));
        assert!(w.server.replay_plan(up).is_err());
    }

    #[test]
    fn two_step_cycle_is_detected_from_any_entry_point() {
        // up → a → b, then up claims to come from the job that made b.
        let mut w = World::new();
        let up = w.upload();
        let (_, a) = w.run(10, "step", &[("i", up)]);
        let (made_b, b) = w.run(20, "step", &[("i", a)]);
        // A downstream dataset whose ancestry passes through the cycle.
        let (_, c) = w.run(30, "step", &[("i", b)]);
        w.forge(up, made_b);
        for d in [up, a, b, c] {
            let err = w.server.lineage(d).unwrap_err();
            assert!(
                err.dataset == up || err.dataset == a,
                "cycle member reported, got {err}"
            );
            assert!(w.server.replay_plan(d).is_err());
        }
    }

    #[test]
    fn cycles_outside_the_queried_ancestry_do_not_poison_it() {
        // up → clean is clean; island reads itself after a forge.
        let mut w = World::new();
        let up = w.upload();
        let (_, clean) = w.run(10, "step", &[("i", up)]);
        let island = w.upload();
        let (job, _) = w.run(50, "step", &[("i", island)]);
        w.forge(island, job);
        assert_eq!(w.server.lineage(clean).unwrap(), vec![up]);
        assert_eq!(w.server.replay_plan(clean).unwrap().len(), 1);
    }
}
