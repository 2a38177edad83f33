//! Seeded property suite for the server's tool-run memo.
//!
//! Random submit/complete sequences run over a small content pool: signed
//! zeros, 1-ULP neighbours, a NaN, identical contents under different
//! dataset ids and names, and a tool that fails on some inputs. Between a
//! submit and its completion the sequences also rewrite input datasets in
//! place and swap the registry for one whose tool has a different
//! behavior under the same id, and on every second swap a new version.
//!
//! The reference needs no switch on the server: after every completion,
//! each output dataset must equal, bit for bit, what the registered
//! tool's behavior computes on the invocation rebuilt from that moment's
//! datasets. Each Ok output's provenance must name what the test itself
//! recorded at submission and completion (tool, the version that ran,
//! parameters, inputs, times), and outputs of failed and pending jobs must
//! have none. A counting behavior then shows that repeats run once and
//! that distinct invocations run every time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cumulus_galaxy::{
    Content, ContentBody, CostModel, CyclicProvenance, DatasetId, DatasetState, GalaxyJobId,
    GalaxyJobState, GalaxyServer, HistoryId, OutputSpec, ParamSpec, ToolDefinition, ToolError,
    ToolInvocation, ToolOutput, ToolRegistry,
};
use cumulus_htc::CondorPool;
use cumulus_net::{DataSize, NodeId};
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::time::{SimDuration, SimTime};

const USER: &str = "boliu";

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

fn matrix(values: &[f64]) -> Content {
    Content::new(ContentBody::Matrix {
        row_names: vec!["probe_1".to_string()],
        col_names: (0..values.len()).map(|i| format!("s{i}")).collect(),
        values: values.to_vec(),
    })
}

/// The content pool every dataset is drawn from.
fn content_pool() -> Vec<Content> {
    let up = |x: f64| f64::from_bits(x.to_bits() + 1);
    vec![
        matrix(&[0.0, 1.0]),
        matrix(&[-0.0, 1.0]),
        matrix(&[1.0, 0.0]),
        matrix(&[1.0, -0.0]),
        matrix(&[up(1.0), 0.0]),
        matrix(&[0.0, up(1.0)]),
        matrix(&[f64::NAN, 2.0]),
        Content::new(ContentBody::Text("not a matrix".to_string())),
    ]
}

/// Content equality with floats compared by bit pattern, written apart
/// from the server's so a weakened comparison there cannot hide here.
fn same_bits(a: &Content, b: &Content) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    match (a.body(), b.body()) {
        (
            ContentBody::Matrix {
                row_names: ra,
                col_names: ca,
                values: va,
            },
            ContentBody::Matrix {
                row_names: rb,
                col_names: cb,
                values: vb,
            },
        ) => ra == rb && ca == cb && bits(va) == bits(vb),
        _ => a == b,
    }
}

fn spec(name: &str, dtype: &str) -> OutputSpec {
    OutputSpec {
        name: name.to_string(),
        dtype: dtype.to_string(),
    }
}

fn matrix_values<'a>(inv: &ToolInvocation<'a>, name: &str) -> Result<&'a [f64], ToolError> {
    match inv.input(name).map(Content::body) {
        Some(ContentBody::Matrix { values, .. }) => Ok(values),
        _ => Err(ToolError(format!("{name} must be a matrix"))),
    }
}

/// `probe`: a textual summary that shows every float's sign and last bit,
/// plus the matrix scaled by the `scale` parameter. It returns its
/// outputs in the reverse of their declared order. `tag` marks which
/// registry generation built it; every second generation bumps the
/// version.
fn probe_tool(tag: usize, runs: Arc<AtomicUsize>) -> ToolDefinition {
    ToolDefinition {
        id: "probe".to_string(),
        name: "probe".to_string(),
        version: format!("1.{}", tag / 2),
        description: "summarizes and scales a matrix".to_string(),
        params: vec![
            ParamSpec::dataset("a", "Matrix"),
            ParamSpec::select("scale", "Scale", &["1", "-1", "2"], "1"),
        ],
        outputs: vec![spec("summary", "txt"), spec("scaled", "tabular")],
        cost: CostModel::LIGHT,
        behavior: Arc::new(move |inv: &ToolInvocation| {
            runs.fetch_add(1, Ordering::Relaxed);
            let Some(ContentBody::Matrix {
                row_names,
                col_names,
                values,
            }) = inv.input("a").map(Content::body)
            else {
                return Err(ToolError("a must be a matrix".to_string()));
            };
            let scale: f64 = inv.param("scale").unwrap_or("1").parse().unwrap();
            Ok(vec![
                ToolOutput {
                    name: "scaled".to_string(),
                    dataset_name: "scaled matrix".to_string(),
                    content: Content::new(ContentBody::Matrix {
                        row_names: row_names.clone(),
                        col_names: col_names.clone(),
                        values: values.iter().map(|v| v * scale).collect(),
                    }),
                    size: None,
                },
                ToolOutput {
                    name: "summary".to_string(),
                    dataset_name: format!("summary v{tag}"),
                    content: Content::new(ContentBody::Text(format!(
                        "v{tag} {values:?} x{scale} in {}",
                        inv.input_size
                    ))),
                    size: Some(DataSize::from_kb(1)),
                },
            ])
        }),
    }
}

/// `pair`: joins the exact bits of two inputs.
fn pair_tool(runs: Arc<AtomicUsize>) -> ToolDefinition {
    ToolDefinition {
        id: "pair".to_string(),
        name: "pair".to_string(),
        version: "1.0".to_string(),
        description: "joins two inputs".to_string(),
        params: vec![ParamSpec::dataset("a", "A"), ParamSpec::dataset("b", "B")],
        outputs: vec![spec("joined", "txt")],
        cost: CostModel::LIGHT,
        behavior: Arc::new(move |inv: &ToolInvocation| {
            runs.fetch_add(1, Ordering::Relaxed);
            let a = matrix_values(inv, "a")?;
            let b = matrix_values(inv, "b")?;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            Ok(vec![ToolOutput {
                name: "joined".to_string(),
                dataset_name: "joined".to_string(),
                content: Content::new(ContentBody::Text(format!(
                    "{:x?} | {:x?}",
                    bits(a),
                    bits(b)
                ))),
                size: None,
            }])
        }),
    }
}

/// `flaky`: fails when its input's first value carries a sign bit.
fn flaky_tool(runs: Arc<AtomicUsize>) -> ToolDefinition {
    ToolDefinition {
        id: "flaky".to_string(),
        name: "flaky".to_string(),
        version: "1.0".to_string(),
        description: "fails on negative-signed input".to_string(),
        params: vec![ParamSpec::dataset("a", "Matrix")],
        outputs: vec![spec("out", "txt")],
        cost: CostModel::LIGHT,
        behavior: Arc::new(move |inv: &ToolInvocation| {
            runs.fetch_add(1, Ordering::Relaxed);
            let values = matrix_values(inv, "a")?;
            if values.first().is_some_and(|v| v.is_sign_negative()) {
                return Err(ToolError("negative-signed first value".to_string()));
            }
            Ok(vec![ToolOutput {
                name: "out".to_string(),
                dataset_name: "flaky output".to_string(),
                content: Content::new(ContentBody::Text(format!("{values:?}"))),
                size: None,
            }])
        }),
    }
}

/// What the test recorded about a job when it submitted it.
struct Submitted {
    tool_id: String,
    params: BTreeMap<String, String>,
    inputs: BTreeMap<String, DatasetId>,
    at: SimTime,
}

/// The server, a history, one behavior-run counter per tool, and the
/// test's own record of each job.
struct World {
    server: GalaxyServer,
    pool: CondorPool,
    history: HistoryId,
    probe_runs: Arc<AtomicUsize>,
    pair_runs: Arc<AtomicUsize>,
    flaky_runs: Arc<AtomicUsize>,
    generation: usize,
    /// Seconds on the test's clock; every submit and completion ticks it.
    clock: u64,
    submitted: BTreeMap<GalaxyJobId, Submitted>,
    /// Completions with the version that ran, by job.
    ran: BTreeMap<GalaxyJobId, (String, SimTime)>,
    /// Ok completions whose version differs from the one at submission.
    version_changes: usize,
}

impl World {
    fn new() -> World {
        let probe_runs = Arc::new(AtomicUsize::new(0));
        let pair_runs = Arc::new(AtomicUsize::new(0));
        let flaky_runs = Arc::new(AtomicUsize::new(0));
        let mut server = GalaxyServer::new(NodeId(0), None);
        server.register_user(USER);
        let history = server.create_history(t(0), USER, "memo").unwrap();
        let mut world = World {
            server,
            pool: CondorPool::new(),
            history,
            probe_runs,
            pair_runs,
            flaky_runs,
            generation: 0,
            clock: 0,
            submitted: BTreeMap::new(),
            ran: BTreeMap::new(),
            version_changes: 0,
        };
        world.server.registry = world.registry();
        world
    }

    /// A registry whose `probe` has a behavior of its own (a new
    /// allocation that tags its summary with the generation), under the
    /// same id as every earlier one; see [`probe_tool`] for its version.
    fn registry(&self) -> ToolRegistry {
        let mut registry = ToolRegistry::new();
        let current = |id: &str| self.server.registry.tool(id).ok().cloned();
        let pair = current("pair").unwrap_or_else(|| pair_tool(Arc::clone(&self.pair_runs)));
        let flaky = current("flaky").unwrap_or_else(|| flaky_tool(Arc::clone(&self.flaky_runs)));
        let probe = probe_tool(self.generation, Arc::clone(&self.probe_runs));
        for tool in [probe, pair, flaky] {
            registry.register("Test", tool).unwrap();
        }
        registry
    }

    fn replace_registry(&mut self) {
        self.generation += 1;
        self.server.registry = self.registry();
    }

    fn upload(&mut self, name: &str, content: Content) -> DatasetId {
        let size = DataSize::from_kb(1 + content.natural_size().as_bytes());
        self.server
            .add_dataset(t(0), self.history, name, "tabular", size, content)
            .unwrap()
    }

    fn tick(&mut self) -> SimTime {
        self.clock += 1;
        t(self.clock)
    }

    fn submit(&mut self, tool: &str, bindings: &[(&str, String)]) -> GalaxyJobId {
        let params: BTreeMap<String, String> = bindings
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let inputs = bindings
            .iter()
            .filter_map(|(k, v)| {
                let id = v.strip_prefix("dataset-")?.parse().unwrap();
                Some((k.to_string(), DatasetId(id)))
            })
            .collect();
        let definition = self.server.registry.tool(tool).unwrap();
        let submitted = Submitted {
            tool_id: tool.to_string(),
            params: definition.resolve_params(&params).unwrap(),
            inputs,
            at: self.tick(),
        };
        let job = self
            .server
            .run_tool(
                submitted.at,
                USER,
                self.history,
                tool,
                &params,
                &mut self.pool,
            )
            .unwrap();
        self.submitted.insert(job, submitted);
        job
    }

    fn complete(&mut self, job: GalaxyJobId) {
        let condor = self.server.job(job).unwrap().condor_job.unwrap();
        let at_submit = self.server.job(job).unwrap().tool_version.clone();
        let tool_id = &self.submitted[&job].tool_id;
        let version = self.server.registry.tool(tool_id).unwrap().version.clone();
        let now = self.tick();
        assert_eq!(self.server.on_condor_completion(now, condor), Some(job));
        if self.server.job(job).unwrap().state == GalaxyJobState::Ok && version != at_submit {
            self.version_changes += 1;
        }
        self.ran.insert(job, (version, now));
    }

    fn set_content(&mut self, ds: DatasetId, content: Content) {
        self.server.dataset_mut(ds).unwrap().content = content;
    }

    /// Every output of the completed `job` equals what the registered
    /// behavior computes on the invocation rebuilt from the datasets as
    /// they are now.
    fn check_against_reference(&self, job: GalaxyJobId) {
        self.check_provenance(job);
        let job = self.server.job(job).unwrap();
        let tool = self.server.registry.tool(&job.tool_id).unwrap();
        let dataset = |id: &DatasetId| self.server.dataset(*id).unwrap();
        let inv = ToolInvocation {
            params: job
                .params
                .iter()
                .filter(|(name, _)| !job.inputs.contains_key(*name))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            inputs: job
                .inputs
                .iter()
                .map(|(name, id)| (name.clone(), &dataset(id).content))
                .collect(),
            input_size: job
                .inputs
                .values()
                .map(|id| dataset(id).size)
                .fold(DataSize::ZERO, |a, b| a + b),
        };
        match tool.behavior.run(&inv) {
            Ok(outputs) => {
                assert_eq!(job.state, GalaxyJobState::Ok, "{:?}", job.error);
                for (declared, id) in tool.outputs.iter().zip(&job.outputs) {
                    let want = outputs.iter().find(|o| o.name == declared.name).unwrap();
                    let got = dataset(id);
                    assert_eq!(got.state, DatasetState::Ok);
                    assert!(
                        same_bits(&got.content, &want.content),
                        "{}: {:?} != {:?}",
                        declared.name,
                        got.content,
                        want.content
                    );
                    assert_eq!(got.name, want.dataset_name);
                    let size = want.size.unwrap_or_else(|| want.content.natural_size());
                    assert_eq!(got.size, size);
                }
            }
            Err(e) => {
                assert_eq!(job.state, GalaxyJobState::Error);
                assert_eq!(job.error.as_deref(), Some(e.0.as_str()));
                for id in &job.outputs {
                    assert_eq!(dataset(id).state, DatasetState::Error);
                }
            }
        }
    }

    /// An Ok job's outputs each have provenance naming what the test
    /// recorded at submission and completion, and the job is the last
    /// step of their replay plans; a failed job's outputs have none.
    fn check_provenance(&self, job: GalaxyJobId) {
        let want = &self.submitted[&job];
        let (version, finished) = &self.ran[&job];
        let record = self.server.job(job).unwrap();
        for &out in &record.outputs {
            if record.state == GalaxyJobState::Error {
                assert!(self.server.provenance(out).is_none());
                assert!(self.server.lineage(out).unwrap().is_empty());
                continue;
            }
            let rec = self
                .server
                .provenance(out)
                .expect("an Ok output has provenance");
            assert_eq!(rec.id, job);
            assert_eq!(rec.tool_id, want.tool_id);
            assert_eq!(rec.tool_version, *version, "the version that ran");
            assert_eq!(rec.params, want.params);
            assert_eq!(rec.inputs, want.inputs);
            assert_eq!(
                (rec.submitted_at, rec.finished_at),
                (want.at, Some(*finished))
            );
            let plan = self.server.replay_plan(out).unwrap();
            assert_eq!(plan.last().map(|j| j.id), Some(job));
        }
    }

    /// Outputs of jobs not yet completed have no provenance.
    fn check_pending(&self, in_flight: &[GalaxyJobId]) {
        for job in in_flight {
            for &out in &self.server.job(*job).unwrap().outputs {
                assert_eq!(
                    self.server.dataset(out).unwrap().state,
                    DatasetState::Pending
                );
                assert!(self.server.provenance(out).is_none());
                assert!(self.server.replay_plan(out).unwrap().is_empty());
            }
        }
    }
}

fn dataset_ref(id: DatasetId) -> String {
    format!("dataset-{}", id.0)
}

/// One seeded sequence of uploads, submits, in-place edits, registry
/// swaps and completions, checked against the reference after every
/// completion. Returns how many completions it checked and how many of
/// those ran a version other than the one submitted.
fn run_sequence(seed: u64, ops: usize) -> (usize, usize) {
    let mut rng = RngStream::derive(seed, "tool-memo-props");
    let pool = content_pool();
    let mut w = World::new();
    let mut ready: Vec<DatasetId> = Vec::new();
    for i in 0..4 {
        let content = rng.choose(&pool).clone();
        ready.push(w.upload(&format!("upload-{i}.tsv"), content));
    }
    let mut in_flight: Vec<GalaxyJobId> = Vec::new();
    let mut checked = 0;
    for step in 0..ops {
        let roll = rng.uniform();
        if roll < 0.40 {
            let a = dataset_ref(*rng.choose(&ready));
            let job = match rng.uniform_int(0, 2) {
                0 => {
                    let scale = rng.choose(&["1", "-1", "2"]).to_string();
                    w.submit("probe", &[("a", a), ("scale", scale)])
                }
                1 => {
                    let b = dataset_ref(*rng.choose(&ready));
                    w.submit("pair", &[("a", a), ("b", b)])
                }
                _ => w.submit("flaky", &[("a", a)]),
            };
            in_flight.push(job);
        } else if roll < 0.75 {
            if in_flight.is_empty() {
                continue;
            }
            let i = rng.uniform_int(0, in_flight.len() as u64 - 1) as usize;
            let job = in_flight.swap_remove(i);
            w.complete(job);
            w.check_against_reference(job);
            w.check_pending(&in_flight);
            checked += 1;
            // Successful outputs join the pool of possible inputs.
            for &out in &w.server.job(job).unwrap().outputs {
                if w.server.dataset(out).unwrap().state == DatasetState::Ok {
                    ready.push(out);
                }
            }
        } else if roll < 0.87 {
            let ds = *rng.choose(&ready);
            let content = rng.choose(&pool).clone();
            w.set_content(ds, content);
        } else if roll < 0.96 {
            // The same contents under a fresh id and name.
            let content = rng.choose(&pool).clone();
            ready.push(w.upload(&format!("copy-{step}.tsv"), content));
        } else {
            w.replace_registry();
        }
    }
    for job in in_flight {
        w.complete(job);
        w.check_against_reference(job);
        checked += 1;
    }
    (checked, w.version_changes)
}

#[test]
fn every_completion_equals_a_fresh_run_of_its_invocation() {
    let (mut checked, mut version_changes) = (0, 0);
    for seed in 0..48 {
        let (c, v) = run_sequence(seed, 160);
        checked += c;
        version_changes += v;
    }
    assert!(checked > 2_000, "only {checked} completions checked");
    assert!(
        version_changes > 0,
        "no completion ran a version other than the one submitted"
    );
}

#[test]
fn a_forged_producer_is_a_typed_cycle() {
    // The upload claims to come from the job that read it.
    let mut w = World::new();
    let ds = w.upload("x.tsv", matrix(&[0.0, 1.0]));
    let job = w.submit("probe", &[("a", dataset_ref(ds))]);
    w.complete(job);
    let out = w.server.job(job).unwrap().outputs[0];
    assert_eq!(w.server.lineage(out).unwrap(), vec![ds]);
    w.server.dataset_mut(ds).unwrap().produced_by = Some(job);
    for d in [ds, out] {
        assert_eq!(w.server.lineage(d), Err(CyclicProvenance { dataset: ds }));
        assert_eq!(
            w.server.replay_plan(d).unwrap_err(),
            CyclicProvenance { dataset: ds }
        );
    }
}

#[test]
fn a_sign_flip_between_submit_and_completion_misses() {
    let mut w = World::new();
    let ds = w.upload("x.tsv", matrix(&[0.0, 1.0]));
    let first = w.submit("probe", &[("a", dataset_ref(ds))]);
    w.complete(first);
    // The second job is keyed on the +0.0 contents it was submitted on,
    // but completes on -0.0.
    let second = w.submit("probe", &[("a", dataset_ref(ds))]);
    w.set_content(ds, matrix(&[-0.0, 1.0]));
    w.complete(second);
    w.check_against_reference(second);
    let summary = w.server.job(second).unwrap().outputs[0];
    let ContentBody::Text(text) = w.server.dataset(summary).unwrap().content.body() else {
        panic!("summary is text");
    };
    assert!(text.contains("-0.0"), "{text}");
}

#[test]
fn repeats_run_once_and_distinct_invocations_run_every_time() {
    let mut w = World::new();
    let runs = |w: &World| w.probe_runs.load(Ordering::Relaxed);
    let copies: Vec<DatasetId> = (0..3)
        .map(|i| w.upload(&format!("copy-{i}.tsv"), matrix(&[0.0, 1.0])))
        .collect();
    let other = w.upload("other.tsv", matrix(&[-0.0, 1.0]));

    // Identical contents under three ids and names: one run.
    let jobs: Vec<GalaxyJobId> = copies
        .iter()
        .map(|&ds| w.submit("probe", &[("a", dataset_ref(ds))]))
        .collect();
    for job in jobs {
        w.complete(job);
    }
    assert_eq!(runs(&w), 1);

    // A different value parameter, then different contents: one run each.
    let job = w.submit(
        "probe",
        &[("a", dataset_ref(copies[0])), ("scale", "2".into())],
    );
    w.complete(job);
    assert_eq!(runs(&w), 2);
    let job = w.submit("probe", &[("a", dataset_ref(other))]);
    w.complete(job);
    assert_eq!(runs(&w), 3);

    // A repeat of the first invocation still costs nothing.
    let job = w.submit("probe", &[("a", dataset_ref(copies[2]))]);
    w.complete(job);
    assert_eq!(runs(&w), 3);

    // A new behavior under the same id and version runs again, once.
    w.replace_registry();
    for ds in [copies[0], copies[1]] {
        let job = w.submit("probe", &[("a", dataset_ref(ds))]);
        w.complete(job);
    }
    assert_eq!(runs(&w), 4);

    // Errors are never stored: each failing completion runs the behavior.
    for _ in 0..3 {
        let job = w.submit("flaky", &[("a", dataset_ref(other))]);
        w.complete(job);
        assert_eq!(w.server.job(job).unwrap().state, GalaxyJobState::Error);
    }
    assert_eq!(w.flaky_runs.load(Ordering::Relaxed), 3);

    // Two-input runs key on both inputs.
    for (a, b) in [(0, 1), (1, 2), (0, 1)] {
        let a = dataset_ref(copies[a]);
        let b = dataset_ref(copies[b]);
        let job = w.submit("pair", &[("a", a), ("b", b)]);
        w.complete(job);
    }
    let job = w.submit(
        "pair",
        &[("a", dataset_ref(other)), ("b", dataset_ref(copies[0]))],
    );
    w.complete(job);
    assert_eq!(w.pair_runs.load(Ordering::Relaxed), 2);
}
