//! Seeded property suite for content ids carried by the `Content` handle.
//!
//! `Content::content_id` hashes a value at most once and shares the id
//! with every clone of the handle. These properties hold the cached ids to
//! a canonical FNV-1a hasher written out here, apart from the library's,
//! over all six body variants: signed zeros, NaNs with distinct payloads,
//! 1-ULP neighbours, infinities, subnormals, and empty and non-ASCII names.
//!
//! Through the server, seeded sequences upload contents, replace dataset
//! contents in place (fresh values and handles shared with other
//! datasets), submit jobs and complete them (a memo hit hands out shared
//! output handles), and check every submitted job's `InputCids` ad and
//! every dataset's id against the reference computed from the bodies the
//! datasets hold at that moment.

use std::collections::BTreeMap;
use std::sync::Arc;

use cumulus_galaxy::{
    Content, ContentBody, CostModel, Dataset, DatasetId, GalaxyJobId, GalaxyServer, HistoryId,
    OutputSpec, ParamSpec, ToolDefinition, ToolInvocation, ToolOutput,
};
use cumulus_htc::{CondorPool, Value, JOB_INPUT_CIDS_ATTR};
use cumulus_net::{DataSize, NodeId};
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::time::SimTime;
use cumulus_store::ContentId;

const USER: &str = "boliu";

/// FNV-1a over the canonical serialization: one discriminant byte per
/// variant, little-endian `u64` length prefixes, strings as length plus
/// UTF-8 bytes, floats by bit pattern. The multiplier is the one
/// `cumulus_store::ContentHasher` has always used, `0x1000_0000_01b3`
/// (2^44 + 0x1b3, not the published 64-bit FNV prime 2^40 + 0x1b3), so
/// the ids every recorded digest depends on keep their bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn strs(&mut self, items: &[String]) {
        self.u64(items.len() as u64);
        for s in items {
            self.str(s);
        }
    }
}

/// The reference id of a body.
fn reference_id(body: &ContentBody) -> ContentId {
    let mut h = Fnv::new();
    match body {
        ContentBody::Text(s) => {
            h.bytes(&[0]);
            h.str(s);
        }
        ContentBody::Table { columns, rows } => {
            h.bytes(&[1]);
            h.strs(columns);
            h.u64(rows.len() as u64);
            for row in rows {
                h.strs(row);
            }
        }
        ContentBody::Svg(s) => {
            h.bytes(&[2]);
            h.str(s);
        }
        ContentBody::Archive { members } => {
            h.bytes(&[3]);
            h.u64(members.len() as u64);
            for (name, bytes) in members {
                h.str(name);
                h.u64(*bytes);
            }
        }
        ContentBody::Matrix {
            row_names,
            col_names,
            values,
        } => {
            h.bytes(&[4]);
            h.strs(row_names);
            h.strs(col_names);
            h.u64(values.len() as u64);
            for v in values {
                h.u64(v.to_bits());
            }
        }
        ContentBody::Opaque => h.bytes(&[5]),
    }
    ContentId(h.0)
}

/// The reference id of a dataset: opaque contents fold in the declared
/// size and the name.
fn reference_dataset_id(ds: &Dataset) -> ContentId {
    match ds.content.body() {
        ContentBody::Opaque => {
            let mut h = Fnv::new();
            h.bytes(&[5]);
            h.u64(ds.size.as_bytes());
            h.str(&ds.name);
            ContentId(h.0)
        }
        body => reference_id(body),
    }
}

/// Bodies equal with floats compared by bit pattern.
fn same_bits(a: &ContentBody, b: &ContentBody) -> bool {
    match (a, b) {
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
        ) => {
            ra == rb
                && ca == cb
                && va.len() == vb.len()
                && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => a == b,
    }
}

/// Names, including empty and non-ASCII ones.
const NAMES: &[&str] = &["", "probe_1", "é", "日本語", "a,b", "GSM\u{0}1", "🧬"];

/// Floats: signed zeros, NaNs with distinct payloads and signs, 1-ULP
/// neighbours of one, infinities and the smallest subnormal.
fn floats() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0,
        f64::from_bits(1.0f64.to_bits() + 1),
        f64::from_bits(1.0f64.to_bits() - 1),
        f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0xfff8_0000_0000_0000),
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(1),
    ]
}

fn names(rng: &mut RngStream, max: u64) -> Vec<String> {
    (0..rng.uniform_int(0, max))
        .map(|_| rng.choose(NAMES).to_string())
        .collect()
}

/// A random body of variant `variant` (0–5, in declaration order).
fn body(rng: &mut RngStream, variant: u64) -> ContentBody {
    match variant {
        0 => ContentBody::Text(rng.choose(NAMES).to_string()),
        1 => ContentBody::Table {
            columns: names(rng, 3),
            rows: (0..rng.uniform_int(0, 3)).map(|_| names(rng, 3)).collect(),
        },
        2 => ContentBody::Svg(format!("<svg>{}</svg>", rng.choose(NAMES))),
        3 => ContentBody::Archive {
            members: (0..rng.uniform_int(0, 3))
                .map(|_| (rng.choose(NAMES).to_string(), rng.uniform_int(0, 3)))
                .collect(),
        },
        4 => {
            let row_names = names(rng, 2);
            let col_names = names(rng, 2);
            let floats = floats();
            let values = (0..row_names.len() * col_names.len())
                .map(|_| *rng.choose(&floats))
                .collect();
            ContentBody::Matrix {
                row_names,
                col_names,
                values,
            }
        }
        _ => ContentBody::Opaque,
    }
}

fn any_body(rng: &mut RngStream) -> ContentBody {
    let variant = rng.uniform_int(0, 5);
    body(rng, variant)
}

#[test]
fn cached_ids_match_the_reference_on_values_clones_and_survivors() {
    let mut rng = RngStream::derive(7, "content-id-props/values");
    for round in 0..6_000 {
        let variant = round % 6;
        let body = body(&mut rng, variant);
        let want = reference_id(&body);
        let original = Content::new(body);
        let clone = original.clone();
        // Whichever handle asks first, both see the reference id; the
        // survivor keeps it after the other handle is dropped.
        let (first, survivor) = if round % 2 == 0 {
            (original, clone)
        } else {
            (clone, original)
        };
        match round % 3 {
            0 => assert_eq!(first.content_id(), want, "{first:?}"),
            1 => assert_eq!(survivor.content_id(), want, "{survivor:?}"),
            _ => {}
        }
        drop(first);
        assert_eq!(survivor.content_id(), want, "{survivor:?}");
        assert_eq!(survivor.clone().content_id(), want, "{survivor:?}");
        // A fresh value over the same bits, perhaps at the address just
        // freed, hashes to the same id.
        let fresh = Content::new(survivor.body().clone());
        drop(survivor);
        assert_eq!(fresh.content_id(), want, "{fresh:?}");
    }
}

#[test]
fn equality_keeps_float_semantics_while_ids_follow_bits() {
    let matrix = |v: f64| {
        Content::new(ContentBody::Matrix {
            row_names: vec!["probe_1".to_string()],
            col_names: vec!["é".to_string()],
            values: vec![v],
        })
    };
    let (pos, neg) = (matrix(0.0), matrix(-0.0));
    assert_eq!(pos, neg);
    assert_ne!(pos.content_id(), neg.content_id());
    let nan = matrix(f64::NAN);
    assert_ne!(nan, nan.clone());
    assert_eq!(nan.content_id(), nan.clone().content_id());
    let one = matrix(1.0);
    let next = matrix(f64::from_bits(1.0f64.to_bits() + 1));
    assert_ne!(one, next);
    assert_ne!(one.content_id(), next.content_id());

    let mut rng = RngStream::derive(7, "content-id-props/pairs");
    for _ in 0..20_000 {
        let (a, b) = (any_body(&mut rng), any_body(&mut rng));
        let (ca, cb) = (Content::new(a.clone()), Content::new(b.clone()));
        assert_eq!(ca == cb, a == b, "{a:?} vs {b:?}");
        assert_eq!(
            ca.content_id() == cb.content_id(),
            same_bits(&a, &b),
            "{a:?} vs {b:?}"
        );
    }
}

/// A tool over two dataset inputs: `same` hands back input `a`'s handle,
/// `summary` describes input `b`.
fn pair_tool() -> ToolDefinition {
    let spec = |name: &str| OutputSpec {
        name: name.to_string(),
        dtype: "data".to_string(),
    };
    ToolDefinition {
        id: "pair".to_string(),
        name: "pair".to_string(),
        version: "1.0".to_string(),
        description: "passes one input through and describes another".to_string(),
        params: vec![ParamSpec::dataset("a", "A"), ParamSpec::dataset("b", "B")],
        outputs: vec![spec("same"), spec("summary")],
        cost: CostModel::LIGHT,
        behavior: Arc::new(|inv: &ToolInvocation| {
            let a = inv.input("a").expect("a is bound");
            let b = inv.input("b").expect("b is bound");
            Ok(vec![
                ToolOutput {
                    name: "same".to_string(),
                    dataset_name: "same".to_string(),
                    content: a.clone(),
                    size: None,
                },
                ToolOutput {
                    name: "summary".to_string(),
                    dataset_name: "summary".to_string(),
                    content: Content::new(ContentBody::Text(format!("{:?}", b.body()))),
                    size: None,
                },
            ])
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
        server.registry.register("Test", pair_tool()).unwrap();
        server.register_user(USER);
        let history = server.create_history(SimTime::ZERO, USER, "ids").unwrap();
        World {
            server,
            pool: CondorPool::new(),
            history,
        }
    }

    fn upload(&mut self, name: &str, content: Content) -> DatasetId {
        self.server
            .add_dataset(
                SimTime::ZERO,
                self.history,
                name,
                "data",
                DataSize::from_kb(1),
                content,
            )
            .unwrap()
    }

    /// Submit `pair` on `a` and `b`, and check its ad against the
    /// reference ids of the datasets' current bodies.
    fn submit_and_check(&mut self, a: DatasetId, b: DatasetId) -> GalaxyJobId {
        let params: BTreeMap<String, String> = [("a", a), ("b", b)]
            .into_iter()
            .map(|(k, ds)| (k.to_string(), format!("dataset-{}", ds.0)))
            .collect();
        let job = self
            .server
            .run_tool(
                SimTime::ZERO,
                USER,
                self.history,
                "pair",
                &params,
                &mut self.pool,
            )
            .unwrap();
        let mut ids: Vec<ContentId> = [a, b]
            .iter()
            .map(|&ds| reference_dataset_id(self.server.dataset(ds).unwrap()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let want = ids
            .iter()
            .map(|c| format!("{:016x}", c.0))
            .collect::<Vec<_>>()
            .join(",");
        let condor = self.server.job(job).unwrap().condor_job.unwrap();
        let ad = self.pool.job(condor).unwrap().ad();
        assert_eq!(ad.get(JOB_INPUT_CIDS_ATTR), Value::Str(want));
        job
    }

    /// Every dataset's id equals the reference over what it holds now.
    fn check_every_dataset(&self, datasets: &[DatasetId]) {
        for &id in datasets {
            let ds = self.server.dataset(id).unwrap();
            assert_eq!(ds.content_id(), reference_dataset_id(ds), "{id}");
            assert_eq!(ds.content.content_id(), reference_id(ds.content.body()));
        }
    }
}

/// One seeded sequence; returns how many job ads it checked.
fn run_sequence(seed: u64, ops: usize) -> usize {
    let mut rng = RngStream::derive(seed, "content-id-props/server");
    let mut w = World::new();
    let mut datasets: Vec<DatasetId> = (0..3)
        .map(|i| {
            let body = any_body(&mut rng);
            w.upload(&format!("upload-{i}"), Content::new(body))
        })
        .collect();
    let mut in_flight: Vec<GalaxyJobId> = Vec::new();
    let mut checked = 0;
    for step in 0..ops {
        let roll = rng.uniform();
        if roll < 0.35 {
            let a = *rng.choose(&datasets);
            let b = *rng.choose(&datasets);
            in_flight.push(w.submit_and_check(a, b));
            checked += 1;
        } else if roll < 0.55 {
            // Replace a dataset's content with a fresh value, or with a
            // handle another dataset already holds.
            let target = *rng.choose(&datasets);
            let content = if rng.uniform() < 0.5 {
                Content::new(any_body(&mut rng))
            } else {
                let other = *rng.choose(&datasets);
                w.server.dataset(other).unwrap().content.clone()
            };
            // Ask the old handle for its id first, so a cache that
            // outlived the swap would be wrong.
            let old = w.server.dataset(target).unwrap();
            assert_eq!(old.content_id(), reference_dataset_id(old));
            w.server.dataset_mut(target).unwrap().content = content;
        } else if roll < 0.80 {
            if in_flight.is_empty() {
                continue;
            }
            let i = rng.uniform_int(0, in_flight.len() as u64 - 1) as usize;
            let job = in_flight.swap_remove(i);
            let condor = w.server.job(job).unwrap().condor_job.unwrap();
            w.server.on_condor_completion(SimTime::ZERO, condor);
            datasets.extend(w.server.job(job).unwrap().outputs.iter().copied());
        } else {
            let body = any_body(&mut rng);
            let name = *rng.choose(NAMES);
            datasets.push(w.upload(name, Content::new(body)));
        }
        if step % 8 == 0 {
            w.check_every_dataset(&datasets);
        }
    }
    w.check_every_dataset(&datasets);
    checked
}

#[test]
fn every_job_ad_names_the_reference_ids_of_its_inputs() {
    let mut checked = 0;
    for seed in 0..32 {
        checked += run_sequence(seed, 120);
    }
    assert!(checked > 1_000, "only {checked} job ads checked");
}
