//! Property-style tests of autocluster signature sharing. Jobs whose
//! builders set bitwise-equal requirements, rank, ad attributes and owner
//! must share one signature allocation, every other pair must not; jobs
//! whose requirements and rank trees are bitwise-equal must share one
//! compiled program, every other pair must not; and every job must read
//! back exactly what its builder set — live, retired, or pulled back
//! out of the history by `remove_job`. Hold reasons are checked against
//! a model of the pool's documented behaviour through holds, releases
//! and removals. Cases come from deterministic seeded streams (the
//! offline build ships no proptest).

use std::collections::BTreeMap;

use cumulus_htc::{CondorPool, Expr, Job, JobId, JobState, Machine, Value, WorkSpec};
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::time::{SimDuration, SimTime};

const CASES: u64 = 64;

/// Requirements sources with their tree class: equal classes parse to
/// equal trees. `memory` compiles to the same program as `Memory` but is
/// a different tree, so it must read back as written.
const REQUIREMENTS: &[(&str, u8)] = &[
    ("true", 0),
    ("Memory >= 1024", 1),
    ("(Memory >= 1024)", 1),
    ("Memory>=1024", 1),
    ("memory >= 1024", 2),
    ("Memory >= 0.0", 3),
    ("Memory >= -0.0", 4),
    ("Memory >= 0", 5),
    ("Memory >= 4096 && Cpus >= 1", 6),
];

/// Rank sources with their tree class, as for [`REQUIREMENTS`].
const RANKS: &[(&str, u8)] = &[
    ("ComputeUnits", 0),
    ("(ComputeUnits)", 0),
    ("computeunits", 1),
    ("0", 2),
    ("0.0", 3),
    ("-0.0", 4),
];

const OWNERS: &[&str] = &["u", "v", "U"];

/// Job-ad attributes a builder may set.
const ATTRS: &[&str] = &["RequestMemory", "Flavor", "Weight", "InputCids"];

/// Two NaNs with different payloads: `PartialEq` calls neither equal to
/// itself, and bitwise they differ from each other.
const NAN_A: u64 = 0x7ff8_0000_0000_0001;
const NAN_B: u64 = 0x7ff8_0000_0000_0002;

/// Attribute values, pairwise bitwise-distinct (so a value's index is its
/// bitwise identity), including pairs `PartialEq` confuses: `0.0` and
/// `-0.0`, and NaNs.
fn value(ix: usize) -> Value {
    match ix {
        0 => Value::Int(1),
        1 => Value::Int(0),
        2 => Value::Float(0.0),
        3 => Value::Float(-0.0),
        4 => Value::Float(f64::from_bits(NAN_A)),
        5 => Value::Float(f64::from_bits(NAN_B)),
        6 => Value::Float(1.5),
        7 => Value::Str(String::new()),
        8 => Value::Str("00000000000000aa".into()),
        9 => Value::Str("00000000000000aa,00000000000000bb".into()),
        10 => Value::Bool(true),
        _ => Value::Bool(false),
    }
}

const VALUES: usize = 12;

/// Bitwise value equality: floats by bit pattern.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// What a builder set, and the key two builders are cluster-mates by.
#[derive(Debug, Clone)]
struct Spec {
    req: usize,
    rank: usize,
    owner: usize,
    /// Attribute → value index.
    attrs: BTreeMap<usize, usize>,
}

impl Spec {
    /// The key two builders share a program by: their trees.
    fn program_key(&self) -> (u8, u8) {
        (REQUIREMENTS[self.req].1, RANKS[self.rank].1)
    }

    fn mate_key(&self) -> (u8, u8, usize, &BTreeMap<usize, usize>) {
        (
            REQUIREMENTS[self.req].1,
            RANKS[self.rank].1,
            self.owner,
            &self.attrs,
        )
    }
}

fn gen_spec(rng: &mut RngStream) -> Spec {
    let mut attrs = BTreeMap::new();
    for a in 0..ATTRS.len() {
        if rng.chance(0.4) {
            attrs.insert(a, rng.uniform_int(0, VALUES as u64 - 1) as usize);
        }
    }
    // A signed zero or a NaN, so bitwise-only twins exist.
    attrs.insert(2, rng.uniform_int(2, 5) as usize);
    Spec {
        req: rng.uniform_int(0, REQUIREMENTS.len() as u64 - 1) as usize,
        rank: rng.uniform_int(0, RANKS.len() as u64 - 1) as usize,
        owner: rng.uniform_int(0, OWNERS.len() as u64 - 1) as usize,
        attrs,
    }
}

/// A variant of `spec`: equal, equal through a different source of the
/// same tree, bitwise-different only (`0.0` ↔ `-0.0`, one NaN payload ↔
/// the other), or different in requirements, rank, owner or attributes.
fn vary(spec: &Spec, rng: &mut RngStream) -> Spec {
    let mut v = spec.clone();
    let same_class = |table: &[(&str, u8)], ix: usize, rng: &mut RngStream| {
        let class: Vec<usize> = (0..table.len())
            .filter(|&i| table[i].1 == table[ix].1)
            .collect();
        class[rng.uniform_int(0, class.len() as u64 - 1) as usize]
    };
    match rng.uniform_int(0, 7) {
        0 | 1 => {}
        2 => {
            v.req = same_class(REQUIREMENTS, v.req, rng);
            v.rank = same_class(RANKS, v.rank, rng);
        }
        3 | 4 => {
            let twin = |x: usize| match x {
                2 => 3,
                3 => 2,
                4 => 5,
                5 => 4,
                other => other,
            };
            for value in v.attrs.values_mut() {
                *value = twin(*value);
            }
        }
        5 => v.req = rng.uniform_int(0, REQUIREMENTS.len() as u64 - 1) as usize,
        6 => v.owner = (v.owner + 1) % OWNERS.len(),
        _ => {
            let a = rng.uniform_int(0, ATTRS.len() as u64 - 1) as usize;
            if v.attrs.remove(&a).is_none() {
                v.attrs
                    .insert(a, rng.uniform_int(0, VALUES as u64 - 1) as usize);
            }
        }
    }
    v
}

/// A builder for `spec`, setting its attributes in a random order, some
/// after a decoy value of the same attribute, and sometimes an `Owner`
/// attribute the builder's owner must override.
fn builder(spec: &Spec, rng: &mut RngStream) -> cumulus_htc::JobBuilder {
    let mut b = Job::new(OWNERS[spec.owner], WorkSpec::serial(30.0))
        .requirements(REQUIREMENTS[spec.req].0)
        .rank(RANKS[spec.rank].0);
    if rng.chance(0.2) {
        b = b.attr("Owner", Value::Str("mallory".into()));
    }
    let mut order: Vec<(&usize, &usize)> = spec.attrs.iter().collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.uniform_int(0, i as u64) as usize);
    }
    for (&a, &v) in order {
        if rng.chance(0.3) {
            b = b.attr(ATTRS[a], value((v + 1) % VALUES));
        }
        b = b.attr(ATTRS[a], value(v));
    }
    b
}

/// The job reads back exactly what its builder set.
fn check_reads_back(pool: &CondorPool, id: JobId, spec: &Spec, context: &str) {
    let job = pool.job(id).unwrap();
    let parsed = |src: &str| format!("{:?}", Expr::parse(src).unwrap());
    assert_eq!(
        format!("{:?}", job.requirements()),
        parsed(REQUIREMENTS[spec.req].0),
        "{context}: requirements of {id}"
    );
    assert_eq!(
        format!("{:?}", job.rank()),
        parsed(RANKS[spec.rank].0),
        "{context}: rank of {id}"
    );
    assert_eq!(job.owner(), OWNERS[spec.owner], "{context}: owner of {id}");
    let ad = job.ad();
    assert_eq!(
        ad.get("Owner"),
        Value::Str(OWNERS[spec.owner].into()),
        "{context}: Owner of {id}"
    );
    assert_eq!(ad.len(), spec.attrs.len() + 1, "{context}: ad size of {id}");
    for (a, name) in ATTRS.iter().enumerate() {
        let want = spec.attrs.get(&a).map_or(Value::Undefined, |&v| value(v));
        let got = ad.get(name);
        assert!(
            same_bits(&got, &want),
            "{context}: {id}.{name} is {got:?}, builder set {want:?}"
        );
    }
}

/// Cluster-mates share one signature allocation; other pairs never do.
/// Jobs whose requirements and rank trees are bitwise-equal share one
/// program, cluster-mates or not; other pairs never do.
fn check_sharing(pool: &CondorPool, jobs: &[(JobId, Spec)], context: &str) {
    for (i, (a, sa)) in jobs.iter().enumerate() {
        let ja = pool.job(*a).unwrap();
        for (b, sb) in &jobs[i + 1..] {
            let jb = pool.job(*b).unwrap();
            let mates = sa.mate_key() == sb.mate_key();
            assert_eq!(
                std::ptr::eq(ja.ad(), jb.ad()),
                mates,
                "{context}: {a} {sa:?} and {b} {sb:?}"
            );
            let same_trees = sa.program_key() == sb.program_key();
            assert_eq!(
                std::ptr::eq(ja.requirements(), jb.requirements()),
                same_trees,
                "{context}: programs of {a} {sa:?} and {b} {sb:?}"
            );
        }
    }
}

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// A seeded pool driven through submissions, negotiation and settle
/// cycles (so jobs run and retire into the history), holds with and
/// without reasons, releases, and removals of idle, running, held,
/// removed and retired jobs. Every touched job is re-read after each
/// step; sharing and every job are checked every 25 steps and at the end.
#[test]
fn cluster_mates_share_one_signature_and_every_job_reads_back_its_builder() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "htc-prop/signature");
        let mut pool = CondorPool::new();
        for m in 0..rng.uniform_int(1, 4) {
            let memory = [512, 2048, 8192][rng.uniform_int(0, 2) as usize];
            pool.add_machine(Machine::new(&format!("m{m}"), 1.0 + m as f64, memory, 1))
                .unwrap();
        }
        // A small family of related specs, so cluster-mates and
        // bitwise-only near misses both come up often.
        let mut family = vec![gen_spec(&mut rng), gen_spec(&mut rng)];
        for _ in 0..6 {
            let parent = &family[rng.uniform_int(0, family.len() as u64 - 1) as usize];
            let child = vary(parent, &mut rng);
            family.push(child);
        }
        let mut jobs: Vec<(JobId, Spec)> = Vec::new();
        let mut reasons: BTreeMap<JobId, String> = BTreeMap::new();
        let mut clock = 0;
        for step in 0..rng.uniform_int(20, 160) {
            let context = format!("case {case} step {step}");
            let pick = |rng: &mut RngStream, jobs: &[(JobId, Spec)]| {
                (!jobs.is_empty())
                    .then(|| jobs[rng.uniform_int(0, jobs.len() as u64 - 1) as usize].0)
            };
            match rng.uniform_int(0, 9) {
                0..=3 => {
                    let spec = family[rng.uniform_int(0, family.len() as u64 - 1) as usize].clone();
                    let id = pool.submit(builder(&spec, &mut rng), t(clock));
                    jobs.push((id, spec));
                }
                4 | 5 => {
                    clock += rng.uniform_int(0, 60);
                    pool.settle(t(clock));
                    pool.negotiate(t(clock));
                }
                6 => {
                    if let Some(id) = pick(&mut rng, &jobs) {
                        let before = pool.job(id).unwrap().state;
                        if rng.chance(0.7) {
                            let reason = format!("backoff {step}");
                            pool.hold_with_reason(id, &reason).unwrap();
                            if matches!(before, JobState::Idle | JobState::Held) {
                                reasons.insert(id, reason);
                            }
                        } else {
                            pool.hold(id).unwrap();
                        }
                    }
                }
                7 => {
                    if let Some(id) = pick(&mut rng, &jobs) {
                        if pool.job(id).unwrap().state == JobState::Held {
                            reasons.remove(&id);
                        }
                        pool.release(id).unwrap();
                    }
                }
                _ => {
                    // Removal keeps a held job's reason readable.
                    if let Some(id) = pick(&mut rng, &jobs) {
                        pool.remove_job(id).unwrap();
                        assert_eq!(pool.job(id).unwrap().state, JobState::Removed);
                    }
                }
            }
            if let Some((id, spec)) = jobs.last() {
                check_reads_back(&pool, *id, spec, &context);
            }
            for (id, _) in &jobs {
                assert_eq!(
                    pool.held_reason(*id),
                    reasons.get(id).map(String::as_str),
                    "{context}: held reason of {id}"
                );
            }
            if step % 25 == 0 {
                check_sharing(&pool, &jobs, &context);
            }
        }
        // Retire whatever can still run, then pull some retired jobs back.
        clock += 10_000;
        pool.settle(t(clock));
        pool.negotiate(t(clock));
        pool.settle(t(clock + 10_000));
        for (id, _) in &jobs {
            if pool.job(*id).unwrap().state == JobState::Completed && rng.chance(0.3) {
                pool.remove_job(*id).unwrap();
            }
        }
        let context = format!("case {case} end");
        for (id, spec) in &jobs {
            check_reads_back(&pool, *id, spec, &context);
        }
        check_sharing(&pool, &jobs, &context);
    }
}
