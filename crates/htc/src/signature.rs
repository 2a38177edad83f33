//! Autoclusters: the matchmaking signature jobs share.
//!
//! Everything the negotiator evaluates for a job — requirements, rank,
//! the job ad (owner and `InputCids` included), their compiled programs
//! and the parsed input ids — is a pure function of what its builder set.
//! Jobs whose builders set bitwise-equal values intern into one
//! *autocluster* and share one immutable [`Signature`] behind an `Arc`,
//! so a job record carries only its own ids, times and state, live or
//! retired. The requirements and rank trees and their compiled programs
//! depend on neither the owner nor the inputs, so autoclusters whose
//! trees are bitwise-equal share one [`Program`] in turn.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use cumulus_simkit::hash::Fnv;

use crate::classad::{ClassAd, CompiledExpr, Expr, Value};
use crate::pool::{parse_cid, sym_input_cids, sym_owner};

/// Requirements and rank trees with their compiled programs, shared by
/// every autocluster whose trees encode bitwise-equal.
#[derive(Debug)]
pub(crate) struct Program {
    /// Matchmaking requirements (evaluated against machine ads).
    pub(crate) requirements: Expr,
    /// Preference among matching machines (higher is better).
    pub(crate) rank: Expr,
    /// `requirements` compiled (the matchmaker hot path).
    pub(crate) compiled_req: CompiledExpr,
    /// `rank` compiled.
    pub(crate) compiled_rank: CompiledExpr,
}

impl Program {
    fn new(requirements: Expr, rank: Expr) -> Program {
        Program {
            compiled_req: requirements.compile(),
            compiled_rank: rank.compile(),
            requirements,
            rank,
        }
    }
}

/// One autocluster's matchmaking signature, shared by all its jobs.
#[derive(Debug)]
pub(crate) struct Signature {
    /// The requirements and rank, shared with every autocluster whose
    /// trees are bitwise-equal.
    pub(crate) program: Arc<Program>,
    /// The job ad, `Owner` included.
    pub(crate) ad: ClassAd,
    /// Well-formed ids of the `InputCids` job-ad attribute, in declaration
    /// order with duplicates preserved (each counts toward the bonus).
    pub(crate) input_cids: Vec<u64>,
}

impl Signature {
    fn new(program: Arc<Program>, ad: ClassAd) -> Signature {
        let input_cids = match ad.lookup(sym_input_cids()) {
            Some(Value::Str(s)) => s.split(',').filter_map(parse_cid).collect(),
            _ => Vec::new(),
        };
        Signature {
            program,
            ad,
            input_cids,
        }
    }

    /// The submitting user, read from the ad's `Owner` attribute.
    pub(crate) fn owner(&self) -> &str {
        match self.ad.lookup(sym_owner()) {
            Some(Value::Str(owner)) => owner,
            _ => unreachable!("submission sets Owner on every job ad"),
        }
    }
}

/// The injective encoding programs are keyed by: the requirements tree,
/// then the rank tree. Floats enter by bit pattern, so `0.0` and `-0.0`
/// (which `PartialEq` calls equal) stay apart and a NaN matches its own
/// payload (which `PartialEq` never calls equal).
fn encode_program(requirements: &Expr, rank: &Expr, buf: &mut Vec<u8>) {
    buf.clear();
    requirements.fingerprint_into(buf);
    rank.fingerprint_into(buf);
}

/// Passes an [`Fnv`] key through as its own hash, folding the
/// well-mixed high half into the low bits the table indexes by.
#[derive(Debug, Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("autocluster keys are u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// An append-only interning table: entries by id, found through the
/// [`Fnv`] of their encoding. A key taken by a different encoding probes
/// the next key up; nothing is ever removed, so a lookup may stop at the
/// first free key.
#[derive(Debug)]
struct Interned<T> {
    by_key: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    entries: Vec<Arc<T>>,
}

impl<T> Default for Interned<T> {
    fn default() -> Self {
        Interned {
            by_key: HashMap::default(),
            entries: Vec::new(),
        }
    }
}

impl<T> Interned<T> {
    /// The id of the entry encoded as `wanted`: the first entry on the
    /// key's probe chain that `is_it` confirms, else a new one from
    /// `make`.
    fn intern(
        &mut self,
        wanted: &[u8],
        mut is_it: impl FnMut(&T) -> bool,
        make: impl FnOnce() -> T,
    ) -> u32 {
        let mut key = Fnv::of(wanted);
        while let Some(&id) = self.by_key.get(&key) {
            if is_it(&self.entries[id as usize]) {
                return id;
            }
            key = key.wrapping_add(1);
        }
        let id = self.entries.len() as u32;
        self.by_key.insert(key, id);
        self.entries.push(Arc::new(make()));
        id
    }
}

/// The pool's autocluster table: interned signatures by cluster id, and
/// the programs they share. Append-only, like Condor's autoclusters: one
/// entry per distinct job shape ever submitted.
#[derive(Debug, Default)]
pub(crate) struct Autoclusters {
    /// Programs, keyed by their trees' encoding.
    programs: Interned<Program>,
    /// Signatures by cluster id, keyed by their program's id and then
    /// their ad's encoding.
    signatures: Interned<Signature>,
    /// The submitted job's encoding, reused across submits.
    wanted: Vec<u8>,
    /// A candidate's encoding, reused across hits.
    found: Vec<u8>,
}

impl Autoclusters {
    /// Clusters interned so far.
    pub(crate) fn len(&self) -> usize {
        self.signatures.entries.len()
    }

    /// The cluster id and shared signature for these builder values:
    /// an existing cluster's when its trees and ad are bitwise-equal,
    /// else a new cluster's, which compiles only a program not seen
    /// before.
    pub(crate) fn intern(
        &mut self,
        requirements: Expr,
        rank: Expr,
        ad: ClassAd,
    ) -> (u32, Arc<Signature>) {
        let Autoclusters {
            programs,
            signatures,
            wanted,
            found,
        } = self;
        encode_program(&requirements, &rank, wanted);
        let program = programs.intern(
            wanted,
            |p| {
                encode_program(&p.requirements, &p.rank, found);
                found == wanted
            },
            || Program::new(requirements, rank),
        );
        // A program id stands for its trees' encoding, so the id and the
        // ad's encoding key the cluster as injectively as both in full.
        wanted.clear();
        wanted.extend_from_slice(&program.to_le_bytes());
        ad.fingerprint_into(wanted);
        let program = &programs.entries[program as usize];
        let cluster = signatures.intern(
            wanted,
            |sig| {
                Arc::ptr_eq(&sig.program, program) && {
                    found.clear();
                    sig.ad.fingerprint_into(found);
                    found[..] == wanted[4..]
                }
            },
            || Signature::new(Arc::clone(program), ad),
        );
        (cluster, Arc::clone(&signatures.entries[cluster as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(req: &str, extra: Value) -> (Expr, Expr, ClassAd) {
        let mut ad = ClassAd::new().with("Extra", extra);
        ad.set_sym(sym_owner(), Value::Str("u".to_string()));
        (
            Expr::parse(req).unwrap(),
            Expr::parse("ComputeUnits").unwrap(),
            ad,
        )
    }

    #[test]
    fn a_taken_key_probes_to_the_next_one() {
        let mut table = Autoclusters::default();
        // Squat on the key the shape's trees hash to with another program.
        let (r, k, ad) = shape("true", Value::Int(1));
        let (r0, k0, _) = shape("false", Value::Int(0));
        encode_program(&r, &k, &mut table.wanted);
        table.programs.by_key.insert(Fnv::of(&table.wanted), 0);
        table.programs.entries.push(Arc::new(Program::new(r0, k0)));
        let (r5, k5, ad5) = shape("true", Value::Int(5));
        let (c0, sig0) = table.intern(r5, k5, ad5);
        assert_eq!(c0, 0);
        assert_eq!(table.programs.entries.len(), 2, "a collision is a miss");
        // Squat on the shape's cluster key with a cluster of the same
        // program and another ad.
        let mut wanted = 1u32.to_le_bytes().to_vec();
        ad.fingerprint_into(&mut wanted);
        table.signatures.by_key.insert(Fnv::of(&wanted), 0);
        let (c1, sig1) = table.intern(r.clone(), k.clone(), ad.clone());
        let (c2, sig2) = table.intern(r, k, ad);
        assert_eq!((c1, c2), (1, 1), "a collision is a miss, then a hit");
        assert!(Arc::ptr_eq(&sig1, &sig2));
        assert!(Arc::ptr_eq(&sig0.program, &sig1.program));
        assert_eq!(sig1.program.requirements, Expr::parse("true").unwrap());
    }

    #[test]
    fn clusters_with_equal_trees_share_one_program() {
        let mut table = Autoclusters::default();
        let clusters: Vec<_> = (0..100)
            .map(|i| {
                let (r, k, ad) = shape("Memory >= 1024", Value::Int(i));
                table.intern(r, k, ad)
            })
            .collect();
        assert_eq!(table.len(), 100, "each ad is its own cluster");
        assert_eq!(table.programs.entries.len(), 1);
        for (_, sig) in &clusters {
            assert!(Arc::ptr_eq(&sig.program, &clusters[0].1.program));
        }
        // `memory` compiles like `Memory` but is another tree, so it is
        // another program, and each cluster reads back its own tree.
        let (r, k, ad) = shape("memory >= 1024", Value::Int(0));
        let (cluster, lower) = table.intern(r, k, ad);
        assert_eq!(cluster, 100);
        assert_eq!(table.programs.entries.len(), 2);
        assert!(!Arc::ptr_eq(&lower.program, &clusters[0].1.program));
        assert_eq!(
            lower.program.requirements,
            Expr::parse("memory >= 1024").unwrap()
        );
        assert_eq!(
            clusters[0].1.program.requirements,
            Expr::parse("Memory >= 1024").unwrap()
        );
    }
}
