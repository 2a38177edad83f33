//! Autoclusters: the matchmaking signature jobs share.
//!
//! Everything the negotiator evaluates for a job — requirements, rank,
//! the job ad (owner and `InputCids` included), their compiled programs
//! and the parsed input ids — is a pure function of what its builder set.
//! Jobs whose builders set bitwise-equal values intern into one
//! *autocluster* and share one immutable [`Signature`] behind an `Arc`,
//! so a job record carries only its own ids, times and state, live or
//! retired.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use cumulus_simkit::hash::Fnv;

use crate::classad::{ClassAd, CompiledExpr, Expr, Value};
use crate::pool::{parse_cid, sym_input_cids, sym_owner};

/// One autocluster's matchmaking signature, shared by all its jobs.
#[derive(Debug)]
pub(crate) struct Signature {
    /// Matchmaking requirements (evaluated against machine ads).
    pub(crate) requirements: Expr,
    /// Preference among matching machines (higher is better).
    pub(crate) rank: Expr,
    /// The job ad, `Owner` included.
    pub(crate) ad: ClassAd,
    /// `requirements` compiled (the matchmaker hot path).
    pub(crate) compiled_req: CompiledExpr,
    /// `rank` compiled.
    pub(crate) compiled_rank: CompiledExpr,
    /// Well-formed ids of the `InputCids` job-ad attribute, in declaration
    /// order with duplicates preserved (each counts toward the bonus).
    pub(crate) input_cids: Vec<u64>,
}

impl Signature {
    fn new(requirements: Expr, rank: Expr, ad: ClassAd) -> Signature {
        let input_cids = match ad.lookup(sym_input_cids()) {
            Some(Value::Str(s)) => s.split(',').filter_map(parse_cid).collect(),
            _ => Vec::new(),
        };
        Signature {
            compiled_req: requirements.compile(),
            compiled_rank: rank.compile(),
            requirements,
            rank,
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

/// The injective encoding autoclusters are keyed by: the requirements
/// and rank trees, then the ad. Floats enter by bit pattern, so `0.0` and
/// `-0.0` (which `PartialEq` calls equal) stay apart and a NaN matches
/// its own payload (which `PartialEq` never calls equal).
fn encode(requirements: &Expr, rank: &Expr, ad: &ClassAd, buf: &mut Vec<u8>) {
    buf.clear();
    requirements.fingerprint_into(buf);
    rank.fingerprint_into(buf);
    ad.fingerprint_into(buf);
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

/// The pool's autocluster table: interned signatures by cluster id.
/// Append-only, like Condor's autoclusters: one entry per distinct job
/// shape ever submitted.
#[derive(Debug, Default)]
pub(crate) struct Autoclusters {
    /// [`Fnv`] of a signature's encoding → its cluster id. A key taken by
    /// a different encoding probes the next key up; nothing is ever
    /// removed, so a lookup may stop at the first free key.
    by_key: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    /// Signatures by cluster id.
    signatures: Vec<Arc<Signature>>,
    /// The submitted job's encoding, reused across submits.
    wanted: Vec<u8>,
    /// A candidate's encoding, reused across hits.
    found: Vec<u8>,
}

impl Autoclusters {
    /// Clusters interned so far.
    pub(crate) fn len(&self) -> usize {
        self.signatures.len()
    }

    /// The cluster id and shared signature for these builder values:
    /// an existing cluster's when its encoding is bitwise-equal, else a
    /// new cluster's (compiled here, once per cluster).
    pub(crate) fn intern(
        &mut self,
        requirements: Expr,
        rank: Expr,
        ad: ClassAd,
    ) -> (u32, Arc<Signature>) {
        encode(&requirements, &rank, &ad, &mut self.wanted);
        let mut key = Fnv::of(&self.wanted);
        while let Some(&cluster) = self.by_key.get(&key) {
            let sig = &self.signatures[cluster as usize];
            encode(&sig.requirements, &sig.rank, &sig.ad, &mut self.found);
            if self.found == self.wanted {
                return (cluster, Arc::clone(sig));
            }
            key = key.wrapping_add(1);
        }
        let cluster = self.signatures.len() as u32;
        let sig = Arc::new(Signature::new(requirements, rank, ad));
        self.by_key.insert(key, cluster);
        self.signatures.push(Arc::clone(&sig));
        (cluster, sig)
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
        let (r, k, ad) = shape("true", Value::Int(1));
        // Squat on the key the shape hashes to with a different signature.
        let (r0, k0, ad0) = shape("false", Value::Int(0));
        let squatter = Arc::new(Signature::new(r0, k0, ad0));
        encode(&r, &k, &ad, &mut table.wanted);
        table.by_key.insert(Fnv::of(&table.wanted), 0);
        table.signatures.push(squatter);
        let (c1, sig1) = table.intern(r.clone(), k.clone(), ad.clone());
        let (c2, sig2) = table.intern(r, k, ad);
        assert_eq!((c1, c2), (1, 1), "a collision is a miss, then a hit");
        assert!(Arc::ptr_eq(&sig1, &sig2));
        assert_eq!(sig1.requirements, Expr::parse("true").unwrap());
    }
}
