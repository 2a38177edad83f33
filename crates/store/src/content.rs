//! Content identifiers.
//!
//! A [`ContentId`] is a 64-bit [`Fnv`] digest over a canonical byte
//! serialization of a dataset's content: FNV-1a's offset basis and
//! xor-then-multiply step, but with the multiplier `0x1000_0000_01b3`
//! (2^44 + 0x1b3), not the published 64-bit FNV prime (2^40 + 0x1b3).
//! Every recorded id and digest depends on this multiplier, so it stays.
//! Two datasets with the same bytes share an id regardless of which
//! history, user, or upload produced them — the property the whole data
//! plane is built on: caches, peer lookups, and object-store
//! deduplication all key on content, never on the `DatasetId` a
//! particular Galaxy instance happened to assign.

use std::fmt;

use cumulus_simkit::hash::Fnv;

/// A content-addressed identifier: the FNV-1a-style digest (see the
/// module doc for the multiplier) of the content's canonical
/// serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentId(pub u64);

impl fmt::Display for ContentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cid-{:016x}", self.0)
    }
}

impl ContentId {
    /// Digest a raw byte string.
    pub fn of_bytes(bytes: &[u8]) -> ContentId {
        let mut h = ContentHasher::new();
        h.write(bytes);
        h.finish()
    }

    /// Digest a string (UTF-8 bytes).
    pub fn of_str(s: &str) -> ContentId {
        ContentId::of_bytes(s.as_bytes())
    }

    /// The 16-hex-digit form used in ClassAd attributes (no `cid-`
    /// prefix, so a comma-joined list parses unambiguously).
    pub fn hex(&self) -> String {
        let mut out = String::with_capacity(16);
        push_hex(&mut out, *self);
        out
    }
}

/// Append `cid` as 16 lowercase hex digits, most significant nibble first
/// (`{:016x}` without the formatting machinery).
fn push_hex(out: &mut String, cid: ContentId) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for shift in (0..16).rev() {
        out.push(char::from(DIGITS[(cid.0 >> (shift * 4)) as usize & 0xf]));
    }
}

/// The ClassAd id-list advertisement (`InputCids`, `CacheCids`): each id
/// as [`ContentId::hex`], comma-joined, in iteration order — callers pass
/// ascending, deduplicated ids. Written into one string pre-sized from
/// the iterator's lower size bound.
pub fn cid_list(ids: impl IntoIterator<Item = ContentId>) -> String {
    let ids = ids.into_iter();
    let mut out = String::with_capacity(ids.size_hint().0 * 17);
    for cid in ids {
        if !out.is_empty() {
            out.push(',');
        }
        push_hex(&mut out, cid);
    }
    out
}

/// An incremental [`Fnv`] hasher producing [`ContentId`]s: FNV-1a with
/// the multiplier `0x1000_0000_01b3` in place of the 64-bit FNV prime.
///
/// Producers feed it a canonical serialization: a discriminant byte per
/// enum variant, length prefixes before variable-length fields, and
/// [`write_f64`](ContentHasher::write_f64) (bit pattern) for floats — so
/// structurally different contents can never collide by concatenation.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: Fnv,
}

impl ContentHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        ContentHasher { state: Fnv::new() }
    }

    /// Feed raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        self.state.write(bytes);
    }

    /// Feed a u64 (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.state.write_u64(v);
    }

    /// Feed a float by bit pattern (`-0.0` and `0.0` hash differently;
    /// content producers normalize if they care).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feed a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> ContentId {
        ContentId(self.state.finish())
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_pinned_to_the_multiplier() {
        // The empty input is the offset basis; one byte shows the
        // multiplier (the published FNV-1a prime would give
        // 0xaf63dc4c8601ec8c). Changing either moves every content id.
        assert_eq!(ContentId::of_bytes(b""), ContentId(0xcbf2_9ce4_8422_2325));
        assert_eq!(ContentId::of_bytes(b"a"), ContentId(0xaf74_d84c_8601_ec8c));
    }

    #[test]
    fn equal_bytes_equal_ids() {
        assert_eq!(ContentId::of_str("abc"), ContentId::of_bytes(b"abc"));
        assert_ne!(ContentId::of_str("abc"), ContentId::of_str("abd"));
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = ContentHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = ContentHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn display_and_hex() {
        let id = ContentId(0xdead_beef);
        assert_eq!(id.to_string(), "cid-00000000deadbeef");
        assert_eq!(id.hex(), "00000000deadbeef");
        for v in [0, 1, 0xf, 0x10, 0x0123_4567_89ab_cdef, u64::MAX] {
            assert_eq!(ContentId(v).hex(), format!("{v:016x}"));
        }
    }

    #[test]
    fn cid_list_is_the_comma_joined_hex() {
        assert_eq!(cid_list([]), "");
        assert_eq!(cid_list([ContentId(0xab)]), "00000000000000ab");
        let ids = [ContentId(1), ContentId(0xfe), ContentId(u64::MAX)];
        let joined = ids.iter().map(|c| c.hex()).collect::<Vec<_>>().join(",");
        assert_eq!(cid_list(ids), joined);
    }

    #[test]
    fn float_bits_hash() {
        let mut a = ContentHasher::new();
        a.write_f64(1.5);
        let mut b = ContentHasher::new();
        b.write_f64(1.5000001);
        assert_ne!(a.finish(), b.finish());
    }
}
