//! The content-id list reader against its token-by-token definition.
//!
//! `parse_cid_set` reads canonical `CacheCids` text (16 lowercase hex
//! digits, then a comma, and so on) at a fixed stride and skips the sort
//! when the ids come out ascending; every other text goes token by
//! token. Either way it must yield exactly
//! `text.split(',').filter_map(parse_cid)`, sorted and deduplicated, and
//! `parse_cid` must accept exactly 16 lowercase hex digits. Cases come
//! from deterministic seeded streams (the offline build ships no
//! proptest).

use cumulus_htc::{parse_cid, parse_cid_set};
use cumulus_simkit::rng::RngStream;

const CASES: u64 = 2_000;

/// The token-by-token definition the reader must agree with.
fn reference_set(text: &str) -> Vec<u64> {
    let mut ids: Vec<u64> = text.split(',').filter_map(parse_cid).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// `parse_cid`'s definition over bytes: 16 lowercase hex digits.
fn reference_cid(bytes: &[u8]) -> Option<u64> {
    if bytes.len() != 16 {
        return None;
    }
    bytes.iter().try_fold(0u64, |id, &b| {
        let nibble = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(id << 4 | u64::from(nibble))
    })
}

fn check(text: &str) {
    // Start from stale ids: the reader replaces, never appends.
    let mut ids = vec![7, 3, 7];
    parse_cid_set(text, &mut ids);
    assert_eq!(ids, reference_set(text), "text {text:?}");
}

fn hex(id: u64) -> String {
    format!("{id:016x}")
}

/// One token: mostly well-formed ids from a small pool (so duplicates
/// come up), else one of the malformed shapes.
fn token(rng: &mut RngStream, pool: &[u64]) -> String {
    let id = *rng.choose(pool);
    match rng.uniform_int(0, 9) {
        0 => hex(id).to_uppercase(),
        1 => hex(id)[1..].to_string(),
        2 => format!("{}0", hex(id)),
        3 => String::new(),
        // Sixteen bytes, one of them a two-byte character.
        4 => format!("{}é", &hex(id)[..14]),
        5 => {
            let mut t = hex(id).into_bytes();
            let at = rng.uniform_int(0, 15) as usize;
            t[at] = *rng.choose(b"gGx /:;-+AF\x7f");
            String::from_utf8(t).unwrap()
        }
        _ => hex(id),
    }
}

#[test]
fn stride_reader_matches_the_token_path_on_seeded_lists() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "htc-prop/cid-list");
        let pool: Vec<u64> = (0..rng.uniform_int(1, 12))
            .map(|_| match rng.uniform_int(0, 3) {
                0 => rng.uniform_int(0, 40),
                1 => u64::MAX - rng.uniform_int(0, 40),
                _ => rng.next_u64(),
            })
            .collect();
        let n = rng.uniform_int(0, 24) as usize;
        let mut ids: Vec<u64> = (0..n).map(|_| *rng.choose(&pool)).collect();
        let text = match rng.uniform_int(0, 5) {
            // Canonical and ascending: the form the data plane writes.
            0 => {
                ids.sort_unstable();
                ids.dedup();
                ids.iter().map(|&id| hex(id)).collect::<Vec<_>>().join(",")
            }
            // Canonical, descending.
            1 => {
                ids.sort_unstable_by(|a, b| b.cmp(a));
                ids.dedup();
                ids.iter().map(|&id| hex(id)).collect::<Vec<_>>().join(",")
            }
            // Canonical, ascending with duplicates.
            2 => {
                ids.sort_unstable();
                ids.iter().map(|&id| hex(id)).collect::<Vec<_>>().join(",")
            }
            // Canonical, in draw order.
            3 => ids.iter().map(|&id| hex(id)).collect::<Vec<_>>().join(","),
            // Any mix of well-formed and malformed tokens.
            _ => (0..n)
                .map(|_| token(&mut rng, &pool))
                .collect::<Vec<_>>()
                .join(","),
        };
        check(&text);
        // Stray commas at either end, and one byte changed in place.
        check(&format!(",{text}"));
        check(&format!("{text},"));
        if !text.is_empty() {
            let mut bytes = text.clone().into_bytes();
            let at = rng.uniform_int(0, bytes.len() as u64 - 1) as usize;
            if bytes[at].is_ascii() {
                bytes[at] = *rng.choose(b",;0aAfg\t");
                check(&String::from_utf8(bytes).unwrap());
            }
        }
    }
}

#[test]
fn listed_edge_cases_match_the_token_path() {
    let a = "00000000000000aa";
    let b = "00000000000000bb";
    let c = "ffffffffffffffff";
    for text in [
        String::new(),
        ",".to_string(),
        ",,".to_string(),
        a.to_string(),
        format!("{a},{b},{c}"),
        format!("{c},{b},{a}"),
        format!("{a},{a},{b}"),
        format!("{b},{a},{a}"),
        format!("{a},{b},{b}"),
        format!("{a},{}", b.to_uppercase()),
        format!("{a},{}", &b[1..]),
        format!("{a},{b}0"),
        format!("{a},,{b}"),
        format!(",{a},{b}"),
        format!("{a},{b},"),
        format!("{a};{b}"),
        format!("{a},{b};"),
        format!("{a},{}é", &b[..14]),
        format!("{}é,{b}", &a[..14]),
        "0000000000000000".to_string(),
        "éééééééé".to_string(),
    ] {
        check(&text);
    }
    let mut ids = Vec::new();
    parse_cid_set(&format!("{c},{a},{b},{a}"), &mut ids);
    assert_eq!(ids, [0xaa, 0xbb, u64::MAX]);
}

/// `text` with byte `b` at position `at` of a 16-byte token, if some
/// well-formed UTF-8 can hold it there: ASCII in place, a continuation
/// byte after a two-byte lead, a lead byte before its continuations.
fn with_byte_at(token: &[u8; 16], at: usize, b: u8) -> Option<String> {
    let mut bytes = token.to_vec();
    match b {
        0x00..=0x7f => bytes[at] = b,
        0x80..=0xbf if at > 0 => bytes[at - 1..=at].copy_from_slice(&[0xc2, b]),
        0xc2..=0xdf if at < 15 => bytes[at..at + 2].copy_from_slice(&[b, 0x80]),
        0xe0..=0xef if at < 14 => {
            let second = if b == 0xe0 { 0xa0 } else { 0x80 };
            bytes[at..at + 3].copy_from_slice(&[b, second, 0x80]);
        }
        0xf0..=0xf4 if at < 13 => {
            let second = if b == 0xf0 { 0x90 } else { 0x80 };
            bytes[at..at + 4].copy_from_slice(&[b, second, 0x80, 0x80]);
        }
        _ => return None,
    }
    assert_eq!(bytes[at], b);
    String::from_utf8(bytes).ok()
}

#[test]
fn parse_cid_agrees_with_the_reference_for_every_byte_at_every_digit() {
    let mut placed = [false; 256];
    for token in [
        *b"0123456789abcdef",
        *b"fedcba9876543210",
        *b"0000000000000000",
    ] {
        for at in 0..16 {
            for b in 0..=255u8 {
                let Some(text) = with_byte_at(&token, at, b) else {
                    continue;
                };
                placed[b as usize] = true;
                assert_eq!(
                    parse_cid(&text),
                    reference_cid(text.as_bytes()),
                    "byte {b:#04x} at {at} of {text:?}"
                );
                check(&text);
                check(&format!("{},{text}", "0".repeat(16)));
            }
        }
    }
    // Every byte but the 13 that well-formed UTF-8 never holds (0xc0,
    // 0xc1, 0xf5..=0xff).
    assert_eq!(placed.iter().filter(|&&p| p).count(), 256 - 13);
    for len in [0, 1, 15, 17, 32] {
        let text = "a".repeat(len);
        assert_eq!(parse_cid(&text), None);
        check(&text);
    }
}
