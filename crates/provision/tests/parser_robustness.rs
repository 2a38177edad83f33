//! Panic-free input surface of the hand-written parsers: seeded loops
//! feed random text and byte-mutated copies of valid documents to
//! `IniDoc::parse`, `Json::parse`, `Topology::from_ini` and
//! `Topology::with_json_update`. Every call must return `Ok` or a typed
//! error; a panic fails the case and names its seed. Cases come from
//! deterministic seeded streams (the offline build ships no fuzzer).

use std::panic::{catch_unwind, RefUnwindSafe};

use cumulus_provision::{IniDoc, Json, Topology};
use cumulus_simkit::rng::RngStream;

/// Cases per entry point and generator.
const CASES: u64 = 5_000;

/// Valid `galaxy.conf` documents (Figure 3 and variants).
const INI_CORPUS: [&str; 3] = [
    "[general]\ndomains: simple\n[domain-simple]\nusers: user1 user2\ngridftp: yes\n\
     condor: yes\ncluster-nodes: 2\ngalaxy: yes\ngo-endpoint: cvrg#galaxy\n[ec2]\n\
     keypair: gp-key\nkeyfile: ~/.ec2/gp-key.pem\nami: ami-b12ee0d8\n\
     instance-type: t1.micro\n[globusonline]\nssh-key: ~/.ssh/id_rsa\n",
    "# comment\n; note\n[general]\ndomains = lab other\n[domain-lab]\ncluster-nodes = 999\n\
     worker-instance-type = c1.medium\ncrdata = on\nnfs = TRUE\n[ec2]\n\
     instance-type = m1.large\n",
    "[general]\ndomains: simple\n[domain-simple]\nusers: ü 名前\nurl: https://example.org/x\n",
];

/// Valid JSON documents, `gp-instance-update` payloads first.
const JSON_CORPUS: [&str; 5] = [
    r#"{"domains":{"simple":{"cluster-nodes":3,"worker-instance-type":"c1.medium"}}}"#,
    r#"{"domains":{"simple":{"users":["a","b"],"workers":["t1.micro","m1.large"],"crdata":true,"galaxy":false}},"ec2":{"instance-type":"c1.medium"}}"#,
    r#"{"domains":{"simple":{"cluster-nodes":1000,"gridftp":true,"condor":false}}}"#,
    r#"[1, -2.5e3, 0.0, true, false, null, "esc \"\\\/\b\f\n\r\t é 😀", {"k": []}]"#,
    r#"{"a":{"b":{"c":[[[{"d":"e"}]]]}},"n":-0,"big":1e308,"tiny":4.9e-324}"#,
];

/// Fragments that steer mutations toward the parsers' structure.
const TOKENS: [&str; 24] = [
    "[",
    "]",
    "{",
    "}",
    ":",
    "=",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\n",
    "#",
    ";",
    "-",
    "e",
    ".",
    "0",
    "4294967296",
    "1e999",
    "domain-",
    "cluster-nodes",
    "é",
    "😀",
];

/// Random text: a mix of structural tokens, ASCII and multi-byte chars.
fn random_text(rng: &mut RngStream) -> String {
    let len = rng.uniform_int(0, 96);
    let mut out = String::new();
    for _ in 0..len {
        match rng.uniform_int(0, 2) {
            0 => out.push_str(rng.choose::<&str>(&TOKENS)),
            1 => out.push(char::from(rng.uniform_int(0, 127) as u8)),
            _ => out.push(char::from_u32(rng.uniform_int(0x80, 0x2FFF) as u32).unwrap_or('?')),
        }
    }
    out
}

/// `doc` with a few random byte-level edits: flips, deletions,
/// duplicated spans and inserted tokens. Bytes that no longer form UTF-8
/// become U+FFFD, as they would when a file is read lossily.
fn mutate(rng: &mut RngStream, doc: &str) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..rng.uniform_int(1, 6) {
        let at = rng.uniform_int(0, bytes.len() as u64) as usize;
        match rng.uniform_int(0, 4) {
            0 if at < bytes.len() => bytes[at] = rng.uniform_int(0, 255) as u8,
            1 if at < bytes.len() => {
                let end = (at + rng.uniform_int(1, 8) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            2 if at < bytes.len() => {
                let end = (at + rng.uniform_int(1, 24) as usize).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => {
                let token = rng.choose(&TOKENS).as_bytes();
                bytes.splice(at..at, token.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feed `parse` `CASES` random texts and `CASES` mutations of `corpus`,
/// drawn from `stream`. `parse` reports whether the input parsed; a panic
/// fails with the case's seed and input. Both outcomes must occur, so the
/// generators reach past the happy path and the error path alike.
fn fuzz(what: &str, corpus: &[&str], parse: impl Fn(&str) -> bool + RefUnwindSafe) {
    let mut parsed = 0;
    for seed in 0..CASES {
        let mut rng = RngStream::derive(seed, &format!("parser-robustness/{what}"));
        let random = random_text(&mut rng);
        let doc = *rng.choose(corpus);
        let mutated = mutate(&mut rng, doc);
        for input in [random, mutated] {
            match catch_unwind(|| parse(&input)) {
                Ok(ok) => parsed += usize::from(ok),
                Err(_) => panic!("{what} panicked on seed {seed}, input {input:?}"),
            }
        }
    }
    assert!(
        parsed > 0 && parsed < 2 * CASES as usize,
        "{what}: {parsed} of {} inputs parsed",
        2 * CASES
    );
}

#[test]
fn ini_parsers_return_ok_or_a_typed_error_on_any_text() {
    fuzz("IniDoc::parse", &INI_CORPUS, |text| {
        IniDoc::parse(text).map(|doc| doc.render()).is_ok()
    });
    fuzz("Topology::from_ini", &INI_CORPUS, |text| {
        Topology::from_ini(text).is_ok()
    });
}

#[test]
fn json_parsers_return_ok_or_a_typed_error_on_any_text() {
    fuzz("Json::parse", &JSON_CORPUS, |text| {
        Json::parse(text).map(|v| v.render()).is_ok()
    });
    let base = Topology::figure3();
    fuzz("Topology::with_json_update", &JSON_CORPUS, |text| {
        base.with_json_update(text).is_ok()
    });
}

#[test]
fn the_corpora_parse() {
    for doc in INI_CORPUS {
        assert!(IniDoc::parse(doc).is_ok(), "{doc:?}");
    }
    assert!(Topology::from_ini(INI_CORPUS[0]).is_ok());
    for doc in JSON_CORPUS {
        assert!(Json::parse(doc).is_ok(), "{doc:?}");
    }
    let base = Topology::figure3();
    for doc in &JSON_CORPUS[..3] {
        assert!(base.with_json_update(doc).is_ok(), "{doc:?}");
    }
}
