//! The typed event record.
//!
//! An [`Event`] is what every layer appends to the telemetry log: a
//! simulated timestamp, a static component category (`"htc"`, `"cloud"`,
//! `"autoscale"`, …), an interned [`Key`] naming what happened, and a
//! typed [`Payload`] carrying the numbers — ids, durations, byte counts —
//! instead of a pre-formatted string. Formatting happens only when a
//! human asks for it (the `Display` impl); digests and span assembly work on
//! the typed data directly.
//!
//! An episode keeps every event until its report is built, so the record
//! is packed into 32 bytes: the category is interned to a `u16` and the
//! payload is stored as a tag byte, a span-kind byte and two `u64` words.
//! [`Payload`] stays the vocabulary callers write and read.

use std::fmt;

use crate::hash::Fnv;
use crate::time::{SimDuration, SimTime};

use super::intern::{category_name, intern_category, Key};

/// What kind of lifecycle a span tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// A scheduler job: submit → match → stage → run → complete.
    Job,
    /// A Galaxy workflow invocation spanning its jobs.
    Workflow,
    /// A transfer-service task.
    Transfer,
    /// A cloud instance: requested → running → terminated/preempted.
    Instance,
}

impl SpanKind {
    /// Short label used in renders and digests (stable across runs).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Workflow => "workflow",
            SpanKind::Transfer => "transfer",
            SpanKind::Instance => "instance",
        }
    }

    /// Stable one-byte encoding for digests.
    pub(crate) fn code(self) -> u8 {
        match self {
            SpanKind::Job => 1,
            SpanKind::Workflow => 2,
            SpanKind::Transfer => 3,
            SpanKind::Instance => 4,
        }
    }

    /// The kind behind a [`code`](SpanKind::code).
    pub(crate) fn from_code(code: u8) -> Option<SpanKind> {
        match code {
            1 => Some(SpanKind::Job),
            2 => Some(SpanKind::Workflow),
            3 => Some(SpanKind::Transfer),
            4 => Some(SpanKind::Instance),
            _ => None,
        }
    }
}

/// The typed data an event carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Nothing beyond the key itself.
    None,
    /// A count (events, retries, jobs, …).
    Count(u64),
    /// A byte quantity.
    Bytes(u64),
    /// An instantaneous measurement (gauge-like).
    Value(f64),
    /// A duration.
    Duration(SimDuration),
    /// A `from → to` transition (worker counts, sizes).
    Pair(u64, u64),
    /// A lifecycle span opens (entity `id` of kind `kind`).
    SpanOpen {
        /// The lifecycle the span tracks.
        kind: SpanKind,
        /// Entity id within the kind's namespace.
        id: u64,
    },
    /// A phase boundary inside an open span, optionally carrying the
    /// phase's own duration (e.g. staging time charged at match time).
    SpanPhase {
        /// The lifecycle the span tracks.
        kind: SpanKind,
        /// Entity id within the kind's namespace.
        id: u64,
        /// Duration attributed to this phase (`ZERO` when the phase is a
        /// pure boundary marker).
        dur: SimDuration,
    },
    /// A lifecycle span closes.
    SpanClose {
        /// The lifecycle the span tracks.
        kind: SpanKind,
        /// Entity id within the kind's namespace.
        id: u64,
    },
}

/// One telemetry record, 32 bytes.
///
/// The payload is stored flat: a tag byte naming the [`Payload`] variant
/// (the same tag the digest writes), the span kind's code, and two `u64`
/// words. The category is an interned `u16`. [`Event::payload`] and
/// [`Event::category`] read them back; the log's size is what bounds
/// telemetry memory on long episodes, so every byte here is one per event.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When it happened (simulated time).
    pub at: SimTime,
    /// Interned name of what happened.
    pub key: Key,
    /// First payload word: the count, byte count, value bits, duration
    /// micros, pair head, or span entity id.
    a: u64,
    /// Second payload word: the pair tail or the phase's duration micros.
    b: u64,
    category: u16,
    tag: u8,
    kind: u8,
}

const _: () = assert!(std::mem::size_of::<Event>() == 32);

// Payload tags. They are written into digests, so they never change.
const TAG_NONE: u8 = 0;
const TAG_COUNT: u8 = 1;
const TAG_BYTES: u8 = 2;
const TAG_VALUE: u8 = 3;
const TAG_DURATION: u8 = 4;
const TAG_PAIR: u8 = 5;
// Tag 6 is unused: tags never change, so recorded digests keep their
// values.
const TAG_OPEN: u8 = 7;
const TAG_PHASE: u8 = 8;
const TAG_CLOSE: u8 = 9;

impl Event {
    /// A record of `key` in `category` at `at` carrying `payload`.
    ///
    /// # Panics
    ///
    /// If this is the 257th distinct category the process has seen.
    pub fn new(at: SimTime, category: &'static str, key: Key, payload: Payload) -> Event {
        let (tag, kind, a, b) = match payload {
            Payload::None => (TAG_NONE, 0, 0, 0),
            Payload::Count(n) => (TAG_COUNT, 0, n, 0),
            Payload::Bytes(n) => (TAG_BYTES, 0, n, 0),
            Payload::Value(v) => (TAG_VALUE, 0, v.to_bits(), 0),
            Payload::Duration(d) => (TAG_DURATION, 0, d.as_micros(), 0),
            Payload::Pair(x, y) => (TAG_PAIR, 0, x, y),
            Payload::SpanOpen { kind, id } => (TAG_OPEN, kind.code(), id, 0),
            Payload::SpanPhase { kind, id, dur } => (TAG_PHASE, kind.code(), id, dur.as_micros()),
            Payload::SpanClose { kind, id } => (TAG_CLOSE, kind.code(), id, 0),
        };
        Event {
            at,
            key,
            a,
            b,
            category: intern_category(category),
            tag,
            kind,
        }
    }

    /// Static component category (`"htc"`, `"cloud"`, `"transfer"`, …).
    pub fn category(&self) -> &'static str {
        category_name(self.category)
    }

    /// The category's interned id, for records that keep it as is.
    pub(crate) fn category_id(&self) -> u16 {
        self.category
    }

    /// The typed data, bit for bit as it was recorded.
    pub fn payload(&self) -> Payload {
        let (a, b) = (self.a, self.b);
        match self.tag {
            TAG_NONE => Payload::None,
            TAG_COUNT => Payload::Count(a),
            TAG_BYTES => Payload::Bytes(a),
            TAG_VALUE => Payload::Value(f64::from_bits(a)),
            TAG_DURATION => Payload::Duration(SimDuration::from_micros(a)),
            TAG_PAIR => Payload::Pair(a, b),
            TAG_OPEN => Payload::SpanOpen {
                kind: self.span_kind(),
                id: a,
            },
            TAG_PHASE => Payload::SpanPhase {
                kind: self.span_kind(),
                id: a,
                dur: SimDuration::from_micros(b),
            },
            TAG_CLOSE => Payload::SpanClose {
                kind: self.span_kind(),
                id: a,
            },
            tag => unreachable!("event tag {tag} is not one Event::new writes"),
        }
    }

    fn span_kind(&self) -> SpanKind {
        SpanKind::from_code(self.kind).expect("span events carry a span kind code")
    }

    /// Feed this event's identity into a digest state. Encodes the key
    /// *name* (never the interning-order-dependent id) so digests are
    /// stable across thread interleavings and processes.
    pub(crate) fn fold_digest(&self, h: &mut Fnv) {
        h.write_u64(self.at.as_micros());
        h.write(self.category().as_bytes());
        h.write_u8(SEP);
        h.write(self.key.name().as_bytes());
        h.write_u8(SEP);
        h.write_u8(self.tag);
        match self.tag {
            TAG_NONE => {}
            TAG_PAIR => {
                h.write_u64(self.a);
                h.write_u64(self.b);
            }
            TAG_OPEN | TAG_CLOSE => {
                h.write_u8(self.kind);
                h.write_u64(self.a);
            }
            TAG_PHASE => {
                h.write_u8(self.kind);
                h.write_u64(self.a);
                h.write_u64(self.b);
            }
            _ => h.write_u64(self.a),
        }
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("at", &self.at)
            .field("category", &self.category())
            .field("key", &self.key)
            .field("payload", &self.payload())
            .finish()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {:<10} {}", self.at, self.category(), self.key)?;
        match self.payload() {
            Payload::None => Ok(()),
            Payload::Count(n) => write!(f, " n={n}"),
            Payload::Bytes(n) => write!(f, " bytes={n}"),
            Payload::Value(v) => write!(f, " value={v}"),
            Payload::Duration(d) => write!(f, " dur={}s", d.as_secs_f64()),
            Payload::Pair(a, b) => write!(f, " {a}->{b}"),
            Payload::SpanOpen { kind, id } => write!(f, " open {}:{id}", kind.label()),
            Payload::SpanPhase { kind, id, dur } => {
                write!(f, " phase {}:{id} +{}s", kind.label(), dur.as_secs_f64())
            }
            Payload::SpanClose { kind, id } => write!(f, " close {}:{id}", kind.label()),
        }
    }
}

/// A field separator outside the value alphabet of length-prefix-free
/// byte fields (category/key/text), so `("ab","c")` and `("a","bc")`
/// hash differently.
const SEP: u8 = 0xFF;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngStream;

    fn ev(key: &str, payload: Payload) -> Event {
        Event::new(
            SimTime::from_micros(1_500_000),
            "test",
            Key::intern(key),
            payload,
        )
    }

    /// The enum-based record this module stored before events were
    /// packed, with its digest encoding and rendering kept verbatim: the
    /// packed [`Event`] must reproduce both exactly.
    struct Reference {
        at: SimTime,
        category: &'static str,
        key: Key,
        payload: Payload,
    }

    impl Reference {
        fn fold_digest(&self, h: &mut Fnv) {
            h.write_u64(self.at.as_micros());
            h.write(self.category.as_bytes());
            h.write_u8(SEP);
            h.write(self.key.name().as_bytes());
            h.write_u8(SEP);
            match &self.payload {
                Payload::None => h.write_u8(0),
                Payload::Count(n) => {
                    h.write_u8(1);
                    h.write_u64(*n);
                }
                Payload::Bytes(n) => {
                    h.write_u8(2);
                    h.write_u64(*n);
                }
                Payload::Value(v) => {
                    h.write_u8(3);
                    h.write_u64(v.to_bits());
                }
                Payload::Duration(d) => {
                    h.write_u8(4);
                    h.write_u64(d.as_micros());
                }
                Payload::Pair(a, b) => {
                    h.write_u8(5);
                    h.write_u64(*a);
                    h.write_u64(*b);
                }
                Payload::SpanOpen { kind, id } => {
                    h.write_u8(7);
                    h.write_u8(kind.code());
                    h.write_u64(*id);
                }
                Payload::SpanPhase { kind, id, dur } => {
                    h.write_u8(8);
                    h.write_u8(kind.code());
                    h.write_u64(*id);
                    h.write_u64(dur.as_micros());
                }
                Payload::SpanClose { kind, id } => {
                    h.write_u8(9);
                    h.write_u8(kind.code());
                    h.write_u64(*id);
                }
            }
        }
    }

    impl fmt::Display for Reference {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match &self.payload {
                Payload::None => write!(f, "[{}] {:<10} {}", self.at, self.category, self.key),
                Payload::Count(n) => {
                    write!(
                        f,
                        "[{}] {:<10} {} n={}",
                        self.at, self.category, self.key, n
                    )
                }
                Payload::Bytes(n) => write!(
                    f,
                    "[{}] {:<10} {} bytes={}",
                    self.at, self.category, self.key, n
                ),
                Payload::Value(v) => write!(
                    f,
                    "[{}] {:<10} {} value={}",
                    self.at, self.category, self.key, v
                ),
                Payload::Duration(d) => write!(
                    f,
                    "[{}] {:<10} {} dur={}s",
                    self.at,
                    self.category,
                    self.key,
                    d.as_secs_f64()
                ),
                Payload::Pair(a, b) => write!(
                    f,
                    "[{}] {:<10} {} {}->{}",
                    self.at, self.category, self.key, a, b
                ),
                Payload::SpanOpen { kind, id } => write!(
                    f,
                    "[{}] {:<10} {} open {}:{}",
                    self.at,
                    self.category,
                    self.key,
                    kind.label(),
                    id
                ),
                Payload::SpanPhase { kind, id, dur } => write!(
                    f,
                    "[{}] {:<10} {} phase {}:{} +{}s",
                    self.at,
                    self.category,
                    self.key,
                    kind.label(),
                    id,
                    dur.as_secs_f64()
                ),
                Payload::SpanClose { kind, id } => write!(
                    f,
                    "[{}] {:<10} {} close {}:{}",
                    self.at,
                    self.category,
                    self.key,
                    kind.label(),
                    id
                ),
            }
        }
    }

    /// A payload's variant and raw bits, so equality is bit for bit
    /// (`Payload`'s own `PartialEq` calls NaN unequal to itself and
    /// `-0.0` equal to `0.0`).
    fn bits(p: &Payload) -> (&'static str, Option<SpanKind>, u64, u64) {
        match *p {
            Payload::None => ("none", None, 0, 0),
            Payload::Count(n) => ("count", None, n, 0),
            Payload::Bytes(n) => ("bytes", None, n, 0),
            Payload::Value(v) => ("value", None, v.to_bits(), 0),
            Payload::Duration(d) => ("duration", None, d.as_micros(), 0),
            Payload::Pair(a, b) => ("pair", None, a, b),
            Payload::SpanOpen { kind, id } => ("open", Some(kind), id, 0),
            Payload::SpanPhase { kind, id, dur } => ("phase", Some(kind), id, dur.as_micros()),
            Payload::SpanClose { kind, id } => ("close", Some(kind), id, 0),
        }
    }

    fn arbitrary_word(rng: &mut RngStream) -> u64 {
        const EDGES: [u64; 5] = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        if rng.chance(0.5) {
            *rng.choose(&EDGES)
        } else {
            rng.next_u64()
        }
    }

    fn arbitrary_float(rng: &mut RngStream) -> f64 {
        let edges = [
            f64::NAN.to_bits(),
            (-f64::NAN).to_bits(),
            0x7ff0_0000_0000_0001, // signalling NaN, smallest payload
            0x7ff8_dead_beef_0001, // quiet NaN with a payload
            (-0.0f64).to_bits(),
            0.0f64.to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            1, // smallest subnormal
            f64::MAX.to_bits(),
        ];
        f64::from_bits(if rng.chance(0.5) {
            *rng.choose(&edges)
        } else {
            rng.next_u64()
        })
    }

    fn arbitrary_payload(rng: &mut RngStream) -> Payload {
        const KINDS: [SpanKind; 4] = [
            SpanKind::Job,
            SpanKind::Workflow,
            SpanKind::Transfer,
            SpanKind::Instance,
        ];
        let kind = *rng.choose(&KINDS);
        let (a, b) = (arbitrary_word(rng), arbitrary_word(rng));
        match rng.uniform_int(0, 8) {
            0 => Payload::None,
            1 => Payload::Count(a),
            2 => Payload::Bytes(a),
            3 => Payload::Value(arbitrary_float(rng)),
            4 => Payload::Duration(SimDuration::from_micros(a)),
            5 => Payload::Pair(a, b),
            6 => Payload::SpanOpen { kind, id: a },
            7 => Payload::SpanPhase {
                kind,
                id: a,
                dur: SimDuration::from_micros(b),
            },
            _ => Payload::SpanClose { kind, id: a },
        }
    }

    /// Categories of random length over an alphabet with multi-byte
    /// characters, plus the empty name and one wider than the render's
    /// padding. A bounded set, so the category table never fills.
    fn arbitrary_categories(rng: &mut RngStream) -> Vec<&'static str> {
        const ALPHABET: [char; 8] = ['a', 'z', '.', '_', '0', 'é', '→', '\u{1F600}'];
        let mut cats = vec!["", "telemetry.event.a-category-wider-than-ten"];
        for _ in 0..10 {
            let len = rng.uniform_int(1, 12);
            let name: String = (0..len).map(|_| *rng.choose(&ALPHABET)).collect();
            cats.push(Box::leak(name.into_boxed_str()));
        }
        cats
    }

    #[test]
    fn packed_events_round_trip_and_match_the_reference_encoding() {
        let mut rng = RngStream::derive(0x5eed, "telemetry.event.round_trip");
        let cats = arbitrary_categories(&mut rng);
        let keys: Vec<Key> = ["telemetry.event.k", "job.staged", "a"]
            .iter()
            .map(|k| Key::intern(k))
            .collect();
        for case in 0..4000 {
            let at = SimTime::from_micros(arbitrary_word(&mut rng));
            let category = *rng.choose(&cats);
            let reference = Reference {
                at,
                category,
                key: *rng.choose(&keys),
                payload: arbitrary_payload(&mut rng),
            };
            let e = Event::new(
                reference.at,
                reference.category,
                reference.key,
                reference.payload.clone(),
            );
            assert_eq!(
                bits(&e.payload()),
                bits(&reference.payload),
                "case {case}: {:?}",
                reference.payload
            );
            assert_eq!(e.category(), reference.category, "case {case}");
            assert_eq!((e.at, e.key), (reference.at, reference.key), "case {case}");
            let (mut got, mut want) = (Fnv::new(), Fnv::new());
            e.fold_digest(&mut got);
            reference.fold_digest(&mut want);
            assert_eq!(got.finish(), want.finish(), "case {case}: {e:?}");
            assert_eq!(e.to_string(), reference.to_string(), "case {case}");
        }
    }

    #[test]
    fn digest_distinguishes_payload_types_with_equal_bits() {
        let mut a = Fnv::new();
        ev("telemetry.test.k", Payload::Count(42)).fold_digest(&mut a);
        let mut b = Fnv::new();
        ev("telemetry.test.k", Payload::Bytes(42)).fold_digest(&mut b);
        assert_ne!(
            a.finish(),
            b.finish(),
            "Count(42) and Bytes(42) must hash apart"
        );
    }

    #[test]
    fn digest_field_boundaries_are_unambiguous() {
        let mut a = Fnv::new();
        Event::new(SimTime::ZERO, "ab", Key::intern("c.x"), Payload::None).fold_digest(&mut a);
        let mut b = Fnv::new();
        Event::new(SimTime::ZERO, "a", Key::intern("bc.x"), Payload::None).fold_digest(&mut b);
        assert_ne!(
            a.finish(),
            b.finish(),
            "category/key boundary must be hashed"
        );
    }

    #[test]
    fn span_events_render_kind_and_id() {
        let e = ev(
            "job.submitted",
            Payload::SpanOpen {
                kind: SpanKind::Job,
                id: 7,
            },
        );
        assert_eq!(
            e.to_string(),
            "[00:00:01.500] test       job.submitted open job:7"
        );
    }
}
