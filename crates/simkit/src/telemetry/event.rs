//! The typed event record.
//!
//! An [`Event`] is what every layer appends to the telemetry log: a
//! simulated timestamp, a static component category (`"htc"`, `"cloud"`,
//! `"autoscale"`, …), an interned [`Key`] naming what happened, and a
//! typed [`Payload`] carrying the numbers — ids, durations, byte counts —
//! instead of a pre-formatted string. Formatting happens only when a
//! human asks for it (the `Display` impl); digests and span assembly work on
//! the typed data directly.

use std::fmt;

use crate::hash::Fnv;
use crate::time::{SimDuration, SimTime};

use super::intern::Key;

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

/// One telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When it happened (simulated time).
    pub at: SimTime,
    /// Static component category (`"htc"`, `"cloud"`, `"transfer"`, …).
    pub category: &'static str,
    /// Interned name of what happened.
    pub key: Key,
    /// The typed data.
    pub payload: Payload,
}

impl Event {
    /// Feed this event's identity into a digest state. Encodes the key
    /// *name* (never the interning-order-dependent id) so digests are
    /// stable across thread interleavings and processes.
    pub(crate) fn fold_digest(&self, h: &mut Fnv) {
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
            // Tag 6 is unused: tags never change, so recorded digests
            // keep their values.
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

impl fmt::Display for Event {
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

/// A field separator outside the value alphabet of length-prefix-free
/// byte fields (category/key/text), so `("ab","c")` and `("a","bc")`
/// hash differently.
const SEP: u8 = 0xFF;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(key: &str, payload: Payload) -> Event {
        Event {
            at: SimTime::from_micros(1_500_000),
            category: "test",
            key: Key::intern(key),
            payload,
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
        Event {
            at: SimTime::ZERO,
            category: "ab",
            key: Key::intern("c.x"),
            payload: Payload::None,
        }
        .fold_digest(&mut a);
        let mut b = Fnv::new();
        Event {
            at: SimTime::ZERO,
            category: "a",
            key: Key::intern("bc.x"),
            payload: Payload::None,
        }
        .fold_digest(&mut b);
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
