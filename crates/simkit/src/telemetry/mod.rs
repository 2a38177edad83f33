//! The typed telemetry plane.
//!
//! Every layer of the simulator reports what happened through one
//! mechanism: typed [`Event`] records — a simulated timestamp, a static
//! component category, an interned [`Key`], and a typed [`Payload`] —
//! appended to a shared [`Telemetry`] log. Nothing is pre-formatted on
//! the hot path; rendering, digesting, span assembly, and metric
//! derivation all happen after the fact, from the same records.
//!
//! Two consumers sit on top:
//!
//! * [`Metrics`](crate::metrics::Metrics) — the counter/gauge/sample
//!   registry, integer-indexed by pre-registered
//!   [`MetricId`](crate::metrics::MetricId) handles.
//! * [`span`] — lifecycle spans (job / workflow / transfer / instance)
//!   assembled from `SpanOpen`/`SpanPhase`/`SpanClose` events, with
//!   [`span::JobBreakdown`] decomposing walltime into
//!   queue / repair / staging / compute.
//!
//! # Determinism
//!
//! [`Telemetry::digest`] folds every event into a streaming [`Fnv`]
//! state — key *names*, never interning-order ids — so two logs digest
//! equal iff they carry the same records, regardless of thread count or
//! what else the process interned first. The determinism suite compares
//! digests across `--threads` settings.
//!
//! # Overhead
//!
//! A disabled handle (the default everywhere) rejects events on a single
//! unsynchronized branch — the enabled flag is immutable after
//! construction, so no lock is touched. The `telemetry` kernel bench
//! measures both sides.

pub mod event;
pub mod intern;
pub mod span;

/// The `wan.*` telemetry vocabulary: cross-site traffic over the
/// federation's wide-area links. Metrics under these keys let a report
/// decompose staging into intra-site bytes (the `store.bytes.*`
/// counters) and cross-site bytes, and events under [`wan::CATEGORY`]
/// carry per-crossing detail (size, link, charge).
pub mod wan {
    /// Event category for cross-site traffic records.
    pub const CATEGORY: &str = "wan";
    /// Counter: bytes that left a site over the WAN (billed egress —
    /// attributed to the *source* site, as clouds bill it).
    pub const BYTES_EGRESS: &str = "wan.bytes.egress";
    /// Counter: bytes that arrived at a site over the WAN (ingress —
    /// free in the 2012 pricing model, counted for symmetry checks).
    pub const BYTES_INGRESS: &str = "wan.bytes.ingress";
    /// Counter: cross-site object crossings (one per remote fetch).
    pub const CROSSINGS: &str = "wan.crossings";
    /// Event: one WAN crossing completed (`Payload::Bytes` — the
    /// object's size; the event's category is [`CATEGORY`]).
    pub const CROSSING_DONE: &str = "wan.crossing.done";
    /// Event: a replica was placed at the destination site after a
    /// crossing (`Payload::Bytes`).
    pub const REPLICATED: &str = "wan.replicated";
    /// Sample: per-crossing transfer seconds.
    pub const CROSSING_SECS: &str = "wan.crossing_secs";
    /// Sample: per-crossing egress dollars.
    pub const EGRESS_USD: &str = "wan.egress_usd";
}

use std::sync::{Arc, Mutex};

use crate::hash::Fnv;
use crate::time::{SimDuration, SimTime};

pub use event::{Event, Payload, SpanKind};
pub use intern::Key;
pub use span::{assemble, assemble_lenient, JobBreakdown, Phase, Span, SpanError, SpanSet};

/// A cheap-to-clone handle to a shared, append-only event log.
///
/// Clones share the log (components across layers feed one episode's
/// telemetry). Whether the handle records is fixed at construction:
/// [`Telemetry::enabled`] records everything, [`Telemetry::disabled`]
/// (the [`Default`]) rejects everything on a branch without locking.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Immutable after construction — the no-lock fast path for the
    /// disabled (default) case.
    enabled: bool,
    events: Arc<Mutex<Vec<Event>>>,
}

impl Telemetry {
    /// A handle that records everything.
    pub fn enabled() -> Telemetry {
        Telemetry {
            enabled: true,
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A handle that discards everything (zero overhead beyond the
    /// branch). Equivalent to [`Telemetry::default`].
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Whether events are kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append an event (no-op when disabled).
    pub fn emit(&self, event: Event) {
        if self.enabled {
            self.events
                .lock()
                .expect("telemetry lock poisoned")
                .push(event);
        }
    }

    /// Build and append an event in one call (no-op when disabled; the
    /// payload is only constructed after the enabled check when the
    /// caller uses a closure-free literal, which is the common case).
    pub fn record(&self, at: SimTime, category: &'static str, key: Key, payload: Payload) {
        self.emit(Event {
            at,
            category,
            key,
            payload,
        });
    }

    /// Open a lifecycle span (interns `key`; no-op when disabled).
    pub fn span_open(
        &self,
        at: SimTime,
        category: &'static str,
        key: &str,
        kind: SpanKind,
        id: u64,
    ) {
        if self.enabled {
            self.record(
                at,
                category,
                Key::intern(key),
                Payload::SpanOpen { kind, id },
            );
        }
    }

    /// Mark a phase boundary inside an open span, attributing `dur` to
    /// the phase (no-op when disabled).
    pub fn span_phase(
        &self,
        at: SimTime,
        category: &'static str,
        key: &str,
        kind: SpanKind,
        id: u64,
        dur: SimDuration,
    ) {
        if self.enabled {
            self.record(
                at,
                category,
                Key::intern(key),
                Payload::SpanPhase { kind, id, dur },
            );
        }
    }

    /// Close a lifecycle span (no-op when disabled).
    pub fn span_close(
        &self,
        at: SimTime,
        category: &'static str,
        key: &str,
        kind: SpanKind,
        id: u64,
    ) {
        if self.enabled {
            self.record(
                at,
                category,
                Key::intern(key),
                Payload::SpanClose { kind, id },
            );
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("telemetry lock poisoned").len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("telemetry lock poisoned").clone()
    }

    /// Append all of `other`'s events to `self` (replica merge). The
    /// other log is left untouched.
    pub fn extend(&self, other: &Telemetry) {
        if !self.enabled {
            return;
        }
        let snapshot = other.events();
        self.events
            .lock()
            .expect("telemetry lock poisoned")
            .extend(snapshot);
    }

    /// An independent deep copy (same records, separate storage) that
    /// keeps recording even if `self` keeps growing.
    pub fn snapshot(&self) -> Telemetry {
        Telemetry {
            enabled: self.enabled,
            events: Arc::new(Mutex::new(self.events())),
        }
    }

    /// A stable digest of the log: streaming [`Fnv`] over every event's
    /// typed encoding, seeded with the record count. Key *names* are
    /// hashed (never interning-order ids), so the digest is invariant
    /// across thread counts and interning orders — the determinism suite
    /// compares it across `--threads` settings.
    pub fn digest(&self) -> u64 {
        let g = self.events.lock().expect("telemetry lock poisoned");
        let mut h = Fnv::new();
        h.write_u64(g.len() as u64);
        for e in g.iter() {
            e.fold_digest(&mut h);
        }
        h.finish()
    }

    /// Render the whole log as text, one event per line.
    pub fn render(&self) -> String {
        let g = self.events.lock().expect("telemetry lock poisoned");
        let mut out = String::new();
        for e in g.iter() {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Assemble lifecycle spans from the log, tolerating still-open
    /// spans. See [`span::assemble_lenient`].
    pub fn spans(&self) -> Result<SpanSet, SpanError> {
        assemble_lenient(&self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn disabled_handle_discards_without_locking_poison() {
        let tel = Telemetry::disabled();
        tel.record(
            t(1),
            "test",
            Key::intern("telemetry.mod.x"),
            Payload::Count(1),
        );
        assert!(tel.is_empty());
        assert!(!tel.is_enabled());
    }

    #[test]
    fn clones_share_the_log() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        other.record(
            t(1),
            "test",
            Key::intern("telemetry.mod.shared"),
            Payload::None,
        );
        assert_eq!(tel.len(), 1);
    }

    #[test]
    fn snapshot_is_independent() {
        let tel = Telemetry::enabled();
        tel.record(t(1), "test", Key::intern("telemetry.mod.a"), Payload::None);
        let snap = tel.snapshot();
        tel.record(t(2), "test", Key::intern("telemetry.mod.b"), Payload::None);
        assert_eq!(snap.len(), 1);
        assert_eq!(tel.len(), 2);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let build = |n: u64| {
            let tel = Telemetry::enabled();
            for i in 0..n {
                tel.record(
                    t(i),
                    "test",
                    Key::intern("telemetry.mod.tick"),
                    Payload::Count(i),
                );
            }
            tel
        };
        assert_eq!(build(5).digest(), build(5).digest());
        assert_ne!(build(5).digest(), build(6).digest());
    }

    #[test]
    fn extend_appends_in_order() {
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        a.record(
            t(1),
            "test",
            Key::intern("telemetry.mod.one"),
            Payload::None,
        );
        b.record(
            t(2),
            "test",
            Key::intern("telemetry.mod.two"),
            Payload::None,
        );
        a.extend(&b);
        assert_eq!(a.len(), 2);
        let all = a.events();
        assert_eq!(all[1].at, t(2));
    }

    #[test]
    fn render_lists_every_event() {
        let tel = Telemetry::enabled();
        tel.record(
            t(1),
            "cloud",
            Key::intern("telemetry.mod.boot"),
            Payload::Duration(SimDuration::from_secs(42)),
        );
        let r = tel.render();
        assert_eq!(r.lines().count(), 1);
        assert!(r.contains("telemetry.mod.boot"));
        assert!(r.contains("dur=42s"));
    }
}
