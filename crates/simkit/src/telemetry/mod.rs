//! The typed telemetry plane.
//!
//! Every layer of the simulator reports what happened through one
//! mechanism: typed [`Event`] records — a simulated timestamp, a static
//! component category, an interned [`Key`], and a typed [`Payload`] —
//! appended to a shared [`Telemetry`] log. Nothing is pre-formatted on
//! the hot path; rendering, digesting, span assembly, and metric
//! derivation all happen after the fact, from the same records.
//!
//! # Memory
//!
//! An episode's log and its assembled spans are kept whole until the
//! report is built, so their records are sized for long episodes: an
//! [`Event`] is 32 bytes (the category interned to a `u16`, the payload
//! packed into a tag and two words), and a [`Span`] is 96 bytes. A
//! span keeps its category as the same `u16` and up to two phases
//! inline (a job's `job.matched` and `job.staged`), so assembly
//! allocates nothing per job span. A 300,000-job `datashare` episode
//! records 1.2M events (38.4 MB) and assembles 300,000 spans (28.8 MB).
//!
//! Two consumers sit on top:
//!
//! * [`Metrics`](crate::metrics::Metrics) — the always-on counter bank,
//!   indexed by the same [`Key`]s the events carry.
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
/// federation's wide-area links. Counters under these keys let a report
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
}

use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

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

    fn lock(&self) -> MutexGuard<'_, Vec<Event>> {
        self.events.lock().expect("telemetry lock poisoned")
    }

    /// Append an event (no-op when disabled).
    pub fn emit(&self, event: Event) {
        if self.enabled {
            self.lock().push(event);
        }
    }

    /// Build and append an event in one call (no-op when disabled: the
    /// category is only interned after the enabled check).
    pub fn record(&self, at: SimTime, category: &'static str, key: Key, payload: Payload) {
        if self.enabled {
            self.lock().push(Event::new(at, category, key, payload));
        }
    }

    /// Open a lifecycle span (no-op when disabled).
    pub fn span_open(
        &self,
        at: SimTime,
        category: &'static str,
        key: Key,
        kind: SpanKind,
        id: u64,
    ) {
        self.record(at, category, key, Payload::SpanOpen { kind, id });
    }

    /// Mark a phase boundary inside an open span, attributing `dur` to
    /// the phase (no-op when disabled).
    pub fn span_phase(
        &self,
        at: SimTime,
        category: &'static str,
        key: Key,
        kind: SpanKind,
        id: u64,
        dur: SimDuration,
    ) {
        self.record(at, category, key, Payload::SpanPhase { kind, id, dur });
    }

    /// Close a lifecycle span (no-op when disabled).
    pub fn span_close(
        &self,
        at: SimTime,
        category: &'static str,
        key: Key,
        kind: SpanKind,
        id: u64,
    ) {
        self.record(at, category, key, Payload::SpanClose { kind, id });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All events in emission order, read in place: the guard holds the
    /// log's lock until dropped, so emitting through any handle sharing
    /// this log while it is alive deadlocks.
    pub fn events(&self) -> Events<'_> {
        Events(self.lock())
    }

    /// Append all of `other`'s events to `self` (replica merge). The
    /// other log is left untouched; extending a log with itself (or a
    /// clone sharing it) doubles it.
    pub fn extend(&self, other: &Telemetry) {
        if !self.enabled {
            return;
        }
        let (mine, theirs) = (Arc::as_ptr(&self.events), Arc::as_ptr(&other.events));
        if mine == theirs {
            let mut log = self.lock();
            let n = log.len();
            log.extend_from_within(..n);
            return;
        }
        // Lock in address order, so two merges running in opposite
        // directions cannot deadlock.
        let (mut log, src) = if mine < theirs {
            (self.lock(), other.lock())
        } else {
            let src = other.lock();
            (self.lock(), src)
        };
        log.extend_from_slice(&src);
    }

    /// An independent deep copy (same records, separate storage) that
    /// keeps recording even if `self` keeps growing.
    pub fn snapshot(&self) -> Telemetry {
        Telemetry {
            enabled: self.enabled,
            events: Arc::new(Mutex::new(self.events().to_vec())),
        }
    }

    /// A stable digest of the log: streaming [`Fnv`] over every event's
    /// typed encoding, seeded with the record count. Key *names* are
    /// hashed (never interning-order ids), so the digest is invariant
    /// across thread counts and interning orders — the determinism suite
    /// compares it across `--threads` settings.
    pub fn digest(&self) -> u64 {
        let g = self.lock();
        let mut h = Fnv::new();
        h.write_u64(g.len() as u64);
        for e in g.iter() {
            e.fold_digest(&mut h);
        }
        h.finish()
    }

    /// Render the whole log as text, one event per line.
    pub fn render(&self) -> String {
        let g = self.lock();
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

/// The event log read in place ([`Telemetry::events`]): derefs to the
/// events in emission order and holds the log's lock until dropped.
#[derive(Debug)]
pub struct Events<'a>(MutexGuard<'a, Vec<Event>>);

impl Deref for Events<'_> {
    type Target = [Event];

    fn deref(&self) -> &[Event] {
        &self.0
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
        let digest = snap.digest();
        tel.record(t(2), "test", Key::intern("telemetry.mod.b"), Payload::None);
        tel.extend(&snap);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.digest(), digest);
        assert_eq!(tel.len(), 3);
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

    /// A fixed log touching every payload shape the digest and the
    /// renderer distinguish.
    fn pinned_log() -> Telemetry {
        let tel = Telemetry::enabled();
        tel.record(
            t(1),
            "htc",
            Key::intern("telemetry.mod.count"),
            Payload::Count(7),
        );
        tel.record(
            t(2),
            "store",
            Key::intern("telemetry.mod.dur"),
            Payload::Duration(SimDuration::from_micros(1_500_000)),
        );
        let (open, close) = (
            Key::intern("telemetry.mod.open"),
            Key::intern("telemetry.mod.close"),
        );
        tel.span_open(t(3), "htc", open, SpanKind::Job, 9);
        tel.span_close(t(4), "htc", close, SpanKind::Job, 9);
        tel
    }

    #[test]
    fn extend_with_itself_doubles_without_deadlock() {
        let tel = pinned_log();
        let before: Vec<Event> = tel.events().to_vec();
        tel.extend(&tel.clone());
        let after = tel.events();
        assert_eq!(after.len(), 2 * before.len());
        assert_eq!(&after[..before.len()], &before[..]);
        assert_eq!(&after[before.len()..], &before[..]);
    }

    #[test]
    fn digest_and_render_are_pinned() {
        let tel = pinned_log();
        assert_eq!(tel.digest(), 0xca4e_55d3_75d2_3b1a);
        assert_eq!(
            tel.render(),
            "[00:00:01.000] htc        telemetry.mod.count n=7\n\
             [00:00:02.000] store      telemetry.mod.dur dur=1.5s\n\
             [00:00:03.000] htc        telemetry.mod.open open job:9\n\
             [00:00:04.000] htc        telemetry.mod.close close job:9\n"
        );
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
