//! Lifecycle spans assembled from telemetry events.
//!
//! A span is the interval an entity (job, workflow, transfer, instance)
//! spends between its [`Payload::SpanOpen`] and [`Payload::SpanClose`]
//! events, with [`Payload::SpanPhase`] boundaries in between. Spans are
//! not recorded by components — they are *assembled* after the fact from
//! the event log, so there is exactly one source of truth and no parallel
//! bookkeeping to drift.
//!
//! [`JobBreakdown`] decomposes a job span's walltime into queue-wait,
//! disruption-repair, staging, and compute — the four components sum to
//! the walltime *exactly*, by construction, which is what lets an episode
//! report account for every second of its makespan.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;

use crate::time::{SimDuration, SimTime};

use super::event::{Event, Payload, SpanKind};
use super::intern::{category_name, Key};

/// Well-known event keys. Emitters pass these; analyzers match against
/// them. Keeping them here (not per-crate) is what makes the span
/// assembler work across layers.
///
/// Each is a [`Key`] made once, at compile time: the process-wide key
/// table starts out holding these names at these ids, so emitting one
/// takes no lock and hashes nothing. [`Key::name`] gives the name.
pub mod keys {
    use super::Key;

    /// Declares each key as a `Key` constant with the next id, and
    /// [`NAMES`] listing the names in id order for the key table.
    macro_rules! vocabulary {
        ($($(#[$doc:meta])* $key:ident = $name:literal,)*) => {
            #[allow(non_camel_case_types)]
            enum Id {
                $($key,)*
            }
            $($(#[$doc])* pub const $key: Key = Key::reserved(Id::$key as u32);)*
            /// The names of the keys above, in id order.
            pub(crate) const NAMES: &[&str] = &[$($name,)*];
        };
    }

    vocabulary! {
        /// Job span opens: submitted to the scheduler.
        JOB_SUBMITTED = "job.submitted",
        /// Job phase: matched to a machine (a run attempt starts).
        JOB_MATCHED = "job.matched",
        /// Job phase: inputs staged; the attached duration is the staging time.
        JOB_STAGED = "job.staged",
        /// Job phase: evicted from its machine and requeued.
        JOB_EVICTED = "job.evicted",
        /// Job span closes: completed.
        JOB_COMPLETED = "job.completed",
        /// Job span closes: removed before completion.
        JOB_REMOVED = "job.removed",
        /// Job phase: held for a retry backoff by the recovery plane; the
        /// attached duration is the backoff wait.
        JOB_RETRY_BACKOFF = "job.retry_backoff",
        /// Job phase: the recovery plane dead-lettered the job (retry budget
        /// exhausted); a `job.removed` close follows.
        JOB_DEAD_LETTERED = "job.dead_lettered",
        /// Instance span opens: capacity requested.
        INSTANCE_REQUESTED = "instance.requested",
        /// Instance phase: allocation + boot finished, instance usable.
        INSTANCE_RUNNING = "instance.running",
        /// Instance span closes: terminated normally.
        INSTANCE_TERMINATED = "instance.terminated",
        /// Instance span closes: preempted by the spot market.
        INSTANCE_PREEMPTED = "instance.preempted",
        /// Transfer span opens: task submitted.
        TRANSFER_STARTED = "transfer.started",
        /// Transfer phase: a fault interrupted the stream (retried).
        TRANSFER_FAULT = "transfer.fault",
        /// Transfer span closes: task reached a terminal status.
        TRANSFER_DONE = "transfer.done",
        /// Workflow span opens: invocation started.
        WORKFLOW_STARTED = "workflow.started",
        /// Workflow phase: one step's job finished.
        WORKFLOW_STEP = "workflow.step",
        /// Workflow span closes: all steps done.
        WORKFLOW_COMPLETED = "workflow.completed",
        /// Workflow phase: a resumed run skipped this step — its checkpointed
        /// outputs were re-staged through the data plane; the attached
        /// duration is the re-staging time.
        WORKFLOW_STEP_RESUMED = "workflow.step_resumed",
        /// Workflow phase: a resumed run re-executes this step (lost suffix).
        WORKFLOW_STEP_RERUN = "workflow.step_rerun",
        /// Autoscale decision: workers added (payload: from → to).
        SCALE_OUT = "autoscale.scale_out",
        /// Autoscale decision: workers released (payload: from → to).
        SCALE_IN = "autoscale.scale_in",
        /// Autoscale decision: tick held (payload: count of the hold reason).
        SCALE_HOLD = "autoscale.hold",
        /// Repair plane: a disrupted worker was observed lost.
        REPAIR_OBSERVED = "repair.observed",
        /// Repair plane: a replacement slot was relaunched.
        REPAIR_RELAUNCHED = "repair.relaunched",
    }
}

/// One phase boundary inside a span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// What the phase marks (e.g. `job.matched`).
    pub key: Key,
    /// When it happened.
    pub at: SimTime,
    /// Duration attributed to the phase (`ZERO` for pure markers).
    pub dur: SimDuration,
}

/// A span's phase boundaries, in event order: 56 bytes, two 24-byte
/// [`Phase`]s and the tag.
///
/// Derefs to `[Phase]`. Up to two phases are stored inline; a job span
/// holds exactly two (`job.matched`, `job.staged`) unless it was evicted,
/// so assembling an episode's job spans allocates nothing per span. A
/// third phase moves them all to the heap. (Shrinking a `Vec` after the
/// fact does not return the memory: the freed tails stay resident.)
#[derive(Clone, Default)]
pub struct Phases(PhaseStore);

#[derive(Clone, Default)]
enum PhaseStore {
    #[default]
    None,
    One([Phase; 1]),
    Two([Phase; 2]),
    Heap(Vec<Phase>),
}

const _: () = assert!(std::mem::size_of::<Phases>() == 2 * std::mem::size_of::<Phase>() + 8);

impl Phases {
    /// Append a phase.
    pub(crate) fn push(&mut self, p: Phase) {
        self.0 = match std::mem::take(&mut self.0) {
            PhaseStore::None => PhaseStore::One([p]),
            PhaseStore::One([a]) => PhaseStore::Two([a, p]),
            PhaseStore::Two([a, b]) => PhaseStore::Heap(vec![a, b, p]),
            PhaseStore::Heap(mut v) => {
                v.push(p);
                PhaseStore::Heap(v)
            }
        };
    }
}

impl Deref for Phases {
    type Target = [Phase];

    fn deref(&self) -> &[Phase] {
        match &self.0 {
            PhaseStore::None => &[],
            PhaseStore::One(p) => p,
            PhaseStore::Two(p) => p,
            PhaseStore::Heap(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a Phases {
    type Item = &'a Phase;
    type IntoIter = std::slice::Iter<'a, Phase>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Phases {
    fn eq(&self, other: &Phases) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Phases {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A closed lifecycle span, 96 bytes.
///
/// An episode's spans are all held at once while its report is built, so
/// the record is kept small: the opening component is its interned
/// category id (read the name with [`Span::category`]), and the fields
/// are ordered so the two `u32` keys, the id and the kind pack without
/// padding around the 56-byte [`Phases`].
#[derive(Clone, PartialEq)]
pub struct Span {
    /// Entity id within the kind's namespace.
    pub id: u64,
    /// When the span opened.
    pub opened_at: SimTime,
    /// When the span closed.
    pub closed_at: SimTime,
    /// Phase boundaries, in event order.
    pub phases: Phases,
    /// The opening event's key.
    pub open_key: Key,
    /// The closing event's key (distinguishes outcomes: completed vs
    /// removed, terminated vs preempted).
    pub close_key: Key,
    /// Component that opened the span, interned.
    category: u16,
    /// The lifecycle kind.
    pub kind: SpanKind,
}

const _: () = assert!(std::mem::size_of::<Span>() == 96);

impl Span {
    /// Component that opened the span (`"htc"`, `"cloud"`, …).
    pub fn category(&self) -> &'static str {
        category_name(self.category)
    }

    /// Open → close.
    pub fn duration(&self) -> SimDuration {
        self.closed_at.since(self.opened_at)
    }

    /// Phases matching `key`, in order.
    pub fn phases_named(&self, key: Key) -> impl Iterator<Item = &Phase> {
        self.phases.iter().filter(move |p| p.key == key)
    }
}

impl fmt::Debug for Span {
    // Show the category's name, not its interning-order id.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("kind", &self.kind)
            .field("id", &self.id)
            .field("category", &self.category())
            .field("open_key", &self.open_key)
            .field("opened_at", &self.opened_at)
            .field("phases", &self.phases)
            .field("close_key", &self.close_key)
            .field("closed_at", &self.closed_at)
            .finish()
    }
}

/// Why span assembly rejected an event sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanError {
    /// A second `SpanOpen` arrived for an entity whose span is open.
    Reopened {
        /// Offending entity.
        kind: SpanKind,
        /// Offending entity id.
        id: u64,
        /// When the duplicate open arrived.
        at: SimTime,
    },
    /// A phase or close arrived for an entity with no open span.
    NotOpen {
        /// Offending entity.
        kind: SpanKind,
        /// Offending entity id.
        id: u64,
        /// When the orphan event arrived.
        at: SimTime,
    },
    /// An event inside a span carried a timestamp earlier than the one
    /// before it.
    NonMonotone {
        /// Offending entity.
        kind: SpanKind,
        /// Offending entity id.
        id: u64,
        /// The regressing timestamp.
        at: SimTime,
    },
    /// The log ended with this span still open (strict assembly only).
    NeverClosed {
        /// Offending entity.
        kind: SpanKind,
        /// Offending entity id.
        id: u64,
        /// When it opened.
        opened_at: SimTime,
    },
}

impl fmt::Display for SpanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanError::Reopened { kind, id, at } => {
                write!(f, "span {}:{id} reopened at {at}", kind.label())
            }
            SpanError::NotOpen { kind, id, at } => write!(
                f,
                "event for {}:{id} at {at} without an open span",
                kind.label()
            ),
            SpanError::NonMonotone { kind, id, at } => write!(
                f,
                "timestamps regress inside span {}:{id} at {at}",
                kind.label()
            ),
            SpanError::NeverClosed {
                kind,
                id,
                opened_at,
            } => write!(
                f,
                "span {}:{id} opened at {opened_at} never closed",
                kind.label()
            ),
        }
    }
}

impl std::error::Error for SpanError {}

/// A partially-built span (open, not yet closed).
#[derive(Debug, Clone)]
struct OpenSpan {
    category: u16,
    open_key: Key,
    opened_at: SimTime,
    phases: Phases,
    last_at: SimTime,
}

/// The result of lenient assembly: closed spans in close order, plus
/// whatever was still open when the log ended (instances still running at
/// episode teardown, for example).
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    /// Spans that closed, in close order.
    pub closed: Vec<Span>,
    /// `(kind, id, opened_at)` of spans still open at the end of the log.
    pub open: Vec<(SpanKind, u64, SimTime)>,
}

impl SpanSet {
    /// Closed spans of one kind, in close order.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &Span> {
        self.closed.iter().filter(move |s| s.kind == kind)
    }
}

/// Assemble spans from an event log, tolerating still-open spans.
///
/// Violations of span structure (reopen, orphan phase/close, timestamp
/// regression) are still hard errors — they indicate an instrumentation
/// bug, not a truncated episode.
pub fn assemble_lenient(events: &[Event]) -> Result<SpanSet, SpanError> {
    let mut open: BTreeMap<(u8, u64), OpenSpan> = BTreeMap::new();
    let mut set = SpanSet::default();
    for e in events {
        match e.payload() {
            Payload::SpanOpen { kind, id } => {
                let slot = (kind.code(), id);
                if open.contains_key(&slot) {
                    return Err(SpanError::Reopened { kind, id, at: e.at });
                }
                open.insert(
                    slot,
                    OpenSpan {
                        category: e.category_id(),
                        open_key: e.key,
                        opened_at: e.at,
                        phases: Phases::default(),
                        last_at: e.at,
                    },
                );
            }
            Payload::SpanPhase { kind, id, dur } => {
                let slot = (kind.code(), id);
                let Some(s) = open.get_mut(&slot) else {
                    return Err(SpanError::NotOpen { kind, id, at: e.at });
                };
                if e.at < s.last_at {
                    return Err(SpanError::NonMonotone { kind, id, at: e.at });
                }
                s.last_at = e.at;
                s.phases.push(Phase {
                    key: e.key,
                    at: e.at,
                    dur,
                });
            }
            Payload::SpanClose { kind, id } => {
                let slot = (kind.code(), id);
                let Some(s) = open.remove(&slot) else {
                    return Err(SpanError::NotOpen { kind, id, at: e.at });
                };
                if e.at < s.last_at {
                    return Err(SpanError::NonMonotone { kind, id, at: e.at });
                }
                set.closed.push(Span {
                    id,
                    opened_at: s.opened_at,
                    closed_at: e.at,
                    phases: s.phases,
                    open_key: s.open_key,
                    close_key: e.key,
                    category: s.category,
                    kind,
                });
            }
            _ => {}
        }
    }
    // BTreeMap order: (kind code, id) — deterministic.
    for (&(code, id), s) in &open {
        let kind = SpanKind::from_code(code).expect("open spans are keyed by a kind code");
        set.open.push((kind, id, s.opened_at));
    }
    Ok(set)
}

/// Strict assembly: every opened span must have closed.
pub fn assemble(events: &[Event]) -> Result<Vec<Span>, SpanError> {
    let set = assemble_lenient(events)?;
    if let Some(&(kind, id, opened_at)) = set.open.first() {
        return Err(SpanError::NeverClosed {
            kind,
            id,
            opened_at,
        });
    }
    Ok(set.closed)
}

/// A job span's walltime, decomposed. The four components sum to the
/// span's duration exactly (integer microseconds, no rounding).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobBreakdown {
    /// Submission to the *first* match: time spent waiting for capacity.
    pub queue: SimDuration,
    /// First match to the *last* match: run attempts lost to disruptions
    /// plus requeue waits. Zero for a job that ran once.
    pub repair: SimDuration,
    /// Staging charged to the final (surviving) run attempt.
    pub staging: SimDuration,
    /// The final run attempt's execution time net of staging.
    pub compute: SimDuration,
}

impl JobBreakdown {
    /// Sum of the four components — always the span's walltime.
    pub fn total(&self) -> SimDuration {
        self.queue + self.repair + self.staging + self.compute
    }

    /// Decompose a job span. Returns `None` if the span has no
    /// `job.matched` phase (a job that closed without ever running).
    pub fn of(span: &Span) -> Option<JobBreakdown> {
        let mut first_match: Option<SimTime> = None;
        let mut last_match: Option<SimTime> = None;
        for p in span.phases_named(keys::JOB_MATCHED) {
            if first_match.is_none() {
                first_match = Some(p.at);
            }
            last_match = Some(p.at);
        }
        let (first, last) = (first_match?, last_match?);
        // Staging of the surviving attempt: staged phases at/after the
        // last match. Earlier (aborted) attempts' staging is repair time.
        let staging = span
            .phases_named(keys::JOB_STAGED)
            .filter(|p| p.at >= last)
            .fold(SimDuration::ZERO, |acc, p| acc + p.dur);
        let run = span.closed_at.since(last);
        Some(JobBreakdown {
            queue: first.since(span.opened_at),
            repair: last.since(first),
            staging,
            compute: run.saturating_sub(staging),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::Telemetry;
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn job_events(tel: &Telemetry) {
        tel.span_open(t(0), "htc", keys::JOB_SUBMITTED, SpanKind::Job, 1);
        tel.span_phase(
            t(40),
            "htc",
            keys::JOB_MATCHED,
            SpanKind::Job,
            1,
            SimDuration::ZERO,
        );
        tel.span_phase(
            t(40),
            "store",
            keys::JOB_STAGED,
            SpanKind::Job,
            1,
            SimDuration::from_secs(10),
        );
        tel.span_close(t(160), "htc", keys::JOB_COMPLETED, SpanKind::Job, 1);
    }

    #[test]
    fn assembles_a_simple_job_span() {
        let tel = Telemetry::enabled();
        job_events(&tel);
        let spans = assemble(&tel.events()).unwrap();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.kind, SpanKind::Job);
        assert_eq!(s.id, 1);
        assert_eq!(s.duration(), SimDuration::from_secs(160));
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.close_key, keys::JOB_COMPLETED);
        assert_eq!(s.category(), "htc");
    }

    #[test]
    fn breakdown_components_sum_to_walltime() {
        let tel = Telemetry::enabled();
        job_events(&tel);
        let spans = assemble(&tel.events()).unwrap();
        let b = JobBreakdown::of(&spans[0]).unwrap();
        assert_eq!(b.queue, SimDuration::from_secs(40));
        assert_eq!(b.repair, SimDuration::ZERO);
        assert_eq!(b.staging, SimDuration::from_secs(10));
        assert_eq!(b.compute, SimDuration::from_secs(110));
        assert_eq!(b.total(), spans[0].duration());
    }

    #[test]
    fn eviction_time_lands_in_repair() {
        let tel = Telemetry::enabled();
        tel.span_open(t(0), "htc", keys::JOB_SUBMITTED, SpanKind::Job, 9);
        for (at, key) in [(10, keys::JOB_MATCHED), (50, keys::JOB_EVICTED)] {
            tel.span_phase(t(at), "htc", key, SpanKind::Job, 9, SimDuration::ZERO);
        }
        tel.span_phase(
            t(90),
            "htc",
            keys::JOB_MATCHED,
            SpanKind::Job,
            9,
            SimDuration::ZERO,
        );
        tel.span_close(t(190), "htc", keys::JOB_COMPLETED, SpanKind::Job, 9);
        let spans = assemble(&tel.events()).unwrap();
        let b = JobBreakdown::of(&spans[0]).unwrap();
        assert_eq!(b.queue, SimDuration::from_secs(10));
        assert_eq!(b.repair, SimDuration::from_secs(80), "lost run + requeue");
        assert_eq!(b.compute, SimDuration::from_secs(100));
        assert_eq!(b.total(), spans[0].duration());
    }

    #[test]
    fn strict_assembly_rejects_unclosed_spans() {
        let tel = Telemetry::enabled();
        tel.span_open(
            t(0),
            "cloud",
            keys::INSTANCE_REQUESTED,
            SpanKind::Instance,
            3,
        );
        let events = tel.events();
        assert!(matches!(
            assemble(&events),
            Err(SpanError::NeverClosed {
                kind: SpanKind::Instance,
                id: 3,
                ..
            })
        ));
        let set = assemble_lenient(&events).unwrap();
        assert_eq!(set.closed.len(), 0);
        assert_eq!(set.open, vec![(SpanKind::Instance, 3, t(0))]);
    }

    #[test]
    fn structural_violations_are_errors() {
        let reopen = Telemetry::enabled();
        reopen.span_open(t(0), "htc", keys::JOB_SUBMITTED, SpanKind::Job, 1);
        reopen.span_open(t(1), "htc", keys::JOB_SUBMITTED, SpanKind::Job, 1);
        assert!(matches!(
            assemble(&reopen.events()),
            Err(SpanError::Reopened { .. })
        ));

        let orphan = Telemetry::enabled();
        orphan.span_close(t(1), "htc", keys::JOB_COMPLETED, SpanKind::Job, 2);
        assert!(matches!(
            assemble(&orphan.events()),
            Err(SpanError::NotOpen { .. })
        ));

        let regress = Telemetry::enabled();
        regress.span_open(t(5), "htc", keys::JOB_SUBMITTED, SpanKind::Job, 3);
        regress.span_close(t(4), "htc", keys::JOB_COMPLETED, SpanKind::Job, 3);
        assert!(matches!(
            assemble(&regress.events()),
            Err(SpanError::NonMonotone { .. })
        ));
    }

    #[test]
    fn two_phases_stay_inline_and_a_third_spills() {
        let tel = Telemetry::enabled();
        job_events(&tel);
        let span = assemble(&tel.events()).unwrap().remove(0);
        assert_eq!(span.phases.len(), 2);
        // The phase slice lies inside the span itself: no heap chunk.
        let base = &span as *const Span as usize;
        let at = span.phases.as_ptr() as usize;
        assert!((base..base + std::mem::size_of::<Span>()).contains(&at));

        let mut phases = Phases::default();
        let mut model = Vec::new();
        for i in 0..5u64 {
            let p = Phase {
                key: keys::JOB_EVICTED,
                at: t(i),
                dur: SimDuration::from_secs(i),
            };
            phases.push(p);
            model.push(p);
            assert_eq!(&phases[..], &model[..]);
            assert_eq!((&phases).into_iter().count(), model.len());
        }
    }

    #[test]
    fn same_id_different_kinds_do_not_collide() {
        let tel = Telemetry::enabled();
        tel.span_open(t(0), "htc", keys::JOB_SUBMITTED, SpanKind::Job, 5);
        tel.span_open(
            t(0),
            "cloud",
            keys::INSTANCE_REQUESTED,
            SpanKind::Instance,
            5,
        );
        tel.span_close(t(10), "htc", keys::JOB_COMPLETED, SpanKind::Job, 5);
        tel.span_close(
            t(20),
            "cloud",
            keys::INSTANCE_TERMINATED,
            SpanKind::Instance,
            5,
        );
        let spans = assemble(&tel.events()).unwrap();
        assert_eq!(spans.len(), 2);
    }
}
