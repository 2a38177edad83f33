//! The discrete-event simulation engine.
//!
//! A [`Sim<W>`] owns an arbitrary *world* `W` plus a pending-event queue.
//! Event handlers are `FnOnce(&mut Sim<W>)` closures: when an event fires, the
//! handler receives the whole simulation, so it can inspect and mutate the
//! world **and** schedule follow-up events. This is the classic
//! event-scheduling world view of discrete-event simulation.
//!
//! Determinism guarantees:
//! * events at equal timestamps fire in the order they were scheduled
//!   (a monotone sequence number breaks ties);
//! * no wall-clock time or OS entropy is consulted anywhere in the kernel;
//! * cancellation flips a per-slot generation counter, so it cannot perturb
//!   the firing order of the surviving events.
//!
//! # Queue internals
//!
//! Handlers live in a **slab** of reusable slots. The pending order is one
//! binary min-heap of compact `(time, seq, slot, gen)` index entries, never
//! the handlers themselves, so firing pops the earliest `(time, seq)`.
//! Cancellation bumps the slot's generation counter and drops the handler
//! immediately; a heap entry whose generation no longer matches its slot is
//! discarded when it reaches the top. See DESIGN.md "Event-queue internals".

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Opaque handle to a scheduled event; used for cancellation.
///
/// Ordering follows schedule order (the internal sequence number), so ids
/// can be sorted to recover the order in which events were scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    seq: u64,
    slot: u32,
    gen: u32,
}

type Handler<W> = Box<dyn FnOnce(&mut Sim<W>)>;

/// One slab slot: the boxed handler plus the generation counter that makes
/// stale index entries (fired or cancelled) detectable in O(1).
struct Slot<W> {
    gen: u32,
    handler: Option<Handler<W>>,
}

/// A compact index entry: everything the queue needs to know about a
/// pending event, without touching the handler. Ordered by `(at_us, seq)`:
/// `seq` is unique, so `slot` and `gen` never decide a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at_us: u64,
    seq: u64,
    slot: u32,
    gen: u32,
}

/// Why [`Sim::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    QueueEmpty,
    /// The time horizon passed; later events remain queued.
    HorizonReached,
    /// An event handler requested a halt via [`Sim::halt`].
    Halted,
    /// The step budget was exhausted (runaway-loop protection).
    StepBudgetExhausted,
}

/// A discrete-event simulation over world state `W`.
pub struct Sim<W> {
    now: SimTime,
    slots: Vec<Slot<W>>,
    free: Vec<u32>,
    /// Min-heap (via `Reverse`) of live and cancelled index entries.
    queue: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
    /// Pending (scheduled, not yet fired, not cancelled) events.
    live: usize,
    steps_executed: u64,
    halt: bool,
    /// The world under simulation. Public: event handlers and drivers
    /// manipulate it directly.
    pub world: W,
}

impl<W> Sim<W> {
    /// Create a simulation at time zero around `world`.
    pub fn new(world: W) -> Self {
        Sim {
            now: SimTime::ZERO,
            slots: Vec::new(),
            free: Vec::new(),
            queue: BinaryHeap::new(),
            next_seq: 0,
            live: 0,
            steps_executed: 0,
            halt: false,
            world,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Number of events currently pending (scheduled, not yet fired, not
    /// cancelled). Exact: cancelled events leave no tombstone behind.
    pub fn pending_events(&self) -> usize {
        self.live
    }

    /// Schedule `handler` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling into the past would break
    /// causality and always indicates a model bug.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut Sim<W>) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        self.insert(at, Box::new(handler))
    }

    fn insert(&mut self, at: SimTime, handler: Handler<W>) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;

        // Claim a slab slot, reusing a freed one when available.
        let slot = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize].handler = Some(handler);
                idx
            }
            None => {
                assert!(
                    self.slots.len() < u32::MAX as usize,
                    "event slab exhausted (u32::MAX concurrent events)"
                );
                self.slots.push(Slot {
                    gen: 0,
                    handler: Some(handler),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.live += 1;
        self.queue.push(Reverse(Entry {
            at_us: at.as_micros(),
            seq,
            slot,
            gen,
        }));
        EventId { seq, slot, gen }
    }

    /// Schedule `handler` to fire `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        handler: impl FnOnce(&mut Sim<W>) + 'static,
    ) -> EventId {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, handler)
    }

    /// Schedule `handler` to fire at the current time, after all events
    /// already scheduled for this instant.
    pub fn schedule_now(&mut self, handler: impl FnOnce(&mut Sim<W>) + 'static) -> EventId {
        self.schedule_at(self.now, handler)
    }

    /// Schedule `handler` to fire at `start` and then every `interval`
    /// thereafter, for as long as it returns `true`. Returning `false`
    /// stops the recurrence (no further firing is queued).
    ///
    /// This is the standard shape of a periodic control loop — a metrics
    /// scraper, a Condor negotiator cycle, an autoscaler tick — written as
    /// a self-rescheduling event so it composes with ordinary events under
    /// the same determinism guarantees.
    ///
    /// Returns the [`EventId`] of the *first* firing; cancelling it before
    /// it fires cancels the whole recurrence.
    ///
    /// # Panics
    /// Panics if `interval` is zero (the recurrence would never advance
    /// time and instantly exhaust any step budget).
    pub fn schedule_every(
        &mut self,
        start: SimTime,
        interval: SimDuration,
        handler: impl FnMut(&mut Sim<W>) -> bool + 'static,
    ) -> EventId
    where
        W: 'static,
    {
        assert!(
            interval > SimDuration::ZERO,
            "recurring events need a positive interval"
        );
        /// A boxed recurring handler: fires, and re-queues while it
        /// returns `true`.
        type Recurring<W> = Box<dyn FnMut(&mut Sim<W>) -> bool>;
        fn fire<W: 'static>(sim: &mut Sim<W>, interval: SimDuration, mut handler: Recurring<W>) {
            if handler(sim) {
                sim.schedule_in(interval, move |sim| fire(sim, interval, handler));
            }
        }
        let boxed: Recurring<W> = Box::new(handler);
        self.schedule_at(start, move |sim| fire(sim, interval, boxed))
    }

    /// Cancel a pending event. Returns `true` if the event had not yet fired
    /// or been cancelled. Cancelling an already-fired event is a no-op (and
    /// reports `false`).
    ///
    /// Cancellation is O(1): the handler is dropped immediately and the
    /// slot's generation counter is bumped, which invalidates whatever
    /// index entry still points at the slot.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if slot.gen != id.gen || slot.handler.is_none() {
            return false; // already fired, already cancelled, or foreign id
        }
        slot.handler = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
        true
    }

    /// Request that the run loop stop after the current event completes.
    pub fn halt(&mut self) {
        self.halt = true;
    }

    /// The earliest live entry, without consuming it. Cancelled entries on
    /// top of the heap are discarded on the way.
    fn peek_live(&mut self) -> Option<Entry> {
        while let Some(&Reverse(entry)) = self.queue.peek() {
            if self.slots[entry.slot as usize].gen == entry.gen {
                return Some(entry);
            }
            self.queue.pop();
        }
        None
    }

    /// Fire the entry [`peek_live`](Sim::peek_live) just returned: pop it,
    /// release its slot, advance the clock, run the handler.
    fn execute(&mut self, entry: Entry) {
        self.queue.pop();
        let slot = &mut self.slots[entry.slot as usize];
        let handler = slot.handler.take().expect("live slot holds a handler");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(entry.slot);
        self.live -= 1;
        debug_assert!(
            entry.at_us >= self.now.as_micros(),
            "event queue time went backwards"
        );
        self.now = SimTime::from_micros(entry.at_us);
        self.steps_executed += 1;
        handler(self);
    }

    /// Execute the single next event, if any. Returns `false` when the queue
    /// is empty.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.peek_live() else {
            return false;
        };
        self.execute(entry);
        true
    }

    /// Run until the queue drains, `horizon` passes, a handler calls
    /// [`halt`](Sim::halt), or `max_steps` events have executed.
    pub fn run(&mut self, horizon: SimTime, max_steps: u64) -> RunOutcome {
        self.halt = false;
        let mut budget = max_steps;
        loop {
            if self.halt {
                return RunOutcome::Halted;
            }
            if budget == 0 {
                return RunOutcome::StepBudgetExhausted;
            }
            match self.peek_live() {
                None => return RunOutcome::QueueEmpty,
                Some(entry) if entry.at_us > horizon.as_micros() => {
                    return RunOutcome::HorizonReached;
                }
                Some(entry) => {
                    self.execute(entry);
                    budget -= 1;
                }
            }
        }
    }

    /// Run until the queue drains (with a generous step budget).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run(SimTime::MAX, u64::MAX)
    }

    /// Advance simulated time to `at` even if no event is scheduled there.
    /// Useful for "the experiment ends at t" bookkeeping, or for starting an
    /// episode at a later instant. Run the queue up to `at` first: an event
    /// due exactly at `at` stays pending and fires on the next run.
    ///
    /// # Panics
    /// Panics if `at` is before the current time, or if a pending event is
    /// due before `at` — it would otherwise fire later with the clock
    /// running backwards.
    pub fn fast_forward(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot fast-forward into the past");
        if let Some(next) = self.peek_live() {
            assert!(
                next.at_us >= at.as_micros(),
                "cannot fast-forward past a pending event: next at {} but fast-forward to {}",
                SimTime::from_micros(next.at_us),
                at
            );
        }
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A distance in microseconds that the tests below straddle: chains
    /// longer than it, events just inside and just beyond it, and one
    /// timestamp reached both from further than it and from nearer.
    const SPAN_US: u64 = 1024;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    fn s(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(World::default());
        sim.schedule_at(s(30), |sim| {
            sim.world.log.push((sim.now().as_micros(), "c"))
        });
        sim.schedule_at(s(10), |sim| {
            sim.world.log.push((sim.now().as_micros(), "a"))
        });
        sim.schedule_at(s(20), |sim| {
            sim.world.log.push((sim.now().as_micros(), "b"))
        });
        assert_eq!(sim.run_to_completion(), RunOutcome::QueueEmpty);
        assert_eq!(sim.world.log, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut sim = Sim::new(World::default());
        for (i, name) in ["first", "second", "third"].into_iter().enumerate() {
            let _ = i;
            sim.schedule_at(s(5), move |sim| sim.world.log.push((5, name)));
        }
        sim.run_to_completion();
        let names: Vec<_> = sim.world.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn ties_break_by_schedule_order_from_any_distance() {
        // The same timestamp scheduled from far ahead (twice) and from 10 µs
        // ahead must still fire in schedule order.
        let mut sim = Sim::new(World::default());
        let t = SPAN_US + 50;
        sim.schedule_at(s(t), |sim| sim.world.log.push((0, "far-first")));
        sim.schedule_at(s(1), move |sim| {
            sim.world.log.push((1, "early"));
            sim.schedule_at(s(t), |sim| sim.world.log.push((0, "far-second")));
        });
        sim.schedule_at(s(t - 10), move |sim| {
            sim.world.log.push((2, "near"));
            sim.schedule_at(s(t), |sim| sim.world.log.push((0, "near-third")));
        });
        sim.run_to_completion();
        let names: Vec<_> = sim.world.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(
            names,
            vec!["early", "near", "far-first", "far-second", "near-third"]
        );
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut sim = Sim::new(World::default());
        sim.schedule_at(s(10), |sim| {
            sim.world.log.push((sim.now().as_micros(), "start"));
            sim.schedule_in(SimDuration::from_micros(15), |sim| {
                sim.world.log.push((sim.now().as_micros(), "end"));
            });
        });
        sim.run_to_completion();
        assert_eq!(sim.world.log, vec![(10, "start"), (25, "end")]);
    }

    #[test]
    fn cancellation_prevents_firing() {
        let mut sim = Sim::new(World::default());
        let id = sim.schedule_at(s(10), |sim| sim.world.log.push((10, "cancelled")));
        sim.schedule_at(s(20), |sim| sim.world.log.push((20, "kept")));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        sim.run_to_completion();
        assert_eq!(sim.world.log, vec![(20, "kept")]);
    }

    #[test]
    fn cancelling_a_distant_event_prevents_firing() {
        let mut sim = Sim::new(World::default());
        let id = sim.schedule_at(s(10_000_000), |sim| sim.world.log.push((0, "cancelled")));
        sim.schedule_at(s(20_000_000), |sim| sim.world.log.push((0, "kept")));
        assert!(sim.cancel(id));
        sim.run_to_completion();
        assert_eq!(sim.world.log, vec![(0, "kept")]);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim: Sim<World> = Sim::new(World::default());
        let foreign = EventId {
            seq: 999,
            slot: 999,
            gen: 0,
        };
        assert!(!sim.cancel(foreign));
    }

    #[test]
    fn cancel_after_fire_is_a_reported_noop() {
        // Regression: cancelling an already-fired event used to insert a
        // permanent tombstone, making pending_events() drift (and underflow
        // once the drift exceeded the queue length). The slab generation
        // check makes the cancel a true no-op.
        let mut sim = Sim::new(World::default());
        let id = sim.schedule_at(s(10), |sim| sim.world.log.push((10, "fired")));
        sim.run_to_completion();
        assert_eq!(sim.pending_events(), 0);
        assert!(!sim.cancel(id), "cancel after fire must report false");
        assert_eq!(sim.pending_events(), 0, "no tombstone drift");
        // The count must stay exact afterwards — this underflowed before.
        sim.schedule_at(s(20), |_| {});
        assert_eq!(sim.pending_events(), 1);
        sim.run_to_completion();
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn slot_reuse_does_not_confuse_cancellation() {
        // A stale EventId whose slot has been recycled must not cancel the
        // new occupant.
        let mut sim = Sim::new(World::default());
        let old = sim.schedule_at(s(10), |sim| sim.world.log.push((10, "old")));
        assert!(sim.cancel(old));
        // The freed slot is reused by the next schedule.
        let _new = sim.schedule_at(s(20), |sim| {
            sim.world.log.push((sim.now().as_micros(), "new"))
        });
        assert!(!sim.cancel(old), "stale id must not hit the recycled slot");
        sim.run_to_completion();
        assert_eq!(sim.world.log, vec![(20, "new")]);
    }

    #[test]
    fn horizon_stops_without_consuming() {
        let mut sim = Sim::new(World::default());
        sim.schedule_at(s(10), |sim| sim.world.log.push((10, "early")));
        sim.schedule_at(s(100), |sim| sim.world.log.push((100, "late")));
        assert_eq!(sim.run(s(50), u64::MAX), RunOutcome::HorizonReached);
        assert_eq!(sim.world.log, vec![(10, "early")]);
        assert_eq!(sim.pending_events(), 1);
        assert_eq!(sim.run_to_completion(), RunOutcome::QueueEmpty);
        assert_eq!(sim.world.log, vec![(10, "early"), (100, "late")]);
    }

    #[test]
    fn halt_stops_the_loop() {
        let mut sim = Sim::new(World::default());
        sim.schedule_at(s(10), |sim| {
            sim.world.log.push((10, "stop"));
            sim.halt();
        });
        sim.schedule_at(s(20), |sim| sim.world.log.push((20, "never")));
        assert_eq!(sim.run_to_completion(), RunOutcome::Halted);
        assert_eq!(sim.world.log, vec![(10, "stop")]);
    }

    #[test]
    fn step_budget_guards_runaway_loops() {
        let mut sim = Sim::new(World::default());
        // An event that perpetually reschedules itself.
        fn tick(sim: &mut Sim<World>) {
            sim.schedule_in(SimDuration::from_micros(1), tick);
        }
        sim.schedule_at(s(0), tick);
        assert_eq!(sim.run(SimTime::MAX, 1000), RunOutcome::StepBudgetExhausted);
        assert_eq!(sim.steps_executed(), 1000);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new(World::default());
        sim.schedule_at(s(10), |sim| {
            sim.schedule_at(s(5), |_| {});
        });
        sim.run_to_completion();
    }

    #[test]
    fn shared_state_via_rc_refcell_works() {
        // Handlers may capture external shared state too.
        let hits = Rc::new(RefCell::new(0));
        let mut sim = Sim::new(());
        for i in 0..5u64 {
            let hits = Rc::clone(&hits);
            sim.schedule_at(s(i), move |_| *hits.borrow_mut() += 1);
        }
        sim.run_to_completion();
        assert_eq!(*hits.borrow(), 5);
    }

    #[test]
    fn schedule_every_repeats_until_false() {
        let mut sim = Sim::new(World::default());
        sim.schedule_every(s(10), SimDuration::from_micros(5), |sim| {
            sim.world.log.push((sim.now().as_micros(), "tick"));
            sim.world.log.len() < 4
        });
        assert_eq!(sim.run_to_completion(), RunOutcome::QueueEmpty);
        let times: Vec<u64> = sim.world.log.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![10, 15, 20, 25]);
    }

    #[test]
    fn schedule_every_interleaves_with_other_events() {
        let mut sim = Sim::new(World::default());
        sim.schedule_every(s(0), SimDuration::from_micros(10), |sim| {
            sim.world.log.push((sim.now().as_micros(), "tick"));
            sim.now().as_micros() < 20
        });
        sim.schedule_at(s(15), |sim| sim.world.log.push((15, "mid")));
        sim.run_to_completion();
        assert_eq!(
            sim.world.log,
            vec![(0, "tick"), (10, "tick"), (15, "mid"), (20, "tick")]
        );
    }

    #[test]
    fn cancelling_first_firing_stops_recurrence() {
        let mut sim = Sim::new(World::default());
        let id = sim.schedule_every(s(10), SimDuration::from_micros(5), |sim| {
            sim.world.log.push((sim.now().as_micros(), "tick"));
            true
        });
        assert!(sim.cancel(id));
        assert_eq!(sim.run_to_completion(), RunOutcome::QueueEmpty);
        assert!(sim.world.log.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive interval")]
    fn zero_interval_recurrence_panics() {
        let mut sim: Sim<World> = Sim::new(World::default());
        sim.schedule_every(s(0), SimDuration::ZERO, |_| true);
    }

    #[test]
    fn fast_forward_advances_clock() {
        let mut sim: Sim<World> = Sim::new(World::default());
        sim.fast_forward(s(500));
        assert_eq!(sim.now(), s(500));
    }

    #[test]
    #[should_panic(expected = "cannot fast-forward past a pending event")]
    fn fast_forward_past_a_pending_event_panics() {
        let mut sim = Sim::new(World::default());
        sim.schedule_at(s(10), |sim| {
            sim.world.log.push((sim.now().as_micros(), "x"))
        });
        sim.fast_forward(s(100));
    }

    #[test]
    fn fast_forward_to_a_pending_events_time_is_allowed() {
        let mut sim = Sim::new(World::default());
        sim.schedule_at(s(100), |sim| {
            sim.world.log.push((sim.now().as_micros(), "due"))
        });
        // A cancelled event before the target does not block it.
        let cancelled = sim.schedule_at(s(10), |sim| sim.world.log.push((10, "cancelled")));
        assert!(sim.cancel(cancelled));
        sim.fast_forward(s(100));
        assert_eq!(sim.now(), s(100));
        assert_eq!(sim.pending_events(), 1);
        assert_eq!(sim.run_to_completion(), RunOutcome::QueueEmpty);
        assert_eq!(sim.world.log, vec![(100, "due")]);
        assert_eq!(sim.now(), s(100));
    }

    #[test]
    fn long_self_rescheduling_chain_fires_every_link() {
        // A chain of 3 µs steps running for many multiples of `SPAN_US`.
        let mut sim = Sim::new((0u64, 5 * SPAN_US));
        fn tick(sim: &mut Sim<(u64, u64)>) {
            sim.world.0 += 1;
            if sim.world.0 < sim.world.1 {
                sim.schedule_in(SimDuration::from_micros(3), tick);
            }
        }
        sim.schedule_now(tick);
        assert_eq!(sim.run_to_completion(), RunOutcome::QueueEmpty);
        assert_eq!(sim.world.0, 5 * SPAN_US);
        assert_eq!(sim.now().as_micros(), (5 * SPAN_US - 1) * 3);
    }

    #[test]
    fn events_one_microsecond_apart_fire_in_order() {
        let mut sim = Sim::new(World::default());
        // Three consecutive microseconds around `SPAN_US`, from time zero.
        sim.schedule_at(s(SPAN_US - 1), |sim| sim.world.log.push((0, "in")));
        sim.schedule_at(s(SPAN_US), |sim| sim.world.log.push((0, "edge")));
        sim.schedule_at(s(SPAN_US + 1), |sim| sim.world.log.push((0, "out")));
        sim.run_to_completion();
        let names: Vec<_> = sim.world.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["in", "edge", "out"]);
    }

    #[test]
    fn insert_after_a_horizon_stop_fires_before_the_peeked_event() {
        // After a run stops at its horizon with the event at 100 peeked but
        // unconsumed, an insert between `now` and 100 must fire first.
        let mut sim = Sim::new(World::default());
        sim.schedule_at(s(0), |sim| sim.world.log.push((0, "first")));
        sim.schedule_at(s(100), |sim| sim.world.log.push((100, "later")));
        assert_eq!(sim.run(s(50), u64::MAX), RunOutcome::HorizonReached);
        sim.schedule_at(s(30), |sim| sim.world.log.push((30, "behind")));
        sim.run_to_completion();
        assert_eq!(
            sim.world.log,
            vec![(0, "first"), (30, "behind"), (100, "later")]
        );
    }

    #[test]
    fn pending_count_stays_exact_under_churn() {
        let mut sim = Sim::new(0u32);
        let ids: Vec<EventId> = (0..100)
            .map(|i| sim.schedule_at(s(i), |sim: &mut Sim<u32>| sim.world += 1))
            .collect();
        assert_eq!(sim.pending_events(), 100);
        for id in ids.iter().take(50) {
            assert!(sim.cancel(*id));
        }
        assert_eq!(sim.pending_events(), 50);
        sim.run_to_completion();
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.world, 50);
        // Cancelling everything again (fired or cancelled) changes nothing.
        for id in &ids {
            assert!(!sim.cancel(*id));
        }
        assert_eq!(sim.pending_events(), 0);
    }
}
