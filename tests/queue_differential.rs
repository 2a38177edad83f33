//! Differential property test for the event-queue rewrite.
//!
//! Random schedule/cancel/step interleavings — generated from seeded
//! in-repo [`RngStream`]s, so every case is reproducible — run against
//! both the production [`Sim`] (slab + index heap + bucket ring) and a
//! trivially-correct reference model (a list keyed by `(time, schedule
//! order)`). The two must agree on *everything* observable: the exact
//! fire sequence, every `cancel` return value, and the pending-event
//! count at every step.
//!
//! Delays are drawn so the sweep crosses the engine's internal tiers:
//! same-instant events, near-future deltas that land in the bucket ring,
//! boundary-straddling deltas, and far-horizon deltas that go to the
//! heap. Some events schedule follow-ups from inside their handler, which
//! exercises in-run insertion behind the ring's scan cursor. Recurring
//! [`Sim::schedule_every`] streams with periods drawn the same way run
//! among them: some are cancelled mid-run through their `EventId` (which
//! names only the first tick), and every one stops by returning `false`,
//! either when its tick budget runs out or on the first tick after it is
//! told to stop.

use std::collections::{HashMap, HashSet};

use cumulus::simkit::prelude::*;
use cumulus::simkit::EventId;

const CASES: u64 = 96;

/// A recurring stream as the model sees it.
struct Stream {
    period: u64,
    ticks_left: u64,
    stopped: bool,
    fired: bool,
}

/// The reference model: an unordered vector of `(at_us, seq, label)`.
/// Firing scans for the minimum `(at, seq)` — O(n), obviously correct,
/// and `seq` is schedule order, which is exactly the engine's
/// FIFO-within-timestamp guarantee. A recurring stream keeps its label
/// across ticks and re-inserts each tick at `at + period` when it fires,
/// in schedule order at that moment, as `schedule_every` does.
#[derive(Default)]
struct Model {
    live: Vec<(u64, u64, u64)>,
    next_seq: u64,
    streams: HashMap<u64, Stream>,
    now: u64,
}

impl Model {
    fn schedule(&mut self, at: u64, label: u64) {
        assert!(at >= self.now);
        self.live.push((at, self.next_seq, label));
        self.next_seq += 1;
    }

    fn schedule_every(&mut self, start: u64, period: u64, ticks: u64, label: u64) {
        self.schedule(start, label);
        let stream = Stream {
            period,
            ticks_left: ticks,
            stopped: false,
            fired: false,
        };
        self.streams.insert(label, stream);
    }

    /// Mirrors `Sim::cancel`: true only for a still-pending event. A
    /// stream's id names its first tick only, so it is spent once that
    /// tick has fired.
    fn cancel(&mut self, label: u64) -> bool {
        if self.streams.get(&label).is_some_and(|s| s.fired) {
            return false;
        }
        let pos = self.live.iter().position(|&(_, _, l)| l == label);
        pos.map(|p| self.live.remove(p)).is_some()
    }

    /// Mirrors the stop flag: the stream's next tick is its last.
    fn stop(&mut self, label: u64) {
        self.streams.get_mut(&label).expect("a stream").stopped = true;
    }

    fn pending(&self) -> usize {
        self.live.len()
    }

    /// Pop the next `(at, label)` in fire order, if any, and schedule
    /// what its handler schedules: a stream's next tick, or a follow-up.
    fn step(&mut self) -> Option<(u64, u64)> {
        let (at, seq, label) = self.live.iter().copied().min()?;
        self.live.retain(|e| e.1 != seq);
        self.now = at;
        if let Some(stream) = self.streams.get_mut(&label) {
            stream.fired = true;
            stream.ticks_left -= 1;
            if stream.ticks_left > 0 && !stream.stopped {
                let next = at + stream.period;
                self.schedule(next, label);
            }
        } else if spawns_follow_up(label) {
            self.schedule(at + follow_up_delay(label), label + FOLLOW_UP_BASE);
        }
        Some((at, label))
    }
}

/// What both sides' handlers see: the fire log and the streams told to
/// stop.
#[derive(Default)]
struct World {
    log: Vec<(u64, u64)>,
    stopped: HashSet<u64>,
}

/// Follow-up rule shared by both sides: a one-shot event whose label
/// satisfies `label % 5 == 0` schedules one child at
/// `now + (label % 293 + 1)` µs under label `label + FOLLOW_UP_BASE`.
const FOLLOW_UP_BASE: u64 = 1_000_000;

fn follow_up_delay(label: u64) -> u64 {
    label % 293 + 1
}

fn spawns_follow_up(label: u64) -> bool {
    label.is_multiple_of(5) && label < FOLLOW_UP_BASE
}

/// Schedule `label` on the real engine; the handler logs `(now, label)`
/// and applies the follow-up rule.
fn schedule_real(sim: &mut Sim<World>, at: u64, label: u64) -> EventId {
    sim.schedule_at(SimTime::from_micros(at), move |sim| {
        let now = sim.now().as_micros();
        sim.world.log.push((now, label));
        if spawns_follow_up(label) {
            let child = label + FOLLOW_UP_BASE;
            sim.schedule_in(
                SimDuration::from_micros(follow_up_delay(label)),
                move |sim| {
                    let now = sim.now().as_micros();
                    sim.world.log.push((now, child));
                },
            );
        }
    })
}

/// Start stream `label` on the real engine: each tick logs `(now, label)`
/// and keeps the stream going while ticks remain and it has not been
/// told to stop.
fn schedule_every_real(
    sim: &mut Sim<World>,
    start: u64,
    period: u64,
    ticks: u64,
    label: u64,
) -> EventId {
    let mut left = ticks;
    sim.schedule_every(
        SimTime::from_micros(start),
        SimDuration::from_micros(period),
        move |sim| {
            sim.world.log.push((sim.now().as_micros(), label));
            left -= 1;
            left > 0 && !sim.world.stopped.contains(&label)
        },
    )
}

/// A delay that sweeps across queue tiers: same-instant, in-ring,
/// boundary, and far-heap.
fn pick_delay(rng: &mut RngStream) -> u64 {
    match rng.uniform_int(0, 9) {
        0 => 0,
        1..=5 => rng.uniform_int(1, 900),        // bucket ring
        6 | 7 => rng.uniform_int(900, 1_200),    // straddles the ring window
        8 => rng.uniform_int(1_200, 50_000),     // far heap
        _ => rng.uniform_int(50_000, 5_000_000), // deep far heap
    }
}

#[test]
fn random_interleavings_match_the_reference_model() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/queue-differential");
        let mut sim = Sim::new(World::default());
        let mut model = Model::default();
        // Cancel targets are drawn from every label ever scheduled, so
        // some hit already-fired or already-cancelled events — those must
        // be reported no-ops on both sides.
        let mut ids: Vec<(u64, EventId)> = Vec::new();
        let mut streams: Vec<u64> = Vec::new();
        let mut next_label = 0u64;

        let ops = rng.uniform_int(50, 250);
        for _ in 0..ops {
            match rng.uniform_int(0, 11) {
                // Schedule (most common op).
                0..=5 => {
                    let at = sim.now().as_micros() + pick_delay(&mut rng);
                    let label = next_label;
                    next_label += 1;
                    let id = schedule_real(&mut sim, at, label);
                    model.schedule(at, label);
                    ids.push((label, id));
                }
                // Start a recurring stream.
                6 => {
                    let start = sim.now().as_micros() + pick_delay(&mut rng);
                    let period = pick_delay(&mut rng).max(1);
                    let ticks = rng.uniform_int(1, 40);
                    let label = next_label;
                    next_label += 1;
                    let id = schedule_every_real(&mut sim, start, period, ticks, label);
                    model.schedule_every(start, period, ticks, label);
                    ids.push((label, id));
                    streams.push(label);
                }
                // Cancel a random label (may already have fired).
                7 | 8 => {
                    if ids.is_empty() {
                        continue;
                    }
                    let k = rng.uniform_int(0, ids.len() as u64 - 1) as usize;
                    let (label, id) = ids[k];
                    let real = sim.cancel(id);
                    let reference = model.cancel(label);
                    assert_eq!(
                        real, reference,
                        "case {case}: cancel({label}) disagreed with the model"
                    );
                }
                // Tell a random stream (maybe finished already) to stop.
                9 => {
                    if streams.is_empty() {
                        continue;
                    }
                    let label = *rng.choose(&streams);
                    sim.world.stopped.insert(label);
                    model.stop(label);
                }
                // Step a small burst of events on both sides.
                _ => {
                    for _ in 0..rng.uniform_int(1, 8) {
                        let fired = sim.step();
                        let expected = model.step();
                        assert_eq!(
                            fired,
                            expected.is_some(),
                            "case {case}: step() liveness diverged"
                        );
                        let Some(expected) = expected else { break };
                        let got = *sim.world.log.last().expect("an event fired");
                        assert_eq!(
                            got, expected,
                            "case {case}: fire order diverged from the model"
                        );
                    }
                }
            }
            assert_eq!(
                sim.pending_events(),
                model.pending(),
                "case {case}: pending-event count drifted"
            );
        }

        // Drain both to the end and compare the complete fire sequences.
        let outcome = sim.run_to_completion();
        assert_eq!(outcome, RunOutcome::QueueEmpty, "case {case}");
        let expected_tail: Vec<(u64, u64)> = std::iter::from_fn(|| model.step()).collect();
        let fired = sim.world.log.len();
        let tail = &sim.world.log[fired - expected_tail.len()..];
        assert_eq!(
            tail,
            &expected_tail[..],
            "case {case}: final drain diverged from the model"
        );
        assert_eq!(sim.pending_events(), 0, "case {case}");
    }
}

/// Same-instant bursts: many events at exactly equal timestamps must fire
/// strictly in schedule order on both sides, including across cancel
/// churn inside the burst.
#[test]
fn equal_timestamp_bursts_fire_in_schedule_order() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/queue-ties");
        let mut sim = Sim::new(Vec::new());
        let mut expected = Vec::new();
        let mut ids = Vec::new();
        let at = rng.uniform_int(0, 2_000);
        let n = rng.uniform_int(2, 40);
        for label in 0..n {
            let id = sim.schedule_at(SimTime::from_micros(at), move |sim: &mut Sim<Vec<u64>>| {
                sim.world.push(label);
            });
            ids.push((label, id));
        }
        // Cancel a random subset.
        for &(label, id) in &ids {
            if rng.uniform_int(0, 3) == 0 {
                assert!(sim.cancel(id), "case {case}: first cancel must succeed");
                assert!(!sim.cancel(id), "case {case}: double cancel must fail");
            } else {
                expected.push(label);
            }
        }
        assert_eq!(sim.run_to_completion(), RunOutcome::QueueEmpty);
        assert_eq!(sim.world, expected, "case {case}: tie order broke");
    }
}
