//! Microbenchmarks of the DES kernel: the event throughput every
//! higher-level experiment rides on. Plain `Instant`-based harness
//! (`harness = false`; the build environment ships no criterion).
//!
//! Every workload runs on **two** engines:
//!
//! * the current `cumulus_simkit::Sim` (slab + index heap + bucket ring);
//! * [`baseline::Sim`], a faithful copy of the pre-rewrite engine
//!   (`BinaryHeap<Scheduled<W>>` of boxed closures + `HashSet` tombstones),
//!   compiled into this binary so both engines are measured on the same
//!   machine under the same load.
//!
//! Beyond timing, the harness asserts determinism: each workload must
//! produce the same fire-count on both engines and on repeated runs of the
//! new engine. Those assertions panic on failure, which is what the CI
//! `bench-smoke` job checks (timing numbers are reported, never gated).
//!
//! Results land in `BENCH_simkit.json` at the repo root (events/sec per
//! workload per engine, plus new-vs-old speedup; not in `--quick` mode,
//! which leaves the committed full-size results alone).
//!
//! Usage: `cargo bench -p cumulus-bench --bench des_kernel [-- --quick]`

use cumulus_bench::kernel::{measure, workloads_json, WorkloadResult};
use cumulus_provision::json::Json;
use cumulus_simkit::prelude::*;

/// The pre-rewrite event queue, kept verbatim as the measured baseline:
/// a `BinaryHeap` of closure-carrying structs with `HashSet` tombstone
/// cancellation.
mod baseline {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use std::collections::HashSet;

    use cumulus_simkit::{SimDuration, SimTime};

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct EventId(u64);

    type Handler<W> = Box<dyn FnOnce(&mut Sim<W>)>;

    struct Scheduled<W> {
        at: SimTime,
        id: EventId,
        handler: Handler<W>,
    }

    impl<W> PartialEq for Scheduled<W> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.id == other.id
        }
    }
    impl<W> Eq for Scheduled<W> {}
    impl<W> PartialOrd for Scheduled<W> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<W> Ord for Scheduled<W> {
        fn cmp(&self, other: &Self) -> Ordering {
            other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
        }
    }

    pub struct Sim<W> {
        now: SimTime,
        queue: BinaryHeap<Scheduled<W>>,
        cancelled: HashSet<EventId>,
        next_id: u64,
        pub world: W,
    }

    impl<W> Sim<W> {
        pub fn new(world: W) -> Self {
            Sim {
                now: SimTime::ZERO,
                queue: BinaryHeap::new(),
                cancelled: HashSet::new(),
                next_id: 0,
                world,
            }
        }

        #[allow(dead_code)]
        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn schedule_at(
            &mut self,
            at: SimTime,
            handler: impl FnOnce(&mut Sim<W>) + 'static,
        ) -> EventId {
            assert!(at >= self.now, "cannot schedule into the past");
            let id = EventId(self.next_id);
            self.next_id += 1;
            self.queue.push(Scheduled {
                at,
                id,
                handler: Box::new(handler),
            });
            id
        }

        pub fn schedule_in(
            &mut self,
            delay: SimDuration,
            handler: impl FnOnce(&mut Sim<W>) + 'static,
        ) -> EventId {
            let at = self.now.saturating_add(delay);
            self.schedule_at(at, handler)
        }

        pub fn schedule_now(&mut self, handler: impl FnOnce(&mut Sim<W>) + 'static) -> EventId {
            self.schedule_at(self.now, handler)
        }

        pub fn schedule_every(
            &mut self,
            start: SimTime,
            interval: SimDuration,
            handler: impl FnMut(&mut Sim<W>) -> bool + 'static,
        ) -> EventId
        where
            W: 'static,
        {
            assert!(interval > SimDuration::ZERO);
            type Recurring<W> = Box<dyn FnMut(&mut Sim<W>) -> bool>;
            fn fire<W: 'static>(
                sim: &mut Sim<W>,
                interval: SimDuration,
                mut handler: Recurring<W>,
            ) {
                if handler(sim) {
                    sim.schedule_in(interval, move |sim| fire(sim, interval, handler));
                }
            }
            let boxed: Recurring<W> = Box::new(handler);
            self.schedule_at(start, move |sim| fire(sim, interval, boxed))
        }

        pub fn cancel(&mut self, id: EventId) -> bool {
            if id.0 >= self.next_id {
                return false;
            }
            self.cancelled.insert(id)
        }

        pub fn run_to_completion(&mut self) {
            loop {
                let Some(ev) = self.queue.pop() else {
                    return;
                };
                if self.cancelled.remove(&ev.id) {
                    continue;
                }
                self.now = ev.at;
                (ev.handler)(self);
            }
        }
    }
}

/// Deterministic 64-bit mixer for workload-internal choices (no wall clock,
/// no OS entropy — same sequence on every run and both engines).
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

// ---------------------------------------------------------------------------
// Workloads. Each exists in a `new_*` and an `old_*` variant with identical
// logic, and returns the number of events that fired (the determinism
// checksum). The duplication is deliberate: a shared generic driver would
// need a trait over both engines, and the point of the baseline is to stay
// byte-for-byte the old code.
// ---------------------------------------------------------------------------

/// Schedule-and-drain N independent events scattered over a 1s window.
fn new_drain(n: u64) -> u64 {
    let mut sim = Sim::new(0u64);
    for i in 0..n {
        sim.schedule_at(
            SimTime::from_micros(i * 7 % 1_000_000),
            |sim: &mut Sim<u64>| {
                sim.world += 1;
            },
        );
    }
    sim.run_to_completion();
    sim.world
}

fn old_drain(n: u64) -> u64 {
    let mut sim = baseline::Sim::new(0u64);
    for i in 0..n {
        sim.schedule_at(
            SimTime::from_micros(i * 7 % 1_000_000),
            |sim: &mut baseline::Sim<u64>| {
                sim.world += 1;
            },
        );
    }
    sim.run_to_completion();
    sim.world
}

/// A self-rescheduling event chain (per-event overhead, empty queue).
fn new_chain(n: u64) -> u64 {
    fn tick(sim: &mut Sim<(u64, u64)>) {
        sim.world.0 += 1;
        if sim.world.0 < sim.world.1 {
            sim.schedule_in(SimDuration::from_micros(1), tick);
        }
    }
    let mut sim = Sim::new((0u64, n));
    sim.schedule_now(tick);
    sim.run_to_completion();
    sim.world.0
}

fn old_chain(n: u64) -> u64 {
    fn tick(sim: &mut baseline::Sim<(u64, u64)>) {
        sim.world.0 += 1;
        if sim.world.0 < sim.world.1 {
            sim.schedule_in(SimDuration::from_micros(1), tick);
        }
    }
    let mut sim = baseline::Sim::new((0u64, n));
    sim.schedule_now(tick);
    sim.run_to_completion();
    sim.world.0
}

/// Churn: a driver tick that keeps ~2k events live, scheduling bursts of
/// near-future events and cancelling a third of the backlog as it goes.
/// This is the shape of the autoscale controller + service models: dense
/// small-delay scheduling with constant retirement.
mod churn {
    use super::*;

    pub const BURST: u64 = 8;
    pub const CANCEL_PER_TICK: usize = 3;

    pub fn new_engine(n: u64) -> u64 {
        struct W {
            fired: u64,
            budget: u64,
            pending: Vec<EventId>,
            x: u64,
        }
        fn tick(sim: &mut Sim<W>) {
            for _ in 0..BURST {
                if sim.world.budget == 0 {
                    return;
                }
                sim.world.budget -= 1;
                sim.world.x = lcg(sim.world.x);
                let d = 1 + (sim.world.x >> 33) % 500;
                let id = sim.schedule_in(SimDuration::from_micros(d), |sim: &mut Sim<W>| {
                    sim.world.fired += 1;
                });
                sim.world.pending.push(id);
            }
            for _ in 0..CANCEL_PER_TICK {
                if sim.world.pending.is_empty() {
                    break;
                }
                sim.world.x = lcg(sim.world.x);
                let k = (sim.world.x >> 33) as usize % sim.world.pending.len();
                let id = sim.world.pending.swap_remove(k);
                sim.cancel(id);
            }
            sim.schedule_in(SimDuration::from_micros(2), tick);
        }
        let mut sim = Sim::new(W {
            fired: 0,
            budget: n,
            pending: Vec::new(),
            x: 0x9E3779B97F4A7C15,
        });
        sim.schedule_now(tick);
        sim.run_to_completion();
        sim.world.fired
    }

    pub fn old_engine(n: u64) -> u64 {
        use super::baseline::{EventId, Sim};
        struct W {
            fired: u64,
            budget: u64,
            pending: Vec<EventId>,
            x: u64,
        }
        fn tick(sim: &mut Sim<W>) {
            for _ in 0..BURST {
                if sim.world.budget == 0 {
                    return;
                }
                sim.world.budget -= 1;
                sim.world.x = lcg(sim.world.x);
                let d = 1 + (sim.world.x >> 33) % 500;
                let id = sim.schedule_in(SimDuration::from_micros(d), |sim: &mut Sim<W>| {
                    sim.world.fired += 1;
                });
                sim.world.pending.push(id);
            }
            for _ in 0..CANCEL_PER_TICK {
                if sim.world.pending.is_empty() {
                    break;
                }
                sim.world.x = lcg(sim.world.x);
                let k = (sim.world.x >> 33) as usize % sim.world.pending.len();
                let id = sim.world.pending.swap_remove(k);
                sim.cancel(id);
            }
            sim.schedule_in(SimDuration::from_micros(2), tick);
        }
        let mut sim = Sim::new(W {
            fired: 0,
            budget: n,
            pending: Vec::new(),
            x: 0x9E3779B97F4A7C15,
        });
        sim.schedule_now(tick);
        sim.run_to_completion();
        sim.world.fired
    }
}

/// Recurring ticks: `streams` concurrent `schedule_every` loops with
/// co-prime-ish sub-millisecond intervals, each firing `ticks` times — the
/// metrics-scraper / negotiator-cycle / TCP-tick pattern that dominates the
/// experiment drivers.
fn new_recurring(streams: u64, ticks: u64) -> u64 {
    let mut sim = Sim::new(0u64);
    for s in 0..streams {
        let interval = SimDuration::from_micros(1 + (s * 37) % 499);
        let mut left = ticks;
        sim.schedule_every(SimTime::from_micros(s % 97), interval, move |sim| {
            sim.world += 1;
            left -= 1;
            left > 0
        });
    }
    sim.run_to_completion();
    sim.world
}

fn old_recurring(streams: u64, ticks: u64) -> u64 {
    let mut sim = baseline::Sim::new(0u64);
    for s in 0..streams {
        let interval = SimDuration::from_micros(1 + (s * 37) % 499);
        let mut left = ticks;
        sim.schedule_every(SimTime::from_micros(s % 97), interval, move |sim| {
            sim.world += 1;
            left -= 1;
            left > 0
        });
    }
    sim.run_to_completion();
    sim.world
}

/// Far-horizon: every delay overshoots the bucket ring, forcing the far
/// heap. This is the new engine's worst case (documents the drain-scatter
/// tradeoff; not part of the speedup gate).
fn new_far(n: u64) -> u64 {
    struct W {
        fired: u64,
        budget: u64,
        x: u64,
    }
    fn tick(sim: &mut Sim<W>) {
        sim.world.fired += 1;
        if sim.world.budget == 0 {
            return;
        }
        sim.world.budget -= 1;
        sim.world.x = lcg(sim.world.x);
        let d = 2_000 + (sim.world.x >> 33) % 1_000_000; // always ≥ ring span
        sim.schedule_in(SimDuration::from_micros(d), tick);
        if sim.world.budget > 0 {
            sim.world.budget -= 1;
            sim.world.x = lcg(sim.world.x);
            let d = 2_000 + (sim.world.x >> 33) % 1_000_000;
            sim.schedule_in(SimDuration::from_micros(d), tick);
        }
    }
    let mut sim = Sim::new(W {
        fired: 0,
        budget: n,
        x: 7,
    });
    sim.schedule_now(tick);
    sim.run_to_completion();
    sim.world.fired
}

fn old_far(n: u64) -> u64 {
    use baseline::Sim;
    struct W {
        fired: u64,
        budget: u64,
        x: u64,
    }
    fn tick(sim: &mut Sim<W>) {
        sim.world.fired += 1;
        if sim.world.budget == 0 {
            return;
        }
        sim.world.budget -= 1;
        sim.world.x = lcg(sim.world.x);
        let d = 2_000 + (sim.world.x >> 33) % 1_000_000;
        sim.schedule_in(SimDuration::from_micros(d), tick);
        if sim.world.budget > 0 {
            sim.world.budget -= 1;
            sim.world.x = lcg(sim.world.x);
            let d = 2_000 + (sim.world.x >> 33) % 1_000_000;
            sim.schedule_in(SimDuration::from_micros(d), tick);
        }
    }
    let mut sim = Sim::new(W {
        fired: 0,
        budget: n,
        x: 7,
    });
    sim.schedule_now(tick);
    sim.run_to_completion();
    sim.world.fired
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Run one workload on both engines, assert equal fire-counts, report.
fn compare(
    name: &'static str,
    samples: u32,
    events_hint: u64,
    mut old_f: impl FnMut() -> u64,
    mut new_f: impl FnMut() -> u64,
) -> WorkloadResult {
    let (old_secs, old_out) = measure(samples, &mut old_f);
    let (new_secs, new_out) = measure(samples, &mut new_f);
    assert_eq!(
        old_out, new_out,
        "{name}: new engine fire-count diverged from BinaryHeap baseline"
    );
    let events = if events_hint > 0 {
        events_hint
    } else {
        new_out
    };
    let r = WorkloadResult {
        name,
        events,
        old_secs,
        new_secs,
    };
    println!(
        "{:<24} events {:>9}  old {:>9.0} ev/s  new {:>9.0} ev/s  speedup {:>5.2}x",
        r.name,
        r.events,
        r.old_eps(),
        r.new_eps(),
        r.speedup()
    );
    r
}

fn write_json(results: &[WorkloadResult], quick: bool) {
    let workloads = workloads_json(results, "speedup_vs_binaryheap");
    let doc = Json::obj([
        ("bench", Json::str("des_kernel")),
        (
            "baseline",
            Json::str("pre-rewrite BinaryHeap + HashSet tombstones (in-bench copy)"),
        ),
        ("mode", Json::str(if quick { "quick" } else { "full" })),
        ("workloads", workloads),
    ]);
    cumulus_bench::write_results("BENCH_simkit.json", &doc, quick);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples: u32 = if quick { 2 } else { 7 };
    let scale: u64 = if quick { 10 } else { 1 };

    println!("== des_kernel (old = BinaryHeap baseline, new = slab/ring/index-heap) ==");

    let drain_n = 100_000 / scale;
    let chain_n = 100_000 / scale;
    let churn_n = 200_000 / scale;
    let (streams, ticks) = if quick { (200, 50) } else { (1_000, 150) };
    let far_n = 100_000 / scale;

    let results = vec![
        compare(
            "drain_scatter",
            samples,
            drain_n,
            || old_drain(drain_n),
            || new_drain(drain_n),
        ),
        compare(
            "event_chain",
            samples,
            chain_n,
            || old_chain(chain_n),
            || new_chain(chain_n),
        ),
        compare(
            "churn_schedule_cancel",
            samples,
            churn_n,
            || churn::old_engine(churn_n),
            || churn::new_engine(churn_n),
        ),
        compare(
            "recurring_ticks",
            samples,
            streams * ticks,
            || old_recurring(streams, ticks),
            || new_recurring(streams, ticks),
        ),
        compare(
            "far_horizon",
            samples,
            far_n,
            || old_far(far_n),
            || new_far(far_n),
        ),
    ];

    // The tentpole's measurable claim: the dense near-future workloads
    // (churn, recurring ticks) are where the bucket ring pays off. Report
    // prominently; the JSON records it for the perf trajectory. Not asserted
    // here — CI gates on the determinism panics above, never on timing.
    for r in &results {
        if matches!(r.name, "churn_schedule_cancel" | "recurring_ticks") && r.speedup() < 2.0 {
            println!(
                "WARNING: {} speedup {:.2}x below the 2x target",
                r.name,
                r.speedup()
            );
        }
    }

    write_json(&results, quick);

    println!("== rng_streams ==");
    let (t, _) = measure(if quick { 3 } else { 50 }, || {
        let mut rng = RngStream::derive(42, "bench");
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc = acc.wrapping_add(rng.uniform_int(0, 1 << 30));
        }
        acc
    });
    println!("derive_and_draw_1k          {:>12.1} us/iter", t * 1e6);
}
