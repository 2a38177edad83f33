//! Property-style tests of the `percentile` helper: whatever sample set
//! it is fed — NaN-poisoned, infinite, duplicated, signed-zero, unsorted —
//! it must be total (never panic) and agree with the textbook sorted-rank
//! reference on the non-NaN values, bit for bit (`==` would let `-0.0`
//! pass for `0.0`). `SignalSample::observe`'s wait percentiles must equal
//! `percentile` over the pool's idle waits the same way. Cases come from
//! deterministic seeded streams (the offline build ships no proptest), in
//! the style of `crates/simkit/tests/disrupt_props.rs`.

use std::ops::ControlFlow;

use cumulus_autoscale::{percentile, SignalSample};
use cumulus_htc::{CondorPool, Job, Machine, WorkSpec};
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::time::{SimDuration, SimTime};

const CASES: u64 = 128;

/// A random sample list: mixed magnitudes, duplicates, negatives, and —
/// with some probability per element — NaN or an infinity. This is the
/// shape a `SignalSample` wait list takes when a bad `WorkSpec` poisons
/// the simulated durations.
fn gen_values(rng: &mut RngStream) -> Vec<f64> {
    (0..rng.uniform_int(0, 24))
        .map(|_| match rng.uniform_int(0, 9) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => *rng.choose(&[0.0, -0.0]),
            4 => -rng.uniform_range(0.0, 100.0),
            _ => rng.uniform_range(0.0, 10_000.0),
        })
        .collect()
}

/// The reference: sort the non-NaN values ascending, take the
/// nearest-rank element `ceil(q·n)` (1-based), 0 for an empty list.
fn reference(values: &[f64], q: f64) -> f64 {
    let mut clean: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if clean.is_empty() {
        return 0.0;
    }
    clean.sort_by(|a, b| a.total_cmp(b));
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let rank = ((q * clean.len() as f64).ceil() as usize).clamp(1, clean.len());
    clean[rank - 1]
}

#[test]
fn percentile_matches_the_sorted_rank_reference_on_any_input() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "signal-prop/reference");
        let values = gen_values(&mut rng);
        for _ in 0..8 {
            let q = match rng.uniform_int(0, 5) {
                0 => 0.0,
                1 => 1.0,
                2 => f64::NAN,
                3 => rng.uniform_range(-0.5, 1.5),
                _ => rng.uniform(),
            };
            let got = percentile(&values, q);
            let want = reference(&values, q);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "case {case}: percentile({values:?}, {q}) = {got}, reference = {want}"
            );
        }
    }
}

#[test]
fn percentile_is_total_and_never_nan_on_poisoned_input() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "signal-prop/total");
        let values = gen_values(&mut rng);
        let q = rng.uniform();
        // Must not panic, and NaN samples must never leak into the result
        // (infinities may — they are ordered, real values).
        let got = percentile(&values, q);
        assert!(!got.is_nan(), "case {case}: NaN leaked from {values:?}");
    }
}

#[test]
fn nan_samples_are_ignored_not_propagated() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "signal-prop/filter");
        let clean: Vec<f64> = (0..rng.uniform_int(1, 16))
            .map(|_| rng.uniform_range(0.0, 1_000.0))
            .collect();
        // Splice NaNs into random positions; the percentile of the
        // poisoned list must equal the percentile of the clean one.
        let mut poisoned = clean.clone();
        for _ in 0..rng.uniform_int(1, 6) {
            let at = rng.uniform_int(0, poisoned.len() as u64) as usize;
            poisoned.insert(at, f64::NAN);
        }
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(
                percentile(&poisoned, q).to_bits(),
                percentile(&clean, q).to_bits(),
                "case {case}: NaN splice changed the percentile at q={q}"
            );
        }
    }
}

#[test]
fn percentile_is_monotone_in_q() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "signal-prop/monotone");
        let values = gen_values(&mut rng);
        let mut qs: Vec<f64> = (0..10).map(|_| rng.uniform()).collect();
        qs.sort_by(|a, b| a.total_cmp(b));
        let picks: Vec<f64> = qs.iter().map(|&q| percentile(&values, q)).collect();
        for pair in picks.windows(2) {
            assert!(
                pair[0] <= pair[1] || pair.iter().any(|v| v.is_nan()),
                "case {case}: percentile not monotone in q: {picks:?}"
            );
        }
    }
}

#[test]
fn all_nan_input_reports_zero_like_empty() {
    assert_eq!(percentile(&[], 0.5).to_bits(), 0.0f64.to_bits());
    assert_eq!(percentile(&[f64::NAN], 0.5).to_bits(), 0.0f64.to_bits());
    assert_eq!(
        percentile(&[f64::NAN, f64::NAN], 0.95).to_bits(),
        0.0f64.to_bits()
    );
}

/// One reading at `now` must equal `percentile` over the pool's idle
/// waits, bit for bit, and the sorted-rank reference at p95.
fn check_reading(pool: &CondorPool, now: SimTime, context: &str) {
    let waits: Vec<f64> = pool.idle_waits(now).map(|d| d.as_secs_f64()).collect();
    let sample = SignalSample::observe(now, pool, 0);
    assert_eq!(sample.queue_depth, waits.len(), "{context}");
    assert_eq!(
        sample.wait_p50_secs.to_bits(),
        percentile(&waits, 0.50).to_bits(),
        "{context}: p50 over {} waits",
        waits.len()
    );
    assert_eq!(
        sample.wait_p95_secs.to_bits(),
        percentile(&waits, 0.95).to_bits(),
        "{context}: p95 over {} waits",
        waits.len()
    );
    assert_eq!(
        sample.wait_p95_secs.to_bits(),
        reference(&waits, 0.95).to_bits(),
        "{context}: p95 against the sorted reference"
    );
}

/// `t` moved by up to `spread_ms` either way, saturating at zero.
fn jitter(rng: &mut RngStream, t: SimTime, spread_ms: u64) -> SimTime {
    let us = rng.uniform_int(0, 2 * spread_ms * 1_000);
    SimTime::from_micros((t.as_micros() + us).saturating_sub(spread_ms * 1_000))
}

/// A seeded pool driven through every transition into and out of the
/// idle set, with a reading checked after each step:
/// - submissions at millisecond-resolution times, many equal (so waits
///   tie) and some earlier than the clock (submission times that go
///   backwards);
/// - negotiation and settle cycles, so part of the stream runs and
///   completes;
/// - `hold_with_reason` and `release`;
/// - `remove_job` on whatever job comes up: idle, running, held,
///   completed or already removed;
/// - `remove_machine` whether or not jobs run there (evictions), and
///   machines joining;
/// - finally a drain of the whole queue to empty.
///
/// Each reading is taken up to 5 s either side of the clock, so some
/// submissions lie after the reading and their waits saturate at zero.
#[test]
fn observed_wait_percentiles_equal_percentile_over_idle_waits() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "signal-prop/observe");
        let mut pool = CondorPool::new();
        let mut machines = 0;
        let mut add_machine = |pool: &mut CondorPool| {
            let name = format!("m{machines}");
            machines += 1;
            pool.add_machine(Machine::new(&name, 1.0, 1700, 1)).unwrap();
        };
        for _ in 0..rng.uniform_int(0, 4) {
            add_machine(&mut pool);
        }
        let mut clock = SimTime::ZERO;
        let mut ids = Vec::new();
        for step in 0..rng.uniform_int(0, 300) {
            let action = rng.uniform_int(0, 19);
            match action {
                0..=10 => {
                    let at = match rng.uniform_int(0, 9) {
                        0..=5 => {
                            clock += SimDuration::from_millis(rng.uniform_int(0, 90_000));
                            clock
                        }
                        6 => jitter(&mut rng, clock, 120_000).min(clock),
                        _ => clock,
                    };
                    let work = WorkSpec::serial(rng.uniform_int(1, 600) as f64);
                    let owner = *rng.choose(&["u", "v", "w"]);
                    ids.push(pool.submit(Job::new(owner, work), at));
                }
                11..=12 => {
                    pool.settle(clock);
                    pool.negotiate(clock);
                }
                13 | 14 if !ids.is_empty() => {
                    let id = *rng.choose(&ids);
                    pool.hold_with_reason(id, "property hold").unwrap();
                }
                15 if !ids.is_empty() => {
                    let id = *rng.choose(&ids);
                    pool.release(id).unwrap();
                }
                16 if !ids.is_empty() => {
                    let id = *rng.choose(&ids);
                    pool.remove_job(id).unwrap();
                }
                17 => {
                    let names: Vec<String> = pool.machines().map(|m| m.name.0.clone()).collect();
                    if !names.is_empty() {
                        let name = rng.choose(&names).clone();
                        pool.remove_machine(&name, clock).unwrap();
                    }
                }
                _ => add_machine(&mut pool),
            }
            let now = jitter(&mut rng, clock, 5_000);
            check_reading(
                &pool,
                now,
                &format!("case {case} step {step} action {action}"),
            );
        }
        // Drain: release every hold, make sure something can run, and
        // read the pool at each settle until the queue is empty.
        for &id in &ids {
            pool.release(id).unwrap();
        }
        add_machine(&mut pool);
        check_reading(&pool, clock, &format!("case {case} drain start"));
        pool.drain(clock, |pool, now, _| {
            check_reading(pool, now, &format!("case {case} drain at {now:?}"));
            ControlFlow::Continue(())
        })
        .expect("any job matches a default machine");
        assert_eq!(pool.idle_count(), 0, "case {case}");
        let sample = SignalSample::observe(clock, &pool, 0);
        assert_eq!(
            (
                sample.wait_p50_secs.to_bits(),
                sample.wait_p95_secs.to_bits()
            ),
            (0, 0),
            "case {case}: an empty queue reads zero waits"
        );
    }
}
