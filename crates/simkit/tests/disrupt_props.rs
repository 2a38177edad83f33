//! Property-style tests of the disruption-plan invariants: whatever window
//! list `DisruptionPlan::from_windows` is fed, the resulting plan is
//! sorted, non-overlapping, merged, and consistent with `is_down`. Cases
//! are generated from deterministic seeded streams (the offline build
//! ships no proptest).

use cumulus_simkit::disrupt::{DisruptionPlan, Window};
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::time::{SimDuration, SimTime};

const CASES: u64 = 64;

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// A random well-formed window list: arbitrary order, arbitrary overlap,
/// zero-length windows included.
fn gen_windows(rng: &mut RngStream) -> Vec<Window> {
    (0..rng.uniform_int(0, 12))
        .map(|_| {
            let start = rng.uniform_int(0, 5_000);
            let len = rng.uniform_int(0, 600);
            Window::new(t(start), t(start + len)).expect("end >= start by construction")
        })
        .collect()
}

#[test]
fn from_windows_always_yields_sorted_disjoint_merged_windows() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "disrupt-prop/invariants");
        let raw = gen_windows(&mut rng);
        let plan = DisruptionPlan::from_windows(raw.clone());
        let windows = plan.windows();

        // Sorted by start, and strictly disjoint: merging collapsed every
        // overlap AND every abutment, so consecutive windows never touch.
        for pair in windows.windows(2) {
            assert!(
                pair[0].start <= pair[1].start,
                "case {case}: not sorted: {pair:?}"
            );
            assert!(
                pair[0].end < pair[1].start,
                "case {case}: touching windows survived merging: {pair:?}"
            );
        }

        // Coverage is preserved exactly: a time is down in the plan iff
        // some raw window contained it.
        for probe in 0..5_800 {
            let at = t(probe);
            let raw_down = raw.iter().any(|o| o.contains(at));
            assert_eq!(
                plan.is_down(at),
                raw_down,
                "case {case}: is_down({probe}s) diverged from the raw windows"
            );
        }
    }
}

#[test]
fn merging_is_idempotent_and_order_insensitive() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "disrupt-prop/idempotent");
        let mut raw = gen_windows(&mut rng);
        let once = DisruptionPlan::from_windows(raw.clone());
        let twice = DisruptionPlan::from_windows(once.windows().to_vec());
        assert_eq!(
            once.windows(),
            twice.windows(),
            "case {case}: merging a merged plan changed it"
        );
        raw.reverse();
        let reversed = DisruptionPlan::from_windows(raw);
        assert_eq!(
            once.windows(),
            reversed.windows(),
            "case {case}: input order leaked into the plan"
        );
    }
}

#[test]
fn next_window_and_next_up_are_consistent_with_is_down() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "disrupt-prop/next");
        let plan = DisruptionPlan::from_windows(gen_windows(&mut rng));
        for probe in (0..5_800).step_by(97) {
            let at = t(probe);
            if plan.is_down(at) {
                let up = plan.next_up_at(at);
                assert!(up > at, "case {case}: next_up_at not in the future");
                assert!(
                    !plan.is_down(up),
                    "case {case}: still down at the reported recovery time"
                );
            } else if let Some(next) = plan.next_window_at(at) {
                assert!(next.start >= at, "case {case}: next window in the past");
                assert!(
                    !plan.is_down(at),
                    "case {case}: up time overlapping a window"
                );
            }
        }
    }
}

#[test]
fn inverted_windows_are_rejected_as_typed_errors_not_panics() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "disrupt-prop/inverted");
        let start = rng.uniform_int(1, 5_000);
        let shrink = rng.uniform_int(1, start);
        let err = Window::new(t(start), t(start - shrink))
            .expect_err("end before start must be rejected");
        let msg = err.to_string();
        assert!(
            msg.contains("invalid disruption window"),
            "case {case}: unhelpful error: {msg}"
        );
    }
}

#[test]
fn next_up_is_never_earlier_and_never_down() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "disrupt-prop/next-up");
        let plan = DisruptionPlan::from_windows(gen_windows(&mut rng));
        for probe in 0..5_800 {
            let at = t(probe);
            let up = plan.next_up_at(at);
            assert!(up >= at, "case {case}: next_up_at({probe}s) went back");
            assert!(
                !plan.is_down(up),
                "case {case}: next_up_at({probe}s) is still down"
            );
        }
    }
}
