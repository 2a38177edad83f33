//! A shared retry/backoff plane for failure-prone subsystems.
//!
//! The transfer service and Galaxy workflow recovery (and E14's retry
//! policies) share one typed vocabulary; the Condor pool requeues evicted
//! jobs with no retry budget:
//!
//! * [`RetryPolicy`] — how many attempts are allowed, how the backoff grows,
//!   optional deterministic seeded jitter, and an optional hard deadline.
//! * [`RetryState`] — the per-operation cursor that consumes failures and
//!   answers *retry after this long* or *dead-letter now*.
//! * [`RetryDecision`] / [`DeadLetterReason`] — the typed verdicts, so
//!   callers can route exhausted work to a terminal dead-letter state
//!   instead of silently dropping it.
//!
//! # Determinism
//!
//! The backoff sequence is a pure function of the policy: the first wait is
//! `base_backoff`, and each subsequent wait is the previous one multiplied
//! by `backoff_factor` — the exact arithmetic the transfer layer has always
//! used, so adapting it onto this module is bitwise semantics-preserving.
//! Jitter, when enabled, is drawn from a named [`RngStream`] derived from a
//! master seed: the same `(seed, name)` pair always yields the same jittered
//! schedule, keeping parallel replica runs byte-identical.
//!
//! # Example
//!
//! ```
//! use cumulus_simkit::retry::{RetryDecision, RetryPolicy};
//! use cumulus_simkit::time::{SimDuration, SimTime};
//!
//! let policy = RetryPolicy::new(3).with_backoff(SimDuration::from_secs(10), 2.0);
//! let mut state = policy.state();
//! let now = SimTime::ZERO;
//! // Failures 1 and 2 retry with growing backoff; failure 3 dead-letters.
//! assert!(matches!(state.on_failure(now), RetryDecision::Retry { attempt: 1, .. }));
//! assert!(matches!(state.on_failure(now), RetryDecision::Retry { attempt: 2, .. }));
//! assert!(matches!(state.on_failure(now), RetryDecision::DeadLetter(_)));
//! ```

use crate::rng::RngStream;
use crate::time::{SimDuration, SimTime};

/// Why a retryable operation was routed to the dead-letter terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadLetterReason {
    /// The operation failed `attempts` times — the policy's full allowance.
    AttemptsExhausted {
        /// Total failures recorded, equal to the policy's `max_attempts`.
        attempts: u32,
    },
    /// The next retry could not be scheduled before the policy's deadline.
    DeadlineExpired {
        /// The deadline that cut the retry schedule short.
        deadline: SimTime,
    },
}

impl std::fmt::Display for DeadLetterReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeadLetterReason::AttemptsExhausted { attempts } => {
                write!(f, "dead-lettered after {attempts} attempts")
            }
            DeadLetterReason::DeadlineExpired { deadline } => {
                write!(f, "dead-lettered at deadline {deadline}")
            }
        }
    }
}

/// The verdict for one recorded failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryDecision {
    /// Try again after waiting `after`.
    Retry {
        /// How many failures have been recorded so far (1-based).
        attempt: u32,
        /// Backoff to wait before the next attempt (jitter applied).
        after: SimDuration,
    },
    /// Terminal: stop retrying and dead-letter the operation.
    DeadLetter(DeadLetterReason),
}

/// A typed retry/backoff policy.
///
/// `max_attempts` bounds the total number of *failures* tolerated: the
/// `max_attempts`-th failure dead-letters, so `max_attempts - 1` retries are
/// granted. A policy with `max_attempts <= 1` never retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Failures tolerated before dead-lettering (the Nth failure is final).
    pub max_attempts: u32,
    /// Wait before the first retry.
    pub base_backoff: SimDuration,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: f64,
    /// Jitter spread in `[0, 1)`: each wait is scaled by a factor drawn
    /// uniformly from `[1 - jitter, 1 + jitter]`. Zero disables jitter and
    /// needs no random stream.
    pub jitter: f64,
    /// Hard deadline: a retry that would land past it dead-letters instead.
    pub deadline: Option<SimTime>,
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` failures, with the shared defaults
    /// the transfer layer established: 15 s base backoff doubling per retry,
    /// no jitter, no deadline.
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff: SimDuration::from_secs(15),
            backoff_factor: 2.0,
            jitter: 0.0,
            deadline: None,
        }
    }

    /// Set the backoff curve (builder style).
    pub fn with_backoff(mut self, base: SimDuration, factor: f64) -> Self {
        self.base_backoff = base;
        self.backoff_factor = factor;
        self
    }

    /// Set the jitter spread (builder style). Takes effect only on states
    /// built with [`RetryPolicy::seeded_state`].
    pub fn with_jitter(mut self, spread: f64) -> Self {
        self.jitter = spread;
        self
    }

    /// Set the hard deadline (builder style).
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The un-jittered wait before retry number `attempt` (1-based):
    /// `base_backoff * backoff_factor^(attempt - 1)`, computed by repeated
    /// multiplication so it matches [`RetryState`]'s iterative arithmetic
    /// bit for bit.
    pub fn backoff_for_attempt(&self, attempt: u32) -> SimDuration {
        let mut backoff = self.base_backoff;
        for _ in 1..attempt {
            backoff = backoff.mul_f64(self.backoff_factor);
        }
        backoff
    }

    /// A fresh cursor over this policy without jitter randomness.
    pub fn state(&self) -> RetryState {
        RetryState {
            policy: *self,
            attempts: 0,
            backoff: self.base_backoff,
            jitter_rng: None,
            dead: None,
        }
    }

    /// A fresh cursor whose jitter stream is derived deterministically from
    /// `(seed, name)` — the same pair always replays the same schedule.
    pub fn seeded_state(&self, seed: u64, name: &str) -> RetryState {
        RetryState {
            policy: *self,
            attempts: 0,
            backoff: self.base_backoff,
            jitter_rng: Some(RngStream::derive(seed, name)),
            dead: None,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // 10 retries = 11 tolerated failures: the transfer layer's
        // long-standing default allowance.
        RetryPolicy::new(11)
    }
}

/// Per-operation retry cursor: feed it failures, obey its verdicts.
///
/// Once a state dead-letters it stays dead — further failures keep
/// returning the same [`DeadLetterReason`].
#[derive(Debug, Clone)]
pub struct RetryState {
    policy: RetryPolicy,
    attempts: u32,
    backoff: SimDuration,
    jitter_rng: Option<RngStream>,
    dead: Option<DeadLetterReason>,
}

impl RetryState {
    /// Record a failure observed at `now` and decide what happens next.
    pub fn on_failure(&mut self, now: SimTime) -> RetryDecision {
        if let Some(reason) = self.dead {
            return RetryDecision::DeadLetter(reason);
        }
        self.attempts += 1;
        if self.attempts >= self.policy.max_attempts {
            let reason = DeadLetterReason::AttemptsExhausted {
                attempts: self.attempts,
            };
            self.dead = Some(reason);
            return RetryDecision::DeadLetter(reason);
        }
        let mut wait = self.backoff;
        self.backoff = self.backoff.mul_f64(self.policy.backoff_factor);
        if self.policy.jitter > 0.0 {
            if let Some(rng) = self.jitter_rng.as_mut() {
                wait = wait.mul_f64(rng.jitter(self.policy.jitter));
            }
        }
        if let Some(deadline) = self.policy.deadline {
            if now >= deadline || now + wait > deadline {
                let reason = DeadLetterReason::DeadlineExpired { deadline };
                self.dead = Some(reason);
                return RetryDecision::DeadLetter(reason);
            }
        }
        RetryDecision::Retry {
            attempt: self.attempts,
            after: wait,
        }
    }

    /// Failures recorded so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Whether the state has reached its terminal dead-letter.
    pub fn is_dead(&self) -> bool {
        self.dead.is_some()
    }

    /// The policy this cursor follows.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    /// Seeded loop: for many random un-jittered policies the backoff
    /// sequence is monotone non-decreasing whenever the factor is >= 1.
    #[test]
    fn backoff_sequence_is_monotone() {
        let mut rng = RngStream::derive(17, "retry/monotone");
        for case in 0..200u32 {
            let base = SimDuration::from_secs_f64(rng.uniform_range(0.5, 120.0));
            let factor = rng.uniform_range(1.0, 4.0);
            let max = 3 + (rng.next_u64() % 10) as u32;
            let policy = RetryPolicy::new(max).with_backoff(base, factor);
            let mut state = policy.state();
            let mut prev = SimDuration::ZERO;
            while let RetryDecision::Retry { attempt, after } = state.on_failure(t(0)) {
                assert!(
                    after >= prev,
                    "case {case}: backoff shrank at attempt {attempt}"
                );
                assert_eq!(after, policy.backoff_for_attempt(attempt));
                prev = after;
            }
        }
    }

    /// Seeded loop: a retry is never scheduled past the deadline, whatever
    /// the policy or the failure times.
    #[test]
    fn deadline_is_always_respected() {
        let mut rng = RngStream::derive(23, "retry/deadline");
        for case in 0..200u32 {
            let deadline = t(60 + rng.next_u64() % 3600);
            let policy = RetryPolicy::new(50)
                .with_backoff(
                    SimDuration::from_secs_f64(rng.uniform_range(1.0, 90.0)),
                    2.0,
                )
                .with_jitter(0.25)
                .with_deadline(deadline);
            let mut state = policy.seeded_state(case as u64, "retry/deadline-jitter");
            let mut now = t(rng.next_u64() % 120);
            loop {
                match state.on_failure(now) {
                    RetryDecision::Retry { after, .. } => {
                        assert!(
                            now + after <= deadline,
                            "case {case}: retry at {} past deadline {deadline}",
                            now + after
                        );
                        now += after;
                    }
                    RetryDecision::DeadLetter(reason) => {
                        assert!(state.is_dead());
                        if let DeadLetterReason::DeadlineExpired { deadline: d } = reason {
                            assert_eq!(d, deadline);
                        }
                        break;
                    }
                }
            }
        }
    }

    /// Dead-letter lands after exactly `max_attempts` failures, and the
    /// terminal state is sticky.
    #[test]
    fn dead_letter_after_exactly_max_attempts() {
        for max in 1..12u32 {
            let policy = RetryPolicy::new(max).with_backoff(SimDuration::from_secs(1), 2.0);
            let mut state = policy.state();
            for k in 1..max {
                assert!(
                    matches!(state.on_failure(t(0)), RetryDecision::Retry { attempt, .. } if attempt == k),
                    "max={max}: failure {k} should retry"
                );
            }
            let verdict = state.on_failure(t(0));
            assert_eq!(
                verdict,
                RetryDecision::DeadLetter(DeadLetterReason::AttemptsExhausted { attempts: max })
            );
            // Sticky: one more failure reports the same terminal reason.
            assert_eq!(state.on_failure(t(0)), verdict);
            assert_eq!(state.attempts(), max);
        }
    }

    /// Zero tolerated attempts means the first failure is final.
    #[test]
    fn zero_attempts_never_retries() {
        let mut state = RetryPolicy::new(0).state();
        assert!(matches!(
            state.on_failure(t(0)),
            RetryDecision::DeadLetter(DeadLetterReason::AttemptsExhausted { attempts: 1 })
        ));
    }

    /// Bitwise determinism: the same `(seed, name)` replays the identical
    /// jittered schedule; a different seed diverges.
    #[test]
    fn jittered_schedule_is_bitwise_deterministic() {
        let policy = RetryPolicy::new(20)
            .with_backoff(SimDuration::from_secs(10), 1.7)
            .with_jitter(0.3);
        let run = |seed: u64| -> Vec<SimDuration> {
            let mut state = policy.seeded_state(seed, "retry/jitter-test");
            let mut out = Vec::new();
            while let RetryDecision::Retry { after, .. } = state.on_failure(t(5)) {
                out.push(after);
            }
            out
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must replay bit-for-bit");
        assert_eq!(a.len(), 19);
        let c = run(43);
        assert_ne!(a, c, "different seeds should jitter differently");
        // Every jittered wait stays inside the [1-j, 1+j] band around the
        // un-jittered curve.
        for (i, after) in a.iter().enumerate() {
            let raw = policy.backoff_for_attempt(i as u32 + 1).as_secs_f64();
            let f = after.as_secs_f64() / raw;
            assert!((0.7..=1.3).contains(&f), "attempt {i}: factor {f}");
        }
    }

    /// The un-jittered state ignores the jitter knob entirely, so policies
    /// that never ask for jitter stay on the legacy deterministic curve.
    #[test]
    fn unseeded_state_ignores_jitter() {
        let policy = RetryPolicy::new(5)
            .with_backoff(SimDuration::from_secs(8), 2.0)
            .with_jitter(0.5);
        let mut state = policy.state();
        for k in 1..5u32 {
            match state.on_failure(t(0)) {
                RetryDecision::Retry { after, .. } => {
                    assert_eq!(after, policy.backoff_for_attempt(k))
                }
                RetryDecision::DeadLetter(_) => panic!("too early"),
            }
        }
    }
}
