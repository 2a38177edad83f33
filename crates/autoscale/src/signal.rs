//! Scaling signals: what the controller observes each tick.
//!
//! A [`SignalSample`] is one instantaneous reading of the HTC pool —
//! queue depth, utilization, free slots, and the wait-time percentiles of
//! the jobs currently queued. A [`SignalWindow`] keeps the last N samples
//! so policies can react to smoothed values instead of chasing every
//! single-tick spike (the classic cause of scaling flap).
//!
//! Wait percentiles are rank lookups in the pool's idle order index
//! ([`CondorPool::idle_submitted_at_rank`]), never a walk over the queue.
//! A wait is `now.since(submitted_at)`: `since` saturates and
//! `as_secs_f64` rounds monotonically, so waits never rise as submission
//! times rise, and the k-th smallest of `n` waits is the wait of the
//! submission time at ascending rank `n − 1 − k`, bit for bit and ties
//! included. [`percentile`] over [`CondorPool::idle_waits`] is the
//! reference the property suite holds each reading to.

use std::collections::VecDeque;

use cumulus_htc::CondorPool;
use cumulus_simkit::time::SimTime;

/// The 0-based index of the nearest-rank `q` percentile among `len > 0`
/// sorted values (`q` clamped to `[0, 1]`; a NaN `q` reads as 0).
fn nearest_rank(len: usize, q: f64) -> usize {
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Nearest-rank percentile of an unsorted sample set. `q` is in `[0, 1]`
/// (clamped; a NaN `q` reads as the minimum). Empty input reports 0
/// (there is nothing waiting).
///
/// Total on any input: NaN samples are filtered out rather than poisoning
/// the selection — simulated wait durations flow through arithmetic a bad
/// `WorkSpec` can turn into NaN, and a monitoring-path helper must not
/// take the controller down over one bad sample. All-NaN input reports 0
/// like empty input.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut clean: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if clean.is_empty() {
        return 0.0;
    }
    let k = nearest_rank(clean.len(), q);
    // Under `total_cmp` the k-th smallest value is unique bit for bit, so
    // selection reports exactly what a full sort would.
    *clean.select_nth_unstable_by(k, f64::total_cmp).1
}

/// The nearest-rank `q` percentile of the idle jobs' waits at `now`, as
/// [`percentile`] over [`CondorPool::idle_waits`] reports it, from one
/// rank lookup (0 when nothing waits).
fn wait_percentile(now: SimTime, pool: &CondorPool, q: f64) -> f64 {
    let n = pool.idle_count();
    if n == 0 {
        return 0.0;
    }
    let t = pool
        .idle_submitted_at_rank(n - 1 - nearest_rank(n, q))
        .expect("a rank below idle_count is indexed");
    now.since(t).as_secs_f64()
}

/// One reading of the pool, taken at a control tick.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Idle (queued, unmatched) jobs.
    pub queue_depth: usize,
    /// Jobs executing.
    pub running: usize,
    /// Workers in the instance topology (the controller's actuator state;
    /// excludes the head node).
    pub workers: usize,
    /// Free execution slots across accepting machines.
    pub free_slots: u32,
    /// Busy fraction of all slots, `[0, 1]`.
    pub utilization: f64,
    /// Median wait of currently-queued jobs, seconds.
    pub wait_p50_secs: f64,
    /// 95th-percentile wait of currently-queued jobs, seconds.
    pub wait_p95_secs: f64,
}

impl SignalSample {
    /// Read the pool at `now`. `workers` is the current topology worker
    /// count — the pool itself cannot distinguish head from worker slots.
    pub fn observe(now: SimTime, pool: &CondorPool, workers: usize) -> SignalSample {
        SignalSample {
            at: now,
            queue_depth: pool.idle_count(),
            running: pool.running_count(),
            workers,
            free_slots: pool.free_slots(),
            utilization: pool.utilization(),
            wait_p50_secs: wait_percentile(now, pool, 0.50),
            wait_p95_secs: wait_percentile(now, pool, 0.95),
        }
    }

    /// Jobs in the system: queued plus executing. The backlog a
    /// capacity-planning policy sizes against.
    pub fn backlog(&self) -> usize {
        self.queue_depth + self.running
    }
}

/// Sliding window over the most recent [`SignalSample`]s.
#[derive(Debug, Clone)]
pub struct SignalWindow {
    capacity: usize,
    samples: VecDeque<SignalSample>,
}

impl SignalWindow {
    /// A window holding up to `capacity` samples (at least 1).
    pub fn new(capacity: usize) -> SignalWindow {
        SignalWindow {
            capacity: capacity.max(1),
            samples: VecDeque::new(),
        }
    }

    /// Append a sample, evicting the oldest past capacity.
    pub fn push(&mut self, sample: SignalSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// The newest sample, if any was pushed.
    pub fn latest(&self) -> Option<&SignalSample> {
        self.samples.back()
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean queue depth over the window (0 when empty).
    pub fn mean_queue_depth(&self) -> f64 {
        self.mean(|s| s.queue_depth as f64)
    }

    /// Mean utilization over the window (0 when empty).
    pub fn mean_utilization(&self) -> f64 {
        self.mean(|s| s.utilization)
    }

    fn mean(&self, f: impl Fn(&SignalSample) -> f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(f).sum::<f64>() / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulus_htc::{Job, Machine, WorkSpec};
    use cumulus_simkit::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn sample(at_secs: u64, queue: usize, util: f64) -> SignalSample {
        SignalSample {
            at: t(at_secs),
            queue_depth: queue,
            running: 0,
            workers: 0,
            free_slots: 0,
            utilization: util,
            wait_p50_secs: 0.0,
            wait_p95_secs: 0.0,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn observe_reads_queue_and_waits() {
        let mut pool = CondorPool::new();
        pool.add_machine(Machine::new("w", 1.0, 1700, 1)).unwrap();
        pool.submit(Job::new("u", WorkSpec::serial(100.0)), t(0));
        pool.submit(Job::new("u", WorkSpec::serial(100.0)), t(0));
        pool.negotiate(t(0));
        let s = SignalSample::observe(t(60), &pool, 0);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.running, 1);
        assert_eq!(s.backlog(), 2);
        assert_eq!(s.free_slots, 0);
        assert!((s.utilization - 1.0).abs() < 1e-12);
        assert_eq!(s.wait_p50_secs, 60.0);
        assert_eq!(s.wait_p95_secs, 60.0);
    }

    #[test]
    fn window_evicts_oldest_and_averages() {
        let mut w = SignalWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.mean_queue_depth(), 0.0);
        for (i, q) in [10usize, 20, 30, 40].iter().enumerate() {
            w.push(sample(i as u64, *q, 0.5));
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.latest().unwrap().queue_depth, 40);
        // 10 was evicted: mean over {20, 30, 40}.
        assert!((w.mean_queue_depth() - 30.0).abs() < 1e-12);
        assert!((w.mean_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_window_still_holds_one() {
        let mut w = SignalWindow::new(0);
        w.push(sample(0, 1, 0.0));
        w.push(sample(1, 2, 0.0));
        assert_eq!(w.len(), 1);
        assert_eq!(w.latest().unwrap().queue_depth, 2);
    }
}
