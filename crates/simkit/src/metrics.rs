//! Always-on counters, indexed by telemetry [`Key`].
//!
//! Simulation components count bytes, operations and outcomes here. A
//! counter's name interns into the process-wide key table once (typically
//! in a constructor), and the [`Key`] indexes a lock-free bank of atomic
//! cells, so [`Metrics::incr`] is a bank lookup plus a relaxed `fetch_add`:
//! no lock and no allocation on the hottest path in the simulator.
//!
//! Reads go by name: [`Metrics::counter`] looks the name up without
//! interning it, so reading a counter nobody wrote does not grow the
//! table. The bank is `Sync`, so handles may be shared across threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::telemetry::Key;

/// Size of bank 0 (and the granularity of growth); bank `b > 0` holds
/// `BANK0 << (b - 1)` cells, so 27 banks cover every possible `u32` id.
const BANK0: usize = 64;
const BANKS: usize = 27;

/// Map a key index to `(bank, offset)`; bank 0 covers `0..BANK0`,
/// bank `b` covers `BANK0 << (b - 1) .. BANK0 << b`.
#[inline]
fn locate(idx: usize) -> (usize, usize) {
    let n = idx / BANK0;
    if n == 0 {
        (0, idx)
    } else {
        let b = (usize::BITS - n.leading_zeros()) as usize;
        (b, idx - (BANK0 << (b - 1)))
    }
}

/// Cheap-to-clone handle to a shared bank of counters.
///
/// Cells are grouped into geometrically-sized banks allocated on first
/// touch; a bank never moves once published. Orderings are relaxed: the
/// simulator's event loop is single-threaded per replica, and
/// cross-thread reads only happen after joins.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    banks: Arc<[OnceLock<Box<[AtomicU64]>>; BANKS]>,
}

impl Metrics {
    /// An empty bank.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increment the counter under `key` by `n`.
    #[inline]
    pub fn incr(&self, key: Key, n: u64) {
        let (b, off) = locate(key.index());
        let bank = self.banks[b].get_or_init(|| {
            let size = if b == 0 { BANK0 } else { BANK0 << (b - 1) };
            (0..size).map(|_| AtomicU64::new(0)).collect()
        });
        bank[off].fetch_add(n, Ordering::Relaxed);
    }

    /// Read the counter named `name` (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        let Some(key) = Key::find(name) else { return 0 };
        let (b, off) = locate(key.index());
        self.banks[b]
            .get()
            .map_or(0, |bank| bank[off].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::span::keys;
    use std::thread;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        let jobs = Key::intern("metrics.test.jobs");
        m.incr(jobs, 1);
        m.incr(jobs, 2);
        assert_eq!(m.counter("metrics.test.jobs"), 3);
        assert_eq!(m.counter("metrics.test.missing"), 0);
    }

    #[test]
    fn clone_shares_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.incr(Key::intern("metrics.test.x"), 5);
        assert_eq!(m.counter("metrics.test.x"), 5);
    }

    #[test]
    fn concurrent_increments_are_safe() {
        let m = Metrics::new();
        let n = Key::intern("metrics.test.n");
        thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.incr(n, 1);
                    }
                });
            }
        });
        assert_eq!(m.counter("metrics.test.n"), 8000);
    }

    #[test]
    fn reads_of_unknown_keys_do_not_grow_the_table() {
        let m = Metrics::new();
        assert_eq!(m.counter("metrics.test.never-written"), 0);
        assert_eq!(Key::find("metrics.test.never-written"), None);
    }

    #[test]
    fn metric_names_share_the_key_table_without_aliasing_event_keys() {
        let m = Metrics::new();
        m.incr(Key::intern("metrics.test.shared"), 7);
        assert_eq!(m.counter("metrics.test.shared"), 7);
        // A counter under a well-known event key is its own cell.
        m.incr(keys::JOB_SUBMITTED, 2);
        assert_eq!(m.counter("job.submitted"), 2);
        assert_eq!(m.counter("metrics.test.shared"), 7);
        assert_ne!(Key::intern("metrics.test.shared"), keys::JOB_SUBMITTED);
    }
}
