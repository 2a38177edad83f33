//! A thread-safe metrics registry with pre-registered integer handles.
//!
//! Simulation components record counters, gauges, and timing samples.
//! Names are interned **once**, process-wide, into [`MetricId`] handles;
//! after registration the hot path is allocation-free. Counters — by far
//! the hottest class — live in a lock-free bank of atomic cells
//! (`CounterBank`): `incr_id` is a relaxed `fetch_add` with no lock at
//! all. Gauges and samples are dense vectors under the registry's mutex —
//! no `String` allocation, no tree walk, and no round-trip through the
//! global name table.
//!
//! Writes go through handles only. Reads can also go by name
//! (`counter`, `gauge`, `samples`): the name is looked up without being
//! registered, so reading a metric nobody wrote does not grow the table.
//!
//! The registry is `Sync` (std mutexes) so the parallel replica runner
//! can aggregate metrics from worker threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::stats::Samples;
use crate::telemetry::intern::NameTable;
use crate::time::SimDuration;

fn metric_table() -> &'static Mutex<NameTable> {
    static TABLE: OnceLock<Mutex<NameTable>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(NameTable::new()))
}

/// A pre-registered metric name.
///
/// Register once (typically in a constructor or a `OnceLock`), then
/// record through the `*_id` methods with no per-call allocation. The
/// numeric id depends on registration order and is never rendered —
/// user-visible output resolves [`MetricId::name`] and sorts by it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId(u32);

impl MetricId {
    /// Register a metric name (idempotent; cheap after the first call).
    pub fn register(name: &str) -> MetricId {
        let mut tab = metric_table().lock().expect("metric table poisoned");
        MetricId(tab.intern(name))
    }

    /// Look up a name without registering it (reads of never-recorded
    /// metrics should not grow the table).
    pub fn find(name: &str) -> Option<MetricId> {
        let tab = metric_table().lock().expect("metric table poisoned");
        tab.find(name).map(MetricId)
    }

    /// The registered name.
    pub fn name(self) -> &'static str {
        let tab = metric_table().lock().expect("metric table poisoned");
        tab.name(self.0)
    }
}

impl std::fmt::Debug for MetricId {
    // Show the name, not the registration-order-dependent id.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricId({:?})", self.name())
    }
}

/// Dense per-registry storage for gauges and samples, indexed by
/// [`MetricId`]. Slots are `None` until first touched so presence
/// semantics ("has any data") match the old map-based registry exactly.
/// Counters live outside the mutex in the [`CounterBank`].
#[derive(Debug, Default)]
struct Inner {
    gauges: Vec<Option<f64>>,
    samples: Vec<Option<Samples>>,
}

/// Size of bank 0 (and the granularity of growth); bank `b > 0` holds
/// `BANK0 << (b - 1)` cells, so 27 banks cover every possible `u32` id.
const BANK0: usize = 64;
const BANKS: usize = 27;

/// One counter slot. `present` distinguishes "never incremented" from
/// "incremented by zero" — the old map registry rendered the latter.
/// Orderings are relaxed: the simulator's event loop is single-threaded
/// per replica, and cross-thread reads only happen after joins.
#[derive(Debug, Default)]
struct CounterCell {
    present: AtomicBool,
    value: AtomicU64,
}

/// Lock-free growable counter store. Cells are grouped into
/// geometrically-sized banks allocated on first touch; a bank never moves
/// once published, so `incr_id` is a bank lookup plus a relaxed
/// `fetch_add` — no mutex on the hottest path in the simulator.
#[derive(Debug, Default)]
struct CounterBank {
    banks: [OnceLock<Box<[CounterCell]>>; BANKS],
}

/// Map a metric index to `(bank, offset)`; bank 0 covers `0..BANK0`,
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

impl CounterBank {
    #[inline]
    fn cell(&self, idx: usize) -> &CounterCell {
        let (b, off) = locate(idx);
        let bank = self.banks[b].get_or_init(|| {
            let size = if b == 0 { BANK0 } else { BANK0 << (b - 1) };
            (0..size).map(|_| CounterCell::default()).collect()
        });
        &bank[off]
    }

    #[inline]
    fn read(&self, idx: usize) -> Option<u64> {
        let (b, off) = locate(idx);
        let cell = &self.banks[b].get()?[off];
        cell.present
            .load(Ordering::Relaxed)
            .then(|| cell.value.load(Ordering::Relaxed))
    }

    /// `(id, value)` of every touched counter, in id order.
    fn present(&self) -> Vec<(MetricId, u64)> {
        let mut out = Vec::new();
        for (b, bank) in self.banks.iter().enumerate() {
            let Some(bank) = bank.get() else { continue };
            let base = if b == 0 { 0 } else { BANK0 << (b - 1) };
            for (off, cell) in bank.iter().enumerate() {
                if cell.present.load(Ordering::Relaxed) {
                    out.push((
                        MetricId((base + off) as u32),
                        cell.value.load(Ordering::Relaxed),
                    ));
                }
            }
        }
        out
    }
}

#[inline]
fn slot<T: Default>(vec: &mut Vec<Option<T>>, id: MetricId) -> &mut Option<T> {
    let idx = id.0 as usize;
    if idx >= vec.len() {
        vec.resize_with(idx + 1, || None);
    }
    &mut vec[idx]
}

#[inline]
fn get<T: Copy>(vec: &[Option<T>], id: MetricId) -> Option<T> {
    vec.get(id.0 as usize).copied().flatten()
}

/// Cheap-to-clone handle to a shared metrics store.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: Arc<CounterBank>,
    inner: Arc<Mutex<Inner>>,
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    // ----------------------------------------------------------------
    // Handle-based hot path
    // ----------------------------------------------------------------

    /// Increment a counter by `n` (allocation-free and lock-free).
    #[inline]
    pub fn incr_id(&self, id: MetricId, n: u64) {
        let cell = self.counters.cell(id.0 as usize);
        cell.present.store(true, Ordering::Relaxed);
        cell.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Read a counter (0 if absent).
    #[inline]
    pub fn counter_id(&self, id: MetricId) -> u64 {
        self.counters.read(id.0 as usize).unwrap_or(0)
    }

    /// Set a gauge to an absolute value (allocation-free).
    #[inline]
    pub fn set_gauge_id(&self, id: MetricId, value: f64) {
        let mut g = self.inner.lock().expect("metrics lock poisoned");
        *slot(&mut g.gauges, id) = Some(value);
    }

    /// Read a gauge, if it has been set.
    #[inline]
    pub fn gauge_id(&self, id: MetricId) -> Option<f64> {
        let g = self.inner.lock().expect("metrics lock poisoned");
        get(&g.gauges, id)
    }

    /// Record a numeric sample (allocation-free after the slot exists).
    #[inline]
    pub fn record_id(&self, id: MetricId, value: f64) {
        let mut g = self.inner.lock().expect("metrics lock poisoned");
        slot(&mut g.samples, id)
            .get_or_insert_with(Samples::default)
            .record(value);
    }

    /// Record a duration sample (stored in seconds).
    #[inline]
    pub fn record_duration_id(&self, id: MetricId, d: SimDuration) {
        self.record_id(id, d.as_secs_f64());
    }

    /// Snapshot of the samples recorded under `id`.
    pub fn samples_id(&self, id: MetricId) -> Samples {
        let g = self.inner.lock().expect("metrics lock poisoned");
        g.samples
            .get(id.0 as usize)
            .and_then(|s| s.clone())
            .unwrap_or_default()
    }

    // ----------------------------------------------------------------
    // Reads by name
    // ----------------------------------------------------------------

    /// Read a counter (0 if absent).
    pub fn counter(&self, key: &str) -> u64 {
        MetricId::find(key).map_or(0, |id| self.counter_id(id))
    }

    /// Read a gauge, if it has been set.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        MetricId::find(key).and_then(|id| self.gauge_id(id))
    }

    /// Snapshot of the samples recorded under `key`.
    pub fn samples(&self, key: &str) -> Samples {
        MetricId::find(key).map_or_else(Samples::default, |id| self.samples_id(id))
    }

    // ----------------------------------------------------------------
    // Whole-registry views
    // ----------------------------------------------------------------

    /// All keys that currently have any data, sorted.
    pub fn keys(&self) -> Vec<String> {
        let g = self.inner.lock().expect("metrics lock poisoned");
        let mut keys: Vec<String> = self
            .counters
            .present()
            .into_iter()
            .map(|(id, _)| id.name().to_string())
            .chain(present(&g.gauges).map(|(id, _)| id.name().to_string()))
            .chain(
                g.samples
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_some())
                    .map(|(i, _)| MetricId(i as u32).name().to_string()),
            )
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Merge all data from `other` into `self` (counters add, gauges take
    /// the other's value, samples concatenate).
    pub fn merge(&self, other: &Metrics) {
        // incr_id marks the cell present even for a zero add, so
        // zero-valued counters stay visible after a merge.
        for (id, v) in other.counters.present() {
            self.incr_id(id, v);
        }
        // Lock ordering: snapshot other's state first to avoid holding
        // two locks.
        let snapshot = {
            let g = other.inner.lock().expect("metrics lock poisoned");
            (g.gauges.clone(), g.samples.clone())
        };
        let mut g = self.inner.lock().expect("metrics lock poisoned");
        for (i, v) in snapshot.0.iter().enumerate() {
            if let Some(v) = v {
                *slot(&mut g.gauges, MetricId(i as u32)) = Some(*v);
            }
        }
        for (i, v) in snapshot.1.into_iter().enumerate() {
            if let Some(v) = v {
                slot(&mut g.samples, MetricId(i as u32))
                    .get_or_insert_with(Samples::default)
                    .merge(&v);
            }
        }
    }

    /// Multi-line human-readable dump (sorted by key, exactly the
    /// pre-handle registry's render).
    pub fn report(&self) -> String {
        let g = self.inner.lock().expect("metrics lock poisoned");
        let mut out = String::new();
        for (name, v) in sorted_by_name(self.counters.present().into_iter()) {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        for (name, v) in sorted_by_name(present(&g.gauges)) {
            out.push_str(&format!("gauge   {name} = {v}\n"));
        }
        let mut samples: Vec<(&'static str, &Samples)> = g
            .samples
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (MetricId(i as u32).name(), s)))
            .collect();
        samples.sort_by_key(|(name, _)| *name);
        for (name, s) in samples {
            out.push_str(&format!("sample  {name}: {}\n", s.summary()));
        }
        out
    }
}

/// `(id, value)` of every populated slot.
fn present<T: Copy>(vec: &[Option<T>]) -> impl Iterator<Item = (MetricId, T)> + '_ {
    vec.iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|v| (MetricId(i as u32), v)))
}

/// Resolve names and sort — the rendering order of the old `BTreeMap`
/// registry (lexicographic by key).
fn sorted_by_name<T: Copy>(iter: impl Iterator<Item = (MetricId, T)>) -> Vec<(&'static str, T)> {
    let mut v: Vec<(&'static str, T)> = iter.map(|(id, x)| (id.name(), x)).collect();
    v.sort_by_key(|(name, _)| *name);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn id(name: &str) -> MetricId {
        MetricId::register(name)
    }

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.incr_id(id("jobs"), 1);
        m.incr_id(id("jobs"), 2);
        assert_eq!(m.counter("jobs"), 3);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let m = Metrics::new();
        assert_eq!(m.gauge("load"), None);
        m.set_gauge_id(id("load"), 0.5);
        m.set_gauge_id(id("load"), 0.9);
        assert_eq!(m.gauge("load"), Some(0.9));
    }

    #[test]
    fn samples_aggregate() {
        let m = Metrics::new();
        m.record_id(id("latency"), 1.0);
        m.record_id(id("latency"), 3.0);
        m.record_duration_id(id("latency"), SimDuration::from_secs(2));
        let s = m.samples("latency");
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(2.0));
    }

    #[test]
    fn clone_shares_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.incr_id(id("x"), 5);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn merge_combines() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.incr_id(id("c"), 1);
        b.incr_id(id("c"), 2);
        b.set_gauge_id(id("g"), 7.0);
        b.record_id(id("s"), 4.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(7.0));
        assert_eq!(a.samples("s").count(), 1);
    }

    #[test]
    fn keys_are_sorted_and_deduped() {
        let m = Metrics::new();
        m.incr_id(id("b"), 1);
        m.set_gauge_id(id("a"), 1.0);
        m.record_id(id("b"), 1.0);
        assert_eq!(m.keys(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn concurrent_increments_are_safe() {
        let m = Metrics::new();
        let n = id("n");
        thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.incr_id(n, 1);
                    }
                });
            }
        });
        assert_eq!(m.counter("n"), 8000);
    }

    #[test]
    fn report_mentions_everything() {
        let m = Metrics::new();
        m.incr_id(id("c"), 1);
        m.set_gauge_id(id("g"), 2.0);
        m.record_id(id("s"), 3.0);
        let r = m.report();
        assert!(r.contains("counter c = 1"));
        assert!(r.contains("gauge   g = 2"));
        assert!(r.contains("sample  s: n=1"));
    }

    #[test]
    fn handles_and_strings_hit_the_same_slot() {
        let m = Metrics::new();
        let id = MetricId::register("metrics.test.handle");
        m.incr_id(id, 2);
        m.incr_id(MetricId::register("metrics.test.handle"), 3);
        assert_eq!(m.counter_id(id), 5);
        assert_eq!(m.counter("metrics.test.handle"), 5);
        assert_eq!(id, MetricId::register("metrics.test.handle"));
        assert_eq!(MetricId::find("metrics.test.handle"), Some(id));
        assert_eq!(id.name(), "metrics.test.handle");
    }

    #[test]
    fn reads_of_unknown_keys_do_not_grow_the_table() {
        let m = Metrics::new();
        assert_eq!(m.counter("metrics.test.never-written"), 0);
        assert_eq!(m.gauge("metrics.test.never-written"), None);
        assert_eq!(m.samples("metrics.test.never-written").count(), 0);
        assert_eq!(MetricId::find("metrics.test.never-written"), None);
    }

    #[test]
    fn zero_incr_makes_the_key_visible_like_the_old_registry() {
        let m = Metrics::new();
        m.incr_id(id("metrics.test.zero"), 0);
        assert!(m.keys().contains(&"metrics.test.zero".to_string()));
        assert!(m.report().contains("counter metrics.test.zero = 0"));
    }

    #[test]
    fn report_is_sorted_by_name_within_sections() {
        let m = Metrics::new();
        // Register in reverse order: render must still sort by name.
        m.incr_id(id("metrics.test.z"), 1);
        m.incr_id(id("metrics.test.a"), 1);
        let r = m.report();
        let a = r.find("metrics.test.a").unwrap();
        let z = r.find("metrics.test.z").unwrap();
        assert!(a < z, "report:\n{r}");
    }
}
