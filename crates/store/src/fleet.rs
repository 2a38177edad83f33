//! The fleet of per-worker caches, and its disruption-plane hookup.
//!
//! A [`CacheFleet`] maps worker (machine) names to [`WorkerCache`]s and
//! is the coherence authority for the whole data plane: peer lookups,
//! ClassAd advertisement, preemption invalidation, and the scale-in
//! advisor all read the same state. The handle is cheaply cloneable
//! (shared interior, like [`Metrics`]) so the staging layer, the
//! disruption driver, and the autoscale controller can all hold one.

use cumulus_net::DataSize;
use cumulus_simkit::disrupt::{Disruptable, DisruptionKind};
use cumulus_simkit::metrics::Metrics;
use cumulus_simkit::telemetry::Key;
use cumulus_simkit::time::SimTime;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::cache::{EvictionPolicy, WorkerCache};
use crate::content::{cid_list, ContentId};

/// Metrics keys the fleet records.
pub mod keys {
    /// Counter: cache hits across all workers.
    pub const HITS: &str = "store.cache.hits";
    /// Counter: cache misses across all workers.
    pub const MISSES: &str = "store.cache.misses";
    /// Counter: capacity evictions across all workers.
    pub const EVICTIONS: &str = "store.cache.evictions";
    /// Counter: whole-cache invalidations (preemption, termination).
    pub const INVALIDATIONS: &str = "store.cache.invalidations";
    /// Counter: objects lost to invalidations.
    pub const OBJECTS_LOST: &str = "store.cache.objects_lost";
}

#[derive(Debug)]
struct FleetInner {
    caches: BTreeMap<Arc<str>, WorkerCache>,
    /// Per content id, the workers whose cache holds it, in name order:
    /// the peer rung's answer without a scan over every cache. Each name
    /// shares its allocation with the `caches` key. Kept exact by the
    /// only two membership changes, [`CacheFleet::insert`] (evictions
    /// included) and [`CacheFleet::drop_worker`]; an id nobody holds has
    /// no entry.
    holders: BTreeMap<ContentId, Vec<Arc<str>>>,
    capacity: DataSize,
    policy: EvictionPolicy,
    metrics: Metrics,
    ids: FleetKeys,
}

/// Interned keys of the fleet's counters — lookups are the data plane's
/// hot path and must not allocate per call.
#[derive(Debug, Clone, Copy)]
struct FleetKeys {
    hits: Key,
    misses: Key,
    evictions: Key,
    invalidations: Key,
    objects_lost: Key,
}

impl FleetKeys {
    fn intern() -> Self {
        FleetKeys {
            hits: Key::intern(keys::HITS),
            misses: Key::intern(keys::MISSES),
            evictions: Key::intern(keys::EVICTIONS),
            invalidations: Key::intern(keys::INVALIDATIONS),
            objects_lost: Key::intern(keys::OBJECTS_LOST),
        }
    }
}

/// Shared handle to every worker's cache.
#[derive(Debug, Clone)]
pub struct CacheFleet {
    inner: Arc<Mutex<FleetInner>>,
}

impl CacheFleet {
    /// A fleet whose workers get `capacity`-byte caches under `policy`.
    pub fn new(capacity: DataSize, policy: EvictionPolicy) -> Self {
        CacheFleet {
            inner: Arc::new(Mutex::new(FleetInner {
                caches: BTreeMap::new(),
                holders: BTreeMap::new(),
                capacity,
                policy,
                metrics: Metrics::new(),
                ids: FleetKeys::intern(),
            })),
        }
    }

    /// Route counters to a shared registry.
    pub fn set_metrics(&self, metrics: Metrics) {
        self.lock().metrics = metrics;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FleetInner> {
        self.inner.lock().expect("cache fleet lock poisoned")
    }

    /// Register `worker` with an empty cache (idempotent).
    pub fn ensure_worker(&self, worker: &str) {
        self.lock().register(worker);
    }

    /// Forget `worker` entirely (scale-in): its cache contents must not
    /// satisfy any later lookup. Returns whether it was known.
    pub fn drop_worker(&self, worker: &str) -> bool {
        let mut g = self.lock();
        match g.caches.remove(worker) {
            Some(cache) => {
                for cid in cache.contents() {
                    g.drop_holder(cid, worker);
                }
                let lost = cache.len();
                let ids = g.ids;
                g.metrics.incr(ids.invalidations, 1);
                g.metrics.incr(ids.objects_lost, lost as u64);
                true
            }
            None => false,
        }
    }

    /// Workers currently registered, in name order.
    pub fn workers(&self) -> Vec<String> {
        self.lock().caches.keys().map(|k| k.to_string()).collect()
    }

    /// Staging-attempt lookup on `worker`'s cache (counts hit/miss).
    /// Unknown workers miss.
    pub fn lookup(&self, worker: &str, cid: ContentId) -> bool {
        let g = &mut *self.lock();
        let hit = g.caches.get_mut(worker).is_some_and(|c| c.lookup(cid));
        g.metrics
            .incr(if hit { g.ids.hits } else { g.ids.misses }, 1);
        hit
    }

    /// Record that `worker` now holds `cid` (after a remote fetch),
    /// evicting as needed. Returns the evicted ids.
    pub fn insert(&self, worker: &str, cid: ContentId, size: DataSize) -> Vec<ContentId> {
        let g = &mut *self.lock();
        g.register(worker);
        let cache = g.caches.get_mut(worker).expect("registered above");
        let evicted = cache.insert(cid, size);
        let held = cache.contains(cid);
        for &gone in &evicted {
            g.drop_holder(gone, worker);
        }
        if held {
            g.add_holder(cid, worker);
        }
        g.metrics.incr(g.ids.evictions, evicted.len() as u64);
        evicted
    }

    /// Whether `worker` holds `cid`, without touching stats.
    pub fn contains(&self, worker: &str, cid: ContentId) -> bool {
        self.lock()
            .caches
            .get(worker)
            .map(|c| c.contains(cid))
            .unwrap_or(false)
    }

    /// The first (name order) worker other than `exclude` holding `cid` —
    /// the peer a cache-to-cache copy would come from.
    pub fn peer_with(&self, cid: ContentId, exclude: &str) -> Option<String> {
        self.lock()
            .holders
            .get(&cid)?
            .iter()
            .find(|&name| &**name != exclude)
            .map(|name| name.to_string())
    }

    /// [`peer_with`](CacheFleet::peer_with) as a scan over every cache in
    /// name order: the reference the holder index must agree with.
    #[cfg(test)]
    pub(crate) fn peer_with_by_scan(&self, cid: ContentId, exclude: &str) -> Option<String> {
        self.lock()
            .caches
            .iter()
            .find(|(name, cache)| &***name != exclude && cache.contains(cid))
            .map(|(name, _)| name.to_string())
    }

    /// Bytes cached on `worker` (0 when unknown) — the scale-in
    /// advisor's warmth measure.
    pub fn cached_bytes(&self, worker: &str) -> DataSize {
        self.lock()
            .caches
            .get(worker)
            .map(|c| c.used())
            .unwrap_or(DataSize::ZERO)
    }

    /// The machine-ad advertisement for `worker`: cached ids as
    /// comma-joined 16-hex-digit strings, ascending ([`cid_list`]). Empty
    /// when the worker is unknown or cold.
    pub fn attr_string(&self, worker: &str) -> String {
        match self.lock().caches.get(worker) {
            Some(c) => cid_list(c.contents()),
            None => String::new(),
        }
    }

    /// Candidates sorted coldest-first: ascending cached bytes, then
    /// least-recent activity, then name. Scale-in prefers the front.
    pub fn coldest_first(&self, candidates: &[String]) -> Vec<String> {
        let g = self.lock();
        let mut ranked: Vec<(DataSize, u64, String)> = candidates
            .iter()
            .map(|name| {
                let (bytes, act) = g
                    .caches
                    .get(name.as_str())
                    .map(|c| (c.used(), c.last_activity()))
                    .unwrap_or((DataSize::ZERO, 0));
                (bytes, act, name.clone())
            })
            .collect();
        ranked.sort();
        ranked.into_iter().map(|(_, _, name)| name).collect()
    }

    /// Fleet-wide lifetime (hits, misses, evictions).
    pub fn totals(&self) -> (u64, u64, u64) {
        let g = self.lock();
        let mut t = (0, 0, 0);
        for c in g.caches.values() {
            t.0 += c.hits();
            t.1 += c.misses();
            t.2 += c.evictions();
        }
        t
    }
}

impl FleetInner {
    /// Give `worker` an empty cache unless it has one. The name is
    /// allocated only on first sight.
    fn register(&mut self, worker: &str) {
        if !self.caches.contains_key(worker) {
            let cache = WorkerCache::new(self.capacity, self.policy);
            self.caches.insert(worker.into(), cache);
        }
    }

    /// Record that `worker`'s cache holds `cid`.
    fn add_holder(&mut self, cid: ContentId, worker: &str) {
        let holders = self.holders.entry(cid).or_default();
        if let Err(pos) = holders.binary_search_by(|h| (**h).cmp(worker)) {
            let (name, _) = self
                .caches
                .get_key_value(worker)
                .expect("a holder has a cache");
            holders.insert(pos, Arc::clone(name));
        }
    }

    /// Strike `worker` from `cid`'s holders (it evicted or lost the id).
    fn drop_holder(&mut self, cid: ContentId, worker: &str) {
        let Some(holders) = self.holders.get_mut(&cid) else {
            return;
        };
        if let Ok(pos) = holders.binary_search_by(|h| (**h).cmp(worker)) {
            holders.remove(pos);
        }
        if holders.is_empty() {
            self.holders.remove(&cid);
        }
    }
}

impl Default for CacheFleet {
    fn default() -> Self {
        CacheFleet::new(DataSize::from_gb(2), EvictionPolicy::Lru)
    }
}

/// The fleet's hookup to the disruption plane. A preemption or hardware
/// failure destroys the worker's instance storage with it, so the cache
/// is dropped wholesale — later peer lookups must not be satisfied from
/// a dead node. An outage leaves the disk intact: the cache survives.
impl Disruptable for CacheFleet {
    type Target = String;
    /// Whether the struck worker had a (now lost) cache.
    type Effect = bool;

    fn disrupt(&mut self, _now: SimTime, target: &String, kind: DisruptionKind) -> bool {
        match kind {
            DisruptionKind::Preemption | DisruptionKind::HardwareFailure => {
                self.drop_worker(target)
            }
            DisruptionKind::Outage => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(n: u64) -> DataSize {
        DataSize::from_mb(n)
    }

    fn cid(n: u64) -> ContentId {
        ContentId(n)
    }

    fn fleet() -> CacheFleet {
        CacheFleet::new(mb(100), EvictionPolicy::Lru)
    }

    #[test]
    fn peer_lookup_prefers_name_order() {
        let f = fleet();
        f.insert("w-b", cid(7), mb(10));
        f.insert("w-a", cid(7), mb(10));
        assert_eq!(f.peer_with(cid(7), "w-c"), Some("w-a".to_string()));
        assert_eq!(f.peer_with(cid(7), "w-a"), Some("w-b".to_string()));
        assert_eq!(f.peer_with(cid(9), "w-c"), None);
    }

    #[test]
    fn holder_index_agrees_with_the_scan_through_evictions_and_drops() {
        // 30 MB caches of 10 MB objects: every fourth insert evicts.
        let f = CacheFleet::new(mb(30), EvictionPolicy::Lru);
        let workers = ["w-c", "w-a", "w-d", "w-b"];
        let check = |f: &CacheFleet| {
            for n in 0..8 {
                for exclude in ["", "w-a", "w-b", "w-c", "w-d", "w-z"] {
                    assert_eq!(
                        f.peer_with(cid(n), exclude),
                        f.peer_with_by_scan(cid(n), exclude),
                        "cid {n}, exclude {exclude:?}"
                    );
                }
            }
        };
        for step in 0..40u64 {
            let w = workers[(step * 7 % 4) as usize];
            f.insert(w, cid(step * 5 % 8), mb(10));
            if step % 11 == 10 {
                f.drop_worker(workers[(step % 4) as usize]);
            }
            check(&f);
        }
        // An object larger than the cache is not held by anyone.
        f.insert("w-a", cid(99), mb(50));
        assert_eq!(f.peer_with(cid(99), ""), None);
    }

    #[test]
    fn drop_worker_forgets_contents() {
        let f = fleet();
        f.insert("w-a", cid(1), mb(10));
        assert!(f.drop_worker("w-a"));
        assert!(!f.drop_worker("w-a"));
        assert_eq!(f.peer_with(cid(1), "other"), None);
        assert_eq!(f.cached_bytes("w-a"), DataSize::ZERO);
    }

    #[test]
    fn attr_string_is_sorted_hex() {
        let f = fleet();
        f.insert("w", ContentId(0x2), mb(1));
        f.insert("w", ContentId(0x1), mb(1));
        assert_eq!(f.attr_string("w"), "0000000000000001,0000000000000002");
        assert_eq!(f.attr_string("unknown"), "");
    }

    #[test]
    fn coldest_first_ranks_by_bytes_then_activity() {
        let f = fleet();
        f.ensure_worker("w-a");
        f.insert("w-b", cid(1), mb(50));
        f.insert("w-c", cid(2), mb(10));
        let names: Vec<String> = ["w-a", "w-b", "w-c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(f.coldest_first(&names), vec!["w-a", "w-c", "w-b"]);
    }

    #[test]
    fn metrics_count_hits_misses_and_invalidations() {
        let m = Metrics::new();
        let f = fleet();
        f.set_metrics(m.clone());
        f.insert("w", cid(1), mb(10));
        f.lookup("w", cid(1));
        f.lookup("w", cid(2));
        f.drop_worker("w");
        assert_eq!(m.counter(keys::HITS), 1);
        assert_eq!(m.counter(keys::MISSES), 1);
        assert_eq!(m.counter(keys::INVALIDATIONS), 1);
        assert_eq!(m.counter(keys::OBJECTS_LOST), 1);
    }

    #[test]
    fn preemption_invalidates_outage_does_not() {
        let mut f = fleet();
        f.insert("w", cid(1), mb(10));
        assert!(!f
            .clone()
            .disrupt(SimTime::ZERO, &"w".to_string(), DisruptionKind::Outage));
        assert!(f.contains("w", cid(1)), "outage leaves the disk alone");
        assert!(f.disrupt(SimTime::ZERO, &"w".to_string(), DisruptionKind::Preemption));
        assert!(!f.contains("w", cid(1)));
    }
}
