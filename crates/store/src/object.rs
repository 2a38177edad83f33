//! An S3-like object store.
//!
//! The third sharing backend beside the shared NFS export and the Globus
//! transfer service: a flat content-addressed bucket with per-request
//! latency, a bandwidth ceiling, and 2012-era per-request pricing. The
//! model follows Juve et al.'s EC2 data-sharing study — an object store
//! trades the shared filesystem's contention collapse for a fixed
//! per-request round trip and a metered bill.

use cumulus_net::DataSize;
use cumulus_simkit::metrics::Metrics;
use cumulus_simkit::telemetry::Key;
use cumulus_simkit::time::SimDuration;
use std::collections::BTreeMap;

use crate::content::ContentId;

/// Metrics keys the object store records.
pub mod keys {
    /// Counter: GET requests served.
    pub const GETS: &str = "store.object.gets";
    /// Counter: PUT requests accepted.
    pub const PUTS: &str = "store.object.puts";
    /// Counter: bytes served by GETs.
    pub const BYTES_SERVED: &str = "store.object.bytes_served";
    /// Counter: bytes accepted by PUTs.
    pub const BYTES_STORED: &str = "store.object.bytes_stored";
    /// Counter: bytes placed by free seeding (pre-resident data). Lets
    /// cost tables distinguish seeded bytes from paid PUT bytes.
    pub const SEEDED_BYTES: &str = "store.seeded_bytes";
}

/// Performance and pricing knobs (2012 S3-ish defaults).
#[derive(Debug, Clone, Copy)]
pub struct ObjectStoreConfig {
    /// Per-request round-trip latency before the first byte.
    pub request_latency: SimDuration,
    /// Per-stream throughput ceiling in Mbit/s.
    pub bandwidth_mbps: f64,
    /// Dollars per GET request ($0.01 per 10,000 in 2012).
    pub cost_per_get: f64,
    /// Dollars per PUT request ($0.01 per 1,000 in 2012).
    pub cost_per_put: f64,
}

impl Default for ObjectStoreConfig {
    fn default() -> Self {
        ObjectStoreConfig {
            request_latency: SimDuration::from_secs_f64(0.1),
            bandwidth_mbps: 150.0,
            cost_per_get: 1e-6,
            cost_per_put: 1e-5,
        }
    }
}

/// A content-addressed bucket.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    /// Active configuration.
    pub config: ObjectStoreConfig,
    objects: BTreeMap<ContentId, DataSize>,
    gets: u64,
    puts: u64,
    bytes_served: DataSize,
    cost_usd: f64,
    metrics: Metrics,
    /// Interned counter keys (GET/PUT are per-input hot paths).
    id_puts: Key,
    id_bytes_stored: Key,
    id_gets: Key,
    id_bytes_served: Key,
    id_seeded_bytes: Key,
}

impl ObjectStore {
    /// An empty bucket under `config`.
    pub fn new(config: ObjectStoreConfig) -> Self {
        ObjectStore {
            config,
            objects: BTreeMap::new(),
            gets: 0,
            puts: 0,
            bytes_served: DataSize::ZERO,
            cost_usd: 0.0,
            metrics: Metrics::new(),
            id_puts: Key::intern(keys::PUTS),
            id_bytes_stored: Key::intern(keys::BYTES_STORED),
            id_gets: Key::intern(keys::GETS),
            id_bytes_served: Key::intern(keys::BYTES_SERVED),
            id_seeded_bytes: Key::intern(keys::SEEDED_BYTES),
        }
    }

    /// Route counters to a shared registry.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Whether the bucket holds `cid`.
    pub fn contains(&self, cid: ContentId) -> bool {
        self.objects.contains_key(&cid)
    }

    /// Size of a stored object.
    pub fn size_of(&self, cid: ContentId) -> Option<DataSize> {
        self.objects.get(&cid).copied()
    }

    /// Time to move `size` through one request: latency plus the
    /// bandwidth-limited body.
    pub fn transfer_duration(&self, size: DataSize) -> SimDuration {
        let body = size.as_megabits_f64() / self.config.bandwidth_mbps;
        self.config.request_latency + SimDuration::from_secs_f64(body)
    }

    /// Store an object (idempotent on content — a duplicate PUT is still
    /// billed, as S3 would). Returns the upload duration.
    pub fn put(&mut self, cid: ContentId, size: DataSize) -> SimDuration {
        self.objects.insert(cid, size);
        self.puts += 1;
        self.cost_usd += self.config.cost_per_put;
        self.metrics.incr(self.id_puts, 1);
        self.metrics.incr(self.id_bytes_stored, size.as_bytes());
        self.transfer_duration(size)
    }

    /// Store an object without billing a request: models data already
    /// resident in the bucket when an episode starts. Seeds are invisible
    /// to the request counters and the bill, but their bytes are counted
    /// under [`keys::SEEDED_BYTES`] so cost tables can separate seeded
    /// residency from paid PUTs.
    pub fn seed(&mut self, cid: ContentId, size: DataSize) {
        self.objects.insert(cid, size);
        self.metrics.incr(self.id_seeded_bytes, size.as_bytes());
    }

    /// Fetch an object; `None` if absent (no charge for a 404 — the
    /// simulation never issues blind GETs).
    pub fn get(&mut self, cid: ContentId) -> Option<SimDuration> {
        let size = self.objects.get(&cid).copied()?;
        self.gets += 1;
        self.bytes_served += size;
        self.cost_usd += self.config.cost_per_get;
        self.metrics.incr(self.id_gets, 1);
        self.metrics.incr(self.id_bytes_served, size.as_bytes());
        Some(self.transfer_duration(size))
    }

    /// GET requests served.
    pub fn gets(&self) -> u64 {
        self.gets
    }

    /// PUT requests accepted.
    pub fn puts(&self) -> u64 {
        self.puts
    }

    /// Bytes served by GETs over the bucket's lifetime.
    pub fn bytes_served(&self) -> DataSize {
        self.bytes_served
    }

    /// Accumulated request charges in dollars.
    pub fn cost_usd(&self) -> f64 {
        self.cost_usd
    }
}

impl Default for ObjectStore {
    fn default() -> Self {
        ObjectStore::new(ObjectStoreConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(n: u64) -> ContentId {
        ContentId(n)
    }

    #[test]
    fn put_then_get_round_trips() {
        let mut s = ObjectStore::default();
        assert!(!s.contains(cid(1)));
        s.put(cid(1), DataSize::from_mb(200));
        assert!(s.contains(cid(1)));
        assert_eq!(s.size_of(cid(1)), Some(DataSize::from_mb(200)));
        let d = s.get(cid(1)).unwrap();
        // 0.1 s latency + 1600 Mbit / 150 Mbit/s ≈ 10.77 s.
        assert!((d.as_secs_f64() - 10.766).abs() < 0.01, "{d}");
        assert_eq!(s.get(cid(2)), None);
    }

    #[test]
    fn request_costs_accumulate() {
        let mut s = ObjectStore::default();
        s.put(cid(1), DataSize::from_mb(1));
        s.get(cid(1));
        s.get(cid(1));
        assert_eq!(s.puts(), 1);
        assert_eq!(s.gets(), 2);
        assert!((s.cost_usd() - (1e-5 + 2e-6)).abs() < 1e-12);
        assert_eq!(s.bytes_served(), DataSize::from_mb(2));
    }

    #[test]
    fn metrics_wired() {
        let m = Metrics::new();
        let mut s = ObjectStore::default();
        s.set_metrics(m.clone());
        s.put(cid(1), DataSize::from_mb(3));
        s.get(cid(1));
        assert_eq!(m.counter(keys::PUTS), 1);
        assert_eq!(m.counter(keys::GETS), 1);
        assert_eq!(m.counter(keys::BYTES_SERVED), 3_000_000);
        assert_eq!(m.counter(keys::BYTES_STORED), 3_000_000);
    }

    #[test]
    fn seeding_counts_bytes_but_never_bills() {
        let m = Metrics::new();
        let mut s = ObjectStore::default();
        s.set_metrics(m.clone());
        s.seed(cid(1), DataSize::from_mb(5));
        assert_eq!(m.counter(keys::SEEDED_BYTES), 5_000_000);
        assert_eq!(m.counter(keys::PUTS), 0);
        assert_eq!(m.counter(keys::BYTES_STORED), 0);
        assert_eq!(s.puts(), 0);
        assert_eq!(s.cost_usd(), 0.0);
    }

    #[test]
    fn latency_dominates_small_objects() {
        let s = ObjectStore::default();
        let tiny = s.transfer_duration(DataSize::from_kb(1));
        assert!(tiny.as_secs_f64() < 0.11);
        assert!(tiny.as_secs_f64() >= 0.1);
    }
}
