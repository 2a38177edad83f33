//! Staging plans: pick the cheapest source for every input.
//!
//! Given a job's input contents and the worker it matched to, the data
//! plane prices each candidate source with the calibrated transfer
//! models and emits a [`StagingPlan`] charging the cheapest one:
//!
//! 1. **local cache** — free (the bytes are already on the node);
//! 2. **peer worker** — a tuned-TCP copy over the intra-cloud path;
//! 3. **object store** — a GET paying request latency plus bandwidth;
//! 4. **shared NFS** — fair-share bandwidth, degrading with concurrency;
//! 5. **GridFTP ingest** — a Globus transfer from the origin site, the
//!    fallback when the content has never entered the cloud.
//!
//! Each [`SharingBackend`] fixes its rung order
//! ([`SharingBackend::default_ladder`]), and one climb walks it. A
//! caller may pass one more source, probed once per input just before
//! the ladder's terminal rung: the federation layer's cross-site pull
//! ([`DataPlane::stage_job_with`]). Bytes that arrive from outside the
//! site, by ingest or by that source, land in the bucket and the worker
//! cache. The caller charges `plan.total` before job start.

use cumulus_net::{DataSize, Rate, TcpConfig};
use cumulus_nfs::SharedFs;
use cumulus_simkit::metrics::Metrics;
use cumulus_simkit::telemetry::Key;
use cumulus_simkit::time::SimDuration;
use cumulus_transfer::{inter_site_link, intra_cloud_link, Protocol};

use crate::cache::EvictionPolicy;
use crate::content::{push_hex, ContentId};
use crate::fleet::CacheFleet;
use crate::object::{ObjectStore, ObjectStoreConfig};

/// Metrics keys the staging layer records.
pub mod keys {
    /// Counter: bytes satisfied from the local cache.
    pub const BYTES_LOCAL: &str = "store.bytes.local";
    /// Counter: bytes copied from a peer worker's cache.
    pub const BYTES_PEER: &str = "store.bytes.peer";
    /// Counter: bytes fetched from the object store.
    pub const BYTES_OBJECT: &str = "store.bytes.object";
    /// Counter: bytes fetched from a remote site's object store over the
    /// WAN (the federation layer's cross-site rung).
    pub const BYTES_REMOTE: &str = "store.bytes.remote";
    /// Counter: bytes staged through the shared NFS export.
    pub const BYTES_NFS: &str = "store.bytes.nfs";
    /// Counter: bytes ingested over GridFTP from the origin site.
    pub const BYTES_INGEST: &str = "store.bytes.ingest";
}

/// Which sharing strategy the deployment runs — the axis of the E13
/// sweep, after Juve et al.'s EC2 data-sharing study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingBackend {
    /// Everything through the shared NFS export (the paper's deployment).
    Nfs,
    /// Every input fetched from the object store, no node-local reuse.
    ObjectStore,
    /// Object store backed by per-worker caches and peer copies.
    CachedObjectStore,
}

impl SharingBackend {
    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            SharingBackend::Nfs => "nfs",
            SharingBackend::ObjectStore => "s3",
            SharingBackend::CachedObjectStore => "s3+cache",
        }
    }

    /// The backend's default source ladder — exactly the climb the
    /// historical hardcoded dispatch performed, so a plane left on its
    /// default order stages byte-identically to the pre-ladder tree.
    pub fn default_ladder(self) -> &'static [Rung] {
        match self {
            SharingBackend::Nfs => &[Rung::Nfs],
            SharingBackend::ObjectStore => &[Rung::ObjectStore, Rung::Ingest],
            SharingBackend::CachedObjectStore => &[
                Rung::LocalCache,
                Rung::Peer,
                Rung::ObjectStore,
                Rung::Ingest,
            ],
        }
    }
}

/// One rung of the staging source ladder. A [`DataPlane`] climbs its
/// backend's rung list in order and charges the first rung that can
/// produce the bytes. [`Rung::Nfs`] and [`Rung::Ingest`] are *terminal*:
/// they never refuse, and every ladder ends in exactly one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The worker's own cache (free; counts a hit/miss per probe).
    LocalCache,
    /// Another worker's cache, copied over the intra-cloud path.
    Peer,
    /// The site's object store (a billed GET when it holds the content).
    ObjectStore,
    /// The shared NFS export (terminal — always stages).
    Nfs,
    /// GridFTP ingest from the origin site (terminal — always stages,
    /// landing the content in the object store).
    Ingest,
}

/// Where one input's bytes came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StagingSource {
    /// Already on the worker.
    LocalCache,
    /// Copied from the named peer worker's cache.
    Peer(String),
    /// Fetched from the object store.
    ObjectStore,
    /// Fetched from the named remote site's object store over the WAN
    /// (produced only by a cross-site source passed to
    /// [`DataPlane::stage_job_with`]).
    RemoteSite(String),
    /// Staged through the shared filesystem.
    Nfs,
    /// Ingested over GridFTP from the origin site.
    Ingest,
}

/// One input of a [`StagingPlan`].
#[derive(Debug, Clone)]
pub struct StagingStep {
    /// The content staged.
    pub cid: ContentId,
    /// Its size.
    pub size: DataSize,
    /// Where it came from.
    pub source: StagingSource,
    /// How long it took.
    pub duration: SimDuration,
}

/// The resolved staging work for one job on one worker.
#[derive(Debug, Clone, Default)]
pub struct StagingPlan {
    /// One step per input, in input order.
    pub steps: Vec<StagingStep>,
    /// Total staging time (steps are sequential on the worker's NIC).
    pub total: SimDuration,
}

impl StagingPlan {
    /// Bytes moved over the network (everything but local hits).
    pub fn network_bytes(&self) -> DataSize {
        self.steps
            .iter()
            .filter(|s| s.source != StagingSource::LocalCache)
            .map(|s| s.size)
            .fold(DataSize::ZERO, |a, b| a + b)
    }
}

/// An input a job declares: content id plus size.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    /// The content required.
    pub cid: ContentId,
    /// Its size.
    pub size: DataSize,
}

/// Fixed per-peer-copy setup cost (connection + control round trips).
const PEER_SETUP_SECS: f64 = 0.2;

/// The assembled data plane: one sharing backend, the shared FS, the
/// object store, and the cache fleet, all wired to one metrics registry.
#[derive(Debug, Clone)]
pub struct DataPlane {
    /// The active sharing strategy.
    pub backend: SharingBackend,
    /// The shared filesystem (always present — `/nfs/software` exists in
    /// every deployment even when datasets bypass it).
    pub nfs: SharedFs,
    /// The object store bucket.
    pub object: ObjectStore,
    /// The per-worker caches.
    pub fleet: CacheFleet,
    metrics: Metrics,
    ids: StagingKeys,
}

/// Interned keys of the staging layer's per-input counters.
#[derive(Debug, Clone, Copy)]
struct StagingKeys {
    bytes_local: Key,
    bytes_peer: Key,
    bytes_object: Key,
    bytes_remote: Key,
    bytes_nfs: Key,
    bytes_ingest: Key,
}

impl StagingKeys {
    fn intern() -> Self {
        StagingKeys {
            bytes_local: Key::intern(keys::BYTES_LOCAL),
            bytes_peer: Key::intern(keys::BYTES_PEER),
            bytes_object: Key::intern(keys::BYTES_OBJECT),
            bytes_remote: Key::intern(keys::BYTES_REMOTE),
            bytes_nfs: Key::intern(keys::BYTES_NFS),
            bytes_ingest: Key::intern(keys::BYTES_INGEST),
        }
    }
}

impl DataPlane {
    /// A data plane for `backend` with the given NFS bandwidth, cache
    /// capacity, and eviction policy.
    pub fn new(
        backend: SharingBackend,
        nfs_bandwidth_mbps: f64,
        object_config: ObjectStoreConfig,
        cache_capacity: DataSize,
        eviction: EvictionPolicy,
    ) -> Self {
        DataPlane {
            backend,
            nfs: SharedFs::new(nfs_bandwidth_mbps),
            object: ObjectStore::new(object_config),
            fleet: CacheFleet::new(cache_capacity, eviction),
            metrics: Metrics::new(),
            ids: StagingKeys::intern(),
        }
    }

    /// Whether staged bytes are admitted into the worker caches — true
    /// exactly for the one backend whose ladder reads them, so a plane
    /// without the cache rung never warms state it would never read.
    pub fn caching_enabled(&self) -> bool {
        self.backend == SharingBackend::CachedObjectStore
    }

    /// Route all counters (NFS, object store, caches, staging) to one
    /// registry.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.nfs.set_metrics(metrics.clone());
        self.object.set_metrics(metrics.clone());
        self.fleet.set_metrics(metrics.clone());
        self.metrics = metrics;
    }

    /// Make `cid` available before the episode starts: written to the
    /// NFS scratch tree and seeded into the object store. Seeding is
    /// free — it models data already resident when the workload begins —
    /// so it bypasses the PUT counters and the bill.
    pub fn seed_dataset(&mut self, cid: ContentId, size: DataSize) {
        self.object.seed(cid, size);
        // The file is `/nfs/scratch/{cid}` and its tag `cid.hex()`: the
        // hex is written once, and the tag is the path's last 16 bytes.
        const DIR: &str = "/nfs/scratch/cid-";
        let mut path = String::with_capacity(DIR.len() + 16);
        path.push_str(DIR);
        push_hex(&mut path, cid);
        let tag = &path[DIR.len()..];
        self.nfs
            .put(&path, size.as_bytes(), tag)
            .expect("scratch path is absolute");
    }

    /// Time for a peer-to-peer copy of `size` over the intra-cloud path.
    pub fn peer_duration(&self, size: DataSize) -> SimDuration {
        let link = intra_cloud_link();
        let rate: Rate = TcpConfig::tuned().steady_rate(&link, 1);
        SimDuration::from_secs_f64(
            PEER_SETUP_SECS + TcpConfig::tuned().ramp_seconds(&link) + rate.seconds_for(size),
        )
    }

    /// Time for a GridFTP ingest of `size` from the origin site.
    pub fn ingest_duration(&self, size: DataSize) -> SimDuration {
        Protocol::GLOBUS_DEFAULT
            .transfer_duration(size, &inter_site_link())
            .expect("GridFTP has no size limit")
    }

    /// Resolve staging for one job matched to `worker`. `nfs_concurrent`
    /// is the number of simultaneous NFS streams (including this one)
    /// competing for the export during the stage-in window.
    ///
    /// Remote fetches under [`SharingBackend::CachedObjectStore`] fill
    /// the worker's cache, so a plan both consumes and warms state —
    /// call it in match order for determinism.
    pub fn stage_job(
        &mut self,
        worker: &str,
        inputs: &[InputSpec],
        nfs_concurrent: u32,
    ) -> StagingPlan {
        self.stage_job_with(worker, inputs, nfs_concurrent, |_| None)
    }

    /// [`DataPlane::stage_job`] with one more source: `cross_site` is
    /// probed once per input, after the site's own rungs miss and before
    /// the terminal rung. A hit is charged as returned and then lands
    /// like an ingest: written to the bucket (a billed PUT) and admitted
    /// to `worker`'s cache. The source does its own metering.
    pub fn stage_job_with(
        &mut self,
        worker: &str,
        inputs: &[InputSpec],
        nfs_concurrent: u32,
        mut cross_site: impl FnMut(InputSpec) -> Option<(StagingSource, SimDuration)>,
    ) -> StagingPlan {
        let mut plan = StagingPlan::default();
        for input in inputs {
            let step = self.stage_input(worker, *input, nfs_concurrent, &mut cross_site);
            plan.total += step.duration;
            plan.steps.push(step);
        }
        plan
    }

    /// The climb: the site's own rungs in order, then `cross_site`, then
    /// the terminal rung, which never refuses.
    fn stage_input(
        &mut self,
        worker: &str,
        input: InputSpec,
        nfs_concurrent: u32,
        cross_site: &mut impl FnMut(InputSpec) -> Option<(StagingSource, SimDuration)>,
    ) -> StagingStep {
        let (&terminal, own) = self
            .backend
            .default_ladder()
            .split_last()
            .expect("every ladder ends in a terminal rung");
        let (source, duration) = own
            .iter()
            .find_map(|&rung| self.try_rung(rung, worker, input, nfs_concurrent))
            .or_else(|| cross_site(input))
            .or_else(|| self.try_rung(terminal, worker, input, nfs_concurrent))
            .expect("terminal rungs never refuse");
        if matches!(source, StagingSource::Ingest | StagingSource::RemoteSite(_)) {
            // Bytes from outside the site land in its bucket, so the next
            // consumer pays a GET, not another transfer.
            self.object.put(input.cid, input.size);
        }
        if source != StagingSource::LocalCache {
            self.admit(worker, input.cid, input.size);
        }
        let step = StagingStep {
            cid: input.cid,
            size: input.size,
            source,
            duration,
        };
        self.record_step(&step);
        step
    }

    /// Probe a single rung for `input` on `worker`: `Some((source, time))`
    /// when the rung can produce the bytes, `None` when it refuses (cache
    /// miss, no peer holds the content, object store doesn't have it).
    /// [`Rung::Nfs`] and [`Rung::Ingest`] never refuse. A probe prices
    /// and bills the fetch; landing the bytes is the climb's job.
    fn try_rung(
        &mut self,
        rung: Rung,
        worker: &str,
        input: InputSpec,
        nfs_concurrent: u32,
    ) -> Option<(StagingSource, SimDuration)> {
        let InputSpec { cid, size } = input;
        match rung {
            Rung::LocalCache => self
                .fleet
                .lookup(worker, cid)
                .then_some((StagingSource::LocalCache, SimDuration::ZERO)),
            Rung::Peer => self
                .fleet
                .peer_with(cid, worker)
                .map(|peer| (StagingSource::Peer(peer), self.peer_duration(size))),
            Rung::ObjectStore => self
                .object
                .get(cid)
                .map(|d| (StagingSource::ObjectStore, d)),
            Rung::Nfs => Some((
                StagingSource::Nfs,
                self.nfs.stage(size.as_bytes(), nfs_concurrent),
            )),
            Rung::Ingest => Some((StagingSource::Ingest, self.ingest_duration(size))),
        }
    }

    /// Admit freshly fetched bytes into `worker`'s cache — a no-op unless
    /// [`DataPlane::caching_enabled`].
    fn admit(&mut self, worker: &str, cid: ContentId, size: DataSize) {
        if self.caching_enabled() {
            self.fleet.insert(worker, cid, size);
        }
    }

    /// Attribute one resolved step's bytes to its per-source counter.
    fn record_step(&mut self, step: &StagingStep) {
        let key = match &step.source {
            StagingSource::LocalCache => self.ids.bytes_local,
            StagingSource::Peer(_) => self.ids.bytes_peer,
            StagingSource::ObjectStore => self.ids.bytes_object,
            StagingSource::RemoteSite(_) => self.ids.bytes_remote,
            StagingSource::Nfs => self.ids.bytes_nfs,
            StagingSource::Ingest => self.ids.bytes_ingest,
        };
        self.metrics.incr(key, step.size.as_bytes());
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

    fn plane(backend: SharingBackend) -> DataPlane {
        DataPlane::new(
            backend,
            400.0,
            ObjectStoreConfig::default(),
            DataSize::from_gb(2),
            EvictionPolicy::Lru,
        )
    }

    fn input(n: u64, size_mb: u64) -> InputSpec {
        InputSpec {
            cid: cid(n),
            size: mb(size_mb),
        }
    }

    #[test]
    fn nfs_backend_always_uses_the_export() {
        let mut p = plane(SharingBackend::Nfs);
        p.seed_dataset(cid(1), mb(200));
        let plan = p.stage_job("w-0", &[input(1, 200)], 1);
        assert_eq!(plan.steps[0].source, StagingSource::Nfs);
        // 200 MB at 400 Mbit/s = 4 s.
        assert!((plan.total.as_secs_f64() - 4.0).abs() < 1e-9);
        // Contention doubles it.
        let contended = p.stage_job("w-1", &[input(1, 200)], 2);
        assert!((contended.total.as_secs_f64() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn cached_backend_climbs_the_source_ladder() {
        let mut p = plane(SharingBackend::CachedObjectStore);
        p.seed_dataset(cid(1), mb(200));

        // Cold: object store GET, which fills w-0's cache.
        let first = p.stage_job("w-0", &[input(1, 200)], 1);
        assert_eq!(first.steps[0].source, StagingSource::ObjectStore);

        // Warm on w-0: free.
        let warm = p.stage_job("w-0", &[input(1, 200)], 1);
        assert_eq!(warm.steps[0].source, StagingSource::LocalCache);
        assert_eq!(warm.total, SimDuration::ZERO);
        assert_eq!(warm.network_bytes(), DataSize::ZERO);

        // Another worker prefers the peer copy over the object store.
        let peer = p.stage_job("w-1", &[input(1, 200)], 1);
        assert_eq!(peer.steps[0].source, StagingSource::Peer("w-0".to_string()));
        assert!(peer.total < first.total, "peer beats the object store");
    }

    #[test]
    fn unseeded_content_falls_back_to_ingest_then_is_served_locally() {
        let mut p = plane(SharingBackend::CachedObjectStore);
        let cold = p.stage_job("w-0", &[input(9, 100)], 1);
        assert_eq!(cold.steps[0].source, StagingSource::Ingest);
        assert!(p.object.contains(cid(9)), "ingest lands in the bucket");
        // The same worker now has it cached.
        let again = p.stage_job("w-0", &[input(9, 100)], 1);
        assert_eq!(again.steps[0].source, StagingSource::LocalCache);
    }

    #[test]
    fn object_backend_never_caches() {
        let mut p = plane(SharingBackend::ObjectStore);
        p.seed_dataset(cid(1), mb(100));
        let a = p.stage_job("w-0", &[input(1, 100)], 1);
        let b = p.stage_job("w-0", &[input(1, 100)], 1);
        assert_eq!(a.steps[0].source, StagingSource::ObjectStore);
        assert_eq!(b.steps[0].source, StagingSource::ObjectStore);
        assert_eq!(p.object.gets(), 2, "every job pays the GET");
        assert!(!p.fleet.contains("w-0", cid(1)), "nothing was admitted");
    }

    #[test]
    fn source_ordering_matches_cost() {
        let p = plane(SharingBackend::CachedObjectStore);
        let size = mb(200);
        let peer = p.peer_duration(size).as_secs_f64();
        let object = p.object.transfer_duration(size).as_secs_f64();
        let nfs = p.nfs.stage_duration(size.as_bytes(), 1).as_secs_f64();
        let ingest = p.ingest_duration(size).as_secs_f64();
        assert!(peer < nfs, "peer {peer} < nfs {nfs}");
        assert!(nfs < object, "nfs {nfs} < object {object}");
        assert!(peer < ingest, "peer {peer} < ingest {ingest}");
    }

    #[test]
    fn metrics_attribute_bytes_per_source() {
        let m = Metrics::new();
        let mut p = plane(SharingBackend::CachedObjectStore);
        p.set_metrics(m.clone());
        p.seed_dataset(cid(1), mb(50));
        p.stage_job("w-0", &[input(1, 50)], 1); // object
        p.stage_job("w-0", &[input(1, 50)], 1); // local
        p.stage_job("w-1", &[input(1, 50)], 1); // peer
        assert_eq!(m.counter(keys::BYTES_OBJECT), 50_000_000);
        assert_eq!(m.counter(keys::BYTES_LOCAL), 50_000_000);
        assert_eq!(m.counter(keys::BYTES_PEER), 50_000_000);
    }

    #[test]
    fn default_ladders_match_the_historical_dispatch() {
        assert_eq!(SharingBackend::Nfs.default_ladder(), &[Rung::Nfs]);
        assert_eq!(
            SharingBackend::ObjectStore.default_ladder(),
            &[Rung::ObjectStore, Rung::Ingest]
        );
        assert_eq!(
            SharingBackend::CachedObjectStore.default_ladder(),
            &[
                Rung::LocalCache,
                Rung::Peer,
                Rung::ObjectStore,
                Rung::Ingest
            ]
        );
        let p = plane(SharingBackend::CachedObjectStore);
        assert!(p.caching_enabled());
        assert!(!plane(SharingBackend::Nfs).caching_enabled());
    }

    #[test]
    fn cross_site_source_is_probed_once_before_the_terminal_rung() {
        let remote = |probes: &mut Vec<ContentId>, input: InputSpec| {
            probes.push(input.cid);
            (input.cid == cid(2)).then(|| {
                let source = StagingSource::RemoteSite("far".to_string());
                (source, SimDuration::from_secs(3))
            })
        };
        let mut p = plane(SharingBackend::CachedObjectStore);
        p.seed_dataset(cid(1), mb(10));
        let mut probes = Vec::new();
        let plan = p.stage_job_with("w-0", &[input(1, 10), input(2, 10), input(3, 10)], 1, |i| {
            remote(&mut probes, i)
        });
        let sources: Vec<_> = plan.steps.iter().map(|s| s.source.clone()).collect();
        assert_eq!(
            sources,
            [
                StagingSource::ObjectStore,
                StagingSource::RemoteSite("far".to_string()),
                StagingSource::Ingest
            ]
        );
        // The bucket hit never reached the source; each miss probed it once.
        assert_eq!(probes, [cid(2), cid(3)]);
        assert_eq!(plan.steps[1].duration, SimDuration::from_secs(3));
        // A remote hit lands like an ingest: a billed PUT and a cache entry.
        assert_eq!(p.object.puts(), 2);
        assert!(p.object.contains(cid(2)));
        assert!(p.fleet.contains("w-0", cid(2)));

        // On the NFS backend the source sits before the export.
        let mut nfs = plane(SharingBackend::Nfs);
        let plan = nfs.stage_job_with("w-0", &[input(2, 10), input(3, 10)], 1, |i| {
            remote(&mut probes, i)
        });
        assert_eq!(
            plan.steps[0].source,
            StagingSource::RemoteSite("far".to_string())
        );
        assert_eq!(plan.steps[1].source, StagingSource::Nfs);
        assert!(!nfs.fleet.contains("w-0", cid(2)), "NFS planes never cache");
    }

    #[test]
    fn try_rung_probes_refuse_and_terminals_always_stage() {
        let mut p = plane(SharingBackend::CachedObjectStore);
        let spec = input(7, 50);
        assert_eq!(p.try_rung(Rung::LocalCache, "w-0", spec, 1), None);
        assert_eq!(p.try_rung(Rung::Peer, "w-0", spec, 1), None);
        assert_eq!(p.try_rung(Rung::ObjectStore, "w-0", spec, 1), None);
        let (source, d) = p.try_rung(Rung::Nfs, "w-0", spec, 1).unwrap();
        assert_eq!(source, StagingSource::Nfs);
        assert!(d > SimDuration::ZERO);
        let (source, _) = p.try_rung(Rung::Ingest, "w-0", spec, 1).unwrap();
        assert_eq!(source, StagingSource::Ingest);
        assert!(
            !p.object.contains(cid(7)),
            "a probe does not land the bytes"
        );
    }

    #[test]
    fn seeding_is_free() {
        let mut p = plane(SharingBackend::ObjectStore);
        p.seed_dataset(cid(1), mb(10));
        assert!(p.object.contains(cid(1)));
        let path = format!("/nfs/scratch/{}", cid(1));
        assert_eq!(p.nfs.tree.file_size(&path), Ok(mb(10).as_bytes()));
        assert_eq!(p.nfs.tree.file_tag(&path), Ok(cid(1).hex().as_str()));
        assert_eq!(p.object.puts(), 0, "seeding bypasses the request meter");
        assert_eq!(p.object.cost_usd(), 0.0, "seeding never bills");
    }
}
