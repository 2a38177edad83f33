//! A 1-site federation stages exactly like the bare data plane.
//!
//! With one site the cross-site rung never resolves (the replica
//! directory holds no *other* site), so `Federation::stage_job` must fall
//! through to the site's own ladder step for step. Over a seeded stream
//! of requests — mixed workers, seeded and unseeded content, varying NFS
//! concurrency — every backend returns the same `StagingPlan` and the
//! same `store.bytes.*` counters as `DataPlane::stage_job`, and nothing
//! ever crosses the WAN. This is what lets the E13 grid run on a 1-site
//! federation.

use cumulus_cloud::InstanceType;
use cumulus_federation::{Federation, SiteConfig, WanTopology};
use cumulus_simkit::metrics::Metrics;
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::telemetry::wan as wan_keys;
use cumulus_simkit::time::{SimDuration, SimTime};
use cumulus_store::staging::keys;
use cumulus_store::{
    ContentId, DataPlane, DataSize, EvictionPolicy, InputSpec, ObjectStoreConfig, SharingBackend,
    StagingPlan,
};

const WORKERS: usize = 4;
const REQUESTS: usize = 200;
/// Datasets `0..SEEDED` start in the object store / export; the rest are
/// cold and must be ingested.
const SEEDED: u64 = 6;
const DATASETS: u64 = 9;
const NFS_MBPS: f64 = 400.0;

const COUNTERS: [&str; 6] = [
    keys::BYTES_LOCAL,
    keys::BYTES_PEER,
    keys::BYTES_OBJECT,
    keys::BYTES_REMOTE,
    keys::BYTES_NFS,
    keys::BYTES_INGEST,
];

fn dataset(idx: u64) -> InputSpec {
    InputSpec {
        cid: ContentId::of_str(&format!("equivalence-{idx}")),
        size: DataSize::from_mb(50 + 40 * idx),
    }
}

/// The comparable content of a plan: every step, then the total.
fn steps(plan: &StagingPlan) -> Vec<String> {
    plan.steps
        .iter()
        .map(|s| format!("{} {:?} {:?} {:?}", s.cid, s.size, s.source, s.duration))
        .chain([format!("total {:?}", plan.total)])
        .collect()
}

fn check(backend: SharingBackend, cache: DataSize, seed: u64) {
    let mut config = SiteConfig::new("solo", WORKERS, InstanceType::M1Small)
        .with_backend(backend)
        .with_cache_capacity(cache);
    config.nfs_bandwidth_mbps = NFS_MBPS;
    let mut fed = Federation::provision(vec![config], WanTopology::new(), SimTime::ZERO);

    let metrics = Metrics::new();
    let mut plane = DataPlane::new(
        backend,
        NFS_MBPS,
        ObjectStoreConfig::default(),
        cache,
        EvictionPolicy::Lru,
    );
    plane.set_metrics(metrics.clone());

    for idx in 0..SEEDED {
        let d = dataset(idx);
        fed.seed_dataset(0, d.cid, d.size);
        plane.seed_dataset(d.cid, d.size);
    }

    let mut rng = RngStream::derive(seed, "federation/single-site-equivalence");
    let mut now = SimTime::ZERO;
    for n in 0..REQUESTS {
        now += SimDuration::from_secs(rng.uniform_int(1, 60));
        let worker = format!("solo/worker-{}", rng.uniform_int(0, WORKERS as u64 - 1));
        let inputs: Vec<InputSpec> = (0..rng.uniform_int(1, 2))
            .map(|_| dataset(rng.uniform_int(0, DATASETS - 1)))
            .collect();
        let concurrent = rng.uniform_int(1, 4) as u32;

        let federated = fed.stage_job(0, &worker, &inputs, concurrent, now);
        let bare = plane.stage_job(&worker, &inputs, concurrent);
        assert_eq!(
            steps(&federated),
            steps(&bare),
            "{backend:?}, request {n}: plans diverge"
        );
    }

    let site = fed.site(0);
    for key in COUNTERS {
        assert_eq!(
            site.metrics.counter(key),
            metrics.counter(key),
            "{backend:?}: counter {key}"
        );
    }
    assert_eq!(site.plane.object.cost_usd(), plane.object.cost_usd());
    assert_eq!(site.plane.fleet.totals(), plane.fleet.totals());
    assert_eq!(fed.wan_metrics().counter(wan_keys::CROSSINGS), 0);
    assert_eq!(fed.egress_cost_usd(now), 0.0);
}

#[test]
fn one_site_federation_stages_like_the_bare_data_plane() {
    for seed in 0..8 {
        check(SharingBackend::Nfs, DataSize::ZERO, seed);
        check(SharingBackend::ObjectStore, DataSize::ZERO, seed);
        check(
            SharingBackend::CachedObjectStore,
            DataSize::from_mb(250),
            seed,
        );
        check(
            SharingBackend::CachedObjectStore,
            DataSize::from_gb(2),
            seed,
        );
    }
}
