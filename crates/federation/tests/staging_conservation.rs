//! Staging conserves bytes across a 3-site federation.
//!
//! Over a seeded stream of requests — every site as a destination, mixed
//! workers, content seeded at one site, at another, or nowhere, varying
//! NFS concurrency — on each sharing backend:
//!
//! * each site's `store.bytes.*` counter equals the summed bytes of that
//!   site's steps from that source;
//! * `wan.crossings` equals the number of `RemoteSite` steps, and
//!   `wan.bytes.egress` equals their bytes;
//! * each plan's `total` equals the sum of its step durations.

use cumulus_cloud::InstanceType;
use cumulus_federation::{Federation, SiteConfig, WanLink, WanTopology};
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::telemetry::wan as wan_keys;
use cumulus_simkit::time::{SimDuration, SimTime};
use cumulus_store::staging::keys;
use cumulus_store::{ContentId, DataSize, InputSpec, SharingBackend, StagingSource};

const SITES: [&str; 3] = ["us-east", "us-west", "eu-west"];
const WORKERS: usize = 3;
const REQUESTS: usize = 300;
/// Dataset `i` starts at site `i % 4` when that is a site index; `i % 4
/// == 3` starts nowhere and must be ingested.
const DATASETS: u64 = 12;

fn dataset(idx: u64) -> InputSpec {
    InputSpec {
        cid: ContentId::of_str(&format!("conservation-{idx}")),
        size: DataSize::from_mb(30 + 25 * idx),
    }
}

/// The `store.bytes.*` counter a step's bytes belong to.
fn counter(source: &StagingSource) -> &'static str {
    match source {
        StagingSource::LocalCache => keys::BYTES_LOCAL,
        StagingSource::Peer(_) => keys::BYTES_PEER,
        StagingSource::ObjectStore => keys::BYTES_OBJECT,
        StagingSource::RemoteSite(_) => keys::BYTES_REMOTE,
        StagingSource::Nfs => keys::BYTES_NFS,
        StagingSource::Ingest => keys::BYTES_INGEST,
    }
}

const COUNTERS: [&str; 6] = [
    keys::BYTES_LOCAL,
    keys::BYTES_PEER,
    keys::BYTES_OBJECT,
    keys::BYTES_REMOTE,
    keys::BYTES_NFS,
    keys::BYTES_INGEST,
];

fn check(backend: SharingBackend, cache: DataSize, seed: u64) {
    let configs = SITES
        .iter()
        .map(|name| {
            SiteConfig::new(name, WORKERS, InstanceType::M1Small)
                .with_backend(backend)
                .with_cache_capacity(cache)
        })
        .collect();
    let wan = WanTopology::full_mesh(WanLink::new(40.0, 200.0));
    let mut fed = Federation::provision(configs, wan, SimTime::ZERO);
    for idx in 0..DATASETS {
        let home = (idx % 4) as usize;
        if home < SITES.len() {
            let d = dataset(idx);
            fed.seed_dataset(home, d.cid, d.size);
        }
    }

    // Expected bytes per (site, counter), and the WAN totals.
    let mut expected = [[0u64; COUNTERS.len()]; SITES.len()];
    let (mut crossings, mut remote_bytes) = (0u64, 0u64);

    let mut rng = RngStream::derive(seed, "federation/staging-conservation");
    let mut now = SimTime::ZERO;
    for n in 0..REQUESTS {
        now += SimDuration::from_secs(rng.uniform_int(1, 60));
        let dst = rng.uniform_int(0, SITES.len() as u64 - 1) as usize;
        let worker = format!(
            "{}/worker-{}",
            SITES[dst],
            rng.uniform_int(0, WORKERS as u64 - 1)
        );
        let inputs: Vec<InputSpec> = (0..rng.uniform_int(1, 3))
            .map(|_| dataset(rng.uniform_int(0, DATASETS - 1)))
            .collect();
        let concurrent = rng.uniform_int(1, 6) as u32;

        let plan = fed.stage_job(dst, &worker, &inputs, concurrent, now);
        assert_eq!(plan.steps.len(), inputs.len());
        let mut total = SimDuration::ZERO;
        for step in &plan.steps {
            total += step.duration;
            let slot = COUNTERS
                .iter()
                .position(|&k| k == counter(&step.source))
                .expect("every source has a counter");
            expected[dst][slot] += step.size.as_bytes();
            if matches!(step.source, StagingSource::RemoteSite(_)) {
                crossings += 1;
                remote_bytes += step.size.as_bytes();
            }
        }
        assert_eq!(plan.total, total, "{backend:?}, request {n}: total");
    }

    for (i, site) in fed.sites().iter().enumerate() {
        for (slot, key) in COUNTERS.iter().enumerate() {
            assert_eq!(
                site.metrics.counter(key),
                expected[i][slot],
                "{backend:?}, seed {seed}: site {} counter {key}",
                SITES[i]
            );
        }
    }
    let wan = fed.wan_metrics();
    assert_eq!(wan.counter(wan_keys::CROSSINGS), crossings, "{backend:?}");
    assert_eq!(
        wan.counter(wan_keys::BYTES_EGRESS),
        remote_bytes,
        "{backend:?}"
    );
    assert!(
        crossings > 0,
        "{backend:?}, seed {seed}: the stream never crossed"
    );
}

#[test]
fn staged_bytes_are_conserved_across_sites() {
    for seed in 0..6 {
        check(SharingBackend::Nfs, DataSize::ZERO, seed);
        check(SharingBackend::ObjectStore, DataSize::ZERO, seed);
        check(
            SharingBackend::CachedObjectStore,
            DataSize::from_mb(400),
            seed,
        );
        check(
            SharingBackend::CachedObjectStore,
            DataSize::from_gb(2),
            seed,
        );
    }
}
