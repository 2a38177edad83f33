//! The federated control plane.
//!
//! A [`Federation`] owns the sites, the WAN topology, the replica
//! directory, and the egress ledger. Staging runs each site's own
//! [`DataPlane`](cumulus_store::DataPlane) climb with one extra source:
//! when the site's own rungs (cache, peer, object store) miss, and
//! before the terminal NFS/GridFTP rung, the plane consults the
//! directory and pulls the content from the lowest-indexed remote site
//! that holds it. The pull pays the source site's GET, the WAN crossing
//! (tuned TCP capped by the source bucket's bandwidth), and the egress
//! tariff. The climb then lands the object in the destination bucket (a
//! billed PUT) and cache, and the plane registers the new replica, so
//! the next consumer stays local.
//!
//! With one site the remote source never resolves (the directory holds
//! no *other* site), so a 1-site federation stages exactly as the bare
//! data plane does; the equivalence suite holds it byte-identical to
//! the E13 grid.

use std::collections::{BTreeMap, BTreeSet};

use cumulus_cloud::BillingLedger;
use cumulus_galaxy::routing::{InvocationRequest, InvocationRouter, SiteSnapshot};
use cumulus_simkit::metrics::Metrics;
use cumulus_simkit::telemetry::{wan as wan_keys, Key, Payload, Telemetry};
use cumulus_simkit::time::{SimDuration, SimTime};
use cumulus_store::staging::{StagingPlan, StagingSource};
use cumulus_store::{ContentId, DataSize, InputSpec};

use crate::site::{Site, SiteConfig};
use crate::wan::{WanLink, WanTopology};

/// The WAN plane's counter and event keys, interned once.
#[derive(Debug, Clone, Copy)]
struct WanKeys {
    bytes_egress: Key,
    bytes_ingress: Key,
    crossings: Key,
    crossing_done: Key,
    replicated: Key,
}

impl WanKeys {
    fn intern() -> Self {
        WanKeys {
            bytes_egress: Key::intern(wan_keys::BYTES_EGRESS),
            bytes_ingress: Key::intern(wan_keys::BYTES_INGRESS),
            crossings: Key::intern(wan_keys::CROSSINGS),
            crossing_done: Key::intern(wan_keys::CROSSING_DONE),
            replicated: Key::intern(wan_keys::REPLICATED),
        }
    }
}

/// Every ordered site pair's WAN link, resolved from the topology once
/// when the federation is provisioned.
#[derive(Debug)]
struct LinkTable {
    /// Number of sites.
    n: usize,
    /// The link from site `src` to site `dst` at `src * n + dst`; `None`
    /// on the diagonal and for pairs the topology leaves unconnected.
    links: Vec<Option<WanLink>>,
}

impl LinkTable {
    fn resolve(wan: &WanTopology, sites: &[Site]) -> LinkTable {
        let links = sites
            .iter()
            .flat_map(|src| {
                sites
                    .iter()
                    .map(move |dst| wan.between(&src.config.name, &dst.config.name))
            })
            .collect();
        LinkTable {
            n: sites.len(),
            links,
        }
    }

    /// The link from site `src` to site `dst`. Panics when the topology
    /// connects no such pair; the names are for that message.
    fn get(&self, src: usize, dst: usize, src_name: &str, dst_name: &str) -> WanLink {
        self.links[src * self.n + dst]
            .unwrap_or_else(|| panic!("no WAN link between {src_name} and {dst_name}"))
    }
}

/// A set of sites joined by a WAN, with deterministic replica placement
/// and site-aware invocation routing.
#[derive(Debug)]
pub struct Federation {
    sites: Vec<Site>,
    links: LinkTable,
    /// Which sites hold each content id (object-store residency).
    directory: BTreeMap<ContentId, BTreeSet<usize>>,
    /// Cross-site byte/crossing counters (`wan.*` keys).
    wan_metrics: Metrics,
    telemetry: Telemetry,
    /// Egress charges only — instance usage bills on each site's ledger.
    egress_ledger: BillingLedger,
    keys: WanKeys,
}

impl Federation {
    /// Provision every site at `now` and join them over `wan`.
    pub fn provision(configs: Vec<SiteConfig>, wan: WanTopology, now: SimTime) -> Federation {
        assert!(!configs.is_empty(), "a federation needs at least one site");
        let mut names = BTreeSet::new();
        for c in &configs {
            assert!(names.insert(c.name.clone()), "duplicate site {}", c.name);
        }
        let sites: Vec<Site> = configs
            .into_iter()
            .map(|c| Site::provision(c, now))
            .collect();
        Federation {
            links: LinkTable::resolve(&wan, &sites),
            sites,
            directory: BTreeMap::new(),
            wan_metrics: Metrics::new(),
            telemetry: Telemetry::disabled(),
            egress_ledger: BillingLedger::new(),
            keys: WanKeys::intern(),
        }
    }

    /// Route WAN events to `telemetry` and every site's pool lifecycle
    /// spans to the same handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for site in &mut self.sites {
            site.pool.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// The sites, in index order.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Mutable access to one site.
    pub fn site_mut(&mut self, idx: usize) -> &mut Site {
        &mut self.sites[idx]
    }

    /// One site, by index.
    pub fn site(&self, idx: usize) -> &Site {
        &self.sites[idx]
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The WAN-plane metrics registry (`wan.*` counters and samples).
    pub fn wan_metrics(&self) -> &Metrics {
        &self.wan_metrics
    }

    /// The replica directory entry for `cid`, if any site holds it.
    pub fn holders(&self, cid: ContentId) -> Option<&BTreeSet<usize>> {
        self.directory.get(&cid)
    }

    /// Egress dollars metered up to `as_of`.
    pub fn egress_cost_usd(&self, as_of: SimTime) -> f64 {
        self.egress_ledger.egress_cost(as_of)
    }

    /// The egress ledger (for invoices).
    pub fn egress_ledger(&self) -> &BillingLedger {
        &self.egress_ledger
    }

    /// Seed `cid` at site `idx` before the episode starts: free residency
    /// in the site's bucket + NFS scratch tree, registered in the replica
    /// directory.
    pub fn seed_dataset(&mut self, idx: usize, cid: ContentId, size: DataSize) {
        self.sites[idx].plane.seed_dataset(cid, size);
        self.directory.entry(cid).or_default().insert(idx);
    }

    /// Build the router's view of every site for `request`, in site
    /// order: queue depths, prices, resident input bytes, and the WAN
    /// dollars it would take to pull the missing inputs to each site.
    pub fn snapshots(&self, request: &InvocationRequest) -> Vec<SiteSnapshot> {
        let mut snaps: Vec<SiteSnapshot> = self
            .sites
            .iter()
            .map(|site| SiteSnapshot {
                name: site.config.name.clone(),
                queue_depth: site.queue_depth(),
                usd_per_worker_hour: site.config.usd_per_worker_hour(),
                resident_input_bytes: 0,
                wan_pull_usd: 0.0,
            })
            .collect();
        for input in &request.inputs {
            // Held nowhere: ingests over GridFTP at the same price from
            // any site — no gravity either way.
            let Some(holders) = self.directory.get(&input.cid) else {
                continue;
            };
            // Priced against the same deterministic source the staging
            // rung would pick: the lowest holder index other than the
            // destination, which is the lowest holder for a site that
            // holds none.
            let src = *holders.first().expect("nonempty holder set");
            let bytes = input.size.as_bytes();
            for (dst, snap) in snaps.iter_mut().enumerate() {
                if holders.contains(&dst) {
                    snap.resident_input_bytes += bytes;
                } else {
                    let link = self
                        .links
                        .get(src, dst, &self.sites[src].config.name, &snap.name);
                    snap.wan_pull_usd += link.egress_cost(bytes);
                }
            }
        }
        snaps
    }

    /// Route one invocation: snapshot the sites, ask the router, return
    /// the chosen site index.
    pub fn route(&self, router: &mut dyn InvocationRouter, request: &InvocationRequest) -> usize {
        let snaps = self.snapshots(request);
        let pick = router.route(request, &snaps);
        assert!(pick < self.sites.len(), "router returned site {pick}");
        pick
    }

    /// Resolve staging for one job matched to `worker` at site `dst`:
    /// the site's own climb, with the cross-site pull as its extra source
    /// just before the terminal rung. `now` timestamps the egress charges
    /// and WAN events of any crossing this plan causes.
    pub fn stage_job(
        &mut self,
        dst: usize,
        worker: &str,
        inputs: &[InputSpec],
        nfs_concurrent: u32,
        now: SimTime,
    ) -> StagingPlan {
        let (head, rest) = self.sites.split_at_mut(dst);
        let (site, tail) = rest.split_first_mut().expect("destination site exists");
        let mut remote = Remote {
            head,
            tail,
            dst_name: &site.config.name,
            links: &self.links,
            directory: &self.directory,
            wan_metrics: &self.wan_metrics,
            telemetry: &self.telemetry,
            egress_ledger: &mut self.egress_ledger,
            keys: self.keys,
            now,
        };
        let plan = site
            .plane
            .stage_job_with(worker, inputs, nfs_concurrent, |input| {
                remote.try_remote(input)
            });
        for step in &plan.steps {
            if matches!(
                step.source,
                StagingSource::Ingest | StagingSource::RemoteSite(_)
            ) {
                // The bytes landed in the site bucket: register the
                // replica so other sites pull it over the WAN instead of
                // repeating the origin transfer.
                self.directory.entry(step.cid).or_default().insert(dst);
            }
        }
        plan
    }

    /// Makespan end: the latest completion across every site's pool.
    pub fn last_completion_at(&self) -> Option<SimTime> {
        self.sites
            .iter()
            .filter_map(|s| s.pool.last_completion_at())
            .max()
    }

    /// Total compute dollars across sites as of `as_of` (instance usage
    /// + object-store requests), excluding egress.
    pub fn compute_cost_usd(&self, as_of: SimTime) -> f64 {
        self.sites.iter().map(|s| s.compute_cost_usd(as_of)).sum()
    }

    /// Close every site's open billing segments at `at`.
    pub fn close_billing(&mut self, at: SimTime) {
        for site in &mut self.sites {
            site.close_billing(at);
        }
    }
}

/// The cross-site source of one destination site's climb: the other
/// sites, split around the destination so its data plane stays borrowed
/// by the climb, plus the WAN state and meters.
struct Remote<'a> {
    /// Sites `0..dst`.
    head: &'a mut [Site],
    /// Sites `dst + 1..`.
    tail: &'a mut [Site],
    dst_name: &'a str,
    links: &'a LinkTable,
    directory: &'a BTreeMap<ContentId, BTreeSet<usize>>,
    wan_metrics: &'a Metrics,
    telemetry: &'a Telemetry,
    egress_ledger: &'a mut BillingLedger,
    keys: WanKeys,
    now: SimTime,
}

impl Remote<'_> {
    /// Pull `input` from the lowest-indexed other site holding it, if
    /// any. Pays the source GET, the WAN crossing, and the egress
    /// tariff; the climb then lands the bytes at the destination.
    fn try_remote(&mut self, input: InputSpec) -> Option<(StagingSource, SimDuration)> {
        let dst = self.head.len();
        let src = *self
            .directory
            .get(&input.cid)?
            .iter()
            .find(|&&s| s != dst)?;
        let source = if src < dst {
            &mut self.head[src]
        } else {
            &mut self.tail[src - dst - 1]
        };
        let src_name = &source.config.name;
        let dst_name = self.dst_name;
        let link = self.links.get(src, dst, src_name, dst_name);

        // The source bucket serves (and bills) the GET; the crossing
        // itself runs at the WAN rate capped by that bucket's ceiling.
        let source_store = &mut source.plane.object;
        source_store.get(input.cid)?;
        let cap_mbps = source_store.config.bandwidth_mbps;
        let request_latency = source_store.config.request_latency;
        let duration = request_latency + link.crossing_duration(input.size, cap_mbps);

        let bytes = input.size.as_bytes();
        self.egress_ledger.charge_egress(
            self.now,
            bytes,
            link.egress_usd_per_gb,
            src_name,
            dst_name,
        );
        self.wan_metrics.incr(self.keys.bytes_egress, bytes);
        self.wan_metrics.incr(self.keys.bytes_ingress, bytes);
        self.wan_metrics.incr(self.keys.crossings, 1);
        for key in [self.keys.crossing_done, self.keys.replicated] {
            self.telemetry
                .record(self.now, wan_keys::CATEGORY, key, Payload::Bytes(bytes));
        }
        Some((StagingSource::RemoteSite(src_name.clone()), duration))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{PlacementPolicy, Placer};
    use crate::wan::WanLink;
    use cumulus_cloud::InstanceType;
    use cumulus_simkit::telemetry::wan as wkeys;

    fn fed(n: usize, wan_mbps: f64) -> Federation {
        let regions = ["us-east", "us-west", "eu-west"];
        let configs = (0..n)
            .map(|i| SiteConfig::new(regions[i], 2, InstanceType::M1Small))
            .collect();
        Federation::provision(
            configs,
            WanTopology::full_mesh(WanLink::new(40.0, wan_mbps)),
            SimTime::ZERO,
        )
    }

    fn input(n: u64, mb: u64) -> InputSpec {
        InputSpec {
            cid: ContentId(n),
            size: DataSize::from_mb(mb),
        }
    }

    #[test]
    fn remote_rung_pulls_replicates_and_meters() {
        let mut f = fed(2, 200.0);
        f.seed_dataset(0, ContentId(1), DataSize::from_mb(200));

        // Site 1 misses everywhere local, pulls from site 0 over the WAN.
        let plan = f.stage_job(1, "us-west/worker-0", &[input(1, 200)], 1, SimTime::ZERO);
        assert_eq!(
            plan.steps[0].source,
            StagingSource::RemoteSite("us-east".to_string())
        );
        // Metered: one crossing, 200 MB both directions, $0.004 egress.
        let m = f.wan_metrics();
        assert_eq!(m.counter(wkeys::CROSSINGS), 1);
        assert_eq!(m.counter(wkeys::BYTES_EGRESS), 200_000_000);
        assert_eq!(m.counter(wkeys::BYTES_INGRESS), 200_000_000);
        let egress = f.egress_cost_usd(SimTime::ZERO);
        assert!((egress - 0.2 * 0.02).abs() < 1e-12, "{egress}");
        // Replicated: both sites now hold it; a second consumer at site 1
        // stays local (cache or bucket), no new crossing.
        assert_eq!(f.holders(ContentId(1)).unwrap().len(), 2);
        let again = f.stage_job(1, "us-west/worker-1", &[input(1, 200)], 1, SimTime::ZERO);
        assert_ne!(
            again.steps[0].source,
            StagingSource::RemoteSite("us-east".to_string())
        );
        assert_eq!(f.wan_metrics().counter(wkeys::CROSSINGS), 1);
        // The destination's store.bytes.remote counter attributed it.
        assert_eq!(f.site(1).metrics.counter("store.bytes.remote"), 200_000_000);
    }

    #[test]
    fn single_site_federation_never_crosses() {
        let mut f = fed(1, 200.0);
        f.seed_dataset(0, ContentId(1), DataSize::from_mb(100));
        let plan = f.stage_job(0, "us-east/worker-0", &[input(1, 100)], 1, SimTime::ZERO);
        assert_eq!(plan.steps[0].source, StagingSource::ObjectStore);
        assert_eq!(f.wan_metrics().counter(wkeys::CROSSINGS), 0);
        assert_eq!(f.egress_cost_usd(SimTime::ZERO), 0.0);
        // Unseeded content falls through to GridFTP ingest, as the
        // single-region ladder does, and registers the replica.
        let cold = f.stage_job(0, "us-east/worker-0", &[input(9, 100)], 1, SimTime::ZERO);
        assert_eq!(cold.steps[0].source, StagingSource::Ingest);
        assert!(f.holders(ContentId(9)).unwrap().contains(&0));
    }

    #[test]
    fn slower_wan_makes_slower_crossings() {
        let mut fast = fed(2, 200.0);
        fast.seed_dataset(0, ContentId(1), DataSize::from_mb(200));
        let fast_plan = fast.stage_job(1, "us-west/worker-0", &[input(1, 200)], 1, SimTime::ZERO);

        let mut slow = fed(2, 50.0);
        slow.seed_dataset(0, ContentId(1), DataSize::from_mb(200));
        let slow_plan = slow.stage_job(1, "us-west/worker-0", &[input(1, 200)], 1, SimTime::ZERO);
        assert!(fast_plan.total < slow_plan.total);

        // The crossing pays the source bucket's first-byte latency on
        // top of the link time — it is never a bare link transfer.
        let link_only = WanLink::new(40.0, 200.0).crossing_duration(
            DataSize::from_mb(200),
            fast.site(0).plane.object.config.bandwidth_mbps,
        );
        assert!(fast_plan.total > link_only);
    }

    /// Three sites on a 40 ms / 200 Mbit/s mesh, with `us-east`–`eu-west`
    /// overridden by a slower, dearer link.
    fn fed_with_override(over: WanLink) -> Federation {
        let mut wan = WanTopology::full_mesh(WanLink::new(40.0, 200.0));
        wan.connect("eu-west", "us-east", over);
        let configs = ["us-east", "us-west", "eu-west"]
            .iter()
            .map(|name| SiteConfig::new(name, 2, InstanceType::M1Small))
            .collect();
        Federation::provision(configs, wan, SimTime::ZERO)
    }

    fn request(inputs: Vec<InputSpec>) -> InvocationRequest {
        InvocationRequest {
            id: 1,
            user: "alice".to_string(),
            workflow: "align".to_string(),
            inputs,
        }
    }

    #[test]
    fn a_pair_override_prices_and_times_its_own_crossings() {
        let mesh = WanLink::new(40.0, 200.0);
        let over = WanLink::new(120.0, 50.0).with_egress_rate(0.09);
        let mut f = fed_with_override(over);
        f.seed_dataset(0, ContentId(1), DataSize::from_mb(500));
        let bytes = 500_000_000;

        let snaps = f.snapshots(&request(vec![input(1, 500)]));
        assert_eq!(snaps[0].wan_pull_usd, 0.0);
        assert_eq!(snaps[1].wan_pull_usd, mesh.egress_cost(bytes));
        assert_eq!(snaps[2].wan_pull_usd, over.egress_cost(bytes));
        assert_ne!(snaps[1].wan_pull_usd, snaps[2].wan_pull_usd);

        let source = &f.site(0).plane.object.config;
        let crossing = |link: WanLink| {
            source.request_latency
                + link.crossing_duration(DataSize::from_mb(500), source.bandwidth_mbps)
        };
        let (mesh_time, over_time) = (crossing(mesh), crossing(over));
        assert_ne!(mesh_time, over_time);
        let plan = f.stage_job(2, "eu-west/worker-0", &[input(1, 500)], 1, SimTime::ZERO);
        let step = &plan.steps[0];
        assert_eq!(step.source, StagingSource::RemoteSite("us-east".into()));
        assert_eq!(step.duration, over_time);
        assert_eq!(f.egress_cost_usd(SimTime::ZERO), over.egress_cost(bytes));
        // The other direction of the same pair uses the override too; an
        // unlisted pair uses the mesh.
        f.seed_dataset(2, ContentId(2), DataSize::from_mb(500));
        let back = f.stage_job(0, "us-east/worker-0", &[input(2, 500)], 1, SimTime::ZERO);
        assert_eq!(
            back.steps[0].source,
            StagingSource::RemoteSite("eu-west".into())
        );
        let west = f.stage_job(1, "us-west/worker-0", &[input(1, 500)], 1, SimTime::ZERO);
        assert_eq!(
            west.steps[0].source,
            StagingSource::RemoteSite("us-east".into())
        );
        assert_eq!(west.steps[0].duration, mesh_time);
        let egress = f.egress_cost_usd(SimTime::ZERO);
        let want = over.egress_cost(bytes) + over.egress_cost(bytes) + mesh.egress_cost(bytes);
        assert!((egress - want).abs() < 1e-12, "{egress} vs {want}");
    }

    /// `us-east`–`us-west` connected, `eu-west` connected to nothing, and
    /// no mesh default.
    fn fed_with_a_gap() -> Federation {
        let mut wan = WanTopology::new();
        wan.connect("us-east", "us-west", WanLink::new(40.0, 200.0));
        let configs = ["us-east", "us-west", "eu-west"]
            .iter()
            .map(|name| SiteConfig::new(name, 2, InstanceType::M1Small))
            .collect();
        let mut f = Federation::provision(configs, wan, SimTime::ZERO);
        f.seed_dataset(0, ContentId(1), DataSize::from_mb(100));
        f
    }

    #[test]
    #[should_panic(expected = "no WAN link between us-east and eu-west")]
    fn pricing_across_an_unconnected_pair_panics() {
        let f = fed_with_a_gap();
        // Sites 0 and 1 price fine; site 2 has no link from the holder.
        f.snapshots(&request(vec![input(1, 100)]));
    }

    #[test]
    #[should_panic(expected = "no WAN link between us-east and eu-west")]
    fn staging_across_an_unconnected_pair_panics() {
        let mut f = fed_with_a_gap();
        let plan = f.stage_job(1, "us-west/worker-0", &[input(1, 100)], 1, SimTime::ZERO);
        assert_eq!(
            plan.steps[0].source,
            StagingSource::RemoteSite("us-east".into())
        );
        f.stage_job(2, "eu-west/worker-0", &[input(1, 100)], 1, SimTime::ZERO);
    }

    #[test]
    fn routing_snapshots_feed_the_placer() {
        let mut f = fed(3, 200.0);
        f.seed_dataset(2, ContentId(5), DataSize::from_mb(500));
        let request = InvocationRequest {
            id: 1,
            user: "alice".to_string(),
            workflow: "align".to_string(),
            inputs: vec![input(5, 500)],
        };
        let snaps = f.snapshots(&request);
        assert_eq!(snaps[2].resident_input_bytes, 500_000_000);
        assert_eq!(snaps[2].wan_pull_usd, 0.0);
        assert!(snaps[0].wan_pull_usd > 0.0);
        // Gravity follows the bytes to site 2; cost-greedy ignores them.
        let mut gravity = Placer::new(PlacementPolicy::DataGravity);
        assert_eq!(f.route(&mut gravity, &request), 2);
        let mut greedy = Placer::new(PlacementPolicy::CostGreedy);
        assert_eq!(f.route(&mut greedy, &request), 0);
    }
}
