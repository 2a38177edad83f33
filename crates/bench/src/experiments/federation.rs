//! E15 — federated site selection over a WAN.
//!
//! The paper deploys Galaxy into one EC2 region; this experiment asks
//! what changes when the deployment is *plural*: a federation of sites
//! (each a complete provisioned pool + NFS export + object store at its
//! region's instance prices) joined by a deterministic WAN priced at the
//! 2012 inter-region egress tariff. The grid sweeps **placement policy**
//! (round-robin / cost-greedy / queue-depth / data-gravity) × **WAN
//! bandwidth** × **site count** × **data scenario** (every dataset
//! concentrated on the most expensive site vs spread one-per-site) over
//! one fixed multi-user invocation stream.
//!
//! Every cell is a fixed-tick multi-site Condor episode (the shared
//! `episode` loop): invocations arrive on a seeded clock, a [`Placer`]
//! routes each to a site *before* it hits that site's pool, per-site
//! negotiation runs on the standard 20 s cycle, staging climbs the site
//! ladder with the cross-site WAN rung spliced in (replicating on first
//! pull), and per-site `QueueStep` autoscalers resize the pools
//! underneath — billing worker tenures per second and WAN bytes per GB. Cells fan out over the replica runner
//! and the report is byte-identical at any thread count.
//!
//! Expected shape, and the claim lines assert it: when inputs are
//! **concentrated**, data-gravity follows the bytes (no crossings, no
//! egress) and beats cost-greedy on makespan at ≥ 50 % lower egress
//! spend; when inputs are **spread** everywhere, gravity scatters work
//! onto expensive sites and cost-greedy wins on total dollars. E13 runs
//! its single-region cells on a 1-site federation through the same
//! episode loop; the federation crate's equivalence test holds that
//! 1-site staging equal to the bare data plane's.

use cumulus::autoscale::policy::QueueStep;
use cumulus::cloud::InstanceType;
use cumulus::federation::{
    Federation, PlacementPolicy, Placer, SiteConfig, SiteScaler, WanLink, WanTopology,
};
use cumulus::galaxy::routing::InvocationRequest;
use cumulus::htc::WorkSpec;
use cumulus::provision::json::Json;
use cumulus::simkit::rng::RngStream;
use cumulus::simkit::runner::{run_replicas, ReplicaPlan};
use cumulus::simkit::telemetry::wan as wan_keys;
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::store::staging::keys as staging_keys;
use cumulus::store::{ContentId, DataSize, InputSpec};

use crate::experiments::episode::{self, Arrival};
use crate::table::{mins, Table};

/// Users submitting workflow invocations.
const USERS: usize = 4;
/// Invocations per user.
const INVOCATIONS_PER_USER: usize = 8;
/// Datasets each user alternates between (reuse factor 4 per dataset).
const DATASETS_PER_USER: usize = 2;
/// Every dataset is this big.
const DATASET_MB: u64 = 200;
/// Workers each site provisions at episode start.
const SITE_WORKERS: usize = 3;
/// Autoscale floor per site (scale-to-zero: an idle site stops billing).
const MIN_WORKERS: usize = 0;
/// Autoscale ceiling per site.
const MAX_WORKERS: usize = 6;
/// One-way WAN latency between any site pair, milliseconds.
const WAN_LATENCY_MS: f64 = 40.0;
/// The concentrated-scenario claim: data-gravity must spend at most this
/// fraction of cost-greedy's egress dollars (≥ 50 % savings).
pub const MAX_EGRESS_FRACTION: f64 = 0.5;

/// The site catalog, cheapest first: region name × instance type. A
/// `sites = n` cell provisions the first `n`.
const CATALOG: [(&str, InstanceType); 3] = [
    ("us-east", InstanceType::M1Small),
    ("us-west", InstanceType::C1Medium),
    ("eu-west", InstanceType::M1Large),
];

/// Where the episode's datasets start out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Every dataset seeded on the *most expensive* site — gravity must
    /// pull work there against the price signal.
    Concentrated,
    /// Dataset `k` seeded on site `k mod n` — every site holds some.
    Spread,
}

impl Scenario {
    /// Render the scenario column.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Concentrated => "concentrated",
            Scenario::Spread => "spread",
        }
    }
}

/// One cell of the E15 grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Site-selection policy.
    pub policy: PlacementPolicy,
    /// WAN bandwidth between every site pair, Mbit/s.
    pub wan_mbps: f64,
    /// Number of federated sites (prefix of the catalog).
    pub sites: usize,
    /// Initial dataset placement.
    pub scenario: Scenario,
}

/// The measured episode of one cell.
#[derive(Debug, Clone)]
pub struct FedCellReport {
    /// Jobs completed (always the full stream).
    pub jobs: usize,
    /// First submission to last completion, minutes.
    pub makespan_mins: f64,
    /// Total staging time charged across all sites, seconds.
    pub staging_secs: f64,
    /// Bytes staged from sources inside their own site.
    pub bytes_intra: u64,
    /// Bytes staged over the WAN from a remote site's object store.
    pub bytes_cross: u64,
    /// WAN crossings (each replicates at the destination).
    pub crossings: u64,
    /// Inter-region egress dollars.
    pub egress_usd: f64,
    /// Worker-tenure + object-store dollars across all sites.
    pub compute_usd: f64,
    /// Invocations routed to each site, in site order.
    pub placements: Vec<usize>,
}

impl FedCellReport {
    /// Egress + compute.
    pub fn total_usd(&self) -> f64 {
        self.egress_usd + self.compute_usd
    }
}

/// One row: configuration plus measurement.
#[derive(Debug, Clone)]
pub struct FederationRow {
    /// The cell's configuration.
    pub spec: CellSpec,
    /// The measured episode.
    pub report: FedCellReport,
}

/// The grid's combos in report order: scenario (concentrated first) ×
/// site count × WAN bandwidth × policy, so the four policies of one
/// configuration sit together. `quick` trims to the CI smoke shape — the
/// claim cells (3 sites, thin WAN, cost-greedy vs data-gravity, both
/// scenarios).
pub fn grid_combos(quick: bool) -> Vec<CellSpec> {
    let scenarios = [Scenario::Concentrated, Scenario::Spread];
    let (site_counts, wans, policies): (&[usize], &[f64], &[PlacementPolicy]) = if quick {
        (
            &[3],
            &[50.0],
            &[PlacementPolicy::CostGreedy, PlacementPolicy::DataGravity],
        )
    } else {
        (&[2, 3], &[50.0, 200.0], &PlacementPolicy::all())
    };
    let mut combos = Vec::new();
    for &scenario in &scenarios {
        for &sites in site_counts {
            for &wan_mbps in wans {
                for &policy in policies {
                    combos.push(CellSpec {
                        policy,
                        wan_mbps,
                        sites,
                        scenario,
                    });
                }
            }
        }
    }
    combos
}

/// The content id of dataset `idx` — stable across cells, so every cell
/// stages the same contents.
fn dataset_cid(idx: usize) -> ContentId {
    ContentId::of_str(&format!("e15-dataset-{idx}"))
}

/// The invocation stream every cell replays: users round-robin on a
/// seeded arrival clock (5–20 s gaps — brisk enough that a single site
/// saturates its worker cap, so staging delays land on the critical path
/// instead of being absorbed by scale-out), 90–150 s of serial work,
/// each user alternating between their two datasets. Derived from the
/// master seed directly — **not** the per-replica seed — so all cells
/// compare the same workload.
fn invocation_stream(seed: u64) -> Vec<Arrival> {
    let mut arrivals = RngStream::derive(seed, "e15-arrivals");
    let mut work = RngStream::derive(seed, "e15-work");
    let mut at = SimTime::ZERO;
    (0..USERS * INVOCATIONS_PER_USER)
        .map(|j| {
            at += SimDuration::from_secs_f64(arrivals.uniform_range(5.0, 20.0));
            let user = j % USERS;
            Arrival {
                at,
                user: format!("user-{user}"),
                work: WorkSpec::serial(90.0 + work.uniform_range(0.0, 60.0)),
                input: InputSpec {
                    cid: dataset_cid(user * DATASETS_PER_USER + (j / USERS) % DATASETS_PER_USER),
                    size: DataSize::from_mb(DATASET_MB),
                },
            }
        })
        .collect()
}

/// The E15 episode hooks: a placer routes each invocation to a site, and
/// per-site `QueueStep` scalers resize the pools every tick.
struct Elastic {
    placer: Placer,
    scalers: Vec<SiteScaler>,
    placements: Vec<usize>,
}

impl episode::Hooks for Elastic {
    fn route(&mut self, fed: &Federation, n: usize, arrival: &Arrival) -> usize {
        let request = InvocationRequest {
            id: n as u64,
            user: arrival.user.clone(),
            workflow: "rna-seq".to_string(),
            inputs: vec![arrival.input],
        };
        let site = fed.route(&mut self.placer, &request);
        self.placements[site] += 1;
        site
    }

    /// Resize every site to its scaler's desired count. Pending while any
    /// site resized: the policy reads only the pool, so a tick that moves
    /// no site leaves the next one unmoved too.
    fn tick(&mut self, fed: &mut Federation, now: SimTime) -> bool {
        let mut resized = false;
        for (s, scaler) in self.scalers.iter_mut().enumerate() {
            let site = fed.site_mut(s);
            let workers = site.worker_count();
            let desired = scaler.desired(now, &site.pool, workers);
            while site.worker_count() < desired {
                site.add_worker(now);
            }
            while site.worker_count() > desired {
                if !site.remove_idle_worker(now) {
                    break;
                }
            }
            resized |= site.worker_count() != workers;
        }
        resized
    }
}

/// Run one grid cell: provision the federation, seed the scenario's
/// dataset placement, and drive the fixed-tick multi-site episode.
pub fn run_cell(seed: u64, spec: CellSpec) -> FedCellReport {
    let stream = invocation_stream(seed);
    let size = DataSize::from_mb(DATASET_MB);

    let configs: Vec<SiteConfig> = CATALOG[..spec.sites]
        .iter()
        .map(|&(name, itype)| SiteConfig::new(name, SITE_WORKERS, itype))
        .collect();
    let wan = WanTopology::full_mesh(WanLink::new(WAN_LATENCY_MS, spec.wan_mbps));
    let mut fed = Federation::provision(configs, wan, SimTime::ZERO);

    let datasets = USERS * DATASETS_PER_USER;
    for idx in 0..datasets {
        let at = match spec.scenario {
            // The catalog is priced ascending, so the last site is the
            // most expensive — gravity must fight the price signal.
            Scenario::Concentrated => spec.sites - 1,
            Scenario::Spread => idx % spec.sites,
        };
        fed.seed_dataset(at, dataset_cid(idx), size);
    }

    let mut hooks = Elastic {
        placer: Placer::new(spec.policy),
        scalers: (0..spec.sites)
            .map(|_| SiteScaler::new(Box::new(QueueStep::new(2)), 3, MIN_WORKERS, MAX_WORKERS))
            .collect(),
        placements: vec![0; spec.sites],
    };
    let staging = episode::run(&mut fed, &stream, &mut hooks)
        .unwrap_or_else(|stuck| panic!("E15 cell {spec:?}: {stuck}"));

    let end = fed.last_completion_at().expect("episode completed jobs");
    fed.close_billing(end);

    let mut bytes_intra = 0u64;
    for s in 0..spec.sites {
        let m = &fed.site(s).metrics;
        bytes_intra += m.counter(staging_keys::BYTES_LOCAL)
            + m.counter(staging_keys::BYTES_PEER)
            + m.counter(staging_keys::BYTES_OBJECT)
            + m.counter(staging_keys::BYTES_NFS)
            + m.counter(staging_keys::BYTES_INGEST);
    }
    FedCellReport {
        jobs: stream.len(),
        makespan_mins: end.since(SimTime::ZERO).as_mins_f64(),
        staging_secs: staging.as_secs_f64(),
        bytes_intra,
        bytes_cross: fed.wan_metrics().counter(wan_keys::BYTES_EGRESS),
        crossings: fed.wan_metrics().counter(wan_keys::CROSSINGS),
        egress_usd: fed.egress_cost_usd(end),
        compute_usd: fed.compute_cost_usd(end),
        placements: hooks.placements,
    }
}

/// Run the grid, fanned out over the replica runner (`threads` as
/// everywhere: `0` = one per CPU, `1` = serial). Rows come back in combo
/// order at any thread count.
pub fn run_grid(seed: u64, threads: usize, quick: bool) -> Vec<FederationRow> {
    let combos = grid_combos(quick);
    let reports = run_replicas(
        ReplicaPlan::new(seed, combos.len()).with_threads(threads),
        |i, _seeds| run_cell(seed, combos[i]),
    );
    combos
        .into_iter()
        .zip(reports)
        .map(|(spec, report)| FederationRow { spec, report })
        .collect()
}

/// The grid cell matching `policy` on the claim configuration (3 sites,
/// thin WAN) under `scenario`.
fn claim_cell(
    rows: &[FederationRow],
    policy: PlacementPolicy,
    scenario: Scenario,
) -> &FederationRow {
    rows.iter()
        .find(|r| {
            r.spec.policy == policy
                && r.spec.scenario == scenario
                && r.spec.sites == 3
                && r.spec.wan_mbps == 50.0
        })
        .expect("the grid contains the claim cells")
}

/// Concentrated-scenario claim inputs: (gravity, cost-greedy) rows.
pub fn concentrated_pair(rows: &[FederationRow]) -> (&FederationRow, &FederationRow) {
    (
        claim_cell(rows, PlacementPolicy::DataGravity, Scenario::Concentrated),
        claim_cell(rows, PlacementPolicy::CostGreedy, Scenario::Concentrated),
    )
}

/// Spread-scenario claim inputs: (gravity, cost-greedy) rows.
pub fn spread_pair(rows: &[FederationRow]) -> (&FederationRow, &FederationRow) {
    (
        claim_cell(rows, PlacementPolicy::DataGravity, Scenario::Spread),
        claim_cell(rows, PlacementPolicy::CostGreedy, Scenario::Spread),
    )
}

/// Assert the experiment's two claims, panicking with the offending
/// numbers otherwise. Callable on quick and full grids alike (both
/// contain the claim cells).
pub fn assert_claims(rows: &[FederationRow]) {
    let (gravity, greedy) = concentrated_pair(rows);
    assert!(
        gravity.report.makespan_mins <= greedy.report.makespan_mins,
        "concentrated: data-gravity makespan {:.2} min must not exceed cost-greedy's {:.2} min",
        gravity.report.makespan_mins,
        greedy.report.makespan_mins,
    );
    assert!(
        gravity.report.egress_usd <= MAX_EGRESS_FRACTION * greedy.report.egress_usd,
        "concentrated: data-gravity egress ${:.4} must be at most {:.0}% of cost-greedy's ${:.4}",
        gravity.report.egress_usd,
        MAX_EGRESS_FRACTION * 100.0,
        greedy.report.egress_usd,
    );
    let (gravity, greedy) = spread_pair(rows);
    assert!(
        greedy.report.total_usd() < gravity.report.total_usd(),
        "spread: cost-greedy total ${:.4} must undercut data-gravity's ${:.4}",
        greedy.report.total_usd(),
        gravity.report.total_usd(),
    );
}

/// Render the E15 table plus the claim lines.
pub fn render(rows: &[FederationRow]) -> String {
    let mut t = Table::new(
        "E15 — federated placement (32 invocations, 4 users, 200 MB datasets)",
        &[
            "scenario",
            "sites",
            "wan (Mbit/s)",
            "policy",
            "makespan (min)",
            "staging (s)",
            "cross (MB)",
            "egress ($)",
            "compute ($)",
            "total ($)",
            "placements",
        ],
    );
    for r in rows {
        t.row(&[
            r.spec.scenario.label().to_string(),
            format!("{}", r.spec.sites),
            format!("{:.0}", r.spec.wan_mbps),
            r.spec.policy.label().to_string(),
            mins(r.report.makespan_mins),
            format!("{:.1}", r.report.staging_secs),
            format!("{:.0}", r.report.bytes_cross as f64 / 1e6),
            format!("{:.4}", r.report.egress_usd),
            format!("{:.4}", r.report.compute_usd),
            format!("{:.4}", r.report.total_usd()),
            r.report
                .placements
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join("/"),
        ]);
    }
    let (gravity_c, greedy_c) = concentrated_pair(rows);
    let (gravity_s, greedy_s) = spread_pair(rows);
    format!(
        "{}\nconcentrated inputs: data-gravity follows the bytes to the expensive site — \
         makespan {} vs {} min and egress ${:.4} vs ${:.4} against cost-greedy, which \
         drags every dataset over the thin WAN once before replication localizes it. \
         spread inputs: gravity scatters work onto expensive regions (${:.4} total) while \
         cost-greedy concentrates on the cheap site and pays the tariff (${:.4} total) — \
         the sharing choice inverts with the data layout, as the single-region E13 sweep \
         inverts with reuse.\n",
        t.render(),
        mins(gravity_c.report.makespan_mins),
        mins(greedy_c.report.makespan_mins),
        gravity_c.report.egress_usd,
        greedy_c.report.egress_usd,
        gravity_s.report.total_usd(),
        greedy_s.report.total_usd(),
    )
}

/// The machine-readable grid for `BENCH_e15.json`. Contains only
/// seed-deterministic quantities (never wall times), so the file is
/// byte-identical at any thread count — the property the CI smoke run
/// asserts.
pub fn json_doc(seed: u64, rows: &[FederationRow]) -> Json {
    let cells: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("scenario", Json::str(r.spec.scenario.label())),
                ("sites", Json::Num(r.spec.sites as f64)),
                ("wan_mbps", Json::Num(r.spec.wan_mbps)),
                ("policy", Json::str(r.spec.policy.label())),
                ("jobs", Json::Num(r.report.jobs as f64)),
                ("makespan_mins", Json::Num(round4(r.report.makespan_mins))),
                ("staging_secs", Json::Num(round4(r.report.staging_secs))),
                ("bytes_intra", Json::Num(r.report.bytes_intra as f64)),
                ("bytes_cross", Json::Num(r.report.bytes_cross as f64)),
                ("crossings", Json::Num(r.report.crossings as f64)),
                ("egress_usd", Json::Num(round4(r.report.egress_usd))),
                ("compute_usd", Json::Num(round4(r.report.compute_usd))),
                ("total_usd", Json::Num(round4(r.report.total_usd()))),
                (
                    "placements",
                    Json::Arr(
                        r.report
                            .placements
                            .iter()
                            .map(|&p| Json::Num(p as f64))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let (gravity, greedy) = concentrated_pair(rows);
    Json::obj([
        ("bench", Json::str("e15_federation_grid")),
        ("seed", Json::Num(seed as f64)),
        ("users", Json::Num(USERS as f64)),
        (
            "invocations",
            Json::Num((USERS * INVOCATIONS_PER_USER) as f64),
        ),
        ("dataset_mb", Json::Num(DATASET_MB as f64)),
        ("rows", Json::Arr(cells)),
        (
            "concentrated_egress_ratio",
            Json::Num(if greedy.report.egress_usd > 0.0 {
                round4(gravity.report.egress_usd / greedy.report.egress_usd)
            } else {
                0.0
            }),
        ),
    ])
}

fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        let full = grid_combos(false);
        assert_eq!(full.len(), 32);
        assert_eq!(full[0].scenario, Scenario::Concentrated);
        assert_eq!(full[0].policy, PlacementPolicy::RoundRobin);
        let quick = grid_combos(true);
        assert_eq!(quick.len(), 4);
        assert!(quick.iter().all(|c| c.sites == 3 && c.wan_mbps == 50.0));
    }

    #[test]
    fn quick_grid_is_thread_count_invariant_and_meets_the_claims() {
        let seed = crate::REPORT_SEED;
        let serial = run_grid(seed, 1, true);
        let parallel = run_grid(seed, 3, true);
        assert_eq!(render(&serial), render(&parallel));
        assert_eq!(
            json_doc(seed, &serial).render(),
            json_doc(seed, &parallel).render()
        );
        assert_claims(&serial);
    }

    #[test]
    fn every_cell_completes_the_stream_and_balances_its_bytes() {
        let rows = run_grid(crate::REPORT_SEED, 0, true);
        for r in &rows {
            assert_eq!(r.report.jobs, USERS * INVOCATIONS_PER_USER);
            assert_eq!(
                r.report.placements.iter().sum::<usize>(),
                USERS * INVOCATIONS_PER_USER
            );
            // Cross-site bytes are exactly crossings × dataset size, and
            // egress dollars are exactly cross bytes at the tariff.
            assert_eq!(
                r.report.bytes_cross,
                r.report.crossings * DATASET_MB * 1_000_000
            );
            let expected =
                r.report.bytes_cross as f64 / 1e9 * cumulus::cloud::INTER_REGION_EGRESS_USD_PER_GB;
            assert!((r.report.egress_usd - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn report_renders_with_the_claim_lines() {
        let rows = run_grid(97, 0, true);
        let out = render(&rows);
        assert!(out.contains("E15"));
        assert!(out.contains("concentrated inputs"));
    }
}
