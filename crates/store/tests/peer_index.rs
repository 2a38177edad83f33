//! Differential suite for the fleet's holder index.
//!
//! `CacheFleet::peer_with` answers from a per-id list of holders instead
//! of scanning every cache. This suite drives seeded random sequences of
//! inserts (with evictions), staging lookups, scale-in drops and
//! disruptions, and after every step holds `peer_with` to the
//! definition: the first worker in name order, other than `exclude`,
//! whose cache contains the id. The reference scan is built from the
//! fleet's public observers (`workers` and `contains`), so it shares no
//! code with the index.

use cumulus_simkit::disrupt::{Disruptable, DisruptionKind};
use cumulus_simkit::rng::RngStream;
use cumulus_simkit::time::SimTime;
use cumulus_store::{CacheFleet, ContentId, DataSize, EvictionPolicy};

/// Worker names, deliberately not in name order, plus one never used.
const WORKERS: [&str; 6] = ["w-07", "w-02", "w-10", "w-01", "w-05", "w-03"];
const UNKNOWN: &str = "w-99";
/// Distinct ids; with 40 MB caches of 10–30 MB objects, inserts evict
/// often.
const IDS: u64 = 12;

fn reference_peer(fleet: &CacheFleet, cid: ContentId, exclude: &str) -> Option<String> {
    fleet
        .workers()
        .into_iter()
        .find(|w| w != exclude && fleet.contains(w, cid))
}

fn check(fleet: &CacheFleet, step: usize, seed: u64) {
    for n in 0..=IDS {
        let cid = ContentId(n);
        let excludes = WORKERS.iter().copied().chain(["", UNKNOWN]);
        for exclude in excludes {
            assert_eq!(
                fleet.peer_with(cid, exclude),
                reference_peer(fleet, cid, exclude),
                "seed {seed}, step {step}, cid {n}, exclude {exclude:?}"
            );
        }
    }
}

fn run(seed: u64, policy: EvictionPolicy, steps: usize) {
    let mut rng = RngStream::derive(seed, "peer_index");
    let mut fleet = CacheFleet::new(DataSize::from_mb(40), policy);
    for step in 0..steps {
        let worker = *rng.choose(&WORKERS);
        let cid = ContentId(rng.uniform_int(0, IDS - 1));
        match rng.uniform_int(0, 9) {
            0..=4 => {
                // 10–30 MB, and now and then one larger than the cache.
                let mb = if rng.chance(0.05) {
                    50
                } else {
                    10 * rng.uniform_int(1, 3)
                };
                fleet.insert(worker, cid, DataSize::from_mb(mb));
            }
            5 | 6 => {
                fleet.lookup(worker, cid);
            }
            7 => {
                fleet.drop_worker(worker);
            }
            8 => {
                let kind = *rng.choose(&[
                    DisruptionKind::Preemption,
                    DisruptionKind::HardwareFailure,
                    DisruptionKind::Outage,
                ]);
                fleet.disrupt(SimTime::ZERO, &worker.to_string(), kind);
            }
            _ => fleet.ensure_worker(worker),
        }
        check(&fleet, step, seed);
    }
}

#[test]
fn peer_with_matches_the_name_order_scan_under_lru() {
    for seed in 0..12 {
        run(seed, EvictionPolicy::Lru, 400);
    }
}

#[test]
fn peer_with_matches_the_name_order_scan_under_lfu() {
    for seed in 100..112 {
        run(seed, EvictionPolicy::Lfu, 400);
    }
}

#[test]
fn the_only_holder_excluded_finds_no_peer() {
    let fleet = CacheFleet::new(DataSize::from_mb(40), EvictionPolicy::Lru);
    let cid = ContentId(7);
    fleet.insert("w-b", cid, DataSize::from_mb(10));
    assert_eq!(fleet.peer_with(cid, "w-b"), None);
    // The checkpoint re-stage excludes no worker.
    assert_eq!(fleet.peer_with(cid, ""), Some("w-b".to_string()));
    assert_eq!(fleet.peer_with(cid, UNKNOWN), Some("w-b".to_string()));
    // A second, earlier-named holder takes over; excluding it falls back.
    fleet.insert("w-a", cid, DataSize::from_mb(10));
    assert_eq!(fleet.peer_with(cid, ""), Some("w-a".to_string()));
    assert_eq!(fleet.peer_with(cid, "w-a"), Some("w-b".to_string()));
    // Evicting the id from w-a leaves w-b as the only holder again.
    fleet.insert("w-a", ContentId(8), DataSize::from_mb(40));
    assert!(!fleet.contains("w-a", cid));
    assert_eq!(fleet.peer_with(cid, ""), Some("w-b".to_string()));
    assert_eq!(fleet.peer_with(cid, "w-b"), None);
}

#[test]
fn unknown_and_dropped_workers_hold_nothing() {
    let mut fleet = CacheFleet::new(DataSize::from_mb(40), EvictionPolicy::Lru);
    let cid = ContentId(3);
    assert_eq!(fleet.peer_with(cid, UNKNOWN), None);
    assert!(!fleet.lookup(UNKNOWN, cid));
    assert!(!fleet.drop_worker(UNKNOWN));
    fleet.insert("w-a", cid, DataSize::from_mb(10));
    fleet.disrupt(
        SimTime::ZERO,
        &"w-a".to_string(),
        DisruptionKind::Preemption,
    );
    assert_eq!(fleet.peer_with(cid, UNKNOWN), None);
    // A relaunched worker of the same name starts cold and re-holds only
    // what it fetches again.
    fleet.ensure_worker("w-a");
    assert_eq!(fleet.peer_with(cid, ""), None);
    fleet.insert("w-a", cid, DataSize::from_mb(10));
    assert_eq!(fleet.peer_with(cid, ""), Some("w-a".to_string()));
}
