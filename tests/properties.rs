//! Property-style tests over core invariants.
//!
//! The offline build ships no proptest, so these run each property over a
//! deterministic sweep of randomized cases generated from named
//! [`RngStream`]s — same spirit (generate, check an invariant, report the
//! violating case), fully reproducible by construction.

use cumulus::cloud::{BillingLedger, BillingMode, InstanceId, InstanceType};
use cumulus::crdata::stats::fdr::{adjust, Adjustment};
use cumulus::crdata::stats::special::{normal_cdf, t_cdf};
use cumulus::htc::{parse_cid, ClassAd, Expr, Value};
use cumulus::net::{DataSize, Link, TcpConfig};
use cumulus::provision::{IniDoc, Json, Topology};
use cumulus::simkit::prelude::*;
use cumulus::store::{CacheFleet, ContentId, EvictionPolicy, WorkerCache};
use cumulus::transfer::Protocol;

const CASES: u64 = 64;

fn pick_type(rng: &mut RngStream) -> InstanceType {
    let all = InstanceType::ALL;
    all[rng.uniform_int(0, all.len() as u64 - 1) as usize]
}

// ----- DES kernel -------------------------------------------------

#[test]
fn des_executes_events_in_nondecreasing_time_order() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/des-order");
        let n = rng.uniform_int(1, 59) as usize;
        let mut sim = Sim::new(Vec::<u64>::new());
        for _ in 0..n {
            let d = rng.uniform_int(0, 99_999);
            sim.schedule_at(SimTime::from_micros(d), move |sim: &mut Sim<Vec<u64>>| {
                let now = sim.now().as_micros();
                sim.world.push(now);
            });
        }
        sim.run_to_completion();
        for pair in sim.world.windows(2) {
            assert!(pair[0] <= pair[1], "case {case}: time went backwards");
        }
    }
}

#[test]
fn des_cancellation_never_fires() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/des-cancel");
        let n = rng.uniform_int(2, 39) as usize;
        let mut sim = Sim::new(0u32);
        let mut ids = Vec::new();
        for _ in 0..n {
            let d = rng.uniform_int(1, 9_999);
            ids.push(
                sim.schedule_at(SimTime::from_micros(d), |sim: &mut Sim<u32>| {
                    sim.world += 1;
                }),
            );
        }
        let mut cancelled = 0;
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                sim.cancel(*id);
                cancelled += 1;
            }
        }
        sim.run_to_completion();
        assert_eq!(sim.world as usize, n - cancelled, "case {case}");
    }
}

// ----- billing -----------------------------------------------------

#[test]
fn billing_is_monotone_and_additive() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/billing");
        let itype = pick_type(&mut rng);
        let start = rng.uniform_int(0, 9_999);
        let len1 = rng.uniform_int(1, 49_999);
        let gap = rng.uniform_int(1, 49_999);
        let len2 = rng.uniform_int(1, 49_999);

        let mut ledger = BillingLedger::new();
        let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        ledger.open(InstanceId(1), itype, t(start));
        ledger.close(InstanceId(1), t(start + len1));
        ledger.open(InstanceId(1), itype, t(start + len1 + gap));
        ledger.close(InstanceId(1), t(start + len1 + gap + len2));
        let end = t(start + len1 + gap + len2);

        // Monotone in observation time.
        let mut prev = 0.0;
        for s in [
            start,
            start + len1,
            start + len1 + gap,
            start + len1 + gap + len2,
        ] {
            let c = ledger.total_cost(BillingMode::PerSecond, t(s));
            assert!(c >= prev - 1e-12, "case {case}: cost decreased");
            prev = c;
        }
        // Additive: total equals the sum of the two segments; the gap is free.
        let expected = (len1 + len2) as f64 / 3600.0 * itype.price_per_hour();
        let total = ledger.total_cost(BillingMode::PerSecond, end);
        assert!(
            (total - expected).abs() < 1e-9,
            "case {case}: total={total}"
        );
        // Hourly mode never undercuts proportional mode.
        assert!(
            ledger.total_cost(BillingMode::HourlyRoundUp, end) >= total - 1e-12,
            "case {case}"
        );
    }
}

// ----- transfer models ----------------------------------------------

#[test]
fn transfer_rates_are_monotone_in_size() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/transfer-mono");
        let mb_small = rng.uniform_int(1, 99);
        let factor = rng.uniform_int(2, 49);
        let link = cumulus::transfer::calibrated_wan_link();
        for protocol in [Protocol::GLOBUS_DEFAULT, Protocol::Ftp] {
            let small = protocol
                .achieved_rate(DataSize::from_mb(mb_small), &link)
                .unwrap();
            let large = protocol
                .achieved_rate(DataSize::from_mb(mb_small * factor), &link)
                .unwrap();
            assert!(large.as_mbps() >= small.as_mbps(), "case {case}");
            // And never exceeds the steady-state rate.
            assert!(
                large.as_mbps() <= protocol.steady_rate(&link).as_mbps() + 1e-9,
                "case {case}"
            );
        }
    }
}

#[test]
fn tcp_rate_monotone_in_bandwidth_and_streams() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/tcp-mono");
        let bw = rng.uniform_range(1.0, 1000.0);
        let streams = rng.uniform_int(1, 15) as u32;
        let cfg = TcpConfig::default();
        let slow = Link::new(30.0, bw);
        let fast = Link::new(30.0, bw * 2.0);
        assert!(
            cfg.steady_rate(&fast, streams).as_mbps() >= cfg.steady_rate(&slow, streams).as_mbps(),
            "case {case}"
        );
        assert!(
            cfg.steady_rate(&slow, streams + 1).as_mbps()
                >= cfg.steady_rate(&slow, streams).as_mbps(),
            "case {case}"
        );
    }
}

// ----- statistics ----------------------------------------------------

#[test]
fn bh_adjustment_invariants() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/bh");
        let n = rng.uniform_int(1, 79) as usize;
        let ps: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let adj = adjust(&ps, Adjustment::BenjaminiHochberg);
        assert_eq!(adj.len(), ps.len());
        for (raw, a) in ps.iter().zip(&adj) {
            assert!(
                *a >= *raw - 1e-12,
                "case {case}: adjustment reduced a p-value"
            );
            assert!(*a <= 1.0 + 1e-12, "case {case}");
        }
        // Order preservation.
        let mut idx: Vec<usize> = (0..ps.len()).collect();
        idx.sort_by(|&a, &b| ps[a].partial_cmp(&ps[b]).unwrap());
        for pair in idx.windows(2) {
            assert!(adj[pair[0]] <= adj[pair[1]] + 1e-12, "case {case}");
        }
    }
}

#[test]
fn cdfs_are_monotone_and_bounded() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/cdf");
        let z1 = rng.uniform_range(-6.0, 6.0);
        let z2 = rng.uniform_range(-6.0, 6.0);
        let df = rng.uniform_range(1.0, 200.0);
        let (lo, hi) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12, "case {case}");
        assert!(t_cdf(lo, df) <= t_cdf(hi, df) + 1e-12, "case {case}");
        for z in [lo, hi] {
            assert!((0.0..=1.0).contains(&normal_cdf(z)), "case {case}");
            assert!((0.0..=1.0).contains(&t_cdf(z, df)), "case {case}");
        }
        // Symmetry.
        assert!(
            (normal_cdf(lo) + normal_cdf(-lo) - 1.0).abs() < 1e-9,
            "case {case}"
        );
        assert!(
            (t_cdf(lo, df) + t_cdf(-lo, df) - 1.0).abs() < 1e-9,
            "case {case}"
        );
    }
}

// ----- ClassAd expressions ------------------------------------------

#[test]
fn classad_numeric_comparisons_match_rust() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/classad");
        let a = rng.uniform_int(0, 1999) as i64 - 1000;
        let b = rng.uniform_int(0, 1999) as i64 - 1000;
        let target = ClassAd::new()
            .with("A", Value::Int(a))
            .with("B", Value::Int(b));
        let own = ClassAd::new();
        let cases = [
            ("A > B", a > b),
            ("A >= B", a >= b),
            ("A < B", a < b),
            ("A <= B", a <= b),
            ("A == B", a == b),
            ("A != B", a != b),
        ];
        for (src, expected) in cases {
            let e = Expr::parse(src).unwrap();
            assert_eq!(e.eval_bool(&target, &own), expected, "case {case}: {src}");
        }
    }
}

// ----- cache advertisement ------------------------------------------

#[test]
fn cache_advertisement_round_trips_through_the_matchmaker_parser() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/cache-ad");
        let policy = if rng.chance(0.5) {
            EvictionPolicy::Lru
        } else {
            EvictionPolicy::Lfu
        };
        let capacity = DataSize::from_mb(rng.uniform_int(1, 40));
        let fleet = CacheFleet::new(capacity, policy);
        let mut shadow = WorkerCache::new(capacity, policy);
        fleet.ensure_worker("w");
        for _ in 0..rng.uniform_int(0, 80) {
            // Small id space so lookups hit; full-width ids so every
            // nibble of the writer is exercised.
            let cid = ContentId(rng.uniform_int(0, 24).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            if rng.chance(0.3) {
                assert_eq!(fleet.lookup("w", cid), shadow.lookup(cid));
            } else {
                let size = DataSize::from_mb(rng.uniform_int(1, 8));
                assert_eq!(fleet.insert("w", cid, size), shadow.insert(cid, size));
            }
        }
        let ad = fleet.attr_string("w");
        // The reference: the `hex()`-join the advertisement used to build,
        // with `hex()`'s old `{:016x}` body.
        let reference = shadow
            .contents()
            .map(|cid| format!("{:016x}", cid.0))
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(ad, reference, "case {case}");
        let parsed: Vec<u64> = if ad.is_empty() {
            Vec::new()
        } else {
            ad.split(',')
                .map(|t| parse_cid(t).expect("well-formed id"))
                .collect()
        };
        let contents: Vec<u64> = shadow.contents().map(|cid| cid.0).collect();
        assert_eq!(parsed, contents, "case {case}");
        assert!(parsed.windows(2).all(|w| w[0] < w[1]), "case {case}");
    }
}

// ----- config parsers -------------------------------------------------

#[test]
fn ini_round_trips_arbitrary_settings() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/ini");
        let n = rng.uniform_int(1, 9) as usize;
        let mut doc = IniDoc::new();
        for i in 0..n {
            let len = rng.uniform_int(1, 10) as usize;
            let v: String = (0..len)
                .map(|_| (b'a' + rng.uniform_int(0, 25) as u8) as char)
                .collect();
            doc.set("section", &format!("key{i}"), &v);
        }
        let parsed = IniDoc::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc, "case {case}");
    }
}

#[test]
fn json_round_trips_strings() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/json");
        let len = rng.uniform_int(0, 60) as usize;
        // Printable ASCII, including quotes and backslashes.
        let s: String = (0..len)
            .map(|_| (rng.uniform_int(0x20, 0x7e) as u8) as char)
            .collect();
        let v = Json::str(&s);
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v, "case {case}: {s:?}");
    }
}

// ----- topology diff/apply convergence --------------------------------

#[test]
fn topology_diff_of_identical_is_empty_and_diff_apply_converges() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/topology");
        let initial_workers = rng.uniform_int(0, 4) as usize;
        let target_workers = rng.uniform_int(0, 4) as usize;
        let head = pick_type(&mut rng);
        let wtype = pick_type(&mut rng);

        let mut a = Topology::single_node(head);
        a.workers = vec![wtype; initial_workers];
        assert!(a.diff(&a.clone()).is_empty(), "case {case}");

        let mut b = a.clone();
        b.workers = vec![wtype; target_workers];
        let delta = a.diff(&b);
        // The delta sizes match the worker count difference.
        if target_workers >= initial_workers {
            assert_eq!(
                delta.add_workers.len(),
                target_workers - initial_workers,
                "case {case}"
            );
            assert!(delta.remove_workers.is_empty(), "case {case}");
        } else {
            assert_eq!(
                delta.remove_workers.len(),
                initial_workers - target_workers,
                "case {case}"
            );
            assert!(delta.add_workers.is_empty(), "case {case}");
        }
        // Applying the "update" then diffing again is empty.
        assert!(b.diff(&b.clone()).is_empty(), "case {case}");
    }
}

// ----- data sizes -----------------------------------------------------

#[test]
fn data_size_arithmetic_is_consistent() {
    for case in 0..CASES {
        let mut rng = RngStream::derive(case, "prop/datasize");
        let a = rng.uniform_int(0, u32::MAX as u64 - 1);
        let b = rng.uniform_int(0, u32::MAX as u64 - 1);
        let da = DataSize::from_bytes(a);
        let db = DataSize::from_bytes(b);
        assert_eq!((da + db).as_bytes(), a + b, "case {case}");
        assert_eq!(
            da.saturating_sub(db).as_bytes(),
            a.saturating_sub(b),
            "case {case}"
        );
        assert_eq!(da.min(db).as_bytes(), a.min(b), "case {case}");
        let mb = da.as_mb_f64();
        assert!((mb * 1e6 - a as f64).abs() < 1.0, "case {case}");
    }
}
