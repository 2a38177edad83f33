//! Extension experiments beyond the paper's figures:
//!
//! * E9a — GridFTP parallel-stream sweep (why 4 streams is a good default);
//! * E9b — fault-rate sensitivity of GO vs FTP (Monte Carlo over the
//!   parallel replica runner);
//! * E9c — closed-loop autoscaling vs a static cluster on a bursty queue;
//! * E9d — NFS staging contention as concurrent jobs grow;
//! * E9e — scaling-policy sweep (static / one-shot / closed-loop) across
//!   bursty and diurnal arrival traces.

use cumulus::autoscale::{
    run_episode, run_sweep, ControllerConfig, EpisodeReport, Fixed, Hysteresis, HysteresisConfig,
    OneShot, QueueStep, ScalingPolicy, Workload,
};
use cumulus::htc::WorkSpec;
use cumulus::net::{DataSize, Network};
use cumulus::simkit::disrupt::DisruptionPlan;
use cumulus::simkit::time::{SimDuration, SimTime};
use cumulus::simkit::{run_replicas, ReplicaPlan};
use cumulus::transfer::{
    calibrated_wan_link, CertificateAuthority, EndpointKind, Protocol, TaskStatus, TransferRequest,
    TransferService,
};

use crate::table::{mbps, mins, Table};

// ----- E9a: stream sweep --------------------------------------------------

/// Achieved rate for a 1 GB file as GridFTP stream count varies, on a
/// long-haul path with 0.2% packet loss (where the Mathis limit bites and
/// parallel streams are what GridFTP buys you).
pub fn stream_sweep() -> Vec<(u32, f64)> {
    let link = calibrated_wan_link().with_loss(0.002);
    [1u32, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|streams| {
            let rate = Protocol::GridFtp { streams }
                .achieved_rate(DataSize::from_gb(1), &link)
                .expect("no cap")
                .as_mbps();
            (streams, rate)
        })
        .collect()
}

/// Render E9a.
pub fn run_stream_sweep() -> String {
    let mut t = Table::new(
        "E9a — GridFTP parallel streams vs achieved rate (1 GB, lossy WAN path)",
        &["streams", "rate (Mbit/s)"],
    );
    for (s, r) in stream_sweep() {
        t.row(&[s.to_string(), mbps(r)]);
    }
    format!(
        "{}\nunder loss each TCP stream is Mathis-limited, so rate scales with \
         stream count until the aggregate hits the 37.5 Mbit/s uplink — the \
         mechanism behind GridFTP's advantage on real long-haul paths.\n",
        t.render()
    )
}

// ----- E9b: fault sensitivity ----------------------------------------------

/// Monte-Carlo achieved rate under Poisson faults. Returns
/// `(mean_rate_mbps, success_fraction)` per protocol.
pub fn fault_sensitivity(
    mean_fault_interval_s: f64,
    replicas: usize,
) -> Vec<(&'static str, f64, f64)> {
    let protocols = [Protocol::GLOBUS_DEFAULT, Protocol::Ftp];
    protocols
        .iter()
        .map(|protocol| {
            let results = run_replicas(ReplicaPlan::new(2026, replicas), |_, seeds| {
                let mut network = Network::new();
                let laptop = network.add_node("laptop");
                let server = network.add_node("server");
                network.connect(laptop, server, calibrated_wan_link());
                let mut service = TransferService::new();
                service
                    .endpoints
                    .register("u#laptop", laptop, EndpointKind::GlobusConnect)
                    .unwrap();
                service
                    .endpoints
                    .register("g#server", server, EndpointKind::GridFtpServer)
                    .unwrap();
                let mut ca = CertificateAuthority::new("/CN=mc");
                service.credentials.register(ca.issue(
                    "u",
                    SimTime::ZERO,
                    SimDuration::from_hours(48),
                ));
                let mut rng = seeds.stream("faults");
                service.set_fault_plan(
                    "u#laptop",
                    "g#server",
                    DisruptionPlan::poisson_outages(
                        &mut rng,
                        SimDuration::from_hours(24),
                        SimDuration::from_secs_f64(mean_fault_interval_s),
                        SimDuration::from_secs(45),
                    ),
                );
                let request = TransferRequest::globus(
                    "u",
                    ("u#laptop", "/data/big.bam"),
                    ("g#server", "/nfs/big.bam"),
                    DataSize::from_gb(1),
                )
                .with_protocol(*protocol);
                let id = service.submit(SimTime::ZERO, &network, request).unwrap();
                let task = service.task(id).unwrap();
                let rate = task.achieved_rate().as_mbps();
                (rate, task.status == TaskStatus::Succeeded)
            });
            let rates: Vec<f64> = results
                .iter()
                .filter(|(_, ok)| *ok)
                .map(|(rate, _)| *rate)
                .collect();
            let mean = if rates.is_empty() {
                0.0
            } else {
                rates.iter().sum::<f64>() / rates.len() as f64
            };
            (
                protocol.name(),
                mean,
                rates.len() as f64 / results.len() as f64,
            )
        })
        .collect()
}

/// Render E9b.
pub fn run_fault_sensitivity(replicas: usize) -> String {
    let mut t = Table::new(
        "E9b — 1 GB transfer under Poisson faults (Monte Carlo)",
        &[
            "mean fault interval",
            "protocol",
            "mean rate (Mbit/s)",
            "success",
        ],
    );
    for interval in [3600.0f64, 600.0, 120.0] {
        for (name, rate, success) in fault_sensitivity(interval, replicas) {
            t.row(&[
                format!("{:.0}s", interval),
                name.to_string(),
                mbps(rate),
                format!("{:.0}%", success * 100.0),
            ]);
        }
    }
    format!(
        "{}\nGridFTP restart markers keep throughput and success high as faults densify; \
         FTP retransmits from zero and degrades much faster.\n",
        t.render()
    )
}

// ----- E9c: autoscaling -----------------------------------------------------

/// The calibrated CRData tool shape used by the burst experiments: 112 s of
/// serial startup plus 418 CU·s of scalable work (~8.8 min on an m1.small,
/// ~5.0 min on a c1.medium).
fn burst_work() -> WorkSpec {
    WorkSpec {
        serial_secs: 112.0,
        cu_work: 418.0,
    }
}

/// The closed-loop policy every extension experiment uses: one c1.medium
/// worker per 3 backlogged jobs, capped at 8, with hysteresis so the
/// controller neither flaps nor double-scales. The short scale-in
/// cooldown matters on diurnal traces: releasing idle workers quickly
/// after each peak is where the closed loop's cost advantage comes from.
fn closed_loop() -> Box<dyn ScalingPolicy> {
    Box::new(Hysteresis::new(
        QueueStep::new(3),
        HysteresisConfig {
            min_workers: 0,
            max_workers: 8,
            scale_out_cooldown: SimDuration::from_mins(3),
            scale_in_cooldown: SimDuration::from_mins(6),
        },
    ))
}

/// Static baseline: the cluster stays as deployed (1 m1.small head, zero
/// workers) for the whole episode.
pub fn measure_static(seed: u64, burst: usize) -> EpisodeReport {
    let trace = Workload::burst(
        &format!("burst-{burst}"),
        burst,
        SimDuration::ZERO,
        burst_work(),
    );
    run_episode(
        seed,
        Box::new(Fixed(0)),
        ControllerConfig::default(),
        &trace,
    )
}

/// Closed-loop autoscaling on the same burst, via the `cumulus-autoscale`
/// controller running inside the DES.
pub fn measure_autoscale(seed: u64, burst: usize) -> EpisodeReport {
    let trace = Workload::burst(
        &format!("burst-{burst}"),
        burst,
        SimDuration::ZERO,
        burst_work(),
    );
    run_episode(seed, closed_loop(), ControllerConfig::default(), &trace)
}

/// Render E9c.
pub fn run_autoscale(seed: u64) -> String {
    let mut t = Table::new(
        "E9c — bursty queue: static single node vs closed-loop autoscaling",
        &[
            "burst",
            "policy",
            "makespan (min)",
            "cost ($)",
            "peak workers",
        ],
    );
    for burst in [4usize, 8, 16] {
        let st = measure_static(seed, burst);
        let au = measure_autoscale(seed, burst);
        t.row(&[
            burst.to_string(),
            "static (1 x m1.small)".to_string(),
            mins(st.makespan_mins),
            format!("{:.4}", st.cost_usd),
            st.peak_workers.to_string(),
        ]);
        t.row(&[
            burst.to_string(),
            "closed-loop (c1.medium pool)".to_string(),
            mins(au.makespan_mins),
            format!("{:.4}", au.cost_usd),
            au.peak_workers.to_string(),
        ]);
    }
    format!(
        "{}\nautoscaling trades a small amount of money for large makespan wins on bursts, \
         then releases the nodes — the elasticity §III.C is for.\n",
        t.render()
    )
}

// ----- E9e: scaling-policy sweep --------------------------------------------

/// The diurnal job shape: 60 s serial + 240 CU·s (5.0 min on an m1.small,
/// ~2.8 min on a c1.medium).
fn diurnal_work() -> WorkSpec {
    WorkSpec {
        serial_secs: 60.0,
        cu_work: 240.0,
    }
}

/// The bursty E9e trace: a lab dumps 24 jobs on the queue at once.
pub fn bursty_trace() -> Workload {
    Workload::burst("bursty-24", 24, SimDuration::ZERO, burst_work())
}

/// The diurnal E9e trace: arrivals swing between 2/h (night) and 60/h
/// (mid-day) on a 6 h period over 12 h, with 4 jobs already queued when
/// the trace starts. The initial backlog is what an open-loop one-shot
/// policy sizes against — and it under-estimates the coming peak.
pub fn diurnal_trace(seed: u64) -> Workload {
    Workload::diurnal(
        "diurnal-12h",
        seed,
        2.0,
        60.0,
        SimDuration::from_hours(6),
        SimDuration::from_hours(12),
        diurnal_work(),
    )
    .with_initial_burst(4, diurnal_work())
}

/// How many policies the E9e sweep covers.
pub const SWEEP_POLICIES: usize = 3;

/// The `i`-th policy under test (sweep order: fixed, one-shot, closed
/// loop). `one-shot` reacts once to the first backlog it sees and then
/// never changes — the paper's "operator runs `gp-instance-update` when
/// jobs pile up" workflow, automated but still open-loop.
fn sweep_policy(i: usize) -> Box<dyn ScalingPolicy> {
    match i {
        0 => Box::new(Fixed(0)),
        1 => Box::new(OneShot::new(2, 8)),
        _ => closed_loop(),
    }
}

/// Run every policy against one trace — episodes fan out over the
/// parallel replica runner (`threads == 0` → one per CPU; `1` → serial).
/// Reports come back in sweep order either way, and each episode is
/// seed-deterministic, so the output is identical at any thread count.
pub fn policy_sweep_threads(seed: u64, trace: &Workload, threads: usize) -> Vec<EpisodeReport> {
    run_sweep(
        seed,
        SWEEP_POLICIES,
        sweep_policy,
        &ControllerConfig::default(),
        trace,
        threads,
    )
}

/// [`policy_sweep_threads`] with an auto-sized thread pool.
pub fn policy_sweep(seed: u64, trace: &Workload) -> Vec<EpisodeReport> {
    policy_sweep_threads(seed, trace, 0)
}

/// Render E9e (`threads` as in [`policy_sweep_threads`]). The full
/// trace × policy grid fans out at once (6 episodes), not one trace at a
/// time, so the parallel win is bounded by the slowest episode rather
/// than the slowest trace.
pub fn run_policy_sweep_threads(seed: u64, threads: usize) -> String {
    let traces = [bursty_trace(), diurnal_trace(seed)];
    let reports: Vec<EpisodeReport> = run_replicas(
        ReplicaPlan::new(seed, traces.len() * SWEEP_POLICIES).with_threads(threads),
        |i, _seeds| {
            run_episode(
                seed,
                sweep_policy(i % SWEEP_POLICIES),
                ControllerConfig::default(),
                &traces[i / SWEEP_POLICIES],
            )
        },
    );
    let mut t = Table::new(
        "E9e — scaling policies across arrival shapes",
        &[
            "trace",
            "policy",
            "makespan (min)",
            "cost ($)",
            "p95 wait (min)",
            "peak workers",
            "scale out/in",
        ],
    );
    for r in reports {
        t.row(&[
            r.workload.clone(),
            r.policy.clone(),
            mins(r.makespan_mins),
            format!("{:.4}", r.cost_usd),
            mins(r.wait_p95_mins),
            r.peak_workers.to_string(),
            format!("{}/{}", r.log.scale_outs(), r.log.scale_ins()),
        ]);
    }
    format!(
        "{}\non a burst, sizing once is enough — one-shot matches the closed loop. \
         On a diurnal trace the one-shot latches a compromise size: too small for \
         the daily peak (worse p95 wait) yet running all night (higher cost). The \
         closed loop is strictly better on both axes at once, which is the case \
         for taking the operator out of the loop.\n",
        t.render()
    )
}

/// Render E9e with an auto-sized thread pool.
pub fn run_policy_sweep(seed: u64) -> String {
    run_policy_sweep_threads(seed, 0)
}

// ----- E9d: NFS contention ---------------------------------------------------

/// Seconds to stage the 190.3 MB dataset from NFS when `concurrent` jobs
/// stage simultaneously (fair-shared 400 Mbit/s server).
pub fn nfs_contention() -> Vec<(u32, f64)> {
    let fs = cumulus::nfs::SharedFs::new(400.0);
    let bytes = cumulus::net::DataSize::from_mb_f64(190.3).as_bytes();
    [1u32, 2, 4, 8, 16]
        .into_iter()
        .map(|concurrent| {
            (
                concurrent,
                fs.stage_duration(bytes, concurrent).as_secs_f64(),
            )
        })
        .collect()
}

/// Render E9d.
pub fn run_nfs_contention() -> String {
    let mut t = Table::new(
        "E9d — NFS stage-in of affyCelFileSamples.zip (190.3 MB) under contention",
        &["concurrent stage-ins", "per-job stage time (s)"],
    );
    for (c, secs) in nfs_contention() {
        t.row(&[c.to_string(), format!("{secs:.2}")]);
    }
    format!(
        "{}\nstage-in is negligible next to the tool's 112 s serial startup until \
         ~16 concurrent jobs share the server — the shared filesystem only becomes \
         the bottleneck at cluster sizes the paper's 2-node use case never reaches.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_sweep_scales_then_saturates() {
        let sweep = stream_sweep();
        for pair in sweep.windows(2) {
            assert!(pair[1].1 >= pair[0].1 - 1e-9, "rate must not fall");
        }
        let one = sweep[0].1;
        let four = sweep.iter().find(|(s, _)| *s == 4).unwrap().1;
        let last = sweep.last().unwrap().1;
        assert!(four > 2.5 * one, "parallel streams must pay off under loss");
        assert!(last < 37.5, "cannot exceed the uplink");
    }

    #[test]
    fn fault_sensitivity_favors_gridftp() {
        let results = fault_sensitivity(300.0, 8);
        let go = results
            .iter()
            .find(|(n, _, _)| *n == "globus-transfer")
            .unwrap();
        let ftp = results.iter().find(|(n, _, _)| *n == "ftp").unwrap();
        assert!(go.1 > ftp.1, "GO rate {} vs FTP {}", go.1, ftp.1);
        assert!(go.2 >= ftp.2, "GO success {} vs FTP {}", go.2, ftp.2);
    }

    #[test]
    fn autoscaling_wins_on_makespan() {
        let st = measure_static(7500, 8);
        let au = measure_autoscale(7500, 8);
        assert!(
            au.makespan_mins < st.makespan_mins / 2.0,
            "autoscale {} vs static {}",
            au.makespan_mins,
            st.makespan_mins
        );
    }

    #[test]
    fn parallel_policy_sweep_matches_serial() {
        let trace = bursty_trace();
        let serial = policy_sweep_threads(7504, &trace, 1);
        let parallel = policy_sweep_threads(7504, &trace, 3);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.policy, p.policy);
            assert_eq!(s.makespan_mins.to_bits(), p.makespan_mins.to_bits());
            assert_eq!(s.cost_usd.to_bits(), p.cost_usd.to_bits());
            assert_eq!(
                s.log.render(),
                p.log.render(),
                "activity log must be byte-identical under parallel sweep"
            );
        }
    }

    #[test]
    fn closed_loop_beats_static_on_the_bursty_trace() {
        let trace = bursty_trace();
        let reports = policy_sweep(7502, &trace);
        let fixed = &reports[0];
        let closed = &reports[2];
        assert!(fixed.policy.starts_with("fixed"), "sweep order changed");
        assert!(closed.policy.contains("queue-step"), "sweep order changed");
        assert!(
            closed.makespan_mins < fixed.makespan_mins,
            "closed {} vs static {}",
            closed.makespan_mins,
            fixed.makespan_mins
        );
    }

    #[test]
    fn closed_loop_strictly_dominates_one_shot_on_the_diurnal_trace() {
        let trace = diurnal_trace(7503);
        let reports = policy_sweep(7503, &trace);
        let one_shot = &reports[1];
        let closed = &reports[2];
        assert!(
            one_shot.policy.starts_with("one-shot"),
            "sweep order changed"
        );
        assert!(closed.policy.contains("queue-step"), "sweep order changed");
        // Strict domination: cheaper AND no worse on p95 job wait.
        assert!(
            closed.cost_usd < one_shot.cost_usd,
            "closed ${} vs one-shot ${}",
            closed.cost_usd,
            one_shot.cost_usd
        );
        assert!(
            closed.wait_p95_mins <= one_shot.wait_p95_mins,
            "closed p95 {} vs one-shot p95 {}",
            closed.wait_p95_mins,
            one_shot.wait_p95_mins
        );
    }

    #[test]
    fn nfs_contention_scales_linearly() {
        let rows = nfs_contention();
        let base = rows[0].1;
        for (c, secs) in &rows {
            assert!((secs - base * *c as f64).abs() < 1e-6, "fair sharing");
        }
        // 190.3 MB at 400 Mbit/s ≈ 3.8 s alone.
        assert!((base - 3.806).abs() < 0.01, "base={base}");
    }

    #[test]
    fn reports_render() {
        assert!(run_stream_sweep().contains("E9a"));
        assert!(run_autoscale(7501).contains("E9c"));
        assert!(run_fault_sensitivity(4).contains("E9b"));
        assert!(run_nfs_contention().contains("E9d"));
        assert!(run_policy_sweep(7501).contains("E9e"));
    }
}
