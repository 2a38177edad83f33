//! Determinism: the foundation every experiment rests on. Identical seeds
//! must produce identical deployments, identical transfer timelines, and
//! identical statistical artifacts — including when replicas run across
//! threads.

use cumulus::scenario::UseCaseScenario;
use cumulus::simkit::prelude::*;
use cumulus::simkit::{run_replicas, ReplicaPlan};

/// A compact fingerprint of one full use-case run.
fn run_fingerprint(seed: u64) -> (u64, u64, String) {
    let (mut s, report) = UseCaseScenario::deploy(seed, SimTime::ZERO).unwrap();
    let (ds, t1) = s.transfer_four_cel_samples(report.ready_at).unwrap();
    let (job, t2) = s.run_differential_expression(t1, ds).unwrap();
    let outputs = &s.galaxy.job(job).unwrap().outputs;
    let table = s.galaxy.dataset(outputs[0]).unwrap();
    let top_row = table
        .content
        .as_table()
        .map(|(_, rows)| rows[0].join("|"))
        .unwrap_or_default();
    (report.ready_at.as_micros(), t2.as_micros(), top_row)
}

#[test]
fn identical_seeds_give_identical_runs() {
    let a = run_fingerprint(7);
    let b = run_fingerprint(7);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_artifacts() {
    let a = run_fingerprint(7);
    let b = run_fingerprint(8);
    // Timing constants are deterministic (jitter disabled), but the
    // generated data — and hence the statistics — must differ.
    assert_ne!(a.2, b.2, "different seeds produced identical top tables");
}

#[test]
fn parallel_replicas_match_sequential_execution() {
    let work = |i: usize, _seeds: cumulus::simkit::SeedFactory| run_fingerprint(1000 + i as u64);
    let sequential = run_replicas(ReplicaPlan::new(5, 4).with_threads(1), work);
    let parallel = run_replicas(ReplicaPlan::new(5, 4).with_threads(4), work);
    assert_eq!(sequential, parallel);
}

#[test]
fn des_event_traces_are_reproducible() {
    // Drive a nontrivial event cascade twice and compare telemetry digests.
    fn trace(seed: u64) -> u64 {
        let mut sim = Sim::new(Telemetry::enabled());
        let mut rng = RngStream::derive(seed, "cascade");
        let event = Key::intern("test.cascade.event");
        let follow_up = Key::intern("test.cascade.follow_up");
        for i in 0..50u64 {
            let delay = SimDuration::from_millis(rng.uniform_int(1, 1000));
            sim.schedule_in(delay, move |sim: &mut Sim<Telemetry>| {
                let now = sim.now();
                sim.world.record(now, "test", event, Payload::Count(i));
                if i % 7 == 0 {
                    sim.schedule_in(SimDuration::from_millis(i + 1), move |sim| {
                        let now = sim.now();
                        sim.world.record(now, "test", follow_up, Payload::Count(i));
                    });
                }
            });
        }
        sim.run_to_completion();
        sim.world.digest()
    }
    assert_eq!(trace(3), trace(3));
    assert_ne!(trace(3), trace(4));
}

/// One closed-loop autoscaling episode on a seeded diurnal trace, reduced
/// to its rendered scaling-activity log. Both the trace generation and the
/// controller's decisions depend on the seed, so this exercises the whole
/// autoscale stack.
fn scaling_activity_log(seed: u64) -> String {
    use cumulus::autoscale::{
        run_episode, ControllerConfig, Hysteresis, HysteresisConfig, QueueStep, Workload,
    };
    use cumulus::htc::WorkSpec;

    let work = WorkSpec {
        serial_secs: 60.0,
        cu_work: 240.0,
    };
    let trace = Workload::diurnal(
        "diurnal",
        seed,
        2.0,
        40.0,
        SimDuration::from_hours(2),
        SimDuration::from_hours(4),
        work,
    )
    .with_initial_burst(4, work);
    let policy = Hysteresis::new(QueueStep::new(2), HysteresisConfig::default());
    let report = run_episode(seed, Box::new(policy), ControllerConfig::default(), &trace);
    report.log.render()
}

#[test]
fn identical_seeds_give_byte_identical_scaling_logs() {
    let a = scaling_activity_log(21);
    let b = scaling_activity_log(21);
    assert_eq!(a, b, "same seed must replay the same scaling decisions");
    assert!(a.contains("scale-out"), "episode never scaled:\n{a}");
    let c = scaling_activity_log(22);
    assert_ne!(a, c, "different seeds produced identical scaling logs");
}

#[test]
fn scaling_logs_survive_the_parallel_replica_runner() {
    let work = |i: usize, _seeds: cumulus::simkit::SeedFactory| scaling_activity_log(30 + i as u64);
    let sequential = run_replicas(ReplicaPlan::new(9, 4).with_threads(1), work);
    let parallel = run_replicas(ReplicaPlan::new(9, 4).with_threads(4), work);
    assert_eq!(sequential, parallel);
}

/// One predictive-policy episode reduced to its rendered activity log.
/// The forecaster (Holt level/trend + seasonal table) and the learned
/// lead both feed every decision, so any nondeterminism in the forecast
/// path would fingerprint here.
fn predictive_activity_log(seed: u64) -> String {
    use cumulus::autoscale::{
        run_episode, ControllerConfig, ForecastConfig, Predictive, PredictiveConfig,
        SeasonalConfig, Workload,
    };
    use cumulus::htc::WorkSpec;

    let work = WorkSpec {
        serial_secs: 60.0,
        cu_work: 240.0,
    };
    let trace = Workload::diurnal(
        "diurnal",
        seed,
        2.0,
        40.0,
        SimDuration::from_hours(2),
        SimDuration::from_hours(4),
        work,
    )
    .with_initial_burst(4, work);
    let policy = Predictive::new(PredictiveConfig {
        forecast: ForecastConfig {
            seasonal: Some(SeasonalConfig::quarter_hourly(SimDuration::from_hours(2))),
            ..ForecastConfig::default()
        },
        ..PredictiveConfig::default()
    });
    let report = run_episode(seed, Box::new(policy), ControllerConfig::default(), &trace);
    report.log.render()
}

#[test]
fn identical_seeds_give_byte_identical_predictive_logs() {
    let a = predictive_activity_log(23);
    let b = predictive_activity_log(23);
    assert_eq!(a, b, "same seed must replay the same predictive decisions");
    assert!(a.contains("scale-out"), "episode never scaled:\n{a}");
    let c = predictive_activity_log(24);
    assert_ne!(a, c, "different seeds produced identical predictive logs");
}

#[test]
fn predictive_logs_survive_the_parallel_replica_runner() {
    let work =
        |i: usize, _seeds: cumulus::simkit::SeedFactory| predictive_activity_log(40 + i as u64);
    let sequential = run_replicas(ReplicaPlan::new(11, 4).with_threads(1), work);
    let parallel = run_replicas(ReplicaPlan::new(11, 4).with_threads(4), work);
    assert_eq!(sequential, parallel);
}

/// The matchmaker-rewrite gate: every experiment grid that leans on the
/// pool (E9e policy sweep, E10 spot, E12 predictive, E13 datashare) must
/// render byte-identically whether its replicas run serially or across
/// threads. Quick mode keeps the grids small; the full-size runs are
/// asserted by the same gate when each `--bin` runs.
#[test]
fn experiment_grids_are_thread_invariant() {
    use cumulus_bench::experiments::{datashare, extensions, predictive, spot};
    use cumulus_bench::grid::{gate, Args};

    let seed = 20120512;
    assert_eq!(
        extensions::run_policy_sweep_threads(seed, 1),
        extensions::run_policy_sweep_threads(seed, 3),
        "E9e policy sweep diverged across threads"
    );

    // The gate runs each grid serially and at 3 threads and panics unless
    // both passes render the same table and JSON.
    let quick = Args {
        seed,
        threads: 3,
        quick: true,
        report: false,
    };
    gate(&spot::SpotGrid, &quick);
    gate(&predictive::PredictiveGrid, &quick);
    gate(&datashare::DatashareGrid, &quick);
}

/// Seeded-loop span property: generate randomized-but-valid span streams
/// (random entity counts, open times, phase schedules) across many seeds
/// and assert the assembler round-trips every one — each opened span
/// closes exactly once, phases stay inside `[open, close]` in monotone
/// order, and the event digest is a pure function of the stream.
#[test]
fn assembler_round_trips_randomized_span_streams() {
    use cumulus::simkit::telemetry::{assemble, span::keys, SpanKind, Telemetry};

    for seed in 0..24u64 {
        let mut rng = RngStream::derive(seed, "span-props");
        let n = rng.uniform_int(1, 30) as usize;
        // (time, entity, step) — step 0 opens, 1..=phases marks, last closes.
        let mut script: Vec<(u64, u64, usize, usize)> = Vec::new();
        for id in 0..n as u64 {
            let open = rng.uniform_int(0, 1_000_000);
            let phases = rng.uniform_int(0, 4) as usize;
            let mut t = open;
            for step in 0..=phases + 1 {
                script.push((t, id, step, phases));
                t += rng.uniform_int(1, 50_000);
            }
        }
        // Interleave entities the way a simulator would: by timestamp.
        script.sort();

        let emit = || {
            let tel = Telemetry::enabled();
            for &(t, id, step, phases) in &script {
                let at = SimTime::ZERO + SimDuration::from_micros(t);
                if step == 0 {
                    tel.span_open(at, "prop", keys::JOB_SUBMITTED, SpanKind::Job, id);
                } else if step == phases + 1 {
                    tel.span_close(at, "prop", keys::JOB_COMPLETED, SpanKind::Job, id);
                } else {
                    tel.span_phase(
                        at,
                        "prop",
                        keys::JOB_MATCHED,
                        SpanKind::Job,
                        id,
                        SimDuration::from_micros(step as u64),
                    );
                }
            }
            tel
        };

        let tel = emit();
        let spans = assemble(&tel.events()).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        assert_eq!(spans.len(), n, "seed {seed}: a span was lost or duplicated");
        let mut seen = std::collections::BTreeSet::new();
        for s in &spans {
            assert!(seen.insert(s.id), "seed {seed}: span {} closed twice", s.id);
            assert!(s.opened_at <= s.closed_at, "seed {seed}: negative span");
            let mut last = s.opened_at;
            for p in &s.phases {
                assert!(
                    p.at >= last,
                    "seed {seed}: phase regressed in span {}",
                    s.id
                );
                assert!(p.at <= s.closed_at, "seed {seed}: phase after close");
                last = p.at;
            }
        }
        // The digest is a pure function of the stream: replaying the same
        // script reproduces it, and it survives a snapshot.
        assert_eq!(
            tel.digest(),
            emit().digest(),
            "seed {seed}: digest unstable"
        );
        assert_eq!(tel.digest(), tel.snapshot().digest());
    }
}

/// Span invariants on real episodes: instrumented E13 cells across a loop
/// of seeds. Every job and workflow span must close, phases must sit
/// inside their span, and every job's breakdown must sum to its walltime.
#[test]
fn span_invariants_hold_across_seeded_episodes() {
    use cumulus::simkit::telemetry::{assemble_lenient, JobBreakdown, SpanKind};
    use cumulus_bench::experiments::datashare::DatashareGrid;
    use cumulus_bench::grid::{pass, Args};

    for seed in [7u64, 20120512, 99991] {
        let instrumented = Args {
            seed,
            threads: 1,
            quick: true,
            report: true,
        };
        for row in pass(&DatashareGrid, &instrumented) {
            let set = assemble_lenient(&row.telemetry.events())
                .unwrap_or_else(|e| panic!("seed {seed} {}: {e:?}", row.spec.label()));
            for (kind, id, _) in &set.open {
                assert!(
                    !matches!(kind, SpanKind::Job | SpanKind::Workflow),
                    "seed {seed} {}: {kind:?} span {id} never closed",
                    row.spec.label()
                );
            }
            let mut jobs = 0;
            for s in set.of_kind(SpanKind::Job) {
                let bd = JobBreakdown::of(s).unwrap_or_else(|| {
                    panic!(
                        "seed {seed} {}: job {} has no breakdown",
                        row.spec.label(),
                        s.id
                    )
                });
                assert_eq!(
                    bd.total(),
                    s.duration(),
                    "seed {seed} {}: job {} breakdown does not sum to walltime",
                    row.spec.label(),
                    s.id
                );
                jobs += 1;
            }
            assert!(
                jobs > 0,
                "seed {seed} {}: episode ran no jobs",
                row.spec.label()
            );
        }
    }
}

/// The telemetry digest — key names, times, payloads over the whole event
/// stream — must not depend on how many threads the replica runner used.
#[test]
fn telemetry_digests_are_thread_invariant() {
    use cumulus_bench::experiments::datashare::{self, DatashareGrid};
    use cumulus_bench::grid::{pass, Args};

    let instrumented = Args {
        seed: 20120512,
        threads: 3,
        quick: true,
        report: true,
    };
    let serial = pass(
        &DatashareGrid,
        &Args {
            threads: 1,
            ..instrumented
        },
    );
    let parallel = pass(&DatashareGrid, &instrumented);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.spec.label(), p.spec.label());
        assert_eq!(
            s.telemetry.digest(),
            p.telemetry.digest(),
            "{}: telemetry digest diverged across threads",
            s.spec.label()
        );
        assert_eq!(s.telemetry.len(), p.telemetry.len());
    }
    assert_eq!(
        datashare::episode_report(&serial),
        datashare::episode_report(&parallel),
        "episode report diverged across threads"
    );
}
