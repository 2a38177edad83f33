//! The cumulus end-to-end benchmark.
//!
//! `cumulus-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//! repeats one seeded episode of the named workload for about `--seconds`
//! host seconds and prints, as its last stdout line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` each round runs the
//! episode once untraced and once with a host timer around every library
//! call, and the metrics are the per-layer split. See README.md for the
//! workloads and the metric table.

mod common;
mod datashare;
mod federation;
mod galaxy;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use common::{Episode, COUNTS};
use trace::{Layer, Totals};

const USAGE: &str =
    "usage: cumulus-perfbench --workload <datashare|federation-backlog|galaxy-elastic> \
                     --seed <n> [--seconds <n>] [--trace <0|1>]";

/// Episodes a run measures at least, whatever `--seconds` says, so every
/// median has a middle.
const MIN_ROUNDS: usize = 3;

/// End-to-end metrics (`--trace 0`): name and unit, in report order.
const END_TO_END: [(&str, &str); 3] = [
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit, in report order. Every
/// layer's seconds, then the counts episodes measure, then the tracing
/// overhead.
fn per_layer() -> Vec<(&'static str, &'static str)> {
    Layer::ALL
        .iter()
        .map(|l| (l.metric(), "s"))
        .chain(COUNTS)
        .chain([("trace.overhead_s", "s")])
        .collect()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E13 data sharing, scaled up.
    Datashare,
    /// E15 federation under alternating peaks and troughs.
    FederationBacklog,
    /// The paper's use case under elastic scaling, on the DES engine.
    GalaxyElastic,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Datashare,
        Workload::FederationBacklog,
        Workload::GalaxyElastic,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Datashare => "datashare",
            Workload::FederationBacklog => "federation-backlog",
            Workload::GalaxyElastic => "galaxy-elastic",
        }
    }

    /// Run one episode at the measured shape, or the smoke-test shape.
    pub fn run(self, seed: u64, tiny: bool) -> Episode {
        match (self, tiny) {
            (Workload::Datashare, false) => datashare::run(seed, &datashare::Shape::FULL),
            (Workload::Datashare, true) => datashare::run(seed, &datashare::Shape::TINY),
            (Workload::FederationBacklog, false) => federation::run(seed, &federation::Shape::FULL),
            (Workload::FederationBacklog, true) => federation::run(seed, &federation::Shape::TINY),
            (Workload::GalaxyElastic, false) => galaxy::run(seed, &galaxy::Shape::FULL),
            (Workload::GalaxyElastic, true) => galaxy::run(seed, &galaxy::Shape::TINY),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One measured episode: the record plus host timings around it.
struct Measured {
    episode: Episode,
    /// Host seconds of the whole episode: set-up, loop, report, checks.
    wall_s: f64,
    /// Span totals (empty when untraced).
    totals: Totals,
}

fn measure_one(workload: Workload, seed: u64, traced: bool) -> Measured {
    trace::start(traced);
    let started = Instant::now();
    let episode = workload.run(seed, false);
    let wall_s = started.elapsed().as_secs_f64();
    let totals = trace::finish();
    Measured {
        episode,
        wall_s,
        totals,
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let budget = args.seconds;
    let started = Instant::now();
    let mut plain: Vec<Measured> = Vec::new();
    let mut traced: Vec<Measured> = Vec::new();
    loop {
        plain.push(measure_one(args.workload, args.seed, false));
        if args.trace {
            traced.push(measure_one(args.workload, args.seed, true));
        }
        let rounds = plain.len();
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / rounds as f64;
        if rounds >= MIN_ROUNDS && elapsed + per_round > budget {
            break;
        }
    }

    let all: Vec<&Measured> = plain.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|m| m.episode.ops).sum();
    let mut failed: u64 = all.iter().map(|m| m.episode.failed).sum();
    for m in &all {
        for f in &m.episode.failures {
            eprintln!("FAILED: {f}");
        }
    }
    let digest = &plain[0].episode.digest;
    let divergent = all.iter().filter(|m| m.episode.digest != *digest).count() as u64;
    if divergent > 0 {
        eprintln!(
            "FAILED: {divergent} episodes of seed {} diverged from the first digest",
            args.seed
        );
        failed += divergent;
    }

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for l in Layer::ALL {
            let per_episode = traced
                .iter()
                .map(|m| {
                    let acc = m.totals.get(l);
                    match l {
                        // Handler bodies are driver spans, so this is the
                        // engine's dispatch alone.
                        Layer::SimkitRun => acc.self_s,
                        // The benchmark's own time: everything outside the
                        // outermost spans, plus handler bodies' own work.
                        Layer::Driver => m.wall_s - m.totals.top_s + acc.self_s,
                        _ => acc.incl_s,
                    }
                })
                .collect();
            values.insert(l.metric(), median(per_episode));
        }
        for (name, _) in COUNTS {
            let per_episode = traced
                .iter()
                .map(|m| m.episode.counts.get(name).copied().unwrap_or(0.0))
                .collect();
            values.insert(name, median(per_episode));
        }
        values.insert(
            "trace.overhead_s",
            median(traced.iter().map(|m| m.wall_s).collect())
                - median(plain.iter().map(|m| m.wall_s).collect()),
        );
        for (name, unit) in per_layer() {
            metrics.push((name, unit, values[name]));
        }
        let calls: Vec<String> = Layer::ALL
            .iter()
            .map(|&l| format!("{}={}", l.metric(), traced[0].totals.get(l).calls))
            .collect();
        println!("calls per traced episode: {}", calls.join(" "));
    } else {
        let jobs_per_s = median(
            plain
                .iter()
                .map(|m| m.episode.ops as f64 / m.episode.loop_s)
                .collect(),
        );
        let setup_s = median(plain.iter().map(|m| m.episode.setup_s).collect());
        let rss = peak_rss_mb().unwrap_or_else(|| {
            eprintln!("FAILED: cannot read VmHWM from /proc/self/status");
            failed += 1;
            0.0
        });
        for ((name, unit), value) in END_TO_END.into_iter().zip([jobs_per_s, setup_s, rss]) {
            metrics.push((name, unit, value));
        }
    }

    println!(
        "workload {} seed {} episodes {} ({} traced)",
        args.workload.name(),
        args.seed,
        plain.len() + traced.len(),
        traced.len()
    );
    println!("{}", digest.render());
    let loops: Vec<String> = plain
        .iter()
        .map(|m| format!("{:.3}", m.episode.loop_s))
        .collect();
    println!("episode loop seconds (untraced): {}", loops.join(" "));
    for (name, unit, value) in &metrics {
        println!("{name:>32} {value:>16.6} {unit}");
    }
    for (name, _, value) in &metrics {
        if !value.is_finite() {
            eprintln!("FAILED: metric {name} is not finite");
            failed += 1;
        }
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn cli_accepts_the_driver_form_and_rejects_bad_flags() {
        let a = args("--workload galaxy-elastic --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::GalaxyElastic);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload datashare").is_err());
        assert!(args("--workload datashare --seed x").is_err());
        assert!(args("--workload datashare --seed 1 --trace 2").is_err());
        assert!(args("--workload datashare --seed 1 --seconds -3").is_err());
        assert!(args("--workload datashare --seed 1 --frobnicate 1").is_err());
        assert!(args("--workload datashare --seed").is_err());
    }

    /// `BENCHMARK.json` declares exactly the metrics the two modes print.
    #[test]
    fn benchmark_json_declares_every_printed_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let printed: Vec<(&str, &str)> = END_TO_END.into_iter().chain(per_layer()).collect();
        assert_eq!(json.matches("\"better\"").count(), printed.len());
        for (name, unit) in printed {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    /// Every workload at the smoke shape: no failed operation or
    /// invariant, the same digest for the same seed, another for another,
    /// and only counts the per-layer split reports.
    #[test]
    fn smoke_invariants_and_digests() {
        for w in Workload::ALL {
            let a = w.run(11, true);
            assert_eq!(a.failed, 0, "{}: {:?}", w.name(), a.failures);
            assert!(a.ops > 0);
            for name in a.counts.keys() {
                assert!(
                    COUNTS.iter().any(|(n, _)| n == name),
                    "{}: count {name} is not reported",
                    w.name()
                );
            }
            let again = w.run(11, true);
            assert_eq!(a.digest, again.digest, "{} digest must repeat", w.name());
            let other = w.run(12, true);
            assert_eq!(other.failed, 0, "{}: {:?}", w.name(), other.failures);
            assert_ne!(
                a.digest.hash(),
                other.digest.hash(),
                "{} digest must move with the seed",
                w.name()
            );
        }
    }

    #[test]
    fn tracing_leaves_the_digest_alone_and_times_every_call() {
        for w in Workload::ALL {
            trace::start(true);
            let traced = w.run(5, true);
            let totals = trace::finish();
            let plain = w.run(5, true);
            assert_eq!(traced.digest, plain.digest, "{}", w.name());
            assert!(
                totals.get(Layer::ProvisionDeploy).calls >= 1,
                "{}",
                w.name()
            );
            assert!(totals.top_s > 0.0);
        }
    }
}
