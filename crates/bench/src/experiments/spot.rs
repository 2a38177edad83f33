//! E10 — spot-fleet economics under preemption.
//!
//! The paper's cost model (§V.C) prices every worker on demand. Spot
//! capacity is the obvious lever — historically ~70% cheaper — but it can
//! be reclaimed, and each reclaim evicts in-flight jobs back to the queue
//! and pays the provisioning lag again for the replacement. This
//! experiment quantifies that trade as a grid: **spot fraction** of the
//! worker fleet × **market harshness** (mean interval between reclaim
//! strikes), all on the E9e diurnal trace under the same closed-loop
//! policy, so the all-on-demand row is directly comparable to E9e's
//! closed-loop row.
//!
//! Every grid cell is one [`run_spot_episode`] at the grid's seed:
//! preemption notices, requeues, and in-place repairs all play out inside
//! the DES. [`SpotGrid`] runs on the shared grid driver, so the report is
//! byte-identical at any thread count.

use cumulus::autoscale::{
    run_spot_episode, ControllerConfig, Hysteresis, HysteresisConfig, QueueStep, SpotEpisodeConfig,
    SpotEpisodeReport, SpotMix, SpotMixConfig,
};
use cumulus::provision::json::Json;
use cumulus::simkit::time::SimDuration;

use crate::experiments::extensions::diurnal_trace;
use crate::grid::{round4, Grid};
use crate::table::{mins, Table};

/// Fleet cap shared with the E9e closed-loop policy.
const MAX_WORKERS: usize = 8;

/// How much worse the winning spot row's p95 wait may be than the
/// all-on-demand baseline's, in minutes. The cost claim is only
/// interesting at bounded service regression.
pub const P95_SLACK_MINS: f64 = 2.0;

/// One cell of the grid: the fleet mix and market it ran under, plus the
/// measured episode.
#[derive(Debug, Clone)]
pub struct SpotGridRow {
    /// Fraction of the fleet cap running on spot (`0.0` = the baseline).
    pub spot_fraction: f64,
    /// Mean minutes between market strikes; `None` is a calm market.
    pub mean_preemption_mins: Option<u64>,
    /// The measured episode.
    pub report: SpotEpisodeReport,
}

impl SpotGridRow {
    /// Render the market column.
    pub fn market_label(&self) -> String {
        match self.mean_preemption_mins {
            None => "calm".to_string(),
            Some(m) => format!("~1/{m}min"),
        }
    }

    /// Render the fleet-mix column.
    pub fn fleet_label(&self) -> String {
        if self.spot_fraction <= 0.0 {
            "all on-demand".to_string()
        } else {
            format!("{:.0}% spot", self.spot_fraction * 100.0)
        }
    }
}

/// The grid's combos in report order: the all-on-demand baseline first,
/// then every spot fraction under every market. `quick` trims the grid to
/// the baseline plus the all-spot column (the CI smoke shape).
pub fn grid_combos(quick: bool) -> Vec<(f64, Option<u64>)> {
    let fractions: &[f64] = if quick { &[1.0] } else { &[0.5, 1.0] };
    let intervals: &[Option<u64>] = if quick {
        &[None, Some(15)]
    } else {
        &[None, Some(60), Some(15)]
    };
    let mut combos = vec![(0.0, None)];
    for &f in fractions {
        for &i in intervals {
            combos.push((f, i));
        }
    }
    combos
}

/// The E9e closed-loop policy wrapped with a spot mix: one c1.medium per
/// 3 backlogged jobs, capped at [`MAX_WORKERS`], hysteresis cooldowns as
/// in E9e, and `fraction` of the cap eligible for spot.
fn spot_policy(fraction: f64) -> SpotMix<Hysteresis<QueueStep>> {
    SpotMix::new(
        Hysteresis::new(
            QueueStep::new(3),
            HysteresisConfig {
                min_workers: 0,
                max_workers: MAX_WORKERS,
                scale_out_cooldown: SimDuration::from_mins(3),
                scale_in_cooldown: SimDuration::from_mins(6),
            },
        ),
        SpotMixConfig {
            spot_fraction: fraction,
            max_workers: MAX_WORKERS,
        },
    )
}

/// The row that makes the experiment's claim: the cheapest spot row whose
/// p95 wait stays within [`P95_SLACK_MINS`] of the all-on-demand
/// baseline, if any. The grid's check requires one — spot capacity that
/// never pays off, given a calm-market cell in every grid, indicates a
/// pricing-model bug, not a data-dependent outcome.
pub fn dominating_row(rows: &[SpotGridRow]) -> Option<&SpotGridRow> {
    let baseline = &rows[0];
    assert_eq!(baseline.spot_fraction, 0.0, "baseline row must come first");
    rows.iter()
        .skip(1)
        .filter(|r| {
            r.report.base.cost_usd < baseline.report.base.cost_usd
                && r.report.base.wait_p95_mins
                    <= baseline.report.base.wait_p95_mins + P95_SLACK_MINS
        })
        .min_by(|a, b| a.report.base.cost_usd.total_cmp(&b.report.base.cost_usd))
}

/// The claim row of a grid that passed its check.
fn winner(rows: &[SpotGridRow]) -> &SpotGridRow {
    dominating_row(rows).expect("the grid's check found a dominating row")
}

/// E10 on the grid driver: one cell per `(spot fraction, market)` combo,
/// each a spot episode over the E9e diurnal trace.
pub struct SpotGrid;

impl Grid for SpotGrid {
    type Cell = (f64, Option<u64>);
    type Row = SpotGridRow;
    const RESULTS: &'static str = "BENCH_e10.json";

    fn cells(&self, quick: bool) -> Vec<(f64, Option<u64>)> {
        grid_combos(quick)
    }

    fn run(&self, seed: u64, &(fraction, interval): &(f64, Option<u64>), _: bool) -> SpotGridRow {
        let config = SpotEpisodeConfig {
            controller: ControllerConfig::default(),
            mean_preemption_interval: interval.map(SimDuration::from_mins),
            ..SpotEpisodeConfig::default()
        };
        SpotGridRow {
            spot_fraction: fraction,
            mean_preemption_mins: interval,
            report: run_spot_episode(seed, spot_policy(fraction), config, &diurnal_trace(seed)),
        }
    }

    fn check(&self, rows: &[SpotGridRow]) {
        assert!(
            dominating_row(rows).is_some(),
            "some spot mix must beat all-on-demand on cost at bounded p95"
        );
    }

    /// The E10 table plus the domination summary line.
    fn render(&self, rows: &[SpotGridRow]) -> String {
        let mut t = Table::new(
            "E10 — spot fleet vs preemption rate (diurnal trace, closed loop)",
            &[
                "fleet",
                "market",
                "cost ($)",
                "p95 wait (min)",
                "makespan (min)",
                "preempts",
                "requeued",
            ],
        );
        for r in rows {
            t.row(&[
                r.fleet_label(),
                r.market_label(),
                format!("{:.4}", r.report.base.cost_usd),
                mins(r.report.base.wait_p95_mins),
                mins(r.report.base.makespan_mins),
                r.report.preemptions.to_string(),
                r.report.requeued_jobs.to_string(),
            ]);
        }
        let baseline = &rows[0];
        let winner = winner(rows);
        format!(
            "{}\nbest spot mix ({}, {}) cuts cost {:.4} -> {:.4} ({:.0}% saved) with p95 \
             wait {} vs {} on demand — reclaims requeue work and pay the provisioning \
             lag again, so the saving shrinks as the market hardens, but a mixed fleet \
             stays ahead of all-on-demand.\n",
            t.render(),
            winner.fleet_label(),
            winner.market_label(),
            baseline.report.base.cost_usd,
            winner.report.base.cost_usd,
            (1.0 - winner.report.base.cost_usd / baseline.report.base.cost_usd) * 100.0,
            mins(winner.report.base.wait_p95_mins),
            mins(baseline.report.base.wait_p95_mins),
        )
    }

    /// The `BENCH_e10.json` document.
    fn json(&self, seed: u64, rows: &[SpotGridRow]) -> Json {
        let baseline = &rows[0];
        let winner = winner(rows);
        let cells: Vec<Json> = rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("spot_fraction", Json::Num(r.spot_fraction)),
                    (
                        "mean_preemption_mins",
                        match r.mean_preemption_mins {
                            Some(m) => Json::Num(m as f64),
                            None => Json::Null,
                        },
                    ),
                    ("cost_usd", Json::Num(round4(r.report.base.cost_usd))),
                    (
                        "wait_p95_mins",
                        Json::Num(round4(r.report.base.wait_p95_mins)),
                    ),
                    (
                        "makespan_mins",
                        Json::Num(round4(r.report.base.makespan_mins)),
                    ),
                    ("jobs", Json::Num(r.report.base.jobs as f64)),
                    ("preemptions", Json::Num(r.report.preemptions as f64)),
                    ("requeued_jobs", Json::Num(r.report.requeued_jobs as f64)),
                    (
                        "total_evictions",
                        Json::Num(r.report.total_evictions as f64),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("bench", Json::str("e10_spot_preemption_grid")),
            ("seed", Json::Num(seed as f64)),
            ("trace", Json::str(&rows[0].report.base.workload)),
            ("rows", Json::Arr(cells)),
            (
                "baseline_cost_usd",
                Json::Num(round4(baseline.report.base.cost_usd)),
            ),
            (
                "best_spot_cost_usd",
                Json::Num(round4(winner.report.base.cost_usd)),
            ),
            (
                "best_spot_saving_pct",
                Json::Num(round4(
                    (1.0 - winner.report.base.cost_usd / baseline.report.base.cost_usd) * 100.0,
                )),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{gate, pass, Args};

    #[test]
    fn grid_has_baseline_first_and_full_cartesian_after() {
        let full = grid_combos(false);
        assert_eq!(full[0], (0.0, None));
        assert_eq!(full.len(), 1 + 2 * 3);
        let quick = grid_combos(true);
        assert_eq!(quick[0], (0.0, None));
        assert_eq!(quick.len(), 1 + 2);
    }

    #[test]
    fn quick_grid_is_thread_count_invariant_and_dominated() {
        let quick = Args {
            threads: 3,
            quick: true,
            ..Args::default()
        };
        let rows = gate(&SpotGrid, &quick).rows;
        let winner = dominating_row(&rows).expect("a spot row dominates");
        assert!(winner.spot_fraction > 0.0);
        assert!(winner.report.base.cost_usd < rows[0].report.base.cost_usd);
    }

    #[test]
    fn harsher_markets_never_reduce_preemptions_on_all_spot_rows() {
        let full = Args {
            seed: 7507,
            ..Args::default()
        };
        let rows = pass(&SpotGrid, &full);
        let all_spot: Vec<&SpotGridRow> = rows.iter().filter(|r| r.spot_fraction == 1.0).collect();
        // Combo order within a fraction: calm, 60 min, 15 min.
        assert_eq!(all_spot.len(), 3);
        assert_eq!(all_spot[0].report.preemptions, 0, "calm market");
        assert!(all_spot[1].report.preemptions <= all_spot[2].report.preemptions);
        assert!(
            all_spot[2].report.preemptions >= 1,
            "a 15-minute market must strike a 12-hour episode"
        );
        // Every episode still completes its whole trace.
        let jobs = rows[0].report.base.jobs;
        assert!(rows.iter().all(|r| r.report.base.jobs == jobs));
    }

    #[test]
    fn report_renders_with_the_claim_line() {
        let quick = Args {
            seed: 7508,
            quick: true,
            ..Args::default()
        };
        let out = SpotGrid.render(&pass(&SpotGrid, &quick));
        assert!(out.contains("E10"));
        assert!(out.contains("best spot mix"));
    }
}
