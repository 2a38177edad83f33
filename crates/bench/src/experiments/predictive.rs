//! E12 — predictive vs reactive autoscaling on diurnal traces.
//!
//! Every reactive policy pays the provisioning lead on every ramp: by the
//! time the queue is deep enough to trigger a scale-out, the jobs that
//! made it deep still wait out boot + converge. The
//! [`Predictive`] policy forecasts the
//! backlog at `now + lead` (Holt level/trend plus a phase-of-period
//! seasonal table) and provisions ahead — with `lead` learned online from
//! the controller's own actuation feedback rather than configured.
//!
//! The experiment is a grid: **diurnal period** × **peak arrival rate**
//! (peak/base ratio over a fixed 2/h base), each trace run under the two
//! reactive E9e baselines (queue-step and target-tracking, both under
//! hysteresis) and under the predictive policy. The `(6 h, 60/h)` cell is
//! byte-for-byte the E9e diurnal trace, so the predictive row is directly
//! comparable to the E9e closed-loop row. The claim the report asserts:
//! on that trace the predictive policy's p95 job wait is strictly below
//! the best reactive policy's at no extra cost.

use cumulus::autoscale::{
    run_episode, ControllerConfig, EpisodeReport, ForecastConfig, Hysteresis, HysteresisConfig,
    Predictive, PredictiveConfig, QueueStep, ScalingPolicy, SeasonalConfig, TargetTracking,
    Workload,
};
use cumulus::provision::json::Json;
use cumulus::simkit::time::SimDuration;

use crate::experiments::extensions::diurnal_trace;
use crate::grid::{round4, Grid};
use crate::table::{mins, Table};

/// Fleet cap shared with the E9e closed-loop policy.
const MAX_WORKERS: usize = 8;

/// Policies per grid trace, in report order: queue-step, target-tracking,
/// predictive.
pub const POLICIES: usize = 3;

/// One trace of the grid: its diurnal shape plus the measured episodes.
#[derive(Debug, Clone)]
pub struct PredictiveGridRow {
    /// Diurnal period, hours.
    pub period_hours: u64,
    /// Peak arrival rate, jobs/hour (base is 2/h everywhere).
    pub peak_per_hour: f64,
    /// The measured episode.
    pub report: EpisodeReport,
}

impl PredictiveGridRow {
    /// Render the trace column.
    pub fn trace_label(&self) -> String {
        format!("{}h x{:.0}", self.period_hours, self.peak_per_hour / 2.0)
    }

    /// Whether this cell ran the exact E9e diurnal trace.
    pub fn is_e9e_trace(&self) -> bool {
        self.period_hours == 6 && self.peak_per_hour == 60.0
    }
}

/// The grid's trace shapes in report order as `(period_hours,
/// peak_per_hour)`. The E9e shape `(6, 60)` is always present — it is the
/// cell the domination claim is made on — and `quick` trims the grid to
/// just that cell (the CI smoke shape).
pub fn grid_shapes(quick: bool) -> Vec<(u64, f64)> {
    if quick {
        vec![(6, 60.0)]
    } else {
        vec![(4, 30.0), (4, 60.0), (6, 30.0), (6, 60.0)]
    }
}

/// The trace for one grid shape. The `(6, 60)` shape reuses
/// [`diurnal_trace`] verbatim so its rows are comparable with E9e and
/// E10; other shapes vary one knob at a time around it.
fn shape_trace(seed: u64, period_hours: u64, peak_per_hour: f64) -> Workload {
    if period_hours == 6 && peak_per_hour == 60.0 {
        return diurnal_trace(seed);
    }
    let work = cumulus::htc::WorkSpec {
        serial_secs: 60.0,
        cu_work: 240.0,
    };
    Workload::diurnal(
        &format!("diurnal-12h-{period_hours}h-x{:.0}", peak_per_hour / 2.0),
        seed,
        2.0,
        peak_per_hour,
        SimDuration::from_hours(period_hours),
        SimDuration::from_hours(12),
        work,
    )
    .with_initial_burst(4, work)
}

/// The E9e closed-loop baseline: one c1.medium per 3 backlogged jobs
/// under hysteresis (identical to E9e/E10, so rows line up).
fn queue_step_reactive() -> Box<dyn ScalingPolicy> {
    Box::new(Hysteresis::new(
        QueueStep::new(3),
        HysteresisConfig {
            min_workers: 0,
            max_workers: MAX_WORKERS,
            scale_out_cooldown: SimDuration::from_mins(3),
            scale_in_cooldown: SimDuration::from_mins(6),
        },
    ))
}

/// The second reactive baseline: hold utilization near 70%, same
/// hysteresis envelope.
fn target_tracking_reactive() -> Box<dyn ScalingPolicy> {
    Box::new(Hysteresis::new(
        TargetTracking::new(0.7),
        HysteresisConfig {
            min_workers: 0,
            max_workers: MAX_WORKERS,
            scale_out_cooldown: SimDuration::from_mins(3),
            scale_in_cooldown: SimDuration::from_mins(6),
        },
    ))
}

/// The predictive policy for a trace of the given period: same sizing
/// ratio and fleet cap as the queue-step baseline, plus a seasonal table
/// keyed to the trace's period. Runs bare — EWMA smoothing takes the
/// place of hysteresis cooldowns.
fn predictive(period_hours: u64) -> Box<dyn ScalingPolicy> {
    Box::new(Predictive::new(PredictiveConfig {
        jobs_per_worker: 2,
        min_workers: 0,
        max_workers: MAX_WORKERS,
        initial_lead: SimDuration::from_mins(8),
        lead_smoothing: 0.5,
        forecast: ForecastConfig {
            alpha: 0.4,
            beta: 0.25,
            seasonal: Some(SeasonalConfig::quarter_hourly(SimDuration::from_hours(
                period_hours,
            ))),
        },
    }))
}

/// The `i`-th policy of a trace's sweep (order per [`POLICIES`]).
fn grid_policy(i: usize, period_hours: u64) -> Box<dyn ScalingPolicy> {
    match i {
        0 => queue_step_reactive(),
        1 => target_tracking_reactive(),
        _ => predictive(period_hours),
    }
}

/// The rows that make the experiment's claim, from the E9e-trace cell:
/// `(best_reactive, predictive)` where "best reactive" is the reactive
/// row with the lower p95 wait (ties broken on cost).
pub fn dominating_pair(rows: &[PredictiveGridRow]) -> (&PredictiveGridRow, &PredictiveGridRow) {
    let cell: Vec<&PredictiveGridRow> = rows.iter().filter(|r| r.is_e9e_trace()).collect();
    assert_eq!(cell.len(), POLICIES, "the E9e trace must be in the grid");
    let predictive = cell[POLICIES - 1];
    assert!(
        predictive.report.policy.starts_with("predictive"),
        "policy order changed"
    );
    let best_reactive = cell[..POLICIES - 1]
        .iter()
        .copied()
        .min_by(|a, b| {
            a.report
                .wait_p95_mins
                .total_cmp(&b.report.wait_p95_mins)
                .then(a.report.cost_usd.total_cmp(&b.report.cost_usd))
        })
        .expect("two reactive rows");
    (best_reactive, predictive)
}

/// E12 on the grid driver: one cell per `(period, peak, policy)`, in
/// shape-major, policy-minor order.
pub struct PredictiveGrid;

impl Grid for PredictiveGrid {
    /// `(period_hours, peak_per_hour, policy index)`.
    type Cell = (u64, f64, usize);
    type Row = PredictiveGridRow;
    const RESULTS: &'static str = "BENCH_e12.json";

    fn cells(&self, quick: bool) -> Vec<(u64, f64, usize)> {
        grid_shapes(quick)
            .into_iter()
            .flat_map(|(period, peak)| (0..POLICIES).map(move |i| (period, peak, i)))
            .collect()
    }

    fn run(&self, seed: u64, &(period, peak, i): &(u64, f64, usize), _: bool) -> PredictiveGridRow {
        PredictiveGridRow {
            period_hours: period,
            peak_per_hour: peak,
            report: run_episode(
                seed,
                grid_policy(i, period),
                ControllerConfig::default(),
                &shape_trace(seed, period, peak),
            ),
        }
    }

    /// The predictive row must strictly beat the best reactive p95 at
    /// less-or-equal cost: provisioning ahead of a *known-periodic* trace
    /// must pay off, so a regression here is a forecaster bug, not a
    /// data-dependent outcome.
    fn check(&self, rows: &[PredictiveGridRow]) {
        let (best_reactive, predictive) = dominating_pair(rows);
        assert!(
            predictive.report.wait_p95_mins < best_reactive.report.wait_p95_mins
                && predictive.report.cost_usd <= best_reactive.report.cost_usd,
            "predictive (p95 {} min, ${:.4}) must strictly beat the best reactive \
             policy {} (p95 {} min, ${:.4}) on the diurnal trace",
            predictive.report.wait_p95_mins,
            predictive.report.cost_usd,
            best_reactive.report.policy,
            best_reactive.report.wait_p95_mins,
            best_reactive.report.cost_usd,
        );
    }

    /// The E12 table plus the domination summary line.
    fn render(&self, rows: &[PredictiveGridRow]) -> String {
        let mut t = Table::new(
            "E12 — predictive vs reactive scaling on diurnal traces (period x peak/base)",
            &[
                "trace",
                "policy",
                "cost ($)",
                "p50 wait (min)",
                "p95 wait (min)",
                "makespan (min)",
                "peak workers",
                "scale out/in",
            ],
        );
        for r in rows {
            t.row(&[
                r.trace_label(),
                r.report.policy.clone(),
                format!("{:.4}", r.report.cost_usd),
                mins(r.report.wait_p50_mins),
                mins(r.report.wait_p95_mins),
                mins(r.report.makespan_mins),
                r.report.peak_workers.to_string(),
                format!("{}/{}", r.report.log.scale_outs(), r.report.log.scale_ins()),
            ]);
        }
        let (reactive, predictive) = dominating_pair(rows);
        format!(
            "{}\non the E9e diurnal trace the predictive policy cuts p95 wait {} -> {} \
         at cost ${:.4} vs ${:.4} for the best reactive policy ({}): the forecaster \
         sees each ramp coming and pays the provisioning lead *before* the jobs \
         arrive, with the lead itself learned from the controller's own actuation \
         feedback rather than configured.\n",
            t.render(),
            mins(reactive.report.wait_p95_mins),
            mins(predictive.report.wait_p95_mins),
            predictive.report.cost_usd,
            reactive.report.cost_usd,
            reactive.report.policy,
        )
    }

    /// The `BENCH_e12.json` document.
    fn json(&self, seed: u64, rows: &[PredictiveGridRow]) -> Json {
        let (reactive, predictive) = dominating_pair(rows);
        let cells: Vec<Json> = rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("period_hours", Json::Num(r.period_hours as f64)),
                    ("peak_per_hour", Json::Num(r.peak_per_hour)),
                    ("policy", Json::str(&r.report.policy)),
                    ("cost_usd", Json::Num(round4(r.report.cost_usd))),
                    ("wait_p50_mins", Json::Num(round4(r.report.wait_p50_mins))),
                    ("wait_p95_mins", Json::Num(round4(r.report.wait_p95_mins))),
                    ("makespan_mins", Json::Num(round4(r.report.makespan_mins))),
                    ("jobs", Json::Num(r.report.jobs as f64)),
                    ("peak_workers", Json::Num(r.report.peak_workers as f64)),
                    ("scale_outs", Json::Num(r.report.log.scale_outs() as f64)),
                    ("scale_ins", Json::Num(r.report.log.scale_ins() as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("bench", Json::str("e12_predictive_grid")),
            ("seed", Json::Num(seed as f64)),
            ("rows", Json::Arr(cells)),
            ("best_reactive_policy", Json::str(&reactive.report.policy)),
            (
                "best_reactive_p95_mins",
                Json::Num(round4(reactive.report.wait_p95_mins)),
            ),
            (
                "best_reactive_cost_usd",
                Json::Num(round4(reactive.report.cost_usd)),
            ),
            (
                "predictive_p95_mins",
                Json::Num(round4(predictive.report.wait_p95_mins)),
            ),
            (
                "predictive_cost_usd",
                Json::Num(round4(predictive.report.cost_usd)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{gate, pass, Args};

    #[test]
    fn grid_always_contains_the_e9e_shape() {
        assert!(grid_shapes(false).contains(&(6, 60.0)));
        assert_eq!(grid_shapes(true), vec![(6, 60.0)]);
    }

    #[test]
    fn e9e_shape_reuses_the_e9e_trace_verbatim() {
        let ours = shape_trace(crate::REPORT_SEED, 6, 60.0);
        let e9e = diurnal_trace(crate::REPORT_SEED);
        assert_eq!(ours.name, e9e.name);
        assert_eq!(ours.arrivals.len(), e9e.arrivals.len());
    }

    #[test]
    fn quick_grid_is_thread_count_invariant_and_dominated() {
        let quick = Args {
            threads: 3,
            quick: true,
            ..Args::default()
        };
        let rows = gate(&PredictiveGrid, &quick).rows;
        let (reactive, predictive) = dominating_pair(&rows);
        assert!(predictive.report.wait_p95_mins < reactive.report.wait_p95_mins);
        assert!(predictive.report.cost_usd <= reactive.report.cost_usd);
    }

    #[test]
    fn predictive_learns_the_lead_and_scales_ahead() {
        let quick = Args {
            quick: true,
            ..Args::default()
        };
        let rows = pass(&PredictiveGrid, &quick);
        let p = rows
            .iter()
            .find(|r| r.report.policy.starts_with("predictive"))
            .unwrap();
        // The predictive episode must actually exercise the loop — both
        // directions — and complete the whole trace.
        assert!(p.report.log.scale_outs() >= 1);
        assert!(p.report.log.scale_ins() >= 1);
        assert_eq!(p.report.jobs, rows[0].report.jobs);
    }

    #[test]
    fn report_renders_with_the_claim_line() {
        // The domination claim is made (and recorded in BENCH_e12.json) at
        // the report seed; at an arbitrary seed the p95 margin is noise.
        let quick = Args {
            quick: true,
            ..Args::default()
        };
        let out = PredictiveGrid.render(&pass(&PredictiveGrid, &quick));
        assert!(out.contains("E12"));
        assert!(out.contains("predictive"));
    }
}
