//! Demand forecasting and the predictive scaling policy.
//!
//! Every reactive policy pays the provisioning lead time on every
//! scale-out: capacity requested when the queue is already deep arrives
//! minutes later, and the jobs that triggered it wait out the whole
//! boot-and-converge window. On a diurnal trace that reactive lag shows
//! up as inflated p95 wait at the start of every ramp (the E9e numbers).
//!
//! This module removes the lag by provisioning *ahead* of demand:
//!
//! * [`Forecaster`] — an online Holt (EWMA level + trend) model of the
//!   demand signal, with an optional additive seasonal table keyed by
//!   phase-of-period for traces with a known cycle (the diurnal day);
//! * [`Predictive`] — a [`ScalingPolicy`] that feeds the forecaster each
//!   control tick and sizes the fleet for the *forecasted* backlog at
//!   `now + lead`, where `lead` is the decision-to-ready scale-out
//!   latency learned from the controller's own actuation feedback
//!   ([`observe_actuation`][ScalingPolicy::observe_actuation] `done_at`),
//!   not a hand-tuned constant.
//!
//! The policy stays a pure sizing function: the controller still clamps,
//! drains, and serializes reconfigurations. Determinism is untouched —
//! the forecaster is plain arithmetic over the signal window, so episode
//! logs remain byte-identical for a seed at any thread count.

use cumulus_simkit::time::{SimDuration, SimTime};

use crate::policy::{ActuationFeedback, ScalingPolicy};
use crate::signal::SignalWindow;

/// Seasonal decomposition parameters for [`Forecaster`].
#[derive(Debug, Clone)]
pub struct SeasonalConfig {
    /// The cycle length (e.g. 24 h for a diurnal trace).
    pub period: SimDuration,
    /// Number of phase bins the period is split into. More bins resolve
    /// sharper daily shapes but need more cycles to converge.
    pub bins: usize,
    /// Smoothing weight for the seasonal table, in `(0, 1]`.
    pub gamma: f64,
}

impl SeasonalConfig {
    /// A seasonal table over `period` with a bin per ~15 minutes
    /// (at least 4 bins) and moderate smoothing.
    pub fn quarter_hourly(period: SimDuration) -> SeasonalConfig {
        let bins = ((period.as_secs_f64() / 900.0).round() as usize).max(4);
        SeasonalConfig {
            period,
            bins,
            gamma: 0.3,
        }
    }
}

/// Holt smoothing parameters for [`Forecaster`].
#[derive(Debug, Clone)]
pub struct ForecastConfig {
    /// Level smoothing weight, in `(0, 1]`. Higher tracks faster.
    pub alpha: f64,
    /// Trend smoothing weight, in `(0, 1]`.
    pub beta: f64,
    /// Optional additive seasonal table (phase-of-period components).
    pub seasonal: Option<SeasonalConfig>,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        ForecastConfig {
            alpha: 0.4,
            beta: 0.25,
            seasonal: None,
        }
    }
}

/// Online Holt level + trend forecaster with an optional additive
/// seasonal table.
///
/// Observations arrive one per control tick; the model is O(1) state and
/// O(1) per observation. The trend is kept per *second* so forecasts at
/// arbitrary horizons (and irregular observation gaps) need no notion of
/// a tick length.
#[derive(Debug, Clone)]
pub struct Forecaster {
    /// The active smoothing parameters.
    pub config: ForecastConfig,
    level: f64,
    /// Demand change per second.
    trend_per_sec: f64,
    last_at: Option<SimTime>,
    epoch: Option<SimTime>,
    /// Additive seasonal component per phase bin (empty without a
    /// seasonal config).
    season: Vec<f64>,
}

impl Forecaster {
    /// A forecaster with the given smoothing parameters (weights clamped
    /// to `(0, 1]`; a seasonal `bins` of zero disables the table).
    pub fn new(config: ForecastConfig) -> Forecaster {
        let mut config = ForecastConfig {
            alpha: config.alpha.clamp(0.01, 1.0),
            beta: config.beta.clamp(0.01, 1.0),
            ..config
        };
        if let Some(s) = &config.seasonal {
            if s.bins == 0 || s.period <= SimDuration::ZERO {
                config.seasonal = None;
            }
        }
        let season = config
            .seasonal
            .as_ref()
            .map(|s| vec![0.0; s.bins])
            .unwrap_or_default();
        Forecaster {
            config,
            level: 0.0,
            trend_per_sec: 0.0,
            last_at: None,
            epoch: None,
            season,
        }
    }

    /// The current deseasonalized level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The current trend, in demand units per second.
    pub fn trend_per_sec(&self) -> f64 {
        self.trend_per_sec
    }

    fn bin_of(&self, at: SimTime) -> Option<usize> {
        let s = self.config.seasonal.as_ref()?;
        let epoch = self.epoch?;
        let period_us = s.period.as_micros();
        let phase = at.since(epoch).as_micros() % period_us;
        Some(((phase as u128 * s.bins as u128) / period_us as u128) as usize % s.bins)
    }

    fn season_at(&self, at: SimTime) -> f64 {
        self.bin_of(at)
            .and_then(|b| self.season.get(b).copied())
            .unwrap_or(0.0)
    }

    /// Absorb one observation of the demand signal at `at`. Observations
    /// must arrive in nondecreasing time order (control ticks do); a
    /// repeated timestamp only refreshes the level.
    pub fn observe(&mut self, at: SimTime, value: f64) {
        if !value.is_finite() {
            return; // a poisoned sample must not corrupt the model
        }
        self.epoch.get_or_insert(at);
        let deseason = value - self.season_at(at);
        match self.last_at {
            None => {
                self.level = deseason.max(0.0);
                self.trend_per_sec = 0.0;
            }
            Some(last) => {
                let dt = at.since(last).as_secs_f64();
                let predicted = self.level + self.trend_per_sec * dt;
                let new_level =
                    self.config.alpha * deseason + (1.0 - self.config.alpha) * predicted;
                if dt > 0.0 {
                    let observed_trend = (new_level - self.level) / dt;
                    self.trend_per_sec = self.config.beta * observed_trend
                        + (1.0 - self.config.beta) * self.trend_per_sec;
                }
                self.level = new_level;
            }
        }
        self.last_at = Some(at);
        if let (Some(bin), Some(s)) = (self.bin_of(at), self.config.seasonal.as_ref()) {
            let residual = value - self.level;
            self.season[bin] = s.gamma * residual + (1.0 - s.gamma) * self.season[bin];
        }
    }

    /// Forecast the demand at `at` (typically `now + lead`). Linear
    /// level + trend extrapolation from the last observation, plus the
    /// seasonal component of the target phase; floored at zero — demand
    /// cannot be negative. Unprimed forecasters report zero.
    pub fn forecast(&self, at: SimTime) -> f64 {
        let Some(last) = self.last_at else {
            return 0.0;
        };
        let horizon = at.since(last).as_secs_f64();
        (self.level + self.trend_per_sec * horizon + self.season_at(at)).max(0.0)
    }
}

/// Parameters for [`Predictive`].
#[derive(Debug, Clone)]
pub struct PredictiveConfig {
    /// Backlog each worker is expected to absorb (as
    /// [`QueueStep`][crate::policy::QueueStep]).
    pub jobs_per_worker: usize,
    /// Never fewer workers than this.
    pub min_workers: usize,
    /// Never more workers than this.
    pub max_workers: usize,
    /// Prior on the scale-out decision-to-ready latency, used until the
    /// first actuation feedback arrives.
    pub initial_lead: SimDuration,
    /// EWMA weight for learned lead observations, in `(0, 1]`.
    pub lead_smoothing: f64,
    /// Forecaster smoothing (and optional seasonal table).
    pub forecast: ForecastConfig,
}

impl Default for PredictiveConfig {
    fn default() -> Self {
        PredictiveConfig {
            jobs_per_worker: 3,
            min_workers: 0,
            max_workers: 8,
            initial_lead: SimDuration::from_mins(8),
            lead_smoothing: 0.5,
            forecast: ForecastConfig::default(),
        }
    }
}

/// Forecast-ahead scaling: size the fleet for the demand expected when a
/// scale-out issued *now* would come online.
///
/// Each tick the policy feeds the observed backlog into its
/// [`Forecaster`] and converts the forecast at `now + lead` into a
/// worker target (`ceil(demand / jobs_per_worker)`, clamped to the
/// configured bounds). `lead` starts at the configured prior and is
/// re-estimated from every scale-out's actuation feedback — the
/// controller reports `done_at` when it issues the reconfiguration, so
/// the policy learns the *actual* boot + converge latency of the fleet
/// it is driving rather than trusting a constant.
///
/// Two safety rails keep the forecast honest:
///
/// * the target never drops below what the *observed* backlog requires
///   (`ceil(backlog / jobs_per_worker)`) — the forecast only ever adds
///   capacity ahead of need, so a wrong low forecast cannot starve
///   queued work;
/// * smoothing (EWMA level/trend) means single-tick spikes move the
///   target a little, not all the way, so the bare policy does not flap
///   even without a [`Hysteresis`][crate::policy::Hysteresis] wrapper.
#[derive(Debug, Clone)]
pub struct Predictive {
    /// The active configuration.
    pub config: PredictiveConfig,
    forecaster: Forecaster,
    lead_secs: f64,
    lead_learned: bool,
}

impl Predictive {
    /// A predictive policy under `config`.
    pub fn new(config: PredictiveConfig) -> Predictive {
        let forecaster = Forecaster::new(config.forecast.clone());
        let lead_secs = config.initial_lead.as_secs_f64();
        Predictive {
            config,
            forecaster,
            lead_secs,
            lead_learned: false,
        }
    }

    /// The lead time the policy currently provisions ahead by.
    pub fn lead(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.lead_secs)
    }

    /// Whether the lead has been learned from actuation feedback (vs the
    /// configured prior).
    pub fn lead_learned(&self) -> bool {
        self.lead_learned
    }

    /// Read access to the underlying forecaster.
    pub fn forecaster(&self) -> &Forecaster {
        &self.forecaster
    }
}

impl ScalingPolicy for Predictive {
    fn name(&self) -> String {
        let seasonal = if self.config.forecast.seasonal.is_some() {
            "+seasonal"
        } else {
            ""
        };
        format!("predictive/{}{}", self.config.jobs_per_worker, seasonal)
    }

    fn desired_workers(&mut self, window: &SignalWindow) -> usize {
        let Some(latest) = window.latest() else {
            return self.config.min_workers;
        };
        let now = latest.at;
        let backlog = latest.backlog() as f64;
        self.forecaster.observe(now, backlog);

        let horizon = now + SimDuration::from_secs_f64(self.lead_secs);
        let demand = self.forecaster.forecast(horizon);
        let jpw = self.config.jobs_per_worker.max(1);
        let ahead = (demand / jpw as f64).ceil() as usize;
        // Reactive floor: the forecast only ever *adds* capacity ahead of
        // need — a low forecast must never undercut what the backlog
        // already observed requires, or queued work stalls on a model miss.
        let present = (backlog / jpw as f64).ceil() as usize;
        ahead
            .max(present)
            .clamp(self.config.min_workers, self.config.max_workers)
    }

    fn observe_actuation(&mut self, feedback: &ActuationFeedback) {
        if !feedback.is_scale_out() {
            return;
        }
        let observed = feedback.lead().as_secs_f64();
        if self.lead_learned {
            let w = self.config.lead_smoothing.clamp(0.01, 1.0);
            self.lead_secs = w * observed + (1.0 - w) * self.lead_secs;
        } else {
            self.lead_secs = observed;
            self.lead_learned = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{SignalSample, SignalWindow};

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn window_with(at_secs: u64, queue: usize, running: usize, workers: usize) -> SignalWindow {
        let mut w = SignalWindow::new(4);
        w.push(SignalSample {
            at: t(at_secs),
            queue_depth: queue,
            running,
            workers,
            free_slots: 0,
            utilization: 0.0,
            wait_p50_secs: 0.0,
            wait_p95_secs: 0.0,
        });
        w
    }

    #[test]
    fn forecaster_tracks_a_constant_signal() {
        let mut f = Forecaster::new(ForecastConfig::default());
        for k in 0..20u64 {
            f.observe(t(60 * k), 12.0);
        }
        assert!((f.level() - 12.0).abs() < 1e-6, "level={}", f.level());
        assert!(f.trend_per_sec().abs() < 1e-9);
        assert!((f.forecast(t(20 * 60 + 600)) - 12.0).abs() < 1e-6);
    }

    #[test]
    fn forecaster_extrapolates_a_linear_ramp() {
        // Signal grows 2 per minute; the forecast 5 minutes out must see
        // roughly 10 more than the latest observation.
        let mut f = Forecaster::new(ForecastConfig {
            alpha: 0.5,
            beta: 0.5,
            seasonal: None,
        });
        for k in 0..30u64 {
            f.observe(t(60 * k), 2.0 * k as f64);
        }
        let last = 2.0 * 29.0;
        let ahead = f.forecast(t(29 * 60 + 300));
        assert!(
            (ahead - (last + 10.0)).abs() < 3.0,
            "ahead={ahead}, want ~{}",
            last + 10.0
        );
    }

    #[test]
    fn forecast_never_goes_negative() {
        let mut f = Forecaster::new(ForecastConfig::default());
        for k in 0..10u64 {
            f.observe(t(60 * k), 50.0 - 5.0 * k as f64);
        }
        assert_eq!(f.forecast(t(3 * 3600)), 0.0, "demand cannot be negative");
    }

    #[test]
    fn forecaster_ignores_poisoned_samples() {
        let mut f = Forecaster::new(ForecastConfig::default());
        f.observe(t(0), 5.0);
        f.observe(t(60), f64::NAN);
        f.observe(t(120), f64::INFINITY);
        assert!((f.forecast(t(180)) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn seasonal_table_learns_the_cycle() {
        // A square-wave day: 0 in the first half-period, 20 in the
        // second. After a few cycles the seasonal forecast at a
        // high-phase time must clearly exceed one at a low-phase time.
        let period = SimDuration::from_hours(2);
        let mut f = Forecaster::new(ForecastConfig {
            alpha: 0.2,
            beta: 0.05,
            seasonal: Some(SeasonalConfig {
                period,
                bins: 8,
                gamma: 0.5,
            }),
        });
        let period_s = period.as_secs_f64() as u64;
        for k in 0..(6 * period_s / 300) {
            let at = t(300 * k);
            let phase = (300 * k) % period_s;
            let v = if phase < period_s / 2 { 0.0 } else { 20.0 };
            f.observe(at, v);
        }
        let last = 6 * period_s / 300 * 300;
        // Forecast one full period ahead at both phases.
        let low = f.forecast(t(last + period_s / 4));
        let high = f.forecast(t(last + 3 * period_s / 4));
        assert!(
            high > low + 5.0,
            "seasonal shape not learned: low={low} high={high}"
        );
    }

    fn ramp_config() -> PredictiveConfig {
        PredictiveConfig {
            jobs_per_worker: 3,
            min_workers: 0,
            max_workers: 100,
            initial_lead: SimDuration::from_mins(8),
            lead_smoothing: 0.5,
            forecast: ForecastConfig {
                alpha: 0.6,
                beta: 0.5,
                seasonal: None,
            },
        }
    }

    #[test]
    fn predictive_sizes_for_the_forecast_not_the_present() {
        let mut p = Predictive::new(ramp_config());
        // Ramp: backlog grows 3 per tick. With a 8-minute lead the policy
        // must ask for more than the present backlog needs.
        let mut last = 0;
        for k in 0..10u64 {
            let backlog = (3 * k) as usize;
            last = p.desired_workers(&window_with(60 * k, backlog, 0, last));
        }
        let present_need = (27f64 / 3.0).ceil() as usize;
        assert!(
            last > present_need,
            "predictive target {last} did not lead the ramp (present need {present_need})"
        );
    }

    #[test]
    fn predictive_learns_the_lead_from_feedback() {
        let mut p = Predictive::new(PredictiveConfig::default());
        assert!(!p.lead_learned());
        assert_eq!(p.lead(), SimDuration::from_mins(8));
        p.observe_actuation(&ActuationFeedback {
            at: t(0),
            from: 0,
            to: 4,
            done_at: t(360),
        });
        assert!(p.lead_learned());
        assert_eq!(p.lead(), SimDuration::from_secs(360));
        // Scale-ins carry no boot latency signal and must not move it.
        p.observe_actuation(&ActuationFeedback {
            at: t(600),
            from: 4,
            to: 2,
            done_at: t(601),
        });
        assert_eq!(p.lead(), SimDuration::from_secs(360));
        // A second scale-out blends in (EWMA, weight 0.5).
        p.observe_actuation(&ActuationFeedback {
            at: t(1200),
            from: 2,
            to: 6,
            done_at: t(1200 + 480),
        });
        assert_eq!(p.lead(), SimDuration::from_secs(420));
    }

    #[test]
    fn predictive_keeps_a_reactive_floor_for_queued_work() {
        let mut p = Predictive::new(PredictiveConfig::default());
        // Long-idle system: forecast is zero. A job appears — the floor
        // must provide at least one worker even though the forecast says
        // the demand is gone.
        for k in 0..5u64 {
            p.desired_workers(&window_with(60 * k, 0, 0, 0));
        }
        assert_eq!(p.desired_workers(&window_with(300, 1, 0, 0)), 1);
    }

    #[test]
    fn predictive_names_are_stable() {
        assert_eq!(
            Predictive::new(PredictiveConfig::default()).name(),
            "predictive/3"
        );
        let seasonal = PredictiveConfig {
            forecast: ForecastConfig {
                seasonal: Some(SeasonalConfig::quarter_hourly(SimDuration::from_hours(6))),
                ..ForecastConfig::default()
            },
            ..PredictiveConfig::default()
        };
        assert_eq!(Predictive::new(seasonal).name(), "predictive/3+seasonal");
    }
}
