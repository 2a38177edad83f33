//! # cumulus-autoscale — closed-loop cluster elasticity
//!
//! The paper's elasticity story (§III.C) is *manual*: an operator watches
//! the Galaxy queue and runs `gp-instance-update` to add or remove Condor
//! workers. This crate closes the loop: a controller running inside the
//! DES samples the pool each tick, asks a pluggable [`ScalingPolicy`] for
//! a desired worker count, and actuates the difference through the
//! provision layer's delta-scaling API — CloudMan-style auto-scaling
//! grafted onto a Globus Provision deployment.
//!
//! Layout:
//! * [`signal`] — sliding-window pool observations (queue depth,
//!   utilization, free slots, wait-time percentiles);
//! * [`policy`] — sizing policies ([`QueueStep`], [`TargetTracking`],
//!   [`Scheduled`], plus the [`OneShot`] open-loop and [`Fixed`] static
//!   baselines) composable under a [`Hysteresis`] wrapper with bounds and
//!   directional cooldowns;
//! * [`forecast`] — online demand forecasting (Holt level/trend EWMA
//!   with an optional phase-of-period seasonal table) and the
//!   [`Predictive`] policy, which provisions for the forecasted backlog
//!   at `now + lead`, the lead learned from actuation feedback;
//! * [`controller`] — the [`AutoScaler`] tick loop: in-flight
//!   reconfiguration tracking (no double-scaling), drain-before-remove
//!   scale-in protection, and a deterministic [`ActivityLog`] audit
//!   trail; plus [`run_episode`], which drives a whole workload through a
//!   deployment inside the DES;
//! * [`spot`] — the cost dimension: a [`SpotMix`] fleet-mix wrapper
//!   (on-demand core, spot tail) and [`run_spot_episode`], the episode
//!   driver that exposes the spot tail to a seeded preemption market and
//!   plays every reclaim out end to end (notice → requeue → repair);
//! * [`workload`] — seeded open-loop arrival generators (burst, Poisson,
//!   diurnal).
//!
//! ```
//! use cumulus_autoscale::prelude::*;
//! use cumulus_htc::WorkSpec;
//! use cumulus_simkit::time::SimDuration;
//!
//! let work = WorkSpec { serial_secs: 112.0, cu_work: 418.0 };
//! let trace = Workload::burst("burst", 6, SimDuration::ZERO, work);
//! let policy = Hysteresis::new(QueueStep::new(2), HysteresisConfig::default());
//! let report = run_episode(42, Box::new(policy), ControllerConfig::default(), &trace);
//! assert_eq!(report.jobs, 6);
//! assert!(report.peak_workers >= 1);
//! ```

#![warn(missing_docs)]

pub mod controller;
pub mod forecast;
pub mod policy;
pub mod signal;
pub mod spot;
pub mod workload;

pub use controller::{
    run_episode, run_sweep, Action, ActivityLog, AutoScaler, ControllerConfig, Decision,
    EpisodeReport, HoldReason,
};
pub use forecast::{ForecastConfig, Forecaster, Predictive, PredictiveConfig, SeasonalConfig};
pub use policy::{
    ActuationFeedback, Fixed, Hysteresis, HysteresisConfig, OneShot, QueueStep, ScalingPolicy,
    Scheduled, TargetTracking,
};
pub use signal::{percentile, SignalSample, SignalWindow};
pub use spot::{run_spot_episode, SpotEpisodeConfig, SpotEpisodeReport, SpotMix, SpotMixConfig};
pub use workload::{JobArrival, Workload};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::controller::{
        run_episode, run_sweep, Action, ActivityLog, AutoScaler, ControllerConfig, Decision,
        EpisodeReport, HoldReason,
    };
    pub use crate::forecast::{
        ForecastConfig, Forecaster, Predictive, PredictiveConfig, SeasonalConfig,
    };
    pub use crate::policy::{
        ActuationFeedback, Fixed, Hysteresis, HysteresisConfig, OneShot, QueueStep, ScalingPolicy,
        Scheduled, TargetTracking,
    };
    pub use crate::signal::{percentile, SignalSample, SignalWindow};
    pub use crate::spot::{
        run_spot_episode, SpotEpisodeConfig, SpotEpisodeReport, SpotMix, SpotMixConfig,
    };
    pub use crate::workload::{JobArrival, Workload};
}
