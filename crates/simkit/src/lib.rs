//! `cumulus-simkit` — a deterministic discrete-event simulation (DES) kernel.
//!
//! This crate is the foundation of the `cumulus` reproduction of
//! *"Deploying Bioinformatics Workflows on Clouds with Galaxy and Globus
//! Provision"* (SC 2012). Every higher-level subsystem — the EC2-like cloud,
//! the Chef-like configuration engine, the Condor-like scheduler, the
//! GridFTP/FTP/HTTP transfer models, and the Galaxy-like workflow platform —
//! runs as event handlers inside the [`Sim`] engine defined here.
//!
//! Design pillars:
//!
//! * **Determinism.** Virtual time only ([`SimTime`]), stable tie-breaking in
//!   the event queue, and named random streams ([`RngStream`]) derived from a
//!   single master seed. Two runs with the same seed produce identical event
//!   traces, and the parallel replica runner preserves this property.
//! * **Speed.** The event queue is a slab of reusable handler slots ordered
//!   by a compact index heap, fronted by a near-future bucket ring that
//!   absorbs dense small-delay scheduling (recurring ticks, service chains)
//!   in O(1); cancellation is an O(1) generation-counter flip. See
//!   [`engine`] for the internals.
//! * **Simplicity over framework-ness.** Events are plain `FnOnce(&mut
//!   Sim<W>)` closures; the world `W` is an ordinary struct owned by the
//!   engine. No actor runtime, no async.
//! * **Measurability.** Every subsystem reports what happened through one
//!   typed [`telemetry`] plane: interned-key [`telemetry::Event`] records
//!   feeding lifecycle spans, derived metrics, and episode reports.
//!   [`Metrics`] is its id-indexed counter/gauge/sample registry;
//!   [`Samples`] summarizes.
//!
//! # Quick example
//!
//! ```
//! use cumulus_simkit::prelude::*;
//!
//! struct World { arrivals: u32 }
//!
//! let mut sim = Sim::new(World { arrivals: 0 });
//! sim.schedule_in(SimDuration::from_secs(5), |sim| {
//!     sim.world.arrivals += 1;
//!     sim.schedule_in(SimDuration::from_secs(5), |sim| sim.world.arrivals += 1);
//! });
//! sim.run_to_completion();
//! assert_eq!(sim.world.arrivals, 2);
//! assert_eq!(sim.now().as_secs(), 10);
//! ```

#![warn(missing_docs)]

pub mod disrupt;
pub mod engine;
pub mod hash;
pub mod metrics;
pub mod retry;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use disrupt::{Disruptable, Disruption, DisruptionKind, DisruptionPlan, InvalidWindow, Window};
pub use engine::{EventId, RunOutcome, Sim};
pub use metrics::{MetricId, Metrics};
pub use retry::{DeadLetterReason, RetryDecision, RetryPolicy, RetryState};
pub use rng::{RngStream, SeedFactory};
pub use runner::{run_replicas, ReplicaPlan};
pub use stats::{relative_error, Samples};
pub use telemetry::{Event, JobBreakdown, Key, Payload, Span, SpanKind, SpanSet, Telemetry};
pub use time::{SimDuration, SimTime};

/// Convenient glob-import of the types nearly every model needs.
pub mod prelude {
    pub use crate::disrupt::{
        Disruptable, Disruption, DisruptionKind, DisruptionPlan, InvalidWindow, Window,
    };
    pub use crate::engine::{EventId, RunOutcome, Sim};
    pub use crate::metrics::{MetricId, Metrics};
    pub use crate::rng::{RngStream, SeedFactory};
    pub use crate::stats::Samples;
    pub use crate::telemetry::{Event, Key, Payload, SpanKind, Telemetry};
    pub use crate::time::{SimDuration, SimTime};
}
