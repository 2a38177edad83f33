//! The cross-layer disruption plane.
//!
//! Every layer of the stack can lose something: a network path goes down
//! for a while, a spot instance is preempted with a short notice, a disk
//! or host simply dies. Historically each crate modeled its own failure
//! mode ad hoc (`cumulus-net` had outage windows, `cumulus-cloud` a
//! hard-kill, `cumulus-htc` machine eviction); this module unifies them
//! behind one seam:
//!
//! * [`Disruption`] — a single scheduled failure event: *what* happens
//!   ([`DisruptionKind`]) and *when* (plus an optional recovery time for
//!   window-shaped disruptions).
//! * [`DisruptionPlan`] — a deterministic timeline of disruptions, built
//!   from explicit windows or drawn from a seeded Poisson process. Plans
//!   are plain data: they can be inspected, merged, and scheduled into a
//!   [`Sim`] without touching any component state.
//! * [`Disruptable`] — the trait a component implements to receive
//!   disruptions. The driver owns the plan, the component owns the
//!   reaction; the trait is the contract between them.
//!
//! `cumulus-transfer` installs a [`DisruptionPlan`]'s outage windows on
//! network paths; `cumulus-cloud` implements [`Disruptable`] for its
//! EC2 model (preemption with notice, hardware failure), and
//! `cumulus-htc` for its Condor pool (machine eviction with job requeue).

use crate::engine::Sim;
use crate::rng::RngStream;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Error returned when a window's end precedes its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidWindow {
    /// The (claimed) start of the window.
    pub start: SimTime,
    /// The (claimed) end of the window — earlier than `start`.
    pub end: SimTime,
}

impl fmt::Display for InvalidWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid disruption window: end {} precedes start {}",
            self.end, self.start
        )
    }
}

impl std::error::Error for InvalidWindow {}

/// A half-open time window `[start, end)` during which something is down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// When the disruption begins.
    pub start: SimTime,
    /// When the disrupted thing recovers.
    pub end: SimTime,
}

impl Window {
    /// Construct a window, rejecting `end < start` with a typed error.
    pub fn new(start: SimTime, end: SimTime) -> Result<Self, InvalidWindow> {
        if end < start {
            return Err(InvalidWindow { start, end });
        }
        Ok(Window { start, end })
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// How long the window lasts.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// What kind of failure a disruption represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DisruptionKind {
    /// A temporary loss of availability (network path down, service
    /// unreachable). Window-shaped: recovery happens at a known time.
    Outage,
    /// A spot-style instance reclaim: the capacity is revoked after a
    /// short interruption notice and never comes back by itself.
    Preemption,
    /// A hard hardware failure: immediate, no notice, no recovery.
    HardwareFailure,
}

impl fmt::Display for DisruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DisruptionKind::Outage => "outage",
            DisruptionKind::Preemption => "preemption",
            DisruptionKind::HardwareFailure => "hardware-failure",
        };
        f.write_str(s)
    }
}

/// One scheduled failure event on a [`DisruptionPlan`] timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disruption {
    /// When the disruption strikes.
    pub at: SimTime,
    /// What kind of failure it is.
    pub kind: DisruptionKind,
    /// When the disrupted thing recovers, for window-shaped disruptions
    /// ([`DisruptionKind::Outage`]). `None` for terminal events
    /// (preemption, hardware failure).
    pub until: Option<SimTime>,
}

impl Disruption {
    /// An outage over `window`.
    pub fn outage(window: Window) -> Self {
        Disruption {
            at: window.start,
            kind: DisruptionKind::Outage,
            until: Some(window.end),
        }
    }

    /// A preemption striking at `at` (notice handling is up to the
    /// disrupted component).
    pub fn preemption(at: SimTime) -> Self {
        Disruption {
            at,
            kind: DisruptionKind::Preemption,
            until: None,
        }
    }

    /// A hardware failure striking at `at`.
    pub fn hardware_failure(at: SimTime) -> Self {
        Disruption {
            at,
            kind: DisruptionKind::HardwareFailure,
            until: None,
        }
    }

    /// The down-window for window-shaped disruptions.
    pub fn window(&self) -> Option<Window> {
        self.until.map(|end| Window {
            start: self.at,
            end,
        })
    }
}

/// A deterministic timeline of disruptions.
///
/// Outage windows are kept sorted, non-overlapping, and merged; point
/// events (preemptions, hardware failures) are kept sorted by strike
/// time. Both sides are plain data — a plan never mutates the world, it
/// only answers queries and (via [`DisruptionPlan::schedule_points_into`])
/// turns its events into simulator events.
#[derive(Debug, Clone, Default)]
pub struct DisruptionPlan {
    /// Sorted, merged outage windows.
    windows: Vec<Window>,
    /// Sorted point events (preemption / hardware failure).
    points: Vec<Disruption>,
}

impl DisruptionPlan {
    /// A plan with no disruptions at all.
    pub fn none() -> Self {
        DisruptionPlan::default()
    }

    /// Build an outage plan from explicit windows. Windows are sorted by
    /// start and merged when they overlap or touch, so the result is
    /// always sorted and non-overlapping.
    pub fn from_windows(mut windows: Vec<Window>) -> Self {
        windows.sort_by_key(|w| w.start);
        let mut merged: Vec<Window> = Vec::with_capacity(windows.len());
        for w in windows {
            match merged.last_mut() {
                Some(last) if w.start <= last.end => {
                    if w.end > last.end {
                        last.end = w.end;
                    }
                }
                _ => merged.push(w),
            }
        }
        DisruptionPlan {
            windows: merged,
            points: Vec::new(),
        }
    }

    /// Draw a random outage plan over `[0, horizon)`: outages arrive as a
    /// Poisson process with `mean_interval` between them, each lasting an
    /// exponential `mean_outage` duration.
    ///
    /// The draw order (one interval, then one duration, per outage) is
    /// the order `cumulus-net`'s former Poisson fault plans used, so plans
    /// seeded the same way reproduce the same timelines bit for bit.
    pub fn poisson_outages(
        rng: &mut RngStream,
        horizon: SimDuration,
        mean_interval: SimDuration,
        mean_outage: SimDuration,
    ) -> Self {
        let mut windows = Vec::new();
        let mut t = 0.0;
        let horizon_s = horizon.as_secs_f64();
        loop {
            t += rng.exponential(mean_interval.as_secs_f64());
            if t >= horizon_s {
                break;
            }
            let len = rng.exponential(mean_outage.as_secs_f64()).max(0.001);
            let start = SimTime::ZERO + SimDuration::from_secs_f64(t);
            let end = start + SimDuration::from_secs_f64(len);
            windows.push(Window { start, end });
            t += len;
        }
        DisruptionPlan::from_windows(windows)
    }

    /// Draw a random plan of point events over `[0, horizon)`: strikes of
    /// `kind` arrive as a Poisson process with `mean_interval` between
    /// them. Used for preemption and hardware-failure processes, where
    /// the event has no intrinsic recovery time.
    pub fn poisson_points(
        kind: DisruptionKind,
        rng: &mut RngStream,
        horizon: SimDuration,
        mean_interval: SimDuration,
    ) -> Self {
        let mut points = Vec::new();
        let mut t = 0.0;
        let horizon_s = horizon.as_secs_f64();
        loop {
            t += rng.exponential(mean_interval.as_secs_f64());
            if t >= horizon_s {
                break;
            }
            points.push(Disruption {
                at: SimTime::ZERO + SimDuration::from_secs_f64(t),
                kind,
                until: None,
            });
        }
        DisruptionPlan {
            windows: Vec::new(),
            points,
        }
    }

    /// Fold another plan into this one, keeping both invariants (windows
    /// merged, points sorted).
    pub fn merge(self, other: DisruptionPlan) -> Self {
        let mut windows = self.windows;
        windows.extend(other.windows);
        let mut merged = DisruptionPlan::from_windows(windows);
        let mut points = self.points;
        points.extend(other.points);
        points.sort_by_key(|d| d.at);
        merged.points = points;
        merged
    }

    /// True when the plan contains no windows and no point events.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.points.is_empty()
    }

    /// The outage windows, sorted by start and non-overlapping.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// The point events (preemptions, hardware failures), sorted by
    /// strike time.
    pub fn points(&self) -> &[Disruption] {
        &self.points
    }

    /// Every disruption on the timeline — windows rendered as
    /// [`DisruptionKind::Outage`] events plus all point events — sorted
    /// by strike time.
    pub fn events(&self) -> Vec<Disruption> {
        let mut all: Vec<Disruption> = self
            .windows
            .iter()
            .map(|w| Disruption::outage(*w))
            .chain(self.points.iter().copied())
            .collect();
        all.sort_by_key(|d| d.at);
        all
    }

    /// Is an outage window covering `t`?
    pub fn is_down(&self, t: SimTime) -> bool {
        self.windows
            .binary_search_by(|w| {
                if w.contains(t) {
                    std::cmp::Ordering::Equal
                } else if w.end <= t {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            })
            .is_ok()
    }

    /// The first outage window still relevant at or after `t`: the window
    /// covering `t`, or else the next one to start.
    pub fn next_window_at(&self, t: SimTime) -> Option<Window> {
        self.windows
            .iter()
            .find(|w| w.end > t)
            .copied()
            .filter(|w| w.start >= t || w.contains(t))
    }

    /// When the (outage-disrupted) thing is next usable at or after `t`:
    /// `t` itself when up, otherwise the end of the covering window.
    pub fn next_up_at(&self, t: SimTime) -> SimTime {
        match self.windows.iter().find(|w| w.contains(t)) {
            Some(w) => w.end,
            None => t,
        }
    }

    /// Schedule every point event into `sim`, invoking `deliver` when the
    /// event strikes. This is how a driver wires a plan to a
    /// [`Disruptable`] component: the closure typically picks a victim
    /// and calls [`Disruptable::disrupt`] on the world's component.
    ///
    /// Events already in the past (before `sim.now()`) are skipped rather
    /// than panicking, so a plan can be attached mid-run.
    pub fn schedule_points_into<W, F>(&self, sim: &mut Sim<W>, deliver: F)
    where
        W: 'static,
        F: Fn(&mut Sim<W>, Disruption) + Clone + 'static,
    {
        let now = sim.now();
        for d in self.points.iter().copied().filter(|d| d.at >= now) {
            let f = deliver.clone();
            sim.schedule_at(d.at, move |sim| f(sim, d));
        }
    }
}

/// The contract a component implements to receive disruptions.
///
/// The driver owns the [`DisruptionPlan`] and decides *what* gets hit
/// (the `Target` — an instance id, a machine name, a path); the component
/// decides *how* the hit plays out and reports it as an `Effect` (evicted
/// jobs, a preemption deadline, an error). Keeping the reaction behind a
/// trait means new failure kinds propagate to every layer through one
/// seam instead of per-crate ad-hoc APIs.
pub trait Disruptable {
    /// What a disruption strikes (instance id, machine name, …).
    type Target;
    /// What the component reports back (evicted jobs, deadline, error).
    type Effect;

    /// Apply a disruption of `kind` to `target` at `now`.
    fn disrupt(
        &mut self,
        now: SimTime,
        target: &Self::Target,
        kind: DisruptionKind,
    ) -> Self::Effect;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_micros(s * 1_000_000)
    }

    fn w(a: u64, b: u64) -> Window {
        Window::new(t(a), t(b)).unwrap()
    }

    #[test]
    fn inverted_window_is_a_typed_error() {
        let err = Window::new(t(10), t(5)).unwrap_err();
        assert_eq!(
            err,
            InvalidWindow {
                start: t(10),
                end: t(5)
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("precedes"), "got: {msg}");
        // Zero-length windows are fine (they contain nothing).
        let z = Window::new(t(7), t(7)).unwrap();
        assert!(!z.contains(t(7)));
    }

    #[test]
    fn windows_merge_and_answer_queries() {
        let plan = DisruptionPlan::from_windows(vec![w(20, 40), w(10, 30), w(50, 60)]);
        assert_eq!(plan.windows(), &[w(10, 40), w(50, 60)]);
        assert!(plan.is_down(t(15)));
        assert!(!plan.is_down(t(40)), "half-open");
        assert_eq!(plan.next_up_at(t(15)), t(40));
        assert_eq!(plan.next_up_at(t(45)), t(45));
        assert_eq!(plan.next_window_at(t(41)), Some(w(50, 60)));
        assert_eq!(plan.next_window_at(t(61)), None);
    }

    #[test]
    fn empty_plan_is_always_up() {
        let plan = DisruptionPlan::none();
        assert!(!plan.is_down(t(0)));
        assert!(!plan.is_down(t(100)));
        assert_eq!(plan.next_window_at(t(0)), None);
        assert_eq!(plan.next_up_at(t(5)), t(5));
    }

    #[test]
    fn next_window_lookup() {
        let plan = DisruptionPlan::from_windows(vec![w(10, 20)]);
        assert_eq!(plan.next_window_at(t(0)), Some(w(10, 20)));
        assert_eq!(plan.next_window_at(t(15)), Some(w(10, 20)));
        assert_eq!(plan.next_window_at(t(25)), None);
    }

    #[test]
    fn poisson_outages_match_legacy_fault_plan_draw_order() {
        // Same stream, same parameters → the plan must reproduce the exact
        // windows the network layer's Poisson fault plans drew, which the
        // E9b fault-sensitivity sweep is calibrated on.
        let mut rng = RngStream::derive(11, "faults");
        let plan = DisruptionPlan::poisson_outages(
            &mut rng,
            SimDuration::from_secs(3600),
            SimDuration::from_secs(300),
            SimDuration::from_secs(30),
        );
        assert!(!plan.windows().is_empty());
        for w in plan.windows() {
            assert!(w.start.as_secs() < 3600 + 600, "start inside-ish horizon");
            assert!(w.end > w.start);
        }
        for pair in plan.windows().windows(2) {
            assert!(pair[0].end <= pair[1].start, "sorted, non-overlapping");
        }
    }

    #[test]
    fn poisson_points_stay_inside_horizon_and_sorted() {
        let mut rng = RngStream::derive(7, "preemptions");
        let plan = DisruptionPlan::poisson_points(
            DisruptionKind::Preemption,
            &mut rng,
            SimDuration::from_secs(12 * 3600),
            SimDuration::from_secs(3600),
        );
        for d in plan.points() {
            assert_eq!(d.kind, DisruptionKind::Preemption);
            assert!(d.until.is_none());
            assert!(d.at < SimTime::ZERO + SimDuration::from_secs(12 * 3600 + 3600));
        }
        for pair in plan.points().windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn merge_combines_both_sides() {
        let outages = DisruptionPlan::from_windows(vec![w(10, 20)]);
        let mut rng = RngStream::derive(3, "hw");
        let hw = DisruptionPlan::poisson_points(
            DisruptionKind::HardwareFailure,
            &mut rng,
            SimDuration::from_secs(7200),
            SimDuration::from_secs(600),
        );
        let n_points = hw.points().len();
        let merged = outages.merge(hw);
        assert_eq!(merged.windows().len(), 1);
        assert_eq!(merged.points().len(), n_points);
        let events = merged.events();
        assert_eq!(events.len(), 1 + n_points);
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at, "events sorted");
        }
    }

    #[test]
    fn points_schedule_into_a_sim() {
        struct World {
            hits: Vec<(SimTime, DisruptionKind)>,
        }
        let plan = DisruptionPlan {
            windows: Vec::new(),
            points: vec![
                Disruption::preemption(t(5)),
                Disruption::hardware_failure(t(9)),
            ],
        };
        let mut sim = Sim::new(World { hits: Vec::new() });
        plan.schedule_points_into(&mut sim, |sim, d| {
            let now = sim.now();
            sim.world.hits.push((now, d.kind));
        });
        sim.run_to_completion();
        assert_eq!(
            sim.world.hits,
            vec![
                (t(5), DisruptionKind::Preemption),
                (t(9), DisruptionKind::HardwareFailure)
            ]
        );
    }
}
