//! Host-time spans around the benchmark's calls into each layer.
//!
//! The traced run wraps every public call the episodes make into the
//! library in [`time`], which accumulates call counts plus inclusive and
//! self host seconds per [`Layer`]. Spans nest: a call made while another
//! span is open (an event handler inside `Sim::run`) is that span's child.
//! Every handler body runs in a [`Layer::Driver`] span, so `simkit.run`'s
//! self time is the engine's own dispatch. With tracing off [`time`] is
//! one thread-local flag read and a direct call.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One timed boundary between the benchmark and a library layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Sim::run`, reported as self time: the engine's dispatch.
    SimkitRun,
    /// `CondorPool::submit`.
    HtcSubmit,
    /// `CondorPool::negotiate`.
    HtcNegotiate,
    /// `CondorPool::settle`.
    HtcSettle,
    /// `CondorPool::extend_job` (charging a staging plan to a match).
    HtcExtendJob,
    /// `CondorPool::machine_mut` + the ad update re-advertising a cache.
    HtcAdvertise,
    /// `DataPlane::stage_job`.
    StoreStageJob,
    /// `CacheFleet::attr_string` (the cache re-advertisement).
    StoreAttrString,
    /// `Federation::route`.
    FederationRoute,
    /// `Federation::stage_job`.
    FederationStageJob,
    /// `Site::add_worker` + `Site::remove_idle_worker`.
    FederationResize,
    /// `SiteScaler::desired`.
    AutoscaleDesired,
    /// `AutoScaler::tick` (includes provision's `scale_workers`).
    AutoscaleTick,
    /// `GalaxyServer::get_data_via_globus` (includes the transfer service).
    GalaxyGetData,
    /// `GalaxyServer::run_tool`.
    GalaxyRunTool,
    /// `GalaxyServer::on_condor_completion` (includes the CRData tool).
    GalaxyCompletion,
    /// GO credential checks and renewals: `CredentialStore::verify`, the
    /// instance CA's `issue` and `CredentialStore::register`.
    TransferCredentials,
    /// Span assembly plus one `JobBreakdown` per job.
    TelemetryReport,
    /// `Telemetry::digest`.
    TelemetryDigest,
    /// Deployment: `UseCaseScenario::deploy`, `Federation::provision`,
    /// or the pool and data plane of a single site.
    ProvisionDeploy,
    /// Billing-ledger and window-cost queries.
    CloudBilling,
    /// The benchmark's own code inside a `Sim::run` handler. Reported, with
    /// all time outside the outermost spans, as the driver's self time.
    Driver,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 22;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::SimkitRun,
        Layer::HtcSubmit,
        Layer::HtcNegotiate,
        Layer::HtcSettle,
        Layer::HtcExtendJob,
        Layer::HtcAdvertise,
        Layer::StoreStageJob,
        Layer::StoreAttrString,
        Layer::FederationRoute,
        Layer::FederationStageJob,
        Layer::FederationResize,
        Layer::AutoscaleDesired,
        Layer::AutoscaleTick,
        Layer::GalaxyGetData,
        Layer::GalaxyRunTool,
        Layer::GalaxyCompletion,
        Layer::TransferCredentials,
        Layer::TelemetryReport,
        Layer::TelemetryDigest,
        Layer::ProvisionDeploy,
        Layer::CloudBilling,
        Layer::Driver,
    ];

    /// The name of the layer's seconds metric.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::SimkitRun => "simkit.run.self_s",
            Layer::HtcSubmit => "htc.submit.s",
            Layer::HtcNegotiate => "htc.negotiate.s",
            Layer::HtcSettle => "htc.settle.s",
            Layer::HtcExtendJob => "htc.extend_job.s",
            Layer::HtcAdvertise => "htc.advertise.s",
            Layer::StoreStageJob => "store.stage_job.s",
            Layer::StoreAttrString => "store.attr_string.s",
            Layer::FederationRoute => "federation.route.s",
            Layer::FederationStageJob => "federation.stage_job.s",
            Layer::FederationResize => "federation.resize.s",
            Layer::AutoscaleDesired => "autoscale.desired.s",
            Layer::AutoscaleTick => "autoscale.tick.s",
            Layer::GalaxyGetData => "galaxy.get_data_via_globus.s",
            Layer::GalaxyRunTool => "galaxy.run_tool.s",
            Layer::GalaxyCompletion => "galaxy.on_condor_completion.s",
            Layer::TransferCredentials => "transfer.credentials.s",
            Layer::TelemetryReport => "telemetry.report.s",
            Layer::TelemetryDigest => "telemetry.digest.s",
            Layer::ProvisionDeploy => "provision.deploy.s",
            Layer::CloudBilling => "cloud.billing.s",
            Layer::Driver => "driver.s",
        }
    }

    fn index(self) -> usize {
        // Variants are declared in `ALL` order.
        self as usize
    }
}

/// Accumulated cost of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Calls timed.
    pub calls: u64,
    /// Host seconds inside the calls, children included.
    pub incl_s: f64,
    /// Host seconds inside the calls, minus time in nested spans.
    pub self_s: f64,
}

/// Everything one traced episode accumulated.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Per layer, indexed like [`Layer::ALL`].
    pub layers: [Acc; LAYERS],
    /// Host seconds covered by outermost spans: the episode's wall time
    /// minus this is the benchmark's own cost outside every span.
    pub top_s: f64,
}

impl Totals {
    /// The accumulator of `layer`.
    pub fn get(&self, layer: Layer) -> Acc {
        self.layers[layer.index()]
    }
}

#[derive(Default)]
struct State {
    totals: Totals,
    /// One accumulator of child time per open span, innermost last.
    open: Vec<f64>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Reset the accumulators and switch tracing on or off for this thread.
pub fn start(on: bool) {
    STATE.with(|s| *s.borrow_mut() = State::default());
    ON.with(|c| c.set(on));
}

/// Switch tracing off and return what was accumulated since [`start`].
pub fn finish() -> Totals {
    ON.with(|c| c.set(false));
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().totals))
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    ON.with(|c| c.get())
}

/// Run `f`, charging its host time to `layer` when tracing is on.
#[inline]
pub fn time<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    STATE.with(|s| s.borrow_mut().open.push(0.0));
    let started = Instant::now();
    let out = f();
    let secs = started.elapsed().as_secs_f64();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let children = s.open.pop().expect("span opened above");
        let acc = &mut s.totals.layers[layer.index()];
        acc.calls += 1;
        acc.incl_s += secs;
        acc.self_s += secs - children;
        match s.open.last_mut() {
            Some(parent) => *parent += secs,
            None => s.totals.top_s += secs,
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_layers_in_declaration_order() {
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn nested_spans_split_self_time() {
        start(true);
        time(Layer::SimkitRun, || {
            time(Layer::HtcSettle, || std::hint::black_box(1 + 1));
        });
        let t = finish();
        let run = t.get(Layer::SimkitRun);
        let settle = t.get(Layer::HtcSettle);
        assert_eq!((run.calls, settle.calls), (1, 1));
        assert!(run.incl_s >= settle.incl_s);
        assert!((run.self_s - (run.incl_s - settle.incl_s)).abs() < 1e-12);
        assert!((t.top_s - run.incl_s).abs() < 1e-12);
        assert!(!enabled());
    }

    #[test]
    fn disabled_spans_record_nothing() {
        start(false);
        time(Layer::HtcSubmit, || ());
        assert_eq!(finish().get(Layer::HtcSubmit).calls, 0);
    }
}
