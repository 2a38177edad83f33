//! The hosted transfer service (Globus Online's "Transfer").
//!
//! The service owns the endpoint registry and users' credentials, accepts
//! transfer tasks, and — per the paper — is "responsible for transferring
//! files, monitoring the transfer, retrying failures, auto-tuning
//! performance and recovering from faults automatically, reporting status,
//! and notifying users of the completion of jobs via Email" (§IV.A).
//!
//! A submitted task is *resolved* analytically against the network path's
//! fault plan: the service walks simulated time forward through fault
//! windows, retry backoffs, and (for GridFTP) byte-offset resumption, and
//! produces a completed [`TransferTask`] with a full event history. Callers
//! in the DES schedule their continuation at the task's completion time.

use cumulus_net::{DataSize, Link, Network, Rate};
use cumulus_simkit::disrupt::DisruptionPlan;
use cumulus_simkit::metrics::Metrics;
use cumulus_simkit::retry::{RetryDecision, RetryPolicy};
use cumulus_simkit::telemetry::{span::keys as span_keys, Key, Payload, SpanKind, Telemetry};
use cumulus_simkit::time::{SimDuration, SimTime};

use std::collections::BTreeMap;

/// Metrics keys the service records per resolved task.
pub mod keys {
    /// Counter: tasks submitted and resolved.
    pub const TASKS: &str = "transfer.tasks";
    /// Counter: bytes successfully delivered.
    pub const BYTES_DELIVERED: &str = "transfer.bytes_delivered";
    /// Counter: bytes re-sent after faults without restart markers.
    pub const BYTES_RETRANSMITTED: &str = "transfer.bytes_retransmitted";
    /// Counter: faults encountered (and retried) across all tasks.
    pub const FAULTS: &str = "transfer.faults";
    /// Counter: tasks that ended [`TaskStatus::Succeeded`](super::TaskStatus).
    pub const SUCCEEDED: &str = "transfer.status.succeeded";
    /// Counter: tasks killed by their deadline.
    pub const DEADLINE_EXPIRED: &str = "transfer.status.deadline_expired";
    /// Counter: tasks that exhausted their retries.
    pub const FAILED: &str = "transfer.status.failed";
}

use crate::credential::{CredentialError, CredentialStore};
use crate::endpoint::{EndpointError, EndpointRegistry};
use crate::protocol::Protocol;

/// A transfer task id, e.g. `task-000042`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task-{:06}", self.0)
    }
}

/// A transfer request.
#[derive(Debug, Clone)]
pub struct TransferRequest {
    /// Requesting user (must hold a valid credential).
    pub user: String,
    /// Source endpoint name.
    pub source_endpoint: String,
    /// Source path.
    pub source_path: String,
    /// Destination endpoint name.
    pub dest_endpoint: String,
    /// Destination path.
    pub dest_path: String,
    /// Bytes to move.
    pub size: DataSize,
    /// Protocol (Globus default unless testing FTP/HTTP baselines).
    pub protocol: Protocol,
    /// Abort if not done by this time (the Galaxy tool's "Deadline" field).
    pub deadline: Option<SimTime>,
    /// Email the user on completion.
    pub notify: bool,
}

impl TransferRequest {
    /// A Globus transfer between endpoints with all defaults.
    pub fn globus(
        user: &str,
        src: (&str, &str),
        dst: (&str, &str),
        size: DataSize,
    ) -> TransferRequest {
        TransferRequest {
            user: user.to_string(),
            source_endpoint: src.0.to_string(),
            source_path: src.1.to_string(),
            dest_endpoint: dst.0.to_string(),
            dest_path: dst.1.to_string(),
            size,
            protocol: Protocol::GLOBUS_DEFAULT,
            deadline: None,
            notify: true,
        }
    }

    /// Set a deadline (builder style).
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the protocol (builder style).
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }
}

/// Task terminal status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Completed successfully.
    Succeeded,
    /// Killed by its deadline.
    DeadlineExpired,
    /// Gave up after exhausting retries.
    Failed,
}

/// One event in a task's history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskEvent {
    /// When.
    pub at: SimTime,
    /// What happened.
    pub description: String,
}

/// A resolved transfer task.
#[derive(Debug, Clone)]
pub struct TransferTask {
    /// Its id.
    pub id: TaskId,
    /// The original request.
    pub request: TransferRequest,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Completion (or failure) time.
    pub finished_at: SimTime,
    /// How it ended.
    pub status: TaskStatus,
    /// Bytes successfully delivered (== size on success).
    pub bytes_transferred: DataSize,
    /// Bytes re-sent due to faults without restart markers.
    pub bytes_retransmitted: DataSize,
    /// Faults encountered and retried.
    pub faults: u32,
    /// Event history (submission, faults, retries, completion, email).
    pub events: Vec<TaskEvent>,
}

impl TransferTask {
    /// End-to-end achieved rate (delivered bytes over wall time).
    pub fn achieved_rate(&self) -> Rate {
        let secs = self.finished_at.since(self.submitted_at).as_secs_f64();
        if secs <= 0.0 {
            return Rate::ZERO;
        }
        Rate::from_mbps(self.bytes_transferred.as_megabits_f64() / secs)
    }
}

/// Errors at submission time.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferError {
    /// Credential problem.
    Credential(CredentialError),
    /// Endpoint problem.
    Endpoint(EndpointError),
    /// No network path between the endpoints.
    NoPath(String, String),
    /// The protocol refuses the file size (HTTP's 2 GB cap).
    SizeRefused {
        /// The protocol that refused.
        protocol: &'static str,
        /// The offending size.
        size: DataSize,
    },
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::Credential(e) => write!(f, "credential error: {e}"),
            TransferError::Endpoint(e) => write!(f, "endpoint error: {e}"),
            TransferError::NoPath(a, b) => write!(f, "no network path {a} → {b}"),
            TransferError::SizeRefused { protocol, size } => {
                write!(f, "{protocol} refuses a {size} transfer")
            }
        }
    }
}

impl std::error::Error for TransferError {}

impl From<CredentialError> for TransferError {
    fn from(e: CredentialError) -> Self {
        TransferError::Credential(e)
    }
}

impl From<EndpointError> for TransferError {
    fn from(e: EndpointError) -> Self {
        TransferError::Endpoint(e)
    }
}

/// The hosted service.
pub struct TransferService {
    /// Endpoint directory.
    pub endpoints: EndpointRegistry,
    /// Users' registered credentials.
    pub credentials: CredentialStore,
    /// Fault plans keyed by unordered endpoint-name pair.
    faults: BTreeMap<(String, String), DisruptionPlan>,
    tasks: BTreeMap<TaskId, TransferTask>,
    next_task: u64,
    metrics: Metrics,
    ids: TaskKeys,
    /// Transfer-lifecycle telemetry (started → done spans plus fault
    /// counts). Disabled by default.
    telemetry: Telemetry,
}

/// Interned keys of the service's per-task counters: the resolution hot
/// path increments by key, never by name.
#[derive(Debug, Clone, Copy)]
struct TaskKeys {
    tasks: Key,
    bytes_delivered: Key,
    bytes_retransmitted: Key,
    faults: Key,
    succeeded: Key,
    deadline_expired: Key,
    failed: Key,
}

impl TaskKeys {
    fn intern() -> Self {
        TaskKeys {
            tasks: Key::intern(keys::TASKS),
            bytes_delivered: Key::intern(keys::BYTES_DELIVERED),
            bytes_retransmitted: Key::intern(keys::BYTES_RETRANSMITTED),
            faults: Key::intern(keys::FAULTS),
            succeeded: Key::intern(keys::SUCCEEDED),
            deadline_expired: Key::intern(keys::DEADLINE_EXPIRED),
            failed: Key::intern(keys::FAILED),
        }
    }
}

impl TransferService {
    /// An empty service: no endpoints, credentials or fault plans.
    pub fn new() -> Self {
        TransferService {
            endpoints: EndpointRegistry::new(),
            credentials: CredentialStore::new(),
            faults: BTreeMap::new(),
            tasks: BTreeMap::new(),
            next_task: 1,
            metrics: Metrics::new(),
            ids: TaskKeys::intern(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; each resolved task emits a transfer
    /// span (`transfer.started` → `transfer.done`) plus a `transfer.fault`
    /// count when faults were retried.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Route per-task counters (bytes, retries, outcomes) to a shared
    /// registry.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Install a fault plan (its outage windows) on the path between two
    /// endpoints.
    pub fn set_fault_plan(&mut self, a: &str, b: &str, plan: DisruptionPlan) {
        self.faults.insert(Self::pair_key(a, b), plan);
    }

    fn pair_key(a: &str, b: &str) -> (String, String) {
        if a <= b {
            (a.to_string(), b.to_string())
        } else {
            (b.to_string(), a.to_string())
        }
    }

    /// Submit a request at `now` and resolve it to completion.
    ///
    /// The returned task carries the completion time; DES callers schedule
    /// their continuation there. Endpoints are auto-activated with the
    /// user's credential (Globus Online "will utilize the appropriate
    /// credential to activate the selected endpoint").
    pub fn submit(
        &mut self,
        now: SimTime,
        network: &Network,
        request: TransferRequest,
    ) -> Result<TaskId, TransferError> {
        // Verify credential, clone it to end the immutable borrow.
        let cred = self.credentials.verify(&request.user, now)?.clone();

        // Resolve and activate both endpoints.
        let src_node = {
            let ep = self.endpoints.get_mut(&request.source_endpoint)?;
            if !ep.is_active(now) {
                ep.activate(&cred);
            }
            ep.node
        };
        let dst_node = {
            let ep = self.endpoints.get_mut(&request.dest_endpoint)?;
            if !ep.is_active(now) {
                ep.activate(&cred);
            }
            ep.node
        };

        let link = network.path(src_node, dst_node).ok_or_else(|| {
            TransferError::NoPath(
                request.source_endpoint.clone(),
                request.dest_endpoint.clone(),
            )
        })?;

        if let Some(limit) = request.protocol.size_limit() {
            if request.size > limit {
                return Err(TransferError::SizeRefused {
                    protocol: request.protocol.name(),
                    size: request.size,
                });
            }
        }

        let no_faults = DisruptionPlan::none();
        let plan = self
            .faults
            .get(&Self::pair_key(
                &request.source_endpoint,
                &request.dest_endpoint,
            ))
            .unwrap_or(&no_faults);
        let id = TaskId(self.next_task);
        self.next_task += 1;
        let task = resolve_transfer(id, request, now, &link, plan);
        self.metrics.incr(self.ids.tasks, 1);
        self.metrics
            .incr(self.ids.bytes_delivered, task.bytes_transferred.as_bytes());
        self.metrics.incr(
            self.ids.bytes_retransmitted,
            task.bytes_retransmitted.as_bytes(),
        );
        self.metrics.incr(self.ids.faults, task.faults as u64);
        let status_id = match task.status {
            TaskStatus::Succeeded => self.ids.succeeded,
            TaskStatus::DeadlineExpired => self.ids.deadline_expired,
            TaskStatus::Failed => self.ids.failed,
        };
        self.metrics.incr(status_id, 1);
        if self.telemetry.is_enabled() {
            self.telemetry.span_open(
                task.submitted_at,
                "transfer",
                span_keys::TRANSFER_STARTED,
                SpanKind::Transfer,
                id.0,
            );
            if task.faults > 0 {
                self.telemetry.record(
                    task.submitted_at,
                    "transfer",
                    span_keys::TRANSFER_FAULT,
                    Payload::Count(task.faults as u64),
                );
            }
            self.telemetry.span_close(
                task.finished_at,
                "transfer",
                span_keys::TRANSFER_DONE,
                SpanKind::Transfer,
                id.0,
            );
        }
        self.tasks.insert(id, task);
        Ok(id)
    }

    /// Look up a resolved task.
    pub fn task(&self, id: TaskId) -> Option<&TransferTask> {
        self.tasks.get(&id)
    }

    /// Status of a task at a given observation time: before the resolved
    /// finish time the task reports as active (`None`), afterwards its
    /// terminal status — this is what Galaxy's history panel polls.
    pub fn status_at(&self, id: TaskId, now: SimTime) -> Option<Option<TaskStatus>> {
        self.tasks.get(&id).map(|t| {
            if now >= t.finished_at {
                Some(t.status)
            } else {
                None
            }
        })
    }

    /// All tasks for a user, in submission order.
    pub fn tasks_for(&self, user: &str) -> Vec<&TransferTask> {
        self.tasks
            .values()
            .filter(|t| t.request.user == user)
            .collect()
    }
}

impl Default for TransferService {
    fn default() -> Self {
        TransferService::new()
    }
}

/// Walk a transfer through fault windows to a terminal state.
fn resolve_transfer(
    id: TaskId,
    request: TransferRequest,
    submitted_at: SimTime,
    link: &Link,
    plan: &DisruptionPlan,
) -> TransferTask {
    let protocol = request.protocol;
    let mut events = vec![TaskEvent {
        at: submitted_at,
        description: format!(
            "submitted: {}:{} -> {}:{} ({}, {})",
            request.source_endpoint,
            request.source_path,
            request.dest_endpoint,
            request.dest_path,
            request.size,
            protocol.name(),
        ),
    }];

    let steady = protocol.steady_rate(link);
    let overhead = SimDuration::from_secs_f64(
        protocol.overhead_secs() + protocol.tcp_config().ramp_seconds(link),
    );

    let mut now = plan.next_up_at(submitted_at);
    if now > submitted_at {
        events.push(TaskEvent {
            at: submitted_at,
            description: "path down at submission; waiting".to_string(),
        });
    }
    let mut remaining = request.size;
    let mut delivered = DataSize::ZERO;
    let mut retransmitted = DataSize::ZERO;
    let mut faults = 0u32;
    // The shared retry plane's default drives the backoff schedule: the
    // first wait is 15 s, each later one doubles, and the 11th fault fails
    // the task.
    let mut retry_state = RetryPolicy::default().state();

    let deadline = request.deadline.unwrap_or(SimTime::MAX);

    let finish = loop {
        // Start (or restart) an attempt: pay the per-attempt overhead.
        let attempt_start = now;
        let data_start = attempt_start.saturating_add(overhead);
        let full_secs = steady.seconds_for(remaining);
        // A zero-rate path yields an infinite duration; saturate instead of
        // overflowing so the deadline/retry machinery still applies.
        let would_finish = data_start.saturating_add(SimDuration::from_secs_f64(full_secs));

        // Does a fault interrupt this attempt?
        let interruption = plan
            .next_window_at(attempt_start)
            .filter(|o| o.start < would_finish);

        match interruption {
            None => {
                if would_finish > deadline {
                    events.push(TaskEvent {
                        at: deadline,
                        description: "deadline expired; task aborted".to_string(),
                    });
                    // Credit bytes delivered before the deadline.
                    if deadline > data_start {
                        let secs = deadline.since(data_start).as_secs_f64();
                        let moved = steady.data_in_seconds(secs).min(remaining);
                        delivered += moved;
                    }
                    break (deadline, TaskStatus::DeadlineExpired);
                }
                delivered += remaining;
                events.push(TaskEvent {
                    at: would_finish,
                    description: format!("transfer complete ({} delivered)", request.size),
                });
                break (would_finish, TaskStatus::Succeeded);
            }
            Some(outage) => {
                // The fault hits mid-attempt.
                if outage.start > deadline {
                    // Deadline fires first.
                    if deadline > data_start {
                        let secs = deadline.since(data_start).as_secs_f64();
                        delivered += steady.data_in_seconds(secs).min(remaining);
                    }
                    events.push(TaskEvent {
                        at: deadline,
                        description: "deadline expired; task aborted".to_string(),
                    });
                    break (deadline, TaskStatus::DeadlineExpired);
                }
                faults += 1;
                let moved = if outage.start > data_start {
                    steady
                        .data_in_seconds(outage.start.since(data_start).as_secs_f64())
                        .min(remaining)
                } else {
                    DataSize::ZERO
                };
                if protocol.supports_restart_markers() {
                    delivered += moved;
                    remaining = remaining.saturating_sub(moved);
                    events.push(TaskEvent {
                        at: outage.start,
                        description: format!(
                            "fault #{faults}: connection lost; {moved} safe behind restart markers"
                        ),
                    });
                } else {
                    retransmitted += moved;
                    events.push(TaskEvent {
                        at: outage.start,
                        description: format!(
                            "fault #{faults}: connection lost; {moved} discarded (no restart support)"
                        ),
                    });
                }
                let backoff = match retry_state.on_failure(outage.start) {
                    RetryDecision::DeadLetter(_) => {
                        events.push(TaskEvent {
                            at: outage.start,
                            description: "retry limit exhausted; task failed".to_string(),
                        });
                        break (outage.start, TaskStatus::Failed);
                    }
                    RetryDecision::Retry { after, .. } => after,
                };
                // Wait out the outage plus backoff, then retry.
                let resume_at = plan.next_up_at(outage.end).max(outage.end) + backoff;
                events.push(TaskEvent {
                    at: resume_at,
                    description: format!("retrying after {backoff} backoff"),
                });
                now = plan.next_up_at(resume_at);
                if remaining.is_zero() {
                    // Fault hit exactly at the end; nothing left to send.
                    break (resume_at, TaskStatus::Succeeded);
                }
            }
        }
    };

    let (finished_at, status) = finish;
    if request.notify {
        events.push(TaskEvent {
            at: finished_at,
            description: format!("email to {}: task {} {:?}", request.user, id, status),
        });
    }

    TransferTask {
        id,
        request,
        submitted_at,
        finished_at,
        status,
        bytes_transferred: delivered,
        bytes_retransmitted: retransmitted,
        faults,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credential::CertificateAuthority;
    use crate::endpoint::EndpointKind;
    use crate::protocol::calibrated_wan_link;
    use cumulus_simkit::disrupt::Window;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    struct Fixture {
        service: TransferService,
        network: Network,
    }

    fn fixture() -> Fixture {
        let mut network = Network::new();
        let laptop = network.add_node("laptop");
        let galaxy = network.add_node("galaxy-server");
        network.connect(laptop, galaxy, calibrated_wan_link());

        let mut service = TransferService::new();
        service
            .endpoints
            .register("boliu#laptop", laptop, EndpointKind::GlobusConnect)
            .unwrap();
        service
            .endpoints
            .register("cvrg#galaxy", galaxy, EndpointKind::GridFtpServer)
            .unwrap();
        let mut ca = CertificateAuthority::new("/CN=GP CA");
        service
            .credentials
            .register(ca.issue("boliu", t(0), SimDuration::from_hours(12)));
        Fixture { service, network }
    }

    fn request(size: DataSize) -> TransferRequest {
        TransferRequest::globus(
            "boliu",
            ("boliu#laptop", "/home/boliu/fourCelFileSamples.zip"),
            ("cvrg#galaxy", "/nfs/home/boliu/fourCelFileSamples.zip"),
            size,
        )
    }

    #[test]
    fn clean_transfer_succeeds() {
        let mut f = fixture();
        let id = f
            .service
            .submit(t(0), &f.network, request(DataSize::from_mb_f64(10.7)))
            .unwrap();
        let task = f.service.task(id).unwrap();
        assert_eq!(task.status, TaskStatus::Succeeded);
        assert_eq!(task.bytes_transferred, DataSize::from_mb_f64(10.7));
        assert_eq!(task.faults, 0);
        // ≈ 3.6 s overhead + 85.6 Mbit / 37.5 Mbit/s ≈ 6.3 s.
        let secs = task.finished_at.since(task.submitted_at).as_secs_f64();
        assert!((secs - 6.3).abs() < 1.0, "secs={secs}");
        // Email notification recorded.
        assert!(task.events.iter().any(|e| e.description.contains("email")));
    }

    #[test]
    fn submission_without_credential_fails() {
        let mut f = fixture();
        let mut req = request(DataSize::from_mb(1));
        req.user = "stranger".to_string();
        let err = f.service.submit(t(0), &f.network, req).unwrap_err();
        assert!(matches!(
            err,
            TransferError::Credential(CredentialError::Missing(_))
        ));
    }

    #[test]
    fn submission_to_unknown_endpoint_fails() {
        let mut f = fixture();
        let mut req = request(DataSize::from_mb(1));
        req.dest_endpoint = "no#where".to_string();
        assert!(matches!(
            f.service.submit(t(0), &f.network, req).unwrap_err(),
            TransferError::Endpoint(EndpointError::NotFound(_))
        ));
    }

    #[test]
    fn endpoints_auto_activate() {
        let mut f = fixture();
        assert!(!f
            .service
            .endpoints
            .get("cvrg#galaxy")
            .unwrap()
            .is_active(t(0)));
        f.service
            .submit(t(0), &f.network, request(DataSize::from_mb(1)))
            .unwrap();
        assert!(f
            .service
            .endpoints
            .get("cvrg#galaxy")
            .unwrap()
            .is_active(t(1)));
    }

    #[test]
    fn http_size_cap_refused_at_submission() {
        let mut f = fixture();
        let req = request(DataSize::from_gb(4)).with_protocol(Protocol::Http);
        assert!(matches!(
            f.service.submit(t(0), &f.network, req).unwrap_err(),
            TransferError::SizeRefused {
                protocol: "http",
                ..
            }
        ));
    }

    #[test]
    fn fault_retries_and_resumes_with_markers() {
        let mut f = fixture();
        // 1 GB takes ≈ 218 s of data time; inject a fault at t=60 s.
        f.service.set_fault_plan(
            "boliu#laptop",
            "cvrg#galaxy",
            DisruptionPlan::from_windows(vec![Window::new(t(60), t(90)).unwrap()]),
        );
        let id = f
            .service
            .submit(t(0), &f.network, request(DataSize::from_gb(1)))
            .unwrap();
        let task = f.service.task(id).unwrap();
        assert_eq!(task.status, TaskStatus::Succeeded);
        assert_eq!(task.faults, 1);
        assert_eq!(task.bytes_transferred, DataSize::from_gb(1));
        assert_eq!(
            task.bytes_retransmitted,
            DataSize::ZERO,
            "GridFTP restart markers save progress"
        );
        // Clean run would finish ≈ t(222); with a 30 s outage + 15 s backoff
        // + a second overhead we land around t(275).
        let secs = task.finished_at.as_secs_f64();
        assert!(secs > 250.0 && secs < 310.0, "secs={secs}");
    }

    #[test]
    fn ftp_fault_restarts_from_zero() {
        let mut f = fixture();
        // FTP on the WAN moves 100 MB between ≈ t(39) and ≈ t(176); a fault
        // at t(100) interrupts it mid-flight.
        f.service.set_fault_plan(
            "boliu#laptop",
            "cvrg#galaxy",
            DisruptionPlan::from_windows(vec![Window::new(t(100), t(130)).unwrap()]),
        );
        let req = request(DataSize::from_mb(100)).with_protocol(Protocol::Ftp);
        let id = f.service.submit(t(0), &f.network, req).unwrap();
        let task = f.service.task(id).unwrap();
        assert_eq!(task.status, TaskStatus::Succeeded);
        assert_eq!(task.faults, 1);
        assert!(
            task.bytes_retransmitted > DataSize::from_mb(30),
            "FTP lost its progress: {}",
            task.bytes_retransmitted
        );
        assert_eq!(task.bytes_transferred, DataSize::from_mb(100));
    }

    #[test]
    fn deadline_aborts_slow_transfer() {
        let mut f = fixture();
        let req = request(DataSize::from_gb(1)).with_deadline(t(30));
        let id = f.service.submit(t(0), &f.network, req).unwrap();
        let task = f.service.task(id).unwrap();
        assert_eq!(task.status, TaskStatus::DeadlineExpired);
        assert_eq!(task.finished_at, t(30));
        assert!(task.bytes_transferred < DataSize::from_gb(1));
        assert!(task
            .events
            .iter()
            .any(|e| e.description.contains("deadline expired")));
    }

    #[test]
    fn retry_limit_fails_task() {
        let mut f = fixture();
        // A wall of back-to-back outages outlasts the default policy's
        // whole backoff schedule (ten waits from 15 s doubling, ≈ 4.3 h).
        let windows: Vec<Window> = (0..1_000)
            .map(|i| Window::new(t(i * 20), t(i * 20 + 19)).unwrap())
            .collect();
        f.service.set_fault_plan(
            "boliu#laptop",
            "cvrg#galaxy",
            DisruptionPlan::from_windows(windows),
        );
        let id = f
            .service
            .submit(t(0), &f.network, request(DataSize::from_gb(8)))
            .unwrap();
        let task = f.service.task(id).unwrap();
        assert_eq!(task.status, TaskStatus::Failed);
        assert_eq!(task.faults, 11);
    }

    #[test]
    fn status_polling_matches_timeline() {
        let mut f = fixture();
        let id = f
            .service
            .submit(t(0), &f.network, request(DataSize::from_mb_f64(10.7)))
            .unwrap();
        let finish = f.service.task(id).unwrap().finished_at;
        assert_eq!(f.service.status_at(id, t(1)), Some(None), "still active");
        assert_eq!(
            f.service.status_at(id, finish),
            Some(Some(TaskStatus::Succeeded))
        );
        assert_eq!(f.service.status_at(TaskId(999), t(0)), None);
    }

    #[test]
    fn metrics_capture_bytes_faults_and_outcome() {
        let m = Metrics::new();
        let mut f = fixture();
        f.service.set_metrics(m.clone());
        f.service.set_fault_plan(
            "boliu#laptop",
            "cvrg#galaxy",
            DisruptionPlan::from_windows(vec![Window::new(t(60), t(90)).unwrap()]),
        );
        f.service
            .submit(t(0), &f.network, request(DataSize::from_gb(1)))
            .unwrap();
        assert_eq!(m.counter(keys::TASKS), 1);
        assert_eq!(
            m.counter(keys::BYTES_DELIVERED),
            DataSize::from_gb(1).as_bytes()
        );
        assert_eq!(
            m.counter(keys::BYTES_RETRANSMITTED),
            0,
            "markers save bytes"
        );
        assert_eq!(m.counter(keys::FAULTS), 1);
        assert_eq!(m.counter(keys::SUCCEEDED), 1);

        // A deadline kill lands in its own bucket.
        f.service
            .set_fault_plan("boliu#laptop", "cvrg#galaxy", DisruptionPlan::none());
        f.service
            .submit(
                t(1000),
                &f.network,
                request(DataSize::from_gb(1)).with_deadline(t(1030)),
            )
            .unwrap();
        assert_eq!(m.counter(keys::TASKS), 2);
        assert_eq!(m.counter(keys::DEADLINE_EXPIRED), 1);
    }

    #[test]
    fn tasks_for_filters_by_user() {
        let mut f = fixture();
        f.service
            .submit(t(0), &f.network, request(DataSize::from_mb(1)))
            .unwrap();
        f.service
            .submit(t(10), &f.network, request(DataSize::from_mb(2)))
            .unwrap();
        assert_eq!(f.service.tasks_for("boliu").len(), 2);
        assert!(f.service.tasks_for("nobody").is_empty());
    }

    #[test]
    fn achieved_rate_reflects_overheads() {
        let mut f = fixture();
        let id = f
            .service
            .submit(t(0), &f.network, request(DataSize::from_mb(1)))
            .unwrap();
        let task = f.service.task(id).unwrap();
        let r = task.achieved_rate().as_mbps();
        assert!((r - 1.8).abs() < 0.4, "small-file achieved rate {r}");
    }
}
