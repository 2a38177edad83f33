//! `cumulus-transfer` — GridFTP/FTP/HTTP models and a Globus-Online-like
//! hosted transfer service.
//!
//! Reproduces everything the paper's Figure 11 and §IV.A depend on:
//!
//! * [`credential`] — X.509-style credentials, a GP certificate authority,
//!   and the per-user credential store behind endpoint activation;
//! * [`endpoint`] — named Globus endpoints (`owner#name`) attached to
//!   network nodes, with activation lifecycles;
//! * [`protocol`] — the three calibrated protocol models whose achieved
//!   rates reproduce Figure 11's series (GridFTP 1.8→37 Mbit/s, FTP
//!   0.2→5.9 Mbit/s, HTTP < 0.03 Mbit/s with a 2 GB cap);
//! * [`service`] — the hosted service: task submission, third-party
//!   transfers, automatic fault retry with exponential backoff, GridFTP
//!   restart markers vs. FTP/HTTP start-over semantics, deadlines, status
//!   polling, and completion e-mails.

#![warn(missing_docs)]

pub mod credential;
pub mod endpoint;
pub mod protocol;
pub mod service;

pub use credential::{CertificateAuthority, Credential, CredentialError, CredentialStore};
pub use endpoint::{Endpoint, EndpointError, EndpointKind, EndpointName, EndpointRegistry};
pub use protocol::{calibrated_wan_link, inter_site_link, intra_cloud_link, Protocol};
pub use service::{
    TaskEvent, TaskId, TaskStatus, TransferError, TransferRequest, TransferService, TransferTask,
};
