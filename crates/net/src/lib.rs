//! `cumulus-net` — network substrate for the cumulus cloud simulator.
//!
//! Provides the pieces every data-movement model needs:
//!
//! * [`size`] — decimal data sizes ([`DataSize`]) and rates ([`Rate`]),
//!   matching the paper's MB / Mbit/s units;
//! * [`link`] — a small named-node network graph with point-to-point links
//!   and a default "public internet" path;
//! * [`tcp`] — a TCP bulk-throughput model (window-, loss-, and
//!   slow-start-limited) that explains *why* single-stream FTP loses to
//!   GridFTP's parallel streams in Figure 11.
//!
//! Fault timelines on a path are `cumulus_simkit::disrupt` plans; the
//! transfer service installs them per endpoint pair.

#![warn(missing_docs)]

pub mod link;
pub mod size;
pub mod tcp;

pub use link::{Link, Network, NodeId};
pub use size::{DataSize, Rate};
pub use tcp::TcpConfig;
