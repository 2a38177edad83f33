//! cumulus-federation: multi-site deployments over a deterministic WAN.
//!
//! The single-region stack provisions one deployment — a Condor pool, an
//! NFS export, an object store, autoscale controllers — inside one cloud
//! region. This crate turns that world plural: a [`Federation`] holds a
//! set of [`Site`]s, each a complete provisioned deployment with its own
//! instance pricing, joined by a [`WanTopology`] of calibrated
//! latency/bandwidth links priced at the 2012-era inter-region egress
//! tariff.
//!
//! Three pieces sit on top of the sites:
//!
//! * **a cross-site staging source** — each site's
//!   [`DataPlane`](cumulus_store::DataPlane) climb takes one more
//!   source, probed just before its terminal NFS/GridFTP rung: a replica
//!   directory keyed by [`ContentId`](cumulus_store::ContentId) finds
//!   the content at a peer site, the WAN model prices and times the
//!   crossing, and the object lands in the destination bucket so the
//!   next consumer stays local;
//! * **site selection** — a [`Placer`] implements the galaxy-side
//!   [`InvocationRouter`](cumulus_galaxy::routing::InvocationRouter)
//!   seam with the four [`PlacementPolicy`]s of the E15 grid
//!   (round-robin, cost-greedy, queue-depth, data-gravity);
//! * **per-site elasticity** — a [`SiteScaler`] runs the unchanged
//!   `cumulus-autoscale` policies against each site's pool, with
//!   per-worker billing segments kept honest by
//!   [`Site::add_worker`]/[`Site::remove_idle_worker`].
//!
//! Everything is deterministic: directories and topologies iterate in
//! `BTreeMap` order, replica sources resolve to the lowest holding site
//! index, placement ties break to the lowest site index, and the WAN
//! model is a pure function of (size, link, source cap). A 1-site
//! federation stages exactly like the bare single-region data plane
//! (asserted by `tests/single_site_equivalence.rs`).

#![warn(missing_docs)]

pub mod elastic;
pub mod placement;
pub mod plane;
pub mod site;
pub mod wan;

pub use elastic::SiteScaler;
pub use placement::{PlacementPolicy, Placer};
pub use plane::Federation;
pub use site::{Site, SiteConfig};
pub use wan::{WanLink, WanTopology, WAN_STREAMS};
