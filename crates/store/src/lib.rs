//! # cumulus-store — the content-addressed data plane
//!
//! The paper's deployment shares data over one NFS export; Juve et al.'s
//! companion study showed that choice dominates workflow cost on EC2.
//! This crate adds the alternatives so experiments can sweep them:
//!
//! * [`ContentId`] / [`ContentHasher`] — content addressing, so equal
//!   bytes are one object no matter which Galaxy history produced them;
//! * [`ObjectStore`] — an S3-like bucket with request latency, a
//!   bandwidth ceiling, and 2012-era per-request pricing;
//! * [`WorkerCache`] / [`CacheFleet`] — per-worker instance-storage
//!   caches with deterministic LRU/LFU eviction and disruption-plane
//!   invalidation (a preempted worker's cache must never satisfy a
//!   later peer lookup);
//! * [`DataPlane`] / [`StagingPlan`] — the source ladder (local cache →
//!   peer → object store → NFS → GridFTP ingest) priced with the
//!   calibrated transfer models.
//!
//! Everything is deterministic: ties break on names and
//! [`ContentId`]s, never on iteration order of a hash map.

pub mod cache;
pub mod content;
pub mod fleet;
pub mod object;
pub mod staging;

pub use cumulus_net::DataSize;

pub use cache::{EvictionPolicy, WorkerCache};
pub use content::{cid_list, ContentHasher, ContentId};
pub use fleet::CacheFleet;
pub use object::{ObjectStore, ObjectStoreConfig};
pub use staging::{
    DataPlane, InputSpec, Rung, SharingBackend, StagingPlan, StagingSource, StagingStep,
};
