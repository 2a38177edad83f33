//! The NFS server: a shared namespace plus a contention model.
//!
//! Globus Provision "sets up a Network File System (NFS) and Network
//! Information System (NIS) to provide a robust shared file system across
//! nodes" (§III.A). Galaxy's datasets live here, so every job stage-in and
//! stage-out crosses this server. The performance model is simple fair
//! sharing: the server has a fixed bandwidth that concurrently active
//! streams split evenly.

use std::collections::BTreeSet;

use cumulus_simkit::metrics::Metrics;
use cumulus_simkit::telemetry::Key;
use cumulus_simkit::time::SimDuration;

use crate::tree::{FsError, Tree};

/// Metrics keys the server records.
pub mod keys {
    /// Counter: bytes staged through the export.
    pub const BYTES_STAGED: &str = "nfs.bytes_staged";
    /// Counter: stage operations served.
    pub const STAGE_OPS: &str = "nfs.stage_ops";
}

/// A shared filesystem exported by one server node.
#[derive(Debug, Clone)]
pub struct SharedFs {
    /// The namespace.
    pub tree: Tree,
    /// Server NIC / disk bandwidth in Mbit/s.
    bandwidth_mbps: f64,
    /// Hostnames that currently mount the export.
    mounts: BTreeSet<String>,
    /// Streams currently active (for the contention model).
    active_streams: u32,
    /// Observable counters.
    metrics: Metrics,
    /// Interned counter keys (staging is the server's hot path).
    id_bytes_staged: Key,
    id_stage_ops: Key,
}

impl SharedFs {
    /// A server with the given bandwidth. 2012-era m1.small NFS over
    /// gigabit-ish EC2 networking sustains on the order of 400 Mbit/s.
    pub fn new(bandwidth_mbps: f64) -> Self {
        assert!(bandwidth_mbps > 0.0);
        let mut tree = Tree::new();
        for dir in ["/nfs/home", "/nfs/software", "/nfs/scratch"] {
            tree.mkdir_p(dir).expect("static absolute paths");
        }
        SharedFs {
            tree,
            bandwidth_mbps,
            mounts: BTreeSet::new(),
            active_streams: 0,
            metrics: Metrics::new(),
            id_bytes_staged: Key::intern(keys::BYTES_STAGED),
            id_stage_ops: Key::intern(keys::STAGE_OPS),
        }
    }

    /// Route counters to a shared registry.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Mount the export from `host`. Idempotent.
    pub fn mount(&mut self, host: &str) {
        self.mounts.insert(host.to_string());
    }

    /// Mount the export from `host`, erroring if `host` already mounts
    /// it — for callers that treat a double mount as a wiring bug.
    pub fn try_mount(&mut self, host: &str) -> Result<(), FsError> {
        if !self.mounts.insert(host.to_string()) {
            return Err(FsError::AlreadyExists(host.to_string()));
        }
        Ok(())
    }

    /// Unmount. Returns whether the host was mounted.
    pub fn unmount(&mut self, host: &str) -> bool {
        self.mounts.remove(host)
    }

    /// Is `host` mounted?
    pub fn is_mounted(&self, host: &str) -> bool {
        self.mounts.contains(host)
    }

    /// Number of mounted clients.
    pub fn mount_count(&self) -> usize {
        self.mounts.len()
    }

    /// Begin a data stream; returns a guard token the caller must pass to
    /// [`end_stream`](SharedFs::end_stream).
    pub fn begin_stream(&mut self) -> StreamToken {
        self.active_streams += 1;
        StreamToken(())
    }

    /// End a data stream.
    pub fn end_stream(&mut self, _token: StreamToken) {
        debug_assert!(self.active_streams > 0);
        self.active_streams = self.active_streams.saturating_sub(1);
    }

    /// Currently active streams.
    pub fn active_streams(&self) -> u32 {
        self.active_streams
    }

    /// The per-stream rate if one more stream started now, Mbit/s.
    pub fn effective_rate_mbps(&self) -> f64 {
        self.bandwidth_mbps / (self.active_streams.max(1)) as f64
    }

    /// Time to move `bytes` through the server given `concurrent` total
    /// active streams (including this one).
    pub fn stage_duration(&self, bytes: u64, concurrent: u32) -> SimDuration {
        let streams = concurrent.max(1) as f64;
        let rate = self.bandwidth_mbps / streams; // Mbit/s per stream
        let secs = bytes as f64 * 8.0 / 1e6 / rate;
        SimDuration::from_secs_f64(secs)
    }

    /// Stage `bytes` through the server and record it: the observable
    /// wrapper around the pure [`stage_duration`](SharedFs::stage_duration).
    pub fn stage(&mut self, bytes: u64, concurrent: u32) -> SimDuration {
        self.metrics.incr(self.id_bytes_staged, bytes);
        self.metrics.incr(self.id_stage_ops, 1);
        self.stage_duration(bytes, concurrent)
    }

    /// Convenience: write a file into the shared tree.
    pub fn put(&mut self, path: &str, bytes: u64, tag: &str) -> Result<(), FsError> {
        self.tree.write_file(path, bytes, tag)
    }
}

/// Opaque token proving a stream was started.
#[derive(Debug)]
pub struct StreamToken(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_layout_exists() {
        let fs = SharedFs::new(400.0);
        assert!(fs.tree.exists("/nfs/home"));
        assert!(fs.tree.exists("/nfs/software"));
        assert!(fs.tree.exists("/nfs/scratch"));
    }

    #[test]
    fn mounts_are_idempotent() {
        let mut fs = SharedFs::new(400.0);
        fs.mount("worker-1");
        fs.mount("worker-1");
        assert_eq!(fs.mount_count(), 1);
        assert!(fs.is_mounted("worker-1"));
        assert!(fs.unmount("worker-1"));
        assert!(!fs.unmount("worker-1"));
    }

    #[test]
    fn contention_halves_rate() {
        let fs = SharedFs::new(400.0);
        let alone = fs.stage_duration(100_000_000, 1);
        let shared = fs.stage_duration(100_000_000, 2);
        assert!((shared.as_secs_f64() - 2.0 * alone.as_secs_f64()).abs() < 1e-9);
        // 100 MB at 400 Mbit/s = 2 s.
        assert!((alone.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stream_tokens_track_activity() {
        let mut fs = SharedFs::new(400.0);
        assert_eq!(fs.active_streams(), 0);
        assert_eq!(fs.effective_rate_mbps(), 400.0);
        let t1 = fs.begin_stream();
        let t2 = fs.begin_stream();
        assert_eq!(fs.active_streams(), 2);
        assert_eq!(fs.effective_rate_mbps(), 200.0);
        fs.end_stream(t1);
        fs.end_stream(t2);
        assert_eq!(fs.active_streams(), 0);
    }

    #[test]
    fn put_writes_into_tree() {
        let mut fs = SharedFs::new(400.0);
        fs.put("/nfs/home/user1/data.zip", 10_700_000, "ds-1")
            .unwrap();
        assert_eq!(
            fs.tree.file_size("/nfs/home/user1/data.zip").unwrap(),
            10_700_000
        );
    }

    #[test]
    fn try_mount_rejects_duplicates() {
        let mut fs = SharedFs::new(400.0);
        fs.try_mount("worker-1").unwrap();
        assert!(matches!(
            fs.try_mount("worker-1"),
            Err(FsError::AlreadyExists(_))
        ));
        assert_eq!(fs.mount_count(), 1);
    }

    #[test]
    fn stage_records_metrics() {
        let m = Metrics::new();
        let mut fs = SharedFs::new(400.0);
        fs.set_metrics(m.clone());
        let d = fs.stage(100_000_000, 2);
        assert_eq!(d, fs.stage_duration(100_000_000, 2));
        assert_eq!(m.counter(keys::BYTES_STAGED), 100_000_000);
        assert_eq!(m.counter(keys::STAGE_OPS), 1);
    }

    #[test]
    fn zero_concurrency_treated_as_one() {
        let fs = SharedFs::new(100.0);
        assert_eq!(
            fs.stage_duration(1_000_000, 0),
            fs.stage_duration(1_000_000, 1)
        );
    }
}
