//! Snapshots: continuous, incremental, automatic.
//!
//! §3.2: "the time required to backup an entire cluster is proportional
//! to the data changed on a single node. System backups are taken
//! automatically and are automatically aged out. User backups leverage
//! the blocks already backed up in system backups and are kept until
//! explicitly deleted." Second-region copies are a checkbox (here: a
//! constructor argument).

use crate::inject;
use crate::mirror::{block_key, ReplicatedStore};
use crate::s3sim::S3Sim;
use redsim_obs::TraceSink;
use redsim_testkit::sync::Mutex;
use redsim_common::codec::{Reader, Writer};
use redsim_common::{Result, RetryPolicy, RsError};
use redsim_storage::BlockId;
use std::sync::Arc;

/// System snapshots age out; user snapshots persist until deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    System,
    User,
}

/// A completed snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    pub id: String,
    pub kind: SnapshotKind,
    /// Logical sequence number (acts as the snapshot clock).
    pub seq: u64,
    pub blocks: Vec<BlockId>,
    /// Blocks newly uploaded by this snapshot (incrementality metric).
    pub new_blocks_uploaded: usize,
    /// Catalog/metadata payload captured with the snapshot.
    pub metadata_len: usize,
}

/// Coordinates snapshots over a [`ReplicatedStore`] and the S3 sim.
pub struct BackupManager {
    s3: Arc<S3Sim>,
    region: String,
    /// Optional disaster-recovery region (the §3.2 checkbox).
    dr_region: Option<String>,
    bucket: String,
    seq: Mutex<u64>,
    snapshots: Mutex<Vec<SnapshotInfo>>,
    /// Keep at most this many system snapshots (aging).
    system_retention: usize,
    /// Retry policy for every S3 call: uploads, DR copies, manifest reads.
    retry: RetryPolicy,
    /// Telemetry sink the retry loops report to (the owning cluster's).
    trace: Option<Arc<TraceSink>>,
}

impl BackupManager {
    pub fn new(
        s3: Arc<S3Sim>,
        region: impl Into<String>,
        bucket: impl Into<String>,
        dr_region: Option<String>,
        system_retention: usize,
    ) -> Self {
        BackupManager {
            s3,
            region: region.into(),
            dr_region,
            bucket: bucket.into(),
            seq: Mutex::new(0),
            snapshots: Mutex::new(Vec::new()),
            system_retention: system_retention.max(1),
            retry: RetryPolicy::default(),
            trace: None,
        }
    }

    /// Replace the retry policy (builder).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Report retries (`retry.attempts`, `retry.wait`, ...) to `sink`
    /// (builder).
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    fn retried<T>(&self, op: &'static str, f: impl FnMut() -> Result<T>) -> Result<T> {
        self.retry.run_observed(op, f, inject::retry_observer(self.trace.clone()))
    }

    fn manifest_key(&self, id: &str) -> String {
        format!("{}/snapshots/{id}", self.bucket)
    }

    /// Take a snapshot of the given block set + metadata. Blocks already
    /// in S3 are not re-uploaded.
    pub fn take_snapshot(
        &self,
        id: &str,
        kind: SnapshotKind,
        store: &ReplicatedStore,
        blocks: Vec<BlockId>,
        metadata: &[u8],
    ) -> Result<SnapshotInfo> {
        // Flush the continuous-backup queue first, then ensure coverage.
        store.drain_backup_queue()?;
        let mut uploaded = 0usize;
        for &b in &blocks {
            let key = block_key(&self.bucket, b);
            if !self.s3.exists(&self.region, &key) {
                let blk = store.get_any(b)?;
                self.retried("s3.put", || {
                    self.s3.put_traced(&self.region, &key, blk.serialize(), self.trace.as_ref())
                })?;
                uploaded += 1;
            }
        }
        // Manifest: seq, kind, metadata, block list.
        let mut seq = self.seq.lock();
        *seq += 1;
        let seq_now = *seq;
        drop(seq);
        let mut w = Writer::new();
        w.put_u32(0x534E_4150); // "SNAP"
        w.put_u64(seq_now);
        w.put_u8(match kind {
            SnapshotKind::System => 0,
            SnapshotKind::User => 1,
        });
        w.put_bytes(metadata);
        w.put_u32(blocks.len() as u32);
        for b in &blocks {
            w.put_u64(b.0);
        }
        let manifest = w.into_bytes();
        let manifest_key = self.manifest_key(id);
        self.retried("s3.put", || {
            self.s3.put_traced(&self.region, &manifest_key, manifest.clone(), self.trace.as_ref())
        })?;
        if let Some(dr) = &self.dr_region {
            // DR copies: manifest + any block not yet in the second region.
            self.retried("s3.put", || {
                self.s3.put_traced(dr, &manifest_key, manifest.clone(), self.trace.as_ref())
            })?;
            for &b in &blocks {
                let key = block_key(&self.bucket, b);
                if !self.s3.exists(dr, &key) {
                    self.retried("s3.copy_object", || {
                        self.s3.copy_object(&self.region, dr, &key, self.trace.as_ref())
                    })?;
                }
            }
        }
        let info = SnapshotInfo {
            id: id.to_string(),
            kind,
            seq: seq_now,
            blocks,
            new_blocks_uploaded: uploaded,
            metadata_len: metadata.len(),
        };
        let mut snaps = self.snapshots.lock();
        snaps.push(info.clone());
        // Age out old system snapshots (manifests only; their blocks stay
        // while referenced by newer snapshots — garbage collection of
        // unreferenced blocks happens in `gc_blocks`).
        let system_ids: Vec<String> = snaps
            .iter()
            .filter(|s| s.kind == SnapshotKind::System)
            .map(|s| s.id.clone())
            .collect();
        if system_ids.len() > self.system_retention {
            let drop_n = system_ids.len() - self.system_retention;
            for old in &system_ids[..drop_n] {
                self.s3.delete(&self.region, &self.manifest_key(old));
                if let Some(dr) = &self.dr_region {
                    self.s3.delete(dr, &self.manifest_key(old));
                }
                snaps.retain(|s| &s.id != old);
            }
        }
        Ok(info)
    }

    /// Delete a user snapshot.
    pub fn delete_snapshot(&self, id: &str) -> Result<()> {
        let mut snaps = self.snapshots.lock();
        let before = snaps.len();
        snaps.retain(|s| s.id != id);
        if snaps.len() == before {
            return Err(RsError::NotFound(format!("snapshot {id:?}")));
        }
        self.s3.delete(&self.region, &self.manifest_key(id));
        if let Some(dr) = &self.dr_region {
            self.s3.delete(dr, &self.manifest_key(id));
        }
        Ok(())
    }

    /// Garbage-collect S3 blocks referenced by no retained snapshot.
    pub fn gc_blocks(&self) -> usize {
        let snaps = self.snapshots.lock();
        let live: std::collections::HashSet<u64> =
            snaps.iter().flat_map(|s| s.blocks.iter().map(|b| b.0)).collect();
        drop(snaps);
        let prefix = format!("{}/blocks/", self.bucket);
        let mut removed = 0;
        for key in self.s3.list(&self.region, &prefix) {
            let hex = &key[prefix.len()..];
            if let Ok(id) = u64::from_str_radix(hex, 16) {
                if !live.contains(&id) {
                    self.s3.delete(&self.region, &key);
                    removed += 1;
                }
            }
        }
        removed
    }

    pub fn snapshots(&self) -> Vec<SnapshotInfo> {
        self.snapshots.lock().clone()
    }

    /// Load a snapshot manifest (from the given region — DR drills read
    /// the second region).
    pub fn load_manifest(
        &self,
        region: &str,
        id: &str,
    ) -> Result<(SnapshotKind, Vec<u8>, Vec<BlockId>)> {
        let key = self.manifest_key(id);
        let bytes =
            self.retried("s3.get", || self.s3.get_traced(region, &key, self.trace.as_ref()))?;
        let mut r = Reader::new(&bytes);
        if r.get_u32()? != 0x534E_4150 {
            return Err(RsError::Codec("bad snapshot magic".into()));
        }
        let _seq = r.get_u64()?;
        let kind = match r.get_u8()? {
            0 => SnapshotKind::System,
            1 => SnapshotKind::User,
            t => return Err(RsError::Codec(format!("bad snapshot kind {t}"))),
        };
        let metadata = r.get_bytes()?.to_vec();
        let n = r.get_count(8)?;
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            blocks.push(BlockId(r.get_u64()?));
        }
        Ok((kind, metadata, blocks))
    }

    pub fn region(&self) -> &str {
        &self.region
    }

    pub fn dr_region(&self) -> Option<&str> {
        self.dr_region.as_deref()
    }

    pub fn bucket(&self) -> &str {
        &self.bucket
    }

    pub fn s3(&self) -> &Arc<S3Sim> {
        &self.s3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_distribution::NodeId;
    use redsim_storage::{BlockStore, EncodedBlock};

    fn setup() -> (Arc<S3Sim>, Arc<ReplicatedStore>, BackupManager) {
        let s3 = Arc::new(S3Sim::new());
        let store = ReplicatedStore::new(2, 2, Arc::clone(&s3), "us-east-1", "clu").unwrap();
        let mgr = BackupManager::new(
            Arc::clone(&s3),
            "us-east-1",
            "clu",
            Some("eu-west-1".into()),
            2,
        );
        (s3, store, mgr)
    }

    fn put_blocks(store: &Arc<ReplicatedStore>, n: u8) -> Vec<BlockId> {
        let ns = store.node_store(NodeId(0));
        (0..n)
            .map(|i| {
                let b = EncodedBlock::new(1, vec![i; 16]);
                let id = b.id;
                ns.put(b).unwrap();
                id
            })
            .collect()
    }

    #[test]
    fn incremental_snapshots() {
        let (_s3, store, mgr) = setup();
        let ids = put_blocks(&store, 10);
        let s1 = mgr
            .take_snapshot("snap-1", SnapshotKind::System, &store, ids.clone(), b"cat-v1")
            .unwrap();
        // drain_backup_queue already uploaded them; snapshot uploads 0 new.
        assert_eq!(s1.new_blocks_uploaded, 0);
        let more = put_blocks(&store, 3);
        // Cut the continuous queue out of the picture to prove the
        // snapshot path itself uploads missing blocks.
        let all: Vec<BlockId> = ids.iter().chain(&more).copied().collect();
        let s2 = mgr
            .take_snapshot("snap-2", SnapshotKind::User, &store, all, b"cat-v2")
            .unwrap();
        assert!(s2.new_blocks_uploaded <= 3);
        assert_eq!(s2.seq, 2);
    }

    #[test]
    fn system_snapshots_age_out_user_persist() {
        let (_s3, store, mgr) = setup();
        let ids = put_blocks(&store, 2);
        for i in 0..4 {
            mgr.take_snapshot(
                &format!("sys-{i}"),
                SnapshotKind::System,
                &store,
                ids.clone(),
                b"",
            )
            .unwrap();
        }
        mgr.take_snapshot("user-1", SnapshotKind::User, &store, ids.clone(), b"").unwrap();
        let snaps = mgr.snapshots();
        let sys: Vec<_> = snaps.iter().filter(|s| s.kind == SnapshotKind::System).collect();
        assert_eq!(sys.len(), 2, "retention=2");
        assert!(snaps.iter().any(|s| s.id == "user-1"));
        assert!(mgr.load_manifest("us-east-1", "sys-0").is_err(), "aged out");
        assert!(mgr.load_manifest("us-east-1", "user-1").is_ok());
    }

    #[test]
    fn dr_region_receives_copies() {
        let (s3, store, mgr) = setup();
        let ids = put_blocks(&store, 5);
        mgr.take_snapshot("snap", SnapshotKind::User, &store, ids, b"meta").unwrap();
        let (kind, meta, blocks) = mgr.load_manifest("eu-west-1", "snap").unwrap();
        assert_eq!(kind, SnapshotKind::User);
        assert_eq!(meta, b"meta");
        assert_eq!(blocks.len(), 5);
        for b in blocks {
            assert!(s3.exists("eu-west-1", &format!("clu/blocks/{:016x}", b.0)));
        }
    }

    #[test]
    fn gc_removes_unreferenced_blocks() {
        let (s3, store, mgr) = setup();
        let ids = put_blocks(&store, 4);
        mgr.take_snapshot("s1", SnapshotKind::User, &store, ids[..2].to_vec(), b"").unwrap();
        // Blocks 2,3 reached S3 via the continuous queue but belong to no
        // snapshot.
        store.drain_backup_queue().unwrap();
        let removed = mgr.gc_blocks();
        assert_eq!(removed, 2);
        assert!(s3.exists("us-east-1", &format!("clu/blocks/{:016x}", ids[0].0)));
        assert!(!s3.exists("us-east-1", &format!("clu/blocks/{:016x}", ids[3].0)));
    }

    #[test]
    fn delete_snapshot() {
        let (_s3, store, mgr) = setup();
        let ids = put_blocks(&store, 1);
        mgr.take_snapshot("u", SnapshotKind::User, &store, ids, b"").unwrap();
        mgr.delete_snapshot("u").unwrap();
        assert!(mgr.delete_snapshot("u").is_err());
        assert!(mgr.load_manifest("us-east-1", "u").is_err());
    }

    /// A manifest read back from S3 whose block count says `u32::MAX` is
    /// a typed error, not an allocation that aborts the process.
    #[test]
    fn a_corrupt_count_is_a_codec_error() {
        let (s3, store, mgr) = setup();
        mgr.take_snapshot("none", SnapshotKind::User, &store, Vec::new(), b"meta").unwrap();
        let key = "clu/snapshots/none";
        let mut manifest = s3.get("us-east-1", key).unwrap().to_vec();
        let at = manifest.len() - 4; // the block count, of no blocks
        manifest[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        s3.put("us-east-1", key, manifest);
        let err = mgr.load_manifest("us-east-1", "none").unwrap_err();
        assert!(matches!(err, RsError::Codec(_)), "{err}");
    }
}
