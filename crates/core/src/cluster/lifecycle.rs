//! Lifecycle: the three ways a cluster comes to exist (launch, restore
//! from a snapshot, recover from a crash) — each builds its durable part
//! and hands it to [`Cluster::assemble`] — and the ways it ends
//! (snapshot, resize, shutdown, crash).

use super::durable::{BlockHome, CrashImage, Durable, Keys};
use super::write::WriteScope;
use super::{Cluster, ClusterState};
use crate::catalog::{Catalog, TableEntry};
use crate::config::ClusterConfig;
use redsim_common::codec::Reader;
use redsim_common::Result;
use redsim_crypto::HsmSim;
use redsim_obs::{TraceSink, LVL_PHASE};
use redsim_replication::{
    BackupManager, ReplicatedStore, S3Sim, SnapshotInfo, SnapshotKind, StreamingRestoreStore,
};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Cluster {
    /// Launch a cluster with its own private S3.
    pub fn launch(config: ClusterConfig) -> Result<Arc<Cluster>> {
        Self::launch_with_s3(config, Arc::new(S3Sim::new()))
    }

    /// Launch against a shared S3 (restore drills, DR, resize).
    pub fn launch_with_s3(config: ClusterConfig, s3: Arc<S3Sim>) -> Result<Arc<Cluster>> {
        let replicated = ReplicatedStore::new(
            config.nodes,
            config.cohort_size.min(config.nodes.max(1)).max(2.min(config.nodes)),
            Arc::clone(&s3),
            config.region.clone(),
            config.name.clone(),
        )?;
        let keys = if config.encryption { Some(Keys::create(config.seed)?) } else { None };
        let trace = Arc::new(TraceSink::from_env());
        let blocks = BlockHome::Mirrored(replicated);
        let durable = Durable::new(&config, trace, s3, blocks, keys, Vec::new());
        Self::assemble(config, durable, |_, _| Ok(Catalog::default()))
    }

    // ------------------------------------------------------------------
    // Snapshots / restore
    // ------------------------------------------------------------------

    /// Take a snapshot (system snapshots age out; user snapshots persist).
    pub fn create_snapshot(&self, id: &str, kind: SnapshotKind) -> Result<SnapshotInfo> {
        self.check_readable()?;
        self.durable.mirrored("snapshot")?; // before queueing for the exclusive lock
        // Exclusive: waits out in-flight table writers, so the manifest
        // only ever references committed blocks.
        let _txn = self.begin_write_txn(WriteScope::Exclusive)?;
        let mut span = self.trace().span(LVL_PHASE, "snapshot");
        let catalog = self.leader.catalog.read();
        let blocks = catalog.block_ids();
        if span.is_recording() {
            span.attr("id", id);
            span.attr("blocks", blocks.len());
        }
        self.durable.snapshot(id, kind, &catalog, blocks)
    }

    /// Restore a snapshot into a new cluster. The returned cluster is
    /// queryable immediately (streaming restore); use
    /// [`Cluster::hydrate_step`] / [`Cluster::hydration_progress`] to
    /// drive and observe the background download.
    ///
    /// `region` picks which copy to restore from — pass the DR region for
    /// a disaster drill. `hsm` must be the HSM holding the master key for
    /// encrypted snapshots.
    pub fn restore_from_snapshot(
        config: ClusterConfig,
        s3: Arc<S3Sim>,
        region: &str,
        bucket: &str,
        snapshot_id: &str,
        hsm: Option<Arc<HsmSim>>,
    ) -> Result<Arc<Cluster>> {
        let trace = Arc::new(TraceSink::from_env());
        // Before the manifest load, so its S3 reads land in this sink.
        s3.set_trace(Arc::clone(&trace));
        let mut rspan = trace.span(LVL_PHASE, "restore.open");
        let mgr = BackupManager::new(Arc::clone(&s3), region, bucket, None, 4);
        let (_kind, metadata, blocks) = mgr.load_manifest(region, snapshot_id)?;
        if rspan.is_recording() {
            rspan.attr("snapshot", snapshot_id);
            rspan.attr("blocks", blocks.len());
        }
        let mut r = Reader::new(&metadata);
        let keys = Keys::decode(&mut r, hsm)?;
        let restoring = Arc::new(
            StreamingRestoreStore::open(Arc::clone(&s3), region, bucket, blocks)
                .with_trace(Arc::clone(&trace))
                .with_retry(config.retry.with_seed(config.seed)),
        );
        let blocks = BlockHome::Restoring(restoring);
        let durable = Durable::new(&config, trace, s3, blocks, keys, Vec::new());
        let cluster =
            Self::assemble(config, durable, |_, c| Catalog::decode(&mut r, &c.topology))?;
        rspan.finish(); // open for SQL: metadata + catalog only (§2.2)
        Ok(cluster)
    }

    /// Drive background hydration (restored clusters). Returns blocks
    /// fetched; 0 = complete.
    pub fn hydrate_step(&self, k: usize) -> Result<usize> {
        self.durable.restoring().map_or(Ok(0), |r| r.hydrate_step(k))
    }

    /// Fraction of a restore's blocks present locally (1.0 = done, and
    /// for normally-launched clusters).
    pub fn hydration_progress(&self) -> f64 {
        self.durable.restoring().map_or(1.0, |r| r.hydration_progress())
    }

    /// Page faults served during/after restore.
    pub fn restore_page_faults(&self) -> u64 {
        self.durable.restoring().map_or(0, |r| r.page_fault_count())
    }

    // ------------------------------------------------------------------
    // Resize / shutdown
    // ------------------------------------------------------------------

    /// Elastic resize (§3.1): provision a target cluster, put this one in
    /// read-only mode, run a parallel copy, then decommission the source.
    /// Returns the target; the source answers reads until the copy
    /// completes (then rejects everything).
    pub fn resize(&self, new_nodes: u32, new_slices_per_node: u32) -> Result<Arc<Cluster>> {
        self.check_writable()?;
        // Drain WLM first: stop admitting, evict queued queries with a
        // retryable error, and let in-flight queries finish before the
        // topology changes underneath them.
        self.drain_wlm();
        *self.state.write() = ClusterState::ReadOnly;
        let result = self.resize_inner(new_nodes, new_slices_per_node);
        match &result {
            Ok(_) => *self.state.write() = ClusterState::Decommissioned,
            Err(_) => {
                // Roll back: the source keeps serving, so WLM must
                // accept queries again.
                *self.state.write() = ClusterState::Available;
                self.leader.wlm.reopen();
            }
        }
        result
    }

    /// Graceful shutdown: drain WLM (reject new queries, evict waiters,
    /// wait for in-flight queries to finish), then decommission. Used by
    /// DR failover drills before promoting the standby.
    pub fn shutdown(&self) {
        self.drain_wlm();
        *self.state.write() = ClusterState::Decommissioned;
    }

    fn drain_wlm(&self) {
        self.leader.wlm.begin_drain();
        self.leader.wlm.wait_idle(std::time::Duration::from_secs(30));
    }

    fn resize_inner(&self, new_nodes: u32, new_slices_per_node: u32) -> Result<Arc<Cluster>> {
        let mut cfg = self.config.clone();
        cfg.name = format!("{}-resized", self.config.name);
        cfg.nodes = new_nodes;
        cfg.slices_per_node = new_slices_per_node;
        cfg.seed = self.config.seed.wrapping_add(1);
        let target = Cluster::launch_with_s3(cfg, Arc::clone(self.s3()))?;
        let catalog = self.leader.catalog.read();
        for entry in catalog.tables() {
            // Recreate the table on the target.
            let new_entry = TableEntry::new(
                entry.name.clone(),
                entry.schema.clone(),
                entry.dist_style.clone(),
                entry.sort_key.clone(),
                &target.compute.topology,
                target.config.rows_per_group,
            )?;
            // Node-to-node parallel copy: every source slice streams its
            // batches; the router redistributes for the new topology.
            // ALL tables copy from one slice (the target re-duplicates).
            let mut draft = target.draft(&new_entry);
            target.compute.copy_table(&new_entry, &mut draft.next, &self.compute, entry)?;
            draft.install(0);
            target.leader.catalog.write().create(new_entry)?;
        }
        // Seed the target's redo log so a crash right after cutover
        // recovers the migrated data rather than an empty catalog.
        target.checkpoint_now();
        Ok(target)
    }

    // ------------------------------------------------------------------
    // Crash / recovery
    // ------------------------------------------------------------------

    /// Arm the hard-crash flag *without* tearing the cluster down yet:
    /// from here on, failed statements leave the blocks they wrote
    /// behind, exactly as if the process died mid-statement. Pair with
    /// [`Cluster::crash`] + [`Cluster::recover`]; only recovery's orphan
    /// scrub cleans up.
    pub fn arm_hard_crash(&self) {
        self.durable.hard_crash.store(true, Ordering::Release);
    }

    /// Simulate a process crash: every in-memory structure — catalog,
    /// MVCC versions, caches, sessions, the WAL's unsynced tail — is
    /// gone. What survives is the "disk": the replicated block stores,
    /// S3, the WAL's durable prefix, and the HSM. The old handle is
    /// decommissioned (every statement on it now fails); feed the image
    /// to [`Cluster::recover`].
    pub fn crash(&self) -> Result<CrashImage> {
        self.durable.mirrored("crash/recover")?;
        self.arm_hard_crash();
        *self.state.write() = ClusterState::Decommissioned;
        Ok(CrashImage {
            config: self.config.clone(),
            durable: Arc::clone(&self.durable),
            wal: self.durable.wal.durable_bytes(),
        })
    }

    /// Recover a crashed cluster from its surviving disk state: replay
    /// the redo log (last committed checkpoint, then committed deltas in
    /// log order), rebuild the catalog and MVCC versions, scrub orphan
    /// blocks that no recovered manifest references, and compact the
    /// log. Uncommitted writes — anything without a commit mark in the
    /// durable prefix — are invisible afterwards.
    pub fn recover(image: CrashImage) -> Result<Arc<Cluster>> {
        let CrashImage { config, durable: dead, wal } = image;
        let trace = Arc::new(TraceSink::from_env());
        let mut rspan = trace.span(LVL_PHASE, "recovery");
        let (s3, blocks, keys) = (Arc::clone(&dead.s3), dead.blocks.clone(), dead.keys.clone());
        let durable = Durable::new(&config, Arc::clone(&trace), s3, blocks, keys, wal);
        let cluster = Self::assemble(config, durable, |durable, compute| {
            let (catalog, replayed) = durable.replay(&compute.topology)?;
            // Orphan scrub: any placed block no recovered manifest
            // references was written by an uncommitted statement (or
            // superseded by a committed rewrite whose deferred deletion
            // never ran). Delete it everywhere — committed state never
            // references it again.
            let referenced: BTreeSet<u64> = catalog.block_ids().iter().map(|id| id.0).collect();
            let mut orphans = durable.mirrored("recover")?.placed_block_ids();
            orphans.retain(|id| !referenced.contains(&id.0));
            let scrubbed = orphans.len() as u64;
            compute.delete_blocks(orphans);
            trace.counter("recovery.orphan_blocks_scrubbed").add(scrubbed);
            trace.counter("recovery.replayed_deltas").add(replayed);
            if rspan.is_recording() {
                rspan.attr("replayed_deltas", replayed);
                rspan.attr("orphan_blocks_scrubbed", scrubbed);
            }
            rspan.finish();
            Ok(catalog)
        })?;
        // Compact: fold the replayed state into one fresh checkpoint so
        // repeated crash/recover cycles don't replay an ever-longer log.
        // Best-effort — on failure the old (still-correct) log remains.
        cluster.checkpoint_now();
        Ok(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_faultkit::{fp, ErrClass, FaultSpec};

    fn small() -> Arc<Cluster> {
        Cluster::launch(ClusterConfig::new("t").nodes(2).slices_per_node(2)).unwrap()
    }

    #[test]
    fn snapshot_restore_preserves_data() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR) DISTKEY(a) COMPOUND SORTKEY(a)")
            .unwrap();
        for i in 0..200 {
            c.execute(&format!("INSERT INTO t VALUES ({i}, 'r{i}')")).unwrap();
        }
        c.create_snapshot("snap-1", SnapshotKind::User).unwrap();
        let restored = Cluster::restore_from_snapshot(
            ClusterConfig::new("t2").nodes(2).slices_per_node(2),
            Arc::clone(c.s3()),
            "us-east-1",
            "t",
            "snap-1",
            None,
        )
        .unwrap();
        // Query before hydration: page faults serve reads.
        assert!(restored.hydration_progress() < 1.0);
        let r = restored.query("SELECT COUNT(*), MAX(a) FROM t").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(200));
        assert_eq!(r.rows[0].get(1).as_i64(), Some(199));
        assert!(restored.restore_page_faults() > 0);
        // Background hydration completes.
        while restored.hydrate_step(16).unwrap() > 0 {}
        assert!((restored.hydration_progress() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn encrypted_cluster_end_to_end() {
        let c = Cluster::launch(
            ClusterConfig::new("enc").nodes(2).slices_per_node(1).encrypted(true),
        )
        .unwrap();
        c.execute("CREATE TABLE s (x BIGINT, secret VARCHAR)").unwrap();
        c.execute("INSERT INTO s VALUES (1, 'TOPSECRETVALUE9999')").unwrap();
        let r = c.query("SELECT secret FROM s").unwrap();
        assert_eq!(r.rows[0].get(0).as_str(), Some("TOPSECRETVALUE9999"));
        // Snapshot + restore through the HSM.
        c.create_snapshot("esnap", SnapshotKind::User).unwrap();
        // S3 bytes contain no plaintext.
        let keys = c.s3().list("us-east-1", "enc/blocks/");
        assert!(!keys.is_empty());
        for k in &keys {
            let bytes = c.s3().get("us-east-1", k).unwrap();
            assert!(!bytes.windows(10).any(|w| w == b"TOPSECRETV"), "plaintext in S3");
        }
        let hsm = Arc::clone(c.hsm().unwrap());
        let restored = Cluster::restore_from_snapshot(
            ClusterConfig::new("enc2").nodes(2).slices_per_node(1).encrypted(true),
            Arc::clone(c.s3()),
            "us-east-1",
            "enc",
            "esnap",
            Some(hsm),
        )
        .unwrap();
        let r = restored.query("SELECT secret FROM s").unwrap();
        assert_eq!(r.rows[0].get(0).as_str(), Some("TOPSECRETVALUE9999"));
        // Key rotation leaves data readable.
        c.rotate_cluster_key().unwrap();
        let r = c.query("SELECT secret FROM s").unwrap();
        assert_eq!(r.rows[0].get(0).as_str(), Some("TOPSECRETVALUE9999"));
    }

    #[test]
    fn resize_preserves_data_and_decommissions_source() {
        let c = small();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR) DISTKEY(a)").unwrap();
        for i in 0..100 {
            c.execute(&format!("INSERT INTO t VALUES ({i}, 'x{i}')")).unwrap();
        }
        let target = c.resize(4, 2).unwrap();
        assert_eq!(c.state(), ClusterState::Decommissioned);
        assert!(c.query("SELECT 1 FROM t").is_err());
        let r = target.query("SELECT COUNT(*), MIN(a), MAX(a) FROM t").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(100));
        assert_eq!(r.rows[0].get(2).as_i64(), Some(99));
        assert_eq!(target.topology().total_slices(), 8);
        // Writes continue on the target.
        target.execute("INSERT INTO t VALUES (100, 'new')").unwrap();
        let r = target.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(101));
    }


    #[test]
    fn crash_recover_preserves_committed_writes() {
        let c = small();
        c.execute("CREATE TABLE t (k BIGINT, v VARCHAR) COMPOUND SORTKEY(k)").unwrap();
        let mut csv = String::new();
        for i in 0..300 {
            csv.push_str(&format!("{i},row-{i}\n"));
        }
        c.put_s3_object("load/rows", csv.into_bytes());
        c.execute("COPY t FROM 's3://load/'").unwrap();
        c.execute("INSERT INTO t VALUES (1000, 'tail-a'), (1001, 'tail-b')").unwrap();
        let before = c.query("SELECT COUNT(*), SUM(k), MAX(v) FROM t").unwrap();

        let image = c.crash().unwrap();
        assert!(c.query("SELECT COUNT(*) FROM t").is_err(), "crashed cluster is gone");

        let r = Cluster::recover(image).unwrap();
        let after = r.query("SELECT COUNT(*), SUM(k), MAX(v) FROM t").unwrap();
        assert_eq!(after.rows[0].get(0).as_i64(), before.rows[0].get(0).as_i64());
        assert_eq!(after.rows[0].get(1).as_i64(), before.rows[0].get(1).as_i64());
        assert_eq!(after.rows[0].get(2).as_str(), before.rows[0].get(2).as_str());
        assert_eq!(r.rows_estimate("t"), Some(302));
        // Recovered clusters keep working as writers.
        r.execute("INSERT INTO t VALUES (2000, 'post-recovery')").unwrap();
        assert_eq!(r.rows_estimate("t"), Some(303));
    }

    #[test]
    fn crash_discards_uncommitted_write_and_scrubs_orphans() {
        let c = small();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        c.put_s3_object("a/rows", b"1\n2\n3\n".to_vec());
        c.execute("COPY t FROM 's3://a/'").unwrap();

        // The next COPY dies after its blocks hit the mirror but before
        // the WAL commit record: a hard crash mid-commit. The armed
        // crash flag keeps the dropped draft from deleting its blocks —
        // exactly the state a real power cut leaves behind.
        c.arm_hard_crash();
        c.faults().configure(fp::WAL_COMMIT, FaultSpec::err(ErrClass::Fault).once());
        c.put_s3_object("b/rows", b"4\n5\n6\n7\n".to_vec());
        c.execute("COPY t FROM 's3://b/'").unwrap_err();

        let image = c.crash().unwrap();
        let r = Cluster::recover(image).unwrap();
        let q = r.query("SELECT COUNT(*), SUM(k) FROM t").unwrap();
        assert_eq!(q.rows[0].get(0).as_i64(), Some(3), "uncommitted COPY must be invisible");
        assert_eq!(q.rows[0].get(1).as_i64(), Some(6));
        assert_eq!(r.rows_estimate("t"), Some(3));
        assert!(
            r.trace().counter_value("recovery.orphan_blocks_scrubbed") > 0,
            "the torn COPY's blocks are orphans and must be scrubbed"
        );
    }

    #[test]
    fn recovery_replays_wal_deltas_after_last_checkpoint() {
        let c = small();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap(); // checkpoint
        c.execute("INSERT INTO t VALUES (1)").unwrap(); // delta
        c.execute("INSERT INTO t VALUES (2), (3)").unwrap(); // delta
        let image = c.crash().unwrap();
        assert!(image.wal_len() > 0, "the redo log must carry the deltas");
        let r = Cluster::recover(image).unwrap();
        assert!(r.trace().counter_value("recovery.replayed_deltas") >= 2);
        let q = r.query("SELECT SUM(k) FROM t").unwrap();
        assert_eq!(q.rows[0].get(0).as_i64(), Some(6));
        // Recovery compacts: a fresh crash image starts from the new
        // checkpoint with nothing left to replay.
        let again = Cluster::recover(r.crash().unwrap()).unwrap();
        assert_eq!(again.trace().counter_value("recovery.replayed_deltas"), 0);
        let q2 = again.query("SELECT SUM(k) FROM t").unwrap();
        assert_eq!(q2.rows[0].get(0).as_i64(), Some(6));
    }
    /// One EVEN table with every piece of [`TableState`] off its default:
    /// analyzed once (stats), then loaded again without STATUPDATE (stale
    /// loads, advanced cursor).
    fn stale_even_table(c: &Cluster) -> Vec<u8> {
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        c.put_s3_object("a/rows", b"1\n2\n3\n".to_vec());
        c.execute("COPY t FROM 's3://a/'").unwrap();
        c.execute("COPY t FROM 's3://a/' STATUPDATE OFF").unwrap();
        let version = c.committed("t").unwrap();
        assert_eq!(version.state.loads_since_analyze, 3);
        assert_eq!(version.state.cursor, 6 % 4, "six rows round-robined over four slices");
        assert!(version.state.stats.is_some());
        version.encode_delta("t")
    }

    fn restore(c: &Cluster, name: &str, snapshot: &str) -> Arc<Cluster> {
        Cluster::restore_from_snapshot(
            ClusterConfig::new(name).nodes(2).slices_per_node(2),
            Arc::clone(c.s3()),
            "us-east-1",
            "t",
            snapshot,
            None,
        )
        .unwrap()
    }

    #[test]
    fn restore_preserves_table_state() {
        let c = small();
        let image = stale_even_table(&c);
        c.create_snapshot("s", SnapshotKind::User).unwrap();
        let r = restore(&c, "r", "s");
        // Loads, stats and the round-robin cursor all survive: the
        // manifest carries the same table image the redo log does.
        assert_eq!(r.committed("t").unwrap().encode_delta("t"), image);
        assert_eq!(r.loads_since_analyze("t"), 3);
        // So the restored cluster still auto-analyzes the stale table.
        let actions = r.maintenance_tick(&Default::default()).unwrap();
        assert!(actions.contains(&crate::MaintenanceAction::Analyze { table: "t".into() }));
        assert_eq!(r.loads_since_analyze("t"), 0);
    }

    #[test]
    fn resize_preserves_table_state() {
        let c = small();
        stale_even_table(&c);
        let target = c.resize(4, 2).unwrap();
        assert_eq!(target.loads_since_analyze("t"), 3);
        let state = target.committed("t").unwrap().state.clone();
        assert_eq!(state.rows_estimate, 6);
        assert_eq!(state.stats.map(|s| s.rows), Some(3));
        assert_eq!(state.cursor, 6, "the target's own routing, not the source's cursor");
    }

    #[test]
    fn restored_cluster_says_why_it_cannot_snapshot_or_crash() {
        let c = small();
        stale_even_table(&c);
        c.create_snapshot("s", SnapshotKind::User).unwrap();
        let r = restore(&c, "r", "s");
        while r.hydrate_step(16).unwrap() > 0 {}
        assert!((r.hydration_progress() - 1.0).abs() < 1e-9);
        let errors = [
            r.create_snapshot("again", SnapshotKind::User).map(|_| ()).unwrap_err(),
            r.crash().map(|_| ()).unwrap_err(),
        ];
        for e in errors {
            assert!(matches!(e, redsim_common::RsError::InvalidState(_)), "{e}");
            assert!(e.to_string().contains("has none"), "{e}");
            assert!(!e.to_string().contains("in progress"), "hydration is complete: {e}");
        }
        assert_eq!(r.state(), ClusterState::Available, "a refused crash leaves the cluster up");
    }

    #[test]
    fn recovery_restores_every_field_of_tables_written_after_the_checkpoint() {
        let c = small();
        c.execute("CREATE TABLE a (k BIGINT)").unwrap();
        c.execute("CREATE TABLE b (k BIGINT, v VARCHAR) DISTKEY(k)").unwrap(); // last checkpoint
        c.put_s3_object("in/rows", b"1\n2\n3\n4\n5\n".to_vec());
        c.put_s3_object("inb/rows", b"1,x\n2,y\n".to_vec());
        c.execute("COPY a FROM 's3://in/' STATUPDATE OFF").unwrap(); // delta: loads, cursor
        c.execute("COPY b FROM 's3://inb/'").unwrap(); // delta: stats
        c.execute("INSERT INTO a VALUES (6)").unwrap(); // delta over a delta
        let images = |c: &Cluster| -> Vec<Vec<u8>> {
            ["a", "b"].iter().map(|t| c.committed(t).unwrap().encode_delta(t)).collect()
        };
        let before = images(&c);
        let r = Cluster::recover(c.crash().unwrap()).unwrap();
        assert_eq!(r.trace().counter_value("recovery.replayed_deltas"), 3);
        assert_eq!(images(&r), before);
        assert_eq!(r.loads_since_analyze("a"), 5);
        assert_eq!(r.rows_estimate("a"), Some(6));
        assert_eq!(r.rows_estimate("b"), Some(2));
    }
}
