//! Lifecycle: the three ways a cluster comes to exist (launch, restore
//! from a snapshot, recover from a crash) — each builds its durable part
//! and hands it to [`Cluster::assemble`] — and the ways it ends
//! (snapshot, resize, shutdown, crash).

use super::durable::{CrashImage, Durable, Keys};
use super::{Cluster, ClusterState};
use crate::catalog::{Catalog, TableEntry};
use crate::config::ClusterConfig;
use redsim_common::codec::Reader;
use redsim_common::Result;
use redsim_crypto::HsmSim;
use redsim_distribution::SliceId;
use redsim_obs::TraceSink;
use redsim_replication::{BackupManager, S3Sim, SnapshotInfo, SnapshotKind};
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
        let keys = if config.encryption { Some(Keys::create(config.seed)?) } else { None };
        let durable = Durable::create(&config, Arc::new(TraceSink::new()), s3, keys)?;
        Self::assemble(config, durable, |_, _| Ok(Catalog::default()))
    }

    // ------------------------------------------------------------------
    // Snapshots / restore
    // ------------------------------------------------------------------

    /// Take a snapshot (system snapshots age out; user snapshots persist).
    pub fn create_snapshot(&self, id: &str, kind: SnapshotKind) -> Result<SnapshotInfo> {
        self.check_readable()?;
        // Exclusive: waits out in-flight table writers, so the manifest
        // only ever references committed blocks.
        let draft = self.begin_exclusive();
        let mut span = self.trace().span("snapshot");
        let blocks = draft.next.block_ids();
        span.attr("id", id);
        span.attr("blocks", blocks.len());
        self.durable.snapshot(id, kind, &draft.next, blocks)
    }

    /// Restore a snapshot into a new cluster. The returned cluster is
    /// queryable immediately (streaming restore): its block store starts
    /// with no placements and the snapshot's blocks pending in S3, each
    /// page-faulted onto its node on first read; use
    /// [`Cluster::hydrate_step`] / [`Cluster::hydration_progress`] to
    /// drive and observe the background download. It is otherwise an
    /// ordinary cluster: it mirrors and backs up its writes, snapshots,
    /// crashes and recovers, and resizes, at any hydration point.
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
        let trace = Arc::new(TraceSink::new());
        let mut rspan = trace.span("restore.open");
        let mgr = BackupManager::new(Arc::clone(&s3), region, bucket, None, 4)
            .with_retry(config.retry.with_seed(config.seed))
            .with_trace(Arc::clone(&trace));
        let (_kind, metadata, blocks) = mgr.load_manifest(region, snapshot_id)?;
        rspan.attr("snapshot", snapshot_id);
        rspan.attr("blocks", blocks.len());
        let mut r = Reader::new(&metadata);
        let keys = Keys::decode(&mut r, hsm)?;
        let durable = Durable::create(&config, trace, s3, keys)?;
        let cluster = Self::assemble(config, durable, |_, _| Ok(Catalog::default()))?;
        // The snapshot's catalog is the new cluster's first commit: its
        // checkpoint seeds the redo log, so a crash right after the
        // restore recovers it, and a refused one fails the restore.
        let mut draft = cluster.begin_exclusive();
        draft.next = Catalog::decode(&mut r, &cluster.compute.topology)?;
        cluster.compute.adopt(&draft.next);
        // Each block is pending on the node of the slice that owns it.
        let mut homes = Vec::new();
        for (_, version) in draft.next.tables() {
            for (slice, t) in version.slices.iter().enumerate() {
                let node = cluster.compute.topology.node_of(SliceId(slice as u32));
                homes.extend(t.block_ids().into_iter().map(|id| (id, node)));
            }
        }
        cluster.durable.blocks.restore_from(region, bucket, homes);
        draft.commit()?;
        rspan.finish(); // open for SQL: metadata + catalog only (§2.2)
        Ok(cluster)
    }

    /// Drive background hydration (restored clusters): page-fault up to
    /// `k` pending blocks onto the cluster. Returns blocks fetched;
    /// 0 = complete.
    pub fn hydrate_step(&self, k: usize) -> Result<usize> {
        self.durable.blocks.hydrate_step(k)
    }

    /// Share of a restore's blocks on-cluster (1.0 = done, and for
    /// normally-launched clusters). Writes after the restore do not count.
    pub fn hydration_progress(&self) -> f64 {
        self.durable.blocks.hydration_progress()
    }

    /// Reads that fell through to an S3 page fault (a restore's demand
    /// faults among them) — `fallthrough_stats().1`.
    pub fn restore_page_faults(&self) -> u64 {
        self.durable.blocks.fallthrough_stats().1
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
        // Read-only under the publication lock: every commit is either in
        // the one catalog the copy reads or refused, never acknowledged
        // and then left behind on the source.
        let source = {
            let _publication = self.leader.publication.lock();
            *self.state.write() = ClusterState::ReadOnly;
            self.leader.catalog()
        };
        let result = self.resize_inner(&source, new_nodes, new_slices_per_node);
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

    fn resize_inner(
        &self,
        source: &Catalog,
        new_nodes: u32,
        new_slices_per_node: u32,
    ) -> Result<Arc<Cluster>> {
        let mut cfg = self.config.clone();
        cfg.name = format!("{}-resized", self.config.name);
        cfg.nodes = new_nodes;
        cfg.slices_per_node = new_slices_per_node;
        cfg.seed = self.config.seed.wrapping_add(1);
        let target = Cluster::launch_with_s3(cfg, Arc::clone(self.s3()))?;
        // The migrated catalog is the target's first commit, as for a
        // restore: a refused checkpoint fails the resize.
        let mut draft = target.begin_exclusive();
        for (entry, image) in source.tables() {
            let (to, empty) = TableEntry::new(
                entry.name.clone(),
                entry.schema.clone(),
                entry.dist_style.clone(),
                entry.sort_key.clone(),
                &target.compute.topology,
                target.config.rows_per_group,
            )?;
            let next = draft.next.create((Arc::clone(&to), empty))?;
            // Node-to-node parallel copy: every source slice streams its
            // batches; the router redistributes for the new topology.
            // ALL tables copy from one slice (the target re-duplicates).
            target.compute.copy_table(&to, next, &self.compute, entry, image)?;
        }
        draft.commit()?;
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
        let trace = Arc::new(TraceSink::new());
        let mut rspan = trace.span("recovery");
        let (s3, blocks, keys) = (Arc::clone(&dead.s3), dead.blocks.clone(), dead.keys.clone());
        let durable = Durable::new(&config, Arc::clone(&trace), s3, blocks, keys, wal);
        Self::assemble(config, durable, |durable, compute| {
            let (catalog, replayed) = durable.replay(&compute.topology)?;
            // Orphan scrub: any placed block no recovered manifest
            // references was written by an uncommitted statement (or
            // superseded by a committed rewrite whose deferred deletion
            // never ran). Delete it everywhere — committed state never
            // references it again.
            let referenced: BTreeSet<u64> = catalog.block_ids().iter().map(|id| id.0).collect();
            let mut orphans = durable.blocks.placed_block_ids();
            orphans.retain(|id| !referenced.contains(&id.0));
            let scrubbed = orphans.len() as u64;
            // Any node's handle deletes from every replica.
            orphans.into_iter().for_each(|id| compute.node_stores[0].delete(id));
            trace.counter("recovery.orphan_blocks_scrubbed").add(scrubbed);
            trace.counter("recovery.replayed_deltas").add(replayed);
            rspan.attr("replayed_deltas", replayed);
            rspan.attr("orphan_blocks_scrubbed", scrubbed);
            rspan.finish();
            // Compact: fold the replayed state into one fresh checkpoint
            // so repeated crash/recover cycles don't replay an ever-longer
            // log. Best-effort — the log it compacts already holds the
            // state, so on failure that (still-correct) log remains.
            if durable.log_checkpoint(durable.next_txn(), &catalog).is_err() {
                trace.counter("wal.checkpoint_errors").incr();
            }
            Ok(catalog)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::Value;
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
    fn resize_keeps_a_sorted_table_sorted() {
        let c =
            Cluster::launch(ClusterConfig::new("s").nodes(2).slices_per_node(1).rows_per_group(32))
                .unwrap();
        c.execute("CREATE TABLE t (k BIGINT) COMPOUND SORTKEY(k)").unwrap();
        // 4,096 keys in scrambled order: an odd stride permutes 0..4096.
        let csv: String = (0..4096u64).map(|i| format!("{}\n", i * 2_654_435_761 % 4096)).collect();
        c.put_s3_object("k/rows", csv.into_bytes());
        c.execute("COPY t FROM 's3://k/'").unwrap();
        c.execute("VACUUM t").unwrap();
        let target = c.resize(3, 1).unwrap();
        let unsorted = target.query("SELECT unsorted FROM svv_table_info").unwrap();
        assert_eq!(unsorted.rows[0].get(0), &Value::Float8(0.0), "a resized table is sorted");
        let range = target.query("SELECT COUNT(*) FROM t WHERE k BETWEEN 100 AND 140").unwrap();
        assert_eq!(range.rows[0].get(0).as_i64(), Some(41));
        // Unsorted, every slice's groups span the whole key range: 9 blocks.
        assert!(range.metrics.blocks_read < 9, "zone maps skip nothing: {:?}", range.metrics);
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
            &c.config().name,
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

    /// Eight blocks: two columns on each of `small()`'s four slices.
    fn eight_block_table(c: &Cluster) {
        c.execute("CREATE TABLE t (k BIGINT, v VARCHAR) DISTKEY(k)").unwrap();
        let csv: String = (0..400).map(|i| format!("{i},v{i}\n")).collect();
        c.put_s3_object("in/rows", csv.into_bytes());
        c.execute("COPY t FROM 's3://in/'").unwrap();
        assert_eq!(c.leader.catalog().block_ids().len(), 8);
    }

    fn rows(c: &Cluster) -> Vec<redsim_common::Row> {
        c.query("SELECT COUNT(*), SUM(k), MIN(v), MAX(v) FROM t").unwrap().rows
    }

    #[test]
    fn restored_cluster_is_an_ordinary_cluster() {
        let c = small();
        eight_block_table(&c);
        c.create_snapshot("s", SnapshotKind::User).unwrap();
        c.execute("INSERT INTO t VALUES (1000, 'w')").unwrap();
        let expect = rows(&c);
        for hydrate in [0, 4, 8] {
            // Restored, `hydrate` of 8 blocks on-cluster, then written to.
            let at = |name: &str| {
                let r = restore(&c, &format!("{name}{hydrate}"), "s");
                assert_eq!(r.hydrate_step(hydrate).unwrap(), hydrate);
                assert_eq!(r.hydration_progress(), hydrate as f64 / 8.0);
                let before: BTreeSet<u64> =
                    r.committed("t").unwrap().block_ids().iter().map(|b| b.0).collect();
                r.execute("INSERT INTO t VALUES (1000, 'w')").unwrap();
                let written = r.committed("t").unwrap().block_ids();
                let id = *written.iter().find(|b| !before.contains(&b.0)).unwrap();
                (r, id)
            };
            // Its writes are mirrored and backed up: one survives the
            // loss of its primary.
            let (r, id) = at("kill");
            let store = r.replicated_store().unwrap();
            let placement = store.placement_of(id).unwrap();
            assert!(placement.secondary.is_some());
            assert!(store.backup_backlog() > 0, "post-restore writes queue for backup");
            let secondary_reads = store.fallthrough_stats().0;
            store.kill_node(placement.primary);
            assert_eq!(rows(&r), expect, "hydrated {hydrate}");
            assert!(store.fallthrough_stats().0 > secondary_reads, "hydrated {hydrate}");
            // It snapshots: a restore of the restore has the same rows.
            let (r, _) = at("snap");
            r.create_snapshot("again", SnapshotKind::User).unwrap();
            assert_eq!(rows(&restore(&r, &format!("again{hydrate}"), "again")), expect);
            // It crashes and recovers.
            let (r, _) = at("crash");
            let image = r.committed("t").unwrap().encode_delta("t");
            let recovered = Cluster::recover(r.crash().unwrap()).unwrap();
            assert_eq!(recovered.hydration_progress(), hydrate as f64 / 8.0);
            assert_eq!(recovered.committed("t").unwrap().encode_delta("t"), image);
            assert_eq!(rows(&recovered), expect, "hydrated {hydrate}");
        }
    }

    /// A crash while a statement holds a catalog whose blocks a VACUUM
    /// retired: recovery's orphan scrub frees them, and the dead cluster's
    /// late release — of that catalog, and of its own, which names the
    /// blocks the recovered cluster reads — deletes nothing under the one
    /// recovered over the same block store.
    #[test]
    fn crash_while_a_retired_catalog_is_held() {
        let c = small();
        eight_block_table(&c);
        let held = c.leader.catalog();
        c.execute("VACUUM t").unwrap();
        let published: BTreeSet<_> = c.leader.catalog().block_ids().into_iter().collect();
        let retired = held.block_ids().iter().filter(|id| !published.contains(id)).count() as u64;
        assert_eq!(retired, 8, "VACUUM rewrote every block");
        let r = Cluster::recover(c.crash().unwrap()).unwrap();
        assert_eq!(r.trace().counter_value("recovery.orphan_blocks_scrubbed"), retired);
        r.execute("INSERT INTO t VALUES (1000, 'w')").unwrap();
        let store = r.replicated_store().unwrap();
        let before = (rows(&r), store.placed_block_ids());
        drop((held, c));
        assert_eq!((rows(&r), store.placed_block_ids()), before, "the dead cluster freed blocks");
    }

    #[test]
    fn failed_hydration_step_keeps_its_block_pending() {
        let c = small();
        eight_block_table(&c);
        c.create_snapshot("s", SnapshotKind::User).unwrap();
        let retry = redsim_common::RetryPolicy::default()
            .with_max_attempts(2)
            .with_delays(std::time::Duration::from_micros(50), std::time::Duration::from_millis(1));
        let r = Cluster::restore_from_snapshot(
            ClusterConfig::new("r").nodes(2).slices_per_node(2).retry(retry),
            Arc::clone(c.s3()),
            "us-east-1",
            "t",
            "s",
            None,
        )
        .unwrap();
        r.faults().configure(fp::RESTORE_PAGE_FAULT, FaultSpec::err(ErrClass::Fault));
        assert_eq!(r.hydrate_step(1).unwrap_err().code(), "FAULT");
        r.faults().clear(fp::RESTORE_PAGE_FAULT);
        while r.hydrate_step(64).unwrap() > 0 {}
        assert_eq!(r.hydration_progress(), 1.0);
        let store = r.replicated_store().unwrap();
        for id in r.leader.catalog().block_ids() {
            assert!(store.placement_of(id).is_some(), "{id} is not on-cluster");
        }
    }

    #[test]
    fn restored_select_survives_a_failed_placement() {
        let c = small();
        eight_block_table(&c);
        c.create_snapshot("s", SnapshotKind::User).unwrap();
        let retry = redsim_common::RetryPolicy::default()
            .with_max_attempts(2)
            .with_delays(std::time::Duration::from_micros(50), std::time::Duration::from_millis(1));
        let r = Cluster::restore_from_snapshot(
            ClusterConfig::new("r").nodes(2).slices_per_node(2).retry(retry),
            Arc::clone(c.s3()),
            "us-east-1",
            "t",
            "s",
            None,
        )
        .unwrap();
        // The cache-fill write fails; the SELECT is served from S3 anyway
        // and every block stays pending for hydration to place.
        r.faults().configure(fp::MIRROR_WRITE_PRIMARY, FaultSpec::err(ErrClass::Fault));
        assert_eq!(rows(&r), rows(&c));
        assert_eq!(r.hydration_progress(), 0.0);
        assert_eq!(r.hydrate_step(1).unwrap_err().code(), "FAULT");
        r.faults().clear(fp::MIRROR_WRITE_PRIMARY);
        while r.hydrate_step(64).unwrap() > 0 {}
        assert_eq!(r.hydration_progress(), 1.0);
        assert_eq!(rows(&r), rows(&c));
    }

    #[test]
    fn hydration_progress_ignores_writes_after_restore() {
        let c = small();
        eight_block_table(&c);
        c.create_snapshot("s", SnapshotKind::User).unwrap();
        let r = restore(&c, "r", "s");
        for i in 0..20 {
            r.execute(&format!("INSERT INTO t VALUES ({i}, 'w')")).unwrap();
        }
        assert_eq!(r.hydration_progress(), 0.0);
    }

    #[test]
    fn restore_reads_its_manifest_through_the_retry_loop() {
        let c = small();
        eight_block_table(&c);
        c.create_snapshot("s", SnapshotKind::User).unwrap();
        c.faults().configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle).once());
        let r = restore(&c, "r", "s");
        assert_eq!(c.faults().injected_total(), 1);
        assert_eq!(r.trace().counter_value("retry.attempts"), 1);
        assert_eq!(rows(&r), rows(&c));
    }

    #[test]
    fn snapshot_retries_are_observed() {
        let c = small();
        eight_block_table(&c);
        c.replicated_store().unwrap().drain_backup_queue().unwrap();
        c.faults().configure(fp::S3_PUT, FaultSpec::err(ErrClass::Throttle).times(2));
        c.create_snapshot("s", SnapshotKind::User).unwrap();
        assert_eq!(c.faults().injected_total(), 2);
        assert_eq!(c.trace().counter_value("retry.attempts"), 2);
    }

    /// VACUUM and ANALYZE are table writers: each commits its table's
    /// delta, not a checkpoint, and recovery replays both with nothing
    /// left to scrub.
    #[test]
    fn vacuum_and_analyze_commit_deltas_that_replay() {
        let c = small();
        c.execute("CREATE TABLE t (k BIGINT) COMPOUND SORTKEY(k)").unwrap(); // last checkpoint
        c.put_s3_object("in/rows", b"5\n3\n9\n1\n".to_vec());
        c.execute("COPY t FROM 's3://in/' STATUPDATE OFF").unwrap();
        c.execute("VACUUM t").unwrap();
        c.execute("ANALYZE t").unwrap();
        c.execute("VACUUM").unwrap();
        let image = c.committed("t").unwrap().encode_delta("t");
        let r = Cluster::recover(c.crash().unwrap()).unwrap();
        assert_eq!(r.trace().counter_value("recovery.replayed_deltas"), 4);
        assert_eq!(r.trace().counter_value("recovery.orphan_blocks_scrubbed"), 0);
        assert_eq!(r.committed("t").unwrap().encode_delta("t"), image);
        assert_eq!((r.loads_since_analyze("t"), r.rows_estimate("t")), (0, Some(4)));
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
