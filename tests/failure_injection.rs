//! "Design escalators, not elevators" (§5): the system degrades under
//! faults instead of losing availability. Kill nodes before, during and
//! after loads; lose S3 objects; break crypto keys — every failure either
//! degrades transparently or reports a typed error, never corrupts.

use redshift_sim::common::{RetryPolicy, RsError};
use redshift_sim::core::{Cluster, ClusterConfig, SessionOpts};
use redshift_sim::distribution::NodeId;
use redshift_sim::faultkit::{fp, ErrClass, FaultSpec};
use redshift_sim::replication::{BackupManager, SnapshotKind};
use std::sync::Arc;
use std::time::Duration;

/// A retry policy tuned for tests: same budget as production, but
/// microsecond backoff so exhaustion scenarios stay fast.
fn fast_retry() -> RetryPolicy {
    RetryPolicy::default()
        .with_delays(Duration::from_micros(50), Duration::from_millis(1))
        .with_deadline(Duration::from_secs(2))
}

fn load(c: &Cluster, rows: usize) {
    c.execute("CREATE TABLE t (a BIGINT, s VARCHAR(64))").unwrap();
    let mut csv = String::new();
    for i in 0..rows {
        csv.push_str(&format!("{i},row-{i}\n"));
    }
    c.put_s3_object("d/1", csv.into_bytes());
    c.execute("COPY t FROM 's3://d/'").unwrap();
}

#[test]
fn reads_survive_single_node_loss() {
    let c = Cluster::launch(ClusterConfig::new("f1").nodes(4).slices_per_node(2)).unwrap();
    load(&c, 8_000);
    let before = c.query("SELECT COUNT(*), SUM(a) FROM t").unwrap();
    let store = c.replicated_store().unwrap();
    store.kill_node(NodeId(2));
    let after = c.query("SELECT COUNT(*), SUM(a) FROM t").unwrap();
    assert_eq!(before.rows, after.rows, "secondary replicas mask the failure");
    let (secondary_reads, s3_reads) = store.fallthrough_stats();
    assert!(secondary_reads > 0);
    assert_eq!(s3_reads, 0, "no S3 page faults needed for a single failure");
}

#[test]
fn reads_survive_node_loss_even_pre_backup_then_rereplicate() {
    let c = Cluster::launch(ClusterConfig::new("f2").nodes(4).slices_per_node(1)).unwrap();
    load(&c, 4_000);
    let store = c.replicated_store().unwrap();
    assert!(store.backup_backlog() > 0, "blocks still inside the backup window");
    store.kill_node(NodeId(0));
    // Count survives via secondaries, then re-replication restores
    // redundancy so a *second* failure is also survivable.
    let n = c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
    assert_eq!(n, 4_000);
    let (blocks, bytes) = store.re_replicate(NodeId(0)).unwrap();
    assert!(blocks > 0 && bytes > 0);
    store.kill_node(NodeId(1));
    let n = c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
    assert_eq!(n, 4_000, "double failure after re-replication still served");
}

#[test]
fn two_failures_inside_backup_window_error_cleanly() {
    let c = Cluster::launch(ClusterConfig::new("f3").nodes(2).slices_per_node(1)).unwrap();
    load(&c, 4_000);
    let store = c.replicated_store().unwrap();
    assert!(store.backup_backlog() > 0);
    store.kill_node(NodeId(0));
    store.kill_node(NodeId(1));
    // Loss of both replicas before S3 upload is a genuine durability loss;
    // the query must fail with a typed error, not wrong answers.
    let err = c.query("SELECT COUNT(*) FROM t").unwrap_err();
    assert!(
        matches!(err, redshift_sim::common::RsError::Replication(_)),
        "unexpected error class: {err}"
    );
}

#[test]
fn backup_drain_then_total_cluster_loss_restores_from_s3() {
    let c = Cluster::launch(ClusterConfig::new("f4").nodes(2).slices_per_node(2)).unwrap();
    load(&c, 6_000);
    c.create_snapshot("pre-disaster", SnapshotKind::User).unwrap();
    let checksum = c.query("SELECT SUM(a) FROM t").unwrap().rows[0].get(0).clone();
    // The whole cluster burns down.
    let store = c.replicated_store().unwrap();
    store.kill_node(NodeId(0));
    store.kill_node(NodeId(1));
    // Restore into a fresh cluster from S3 alone.
    let restored = Cluster::restore_from_snapshot(
        ClusterConfig::new("f4b").nodes(2).slices_per_node(2),
        Arc::clone(c.s3()),
        "us-east-1",
        "f4",
        "pre-disaster",
        None,
    )
    .unwrap();
    let restored_sum = restored.query("SELECT SUM(a) FROM t").unwrap().rows[0].get(0).clone();
    assert_eq!(checksum, restored_sum);
}

#[test]
fn lost_s3_object_reports_error_on_restore_touch() {
    let c = Cluster::launch(ClusterConfig::new("f5").nodes(1).slices_per_node(1)).unwrap();
    load(&c, 3_000);
    let snap = c.create_snapshot("s", SnapshotKind::User).unwrap();
    // Lose one backing object.
    let victim = snap.blocks[0];
    c.s3().inject_object_loss("us-east-1", &format!("f5/blocks/{:016x}", victim.0));
    let restored = Cluster::restore_from_snapshot(
        ClusterConfig::new("f5b").nodes(1).slices_per_node(1),
        Arc::clone(c.s3()),
        "us-east-1",
        "f5",
        "s",
        None,
    )
    .unwrap();
    // A full scan must hit the lost block and error (never fabricate).
    let err = restored.query("SELECT SUM(a) FROM t").unwrap_err();
    assert!(err.to_string().contains("REPL"), "{err}");
}

#[test]
fn repudiation_makes_encrypted_data_unreadable() {
    let c = Cluster::launch(
        ClusterConfig::new("f6").nodes(1).slices_per_node(1).encrypted(true),
    )
    .unwrap();
    load(&c, 1_000);
    c.create_snapshot("s", SnapshotKind::User).unwrap();
    let hsm = Arc::clone(c.hsm().unwrap());
    let master = c
        .s3()
        .list("us-east-1", "f6/snapshots/")
        .first()
        .cloned()
        .expect("snapshot exists");
    let _ = master;
    // Destroy the master key (§3.2's repudiation) — restore must fail.
    // First prove restore *would* work.
    let ok = Cluster::restore_from_snapshot(
        ClusterConfig::new("f6b").nodes(1).slices_per_node(1),
        Arc::clone(c.s3()),
        "us-east-1",
        "f6",
        "s",
        Some(Arc::clone(&hsm)),
    );
    assert!(ok.is_ok());
    // All masters die with the HSM contents.
    hsm.destroy(redshift_sim::crypto::KeyId(0));
    let denied = Cluster::restore_from_snapshot(
        ClusterConfig::new("f6c").nodes(1).slices_per_node(1),
        Arc::clone(c.s3()),
        "us-east-1",
        "f6",
        "s",
        Some(hsm),
    );
    assert!(denied.is_err(), "repudiated snapshot must be unrecoverable");
}

#[test]
fn writes_to_dead_node_surface_fault_errors() {
    let c = Cluster::launch(ClusterConfig::new("f7").nodes(2).slices_per_node(1)).unwrap();
    c.execute("CREATE TABLE t (a BIGINT)").unwrap();
    c.replicated_store().unwrap().kill_node(NodeId(0));
    // Some inserts route to the dead node's slice and must fail loudly;
    // retrying after revival succeeds.
    let mut failures = 0;
    for i in 0..8 {
        if c.execute(&format!("INSERT INTO t VALUES ({i})")).is_err() {
            failures += 1;
        }
    }
    assert!(failures > 0, "dead primary must reject writes");
    c.replicated_store().unwrap().revive_node(NodeId(0));
    c.execute("INSERT INTO t VALUES (100)").unwrap();
}

#[test]
fn restore_works_after_cluster_key_rotation() {
    // Rotation re-wraps block keys; a snapshot taken afterwards must
    // carry the re-wrapped keys and restore cleanly.
    let c = Cluster::launch(
        ClusterConfig::new("rot").nodes(1).slices_per_node(1).encrypted(true),
    )
    .unwrap();
    load(&c, 2_000);
    c.rotate_cluster_key().unwrap();
    c.execute("INSERT INTO t VALUES (999999, 'post-rotation')").unwrap();
    c.create_snapshot("s", SnapshotKind::User).unwrap();
    let hsm = Arc::clone(c.hsm().unwrap());
    let restored = Cluster::restore_from_snapshot(
        ClusterConfig::new("rot2").nodes(1).slices_per_node(1).encrypted(true),
        Arc::clone(c.s3()),
        "us-east-1",
        "rot",
        "s",
        Some(hsm),
    )
    .unwrap();
    let n = restored.query("SELECT COUNT(*) FROM t").unwrap().rows[0]
        .get(0)
        .as_i64()
        .unwrap();
    assert_eq!(n, 2_001);
    let post = restored
        .query("SELECT s FROM t WHERE a = 999999")
        .unwrap()
        .rows[0]
        .get(0)
        .as_str()
        .map(str::to_string);
    assert_eq!(post.as_deref(), Some("post-rotation"));
}

#[test]
fn resize_rolls_back_on_failure_leaving_source_available() {
    // Kill a node mid-resize: the copy fails, the source must return to
    // Available (not stuck ReadOnly).
    let c = Cluster::launch(ClusterConfig::new("rz").nodes(2).slices_per_node(1)).unwrap();
    load(&c, 2_000);
    // Sabotage: drop every replica of the data before the resize copy by
    // killing both nodes (blocks not yet in S3 are gone).
    let store = c.replicated_store().unwrap();
    assert!(store.backup_backlog() > 0);
    store.kill_node(NodeId(0));
    store.kill_node(NodeId(1));
    let err = c.resize(4, 1);
    assert!(err.is_err(), "resize cannot copy lost data");
    assert_eq!(c.state(), redshift_sim::core::cluster::ClusterState::Available);
}

#[test]
fn disaster_recovery_from_second_region() {
    // §3.2: "some customers ask for disaster recovery by storing backups
    // in a second region … that only requires setting a checkbox."
    let c = Cluster::launch(
        ClusterConfig::new("drt")
            .nodes(2)
            .slices_per_node(1)
            .dr_region("eu-west-1"),
    )
    .unwrap();
    load(&c, 3_000);
    c.create_snapshot("weekly", SnapshotKind::User).unwrap();
    let checksum = c.query("SELECT SUM(a), COUNT(*) FROM t").unwrap().rows[0].clone();
    // Simulate the home region being gone: delete every primary-region
    // object, then restore from the DR copy.
    for key in c.s3().list("us-east-1", "drt/") {
        c.s3().delete("us-east-1", &key);
    }
    let restored = Cluster::restore_from_snapshot(
        ClusterConfig::new("drt2").nodes(2).slices_per_node(1).region("eu-west-1"),
        Arc::clone(c.s3()),
        "eu-west-1",
        "drt",
        "weekly",
        None,
    )
    .unwrap();
    while restored.hydrate_step(64).unwrap() > 0 {}
    let got = restored.query("SELECT SUM(a), COUNT(*) FROM t").unwrap().rows[0].clone();
    assert_eq!(checksum, got);
}

#[test]
fn a_clusters_s3_faults_count_in_its_own_sink() {
    // Two clusters on one S3 (a restore drill): a fault that fires under
    // one cluster's COPY is that cluster's `fault.injected`, not the
    // cluster that attached to the S3 last.
    let pa =
        Cluster::launch(ClusterConfig::new("pa").nodes(1).slices_per_node(1).retry(fast_retry()))
            .unwrap();
    load(&pa, 100);
    pa.create_snapshot("snap", SnapshotKind::User).unwrap();
    let pb = Cluster::restore_from_snapshot(
        ClusterConfig::new("pb").nodes(1).slices_per_node(1),
        Arc::clone(pa.s3()),
        "us-east-1",
        "pa",
        "snap",
        None,
    )
    .unwrap();
    let injected = |c: &Cluster| c.trace().counter_value("fault.injected");
    let (a0, b0) = (injected(&pa), injected(&pb));
    pa.put_s3_object("more/1", b"7,row-7\n".to_vec());
    pa.faults().configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle).times(1));
    pa.execute("COPY t FROM 's3://more/'").unwrap();
    assert_eq!(pa.faults().injected_total(), 1, "the armed fault fired once");
    let (a1, b1) = (injected(&pa), injected(&pb));
    assert_eq!((a1 - a0, b1 - b0), (1, 0), "A: {a0} -> {a1}, B: {b0} -> {b1}");
}

#[test]
fn copy_rides_through_s3_flakiness() {
    // §5 "escalators, not elevators": a flaky S3 (30% throttle on every
    // GET) must not fail a COPY — the typed retry loop absorbs the
    // transients and the load lands exactly once.
    let c = Cluster::launch(
        ClusterConfig::new("flaky-copy").nodes(2).slices_per_node(1).retry(fast_retry()),
    )
    .unwrap();
    c.execute("CREATE TABLE t (a BIGINT, s VARCHAR(64))").unwrap();
    let mut csv = String::new();
    for i in 0..2_000 {
        csv.push_str(&format!("{i},row-{i}\n"));
    }
    c.put_s3_object("d/1", csv.into_bytes());
    c.faults().reseed(42);
    c.faults().configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle).prob(0.3));
    c.faults().configure(fp::COPY_FETCH_OBJECT, FaultSpec::err(ErrClass::Throttle).prob(0.3));
    c.execute("COPY t FROM 's3://d/'").unwrap();
    assert!(c.faults().injected_total() > 0, "flakiness never struck");
    c.faults().clear_all();
    let n = c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
    assert_eq!(n, 2_000, "retries must not duplicate or drop rows");
    // The whole chaos run is auditable with plain SQL.
    let ev = c.query("SELECT COUNT(*) FROM stl_fault_event").unwrap().rows[0]
        .get(0)
        .as_i64()
        .unwrap();
    assert!(ev > 0, "stl_fault_event must record the injections");
}

#[test]
fn streaming_restore_completes_via_retries() {
    // Streaming restore page-faults blocks from a flaky S3: every fault
    // is retried and hydration still completes with exact data.
    let c = Cluster::launch(ClusterConfig::new("flaky-rst").nodes(2).slices_per_node(1)).unwrap();
    load(&c, 3_000);
    c.create_snapshot("s", SnapshotKind::User).unwrap();
    let before = c.query("SELECT COUNT(*), SUM(a) FROM t").unwrap().rows;
    let restored = Cluster::restore_from_snapshot(
        ClusterConfig::new("flaky-rst2").nodes(2).slices_per_node(1).retry(fast_retry()),
        Arc::clone(c.s3()),
        "us-east-1",
        "flaky-rst",
        "s",
        None,
    )
    .unwrap();
    // Arm the flakiness only once the catalog is open (the paper's
    // "opened for SQL operations after metadata and catalog restoration").
    restored.faults().reseed(7);
    restored.faults().configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle).prob(0.3));
    restored
        .faults()
        .configure(fp::RESTORE_PAGE_FAULT, FaultSpec::err(ErrClass::Repl).prob(0.3));
    while restored.hydrate_step(32).unwrap() > 0 {}
    assert!(restored.faults().injected_total() > 0, "flakiness never struck");
    restored.faults().clear_all();
    assert_eq!(restored.query("SELECT COUNT(*), SUM(a) FROM t").unwrap().rows, before);
}

#[test]
fn retry_exhaustion_surfaces_throttle_not_a_hang() {
    // A *permanently* throttling S3 exhausts the retry budget: the query
    // fails in bounded time with the transient's own class (THROTTLE), so
    // callers can tell throttle storms from real faults. It must never
    // hang or remap to a misleading class.
    let c = Cluster::launch(
        ClusterConfig::new("exh").nodes(1).slices_per_node(1).retry(fast_retry()),
    )
    .unwrap();
    load(&c, 1_000);
    c.create_snapshot("s", SnapshotKind::User).unwrap();
    let restored = Cluster::restore_from_snapshot(
        ClusterConfig::new("exh2").nodes(1).slices_per_node(1).retry(fast_retry()),
        Arc::clone(c.s3()),
        "us-east-1",
        "exh",
        "s",
        None,
    )
    .unwrap();
    restored.faults().configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle));
    let t0 = std::time::Instant::now();
    let err = restored.query("SELECT SUM(a) FROM t").unwrap_err();
    assert_eq!(err.code(), "THROTTLE", "exhaustion must keep the transient class: {err}");
    assert!(err.to_string().contains("exhausted"), "{err}");
    assert!(t0.elapsed() < Duration::from_secs(8), "exhaustion hung: {:?}", t0.elapsed());
    // Clearing the failpoint heals the cluster in place.
    restored.faults().clear_all();
    let n = restored.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
    assert_eq!(n, 1_000);
}

#[test]
fn wlm_queued_queries_survive_node_failure_or_fail_retryably() {
    // A node dies while queries sit on the WLM wait list. Each queued
    // query must either complete after re-replication restores
    // redundancy, or fail with a retryable STATE error (wait timeout) —
    // never hang past the queue's max_wait.
    use redshift_sim::core::{WlmConfig, WlmQueueDef};
    use std::time::{Duration, Instant};
    let wlm = WlmConfig::with_queues(vec![
        WlmQueueDef::new("only", 1).max_wait(Duration::from_millis(800))
    ]);
    let c = Cluster::launch(
        ClusterConfig::new("f8").nodes(2).slices_per_node(1).wlm(wlm),
    )
    .unwrap();
    load(&c, 4_000);
    // Occupy the only concurrency slot, as a heavy ETL query would.
    let slot = c.wlm().admit(u64::MAX, None).unwrap();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let c2 = Arc::clone(&c);
            std::thread::spawn(move || {
                c2.query("SELECT COUNT(*), SUM(a) FROM t").map(|r| r.rows)
            })
        })
        .collect();
    // Wait until all four actually sit on the wait list.
    while c.wlm().service_class_states()[0].queued < 4 {
        assert!(t0.elapsed() < Duration::from_secs(5), "queries never queued");
        std::thread::yield_now();
    }
    // Failure strikes while they wait; re-replication restores redundancy.
    let store = c.replicated_store().unwrap();
    store.kill_node(NodeId(0));
    store.re_replicate(NodeId(0)).unwrap();
    // Free the slot: the wait list drains one query at a time.
    drop(slot);
    let mut completed = 0;
    for h in handles {
        match h.join().unwrap() {
            Ok(rows) => {
                assert_eq!(rows[0].get(0).as_i64(), Some(4_000), "torn read after failure");
                completed += 1;
            }
            // Eviction by wait timeout is the allowed retryable outcome.
            Err(e) => assert_eq!(e.code(), "STATE", "unexpected error class: {e}"),
        }
    }
    assert!(completed > 0, "at least the first released query completes");
    // Liveness: nothing hung past max_wait (plus generous execution slack).
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "queued queries hung past the wait timeout: {:?}",
        t0.elapsed()
    );
    // Books are clean afterwards.
    let sc = &c.wlm().service_class_states()[0];
    assert_eq!(sc.queued, 0);
    assert_eq!(sc.in_flight, 0);
    assert_eq!(
        sc.executed + sc.evicted,
        5, // the slot-holder + 4 workers, every admission accounted for
        "lost or double-counted admissions: {sc:?}"
    );
}

#[test]
fn wal_truncate_failure_is_absorbed_not_surfaced() {
    // Log truncation after a checkpoint is pure space reclamation: the
    // checkpoint is already durable, so a truncate fault must not fail
    // the statement — it is counted and retried at the next checkpoint.
    let c = Cluster::launch(ClusterConfig::new("waltrunc").nodes(2).slices_per_node(1)).unwrap();
    c.faults().configure(fp::WAL_TRUNCATE, FaultSpec::err(ErrClass::Fault).once());
    c.execute("CREATE TABLE t (a BIGINT, s VARCHAR(64))").unwrap();
    assert_eq!(c.trace().counter_value("wal.truncate_errors"), 1);
    c.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
    // Durability was never at risk: crash + recover sees everything.
    let r = Cluster::recover(c.crash().unwrap()).unwrap();
    let n = r.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
    assert_eq!(n, 1);
}

// ---------------------------------------------------------------------
// One table image: a table's state lives in its committed version and
// nowhere else, so a statement the log refuses leaves nothing behind.
// That no reader waits on, or sees through, a statement in flight is the
// model's parked step (tests/model.rs).
// ---------------------------------------------------------------------

/// Everything a reader can learn about `t` without scanning it.
fn one_image_view(c: &Cluster) -> impl PartialEq + std::fmt::Debug {
    let info = c
        .query(
            "SELECT tbl_rows, stats_off, unsorted, loads_since_analyze \
             FROM svv_table_info WHERE \"table\" = 't'",
        )
        .unwrap();
    (c.table_stats("t"), c.rows_estimate("t"), c.loads_since_analyze("t"), info.rows)
}

/// The store's block population: (placed blocks, bytes on all replicas).
fn one_image_blocks(c: &Cluster) -> (usize, u64) {
    let store = c.replicated_store().unwrap();
    (store.placed_block_ids().len(), store.local_bytes())
}

fn one_image_cluster(name: &str) -> Arc<Cluster> {
    let c = Cluster::launch(
        ClusterConfig::new(name).nodes(2).slices_per_node(1).rows_per_group(32).retry(fast_retry()),
    )
    .unwrap();
    c.execute("CREATE TABLE t (a BIGINT, s VARCHAR(64)) COMPOUND SORTKEY(a)").unwrap();
    let csv = |rows: std::ops::Range<u64>| -> Vec<u8> {
        rows.map(|i| format!("{},row-{i}\n", (i * 2_654_435_761) % 1_000)).collect::<String>().into()
    };
    c.put_s3_object("fresh/1", csv(0..500));
    c.put_s3_object("stale/1", csv(500..800));
    c.execute("COPY t FROM 's3://fresh/'").unwrap();
    // Statistics now lag the table, and every row sits unsorted.
    c.execute("COPY t FROM 's3://stale/' STATUPDATE OFF").unwrap();
    c
}

/// The catalog image a snapshot taken now embeds: exactly the bytes a
/// redo checkpoint of the published catalog holds.
fn one_image_catalog(c: &Cluster, snapshot: &str) -> Vec<u8> {
    c.create_snapshot(snapshot, SnapshotKind::User).unwrap();
    let region = &c.config().region;
    let mgr = BackupManager::new(Arc::clone(c.s3()), region.as_str(), &c.config().name, None, 4);
    mgr.load_manifest(region, snapshot).unwrap().1
}

#[test]
fn one_image_refused_analyze_and_vacuum_change_nothing() {
    let c = one_image_cluster("oneimg-refused");
    let scan = "SELECT COUNT(*), SUM(a) FROM t WHERE a BETWEEN 100 AND 300";
    let snapshots = std::cell::Cell::new(0);
    let catalog = |c: &Cluster| {
        snapshots.set(snapshots.get() + 1);
        one_image_catalog(c, &format!("s{}", snapshots.get()))
    };
    let read = |c: &Cluster| (one_image_view(c), one_image_blocks(c), c.query(scan).unwrap().rows);
    let pre = read(&c);
    let (pre_catalog, pre_version) = (catalog(&c), c.catalog_version());
    assert_eq!(c.loads_since_analyze("t"), 300);
    // VACUUM and ANALYZE (table writers: their delta) and every exclusive
    // statement (its checkpoint), refused at either log seam.
    let statements =
        ["ANALYZE t", "VACUUM t", "CREATE TABLE u (k BIGINT)", "DROP TABLE t", "redistribute_all t"];
    for stmt in statements {
        for seam in [fp::WAL_APPEND, fp::WAL_COMMIT] {
            c.faults().configure(seam, FaultSpec::err(ErrClass::Fault).once());
            let err = match stmt {
                "redistribute_all t" => c.redistribute_all("t").err(),
                sql => c.execute(sql).err(),
            };
            let err = err.unwrap_or_else(|| panic!("{stmt} committed through a refused {seam}"));
            assert!(err.is_retryable(), "{stmt} at {seam}: {err}");
            assert!(err.to_string().contains(seam), "{stmt} at {seam}: {err}");
            assert_eq!(read(&c), pre, "a refused {stmt} at {seam} is visible");
            assert_eq!(catalog(&c), pre_catalog, "a refused {stmt} at {seam} changed the catalog");
            assert_eq!(c.catalog_version(), pre_version, "a refused {stmt} at {seam} published");
        }
    }
    // The refused attempts left nothing for recovery to find either: it
    // rebuilds the pre-statement catalog and has no orphan to scrub.
    let c = Cluster::recover(c.crash().unwrap()).unwrap();
    assert_eq!(c.trace().counter_value("recovery.orphan_blocks_scrubbed"), 0);
    assert_eq!(read(&c), pre, "recovery found a refused statement");
    assert_eq!(catalog(&c), pre_catalog, "recovery found a refused statement");
    // Retried, both land — and only now does anything move.
    c.execute("ANALYZE t").unwrap();
    assert_eq!(c.loads_since_analyze("t"), 0);
    assert_eq!(c.table_stats("t").unwrap().rows, 800);
    c.execute("VACUUM t").unwrap();
    assert!(one_image_blocks(&c).0 <= pre.1 .0, "the rewrite's superseded blocks were freed");
    assert_eq!(c.query(scan).unwrap().rows, pre.2);
    let r = Cluster::recover(c.crash().unwrap()).unwrap();
    assert_eq!(r.query(scan).unwrap().rows, pre.2);
    assert_eq!(r.trace().counter_value("recovery.orphan_blocks_scrubbed"), 0);
}

// ---------------------------------------------------------------------
// One catalog version: every commit logs the next catalog, then
// publishes it, under the publication lock resize flips the source
// read-only with — so a write is on the resize target or refused (the
// model's parked step), and a target or restored cluster exists only once
// its first catalog is durable.
// ---------------------------------------------------------------------

/// `t` with three rows, loaded without statistics.
fn one_catalog_cluster(name: &str) -> Arc<Cluster> {
    let c = Cluster::launch(
        ClusterConfig::new(name).nodes(2).slices_per_node(2).retry(fast_retry()),
    )
    .unwrap();
    c.execute("CREATE TABLE t (a BIGINT, s VARCHAR(64))").unwrap();
    c.put_s3_object("base/1", b"1,x\n2,y\n3,z\n".to_vec());
    c.execute("COPY t FROM 's3://base/' STATUPDATE OFF").unwrap();
    c
}

fn one_catalog_restore(c: &Cluster, name: &str, snapshot: &str) -> Result<Arc<Cluster>, RsError> {
    let (config, s3) = (ClusterConfig::new(name).nodes(2).slices_per_node(2), Arc::clone(c.s3()));
    Cluster::restore_from_snapshot(config, s3, "us-east-1", &c.config().name, snapshot, None)
}

fn one_catalog_rows(c: &Cluster) -> Vec<redshift_sim::common::Row> {
    c.query("SELECT COUNT(*), SUM(a) FROM t").unwrap().rows
}

#[test]
fn one_catalog_refused_resize_checkpoint_leaves_the_source_serving() {
    let c = one_catalog_cluster("onecat-boot-resize");
    c.faults().configure(fp::WAL_APPEND, FaultSpec::err(ErrClass::Fault).once());
    let err = c.resize(4, 2).err().expect("resize acknowledged a target with an empty log");
    assert!(err.to_string().contains(fp::WAL_APPEND), "{err}");
    // The source answers reads and writes again.
    assert_eq!(c.state(), redshift_sim::core::cluster::ClusterState::Available);
    c.execute("INSERT INTO t VALUES (4, 'w')").unwrap();
    assert_eq!(one_catalog_rows(&c)[0].get(0).as_i64(), Some(4));
}

#[test]
fn one_catalog_refused_restore_checkpoint_fails_the_restore() {
    let c = one_catalog_cluster("onecat-boot-restore");
    c.create_snapshot("s", SnapshotKind::User).unwrap();
    c.faults().configure(fp::WAL_APPEND, FaultSpec::err(ErrClass::Fault).once());
    let err = one_catalog_restore(&c, "onecat-boot-r", "s").err();
    let err = err.expect("restore acknowledged a cluster with an empty log");
    assert!(err.to_string().contains(fp::WAL_APPEND), "{err}");
}

#[test]
fn one_catalog_resized_and_restored_writes_survive_a_crash() {
    let c = one_catalog_cluster("onecat-durable");
    c.create_snapshot("s", SnapshotKind::User).unwrap();
    let restored = one_catalog_restore(&c, "onecat-durable-r", "s").unwrap();
    let resized = c.resize(4, 2).unwrap();
    for target in [restored, resized] {
        target.execute("INSERT INTO t VALUES (4, 'w')").unwrap();
        let rows = one_catalog_rows(&target);
        assert_eq!(rows[0].get(0).as_i64(), Some(4));
        let recovered = Cluster::recover(target.crash().unwrap()).unwrap();
        assert_eq!(one_catalog_rows(&recovered), rows, "{}", target.config().name);
    }
}

// ---------------------------------------------------------------------
// Readers take no lock: an exclusive commit retires the blocks its
// replaced catalog names and its own does not, and they are freed when
// the last catalog naming them drops — so VACUUM, ANALYZE, redistribute
// and DROP neither wait for a running scan nor free a block under it (the
// model's parked step). Key rotation, which the model does not run:
// ---------------------------------------------------------------------

/// Readers overlap key rotation now: every row stays exact, and no read
/// unwraps a block key with a cluster key a rotation has just replaced.
#[test]
fn no_lock_readers_overlap_key_rotation() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let c = Cluster::launch(
        ClusterConfig::new("nolock-rotate").nodes(2).slices_per_node(2).rows_per_group(32).encrypted(true),
    )
    .unwrap();
    load(&c, 2_000);
    let scan = "SELECT COUNT(*), SUM(a), MIN(s), MAX(s) FROM t";
    let expect = c.query(scan).unwrap().rows;
    let (done, reads) = (AtomicBool::new(false), AtomicU64::new(0));
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    while !done.load(Ordering::Acquire) {
                        let rows = c.query(scan).map(|q| q.rows);
                        reads.fetch_add(1, Ordering::AcqRel);
                        if !matches!(&rows, Ok(r) if *r == expect) {
                            done.store(true, Ordering::Release);
                            return rows;
                        }
                    }
                    Ok(expect.clone())
                })
            })
            .collect();
        for _ in 0..20 {
            // Rotate only once the readers have moved on, so every
            // rotation lands among scans.
            let seen = reads.load(Ordering::Acquire);
            while reads.load(Ordering::Acquire) == seen && !done.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            c.rotate_cluster_key().unwrap();
        }
        done.store(true, Ordering::Release);
        for r in readers {
            assert_eq!(r.join().unwrap().unwrap(), expect, "a read during rotation");
        }
    });
}

/// A dropped scan fragment fails the statement with the retryable FAULT
/// `err(fault)` raises: an answer missing a slice is wrong, and the
/// result cache would serve it until the next write. After the fault,
/// the rerun and its cache hit both count every row.
/// `err(class)` is one typed error whatever seam it is injected at
/// (DESIGN.md §10): the executor's per-slice scan, the redo log's commit
/// and COPY's S3 fetch raise the same code and retry class for the same
/// class, and each message names its failpoint.
#[test]
fn an_injected_fault_class_is_the_same_error_at_every_seam() {
    let cfg = ClusterConfig::new("classes").nodes(2).slices_per_node(2).retry(fast_retry());
    let c = Cluster::launch(cfg).unwrap();
    load(&c, 100);
    c.put_s3_object("w/1", b"1,w\n".to_vec());
    let seams = [
        (fp::EXEC_SCAN_SLICE, "SELECT COUNT(*) FROM t"),
        (fp::WAL_COMMIT, "INSERT INTO t VALUES (1, 'x')"),
        (fp::COPY_FETCH_OBJECT, "COPY t FROM 's3://w/'"),
    ];
    let classes = [
        (ErrClass::NotFound, "NOT_FOUND", false),
        (ErrClass::Throttle, "THROTTLE", true),
        (ErrClass::Fault, "FAULT", true),
        (ErrClass::Repl, "REPL", true),
    ];
    for (class, code, retryable) in classes {
        for (seam, sql) in seams {
            c.faults().configure(seam, FaultSpec::err(class));
            let err = c.execute(sql).expect_err(seam);
            c.faults().clear(seam);
            assert_eq!((err.code(), err.is_retryable()), (code, retryable), "{seam}: {err}");
            assert!(err.to_string().contains(seam), "{seam}: {err}");
        }
    }
    // Nothing was written: every write above failed at its seam.
    assert_eq!(c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64(), Some(100));
}

#[test]
fn scan_slice_drop_is_a_retryable_fault_not_a_short_answer() {
    let c = Cluster::launch(ClusterConfig::new("drop").nodes(2).slices_per_node(2)).unwrap();
    load(&c, 4_000);
    let s = c.connect(SessionOpts::new("dash")).unwrap();
    let count = "SELECT COUNT(*) FROM t";
    c.faults().configure(fp::EXEC_SCAN_SLICE, FaultSpec::drop_op().once());
    let err = s.query(count).unwrap_err();
    assert!(matches!(err, RsError::FaultInjected(_)) && err.is_retryable(), "{err:?}");
    assert_eq!(err.code(), "FAULT");
    assert!(err.to_string().contains(fp::EXEC_SCAN_SLICE), "{err}");
    let rerun = s.query(count).unwrap();
    let hit = s.query(count).unwrap();
    assert!(!rerun.result_cache_hit && hit.result_cache_hit);
    for q in [rerun, hit] {
        assert_eq!(q.rows[0].get(0).as_i64(), Some(4_000));
    }
}
