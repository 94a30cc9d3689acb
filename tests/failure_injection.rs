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
    // callers and the host manager can tell throttle storms from real
    // faults. It must never hang or remap to a misleading class.
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

// ---------------------------------------------------------------------
// Write atomicity (transactional COPY/INSERT): a write statement either
// installs completely or is rolled back block-for-block — catalog
// counters, telemetry and every replica return to the pre-statement
// state. These tests arm the write seams the chaos property also
// exercises, but pin the exact scenarios from the issue.
// ---------------------------------------------------------------------

/// Capture everything a failed write must leave untouched.
struct PreWrite {
    count: i64,
    rows_estimate: Option<u64>,
    loads_since_analyze: u64,
    rows_loaded_counter: u64,
    local_bytes: u64,
    /// The statement folds its rows into these before it commits.
    stats: Option<redshift_sim::storage::stats::TableStats>,
}

fn pre_write(c: &Cluster, table: &str) -> PreWrite {
    PreWrite {
        count: c
            .query(&format!("SELECT COUNT(*) FROM {table}"))
            .unwrap()
            .rows[0]
            .get(0)
            .as_i64()
            .unwrap(),
        rows_estimate: c.rows_estimate(table),
        loads_since_analyze: c.loads_since_analyze(table),
        rows_loaded_counter: c.trace().counter("copy.rows_loaded").get(),
        local_bytes: c.replicated_store().unwrap().local_bytes(),
        stats: c.table_stats(table),
    }
}

fn assert_unchanged(c: &Cluster, table: &str, pre: &PreWrite, ctx: &str) {
    let post = pre_write(c, table);
    assert_eq!(post.count, pre.count, "{ctx}: row count leaked");
    assert_eq!(post.rows_estimate, pre.rows_estimate, "{ctx}: rows_estimate leaked");
    assert_eq!(
        post.loads_since_analyze, pre.loads_since_analyze,
        "{ctx}: loads_since_analyze leaked"
    );
    assert_eq!(
        post.rows_loaded_counter, pre.rows_loaded_counter,
        "{ctx}: copy.rows_loaded bumped by a failed load"
    );
    assert_eq!(
        post.local_bytes, pre.local_bytes,
        "{ctx}: orphan blocks left on the nodes"
    );
    assert_eq!(post.stats, pre.stats, "{ctx}: statistics kept the failed load's rows");
}

#[test]
fn copy_succeeds_exactly_when_transient_mirror_write_fault_is_absorbed() {
    // mirror.write.secondary=err(once): the retry loop absorbs the one
    // transient and the load lands exactly once — no rollback, no
    // duplicate rows.
    let c = Cluster::launch(
        ClusterConfig::new("wtx1").nodes(2).slices_per_node(1).retry(fast_retry()),
    )
    .unwrap();
    c.execute("CREATE TABLE t (a BIGINT, s VARCHAR(64))").unwrap();
    let mut csv = String::new();
    for i in 0..2_000 {
        csv.push_str(&format!("{i},row-{i}\n"));
    }
    c.put_s3_object("d/1", csv.into_bytes());
    c.faults().reseed(11);
    c.faults().configure(fp::MIRROR_WRITE_SECONDARY, FaultSpec::err(ErrClass::Repl).once());
    c.execute("COPY t FROM 's3://d/'").unwrap();
    assert!(c.faults().injected_total() > 0, "the once-fault never fired");
    let n = c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
    assert_eq!(n, 2_000, "absorbed transient must not duplicate or drop rows");
    assert_eq!(c.rows_estimate("t"), Some(2_000));
}

#[test]
fn failed_copy_rolls_back_to_pre_copy_state() {
    // A *permanent* mirror.write fault exhausts the retry budget mid-
    // load; the COPY must fail typed-retryable and be observationally
    // invisible: identical SELECT results, catalog counters, telemetry
    // counters, and node-local bytes (no orphan replicas).
    let c = Cluster::launch(
        ClusterConfig::new("wtx2")
            .nodes(2)
            .slices_per_node(1)
            .rows_per_group(32) // force real block seals during append
            .retry(fast_retry()),
    )
    .unwrap();
    load(&c, 1_000); // pre-existing committed data must survive untouched
    let pre = pre_write(&c, "t");
    let mut csv = String::new();
    for i in 0..500 {
        csv.push_str(&format!("{i},new-{i}\n"));
    }
    c.put_s3_object("d2/1", csv.into_bytes());
    c.faults().reseed(13);
    c.faults().configure(fp::MIRROR_WRITE_SECONDARY, FaultSpec::err(ErrClass::Repl));
    let err = c.execute("COPY t FROM 's3://d2/'").unwrap_err();
    assert!(err.is_retryable(), "exhausted mirror fault must stay retryable: {err}");
    assert!(err.to_string().contains("exhausted"), "{err}");
    assert_unchanged(&c, "t", &pre, "permanent mirror.write.secondary");
    // Clearing the fault heals in place: the same COPY then lands.
    c.faults().clear_all();
    c.execute("COPY t FROM 's3://d2/'").unwrap();
    let n = c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
    assert_eq!(n, 1_500);
    assert_eq!(c.rows_estimate("t"), Some(1_500));
}

#[test]
fn copy_under_probabilistic_write_faults_is_all_or_nothing() {
    // mirror.write.* and s3.put firing probabilistically across a batch
    // of COPYs: every statement either lands exactly or leaves the
    // pre-COPY state byte-identical. The final count equals the sum of
    // the successful loads — no partial batch ever sticks.
    let c = Cluster::launch(
        ClusterConfig::new("wtx3")
            .nodes(2)
            .slices_per_node(1)
            .rows_per_group(32)
            .retry(fast_retry()),
    )
    .unwrap();
    c.execute("CREATE TABLE t (a BIGINT, s VARCHAR(64))").unwrap();
    c.faults().reseed(17);
    c.faults().configure(fp::MIRROR_WRITE_PRIMARY, FaultSpec::err(ErrClass::Repl).prob(0.6));
    c.faults().configure(fp::MIRROR_WRITE_SECONDARY, FaultSpec::err(ErrClass::Repl).prob(0.6));
    c.faults().configure(fp::S3_PUT, FaultSpec::err(ErrClass::Throttle).prob(0.6));
    let mut expected = 0i64;
    let (mut ok, mut failed) = (0, 0);
    for round in 0..8 {
        let rows = 200;
        let mut csv = String::new();
        for i in 0..rows {
            csv.push_str(&format!("{i},r{round}-{i}\n"));
        }
        c.put_s3_object(&format!("p{round}/1"), csv.into_bytes());
        let pre = pre_write(&c, "t");
        match c.execute(&format!("COPY t FROM 's3://p{round}/'")) {
            Ok(s) => {
                assert_eq!(s.rows_affected, rows as u64);
                expected += rows;
                ok += 1;
            }
            Err(e) => {
                assert!(e.is_retryable(), "write-fault COPY error must be retryable: {e}");
                assert_unchanged(&c, "t", &pre, "probabilistic write fault");
                failed += 1;
            }
        }
    }
    assert!(c.faults().injected_total() > 0, "write faults never fired");
    c.faults().clear_all();
    let n = c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
    assert_eq!(n, expected, "count must equal the successful loads ({ok} ok / {failed} failed)");
    assert_eq!(c.rows_estimate("t"), Some(expected as u64));
}

#[test]
fn copy_aborted_mid_objects_by_parse_error_leaves_zero_rows() {
    // Pinned regression for the multi-object partial-parse case: 4
    // objects, the last one malformed. Pre-fix, the first 3 batches
    // stayed durably visible; transactional COPY must leave *zero* rows
    // (and zero blocks, zero counter drift) behind.
    let c = Cluster::launch(
        ClusterConfig::new("wtx4")
            .nodes(2)
            .slices_per_node(2)
            .rows_per_group(32) // early objects seal real blocks before the bad one
            .retry(fast_retry()),
    )
    .unwrap();
    c.execute("CREATE TABLE t (a BIGINT, s VARCHAR(64))").unwrap();
    let pre = pre_write(&c, "t");
    for o in 0..3 {
        let mut csv = String::new();
        for i in 0..200 {
            csv.push_str(&format!("{i},obj{o}-{i}\n"));
        }
        c.put_s3_object(&format!("m/{o}"), csv.into_bytes());
    }
    c.put_s3_object("m/3", b"not-a-number,oops\n".to_vec());
    let err = c.execute("COPY t FROM 's3://m/'").unwrap_err();
    assert_eq!(err.code(), "ANALYSIS", "parse failures are permanent: {err}");
    assert_unchanged(&c, "t", &pre, "multi-object partial parse");
    // The table is still fully usable: fixing the object loads all rows.
    c.put_s3_object("m/3", b"3,fixed\n".to_vec());
    c.execute("COPY t FROM 's3://m/'").unwrap();
    let n = c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
    assert_eq!(n, 601);
}

#[test]
fn copy_failing_at_each_wal_seam_rolls_back_cleanly() {
    // The redo-log seams (record append, fsync, commit record) each
    // abort the statement: pre-statement state stays byte-identical, the
    // error keeps its injected class, and the log itself stays coherent —
    // the retried COPY lands and the whole table survives a crash.
    for seam in [fp::WAL_APPEND, fp::WAL_SYNC, fp::WAL_COMMIT] {
        let c = Cluster::launch(
            ClusterConfig::new(format!("walseam-{}", seam.replace('.', "-")))
                .nodes(2)
                .slices_per_node(1)
                .rows_per_group(32)
                .retry(fast_retry()),
        )
        .unwrap();
        load(&c, 500);
        let pre = pre_write(&c, "t");
        let mut csv = String::new();
        for i in 0..200 {
            csv.push_str(&format!("{i},w-{i}\n"));
        }
        c.put_s3_object("w/1", csv.into_bytes());
        c.faults().configure(seam, FaultSpec::err(ErrClass::Fault).once());
        let err = c.execute("COPY t FROM 's3://w/'").unwrap_err();
        assert!(err.is_retryable(), "{seam}: {err}");
        assert!(err.to_string().contains(seam), "{seam}: {err}");
        assert_unchanged(&c, "t", &pre, seam);
        // The statement-level retry contract holds: same COPY, clean log.
        c.execute("COPY t FROM 's3://w/'").unwrap();
        let n = c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
        assert_eq!(n, 700, "{seam}");
        // Nothing about the failed attempt leaked into the redo log: a
        // crash + replay reconstructs exactly the committed 700 rows.
        let r = Cluster::recover(c.crash().unwrap()).unwrap();
        let n = r.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
        assert_eq!(n, 700, "{seam}: recovery");
    }
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

#[test]
fn failed_insert_rolls_back_router_and_estimates() {
    // INSERT is transactional too: a mirror fault during the flush-seal
    // leaves no rows, no estimate drift, and no round-robin cursor
    // drift (the next successful INSERT routes exactly as if the failed
    // one never happened).
    let c = Cluster::launch(
        ClusterConfig::new("wtx5")
            .nodes(2)
            .slices_per_node(1)
            .retry(fast_retry()),
    )
    .unwrap();
    c.execute("CREATE TABLE t (a BIGINT, s VARCHAR(64))").unwrap();
    let pre = pre_write(&c, "t");
    c.faults().reseed(19);
    c.faults().configure(fp::MIRROR_WRITE_PRIMARY, FaultSpec::err(ErrClass::Repl));
    let err = c.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap_err();
    assert!(err.is_retryable(), "{err}");
    assert_unchanged(&c, "t", &pre, "failed INSERT");
    c.faults().clear_all();
    c.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
    let n = c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
    assert_eq!(n, 2);
    assert_eq!(c.rows_estimate("t"), Some(2));
}

// ---------------------------------------------------------------------
// One table image: a table's state lives in its committed version and
// nowhere else, so a statement the log refuses leaves nothing behind,
// and no reader waits on — or sees through — a statement in flight.
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
    c.put_s3_object("more/1", csv(800..2_800));
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
    // Every exclusive-scope statement, refused at either log seam.
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

#[test]
fn one_image_readers_neither_wait_on_nor_see_an_inflight_copy() {
    let c = one_image_cluster("oneimg-inflight");
    let read = |c: &Cluster| {
        let explain = c.query("EXPLAIN SELECT COUNT(*) FROM t x JOIN t y ON x.a = y.a").unwrap();
        (one_image_view(c), explain.plan, c.query("SELECT COUNT(*) FROM t").unwrap().rows)
    };
    let pre = read(&c);
    // Park the COPY mid-append, inside a block write.
    let park = Duration::from_millis(2_000);
    c.faults()
        .configure(fp::MIRROR_WRITE_PRIMARY, FaultSpec::delay_ms(park.as_millis() as u64).once());
    let writer = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || c.execute("COPY t FROM 's3://more/' STATUPDATE OFF"))
    };
    let armed = std::time::Instant::now();
    while c.faults().injected_total() == 0 {
        assert!(armed.elapsed() < Duration::from_secs(20), "the COPY never reached the mirror");
        std::thread::sleep(Duration::from_millis(1));
    }
    let parked = std::time::Instant::now();
    let during = read(&c);
    let took = parked.elapsed();
    assert!(took < park / 4, "readers waited {took:?} on a writer parked for {park:?}");
    assert!(!writer.is_finished(), "the reads must overlap the parked COPY");
    assert_eq!(during, pre, "readers saw through to an uncommitted COPY");
    assert_eq!(writer.join().unwrap().unwrap().rows_affected, 2_000);
    assert_eq!(c.loads_since_analyze("t"), 2_300);
    assert_eq!(c.rows_estimate("t"), Some(2_800));
}

// ---------------------------------------------------------------------
// One catalog version: every commit logs the next catalog, then
// publishes it, under the publication lock resize flips the source
// read-only with — so a write is on the resize target or refused, and a
// target or restored cluster exists only once its first catalog is
// durable.
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

/// Wait until the delay armed on `c`'s failpoints has caught a statement.
fn one_catalog_parked(c: &Cluster) {
    let armed = std::time::Instant::now();
    while c.faults().injected_total() == 0 {
        assert!(armed.elapsed() < Duration::from_secs(20), "nothing reached the failpoint");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn one_catalog_rows(c: &Cluster) -> Vec<redshift_sim::common::Row> {
    c.query("SELECT COUNT(*), SUM(a) FROM t").unwrap().rows
}

#[test]
fn one_catalog_copy_overlapping_a_resize_lands_or_errors() {
    let c = one_catalog_cluster("onecat-copy");
    c.put_s3_object("more/1", b"4,a\n5,b\n6,c\n7,d\n".to_vec());
    c.faults().configure(fp::COPY_FETCH_OBJECT, FaultSpec::delay_ms(600).once());
    let writer = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || c.execute("COPY t FROM 's3://more/'"))
    };
    one_catalog_parked(&c);
    let target = c.resize(4, 2).unwrap();
    let copied = writer.join().unwrap().map(|s| s.rows_affected);
    let count = |c: &Cluster| one_catalog_rows(c)[0].get(0).as_i64().unwrap();
    let expect = 3 + copied.as_ref().map_or(0, |&n| n as i64);
    assert_eq!(count(&target), expect, "the COPY returned {copied:?}");
    let recovered = Cluster::recover(target.crash().unwrap()).unwrap();
    assert_eq!(count(&recovered), expect, "the COPY returned {copied:?}");
}

#[test]
fn one_catalog_analyze_during_a_resize_lands_or_errors() {
    let c = one_catalog_cluster("onecat-analyze");
    // Park the resize inside its first block write on the target.
    c.faults().configure(fp::MIRROR_WRITE_PRIMARY, FaultSpec::delay_ms(600).once());
    let resize = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || c.resize(4, 2).map_err(|e| e.to_string()))
    };
    one_catalog_parked(&c);
    let analyzed = c.execute("ANALYZE t").map(|s| s.message);
    let target = resize.join().unwrap().unwrap();
    let seen = (target.loads_since_analyze("t"), target.table_stats("t").map(|s| s.rows));
    let expect = if analyzed.is_ok() { (0, Some(3)) } else { (3, None) };
    assert_eq!(seen, expect, "ANALYZE returned {analyzed:?}");
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
// and DROP neither wait for a running scan nor free a block under it.
// ---------------------------------------------------------------------

/// The blocks on the store, and the ones the published catalog names (a
/// snapshot manifest's list), both sorted.
fn no_lock_blocks(c: &Cluster, snapshot: &str) -> (Vec<u64>, Vec<u64>) {
    c.create_snapshot(snapshot, SnapshotKind::User).unwrap();
    let region = c.config().region.as_str();
    let mgr = BackupManager::new(Arc::clone(c.s3()), region, &c.config().name, None, 4);
    let sorted = |ids: Vec<redshift_sim::storage::BlockId>| {
        let mut ids: Vec<u64> = ids.iter().map(|b| b.0).collect();
        ids.sort_unstable();
        ids
    };
    let published = sorted(mgr.load_manifest(region, snapshot).unwrap().2);
    (sorted(c.replicated_store().unwrap().placed_block_ids()), published)
}

/// Park a SELECT over `t` for 1.5 s in the scan delay and run `stmt`
/// while it is parked: `stmt` returns in under a quarter of the park,
/// no byte leaves the store while the reader runs, and the reader
/// returns the pre-`stmt` rows. Returns the cluster once the reader is
/// done.
fn no_lock_probe(name: &str, stmt: &str, run: impl FnOnce(&Cluster)) -> Arc<Cluster> {
    let c = one_image_cluster(name);
    let scan = "SELECT COUNT(*), SUM(a), MIN(s), MAX(s) FROM t";
    let pre = c.query(scan).unwrap().rows;
    let bytes = c.replicated_store().unwrap().local_bytes();
    let park = Duration::from_millis(1_500);
    let delay = FaultSpec::delay_ms(park.as_millis() as u64).once();
    c.faults().configure(fp::EXEC_SCAN_SLICE, delay);
    let reader = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || c.query(scan).map(|q| q.rows))
    };
    one_catalog_parked(&c);
    let started = std::time::Instant::now();
    run(&c);
    let took = started.elapsed();
    assert!(took < park / 4, "{stmt} waited {took:?} on a reader parked for {park:?}");
    assert!(!reader.is_finished(), "{stmt} must commit while the reader is parked");
    let during = c.replicated_store().unwrap().local_bytes();
    assert!(during >= bytes, "{stmt} freed blocks under a running scan: {bytes} -> {during}");
    assert_eq!(reader.join().unwrap().unwrap(), pre, "the reader lost its pre-{stmt} rows");
    c
}

#[test]
fn no_lock_vacuum_commits_beside_a_parked_reader() {
    let c = no_lock_probe("nolock-vacuum", "VACUUM t", |c| {
        c.execute("VACUUM t").unwrap();
    });
    let (placed, published) = no_lock_blocks(&c, "after");
    assert_eq!(placed, published, "the reader's release left VACUUM's retired blocks placed");
}

#[test]
fn no_lock_analyze_commits_beside_a_parked_reader() {
    let c = no_lock_probe("nolock-analyze", "ANALYZE t", |c| {
        c.execute("ANALYZE t").unwrap();
    });
    assert_eq!(c.loads_since_analyze("t"), 0);
    let (placed, published) = no_lock_blocks(&c, "after");
    assert_eq!(placed, published);
}

#[test]
fn no_lock_redistribute_commits_beside_a_parked_reader() {
    let c = no_lock_probe("nolock-redistribute", "redistribute_all", |c| {
        c.redistribute_all("t").unwrap();
    });
    let (placed, published) = no_lock_blocks(&c, "after");
    assert_eq!(placed, published, "the reader's release left the EVEN layout placed");
}

#[test]
fn no_lock_drop_commits_beside_a_parked_reader() {
    let c = no_lock_probe("nolock-drop", "DROP TABLE t", |c| {
        c.execute("DROP TABLE t").unwrap();
    });
    assert_eq!(c.replicated_store().unwrap().local_bytes(), 0, "the dropped table outlived its reader");
    assert_eq!(no_lock_blocks(&c, "after"), (Vec::new(), Vec::new()));
}

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
