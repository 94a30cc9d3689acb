//! Integration tests for the wire server: many concurrent connections,
//! the connection-limit backlog, graceful drain, and typed errors
//! surviving the trip through the socket.

use redshift_sim::core::{Cluster, ClusterConfig};
use redshift_sim::frontdoor::{FrontDoor, ServerOpts, WireClient};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn served_cluster(name: &str, opts: ServerOpts) -> (Arc<Cluster>, FrontDoor) {
    let cluster = Cluster::launch(ClusterConfig::new(name).nodes(2).slices_per_node(2)).unwrap();
    cluster.execute("CREATE TABLE t (a BIGINT, b VARCHAR)").unwrap();
    cluster.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')").unwrap();
    let door = FrontDoor::serve(Arc::clone(&cluster), opts).unwrap();
    (cluster, door)
}

/// Wait out the small races inherent to socket teardown: the client
/// side returns before the server-side handler has finished cleanup.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn sixty_four_concurrent_sessions() {
    let (cluster, door) = served_cluster("fd64", ServerOpts::default().max_connections(64));
    let addr = door.addr();
    let workers: Vec<_> = (0..64)
        .map(|i| {
            std::thread::spawn(move || {
                let user = format!("user{}", i % 8);
                let mut c = WireClient::connect(addr, &user, None).unwrap();
                for _ in 0..4 {
                    let r = c.query("SELECT COUNT(*) FROM t").unwrap();
                    assert_eq!(r.rows[0].get(0).as_i64(), Some(3));
                }
                c.ping().unwrap();
                let session = c.session();
                c.bye().unwrap();
                session
            })
        })
        .collect();
    let mut ids: Vec<u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 64, "every connection got its own session");
    assert_eq!(cluster.trace().counter_value("frontdoor.accepted"), 64);
    assert_eq!(cluster.trace().counter_value("frontdoor.rejected"), 0);
    // Identical query text + same (userid, no group) key: most of those
    // 256 queries were result-cache hits.
    let (hits, _) = cluster.result_cache_stats();
    assert!(hits > 0, "repeat queries across the wire should hit the cache");
    wait_until("handlers to exit", || door.active_connections() == 0);
    assert_eq!(cluster.session_manager().active_count(), 0, "no session leaks");
}

#[test]
fn connection_limit_rejects_with_retryable_throttle() {
    let (cluster, door) = served_cluster("fdlimit", ServerOpts::default().max_connections(2));
    let addr = door.addr();
    let a = WireClient::connect(addr, "a", None).unwrap();
    let b = WireClient::connect(addr, "b", None).unwrap();
    let rejected = WireClient::connect(addr, "c", None).unwrap_err();
    assert_eq!(rejected.code(), "THROTTLE", "{rejected}");
    assert!(rejected.is_retryable(), "backlog rejection must invite a retry");
    assert_eq!(cluster.trace().counter_value("frontdoor.rejected"), 1);
    // A slot freeing up lets the retry through.
    a.bye().unwrap();
    wait_until("slot to free", || door.active_connections() < 2);
    let c = WireClient::connect(addr, "c", None).unwrap();
    c.bye().unwrap();
    b.bye().unwrap();
}

#[test]
fn typed_errors_round_trip_the_wire() {
    let (_cluster, door) = served_cluster("fderr", ServerOpts::default());
    let mut c = WireClient::connect(door.addr(), "ada", None).unwrap();
    let nf = c.query("SELECT * FROM missing_table").unwrap_err();
    assert_eq!(nf.code(), "NOT_FOUND", "{nf}");
    assert!(!nf.is_retryable());
    let parse = c.execute("FROBNICATE EVERYTHING").unwrap_err();
    assert_eq!(parse.code(), "PARSE", "{parse}");
    let set = c.set("no_such_setting", "on").unwrap_err();
    assert_eq!(set.code(), "UNSUPPORTED", "{set}");
    // The connection survives errors: it's the statement that failed.
    let ok = c.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(ok.rows[0].get(0).as_i64(), Some(3));
    c.bye().unwrap();
}

#[test]
fn abrupt_disconnect_cleans_up_session() {
    let (cluster, door) = served_cluster("fdabrupt", ServerOpts::default());
    let mut c = WireClient::connect(door.addr(), "ada", Some("analyst")).unwrap();
    c.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(cluster.session_manager().active_count(), 1);
    drop(c); // no Bye: socket closes mid-session
    wait_until("abrupt session cleanup", || cluster.session_manager().active_count() == 0);
    assert_eq!(cluster.trace().gauge_value("sessions.active"), 0);
    // The connection log shows a full connect/disconnect pair.
    let log = cluster.query("SELECT event FROM stl_connection_log ORDER BY at_us").unwrap();
    assert_eq!(log.rows.len(), 2);
    assert_eq!(log.rows[1].get(0).as_str(), Some("disconnecting session"));
}

#[test]
fn mid_statement_disconnect_commits_fully_or_not_at_all() {
    use redshift_sim::faultkit::{fp, ErrClass, FaultSpec};
    let (cluster, door) = served_cluster("fdchaos", ServerOpts::default());

    // Case 1: the write commits, then the connection dies before the
    // reply frame leaves the server. The client sees a transport error,
    // but the committed row must stand.
    cluster.faults().configure(fp::FRONTDOOR_DISCONNECT, FaultSpec::drop_op().once());
    let mut c = WireClient::connect(door.addr(), "ada", None).unwrap();
    assert!(c.execute("INSERT INTO t VALUES (4, 'w')").is_err(), "reply frame never arrives");
    drop(c);
    wait_until("case-1 session cleanup", || cluster.session_manager().active_count() == 0);
    let r = cluster.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0].get(0).as_i64(), Some(4), "commit survives the lost reply");

    // Case 2: the statement itself dies at the WAL commit seam AND the
    // connection drops. The write must be rolled back invisibly — the
    // client can't tell the difference, the table must.
    cluster.faults().configure(fp::WAL_COMMIT, FaultSpec::err(ErrClass::Fault).once());
    cluster.faults().configure(fp::FRONTDOOR_DISCONNECT, FaultSpec::drop_op().once());
    let mut c2 = WireClient::connect(door.addr(), "bob", None).unwrap();
    assert!(c2.execute("INSERT INTO t VALUES (5, 'x')").is_err());
    drop(c2);
    wait_until("case-2 session cleanup", || cluster.session_manager().active_count() == 0);
    let r = cluster.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0].get(0).as_i64(), Some(4), "failed write stays invisible");

    // No leaks on either path: handler gone, gauges back to zero.
    wait_until("handlers to exit", || door.active_connections() == 0);
    assert_eq!(cluster.trace().gauge_value("frontdoor.connections"), 0);
    assert_eq!(cluster.trace().gauge_value("sessions.active"), 0);
    assert_eq!(cluster.faults().armed_count(), 0, "both failpoints fired exactly once");
    // The server keeps serving after injected disconnects.
    let mut c3 = WireClient::connect(door.addr(), "eve", None).unwrap();
    assert_eq!(c3.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64(), Some(4));
    c3.bye().unwrap();
}

#[test]
fn drain_finishes_in_flight_work_and_stops_accepting() {
    let (cluster, door) = served_cluster("fddrain", ServerOpts::default());
    let addr = door.addr();
    let mut idle = WireClient::connect(addr, "idle", None).unwrap();
    idle.ping().unwrap();
    // Connected before the drain begins: the write, not the connect,
    // races it.
    let mut c = WireClient::connect(addr, "busy", None).unwrap();
    let busy = std::thread::spawn(move || {
        // A small write races the drain below; whichever way it lands,
        // the response (or EOF error) must be clean, never a hang.
        let r = c.execute("INSERT INTO t VALUES (4, 'w')");
        if let Ok((n, _)) = r {
            assert_eq!(n, 1);
        }
    });
    std::thread::sleep(Duration::from_millis(5));
    assert!(door.drain(), "all handlers exited within the drain window");
    busy.join().unwrap();
    // Idle connection saw EOF; new connections are refused outright.
    assert!(idle.ping().is_err());
    assert!(WireClient::connect(addr, "late", None).is_err());
    assert_eq!(cluster.session_manager().active_count(), 0);
    assert_eq!(cluster.trace().gauge_value("sessions.active"), 0);
    // Drain is idempotent and composes into cluster shutdown.
    door.shutdown();
    assert!(cluster.query("SELECT COUNT(*) FROM t").is_err());
}
