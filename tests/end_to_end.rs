//! Cross-crate integration: the full cluster lifecycle the paper
//! describes, exercised through the public facade crate.

use redshift_sim::core::{Cluster, ClusterConfig, SessionOpts};
use redshift_sim::replication::SnapshotKind;
use std::sync::Arc;

fn launch(name: &str) -> Arc<Cluster> {
    Cluster::launch(ClusterConfig::new(name).nodes(2).slices_per_node(2)).unwrap()
}

#[test]
fn lifecycle_create_load_query_snapshot_restore_resize() {
    let c = launch("life");
    c.execute(
        "CREATE TABLE orders (id BIGINT NOT NULL, cust BIGINT, total DECIMAL(12,2), d DATE)
         DISTKEY(cust) COMPOUND SORTKEY(d)",
    )
    .unwrap();
    c.execute("CREATE TABLE custs (id BIGINT, region VARCHAR(8)) DISTKEY(id)").unwrap();

    // Load via COPY (CSV) and INSERT.
    let mut csv = String::new();
    for i in 0..5_000 {
        csv.push_str(&format!(
            "{i},{},{}.{:02},2015-{:02}-{:02}\n",
            i % 100,
            10 + i % 500,
            i % 100,
            1 + i % 12,
            1 + i % 28
        ));
    }
    c.put_s3_object("orders/a", csv.into_bytes());
    assert_eq!(c.execute("COPY orders FROM 's3://orders/'").unwrap().rows_affected, 5_000);
    for i in 0..100 {
        c.execute(&format!("INSERT INTO custs VALUES ({i}, 'r{}')", i % 4)).unwrap();
    }
    c.execute("VACUUM").unwrap();
    c.execute("ANALYZE").unwrap();

    // Query: co-located join + aggregation + order + limit.
    let r = c
        .query(
            "SELECT cu.region, COUNT(*) AS n, SUM(o.total) AS revenue
             FROM orders o JOIN custs cu ON o.cust = cu.id
             GROUP BY cu.region ORDER BY revenue DESC LIMIT 3",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.metrics.exchange_bytes(), 0);
    let total: i64 = c
        .query("SELECT COUNT(*) FROM orders")
        .unwrap()
        .rows[0]
        .get(0)
        .as_i64()
        .unwrap();
    assert_eq!(total, 5_000);

    // Snapshot → restore → same answers.
    c.create_snapshot("s1", SnapshotKind::User).unwrap();
    let restored = Cluster::restore_from_snapshot(
        ClusterConfig::new("life2").nodes(2).slices_per_node(2),
        Arc::clone(c.s3()),
        "us-east-1",
        "life",
        "s1",
        None,
    )
    .unwrap();
    let r2 = restored
        .query(
            "SELECT cu.region, COUNT(*) AS n, SUM(o.total) AS revenue
             FROM orders o JOIN custs cu ON o.cust = cu.id
             GROUP BY cu.region ORDER BY revenue DESC LIMIT 3",
        )
        .unwrap();
    assert_eq!(r.rows, r2.rows);

    // Resize the restored cluster up; answers unchanged.
    restored.hydrate_step(usize::MAX.min(1 << 20)).ok();
    while restored.hydrate_step(128).unwrap() > 0 {}
    let big = restored.resize(4, 2).unwrap();
    let r3 = big.query("SELECT COUNT(*) FROM orders").unwrap();
    assert_eq!(r3.rows[0].get(0).as_i64(), Some(5_000));
}

#[test]
fn sql_coverage_sweep() {
    let c = launch("sqlcov");
    c.execute(
        "CREATE TABLE t (i INT, b BIGINT, f FLOAT8, s VARCHAR(32), d DATE, ts TIMESTAMP,
         dec DECIMAL(8,3), bo BOOLEAN)",
    )
    .unwrap();
    c.execute(
        "INSERT INTO t VALUES
         (1, 100, 1.5, 'alpha', DATE '2015-01-01', TIMESTAMP '2015-01-01 10:00:00', 1.25, TRUE),
         (2, 200, 2.5, 'beta',  DATE '2015-02-01', TIMESTAMP '2015-02-01 11:30:00', 2.5, FALSE),
         (NULL, NULL, NULL, NULL, NULL, NULL, NULL, NULL),
         (4, 400, -4.5, 'Alpha Beta', DATE '2015-03-15', TIMESTAMP '2015-03-15 00:00:01', -0.125, TRUE)",
    )
    .unwrap();

    let one = |sql: &str| c.query(sql).unwrap().rows[0].get(0).clone();
    assert_eq!(one("SELECT COUNT(*) FROM t").as_i64(), Some(4));
    assert_eq!(one("SELECT COUNT(i) FROM t").as_i64(), Some(3));
    assert_eq!(one("SELECT SUM(b) FROM t").as_i64(), Some(700));
    assert_eq!(one("SELECT MIN(f) FROM t").as_f64(), Some(-4.5));
    assert_eq!(one("SELECT MAX(s) FROM t").as_str(), Some("beta"));
    assert_eq!(one("SELECT SUM(dec) FROM t").to_string(), "3.625");
    assert_eq!(one("SELECT COUNT(*) FROM t WHERE bo").as_i64(), Some(2));
    assert_eq!(one("SELECT COUNT(*) FROM t WHERE s LIKE 'Alpha%'").as_i64(), Some(1));
    assert_eq!(one("SELECT COUNT(*) FROM t WHERE s IS NULL").as_i64(), Some(1));
    assert_eq!(one("SELECT COUNT(*) FROM t WHERE i IN (1, 4)").as_i64(), Some(2));
    assert_eq!(one("SELECT COUNT(*) FROM t WHERE i NOT IN (1, 4)").as_i64(), Some(1));
    assert_eq!(
        one("SELECT COUNT(*) FROM t WHERE d BETWEEN DATE '2015-01-15' AND DATE '2015-03-01'")
            .as_i64(),
        Some(1)
    );
    assert_eq!(one("SELECT upper(s) FROM t WHERE i = 1").as_str(), Some("ALPHA"));
    assert_eq!(one("SELECT length(s) FROM t WHERE i = 4").as_i64(), Some(10));
    assert_eq!(one("SELECT abs(f) FROM t WHERE i = 4").as_f64(), Some(4.5));
    assert_eq!(one("SELECT date_part('year', d) FROM t WHERE i = 2").as_i64(), Some(2015));
    assert_eq!(one("SELECT i + b * 2 FROM t WHERE i = 1").as_i64(), Some(201));
    assert_eq!(
        one("SELECT CASE WHEN f < 0 THEN 'neg' ELSE 'pos' END FROM t WHERE i = 4").as_str(),
        Some("neg")
    );
    assert_eq!(one("SELECT CAST(i AS VARCHAR) FROM t WHERE i = 2").as_str(), Some("2"));
    assert_eq!(one("SELECT s || '!' FROM t WHERE i = 1").as_str(), Some("alpha!"));
    // ORDER BY non-projected column (hidden sort column path).
    let r = c.query("SELECT s FROM t WHERE s IS NOT NULL ORDER BY b DESC").unwrap();
    assert_eq!(r.columns.len(), 1, "hidden sort column trimmed");
    assert_eq!(r.rows[0].get(0).as_str(), Some("Alpha Beta"));
}

#[test]
fn left_join_and_residual_conditions() {
    let c = launch("lj");
    c.execute("CREATE TABLE l (k BIGINT, v BIGINT)").unwrap();
    c.execute("CREATE TABLE r (k BIGINT, w BIGINT)").unwrap();
    c.execute("INSERT INTO l VALUES (1, 10), (2, 20), (3, 30), (NULL, 99)").unwrap();
    c.execute("INSERT INTO r VALUES (1, 100), (1, 101), (3, 300)").unwrap();
    // LEFT JOIN keeps unmatched left rows (incl. NULL keys).
    let rows = c
        .query("SELECT l.k, l.v, r.w FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.v, r.w")
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 5); // 1→two matches, 2→null, 3→one, NULL→null
    assert!(rows.iter().any(|row| row.get(1).as_i64() == Some(20) && row.get(2).is_null()));
    // Residual non-equi condition.
    let rows = c
        .query("SELECT COUNT(*) FROM l JOIN r ON l.k = r.k AND r.w > 100")
        .unwrap()
        .rows;
    assert_eq!(rows[0].get(0).as_i64(), Some(2)); // (1,101) and (3,300)
    // LEFT JOIN with residual: failing residual null-extends.
    let rows = c
        .query("SELECT COUNT(*) FROM l LEFT JOIN r ON l.k = r.k AND r.w > 1000")
        .unwrap()
        .rows;
    assert_eq!(rows[0].get(0).as_i64(), Some(4), "all left rows survive");
}

#[test]
fn interleaved_sortkey_through_sql() {
    let c = Cluster::launch(
        ClusterConfig::new("il").nodes(1).slices_per_node(1).rows_per_group(512),
    )
    .unwrap();
    c.execute("CREATE TABLE pts (x BIGINT, y BIGINT) INTERLEAVED SORTKEY(x, y)").unwrap();
    let mut csv = String::new();
    for i in 0..8_192i64 {
        csv.push_str(&format!("{},{}\n", (i * 37) % 1024, (i * 101) % 1024));
    }
    c.put_s3_object("p/1", csv.into_bytes());
    c.execute("COPY pts FROM 's3://p/'").unwrap();
    c.execute("VACUUM pts").unwrap();
    // Predicate on the second key column alone still prunes blocks.
    let r = c.query("SELECT COUNT(*) FROM pts WHERE y BETWEEN 0 AND 50").unwrap();
    assert!(r.metrics.groups_skipped > 0, "z-order pruned: {:?}", r.metrics);
    // And the count is exact.
    let expected = (0..8_192i64).filter(|i| ((i * 101) % 1024) <= 50).count() as i64;
    assert_eq!(r.rows[0].get(0).as_i64(), Some(expected));
}

#[test]
fn approx_count_distinct_tracks_exact() {
    let c = launch("acd");
    c.execute("CREATE TABLE v (u BIGINT)").unwrap();
    let mut csv = String::new();
    for i in 0..30_000 {
        csv.push_str(&format!("{}\n", i % 7_500));
    }
    c.put_s3_object("v/1", csv.into_bytes());
    c.execute("COPY v FROM 's3://v/'").unwrap();
    let approx = c
        .query("SELECT APPROX COUNT(DISTINCT u) FROM v")
        .unwrap()
        .rows[0]
        .get(0)
        .as_i64()
        .unwrap();
    let exact = c
        .query("SELECT COUNT(DISTINCT u) FROM v")
        .unwrap()
        .rows[0]
        .get(0)
        .as_i64()
        .unwrap();
    assert_eq!(exact, 7_500);
    let err = (approx - exact).abs() as f64 / exact as f64;
    assert!(err < 0.15, "approx {approx} vs exact {exact}");
}

#[test]
fn concurrent_queries_during_load() {
    // The leader serializes writers; readers run concurrently and always
    // see a consistent snapshot (row counts are a multiple of one COPY).
    let c = launch("mvcc");
    c.execute("CREATE TABLE t (a BIGINT)").unwrap();
    let mut csv = String::new();
    for i in 0..2_000 {
        csv.push_str(&format!("{i}\n"));
    }
    c.put_s3_object("x/1", csv.into_bytes());
    c.execute("COPY t FROM 's3://x/'").unwrap();

    let writer = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || {
            for _ in 0..5 {
                c.execute("COPY t FROM 's3://x/'").unwrap();
            }
        })
    };
    let reader = {
        let c = Arc::clone(&c);
        std::thread::spawn(move || {
            for _ in 0..20 {
                let n = c.query("SELECT COUNT(*) FROM t").unwrap().rows[0]
                    .get(0)
                    .as_i64()
                    .unwrap();
                assert_eq!(n % 2_000, 0, "partially-visible load: {n}");
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    let n = c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64().unwrap();
    assert_eq!(n, 12_000);
}

#[test]
fn select_distinct() {
    let c = launch("dst");
    c.execute("CREATE TABLE t (a BIGINT, b VARCHAR)").unwrap();
    c.execute(
        "INSERT INTO t VALUES (1,'x'), (1,'x'), (2,'x'), (2,'y'), (NULL,'x'), (NULL,'x')",
    )
    .unwrap();
    let rows = c.query("SELECT DISTINCT a, b FROM t ORDER BY a, b").unwrap().rows;
    assert_eq!(rows.len(), 4, "{rows:?}");
    let singles = c.query("SELECT DISTINCT b FROM t ORDER BY b").unwrap().rows;
    assert_eq!(singles.len(), 2);
    assert_eq!(singles[0].get(0).as_str(), Some("x"));
    // Interpreted path agrees.
    let interp = c.query_interpreted("SELECT DISTINCT a, b FROM t ORDER BY a, b").unwrap();
    assert_eq!(rows, interp);
    // DISTINCT + hidden ORDER BY column is rejected per standard SQL.
    assert!(c.query("SELECT DISTINCT b FROM t ORDER BY a").is_err());
}

#[test]
fn having_filters_groups_at_runtime() {
    let c = launch("hav");
    c.execute("CREATE TABLE t (g BIGINT, v BIGINT)").unwrap();
    // Group 0: 10 rows, group 1: 3 rows, group 2: 7 rows.
    for (g, n) in [(0i64, 10i64), (1, 3), (2, 7)] {
        for i in 0..n {
            c.execute(&format!("INSERT INTO t VALUES ({g}, {i})")).unwrap();
        }
    }
    let rows = c
        .query("SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) > 5 ORDER BY g")
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get(0).as_i64(), Some(0));
    assert_eq!(rows[0].get(1).as_i64(), Some(10));
    assert_eq!(rows[1].get(0).as_i64(), Some(2));
    // HAVING referencing an aggregate not in the projection.
    let rows = c
        .query("SELECT g FROM t GROUP BY g HAVING SUM(v) > 20 ORDER BY g")
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 2, "{rows:?}"); // sums: 45, 3, 21
    // Interpreted agreement.
    let a = c
        .query("SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) > 5 ORDER BY g")
        .unwrap()
        .rows;
    let b = c
        .query_interpreted(
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) > 5 ORDER BY g",
        )
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn copy_ingests_compressed_and_encrypted_sources() {
    let c = launch("srccodec");
    c.execute("CREATE TABLE t (a BIGINT, s VARCHAR(32))").unwrap();
    let mut csv = String::new();
    for i in 0..2_000 {
        csv.push_str(&format!("{i},value-{}\n", i % 13));
    }
    let lzss = redshift_sim::storage::lzss::compress(csv.as_bytes());
    // Client-side encryption: stage ciphertext, return the hex key that
    // `COPY … ENCRYPTED '<hex>'` takes.
    let mut rng = redshift_sim::testkit::rng::Pcg32::seed_from_u64(7);
    let mut stage_encrypted = |key: &str, bytes: &[u8]| -> String {
        let k = redshift_sim::crypto::Key::generate(&mut rng);
        let enc = redshift_sim::crypto::encrypt_payload(&k, bytes, &mut rng);
        c.put_s3_object(key, enc.serialize());
        k.0.iter().map(|w| format!("{w:08x}")).collect()
    };
    // LZSS-compressed source (the gzip/lzop stand-in).
    c.put_s3_object("gz/part-1", lzss.clone());
    let s = c.execute("COPY t FROM 's3://gz/' LZSS").unwrap();
    assert_eq!(s.rows_affected, 2_000);
    // Client-side encrypted source.
    c.execute("CREATE TABLE t2 (a BIGINT, s VARCHAR(32))").unwrap();
    let key_hex = stage_encrypted("enc/part-1", csv.as_bytes());
    let s = c
        .execute(&format!("COPY t2 FROM 's3://enc/' ENCRYPTED '{key_hex}'"))
        .unwrap();
    assert_eq!(s.rows_affected, 2_000);
    // Both loads produce identical contents.
    let q = "SELECT COUNT(*), SUM(a), MIN(s), MAX(s) FROM t";
    let a = c.query(q).unwrap().rows;
    let b = c.query(&q.replace("FROM t", "FROM t2")).unwrap().rows;
    assert_eq!(a, b);
    // Wrong key fails loudly, loads nothing.
    c.execute("CREATE TABLE t3 (a BIGINT, s VARCHAR(32))").unwrap();
    let err = c.execute("COPY t3 FROM 's3://enc/' ENCRYPTED '00000000000000000000000000000000'");
    assert!(err.is_err());
    assert_eq!(
        c.query("SELECT COUNT(*) FROM t3").unwrap().rows[0].get(0).as_i64(),
        Some(0)
    );
    // Encrypted + compressed compose: compress first, then encrypt —
    // COPY decrypts then decompresses.
    c.execute("CREATE TABLE t4 (a BIGINT, s VARCHAR(32))").unwrap();
    let key_hex = stage_encrypted("both/part-1", &lzss);
    let s = c
        .execute(&format!("COPY t4 FROM 's3://both/' ENCRYPTED '{key_hex}' LZSS"))
        .unwrap();
    assert_eq!(s.rows_affected, 2_000);
}

/// Three analyzed rows, then 50,000 loaded with STATUPDATE OFF: the
/// statistics say 3 rows, the running estimate says 50,003. The planner
/// must go by the estimate (broadcast the 3-row `d`, not redistribute
/// both sides), and `svv_table_info` must show the gap until ANALYZE.
#[test]
fn stale_statistics_neither_steer_the_planner_nor_hide() {
    let c = launch("stale");
    c.execute("CREATE TABLE t (k BIGINT, v BIGINT) DISTKEY(k)").unwrap();
    c.execute("CREATE TABLE d (w BIGINT)").unwrap();
    c.put_s3_object("small/1", b"1,1\n2,2\n3,3\n".to_vec());
    c.put_s3_object("dim/1", b"1\n2\n3\n".to_vec());
    let big: String = (0..50_000).map(|i| format!("{i},{}\n", i % 3)).collect();
    c.put_s3_object("big/1", big.into_bytes());
    c.execute("COPY t FROM 's3://small/'").unwrap();
    c.execute("COPY d FROM 's3://dim/'").unwrap();
    c.execute("COPY t FROM 's3://big/' STATUPDATE OFF").unwrap();
    assert_eq!(c.table_stats("t").unwrap().rows, 3, "STATUPDATE OFF leaves statistics alone");
    assert_eq!(c.rows_estimate("t"), Some(50_003));

    let explain = |c: &Cluster| {
        let plan = c.query("EXPLAIN SELECT COUNT(*) FROM t JOIN d ON t.v = d.w").unwrap();
        format!("{:?}", plan.rows)
    };
    let info = |c: &Cluster| {
        // `table` and `diststyle` are keywords here, as `table` is in Redshift.
        let q = "SELECT stats_off, tbl_rows, loads_since_analyze, \"diststyle\" \
                 FROM svv_table_info WHERE \"table\" = 't'";
        c.query(q).unwrap().rows[0].clone()
    };
    let stale_plan = explain(&c);
    assert!(stale_plan.contains("DS_BCAST_INNER"), "planned with stale rows: {stale_plan}");
    let stale = info(&c);
    assert!(stale.get(0).as_f64().unwrap() > 99.0, "{stale:?}");
    assert_eq!(stale.get(1).as_i64(), Some(50_003));
    assert_eq!(stale.get(2).as_i64(), Some(50_000));
    assert_eq!(stale.get(3).as_str(), Some("KEY(k)"));

    c.execute("ANALYZE t").unwrap();
    assert_eq!(explain(&c), stale_plan, "ANALYZE has nothing left to correct");
    let fresh = info(&c);
    assert_eq!(fresh.get(0).as_f64(), Some(0.0));
    assert_eq!(fresh.get(2).as_i64(), Some(0));
    // Never-analyzed, never-loaded: no statistics to be off.
    c.execute("CREATE TABLE e (x BIGINT)").unwrap();
    let q = "SELECT stats_off, unsorted FROM svv_table_info WHERE \"table\" = 'e'";
    let empty = c.query(q).unwrap().rows[0].clone();
    assert!(empty.get(0).is_null() && empty.get(1).is_null(), "{empty:?}");
}

/// INSERT reaches the statistics: after a STATUPDATE COPY and two
/// INSERTs the record is what a fresh ANALYZE computes, and the table
/// needs no auto-ANALYZE.
#[test]
fn insert_keeps_statistics_current() {
    let c = launch("ins-stats");
    c.execute("CREATE TABLE t (k BIGINT, s VARCHAR(8))").unwrap();
    c.put_s3_object("in/1", b"1,a\n2,b\n3,\n".to_vec());
    c.execute("COPY t FROM 's3://in/'").unwrap();
    c.execute("INSERT INTO t VALUES (40, 'zz'), (2, NULL)").unwrap();
    c.execute("INSERT INTO t (k) VALUES (41)").unwrap();
    let folded = c.table_stats("t").unwrap();
    assert_eq!(folded.rows, 6);
    assert_eq!(folded.columns[0].max.as_ref().and_then(|v| v.as_i64()), Some(41));
    assert_eq!(folded.columns[0].ndv(), 5.0);
    assert_eq!(folded.columns[1].nulls, 3);
    assert!(c.maintenance_tick(&Default::default()).unwrap().iter().all(|a| {
        !matches!(a, redshift_sim::core::MaintenanceAction::Analyze { .. })
    }));
    c.execute("ANALYZE t").unwrap();
    assert_eq!(c.table_stats("t").unwrap(), folded, "ANALYZE recomputes the folded record");
}

#[test]
fn insert_parses_strings_into_date_timestamp_and_decimal_columns() {
    let c = launch("ins-cast");
    c.execute("CREATE TABLE d (x DATE, ts TIMESTAMP, m DECIMAL(8,2))").unwrap();
    c.execute("INSERT INTO d VALUES (DATE '2015-01-02', TIMESTAMP '2015-01-02 03:04:05', 1.5)").unwrap();
    c.execute("INSERT INTO d VALUES ('2015-01-02', '2015-01-02 03:04:05', '1.50')").unwrap();
    c.execute("INSERT INTO d VALUES (CAST('2015-01-02' AS DATE), NULL, NULL)").unwrap();
    let rows = c.query("SELECT x, ts, m FROM d ORDER BY ts, m").unwrap().rows;
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0], rows[1], "the string form reads back equal to the literal form");
    assert_eq!(rows[2].get(0), rows[0].get(0));
    // The same cast answers on both engines.
    let sql = "SELECT CAST(CAST(x AS VARCHAR) AS DATE) FROM d";
    assert_eq!(c.query(sql).unwrap().rows, c.query_interpreted(sql).unwrap());
    // A malformed string is still a typed error naming the value, and
    // the statement leaves nothing behind.
    for bad in ["'2015-13-02', NULL, NULL", "NULL, '2015-01-02 25:00:00', NULL", "NULL, NULL, '1.2.3'"] {
        let err = c.execute(&format!("INSERT INTO d VALUES ({bad})")).unwrap_err();
        assert_eq!(err.code(), "PARSE", "{err}");
        let value = bad.split('\'').nth(1).unwrap();
        assert!(err.to_string().contains(value), "{err}");
    }
    assert_eq!(c.query("SELECT COUNT(*) FROM d").unwrap().rows[0].get(0).as_i64(), Some(3));
}

#[test]
fn guards_protect_division() {
    let c = launch("guards");
    c.execute("CREATE TABLE t (a BIGINT, f FLOAT8)").unwrap();
    c.execute("INSERT INTO t VALUES (0, 0.0), (2, 0.5), (5, 4.0), (NULL, NULL)").unwrap();
    let ints = |sql: &str| -> Vec<Vec<Option<i64>>> {
        let q = c.query(sql).unwrap();
        assert_eq!(q.rows, c.query_interpreted(sql).unwrap(), "{sql}");
        q.rows.iter().map(|r| r.values().iter().map(|v| v.as_i64()).collect()).collect()
    };
    // A WHERE conjunct and a CASE condition keep the division off a = 0.
    let guarded_where = "SELECT a FROM t WHERE a <> 0 AND 10 / a > 1 ORDER BY a";
    assert_eq!(ints(guarded_where), [[Some(2)], [Some(5)]]);
    assert_eq!(
        ints("SELECT a, CASE WHEN a <> 0 THEN 10 / a ELSE 0 END FROM t ORDER BY a"),
        [[Some(0), Some(0)], [Some(2), Some(5)], [Some(5), Some(2)], [None, Some(0)]]
    );
    assert_eq!(ints("SELECT a FROM t WHERE f = 0 OR 1.0 / f > 1 ORDER BY a"), [[Some(0)], [Some(2)]]);
    // It is the row interpreter that answers the guarded WHERE, and the
    // statement says so.
    let explain = c.query(&format!("EXPLAIN ANALYZE {guarded_where}")).unwrap();
    let line = explain.rows[0].get(0).as_str().unwrap().to_string();
    assert!(line.contains("interp_fallback=") && !line.contains("interp_fallback=0)"), "{line}");
    // Unguarded, every lane raises — the same error on both engines.
    for sql in ["SELECT 10 / a FROM t", "SELECT 10 % a FROM t", "SELECT 1.0 / f FROM t", "SELECT a FROM t WHERE 10 / a > 1"] {
        let (fast, slow) = (c.query(sql).unwrap_err(), c.query_interpreted(sql).unwrap_err());
        assert_eq!((fast.code(), slow.code()), ("EXEC", "EXEC"), "{sql}");
        assert!(fast.to_string().contains("division by zero"), "{fast}");
    }
}

#[test]
fn one_key_path_probes_match_equals() {
    let c = launch("keys");
    for (ddl, table, csv) in [
        ("CREATE TABLE a (k INT, d2 DECIMAL(10,2), f FLOAT8, b BOOLEAN)", "a", "2,2.00,2.0,t\n"),
        ("CREATE TABLE b (k BIGINT, d3 DECIMAL(10,3), f FLOAT8, i INT, s VARCHAR(8))", "b", "2,2.000,2.0,2,2\n"),
        ("CREATE TABLE x (k INT, f FLOAT8)", "x", "1,0.0\n2,NaN\n"),
        ("CREATE TABLE y (k INT, f FLOAT8)", "y", "1,-0.0\n2,NaN\n"),
        ("CREATE TABLE z (f FLOAT8)", "z", "0.0\n-0.0\nNaN\nNaN\n"),
        ("CREATE TABLE m (s SMALLINT, i INT, a BIGINT)", "m", "-32768,-2147483648,-9223372036854775808\n"),
    ] {
        c.execute(ddl).unwrap();
        c.put_s3_object(&format!("keys/{table}"), csv.as_bytes().to_vec());
        c.execute(&format!("COPY {table} FROM 's3://keys/{table}'")).unwrap();
    }
    // One number per statement, the same on both engines (as text: NaN
    // is not equal to itself as a `Value`).
    let count = |sql: &str| -> i64 {
        let rows = c.query(sql).unwrap().rows;
        assert_eq!(format!("{rows:?}"), format!("{:?}", c.query_interpreted(sql).unwrap()), "{sql}");
        match rows.len() {
            1 => rows[0].get(0).as_i64().unwrap(),
            n => n as i64,
        }
    };

    // A join key matches exactly when `=` holds: the same conjunct as a
    // residual, under a key both sides share, is the oracle.
    let joins = [
        ("a", "b", "a.d2 = b.d3"),
        ("a", "b", "a.k = b.d3"),
        ("a", "b", "a.k = b.f"),
        ("a", "b", "a.f = b.i"),
        ("a", "b", "a.d2 = b.f"),
        ("x", "y", "x.f = y.f"),
    ];
    for (l, r, on) in joins {
        let oracle = count(&format!("SELECT COUNT(*) FROM {l} JOIN {r} ON {l}.k = {r}.k AND {on}"));
        assert!(oracle > 0, "{on}");
        assert_eq!(count(&format!("SELECT COUNT(*) FROM {l} JOIN {r} ON {on}")), oracle, "{on}");
    }
    assert_eq!(count("SELECT COUNT(*) FROM z WHERE f = -0.0"), 2);

    // A key pair `=` refuses is refused as a join key too, with `=`'s error.
    for (on, msg) in [
        ("a.k = b.s", "cannot compare INTEGER with VARCHAR"),
        ("a.b = b.i", "cannot compare BOOLEAN with INTEGER"),
    ] {
        for sql in [
            format!("SELECT COUNT(*) FROM a JOIN b ON {on}"),
            format!("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k AND {on}"),
        ] {
            let err = c.query(&sql).unwrap_err();
            assert_eq!(err.code(), "ANALYSIS", "{sql}");
            assert!(err.to_string().contains(msg), "{sql}: {err}");
        }
    }

    // FLOAT8 keys group as `=` compares: 0.0 with -0.0, NaN with NaN.
    assert_eq!(count("SELECT f, COUNT(*) FROM z GROUP BY f ORDER BY f"), 2);
    assert_eq!(count("SELECT COUNT(DISTINCT f) FROM z"), 2);

    // Negating a type's minimum raises the error its type raises
    // elsewhere, on both engines.
    for (sql, msg) in [
        ("SELECT -s FROM m", "value 32768 out of range for SMALLINT"),
        ("SELECT ABS(s) FROM m", "value 32768 out of range for SMALLINT"),
        ("SELECT -i FROM m", "value 2147483648 out of range for INTEGER"),
        ("SELECT -a FROM m", "integer overflow"),
        ("SELECT ABS(a) FROM m", "integer overflow"),
        ("SELECT a - 1 FROM m", "integer overflow"),
    ] {
        let (fast, slow) = (c.query(sql).unwrap_err(), c.query_interpreted(sql).unwrap_err());
        assert_eq!((fast.code(), slow.code()), ("EXEC", "EXEC"), "{sql}");
        assert!(fast.to_string().contains(msg) && slow.to_string().contains(msg), "{sql}: {fast} / {slow}");
    }
}

#[test]
fn result_cache_hits_are_bit_identical_for_every_type() {
    // A cached entry keeps the result's columns and boxes them again for
    // every reply: each type comes back as the cold run returned it.
    let c = launch("cache-types");
    c.execute(
        "CREATE TABLE t (k INT, s SMALLINT, b BIGINT, f FLOAT8, d2 DECIMAL(10,2), d4 DECIMAL(18,4),
         v VARCHAR(16), dt DATE, ts TIMESTAMP, bo BOOLEAN)",
    )
    .unwrap();
    let csv = "1,-32768,9223372036854775807,0.0,1.25,-0.0001,é日,2015-01-02,2015-01-02 03:04:05,t\n\
               2,7,-1,-0.0,-99999999.99,12345678901234.5678,a b,1970-01-01,1999-12-31 23:59:59,f\n\
               3,,,NaN,,,,,,\n\
               4,0,0,-inf,0.10,0.0000,z,2038-01-19,2038-01-19 03:14:07,\n";
    c.put_s3_object("types/t", csv.as_bytes().to_vec());
    c.execute("COPY t FROM 's3://types/t'").unwrap();
    let s = c.connect(SessionOpts::new("dash")).unwrap();
    for sql in [
        "SELECT k, s, b, f, d2, d4, v, dt, ts, bo FROM t ORDER BY k",
        "SELECT bo, COUNT(*), SUM(d2), MIN(f), MAX(v) FROM t GROUP BY bo ORDER BY bo",
        "SELECT k, f FROM t WHERE k > 10",
    ] {
        let cold = s.query(sql).unwrap();
        let hit = s.query(sql).unwrap();
        assert!(!cold.result_cache_hit && hit.result_cache_hit, "{sql}");
        // Debug text tells -0.0 from 0.0 and prints NaN as itself.
        assert_eq!(format!("{:?}", hit.columns), format!("{:?}", cold.columns), "{sql}");
        assert_eq!(format!("{:?}", hit.rows), format!("{:?}", cold.rows), "{sql}");
    }
    let rows = s.query("SELECT f FROM t ORDER BY k").unwrap().rows;
    let bits: Vec<u64> = rows.iter().map(|r| r.get(0).as_f64().map_or(0, f64::to_bits)).collect();
    assert_eq!(bits[..2], [0.0f64.to_bits(), (-0.0f64).to_bits()]);
    assert!(f64::from_bits(bits[2]).is_nan() && bits[3] == f64::NEG_INFINITY.to_bits());
}

#[test]
fn order_by_position_sorts_by_that_select_list_column() {
    let c = launch("order-pos");
    c.execute("CREATE TABLE f (k BIGINT, q BIGINT, s VARCHAR(8))").unwrap();
    c.execute("INSERT INTO f VALUES (1, 10, 'x'), (2, 50, 'z'), (3, 20, 'y')").unwrap();
    c.execute("INSERT INTO f VALUES (4, 40, 'w'), (5, 30, 'v')").unwrap();
    let text = |sql: &str| -> Vec<String> {
        let rows = c.query(sql).unwrap().rows;
        assert_eq!(rows, c.query_interpreted(sql).unwrap(), "{sql}");
        let cells = |r: &redshift_sim::common::Row| -> Vec<String> {
            (0..r.len()).map(|i| r.get(i).to_string()).collect()
        };
        rows.iter().map(|r| cells(r).join(",")).collect()
    };
    assert_eq!(text("SELECT s, q FROM f ORDER BY 2 DESC LIMIT 3"), ["z,50", "w,40", "v,30"]);
    assert_eq!(text("SELECT q FROM f ORDER BY 1"), ["10", "20", "30", "40", "50"]);
    let desc = ["z,50", "y,20", "x,10", "w,40", "v,30"];
    assert_eq!(text("SELECT s, q FROM f ORDER BY 1 DESC"), desc);
    // Position and name mix; an expression is not a position.
    assert_eq!(text("SELECT k, s FROM f ORDER BY 2, k"), ["5,v", "4,w", "1,x", "3,y", "2,z"]);
    assert_eq!(text("SELECT q FROM f ORDER BY 1 + 0, q DESC LIMIT 2"), ["50", "40"]);
    let err = c.query("SELECT q FROM f ORDER BY 7").unwrap_err();
    assert_eq!(err.code(), "ANALYSIS");
    assert!(err.to_string().contains("ORDER BY position 7 is not in select list"), "{err}");
}

/// A dimension VARCHAR leaves the join as codes into the build's
/// dictionary and GROUP BY reads the codes: every statement equals the
/// row-store oracle — inner and LEFT joins, NULL-padded rows, a NULL
/// dimension value, duplicate build keys, two keys across the join, a
/// LIKE, a sort and the boxed aggregates over the joined column.
#[test]
fn dimension_strings_travel_as_codes() {
    let c = launch("codes");
    c.execute("CREATE TABLE fact (k BIGINT, q BIGINT) DISTKEY(k)").unwrap();
    c.execute("CREATE TABLE dim (k BIGINT, region VARCHAR(8), cat VARCHAR(8)) DISTKEY(k)").unwrap();
    c.execute("CREATE TABLE dim_all (k BIGINT, region VARCHAR(8), cat VARCHAR(8)) DISTSTYLE ALL")
        .unwrap();
    let fact: String = (0..400).map(|i| format!("{},{}\n", i * 7 % 13, i % 50)).collect();
    // Keys 0..=10 (11 and 12 find nothing), key 3 twice, key 5 with a
    // NULL region (an empty CSV field), key 8 with an empty one.
    let dim: String = (0..=10)
        .filter(|&k| k != 8)
        .chain([3])
        .enumerate()
        .map(|(row, k)| {
            let region = if k == 5 { "" } else { ["eu", "na", "apac", "latam"][(k + row) % 4] };
            format!("{k},{region},{}\n", ["bolt", "nut", "gear"][k % 3])
        })
        .collect();
    c.put_s3_object("codes/fact", fact.into_bytes());
    c.put_s3_object("codes/dim", dim.into_bytes());
    c.execute("COPY fact FROM 's3://codes/fact'").unwrap();
    for t in ["dim", "dim_all"] {
        c.execute(&format!("COPY {t} FROM 's3://codes/dim'")).unwrap();
        c.execute(&format!("INSERT INTO {t} VALUES (8, '', 'gear')")).unwrap();
    }
    let sorted = |mut rows: Vec<redshift_sim::common::Row>| {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };
    for dim in ["dim", "dim_all"] {
        for join in ["JOIN", "LEFT JOIN"] {
            let from = format!("fact {join} {dim} d ON fact.k = d.k");
            for sql in [
                format!("SELECT region, COUNT(*), SUM(q) FROM {from} GROUP BY region"),
                format!("SELECT region, cat, COUNT(*) FROM {from} GROUP BY region, cat"),
                format!("SELECT cat, region, MIN(q) FROM {from} GROUP BY cat, region"),
                format!("SELECT q, region FROM {from} WHERE region LIKE 'a%' OR q < 3"),
                format!("SELECT DISTINCT region FROM {from}"),
                format!(
                    "SELECT COUNT(DISTINCT region), MIN(region), MAX(cat), COUNT(region) FROM {from}"
                ),
            ] {
                let rows = c.query(&sql).unwrap().rows;
                let oracle = c.query_interpreted(&sql).unwrap();
                assert_eq!(sorted(rows), sorted(oracle), "{sql}");
            }
            let sql = format!("SELECT region, cat, q FROM {from} ORDER BY 1, 2 DESC, 3");
            assert_eq!(c.query(&sql).unwrap().rows, c.query_interpreted(&sql).unwrap(), "{sql}");
        }
    }
    // The LEFT join pads keys 11 and 12 with NULL and key 5 holds a NULL
    // region (one group), key 8 an empty one: the two stay apart.
    let sql = "SELECT region, COUNT(*) FROM fact LEFT JOIN dim ON fact.k = dim.k GROUP BY region";
    let keys: Vec<String> =
        c.query(sql).unwrap().rows.iter().map(|r| format!("{:?}", r.get(0))).collect();
    assert!(keys.contains(&"Null".into()) && keys.contains(&"Str(\"\")".into()), "{keys:?}");
}
