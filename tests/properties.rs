//! Property-based tests over the core invariants (testkit::prop).
//!
//! These were originally written against `proptest`; they now run on the
//! in-tree `redsim_testkit::prop` harness with the same case counts. The
//! old `tests/properties.proptest-regressions` file is still honored:
//! the SQL-frontend fuzz test replays its persisted seeds before fresh
//! cases, and the fuzz-found lexer input is additionally pinned as the
//! named test [`regression_lexer_multibyte_start`].

use redshift_sim::common::{ColumnData, ColumnDef, DataType, Schema, Value};
use redshift_sim::core::{Cluster, ClusterConfig, SessionOpts};
use redshift_sim::storage::encoding::{decode_column, encode_column, Encoding};
use redshift_sim::testkit::prop::{self, Config, Gen};
use redshift_sim::zorder::ZSpace;
use std::path::PathBuf;
use std::sync::Arc;

/// The proptest-era persisted regression seeds for this suite.
fn regressions() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/properties.proptest-regressions")
}

// ---------------------------------------------------------------------
// Encoding round-trips for arbitrary data shapes.
// ---------------------------------------------------------------------

fn arb_int_col() -> Gen<ColumnData> {
    prop::vec_of(prop::option_of(prop::any_i64()), 0..300).map(|vals| {
        let mut c = ColumnData::new(DataType::Int8);
        for v in vals {
            match v {
                Some(x) => c.push_value(&Value::Int8(*x)).unwrap(),
                None => c.push_null(),
            }
        }
        c
    })
}

fn arb_str_col() -> Gen<ColumnData> {
    prop::vec_of(prop::option_of(prop::pattern("[a-z0-9/:.]{0,24}")), 0..200).map(|vals| {
        let mut c = ColumnData::new(DataType::Varchar);
        for v in vals {
            match v {
                Some(s) => c.push_value(&Value::Str(s.clone())).unwrap(),
                None => c.push_null(),
            }
        }
        c
    })
}

#[test]
fn int_encodings_roundtrip() {
    prop::check("int_encodings_roundtrip", &Config::with_cases(64), &arb_int_col(), |col| {
        for enc in [Encoding::Raw, Encoding::Rle, Encoding::Delta, Encoding::Mostly8,
                    Encoding::Mostly16, Encoding::Mostly32] {
            if let Ok(bytes) = encode_column(col, enc) {
                let back = decode_column(&bytes, Some(DataType::Int8)).unwrap();
                assert_eq!(back.len(), col.len());
                for i in 0..col.len() {
                    assert_eq!(back.get(i), col.get(i));
                }
            }
        }
    });
}

#[test]
fn str_encodings_roundtrip() {
    prop::check("str_encodings_roundtrip", &Config::with_cases(64), &arb_str_col(), |col| {
        for enc in [Encoding::Raw, Encoding::Rle, Encoding::Dict, Encoding::Lzss] {
            if let Ok(bytes) = encode_column(col, enc) {
                let back = decode_column(&bytes, Some(DataType::Varchar)).unwrap();
                assert_eq!(back.len(), col.len());
                for i in 0..col.len() {
                    assert_eq!(back.get(i), col.get(i));
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// BIGMIN is exactly the brute-force "next code in rect".
// ---------------------------------------------------------------------

#[test]
fn bigmin_matches_brute_force() {
    let gen = prop::tuple5(
        prop::range(0u32..16),
        prop::range(0u32..16),
        prop::range(0u32..16),
        prop::range(0u32..16),
        prop::range(0u64..256),
    );
    prop::check(
        "bigmin_matches_brute_force",
        &Config::with_cases(64),
        &gen,
        |&(lo0, hi0, lo1, hi1, z)| {
            let z = z as u128;
            let s = ZSpace::with_bits(2, 4);
            let lo = [lo0.min(hi0), lo1.min(hi1)];
            let hi = [lo0.max(hi0), lo1.max(hi1)];
            let expect = (z..256).find(|&c| s.in_rect(c, &lo, &hi));
            assert_eq!(s.next_in_rect(z, &lo, &hi), expect);
        },
    );
}

// ---------------------------------------------------------------------
// Distribution routing: every row lands on exactly one slice and
// co-location holds per key.
// ---------------------------------------------------------------------

#[test]
fn key_routing_partitions_rows() {
    let gen = prop::vec_of(prop::any_i64(), 1..200);
    prop::check("key_routing_partitions_rows", &Config::with_cases(64), &gen, |keys| {
        use redshift_sim::distribution::{ClusterTopology, DistStyle, RowRouter};
        let topo = ClusterTopology::new(4, 2).unwrap();
        let mut router = RowRouter::new(DistStyle::Key(0), &topo);
        let mut col = ColumnData::new(DataType::Int8);
        for &k in keys {
            col.push_value(&Value::Int8(k)).unwrap();
        }
        let parts = router.route(&[col]).unwrap();
        let total: usize = parts.iter().map(|p| p[0].len()).sum();
        assert_eq!(total, keys.len());
        // Co-location: equal keys never appear on different slices.
        let mut home: std::collections::HashMap<i64, usize> = Default::default();
        for (slice, p) in parts.iter().enumerate() {
            for i in 0..p[0].len() {
                let k = p[0].get_i64(i).unwrap();
                if let Some(&prev) = home.get(&k) {
                    assert_eq!(prev, slice);
                } else {
                    home.insert(k, slice);
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Query equivalence: vectorized MPP engine == row-at-a-time interpreter
// on randomized data and a panel of query shapes.
// ---------------------------------------------------------------------

#[test]
fn compiled_equals_interpreted() {
    let gen = prop::pair(
        prop::vec_of(
            prop::triple(prop::range(0i64..50), prop::any_bool(), prop::range(0i64..1000)),
            1..120,
        ),
        prop::range(0i64..1000),
    );
    prop::check(
        "compiled_equals_interpreted",
        &Config::with_cases(12),
        &gen,
        |(rows, threshold)| {
            let c = Cluster::launch(
                ClusterConfig::new("prop").nodes(2).slices_per_node(2).rows_per_group(32),
            )
            .unwrap();
            c.execute("CREATE TABLE t (k BIGINT, b BOOLEAN, v BIGINT) DISTKEY(k)").unwrap();
            // The same rows again with one column per type the `Value`
            // evaluator has an arm for. Some cases hold the rows that
            // make an expression raise (a = 0, f = 0, i near 2^31, sm
            // near 2^15) and some do not: both engines must answer the
            // same rows or raise the same error code.
            c.execute(
                "CREATE TABLE u (id BIGINT, a BIGINT, i INT, sm SMALLINT, f FLOAT8, \
                 m DECIMAL(10,2), s VARCHAR(16), n VARCHAR(16), d DATE) DISTKEY(a)",
            )
            .unwrap();
            let (mut t, mut u) = (String::new(), String::new());
            for (id, (k, b, v)) in rows.iter().enumerate() {
                t.push_str(&format!("{k},{},{v}\n", if *b { "t" } else { "f" }));
                let i = if v % 7 == 0 { 2_000_000_000 } else { *v };
                let sm = if v % 5 == 0 { 30_000 } else { v % 100 };
                let day = 1 + k % 28;
                u.push_str(&format!(
                    "{id},{k},{i},{sm},{},{}.{:02},2015-01-{day:02},Ab{k},2015-02-{day:02}\n",
                    (k % 4) as f64 * 0.5,
                    v / 100,
                    v % 100,
                ));
            }
            c.put_s3_object("p/1", t.into_bytes());
            c.put_s3_object("q/1", u.into_bytes());
            c.execute("COPY t FROM 's3://p/'").unwrap();
            c.execute("COPY u FROM 's3://q/'").unwrap();
            let mut queries = vec![
                format!("SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t WHERE v < {threshold} GROUP BY k ORDER BY k"),
                "SELECT COUNT(*) FROM t WHERE b".to_string(),
                "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 7".to_string(),
                "SELECT a.k, COUNT(*) AS n FROM t a JOIN t b ON a.k = b.k GROUP BY a.k ORDER BY a.k".to_string(),
            ];
            queries.extend(
                [
                    // The seven shapes on which the two engines used to
                    // differ, and the unguarded divisions.
                    "SELECT id, CAST(s AS DATE), CAST(s AS TIMESTAMP), CAST(CAST(a AS VARCHAR) AS BIGINT), \
                     CAST(CAST(m AS VARCHAR) AS DECIMAL(10,2)) FROM u ORDER BY id",
                    "SELECT id, 1.0 / f FROM u ORDER BY id",
                    "SELECT id FROM u WHERE a <> 0 AND 10 / a > 1 ORDER BY id",
                    "SELECT id, CASE WHEN a <> 0 THEN 10 / a ELSE 0 END FROM u ORDER BY id",
                    "SELECT id, i + i FROM u ORDER BY id",
                    "SELECT id, sm * sm FROM u ORDER BY id",
                    "SELECT id, m / 2 FROM u ORDER BY id",
                    "SELECT id, 10 / a, 10 % a FROM u ORDER BY id",
                    "SELECT id FROM u WHERE f <> 0 AND 1.0 / f > 0.5 ORDER BY id",
                    // One shape per remaining arm of the `Value` evaluator.
                    "SELECT id, n || '-' || s, -a, -f, -m FROM u ORDER BY id",
                    "SELECT id, ABS(a - 25), ABS(f - 1.0), ABS(m - 5), ABS(sm - 50), LENGTH(n), UPPER(n), \
                     LOWER(n), DATE_PART('year', d), DATE_PART('month', d), DATE_PART('day', d) \
                     FROM u ORDER BY id",
                    "SELECT id, m + m, m - m, m * m, m + 1 FROM u ORDER BY id",
                    "SELECT CASE WHEN a < 25 THEN 'lo' ELSE 'hi' END AS g, COUNT(*) AS c FROM u \
                     GROUP BY CASE WHEN a < 25 THEN 'lo' ELSE 'hi' END ORDER BY g",
                    "SELECT id, n FROM u ORDER BY LOWER(n), id",
                    "SELECT SUM(CASE WHEN a < 25 THEN sm ELSE 0 END), COUNT(CASE WHEN a < 25 THEN 1 END) FROM u",
                    "SELECT id FROM u WHERE n LIKE 'Ab1%' AND NOT (s IN ('2015-01-02', '2015-01-12')) \
                     AND d IS NOT NULL ORDER BY id",
                ]
                .map(String::from),
            );
            for sql in queries {
                let vectorized = c.query(&sql).map(|q| q.rows).map_err(|e| e.code());
                let interpreted = c.query_interpreted(&sql).map_err(|e| e.code());
                assert_eq!(vectorized, interpreted, "query {}", sql);
                // A row's data may make an expression raise; nothing
                // else about these statements may fail.
                assert!(matches!(vectorized, Ok(_) | Err("EXEC")), "{vectorized:?}: {sql}");
            }
        },
    );
}

// ---------------------------------------------------------------------
// Backup → restore is lossless for random tables.
// ---------------------------------------------------------------------

#[test]
fn snapshot_restore_is_identity() {
    let gen = prop::vec_of(prop::pair(prop::any_i64(), prop::pattern("[a-z]{0,12}")), 1..150);
    prop::check(
        "snapshot_restore_is_identity",
        &Config::with_cases(12),
        &gen,
        |rows| {
            use redshift_sim::replication::SnapshotKind;
            let c = Cluster::launch(
                ClusterConfig::new("snapprop").nodes(2).slices_per_node(1).rows_per_group(16),
            )
            .unwrap();
            c.execute("CREATE TABLE t (a BIGINT, s VARCHAR(16))").unwrap();
            let mut csv = String::new();
            for (a, s) in rows {
                csv.push_str(&format!("{a},{s}\n"));
            }
            c.put_s3_object("x/1", csv.into_bytes());
            c.execute("COPY t FROM 's3://x/'").unwrap();
            c.create_snapshot("p", SnapshotKind::User).unwrap();
            let restored = Cluster::restore_from_snapshot(
                ClusterConfig::new("snapprop2").nodes(2).slices_per_node(1),
                Arc::clone(c.s3()),
                "us-east-1",
                "snapprop",
                "p",
                None,
            )
            .unwrap();
            let q = "SELECT a, s FROM t ORDER BY a, s";
            assert_eq!(c.query(q).unwrap().rows, restored.query(q).unwrap().rows);
        },
    );
}

// ---------------------------------------------------------------------
// Sort-key scans return exactly the rows a full scan filters to.
// ---------------------------------------------------------------------

#[test]
fn pruned_scans_lose_nothing() {
    let gen = prop::triple(
        prop::vec_of(prop::range(0i64..10_000), 50..400),
        prop::range(0i64..10_000),
        prop::range(1i64..2_000),
    );
    prop::check(
        "pruned_scans_lose_nothing",
        &Config::with_cases(12),
        &gen,
        |(keys, lo, width)| {
            let c = Cluster::launch(
                ClusterConfig::new("prune").nodes(1).slices_per_node(1).rows_per_group(32),
            )
            .unwrap();
            c.execute("CREATE TABLE t (k BIGINT) COMPOUND SORTKEY(k)").unwrap();
            let mut csv = String::new();
            for k in keys {
                csv.push_str(&format!("{k}\n"));
            }
            c.put_s3_object("k/1", csv.into_bytes());
            c.execute("COPY t FROM 's3://k/'").unwrap();
            c.execute("VACUUM").unwrap();
            let (lo, hi) = (*lo, *lo + *width);
            let got = c
                .query(&format!("SELECT COUNT(*) FROM t WHERE k BETWEEN {lo} AND {hi}"))
                .unwrap()
                .rows[0]
                .get(0)
                .as_i64()
                .unwrap();
            let expect = keys.iter().filter(|&&k| k >= lo && k <= hi).count() as i64;
            assert_eq!(got, expect);
        },
    );
}

// ---------------------------------------------------------------------
// Schema round-trip through the catalog codec.
// ---------------------------------------------------------------------

#[test]
fn schema_codec_roundtrip() {
    let gen = prop::hash_set_of(prop::pattern("[a-z]{1,10}"), 1..12);
    prop::check("schema_codec_roundtrip", &Config::with_cases(64), &gen, |names| {
        use redshift_sim::common::codec::{Reader, Writer};
        let types = [
            DataType::Bool, DataType::Int2, DataType::Int4, DataType::Int8,
            DataType::Float8, DataType::Varchar, DataType::Date,
            DataType::Timestamp, DataType::Decimal(12, 3),
        ];
        let cols: Vec<ColumnDef> = names
            .iter()
            .enumerate()
            .map(|(i, n)| ColumnDef::new(n.clone(), types[i % types.len()]))
            .collect();
        let schema = Schema::new(cols).unwrap();
        let mut w = Writer::new();
        schema.encode(&mut w);
        let bytes = w.into_bytes();
        let rt = Schema::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(schema, rt);
    });
}

// ---------------------------------------------------------------------
// Robustness: arbitrary input never panics the SQL frontend; it returns
// typed errors (the cluster stays healthy afterwards).
// ---------------------------------------------------------------------

#[test]
fn garbage_sql_errors_cleanly() {
    let cfg = Config::with_cases(256).regressions_file(regressions());
    prop::check("garbage_sql_errors_cleanly", &cfg, &prop::pattern(".{0,120}"), |input| {
        // Any unicode soup: must not panic.
        let _ = redshift_sim::sql::parse(input);
    });
}

/// Pinned from `tests/properties.proptest-regressions`: proptest's fuzzing
/// once shrank a lexer panic down to the single multibyte character "Ŀ"
/// (the byte-indexed scanner sliced mid-codepoint). Keep the exact witness
/// as a plain test so it never regresses even if the seed file is lost.
#[test]
fn regression_lexer_multibyte_start() {
    let _ = redshift_sim::sql::parse("Ŀ");
    // A few more multibyte-leading soups in the same family.
    for s in ["Ŀ SELECT", "SELECT Ŀ", "ĿĿĿ", "¼", "👀 FROM t", "'Ŀ'"] {
        let _ = redshift_sim::sql::parse(s);
    }
}

#[test]
fn token_soup_errors_cleanly() {
    let words = vec![
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "JOIN", "ON", "(", ")", ",",
        "COUNT", "*", "+", "-", "t", "a", "b", "'x'", "1", "2.5", "AND", "OR",
        "ORDER", "LIMIT", "BETWEEN", "IN", "LIKE", "NULL", "CASE", "WHEN",
    ];
    let gen = prop::vec_of(prop::select(words), 0..25);
    prop::check("token_soup_errors_cleanly", &Config::with_cases(256), &gen, |words| {
        let sql = words.join(" ");
        let _ = redshift_sim::sql::parse(&sql);
    });
}

#[test]
fn cluster_survives_a_barrage_of_bad_statements() {
    let c = Cluster::launch(ClusterConfig::new("fuzz").nodes(1).slices_per_node(1)).unwrap();
    c.execute("CREATE TABLE t (a BIGINT)").unwrap();
    let bad = [
        "SELECT",
        "SELECT * FROM",
        "SELECT FROM t",
        "CREATE TABLE t (a BIGINT)", // duplicate
        "INSERT INTO t VALUES ('not a number')",
        "COPY t FROM 'not-an-s3-uri'",
        "SELECT a FROM t WHERE a LIKE 1",
        "SELECT SUM(a, a) FROM t",
        "SELECT x.y.z FROM t",
        "DROP TABLE nothere",
        "VACUUM nothere",
        "SELECT a FROM t GROUP BY",
        "SELECT CAST(a AS NOPE) FROM t",
        "SELECT DISTINCT a FROM t ORDER BY missing",
    ];
    for sql in bad {
        assert!(c.execute(sql).is_err(), "{sql:?} should fail");
    }
    // Division by zero on an *empty* table is fine (no row evaluates it,
    // matching PostgreSQL); with a row present it must error.
    c.query("SELECT 1/0 FROM t").unwrap();
    c.execute("INSERT INTO t VALUES (7)").unwrap();
    assert!(c.query("SELECT 1/0 FROM t").is_err());
    // Still healthy.
    assert_eq!(
        c.query("SELECT COUNT(*) FROM t").unwrap().rows[0].get(0).as_i64(),
        Some(1)
    );
}

// ---------------------------------------------------------------------
// Trace invariants: a random query workload leaves the telemetry sink
// structurally consistent — no span leaks, no child outliving its
// parent, and `stl_query` accounts for exactly the queries issued.
// ---------------------------------------------------------------------

/// One step of the random workload: which statement template to run and
/// a literal to instantiate it with.
fn arb_workload() -> Gen<Vec<(usize, i64)>> {
    prop::vec_of(prop::pair(prop::range(0usize..5), prop::range(0i64..1_000)), 1..20)
}

#[test]
fn trace_invariants_hold_under_random_workload() {
    let cfg = Config::with_cases(16);
    prop::check("trace_invariants", &cfg, &arb_workload(), |steps| {
        let c = Cluster::launch(
            ClusterConfig::new("trace-prop").nodes(2).slices_per_node(2),
        )
        .unwrap();
        c.execute("CREATE TABLE t (a BIGINT, b VARCHAR)").unwrap();
        c.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')").unwrap();
        let mut selects = 0u64;
        for &(kind, lit) in steps {
            match kind {
                0 => {
                    c.query(&format!("SELECT COUNT(*) FROM t WHERE a <> {lit}")).unwrap();
                    selects += 1;
                }
                1 => {
                    c.query("SELECT SUM(a) FROM t").unwrap();
                    selects += 1;
                }
                2 => {
                    c.query(&format!("SELECT a, b FROM t WHERE a > {} ORDER BY a", lit % 4))
                        .unwrap();
                    selects += 1;
                }
                3 => {
                    c.execute(&format!("INSERT INTO t VALUES ({lit}, 'w')")).unwrap();
                }
                _ => {
                    // EXPLAIN and system-table reads must NOT appear in
                    // stl_query (matching the real STL semantics).
                    c.query("EXPLAIN SELECT COUNT(*) FROM t").unwrap();
                    c.query("SELECT * FROM stl_query").unwrap();
                }
            }
        }

        let sink = c.trace();
        // 1. Every span opened was closed.
        assert_eq!(sink.open_spans(), 0, "leaked spans");

        let records = sink.snapshot();
        let by_id: std::collections::BTreeMap<u64, &redshift_sim::obs::SpanRecord> =
            records.iter().map(|r| (r.id, r)).collect();
        for r in &records {
            if r.parent != 0 {
                // 2. Parents are present and children nest inside them.
                let p = by_id
                    .get(&r.parent)
                    .unwrap_or_else(|| panic!("span {} ({}) has missing parent", r.id, r.name));
                assert!(
                    r.dur_ns <= p.dur_ns,
                    "child {} ({} ns) outlives parent {} ({} ns)",
                    r.name,
                    r.dur_ns,
                    p.name,
                    p.dur_ns
                );
                assert!(
                    r.start_ns >= p.start_ns,
                    "child {} starts before parent {}",
                    r.name,
                    p.name
                );
            }
        }

        // 3. stl_query has one row per user SELECT issued — EXPLAIN and
        // system-table reads excluded.
        let stl = c.query("SELECT COUNT(*) FROM stl_query").unwrap();
        assert_eq!(stl.rows[0].get(0).as_i64(), Some(selects as i64));

        // 4. The default retention config never truncates: every record
        // the ring evicted was absorbed by the spill, none dropped.
        assert_eq!(
            sink.counter_value("trace.records_dropped"),
            0,
            "trace ring dropped records under the default config"
        );
    });
}

// ---------------------------------------------------------------------
// WLM admission invariants under concurrent mixed load (archetype
// headline). A randomized mix of short SELECTs, heavy self-joins and
// COPYs is fired from `testkit::par` threads at a 2-queue + SQA config;
// the controller must keep exact books.
// ---------------------------------------------------------------------

/// Per-thread statement scripts: each inner step is (kind, literal).
/// kind 0 = short SELECT, 1 = heavy join, 2 = COPY (bypasses WLM — only
/// SELECTs are admission-controlled).
fn arb_wlm_workload() -> Gen<Vec<Vec<(usize, i64)>>> {
    prop::vec_of(
        prop::vec_of(prop::pair(prop::range(0usize..3), prop::range(0i64..1_000)), 1..8),
        2..5,
    )
}

#[test]
fn wlm_admission_invariants() {
    use redshift_sim::core::{WlmConfig, WlmQueueDef};
    use redshift_sim::testkit::par;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    let cfg = Config::with_cases(64).regressions_file(regressions());
    prop::check("wlm_admission_invariants", &cfg, &arb_wlm_workload(), |threads| {
        let wlm = WlmConfig::with_queues(vec![
            WlmQueueDef::new("short", 2).max_cost(500).max_wait(Duration::from_secs(20)),
            WlmQueueDef::new("long", 2).max_wait(Duration::from_secs(20)),
        ])
        .sqa(500, 1);
        let c = Cluster::launch(
            ClusterConfig::new("wlm-prop").nodes(2).slices_per_node(2).wlm(wlm),
        )
        .unwrap();
        c.execute("CREATE TABLE small (a BIGINT)").unwrap();
        c.execute("INSERT INTO small VALUES (1), (2), (3)").unwrap();
        c.execute("CREATE TABLE big (k BIGINT, v BIGINT) DISTKEY(k)").unwrap();
        let mut csv = String::new();
        for i in 0..400 {
            csv.push_str(&format!("{},{}\n", i % 40, i));
        }
        c.put_s3_object("w/1", csv.into_bytes());
        c.execute("COPY big FROM 's3://w/'").unwrap();

        // Sequential warm-up: with every slot free, queue_wait must be 0.
        let r = c.query("SELECT COUNT(*) FROM small").unwrap();
        assert_eq!(r.metrics.queue_wait_ns, 0, "free slots ⇒ zero queue wait");
        let warmup_selects = 1u64;

        // Concurrent phase: each generated script runs on its own thread.
        let issued = AtomicU64::new(warmup_selects);
        let results: Vec<Result<(), String>> = par::map(threads.clone(), |script| {
            // One pair of sessions per thread (like two client
            // connections). Result cache off: the invariants below do
            // exact WLM accounting per issued SELECT, and a cache hit
            // legitimately skips admission.
            let dash = c
                .connect(SessionOpts::new("dash").result_cache(false))
                .map_err(|e| e.to_string())?;
            let etl = c
                .connect(SessionOpts::new("etl").user_group("etl_users").result_cache(false))
                .map_err(|e| e.to_string())?;
            for (kind, lit) in script {
                let res = match kind {
                    0 => {
                        issued.fetch_add(1, Ordering::Relaxed);
                        dash.query(&format!("SELECT COUNT(*) FROM small WHERE a <> {lit}"))
                            .map(|_| ())
                    }
                    1 => {
                        issued.fetch_add(1, Ordering::Relaxed);
                        etl.query(&format!(
                            "SELECT a.k, COUNT(*) AS n FROM big a JOIN big b ON a.k = b.k \
                             WHERE a.v <> {lit} GROUP BY a.k ORDER BY n DESC LIMIT 5"
                        ))
                        .map(|_| ())
                    }
                    _ => {
                        // COPY takes the write path: not WLM-controlled.
                        // Concurrent COPYs into one table resolve first-
                        // committer-wins; losers get a retryable
                        // serializable conflict and retry like a client.
                        let key = format!("w/extra-{lit}");
                        c.put_s3_object(&key, format!("{lit},{lit}\n").into_bytes());
                        loop {
                            match c.execute(&format!("COPY big FROM 's3://{key}'")) {
                                Err(e) if e.is_retryable() => std::thread::yield_now(),
                                r => break r.map(|_| ()),
                            }
                        }
                    }
                };
                // Generous waits + bounded load: nothing may fail here.
                if let Err(e) = res {
                    return Err(format!("statement failed: {e}"));
                }
            }
            Ok(())
        });
        for r in results {
            r.unwrap();
        }
        let issued = issued.load(Ordering::Relaxed);

        // Invariant: exact accounting — one stl_wlm_query row per SELECT
        // issued, all Completed (no eviction under generous timeouts),
        // never double-admitted (counter equality).
        let rows = c.query("SELECT COUNT(*) FROM stl_wlm_query").unwrap();
        assert_eq!(rows.rows[0].get(0).as_i64(), Some(issued as i64), "no query lost");
        let done = c
            .query("SELECT COUNT(*) FROM stl_wlm_query WHERE state = 'Completed'")
            .unwrap();
        assert_eq!(done.rows[0].get(0).as_i64(), Some(issued as i64));
        assert_eq!(c.trace().counter_value("wlm.admitted"), issued, "admitted once each");
        assert_eq!(c.trace().counter_value("wlm.completed"), issued);

        // Invariant: at quiesce nothing holds a slot, nobody queues, and
        // per-class in-flight never exceeded slots (the live view is the
        // same code path the monitor samples mid-run).
        for sc in c.wlm().service_class_states() {
            assert_eq!(sc.in_flight, 0, "{}: slot leaked", sc.name);
            assert_eq!(sc.queued, 0, "{}: waiter leaked", sc.name);
            assert!(sc.in_flight <= sc.slots);
            assert_eq!(sc.evicted, 0, "{}: spurious eviction", sc.name);
            assert_eq!(sc.rejected, 0, "{}: spurious rejection", sc.name);
        }
        let stv = c
            .query(
                "SELECT service_class, in_flight, queued FROM stv_wlm_service_class_state \
                 ORDER BY service_class",
            )
            .unwrap();
        assert_eq!(stv.rows.len(), 3, "short + long + sqa lanes visible");

        // Invariant: whenever a query reports zero wait it was admitted
        // straight to a slot; sum of waits matches the per-class books.
        let waits = c
            .query("SELECT COUNT(*) FROM stl_wlm_query WHERE queue_wait_us > 0")
            .unwrap();
        let waited = waits.rows[0].get(0).as_i64().unwrap() as u64;
        assert_eq!(c.trace().counter_value("wlm.queued_admits") >= waited, true);
    });
}

// ---------------------------------------------------------------------
// Elastic resize as a property (ported from examples/elastic_resize.rs):
// random topologies before/after, concurrent readers during the resize,
// WLM drains in-flight queries first, and no row is lost.
// ---------------------------------------------------------------------

fn arb_resize_case() -> Gen<((u32, u32, u32, u32), Vec<i64>)> {
    prop::pair(
        prop::tuple4(
            prop::range(1u32..4),  // nodes before
            prop::range(1u32..3),  // slices before
            prop::range(1u32..5),  // nodes after
            prop::range(1u32..3),  // slices after
        ),
        prop::vec_of(prop::range(0i64..10_000), 1..200),
    )
}

#[test]
fn wlm_resize_preserves_data_and_drains() {
    let cfg = Config::with_cases(64).regressions_file(regressions());
    prop::check(
        "wlm_resize_preserves_data_and_drains",
        &cfg,
        &arb_resize_case(),
        |((n0, s0, n1, s1), keys)| {
            let c = Cluster::launch(
                ClusterConfig::new("rz-prop")
                    .nodes(*n0)
                    .slices_per_node(*s0)
                    .rows_per_group(32),
            )
            .unwrap();
            c.execute("CREATE TABLE ev (k BIGINT) DISTKEY(k)").unwrap();
            let mut csv = String::new();
            for k in keys {
                csv.push_str(&format!("{k}\n"));
            }
            c.put_s3_object("rz/1", csv.into_bytes());
            c.execute("COPY ev FROM 's3://rz/'").unwrap();
            let q = "SELECT COUNT(*), SUM(k) FROM ev";
            let before = c.query(q).unwrap().rows;

            // A reader hammers the source while the resize runs. Every
            // result is either correct rows or a clean STATE error from
            // the WLM drain / decommission — never a panic or bad data.
            let (target, reader_results) = {
                let c2 = Arc::clone(&c);
                let reader = std::thread::spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..40 {
                        out.push(c2.query("SELECT COUNT(*) FROM ev").map(|r| r.rows));
                        std::thread::yield_now();
                    }
                    out
                });
                let target = c.resize(*n1, *s1).unwrap();
                (target, reader.join().unwrap())
            };
            let expect_n = before[0].get(0).clone();
            for r in reader_results {
                match r {
                    Ok(rows) => assert_eq!(rows[0].get(0), &expect_n, "reader saw torn data"),
                    Err(e) => assert_eq!(e.code(), "STATE", "unexpected error class: {e}"),
                }
            }

            // WLM drained: the source rejects, queue books are clean.
            assert!(c.query(q).is_err(), "source decommissioned");
            assert!(c.wlm().is_draining());
            for sc in c.wlm().service_class_states() {
                assert_eq!(sc.in_flight, 0, "drain left a query in flight");
                assert_eq!(sc.queued, 0);
            }

            // Data survived the topology change bit-for-bit.
            assert_eq!(target.query(q).unwrap().rows, before);
            assert_eq!(target.topology().total_slices(), n1 * s1);
            // The target accepts new work immediately.
            target.execute("INSERT INTO ev VALUES (424242)").unwrap();
        },
    );
}

// ---------------------------------------------------------------------
// DR failover as a property (ported from examples/disaster_recovery.rs):
// random data + failure point; the primary drains via WLM-led shutdown,
// the standby region restores losslessly with streaming hydration.
// ---------------------------------------------------------------------

fn arb_dr_case() -> Gen<(Vec<(i64, i64)>, usize, bool)> {
    prop::triple(
        prop::vec_of(prop::pair(prop::range(0i64..5_000), prop::range(0i64..100)), 1..150),
        prop::range(0usize..3), // failure point: when hydration gets driven
        prop::any_bool(),       // encrypted?
    )
}

#[test]
fn wlm_dr_failover_preserves_data() {
    let cfg = Config::with_cases(64).regressions_file(regressions());
    prop::check(
        "wlm_dr_failover_preserves_data",
        &cfg,
        &arb_dr_case(),
        |(rows, failure_point, encrypted)| {
            let c = Cluster::launch(
                ClusterConfig::new("dr-prop")
                    .nodes(2)
                    .slices_per_node(1)
                    .rows_per_group(16)
                    .dr_region("eu-west-1")
                    .encrypted(*encrypted),
            )
            .unwrap();
            c.execute("CREATE TABLE acct (id BIGINT, bal BIGINT) DISTKEY(id)").unwrap();
            let mut csv = String::new();
            for (id, bal) in rows {
                csv.push_str(&format!("{id},{bal}\n"));
            }
            c.put_s3_object("a/1", csv.into_bytes());
            c.execute("COPY acct FROM 's3://a/'").unwrap();
            let q = "SELECT COUNT(*), SUM(bal) FROM acct";
            let before = c.query(q).unwrap().rows;
            use redshift_sim::replication::SnapshotKind;
            c.create_snapshot("friday", SnapshotKind::User).unwrap();

            // Region failure drill: drain in-flight queries, then the
            // primary goes dark. A racing reader sees either good rows
            // or a clean STATE error — shutdown never tears a result.
            let c2 = Arc::clone(&c);
            let reader = std::thread::spawn(move || {
                let mut out = Vec::new();
                for _ in 0..20 {
                    out.push(c2.query("SELECT COUNT(*) FROM acct").map(|r| r.rows));
                }
                out
            });
            c.shutdown();
            for r in reader.join().unwrap() {
                match r {
                    Ok(got) => assert_eq!(got[0].get(0), before[0].get(0)),
                    Err(e) => assert_eq!(e.code(), "STATE", "unexpected error class: {e}"),
                }
            }
            assert!(c.query(q).is_err(), "primary is decommissioned after shutdown");
            for sc in c.wlm().service_class_states() {
                assert_eq!(sc.in_flight, 0, "shutdown left a query in flight");
            }

            // Failover: restore in the standby region from the DR copy.
            let hsm = c.hsm().map(Arc::clone);
            let standby = Cluster::restore_from_snapshot(
                ClusterConfig::new("dr-prop").nodes(2).slices_per_node(1).region("eu-west-1"),
                Arc::clone(c.s3()),
                "eu-west-1",
                "dr-prop",
                "friday",
                hsm,
            )
            .unwrap();
            // Random failure point: query immediately (pure page-fault
            // serving), mid-hydration, or after full hydration.
            match failure_point {
                0 => {}
                1 => {
                    standby.hydrate_step(8).unwrap();
                }
                _ => while standby.hydrate_step(64).unwrap() > 0 {},
            }
            assert_eq!(standby.query(q).unwrap().rows, before, "failover lost data");
        },
    );
}

// ---------------------------------------------------------------------
// Chaos property: randomized COPY / SELECT / kill / revive / backup /
// restore schedules run under randomized *transient* failpoint
// configurations — with the write seams (`mirror.write.*`, `s3.put`)
// armed: COPY is transactional (slice-level snapshot, install-or-
// rollback), so a load that fails mid-write is observationally
// invisible and exactness tracking survives write faults. Invariants:
//   1. every operation returns exact results or a typed retryable error
//      — never wrong data, never an unclassified failure, never a hang;
//   2. a failed COPY leaves the pre-COPY state byte-identical: same
//      SELECT results, same `rows_estimate`, same `loads_since_analyze`,
//      same `copy.rows_loaded` counter;
//   3. once faults clear, the cluster heals in place: redundancy is
//      restorable and the final count is exact;
//   4. the telemetry sink stays structurally consistent (no span leaks).
// Replay any case with `RSIM_SEED` via the registry reseed printed by
// the harness on failure.
// ---------------------------------------------------------------------

/// (fault configs, op schedule, registry seed).
/// Fault config = (failpoint idx, class idx, probability idx).
fn arb_chaos_case() -> Gen<(Vec<(usize, usize, usize)>, Vec<(usize, i64)>, u64)> {
    prop::triple(
        prop::vec_of(
            prop::triple(
                prop::range(0usize..9),
                prop::range(0usize..2),
                prop::range(0usize..3),
            ),
            1..4,
        ),
        prop::vec_of(prop::pair(prop::range(0usize..6), prop::range(0i64..10_000)), 5..30),
        prop::range(0u64..1_000_000),
    )
}

#[test]
fn chaos_schedule_upholds_exactness_and_liveness() {
    use redshift_sim::common::{RetryPolicy, RsError};
    use redshift_sim::faultkit::{fp, ErrClass, FaultSpec};
    use std::time::{Duration, Instant};

    // Transient chaos over every seam, write seams included: since COPY
    // is transactional (rollback on partial write failure), a load that
    // dies on `mirror.write.*` or a seal error is rolled back block-for-
    // block and the exactness bookkeeping below stays truthful.
    const FPS: [&str; 9] = [
        fp::S3_GET,
        fp::COPY_FETCH_OBJECT,
        fp::MIRROR_BACKUP_DRAIN,
        fp::S3_COPY_OBJECT,
        fp::MIRROR_RE_REPLICATE,
        fp::RESTORE_PAGE_FAULT,
        fp::MIRROR_WRITE_PRIMARY,
        fp::MIRROR_WRITE_SECONDARY,
        fp::S3_PUT,
    ];
    const CLASSES: [ErrClass; 2] = [ErrClass::Throttle, ErrClass::Repl];
    const PROBS: [f64; 3] = [0.05, 0.15, 0.25];
    /// Every error escaping a chaos schedule must carry a retryable class.
    fn assert_retryable(ctx: &str, e: &RsError) {
        assert!(e.is_retryable(), "{ctx}: non-retryable error under transient chaos: {e}");
    }

    let cfg = Config::with_cases(24).regressions_file(regressions());
    prop::check("chaos_schedule", &cfg, &arb_chaos_case(), |(faults, schedule, seed)| {
        let t0 = Instant::now();
        let retry = RetryPolicy::default()
            .with_delays(Duration::from_micros(50), Duration::from_millis(1))
            .with_deadline(Duration::from_secs(2));
        let c = Cluster::launch(
            ClusterConfig::new("chaos")
                .nodes(3)
                .slices_per_node(1)
                .rows_per_group(32)
                .dr_region("eu-west-1")
                .retry(retry)
                .seed(*seed),
        )
        .unwrap();
        c.execute("CREATE TABLE ev (k BIGINT) DISTKEY(k)").unwrap();
        let store = Arc::clone(c.replicated_store().unwrap());

        // Arm the randomized failpoint configuration, seeded for replay.
        for &(f, cl, p) in faults {
            c.faults().configure(FPS[f], FaultSpec::err(CLASSES[cl]).prob(PROBS[p]));
        }
        c.faults().reseed(*seed);

        let mut expected = 0i64;
        let mut dead: Option<redshift_sim::distribution::NodeId> = None;
        for (step, &(kind, lit)) in schedule.iter().enumerate() {
            match kind {
                // COPY one object (only with full redundancy, so a fetch
                // failure provably appends nothing).
                0 if dead.is_none() => {
                    let rows = 1 + lit % 50;
                    let mut csv = String::new();
                    for i in 0..rows {
                        csv.push_str(&format!("{i}\n"));
                    }
                    c.put_s3_object(&format!("chaos/{step}/obj"), csv.into_bytes());
                    let pre_estimate = c.rows_estimate("ev");
                    let pre_loads = c.loads_since_analyze("ev");
                    let pre_counter = c.trace().counter("copy.rows_loaded").get();
                    match c.execute(&format!("COPY ev FROM 's3://chaos/{step}/'")) {
                        Ok(s) => {
                            assert_eq!(s.rows_affected, rows as u64);
                            expected += rows;
                        }
                        Err(e) => {
                            assert_retryable("copy", &e);
                            // Atomic COPY: the failed load is
                            // observationally invisible — catalog
                            // counters and telemetry are byte-identical
                            // to the pre-COPY snapshot, and any
                            // readable SELECT sees the old count.
                            assert_eq!(
                                c.rows_estimate("ev"),
                                pre_estimate,
                                "failed COPY leaked into rows_estimate"
                            );
                            assert_eq!(
                                c.loads_since_analyze("ev"),
                                pre_loads,
                                "failed COPY leaked into loads_since_analyze"
                            );
                            assert_eq!(
                                c.trace().counter("copy.rows_loaded").get(),
                                pre_counter,
                                "failed COPY bumped copy.rows_loaded"
                            );
                            match c.query("SELECT COUNT(*) FROM ev") {
                                Ok(r) => assert_eq!(
                                    r.rows[0].get(0).as_i64(),
                                    Some(expected),
                                    "failed COPY left rows behind"
                                ),
                                Err(e) => assert_retryable("post-copy select", &e),
                            }
                        }
                    }
                }
                // SELECT: exact or typed-retryable (retry exhaustion).
                0 | 1 => match c.query("SELECT COUNT(*) FROM ev") {
                    Ok(r) => assert_eq!(
                        r.rows[0].get(0).as_i64(),
                        Some(expected),
                        "torn read under chaos"
                    ),
                    Err(e) => assert_retryable("select", &e),
                },
                // Kill one node (at most one dead at a time: synchronous
                // primary+secondary replication tolerates one failure).
                2 if dead.is_none() => {
                    let n = redshift_sim::distribution::NodeId((lit % 3) as u32);
                    assert!(store.kill_node(n), "kill of a live node must report true");
                    dead = Some(n);
                }
                // Revive + re-replicate (idempotency is covered by the
                // mirror unit tests; here revive must report true once).
                2 | 3 => {
                    if let Some(n) = dead.take() {
                        assert!(store.revive_node(n), "revive of a dead node must report true");
                        if let Err(e) = store.re_replicate(n) {
                            assert_retryable("re_replicate", &e);
                        }
                    }
                }
                // Drain the continuous-backup queue (requeues on failure).
                4 => {
                    if let Err(e) = store.drain_backup_queue() {
                        assert_retryable("backup_drain", &e);
                    }
                }
                // Snapshot + streaming restore against the same flaky S3.
                _ => {
                    use redshift_sim::replication::SnapshotKind;
                    match c.create_snapshot(&format!("s{step}"), SnapshotKind::User) {
                        Err(e) => assert_retryable("snapshot", &e),
                        Ok(_) => {
                            let restored = Cluster::restore_from_snapshot(
                                ClusterConfig::new(format!("chaos-r{step}"))
                                    .nodes(3)
                                    .slices_per_node(1)
                                    .retry(retry)
                                    .seed(*seed),
                                Arc::clone(c.s3()),
                                "us-east-1",
                                "chaos",
                                &format!("s{step}"),
                                None,
                            );
                            match restored {
                                Err(e) => assert_retryable("restore.open", &e),
                                Ok(r) => match r.query("SELECT COUNT(*) FROM ev") {
                                    Ok(rows) => assert_eq!(
                                        rows.rows[0].get(0).as_i64(),
                                        Some(expected),
                                        "restore served wrong data under chaos"
                                    ),
                                    Err(e) => assert_retryable("restore.query", &e),
                                },
                            }
                        }
                    }
                }
            }
        }

        // Faults clear → the cluster heals in place and books are exact.
        c.faults().clear_all();
        if let Some(n) = dead.take() {
            assert!(store.revive_node(n));
            store.re_replicate(n).unwrap();
        }
        while store.backup_backlog() > 0 {
            store.drain_backup_queue().unwrap();
        }
        let n = c.query("SELECT COUNT(*) FROM ev").unwrap().rows[0].get(0).as_i64();
        assert_eq!(n, Some(expected), "final count drifted");
        // Injections are auditable with plain SQL, and nothing leaked.
        let ev = c.query("SELECT COUNT(*) FROM stl_fault_event").unwrap().rows[0]
            .get(0)
            .as_i64()
            .unwrap();
        assert_eq!(ev, c.faults().events().len() as i64);
        assert_eq!(c.trace().open_spans(), 0, "chaos leaked spans");
        assert!(t0.elapsed() < Duration::from_secs(20), "chaos case hung: {:?}", t0.elapsed());
    });
}

// ---------------------------------------------------------------------
// Sessions + leader result cache: randomized multi-session schedules.
// ---------------------------------------------------------------------

/// A schedule of `(op, slot, literal)` steps over four session slots,
/// plus a seed. Ops: connect / abrupt-disconnect / query / INSERT /
/// failed COPY / committed COPY.
fn arb_session_case() -> Gen<(Vec<(usize, usize, i64)>, u64)> {
    prop::pair(
        prop::vec_of(
            prop::triple(prop::range(0usize..6), prop::range(0usize..4), prop::range(0i64..1000)),
            8..40,
        ),
        prop::range(0u64..1_000_000),
    )
}

#[test]
fn session_schedule_cache_and_leak_invariants() {
    use redshift_sim::core::Session;
    use redshift_sim::faultkit::{fp, ErrClass, FaultSpec};

    const QUERIES: [&str; 3] = [
        "SELECT COUNT(*) FROM t",
        "SELECT SUM(k) FROM t",
        "SELECT k FROM t ORDER BY k LIMIT 5",
    ];

    let cfg = Config::with_cases(16).regressions_file(regressions());
    prop::check("session_schedule", &cfg, &arb_session_case(), |(schedule, seed)| {
        let c = Cluster::launch(
            ClusterConfig::new("sessprop").nodes(2).slices_per_node(2).seed(*seed),
        )
        .unwrap();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let mut slots: [Option<Session>; 4] = [None, None, None, None];
        let groups = [None, Some("etl_users"), None, Some("dash")];
        let connect = |i: usize| {
            let mut opts = SessionOpts::new(format!("u{i}"));
            if let Some(g) = groups[i] {
                opts = opts.user_group(g);
            }
            c.connect(opts).unwrap()
        };
        for (step, &(op, slot, lit)) in schedule.iter().enumerate() {
            match op {
                // (Re)connect the slot; reconnects reuse the userid.
                0 => slots[slot] = Some(connect(slot)),
                // Abrupt disconnect: drop with no goodbye mid-schedule.
                1 => slots[slot] = None,
                // Query — hit or miss, rows must be bit-identical to a
                // cold execution of the same text (the sessionless API
                // never touches the result cache).
                2 | 3 => {
                    let s = slots[slot].get_or_insert_with(|| connect(slot));
                    let sql = QUERIES[(lit as usize) % QUERIES.len()];
                    let warm = s.query(sql).unwrap();
                    let cold = c.query(sql).unwrap();
                    assert!(!cold.result_cache_hit);
                    assert_eq!(
                        warm.rows, cold.rows,
                        "cached rows diverged from cold execution for {sql:?}"
                    );
                    assert_eq!(warm.columns, cold.columns);
                }
                // Committed INSERT through a session: must invalidate —
                // verified implicitly by the cold-comparison above.
                4 => {
                    let s = slots[slot].get_or_insert_with(|| connect(slot));
                    s.execute(&format!("INSERT INTO t VALUES ({lit})")).unwrap();
                }
                // A COPY that dies mid-transaction: rolled back, and the
                // catalog version (the cache's invalidation clock) must
                // not move — previously cached results stay servable.
                _ => {
                    let s = slots[slot].get_or_insert_with(|| connect(slot));
                    c.put_s3_object(&format!("sess/{step}/obj"), format!("{lit}\n").into_bytes());
                    let v_before = c.catalog_version();
                    c.faults()
                        .configure(fp::COPY_FETCH_OBJECT, FaultSpec::err(ErrClass::NotFound).once());
                    let count_before = c.query("SELECT COUNT(*) FROM t").unwrap();
                    assert!(s.execute(&format!("COPY t FROM 's3://sess/{step}/'")).is_err());
                    assert_eq!(
                        c.catalog_version(),
                        v_before,
                        "rolled-back COPY bumped the catalog version"
                    );
                    let count_after = c.query("SELECT COUNT(*) FROM t").unwrap();
                    assert_eq!(count_before.rows, count_after.rows, "failed COPY left rows");
                    // The same COPY committed does move the clock.
                    s.execute(&format!("COPY t FROM 's3://sess/{step}/'")).unwrap();
                    assert!(c.catalog_version() > v_before);
                }
            }
        }
        // Every exit path unregisters: dropping the remaining handles
        // leaves no live sessions, no gauge residue, no open spans.
        slots.iter_mut().for_each(|s| *s = None);
        assert_eq!(c.session_manager().active_count(), 0, "session leak");
        assert_eq!(c.trace().gauge_value("sessions.active"), 0);
        assert_eq!(c.trace().open_spans(), 0, "session schedule leaked spans");
        // Hit/miss accounting is coherent: every probe is one or the other.
        let (hits, misses) = c.result_cache_stats();
        assert_eq!(
            hits + misses,
            c.trace().counter_value("result_cache.hits")
                + c.trace().counter_value("result_cache.misses"),
            "cache counters diverged from telemetry"
        );
    });
}

#[test]
fn session_wire_disconnect_never_leaks() {
    use redshift_sim::frontdoor::{FrontDoor, ServerOpts, WireClient};

    // Randomized mix of polite and abrupt wire disconnects, some with a
    // statement in flight; afterwards the server must be fully clean.
    let gen = prop::vec_of(prop::range(0usize..3), 2..10);
    let cfg = Config::with_cases(8).regressions_file(regressions());
    prop::check("session_wire_disconnect", &cfg, &gen, |plan| {
        let c = Cluster::launch(ClusterConfig::new("wiredrop").nodes(2).slices_per_node(2))
            .unwrap();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let door = FrontDoor::serve(Arc::clone(&c), ServerOpts::default()).unwrap();
        for &kind in plan {
            let mut client = WireClient::connect(door.addr(), "w", None).unwrap();
            match kind {
                0 => {
                    client.query("SELECT COUNT(*) FROM t").unwrap();
                    client.bye().unwrap();
                }
                1 => drop(client), // abrupt, idle
                _ => {
                    client.query("SELECT SUM(k) FROM t").unwrap();
                    drop(client); // abrupt, right after a statement
                }
            }
        }
        assert!(door.drain(), "drain timed out");
        assert_eq!(c.session_manager().active_count(), 0, "wire session leak");
        assert_eq!(c.trace().gauge_value("sessions.active"), 0);
        assert_eq!(c.trace().gauge_value("frontdoor.connections"), 0);
        assert_eq!(c.trace().open_spans(), 0, "wire handler leaked spans");
    });
}

// ---------------------------------------------------------------------
// Query-monitoring rules (QMR) + per-step profiler invariants (PR 7).
// ---------------------------------------------------------------------

#[test]
fn qmr_abort_never_fires_on_explain_or_system_reads() {
    use redshift_sim::core::{QmrAction, QmrMetric, WlmConfig, WlmQueueDef};

    // A poison rule: any admitted SELECT that scans a single row is
    // aborted. Diagnostics (EXPLAIN, EXPLAIN ANALYZE) and system-table
    // reads bypass WLM admission entirely, so no random mix of them may
    // ever trip it.
    let gen = prop::vec_of(prop::range(0usize..3), 1..12);
    let cfg = Config::with_cases(8).regressions_file(regressions());
    prop::check("qmr_abort_explain_exempt", &cfg, &gen, |plan| {
        let wlm = WlmConfig::with_queues(vec![WlmQueueDef::new("strict", 4).rule(
            "no_scans",
            QmrMetric::RowsScanned,
            0,
            QmrAction::Abort,
        )]);
        let c = Cluster::launch(
            ClusterConfig::new("qmr-exempt").nodes(2).slices_per_node(2).wlm(wlm),
        )
        .unwrap();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        for &kind in plan {
            match kind {
                0 => {
                    c.query("EXPLAIN SELECT COUNT(*) FROM t").unwrap();
                }
                1 => {
                    // Executes for real (and scans rows), yet holds no
                    // service-class slot — rules cannot see it.
                    c.query("EXPLAIN ANALYZE SELECT COUNT(*) FROM t").unwrap();
                }
                _ => {
                    c.query("SELECT COUNT(*) FROM stl_wlm_rule_action").unwrap();
                }
            }
        }
        assert!(
            c.trace().records_named("wlm_rule_action").is_empty(),
            "a rule fired on a diagnostic statement"
        );
        // The same query executed for real is killed by the rule …
        let err = c.query("SELECT COUNT(*) FROM t").unwrap_err();
        assert!(err.to_string().contains("monitoring rule"), "unexpected error: {err}");
        let fired = c.query("SELECT rule, action FROM stl_wlm_rule_action").unwrap();
        assert_eq!(fired.rows.len(), 1, "exactly the real SELECT fired");
        assert_eq!(fired.rows[0].get(0).as_str(), Some("no_scans"));
        assert_eq!(fired.rows[0].get(1).as_str(), Some("abort"));
        // … and the abort released its slot and leaked nothing.
        for sc in c.wlm().service_class_states() {
            assert_eq!(sc.in_flight, 0, "{}: aborted query still holds a slot", sc.name);
        }
        assert_eq!(c.trace().open_spans(), 0, "abort path leaked spans");
    });
}

#[test]
fn qmr_rule_hop_and_timeout_hop_both_count_in_stl_hops() {
    use redshift_sim::core::{QmrAction, QmrMetric, WlmConfig, WlmQueueDef};
    use std::time::Duration;

    let wlm = WlmConfig::with_queues(vec![
        WlmQueueDef::new("narrow", 1).max_wait(Duration::from_millis(5)).rule(
            "big_scan",
            QmrMetric::RowsScanned,
            100,
            QmrAction::Hop,
        ),
        WlmQueueDef::new("wide", 2),
    ]);
    let c = Cluster::launch(
        ClusterConfig::new("qmr-hops").nodes(2).slices_per_node(2).wlm(wlm),
    )
    .unwrap();
    c.execute("CREATE TABLE big (k BIGINT)").unwrap();
    let values = (0..400).map(|i| format!("({i})")).collect::<Vec<_>>().join(", ");
    c.execute(&format!("INSERT INTO big VALUES {values}")).unwrap();

    // 1. Rule hop: a scan-heavy query admitted to `narrow` trips the
    // rows_scanned rule at slice-merge and finishes in `wide`, with the
    // firing logged in stl_wlm_rule_action.
    let r = c.query("SELECT COUNT(*) FROM big").unwrap();
    assert_eq!(r.rows[0].get(0).as_i64(), Some(400));
    let wq = c.query("SELECT service_class, hops FROM stl_wlm_query").unwrap();
    assert_eq!(wq.rows.len(), 1);
    assert_eq!(wq.rows[0].get(0).as_str(), Some("wide"), "finished in the wider queue");
    assert_eq!(wq.rows[0].get(1).as_i64(), Some(1));
    let fired = c.query("SELECT rule, action FROM stl_wlm_rule_action").unwrap();
    assert_eq!(fired.rows.len(), 1);
    assert_eq!(fired.rows[0].get(0).as_str(), Some("big_scan"));
    assert_eq!(fired.rows[0].get(1).as_str(), Some("hop"));

    // 2. Timeout hop: hold narrow's only slot, then admit again — the
    // waiter exhausts max_wait and hops to wide through the PR-5
    // machinery. Both hop kinds land in the same stl_wlm_query.hops.
    let hog = c.wlm().admit(1, None).unwrap();
    let hopped = c.wlm().admit(1, None).unwrap();
    assert_eq!(hopped.service_class(), "wide");
    drop(hopped);
    drop(hog);
    let both = c.query("SELECT COUNT(*) FROM stl_wlm_query WHERE hops = 1").unwrap();
    assert_eq!(
        both.rows[0].get(0).as_i64(),
        Some(2),
        "rule hop and timeout hop both counted in stl_wlm_query.hops"
    );
}

#[test]
fn qmr_rules_under_chaos_never_leak_spans_or_slots() {
    use redshift_sim::core::{QmrAction, QmrMetric, WlmConfig, WlmQueueDef};
    use redshift_sim::testkit::par;

    // Concurrent random mixes of completing, aborting and diagnostic
    // statements against a rules-armed config: afterwards the books
    // must balance exactly — no slot, waiter or span outlives its query.
    let gen = prop::vec_of(prop::vec_of(prop::range(0usize..4), 1..8), 2..5);
    let cfg = Config::with_cases(8).regressions_file(regressions());
    prop::check("qmr_chaos_no_leaks", &cfg, &gen, |threads| {
        let wlm = WlmConfig::with_queues(vec![
            WlmQueueDef::new("watched", 2)
                .rule("log_all", QmrMetric::QueryExecTime, 0, QmrAction::Log)
                .rule("kill_big", QmrMetric::RowsScanned, 100, QmrAction::Abort),
            WlmQueueDef::new("fallback", 2),
        ]);
        let c = Cluster::launch(
            ClusterConfig::new("qmr-chaos").nodes(2).slices_per_node(2).wlm(wlm),
        )
        .unwrap();
        c.execute("CREATE TABLE small (k BIGINT)").unwrap();
        c.execute("INSERT INTO small VALUES (1), (2), (3)").unwrap();
        c.execute("CREATE TABLE big (k BIGINT)").unwrap();
        let values = (0..300).map(|i| format!("({i})")).collect::<Vec<_>>().join(", ");
        c.execute(&format!("INSERT INTO big VALUES {values}")).unwrap();
        let results: Vec<Result<(), String>> = par::map(threads.clone(), |script| {
            for kind in script {
                match kind {
                    0 => {
                        c.query("SELECT COUNT(*) FROM small").map_err(|e| e.to_string())?;
                    }
                    1 => {
                        if c.query("SELECT COUNT(*) FROM big").is_ok() {
                            return Err("abort rule did not fire on the big scan".into());
                        }
                    }
                    2 => {
                        c.query("EXPLAIN ANALYZE SELECT SUM(k) FROM small")
                            .map_err(|e| e.to_string())?;
                    }
                    _ => {
                        c.query("SELECT COUNT(*) FROM stl_wlm_rule_action")
                            .map_err(|e| e.to_string())?;
                    }
                }
            }
            Ok(())
        });
        for r in results {
            r.unwrap();
        }
        assert_eq!(c.trace().open_spans(), 0, "rule evaluation leaked spans");
        for sc in c.wlm().service_class_states() {
            assert_eq!(sc.in_flight, 0, "{}: slot leaked", sc.name);
            assert_eq!(sc.queued, 0, "{}: waiter leaked", sc.name);
        }
        assert_eq!(
            c.trace().counter_value("wlm.admitted"),
            c.trace().counter_value("wlm.completed")
                + c.trace().counter_value("wlm.aborted"),
            "every admission either completed or aborted"
        );
    });
}

#[test]
fn profile_report_rows_equal_queries_times_slices_times_steps() {
    // Pinned workload over a 4-slice cluster: every executed query must
    // contribute exactly (plan steps × slices) svl_query_report rows,
    // where the step count is the query's own EXPLAIN line count.
    let c = Cluster::launch(
        ClusterConfig::new("profile-prop").nodes(2).slices_per_node(2),
    )
    .unwrap();
    c.execute("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap();
    c.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)").unwrap();
    let queries = [
        "SELECT COUNT(*) FROM t",
        "SELECT k FROM t WHERE v > 15 ORDER BY k LIMIT 2",
        "SELECT a.k, b.v FROM t a JOIN t b ON a.k = b.k",
    ];
    let slices = 4i64;
    let mut expected = 0i64;
    for (i, q) in queries.iter().enumerate() {
        let plan = c.query(&format!("EXPLAIN {q}")).unwrap();
        let steps = plan.rows.len() as i64;
        assert!(steps >= 1);
        c.query(q).unwrap();
        expected += steps * slices;
        // EXPLAIN allocates no query id, so executed queries are 1-based
        // and dense; per-query row count is its own steps × slices.
        let per = c
            .query(&format!("SELECT COUNT(*) FROM svl_query_report WHERE query = {}", i + 1))
            .unwrap();
        assert_eq!(per.rows[0].get(0).as_i64(), Some(steps * slices), "query {q:?}");
    }
    let got = c.query("SELECT COUNT(*) FROM svl_query_report").unwrap();
    assert_eq!(got.rows[0].get(0).as_i64(), Some(expected));

    // With profiling off the table stays empty (and queries still run).
    let off = Cluster::launch(
        ClusterConfig::new("profile-off").nodes(2).slices_per_node(2).query_profiling(false),
    )
    .unwrap();
    off.execute("CREATE TABLE t (k BIGINT)").unwrap();
    off.execute("INSERT INTO t VALUES (1)").unwrap();
    off.query("SELECT COUNT(*) FROM t").unwrap();
    let none = off.query("SELECT COUNT(*) FROM svl_query_report").unwrap();
    assert_eq!(none.rows[0].get(0).as_i64(), Some(0));
}

#[test]
fn profile_explain_analyze_annotates_three_table_join() {
    let c = Cluster::launch(ClusterConfig::new("ea-join").nodes(2).slices_per_node(2)).unwrap();
    c.execute("CREATE TABLE users (id BIGINT, name VARCHAR)").unwrap();
    c.execute("CREATE TABLE orders (id BIGINT, user_id BIGINT)").unwrap();
    c.execute("CREATE TABLE items (order_id BIGINT, sku BIGINT)").unwrap();
    c.execute("INSERT INTO users VALUES (1, 'a'), (2, 'b')").unwrap();
    c.execute("INSERT INTO orders VALUES (10, 1), (11, 2), (12, 1)").unwrap();
    c.execute("INSERT INTO items VALUES (10, 100), (11, 101), (12, 102), (12, 103)").unwrap();
    let sql = "SELECT u.name, COUNT(*) AS n FROM users u \
               JOIN orders o ON u.id = o.user_id \
               JOIN items i ON o.id = i.order_id GROUP BY u.name";
    let plain = c.query(&format!("EXPLAIN {sql}")).unwrap();
    let analyzed = c.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    assert_eq!(
        analyzed.rows.len(),
        plain.rows.len(),
        "one annotated line per plan operator"
    );
    for row in &analyzed.rows {
        let v = row.get(0);
        let line = v.as_str().unwrap();
        assert!(line.contains("(actual rows="), "unannotated operator line: {line}");
        assert!(line.contains("time="), "missing elapsed time: {line}");
    }
    // It executed for real (per-operator metrics flowed back) …
    assert!(analyzed.metrics.rows_scanned > 0, "EXPLAIN ANALYZE must execute");
    // … but like EXPLAIN it is a diagnostic: not an stl_query row.
    let logged = c.query("SELECT COUNT(*) FROM stl_query").unwrap();
    assert_eq!(logged.rows[0].get(0).as_i64(), Some(0), "EXPLAIN ANALYZE is not logged");
}

// ---------------------------------------------------------------------
// Workload synthesis + deterministic replay (crates/workload).
// ---------------------------------------------------------------------

#[test]
fn workload_schedule_determinism_and_replay_counts() {
    use redshift_sim::workload::{QueryClass, ReplayDriver, ReplayMode, Schedule, WorkloadConfig};
    prop::check(
        "workload_schedule_determinism_and_replay_counts",
        &Config::with_cases(6).regressions_file(regressions()),
        &prop::range(0u64..1_000_000),
        |seed| {
            let cfg = WorkloadConfig::quick(16).with_seed(*seed);
            // Same seed + config ⇒ byte-identical schedule; a different
            // seed must not collide.
            let a = Schedule::synthesize(&cfg);
            assert_eq!(a.to_bytes(), Schedule::synthesize(&cfg).to_bytes(), "same-seed bytes");
            assert_ne!(
                a.to_bytes(),
                Schedule::synthesize(&cfg.clone().with_seed(*seed ^ 0x5eed_0001)).to_bytes(),
                "different seed must produce a different schedule"
            );

            // Replaying the same schedule twice against fresh clusters:
            // identical per-class query counts and cache-hit totals
            // (virtual mode is sequential, hence end-to-end deterministic).
            let driver = ReplayDriver::new(cfg);
            let run = |name: &str| {
                let cl = driver.launch(name).unwrap();
                let rep = driver.run(&cl, ReplayMode::Virtual).unwrap();
                assert_eq!(rep.total_errors(), 0, "replay errors:\n{}", rep.summary());
                rep
            };
            let r1 = run("wl-det-a");
            let r2 = run("wl-det-b");
            for c in QueryClass::ALL {
                assert_eq!(r1.class(c).queries, r2.class(c).queries, "{c:?} query count");
                assert_eq!(r1.class(c).copies, r2.class(c).copies, "{c:?} copy count");
                assert_eq!(r1.class(c).cache_hits, r2.class(c).cache_hits, "{c:?} cache hits");
            }
            assert_eq!(r1.result_cache, r2.result_cache, "cluster-wide cache counters");
            // The replay executed exactly the schedule — no more, no less.
            for ((class, counts), stats) in
                driver.schedule().class_counts().iter().zip(&r1.per_class)
            {
                assert_eq!(*class, stats.class);
                assert_eq!(counts.queries, stats.queries, "{class:?} scheduled vs executed");
                assert_eq!(counts.copies, stats.copies, "{class:?} scheduled vs executed");
            }
        },
    );
}

#[test]
fn workload_wlm_qmr_replay_accounting_and_sqa_latency() {
    use redshift_sim::core::{QmrAction, QmrMetric};
    use redshift_sim::workload::{QueryClass, ReplayDriver, ReplayMode, WorkloadConfig};

    // A mixed diurnal fleet replayed with real concurrency. The SQA cost
    // ceiling is tightened so ETL self-joins route to their queue (where
    // a QMR rule watches them) while short dashboard panels stay
    // SQA-eligible. The rule pins a deterministic metric — rows scanned;
    // wall-time metrics would make firings nondeterministic — and only
    // logs, so the replay still runs clean.
    let mut cfg = WorkloadConfig::quick(24).with_seed(0xBEEF);
    cfg.sqa_max_cost = 6_000;
    let driver = ReplayDriver::new(cfg.clone());
    let mut wlm = cfg.wlm();
    wlm.queues[0] =
        wlm.queues[0].clone().rule("etl_big_scan", QmrMetric::RowsScanned, 1_000, QmrAction::Log);
    let cluster = Cluster::launch(cfg.cluster("wl-qmr").wlm(wlm)).unwrap();
    driver.prepare(&cluster).unwrap();
    let report =
        driver.run(&cluster, ReplayMode::Wall { workers: 6, time_scale: None }).unwrap();

    assert_eq!(report.total_errors(), 0, "replay errors:\n{}", report.summary());
    // The admission ledger balances: every admit reached exactly one
    // terminal state, and the generous queue waits mean none of them
    // were evictions or rejections.
    assert!(report.wlm.balanced(), "wlm ledger unbalanced: {:?}", report.wlm);
    assert_eq!(report.wlm.rejected, 0, "unexpected rejections: {:?}", report.wlm);
    assert_eq!(report.wlm.evicted, 0, "unexpected evictions: {:?}", report.wlm);
    assert!(report.wlm.sqa_admits > 0, "short queries should ride SQA: {:?}", report.wlm);
    // ETL transforms scan well past the 1k-row threshold: the rule fired.
    assert!(report.wlm.rule_actions > 0, "QMR rule never fired: {:?}", report.wlm);
    // No leaks: every span closed, every slot drained, every session gone.
    assert_eq!(cluster.trace().open_spans(), 0, "span leak");
    for s in cluster.wlm().service_class_states() {
        assert_eq!(s.in_flight, 0, "slot leak in {}", s.name);
        assert_eq!(s.queued, 0, "queue leak in {}", s.name);
    }
    assert_eq!(cluster.session_manager().active_count(), 0, "session leak");
    // The short-query path pays off end to end: dashboard p50 (repeat
    // panels, SQA-eligible) lands under the ETL class p50 (self-joins).
    // `<=` not `<`: quantiles come out of log-bucketed histograms
    // (≤12.5% error), so on a loaded single-core runner two distinct
    // true p50s can quantize into the same bucket and report equal.
    let dash = report.class(QueryClass::Dashboard).latency.quantile(0.5);
    let etl = report.class(QueryClass::Etl).latency.quantile(0.5);
    assert!(dash <= etl, "dashboard p50 {dash}ns should beat ETL p50 {etl}ns");
}

#[test]
fn workload_chaos_delay_rides_virtual_clock() {
    use redshift_sim::faultkit::{fp, FaultSpec};
    use redshift_sim::workload::{ReplayDriver, ReplayMode, WorkloadConfig};

    // Chaos stalls under virtual-time replay: every injected delay is
    // 30 wall-seconds' worth of stall, so if even one of them hit a real
    // sleep the test would blow far past its bound. Instead the replay
    // driver's delay hook advances the virtual clock and the run stays
    // wall-instant. (The faultkit unit test pins the tight <100ms bound
    // on the hook itself; this covers the integrated replay path.)
    let driver = ReplayDriver::new(WorkloadConfig::quick(8).with_seed(0xC0FFEE));
    let cluster = driver.launch("wl-chaos").unwrap();
    cluster.faults().reseed(1);
    cluster.faults().configure(fp::MIRROR_WRITE_PRIMARY, FaultSpec::delay_ms(30_000).times(40));
    let t0 = std::time::Instant::now();
    let report = driver.run(&cluster, ReplayMode::Virtual).unwrap();
    let wall = t0.elapsed();
    let injected = cluster.faults().injected_total();
    cluster.faults().clear_all();

    assert_eq!(report.total_errors(), 0, "replay errors:\n{}", report.summary());
    assert!(injected > 0, "the COPY cadence should hit the mirror-write seam");
    assert!(
        wall < std::time::Duration::from_secs(10),
        "{injected} x 30s injected stalls must ride the virtual clock, not wall \
         (replay took {wall:?})"
    );
    assert!(report.virtual_end.as_micros() > 0);
}

// ---------------------------------------------------------------------
// MVCC snapshots + first-committer-wins (multi-writer transactions).
// ---------------------------------------------------------------------

/// Per-thread statement scripts over one shared table. kind 0 = snapshot
/// COUNT, kind 1 = 3-row INSERT, kind 2 = 3-row COPY; the literal keys
/// the written values.
fn arb_mvcc_workload() -> Gen<Vec<Vec<(usize, i64)>>> {
    prop::vec_of(
        prop::vec_of(prop::pair(prop::range(0usize..3), prop::range(0i64..1_000)), 1..8),
        2..5,
    )
}

#[test]
fn mvcc_snapshot_reads_and_first_committer_wins() {
    use redshift_sim::common::RsError;
    use redshift_sim::testkit::par;
    use std::sync::atomic::{AtomicU64, Ordering};

    let cfg = Config::with_cases(24).regressions_file(regressions());
    prop::check(
        "mvcc_snapshot_reads_and_first_committer_wins",
        &cfg,
        &arb_mvcc_workload(),
        |threads| {
            let c = Cluster::launch(
                ClusterConfig::new("mvcc-prop").nodes(2).slices_per_node(2),
            )
            .unwrap();
            c.execute("CREATE TABLE m (k BIGINT, v BIGINT) DISTKEY(k)").unwrap();
            let committed = AtomicU64::new(0);
            let conflicts_seen = AtomicU64::new(0);
            let results: Vec<Result<(), String>> = par::map(threads.clone(), |script| {
                // One client connection per thread; the result cache is
                // off so every COUNT really snapshots the catalog.
                let s = c
                    .connect(SessionOpts::new("mvcc").result_cache(false))
                    .map_err(|e| e.to_string())?;
                let mut last = 0i64;
                for (kind, lit) in script {
                    match kind {
                        0 => {
                            let r =
                                s.query("SELECT COUNT(*) FROM m").map_err(|e| e.to_string())?;
                            let n = r.rows[0].get(0).as_i64().unwrap();
                            // Every committed write is exactly 3 rows: a
                            // snapshot read must never see a torn write …
                            if n % 3 != 0 {
                                return Err(format!("torn snapshot: {n} rows"));
                            }
                            // … and commits are monotonic, so one session's
                            // sequential reads never travel back in time.
                            if n < last {
                                return Err(format!("time travel: {n} after {last}"));
                            }
                            last = n;
                        }
                        kind => {
                            let stmt = if kind == 1 {
                                format!(
                                    "INSERT INTO m VALUES ({lit}, 1), ({lit}, 2), ({lit}, 3)"
                                )
                            } else {
                                // Trailing slash keeps prefixes disjoint:
                                // COPY 's3://mv/45/' must not also match
                                // a thread's 'mv/450/…' objects.
                                c.put_s3_object(
                                    &format!("mv/{lit}/data"),
                                    format!("{lit},1\n{lit},2\n{lit},3\n").into_bytes(),
                                );
                                format!("COPY m FROM 's3://mv/{lit}/'")
                            };
                            // First committer wins; the loser retries the
                            // statement, exactly as the error instructs.
                            loop {
                                match s.execute(&stmt) {
                                    Ok(_) => {
                                        committed.fetch_add(1, Ordering::Relaxed);
                                        break;
                                    }
                                    Err(RsError::Serializable(_)) => {
                                        conflicts_seen.fetch_add(1, Ordering::Relaxed);
                                        std::thread::yield_now();
                                    }
                                    Err(e) => return Err(e.to_string()),
                                }
                            }
                        }
                    }
                }
                Ok(())
            });
            for r in results {
                r.unwrap();
            }

            // Exactly-one-winner accounting: every conflict a client saw
            // is one txn.conflicts tick and one stl_tr_conflict row.
            let seen = conflicts_seen.load(Ordering::Relaxed);
            assert_eq!(c.trace().counter_value("txn.conflicts"), seen);
            let log = c.query("SELECT COUNT(*) FROM stl_tr_conflict").unwrap();
            assert_eq!(log.rows[0].get(0).as_i64(), Some(seen as i64));

            // All retried writes eventually committed; nothing was lost
            // or double-applied.
            let n = c.query("SELECT COUNT(*) FROM m").unwrap().rows[0]
                .get(0)
                .as_i64()
                .unwrap();
            assert_eq!(n as u64, committed.load(Ordering::Relaxed) * 3);
            assert_eq!(c.rows_estimate("m"), Some(n as u64));

            // Leak freedom at quiesce: spans closed, sessions gone, WLM
            // slots drained.
            assert_eq!(c.trace().open_spans(), 0, "span leak");
            assert_eq!(c.session_manager().active_count(), 0, "session leak");
            for sc in c.wlm().service_class_states() {
                assert_eq!(sc.in_flight, 0, "{}: slot leaked", sc.name);
                assert_eq!(sc.queued, 0, "{}: waiter leaked", sc.name);
            }
        },
    );
}

// ---------------------------------------------------------------------
// Crash recovery as a property: a seeded write schedule, a crash at a
// random armed WAL seam, recovery, and the committed-prefix invariant.
// ---------------------------------------------------------------------

/// (write values, torn-statement seam). seam 0 = clean crash (no torn
/// statement), 1..=3 = the WAL seam the final, uncommitted statement
/// dies at.
fn arb_recovery_case() -> Gen<(Vec<i64>, usize)> {
    prop::pair(prop::vec_of(prop::range(1i64..1_000), 1..10), prop::range(0usize..4))
}

#[test]
fn recovery_replays_exactly_the_committed_prefix() {
    use redshift_sim::faultkit::{fp, ErrClass, FaultSpec};

    let cfg = Config::with_cases(16).regressions_file(regressions());
    prop::check(
        "recovery_replays_exactly_the_committed_prefix",
        &cfg,
        &arb_recovery_case(),
        |(values, seam)| {
            let c = Cluster::launch(
                ClusterConfig::new("rec-prop").nodes(2).slices_per_node(2).rows_per_group(32),
            )
            .unwrap();
            c.execute("CREATE TABLE r (k BIGINT, v BIGINT)").unwrap();
            // The committed prefix: alternate INSERT and COPY so both
            // delta shapes land in the redo log.
            let mut sum = 0i64;
            for (i, v) in values.iter().enumerate() {
                if i % 2 == 0 {
                    c.execute(&format!("INSERT INTO r VALUES ({v}, {i})")).unwrap();
                } else {
                    let key = format!("rv/{i}");
                    c.put_s3_object(&key, format!("{v},{i}\n").into_bytes());
                    c.execute(&format!("COPY r FROM 's3://{key}'")).unwrap();
                }
                sum += v;
            }

            // The torn statement (if any): dies at a WAL seam with the
            // hard-crash flag up, so its blocks stay behind as orphans —
            // the state a real power cut leaves.
            if *seam > 0 {
                let point =
                    [fp::WAL_APPEND, fp::WAL_SYNC, fp::WAL_COMMIT][(seam - 1) % 3];
                c.arm_hard_crash();
                c.faults().configure(point, FaultSpec::err(ErrClass::Fault).once());
                c.execute("INSERT INTO r VALUES (1000000, 0)").unwrap_err();
            }

            let r = Cluster::recover(c.crash().unwrap()).unwrap();
            let q = r.query("SELECT COUNT(*), SUM(k) FROM r").unwrap();
            assert_eq!(
                q.rows[0].get(0).as_i64(),
                Some(values.len() as i64),
                "recovered row count must equal the committed prefix"
            );
            assert_eq!(q.rows[0].get(1).as_i64(), Some(sum), "recovered content drifted");
            assert_eq!(r.rows_estimate("r"), Some(values.len() as u64));
            if *seam > 0 {
                assert!(
                    r.trace().counter_value("recovery.orphan_blocks_scrubbed") > 0,
                    "the torn statement's blocks must be scrubbed at recovery"
                );
            }

            // Recovery is idempotent (crash the recovered cluster before
            // any new write: same answer), and the revived cluster is a
            // first-class writer again.
            let r2 = Cluster::recover(r.crash().unwrap()).unwrap();
            let q2 = r2.query("SELECT COUNT(*), SUM(k) FROM r").unwrap();
            assert_eq!(q2.rows, q.rows, "second crash/recover must be a fixpoint");
            r2.execute("INSERT INTO r VALUES (7, 7)").unwrap();
            assert_eq!(r2.rows_estimate("r"), Some(values.len() as u64 + 1));
        },
    );
}

// ---------------------------------------------------------------------
// Load-time statistics equal ANALYZE's.
// ---------------------------------------------------------------------
//
// COPY (STATUPDATE) and INSERT fold the statistics of the rows they load
// into the table's record instead of rescanning the table. The record is
// a merge of additive fields and set-union sketches, so the fold must
// equal — field for field, sketches hash for hash, hence `ndv` and
// `avg_width` bit for bit — what `ANALYZE` then computes from a scan, and
// must keep doing so after the record has travelled through a redo
// delta, a checkpoint, a snapshot manifest or a resize.

mod stats_support {
    use redshift_sim::testkit::rng::{Pcg32, Rng};

    pub const DDL_COLUMNS: &str = "b BOOLEAN, i2 SMALLINT, i4 INTEGER, k BIGINT, f FLOAT8, \
                                   v VARCHAR(16), d DATE, ts TIMESTAMP, m DECIMAL(12,2)";

    /// One generated row: per column `None` = NULL, else the value's CSV
    /// text. Small domains so batches repeat values (ndv < rows) and wide
    /// ones so sketches fill.
    pub fn row(rng: &mut Pcg32) -> Vec<Option<String>> {
        let wide = rng.gen_bool(0.5);
        let span = if wide { 100_000 } else { 12 };
        let strs = ["a", "ab", "redshift", "naïve", "日本", "x y", "-"];
        let cells = vec![
            ["t", "f"][rng.gen_index(2)].to_string(),
            rng.gen_range(-300i64..300).to_string(),
            rng.gen_range(-span..span).to_string(),
            (rng.gen_range(0..span) * 1024 - span).to_string(),
            ["-0.0", "0.0", "1.5", "-2.25", "1e300"][rng.gen_index(5)].to_string(),
            if wide { rng.alphanumeric(6) } else { strs[rng.gen_index(strs.len())].to_string() },
            format!("20{:02}-{:02}-15", rng.gen_range(0..30), rng.gen_range(1..13)),
            format!("2015-05-{:02} 10:{:02}:00", rng.gen_range(1..29), rng.gen_range(0..60)),
            format!("{}.{:02}", rng.gen_range(-span..span), rng.gen_range(0..100)),
        ];
        cells.into_iter().map(|c| (!rng.gen_bool(0.15)).then_some(c)).collect()
    }

    pub fn csv(rows: &[Vec<Option<String>>]) -> String {
        let line = |r: &Vec<Option<String>>| {
            r.iter().map(|c| c.as_deref().unwrap_or("")).collect::<Vec<_>>().join("|")
        };
        rows.iter().map(|r| line(r) + "\n").collect()
    }

    pub fn insert_values(rows: &[Vec<Option<String>>]) -> String {
        let literal = |col: usize, text: &str| match col {
            0 => ["FALSE", "TRUE"][(text == "t") as usize].to_string(),
            5 => format!("'{text}'"),
            6 => format!("DATE '{text}'"),
            7 => format!("TIMESTAMP '{text}'"),
            _ => text.to_string(),
        };
        let tuple = |r: &Vec<Option<String>>| {
            let cells = r.iter().enumerate().map(|(i, c)| match c {
                Some(text) => literal(i, text),
                None => "NULL".to_string(),
            });
            format!("({})", cells.collect::<Vec<_>>().join(", "))
        };
        rows.iter().map(tuple).collect::<Vec<_>>().join(", ")
    }
}

/// (distribution style, schedule of (op, seed)).
fn arb_stats_case() -> Gen<(usize, Vec<(usize, u64)>)> {
    prop::pair(
        prop::range(0usize..3),
        prop::vec_of(prop::pair(prop::range(0usize..8), prop::any_int::<u64>()), 1..10),
    )
}

#[test]
fn stats_incremental_equals_analyze() {
    use redshift_sim::replication::SnapshotKind;
    use redshift_sim::storage::stats::TableStats;
    use redshift_sim::testkit::rng::{Pcg32, Rng};

    /// The record as it stands must be what ANALYZE computes next.
    fn assert_current(c: &Cluster, ctx: &str) {
        // Never loaded = the empty record, which is where a fold starts.
        let folded = c.table_stats("s").or_else(|| Some(TableStats::new(9)));
        let estimate = c.rows_estimate("s");
        c.execute("ANALYZE s").unwrap();
        assert_eq!(folded, c.table_stats("s"), "{ctx}: folded statistics differ from ANALYZE");
        assert_eq!(estimate, c.rows_estimate("s"), "{ctx}: rows_estimate drifted");
        assert_eq!(c.loads_since_analyze("s"), 0);
    }

    let cfg = Config::with_cases(24).regressions_file(regressions());
    prop::check("stats_incremental_equals_analyze", &cfg, &arb_stats_case(), |(dist, schedule)| {
        let dist = ["DISTKEY(k)", "DISTSTYLE EVEN", "DISTSTYLE ALL"][*dist];
        let mut c = Cluster::launch(
            ClusterConfig::new("stats-prop").nodes(2).slices_per_node(2).rows_per_group(32),
        )
        .unwrap();
        c.execute(&format!("CREATE TABLE s ({}) {dist}", stats_support::DDL_COLUMNS)).unwrap();
        // A restored cluster can neither snapshot nor crash again.
        let mut restored = false;
        for (step, (op, seed)) in schedule.iter().enumerate() {
            let mut rng = Pcg32::seed_from_u64(*seed);
            let ctx = format!("step {step} op {op} {dist}");
            let rows = |rng: &mut Pcg32, n: usize| -> Vec<_> {
                (0..n).map(|_| stats_support::row(rng)).collect()
            };
            let stage = |c: &Cluster, rng: &mut Pcg32| {
                for object in 0..rng.gen_range(1usize..7) {
                    let n = rng.gen_range(0usize..120);
                    let body = stats_support::csv(&rows(rng, n));
                    c.put_s3_object(&format!("st/{step}/{object}"), body.into_bytes());
                }
                format!("COPY s FROM 's3://st/{step}/' DELIMITER '|'")
            };
            // Lifecycle steps carry the record as it is — no ANALYZE first,
            // so what a redo delta or manifest brings back is a *folded*
            // record — and the check runs on the far side.
            match op {
                0..=2 => {
                    c.execute(&stage(&c, &mut rng)).unwrap();
                }
                3 => {
                    let n = rng.gen_range(1usize..5);
                    let values = stats_support::insert_values(&rows(&mut rng, n));
                    c.execute(&format!("INSERT INTO s VALUES {values}")).unwrap();
                }
                4 => {
                    let before = c.table_stats("s");
                    c.execute(&format!("{} STATUPDATE OFF", stage(&c, &mut rng))).unwrap();
                    let after = c.table_stats("s");
                    assert_eq!(after, before, "{ctx}: STATUPDATE OFF touched statistics");
                    // Stale by construction; ANALYZE before comparing again.
                    c.execute("ANALYZE s").unwrap();
                }
                5 if !restored => c = Cluster::recover(c.crash().unwrap()).unwrap(),
                6 if !restored => {
                    c.create_snapshot("p", SnapshotKind::User).unwrap();
                    let from = c.config().clone();
                    c = Cluster::restore_from_snapshot(
                        ClusterConfig::new(format!("stats-prop-r{step}"))
                            .nodes(from.nodes)
                            .slices_per_node(from.slices_per_node),
                        Arc::clone(c.s3()),
                        "us-east-1",
                        &from.name,
                        "p",
                        None,
                    )
                    .unwrap();
                    while c.hydrate_step(64).unwrap() > 0 {}
                    restored = true;
                }
                _ => {
                    let (nodes, slices) = [(1, 2), (3, 1), (2, 2)][rng.gen_index(3)];
                    c = c.resize(nodes, slices).unwrap();
                    restored = false;
                }
            }
            let next_is_lifecycle = schedule.get(step + 1).is_some_and(|(op, _)| *op >= 5);
            if !next_is_lifecycle {
                assert_current(&c, &ctx);
            }
        }
    });
}

// ---------------------------------------------------------------------
// Vectorized kernels are bit-identical to the interpreter.
// ---------------------------------------------------------------------
//
// The typed kernels in `engine::kernels` must return exactly the
// selection the row interpreter (`interp::eval_row`, through
// `eval_predicate_interp`) produces — for every
// expression shape they claim to cover, over columns with NULLs, NaN
// payloads (both orderings of `cmp_f64`), signed zeros and infinities,
// integer extremes and multi-byte text. Expressions the kernels decline
// (`None`) are fine: the executor falls back and counts it. Disagreement
// is a failure, and so is a kernel answer where the interpreter errors
// (overflow, division by zero): there the kernel must decline.

mod vector_support {
    use redshift_sim::common::{ColumnData, DataType, Value};
    use redshift_sim::sql::ast::{BinaryOp, UnaryOp};
    use redshift_sim::sql::plan::BoundExpr;
    use redshift_sim::testkit::rng::{gen_u64_below, Pcg32};

    pub const FLOAT_SPECIALS: &[f64] = &[
        0.0,
        -0.0,
        1.5,
        -2.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
    ];

    pub const STR_POOL: &[&str] =
        &["", "a", "ab", "zz", "redshift", "a%b", "é", "aé", "日本", "a日b", "naïve"];

    const LIKE_PATTERNS: &[&str] = &[
        "%", "a%", "%b", "a", "_", "%a%", "%%", "%%a", "a%%", "%%a%%", "__", "a_", "_b", "a_b",
        "%_", "_%", "é", "_é", "a%é", "日%", "%日_", "%ï%", "a%b", "%a%b%", "",
    ];

    /// Batch layout used by every vector_ test: col0 Int8, col1 Float8,
    /// col2 Varchar — all nullable. With `extremes`, the ints 4 and -4
    /// stand for `i64::MAX` and `i64::MIN`, so `col0 + 1` overflows.
    pub fn batch(
        ints: &[Option<i64>],
        floats: &[Option<usize>],
        strs: &[Option<usize>],
        extremes: bool,
    ) -> Vec<ColumnData> {
        let n = ints.len().min(floats.len()).min(strs.len());
        let mut c0 = ColumnData::new(DataType::Int8);
        let mut c1 = ColumnData::new(DataType::Float8);
        let mut c2 = ColumnData::new(DataType::Varchar);
        for i in 0..n {
            match ints[i] {
                Some(4) if extremes => c0.push_value(&Value::Int8(i64::MAX)).unwrap(),
                Some(-4) if extremes => c0.push_value(&Value::Int8(i64::MIN)).unwrap(),
                Some(x) => c0.push_value(&Value::Int8(x)).unwrap(),
                None => c0.push_null(),
            }
            match floats[i] {
                Some(j) => c1
                    .push_value(&Value::Float8(FLOAT_SPECIALS[j % FLOAT_SPECIALS.len()]))
                    .unwrap(),
                None => c1.push_null(),
            }
            match strs[i] {
                Some(j) => c2
                    .push_value(&Value::Str(STR_POOL[j % STR_POOL.len()].to_string()))
                    .unwrap(),
                None => c2.push_null(),
            }
        }
        vec![c0, c1, c2]
    }

    pub fn col(index: usize) -> BoundExpr {
        let ty = [DataType::Int8, DataType::Float8, DataType::Varchar][index];
        BoundExpr::Column { index, ty }
    }

    fn pick<T: Copy>(rng: &mut Pcg32, items: &[T]) -> T {
        items[gen_u64_below(rng, items.len() as u64) as usize]
    }

    fn literal_for(rng: &mut Pcg32, index: usize) -> Value {
        if gen_u64_below(rng, 10) == 0 {
            return Value::Null;
        }
        match index {
            0 => Value::Int8(gen_u64_below(rng, 9) as i64 - 4),
            1 => Value::Float8(pick(rng, FLOAT_SPECIALS)),
            _ => Value::Str(pick(rng, STR_POOL).to_string()),
        }
    }

    fn binary(left: BoundExpr, op: BinaryOp, right: BoundExpr) -> BoundExpr {
        BoundExpr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// A numeric operand: a column, a small literal (0 included, so
    /// `x / 0` and `x % 0` occur), or — a third of the time while depth
    /// lasts — arithmetic over operands, `i64::MAX + 1` among them.
    fn gen_operand(rng: &mut Pcg32, depth: u32) -> BoundExpr {
        if depth > 0 && gen_u64_below(rng, 3) == 0 {
            if gen_u64_below(rng, 12) == 0 {
                return binary(
                    BoundExpr::Literal(Value::Int8(i64::MAX)),
                    BinaryOp::Add,
                    BoundExpr::Literal(Value::Int8(1)),
                );
            }
            // Division and modulo are rarer: with a 0 somewhere in most
            // batches they mostly exercise the both-error path.
            let op = pick(
                rng,
                &[
                    BinaryOp::Add,
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Sub,
                    BinaryOp::Mul,
                    BinaryOp::Mul,
                    BinaryOp::Div,
                    BinaryOp::Mod,
                ],
            );
            return binary(gen_operand(rng, depth - 1), op, gen_operand(rng, depth - 1));
        }
        match gen_u64_below(rng, 4) {
            0 => col(1),
            1 => BoundExpr::Literal(Value::Int8(gen_u64_below(rng, 7) as i64 - 2)),
            2 => BoundExpr::Literal(Value::Float8(pick(rng, FLOAT_SPECIALS))),
            _ => col(0),
        }
    }

    const CMP_OPS: [BinaryOp; 6] = [
        BinaryOp::Eq,
        BinaryOp::NotEq,
        BinaryOp::Lt,
        BinaryOp::LtEq,
        BinaryOp::Gt,
        BinaryOp::GtEq,
    ];

    /// A random predicate over the fixed 3-column batch. Depth-bounded;
    /// leaves are comparisons (plain, or over arithmetic operands),
    /// IS [NOT] NULL, [NOT] IN lists (sometimes deliberately mixed-type
    /// so the kernels must bail) and LIKE.
    pub fn gen_expr(rng: &mut Pcg32, depth: u32) -> BoundExpr {
        if depth > 0 && gen_u64_below(rng, 2) == 0 {
            return match gen_u64_below(rng, 3) {
                0 => BoundExpr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(gen_expr(rng, depth - 1)),
                },
                n => binary(
                    gen_expr(rng, depth - 1),
                    if n == 1 { BinaryOp::And } else { BinaryOp::Or },
                    gen_expr(rng, depth - 1),
                ),
            };
        }
        let index = gen_u64_below(rng, 3) as usize;
        match gen_u64_below(rng, 5) {
            0 => BoundExpr::IsNull {
                expr: Box::new(col(index)),
                negated: gen_u64_below(rng, 2) == 1,
            },
            1 => {
                let items = 1 + gen_u64_below(rng, 3);
                // 1-in-8 lists draw literals for a *different* column
                // type: the mixed-lane case the kernels must decline
                // rather than guess at.
                let lit_from = if gen_u64_below(rng, 8) == 0 {
                    gen_u64_below(rng, 3) as usize
                } else {
                    index
                };
                BoundExpr::InList {
                    expr: Box::new(col(index)),
                    list: (0..items).map(|_| literal_for(rng, lit_from)).collect(),
                    negated: gen_u64_below(rng, 2) == 1,
                }
            }
            2 if index == 2 => BoundExpr::Like {
                expr: Box::new(col(2)),
                pattern: pick(rng, LIKE_PATTERNS).to_string(),
                negated: gen_u64_below(rng, 2) == 1,
            },
            3 => binary(gen_operand(rng, 2), pick(rng, &CMP_OPS), gen_operand(rng, 2)),
            _ => {
                let lit = BoundExpr::Literal(literal_for(rng, index));
                let (l, r) = if gen_u64_below(rng, 2) == 0 {
                    (col(index), lit)
                } else {
                    (lit, col(index))
                };
                binary(l, pick(rng, &CMP_OPS), r)
            }
        }
    }

    /// `parts[0] AND parts[1] AND …`.
    pub fn conjunction(parts: &[BoundExpr]) -> BoundExpr {
        parts
            .iter()
            .cloned()
            .reduce(|acc, p| binary(acc, BinaryOp::And, p))
            .expect("at least one conjunct")
    }
}

#[test]
fn vector_kernels_match_interpreter() {
    use redshift_sim::engine::expr::eval_predicate_interp;
    use redshift_sim::engine::kernels::{narrow, try_eval_predicate};
    use redshift_sim::engine::Selection;
    use redshift_sim::testkit::rng::Pcg32;

    let gen = prop::tuple4(
        prop::vec_of(prop::option_of(prop::range(-4i64..5)), 0..120),
        prop::vec_of(prop::option_of(prop::range(0usize..8)), 0..120),
        prop::vec_of(prop::option_of(prop::range(0usize..11)), 0..120),
        prop::any_i64(),
    );
    // The three refusals the generator only sometimes reaches, pinned:
    // `i64::MAX + 1`, `x / 0`, `x % 0`, and `x / 0.0` on the f64 lane —
    // interpreter raises, kernel declines.
    {
        use redshift_sim::sql::ast::BinaryOp;
        use redshift_sim::sql::plan::BoundExpr;
        let batch = vector_support::batch(&[Some(1), None], &[Some(2), Some(3)], &[None, Some(1)], false);
        let lit = |v: i64| Box::new(BoundExpr::Literal(Value::Int8(v)));
        let bin = |left, op, right| BoundExpr::Binary { left, op, right };
        for arith in [
            bin(lit(i64::MAX), BinaryOp::Add, lit(1)),
            bin(Box::new(vector_support::col(0)), BinaryOp::Div, lit(0)),
            bin(Box::new(vector_support::col(0)), BinaryOp::Mod, lit(0)),
            bin(
                Box::new(vector_support::col(1)),
                BinaryOp::Div,
                Box::new(BoundExpr::Literal(Value::Float8(0.0))),
            ),
        ] {
            let expr = bin(Box::new(arith), BinaryOp::Gt, lit(0));
            assert!(eval_predicate_interp(&expr, &batch, 2).is_err(), "{expr:?}");
            assert!(try_eval_predicate(&expr, &batch, 2).is_none(), "{expr:?}");
        }
    }
    let covered = std::cell::Cell::new(0u32);
    let total = std::cell::Cell::new(0u32);
    {
        let (covered, total) = (&covered, &total);
        prop::check(
            "vector_kernels_match_interpreter",
            &Config::with_cases(256),
            &gen,
            move |(ints, floats, strs, expr_seed)| {
                // One case in four carries i64::MAX / i64::MIN, so
                // integer arithmetic overflows there and not everywhere.
                let batch = vector_support::batch(ints, floats, strs, expr_seed % 4 == 0);
                let rows = batch[0].len();
                let all = Selection::all(rows);
                let mut rng = Pcg32::seed_from_u64(*expr_seed as u64);
                let parts: Vec<_> = (0..4).map(|_| vector_support::gen_expr(&mut rng, 3)).collect();
                let mut each = Vec::new();
                for expr in &parts {
                    let kernel = try_eval_predicate(expr, &batch, rows);
                    match eval_predicate_interp(expr, &batch, rows) {
                        Ok(interp) => {
                            total.set(total.get() + 1);
                            if let Some(kernel) = kernel {
                                covered.set(covered.get() + 1);
                                assert_eq!(
                                    kernel, interp,
                                    "kernel disagrees with interpreter on {expr:?}"
                                );
                            }
                            each.push(interp);
                        }
                        // Overflow, x / 0, x % 0: both must refuse.
                        Err(e) => {
                            assert!(
                                kernel.is_none(),
                                "kernel answered {kernel:?} where the interpreter raised {e}: {expr:?}"
                            );
                        }
                    }
                }
                // The chain as one expression: the reference
                // short-circuits, so it may answer where a conjunct
                // alone raises; the kernel's answer, when given, is the
                // reference's. Where every conjunct evaluates alone the
                // answer is their intersection — and narrowing conjunct
                // by conjunct, in whatever order the kernels pick,
                // arrives at it too.
                let chain = vector_support::conjunction(&parts);
                let kernel = try_eval_predicate(&chain, &batch, rows);
                let want = match eval_predicate_interp(&chain, &batch, rows) {
                    Ok(want) => want,
                    Err(e) => {
                        assert!(kernel.is_none(), "kernel answered {kernel:?}, reference raised {e}");
                        return;
                    }
                };
                if each.len() == parts.len() {
                    let both = all.select(|i| each.iter().all(|s| s.iter().any(|j| j == i)));
                    assert_eq!(want, both, "chain {chain:?}");
                }
                if let Some(got) = kernel {
                    assert_eq!(got, want, "chain {chain:?}");
                    let stepwise = parts
                        .iter()
                        .try_fold(all.clone(), |alive, p| narrow(p, &batch, &alive))
                        .expect("every conjunct of a covered chain is covered");
                    assert_eq!(stepwise, want, "stepwise {chain:?}");
                }
            },
        );
    }
    // The kernels must actually cover the bulk of the predicates the
    // interpreter can evaluate — otherwise this differential test
    // silently tests nothing.
    let (covered, total) = (covered.get(), total.get());
    assert!(
        covered * 5 > total * 4,
        "kernels covered only {covered}/{total} generated predicates"
    );
}

#[test]
fn vector_kernels_nan_total_order_end_to_end() {
    // Deterministic NaN spotlight: every comparison op against every
    // float special, kernel vs interpreter, including NULL slots.
    use redshift_sim::engine::expr::eval_predicate_interp;
    use redshift_sim::engine::kernels::try_eval_predicate;
    use redshift_sim::sql::ast::BinaryOp;
    use redshift_sim::sql::plan::BoundExpr;

    let ints: Vec<Option<i64>> = (0..9).map(|i| if i == 4 { None } else { Some(i) }).collect();
    let floats: Vec<Option<usize>> = (0..9).map(|i| if i == 8 { None } else { Some(i) }).collect();
    let strs: Vec<Option<usize>> = (0..9).map(|i| Some(i)).collect();
    let batch = vector_support::batch(&ints, &floats, &strs, false);
    let rows = batch[0].len();
    for &lit in vector_support::FLOAT_SPECIALS {
        for op in [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ] {
            let expr = BoundExpr::Binary {
                left: Box::new(BoundExpr::Column { index: 1, ty: DataType::Float8 }),
                op,
                right: Box::new(BoundExpr::Literal(Value::Float8(lit))),
            };
            let interp = eval_predicate_interp(&expr, &batch, rows).unwrap();
            let kernel = try_eval_predicate(&expr, &batch, rows)
                .expect("float compare must be kernel-covered");
            assert_eq!(kernel, interp, "op {op:?} lit {lit:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Typed aggregates are bit-identical to the Value path.
// ---------------------------------------------------------------------
//
// The executor folds `(batch, selection)` pairs into typed accumulators
// (no key; one or two keys, each integer-family or VARCHAR, NULL keys
// included); the row-at-a-time `baseline` engine runs the same plan
// through `AggState::update` over boxed `Value`s. No typed shape boxes
// a key (`key_fallback` 0); that a fragment's groups come out in the
// boxed table's order is `agg::tests`' assertion. One slice, so both add floats in the same order: results
// must match to the bit — NULLs, NaN, ±0, ±inf, sums that wrap past
// `i64::MAX`, filters that keep nothing, and empty tables included.

#[test]
fn vector_aggregates_match_value_path() {
    use redshift_sim::common::{Result, Row};
    use redshift_sim::engine::baseline::{self, RowStore};
    use redshift_sim::engine::exec::{Executor, TableProvider};
    use redshift_sim::sql::ast::BinaryOp;
    use redshift_sim::sql::plan::{AggExpr, AggFunc, BoundExpr, LogicalPlan, OutCol};
    use redshift_sim::storage::table::{ScanOutput, ScanPredicate};

    /// One slice holding the batches as they are.
    struct OneSlice(Vec<Vec<ColumnData>>);
    impl TableProvider for OneSlice {
        fn num_slices(&self) -> usize {
            1
        }
        fn scan_slice(&self, _: &str, _: usize, projection: &[usize], _: &ScanPredicate) -> Result<ScanOutput> {
            let batches =
                self.0.iter().map(|b| projection.iter().map(|&c| b[c].clone()).collect()).collect();
            Ok(ScanOutput { batches, ..ScanOutput::default() })
        }
    }

    const TYPES: [DataType; 6] = [
        DataType::Int8,
        DataType::Float8,
        DataType::Int8,
        DataType::Int4,
        DataType::Varchar,
        DataType::Varchar,
    ];
    const STRS: [&str; 3] = ["", "a", "é日"];
    let col = |index: usize| BoundExpr::Column { index, ty: TYPES[index] };
    let agg = |func: AggFunc, arg: Option<BoundExpr>, n: usize| AggExpr {
        func,
        arg,
        distinct: false,
        output_name: format!("a{n}"),
    };
    let times_two = BoundExpr::Binary {
        left: Box::new(col(3)),
        op: BinaryOp::Mul,
        right: Box::new(BoundExpr::Literal(Value::Int8(2))),
    };
    let aggs: Vec<AggExpr> = [
        (AggFunc::CountStar, None),
        (AggFunc::Count, Some(col(1))),
        (AggFunc::Sum, Some(col(2))),
        (AggFunc::Sum, Some(col(1))),
        (AggFunc::Sum, Some(times_two)),
        (AggFunc::Avg, Some(col(1))),
        (AggFunc::Avg, Some(col(3))),
        (AggFunc::Min, Some(col(1))),
        (AggFunc::Max, Some(col(1))),
        (AggFunc::Min, Some(col(2))),
        (AggFunc::Max, Some(col(3))),
    ]
    .into_iter()
    .enumerate()
    .map(|(n, (f, a))| agg(f, a, n))
    .collect();

    // (key, float special, big int, small int, two string keys) per
    // row; batches of up to 7 rows so groups span batches.
    let row = prop::tuple5(
        prop::option_of(prop::range(0i64..4)),
        prop::option_of(prop::range(0usize..8)),
        prop::option_of(prop::range(0i64..4)),
        prop::option_of(prop::range(-3i64..4)),
        prop::pair(prop::option_of(prop::range(0usize..3)), prop::option_of(prop::range(0usize..3))),
    );
    let gen = prop::pair(prop::vec_of(row, 0..40), prop::range(0i64..6));
    prop::check(
        "vector_aggregates_match_value_path",
        &Config::with_cases(128),
        &gen,
        |(rows, keep_below)| {
            let mut batches: Vec<Vec<ColumnData>> = Vec::new();
            let mut heap = Vec::new();
            for chunk in rows.chunks(7) {
                let mut cols: Vec<ColumnData> = TYPES.iter().map(|t| ColumnData::new(*t)).collect();
                for (k, f, big, small, (s0, s1)) in chunk {
                    let vals = [
                        k.map_or(Value::Null, Value::Int8),
                        f.map_or(Value::Null, |j| Value::Float8(vector_support::FLOAT_SPECIALS[j])),
                        // 0 → i64::MAX, 1 → i64::MAX - 1, …: sums wrap.
                        big.map_or(Value::Null, |b| Value::Int8(i64::MAX - b)),
                        small.map_or(Value::Null, |s| Value::Int4(s as i32)),
                        s0.map_or(Value::Null, |j| Value::Str(STRS[j].into())),
                        s1.map_or(Value::Null, |j| Value::Str(STRS[j].into())),
                    ];
                    for (c, v) in cols.iter_mut().zip(&vals) {
                        c.push_value(v).unwrap();
                    }
                    heap.push(Row::new(vals.to_vec()));
                }
                batches.push(cols);
            }
            let mut store = RowStore::new();
            store.insert_table("t", heap);
            let provider = OneSlice(batches);
            // `small < keep_below`: keeps nothing at 0 … everything at 5
            // (NULL `small` never passes).
            let filter = BoundExpr::Binary {
                left: Box::new(col(3)),
                op: BinaryOp::Lt,
                right: Box::new(BoundExpr::Literal(Value::Int8(*keep_below - 3))),
            };
            for keys in [&[][..], &[0], &[4], &[4, 5], &[0, 4]] {
                let group_by: Vec<BoundExpr> = keys.iter().map(|&k| col(k)).collect();
                let mut output: Vec<OutCol> = group_by
                    .iter()
                    .map(|g| OutCol { name: "k".into(), ty: g.ty() })
                    .collect();
                output.extend(aggs.iter().map(|a| OutCol { name: a.output_name.clone(), ty: a.ty() }));
                let plan = LogicalPlan::Aggregate {
                    input: Box::new(LogicalPlan::Scan {
                        table: "t".into(),
                        projection: (0..TYPES.len()).collect(),
                        output: TYPES
                            .iter()
                            .enumerate()
                            .map(|(i, t)| OutCol { name: format!("c{i}"), ty: *t })
                            .collect(),
                        filter: Some(filter.clone()),
                        pruning: ScanPredicate::default(),
                    }),
                    group_by,
                    aggs: aggs.clone(),
                    output,
                };
                let typed = Executor::new(&provider).run(&plan).unwrap();
                assert_eq!((typed.metrics.interp_fallback, typed.metrics.key_fallback), (0, 0));
                let boxed = baseline::run_plan(&plan, &store).unwrap();
                // Debug text: NaN equals itself, -0.0 differs from 0.0.
                let text = |rows: &[Row]| {
                    let mut v: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values())).collect();
                    v.sort();
                    v
                };
                assert_eq!(text(&typed.rows), text(&boxed), "keys={keys:?}");
            }
        },
    );
}

// ---------------------------------------------------------------------
// The typed hash join is the row-at-a-time join.
// ---------------------------------------------------------------------
//
// Generated two- and three-table join plans run on the executor, over
// tables placed on 1-3 slices the way each `JoinDistStrategy` expects
// (KEY, EVEN, or one ALL copy), and on `engine::baseline` over the same
// rows in one heap. Keys are duplicate-heavy with NULLs on both sides
// (INT8, INT2 ⋈ INT8, DATE on the typed lane; VARCHAR on the counted
// one); scans filter everything / something / nothing, so build and
// probe sides arrive empty, partly selected and fully selected;
// residuals include one no candidate passes (a LEFT row reverts to
// unmatched); the join emits a subset of its columns, sometimes none. A
// join above a join takes every strategy its input's placement allows.
// On one slice with inner joins, row order and `f64` addition order are
// the baseline's, so rows compare as ordered lists and sums bit for bit;
// elsewhere rows compare as multisets over exactly representable floats.

#[test]
fn vector_joins_match_baseline() {
    use redshift_sim::common::{Result, Row};
    use redshift_sim::distribution::style::dist_hash;
    use redshift_sim::distribution::JoinDistStrategy as S;
    use redshift_sim::engine::baseline::{self, RowStore};
    use redshift_sim::engine::exec::{Executor, TableProvider};
    use redshift_sim::sql::ast::{BinaryOp, JoinType};
    use redshift_sim::sql::plan::{AggExpr, AggFunc, BoundExpr, LogicalPlan, OutCol};
    use redshift_sim::storage::table::{ScanOutput, ScanPredicate};
    use redshift_sim::testkit::rng::{gen_u64_below, Pcg32};
    use std::collections::HashMap;

    /// table -> slice -> batches.
    struct Placed(usize, HashMap<String, Vec<Vec<Vec<ColumnData>>>>);
    impl TableProvider for Placed {
        fn num_slices(&self) -> usize {
            self.0
        }
        fn scan_slice(&self, t: &str, slice: usize, projection: &[usize], _: &ScanPredicate) -> Result<ScanOutput> {
            let batches = self.1[t][slice]
                .iter()
                .map(|b| projection.iter().map(|&c| b[c].clone()).collect())
                .collect();
            Ok(ScanOutput { batches, ..ScanOutput::default() })
        }
    }
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Place {
        Key,
        Even,
        All,
    }
    const STRS: [&str; 4] = ["", "a", "ab", "é日"];
    /// Every table is (k, v BIGINT, f FLOAT8, s VARCHAR).
    fn types(key: DataType) -> [DataType; 4] {
        [key, DataType::Int8, DataType::Float8, DataType::Varchar]
    }
    fn out_cols(key: DataType) -> Vec<OutCol> {
        types(key).iter().enumerate().map(|(i, &ty)| OutCol { name: format!("c{i}"), ty }).collect()
    }
    let below = |b: u64, rng: &mut Pcg32| gen_u64_below(rng, b);

    prop::check("vector_joins_match_baseline", &Config::with_cases(192), &prop::any_i64(), |seed| {
        let rng = &mut Pcg32::seed_from_u64(*seed as u64);
        let slices = 1 + below(3, rng) as usize;
        let three_way = below(2, rng) == 0;
        // Key types of the (outer, inner) sides; the third table's key
        // joins the first's.
        let (lk, rk) = [
            (DataType::Int8, DataType::Int8),
            (DataType::Int2, DataType::Int8),
            (DataType::Date, DataType::Date),
            (DataType::Varchar, DataType::Varchar),
        ][below(4, rng) as usize];
        let typed_keys = lk != DataType::Varchar;
        // One slice, inner joins only: the baseline's row order, and its
        // order of `f64` additions.
        let ordered = slices == 1 && below(2, rng) == 0;

        // A strategy and placements it is valid for. `lower` is the
        // strategy of the join below, when the outer side is a join.
        let pick = |rng: &mut Pcg32, lower: Option<S>| -> (S, Place, Place) {
            let any = |rng: &mut Pcg32| [Place::Key, Place::Even, Place::All][below(3, rng) as usize];
            let spread = |rng: &mut Pcg32| [Place::Key, Place::Even][below(2, rng) as usize];
            loop {
                match below(5, rng) {
                    // Co-located: two KEY tables, or a join output that
                    // sits by its outer key, and a KEY table.
                    0 if lower.is_none_or(|s| matches!(s, S::DistNone | S::DistBoth)) => {
                        return (S::DistNone, Place::Key, Place::Key)
                    }
                    1 => return (S::AllNone { all_side_left: false }, spread(rng), Place::All),
                    2 if lower.is_none() => return (S::AllNone { all_side_left: true }, Place::All, spread(rng)),
                    3 => return (S::BcastInner, Place::Even, spread(rng)),
                    4 => return (S::DistBoth, any(rng), any(rng)),
                    _ => {}
                }
            }
        };
        let join_type = |rng: &mut Pcg32, strategy: S| {
            // A replicated outer side is never NULL-extended locally (the
            // planner re-hashes that shape).
            if !ordered && strategy != (S::AllNone { all_side_left: true }) && below(2, rng) == 0 {
                JoinType::Left
            } else {
                JoinType::Inner
            }
        };

        let mut placed = Placed(slices, HashMap::new());
        let mut store = RowStore::new();
        let mut table = |rng: &mut Pcg32, name: &str, key: DataType, place: Place| -> LogicalPlan {
            let rows: Vec<Vec<Value>> = (0..below(40, rng))
                .map(|_| {
                    let k = below(7, rng) as i64; // 6 stands for NULL
                    let key = match key {
                        _ if k == 6 => Value::Null,
                        DataType::Int2 => Value::Int2(k as i16 - 2),
                        DataType::Date => Value::Date(k as i32 * 1000),
                        DataType::Varchar => Value::Str(STRS[k as usize % 4].into()),
                        // Far apart and close together: both table shapes.
                        _ => Value::Int8(if *seed % 2 == 0 { k - 2 } else { (k - 2) << 40 }),
                    };
                    let f = below(9, rng) as f64;
                    vec![
                        key,
                        Value::Int8(below(6, rng) as i64),
                        Value::Float8(if ordered { f * 0.1 } else { f * 0.25 }),
                        match below(5, rng) {
                            0 => Value::Null,
                            _ => Value::Str(STRS[below(4, rng) as usize].into()),
                        },
                    ]
                })
                .collect();
            let mut per_slice: Vec<Vec<Vec<ColumnData>>> = vec![Vec::new(); slices];
            let batch_rows = 1 + below(6, rng) as usize;
            for (i, row) in rows.iter().enumerate() {
                let slice = match place {
                    Place::Key => (dist_hash(&row[0]) % slices as u64) as usize,
                    Place::Even => i % slices,
                    Place::All => 0,
                };
                let batches = &mut per_slice[slice];
                if batches.last().is_none_or(|b: &Vec<ColumnData>| b[0].len() == batch_rows) {
                    batches.push(types(key).iter().map(|&t| ColumnData::new(t)).collect());
                }
                for (c, v) in batches.last_mut().unwrap().iter_mut().zip(row) {
                    c.push_value(v).unwrap();
                }
            }
            placed.1.insert(name.into(), per_slice);
            store.insert_table(name, rows.into_iter().map(Row::new).collect());
            // `v < 0 | 3 | 100`: nothing, something, everything.
            let keep_below = [0, 3, 3, 100, 100][below(5, rng) as usize];
            LogicalPlan::Scan {
                table: name.into(),
                projection: vec![0, 1, 2, 3],
                output: out_cols(key),
                filter: Some(BoundExpr::Binary {
                    left: Box::new(BoundExpr::Column { index: 1, ty: DataType::Int8 }),
                    op: BinaryOp::Lt,
                    right: Box::new(BoundExpr::Literal(Value::Int8(keep_below))),
                }),
                pruning: ScanPredicate::default(),
            }
        };
        // Over (outer ++ inner) columns `v` at 1 and `lw + 1`: none, a
        // comparison, one nothing passes.
        let residual = |rng: &mut Pcg32, lw: usize| {
            let v = |index| Box::new(BoundExpr::Column { index, ty: DataType::Int8 });
            match below(4, rng) {
                0 => Some(BoundExpr::Binary { left: v(1), op: BinaryOp::LtEq, right: v(lw + 1) }),
                1 => Some(BoundExpr::Binary {
                    left: v(lw + 1),
                    op: BinaryOp::Lt,
                    right: Box::new(BoundExpr::Literal(Value::Int8(0))),
                }),
                _ => None,
            }
        };

        let (s1, p_a, p_b) = pick(rng, None);
        let (a, b) = (table(rng, "a", lk, p_a), table(rng, "b", rk, p_b));
        let mut plan = LogicalPlan::Join {
            join_type: join_type(rng, s1),
            left_key: 0,
            right_key: 0,
            residual: residual(rng, 4),
            strategy: s1,
            emit: (0..8).collect(),
            left: Box::new(a),
            right: Box::new(b),
        };
        if three_way {
            let (s2, _, p_c) = pick(rng, Some(s1));
            let c = table(rng, "c", lk, p_c);
            plan = LogicalPlan::Join {
                join_type: join_type(rng, s2),
                left_key: 0,
                right_key: 0,
                residual: residual(rng, 8),
                strategy: s2,
                emit: (0..12).collect(),
                left: Box::new(plan),
                right: Box::new(c),
            };
        }
        let width = plan.output().len();
        let aggregated = below(2, rng) == 0;
        if aggregated {
            // GROUP BY the last table's `s`, the first's `v`, or both,
            // over everything the join emits.
            let out = plan.output();
            let col = |index: usize| BoundExpr::Column { index, ty: out[index].ty };
            let group_by = match below(3, rng) {
                0 => vec![col(width - 1)],
                1 => vec![col(1)],
                _ => vec![col(1), col(width - 1)],
            };
            let aggs = vec![
                AggExpr { func: AggFunc::CountStar, arg: None, distinct: false, output_name: "n".into() },
                AggExpr { func: AggFunc::Sum, arg: Some(col(2)), distinct: false, output_name: "f".into() },
            ];
            let mut output: Vec<OutCol> =
                group_by.iter().map(|g| OutCol { name: "g".into(), ty: g.ty() }).collect();
            output.extend(aggs.iter().map(|a| OutCol { name: a.output_name.clone(), ty: a.ty() }));
            plan = LogicalPlan::Aggregate { input: Box::new(plan), group_by, aggs, output };
        } else if let LogicalPlan::Join { emit, .. } = &mut plan {
            // What a parent would read: any subset, none included.
            emit.retain(|_| below(3, rng) > 0);
        }

        let got = Executor::new(&placed).run(&plan).unwrap();
        let want = baseline::run_plan(&plan, &store).unwrap();
        let text = |rows: &[Row]| rows.iter().map(|r| format!("{:?}", r.values())).collect::<Vec<_>>();
        let (mut got_rows, mut want_rows) = (text(&got.rows), text(&want));
        if aggregated || !ordered {
            got_rows.sort();
            want_rows.sort();
        }
        assert_eq!(got_rows, want_rows, "plan:\n{}", plan.explain());
        assert_eq!(got.metrics.interp_fallback, 0);
        if typed_keys {
            assert_eq!(got.metrics.key_fallback, 0, "plan:\n{}", plan.explain());
        } else if !got.rows.is_empty() {
            assert!(got.metrics.key_fallback > 0, "VARCHAR join keys went uncounted");
        }
        let moved = got.metrics.exchange_bytes();
        if !plan.explain().contains("DS_BCAST_INNER") && !plan.explain().contains("DS_DIST_BOTH") {
            assert_eq!(moved, 0, "a local join moved bytes");
        }
    });
}

// ---------------------------------------------------------------------
// The interpreter fallback and the boxed-key fallback are visible, and
// the benchmark shapes take neither.
// ---------------------------------------------------------------------

#[test]
fn vector_interp_fallback_is_counted_and_zero_on_benchmark_shapes() {
    use redshift_sim::workload::synth::template_sql;
    use redshift_sim::workload::QueryClass;

    let c = Cluster::launch(ClusterConfig::new("fallback").nodes(2).slices_per_node(2)).unwrap();
    for ddl in [
        "CREATE TABLE fact (d BIGINT, cust BIGINT, pid BIGINT, sid BIGINT, qty BIGINT, \
         price FLOAT8, note VARCHAR(24)) DISTKEY(cust) COMPOUND SORTKEY(d)",
        "CREATE TABLE customer (c_id BIGINT, c_region VARCHAR(8), c_tier BIGINT) DISTKEY(c_id)",
        "CREATE TABLE part (p_id BIGINT, p_cat VARCHAR(8), p_size BIGINT) DISTSTYLE ALL",
        "CREATE TABLE supplier (s_id BIGINT, s_nation BIGINT) DISTSTYLE EVEN",
        "CREATE TABLE events (k BIGINT, v BIGINT) DISTKEY(k)",
    ] {
        c.execute(ddl).unwrap();
    }
    let mut fact = String::new();
    let mut events = String::new();
    for r in 0..6_000u32 {
        let color = ["red", "blue", "green"][(r % 3) as usize];
        fact.push_str(&format!(
            "{},{},{},{},{},{}.{:02},{color}-{:03}\n",
            r / 10, r % 50, r % 20, r % 5, r % 100, r % 1000, r % 100, r % 1000
        ));
        events.push_str(&format!("{},{}\n", r % 50, r * 7 % 10_000));
    }
    let region = |i: usize| ["na", "eu"][i % 2];
    let cat = |i: usize| ["bolt", "nut", "gear"][i % 3];
    for (table, csv) in [
        ("fact", fact),
        ("events", events),
        ("customer", (0..50).map(|i| format!("{i},{},{}\n", region(i), i % 4)).collect()),
        ("part", (0..20).map(|i| format!("{i},{},{}\n", cat(i), i % 7)).collect()),
        ("supplier", (0..5).map(|i| format!("{i},{}\n", i % 3)).collect()),
    ] {
        c.put_s3_object(&format!("fb/{table}"), csv.into_bytes());
        c.execute(&format!("COPY {table} FROM 's3://fb/{table}'")).unwrap();
    }

    // The six `adhoc_scan` families and the four `star_join` families of
    // benchmark/src/data.rs, and the four dashboard templates.
    let mut shapes = vec![
        "SELECT COUNT(*) FROM fact WHERE d BETWEEN 100 AND 220".to_string(),
        "SELECT cust, COUNT(*) AS n, SUM(qty) AS s FROM fact WHERE qty < 45 AND price < 512.3400001 \
         GROUP BY cust ORDER BY n DESC, cust LIMIT 10"
            .to_string(),
        "SELECT COUNT(*) FROM fact WHERE note LIKE 'red-03%' AND price < 950.1200003".to_string(),
        "SELECT MIN(price), MAX(price), MIN(qty), MAX(qty) FROM fact \
         WHERE pid <> 7 AND price < 700.5000001"
            .to_string(),
        "SELECT COUNT(*), SUM(qty) FROM fact WHERE qty + 0 < 45 AND price < 512.3400001".to_string(),
        "SELECT d, cust, qty, price FROM fact WHERE d BETWEEN 300 AND 399".to_string(),
        "SELECT c_region, COUNT(*) AS n, SUM(qty) AS s FROM fact JOIN customer ON cust = c_id \
         WHERE c_tier = 2 AND qty < 45 GROUP BY c_region ORDER BY c_region"
            .to_string(),
        "SELECT p_cat, COUNT(*) AS n, SUM(qty) AS s FROM fact JOIN part ON pid = p_id \
         WHERE p_size < 4 AND qty < 45 GROUP BY p_cat ORDER BY p_cat"
            .to_string(),
        "SELECT s_nation, COUNT(*) AS n, SUM(qty) AS s FROM fact JOIN supplier ON sid = s_id \
         WHERE s_nation < 2 AND qty < 45 GROUP BY s_nation ORDER BY s_nation"
            .to_string(),
        "SELECT c_region, p_cat, COUNT(*) AS n, SUM(qty) AS s FROM fact \
         JOIN customer ON cust = c_id JOIN part ON pid = p_id \
         WHERE d BETWEEN 100 AND 400 AND c_tier = 2 \
         GROUP BY c_region, p_cat ORDER BY n DESC, c_region, p_cat LIMIT 10"
            .to_string(),
    ];
    shapes.extend((0..4).map(|rank| template_sql(QueryClass::Dashboard, rank)));
    for sql in &shapes {
        let q = c.query(sql).unwrap();
        assert_eq!(q.metrics.interp_fallback, 0, "fell back: {sql}");
        assert_eq!(q.metrics.key_fallback, 0, "boxed its keys: {sql}");
        assert!(q.metrics.rows_scanned > 0, "scanned nothing: {sql}");
    }
    assert_eq!(c.trace().counter_value("exec.interp_fallback"), 0);
    assert_eq!(c.trace().counter_value("exec.key_fallback"), 0);
    // The three-way join's second inner is the ALL table: nothing moves,
    // and the answer is the row-at-a-time engine's.
    let three_way = c.query(&shapes[9]).unwrap();
    assert!(three_way.plan.contains("DS_DIST_ALL_NONE") && !three_way.plan.contains("DS_DIST_BOTH"));
    assert_eq!(three_way.metrics.exchange_bytes(), 0);
    assert_eq!(three_way.rows, c.query_interpreted(&shapes[9]).unwrap());

    // Keys no typed lane covers — a FLOAT8 join key, a DECIMAL group
    // key, three group keys — are boxed, and counted the same three ways.
    c.execute("CREATE TABLE odd (a DECIMAL(8,2), b FLOAT8)").unwrap();
    c.execute("INSERT INTO odd VALUES (1.50, 0.5), (1.50, 2.5), (2.25, 0.5)").unwrap();
    let mut boxed = 0;
    for sql in [
        "SELECT COUNT(*) FROM odd x JOIN odd y ON x.b = y.b",
        "SELECT a, COUNT(*) FROM odd GROUP BY a",
        "SELECT cust, pid, sid, COUNT(*) FROM fact WHERE d < 3 GROUP BY cust, pid, sid",
    ] {
        let q = c.query(sql).unwrap();
        assert!(q.metrics.key_fallback > 0, "keys not counted: {sql}");
        assert_eq!(q.metrics.interp_fallback, 0, "{sql}");
        assert_eq!(q.rows.len(), c.query_interpreted(sql).unwrap().len(), "{sql}");
        boxed += q.metrics.key_fallback;
    }
    assert_eq!(c.trace().counter_value("exec.key_fallback"), boxed);

    // What no kernel covers — a cast or a CASE in a predicate, a
    // function in a projection or a sort key, a CASE as a group key or
    // an aggregate argument — is counted batch by batch, per statement
    // and in the cluster counter, and EXPLAIN ANALYZE prints the
    // statement's count on its first line.
    let cast = "SELECT COUNT(*) FROM fact WHERE CAST(qty AS FLOAT8) < 45.5";
    let mut counted = 0;
    for sql in [
        cast,
        "SELECT COUNT(*) FROM fact WHERE CASE WHEN qty < 10 THEN 1 ELSE 0 END = 1",
        "SELECT LOWER(note) FROM fact WHERE d < 3",
        "SELECT CASE WHEN qty < 50 THEN 0 ELSE 1 END AS half, COUNT(*) FROM fact \
         GROUP BY CASE WHEN qty < 50 THEN 0 ELSE 1 END",
        "SELECT SUM(CASE WHEN qty < 50 THEN qty ELSE 0 END) FROM fact",
        "SELECT note FROM fact WHERE d < 3 ORDER BY LOWER(note)",
    ] {
        let q = c.query(sql).unwrap();
        assert!(q.metrics.interp_fallback > 0, "did not fall back: {sql}");
        counted += q.metrics.interp_fallback;
    }
    assert_eq!(c.trace().counter_value("exec.interp_fallback"), counted);
    let line = |sql: &str| {
        let q = c.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        q.rows[0].get(0).as_str().unwrap().to_string()
    };
    assert!(line(&shapes[4]).contains("key_fallback=0 interp_fallback=0)"), "{}", line(&shapes[4]));
    let boxed_line = line("SELECT a, COUNT(*) FROM odd GROUP BY a");
    assert!(boxed_line.contains("key_fallback=") && !boxed_line.contains("key_fallback=0 "), "{boxed_line}");
    let fell = line(cast);
    assert!(fell.contains("interp_fallback=") && !fell.contains("interp_fallback=0)"), "{fell}");
}
