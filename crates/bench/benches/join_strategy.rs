//! E11 — join distribution strategies: runtime and bytes moved for the
//! same join under DS_DIST_NONE / DS_DIST_ALL_NONE / DS_BCAST_INNER
//! (§2.1's co-located join claim), and the aggregate's key lanes above a
//! join: the same 200k joined rows grouped by a BIGINT, a VARCHAR and
//! two VARCHAR columns of the dimension.

use redsim_testkit::bench::Bench;
use redsim_bench::datagen;
use redsim_core::{Cluster, ClusterConfig};
use std::sync::Arc;

const CLICKS: usize = 120_000;
const PRODUCTS: i64 = 8_000;

/// Build one cluster with clicks distributed three ways.
fn build() -> Arc<Cluster> {
    let c = Cluster::launch(ClusterConfig::new("e11").nodes(2).slices_per_node(4)).unwrap();
    // Co-located: both KEYed on product id.
    c.execute(datagen::CLICKS_DDL).unwrap();
    c.execute(datagen::PRODUCTS_DDL).unwrap();
    // EVEN variant of clicks: forces movement.
    c.execute(
        "CREATE TABLE clicks_even (user_id BIGINT, product_id BIGINT, ts TIMESTAMP,
         url VARCHAR(256), bytes BIGINT)",
    )
    .unwrap();
    // ALL variant of products: local copies everywhere.
    c.execute(
        "CREATE TABLE products_all (id BIGINT, name VARCHAR(128), category VARCHAR(32),
         price DECIMAL(10,2)) DISTSTYLE ALL",
    )
    .unwrap();
    let clicks = datagen::clicks(CLICKS, PRODUCTS, 11);
    for (i, obj) in datagen::clicks_csv(&clicks, 8).into_iter().enumerate() {
        c.put_s3_object(&format!("c/{i}"), obj.into_bytes());
    }
    for (i, obj) in datagen::products_csv(PRODUCTS, 11, 8).into_iter().enumerate() {
        c.put_s3_object(&format!("p/{i}"), obj.into_bytes());
    }
    c.execute("COPY clicks FROM 's3://c/'").unwrap();
    c.execute("COPY clicks_even FROM 's3://c/'").unwrap();
    c.execute("COPY products FROM 's3://p/'").unwrap();
    c.execute("COPY products_all FROM 's3://p/'").unwrap();
    c.execute("ANALYZE").unwrap();
    c
}

fn bench_join_strategies(c: &mut Bench) {
    let cluster = build();
    let cases = [
        (
            "DS_DIST_NONE (distkey both)",
            "SELECT COUNT(*) FROM clicks c JOIN products p ON c.product_id = p.id",
        ),
        (
            "DS_DIST_ALL_NONE (inner ALL)",
            "SELECT COUNT(*) FROM clicks_even c JOIN products_all p ON c.product_id = p.id",
        ),
        (
            "inner EVEN (planner picks bcast/dist)",
            "SELECT COUNT(*) FROM clicks_even c JOIN products p ON c.user_id = p.id",
        ),
    ];

    println!("\nE11 — bytes moved per strategy:");
    for (label, sql) in &cases {
        let r = cluster.query(sql).unwrap();
        println!(
            "  {label:<38} bcast={:>12} redist={:>12} plan={}",
            r.metrics.bytes_broadcast,
            r.metrics.bytes_redistributed,
            r.plan.lines().find(|l| l.contains("Join")).unwrap_or("?").trim()
        );
    }

    let mut g = c.group("join_strategy");
    g.sample_size(10);
    for (label, sql) in &cases {
        g.bench_function(*label, |b| {
            b.iter(|| cluster.query(sql).unwrap());
        });
    }
    g.finish();
}

const LANE_ROWS: usize = 200_000;
const LANE_DIMS: usize = 2_000;

/// Every fact row joins exactly one row of an ALL dimension, so each
/// GROUP BY below aggregates the same 200k joined rows into 8 (or 40)
/// groups and differs only in its key columns.
fn bench_aggregate_lanes(c: &mut Bench) {
    let cluster = Cluster::launch(ClusterConfig::new("e11-lanes").nodes(2).slices_per_node(4)).unwrap();
    cluster.execute("CREATE TABLE lane_fact (pid BIGINT, qty BIGINT) DISTKEY(pid)").unwrap();
    cluster
        .execute(
            "CREATE TABLE lane_dim (id BIGINT, code BIGINT, cat VARCHAR(8), region VARCHAR(8))
             DISTSTYLE ALL",
        )
        .unwrap();
    let cats = ["bolt", "nut", "gear", "cam", "rod", "pin", "cog", "hub"];
    let regions = ["na", "eu", "apac", "latam", "mea"];
    let fact: String =
        (0..LANE_ROWS).map(|r| format!("{},{}\n", r * 7919 % LANE_DIMS, r % 100)).collect();
    let dim: String = (0..LANE_DIMS)
        .map(|i| format!("{i},{},{},{}\n", i % 8, cats[i % 8], regions[i / 8 % 5]))
        .collect();
    cluster.put_s3_object("lf/0", fact.into_bytes());
    cluster.put_s3_object("ld/0", dim.into_bytes());
    cluster.execute("COPY lane_fact FROM 's3://lf/'").unwrap();
    cluster.execute("COPY lane_dim FROM 's3://ld/'").unwrap();
    cluster.execute("ANALYZE").unwrap();

    let mut g = c.group("aggregate_lanes");
    g.sample_size(10);
    for (label, keys) in
        [("GROUP BY BIGINT", "code"), ("GROUP BY VARCHAR", "cat"), ("GROUP BY VARCHAR, VARCHAR", "cat, region")]
    {
        let sql = format!(
            "SELECT {keys}, COUNT(*) AS n, SUM(qty) AS s FROM lane_fact JOIN lane_dim ON pid = id GROUP BY {keys}"
        );
        let r = cluster.query(&sql).unwrap();
        let joined: i64 = r.rows.iter().map(|row| row.get(row.len() - 2).as_i64().unwrap()).sum();
        assert_eq!(joined as usize, LANE_ROWS, "{sql}");
        g.bench_function(label, |b| {
            b.iter(|| cluster.query(&sql).unwrap());
        });
    }
    g.finish();
}

fn main() {
    let mut b = Bench::new("e11_join_strategy");
    b.json_summary_to("BENCH_e11.json");
    bench_join_strategies(&mut b);
    bench_aggregate_lanes(&mut b);
    let records = b.finish();
    // The two headline ratios, so a bench run documents itself.
    let p50 = |bench: &str| {
        records.iter().find(|r| r.bench.starts_with(bench)).map_or(f64::NAN, |r| r.p50_ns)
    };
    println!(
        "E11 ALL_NONE / DIST_NONE = {:.2} (target <= 1.2); GROUP BY VARCHAR / BIGINT = {:.2} (target <= 2)",
        p50("DS_DIST_ALL_NONE") / p50("DS_DIST_NONE"),
        p50("GROUP BY VARCHAR") / p50("GROUP BY BIGINT"),
    );
}
