//! The paper's "future work", running: §3.2's self-maintaining database,
//! §4's automatic relationalization of semi-structured data, and §5's
//! usage telemetry, read from the system tables.
//!
//! ```text
//! cargo run --example self_driving
//! ```

use redshift_sim::core::{Cluster, ClusterConfig, MaintenancePolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = Cluster::launch(
        ClusterConfig::new("selfdrive").nodes(2).slices_per_node(2).rows_per_group(256),
    )?;

    // --- §4: a JSON "data lake" lands without any schema -------------
    let mut lake = String::new();
    for i in 0..5_000 {
        lake.push_str(&format!(
            concat!(
                "{{\"device_id\": {}, \"reading\": {}.{:02}, \"ok\": {}, ",
                "\"seen\": \"2015-06-{:02} {:02}:{:02}:00\"}}\n"
            ),
            i % 300,
            15 + i % 40,
            i % 100,
            i % 11 != 0,
            1 + i % 28,
            i % 24,
            i % 60,
        ));
    }
    cluster.put_s3_object("lake/devices.json", lake.into_bytes());
    let (ddl, rows) = cluster.relationalize_json("readings", "s3://lake/")?;
    println!("auto-relationalized {rows} JSON rows with inferred schema:\n  {ddl}\n");

    // --- normal analytics traffic -------------------------------------
    for _ in 0..3 {
        cluster.query(
            "SELECT device_id, COUNT(*) AS n, AVG(reading) AS mean
             FROM readings WHERE ok GROUP BY device_id ORDER BY mean DESC LIMIT 5",
        )?;
    }
    let daily = cluster.query(
        "SELECT date_part('day', seen) AS d, COUNT(*) FROM readings GROUP BY date_part('day', seen) ORDER BY d LIMIT 3",
    )?;
    println!("first 3 days of readings:");
    for row in &daily.rows {
        println!("  day {:>2}: {}", row.get(0), row.get(1));
    }

    // A small reference table arrives (EVEN by default).
    cluster.execute("CREATE TABLE device_types (id BIGINT, kind VARCHAR(16))")?;
    for i in 0..300 {
        cluster.execute(&format!(
            "INSERT INTO device_types VALUES ({i}, 'kind{}')",
            i % 6
        ))?;
    }
    cluster.execute("ANALYZE device_types")?;

    // --- §3.2: the database maintains itself --------------------------
    // More raw data lands (unsorted, stats now stale) …
    let before = cluster.query(
        "SELECT COUNT(*) FROM readings d JOIN device_types t ON d.device_id = t.id",
    )?;
    println!(
        "\njoin before self-maintenance: bytes moved = {}",
        before.metrics.exchange_bytes()
    );
    // Policy: only genuinely small tables become ALL copies.
    let policy = MaintenancePolicy { auto_all_max_rows: Some(1_000), ..Default::default() };
    let actions = cluster.maintenance_tick(&policy)?;
    println!("maintenance tick took {} actions:", actions.len());
    for a in &actions {
        println!("  {a:?}");
    }
    let after = cluster.query(
        "SELECT COUNT(*) FROM readings d JOIN device_types t ON d.device_id = t.id",
    )?;
    println!(
        "join after self-maintenance: bytes moved = {} (device_types is now DISTSTYLE ALL)",
        after.metrics.exchange_bytes()
    );
    assert_eq!(before.rows, after.rows);

    // --- §5: what the fleet telemetry would ship home -----------------
    // Every executed query's plan is in `stl_explain`, one row per node.
    let nodes = cluster.query(
        "SELECT plannode, COUNT(*) AS n FROM stl_explain GROUP BY plannode ORDER BY n DESC LIMIT 4",
    )?;
    println!("\ntop plan nodes:");
    for row in &nodes.rows {
        println!("  {}x  {}", row.get(1), row.get(0));
    }
    Ok(())
}
