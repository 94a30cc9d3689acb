//! E7 — query compilation: fixed per-query overhead vs tighter execution
//! (§2.1). Three paths at each data size:
//!
//! * `interpreted` — row-at-a-time general executor (no compile cost);
//! * `compile+run` — vectorized engine paying the compile cost per query
//!   (cold cache);
//! * `cached+run` — vectorized engine with a plan-cache hit.
//!
//! Expected shape: interpretation wins on tiny tables; compilation wins
//! from modest sizes; the cache removes the overhead entirely. A ratio row
//! per size bounds `cached_vectorized` over `interpreted` (DESIGN.md §2).

use redsim_testkit::bench::{Bench, BenchmarkId};
use redsim_core::{Cluster, ClusterConfig};
use std::sync::Arc;

const SQL: &str =
    "SELECT url, COUNT(*) AS n, SUM(bytes) FROM logs WHERE bytes > 500 GROUP BY url ORDER BY n DESC LIMIT 5";

fn build(rows: usize) -> Arc<Cluster> {
    // Calibrated compile cost (the default models codegen+gcc time).
    let c = Cluster::launch(
        ClusterConfig::new(format!("e7-{rows}"))
            .nodes(1)
            .slices_per_node(4)
            .compile_work(redsim_engine::compile::DEFAULT_WORK_PER_NODE / 10)
            .seed(7),
    )
    .unwrap();
    c.execute("CREATE TABLE logs (id BIGINT, url VARCHAR(64), bytes BIGINT)").unwrap();
    let mut csv = String::new();
    for i in 0..rows {
        csv.push_str(&format!("{i},/page/{},{}\n", i % 20, (i * 131) % 4_000));
    }
    c.put_s3_object("d/1", csv.into_bytes());
    c.execute("COPY logs FROM 's3://d/'").unwrap();
    c.execute("ANALYZE").unwrap();
    c
}

/// A cluster with zero compile cost isolates pure execution for the
/// cached path.
fn bench_compile(c: &mut Bench) {
    let sizes = [1_000usize, 10_000, 100_000];
    let clusters: Vec<(usize, Arc<Cluster>)> =
        sizes.iter().map(|&n| (n, build(n))).collect();

    println!("\nE7 — single-shot wall times (amortization shape):");
    for (rows, cluster) in &clusters {
        // Fresh plan (cold): vary the literal to force a compile.
        let cold_sql = format!(
            "SELECT url, COUNT(*) AS n, SUM(bytes) FROM logs WHERE bytes > {} GROUP BY url ORDER BY n DESC LIMIT 5",
            500 + rows % 7
        );
        let t0 = std::time::Instant::now();
        cluster.query(&cold_sql).unwrap();
        let cold = t0.elapsed();
        let t1 = std::time::Instant::now();
        cluster.query(&cold_sql).unwrap(); // cache hit
        let warm = t1.elapsed();
        let t2 = std::time::Instant::now();
        cluster.query_interpreted(&cold_sql).unwrap();
        let interp = t2.elapsed();
        println!(
            "  rows={rows:<8} compile+run={cold:>10.2?}  cached+run={warm:>10.2?}  interpreted={interp:>10.2?}"
        );
    }

    let mut g = c.group("e7");
    g.sample_size(10);
    for (rows, cluster) in &clusters {
        cluster.query(SQL).unwrap(); // prime the plan cache
        g.bench_with_input(BenchmarkId::new("cached_vectorized", rows), cluster, |b, cl| {
            b.iter(|| cl.query(SQL).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("interpreted", rows), cluster, |b, cl| {
            b.iter(|| cl.query_interpreted(SQL).unwrap());
        });
    }
    g.finish();
    // Each bound sits above the worst of ten runs (EXPERIMENTS.md "Bench gates").
    for (rows, max) in [("1000", 0.6), ("10000", 0.25), ("100000", 0.2)] {
        c.ratio(
            ["e7", "cached_vectorized", rows],
            ["e7", "interpreted", rows],
            max,
            "a cached plan runs the vectorized engine, not the row-at-a-time one",
        );
    }
}

fn main() {
    let mut b = Bench::new("e7_compile_vs_interpret");
    b.json_summary_to("BENCH_e7.json");
    bench_compile(&mut b);
    b.finish();
}
