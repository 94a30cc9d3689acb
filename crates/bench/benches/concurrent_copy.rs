//! Concurrent COPY scaling bench — the point of per-table writer locks.
//!
//! Before multi-writer transactions every COPY serialized on one global
//! write mutex; with per-table writer locks, writers on *distinct*
//! tables overlap (the structural guarantee is pinned by
//! `table_writers_are_independent_and_conflicts_are_serializable` in
//! redsim-core, which commits into table B while table A's writer mutex
//! is held). This bench tracks the cost side: 1 vs 4 concurrent writers
//! on distinct tables. On a multi-core runner the 4-writer case shows
//! wall-clock overlap; on any runner, `benchdiff` gates both p50 and
//! p99 against the committed baseline
//! (results/concurrent_copy_baseline.csv) — a reintroduced global lock
//! or a heavier txn/WAL path shows up as convoyed outliers in the tail
//! before it moves the median.

use redsim_core::{Cluster, ClusterConfig};
use redsim_testkit::bench::Bench;
use redsim_testkit::par;

const WRITERS: usize = 4;
const ROWS_PER_OBJECT: usize = 2_000;

fn main() {
    let mut b = Bench::new("concurrent_copy");
    b.json_summary_to("BENCH_concurrent_copy.json");
    let c = Cluster::launch(
        ClusterConfig::new("ccopy-bench").nodes(2).slices_per_node(2),
    )
    .unwrap();
    for w in 0..WRITERS {
        let mut csv = String::new();
        for i in 0..ROWS_PER_OBJECT {
            let v = w * ROWS_PER_OBJECT + i;
            csv.push_str(&format!("{v},{},val-{v}\n", v * 3));
        }
        c.put_s3_object(&format!("w{w}/data"), csv.into_bytes());
    }

    let mut g = b.group("copy_writers");
    g.sample_size(10);
    let mut n = 0u64;
    for writers in [1usize, WRITERS] {
        g.throughput_elems((writers * ROWS_PER_OBJECT) as u64);
        g.bench_function(format!("{writers}_writers_distinct_tables"), |bch| {
            bch.iter(|| {
                n += 1;
                for w in 0..writers {
                    c.execute(&format!(
                        "CREATE TABLE t{n}_{w} (a BIGINT, b BIGINT, s VARCHAR(32))"
                    ))
                    .unwrap();
                }
                let m = n;
                par::map((0..writers).collect::<Vec<_>>(), |w| {
                    c.execute(&format!("COPY t{m}_{w} FROM 's3://w{w}/'")).unwrap();
                });
                for w in 0..writers {
                    c.execute(&format!("DROP TABLE t{n}_{w}")).unwrap();
                }
            });
        });
    }
    g.finish();
    b.finish();
}
