//! Concurrent COPY scaling bench — the point of per-table writer locks.
//!
//! Before multi-writer transactions every COPY serialized on one global
//! write mutex; with per-table writer locks, writers on *distinct*
//! tables overlap (the structural guarantee is pinned by
//! `table_writers_are_independent_and_conflicts_are_serializable` in
//! redsim-core, which commits into table B while table A's writer mutex
//! is held). This bench tracks the cost side: 1 vs 4 concurrent writers
//! on distinct tables. Four writers do four times the work; on a
//! multi-core runner they overlap, and a ratio row bounds the 4-writer
//! p50 over the 1-writer p50, so a reintroduced global lock that
//! serializes them fails the run (DESIGN.md §2). ANALYZE is a table
//! writer too (DESIGN.md §15): a second row bounds one COPY beside an
//! ANALYZE of another table over one COPY alone, so an ANALYZE that
//! waits out the COPY again fails the run. (ANALYZE, not VACUUM: its
//! cost repeats on every iteration, while VACUUM's vanishes once the
//! table is sorted.)

use redsim_core::{Cluster, ClusterConfig};
use redsim_testkit::bench::Bench;
use redsim_testkit::par;
use std::cell::Cell;

const WRITERS: usize = 4;
const ROWS_PER_OBJECT: usize = 2_000;
/// Rows of the table ANALYZE reads: one ANALYZE costs about one COPY.
const ANALYZED_ROWS: usize = 35_000;
// The bounds: each above the worst of ten runs on a 2-vCPU box
// (EXPERIMENTS.md "Bench gates").
const FOUR_OVER_ONE: f64 = 4.0;
const BESIDE_OVER_ALONE: f64 = 2.8;

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
    let csv: String = (0..ANALYZED_ROWS).map(|v| format!("{v},{},val-{}\n", v * 7, v % 997)).collect();
    c.put_s3_object("analyzed/data", csv.into_bytes());
    c.execute("CREATE TABLE analyzed (a BIGINT, b BIGINT, s VARCHAR(32))").unwrap();
    c.execute("COPY analyzed FROM 's3://analyzed/'").unwrap();

    let mut g = b.group("copy_writers");
    g.sample_size(10);
    // One table-name counter for every arm, whose iterations interleave.
    let (next, c) = (&Cell::new(0u64), &c);
    for (writers, analyze) in [(1usize, false), (WRITERS, false), (1, true)] {
        g.throughput_elems((writers * ROWS_PER_OBJECT) as u64);
        let arm = match analyze {
            true => "copy_beside_analyze_of_another_table".to_string(),
            false => format!("{writers}_writers_distinct_tables"),
        };
        g.bench_function(arm, move |bch| {
            bch.iter(|| {
                let n = next.get() + 1;
                next.set(n);
                for w in 0..writers {
                    c.execute(&format!(
                        "CREATE TABLE t{n}_{w} (a BIGINT, b BIGINT, s VARCHAR(32))"
                    ))
                    .unwrap();
                }
                let copies = || {
                    par::map((0..writers).collect::<Vec<_>>(), |w| {
                        c.execute(&format!("COPY t{n}_{w} FROM 's3://w{w}/'")).unwrap();
                    })
                };
                match analyze {
                    true => drop(par::join(copies, || c.execute("ANALYZE analyzed").unwrap())),
                    false => drop(copies()),
                }
                for w in 0..writers {
                    c.execute(&format!("DROP TABLE t{n}_{w}")).unwrap();
                }
            });
        });
    }
    g.finish();
    b.ratio(
        ["copy_writers", "4_writers_distinct_tables", ""],
        ["copy_writers", "1_writers_distinct_tables", ""],
        FOUR_OVER_ONE,
        "COPYs into distinct tables overlap: no global write lock",
    );
    b.ratio(
        ["copy_writers", "copy_beside_analyze_of_another_table", ""],
        ["copy_writers", "1_writers_distinct_tables", ""],
        BESIDE_OVER_ALONE,
        "a COPY and an ANALYZE of another table overlap: ANALYZE is a table writer",
    );
    b.finish();
}
