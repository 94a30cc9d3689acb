//! COPY throughput bench — guards the write-transaction (snapshot /
//! install-or-rollback) machinery against regressions on the happy
//! path. The txn guard runs on *every* COPY, so its cost (cloning each
//! touched slice's buffered tail + catalog counters) must stay in the
//! noise relative to parse/encode/mirror work. `benchdiff` gates the
//! p50 against the pre-change baseline (results/copy_load_baseline.csv).
//!
//! `copy/load_8k_rows_4_objects` only ever loads a *fresh* table, so it
//! cannot see a load whose cost grows with the table. `nth_copy/{1,20}`
//! can: the same 10k × 4 COPY into a table holding 0 and 190k rows.
//! Statistics are folded from the batch, not rescanned from the table,
//! so the two must stay within 1.5× of each other (ci.sh checks).
//! `analyze_ns_per_value/{int,float,varchar}` is that fold alone — one
//! `TableStats::update` over a 100k-value column; p50 / 100k is ns per
//! value — which is also what `ANALYZE` pays per scanned value.
//! JSON point: `BENCH_copy_load.json`.

use redsim_common::{ColumnData, DataType, Value};
use redsim_core::{Cluster, ClusterConfig};
use redsim_storage::stats::TableStats;
use redsim_testkit::bench::Bench;

const OBJECTS: usize = 4;
const ROWS_PER_OBJECT: usize = 2_000;
const NTH_ROWS: usize = 10_000;
const LANE_VALUES: usize = 100_000;

fn main() {
    let mut b = Bench::new("copy_load");
    b.json_summary_to("BENCH_copy_load.json");
    let c = Cluster::launch(
        ClusterConfig::new("copy-bench").nodes(2).slices_per_node(2),
    )
    .unwrap();
    for o in 0..OBJECTS {
        let mut csv = String::new();
        for i in 0..ROWS_PER_OBJECT {
            let v = o * ROWS_PER_OBJECT + i;
            csv.push_str(&format!("{v},{},val-{v}\n", v * 3));
        }
        c.put_s3_object(&format!("load/{o}"), csv.into_bytes());
    }

    let mut g = b.group("copy");
    g.sample_size(10);
    g.throughput_elems((OBJECTS * ROWS_PER_OBJECT) as u64);
    let mut n = 0u64;
    g.bench_function("load_8k_rows_4_objects", |bch| {
        bch.iter(|| {
            n += 1;
            let t = format!("t{n}");
            c.execute(&format!(
                "CREATE TABLE {t} (a BIGINT, b BIGINT, s VARCHAR(32))"
            ))
            .unwrap();
            c.execute(&format!("COPY {t} FROM 's3://load/'")).unwrap();
            c.execute(&format!("DROP TABLE {t}")).unwrap();
        });
    });
    g.finish();

    // One 10k × 4 object, the etl_load shape (BIGINT, BIGINT, FLOAT8, VARCHAR).
    let mut csv = String::new();
    for i in 0..NTH_ROWS {
        csv.push_str(&format!("{i},{},{}.5,tag-{}\n", i * 7, i % 1_000, i % 64));
    }
    c.put_s3_object("nth/0", csv.into_bytes());
    let mut g = b.group("nth_copy");
    g.sample_size(10);
    g.throughput_elems(NTH_ROWS as u64);
    for nth in [1usize, 20] {
        g.bench_function(nth.to_string(), |bch| {
            bch.iter_batched(
                || {
                    c.execute("DROP TABLE IF EXISTS nth").unwrap();
                    c.execute("CREATE TABLE nth (id BIGINT, v BIGINT, amt FLOAT8, tag VARCHAR(16))")
                        .unwrap();
                    for _ in 1..nth {
                        c.execute("COPY nth FROM 's3://nth/'").unwrap();
                    }
                },
                |()| c.execute("COPY nth FROM 's3://nth/'").unwrap(),
            );
        });
    }
    g.finish();

    let lane = |ty: DataType, value: &dyn Fn(usize) -> Value| {
        let mut col = ColumnData::new(ty);
        for i in 0..LANE_VALUES {
            col.push_value(&value(i)).unwrap();
        }
        [col]
    };
    let lanes = [
        ("int", lane(DataType::Int8, &|i| Value::Int8((i * 7) as i64))),
        ("float", lane(DataType::Float8, &|i| Value::Float8(i as f64 * 0.5))),
        ("varchar", lane(DataType::Varchar, &|i| Value::Str(format!("tag-{}", i % 4_096)))),
    ];
    let mut g = b.group("analyze_ns_per_value");
    g.sample_size(10);
    g.throughput_elems(LANE_VALUES as u64);
    for (name, cols) in &lanes {
        g.bench_function(*name, |bch| bch.iter(|| TableStats::of(cols)));
    }
    g.finish();
    b.finish();
}
