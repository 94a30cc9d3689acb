//! COPY bench: the parts of a load whose cost could grow without the
//! end-to-end COPY time (the benchmark's `etl_load`) showing which.
//!
//! `nth_copy/{1,20}` is the same 10k × 4 COPY into a table holding 0 and
//! 190k rows. Statistics are folded from the batch, not rescanned from
//! the table, so a ratio row holds the 20th within 1.5× of the 1st.
//! `analyze_ns_per_value/{int,float,varchar}` is that fold alone — one
//! `TableStats::update` over a 100k-value column; p50 / 100k is ns per
//! value — which is also what `ANALYZE` pays per scanned value. A ratio
//! row bounds the VARCHAR lane over the BIGINT one: a string's distinct
//! count must not cost a boxed `Value` per row.
//! `seal/*` is the per-block work of sealing a group, beside the bench-local
//! reference each replaced: `crc32_64KiB` (slice-by-16, paid at creation
//! and once per replica put) against `crc32_bytewise_64KiB`, and
//! `zone_map_varchar_2500` (the typed min/max fold over one etl_load-shaped
//! 2,500-row VARCHAR block) against `zone_map_boxed_varchar_2500` (a
//! `Value` per row); a ratio row bounds each.
//! JSON point: `BENCH_copy_load.json`. The run exits non-zero when a ratio
//! row breaks (DESIGN.md §2).

use redsim_common::codec::crc32;
use redsim_common::{ColumnData, DataType, Value};
use redsim_core::{Cluster, ClusterConfig};
use redsim_storage::stats::TableStats;
use redsim_storage::ZoneMap;
use redsim_testkit::bench::Bench;
use std::hint::black_box;

const NTH_ROWS: usize = 10_000;
const LANE_VALUES: usize = 100_000;
/// The VARCHAR statistics lane over the BIGINT one: 2.58–2.83 in ten runs
/// (EXPERIMENTS.md "Bench gates").
const VARCHAR_OVER_INT: f64 = 3.5;
/// A sealed block's bytes, and one etl_load block's rows (10k rows over
/// four slices).
const SEAL_BYTES: usize = 64 * 1024;
const SEAL_ROWS: usize = 2_500;

/// The table of the bytewise CRC-32 `crc32` replaced.
fn crc32_table() -> [u32; 256] {
    std::array::from_fn(|i| {
        (0..8).fold(i as u32, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 })
    })
}

/// That CRC: one table lookup per byte.
fn crc32_bytewise(table: &[u32; 256], data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |c, &b| table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8))
}

/// The zone map a `Value`-per-row fold builds: what `ZoneMap::build` did
/// before its min/max became one typed fold.
fn zone_map_boxed(col: &ColumnData) -> ZoneMap {
    let (mut min, mut max): (Option<Value>, Option<Value>) = (None, None);
    for v in (0..col.len()).filter(|&i| !col.is_null(i)).map(|i| col.get(i)) {
        if min.as_ref().is_none_or(|m| v.cmp_sql(m).is_lt()) {
            min = Some(v.clone());
        }
        if max.as_ref().is_none_or(|m| v.cmp_sql(m).is_gt()) {
            max = Some(v);
        }
    }
    ZoneMap { min, max, null_count: col.null_count() as u32, rows: col.len() as u32 }
}

/// `seal/*`: the two per-block passes of sealing a group, each beside the
/// reference it replaced (outputs asserted equal before timing).
fn bench_seal(b: &mut Bench) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let bytes: Vec<u8> = (0..SEAL_BYTES)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect();
    let table = crc32_table();
    assert_eq!(crc32(&bytes), crc32_bytewise(&table, &bytes));
    // etl_load's `tag` column: "<status>-<0..100>".
    let mut tags = ColumnData::new(DataType::Varchar);
    for i in 0..SEAL_ROWS {
        let tag = format!("{}-{}", ["new", "paid", "held", "void", "sent", "done"][i * 7 % 6], i * 31 % 100);
        tags.push_value(&Value::Str(tag)).unwrap();
    }
    assert_eq!(ZoneMap::build(&tags), zone_map_boxed(&tags));
    let mut g = b.group("seal");
    g.sample_size(10);
    g.throughput_elems(SEAL_BYTES as u64);
    g.bench_function("crc32_64KiB", |bch| bch.iter(|| crc32(black_box(&bytes))));
    g.bench_function("crc32_bytewise_64KiB", |bch| {
        bch.iter(|| crc32_bytewise(&table, black_box(&bytes)))
    });
    g.throughput_elems(SEAL_ROWS as u64);
    g.bench_function("zone_map_varchar_2500", |bch| bch.iter(|| ZoneMap::build(black_box(&tags))));
    g.bench_function("zone_map_boxed_varchar_2500", |bch| {
        bch.iter(|| zone_map_boxed(black_box(&tags)))
    });
    g.finish();
    b.ratio(
        ["seal", "crc32_64KiB", ""],
        ["seal", "crc32_bytewise_64KiB", ""],
        0.4,
        "the block CRC is slice-by-16, not a table lookup per byte",
    );
    b.ratio(
        ["seal", "zone_map_varchar_2500", ""],
        ["seal", "zone_map_boxed_varchar_2500", ""],
        0.5,
        "a zone map is one typed min/max fold, not a Value per row",
    );
}

fn main() {
    let mut b = Bench::new("copy_load");
    b.json_summary_to("BENCH_copy_load.json");
    let c = Cluster::launch(
        ClusterConfig::new("copy-bench").nodes(2).slices_per_node(2),
    )
    .unwrap();

    // One 10k × 4 object, the etl_load shape (BIGINT, BIGINT, FLOAT8, VARCHAR).
    let mut csv = String::new();
    for i in 0..NTH_ROWS {
        csv.push_str(&format!("{i},{},{}.5,tag-{}\n", i * 7, i % 1_000, i % 64));
    }
    c.put_s3_object("nth/0", csv.into_bytes());
    let mut g = b.group("nth_copy");
    g.sample_size(10);
    g.throughput_elems(NTH_ROWS as u64);
    let c = &c;
    for nth in [1usize, 20] {
        g.bench_function(nth.to_string(), move |bch| {
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
    b.ratio(
        ["nth_copy", "20", ""],
        ["nth_copy", "1", ""],
        1.5,
        "COPY folds statistics from the batch; a rescan of the table cost 5.6x",
    );

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
    b.ratio(
        ["analyze_ns_per_value", "varchar", ""],
        ["analyze_ns_per_value", "int", ""],
        VARCHAR_OVER_INT,
        "a VARCHAR's statistics fold its bytes, not a boxed Value per row",
    );
    bench_seal(&mut b);
    b.finish();
}
