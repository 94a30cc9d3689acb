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
//! `seal/*` is the per-block work of sealing a group, beside the bench-local
//! reference each replaced: `crc32_64KiB` (slice-by-16, paid at creation
//! and once per replica put) against `crc32_bytewise_64KiB`, and
//! `zone_map_varchar_2500` (the typed min/max fold over one etl_load-shaped
//! 2,500-row VARCHAR block) against `zone_map_boxed_varchar_2500` (a
//! `Value` per row). `cargo bench --bench copy_load -- seal` times only
//! this group, into `results/copy_load_seal.csv` and no JSON point
//! (`ci.sh` runs it).
//! JSON point: `BENCH_copy_load.json`.

use redsim_common::codec::crc32;
use redsim_common::{ColumnData, DataType, Value};
use redsim_core::{Cluster, ClusterConfig};
use redsim_storage::stats::TableStats;
use redsim_storage::ZoneMap;
use redsim_testkit::bench::Bench;
use std::hint::black_box;

const OBJECTS: usize = 4;
const ROWS_PER_OBJECT: usize = 2_000;
const NTH_ROWS: usize = 10_000;
const LANE_VALUES: usize = 100_000;
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
}

fn main() {
    let seal_only = std::env::args().skip(1).any(|a| a == "seal");
    // The seal-only run writes its own CSV and no JSON point, so it never
    // overwrites the full run's.
    let mut b = Bench::new(if seal_only { "copy_load_seal" } else { "copy_load" });
    if seal_only {
        bench_seal(&mut b);
        print_seal_ratios(&b.finish());
        return;
    }
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
    bench_seal(&mut b);
    print_seal_ratios(&b.finish());
}

fn print_seal_ratios(records: &[redsim_testkit::bench::Record]) {
    let p50 = |bench: &str| {
        records.iter().find(|r| r.group == "seal" && r.bench == bench).map_or(f64::NAN, |r| r.p50_ns)
    };
    println!(
        "seal crc32 slice-by-16/bytewise p50 ratio = {:.2}x; zone map typed/boxed p50 ratio = {:.2}x",
        p50("crc32_64KiB") / p50("crc32_bytewise_64KiB"),
        p50("zone_map_varchar_2500") / p50("zone_map_boxed_varchar_2500"),
    );
}
