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
//! `parse/etl_10k` is one etl_load body through `loader::parse_csv` (one
//! byte scan per unit, exact ASCII number paths) beside
//! `parse/etl_10k_split`, the `str::lines` / `split` / `trim` /
//! `str::parse` path it replaced; `append/bulk_10k` moves that batch with
//! `ColumnData::append` (typed bulk copies) beside `append/push_from_10k`,
//! a `push_from` per row; a ratio row bounds each.
//! `stats/etl_unit_5k` is one 5,000-row etl_load unit's statistics, the
//! partial each COPY unit builds: `fresh` (a new table's first unit) and
//! `seeded` (under the limits of a record that already holds the body, as
//! every later COPY folds), beside `per_value`, the bench-local fold it
//! replaced (every hash inserted one at a time, an `Option` pair of
//! bounds per value); a ratio row bounds `seeded` over `per_value`.
//! JSON point: `BENCH_copy_load.json`. The run exits non-zero when a ratio
//! row breaks (DESIGN.md §2).

use redsim_common::codec::crc32;
use redsim_common::{Bitmap, ColumnData, ColumnDef, DataType, Schema, StrVec, Value};
use redsim_core::{loader, Cluster, ClusterConfig};
use redsim_storage::stats::TableStats;
use redsim_storage::ZoneMap;
use redsim_common::types::canon_f64;
use redsim_common::{fx_hash64, mix64};
use redsim_storage::stats::KmvSketch;
use redsim_testkit::bench::{Bench, BenchmarkId};
use std::hint::black_box;

const NTH_ROWS: usize = 10_000;
const LANE_VALUES: usize = 100_000;
/// The VARCHAR statistics lane over the BIGINT one: 2.58–2.83 in ten runs,
/// 2.98–3.16 once units fold under the record's limits (EXPERIMENTS.md
/// "Bench gates").
const VARCHAR_OVER_INT: f64 = 3.5;
/// `parse/etl_10k` over `parse/etl_10k_split`: 0.578–0.759 in eleven runs;
/// `append/bulk_10k` over `append/push_from_10k`: 0.028–0.039
/// (EXPERIMENTS.md "Bench gates").
const PARSE_OVER_SPLIT: f64 = 0.85;
const BULK_OVER_PUSH_FROM: f64 = 0.1;
/// `stats/etl_unit_5k/seeded` over `stats/etl_unit_5k/per_value`:
/// 0.288–0.343 in ten runs (EXPERIMENTS.md "Bench gates").
const SEEDED_OVER_PER_VALUE: f64 = 0.5;
/// A sealed block's bytes, and one etl_load block's rows (10k rows over
/// four slices).
const SEAL_BYTES: usize = 64 * 1024;
const SEAL_ROWS: usize = 2_500;
/// One etl_load body's rows, and the rows `stats/etl_unit_5k` folds.
const ETL_ROWS: usize = 10_000;
const UNIT_ROWS: usize = 5_000;

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

/// An etl_load-shaped body: `id,v,amt,tag` with `amt` in cents.
fn etl_csv() -> String {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    let tags = ["new", "paid", "held", "void", "sent", "done"];
    (0..ETL_ROWS)
        .map(|r| {
            let (v, cents) = (next(1_000_000), next(1_000_000));
            let tag = tags[next(6) as usize];
            format!("{r},{v},{}.{:02},{tag}-{}\n", cents / 100, cents % 100, next(100))
        })
        .collect()
}

/// The parse `loader::parse_csv` replaced, for the etl_load columns:
/// `str::lines`, `split`, `trim`, then `str::parse` into typed vectors.
fn parse_split(text: &str) -> Vec<ColumnData> {
    let (mut id, mut v, mut amt, mut tag) = (Vec::new(), Vec::new(), Vec::new(), StrVec::new());
    for line in text.lines().filter(|l| !l.is_empty()) {
        let mut f = line.split(',').map(str::trim);
        let mut next = || f.next().expect("four fields");
        id.push(next().parse::<i64>().expect("BIGINT"));
        v.push(next().parse::<i64>().expect("BIGINT"));
        amt.push(next().parse::<f64>().expect("FLOAT8"));
        tag.push(next());
    }
    let valid = || Bitmap::all_valid(id.len());
    vec![
        ColumnData::Int8 { nulls: valid(), data: id.clone() },
        ColumnData::Int8 { nulls: valid(), data: v },
        ColumnData::Float8 { nulls: valid(), data: amt },
        ColumnData::Str { nulls: valid(), data: tag },
    ]
}

/// `parse/*` and `append/*`: the two per-row stages of a COPY unit, each
/// beside the per-row path it replaced (outputs asserted equal first).
fn bench_unit(b: &mut Bench) {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int8),
        ColumnDef::new("v", DataType::Int8),
        ColumnDef::new("amt", DataType::Float8),
        ColumnDef::new("tag", DataType::Varchar),
    ])
    .unwrap();
    let csv = etl_csv();
    let batch = loader::parse_csv(&csv, 1, ',', &schema).unwrap();
    assert_eq!(batch, parse_split(&csv));
    let empty = || batch.iter().map(|c| ColumnData::new(c.data_type())).collect::<Vec<_>>();
    let by_row = || {
        let mut out = empty();
        for (o, c) in out.iter_mut().zip(&batch) {
            (0..c.len()).for_each(|i| o.push_from(c, i));
        }
        out
    };
    let bulk = || {
        let mut out = empty();
        out.iter_mut().zip(&batch).for_each(|(o, c)| o.append(c));
        out
    };
    assert_eq!(bulk(), by_row());
    let mut g = b.group("parse");
    g.sample_size(10);
    g.throughput_elems(ETL_ROWS as u64);
    g.bench_function("etl_10k", |bch| bch.iter(|| loader::parse_csv(black_box(&csv), 1, ',', &schema)));
    g.bench_function("etl_10k_split", |bch| bch.iter(|| parse_split(black_box(&csv))));
    g.finish();
    let mut g = b.group("append");
    g.sample_size(10);
    g.throughput_elems(ETL_ROWS as u64);
    g.bench_function("bulk_10k", |bch| bch.iter(bulk));
    g.bench_function("push_from_10k", |bch| bch.iter(by_row));
    g.finish();
    b.ratio(
        ["parse", "etl_10k", ""],
        ["parse", "etl_10k_split", ""],
        PARSE_OVER_SPLIT,
        "a unit is cut in one byte scan and its numbers parse on exact ASCII paths",
    );
    b.ratio(
        ["append", "bulk_10k", ""],
        ["append", "push_from_10k", ""],
        BULK_OVER_PUSH_FROM,
        "a batch moves as typed bulk copies, not a push_from per row",
    );
}

/// The per-unit fold `TableStats::of_limited` replaced, for the etl_load
/// columns: one sketch per column from empty, every value's hash through
/// `KmvSketch::insert_hash` (a binary search and a `Vec::insert` until the
/// sketch fills), bounds as an `Option` pair rebuilt per value.
fn fold_per_value(cols: &[ColumnData]) -> Vec<(KmvSketch, Option<(Value, Value)>)> {
    fn lane<T: Copy>(
        lane: impl Iterator<Item = T>,
        nulls: &Bitmap,
        key: impl Fn(T) -> u64,
        lt: impl Fn(&T, &T) -> bool,
        value: impl Fn(T) -> Value,
    ) -> (KmvSketch, Option<(Value, Value)>) {
        let mut sketch = KmvSketch::new(256);
        let mut bounds: Option<(T, T)> = None;
        for (x, _) in lane.zip(nulls.iter()).filter(|(_, valid)| *valid) {
            sketch.insert_hash(mix64(key(x)));
            let (lo, hi) = bounds.unwrap_or((x, x));
            bounds = Some((if lt(&x, &lo) { x } else { lo }, if lt(&hi, &x) { x } else { hi }));
        }
        (sketch, bounds.map(|(lo, hi)| (value(lo), value(hi))))
    }
    let str_value = |s: &[u8]| Value::Str(String::from_utf8_lossy(s).into_owned());
    cols.iter()
        .map(|col| match col {
            ColumnData::Int8 { data, nulls } => {
                lane(data.iter().copied(), nulls, |x| x as u64, i64::lt, Value::Int8)
            }
            ColumnData::Float8 { data, nulls } => {
                let lt = |a: &f64, b: &f64| a < b;
                lane(data.iter().map(|&x| canon_f64(x)), nulls, f64::to_bits, lt, Value::Float8)
            }
            ColumnData::Str { data, nulls } => {
                let rows = (0..data.len()).map(|i| data.bytes_at(i));
                lane(rows, nulls, |s| fx_hash64(s), |a, b| a < b, str_value)
            }
            _ => unreachable!("the etl_load columns"),
        })
        .collect()
}

/// `stats/etl_unit_5k/*`: one COPY unit's statistics partial, fresh and
/// seeded, beside the per-value fold it replaced.
fn bench_unit_stats(b: &mut Bench) {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int8),
        ColumnDef::new("v", DataType::Int8),
        ColumnDef::new("amt", DataType::Float8),
        ColumnDef::new("tag", DataType::Varchar),
    ])
    .unwrap();
    let body = loader::parse_csv(&etl_csv(), 1, ',', &schema).unwrap();
    let unit: Vec<ColumnData> = body.iter().map(|c| c.slice(0, UNIT_ROWS)).collect();
    // The record after the first COPY of the body: what COPY 2..20 fold under.
    let limits = TableStats::of(&body).limits();
    let fresh = TableStats::of(&unit);
    for (col, (sketch, bounds)) in fresh.columns.iter().zip(fold_per_value(&unit)) {
        assert_eq!(col.ndv(), sketch.estimate());
        assert_eq!((col.min.clone(), col.max.clone()), bounds.unzip());
    }
    let mut g = b.group("stats");
    g.sample_size(10);
    g.throughput_elems(UNIT_ROWS as u64);
    let arm = |input: &str| BenchmarkId::new("etl_unit_5k", input);
    g.bench_with_input(arm("fresh"), &unit, |bch, u| bch.iter(|| TableStats::of(black_box(u))));
    g.bench_with_input(arm("seeded"), &unit, |bch, u| {
        bch.iter(|| TableStats::of_limited(black_box(u), &limits))
    });
    g.bench_with_input(arm("per_value"), &unit, |bch, u| bch.iter(|| fold_per_value(black_box(u))));
    g.finish();
    b.ratio(
        ["stats", "etl_unit_5k", "seeded"],
        ["stats", "etl_unit_5k", "per_value"],
        SEEDED_OVER_PER_VALUE,
        "a COPY unit folds under the record's limits in typed lanes, not a sorted insert per hash",
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
    bench_unit(&mut b);
    bench_unit_stats(&mut b);
    b.finish();
}
