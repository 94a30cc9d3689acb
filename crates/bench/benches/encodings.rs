//! E9 — compression encodings: size and decode speed per data shape, and the
//! automatic analyzer's pick vs the oracle (§2.1's "dusty knob"). The
//! decode group times each shape's pick, and `raw` beside it for each
//! integer shape; a ratio row bounds delta over raw decode for each shape
//! where delta is picked (DESIGN.md §2).

use redsim_testkit::bench::{Bench, BenchmarkId};
use redsim_common::{mix64, ColumnData, DataType, Value};
use redsim_storage::analyzer::{analyze_compression, encoding_report};
use redsim_storage::encoding::{decode_column, encode_column, Encoding};

const ROWS: usize = 50_000;
/// One block of a table: `rows_per_group`'s default.
const BLOCK_ROWS: usize = 4_096;
/// The shapes the analyzer encodes as delta, and the bound on their decode
/// over a raw decode: above the worst of ten runs (EXPERIMENTS.md "Bench
/// gates").
const DELTA_PICKS: [&str; 4] = ["int-sorted", "int-random", "int-small-random", "int-key-500"];
const DELTA_OVER_RAW: f64 = 4.0;

fn shapes() -> Vec<(&'static str, ColumnData)> {
    let mut sorted = ColumnData::new(DataType::Int8);
    let mut runs = ColumnData::new(DataType::Int8);
    let mut random = ColumnData::new(DataType::Int8);
    let mut small = ColumnData::new(DataType::Int8);
    // Uniform over 0..5,000, the `adhoc_scan` benchmark's `cust` / `pid`
    // shape: two-byte delta steps in random order.
    let mut small_random = ColumnData::new(DataType::Int8);
    // Uniform over 0..500, the `star_join` benchmark's `sid` shape: about
    // one step in eight fits a byte, so one- and two-byte steps mix.
    let mut key_500 = ColumnData::new(DataType::Int8);
    for i in 0..ROWS as i64 {
        small_random.push_value(&Value::Int8((mix64(i as u64) % 5_000) as i64)).unwrap();
        key_500.push_value(&Value::Int8((mix64((ROWS as i64 + i) as u64) % 500) as i64)).unwrap();
        sorted.push_value(&Value::Int8(1_000_000_000 + i * 3)).unwrap();
        runs.push_value(&Value::Int8(i / 5_000)).unwrap();
        random
            .push_value(&Value::Int8((i.wrapping_mul(2_654_435_761)) % 1_000_000_007))
            .unwrap();
        small.push_value(&Value::Int8((i * 37) % 100)).unwrap();
    }
    let mut urls = ColumnData::new(DataType::Varchar);
    let mut cats = ColumnData::new(DataType::Varchar);
    let regions = ["us-east", "us-west", "eu-central", "ap-south"];
    for i in 0..ROWS {
        urls.push_value(&Value::Str(format!(
            "https://www.amazon.com/gp/product/B{:09}/ref=sr_1_{}",
            i % 5_000,
            i % 40
        )))
        .unwrap();
        cats.push_value(&Value::Str(regions[i % 4].into())).unwrap();
    }
    // One block of the `adhoc_scan` benchmark's `note` column:
    // `color-NNN` in random order, about 3,400 distinct values.
    let colors = ["red", "blue", "green", "amber", "black", "white", "cyan", "pink"];
    let mut notes = ColumnData::new(DataType::Varchar);
    for i in 0..BLOCK_ROWS as u64 {
        let x = mix64(2 * ROWS as u64 + i);
        let note = format!("{}-{:03}", colors[(x % 8) as usize], (x >> 8) % 1_000);
        notes.push_value(&Value::Str(note)).unwrap();
    }
    vec![
        ("int-sorted", sorted),
        ("int-runs", runs),
        ("int-random", random),
        ("int-small", small),
        ("int-small-random", small_random),
        ("int-key-500", key_500),
        ("text-urls", urls),
        ("text-lowcard", cats),
        ("text-notes", notes),
    ]
}

fn bench_encodings(c: &mut Bench) {
    let shapes = shapes();

    // Report table once: sizes per encoding + analyzer pick vs oracle.
    println!("\nE9 — encoded size (bytes) per encoding; * = analyzer pick, ! = oracle best");
    for (name, col) in &shapes {
        let report = encoding_report(col);
        let pick = analyze_compression(col, 4_096);
        let best = report.iter().min_by_key(|&&(_, s)| s).map(|&(e, _)| e).unwrap();
        let cells: Vec<String> = report
            .iter()
            .map(|(e, s)| {
                format!(
                    "{e}{}{}={s}",
                    if *e == pick { "*" } else { "" },
                    if *e == best { "!" } else { "" }
                )
            })
            .collect();
        println!("  {name:<14} {}", cells.join("  "));
    }

    // Each shape's pick; a note block's two candidates; raw beside each
    // integer pick.
    let mut blocks = Vec::new();
    for (name, col) in &shapes {
        let pick = analyze_compression(col, 4_096);
        let mut encs = vec![pick];
        if *name == "text-notes" && pick != Encoding::Dict {
            encs.push(Encoding::Dict);
        }
        if col.data_type() == DataType::Int8 && pick != Encoding::Raw {
            encs.push(Encoding::Raw);
        }
        blocks.extend(encs.into_iter().map(|enc| (enc, *name, encode_column(col, enc).unwrap())));
    }
    let mut g = c.group("decode");
    g.sample_size(10);
    for (enc, name, bytes) in &blocks {
        g.bench_with_input(BenchmarkId::new(enc, name), bytes, |b, bytes| {
            b.iter(|| decode_column(bytes, None).unwrap());
        });
    }
    g.finish();
    for shape in DELTA_PICKS {
        c.ratio(
            ["decode", "delta", shape],
            ["decode", "raw", shape],
            DELTA_OVER_RAW,
            "a delta block decodes by unpacking its miniblocks, not a varint per value",
        );
    }
}

fn main() {
    let mut b = Bench::new("e9_encodings");
    b.json_summary_to("BENCH_e9.json");
    bench_encodings(&mut b);
    b.finish();
}
