//! Property tests for the storage layer's core invariants.

use redsim_common::codec::{Reader, Writer};
use redsim_common::{ColumnData, ColumnDef, DataType, Schema, Value};
use redsim_storage::table::{ColumnRange, ScanPredicate, SliceTable, SortKeySpec, TableConfig};
use redsim_storage::MemBlockStore;
use redsim_testkit::prop::{self, Config, Gen};

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int8),
        ColumnDef::new("v", DataType::Varchar),
    ])
    .unwrap()
}

fn build_table(
    rows: &[(i64, Option<String>)],
    sort: SortKeySpec,
    rows_per_group: usize,
) -> (MemBlockStore, SliceTable) {
    let store = MemBlockStore::new();
    let mut t = SliceTable::new(
        schema(),
        TableConfig { rows_per_group, sort_key: sort, auto_compress: true },
    )
    .unwrap();
    let mut k = ColumnData::new(DataType::Int8);
    let mut v = ColumnData::new(DataType::Varchar);
    for (a, b) in rows {
        k.push_value(&Value::Int8(*a)).unwrap();
        match b {
            Some(s) => v.push_value(&Value::Str(s.clone())).unwrap(),
            None => v.push_null(),
        }
    }
    t.append(&[k, v], &store).unwrap();
    t.flush(&store).unwrap();
    (store, t)
}

fn all_rows(store: &MemBlockStore, t: &SliceTable) -> Vec<(Option<i64>, Option<String>)> {
    let mut rows = Vec::new();
    t.scan(store, &[0, 1], None, |b| {
        rows.extend((0..b[0].len()).map(|i| (b[0].get_i64(i), b[1].get_str(i).map(str::to_string))));
        Ok(())
    })
    .unwrap();
    rows
}

/// `(key, optional short string)` rows, the bread-and-butter table shape.
fn arb_rows(max_str: &'static str, len: std::ops::Range<usize>) -> Gen<Vec<(i64, Option<String>)>> {
    prop::vec_of(
        prop::pair(prop::any_i64(), prop::option_of(prop::pattern(max_str))),
        len,
    )
}

/// Whatever goes in comes back out (append/flush/scan), regardless of
/// group size and data shape.
#[test]
fn scan_returns_exactly_what_was_appended() {
    let gen = prop::pair(arb_rows("[a-z]{0,8}", 0..300), prop::range(1usize..64));
    prop::check(
        "scan_returns_exactly_what_was_appended",
        &Config::with_cases(48),
        &gen,
        |(rows, rows_per_group)| {
            let (store, t) = build_table(rows, SortKeySpec::None, *rows_per_group);
            let mut got = all_rows(&store, &t);
            let mut want: Vec<(Option<i64>, Option<String>)> =
                rows.iter().map(|(a, b)| (Some(*a), b.clone())).collect();
            got.sort();
            want.sort();
            assert_eq!(got, want);
            assert_eq!(t.row_count(), rows.len() as u64);
        },
    );
}

/// VACUUM preserves the multiset of rows and produces global order.
#[test]
fn vacuum_preserves_rows_and_sorts() {
    let gen = prop::pair(arb_rows("[a-z]{0,6}", 1..250), prop::range(4usize..64));
    prop::check(
        "vacuum_preserves_rows_and_sorts",
        &Config::with_cases(48),
        &gen,
        |(rows, rows_per_group)| {
            let (store, mut t) =
                build_table(rows, SortKeySpec::Compound(vec![0]), *rows_per_group);
            let mut before = all_rows(&store, &t);
            let rewritten = t.vacuum(&store).unwrap();
            assert_eq!(rewritten, rows.len() as u64);
            let after = all_rows(&store, &t);
            // Multiset equal.
            let mut after_sorted = after.clone();
            before.sort();
            after_sorted.sort();
            assert_eq!(before, after_sorted);
            // Globally sorted by the key.
            let keys: Vec<Option<i64>> = after.iter().map(|(a, _)| *a).collect();
            let mut expect = keys.clone();
            expect.sort();
            assert_eq!(keys, expect);
            assert_eq!(t.unsorted_rows(), 0);
        },
    );
}

/// Pruned scans never lose a matching row, for any sort layout.
#[test]
fn pruning_is_sound() {
    let gen = prop::tuple4(
        prop::vec_of(prop::range(-500i64..500), 1..300),
        prop::range(-500i64..500),
        prop::range(0i64..300),
        prop::any_bool(),
    );
    prop::check(
        "pruning_is_sound",
        &Config::with_cases(48),
        &gen,
        |(keys, lo, width, vacuum)| {
            let rows: Vec<(i64, Option<String>)> =
                keys.iter().map(|&k| (k, Some(format!("s{k}")))).collect();
            let (store, mut t) = build_table(&rows, SortKeySpec::Compound(vec![0]), 16);
            if *vacuum {
                t.vacuum(&store).unwrap();
            }
            let (lo, hi) = (*lo, *lo + *width);
            let pred = ScanPredicate {
                ranges: vec![ColumnRange {
                    col: 0,
                    lo: Some(Value::Int8(lo)),
                    hi: Some(Value::Int8(hi)),
                }],
            };
            let mut surviving = 0usize;
            t.scan(&store, &[0], Some(&pred), |b| {
                let keys = (0..b[0].len()).filter_map(|i| b[0].get_i64(i));
                surviving += keys.filter(|k| (lo..=hi).contains(k)).count();
                Ok(())
            })
            .unwrap();
            let expect = keys.iter().filter(|&&k| k >= lo && k <= hi).count();
            assert_eq!(surviving, expect, "pruning dropped matching rows");
        },
    );
}

/// Metadata round-trips: a decoded table scans identically.
#[test]
fn meta_roundtrip_any_table() {
    let gen = prop::pair(arb_rows("[a-z]{0,6}", 0..150), prop::any_bool());
    prop::check(
        "meta_roundtrip_any_table",
        &Config::with_cases(48),
        &gen,
        |(rows, interleaved)| {
            let sort = if *interleaved {
                SortKeySpec::Interleaved(vec![0])
            } else {
                SortKeySpec::Compound(vec![0])
            };
            let (store, mut t) = build_table(rows, sort, 16);
            if !rows.is_empty() {
                t.vacuum(&store).unwrap();
            }
            let mut w = Writer::new();
            t.encode_meta(&mut w);
            let bytes = w.into_bytes();
            let t2 = SliceTable::decode_meta(&mut Reader::new(&bytes)).unwrap();
            let mut a = all_rows(&store, &t);
            let mut b = all_rows(&store, &t2);
            a.sort();
            b.sort();
            assert_eq!(a, b);
            assert_eq!(t.row_count(), t2.row_count());
        },
    );
}

/// Interleaved tables keep pruning after a metadata round-trip (the
/// z-normalization parameters survive serialization).
#[test]
fn interleaved_meta_preserves_pruning() {
    let store = MemBlockStore::new();
    let schema = Schema::new(vec![
        ColumnDef::new("x", DataType::Int8),
        ColumnDef::new("y", DataType::Int8),
    ])
    .unwrap();
    let mut t = SliceTable::new(
        schema,
        TableConfig {
            rows_per_group: 256,
            sort_key: SortKeySpec::Interleaved(vec![0, 1]),
            auto_compress: true,
        },
    )
    .unwrap();
    let mut x = ColumnData::new(DataType::Int8);
    let mut y = ColumnData::new(DataType::Int8);
    for i in 0..4096i64 {
        x.push_value(&Value::Int8((i * 37) % 1024)).unwrap();
        y.push_value(&Value::Int8((i * 101) % 1024)).unwrap();
    }
    t.append(&[x, y], &store).unwrap();
    t.flush(&store).unwrap();
    t.vacuum(&store).unwrap();

    let mut w = Writer::new();
    t.encode_meta(&mut w);
    let bytes = w.into_bytes();
    let t2 = SliceTable::decode_meta(&mut Reader::new(&bytes)).unwrap();

    let pred = ScanPredicate {
        ranges: vec![ColumnRange {
            col: 1,
            lo: Some(Value::Int8(0)),
            hi: Some(Value::Int8(63)),
        }],
    };
    let scan = |t: &SliceTable| {
        let mut rows = 0;
        let out = t.scan(&store, &[0, 1], Some(&pred), |b| {
            rows += b[0].len();
            Ok(())
        });
        (out.unwrap(), rows)
    };
    let (orig, orig_rows) = scan(&t);
    let (restored, restored_rows) = scan(&t2);
    assert!(orig.groups_skipped > 0);
    assert_eq!(orig.groups_skipped, restored.groups_skipped);
    assert_eq!(orig_rows, restored_rows);
}
