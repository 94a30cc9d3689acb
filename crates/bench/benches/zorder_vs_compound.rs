//! E8 — §3.3: "a multidimensional index using z-curves degrades more
//! gracefully … and still provides utility if leading columns are not
//! specified."
//!
//! A 4-column table sorted three ways (none / COMPOUND(a,b,c,d) /
//! INTERLEAVED(a,b,c,d)), probed with an equality-range predicate on each
//! single column. Compound sorting prunes brilliantly on `a` and
//! collapses off-prefix; the z-curve prunes usefully on *every* column.

use redsim_testkit::bench::{Bench, BenchmarkId};
use redsim_common::{ColumnData, ColumnDef, DataType, Schema, Value};
use redsim_storage::table::{ColumnRange, ScanOutput, ScanPredicate, SliceTable, SortKeySpec, TableConfig};
use redsim_storage::{BlockStore, MemBlockStore};

const ROWS: i64 = 160_000;
const GROUP: usize = 2_048;
const DOMAIN: i64 = 1_024;

/// Decode every surviving group and drop it: what a scan costs.
fn scan(
    t: &SliceTable,
    store: &dyn BlockStore,
    projection: &[usize],
    pred: Option<&ScanPredicate>,
) -> ScanOutput {
    let drop_batch = |b: Vec<ColumnData>| {
        std::hint::black_box(b);
        Ok(())
    };
    t.scan(store, projection, pred, drop_batch).unwrap()
}

fn build(sort: SortKeySpec) -> (MemBlockStore, SliceTable) {
    let store = MemBlockStore::new();
    let schema = Schema::new(
        ["a", "b", "c", "d"]
            .iter()
            .map(|n| ColumnDef::new(*n, DataType::Int8))
            .collect(),
    )
    .unwrap();
    let mut t = SliceTable::new(
        schema,
        TableConfig { rows_per_group: GROUP, sort_key: sort, auto_compress: true },
    )
    .unwrap();
    let mut cols: Vec<ColumnData> = (0..4).map(|_| ColumnData::new(DataType::Int8)).collect();
    let mut x = 0x243F_6A88_85A3_08D3u64;
    for _ in 0..ROWS {
        for c in cols.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.push_value(&Value::Int8((x % DOMAIN as u64) as i64)).unwrap();
        }
    }
    t.append(&cols, &store).unwrap();
    t.flush(&store).unwrap();
    t.vacuum(&store).unwrap();
    (store, t)
}

fn pred_on(col: usize) -> ScanPredicate {
    // ~6% of the domain on one dimension.
    ScanPredicate {
        ranges: vec![ColumnRange {
            col,
            lo: Some(Value::Int8(100)),
            hi: Some(Value::Int8(160)),
        }],
    }
}

fn bench_zorder(c: &mut Bench) {
    let variants = [
        ("none", build(SortKeySpec::None)),
        ("compound", build(SortKeySpec::Compound(vec![0, 1, 2, 3]))),
        ("interleaved", build(SortKeySpec::Interleaved(vec![0, 1, 2, 3]))),
    ];

    println!("\nE8 — groups skipped (of {}) per single-column predicate:", ROWS as usize / GROUP);
    println!("  {:<12} {:>6} {:>6} {:>6} {:>6}", "layout", "col a", "col b", "col c", "col d");
    for (name, (store, table)) in &variants {
        let skipped: Vec<String> = (0..4)
            .map(|col| {
                let out = scan(table, store, &[0, 1, 2, 3], Some(&pred_on(col)));
                out.groups_skipped.to_string()
            })
            .collect();
        println!(
            "  {name:<12} {:>6} {:>6} {:>6} {:>6}",
            skipped[0], skipped[1], skipped[2], skipped[3]
        );
    }

    let mut g = c.group("e8_scan");
    g.sample_size(10);
    for (name, (store, table)) in &variants {
        for col in 0..4usize {
            let p = pred_on(col);
            g.bench_with_input(
                BenchmarkId::new(*name, format!("col{col}")),
                &p,
                |b, p| {
                    b.iter(|| scan(table, store, &[0, 1, 2, 3], Some(p)));
                },
            );
        }
    }
    g.finish();
}

fn main() {
    let mut b = Bench::new("e8_zorder_vs_compound");
    bench_zorder(&mut b);
    b.finish();
}
