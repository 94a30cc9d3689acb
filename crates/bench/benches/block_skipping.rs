//! E10 — zone-map block skipping: scan time vs predicate selectivity on
//! sorted vs unsorted data ("column-block skipping based on value-ranges
//! stored in memory", §6).

use redsim_testkit::bench::{Bench, BenchmarkId};
use redsim_common::{ColumnData, ColumnDef, DataType, Schema, Value};
use redsim_storage::table::{ColumnRange, ScanOutput, ScanPredicate, SliceTable, SortKeySpec, TableConfig};
use redsim_storage::{BlockStore, MemBlockStore};

const ROWS: i64 = 200_000;
const GROUP: usize = 4_096;

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

fn build(sorted: bool) -> (MemBlockStore, SliceTable) {
    let store = MemBlockStore::new();
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int8),
        ColumnDef::new("v", DataType::Int8),
    ])
    .unwrap();
    let mut t = SliceTable::new(
        schema,
        TableConfig {
            rows_per_group: GROUP,
            sort_key: SortKeySpec::Compound(vec![0]),
            auto_compress: true,
        },
    )
    .unwrap();
    let mut k = ColumnData::new(DataType::Int8);
    let mut v = ColumnData::new(DataType::Int8);
    for i in 0..ROWS {
        // Hash-scatter when "unsorted": every block spans the key domain.
        let key = if sorted { i } else { (i.wrapping_mul(2_654_435_761)) % ROWS };
        k.push_value(&Value::Int8(key)).unwrap();
        v.push_value(&Value::Int8(key * 2)).unwrap();
    }
    t.append(&[k, v], &store).unwrap();
    t.flush(&store).unwrap();
    if sorted {
        t.vacuum(&store).unwrap();
    }
    (store, t)
}

fn bench_skipping(c: &mut Bench) {
    let (sorted_store, sorted_t) = build(true);
    let (unsorted_store, unsorted_t) = build(false);

    // Report pruning effectiveness once.
    println!("\nE10 — groups skipped at selectivity 1%:");
    for (label, store, table) in
        [("sorted", &sorted_store, &sorted_t), ("unsorted", &unsorted_store, &unsorted_t)]
    {
        let pred = ScanPredicate {
            ranges: vec![ColumnRange {
                col: 0,
                lo: Some(Value::Int8(0)),
                hi: Some(Value::Int8(ROWS / 100)),
            }],
        };
        let out = scan(table, store, &[0, 1], Some(&pred));
        println!(
            "  {label:<9} skipped {}/{} groups, read {} bytes",
            out.groups_skipped, out.groups_total, out.bytes_read
        );
    }

    let mut g = c.group("scan_selectivity");
    g.sample_size(10);
    for selectivity_pct in [1u64, 10, 50, 100] {
        let hi = ROWS * selectivity_pct as i64 / 100;
        let pred = ScanPredicate {
            ranges: vec![ColumnRange {
                col: 0,
                lo: Some(Value::Int8(0)),
                hi: Some(Value::Int8(hi)),
            }],
        };
        g.bench_with_input(
            BenchmarkId::new("sorted", selectivity_pct),
            &pred,
            |b, pred| {
                b.iter(|| scan(&sorted_t, &sorted_store, &[0, 1], Some(pred)));
            },
        );
        g.bench_with_input(
            BenchmarkId::new("unsorted", selectivity_pct),
            &pred,
            |b, pred| {
                b.iter(|| scan(&unsorted_t, &unsorted_store, &[0, 1], Some(pred)));
            },
        );
    }
    g.finish();
}

fn main() {
    let mut b = Bench::new("e10_block_skipping");
    bench_skipping(&mut b);
    b.finish();
}
