//! Automatic compression selection.
//!
//! One of the paper's "dusty knobs" (§3.3): "we automatically pick
//! compression types based on data sampling … the database generally has
//! as much or more information as available to the customer to set these
//! well." `COPY` calls [`analyze_compression`] on the first loaded chunk
//! of each column and locks in the winner.

use crate::encoding::{encode_column, Encoding};
use redsim_common::ColumnData;

/// Default sample size (rows) used when analyzing a column.
pub const DEFAULT_SAMPLE_ROWS: usize = 4_096;

/// Try every applicable encoding on (a sample of) `col`; return the one
/// producing the fewest bytes. Ties break toward the cheaper-to-decode
/// encoding (the order of `Encoding::ALL`).
pub fn analyze_compression(col: &ColumnData, sample_rows: usize) -> Encoding {
    let sample;
    let view = if col.len() > sample_rows {
        // Stride sample so sortedness/run structure is still visible.
        let stride = col.len() / sample_rows;
        let mut s = ColumnData::new(col.data_type());
        let mut i = 0;
        while i < col.len() {
            // Take short contiguous runs, not single rows: run-length and
            // delta structure lives in adjacency.
            s.extend_range(col, i, (i + 8).min(col.len()));
            i += stride.max(8);
        }
        sample = s;
        &sample
    } else {
        col
    };
    encoding_report(view)
        .into_iter()
        .min_by_key(|&(_, size)| size)
        .map(|(e, _)| e)
        .unwrap_or(Encoding::Raw)
}

/// Encoded size for every applicable encoding (E9's oracle comparison).
pub fn encoding_report(col: &ColumnData) -> Vec<(Encoding, usize)> {
    Encoding::ALL
        .into_iter()
        .filter(|e| e.applicable_to(col.data_type()))
        .filter_map(|e| encode_column(col, e).ok().map(|b| (e, b.len())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::{DataType, Value};
    use redsim_testkit::rng::{Pcg32, Rng};

    fn int_col(vals: impl Iterator<Item = i64>, ty: DataType) -> ColumnData {
        let mut c = ColumnData::new(ty);
        for v in vals {
            c.push_value(&Value::Int8(v)).unwrap();
        }
        c
    }

    #[test]
    fn picks_rle_for_constant_runs() {
        let col = int_col((0..10_000).map(|i| i / 2_500), DataType::Int8);
        assert_eq!(analyze_compression(&col, DEFAULT_SAMPLE_ROWS), Encoding::Rle);
    }

    #[test]
    fn picks_delta_for_sequences() {
        let col = int_col((0..10_000).map(|i| 5_000_000_000 + i * 7), DataType::Int8);
        let pick = analyze_compression(&col, DEFAULT_SAMPLE_ROWS);
        assert_eq!(pick, Encoding::Delta);
    }

    #[test]
    fn picks_narrow_encoding_for_small_values() {
        // `(i * 37) % 120` is an arithmetic progression mod 120: its steps
        // are 37 and -83, which bit-pack into 7 bits, below mostly8's 8.
        let col = int_col((0..10_000).map(|i| (i * 37) % 120), DataType::Int8);
        let pick = analyze_compression(&col, DEFAULT_SAMPLE_ROWS);
        println!("(i * 37) % 120: {:?}", encoding_report(&col));
        assert_eq!(pick, Encoding::Delta);
        // Small values in random order step across twice their range, so
        // a narrow slot or a dictionary code still wins.
        let mut rng = Pcg32::new(120, 38);
        let col = int_col((0..10_000).map(|_| rng.gen_index(120) as i64), DataType::Int8);
        let pick = analyze_compression(&col, DEFAULT_SAMPLE_ROWS);
        println!("random 0..120: {:?}", encoding_report(&col));
        assert!(matches!(pick, Encoding::Mostly8 | Encoding::Dict), "picked {pick}");
    }

    #[test]
    fn picks_dict_for_low_cardinality_strings() {
        let mut c = ColumnData::new(DataType::Varchar);
        let cats = ["US", "EU", "APAC", "LATAM"];
        for i in 0..5_000usize {
            c.push_value(&Value::Str(cats[(i * 7) % 4].into())).unwrap();
        }
        assert_eq!(analyze_compression(&c, DEFAULT_SAMPLE_ROWS), Encoding::Dict);
    }

    #[test]
    fn picks_lzss_for_repetitive_text() {
        let mut c = ColumnData::new(DataType::Varchar);
        for i in 0..3_000usize {
            c.push_value(&Value::Str(format!(
                "https://www.amazon.com/gp/product/B{:07}/ref=ppx_yo_dt",
                i
            )))
            .unwrap();
        }
        assert_eq!(analyze_compression(&c, DEFAULT_SAMPLE_ROWS), Encoding::Lzss);
    }

    #[test]
    fn sample_pick_close_to_oracle() {
        // The analyzer's sampled pick must be within 15% of the true best
        // on every shape we generate (E9's acceptance bar).
        let shapes: Vec<ColumnData> = vec![
            int_col((0..50_000).map(|i| i), DataType::Int8),
            int_col((0..50_000).map(|i| i % 3), DataType::Int8),
            int_col((0..50_000).map(|i| (i * 2_654_435_761) % 1_000_000_007), DataType::Int8),
        ];
        for col in shapes {
            let sampled = analyze_compression(&col, DEFAULT_SAMPLE_ROWS);
            let report = encoding_report(&col);
            let best = report.iter().map(|&(_, s)| s).min().unwrap();
            let picked = report.iter().find(|&&(e, _)| e == sampled).unwrap().1;
            assert!(
                picked as f64 <= best as f64 * 1.15,
                "pick {sampled} = {picked}B vs oracle {best}B"
            );
        }
    }

    #[test]
    fn empty_column_defaults_to_raw_family() {
        let col = ColumnData::new(DataType::Float8);
        // No data: any applicable encoding is fine; must not panic.
        let _ = analyze_compression(&col, DEFAULT_SAMPLE_ROWS);
    }
}
