//! Row-oriented view of data.
//!
//! Rows appear at API boundaries (query results, INSERT values) and inside
//! the row-store baseline engine that stands in for the paper's "existing
//! scale-out commercial data warehouse" comparator.

use crate::column::ColumnData;
use crate::schema::Schema;
use crate::types::Value;

/// One tuple of scalar values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Render as a tab-separated line (examples/tools output).
    pub fn to_tsv(&self) -> String {
        let mut s = String::new();
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                s.push('\t');
            }
            s.push_str(&v.to_string());
        }
        s
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

/// Convert a set of columns (one batch) into rows. Columns must share a
/// length; `schema` is only used for arity checking.
pub fn columns_to_rows(schema: &Schema, cols: &[ColumnData]) -> Vec<Row> {
    assert_eq!(schema.len(), cols.len(), "column count must match schema");
    let n = cols.first().map_or(0, |c| c.len());
    debug_assert!(cols.iter().all(|c| c.len() == n));
    (0..n)
        .map(|i| Row::new(cols.iter().map(|c| c.get(i)).collect()))
        .collect()
}

/// Convert rows into columns matching `schema` (INSERT path).
pub fn rows_to_columns(schema: &Schema, rows: &[Row]) -> crate::error::Result<Vec<ColumnData>> {
    let mut cols: Vec<ColumnData> =
        schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
    for row in rows {
        if row.len() != schema.len() {
            return Err(crate::error::RsError::Analysis(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                schema.len()
            )));
        }
        for (col, v) in cols.iter_mut().zip(row.values()) {
            col.push_value(v)?;
        }
    }
    Ok(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", DataType::Int4),
            ColumnDef::new("b", DataType::Varchar),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip_rows_columns() {
        let s = schema();
        let rows = vec![
            Row::new(vec![Value::Int4(1), Value::Str("x".into())]),
            Row::new(vec![Value::Null, Value::Str("y".into())]),
        ];
        let cols = rows_to_columns(&s, &rows).unwrap();
        assert_eq!(cols[0].len(), 2);
        let back = columns_to_rows(&s, &cols);
        assert_eq!(back, rows);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let s = schema();
        let rows = vec![Row::new(vec![Value::Int4(1)])];
        assert!(rows_to_columns(&s, &rows).is_err());
    }

    #[test]
    fn tsv_rendering() {
        let r = Row::new(vec![Value::Int4(1), Value::Str("x".into()), Value::Null]);
        assert_eq!(r.to_tsv(), "1\tx\tNULL");
    }
}
