//! Table schemas and column descriptors.

use crate::codec::{Reader, Writer};
use crate::error::{Result, RsError};
use crate::types::DataType;

/// One column's definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef { name: name.into(), data_type, nullable: true }
    }

    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// An ordered list of columns. Column lookup is by case-insensitive name
/// (identifiers are normalized to lowercase at parse time, but lookups stay
/// forgiving for library users).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self> {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(RsError::Analysis(format!("duplicate column name {:?}", c.name)));
            }
        }
        Ok(Schema { columns })
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    pub fn column(&self, i: usize) -> &ColumnDef {
        &self.columns[i]
    }

    /// Index of the column with the given (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn field(&self, name: &str) -> Result<&ColumnDef> {
        self.index_of(name)
            .map(|i| &self.columns[i])
            .ok_or_else(|| RsError::Analysis(format!("unknown column {name:?}")))
    }

    /// Project a subset of columns by index.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema { columns: indices.iter().map(|&i| self.columns[i].clone()).collect() }
    }

    /// Serialize for the catalog.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u32(self.columns.len() as u32);
        for c in &self.columns {
            w.put_str(&c.name);
            w.put_u8(c.data_type.tag());
            let (p, s) = match c.data_type {
                DataType::Decimal(p, s) => (p, s),
                _ => (0, 0),
            };
            w.put_u8(p);
            w.put_u8(s);
            w.put_bool(c.nullable);
        }
    }

    pub fn decode(r: &mut Reader) -> Result<Self> {
        // A column: name length, type tag, precision, scale, nullable.
        let n = r.get_count(8)?;
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.get_str()?;
            let tag = r.get_u8()?;
            let p = r.get_u8()?;
            let s = r.get_u8()?;
            let data_type = DataType::from_tag(tag, p, s)?;
            let nullable = r.get_bool()?;
            columns.push(ColumnDef { name, data_type, nullable });
        }
        Schema::new(columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int8).not_null(),
            ColumnDef::new("name", DataType::Varchar),
            ColumnDef::new("price", DataType::Decimal(12, 2)),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("Name"), Some(1));
        assert!(s.field("missing").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(Schema::new(vec![
            ColumnDef::new("a", DataType::Int4),
            ColumnDef::new("A", DataType::Int4),
        ])
        .is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        let mut w = Writer::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let rt = Schema::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(s, rt);
    }

    /// A `u32::MAX` column count is a typed error, not an allocation that
    /// aborts the process.
    #[test]
    fn a_corrupt_count_is_a_codec_error() {
        let err = Schema::decode(&mut Reader::new(&u32::MAX.to_le_bytes())).unwrap_err();
        assert!(matches!(err, crate::RsError::Codec(_)), "{err}");
    }

    #[test]
    fn project_subset() {
        let s = sample();
        let p = s.project(&[2, 0]);
        assert_eq!(p.column(0).name, "price");
        assert_eq!(p.column(1).name, "id");
    }
}
