//! Hashable key wrapper for the boxed-value hash tables.
//!
//! `Value` is not `Hash`/`Eq` (floats); `HKey` normalizes values into a
//! hashable form consistent with [`redsim_distribution::style::dist_hash`]
//! for the integer family, and equal exactly when `=` holds within a type
//! (a float by its [`canon_f64`] bits: `-0.0` is `0.0`, NaN is NaN).
//!
//! `HKey` is the key of the reference engine ([`crate::baseline`]) and
//! of `COUNT(DISTINCT …)`'s value set — the two places a boxed `Value` is
//! the point. The executor's joins and GROUP BYs never build one: they
//! code keys on the typed lanes of `keys`.

use redsim_common::types::canon_f64;
use redsim_common::Value;
use std::sync::Arc;

/// A hashable, equality-comparable key derived from a `Value`.
///
/// Strings are `Arc<str>` so cloning a key is a refcount bump, not a
/// heap copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HKey {
    Null,
    Int(i64),
    Str(Arc<str>),
    /// Float by its canonical bit pattern.
    Float(u64),
    Decimal(i128, u8),
    Bool(bool),
}

impl HKey {
    pub fn from_value(v: &Value) -> HKey {
        match v {
            Value::Null => HKey::Null,
            Value::Bool(b) => HKey::Bool(*b),
            Value::Int2(_) | Value::Int4(_) | Value::Int8(_) | Value::Date(_)
            | Value::Timestamp(_) => HKey::Int(v.as_i64().expect("integer family")),
            Value::Float8(f) => HKey::Float(canon_f64(*f).to_bits()),
            Value::Str(s) => HKey::Str(Arc::from(s.as_str())),
            Value::Decimal { units, scale } => HKey::Decimal(*units, *scale),
        }
    }

    /// Build directly from a column slot, avoiding the `Value`
    /// round-trip.
    pub fn from_column(c: &redsim_common::ColumnData, i: usize) -> HKey {
        use redsim_common::ColumnData as CD;
        if c.is_null(i) {
            return HKey::Null;
        }
        match c {
            CD::Bool { data, .. } => HKey::Bool(data[i]),
            CD::Int2 { data, .. } => HKey::Int(data[i] as i64),
            CD::Int4 { data, .. } => HKey::Int(data[i] as i64),
            CD::Int8 { data, .. } => HKey::Int(data[i]),
            CD::Date { data, .. } => HKey::Int(data[i] as i64),
            CD::Timestamp { data, .. } => HKey::Int(data[i]),
            CD::Float8 { data, .. } => HKey::Float(canon_f64(data[i]).to_bits()),
            CD::Str { data, .. } => HKey::Str(Arc::from(data.get(i))),
            CD::Decimal { data, scale, .. } => HKey::Decimal(data[i], *scale),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, HKey::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_family_collapses() {
        assert_eq!(HKey::from_value(&Value::Int4(7)), HKey::from_value(&Value::Int8(7)));
        assert_eq!(HKey::from_value(&Value::Int2(7)), HKey::from_value(&Value::Int8(7)));
    }

    #[test]
    fn nulls_are_distinguishable() {
        assert!(HKey::from_value(&Value::Null).is_null());
        assert_ne!(HKey::from_value(&Value::Null), HKey::from_value(&Value::Int8(0)));
    }

    #[test]
    fn usable_in_hash_maps() {
        let mut m = std::collections::HashMap::new();
        m.insert(HKey::from_value(&Value::Str("a".into())), 1);
        m.insert(HKey::from_value(&Value::Float8(1.5)), 2);
        assert_eq!(m[&HKey::from_value(&Value::Str("a".into()))], 1);
        assert_eq!(m[&HKey::from_value(&Value::Float8(1.5))], 2);
    }

    #[test]
    fn floats_are_equal_as_eq_compares_them() {
        let key = |f: f64| HKey::from_value(&Value::Float8(f));
        assert_eq!(key(-0.0), key(0.0));
        assert_eq!(key(f64::NAN), key(-f64::NAN));
        let mut col = redsim_common::ColumnData::new(redsim_common::DataType::Float8);
        col.push_value(&Value::Float8(-0.0)).unwrap();
        assert_eq!(HKey::from_column(&col, 0), key(0.0));
    }
}
