//! Hashable key wrapper for join/aggregation hash tables.
//!
//! `Value` is not `Hash`/`Eq` (floats); `HKey` normalizes values into a
//! hashable form consistent with [`redsim_distribution::style::dist_hash`]
//! for the integer family, so hash-table joins agree with slice routing.
//!
//! This is the slow path by design. Joins on integer-family keys and
//! GROUP BYs of up to two integer-family / VARCHAR keys never build an
//! `HKey` per row (`join`'s and `agg`'s typed lanes); what does —
//! FLOAT8, DECIMAL, BOOL and VARCHAR join keys, the same group keys,
//! three or more of any — is counted in `ExecMetrics::key_fallback`.
//! In particular [`HKey::from_column`]'s `Arc::from` per VARCHAR slot is
//! paid on that lane only.

use redsim_common::Value;
use std::sync::Arc;

/// A hashable, equality-comparable key derived from a `Value`.
///
/// Strings are `Arc<str>` so cloning a key (the per-row hot path in
/// aggregation) is a refcount bump, not a heap copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HKey {
    Null,
    Int(i64),
    Str(Arc<str>),
    /// Float by bit pattern (NaN keys collide with themselves).
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
            Value::Float8(f) => HKey::Float(f.to_bits()),
            Value::Str(s) => HKey::Str(Arc::from(s.as_str())),
            Value::Decimal { units, scale } => HKey::Decimal(*units, *scale),
        }
    }

    /// Build directly from a column slot, avoiding the `Value`
    /// round-trip on the hot join/aggregation paths.
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
            CD::Float8 { data, .. } => HKey::Float(data[i].to_bits()),
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
}
