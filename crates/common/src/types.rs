//! SQL data types and scalar values.
//!
//! The type lattice mirrors the subset of Redshift's types exercised by the
//! paper's workloads: small/regular/big integers, double precision floats,
//! booleans, variable-length character data, dates, microsecond timestamps
//! and fixed-point decimals (stored as scaled `i128`).

use crate::error::{Result, RsError};
use std::cmp::Ordering;
use std::fmt;

/// Physical/logical SQL data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// `BOOLEAN`
    Bool,
    /// `SMALLINT` — 16-bit signed.
    Int2,
    /// `INTEGER` — 32-bit signed.
    Int4,
    /// `BIGINT` — 64-bit signed.
    Int8,
    /// `DOUBLE PRECISION` — IEEE-754 f64.
    Float8,
    /// `VARCHAR` — variable-length UTF-8 (no declared max; loaders enforce
    /// their own limits).
    Varchar,
    /// `DATE` — days since 1970-01-01 (may be negative).
    Date,
    /// `TIMESTAMP` — microseconds since 1970-01-01T00:00:00.
    Timestamp,
    /// `DECIMAL(precision, scale)` — scaled two's-complement integer.
    /// Only the scale affects runtime behaviour; precision is metadata.
    Decimal(u8, u8),
}

impl DataType {
    /// Width in bytes of one fixed-size element, `None` for varlen types.
    pub fn fixed_width(self) -> Option<usize> {
        match self {
            DataType::Bool => Some(1),
            DataType::Int2 => Some(2),
            DataType::Int4 | DataType::Date => Some(4),
            DataType::Int8 | DataType::Float8 | DataType::Timestamp => Some(8),
            DataType::Decimal(_, _) => Some(16),
            DataType::Varchar => None,
        }
    }

    /// True for the integer family (not decimals).
    pub fn is_integer(self) -> bool {
        matches!(self, DataType::Int2 | DataType::Int4 | DataType::Int8)
    }

    /// True if values of this type are ordered numerics usable in
    /// arithmetic (ints, floats, decimals).
    pub fn is_numeric(self) -> bool {
        self.is_integer() || matches!(self, DataType::Float8 | DataType::Decimal(_, _))
    }

    /// Storage compatibility: like equality, except decimal *precision*
    /// is advisory metadata (vectors only carry the scale), so
    /// `DECIMAL(10,2)` and `DECIMAL(38,2)` store identically.
    pub fn storage_compatible(self, other: DataType) -> bool {
        match (self, other) {
            (DataType::Decimal(_, s1), DataType::Decimal(_, s2)) => s1 == s2,
            (a, b) => a == b,
        }
    }

    /// Stable tag used by the binary codec.
    pub fn tag(self) -> u8 {
        match self {
            DataType::Bool => 0,
            DataType::Int2 => 1,
            DataType::Int4 => 2,
            DataType::Int8 => 3,
            DataType::Float8 => 4,
            DataType::Varchar => 5,
            DataType::Date => 6,
            DataType::Timestamp => 7,
            DataType::Decimal(_, _) => 8,
        }
    }

    /// Inverse of [`DataType::tag`]; decimal precision/scale are supplied
    /// separately by the codec.
    pub fn from_tag(tag: u8, precision: u8, scale: u8) -> Result<Self> {
        Ok(match tag {
            0 => DataType::Bool,
            1 => DataType::Int2,
            2 => DataType::Int4,
            3 => DataType::Int8,
            4 => DataType::Float8,
            5 => DataType::Varchar,
            6 => DataType::Date,
            7 => DataType::Timestamp,
            8 => DataType::Decimal(precision, scale),
            t => return Err(RsError::Codec(format!("unknown DataType tag {t}"))),
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "BOOLEAN"),
            DataType::Int2 => write!(f, "SMALLINT"),
            DataType::Int4 => write!(f, "INTEGER"),
            DataType::Int8 => write!(f, "BIGINT"),
            DataType::Float8 => write!(f, "DOUBLE PRECISION"),
            DataType::Varchar => write!(f, "VARCHAR"),
            DataType::Date => write!(f, "DATE"),
            DataType::Timestamp => write!(f, "TIMESTAMP"),
            DataType::Decimal(p, s) => write!(f, "DECIMAL({p},{s})"),
        }
    }
}

/// A scalar SQL value.
///
/// `Value` is the boundary representation (API results, row-store baseline,
/// expression literals); the vectorized engine works on
/// [`crate::column::ColumnData`] instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int2(i16),
    Int4(i32),
    Int8(i64),
    Float8(f64),
    Str(String),
    /// Days since the Unix epoch.
    Date(i32),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
    /// Scaled integer; `scale` decimal digits after the point.
    Decimal { units: i128, scale: u8 },
}

impl Value {
    /// The data type this value naturally belongs to; `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int2(_) => Some(DataType::Int2),
            Value::Int4(_) => Some(DataType::Int4),
            Value::Int8(_) => Some(DataType::Int8),
            Value::Float8(_) => Some(DataType::Float8),
            Value::Str(_) => Some(DataType::Varchar),
            Value::Date(_) => Some(DataType::Date),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Decimal { scale, .. } => Some(DataType::Decimal(38, *scale)),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Widen to `i64` if this is any integer type, date or timestamp.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int2(v) => Some(v as i64),
            Value::Int4(v) => Some(v as i64),
            Value::Int8(v) => Some(v),
            Value::Date(v) => Some(v as i64),
            Value::Timestamp(v) => Some(v),
            Value::Bool(b) => Some(b as i64),
            _ => None,
        }
    }

    /// Numeric view as `f64` (ints, floats and decimals).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Float8(v) => Some(v),
            Value::Decimal { units, scale } => Some(units as f64 / 10f64.powi(scale as i32)),
            _ => self.as_i64().map(|v| v as f64),
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Coerce this value to `ty`, following SQL implicit-cast rules for the
    /// supported lattice (int widening, int→float, int/float→decimal,
    /// string parsing for loads).
    pub fn coerce_to(&self, ty: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        if self.data_type() == Some(ty) {
            return Ok(self.clone());
        }
        let err = || {
            RsError::Analysis(format!(
                "cannot coerce {self:?} to {ty}"
            ))
        };
        Ok(match ty {
            DataType::Bool => Value::Bool(self.as_bool().ok_or_else(err)?),
            DataType::Int2 => {
                let v = self.as_i64().ok_or_else(err)?;
                Value::Int2(i16::try_from(v).map_err(|_| {
                    RsError::Execution(format!("value {v} out of range for SMALLINT"))
                })?)
            }
            DataType::Int4 => {
                let v = self.as_i64().ok_or_else(err)?;
                Value::Int4(i32::try_from(v).map_err(|_| {
                    RsError::Execution(format!("value {v} out of range for INTEGER"))
                })?)
            }
            DataType::Int8 => Value::Int8(self.as_i64().ok_or_else(err)?),
            DataType::Float8 => Value::Float8(self.as_f64().ok_or_else(err)?),
            DataType::Varchar => Value::Str(self.to_string()),
            DataType::Date => {
                let v = self.as_i64().ok_or_else(err)?;
                Value::Date(i32::try_from(v).map_err(|_| {
                    RsError::Execution(format!("value {v} out of range for DATE"))
                })?)
            }
            DataType::Timestamp => Value::Timestamp(self.as_i64().ok_or_else(err)?),
            DataType::Decimal(_, scale) => match *self {
                Value::Decimal { units, scale: s } => {
                    Value::Decimal { units: rescale(units, s, scale)?, scale }
                }
                Value::Float8(f) => {
                    if !f.is_finite() {
                        return Err(RsError::Execution(format!(
                            "cannot store {f} in DECIMAL"
                        )));
                    }
                    Value::Decimal {
                        units: (f * 10f64.powi(scale as i32)).round() as i128,
                        scale,
                    }
                }
                _ => {
                    let v = self.as_i64().ok_or_else(err)? as i128;
                    Value::Decimal { units: v * pow10(scale)?, scale }
                }
            },
        })
    }

    /// Total order used by ORDER BY, sort keys and zone maps.
    /// NULLs sort last (Redshift default for ASC); floats use IEEE total
    /// order over non-NaN values with NaN greatest.
    pub fn cmp_sql(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater,
            (_, Null) => Ordering::Less,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Float8(a), Float8(b)) => cmp_f64(*a, *b),
            (Decimal { .. }, _) | (_, Decimal { .. }) | (Float8(_), _) | (_, Float8(_)) => {
                // Mixed numeric comparison via f64 (exactness is only needed
                // within a homogeneous column, where the typed arms apply).
                match (self.as_f64(), other.as_f64()) {
                    (Some(a), Some(b)) => cmp_f64(a, b),
                    _ => Ordering::Equal,
                }
            }
            _ => match (self.as_i64(), other.as_i64()) {
                (Some(a), Some(b)) => a.cmp(&b),
                _ => Ordering::Equal,
            },
        }
    }

    /// SQL equality (`NULL = x` is not equal; callers handle ternary logic).
    pub fn eq_sql(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self.cmp_sql(other) == Ordering::Equal
    }
}

/// Float comparison used everywhere SQL order matters: IEEE order over
/// non-NaN values, NaN equal to itself and greater than everything else.
/// Public so the vectorized kernels compare bit-identically to
/// [`Value::cmp_sql`].
pub fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        _ => unreachable!(),
    })
}

/// `10^scale` as i128, failing on absurd scales.
pub fn pow10(scale: u8) -> Result<i128> {
    if scale > 38 {
        return Err(RsError::Execution(format!("decimal scale {scale} too large")));
    }
    Ok(10i128.pow(scale as u32))
}

/// Rescale a decimal's units from `from` to `to` fractional digits,
/// truncating toward zero when narrowing (Redshift CAST semantics).
pub fn rescale(units: i128, from: u8, to: u8) -> Result<i128> {
    match from.cmp(&to) {
        Ordering::Equal => Ok(units),
        Ordering::Less => units
            .checked_mul(pow10(to - from)?)
            .ok_or_else(|| RsError::Execution("decimal overflow in rescale".into())),
        Ordering::Greater => Ok(units / pow10(from - to)?),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "t" } else { "f" }),
            Value::Int2(v) => write!(f, "{v}"),
            Value::Int4(v) => write!(f, "{v}"),
            Value::Int8(v) => write!(f, "{v}"),
            Value::Float8(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => {
                let (y, m, day) = date_from_epoch_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
            Value::Timestamp(us) => {
                let days = us.div_euclid(86_400_000_000);
                let rem = us.rem_euclid(86_400_000_000);
                let (y, m, d) = date_from_epoch_days(days as i32);
                let secs = rem / 1_000_000;
                let micros = rem % 1_000_000;
                let (h, mi, s) = (secs / 3600, (secs / 60) % 60, secs % 60);
                if micros == 0 {
                    write!(f, "{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}")
                } else {
                    write!(f, "{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}.{micros:06}")
                }
            }
            Value::Decimal { units, scale } => {
                let p = pow10(*scale).unwrap_or(1) as u128;
                let sign = if *units < 0 { "-" } else { "" };
                let abs = units.unsigned_abs();
                if *scale == 0 {
                    write!(f, "{sign}{abs}")
                } else {
                    write!(f, "{sign}{}.{:0width$}", abs / p, abs % p, width = *scale as usize)
                }
            }
        }
    }
}

/// Convert epoch-day count to (year, month, day) — civil-from-days
/// (Howard Hinnant's algorithm), valid across the proleptic Gregorian range.
pub fn date_from_epoch_days(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = if m <= 2 { y + 1 } else { y };
    (y as i32, m, d)
}

/// Convert (year, month, day) to epoch-day count — days-from-civil.
pub fn epoch_days_from_date(y: i32, m: u32, d: u32) -> i32 {
    let y = y as i64 - if m <= 2 { 1 } else { 0 };
    let era = y.div_euclid(400);
    let yoe = y.rem_euclid(400);
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era * 146_097 + doe - 719_468) as i32
}

/// Parse `YYYY-MM-DD` into epoch days.
pub fn parse_date(s: &str) -> Result<i32> {
    let mut parts = s.trim().split('-');
    let bad = || RsError::Parse(format!("invalid date literal {s:?}"));
    // Handle possible leading '-' on year by rejecting; dates of interest
    // are CE.
    let (Some(y), Some(m), Some(d), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(bad());
    };
    let y: i32 = y.parse().map_err(|_| bad())?;
    let m: u32 = m.parse().map_err(|_| bad())?;
    let d: u32 = d.parse().map_err(|_| bad())?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return Err(bad());
    }
    Ok(epoch_days_from_date(y, m, d))
}

/// Parse `YYYY-MM-DD[ HH:MM:SS[.ffffff]]` into epoch microseconds.
pub fn parse_timestamp(s: &str) -> Result<i64> {
    let s = s.trim();
    let bad = || RsError::Parse(format!("invalid timestamp literal {s:?}"));
    let (date_part, time_part) = match s.split_once([' ', 'T']) {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let days = parse_date(date_part)? as i64;
    let mut micros = days * 86_400_000_000;
    if let Some(t) = time_part {
        let (hms, frac) = match t.split_once('.') {
            Some((a, b)) => (a, Some(b)),
            None => (t, None),
        };
        let mut hp = hms.split(':');
        let (Some(h), Some(mi), Some(sec), None) = (hp.next(), hp.next(), hp.next(), hp.next())
        else {
            return Err(bad());
        };
        let h: i64 = h.parse().map_err(|_| bad())?;
        let mi: i64 = mi.parse().map_err(|_| bad())?;
        let sec: i64 = sec.parse().map_err(|_| bad())?;
        if h > 23 || mi > 59 || sec > 60 {
            return Err(bad());
        }
        micros += (h * 3600 + mi * 60 + sec) * 1_000_000;
        if let Some(fr) = frac {
            // At most six digits count; a cut that is not a char boundary
            // means a non-digit sits in them, which the check below rejects.
            let digits = fr.get(..6).unwrap_or(fr);
            if digits.is_empty() || !digits.bytes().all(|c| c.is_ascii_digit()) {
                return Err(bad());
            }
            let v: i64 = digits.parse().map_err(|_| bad())?;
            micros += v * 10i64.pow(6 - digits.len() as u32);
        }
    }
    Ok(micros)
}

/// Parse a decimal literal (e.g. `-12.345`) into scaled units at `scale`.
pub fn parse_decimal(s: &str, scale: u8) -> Result<i128> {
    let s = s.trim();
    let bad = || RsError::Parse(format!("invalid decimal literal {s:?}"));
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let (int_part, frac_part) = match body.split_once('.') {
        Some((a, b)) => (a, b),
        None => (body, ""),
    };
    if int_part.is_empty() && frac_part.is_empty() {
        return Err(bad());
    }
    if !int_part.chars().all(|c| c.is_ascii_digit())
        || !frac_part.chars().all(|c| c.is_ascii_digit())
    {
        return Err(bad());
    }
    let int_units: i128 = if int_part.is_empty() { 0 } else { int_part.parse().map_err(|_| bad())? };
    let mut units = int_units.checked_mul(pow10(scale)?).ok_or_else(bad)?;
    // Fractional digits: take up to `scale`, truncating extras.
    let taken = &frac_part[..frac_part.len().min(scale as usize)];
    if !taken.is_empty() {
        let v: i128 = taken.parse().map_err(|_| bad())?;
        units += v * pow10(scale - taken.len() as u8)?;
    }
    Ok(if neg { -units } else { units })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (2000, 2, 29), (2015, 5, 31), (1969, 12, 31), (2038, 1, 19)] {
            let days = epoch_days_from_date(y, m, d);
            assert_eq!(date_from_epoch_days(days), (y, m, d));
        }
        assert_eq!(epoch_days_from_date(1970, 1, 1), 0);
        assert_eq!(epoch_days_from_date(1970, 1, 2), 1);
    }

    #[test]
    fn parse_date_and_timestamp() {
        assert_eq!(parse_date("1970-01-02").unwrap(), 1);
        assert_eq!(parse_timestamp("1970-01-01 00:00:01").unwrap(), 1_000_000);
        assert_eq!(parse_timestamp("1970-01-01 00:00:00.5").unwrap(), 500_000);
        assert!(parse_timestamp("1970-01-01 25:00:00").is_err());
        assert!(parse_date("not-a-date").is_err());
    }

    #[test]
    fn decimal_parse_and_display() {
        assert_eq!(parse_decimal("12.34", 2).unwrap(), 1234);
        assert_eq!(parse_decimal("-0.5", 2).unwrap(), -50);
        assert_eq!(parse_decimal("7", 3).unwrap(), 7000);
        assert_eq!(parse_decimal("1.239", 2).unwrap(), 123); // truncation
        let v = Value::Decimal { units: -1234, scale: 2 };
        assert_eq!(v.to_string(), "-12.34");
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(
            Value::Int4(7).coerce_to(DataType::Int8).unwrap().as_i64(),
            Some(7)
        );
        assert!(Value::Int8(1 << 40).coerce_to(DataType::Int4).is_err());
        let d = Value::Int4(3).coerce_to(DataType::Decimal(10, 2)).unwrap();
        assert_eq!(d.to_string(), "3.00");
        assert!(Value::Str("x".into()).coerce_to(DataType::Int4).is_err());
        assert!(Value::Null.coerce_to(DataType::Int4).unwrap().is_null());
    }

    #[test]
    fn sql_ordering_nulls_last() {
        let mut vals = vec![Value::Null, Value::Int4(2), Value::Int4(1)];
        vals.sort_by(|a, b| a.cmp_sql(b));
        assert_eq!(vals[0].as_i64(), Some(1));
        assert!(vals[2].is_null());
    }

    #[test]
    fn null_equality_is_false() {
        assert!(!Value::Null.eq_sql(&Value::Null));
        assert!(Value::Int4(1).eq_sql(&Value::Int8(1)));
    }

    #[test]
    fn display_timestamp() {
        let v = Value::Timestamp(parse_timestamp("2015-05-31 12:34:56.000007").unwrap());
        assert_eq!(v.to_string(), "2015-05-31 12:34:56.000007");
    }
}
