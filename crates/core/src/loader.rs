//! COPY parsing: CSV and JSON-lines into column batches.

use crate::json::{self, JsonValue};
use redsim_common::{types, Bitmap, ColumnData, ColumnDef, DataType, Result, RsError, Schema, Value};

/// Rows tokenised per pass: one chunk's field slices (16 B each) stay
/// cache-resident while each column's lane parses them.
const CHUNK_ROWS: usize = 1024;

/// Parse one CSV object (text blob) into a column batch matching `schema`.
/// Empty fields are NULL; `delimiter` separates fields; a trailing
/// newline is tolerated. No quoting (the paper-era COPY default is
/// delimiter-separated text; quoted CSV arrived later).
///
/// Typed end to end: a chunk of lines is split into trimmed field slices,
/// then every column parses its own straight into its typed vector
/// ([`parse_lane`]). The error is the first in line, then field, order.
pub fn parse_csv(text: &str, delimiter: char, schema: &Schema) -> Result<Vec<ColumnData>> {
    let mut cols: Vec<ColumnData> =
        schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
    let width = schema.len();
    let mut lines = text.lines().enumerate().filter(|(_, line)| !line.is_empty());
    // The chunk's fields, row-major, and the source line of each row.
    let (mut fields, mut linenos) = (Vec::<&str>::new(), Vec::new());
    loop {
        fields.clear();
        linenos.clear();
        // Earliest failing row of the chunk so far, with its message.
        let mut err: Option<(usize, String)> = None;
        for (lineno, line) in lines.by_ref().take(CHUNK_ROWS) {
            linenos.push(lineno + 1);
            let row_start = fields.len();
            fields.extend(line.split(delimiter).map(str::trim));
            let n = fields.len() - row_start;
            if n != width {
                fields.truncate(row_start);
                err = Some((linenos.len() - 1, format!("{n} fields, expected {width}")));
                break;
            }
        }
        if linenos.is_empty() {
            return Ok(cols);
        }
        for (c, (col, def)) in cols.iter_mut().zip(schema.columns()).enumerate() {
            // Rows at or past the earliest known failure cannot matter;
            // an earlier row failing in a later column still wins.
            let rows = err.as_ref().map_or(linenos.len(), |(row, _)| *row);
            let lane = fields.iter().skip(c).step_by(width).take(rows).copied();
            err = parse_lane(col, def, lane).or(err);
        }
        if let Some((row, msg)) = err {
            return Err(RsError::Analysis(format!("line {}: {msg}", linenos[row])));
        }
    }
}

/// Parse one column's (trimmed) fields into its typed vector: one match
/// on the column type per lane, none per field. Empty = NULL. Returns the
/// first failing row and why.
fn parse_lane<'a>(
    col: &mut ColumnData,
    def: &ColumnDef,
    fields: impl Iterator<Item = &'a str>,
) -> Option<(usize, String)> {
    fn lane<'a, T>(
        def: &ColumnDef,
        fields: impl Iterator<Item = &'a str>,
        parse: impl Fn(&'a str) -> Result<T>,
        mut push: impl FnMut(Option<T>),
    ) -> Option<(usize, String)> {
        for (row, s) in fields.enumerate() {
            match s {
                "" if def.nullable => push(None),
                "" => return Some((row, format!("NULL in NOT NULL column {:?}", def.name))),
                _ => match parse(s) {
                    Ok(v) => push(Some(v)),
                    Err(e) => return Some((row, e.to_string())),
                },
            }
        }
        None
    }
    // NULL keeps a default payload slot, like `ColumnData::push_null`.
    fn sink<'v, T: Default>(
        data: &'v mut Vec<T>,
        nulls: &'v mut Bitmap,
    ) -> impl FnMut(Option<T>) + 'v {
        move |v| {
            nulls.push(v.is_some());
            data.push(v.unwrap_or_default());
        }
    }
    // The four `FromStr` lanes differ only in the vector's element type.
    macro_rules! from_str {
        ($data:ident, $nulls:ident) => {{
            let bad = |s| bad_field(s, def.data_type);
            lane(def, fields, |s| s.parse().map_err(|_| bad(s)), sink($data, $nulls))
        }};
    }
    match col {
        ColumnData::Int2 { data, nulls } => from_str!(data, nulls),
        ColumnData::Int4 { data, nulls } => from_str!(data, nulls),
        ColumnData::Int8 { data, nulls } => from_str!(data, nulls),
        ColumnData::Float8 { data, nulls } => from_str!(data, nulls),
        ColumnData::Bool { data, nulls } => {
            let parse = |s| parse_bool(s).ok_or_else(|| bad_field(s, DataType::Bool));
            lane(def, fields, parse, sink(data, nulls))
        }
        ColumnData::Date { data, nulls } => lane(def, fields, types::parse_date, sink(data, nulls)),
        ColumnData::Timestamp { data, nulls } => {
            lane(def, fields, types::parse_timestamp, sink(data, nulls))
        }
        ColumnData::Decimal { data, scale, nulls } => {
            lane(def, fields, |s| types::parse_decimal(s, *scale), sink(data, nulls))
        }
        ColumnData::Str { data, nulls } => lane(def, fields, Ok, |v: Option<&str>| {
            nulls.push(v.is_some());
            data.push(v.unwrap_or(""));
        }),
    }
}

fn bad_field(s: &str, ty: DataType) -> RsError {
    RsError::Parse(format!("cannot parse {s:?} as {ty}"))
}

fn parse_bool(s: &str) -> Option<bool> {
    let any = |words: &[&str]| words.iter().any(|w| s.eq_ignore_ascii_case(w));
    let truth = any(&["t", "true", "1", "y", "yes"]);
    (truth || any(&["f", "false", "0", "n", "no"])).then_some(truth)
}

/// Parse a text field by target type. Empty string = NULL. The scalar
/// form of [`parse_lane`], for the JSON path and INSERT.
pub fn parse_field(s: &str, ty: DataType) -> Result<Value> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(Value::Null);
    }
    let bad = || bad_field(s, ty);
    Ok(match ty {
        DataType::Bool => Value::Bool(parse_bool(s).ok_or_else(bad)?),
        DataType::Int2 => Value::Int2(s.parse().map_err(|_| bad())?),
        DataType::Int4 => Value::Int4(s.parse().map_err(|_| bad())?),
        DataType::Int8 => Value::Int8(s.parse().map_err(|_| bad())?),
        DataType::Float8 => Value::Float8(s.parse().map_err(|_| bad())?),
        DataType::Varchar => Value::Str(s.to_string()),
        DataType::Date => Value::Date(types::parse_date(s)?),
        DataType::Timestamp => Value::Timestamp(types::parse_timestamp(s)?),
        DataType::Decimal(_, scale) => {
            Value::Decimal { units: types::parse_decimal(s, scale)?, scale }
        }
    })
}

/// Parse JSON-lines (one object per line) into a column batch. Columns
/// are matched by (case-insensitive) field name; absent fields are NULL.
pub fn parse_json_lines(text: &str, schema: &Schema) -> Result<Vec<ColumnData>> {
    let mut cols: Vec<ColumnData> =
        schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = json::parse(line)
            .map_err(|e| RsError::Analysis(format!("line {}: {e}", lineno + 1)))?;
        let obj = match doc {
            JsonValue::Object(m) => m,
            _ => {
                return Err(RsError::Analysis(format!(
                    "line {}: JSON loads need one object per line",
                    lineno + 1
                )))
            }
        };
        for (col, def) in cols.iter_mut().zip(schema.columns()) {
            // Field lookup is case-insensitive to match identifier folding.
            let jv = obj
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(&def.name))
                .map(|(_, v)| v);
            let v = match jv {
                None | Some(JsonValue::Null) => Value::Null,
                Some(JsonValue::Bool(b)) => Value::Bool(*b).coerce_to(def.data_type)?,
                Some(JsonValue::Number(x)) => number_to_value(*x, def.data_type)?,
                Some(JsonValue::String(s)) => parse_field(s, def.data_type)?,
                Some(other) => {
                    return Err(RsError::Analysis(format!(
                        "line {}: nested JSON ({other:?}) cannot load into column {:?}",
                        lineno + 1,
                        def.name
                    )))
                }
            };
            if v.is_null() && !def.nullable {
                return Err(RsError::Analysis(format!(
                    "line {}: NULL in NOT NULL column {:?}",
                    lineno + 1,
                    def.name
                )));
            }
            col.push_value(&v)?;
        }
    }
    Ok(cols)
}

fn number_to_value(x: f64, ty: DataType) -> Result<Value> {
    Ok(match ty {
        DataType::Float8 => Value::Float8(x),
        DataType::Decimal(_, scale) => {
            let units = (x * 10f64.powi(scale as i32)).round() as i128;
            Value::Decimal { units, scale }
        }
        _ if x.fract() == 0.0 && x.abs() < 9.2e18 => {
            Value::Int8(x as i64).coerce_to(ty)?
        }
        _ => {
            return Err(RsError::Analysis(format!(
                "JSON number {x} does not fit column type {ty}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_testkit::rng::{seed_from_env_or, Pcg32, Rng};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int8).not_null(),
            ColumnDef::new("url", DataType::Varchar),
            ColumnDef::new("d", DataType::Date),
            ColumnDef::new("amount", DataType::Decimal(10, 2)),
        ])
        .unwrap()
    }

    #[test]
    fn csv_happy_path() {
        let cols = parse_csv(
            "1,http://a,2015-05-31,9.99\n2,,2015-06-01,\n",
            ',',
            &schema(),
        )
        .unwrap();
        assert_eq!(cols[0].len(), 2);
        assert_eq!(cols[1].get_str(0), Some("http://a"));
        assert!(cols[1].is_null(1));
        assert!(cols[3].is_null(1));
        assert_eq!(cols[3].get(0).to_string(), "9.99");
    }

    #[test]
    fn csv_errors_carry_line_numbers() {
        let err = parse_csv("1,a,2015-05-31\n", ',', &schema()).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = parse_csv("1,a,2015-05-31,1\n,b,2015-05-31,1\n", ',', &schema()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("NOT NULL"), "{err}");
    }

    /// The parser `parse_csv` replaced, kept as the reference: split each
    /// line, box every field through [`parse_field`], push the `Value`.
    fn parse_csv_by_field(text: &str, delimiter: char, schema: &Schema) -> Result<Vec<ColumnData>> {
        let mut cols: Vec<ColumnData> =
            schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
        for (lineno, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
            let at = |msg: String| RsError::Analysis(format!("line {}: {msg}", lineno + 1));
            let fields: Vec<&str> = line.split(delimiter).collect();
            if fields.len() != schema.len() {
                return Err(at(format!("{} fields, expected {}", fields.len(), schema.len())));
            }
            for (col, (field, def)) in cols.iter_mut().zip(fields.iter().zip(schema.columns())) {
                let v = parse_field(field, def.data_type).map_err(|e| at(e.to_string()))?;
                if v.is_null() && !def.nullable {
                    return Err(at(format!("NULL in NOT NULL column {:?}", def.name)));
                }
                col.push_value(&v)?;
            }
        }
        Ok(cols)
    }

    /// Differential fuzz: every `DataType`, spaces, empty fields, bad
    /// values, wrong arity, both delimiters, multi-byte text, inputs
    /// longer than one chunk — the typed lanes give the same columns or
    /// the same error string as per-field parsing.
    #[test]
    fn typed_lanes_match_per_field_parsing() {
        let wide = Schema::new(vec![
            ColumnDef::new("b", DataType::Bool),
            ColumnDef::new("i2", DataType::Int2),
            ColumnDef::new("i4", DataType::Int4).not_null(),
            ColumnDef::new("i8", DataType::Int8),
            ColumnDef::new("f", DataType::Float8),
            ColumnDef::new("s", DataType::Varchar),
            ColumnDef::new("d", DataType::Date),
            ColumnDef::new("ts", DataType::Timestamp),
            ColumnDef::new("dec", DataType::Decimal(12, 3)).not_null(),
        ])
        .unwrap();
        let pool = |ty: DataType| -> (&[&str], &[&str]) {
            match ty {
                DataType::Bool => (&["t", "FALSE", "Yes", "0", " n "], &["maybe", "2", "tr ue"]),
                DataType::Int2 => (&["7", "-32768", " 12"], &["32768", "1.0", "x"]),
                DataType::Int4 => (&["0", "-5", "2147483647", "+3"], &["2147483648", "4 2", "é"]),
                DataType::Int8 => (&["9", "-9223372036854775808"], &["9223372036854775808", "1e3"]),
                DataType::Float8 => {
                    (&["1.5", "-0.0", "1e300", "NaN", "inf", " 2"], &["1,5x", "--1"])
                }
                DataType::Varchar => (&["a", "日本 語", "naïve", " padded ", "x-y:z"], &[]),
                DataType::Date => {
                    (&["2015-05-31", "1999-01-01"], &["2015-13-01", "2015-05", "05/31/2015"])
                }
                DataType::Timestamp => (
                    &["2015-05-31 10:00:00", "2015-05-31T23:59:59.1234567", "2015-06-01"],
                    &["2015-05-31 25:00:00", "2015-05-31 10:00", "2015-05-31 10:00:00.é"],
                ),
                DataType::Decimal(..) => {
                    (&["9.99", "-0.5", "12", ".25", "1.23456"], &["1.2.3", "abc", "-"])
                }
            }
        };
        let mut rng = Pcg32::seed_from_u64(seed_from_env_or(15));
        let (mut loaded, mut failed) = (0, 0);
        for case in 0..300 {
            let delimiter = if rng.gen_bool(0.5) { ',' } else { '|' };
            let other = if delimiter == ',' { '|' } else { ',' };
            // Every tenth case spans several chunks and is mostly clean.
            let (n_lines, p_odd) = match case % 10 {
                0 => (rng.gen_range(1_000..2_600), 0.0001),
                _ => (rng.gen_range(0..40), 0.01),
            };
            let mut text = String::new();
            for _ in 0..n_lines {
                if rng.gen_bool(p_odd) {
                    text.push('\n'); // blank lines are skipped but still numbered
                }
                let mut fields: Vec<String> = Vec::new();
                for def in wide.columns() {
                    let (good, bad) = pool(def.data_type);
                    fields.push(if rng.gen_bool(p_odd) && !bad.is_empty() {
                        rng.choose(bad).unwrap().replace(delimiter, &other.to_string())
                    } else if rng.gen_bool(if def.nullable { 0.15 } else { p_odd }) {
                        ["", " "][rng.gen_index(2)].to_string()
                    } else {
                        rng.choose(good).unwrap().to_string()
                    });
                }
                if rng.gen_bool(p_odd) {
                    fields.pop();
                } else if rng.gen_bool(p_odd) {
                    fields.push("extra".into());
                }
                text.push_str(&fields.join(&delimiter.to_string()));
                text.push_str(if rng.gen_bool(0.1) { "\r\n" } else { "\n" });
            }
            let typed = parse_csv(&text, delimiter, &wide);
            match (&typed, &parse_csv_by_field(&text, delimiter, &wide)) {
                (Ok(a), Ok(b)) => {
                    // Debug form: NaN payloads compare equal to themselves.
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case}");
                    loaded += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "case {case}\n{text}");
                    failed += 1;
                }
                (a, b) => panic!("case {case}: typed {a:?} vs per-field {b:?}\n{text}"),
            }
        }
        assert!(loaded >= 50 && failed >= 50, "both outcomes exercised: {loaded} ok, {failed} err");
    }

    #[test]
    fn custom_delimiter() {
        let cols = parse_csv("5|x|2015-01-01|1.5\n", '|', &schema()).unwrap();
        assert_eq!(cols[0].get_i64(0), Some(5));
    }

    #[test]
    fn json_lines_by_name() {
        let cols = parse_json_lines(
            r#"{"id": 1, "URL": "http://a", "d": "2015-05-31", "amount": 9.99}
               {"id": 2, "extra": "ignored"}"#,
            &schema(),
        )
        .unwrap();
        assert_eq!(cols[0].len(), 2);
        assert_eq!(cols[1].get_str(0), Some("http://a"), "case-insensitive name match");
        assert!(cols[1].is_null(1), "absent field loads NULL");
        assert_eq!(cols[3].get(0).to_string(), "9.99");
    }

    #[test]
    fn json_rejects_nested_and_nonobject() {
        let s = schema();
        assert!(parse_json_lines(r#"{"id": 1, "url": ["a"], "d": null, "amount": null}"#, &s)
            .is_err());
        assert!(parse_json_lines("[1,2,3]", &s).is_err());
        assert!(parse_json_lines(r#"{"id": null}"#, &s).is_err(), "NOT NULL enforced");
    }

    #[test]
    fn field_parsing_types() {
        assert_eq!(parse_field("t", DataType::Bool).unwrap(), Value::Bool(true));
        assert_eq!(parse_field(" 42 ", DataType::Int4).unwrap(), Value::Int4(42));
        assert!(parse_field("4.2", DataType::Int4).is_err());
        assert_eq!(
            parse_field("2015-05-31 10:00:00", DataType::Timestamp)
                .unwrap()
                .to_string(),
            "2015-05-31 10:00:00"
        );
    }
}
