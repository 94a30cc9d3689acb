//! COPY parsing: a source object cut into line-aligned units, and CSV and
//! JSON-lines units parsed into column batches.

use crate::json::{self, JsonValue};
use redsim_common::{types, Bitmap, ColumnData, ColumnDef, DataType, Result, RsError, Schema, Value};
use std::ops::Range;

/// Rows tokenised per pass: one chunk's field slices (16 B each) stay
/// cache-resident while each column's lane parses them.
const CHUNK_ROWS: usize = 1024;

/// The byte range of a run of whole lines of one COPY object, and the
/// object's line number of its first line.
#[derive(Debug, Clone)]
pub struct Unit {
    pub bytes: Range<usize>,
    pub first_line: usize,
}

/// Cut `text` into units of `size` bytes, each carried on to a line end:
/// parsing them in order is parsing `text`. Cuts fall after a `\n`, so on
/// UTF-8 character boundaries.
pub fn units(text: &[u8], size: usize) -> Vec<Unit> {
    let mut out = Vec::new();
    let (mut start, mut first_line) = (0, 1);
    while start < text.len() {
        let cut = (start + size.max(1)).min(text.len());
        let end = text[cut - 1..].iter().position(|&b| b == b'\n').map_or(text.len(), |i| cut + i);
        out.push(Unit { bytes: start..end, first_line });
        // Counted in u8 lanes of ≤ 255 bytes, which vectorize: ~9x as fast
        // as `filter().count()`.
        let ends = |c: &[u8]| c.iter().map(|&b| (b == b'\n') as u8).sum::<u8>() as usize;
        first_line += text[start..end].chunks(255).map(ends).sum::<usize>();
        start = end;
    }
    out
}

/// Parse CSV text — an object, or a unit of one whose first line is line
/// `first_line` — into a column batch matching `schema`.
/// Empty fields are NULL; `delimiter` separates fields; a trailing
/// newline is tolerated. No quoting (the paper-era COPY default is
/// delimiter-separated text; quoted CSV arrived later).
///
/// Typed end to end: a chunk of lines is cut into trimmed field slices
/// ([`next_row`]), then every column parses its own straight into its typed
/// vector ([`parse_lane`]). The error is the first in line, then field,
/// order.
pub fn parse_csv(
    text: &str,
    first_line: usize,
    delimiter: char,
    schema: &Schema,
) -> Result<Vec<ColumnData>> {
    let mut cols: Vec<ColumnData> =
        schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
    let width = schema.len();
    let (mut at, mut line) = (0, first_line);
    // The chunk's fields, row-major, and the source line of each row.
    let (mut fields, mut linenos) = (Vec::<&str>::new(), Vec::new());
    loop {
        fields.clear();
        linenos.clear();
        // Earliest failing row of the chunk so far, with its message.
        let mut err: Option<(usize, String)> = None;
        while linenos.len() < CHUNK_ROWS {
            let row_start = fields.len();
            let Some(lineno) = next_row(text, (&mut at, &mut line), delimiter, &mut fields) else { break };
            linenos.push(lineno);
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

/// Push the fields of the next non-empty line of `text` at or after
/// `*at`, which is line `*line`, onto `fields`, and return its line
/// number: what `str::lines`, `split(delimiter)` and `str::trim` give. One
/// byte scan finds the line end and the delimiters together, and a field
/// is trimmed only when an end byte is whitespace, a control byte or
/// non-ASCII. A non-ASCII (or line-end) delimiter takes the three calls.
fn next_row<'a>(
    text: &'a str,
    (at, line): (&mut usize, &mut usize),
    delimiter: char,
    fields: &mut Vec<&'a str>,
) -> Option<usize> {
    let (bytes, d) = (text.as_bytes(), delimiter as u8);
    let scan = delimiter.is_ascii() && d != b'\r' && d != b'\n';
    let plain = |b: Option<&u8>| b.is_none_or(|b| (b'!'..0x80).contains(b));
    let trimmed = |f: &'a str| if plain(f.as_bytes().first()) && plain(f.as_bytes().last()) { f } else { f.trim() };
    while *at < bytes.len() {
        let (start, lineno) = (*at, *line);
        *line += 1;
        let (mut field, mut end) = (start, start);
        if !scan {
            end = text[start..].find('\n').map_or(bytes.len(), |i| start + i);
        }
        while scan && end < bytes.len() && bytes[end] != b'\n' {
            if bytes[end] == d {
                fields.push(trimmed(&text[field..end]));
                field = end + 1;
            }
            end += 1;
        }
        *at = end + 1;
        // `str::lines` drops the `\r` of a `\r\n`; an empty line is skipped.
        let end = end - usize::from(end < bytes.len() && end > field && bytes[end - 1] == b'\r');
        if end > start {
            match scan {
                true => fields.push(trimmed(&text[field..end])),
                false => fields.extend(text[start..end].split(delimiter).map(str::trim)),
            }
            return Some(lineno);
        }
    }
    None
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
    // The four `FromStr` lanes differ only in the vector's element type
    // and their exact ASCII fast path; any other text goes to `str::parse`.
    macro_rules! from_str {
        ($data:ident, $nulls:ident, $fast:expr) => {{
            let slow = |s: &str| s.parse().map_err(|_| bad_field(s, def.data_type));
            let parse = |s: &str| ($fast)(s.as_bytes()).map_or_else(|| slow(s), Ok);
            lane(def, fields, parse, sink($data, $nulls))
        }};
    }
    let int = types::parse_int_ascii;
    match col {
        ColumnData::Int2 { data, nulls } => from_str!(data, nulls, |s| int(s).and_then(|v| v.try_into().ok())),
        ColumnData::Int4 { data, nulls } => from_str!(data, nulls, |s| int(s).and_then(|v| v.try_into().ok())),
        ColumnData::Int8 { data, nulls } => from_str!(data, nulls, int),
        ColumnData::Float8 { data, nulls } => from_str!(data, nulls, types::parse_f64_ascii),
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

/// Parse JSON-lines (one object per line) — an object, or a unit of one
/// whose first line is line `first_line` — into a column batch. Columns
/// are matched by (case-insensitive) field name; absent fields are NULL.
pub fn parse_json_lines(text: &str, first_line: usize, schema: &Schema) -> Result<Vec<ColumnData>> {
    let mut cols: Vec<ColumnData> =
        schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
    for (lineno, line) in (first_line..).zip(text.lines()) {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc =
            json::parse(line).map_err(|e| RsError::Analysis(format!("line {lineno}: {e}")))?;
        let obj = match doc {
            JsonValue::Object(m) => m,
            _ => {
                return Err(RsError::Analysis(format!(
                    "line {lineno}: JSON loads need one object per line"
                )))
            }
        };
        for (col, def) in cols.iter_mut().zip(schema.columns()) {
            // Field lookup is case-insensitive to match identifier folding.
            let jv = obj
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(&def.name))
                .map(|(_, v)| v);
            // A bad field names its line, as in CSV.
            let at = |e: RsError| RsError::Analysis(format!("line {lineno}: {e}"));
            let v = match jv {
                None | Some(JsonValue::Null) => Value::Null,
                Some(JsonValue::Bool(b)) => Value::Bool(*b).coerce_to(def.data_type).map_err(at)?,
                Some(JsonValue::Number(x)) => number_to_value(*x, def.data_type).map_err(at)?,
                Some(JsonValue::String(s)) => parse_field(s, def.data_type).map_err(at)?,
                Some(other) => {
                    return Err(RsError::Analysis(format!(
                        "line {lineno}: nested JSON ({other:?}) cannot load into column {:?}",
                        def.name
                    )))
                }
            };
            if v.is_null() && !def.nullable {
                return Err(RsError::Analysis(format!(
                    "line {lineno}: NULL in NOT NULL column {:?}",
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
        let cols =
            parse_csv("1,http://a,2015-05-31,9.99\n2,,2015-06-01,\n", 1, ',', &schema()).unwrap();
        assert_eq!(cols[0].len(), 2);
        assert_eq!(cols[1].get_str(0), Some("http://a"));
        assert!(cols[1].is_null(1));
        assert!(cols[3].is_null(1));
        assert_eq!(cols[3].get(0).to_string(), "9.99");
    }

    #[test]
    fn csv_errors_carry_line_numbers() {
        let err = parse_csv("1,a,2015-05-31\n", 1, ',', &schema()).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = parse_csv("1,a,2015-05-31,1\n,b,2015-05-31,1\n", 1, ',', &schema()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("NOT NULL"), "{err}");
        // A unit starting at line 40 numbers its lines from there.
        let err = parse_csv("1,a,2015-05-31,1\n,b,2015-05-31,1\n", 40, ',', &schema()).unwrap_err();
        assert!(err.to_string().contains("line 41"), "{err}");
        let err = parse_json_lines("{\"id\": 1}\n{\"id\": \"x\"}\n", 7, &schema()).unwrap_err();
        assert!(err.to_string().starts_with("ANALYSIS: line 8: "), "{err}");
    }

    /// Units tile the text on line ends and number their lines as the
    /// text does: parsing them in order, at any unit size, is parsing the
    /// text — the same columns, or the same first error.
    #[test]
    fn units_parse_as_the_whole_text() {
        let mut rng = Pcg32::seed_from_u64(seed_from_env_or(28));
        for case in 0..200 {
            let mut text = String::new();
            for i in 0..rng.gen_range(0..60) {
                match rng.gen_range(0..20) {
                    0 => text.push('\n'),
                    1 => text.push_str(&format!("{i},bad,2015-01-01,x\n")),
                    2 => text.push_str(&format!("{i},naïve\r\n")),
                    _ => text.push_str(&format!("{i},u{i}日本,2015-01-0{},1.5\n", 1 + i % 9)),
                }
            }
            if rng.gen_bool(0.5) {
                text.pop(); // no final line end
            }
            let size = rng.gen_range(1..64);
            let units = units(text.as_bytes(), size);
            let tiles: Vec<_> = units.iter().map(|u| u.bytes.clone()).collect();
            assert_eq!(tiles.first().map_or(0, |r| r.start), 0, "case {case}");
            assert_eq!(tiles.last().map_or(0, |r| r.end), text.len(), "case {case}");
            assert!(tiles.windows(2).all(|w| w[0].end == w[1].start), "case {case}");
            assert!(
                tiles.iter().all(|r| r.len() >= size.min(text.len() - r.start)),
                "case {case}: a unit stopped short of its size"
            );
            let mut whole: Result<Vec<ColumnData>> = Ok(Vec::new());
            for u in &units {
                let piece = &text[u.bytes.clone()];
                assert!(u.bytes.end == text.len() || piece.ends_with('\n'), "case {case}");
                assert_eq!(u.first_line, 1 + text[..u.bytes.start].matches('\n').count());
                whole = whole.and_then(|mut acc: Vec<ColumnData>| {
                    let cols = parse_csv(piece, u.first_line, ',', &schema())?;
                    if acc.is_empty() {
                        return Ok(cols);
                    }
                    acc.iter_mut().zip(&cols).for_each(|(a, c)| a.append(c));
                    Ok(acc)
                });
            }
            match (whole, parse_csv(&text, 1, ',', &schema())) {
                (Ok(a), Ok(b)) if a.is_empty() => assert!(b.iter().all(|c| c.is_empty())),
                (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case}"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "case {case}"),
                (a, b) => panic!("case {case}: units {a:?} vs whole {b:?}"),
            }
        }
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
            let typed = parse_csv(&text, 1, delimiter, &wide);
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

    /// A numeric field as a load might hold it: signs, leading zeros, up to
    /// 24 digits, a point, an exponent, `inf` / `NaN`, and malformed ones.
    fn number(rng: &mut Pcg32) -> String {
        let sign = ["", "", "-", "+"][rng.gen_index(4)];
        let zeros = "0".repeat(rng.gen_range(0..3));
        let mut digits = |n: usize| -> String {
            (0..rng.gen_range(0..n)).map(|_| char::from(b'0' + rng.gen_range(0..10u8))).collect()
        };
        let (int, frac) = (digits(25), digits(25));
        match rng.gen_range(0..10) {
            0..=3 => format!("{sign}{zeros}{int}"),
            4..=6 => format!("{sign}{zeros}{int}.{frac}"),
            7 => format!("{sign}{int}.{frac}e{}{}", ["", "-", "+"][rng.gen_index(3)], rng.gen_range(0..400)),
            8 => format!("{sign}{}", ["inf", "infinity", "NaN", "nan", "INF"][rng.gen_index(5)]),
            _ => ["", ".", "-", "+", "1.", ".5", "1..2", "0x10", "1_0", "--1", "1-", "٣"][rng.gen_index(12)].into(),
        }
    }

    /// The fast paths equal `str::parse` bit for bit wherever they answer,
    /// and answer for the short plain decimals a load is made of.
    #[test]
    fn fast_parsers_equal_str_parse() {
        let mut rng = Pcg32::seed_from_u64(seed_from_env_or(46));
        let (mut fast_int, mut fast_float) = (0, 0);
        for case in 0..40_000 {
            let s = number(&mut rng);
            if let Some(v) = types::parse_int_ascii(s.as_bytes()) {
                assert_eq!(Ok(v), s.parse::<i64>().map_err(|_| ()), "case {case}: {s:?}");
                fast_int += 1;
            }
            if let Some(v) = types::parse_f64_ascii(s.as_bytes()) {
                let want = s.parse::<f64>().map(f64::to_bits).map_err(|_| ());
                assert_eq!(Ok(v.to_bits()), want, "case {case}: {s:?}");
                fast_float += 1;
            }
        }
        assert!(fast_int > 5_000 && fast_float > 10_000, "{fast_int} ints, {fast_float} floats fast");
        for s in ["9007199254740993", "0.1", "-0.0", "+.5", "5.", "123456789012345.6", "1e3"] {
            let fast = types::parse_f64_ascii(s.as_bytes()).map(f64::to_bits);
            assert!(fast.is_none() || fast == s.parse::<f64>().ok().map(f64::to_bits), "{s:?}");
        }
    }

    /// [`next_row`] cuts a text as `str::lines`, `split` and `str::trim` do —
    /// `\r\n`, blank and whitespace-only lines, no final line end, non-ASCII
    /// whitespace, ASCII and non-ASCII delimiters — and a numeric load
    /// parses to the same columns, or the same error at the same line, as
    /// per-field `str::parse`.
    #[test]
    fn one_scan_cuts_as_lines_split_trim() {
        let mut rng = Pcg32::seed_from_u64(seed_from_env_or(47));
        let pieces = ["", " ", "a", " b ", "\u{3000}x\u{3000}", "\u{a0}y", "é", "日本", "\t", "\u{b}v", "c\r", "\r"];
        let numeric = Schema::new(vec![
            ColumnDef::new("i8", DataType::Int8),
            ColumnDef::new("i4", DataType::Int4),
            ColumnDef::new("i2", DataType::Int2),
            ColumnDef::new("f", DataType::Float8),
        ])
        .unwrap();
        let (mut loaded, mut failed) = (0, 0);
        for case in 0..2_000 {
            let delimiter = [',', '|', '\t', ' ', ';', '→', '\r'][rng.gen_index(7)];
            let (numbers, width) = (case % 2 == 0, rng.gen_range(1..5));
            let mut text = String::new();
            for _ in 0..rng.gen_range(0..30) {
                match rng.gen_range(0..12) {
                    0 => text.push_str(["\n", "\r\n", "  \n", "\t\r\n"][rng.gen_index(4)]),
                    _ => {
                        let fields: Vec<String> = (0..if numbers { 4 } else { width })
                            .map(|c| match numbers {
                                // Every fourth numeric case is clean: small ints, plain decimals.
                                true if case % 8 == 0 || rng.gen_bool(0.9) => {
                                    let (sign, n) = (["", "-", "+", " -0"][rng.gen_index(4)], rng.gen_range(0..30_000));
                                    match c {
                                        3 => format!("{sign}{n}.{}", rng.gen_range(0..1_000_000)),
                                        _ => format!("{sign}{n}"),
                                    }
                                }
                                true => format!("{}{}", ["", " ", "\u{3000}"][rng.gen_index(3)], number(&mut rng)),
                                false => pieces[rng.gen_index(pieces.len())].to_string(),
                            })
                            .collect();
                        text.push_str(&fields.join(&delimiter.to_string()));
                        text.push_str(if rng.gen_bool(0.3) { "\r\n" } else { "\n" });
                    }
                }
            }
            if rng.gen_bool(0.3) {
                text.pop(); // no final line end (or a bare final `\r`)
            }
            let first = rng.gen_range(1..100);
            let (mut at, mut line, mut got) = (0, first, Vec::new());
            loop {
                let mut fields = Vec::new();
                let Some(n) = next_row(&text, (&mut at, &mut line), delimiter, &mut fields) else { break };
                got.push((n, fields));
            }
            let want: Vec<(usize, Vec<&str>)> = (text.lines().enumerate())
                .filter(|(_, l)| !l.is_empty())
                .map(|(i, l)| (first + i, l.split(delimiter).map(str::trim).collect()))
                .collect();
            assert_eq!(got, want, "case {case}: {text:?}");
            if numbers {
                match (parse_csv(&text, 1, delimiter, &numeric), parse_csv_by_field(&text, delimiter, &numeric)) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(format!("{a:?}"), format!("{b:?}"), "case {case}");
                        loaded += 1;
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "case {case}: {text:?}");
                        failed += 1;
                    }
                    (a, b) => panic!("case {case}: one scan {a:?} vs per field {b:?}\n{text:?}"),
                }
            }
        }
        assert!(loaded >= 100 && failed >= 200, "both outcomes exercised: {loaded} ok, {failed} err");
    }

    #[test]
    fn custom_delimiter() {
        let cols = parse_csv("5|x|2015-01-01|1.5\n", 1, '|', &schema()).unwrap();
        assert_eq!(cols[0].get_i64(0), Some(5));
    }

    #[test]
    fn json_lines_by_name() {
        let cols = parse_json_lines(
            r#"{"id": 1, "URL": "http://a", "d": "2015-05-31", "amount": 9.99}
               {"id": 2, "extra": "ignored"}"#,
            1,
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
        assert!(parse_json_lines(r#"{"id": 1, "url": ["a"], "d": null, "amount": null}"#, 1, &s)
            .is_err());
        assert!(parse_json_lines("[1,2,3]", 1, &s).is_err());
        assert!(parse_json_lines(r#"{"id": null}"#, 1, &s).is_err(), "NOT NULL enforced");
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
