//! The paper's "future work" automation, implemented.
//!
//! * §3.2: "Future work will remove the need for user-initiated table
//!   administration operations … The database should be able to determine
//!   when data access performance is degrading and take action to correct
//!   itself when load is otherwise light." → [`MaintenancePolicy`] +
//!   auto-VACUUM/auto-ANALYZE driven by unsorted-fraction and staleness
//!   telemetry, run from [`crate::Cluster::maintenance_tick`].
//! * §4: "we could support … automatically 'relationalizing' source
//!   semi-structured data into tables for efficient query execution" →
//!   [`infer_json_schema`]: schema inference over JSON-lines objects,
//!   used by [`crate::Cluster::relationalize_json`].
//! * §5: "we would like to add automated collection of usage statistics
//!   by feature, query plan shapes, etc." → [`UsageStats`], collected on
//!   every statement the leader executes.

use crate::json::{self, JsonValue};
use redsim_testkit::sync::Mutex;
use redsim_common::{ColumnDef, DataType, FxHashMap, Result, RsError, Schema};

// ---------------------------------------------------------------------
// §4: JSON schema inference
// ---------------------------------------------------------------------

/// Inferred column type lattice: widen as evidence accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inferred {
    Unknown,
    Bool,
    Int,
    Float,
    Timestamp,
    Date,
    Text,
}

impl Inferred {
    fn widen(self, other: Inferred) -> Inferred {
        use Inferred::*;
        match (self, other) {
            (Unknown, x) | (x, Unknown) => x,
            (a, b) if a == b => a,
            (Int, Float) | (Float, Int) => Float,
            (Date, Timestamp) | (Timestamp, Date) => Timestamp,
            // Anything else conflicts down to text.
            _ => Text,
        }
    }

    fn data_type(self) -> DataType {
        match self {
            Inferred::Bool => DataType::Bool,
            Inferred::Int => DataType::Int8,
            Inferred::Float => DataType::Float8,
            Inferred::Date => DataType::Date,
            Inferred::Timestamp => DataType::Timestamp,
            Inferred::Unknown | Inferred::Text => DataType::Varchar,
        }
    }
}

fn classify(v: &JsonValue) -> Inferred {
    match v {
        JsonValue::Null => Inferred::Unknown,
        JsonValue::Bool(_) => Inferred::Bool,
        JsonValue::Number(x) => {
            if x.fract() == 0.0 && x.abs() < 9.2e18 {
                Inferred::Int
            } else {
                Inferred::Float
            }
        }
        JsonValue::String(s) => {
            if redsim_common::types::parse_date(s).is_ok() {
                Inferred::Date
            } else if redsim_common::types::parse_timestamp(s).is_ok() {
                Inferred::Timestamp
            } else {
                Inferred::Text
            }
        }
        // Nested values relationalize as their JSON text.
        JsonValue::Array(_) | JsonValue::Object(_) => Inferred::Text,
    }
}

/// Infer a relational schema from JSON-lines text. Columns appear in
/// first-seen order; conflicting types widen (int→float→text); fields
/// never seen non-null become VARCHAR.
pub fn infer_json_schema(text: &str) -> Result<Schema> {
    let mut order: Vec<String> = Vec::new();
    let mut types: FxHashMap<String, Inferred> = FxHashMap::default();
    let mut saw_any = false;
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
                    "line {}: expected one JSON object per line",
                    lineno + 1
                )))
            }
        };
        saw_any = true;
        for (k, v) in &obj {
            let key = k.to_ascii_lowercase();
            if !types.contains_key(&key) {
                order.push(key.clone());
                types.insert(key.clone(), Inferred::Unknown);
            }
            let t = types.get_mut(&key).expect("inserted above");
            *t = t.widen(classify(v));
        }
    }
    if !saw_any {
        return Err(RsError::Analysis("no JSON objects to infer a schema from".into()));
    }
    Schema::new(
        order
            .into_iter()
            .map(|name| {
                let ty = types[&name].data_type();
                ColumnDef::new(name, ty)
            })
            .collect(),
    )
}

/// Render inferred DDL (for logs / EXPLAIN-style visibility).
pub fn schema_to_ddl(table: &str, schema: &Schema) -> String {
    let cols: Vec<String> = schema
        .columns()
        .iter()
        .map(|c| format!("{} {}", c.name, c.data_type))
        .collect();
    format!("CREATE TABLE {table} ({})", cols.join(", "))
}

// ---------------------------------------------------------------------
// §3.2: maintenance advisor
// ---------------------------------------------------------------------

/// Policy for self-maintenance.
#[derive(Debug, Clone)]
pub struct MaintenancePolicy {
    /// VACUUM a table when unsorted rows exceed this fraction of total.
    pub vacuum_unsorted_fraction: f64,
    /// ANALYZE a table when loaded rows since the last ANALYZE exceed
    /// this fraction of the analyzed row count.
    pub analyze_staleness_fraction: f64,
    /// Convert stable EVEN-distributed tables at or below this row count
    /// to DISTSTYLE ALL so joins against them become local (§3.3:
    /// "striving to make … distribution key equally dusty").
    /// `None` disables auto-redistribution.
    pub auto_all_max_rows: Option<u64>,
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        MaintenancePolicy {
            vacuum_unsorted_fraction: 0.2,
            analyze_staleness_fraction: 0.25,
            auto_all_max_rows: Some(5_000),
        }
    }
}

/// One recommended (and, via `maintenance_tick`, executed) action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintenanceAction {
    Vacuum { table: String },
    Analyze { table: String },
    /// EVEN → ALL conversion of a small dimension table.
    RedistributeAll { table: String },
}

// ---------------------------------------------------------------------
// §5: usage statistics
// ---------------------------------------------------------------------

/// Fleet-telemetry style usage collection on the leader.
#[derive(Debug, Default)]
pub struct UsageStats {
    inner: Mutex<UsageInner>,
}

#[derive(Debug, Default)]
struct UsageInner {
    /// Statement kind → count ("usage statistics by feature").
    by_feature: FxHashMap<String, u64>,
    /// Plan shape (operator skeleton) → count ("query plan shapes").
    by_plan_shape: FxHashMap<String, u64>,
    errors_by_code: FxHashMap<String, u64>,
}

impl UsageStats {
    pub fn record_feature(&self, feature: &str) {
        bump(&mut self.inner.lock().by_feature, feature);
    }

    pub fn record_plan_shape(&self, shape: String) {
        *self.inner.lock().by_plan_shape.entry(shape).or_insert(0) += 1;
    }

    pub fn record_error(&self, code: &str) {
        bump(&mut self.inner.lock().errors_by_code, code);
    }

    /// (feature, count) sorted by count desc — the Pareto view of §5.
    pub fn top_features(&self) -> Vec<(String, u64)> {
        ranked(&self.inner.lock().by_feature)
    }

    pub fn top_plan_shapes(&self) -> Vec<(String, u64)> {
        ranked(&self.inner.lock().by_plan_shape)
    }

    pub fn top_errors(&self) -> Vec<(String, u64)> {
        ranked(&self.inner.lock().errors_by_code)
    }
}

/// Count one `key`: a hit looks the name up and allocates nothing; only a
/// miss builds the `String` key (these run on every statement).
fn bump(counts: &mut FxHashMap<String, u64>, key: &str) {
    if let Some(n) = counts.get_mut(key) {
        return *n += 1;
    }
    counts.insert(key.to_string(), 1);
}

/// Counts sorted descending (ties by key, so the order is stable).
fn ranked(counts: &FxHashMap<String, u64>) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = counts.iter().map(|(k, &c)| (k.clone(), c)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Reduce a plan's EXPLAIN text to its operator skeleton ("plan shape"):
/// operator names joined in tree order, literals and tables elided.
pub fn plan_shape(explain: &str) -> String {
    explain
        .lines()
        .filter_map(|l| {
            let t = l.trim_start();
            t.strip_prefix("XN ").map(|rest| {
                rest.split([' ', '(']).next().unwrap_or("?").to_string()
            })
        })
        .collect::<Vec<_>>()
        .join(">")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infers_types_and_widens() {
        let schema = infer_json_schema(
            r#"{"id": 1, "price": 9.5, "ok": true, "when": "2015-05-31", "note": "x"}
               {"id": 2, "price": 3, "ok": false, "when": "2015-06-01", "extra": null}
               {"id": 99999999999, "note": 7}"#,
        )
        .unwrap();
        assert_eq!(schema.field("id").unwrap().data_type, DataType::Int8);
        assert_eq!(schema.field("price").unwrap().data_type, DataType::Float8);
        assert_eq!(schema.field("ok").unwrap().data_type, DataType::Bool);
        assert_eq!(schema.field("when").unwrap().data_type, DataType::Date);
        // note: string then number → conflicts to text.
        assert_eq!(schema.field("note").unwrap().data_type, DataType::Varchar);
        // extra: only null → text.
        assert_eq!(schema.field("extra").unwrap().data_type, DataType::Varchar);
    }

    #[test]
    fn first_seen_order_preserved() {
        let schema = infer_json_schema(r#"{"b": 1, "a": 2}"#).unwrap();
        // BTreeMap orders object keys; first-seen across *lines* governs:
        let names: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"a") && names.contains(&"b"));
    }

    #[test]
    fn rejects_empty_and_non_objects() {
        assert!(infer_json_schema("").is_err());
        assert!(infer_json_schema("[1,2]").is_err());
    }

    #[test]
    fn ddl_rendering() {
        let schema = infer_json_schema(r#"{"id": 1, "u": "x"}"#).unwrap();
        let ddl = schema_to_ddl("t", &schema);
        assert!(ddl.starts_with("CREATE TABLE t ("), "{ddl}");
        assert!(ddl.contains("BIGINT"), "{ddl}");
    }

    #[test]
    fn usage_stats_pareto_order() {
        let u = UsageStats::default();
        for _ in 0..5 {
            u.record_feature("SELECT");
        }
        u.record_feature("COPY");
        u.record_error("EXEC");
        assert_eq!(u.top_features()[0], ("SELECT".to_string(), 5));
        assert_eq!(u.top_errors()[0].0, "EXEC");
    }

    #[test]
    fn plan_shape_extraction() {
        let explain = "XN Limit 5\n  XN Sort (1 keys)\n    XN HashAggregate (groups=1, aggs=2)\n      XN Seq Scan on t (cols [0])\n";
        assert_eq!(plan_shape(explain), "Limit>Sort>HashAggregate>Seq");
    }

    #[test]
    fn timestamp_vs_date_widening() {
        let schema = infer_json_schema(
            r#"{"t": "2015-05-31"}
               {"t": "2015-05-31 10:00:00"}"#,
        )
        .unwrap();
        assert_eq!(schema.field("t").unwrap().data_type, DataType::Timestamp);
    }
}
