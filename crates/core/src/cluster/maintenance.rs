//! Maintenance: VACUUM / ANALYZE, and the paper's §3.2/§4/§5 "future
//! work", implemented — the self-maintenance advisor, EVEN → ALL
//! redistribution, JSON auto-relationalization and key rotation.
//!
//! VACUUM and ANALYZE are table writers, one commit per table (DESIGN.md
//! §15); `redistribute_all` changes a definition and stays exclusive.

use super::write::Draft;
use super::{Cluster, ExecSummary};
use crate::autonomics::{self, MaintenanceAction, MaintenancePolicy};
use crate::catalog::TableEntry;
use redsim_common::{Result, RsError};
use redsim_distribution::DistStyle;
use redsim_storage::table::SortKeySpec;
use std::sync::Arc;

impl Cluster {
    /// `table`, or when a statement names none, every table in catalog
    /// order — each its own table writer's commit in `run`, so the tables
    /// before a refused one stay committed and a rerun is idempotent. A
    /// table dropped since the listing is skipped.
    fn each_table(
        &self,
        table: Option<&str>,
        mut run: impl FnMut(Draft<'_>) -> Result<()>,
    ) -> Result<u64> {
        let names: Vec<String> = match table {
            Some(t) => vec![t.to_string()],
            None => self.leader.catalog().tables().map(|(t, _)| t.name.clone()).collect(),
        };
        let mut done = 0;
        for name in names {
            match self.begin_table(&name) {
                Err(RsError::NotFound(_)) if table.is_none() => continue,
                draft => run(draft?)?,
            }
            done += 1;
        }
        Ok(done)
    }

    pub(super) fn run_vacuum(&self, table: Option<&str>) -> Result<ExecSummary> {
        // A table re-sorts into new blocks in the draft; the old ones
        // still back the published catalog and go when the last catalog
        // naming them drops, after the commit. An error drops the draft,
        // new blocks and all.
        let mut rewritten = 0u64;
        self.each_table(table, |mut draft| {
            rewritten += self.compute.vacuum(draft.table_mut().1)?;
            draft.commit()
        })?;
        Ok(ExecSummary { rows_affected: rewritten, message: format!("VACUUM {rewritten}") })
    }

    pub(super) fn run_analyze(&self, table: Option<&str>) -> Result<ExecSummary> {
        let analyzed = self.each_table(table, |mut draft| {
            let (entry, version) = draft.table();
            let stats = self.compute.analyze(entry, version)?;
            let state = &mut draft.table_mut().1.state;
            state.rows_estimate = stats.rows;
            state.loads_since_analyze = 0;
            state.stats = Some(stats);
            draft.commit()
        })?;
        Ok(ExecSummary { rows_affected: analyzed, message: format!("ANALYZE {analyzed} tables") })
    }

    /// Self-maintenance pass (§3.2 future work): inspect every table and
    /// VACUUM/ANALYZE the ones whose telemetry crosses the policy's
    /// thresholds. A table whose writer is busy (a COPY or INSERT into it
    /// is running) is left for the next pass. Returns the actions taken.
    /// Meant to run "when load is otherwise light"; nothing in the cluster
    /// schedules it yet — its callers are the tests and
    /// `examples/self_driving.rs`.
    pub fn maintenance_tick(&self, policy: &MaintenancePolicy) -> Result<Vec<MaintenanceAction>> {
        self.check_writable()?;
        let mut actions = Vec::new();
        let candidates: Vec<(String, bool, bool)> = {
            let catalog = self.leader.catalog();
            catalog
                .tables()
                .map(|(t, version)| {
                    let (total, unsorted) = version.stored_rows();
                    let needs_vacuum = total > 0
                        && !matches!(t.sort_key, SortKeySpec::None)
                        && (unsorted as f64 / total as f64) > policy.vacuum_unsorted_fraction;
                    let analyzed_rows = version.state.stats.as_ref().map_or(0, |s| s.rows);
                    let fresh_loads = version.state.loads_since_analyze;
                    let needs_analyze = fresh_loads > 0
                        && (analyzed_rows == 0
                            || (fresh_loads as f64 / analyzed_rows as f64)
                                > policy.analyze_staleness_fraction);
                    (t.name.clone(), needs_vacuum, needs_analyze)
                })
                .collect()
        };
        // Whether `done` ran; a busy table (`Serializable`) did not.
        let ran = |done: Result<ExecSummary>| match done {
            Ok(_) => Ok(true),
            Err(RsError::Serializable(_)) => Ok(false),
            Err(e) => Err(e),
        };
        for (name, needs_vacuum, needs_analyze) in candidates {
            if needs_vacuum && ran(self.run_vacuum(Some(&name)))? {
                actions.push(MaintenanceAction::Vacuum { table: name.clone() });
            }
            if needs_analyze && ran(self.run_analyze(Some(&name)))? {
                actions.push(MaintenanceAction::Analyze { table: name });
            }
        }
        // EVEN → ALL for small, stable dimension tables: joins against a
        // replicated copy are DS_DIST_ALL_NONE (no interconnect traffic).
        if let Some(max_rows) = policy.auto_all_max_rows {
            let small_even: Vec<String> = {
                let catalog = self.leader.catalog();
                catalog
                    .tables()
                    .filter(|(t, v)| {
                        matches!(t.dist_style, DistStyle::Even)
                            && v.state.stats.is_some() // only analyzed (stable) tables
                            && (1..=max_rows).contains(&v.logical_rows(&t.dist_style))
                    })
                    .map(|(t, _)| t.name.clone())
                    .collect()
            };
            for name in small_even {
                self.redistribute_all(&name)?;
                actions.push(MaintenanceAction::RedistributeAll { table: name });
            }
        }
        Ok(actions)
    }

    /// Convert a table to DISTSTYLE ALL in place (used by the maintenance
    /// advisor; also callable directly).
    pub fn redistribute_all(&self, table: &str) -> Result<()> {
        self.check_writable()?;
        let mut draft = self.begin_exclusive();
        // Already ALL: the draft is left unchanged, so its drop rolls
        // nothing back.
        if draft.next.get(table).is_some_and(|(t, _)| matches!(t.dist_style, DistStyle::All)) {
            return Ok(());
        }
        // Read every row, rebuild under ALL (sorted, as every re-layout)
        // in place of the old layout, whose blocks go with the last
        // catalog naming it; the commit drops plans compiled against it.
        let (entry, image) = draft.next.drop_table(table)?;
        let (all, empty) = TableEntry::new(
            entry.name.clone(),
            entry.schema.clone(),
            DistStyle::All,
            entry.sort_key.clone(),
            &self.compute.topology,
            self.config.rows_per_group,
        )?;
        let next = draft.next.create((Arc::clone(&all), empty))?;
        self.compute.copy_table(&all, next, &self.compute, &entry, &image)?;
        draft.commit()
    }

    /// Auto-relationalize semi-structured data (§4 future work): infer a
    /// relational schema from JSON-lines objects under `s3://prefix`,
    /// create `table` with it, and COPY the data in. Returns the inferred
    /// DDL and rows loaded.
    pub fn relationalize_json(&self, table: &str, s3_uri: &str) -> Result<(String, u64)> {
        self.check_writable()?;
        let prefix = s3_uri
            .strip_prefix("s3://")
            .ok_or_else(|| RsError::Unsupported("sources must be s3:// URIs".into()))?;
        let keys = self.s3().list(&self.config.region, prefix);
        if keys.is_empty() {
            return Err(RsError::NotFound(format!("no objects under {s3_uri}")));
        }
        // Infer over every object (schemas may drift across files — §1's
        // "machine-generated logs that mutate over time").
        let mut corpus = String::new();
        for key in &keys {
            let bytes = self.s3().get_traced(&self.config.region, key, Some(self.trace()))?;
            let text = std::str::from_utf8(&bytes)
                .map_err(|_| RsError::Analysis(format!("{key}: not UTF-8")))?;
            corpus.push_str(text);
            corpus.push('\n');
        }
        let schema = autonomics::infer_json_schema(&corpus)?;
        let ddl = autonomics::schema_to_ddl(table, &schema);
        // Create + load through the normal paths (auto-compression,
        // statistics, distribution all apply).
        self.execute(&ddl)?;
        let loaded = self.execute(&format!("COPY {table} FROM '{s3_uri}' FORMAT JSON"))?;
        Ok((ddl, loaded.rows_affected))
    }

    /// Rotate the cluster key (re-wraps block keys only; §3.2). Readers
    /// overlap it; the exclusive scope keeps out the writers that insert
    /// block keys.
    pub fn rotate_cluster_key(&self) -> Result<()> {
        let draft = self.begin_exclusive();
        // Deterministic per cluster seed, distinct per rotation.
        self.durable.rotate_cluster_key(self.config.seed ^ draft.txn.rotate_left(32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    #[test]
    fn maintenance_tick_vacuums_and_analyzes_when_needed() {
        let c = Cluster::launch(
            ClusterConfig::new("auto").nodes(1).slices_per_node(1).rows_per_group(64),
        )
        .unwrap();
        c.execute("CREATE TABLE t (k BIGINT) COMPOUND SORTKEY(k)").unwrap();
        let mut csv = String::new();
        for j in 0..1_024u64 {
            csv.push_str(&format!("{}\n", (j * 2_654_435_761) % 1_024));
        }
        c.put_s3_object("a/1", csv.into_bytes());
        // STATUPDATE OFF leaves stats stale; the load is fully unsorted.
        c.execute("COPY t FROM 's3://a/' STATUPDATE OFF").unwrap();
        let actions = c.maintenance_tick(&MaintenancePolicy::default()).unwrap();
        assert!(
            actions.contains(&MaintenanceAction::Vacuum { table: "t".into() }),
            "{actions:?}"
        );
        assert!(
            actions.contains(&MaintenanceAction::Analyze { table: "t".into() }),
            "{actions:?}"
        );
        // A second tick is a no-op: the system healed itself.
        let again = c.maintenance_tick(&MaintenancePolicy::default()).unwrap();
        assert!(again.is_empty(), "{again:?}");
        // And pruning now works (the point of the §3.2 future work).
        let r = c.query("SELECT COUNT(*) FROM t WHERE k BETWEEN 10 AND 20").unwrap();
        assert!(r.metrics.groups_skipped > 0);
    }

    #[test]
    fn maintenance_skips_healthy_tables() {
        let c = Cluster::launch(ClusterConfig::new("auto2").nodes(1).slices_per_node(1)).unwrap();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap(); // no sort key
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        let actions = c.maintenance_tick(&MaintenancePolicy::default()).unwrap();
        // No sort key → nothing to vacuum; INSERT is not COPY-tracked.
        assert!(actions.iter().all(|a| !matches!(a, MaintenanceAction::Vacuum { .. })));
    }

    /// Three tables loaded with stale statistics.
    fn stale(name: &str) -> Arc<Cluster> {
        let c = Cluster::launch(
            ClusterConfig::new(name).nodes(1).slices_per_node(2).rows_per_group(64),
        )
        .unwrap();
        c.put_s3_object("in/rows", b"9\n4\n7\n1\n".to_vec());
        for t in ["a", "b", "d"] {
            let ddl = format!("CREATE TABLE {t} (k BIGINT) DISTKEY(k) COMPOUND SORTKEY(k)");
            c.execute(&ddl).unwrap();
            c.execute(&format!("COPY {t} FROM 's3://in/' STATUPDATE OFF")).unwrap();
        }
        c
    }

    /// An unqualified ANALYZE is one table writer's commit per table, in
    /// catalog order: beside a held writer on `b` it commits `a`, is
    /// refused retryably at `b`, and a rerun finishes, `a` again included.
    #[test]
    fn an_unqualified_analyze_beside_a_busy_table_finishes_on_rerun() {
        let c = stale("analyze_all");
        let loads = |c: &Cluster| ["a", "b", "d"].map(|t| c.loads_since_analyze(t));
        let held = c.begin_table("b").unwrap();
        let err = c.execute("ANALYZE").unwrap_err();
        assert!(matches!(err, RsError::Serializable(_)) && err.is_retryable(), "{err}");
        assert_eq!(c.trace().counter_value("txn.conflicts"), 1);
        assert_eq!(loads(&c), [0, 4, 4], "the tables before the busy one stay committed");
        let analyzed = c.table_stats("a");
        drop(held);
        assert_eq!(c.execute("ANALYZE").unwrap().message, "ANALYZE 3 tables");
        assert_eq!(loads(&c), [0, 0, 0]);
        assert_eq!(c.table_stats("a"), analyzed, "a rerun changes nothing it committed");
    }

    /// A maintenance pass leaves a table whose writer is busy for the
    /// next pass, and does not fail.
    #[test]
    fn maintenance_tick_leaves_a_busy_table_for_its_next_pass() {
        let c = stale("busy");
        let tick = |c: &Cluster| {
            let actions = c.maintenance_tick(&MaintenancePolicy::default()).unwrap();
            actions.iter().map(|a| format!("{a:?}")).collect::<Vec<_>>().join(" ")
        };
        let held = c.begin_table("b").unwrap();
        let first = tick(&c);
        assert!(first.contains("\"a\"") && first.contains("\"d\""), "{first}");
        assert!(!first.contains("\"b\""), "a busy table was maintained: {first}");
        drop(held);
        let next = tick(&c);
        let b = "Vacuum { table: \"b\" } Analyze { table: \"b\" }";
        assert_eq!(next, b, "the next pass takes the busy table");
    }

    #[test]
    fn relationalize_json_end_to_end() {
        let c = Cluster::launch(ClusterConfig::new("rel").nodes(2).slices_per_node(2)).unwrap();
        let logs = r#"{"user_id": 7, "event": "click", "amount": 1.25, "at": "2015-05-31 10:00:00"}
{"user_id": 8, "event": "view", "at": "2015-05-31 10:00:01"}
{"user_id": 9, "event": "buy", "amount": 15, "promo": true}"#;
        c.put_s3_object("lake/events-0.json", logs.as_bytes().to_vec());
        let (ddl, loaded) = c.relationalize_json("events", "s3://lake/").unwrap();
        assert_eq!(loaded, 3);
        assert!(ddl.contains("user_id BIGINT"), "{ddl}");
        assert!(ddl.contains("amount DOUBLE PRECISION"), "{ddl}");
        assert!(ddl.contains("at TIMESTAMP"), "{ddl}");
        assert!(ddl.contains("promo BOOLEAN"), "{ddl}");
        let r = c
            .query("SELECT COUNT(*), SUM(amount) FROM events WHERE user_id >= 8")
            .unwrap();
        assert_eq!(r.rows[0].get(0).as_i64(), Some(2));
        assert_eq!(r.rows[0].get(1).as_f64(), Some(15.0));
    }

    #[test]
    fn small_even_dimension_converts_to_all_and_join_goes_local() {
        let c = Cluster::launch(ClusterConfig::new("red").nodes(2).slices_per_node(2)).unwrap();
        c.execute("CREATE TABLE dim (id BIGINT, label VARCHAR)").unwrap(); // EVEN
        c.execute("CREATE TABLE fact (id BIGINT, d BIGINT) DISTKEY(id)").unwrap();
        for i in 0..50 {
            c.execute(&format!("INSERT INTO dim VALUES ({i}, 'l{i}')")).unwrap();
        }
        for i in 0..400 {
            c.execute(&format!("INSERT INTO fact VALUES ({i}, {})", i % 50)).unwrap();
        }
        c.execute("ANALYZE").unwrap();
        // Before: joining on a non-distkey column moves bytes.
        let before = c
            .query("SELECT COUNT(*) FROM fact f JOIN dim d ON f.d = d.id")
            .unwrap();
        assert_eq!(before.rows[0].get(0).as_i64(), Some(400));
        assert!(before.metrics.exchange_bytes() > 0, "{:?}", before.metrics);
        // Maintenance converts the small dimension to ALL.
        let actions = c.maintenance_tick(&MaintenancePolicy::default()).unwrap();
        assert!(
            actions.contains(&MaintenanceAction::RedistributeAll { table: "dim".into() }),
            "{actions:?}"
        );
        let after = c
            .query("SELECT COUNT(*) FROM fact f JOIN dim d ON f.d = d.id")
            .unwrap();
        assert_eq!(after.rows[0].get(0).as_i64(), Some(400), "same answer");
        assert_eq!(
            after.metrics.exchange_bytes(),
            0,
            "join is now DS_DIST_ALL_NONE: {}",
            after.plan
        );
        // Idempotent: a second tick does nothing (dim is already ALL;
        // fact is too big… unless below the threshold — use a tight one).
        let again = c
            .maintenance_tick(&MaintenancePolicy {
                auto_all_max_rows: Some(10),
                ..Default::default()
            })
            .unwrap();
        assert!(again.is_empty(), "{again:?}");
    }
    #[test]
    fn dropped_table_takes_its_load_counter_with_it() {
        let c = Cluster::launch(ClusterConfig::new("drop").nodes(1).slices_per_node(2)).unwrap();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        c.put_s3_object("a/rows", b"1\n2\n3\n".to_vec());
        c.execute("COPY t FROM 's3://a/' STATUPDATE OFF").unwrap();
        assert_eq!(c.loads_since_analyze("t"), 3);
        c.execute("DROP TABLE t").unwrap();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        assert_eq!(c.loads_since_analyze("t"), 0, "a re-created table has loaded nothing");
        assert!(c.maintenance_tick(&MaintenancePolicy::default()).unwrap().is_empty());
        // Nor does a stale count ride the redo checkpoint back in.
        let r = Cluster::recover(c.crash().unwrap()).unwrap();
        assert_eq!(r.loads_since_analyze("t"), 0);
    }
}
