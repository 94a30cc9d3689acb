//! Maintenance: VACUUM / ANALYZE, and the paper's §3.2/§4/§5 "future
//! work", implemented — the self-maintenance advisor, EVEN → ALL
//! redistribution, JSON auto-relationalization and key rotation.

use super::write::WriteScope;
use super::{Cluster, ExecSummary};
use crate::autonomics::{self, MaintenanceAction, MaintenancePolicy};
use crate::catalog::TableEntry;
use redsim_common::{Result, RsError};
use redsim_distribution::DistStyle;
use redsim_storage::table::SortKeySpec;
use std::sync::Arc;

impl Cluster {
    /// The table a statement names, or every table when it names none.
    fn tables_or_all(&self, table: Option<&str>) -> Result<Vec<Arc<TableEntry>>> {
        let catalog = self.leader.catalog.read();
        match table {
            Some(t) => Ok(vec![catalog
                .get(t)
                .ok_or_else(|| RsError::NotFound(format!("relation {t:?}")))?]),
            None => Ok(catalog.tables().cloned().collect()),
        }
    }

    pub(super) fn run_vacuum(&self, table: Option<&str>) -> Result<ExecSummary> {
        self.check_writable()?;
        let txn = self.begin_write_txn(WriteScope::Exclusive)?;
        // Each draft re-sorts into new blocks and keeps the old ones,
        // which still back the committed version: `commit_exclusive`
        // frees them once the post-vacuum layout is durable, and an
        // error on any table drops every draft, new blocks and all.
        let mut drafts = Vec::new();
        let mut rewritten = 0u64;
        for entry in self.tables_or_all(table)? {
            let mut draft = self.draft(&entry);
            rewritten += self.compute.vacuum(&mut draft.next)?;
            drafts.push(draft);
        }
        // VACUUM re-sorts without changing visible rows, but the blocks
        // behind a cached plan's zone maps did change; the commit bumps
        // the catalog version as for every other mutating statement.
        self.commit_exclusive(txn.txn, drafts)?;
        Ok(ExecSummary { rows_affected: rewritten, message: format!("VACUUM {rewritten}") })
    }

    pub(super) fn run_analyze(&self, table: Option<&str>) -> Result<ExecSummary> {
        self.check_readable()?;
        // Exclusive so the refreshed stats and the checkpoint that makes
        // them durable are a consistent image. (A load's statistics fold
        // instead rides the statement's own writer lock and delta.)
        let txn = self.begin_write_txn(WriteScope::Exclusive)?;
        let mut drafts = Vec::new();
        for entry in self.tables_or_all(table)? {
            let mut draft = self.draft(&entry);
            let stats = self.compute.analyze(&entry, &draft.next)?;
            draft.next.state.rows_estimate = stats.rows;
            draft.next.state.loads_since_analyze = 0;
            draft.next.state.stats = Some(stats);
            drafts.push(draft);
        }
        let analyzed = drafts.len() as u64;
        self.commit_exclusive(txn.txn, drafts)?;
        Ok(ExecSummary { rows_affected: analyzed, message: format!("ANALYZE {analyzed} tables") })
    }

    /// Self-maintenance pass (§3.2 future work): inspect every table and
    /// VACUUM/ANALYZE the ones whose telemetry crosses the policy's
    /// thresholds. Returns the actions taken. Intended to be called "when
    /// load is otherwise light" — e.g. from a host-manager idle hook.
    pub fn maintenance_tick(&self, policy: &MaintenancePolicy) -> Result<Vec<MaintenanceAction>> {
        self.check_writable()?;
        let mut actions = Vec::new();
        let candidates: Vec<(String, bool, bool)> = {
            let catalog = self.leader.catalog.read();
            catalog
                .tables()
                .map(|t| {
                    let version = t.snapshot();
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
        for (name, needs_vacuum, needs_analyze) in candidates {
            if needs_vacuum {
                self.run_vacuum(Some(&name))?;
                self.leader.usage.record_feature("AUTO VACUUM");
                actions.push(MaintenanceAction::Vacuum { table: name.clone() });
            }
            if needs_analyze {
                self.run_analyze(Some(&name))?;
                self.leader.usage.record_feature("AUTO ANALYZE");
                actions.push(MaintenanceAction::Analyze { table: name });
            }
        }
        // EVEN → ALL for small, stable dimension tables: joins against a
        // replicated copy are DS_DIST_ALL_NONE (no interconnect traffic).
        if let Some(max_rows) = policy.auto_all_max_rows {
            let small_even: Vec<String> = {
                let catalog = self.leader.catalog.read();
                catalog
                    .tables()
                    .filter(|t| {
                        matches!(t.dist_style, DistStyle::Even)
                            && t.snapshot().state.stats.is_some() // only analyzed (stable) tables
                            && t.logical_rows() > 0
                            && t.logical_rows() <= max_rows
                    })
                    .map(|t| t.name.clone())
                    .collect()
            };
            for name in small_even {
                self.redistribute_all(&name)?;
                self.leader.usage.record_feature("AUTO DISTSTYLE ALL");
                actions.push(MaintenanceAction::RedistributeAll { table: name });
            }
        }
        Ok(actions)
    }

    /// Convert a table to DISTSTYLE ALL in place (used by the maintenance
    /// advisor; also callable directly).
    pub fn redistribute_all(&self, table: &str) -> Result<()> {
        self.check_writable()?;
        let txn = self.begin_write_txn(WriteScope::Exclusive)?;
        let entry = self
            .leader
            .catalog
            .read()
            .get(table)
            .ok_or_else(|| RsError::NotFound(format!("relation {table:?}")))?;
        if matches!(entry.dist_style, DistStyle::All) {
            return Ok(());
        }
        // Read every row, rebuild under ALL, swap into the catalog.
        let new_entry = TableEntry::new(
            entry.name.clone(),
            entry.schema.clone(),
            DistStyle::All,
            entry.sort_key.clone(),
            &self.compute.topology,
            self.config.rows_per_group,
        )?;
        let mut draft = self.draft(&new_entry);
        self.compute.copy_table(&new_entry, &mut draft.next, &self.compute, &entry)?;
        // Preserve sortedness: the rebuild appended into the unsorted
        // region; re-sort so zone maps keep working.
        if !matches!(new_entry.sort_key, SortKeySpec::None) {
            let unsorted = draft.next.clone();
            let sorted = self.compute.vacuum(&mut draft.next);
            self.compute.delete_unshared(&unsorted, &draft.next);
            sorted?;
        }
        draft.install(txn.txn);
        // Swap in the ALL layout, make it durable, and only then free
        // the old layout's blocks (deferred deletion — a crash on either
        // side of the commit mark leaves one complete block set; the
        // other side is scrubbed as orphans during recovery).
        let swap = |from: &Arc<TableEntry>, to: &Arc<TableEntry>| {
            let mut catalog = self.leader.catalog.write();
            let _ = catalog.drop_table(&from.name);
            catalog.create(Arc::clone(to))
        };
        swap(&entry, &new_entry)?;
        if let Err(e) = self.log_checkpoint(txn.txn) {
            // Undo the swap so the failed statement is invisible.
            let _ = swap(&new_entry, &entry);
            self.compute.delete_blocks(new_entry.snapshot().block_ids());
            return Err(e);
        }
        self.compute.delete_blocks(entry.snapshot().block_ids());
        // The table changed distribution: plans compiled against the old
        // layout are stale, and cached results (though still row-correct)
        // follow the same committed-write rule as everything else.
        self.leader.schema_changed();
        Ok(())
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
            let bytes = self.s3().get(&self.config.region, key)?;
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
        self.leader.usage.record_feature("RELATIONALIZE");
        Ok((ddl, loaded.rows_affected))
    }

    /// Rotate the cluster key (re-wraps block keys only; §3.2).
    pub fn rotate_cluster_key(&self) -> Result<()> {
        let txn = self.begin_write_txn(WriteScope::Exclusive)?;
        // Deterministic per cluster seed, distinct per rotation.
        self.durable.rotate_cluster_key(self.config.seed ^ txn.txn.rotate_left(32))
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
    fn usage_stats_collected() {
        let c = Cluster::launch(ClusterConfig::new("usage").nodes(1).slices_per_node(1)).unwrap();
        c.execute("CREATE TABLE t (a BIGINT)").unwrap();
        c.execute("INSERT INTO t VALUES (1)").unwrap();
        for _ in 0..3 {
            c.query("SELECT COUNT(*) FROM t").unwrap();
        }
        c.query("SELECT a FROM t ORDER BY a LIMIT 1").unwrap();
        let _ = c.execute("SELECT broken FROM t"); // error → telemetry
        let features = c.usage_stats().top_features();
        assert_eq!(features[0].0, "SELECT");
        assert_eq!(features[0].1, 4);
        let shapes = c.usage_stats().top_plan_shapes();
        assert!(shapes.iter().any(|(s, _)| s.contains("HashAggregate")), "{shapes:?}");
        assert!(shapes.iter().any(|(s, _)| s.contains("Limit")), "{shapes:?}");
        let errors = c.usage_stats().top_errors();
        assert_eq!(errors[0].0, "ANALYSIS");
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
